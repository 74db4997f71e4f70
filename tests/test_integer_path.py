"""The integer paths against oracles used in tests only: sympy for
determinants and kernels, the Fraction payoff matrix and the general
polytope routine, the Pfaffian identities pf(A)**2 = det(A) and
Pf(P A P^T) = det(P) Pf(A), the sub-Pfaffians by expansion and the Fraction
Bareiss kernel for the Pfaffian elimination, and the blow-up equilibrium
identity."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from tourneylab import (
    RationalMatrix,
    blow_up,
    canonical_form,
    classic_cycle,
    enumerate_tournaments,
    equilibrium_polytope,
    imbalanced_equilibrium_closed_form,
    imbalanced_rps,
    payoff_matrix,
)
from tourneylab import equilibrium, rational, verify
from tourneylab.cli import build_analysis
from tourneylab.equilibrium import (
    _signed_kernel,
    payoff_rows,
    tournament_equilibrium,
)
from tourneylab.rational import _bareiss_echelon, _pfaffian_expand, kernel_basis
from tourneylab.tournament import tournament_from_canonical


@st.composite
def games(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    mask = draw(st.integers(min_value=0, max_value=(1 << (n * (n - 1) // 2)) - 1))
    perm = draw(st.permutations(range(n)))
    return n, mask, perm


def rank_det(rows):
    a, piv_cols, sign = _bareiss_echelon([row[:] for row in rows])
    full = len(piv_cols) == len(rows)
    return len(piv_cols), sign * a[-1][-1] if full else 0


@settings(max_examples=150, deadline=None, derandomize=True)
@given(games())
def test_integer_path_matches_oracles(game):
    n, mask, perm = game
    rows = payoff_rows(tournament_from_canonical(n, mask))
    r, det = rank_det(rows)
    assert det == sympy.Matrix(rows).det()
    assert r == n - n % 2
    pf = _pfaffian_expand(rows)
    assert pf**2 == det
    P = sympy.zeros(n, n)
    for i, p in enumerate(perm):
        P[i, p] = 1
    permuted = [[rows[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    assert sympy.Matrix(permuted) == P * sympy.Matrix(rows) * P.T
    assert _pfaffian_expand(permuted) == P.det() * pf


@st.composite
def masks(draw):
    n = draw(st.integers(min_value=2, max_value=9))
    return n, draw(st.integers(min_value=0, max_value=(1 << (n * (n - 1) // 2)) - 1))


def signed_sub_pfaffians(rows):
    """(-1)**i Pf A with row and column i removed, for each i."""
    n = len(rows)
    return [
        (-1) ** i
        * _pfaffian_expand([[x for j, x in enumerate(r) if j != i] for k, r in enumerate(rows) if k != i])
        for i in range(n)
    ]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(masks())
def test_equilibrium_kernel_matches_oracles(game):
    n, mask = game
    t = tournament_from_canonical(n, mask)
    rows, win = payoff_rows(t), t.win
    point = tournament_equilibrium(win)  # asserts every pivot Pfaffian odd
    null = sympy.Matrix(rows).nullspace()
    assert len(null) == n % 2
    if n % 2 == 0:
        assert point is None and _signed_kernel(win) is None
        return
    pf = signed_sub_pfaffians(rows)
    assert _signed_kernel(win) == pf
    assert all(x % 2 == 1 for x in pf)
    (v,) = null
    assert sympy.Matrix(pf) * v[0] == v * pf[0]
    if min(pf) > 0 or max(pf) < 0:
        assert point == tuple(Fraction(x, sum(pf)) for x in pf)
    else:
        assert point is None


@pytest.mark.parametrize("n", range(1, 14))
def test_pfaffian_kernel_matches_expansion_and_bareiss_at_every_size_to_13(n):
    rng = random.Random(n)
    for _ in range(3):
        t = tournament_from_canonical(n, rng.getrandbits(n * (n - 1) // 2))
        rows = payoff_rows(t)
        x, basis = _signed_kernel(t.win), kernel_basis(RationalMatrix(rows))
        if n % 2 == 0:
            assert x is None and basis == []
            continue
        assert x == signed_sub_pfaffians(rows)
        (v,) = basis  # normalized so v[0] == 1
        assert all(x[0] * vi == xi for vi, xi in zip(v, x))


def general_point(t):
    """The full-support point of the general Fraction kernel polytope, or None."""
    P = equilibrium_polytope(payoff_matrix(t))
    assert P.kernel_dim == t.n % 2
    return P.vertices[0] if P.is_single_point and all(P.support_mask) else None


def test_equilibrium_matches_general_polytope_up_to_7_objects():
    for n in range(1, 8):
        for t in enumerate_tournaments(n, up_to_iso=True):
            assert tournament_equilibrium(t.win) == general_point(t)


def test_equilibrium_matches_general_polytope_on_9_objects():
    # seeded labeled games are almost all unplayable; the pinned playable class
    # and the construction's class take the positive branch
    rng = random.Random(9)
    masks = [rng.getrandbits(36) for _ in range(300)]
    masks += [281350272, canonical_form(imbalanced_rps(4))]
    playable = 0
    for m in masks:
        t = tournament_from_canonical(9, m)
        point = tournament_equilibrium(t.win)
        assert point == general_point(t)
        playable += point is not None
    assert playable >= 2


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("m", [3, 5])
def test_blow_up_spreads_glued_mass_uniformly(k, m):
    outer, eq = imbalanced_rps(k), imbalanced_equilibrium_closed_form(k)
    for g in range(outer.n):
        blown = blow_up(outer, g, classic_cycle(m))
        expected = [x for i, x in enumerate(eq) if i != g] + [eq[g] / m] * m
        assert tournament_equilibrium(blown.win) == tuple(expected)


def large_games():
    """Seeded random games, constructions and blow-ups of 11 to 51 objects."""
    rng = random.Random(16)
    for n in (11, 13, 21, 31, 51):
        for _ in range(3):
            yield tournament_from_canonical(n, rng.getrandbits(n * (n - 1) // 2))
    for k in (5, 10, 25):
        yield imbalanced_rps(k)
    yield blow_up(imbalanced_rps(5), 3, classic_cycle(9))
    yield blow_up(classic_cycle(11), 0, imbalanced_rps(6))


@pytest.mark.parametrize("t", list(large_games()), ids=lambda t: f"n{t.n}")
def test_pfaffian_kernel_matches_fraction_bareiss(t):
    rows = payoff_rows(t)
    x = _signed_kernel(t.win)
    assert all(sum(a * b for a, b in zip(row, x)) == 0 for row in rows)
    (v,) = kernel_basis(RationalMatrix(rows))  # normalized so v[0] == 1
    assert all(x[0] * vi == xi for vi, xi in zip(v, x))
    assert all(xi % 2 == 1 for xi in x)


def test_odd_games_never_reach_bareiss(monkeypatch):
    def refuse(a):
        raise AssertionError("Bareiss elimination on a tournament game")

    for module in (rational, equilibrium, verify):  # wherever the name is bound
        if hasattr(module, "_bareiss_echelon"):
            monkeypatch.setattr(module, "_bareiss_echelon", refuse)
    games = [imbalanced_rps(6), blow_up(classic_cycle(3), 1, classic_cycle(5))]
    games.append(tournament_from_canonical(11, random.Random(11).getrandbits(55)))
    for t in games:
        build_analysis(t)
        tournament_equilibrium(tournament_from_canonical(t.n, canonical_form(t)).win)
