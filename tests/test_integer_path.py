"""The integer path of the even sweep against oracles used in tests only:
sympy for determinants, the Fraction payoff matrix for the entries, and the
Pfaffian identities pf(A)**2 = det(A) and Pf(P A P^T) = det(P) Pf(A)."""

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from tourneylab import RationalMatrix, payoff_matrix
from tourneylab.equilibrium import packed_payoff_rows
from tourneylab.rational import _bareiss_echelon, _pfaffian_expand
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
    rows = packed_payoff_rows(n, mask)
    assert RationalMatrix(rows) == payoff_matrix(tournament_from_canonical(n, mask))
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
