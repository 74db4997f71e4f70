"""Payoff matrices and exact Nash-equilibrium analysis of tournament games.

The equilibrium set that matters for playability is ker(A) intersected with
the probability simplex. A tournament game's kernel has dimension n mod 2, so
the set is empty or a single point, and the classifier reports which, together
with the strong-connectivity cross-check. Every tournament game has exactly one
optimal strategy, so mixed dominance has a closed form too. The module serves
tournament games only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from enum import Enum
from fractions import Fraction
from operator import mul
from typing import Iterator, Sequence

from .rational import RationalMatrix, Vector, kernel_basis
from .tournament import Tournament, _extended_classes, _iso_classes, _unpack, is_strong
from .tournament import _min_wins_extensions

SUPPORT_ENUM_LIMIT = 8


def payoff_rows(t: Tournament) -> list[list[int]]:
    """Integer rows of the payoff matrix: +1 iff i defeats j, -1 iff j defeats i."""
    rows = []
    for i, w in enumerate(t.win):
        row = [1 if bit == "1" else -1 for bit in f"{w:0{t.n}b}"[::-1]]
        row[i] = 0
        rows.append(row)
    return rows


def payoff_matrix(t: Tournament) -> RationalMatrix:
    """Skew-symmetric matrix with A[i][j] = +1 iff i defeats j."""
    return RationalMatrix(payoff_rows(t))


def packed_payoff_rows(n: int, packed: int) -> list[list[int]]:
    """payoff_rows(tournament_from_canonical(n, packed)), built straight from
    the packed mask."""
    rows = [[0] * n for _ in range(n)]
    for i, j, i_wins in _unpack(n, packed):
        rows[i][j], rows[j][i] = (1, -1) if i_wins else (-1, 1)
    return rows


def _signed_kernel(win: Sequence[int]) -> list[int] | None:
    """((-1)**i Pf A_ii)_i, A_ii being A without row and column i: the kernel of
    the payoff matrix A of an odd tournament game with win masks `win`; None for
    an even game. Fraction-free Pfaffian elimination in 2x2 pivot blocks by
    congruence on the upper triangle leaves Pfaffians of even principal
    sub-tournaments as entries, with exact divisions by Knuth's
    overlapping-Pfaffian identity (Electron. J. Combin. 3(2), 1996, R5). Mod 2 a
    tournament matrix is J - I, so each one is odd: no pivot search, and the
    asserted odd pivots make every even game nonsingular."""
    n = len(win)
    up = [[(w >> j & 1) * 2 - 1 for j in range(i + 1, n)] for i, w in enumerate(win)]
    prev = 1
    for p in range(0, n - 1, 2):
        (piv, *tp), tq = up[p], up[p + 1]
        assert piv & 1, f"even pivot Pfaffian {piv} at rows {p}, {p + 1}: not a tournament"
        for i, (pi, qi) in enumerate(zip(tp, tq), p + 2):
            rest = zip(up[i], tp[i - p - 1 :], tq[i - p - 1 :])
            up[i] = [(piv * a + qi * ap - pi * aq) // prev for a, ap, aq in rest]
        prev = piv
    if n % 2 == 0:
        return None
    x = [prev]  # the free entry is the last pivot; back-substitute pair by pair
    for p in range(n - 3, -1, -2):
        piv, *tp = up[p]
        x[:0] = sum(map(mul, up[p + 1], x)) // piv, -sum(map(mul, tp, x)) // piv
    return x


def tournament_equilibrium(win: Sequence[int]) -> Vector | None:
    """The totally mixed equilibrium of a tournament game from its win masks,
    or None: the signed kernel vector, scaled to sum 1, when all its entries
    share a sign."""
    x = _signed_kernel(win)
    if x is None or not (min(x) > 0 or max(x) < 0):
        return None
    total = sum(x)
    return tuple(Fraction(v, total) for v in x)


def _playable_classes(n: int, _check=None) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(sorted canonical forms, |Aut T| of each) of the playable classes of odd
    n >= 3 objects, by switching (Babai & Cameron 2000), in one pass over the
    (n-2)-classes.

    Reversing every arc between a set S and its complement maps the payoff
    matrix A to DAD, with D = diag(+-1) negative on S, and so the kernel vector
    x to Dx. x holds the Pfaffians of the even sub-tournaments, all odd, so
    S = {i : x_i < 0} (or its complement, the same switch) makes the game
    playable, and no other switch does. Each min-wins extension of each
    (n-2)-class gets a source s and that switch, from one Pfaffian elimination,
    and is canonicalized only if s is extremal: the largest |x_s| and, among
    the vertices that tie on it, the most wins in the switched game (canonical
    augmentation, McKay, J. Algorithms 26, 1998). Every playable class T is
    reached: switch its extremal vertex into a source (|x| stays), delete it,
    and delete the extremal min-wins vertex of what is left. That leaves an
    (n-2)-class whose form extends back, and the source added and switched
    gives T. `_check` is polled per parent, for a time budget."""
    if n < 3 or n % 2 == 0:
        raise ValueError(f"playable classes are built for odd n >= 3, got {n}")
    parents, phase = _iso_classes(n - 2, _check), f"playable classes at {n} objects"
    return _extended_classes(parents, n - 2, _switched_extensions, phase, _check)


def _switched_extensions(win: tuple[int, ...]) -> Iterator[list[int]]:
    """The min-wins extensions of the game plus a source s, switched to
    positive, in which s is extremal as `_playable_classes` says."""
    n = len(win) + 2
    full = (1 << n) - 1
    for ext in _min_wins_extensions(win):
        ext.append(full >> 1)
        x = _signed_kernel(ext)
        neg = sum(1 << i for i, v in enumerate(x) if v < 0)
        ext = [w ^ (full ^ neg if neg >> i & 1 else neg) for i, w in enumerate(ext)]
        rank = [(abs(v), w.bit_count()) for v, w in zip(x, ext)]
        if rank[-1] == max(rank):
            yield ext


@dataclass(frozen=True)
class EquilibriumPolytope:
    """Exact description of ker(A) ∩ simplex, with the defining matrix kept."""

    matrix: RationalMatrix
    kernel_dim: int
    vertices: tuple[Vector, ...]
    interior_point: Vector | None
    support_mask: tuple[bool, ...]

    @property
    def is_empty(self) -> bool:
        return not self.vertices

    @property
    def is_single_point(self) -> bool:
        return len(self.vertices) == 1


def _empty_polytope(A: RationalMatrix, kdim: int) -> EquilibriumPolytope:
    return EquilibriumPolytope(A, kdim, (), None, (False,) * A.cols)


def _point_polytope(A: RationalMatrix, point: Vector) -> EquilibriumPolytope:
    return EquilibriumPolytope(A, 1, (point,), point, tuple(x > 0 for x in point))


def _embed(n: int, support: Sequence[int], values: Sequence[Fraction]) -> Vector:
    """The length-n vector holding values on support and zero elsewhere."""
    full = [Fraction(0)] * n
    for j, x in zip(support, values):
        full[j] = x
    return tuple(full)


def equilibrium_polytope(A: RationalMatrix) -> EquilibriumPolytope:
    """Exact ker(A) ∩ simplex for a kernel of dimension 0 or 1, as a tournament
    game's is (n mod 2): empty, or the one point the kernel line meets the
    simplex in. A larger kernel raises ValueError naming its dimension."""
    basis = kernel_basis(A)
    kdim = len(basis)
    if kdim > 1:
        raise ValueError(f"kernel dimension {kdim}: polytopes are built for dimension 0 or 1")
    if kdim == 0:
        return _empty_polytope(A, 0)
    v = basis[0]
    total = sum(v)
    if total == 0:
        return _empty_polytope(A, 1)
    point = tuple(x / total for x in v)
    if any(x < 0 for x in point):
        return _empty_polytope(A, 1)
    return _point_polytope(A, point)


class Playability(Enum):
    UNPLAYABLE = "unplayable"
    STRONGLY_PLAYABLE = "strongly_playable"


@dataclass(frozen=True)
class PlayabilityReport:
    """Classification plus witness data and the strong-connectivity cross-check."""

    playability: Playability
    tournament: Tournament
    is_strong: bool
    equilibrium: Vector | None = None
    dominating_pair: tuple[int, int] | None = None  # (dominated, dominator)

    @cached_property
    def polytope(self) -> EquilibriumPolytope:
        """ker(A) ∩ simplex, built on first use: a tournament's kernel is trivial
        or one line, so the polytope is the equilibrium or empty."""
        A = payoff_matrix(self.tournament)
        if self.equilibrium is None:
            return _empty_polytope(A, A.cols % 2)
        return _point_polytope(A, self.equilibrium)

    def witness_text(self, labels: Sequence[str]) -> str:
        if self.dominating_pair is not None:
            a, b = self.dominating_pair
            return f"{labels[b]} weakly dominates {labels[a]}"
        if self.equilibrium is not None:
            return "unique totally mixed equilibrium"
        return "no equilibrium plays every object (empty kernel polytope)"


def classify_playability(t: Tournament) -> PlayabilityReport:
    """StronglyPlayable iff the game has a totally mixed equilibrium, which is
    then unique; otherwise Unplayable, with a weakly dominated object as the
    witness when there is one. The report carries the is_strong cross-check."""
    point = tournament_equilibrium(t.win)
    strong = is_strong(t)
    if point is None:
        pair = next(_pure_dominated(t, "weak"), None)
        return PlayabilityReport(Playability.UNPLAYABLE, t, strong, dominating_pair=pair)
    return PlayabilityReport(Playability.STRONGLY_PLAYABLE, t, strong, equilibrium=point)


# ---------------------------------------------------------------------------
# dominance
# ---------------------------------------------------------------------------

def _weak_dominating_mixture(t: Tournament, i: int) -> Vector | None:
    """The best weakly dominating mixture of the other rows against row i, or None.

    A weight on k needs k to beat every object that i beats (those columns
    already pay i the most) and so also to beat i, else column k fails. So the
    dominating mixtures are the simplex on the pure weak dominators D_i, and a
    mixture w has total slack 2 * (sum_k w_k wins_k - wins_i) over i's row:
    the best is the pure k in D_i with the most wins, the largest such k on a
    tie, as a vertex search in sorted order finds first."""
    need = t.win[i] | 1 << i
    best = max(((w.bit_count(), k) for k, w in enumerate(t.win) if not need & ~w), default=None)
    return None if best is None else _embed(t.n, [best[1]], [Fraction(1)])


def _strict_dominating_mixture(t: Tournament, i: int) -> Vector | None:
    """The mixture of the other rows with the largest margin over row i when
    that margin is positive, or None.

    If i beats j, no mixture pays more than 1 = A[i][j] against j, so only a
    sink i can be strictly dominated. A sink's row is -1 off the diagonal, so
    the margin is 1 plus the worst payoff of the mixture in T - i: at most 1,
    reached only by the unique optimal strategy of T - i (Laffond, Laslier &
    Le Breton, Games Econ. Behav. 5, 1993), with weight 0 at i. That strategy
    is the odd support S whose game has a totally mixed equilibrium that beats
    every object outside S: each one beats less than half the mixture's mass,
    never exactly half, as S is odd and every signed kernel entry is odd."""
    if t.n < 2 or t.win[i]:
        return None
    others = [k for k in range(t.n) if k != i]
    for size in range(1, t.n, 2):
        for support in itertools.combinations(others, size):
            win = [sum((t.win[a] >> b & 1) << c for c, b in enumerate(support)) for a in support]
            point = tournament_equilibrium(win)
            if point is not None and all(
                2 * sum(p for s, p in zip(support, point) if t.win[v] >> s & 1) < 1
                for v in others if v not in support
            ):
                return _embed(t.n, support, point)
    raise AssertionError(f"no optimal strategy for the game without object {i}: not a tournament")


def _pure_dominated(t: Tournament, mode: str) -> Iterator[tuple[int, int]]:
    """(dominated, first dominator) for each object that another one dominates,
    as find_dominated's pure mode defines it. With W_i the objects i beats, k
    weakly dominates i iff k beats i and W_i <= W_k, and strictly iff moreover
    W_i is empty and k beats every other object."""
    for i, w_i in enumerate(t.win):
        need = w_i | 1 << i  # k beats i and everything i beats
        for k, w_k in enumerate(t.win):
            if not need & ~w_k and (mode == "weak" or not w_i and w_k.bit_count() == t.n - 1):
                yield i, k
                break


def find_dominated(
    t: Tournament, mode: str = "weak", against: str = "pure"
) -> list[tuple[int, int | Vector]]:
    """Dominated objects with a dominating strategy each.

    Pure mode compares full payoff rows over every opponent object (weak:
    >= everywhere and > somewhere; strict: > everywhere). Mixed mode returns
    the best convex combination of the other rows, as a full-length weight
    vector. On a tournament it has a closed form: weak, the pure weak dominator
    with the most wins; strict, only for a sink, the optimal strategy of the
    game without it, searched over odd supports for at most SUPPORT_ENUM_LIMIT
    objects.
    """
    if mode not in ("weak", "strict"):
        raise ValueError("mode must be 'weak' or 'strict'")
    if against not in ("pure", "mixed"):
        raise ValueError("against must be 'pure' or 'mixed'")
    if against == "pure":
        return list(_pure_dominated(t, mode))
    if mode == "weak":
        mixed = ((i, _weak_dominating_mixture(t, i)) for i in range(t.n))
    elif t.n <= SUPPORT_ENUM_LIMIT:
        mixed = ((i, _strict_dominating_mixture(t, i)) for i in range(t.n))
    else:
        raise ValueError(
            f"strict mixed dominance is bounded at n <= {SUPPORT_ENUM_LIMIT}, got {t.n}"
        )
    return [(i, w) for i, w in mixed if w is not None]


def worst_case_equilibrium(
    P: EquilibriumPolytope, criterion: str = "min_ties"
) -> tuple[tuple, bool]:
    """Distribution used for imbalance statistics, with an exactness flag.

    min_ties would minimize sum(v**2) and max_entropy maximize -sum(v ln v)
    over the polytope; a tournament game's polytope is one point, so both
    return it, exactly.
    """
    if criterion not in ("min_ties", "max_entropy"):
        raise ValueError("criterion must be 'min_ties' or 'max_entropy'")
    if P.is_empty:
        raise ValueError("empty polytope has no equilibrium")
    return P.vertices[0], True
