"""Payoff matrices and exact Nash-equilibrium analysis of tournament games.

The equilibrium set that matters for playability is ker(A) intersected with
the probability simplex; for odd tournaments it is either empty or a single
strictly positive point, and the classifier reports which, together with the
strong-connectivity cross-check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from enum import Enum
from fractions import Fraction
from operator import mul
from typing import Iterator, Sequence

from .rational import RationalMatrix, Vector, kernel_basis, solve_affine
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


@lru_cache(maxsize=1 << 12)
def _sign_row(w: int, n: int) -> tuple[int, ...]:
    """+1 where bit j < n of win mask w is set, else -1: a payoff row, right of its diagonal."""
    return tuple((w >> j & 1) * 2 - 1 for j in range(n))


def _signed_kernel(rows: Sequence[Sequence[int]]) -> list[int] | None:
    """((-1)**i Pf A_ii)_i, A_ii being A without row and column i: the kernel of
    an odd tournament game's payoff rows A; None for an even game. Fraction-free
    Pfaffian elimination in 2x2 pivot blocks by congruence on the upper triangle,
    all it reads, leaves Pfaffians of even principal sub-tournaments as entries,
    with exact divisions by Knuth's overlapping-Pfaffian identity (Electron. J.
    Combin. 3(2), 1996, R5). Mod 2 a tournament matrix is J - I, so each one is
    odd: no pivot search, and the asserted odd pivots make every even game nonsingular."""
    n = len(rows)
    up = [row[i + 1 :] for i, row in enumerate(rows)]
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


def tournament_equilibrium(rows: list[list[int]]) -> Vector | None:
    """The totally mixed equilibrium of a tournament game from its integer
    payoff rows, or None: the signed kernel vector, scaled to sum 1, when all
    its entries share a sign."""
    x = _signed_kernel(rows)
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
        x = _signed_kernel([_sign_row(w, n) for w in ext])
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


def _from_vertices(
    A: RationalMatrix, kdim: int, vertices: list[Vector]
) -> EquilibriumPolytope:
    vertices = sorted(set(vertices))
    if not vertices:
        return _empty_polytope(A, kdim)
    n = A.cols
    count = Fraction(len(vertices))
    interior = tuple(sum(v[i] for v in vertices) / count for i in range(n))
    mask = tuple(x > 0 for x in interior)
    return EquilibriumPolytope(A, kdim, tuple(vertices), interior, mask)


def _embed(n: int, support: Sequence[int], values: Sequence, zero=Fraction(0)) -> tuple:
    """The length-n vector holding values on support and zero elsewhere."""
    full = [zero] * n
    for j, x in zip(support, values):
        full[j] = x
    return tuple(full)


def _support_system(
    A: RationalMatrix, support: Sequence[int]
) -> tuple[Vector, list[Vector]] | None:
    """Solution set of [A_S ; 1]·x = [0 ; 1] over the columns S in support."""
    rows = [[row[j] for j in support] for row in A.entries]
    rows.append([Fraction(1)] * len(support))
    return solve_affine(RationalMatrix(rows), [Fraction(0)] * A.rows + [Fraction(1)])


def _support_systems(
    A: RationalMatrix,
) -> Iterator[tuple[tuple[int, ...], Vector, list[Vector]]]:
    """(support, particular, null basis) for each column subset, smallest
    first, whose support system is consistent; at most 2**SUPPORT_ENUM_LIMIT."""
    n = A.cols
    if n > SUPPORT_ENUM_LIMIT:
        raise ValueError(
            f"support enumeration bounded at n <= {SUPPORT_ENUM_LIMIT}, got {n}"
        )
    for size in range(1, n + 1):
        for support in itertools.combinations(range(n), size):
            solved = _support_system(A, support)
            if solved is not None:
                yield (support, *solved)


def equilibrium_polytope(A: RationalMatrix) -> EquilibriumPolytope:
    """Exact ker(A) ∩ simplex.

    Kernel dimension 0 or 1 is resolved directly; higher dimensions fall back
    to support-subset vertex enumeration: a vertex is the unique, nonnegative
    solution of its support's system.
    """
    basis = kernel_basis(A)
    kdim = len(basis)
    if kdim == 0:
        return _empty_polytope(A, 0)
    if kdim == 1:
        v = basis[0]
        total = sum(v)
        if total == 0:
            return _empty_polytope(A, 1)
        point = tuple(x / total for x in v)
        if any(x < 0 for x in point):
            return _empty_polytope(A, 1)
        return _from_vertices(A, 1, [point])
    vertices = [
        _embed(A.cols, support, x)
        for support, x, null in _support_systems(A)
        if not null and min(x) >= 0
    ]
    return _from_vertices(A, kdim, vertices)


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
        return _from_vertices(A, 1, [self.equilibrium])

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
    point = tournament_equilibrium(payoff_rows(t))
    strong = is_strong(t)
    if point is None:
        pair = next(_pure_dominated(t, "weak"), None)
        return PlayabilityReport(Playability.UNPLAYABLE, t, strong, dominating_pair=pair)
    return PlayabilityReport(Playability.STRONGLY_PLAYABLE, t, strong, equilibrium=point)


# ---------------------------------------------------------------------------
# dominance
# ---------------------------------------------------------------------------

def _vertex_enumerate(
    equalities: list[tuple[list[Fraction], Fraction]],
    inequalities: list[tuple[list[Fraction], Fraction]],
    dim: int,
) -> list[Vector]:
    """Vertices of a bounded polyhedron {x : Ex = e, Gx >= h} by basis search."""
    vertices: set[Vector] = set()
    base_rows = [row for row, _ in equalities]
    base_rhs = [rhs for _, rhs in equalities]
    need = dim - len(equalities)
    for combo in itertools.combinations(range(len(inequalities)), max(need, 0)):
        rows = base_rows + [inequalities[k][0] for k in combo]
        rhs = base_rhs + [inequalities[k][1] for k in combo]
        solved = solve_affine(RationalMatrix(rows), rhs)
        if solved is None:
            continue
        x, null = solved
        if null:
            continue
        if all(
            sum(g * xi for g, xi in zip(grow, x)) >= h for grow, h in inequalities
        ):
            vertices.add(x)
    return sorted(vertices)


def _mixed_dominator(rows: list[list[int]], i: int, mode: str) -> Vector | None:
    """Best convex combination of the other rows against row i, or None.

    One LP over the weights w of the other rows, plus a margin column t in
    strict mode only: w >= 0, sum(w) = 1 and sum_k w_k A[k][j] - t >= A[i][j]
    for every column j. Weak mode maximizes the total slack, strict mode the
    margin; a dominator exists iff the best vertex's value is positive.
    """
    n = len(rows)
    others = [k for k in range(n) if k != i]
    if not others:
        return None  # a lone object has nothing to be dominated by
    d = len(others)
    margin = 1 if mode == "strict" else 0  # columns for t

    def constraint(weights: Sequence[int], t: int, bound: int):
        return [Fraction(w) for w in weights] + [Fraction(t)] * margin, Fraction(bound)

    eqs = [constraint([1] * d, 0, 1)]
    ineqs = [constraint([int(p == q) for p in range(d)], 0, 0) for q in range(d)]
    ineqs += [constraint([rows[k][j] for k in others], -1, rows[i][j]) for j in range(n)]
    if margin:
        # payoffs lie in [-1, 1] so the margin is within [-3, 3]
        ineqs += [constraint([0] * d, 1, -3), constraint([0] * d, -1, -3)]

    def value(x: Vector) -> Fraction:
        if margin:
            return x[d]
        return sum(
            sum(w * rows[k][j] for w, k in zip(x, others)) - rows[i][j] for j in range(n)
        )

    best = max(_vertex_enumerate(eqs, ineqs, d + margin), key=value, default=None)
    if best is None or value(best) <= 0:
        return None
    return _embed(n, others, best[:d])


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
    >= everywhere and > somewhere; strict: > everywhere). Mixed mode solves the
    exact feasibility problem over convex combinations of the other rows by
    vertex enumeration, for at most SUPPORT_ENUM_LIMIT objects; the dominating
    strategy is returned as a full-length weight vector.
    """
    if mode not in ("weak", "strict"):
        raise ValueError("mode must be 'weak' or 'strict'")
    if against not in ("pure", "mixed"):
        raise ValueError("against must be 'pure' or 'mixed'")
    if against == "pure":
        return list(_pure_dominated(t, mode))
    if t.n > SUPPORT_ENUM_LIMIT:
        raise ValueError(f"mixed dominance is bounded at n <= {SUPPORT_ENUM_LIMIT}, got {t.n}")
    rows = payoff_rows(t)
    mixed = ((i, _mixed_dominator(rows, i, mode)) for i in range(t.n))
    return [(i, w) for i, w in mixed if w is not None]


# ---------------------------------------------------------------------------
# worst-case equilibrium selection
# ---------------------------------------------------------------------------

def _least_norm(x0: Vector, null: list[Vector]) -> Vector:
    """The point of x0 + span(null) nearest the origin, by the normal equations."""
    if not null:
        return x0
    gram = RationalMatrix([[sum(a * b for a, b in zip(u, v)) for v in null] for u in null])
    sol = solve_affine(gram, [-sum(a * b for a, b in zip(u, x0)) for u in null])
    assert sol is not None and not sol[1]  # Gram of a basis is PD
    return tuple(
        xi + sum(tk * nk[p] for tk, nk in zip(sol[0], null)) for p, xi in enumerate(x0)
    )


def _min_ties_point(P: EquilibriumPolytope) -> Vector:
    """Exact minimizer of sum(v**2): each support's solution set is projected
    onto its least-norm point, and the least (sum(v**2), vector) key wins."""
    n = P.matrix.cols
    points = ((s, _least_norm(x0, null)) for s, x0, null in _support_systems(P.matrix))
    return min(
        (sum(x * x for x in point), _embed(n, s, point))
        for s, point in points
        if min(point) >= 0
    )[1]


def _max_entropy_point(P: EquilibriumPolytope) -> tuple[float, ...]:
    """Projected Newton ascent for -sum(v ln v) on the polytope's affine hull.

    The hull is the kernel slice restricted to the support coordinates;
    off-support coordinates are zero at every equilibrium and stay pinned.
    """
    n = P.matrix.cols
    support = [i for i in range(n) if P.support_mask[i]]
    solved = _support_system(P.matrix, support)
    assert solved is not None
    _, null = solved
    assert P.interior_point is not None
    v = [float(P.interior_point[j]) for j in support]
    m = len(support)
    if not null:
        return _embed(n, support, v, 0.0)
    basis = [[float(x) for x in b] for b in null]
    d = len(basis)
    floor = 1e-15
    for _ in range(200):
        grad_v = [-(math.log(max(x, floor)) + 1.0) for x in v]
        grad = [sum(b[i] * grad_v[i] for i in range(m)) for b in basis]
        gnorm = math.sqrt(sum(g * g for g in grad))
        if gnorm < 1e-12:
            break
        # Newton system: (B^T diag(1/v) B) step = grad
        hess = [
            [
                sum(basis[p][i] * basis[q][i] / max(v[i], floor) for i in range(m))
                for q in range(d)
            ]
            for p in range(d)
        ]
        step = _solve_float(hess, grad)
        if step is None:
            step = grad
        scale = 1.0
        improved = False
        h0 = _entropy_float(v, floor)
        for _ in range(60):
            trial = [
                v[i] + scale * sum(s * basis[p][i] for p, s in enumerate(step))
                for i in range(m)
            ]
            if min(trial) > 0 and _entropy_float(trial, floor) >= h0:
                v = trial
                improved = True
                break
            scale *= 0.5
        if not improved:
            break
    return _embed(n, support, v, 0.0)


def _entropy_float(v: Sequence[float], floor: float) -> float:
    return -sum(x * math.log(max(x, floor)) for x in v if x > 0)


def _solve_float(mat: list[list[float]], rhs: list[float]) -> list[float] | None:
    n = len(mat)
    a = [row[:] + [r] for row, r in zip(mat, rhs)]
    for c in range(n):
        piv = max(range(c, n), key=lambda r: abs(a[r][c]))
        if abs(a[piv][c]) < 1e-300:
            return None
        a[c], a[piv] = a[piv], a[c]
        inv = 1.0 / a[c][c]
        for r in range(n):
            if r != c and a[r][c] != 0.0:
                f = a[r][c] * inv
                for j in range(c, n + 1):
                    a[r][j] -= f * a[c][j]
    return [a[r][n] / a[r][r] for r in range(n)]


def worst_case_equilibrium(
    P: EquilibriumPolytope, criterion: str = "min_ties"
) -> tuple[tuple, bool]:
    """Distribution used for imbalance statistics, with an exactness flag.

    min_ties minimizes sum(v**2) exactly (Fractions, flag True). max_entropy
    maximizes -sum(v ln v) numerically to 1e-10 on a deterministic schedule
    (floats, flag False) unless the polytope is a single point.
    """
    if criterion not in ("min_ties", "max_entropy"):
        raise ValueError("criterion must be 'min_ties' or 'max_entropy'")
    if P.is_empty:
        raise ValueError("empty polytope has no equilibrium")
    if P.is_single_point:
        return P.vertices[0], True
    if criterion == "min_ties":
        return _min_ties_point(P), True
    return _max_entropy_point(P), False
