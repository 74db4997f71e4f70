"""Extremal constructions: the imbalanced (2n+1)-game, its closed forms, the
countable variant's prefixes, balanced cycles, and the blow-up operator."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .rational import RationalMatrix, Vector
from .tournament import Tournament

# Object order for the imbalanced game: r1, p1, r2, p2, ..., rn, pn, s.
# r_i defeats {r_j, p_j : j > i} and s; p_i defeats r_i and every p_j with
# j < i; s defeats every p_i.


def imbalanced_rps(n: int) -> Tournament:
    """The maximally imbalanced playable game on 2n+1 objects."""
    if n < 1:
        raise ValueError("need n >= 1")
    size = 2 * n + 1
    r = lambda i: 2 * (i - 1)
    p = lambda i: 2 * (i - 1) + 1
    s = size - 1
    beats = [[False] * size for _ in range(size)]
    for i in range(1, n + 1):
        beats[p(i)][r(i)] = True
        beats[r(i)][s] = True
        beats[s][p(i)] = True
        for j in range(i + 1, n + 1):
            beats[r(i)][r(j)] = True
            beats[r(i)][p(j)] = True
            beats[r(j)][p(i)] = True
            beats[p(j)][p(i)] = True
    labels = [x for i in range(1, n + 1) for x in (f"r{i}", f"p{i}")] + ["s"]
    return Tournament(size, beats, labels)


def imbalanced_equilibrium_closed_form(n: int) -> Vector:
    """P(r_i) = P(p_i) = 3**-i and P(s) = 3**-n, in construction order."""
    if n < 1:
        raise ValueError("need n >= 1")
    out: list[Fraction] = []
    for i in range(1, n + 1):
        out += [Fraction(1, 3**i), Fraction(1, 3**i)]
    out.append(Fraction(1, 3**n))
    return tuple(out)


def nrps_closed_forms(k: int) -> tuple[Vector, tuple[int, ...]]:
    """First k equilibrium probabilities and minimal degrees of the countable game.

    Probabilities pair up as 3**-i; the sorted minimal degree sequence is
    (1, 1, 2, 2, 3, 3, ...) since object pair i contributes e_min = i twice.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    probs = tuple(Fraction(1, 3 ** ((j // 2) + 1)) for j in range(k))
    e_min = tuple((j // 2) + 1 for j in range(k))
    return probs, e_min


def classic_cycle(n: int) -> Tournament:
    """Balanced rotational game on odd n: each object beats the next (n-1)/2."""
    if n < 1 or n % 2 == 0:
        raise ValueError("balanced cycles need an odd object count")
    half = (n - 1) // 2
    beats = [[False] * n for _ in range(n)]
    for i in range(n):
        for step in range(1, half + 1):
            beats[i][(i + step) % n] = True
    return Tournament(n, beats)


# ---------------------------------------------------------------------------
# blow-ups
# ---------------------------------------------------------------------------

def blow_up(g1: Tournament, glue: int | str, g2: Tournament) -> Tournament:
    """Replace object `glue` of g1 with a full copy of g2 (symmetric case).

    Remaining g1 objects keep their mutual edges and treat every g2 object
    exactly as they treated the glued object; g2 keeps its internal edges.
    Result order: g1 objects (glue removed, original order), then g2 objects;
    labels compose as "outer.inner", and a composed label that repeats an outer
    one is a ValueError.
    """
    l = g1.label_index(glue) if isinstance(glue, str) else glue
    if not 0 <= l < g1.n:
        raise ValueError(f"glue vertex {glue!r} not in the outer game")
    outer = [i for i in range(g1.n) if i != l]
    size = len(outer) + g2.n
    beats = [[False] * size for _ in range(size)]
    for a, i in enumerate(outer):
        for b, j in enumerate(outer):
            beats[a][b] = g1.beats[i][j]
    for a, i in enumerate(outer):
        for b in range(g2.n):
            if g1.beats[i][l]:
                beats[a][len(outer) + b] = True
            else:
                beats[len(outer) + b][a] = True
    for a in range(g2.n):
        for b in range(g2.n):
            beats[len(outer) + a][len(outer) + b] = g2.beats[a][b]
    glue_label = g1.labels[l]
    labels = [g1.labels[i] for i in outer] + [
        f"{glue_label}.{name}" for name in g2.labels
    ]
    return Tournament(size, beats, labels)


def blow_up_matrix(
    a1: RationalMatrix, l: int, m: int, a2: RationalMatrix
) -> RationalMatrix:
    """General payoff-level blow-up gluing row strategy l and column strategy m.

    Block layout: g1 without row l / column m; the top-right block repeats
    g1's column m (row l removed); the bottom-left repeats g1's row l
    (column m removed); the bottom-right is g2. With l = m and skew inputs the
    result is skew.
    """
    if not (0 <= l < a1.rows and 0 <= m < a1.cols):
        raise ValueError("glue strategies out of range")
    row_keep = [i for i in range(a1.rows) if i != l]
    col_keep = [j for j in range(a1.cols) if j != m]
    top = [
        [a1.entries[i][j] for j in col_keep]
        + [a1.entries[i][m]] * a2.cols
        for i in row_keep
    ]
    bottom = [
        [a1.entries[l][j] for j in col_keep] + list(a2.entries[i])
        for i in range(a2.rows)
    ]
    return RationalMatrix(top + bottom)


def blow_up_equilibrium(
    v1: Sequence[Fraction], glue: int, v2: Sequence[Fraction]
) -> Vector:
    """Product equilibrium: outer probabilities with the glued mass spread
    over the inner distribution."""
    v1 = tuple(Fraction(x) for x in v1)
    v2 = tuple(Fraction(x) for x in v2)
    if not 0 <= glue < len(v1):
        raise ValueError("glue index out of range")
    outer = [x for i, x in enumerate(v1) if i != glue]
    inner = [v1[glue] * w for w in v2]
    return tuple(outer + inner)
