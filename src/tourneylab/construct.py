"""Extremal constructions: the imbalanced (2n+1)-game, its closed forms, the
countable variant's prefixes, balanced cycles, and the blow-up operator."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .rational import Vector
from .tournament import Tournament

# Object order for the imbalanced game: r1, p1, r2, p2, ..., rn, pn, s.
# r_i defeats {r_j, p_j : j > i} and s; p_i defeats r_i and every p_j with
# j < i; s defeats every p_i.


def imbalanced_rps(n: int) -> Tournament:
    """The maximally imbalanced playable game on 2n+1 objects."""
    if n < 1:
        raise ValueError("need n >= 1")
    size = 2 * n + 1
    odd = sum(1 << k for k in range(1, size, 2))  # every p_i
    win = []
    for k in range(0, size - 1, 2):  # r_i at k and p_i at k + 1 both beat every earlier p_j
        below = odd & (1 << k) - 1
        win += [(1 << size) - (1 << k + 2) | below, 1 << k | below]
    labels = [x for i in range(1, n + 1) for x in (f"r{i}", f"p{i}")] + ["s"]
    return Tournament._from_masks(size, win + [odd], labels)


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
    return Tournament._from_masks(
        n, [sum(1 << (i + step) % n for step in range(1, half + 1)) for i in range(n)]
    )


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
    # the outer part of each g1 mask, then the whole g2 where the glued object won
    kept = [sum(1 << a for a, j in enumerate(outer) if w >> j & 1) for w in g1.win]
    inner = ((1 << g2.n) - 1) << len(outer)
    win = [kept[i] | (inner if g1.win[i] >> l & 1 else 0) for i in outer]
    win += [kept[l] | w << len(outer) for w in g2.win]
    glue_label = g1.labels[l]
    labels = [g1.labels[i] for i in outer] + [
        f"{glue_label}.{name}" for name in g2.labels
    ]
    return Tournament._from_masks(len(win), win, labels)


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
