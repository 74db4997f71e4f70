"""Seeded inputs for the analyze_mix workload, built without tourneylab.

Every game is described by the benchmark's own code, so the expected
equilibria used by the checks come from the paper's definitions, not from
the program under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path


@dataclass
class Game:
    """A tournament as the benchmark knows it: beats[i][j] means i defeats j."""

    kind: str
    beats: list[list[bool]]
    labels: list[str]
    expected: dict[str, Fraction] | None = None  # known equilibrium by label
    fmt: str = "edges"

    @property
    def n(self) -> int:
        return len(self.beats)

    def wins(self) -> list[int]:
        return [sum(row) for row in self.beats]


def _empty(n: int) -> list[list[bool]]:
    return [[False] * n for _ in range(n)]


def star(k: int) -> Game:
    """The imbalanced (2k+1)-object game r1, p1, ..., rk, pk, s.

    r_i beats r_j and p_j for j > i, and s; p_i beats r_i and every p_j with
    j < i; s beats every p_i. Its equilibrium is P(r_i) = P(p_i) = 3**-i and
    P(s) = 3**-k.
    """
    n = 2 * k + 1
    r = lambda i: 2 * (i - 1)
    p = lambda i: 2 * (i - 1) + 1
    s = n - 1
    b = _empty(n)
    for i in range(1, k + 1):
        b[p(i)][r(i)] = True
        b[r(i)][s] = True
        b[s][p(i)] = True
        for j in range(i + 1, k + 1):
            b[r(i)][r(j)] = True
            b[r(i)][p(j)] = True
            b[r(j)][p(i)] = True
            b[p(j)][p(i)] = True
    labels = [x for i in range(1, k + 1) for x in (f"r{i}", f"p{i}")] + ["s"]
    expected = {f"r{i}": Fraction(1, 3**i) for i in range(1, k + 1)}
    expected.update({f"p{i}": Fraction(1, 3**i) for i in range(1, k + 1)})
    expected["s"] = Fraction(1, 3**k)
    return Game("construction", b, labels, expected)


def cycle(n: int) -> Game:
    """The regular game on odd n: object i beats the next (n-1)/2 objects."""
    b = _empty(n)
    for i in range(n):
        for step in range(1, (n - 1) // 2 + 1):
            b[i][(i + step) % n] = True
    labels = [f"c{i}" for i in range(n)]
    return Game("regular", b, labels, {x: Fraction(1, n) for x in labels})


def blow(outer: Game, glue: int, inner: Game) -> Game:
    """Replace object `glue` of `outer` by a copy of `inner`.

    The remaining outer objects treat every inner object as they treated the
    glued one. The equilibrium is the outer one with the glued mass spread
    over the inner equilibrium.
    """
    keep = [i for i in range(outer.n) if i != glue]
    n = len(keep) + inner.n
    b = _empty(n)
    for a, i in enumerate(keep):
        for c, j in enumerate(keep):
            b[a][c] = outer.beats[i][j]
        for c in range(inner.n):
            if outer.beats[i][glue]:
                b[a][len(keep) + c] = True
            else:
                b[len(keep) + c][a] = True
    for a in range(inner.n):
        for c in range(inner.n):
            b[len(keep) + a][len(keep) + c] = inner.beats[a][c]
    g = outer.labels[glue]
    labels = [outer.labels[i] for i in keep] + [f"{g}.{x}" for x in inner.labels]
    mass = outer.expected[g]
    expected = {outer.labels[i]: outer.expected[outer.labels[i]] for i in keep}
    expected.update({f"{g}.{x}": mass * inner.expected[x] for x in inner.labels})
    return Game("blowup", b, labels, expected)


def random_game(n: int, rng: random.Random) -> Game:
    b = _empty(n)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                b[i][j] = True
            else:
                b[j][i] = True
    return Game("random", b, [f"o{i}" for i in range(n)])


def shuffled(g: Game, rng: random.Random) -> Game:
    """The same game with its objects listed in a random order."""
    perm = list(range(g.n))
    rng.shuffle(perm)  # new position q holds old object perm[q]
    b = [[g.beats[perm[q]][perm[r]] for r in range(g.n)] for q in range(g.n)]
    return Game(g.kind, b, [g.labels[i] for i in perm], g.expected, g.fmt)


# Fixed make-up of one round (200 analyses). The seed draws the edges of the
# random games, the object order of every game, the glue vertices and the
# order of the analyses; the sizes and counts below never change, so the work
# per round does not depend on the seed.
RANDOM_SIZES = (
    list(range(5, 25))  # 20, one of each size
    + [n for n in range(5, 16) for _ in range(4)]  # 44 small games
    + [n for n in range(16, 22) for _ in range(4)]  # 24 mid-size
    + [n for n in (23, 25, 27, 29, 31) for _ in range(3)]  # 15
    + [n for n in (33, 37, 41, 45, 51) for _ in range(2)]  # 10 large
)  # 113 edge-list random games, 5 to 51 objects
RANDOM_CSV_SIZES = [n for n in range(5, 22) for _ in range(2)]  # 34 CSV games
STAR_HALVES = list(range(1, 26))  # 25 constructions, 3 to 51 objects
STAR_CSV_HALVES = [1, 2, 3, 4, 5, 6, 8, 10]  # 8 constructions as CSV
REGULAR_SIZES = [9, 11, 13, 15, 15, 15, 15]  # 7 regular games
BLOWUPS = [  # (outer, inner) pairs, 13 blow-ups; star(k) has 2k+1 objects
    ((star, 3), (cycle, 3)), ((star, 3), (cycle, 5)), ((star, 4), (cycle, 7)),
    ((star, 5), (cycle, 5)), ((star, 8), (cycle, 9)), ((star, 10), (cycle, 3)),
    ((star, 12), (cycle, 5)), ((cycle, 3), (star, 3)), ((cycle, 5), (star, 2)),
    ((cycle, 5), (star, 6)), ((cycle, 7), (star, 4)), ((cycle, 9), (star, 8)),
    ((cycle, 11), (star, 10)),
]


def round_games(seed: int) -> list[Game]:
    """The 200 games of one analyze_mix round, in the order they are analysed."""
    rng = random.Random(seed)
    games: list[Game] = []
    games += [random_game(n, rng) for n in RANDOM_SIZES]
    for n in RANDOM_CSV_SIZES:
        g = random_game(n, rng)
        g.fmt = "csv"
        games.append(g)
    games += [shuffled(star(k), rng) for k in STAR_HALVES]
    for k in STAR_CSV_HALVES:
        g = shuffled(star(k), rng)
        g.fmt = "csv"
        games.append(g)
    games += [shuffled(cycle(n), rng) for n in REGULAR_SIZES]
    for (make_outer, a), (make_inner, b) in BLOWUPS:
        o = make_outer(a)
        games.append(shuffled(blow(o, rng.randrange(o.n), make_inner(b)), rng))
    rng.shuffle(games)
    return games


def edge_list_text(g: Game) -> str:
    lines = [str(g.n)]
    lines += [f"# label {i} {x}" for i, x in enumerate(g.labels)]
    lines += [
        f"{i} {j}" for i in range(g.n) for j in range(g.n) if g.beats[i][j]
    ]
    return "\n".join(lines) + "\n"


def win_rate_csv_text(g: Game, rng: random.Random) -> str:
    """Win rates strictly above 1/2 for the winner, 1 - rate for the loser."""
    rates = [["-"] * g.n for _ in range(g.n)]
    for i in range(g.n):
        for j in range(i + 1, g.n):
            hi = rng.randint(51, 100)
            w, l = (i, j) if g.beats[i][j] else (j, i)
            rates[w][l] = f"{hi / 100:.2f}"
            rates[l][w] = f"{(100 - hi) / 100:.2f}"
    rows = ["," + ",".join(g.labels)]
    rows += [g.labels[i] + "," + ",".join(rates[i]) for i in range(g.n)]
    return "\n".join(rows) + "\n"


def input_paths(games: list[Game], directory: Path) -> list[Path]:
    return [
        directory / f"g{k:03d}.{'csv' if g.fmt == 'csv' else 'edges'}"
        for k, g in enumerate(games)
    ]


def write_round(games: list[Game], seed: int, directory: Path) -> None:
    """Write each game as an edge list or a win-rate CSV."""
    rng = random.Random(seed + 1)
    directory.mkdir(parents=True, exist_ok=True)
    for g, path in zip(games, input_paths(games, directory)):
        text = win_rate_csv_text(g, rng) if g.fmt == "csv" else edge_list_text(g)
        path.write_text(text, encoding="utf-8")
