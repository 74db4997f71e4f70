"""Win bitmasks against the n x n bool grid they replaced.

The oracles here are the grid code the library ran before a tournament was
stored as one win mask per object: the grid validation in Tournament, the
set-based edge scan of from_edge_list, the grid breadth-first is_strong,
beater masks from the grid's columns, pure dominance with masks built from
the grid's rows, and win-rate cells read with Fraction. Every mask path must
agree with them.
"""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tourneylab import (
    EdgeListParseError,
    Tournament,
    blow_up,
    degree_profile,
    find_dominated,
    from_edge_list,
    is_strong,
    parse_edge_list,
)
from tourneylab import cli
from tourneylab.cli import _rate_side
from tourneylab.construct import classic_cycle, imbalanced_rps
from tourneylab.equilibrium import payoff_rows
from tourneylab.tournament import _k_limit, _k_minimizing_sweep, tournament_from_canonical

# ---------------------------------------------------------------------------
# the grid oracles
# ---------------------------------------------------------------------------


def grid_check(n, beats, labels=None):
    """Tournament's grid validation: (grid, labels), or ValueError."""
    if n < 1:
        raise ValueError("tournament needs at least one vertex")
    rows = tuple(tuple(bool(x) for x in row) for row in beats)
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError("beats relation must be an n x n grid")
    for i in range(n):
        if rows[i][i]:
            raise ValueError(f"vertex {i} cannot beat itself")
        for j in range(i + 1, n):
            if rows[i][j] == rows[j][i]:
                raise ValueError(f"pair ({i},{j}) must be oriented exactly one way")
    if labels is None:
        labels = tuple(str(i) for i in range(n))
    else:
        labels = tuple(str(x) for x in labels)
        if len(labels) != n:
            raise ValueError("need one label per vertex")
        if len(set(labels)) != n:
            repeated = next(x for i, x in enumerate(labels) if x in labels[:i])
            raise ValueError(f"label {repeated!r} names more than one object")
    return rows, labels


def grid_from_edges(n, edges, labels=None):
    """from_edge_list's set-based scan: ((grid, labels), None), or (message, k)
    with k the index of the offending edge (None for a missing pair or a label)."""
    given = set()
    for k, (i, j) in enumerate(edges):
        if not (0 <= i < n and 0 <= j < n):
            return f"edge ({i},{j}) out of range for n={n}", k
        if i == j:
            return f"self-loop at vertex {i}", k
        if (i, j) in given:
            return f"duplicate edge ({i},{j})", k
        if (j, i) in given:
            return f"contradictory pair: both ({j},{i}) and ({i},{j}) given", k
        given.add((i, j))
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in given and (j, i) not in given:
                return f"missing orientation for pair ({i},{j})", None
    beats = [[(i, j) in given for j in range(n)] for i in range(n)]
    try:
        return grid_check(n, beats, labels), None
    except ValueError as exc:
        return str(exc), None


def grid_reachable(n, adj, start):
    seen = [False] * n
    seen[start] = True
    stack = [start]
    count = 1
    while stack:
        u = stack.pop()
        for v in range(n):
            if adj[u][v] and not seen[v]:
                seen[v] = True
                count += 1
                stack.append(v)
    return count


def grid_is_strong(beats):
    n = len(beats)
    if n == 1:
        return True
    if grid_reachable(n, beats, 0) != n:
        return False
    reverse = tuple(tuple(beats[j][i] for j in range(n)) for i in range(n))
    return grid_reachable(n, reverse, 0) == n


def grid_k_minimizing_checker(beats):
    """k_minimizing_check(t, .), one k at a time, with the beater masks taken
    from the grid's columns."""
    n = len(beats)
    beaters = [sum(1 << o for o, won in enumerate(col) if won) for col in zip(*beats)]
    losses = [m.bit_count() for m in beaters]

    def check(k):
        if k == n:
            return False
        threshold = sorted(losses)[k - 1]
        forced = sum(1 << i for i, x in enumerate(losses) if x < threshold)
        pool = forced | sum(1 << i for i, x in enumerate(losses) if x == threshold)
        wide = [u for u in (m & pool for m in beaters) if u.bit_count() >= k]
        for b in range(n):
            r = forced | 1 << b | beaters[b]
            if r.bit_count() <= k and any(r & ~u == 0 for u in wide):
                return False
        return True

    return check


def grid_pure_dominated(beats, mode):
    """Pure dominance by win-set containment, the win masks built from the rows."""
    n = len(beats)
    win = [sum(1 << j for j, won in enumerate(row) if won) for row in beats]
    out = []
    for i, w_i in enumerate(win):
        need = w_i | 1 << i
        for k, w_k in enumerate(win):
            if not need & ~w_k and (mode == "weak" or not w_i and w_k.bit_count() == n - 1):
                out.append((i, k))
                break
    return out


def grid_payoff_rows(beats):
    return [
        [1 if won else (-1 if i != j else 0) for j, won in enumerate(row)]
        for i, row in enumerate(beats)
    ]


def packed_grid(n, packed):
    """The grid of a packed labeled game, read bit by bit: pair (i, j), i < j,
    in row-major order, the first pair most significant."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    beats = [[False] * n for _ in range(n)]
    for b, (i, j) in enumerate(pairs):
        i_wins = packed >> (len(pairs) - 1 - b) & 1 == 1
        beats[i][j], beats[j][i] = i_wins, not i_wins
    return tuple(map(tuple, beats))


def fraction_side(cell):
    """The win-rate cell as parse_win_rate_csv read it with Fraction, in
    _rate_side's terms; ValueError or ZeroDivisionError if not a number."""
    x = Fraction(cell.strip())
    if not 0 <= x <= 1:
        return 2
    half = Fraction(1, 2)
    return (x > half) - (x < half)


def assert_masks_match_grid(t, beats):
    """Every per-game pass on the masks against its grid oracle."""
    n = len(beats)
    assert t.beats == beats
    assert is_strong(t) == grid_is_strong(beats)
    wins = tuple(sum(row) for row in beats)
    profile = degree_profile(t)
    assert (profile.e_in, profile.e_out) == (wins, tuple(n - 1 - w for w in wins))
    ks = range(1, _k_limit(n) + 1)
    assert _k_minimizing_sweep(t) == list(map(grid_k_minimizing_checker(beats), ks))
    for mode in ("weak", "strict"):
        assert find_dominated(t, mode) == grid_pure_dominated(beats, mode), mode
    assert t.edges() == [(i, j) for i in range(n) for j in range(n) if beats[i][j]]
    assert payoff_rows(t) == grid_payoff_rows(beats)


# ---------------------------------------------------------------------------
# per-game passes
# ---------------------------------------------------------------------------


def test_masks_match_the_grid_on_every_labeled_game_up_to_6_objects():
    strong = {}
    for n in range(1, 7):
        for packed in range(1 << (n * (n - 1) // 2)):
            beats = packed_grid(n, packed)
            t = tournament_from_canonical(n, packed)
            assert Tournament(n, beats) == t
            assert_masks_match_grid(t, beats)
            strong[n] = strong.get(n, 0) + is_strong(t)
    # labeled strong tournaments (OEIS A054946)
    assert strong == {1: 1, 2: 0, 3: 2, 4: 24, 5: 544, 6: 22320}


def seeded_grids(rng):
    """Three random tournament grids at each of 14 sizes from 7 to 51 objects."""
    for n in (7, 8, 9, 10, 11, 13, 15, 17, 21, 25, 31, 37, 44, 51):
        for _ in range(3):
            beats = [[False] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    w = rng.random() < 0.5
                    beats[i][j], beats[j][i] = w, not w
            yield tuple(map(tuple, beats))


def test_masks_match_the_grid_on_seeded_games_at_7_to_51_objects():
    rng = random.Random(17)
    games = [imbalanced_rps(k) for k in range(3, 26)]
    games += [classic_cycle(n) for n in range(7, 52, 2)]
    games += [blow_up(imbalanced_rps(k), "s", classic_cycle(m)) for k, m in ((2, 3), (4, 7), (8, 9))]
    games += [blow_up(classic_cycle(m), 0, imbalanced_rps(k)) for k, m in ((3, 3), (5, 11), (12, 5))]
    for g in games:
        assert_masks_match_grid(g, g.beats)
    count = 0
    for beats in seeded_grids(rng):
        n = len(beats)
        t = Tournament(n, beats)
        edges = [(i, j) for i in range(n) for j in range(n) if beats[i][j]]
        rng.shuffle(edges)
        assert from_edge_list(n, edges) == t
        assert_masks_match_grid(t, beats)
        count += 1
    assert count == 42


def planted_grids(rng):
    """(grid, sink, source) for two random tournaments at each of six sizes
    from 21 to 51 objects, with a sink and a source planted at random places
    other than object 0. Object 0 then beats the sink, so the sink's
    lowest-index weak dominator is never the source, its only strict one."""
    for n in (21, 25, 31, 37, 44, 51):
        for _ in range(2):
            beats = [[False] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    w = rng.random() < 0.5
                    beats[i][j], beats[j][i] = w, not w
            sink, source = rng.sample(range(1, n), 2)
            for j in range(n):
                if j != sink:
                    beats[sink][j], beats[j][sink] = False, True
            for j in range(n):
                if j != source:
                    beats[source][j], beats[j][source] = True, False
            yield tuple(map(tuple, beats)), sink, source


def test_masks_match_the_grid_on_games_with_a_planted_sink_and_source():
    rng = random.Random(25)
    count = 0
    for beats, sink, source in planted_grids(rng):
        t = Tournament(len(beats), beats)
        assert find_dominated(t, "strict") == [(sink, source)]
        assert dict(find_dominated(t, "weak"))[sink] == 0
        assert_masks_match_grid(t, beats)
        # a blow-up at object 0, neither sink nor source, keeps them both
        for inner in (classic_cycle(3), imbalanced_rps(2)):
            g = blow_up(t, 0, inner)
            assert_masks_match_grid(g, g.beats)
            count += 1
    assert count == 24


# ---------------------------------------------------------------------------
# construction and parsing
# ---------------------------------------------------------------------------


@st.composite
def edited_grids(draw):
    """An n x n grid of a tournament with up to two cells flipped."""
    n = draw(st.integers(1, 6))
    beats = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w = draw(st.booleans())
            beats[i][j], beats[j][i] = w, not w
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        beats[i][j] = not beats[i][j]
    return n, beats


@settings(max_examples=300, deadline=None, derandomize=True)
@given(edited_grids())
def test_grid_constructor_validates_as_the_grid_did(case):
    n, beats = case
    try:
        expected = grid_check(n, beats)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            Tournament(n, beats)
        assert str(got.value) == str(exc)
    else:
        assert Tournament(n, beats).beats == expected[0]


EDITS = ("drop", "duplicate", "both ways", "flip", "self-loop", "past n", "negative")


@st.composite
def edited_edge_lists(draw):
    """(n, edges, labels, text, line of each edge): a tournament's edges with up
    to two malformed edits, in a drawn order, and the same edges as edge-list
    text with blank and comment lines between them."""
    n = draw(st.integers(1, 7))
    edges = [
        (i, j) if draw(st.booleans()) else (j, i) for i in range(n) for j in range(i + 1, n)
    ]
    for edit in draw(st.lists(st.sampled_from(EDITS), max_size=2)):
        pick = draw(st.integers(0, max(len(edges) - 1, 0)))
        if edit == "self-loop":
            edges.append((pick % n, pick % n))
        elif edit == "past n":
            edges.append((pick % n, n))
        elif edit == "negative":
            edges.append((-1, pick % n))
        elif edges:
            i, j = edges[pick]
            if edit == "drop":
                del edges[pick]
            elif edit == "duplicate":
                edges.append((i, j))
            elif edit == "both ways":
                edges.append((j, i))
            else:
                edges[pick] = (j, i)
    edges = [edges[k] for k in draw(st.permutations(range(len(edges))))]
    names = st.sampled_from(["a", "b", "c", "d", "e", "f", "g", "h", "i"])
    labels = draw(st.none() | st.lists(names, min_size=n, max_size=n))
    lines = [f"{n}"]
    if labels is not None:
        lines += [f"# label {i} {name}" for i, name in enumerate(labels)]
    edge_lines = []
    for i, j in edges:
        lines += draw(st.lists(st.sampled_from(["", "  ", "# note", "#"]), max_size=1))
        lines.append(f"{i} {j}")
        edge_lines.append(len(lines))
    return n, edges, labels, "\n".join(lines) + "\n", edge_lines


@settings(max_examples=200, deadline=None, derandomize=True)
@given(edited_edge_lists())
def test_edge_scan_matches_the_set_based_oracle(case):
    n, edges, labels, text, edge_lines = case
    expected, k = grid_from_edges(n, edges, labels)
    if isinstance(expected, tuple):
        t = from_edge_list(n, edges, labels)
        assert (t.beats, t.labels) == expected
        assert parse_edge_list(text) == t
        return
    with pytest.raises(ValueError) as api:
        from_edge_list(n, edges, labels)
    assert str(api.value) == expected
    with pytest.raises(EdgeListParseError) as parsed:
        parse_edge_list(text)
    line = None if k is None else edge_lines[k]
    assert parsed.value.line == line
    assert str(parsed.value) == (expected if line is None else f"line {line}: {expected}")


# ---------------------------------------------------------------------------
# win-rate cells
# ---------------------------------------------------------------------------

# signs, ASCII digits, Arabic-Indic three, Devanagari and fullwidth five, the
# decimal point, exponent marks, slash, underscore and whitespace
CELL_PIECES = list("+-0125\u0663\u096b\uff15._/eE") + [" ", "\t", "\u00a0", "\u2003"]
# two digits after an exponent mark: an exponent above 6, which Fraction expands
LONG_EXPONENT = re.compile(r"[eE][+-]?_*\d_*\d")


@st.composite
def cells(draw):
    word = st.sampled_from(["nan", "NaN", "inf", "-Infinity", "snan", "sNaN1"])
    pieces = st.lists(st.sampled_from(CELL_PIECES), max_size=9).map("".join)
    core = draw(word | pieces.filter(lambda s: not LONG_EXPONENT.search(s)))
    pad = st.sampled_from(["", " ", "\t", "\u00a0"])
    return draw(pad) + core + draw(pad)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(cells())
def test_cells_read_as_fraction_read_them(cell):
    try:
        expected = fraction_side(cell)
    except (ValueError, ZeroDivisionError):
        with pytest.raises((ValueError, ArithmeticError)):
            _rate_side(cell)
    else:
        assert _rate_side(cell) == expected


@pytest.mark.parametrize(
    "cell, side",
    [
        ("0.75", 1),
        ("0.5000000000000000000000000000001", 1),
        ("0.4999999999999999999999999999999", -1),
        ("5E-1", 0),
        ("1/3", -1),
        ("2/3", 1),
        ("2/4", 0),
        ("1_0e-1_0", -1),
        ("1e-999999999", -1),
        ("1e+999999999", 2),
        ("-0", -1),
        ("3/2", 2),
    ],
)
def test_cell_sides(cell, side):
    assert _rate_side(cell) == side


@pytest.mark.parametrize(
    "cell", ["nan", "-Infinity", "sNaN", "1e-9999999999999999999", "1__0", "_1", "1_", "1/0", "1 / 2", ""]
)
def test_cells_that_are_no_finite_number(cell):
    with pytest.raises((ValueError, ArithmeticError)):
        _rate_side(cell)


def test_decimal_cells_never_reach_fraction(monkeypatch):
    def no_fraction(*args):
        raise AssertionError("a decimal cell was read as a Fraction")

    monkeypatch.setattr(cli, "Fraction", no_fraction)
    assert [_rate_side(c) for c in ("0.75", "1e-999999999", "1_0e-1_0")] == [1, -1, -1]
    with pytest.raises(ArithmeticError):
        _rate_side("1e-9999999999999999999")
