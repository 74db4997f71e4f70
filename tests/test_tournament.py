import itertools
import math
import random
import re
import tracemalloc

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tourneylab import (
    EdgeListParseError,
    Tournament,
    canonical_form,
    degree_profile,
    enumerate_tournaments,
    format_edge_list,
    from_edge_list,
    is_strong,
    k_minimizing_check,
    landau_bound_check,
    parse_edge_list,
)
from tourneylab.construct import classic_cycle, imbalanced_rps
from tourneylab.tournament import (
    _automorphism_counts,
    _class_count,
    _iso_classes,
    _k_limit,
    _orbit_masks,
    _strong_count,
    tournament_from_canonical,
)
from tests.conftest import make_transitive

# published counts of tournaments up to isomorphism, n = 1..8 (OEIS A000568)
CLASS_COUNTS = {1: 1, 2: 1, 3: 2, 4: 4, 5: 12, 6: 56, 7: 456, 8: 6880}
# the same sequence on to n = 11, past the sizes the class build reaches
DAVIS_COUNTS = CLASS_COUNTS | {9: 191536, 10: 9733056, 11: 903753248}
# published counts of strong tournaments up to isomorphism, n = 1..8 (OEIS A051337)
STRONG_COUNTS = {1: 1, 2: 0, 3: 1, 4: 1, 5: 6, 6: 35, 7: 353, 8: 6008}
# the same sequence on to n = 11
STRONG_DAVIS_COUNTS = STRONG_COUNTS | {9: 178133, 10: 9355949, 11: 884464590}


def brute_iso_classes(n: int) -> tuple[int, ...]:
    """The class build without the min-wins filter: canonical forms of every
    one-vertex extension of every (n-1)-class."""
    if n == 1:
        return (0,)
    seen = set()
    for packed in brute_iso_classes(n - 1):
        base = tournament_from_canonical(n - 1, packed)
        for pattern in range(1 << (n - 1)):
            beats = [list(row) + [False] for row in base.beats]
            beats.append([False] * n)
            for u in range(n - 1):
                if (pattern >> u) & 1:
                    beats[u][n - 1] = True
                else:
                    beats[n - 1][u] = True
            seen.add(canonical_form(Tournament(n, beats)))
    return tuple(sorted(seen))


def brute_canonical(t: Tournament) -> int:
    best = None
    for perm in itertools.permutations(range(t.n)):
        m = 0
        for i in range(t.n):
            for j in range(i + 1, t.n):
                m = (m << 1) | (1 if t.beats[perm[i]][perm[j]] else 0)
        if best is None or m < best:
            best = m
    return best


# ---------------------------------------------------------------------------
# construction and parsing
# ---------------------------------------------------------------------------

def test_from_edge_list_classic(classic3):
    assert classic3.n == 3
    assert classic3.beats[0][1] and classic3.beats[1][2] and classic3.beats[2][0]


def test_from_edge_list_two_vertices():
    t = from_edge_list(2, [(0, 1)])
    assert t.beats[0][1] and not t.beats[1][0]


@pytest.mark.parametrize(
    "edges, message",
    [
        ([(0, 1), (1, 0), (1, 2)], "contradictory"),
        ([(0, 1), (0, 1), (1, 2), (0, 2)], "duplicate"),
        ([(0, 0), (0, 1), (1, 2), (0, 2)], "self-loop"),
        ([(0, 1), (1, 2)], "missing"),
        ([(0, 5)], "out of range"),
    ],
)
def test_from_edge_list_errors(edges, message):
    with pytest.raises(ValueError, match=message):
        from_edge_list(3, edges)


def test_missing_pairs_are_found_before_the_grid_is_built():
    # a 3000 x 3000 grid alone would take about 72 MB
    tracemalloc.start()
    try:
        with pytest.raises(EdgeListParseError, match=r"missing orientation for pair \(0,2\)"):
            parse_edge_list("3000\n0 1\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_label_comment_does_not_size_memory_by_the_vertex_count():
    # an n-long label list for 300,000 objects alone would take about 19 MB
    tracemalloc.start()
    try:
        with pytest.raises(EdgeListParseError, match=r"missing orientation for pair \(0,2\)"):
            parse_edge_list("300000\n# label 0 a\n0 1\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


@pytest.mark.parametrize("index, line", [(7, 2), (-1, 1), (3, 4)])
def test_out_of_range_label_names_its_line(index, line):
    lines = ["3", "0 1", "1 2", "2 0"]
    lines.insert(line - 1, f"# label {index} x")
    with pytest.raises(EdgeListParseError, match=f"line {line}: label index {index} out of range"):
        parse_edge_list("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("3\n# label 0 a\n# label 1 a\n0 1\n1 2\n2 0\n", "label 'a' names more than one object"),
        ("3\n# label 0 a\n# label 0 b\n0 1\n1 2\n2 0\n", "line 3: label index 0 is already labeled 'a'"),
        ("3\n# label 0 1\n0 1\n1 2\n2 0\n", "label '1' names more than one object"),
    ],
    ids=["same-name", "same-index", "name-of-default"],
)
def test_repeated_labels_are_rejected(text, message):
    with pytest.raises(EdgeListParseError, match=re.escape(message)):
        parse_edge_list(text)
    with pytest.raises(ValueError, match="label 'x' names more than one object"):
        Tournament(2, [[False, True], [False, False]], labels=["x", "x"])


def test_parse_and_format_round_trip(rps_well):
    text = format_edge_list(rps_well)
    again = parse_edge_list(text)
    assert again == rps_well
    assert "# label 3 well" in text


def test_parse_handles_comments_and_blanks():
    t = parse_edge_list("# a comment\n\n3\n0 1\n# another\n1 2\n2 0\n")
    assert t.n == 3


def test_parse_errors_carry_line_numbers():
    with pytest.raises(EdgeListParseError, match="line 2"):
        parse_edge_list("3\n0 1 2\n")
    with pytest.raises(EdgeListParseError, match="line 1"):
        parse_edge_list("x\n")
    with pytest.raises(EdgeListParseError, match="no vertex count"):
        parse_edge_list("# nothing\n")
    err = None
    try:
        parse_edge_list("3\n0 1\n1 0\n1 2\n")
    except EdgeListParseError as exc:
        err = exc
    assert err is not None and "contradictory" in str(err)


@pytest.mark.parametrize(
    "text, edges, line, message",
    [
        ("3\n0 1\n1 0\n1 2\n", [(0, 1), (1, 0), (1, 2)], 3,
         "contradictory pair: both (0,1) and (1,0) given"),
        ("3\n0 1\n\n# note\n0 1\n", [(0, 1), (0, 1)], 5, "duplicate edge (0,1)"),
        ("3\n0 1\n2 2\n", [(0, 1), (2, 2)], 3, "self-loop at vertex 2"),
        ("3\n0 1\n1 2\n0 3\n", [(0, 1), (1, 2), (0, 3)], 4, "edge (0,3) out of range for n=3"),
        ("3\n-1 0\n", [(-1, 0)], 2, "edge (-1,0) out of range for n=3"),
        ("3\n0 1\n1 2\n", [(0, 1), (1, 2)], None, "missing orientation for pair (0,2)"),
    ],
    ids=["contradictory", "duplicate", "self-loop", "past-n", "negative", "missing"],
)
def test_edge_errors_name_their_line(text, edges, line, message):
    with pytest.raises(EdgeListParseError) as err:
        parse_edge_list(text)
    assert err.value.line == line
    assert str(err.value) == (message if line is None else f"line {line}: {message}")
    with pytest.raises(ValueError) as api:
        from_edge_list(3, edges)
    assert str(api.value) == message


@pytest.mark.parametrize(
    "comment", ["# label 0 rock paper", "# label 0", "# label", "#label 0 a b", "# label x a"]
)
def test_label_comment_needs_an_index_and_one_name(comment):
    with pytest.raises(EdgeListParseError, match="^line 2: bad label comment$"):
        parse_edge_list(f"3\n{comment}\n0 1\n1 2\n2 0\n")


def test_comments_that_only_start_like_labels_are_ignored():
    t = parse_edge_list("3\n# labels 0 a b\n# labelled\n0 1\n1 2\n2 0\n")
    assert t.labels == ("0", "1", "2")


# (id, text, expected): expected is ("ok", n, win masks, labels) or
# ("error", message, line); recorded from the line-by-line parser, so each
# input must keep its tournament, or its message and line number
PARSE_CASES = [
    ('crlf', '3\r\n0 1\r\n1 2\r\n2 0\r\n',
     ('ok', 3, (2, 4, 1), ('0', '1', '2'))),
    ('tabs', '3\n0\t1\n\t1 \t 2\n2\t0\t\n',
     ('ok', 3, (2, 4, 1), ('0', '1', '2'))),
    ('trailing spaces', '3   \n0 1  \n1 2 \n2 0      \n',
     ('ok', 3, (2, 4, 1), ('0', '1', '2'))),
    ('comments and blanks between edges', '3\n\n0 1\n   # note\n\n1 2\n#\n  \n2 0\n# end',
     ('ok', 3, (2, 4, 1), ('0', '1', '2'))),
    ('comment before the count', '# header\n\n3\n0 1\n1 2\n2 0\n',
     ('ok', 3, (2, 4, 1), ('0', '1', '2'))),
    ('other line breaks', '3\x0b0 1\x0c1 2\u20282 0\x85',
     ('ok', 3, (2, 4, 1), ('0', '1', '2'))),
    ('unicode spaces', '3\n0\xa01\n1\u20032\n2\x1f0\n',
     ('ok', 3, (2, 4, 1), ('0', '1', '2'))),
    ('plus signs', '+3\n+0 1\n1 +2\n2 0\n',
     ('ok', 3, (2, 4, 1), ('0', '1', '2'))),
    ('leading zeros', '03\n00 01\n1 002\n2 0\n',
     ('ok', 3, (2, 4, 1), ('0', '1', '2'))),
    ('unicode digits', '٣\n٠ ١\n１ 2\n२ 0\n',
     ('ok', 3, (2, 4, 1), ('0', '1', '2'))),
    ('underscored', '0_3\n0 1\n0_1 2\n2 0_0\n',
     ('ok', 3, (2, 4, 1), ('0', '1', '2'))),
    ('out of range', '3\n0 1\n1 3\n2 0\n',
     ('error', 'line 3: edge (1,3) out of range for n=3', 3)),
    ('negative', '3\n0 1\n-1 2\n2 0\n',
     ('error', 'line 3: edge (-1,2) out of range for n=3', 3)),
    ('out of range after a duplicate', '3\n0 1\n0 1\n9 9\n',
     ('error', 'line 3: duplicate edge (0,1)', 3)),
    ('duplicate', '3\n0 1\n1 2\n0 1\n2 0\n',
     ('error', 'line 4: duplicate edge (0,1)', 4)),
    ('contradictory', '3\n0 1\n1 2\n1 0\n2 0\n',
     ('error', 'line 4: contradictory pair: both (0,1) and (1,0) given', 4)),
    ('self-loop', '3\n0 1\n1 1\n2 0\n',
     ('error', 'line 3: self-loop at vertex 1', 3)),
    ('missing pair', '3\n0 1\n2 0\n',
     ('error', 'missing orientation for pair (1,2)', None)),
    ('missing pair with extra comments', '4\n0 1\n# x\n0 2\n0 3\n1 2\n2 3\n',
     ('error', 'missing orientation for pair (1,3)', None)),
    ('three fields', '3\n0 1\n1 2 7\n2 0\n',
     ('error', "line 3: expected 'winner loser' pair", 3)),
    ('one field', '3\n0 1\n1\n2 0\n',
     ('error', "line 3: expected 'winner loser' pair", 3)),
    ('hash after data', '3\n0 1 # x\n1 2\n2 0\n',
     ('error', "line 2: expected 'winner loser' pair", 2)),
    ('hash after count', '3 # n\n0 1\n1 2\n2 0\n',
     ('error', 'line 1: expected vertex count on first data line', 1)),
    ('hash glued to data', '3\n0 1#x\n1 2\n2 0\n',
     ('error', 'line 2: edge endpoints must be integers', 2)),
    ('non-integer endpoint', '3\n0 1\n1 two\n2 0\n',
     ('error', 'line 3: edge endpoints must be integers', 3)),
    ('float endpoint', '3\n0 1\n1 2.0\n2 0\n',
     ('error', 'line 3: edge endpoints must be integers', 3)),
    ('non-integer count', 'three\n0 1\n',
     ('error', 'line 1: vertex count is not an integer', 1)),
    ('zero count', '0\n',
     ('error', 'line 1: vertex count must be positive', 1)),
    ('negative count', '-2\n0 1\n',
     ('error', 'line 1: vertex count must be positive', 1)),
    ('count with two fields', '3 3\n0 1\n',
     ('error', 'line 1: expected vertex count on first data line', 1)),
    ('empty', '',
     ('error', 'empty input: no vertex count', None)),
    ('only comments', '# a\n#b\n\n',
     ('error', 'empty input: no vertex count', None)),
    ('structural error before a bad edge', '3\n5 5\n0 1 2\n',
     ('error', "line 3: expected 'winner loser' pair", 3)),
    ('bad edge before a structural error', '3\n0 x\n0 1 2\n',
     ('error', 'line 2: edge endpoints must be integers', 2)),
    ('bad label comment', '3\n0 1\n# label 1\n1 2\n2 0\n',
     ('error', 'line 3: bad label comment', 3)),
    ('label then bad edge line', '3\n0 1 2\n# label x a\n',
     ('error', "line 2: expected 'winner loser' pair", 2)),
    ('labels', '3\n# label 0 rock\n#label 2 scissors\n0 1\n1 2\n2 0\n',
     ('ok', 3, (2, 4, 1), ('rock', '1', 'scissors'))),
    ('label out of range', '3\n# label 3 x\n0 1\n1 2\n2 0\n',
     ('error', 'line 2: label index 3 out of range for n=3', 2)),
    ('label twice', '3\n# label 1 a\n# label 1 b\n0 1\n1 2\n2 0\n',
     ('error', "line 3: label index 1 is already labeled 'a'", 3)),
    ('repeated label name', '3\n# label 0 a\n# label 1 a\n0 1\n1 2\n2 0\n',
     ('error', "label 'a' names more than one object", None)),
    ('label out of range with a bad edge', '3\n# label 7 x\n0 0\n',
     ('error', 'line 2: label index 7 out of range for n=3', 2)),
    ('one object', '1\n',
     ('ok', 1, (0,), ('0',))),
    ('one object with an edge', '1\n0 0\n',
     ('error', 'line 2: self-loop at vertex 0', 2)),
    ('extra edge', '2\n0 1\n1 0\n0 1\n',
     ('error', 'line 3: contradictory pair: both (0,1) and (1,0) given', 3)),
    ('duplicate with a pair missing', '3\n0 1\n0 1\n',
     ('error', 'line 3: duplicate edge (0,1)', 3)),
    ('out of range with pairs missing', '3000\n0 1\n5000 1\n',
     ('error', 'line 3: edge (5000,1) out of range for n=3000', 3)),
    ('unicode-digit label index', '3\n# label ١ b\n0 1\n1 2\n2 0\n',
     ('ok', 3, (2, 4, 1), ('0', 'b', '2'))),
    ('labels after the edges', '2\n1 0\n# label 1 x\n',
     ('ok', 2, (0, 1), ('0', 'x'))),
]


@pytest.mark.parametrize(
    "text, expected", [c[1:] for c in PARSE_CASES], ids=[c[0] for c in PARSE_CASES]
)
def test_edge_list_inputs_parse_as_recorded(text, expected):
    try:
        t = parse_edge_list(text)
    except EdgeListParseError as exc:
        assert ("error", str(exc), exc.line) == expected
    else:
        assert ("ok", t.n, t.win, t.labels) == expected


@pytest.mark.parametrize("bad", ["rock paper", "", " rock", "tab\there", "line\u2028break"])
def test_format_edge_list_rejects_labels_it_cannot_write(bad):
    t = from_edge_list(3, [(0, 1), (1, 2), (2, 0)], labels=[bad, "b", "c"])
    with pytest.raises(ValueError, match="is empty or contains whitespace") as err:
        format_edge_list(t)
    assert repr(bad) in str(err.value)


def test_format_and_parse_round_trip_labels_exactly():
    t = from_edge_list(3, [(0, 1), (1, 2), (2, 0)], labels=["rock#1", "p.q", "\u00e9t\u00e9"])
    assert parse_edge_list(format_edge_list(t)) == t


def test_tournament_is_immutable(classic3):
    with pytest.raises(AttributeError):
        classic3.n = 5


# ---------------------------------------------------------------------------
# degree profiles
# ---------------------------------------------------------------------------

def test_degree_profile_cyclic(classic3):
    assert degree_profile(classic3).e_in == (1, 1, 1)


def test_degree_profile_imbalanced5():
    p = degree_profile(imbalanced_rps(2))
    assert sorted(p.e_in) == [1, 2, 2, 2, 3]
    assert sorted(p.e_out) == [1, 2, 2, 2, 3]


def test_degree_profile_transitive(transitive3):
    assert degree_profile(transitive3).e_in == (2, 1, 0)


def test_degree_profile_invariants():
    for t in enumerate_tournaments(5, up_to_iso=True):
        p = degree_profile(t)
        assert all(a + b == t.n - 1 for a, b in zip(p.e_in, p.e_out))
        assert sum(p.e_in) == sum(p.e_out) == t.n * (t.n - 1) // 2
        assert p.e_min == tuple(min(a, b) for a, b in zip(p.e_in, p.e_out))


# ---------------------------------------------------------------------------
# strong connectivity
# ---------------------------------------------------------------------------

def test_is_strong_cases(classic3, transitive3, strong_unplayable5):
    assert is_strong(classic3)
    assert not is_strong(transitive3)
    assert is_strong(imbalanced_rps(3))
    assert is_strong(strong_unplayable5)
    assert is_strong(Tournament(1, [[False]]))


# ---------------------------------------------------------------------------
# enumeration and canonical forms
# ---------------------------------------------------------------------------

def test_enumerate_labeled_count():
    assert sum(1 for _ in enumerate_tournaments(3)) == 8
    assert sum(1 for _ in enumerate_tournaments(4)) == 64


@pytest.mark.parametrize("n", sorted(CLASS_COUNTS))
def test_enumerate_iso_counts(n):
    assert sum(1 for _ in enumerate_tournaments(n, up_to_iso=True)) == CLASS_COUNTS[n]


@pytest.mark.parametrize("n", sorted(STRONG_COUNTS))
def test_enumerate_strong_counts(n):
    strong = sum(1 for t in enumerate_tournaments(n, up_to_iso=True) if is_strong(t))
    assert strong == STRONG_COUNTS[n]


@pytest.mark.parametrize("n", sorted(DAVIS_COUNTS))
def test_class_count_formula(n):
    # Davis's Burnside sum against the published counts and, up to 8 objects,
    # against the class build itself
    assert _class_count(n) == DAVIS_COUNTS[n]
    if n <= 8:
        assert _class_count(n) == len(_iso_classes(n))


@pytest.mark.parametrize("n", sorted(STRONG_DAVIS_COUNTS))
def test_strong_count_recurrence(n):
    # the strong-component recurrence over Davis's counts against the published
    # counts and, up to 8 objects, against the strong classes of the class build
    assert _strong_count(n) == STRONG_DAVIS_COUNTS[n]
    if n <= 8:
        strong = sum(is_strong(tournament_from_canonical(n, c)) for c in _iso_classes(n))
        assert _strong_count(n) == strong


@pytest.mark.parametrize("n", range(1, 8))
def test_iso_classes_match_unfiltered_build(n):
    assert _iso_classes(n) == brute_iso_classes(n)


def automorphism_count(t: Tournament) -> int:
    return sum(
        1
        for perm in itertools.permutations(range(t.n))
        if all(t.beats[perm[i]][perm[j]] == t.beats[i][j] for i, j in t.edges())
    )


@pytest.mark.parametrize("n", range(1, 7))
def test_iso_classes_satisfy_orbit_stabilizer(n):
    # each class holds n!/|Aut T| labeled games, and together they hold all of them
    orbits = sum(
        math.factorial(n) // automorphism_count(t)
        for t in enumerate_tournaments(n, up_to_iso=True)
    )
    assert orbits == 2 ** (n * (n - 1) // 2)


@pytest.mark.parametrize("n", sorted(CLASS_COUNTS))
def test_recorded_automorphism_counts(n):
    # the class build's counts: brute force up to 6 objects, and at every size
    # the orbit-stabilizer identity over all 2^C(n,2) labeled games
    counts = _automorphism_counts(n)
    assert len(counts) == len(_iso_classes(n))
    if n <= 6:
        assert counts == tuple(
            automorphism_count(tournament_from_canonical(n, c)) for c in _iso_classes(n)
        )
    assert sum(math.factorial(n) // a for a in counts) == 2 ** (n * (n - 1) // 2)


@pytest.mark.parametrize("n", range(1, 6))
def test_orbit_masks_partition_the_labeled_games(n):
    orbits = [_orbit_masks(n, c) for c in _iso_classes(n)]
    for c, orbit, aut in zip(_iso_classes(n), orbits, _automorphism_counts(n)):
        assert len(orbit) == math.factorial(n) // aut
        assert c in orbit
        assert {canonical_form(tournament_from_canonical(n, m)) for m in orbit} == {c}
    assert sorted(m for orbit in orbits for m in orbit) == list(range(2 ** (n * (n - 1) // 2)))


def test_enumerate_deterministic():
    a = [t.beats for t in enumerate_tournaments(5, up_to_iso=True)]
    b = [t.beats for t in enumerate_tournaments(5, up_to_iso=True)]
    assert a == b
    la = [t.beats for t in enumerate_tournaments(3)]
    lb = [t.beats for t in enumerate_tournaments(3)]
    assert la == lb


def test_enumerate_iso_bound():
    with pytest.raises(ValueError):
        next(enumerate_tournaments(9, up_to_iso=True))


def test_canonical_form_matches_brute_force():
    for t in enumerate_tournaments(4):
        assert canonical_form(t) == brute_canonical(t)
    rng = random.Random(5)
    for n in (5, 6):
        for _ in range(40):
            edges = []
            for i in range(n):
                for j in range(i + 1, n):
                    edges.append((i, j) if rng.random() < 0.5 else (j, i))
            t = from_edge_list(n, edges)
            assert canonical_form(t) == brute_canonical(t)


def test_canonical_form_matches_brute_force_at_seven():
    rng = random.Random(7)
    for _ in range(20):
        t = tournament_from_canonical(7, rng.getrandbits(21))
        assert canonical_form(t) == brute_canonical(t)


def relabeled(t: Tournament, perm) -> Tournament:
    return Tournament(t.n, [[t.beats[perm[i]][perm[j]] for j in range(t.n)] for i in range(t.n)])


def digraph(t: Tournament) -> nx.DiGraph:
    g = nx.DiGraph(t.edges())
    g.add_nodes_from(range(t.n))
    return g


@st.composite
def game_pairs(draw):
    """A game, and a relabeling of it with at most one edge reversed first."""
    n = draw(st.integers(min_value=7, max_value=9))
    bits = n * (n - 1) // 2
    mask = draw(st.integers(min_value=0, max_value=(1 << bits) - 1))
    flip = draw(st.one_of(st.just(0), st.integers(0, bits - 1).map(lambda b: 1 << b)))
    perm = draw(st.permutations(range(n)))
    a = tournament_from_canonical(n, mask)
    return a, relabeled(tournament_from_canonical(n, mask ^ flip), perm), perm


@settings(max_examples=60, deadline=None, derandomize=True)
@given(game_pairs())
def test_canonical_form_decides_isomorphism(pair):
    a, b, perm = pair
    assert canonical_form(relabeled(a, perm)) == canonical_form(a)
    same = canonical_form(a) == canonical_form(b)
    assert same == nx.is_isomorphic(digraph(a), digraph(b))


@pytest.mark.parametrize(
    "t, form",
    # forms computed by the exhaustive per-vertex permutation search this
    # search replaced; these inputs have the most ties, so the most branching
    [(classic_cycle(9), 4041311232), (imbalanced_rps(4), 272769024)],
    ids=["rotational-9-cycle", "imbalanced-9"],
)
def test_canonical_form_symmetric_inputs(t, form):
    assert canonical_form(t) == form
    assert nx.is_isomorphic(digraph(tournament_from_canonical(t.n, form)), digraph(t))
    rng = random.Random(9)
    for _ in range(5):
        perm = list(range(t.n))
        rng.shuffle(perm)
        assert canonical_form(relabeled(t, perm)) == form


def test_canonical_form_is_isomorphism_invariant():
    rng = random.Random(11)
    t = imbalanced_rps(3)
    base = canonical_form(t)
    for _ in range(10):
        perm = list(range(t.n))
        rng.shuffle(perm)
        assert canonical_form(relabeled(t, perm)) == base


def test_iso_classes_are_mutually_non_isomorphic():
    forms = [canonical_form(t) for t in enumerate_tournaments(5, up_to_iso=True)]
    assert len(forms) == len(set(forms))


# ---------------------------------------------------------------------------
# structural conditions
# ---------------------------------------------------------------------------

def test_k_minimizing_classic(classic3):
    assert k_minimizing_check(classic3, 1)


def test_k_minimizing_rps_well(rps_well):
    # the 1-minimizing choices {paper} and {well} are both beaten outside;
    # the failure is at k=2 on {paper, well}: well's only defeater is paper
    assert k_minimizing_check(rps_well, 1)
    assert not k_minimizing_check(rps_well, 2)


def test_k_minimizing_imbalanced7():
    t = imbalanced_rps(3)
    for k in range(1, 5):
        assert k_minimizing_check(t, k)


def test_k_minimizing_two_single_loss_objects():
    # a beats b and everything else; b loses only to a: both have one loss,
    # so the 2-minimizing set {a, b} violates the condition
    t = from_edge_list(
        5,
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (1, 4), (4, 0), (2, 3), (3, 4), (2, 4)],
    )
    losses = degree_profile(t).e_out
    assert sorted(losses)[:2] == [1, 1]
    assert not k_minimizing_check(t, 2)


def test_k_minimizing_one_object_fails():
    # the only choice is M = {0}, which leaves no object outside M
    one = Tournament(1, [[False]])
    assert k_minimizing_check(one, 1) is False
    assert brute_k_minimizing(one, 1) is False


def brute_k_minimizing(t: Tournament, k: int) -> bool:
    """The k-minimizing condition checked on every tie-break choice of M."""
    n = t.n
    losses = degree_profile(t).e_out
    order = sorted(range(n), key=lambda i: (losses[i], i))
    threshold = losses[order[k - 1]]
    fixed = [i for i in order[:k] if losses[i] < threshold]
    tied = [i for i in range(n) if losses[i] == threshold]
    for choice in itertools.combinations(tied, k - len(fixed)):
        members = set(fixed) | set(choice)
        outside = [o for o in range(n) if o not in members]
        each_beaten_outside = all(any(t.beats[o][b] for o in outside) for b in members)
        beating = {o for o in outside if any(t.beats[o][b] for b in members)}
        whole_rest_beats = bool(outside) and set(outside) == beating
        if not (each_beaten_outside or whole_rest_beats):
            return False
    return True


@st.composite
def k_games(draw):
    """Games of 1-11 objects, half of them (near-)regular so that many
    objects tie on losses: the rotational game, each pair at distance n/2
    won by the lower index when n is even, with up to two edges reversed."""
    n = draw(st.integers(min_value=1, max_value=11))
    if draw(st.booleans()):
        mask = draw(st.integers(min_value=0, max_value=(1 << (n * (n - 1) // 2)) - 1))
        return tournament_from_canonical(n, mask)
    beats = [
        [0 < (j - i) % n < n / 2 or ((j - i) % n == n / 2 and i < j) for j in range(n)]
        for i in range(n)
    ]
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for i, j in draw(st.lists(pair, max_size=2)):
        if i != j:
            beats[i][j], beats[j][i] = beats[j][i], beats[i][j]
    return relabeled(Tournament(n, beats), draw(st.permutations(range(n))))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(k_games())
def test_k_minimizing_matches_brute_force(t):
    for k in range(1, _k_limit(t.n) + 1):
        assert k_minimizing_check(t, k) == brute_k_minimizing(t, k)


def test_k_minimizing_range_errors(classic3, rps_well):
    with pytest.raises(ValueError):
        k_minimizing_check(classic3, 3)
    with pytest.raises(ValueError):
        k_minimizing_check(rps_well, 0)
    with pytest.raises(ValueError):
        k_minimizing_check(rps_well, 3)


def test_landau_bounds_imbalanced5_with_equality():
    t = imbalanced_rps(2)
    assert landau_bound_check(t)
    losses = sorted(degree_profile(t).e_out)
    assert sum(losses[:1]) == 1
    assert sum(losses[:2]) == 3
    assert sum(losses[:3]) == 5  # m(m+1)/2 + m at m = 2


def test_landau_bounds_other_cases(classic3, transitive5):
    assert landau_bound_check(classic3)
    assert not landau_bound_check(transitive5)
    assert not landau_bound_check(make_transitive(7))


def test_landau_bounds_even_rejected(rps_well):
    with pytest.raises(ValueError):
        landau_bound_check(rps_well)
