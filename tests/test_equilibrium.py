import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from typing import Sequence

import pytest

from tourneylab import (
    Playability,
    RationalMatrix,
    Tournament,
    classify_playability,
    enumerate_tournaments,
    equilibrium_polytope,
    find_dominated,
    from_edge_list,
    is_strong,
    payoff_matrix,
    worst_case_equilibrium,
)
from tourneylab import equilibrium, tournament
from tourneylab.construct import imbalanced_equilibrium_closed_form, imbalanced_rps
from tourneylab.equilibrium import (
    _embed,
    _playable_classes,
    _signed_kernel,
    payoff_rows,
    tournament_equilibrium,
)
from tourneylab.rational import Vector, solve_affine
from tourneylab.tournament import (
    _automorphism_counts,
    _canonical_search,
    _iso_classes,
    tournament_from_canonical,
)

F = Fraction


# ---------------------------------------------------------------------------
# payoff matrices
# ---------------------------------------------------------------------------

def test_payoff_matrix_classic(classic3):
    a = payoff_matrix(classic3)
    assert a.entries == (
        (0, 1, -1),
        (-1, 0, 1),
        (1, -1, 0),
    )


def test_payoff_matrix_two_vertices():
    from tourneylab import from_edge_list

    a = payoff_matrix(from_edge_list(2, [(0, 1)]))
    assert a.entries == ((0, 1), (-1, 0))


def test_payoff_matrix_is_skew():
    for t in enumerate_tournaments(5, up_to_iso=True):
        assert payoff_matrix(t).is_skew_symmetric()


# ---------------------------------------------------------------------------
# polytopes
# ---------------------------------------------------------------------------

def test_polytope_classic_single_point(classic3):
    p = equilibrium_polytope(payoff_matrix(classic3))
    assert p.kernel_dim == 1
    assert p.vertices == ((F(1, 3), F(1, 3), F(1, 3)),)
    assert p.interior_point == (F(1, 3), F(1, 3), F(1, 3))
    assert p.support_mask == (True, True, True)


def test_polytope_all_4_tournaments_empty():
    for t in enumerate_tournaments(4):
        assert equilibrium_polytope(payoff_matrix(t)).is_empty


def test_polytope_imbalanced7_closed_form():
    p = equilibrium_polytope(payoff_matrix(imbalanced_rps(3)))
    assert p.vertices == (imbalanced_equilibrium_closed_form(3),)


def test_polytope_strong_but_unplayable(strong_unplayable5):
    p = equilibrium_polytope(payoff_matrix(strong_unplayable5))
    assert p.kernel_dim == 1
    assert p.is_empty
    assert is_strong(strong_unplayable5)


def test_polytope_refuses_a_kernel_of_dimension_2_or_more():
    # a tournament game's kernel has dimension n mod 2; the zero matrix's has n
    for n in (3, 9):
        z = RationalMatrix([[0] * n for _ in range(n)])
        with pytest.raises(ValueError, match=f"kernel dimension {n}"):
            equilibrium_polytope(z)


def test_polytope_empty_when_kernel_sums_to_zero():
    # kernel is spanned by (1, -2, 1): no scaling lands on the simplex
    a = RationalMatrix([[0, 1, 2], [-1, 0, 1], [-2, -1, 0]])
    p = equilibrium_polytope(a)
    assert p.kernel_dim == 1 and p.is_empty


def test_polytope_vertices_satisfy_constraints():
    for t in enumerate_tournaments(5, up_to_iso=True):
        a = payoff_matrix(t)
        p = equilibrium_polytope(a)
        for v in p.vertices:
            assert a.matvec(v) == (F(0),) * t.n
            assert sum(v) == 1
            assert all(x >= 0 for x in v)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_rps_well(rps_well):
    rep = classify_playability(rps_well)
    assert rep.playability is Playability.UNPLAYABLE
    assert rep.dominating_pair == (0, 3)  # rock dominated by well
    assert rep.witness_text(rps_well.labels) == "well weakly dominates rock"


def test_classify_imbalanced_strongly_playable():
    for n in (1, 2, 3, 4, 10):
        rep = classify_playability(imbalanced_rps(n))
        assert rep.playability is Playability.STRONGLY_PLAYABLE
        assert rep.equilibrium == imbalanced_equilibrium_closed_form(n)
        assert rep.is_strong


def test_classify_transitive_unplayable(transitive5):
    rep = classify_playability(transitive5)
    assert rep.playability is Playability.UNPLAYABLE
    assert rep.dominating_pair is not None


def test_classify_strong_unplayable_counterexample(strong_unplayable5):
    """Strong connectivity does not imply playability."""
    rep = classify_playability(strong_unplayable5)
    assert rep.is_strong
    assert rep.playability is Playability.UNPLAYABLE


def test_playable_implies_strong_up_to_7_objects():
    for n in (1, 3, 5):
        for t in enumerate_tournaments(n, up_to_iso=True):
            rep = classify_playability(t)
            if rep.playability is Playability.STRONGLY_PLAYABLE:
                assert rep.is_strong
            # single strictly positive kernel point <=> the classification
            single_positive = rep.polytope.is_single_point and all(
                x > 0 for x in rep.polytope.vertices[0]
            )
            assert single_positive == (
                rep.playability is Playability.STRONGLY_PLAYABLE
            )


def test_classification_is_unplayable_or_strongly_playable():
    for n in range(1, 8):
        for t in enumerate_tournaments(n, up_to_iso=True):
            rep = classify_playability(t)
            assert rep.playability in {Playability.UNPLAYABLE, Playability.STRONGLY_PLAYABLE}


def test_max_probability_bound_over_playable_5():
    for t in enumerate_tournaments(5, up_to_iso=True):
        rep = classify_playability(t)
        if rep.playability is Playability.STRONGLY_PLAYABLE:
            assert max(rep.equilibrium) <= F(1, 3)


# ---------------------------------------------------------------------------
# dominance
# ---------------------------------------------------------------------------

def test_dominated_rps_well_weak_pure(rps_well):
    assert find_dominated(rps_well, "weak", "pure") == [(0, 3)]


def test_dominated_classic_empty(classic3):
    for mode in ("weak", "strict"):
        for against in ("pure", "mixed"):
            assert find_dominated(classic3, mode, against) == []


def test_dominated_transitive_strict(transitive3):
    hits = find_dominated(transitive3, "strict", "pure")
    assert (2, 0) in hits  # bottom strictly dominated by top
    hits = find_dominated(transitive3, "strict", "mixed")
    assert [i for i, _ in hits] == [2]


def test_dominated_transitive_weak_mixed(transitive3):
    hits = find_dominated(transitive3, "weak", "mixed")
    assert [i for i, _ in hits] == [1, 2]
    a = payoff_matrix(transitive3)
    for i, w in hits:
        mixed = a.transpose().matvec(w)  # row combination: w^T A
        row_i = a.entries[i]
        assert all(m >= r for m, r in zip(mixed, row_i))
        assert any(m > r for m, r in zip(mixed, row_i))
        assert w[i] == 0 and sum(w) == 1


def test_dominated_rps_well_weak_mixed(rps_well):
    hits = find_dominated(rps_well, "weak", "mixed")
    assert 0 in [i for i, _ in hits]


@pytest.fixture
def mixed_strict5():
    """A 5-object class whose strict mixed dominator has three nonzero weights."""
    edges = [(1, 0), (2, 0), (2, 1), (2, 4), (3, 0), (3, 1), (3, 2), (4, 0), (4, 1), (4, 3)]
    return from_edge_list(5, edges)


@pytest.mark.parametrize(
    "game, weak, strict",
    [
        (
            "transitive3",
            [(1, (F(1), F(0), F(0))), (2, (F(1), F(0), F(0)))],
            [(2, (F(1), F(0), F(0)))],
        ),
        ("rps_well", [(0, (F(0), F(0), F(0), F(1)))], []),
        (
            "mixed_strict5",
            [(0, (F(0), F(0), F(0), F(0), F(1))), (1, (F(0), F(0), F(0), F(0), F(1)))],
            [(0, (F(0), F(0), F(1, 3), F(1, 3), F(1, 3)))],
        ),
    ],
)
def test_dominated_mixed_exact_weights(game, weak, strict, request):
    t = request.getfixturevalue(game)
    assert find_dominated(t, "weak", "mixed") == weak
    assert find_dominated(t, "strict", "mixed") == strict


def test_dominated_lone_object_has_no_dominator():
    lone = from_edge_list(1, [])
    for mode in ("weak", "strict"):
        for against in ("pure", "mixed"):
            assert find_dominated(lone, mode, against) == []


def test_dominated_mixed_is_bounded(monkeypatch):
    # weak mode reads win masks at any size: at 9 and 51 objects each dominated
    # object gets the pure weak dominator with the most wins, the largest index
    # on a tie
    rng = random.Random(24)
    hits = 0
    for n in (9, 51):
        for t in seeded_games(n, rng):
            expected = []
            for i, row in enumerate(t.beats):
                need = [i] + [j for j in range(n) if row[j]]  # k beats i and all i beats
                dominators = [k for k in range(n) if all(t.beats[k][j] for j in need)]
                if dominators:
                    best = max(dominators, key=lambda k: (sum(t.beats[k]), k))
                    expected.append((i, tuple(F(int(j == best)) for j in range(n))))
            assert find_dominated(t, "weak", "mixed") == expected
            hits += len(expected)
    assert hits >= 500  # 608, two of them tied on wins

    # a 9-object strict call is refused before any odd support is searched
    def search(*args):
        raise AssertionError("an odd support was searched")

    monkeypatch.setattr(equilibrium, "_strict_dominating_mixture", search)
    with pytest.raises(ValueError, match="bounded at n <= 8"):
        find_dominated(imbalanced_rps(4), "strict", "mixed")


# The exact LP that find_dominated's mixed mode solved before its closed
# forms, kept as their oracle: vertex enumeration over the other rows' weights.

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


def lp_dominated(t, mode):
    rows = payoff_rows(t)
    mixed = ((i, _mixed_dominator(rows, i, mode)) for i in range(t.n))
    return [(i, w) for i, w in mixed if w is not None]


@pytest.mark.parametrize(
    "mode, labeled_up_to, classes_at, dominated",
    [("weak", 4, (5,), 169), ("strict", 3, (4, 5), 14)],  # strict: one per sink
)
def test_mixed_dominance_matches_the_lp(mode, labeled_up_to, classes_at, dominated):
    games = [t for n in range(1, labeled_up_to + 1) for t in enumerate_tournaments(n)]
    games += [t for n in classes_at for t in enumerate_tournaments(n, up_to_iso=True)]
    hits = 0
    for t in games:
        got = find_dominated(t, mode, "mixed")
        assert got == lp_dominated(t, mode), t.win
        hits += len(got)
    assert hits == dominated


def test_dominated_validation(classic3):
    with pytest.raises(ValueError):
        find_dominated(classic3, "sort-of", "pure")
    with pytest.raises(ValueError):
        find_dominated(classic3, "weak", "telepathy")


def test_weak_domination_excludes_strong_playability():
    for t in enumerate_tournaments(5, up_to_iso=True):
        if find_dominated(t, "weak", "pure"):
            rep = classify_playability(t)
            assert rep.playability is not Playability.STRONGLY_PLAYABLE


# ---------------------------------------------------------------------------
# worst-case equilibria
# ---------------------------------------------------------------------------

def test_worst_case_single_point_both_criteria(classic3):
    p = equilibrium_polytope(payoff_matrix(classic3))
    for criterion in ("min_ties", "max_entropy"):
        v, exact = worst_case_equilibrium(p, criterion)
        assert v == (F(1, 3), F(1, 3), F(1, 3))
        assert exact
    assert sum(x * x for x in p.vertices[0]) == F(1, 3)


def test_worst_case_imbalanced5_ties():
    p = equilibrium_polytope(payoff_matrix(imbalanced_rps(2)))
    v, exact = worst_case_equilibrium(p, "min_ties")
    assert exact and sum(x * x for x in v) == F(7, 27)


def test_worst_case_errors(classic3):
    from tourneylab import from_edge_list

    empty = equilibrium_polytope(payoff_matrix(from_edge_list(2, [(0, 1)])))
    with pytest.raises(ValueError):
        worst_case_equilibrium(empty, "min_ties")
    p = equilibrium_polytope(payoff_matrix(classic3))
    with pytest.raises(ValueError):
        worst_case_equilibrium(p, "median")


# ---------------------------------------------------------------------------
# playable classes by switching
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [3, 5, 7])
def test_playable_classes_match_the_full_build(n):
    forms, auts = _playable_classes(n)
    playable = {
        c: a
        for c, a in zip(_iso_classes(n), _automorphism_counts(n))
        if tournament_equilibrium(tournament_from_canonical(n, c).win) is not None
    }
    assert list(forms) == sorted(forms)
    assert dict(zip(forms, auts)) == playable
    # one playable labeled game per switching class of 2^(n-1) games
    assert sum(math.factorial(n) // a for a in auts) == 2 ** ((n - 1) * (n - 2) // 2)


def one_step_playable_classes(n):
    """Every (n-1)-class plus a source, switched to positive, and every
    candidate canonicalized: the build with no filter, as an oracle."""
    seen = {}
    full = (1 << n) - 1
    for packed in _iso_classes(n - 1):
        win = [*tournament_from_canonical(n - 1, packed).win, full >> 1]
        x = _signed_kernel(win)
        neg = sum(1 << i for i, v in enumerate(x) if v < 0)
        switched = [w ^ (full ^ neg if neg >> i & 1 else neg) for i, w in enumerate(win)]
        assert tournament_equilibrium(switched)
        seen.setdefault(*_canonical_search(switched))
    forms = tuple(sorted(seen))
    return forms, tuple(seen[c] for c in forms)


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_playable_classes_match_the_one_step_build(n):
    assert _playable_classes(n) == one_step_playable_classes(n)


@pytest.mark.parametrize("n, bound", [(7, 27), (9, 1989)])
def test_playable_build_searches_no_class_one_size_smaller(monkeypatch, n, bound):
    # from an empty cache, the build canonicalizes no (n-1)-object game, and at
    # n objects no more candidates than the largest-|x_s| filter alone leaves
    monkeypatch.setattr(tournament, "_ISO_CACHE", {1: ((0,), (1,))})
    searches = Counter()

    def counted(win):
        searches[len(win)] += 1
        return _canonical_search(win)

    monkeypatch.setattr(tournament, "_canonical_search", counted)
    forms, _ = _playable_classes(n)
    assert len(forms) == {7: 12, 9: 792}[n]
    assert searches[n - 1] == 0 and 0 < searches[n] <= bound


@pytest.mark.parametrize("n", [1, 4, 6])
def test_playable_classes_need_odd_n_from_3(n):
    with pytest.raises(ValueError):
        _playable_classes(n)


def rows_dominated(rows, mode):
    """The row-comparison definition of pure dominance, as an oracle:
    (dominated, first dominator) for each dominated row."""
    for i, row_i in enumerate(rows):
        for k, row_k in enumerate(rows):
            if k == i:
                continue
            if mode == "weak":
                hit = row_k != row_i and all(a >= b for a, b in zip(row_k, row_i))
            else:
                hit = all(a > b for a, b in zip(row_k, row_i))
            if hit:
                yield i, k
                break


def test_win_set_dominance_matches_rows_on_every_game_up_to_6_objects():
    for n in range(1, 7):
        for t in enumerate_tournaments(n):
            rows = equilibrium.payoff_rows(t)
            for mode in ("weak", "strict"):
                assert find_dominated(t, mode) == list(rows_dominated(rows, mode))


def seeded_games(n, rng):
    """Random games, random games with a planted sink and source (strict
    dominance), and relabeled transitive games (weak dominance by win sets)."""
    for kind in ["random"] * 10 + ["planted"] * 5 + ["transitive"] * 5:
        rank = rng.sample(range(n), n)
        beats = [[False] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                w = rank[i] > rank[j] if kind == "transitive" else rng.random() < 0.5
                beats[i][j], beats[j][i] = w, not w
        if kind == "planted":
            sink, source = rank[:2]
            for j in range(n):
                if j != sink:
                    beats[sink][j], beats[j][sink] = False, True
            for j in range(n):
                if j != source:
                    beats[source][j], beats[j][source] = True, False
        yield Tournament(n, beats)


def test_win_set_dominance_matches_rows_on_seeded_games():
    rng = random.Random(16)
    hits = {"weak": 0, "strict": 0}
    for n in (7, 9, 11, 15, 21, 31, 51):
        for t in seeded_games(n, rng):
            rows = equilibrium.payoff_rows(t)
            for mode in hits:
                got = find_dominated(t, mode)
                assert got == list(rows_dominated(rows, mode))
                hits[mode] += len(got)
    assert min(hits.values()) >= 35
