import math
from fractions import Fraction

import pytest

from tourneylab import (
    ExtendedSequence,
    ExtendedVerdict,
    Majorization,
    Playability,
    Tournament,
    classify_playability,
    enumerate_tournaments,
    extended_weak_majorizes,
    imbalance_report,
    majorizes,
    nash_entropy,
    nash_ties,
    ui_entropy,
    ui_theil,
    ui_variance,
    uniform_profile,
)
from tourneylab.construct import imbalanced_equilibrium_closed_form, imbalanced_rps

F = Fraction


# ---------------------------------------------------------------------------
# uniform payoff profile
# ---------------------------------------------------------------------------

def test_profile_classic(classic3):
    p = uniform_profile(classic3)
    assert p.payoffs == (F(0), F(0), F(0))
    assert p.score_distribution == {F(0): F(1)}


def test_profile_imbalanced5():
    p = uniform_profile(imbalanced_rps(2))
    # order r1, p1, r2, p2, s
    assert p.payoffs == (F(1, 2), F(-1, 2), F(0), F(0), F(0))
    assert p.score_distribution == {
        F(-1, 2): F(1, 5),
        F(0): F(3, 5),
        F(1, 2): F(1, 5),
    }


def test_profile_transitive(transitive3):
    assert uniform_profile(transitive3).payoffs == (F(1), F(0), F(-1))


def test_profile_mean_zero_everywhere():
    for t in enumerate_tournaments(5, up_to_iso=True):
        p = uniform_profile(t)
        assert sum(p.payoffs) == 0
        assert sum(p.score_distribution.values()) == 1


def test_profile_rejects_single_vertex():
    with pytest.raises(ValueError):
        uniform_profile(Tournament(1, [[False]]))


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def test_ui_variance_values(classic3, transitive3):
    assert ui_variance(uniform_profile(classic3)) == 0
    assert ui_variance(uniform_profile(imbalanced_rps(2))) == F(1, 10)
    assert ui_variance(uniform_profile(transitive3)) == F(2, 3)


def test_ui_entropy_values(classic3):
    assert ui_entropy(uniform_profile(classic3)) == 0.0
    got = ui_entropy(uniform_profile(imbalanced_rps(2)))
    assert abs(got - (math.log(5) - F(3, 5) * math.log(3))) < 1e-12
    assert abs(got - 0.950) < 1e-3


def test_ui_entropy_closed_form_small_n():
    for n in range(1, 7):
        got = ui_entropy(uniform_profile(imbalanced_rps(n)))
        want = math.log(2 * n + 1) - 3 / (2 * n + 1) * math.log(3)
        assert abs(got - want) < 1e-12


def test_ui_theil_balanced_is_zero(classic3):
    for alpha in (F(1, 4), F(1, 2), F(3, 4)):
        assert ui_theil(uniform_profile(classic3), alpha) == 0.0


def test_ui_theil_imbalanced5():
    # c1 = 1: normalized payoffs (3/2, 1/2, 1, 1, 1)
    got = ui_theil(uniform_profile(imbalanced_rps(2)), F(1, 2))
    want = (1.5 * math.log(1.5) + 0.5 * math.log(0.5)) / 5
    assert abs(got - want) < 1e-12


def test_ui_theil_transitive(transitive3):
    # normalized payoffs (3/2, 1, 1/2)
    got = ui_theil(uniform_profile(transitive3), F(1, 2))
    want = (1.5 * math.log(1.5) + 0.5 * math.log(0.5)) / 3
    assert abs(got - want) < 1e-12


def test_ui_theil_alpha_validation(classic3):
    p = uniform_profile(classic3)
    for bad in (F(0), F(1), F(-1, 2), F(3, 2)):
        with pytest.raises(ValueError):
            ui_theil(p, bad)


def test_nash_ties_values():
    assert nash_ties((F(1, 3),) * 3) == F(1, 3)
    assert nash_ties(imbalanced_equilibrium_closed_form(2)) == F(7, 27)
    assert nash_ties(imbalanced_equilibrium_closed_form(3)) == F(61, 243)
    # closed form 1/4 + (3/4) / 9**n
    for n in range(1, 6):
        assert nash_ties(imbalanced_equilibrium_closed_form(n)) == F(1, 4) + F(3, 4) / 9**n
    assert nash_ties((F(1, 2), F(1, 2)), m=3) == F(1, 4)
    with pytest.raises(ValueError):
        nash_ties((F(1),), m=1)


def test_nash_ties_uniform_is_minimal():
    for t in enumerate_tournaments(5, up_to_iso=True):
        rep = classify_playability(t)
        if rep.equilibrium is not None:
            n = t.n
            ties = nash_ties(rep.equilibrium)
            assert ties >= F(1, n)
            uniform = all(x == F(1, n) for x in rep.equilibrium)
            assert (ties == F(1, n)) == uniform


def test_nash_entropy_values():
    assert abs(nash_entropy((F(1, 5),) * 5) - math.log(5)) < 1e-12
    assert nash_entropy((F(1), F(0), F(0))) == 0.0
    got = nash_entropy(imbalanced_equilibrium_closed_form(2))
    assert abs(got - 4 / 3 * math.log(3)) < 1e-12
    with pytest.raises(ValueError):
        nash_entropy((-0.25, 1.25))


# ---------------------------------------------------------------------------
# majorization
# ---------------------------------------------------------------------------

def test_majorizes_cases():
    assert majorizes([3, 2, 2, 2, 1], [2, 2, 2, 2, 2]) is Majorization.STRICT
    assert majorizes([1, 2, 3], [3, 2, 1]) is Majorization.EQUAL
    assert majorizes([2, 0], [1, 1]) is Majorization.STRICT
    assert majorizes([1, 1], [2, 0]) is Majorization.NO
    assert majorizes([1, 1], [1, 2]) is Majorization.NO  # sums differ
    # crossing prefix sums: incomparable
    assert majorizes([3, 3, 0, 0], [4, 1, 1, 0]) is Majorization.NO
    with pytest.raises(ValueError):
        majorizes([1, 2], [1, 2, 3])


def test_majorizes_matches_prefix_sum_definition():
    import itertools
    import random

    def expected(x, y):
        px = list(itertools.accumulate(sorted(x, reverse=True)))
        py = list(itertools.accumulate(sorted(y, reverse=True)))
        if sorted(x) == sorted(y):
            return Majorization.EQUAL
        if px[-1] == py[-1] and all(a >= b for a, b in zip(px, py)):
            return Majorization.STRICT
        return Majorization.NO

    rng = random.Random(3)
    seen = set()
    for _ in range(200):
        x = [rng.randrange(0, 5) for _ in range(4)]
        y = [rng.randrange(0, 5) for _ in range(4)]
        # the reversed copy of x is a permutation, so it reaches EQUAL
        for a, b in ((x, y), (x, x[::-1])):
            verdict = expected(a, b)
            assert majorizes(a, b) is verdict
            seen.add(verdict)
    assert seen == set(Majorization)


def test_extended_clause_one_decides_on_infinite_counts():
    x = ExtendedSequence([F(-1), F(-1), F(-2), F(-2), F(-3)], minus_inf_count=0)
    y = ExtendedSequence([F(-1), F(-2)], minus_inf_count=1)
    assert extended_weak_majorizes(x, y).verdict is ExtendedVerdict.YES
    assert extended_weak_majorizes(y, x).verdict is ExtendedVerdict.NO


def test_extended_equal_sequences_yes():
    x = ExtendedSequence([F(3), F(2), F(1)])
    got = extended_weak_majorizes(x, x)
    assert got.verdict is ExtendedVerdict.YES
    assert got.horizon == 3


def test_extended_prefix_sum_comparison():
    x = ExtendedSequence([F(5), F(1), F(1), F(1)])
    y = ExtendedSequence([F(4), F(2), F(1), F(1)])
    # prefixes 5>=4, 6>=6, 7>=7, 8>=8
    assert extended_weak_majorizes(x, y).verdict is ExtendedVerdict.YES
    # fails at k=1..3 (4<5, 8<9, 12<13) but the horizon itself passes (16=16)
    x2 = ExtendedSequence([F(4), F(4), F(4), F(4)])
    y2 = ExtendedSequence([F(5), F(4), F(4), F(3)])
    got2 = extended_weak_majorizes(x2, y2)
    assert got2.verdict is ExtendedVerdict.YES_IN_LIMIT
    assert got2.witnessed_k0 == 3


def test_extended_incomparable_at_horizon():
    x = ExtendedSequence([F(1), F(1)])
    y = ExtendedSequence([F(2), F(1)])
    got = extended_weak_majorizes(x, y)
    assert got.verdict is ExtendedVerdict.INCOMPARABLE
    assert got.horizon == 2


def test_extended_after_window():
    x = ExtendedSequence([F(4), F(4), F(4), F(4)])
    y = ExtendedSequence([F(5), F(4), F(3), F(3)])
    # descending prefixes: 4<5 and 8<9 fail, then 12>=12 and 16>=15 pass
    got = extended_weak_majorizes(x, y)
    assert got.verdict is ExtendedVerdict.YES_IN_LIMIT and got.witnessed_k0 == 2
    # examining only k > 2 certifies the tail outright
    got = extended_weak_majorizes(x, y, after=2)
    assert got.verdict is ExtendedVerdict.YES


def test_extended_errors():
    x = ExtendedSequence([F(1)])
    with pytest.raises(ValueError, match="too short"):
        extended_weak_majorizes(ExtendedSequence([]), ExtendedSequence([]))
    with pytest.raises(ValueError, match="too short"):
        extended_weak_majorizes(x, x, after=1)
    with pytest.raises(ValueError):
        ExtendedSequence([], minus_inf_count=-1)


def test_nrps_negated_e_min_prefix_matches_spec_convention():
    from tourneylab import nrps_closed_forms

    _, e_min = nrps_closed_forms(5)
    negated = ExtendedSequence([-F(v) for v in e_min])
    assert negated.finite_entries == (F(-1), F(-1), F(-2), F(-2), F(-3))
    balanced_like = ExtendedSequence([F(-1), F(-2), F(-2)], minus_inf_count=1)
    assert (
        extended_weak_majorizes(negated, balanced_like).verdict is ExtendedVerdict.YES
    )


# ---------------------------------------------------------------------------
# Schur consistency and report assembly
# ---------------------------------------------------------------------------

def _playable_stats(n):
    out = []
    for t in enumerate_tournaments(n, up_to_iso=True):
        rep = classify_playability(t)
        if rep.playability is Playability.STRONGLY_PLAYABLE:
            wins = sorted(
                (sum(row) for row in t.beats), reverse=True
            )
            out.append((t, wins, rep.equilibrium))
    return out


def test_schur_consistency_over_playable_5():
    stats = _playable_stats(5)
    assert len(stats) == 2
    for (t1, w1, v1) in stats:
        for (t2, w2, v2) in stats:
            if t1 is t2:
                continue
            if majorizes(w1, w2) is Majorization.STRICT:
                assert ui_variance(uniform_profile(t1)) > ui_variance(uniform_profile(t2))
                for alpha in (F(1, 4), F(1, 2), F(3, 4)):
                    assert ui_theil(uniform_profile(t1), alpha) >= ui_theil(
                        uniform_profile(t2), alpha
                    ) - 1e-15
            if majorizes(v1, v2) is Majorization.STRICT:
                assert nash_ties(v1) > nash_ties(v2)
                assert nash_entropy(v1) <= nash_entropy(v2) + 1e-12


def test_statistics_invariant_under_relabeling():
    import random

    rng = random.Random(21)
    t = imbalanced_rps(2)
    base = imbalance_report(t)
    perm = list(range(t.n))
    rng.shuffle(perm)
    beats = [[t.beats[perm[i]][perm[j]] for j in range(t.n)] for i in range(t.n)]
    shuffled = imbalance_report(Tournament(t.n, beats))
    assert shuffled.ui_v == base.ui_v
    assert abs(shuffled.ui_e - base.ui_e) < 1e-12
    assert abs(shuffled.ui_theil - base.ui_theil) < 1e-12
    assert shuffled.n_t == base.n_t
    assert shuffled.sorted_e_in == base.sorted_e_in
    assert shuffled.sorted_equilibrium_probs == base.sorted_equilibrium_probs


def test_imbalance_report_playable():
    rep = imbalance_report(imbalanced_rps(2))
    assert rep.ui_v == F(1, 10)
    assert rep.n_t == F(7, 27)
    assert rep.sorted_e_in == (3, 2, 2, 2, 1)
    assert rep.sorted_equilibrium_probs == (
        F(1, 3),
        F(1, 3),
        F(1, 9),
        F(1, 9),
        F(1, 9),
    )
    assert abs(rep.n_e - 4 / 3 * math.log(3)) < 1e-10
    assert rep.n_t >= F(1, 5)


def test_imbalance_report_unplayable(transitive5):
    rep = imbalance_report(transitive5)
    assert rep.n_t is None and rep.n_e is None
    assert rep.sorted_equilibrium_probs is None
    assert rep.ui_v > 0


# ---------------------------------------------------------------------------
# integer numerators against the plain Fraction definitions
# ---------------------------------------------------------------------------

def fraction_profile(t):
    payoffs = [F(2 * sum(row) - (t.n - 1), t.n - 1) for row in t.beats]
    hist = {}
    for p in payoffs:
        hist[p] = hist.get(p, F(0)) + F(1, t.n)
    return tuple(payoffs), dict(sorted(hist.items()))


def fraction_theil(payoffs, alpha):
    c1 = (alpha - 1) / min(payoffs)
    total = 0.0
    for x in payoffs:
        z = float(c1 * x + 1)
        if z > 0:
            total += z * math.log(z)
    return total / len(payoffs)


def test_statistics_match_fraction_definitions_on_seeded_games():
    import random

    from tourneylab.equilibrium import tournament_equilibrium
    from tourneylab.tournament import tournament_from_canonical

    rng = random.Random(16)
    games = [
        tournament_from_canonical(n, rng.getrandbits(n * (n - 1) // 2))
        for n in (2, 3, 4, 5, 7, 8, 11, 16, 21, 33, 51)
        for _ in range(4)
    ]
    games += [imbalanced_rps(k) for k in (1, 2, 4, 9, 25)]
    for t in games:
        p = uniform_profile(t)
        payoffs, hist = fraction_profile(t)
        assert p.payoffs == payoffs and p.score_distribution == hist
        assert list(p.score_distribution) == list(hist)
        assert ui_variance(p) == sum(x * x for x in payoffs) / t.n
        if min(payoffs) < 0:
            for alpha in (F(1, 2), F(1, 3), F(7, 10), F(99, 100)):
                assert ui_theil(p, alpha) == fraction_theil(payoffs, alpha)
    vectors = [tournament_equilibrium(t.win) for t in games]
    vectors = [v for v in vectors if v is not None]
    vectors += [[F(rng.randint(1, 10**6), rng.randint(1, 10**6)) for _ in range(9)]]
    assert len(vectors) >= 6
    for v in vectors:
        for m in range(2, 6):
            assert nash_ties(v, m) == sum(x**m for x in v)
