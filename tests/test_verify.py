import itertools
import json
import math
import multiprocessing
import os
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tourneylab import (
    BudgetExceededError,
    ExtendedSequence,
    GuardBandError,
    Majorization,
    Playability,
    blow_up,
    blow_up_equilibrium,
    canonical_form,
    classify_playability,
    compare_entropies,
    equilibrium_polytope,
    extended_weak_majorizes,
    from_edge_list,
    imbalance_report,
    imbalanced_equilibrium_closed_form,
    imbalanced_rps,
    is_strong,
    k_minimizing_check,
    landau_bound_check,
    majorizes,
    payoff_matrix,
    verify_even_unplayable,
    verify_structural_lemmas,
    verify_theorem,
)
from conftest import rewrite_class_list
from tourneylab import equilibrium, tournament, verify
from tourneylab.equilibrium import (
    _playable_classes,
    packed_payoff_rows,
    tournament_equilibrium,
)
from tourneylab.imbalance import (
    compare_prefix_sums,
    descending_prefix_sums,
    nash_ties,
    ui_variance,
    uniform_profile,
)
from tourneylab.tournament import _iso_classes, _k_limit, degree_profile, tournament_from_canonical
from tourneylab.verify import (
    FLOAT_ENTROPY_SEPARATION,
    EvenOrderResult,
    EvenUnplayabilityReport,
    StructuralLemmasReport,
    _entropy_float,
    _even_checks,
    _schur_violations,
    _worker_count,
)

F = Fraction


def test_theorem_n1_trivial():
    rep = verify_theorem(1)
    assert rep.class_count == 2
    assert rep.playable_count == 1
    assert rep.ok


def test_theorem_n2_golden():
    rep = verify_theorem(2)
    assert rep.ok
    assert rep.class_count == 12
    assert rep.playable_count == 2
    assert rep.champion_canonical == rep.construction_canonical
    assert rep.construction_canonical == canonical_form(imbalanced_rps(2))
    stats = {s.name: s for s in rep.statistics}
    assert stats["ui_variance"].construction_value == "1/10"
    assert stats["ui_variance"].unique
    assert stats["nash_ties"].construction_value == "7/27"
    assert stats["nash_ties"].unique
    assert rep.e_in_majorization.strict == 1
    assert rep.equilibrium_majorization.strict == 1
    assert rep.schur_violations == 0


def test_entropy_flags_from_one_sign_per_competitor(monkeypatch):
    # an entropy tie with every competitor: both extremes attained, neither unique
    calls = []

    def tie(x, y):
        calls.append((x, y))
        return 0

    monkeypatch.setattr(verify, "compare_entropies", tie)
    rep = verify_theorem(2)
    stats = {s.name: s for s in rep.statistics}
    for name in ("ui_entropy", "nash_entropy"):
        assert stats[name].attained and not stats[name].unique
    assert len(calls) == 2 * (rep.playable_count - 1)


def test_schur_count_is_every_strict_pair_under_constant_statistics(monkeypatch):
    # with the variance and the ties held constant, every ordered pair of
    # playable classes whose wins or equilibria strictly majorize is a violation
    class_stats = verify._class_stats
    monkeypatch.setattr(
        verify, "_class_stats", lambda args: class_stats(args)._replace(ui_sq=0, kernel_sq=0)
    )
    playable = []
    for packed in _iso_classes(7):
        t = tournament_from_canonical(7, packed)
        eq = tournament_equilibrium(t.win)
        if eq is not None:
            wins = sorted(degree_profile(t).e_in)
            playable.append((wins, eq))
    strict_wins, strict_eq = (
        sum(majorizes(a[i], b[i]) is Majorization.STRICT for a in playable for b in playable)
        for i in (0, 1)
    )
    assert strict_wins > 0 and strict_eq > 0
    assert verify_theorem(3).schur_violations == strict_wins + strict_eq


@pytest.mark.parametrize("objects", [7, 9])
def test_class_stats_match_the_fraction_statistics(objects):
    # the integer record, over its denominators (n - 1)^2 n, T^2, n and T, gives
    # exactly the statistics of the Fraction equilibrium and the uniform payoffs
    for packed, aut in zip(*_playable_classes(objects)):
        t = tournament_from_canonical(objects, packed)
        eq = tournament_equilibrium(t.win)
        profile = uniform_profile(t)
        got = verify._class_stats((objects, packed, aut))
        ints = [got.ui_sq, got.kernel_sq, *got.wins_prefix, *got.score_counts, *got.kernel_prefix]
        assert all(type(v) is int for v in ints)
        total = got.kernel_prefix[-1]
        assert got.packed == packed
        assert got.wins_prefix == descending_prefix_sums(degree_profile(t).e_in)
        assert F(got.ui_sq, (objects - 1) ** 2 * objects) == ui_variance(profile)
        assert F(got.kernel_sq, total**2) == nash_ties(eq)
        assert [F(c, objects) for c in got.score_counts] == list(profile.score_distribution.values())
        assert tuple(F(p, total) for p in got.kernel_prefix) == descending_prefix_sums(eq)
        assert math.gcd(*got.kernel_prefix) == 1  # one record per equilibrium


def forbid_class_builds(monkeypatch):
    # start from an empty class cache, and fail any class build or playable
    # stream, wherever it is called from
    monkeypatch.setattr(tournament, "_ISO_CACHE", {1: ((0,), (1,))})

    def refuse(*args, **kwargs):
        raise AssertionError("a class build ran")

    for module in (tournament, equilibrium):
        monkeypatch.setattr(module, "_extended_classes", refuse)
    for module in (equilibrium, verify):
        monkeypatch.setattr(module, "_playable_classes", refuse, raising=False)


def test_theorem_builds_no_class_of_its_own_size(monkeypatch):
    # the 7-object run reads the shipped playable list and re-checks each
    # class: no class of any size is built
    forbid_class_builds(monkeypatch)
    rep = verify_theorem(3)
    assert (rep.class_count, rep.playable_count) == (456, 12)
    assert tournament._ISO_CACHE == {1: ((0,), (1,))}


def test_even_builds_no_class_of_its_own_size(monkeypatch):
    forbid_class_builds(monkeypatch)
    assert verify_even_unplayable(6).ok
    assert tournament._ISO_CACHE == {1: ((0,), (1,))}


def test_theorem_reports_are_deterministic():
    a = verify_theorem(2)
    b = verify_theorem(2)
    assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())
    assert a.to_markdown() == b.to_markdown()


def test_theorem_jobs_parallel_matches_serial():
    serial = verify_theorem(2, jobs=1)
    parallel = verify_theorem(2, jobs=2)
    assert serial.to_json_dict() == parallel.to_json_dict()


def test_nine_object_equilibrium_majorization_witness():
    # a playable 9-object class whose equilibrium sequence the construction's
    # does not majorize: assertion (d) fails at 9 objects as it does at 7
    t = tournament_from_canonical(9, 281350272)
    assert canonical_form(t) == 281350272
    eq = tournament_equilibrium(t.win)
    assert eq is not None and all(x > 0 for x in eq)
    seq = tuple(sorted(eq, reverse=True))
    assert seq == (
        F(1, 3), F(1, 3), F(3, 35), F(1, 15), F(1, 15), F(1, 21), F(1, 21), F(1, 105), F(1, 105)
    )
    cons = imbalanced_equilibrium_closed_form(4)
    assert majorizes(sorted(cons, reverse=True), seq) is Majorization.NO


def test_equilibrium_majorization_fails_at_every_odd_size_by_blow_up():
    # blow the construction's s up by the 7-object witness: the equilibrium is
    # the construction's first 2k entries then the witness's scaled by 3^-k,
    # and the (2k+7)-object construction's sequence does not majorize it
    witness = tournament_from_canonical(7, 103560)
    w_eq = tournament_equilibrium(witness.win)
    for k in range(1, 23):
        t = blow_up(imbalanced_rps(k), "s", witness)
        eq = tournament_equilibrium(t.win)
        assert eq == blow_up_equilibrium(imbalanced_equilibrium_closed_form(k), 2 * k, w_eq)
        assert all(x > 0 for x in eq)
        assert majorizes(imbalanced_equilibrium_closed_form(k + 3), eq) is Majorization.NO
        if k == 1:
            assert canonical_form(t) == 281350272


def test_theorem_out_of_range():
    with pytest.raises(ValueError):
        verify_theorem(5)
    with pytest.raises(ValueError):
        verify_theorem(0)


def test_jobs_rejected_below_one_and_capped(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for jobs in (0, -2):
        with pytest.raises(ValueError, match="at least 1"):
            _worker_count(jobs)
        for verify in (verify_theorem, verify_even_unplayable, verify_structural_lemmas):
            with pytest.raises(ValueError, match="at least 1"):
                verify(3, jobs=jobs)
    assert _worker_count(1) == 1
    assert _worker_count(64) == 2
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _worker_count(8) == 1


def test_theorem_budget_zero_trips():
    with pytest.raises(BudgetExceededError):
        verify_theorem(3, budget_secs=0.0)


def test_even_unplayable_small():
    rep = verify_even_unplayable(4)
    assert rep.ok
    assert [r.n for r in rep.results] == [2, 4]
    assert [r.tournament_count for r in rep.results] == [2, 64]
    assert all(not r.failures for r in rep.results)


def brute_even_report(max_n: int) -> EvenUnplayabilityReport:
    """The labeled sweep: verify._even_checks on every labeled even game."""
    results = []
    for n in range(2, max_n + 1, 2):
        total = 1 << (n * (n - 1) // 2)
        checked = [(m, verify._even_checks(packed_payoff_rows(n, m))) for m in range(total)]
        failed = [(m, c) for m, c in checked if not all(c)]
        results.append(
            EvenOrderResult(
                n=n,
                tournament_count=total,
                all_polytopes_empty=all(c[0] for _, c in failed),
                all_determinants_odd_squares=all(c[1] for _, c in failed),
                all_pfaffians_odd=all(c[2] for _, c in failed),
                failures=tuple(m for m, _ in failed),
            )
        )
    return EvenUnplayabilityReport(max_n=max_n, results=tuple(results))


@pytest.mark.parametrize("max_n", [4, 6])
def test_even_classes_match_labeled_sweep(max_n):
    assert verify_even_unplayable(max_n).to_json_dict() == brute_even_report(max_n).to_json_dict()


def test_even_unplayable_eight_objects():
    rep = verify_even_unplayable(8)
    assert rep.ok
    assert {r.n: r.tournament_count for r in rep.results} == {
        2: 2, 4: 64, 6: 32768, 8: 268435456
    }
    assert all(not r.failures for r in rep.results)


def test_even_unplayable_bound_and_jobs():
    with pytest.raises(ValueError):
        verify_even_unplayable(10)
    serial = verify_even_unplayable(4, jobs=1)
    parallel = verify_even_unplayable(4, jobs=2)
    assert serial.to_json_dict() == parallel.to_json_dict()


def test_even_sweep_starts_one_pool_for_every_order(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    started = []
    real = multiprocessing.Pool

    def counting_pool(*args, **kwargs):
        started.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(multiprocessing, "Pool", counting_pool)
    parallel = verify_even_unplayable(6, jobs=2)
    assert parallel.to_json_dict() == verify_even_unplayable(6, jobs=1).to_json_dict()
    assert started == [{"processes": 2}]  # one for 2, 4 and 6 objects; none serial


def test_structural_n5_counts():
    rep = verify_structural_lemmas(5)
    assert rep.ok
    assert rep.class_count == 12
    assert rep.playable_count == 2
    assert rep.strong_count == 6
    assert rep.strong_but_unplayable_count == 4
    assert not rep.landau_failures
    assert not rep.k_minimizing_failures
    assert not rep.max_probability_failures
    assert not rep.contrapositive_failures


def brute_structural_report(n: int) -> StructuralLemmasReport:
    """The structural report from the full class build: every class checked
    for playability and strongness, and the playable ones for each condition."""
    classes = []
    for c in _iso_classes(n):
        t = tournament_from_canonical(n, c)
        classes.append((c, t, tournament_equilibrium(t.win)))
    playable = [(c, t, eq) for c, t, eq in classes if eq is not None]
    strong_unplayable = [c for c, t, eq in classes if eq is None and is_strong(t)]
    return StructuralLemmasReport(
        n=n,
        class_count=len(classes),
        playable_count=len(playable),
        strong_count=sum(is_strong(t) for _, t, _ in classes),
        strong_but_unplayable_count=len(strong_unplayable),
        strong_but_unplayable_examples=tuple(strong_unplayable[:5]),
        landau_failures=tuple(c for c, t, _ in playable if not landau_bound_check(t)),
        k_minimizing_failures=tuple(
            c for c, t, _ in playable
            if not all(k_minimizing_check(t, k) for k in range(1, _k_limit(n) + 1))
        ),
        max_probability_failures=tuple(c for c, _, eq in playable if max(eq) > F(1, 3)),
    )


@pytest.mark.parametrize("n", [3, 5, 7])
def test_structural_matches_the_full_class_build(n):
    assert verify_structural_lemmas(n).to_json_dict() == brute_structural_report(n).to_json_dict()


def test_structural_builds_no_class_of_its_own_size(monkeypatch):
    # the 7-object run reads the shipped playable list; its counts of all and
    # of strong classes come from formulas, so no class of any size is built
    forbid_class_builds(monkeypatch)
    rep = verify_structural_lemmas(7)
    assert (rep.class_count, rep.playable_count, rep.strong_count) == (456, 12, 353)
    assert tournament._ISO_CACHE == {1: ((0,), (1,))}


def test_strong_unplayable_scan_stops_at_the_last_mask():
    # 5 objects have exactly 4 strong unplayable classes: asking for a fifth
    # scans every mask and raises instead of looping
    assert verify._strong_unplayable_examples(5, 4) == (64, 66, 72, 81)
    with pytest.raises(RuntimeError, match="found 4 strong unplayable 5-object classes, not 5"):
        verify._strong_unplayable_examples(5, 5)


def test_structural_failure_lists(monkeypatch):
    # fake checks that fail on chosen playable 7-object classes, and record
    # which classes they are asked about
    playable = [
        c for c in _iso_classes(7)
        if tournament_equilibrium(tournament_from_canonical(7, c).win) is not None
    ]
    landau_bad, kmin_bad = set(playable[:2]), set(playable[1:3])
    asked = {"landau": set(), "kmin": set()}

    def landau(t):
        asked["landau"].add(canonical_form(t))
        return canonical_form(t) not in landau_bad

    def kmin_sweep(t):
        asked["kmin"].add(canonical_form(t))
        return [canonical_form(t) not in kmin_bad]

    monkeypatch.setattr(verify, "landau_bound_check", landau)
    monkeypatch.setattr(verify, "_k_minimizing_sweep", kmin_sweep)
    rep = verify_structural_lemmas(7, jobs=1)
    assert not rep.ok
    assert rep.playable_count == len(playable) == 12
    assert rep.landau_failures == tuple(playable[:2])
    assert rep.k_minimizing_failures == tuple(playable[1:3])
    assert rep.max_probability_failures == ()
    assert rep.contrapositive_failures == rep.k_minimizing_failures
    doc = rep.to_json_dict()
    assert doc["ok"] is False
    assert doc["contrapositive_failures"] == doc["k_minimizing_failures"] == playable[1:3]
    assert "contrapositive failures: 2" in rep.to_markdown()
    # unplayable classes never reach the degree-prefix or k-minimizing checks
    assert asked == {"landau": set(playable), "kmin": set(playable)}


def test_structural_cap_reads_the_integer_kernel(monkeypatch):
    # the 1/3 cap fails iff 3 max|x| > sum|x|: the 5-object construction,
    # (1/3, 1/3, 1/9, 1/9, 1/9), sits on the boundary and passes
    item = (5, *tournament._canonical_search(imbalanced_rps(2).win))
    assert verify._structural_stats(item)[3]
    for kernel, capped in (([4, 2, 1, 1, 1], False), ([-3, -3, -1, -1, -1], True)):
        monkeypatch.setattr(verify, "_signed_kernel", lambda win: kernel)
        assert verify._structural_stats(item)[3] is capped


def test_structural_n3_trivial():
    rep = verify_structural_lemmas(3)
    assert rep.ok and rep.playable_count == 1 and rep.class_count == 2


def test_structural_validation():
    with pytest.raises(ValueError):
        verify_structural_lemmas(1)
    with pytest.raises(ValueError):
        verify_structural_lemmas(4)
    with pytest.raises(ValueError):
        verify_structural_lemmas(11)


@pytest.mark.parametrize(
    "run",
    [
        lambda: verify_theorem(2),
        lambda: verify_structural_lemmas(5),
        lambda: verify_even_unplayable(4),
    ],
    ids=["theorem", "structural", "even"],
)
def test_class_runs_refuse_an_incomplete_enumeration(class_dir, run):
    # one class's |Aut T| doubled in the copied all-class and playable lists:
    # its orbit weight halves and the sum falls short
    for path in class_dir.iterdir():
        rewrite_class_list(path, lambda forms, auts: (forms, [2 * auts[0], *auts[1:]]))
    with pytest.raises(ValueError, match=r"class list .*_n\d\.bin: orbit weights n!/\|Aut T\| sum to"):
        run()


def test_reports_render():
    rep = verify_theorem(2)
    md = rep.to_markdown()
    assert "PASS" in md and "ui_variance" in md
    even = verify_even_unplayable(2)
    assert "PASS" in even.to_markdown()
    struct = verify_structural_lemmas(3)
    assert "PASS" in struct.to_markdown()
    # all reports JSON-serialize
    for r in (rep, even, struct):
        json.dumps(r.to_json_dict())


def test_every_record_is_immutable():
    # one record of each type, as the library builds it: assigning a field or a
    # new attribute raises AttributeError
    playable = imbalanced_rps(2)
    unplayable = from_edge_list(3, [(0, 1), (1, 2), (0, 2)])
    reports = classify_playability(playable), classify_playability(unplayable)
    assert [r.playability for r in reports] == [Playability.STRONGLY_PLAYABLE, Playability.UNPLAYABLE]
    seq = ExtendedSequence([F(1)])
    theorem = verify_theorem(2)
    even = verify_even_unplayable(2)
    records = [
        degree_profile(playable),
        *reports,
        equilibrium_polytope(payoff_matrix(playable)),
        uniform_profile(playable),
        seq,
        extended_weak_majorizes(seq, seq),
        imbalance_report(playable),
        verify._class_stats((5, *tournament._canonical_search(playable.win))),
        theorem,
        theorem.statistics[0],
        theorem.e_in_majorization,
        even,
        even.results[0],
        verify_structural_lemmas(3),
    ]
    assert len({type(r) for r in records}) == 14
    for record in records:
        for name in (*record._fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)


def test_compare_entropies_identical_and_separated():
    assert compare_entropies([F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]) == 0
    # permutation of the same multiset is exact equality
    assert compare_entropies([F(1, 4), F(3, 4)], [F(3, 4), F(1, 4)]) == 0
    assert compare_entropies([F(1, 2), F(1, 2)], [F(9, 10), F(1, 10)]) == 1
    assert compare_entropies([F(9, 10), F(1, 10)], [F(1, 2), F(1, 2)]) == -1


def test_compare_entropies_guard_band_escalates():
    # distinct multisets with exactly equal entropy (both 2 ln 2)
    x = [F(1, 4)] * 4
    y = [F(1, 2), F(1, 8), F(1, 8), F(1, 8), F(1, 8)]
    with pytest.raises(GuardBandError):
        compare_entropies(x, y)


def _entropy_100_digits(masses) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = 100
        return -sum((Decimal(m.numerator) / m.denominator).ln() * m.numerator / m.denominator
                    for m in masses if m > 0)


_weight_lists = st.lists(st.integers(0, 1000), min_size=2, max_size=15).filter(any)
_mass_lists = _weight_lists.map(lambda w: [F(x, sum(w)) for x in w])


@settings(max_examples=300, deadline=None)
@given(_mass_lists, _mass_lists)
def test_compare_entropies_float_sign_matches_exact(x, y):
    if sorted(x) == sorted(y):
        assert compare_entropies(x, y) == 0
        return
    exact = _entropy_100_digits(x) - _entropy_100_digits(y)
    if abs(_entropy_float(x) - _entropy_float(y)) > FLOAT_ENTROPY_SEPARATION:
        assert compare_entropies(x, y) == (1 if exact > 0 else -1)


def _guarded(compare, x, y):
    try:
        return compare(x, y)
    except GuardBandError:
        return "guard band"


@settings(max_examples=200, deadline=None)
@given(_weight_lists, _mass_lists, st.integers(1, 7))
def test_compare_entropies_integer_weights_stand_for_their_masses(w, y, k):
    # weights w, under any total k * sum(w), give the masses w / sum(w): the
    # same floats, the same 256-bit sums and the same verdicts
    masses = [F(v, sum(w)) for v in w]
    scaled = [k * v for v in w]
    assert _entropy_float(scaled) == _entropy_float(masses)
    assert verify._entropy_bits(scaled) == verify._entropy_bits(masses)
    assert _guarded(compare_entropies, scaled, w) == 0
    assert _guarded(compare_entropies, scaled, y) == _guarded(compare_entropies, masses, y)
    assert _guarded(compare_entropies, y, scaled) == _guarded(compare_entropies, y, masses)


@pytest.mark.parametrize("e", [F(1, 10**7), F(1, 10**13)], ids=["gap-6e-14", "gap-6e-26"])
def test_compare_entropies_near_tie_takes_the_exact_path(monkeypatch, e):
    # H(1/2 + e, 1/2 - e) = ln 2 - 2e^2 - ..., so these differ by about 6e^2
    x, y = [F(1, 2) + e, F(1, 2) - e], [F(1, 2) + 2 * e, F(1, 2) - 2 * e]
    assert 5 * e**2 < _entropy_100_digits(x) - _entropy_100_digits(y) < 7 * e**2
    exact_calls = []
    real = verify._entropy_bits

    def counting(masses):
        exact_calls.append(masses)
        return real(masses)

    monkeypatch.setattr(verify, "_entropy_bits", counting)
    assert compare_entropies(x, y) == 1
    assert compare_entropies(y, x) == -1
    assert exact_calls == [x, y, y, x]
    # a separated pair never reaches the exact path
    assert compare_entropies([F(1, 2), F(1, 2)], [F(9, 10), F(1, 10)]) == 1
    assert len(exact_calls) == 4


def _brute_schur(keys):
    """The pairwise Schur loop over every ordered pair, on the Fraction values
    of the keys: sequence p / p[-1] and statistic s / p[-1]^2."""
    strict = Majorization.STRICT
    values = [(tuple(F(x, p[-1]) for x in p), F(s, p[-1] ** 2)) for p, s in keys]
    return sum(
        1 for pa, va in values for pb, vb in values
        if compare_prefix_sums(pa, pb) is strict and not va > vb
    )


def test_schur_violations_by_group_match_every_pair():
    # descending sequences of 4 entries that sum to 6, with repeats, each under
    # a kernel total of 6, 12 or 18, so one sequence can come in several keys
    seqs = [s for s in itertools.product(range(7), repeat=4)
            if sum(s) == 6 and list(s) == sorted(s, reverse=True)]
    rng = random.Random(15)
    for _ in range(40):
        keys = []
        for _ in range(rng.randint(1, 30)):
            seq, scale = rng.choice(seqs), rng.randint(1, 3)
            prefix = tuple(scale * sum(seq[: i + 1]) for i in range(4))
            keys.append((prefix, scale * scale * rng.randint(0, 3)))
        polls = []
        got = _schur_violations(keys, polls.append, "Schur pass over test")
        assert got == _brute_schur(keys)
        groups = len(set(keys))
        assert polls == [f"Schur pass over test: {k}/{groups} groups" for k in range(groups)]


def test_even_checks_are_independent():
    # full rank, so the polytope is empty; det 4 and Pf 2 are even
    assert _even_checks([[0, 2], [-2, 0]]) == (True, False, False)
    # rank 0: every point of the simplex is in the kernel; det = Pf = 0
    assert _even_checks([[0, 0], [0, 0]]) == (False, False, False)
    assert _even_checks([[0, 1], [-1, 0]]) == (True, True, True)


def test_even_checks_leave_their_input_alone():
    rows = [[0, 1, 1, -1], [-1, 0, 1, 1], [-1, -1, 0, 1], [1, -1, -1, 0]]
    before = [row[:] for row in rows]
    assert _even_checks(rows) == (True, True, True)
    assert rows == before


def test_budget_env_var_validation(monkeypatch):
    for bad in ("abc", "nan", "-5"):
        monkeypatch.setenv("TOURNEYLAB_BUDGET_SECS", bad)
        with pytest.raises(ValueError, match="TOURNEYLAB_BUDGET_SECS"):
            verify_even_unplayable(2)
    monkeypatch.setenv("TOURNEYLAB_BUDGET_SECS", "")
    assert verify_even_unplayable(2).ok


def test_even_report_flags_follow_their_own_checks(monkeypatch):
    # pretend only the determinant check fails, and only when some object wins
    # no game: a property of the class, so every game of its orbit fails
    monkeypatch.setattr(verify, "_even_checks", lambda rows: (True, all(1 in r for r in rows), True))
    rep = verify_even_unplayable(4)
    assert not rep.ok
    brute = brute_even_report(4)
    for r, b in zip(rep.results, brute.results):
        flags = (r.all_polytopes_empty, r.all_determinants_odd_squares, r.all_pfaffians_odd)
        assert flags == (True, False, True)
        assert r.failures == b.failures
    assert [len(r.failures) for r in rep.results] == [2, 32]
