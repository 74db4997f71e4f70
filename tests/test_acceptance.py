"""Acceptance suite: one test per headline criterion, each printing a
PASS/FAIL line (run with -s to see them).

Two criteria are left deliberately red. Criterion 3 asserts that the extremal
construction's equilibrium sequence strictly majorizes every playable
competitor's; exhaustive search at 7 objects finds one playable game whose
sequence is incomparable (descending prefix sums cross), so the assertion
fails with that counterexample while every statistic-level maximality claim
passes. Criterion 5 asserts that strong connectivity is equivalent to
playability; it is necessary but not sufficient (4 strong-but-unplayable
classes at 5 objects, 341 at 7). Both checks are kept as stated rather than
weakened; the failures carry the exact witnesses.
"""

import math
import time
from fractions import Fraction

import pytest

from tourneylab import (
    Majorization,
    Playability,
    blow_up,
    blow_up_equilibrium,
    canonical_form,
    classify_playability,
    enumerate_tournaments,
    equilibrium_polytope,
    imbalanced_equilibrium_closed_form,
    imbalanced_rps,
    majorizes,
    nash_ties,
    payoff_matrix,
    ui_entropy,
    ui_variance,
    uniform_profile,
    verify_even_unplayable,
    verify_structural_lemmas,
    verify_theorem,
)
from tourneylab.tournament import Tournament

F = Fraction


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" — {detail}" if detail else ""
    print(f"acceptance {criterion}: {status}{suffix}")


def test_criterion_1_closed_form_equilibria():
    """Unique equilibrium of the imbalanced game equals 3**-i exactly, n=1..10."""
    start = time.perf_counter()
    for n in range(1, 11):
        t = imbalanced_rps(n)
        polytope = equilibrium_polytope(payoff_matrix(t))
        expected = imbalanced_equilibrium_closed_form(n)
        assert polytope.kernel_dim == 1
        assert polytope.vertices == (expected,), f"n={n}"
        assert sum(expected) == 1
    elapsed = time.perf_counter() - start
    report("criterion 1 (closed-form equilibria n=1..10)", True, f"{elapsed:.3f}s")
    assert elapsed < 1.0


def test_criterion_2_score_entropy_formula():
    """Score entropy of the construction is ln(2n+1) - 3/(2n+1) ln 3 to 1e-12."""
    start = time.perf_counter()
    worst = 0.0
    for n in range(1, 11):
        got = ui_entropy(uniform_profile(imbalanced_rps(n)))
        want = math.log(2 * n + 1) - 3 / (2 * n + 1) * math.log(3)
        worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12
    report(
        "criterion 2 (score-entropy closed form n=1..10)",
        ok,
        f"max deviation {worst:.2e}, {elapsed:.3f}s",
    )
    assert ok and elapsed < 1.0


def test_criterion_3_maximality_theorem_exhaustive():
    """Exhaustive maximality at 5 and 7 objects: unique max of variance and
    ties, max score entropy, min equilibrium entropy, and strict majorization
    of both the win sequence and the equilibrium sequence."""
    start = time.perf_counter()
    failures: list[str] = []
    for n in (2, 3):
        rep = verify_theorem(n)
        clauses = {
            "unique UI_v and N_t argmax": rep.unique_variance_and_ties,
            "attains UI_e max and N_e min": rep.attains_entropy_extremes,
            "e_in strictly majorizes all playable": rep.e_in_strictly_majorizes,
            "equilibrium strictly majorizes all playable": rep.equilibrium_strictly_majorizes,
        }
        for name, ok in clauses.items():
            print(f"  n={n} ({2 * n + 1} objects): {name}: {'PASS' if ok else 'FAIL'}")
            if not ok:
                detail = ""
                if name.startswith("equilibrium"):
                    detail = f" counterexamples: {rep.equilibrium_majorization.counterexamples}"
                failures.append(f"n={n}: {name}{detail}")
    elapsed = time.perf_counter() - start
    report(
        "criterion 3 (maximality theorem, exhaustive at 5 and 7 objects)",
        not failures,
        f"{elapsed:.1f}s",
    )
    if failures:
        pytest.fail(
            "exhaustive search refutes: " + "; ".join(failures),
            pytrace=False,
        )


def test_criterion_4_even_orders_unplayable():
    """All labeled 2-, 4-, 6-object games: empty polytope, odd-square
    determinant, odd Pfaffian; zero exceptions, under a minute."""
    start = time.perf_counter()
    rep = verify_even_unplayable(6)
    elapsed = time.perf_counter() - start
    counts = {r.n: r.tournament_count for r in rep.results}
    report(
        "criterion 4 (even orders unplayable + parity)",
        rep.ok,
        f"counts {counts}, {elapsed:.1f}s",
    )
    assert counts == {2: 2, 4: 64, 6: 32768}
    assert rep.ok
    assert elapsed < 60.0


def test_criterion_5_three_way_playability_agreement():
    """Strong connectivity <=> strictly positive 1-dim kernel point <=>
    StronglyPlayable, over all odd orders up to 7; zero disagreements."""
    start = time.perf_counter()
    disagreements: list[tuple[int, int, bool, bool]] = []
    per_n: dict[int, int] = {}
    for m in (1, 3, 5, 7):
        bad = 0
        for t in enumerate_tournaments(m, up_to_iso=True):
            rep = classify_playability(t)
            polytope = equilibrium_polytope(payoff_matrix(t))
            kernel_point = polytope.kernel_dim == 1 and (
                polytope.is_single_point
                and all(x > 0 for x in polytope.vertices[0])
            )
            classified = rep.playability is Playability.STRONGLY_PLAYABLE
            if not (rep.is_strong == kernel_point == classified):
                bad += 1
                if len(disagreements) < 3:
                    disagreements.append(
                        (m, canonical_form(t), rep.is_strong, kernel_point)
                    )
        per_n[m] = bad
    elapsed = time.perf_counter() - start
    ok = not any(per_n.values())
    report(
        "criterion 5 (three-way playability agreement, odd n <= 7)",
        ok,
        f"disagreements per order {per_n}, {elapsed:.1f}s",
    )
    if not ok:
        pytest.fail(
            "strong connectivity is necessary but not sufficient for playability; "
            f"disagreements per order: {per_n}; first examples "
            f"(order, canonical, strong, kernel-point): {disagreements}",
            pytrace=False,
        )


def test_criterion_6_structural_bounds():
    """Playable classes at 5 and 7 objects meet the degree-prefix bounds, the
    k-minimizing condition for all valid k, and the 1/3 probability cap."""
    start = time.perf_counter()
    ok = True
    for m in (5, 7):
        rep = verify_structural_lemmas(m)
        ok = ok and rep.ok
        print(
            f"  {m} objects: playable {rep.playable_count}, "
            f"landau failures {len(rep.landau_failures)}, "
            f"k-min failures {len(rep.k_minimizing_failures)}, "
            f"probability-cap failures {len(rep.max_probability_failures)}, "
            f"contrapositive failures {len(rep.contrapositive_failures)}"
        )
    elapsed = time.perf_counter() - start
    report("criterion 6 (structural bounds at 5 and 7 objects)", ok, f"{elapsed:.1f}s")
    assert ok


def test_criterion_7_blow_up_identities():
    """Iterated blow-ups of the 3-cycle equal the construction (canonical
    equality) for n <= 4, and every product equilibrium is exact."""
    start = time.perf_counter()
    three = imbalanced_rps(1)
    current = three
    for n in range(2, 5):
        current = blow_up(current, current.n - 1, three)  # glue at the "s" slot
        assert canonical_form(current) == canonical_form(imbalanced_rps(n)), f"n={n}"

    games = [
        (three, imbalanced_equilibrium_closed_form(1)),
        (imbalanced_rps(2), imbalanced_equilibrium_closed_form(2)),
    ]
    checked = 0
    for outer, v_outer in games:
        for inner, v_inner in games:
            for glue in range(outer.n):
                blown = blow_up(outer, glue, inner)
                v = blow_up_equilibrium(v_outer, glue, v_inner)
                assert payoff_matrix(blown).matvec(v) == (F(0),) * blown.n
                assert sum(v) == 1
                checked += 1
    elapsed = time.perf_counter() - start
    report(
        "criterion 7 (blow-up identities and product equilibria)",
        True,
        f"{checked} product equilibria exact, {elapsed:.1f}s",
    )


def _sample_playable(m: int, want: int, seed: int) -> list[dict]:
    import random

    rng = random.Random(seed)
    total_bits = m * (m - 1) // 2
    pool: list[dict] = []
    attempts = 0
    while len(pool) < want and attempts < 500_000:
        attempts += 1
        mask = rng.getrandbits(total_bits)
        pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
        beats = [[False] * m for _ in range(m)]
        for b, (i, j) in enumerate(pairs):
            if (mask >> b) & 1:
                beats[i][j] = True
            else:
                beats[j][i] = True
        t = Tournament(m, beats)
        polytope = equilibrium_polytope(payoff_matrix(t))
        if not (
            polytope.is_single_point and all(x > 0 for x in polytope.vertices[0])
        ):
            continue
        eq = polytope.vertices[0]
        profile = uniform_profile(t)
        pool.append(
            {
                "wins": tuple(sorted(sum(row) for row in t.beats)),
                "eq": tuple(sorted(eq, reverse=True)),
                "ui_v": ui_variance(profile),
                "ties": nash_ties(eq),
            }
        )
    assert len(pool) == want, f"could not sample {want} playable games at {m} objects"
    return pool


def test_criterion_8_schur_property_random_pairs():
    """10^4 random playable pairs at 5 and 7 objects: strict majorization of
    win sequences (resp. equilibrium sequences) strictly orders the payoff
    variance (resp. expected ties). Zero violations."""
    import random

    start = time.perf_counter()
    violations = 0
    checked_strict = 0
    for m, seed in ((5, 101), (7, 202)):
        pool = _sample_playable(m, 150, seed)
        rng = random.Random(seed + 1)
        for _ in range(10_000):
            a = pool[rng.randrange(len(pool))]
            b = pool[rng.randrange(len(pool))]
            if majorizes(a["wins"], b["wins"]) is Majorization.STRICT:
                checked_strict += 1
                if not a["ui_v"] > b["ui_v"]:
                    violations += 1
            if majorizes(a["eq"], b["eq"]) is Majorization.STRICT:
                checked_strict += 1
                if not a["ties"] > b["ties"]:
                    violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0
    report(
        "criterion 8 (Schur-class property, 2x10^4 random pairs)",
        ok,
        f"{checked_strict} strict comparisons, {violations} violations, {elapsed:.1f}s",
    )
    assert ok
    assert checked_strict > 0
