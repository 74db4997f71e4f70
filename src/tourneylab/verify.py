"""Exhaustive desk-scale verification of the maximal-imbalance theorem and the
even-order/structural lemmas, over all tournaments of the requested size.

Reports are NamedTuples with deterministic JSON and Markdown renderings;
two runs produce byte-identical output. Every suite runs over isomorphism
classes read from a shipped class list (`tournament.CLASS_DIR`) and re-checks
the list as it goes: the forms strictly increase, each one is canonical with
its stored |Aut T|, and their orbit weights n!/|Aut T| add up to the labeled
games the list covers, which proves it complete. The even suite alone takes
every class, which covers all 2^C(n,2) labeled games. One Pfaffian
elimination (`equilibrium._signed_kernel`, exact by Knuth, Electron. J. Combin.
3(2), 1996, R5) gives each class's integer kernel, asserting that every even
sub-tournament has an odd Pfaffian (the even suite checks this apart). The
other suites take only the playable classes, each checked one-signed: one
labeled playable game per switching class, 2^C(n-1,2) in all. The lists are
generated by `tournament._iso_classes` and `equilibrium._playable_classes`;
other counts come from formulas."""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import time
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import cmp_to_key
from typing import Callable, NamedTuple, Sequence

from . import tournament
from .construct import imbalanced_rps
from .equilibrium import _signed_kernel, payoff_rows, tournament_equilibrium
from .imbalance import Majorization, compare_prefix_sums, nash_entropy
from .rational import _bareiss_echelon, _pfaffian_expand
from .tournament import (
    Tournament,
    canonical_form,
    is_strong,
    landau_bound_check,
    tournament_from_canonical,
    _class_count,
    _k_minimizing_sweep,
    _listed_class,
    _orbit_masks,
    _read_class_list,
    _strong_count,
)

BUDGET_ENV_VAR = "TOURNEYLAB_BUDGET_SECS"
ENTROPY_GUARD_BAND = Decimal("1e-30")
ENTROPY_DIGITS = 80  # decimal digits for 256 bits: 80 >= 256 * log10(2) = 77.06
FLOAT_ENTROPY_SEPARATION = 1e-9


class BudgetExceededError(RuntimeError):
    """Raised when a verification run exhausts its time budget."""


class GuardBandError(RuntimeError):
    """Two distinct exact distributions whose entropies agree to within the
    guard band; the comparison needs manual review instead of a verdict."""


class _Deadline:
    def __init__(self, budget_secs: float | None):
        source = "--budget"
        if budget_secs is None:
            raw = os.environ.get(BUDGET_ENV_VAR)
            source = BUDGET_ENV_VAR
            try:
                budget_secs = float(raw) if raw else None
            except ValueError:
                raise ValueError(f"{source}={raw!r} is not a number of seconds") from None
        if budget_secs is not None and not (math.isfinite(budget_secs) and budget_secs >= 0):
            raise ValueError(f"{source} must be a finite number of seconds >= 0, got {budget_secs}")
        self.expires = None if budget_secs is None else time.monotonic() + budget_secs

    def check(self, progress: str | None = None) -> None:
        """Raise once the budget is spent; `progress` says how far the run got."""
        if self.expires is not None and time.monotonic() > self.expires:
            where = f" during {progress}" if progress else ""
            raise BudgetExceededError(f"verification time budget exceeded{where}")


def _worker_count(jobs: int) -> int:
    """Worker processes for a `jobs` request: at least 1, at most the CPU count."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    return min(jobs, os.cpu_count() or 1)


def _entropy_float(masses: Sequence[Fraction | int]) -> float:
    """-sum(m ln m) in floats over the masses m / sum(masses), each rounded
    once, the terms added exactly by fsum. A mass that rounds to 0.0
    contributes under 1e-300 and is dropped."""
    d = sum(masses)
    return -math.fsum(x * math.log(x) for x in (m / d for m in masses) if x > 0)


def _entropy_bits(masses: Sequence[Fraction | int]) -> Decimal:
    """-sum(m ln m) to ENTROPY_DIGITS significant digits over the masses
    m / sum(masses), each one rounded Decimal division."""
    d = sum(masses)
    with localcontext() as ctx:
        ctx.prec = ENTROPY_DIGITS
        total = Decimal(0)
        for m in masses:
            if m > 0:
                x = Decimal(m.numerator * d.denominator) / (m.denominator * d.numerator)
                total -= x * x.ln()
        return total


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def compare_entropies(x: Sequence[Fraction | int], y: Sequence[Fraction | int]) -> int:
    """Sign of H(x) - H(y) for exact mass lists, each over its own total, with a
    1e-30 guard band: probabilities, or integer weights w for masses w / sum.

    Identical multisets of masses compare equal exactly, cross-multiplied.
    Otherwise both entropies are first taken in floats (`_entropy_float`).
    For a mass m in [0, 1], rounding m, ln m and their product moves the term
    m ln m by at most 2^-53 * (m + 3|m ln m|) < 2^-52, and fsum adds the terms
    with one final rounding, so an entropy of n masses is off by at most about
    n * 2^-52. A float difference beyond FLOAT_ENTROPY_SEPARATION (1e-9, more
    than both errors together for lists shorter than a million masses)
    therefore has the exact sign. Only a nearer tie is decided at 256 bits, in
    `decimal`; distinct multisets whose entropies land inside the guard band
    there raise GuardBandError rather than returning a silent verdict.
    """
    dx, dy = sum(x), sum(y)
    if sorted(m * dy for m in x) == sorted(m * dx for m in y):
        return 0
    rough = _entropy_float(x) - _entropy_float(y)
    if abs(rough) > FLOAT_ENTROPY_SEPARATION:
        return 1 if rough > 0 else -1
    diff = _entropy_bits(x) - _entropy_bits(y)
    if abs(diff) < ENTROPY_GUARD_BAND:
        raise GuardBandError(
            "entropy comparison inside the guard band; manual review required"
        )
    return 1 if diff > 0 else -1


# ---------------------------------------------------------------------------
# per-class statistics
# ---------------------------------------------------------------------------

class _ClassStats(NamedTuple):
    packed: int
    wins_prefix: tuple[int, ...]  # descending prefix sums, as is kernel_prefix
    ui_sq: int  # sum((2w - n + 1)^2): ui_variance times (n - 1)^2 n
    score_counts: tuple[int, ...]  # objects per win count, fewest wins first
    kernel_prefix: tuple[int, ...]  # of the primitive |kernel|; the last is T
    kernel_sq: int  # sum(x^2): nash_ties times T^2


def _playable_kernel(args: tuple[int, int, int]) -> tuple[Tournament, list[int]]:
    """(game, |kernel entries|) of one entry of a playable class list, after
    `_listed_class` re-checks its form and |Aut T|; raises ValueError unless the
    integer kernel is one-signed, that is, unless the class is playable."""
    t = _listed_class(*args)
    x = _signed_kernel(t.win)
    if not (min(x) > 0 or max(x) < 0):
        raise ValueError(f"class {args[1]} is not playable: its kernel is not one-signed")
    return t, [abs(v) for v in x]


def _class_stats(args: tuple[int, int, int]) -> _ClassStats:
    """Statistics of one playable class (objects, form, |Aut T|), from its
    integer kernel x (the equilibrium is x / sum(x)), divided by its gcd so
    that equal equilibria give equal records, and its win counts w: payoffs
    (2w - n + 1)/(n - 1)."""
    objects, packed, _ = args
    t, x = _playable_kernel(args)
    g = math.gcd(*x)
    x = sorted((v // g for v in x), reverse=True)
    wins = sorted((w.bit_count() for w in t.win), reverse=True)
    return _ClassStats(
        packed,
        wins_prefix=tuple(itertools.accumulate(wins)),
        ui_sq=sum((2 * w - objects + 1) ** 2 for w in wins),
        score_counts=tuple(c for _, c in sorted(Counter(wins).items())),
        kernel_prefix=tuple(itertools.accumulate(x)),
        kernel_sq=sum(v * v for v in x),
    )


def _differences(prefix: Sequence[int]) -> list[int]:
    """The sequence whose prefix sums are `prefix`."""
    return [b - a for a, b in zip((0, *prefix), prefix)]


def _class_sweep(
    sizes: Sequence[int],
    kind: str,
    fn: Callable,
    jobs: int,
    deadline: _Deadline,
    phase: str,
) -> list[tuple[tuple[int, ...], list]]:
    """(classes, [fn((n, c, |Aut T| of c)) for c in classes]) for each n in
    `sizes`, over one pool of `jobs` workers, the classes read from the list
    `{kind}_n{n}.bin` in `tournament.CLASS_DIR`: kind "all" covers all 2^C(n,2)
    labeled games; kind "playable" (odd n) covers 2^C(n-1,2), one playable game
    per switching class of 2^(n-1). The forms must strictly increase, an "all"
    list must hold Davis's count, the orbit weights n!/|Aut T| must add up to
    the games covered, and `fn` re-runs each class's canonical search against
    its stored |Aut T|. Distinct classes whose weights reach the total are all
    of them, so a run never reports on a wrong list: any failure raises
    ValueError naming the file. The budget is polled before each list and every
    64 classes, and names `phase`."""
    out = []
    if jobs > 1:
        from multiprocessing import Pool  # only parallel runs pay for the import
    with Pool(processes=jobs) if jobs > 1 else contextlib.nullcontext() as pool:
        for n in sizes:
            name = f"{kind}_n{n}.bin"
            deadline.check(f"loading {name}")
            path = os.path.join(tournament.CLASS_DIR, name)
            try:
                classes, auts = _read_class_list(path)
                if kind == "all" and len(classes) != _class_count(n):
                    raise ValueError(f"holds {len(classes)} classes, not Davis's {_class_count(n)}")
                total = 1 << ((n - 1) * (n - 2) // 2 if kind == "playable" else n * (n - 1) // 2)
                weight = sum(math.factorial(n) // a for a in auts)
                if weight != total:
                    raise ValueError(f"orbit weights n!/|Aut T| sum to {weight}, not {total}")
                items = [(n, c, a) for c, a in zip(classes, auts)]
                mapped = pool.imap(fn, items, chunksize=32) if pool else map(fn, items)
                results = []
                for k, res in enumerate(mapped):
                    if k % 64 == 0:
                        deadline.check(f"{phase} at {n} objects: {k}/{len(items)} classes")
                    results.append(res)
            except ValueError as exc:
                raise ValueError(f"class list {path}: {exc}") from None
            out.append((classes, results))
    return out


# ---------------------------------------------------------------------------
# theorem verification
# ---------------------------------------------------------------------------

class StatisticVerdict(NamedTuple):
    name: str
    construction_value: str
    best_competitor_value: str | None
    attained: bool
    unique: bool


class MajorizationTally(NamedTuple):
    strict: int
    equal: int
    no: int
    counterexamples: tuple[tuple[int, str], ...]  # (canonical form, sequence)


class TheoremReport(NamedTuple):
    n: int
    objects: int
    class_count: int
    playable_count: int
    construction_canonical: int
    champion_canonical: int
    champion_edges: tuple[tuple[int, int], ...]
    statistics: tuple[StatisticVerdict, ...]
    e_in_majorization: MajorizationTally
    equilibrium_majorization: MajorizationTally
    schur_violations: int
    unique_variance_and_ties: bool      # assertion (a)
    attains_entropy_extremes: bool      # assertion (b)
    e_in_strictly_majorizes: bool       # assertion (c)
    equilibrium_strictly_majorizes: bool  # assertion (d)

    @property
    def ok(self) -> bool:
        return (
            self.unique_variance_and_ties
            and self.attains_entropy_extremes
            and self.e_in_strictly_majorizes
            and self.equilibrium_strictly_majorizes
            and self.schur_violations == 0
        )

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "report": "theorem",
            "n": self.n,
            "objects": self.objects,
            "class_count": self.class_count,
            "playable_count": self.playable_count,
            "construction_canonical": self.construction_canonical,
            "champion_canonical": self.champion_canonical,
            "champion_edges": [list(e) for e in self.champion_edges],
            "statistics": [s._asdict() for s in self.statistics],
            "e_in_majorization": _tally_dict(self.e_in_majorization),
            "equilibrium_majorization": _tally_dict(self.equilibrium_majorization),
            "schur_violations": self.schur_violations,
            "assertions": {
                "unique_variance_and_ties": self.unique_variance_and_ties,
                "attains_entropy_extremes": self.attains_entropy_extremes,
                "e_in_strictly_majorizes": self.e_in_strictly_majorizes,
                "equilibrium_strictly_majorizes": self.equilibrium_strictly_majorizes,
            },
            "ok": self.ok,
        }

    def to_markdown(self) -> str:
        lines = [
            f"# Maximal-imbalance theorem at {self.objects} objects",
            "",
            f"- isomorphism classes: {self.class_count}",
            f"- playable classes: {self.playable_count}",
            f"- construction canonical form: {self.construction_canonical}",
            f"- overall: {'PASS' if self.ok else 'FAIL'}",
            "",
            "| statistic | construction | best competitor | attained | unique |",
            "|---|---|---|---|---|",
        ]
        for s in self.statistics:
            lines.append(
                f"| {s.name} | {s.construction_value} | "
                f"{s.best_competitor_value or '-'} | {s.attained} | {s.unique} |"
            )
        lines += [
            "",
            _tally_markdown("e_in majorization", self.e_in_majorization),
            _tally_markdown("equilibrium majorization", self.equilibrium_majorization),
            f"- Schur spot-check violations: {self.schur_violations}",
        ]
        return "\n".join(lines) + "\n"


def _tally_dict(t: MajorizationTally) -> dict:
    return {
        "strict": t.strict,
        "equal": t.equal,
        "no": t.no,
        "counterexamples": [
            {"canonical": c, "sequence": seq} for c, seq in t.counterexamples
        ],
    }


def _tally_markdown(name: str, t: MajorizationTally) -> str:
    base = f"- {name}: strict={t.strict} equal={t.equal} no={t.no}"
    if t.counterexamples:
        details = "; ".join(f"class {c}: {seq}" for c, seq in t.counterexamples)
        base += f" (counterexamples: {details})"
    return base


def _schur_violations(
    keys: Sequence[tuple[tuple[int, ...], int]], check: Callable, phase: str
) -> int:
    """Ordered pairs (a, b) of `keys` where a's sequence strictly majorizes b's
    but a's statistic is not larger. A key (p, s) stands for the sequence with
    descending prefix sums p / p[-1] and the statistic s / p[-1]^2, compared
    cross-multiplied. A strict majorizer has every prefix sum >= and one >, so
    its sum S of prefix sums is larger: each key is compared only with the keys
    of smaller S, which come before it once the keys are sorted by S. Equal
    keys never violate, so each pair of distinct keys is compared once and
    weighted by how many entries share each; the budget is polled once per
    distinct key."""
    groups = [(p, s, c, sum(p), p[-1]) for (p, s), c in Counter(keys).items()]
    groups.sort(key=cmp_to_key(lambda a, b: a[3] * b[4] - b[3] * a[4]))
    violations = start = 0
    for k, (pa, sa, na, suma, ta) in enumerate(groups):
        check(f"{phase}: {k}/{len(groups)} groups")
        if k and suma * groups[k - 1][4] != groups[k - 1][3] * ta:
            start = k  # groups[:start] are the keys of smaller S
        for pb, sb, nb, _, tb in groups[:start]:
            if sa * tb * tb <= sb * ta * ta and all(x * tb >= y * ta for x, y in zip(pa, pb)):
                violations += na * nb
    return violations


def _theorem_bounds(n: int) -> None:
    if n < 1:
        raise ValueError("need n >= 1")
    if n > 4:
        raise ValueError("theorem verification is bounded at 9 objects")


def verify_theorem(
    n: int,
    jobs: int = 1,
    budget_secs: float | None = None,
) -> TheoremReport:
    """Exhaustively test the extremal claims for the (2n+1)-object construction.

    Checks, over every playable isomorphism class: (a) unique maximum of the
    payoff variance and of expected ties, (b) maximum score-entropy and
    minimum equilibrium entropy, (c)/(d) strict majorization of the
    construction's win and equilibrium sequences. Only the playable classes
    are read; the count of all classes comes from Davis's formula. n <= 4
    (9 objects), subject to the budget.
    """
    _theorem_bounds(n)
    jobs = _worker_count(jobs)
    deadline = _Deadline(budget_secs)
    objects = 2 * n + 1
    [(_, playable)] = _class_sweep(
        [objects], "playable", _class_stats, jobs, deadline, "per-class statistics"
    )
    cons_canon = canonical_form(imbalanced_rps(n))
    cons = next(s for s in playable if s.packed == cons_canon)
    others = [s for s in playable if s.packed != cons_canon]
    kernel = {s.packed: _differences(s.kernel_prefix) for s in playable}

    def ties_order(a: _ClassStats, b: _ClassStats) -> int:
        # nash_ties(a) - nash_ties(b) cross-multiplied: kernel_sq / T^2 each
        return a.kernel_sq * b.kernel_prefix[-1] ** 2 - b.kernel_sq * a.kernel_prefix[-1] ** 2

    def verdict(name, text, best, key, signs: list[int]) -> StatisticVerdict:
        # one sign per competitor, positive where the construction wins
        return StatisticVerdict(
            name,
            text(cons),
            text(best(others, key=key)) if others else None,
            attained=all(c >= 0 for c in signs),
            unique=all(c > 0 for c in signs),
        )

    ui_entropy = lambda s: nash_entropy([c / objects for c in s.score_counts])
    nash_ent = lambda s: nash_entropy([v / s.kernel_prefix[-1] for v in kernel[s.packed]])
    uiv, ties, uie, ne = statistics = (
        verdict("ui_variance", lambda s: str(Fraction(s.ui_sq, (objects - 1) ** 2 * objects)),
                max, lambda s: s.ui_sq, [_sign(cons.ui_sq - s.ui_sq) for s in others]),
        verdict("nash_ties", lambda s: str(Fraction(s.kernel_sq, s.kernel_prefix[-1] ** 2)),
                max, cmp_to_key(ties_order), [_sign(ties_order(cons, s)) for s in others]),
        verdict("ui_entropy", lambda s: repr(ui_entropy(s)), max, ui_entropy,
                [compare_entropies(cons.score_counts, s.score_counts) for s in others]),
        verdict("nash_entropy", lambda s: repr(nash_ent(s)), min, nash_ent,
                [compare_entropies(kernel[s.packed], kernel[cons.packed]) for s in others]),
    )

    def tally(seq: Callable[[_ClassStats], tuple[tuple[int, ...], int]]) -> MajorizationTally:
        # seq(s) is (prefix sums, denominator), compared cross-multiplied
        counts = dict.fromkeys(Majorization, 0)  # strict, equal, no: the tally's order
        bad: list[tuple[int, str]] = []
        pc, dc = seq(cons)
        for s in others:
            p, d = seq(s)
            got = compare_prefix_sums(tuple(a * d for a in pc), tuple(b * dc for b in p))
            counts[got] += 1
            if got is not Majorization.STRICT:
                bad.append((s.packed, str([str(Fraction(v, d)) for v in _differences(p)])))
        return MajorizationTally(*counts.values(), tuple(bad))

    ein_tally = tally(lambda s: (s.wins_prefix, 1))
    eq_tally = tally(lambda s: (s.kernel_prefix, s.kernel_prefix[-1]))

    # Schur: a strictly majorizing sequence has the larger variance or ties
    schur_violations = sum(
        _schur_violations(keys, deadline.check, f"Schur pass over {name} at {objects} objects")
        for name, keys in (
            ("wins", [(s.wins_prefix, s.ui_sq) for s in playable]),
            ("equilibria", [(s.kernel_prefix, s.kernel_sq) for s in playable]),
        )
    )

    champion = max(playable, key=lambda s: (s.ui_sq, -s.packed))
    champion_t = tournament_from_canonical(objects, champion.packed)
    return TheoremReport(
        n=n,
        objects=objects,
        class_count=_class_count(objects),
        playable_count=len(playable),
        construction_canonical=cons_canon,
        champion_canonical=champion.packed,
        champion_edges=tuple(champion_t.edges()),
        statistics=statistics,
        e_in_majorization=ein_tally,
        equilibrium_majorization=eq_tally,
        schur_violations=schur_violations,
        unique_variance_and_ties=uiv.unique and ties.unique,
        attains_entropy_extremes=uie.attained and ne.attained,
        e_in_strictly_majorizes=ein_tally.equal == 0 and ein_tally.no == 0,
        equilibrium_strictly_majorizes=eq_tally.equal == 0 and eq_tally.no == 0,
    )


# ---------------------------------------------------------------------------
# even-order unplayability
# ---------------------------------------------------------------------------

class EvenOrderResult(NamedTuple):
    n: int
    tournament_count: int
    all_polytopes_empty: bool
    all_determinants_odd_squares: bool
    all_pfaffians_odd: bool
    failures: tuple[int, ...]  # packed masks


class EvenUnplayabilityReport(NamedTuple):
    max_n: int
    results: tuple[EvenOrderResult, ...]

    @property
    def ok(self) -> bool:
        return all(
            r.all_polytopes_empty
            and r.all_determinants_odd_squares
            and r.all_pfaffians_odd
            for r in self.results
        )

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "report": "even_unplayable",
            "max_n": self.max_n,
            "results": [r._asdict() | {"failures": list(r.failures)} for r in self.results],
            "ok": self.ok,
        }

    def to_markdown(self) -> str:
        lines = [
            f"# Even-order unplayability up to {self.max_n} objects",
            "",
            f"- overall: {'PASS' if self.ok else 'FAIL'}",
            "",
            "| n | labeled tournaments | polytopes empty | det = odd^2 | pfaffian odd |",
            "|---|---|---|---|---|",
        ]
        for r in self.results:
            lines.append(
                f"| {r.n} | {r.tournament_count} | {r.all_polytopes_empty} | "
                f"{r.all_determinants_odd_squares} | {r.all_pfaffians_odd} |"
            )
        return "\n".join(lines) + "\n"


def _is_odd_square(x: int) -> bool:
    return x > 0 and x % 2 == 1 and math.isqrt(x) ** 2 == x


def _even_checks(rows: list[list[int]]) -> tuple[bool, bool, bool]:
    """(polytope empty, det an odd square, Pfaffian odd) for one even skew integer
    matrix: rank and det from one Bareiss pass, the Pfaffian by its own expansion.
    Full rank means a trivial kernel, which meets no point of the simplex; a
    singular input (never a tournament) fails the determinant check too."""
    pf = _pfaffian_expand(rows)
    a, piv_cols, sign = _bareiss_echelon([row[:] for row in rows])
    full = len(piv_cols) == len(rows)
    return full, _is_odd_square(sign * a[-1][-1] if full else 0), pf % 2 == 1


def _even_class(args: tuple[int, int, int]) -> tuple[bool, bool, bool]:
    return _even_checks(payoff_rows(_listed_class(*args)))


def _even_bounds(max_n: int) -> None:
    if max_n < 2:
        raise ValueError("even-order exhaustion needs max_n >= 2")
    if max_n > 8:
        raise ValueError("even-order exhaustion is bounded at 8 objects")


def verify_even_unplayable(
    max_n: int, jobs: int = 1, budget_secs: float | None = None
) -> EvenUnplayabilityReport:
    """Every labeled even tournament up to max_n: empty kernel polytope,
    determinant an odd square, Pfaffian odd.

    Rank, determinant and Pfaffian parity do not change under relabeling
    (Pf(PAP^T) = det P * Pf A), so each isomorphism class is checked once, by
    one Bareiss elimination and one Pfaffian, and counts for its n!/|Aut T|
    labeled games; these weights must sum to 2^C(n,2). A class that fails a
    check contributes every labeled mask of its orbit to `failures`.
    """
    _even_bounds(max_n)
    jobs = _worker_count(jobs)
    deadline = _Deadline(budget_secs)
    sizes = range(2, max_n + 1, 2)
    results = []
    for n, (classes, checks) in zip(
        sizes, _class_sweep(sizes, "all", _even_class, jobs, deadline, "even sweep")
    ):
        failed = [(c, flags) for c, flags in zip(classes, checks) if not all(flags)]
        results.append(
            EvenOrderResult(
                n=n,
                tournament_count=1 << (n * (n - 1) // 2),
                all_polytopes_empty=all(flags[0] for _, flags in failed),
                all_determinants_odd_squares=all(flags[1] for _, flags in failed),
                all_pfaffians_odd=all(flags[2] for _, flags in failed),
                failures=tuple(sorted(m for c, _ in failed for m in _orbit_masks(n, c))),
            )
        )
    return EvenUnplayabilityReport(max_n=max_n, results=tuple(results))


# ---------------------------------------------------------------------------
# structural lemmas
# ---------------------------------------------------------------------------

class StructuralLemmasReport(NamedTuple):
    n: int
    class_count: int
    playable_count: int
    strong_count: int
    strong_but_unplayable_count: int
    strong_but_unplayable_examples: tuple[int, ...]
    landau_failures: tuple[int, ...]
    k_minimizing_failures: tuple[int, ...]
    max_probability_failures: tuple[int, ...]

    @property
    def contrapositive_failures(self) -> tuple[int, ...]:
        """Classes that fail a k-minimizing condition and are playable anyway.

        The contrapositive (not k-minimizing implies unplayable) fails on
        exactly the playable classes that fail a k-minimizing condition, so
        this is `k_minimizing_failures`; the reports keep it under its own key.
        """
        return self.k_minimizing_failures

    @property
    def ok(self) -> bool:
        return not (
            self.landau_failures
            or self.k_minimizing_failures
            or self.max_probability_failures
        )

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "report": "structural",
            "n": self.n,
            "class_count": self.class_count,
            "playable_count": self.playable_count,
            "strong_count": self.strong_count,
            "strong_but_unplayable_count": self.strong_but_unplayable_count,
            "strong_but_unplayable_examples": list(self.strong_but_unplayable_examples),
            "landau_failures": list(self.landau_failures),
            "k_minimizing_failures": list(self.k_minimizing_failures),
            "max_probability_failures": list(self.max_probability_failures),
            "contrapositive_failures": list(self.contrapositive_failures),
            "ok": self.ok,
        }

    def to_markdown(self) -> str:
        return "\n".join(
            [
                f"# Structural conditions over {self.n}-object classes",
                "",
                f"- classes: {self.class_count} "
                f"(playable {self.playable_count}, strong {self.strong_count})",
                f"- strong but unplayable: {self.strong_but_unplayable_count}",
                f"- degree-prefix bound failures among playable: {len(self.landau_failures)}",
                f"- k-minimizing failures among playable: {len(self.k_minimizing_failures)}",
                f"- max-probability (1/3) failures: {len(self.max_probability_failures)}",
                f"- contrapositive failures: {len(self.contrapositive_failures)}",
                f"- overall: {'PASS' if self.ok else 'FAIL'}",
            ]
        ) + "\n"


def _structural_stats(args: tuple[int, int, int]) -> tuple[int, bool, bool, bool]:
    """(packed, degree-prefix bounds hold, every k-minimizing condition holds,
    no equilibrium probability above 1/3) of one playable class, which must be
    strong. The largest probability is max|x| / sum|x| for the integer kernel x."""
    t, x = _playable_kernel(args)
    assert is_strong(t), f"playable class {args[1]} is not strong"
    return args[1], landau_bound_check(t), all(_k_minimizing_sweep(t)), 3 * max(x) <= sum(x)


def _strong_unplayable_examples(n: int, count: int) -> tuple[int, ...]:
    """The `count` smallest canonical forms of strong unplayable n-object
    classes, by an upward scan of the packed masks. Row 0 leads the packing, so
    a mask below 2^C(n-1,2) makes vertex 0 a sink: its game is not strong."""
    found: list[int] = []
    for packed in range(1 << ((n - 1) * (n - 2) // 2), 1 << (n * (n - 1) // 2)):
        if len(found) == count:
            break
        t = tournament_from_canonical(n, packed)
        if (is_strong(t) and canonical_form(t) == packed
                and tournament_equilibrium(t.win) is None):
            found.append(packed)
    if len(found) < count:
        raise RuntimeError(f"found {len(found)} strong unplayable {n}-object classes, not {count}")
    return tuple(found)


def _structural_bounds(n: int) -> None:
    if n < 3 or n % 2 == 0 or n > 9:
        raise ValueError("structural verification runs on odd 3 <= n <= 9")


def verify_structural_lemmas(
    n: int,
    jobs: int = 1,
    budget_secs: float | None = None,
) -> StructuralLemmasReport:
    """Playable classes must meet the degree-prefix bounds, every k-minimizing
    condition, and the 1/3 probability cap; classes failing the k-minimizing
    condition must be unplayable. Only the playable classes are read. Odd
    3 <= n <= 9, subject to the budget."""
    _structural_bounds(n)
    jobs = _worker_count(jobs)
    deadline = _Deadline(budget_secs)
    [(_, rows)] = _class_sweep(
        [n], "playable", _structural_stats, jobs, deadline, "structural checks"
    )
    strong_count = _strong_count(n)
    unplayable = strong_count - len(rows)  # every playable game is strong
    return StructuralLemmasReport(
        n=n,
        class_count=_class_count(n),
        playable_count=len(rows),
        strong_count=strong_count,
        strong_but_unplayable_count=unplayable,
        strong_but_unplayable_examples=_strong_unplayable_examples(n, min(5, unplayable)),
        landau_failures=tuple(c for c, landau, _, _ in rows if not landau),
        k_minimizing_failures=tuple(c for c, _, kmin_all, _ in rows if not kmin_all),
        max_probability_failures=tuple(c for c, _, _, capped in rows if not capped),
    )
