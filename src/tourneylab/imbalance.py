"""Imbalance statistics and majorization comparators.

Combinatorial statistics (variance, entropy, Theil index of the uniform
expected payoffs) depend only on the degree profile; the Nash statistics
(expected ties, equilibrium entropy) are evaluated at the game's equilibrium,
which for a tournament is unique when it exists.
"""

from __future__ import annotations

import itertools
import math
from enum import Enum
from fractions import Fraction
from typing import NamedTuple, Sequence

from .equilibrium import PlayabilityReport, tournament_equilibrium
from .rational import Vector
from .tournament import Tournament, degree_profile


class UniformPayoffProfile(NamedTuple):
    """Each object's exact payoff against a uniformly random opponent,
    plus the induced score distribution (score -> probability mass)."""

    payoffs: Vector
    score_distribution: dict[Fraction, Fraction]

    @property
    def n(self) -> int:
        return len(self.payoffs)


def uniform_profile(t: Tournament) -> UniformPayoffProfile:
    """Payoff (e_in[i] - e_out[i]) / (n - 1) per object; mean is exactly 0."""
    if t.n < 2:
        raise ValueError("uniform payoffs need at least two objects")
    diffs = [2 * w.bit_count() - (t.n - 1) for w in t.win]
    score = {d: Fraction(d, t.n - 1) for d in sorted(set(diffs))}
    hist = {score[d]: Fraction(diffs.count(d), t.n) for d in score}
    return UniformPayoffProfile(tuple(score[d] for d in diffs), hist)


def _numerators(v: Sequence[Fraction]) -> tuple[list[int], int]:
    """The integers X and d with v = X / d, d the least common denominator."""
    d = math.lcm(*(x.denominator for x in v))
    return [x.numerator * (d // x.denominator) for x in v], d


def ui_variance(p: UniformPayoffProfile) -> Fraction:
    """Exact population variance of the uniform payoffs (their mean is 0)."""
    xs, d = _numerators(p.payoffs)
    return Fraction(sum(x * x for x in xs), d * d * p.n)


def ui_entropy(p: UniformPayoffProfile) -> float:
    """Shannon entropy (nats) of the score distribution."""
    return nash_entropy(p.score_distribution.values())


def ui_theil(p: UniformPayoffProfile, alpha: Fraction) -> float:
    """Theil-T index after the affine normalization to mean 1 and infimum alpha.

    The raw mean is 0, so the map is x -> c1*x + 1 with c1 = (alpha-1)/min.
    A fully balanced profile is the constant 1 and scores 0 (the normalization
    is then the identity; the "mass at the infimum" reading would instead give
    alpha*ln(alpha)).
    """
    alpha = Fraction(alpha)
    if not 0 < alpha < 1:
        raise ValueError("alpha must satisfy 0 < alpha < 1")
    xs, _ = _numerators(p.payoffs)
    lo = min(xs)
    if lo == 0:
        return 0.0
    # c1*x + 1 = ((a-b)x + b*lo) / (b*lo) for alpha = a/b; int / int rounds as float(Fraction)
    a, b = alpha.numerator, alpha.denominator
    total = 0.0
    for x in xs:
        z = ((a - b) * x + b * lo) / (b * lo)
        if z > 0:
            total += z * math.log(z)
    return total / p.n


def nash_ties(v: Sequence[Fraction], m: int = 2) -> Fraction:
    """Exact expected ties sum(v_o ** m) for m players."""
    if m < 2:
        raise ValueError("need at least two players")
    xs, d = _numerators([Fraction(x) for x in v])
    return Fraction(sum(x**m for x in xs), d**m)


def nash_entropy(v: Sequence[Fraction | float]) -> float:
    """-sum(v ln v) in nats, with 0 ln 0 = 0."""
    total = 0.0
    for x in v:
        fx = float(x)
        if fx < 0:
            raise ValueError("probabilities must be nonnegative")
        if fx > 0:
            total -= fx * math.log(fx)
    return total


# ---------------------------------------------------------------------------
# majorization
# ---------------------------------------------------------------------------

class Majorization(Enum):
    STRICT = "strict"
    EQUAL = "equal"
    NO = "no"


def descending_prefix_sums(x: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Exact prefix sums of x sorted in descending order; they determine x
    up to order."""
    return tuple(itertools.accumulate(sorted((Fraction(a) for a in x), reverse=True)))


def compare_prefix_sums(px: tuple[Fraction, ...], py: tuple[Fraction, ...]) -> Majorization:
    """Majorization of two equal-length sequences, given their descending prefix
    sums: EQUAL for identical multisets, STRICT when the totals agree and no
    prefix of the first is smaller, NO otherwise."""
    if px == py:
        return Majorization.EQUAL
    if px[-1] != py[-1] or any(a < b for a, b in zip(px, py)):
        return Majorization.NO
    return Majorization.STRICT


def majorizes(x: Sequence[Fraction], y: Sequence[Fraction]) -> Majorization:
    """Majorization of equal-length sequences (see compare_prefix_sums)."""
    if len(x) != len(y):
        raise ValueError("sequences must have equal length")
    return compare_prefix_sums(descending_prefix_sums(x), descending_prefix_sums(y))


class _ExtendedFields(NamedTuple):
    finite_entries: tuple[Fraction, ...]
    minus_inf_count: int = 0


class ExtendedSequence(_ExtendedFields):
    """Finite descending prefix of an infinite sequence over R ∪ {-inf}.

    finite_entries are the largest entries in descending order;
    minus_inf_count declares how many entries of the full sequence are -inf
    (for negated minimal-degree comparisons, a balanced object's +inf entry).
    """

    __slots__ = ()

    def __new__(cls, finite_entries: Sequence[Fraction], minus_inf_count: int = 0):
        if minus_inf_count < 0:
            raise ValueError("minus_inf_count must be >= 0")
        entries = tuple(sorted((Fraction(x) for x in finite_entries), reverse=True))
        return super().__new__(cls, entries, minus_inf_count)

    @classmethod
    def _make(cls, iterable):
        """Build through the checks above, so `_replace` keeps them too."""
        return cls(*iterable)


class ExtendedVerdict(Enum):
    YES = "yes"
    YES_IN_LIMIT = "yes_in_limit"
    NO = "no"
    INCOMPARABLE = "incomparable"


class ExtendedComparison(NamedTuple):
    verdict: ExtendedVerdict
    horizon: int
    witnessed_k0: int | None = None


def extended_weak_majorizes(
    x: ExtendedSequence, y: ExtendedSequence, after: int | None = None
) -> ExtendedComparison:
    """Weak majorization over infinite sequences of negatively extended reals.

    Fewer -inf entries on the left decides YES outright and more decides NO.
    With equal counts, descending prefix sums are compared for every k up to
    the certified horizon (the shorter supplied prefix): all pass -> YES;
    failures followed by a clean tail -> YES_IN_LIMIT with the smallest
    witnessed k0; a failure at the horizon itself -> INCOMPARABLE. Passing
    `after` restricts the examined window to k > after. No verdict ever claims
    more than the supplied prefixes certify.
    """
    if x.minus_inf_count < y.minus_inf_count:
        return ExtendedComparison(ExtendedVerdict.YES, 0)
    if x.minus_inf_count > y.minus_inf_count:
        return ExtendedComparison(ExtendedVerdict.NO, 0)
    horizon = min(len(x.finite_entries), len(y.finite_entries))
    if horizon == 0:
        raise ValueError("prefixes too short to certify any horizon")
    start = 0
    if after is not None:
        if after < 0:
            raise ValueError("after must be >= 0")
        if after >= horizon:
            raise ValueError(
                f"prefixes too short to certify beyond k0={after} (horizon {horizon})"
            )
        start = after
    last_violation: int | None = None
    px = sum(x.finite_entries[:start], Fraction(0))
    py = sum(y.finite_entries[:start], Fraction(0))
    for k in range(start + 1, horizon + 1):
        px += x.finite_entries[k - 1]
        py += y.finite_entries[k - 1]
        if px < py:
            last_violation = k
    if last_violation is None:
        return ExtendedComparison(ExtendedVerdict.YES, horizon)
    if last_violation == horizon:
        return ExtendedComparison(ExtendedVerdict.INCOMPARABLE, horizon)
    return ExtendedComparison(ExtendedVerdict.YES_IN_LIMIT, horizon, last_violation)


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

class ImbalanceReport(NamedTuple):
    """All five statistics plus the sequences used for majorization."""

    ui_v: Fraction
    ui_e: float
    ui_theil: float
    theil_alpha: Fraction
    n_t: Fraction | None
    n_e: float | None
    sorted_e_in: tuple[int, ...]
    sorted_equilibrium_probs: Vector | None


def imbalance_report(
    t: Tournament,
    alpha: Fraction = Fraction(1, 2),
    playability: PlayabilityReport | None = None,
) -> ImbalanceReport:
    """Assemble every statistic; Nash statistics are None for unplayable games.
    `playability`, classify_playability(t) if given, supplies the equilibrium."""
    profile = uniform_profile(t)
    e_in_sorted = tuple(sorted(degree_profile(t).e_in, reverse=True))
    eq = playability.equilibrium if playability else tournament_equilibrium(t.win)
    n_t = n_e = probs = None
    if eq is not None:
        n_t = nash_ties(eq)
        n_e = nash_entropy(eq)
        probs = tuple(sorted(eq, reverse=True))
    return ImbalanceReport(
        ui_v=ui_variance(profile),
        ui_e=ui_entropy(profile),
        ui_theil=ui_theil(profile, alpha),
        theil_alpha=Fraction(alpha),
        n_t=n_t,
        n_e=n_e,
        sorted_e_in=e_in_sorted,
        sorted_equilibrium_probs=probs,
    )
