"""Acceptance criteria for rerandomization: thresholds, tiers, variance factors.

Balance distances are compared against per-effect thresholds.  Thresholds
come either from chi-squared quantiles (each effect's distance is
asymptotically chi-squared with p degrees of freedom) or from empirical
calibration.  The chi-squared machinery is self-contained: regularized
incomplete gamma by series/continued fraction, quantiles by bracketed
bisection polished with Newton steps.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping

from .balance import BalanceProfile

_TOL = 1e-16
_MAX_ITER = 500


def reg_lower_incomplete_gamma(s: float, x: float) -> float:
    """Regularized lower incomplete gamma P(s, x) = gamma(s, x) / Gamma(s).

    Series expansion for x < s + 1, continued fraction (modified Lentz) for
    the upper tail otherwise.  Both run in the log domain to dodge overflow.
    Absolute error is at machine-precision level, comfortably below 1e-12.
    """
    if s <= 0:
        raise ValueError(f"shape must be positive, got {s}")
    if x < 0:
        raise ValueError(f"argument must be nonnegative, got {x}")
    if x == 0.0:
        return 0.0
    if math.isinf(x):
        return 1.0
    if x < s + 1.0:
        return _lower_series(s, x)
    return 1.0 - _upper_continued_fraction(s, x)


def _lower_series(s: float, x: float) -> float:
    # P(s,x) = x^s e^-x / Gamma(s) * sum_k x^k / (s(s+1)...(s+k))
    term = 1.0 / s
    total = term
    k = s
    for _ in range(_MAX_ITER):
        k += 1.0
        term *= x / k
        total += term
        if abs(term) < abs(total) * _TOL:
            break
    log_prefix = s * math.log(x) - x - math.lgamma(s)
    value = total * math.exp(log_prefix)
    return min(max(value, 0.0), 1.0)


def _upper_continued_fraction(s: float, x: float) -> float:
    # Q(s,x) = x^s e^-x / Gamma(s) * 1/(x+1-s- 1(1-s)/(x+3-s- ...)), Lentz's method
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b if b != 0.0 else 1.0 / tiny
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _TOL:
            break
    log_prefix = s * math.log(x) - x - math.lgamma(s)
    value = h * math.exp(log_prefix)
    return min(max(value, 0.0), 1.0)


def chi2_cdf(p: int, x: float) -> float:
    """CDF of the chi-squared distribution with p degrees of freedom."""
    p = _check_df(p)
    if x < 0:
        raise ValueError(f"chi-squared argument must be nonnegative, got {x}")
    return reg_lower_incomplete_gamma(p / 2.0, x / 2.0)


def chi2_pdf(p: int, x: float) -> float:
    p = _check_df(p)
    if x < 0:
        raise ValueError(f"chi-squared argument must be nonnegative, got {x}")
    if x == 0.0:
        return math.inf if p == 1 else (0.5 if p == 2 else 0.0)
    h = p / 2.0
    return math.exp((h - 1.0) * math.log(x) - x / 2.0 - math.lgamma(h) - h * math.log(2.0))


@functools.lru_cache(maxsize=256)
def chi2_quantile(p: int, prob: float) -> float:
    """Inverse chi-squared CDF, accurate to ~1e-10 in probability.

    Bisection on an expanding bracket pins the root to ~1e-13 relative, then
    a few Newton steps with the density sharpen it.  Memoized: every engine
    call resolves the same thresholds several times.
    """
    p = _check_df(p)
    if not 0.0 < prob < 1.0:
        raise ValueError(f"probability must be in (0, 1), got {prob}")
    lo = 0.0
    hi = p + 10.0 * math.sqrt(2.0 * p) + 10.0
    for _ in range(200):
        if chi2_cdf(p, hi) >= prob:
            break
        hi *= 2.0
    else:
        raise ValueError(f"failed to bracket quantile for p={p}, prob={prob}")
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if chi2_cdf(p, mid) < prob:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * max(hi, 1.0):
            break
    x = 0.5 * (lo + hi)
    for _ in range(4):
        f = chi2_cdf(p, x) - prob
        df = chi2_pdf(p, x)
        if df <= 0.0 or not math.isfinite(df):
            break
        step = f / df
        nxt = x - step
        if not lo <= nxt <= hi:
            break
        x = nxt
        if abs(step) <= 1e-15 * max(x, 1.0):
            break
    return x


def _check_df(p: int) -> int:
    if isinstance(p, bool) or (not isinstance(p, int) and float(p) != int(p)):
        raise ValueError(f"degrees of freedom must be a positive integer, got {p!r}")
    p = int(p)
    if p < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {p}")
    return p


@dataclass(frozen=True)
class VarianceFactor:
    """Residual variance fraction v_a of a truncated chi-squared criterion.

    Accepting only distances below a shrinks the variance of each monitored
    mean difference by the factor ``value``; 100 * (1 - value) is the percent
    reduction relative to pure randomization.
    """

    p: int
    threshold: float
    value: float

    @property
    def percent_reduction(self) -> float:
        return 100.0 * (1.0 - self.value)


def variance_factor(p: int, a: float) -> VarianceFactor:
    """v_a = P(p/2+1, a/2) / P(p/2, a/2), the chi-squared truncation factor."""
    p = _check_df(p)
    if a <= 0:
        raise ValueError(f"threshold must be positive, got {a}")
    if math.isinf(a):
        return VarianceFactor(p=p, threshold=a, value=1.0)
    num = reg_lower_incomplete_gamma(p / 2.0 + 1.0, a / 2.0)
    den = reg_lower_incomplete_gamma(p / 2.0, a / 2.0)
    if den == 0.0:
        # a underflowed both tails; the limit a -> 0 is 0
        return VarianceFactor(p=p, threshold=a, value=0.0)
    return VarianceFactor(p=p, threshold=a, value=num / den)


class ThresholdMode(str, Enum):
    CHI_SQUARED = "chi2"
    EMPIRICAL = "empirical"


@dataclass(frozen=True)
class Tier:
    """A group of effects sharing one acceptance setting.

    Give either a direct threshold ``a`` or a joint acceptance probability
    ``joint_prob`` for the whole tier; with m effects in the tier the latter
    resolves to per-effect quantile q^(1/m), so the tier as a block passes
    with probability q.
    """

    name: str
    effects: tuple[str, ...]
    a: float | None = None
    joint_prob: float | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tier name must be nonempty")
        if isinstance(self.effects, str):
            raise ValueError(
                f"tier {self.name!r}: effects must be a list of effect names, "
                f"got the string {self.effects!r}"
            )
        object.__setattr__(self, "effects", tuple(self.effects))
        if not self.effects:
            raise ValueError(f"tier {self.name!r} lists no effects")
        if len(set(self.effects)) != len(self.effects):
            raise ValueError(f"tier {self.name!r} repeats an effect")
        if (self.a is None) == (self.joint_prob is None):
            raise ValueError(f"tier {self.name!r} needs exactly one of a threshold or a joint probability")
        # float(True) is 1.0: a JSON true would run as threshold 1.
        if self.a is not None and (isinstance(self.a, bool) or not self.a > 0):
            raise ValueError(f"tier {self.name!r}: threshold must be a positive number, got {self.a!r}")
        if self.joint_prob is not None and not 0.0 < self.joint_prob < 1.0:
            raise ValueError(
                f"tier {self.name!r}: joint probability must be in (0, 1), got {self.joint_prob}"
            )


@dataclass(frozen=True)
class AcceptanceRule:
    """Tiered acceptance rule over monitored effects, with p balance covariates."""

    tiers: tuple[Tier, ...]
    p: int
    mode: ThresholdMode = ThresholdMode.CHI_SQUARED

    def __post_init__(self) -> None:
        object.__setattr__(self, "tiers", tuple(self.tiers))
        object.__setattr__(self, "mode", ThresholdMode(self.mode))
        if not self.tiers:
            raise ValueError("acceptance rule needs at least one tier")
        if not isinstance(self.p, int) or isinstance(self.p, bool) or self.p < 1:
            raise ValueError(f"covariate count must be a positive integer, got {self.p!r}")
        seen: set[str] = set()
        for tier in self.tiers:
            dup = seen.intersection(tier.effects)
            if dup:
                raise ValueError(f"effect {sorted(dup)[0]!r} appears in more than one tier")
            seen.update(tier.effects)
        if self.mode is ThresholdMode.EMPIRICAL:
            for tier in self.tiers:
                if tier.a is None:
                    raise ValueError(
                        f"tier {tier.name!r}: empirical mode needs explicit thresholds; "
                        "run calibration first"
                    )

    @property
    def monitored_effects(self) -> tuple[str, ...]:
        out: list[str] = []
        for tier in self.tiers:
            out.extend(tier.effects)
        return tuple(out)

    @classmethod
    def from_thresholds(
        cls,
        thresholds: Mapping[str, float],
        p: int,
        mode: ThresholdMode = ThresholdMode.EMPIRICAL,
    ) -> "AcceptanceRule":
        """One single-effect tier per entry, with direct thresholds."""
        tiers = tuple(
            Tier(name=effect, effects=(effect,), a=float(a)) for effect, a in thresholds.items()
        )
        return cls(tiers=tiers, p=p, mode=mode)


def resolve_thresholds(rule: AcceptanceRule) -> dict[str, float]:
    """Per-effect thresholds implied by the rule's tiers."""
    out: dict[str, float] = {}
    for tier in rule.tiers:
        if tier.a is not None:
            a = float(tier.a)
        else:
            per_effect = tier.joint_prob ** (1.0 / len(tier.effects))
            a = chi2_quantile(rule.p, per_effect)
        for effect in tier.effects:
            out[effect] = a
    return out


def acceptance_probability(thresholds: Mapping[str, float], p: int) -> float:
    """Product of per-effect chi-squared acceptance probabilities (1 for no thresholds)."""
    prob = 1.0
    for a in thresholds.values():
        prob *= chi2_cdf(p, a) if not math.isinf(a) else 1.0
    return prob


def implied_acceptance_probability(rule: AcceptanceRule) -> float:
    """Product of per-effect chi-squared acceptance probabilities.

    For probability-specified tiers this is exactly the product of the tier
    joint probabilities; for direct thresholds (including calibrated ones)
    it is the chi-squared reference approximation.
    """
    return acceptance_probability(resolve_thresholds(rule), rule.p)


def accept(profile: BalanceProfile, rule: AcceptanceRule) -> bool:
    """True when every monitored effect's distance is at or below its threshold."""
    thresholds = resolve_thresholds(rule)
    for effect, a in thresholds.items():
        if profile.m(effect) > a:
            return False
    return True
