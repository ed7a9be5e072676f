"""Rerandomization, effect estimation, and randomization inference.

The rerandomizer is a rejection sampler: draw balanced allocations, score
every monitored effect, keep the first draw that clears all thresholds.  A
candidate is split into its allocation only as far as its effects need
(see ``sampling``), which rejects exactly the candidates a score of the
whole allocation would.  No partial repair of rejected draws, so accepted
allocations follow the uniform distribution conditioned on acceptance.  That holds only
if one rule decides acceptance, so the kernel's screen is the only judge:
``rerandomize`` is ``sampling.collect`` of one draw, and
``randomization_test`` vets the observed allocation with the same screen.
Inference reuses the same accepted-allocation distribution as its reference
set.

Every caller in the package gets its scoring kernel from ``_prepare``:
``rerandomize``, ``randomization_test``, both halves of a variance study,
the independence study, calibration and ``rerand diagnose``.  The kernel
holds the model matrix, the fitted covariance and the thresholds.  That
state depends only on the covariates object, the design and the rule, so it
is built once and reused by every later call on the same three, for as long
as the covariates object lives.  Pure draws and calibration pass no rule and
get the kernel with no thresholds for the covariates and design.  Reuse
changes no output: a warm call gives the bits of a cold one.
"""

from __future__ import annotations

import logging
import threading
import time
import weakref
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import sampling
from .assignment import Allocation, AssignmentMatrix, expand_assignment
from .balance import (
    BalanceProfile,
    CovariateMatrix,
    balance_profile,
    fit_covariance,
)
from .criteria import AcceptanceRule, ThresholdMode, resolve_thresholds
from .design import DesignSpec, build_design_matrix, check_effects, expand_model_matrix
from .errors import DimensionMismatch, MaxDrawsExceeded

logger = logging.getLogger(__name__)

DEFAULT_MAX_DRAWS = 1_000_000


@dataclass(frozen=True, eq=False)
class RerandomizationResult:
    """An accepted allocation plus everything needed to audit the run.

    ``profile`` is ``balance_profile``'s score of the winner, the same bits as
    ``rerand diagnose`` prints.  The screen that accepted the winner scored it
    inside a block of candidates, with its float operations in another order,
    so a reported distance can differ from the one the screen compared with
    its threshold by rounding (about 1e-15 relative at the paper's scale).
    """

    allocation: Allocation
    assignment: AssignmentMatrix
    profile: BalanceProfile
    rule: AcceptanceRule
    thresholds: dict[str, float]
    draws_attempted: int
    acceptance_probability: float
    elapsed_seconds: float
    seed: int
    workers: int

    def manifest(self, version: str | None = None) -> dict:
        """Machine-readable summary for the run manifest file."""
        tiers = []
        for tier in self.rule.tiers:
            a = self.thresholds[tier.effects[0]]
            tiers.append(
                {
                    "name": tier.name,
                    "effects": list(tier.effects),
                    "joint_prob": tier.joint_prob,
                    "a": a,
                }
            )
        return {
            "design": {
                "k": self.allocation.spec.k,
                "r": self.allocation.spec.r,
                "n": self.allocation.spec.n,
                "order": self.allocation.spec.order.value,
                "factor_names": list(self.allocation.spec.factor_names),
            },
            "rule": {"mode": self.rule.mode.value, "p": self.rule.p, "tiers": tiers},
            "seed": self.seed,
            "sampler": sampling.SAMPLER,
            "workers": self.workers,
            "draws_attempted": self.draws_attempted,
            "implied_acceptance_probability": self.acceptance_probability,
            "distances": {e: self.profile.m(e) for e in self.rule.monitored_effects},
            "elapsed_seconds": self.elapsed_seconds,
            "version": version,
        }


# The kernel prepared for each covariates object: x -> {(spec, rule): kernel}.
# Weak keys drop an entry with the caller's covariates, and a kernel holds no
# reference back to x, so no entry outlives it.
_kernels: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_kernels_lock = threading.Lock()


def _prepare(
    x: CovariateMatrix, spec: DesignSpec, rule: AcceptanceRule | None = None
) -> sampling.BalanceKernel:
    """The scoring kernel for one covariates object, design and rule.

    The only way the package builds a kernel.  With no rule the kernel has
    no thresholds, and its screen passes every draw: pure draws and
    calibration use it.  Callers read the model matrix from ``kernel.mm``
    and copy ``kernel.thresholds`` into their results.

    The kernel is built once and reused while ``x`` lives: ``x`` is
    immutable, ``spec`` and ``rule`` are frozen values, and the kernel is
    read-only apart from its per-thread scratch.  A call that raises stores
    nothing.
    """
    key = (spec, rule)
    with _kernels_lock:
        entries = _kernels.get(x)
        kernel = None if entries is None else entries.get(key)
        if kernel is None:
            kernel = _fit(x, spec, rule)
            if entries is None:
                _kernels[x] = {key: kernel}
            else:
                entries[key] = kernel
    return kernel


def _fit(
    x: CovariateMatrix, spec: DesignSpec, rule: AcceptanceRule | None
) -> sampling.BalanceKernel:
    if x.n != spec.n:
        raise DimensionMismatch(
            f"covariates have {x.n} rows but the design allocates {spec.n} units"
        )
    if rule is not None and rule.p != x.p:
        raise DimensionMismatch(
            f"acceptance rule expects {rule.p} covariates, covariate matrix has {x.p}"
        )
    mm = expand_model_matrix(build_design_matrix(spec))
    thresholds: dict[str, float] = {}
    if rule is not None:
        check_effects(rule.monitored_effects, mm.effect_labels)
        thresholds = resolve_thresholds(rule)
    return sampling.BalanceKernel(x, spec, mm, fit_covariance(x), thresholds)


def rerandomize(
    x: CovariateMatrix,
    spec: DesignSpec,
    rule: AcceptanceRule,
    seed: int,
    max_draws: int = DEFAULT_MAX_DRAWS,
    workers: int = 1,
) -> RerandomizationResult:
    """Draw balanced allocations until one passes the acceptance rule.

    One accepted draw of ``sampling.collect``, in ``ENGINE_BATCH``-row
    batches: the kernel's screen decides acceptance, and the winner is the
    lowest-index candidate it passes.  Deterministic given the seed:
    candidate batches are keyed by global index, so worker count affects wall
    time only.  The winner is then scored once with ``balance_profile``, for
    its report only.  Raises MaxDrawsExceeded when the budget runs out.
    """
    if max_draws < 1:
        raise ValueError(f"max_draws must be positive, got {max_draws}")
    t0 = time.perf_counter()
    kernel = _prepare(x, spec, rule)
    prob = kernel.prob
    if rule.mode is ThresholdMode.CHI_SQUARED:
        logger.info("implied acceptance probability %.6g", prob)
        if prob > 0 and 1.0 / prob > max_draws / 10.0:
            logger.warning(
                "expected draws (~%.0f) exceed a tenth of the budget (%d); "
                "the run may exhaust max_draws",
                1.0 / prob,
                max_draws,
            )

    try:
        rows, draws_attempted = sampling.collect(
            kernel, lambda rows: rows, seed, sampling.PURPOSE_RERANDOMIZE, 1, max_draws,
            workers, batch=sampling.ENGINE_BATCH,
        )
    except MaxDrawsExceeded:
        raise MaxDrawsExceeded(
            f"no acceptable allocation within {max_draws} draws "
            f"(implied acceptance probability {prob:.3g})"
        ) from None
    alloc = Allocation(
        spec=spec,
        combo_of_unit=rows[0],
        seed_info={
            "seed": seed,
            "batch": (draws_attempted - 1) // sampling.ENGINE_BATCH,
            "draws_attempted": draws_attempted,
        },
    )
    w = expand_assignment(alloc, kernel.mm)
    return RerandomizationResult(
        allocation=alloc,
        assignment=w,
        profile=balance_profile(x, w, rule.monitored_effects, cm=kernel.cm),
        rule=rule,
        thresholds=dict(kernel.thresholds),
        draws_attempted=draws_attempted,
        acceptance_probability=prob,
        elapsed_seconds=time.perf_counter() - t0,
        seed=seed,
        workers=workers,
    )


@dataclass(frozen=True, eq=False)
class EffectEstimates:
    """Difference-in-means estimates for a set of factorial effects."""

    effects: tuple[str, ...]
    estimates: dict[str, float]
    high_means: dict[str, float]
    low_means: dict[str, float]

    def estimate(self, effect: str) -> float:
        try:
            return self.estimates[effect]
        except KeyError:
            raise ValueError(f"no estimate for effect {effect!r}") from None


def estimate_effects(
    y_obs: np.ndarray, w: AssignmentMatrix, effects: Sequence[str]
) -> EffectEstimates:
    """Estimate each effect as the +group/-group outcome mean difference.

    Identical to (2/n) y . w_f for balanced designs; computed both ways and
    cross-checked.
    """
    y = np.ascontiguousarray(y_obs, dtype=np.float64)
    if y.ndim != 1 or y.shape[0] != w.n:
        raise DimensionMismatch(f"outcomes have shape {y.shape}, expected ({w.n},)")
    labels = check_effects(effects, w.labels[1:])
    estimates: dict[str, float] = {}
    high: dict[str, float] = {}
    low: dict[str, float] = {}
    scale = max(1.0, float(np.max(np.abs(y))))
    for label in labels:
        col = w.column(label)
        hi = float(y[col > 0].mean())
        lo = float(y[col < 0].mean())
        inner = float((2.0 / w.n) * (y @ col))
        if abs(inner - (hi - lo)) > 1e-10 * scale:
            raise ValueError(
                f"assignment column {label!r} is not balanced: the group-mean "
                f"difference {hi - lo!r} disagrees with (2/n) y.w = {inner!r}"
            )
        estimates[label] = hi - lo
        high[label] = hi
        low[label] = lo
    return EffectEstimates(effects=labels, estimates=estimates, high_means=high, low_means=low)


@dataclass(frozen=True, eq=False)
class RandomizationTestResult:
    """Randomization test of the sharp null over the accepted-allocation set."""

    effects: tuple[str, ...]
    observed: dict[str, float]
    p_values: dict[str, float]
    null_summary: dict[str, dict[str, float]]
    n_reference: int
    draws_scanned: int
    seed: int

    def p_value(self, effect: str) -> float:
        try:
            return self.p_values[effect]
        except KeyError:
            raise ValueError(f"no test for effect {effect!r}") from None

    def to_dict(self) -> dict:
        return {
            "effects": list(self.effects),
            "observed": self.observed,
            "p_values": self.p_values,
            "null_summary": self.null_summary,
            "n_reference": self.n_reference,
            "draws_scanned": self.draws_scanned,
            "seed": self.seed,
            "sampler": sampling.SAMPLER,
        }


def _null_summary(null_stats: np.ndarray, labels: tuple[str, ...]) -> dict[str, dict[str, float]]:
    """Mean, sd and 2.5/50/97.5 % quantiles of each column of a (draws, effects) table.

    One ``quantile`` call sorts every column; each column's quantiles equal a
    call on that column alone.  Means stay per column: an axis-0 mean sums in
    another order and can round differently in the last bit.
    """
    q = np.quantile(null_stats, [0.025, 0.5, 0.975], axis=0)
    summary: dict[str, dict[str, float]] = {}
    for j, lab in enumerate(labels):
        col = null_stats[:, j]
        summary[lab] = {
            "mean": float(col.mean()),
            "sd": float(col.std(ddof=1)),
            "q025": float(q[0, j]),
            "median": float(q[1, j]),
            "q975": float(q[2, j]),
        }
    return summary


def randomization_test(
    y_obs: np.ndarray,
    alloc_obs: Allocation,
    x: CovariateMatrix,
    rule: AcceptanceRule,
    effects: Sequence[str],
    n_draws: int,
    seed: int,
    max_draws: int = 10 * DEFAULT_MAX_DRAWS,
    workers: int = 1,
) -> RandomizationTestResult:
    """Test the sharp null of no effect, restricted to accepted allocations.

    Reference allocations are drawn by the same rejection sampler that
    produced the observed one; under the sharp null the observed outcomes are
    fixed, so each reference draw just relabels groups.  Two-sided p-values
    use the add-one convention: (1 + #{|t*| >= |t_obs|}) / (1 + n_draws).
    """
    if n_draws < 100:
        raise ValueError(f"need at least 100 reference draws for stable p-values, got {n_draws}")
    spec = alloc_obs.spec
    kernel = _prepare(x, spec, rule)
    mm = kernel.mm
    y = np.ascontiguousarray(y_obs, dtype=np.float64)
    if y.ndim != 1 or y.shape[0] != spec.n:
        raise DimensionMismatch(f"outcomes have shape {y.shape}, expected ({spec.n},)")
    labels = check_effects(effects, mm.effect_labels)
    if kernel.passing(alloc_obs.combo_of_unit[None, :]).size == 0:
        raise ValueError(
            "observed allocation fails the acceptance rule; the reference "
            "distribution would not contain it"
        )
    observed = estimate_effects(y, expand_assignment(alloc_obs, mm), labels).estimates

    def statistics(rows: np.ndarray) -> np.ndarray:
        # einsum reduces each row on its own, so a row's statistic does not
        # depend on its block's row count (a BLAS product's can).  A reference
        # draw that splits the units like the observed one, or its mirror,
        # then ties |t_obs| exactly and is counted.
        stats = np.empty((rows.shape[0], len(labels)))
        for j, lab in enumerate(labels):
            stats[:, j] = np.einsum("bn,n->b", kernel.sign_lookup(lab)[rows], y) * (2.0 / spec.n)
        return stats

    t_obs = np.abs(statistics(alloc_obs.combo_of_unit[None, :])[0])
    null_stats, scanned = sampling.collect(
        kernel, statistics, seed, sampling.PURPOSE_REFERENCE, n_draws, max_draws, workers
    )

    exceed = np.count_nonzero(np.abs(null_stats) >= t_obs, axis=0)
    p_values = {lab: (1.0 + int(exceed[j])) / (1.0 + n_draws) for j, lab in enumerate(labels)}
    return RandomizationTestResult(
        effects=labels,
        observed=observed,
        p_values=p_values,
        null_summary=_null_summary(null_stats, labels),
        n_reference=n_draws,
        draws_scanned=scanned,
        seed=seed,
    )
