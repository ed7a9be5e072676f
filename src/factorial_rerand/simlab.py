"""Monte Carlo laboratory: potential outcomes, distributional studies, calibration.

Everything here treats the finite population as fixed and the allocation as
the only source of randomness, matching the design-based view the engine
implements.  The studies quantify what acceptance filtering does to mean
differences and effect estimates; the synthetic school-district generator
provides a realistic covariate battery at full scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from . import engine, sampling
from .balance import CovariateMatrix, squared_distance
from .criteria import AcceptanceRule, VarianceFactor, variance_factor
from .design import DesignSpec, ModelMatrix, check_effects, effect_index
from .errors import DimensionMismatch
from .assignment import Allocation


# ---------------------------------------------------------------------------
# Potential outcomes


@dataclass(frozen=True, eq=False)
class OutcomeModel:
    """Linear outcome model: constant factorial effects plus covariate signal.

    Unit i assigned to combination j realizes

        y = (cell mean of j) + x_i . beta + noise_i

    with iid normal noise.  Give the noise scale directly via ``sigma``, or
    give ``target_r2`` to solve for the scale that makes the covariate signal
    explain that fraction of unit-level outcome variance.
    """

    effects: Mapping[str, float]
    beta: np.ndarray
    grand_mean: float = 0.0
    sigma: float | None = None
    target_r2: float | None = None

    def __post_init__(self) -> None:
        # float(True) is 1.0: a JSON true would pass for the number 1.
        if any(map(_is_bool, np.asarray(self.beta, dtype=object).ravel())):
            raise ValueError(f"beta entries must be numbers, got {self.beta!r}")
        for name in ("grand_mean", "sigma", "target_r2"):
            if _is_bool(getattr(self, name)):
                raise ValueError(f"{name} must be a number, got {getattr(self, name)!r}")
        beta = np.ascontiguousarray(self.beta, dtype=np.float64)
        if beta.ndim != 1:
            raise DimensionMismatch(f"beta must be 1-d, got shape {beta.shape}")
        beta.setflags(write=False)
        object.__setattr__(self, "beta", beta)
        if not isinstance(self.effects, Mapping):
            raise ValueError(f"effects must map effect names to sizes, got {self.effects!r}")
        for name, size in self.effects.items():
            if _is_bool(size):
                raise ValueError(f"effect size for {name!r} must be a number, got {size!r}")
        object.__setattr__(self, "effects", {str(k): float(v) for k, v in self.effects.items()})
        object.__setattr__(self, "grand_mean", float(self.grand_mean))
        if not np.all(np.isfinite([*beta, self.grand_mean, *self.effects.values()])):
            raise ValueError("beta, grand_mean and effect sizes must be finite")
        if (self.sigma is None) == (self.target_r2 is None):
            raise ValueError("give exactly one of sigma or target_r2")
        if self.sigma is not None and not 0 <= self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and nonnegative, got {self.sigma}")
        if self.target_r2 is not None and not 0.0 <= self.target_r2 < 1.0:
            raise ValueError(f"target R^2 must be in [0, 1), got {self.target_r2}")


def _is_bool(value: object) -> bool:
    return isinstance(value, (bool, np.bool_))


@dataclass(frozen=True, eq=False)
class PotentialOutcomes:
    """Fixed table of all 2^K potential outcomes per unit.

    ``unit_effects`` holds each unit's effect vector in model-matrix
    coordinates (mean level first, then half of each factorial effect), so
    the table factors exactly as ``table = unit_effects @ mm.entries.T``.
    ``estimands`` are the finite-population averages on the effect scale.
    """

    mm: ModelMatrix
    table: np.ndarray
    unit_effects: np.ndarray
    estimands: dict[str, float]
    info: dict[str, Any] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.table.shape[0]

    def observe(self, alloc: Allocation) -> np.ndarray:
        """Outcomes revealed by one allocation."""
        if alloc.spec.k != self.mm.k:
            raise DimensionMismatch(
                f"allocation is for K={alloc.spec.k} but outcomes have K={self.mm.k}"
            )
        if alloc.n != self.n:
            raise DimensionMismatch(f"allocation covers {alloc.n} units, outcomes {self.n}")
        return self.table[np.arange(self.n), alloc.combo_of_unit - 1]


def true_estimands(table: np.ndarray, mm: ModelMatrix) -> dict[str, float]:
    """Finite-population estimands: each effect's average potential contrast.

    The mean level divides by 2^K, every factorial effect by 2^(K-1) (each
    effect contrast averages the +1 half against the -1 half of the row).
    """
    ybar = np.asarray(table, dtype=np.float64).mean(axis=0)
    m = mm.n_combinations
    cols = mm.entries.astype(np.float64)
    out: dict[str, float] = {}
    for idx, label in enumerate(mm.labels):
        scale = m if idx == 0 else m / 2.0
        out[label] = float(ybar @ cols[:, idx] / scale)
    return out


def generate_potential_outcomes(
    model: OutcomeModel,
    x: CovariateMatrix,
    mm: ModelMatrix,
    rng: np.random.Generator,
) -> PotentialOutcomes:
    """Materialize the full outcome table for a linear model.

    When ``target_r2`` is set, the noise scale solves the unit-level variance
    split var(X beta) / (var(X beta) + sigma^2) = R^2 using the realized
    sample variance of X beta (divisor n-1), so the decomposition the studies
    report refers to this exact population rather than a hypothetical one.
    """
    if model.beta.shape[0] != x.p:
        raise DimensionMismatch(
            f"beta has {model.beta.shape[0]} entries for {x.p} covariates"
        )
    theta_vec = np.zeros(mm.n_combinations)
    theta_vec[0] = model.grand_mean
    for name, value in model.effects.items():
        theta_vec[effect_index(mm, name)] = value / 2.0
    cell_means = mm.entries.astype(np.float64) @ theta_vec
    xb = x.entries @ model.beta
    if model.sigma is not None:
        sigma = float(model.sigma)
    else:
        var_xb = float(xb.var(ddof=1)) if x.n > 1 else 0.0
        r2 = float(model.target_r2)
        if var_xb == 0.0:
            raise ValueError(
                "covariate signal has zero variance; target_r2 cannot be met, give sigma directly"
            )
        if r2 == 0.0:
            raise ValueError(
                "target_r2=0 needs infinite noise while covariates carry signal; give sigma directly"
            )
        sigma = math.sqrt(var_xb * (1.0 - r2) / r2)
    noise = rng.normal(0.0, sigma, size=x.n) if sigma > 0 else np.zeros(x.n)
    unit_shift = xb + noise
    table = cell_means[None, :] + unit_shift[:, None]
    unit_effects = table @ mm.entries.astype(np.float64) / mm.n_combinations
    table.setflags(write=False)
    unit_effects.setflags(write=False)
    po = PotentialOutcomes(
        mm=mm,
        table=table,
        unit_effects=unit_effects,
        estimands=true_estimands(table, mm),
        info={
            "sigma": sigma,
            "target_r2": model.target_r2,
            "grand_mean": model.grand_mean,
        },
    )
    po.info["realized_r2"] = unit_level_r2(po, x)
    return po


def unit_level_r2(po: PotentialOutcomes, x: CovariateMatrix) -> float:
    """Squared multiple correlation between unit outcome levels and covariates.

    The unit level (row mean of the outcome table) is what covariates can
    explain; treatment contrasts average out of it.  This realized R^2 is the
    one the variance predictions use.
    """
    if po.n != x.n:
        raise DimensionMismatch(f"outcomes cover {po.n} units, covariates {x.n}")
    u = po.table.mean(axis=1)
    sst = float(((u - u.mean()) ** 2).sum())
    if sst == 0.0:
        return 0.0
    z = np.column_stack([np.ones(x.n), x.entries])
    coef, *_ = np.linalg.lstsq(z, u, rcond=None)
    resid = u - z @ coef
    return 1.0 - float((resid**2).sum()) / sst


# ---------------------------------------------------------------------------
# Distributional studies


@dataclass(frozen=True, eq=False)
class StudyReport:
    """Side-by-side Monte Carlo comparison of pure vs accepted allocations.

    Mean-difference variances are tabulated per (effect, covariate) with the
    theoretical percent reduction for monitored effects; estimator variances
    are tabulated per effect with their predicted shrink.  Arrays are indexed
    ``[effect, covariate]`` in the order of ``effect_labels`` and
    ``covariate_names``.
    """

    covariate_names: tuple[str, ...]
    effect_labels: tuple[str, ...]
    effect_orders: tuple[int, ...]
    monitored: tuple[str, ...]
    thresholds: dict[str, float]
    n_reps: int
    seed: int
    acceptance_rate: float
    draws_scanned: int
    d_var_pure: np.ndarray
    d_var_accepted: np.ndarray
    d_pct_reduction: np.ndarray
    d_mean_accepted: np.ndarray
    d_mean_se: np.ndarray
    variance_factors: dict[str, VarianceFactor]
    reduction_theory: dict[str, float]
    theta_var_pure: np.ndarray | None = None
    theta_var_accepted: np.ndarray | None = None
    theta_ratio: np.ndarray | None = None
    theta_ratio_theory: dict[str, float] | None = None
    theta_mean_accepted: np.ndarray | None = None
    theta_mean_se: np.ndarray | None = None
    theta_corr: np.ndarray | None = None
    estimands: dict[str, float] | None = None
    r2_target: float | None = None
    r2_realized: float | None = None

    def effect_column(self, label: str) -> int:
        try:
            return self.effect_labels.index(label)
        except ValueError:
            raise ValueError(f"study does not cover effect {label!r}") from None

    def reduction_rows(self) -> list[dict[str, Any]]:
        """Flat per-(covariate, effect) percent-reduction table."""
        rows: list[dict[str, Any]] = []
        for ei, eff in enumerate(self.effect_labels):
            mon = eff in self.monitored
            theory = self.reduction_theory.get(eff, 0.0)
            for ci, cov in enumerate(self.covariate_names):
                rows.append(
                    {
                        "covariate": cov,
                        "effect": eff,
                        "effect_order": self.effect_orders[ei],
                        "monitored": mon,
                        "var_pure": float(self.d_var_pure[ei, ci]),
                        "var_accepted": float(self.d_var_accepted[ei, ci]),
                        "pct_reduction": float(self.d_pct_reduction[ei, ci]),
                        "pct_reduction_theory": theory,
                    }
                )
        return rows

    def estimator_rows(self) -> list[dict[str, Any]]:
        if self.theta_ratio is None:
            return []
        rows: list[dict[str, Any]] = []
        for ei, eff in enumerate(self.effect_labels):
            rows.append(
                {
                    "effect": eff,
                    "effect_order": self.effect_orders[ei],
                    "monitored": eff in self.monitored,
                    "var_pure": float(self.theta_var_pure[ei]),
                    "var_accepted": float(self.theta_var_accepted[ei]),
                    "var_ratio": float(self.theta_ratio[ei]),
                    "var_ratio_theory": self.theta_ratio_theory[eff],
                    "mean_accepted": float(self.theta_mean_accepted[ei]),
                    "mean_se": float(self.theta_mean_se[ei]),
                    "estimand": self.estimands[eff] if self.estimands else None,
                }
            )
        return rows

    def mean_reduction_by_order(self) -> dict[int, float]:
        """Average percent reduction across covariates, grouped by interaction order."""
        orders = sorted(set(self.effect_orders))
        out: dict[int, float] = {}
        for o in orders:
            mask = [i for i, eo in enumerate(self.effect_orders) if eo == o]
            out[o] = float(self.d_pct_reduction[mask, :].mean())
        return out

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {
            "covariates": list(self.covariate_names),
            "effects": list(self.effect_labels),
            "monitored": list(self.monitored),
            "thresholds": self.thresholds,
            "n_reps": self.n_reps,
            "seed": self.seed,
            "sampler": sampling.SAMPLER,
            "acceptance_rate": self.acceptance_rate,
            "draws_scanned": self.draws_scanned,
            "reduction_theory": self.reduction_theory,
            "reduction_table": self.reduction_rows(),
            "r2_target": self.r2_target,
            "r2_realized": self.r2_realized,
        }
        if self.theta_ratio is not None:
            d["estimator_table"] = self.estimator_rows()
            d["estimator_correlations"] = np.asarray(self.theta_corr).tolist()
            d["estimands"] = self.estimands
        return d


def variance_study(
    spec: DesignSpec,
    x: CovariateMatrix,
    rule: AcceptanceRule,
    model: OutcomeModel | None,
    n_reps: int,
    seed: int,
    *,
    effects: Sequence[str] | None = None,
    report_x: CovariateMatrix | None = None,
    workers: int = 1,
    max_draws: int | None = None,
) -> StudyReport:
    """Compare pure randomization with acceptance sampling, n_reps draws each.

    ``report_x`` may widen the covariate set whose mean differences are
    tabulated (e.g. unmonitored covariates that should inherit balance);
    scoring against the rule always uses ``x``.  With a model, effect
    estimates are tracked per draw and their variances compared against the
    predicted shrink; without one the study is covariate-only.

    Estimate = estimand + unit-level mean difference.  The model's table is
    y_i(j) = mu_j + u_i, so effect f's estimate (2/n) sum_i s_f(c_i) y_i(c_i)
    is theta_f, exactly, under any balanced allocation, plus the mean
    difference (2/n) sum_i s_f(c_i) u_i of the unit level u (the row mean).
    So u is scored as one more column beside the report covariates.  Only
    u's covariate-explained share shrinks, by v_a, which is why the predicted
    ratio 1 - (1 - v_a) R^2 takes R^2 on the unit level (``unit_level_r2``).
    """
    if n_reps < 2:
        raise ValueError(f"need at least 2 replications, got {n_reps}")
    kernel = engine._prepare(x, spec, rule)
    mm, thresholds = kernel.mm, dict(kernel.thresholds)
    labels = check_effects(mm.effect_labels if effects is None else effects, mm.effect_labels)
    rx = report_x if report_x is not None else x
    if rx.n != x.n:
        raise DimensionMismatch("report covariates must cover the same units")
    cols = rx.centered()
    n_cov = rx.p

    po = None
    if model is not None:
        rng_po = sampling.batch_rng(seed, sampling.PURPOSE_OUTCOMES, 0)
        po = generate_potential_outcomes(model, x, mm, rng_po)
        level = po.table.mean(axis=1)
        cols = np.column_stack((cols, level - level.mean()))

    if max_draws is None:
        per_accept = 1.0 / max(kernel.prob, 1e-12)
        max_draws = max(1_000_000, int(12 * n_reps * per_accept))

    def batch_stats(combos: np.ndarray) -> np.ndarray:
        return np.stack([kernel.mean_diffs(combos, lab, cols) for lab in labels], axis=1)

    # The accepted half runs first, so the first kernel to screen is the one
    # holding the rule's thresholds.
    s_acc, scanned = sampling.collect(
        kernel, batch_stats, seed, sampling.PURPOSE_STUDY_ACCEPTED, n_reps, max_draws, workers
    )
    s_pure, _ = sampling.collect(
        engine._prepare(x, spec), batch_stats, seed, sampling.PURPOSE_STUDY_PURE, n_reps,
        n_reps, workers,
    )

    d_pure, d_acc = s_pure[:, :, :n_cov], s_acc[:, :, :n_cov]
    var_pure = d_pure.var(axis=0, ddof=1)
    var_acc = d_acc.var(axis=0, ddof=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        pct = 100.0 * (1.0 - var_acc / var_pure)
    factors = {lab: variance_factor(x.p, thresholds[lab]) for lab in rule.monitored_effects}
    theory = {lab: vf.percent_reduction for lab, vf in factors.items()}
    orders = tuple(mm.interaction_order(lab) for lab in labels)

    kwargs: dict[str, Any] = {}
    if po is not None:
        theta = np.array([po.estimands[lab] for lab in labels])
        th_pure, th_acc = theta + s_pure[:, :, n_cov], theta + s_acc[:, :, n_cov]
        r2 = po.info["realized_r2"]
        tvp = th_pure.var(axis=0, ddof=1)
        tva = th_acc.var(axis=0, ddof=1)
        ratio_theory = {
            lab: (1.0 - (1.0 - factors[lab].value) * r2 if lab in factors else 1.0)
            for lab in labels
        }
        kwargs = {
            "theta_var_pure": tvp,
            "theta_var_accepted": tva,
            "theta_ratio": tva / tvp,
            "theta_ratio_theory": ratio_theory,
            "theta_mean_accepted": th_acc.mean(axis=0),
            "theta_mean_se": th_acc.std(axis=0, ddof=1) / math.sqrt(n_reps),
            "theta_corr": np.corrcoef(th_acc.T),
            "estimands": po.estimands,
            "r2_target": model.target_r2,
            "r2_realized": r2,
        }

    return StudyReport(
        covariate_names=rx.names,
        effect_labels=labels,
        effect_orders=orders,
        monitored=rule.monitored_effects,
        thresholds=thresholds,
        n_reps=n_reps,
        seed=seed,
        acceptance_rate=n_reps / scanned,
        draws_scanned=scanned,
        d_var_pure=var_pure,
        d_var_accepted=var_acc,
        d_pct_reduction=pct,
        d_mean_accepted=d_acc.mean(axis=0),
        d_mean_se=d_acc.std(axis=0, ddof=1) / math.sqrt(n_reps),
        variance_factors=factors,
        reduction_theory=theory,
        **kwargs,
    )


@dataclass(frozen=True, eq=False)
class IndependenceReport:
    """Joint behaviour of per-effect acceptance indicators under pure randomization."""

    effects: tuple[str, ...]
    thresholds: dict[str, float]
    n_reps: int
    seed: int
    marginal_rates: dict[str, float]
    joint_rate: float
    rule_implied_joint: float
    empirical_product: float
    indicator_corr: np.ndarray
    max_indicator_corr: float
    max_d_cross_corr: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "effects": list(self.effects),
            "thresholds": self.thresholds,
            "n_reps": self.n_reps,
            "seed": self.seed,
            "sampler": sampling.SAMPLER,
            "marginal_rates": self.marginal_rates,
            "joint_rate": self.joint_rate,
            "rule_implied_joint": self.rule_implied_joint,
            "empirical_product": self.empirical_product,
            "indicator_correlations": self.indicator_corr.tolist(),
            "max_indicator_corr": self.max_indicator_corr,
            "max_d_cross_corr": self.max_d_cross_corr,
        }


def independence_study(
    spec: DesignSpec,
    x: CovariateMatrix,
    rule: AcceptanceRule,
    n_reps: int,
    seed: int,
    *,
    workers: int = 1,
) -> IndependenceReport:
    """Measure how close per-effect acceptance events are to independent.

    Draws n_reps pure randomizations, records each monitored effect's
    pass/fail indicator and mean-difference vector, and reports marginal
    rates, the joint rate, indicator correlations, and the largest
    cross-effect mean-difference correlation.
    """
    if n_reps < 2:
        raise ValueError(f"need at least 2 replications, got {n_reps}")
    kernel = engine._prepare(x, spec, rule)
    thresholds = dict(kernel.thresholds)
    labels = rule.monitored_effects
    n_eff, p = len(labels), x.p
    a_vec = np.array([thresholds[lab] for lab in labels])

    # One sign gather per effect scores both column sets: the whitened ones
    # give the screen's distances, the centered ones d in covariate units.
    cols = np.column_stack((kernel.white, kernel.centered))

    def scan(combos: np.ndarray) -> np.ndarray:
        return np.stack([kernel.mean_diffs(combos, lab, cols) for lab in labels], axis=1)

    s_all, _ = sampling.collect(
        engine._prepare(x, spec), scan, seed, sampling.PURPOSE_STUDY_PURE, n_reps, n_reps,
        workers,
    )
    m_all = squared_distance(s_all[:, :, :p].reshape(-1, p), x.n).reshape(n_reps, n_eff)
    d_all = s_all[:, :, p:]

    indicators = m_all <= a_vec[None, :]
    marginal = indicators.mean(axis=0)
    joint = float(indicators.all(axis=1).mean())
    corr = _safe_corr(indicators.astype(np.float64))
    off = corr - np.eye(n_eff)
    d_corr = _safe_corr(d_all.reshape(n_reps, n_eff * p))
    cross = np.abs(d_corr).copy()
    for j in range(n_eff):
        cross[j * p : (j + 1) * p, j * p : (j + 1) * p] = 0.0
    return IndependenceReport(
        effects=labels,
        thresholds=thresholds,
        n_reps=n_reps,
        seed=seed,
        marginal_rates={lab: float(marginal[j]) for j, lab in enumerate(labels)},
        joint_rate=joint,
        rule_implied_joint=kernel.prob,
        empirical_product=float(np.prod(marginal)),
        indicator_corr=corr,
        max_indicator_corr=float(np.max(np.abs(off))),
        max_d_cross_corr=float(cross.max()),
    )


def _safe_corr(cols: np.ndarray) -> np.ndarray:
    sd = cols.std(axis=0)
    keep = sd > 0
    out = np.zeros((cols.shape[1], cols.shape[1]))
    if keep.any():
        sub = np.corrcoef(cols[:, keep].T)
        out[np.ix_(keep, keep)] = np.atleast_2d(sub)
    np.fill_diagonal(out, 1.0)
    return out


def calibrate_empirical_thresholds(
    spec: DesignSpec,
    x: CovariateMatrix,
    effects: Sequence[str],
    q: float | Mapping[str, float],
    n_draws: int,
    seed: int,
    *,
    workers: int = 1,
) -> dict[str, float]:
    """Per-effect thresholds as empirical quantiles of M over pure draws.

    ``q`` may be a single marginal acceptance target for every effect or a
    per-effect mapping; q = 1 pins the threshold at the observed maximum.
    Deterministic given the seed, with linear interpolation between order
    statistics.
    """
    if n_draws < 2:
        raise ValueError(f"need at least 2 draws to calibrate, got {n_draws}")
    # Thresholds are what calibration estimates; the kernel has none.
    kernel = engine._prepare(x, spec)
    labels = check_effects(effects, kernel.mm.effect_labels)
    if isinstance(q, Mapping):
        missing = [lab for lab in labels if lab not in q]
        if missing:
            raise ValueError(f"no quantile target for effects {missing}")
        q_of = {lab: q[lab] for lab in labels}
    else:
        q_of = dict.fromkeys(labels, q)
    for lab, value in q_of.items():
        # float(True) is 1.0: a JSON true would calibrate at the maximum.
        if isinstance(value, bool) or not 0.0 < float(value) <= 1.0:
            raise ValueError(f"quantile target for {lab!r} must be a number in (0, 1], got {value!r}")
    m_all, _ = sampling.collect(
        kernel, lambda combos: kernel.all_distances(combos, labels), seed,
        sampling.PURPOSE_CALIBRATE, n_draws, n_draws, workers,
    )
    return {
        lab: float(np.quantile(m_all[:, j], float(q_of[lab]), method="linear"))
        for j, lab in enumerate(labels)
    }


# ---------------------------------------------------------------------------
# Synthetic school-district covariates

NYDE_N = 1376
NYDE_MONITORED = (
    "total_students",
    "prop_white",
    "prop_black",
    "prop_asian",
    "prop_native_american",
    "prop_latino",
    "prop_female",
    "enrollment_rate",
    "poverty_rate",
)
NYDE_AUXILIARY = ("num_teachers", "students_temp_housing")


def synthetic_nyde(rng: np.random.Generator) -> CovariateMatrix:
    """Synthetic school-covariate battery shaped like a large urban district.

    1376 schools with nine monitored covariates (size, racial composition,
    sex composition, enrollment and poverty rates) plus two deliberately
    unmonitored ones: teacher counts track school size very closely (R^2
    around 0.95), temporary-housing counts track poverty only weakly (R^2
    around 0.1).  Counts are lognormal, rates logit-normal through a Gaussian
    copula on the latent scale, and racial shares are Dirichlet with an
    implicit remainder category so they sum below one.
    """
    n = NYDE_N
    # Latent correlation: school size, enrollment, poverty, housing, sex.
    latent_corr = np.array(
        [
            [1.00, 0.10, -0.15, 0.00, 0.00],
            [0.10, 1.00, -0.35, 0.00, 0.00],
            [-0.15, -0.35, 1.00, 0.32, 0.00],
            [0.00, 0.00, 0.32, 1.00, 0.00],
            [0.00, 0.00, 0.00, 0.00, 1.00],
        ]
    )
    z = rng.multivariate_normal(np.zeros(5), latent_corr, size=n, method="cholesky")
    z_size, z_enroll, z_pov, z_house, z_fem = z.T

    students = np.round(np.exp(6.3 + 0.5 * z_size))
    teacher_noise = rng.normal(0.0, 0.108, size=n)
    teachers = np.round(students / 14.0 * (1.0 + teacher_noise))
    teachers = np.maximum(teachers, 1.0)
    temp_housing = np.round(np.exp(2.6 + 0.9 * z_house))

    def expit(v: np.ndarray) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-v))

    enrollment = expit(1.9 + 0.5 * z_enroll)
    poverty = expit(0.6 + 0.8 * z_pov)
    female = expit(0.25 * z_fem)

    # white, black, asian, native american, latino, remainder
    shares = rng.dirichlet(np.array([2.0, 3.0, 1.1, 0.15, 3.2, 0.55]), size=n)

    cols = np.column_stack(
        [
            students,
            shares[:, 0],
            shares[:, 1],
            shares[:, 2],
            shares[:, 3],
            shares[:, 4],
            female,
            enrollment,
            poverty,
            teachers,
            temp_housing,
        ]
    )
    return CovariateMatrix(entries=cols, names=NYDE_MONITORED + NYDE_AUXILIARY)
