"""Acceptance suite: one test per numbered criterion, with pinned tolerances.

Fixtures at module scope carry the heavy Monte Carlo work so related criteria
share a single pair of studies.  Every frozen constant below was produced by
an independent route (closed form, quadrature oracle, or hand arithmetic)
before being pinned here; the quadrature checks inside the tests re-verify
the pinned values on every run.
"""

import itertools
import math
import time

import numpy as np
import pytest

from conftest import record_criterion
from oracles import chi2_cdf_quadrature, shuffled_allocation, variance_factor_quadrature
from factorial_rerand import engine, sampling, simlab
from factorial_rerand.assignment import AssignmentMatrix, expand_assignment, negate
from factorial_rerand.balance import CovariateMatrix, balance_profile
from factorial_rerand.criteria import (
    AcceptanceRule,
    Tier,
    chi2_cdf,
    chi2_quantile,
    resolve_thresholds,
    variance_factor,
)
from factorial_rerand.design import DesignSpec, Order, build_design_matrix, expand_model_matrix

# ---------------------------------------------------------------------------
# Frozen study configuration (checked against the quadrature oracle in-test)

DESK_SPEC = DesignSpec(k=3, r=8)  # 64 units
DESK_EFFECTS = ("A", "B", "C", "AB", "AC", "BC", "ABC")
ALL7_PER_EFFECT_PROB = 0.7196856730011521  # 0.1 ** (1/7)
ALL7_THRESHOLD = 3.8308827483689885
ALL7_VARIANCE_FACTOR = 0.5919074936669565
MAINS_PER_EFFECT_PROB = 0.4641588833612779  # 0.1 ** (1/3)
MAINS_THRESHOLD = 2.1802896814920802
MAINS_VARIANCE_FACTOR = 0.3798745567837671

LARGE_SPEC = DesignSpec(k=5, r=43)  # 1376 units
LARGE_MAINS = ("A", "B", "C", "D", "E")
LARGE_TWOWAYS = tuple(a + b for a, b in itertools.combinations("ABCDE", 2))
LARGE_THREEWAYS = tuple("".join(c) for c in itertools.combinations("ABCDE", 3))
LARGE_MAINS_THRESHOLD = 7.338778904391525  # nine covariates, joint prob 0.01
LARGE_TWOWAY_THRESHOLD = 12.13743605831333  # nine covariates, joint prob 0.1
LARGE_MAINS_REDUCTION = 42.4834501686112  # 100 * (1 - 0.575165498313888)
LARGE_TWOWAY_REDUCTION = 18.598109405973583  # 100 * (1 - 0.8140189059402642)


@pytest.fixture(scope="module")
def desk_x():
    rng = np.random.default_rng(20260301)
    return CovariateMatrix(rng.normal(size=(64, 3)), names=("x1", "x2", "x3"))


@pytest.fixture(scope="module")
def desk_model():
    return simlab.OutcomeModel(
        effects={"A": 2.0, "AB": 1.0}, beta=np.ones(3), target_r2=0.6
    )


@pytest.fixture(scope="module")
def study_all(desk_x, desk_model):
    rule = AcceptanceRule(tiers=(Tier("all", DESK_EFFECTS, joint_prob=0.1),), p=3)
    return simlab.variance_study(
        DESK_SPEC, desk_x, rule, desk_model, n_reps=20_000, seed=511
    )


@pytest.fixture(scope="module")
def study_mains(desk_x, desk_model):
    rule = AcceptanceRule(tiers=(Tier("mains", ("A", "B", "C"), joint_prob=0.1),), p=3)
    return simlab.variance_study(
        DESK_SPEC, desk_x, rule, desk_model, n_reps=20_000, seed=511
    )


@pytest.fixture(scope="module")
def large_setup():
    x_full = simlab.synthetic_nyde(np.random.default_rng(20260801))
    x = x_full.subset(simlab.NYDE_MONITORED)
    rule = AcceptanceRule(
        tiers=(
            Tier("mains", LARGE_MAINS, joint_prob=0.01),
            Tier("two_way", LARGE_TWOWAYS, joint_prob=0.1),
        ),
        p=9,
    )
    return x_full, x, rule


# ---------------------------------------------------------------------------
# Criterion 1: canonical three-factor tables


def test_c1_three_factor_tables():
    """Design and effect-coding tables for K=3 match the hand-written layout."""
    start = time.perf_counter()
    dm = build_design_matrix(DesignSpec(k=3, r=1))
    design_expected = [
        [-1, -1, -1],
        [-1, -1, 1],
        [-1, 1, -1],
        [-1, 1, 1],
        [1, -1, -1],
        [1, -1, 1],
        [1, 1, -1],
        [1, 1, 1],
    ]
    mm = expand_model_matrix(dm)
    model_expected = [
        [1, -1, -1, -1, 1, 1, 1, -1],
        [1, -1, -1, 1, 1, -1, -1, 1],
        [1, -1, 1, -1, -1, 1, -1, 1],
        [1, -1, 1, 1, -1, -1, 1, -1],
        [1, 1, -1, -1, -1, -1, 1, 1],
        [1, 1, -1, 1, -1, 1, -1, -1],
        [1, 1, 1, -1, 1, -1, -1, -1],
        [1, 1, 1, 1, 1, 1, 1, 1],
    ]
    elapsed = time.perf_counter() - start
    ok = (
        dm.entries.tolist() == design_expected
        and mm.entries.tolist() == model_expected
        and mm.labels == ("mean", "A", "B", "C", "AB", "AC", "BC", "ABC")
        and elapsed < 1.0
    )
    record_criterion(1, "three-factor design and effect tables are bit-exact", ok,
                     f"{elapsed * 1000:.0f}ms")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 2: chi-squared machinery vs the quadrature oracle


def test_c2_chi_squared_accuracy():
    """CDF within 1e-10 of quadrature, quantile round trip within 1e-8."""
    start = time.perf_counter()
    xs = np.concatenate([[1e-3, 0.01, 0.1, 0.25], np.arange(0.5, 60.0001, 0.5)])
    worst_cdf = 0.0
    for p in range(1, 21):
        for x in xs:
            worst_cdf = max(worst_cdf, abs(chi2_cdf(p, float(x)) - chi2_cdf_quadrature(p, float(x))))
    probs = (1e-4, 1e-3, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999)
    worst_rt = 0.0
    for p in range(1, 21):
        for prob in probs:
            worst_rt = max(worst_rt, abs(chi2_cdf(p, chi2_quantile(p, prob)) - prob))
    vf = variance_factor(2, 2.0).value
    vf_err = abs(vf - 0.4180232931306734)
    elapsed = time.perf_counter() - start
    ok = worst_cdf <= 1e-10 and worst_rt <= 1e-8 and vf_err <= 1e-9 and elapsed < 10.0
    record_criterion(
        2, "chi-squared CDF, quantile, and truncation factor meet tolerance", ok,
        f"cdf err {worst_cdf:.1e}, round trip {worst_rt:.1e}, factor err {vf_err:.1e}, {elapsed:.1f}s",
    )
    assert ok


# ---------------------------------------------------------------------------
# Criterion 3: acceptance shrinks mean-difference variance as predicted


def test_c3_variance_reduction_matches_prediction(study_all):
    """All-effect monitoring: per-effect reduction within 5pp of 100(1-v)."""
    # re-verify the pinned threshold and factor through the oracle route
    assert abs(chi2_cdf_quadrature(3, ALL7_THRESHOLD) - ALL7_PER_EFFECT_PROB) < 1e-10
    assert abs(variance_factor_quadrature(3, ALL7_THRESHOLD) - ALL7_VARIANCE_FACTOR) < 1e-10
    rule = AcceptanceRule(tiers=(Tier("all", DESK_EFFECTS, joint_prob=0.1),), p=3)
    thresholds = resolve_thresholds(rule)
    assert all(abs(a - ALL7_THRESHOLD) < 1e-10 for a in thresholds.values())

    theory = 100.0 * (1.0 - ALL7_VARIANCE_FACTOR)
    per_effect = study_all.d_pct_reduction.mean(axis=1)
    worst_effect = float(np.abs(per_effect - theory).max())
    worst_cell = float(np.abs(study_all.d_pct_reduction - theory).max())
    ok = worst_effect <= 5.0 and worst_cell <= 5.0
    record_criterion(
        3, "acceptance cuts mean-difference variance by the predicted percent", ok,
        f"theory {theory:.2f}pp, worst effect dev {worst_effect:.2f}pp, worst cell {worst_cell:.2f}pp",
    )
    assert ok


def test_accepted_distances_follow_the_truncated_chi_squared():
    """Each monitored M_f, given acceptance, passes a KS test against chi2_p truncated at a_f.

    A sharper check of criterion 3's claim than the variance factor.  The
    design, rule, draws, seeds and level were fixed before the first run.
    At n=64 the finite-sample gap from chi-squared is large enough to show
    in 2000 draws, so the design has 256 units.
    """
    spec = DesignSpec(k=3, r=32)
    x = CovariateMatrix(
        np.random.default_rng(2560).normal(size=(spec.n, 3)), names=("x1", "x2", "x3")
    )
    rule = AcceptanceRule(tiers=(Tier("all", DESK_EFFECTS, joint_prob=0.1),), p=3)
    n_draws, level = 2000, 1e-3
    kernel = engine._prepare(x, spec, rule)
    m_all, _ = sampling.collect(
        kernel, lambda rows: kernel.all_distances(rows, DESK_EFFECTS), 2561,
        sampling.PURPOSE_STUDY_ACCEPTED, n_draws, 100 * n_draws, 1,
    )
    # Asymptotic Kolmogorov critical value, Bonferroni over the effects:
    # P(sqrt(n) D > c) ~ 2 exp(-2 c^2).
    alpha = level / len(DESK_EFFECTS)
    critical = math.sqrt(-math.log(alpha / 2.0) / 2.0) / math.sqrt(n_draws)
    upper = np.arange(1, n_draws + 1) / n_draws
    lower = np.arange(n_draws) / n_draws
    for j, lab in enumerate(DESK_EFFECTS):
        a = kernel.thresholds[lab]
        m = np.sort(m_all[:, j])
        assert m[-1] <= a
        cdf = np.array([chi2_cdf(3, float(v)) for v in m]) / chi2_cdf(3, a)
        d = max(float(np.max(upper - cdf)), float(np.max(cdf - lower)))
        assert d < critical, (lab, d, critical)


# ---------------------------------------------------------------------------
# Criterion 4: estimator variance under partial monitoring


def test_c4_estimator_variance_ratios(study_mains):
    """Monitored ratios near 1-(1-v)R^2, unmonitored near 1, estimators uncorrelated."""
    assert abs(chi2_cdf_quadrature(3, MAINS_THRESHOLD) - MAINS_PER_EFFECT_PROB) < 1e-10
    assert abs(variance_factor_quadrature(3, MAINS_THRESHOLD) - MAINS_VARIANCE_FACTOR) < 1e-10

    monitored = ("A", "B", "C")
    predicted = 1.0 - (1.0 - MAINS_VARIANCE_FACTOR) * study_mains.r2_realized
    dev_mon = max(
        abs(study_mains.theta_ratio[study_mains.effect_column(e)] - predicted)
        for e in monitored
    )
    dev_unm = max(
        abs(study_mains.theta_ratio[study_mains.effect_column(e)] - 1.0)
        for e in DESK_EFFECTS
        if e not in monitored
    )
    max_corr = float(np.abs(study_mains.theta_corr - np.eye(7)).max())
    consistent = all(
        abs(study_mains.theta_ratio_theory[e] - predicted) < 1e-12 for e in monitored
    )
    ok = dev_mon <= 0.05 and dev_unm <= 0.05 and max_corr < 0.05 and consistent
    record_criterion(
        4, "estimator variance shrinks only for monitored effects, by 1-(1-v)R^2", ok,
        f"predicted {predicted:.3f}, monitored dev {dev_mon:.3f}, "
        f"unmonitored dev {dev_unm:.3f}, max |corr| {max_corr:.3f}",
    )
    assert ok


# ---------------------------------------------------------------------------
# Criterion 5: unbiasedness over the accepted set


def test_c5_unbiasedness(study_all):
    """Estimator means hit the estimands and d means hit zero within 3 SEs."""
    estimands = np.array([study_all.estimands[e] for e in study_all.effect_labels])
    z_theta = np.abs(
        (study_all.theta_mean_accepted - estimands) / study_all.theta_mean_se
    )
    z_d = np.abs(study_all.d_mean_accepted / study_all.d_mean_se)
    ok = float(z_theta.max()) <= 3.0 and float(z_d.max()) <= 3.0
    record_criterion(
        5, "effect estimates and mean differences stay unbiased after acceptance", ok,
        f"max |z| estimates {z_theta.max():.2f}, mean differences {z_d.max():.2f}",
    )
    assert ok


# ---------------------------------------------------------------------------
# Criterion 6: per-effect acceptance events are independent


def test_c6_acceptance_independence():
    """Joint rate within 10 percent of the tier product; indicators uncorrelated."""
    spec = DesignSpec(k=3, r=64)
    x = CovariateMatrix(
        np.random.default_rng(606).normal(size=(512, 3)), names=("x1", "x2", "x3")
    )
    rule = AcceptanceRule(
        tiers=(
            Tier("mains", ("A", "B", "C"), joint_prob=0.2),
            Tier("two_way", ("AB", "AC", "BC"), joint_prob=0.5),
        ),
        p=3,
    )
    report = simlab.independence_study(spec, x, rule, n_reps=50_000, seed=630)
    rel_dev = abs(report.joint_rate - 0.1) / 0.1
    ok = (
        abs(report.rule_implied_joint - 0.1) < 1e-12
        and rel_dev <= 0.10
        and report.max_indicator_corr <= 0.03
    )
    record_criterion(
        6, "tiered acceptance events multiply like independent ones", ok,
        f"joint {report.joint_rate:.4f} vs 0.1 (rel {rel_dev:.3f}), "
        f"max indicator corr {report.max_indicator_corr:.3f}",
    )
    assert ok


# ---------------------------------------------------------------------------
# Criterion 7: full-scale end-to-end benchmark


def test_c7_full_scale_benchmark(large_setup):
    """1376-unit study: draw counts, reduction pattern, and inheritance."""
    x_full, x, rule = large_setup
    thresholds = resolve_thresholds(rule)
    assert abs(thresholds["A"] - LARGE_MAINS_THRESHOLD) < 1e-9
    assert abs(thresholds["AB"] - LARGE_TWOWAY_THRESHOLD) < 1e-9
    assert abs(chi2_cdf_quadrature(9, LARGE_MAINS_THRESHOLD) - 0.01 ** 0.2) < 1e-10
    assert abs(chi2_cdf_quadrature(9, LARGE_TWOWAY_THRESHOLD) - 0.1 ** 0.1) < 1e-10
    assert abs(100 * (1 - variance_factor_quadrature(9, LARGE_MAINS_THRESHOLD))
               - LARGE_MAINS_REDUCTION) < 1e-7
    assert abs(100 * (1 - variance_factor_quadrature(9, LARGE_TWOWAY_THRESHOLD))
               - LARGE_TWOWAY_REDUCTION) < 1e-7

    draws = [
        engine.rerandomize(x, LARGE_SPEC, rule, seed=700 + i).draws_attempted
        for i in range(50)
    ]
    mean_draws = float(np.mean(draws))
    draws_ok = 600.0 <= mean_draws <= 1700.0

    report = simlab.variance_study(
        LARGE_SPEC, x, rule, None, n_reps=1000, seed=711,
        effects=LARGE_MAINS + LARGE_TWOWAYS + LARGE_THREEWAYS,
        report_x=x_full, workers=4,
    )
    mon_cols = [report.covariate_names.index(c) for c in simlab.NYDE_MONITORED]
    col_teachers = report.covariate_names.index("num_teachers")
    col_housing = report.covariate_names.index("students_temp_housing")
    rows_mains = [report.effect_column(e) for e in LARGE_MAINS]
    rows_two = [report.effect_column(e) for e in LARGE_TWOWAYS]
    rows_three = [report.effect_column(e) for e in LARGE_THREEWAYS]

    red_mains = float(report.d_pct_reduction[np.ix_(rows_mains, mon_cols)].mean())
    red_two = float(report.d_pct_reduction[np.ix_(rows_two, mon_cols)].mean())
    red_three = float(report.d_pct_reduction[np.ix_(rows_three, mon_cols)].mean())
    red_teachers = float(report.d_pct_reduction[rows_mains, col_teachers].mean())
    red_housing = float(report.d_pct_reduction[rows_mains, col_housing].mean())

    pattern_ok = (
        abs(red_mains - LARGE_MAINS_REDUCTION) <= 5.0
        and abs(red_two - LARGE_TWOWAY_REDUCTION) <= 5.0
        and red_mains > red_two > red_three
        and abs(red_three) <= 5.0
    )
    inherit_ok = red_teachers >= 30.0 and red_housing <= 12.0
    ok = draws_ok and pattern_ok and inherit_ok
    record_criterion(
        7, "full-scale run reproduces draw counts, reduction pattern, inheritance", ok,
        f"mean draws {mean_draws:.0f}; reductions mains {red_mains:.1f} two-way {red_two:.1f} "
        f"three-way {red_three:.1f}; teachers {red_teachers:.1f}, temp housing {red_housing:.1f}",
    )
    assert ok


# ---------------------------------------------------------------------------
# Criterion 8: randomization test calibration and power


def test_c8_randomization_test_calibration():
    """Sharp-null p-values are uniform (KS < 0.08); a 3-sigma effect is caught."""
    spec = DesignSpec(k=2, r=8)
    x = CovariateMatrix(
        np.random.default_rng(808).normal(size=(32, 2)), names=("x1", "x2")
    )
    rule = AcceptanceRule(tiers=(Tier("mains", ("A", "B"), joint_prob=0.25),), p=2)
    beta = np.array([1.0, 1.0])
    mm = expand_model_matrix(build_design_matrix(spec))

    def one_rep(i: int, effect_size: float) -> float:
        rng = np.random.default_rng((810, i))
        obs = engine.rerandomize(x, spec, rule, seed=820_000 + i)
        w = expand_assignment(obs.allocation, mm)
        y = x.entries @ beta + rng.normal(size=32)
        if effect_size:
            y = y + (effect_size / 2.0) * w.column("A")
        res = engine.randomization_test(
            y, obs.allocation, x, rule, ("A",), n_draws=399, seed=830_000 + i
        )
        return res.p_values["A"]

    null_ps = np.sort([one_rep(i, 0.0) for i in range(500)])
    grid_hi = np.arange(1, 501) / 500.0
    grid_lo = np.arange(0, 500) / 500.0
    ks = max(float(np.max(grid_hi - null_ps)), float(np.max(null_ps - grid_lo)))

    power_ps = np.array([one_rep(10_000 + i, 3.0) for i in range(100)])
    power = float((power_ps <= 0.01).mean())
    ok = ks < 0.08 and power >= 0.90
    record_criterion(
        8, "randomization test is calibrated under the null and detects a 3-sigma effect",
        ok, f"KS {ks:.3f}, power at 0.01 level {power:.2f}",
    )
    assert ok


# ---------------------------------------------------------------------------
# Criterion 9: structural property bundle


def test_c9_property_bundle():
    """Invariance, symmetry, identity, orthogonality, and balance properties."""
    start = time.perf_counter()
    rng = np.random.default_rng(909)
    failures: list[str] = []

    # (a) distances are invariant to affine covariate changes (1e-8 relative)
    spec = DesignSpec(k=2, r=8)
    mm = expand_model_matrix(build_design_matrix(spec))
    for trial in range(5):
        alloc = shuffled_allocation(spec, rng)
        w = expand_assignment(alloc, mm)
        base = rng.normal(size=(32, 3))
        a = rng.normal(size=(3, 3)) + 4.0 * np.eye(3)
        b = rng.normal(size=3) * 10.0
        p1 = balance_profile(CovariateMatrix(base, names=("u", "v", "t")), w, ("A", "B", "AB"))
        p2 = balance_profile(CovariateMatrix(base @ a + b, names=("u", "v", "t")), w, ("A", "B", "AB"))
        for eff in ("A", "B", "AB"):
            rel = abs(p2.m(eff) - p1.m(eff)) / max(p1.m(eff), 1e-300)
            if rel > 1e-8:
                failures.append(f"affine invariance broke at trial {trial} {eff}: {rel:.2e}")

    # (b) sign symmetry: flipping every group label leaves all distances identical
    spec3 = DesignSpec(k=3, r=4)
    mm3 = expand_model_matrix(build_design_matrix(spec3))
    effects3 = tuple(lab for lab in mm3.labels if lab != "mean")
    for trial in range(5):
        alloc = shuffled_allocation(spec3, rng)
        w = expand_assignment(alloc, mm3)
        x3 = CovariateMatrix(rng.normal(size=(32, 3)), names=("u", "v", "t"))
        flipped = AssignmentMatrix(entries=-w.entries, labels=w.labels, k=w.k)
        mirrored = expand_assignment(negate(alloc, mm3), mm3)
        pw = balance_profile(x3, w, effects3)
        pf = balance_profile(x3, flipped, effects3)
        pm = balance_profile(x3, mirrored, effects3)
        for eff in effects3:
            if pf.m(eff) != pw.m(eff):
                failures.append(f"sign-flip changed M for {eff}")
            if pm.m(eff) != pw.m(eff):
                failures.append(f"mirror allocation changed M for {eff}")
            if not np.array_equal(pf.d(eff), -pw.d(eff)):
                failures.append(f"sign-flip did not negate d for {eff}")

    # (c) mean differences equal group-mean differences (1e-12)
    for trial in range(5):
        alloc = shuffled_allocation(spec3, rng)
        w = expand_assignment(alloc, mm3)
        x3 = CovariateMatrix(rng.normal(size=(32, 4)), names=("a", "b", "c", "d"))
        prof = balance_profile(x3, w, effects3)
        for eff in effects3:
            col = w.column(eff)
            direct = x3.entries[col > 0].mean(axis=0) - x3.entries[col < 0].mean(axis=0)
            if np.abs(prof.d(eff) - direct).max() > 1e-12:
                failures.append(f"d identity broke for {eff}")

    # (d) effect codings stay exactly orthogonal up to ten factors
    for k in range(1, 11):
        g = expand_model_matrix(build_design_matrix(DesignSpec(k=k, r=1))).entries.astype(np.int64)
        if not (g.T @ g == (1 << k) * np.eye(1 << k, dtype=np.int64)).all():
            failures.append(f"orthogonality broke at k={k}")

    # (e) every allocation the package draws (its keyed stream) is exactly
    # balanced, in both row orderings
    for k, r in ((1, 7), (3, 5), (5, 2)):
        for order in Order:
            spec_b = DesignSpec(k=k, r=r, order=order)
            x_b = CovariateMatrix(np.arange(spec_b.n, dtype=float)[:, None], names=("x",))
            rows, _ = sampling.collect(
                engine._prepare(x_b, spec_b), lambda rows: rows, 909,
                sampling.PURPOSE_STUDY_PURE, 20, 20, 1,
            )
            for row in rows:
                counts = np.bincount(row, minlength=(1 << k) + 1)[1:]
                if not (counts == r).all():
                    failures.append(f"imbalance at k={k} r={r} {order}")

    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 300.0
    record_criterion(
        9, "invariance, symmetry, identity, orthogonality, and balance all hold", ok,
        f"{elapsed:.1f}s" + (f"; first failure: {failures[0]}" if failures else ""),
    )
    assert ok, failures
