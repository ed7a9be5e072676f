import dataclasses
from collections import Counter

import numpy as np
import pytest

from factorial_rerand import engine, sampling, simlab
from factorial_rerand.assignment import Allocation, expand_assignment
from factorial_rerand.balance import CovariateMatrix
from factorial_rerand.criteria import AcceptanceRule, Tier, chi2_quantile
from factorial_rerand.design import DesignSpec, build_design_matrix, expand_model_matrix
from factorial_rerand.errors import DimensionMismatch


def _mm(k):
    return expand_model_matrix(build_design_matrix(DesignSpec(k=k, r=1)))


# --- outcome models ---


def test_outcome_model_needs_one_noise_setting():
    with pytest.raises(ValueError):
        simlab.OutcomeModel(effects={}, beta=np.ones(2))
    with pytest.raises(ValueError):
        simlab.OutcomeModel(effects={}, beta=np.ones(2), sigma=1.0, target_r2=0.5)
    with pytest.raises(ValueError):
        simlab.OutcomeModel(effects={}, beta=np.ones(2), sigma=-1.0)
    with pytest.raises(ValueError):
        simlab.OutcomeModel(effects={}, beta=np.ones(2), target_r2=1.0)


def test_generate_checks_beta_length():
    x = CovariateMatrix(np.random.default_rng(0).normal(size=(8, 2)), names=("a", "b"))
    model = simlab.OutcomeModel(effects={}, beta=np.ones(3), sigma=1.0)
    with pytest.raises(DimensionMismatch):
        simlab.generate_potential_outcomes(model, x, _mm(1), np.random.default_rng(1))


def test_outcome_table_factors_through_unit_effects():
    rng = np.random.default_rng(12)
    x = CovariateMatrix(rng.normal(size=(16, 2)), names=("a", "b"))
    model = simlab.OutcomeModel(
        effects={"A": 2.0, "AB": 1.0}, beta=np.array([1.0, -1.0]), sigma=0.7
    )
    mm = _mm(2)
    po = simlab.generate_potential_outcomes(model, x, mm, rng)
    recon = po.unit_effects @ mm.entries.astype(float).T
    assert np.allclose(recon, po.table, atol=1e-10)
    # planted effects are recovered exactly as estimands
    assert po.estimands["A"] == pytest.approx(2.0, abs=1e-12)
    assert po.estimands["AB"] == pytest.approx(1.0, abs=1e-12)
    assert po.estimands["B"] == pytest.approx(0.0, abs=1e-12)


def test_target_r2_solves_noise_scale():
    rng = np.random.default_rng(3)
    x = CovariateMatrix(rng.normal(size=(200, 3)), names=("a", "b", "c"))
    model = simlab.OutcomeModel(effects={}, beta=np.ones(3), target_r2=0.6)
    po = simlab.generate_potential_outcomes(model, x, _mm(2), rng)
    xb = x.entries @ np.ones(3)
    sigma = po.info["sigma"]
    implied = xb.var(ddof=1) / (xb.var(ddof=1) + sigma**2)
    assert implied == pytest.approx(0.6, abs=1e-12)


def test_target_r2_rejects_degenerate_signal():
    rng = np.random.default_rng(3)
    x = CovariateMatrix(rng.normal(size=(50, 2)), names=("a", "b"))
    flat = simlab.OutcomeModel(effects={}, beta=np.zeros(2), target_r2=0.5)
    with pytest.raises(ValueError):
        simlab.generate_potential_outcomes(flat, x, _mm(1), rng)
    zero_target = simlab.OutcomeModel(effects={}, beta=np.ones(2), target_r2=0.0)
    with pytest.raises(ValueError):
        simlab.generate_potential_outcomes(zero_target, x, _mm(1), rng)


def test_unit_level_r2_extremes():
    rng = np.random.default_rng(8)
    x = CovariateMatrix(rng.normal(size=(60, 2)), names=("a", "b"))
    exact = simlab.OutcomeModel(effects={"A": 1.0}, beta=np.array([2.0, 1.0]), sigma=0.0)
    po = simlab.generate_potential_outcomes(exact, x, _mm(1), rng)
    assert simlab.unit_level_r2(po, x) == pytest.approx(1.0, abs=1e-12)
    assert po.info["realized_r2"] == pytest.approx(1.0, abs=1e-12)
    pure_noise = simlab.OutcomeModel(effects={}, beta=np.zeros(2), sigma=1.0)
    po2 = simlab.generate_potential_outcomes(pure_noise, x, _mm(1), rng)
    assert simlab.unit_level_r2(po2, x) < 0.2


def test_true_estimands_k2_fixture():
    # identical outcome rows (1,2,3,4) for every unit
    mm = _mm(2)
    table = np.tile(np.array([1.0, 2.0, 3.0, 4.0]), (6, 1))
    est = simlab.true_estimands(table, mm)
    assert est["mean"] == pytest.approx(2.5, abs=1e-14)
    assert est["A"] == pytest.approx(2.0, abs=1e-14)
    assert est["B"] == pytest.approx(1.0, abs=1e-14)
    assert est["AB"] == pytest.approx(0.0, abs=1e-14)


def test_observe_picks_assigned_column():
    mm = _mm(1)
    table = np.array([[10.0, 11.0], [20.0, 21.0], [30.0, 31.0], [40.0, 41.0]])
    po = simlab.PotentialOutcomes(
        mm=mm, table=table, unit_effects=table @ mm.entries.astype(float) / 2,
        estimands=simlab.true_estimands(table, mm),
    )
    alloc = Allocation(spec=DesignSpec(k=1, r=2), combo_of_unit=np.array([1, 2, 2, 1]))
    assert po.observe(alloc).tolist() == [10.0, 21.0, 31.0, 40.0]


# --- studies ---


@pytest.fixture(scope="module")
def desk():
    rng = np.random.default_rng(77)
    spec = DesignSpec(k=3, r=8)
    x = CovariateMatrix(rng.normal(size=(64, 3)), names=("x1", "x2", "x3"))
    labels = ("A", "B", "C", "AB", "AC", "BC", "ABC")
    rule = AcceptanceRule(tiers=(Tier("all", labels, joint_prob=0.1),), p=3)
    model = simlab.OutcomeModel(effects={"A": 2.0}, beta=np.ones(3), target_r2=0.6)
    return spec, x, rule, model


def test_variance_study_shapes_and_theory(desk):
    spec, x, rule, model = desk
    report = simlab.variance_study(spec, x, rule, model, n_reps=3000, seed=15)
    m, p = len(report.effect_labels), 3
    assert report.d_var_pure.shape == (m, p)
    assert report.theta_ratio.shape == (m,)
    assert len(report.reduction_rows()) == m * p
    assert len(report.estimator_rows()) == m
    assert 0.0 < report.acceptance_rate < 0.25
    # every monitored effect shares the same implied reduction here
    theory = set(round(v, 9) for v in report.reduction_theory.values())
    assert len(theory) == 1
    # empirical reductions land in a loose window around it at 3000 reps
    assert abs(report.d_pct_reduction.mean() - next(iter(theory))) < 8.0
    assert report.r2_realized == pytest.approx(report.r2_target, abs=0.25)


def test_variance_study_unmonitored_effects_keep_variance(desk):
    spec, x, _, model = desk
    mains_only = AcceptanceRule(tiers=(Tier("mains", ("A", "B", "C"), joint_prob=0.1),), p=3)
    report = simlab.variance_study(spec, x, mains_only, model, n_reps=3000, seed=16)
    idx_abc = report.effect_column("ABC")
    idx_a = report.effect_column("A")
    assert abs(report.d_pct_reduction[idx_abc].mean()) < 10.0
    assert report.d_pct_reduction[idx_a].mean() > 25.0
    assert report.theta_ratio_theory["ABC"] == 1.0
    assert report.theta_ratio_theory["A"] < 1.0


def test_variance_study_is_deterministic_and_worker_invariant(desk):
    spec, x, rule, model = desk
    r1 = simlab.variance_study(spec, x, rule, model, n_reps=400, seed=3, workers=1)
    r2 = simlab.variance_study(spec, x, rule, model, n_reps=400, seed=3, workers=3)
    assert np.array_equal(r1.d_var_accepted, r2.d_var_accepted)
    assert np.array_equal(r1.theta_mean_accepted, r2.theta_mean_accepted)
    assert r1.draws_scanned == r2.draws_scanned


def test_variance_study_worker_invariant_with_partial_final_batch(desk, monkeypatch):
    spec, x, rule, model = desk
    # 300 reps in 128-row batches: the pure half ends in a partial batch,
    # and a budget ending at the last accepted draw cuts the accepted half's
    # final batch short.
    monkeypatch.setattr(sampling, "STUDY_BATCH", 128)
    scanned = simlab.variance_study(spec, x, rule, model, n_reps=300, seed=3).draws_scanned
    assert scanned % 128
    first = simlab.variance_study(spec, x, rule, model, n_reps=300, seed=3, max_draws=scanned)
    assert first.draws_scanned == scanned
    for workers in (2, 4):
        report = simlab.variance_study(
            spec, x, rule, model, n_reps=300, seed=3, workers=workers, max_draws=scanned
        )
        for f in dataclasses.fields(report):
            a, b = getattr(first, f.name), getattr(report, f.name)
            if isinstance(a, np.ndarray):
                assert np.array_equal(a, b, equal_nan=True), f.name
            else:
                assert a == b, f.name


def test_variance_study_pure_half_draws_only_the_rows_it_keeps(desk, monkeypatch):
    spec, x, rule, model = desk
    purpose_of = {}
    drawn = Counter()
    real_rng, real_draw = sampling.batch_rng, sampling.BalanceKernel.draw

    def tagged_rng(seed, purpose, batch):
        rng = real_rng(seed, purpose, batch)
        purpose_of[id(rng)] = (purpose, rng)
        return rng

    def counting_draw(kernel, rng, size):
        drawn[purpose_of[id(rng)][0]] += size
        return real_draw(kernel, rng, size)

    monkeypatch.setattr(sampling, "batch_rng", tagged_rng)
    monkeypatch.setattr(sampling.BalanceKernel, "draw", counting_draw)
    report = simlab.variance_study(spec, x, rule, model, n_reps=5000, seed=11)
    assert drawn[sampling.PURPOSE_STUDY_PURE] == 5000
    assert report.draws_scanned <= drawn[sampling.PURPOSE_STUDY_ACCEPTED]


def test_variance_study_estimates_match_the_scalar_path(desk):
    # Rebuild the study's draws and score each one with estimate_effects on
    # the outcomes it reveals: the estimand-plus-unit-level column must agree.
    spec, x, rule, model = desk
    n_reps, seed = 300, 8
    report = simlab.variance_study(spec, x, rule, model, n_reps=n_reps, seed=seed)
    kernel = engine._prepare(x, spec, rule)
    mm = kernel.mm
    po = simlab.generate_potential_outcomes(
        model, x, mm, sampling.batch_rng(seed, sampling.PURPOSE_OUTCOMES, 0)
    )
    accepted, _ = sampling.collect(
        kernel, lambda rows: rows, seed, sampling.PURPOSE_STUDY_ACCEPTED, n_reps, 1_000_000, 1
    )
    no_screen = sampling.BalanceKernel(x, spec, mm, kernel.cm, thresholds={})
    pure, _ = sampling.collect(
        no_screen, lambda rows: rows, seed, sampling.PURPOSE_STUDY_PURE, n_reps, n_reps, 1
    )
    labels = report.effect_labels

    def scalar(rows):
        out = []
        for row in rows:
            alloc = Allocation(spec=spec, combo_of_unit=row)
            est = engine.estimate_effects(po.observe(alloc), expand_assignment(alloc, mm), labels)
            out.append([est.estimate(lab) for lab in labels])
        return np.array(out)

    th_acc, th_pure = scalar(accepted), scalar(pure)
    assert th_acc.shape == th_pure.shape == (n_reps, len(labels))
    np.testing.assert_allclose(report.theta_mean_accepted, th_acc.mean(axis=0), rtol=1e-9)
    np.testing.assert_allclose(report.theta_var_accepted, th_acc.var(axis=0, ddof=1), rtol=1e-9)
    np.testing.assert_allclose(report.theta_var_pure, th_pure.var(axis=0, ddof=1), rtol=1e-9)


def test_variance_study_without_model_skips_estimators(desk):
    spec, x, rule, _ = desk
    report = simlab.variance_study(spec, x, rule, None, n_reps=300, seed=4)
    assert report.theta_ratio is None
    assert report.estimator_rows() == []
    assert "estimator_table" not in report.to_dict()


def test_variance_study_report_covariates(desk):
    spec, x, rule, model = desk
    wide = CovariateMatrix(
        np.column_stack([x.entries, x.entries @ np.ones(3)]),
        names=("x1", "x2", "x3", "combo"),
    )
    report = simlab.variance_study(
        spec, x, rule, model, n_reps=500, seed=5, report_x=wide
    )
    assert report.covariate_names == ("x1", "x2", "x3", "combo")
    assert report.d_var_pure.shape[1] == 4


def test_independence_study_near_product(desk):
    spec, x, _, _ = desk
    rule = AcceptanceRule(
        tiers=(
            Tier("mains", ("A", "B", "C"), joint_prob=0.2),
            Tier("two", ("AB", "AC", "BC"), joint_prob=0.5),
        ),
        p=3,
    )
    report = simlab.independence_study(spec, x, rule, n_reps=8000, seed=7)
    assert report.rule_implied_joint == pytest.approx(0.1, abs=1e-12)
    assert report.joint_rate == pytest.approx(0.1, abs=0.02)
    assert report.max_indicator_corr < 0.06
    assert report.indicator_corr.shape == (6, 6)
    assert set(report.marginal_rates) == set(report.effects)


def test_calibration_matches_reference_quantiles(desk):
    spec, x, _, _ = desk
    labels = ("A", "B", "AB")
    got = simlab.calibrate_empirical_thresholds(spec, x, labels, 0.3, n_draws=8000, seed=9)
    expected = chi2_quantile(3, 0.3)
    for lab in labels:
        assert got[lab] == pytest.approx(expected, rel=0.12)


def test_calibration_q_one_is_observed_max(desk):
    spec, x, _, _ = desk
    got = simlab.calibrate_empirical_thresholds(spec, x, ("A",), 1.0, n_draws=500, seed=9)
    sweep = simlab.calibrate_empirical_thresholds(
        spec, x, ("A",), {"A": 0.999999}, n_draws=500, seed=9
    )
    assert got["A"] >= sweep["A"]


def test_calibration_validation(desk):
    spec, x, _, _ = desk
    with pytest.raises(ValueError):
        simlab.calibrate_empirical_thresholds(spec, x, (), 0.5, n_draws=100, seed=1)
    with pytest.raises(ValueError):
        simlab.calibrate_empirical_thresholds(spec, x, ("A",), 0.0, n_draws=100, seed=1)
    with pytest.raises(ValueError):
        simlab.calibrate_empirical_thresholds(spec, x, ("A",), 1.5, n_draws=100, seed=1)


# --- synthetic district ---


def test_synthetic_nyde_shape_and_names():
    x = simlab.synthetic_nyde(np.random.default_rng(1))
    assert x.entries.shape == (1376, 11)
    assert x.names == simlab.NYDE_MONITORED + simlab.NYDE_AUXILIARY
    assert np.isfinite(x.entries).all()


def test_synthetic_nyde_value_ranges():
    x = simlab.synthetic_nyde(np.random.default_rng(2))
    assert (x.column("total_students") >= 1).all()
    assert (x.column("num_teachers") >= 1).all()
    assert (x.column("students_temp_housing") >= 0).all()
    for rate in ("enrollment_rate", "poverty_rate", "prop_female"):
        col = x.column(rate)
        assert ((col > 0) & (col < 1)).all()
    shares = sum(
        x.column(c)
        for c in ("prop_white", "prop_black", "prop_asian", "prop_native_american", "prop_latino")
    )
    assert ((shares > 0) & (shares < 1)).all()


def test_synthetic_nyde_auxiliary_structure():
    x = simlab.synthetic_nyde(np.random.default_rng(3))
    z = np.column_stack([np.ones(x.n), x.subset(simlab.NYDE_MONITORED).entries])

    def r2_of(name):
        u = x.column(name)
        coef, *_ = np.linalg.lstsq(z, u, rcond=None)
        resid = u - z @ coef
        return 1.0 - (resid**2).sum() / ((u - u.mean()) ** 2).sum()

    assert 0.90 <= r2_of("num_teachers") <= 0.98
    assert r2_of("students_temp_housing") <= 0.3
