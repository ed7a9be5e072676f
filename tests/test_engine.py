import gc
import json
import weakref
from fractions import Fraction

import numpy as np
import pytest

from oracles import shuffled_allocation
from factorial_rerand import engine, sampling, simlab
from factorial_rerand.assignment import Allocation, AssignmentMatrix, expand_assignment
from factorial_rerand.balance import CovariateMatrix, balance_profile, fit_covariance
from factorial_rerand.criteria import (
    AcceptanceRule,
    Tier,
    accept,
    resolve_thresholds,
)
from factorial_rerand.design import DesignSpec, build_design_matrix, expand_model_matrix
from factorial_rerand.engine import (
    estimate_effects,
    randomization_test,
    rerandomize,
)
from factorial_rerand.errors import DimensionMismatch, MaxDrawsExceeded, SingularCovariance


@pytest.fixture
def small_problem():
    rng = np.random.default_rng(101)
    spec = DesignSpec(k=2, r=8)
    x = CovariateMatrix(rng.normal(size=(32, 2)), names=("x1", "x2"))
    rule = AcceptanceRule(tiers=(Tier("mains", ("A", "B"), joint_prob=0.25),), p=2)
    return spec, x, rule


def test_rerandomize_returns_accepted_allocation(small_problem):
    spec, x, rule = small_problem
    result = rerandomize(x, spec, rule, seed=5)
    mm = expand_model_matrix(build_design_matrix(spec))
    w = expand_assignment(result.allocation, mm)
    profile = balance_profile(x, w, rule.monitored_effects)
    assert accept(profile, rule)
    for eff in rule.monitored_effects:
        assert result.profile.m(eff) == pytest.approx(profile.m(eff), rel=1e-12)
        assert result.profile.m(eff) <= result.thresholds[eff]
    assert result.draws_attempted >= 1
    assert result.seed == 5


def test_rerandomize_is_deterministic_across_worker_counts(small_problem):
    spec, x, rule = small_problem
    base = rerandomize(x, spec, rule, seed=9, workers=1)
    threaded = rerandomize(x, spec, rule, seed=9, workers=4)
    assert np.array_equal(base.allocation.combo_of_unit, threaded.allocation.combo_of_unit)
    assert base.draws_attempted == threaded.draws_attempted
    different = rerandomize(x, spec, rule, seed=10)
    assert not np.array_equal(
        base.allocation.combo_of_unit, different.allocation.combo_of_unit
    )
    # Every sampling entry point refuses a worker count below one.
    y = np.zeros(32)
    entry_points = [
        lambda w: rerandomize(x, spec, rule, seed=9, workers=w),
        lambda w: randomization_test(y, base.allocation, x, rule, ("A",), 100, seed=1, workers=w),
        lambda w: simlab.variance_study(spec, x, rule, None, 10, seed=1, workers=w),
        lambda w: simlab.independence_study(spec, x, rule, 10, seed=1, workers=w),
        lambda w: simlab.calibrate_empirical_thresholds(spec, x, ("A",), 0.5, 10, 1, workers=w),
    ]
    for run in entry_points:
        with pytest.raises(ValueError, match="workers must be positive"):
            run(0)


def test_rerandomize_winner_is_the_first_screen_survivor(small_problem):
    spec, x, rule = small_problem
    # A tight rule too, so that winners lie past the first batch and four
    # workers scan several batches at once.
    tight = AcceptanceRule(tiers=(Tier("mains", ("A", "B"), joint_prob=0.005),), p=2)
    batch = sampling.ENGINE_BATCH
    mm = expand_model_matrix(build_design_matrix(spec))
    batches = set()
    for rule_ in (rule, tight):
        kernel = sampling.BalanceKernel(x, spec, mm, fit_covariance(x), resolve_thresholds(rule_))
        for seed in range(6):
            b = (rerandomize(x, spec, rule_, seed=seed).draws_attempted - 1) // batch
            batches.add(b)
            drawn = [
                kernel.draw(sampling.batch_rng(seed, sampling.PURPOSE_RERANDOMIZE, i), batch)
                for i in range(b + 1)
            ]
            assert all(kernel.surviving(c).size == 0 for c in drawn[:b])
            alive = kernel.surviving(drawn[b])
            combos = kernel.allocations(drawn[b])
            for workers in (1, 4):
                result = rerandomize(x, spec, rule_, seed=seed, workers=workers)
                assert result.draws_attempted == b * batch + alive[0] + 1, seed
                assert result.allocation.seed_info["batch"] == b
                assert np.array_equal(result.allocation.combo_of_unit, combos[alive[0]])
                # The reported distances are balance_profile's bits, which
                # ``rerand diagnose`` prints too.
                w = expand_assignment(result.allocation, mm)
                profile = balance_profile(x, w, rule_.monitored_effects, cm=fit_covariance(x))
                assert result.profile.distances == profile.distances
    assert max(batches) > 1


def test_rerandomize_draw_counts_match_geometric_rate(small_problem):
    spec, x, rule = small_problem
    draws = [rerandomize(x, spec, rule, seed=s).draws_attempted for s in range(120)]
    mean = float(np.mean(draws))
    # acceptance runs at about one in four, so the mean draw count sits near 4
    assert 2.6 < mean < 5.8


def test_rerandomize_budget_exhaustion(small_problem):
    spec, x, _ = small_problem
    tight = AcceptanceRule(tiers=(Tier("mains", ("A", "B"), joint_prob=1e-8),), p=2)
    with pytest.raises(MaxDrawsExceeded, match="1e-08"):
        rerandomize(x, spec, tight, seed=1, max_draws=50)


def test_rerandomize_validates_dimensions(small_problem):
    spec, x, rule = small_problem
    with pytest.raises(DimensionMismatch):
        rerandomize(x, DesignSpec(k=2, r=4), rule, seed=1)
    wrong_p = AcceptanceRule(tiers=(Tier("mains", ("A",), joint_prob=0.5),), p=3)
    with pytest.raises(DimensionMismatch):
        rerandomize(x, spec, wrong_p, seed=1)


def test_manifest_is_json_ready(small_problem):
    spec, x, rule = small_problem
    result = rerandomize(x, spec, rule, seed=77, workers=2)
    manifest = result.manifest(version="9.9.9")
    text = json.dumps(manifest)
    assert "9.9.9" in text
    assert manifest["seed"] == 77
    assert manifest["draws_attempted"] == result.draws_attempted
    tier = manifest["rule"]["tiers"][0]
    assert tier["joint_prob"] == 0.25
    assert tier["a"] == pytest.approx(result.thresholds["A"])
    assert manifest["design"] == {
        "k": 2, "r": 8, "n": 32, "order": "lexicographic", "factor_names": ["A", "B"],
    }
    assert manifest["distances"].keys() == {"A", "B"}


def test_estimate_effects_k2_fixture():
    spec = DesignSpec(k=2, r=1)
    mm = expand_model_matrix(build_design_matrix(spec))
    alloc = Allocation(spec=spec, combo_of_unit=np.array([1, 2, 3, 4]))
    w = expand_assignment(alloc, mm)
    est = estimate_effects(np.array([1.0, 2.0, 3.0, 4.0]), w, ("A", "B", "AB"))
    assert est.estimate("A") == pytest.approx(2.0, abs=1e-14)
    assert est.estimate("B") == pytest.approx(1.0, abs=1e-14)
    assert est.estimate("AB") == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(ValueError):
        est.estimate("C")


def test_estimate_effects_rejects_unbalanced_column():
    # Column A puts three units high and one low, so the group-mean
    # difference and (2/n) y.w disagree.
    w = AssignmentMatrix(
        entries=np.array([[1, 1], [1, 1], [1, 1], [1, -1]]), labels=("I", "A"), k=1
    )
    with pytest.raises(ValueError, match="not balanced"):
        estimate_effects(np.array([1.0, 2.0, 3.0, 4.0]), w, ("A",))


def _effect_list_calls(spec, x, rule):
    """Each public call that takes an effect list, as a function of that list."""
    alloc = rerandomize(x, spec, rule, seed=1).allocation
    mm = expand_model_matrix(build_design_matrix(spec))
    w = expand_assignment(alloc, mm)
    y = np.arange(float(spec.n))
    model = simlab.OutcomeModel(effects={"A": 1.0}, beta=np.ones(2), sigma=1.0)
    return {
        "estimate_effects": lambda eff: estimate_effects(y, w, eff),
        "randomization_test": lambda eff: randomization_test(
            y, alloc, x, rule, eff, n_draws=100, seed=2
        ),
        "variance_study": lambda eff: simlab.variance_study(
            spec, x, rule, model, n_reps=50, seed=3, effects=eff
        ),
        "calibrate_empirical_thresholds": lambda eff: simlab.calibrate_empirical_thresholds(
            spec, x, eff, 0.5, 100, seed=4
        ),
        "rerandomize": lambda eff: rerandomize(
            x, spec, AcceptanceRule(tiers=(Tier("t", eff, joint_prob=0.5),), p=2), seed=5
        ),
    }


BAD_EFFECT_LISTS = [
    (("mean", "A"), "'mean' is not a factorial effect"),
    (("A", "Z"), "'Z' is not a factorial effect"),
    ("AB", "got the string 'AB'"),
]


@pytest.mark.parametrize("call, effects, message", [
    (call, effects, message)
    for call in ("estimate_effects", "randomization_test", "variance_study",
                 "calibrate_empirical_thresholds", "rerandomize")
    for effects, message in BAD_EFFECT_LISTS
])
def test_effect_lists_are_checked_before_any_draw(small_problem, monkeypatch, call, effects, message):
    fn = _effect_list_calls(*small_problem)[call]

    def no_draw(*args, **kwargs):
        raise AssertionError("a candidate was drawn before the effect list was checked")

    monkeypatch.setattr(sampling.BalanceKernel, "draw", no_draw)
    with pytest.raises(ValueError, match=message):
        fn(effects)


def test_randomization_test_requires_accepted_observed(small_problem):
    spec, x, rule = small_problem
    # scan for an allocation the rule rejects
    rng = np.random.default_rng(0)
    mm = expand_model_matrix(build_design_matrix(spec))
    rejected = None
    for _ in range(200):
        cand = shuffled_allocation(spec, rng)
        w = expand_assignment(cand, mm)
        if not accept(balance_profile(x, w, rule.monitored_effects), rule):
            rejected = cand
            break
    assert rejected is not None
    y = rng.normal(size=32)
    with pytest.raises(ValueError, match="fails the acceptance rule"):
        randomization_test(y, rejected, x, rule, ("A",), n_draws=100, seed=3)


def test_randomization_test_p_values(small_problem):
    spec, x, rule = small_problem
    result = rerandomize(x, spec, rule, seed=21)
    rng = np.random.default_rng(4)
    mm = expand_model_matrix(build_design_matrix(spec))
    w = expand_assignment(result.allocation, mm)

    # no effect anywhere: p should land well away from the extremes
    y_null = x.entries @ np.array([1.0, -0.5]) + rng.normal(size=32)
    null = randomization_test(
        y_null, result.allocation, x, rule, ("A", "B"), n_draws=200, seed=8
    )
    assert null.n_reference == 200
    for eff in ("A", "B"):
        assert 1.0 / 201.0 <= null.p_values[eff] <= 1.0
        fields = null.null_summary[eff]
        assert set(fields) >= {"mean", "sd", "q025", "median", "q975"}

    # a huge planted effect drives the p-value to the add-one floor
    y_big = y_null + 50.0 * w.column("A")
    planted = randomization_test(
        y_big, result.allocation, x, rule, ("A",), n_draws=200, seed=8
    )
    assert planted.p_values["A"] == pytest.approx(1.0 / 201.0, abs=1e-12)
    assert planted.observed["A"] == pytest.approx(100.0, rel=0.2)


@pytest.mark.parametrize("draws, effects", [(399, 3), (100, 15), (1000, 7)])
def test_null_summary_equals_per_column_statistics(draws, effects):
    rng = np.random.default_rng(draws + effects)
    for table in (rng.normal(size=(draws, effects)), rng.integers(-3, 4, size=(draws, effects)) / 8):
        labels = tuple(f"e{j}" for j in range(effects))
        summary = engine._null_summary(table, labels)
        for j, lab in enumerate(labels):
            col = table[:, j]
            q = np.quantile(col, [0.025, 0.5, 0.975])
            assert summary[lab] == {
                "mean": float(col.mean()),
                "sd": float(col.std(ddof=1)),
                "q025": float(q[0]),
                "median": float(q[1]),
                "q975": float(q[2]),
            }


def test_randomization_test_deterministic_across_workers(small_problem):
    spec, x, rule = small_problem
    result = rerandomize(x, spec, rule, seed=33)
    y = np.random.default_rng(5).normal(size=32)
    one = randomization_test(y, result.allocation, x, rule, ("A",), n_draws=150, seed=6, workers=1)
    four = randomization_test(y, result.allocation, x, rule, ("A",), n_draws=150, seed=6, workers=4)
    assert one.p_values == four.p_values
    assert one.draws_scanned == four.draws_scanned


def test_randomization_test_counts_reference_draws_that_split_like_the_observed():
    # With 8 units a reference draw often splits the units exactly like the
    # observed allocation, or mirrors it.  Its statistic then ties |t_obs| and
    # must count.  Recount every p-value in exact arithmetic over the same
    # reference stream.
    spec = DesignSpec(k=2, r=2)
    rule = AcceptanceRule(tiers=(Tier("mains", ("A", "B"), joint_prob=0.5),), p=2)
    labels, n_draws = ("A", "B", "AB"), 100
    ties = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        x = CovariateMatrix(rng.normal(size=(8, 2)), names=("x1", "x2"))
        y = rng.normal(size=8)
        observed = rerandomize(x, spec, rule, seed=seed).allocation
        result = randomization_test(y, observed, x, rule, labels, n_draws=n_draws, seed=seed)

        kernel = engine._prepare(x, spec, rule)
        rows, _ = sampling.collect(
            kernel, lambda rows: rows, seed, sampling.PURPOSE_REFERENCE, n_draws,
            10 * engine.DEFAULT_MAX_DRAWS, 1,
        )
        assert len(rows) == n_draws
        exact_y = [Fraction(v) for v in y]
        for lab in labels:
            lookup = kernel.sign_lookup(lab)

            def contrast(combos):
                return abs(sum(int(s) * v for s, v in zip(lookup[combos], exact_y)))

            t_obs = contrast(observed.combo_of_unit)
            exceed = sum(contrast(row) >= t_obs for row in rows)
            # |s . s_obs| = n exactly when the sign column is +-s_obs.
            s_obs = lookup[observed.combo_of_unit]
            ties += sum(abs(lookup[row] @ s_obs) == spec.n for row in rows)
            assert result.p_values[lab] == (1 + exceed) / (1 + n_draws), (seed, lab)
    assert ties > 0


def test_randomization_test_minimum_draws(small_problem):
    spec, x, rule = small_problem
    result = rerandomize(x, spec, rule, seed=2)
    y = np.zeros(32)
    with pytest.raises(ValueError):
        randomization_test(y, result.allocation, x, rule, ("A",), n_draws=99, seed=1)


def test_randomization_test_worker_invariant_with_partial_final_batch(small_problem, monkeypatch):
    spec, x, rule = small_problem
    result = rerandomize(x, spec, rule, seed=33)
    y = np.random.default_rng(5).normal(size=32)
    # Small batches put the last accepted draw several batches in.
    monkeypatch.setattr(sampling, "STUDY_BATCH", 96)

    def run(workers, max_draws):
        try:
            return randomization_test(
                y, result.allocation, x, rule, ("A", "B"), n_draws=150, seed=6,
                workers=workers, max_draws=max_draws,
            ).to_dict()
        except MaxDrawsExceeded as exc:
            return str(exc)

    full = run(1, 10_000)
    scanned = full["draws_scanned"]
    assert scanned > 96 and scanned % 96
    # The budget ends inside the batch that meets the demand: exactly enough,
    # then one candidate short.
    for max_draws in (scanned, scanned - 1):
        outs = [run(workers, max_draws) for workers in (1, 2, 4)]
        assert outs[0] == outs[1] == outs[2]
    assert run(1, scanned) == full
    assert "collected 149 of 150" in run(1, scanned - 1)


def _fresh(x):
    """An equal-valued covariates object with no prepared state of its own."""
    return CovariateMatrix(x.entries, names=x.names)


def test_one_kernel_serves_every_call_on_the_same_inputs(small_problem, monkeypatch):
    spec, x, rule = small_problem
    built = []
    init = sampling.BalanceKernel.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(sampling.BalanceKernel, "__init__", counting_init)
    result = rerandomize(x, spec, rule, seed=3)
    y = np.random.default_rng(3).normal(size=32)
    randomization_test(y, result.allocation, x, rule, ("A",), n_draws=100, seed=4)
    simlab.variance_study(spec, x, rule, None, n_reps=50, seed=5)
    simlab.independence_study(spec, x, rule, n_reps=50, seed=6)
    # Two kernels: the rule's, and the one with no thresholds that the pure
    # draws of both studies use.
    assert len(built) == 2
    assert engine._prepare(x, spec, rule) is built[0]
    assert engine._prepare(x, spec) is built[1]
    # A second study and a calibration on the same inputs build none.
    simlab.variance_study(spec, x, rule, None, n_reps=50, seed=7)
    simlab.calibrate_empirical_thresholds(spec, x, ("A", "AB"), 0.5, n_draws=100, seed=8)
    assert len(built) == 2
    # An equal but distinct covariates object is prepared on its own.
    other = _fresh(x)
    rerandomize(other, spec, rule, seed=3)
    assert len(built) == 3
    assert engine._prepare(x, spec, rule) is built[0]
    assert engine._prepare(other, spec, rule) is built[2]
    # So are an equal-valued design and rule: they hash by value.
    assert engine._prepare(x, DesignSpec(k=2, r=8), AcceptanceRule(
        tiers=(Tier("mains", ("A", "B"), joint_prob=0.25),), p=2)) is built[0]
    assert engine._prepare(x, DesignSpec(k=2, r=8)) is built[1]
    assert len(built) == 3


@pytest.mark.parametrize("workers", [1, 2])
def test_warm_calls_equal_a_cold_call(small_problem, workers):
    spec, x, rule = small_problem
    y = np.random.default_rng(8).normal(size=32)
    model = simlab.OutcomeModel(effects={"A": 1.0}, beta=np.ones(2), sigma=1.0)

    def outputs(cov):
        r = rerandomize(cov, spec, rule, seed=12, workers=workers)
        t = randomization_test(y, r.allocation, cov, rule, ("A", "AB"), n_draws=150, seed=13,
                               workers=workers)
        s = simlab.variance_study(spec, cov, rule, model, n_reps=60, seed=14, workers=workers)
        i = simlab.independence_study(spec, cov, rule, n_reps=60, seed=15, workers=workers)
        return (r.allocation.combo_of_unit.tolist(), r.draws_attempted, r.profile.distances,
                r.thresholds, r.acceptance_probability, t.to_dict(),
                json.dumps(s.to_dict()), json.dumps(i.to_dict()))

    cold = outputs(_fresh(x))
    outputs(x)
    assert outputs(x) == outputs(x) == cold


def test_results_own_their_thresholds(small_problem):
    spec, x, rule = small_problem
    first = rerandomize(x, spec, rule, seed=4)
    expected = dict(first.thresholds)
    # A shared dict would carry these into every later call.
    first.thresholds["A"] = 0.0
    first.thresholds["B"] = 1e9
    later = rerandomize(x, spec, rule, seed=4)
    cold = rerandomize(_fresh(x), spec, rule, seed=4)
    assert later.thresholds == cold.thresholds == expected
    assert np.array_equal(later.allocation.combo_of_unit, cold.allocation.combo_of_unit)
    assert later.draws_attempted == cold.draws_attempted
    report = simlab.variance_study(spec, x, rule, None, n_reps=20, seed=1)
    report.thresholds.clear()
    assert dict(engine._prepare(x, spec, rule).thresholds) == expected
    with pytest.raises(TypeError):
        engine._prepare(x, spec, rule).thresholds["A"] = 0.0


def test_prepared_state_lives_as_long_as_the_covariates():
    spec = DesignSpec(k=2, r=8)
    rule = AcceptanceRule(tiers=(Tier("mains", ("A", "B"), joint_prob=0.25),), p=2)
    x = CovariateMatrix(np.random.default_rng(6).normal(size=(32, 2)), names=("x1", "x2"))
    result = rerandomize(x, spec, rule, seed=1)
    gc.collect()  # drops what earlier tests left behind
    entries = len(engine._kernels)
    kernel = weakref.ref(engine._prepare(x, spec, rule))
    owner = weakref.ref(x)
    del x
    gc.collect()
    assert owner() is None
    assert kernel() is None
    assert len(engine._kernels) == entries - 1
    assert result.allocation.n == 32


def test_a_failed_preparation_stores_nothing(small_problem):
    spec, x, rule = small_problem
    wrong_p = AcceptanceRule(tiers=(Tier("mains", ("A",), joint_prob=0.5),), p=3)
    unknown = AcceptanceRule(tiers=(Tier("mains", ("A", "C"), joint_prob=0.5),), p=2)
    constant = CovariateMatrix(np.column_stack((x.entries[:, 0], np.ones(32))), names=x.names)
    for cov, rule_, error in ((x, wrong_p, DimensionMismatch), (x, unknown, ValueError),
                              (constant, rule, SingularCovariance)):
        for _ in range(2):
            with pytest.raises(error):
                rerandomize(cov, spec, rule_, seed=1)
        assert cov not in engine._kernels
