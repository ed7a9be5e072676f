"""Exact checks on designs small enough to enumerate.

K=2, r=2 has 8 units and 2,520 balanced allocations; K=3, r=1 has 8 units and
40,320, with a third level of nesting and a three-way interaction.  The
oracle scores every allocation by the direct route (group means and an
explicit inverse), which gives the exact set of allocations the rule
accepts.  The sampler must draw only from that set, uniformly, and inference
must match the exact conditional p-values over it.
"""

from collections import Counter
from fractions import Fraction
import math

import numpy as np
import pytest

from oracles import balanced_allocations, mahalanobis_direct
from factorial_rerand import engine, sampling
from factorial_rerand.balance import CovariateMatrix, fit_covariance
from factorial_rerand.criteria import AcceptanceRule, Tier, chi2_cdf, resolve_thresholds
from factorial_rerand.design import DesignSpec, build_design_matrix, expand_model_matrix
from factorial_rerand.engine import randomization_test, rerandomize

SPEC = DesignSpec(k=2, r=2)
RULE = AcceptanceRule(tiers=(Tier("mains", ("A", "B"), joint_prob=0.5),), p=2)
SPEC3 = DesignSpec(k=3, r=1)
RULE3 = AcceptanceRule(
    tiers=(Tier("mains", ("A", "B", "C"), joint_prob=0.3), Tier("abc", ("ABC",), joint_prob=0.5)),
    p=2,
)
# Fixed before the first run: the goodness-of-fit level, the draws per
# accepted allocation, and the seeds below.
LEVEL = 1e-3
DRAWS_PER_ALLOCATION = 40
DRAWS_PER_ALLOCATION3 = 10
# Binomial standard errors a Monte Carlo p-value may stray from the exact one.
P_VALUE_SE = 5.0


def _uniform_on(accepted, rows, per_allocation):
    """Goodness-of-fit p-value of ``rows`` against uniform on ``accepted``, after checking containment."""
    counts = Counter(map(tuple, rows.tolist()))
    assert set(counts) <= accepted
    stat = sum((counts[a] - per_allocation) ** 2 for a in accepted) / per_allocation
    return 1.0 - chi2_cdf(len(accepted) - 1, stat)


@pytest.fixture(scope="module")
def exact():
    x = CovariateMatrix(np.random.default_rng(2520).normal(size=(SPEC.n, 2)), names=("x1", "x2"))
    mm = expand_model_matrix(build_design_matrix(SPEC))
    cov = np.cov(x.entries, rowvar=False)
    thresholds = resolve_thresholds(RULE)
    allocations = balanced_allocations(SPEC.k, SPEC.r)
    assert len(allocations) == 2520
    accepted = set()
    margin = math.inf
    for alloc in allocations:
        passes = True
        for label, a in thresholds.items():
            signs = mm.column(label)[np.array(alloc) - 1]
            d = x.entries[signs > 0].mean(axis=0) - x.entries[signs < 0].mean(axis=0)
            m = mahalanobis_direct(d, cov, SPEC.n)
            margin = min(margin, abs(m - a) / a)
            passes = passes and m <= a
        if passes:
            accepted.add(alloc)
    # No distance lies so near its threshold that rounding could decide it.
    assert margin > 1e-9
    assert 0 < len(accepted) < len(allocations)
    return x, mm, accepted


def test_collect_draws_uniformly_from_the_exact_accepted_set(exact):
    x, mm, accepted = exact
    kernel = sampling.BalanceKernel(x, SPEC, mm, fit_covariance(x), resolve_thresholds(RULE))
    n = DRAWS_PER_ALLOCATION * len(accepted)
    rows, _ = sampling.collect(
        kernel, lambda rows: rows, 1, sampling.PURPOSE_REFERENCE, n, 10 * n, 1
    )
    assert _uniform_on(accepted, rows, DRAWS_PER_ALLOCATION) > LEVEL


def test_rerandomize_winners_lie_in_the_exact_accepted_set(exact):
    x, _, accepted = exact
    for seed in range(100):
        winner = rerandomize(x, SPEC, RULE, seed=seed).allocation.combo_of_unit
        assert tuple(winner.tolist()) in accepted, seed


def test_randomization_test_p_values_match_the_exact_conditional_p_values(exact):
    x, mm, accepted = exact
    labels, n_draws = ("A", "B", "AB"), 2000
    y = np.random.default_rng(8).normal(size=SPEC.n)
    exact_y = [Fraction(v) for v in y]

    def contrast(alloc, label):
        signs = mm.column(label)[np.array(alloc) - 1]
        return abs(sum(int(s) * v for s, v in zip(signs, exact_y)))

    reference = {lab: [contrast(a, lab) for a in accepted] for lab in labels}
    for seed in range(5):
        observed = rerandomize(x, SPEC, RULE, seed=seed).allocation
        result = randomization_test(y, observed, x, RULE, labels, n_draws=n_draws, seed=seed)
        for lab in labels:
            t_obs = contrast(tuple(observed.combo_of_unit.tolist()), lab)
            p = sum(t >= t_obs for t in reference[lab]) / len(accepted)
            # The add-one convention shifts the estimate by at most 1/(1+n).
            bound = P_VALUE_SE * math.sqrt(p * (1 - p) / n_draws) + 1 / (1 + n_draws)
            assert abs(result.p_value(lab) - p) <= bound, (seed, lab, p)


@pytest.fixture(scope="module")
def exact3():
    x = CovariateMatrix(np.random.default_rng(40320).normal(size=(SPEC3.n, 2)), names=("x1", "x2"))
    mm = expand_model_matrix(build_design_matrix(SPEC3))
    inv = np.linalg.inv(np.cov(x.entries, rowvar=False))
    allocations = np.array(balanced_allocations(SPEC3.k, SPEC3.r))
    assert allocations.shape == (40320, SPEC3.n)
    passes = np.ones(len(allocations), dtype=bool)
    margin = math.inf
    for label, a in resolve_thresholds(RULE3).items():
        signs = mm.column(label)[allocations - 1].astype(np.float64)
        # Group means over the n/2 units on each side, then n/4 d' S^-1 d.
        d = signs @ x.entries / (SPEC3.n / 2)
        m = SPEC3.n / 4 * np.einsum("ij,jk,ik->i", d, inv, d)
        margin = min(margin, float(np.min(np.abs(m - a) / a)))
        passes &= m <= a
    assert margin > 1e-9
    accepted = set(map(tuple, allocations[passes].tolist()))
    assert 0 < len(accepted) < len(allocations)
    return x, mm, accepted


@pytest.mark.parametrize("batch", [None, sampling.ENGINE_BATCH])
def test_collect_draws_uniformly_from_the_exact_accepted_set_k3(exact3, batch):
    # ENGINE_BATCH-row batches of the rerandomize stream are the draws
    # rerandomize takes its winner from.
    x, mm, accepted = exact3
    kernel = sampling.BalanceKernel(x, SPEC3, mm, fit_covariance(x), resolve_thresholds(RULE3))
    n = DRAWS_PER_ALLOCATION3 * len(accepted)
    rows, _ = sampling.collect(
        kernel, lambda rows: rows, 3, sampling.PURPOSE_RERANDOMIZE, n, 100 * n, 1, batch=batch
    )
    assert _uniform_on(accepted, rows, DRAWS_PER_ALLOCATION3) > LEVEL


def test_rerandomize_winners_lie_in_the_exact_accepted_set_k3(exact3):
    x, _, accepted = exact3
    for seed in range(100):
        winner = rerandomize(x, SPEC3, RULE3, seed=seed).allocation.combo_of_unit
        assert tuple(winner.tolist()) in accepted, seed


@pytest.mark.parametrize(
    "spec, per_allocation", [(SPEC, DRAWS_PER_ALLOCATION), (SPEC3, DRAWS_PER_ALLOCATION3)]
)
def test_pure_collect_draws_uniformly_from_every_balanced_allocation(spec, per_allocation):
    # No screen guards a pure draw: only this oracle sees a biased split there.
    x = CovariateMatrix(np.random.default_rng(8).normal(size=(spec.n, 2)), names=("x1", "x2"))
    everything = set(balanced_allocations(spec.k, spec.r))
    n = per_allocation * len(everything)
    rows, scanned = sampling.collect(
        engine._prepare(x, spec), lambda rows: rows, 5, sampling.PURPOSE_STUDY_PURE, n, n, 1
    )
    assert scanned == n
    assert _uniform_on(everything, rows, per_allocation) > LEVEL


def _few_keys(rng, out):
    """Keys from a range so small that most rows tie somewhere, many at a cell edge."""
    out[...] = rng.integers(0, 10, size=out.shape, dtype=np.uint32)


def _edge_tie(keys, spec):
    ranked = np.sort(keys)
    edges = np.arange(1, spec.n_combinations) * spec.r
    return bool(np.any(ranked[edges - 1] == ranked[edges]))


def test_rows_that_tie_at_a_cell_edge_are_never_accepted(exact, monkeypatch):
    x, mm, accepted = exact
    monkeypatch.setattr(sampling, "random_keys", _few_keys)
    kernel = sampling.BalanceKernel(x, SPEC, mm, fit_covariance(x), resolve_thresholds(RULE))
    keys = kernel.draw(np.random.default_rng(4), 2000).copy()
    tied = [_edge_tie(row, SPEC) for row in keys]
    assert 0.2 < np.mean(tied) < 0.9
    alive = kernel.surviving(keys)
    assert alive.size and not any(tied[i] for i in alive)
    positions, rows = kernel.screen(np.random.default_rng(4), 2000, 2000, lambda rows: rows)
    assert np.array_equal(positions, alive)
    assert all(tuple(row) in accepted for row in rows.tolist())

    # Accepted rows stay uniform on the accepted set, and pure rows on every
    # balanced allocation; a pure draw replaces its tied rows, in order, so
    # its chunks still give the rows of one whole draw.
    n = DRAWS_PER_ALLOCATION * len(accepted)
    rows, _ = sampling.collect(
        kernel, lambda rows: rows, 1, sampling.PURPOSE_REFERENCE, n, 10 * n, 1
    )
    assert _uniform_on(accepted, rows, DRAWS_PER_ALLOCATION) > LEVEL
    everything = set(balanced_allocations(SPEC.k, SPEC.r))
    pure = engine._prepare(x, SPEC)
    n = DRAWS_PER_ALLOCATION * len(everything)
    rows, scanned = sampling.collect(
        pure, lambda rows: rows, 2, sampling.PURPOSE_STUDY_PURE, n, n, 1
    )
    assert scanned == n
    assert _uniform_on(everything, rows, DRAWS_PER_ALLOCATION) > LEVEL
    monkeypatch.setattr(sampling, "MAX_CHUNK", 7)
    chunked, _ = sampling.collect(
        pure, lambda rows: rows, 2, sampling.PURPOSE_STUDY_PURE, 1000, 1000, 1
    )
    assert np.array_equal(chunked, rows[:1000])
