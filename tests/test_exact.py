"""Exact checks on a design small enough to enumerate.

K=2, r=2 has 8 units and 2,520 balanced allocations.  The oracle scores every
one of them by the direct route (group means and an explicit inverse), which
gives the exact set of allocations the rule accepts.  The sampler must draw
only from that set, uniformly, and inference must match the exact
conditional p-values over it.
"""

from collections import Counter
from fractions import Fraction
import math

import numpy as np
import pytest

from oracles import balanced_allocations, mahalanobis_direct
from factorial_rerand import sampling
from factorial_rerand.balance import CovariateMatrix, fit_covariance
from factorial_rerand.criteria import AcceptanceRule, Tier, chi2_cdf, resolve_thresholds
from factorial_rerand.design import DesignSpec, build_design_matrix, expand_model_matrix
from factorial_rerand.engine import randomization_test, rerandomize

SPEC = DesignSpec(k=2, r=2)
RULE = AcceptanceRule(tiers=(Tier("mains", ("A", "B"), joint_prob=0.5),), p=2)
# Fixed before the first run: the goodness-of-fit level, the draws per
# accepted allocation, and the seeds below.
LEVEL = 1e-3
DRAWS_PER_ALLOCATION = 40
# Binomial standard errors a Monte Carlo p-value may stray from the exact one.
P_VALUE_SE = 5.0


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
    counts = Counter(map(tuple, rows.tolist()))
    assert set(counts) <= accepted
    stat = sum((counts[a] - DRAWS_PER_ALLOCATION) ** 2 for a in accepted) / DRAWS_PER_ALLOCATION
    assert 1.0 - chi2_cdf(len(accepted) - 1, stat) > LEVEL


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
