import math

import numpy as np
import pytest

from oracles import chi2_cdf_quadrature, variance_factor_quadrature
from factorial_rerand.balance import BalanceProfile
from factorial_rerand.criteria import (
    AcceptanceRule,
    ThresholdMode,
    Tier,
    accept,
    chi2_cdf,
    chi2_pdf,
    chi2_quantile,
    implied_acceptance_probability,
    reg_lower_incomplete_gamma,
    resolve_thresholds,
    variance_factor,
)


# --- special functions ---


def test_incomplete_gamma_closed_forms():
    # shape 1: P(1, x) = 1 - exp(-x); shape 2: P(2, x) = 1 - (1 + x) exp(-x)
    assert reg_lower_incomplete_gamma(1.0, 1.0) == pytest.approx(1 - math.exp(-1), abs=1e-14)
    assert reg_lower_incomplete_gamma(2.0, 1.0) == pytest.approx(1 - 2 * math.exp(-1), abs=1e-14)
    for x in (0.3, 2.5, 17.0):
        assert reg_lower_incomplete_gamma(1.0, x) == pytest.approx(1 - math.exp(-x), abs=1e-13)


def test_incomplete_gamma_domain():
    assert reg_lower_incomplete_gamma(0.5, 0.0) == 0.0
    assert reg_lower_incomplete_gamma(3.0, math.inf) == 1.0
    with pytest.raises(ValueError):
        reg_lower_incomplete_gamma(0.0, 1.0)
    with pytest.raises(ValueError):
        reg_lower_incomplete_gamma(1.0, -0.5)


@pytest.mark.parametrize("p", [1, 2, 5, 9, 17])
def test_chi2_cdf_against_quadrature(p):
    for x in (0.01, 0.5, 1.0, 3.84, 10.0, 30.0, 59.9):
        assert chi2_cdf(p, x) == pytest.approx(chi2_cdf_quadrature(p, x), abs=1e-12)


def test_chi2_cdf_edges():
    assert chi2_cdf(3, 0.0) == 0.0
    assert chi2_cdf(3, math.inf) == 1.0
    with pytest.raises(ValueError):
        chi2_cdf(3, -1.0)
    with pytest.raises(ValueError):
        chi2_cdf(0, 1.0)
    with pytest.raises(ValueError):
        chi2_cdf(True, 1.0)
    assert chi2_cdf(3.0, 1.0) == chi2_cdf(3, 1.0)  # integral float accepted
    with pytest.raises(ValueError):
        chi2_cdf(2.5, 1.0)


def test_chi2_pdf_values():
    # density of two degrees of freedom is exp(-x/2)/2
    for x in (0.0, 0.5, 3.0):
        assert chi2_pdf(2, x) == pytest.approx(0.5 * math.exp(-x / 2), abs=1e-14)
    assert chi2_pdf(1, 0.0) == math.inf
    assert chi2_pdf(5, 0.0) == 0.0


def test_chi2_quantile_closed_form():
    # median of two degrees of freedom solves 1 - exp(-x/2) = 1/2
    assert chi2_quantile(2, 0.5) == pytest.approx(2 * math.log(2), abs=1e-10)
    assert chi2_quantile(2, 1 - math.exp(-1)) == pytest.approx(2.0, abs=1e-10)


@pytest.mark.parametrize("p", [1, 2, 4, 9, 20])
def test_chi2_quantile_round_trip(p):
    for prob in (1e-4, 0.01, 0.1, 0.39810717055349726, 0.5, 0.9, 0.999):
        x = chi2_quantile(p, prob)
        assert chi2_cdf(p, x) == pytest.approx(prob, abs=1e-10)


def test_chi2_quantile_memo_matches_uncached():
    for p in (1, 2, 3, 9, 20):
        for prob in (1e-4, 0.01, 0.1, 0.25, 0.5, 0.9, 0.999):
            first = chi2_quantile(p, prob)
            assert first == chi2_quantile.__wrapped__(p, prob)
            assert chi2_quantile(p, prob) == first


def test_chi2_quantile_domain():
    with pytest.raises(ValueError):
        chi2_quantile(3, 0.0)
    with pytest.raises(ValueError):
        chi2_quantile(3, 1.0)
    with pytest.raises(ValueError):
        chi2_quantile(3, -0.2)


# --- variance factor ---


def test_variance_factor_reference_value():
    # plugged into the percent-reduction formula this is the worked example
    # value for two covariates at threshold 2
    vf = variance_factor(2, 2.0)
    assert vf.value == pytest.approx(0.4180232931306734, abs=1e-12)
    assert vf.percent_reduction == pytest.approx(58.19767068693266, abs=1e-9)


@pytest.mark.parametrize("p,a", [(1, 0.5), (2, 2.0), (3, 3.83), (9, 7.34), (9, 12.14)])
def test_variance_factor_against_quadrature(p, a):
    assert variance_factor(p, a).value == pytest.approx(
        variance_factor_quadrature(p, a), abs=1e-10
    )


def test_variance_factor_monotone_in_threshold():
    values = [variance_factor(3, a).value for a in (0.1, 0.5, 1.0, 2.0, 5.0, 20.0)]
    assert all(0.0 < v < 1.0 for v in values)
    assert values == sorted(values)
    assert variance_factor(3, math.inf).value == 1.0


def test_variance_factor_rejects_bad_threshold():
    with pytest.raises(ValueError):
        variance_factor(3, 0.0)
    with pytest.raises(ValueError):
        variance_factor(3, -1.0)


# --- tiers and rules ---


def test_tier_requires_exactly_one_criterion():
    Tier("t", ("A",), a=2.0)
    Tier("t", ("A",), joint_prob=0.1)
    with pytest.raises(ValueError):
        Tier("t", ("A",))
    with pytest.raises(ValueError):
        Tier("t", ("A",), a=2.0, joint_prob=0.1)
    for a in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            Tier("t", ("A",), a=a)
    with pytest.raises(ValueError):
        Tier("t", ("A",), joint_prob=1.0)
    with pytest.raises(ValueError):
        Tier("t", ("A", "A"), joint_prob=0.1)
    with pytest.raises(ValueError):
        Tier("t", (), joint_prob=0.1)


def test_tier_refuses_a_bare_string():
    # "AB" would otherwise monitor the mains A and B, not the AB interaction.
    with pytest.raises(ValueError, match="got the string 'AB'"):
        Tier("t", "AB", joint_prob=0.5)
    assert Tier("t", ["AB"], joint_prob=0.5).effects == ("AB",)


def test_rule_rejects_overlapping_tiers():
    t1 = Tier("mains", ("A", "B"), joint_prob=0.2)
    t2 = Tier("other", ("B", "AB"), joint_prob=0.5)
    with pytest.raises(ValueError):
        AcceptanceRule(tiers=(t1, t2), p=3)


def test_rule_empirical_mode_needs_direct_thresholds():
    with pytest.raises(ValueError, match="calibration"):
        AcceptanceRule(
            tiers=(Tier("t", ("A",), joint_prob=0.1),),
            p=2,
            mode=ThresholdMode.EMPIRICAL,
        )
    rule = AcceptanceRule(
        tiers=(Tier("t", ("A",), a=1.5),), p=2, mode=ThresholdMode.EMPIRICAL
    )
    assert resolve_thresholds(rule) == {"A": 1.5}


def test_rule_monitored_effects_order():
    rule = AcceptanceRule(
        tiers=(
            Tier("mains", ("A", "B", "C"), joint_prob=0.01),
            Tier("two", ("AB", "AC"), joint_prob=0.1),
        ),
        p=4,
    )
    assert rule.monitored_effects == ("A", "B", "C", "AB", "AC")


def test_from_thresholds_builds_single_effect_tiers():
    rule = AcceptanceRule.from_thresholds({"A": 1.0, "AB": 2.0}, p=3)
    assert rule.mode is ThresholdMode.EMPIRICAL
    assert rule.monitored_effects == ("A", "AB")
    assert resolve_thresholds(rule) == {"A": 1.0, "AB": 2.0}


def test_resolve_thresholds_splits_joint_probability():
    # three effects sharing a joint target probability of acceptance
    rule = AcceptanceRule(tiers=(Tier("t", ("A", "B", "C"), joint_prob=0.2),), p=3)
    thresholds = resolve_thresholds(rule)
    per_effect = 0.2 ** (1.0 / 3.0)
    for a in thresholds.values():
        assert chi2_cdf(3, a) == pytest.approx(per_effect, abs=1e-12)
    assert implied_acceptance_probability(rule) == pytest.approx(0.2, abs=1e-12)


def test_implied_probability_multiplies_tiers():
    rule = AcceptanceRule(
        tiers=(
            Tier("mains", ("A", "B"), joint_prob=0.2),
            Tier("two", ("AB",), joint_prob=0.5),
        ),
        p=2,
    )
    assert implied_acceptance_probability(rule) == pytest.approx(0.1, abs=1e-12)
    direct = AcceptanceRule(tiers=(Tier("t", ("A",), a=2.0),), p=2)
    assert implied_acceptance_probability(direct) == pytest.approx(
        chi2_cdf(2, 2.0), abs=1e-15
    )


def test_accept_boundary_is_inclusive():
    rule = AcceptanceRule.from_thresholds({"A": 2.0}, p=1)
    at = BalanceProfile(
        covariate_names=("x",), effects=("A",),
        mean_diffs={"A": np.zeros(1)}, distances={"A": 2.0},
    )
    above = BalanceProfile(
        covariate_names=("x",), effects=("A",),
        mean_diffs={"A": np.zeros(1)}, distances={"A": 2.0000001},
    )
    assert accept(at, rule) is True
    assert accept(above, rule) is False


def test_accept_requires_monitored_effects_present():
    rule = AcceptanceRule.from_thresholds({"A": 2.0, "B": 2.0}, p=1)
    partial = BalanceProfile(
        covariate_names=("x",), effects=("A",),
        mean_diffs={"A": np.zeros(1)}, distances={"A": 0.5},
    )
    with pytest.raises(ValueError):
        accept(partial, rule)
