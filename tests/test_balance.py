import ast
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import factorial_rerand
from oracles import mahalanobis_direct, shuffled_allocation
from factorial_rerand.assignment import Allocation, AssignmentMatrix, expand_assignment
from factorial_rerand.balance import CovariateMatrix, balance_profile, fit_covariance
from factorial_rerand.design import DesignSpec, build_design_matrix, expand_model_matrix
from factorial_rerand.errors import DimensionMismatch, SingularCovariance


def _assignment(spec, combos):
    alloc = Allocation(spec=spec, combo_of_unit=np.asarray(combos))
    return expand_assignment(alloc, expand_model_matrix(build_design_matrix(spec)))


def test_covariance_uses_nminus1_divisor():
    x = CovariateMatrix(np.array([[1.0], [2.0], [3.0], [4.0]]), names=("x",))
    cm = fit_covariance(x)
    assert cm.matrix[0, 0] == pytest.approx(5.0 / 3.0, abs=1e-15)
    assert cm.means[0] == pytest.approx(2.5)


def test_single_factor_fixture_distance():
    # units 1,2 to the low cell, 3,4 to the high cell; x = 1,2,3,4
    spec = DesignSpec(k=1, r=2)
    w = _assignment(spec, [1, 1, 2, 2])
    x = CovariateMatrix(np.array([[1.0], [2.0], [3.0], [4.0]]), names=("x",))
    profile = balance_profile(x, w, ("A",))
    assert profile.d("A")[0] == pytest.approx(2.0, abs=1e-15)
    assert profile.m("A") == pytest.approx(2.4, abs=1e-12)


def test_mean_difference_rejects_mean_column():
    spec = DesignSpec(k=1, r=2)
    w = _assignment(spec, [1, 1, 2, 2])
    x = CovariateMatrix(np.array([[1.0], [2.0], [3.0], [4.0]]), names=("x",))
    with pytest.raises(ValueError, match="'mean' is not a factorial effect"):
        balance_profile(x, w, ("mean",))


def test_mean_difference_matches_group_means():
    rng = np.random.default_rng(5)
    spec = DesignSpec(k=2, r=8)
    alloc = shuffled_allocation(spec, rng)
    w = _assignment(spec, alloc.combo_of_unit)
    x = CovariateMatrix(rng.normal(size=(32, 4)), names=("a", "b", "c", "d"))
    profile = balance_profile(x, w, ("A", "B", "AB"))
    for effect in ("A", "B", "AB"):
        col = w.column(effect)
        direct = x.entries[col > 0].mean(axis=0) - x.entries[col < 0].mean(axis=0)
        assert np.allclose(profile.d(effect), direct, atol=1e-12)


def test_mahalanobis_matches_explicit_inverse():
    rng = np.random.default_rng(9)
    spec = DesignSpec(k=3, r=5)
    x = CovariateMatrix(rng.normal(size=(40, 5)), names=tuple("abcde"))
    cm = fit_covariance(x)
    effects = expand_model_matrix(build_design_matrix(spec)).effect_labels
    for _ in range(10):
        w = _assignment(spec, shuffled_allocation(spec, rng).combo_of_unit)
        profile = balance_profile(x, w, effects, cm=cm)
        for effect in effects:
            expected = mahalanobis_direct(profile.d(effect), cm.matrix, n=40)
            assert profile.m(effect) == pytest.approx(expected, rel=1e-10)


def test_distance_affine_invariance():
    rng = np.random.default_rng(17)
    spec = DesignSpec(k=2, r=8)
    alloc = shuffled_allocation(spec, rng)
    w = _assignment(spec, alloc.combo_of_unit)
    base = rng.normal(size=(32, 3))
    a = rng.normal(size=(3, 3)) + 3 * np.eye(3)
    b = rng.normal(size=3)
    x1 = CovariateMatrix(base, names=("p", "q", "r"))
    x2 = CovariateMatrix(base @ a + b, names=("p", "q", "r"))
    p1 = balance_profile(x1, w, ("A", "B", "AB"))
    p2 = balance_profile(x2, w, ("A", "B", "AB"))
    for eff in ("A", "B", "AB"):
        assert p2.m(eff) == pytest.approx(p1.m(eff), rel=1e-8)


def test_sign_flip_leaves_distances_unchanged():
    rng = np.random.default_rng(23)
    spec = DesignSpec(k=3, r=4)
    alloc = shuffled_allocation(spec, rng)
    mm = expand_model_matrix(build_design_matrix(spec))
    w = expand_assignment(alloc, mm)
    flipped = AssignmentMatrix(entries=-w.entries, labels=w.labels, k=w.k)
    x = CovariateMatrix(rng.normal(size=(32, 3)), names=("u", "v", "t"))
    effects = tuple(lab for lab in mm.labels if lab != "mean")
    p1 = balance_profile(x, w, effects)
    p2 = balance_profile(x, flipped, effects)
    for eff in effects:
        assert np.array_equal(p2.d(eff), -p1.d(eff))
        assert p2.m(eff) == p1.m(eff)


def test_singular_covariance_reports_constant_column():
    x = CovariateMatrix(
        np.column_stack([np.arange(8.0), np.full(8, 0.1)]), names=("varies", "flat")
    )
    with pytest.raises(SingularCovariance, match="flat"):
        fit_covariance(x)


def test_singular_covariance_on_collinear_pair():
    base = np.arange(10.0)
    x = CovariateMatrix(np.column_stack([base, 2 * base + 1]), names=("x", "twice"))
    with pytest.raises(SingularCovariance):
        fit_covariance(x)


def test_covariance_needs_enough_rows():
    x = CovariateMatrix(np.random.default_rng(0).normal(size=(3, 3)), names=("a", "b", "c"))
    with pytest.raises(ValueError):
        fit_covariance(x)


def test_covariate_matrix_validation():
    with pytest.raises(ValueError, match="bad"):
        CovariateMatrix(np.array([[1.0], [np.nan]]), names=("bad",))
    with pytest.raises(ValueError):
        CovariateMatrix(np.ones((4, 2)), names=("dup", "dup"))
    x = CovariateMatrix(np.arange(8.0).reshape(4, 2), names=("a", "b"))
    assert x.subset(["b"]).names == ("b",)
    assert x.column("b").tolist() == [1.0, 3.0, 5.0, 7.0]
    with pytest.raises(ValueError):
        x.subset(["missing"])


def test_covariate_matrix_keeps_a_private_copy():
    # A C-contiguous float64 array needs no conversion; freezing it in place
    # would let its owner unfreeze it and change the validated matrix.
    a = np.arange(8.0).reshape(4, 2)
    x = CovariateMatrix(a, names=("a", "b"))
    assert a.flags.writeable
    assert not x.entries.flags.writeable
    a[0, 0] = 99.0
    assert x.entries[0, 0] == 0.0
    assert x.subset(["a"]).entries[0, 0] == 0.0


def test_balance_profile_rows_and_lookup():
    rng = np.random.default_rng(2)
    spec = DesignSpec(k=2, r=4)
    alloc = shuffled_allocation(spec, rng)
    w = _assignment(spec, alloc.combo_of_unit)
    x = CovariateMatrix(rng.normal(size=(16, 2)), names=("one", "two"))
    profile = balance_profile(x, w, ("A", "B", "A"))
    assert profile.effects == ("A", "B")  # deduplicated, order kept
    rows = profile.rows()
    stats = {(eff, stat) for eff, _, stat, _ in rows}
    assert ("A", "mean_difference") in stats and ("B", "mahalanobis") in stats
    assert profile.max_m == max(profile.m("A"), profile.m("B"))
    with pytest.raises(ValueError):
        profile.m("AB")


def test_balance_profile_integer_effect_lookup():
    rng = np.random.default_rng(4)
    spec = DesignSpec(k=2, r=4)
    alloc = shuffled_allocation(spec, rng)
    w = _assignment(spec, alloc.combo_of_unit)
    x = CovariateMatrix(rng.normal(size=(16, 2)), names=("one", "two"))
    by_name = balance_profile(x, w, ("A",))
    by_index = balance_profile(x, w, (1,))
    assert by_index.effects == ("A",)
    assert by_index.m("A") == by_name.m("A")
    with pytest.raises(ValueError):
        balance_profile(x, w, (0,))
    with pytest.raises(ValueError):
        balance_profile(x, w, (4,))


def test_profile_rejects_row_mismatch():
    rng = np.random.default_rng(6)
    spec = DesignSpec(k=2, r=4)
    alloc = shuffled_allocation(spec, rng)
    w = _assignment(spec, alloc.combo_of_unit)
    x = CovariateMatrix(rng.normal(size=(12, 2)), names=("one", "two"))
    with pytest.raises(DimensionMismatch):
        balance_profile(x, w, ("A",))


def test_package_imports_without_scipy():
    code = (
        "import sys, factorial_rerand, factorial_rerand.cli, factorial_rerand.simlab\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    src = str(Path(factorial_rerand.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], env={"PYTHONPATH": src}, capture_output=True, text=True,
        check=True, timeout=60,
    )
    assert out.stdout.strip() == "[]"


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so a runtime check written as one vanishes.
    found = []
    for path in sorted(Path(factorial_rerand.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
