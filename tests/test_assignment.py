import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import shuffled_allocation
from factorial_rerand import engine, fileio, sampling
from factorial_rerand.assignment import Allocation, expand_assignment, negate
from factorial_rerand.balance import CovariateMatrix
from factorial_rerand.design import DesignSpec, Order, build_design_matrix, expand_model_matrix
from factorial_rerand.errors import DimensionMismatch


def _mm(spec):
    return expand_model_matrix(build_design_matrix(spec))


def _keyed_draws(spec, seed, rows):
    """``rows`` pure draws of the package's keyed stream, over any non-singular covariates."""
    x = CovariateMatrix(np.arange(1.0, spec.n + 1)[:, None], names=("x",))
    draws, _ = sampling.collect(
        engine._prepare(x, spec), lambda rows: rows, seed, sampling.PURPOSE_STUDY_PURE,
        rows, rows, 1,
    )
    return draws


def test_combination_multiset():
    # Every keyed draw holds each combination index exactly r times.
    spec = DesignSpec(k=2, r=3)
    for row in _keyed_draws(spec, 0, 5):
        assert np.sort(row).tolist() == [1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4]


def test_allocation_validation():
    spec = DesignSpec(k=2, r=2)
    Allocation(spec=spec, combo_of_unit=np.array([1, 1, 2, 2, 3, 3, 4, 4]))
    with pytest.raises(DimensionMismatch):
        Allocation(spec=spec, combo_of_unit=np.array([1, 2, 3, 4]))
    with pytest.raises(ValueError, match="combination 1 appears 3 times"):
        Allocation(spec=spec, combo_of_unit=np.array([1, 1, 2, 1, 3, 3, 4, 4]))
    with pytest.raises(ValueError):
        Allocation(spec=spec, combo_of_unit=np.array([0, 1, 2, 2, 3, 3, 4, 4]))
    with pytest.raises(ValueError):
        Allocation(spec=spec, combo_of_unit=np.array([1, 1, 2, 2, 3, 3, 4, 5]))


@pytest.mark.parametrize(
    "combos",
    [
        [1.9, 1.2, 2.7, 2.0],
        np.array([1, 1, 2, 2 + 2**32]),  # wraps to 1, 1, 2, 2 in int32
        [1, 1, "2", 2],
        [True, True, 2, 2],  # numpy makes this an int64 array of 1, 1, 2, 2
    ],
    ids=["floats", "beyond-int32", "string", "bools"],
)
def test_allocation_refuses_inputs_an_int32_cast_would_take(combos):
    with pytest.raises(ValueError, match="integers"):
        Allocation(spec=DesignSpec(k=1, r=2), combo_of_unit=combos)


def test_allocation_keeps_a_private_copy():
    combos = np.array([1, 1, 2, 2, 3, 3, 4, 4], dtype=np.int32)
    alloc = Allocation(spec=DesignSpec(k=2, r=2), combo_of_unit=combos)
    assert combos.flags.writeable
    assert not alloc.combo_of_unit.flags.writeable
    combos[:2] = 4
    assert alloc.combo_of_unit.tolist() == [1, 1, 2, 2, 3, 3, 4, 4]


def test_random_allocation_is_balanced_and_deterministic():
    for order in Order:
        spec = DesignSpec(k=3, r=5, order=order)
        a1 = _keyed_draws(spec, 7, 1)[0]
        a2 = _keyed_draws(spec, 7, 1)[0]
        a3 = _keyed_draws(spec, 8, 1)[0]
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, a3)
        counts = np.bincount(a1, minlength=9)[1:]
        assert (counts == 5).all()


def test_int64_rows_give_the_results_of_int32_rows(tmp_path):
    spec = DesignSpec(k=3, r=4)
    mm = _mm(spec)
    wide = shuffled_allocation(spec, np.random.default_rng(5)).combo_of_unit.astype(np.int64)
    allocs = [Allocation(spec=spec, combo_of_unit=row) for row in (wide, wide.astype(np.int32))]
    for alloc in allocs:
        assert alloc.combo_of_unit.dtype == np.int32
    assert np.array_equal(allocs[0].combo_of_unit, allocs[1].combo_of_unit)
    w64, w32 = (expand_assignment(a, mm) for a in allocs)
    assert w64.entries.dtype == w32.entries.dtype
    assert np.array_equal(w64.entries, w32.entries)
    n64, n32 = (negate(a, mm).combo_of_unit for a in allocs)
    assert n64.dtype == n32.dtype and np.array_equal(n64, n32)
    paths = [tmp_path / "wide.csv", tmp_path / "narrow.csv"]
    for path, alloc in zip(paths, allocs):
        fileio.write_allocation(path, alloc)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    back = [fileio.read_allocation(path, spec).combo_of_unit for path in paths]
    assert np.array_equal(back[0], wide) and np.array_equal(back[1], wide)


def test_expand_assignment_k1_fixture():
    spec = DesignSpec(k=1, r=2)
    alloc = Allocation(spec=spec, combo_of_unit=np.array([1, 1, 2, 2]))
    w = expand_assignment(alloc, _mm(spec))
    assert w.column("mean").tolist() == [1.0, 1.0, 1.0, 1.0]
    assert w.column("A").tolist() == [-1.0, -1.0, 1.0, 1.0]


def test_expand_assignment_k_mismatch():
    spec = DesignSpec(k=2, r=2)
    alloc = shuffled_allocation(spec, np.random.default_rng(0))
    with pytest.raises(DimensionMismatch):
        expand_assignment(alloc, _mm(DesignSpec(k=3, r=1)))


@settings(max_examples=25, deadline=None)
@given(k=st.integers(min_value=1, max_value=5), r=st.integers(min_value=1, max_value=4),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_signed_columns_sum_to_zero(k, r, seed):
    spec = DesignSpec(k=k, r=r)
    alloc = shuffled_allocation(spec, np.random.default_rng(seed))
    w = expand_assignment(alloc, _mm(spec))
    for label in w.labels:
        total = int(w.column(label).sum())
        assert total == (spec.n if label == "mean" else 0)


def test_negate_flips_odd_order_columns_only():
    spec = DesignSpec(k=3, r=2)
    mm = _mm(spec)
    alloc = shuffled_allocation(spec, np.random.default_rng(3))
    mirrored = negate(alloc, mm)
    w = expand_assignment(alloc, mm)
    wm = expand_assignment(mirrored, mm)
    for label in mm.labels:
        order = mm.interaction_order(label)
        sign = -1.0 if order % 2 == 1 else 1.0
        assert np.array_equal(wm.column(label), sign * w.column(label)), label


def test_negate_is_an_involution_and_balanced():
    spec = DesignSpec(k=4, r=3)
    mm = _mm(spec)
    alloc = shuffled_allocation(spec, np.random.default_rng(11))
    back = negate(negate(alloc, mm), mm)
    assert np.array_equal(back.combo_of_unit, alloc.combo_of_unit)
    counts = np.bincount(negate(alloc, mm).combo_of_unit, minlength=17)[1:]
    assert (counts == 3).all()
