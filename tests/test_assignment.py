import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorial_rerand import fileio
from factorial_rerand.assignment import (
    Allocation,
    combination_multiset,
    expand_assignment,
    negate,
    random_allocation,
)
from factorial_rerand.design import DesignSpec, build_design_matrix, expand_model_matrix
from factorial_rerand.errors import DimensionMismatch


def _mm(spec):
    return expand_model_matrix(build_design_matrix(spec))


def test_combination_multiset():
    spec = DesignSpec(k=2, r=3)
    assert combination_multiset(spec).tolist() == [1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4]


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


def test_allocation_keeps_a_private_copy():
    combos = np.array([1, 1, 2, 2, 3, 3, 4, 4], dtype=np.int32)
    alloc = Allocation(spec=DesignSpec(k=2, r=2), combo_of_unit=combos)
    assert combos.flags.writeable
    assert not alloc.combo_of_unit.flags.writeable
    combos[:2] = 4
    assert alloc.combo_of_unit.tolist() == [1, 1, 2, 2, 3, 3, 4, 4]


def test_random_allocation_is_balanced_and_deterministic():
    spec = DesignSpec(k=3, r=5)
    a1 = random_allocation(spec, np.random.default_rng(7))
    a2 = random_allocation(spec, np.random.default_rng(7))
    a3 = random_allocation(spec, np.random.default_rng(8))
    assert np.array_equal(a1.combo_of_unit, a2.combo_of_unit)
    assert not np.array_equal(a1.combo_of_unit, a3.combo_of_unit)
    assert a1.combo_of_unit.dtype == np.int32
    counts = np.bincount(a1.combo_of_unit, minlength=9)[1:]
    assert (counts == 5).all()


@pytest.mark.parametrize("k, r", [(1, 2), (2, 3), (3, 5), (5, 43)])
def test_intp_multiset_shuffles_to_the_rows_of_the_int32_multiset(k, r):
    # The multiset is intp for numpy's 8-byte shuffle path; the stream of
    # candidates must stay the one the int32 multiset gave.
    spec = DesignSpec(k=k, r=r)
    base = combination_multiset(spec)
    assert base.dtype == np.intp
    narrow = base.astype(np.int32)
    for seed in (0, 7, 41, 2**40 + 3):
        for rows in (1, 5, 64):
            wide_rows = np.repeat(base[None, :], rows, axis=0)
            np.random.default_rng(seed).permuted(wide_rows, axis=1, out=wide_rows)
            narrow_rows = np.repeat(narrow[None, :], rows, axis=0)
            np.random.default_rng(seed).permuted(narrow_rows, axis=1, out=narrow_rows)
            assert np.array_equal(wide_rows, narrow_rows)
        alloc = random_allocation(spec, np.random.default_rng(seed))
        assert np.array_equal(alloc.combo_of_unit, np.random.default_rng(seed).permutation(narrow))


def test_int64_rows_give_the_results_of_int32_rows(tmp_path):
    spec = DesignSpec(k=3, r=4)
    mm = _mm(spec)
    wide = np.random.default_rng(5).permutation(combination_multiset(spec)).astype(np.int64)
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
    alloc = random_allocation(spec, np.random.default_rng(0))
    with pytest.raises(DimensionMismatch):
        expand_assignment(alloc, _mm(DesignSpec(k=3, r=1)))


@settings(max_examples=25, deadline=None)
@given(k=st.integers(min_value=1, max_value=5), r=st.integers(min_value=1, max_value=4),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_signed_columns_sum_to_zero(k, r, seed):
    spec = DesignSpec(k=k, r=r)
    alloc = random_allocation(spec, np.random.default_rng(seed))
    w = expand_assignment(alloc, _mm(spec))
    for label in w.labels:
        total = int(w.column(label).sum())
        assert total == (spec.n if label == "mean" else 0)


def test_negate_flips_odd_order_columns_only():
    spec = DesignSpec(k=3, r=2)
    mm = _mm(spec)
    alloc = random_allocation(spec, np.random.default_rng(3))
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
    alloc = random_allocation(spec, np.random.default_rng(11))
    back = negate(negate(alloc, mm), mm)
    assert np.array_equal(back.combo_of_unit, alloc.combo_of_unit)
    counts = np.bincount(negate(alloc, mm).combo_of_unit, minlength=17)[1:]
    assert (counts == 3).all()
