"""Balanced random allocations of units to factorial treatment combinations."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .design import DesignSpec, ModelMatrix
from .errors import DimensionMismatch


@dataclass(frozen=True, eq=False)
class Allocation:
    """Assignment of n = r * 2^K units to combinations, each used exactly r times.

    ``combo_of_unit[i]`` is the 1-based combination index of unit i, in the
    row order of the design matrix the allocation was drawn against.  The
    indices must be integers in [1, 2^K], given as an integer array or a
    sequence of ints: floats, strings and bools are refused, never rounded or
    parsed, and the range is checked before the indices are stored as int32.
    """

    spec: DesignSpec
    combo_of_unit: np.ndarray
    seed_info: dict[str, Any] | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        given = self.combo_of_unit
        combos = np.asarray(given)
        if combos.ndim != 1 or combos.shape[0] != self.spec.n:
            raise DimensionMismatch(
                f"allocation must assign all {self.spec.n} units, got shape {combos.shape}"
            )
        m = self.spec.n_combinations
        # A sequence that mixes bools with ints converts to an integer array,
        # so its items are checked too.
        integral = combos.dtype.kind in "iu" and (
            isinstance(given, np.ndarray)
            or not any(isinstance(v, (bool, np.bool_)) for v in given)
        )
        if not integral or combos.min(initial=1) < 1 or combos.max(initial=m) > m:
            raise ValueError(f"combination indices must be integers in [1, {m}]")
        # A private copy, so that the caller's array stays theirs to change.
        combos = combos.astype(np.int32)
        counts = np.bincount(combos, minlength=m + 1)[1:]
        if not np.all(counts == self.spec.r):
            off = int(np.argmax(counts != self.spec.r)) + 1
            raise ValueError(
                f"allocation is not balanced: combination {off} appears "
                f"{int(counts[off - 1])} times, expected {self.spec.r}"
            )
        combos.setflags(write=False)
        object.__setattr__(self, "combo_of_unit", combos)

    @property
    def n(self) -> int:
        return self.spec.n


@dataclass(frozen=True, eq=False)
class AssignmentMatrix:
    """n x 2^K signed matrix: row i is the model-matrix row of unit i's combination."""

    entries: np.ndarray
    labels: tuple[str, ...]
    k: int

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def column_index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"unknown effect column {label!r}") from None

    def column(self, label: str) -> np.ndarray:
        """Signed column for one effect, as float64 for arithmetic."""
        return self.entries[:, self.column_index(label)].astype(np.float64)

    def effect_columns(self, labels: tuple[str, ...] | list[str]) -> np.ndarray:
        idx = [self.column_index(lab) for lab in labels]
        return self.entries[:, idx].astype(np.float64)


def expand_assignment(alloc: Allocation, mm: ModelMatrix) -> AssignmentMatrix:
    """Materialize the unit-level signed matrix for an allocation."""
    if alloc.spec.k != mm.k:
        raise DimensionMismatch(
            f"allocation is for K={alloc.spec.k} but model matrix has K={mm.k}"
        )
    entries = mm.entries[alloc.combo_of_unit - 1]
    entries.setflags(write=False)
    return AssignmentMatrix(entries=entries, labels=mm.labels, k=mm.k)


def _mirror_permutation(mm: ModelMatrix) -> np.ndarray:
    """mirror[j-1] is the combination with every factor level flipped (1-based)."""
    mains = mm.entries[:, 1 : mm.k + 1]
    weights = 1 << np.arange(mm.k - 1, -1, -1, dtype=np.int64)
    codes = ((mains > 0).astype(np.int64) @ weights)
    row_of_code = np.empty_like(codes)
    row_of_code[codes] = np.arange(mm.n_combinations, dtype=np.int64)
    mirror_codes = (mm.n_combinations - 1) - codes
    return (row_of_code[mirror_codes] + 1).astype(np.int32)


def negate(alloc: Allocation, mm: ModelMatrix) -> Allocation:
    """Map every unit to the mirror combination (all factor levels flipped).

    Applying it twice is the identity.  In the assignment matrix, factor and
    odd-order interaction columns change sign while even-order interaction
    columns are untouched; quadratic balance criteria are blind to either.
    """
    if alloc.spec.k != mm.k:
        raise DimensionMismatch(
            f"allocation is for K={alloc.spec.k} but model matrix has K={mm.k}"
        )
    mirror = _mirror_permutation(mm)
    return Allocation(
        spec=alloc.spec,
        combo_of_unit=mirror[alloc.combo_of_unit - 1],
        seed_info=alloc.seed_info,
    )
