"""Design and model matrices for balanced two-level factorial experiments.

A design on K two-level factors has 2^K treatment combinations.  The design
matrix codes each combination as a row of -1/+1 factor levels; the model
matrix extends it with a mean column and one column per interaction, so that
every factorial effect is a signed column orthogonal to all the others.
"""

from __future__ import annotations

import itertools
import string
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

# Row counts grow as 2^K; past these caps the dense matrices stop being a
# sensible representation.
MAX_FACTORS = 20
MAX_EXPANDED_FACTORS = 12

MEAN_LABEL = "mean"


class Order(str, Enum):
    """Row/column conventions for writing down the 2^K combinations."""

    LEXICOGRAPHIC = "lexicographic"
    YATES = "yates"


def default_factor_names(k: int) -> tuple[str, ...]:
    return tuple(string.ascii_uppercase[:k])


@dataclass(frozen=True)
class DesignSpec:
    """Shape of a balanced 2^K factorial experiment: K factors, r units per cell."""

    k: int
    r: int
    order: Order = Order.LEXICOGRAPHIC
    factor_names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or isinstance(self.k, bool):
            raise ValueError(f"factor count must be an integer, got {self.k!r}")
        if not 1 <= self.k <= MAX_FACTORS:
            raise ValueError(f"factor count must be in [1, {MAX_FACTORS}], got {self.k}")
        if not isinstance(self.r, int) or isinstance(self.r, bool) or self.r < 1:
            raise ValueError(f"replicates per combination must be a positive integer, got {self.r!r}")
        object.__setattr__(self, "order", Order(self.order))
        names = self.factor_names
        if names is None:
            names = default_factor_names(self.k)
        names = tuple(str(s) for s in names)
        if len(names) != self.k:
            raise ValueError(f"expected {self.k} factor names, got {len(names)}")
        if len(set(names)) != len(names):
            raise ValueError("factor names must be unique")
        if any(not s for s in names):
            raise ValueError("factor names must be nonempty")
        object.__setattr__(self, "factor_names", names)

    @property
    def n_combinations(self) -> int:
        return 2 ** self.k

    @property
    def n(self) -> int:
        """Total units: r replicates of each of the 2^K combinations."""
        return self.r * self.n_combinations


@dataclass(frozen=True, eq=False)
class DesignMatrix:
    """2^K x K matrix of -1/+1 factor levels, one row per combination."""

    k: int
    entries: np.ndarray
    order: Order
    factor_names: tuple[str, ...]

    @property
    def n_combinations(self) -> int:
        return 2 ** self.k

    def row(self, j: int) -> np.ndarray:
        """Factor levels of combination j (1-based)."""
        if not 1 <= j <= self.n_combinations:
            raise ValueError(f"combination index must be in [1, {self.n_combinations}], got {j}")
        return self.entries[j - 1]


def build_design_matrix(spec: DesignSpec) -> DesignMatrix:
    """Enumerate all 2^K combinations in the requested order.

    Lexicographic order flips the first factor's sign slowest (low levels fill
    the first half of the rows) and the last factor's fastest (alternating).
    Yates order is the same set of rows with the column roles reversed: the
    first factor alternates fastest and the last flips slowest.
    """
    k = spec.k
    m = spec.n_combinations
    idx = np.arange(m, dtype=np.int64)
    if spec.order is Order.LEXICOGRAPHIC:
        shifts = np.arange(k - 1, -1, -1, dtype=np.int64)
    else:
        shifts = np.arange(k, dtype=np.int64)
    bits = (idx[:, None] >> shifts[None, :]) & 1
    entries = (2 * bits - 1).astype(np.int8)
    entries.setflags(write=False)
    return DesignMatrix(k=k, entries=entries, order=spec.order, factor_names=spec.factor_names)


@dataclass(frozen=True, eq=False)
class ModelMatrix:
    """2^K x 2^K matrix of effect columns: mean, mains, then interactions.

    Column 0 is the all-ones mean column.  Columns 1..K are the factor
    columns in factor order; the remaining columns are elementwise products
    of their constituent factor columns, grouped by interaction order and
    alphabetical within each group.  Columns are mutually orthogonal with
    squared norm 2^K.
    """

    k: int
    entries: np.ndarray
    labels: tuple[str, ...]
    factor_sets: tuple[tuple[int, ...], ...]
    order: Order
    factor_names: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_index", {lab: i for i, lab in enumerate(self.labels)})

    @property
    def n_combinations(self) -> int:
        return 2 ** self.k

    @property
    def effect_labels(self) -> tuple[str, ...]:
        """Labels of the factorial effects (every column except the mean)."""
        return self.labels[1:]

    def column_index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValueError(f"unknown effect column {label!r}") from None

    def column(self, label: str) -> np.ndarray:
        return self.entries[:, self.column_index(label)]

    def interaction_order(self, label: str) -> int:
        """Number of factors in the effect (1 for mains, 0 for the mean column)."""
        return len(self.factor_sets[self.column_index(label)])


def _effect_label(names: tuple[str, ...], subset: tuple[int, ...]) -> str:
    parts = [names[i] for i in subset]
    if all(len(p) == 1 for p in names):
        return "".join(parts)
    return ":".join(parts)


def expand_model_matrix(g: DesignMatrix) -> ModelMatrix:
    """Build the full effect-column matrix from a design matrix."""
    k = g.k
    if k > MAX_EXPANDED_FACTORS:
        raise ValueError(
            f"dense model matrix needs 4^K entries; K={k} exceeds the cap of "
            f"{MAX_EXPANDED_FACTORS}"
        )
    m = g.n_combinations
    names = g.factor_names
    subsets: list[tuple[int, ...]] = [()]
    for size in range(1, k + 1):
        group = sorted(
            itertools.combinations(range(k), size),
            key=lambda c: tuple(names[i] for i in c),
        )
        subsets.extend(group)
    cols = np.empty((m, len(subsets)), dtype=np.int8)
    cols[:, 0] = 1
    signs = g.entries.astype(np.int8)
    for ci, subset in enumerate(subsets[1:], start=1):
        col = signs[:, subset[0]].copy()
        for fi in subset[1:]:
            col *= signs[:, fi]
        cols[:, ci] = col
    labels = (MEAN_LABEL,) + tuple(_effect_label(names, s) for s in subsets[1:])
    cols.setflags(write=False)
    return ModelMatrix(
        k=k,
        entries=cols,
        labels=labels,
        factor_sets=tuple(subsets),
        order=g.order,
        factor_names=names,
    )


def check_effects(effects: Sequence[str], known: Sequence[str]) -> tuple[str, ...]:
    """A caller's effect list as a tuple, once each name is one of ``known``.

    ``known`` is a model matrix's ``effect_labels``: the mean column has no
    group split, so it is no effect to score, estimate or test.  A bare
    string is refused rather than read as a list of one-letter names.
    """
    if isinstance(effects, str):
        raise ValueError(f"effects must be a list of effect names, got the string {effects!r}")
    labels = tuple(effects)
    if not labels:
        raise ValueError("at least one effect is required")
    for label in labels:
        if label not in known:
            raise ValueError(f"{label!r} is not a factorial effect of this design")
    return labels


def effect_index(mm: ModelMatrix, name: str) -> int:
    """Resolve an effect name to its model-matrix column index.

    Accepts exact column labels.  When all factor names are single letters,
    also accepts any permutation of the letters (``"BA"`` resolves to the
    ``"AB"`` column).  The mean column is not an effect and is rejected.
    """
    if not name:
        raise ValueError("effect name must be nonempty")
    if name == MEAN_LABEL:
        raise ValueError("the mean column is not a factorial effect")
    if name in mm.labels:
        return mm.column_index(name)
    names = mm.factor_names
    if all(len(p) == 1 for p in names):
        letters = list(name)
        unknown = [c for c in letters if c not in names]
        if unknown:
            raise ValueError(f"unknown factor {unknown[0]!r} in effect name {name!r}")
        if len(set(letters)) != len(letters):
            raise ValueError(f"duplicate factor in effect name {name!r}")
        canonical = "".join(sorted(letters, key=names.index))
        return mm.column_index(canonical)
    raise ValueError(f"unknown effect column {name!r}")
