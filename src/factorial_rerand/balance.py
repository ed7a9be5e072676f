"""Covariate balance diagnostics for factorial allocations.

For each factorial effect, the units split into a +1 group and a -1 group of
equal size.  Balance for that effect is the vector of covariate mean
differences between the groups, summarized by a squared Mahalanobis distance
in the metric of the (allocation-independent) covariate covariance.

Every distance in the package is ``squared_distance`` of a ``mean_diff_block``
taken over whitened covariates, or of one ``CovarianceModel.whiten`` maps:
with z_f the whitened d_f, M_f = (n/4) d_f' S^{-1} d_f = (n/4) |z_f|^2.  The
screen scores a main effect with ``mask_diff_block``, the same difference up
to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .assignment import AssignmentMatrix
from .design import check_effects
from .errors import DimensionMismatch, SingularCovariance

# Above this condition number the covariance is treated as numerically
# singular: Mahalanobis distances would be dominated by roundoff.
CONDITION_LIMIT = 1e12


@dataclass(frozen=True, eq=False)
class CovariateMatrix:
    """n x p matrix of unit covariates with named columns.

    Immutable: it holds a read-only copy of the entries it is given, so the
    engine may key prepared state on the object itself.
    """

    entries: np.ndarray
    names: tuple[str, ...]

    def __post_init__(self) -> None:
        # A private copy: freezing the caller's own array would leave the
        # caller able to unfreeze it and change a validated matrix.
        arr = np.array(self.entries, dtype=np.float64, order="C")
        if arr.ndim != 2:
            raise DimensionMismatch(f"covariates must be a 2-d array, got shape {arr.shape}")
        names = tuple(str(s) for s in self.names)
        if arr.shape[1] != len(names):
            raise DimensionMismatch(
                f"{len(names)} column names for {arr.shape[1]} covariate columns"
            )
        if len(set(names)) != len(names):
            raise ValueError("covariate names must be unique")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("covariate matrix must be nonempty")
        bad = ~np.isfinite(arr)
        if bad.any():
            col = names[int(np.argwhere(bad)[0][1])]
            raise ValueError(f"covariate {col!r} contains non-finite values")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "names", names)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def p(self) -> int:
        return self.entries.shape[1]

    def centered(self) -> np.ndarray:
        """The entries minus their column means."""
        return self.entries - self.entries.mean(axis=0)

    def column(self, name: str) -> np.ndarray:
        try:
            return self.entries[:, self.names.index(name)]
        except ValueError:
            raise ValueError(f"unknown covariate {name!r}") from None

    def subset(self, names: Iterable[str]) -> "CovariateMatrix":
        names = tuple(names)
        idx = []
        for name in names:
            if name not in self.names:
                raise ValueError(f"unknown covariate {name!r}")
            idx.append(self.names.index(name))
        return CovariateMatrix(entries=self.entries[:, idx], names=names)


@dataclass(frozen=True, eq=False)
class CovarianceModel:
    """Fixed covariance metric for balance scoring, shared by every allocation.

    Holds the column means, the sample covariance S (divisor n-1) and the
    whitener L^{-T}, L the lower Cholesky factor of S, so that d' S^{-1} d is
    the squared norm of ``whiten(d)``.  The map is linear: it may whiten the
    centered covariates once or a block of mean differences.
    """

    names: tuple[str, ...]
    means: np.ndarray
    matrix: np.ndarray
    whitener: np.ndarray
    condition: float

    @property
    def p(self) -> int:
        return self.matrix.shape[0]

    def whiten(self, rows: np.ndarray) -> np.ndarray:
        """Rows in covariate units (covariates or mean differences), whitened."""
        return rows @ self.whitener


def fit_covariance(x: CovariateMatrix) -> CovarianceModel:
    """Estimate the covariate covariance once, up front.

    Raises SingularCovariance when a column has zero variance, when the
    condition number exceeds CONDITION_LIMIT, or when the Cholesky
    factorization fails outright.
    """
    n, p = x.n, x.p
    if n < p + 1:
        raise ValueError(f"need at least p+1={p + 1} units to estimate a {p}-column covariance, got {n}")
    spans = np.ptp(x.entries, axis=0)
    if np.any(spans == 0.0):
        col = x.names[int(np.argmax(spans == 0.0))]
        raise SingularCovariance(f"covariate {col!r} has zero variance")
    centered = x.centered()
    cov = centered.T @ centered / (n - 1)
    condition = float(np.linalg.cond(cov))
    if not np.isfinite(condition) or condition > CONDITION_LIMIT:
        raise SingularCovariance(
            f"covariance condition number {condition:.3g} exceeds {CONDITION_LIMIT:.0e}; "
            "drop or combine collinear covariates"
        )
    try:
        whitener = np.ascontiguousarray(np.linalg.inv(np.linalg.cholesky(cov)).T)
    except np.linalg.LinAlgError as exc:
        raise SingularCovariance(f"covariance factorization failed: {exc}") from exc
    means = x.entries.mean(axis=0)
    for arr in (means, cov, whitener):
        arr.setflags(write=False)
    return CovarianceModel(
        names=x.names, means=means, matrix=cov, whitener=whitener, condition=condition
    )


def mean_diff_block(signs: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """(2/n) signs @ cols: the group-mean difference of ``cols`` for each row of +-1 signs."""
    return signs @ cols * (2.0 / cols.shape[0])


def mask_diff_block(high: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """(4/n) high @ cols: ``mean_diff_block`` of the signs 2 high - 1, for rows of 0/1 masks.

    The two agree up to rounding when every column of ``cols`` sums to zero,
    as centered and whitened covariates do, since (2/n) 1 @ cols drops out.
    """
    return high @ cols * (4.0 / cols.shape[0])


def squared_distance(white_diffs: np.ndarray, n: int) -> np.ndarray:
    """(n/4) |dz|^2 for each row of a block of whitened mean differences."""
    return (n / 4.0) * np.einsum("ij,ij->i", white_diffs, white_diffs)


@dataclass(frozen=True, eq=False)
class BalanceProfile:
    """Per-effect balance summary of one allocation: d vectors and M distances."""

    covariate_names: tuple[str, ...]
    effects: tuple[str, ...]
    mean_diffs: dict[str, np.ndarray]
    distances: dict[str, float]

    def d(self, effect: str) -> np.ndarray:
        try:
            return self.mean_diffs[effect]
        except KeyError:
            raise ValueError(f"balance profile does not cover effect {effect!r}") from None

    def m(self, effect: str) -> float:
        try:
            return self.distances[effect]
        except KeyError:
            raise ValueError(f"balance profile does not cover effect {effect!r}") from None

    @property
    def max_m(self) -> float:
        return max(self.distances.values())

    def rows(self) -> list[tuple[str, str, str, float]]:
        """Flat (effect, covariate, statistic, value) rows for reports."""
        out: list[tuple[str, str, str, float]] = []
        for eff in self.effects:
            d = self.mean_diffs[eff]
            for name, value in zip(self.covariate_names, d):
                out.append((eff, name, "mean_difference", float(value)))
            out.append((eff, "", "mahalanobis", self.distances[eff]))
        return out


def balance_profile(
    x: CovariateMatrix,
    w: AssignmentMatrix,
    effects: Iterable[str | int],
    cm: CovarianceModel | None = None,
) -> BalanceProfile:
    """Score one allocation on a set of effects.

    The package's one scorer of a single allocation: it runs the arithmetic
    of the batch screen (``mean_diff_block``, ``whiten``,
    ``squared_distance``) on the allocation's own signed columns.  The
    covariance model is fitted from x when not supplied; passing a
    prefitted model keeps repeated scoring consistent and cheap.
    """
    labels = list(dict.fromkeys(_effect_label(w, e) for e in effects))
    if not labels:
        raise ValueError("at least one effect is required")
    if cm is None:
        cm = fit_covariance(x)
    elif cm.names != x.names:
        raise DimensionMismatch("covariance model columns do not match the covariate matrix")
    if x.n != w.n:
        raise DimensionMismatch(f"covariates have {x.n} rows but assignment has {w.n}")
    d = mean_diff_block(w.effect_columns(labels).T, x.centered())
    m = squared_distance(cm.whiten(d), x.n)
    d.setflags(write=False)
    return BalanceProfile(
        covariate_names=x.names,
        effects=tuple(labels),
        mean_diffs={lab: d[j] for j, lab in enumerate(labels)},
        distances={lab: float(m[j]) for j, lab in enumerate(labels)},
    )


def _effect_label(w: AssignmentMatrix, effect: str | int) -> str:
    if isinstance(effect, str):
        return check_effects((effect,), w.labels[1:])[0]
    if not 1 <= effect < len(w.labels):
        raise ValueError(
            f"effect index must be in [1, {len(w.labels) - 1}], got {effect}"
        )
    return w.labels[effect]
