"""Independent reference implementations used only by the tests.

The production code computes chi-square probabilities through the regularized
incomplete gamma (series and continued fraction).  The oracle here takes a
completely different route: direct numerical quadrature of the density after
the substitution u = t^2, which removes the integrable singularity at zero
for one degree of freedom.  Normalizing constants come from the exact
half-integer gamma recursion, not from any library special function.

Balanced allocations come from routes of their own too: a Fisher-Yates
shuffle of the combination multiset, and a full enumeration for small designs.
The acceptance screen has a reference too: ``passing`` screens finished
allocations effect by effect, with no key splits.
"""

from __future__ import annotations

import math

import numpy as np

from factorial_rerand.assignment import Allocation
from factorial_rerand.design import DesignSpec

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(40)


def gamma_half_integer(two_s: int) -> float:
    """Gamma(two_s / 2) for positive integer two_s, built by recursion."""
    if two_s <= 0:
        raise ValueError("argument must be a positive integer")
    if two_s == 1:
        return math.sqrt(math.pi)
    if two_s == 2:
        return 1.0
    return (two_s - 2) / 2.0 * gamma_half_integer(two_s - 2)


def chi2_cdf_quadrature(p: int, x: float, panels: int = 48) -> float:
    """P(chi2_p <= x) by composite Gauss-Legendre quadrature.

    Integrates 2 t^(p-1) exp(-t^2/2) / (2^(p/2) Gamma(p/2)) over [0, sqrt(x)];
    the integrand is smooth there for every p >= 1, so fixed-order panels
    converge well past the 1e-10 comparison tolerance.
    """
    if x <= 0:
        return 0.0
    root = math.sqrt(x)
    edges = np.linspace(0.0, root, panels + 1)
    mids = (edges[:-1] + edges[1:]) / 2.0
    halves = (edges[1:] - edges[:-1]) / 2.0
    t = mids[:, None] + halves[:, None] * _NODES[None, :]
    values = 2.0 * t ** (p - 1) * np.exp(-t * t / 2.0)
    total = float(np.sum(halves[:, None] * _WEIGHTS[None, :] * values))
    return total / (2.0 ** (p / 2.0) * gamma_half_integer(p))


def variance_factor_quadrature(p: int, a: float) -> float:
    """Truncated-to-total chi-square variance ratio, again by quadrature.

    E[chi2_p | chi2_p <= a] / p equals the ratio of a degree-(p+2) tail mass
    to a degree-p tail mass; the oracle evaluates both masses independently.
    """
    return chi2_cdf_quadrature(p + 2, a) / chi2_cdf_quadrature(p, a)


def mahalanobis_direct(d: np.ndarray, cov: np.ndarray, n: int) -> float:
    """Quadratic form through an explicit inverse, for cross-checking."""
    return float(n / 4.0 * d @ np.linalg.inv(cov) @ d)


def shuffled_allocation(spec: DesignSpec, rng: np.random.Generator) -> Allocation:
    """A uniform balanced allocation by a Fisher-Yates shuffle of the combination multiset.

    An independent route to the package's keyed draw, used where a test
    needs allocations as plain input data.
    """
    combos = np.repeat(np.arange(1, spec.n_combinations + 1), spec.r)
    return Allocation(spec, rng.permutation(combos))


def passing(kernel, combos: np.ndarray) -> np.ndarray:
    """Indices (ascending) of rows of combinations that pass every threshold of ``kernel``.

    The reference that ``BalanceKernel.surviving`` must match bit for bit on
    the finished allocations of the same keys.  Each effect in
    ``screen_order`` is scored with the public ``all_distances`` on the rows
    the stages before it passed, the blocks ``surviving`` scores.
    """
    alive = np.arange(combos.shape[0])
    for label in kernel.screen_order:
        if alive.size == 0:
            break
        keep = kernel.all_distances(combos, [label])[:, 0] <= kernel.thresholds[label]
        alive, combos = alive[keep], combos[keep]
    return alive


def balanced_allocations(k: int, r: int) -> list[tuple[int, ...]]:
    """Every balanced allocation of a 2^k design with r units per combination.

    An allocation is a tuple of 1-based combination indices, one per unit;
    the list is in lexicographic order and has (r 2^k)! / (r!)^(2^k) entries.
    """
    m = 2**k
    left = [r] * m
    prefix: list[int] = []
    out: list[tuple[int, ...]] = []

    def extend() -> None:
        if len(prefix) == m * r:
            out.append(tuple(prefix))
            return
        for c in range(m):
            if left[c]:
                left[c] -= 1
                prefix.append(c + 1)
                extend()
                prefix.pop()
                left[c] += 1

    extend()
    return out
