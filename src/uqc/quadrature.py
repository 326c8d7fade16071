"""Gauss quadrature rules matched to input distributions, and tensor grids.

Nodes and weights come from the symmetric tridiagonal Jacobi matrix of the
orthogonal-polynomial three-term recurrence (Golub-Welsch): eigenvalues
are the nodes and squared first eigenvector components are the weights.
Both polynomial families are set up against probability measures, so the
weights of every rule sum to one exactly and a k-point rule integrates
polynomials up to degree 2k-1 exactly.

The eigenproblem of each family and order is solved once per process and
its read-only standard nodes and weights are kept (at most 2 x
MAX_RULE_ORDER pairs); every rule of that family and order is mapped from
them and shares the kept weights, which no caller may write.

Tensor grids flatten in row-major order over (axis 1, ..., axis d) with
the last axis varying fastest; every module in this package shares that
single convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .distributions import Distribution, Normal, Uniform
from .errors import (
    AxisOutOfRangeError,
    EmptyAxesError,
    InvalidOrderError,
    UnsupportedDistributionError,
)

MAX_RULE_ORDER = 64


def _frozen(array: np.ndarray) -> np.ndarray:
    array = np.array(array, dtype=float)
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class QuadratureRule1D:
    """Nodes (ascending) and positive weights summing to one."""

    nodes: np.ndarray
    weights: np.ndarray
    distribution: Distribution

    @property
    def order(self) -> int:
        return len(self.nodes)


def gauss_rule(dist: Distribution, k: int) -> QuadratureRule1D:
    """k-point Gauss rule for the probability measure of `dist`.

    Normal(mu, sigma): probabilists' Gauss-Hermite nodes x_j mapped to
    u_j = mu + sigma * x_j.  Uniform(a, b): Gauss-Legendre nodes on [-1, 1]
    mapped affinely to [a, b], weights normalized to the probability
    measure.
    """
    if int(k) != k or not 1 <= k <= MAX_RULE_ORDER:
        raise InvalidOrderError(f"quadrature order must be in [1, {MAX_RULE_ORDER}], got {k}")
    family = next((f for f in (Normal, Uniform) if isinstance(dist, f)), None)
    if family is None:
        raise UnsupportedDistributionError(f"no quadrature rule for {type(dist).__name__}")
    standard_nodes, weights = _standard_rule(family, int(k))
    return QuadratureRule1D(_frozen(dist.from_standard(standard_nodes)), weights, dist)


@cache
def _standard_rule(family: type, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only standard nodes and weights of the k-point rule of a
    family, solved once per process for each of the 2 families and
    MAX_RULE_ORDER orders."""
    from scipy.linalg import eigh_tridiagonal

    n = np.arange(1, k, dtype=float)
    if family is Normal:
        # He_{n+1} = x He_n - n He_{n-1}: Jacobi off-diagonal sqrt(n).
        off_diagonal = np.sqrt(n)
    else:
        # Monic Legendre: b_n^2 = n^2 / (4 n^2 - 1).
        off_diagonal = n / np.sqrt(4.0 * n * n - 1.0)
    standard_nodes, eigenvectors = eigh_tridiagonal(np.zeros(k), off_diagonal)
    weights = eigenvectors[0] ** 2  # orthonormal columns: sums to 1 exactly
    return _frozen(standard_nodes), _frozen(weights)


@dataclass(frozen=True)
class TensorGrid:
    """Full tensor product of per-axis 1D rules."""

    axes: tuple[QuadratureRule1D, ...]

    @property
    def dim(self) -> int:
        return len(self.axes)

    @cached_property
    def axis_sizes(self) -> tuple[int, ...]:
        return tuple(rule.order for rule in self.axes)

    @property
    def total_points(self) -> int:
        return math.prod(self.axis_sizes)

    @property
    def distributions(self) -> tuple[Distribution, ...]:
        return tuple(rule.distribution for rule in self.axes)

    @cached_property
    def joint_weights(self) -> np.ndarray:
        """Product weight per flattened grid point."""
        acc = np.ones(1)
        for rule in self.axes:
            acc = np.multiply.outer(acc, rule.weights).ravel()
        return _frozen(acc)

    def axis_column(self, axis: int) -> np.ndarray:
        """The nodes of `axis` shaped k_axis on that axis and 1 on every
        other, so that they broadcast against axis_sizes."""
        if not 0 <= axis < self.dim:
            raise AxisOutOfRangeError(f"axis {axis} out of range for {self.dim} axes")
        sizes = self.axis_sizes
        return self.axes[axis].nodes.reshape([k if j == axis else 1 for j, k in enumerate(sizes)])

    def points(self) -> np.ndarray:
        """All grid points as an array of shape (total_points, dim)."""
        return np.column_stack([grid_input_vector(self, j) for j in range(self.dim)])


def tensor_grid(rules) -> TensorGrid:
    rules = tuple(rules)
    if not rules:
        raise EmptyAxesError("a tensor grid needs at least one axis")
    return TensorGrid(rules)


def grid_for(distributions, k: int) -> TensorGrid:
    """Convenience: one k-point rule per distribution, each equal to
    gauss_rule(dist, k)."""
    return tensor_grid(gauss_rule(dist, k) for dist in distributions)


def grid_input_vector(grid: TensorGrid, axis: int) -> np.ndarray:
    """Coordinate of `axis` at every flattened grid point (length total_points).

    With the last axis varying fastest, axis j repeats each node
    prod(k_m for m > j) times and tiles the pattern prod(k_m for m < j)
    times; the vector contains exactly k_j distinct values.
    """
    # One broadcasting copy of the nodes into the grid's shape, frozen in place.
    vector = np.empty(grid.axis_sizes)
    vector[...] = grid.axis_column(axis)
    vector.setflags(write=False)
    return vector.reshape(-1)
