"""Orthogonal polynomial bases for polynomial chaos expansions.

Classical (non-normalized) families with explicit norms: probabilists'
Hermite He_n for Normal inputs with <He_n^2> = n!, and Legendre P_n for
Uniform inputs with <P_n^2> = 1/(2n+1) under the uniform probability
measure.  Multivariate basis functions are products of univariate
polynomials in standardized coordinates, enumerated over all multi-indices
of total degree at most p in graded lexicographic order (total degree
first, then lexicographic with the first axis weighted highest); index 0
is always the constant polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import Distribution, Normal, Uniform
from .errors import DimensionMismatchError, InvalidOrderError, UnsupportedDistributionError

MAX_DEGREE = 32

MultiIndex = tuple[int, ...]


def hermite_value(degree: int, x):
    """Probabilists' Hermite He_n(x) by the three-term recurrence."""
    x = np.asarray(x, dtype=float)
    previous = np.ones_like(x)
    if degree == 0:
        return previous
    current = x.copy()
    for n in range(1, degree):
        previous, current = current, x * current - n * previous
    return current


def legendre_value(degree: int, x):
    """Legendre P_n(x) by Bonnet's recurrence."""
    x = np.asarray(x, dtype=float)
    previous = np.ones_like(x)
    if degree == 0:
        return previous
    current = x.copy()
    for n in range(1, degree):
        previous, current = current, ((2 * n + 1) * x * current - n * previous) / (n + 1)
    return current


def eval_univariate(dist: Distribution, degree: int, x):
    """Family member of `dist` at standardized coordinate(s) x."""
    if degree < 0 or degree > MAX_DEGREE:
        raise InvalidOrderError(f"degree must be in [0, {MAX_DEGREE}], got {degree}")
    if isinstance(dist, Normal):
        return hermite_value(degree, x)
    if isinstance(dist, Uniform):
        return legendre_value(degree, x)
    raise UnsupportedDistributionError(f"no polynomial family for {type(dist).__name__}")


def univariate_norm(dist: Distribution, degree: int) -> float:
    if isinstance(dist, Normal):
        return float(math.factorial(degree))
    if isinstance(dist, Uniform):
        return 1.0 / (2 * degree + 1)
    raise UnsupportedDistributionError(f"no polynomial family for {type(dist).__name__}")


def _graded_lex_indices(dim: int, order: int) -> list[MultiIndex]:
    def compositions(axes: int, total: int):
        if axes == 1:
            yield (total,)
            return
        for head in range(total, -1, -1):
            for tail in compositions(axes - 1, total - head):
                yield (head,) + tail

    indices: list[MultiIndex] = []
    for total in range(order + 1):
        indices.extend(compositions(dim, total))
    return indices


@dataclass(frozen=True)
class PceBasis:
    dim: int
    order: int
    indices: tuple[MultiIndex, ...]
    norms: np.ndarray
    distributions: tuple[Distribution, ...]

    def __len__(self) -> int:
        return len(self.indices)


def enumerate_basis(dim: int, order: int, distributions) -> PceBasis:
    """All multivariate basis functions of total degree <= order.

    The count is (dim + order)! / (dim! order!); norms are products of the
    univariate norms.
    """
    distributions = tuple(distributions)
    if dim < 1 or order < 0:
        raise InvalidOrderError(f"need dim >= 1 and order >= 0, got ({dim}, {order})")
    if len(distributions) != dim:
        raise DimensionMismatchError(
            f"{len(distributions)} distributions for dimension {dim}")
    indices = _graded_lex_indices(dim, order)
    norms = np.array([
        np.prod([univariate_norm(dist, deg)
                 for dist, deg in zip(distributions, index)])
        for index in indices
    ])
    norms.setflags(write=False)
    return PceBasis(dim, order, tuple(indices), norms, distributions)


def eval_multivariate(basis: PceBasis, index: MultiIndex, u):
    """Product of the basis' univariate polynomials at point(s) u (raw
    coordinates).

    `u` is a length-dim point or an (n, dim) array of points.
    """
    index = tuple(index)
    if len(index) != basis.dim:
        raise DimensionMismatchError(
            f"index length {len(index)} does not match dimension {basis.dim}")
    u = np.atleast_2d(np.asarray(u, dtype=float))
    if u.shape[1] != basis.dim:
        raise DimensionMismatchError(
            f"points have {u.shape[1]} coordinates, expected {basis.dim}")
    value = np.ones(u.shape[0])
    for axis, (dist, degree) in enumerate(zip(basis.distributions, index)):
        value = value * eval_univariate(dist, degree, dist.standardize(u[:, axis]))
    return value if value.size > 1 else float(value[0])


def design_matrix(basis: PceBasis, points) -> np.ndarray:
    """Basis functions at points: shape (n_points, n_basis).

    Univariate values are built once per axis up to the basis order, then
    multiplied per multi-index.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[1] != basis.dim:
        raise DimensionMismatchError(
            f"points have {points.shape[1]} coordinates, expected {basis.dim}")
    tables = []
    for axis, dist in enumerate(basis.distributions):
        z = dist.standardize(points[:, axis])
        tables.append(np.stack([eval_univariate(dist, degree, z)
                                for degree in range(basis.order + 1)]))
    matrix = np.ones((points.shape[0], len(basis.indices)))
    for column, index in enumerate(basis.indices):
        for axis, degree in enumerate(index):
            if degree:
                matrix[:, column] *= tables[axis][degree]
    return matrix
