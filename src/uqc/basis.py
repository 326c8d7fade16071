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


def _check_degree(order: int) -> None:
    if not 0 <= order <= MAX_DEGREE:
        raise InvalidOrderError(f"degree must be in [0, {MAX_DEGREE}], got {order}")


def univariate_table(dist: Distribution, order: int, x) -> np.ndarray:
    """Family members of `dist` of degree 0..order at standardized
    coordinate(s) x, shape (order + 1, *x.shape), by the family's
    three-term recurrence: He_{n+1} = x He_n - n He_{n-1} (probabilists'
    Hermite) or Bonnet's (n+1) P_{n+1} = (2n+1) x P_n - n P_{n-1}
    (Legendre)."""
    _check_degree(order)
    if not isinstance(dist, (Normal, Uniform)):
        raise UnsupportedDistributionError(f"no polynomial family for {type(dist).__name__}")
    hermite = isinstance(dist, Normal)
    x = np.asarray(x, dtype=float)
    table = np.empty((order + 1, *x.shape))
    table[0] = 1.0
    if order:
        table[1] = x
    for n in range(1, order):
        if hermite:
            table[n + 1] = x * table[n] - n * table[n - 1]
        else:
            table[n + 1] = ((2 * n + 1) * x * table[n] - n * table[n - 1]) / (n + 1)
    return table


def univariate_norm(dist: Distribution, degree: int) -> float:
    if isinstance(dist, Normal):
        return float(math.factorial(degree))
    if isinstance(dist, Uniform):
        return 1.0 / (2 * degree + 1)
    raise UnsupportedDistributionError(f"no polynomial family for {type(dist).__name__}")


def _graded_lex_indices(dim: int, order: int) -> list[MultiIndex]:
    # by_total[t] lists the multi-indices of total degree t over the last m
    # axes in order, for m = 1, ..., dim: each leading degree, highest first,
    # followed by every index of the remaining total over the axes after it.
    by_total = [[(total,)] for total in range(order + 1)]
    for _ in range(dim - 1):
        by_total = [[(head,) + tail
                     for head in range(total, -1, -1) for tail in by_total[total - head]]
                    for total in range(order + 1)]
    return [index for group in by_total for index in group]


@dataclass(frozen=True)
class PceBasis:
    order: int
    indices: tuple[MultiIndex, ...]
    norms: np.ndarray
    distributions: tuple[Distribution, ...]

    def __len__(self) -> int:
        return len(self.indices)


def enumerate_basis(order: int, distributions) -> PceBasis:
    """All multivariate basis functions of total degree <= order, one axis
    per distribution.

    The count is (dim + order)! / (dim! order!) for dim distributions;
    norms are products of the univariate norms.  An order above
    MAX_DEGREE is refused before any index is built.
    """
    distributions = tuple(distributions)
    dim = len(distributions)
    if dim < 1 or order < 0:
        raise InvalidOrderError(f"need dim >= 1 and order >= 0, got ({dim}, {order})")
    _check_degree(order)
    indices = _graded_lex_indices(dim, order)
    degrees = np.array(indices).T
    # One norm table per axis, multiplied in axis order: the same products,
    # rounded the same way, as np.prod over each index's univariate norms.
    norms = np.ones(len(indices))
    for dist, axis_degrees in zip(distributions, degrees):
        table = np.array([univariate_norm(dist, deg) for deg in range(order + 1)])
        norms *= table[axis_degrees]
    norms.setflags(write=False)
    return PceBasis(order, tuple(indices), norms, distributions)


def design_matrix(basis: PceBasis, points) -> np.ndarray:
    """Basis functions at points: shape (n_points, n_basis), Fortran
    ordered, so each basis function's column is contiguous.

    Univariate values are built once per axis up to the basis order.  Each
    column is built as one contiguous row of the transpose, multiplied in
    axis order; the result is that transpose, so LAPACK can factor it in
    place without a copy.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.ndim != 2:
        raise DimensionMismatchError(f"points of shape {points.shape} have more than 2 axes")
    if points.shape[1] != len(basis.distributions):
        raise DimensionMismatchError(
            f"points have {points.shape[1]} coordinates, expected {len(basis.distributions)}")
    tables = [univariate_table(dist, basis.order, dist.standardize(points[:, axis]))
              for axis, dist in enumerate(basis.distributions)]
    rows = np.ones((len(basis.indices), points.shape[0]))
    for row, index in zip(rows, basis.indices):
        for axis, degree in enumerate(index):
            if degree:
                row *= tables[axis][degree]
    return rows.T
