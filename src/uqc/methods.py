"""Coefficient estimation and moment extraction: integration and regression
polynomial chaos, tensor-grid collocation surrogates, and Monte Carlo."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgeqrf, dgeqrf_lwork, dormqr, dtrcon, dtrtrs

from .basis import PceBasis, design_matrix, univariate_table
from .engine import evaluate_on_samples
from .errors import (
    DimensionMismatchError,
    RankDeficientError,
    UnderdeterminedError,
)
from .graph import Graph
from .quadrature import TensorGrid


@dataclass(frozen=True)
class PceCoefficients:
    basis: PceBasis
    alpha: np.ndarray
    fit_details: dict | None = None


@dataclass(frozen=True)
class UqResult:
    method: str
    mean: float
    stddev: float
    n_model_points: int
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        # Every evaluated value is finite, but moments of finite values can
        # still overflow (f = x * 1e200 has stddev inf).
        if not (math.isfinite(self.mean) and math.isfinite(self.stddev)):
            raise ValueError(f"{self.method}: non-finite moments, mean {self.mean}, "
                             f"stddev {self.stddev}")


def _check_grid_values(values: np.ndarray, grid: TensorGrid) -> None:
    if np.shape(values) != (grid.total_points,):
        raise DimensionMismatchError(
            f"values of shape {np.shape(values)} do not fit a grid of "
            f"{grid.total_points} points")


def nipc_integration(values: np.ndarray, grid: TensorGrid,
                     basis: PceBasis) -> PceCoefficients:
    """Project `values`, one per grid point with the last axis fastest, as
    the grid engines give each output, onto each basis function.

    alpha_i = (1 / <Phi_i^2>) * sum_points weight * f * Phi_i, by sum
    factorization (Orszag 1980): the values, shaped to the grid, are
    contracted one axis at a time with that axis' (p+1) x k_j table of
    weighted univariate polynomials; the entries of total degree <= p are
    then gathered by multi-index.  No points or design matrix are built.
    """
    _check_grid_values(values, grid)
    if basis.distributions != grid.distributions:
        raise DimensionMismatchError("basis distributions do not match the grid")
    tensor = values.reshape(grid.axis_sizes)
    for rule in grid.axes:
        # Contracting the leading axis appends the degree axis last, so
        # after every axis the degrees are back in axis order.
        dist = rule.distribution
        table = univariate_table(dist, basis.order, dist.standardize(rule.nodes)) * rule.weights
        # np.tensordot(tensor, table, axes=(0, 1)), made of the same
        # transposes and dot that numpy's Python-level function makes.
        rest = tensor.shape[1:]
        leading_last = tensor.transpose(*range(1, tensor.ndim), 0).reshape(-1, rule.order)
        tensor = np.dot(leading_last, table.T).reshape(*rest, -1)
    alpha = tensor[tuple(np.array(basis.indices).T)] / basis.norms
    return PceCoefficients(basis, alpha)


# xTRCON estimates R's 1-norm reciprocal condition number 1 / kappa_1(R).
# Only below sqrt(eps) is the rank of an (m, n) design measured: above it,
# kappa_2(A) <= n * kappa_1(R) < n / sqrt(eps), which is below numpy's rank
# threshold 1 / (eps * max(m, n)) by a factor 1 / (sqrt(eps) * m * n), about
# 150 for a 924 x 462 design.  That factor is the margin left for the
# estimate, which never exceeds kappa_1, to fall short of it.
RANK_CHECK_RCOND = math.sqrt(np.finfo(float).eps)


def nipc_regression(points, values, basis: PceBasis) -> PceCoefficients:
    """Least-squares fit of the expansion to sampled model values.

    Requires one value per point, at least as many points as coefficients,
    finite data and a full-rank design matrix.  The fit is one blocked
    Householder QR of the design matrix, factored in place (LAPACK xGEQRF),
    Q^T applied to the values (xORMQR) and R alpha = (Q^T y)[:n] solved
    (xTRTRS); the residual ||A alpha - values|| is ||(Q^T y)[n:]||.  When
    the 1-norm reciprocal condition estimate of R (xTRCON) is below
    sqrt(eps), the rank of a fresh design matrix is measured with numpy's
    matrix_rank, and a rank short of the number of coefficients raises
    RankDeficientError.  The residual, the rank and the number of points
    are reported in fit_details.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    values = np.asarray(values, dtype=float)
    n_points, n_coefficients = points.shape[0], len(basis)
    if values.shape != (n_points,):
        raise DimensionMismatchError(
            f"values of shape {values.shape} do not give one value for each of "
            f"{n_points} points")
    if n_points < n_coefficients:
        raise UnderdeterminedError(
            f"{n_points} samples cannot determine {n_coefficients} coefficients")
    matrix = design_matrix(basis, points)
    finite = np.isfinite(values) & np.isfinite(matrix).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise ValueError(
            f"non-finite regression data at sample row {row}: "
            f"point {tuple(points[row].tolist())}, value {values[row]}")
    lwork, _ = dgeqrf_lwork(n_points, n_coefficients)
    qr, tau, _, _ = dgeqrf(matrix, lwork=int(lwork), overwrite_a=True)
    rank = n_coefficients
    rcond, _ = dtrcon(qr[:n_coefficients])
    if rcond < RANK_CHECK_RCOND:
        rank = int(np.linalg.matrix_rank(design_matrix(basis, points)))
        if rank < n_coefficients:
            raise RankDeficientError(
                f"design matrix rank {rank} < {n_coefficients} coefficients")
    # lwork = 1 is xORMQR's minimum for one column, on which the unblocked
    # update does the blocked one's work.
    qty, _, _ = dormqr("L", "T", qr, tau, values[:, None], lwork=1)
    qty, info = dtrtrs(qr, qty, overwrite_b=True)
    if info:
        raise RankDeficientError(f"design matrix R has a zero pivot in column {info - 1}")
    return PceCoefficients(basis, qty[:n_coefficients, 0], fit_details={
        "residual": float(np.linalg.norm(qty[n_coefficients:])),
        "rank": rank,
        "n_points": n_points,
    })


def moments_from_pce(coefficients: PceCoefficients) -> tuple[float, float]:
    """(mean, stddev) of the expansion: mean is the constant coefficient,
    variance is sum alpha_i^2 <Phi_i^2> over the non-constant terms."""
    alpha = coefficients.alpha
    variance = float(np.sum(alpha[1:] ** 2 * coefficients.basis.norms[1:]))
    return float(alpha[0]), math.sqrt(max(variance, 0.0))


def evaluate_pce(coefficients: PceCoefficients, points):
    """Expansion value at arbitrary points (surrogate evaluation).

    `points` is a length-dim point, which gives a float, or an (n, dim)
    array of points, which gives a length-n array.
    """
    points = np.asarray(points, dtype=float)
    values = design_matrix(coefficients.basis, points) @ coefficients.alpha
    return float(values[0]) if points.ndim < 2 else values


@dataclass(frozen=True)
class SurrogateSC:
    """Tensor-product Lagrange interpolant through grid values."""

    grid: TensorGrid
    values: np.ndarray
    barycentric_weights: tuple[np.ndarray, ...]


def sc_build(values: np.ndarray, grid: TensorGrid) -> SurrogateSC:
    """Interpolant through `values`, one per grid point with the last axis
    fastest, as the grid engines give each output.  It keeps a copy."""
    _check_grid_values(values, grid)
    weights = []
    for rule in grid.axes:
        # w_i = 1 / prod_{j != i} (x_i - x_j); a factor 1.0 on the diagonal
        # is exact, so row i's product is that over j != i.
        diff = rule.nodes[:, None] - rule.nodes
        np.fill_diagonal(diff, 1.0)
        weights.append(1.0 / np.prod(diff, axis=1))
    return SurrogateSC(grid, values.copy(), tuple(weights))


def sc_eval(surrogate: SurrogateSC, point) -> float:
    """Interpolant value at a point (barycentric form per axis).

    Exactly reproduces the stored value at every collocation point;
    extrapolation outside the node hull is permitted.
    """
    point = np.atleast_1d(np.asarray(point, dtype=float))
    grid = surrogate.grid
    if len(point) != grid.dim:
        raise DimensionMismatchError(
            f"point has {len(point)} coordinates, expected {grid.dim}")
    tensor = surrogate.values.reshape(grid.axis_sizes)
    for axis in range(grid.dim):
        nodes = grid.axes[axis].nodes
        exact = np.flatnonzero(nodes == point[axis])
        if exact.size:
            basis_1d = np.zeros(len(nodes))
            basis_1d[exact[0]] = 1.0
        else:
            ratios = surrogate.barycentric_weights[axis] / (point[axis] - nodes)
            basis_1d = ratios / ratios.sum()
        tensor = np.tensordot(basis_1d, tensor, axes=(0, 0))
    return float(tensor)


def sc_moments(surrogate: SurrogateSC) -> tuple[float, float]:
    """Quadrature moments of the interpolant on its own grid.

    The interpolant reproduces nodal values, so its quadrature mean and
    variance reduce to weighted sums of the stored values.  The variance
    is two-pass, w @ (f - mean)^2, which keeps an output with a large
    mean from cancelling to 0 as E[f^2] - E[f]^2 does.
    """
    w = surrogate.grid.joint_weights
    f = surrogate.values
    mean = float(w @ f)
    return mean, math.sqrt(float(w @ (f - mean) ** 2))


def sample_inputs(graph: Graph, n: int, seed: int) -> np.ndarray:
    """(n, dim) i.i.d. samples of the model inputs from a seeded generator.

    The draws are made in place, input by input, into one (dim, n) array,
    which is returned transposed, so each input's column is contiguous.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    draws = np.empty((graph.dim, n))
    for row, (_, dist) in zip(draws, graph.uncertain_inputs):
        dist.sample(rng, row)
    return draws.T


def monte_carlo(graph: Graph, n: int, seed: int) -> UqResult:
    """Plain Monte Carlo estimate of the first output's mean and stddev.

    Identical seeds give identical results.  A DomainError from the model
    carries the offending sample.
    """
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    output = graph.first_output_name()
    values = evaluate_on_samples(graph, sample_inputs(graph, n, seed))[output]
    mean = float(np.mean(values))
    stddev = float(np.std(values, ddof=1))
    return UqResult("mc", mean, stddev, n, details={
        "seed": int(seed),
        "standard_error": stddev / math.sqrt(n),
        "output": output,
    })
