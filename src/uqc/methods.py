"""Coefficient estimation and moment extraction: integration and regression
polynomial chaos, tensor-grid collocation surrogates, and Monte Carlo."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .basis import PceBasis, design_matrix, univariate_table
from .engine import ValueTensor, evaluate_on_samples
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


def _full_signature_data(outputs: ValueTensor, grid: TensorGrid) -> np.ndarray:
    if tuple(outputs.signature) != tuple(range(grid.dim)):
        raise DimensionMismatchError(
            f"expected a full-signature tensor over {grid.dim} axes, "
            f"got signature {outputs.signature}")
    if len(outputs) != grid.total_points:
        raise DimensionMismatchError(
            f"tensor has {len(outputs)} entries but the grid has {grid.total_points} points")
    return outputs.data


def nipc_integration(outputs: ValueTensor, grid: TensorGrid,
                     basis: PceBasis) -> PceCoefficients:
    """Project grid outputs onto each basis function by quadrature.

    alpha_i = (1 / <Phi_i^2>) * sum_points weight * f * Phi_i, by sum
    factorization (Orszag 1980): the values, shaped to the grid, are
    contracted one axis at a time with that axis' (p+1) x k_j table of
    weighted univariate polynomials; the entries of total degree <= p are
    then gathered by multi-index.  No points or design matrix are built.
    """
    values = _full_signature_data(outputs, grid)
    if basis.dim != grid.dim or basis.distributions != grid.distributions:
        raise DimensionMismatchError("basis distributions do not match the grid")
    tensor = values.reshape(grid.axis_sizes)
    for rule in grid.axes:
        # Contracting the leading axis appends the degree axis last, so
        # after every axis the degrees are back in axis order.
        dist = rule.distribution
        table = univariate_table(dist, basis.order, dist.standardize(rule.nodes)) * rule.weights
        tensor = np.tensordot(tensor, table, axes=(0, 1))
    alpha = tensor[tuple(np.array(basis.indices).T)] / basis.norms
    return PceCoefficients(basis, alpha)


def nipc_regression(points, values, basis: PceBasis) -> PceCoefficients:
    """Least-squares fit of the expansion to sampled model values.

    Requires at least as many points as coefficients and a full-rank
    design matrix; solved by SVD (numpy lstsq), residual reported in
    fit_details.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    values = np.asarray(values, dtype=float)
    n_coefficients = len(basis)
    if points.shape[0] != len(values):
        raise DimensionMismatchError(
            f"{points.shape[0]} points but {len(values)} values")
    if points.shape[0] < n_coefficients:
        raise UnderdeterminedError(
            f"{points.shape[0]} samples cannot determine {n_coefficients} coefficients")
    matrix = design_matrix(basis, points)
    alpha, _, rank, _ = np.linalg.lstsq(matrix, values, rcond=None)
    if rank < n_coefficients:
        raise RankDeficientError(
            f"design matrix rank {rank} < {n_coefficients} coefficients")
    residual = float(np.linalg.norm(matrix @ alpha - values))
    return PceCoefficients(basis, alpha, fit_details={
        "residual": residual,
        "rank": int(rank),
        "n_points": int(points.shape[0]),
    })


def moments_from_pce(coefficients: PceCoefficients) -> tuple[float, float]:
    """(mean, stddev) of the expansion: mean is the constant coefficient,
    variance is sum alpha_i^2 <Phi_i^2> over the non-constant terms."""
    alpha = coefficients.alpha
    variance = float(np.sum(alpha[1:] ** 2 * coefficients.basis.norms[1:]))
    return float(alpha[0]), math.sqrt(max(variance, 0.0))


def evaluate_pce(coefficients: PceCoefficients, points) -> np.ndarray:
    """Expansion value at arbitrary points (surrogate evaluation)."""
    matrix = design_matrix(coefficients.basis, points)
    return matrix @ coefficients.alpha


@dataclass(frozen=True)
class SurrogateSC:
    """Tensor-product Lagrange interpolant through grid values."""

    grid: TensorGrid
    values: ValueTensor
    barycentric_weights: tuple[np.ndarray, ...]


def sc_build(outputs: ValueTensor, grid: TensorGrid) -> SurrogateSC:
    values = _full_signature_data(outputs, grid)
    weights = []
    for rule in grid.axes:
        nodes = rule.nodes
        w = np.ones(len(nodes))
        for i in range(len(nodes)):
            diff = np.delete(nodes[i] - nodes, i)
            w[i] = 1.0 / np.prod(diff)
        weights.append(w)
    return SurrogateSC(grid, ValueTensor(outputs.signature, values.copy()),
                       tuple(weights))


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
    tensor = surrogate.values.data.reshape(grid.axis_sizes)
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
    second moment reduce to weighted sums of the stored values.
    """
    w = surrogate.grid.joint_weights
    f = surrogate.values.data
    mean = float(w @ f)
    variance = float(w @ (f * f)) - mean * mean
    return mean, math.sqrt(max(variance, 0.0))


def sample_inputs(graph: Graph, n: int, seed: int) -> np.ndarray:
    """(n, dim) i.i.d. samples of the model inputs from a seeded generator.

    The draws are made in place, input by input, into one (dim, n) array,
    which is returned transposed, so each input's column is contiguous.
    """
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
    output = graph.variable_by_id[graph.outputs[0]].name
    values = evaluate_on_samples(graph, sample_inputs(graph, n, seed))[output]
    mean = float(np.mean(values))
    stddev = float(np.std(values, ddof=1))
    return UqResult("mc", mean, stddev, n, details={
        "seed": int(seed),
        "standard_error": stddev / math.sqrt(n),
        "output": output,
    })
