"""Coefficient estimation and moment extraction: integration and regression
polynomial chaos, tensor-grid collocation surrogates, and Monte Carlo."""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from threading import Condition

import numpy as np
from scipy.linalg.lapack import dgeqrf, dgeqrf_lwork, dormqr, dtrcon, dtrtrs

from .basis import PceBasis, design_matrix, univariate_table
from . import engine
from .engine import evaluate_on_samples
from .errors import (
    DimensionMismatchError,
    RankDeficientError,
    UnderdeterminedError,
    UqcError,
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
    matrix = design_matrix(basis, points)  # refuses points of the wrong shape
    if n_points < n_coefficients:
        raise UnderdeterminedError(
            f"{n_points} samples cannot determine {n_coefficients} coefficients")
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
    with np.errstate(over="ignore"):  # the residual of huge values may be inf
        residual = float(np.linalg.norm(qty[n_coefficients:]))
    return PceCoefficients(basis, qty[:n_coefficients, 0], fit_details={
        "residual": residual,
        "rank": rank,
        "n_points": n_points,
    })


def moments_from_pce(coefficients: PceCoefficients) -> tuple[float, float]:
    """(mean, stddev) of the expansion: mean is the constant coefficient,
    variance is sum alpha_i^2 <Phi_i^2> over the non-constant terms."""
    alpha = coefficients.alpha
    with np.errstate(over="ignore"):  # an inf variance is refused by UqResult
        variance = float(np.sum(alpha[1:] ** 2 * coefficients.basis.norms[1:]))
    return float(alpha[0]), math.sqrt(max(variance, 0.0))


def _refuse_non_finite_coordinates(points: np.ndarray) -> None:
    """ValueError naming the first non-finite coordinate of `points`, a
    point or an array of points, and its index."""
    finite = np.isfinite(points)
    if not finite.all():
        index = np.argwhere(~finite)[0].tolist()
        raise ValueError(f"non-finite coordinate {points[tuple(index)]} at index {index}")


def evaluate_pce(coefficients: PceCoefficients, points):
    """Expansion value at arbitrary points (surrogate evaluation).

    `points` is a length-dim point, which gives a float, or an (n, dim)
    array of points, which gives a length-n array.  A non-finite
    coordinate is refused.
    """
    points = np.asarray(points, dtype=float)
    _refuse_non_finite_coordinates(points)
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
        with np.errstate(over="ignore"):
            diff = rule.nodes[:, None] - rule.nodes
            np.fill_diagonal(diff, 1.0)
            weights.append(1.0 / np.prod(diff, axis=1))
    return SurrogateSC(grid, values.copy(), tuple(weights))


def sc_eval(surrogate: SurrogateSC, point) -> float:
    """Interpolant value at a point (barycentric form per axis).

    Exactly reproduces the stored value at every collocation point;
    extrapolation outside the node hull is permitted, but a non-finite
    coordinate is refused, and so is a surrogate whose weights on an axis
    are all zero or not all finite, as sc_build leaves them when the
    node differences overflow.
    """
    point = np.atleast_1d(np.asarray(point, dtype=float))
    grid = surrogate.grid
    if point.ndim != 1:
        raise DimensionMismatchError(f"point of shape {point.shape} has more than 1 axis")
    if len(point) != grid.dim:
        raise DimensionMismatchError(
            f"point has {len(point)} coordinates, expected {grid.dim}")
    _refuse_non_finite_coordinates(point)
    for axis, weights in enumerate(surrogate.barycentric_weights):
        if not (np.isfinite(weights).all() and weights.any()):
            raise ValueError(f"barycentric weights {weights.tolist()} of axis {axis} are "
                             f"all zero or not all finite")
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
    with np.errstate(over="ignore"):  # non-finite moments are refused by UqResult
        mean = float(w @ f)
        return mean, math.sqrt(float(w @ (f - mean) ** 2))


def _generator(seed: int) -> np.random.Generator:
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return np.random.default_rng(seed)


def sample_inputs(graph: Graph, n: int, seed: int) -> np.ndarray:
    """(n, dim) i.i.d. samples of the model inputs from a seeded generator.

    The draws are made in place, input by input, into one (dim, n) array,
    which is returned transposed, so each input's column is contiguous.
    """
    rng = _generator(seed)
    draws = np.empty((graph.dim, n))
    for row, (_, dist) in zip(draws, graph.uncertain_inputs):
        dist.sample(rng, row)
    return draws.T


def _stddev_overwriting(values: np.ndarray, mean: float) -> float:
    """np.std(values, ddof=1), bit for bit, given np.mean(values), computed
    in `values` itself, which ends up holding the squared deviations: the
    subtraction, square, reduction and division numpy's _var makes after
    its mean, without its n-vector temporary.  Needs at least 2 values."""
    n = len(values)
    np.subtract(values, mean, out=values)
    np.square(values, out=values)
    return math.sqrt(np.add.reduce(values) / (n - 1))


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Block buffers for the draws of inputs that no later stage reads.
_RING = 4


def monte_carlo(graph: Graph, n: int, seed: int) -> UqResult:
    """Plain Monte Carlo estimate of the first output's mean and stddev.

    The samples are sample_inputs', drawn in its generator order, and the
    model runs by Graph.stages: stage j runs on a block of engine._BLOCK
    samples once input j's draws for that block are made and the block's
    earlier stages have run, so most operations run while later inputs
    are still being drawn.  The calling thread draws the inputs one after
    another, block by block.  A draw that no later stage reads goes into
    one of _RING block buffers, and only the vectors Graph.stages counts
    are held whole, so at most max(dim - 1, 1) n floats; the first output
    ends in one of them, where the stddev is computed.  With more than one
    block and more than one CPU, one helper thread runs the stages of
    drawn blocks; the caller runs them when its buffers are full and once
    it has drawn every block, and with one CPU right after each draw.
    The helper is joined before the call returns or raises.  The moments
    are bit for bit those of evaluate_on_samples over sample_inputs.  A
    run that draws a non-finite value or fails draws the samples again
    and evaluates them with evaluate_on_samples in one call, so its error
    is that one's: the first operation and sample row to leave the
    model's domain, with the sample.
    """
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    output = graph.first_output_name()
    rng = _generator(seed)
    try:
        values = _first_output_by_stages(graph, n, rng)
    except (UqcError, ValueError):
        # A block's error names rows of that block, and only a whole-run
        # evaluation names the first operation in plan order to fail.
        values = evaluate_on_samples(graph, sample_inputs(graph, n, seed))[output]
    mean = float(np.mean(values))
    stddev = _stddev_overwriting(values, mean)
    return UqResult("mc", mean, stddev, int(n), details={
        "seed": int(seed),
        "standard_error": stddev / math.sqrt(n),
        "output": output,
    })


def _first_output_by_stages(graph: Graph, n: int, rng: np.random.Generator) -> np.ndarray:
    """The first output over n samples drawn from `rng` as sample_inputs
    draws them, run stage by stage as monte_carlo describes.  Only private
    engine code runs here, on either thread."""
    stages, vector_count = graph.stages
    inputs = [vid for vid, _ in graph.uncertain_inputs]
    distributions = graph.distributions
    dim, block = len(inputs), engine._BLOCK
    starts = range(0, n, block)
    constants = engine._start(graph, (), 1)
    vectors = np.empty((vector_count, n))
    ring = np.empty((_RING, min(n, block)))
    free = list(range(_RING))           # ring buffers not in use
    handed = [{} for _ in starts]       # values handed on to each block's later stages
    done = [0] * len(starts)            # stages run on each block
    later = [deque() for _ in starts]   # each block's tasks drawn before its earlier stages ran
    ready: deque = deque()              # tasks (stage, block, draws, ring buffer) that can run
    changed = Condition()
    completed, failed, finished = 0, False, False

    def run(j, b, column, buffer):
        nonlocal completed
        start, stop = starts[b], min(starts[b] + block, n)
        values = constants | handed[b]
        if j < dim:
            _refuse_non_finite_coordinates(column)
            values[inputs[j]] = column
            if stages[j].draw_into is not None:
                handed[b][inputs[j]] = column
        engine._execute(graph, values, (stop - start,), stages[j].steps)
        for vid, vector in stages[j].hands_on:
            if vector is None:
                handed[b][vid] = values[vid]
            else:
                handed[b][vid] = vectors[vector, start:stop]
                handed[b][vid][...] = values[vid]
        with changed:
            completed += 1
            done[b] = j + 1
            if buffer is not None:
                free.append(buffer)
            if later[b]:
                ready.append(later[b].popleft())
            changed.notify_all()

    def work(enough) -> None:
        """Run ready tasks until enough() holds or a task of either thread
        has failed; a task that fails here raises."""
        nonlocal failed
        while True:
            with changed:
                while not (failed or ready or enough()):
                    changed.wait()
                if failed or enough():
                    return
                task = ready.popleft()
            try:
                run(*task)
            except BaseException:
                with changed:
                    failed = True
                    changed.notify_all()
                raise

    helper = ThreadPoolExecutor(1) if len(starts) > 1 and _cpu_count() > 1 else None
    try:
        helped = helper and helper.submit(work, lambda: finished)

        def caller_work(enough) -> None:
            work(enough)
            if failed:  # the helper's task failed: raise its error here
                helped.result()

        for j, stage in enumerate(stages):
            for b, start in enumerate(starts):
                column = buffer = None
                if j < dim:
                    stop = min(start + block, n)
                    if stage.draw_into is None:
                        caller_work(lambda: free)
                        with changed:
                            buffer = free.pop()
                        column = ring[buffer, :stop - start]
                    else:
                        column = vectors[stage.draw_into, start:stop]
                    distributions[j].sample(rng, column)
                with changed:
                    (ready if done[b] == j else later[b]).append((j, b, column, buffer))
                    changed.notify_all()
                if helper is None:
                    caller_work(lambda: not ready)
        caller_work(lambda: completed == len(stages) * len(starts))
    finally:
        with changed:
            finished = True
            changed.notify_all()
        if helper is not None:
            helper.shutdown()
    return vectors[0]
