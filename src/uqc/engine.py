"""Graph evaluation on tensor grids with exact operation-level cost accounting.

All entry points run one executor over a graph's cached plan (Graph.plan)
of elementary operations.  evaluate_naive feeds each uncertain input its
full-length grid vector, so every operation that depends on an input runs
at every grid point; an operation of constants only runs once, on
1-element arrays, though its naive count is the full-grid schedule.
evaluate_on_samples and evaluate_single_point do the same over sample
rows or one point.  evaluate_amtc runs the graph a transformed graph was built
from: input j has k_j nodes on axis j and 1 elsewhere, so broadcasting
runs each operation once per distinct point of its subspace.  The expands'
elements are counted from the transformed IR as copies, never made.
Costs are counted as scalar applications per operation, so the accounting
is machine-independent; wall time is measured but never part of report
equality.

Constants are 1-element arrays that numpy broadcasts.  A value is dropped
after its last reader, and a result reuses the buffer of a dying operand
of its shape that the executor allocated, so peak memory follows the
largest live set rather than the operation count.  Grid nodes, caller
samples and constants are never written.  Aligned vectors (naive grid,
samples) longer than _BLOCK points run the whole plan one block at a
time (cache blocking), so intermediates stay block-sized; evaluate_amtc
runs unblocked, because its values are shaped per axis, not aligned.

Every value an engine holds is finite: a non-finite grid node, sample
entry, constant or pow_const exponent is refused with a ValueError where
it enters (_check_grid, _refuse_non_finite, Graph.plan).  Out-of-domain
arguments (sqrt of a negative, log of a non-positive, division by zero)
and results that overflow or are invalid (caught by np.errstate) raise
DomainError rather than propagating into moments.  It names the first
operation in plan order that meets one, and the first full-grid point
where it does; every engine runs the original operations in the same
order, and a blocked run that fails is re-run unblocked, so all of them
name the same operation and point.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DomainError, SignatureNotSubsetError
from .graph import Graph, Signature
from .quadrature import TensorGrid, grid_input_vector
from .transform import TransformedGraph, expansion_copies, signature_is_subset

# Points per block of an aligned-vector run.  A float64 vector of this
# length is 256 KiB, so the few a plan keeps alive fit in a 1-2 MiB L2 cache.
_BLOCK = 32768


def worker_count() -> int:
    """Worker threads the engines use: always 1, as every engine runs on
    the calling thread.  Benchmark reports record it."""
    return 1


def expand_tensor(data: np.ndarray, signature: Signature, to: Signature,
                  axis_sizes) -> np.ndarray:
    """Broadcast `data`, a flat vector over the points of `signature`
    (last axis fastest; one entry for an empty signature), into the larger
    signature `to`: the result's entry at a multi-index over `to` is the
    entry of `data` at that index restricted to `signature`.  Raises
    SignatureNotSubsetError unless `signature` is a subset of `to`.
    """
    signature, to = tuple(signature), tuple(to)
    if not signature_is_subset(signature, to):
        raise SignatureNotSubsetError(f"cannot expand signature {signature} into {to}")
    if signature == to:
        return data
    shape = tuple(axis_sizes[axis] if axis in signature else 1 for axis in to)
    target_shape = tuple(axis_sizes[axis] for axis in to)
    return np.broadcast_to(data.reshape(shape), target_shape).ravel()


@dataclass(eq=False)
class EvaluationReport:
    """Outputs plus the cost accounting of one engine run.

    Each output is a flat float64 vector over the full grid, last axis
    fastest.  equivalent_model_evals divides the total scalar evaluations
    by the number of elementary operations in one single-point model
    evaluation.  Equality compares outputs element by element and every
    other field but wall_time_ms, which is informational.
    """

    outputs: dict[str, np.ndarray]
    op_eval_counts: dict[int, int]
    total_scalar_evals: int
    expansion_copies: int
    equivalent_model_evals: float
    wall_time_ms: float = 0.0

    def __eq__(self, other) -> bool:
        if not isinstance(other, EvaluationReport):
            return NotImplemented
        ignored = {"outputs": None, "wall_time_ms": None}
        return (vars(self) | ignored == vars(other) | ignored
                and self.outputs.keys() == other.outputs.keys()
                and all(np.array_equal(data, other.outputs[name])
                        for name, data in self.outputs.items()))


def _grid_index(mask: np.ndarray, space: tuple[int, ...]) -> int:
    """Flat index into `space` of the first true entry of `mask`, which
    broadcasts against `space`: axes where the mask has size 1 take index 0."""
    first = np.unravel_index(int(np.flatnonzero(mask)[0]), mask.shape)
    return int(np.ravel_multi_index(first, space))


def _raise_if(bad: np.ndarray, op, reason: str, space) -> None:
    if bad.any():
        raise DomainError(op.id, op.kind, _grid_index(bad, space), reason)


# The operations _check_domain looks at; every other kind has no domain.
_GUARDED_KINDS = frozenset(("div", "log", "sqrt", "pow_const"))


def _check_domain(op, arrays, space) -> None:
    kind = op.kind
    if kind == "div":
        _raise_if(arrays[1] == 0.0, op, "division by zero", space)
    elif kind == "log":
        _raise_if(arrays[0] <= 0.0, op, "log of non-positive value", space)
    elif kind == "sqrt":
        _raise_if(arrays[0] < 0.0, op, "sqrt of negative value", space)
    elif kind == "pow_const":
        exponent = op.exponent
        if exponent != int(exponent):
            _raise_if(arrays[0] < 0.0, op, f"negative base for exponent {exponent}", space)
        if exponent < 0:
            _raise_if(arrays[0] == 0.0, op, f"zero base for exponent {exponent}", space)


def _raise_if_non_finite(op, out: np.ndarray, space) -> None:
    """Called when the operation's ufunc, run under np.errstate(raise),
    raised FloatingPointError for a result that overflows or is invalid;
    numpy completes `out` before it raises.  Every operand is finite, so
    the first non-finite entry of `out` raised the flag: a DomainError
    names that point."""
    bad = ~np.isfinite(out)
    if bad.any():
        raise DomainError(op.id, op.kind, _grid_index(bad, space),
                          f"non-finite result {out.flat[np.argmax(bad)]}") from None


def _execute(graph: Graph, columns, space: tuple[int, ...]):
    """Run graph.plan over the evaluation space `space`.

    `columns[j]` is the read-only value of uncertain input j, an array that
    broadcasts against `space`.  Returns the values alive at the end (every
    graph output among them) and the elements each operation produced.
    Operation results are buffers this call allocated; nothing else is.
    """
    values = {vid: column for (vid, _), column in zip(graph.uncertain_inputs, columns)}
    for var in graph.variables:
        if var.constant_value is not None:
            values[var.id] = np.array(var.constant_value, ndmin=len(space))
    counts: dict[int, int] = {}
    produced = graph.producer_of
    value_of = values.__getitem__
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for op, ufunc, release in graph.plan:
            operands = list(map(value_of, op.inputs))
            # Every value has one axis per entry of `space`, so a binary
            # result's shape is the larger size on each axis.
            shape = operands[0].shape
            if len(operands) == 2 and operands[1].shape != shape:
                shape = tuple(map(max, shape, operands[1].shape))
            if op.kind in _GUARDED_KINDS:
                _check_domain(op, operands, space)
            # Reuse a dying operand's buffer if an operation allocated it in
            # this shape (release may also name this step's unread output).
            for vid in release:
                if vid in produced and vid in values and values[vid].shape == shape:
                    result = values[vid]
                    break
            else:
                result = np.empty(shape)
            try:
                if op.exponent is None:
                    ufunc(*operands, out=result)
                else:
                    ufunc(operands[0], op.exponent, out=result)
            except FloatingPointError:
                _raise_if_non_finite(op, result, space)
            counts[op.id] = result.size
            values[op.output] = result
            for vid in release:
                del values[vid]
    return values, counts


def _own_output(graph: Graph, vid: int, value: np.ndarray, shape) -> np.ndarray:
    """An output's value as an array of `shape` that nothing else holds: a
    buffer the executor allocated in that shape is handed over, anything
    else (an input, a constant, a smaller result) is broadcast into a copy."""
    if vid in graph.producer_of and value.shape == shape:
        return value
    return np.broadcast_to(value, shape).copy()


def _evaluate_vectors(graph: Graph, columns, n: int) -> dict[str, np.ndarray]:
    """Every output over n aligned points, each as its own length-n vector.

    Up to _BLOCK points run as one block, whose outputs _own_output hands
    over; longer runs write each block's outputs into preallocated vectors.
    A DomainError in any block re-runs the plan over all n points, so that
    the error names the first operation in plan order and its first point,
    as an unblocked run does.
    """
    names = graph.output_names
    graph.plan  # refuses a graph it cannot run at every n, also at 0
    if n == 0:
        return {name: np.empty(0) for name in names}
    if n <= _BLOCK:
        values = _execute(graph, columns, (n,))[0]
        return {name: _own_output(graph, vid, values[vid], (n,))
                for vid, name in zip(graph.outputs, names)}

    outputs = {name: np.empty(n) for name in names}
    try:
        for start in range(0, n, _BLOCK):
            stop = min(start + _BLOCK, n)
            values = _execute(graph, [column[start:stop] for column in columns],
                              (stop - start,))[0]
            for vid, name in zip(graph.outputs, names):
                outputs[name][start:stop] = values[vid]
            del values  # free this block's buffers before the next one runs
    except DomainError:
        _execute(graph, columns, (n,))
        raise
    return outputs


def _report(graph: Graph, outputs: dict[str, np.ndarray], counts: dict[int, int],
            copies: int, wall_ms: float) -> EvaluationReport:
    total = sum(counts.values())
    per_point = graph.elementary_operation_count()
    equivalent = total / per_point if per_point else 0.0
    return EvaluationReport(outputs, counts, total, copies, equivalent, wall_ms)


def _check_grid(graph: Graph, grid: TensorGrid) -> None:
    if grid.dim != graph.dim:
        raise DimensionMismatchError(
            f"grid has {grid.dim} axes but the model has {graph.dim} uncertain inputs")
    for axis, ((vid, dist), rule) in enumerate(zip(graph.uncertain_inputs, grid.axes)):
        if rule.distribution != dist:
            raise DimensionMismatchError(
                f"grid axis {axis} distribution {rule.distribution} "
                f"does not match model input {dist}")
        finite = np.isfinite(rule.nodes)
        if not finite.all():
            raise ValueError(f"non-finite grid node {rule.nodes[finite.argmin()]} of uncertain "
                             f"input '{graph.variable_by_id[vid].name}' on axis {axis}")


def _refuse_non_finite(graph: Graph, samples: np.ndarray) -> None:
    """ValueError naming the first row of an (n, dim) array of input points
    with a non-finite entry, and that row's value of each input."""
    if not np.isfinite(samples).all():
        row = int(np.argmin(np.isfinite(samples).all(axis=1)))
        values = ", ".join(f"{graph.variable_by_id[vid].name}={value}" for (vid, _), value
                           in zip(graph.uncertain_inputs, samples[row].tolist()))
        raise ValueError(f"non-finite input at sample row {row}: {values}")


def evaluate_naive(graph: Graph, grid: TensorGrid) -> EvaluationReport:
    """Conventional full-grid sweep, counted as every operation running at
    every point (an operation of constants only runs once)."""
    _check_grid(graph, grid)
    n = grid.total_points
    start = time.perf_counter()
    vectors = [grid_input_vector(grid, axis) for axis in range(grid.dim)]
    outputs = _evaluate_vectors(graph, vectors, n)
    wall_ms = (time.perf_counter() - start) * 1e3
    counts = {step.op.id: n for step in graph.plan}
    return _report(graph, outputs, counts, 0, wall_ms)


def evaluate_amtc(transformed: TransformedGraph, grid: TensorGrid) -> EvaluationReport:
    """Evaluate a transformed graph, one run per distinct subspace point.

    Runs transformed.source over its cached plan, the one evaluate_naive
    runs, feeding uncertain input j its k_j raw nodes along axis j, so
    broadcasting runs each operation over the product of axis sizes in its
    signature.  The expands of transformed.graph contribute their output
    sizes to expansion_copies, not to total_scalar_evals.  Outputs are
    broadcast onto the full grid so they compare directly with
    evaluate_naive (that broadcast is not counted).
    """
    source = transformed.source
    _check_grid(source, grid)
    sizes = grid.axis_sizes
    start = time.perf_counter()
    columns = [grid.axis_column(axis) for axis in range(grid.dim)]
    values, counts = _execute(source, columns, sizes)
    wall_ms = (time.perf_counter() - start) * 1e3
    outputs = {name: _own_output(source, vid, values[vid], sizes).ravel()
               for vid, name in zip(source.outputs, source.output_names)}
    return _report(source, outputs, counts, expansion_copies(transformed.graph, sizes), wall_ms)


def evaluate_single_point(graph: Graph, point) -> dict[str, float]:
    """Plain scalar interpretation of the graph at one input point.

    Reference semantics for both grid engines and for sampling drivers.
    A non-finite coordinate is refused as evaluate_on_samples refuses it.
    """
    point = np.atleast_1d(np.asarray(point, dtype=float))
    if len(point) != graph.dim:
        raise DimensionMismatchError(
            f"point has {len(point)} coordinates but the model has {graph.dim} inputs")
    _refuse_non_finite(graph, point[None, :])
    outputs = _evaluate_vectors(graph, point[:, None], 1)
    return {name: float(vector[0]) for name, vector in outputs.items()}


def evaluate_on_samples(graph: Graph, samples: np.ndarray) -> dict[str, np.ndarray]:
    """Evaluate all outputs at an (n, dim) array of input points.

    Vectorized equivalent of evaluate_single_point row by row; DomainError
    point indices refer to sample rows, and the error carries that row as
    its sample.  A row with a non-finite entry is refused before any
    block runs.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if samples.shape[1] != graph.dim:
        raise DimensionMismatchError(
            f"samples have {samples.shape[1]} columns but the model has {graph.dim} inputs")
    _refuse_non_finite(graph, samples)
    try:
        return _evaluate_vectors(graph, samples.T, samples.shape[0])
    except DomainError as exc:
        raise DomainError(exc.op_id, exc.op_kind, exc.point_index, exc.reason,
                          sample=tuple(samples[exc.point_index].tolist())) from None
