"""Graph evaluation on tensor grids with exact operation-level cost accounting.

All entry points run one executor over the graph's cached plan (Graph.plan).
evaluate_naive feeds each uncertain input its full-length grid vector, so
every operation runs at every grid point; evaluate_on_samples and
evaluate_single_point do the same over sample rows or one point.
evaluate_amtc runs a transformed graph whose values have k_j on the axes
of their dependency signature and 1 elsewhere, so each operation runs once
per distinct point of its subspace; expands are broadcast views whose
elements are reported as copies (data movement, not model arithmetic).

Constants are 1-element arrays that numpy broadcasts.  A value is dropped
after its last reader, and a result reuses the buffer of a dying operand
of its shape that the executor allocated, so peak memory follows the
largest live set rather than the operation count.  Grid nodes, caller
samples, constants and views are never written.

Costs are counted as scalar applications per operation, which makes the
accounting machine-independent; wall time is measured but never part of
report equality.  Out-of-domain arguments (sqrt of a negative, log of a
non-positive, division by zero) raise DomainError at the first full-grid
point that hits them rather than propagating NaN.  Elementwise work may be
split across threads (UQC_THREADS, default 1) with identical results.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    DomainError,
    SignatureMismatchError,
    SignatureNotSubsetError,
)
from .graph import EXPAND, Graph, Signature, Step
from .quadrature import TensorGrid, grid_input_vector
from .transform import TransformedGraph, signature_is_subset

_MIN_POINTS_PER_WORKER = 2048


def worker_count() -> int:
    """Worker count from UQC_THREADS (default 1, minimum 1)."""
    try:
        return max(1, int(os.environ.get("UQC_THREADS", "1")))
    except ValueError:
        return 1


@dataclass(eq=False, frozen=True)
class ValueTensor:
    """Values of one variable over the distinct points of its signature.

    `data` is flat, in canonical axis-ascending order with the last axis
    varying fastest; an empty signature means a single scalar entry.
    """

    signature: Signature
    data: np.ndarray

    def __eq__(self, other) -> bool:
        if not isinstance(other, ValueTensor):
            return NotImplemented
        return self.signature == other.signature and np.array_equal(self.data, other.data)

    def __len__(self) -> int:
        return len(self.data)


def expand_tensor(value: ValueTensor, to: Signature, axis_sizes) -> ValueTensor:
    """Broadcast a value tensor into the larger signature `to`.

    Equivalent to an outer product with a ones tensor over the missing
    axes followed by a canonical flatten: the output entry at a
    multi-index over `to` equals the input entry at that index restricted
    to the source signature.
    """
    to = tuple(to)
    if not signature_is_subset(value.signature, to):
        raise SignatureNotSubsetError(
            f"cannot expand signature {value.signature} into {to}")
    sizes = tuple(int(s) for s in axis_sizes)
    if value.signature == to:
        return value
    source = set(value.signature)
    shape = tuple(sizes[axis] if axis in source else 1 for axis in to)
    reshaped = value.data.reshape(shape)
    target_shape = tuple(sizes[axis] for axis in to)
    expanded = np.broadcast_to(reshaped, target_shape)
    return ValueTensor(to, np.ascontiguousarray(expanded).ravel())


@dataclass
class EvaluationReport:
    """Outputs plus the cost accounting of one engine run.

    equivalent_model_evals divides the total scalar evaluations by the
    number of elementary operations in one single-point model evaluation.
    wall_time_ms is informational and excluded from equality.
    """

    outputs: dict[str, ValueTensor]
    op_eval_counts: dict[int, int]
    total_scalar_evals: int
    expansion_copies: int
    equivalent_model_evals: float
    wall_time_ms: float = field(default=0.0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EvaluationReport):
            return NotImplemented
        return (self.outputs == other.outputs
                and self.op_eval_counts == other.op_eval_counts
                and self.total_scalar_evals == other.total_scalar_evals
                and self.expansion_copies == other.expansion_copies
                and self.equivalent_model_evals == other.equivalent_model_evals)

    def to_json_dict(self) -> dict:
        return {
            "outputs": {
                name: {"signature": list(vt.signature), "data": vt.data.tolist()}
                for name, vt in self.outputs.items()
            },
            "op_eval_counts": {str(op_id): count
                               for op_id, count in sorted(self.op_eval_counts.items())},
            "total_scalar_evals": self.total_scalar_evals,
            "expansion_copies": self.expansion_copies,
            "equivalent_model_evals": self.equivalent_model_evals,
            "wall_time_ms": self.wall_time_ms,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


def _grid_index(mask: np.ndarray, space: tuple[int, ...]) -> int:
    """Flat index into `space` of the first true entry of `mask`, which
    broadcasts against `space`: axes where the mask has size 1 take index 0."""
    first = np.unravel_index(int(np.flatnonzero(mask)[0]), mask.shape)
    return int(np.ravel_multi_index(first, space))


def _raise_if(bad: np.ndarray, op, reason: str, space) -> None:
    if bad.any():
        raise DomainError(op.id, op.kind, _grid_index(bad, space), reason)


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


def _compute(step: Step, operands, shape, out, workers: int) -> np.ndarray:
    """Apply the step's ufunc, into `out` when given, optionally split over threads."""
    extra = () if step.op.exponent is None else (step.op.exponent,)
    if workers == 1 or int(np.prod(shape)) < workers * _MIN_POINTS_PER_WORKER:
        return step.ufunc(*operands, *extra, out=out)
    # Broadcast 1-element operands first so that every chunk slices all
    # operands alike; chunks run along the longest axis.
    operands = [np.broadcast_to(a, shape) for a in operands]
    out = np.empty(shape) if out is None else out
    axis = int(np.argmax(shape))
    bounds = np.linspace(0, shape[axis], workers + 1, dtype=int)

    def run(i: int) -> None:
        chunk = (slice(None),) * axis + (slice(bounds[i], bounds[i + 1]),)
        step.ufunc(*(a[chunk] for a in operands), *extra, out=out[chunk])

    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(run, range(workers)))
    return out


def _execute(graph: Graph, columns, space: tuple[int, ...]):
    """Run graph.plan over the evaluation space `space`.

    `columns[j]` is the read-only value of uncertain input j, an array that
    broadcasts against `space`.  Returns (values, owned, counts, copies):
    the values alive at the end (every graph output among them), the ids
    of those held in buffers this call allocated, the elements each
    elementary operation produced, and the elements all expands produced.
    """
    values = {vid: column for (vid, _), column in zip(graph.uncertain_inputs, columns)}
    for var in graph.variables:
        if var.kind == "constant":
            values[var.id] = np.array(var.constant_value, ndmin=len(space))
    workers = worker_count()
    owned: set[int] = set()
    counts: dict[int, int] = {}
    copies = 0
    for step in graph.plan:
        op = step.op
        operands = [values[vid] for vid in op.inputs]
        if step.ufunc is None:
            target = tuple(n if axis in op.expand_to else 1 for axis, n in enumerate(space))
            result = np.broadcast_to(operands[0], target)
            owned.discard(op.inputs[0])  # the view shares its buffer
            copies += result.size
        else:
            shape = operands[0].shape
            if len(operands) == 2 and operands[1].shape != shape:
                shape = np.broadcast_shapes(shape, operands[1].shape)
            _check_domain(op, operands, space)
            out = next((values[vid] for vid in step.release
                        if vid in owned and values[vid].shape == shape), None)
            result = _compute(step, operands, shape, out, workers)
            owned.add(op.output)
            counts[op.id] = result.size
        values[op.output] = result
        for vid in step.release:
            del values[vid]
            owned.discard(vid)
    return values, owned, counts, copies


def _evaluate_vectors(graph: Graph, columns, n: int) -> dict[str, np.ndarray]:
    """Every output over n aligned points, each as its own length-n vector:
    buffers the executor allocated are handed over, anything else (an
    input, a constant, a 1-element result) is broadcast into a copy."""
    values, owned, _, _ = _execute(graph, columns, (n,))
    outputs = {}
    for vid in graph.outputs:
        array = values[vid]
        if vid not in owned or array.shape != (n,):
            array = np.broadcast_to(array, (n,)).copy()
        outputs[graph.variable_by_id[vid].name] = array
    return outputs


def _report(graph: Graph, outputs: dict[str, ValueTensor], counts: dict[int, int],
            copies: int, wall_ms: float) -> EvaluationReport:
    total = sum(counts.values())
    per_point = graph.elementary_operation_count()
    equivalent = total / per_point if per_point else 0.0
    return EvaluationReport(outputs, counts, total, copies, equivalent, wall_ms)


def _check_grid(graph: Graph, grid: TensorGrid) -> None:
    if grid.dim != graph.dim:
        raise DimensionMismatchError(
            f"grid has {grid.dim} axes but the model has {graph.dim} uncertain inputs")
    for axis, (_, dist) in enumerate(graph.uncertain_inputs):
        if grid.axes[axis].distribution != dist:
            raise DimensionMismatchError(
                f"grid axis {axis} distribution {grid.axes[axis].distribution} "
                f"does not match model input {dist}")


def evaluate_naive(graph: Graph, grid: TensorGrid) -> EvaluationReport:
    """Conventional full-grid sweep: every operation runs at every point."""
    if graph.has_expansions():
        raise SignatureMismatchError(
            "evaluate_naive requires an untransformed graph; use evaluate_amtc")
    _check_grid(graph, grid)
    n = grid.total_points
    full: Signature = tuple(range(graph.dim))
    start = time.perf_counter()
    vectors = [grid_input_vector(grid, axis) for axis in range(grid.dim)]
    outputs = _evaluate_vectors(graph, vectors, n)
    wall_ms = (time.perf_counter() - start) * 1e3
    counts = {step.op.id: n for step in graph.plan}
    return _report(graph, {name: ValueTensor(full, data) for name, data in outputs.items()},
                   counts, 0, wall_ms)


def _check_signatures(transformed: TransformedGraph) -> None:
    """Each elementary operation must read values of its own signature, so
    that it runs over exactly its own subspace."""
    signature_of = transformed.signature_of
    for op in transformed.graph.operations:
        for vid in op.inputs:
            if op.kind != EXPAND and signature_of[vid] != signature_of[op.output]:
                raise SignatureMismatchError(
                    f"operation {op.id} with signature {signature_of[op.output]} "
                    f"received input {vid} with signature {signature_of[vid]}")


def evaluate_amtc(transformed: TransformedGraph, grid: TensorGrid) -> EvaluationReport:
    """Evaluate a transformed graph, one run per distinct subspace point.

    Uncertain input j is fed its k_j raw nodes along axis j, constants are
    1-element arrays, and each elementary operation runs over the product
    of axis sizes in its signature.  Expand operations are broadcast views
    and contribute their output sizes to expansion_copies, not to
    total_scalar_evals.  Outputs are presented on the full grid so they
    compare directly with evaluate_naive (the final broadcast, if any, is
    not counted).
    """
    graph = transformed.graph
    _check_grid(graph, grid)
    _check_signatures(transformed)
    sizes = grid.axis_sizes
    full: Signature = tuple(range(graph.dim))
    start = time.perf_counter()
    columns = [rule.nodes.reshape([k if j == axis else 1 for j, k in enumerate(sizes)])
               for axis, rule in enumerate(grid.axes)]
    values, _, counts, copies = _execute(graph, columns, sizes)
    wall_ms = (time.perf_counter() - start) * 1e3
    outputs = {}
    for vid in graph.outputs:
        tensor = ValueTensor(transformed.signature_of[vid], values[vid].ravel())
        outputs[graph.variable_by_id[vid].name] = expand_tensor(tensor, full, sizes)
    return _report(graph, outputs, counts, copies, wall_ms)


def evaluate_single_point(graph: Graph, point) -> dict[str, float]:
    """Plain scalar interpretation of the graph at one input point.

    Reference semantics for both grid engines and for sampling drivers.
    """
    point = np.atleast_1d(np.asarray(point, dtype=float))
    if len(point) != graph.dim:
        raise DimensionMismatchError(
            f"point has {len(point)} coordinates but the model has {graph.dim} inputs")
    outputs = _evaluate_vectors(graph, point[:, None], 1)
    return {name: float(vector[0]) for name, vector in outputs.items()}


def evaluate_on_samples(graph: Graph, samples: np.ndarray) -> dict[str, np.ndarray]:
    """Evaluate all outputs at an (n, dim) array of input points.

    Vectorized equivalent of evaluate_single_point row by row; DomainError
    point indices refer to sample rows, and the error carries that row as
    its sample.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if samples.shape[1] != graph.dim:
        raise DimensionMismatchError(
            f"samples have {samples.shape[1]} columns but the model has {graph.dim} inputs")
    try:
        return _evaluate_vectors(graph, samples.T, samples.shape[0])
    except DomainError as exc:
        raise DomainError(exc.op_id, exc.op_kind, exc.point_index, exc.reason,
                          sample=tuple(samples[exc.point_index])) from None
