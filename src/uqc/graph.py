"""Bipartite computational-graph IR of scalar elementary operations.

A model is a directed acyclic graph whose nodes are either variables or
operations; edges only connect variables to operations and operations to
variables.  Variables are scalars in the dataflow sense: the number of
grid points a variable carries at evaluation time is an engine concern,
not an IR concern.  A variable's role is where the graph states it: it
is an uncertain input if Graph.uncertain_inputs lists it, a constant if
it holds a constant_value, and an intermediate if an operation writes
it; validate requires exactly one role of each variable.  An output is
any variable listed in Graph.outputs, reported under its own entry of
Graph.output_names.  Node ids are assigned in insertion order from a single
dense counter shared by variables and operations.

A graph lists its operations in evaluation order: each operation reads
only variables that an earlier-listed operation writes or that no
operation writes.  topo_sort checks that order and refuses any other
list.  validate states every rule of a well-formed graph; Graph.order
enforces them all once per graph, and every pass and engine reads it, so
each refuses exactly the graphs validate refuses: with a ValueError
carrying validate's messages, or CycleError for a read before its
write.  A graph holding an expand has no plan (SignatureMismatchError).
Graph.signatures maps each variable to its dependency signature, derived
by one forward pass once per graph; every signature reader reads it, and
validate's rule that an expand widens its input is checked with it.
Graph.stages splits the plan by the highest axis of each operation's
signature, for a run that draws the inputs one after another.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .distributions import Distribution
from .errors import CycleError, SignatureMismatchError

# Subset of uncertain-input axes a value depends on, ascending and duplicate-free.
Signature = tuple[int, ...]

UNARY_OP_KINDS = ("neg", "pow_const", "sin", "cos", "tan", "exp", "log", "sqrt")
BINARY_OP_KINDS = ("add", "sub", "mul", "div")
EXPAND = "expand"
OP_KINDS = UNARY_OP_KINDS + BINARY_OP_KINDS + (EXPAND,)
# Number of inputs of each kind.
_ARITY = dict.fromkeys(UNARY_OP_KINDS + (EXPAND,), 1) | dict.fromkeys(BINARY_OP_KINDS, 2)

# Elementwise kernel of every elementary kind; pow_const passes its
# exponent as the second argument.  Expand has no kernel.
UFUNCS = {
    "neg": np.negative, "pow_const": np.power, "sin": np.sin, "cos": np.cos,
    "tan": np.tan, "exp": np.exp, "log": np.log, "sqrt": np.sqrt,
    "add": np.add, "sub": np.subtract, "mul": np.multiply, "div": np.divide,
}


# Nodes are named tuples, immutable and cheaper to build than frozen
# dataclasses; every parse builds one per variable and operation.
class VariableNode(NamedTuple):
    id: int
    name: str
    constant_value: float | None = None


class OperationNode(NamedTuple):
    id: int
    kind: str
    inputs: tuple[int, ...]
    output: int
    exponent: float | None = None       # pow_const only
    expand_to: Signature | None = None  # expand only


class Step(NamedTuple):
    """One elementary operation of a graph's execution plan.

    `ufunc` is the operation's kernel.  `release` lists the variables
    whose last use is this step, so their values may be dropped once it
    has run; it never names a graph output.
    """

    op: OperationNode
    ufunc: np.ufunc
    release: tuple[int, ...]


class Stage(NamedTuple):
    """The steps a staged run (Graph.stages) takes on a block of samples
    once uncertain input j, the stage's index, is drawn for that block and
    the block's earlier stages have run.

    `steps` keep Graph.plan's order; their release lists are for the
    staged order and never name a value an earlier stage hands on.
    `draw_into` is the full-length vector input j is drawn into when a
    later stage reads it, else None.  `hands_on` pairs each value of this
    stage that a later stage reads with the full-length vector it is
    copied into, or None for a 1-element value handed on as it is.  The
    stage that makes the first output lists it first, paired with vector 0,
    unless it is an input drawn there.
    """

    steps: tuple[Step, ...]
    draw_into: int | None
    hands_on: tuple[tuple[int, int | None], ...]


# Builds a named tuple from all of its fields, in order, without the
# Python-level __new__ of the class; a parse builds one per node.
_new_node = tuple.__new__


@dataclass(frozen=True)
class Graph:
    variables: tuple[VariableNode, ...]
    operations: tuple[OperationNode, ...]
    # Ordered (variable id, distribution) pairs; the order defines axes u_1..u_d.
    uncertain_inputs: tuple[tuple[int, Distribution], ...]
    outputs: tuple[int, ...]
    # The name each output is reported under, in the order of outputs.
    output_names: tuple[str, ...]

    @cached_property
    def variable_by_id(self) -> dict[int, VariableNode]:
        return {v.id: v for v in self.variables}

    @cached_property
    def operation_by_id(self) -> dict[int, OperationNode]:
        return {op.id: op for op in self.operations}

    @cached_property
    def producer_of(self) -> dict[int, int]:
        """Variable id -> id of the operation that writes it."""
        return {op.output: op.id for op in self.operations}

    def first_output_name(self) -> str:
        """Name of the first output, which the estimators study; ValueError if there is none."""
        if not self.outputs:
            raise ValueError("model declares no output")
        return self.output_names[0]

    @property
    def dim(self) -> int:
        return len(self.uncertain_inputs)

    @property
    def distributions(self) -> tuple[Distribution, ...]:
        return tuple(dist for _, dist in self.uncertain_inputs)

    def elementary_operation_count(self) -> int:
        """Number of non-expand operations (one single-point model evaluation)."""
        return sum(1 for op in self.operations if op.kind != EXPAND)

    def has_expansions(self) -> bool:
        return any(op.kind == EXPAND for op in self.operations)

    @cached_property
    def order(self) -> tuple[OperationNode, ...]:
        """Graph.operations, once the graph is well formed: a ValueError
        carrying validate's messages if it breaks any rule but evaluation
        order and expand widening, else CycleError, like topo_sort, if an
        operation reads a variable before it is written, else a ValueError
        naming each narrowing expand.  Checked once per graph."""
        violations = _violations(self)
        if not violations:
            topo_sort(self)
            if self.has_expansions():  # only an expand needs the signatures here
                violations = _narrowing_expands(self)
        if violations:
            raise ValueError("; ".join(violations))
        return self.operations

    @property
    def signatures(self) -> dict[int, Signature]:
        """Variable id -> dependency signature, derived once per graph;
        raises as Graph.order does."""
        self.order
        return self._signatures[0]

    @cached_property
    def _signatures(self) -> tuple[dict[int, Signature], Counter[Signature]]:
        """(Graph.signatures, and per signature the number of variables of
        another signature that operations of that signature read)."""
        return _signature_pass(self)

    @cached_property
    def plan(self) -> tuple[Step, ...]:
        """Graph.order with each operation's kernel and the variables that
        die after it (a value nobody reads dies where it is produced).
        Raises as Graph.order does.  Only elementary operations have a
        kernel: a graph with expands raises SignatureMismatchError, as
        evaluate_amtc runs the graph a transformed graph was built from,
        whose cached plan evaluate_naive runs too."""
        order = self.order
        for op in order:
            if op.kind == EXPAND:
                raise SignatureMismatchError("cannot apply operation kind 'expand' elementwise; "
                                             "run a transformed graph with evaluate_amtc")
        return _steps(order, set(self.outputs))

    @cached_property
    def stages(self) -> tuple[tuple[Stage, ...], int]:
        """Graph.plan split for a run that draws uncertain inputs 0..dim-1
        one after another, block by block, and keeps only the first output
        whole: (one Stage per input, or one for a graph without inputs;
        the number of full-length vectors the run holds).

        An operation joins the stage of its signature's highest axis, or
        stage 0 if it reads constants only, so it runs as soon as its
        operands are known; that order is valid, as every operand's
        signature is within its operation's.  If this holds more
        full-length vectors than the dim - 1 leading inputs that a run
        drawing the last input block by block holds (at least 1), every
        operation joins the last stage instead, which holds no more than
        those.  Raises as Graph.plan does."""
        self.plan
        staged = _staging(self, lambda signature: signature[-1] if signature else 0)
        if staged[1] > max(self.dim - 1, 1):
            staged = _staging(self, lambda signature: max(self.dim - 1, 0))
        return staged


def _steps(order, kept: set[int]) -> tuple[Step, ...]:
    """Steps for `order`, elementary operations in evaluation order, each
    releasing the variables whose last use it is, but those in `kept`."""
    last_use: dict[int, int] = {}
    for index, op in enumerate(order):
        last_use[op.output] = index
        for vid in op.inputs:
            last_use[vid] = index
    release: list[list[int]] = [[] for _ in order]
    for vid, index in last_use.items():
        if vid not in kept:
            release[index].append(vid)
    return tuple(_new_node(Step, (op, UFUNCS[op.kind], tuple(dead)))
                 for op, dead in zip(order, release))


def _staging(graph: Graph, stage_of) -> tuple[tuple[Stage, ...], int]:
    """Graph.stages with each operation in stage stage_of(its signature),
    and the first output made in stage stage_of(its signature)."""
    signatures = graph.signatures
    inputs = [vid for vid, _ in graph.uncertain_inputs]
    by_stage: list[list[OperationNode]] = [[] for _ in range(max(len(inputs), 1))]
    made = {vid: axis for axis, vid in enumerate(inputs)}  # stage each value is made in
    last_read: dict[int, int] = {}
    for op in graph.order:
        stage = stage_of(signatures[op.output])
        by_stage[stage].append(op)
        made[op.output] = stage
        for vid in op.inputs:
            last_read[vid] = max(last_read.get(vid, stage), stage)
    first = graph.outputs[0] if graph.outputs else None
    if first is not None:
        first_stage = stage_of(signatures[first])
        last_read[first] = max(last_read.get(first, first_stage), first_stage)
    handed = {vid for vid, stage in last_read.items() if made.get(vid, stage) < stage}

    # Vectors are shared between values whose lives do not overlap.  A
    # stage copies what it hands on only after its steps have run, the
    # first output first, so it may take over the vector of a value it
    # reads last.  An input's block is drawn before the block's earlier
    # stages have run, so an input never takes over a vector.  The first
    # output's vector is never freed: a later stage reads the first output
    # there, and a handed-on input that is the first output is drawn there.
    vector_of: dict[int, int] = {}
    free: list[int] = []
    count = 0

    def take() -> int:
        nonlocal count
        if free:
            return free.pop()
        count += 1
        return count - 1

    for vid in inputs:
        if vid in handed:
            vector_of[vid] = take()
    hands_on: list[list[tuple[int, int | None]]] = [[] for _ in by_stage]
    output_vector = vector_of.get(first)
    for stage, ops in enumerate(by_stage):
        free += [v for vid, v in vector_of.items() if last_read[vid] == stage and vid != first]
        if first is not None and first_stage == stage and output_vector is None:
            output_vector = take()
            hands_on[stage].append((first, output_vector))
        for op in ops:
            if op.output in handed and op.output != first:
                if signatures[op.output]:
                    vector_of[op.output] = take()
                hands_on[stage].append((op.output, vector_of.get(op.output)))

    # Number the first output's vector 0.
    swap = {} if output_vector is None else {output_vector: 0, 0: output_vector}
    numbered = lambda vector: swap.get(vector, vector)  # noqa: E731
    steps = iter(_steps([op for ops in by_stage for op in ops], {*graph.outputs} | handed))
    return tuple(_new_node(Stage, (
        tuple(next(steps) for _ in ops),
        numbered(vector_of.get(inputs[axis])) if axis < len(inputs) else None,
        tuple((vid, numbered(vector)) for vid, vector in hands_on[axis])))
        for axis, ops in enumerate(by_stage)), count


def topo_sort(graph: Graph) -> list[int]:
    """Operation ids in evaluation order, which is the order graph.operations
    lists them in: each operation reads only variables that no operation
    or an earlier-listed one writes (the last-listed, for a variable
    written twice).  Parsed and GraphBuilder graphs list their operations
    in id order, and insert_expansions and strip_expansions keep the
    order.  Raises CycleError naming the first listed operation that reads
    a variable written by itself or by a later-listed operation, so a
    cycle or a list out of evaluation order is refused, never sorted.
    """
    operations = graph.operations
    producer = {op.output: position for position, op in enumerate(operations)}
    for position, op in enumerate(operations):
        for vid in op.inputs:
            if producer.get(vid, -1) >= position:
                raise CycleError(op.id)
    return [op.id for op in operations]


def validate(graph: Graph) -> list[str]:
    """Every violation of a well-formed graph, the one statement of its
    rules; an empty list means ok.  A read before its write is named only
    once the graph breaks no other rule, and a narrowing expand after it."""
    violations = _violations(graph)
    if not violations:
        try:
            topo_sort(graph)
        except CycleError as exc:
            violations.append(str(exc))
        else:
            violations = _narrowing_expands(graph)
    return violations


def _signature_pass(graph: Graph) -> tuple[dict[int, Signature], Counter[Signature]]:
    """Forward dependency pass: uncertain input j has signature (j,), a
    constant (), an expand's output its expand_to, any other operation's
    output the union of its inputs', unioned as bitmasks.  The same walk
    counts the (variable, reader signature) pairs whose signatures differ,
    by the reader's.  The graph must be in evaluation order."""
    masks = {vid: 1 << axis for axis, (vid, _) in enumerate(graph.uncertain_inputs)}
    masks.update((var.id, 0) for var in graph.variables if var.constant_value is not None)
    crossed: set[tuple[int, int]] = set()
    for op in graph.operations:
        # Only an expand, of one input, has an expand_to.
        if op.expand_to is None:
            mask = 0
            for vid in op.inputs:
                mask |= masks[vid]
        else:
            mask = sum(1 << axis for axis in op.expand_to)
        masks[op.output] = mask
        for vid in op.inputs:
            if masks[vid] != mask:
                crossed.add((vid, mask))
    axes = {mask: tuple(axis for axis in range(graph.dim) if mask >> axis & 1)
            for mask in {*masks.values()}}
    return ({vid: axes[mask] for vid, mask in masks.items()},
            Counter(axes[mask] for _, mask in crossed))


def _narrowing_expands(graph: Graph) -> list[str]:
    """validate's message for each expand whose expand_to leaves out an
    axis of its input's signature, over a graph in evaluation order."""
    signatures = graph._signatures[0]
    return [f"operation {op.id}: expand_to {op.expand_to} leaves out an axis of its "
            f"input's signature {signatures[op.inputs[0]]}" for op in graph.operations
            if op.kind == EXPAND and not set(signatures[op.inputs[0]]) <= set(op.expand_to)]


def _violations(graph: Graph) -> list[str]:
    """validate's messages but a read before its write."""
    violations: list[str] = []
    var_ids = {v.id for v in graph.variables}
    op_ids = {op.id for op in graph.operations}

    all_ids = var_ids | op_ids
    if len(all_ids) != len(var_ids) + len(op_ids):
        violations.append("variable and operation ids overlap")
    if all_ids and (min(all_ids) != 0 or max(all_ids) != len(all_ids) - 1):
        violations.append("node ids are not dense from 0")

    producers = {op.output: op.id for op in graph.operations}
    if len(producers) < len(graph.operations) or not var_ids.issuperset(producers):
        written: dict[int, list[int]] = {}
        for op in graph.operations:
            written.setdefault(op.output, []).append(op.id)
        for vid, ops in written.items():
            if len(ops) > 1:
                violations.append(f"variable {vid} has multiple producers {ops}")
            if vid not in var_ids:
                violations.append(f"operation {ops[0]} writes missing variable {vid}")

    listings = Counter(vid for vid, _ in graph.uncertain_inputs)
    for vid, name, value in graph.variables:
        constant = value is not None
        if constant and not math.isfinite(value):
            violations.append(f"constant '{name}' has non-finite value {value}")
        listed, produced = listings.get(vid, 0), vid in producers
        if listed + constant + produced != 1:
            roles = (["uncertain input"] * listed + ["constant"] * constant
                     + ["operation output"] * produced)
            violations.append(f"variable {vid} has {len(roles)} roles: {', '.join(roles)}"
                              if roles else f"variable {vid} has no role")

    for op in graph.operations:
        op_id, kind, inputs, _, exponent, expand_to = op
        arity = _ARITY.get(kind)
        if arity is None:
            violations.append(f"operation {op_id} has unknown kind '{kind}'")
            continue
        if len(inputs) != arity:
            violations.append(f"operation {op_id} ({kind}) has {len(inputs)} inputs, "
                              f"expected {arity}")
        for vid in inputs:
            if vid not in var_ids:
                violations.append(f"operation {op_id} reads missing variable {vid}")
        if (exponent is not None) != (kind == "pow_const"):
            violations.append(f"operation {op_id}: exponent present iff kind is pow_const")
        elif (exponent is not None and not math.isfinite(exponent)
              and inputs and inputs[0] in var_ids):
            violations.append(f"non-finite exponent {exponent} in operation {op_id} "
                              f"(pow_const) of '{graph.variable_by_id[inputs[0]].name}'")
        if (expand_to is not None) != (kind == EXPAND):
            violations.append(f"operation {op_id}: expand_to present iff kind is expand")
        elif expand_to is not None and list(expand_to) != [
                axis for axis in range(graph.dim) if axis in expand_to]:
            violations.append(f"operation {op_id}: expand_to {expand_to} is not an ascending "
                              f"tuple of distinct axes in 0..{graph.dim - 1}")

    for vid in listings:
        if vid not in var_ids:
            violations.append(f"uncertain input references missing variable {vid}")
    for index, vid in enumerate(graph.outputs):
        if vid not in var_ids:
            violations.append(f"outputs reference missing variable {vid}")
        if vid in graph.outputs[:index]:
            violations.append(f"variable {vid} is listed more than once in outputs")
    if len(graph.output_names) != len(graph.outputs):
        violations.append(f"{len(graph.output_names)} output names for "
                          f"{len(graph.outputs)} outputs")
    if len(set(graph.output_names)) != len(graph.output_names):
        violations.append("output names are not distinct")
    return violations


class GraphBuilder:
    """Mutable construction helper; produces an immutable Graph."""

    def __init__(self):
        self._variables: dict[int, VariableNode] = {}
        self._operations: list[OperationNode] = []
        self._uncertain: list[tuple[int, Distribution]] = []
        self._outputs: list[int] = []
        self._output_names: list[str] = []
        self._next_id = 0

    def add_uncertain_input(self, name: str, dist: Distribution) -> int:
        vid = self._next_id
        self._next_id = vid + 1
        self._variables[vid] = _new_node(VariableNode, (vid, name, None))
        self._uncertain.append((vid, dist))
        return vid

    def add_constant(self, value: float, name: str | None = None) -> int:
        vid = self._next_id
        self._next_id = vid + 1
        self._variables[vid] = _new_node(VariableNode, (vid, name or f"_c{vid}", float(value)))
        return vid

    def add_operation(self, kind: str, inputs: tuple[int, ...] | list[int], *,
                      exponent: float | None = None,
                      expand_to: Signature | None = None,
                      name: str | None = None) -> int:
        """Append an operation plus its fresh output variable; returns the output id."""
        op_id = self._next_id
        out_id = op_id + 1
        self._next_id = op_id + 2
        self._operations.append(_new_node(OperationNode, (
            op_id, kind, tuple(inputs), out_id, exponent, expand_to)))
        self._variables[out_id] = _new_node(VariableNode, (out_id, name or f"_t{out_id}", None))
        return out_id

    def rename(self, var_id: int, name: str) -> None:
        var = self._variables[var_id]
        self._variables[var_id] = _new_node(VariableNode, (var_id, name, var.constant_value))

    def mark_output(self, var_id: int, name: str) -> None:
        """List the variable as an output reported under `name`."""
        self._outputs.append(var_id)
        self._output_names.append(name)

    def build(self) -> Graph:
        return Graph(tuple(self._variables.values()), tuple(self._operations),
                     tuple(self._uncertain), tuple(self._outputs), tuple(self._output_names))
