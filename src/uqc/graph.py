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

An operation's position in Graph.operations is the deterministic
tie-breaker for evaluation order: topo_sort runs, of the operations whose
inputs are ready, the one listed first.  Graph.order holds that order,
sorted once per graph, and every pass and engine reads it.
"""

from __future__ import annotations

import heapq
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

    @property
    def arity(self) -> int:
        return 1 if self.kind in UNARY_OP_KINDS or self.kind == EXPAND else 2


class Step(NamedTuple):
    """One elementary operation of a graph's execution plan.

    `ufunc` is the operation's kernel.  `release` lists the variables
    whose last use is this step, so their values may be dropped once it
    has run; it never names a graph output.
    """

    op: OperationNode
    ufunc: np.ufunc
    release: tuple[int, ...]


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
        """The operations in topo_sort order, sorted once per graph.
        Raises CycleError like topo_sort."""
        return tuple(map(self.operation_by_id.__getitem__, topo_sort(self)))

    @cached_property
    def plan(self) -> tuple[Step, ...]:
        """Graph.order with each operation's kernel and the variables that
        die after it (a value nobody reads dies where it is produced).
        Every graph the package builds already lists its operations in
        that order.  Only elementary operations have a kernel: a graph
        with expands raises SignatureMismatchError, as evaluate_amtc runs
        the graph a transformed graph was built from, whose cached plan
        evaluate_naive runs too.  A non-finite constant or pow_const
        exponent raises ValueError naming its variable, so every value an
        engine holds is finite.  Raises CycleError like topo_sort."""
        for var in self.variables:
            if var.constant_value is not None and not math.isfinite(var.constant_value):
                raise ValueError(f"constant '{var.name}' has non-finite value {var.constant_value}")
        order = self.order
        last_use: dict[int, int] = {}
        for index, op in enumerate(order):
            if op.kind not in UFUNCS:
                hint = "; run a transformed graph with evaluate_amtc" if op.kind == EXPAND else ""
                raise SignatureMismatchError(
                    f"cannot apply operation kind '{op.kind}' elementwise{hint}")
            if op.exponent is not None and not math.isfinite(op.exponent):
                raise ValueError(f"non-finite exponent {op.exponent} in operation {op.id} "
                                 f"(pow_const) of '{self.variable_by_id[op.inputs[0]].name}'")
            for vid in (op.output, *op.inputs):
                last_use[vid] = index
        release: list[list[int]] = [[] for _ in order]
        outputs = set(self.outputs)
        for vid, index in last_use.items():
            if vid not in outputs:
                release[index].append(vid)
        return tuple(_new_node(Step, (op, UFUNCS[op.kind], tuple(dead)))
                     for op, dead in zip(order, release))


def topo_sort(graph: Graph) -> list[int]:
    """Operation ids in evaluation order (Kahn): of the operations whose
    inputs are all produced, the one listed first in graph.operations runs
    first.

    A graph whose operations are already listed in a valid evaluation
    order thus keeps that order; parsed and GraphBuilder graphs list them
    in id order, and insert_expansions lists each expand just before its
    first reader.  One scan finds such a list, in which each operation
    reads only variables that no operation or an earlier-listed one
    writes (the last-listed, for a variable written twice), and returns it
    as listed; any other list runs Kahn.  Raises CycleError naming one
    operation on a cycle if the graph is not acyclic.  Pure: identical
    graphs yield identical orderings.
    """
    operations = graph.operations
    producer = {op.output: position for position, op in enumerate(operations)}
    if all(producer.get(v, -1) < position
           for position, op in enumerate(operations) for v in op.inputs):
        return [op.id for op in operations]

    indegree: list[int] = []
    dependents: list[list[int]] = [[] for _ in operations]
    for position, op in enumerate(operations):
        deps = {producer[v] for v in op.inputs if v in producer}
        deps.discard(position)
        indegree.append(len(deps))
        for d in deps:
            dependents[d].append(position)

    ready = [position for position, deg in enumerate(indegree) if deg == 0]  # sorted: a heap
    order: list[int] = []
    while ready:
        position = heapq.heappop(ready)
        order.append(operations[position].id)
        for dep in dependents[position]:
            indegree[dep] -= 1
            if indegree[dep] == 0:
                heapq.heappush(ready, dep)

    if len(order) != len(operations):
        remaining = sorted(op.id for op, deg in zip(operations, indegree) if deg > 0)
        raise CycleError(remaining[0])
    return order


def validate(graph: Graph) -> list[str]:
    """Return every structural invariant violation; an empty list means ok."""
    violations: list[str] = []
    var_ids = {v.id for v in graph.variables}
    op_ids = {op.id for op in graph.operations}

    all_ids = sorted(var_ids | op_ids)
    if len(all_ids) != len(var_ids) + len(op_ids):
        violations.append("variable and operation ids overlap")
    if all_ids and (all_ids[0] != 0 or all_ids[-1] != len(all_ids) - 1):
        violations.append("node ids are not dense from 0")

    producers: dict[int, list[int]] = {}
    for op in graph.operations:
        producers.setdefault(op.output, []).append(op.id)
    for vid, ops in producers.items():
        if len(ops) > 1:
            violations.append(f"variable {vid} has multiple producers {ops}")
        if vid not in var_ids:
            violations.append(f"operation {ops[0]} writes missing variable {vid}")

    listings = Counter(vid for vid, _ in graph.uncertain_inputs)
    for var in graph.variables:
        roles = ["uncertain input"] * listings[var.id]
        if var.constant_value is not None:
            roles.append("constant")
        if var.id in producers:
            roles.append("operation output")
        if not roles:
            violations.append(f"variable {var.id} has no role")
        elif len(roles) > 1:
            violations.append(f"variable {var.id} has {len(roles)} roles: {', '.join(roles)}")

    for op in graph.operations:
        if op.kind not in OP_KINDS:
            violations.append(f"operation {op.id} has unknown kind '{op.kind}'")
            continue
        if len(op.inputs) != op.arity:
            violations.append(
                f"operation {op.id} ({op.kind}) has {len(op.inputs)} inputs, "
                f"expected {op.arity}")
        for vid in op.inputs:
            if vid not in var_ids:
                violations.append(f"operation {op.id} reads missing variable {vid}")
        if (op.exponent is not None) != (op.kind == "pow_const"):
            violations.append(f"operation {op.id}: exponent present iff kind is pow_const")
        if (op.expand_to is not None) != (op.kind == EXPAND):
            violations.append(f"operation {op.id}: expand_to present iff kind is expand")

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

    if not violations:
        try:
            graph.order  # sorts, or raises on a cycle
        except CycleError as exc:
            violations.append(str(exc))
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
