"""Dependency-signature analysis and broadcast-node insertion.

On a tensor grid an operation takes distinct values only on the subspace
spanned by the uncertain inputs it actually depends on, so any operation
whose dependency signature is a strict subset of the full axis set is
being evaluated redundantly by a naive full-grid sweep.  This pass makes
the savings explicit in the graph itself:

1. each operation's dependency signature (transitive union over its
   inputs) is read from Graph.signatures, one forward pass per graph, and
   forms a 0/1 influence matrix of operations versus uncertain inputs;
2. operations sharing a signature are grouped into sub-graphs;
3. wherever a producer's signature differs from a consumer's, an `expand`
   operation is spliced in that broadcasts the producer's value tensor
   into the consumer's larger subspace.

The pass takes a model graph and refuses one that already holds an
expand.  Afterwards every operation's inputs carry exactly its own
signature, so each operation can be evaluated once per distinct point of
its own subspace.  The result holds the model graph, `source`, which the
transformed engine runs (over values shaped per axis, numpy broadcasting
does the expands' work); its `graph`, with the expands and their
signatures, is built from `source` the first time it is read.
expansion_copies counts copies from signatures, so no run builds the
expands; they define that count and serve DOT export (to_dot draws a
TransformedGraph's signatures as edge sizes and clusters).  Removing them
(strip_expansions) recovers the original graph.
"""

from __future__ import annotations

import math
import numbers
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from .errors import DimensionMismatchError
from .graph import EXPAND, Graph, OperationNode, Signature, VariableNode


def signature_label(graph: Graph, signature: Signature) -> str:
    """Human-readable label like '{u1, u2}' using input names."""
    names = [graph.variable_by_id[vid].name for vid, _ in graph.uncertain_inputs]
    return "{" + ", ".join(names[axis] for axis in signature) + "}"


def compute_influence_matrix(graph: Graph) -> dict[int, Signature]:
    """Operation id -> its output's signature (Graph.signatures), in evaluation
    order: the influence matrix, whose (i, j) entry is 1 when row i holds j."""
    signatures = graph.signatures
    return {op.id: signatures[op.output] for op in graph.operations}


def partition_operations(rows: dict[int, Signature]) -> dict[Signature, frozenset[int]]:
    """Operation ids grouped by shared signature (rows as compute_influence_matrix gives)."""
    return {signature: frozenset(op_id for op_id, row in rows.items() if row == signature)
            for signature in dict.fromkeys(rows.values())}


@dataclass(frozen=True)
class TransformedGraph:
    """A model graph (`source`), which evaluate_amtc runs, and the graph
    with expands made from it (`graph`), derived the first time it is read."""

    source: Graph

    @cached_property
    def graph(self) -> Graph:
        graph = self.source  # spliced as insert_expansions describes
        signatures = dict(graph.signatures)  # gains each expand's output
        crossings: Counter[Signature] = Counter()  # expands made, by expand_to
        variables = list(graph.variables)
        operations: list[OperationNode] = []
        expanded: dict[tuple[int, Signature], int] = {}
        next_id = len(graph.variables) + len(graph.operations)
        for op in graph.order:
            target = signatures[op.output]
            new_inputs = []
            for vid in op.inputs:
                if signatures[vid] != target:
                    if (vid, target) not in expanded:
                        out_id = expanded[vid, target] = next_id + 1
                        signatures[out_id] = target
                        crossings[target] += 1
                        operations.append(OperationNode(next_id, EXPAND, (vid,), out_id, None,
                                                        target))
                        variables.append(VariableNode(out_id, f"_x{out_id}"))
                        next_id += 2
                    vid = expanded[vid, target]
                new_inputs.append(vid)
            operations.append(op._replace(inputs=tuple(new_inputs)))

        spliced = Graph(tuple(variables), tuple(operations),
                        graph.uncertain_inputs, graph.outputs, graph.output_names)
        vars(spliced)["_signatures"] = signatures, crossings  # known here, so not derived again
        return spliced


def insert_expansions(graph: Graph) -> TransformedGraph:
    """Splice an expand node into every edge that crosses signatures.

    For each (producer variable v -> consumer operation c) where the
    variable's signature differs from the consumer's, exactly one expand
    node from the variable's signature to the consumer's is inserted;
    expansions are deduplicated per (variable, target signature) pair.
    No other edits are made.  Original node ids are preserved and new
    nodes continue the dense id sequence, so the transformation is
    deterministic and reversible (see strip_expansions).

    The output lists its operations in evaluation order: the original
    operations in the input graph's order, each expand just before its
    first reader.  No engine runs it: evaluate_amtc runs the input graph
    over the plan evaluate_naive runs, so both grid engines meet
    out-of-domain values at the same operation first.

    A graph validate refuses is refused with validate's messages: at once
    if it holds an expand, else where the result is read.  Any other graph
    holding an expand is refused with a ValueError.
    """
    if graph.has_expansions():
        graph.order  # refuses a graph validate refuses with its messages
        raise ValueError("cannot transform a graph that already holds expand operations")
    return TransformedGraph(graph)


def strip_expansions(graph: Graph) -> Graph:
    """Delete expand nodes, splicing each producer back to its consumers.

    Inverse of insert_expansions: applied to insert_expansions' output,
    whose expands take the ids after every original node, it returns a
    graph equal to the original.  Expands placed among the other nodes'
    ids leave holes in the result's ids, which validate refuses.
    """
    redirect = {op.output: op.inputs[0] for op in graph.operations if op.kind == EXPAND}

    def resolve(vid: int) -> int:
        while vid in redirect:
            vid = redirect[vid]
        return vid

    operations = tuple(
        op._replace(inputs=tuple(resolve(v) for v in op.inputs))
        for op in graph.operations if op.kind != EXPAND)
    variables = tuple(v for v in graph.variables if v.id not in redirect)
    outputs = tuple(resolve(v) for v in graph.outputs)
    return Graph(variables, operations, graph.uncertain_inputs, outputs, graph.output_names)


def influence_matrix_to_csv(graph: Graph) -> str:
    """0/1 table of operations (rows) versus uncertain inputs (columns)."""
    rows = compute_influence_matrix(graph)
    input_names = [graph.variable_by_id[vid].name for vid, _ in graph.uncertain_inputs]
    lines = ["operation," + ",".join(input_names)]
    for op in graph.operations:
        cells = ["1" if axis in rows[op.id] else "0" for axis in range(graph.dim)]
        lines.append(f"{op.id}:{op.kind}," + ",".join(cells))
    return "\n".join(lines) + "\n"


def _size_label(n_axes: int) -> str:
    return {0: "1", 1: "k"}.get(n_axes, f"k^{n_axes}")


def to_dot(model: Graph | TransformedGraph) -> str:
    """Render a graph in DOT: variables as ellipses, operations as boxes,
    expand operations as double boxes.

    Edges are labeled with the grid data size of the variable they carry.
    A Graph is drawn as a naive sweep runs it: the full k^d on every edge
    and no clusters.  A TransformedGraph, as insert_expansions returns
    it, is drawn from its `graph`, whether or not that holds an expand:
    each variable's k^|signature| on its edges, and one cluster per
    signature, in ascending order and labeled by signature_label,
    holding that signature's elementary operations, each followed by its
    output, in id order.  An expand is labeled with its input's
    signature and its expand_to.
    """
    transformed = isinstance(model, TransformedGraph)
    graph = model.graph if transformed else model
    signatures = graph.signatures  # refuses a graph validate refuses
    lines = ["digraph model {", "  rankdir=TB;"]

    def var_decl(var: VariableNode) -> str:
        label = var.name if var.constant_value is None else f"{var.name} = {var.constant_value:g}"
        return f'  n{var.id} [shape=ellipse, label="{label}"];'

    def op_decl(op: OperationNode) -> str:
        if op.kind == EXPAND:
            source = set(signatures[op.inputs[0]]) or "{}"
            return (f'  n{op.id} [shape=box, label="expand {source} -> {set(op.expand_to)}", '
                    f'peripheries=2];')
        label = f"pow {op.exponent:g}" if op.kind == "pow_const" else op.kind
        return f'  n{op.id} [shape=box, label="{label}"];'

    n_axes = dict.fromkeys(graph.variable_by_id, graph.dim)
    clusters: dict[Signature, list[OperationNode]] = {}
    if transformed:
        n_axes = {vid: len(signature) for vid, signature in signatures.items()}
        for op in sorted(graph.operations, key=lambda op: op.id):
            if op.kind != EXPAND:
                clusters.setdefault(signatures[op.output], []).append(op)

    clustered: set[int] = set()
    for index, signature in enumerate(sorted(clusters)):
        lines.append(f"  subgraph cluster_{index} {{")
        lines.append(f'    label="{signature_label(graph, signature)}";')
        for op in clusters[signature]:
            lines.append("  " + op_decl(op))
            lines.append("  " + var_decl(graph.variable_by_id[op.output]))
            clustered.update((op.id, op.output))
        lines.append("  }")
    lines += [var_decl(var) for var in graph.variables if var.id not in clustered]
    lines += [op_decl(op) for op in graph.operations if op.id not in clustered]

    for op in graph.operations:
        for vid in op.inputs:
            lines.append(f'  n{vid} -> n{op.id} [label="{_size_label(n_axes[vid])}"];')
        lines.append(f'  n{op.id} -> n{op.output} [label="{_size_label(n_axes[op.output])}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _positive_sizes(axis_sizes) -> tuple[int, ...]:
    """The axis sizes as ints; ValueError unless each is a positive integer."""
    axis_sizes = tuple(axis_sizes)
    for size in axis_sizes:
        if not isinstance(size, numbers.Integral) or size < 1:
            raise ValueError(f"axis size {size!r} is not a positive integer")
    return tuple(map(int, axis_sizes))


def scheduled_eval_counts(rows: dict[int, Signature], axis_sizes) -> dict[int, int]:
    """Evaluations each operation is scheduled for on a grid with the given
    per-axis sizes: the product of sizes over its row of the influence
    matrix.  DimensionMismatchError if a row names an axis past the sizes."""
    sizes = _positive_sizes(axis_sizes)
    axes = max((signature[-1] + 1 for signature in rows.values() if signature), default=0)
    if axes > len(sizes):
        raise DimensionMismatchError(f"{len(sizes)} axis sizes for signatures over {axes} axes")
    return {op_id: math.prod(sizes[axis] for axis in signature)
            for op_id, signature in rows.items()}


def expansion_copies(graph: Graph, axis_sizes) -> int:
    """Elements the expands stand for on a grid of the given axis sizes: per
    (variable, reader signature) pair whose signatures differ, the product of
    sizes over the reader's, from the counts of the signature pass.  A graph
    with those expands counts alike.  DimensionMismatchError unless
    there is one size per uncertain input."""
    graph.signatures  # refuses a graph validate refuses
    sizes = _positive_sizes(axis_sizes)
    if len(sizes) != graph.dim:
        raise DimensionMismatchError(f"{len(sizes)} axis sizes for {graph.dim} uncertain inputs")
    return sum(count * math.prod(sizes[axis] for axis in target)
               for target, count in graph._signatures[1].items())
