"""Dependency-signature analysis and broadcast-node insertion.

On a tensor grid an operation takes distinct values only on the subspace
spanned by the uncertain inputs it actually depends on, so any operation
whose dependency signature is a strict subset of the full axis set is
being evaluated redundantly by a naive full-grid sweep.  This pass makes
the savings explicit in the graph itself:

1. a forward pass over the operations computes each operation's
   dependency signature (transitive union over its inputs) and stores the
   result as a 0/1 influence matrix of operations versus uncertain inputs;
2. operations sharing a signature are grouped into sub-graphs;
3. wherever a producer's signature differs from a consumer's, an `expand`
   operation is spliced in that broadcasts the producer's value tensor
   into the consumer's larger subspace.

The pass takes a model graph and refuses one that already holds an
expand.  After the transformation every operation's inputs carry exactly
the operation's own signature, so each operation can be evaluated once per
distinct point of its own subspace.  The result holds one graph, `source`,
the model graph, which the transformed engine runs (over values shaped
per axis, numpy broadcasting does the expands' work); its `graph`, with
the expands, is derived from `source` the first time it is read.
Signatures and the partition are not stored: compute_influence_matrix and
partition_operations derive them where they are read.  expansion_copies
counts copies from signatures, so no run builds the expands; they define
that count and serve DOT export (to_dot draws a TransformedGraph's
signatures as edge sizes and clusters).  Removing them and re-splicing
producers to consumers (strip_expansions) recovers the original graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .graph import EXPAND, Graph, OperationNode, Signature, VariableNode


def signature_union(a: Signature, b: Signature) -> Signature:
    return tuple(sorted(set(a) | set(b)))


def signature_is_subset(a: Signature, b: Signature) -> bool:
    return set(a) <= set(b)


def signature_label(graph: Graph, signature: Signature) -> str:
    """Human-readable label like '{u1, u2}' using input names."""
    names = [graph.variable_by_id[vid].name for vid, _ in graph.uncertain_inputs]
    if not signature:
        return "{}"
    return "{" + ", ".join(names[axis] for axis in signature) + "}"


@dataclass(frozen=True)
class InfluenceMatrix:
    """Dependency signature per operation, plus per-variable signatures.

    `rows[op_id]` lists the uncertain-input axes the operation's output
    depends on; the (i, j) influence-matrix entry is 1 exactly when axis j
    appears in the row of operation i.
    """

    rows: dict[int, Signature]
    variable_signatures: dict[int, Signature]


def compute_influence_matrix(graph: Graph) -> InfluenceMatrix:
    """Forward dependency pass in evaluation order (graph.order).

    Uncertain input j has signature {j}, constants have the empty
    signature, and every operation takes the union of its input
    signatures; the operation's output variable inherits that union.
    """
    variable_signatures: dict[int, Signature] = {}
    for axis, (vid, _) in enumerate(graph.uncertain_inputs):
        variable_signatures[vid] = (axis,)
    for var in graph.variables:
        if var.constant_value is not None:
            variable_signatures[var.id] = ()

    rows: dict[int, Signature] = {}
    for op in graph.order:
        if op.kind == EXPAND:
            signature = op.expand_to
        else:
            first, *rest = op.inputs
            signature = variable_signatures[first]
            for vid in rest:
                other = variable_signatures[vid]
                if other != signature:
                    signature = signature_union(signature, other)
        rows[op.id] = signature
        variable_signatures[op.output] = signature
    return InfluenceMatrix(rows, variable_signatures)


def partition_operations(matrix: InfluenceMatrix) -> dict[Signature, frozenset[int]]:
    """Operation ids grouped by shared dependency signature."""
    groups: dict[Signature, set[int]] = {}
    for op_id, signature in matrix.rows.items():
        groups.setdefault(signature, set()).add(op_id)
    return {sig: frozenset(ops) for sig, ops in groups.items()}


@dataclass(frozen=True)
class TransformedGraph:
    """A model graph (`source`), which evaluate_amtc runs, and the graph
    with expands made from it (`graph`), derived the first time it is read."""

    source: Graph

    @cached_property
    def graph(self) -> Graph:
        graph = self.source  # spliced as insert_expansions describes
        matrix = compute_influence_matrix(graph)
        rows, signatures = matrix.rows, matrix.variable_signatures
        variables = list(graph.variables)
        operations: list[OperationNode] = []
        expanded: dict[tuple[int, Signature], int] = {}
        next_id = len(graph.variables) + len(graph.operations)

        for op in graph.order:
            target = rows[op.id]
            new_inputs = []
            for vid in op.inputs:
                source = signatures[vid]
                if source != target and (vid, target) not in expanded:
                    out_id = next_id + 1
                    operations.append(OperationNode(next_id, EXPAND, (vid,), out_id, None, target))
                    variables.append(VariableNode(out_id, f"_x{out_id}"))
                    expanded[vid, target] = out_id
                    next_id += 2
                new_inputs.append(vid if source == target else expanded[vid, target])
            new_inputs = tuple(new_inputs)
            if new_inputs != op.inputs:
                op = OperationNode(op.id, op.kind, new_inputs, op.output, op.exponent, op.expand_to)
            operations.append(op)

        return Graph(tuple(variables), tuple(operations),
                     graph.uncertain_inputs, graph.outputs, graph.output_names)


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
    holding an expand is refused with a ValueError.  In a model graph
    every operation's signature is the union of its inputs', so each
    expand inserted here widens its input to a superset.
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
    matrix = compute_influence_matrix(graph)
    input_names = [graph.variable_by_id[vid].name for vid, _ in graph.uncertain_inputs]
    lines = ["operation," + ",".join(input_names)]
    for op in graph.order:
        row = matrix.rows[op.id]
        cells = ["1" if axis in row else "0" for axis in range(graph.dim)]
        lines.append(f"{op.id}:{op.kind}," + ",".join(cells))
    return "\n".join(lines) + "\n"


def _size_label(n_axes: int) -> str:
    if n_axes == 0:
        return "1"
    if n_axes == 1:
        return "k"
    return f"k^{n_axes}"


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
    graph.order  # refuses a graph validate refuses
    signatures = (compute_influence_matrix(graph).variable_signatures
                  if transformed or graph.has_expansions() else {})
    lines = ["digraph model {", "  rankdir=TB;"]

    def var_decl(var: VariableNode) -> str:
        label = var.name
        if var.constant_value is not None:
            label = f"{var.name} = {var.constant_value:g}"
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
    for var in graph.variables:
        if var.id not in clustered:
            lines.append(var_decl(var))
    for op in graph.operations:
        if op.id not in clustered:
            lines.append(op_decl(op))

    for op in graph.operations:
        for vid in op.inputs:
            lines.append(f'  n{vid} -> n{op.id} [label="{_size_label(n_axes[vid])}"];')
        lines.append(f'  n{op.id} -> n{op.output} [label="{_size_label(n_axes[op.output])}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def scheduled_eval_counts(matrix: InfluenceMatrix, axis_sizes) -> dict[int, int]:
    """Evaluations each operation is scheduled for on a grid with the
    given per-axis sizes: the product of sizes over its signature."""
    sizes = tuple(int(s) for s in axis_sizes)
    return {op_id: math.prod(sizes[axis] for axis in signature)
            for op_id, signature in matrix.rows.items()}


def expansion_copies(graph: Graph, axis_sizes) -> int:
    """Elements the expands stand for on a grid of the given axis sizes: per
    (variable, reader signature) pair whose signatures differ, the product of
    sizes over the reader's.  A graph with those expands counts alike."""
    sizes = tuple(int(s) for s in axis_sizes)
    matrix = compute_influence_matrix(graph)
    crossings = {(vid, matrix.rows[op.id]) for op in graph.operations for vid in op.inputs
                 if matrix.variable_signatures[vid] != matrix.rows[op.id]}
    return sum(math.prod(sizes[axis] for axis in target) for _, target in crossings)
