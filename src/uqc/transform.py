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

After the transformation every operation's inputs carry exactly the
operation's own signature, so each operation can be evaluated once per
distinct point of its own subspace.  Removing the expand nodes and
re-splicing producers to consumers recovers the original graph.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import InternalError
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
    """Forward dependency pass in topological order.

    Uncertain input j has signature {j}, constants have the empty
    signature, and every operation takes the union of its input
    signatures; the operation's output variable inherits that union.
    """
    variable_signatures: dict[int, Signature] = {}
    for axis, (vid, _) in enumerate(graph.uncertain_inputs):
        variable_signatures[vid] = (axis,)
    for var in graph.variables:
        if var.kind == "constant":
            variable_signatures[var.id] = ()

    rows: dict[int, Signature] = {}
    for op in graph.order:
        if op.kind == EXPAND:
            signature = op.expand_to
        else:
            signature: Signature = ()
            for vid in op.inputs:
                signature = signature_union(signature, variable_signatures[vid])
        rows[op.id] = signature
        variable_signatures[op.output] = signature
    return InfluenceMatrix(rows, variable_signatures)


@dataclass(frozen=True)
class Partition:
    """Operations grouped by shared dependency signature."""

    groups: dict[Signature, frozenset[int]]


def partition_operations(matrix: InfluenceMatrix) -> Partition:
    groups: dict[Signature, set[int]] = {}
    for op_id, signature in matrix.rows.items():
        groups.setdefault(signature, set()).add(op_id)
    return Partition({sig: frozenset(ops) for sig, ops in groups.items()})


@dataclass(frozen=True)
class TransformedGraph:
    graph: Graph
    partition: Partition
    signature_of: dict[int, Signature]


def insert_expansions(graph: Graph, matrix: InfluenceMatrix | None = None) -> TransformedGraph:
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
    first reader.  topo_sort keeps that order, so a transformed graph
    runs its original operations in the same relative order as the
    untransformed one, and both grid engines meet out-of-domain values
    at the same operation first.
    """
    if matrix is None:
        matrix = compute_influence_matrix(graph)

    variables = list(graph.variables)
    operations: list[OperationNode] = []
    signature_of = dict(matrix.variable_signatures)
    expanded: dict[tuple[int, Signature], int] = {}
    next_id = len(graph.variables) + len(graph.operations)

    for op in graph.order:
        target = matrix.rows[op.id]
        new_inputs = []
        for vid in op.inputs:
            source = signature_of[vid]
            if source == target:
                new_inputs.append(vid)
                continue
            if not signature_is_subset(source, target):
                raise InternalError(
                    f"variable {vid} signature {source} is not a subset of "
                    f"operation {op.id} signature {target}")
            key = (vid, target)
            if key not in expanded:
                expand_id = next_id
                out_id = next_id + 1
                next_id += 2
                operations.append(OperationNode(
                    expand_id, EXPAND, (vid,), out_id,
                    expand_from=source, expand_to=target))
                variables.append(VariableNode(out_id, f"_x{out_id}", "intermediate"))
                signature_of[out_id] = target
                expanded[key] = out_id
            new_inputs.append(expanded[key])
        operations.append(replace(op, inputs=tuple(new_inputs)))

    transformed = Graph(tuple(variables), tuple(operations),
                        graph.uncertain_inputs, graph.outputs)
    return TransformedGraph(transformed, partition_operations(matrix), signature_of)


def strip_expansions(graph: Graph) -> Graph:
    """Delete expand nodes, splicing each producer back to its consumers.

    Inverse of insert_expansions up to node identity: applying it to a
    transformed graph returns a graph equal to the original.
    """
    redirect = {op.output: op.inputs[0] for op in graph.operations if op.kind == EXPAND}

    def resolve(vid: int) -> int:
        while vid in redirect:
            vid = redirect[vid]
        return vid

    operations = tuple(
        replace(op, inputs=tuple(resolve(v) for v in op.inputs))
        for op in graph.operations if op.kind != EXPAND)
    variables = tuple(v for v in graph.variables if v.id not in redirect)
    outputs = tuple(resolve(v) for v in graph.outputs)
    return Graph(variables, operations, graph.uncertain_inputs, outputs)


def influence_matrix_to_csv(graph: Graph, matrix: InfluenceMatrix | None = None) -> str:
    """0/1 table of operations (rows) versus uncertain inputs (columns)."""
    if matrix is None:
        matrix = compute_influence_matrix(graph)
    input_names = [graph.variable_by_id[vid].name for vid, _ in graph.uncertain_inputs]
    lines = ["operation," + ",".join(input_names)]
    for op in graph.order:
        row = matrix.rows[op.id]
        cells = ["1" if axis in row else "0" for axis in range(graph.dim)]
        lines.append(f"{op.id}:{op.kind}," + ",".join(cells))
    return "\n".join(lines) + "\n"


def scheduled_eval_counts(matrix: InfluenceMatrix, axis_sizes) -> dict[int, int]:
    """Evaluations each operation is scheduled for on a grid with the
    given per-axis sizes: the product of sizes over its signature."""
    sizes = tuple(int(s) for s in axis_sizes)
    counts = {}
    for op_id, signature in matrix.rows.items():
        count = 1
        for axis in signature:
            count *= sizes[axis]
        counts[op_id] = count
    return counts
