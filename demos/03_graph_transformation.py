"""The dependency-signature transformation, step by step.

On a full tensor grid, an operation that depends on only one of two inputs
takes just k distinct values among the k^2 grid points.  The pass below
computes each operation's dependency signature, groups operations that
share one, and splices broadcast (`expand`) nodes into the crossing edges,
after which every operation runs only on its own distinct points.
"""

import uqc

graph = uqc.builtin_model("simple")

print("== influence matrix (operations x uncertain inputs) ==")
print(uqc.influence_matrix_to_csv(graph))

matrix = uqc.compute_influence_matrix(graph)
groups = uqc.partition_operations(matrix)
print("== sub-graphs by shared signature ==")
for signature, ops in sorted(groups.items()):
    kinds = [graph.operation_by_id[op_id].kind for op_id in sorted(ops)]
    print(f"  signature {str(signature):12s} operations {kinds}")

transformed = uqc.insert_expansions(graph)
expands = [op for op in transformed.graph.operations if op.kind == "expand"]
print(f"\ninserted {len(expands)} expand nodes (source signature -> target):")
for op in expands:
    source = matrix.variable_signatures[op.inputs[0]]
    print(f"  variable {op.inputs[0]}: {source} -> {op.expand_to}")

print("\nremoving them recovers the original graph:",
      uqc.strip_expansions(transformed.graph) == graph)

print("\n== scheduled evaluations per grid size ==")
n_ops = graph.elementary_operation_count()
print(" k   naive (4k^2)   transformed (k^2+3k)   reduction")
for k in range(2, 9):
    scheduled = sum(uqc.scheduled_eval_counts(matrix, (k, k)).values())
    naive = n_ops * k * k
    print(f"{k:2d}   {naive:12d}   {scheduled:20d}   {1 - scheduled / naive:9.1%}")

print("\nthe same structure on the piston model (3 inputs, 30 operations):")
piston = uqc.builtin_model("piston")
piston_matrix = uqc.compute_influence_matrix(piston)
for axis, (vid, _) in enumerate(piston.uncertain_inputs):
    dependent = sum(1 for sig in piston_matrix.rows.values() if axis in sig)
    name = piston.variable_by_id[vid].name
    print(f"  input {name:3s} influences {dependent}/{len(piston_matrix.rows)} operations")
for k in (3, 5, 7):
    scheduled = sum(uqc.scheduled_eval_counts(piston_matrix, (k,) * 3).values())
    naive = piston.elementary_operation_count() * k ** 3
    print(f"  k={k}: {naive} naive vs {scheduled} scheduled -> {1 - scheduled / naive:.1%} saved")
