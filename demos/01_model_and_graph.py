"""Parse a small model into its computational graph and look around.

A model is a handful of declarations and expressions; the parser lowers
every expression into elementary operations (one graph node each), so the
graph is the model seen the way a compiler sees it.
"""

import uqc

source = """\
# cycle through a couple of elementary functions
input u1 ~ Normal(0, 1)
input u2 ~ Normal(0, 1)
output f = cos(u1) + exp(-u2)
"""

graph = uqc.parse_model(source)

# A variable's role is where the graph states it: the uncertain-input
# list, its own constant value, or the operation that writes it.
distribution_of = dict(graph.uncertain_inputs)
print("variables:")
for var in graph.variables:
    if var.id in distribution_of:
        role = f"uncertain input ~ {distribution_of[var.id]}"
    elif var.constant_value is not None:
        role = f"constant = {var.constant_value}"
    else:
        role = f"written by operation {graph.producer_of[var.id]}"
    print(f"  [{var.id}] {var.name} ({role})")

print("\noperations (id, kind, inputs -> output):")
for op in graph.operations:
    print(f"  [{op.id}] {op.kind} {op.inputs} -> {op.output}")

print("\nevaluation order:", uqc.topo_sort(graph))
print("structural problems:", uqc.validate(graph) or "none")

print("\nsingle-point value at (0, 0):", uqc.evaluate_single_point(graph, [0.0, 0.0]))

print("\npretty-printed back to source:")
print(uqc.pretty_print(graph))

again = uqc.parse_model(uqc.pretty_print(graph))
print("round trip is isomorphic:", uqc.isomorphic(graph, again))

print("\nDOT rendering (pipe into `dot -Tpng`):\n")
print(uqc.to_dot(graph))
