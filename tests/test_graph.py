from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqc import (GraphBuilder, Normal, builtin_model, insert_expansions, parse_model_file, to_dot,
                 topo_sort, validate)
from uqc.errors import CycleError
from uqc.graph import Graph, OperationNode, VariableNode


def two_branch_graph():
    """cos(u1) and neg(u2) feed exp(neg(u2)) and a final add; the classic
    four-operation mixing example."""
    b = GraphBuilder()
    u1 = b.add_uncertain_input("u1", Normal(0, 1))
    u2 = b.add_uncertain_input("u2", Normal(0, 1))
    c = b.add_operation("cos", [u1])
    n = b.add_operation("neg", [u2])
    e = b.add_operation("exp", [n])
    f = b.add_operation("add", [c, e])
    b.mark_output(f, "f")
    return b.build()


def with_variable(g, var_id, **changes):
    return replace(g, variables=tuple(v._replace(**changes) if v.id == var_id else v
                                      for v in g.variables))


def with_operation(g, op_id, **changes):
    return replace(g, operations=tuple(op._replace(**changes) if op.id == op_id else op
                                       for op in g.operations))


class TestTopoSort:
    def test_four_op_order_with_fifo_tie_break(self):
        g = two_branch_graph()
        kinds = [g.operation_by_id[i].kind for i in topo_sort(g)]
        # cos and neg are both ready initially; the one listed first (cos) runs first
        assert kinds == ["cos", "neg", "exp", "add"]

    def test_ready_ties_break_by_position_not_id(self):
        # neg (id 4) is listed before cos (id 2); both are ready at once
        g = two_branch_graph()
        cos, neg, exp, add = g.operations
        reordered = Graph(g.variables, (neg, cos, exp, add), g.uncertain_inputs, g.outputs,
                          g.output_names)
        assert topo_sort(reordered) == [neg.id, cos.id, exp.id, add.id]
        assert reordered.order == (neg, cos, exp, add)

    def test_single_operation(self):
        b = GraphBuilder()
        x = b.add_uncertain_input("x", Normal(0, 1))
        out = b.add_operation("sin", [x])
        b.mark_output(out, "f")
        g = b.build()
        assert topo_sort(g) == [g.operations[0].id]

    def test_cycle_raises(self):
        # two operations wired into each other, built by hand
        variables = (
            VariableNode(0, "a"),
            VariableNode(1, "b"),
        )
        operations = (
            OperationNode(2, "neg", (1,), 0),
            OperationNode(3, "neg", (0,), 1),
        )
        g = Graph(variables, operations, (), (), ())
        with pytest.raises(CycleError) as excinfo:
            topo_sort(g)
        assert excinfo.value.node_id in (2, 3)

    @pytest.mark.parametrize("name", ["simple", "piston", "multipoint"])
    def test_edge_order_property(self, name):
        g = builtin_model(name)
        order = topo_sort(g)
        assert len(order) == len(g.operations)
        position = {op_id: i for i, op_id in enumerate(order)}
        for op in g.operations:
            for vid in op.inputs:
                if vid in g.producer_of:
                    assert position[g.producer_of[vid]] < position[op.id]

    @pytest.mark.parametrize("name", ["simple", "piston", "multipoint"])
    def test_deterministic(self, name):
        assert topo_sort(builtin_model(name)) == topo_sort(builtin_model(name))


def kahn_reference(graph):
    """Operation ids in evaluation order: repeatedly run the first-listed
    operation whose inputs' producers (the last-listed one of a variable
    written twice; an operation reading its own output does not wait for
    itself) have all run.  Raises CycleError naming the least id left."""
    operations = graph.operations
    producer = {op.output: position for position, op in enumerate(operations)}
    waits_on = [{producer[v] for v in op.inputs if v in producer} - {position}
                for position, op in enumerate(operations)]
    done: list[int] = []
    while len(done) < len(operations):
        ready = [p for p in range(len(operations)) if p not in done and waits_on[p] <= set(done)]
        if not ready:
            raise CycleError(min(op.id for p, op in enumerate(operations) if p not in done))
        done.append(ready[0])
    return [operations[p].id for p in done]


@st.composite
def operation_lists(draw):
    """Operations over 1-3 input variables (ids 0-2), each writing a fresh
    variable (ids 10+) and reading earlier ones, listed in order, shuffled,
    or edited to hold a self-loop, a variable with two producers or a
    two-operation cycle."""
    n_inputs = draw(st.integers(1, 3))
    n_ops = draw(st.integers(0, 9))
    readable = list(range(n_inputs))
    specs = []
    for i in range(n_ops):
        specs.append([draw(st.lists(st.sampled_from(readable), min_size=1, max_size=2)), 10 + i])
        readable.append(10 + i)
    form = draw(st.sampled_from(["ordered", "shuffled", "self-loop", "two producers", "cycle"]))
    if form != "ordered" and n_ops >= 2:
        i, j = sorted(draw(st.lists(st.integers(0, n_ops - 1), min_size=2, max_size=2,
                                    unique=True)))
        if form == "self-loop":
            specs[j][0] = specs[j][0][:1] + [specs[j][1]]
        elif form == "two producers":
            specs[j][1] = specs[i][1]
        elif form == "cycle":
            specs[i][0] = [specs[j][1]]
            specs[j][0] = [specs[i][1]]
        if draw(st.booleans()) or form == "shuffled":
            specs = draw(st.permutations(specs))
    operations = tuple(OperationNode(100 + position, "add" if len(reads) == 2 else "neg",
                                     tuple(reads), output)
                       for position, (reads, output) in enumerate(specs))
    return Graph((), operations, (), (), ())


@settings(max_examples=200, deadline=None)
@given(operation_lists())
def test_topo_sort_equals_kahn(graph):
    try:
        expected = kahn_reference(graph)
    except CycleError as exc:
        with pytest.raises(CycleError) as excinfo:
            topo_sort(graph)
        assert excinfo.value.node_id == exc.node_id
    else:
        assert topo_sort(graph) == expected


class TestValidate:
    @pytest.mark.parametrize("name", ["simple", "piston", "multipoint"])
    def test_builtins_are_valid(self, name):
        assert validate(builtin_model(name)) == []

    @pytest.mark.parametrize("name", ["simple", "piston", "multipoint", "sep6"])
    def test_models_and_their_transforms_are_valid(self, name):
        if name == "sep6":
            g = parse_model_file(Path(__file__).parent.parent / "perfbench" / "sep6.uq")
        else:
            g = builtin_model(name)
        assert validate(g) == validate(insert_expansions(g).graph) == []

    def test_missing_variable_reference(self):
        g = two_branch_graph()
        bad_op = OperationNode(99, "sin", (1234,), g.operations[0].output)
        problems = validate(replace(g, operations=g.operations[1:] + (bad_op,)))
        assert any("missing variable 1234" in p for p in problems)

    def test_multiple_producers(self):
        g = two_branch_graph()
        first = g.operations[0]
        dup = OperationNode(first.id, "sin", first.inputs, first.output)
        problems = validate(replace(g, operations=g.operations + (dup,)))
        assert any("multiple producers" in p for p in problems)

    def test_arity_violation(self):
        g = two_branch_graph()
        ops = list(g.operations)
        ops[-1] = OperationNode(ops[-1].id, "add", ops[-1].inputs[:1], ops[-1].output)
        problems = validate(replace(g, operations=tuple(ops)))
        assert any("expected 2" in p for p in problems)

    def test_repeated_output(self):
        b = GraphBuilder()
        y = b.add_operation("sin", [b.add_uncertain_input("x", Normal(0, 1))])
        b.mark_output(y, "f")
        b.mark_output(y, "g")
        assert validate(b.build()) == [f"variable {y} is listed more than once in outputs"]

    @pytest.mark.parametrize("output_names, problem", [
        ((), "0 output names for 1 outputs"),
        (("f", "g"), "2 output names for 1 outputs"),
    ])
    def test_one_name_per_output(self, output_names, problem):
        g = two_branch_graph()
        assert validate(replace(g, output_names=output_names)) == [problem]

    def test_repeated_output_name(self):
        b = GraphBuilder()
        x = b.add_uncertain_input("x", Normal(0, 1))
        b.mark_output(x, "f")
        b.mark_output(b.add_operation("sin", [x]), "f")
        assert validate(b.build()) == ["output names are not distinct"]

    # two_branch_graph: inputs 0 and 1; cos 2 -> 3, neg 4 -> 5, exp 6 -> 7, add 8 -> 9
    @pytest.mark.parametrize("edit, problems", [
        (lambda g: replace(g, variables=g.variables + (VariableNode(8, "z", 1.0),)),
         ["variable and operation ids overlap"]),
        (lambda g: with_variable(g, 0, constant_value=1.0),
         ["variable 0 has 2 roles: uncertain input, constant"]),
        (lambda g: with_operation(g, 2, output=99),
         ["operation 2 writes missing variable 99", "variable 3 has no role"]),
        (lambda g: with_variable(g, 3, constant_value=1.0),
         ["variable 3 has 2 roles: constant, operation output"]),
        (lambda g: replace(g, variables=g.variables + (VariableNode(10, "z"),)),
         ["variable 10 has no role"]),
        (lambda g: with_operation(g, 2, kind="tanh"),
         ["operation 2 has unknown kind 'tanh'"]),
        (lambda g: with_operation(g, 2, exponent=2.0),
         ["operation 2: exponent present iff kind is pow_const"]),
        (lambda g: with_operation(g, 2, kind="expand"),
         ["operation 2: expand_to present iff kind is expand"]),
        (lambda g: with_operation(g, 2, expand_to=(0,)),
         ["operation 2: expand_to present iff kind is expand"]),
        (lambda g: replace(g, uncertain_inputs=g.uncertain_inputs + ((99, Normal(0, 1)),)),
         ["uncertain input references missing variable 99"]),
        (lambda g: replace(g, uncertain_inputs=g.uncertain_inputs + ((3, Normal(0, 1)),)),
         ["variable 3 has 2 roles: uncertain input, operation output"]),
        (lambda g: replace(g, uncertain_inputs=g.uncertain_inputs[:1]),
         ["variable 1 has no role"]),
        (lambda g: replace(g, uncertain_inputs=g.uncertain_inputs + g.uncertain_inputs[:1]),
         ["variable 0 has 2 roles: uncertain input, uncertain input"]),
        (lambda g: replace(g, outputs=(99,)),
         ["outputs reference missing variable 99"]),
        (lambda g: with_operation(g, 2, inputs=(9,)),  # cos reads add's output
         ["graph contains a cycle through node 2"]),
    ])
    def test_each_violation_is_named(self, edit, problems):
        assert validate(edit(two_branch_graph())) == problems

    def test_valid_implies_sortable(self):
        g = two_branch_graph()
        assert validate(g) == []
        topo_sort(g)  # must not raise


class TestDotExport:
    def test_shapes_and_labels(self):
        g = two_branch_graph()
        dot = to_dot(g)
        assert dot.count("shape=ellipse") == len(g.variables)
        assert dot.count("shape=box") == len(g.operations)
        assert 'label="k^2"' in dot  # two uncertain inputs -> full size k^2
