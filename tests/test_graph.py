from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from uqc import (GraphBuilder, Normal, TransformedGraph, builtin_model,
                 compute_influence_matrix, evaluate_amtc, evaluate_naive, evaluate_on_samples,
                 evaluate_single_point, grid_for, influence_matrix_to_csv,
                 insert_expansions, isomorphic, parse_model, parse_model_file, pretty_print,
                 scheduled_eval_counts, to_dot, topo_sort, validate)
from uqc.errors import CycleError
from uqc.graph import Graph, OperationNode, VariableNode
from uqc.transform import expansion_copies


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


def sin_times_y(expand_to=None):
    """f = sin(x) * y: inputs 0 and 1; sin 2 -> 3, then mul 4 -> 5, or with
    expand_to, expand 4 -> 5 of sin's result and mul 6 -> 7."""
    b = GraphBuilder()
    x = b.add_uncertain_input("x", Normal(0, 1))
    y = b.add_uncertain_input("y", Normal(0, 1))
    t = b.add_operation("sin", [x])
    if expand_to is not None:
        t = b.add_operation("expand", [t], expand_to=expand_to)
    b.mark_output(b.add_operation("mul", [t, y]), "f")
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
        # the operations run in the order the graph lists them
        assert kinds == ["cos", "neg", "exp", "add"]

    def test_ready_ties_break_by_position_not_id(self):
        # neg (id 4) is listed before cos (id 2), and runs first
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
        assert excinfo.value.node_id == 2  # the first listed reader of a later write

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


def first_early_reader(operations):
    """Id of the first listed operation that reads a variable written by
    itself or by a later-listed operation; None if every read follows
    every write of its variable."""
    for position, op in enumerate(operations):
        if any(later.output in op.inputs for later in operations[position:]):
            return op.id
    return None


@st.composite
def listed_operations(draw):
    """Operations over 1-3 input variables (ids 0-2), each writing a fresh
    variable (ids 10+) and reading earlier ones, listed in order, shuffled,
    or edited to hold a self-read, a variable with two producers or a
    two-operation cycle, and then perhaps shuffled."""
    n_inputs = draw(st.integers(1, 3))
    n_ops = draw(st.integers(0, 9))
    readable = list(range(n_inputs))
    specs = []
    for i in range(n_ops):
        specs.append([draw(st.lists(st.sampled_from(readable), min_size=1, max_size=2)), 10 + i])
        readable.append(10 + i)
    form = draw(st.sampled_from(["ordered", "shuffled", "self-read", "two producers", "cycle"]))
    if form != "ordered" and n_ops >= 2:
        i, j = sorted(draw(st.lists(st.integers(0, n_ops - 1), min_size=2, max_size=2,
                                    unique=True)))
        if form == "self-read":
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
@given(listed_operations())
def test_topo_sort_returns_the_list_or_names_its_first_early_reader(graph):
    reader = first_early_reader(graph.operations)
    if reader is None:
        assert topo_sort(graph) == [op.id for op in graph.operations]
    else:
        with pytest.raises(CycleError) as excinfo:
            topo_sort(graph)
        assert excinfo.value.node_id == reader


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
         ["operation 2 reads a variable written by itself or by a later-listed operation"]),
    ])
    def test_each_violation_is_named(self, edit, problems):
        assert validate(edit(two_branch_graph())) == problems

    @pytest.mark.parametrize("expand_to", [(0, 5), (1, 0, 0), (1, 0), (0, 0), (-1, 0), ()])
    def test_expand_to_is_ascending_distinct_axes(self, expand_to):
        g = sin_times_y(expand_to)
        problem = (f"operation 4: expand_to {expand_to} is not an ascending tuple of "
                   f"distinct axes in 0..1")
        if expand_to == ():  # ascending, but sin(x) depends on axis 0
            problem = "operation 4: expand_to () leaves out an axis of its input's signature (0,)"
        assert validate(g) == [problem]

    @pytest.mark.parametrize("expand_to, problems", [
        ((0,), []),
        ((0, 1), []),
        ((1,), ["operation 4: expand_to (1,) leaves out an axis of its input's "
                "signature (0,)"]),
    ])
    def test_expand_to_contains_its_input_signature(self, expand_to, problems):
        assert validate(sin_times_y(expand_to)) == problems

    def test_expand_that_narrows_a_product_is_named(self):
        # t = x*y; e = expand(t, expand_to=(0,)); f = sin(e)
        b = GraphBuilder()
        x = b.add_uncertain_input("x", Normal(0, 1))
        y = b.add_uncertain_input("y", Normal(0, 1))
        e = b.add_operation("expand", [b.add_operation("mul", [x, y])], expand_to=(0,))
        b.mark_output(b.add_operation("sin", [e]), "f")
        assert validate(b.build()) == [
            "operation 4: expand_to (0,) leaves out an axis of its input's signature (0, 1)"]

    def test_bad_expand_to_is_refused_by_the_signature_passes(self):
        g = sin_times_y((0, 5))
        for run in (lambda: scheduled_eval_counts(compute_influence_matrix(g), (2, 2)),
                    lambda: expansion_copies(g, (2, 2)),
                    lambda: to_dot(TransformedGraph(g))):
            with pytest.raises(ValueError, match=r"^operation 4: expand_to \(0, 5\) is not "):
                run()

    def test_valid_implies_sortable(self):
        g = two_branch_graph()
        assert validate(g) == []
        topo_sort(g)  # must not raise


# Every pass and engine reads Graph.order, which refuses a graph validate
# refuses with validate's messages.
READERS = {
    "evaluate_naive": lambda g: evaluate_naive(g, grid_for(g.distributions, 3)),
    "evaluate_amtc": lambda g: evaluate_amtc(insert_expansions(g), grid_for(g.distributions, 3)),
    "evaluate_on_samples": lambda g: evaluate_on_samples(g, np.zeros((3, g.dim))),
    "evaluate_on_no_samples": lambda g: evaluate_on_samples(g, np.zeros((0, g.dim))),
    "evaluate_single_point": lambda g: evaluate_single_point(g, np.zeros(g.dim)),
    "pretty_print": pretty_print,
    "compute_influence_matrix": compute_influence_matrix,
    "influence_matrix_to_csv": influence_matrix_to_csv,
    "insert_expansions": lambda g: insert_expansions(g).graph,
    "to_dot": to_dot,
    "Graph.stages": lambda g: g.stages,
}


def writes_an_input_graph():
    """t = sin(x); f = t * y, with sin writing y in place of t."""
    return Graph((VariableNode(0, "x"), VariableNode(1, "y"), VariableNode(4, "f")),
                 (OperationNode(2, "sin", (0,), 1), OperationNode(3, "mul", (1, 1), 4)),
                 ((0, Normal(0, 1)), (1, Normal(0, 1))), (4,), ("f",))


def inf_constant_graph():
    b = GraphBuilder()
    x = b.add_uncertain_input("x", Normal(0, 1))
    b.mark_output(b.add_operation("mul", [x, b.add_constant(np.inf, "c")]), "f")
    return b.build()


def two_producers_graph():
    """f = t * y with t = sin(x), and cos(x) rewired to write t as well."""
    b = GraphBuilder()
    x = b.add_uncertain_input("x", Normal(0, 1))
    y = b.add_uncertain_input("y", Normal(0, 1))
    t = b.add_operation("sin", [x])
    b.add_operation("cos", [x])
    b.mark_output(b.add_operation("mul", [t, y]), "f")
    return with_operation(b.build(), 4, output=t)


# sin_times_y: inputs 0 and 1; sin 2 -> 3, mul 4 -> 5
REFUSED = {
    "writes-an-uncertain-input": writes_an_input_graph,
    "output-listed-twice": lambda: replace(sin_times_y(), outputs=(5, 5),
                                           output_names=("f", "g")),
    "two-producers": two_producers_graph,
    "ids-not-dense": lambda: replace(sin_times_y(), variables=sin_times_y().variables
                                     + (VariableNode(7, "c", 1.0),)),
    "unknown-kind": lambda: with_operation(sin_times_y(), 2, kind="tanh"),
    "inf-constant": inf_constant_graph,
    "bad-expand_to": lambda: sin_times_y((0, 5)),
    "narrowing-expand": lambda: sin_times_y((1,)),
}


class TestRefusedAlike:
    @pytest.mark.parametrize("read", READERS.values(), ids=READERS)
    @pytest.mark.parametrize("build", REFUSED.values(), ids=REFUSED)
    def test_every_reader_refuses_what_validate_refuses(self, build, read):
        g = build()
        problems = validate(g)
        assert problems
        with pytest.raises(ValueError) as excinfo:
            read(g)
        assert str(excinfo.value) == "; ".join(problems)
        assert not isomorphic(g, g)


class TestOperandWithoutRole:
    @pytest.mark.parametrize("read", READERS.values(), ids=READERS)
    def test_variable_with_no_role(self, read):
        simple = builtin_model("simple")
        bad = replace(simple, uncertain_inputs=simple.uncertain_inputs[:1])
        with pytest.raises(ValueError, match="^variable 1 has no role$"):
            read(bad)

    @pytest.mark.parametrize("read", READERS.values(), ids=READERS)
    def test_id_that_names_no_variable(self, read):
        bad = with_operation(two_branch_graph(), 2, inputs=(99,))
        with pytest.raises(ValueError, match="^operation 2 reads missing variable 99$"):
            read(bad)

    @pytest.mark.parametrize("read", READERS.values(), ids=READERS)
    def test_output_with_no_role(self, read):
        g = two_branch_graph()
        bad = replace(g, variables=g.variables + (VariableNode(10, "z"),),
                      outputs=g.outputs + (10,), output_names=g.output_names + ("z",))
        with pytest.raises(ValueError, match="^variable 10 has no role$"):
            read(bad)


def self_read_graph():
    """t = sin(x); output f = t * x, with the mul made to read its own
    output (f * x)."""
    g = parse_model("input x ~ Normal(0, 1)\nt = sin(x)\noutput f = t * x\n")
    sin, mul = g.operations
    return with_operation(g, mul.id, inputs=(mul.output, mul.inputs[1])), mul.id


class TestSelfRead:
    def test_validate_names_the_operation(self):
        g, mul_id = self_read_graph()
        assert validate(g) == [f"operation {mul_id} reads a variable written by itself "
                               f"or by a later-listed operation"]

    @pytest.mark.parametrize("read", READERS.values(), ids=READERS)
    def test_every_reader_refuses_it(self, read):
        g, mul_id = self_read_graph()
        with pytest.raises(CycleError) as excinfo:
            read(g)
        assert excinfo.value.node_id == mul_id


# t = x * y has signature (0, 1), which an expand to (0,) narrows; in each
# list, operation 2 reads a variable a later-listed operation writes.
EARLY_READ_NARROWING = {
    "expand_reads_it": (OperationNode(2, "expand", (5,), 3, None, (0,)),
                        OperationNode(4, "mul", (0, 1), 5),
                        OperationNode(6, "sin", (3,), 7)),
    "expand_is_fed_by_it": (OperationNode(2, "sin", (7,), 3),
                            OperationNode(4, "expand", (3,), 5, None, (0,)),
                            OperationNode(6, "mul", (0, 1), 7),
                            OperationNode(8, "cos", (5,), 9)),
    "expand_writes_it": (OperationNode(2, "sin", (7,), 3),
                         OperationNode(4, "mul", (0, 1), 5),
                         OperationNode(6, "expand", (5,), 7, None, (0,))),
}


def early_read_narrowing_graph(name):
    operations = EARLY_READ_NARROWING[name]
    written = [op.output for op in operations]
    return Graph((VariableNode(0, "x"), VariableNode(1, "y"),
                  *(VariableNode(vid, f"v{vid}") for vid in sorted(written))),
                 operations, ((0, Normal(0, 1)), (1, Normal(0, 1))), (written[-1],), ("f",))


class TestEarlyReadNearANarrowingExpand:
    # The walk that checks a graph derives its signature masks before it is
    # known to be in evaluation order; a read before its write still wins.
    @pytest.mark.parametrize("name", EARLY_READ_NARROWING)
    def test_validate_names_only_the_read(self, name):
        assert validate(early_read_narrowing_graph(name)) == [
            "operation 2 reads a variable written by itself or by a later-listed operation"]

    @pytest.mark.parametrize("name", EARLY_READ_NARROWING)
    def test_order_raises_cycle_error(self, name):
        with pytest.raises(CycleError) as excinfo:
            early_read_narrowing_graph(name).order
        assert excinfo.value.node_id == 2


EVALUATORS = {name: READERS[name] for name in
              ("evaluate_naive", "evaluate_amtc", "evaluate_on_samples", "evaluate_single_point")}


class TestPlanRefusesWhatValidateFaults:
    @staticmethod
    def faulted(kind, inputs, **fields):
        b = GraphBuilder()
        x = b.add_uncertain_input("x", Normal(0, 1))
        b.mark_output(b.add_operation(kind, [x] * inputs, **fields), "f")
        g = b.build()
        return g, g.operations[0].id

    @pytest.mark.parametrize("evaluate", EVALUATORS.values(), ids=EVALUATORS)
    def test_unary_operation_with_two_inputs(self, evaluate):
        g, op_id = self.faulted("sin", 2)
        with pytest.raises(ValueError, match=rf"^operation {op_id} \(sin\) has 2 inputs, "
                                             rf"expected 1$"):
            evaluate(g)

    @pytest.mark.parametrize("evaluate", EVALUATORS.values(), ids=EVALUATORS)
    def test_pow_const_without_exponent(self, evaluate):
        g, op_id = self.faulted("pow_const", 1)
        with pytest.raises(ValueError, match=rf"^operation {op_id}: exponent present iff "
                                             rf"kind is pow_const$"):
            evaluate(g)

    @pytest.mark.parametrize("evaluate", EVALUATORS.values(), ids=EVALUATORS)
    def test_elementary_operation_with_expand_to(self, evaluate):
        g, op_id = self.faulted("sin", 1, expand_to=(0,))
        assert validate(g) == [f"operation {op_id}: expand_to present iff kind is expand"]
        with pytest.raises(ValueError, match=rf"^operation {op_id}: expand_to present iff "
                                             rf"kind is expand$"):
            evaluate(g)


class TestDotExport:
    def test_shapes_and_labels(self):
        g = two_branch_graph()
        dot = to_dot(g)
        assert dot.count("shape=ellipse") == len(g.variables)
        assert dot.count("shape=box") == len(g.operations)
        assert 'label="k^2"' in dot  # two uncertain inputs -> full size k^2


class TestStages:
    def test_each_operation_runs_in_the_stage_of_its_highest_axis(self):
        # seg1 reads v1 only, so stage 0 runs it and hands it on in vector
        # 0; stage 1 runs seg2 and the sum, whose output takes vector 0 over
        g = builtin_model("multipoint")
        (first, second), vectors = g.stages
        signatures = g.signatures
        assert vectors == 1
        assert {signatures[step.op.output] for step in first.steps} == {(0,)}
        assert {max(signatures[step.op.output]) for step in second.steps} == {1}
        seg1 = first.steps[-1].op.output
        assert first.hands_on == ((seg1, 0),) and second.hands_on == ((g.outputs[0], 0),)
        assert (first.draw_into, second.draw_into) == (None, None)
        assert all(seg1 not in step.release for step in first.steps + second.steps)

    def test_one_stage_is_the_plan(self):
        for source in ("input x ~ Normal(0, 1)\nt = sin(x)\noutput f = t * x + 2\n",
                       "param c = 2\nt = c * 3\noutput f = t + c\n"):
            g = parse_model(source)
            (stage,), vectors = g.stages
            assert stage.steps == g.plan and vectors == 1
            assert stage.draw_into is None and stage.hands_on == ((g.outputs[0], 0),)

    def test_constants_only_are_handed_on_as_they_are(self):
        # t reads constants only: stage 0 runs it and hands on its value
        g = parse_model("input x ~ Normal(0, 1)\ninput y ~ Normal(0, 1)\n"
                        "t = cos(1.5)\noutput f = sin(x) + y * t\n")
        (first, second), vectors = g.stages
        t = first.steps[0].op.output
        assert first.steps[0].op.kind == "cos" and (t, None) in first.hands_on
        assert vectors == 1

    def test_a_first_output_a_later_stage_reads_is_handed_on_in_vector_0(self):
        # t0 is made in stage 0 and read by stage 1: it is handed on in the
        # output's own vector, so the plan holds 1 vector and stays staged
        g = parse_model("input x0 ~ Normal(0, 1)\ninput x1 ~ Normal(0, 1)\n"
                        "t0 = sin(x0)\nt1 = t0 * x1\noutput o0 = t0\noutput o1 = t1\n")
        (first, second), vectors = g.stages
        t0 = g.outputs[0]
        assert vectors == 1
        assert [step.op.kind for step in first.steps] == ["sin"]
        assert [step.op.kind for step in second.steps] == ["mul"]
        assert first.hands_on == ((t0, 0),) and second.hands_on == ()
        assert (first.draw_into, second.draw_into) == (None, None)

    def test_an_input_first_output_a_later_stage_reads_is_drawn_into_vector_0(self):
        # x0 is drawn straight into the output's vector, which is never
        # freed, and copied nowhere: t1, made in stage 1 and read by stage
        # 2, takes the one other vector.  With two inputs the one vector
        # keeps the plan staged.
        g = parse_model("input x0 ~ Normal(0, 1)\ninput x1 ~ Normal(0, 1)\n"
                        "input x2 ~ Normal(0, 1)\nt1 = x0 * x1\nt2 = t1 * x2\n"
                        "output o0 = x0\noutput o1 = t2\n")
        (first, second, third), vectors = g.stages
        t1 = second.steps[0].op.output
        assert vectors == 2
        assert (first.draw_into, second.draw_into, third.draw_into) == (0, None, None)
        assert (first.hands_on, second.hands_on, third.hands_on) == ((), ((t1, 1),), ())
        g = parse_model("input x0 ~ Normal(0, 1)\ninput x1 ~ Normal(0, 1)\n"
                        "t1 = x0 * x1\noutput o0 = x0\noutput o1 = t1\n")
        (first, second), vectors = g.stages
        assert vectors == 1 and first.draw_into == 0
        assert (first.hands_on, second.hands_on) == ((), ())

    def test_more_vectors_than_the_leading_inputs_run_everything_last(self):
        # run early, sin(x1), cos(x1) and exp(x1) would be held whole for
        # stage 1: 3 vectors against 1, so stage 1 runs every operation and
        # x1 is drawn whole into the vector the output takes over
        g = parse_model("input x1 ~ Normal(0, 1)\ninput x2 ~ Normal(0, 1)\n"
                        "output f = sin(x1)*x2 + cos(x1)*x2 + exp(x1)*x2\n")
        (first, second), vectors = g.stages
        assert vectors == 1 and first.steps == ()
        assert [step.op for step in second.steps] == [step.op for step in g.plan]
        assert first.draw_into == 0 and second.hands_on == ((g.outputs[0], 0),)

