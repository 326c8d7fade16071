"""Differential property tests over generated models, and that the transform lists its output in evaluation
order.

The four evaluators (transformed grid engine, naive grid engine, sample
evaluator, single-point interpreter) must agree bit for bit on every
well-formed model, and the transformed engine must do exactly the work the
dependency schedule predicts.  Models are random straight-line programs
over 1-3 inputs whose forms stay inside every operation's domain, so all
elementary kinds appear without raising DomainError; one form reads a
value through an expand both before and after the value's last direct
reader.  A second family adds forms that may leave their domain or
overflow; on those the grid engines and the sample evaluator must raise
the same DomainError (operation, point and reason), or none.  Both
properties are checked again with the aligned-vector engines cut into
blocks of 1-7 points, so that a grid of at most 125 points crosses block
boundaries.  A third property checks that
the transform, the structural validator and the printer round-trip the
generated models.

Differential testing: McKeeman, "Differential testing for software", 1998.
Property-based generation: MacIver et al., "Hypothesis", JOSS 2019.
"""

from unittest.mock import patch

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uqc import (
    compute_influence_matrix,
    engine,
    evaluate_amtc,
    evaluate_naive,
    evaluate_on_samples,
    evaluate_single_point,
    gauss_rule,
    insert_expansions,
    isomorphic,
    parse_model,
    pretty_print,
    scheduled_eval_counts,
    strip_expansions,
    tensor_grid,
    topo_sort,
    validate,
)
from uqc.errors import DomainError

DISTRIBUTIONS = ("Normal(0.3, 1)", "Uniform(-1, 2)")
CONSTANTS = ("0.5", "pi", "1.5")
# Bounded, domain-safe forms that between them use every elementary kind.
UNARY_FORMS = ("-({a})", "({a})^2", "log(1 + ({a})^2)", "sqrt(1 + ({a})^2)",
               "1/(2 + cos({a}))", "exp(sin({a}))", "tan(sin({a}))",
               "(1 + ({a})^2)^-0.5")
BINARY_FORMS = ("{a} + {b}", "{a} - {b}", "{a} * {b}", "{a} / (2 + cos({b}))")
# Reads an earlier statement {a} through an expand (when input {b} has an
# axis that {a} lacks), then last reads {a} directly in a result of {a}'s
# own shape, then reads the expanded {a} again: an engine that let ^2
# overwrite {a} in place would corrupt that second read.
REREAD_FORM = "{a} * {b} + ({a})^2 - {a} * {b}"
# Forms that leave their domain wherever a raw value does, one that
# overflows to inf, plus safe ones to build operands from.  Several mix in a constant or a second operand,
# so that an operation which waits on an expand in the transformed graph
# often fails before one which does not.
RISKY_UNARY_FORMS = ("sqrt({a})", "log({a})", "({a})^0.5", "1/({a})", "sqrt(2 * {a})",
                     "exp(800 * {a})", "-({a})", "exp(sin({a}))")
RISKY_BINARY_FORMS = ("sqrt({a} * {b})", "log({a} - {b})", "{a} / {b}", "{a} * {b}",
                      "{a} + {b}")


@st.composite
def models(draw, unary_forms=UNARY_FORMS, binary_forms=BINARY_FORMS):
    """(model source, per-axis grid sizes)."""
    n_inputs = draw(st.integers(1, 3))
    inputs = [f"x{i}" for i in range(n_inputs)]
    lines = [f"input {name} ~ {draw(st.sampled_from(DISTRIBUTIONS))}" for name in inputs]
    names: list[str] = []
    for index in range(draw(st.integers(1, 5))):
        # Constants are drawn often enough that constant-only statements,
        # and outputs depending on a subset of the inputs, are common.
        operand = st.sampled_from(inputs + names + list(CONSTANTS))
        kind = draw(st.sampled_from(("unary", "binary", "reread")))
        if kind == "reread" and names:
            expr = REREAD_FORM.format(a=draw(st.sampled_from(names)),
                                      b=draw(st.sampled_from(inputs)))
        elif kind == "unary":
            expr = draw(st.sampled_from(unary_forms)).format(a=draw(operand))
        else:
            a = draw(operand)
            b = a if draw(st.booleans()) else draw(operand)  # repeated operands
            expr = draw(st.sampled_from(binary_forms)).format(a=a, b=b)
        names.append(f"t{index}")
        lines.append(f"t{index} = {expr}")
    outputs = draw(st.lists(st.sampled_from(names + inputs[:1] + ["0.25"]),
                            min_size=1, max_size=3, unique=True))
    lines += [f"output o{i} = {target}" for i, target in enumerate(outputs)]
    sizes = tuple(draw(st.integers(1, 5)) for _ in inputs)
    return "\n".join(lines) + "\n", sizes


def bits(array) -> bytes:
    return np.ascontiguousarray(array, dtype=float).tobytes()


def grid_of(graph, sizes):
    return tensor_grid([gauss_rule(dist, k) for dist, k in zip(graph.distributions, sizes)])


def check_agreement(model, data):
    source, sizes = model
    graph = parse_model(source)
    grid = grid_of(graph, sizes)

    naive = evaluate_naive(graph, grid)
    fast = evaluate_amtc(insert_expansions(graph), grid)
    samples = evaluate_on_samples(graph, grid.points())
    assert fast.op_eval_counts == scheduled_eval_counts(compute_influence_matrix(graph), sizes)
    assert set(fast.outputs) == set(naive.outputs) == set(samples)
    for name, values in naive.outputs.items():
        assert bits(fast.outputs[name]) == bits(values), name
        assert bits(samples[name]) == bits(values), name

    points = grid.points()
    for index in data.draw(st.lists(st.integers(0, grid.total_points - 1),
                                    min_size=1, max_size=3)):
        single = evaluate_single_point(graph, points[index])
        for name, values in naive.outputs.items():
            assert bits(single[name]) == bits(values[index]), (name, index)


@settings(max_examples=150, deadline=None)
@given(models(), st.data())
def test_all_evaluators_agree_bitwise(model, data):
    check_agreement(model, data)


@settings(max_examples=100, deadline=None)
@given(models(), st.data(), st.integers(1, 7))
def test_blocked_evaluators_agree_bitwise(model, data, block):
    # The transformed engine is never blocked, so it is the reference here.
    with patch.object(engine, "_BLOCK", block):
        check_agreement(model, data)


def refusal(run) -> tuple | None:
    """Where `run()` raises DomainError, or None when it returns."""
    try:
        run()
    except DomainError as exc:
        return exc.op_id, exc.op_kind, exc.point_index, exc.reason
    return None


def refusals(graph, grid) -> list:
    """Where the naive engine, the transformed engine and the sample
    evaluator on grid.points() refuse the model, in that order."""
    return [refusal(lambda: evaluate_naive(graph, grid)),
            refusal(lambda: evaluate_amtc(insert_expansions(graph), grid)),
            refusal(lambda: evaluate_on_samples(graph, grid.points()))]


@settings(max_examples=150, deadline=None)
@given(models(RISKY_UNARY_FORMS, RISKY_BINARY_FORMS))
# Both sqrts fail at point 0.  The first one reads 1/x0, which waits on the
# expand of the constant 1, an operation with a higher id than the second.
@example(("input x0 ~ Normal(0.3, 1)\nt0 = 1/(x0)\nt1 = sqrt(t0)\nt2 = sqrt(x0)\n"
          "output o0 = t0\n", (2,)))
def test_all_evaluators_refuse_alike(model):
    source, sizes = model
    graph = parse_model(source)
    expected, *others = refusals(graph, grid_of(graph, sizes))
    assert others == [expected, expected]


@settings(max_examples=100, deadline=None)
@given(models(RISKY_UNARY_FORMS, RISKY_BINARY_FORMS), st.integers(1, 7))
# x0's nodes are -0.86, -0.31, 0.5, 1.31, 1.86.  The log fails first in
# plan order, but only at point 4; with blocks of 2 points the first block
# meets only the sqrt, at point 0.
@example(("input x0 ~ Uniform(-1, 2)\nt0 = log(1.5 - x0)\nt1 = sqrt(x0)\n"
          "output o0 = t0\noutput o1 = t1\n", (5,)), 2)
def test_blocked_evaluators_refuse_alike(model, block):
    source, sizes = model
    graph = parse_model(source)
    grid = grid_of(graph, sizes)
    expected = refusal(lambda: evaluate_naive(graph, grid))
    with patch.object(engine, "_BLOCK", block):
        assert refusals(graph, grid) == [expected] * 3


@settings(max_examples=150, deadline=None)
@given(st.one_of(models(), models(RISKY_UNARY_FORMS, RISKY_BINARY_FORMS)))
# A minus sign printed directly on a literal would fold into it.
@example(("input x0 ~ Normal(0.3, 1)\nt0 = -(0.5)\noutput o0 = t0\n", (1,)))
# An output of a computed value, of an input and of a constant, in that order.
@example(("input x0 ~ Normal(0.3, 1)\nt0 = -(x0)\noutput o0 = t0\noutput o1 = x0\n"
          "output o2 = 0.25\n", (1,)))
def test_transform_and_printer_round_trip(model):
    graph = parse_model(model[0])
    transformed = insert_expansions(graph).graph
    assert validate(transformed) == []
    # insert_expansions lists the transformed graph in its evaluation order
    assert topo_sort(transformed) == [op.id for op in transformed.operations]
    assert strip_expansions(transformed) == graph
    again = parse_model(pretty_print(graph))
    assert isomorphic(again, graph)
    assert again.output_names == graph.output_names
