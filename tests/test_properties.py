"""Differential property tests over generated models.

The four evaluators (transformed grid engine, naive grid engine, sample
evaluator, single-point interpreter) must agree bit for bit on every
well-formed model, and the transformed engine must do exactly the work the
dependency schedule predicts.  Models are random straight-line programs
over 1-3 inputs whose forms stay inside every operation's domain, so all
elementary kinds appear without raising DomainError.

Differential testing: McKeeman, "Differential testing for software", 1998.
Property-based generation: MacIver et al., "Hypothesis", JOSS 2019.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from uqc import (
    compute_influence_matrix,
    evaluate_amtc,
    evaluate_naive,
    evaluate_on_samples,
    evaluate_single_point,
    gauss_rule,
    insert_expansions,
    parse_model,
    scheduled_eval_counts,
    tensor_grid,
)

DISTRIBUTIONS = ("Normal(0.3, 1)", "Uniform(-1, 2)")
CONSTANTS = ("0.5", "pi", "1.5")
# Bounded, domain-safe forms that between them use every elementary kind.
UNARY_FORMS = ("-({a})", "({a})^2", "log(1 + ({a})^2)", "sqrt(1 + ({a})^2)",
               "1/(2 + cos({a}))", "exp(sin({a}))", "tan(sin({a}))",
               "(1 + ({a})^2)^-0.5")
BINARY_FORMS = ("{a} + {b}", "{a} - {b}", "{a} * {b}", "{a} / (2 + cos({b}))")


@st.composite
def models(draw):
    """(model source, per-axis grid sizes)."""
    n_inputs = draw(st.integers(1, 3))
    inputs = [f"x{i}" for i in range(n_inputs)]
    lines = [f"input {name} ~ {draw(st.sampled_from(DISTRIBUTIONS))}" for name in inputs]
    names: list[str] = []
    for index in range(draw(st.integers(1, 5))):
        # Constants are drawn often enough that constant-only statements,
        # and outputs depending on a subset of the inputs, are common.
        operand = st.sampled_from(inputs + names + list(CONSTANTS))
        if draw(st.booleans()):
            expr = draw(st.sampled_from(UNARY_FORMS)).format(a=draw(operand))
        else:
            a = draw(operand)
            b = a if draw(st.booleans()) else draw(operand)  # repeated operands
            expr = draw(st.sampled_from(BINARY_FORMS)).format(a=a, b=b)
        names.append(f"t{index}")
        lines.append(f"t{index} = {expr}")
    outputs = draw(st.lists(st.sampled_from(names + inputs[:1] + ["0.25"]),
                            min_size=1, max_size=3, unique=True))
    lines += [f"output o{i} = {target}" for i, target in enumerate(outputs)]
    sizes = tuple(draw(st.integers(1, 5)) for _ in inputs)
    return "\n".join(lines) + "\n", sizes


def bits(array) -> bytes:
    return np.ascontiguousarray(array, dtype=float).tobytes()


@settings(max_examples=150, deadline=None)
@given(models(), st.data())
def test_all_evaluators_agree_bitwise(model, data):
    source, sizes = model
    graph = parse_model(source)
    grid = tensor_grid([gauss_rule(dist, k) for dist, k in zip(graph.distributions, sizes)])

    naive = evaluate_naive(graph, grid)
    fast = evaluate_amtc(insert_expansions(graph), grid)
    samples = evaluate_on_samples(graph, grid.points())
    assert fast.op_eval_counts == scheduled_eval_counts(compute_influence_matrix(graph), sizes)
    assert set(fast.outputs) == set(naive.outputs) == set(samples)
    for name, tensor in naive.outputs.items():
        assert bits(fast.outputs[name].data) == bits(tensor.data), name
        assert bits(samples[name]) == bits(tensor.data), name

    points = grid.points()
    for index in data.draw(st.lists(st.integers(0, grid.total_points - 1),
                                    min_size=1, max_size=3)):
        single = evaluate_single_point(graph, points[index])
        for name, tensor in naive.outputs.items():
            assert bits(single[name]) == bits(tensor.data[index]), (name, index)
