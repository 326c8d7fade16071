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
generated models, and a fourth that the validator names each single edit
that leaves a variable with no role or two, or an expand with a
non-expand kind.  A fifth checks every evaluator, over both families,
against an oracle that shares no code with them, so a wrong kernel that
all evaluators share is caught too.  A sixth checks that Monte Carlo,
which draws block by block, runs by stages and reuses its own vectors,
gives the moments, or the refusal, of evaluate_on_samples over
sample_inputs, bit for bit, on both families and with blocks of 1-7
points too.  A seventh
checks the counts the transformed engine executes against Graph.signatures
at axis sizes 2, 3 and 5, whose products tell the axes apart.  An eighth
checks that Graph.stages is a valid staged plan, and a ninth that Monte
Carlo run by it, on one CPU and with a helper thread, gives the moments or
the refusal of the sampled path.

Differential testing: McKeeman, "Differential testing for software", 1998.
Property-based generation: MacIver et al., "Hypothesis", JOSS 2019.
"""

import math
import operator
from dataclasses import replace
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
    methods,
    monte_carlo,
    parse_model,
    pretty_print,
    scheduled_eval_counts,
    strip_expansions,
    tensor_grid,
    topo_sort,
    validate,
)
from uqc.errors import DomainError
from uqc.graph import EXPAND, OP_KINDS
from uqc.methods import UqResult, sample_inputs
from uqc.transform import expansion_copies

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
    transformed = insert_expansions(graph)
    fast = evaluate_amtc(transformed, grid)
    assert "graph" not in vars(transformed)  # the run did not build the expand IR
    samples = evaluate_on_samples(graph, grid.points())
    assert fast.op_eval_counts == scheduled_eval_counts(compute_influence_matrix(graph), sizes)
    # Count law: the copies counted from signatures are the expands' elements,
    # also when the signature pass walks the graph with the expands afresh.
    expands = [op for op in transformed.graph.operations if op.kind == EXPAND]
    assert (fast.expansion_copies == expansion_copies(graph, sizes)
            == expansion_copies(transformed.graph, sizes)
            == expansion_copies(replace(transformed.graph), sizes)
            == sum(math.prod(sizes[axis] for axis in op.expand_to) for op in expands))
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


@settings(max_examples=150, deadline=None)
@given(models())
def test_executed_counts_are_the_cached_signatures(model):
    # Distinct primes per axis, so each product names the axes it is over.
    graph = parse_model(model[0])
    sizes = (2, 3, 5)[:graph.dim]
    transformed = insert_expansions(graph)
    report = evaluate_amtc(transformed, grid_of(graph, sizes))
    signatures = graph.signatures
    assert report.op_eval_counts == {
        op.id: math.prod(sizes[axis] for axis in signatures[op.output])
        for op in graph.operations}
    # The splice hands its graph the signatures a fresh pass derives.
    assert transformed.graph.signatures == replace(transformed.graph).signatures


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


# An oracle that shares no code with the engines: a scalar interpreter over
# graph.order in Python floats and `math`, with its own domain checks.
KERNELS = {"neg": operator.neg, "sin": math.sin, "cos": math.cos, "tan": math.tan,
           "exp": math.exp, "log": math.log, "sqrt": math.sqrt, "add": operator.add,
           "sub": operator.sub, "mul": operator.mul, "div": operator.truediv}
# numpy may compute these kinds with its own vectorized code (SVML on
# AVX-512 CPUs) where `math` and `**` call the C library; both are
# faithfully rounded, so a value of one of these kinds may differ from the
# oracle's by one unit in the last place (exp(sin(x)) at x = -0.859 does).
# Every other kind must match bit for bit.  The refusal check runs the
# oracle on its own values, so it assumes no such difference decides a
# domain check; none did over 3000 generated models.
ONE_ULP_KINDS = frozenset(("tan", "exp", "log", "pow_const"))


class Violation(Exception):
    """An operation leaves its domain or overflows at one point; `rank`
    orders an operation's checks as the engines make them."""

    def __init__(self, rank: int, reason: str):
        super().__init__(reason)
        self.rank, self.reason = rank, reason


def oracle_apply(kind: str, operands, exponent) -> float:
    """One operation at one point, or a Violation.  The checks come first:
    (-2.0) ** 0.5 is complex, 0.0 ** -1 raises, and math.exp and ** raise
    OverflowError where numpy gives an infinity."""
    a = operands[0]
    if kind == "div" and operands[1] == 0.0:
        raise Violation(0, "division by zero")
    if kind == "log" and a <= 0.0:
        raise Violation(0, "log of non-positive value")
    if kind == "sqrt" and a < 0.0:
        raise Violation(0, "sqrt of negative value")
    if kind == "pow_const" and not exponent.is_integer() and a < 0.0:
        raise Violation(0, f"negative base for exponent {exponent}")
    if kind == "pow_const" and exponent < 0.0 and a == 0.0:
        raise Violation(1, f"zero base for exponent {exponent}")
    try:
        value = a ** exponent if kind == "pow_const" else KERNELS[kind](*operands)
    except OverflowError:
        odd_power = kind == "pow_const" and exponent % 2 == 1
        value = math.copysign(math.inf, a) if odd_power else math.inf
    if not math.isfinite(value):
        raise Violation(2, f"non-finite result {value}")
    return value


def operand_values(graph, points) -> dict:
    """The value of each uncertain input and constant at each point."""
    values = {vid: [point[axis] for point in points]
              for axis, (vid, _) in enumerate(graph.uncertain_inputs)}
    for var in graph.variables:
        if var.constant_value is not None:
            values[var.id] = [var.constant_value] * len(points)
    return values


def oracle_refusal(graph, points) -> tuple | None:
    """Run graph.order over `points` op-major, each operation at every point
    before the next: None if no operation meets a violation, else where
    the first one does, at the first point of its first failing check, as
    (operation id, kind, point index, reason) like a DomainError."""
    values = operand_values(graph, points)
    for op in graph.order:
        results, violations = [], []
        for index, operands in enumerate(zip(*map(values.__getitem__, op.inputs))):
            try:
                results.append(oracle_apply(op.kind, operands, op.exponent))
            except Violation as violation:
                violations.append((violation.rank, index, violation.reason))
        if violations:
            _, index, reason = min(violations)
            return op.id, op.kind, index, reason
        values[op.output] = results
    return None


def with_every_value(graph):
    """The graph with each operation's result listed as an output too,
    under a name no model can declare, so engines report every value."""
    extra = tuple(op.output for op in graph.operations if op.output not in graph.outputs)
    return replace(graph, outputs=graph.outputs + extra,
                   output_names=graph.output_names + tuple(f"#{vid}" for vid in extra))


def outputs_by_evaluator(graph, grid) -> dict:
    """Each evaluator's outputs over grid.points(), name -> vector."""
    points = grid.points()
    singles = [evaluate_single_point(graph, point) for point in points]
    return {"naive": evaluate_naive(graph, grid).outputs,
            "amtc": evaluate_amtc(insert_expansions(graph), grid).outputs,
            "samples": evaluate_on_samples(graph, points),
            "single point": {name: np.array([single[name] for single in singles])
                             for name in graph.output_names}}


def check_against_oracle(graph, points, value_of, evaluator):
    """Each operation's value at each point, as `value_of` (variable id ->
    vector) holds it, is the oracle's operation applied to the inputs,
    constants and operation values it reads: bit for bit, or within one
    ulp for ONE_ULP_KINDS."""
    operands = operand_values(graph, points)
    for op in graph.order:
        for index in range(len(points)):
            args = [operands[vid][index] if vid in operands else float(value_of[vid][index])
                    for vid in op.inputs]
            expected = oracle_apply(op.kind, args, op.exponent)
            actual = float(value_of[op.output][index])
            where = (evaluator, op.id, op.kind, index, actual, expected)
            if op.kind in ONE_ULP_KINDS:
                assert actual in (math.nextafter(expected, -math.inf), expected,
                                  math.nextafter(expected, math.inf)), where
            else:
                assert actual.hex() == expected.hex(), where
    for vid in graph.outputs:
        if vid in operands:  # an input or a constant reported as it is
            assert bits(value_of[vid]) == bits(operands[vid]), (evaluator, vid)


@settings(max_examples=150, deadline=None)
@given(st.one_of(models(), models(RISKY_UNARY_FORMS, RISKY_BINARY_FORMS)))
def test_every_evaluator_matches_the_oracle(model):
    source, sizes = model
    graph = parse_model(source)
    grid = grid_of(graph, sizes)
    points = grid.points().tolist()
    expected = oracle_refusal(graph, points)
    assert refusals(graph, grid) == [expected] * 3
    for point in points:
        assert (refusal(lambda: evaluate_single_point(graph, point))
                == oracle_refusal(graph, [point]))
    if expected is not None:
        return
    exposed = with_every_value(graph)
    every_value = outputs_by_evaluator(exposed, grid)
    for evaluator, outputs in outputs_by_evaluator(graph, grid).items():
        exposed_outputs = every_value[evaluator]
        value_of = {vid: exposed_outputs[name]
                    for vid, name in zip(exposed.outputs, exposed.output_names)}
        check_against_oracle(graph, points, value_of, evaluator)
        # listing more outputs changes which buffers are reused, not values
        for name, values in outputs.items():
            assert bits(values) == bits(exposed_outputs[name]), (evaluator, name)


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
    stripped = strip_expansions(transformed)
    assert stripped == graph
    # The parser, insert_expansions and strip_expansions each list their
    # graph in evaluation order, which topo_sort returns as listed.
    for g in (graph, transformed, stripped):
        assert topo_sort(g) == [op.id for op in g.operations]
    again = parse_model(pretty_print(graph))
    assert isomorphic(again, graph)
    assert again.output_names == graph.output_names


@settings(max_examples=100, deadline=None)
@given(models(), st.data())
def test_validate_names_each_role_edit(model, data):
    graph = parse_model(model[0])
    inputs = graph.uncertain_inputs
    index = data.draw(st.integers(0, len(inputs) - 1))
    vid = inputs[index][0]
    dropped = replace(graph, uncertain_inputs=inputs[:index] + inputs[index + 1:])
    assert f"variable {vid} has no role" in validate(dropped)
    twice = replace(graph, uncertain_inputs=inputs + inputs[index:index + 1])
    assert f"variable {vid} has 2 roles: uncertain input, uncertain input" in validate(twice)

    output = data.draw(st.sampled_from(graph.operations)).output
    constant = replace(graph, variables=tuple(
        var._replace(constant_value=1.0) if var.id == output else var for var in graph.variables))
    assert f"variable {output} has 2 roles: constant, operation output" in validate(constant)

    transformed = insert_expansions(graph).graph
    expands = [op for op in transformed.operations if op.kind == EXPAND]
    if expands:
        expand = data.draw(st.sampled_from(expands))
        kind = data.draw(st.sampled_from([kind for kind in OP_KINDS if kind != EXPAND]))
        relabeled = replace(transformed, operations=tuple(
            op._replace(kind=kind) if op == expand else op for op in transformed.operations))
        assert (f"operation {expand.id}: expand_to present iff kind is expand"
                in validate(relabeled))


# Monte Carlo draws block by block and runs by stages, and writes its
# output over vectors it reuses; the reference is the path it replaced,
# which builds the whole sample array.  Moments are compared bit for bit, and a refusal by its
# type, operation, point, reason and sample.
def mc_outcome(run) -> tuple:
    try:
        result = run()
    except DomainError as exc:
        return DomainError, exc.op_id, exc.op_kind, exc.point_index, exc.reason, exc.sample
    except ValueError as exc:
        return ValueError, str(exc)
    return result.mean.hex(), result.stddev.hex()


def materialised_monte_carlo(graph, n, seed) -> UqResult:
    values = evaluate_on_samples(graph, sample_inputs(graph, n, seed))[graph.first_output_name()]
    return UqResult("mc", float(np.mean(values)), float(np.std(values, ddof=1)), n)


def check_monte_carlo(source, n, seed):
    graph = parse_model(source)
    with np.errstate(all="ignore"):  # moments of huge values may overflow
        assert (mc_outcome(lambda: monte_carlo(graph, n, seed))
                == mc_outcome(lambda: materialised_monte_carlo(graph, n, seed)))


# A model with no inputs, and first outputs that are input 0, the last
# input and a constant: outputs no operation computes.
MC_EXAMPLES = (
    "param c = 2.5\noutput f = c * 2\n",
    "input x0 ~ Normal(0.3, 1)\ninput x1 ~ Uniform(-1, 2)\nt0 = x0 * x1\n"
    "output o0 = x0\noutput o1 = t0\n",
    "input x0 ~ Normal(0.3, 1)\ninput x1 ~ Uniform(-1, 2)\ninput x2 ~ Normal(0.3, 1)\n"
    "t0 = x0 * x2\noutput o0 = x2\noutput o1 = t0\n",
    "input x0 ~ Uniform(-1, 2)\ninput x1 ~ Normal(0.3, 1)\nt0 = x0 / (2 + cos(x1))\n"
    "output o0 = 0.25\noutput o1 = t0\n",
    "input x0 ~ Uniform(-1, 2)\nt0 = sin(x0)\noutput o0 = x0\noutput o1 = t0\n",
)
BLOCK_EDGES = (2, 3, engine._BLOCK - 1, engine._BLOCK + 1, 2 * engine._BLOCK + 5)


def with_examples(*rows):
    def decorate(test):
        for row in rows:
            test = example(*row)(test)
        return test
    return decorate


@settings(max_examples=40, deadline=None)
@given(models(), st.sampled_from(BLOCK_EDGES), st.integers(0, 3))
@with_examples(*[((source, ()), n, 1) for source in MC_EXAMPLES for n in (3, BLOCK_EDGES[-1])])
def test_streamed_monte_carlo_equals_the_sampled_path(model, n, seed):
    check_monte_carlo(model[0], n, seed)


@settings(max_examples=100, deadline=None)
@given(models(), st.integers(2, 40), st.integers(0, 3), st.integers(1, 7))
@with_examples(*[((source, ()), 17, 2, 3) for source in MC_EXAMPLES])
def test_blocked_streamed_monte_carlo_equals_the_sampled_path(model, n, seed, block):
    with patch.object(engine, "_BLOCK", block):
        check_monte_carlo(model[0], n, seed)


@settings(max_examples=150, deadline=None)
@given(models(RISKY_UNARY_FORMS, RISKY_BINARY_FORMS), st.integers(2, 40), st.integers(0, 3),
       st.sampled_from((1, 2, 3, 4, 5, 6, 7, engine._BLOCK)))
# Seed 0 draws x0 = 0.91, -0.19, -0.88, -0.95, 1.44, 1.74.  The log fails
# first in plan order, but only at sample 5; with blocks of 2 points the
# first block meets only the sqrt, at sample 1.
@example(("input x0 ~ Uniform(-1, 2)\nt0 = log(1.5 - x0)\nt1 = sqrt(x0)\n"
          "output o0 = t0\noutput o1 = t1\n", (1,)), 6, 0, 2)
def test_streamed_monte_carlo_refuses_as_the_sampled_path(model, n, seed, block):
    with patch.object(engine, "_BLOCK", block):
        check_monte_carlo(model[0], n, seed)


STAGED_EXAMPLES = MC_EXAMPLES + (
    # a constant-only value and values handed across all three stages
    "input x0 ~ Normal(0.3, 1)\ninput x1 ~ Uniform(-1, 2)\ninput x2 ~ Normal(0.3, 1)\n"
    "t0 = exp(sin(x0))\nt1 = cos(1.5) * 2\nt2 = t0 * x1 + t1\nt3 = t2 / (2 + cos(x2)) + x0\n"
    "output o0 = t3\noutput o1 = t0\n",
    # staged early, more vectors than the leading inputs: every operation last
    "input x0 ~ Normal(0.3, 1)\ninput x1 ~ Uniform(-1, 2)\n"
    "t0 = sin(x0)*x1 + cos(x0)*x1 + exp(x0)*x1\noutput o0 = t0\n",
    # the first output is read by a later stage
    "input x0 ~ Normal(0.3, 1)\ninput x1 ~ Uniform(-1, 2)\nt0 = sin(x0)\nt1 = t0 * x1\n"
    "output o0 = t0\noutput o1 = t1\n",
    # the first output is an input that a later stage reads: drawn into vector 0
    "input x0 ~ Normal(0.3, 1)\ninput x1 ~ Uniform(-1, 2)\ninput x2 ~ Normal(0.3, 1)\n"
    "t1 = x0 * x1\nt2 = t1 * x2\noutput o0 = x0\noutput o1 = t2\n",
)


@settings(max_examples=150, deadline=None)
@given(models())
@with_examples(*[((source, ()),) for source in STAGED_EXAMPLES])
def test_stages_are_a_valid_staged_plan(model):
    # Each stage's steps read only values made by an earlier step, drawn
    # for this or an earlier stage, or constants; a released value is read
    # by no later step; a value read by a later stage than its own is
    # drawn into or copied to a vector, or handed on as a 1-element value,
    # and never released; no more vectors are held than the leading inputs;
    # the first output is handed on in vector 0, or drawn into it, once.
    graph = parse_model(model[0])
    stages, vectors = graph.stages
    signatures = graph.signatures
    inputs = [vid for vid, _ in graph.uncertain_inputs]
    assert len(stages) == max(graph.dim, 1) and vectors <= max(graph.dim - 1, 1)
    assert sorted(step.op.id for stage in stages for step in stage.steps) == \
        sorted(op.id for op in graph.operations)
    known = {var.id for var in graph.variables if var.constant_value is not None}
    made, handed = {}, {}
    for j, stage in enumerate(stages):
        if j < graph.dim:
            known.add(inputs[j])
            made[inputs[j]] = j
            if stage.draw_into is not None:
                handed[inputs[j]] = stage.draw_into
        for step in stage.steps:
            assert known >= set(step.op.inputs)
            known.add(step.op.output)
            made[step.op.output] = j
        for vid, vector in stage.hands_on:
            assert (vector is None) == (signatures[vid] == ()) or vid == graph.outputs[0]
            handed.setdefault(vid, vector)
    staged = [(j, step) for j, stage in enumerate(stages) for step in stage.steps]
    for index, (j, step) in enumerate(staged):
        later_reads = {vid for _, other in staged[index + 1:] for vid in other.op.inputs}
        assert not set(step.release) & (later_reads | set(graph.outputs) | set(handed))
        for vid in step.op.inputs:
            if made.get(vid, j) < j:
                assert vid in handed
    first = graph.outputs[0]
    drawn = [stage.draw_into for j, stage in enumerate(stages[:graph.dim]) if inputs[j] == first]
    assert [stage.hands_on[:1] for stage in stages].count(((first, 0),)) + drawn.count(0) == 1


@settings(max_examples=100, deadline=None)
@given(st.one_of(models(), models(RISKY_UNARY_FORMS, RISKY_BINARY_FORMS)), st.integers(2, 200),
       st.integers(0, 3), st.sampled_from((1, 3, 64)), st.sampled_from((1, 2)))
@with_examples(*[((source, ()), 130, 2, block, cpus) for source in STAGED_EXAMPLES
                 for block in (1, 3, 64) for cpus in (1, 2)])
def test_staged_monte_carlo_equals_the_sampled_path(model, n, seed, block, cpus):
    with patch.object(engine, "_BLOCK", block), patch.object(methods, "_cpu_count", lambda: cpus):
        check_monte_carlo(model[0], n, seed)

