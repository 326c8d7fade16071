import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

from uqc import (
    BUILTIN_SOURCES,
    GraphBuilder,
    Normal,
    Uniform,
    builtin_model,
    evaluate_amtc,
    evaluate_naive,
    evaluate_single_point,
    grid_for,
    insert_expansions,
    isomorphic,
    parse_model,
    parse_model_file,
    pretty_print,
)
from uqc.errors import (
    DuplicateNameError,
    ParseError,
    UndefinedNameError,
    UnknownModelError,
)
from uqc.graph import VariableNode, validate
from uqc.transform import compute_influence_matrix


# Every literal form the lowering treats specially; test_node_ids_of_literal_forms
# pins the id of each of its nodes.
LITERAL_FORMS_SOURCE = ("input x ~ Normal(1, 0.1)\n"
                        "a = -2 + - -2 * -(2)\n"
                        "b = -pi * (2 * x) + x * 2\n"
                        "c = sin(2) + x ^ (2) - x ^ -(2)\n"
                        "d = 2 ^ x - -2 ^ 2 + 2 ^ 3 ^ 2\n"
                        "y = 3\n"
                        "output f = a + b + c + d + y\n"
                        "output g = x\n")

# One output of each sort of value: an uncertain input, a parameter, an
# earlier assignment and a fresh expression.
OUTPUT_SORTS_SOURCE = ("input x ~ Normal(0, 1)\n"
                       "input y ~ Uniform(-1, 1)\n"
                       "param c = 2\n"
                       "t = x * y\n"
                       "output f = x\n"
                       "output g = c\n"
                       "output h = t\n"
                       "output k = t + c\n")

SEP6 = Path(__file__).resolve().parent.parent / "perfbench" / "sep6.uq"


def piston_cycle_time(M, S, V0, k=3000.0, P0=100000.0, Ta=293.0, T0=350.0):
    """Hand-coded oracle for the piston builtin, independent of the IR."""
    A = P0 * S + 19.62 * M - k * V0 / S
    V = S / (2 * k) * (math.sqrt(A * A + 4 * k * (P0 * V0 / T0) * Ta) - A)
    return 2 * math.pi * math.sqrt(M / (k + S ** 2 * P0 * V0 * Ta / (T0 * V ** 2)))


class TestParsing:
    def test_simple_decomposition(self):
        g = parse_model("input u1 ~ Normal(0,1)\n"
                        "input u2 ~ Normal(0,1)\n"
                        "output f = cos(u1) + exp(-u2)\n")
        kinds = [op.kind for op in g.operations]
        assert kinds == ["cos", "neg", "exp", "add"]
        cos_op, neg_op, exp_op, add_op = g.operations
        u1, u2 = (vid for vid, _ in g.uncertain_inputs)
        assert cos_op.inputs == (u1,)
        assert neg_op.inputs == (u2,)
        assert exp_op.inputs == (neg_op.output,)
        assert add_op.inputs == (cos_op.output, exp_op.output)
        assert g.outputs == (add_op.output,)

    def test_identity_model_aliases_output_to_input(self):
        g = parse_model("input x ~ Uniform(-1,1)\noutput f = x\n")
        assert len(g.operations) == 0
        assert g.outputs == (g.uncertain_inputs[0][0],)

    def test_unbalanced_paren_is_parse_error(self):
        with pytest.raises(ParseError) as excinfo:
            parse_model("output f = (")
        assert excinfo.value.line == 1

    def test_undefined_name(self):
        with pytest.raises(UndefinedNameError) as excinfo:
            parse_model("input x ~ Normal(0,1)\noutput f = x + y\n")
        assert excinfo.value.name == "y"
        assert excinfo.value.line == 2

    def test_duplicate_name(self):
        with pytest.raises(DuplicateNameError):
            parse_model("input x ~ Normal(0,1)\nx = 3\n")

    def test_reserved_names_rejected(self):
        with pytest.raises(ParseError):
            parse_model("pi = 3\n")
        with pytest.raises(ParseError):
            parse_model("input sin ~ Normal(0,1)\n")

    def test_unknown_function(self):
        with pytest.raises(ParseError):
            parse_model("input x ~ Normal(0,1)\noutput f = cosh(x)\n")

    def test_unknown_distribution(self):
        with pytest.raises(ParseError):
            parse_model("input x ~ Beta(1,1)\n")

    def test_comments_and_blank_lines(self):
        g = parse_model("# a model\n\ninput x ~ Normal(0,1)  # trailing\n\n"
                        "output f = x * 2  # double\n")
        assert [op.kind for op in g.operations] == ["mul"]
        for ending in ("  # no final newline", "\n\t\n  \t"):
            g = parse_model("input x ~ Normal(0,1)\noutput f = x * 2" + ending)
            assert [op.kind for op in g.operations] == ["mul"]

    def test_pi_is_a_real_in_declarations(self):
        g = parse_model("param a = pi\ninput x ~ Normal(-pi, 1)\noutput f = a * x\n")
        assert g.variables[0] == VariableNode(0, "a", math.pi)
        assert g.distributions == (Normal(-math.pi, 1.0),)

    def test_scientific_and_decimal_literals(self):
        g = parse_model("input x ~ Normal(0,1)\noutput f = x * 1.5e-3 + .25 + 2e2\n")
        constants = sorted(v.constant_value for v in g.variables if v.constant_value is not None)
        assert constants == [0.0015, 0.25, 200.0]

    def test_literal_pow_becomes_pow_const(self):
        g = parse_model("input x ~ Normal(0,1)\noutput f = x^2\n")
        assert [op.kind for op in g.operations] == ["pow_const"]
        assert g.operations[0].exponent == 2.0

    def test_negative_literal_exponent(self):
        g = parse_model("input x ~ Normal(1,1)\noutput f = x^-2\n")
        assert g.operations[0].exponent == -2.0

    def test_general_pow_lowers_to_exp_log(self):
        g = parse_model("input x ~ Uniform(1,2)\ninput y ~ Uniform(0,1)\noutput f = x^y\n")
        assert [op.kind for op in g.operations] == ["log", "mul", "exp"]

    def test_sign_on_literal_folds_into_constant(self):
        g = parse_model("input x ~ Normal(0,1)\noutput f = -2 * x\n")
        assert [op.kind for op in g.operations] == ["mul"]
        assert any(v.constant_value == -2.0 for v in g.variables)

    def test_unary_minus_on_expression_is_neg(self):
        g = parse_model("input x ~ Normal(0,1)\noutput f = -x\n")
        assert [op.kind for op in g.operations] == ["neg"]

    def test_no_constant_folding(self):
        g = parse_model("input x ~ Normal(0,1)\noutput f = 2 * 3 + x\n")
        assert [op.kind for op in g.operations] == ["mul", "add"]

    def test_precedence_semantics(self):
        g = parse_model("input x ~ Normal(0,1)\noutput f = 2 + 3 * x^2 - -4 / 2\n")
        assert evaluate_single_point(g, [3.0])["f"] == pytest.approx(2 + 27 + 2)

    def test_power_right_associative(self):
        g = parse_model("input x ~ Normal(0,1)\noutput f = 2^3^2 + 0*x\n")
        assert evaluate_single_point(g, [0.0])["f"] == pytest.approx(512.0)

    def test_lowering_is_deterministic(self):
        a = builtin_model("piston")
        b = builtin_model("piston")
        assert a == b

    def test_node_ids_of_literal_forms(self):
        # Pins the id of every node: a constant is created where the
        # depth-first, left-to-right walk of the expression meets it, a sign
        # on a bare literal folds into it, and a literal exponent (bare or
        # parenthesized) makes pow_const with no constant node.
        g = parse_model(LITERAL_FORMS_SOURCE)
        inputs = {vid for vid, _ in g.uncertain_inputs}
        written = set(g.producer_of)
        nodes = sorted(
            [(v.id, "uncertain_input" if v.id in inputs else
              "intermediate" if v.id in written else v.constant_value)
             for v in g.variables]
            + [(op.id, op.kind, *op.inputs) for op in g.operations])
        i, t = "uncertain_input", "intermediate"
        assert nodes == [
            (0, i), (1, -2.0), (2, 2.0), (3, 2.0), (4, "neg", 3), (5, t),
            (6, "mul", 2, 5), (7, t), (8, "add", 1, 7), (9, t),
            (10, -math.pi), (11, 2.0), (12, "mul", 11, 0), (13, t),
            (14, "mul", 10, 13), (15, t), (16, 2.0), (17, "mul", 0, 16), (18, t),
            (19, "add", 15, 18), (20, t),
            (21, 2.0), (22, "sin", 21), (23, t), (24, "pow_const", 0), (25, t),
            (26, "add", 23, 25), (27, t), (28, 2.0), (29, "neg", 28), (30, t),
            (31, "log", 0), (32, t), (33, "mul", 30, 32), (34, t), (35, "exp", 34),
            (36, t), (37, "sub", 27, 36), (38, t),
            (39, 2.0), (40, "log", 39), (41, t), (42, "mul", 0, 41), (43, t),
            (44, "exp", 43), (45, t), (46, 2.0), (47, "pow_const", 46), (48, t),
            (49, "neg", 48), (50, t), (51, "sub", 45, 50), (52, t), (53, 2.0),
            (54, 3.0), (55, "pow_const", 54), (56, t), (57, "log", 53), (58, t),
            (59, "mul", 56, 58), (60, t), (61, "exp", 60), (62, t),
            (63, "add", 52, 62), (64, t),
            (65, 3.0),
            (66, "add", 9, 20), (67, t), (68, "add", 67, 38), (69, t),
            (70, "add", 69, 64), (71, t), (72, "add", 71, 65), (73, t),
        ]
        assert [op.exponent for op in g.operations if op.kind == "pow_const"] == [2.0] * 3
        names = {v.name: v.id for v in g.variables if not v.name.startswith("_")}
        assert names == {"x": 0, "a": 9, "b": 20, "c": 38, "d": 64, "y": 65, "f": 73}
        assert g.outputs == (73, 0)
        assert g.output_names == ("f", "g")


# A name or value error is reported only if the whole text is free of
# syntax errors, and of its name errors the first in the text wins.
@pytest.mark.parametrize("source, error, line, column", [
    ("input x ~ Normal(0,1)\na = y + 1\nb = x +\n", ParseError, 3, 8),
    ("pi = 3\nx = (1\n", ParseError, 2, 7),
    ("input x ~ Normal(0, -1)\nf = 1 +* 2\n", ParseError, 2, 8),
    ("f = (\ng = 1 $ 2\n", ParseError, 2, 7),
    ("input x ~ Normal(0,1)\nx = y\n", DuplicateNameError, 2, 1),
    ("output f = a + b\n", UndefinedNameError, 1, 12),
    ("input x ~ Normal(0,1)\noutput f = ٣ * x\n", ParseError, 2, 12),
    ("param p = 1e400\nf = 1 +* 2\n", ParseError, 2, 8),
    ("output f = 1e400 + y\n", ParseError, 1, 12),
    ("output f = y + 1e400\n", UndefinedNameError, 1, 12),
    ("input x ~ Normal(0,1)\ninput x ~ Normal(0, 1e400)\n", DuplicateNameError, 2, 7),
])
def test_error_precedence(source, error, line, column):
    with pytest.raises(error) as excinfo:
        parse_model(source)
    assert type(excinfo.value) is error
    assert (excinfo.value.line, excinfo.value.column) == (line, column)


# Blanks and tabs are matched as part of the token after them, and a
# token's column is found by a second scan; these are the places where
# that could shift a reported column.
@pytest.mark.parametrize("source, line, column, message", [
    ("output f = 1 +   ", 1, 18, "got end of line"),
    ("output f = 1 +\t", 1, 16, "got end of line"),
    ("output f = 1 + \t\n", 1, 17, "got end of line"),
    ("output f = (1 + 2  ", 1, 20, "got end of line"),
    ("output f = x +  # no final newline", 1, 35, "got end of line"),
    ("output f = 1\r\n", 1, 13, "unexpected character '\\r'"),
    ("output f = 1 +\r 2\n", 1, 15, "unexpected character '\\r'"),
    ("output f = 1\t\t$ 2\n", 1, 15, "unexpected character '$'"),
    ("x = 1\n \t @", 2, 4, "unexpected character '@'"),
    ("x = 1 .e5\n", 1, 7, "unexpected character '.'"),
    ("# a @ comment\nx = 1 @\n", 2, 7, "unexpected character '@'"),
    ("# note\nx = (1 +  # open\n", 2, 17, "got end of line"),
])
def test_error_columns_around_blanks(source, line, column, message):
    with pytest.raises(ParseError) as excinfo:
        parse_model(source)
    assert (excinfo.value.line, excinfo.value.column) == (line, column)
    assert message in str(excinfo.value)


@pytest.mark.parametrize("source, message", [
    ("= 3\n", "line 1, column 1: got '=' (expected statement)"),
    ("input 3 ~ Normal(0,1)\n", "line 1, column 7: got '3' (expected identifier)"),
    ("x = 1 2\n", "line 1, column 7: unexpected '2' after statement (expected end of line)"),
    ("param a = x\n", "line 1, column 11: got 'x' (expected number)"),
])
def test_syntax_error_messages(source, message):
    with pytest.raises(ParseError) as excinfo:
        parse_model(source)
    assert str(excinfo.value) == message


def test_byte_order_mark_is_skipped_in_files_only(tmp_path):
    path = tmp_path / "bom.uq"
    path.write_bytes(b"\xef\xbb\xbfinput x ~ Normal(0, 1)\noutput f = 2 * x\n")
    g = parse_model_file(path)
    assert g == parse_model("input x ~ Normal(0, 1)\noutput f = 2 * x\n")
    with pytest.raises(ParseError) as excinfo:
        parse_model("\ufeffinput x ~ Normal(0, 1)\n")
    assert (excinfo.value.line, excinfo.value.column) == (1, 1)
    assert "unexpected character '\\ufeff'" in str(excinfo.value)


class TestOutputNames:
    def test_output_of_an_earlier_statement_takes_the_declared_name(self):
        g = parse_model("input x ~ Normal(0, 1)\ninput y ~ Normal(0, 1)\n"
                        "t = x*y\noutput f = t\nu = t + 1\n")
        assert g.output_names == ("f",)
        # the variable keeps its name, which later statements may still read
        assert g.variable_by_id[g.outputs[0]].name == "t"
        assert g.operations[-1].inputs[0] == g.outputs[0]

    def test_output_of_a_parameter_takes_the_declared_name(self):
        g = parse_model("input x ~ Normal(0, 1)\nparam c = 2\noutput f = c\n"
                        "output g = c * x\n")
        assert g.output_names == ("f", "g")
        assert g.variable_by_id[g.outputs[0]].constant_value == 2.0

    def test_output_of_an_input_takes_the_declared_name(self):
        # the input keeps its own name, which labels its axis
        g = parse_model("input x ~ Normal(0, 1)\noutput f = x\n")
        assert g.output_names == ("f",)
        assert g.variable_by_id[g.outputs[0]] == VariableNode(0, "x")

    def test_grid_engines_key_results_by_the_declared_names(self):
        g = parse_model(OUTPUT_SORTS_SOURCE)
        assert g.output_names == ("f", "g", "h", "k")
        grid = grid_for(g.distributions, 2)
        for report in (evaluate_naive(g, grid), evaluate_amtc(insert_expansions(g), grid)):
            assert list(report.outputs) == ["f", "g", "h", "k"]
            assert (report.outputs["f"] == grid.points()[:, 0]).all()

    @pytest.mark.parametrize("source, line, column", [
        ("input x ~ Normal(0, 1)\noutput f = x\noutput g = x\n", 3, 8),
        ("input x ~ Normal(0, 1)\nt = 2*x\noutput f = t\noutput g = t\n", 4, 8),
        ("input x ~ Normal(0, 1)\noutput f = 2*x\noutput g = f\n", 3, 8),
    ])
    def test_second_output_of_one_value_is_refused(self, source, line, column):
        with pytest.raises(ParseError, match="already an output") as excinfo:
            parse_model(source)
        assert (excinfo.value.line, excinfo.value.column) == (line, column)

    def test_second_output_error_is_held_behind_syntax_errors(self):
        with pytest.raises(ParseError) as excinfo:
            parse_model("input x ~ Normal(0, 1)\noutput f = x\noutput g = x\nh = (\n")
        assert (excinfo.value.line, excinfo.value.column) == (4, 6)


# sha256 of repr(graph) + repr(graph.plan) + repr(insert_expansions(graph).graph):
# the lowering, the execution plan and the transformed graph, node for node.
FRONT_END_DIGESTS = {
    "simple": "8b83ec304d7688a857a1860ba1edbf698f31874b76dac0cd91eb7e6a6d3079fc",
    "piston": "4bbbdd37a8ff31cb4b967a5f3b1e0473cc008c508d2f842fc211a5054140b410",
    "multipoint": "62680729832f9259b5cefdda5afe353c08ab1ff79d40db6175eb9b2d6e50d2e3",
    "literal-forms": "53f3a9b46b52c64c8fc35ac87936bdeda0097ca55484fdabcc5b45064e41a522",
    "sep6": "7bcc54844d071e18a66802daa6bf6900584da1ea5c0dd770560fac79977cbc4a",
}


@pytest.mark.parametrize("name", FRONT_END_DIGESTS)
def test_front_end_output_is_pinned(name):
    if name == "sep6":
        g = parse_model_file(SEP6)
    else:
        g = parse_model({**BUILTIN_SOURCES, "literal-forms": LITERAL_FORMS_SOURCE}[name])
    text = repr(g) + repr(g.plan) + repr(insert_expansions(g).graph)
    assert hashlib.sha256(text.encode()).hexdigest() == FRONT_END_DIGESTS[name]


PARSE_CORPUS = json.loads((Path(__file__).resolve().parent / "data" / "parse_corpus.json")
                          .read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", PARSE_CORPUS)
def test_parse_corpus_replays_exactly(name):
    # about 400 mutations of each text, with the graph and plan or the error
    # (type, message, line, column) that parsing gave when the corpus was
    # written (tests/make_parse_corpus.py)
    from make_parse_corpus import apply, base_texts, digest, outcome

    text = base_texts()[name]
    assert digest(text) == PARSE_CORPUS[name]["sha256"], "base text changed; rewrite the corpus"
    changed = []
    for case in PARSE_CORPUS[name]["cases"]:
        mutated = apply(text, case["edits"])
        if outcome(mutated) != case["outcome"]:
            changed.append((mutated, case["outcome"], outcome(mutated)))
    assert not changed, f"{len(changed)} outcomes changed, first: {changed[0]}"


class TestPrettyPrint:
    @pytest.mark.parametrize("name", ["simple", "piston", "multipoint"])
    def test_builtin_round_trip(self, name):
        g = builtin_model(name)
        again = parse_model(pretty_print(g))
        assert isomorphic(g, again)

    @pytest.mark.parametrize("source", [
        "input x ~ Normal(-1, 2)\noutput f = -x^2 + 2^-x * (x - -3)\n",
        "input x ~ Uniform(-2, -0.5)\noutput f = -(x * 1) - -2.5\n",
        "input x ~ Normal(0,1)\nparam c = -3\noutput f = c * x + c\n",
        "input a ~ Normal(0,1)\ninput b ~ Uniform(0,1)\ng = a + b\noutput f = g ^ g\n",
        "input x ~ Normal(0,1)\noutput f = pi\n",
        "input x ~ Normal(0,1)\noutput f = x\noutput h = sqrt(x + 4)\n",
        "input x ~ Normal(0,1)\noutput f = (-0) ^ 2 + x\n",
        "input x ~ Normal(0,1)\na = sin(x)\noutput g = x * 3\noutput f = a\n",
        "input x ~ Normal(0,1)\noutput f = 2\noutput g = 3 * x\n",
        "input x ~ Normal(0,1)\noutput f = x\n",
        "input x ~ Normal(0,1)\noutput x_ = x\noutput f = 2 * x\n",
        OUTPUT_SORTS_SOURCE,
        SEP6.read_text(),
        LITERAL_FORMS_SOURCE,
    ])
    def test_round_trip_is_isomorphic(self, source):
        g = parse_model(source)
        again = parse_model(pretty_print(g))
        assert isomorphic(g, again)
        assert again.output_names == g.output_names
        point = [dist.from_standard(0.3) for dist in g.distributions]
        assert evaluate_single_point(again, point) == evaluate_single_point(g, point)
        # isomorphic compares the outputs in order
        assert isomorphic(replace(g, outputs=g.outputs[::-1]), again) == (len(g.outputs) == 1)

    def test_graph_with_expands_is_refused(self):
        transformed = insert_expansions(builtin_model("simple")).graph
        with pytest.raises(ValueError, match="^cannot pretty-print a graph containing "
                                             "expand operations$"):
            pretty_print(transformed)

    @pytest.mark.parametrize("name", ["sin", "2x"])
    def test_name_the_parser_would_refuse_prints_by_id(self, name):
        b = GraphBuilder()
        x = b.add_uncertain_input(name, Normal(0, 1))
        b.mark_output(b.add_operation("cos", [x], name=name), "f")
        assert pretty_print(b.build()) == ("input v0 ~ Normal(0, 1)\n"
                                           "v2 = cos(v0)\n"
                                           "output f = v2\n")

    def test_round_trip_idempotent(self):
        g = builtin_model("piston")
        once = pretty_print(g)
        twice = pretty_print(parse_model(once))
        assert once == twice

    def test_declarations_only_model(self):
        g = parse_model("input x ~ Normal(0,1)\nparam c = 2\n")
        text = pretty_print(g)
        assert "input x ~ Normal(0.0, 1.0)" in text
        assert "param c = 2.0" in text
        assert isomorphic(g, parse_model(text))

    def test_round_trip_preserves_semantics(self):
        g = builtin_model("piston")
        again = parse_model(pretty_print(g))
        point = [47.0, 0.012, 0.004]
        original = list(evaluate_single_point(g, point).values())[0]
        reparsed = list(evaluate_single_point(again, point).values())[0]
        assert reparsed == pytest.approx(original, rel=1e-15)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_programs_round_trip(self, seed):
        # seeded generator over a domain-safe expression subset
        import random

        rng = random.Random(seed)
        names = ["x", "y"]

        def expression(depth):
            if depth == 0:
                choice = rng.random()
                if choice < 0.4:
                    return rng.choice(names)
                value = round(rng.uniform(-5, 5), 3)
                return f"({value})" if value < 0 else str(value)
            choice = rng.random()
            if choice < 0.45:
                op = rng.choice(["+", "-", "*"])
                return f"({expression(depth - 1)} {op} {expression(depth - 1)})"
            if choice < 0.7:
                fn = rng.choice(["sin", "cos", "exp"])
                return f"{fn}({expression(depth - 1)})"
            if choice < 0.85:
                return f"-{expression(depth - 1)}"
            return f"({expression(depth - 1)}) ^ {rng.randint(0, 3)}"

        lines = ["input x ~ Normal(0, 1)", "input y ~ Uniform(-1, 1)", "param c = 1.5"]
        for i in range(rng.randint(1, 2)):
            lines.append(f"a{i} = {expression(2)}")
            names.append(f"a{i}")
        # outputs of an uncertain input, a param, an earlier assignment and
        # a fresh expression, in random order and under random names
        values = [rng.choice(["x", "y"]), "c", rng.choice(names[2:]), expression(3)]
        declared = rng.sample(["f", "g", "h", "x_", "a", "c_"], len(values))
        lines += [f"output {name} = {value}"
                  for name, value in zip(declared, rng.sample(values, len(values)))]
        source = "\n".join(lines) + "\n"

        g = parse_model(source)
        again = parse_model(pretty_print(g))
        assert isomorphic(g, again), source
        assert again.output_names == g.output_names == tuple(declared)
        point = [0.37, -0.21]
        expected = evaluate_single_point(g, point)
        assert list(expected) == declared
        assert evaluate_single_point(again, point) == pytest.approx(
            expected, rel=1e-14, abs=1e-14)


class TestIsomorphic:
    SOURCE = ("input x ~ Normal(0, 1)\n"
              "a = sin(x)\n"
              "b = cos(x)\n"
              "output f = a + b\n")

    def test_renaming_is_isomorphic(self):
        renamed = ("input y ~ Normal(0, 1)\n"
                   "s = sin(y)\n"
                   "c = cos(y)\n"
                   "output f = s + c\n")
        assert isomorphic(parse_model(self.SOURCE), parse_model(renamed))

    def test_independent_statements_in_another_order_are_not_isomorphic(self):
        # nodes are numbered in evaluation order, which follows the text
        swapped = ("input x ~ Normal(0, 1)\n"
                   "b = cos(x)\n"
                   "a = sin(x)\n"
                   "output f = a + b\n")
        assert not isomorphic(parse_model(self.SOURCE), parse_model(swapped))

    def test_dangling_operand_is_not_isomorphic(self):
        g = parse_model("input x ~ Normal(0, 1)\noutput f = sin(x)\n")
        (sin,) = g.operations
        dangling = replace(g, variables=g.variables + (VariableNode(3, "z"),),
                           operations=(sin._replace(inputs=(3,)),))
        assert not isomorphic(dangling, dangling)

    @pytest.mark.parametrize("fault", ["missing operand", "missing result", "missing output",
                                       "dangling output"])
    def test_graph_with_an_id_it_cannot_place_is_isomorphic_to_nothing(self, fault):
        g = parse_model("input x ~ Normal(0, 1)\noutput f = sin(x)\n")
        (sin,) = g.operations
        bad = {
            "missing operand": replace(g, operations=(sin._replace(inputs=(7,)),)),
            "missing result": replace(g, variables=g.variables[:1]),
            "missing output": replace(g, outputs=(5,)),
            "dangling output": replace(
                g, variables=g.variables + (VariableNode(3, "z"),),
                outputs=(3,)),
        }[fault]
        assert validate(bad)
        assert not isomorphic(bad, bad)
        assert not isomorphic(bad, g) and not isomorphic(g, bad)

    @pytest.mark.parametrize("fault", ["cycle", "self-read", "shuffled"])
    def test_graph_out_of_evaluation_order_is_isomorphic_to_nothing(self, fault):
        g = parse_model(self.SOURCE)
        sin, cos, add = g.operations
        bad = {
            "cycle": replace(g, operations=(sin._replace(inputs=(add.output,)), cos, add)),
            "self-read": replace(g, operations=(sin, cos, add._replace(
                inputs=(sin.output, add.output)))),
            "shuffled": replace(g, operations=(add, cos, sin)),
        }[fault]
        assert not isomorphic(bad, bad)
        assert not isomorphic(bad, g) and not isomorphic(g, bad)


class TestBuiltins:
    def test_unknown_model(self):
        with pytest.raises(UnknownModelError) as excinfo:
            builtin_model("nosuch")
        assert "unknown model" in str(excinfo.value)

    def test_piston_parameters_and_distributions(self):
        g = builtin_model("piston")
        assert g.distributions == (Normal(50.0, 10.0), Normal(0.01, 0.005),
                                   Normal(0.005, 0.002))
        declared = {v.name: v.constant_value for v in g.variables
                    if v.constant_value is not None and not v.name.startswith("_")}
        assert declared == {"k_spring": 3000.0, "P0": 100000.0,
                            "Ta": 293.0, "T0": 350.0}

    def test_piston_size_and_sparsity(self):
        g = builtin_model("piston")
        assert g.elementary_operation_count() >= 30
        rows = compute_influence_matrix(g)
        total = len(rows)
        for axis in range(3):
            dependent = sum(1 for sig in rows.values() if axis in sig)
            assert 0 < dependent < total  # strict subset per input

    def test_piston_mean_point_against_hand_coded_oracle(self):
        g = builtin_model("piston")
        value = evaluate_single_point(g, [50.0, 0.01, 0.005])["C"]
        assert value == pytest.approx(piston_cycle_time(50.0, 0.01, 0.005), rel=1e-12)

    def test_piston_random_points_against_oracle(self):
        g = builtin_model("piston")
        for M, S, V0 in [(42.0, 0.013, 0.006), (55.0, 0.008, 0.0045), (61.0, 0.02, 0.009)]:
            value = evaluate_single_point(g, [M, S, V0])["C"]
            assert value == pytest.approx(piston_cycle_time(M, S, V0), rel=1e-12)

    def test_simple_model_values(self):
        g = builtin_model("simple")
        assert evaluate_single_point(g, [0.0, 0.0])["f"] == pytest.approx(2.0)
        assert evaluate_single_point(g, [math.pi / 2, 0.0])["f"] == pytest.approx(1.0)

    def test_multipoint_structure(self):
        g = builtin_model("multipoint")
        assert g.distributions == (Normal(0.3, 0.03), Normal(0.5, 0.05))
        rows = compute_influence_matrix(g)
        per_segment = [sum(1 for sig in rows.values() if sig == (axis,))
                       for axis in range(2)]
        assert per_segment[0] == per_segment[1] == 8
        assert sum(1 for sig in rows.values() if sig == (0, 1)) == 1

    def test_multipoint_value(self):
        def segment(v):
            return math.exp(math.sin(v)) * v * v + math.log(1 + v * v)

        g = builtin_model("multipoint")
        value = evaluate_single_point(g, [0.31, 0.52])["f"]
        assert value == pytest.approx(segment(0.31) + segment(0.52), rel=1e-14)
