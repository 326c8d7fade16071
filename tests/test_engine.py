import dataclasses
import math
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest

from uqc import (
    GraphBuilder,
    Normal,
    builtin_model,
    engine,
    compute_influence_matrix,
    evaluate_amtc,
    evaluate_naive,
    evaluate_on_samples,
    evaluate_single_point,
    expand_tensor,
    gauss_rule,
    graph as graph_module,
    grid_for,
    grid_input_vector,
    insert_expansions,
    parse_model,
    strip_expansions,
    tensor_grid,
    transform,
    validate,
)
from uqc.engine import EvaluationReport
from uqc.methods import sample_inputs
from uqc.errors import DimensionMismatchError, DomainError, SignatureMismatchError, SignatureNotSubsetError

BUILTINS = ["simple", "piston", "multipoint"]
# grids with k >= 5 push the piston's inner square root negative
SAFE_K = {"simple": range(2, 8), "piston": range(2, 5), "multipoint": range(2, 8)}


class TestExpandTensor:
    def test_expand_first_axis_into_two(self):
        out = expand_tensor(np.array([1.0, 2.0]), (0,), (0, 1), (2, 2))
        assert out.tolist() == [1.0, 1.0, 2.0, 2.0]

    def test_expand_second_axis_into_two(self):
        out = expand_tensor(np.array([3.0, 4.0]), (1,), (0, 1), (2, 2))
        assert out.tolist() == [3.0, 4.0, 3.0, 4.0]

    def test_scalar_broadcast(self):
        out = expand_tensor(np.array([7.0]), (), (0,), (3,))
        assert out.tolist() == [7.0, 7.0, 7.0]

    def test_middle_axis_insertion(self):
        # oracle: enumerate indices explicitly for sig {0,2} -> {0,1,2}
        data = np.arange(6.0)
        sizes = (2, 4, 3)
        out = expand_tensor(data, (0, 2), (0, 1, 2), sizes)
        expected = [data[i0 * 3 + i2]
                    for i0 in range(2) for i1 in range(4) for i2 in range(3)]
        assert out.tolist() == expected

    def test_not_a_subset(self):
        with pytest.raises(SignatureNotSubsetError):
            expand_tensor(np.array([1.0, 2.0]), (0,), (1, 2), (2, 2, 2))

    @pytest.mark.parametrize("seed", range(12))
    def test_random_signatures_against_index_oracle(self, seed):
        # oracle: walk every multi-index of the target space and read the
        # source entry at the restricted index
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 5))
        sizes = tuple(int(s) for s in rng.integers(2, 5, dim))
        to = tuple(sorted(rng.choice(dim, size=int(rng.integers(1, dim + 1)),
                                     replace=False)))
        n_from = int(rng.integers(0, len(to) + 1))
        source_sig = tuple(sorted(rng.choice(to, size=n_from, replace=False)))
        source_sizes = [sizes[a] for a in source_sig]
        data = rng.standard_normal(int(np.prod(source_sizes, initial=1)))

        result = expand_tensor(data, source_sig, to, sizes)

        strides = {}
        acc = 1
        for axis in reversed(source_sig):
            strides[axis] = acc
            acc *= sizes[axis]
        expected = []
        for flat in range(int(np.prod([sizes[a] for a in to]))):
            remainder = flat
            index = {}
            for axis in reversed(to):
                index[axis] = remainder % sizes[axis]
                remainder //= sizes[axis]
            expected.append(data[sum(index[a] * strides[a] for a in source_sig)])
        np.testing.assert_array_equal(result, expected)


class TestNaive:
    def test_simple_counts_at_k3(self):
        g = builtin_model("simple")
        report = evaluate_naive(g, grid_for(g.distributions, 3))
        assert report.total_scalar_evals == 36
        assert all(count == 9 for count in report.op_eval_counts.values())
        assert report.expansion_copies == 0
        assert report.equivalent_model_evals == 9.0

    def test_zero_operation_model(self):
        g = parse_model("input x ~ Uniform(-1,1)\noutput f = x\n")
        grid = grid_for(g.distributions, 4)
        report = evaluate_naive(g, grid)
        assert report.total_scalar_evals == 0
        assert report.equivalent_model_evals == 0.0
        np.testing.assert_array_equal(report.outputs["f"], grid_input_vector(grid, 0))

    def test_constant_only_operations_run_once_but_count_the_full_grid(self, monkeypatch):
        # Operations 21, 28 and 48 of piston read only constants: the executor
        # runs each on 1-element arrays, while the naive counts are the
        # full-grid schedule.
        g = builtin_model("piston")
        execute, produced = engine._execute, []

        def spy(*args):
            values, counts = execute(*args)
            produced.append(counts)
            return values, counts

        monkeypatch.setattr(engine, "_execute", spy)
        report = evaluate_naive(g, grid_for(g.distributions, 3))
        (counts,) = produced
        assert {op_id for op_id, size in counts.items() if size != 27} == {21, 28, 48}
        assert [counts[op_id] for op_id in (21, 28, 48)] == [1, 1, 1]
        assert [report.op_eval_counts[op_id] for op_id in (21, 28, 48)] == [27, 27, 27]

    def test_piston_out_of_domain_grid_names_sqrt(self):
        g = builtin_model("piston")
        with pytest.raises(DomainError) as excinfo:
            evaluate_naive(g, grid_for(g.distributions, 8))
        assert excinfo.value.op_kind == "sqrt"

    def test_rejects_transformed_graph(self):
        # every vector evaluator meets the one check in Graph.plan
        tg = insert_expansions(builtin_model("piston"))
        grid = grid_for(tg.graph.distributions, 3)
        for run in (lambda: evaluate_naive(tg.graph, grid),
                    lambda: evaluate_on_samples(tg.graph, grid.points()),
                    lambda: evaluate_single_point(tg.graph, grid.points()[0])):
            with pytest.raises(SignatureMismatchError, match="evaluate_amtc"):
                run()

    def test_rejects_mismatched_grid(self):
        g = builtin_model("simple")
        with pytest.raises(DimensionMismatchError):
            evaluate_naive(g, grid_for([Normal(0, 1)], 3))
        with pytest.raises(DimensionMismatchError):
            evaluate_naive(g, grid_for([Normal(0, 1), Normal(5, 1)], 3))

    def test_matches_single_point_semantics(self):
        for name, k in (("simple", 4), ("piston", 3)):
            g = builtin_model(name)
            grid = grid_for(g.distributions, k)
            report = evaluate_naive(g, grid)
            output = g.first_output_name()
            points = grid.points()
            for p in range(0, grid.total_points, 7):
                scalar = evaluate_single_point(g, points[p])[output]
                vector = report.outputs[output][p]
                assert vector == pytest.approx(scalar, rel=1e-14, abs=1e-14)


class TestAmtc:
    def test_simple_counts_at_k3(self):
        g = builtin_model("simple")
        tg = insert_expansions(g)
        report = evaluate_amtc(tg, grid_for(g.distributions, 3))
        assert report.total_scalar_evals == 18  # 3 + 3 + 3 + 9
        assert report.expansion_copies == 18    # two expands of size 9
        assert report.equivalent_model_evals == pytest.approx(4.5)
        counts = {g.operation_by_id[op_id].kind: count
                  for op_id, count in report.op_eval_counts.items()
                  if op_id in g.operation_by_id}
        assert counts == {"cos": 3, "neg": 3, "exp": 3, "add": 9}

    @pytest.mark.parametrize("name", BUILTINS)
    def test_equivalence_with_naive(self, name):
        g = builtin_model(name)
        tg = insert_expansions(g)
        output = g.first_output_name()
        for k in SAFE_K[name]:
            grid = grid_for(g.distributions, k)
            naive = evaluate_naive(g, grid).outputs[output]
            fast = evaluate_amtc(tg, grid).outputs[output]
            np.testing.assert_allclose(fast, naive, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("name", BUILTINS)
    def test_count_law(self, name):
        g = builtin_model(name)
        tg = insert_expansions(g)
        rows = compute_influence_matrix(g)
        for k in SAFE_K[name]:
            grid = grid_for(g.distributions, k)
            report = evaluate_amtc(tg, grid)
            for op_id, signature in rows.items():
                assert report.op_eval_counts[op_id] == k ** len(signature)
            naive_total = g.elementary_operation_count() * k ** g.dim
            assert report.total_scalar_evals <= naive_total

    def test_simple_scaling_ratio(self):
        g = builtin_model("simple")
        tg = insert_expansions(g)
        for k in range(2, 21):
            grid = grid_for(g.distributions, k)
            amtc_total = evaluate_amtc(tg, grid).total_scalar_evals
            naive_total = evaluate_naive(g, grid).total_scalar_evals
            assert amtc_total == k * k + 3 * k
            assert naive_total == 4 * k * k

    def test_mixed_axis_sizes(self):
        g = builtin_model("simple")
        tg = insert_expansions(g)
        grid = tensor_grid([gauss_rule(g.distributions[0], 2),
                            gauss_rule(g.distributions[1], 5)])
        report = evaluate_amtc(tg, grid)
        counts = {g.operation_by_id[op_id].kind: count
                  for op_id, count in report.op_eval_counts.items()}
        assert counts == {"cos": 2, "neg": 5, "exp": 5, "add": 10}
        naive = evaluate_naive(g, grid)
        np.testing.assert_allclose(report.outputs["f"], naive.outputs["f"],
                                   rtol=1e-12, atol=0)

    @pytest.mark.parametrize("name, sizes", [
        ("simple", (3, 2)),
        ("multipoint", (3, 5)),
        ("piston", (2, 3, 4)),
        ("piston", (4, 2, 3)),
    ])
    def test_equivalence_with_unequal_axis_sizes(self, name, sizes):
        # unequal sizes per axis expose any flattening-order mistake that
        # symmetric grids would mask
        g = builtin_model(name)
        tg = insert_expansions(g)
        output = g.first_output_name()
        grid = tensor_grid([gauss_rule(dist, k)
                            for dist, k in zip(g.distributions, sizes)])
        naive = evaluate_naive(g, grid).outputs[output]
        fast = evaluate_amtc(tg, grid).outputs[output]
        np.testing.assert_allclose(fast, naive, rtol=1e-12, atol=0)

    def test_three_level_signature_chain_is_single_hop(self):
        # {} -> {0} -> {0,1} -> {0,1,2}: each crossing edge gets exactly
        # one expand node straight to the consumer's signature
        g = parse_model(
            "input a ~ Normal(0,1)\ninput b ~ Normal(0,1)\ninput c ~ Normal(0,1)\n"
            "base = 2 + 1\n"
            "first = base * a\n"
            "second = first + b\n"
            "output third = second * c\n")
        tg = insert_expansions(g)
        signatures = tg.graph.signatures
        expands = [(signatures[op.inputs[0]], op.expand_to)
                   for op in tg.graph.operations if op.kind == "expand"]
        assert ((), (0,)) in expands          # base feeding `* a`
        assert ((0,), (0, 1)) in expands      # first feeding `+ b`
        assert ((0, 1), (0, 1, 2)) in expands  # second feeding `* c`
        grid = grid_for(g.distributions, 3)
        naive = evaluate_naive(g, grid).outputs["third"]
        fast = evaluate_amtc(tg, grid).outputs["third"]
        np.testing.assert_allclose(fast, naive, rtol=1e-12, atol=0)

    def test_single_input_model_counts_match_naive(self):
        g = parse_model("input x ~ Normal(0,1)\noutput f = exp(sin(x)) + x\n")
        tg = insert_expansions(g)
        grid = grid_for(g.distributions, 6)
        fast = evaluate_amtc(tg, grid)
        naive = evaluate_naive(g, grid)
        assert fast.total_scalar_evals == naive.total_scalar_evals
        assert fast.expansion_copies == 0

    def test_full_dependency_model_has_no_savings(self):
        g = parse_model("input a ~ Normal(0,1)\ninput b ~ Normal(0,1)\n"
                        "s = a + b\noutput f = sin(s)\n")
        tg = insert_expansions(g)
        grid = grid_for(g.distributions, 4)
        fast = evaluate_amtc(tg, grid)
        naive = evaluate_naive(g, grid)
        assert fast.total_scalar_evals == naive.total_scalar_evals == 2 * 16
        np.testing.assert_allclose(fast.outputs["f"], naive.outputs["f"],
                                   rtol=1e-12, atol=0)

    def test_partial_signature_output_is_presented_on_full_grid(self):
        g = parse_model("input a ~ Normal(0,1)\ninput b ~ Normal(0,1)\n"
                        "output f = cos(a)\n")
        tg = insert_expansions(g)
        grid = grid_for(g.distributions, 3)
        fast = evaluate_amtc(tg, grid)
        naive = evaluate_naive(g, grid)
        assert fast.outputs["f"].shape == (grid.total_points,)
        np.testing.assert_allclose(fast.outputs["f"], naive.outputs["f"],
                                   rtol=1e-12, atol=0)

    def test_buffer_read_by_an_expand_view_is_not_reused(self):
        # `product` reads x after `square` does, and through an expand view
        # in the transformed graph, so `square`, of x's shape, must not
        # overwrite x in place.
        b = GraphBuilder()
        a = b.add_uncertain_input("a", Normal(0, 1))
        c = b.add_uncertain_input("c", Normal(0, 1))
        x = b.add_operation("sin", [a])
        square = b.add_operation("mul", [x, x], name="square")
        product = b.add_operation("mul", [x, c], name="product")
        b.mark_output(square, "square")
        b.mark_output(product, "product")
        transformed = insert_expansions(b.build())
        grid = grid_for(transformed.source.distributions, 3)
        fast = evaluate_amtc(transformed, grid)
        naive = evaluate_naive(transformed.source, grid)
        for name in ("square", "product"):
            np.testing.assert_array_equal(fast.outputs[name], naive.outputs[name])

    def test_stripping_expands_among_the_nodes_leaves_refused_holes(self):
        # The same source, hand-built with each expand listed right after
        # its input: stripping the expands leaves holes in the ids.
        b = GraphBuilder()
        a = b.add_uncertain_input("a", Normal(0, 1))
        c = b.add_uncertain_input("c", Normal(0, 1))
        x = b.add_operation("sin", [a])
        x_wide = b.add_operation("expand", [x], expand_to=(0, 1))
        square = b.add_operation("mul", [x, x], name="square")
        c_wide = b.add_operation("expand", [c], expand_to=(0, 1))
        product = b.add_operation("mul", [x_wide, c_wide], name="product")
        b.mark_output(square, "square")
        b.mark_output(product, "product")
        stripped = strip_expansions(b.build())
        assert validate(stripped) == ["node ids are not dense from 0"]
        with pytest.raises(ValueError, match="^node ids are not dense from 0$"):
            evaluate_amtc(insert_expansions(stripped), grid_for(stripped.distributions, 3))

    def test_parsed_model_keeps_the_buffer_behind_an_expand_view(self):
        # insert_expansions puts the expand of x before t1, its first reader,
        # so x's last reader is q = x*x, of x's shape; x*b reads x through
        # that expand view after q, so q must not overwrite x in place.
        g = parse_model("input a ~ Normal(0,1)\ninput b ~ Normal(0,1)\n"
                        "x = sin(a)\nt1 = x * b\nq = x * x\n"
                        "output f = t1 + q * b + x * b\n")
        grid = grid_for(g.distributions, 3)
        fast = evaluate_amtc(insert_expansions(g), grid)
        naive = evaluate_naive(g, grid)
        np.testing.assert_array_equal(fast.outputs["f"], naive.outputs["f"])

    def test_runs_the_source_graph_without_rebuilding_it(self):
        g = builtin_model("piston")
        tg = insert_expansions(g)
        grid = grid_for(g.distributions, 3)
        with patch.object(transform, "strip_expansions", wraps=strip_expansions) as strip, \
                patch.object(graph_module, "_violations",
                             wraps=graph_module._violations) as walk, \
                patch.object(graph_module, "topo_sort", wraps=graph_module.topo_sort) as sort, \
                patch.object(engine, "_execute", wraps=engine._execute) as execute:
            report = evaluate_amtc(tg, grid)
        # one walk, g's, which checks g, its evaluation order too, and derives
        # the signatures that expansion_copies reads to count the copies; so
        # nothing sorts
        assert (strip.call_count, walk.call_count, sort.call_count) == (0, 1, 0)
        assert execute.call_count == 1 and execute.call_args.args[0] is g
        assert "graph" not in vars(tg)
        assert bits(report.outputs["C"]) == bits(evaluate_naive(g, grid).outputs["C"])

    def test_piston_out_of_domain_matches_naive_failure(self):
        g = builtin_model("piston")
        tg = insert_expansions(g)
        with pytest.raises(DomainError):
            evaluate_amtc(tg, grid_for(g.distributions, 5))
        with pytest.raises(DomainError):
            evaluate_naive(g, grid_for(g.distributions, 5))


class TestSinglePoint:
    def test_simple_values(self):
        g = builtin_model("simple")
        assert evaluate_single_point(g, [0.0, 0.0])["f"] == pytest.approx(2.0)
        assert evaluate_single_point(g, [math.pi / 2, 0.0])["f"] == pytest.approx(1.0)

    def test_dimension_check(self):
        g = builtin_model("simple")
        with pytest.raises(DimensionMismatchError):
            evaluate_single_point(g, [1.0])
        with pytest.raises(DimensionMismatchError,
                           match="^samples have 3 columns but the model has 2 inputs$"):
            evaluate_on_samples(g, np.zeros((4, 3)))

    def test_extra_axes_are_refused(self):
        # numpy would broadcast or reject these with its own error
        with pytest.raises(DimensionMismatchError,
                           match=r"^samples of shape \(2, 2, 2\) have more than 2 axes$"):
            evaluate_on_samples(builtin_model("multipoint"), np.zeros((2, 2, 2)))
        g = parse_model("input x ~ Normal(0,1)\noutput f = x\n")
        with pytest.raises(DimensionMismatchError,
                           match=r"^point of shape \(1, 1\) has more than 1 axis$"):
            evaluate_single_point(g, [[0.3]])


class TestSamples:
    def test_zero_rows_give_empty_outputs(self):
        # 2*x broadcasts a 1-element constant against 0 samples
        g = parse_model("input x ~ Normal(0,1)\noutput f = 2*x\noutput c = 2.5\n")
        outputs = evaluate_on_samples(g, np.zeros((0, 1)))
        assert list(outputs) == ["f", "c"]
        for values in outputs.values():
            assert values.shape == (0,) and values.dtype == np.float64

    def test_zero_rows_read_the_plan(self):
        # a graph with expands has no plan, at zero rows as at one
        g = insert_expansions(builtin_model("simple")).graph
        for n in (0, 1):
            with pytest.raises(SignatureMismatchError, match="evaluate_amtc"):
                evaluate_on_samples(g, np.zeros((n, 2)))


class TestNonFiniteInputs:
    """Every value an engine holds is finite: what is not is refused where
    it enters."""

    def test_sample_refused_at_its_first_non_finite_row(self):
        g = parse_model("input u ~ Uniform(0,1)\ninput v ~ Uniform(0,1)\noutput f = u * v\n")
        samples = np.full((2 * engine._BLOCK + 5, 2), 0.5)
        samples[engine._BLOCK + 7, 1] = np.nan
        samples[engine._BLOCK + 9, 0] = -np.inf
        with pytest.raises(ValueError, match=f"^non-finite input at sample row "
                                             f"{engine._BLOCK + 7}: u=0.5, v=nan$"):
            evaluate_on_samples(g, samples)

    def test_overflowing_grid_nodes_are_refused_by_both_grid_engines(self):
        # finite parameters whose mapped Gauss nodes overflow: 1e308 + 1e308 * 1.73
        g = parse_model("input x ~ Normal(1e308, 1e308)\noutput f = x\n")
        with pytest.warns(RuntimeWarning, match="overflow"):
            grid = grid_for(g.distributions, 3)
        for run in (lambda: evaluate_naive(g, grid),
                    lambda: evaluate_amtc(insert_expansions(g), grid)):
            with pytest.raises(ValueError, match="^non-finite grid node inf of uncertain "
                                                 "input 'x' on axis 0$"):
                run()

    @staticmethod
    def builder_graph(constant=1.0, exponent=2.0):
        b = GraphBuilder()
        x = b.add_uncertain_input("x", Normal(0, 1))
        scaled = b.add_operation("mul", [x, b.add_constant(constant, "c")])
        b.mark_output(b.add_operation("pow_const", [scaled], exponent=exponent), "f")
        return b.build()

    @pytest.mark.parametrize("kwargs, message", [
        ({"constant": np.inf}, "^constant 'c' has non-finite value inf$"),
        ({"exponent": np.nan},
         r"^non-finite exponent nan in operation 4 \(pow_const\) of '_t3'$"),
    ], ids=["inf-constant", "nan-exponent"])
    def test_builder_constant_or_exponent_is_refused_by_every_evaluator(self, kwargs, message):
        g = self.builder_graph(**kwargs)
        grid = grid_for(g.distributions, 2)
        for run in (lambda: evaluate_naive(g, grid),
                    lambda: evaluate_amtc(insert_expansions(g), grid),
                    lambda: evaluate_on_samples(g, np.zeros((3, 1))),
                    lambda: evaluate_on_samples(g, np.zeros((0, 1))),
                    lambda: evaluate_single_point(g, [0.0])):
            with pytest.raises(ValueError, match=message):
                run()
        assert evaluate_single_point(self.builder_graph(), [1.5]) == {"f": 2.25}


class TestDomainGuards:
    def test_division_by_zero(self):
        g = parse_model("input x ~ Uniform(-1,1)\noutput f = 1 / x\n")
        grid = grid_for(g.distributions, 1)  # k=1 node sits exactly at 0
        with pytest.raises(DomainError) as excinfo:
            evaluate_naive(g, grid)
        assert excinfo.value.op_kind == "div"
        assert excinfo.value.point_index == 0

    def test_log_of_non_positive(self):
        g = parse_model("input x ~ Uniform(-1,1)\noutput f = log(x)\n")
        with pytest.raises(DomainError) as excinfo:
            evaluate_naive(g, grid_for(g.distributions, 2))
        assert excinfo.value.op_kind == "log"

    def test_sqrt_of_negative(self):
        g = parse_model("input x ~ Uniform(-4,-2)\noutput f = sqrt(x)\n")
        with pytest.raises(DomainError) as excinfo:
            evaluate_naive(g, grid_for(g.distributions, 2))
        assert excinfo.value.op_kind == "sqrt"

    def test_fractional_power_of_negative(self):
        g = parse_model("input x ~ Uniform(-4,-2)\noutput f = x ^ 0.5\n")
        with pytest.raises(DomainError):
            evaluate_naive(g, grid_for(g.distributions, 2))

    def test_negative_power_of_zero(self):
        g = parse_model("input x ~ Uniform(-1,1)\noutput f = x ^ -1\n")
        with pytest.raises(DomainError):
            evaluate_naive(g, grid_for(g.distributions, 1))

    def test_both_engines_report_the_same_grid_point(self):
        # sqrt(-u1) fails where u1 > 0: the first such point of the 5x5 grid
        # is u1's node 3 with u2's node 0, flat index 3 * 5 + 0 = 15
        g = parse_model("input u1 ~ Normal(0,1)\ninput u2 ~ Normal(0,1)\n"
                        "output f = sqrt(-u1) + u2\n")
        grid = grid_for(g.distributions, 5)
        errors = []
        for run in (lambda: evaluate_naive(g, grid),
                    lambda: evaluate_amtc(insert_expansions(g), grid)):
            with pytest.raises(DomainError) as excinfo:
                run()
            errors.append(excinfo.value)
        assert [e.point_index for e in errors] == [15, 15]
        assert [str(e) for e in errors] == [
            "sqrt of negative value in operation 4 (sqrt) at point index 15"] * 2

    @pytest.mark.parametrize("block", [engine._BLOCK, 3])
    @pytest.mark.parametrize("source, failing_row", [
        ("input x ~ Normal(0,1)\noutput f = sqrt(x)\n", 0),  # a domain violation
        ("input u ~ Uniform(0,1)\noutput f = exp(1000*u)\n", 6),  # a non-finite result
    ])
    def test_errors_carry_no_exception_context(self, monkeypatch, source, failing_row, block):
        # A blocked run re-runs unblocked while it handles its block's error,
        # and an overflow is found while FloatingPointError is handled:
        # neither may show up as the context of the error raised.
        monkeypatch.setattr(engine, "_BLOCK", block)
        g = parse_model(source)
        grid = grid_for(g.distributions, 7)
        points = grid.points()
        for run in (lambda: evaluate_naive(g, grid),
                    lambda: evaluate_amtc(insert_expansions(g), grid),
                    lambda: evaluate_on_samples(g, points),
                    lambda: evaluate_single_point(g, points[failing_row])):
            with pytest.raises(DomainError) as excinfo:
                run()
            assert excinfo.value.__cause__ is None
            assert excinfo.value.__context__ is None or excinfo.value.__suppress_context__

    def test_every_evaluator_reports_the_first_failing_operation(self):
        # Both sqrts fail.  The naive order is [2, 4, 6, 8]: sqrt(u1*u2)
        # (op 4) fails first, at u1 node 0 with u2 node 1 (flat index 1).
        # In the transformed graph op 4 waits on expands with higher ids,
        # which must not let sqrt(u1) (op 6, failing at point 0) run first.
        g = parse_model("input u1 ~ Normal(0,1)\ninput u2 ~ Normal(0,1)\n"
                        "output f = sqrt(u1*u2) + sqrt(u1)\n")
        grid = grid_for(g.distributions, 3)
        errors = []
        for run in (lambda: evaluate_naive(g, grid),
                    lambda: evaluate_amtc(insert_expansions(g), grid),
                    lambda: evaluate_on_samples(g, grid.points())):
            with pytest.raises(DomainError) as excinfo:
                run()
            errors.append(excinfo.value)
        assert [(e.op_id, e.op_kind, e.point_index) for e in errors] == [(4, "sqrt", 1)] * 3
        message = "sqrt of negative value in operation 4 (sqrt) at point index 1"
        sample = tuple(grid.points()[1].tolist())
        assert [str(e) for e in errors] == [message, message,
                                            f"{message}, input sample {sample}"]

    def test_non_finite_result_raises_from_every_evaluator(self):
        # exp(1000 u) overflows where u > 0.7098; of u's nodes 0.11, 0.5
        # and 0.89 that is node 2.  The first exp is operation 4.
        g = parse_model("input u ~ Uniform(0,1)\noutput f = exp(1000*u) - exp(1000*u)\n")
        grid = grid_for(g.distributions, 3)
        errors = []
        for run in (lambda: evaluate_naive(g, grid),
                    lambda: evaluate_amtc(insert_expansions(g), grid),
                    lambda: evaluate_on_samples(g, grid.points()),
                    lambda: evaluate_single_point(g, grid.points()[2])):
            with pytest.raises(DomainError) as excinfo:
                run()
            errors.append(excinfo.value)
        assert [(e.op_id, e.op_kind, e.point_index, e.reason) for e in errors] == \
            [(4, "exp", 2, "non-finite result inf")] * 3 + [(4, "exp", 0, "non-finite result inf")]
        assert str(errors[0]) == "non-finite result inf in operation 4 (exp) at point index 2"

    def test_infinite_sample_is_refused_at_its_row(self):
        # inf - inf would be NaN: the infinite input is refused before any
        # operation runs
        g = parse_model("input u ~ Uniform(0,1)\noutput f = u - u\n")
        with pytest.raises(ValueError, match="^non-finite input at sample row 1: u=inf$"):
            evaluate_on_samples(g, np.array([[0.5], [np.inf]]))

    def test_non_finite_operand_is_not_the_operations_fault(self):
        # exp(inf) would be inf without a flag: the infinite input is
        # refused, while exp(900) still overflows in the operation
        g = parse_model("input u ~ Uniform(0,1)\noutput f = exp(1000*u)\n")
        samples = np.array([[np.inf], [0.9]])
        with pytest.raises(ValueError, match="^non-finite input at sample row 0: u=inf$"):
            evaluate_on_samples(g, samples)
        with pytest.raises(ValueError, match="^non-finite input at sample row 0: u=inf$"):
            evaluate_single_point(g, samples[0])
        with pytest.raises(DomainError, match="non-finite result inf") as excinfo:
            evaluate_single_point(g, samples[1])
        assert (excinfo.value.op_kind, excinfo.value.point_index) == ("exp", 0)

    def test_underflow_to_zero_is_fine(self):
        g = parse_model("input u ~ Uniform(1,2)\noutput f = exp(-1000*u)\n")
        report = evaluate_naive(g, grid_for(g.distributions, 3))
        np.testing.assert_array_equal(report.outputs["f"], np.zeros(3))

    def test_integer_power_of_negative_is_fine(self):
        g = parse_model("input x ~ Uniform(-2,-1)\noutput f = x ^ 3\n")
        report = evaluate_naive(g, grid_for(g.distributions, 2))
        assert np.all(report.outputs["f"] < 0)


class TestBlocking:
    def test_blocks_bit_identical_on_samples(self):
        g = builtin_model("multipoint")
        samples = sample_inputs(g, 3 * engine._BLOCK + 123, 0)
        assert_blocked_run_identical(lambda: evaluate_on_samples(g, samples), len(samples))

    def test_blocks_bit_identical_on_piston_samples(self, monkeypatch):
        g = builtin_model("piston")
        samples = np.column_stack([
            np.full(20000, 50.0) + np.linspace(-5, 5, 20000),
            np.full(20000, 0.01),
            np.full(20000, 0.005),
        ])
        # blocks of 4096 split the 20 000 samples into five
        monkeypatch.setattr(engine, "_BLOCK", 4096)
        assert_blocked_run_identical(lambda: evaluate_on_samples(g, samples), len(samples))

    def test_blocks_bit_identical_on_naive_grid(self):
        g = parse_model("input a ~ Normal(0,1)\ninput b ~ Uniform(0,1)\n"
                        "input c ~ Normal(0,1)\noutput f = (cos(a) + b) * 3 + exp(-c)\n")
        grid = tensor_grid([gauss_rule(dist, 40) for dist in g.distributions])
        outputs = assert_blocked_run_identical(
            lambda: {"f": evaluate_naive(g, grid).outputs["f"]}, grid.total_points)
        assert bits(outputs["f"]) == bits(evaluate_amtc(insert_expansions(g), grid).outputs["f"])

    def test_amtc_bit_identical_to_naive_on_wide_grid(self):
        # the last two operations cover 2 x 64 x 64 points and broadcast
        # values of smaller signatures
        g = parse_model("input a ~ Normal(0,1)\ninput b ~ Normal(0,1)\n"
                        "input c ~ Normal(0,1)\noutput f = (cos(a) + b) * 3 + exp(-c)\n")
        grid = tensor_grid([gauss_rule(dist, k) for dist, k in zip(g.distributions, (2, 64, 64))])
        fast = evaluate_amtc(insert_expansions(g), grid)
        assert bits(fast.outputs["f"]) == bits(evaluate_naive(g, grid).outputs["f"])


def bits(array) -> bytes:
    return np.ascontiguousarray(array).tobytes()


def assert_blocked_run_identical(evaluate, n: int) -> dict:
    """`evaluate` over n points runs the plan over whole blocks, in order,
    and gives the same bits as a single block.  Returns the single-block
    outputs."""
    with patch.object(engine, "_execute", wraps=engine._execute) as spy:
        blocked = evaluate()
    block = engine._BLOCK
    assert [call.args[2][0] for call in spy.call_args_list] == \
        [block] * (n // block) + [n % block]
    with patch.object(engine, "_BLOCK", n):
        whole = evaluate()
    for name, vector in whole.items():
        assert bits(blocked[name]) == bits(vector), name
    return whole


def traced_peak(evaluate) -> int:
    """Peak bytes allocated while `evaluate` runs."""
    tracemalloc.start()
    try:
        evaluate()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    # Values die after their last reader and dying buffers are reused, so
    # multipoint's 17 operations need about 3 live vectors.
    MAX_VECTORS = 6

    def test_samples_peak_and_caller_array_untouched(self):
        g = builtin_model("multipoint")
        n = 200_000
        evaluate_on_samples(g, np.zeros((4, 2)) + 0.5)  # build the cached plan
        samples = np.random.default_rng(0).normal([0.3, 0.5], [0.03, 0.05], (n, 2))
        before = samples.copy()
        peak = traced_peak(lambda: evaluate_on_samples(g, samples))
        assert peak <= self.MAX_VECTORS * 8 * n
        np.testing.assert_array_equal(samples, before)
        assert not np.shares_memory(evaluate_on_samples(g, samples)["f"], samples)

    def test_naive_grid_peak_and_nodes_untouched(self):
        g = builtin_model("multipoint")
        grid = grid_for(g.distributions, 64)
        nodes = [rule.nodes.copy() for rule in grid.axes]
        evaluate_naive(g, grid)  # build the cached plan
        peak = traced_peak(lambda: evaluate_naive(g, grid))
        # two of the vectors are the grid's input columns
        assert peak <= self.MAX_VECTORS * 8 * grid.total_points
        for rule, before in zip(grid.axes, nodes):
            np.testing.assert_array_equal(rule.nodes, before)

    def test_blocked_samples_peak_is_one_output_plus_blocks(self):
        # Beyond one block, intermediates are block-sized and only the
        # output vector grows with n.
        g = builtin_model("multipoint")
        n = 200_000
        samples = np.random.default_rng(0).normal([0.3, 0.5], [0.03, 0.05], (n, 2))
        evaluate_on_samples(g, samples[:4])  # build the cached plan
        peak = traced_peak(lambda: evaluate_on_samples(g, samples))
        assert peak <= 8 * n + self.MAX_VECTORS * 8 * engine._BLOCK

    def test_identity_and_constant_outputs_are_fresh_vectors(self):
        g = parse_model("input x ~ Uniform(0,1)\noutput f = x\noutput c = 2.5\n")
        samples = np.linspace(0.1, 0.9, 5)[:, None]
        outputs = evaluate_on_samples(g, samples)
        assert not np.shares_memory(outputs["f"], samples)
        np.testing.assert_array_equal(outputs["f"], samples[:, 0])
        np.testing.assert_array_equal(outputs["c"], np.full(5, 2.5))

        # on a grid, both engines give every output as its own writable
        # vector: an input, a constant and a full-grid product alike
        g2 = parse_model("input x ~ Uniform(0,1)\ninput y ~ Uniform(0,1)\n"
                         "output f = x * y\noutput c = 2.5\n")
        for model in (g, g2):
            grid = grid_for(model.distributions, 3)
            for report in (evaluate_naive(model, grid),
                           evaluate_amtc(insert_expansions(model), grid)):
                for name, values in report.outputs.items():
                    assert values.flags.writeable, name
                    assert values.shape == (grid.total_points,), name
                    for rule in grid.axes:
                        assert not np.shares_memory(values, rule.nodes), name


class TestReport:
    def test_equality_ignores_wall_time(self):
        g = builtin_model("simple")
        grid = grid_for(g.distributions, 3)
        a = evaluate_naive(g, grid)
        assert a == evaluate_naive(g, grid)
        b = dataclasses.replace(a, wall_time_ms=a.wall_time_ms + 1.0)
        assert b.wall_time_ms != a.wall_time_ms
        assert a == b

    def test_equality_compares_outputs_and_counts(self):
        g = builtin_model("simple")
        a = evaluate_naive(g, grid_for(g.distributions, 3))
        changed = a.outputs["f"].copy()
        changed[4] += 1.0
        assert a != dataclasses.replace(a, outputs={"f": changed})
        assert a != dataclasses.replace(a, outputs={"g": a.outputs["f"]})
        assert a != dataclasses.replace(a, total_scalar_evals=a.total_scalar_evals + 1)
        assert (a == object()) is False
