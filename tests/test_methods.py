import json
import math
import re
import sys
import threading
import tracemalloc
import warnings
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqc import (
    BUILTIN_SOURCES,
    GraphBuilder,
    Normal,
    Uniform,
    builtin_model,
    engine,
    enumerate_basis,
    evaluate_amtc,
    evaluate_naive,
    evaluate_on_samples,
    evaluate_pce,
    gauss_rule,
    grid_for,
    insert_expansions,
    methods,
    moments_from_pce,
    monte_carlo,
    nipc_integration,
    nipc_regression,
    parse_model,
    sc_build,
    sc_eval,
    sc_moments,
    tensor_grid,
)
from uqc.basis import design_matrix, univariate_table
from uqc.cli import REGRESSION_SAMPLE_MULTIPLIER, run_pipeline
from uqc.errors import (
    DimensionMismatchError,
    DomainError,
    RankDeficientError,
    UnderdeterminedError,
)
from uqc.methods import PceCoefficients, _stddev_overwriting, sample_inputs
from uqc.quadrature import TensorGrid


def run_model(source, k):
    g = parse_model(source)
    grid = grid_for(g.distributions, k)
    report = evaluate_naive(g, grid)
    return g, grid, report.outputs[g.first_output_name()]


class TestNipcIntegration:
    def test_constant_model_projects_onto_constant_term(self):
        g, grid, outputs = run_model(
            "input x ~ Normal(0,1)\nparam c = 4.25\noutput f = c + 0 * x\n", 3)
        basis = enumerate_basis(3, g.distributions)
        alpha = nipc_integration(outputs, grid, basis).alpha
        assert alpha[0] == pytest.approx(4.25, abs=1e-12)
        np.testing.assert_allclose(alpha[1:], 0.0, atol=1e-12)

    def test_linear_sum_hand_projection(self):
        # f = u1 + u2: alpha with graded-lex basis [1, He1(u1), He1(u2)] is [0, 1, 1]
        g, grid, outputs = run_model(
            "input u1 ~ Normal(0,1)\ninput u2 ~ Normal(0,1)\noutput f = u1 + u2\n", 2)
        basis = enumerate_basis(1, g.distributions)
        coefficients = nipc_integration(outputs, grid, basis)
        np.testing.assert_allclose(coefficients.alpha, [0.0, 1.0, 1.0], atol=1e-12)
        mean, stddev = moments_from_pce(coefficients)
        assert mean == pytest.approx(0.0, abs=1e-12)
        assert stddev == pytest.approx(math.sqrt(2.0), rel=1e-12)

    @pytest.mark.parametrize("engine", ["naive", "amtc"])
    def test_cubic_polynomial_moments(self, engine):
        # f = u1^2 u2 + u2: E[f] = 0, E[f^2] = E[u1^4]E[u2^2] + 2E[u1^2]E[u2^2] + E[u2^2] = 6
        source = ("input u1 ~ Normal(0,1)\ninput u2 ~ Normal(0,1)\n"
                  "output f = u1^2 * u2 + u2\n")
        g = parse_model(source)
        grid = grid_for(g.distributions, 4)
        if engine == "naive":
            outputs = evaluate_naive(g, grid).outputs["f"]
        else:
            outputs = evaluate_amtc(insert_expansions(g), grid).outputs["f"]
        basis = enumerate_basis(3, g.distributions)
        mean, stddev = moments_from_pce(nipc_integration(outputs, grid, basis))
        assert mean == pytest.approx(0.0, abs=1e-10)
        assert stddev == pytest.approx(math.sqrt(6.0), rel=1e-10)

    def test_projection_recovers_known_expansion_exactly(self):
        # build f directly from known coefficients, then project it back
        dists = (Normal(1.0, 2.0), Uniform(-1.0, 3.0))
        basis = enumerate_basis(3, dists)
        rng = np.random.default_rng(7)
        alpha_true = rng.standard_normal(len(basis))
        grid = grid_for(dists, 4)  # k = p + 1 integrates degree 2p exactly
        values = design_matrix(basis, grid.points()) @ alpha_true
        alpha = nipc_integration(values, grid, basis).alpha
        np.testing.assert_allclose(alpha, alpha_true, rtol=1e-10, atol=1e-10)

    def test_engine_agnostic_coefficients(self):
        g = builtin_model("multipoint")
        grid = grid_for(g.distributions, 5)
        basis = enumerate_basis(3, g.distributions)
        a = nipc_integration(evaluate_naive(g, grid).outputs["f"], grid, basis).alpha
        b = nipc_integration(
            evaluate_amtc(insert_expansions(g), grid).outputs["f"], grid, basis).alpha
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-14)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([Normal(0.3, 1.5), Uniform(-1.0, 2.0)]),
                              st.integers(1, 5)), min_size=1, max_size=4),
           st.integers(0, 5), st.integers(0, 2**32 - 1))
    def test_sum_factorization_matches_design_matrix_projection(self, axes, p, seed):
        # Anisotropic grids with mixed families: the axis-by-axis contraction
        # gives the coefficients of the (points x coefficients) design-matrix
        # projection up to rounding.
        grid = tensor_grid([gauss_rule(dist, k) for dist, k in axes])
        basis = enumerate_basis(p, grid.distributions)
        values = np.random.default_rng(seed).standard_normal(grid.total_points)
        alpha = nipc_integration(values, grid, basis).alpha
        reference = (design_matrix(basis, grid.points()).T @ (grid.joint_weights * values)
                     / basis.norms)
        assert np.max(np.abs(alpha - reference)) <= 1e-12 * np.max(np.abs(reference))

    def test_builds_no_points_and_no_design_matrix(self):
        g, grid, outputs = run_model(BUILTIN_SOURCES["piston"], 3)
        basis = enumerate_basis(3, g.distributions)
        with patch.object(TensorGrid, "points", side_effect=AssertionError("points")) as points, \
                patch.object(methods, "design_matrix",
                             side_effect=AssertionError("design_matrix")) as matrix:
            alpha = nipc_integration(outputs, grid, basis).alpha
        assert points.call_count == 0 and matrix.call_count == 0
        reference = design_matrix(basis, grid.points()).T @ (grid.joint_weights * outputs)
        np.testing.assert_allclose(alpha, reference / basis.norms, rtol=1e-12, atol=1e-12)

    def test_basis_grid_mismatch(self):
        g, grid, outputs = run_model("input x ~ Normal(0,1)\noutput f = x\n", 3)
        wrong = enumerate_basis(2, [Uniform(-1, 1)])
        with pytest.raises(DimensionMismatchError):
            nipc_integration(outputs, grid, wrong)

    def test_values_must_have_one_entry_per_grid_point(self):
        g, grid, outputs = run_model("input x ~ Normal(0,1)\noutput f = x\n", 3)
        basis = enumerate_basis(2, g.distributions)
        for values in (outputs[:-1], outputs.reshape(1, -1)):
            with pytest.raises(DimensionMismatchError, match="grid of 3 points"):
                nipc_integration(values, grid, basis)
            with pytest.raises(DimensionMismatchError, match="grid of 3 points"):
                sc_build(values, grid)


class TestNipcRegression:
    def test_recovers_polynomial_coefficients(self):
        dists = (Normal(0.0, 1.0), Uniform(-1.0, 1.0))
        basis = enumerate_basis(3, dists)
        rng = np.random.default_rng(11)
        alpha_true = rng.standard_normal(len(basis))
        points = np.column_stack([rng.normal(0, 1, 3 * len(basis)),
                                  rng.uniform(-1, 1, 3 * len(basis))])
        values = design_matrix(basis, points) @ alpha_true
        fit = nipc_regression(points, values, basis)
        np.testing.assert_allclose(fit.alpha, alpha_true, atol=1e-8)
        assert fit.fit_details["residual"] == pytest.approx(0.0, abs=1e-8)
        assert fit.fit_details["rank"] == len(basis)

    def test_underdetermined(self):
        basis = enumerate_basis(3, [Normal(0, 1)])
        points = np.zeros((3, 1))
        with pytest.raises(UnderdeterminedError):
            nipc_regression(points, np.zeros(3), basis)

    def test_rank_deficient(self):
        basis = enumerate_basis(2, [Normal(0, 1)])
        points = np.full((6, 1), 2.0)  # one repeated sample point
        with pytest.raises(RankDeficientError):
            nipc_regression(points, np.ones(6), basis)

    def test_points_with_extra_axes_are_refused(self):
        basis = enumerate_basis(1, [Normal(0, 1), Normal(0, 1)])
        with pytest.raises(DimensionMismatchError,
                           match=r"^points of shape \(10, 2, 1\) have more than 2 axes$"):
            nipc_regression(np.zeros((10, 2, 1)), np.zeros(10), basis)

    @pytest.mark.parametrize("shape, message", [
        ((3, 2, 1), r"^points of shape \(3, 2, 1\) have more than 2 axes$"),
        ((3, 5), "^points have 5 coordinates, expected 2$"),
    ], ids=["three-axes", "five-coordinates"])
    def test_points_of_the_wrong_shape_are_refused_before_their_count(self, shape, message):
        # 3 points are too few for 10 coefficients, but their shape is wrong first
        basis = enumerate_basis(3, [Normal(0, 1)] * 2)
        with pytest.raises(DimensionMismatchError, match=message):
            nipc_regression(np.zeros(shape), np.zeros(3), basis)

    def test_constant_function(self):
        basis = enumerate_basis(2, [Normal(0, 1)])
        rng = np.random.default_rng(3)
        points = rng.normal(0, 1, (9, 1))
        fit = nipc_regression(points, np.full(9, 3.5), basis)
        assert fit.alpha[0] == pytest.approx(3.5, abs=1e-10)
        np.testing.assert_allclose(fit.alpha[1:], 0.0, atol=1e-10)

    def test_matches_integration_for_polynomials(self):
        g, grid, outputs = run_model(
            "input u1 ~ Normal(0,1)\ninput u2 ~ Normal(0,1)\n"
            "output f = u1^2 * u2 + u2\n", 4)
        basis = enumerate_basis(3, g.distributions)
        by_integration = nipc_integration(outputs, grid, basis).alpha
        rng = np.random.default_rng(5)
        points = rng.normal(0, 1, (3 * len(basis), 2))
        from uqc import evaluate_on_samples
        values = evaluate_on_samples(g, points)["f"]
        by_regression = nipc_regression(points, values, basis).alpha
        np.testing.assert_allclose(by_regression, by_integration, atol=1e-8)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_value_is_refused(self, bad):
        basis = enumerate_basis(2, [Normal(0, 1)])
        points = np.random.default_rng(3).normal(0, 1, (9, 1))
        values = np.ones(9)
        values[[4, 7]] = bad
        with pytest.raises(ValueError, match="sample row 4"):
            nipc_regression(points, values, basis)

    def test_non_finite_point_is_refused_before_lapack(self, capfd):
        # An inf point gives an inf design row; LAPACK's scaling step would
        # print an illegal-parameter message to stderr before failing.
        basis = enumerate_basis(2, [Normal(0, 1), Uniform(-1, 1)])
        points = np.random.default_rng(3).uniform(-1, 1, (12, 2))
        points[5, 0] = np.inf
        with pytest.raises(ValueError, match=r"sample row 5: point \(inf, "):
            nipc_regression(points, np.ones(12), basis)
        assert capfd.readouterr().err == ""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.sampled_from([Normal(0.3, 1.5), Uniform(-1.0, 2.0)]),
                    min_size=1, max_size=4),
           st.integers(0, 4), st.integers(2, 3), st.integers(0, 2**32 - 1))
    def test_solve_matches_numpy_lstsq(self, dists, p, multiplier, seed):
        # The QR fit refuses the designs whose rank numpy's SVD finds short,
        # and gives the same coefficients up to rounding.
        basis = enumerate_basis(p, dists)
        rng = np.random.default_rng(seed)
        draws = np.empty((len(dists), multiplier * len(basis)))
        for row, dist in zip(draws, dists):
            dist.sample(rng, row)
        points = draws.T
        values = rng.standard_normal(len(points))
        matrix = design_matrix(basis, points)
        rank = np.linalg.matrix_rank(matrix)
        if rank < len(basis):
            with pytest.raises(RankDeficientError, match=f"rank {rank} <"):
                nipc_regression(points, values, basis)
            return
        fit = nipc_regression(points, values, basis)
        assert fit.fit_details["rank"] == rank
        reference = np.linalg.lstsq(matrix, values, rcond=None)[0]
        assert np.max(np.abs(fit.alpha - reference)) <= 1e-10 * np.max(np.abs(reference))
        assert fit.fit_details["residual"] == pytest.approx(
            np.linalg.norm(matrix @ reference - values), rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("dists, p, n_distinct", [
        ((Normal(0, 1),), 3, 3),
        ((Uniform(-1, 1),), 5, 2),
        ((Normal(0, 1), Uniform(-1, 2)), 2, 4),
        ((Normal(1, 2), Normal(0, 1), Uniform(0, 1)), 2, 7),
    ])
    def test_fewer_distinct_points_than_coefficients(self, dists, p, n_distinct):
        basis = enumerate_basis(p, dists)
        rng = np.random.default_rng(8)
        distinct = np.column_stack([rng.uniform(0.1, 0.9, n_distinct) for _ in dists])
        points = np.repeat(distinct, 3, axis=0)
        rank = np.linalg.matrix_rank(design_matrix(basis, points))
        assert rank == n_distinct < len(basis)
        with pytest.raises(RankDeficientError,
                           match=f"rank {rank} < {len(basis)} coefficients"):
            nipc_regression(points, np.ones(len(points)), basis)

    def test_values_must_be_one_per_point(self):
        basis = enumerate_basis(2, [Normal(0, 1)])
        points = np.random.default_rng(3).normal(0, 1, (9, 1))
        for values in (np.ones((9, 1)), np.ones(8)):
            with pytest.raises(DimensionMismatchError,
                               match=re.escape(f"values of shape {values.shape}")):
                nipc_regression(points, values, basis)

    def test_caller_arrays_are_unchanged(self):
        basis = enumerate_basis(3, [Normal(0, 1), Uniform(-1, 1)])
        rng = np.random.default_rng(4)
        points = rng.uniform(-1, 1, (2 * len(basis), 2))
        values = rng.standard_normal(len(points))
        points_before, values_before = points.copy(), values.copy()
        nipc_regression(points, values, basis)
        np.testing.assert_array_equal(points, points_before)
        np.testing.assert_array_equal(values, values_before)

    def test_square_system_fits_exactly(self):
        basis = enumerate_basis(3, [Normal(0, 1), Uniform(-1, 1)])
        rng = np.random.default_rng(6)
        points = rng.uniform(-1, 1, (len(basis), 2))
        values = rng.standard_normal(len(basis))
        fit = nipc_regression(points, values, basis)
        assert fit.fit_details["residual"] == 0.0
        assert fit.fit_details["rank"] == len(basis)
        np.testing.assert_allclose(design_matrix(basis, points) @ fit.alpha, values,
                                   rtol=0, atol=1e-12)

    def test_well_conditioned_fit_does_not_measure_the_rank(self):
        basis = enumerate_basis(3, [Normal(0, 1), Uniform(-1, 1)])
        rng = np.random.default_rng(7)
        points = rng.uniform(-1, 1, (2 * len(basis), 2))
        with patch.object(methods, "design_matrix", wraps=design_matrix) as built, \
                patch("numpy.linalg.matrix_rank") as measured:
            fit = nipc_regression(points, rng.standard_normal(len(points)), basis)
        assert built.call_count == 1
        measured.assert_not_called()
        assert fit.fit_details["rank"] == len(basis)

    def test_ill_conditioned_full_rank_design_is_accepted(self):
        # Degree 10 on 22 points in [0, 0.3] of [-1, 1]: kappa_2 is about
        # 2.5e11, so R's estimate is below sqrt(eps) and the rank is measured.
        basis = enumerate_basis(10, [Uniform(-1, 1)])
        points = np.linspace(0.0, 0.3, 22)[:, None]
        values = np.cos(3 * points[:, 0])
        matrix = design_matrix(basis, points)
        assert np.linalg.cond(matrix) > 1e11
        reference = np.linalg.lstsq(matrix, values, rcond=None)[0]
        with patch("numpy.linalg.matrix_rank", wraps=np.linalg.matrix_rank) as measured:
            fit = nipc_regression(points, values, basis)
        measured.assert_called_once()
        assert fit.fit_details["rank"] == 11
        assert np.max(np.abs(fit.alpha - reference)) <= 1e-10 * np.max(np.abs(reference))

    @pytest.mark.parametrize("dists, p", [
        ((Normal(0.3, 1.5),), 6),
        ((Uniform(-1, 2), Normal(0, 1)), 4),
        ((Normal(1, 2), Uniform(0, 1), Normal(0, 1)), 3),
    ])
    def test_design_matrix_equals_row_by_row_products(self, dists, p):
        basis = enumerate_basis(p, dists)
        rng = np.random.default_rng(9)
        points = np.column_stack([rng.uniform(-2, 2, 13) for _ in dists])
        expected = np.empty((len(points), len(basis)))
        for i, point in enumerate(points):
            for j, index in enumerate(basis.indices):
                value = 1.0
                for dist, degree, x in zip(dists, index, point):
                    value *= univariate_table(dist, degree, dist.standardize(x))[degree]
                expected[i, j] = value
        matrix = design_matrix(basis, points)
        assert matrix.flags.f_contiguous
        assert np.array_equal(matrix, expected)

class TestStochasticCollocation:
    def test_reproduces_nodal_values(self):
        g, grid, outputs = run_model(
            "input a ~ Normal(0,1)\ninput b ~ Uniform(-1,2)\n"
            "output f = sin(a) * exp(b)\n", 4)
        surrogate = sc_build(outputs, grid)
        points = grid.points()
        for p in range(grid.total_points):
            assert sc_eval(surrogate, points[p]) == pytest.approx(
                outputs[p], rel=1e-12, abs=1e-12)

    def test_point_of_the_wrong_length_is_refused(self):
        g, grid, outputs = run_model(
            "input a ~ Normal(0,1)\ninput b ~ Uniform(-1,2)\noutput f = a * b\n", 2)
        with pytest.raises(DimensionMismatchError, match="^point has 3 coordinates, expected 2$"):
            sc_eval(sc_build(outputs, grid), [0.0, 0.0, 0.0])
        for point in ([[0.3], [0.5]], [[0.3, 0.1], [0.5, 0.2]]):
            with pytest.raises(DimensionMismatchError, match=r"^point of shape \(2, \d\) has more "
                                                             r"than 1 axis$"):
                sc_eval(sc_build(outputs, grid), point)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinate_is_refused(self, value):
        g, grid, outputs = run_model(
            "input a ~ Normal(0,1)\ninput b ~ Uniform(-1,2)\noutput f = a * b\n", 2)
        surrogate = sc_build(outputs, grid)
        with pytest.raises(ValueError, match=rf"^non-finite coordinate {value} at index \[1\]$"):
            sc_eval(surrogate, [0.5, value])

    def test_linear_function_exact_everywhere_with_k2(self):
        g, grid, outputs = run_model(
            "input a ~ Normal(0,1)\ninput b ~ Normal(2,1)\n"
            "output f = 2*a - 3*b + 1\n", 2)
        surrogate = sc_build(outputs, grid)
        rng = np.random.default_rng(13)
        for _ in range(25):
            a, b = rng.normal(0, 1), rng.normal(2, 1)
            assert sc_eval(surrogate, [a, b]) == pytest.approx(
                2 * a - 3 * b + 1, rel=1e-12, abs=1e-12)

    def test_sc_mean_equals_projection_constant(self):
        g = builtin_model("multipoint")
        grid = grid_for(g.distributions, 5)
        outputs = evaluate_naive(g, grid).outputs["f"]
        basis = enumerate_basis(3, g.distributions)
        alpha0 = nipc_integration(outputs, grid, basis).alpha[0]
        mean, _ = sc_moments(sc_build(outputs, grid))
        assert mean == pytest.approx(alpha0, rel=1e-12)

    def test_extrapolation_is_permitted(self):
        g, grid, outputs = run_model("input x ~ Uniform(-1,1)\noutput f = x^2\n", 3)
        surrogate = sc_build(outputs, grid)
        assert sc_eval(surrogate, [2.5]) == pytest.approx(6.25, rel=1e-10)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_variance_survives_a_large_mean(self, k):
        # E[f^2] - E[f]^2 cancels to 0 here (stddev 0.0 at k = 2 and 3).
        _, grid, outputs = run_model("input x ~ Normal(0, 1)\noutput f = 1e8 + x\n", k)
        _, stddev = sc_moments(sc_build(outputs, grid))
        assert abs(stddev - 1.0) <= 1e-6

    def test_surrogate_with_all_zero_weights_is_refused(self):
        # the node differences of Normal(0, 1e308) at k = 3 overflow, so
        # every weight is 0, and the interpolant would be 0/0
        _, grid, outputs = run_model("input x ~ Normal(0, 1e308)\noutput f = x * 0.5\n", 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            surrogate = sc_build(outputs, grid)
            assert surrogate.barycentric_weights[0].tolist() == [0.0, 0.0, 0.0]
            with pytest.raises(ValueError, match=r"^barycentric weights \[0\.0, -0\.0, 0\.0\] "
                                                 r"of axis 0 are all zero or not all finite$"):
                sc_eval(surrogate, [1e300])

    @pytest.mark.parametrize("dist", [Normal(0, 1), Normal(50, 10), Uniform(-1, 2)])
    def test_barycentric_weights_equal_the_per_node_products(self, dist):
        # The weights are bit for bit those of the loop over nodes that
        # multiplies out each node's differences to the others in order.
        for k in range(1, 65):
            rule = gauss_rule(dist, k)
            nodes = rule.nodes
            expected = np.ones(k)
            for i in range(k):
                expected[i] = 1.0 / np.prod(np.delete(nodes[i] - nodes, i))
            surrogate = sc_build(np.zeros(k), tensor_grid([rule]))
            assert surrogate.barycentric_weights[0].tobytes() == expected.tobytes(), k


class TestMonteCarlo:
    def test_constant_model(self):
        g = parse_model("input x ~ Normal(0,1)\noutput f = 0 * x + 2.5\n")
        result = monte_carlo(g, 100, seed=1)
        assert result.mean == pytest.approx(2.5)
        assert result.stddev == pytest.approx(0.0, abs=1e-13)
        assert result.n_model_points == 100

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_clt_bound_for_identity(self, seed):
        g = parse_model("input u1 ~ Normal(0,1)\noutput f = u1\n")
        n = 10 ** 6
        result = monte_carlo(g, n, seed=seed)
        assert abs(result.mean) < 3.0 / math.sqrt(n)
        assert result.stddev == pytest.approx(1.0, rel=5e-3)
        assert result.details["standard_error"] == pytest.approx(
            result.stddev / math.sqrt(n))

    def test_same_seed_bit_identical(self):
        g = builtin_model("multipoint")
        a = monte_carlo(g, 5000, seed=42)
        b = monte_carlo(g, 5000, seed=42)
        assert a == b

    def test_different_seeds_differ(self):
        g = builtin_model("multipoint")
        assert monte_carlo(g, 5000, seed=1).mean != monte_carlo(g, 5000, seed=2).mean

    def test_needs_two_samples(self):
        g = builtin_model("simple")
        with pytest.raises(ValueError):
            monte_carlo(g, 1, seed=0)

    def test_negative_seed_is_refused(self):
        g = builtin_model("simple")
        with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
            sample_inputs(g, 10, seed=-1)
        with pytest.raises(ValueError, match="^seed must be non-negative, got -4$"):
            monte_carlo(g, 10, seed=-4)

    def test_graph_without_outputs_is_refused(self):
        builder = GraphBuilder()
        builder.add_uncertain_input("x", Normal(0, 1))
        with pytest.raises(ValueError, match="^model declares no output$"):
            monte_carlo(builder.build(), 100, seed=0)

    def test_domain_error_records_offending_sample(self):
        # unbounded normal tails leave the piston model's real domain
        g = builtin_model("piston")
        with pytest.raises(DomainError) as excinfo:
            monte_carlo(g, 10 ** 5, seed=0)
        assert excinfo.value.sample is not None
        assert len(excinfo.value.sample) == 3

    def test_non_finite_result_records_offending_sample(self):
        # exp(1000 u) overflows where u > 0.7098
        g = parse_model("input u ~ Uniform(0,1)\noutput f = exp(1000*u) - exp(1000*u)\n")
        with pytest.raises(DomainError) as excinfo:
            monte_carlo(g, 100, seed=0)
        assert excinfo.value.reason == "non-finite result inf"
        assert excinfo.value.sample[0] > 0.7098

    def test_regression_domain_error_records_offending_sample(self):
        # seed 6 draws a piston regression sample outside the real domain
        g = builtin_model("piston")
        with pytest.raises(DomainError) as excinfo:
            run_pipeline(g, "nipc-reg", 0, 3, 0, 6)
        n = REGRESSION_SAMPLE_MULTIPLIER * len(enumerate_basis(3, g.distributions))
        samples = sample_inputs(g, n, seed=6)
        assert excinfo.value.sample == tuple(samples[excinfo.value.point_index])
        assert excinfo.value.reason == "sqrt of negative value"

    def test_working_set_is_one_output_vector(self):
        # multipoint has 2 inputs: seg1, which stage 0 hands to stage 1 and
        # the output then takes over, is the one 8 MB vector held at 10^6
        # samples; the sample array and a separate output vector took 3.1
        # times that.
        g = builtin_model("multipoint")
        monte_carlo(g, 10, seed=1)  # builds the plan outside the measurement
        tracemalloc.start()
        try:
            monte_carlo(g, 10 ** 6, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * 10 ** 6, peak

    def test_working_set_stays_one_vector_when_staging_would_hold_more(self):
        # run as early as their signatures allow, sin(x1), cos(x1) and
        # exp(x1) would each be held whole until x2 is drawn; every
        # operation runs in the last stage instead, and only x1's draws,
        # which the output overwrites, are held
        g = parse_model("input x1 ~ Normal(0, 1)\ninput x2 ~ Normal(0, 1)\n"
                        "output f = sin(x1)*x2 + cos(x1)*x2 + exp(x1)*x2\n")
        stages, vectors = g.stages
        assert vectors == 1 and not stages[0].steps
        monte_carlo(g, 10, seed=1)
        tracemalloc.start()
        try:
            monte_carlo(g, 10 ** 6, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * 10 ** 6, peak

    def test_blocks_run_the_stages_on_private_engine_code(self):
        # the block size is read when monte_carlo runs, not bound at import.
        # With one CPU each block's stage runs right after the block is
        # drawn: multipoint's stage 0 (seg1) on every block of v1, then
        # stage 1 (seg2 and the sum) on every block of v2; no public
        # engine function runs.
        g = builtin_model("multipoint")
        stages, _ = g.stages
        execute, ran = engine._execute, []

        def spy(graph, values, space, steps):
            ran.append(([stage.steps for stage in stages].index(steps), space))
            return execute(graph, values, space, steps)

        def public(*args):
            raise AssertionError("evaluate_on_samples called")
        with patch.object(engine, "_BLOCK", 3), patch.object(methods, "_cpu_count", lambda: 1), \
                patch.object(engine, "_execute", spy), \
                patch.object(methods, "evaluate_on_samples", public):
            result = monte_carlo(g, 10, seed=1)
        assert ran == [(stage, (size,)) for stage in (0, 1) for size in (3, 3, 3, 1)]
        samples = sample_inputs(g, 10, seed=1)
        assert result.mean == float(np.mean(evaluate_on_samples(g, samples)["f"]))

    def test_inputs_are_drawn_in_order_on_the_caller_and_run_on_two_threads(self):
        # the caller draws v1 block by block, then v2, in sample_inputs'
        # generator order; the stages run on the caller and one helper
        g = builtin_model("multipoint")
        caller, ran, drawn = threading.get_ident(), set(), []
        sample, execute = Normal.sample, engine._execute

        def spy_sample(dist, rng, out):
            sample(dist, rng, out)
            drawn.append((threading.get_ident(), out.tobytes()))

        def spy_execute(*args):
            ran.add(threading.get_ident())
            return execute(*args)
        with patch.object(engine, "_BLOCK", 3), patch.object(methods, "_cpu_count", lambda: 2), \
                patch.object(engine, "_execute", spy_execute), \
                patch.object(Normal, "sample", spy_sample):
            result = monte_carlo(g, 10, seed=1)
        samples = sample_inputs(g, 10, seed=1)
        blocks = [samples[start:start + 3, column].tobytes()
                  for column in (0, 1) for start in range(0, 10, 3)]
        assert drawn == [(caller, block) for block in blocks]
        assert len(ran) <= 2
        assert result.mean == float(np.mean(evaluate_on_samples(g, samples)["f"]))

    @pytest.mark.parametrize("failing", ["helper", "caller"])
    def test_block_error_on_either_thread_is_the_whole_run_error(self, failing):
        # every draw of a leaves sqrt's domain, so the first block a thread
        # runs fails; the other thread waits in its first block until
        # then.  The block's error names a row of its block and no sample,
        # and the run's error is the whole-run one.
        g = parse_model("input a ~ Uniform(-1, 0)\ninput b ~ Uniform(0, 1)\n"
                        "output f = sqrt(a) + b\n")
        with pytest.raises(DomainError) as whole_run:
            evaluate_on_samples(g, sample_inputs(g, 2000, seed=0))
        caller, raised, failed = threading.get_ident(), [], threading.Event()
        execute = engine._execute

        def spy(*args):
            if (threading.get_ident() == caller) != (failing == "caller"):
                failed.wait(timeout=30)
            try:
                return execute(*args)
            except DomainError:
                raised.append(threading.get_ident())
                failed.set()
                raise
        with patch.object(engine, "_BLOCK", 10), patch.object(methods, "_cpu_count", lambda: 2), \
                patch.object(engine, "_execute", spy):
            with pytest.raises(DomainError) as excinfo:
                monte_carlo(g, 2000, seed=0)
        assert str(excinfo.value) == str(whole_run.value)
        assert excinfo.value.sample == whole_run.value.sample
        assert (raised[0] == caller) == (failing == "caller")

    def test_an_interrupt_in_the_callers_block_stops_and_joins_the_helper(self):
        # the caller is interrupted in the first block it runs, of 2 * 10^4;
        # the helper, held in its block until then, is joined after that
        # block, not after the blocks left
        g = builtin_model("multipoint")
        caller, helped, failed = threading.get_ident(), [], threading.Event()
        execute = engine._execute

        def spy(*args):
            if threading.get_ident() == caller:
                failed.set()
                raise KeyboardInterrupt
            failed.wait(timeout=30)
            helped.append(args[2])
            return execute(*args)
        before = threading.active_count()
        with patch.object(engine, "_BLOCK", 10), patch.object(methods, "_cpu_count", lambda: 2), \
                patch.object(engine, "_execute", spy):
            with pytest.raises(KeyboardInterrupt):
                monte_carlo(g, 10 ** 5, seed=0)
        assert threading.active_count() == before
        assert len(helped) < 5000

    def test_a_helper_failure_while_the_caller_waits_ends_the_run(self):
        # the helper's first block fails only once the caller, having run
        # every block it can, waits for the helper: the caller wakes and
        # the run ends in the whole-run re-evaluation, not in a hang
        g = builtin_model("multipoint")
        caller, execute = threading.get_ident(), engine._execute
        helper_took, caller_waits = threading.Event(), threading.Event()

        class Spied(threading.Condition):
            def wait(self, timeout=None):
                if threading.get_ident() == caller:
                    caller_waits.set()
                return super().wait(timeout)

        def spy(*args):
            if threading.get_ident() == caller:
                helper_took.wait(timeout=30)
                return execute(*args)
            helper_took.set()
            caller_waits.wait(timeout=30)
            raise ValueError("block failed")
        with patch.object(engine, "_BLOCK", 3), patch.object(methods, "_cpu_count", lambda: 2), \
                patch.object(methods, "Condition", Spied), patch.object(engine, "_execute", spy):
            result = monte_carlo(g, 10, seed=1)
        assert helper_took.is_set() and caller_waits.is_set()
        samples = sample_inputs(g, 10, seed=1)
        assert result.mean == float(np.mean(evaluate_on_samples(g, samples)["f"]))

    @pytest.mark.parametrize("model", [
        "multipoint",
        # stage 0 hands s1 to stage 1, which hands s2 to stage 2 in the
        # same vector, and a is held whole; b and c go through the ring
        "input a ~ Normal(0.3, 0.03)\ninput b ~ Normal(0.5, 0.05)\ninput c ~ Uniform(0, 1)\n"
        "s1 = exp(sin(a))*a^2\ns2 = s1*b + cos(b)\noutput f = s2*c + log(1 + c^2) + a\n",
    ])
    def test_concurrent_runs_under_a_short_switch_interval(self, model):
        # four callers with a helper each, so more threads than CPUs, match
        # runs without a helper: a draw or a copy that wrote over a block
        # still being read would change a bit
        g = builtin_model(model) if model in BUILTIN_SOURCES else parse_model(model)
        with patch.object(engine, "_BLOCK", 64):
            with patch.object(methods, "_cpu_count", lambda: 1):
                expected = [monte_carlo(g, 5000, seed) for seed in range(4)]
            results = [None] * 4

            def run(seed):
                results[seed] = monte_carlo(g, 5000, seed)
            threads = [threading.Thread(target=run, args=(seed,)) for seed in range(4)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                with patch.object(methods, "_cpu_count", lambda: 2):
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == expected

    @pytest.mark.parametrize("model, error", [
        ("multipoint", None),
        ("piston", DomainError),  # unbounded normal tails leave the domain
        ("input x ~ Normal(0, 1e308)\noutput f = x * 0.5\n", ValueError),
    ])
    def test_no_thread_outlives_the_call(self, model, error):
        # every drawn block is checked for non-finite draws on the thread
        # that runs its stage; the caller's first check waits until the
        # helper has made one
        g = builtin_model(model) if model in BUILTIN_SOURCES else parse_model(model)
        caller, threads, helped = threading.get_ident(), [], threading.Event()
        refuse = methods._refuse_non_finite_coordinates

        def spy(column):
            threads.append(threading.get_ident())
            if threads[-1] == caller:
                helped.wait(timeout=30)
            else:
                helped.set()
            refuse(column)
        before = threading.active_count()
        with patch.object(methods, "_cpu_count", lambda: 2), \
                patch.object(methods, "_refuse_non_finite_coordinates", spy):
            if error is None:
                monte_carlo(g, 10 ** 5, seed=0)
            else:
                with pytest.raises(error):
                    monte_carlo(g, 10 ** 5, seed=0)
        assert threading.active_count() == before
        assert set(threads) - {caller}  # a helper thread ran a stage

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_overflowing_draw_is_refused_without_a_warning(self, cpus):
        # 1e308 times a draw beyond +-1.8 overflows; the first is row 12's
        g = parse_model("input x ~ Normal(0, 1e308)\noutput f = x * 0.5\n")
        with warnings.catch_warnings(), patch.object(methods, "_cpu_count", lambda: cpus):
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match=r"^non-finite input at sample row 12: x=-inf$"):
                monte_carlo(g, 10 ** 5, seed=0)

    def test_numpy_integer_arguments_give_plain_numbers(self):
        result = monte_carlo(builtin_model("simple"), np.int64(5), np.int64(3))
        assert type(result.n_model_points) is int and type(result.details["seed"]) is int
        json.dumps(vars(result))

    def test_sample_inputs_respects_axis_order(self):
        g = builtin_model("piston")
        samples = sample_inputs(g, 2000, seed=9)
        means = samples.mean(axis=0)
        assert means[0] == pytest.approx(50.0, abs=1.0)
        assert means[1] == pytest.approx(0.01, abs=0.0005)
        assert means[2] == pytest.approx(0.005, abs=0.0002)

    def test_sample_inputs_draws_what_the_generator_would(self):
        # drawn in place, the samples keep the bits of rng.normal and
        # rng.uniform, consecutive inputs included
        g = parse_model("input a ~ Normal(50, 10)\ninput b ~ Uniform(-1, 2)\n"
                        "input c ~ Normal(0.01, 0.005)\noutput f = a + b + c\n")
        rng = np.random.default_rng(4)
        expected = np.column_stack([rng.normal(50, 10, 5000), rng.uniform(-1, 2, 5000),
                                    rng.normal(0.01, 0.005, 5000)])
        assert sample_inputs(g, 5000, seed=4).tobytes() == expected.tobytes()


@pytest.mark.parametrize("method", ["nipc-full", "nipc-full-amtc", "nipc-reg", "sc", "mc"])
def test_huge_finite_data_is_refused_without_a_warning(method):
    # the grid nodes and the regression values are finite, but node
    # differences, a residual and squares overflow; mc's draws overflow
    g = parse_model("input x ~ Normal(0, 1e308)\noutput f = x * 0.5\n")
    message = (r"^non-finite input at sample row 12: x=-inf$" if method == "mc"
               else rf"^{method}: non-finite moments, mean .*, stddev inf$")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            run_pipeline(g, method, 3, 2, 100, 0)


# Lengths around the 8-wide unrolled and 128-long blocks of numpy's
# pairwise sum, and values whose squares underflow, overflow or cancel.
@settings(max_examples=200, deadline=None)
@given(st.sampled_from((2, 3, 7, 8, 9, 127, 128, 129, 255, 8191, 8192, 8193, 10 ** 5)),
       st.sampled_from((1e-300, 1e-160, 1e-5, 1.0, 1e5, 1e160, 1e300)),
       st.sampled_from(("normal", "offset", "constant")), st.integers(0, 2 ** 32 - 1))
def test_stddev_overwriting_is_numpy_std(n, scale, shape, seed):
    rng = np.random.default_rng(seed)
    if shape == "constant":
        values = np.full(n, scale * rng.standard_normal())
    else:
        values = scale * rng.standard_normal(n)
        if shape == "offset":  # a mean far larger than the spread
            values += 1e8 * scale
    with np.errstate(all="ignore"):
        expected = np.std(values, ddof=1)
        got = _stddev_overwriting(values.copy(), float(np.mean(values)))
    assert np.float64(got).tobytes() == expected.tobytes(), (got, expected)


class TestMoments:
    def test_constant_only(self):
        basis = enumerate_basis(2, [Normal(0, 1)])
        mean, stddev = moments_from_pce(PceCoefficients(basis, np.array([5.0, 0.0, 0.0])))
        assert (mean, stddev) == (5.0, 0.0)

    def test_single_term_with_norm_two(self):
        basis = enumerate_basis(2, [Normal(0, 1)])
        assert basis.norms[2] == pytest.approx(2.0)  # <He_2^2> = 2
        _, stddev = moments_from_pce(PceCoefficients(basis, np.array([0.0, 0.0, 1.0])))
        assert stddev == pytest.approx(math.sqrt(2.0))

    def test_pce_surrogate_evaluation(self):
        basis = enumerate_basis(2, [Normal(0, 1)])
        coefficients = PceCoefficients(basis, np.array([1.0, 2.0, 3.0]))
        # 1 + 2 He1(x) + 3 He2(x) at x = 2 -> 1 + 4 + 9 = 14
        assert evaluate_pce(coefficients, [[2.0]])[0] == pytest.approx(14.0)

    def test_pce_of_one_point_is_a_float(self):
        basis = enumerate_basis(2, [Normal(0, 1), Uniform(-1, 1)])
        coefficients = PceCoefficients(basis, np.arange(1.0, len(basis) + 1))
        value = evaluate_pce(coefficients, [0.5, 0.1])
        assert type(value) is float
        assert value == evaluate_pce(coefficients, [[0.5, 0.1]])[0]

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_pce_at_a_non_finite_coordinate_is_refused(self, value):
        basis = enumerate_basis(2, [Normal(0, 1), Uniform(-1, 1)])
        coefficients = PceCoefficients(basis, np.arange(1.0, len(basis) + 1))
        with pytest.raises(ValueError, match=rf"^non-finite coordinate {value} at index \[0\]$"):
            evaluate_pce(coefficients, [value, 0.5])
        points = np.zeros((4, 2))
        points[2, 1] = value
        with pytest.raises(ValueError, match=rf"^non-finite coordinate {value} at index \[2, 1\]$"):
            evaluate_pce(coefficients, points)
