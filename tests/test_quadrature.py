import math
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
import scipy.linalg

from uqc import Normal, Uniform, gauss_rule, grid_for, grid_input_vector, quadrature, tensor_grid
from uqc.errors import (
    AxisOutOfRangeError,
    EmptyAxesError,
    InvalidOrderError,
    UnsupportedDistributionError,
)


def normal_raw_moment(mu, sigma, m):
    """Analytic E[(mu + sigma Z)^m] via the binomial theorem; oracle."""
    total = 0.0
    for j in range(0, m + 1, 2):
        double_factorial = math.prod(range(j - 1, 0, -2)) if j else 1
        total += math.comb(m, j) * mu ** (m - j) * sigma ** j * double_factorial
    return total


def uniform_raw_moment(a, b, m):
    return (b ** (m + 1) - a ** (m + 1)) / ((m + 1) * (b - a))


class TestGaussRule:
    def test_normal_k1_is_mean_with_unit_weight(self):
        rule = gauss_rule(Normal(0, 1), 1)
        assert rule.nodes == pytest.approx([0.0], abs=1e-14)
        assert rule.weights == pytest.approx([1.0], abs=1e-14)

    def test_normal_k2_moment_matching_solution(self):
        # Hand-derived from E[1]=1, E[x]=0, E[x^2]=1, E[x^3]=0: nodes +-1, weights 1/2.
        rule = gauss_rule(Normal(0, 1), 2)
        assert rule.nodes == pytest.approx([-1.0, 1.0], abs=1e-12)
        assert rule.weights == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_uniform_k2_moment_matching_solution(self):
        rule = gauss_rule(Uniform(-1, 1), 2)
        root3 = 1.0 / math.sqrt(3.0)
        assert rule.nodes == pytest.approx([-root3, root3], abs=1e-12)
        assert rule.weights == pytest.approx([0.5, 0.5], abs=1e-12)

    @pytest.mark.parametrize("dist, moment", [
        (Normal(0, 1), normal_raw_moment),
        (Normal(2.0, 0.5), normal_raw_moment),
        (Uniform(-1, 1), uniform_raw_moment),
        (Uniform(0.3, 2.7), uniform_raw_moment),
    ])
    @pytest.mark.parametrize("k", range(1, 11))
    def test_exactness_up_to_degree_2k_minus_1(self, dist, moment, k):
        rule = gauss_rule(dist, k)
        params = (dist.mean, dist.stddev) if isinstance(dist, Normal) \
            else (dist.lower, dist.upper)
        for m in range(2 * k):
            quadrature = float(rule.weights @ rule.nodes ** m)
            exact = moment(*params, m)
            # zero-valued odd moments cancel to machine precision relative
            # to the moment's own magnitude scale
            scale = max(1.0, float(rule.weights @ np.abs(rule.nodes) ** m))
            assert abs(quadrature - exact) <= 1e-10 * max(scale, abs(exact))

    @pytest.mark.parametrize("dist", [Normal(3.0, 2.0), Uniform(-2.0, 6.0)])
    @pytest.mark.parametrize("k", range(1, 13))
    def test_rule_structure(self, dist, k):
        rule = gauss_rule(dist, k)
        assert len(rule.nodes) == len(rule.weights) == k
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.all(rule.weights > 0)
        assert float(rule.weights.sum()) == pytest.approx(1.0, abs=1e-12)
        # both families are symmetric about the distribution mean
        center = 3.0 if isinstance(dist, Normal) else 2.0
        assert rule.nodes + rule.nodes[::-1] == pytest.approx(2 * center, abs=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 13, 21, 34, 55, 64])
    def test_nodes_match_independent_implementations(self, k):
        # numpy's companion-matrix rules serve as an independent oracle
        from numpy.polynomial import hermite_e, legendre

        rule = gauss_rule(Normal(0, 1), k)
        x, w = hermite_e.hermegauss(k)
        np.testing.assert_allclose(rule.nodes, x, rtol=0, atol=1e-12)
        np.testing.assert_allclose(rule.weights, w / w.sum(), rtol=0, atol=1e-12)

        rule = gauss_rule(Uniform(-1, 1), k)
        x, w = legendre.leggauss(k)
        np.testing.assert_allclose(rule.nodes, x, rtol=0, atol=1e-12)
        np.testing.assert_allclose(rule.weights, w / w.sum(), rtol=0, atol=1e-12)

    def test_order_bounds(self):
        with pytest.raises(InvalidOrderError):
            gauss_rule(Normal(0, 1), 0)
        with pytest.raises(InvalidOrderError):
            gauss_rule(Normal(0, 1), 65)
        gauss_rule(Normal(0, 1), 64)

    def test_unsupported_distribution(self):
        with pytest.raises(UnsupportedDistributionError):
            gauss_rule("exponential", 3)


class TestGridFor:
    @pytest.mark.parametrize("dists", [
        (Normal(50, 10), Normal(0.01, 0.005), Normal(0.005, 0.002)),
        (Uniform(0, 1),) * 3,
        (Normal(0.3, 1), Uniform(-1, 2), Normal(-4, 0.5), Uniform(0, 1)),
        (Uniform(-2, 5),),
    ])
    @pytest.mark.parametrize("k", [1, 2, 5, 13])
    def test_axes_equal_gauss_rule_bitwise(self, dists, k):
        grid = grid_for(dists, k)
        assert len(grid.axes) == len(dists)
        for rule, dist in zip(grid.axes, dists):
            expected = gauss_rule(dist, k)
            assert rule.distribution == dist
            assert rule.nodes.tobytes() == expected.nodes.tobytes()
            assert rule.weights.tobytes() == expected.weights.tobytes()
            assert not rule.nodes.flags.writeable and not rule.weights.flags.writeable

    def test_solves_each_family_once(self):
        dists = (Normal(50, 10), Uniform(0, 1), Normal(0.01, 0.005), Uniform(-1, 2))
        quadrature._standard_rule.cache_clear()  # earlier tests may have solved k=4
        with patch.object(scipy.linalg, "eigh_tridiagonal",
                          wraps=scipy.linalg.eigh_tridiagonal) as solver:
            grid_for(dists, 4)
            assert solver.call_count == 2
            # a later grid, or rule, of the same order solves nothing
            grid_for(dists[::-1], 4)
            gauss_rule(Normal(1, 2), 4)
        assert solver.call_count == 2

    def test_kept_standard_rules_are_read_only(self):
        for dist in (Normal(0, 1), Uniform(-1, 1)):
            rule = gauss_rule(dist, 5)
            nodes, weights = quadrature._standard_rule(type(dist), 5)
            assert rule.weights is weights and gauss_rule(dist, 5.0).weights is weights
            for array in (nodes, weights, rule.nodes):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 0.0

    def test_kept_rules_are_bounded_by_family_and_order(self):
        quadrature._standard_rule.cache_clear()
        for k in (1, 2, quadrature.MAX_RULE_ORDER):
            for dist in (Normal(0, 1), Normal(3, 2), Uniform(0, 1), Uniform(-5, 5)):
                gauss_rule(dist, k)
        assert quadrature._standard_rule.cache_info().currsize == 6

    def test_invalid_order_and_family_are_refused_every_time(self):
        for _ in range(2):
            with pytest.raises(InvalidOrderError):
                gauss_rule(Normal(0, 1), quadrature.MAX_RULE_ORDER + 1)
            with pytest.raises(UnsupportedDistributionError):
                gauss_rule(object(), 3)

    def test_order_bounds(self):
        with pytest.raises(InvalidOrderError):
            grid_for([Normal(0, 1)], 0)
        with pytest.raises(EmptyAxesError):
            grid_for([], 3)


class TestTensorGrid:
    def test_two_by_two_point_ordering(self):
        # canonical flattening: last axis fastest
        ra = gauss_rule(Uniform(0, 1), 2)
        rb = gauss_rule(Uniform(2, 3), 2)
        grid = tensor_grid([ra, rb])
        a1, a2 = ra.nodes
        b1, b2 = rb.nodes
        expected = [(a1, b1), (a1, b2), (a2, b1), (a2, b2)]
        np.testing.assert_allclose(grid.points(), expected, rtol=0, atol=0)

    def test_single_axis_identity(self):
        rule = gauss_rule(Normal(0, 1), 3)
        grid = tensor_grid([rule])
        np.testing.assert_array_equal(grid_input_vector(grid, 0), rule.nodes)
        np.testing.assert_array_equal(grid.joint_weights, rule.weights)

    def test_three_axes_weights_sum_to_one(self):
        rules = [gauss_rule(Normal(0, 1), 2), gauss_rule(Uniform(-1, 1), 2),
                 gauss_rule(Normal(1, 2), 2)]
        grid = tensor_grid(rules)
        assert grid.total_points == 8
        # oracle: enumerate the 8 joint weights explicitly
        explicit = [rules[0].weights[i] * rules[1].weights[j] * rules[2].weights[m]
                    for i in range(2) for j in range(2) for m in range(2)]
        np.testing.assert_allclose(grid.joint_weights, explicit, rtol=0, atol=0)
        assert float(grid.joint_weights.sum()) == pytest.approx(1.0, abs=1e-12)

    def test_input_vector_layout(self):
        ra = gauss_rule(Uniform(0, 1), 2)
        rb = gauss_rule(Uniform(2, 3), 2)
        grid = tensor_grid([ra, rb])
        a1, a2 = ra.nodes
        b1, b2 = rb.nodes
        assert grid_input_vector(grid, 0).tolist() == [a1, a1, a2, a2]
        assert grid_input_vector(grid, 1).tolist() == [b1, b2, b1, b2]

    @pytest.mark.parametrize("sizes", [(2, 3), (3, 2, 4), (5,)])
    def test_input_vector_distinct_value_count(self, sizes):
        rules = [gauss_rule(Normal(i, 1.0 + i), k) for i, k in enumerate(sizes)]
        grid = tensor_grid(rules)
        for axis, k in enumerate(sizes):
            vector = grid_input_vector(grid, axis)
            assert len(vector) == grid.total_points
            assert len(np.unique(vector)) == k

    def test_input_vector_is_one_allocation(self):
        sizes = (40, 40, 40)
        rules = [gauss_rule(Normal(i, 1.0 + i), k) for i, k in enumerate(sizes)]
        grid = tensor_grid(rules)
        for axis, rule in enumerate(rules):
            tracemalloc.start()
            try:
                vector = grid_input_vector(grid, axis)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1.1 * vector.nbytes, axis
            assert vector.flags.c_contiguous and not vector.flags.writeable
            repeats, tiles = math.prod(sizes[axis + 1:]), math.prod(sizes[:axis])
            expected = np.tile(np.repeat(rule.nodes, repeats), tiles)
            assert vector.tobytes() == expected.tobytes()

    def test_empty_axes_rejected(self):
        with pytest.raises(EmptyAxesError):
            tensor_grid([])

    def test_axis_out_of_range(self):
        grid = tensor_grid([gauss_rule(Normal(0, 1), 2)])
        with pytest.raises(AxisOutOfRangeError):
            grid_input_vector(grid, 1)

    @pytest.mark.parametrize("axis", [-1, 2])
    def test_axis_column_out_of_range(self, axis):
        grid = grid_for([Normal(0, 1), Uniform(-1, 1)], 3)
        with pytest.raises(AxisOutOfRangeError, match=f"^axis {axis} out of range for 2 axes$"):
            grid.axis_column(axis)
