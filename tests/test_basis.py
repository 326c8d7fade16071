import itertools
import math

import numpy as np
import pytest
from numpy.polynomial import hermite_e, legendre

from uqc import Normal, Uniform, enumerate_basis
from uqc import basis as basis_module
from uqc.basis import design_matrix, univariate_norm, univariate_table
from uqc.errors import DimensionMismatchError, InvalidOrderError, UnsupportedDistributionError
from uqc.quadrature import grid_for


class TestUnivariate:
    def test_hermite_he2_at_zero(self):
        # He_2(x) = x^2 - 1
        assert univariate_table(Normal(0, 1), 2, 0.0)[2] == pytest.approx(-1.0)

    def test_legendre_endpoint_identity(self):
        # P_n(1) = 1 for all n
        for n in range(6):
            assert univariate_table(Uniform(-1, 1), n, 1.0)[n] == pytest.approx(1.0)

    def test_hermite_he3_hand_value(self):
        # He_3(x) = x^3 - 3x, so He_3(2) = 2
        assert univariate_table(Normal(0, 1), 3, 2.0)[3] == pytest.approx(2.0)

    @pytest.mark.parametrize("degree", range(8))
    def test_against_numpy_polynomial_families(self, degree):
        x = np.linspace(-3, 3, 41)
        coeffs = [0.0] * degree + [1.0]
        np.testing.assert_allclose(univariate_table(Normal(0, 1), degree, x)[degree],
                                   hermite_e.hermeval(x, coeffs), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(univariate_table(Uniform(-1, 1), degree, x)[degree],
                                   legendre.legval(x, coeffs), rtol=1e-12, atol=1e-12)

    def test_unsupported_family(self):
        with pytest.raises(UnsupportedDistributionError):
            univariate_table("beta", 2, 0.5)
        with pytest.raises(UnsupportedDistributionError, match="^no polynomial family for str$"):
            univariate_norm("beta", 2)


class TestEnumeration:
    def test_d2_p2_graded_lex_order(self):
        basis = enumerate_basis(2, [Normal(0, 1), Normal(0, 1)])
        assert basis.indices == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))

    def test_d1_p0_single_constant(self):
        basis = enumerate_basis(0, [Normal(0, 1)])
        assert basis.indices == ((0,),)
        assert basis.norms[0] == pytest.approx(1.0)

    def test_order_above_max_degree_is_refused_before_enumerating(self, monkeypatch):
        def enumerate_nothing(dim, order):
            raise AssertionError("indices enumerated")
        monkeypatch.setattr(basis_module, "_graded_lex_indices", enumerate_nothing)
        with pytest.raises(InvalidOrderError, match=r"^degree must be in \[0, 32\], got 33$"):
            enumerate_basis(33, [Normal(0, 1)] * 2)

    def test_refuses_no_distributions(self):
        # the dimension is the number of distributions
        with pytest.raises(InvalidOrderError, match=r"^need dim >= 1 and order >= 0, got \(0, 2\)$"):
            enumerate_basis(2, [])

    @pytest.mark.parametrize("d", range(1, 7))
    @pytest.mark.parametrize("p", range(7))
    def test_count_matches_closed_form(self, d, p):
        basis = enumerate_basis(p, [Normal(0, 1)] * d)
        assert len(basis) == math.comb(d + p, p)
        assert basis.indices[0] == (0,) * d
        assert basis.norms[0] == pytest.approx(1.0)
        assert np.all(basis.norms > 0)

    def test_graded_lex_order_against_product_oracle(self):
        # oracle: every multi-index of the (p+1)^d box with total degree
        # <= p, sorted by total degree, then by degrees in descending
        # lexicographic order
        for d in range(1, 7):
            for p in range(7):
                expected = sorted(
                    (i for i in itertools.product(range(p + 1), repeat=d) if sum(i) <= p),
                    key=lambda i: (sum(i), [-x for x in i]))
                basis = enumerate_basis(p, [Normal(0, 1)] * d)
                assert list(basis.indices) == expected, (d, p)

    @pytest.mark.parametrize("d", range(1, 9))
    @pytest.mark.parametrize("p", range(7))
    def test_norms_equal_per_index_product_bytewise(self, d, p):
        dists = [Normal(1.0, 2.0) if axis % 3 else Uniform(-1.0, 3.0) for axis in range(d)]
        basis = enumerate_basis(p, dists)
        expected = np.array([np.prod([univariate_norm(dist, degree)
                                      for dist, degree in zip(dists, index)])
                             for index in basis.indices])
        assert basis.norms.tobytes() == expected.tobytes()

    def test_norm_of_mixed_index(self):
        basis = enumerate_basis(3, [Normal(0, 1)] * 3)
        position = basis.indices.index((2, 1, 0))
        assert basis.norms[position] == pytest.approx(2.0)  # 2! * 1! * 0!

    def test_norms_against_independent_quadrature(self):
        # oracle: numpy's own 12-point rules, not this package's quadrature
        basis = enumerate_basis(3, [Normal(0, 1), Normal(0, 1), Uniform(-1, 1)])
        xh, wh = hermite_e.hermegauss(12)
        wh = wh / wh.sum()
        xl, wl = legendre.leggauss(12)
        wl = wl / wl.sum()
        for index, norm in zip(basis.indices, basis.norms):
            value = 1.0
            for (x, w, family), degree in zip(
                    [(xh, wh, "he"), (xh, wh, "he"), (xl, wl, "p")], index):
                if family == "he":
                    poly = hermite_e.hermeval(x, [0.0] * degree + [1.0])
                else:
                    poly = legendre.legval(x, [0.0] * degree + [1.0])
                value *= float(w @ poly ** 2)
            assert norm == pytest.approx(value, rel=1e-9)


def column(basis, index, points):
    """Values of the basis function with multi-index `index` at `points`:
    its column of the design matrix."""
    return design_matrix(basis, points)[:, basis.indices.index(index)]


class TestMultivariate:
    def test_constant_index_is_one_everywhere(self):
        basis = enumerate_basis(2, [Normal(1, 2), Uniform(0, 4)])
        for u in ([0.0, 0.0], [1.5, 3.0], [-2.0, 0.1]):
            assert column(basis, (0, 0), u) == pytest.approx([1.0])

    def test_first_order_at_one_sigma(self):
        # He_1(z) = z, so the (1, 1) function is 1 at one sigma on both axes
        basis = enumerate_basis(2, [Normal(1, 2), Normal(-3, 0.5)])
        assert column(basis, (1, 1), [3.0, -2.5]) == pytest.approx([1.0])

    def test_second_order_at_center(self):
        basis = enumerate_basis(2, [Normal(0, 1), Normal(0, 1)])
        assert column(basis, (2, 0), [0.0, 1.7]) == pytest.approx([-1.0])

    def test_dimension_mismatch(self):
        basis = enumerate_basis(1, [Normal(0, 1), Normal(0, 1)])
        with pytest.raises(DimensionMismatchError):
            design_matrix(basis, [0.0])


class TestOrthogonality:
    @pytest.mark.parametrize("dists", [
        (Normal(0, 1),),
        (Normal(2, 0.5), Uniform(-1, 3)),
        (Normal(0, 1), Normal(0, 1), Uniform(-1, 1)),
    ])
    @pytest.mark.parametrize("p", range(5))
    def test_gram_matrix_is_diagonal_of_norms(self, dists, p):
        # k = p + 2 integrates products of degree <= 2p exactly
        basis = enumerate_basis(p, dists)
        grid = grid_for(dists, p + 2)
        phi = design_matrix(basis, grid.points())
        gram = phi.T @ (grid.joint_weights[:, None] * phi)
        np.testing.assert_allclose(gram, np.diag(basis.norms), atol=1e-9)

    def test_univariate_norms_table(self):
        for n in range(6):
            assert univariate_norm(Normal(0, 1), n) == pytest.approx(math.factorial(n))
            assert univariate_norm(Uniform(-1, 1), n) == pytest.approx(1.0 / (2 * n + 1))
