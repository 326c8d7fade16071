"""Moments of the benchmark models computed without uqc.

Each model is written out again as a numpy formula, and every rule, basis
and sampling step below comes from numpy or scipy: Gauss nodes from
`numpy.polynomial`, polynomial tables from its Vandermonde functions and
exact 1-D integrals from `scipy.integrate.quad`.  Nothing here imports
uqc, so an output check against these numbers does not trust uqc's graph,
quadrature or basis code.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from numpy.polynomial import hermite_e, legendre
from scipy import integrate

# Inputs as (family, a, b): Uniform(a, b) or Normal(mean a, stddev b).
SEP6_INPUTS = (("uniform", 0.0, 1.0),) * 6
MULTIPOINT_INPUTS = (("normal", 0.3, 0.03), ("normal", 0.5, 0.05))
PISTON_INPUTS = (("normal", 50.0, 10.0), ("normal", 0.01, 0.005),
                 ("normal", 0.005, 0.002))

# Samples per coefficient of `uqc run --method nipc-reg`.
REGRESSION_SAMPLE_MULTIPLIER = 2


def segment(x):
    return np.exp(np.sin(x)) * x ** 2 + np.log(1 + x ** 2)


def sep6(*x):
    s = [segment(xi) for xi in x]
    return sum(s[i] * s[(i + 1) % 6] for i in range(6))


def multipoint(v1, v2):
    return segment(v1) + segment(v2)


_K_SPRING, _P0, _TA, _T0 = 3000.0, 100000.0, 293.0, 350.0


def _piston_parts(M, S, V0):
    """(inner sqrt argument, outer sqrt argument) of the piston cycle time."""
    with np.errstate(invalid="ignore"):
        A = _P0 * S + 19.62 * M - _K_SPRING * V0 / S
        inner = A ** 2 + 4 * _K_SPRING * (_P0 * V0 / _T0) * _TA
        V = S / (2 * _K_SPRING) * (np.sqrt(inner) - A)
        outer = M / (_K_SPRING + S ** 2 * _P0 * V0 * _TA / (_T0 * V ** 2))
    return inner, outer


def piston(M, S, V0):
    return 2 * math.pi * np.sqrt(_piston_parts(M, S, V0)[1])


def piston_leaves_domain(M, S, V0) -> bool:
    """True when either square root of the piston model sees a negative."""
    inner, outer = _piston_parts(M, S, V0)
    return bool(np.any(inner < 0) or np.any(outer < 0))


def gauss_rule(dist, k: int):
    """k-point Gauss rule for a probability measure: (nodes, weights,
    standardized nodes), weights summing to one."""
    family, a, b = dist
    if family == "uniform":
        z, w = legendre.leggauss(k)
        return 0.5 * (a + b) + 0.5 * (b - a) * z, w / 2.0, z
    z, w = hermite_e.hermegauss(k)
    return a + b * z, w / math.sqrt(2 * math.pi), z


def _vander(dist, z, order: int) -> np.ndarray:
    """Legendre (uniform) or probabilists' Hermite (normal) values of degree
    0..order at standardized points z: shape (len(z), order + 1)."""
    if dist[0] == "uniform":
        return legendre.legvander(z, order)
    return hermite_e.hermevander(z, order)


def _norms(dist, order: int) -> np.ndarray:
    n = np.arange(order + 1)
    if dist[0] == "uniform":
        return 1.0 / (2 * n + 1)
    return np.array([math.factorial(int(i)) for i in n], dtype=float)


def grid_moments(model, inputs, k: int, order: int) -> dict:
    """Moments of `model` on the k-point tensor Gauss grid.

    `sc` holds the quadrature mean and stddev of the grid values; `pce`
    holds those of the total-degree-`order` projection.  The projection is
    contracted one axis at a time (sum factorization), so no design
    matrix over the grid is built.
    """
    rules = [gauss_rule(dist, k) for dist in inputs]
    values = model(*np.meshgrid(*[nodes for nodes, _, _ in rules], indexing="ij"))
    weights = np.ones(())
    for _, w, _ in rules:
        weights = np.multiply.outer(weights, w)
    mean = float(np.sum(weights * values))
    variance = float(np.sum(weights * values * values)) - mean * mean

    # After contracting every axis, g[a_1, ..., a_d] = sum w f prod_j phi_{a_j}.
    g = weights * values
    norms = np.ones(())
    for dist, (_, _, z) in zip(inputs, rules):
        g = np.tensordot(g, _vander(dist, z, order), axes=([0], [0]))
        norms = np.multiply.outer(norms, _norms(dist, order))
    degree = sum(np.ix_(*[np.arange(order + 1)] * len(inputs)))
    keep = (degree <= order) & (degree > 0)
    pce_variance = float(np.sum(g[keep] ** 2 / norms[keep]))
    return {"sc": (mean, math.sqrt(max(variance, 0.0))),
            "pce": (float(g[(0,) * len(inputs)]), math.sqrt(pce_variance))}


def total_degree_indices(dim: int, order: int) -> list[tuple[int, ...]]:
    return [index for index in itertools.product(range(order + 1), repeat=dim)
            if sum(index) <= order]


def regression_samples(inputs, n: int, seed: int) -> list[np.ndarray]:
    """Input columns drawn as `uqc run` documents it: one seeded
    `numpy.random.default_rng`, one column per input in declaration order."""
    rng = np.random.default_rng(seed)
    return [rng.uniform(a, b, n) if family == "uniform" else rng.normal(a, b, n)
            for family, a, b in inputs]


def regression_moments(model, inputs, order: int, columns) -> tuple[float, float]:
    """Mean and stddev of the least-squares total-degree fit to samples."""
    indices = total_degree_indices(len(inputs), order)
    tables = []
    for dist, column in zip(inputs, columns):
        family, a, b = dist
        z = (2 * column - (a + b)) / (b - a) if family == "uniform" else (column - a) / b
        tables.append(_vander(dist, z, order))
    matrix = np.ones((len(columns[0]), len(indices)))
    norms = np.ones(len(indices))
    for col, index in enumerate(indices):
        for axis, degree in enumerate(index):
            matrix[:, col] *= tables[axis][:, degree]
            norms[col] *= _norms(inputs[axis], order)[degree]
    alpha = np.linalg.lstsq(matrix, model(*columns), rcond=None)[0]
    constant = indices.index((0,) * len(inputs))
    variance = float(np.sum(alpha ** 2 * norms)) - alpha[constant] ** 2 * norms[constant]
    return float(alpha[constant]), math.sqrt(max(variance, 0.0))


def sep6_exact() -> tuple[float, float]:
    """Exact mean and stddev of sep6 from 1-D integrals of the segment.

    With m1 = E[s] and m2 = E[s^2], each of the six ring products has
    variance m2^2 - m1^4, the six pairs of products that share an input
    have covariance m1^2 m2 - m1^4, and the other pairs are independent.
    """
    m1 = integrate.quad(segment, 0.0, 1.0, epsabs=0, epsrel=1e-13)[0]
    m2 = integrate.quad(lambda x: segment(x) ** 2, 0.0, 1.0, epsabs=0, epsrel=1e-13)[0]
    variance = 6 * (m2 * m2 - m1 ** 4) + 12 * (m1 * m1 * m2 - m1 ** 4)
    return 6 * m1 * m1, math.sqrt(variance)


def multipoint_exact(k: int = 80) -> dict:
    """Mean, stddev and kurtosis of multipoint from 1-D Gauss-Hermite rules.

    The two segments are independent, so central moments of the sum are
    mu2 = sum of mu2_i and mu4 = sum of mu4_i + 6 mu2_1 mu2_2.
    """
    mu2, mu4, mean = [], [], 0.0
    for dist in MULTIPOINT_INPUTS:
        nodes, weights, _ = gauss_rule(dist, k)
        values = segment(nodes)
        m = float(weights @ values)
        mean += m
        mu2.append(float(weights @ (values - m) ** 2))
        mu4.append(float(weights @ (values - m) ** 4))
    variance = sum(mu2)
    fourth = sum(mu4) + 6 * mu2[0] * mu2[1]
    return {"mean": mean, "stddev": math.sqrt(variance),
            "kurtosis": fourth / variance ** 2}
