"""Gauss rules per distribution, tensor grids, and the polynomial basis.

A k-point rule integrates polynomials of degree up to 2k-1 exactly against
the input's probability density; the table below shows the quadrature
error of raw moments against their analytic values.  Tensor grids flatten
with the last axis varying fastest, which is the single layout convention
every module of the package shares.
"""

import math

import numpy as np

import uqc

print("== 1D Gauss rules ==")
for dist in (uqc.Normal(0, 1), uqc.Uniform(-1, 1)):
    rule = uqc.gauss_rule(dist, 4)
    print(f"\n{dist}: nodes {np.round(rule.nodes, 6)}")
    print(f"{'':14s}weights {np.round(rule.weights, 6)} (sum = {rule.weights.sum():.1f})")

print("\n== moment exactness, Normal(0, 1), k = 5 ==")
rule = uqc.gauss_rule(uqc.Normal(0, 1), 5)
print("degree  quadrature      analytic        |error|")
for m in range(10):
    quadrature = float(rule.weights @ rule.nodes ** m)
    analytic = 0.0 if m % 2 else math.prod(range(m - 1, 0, -2)) or 1.0
    print(f"{m:4d}    {quadrature:+.8f}    {analytic:+.8f}    {abs(quadrature - analytic):.2e}")

print("\n== tensor grid flattening ==")
grid = uqc.tensor_grid([uqc.gauss_rule(uqc.Uniform(0, 1), 2),
                        uqc.gauss_rule(uqc.Uniform(10, 11), 3)])
print("axis sizes:", grid.axis_sizes, "-> total points:", grid.total_points)
print("axis-0 vector:", np.round(uqc.grid_input_vector(grid, 0), 3), " (each node repeated)")
print("axis-1 vector:", np.round(uqc.grid_input_vector(grid, 1), 3), " (pattern tiled)")
print("joint weights sum:", grid.joint_weights.sum())

print("\n== multivariate basis, d=2, p=2 ==")
dists = (uqc.Normal(0, 1), uqc.Uniform(-1, 1))
basis = uqc.enumerate_basis(2, dists)
print("graded-lex multi-indices:", basis.indices)
print("norms:", np.round(basis.norms, 4))

from uqc.basis import design_matrix

check_grid = uqc.grid_for(dists, 4)
phi = design_matrix(basis, check_grid.points())
gram = phi.T @ (check_grid.joint_weights[:, None] * phi)
print("max |gram - diag(norms)|:", np.max(np.abs(gram - np.diag(basis.norms))))
