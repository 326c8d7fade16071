"""Convergence comparison of the estimators on a smooth two-input model.

All methods are charged in model evaluation points.  The reference is the
quadrature projection at the largest grid; projection and collocation
converge spectrally with k while Monte Carlo crawls at 1/sqrt(n), which is
the usual story for a smooth low-dimensional problem.
"""

import statistics

import uqc

graph = uqc.builtin_model("multipoint")
basis = uqc.enumerate_basis(4, graph.distributions)
output = "f"


def projection_mean(k):
    grid = uqc.grid_for(graph.distributions, k)
    report = uqc.evaluate_naive(graph, grid)
    mean, _ = uqc.moments_from_pce(
        uqc.nipc_integration(report.outputs[output], grid, basis))
    return mean


def collocation_mean(k):
    grid = uqc.grid_for(graph.distributions, k)
    surrogate = uqc.sc_build(uqc.evaluate_naive(graph, grid).outputs[output], grid)
    return uqc.sc_moments(surrogate)[0]


reference = projection_mean(9)
print(f"reference mean (k=9 projection): {reference:.10f}\n")

print(" k   points   projection err   collocation err   monte carlo err (3 seeds)")
for k in range(2, 8):
    budget = k * k
    mc_error = statistics.fmean(
        abs(uqc.monte_carlo(graph, budget, seed=s).mean - reference)
        for s in (0, 1, 2))
    proj_error = abs(projection_mean(k) - reference)
    sc_error = abs(collocation_mean(k) - reference)
    print(f"{k:2d}   {budget:6d}   {proj_error:14.3e}   {sc_error:15.3e}   {mc_error:13.3e}")

print("\nregression with twice as many samples as coefficients:")
from uqc.methods import sample_inputs

points = sample_inputs(graph, 2 * len(basis), seed=17)
values = uqc.evaluate_on_samples(graph, points)[output]
fit = uqc.nipc_regression(points, values, basis)
mean, stddev = uqc.moments_from_pce(fit)
print(f"  mean {mean:.8f} (error {abs(mean - reference):.2e}), "
      f"stddev {stddev:.8f}, residual {fit.fit_details['residual']:.2e}")
