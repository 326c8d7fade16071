"""Full uncertainty study of the piston cycle time.

Runs the quadrature-projection pipeline through both engines on a safe
grid, compares their answers and their costs, and then walks up to the
edge of the model's real domain to show why the grid size is capped: far
Hermite nodes push the initial gas volume negative, the inner square root
leaves the real line, and the engines refuse loudly rather than letting
NaN through.  Unrestricted Monte Carlo hits the same wall on roughly 0.6%
of samples, so quadrature on a modest grid is the reliable route here.
"""

import uqc
from uqc.errors import DomainError

graph = uqc.builtin_model("piston")
transformed = uqc.insert_expansions(graph)
basis = uqc.enumerate_basis(3, graph.distributions)

print("== projection on a 4^3 grid, both engines ==")
grid = uqc.grid_for(graph.distributions, 4)
for label, report in (("naive", uqc.evaluate_naive(graph, grid)),
                      ("transformed", uqc.evaluate_amtc(transformed, grid))):
    coefficients = uqc.nipc_integration(report.outputs["C"], grid, basis)
    mean, stddev = uqc.moments_from_pce(coefficients)
    print(f"  {label:11s} mean {mean:.6f} s   stddev {stddev:.6f} s   "
          f"scalar evals {report.total_scalar_evals:5d}   "
          f"broadcast copies {report.expansion_copies}")

print("\n== collocation surrogate on the same grid ==")
surrogate = uqc.sc_build(uqc.evaluate_naive(graph, grid).outputs["C"], grid)
mean, stddev = uqc.sc_moments(surrogate)
print(f"  sc          mean {mean:.6f} s   stddev {stddev:.6f} s")
print(f"  value at the nominal point: {uqc.sc_eval(surrogate, [50, 0.01, 0.005]):.6f} s")
print(f"  model value there:          "
      f"{uqc.evaluate_single_point(graph, [50, 0.01, 0.005])['C']:.6f} s")

print("\n== where the real domain ends ==")
for k in (4, 5):
    try:
        uqc.evaluate_naive(graph, uqc.grid_for(graph.distributions, k))
        print(f"  k={k}: evaluates fine")
    except DomainError as exc:
        print(f"  k={k}: {exc}")

try:
    uqc.monte_carlo(graph, 100_000, seed=0)
except DomainError as exc:
    print(f"  mc : {exc}")

print("\nscheduled cost reduction is grid-size arithmetic, so it extends past")
print("the evaluable range:")
rows = uqc.compute_influence_matrix(graph)
for k in range(3, 8):
    scheduled = sum(uqc.scheduled_eval_counts(rows, (k,) * 3).values())
    naive = graph.elementary_operation_count() * k ** 3
    print(f"  k={k}: {1 - scheduled / naive:.1%} fewer scalar evaluations")
