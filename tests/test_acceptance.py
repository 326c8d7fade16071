"""End-to-end acceptance criteria, one test per criterion.

Each test prints one `criterion N ... PASS/FAIL` line (run with `pytest -s`
to see them).  The piston formula is not real-valued on all of its input
space: the inner square root goes negative once V0 < 0, which happens at
Hermite grid corners for k >= 5 and with probability ~0.6% per Monte Carlo
sample, and the domain guards raise DomainError there (README, "Domain
limits of the piston model").  Criterion 1 checks that on those grids both
engines refuse alike, at the same operation and grid point.  Criteria 7
and 8 need the piston mean from k = 7 grids and unrestricted Monte Carlo,
which that refusal makes unobtainable, so they fail as specified; these
tests state the criteria as given rather than weakening them.
"""

import json
import math
import re
import statistics
import time

import numpy as np
import pytest

from uqc import (
    Normal,
    Uniform,
    builtin_model,
    compute_influence_matrix,
    enumerate_basis,
    evaluate_amtc,
    evaluate_naive,
    evaluate_single_point,
    gauss_rule,
    grid_for,
    insert_expansions,
    isomorphic,
    moments_from_pce,
    monte_carlo,
    nipc_integration,
    parse_model,
    pretty_print,
    scheduled_eval_counts,
)
from uqc.basis import design_matrix
from uqc.cli import main as cli_main
from uqc.errors import DomainError

BUILTINS = ("simple", "piston", "multipoint")


def report(number: int, description: str, budget_s: float, body):
    start = time.perf_counter()
    try:
        body()
    except Exception as exc:
        print(f"criterion {number:2d} ({description}): FAIL - {exc}")
        raise
    elapsed = time.perf_counter() - start
    if elapsed > budget_s:
        print(f"criterion {number:2d} ({description}): FAIL - took {elapsed:.2f}s "
              f"over the {budget_s:.0f}s budget")
        pytest.fail(f"runtime {elapsed:.2f}s exceeded budget {budget_s}s")
    print(f"criterion {number:2d} ({description}): PASS [{elapsed:.2f}s]")


def _refusal(run) -> DomainError | None:
    """The DomainError that `run()` raises, or None when it returns."""
    try:
        run()
    except DomainError as exc:
        return exc
    return None


def test_criterion_1_output_equivalence_between_engines():
    def where(error: DomainError) -> tuple:
        return error.op_id, error.op_kind, error.point_index, error.reason

    def body():
        failures = []
        for name in BUILTINS:
            graph = builtin_model(name)
            transformed = insert_expansions(graph)
            output = graph.first_output_name()
            for k in range(2, 8):
                grid = grid_for(graph.distributions, k)
                if name == "piston" and k >= 5:
                    # Outside the piston's real domain (README): both engines
                    # must refuse, at the same operation and grid point, and
                    # the single-point semantics must refuse at that point.
                    naive_error = _refusal(lambda: evaluate_naive(graph, grid))
                    fast_error = _refusal(lambda: evaluate_amtc(transformed, grid))
                    if naive_error is None or fast_error is None:
                        failures.append(f"{name} k={k}: naive raised {naive_error!r}, "
                                        f"amtc raised {fast_error!r}; both must refuse")
                        continue
                    if where(naive_error) != where(fast_error):
                        failures.append(f"{name} k={k}: naive refused with {naive_error}, "
                                        f"amtc with {fast_error}")
                        continue
                    point = grid.points()[naive_error.point_index]
                    single_error = _refusal(lambda: evaluate_single_point(graph, point))
                    if (single_error is None or (single_error.op_id, single_error.reason)
                            != (naive_error.op_id, naive_error.reason)):
                        failures.append(f"{name} k={k}: single point {tuple(point)} raised "
                                        f"{single_error!r}, grid engines {naive_error}")
                    continue
                naive = evaluate_naive(graph, grid).outputs[output]
                fast = evaluate_amtc(transformed, grid).outputs[output]
                # elementwise, so that a NaN on either side fails
                if not np.all(np.abs(fast - naive) <= 1e-12 * np.abs(naive)):
                    relative = np.max(np.abs(fast - naive) / np.abs(naive))
                    failures.append(f"{name} k={k}: max relative difference {relative:.2e}")
        if failures:
            raise AssertionError("; ".join(failures))

    report(1, "amtc/naive output equivalence and identical piston refusal", 10.0, body)


def test_criterion_2_simple_model_count_law():
    def body():
        graph = builtin_model("simple")
        transformed = insert_expansions(graph)
        for k in range(2, 21):
            grid = grid_for(graph.distributions, k)
            amtc_total = evaluate_amtc(transformed, grid).total_scalar_evals
            naive_total = evaluate_naive(graph, grid).total_scalar_evals
            assert amtc_total == k * k + 3 * k, (k, amtc_total)
            assert naive_total == 4 * k * k, (k, naive_total)
        assert (9 + 9) / 36 == 0.5  # 50% reduction at k=3

    report(2, "simple-model count law k^2+3k vs 4k^2", 1.0, body)


def test_criterion_3_piston_count_reduction():
    def body():
        graph = builtin_model("piston")
        matrix = compute_influence_matrix(graph)
        n_ops = graph.elementary_operation_count()
        for k in range(3, 8):
            scheduled = sum(scheduled_eval_counts(matrix, (k,) * 3).values())
            naive = n_ops * k ** 3
            reduction = 1.0 - scheduled / naive
            assert 0.40 <= reduction <= 0.70, (k, reduction)

    report(3, "piston operation-count reduction in [40%, 70%]", 5.0, body)


def test_criterion_4_multipoint_reduction_grows_with_k():
    def body():
        graph = builtin_model("multipoint")
        transformed = insert_expansions(graph)
        previous = 0.0
        for k in range(3, 8):
            grid = grid_for(graph.distributions, k)
            amtc_total = evaluate_amtc(transformed, grid).total_scalar_evals
            naive_total = evaluate_naive(graph, grid).total_scalar_evals
            reduction = 1.0 - amtc_total / naive_total
            assert reduction >= 0.40, (k, reduction)
            assert reduction >= previous, (k, reduction, previous)
            previous = reduction

    report(4, "multipoint reduction >= 40% and non-decreasing", 5.0, body)


def test_criterion_5_quadrature_exactness():
    def normal_moment(mu, sigma, m):
        return sum(math.comb(m, j) * mu ** (m - j) * sigma ** j
                   * (math.prod(range(j - 1, 0, -2)) if j else 1)
                   for j in range(0, m + 1, 2))

    def uniform_moment(a, b, m):
        return (b ** (m + 1) - a ** (m + 1)) / ((m + 1) * (b - a))

    def body():
        cases = [(Normal(0, 1), lambda m: normal_moment(0, 1, m)),
                 (Normal(2.0, 0.5), lambda m: normal_moment(2.0, 0.5, m)),
                 (Uniform(-1, 1), lambda m: uniform_moment(-1, 1, m)),
                 (Uniform(0.3, 2.7), lambda m: uniform_moment(0.3, 2.7, m))]
        for dist, exact in cases:
            for k in range(1, 11):
                rule = gauss_rule(dist, k)
                for m in range(2 * k):
                    quadrature = float(rule.weights @ rule.nodes ** m)
                    # zero-valued moments are judged relative to the
                    # moment's magnitude scale sum w |u|^m
                    scale = max(1.0, float(rule.weights @ np.abs(rule.nodes) ** m),
                                abs(exact(m)))
                    assert abs(quadrature - exact(m)) <= 1e-10 * scale, (dist, k, m)

    report(5, "raw-moment exactness to degree 2k-1, k <= 10", 1.0, body)


def test_criterion_6_pce_exactness_via_both_engines():
    def body():
        graph = parse_model("input u1 ~ Normal(0,1)\ninput u2 ~ Normal(0,1)\n"
                            "output f = u1^2 * u2 + u2\n")
        grid = grid_for(graph.distributions, 4)
        basis = enumerate_basis(2, 3, graph.distributions)
        for engine in ("naive", "amtc"):
            if engine == "naive":
                outputs = evaluate_naive(graph, grid).outputs["f"]
            else:
                outputs = evaluate_amtc(insert_expansions(graph), grid).outputs["f"]
            mean, stddev = moments_from_pce(nipc_integration(outputs, grid, basis))
            assert abs(mean) <= 1e-10, (engine, mean)
            assert abs(stddev - math.sqrt(6.0)) <= 1e-10, (engine, stddev)

    report(6, "mean 0, stddev sqrt(6) for u1^2 u2 + u2", 1.0, body)


def test_criterion_7_piston_mean_against_monte_carlo_oracle():
    def body():
        graph = builtin_model("piston")
        # oracle: brute-force Monte Carlo, 10^6 samples x 3 seeds, on the
        # model's single-point semantics (vectorized driver)
        means, variances = [], []
        n = 10 ** 6
        for seed in (0, 1, 2):
            result = monte_carlo(graph, n, seed=seed)
            means.append(result.mean)
            variances.append(result.stddev ** 2)
        oracle_mean = statistics.fmean(means)
        standard_error = math.sqrt(statistics.fmean(variances) / (3 * n))

        basis = enumerate_basis(3, 4, graph.distributions)
        grid = grid_for(graph.distributions, 7)
        for outputs in (evaluate_naive(graph, grid).outputs["C"],
                        evaluate_amtc(insert_expansions(graph), grid).outputs["C"]):
            mean, _ = moments_from_pce(nipc_integration(outputs, grid, basis))
            assert abs(mean - oracle_mean) <= 3 * standard_error, (mean, oracle_mean)

    report(7, "piston k=7 projection mean within 3 SE of MC oracle", 60.0, body)


def test_criterion_8_convergence_ordering_on_piston():
    def body():
        graph = builtin_model("piston")
        basis = enumerate_basis(3, 3, graph.distributions)

        def projection_mean(k):
            grid = grid_for(graph.distributions, k)
            outputs = evaluate_naive(graph, grid).outputs["C"]
            mean, _ = moments_from_pce(nipc_integration(outputs, grid, basis))
            return mean

        reference = projection_mean(7)
        assert abs(projection_mean(2) - reference) > abs(projection_mean(6) - reference)
        for k in (4, 5, 6):
            budget = k ** 3
            mc_error = statistics.fmean(
                abs(monte_carlo(graph, budget, seed=s).mean - reference)
                for s in (0, 1, 2))
            nipc_error = abs(projection_mean(k) - reference)
            assert mc_error > nipc_error, (k, mc_error, nipc_error)

    report(8, "projection converges in k and beats MC at matched budgets", 60.0, body)


def test_criterion_9_orthogonality_suite():
    def body():
        cases = [
            (Normal(0, 1),),
            (Uniform(-1, 1),),
            (Normal(1, 2), Uniform(-1, 3)),
            (Normal(0, 1), Normal(0, 1), Uniform(-1, 1)),
        ]
        for dists in cases:
            for p in range(5):
                basis = enumerate_basis(len(dists), p, dists)
                grid = grid_for(dists, p + 2)
                phi = design_matrix(basis, grid.points())
                gram = phi.T @ (grid.joint_weights[:, None] * phi)
                assert np.max(np.abs(gram - np.diag(basis.norms))) <= 1e-9, (dists, p)

    report(9, "basis inner products = diag of norms within 1e-9", 5.0, body)


def test_criterion_10_determinism_and_round_trip(tmp_path):
    def body():
        texts = []
        for i in range(2):
            out = tmp_path / f"run{i}.json"
            rc = cli_main(["run", "--model", "piston", "--method", "nipc-full-amtc",
                           "--k", "4", "--pce-order", "3", "--out", str(out)])
            assert rc == 0
            texts.append(out.read_text())
        stripped = [re.sub(r'"wall_time_ms": [^,}\n]+', '"wall_time_ms": 0', t)
                    for t in texts]
        assert stripped[0] == stripped[1], "reports differ beyond wall time"
        payload = json.loads(texts[0])
        assert payload["uq_result"]["mean"] == json.loads(texts[1])["uq_result"]["mean"]
        for name in BUILTINS:
            graph = builtin_model(name)
            assert isomorphic(graph, parse_model(pretty_print(graph))), name

    report(10, "byte-identical runs modulo wall time; parser round trip", 5.0, body)
