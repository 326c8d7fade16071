"""Command-line driver.

Subcommands:

    run          full pipeline for one model and one method, JSON/CSV report
    bench        naive vs transformed evaluation cost over a range of k
    convergence  error of each method against a reference, CSV
    graph        DOT dumps of a model before and after transformation

Methods: nipc-full (full-grid projection), nipc-full-amtc (same result via
the transformed graph), nipc-reg (regression on random samples), sc
(collocation surrogate), mc (Monte Carlo).  CSV output uses a header row,
comma separators, '.' decimals, and LF line endings; JSON output has a
stable key order so identical invocations are byte-identical except for
wall-time fields.
"""

from __future__ import annotations

import argparse
import functools
import json
import statistics
import sys
from pathlib import Path

from . import engine, methods, models, transform
from .basis import enumerate_basis
from .dsl import parse_model_file
from .errors import DomainError, UnknownModelError, UqcError
from .graph import Graph, to_dot
from .quadrature import grid_for

METHODS = ("nipc-full", "nipc-full-amtc", "nipc-reg", "sc", "mc")
REGRESSION_SAMPLE_MULTIPLIER = 2  # samples per coefficient for nipc-reg


def load_model(spec: str) -> tuple[str, Graph]:
    """Resolve a builtin name or a .uq file path."""
    if spec in models.BUILTIN_SOURCES:
        return spec, models.builtin_model(spec)
    path = Path(spec)
    if path.exists():
        return path.stem, parse_model_file(path)
    raise UnknownModelError(spec)


def parse_k_range(text: str) -> list[int]:
    """'5' -> [5]; '3..7' -> [3, 4, 5, 6, 7]."""
    if ".." in text:
        low, high = text.split("..", 1)
        lo, hi = int(low), int(high)
        if hi < lo:
            raise ValueError(f"empty k range '{text}'")
        return list(range(lo, hi + 1))
    return [int(text)]


def _output_name(graph: Graph) -> str:
    if not graph.outputs:
        raise ValueError("model declares no output")
    return graph.variable_by_id[graph.outputs[0]].name


def _write_text(out: str | None, text: str) -> None:
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8", newline="")


def _csv(rows: list[list]) -> str:
    return "\n".join(",".join(str(cell) for cell in row) for row in rows) + "\n"


def _fit_by_regression(graph: Graph, basis, n: int, seed: int):
    """PCE on `basis` fitted to the first output at n random samples;
    returns (coefficients, mean, stddev)."""
    points = methods.sample_inputs(graph, n, seed)
    values = engine.evaluate_on_samples(graph, points)[_output_name(graph)]
    coefficients = methods.nipc_regression(points, values, basis)
    return (coefficients, *methods.moments_from_pce(coefficients))


def run_pipeline(graph: Graph, method: str, k: int, pce_order: int, mc_samples: int,
                 seed: int) -> tuple[methods.UqResult, engine.EvaluationReport | None]:
    """Execute one method end to end; returns its result and, for the grid
    methods, the engine's evaluation report."""
    output = _output_name(graph)
    report = None
    if method in ("nipc-full", "nipc-full-amtc", "sc"):
        grid = grid_for(graph.distributions, k)
        if method == "nipc-full-amtc":
            transformed = transform.insert_expansions(graph)
            report = engine.evaluate_amtc(transformed, grid)
        else:
            report = engine.evaluate_naive(graph, grid)
        tensor = report.outputs[output]
        if method == "sc":
            surrogate = methods.sc_build(tensor, grid)
            mean, stddev = methods.sc_moments(surrogate)
            result = methods.UqResult("sc", mean, stddev, grid.total_points,
                                      details={"k": k, "extrapolation": False})
        else:
            basis = enumerate_basis(graph.dim, pce_order, graph.distributions)
            coefficients = methods.nipc_integration(tensor, grid, basis)
            mean, stddev = methods.moments_from_pce(coefficients)
            result = methods.UqResult(
                method, mean, stddev, grid.total_points,
                details={"k": k, "pce_order": pce_order,
                         "n_coefficients": len(basis),
                         "engine": "amtc" if method == "nipc-full-amtc" else "naive"})
    elif method == "nipc-reg":
        basis = enumerate_basis(graph.dim, pce_order, graph.distributions)
        n = REGRESSION_SAMPLE_MULTIPLIER * len(basis)
        coefficients, mean, stddev = _fit_by_regression(graph, basis, n, seed)
        details = {"pce_order": pce_order, "n_samples": n, "seed": seed,
                   "multiplier": REGRESSION_SAMPLE_MULTIPLIER}
        details.update(coefficients.fit_details or {})
        result = methods.UqResult("nipc-reg", mean, stddev, n, details=details)
    elif method == "mc":
        result = methods.monte_carlo(graph, mc_samples, seed)
    else:
        raise ValueError(f"unknown method '{method}'")
    return result, report


def cmd_run(args) -> int:
    """The only code that knows the report layout: a CSV row of the moments,
    or JSON of the UqResult and the evaluation report (null without a grid)."""
    name, graph = load_model(args.model)
    if args.method in ("nipc-full", "nipc-full-amtc", "sc") and args.k is None:
        raise ValueError(f"method '{args.method}' requires --k")
    result, report = run_pipeline(graph, args.method, args.k or 0, args.pce_order,
                                  args.mc_samples, args.seed)
    if args.format == "csv":
        rows = [["model", "method", "mean", "stddev", "n_model_points"],
                [name, args.method, repr(result.mean), repr(result.stddev),
                 result.n_model_points]]
        _write_text(args.out, _csv(rows))
        return 0
    evaluation = None if report is None else {
        **vars(report),
        "outputs": {output: {"signature": list(tensor.signature),
                             "data": tensor.data.tolist()}
                    for output, tensor in report.outputs.items()},
        "op_eval_counts": {str(op_id): count
                           for op_id, count in report.op_eval_counts.items()},
    }
    payload = {"model": name, "method": args.method, "uq_result": vars(result),
               "evaluation": evaluation}
    _write_text(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


def bench_rows(graph: Graph, k_values: list[int], repeats: int,
               warn=lambda message: None) -> list[list]:
    """Per k: scheduled costs of both engines plus measured wall times.

    Counts come from the dependency schedule, so they are exact even when
    a grid point leaves the model's domain; in that case the wall-time
    cells are left empty.
    """
    if repeats < 1:
        raise ValueError(f"--repeats must be at least 1, got {repeats}")
    matrix = transform.compute_influence_matrix(graph)
    transformed = transform.insert_expansions(graph)
    n_ops = graph.elementary_operation_count()

    rows = [["k", "naive_scalar_evals", "amtc_scalar_evals", "expansion_copies",
             "naive_wall_ms", "amtc_wall_ms", "reduction"]]
    for k in k_values:
        grid = grid_for(graph.distributions, k)
        sizes = grid.axis_sizes
        naive_total = n_ops * grid.total_points
        amtc_total = sum(transform.scheduled_eval_counts(matrix, sizes).values())
        naive_ms: float | str = ""
        amtc_ms: float | str = ""
        try:
            naive_times = []
            amtc_times = []
            for _ in range(repeats):
                naive_times.append(engine.evaluate_naive(graph, grid).wall_time_ms)
                amtc_times.append(engine.evaluate_amtc(transformed, grid).wall_time_ms)
            naive_ms = repr(statistics.median(naive_times))
            amtc_ms = repr(statistics.median(amtc_times))
        except DomainError as exc:
            warn(f"k={k}: evaluation left the model domain ({exc}); "
                 "wall times omitted, counts are scheduled costs")
        reduction = 1.0 - amtc_total / naive_total if naive_total else 0.0
        rows.append([k, naive_total, amtc_total,
                     transform.expansion_copies(transformed.graph, sizes),
                     naive_ms, amtc_ms, repr(reduction)])
    return rows


def cmd_bench(args) -> int:
    _, graph = load_model(args.model)
    rows = bench_rows(graph, parse_k_range(args.k), args.repeats,
                      warn=lambda message: print(f"warning: {message}", file=sys.stderr))
    _write_text(args.out, _csv(rows))
    return 0


def convergence_rows(graph: Graph, method_list: list[str], k_values: list[int],
                     pce_order: int, seed: int, mc_seeds: int = 3) -> list[list]:
    """Error of each method at each budget against full-grid projection at
    the largest k.  Monte Carlo runs use the same point budget (k^d) and
    average the error over `mc_seeds` seeds."""
    if mc_seeds < 1:
        raise ValueError(f"--mc-seeds must be at least 1, got {mc_seeds}")
    reference_k = max(k_values)
    reference = run_pipeline(graph, "nipc-full", reference_k, pce_order, 0, seed)[0].mean
    if reference == 0.0:
        raise ValueError(f"the reference mean at k={reference_k} is 0, "
                         "so the relative error against it is undefined")

    rows = [["method", "k", "n_model_points", "mean", "error_vs_reference_pct"]]
    for method in method_list:
        for k in k_values:
            budget = grid_for(graph.distributions, k).total_points
            if method == "mc":
                means = [methods.monte_carlo(graph, budget, seed + i).mean
                         for i in range(mc_seeds)]
                mean = statistics.fmean(means)
                error = statistics.fmean(
                    abs(m - reference) / abs(reference) * 100.0 for m in means)
            elif method == "nipc-reg":
                basis = enumerate_basis(graph.dim, pce_order, graph.distributions)
                if budget < len(basis):
                    continue
                mean = _fit_by_regression(graph, basis, budget, seed)[1]
                error = abs(mean - reference) / abs(reference) * 100.0
            else:
                mean = run_pipeline(graph, method, k, pce_order, budget, seed)[0].mean
                error = abs(mean - reference) / abs(reference) * 100.0
            rows.append([method, k, budget, repr(mean), repr(error)])
    return rows


def cmd_convergence(args) -> int:
    _, graph = load_model(args.model)
    method_list = [m.strip() for m in args.methods.split(",") if m.strip()]
    for method in method_list:
        if method not in METHODS:
            raise ValueError(f"unknown method '{method}'")
    rows = convergence_rows(graph, method_list, parse_k_range(args.k),
                            args.pce_order, args.seed, args.mc_seeds)
    _write_text(args.out, _csv(rows))
    return 0


def cmd_graph(args) -> int:
    _, graph = load_model(args.model)
    transformed = transform.insert_expansions(graph)
    partition = transform.partition_operations(transform.compute_influence_matrix(graph))

    before = to_dot(graph)
    clusters = {}
    for signature in sorted(partition.groups):
        members: list[int] = []
        for op_id in sorted(partition.groups[signature]):
            members.append(op_id)
            members.append(graph.operation_by_id[op_id].output)
        clusters[transform.signature_label(graph, signature)] = tuple(members)
    signatures = transform.compute_influence_matrix(transformed.graph).variable_signatures
    after = to_dot(transformed.graph, variable_signatures=signatures, clusters=clusters)
    Path(args.out_before).write_text(before, encoding="utf-8", newline="")
    Path(args.out_after).write_text(after, encoding="utf-8", newline="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uqc",
        description="Uncertainty propagation on tensor quadrature grids.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one UQ method end to end")
    run.add_argument("--model", required=True, help="builtin name or .uq file path")
    run.add_argument("--method", required=True, choices=METHODS)
    run.add_argument("--k", type=int, default=None, help="quadrature points per axis")
    run.add_argument("--pce-order", type=int, default=3)
    run.add_argument("--mc-samples", type=int, default=10000)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--out", default="-")
    run.add_argument("--format", choices=("json", "csv"), default="json")
    run.set_defaults(handler=cmd_run)

    bench = sub.add_parser("bench", help="naive vs transformed cost over k")
    bench.add_argument("--model", required=True)
    bench.add_argument("--k", required=True, help="single k or range like 3..7")
    bench.add_argument("--repeats", type=int, default=3)
    bench.add_argument("--out", default="-")
    bench.set_defaults(handler=cmd_bench)

    conv = sub.add_parser("convergence", help="method error against a reference")
    conv.add_argument("--model", required=True)
    conv.add_argument("--methods", required=True,
                      help="comma-separated subset of " + ",".join(METHODS))
    conv.add_argument("--k", required=True, help="budget grid, e.g. 2..7")
    conv.add_argument("--pce-order", type=int, default=3)
    conv.add_argument("--seed", type=int, default=0)
    conv.add_argument("--mc-seeds", type=int, default=3)
    conv.add_argument("--out", default="-")
    conv.set_defaults(handler=cmd_convergence)

    graph_cmd = sub.add_parser("graph", help="DOT dumps before/after transformation")
    graph_cmd.add_argument("--model", required=True)
    graph_cmd.add_argument("--out-before", required=True)
    graph_cmd.add_argument("--out-after", required=True)
    graph_cmd.set_defaults(handler=cmd_graph)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser() once per process; main() only reads the parser."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except (UqcError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
