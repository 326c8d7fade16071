"""Command-line driver.

Subcommands:

    run          full pipeline for one model and one method, JSON/CSV report
    bench        naive vs transformed evaluation cost over a range of k
    convergence  error of each method against a reference, CSV
    graph        DOT dumps of a model before and after transformation

Methods, one row each in METHODS.  On the tensor grid of --k points per
axis: nipc-full (full-grid projection), nipc-full-amtc (same result via the
transformed graph) and sc (collocation surrogate).  On random samples:
nipc-reg (regression, two samples per coefficient in `run`) and mc (Monte
Carlo, --mc-samples in `run`); `convergence` gives them the grid's point
count, skips a count below nipc-reg's coefficient count or mc's 2, and
averages mc alone over --mc-seeds.  CSV output uses a header row, comma
separators, '.' decimals, LF line endings, and quotes only a cell holding
a comma, a quote or a newline; JSON output has a stable key order so
identical invocations are byte-identical except for wall-time fields.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import statistics
import sys
from collections.abc import Callable
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import engine, methods, models, transform
from .basis import enumerate_basis
from .dsl import parse_model_file
from .errors import DomainError, UnknownModelError, UqcError
from .graph import Graph
from .quadrature import grid_for

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
    low, dots, high = text.partition("..")
    try:
        lo, hi = int(low), int(high if dots else low)
    except ValueError:
        raise ValueError(f"invalid k range '{text}'") from None
    if hi < lo:
        raise ValueError(f"empty k range '{text}'")
    return list(range(lo, hi + 1))


def _write_text(out: str | None, text: str) -> None:
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "wb") as file:
            file.write(text.encode("utf-8"))


def _report_json(payload) -> str:
    """json.dumps(payload, indent=2, sort_keys=True), byte for byte, without
    the pure-Python encoder that json.dumps runs when `indent` is set."""
    chunks: list[str] = []
    _encode(payload, "\n", chunks.append)
    return "".join(chunks)


def _encode(value, newline: str, write) -> None:
    """Write `value` as json.dumps(value, indent=2, sort_keys=True) does at
    the nesting whose line break and indent is `newline`.  Strings, finite
    floats, ints, lists, tuples and dicts with string keys are written
    here; anything else as json.dumps writes it (or refuses it), with its
    own lines indented to this nesting."""
    kind = type(value)
    if kind is str:
        write(encode_basestring_ascii(value))
    elif kind is float and math.isfinite(value):
        write(float.__repr__(value))
    elif kind is int:
        write(int.__repr__(value))
    elif (kind is list or kind is tuple) and value:
        inner = newline + "  "
        try:
            # An output's data: one join.  A finite float's repr holds no
            # "n", and "nan", "inf" and "-inf" each hold one.
            body = ("," + inner).join(map(float.__repr__, value))
        except TypeError:  # an item is not a float
            body = "n"
        write("[" + inner)
        if "n" in body:
            for index, item in enumerate(value):
                if index:
                    write("," + inner)
                _encode(item, inner, write)
        else:
            write(body)
        write(newline + "]")
    elif kind is dict and value and all(type(key) is str for key in value):
        inner = newline + "  "
        keys = sorted(value)
        if set(map(type, value.values())) == {int}:  # counts, say, and no bool: one join
            body = [f"{encode_basestring_ascii(key)}: {value[key]!r}" for key in keys]
            return write("{" + inner + ("," + inner).join(body) + newline + "}")
        separator = "{" + inner
        for key in keys:
            write(separator + encode_basestring_ascii(key) + ": ")
            _encode(value[key], inner, write)
            separator = "," + inner
        write(newline + "}")
    else:
        write(json.dumps(value, indent=2, sort_keys=True).replace("\n", newline))


def _csv(rows: list[list]) -> str:
    """Rows as CSV; a cell holding a comma, a quote or a newline is quoted."""
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    return text.getvalue()


def _run_nipc_full(graph: Graph, grid, pce_order: int, seed: int, amtc: bool = False):
    output = graph.first_output_name()
    report = (engine.evaluate_amtc(transform.insert_expansions(graph), grid) if amtc
              else engine.evaluate_naive(graph, grid))
    basis = enumerate_basis(pce_order, graph.distributions)
    coefficients = methods.nipc_integration(report.outputs[output], grid, basis)
    details = {"k": grid.axis_sizes[0], "pce_order": pce_order,
               "n_coefficients": len(basis), "engine": "amtc" if amtc else "naive"}
    return methods.UqResult("nipc-full-amtc" if amtc else "nipc-full",
                            *methods.moments_from_pce(coefficients), grid.total_points,
                            details=details), report


def _run_sc(graph: Graph, grid, pce_order: int, seed: int):
    output = graph.first_output_name()
    report = engine.evaluate_naive(graph, grid)
    mean, stddev = methods.sc_moments(methods.sc_build(report.outputs[output], grid))
    return methods.UqResult("sc", mean, stddev, grid.total_points, details={
        "k": grid.axis_sizes[0], "extrapolation": False}), report


def _run_nipc_reg(graph: Graph, n: int, pce_order: int, seed: int):
    basis = enumerate_basis(pce_order, graph.distributions)
    points = methods.sample_inputs(graph, n, seed)
    values = engine.evaluate_on_samples(graph, points)[graph.first_output_name()]
    coefficients = methods.nipc_regression(points, values, basis)
    return methods.UqResult("nipc-reg", *methods.moments_from_pce(coefficients), n, details={
        "pce_order": pce_order, "n_samples": n, "seed": seed,
        "multiplier": REGRESSION_SAMPLE_MULTIPLIER, **coefficients.fit_details}), None


class Method(NamedTuple):
    """A row of METHODS: `run(graph, grid or n, pce_order, seed)` gives the
    UqResult and, on a grid, the engine's EvaluationReport (else None)."""

    run: Callable
    min_samples: Callable | None = None  # (graph, pce_order); None: on the --k grid
    run_samples: Callable | None = None  # (minimum, mc_samples) -> samples in `uqc run`
    averages_seeds: bool = False  # over --mc-seeds in `convergence`

    @property
    def on_grid(self) -> bool:
        return self.min_samples is None


METHODS = {
    "nipc-full": Method(_run_nipc_full),
    "nipc-full-amtc": Method(functools.partial(_run_nipc_full, amtc=True)),
    # The coefficient count; 0 for a negative order, which enumerate_basis refuses.
    "nipc-reg": Method(_run_nipc_reg,
                       min_samples=lambda graph, p: math.comb(graph.dim + p, p) if p >= 0 else 0,
                       run_samples=lambda minimum, _: REGRESSION_SAMPLE_MULTIPLIER * minimum),
    "sc": Method(_run_sc),
    "mc": Method(lambda graph, n, p, seed: (methods.monte_carlo(graph, n, seed), None),
                 min_samples=lambda graph, p: 2, run_samples=lambda _, mc_samples: mc_samples,
                 averages_seeds=True),
}


def _method(name: str) -> Method:
    if name not in METHODS:
        raise ValueError(f"unknown method '{name}'")
    return METHODS[name]


def run_pipeline(graph: Graph, method: str, k: int, pce_order: int, mc_samples: int,
                 seed: int) -> tuple[methods.UqResult, engine.EvaluationReport | None]:
    """Execute one method end to end; returns its result and, for the grid
    methods, the engine's evaluation report."""
    row = _method(method)
    budget = (grid_for(graph.distributions, k) if row.on_grid
              else row.run_samples(row.min_samples(graph, pce_order), mc_samples))
    return row.run(graph, budget, pce_order, seed)


def cmd_run(args) -> int:
    """The only code that knows the report layout: a CSV row of the moments,
    or JSON of the UqResult and the evaluation report (null without a grid)."""
    name, graph = load_model(args.model)
    if METHODS[args.method].on_grid and args.k is None:
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
        "outputs": {output: {"signature": list(range(graph.dim)), "data": values.tolist()}
                    for output, values in report.outputs.items()},
        "op_eval_counts": {str(op_id): count
                           for op_id, count in report.op_eval_counts.items()},
    }
    payload = {"model": name, "method": args.method, "uq_result": vars(result),
               "evaluation": evaluation}
    _write_text(args.out, _report_json(payload) + "\n")
    return 0


def bench_rows(graph: Graph, k_values: list[int], repeats: int) -> list[list]:
    """Per k: scheduled costs of both engines plus measured wall times.

    Counts come from the dependency schedule, so they are exact even when
    a grid point leaves the model's domain; in that case the wall-time
    cells are left empty and a warning line goes to stderr.
    """
    if repeats < 1:
        raise ValueError(f"--repeats must be at least 1, got {repeats}")
    influence = transform.compute_influence_matrix(graph)
    transformed = transform.insert_expansions(graph)
    n_ops = graph.elementary_operation_count()

    rows = [["k", "naive_scalar_evals", "amtc_scalar_evals", "expansion_copies",
             "naive_wall_ms", "amtc_wall_ms", "reduction"]]
    for k in k_values:
        grid = grid_for(graph.distributions, k)
        sizes = grid.axis_sizes
        naive_total = n_ops * grid.total_points
        amtc_total = sum(transform.scheduled_eval_counts(influence, sizes).values())
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
            print(f"warning: k={k}: evaluation left the model domain ({exc}); "
                  "wall times omitted, counts are scheduled costs", file=sys.stderr)
        reduction = 1.0 - amtc_total / naive_total if naive_total else 0.0
        rows.append([k, naive_total, amtc_total,
                     transform.expansion_copies(graph, sizes),
                     naive_ms, amtc_ms, repr(reduction)])
    return rows


def cmd_bench(args) -> int:
    _, graph = load_model(args.model)
    rows = bench_rows(graph, parse_k_range(args.k), args.repeats)
    _write_text(args.out, _csv(rows))
    return 0


def convergence_rows(graph: Graph, method_list: list[str], k_values: list[int],
                     pce_order: int, seed: int, mc_seeds: int) -> list[list]:
    """Error of each method at each budget against full-grid projection at
    the largest k.  Grid methods run on the k-point grid, sample methods on
    the same point budget (k^d), skipping a budget below their minimum;
    Monte Carlo averages the error over `mc_seeds` seeds."""
    chosen = [(method, _method(method)) for method in method_list]
    if not chosen:
        raise ValueError("--methods names no method")
    repeated = sorted({method for method in method_list if method_list.count(method) > 1})
    if repeated:
        raise ValueError(f"--methods names {', '.join(repeated)} more than once")
    if mc_seeds < 1:
        raise ValueError(f"--mc-seeds must be at least 1, got {mc_seeds}")
    reference_k = max(k_values)
    grids = {k: grid_for(graph.distributions, k) for k in k_values}
    result, report = METHODS["nipc-full"].run(graph, grids[reference_k], pce_order, seed)
    reference, values = result.mean, report.outputs[graph.first_output_name()]
    # Inside the recursive-summation error bound of sum(w_i f_i) over the n
    # grid points (Higham 2002, section 4.2), the mean may be all rounding.
    weights = grids[reference_k].joint_weights
    if abs(reference) <= values.size * np.finfo(float).eps * float(weights @ np.abs(values)):
        raise ValueError(f"the reference mean at k={reference_k} is 0 to within the rounding "
                         f"of its quadrature sum ({reference!r}), so the relative error "
                         "against it is undefined")

    rows = [["method", "k", "n_model_points", "mean", "error_vs_reference_pct"]]
    for method, row in chosen:
        for k in k_values:
            budget = grids[k].total_points
            if row.on_grid:
                # The nipc-full study at the reference k is the reference itself.
                means = [reference if (method, k) == ("nipc-full", reference_k)
                         else row.run(graph, grids[k], pce_order, seed)[0].mean]
            elif budget < row.min_samples(graph, pce_order):
                continue
            else:
                means = [row.run(graph, budget, pce_order, seed + i)[0].mean
                         for i in range(mc_seeds if row.averages_seeds else 1)]
            error = statistics.fmean(abs(m - reference) / abs(reference) * 100.0 for m in means)
            rows.append([method, k, budget, repr(statistics.fmean(means)), repr(error)])
    return rows


def cmd_convergence(args) -> int:
    _, graph = load_model(args.model)
    method_list = [m.strip() for m in args.methods.split(",") if m.strip()]
    rows = convergence_rows(graph, method_list, parse_k_range(args.k),
                            args.pce_order, args.seed, args.mc_seeds)
    _write_text(args.out, _csv(rows))
    return 0


def cmd_graph(args) -> int:
    _, graph = load_model(args.model)
    before = transform.to_dot(graph)
    after = transform.to_dot(transform.insert_expansions(graph))
    Path(args.out_before).write_text(before, encoding="utf-8", newline="")
    Path(args.out_after).write_text(after, encoding="utf-8", newline="")
    return 0


def non_negative_int(text: str) -> int:
    """argparse type of --seed, which numpy's generators refuse below 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


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
    run.add_argument("--seed", type=non_negative_int, default=0)
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
    conv.add_argument("--seed", type=non_negative_int, default=0)
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
        # Every value numpy would warn about here is refused afterwards with
        # an error naming it, so the warning would only repeat that error.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.handler(args)
    except (UqcError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
