"""Layered benchmark of `uqc run`.

    python3 perfbench/run.py --workload piston-sweep --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; uqc is imported from `src/`.  Each
workload is a closed loop with one client: a pass runs the workload's
studies one after another, each as one in-process `uqc.cli.main(["run",
...])` that writes its report to a file, and passes repeat until
`--seconds` have gone by.  Every study's report is checked against
numbers from `reference.py`, which does not use uqc.

With `--trace 0` the last stdout line is the JSON result with the
end-to-end metrics.  With `--trace 1`, untraced and traced passes
alternate and the result holds the per-layer metrics instead; the spans
of the traced passes are written to `perfbench/out/` when the run ends.
NOTES.md explains the workloads and metrics.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# One BLAS thread (at most nproc on any machine) and uqc's default of one
# worker thread, so that a run measures the same work everywhere.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("UQC_THREADS", None)

if not (ROOT / "src" / "uqc" / "__init__.py").is_file():
    sys.exit(f"error: no uqc sources at {ROOT / 'src' / 'uqc'}; "
             "run from the root of a uqc checkout")
sys.path.insert(0, str(ROOT / "src"))

import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import uqc  # noqa: E402
from uqc import (basis, cli, distributions, dsl, engine, graph, methods,  # noqa: E402
                 models, quadrature, transform)

import reference  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402

if Path(uqc.__file__).resolve().parent != ROOT / "src" / "uqc":
    sys.exit(f"error: imported uqc from {uqc.__file__}, not from {ROOT / 'src'}")

WORKLOADS = ("grid-sep6", "piston-sweep", "sampling")
SEP6 = str(HERE / "sep6.uq")
MC_SAMPLES = 1_000_000
SETUPS = 3          # set-ups per run; setup_s is their median
MIN_PASSES = 3      # per kind of pass, however short --seconds is

# Same discrete quantity computed by numpy: agreement is about 5e-15, and
# the bound still admits a 1e-12-relative change in the coefficients.
DISCRETE_RTOL = 1e-9
# sep6 against its exact moments: quadrature error of sc at k=8 is 2.5e-11,
# truncation of the p=4 projection moves the stddev by 7.5e-6, and the
# p=5 regression on 924 random samples is off by at most 1.6e-4 over
# seeds 0..199.
EXACT_RTOL = {"sc": 1e-9, "nipc-full": 1e-4, "nipc-full-amtc": 1e-4, "nipc-reg": 1e-3}
MC_SIGMAS = 5.0

WALL_TIME = re.compile(rb'"wall_time_ms": [^,}\n]+')
SQRT_DOMAIN_ERROR = re.compile(r"^error: .*operation \d+ \(sqrt\)", re.M)

# The JSON result carries the fastest pass rather than the median pass
# (printed as pass_s): on a shared machine the same code runs up to 1.8x
# slower for seconds at a time, which moves a run's median pass far more
# than its fastest one.
END_TO_END_UNITS = {"setup_s": "s", "pass_min_s": "s", "peak_rss_mb": "MB"}
# Only times that every workload measures; a function one workload never
# calls would read 0 there, so its time is printed but not in the result.
PER_LAYER_UNITS = {
    "dsl.parse_model.ms": "ms", "dsl.parse_model.calls": "count", "dsl.ops": "count",
    "graph.topo_sort.ms": "ms", "graph.topo_sort.calls": "count",
    "transform.insert_expansions.calls": "count", "transform.expand_nodes": "count",
    "quadrature.points.mb": "MB",
    "engine.ms": "ms", "engine.expand_tensor.calls": "count", "engine.expand.mb": "MB",
    "engine.scalar_evals.naive": "count", "engine.scalar_evals.amtc": "count",
    "engine.expansion_copies": "count",
    "basis.enumerate_basis.ms": "ms", "basis.design_matrix.ms": "ms",
    "basis.design_matrix.calls": "count", "basis.design_matrix.mb": "MB",
    "methods.ms": "ms", "methods.moments_from_pce.ms": "ms",
    "cli.run_pipeline.ms": "ms", "cli.report.ms": "ms", "cli.report.mb": "MB",
    "trace.overhead_frac": "ratio",
}
# Printed on every workload, zero where the workload never calls the function.
NAMED_LAYER_TIMES = (
    "transform.insert_expansions", "quadrature.grid_for", "quadrature.points",
    "engine.evaluate_naive", "engine.evaluate_amtc", "engine.evaluate_on_samples",
    "engine.expand_tensor", "methods.nipc_integration", "methods.sc_build",
    "methods.sc_moments", "methods.nipc_regression", "methods.monte_carlo")


@dataclass(frozen=True)
class Study:
    """One `uqc run` invocation and what its report must contain.

    `references` holds (label, mean, stddev, relative tolerance); `mc` holds
    the exact mean, stddev and kurtosis for a Monte Carlo check.
    """

    method: str
    model: str
    k: int | None = None
    order: int | None = None
    seed: int | None = None
    expect_sqrt_domain_error: bool = False
    references: tuple = ()
    mc: dict | None = None

    @property
    def label(self) -> str:
        parts = [Path(self.model).stem, self.method]
        parts += [f"{key}={value}" for key, value in
                  (("k", self.k), ("p", self.order)) if value is not None]
        return " ".join(parts)

    def argv(self, out: Path) -> list[str]:
        args = ["run", "--model", self.model, "--method", self.method,
                "--out", str(out)]
        if self.k is not None:
            args += ["--k", str(self.k)]
        if self.order is not None:
            args += ["--pce-order", str(self.order)]
        if self.seed is not None:
            args += ["--seed", str(self.seed)]
        if self.method == "mc":
            args += ["--mc-samples", str(MC_SAMPLES)]
        return args


def _grid_study(method, model, k, order, moments, exact=None) -> Study:
    kind = "sc" if method == "sc" else "pce"
    references = [("numpy grid", *moments[kind], DISCRETE_RTOL)]
    if exact is not None:
        references.append(("exact", *exact, EXACT_RTOL[method]))
    return Study(method, model, k, order, references=tuple(references))


def _regression_study(model, inputs, formula, order, seed, exact=None) -> Study:
    n = reference.REGRESSION_SAMPLE_MULTIPLIER * len(
        reference.total_degree_indices(len(inputs), order))
    columns = reference.regression_samples(inputs, n, seed)
    if formula is reference.piston and reference.piston_leaves_domain(*columns):
        # The standing piston domain failure: about 0.6% of samples make
        # the inner square root negative, so some seeds draw one.
        return Study("nipc-reg", model, order=order, seed=seed,
                     expect_sqrt_domain_error=True)
    references = [("numpy lstsq", *reference.regression_moments(
        formula, inputs, order, columns), DISCRETE_RTOL)]
    if exact is not None:
        references.append(("exact", *exact, EXACT_RTOL["nipc-reg"]))
    return Study("nipc-reg", model, order=order, seed=seed, references=tuple(references))


def build_studies(workload: str, seed: int) -> list[Study]:
    """The workload's study list, with references computed without uqc."""
    if workload == "grid-sep6":
        moments = reference.grid_moments(reference.sep6, reference.SEP6_INPUTS, 8, 4)
        exact = reference.sep6_exact()
        return [_grid_study(method, SEP6, 8, 4, moments, exact)
                for method in ("nipc-full", "nipc-full-amtc", "sc")]
    if workload == "piston-sweep":
        studies = []
        for k in (2, 3, 4):
            moments = reference.grid_moments(reference.piston, reference.PISTON_INPUTS, k, 3)
            studies += [_grid_study(method, "piston", k, 3, moments)
                        for method in ("nipc-full", "nipc-full-amtc", "sc")]
        studies.append(_regression_study("piston", reference.PISTON_INPUTS,
                                         reference.piston, 3, seed))
        nodes = [reference.gauss_rule(dist, 5)[0] for dist in reference.PISTON_INPUTS]
        if not reference.piston_leaves_domain(*np.meshgrid(*nodes, indexing="ij")):
            raise RuntimeError("reference: piston k=5 grid no longer leaves the domain")
        studies.append(Study("nipc-full-amtc", "piston", 5, 3,
                             expect_sqrt_domain_error=True))
        return studies
    if workload == "sampling":
        return [Study("mc", "multipoint", seed=seed, mc=reference.multipoint_exact()),
                _regression_study(SEP6, reference.SEP6_INPUTS, reference.sep6, 5, seed,
                                  exact=reference.sep6_exact())]
    raise ValueError(f"unknown workload {workload!r}")


def _close(value: float, expected: float, rtol: float) -> bool:
    return abs(value - expected) <= rtol * abs(expected)


def check_report(study: Study, report: dict) -> list[str]:
    result = report["uq_result"]
    mean, stddev = result["mean"], result["stddev"]
    problems = [f"{name} {value!r} is not within {rtol:g} of the {label} reference {want!r}"
                for label, ref_mean, ref_stddev, rtol in study.references
                for name, value, want in (("mean", mean, ref_mean),
                                          ("stddev", stddev, ref_stddev))
                if not _close(value, want, rtol)]
    if study.mc is not None:
        n = MC_SAMPLES
        if result["n_model_points"] != n:
            problems.append(f"mc used {result['n_model_points']} samples, not {n}")
        sigma = study.mc["stddev"]
        mean_se = sigma / math.sqrt(n)
        stddev_se = sigma * math.sqrt((study.mc["kurtosis"] - 1) / (4 * n))
        if abs(mean - study.mc["mean"]) > MC_SIGMAS * mean_se:
            problems.append(f"mc mean {mean!r} is more than {MC_SIGMAS:g} standard "
                            f"errors from {study.mc['mean']!r}")
        if abs(stddev - sigma) > MC_SIGMAS * stddev_se:
            problems.append(f"mc stddev {stddev!r} is more than {MC_SIGMAS:g} standard "
                            f"errors from {sigma!r}")
    return problems


class Checker:
    """Output checks of every study, with state kept across passes."""

    def __init__(self):
        self.digests: dict[int, str] = {}
        self._full_grid: dict[tuple, tuple] = {}

    def check(self, index: int, study: Study, rc, stderr: str,
              text: bytes | None, stable: bytes | None) -> list[str]:
        """`text` is the report as written, `stable` the same with every
        wall_time_ms value zeroed; both are None when no report was written."""
        if study.expect_sqrt_domain_error:
            if rc != 1 or not SQRT_DOMAIN_ERROR.search(stderr):
                return [f"expected a DomainError naming a sqrt op, got exit {rc}: "
                        f"{stderr.strip()!r}"]
            stable = stderr.encode()
            problems = []
        else:
            if rc != 0 or text is None:
                return [f"exit {rc}: {stderr.strip()!r}"]
            report = json.loads(text)
            problems = check_report(study, report)
            problems += self._compare_engines(study, report)
        digest = hashlib.sha256(stable).hexdigest()
        if self.digests.setdefault(index, digest) != digest:
            problems.append("output differs from the first pass beyond wall_time_ms")
        return problems

    def _compare_engines(self, study: Study, report: dict) -> list[str]:
        """nipc-full-amtc must reproduce nipc-full on the same grid bit for bit."""
        key = (study.model, study.k, study.order)
        result = report["uq_result"]
        observed = (report["evaluation"] and report["evaluation"]["outputs"],
                    result["mean"], result["stddev"])
        if study.method == "nipc-full":
            self._full_grid[key] = observed
        elif study.method == "nipc-full-amtc" and key in self._full_grid:
            if self._full_grid.pop(key) != observed:
                return ["outputs, mean or stddev differ from nipc-full on the same grid"]
        return []


@dataclass
class PassResult:
    seconds: list[float]        # per study
    failed: int                 # studies with at least one failed check
    failures: list[str]
    report_bytes: int           # with wall_time_ms values written as 0


def run_pass(studies, checker: Checker, tracer: Tracer | None = None) -> PassResult:
    out = OUT / f"study-{os.getpid()}.json"
    seconds, failures, failed, report_bytes = [], [], 0, 0
    gc.collect()
    if tracer is not None:
        tracer.install()
    try:
        for index, study in enumerate(studies):
            out.unlink(missing_ok=True)
            stderr = io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stderr(stderr):
                    rc = cli.main(study.argv(out))
            except Exception as exc:  # noqa: BLE001 - a crash fails this study only
                rc = f"uncaught {type(exc).__name__}: {exc}"
            seconds.append(time.perf_counter() - start)
            text = out.read_bytes() if out.is_file() else None
            stable = None if text is None else WALL_TIME.sub(b'"wall_time_ms": 0', text)
            problems = checker.check(index, study, rc, stderr.getvalue(), text, stable)
            failures += [f"{study.label}: {problem}" for problem in problems]
            failed += bool(problems)
            report_bytes += len(stable or b"")
    finally:
        if tracer is not None:
            tracer.uninstall()
        out.unlink(missing_ok=True)
    return PassResult(seconds, failed, failures, report_bytes)


def setup(workload: str, seed: int) -> tuple[list[Study], Checker, PassResult]:
    """Load the models, compute references and run one warm-up pass."""
    if not Path(SEP6).is_file():
        raise FileNotFoundError(SEP6)
    studies = build_studies(workload, seed)
    checker = Checker()
    return studies, checker, run_pass(studies, checker)


def child_setups(args, count: int) -> list[dict]:
    """Time `count` cold set-ups, each in a fresh interpreter, one at a time."""
    results = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return results


# Per-layer accounting -------------------------------------------------------

def _expand_nodes(args, result) -> int:
    return sum(op.kind == graph.EXPAND for op in result.graph.operations)


MEASURES = {
    "dsl.parse_model": lambda args, result: len(result.operations),
    "transform.insert_expansions": _expand_nodes,
    "quadrature.points": lambda args, result: result.nbytes,
    "basis.design_matrix": lambda args, result: result.nbytes,
    "engine.evaluate_naive": lambda args, result: result.total_scalar_evals,
    "engine.evaluate_amtc": lambda args, result: (
        args[0].graph, args[1].axis_sizes, result.total_scalar_evals,
        result.expansion_copies),
}


def make_tracer() -> Tracer:
    modules = (basis, cli, distributions, dsl, engine, graph, methods, models,
               quadrature, transform)
    return Tracer(uqc, modules, methods=[(quadrature.TensorGrid, "points",
                                          "quadrature.points")],
                  measures=MEASURES)


def layer_pass_metrics(tracer: Tracer, spans, observations, result: PassResult):
    """(times in ms, exact counts) of one traced pass, plus count-law failures."""
    totals, calls = self_times(spans)
    times = {f"{name}.ms": totals.get(name, 0.0) * 1e3 for name in tracer.names}
    counts = {f"{name}.calls": calls.get(name, 0) for name in tracer.names}
    for name, seconds in totals.items():
        module = name.split(".")[0]
        times[f"{module}.ms"] = times.get(f"{module}.ms", 0.0) + seconds * 1e3
    times["cli.report.ms"] = sum(seconds * 1e3 for name, seconds in totals.items()
                                 if name.startswith("cli.") and name != "cli.run_pipeline")

    counts.update({"dsl.ops": 0, "transform.expand_nodes": 0, "quadrature.points.mb": 0,
                   "basis.design_matrix.mb": 0, "engine.scalar_evals.naive": 0,
                   "engine.scalar_evals.amtc": 0, "engine.expansion_copies": 0})
    failures = []
    for name, value in observations:
        if name == "dsl.parse_model":
            counts["dsl.ops"] += value
        elif name == "transform.insert_expansions":
            counts["transform.expand_nodes"] += value
        elif name in ("quadrature.points", "basis.design_matrix"):
            counts[f"{name}.mb"] += value
        elif name == "engine.evaluate_naive":
            counts["engine.scalar_evals.naive"] += value
        elif name == "engine.evaluate_amtc":
            transformed, sizes, scalar_evals, copies = value
            matrix = transform.compute_influence_matrix(
                transform.strip_expansions(transformed))
            scheduled = sum(transform.scheduled_eval_counts(matrix, sizes).values())
            if scalar_evals != scheduled:
                failures.append(f"amtc scalar evals {scalar_evals} != scheduled "
                                f"{scheduled} on grid {sizes}")
            counts["engine.scalar_evals.amtc"] += scalar_evals
            counts["engine.expansion_copies"] += copies
    counts["engine.expand.mb"] = counts["engine.expansion_copies"] * 8
    counts["cli.report.mb"] = result.report_bytes
    for name in ("quadrature.points.mb", "basis.design_matrix.mb", "engine.expand.mb",
                 "cli.report.mb"):
        counts[name] /= 1e6
    return times, counts, failures


# Environment and output -----------------------------------------------------

def environment(args) -> dict:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), platform.processor())
    except OSError:
        cpu = platform.processor()
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src" / "uqc").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "UQC_THREADS": os.environ.get("UQC_THREADS", "unset"),
        "uqc_workers": engine.worker_count(),
        "git_commit": commit, "src_uqc_sha256": sources.hexdigest(),
    }


def tail_percentile(values: list[float]):
    """(label, value) of the highest percentile with at least ten samples
    beyond it, or None when there are fewer than 100 samples."""
    for percent in (99.9, 99, 95, 90):
        if len(values) * (100 - percent) / 100 >= 10:
            cuts = statistics.quantiles(values, n=1000, method="inclusive")
            return f"p{percent:g}", cuts[round(percent * 10) - 1]
    return None


def print_metric(name: str, value, unit: str, note: str = "") -> None:
    print(f"{name} = {value!r} {unit}" + (f"  ({note})" if note else ""))


@dataclass
class Run:
    """Everything one invocation measured."""

    studies: list
    setups: list[float]
    attempted: int
    failed: int
    failures: list[str]
    untraced: list[PassResult] = field(default_factory=list)
    traced: list[PassResult] = field(default_factory=list)
    layer_times: list[dict] = field(default_factory=list)
    layer_counts: list[dict] = field(default_factory=list)
    spans: list[list] = field(default_factory=list)

    def pass_seconds(self, passes=None) -> list[float]:
        return [sum(r.seconds) for r in (self.untraced if passes is None else passes)]


def measure(args, studies, checker, run: Run) -> None:
    """Closed loop of passes until --seconds are up; with --trace 1,
    untraced and traced passes alternate."""
    tracer = make_tracer() if args.trace else None
    deadline = time.perf_counter() + args.seconds
    while (time.perf_counter() < deadline or len(run.untraced) < MIN_PASSES
           or (tracer is not None and len(run.traced) < MIN_PASSES)):
        trace_this = tracer is not None and len(run.traced) < len(run.untraced)
        result = run_pass(studies, checker, tracer if trace_this else None)
        run.attempted += len(studies)
        run.failed += result.failed
        run.failures += result.failures
        if not trace_this:
            run.untraced.append(result)
            continue
        run.traced.append(result)
        spans, observations = tracer.take()
        times, counts, count_failures = layer_pass_metrics(tracer, spans, observations,
                                                           result)
        run.failures += count_failures
        if run.layer_counts and counts != run.layer_counts[0]:
            changed = sorted(name for name in counts
                             if counts[name] != run.layer_counts[0][name])
            run.failures.append(f"layer counts differ between traced passes: {changed}")
        run.layer_times.append(times)
        run.layer_counts.append(counts)
        run.spans.append(spans)


def end_to_end_metrics(run: Run) -> dict:
    pass_seconds = run.pass_seconds()
    metrics = {
        "setup_s": statistics.median(run.setups),
        "pass_s": statistics.median(pass_seconds),
        "pass_min_s": min(pass_seconds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    print_metric("setup_s", metrics["setup_s"], "s",
                 "median of set-ups " + ", ".join(f"{s:.3f}" for s in run.setups))
    tail = tail_percentile(pass_seconds)
    print_metric("pass_s", metrics["pass_s"], "s", f"median of {len(pass_seconds)} passes"
                 + (f", {tail[0]} = {tail[1]!r} s" if tail else ""))
    print_metric("pass_min_s", metrics["pass_min_s"], "s",
                 f"fastest of {len(pass_seconds)} passes")
    for method in dict.fromkeys(study.method for study in run.studies):
        per_pass = [sum(s for s, study in zip(r.seconds, run.studies) if study.method == method)
                    for r in run.untraced]
        print_metric(f"run_ms.{method}", statistics.median(per_pass) * 1e3, "ms",
                     "median over passes")
    print_metric("peak_rss_mb", metrics["peak_rss_mb"], "MB")
    return metrics


def per_layer_metrics(run: Run) -> dict:
    names = {name for times in run.layer_times for name in times}
    names |= {f"{name}.ms" for name in NAMED_LAYER_TIMES}
    times = {name: statistics.median(t.get(name, 0.0) for t in run.layer_times)
             for name in sorted(names)}
    counts = run.layer_counts[0]
    for name, value in times.items():
        called = counts.get(name[:-len(".ms")] + ".calls", 1)
        if called or name[:-len(".ms")] in NAMED_LAYER_TIMES:
            print_metric(name, value, "ms", "self time per pass, median")
    for name, value in sorted(counts.items()):
        if value or name in PER_LAYER_UNITS:
            print_metric(name, value, "MB" if name.endswith(".mb") else "count", "per pass")
    traced = statistics.median(run.pass_seconds(run.traced))
    untraced = statistics.median(run.pass_seconds())
    overhead = traced / untraced - 1
    print_metric("trace.overhead_frac", overhead, "ratio",
                 f"traced pass_s {traced!r} over untraced {untraced!r}, "
                 f"{len(run.traced)} and {len(run.untraced)} passes")
    metrics = {**times, **counts, "trace.overhead_frac": overhead}
    return {name: metrics[name] for name in PER_LAYER_UNITS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    OUT.mkdir(exist_ok=True)

    studies, checker, warmup = setup(args.workload, args.seed)
    setup_seconds = time.perf_counter() - START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_seconds, "attempted": len(studies),
                          "failed": warmup.failed, "failures": warmup.failures}))
        return 0
    run = Run(studies, [setup_seconds], len(studies), warmup.failed, list(warmup.failures))
    for child in child_setups(args, SETUPS - 1):
        run.setups.append(child["setup_s"])
        run.attempted += child["attempted"]
        run.failed += child["failed"]
        run.failures += child["failures"]
    measure(args, studies, checker, run)

    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True))
    for failure in run.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    if args.trace:
        metrics, units = per_layer_metrics(run), PER_LAYER_UNITS
    else:
        metrics, units = end_to_end_metrics(run), END_TO_END_UNITS
    print_metric("failed_frac", run.failed / run.attempted, "",
                 f"{run.failed} of {run.attempted} studies attempted")
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps({
        "env": env, "metrics": metrics, "setups_s": run.setups,
        "pass_s": run.pass_seconds(), "traced_pass_s": run.pass_seconds(run.traced),
        "study_labels": [study.label for study in run.studies],
        "study_s": [r.seconds for r in run.untraced],
        "failures": run.failures}, indent=1))
    if args.trace:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(
            {"fields": ["name", "start_s", "end_s", "parent"], "passes": run.spans}))
    print(json.dumps({"correct": not run.failures, "attempted": run.attempted,
                      "failed": run.failed,
                      "metrics": {name: {"value": metrics[name], "unit": units[name]}
                                  for name in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
