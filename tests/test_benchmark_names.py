"""The uqc functions that perfbench/run.py names must exist, and its
`--trace 1` mode must run.

run.py traces uqc's public functions by name and reads their spans and
call counts back by name, so a uqc function it names that is renamed or
deleted only shows up as a KeyError in a `--trace 1` run.  The file is
read with ast, not imported: importing it rewrites os.environ and sys.path.
A trace also reads what those functions return (an evaluation report's
counts, a transformed graph, which it strips of its expands), so one short
`--trace 1` run checks that too.  One short untraced `sampling` run checks
that workload's studies, Monte Carlo among them.
"""

import ast
import importlib
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
# Span names of methods that run.py wraps besides module functions.
METHODS = {"quadrature.points": ("TensorGrid", "points")}


def _run_py_names() -> tuple[set[str], set[str]]:
    """(the uqc modules run.py imports, every `module.function` it names)."""
    tree = ast.parse(RUN_PY.read_text(encoding="utf-8"))
    modules = {alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "uqc"
               for alias in node.names}
    assigned = {target.id: node.value for node in tree.body if isinstance(node, ast.Assign)
                for target in node.targets if isinstance(target, ast.Name)}
    names = {ast.literal_eval(element) for element in assigned["NAMED_LAYER_TIMES"].elts}
    names |= {ast.literal_eval(key) for key in assigned["MEASURES"].keys}
    per_layer = [ast.literal_eval(key) for key in assigned["PER_LAYER_UNITS"].keys]
    names |= {key.removesuffix(".calls") for key in per_layer if key.endswith(".calls")}
    # `module.function.ms` self times, which read 0 if the function is
    # renamed; cli.report is derived from the other cli spans, not a function.
    names |= {key.removesuffix(".ms") for key in per_layer
              if key.endswith(".ms") and key.count(".") == 2 and key != "cli.report.ms"}
    # functions run.py calls directly, such as engine.worker_count()
    names |= {f"{node.func.value.id}.{node.func.attr}" for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and isinstance(node.func.value, ast.Name) and node.func.value.id in modules}
    return modules, names


MODULES, NAMES = _run_py_names()


def test_names_are_read_from_run_py():
    assert {"engine.expand_tensor", "engine.worker_count", "graph.topo_sort",
            "quadrature.points", "transform.strip_expansions", "cli.run_pipeline",
            "dsl.parse_model", "basis.design_matrix", "methods.moments_from_pce",
            "basis.enumerate_basis"} <= NAMES


@pytest.mark.parametrize("name", sorted(NAMES))
def test_named_function_is_public_in_its_module(name):
    module_name, function = name.split(".")
    assert module_name in MODULES
    module = importlib.import_module(f"uqc.{module_name}")
    if name in METHODS:
        cls, attr = METHODS[name]
        assert inspect.isfunction(vars(getattr(module, cls)).get(attr)), name
        return
    obj = getattr(module, function, None)
    assert not function.startswith("_") and inspect.isfunction(obj), name
    assert obj.__module__ == module.__name__, f"{name} is defined in {obj.__module__}"


def test_trace_mode_runs_and_checks_every_study():
    # --seconds 0 runs the fewest passes; spans and results go to the
    # ignored perfbench/out/
    done = subprocess.run(
        [sys.executable, str(RUN_PY), "--workload", "piston-sweep", "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=RUN_PY.parent.parent, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
    # Exact, machine-independent counts of the workload; a change that
    # moves one edits its number here and says why.
    counts = {
        "dsl.ops": 330,
        "dsl.parse_model.calls": 11,
        "graph.topo_sort.calls": 11,
        "transform.insert_expansions.calls": 4,
        "transform.expand_nodes": 96,
        "engine.scalar_evals.naive": 5940,
        "engine.scalar_evals.amtc": 1502,
        "engine.expansion_copies": 1166,
        "basis.design_matrix.calls": 1,
    }
    assert {name: result["metrics"][name]["value"] for name in counts} == counts


def test_sampling_workload_passes_its_checks():
    # The benchmark's own mc checks: within 5 standard errors of the exact
    # moments, and identical across passes.
    done = subprocess.run(
        [sys.executable, str(RUN_PY), "--workload", "sampling", "--seed", "1",
         "--seconds", "0", "--trace", "0"],
        cwd=RUN_PY.parent.parent, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
