import csv
import io
import json
import math
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uqc import TransformedGraph, builtin_model, engine, insert_expansions, quadrature
from uqc.cli import (METHODS, _report_json, bench_rows, build_parser, main, parse_k_range,
                     run_pipeline)
from uqc.errors import DomainError
from uqc.methods import monte_carlo, sample_inputs
from uqc.models import BUILTIN_SOURCES

SRC = Path(__file__).parent.parent / "src"


def run_cli(argv):
    return main(argv)


def strip_wall_times(text: str) -> str:
    return re.sub(r'"wall_time_ms": [^,}\n]+', '"wall_time_ms": 0', text)


def refusing_expand_ir():
    """Patch TransformedGraph.graph to fail if anything builds it."""
    def build(transformed):
        raise AssertionError("built the transformed graph")
    return patch.object(TransformedGraph, "graph", property(build))


def piston_copies(k: int) -> int:
    """The piston's copies at k, counted over its expands."""
    transformed = insert_expansions(builtin_model("piston")).graph
    return sum(k ** len(op.expand_to) for op in transformed.operations if op.kind == "expand")


class TestRun:
    def test_simple_nipc_json_fields(self, tmp_path):
        out = tmp_path / "report.json"
        rc = run_cli(["run", "--model", "simple", "--method", "nipc-full",
                      "--k", "3", "--pce-order", "2", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["model"] == "simple"
        assert payload["uq_result"]["n_model_points"] == 9
        assert payload["evaluation"]["total_scalar_evals"] == 36
        assert "mean" in payload["uq_result"] and "stddev" in payload["uq_result"]

    def test_amtc_and_naive_agree_on_moments(self, tmp_path):
        reports = {}
        for method in ("nipc-full", "nipc-full-amtc"):
            out = tmp_path / f"{method}.json"
            rc = run_cli(["run", "--model", "simple", "--method", method,
                          "--k", "3", "--pce-order", "2", "--out", str(out)])
            assert rc == 0
            reports[method] = json.loads(out.read_text())
        full = reports["nipc-full"]["uq_result"]
        fast = reports["nipc-full-amtc"]["uq_result"]
        assert fast["mean"] == pytest.approx(full["mean"], rel=1e-12)
        assert fast["stddev"] == pytest.approx(full["stddev"], rel=1e-12)
        assert reports["nipc-full-amtc"]["evaluation"]["total_scalar_evals"] == 18

    def test_piston_amtc_run(self, tmp_path):
        out = tmp_path / "piston.json"
        rc = run_cli(["run", "--model", "piston", "--method", "nipc-full-amtc",
                      "--k", "4", "--pce-order", "3", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["uq_result"]["mean"] > 0
        assert payload["evaluation"]["total_scalar_evals"] < 30 * 64

    def test_amtc_study_never_builds_the_transformed_graph(self):
        graph = builtin_model("piston")
        with refusing_expand_ir():
            report = run_pipeline(graph, "nipc-full-amtc", 3, 2, 0, 0)[1]
        assert report.expansion_copies == piston_copies(3)

    def test_unknown_model_exits_one(self, capsys):
        rc = run_cli(["run", "--model", "nosuch", "--method", "mc"])
        assert rc == 1
        assert "unknown model" in capsys.readouterr().err

    def test_missing_k_is_config_error(self, capsys):
        rc = run_cli(["run", "--model", "simple", "--method", "nipc-full"])
        assert rc == 1
        assert "requires --k" in capsys.readouterr().err

    def test_model_file_path(self, tmp_path):
        source = "input x ~ Normal(0,1)\noutput f = x * 2\n"
        path = tmp_path / "double.uq"
        path.write_text(source)
        out = tmp_path / "out.json"
        rc = run_cli(["run", "--model", str(path), "--method", "mc",
                      "--mc-samples", "5000", "--seed", "3", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["model"] == "double"
        assert payload["uq_result"]["stddev"] == pytest.approx(2.0, rel=0.05)

    def test_non_finite_result_exits_one(self, tmp_path, capsys):
        path = tmp_path / "overflow.uq"
        path.write_text("input u ~ Uniform(0,1)\noutput f = exp(1000*u) - exp(1000*u)\n")
        rc = run_cli(["run", "--model", str(path), "--method", "nipc-full", "--k", "3"])
        assert rc == 1
        assert "non-finite result inf in operation 4 (exp)" in capsys.readouterr().err

    @pytest.mark.parametrize("method", METHODS)
    def test_overflowing_inputs_exit_one_naming_the_input(self, tmp_path, capsys, method):
        # finite parameters, but the mapped Gauss nodes and the draws overflow
        path = tmp_path / "huge.uq"
        path.write_text("input x ~ Normal(1e308, 1e308)\noutput f = x\n")
        rc = run_cli(["run", "--model", str(path), "--method", method, "--k", "3",
                      "--mc-samples", "1000"])
        assert rc == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: non-finite (grid node inf of uncertain input 'x' on "
                            r"axis 0|input at sample row \d+: x=-?inf)\n", err)

    def test_overflowing_mc_draw_prints_one_error_line(self, tmp_path, capsys):
        # 100000 samples are 4 blocks: the caller draws them, and where the
        # process may use two CPUs either thread checks and runs them;
        # nothing may warn, as the CLI's errstate does not reach the helper
        path = tmp_path / "wide.uq"
        path.write_text("input x ~ Normal(0, 1e308)\noutput f = x * 0.5\n")
        rc = run_cli(["run", "--model", str(path), "--method", "mc",
                      "--mc-samples", "100000", "--seed", "0"])
        assert rc == 1
        assert capsys.readouterr().err == "error: non-finite input at sample row 12: x=-inf\n"

    @pytest.mark.parametrize("method", METHODS)
    def test_uniform_whose_bounds_sum_overflows(self, tmp_path, method):
        # lower + upper overflows, though every point of the input is finite
        path = tmp_path / "far.uq"
        path.write_text("input x ~ Uniform(1e308, 1.5e308)\n"
                        "output f = (x - 1.25e308) * 1e-300\n")
        out = tmp_path / "far.json"
        rc = run_cli(["run", "--model", str(path), "--method", method, "--k", "3",
                      "--mc-samples", "1000", "--out", str(out)])
        assert rc == 0
        stddev = json.loads(out.read_text())["uq_result"]["stddev"]
        assert stddev == pytest.approx(2.5e7 / math.sqrt(3), rel=0.1 if method == "mc" else 1e-12)

    @pytest.mark.parametrize("method", METHODS)
    def test_non_finite_moments_exit_one(self, tmp_path, capsys, method):
        # every value evaluated is finite, but the variance is about 1e400
        path = tmp_path / "steep.uq"
        path.write_text("input x ~ Normal(0, 1)\noutput f = x * 1e200\n")
        rc = run_cli(["run", "--model", str(path), "--method", method, "--k", "3",
                      "--mc-samples", "1000"])
        assert rc == 1
        assert re.fullmatch(rf"error: {method}: non-finite moments, mean \S+, stddev inf\n",
                            capsys.readouterr().err)
        rc = run_cli(["convergence", "--model", str(path), "--methods", method, "--k", "2..3"])
        assert rc == 1
        assert "non-finite moments" in capsys.readouterr().err

    def test_domain_error_prints_the_sample_as_plain_floats(self, capsys):
        rc = run_cli(["run", "--model", "piston", "--method", "mc",
                      "--mc-samples", "1000", "--seed", "0"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "input sample (43.96708115857752, 0.010903889631818016, " in err
        assert "np.float64(" not in err
        with pytest.raises(DomainError) as excinfo:
            monte_carlo(builtin_model("piston"), 1000, seed=0)
        sample = excinfo.value.sample
        assert all(type(x) is float for x in sample)
        assert sample == tuple(sample_inputs(builtin_model("piston"), 1000, 0)[
            excinfo.value.point_index])

    def test_parse_error_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.uq"
        path.write_text("output f = (\n")
        rc = run_cli(["run", "--model", str(path), "--method", "mc"])
        assert rc == 1
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("method", METHODS)
    def test_model_without_output_exits_one(self, tmp_path, capsys, method):
        path = tmp_path / "silent.uq"
        path.write_text("input x ~ Normal(0,1)\n")
        rc = run_cli(["run", "--model", str(path), "--method", method, "--k", "3"])
        assert rc == 1
        assert capsys.readouterr().err == "error: model declares no output\n"

    @pytest.mark.parametrize("exc", [
        MemoryError("Unable to allocate 5.43 GiB for an array with shape "
                    "(30, 30, 30, 30, 30, 30) and data type float64"),
        MemoryError()])
    def test_allocation_failure_exits_one_with_one_error_line(self, capsys, exc):
        with patch.object(engine, "evaluate_amtc", side_effect=exc):
            rc = run_cli(["run", "--model", "piston", "--method", "nipc-full-amtc", "--k", "3"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {str(exc) or 'MemoryError'}\n"

    def test_deterministic_reports_modulo_wall_time(self, tmp_path):
        texts = []
        for i in range(2):
            out = tmp_path / f"det{i}.json"
            rc = run_cli(["run", "--model", "piston", "--method", "nipc-full-amtc",
                          "--k", "4", "--pce-order", "3", "--out", str(out)])
            assert rc == 0
            texts.append(out.read_text())
        assert strip_wall_times(texts[0]) == strip_wall_times(texts[1])

    def test_csv_format(self, tmp_path):
        out = tmp_path / "run.csv"
        rc = run_cli(["run", "--model", "simple", "--method", "sc", "--k", "3",
                      "--format", "csv", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().split("\n")
        assert lines[0] == "model,method,mean,stddev,n_model_points"
        assert lines[1].startswith("simple,sc,")

    @pytest.mark.parametrize("stem, cell", [
        ("a,b", '"a,b"'),
        ('say "f"', '"say ""f"""'),
    ])
    def test_csv_quotes_a_model_name_with_a_comma_or_a_quote(self, tmp_path, stem, cell):
        model = tmp_path / f"{stem}.uq"
        model.write_text("input x ~ Normal(0, 1)\noutput f = 2 * x\n")
        out = tmp_path / "run.csv"
        rc = run_cli(["run", "--model", str(model), "--method", "sc", "--k", "3",
                      "--format", "csv", "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert text.split("\n")[1].startswith(f"{cell},sc,")
        header, row = csv.reader(io.StringIO(text))
        assert len(header) == len(row) == 5
        assert row[:2] == [stem, "sc"]
        assert float(row[2]) == pytest.approx(0.0, abs=1e-12)
        assert float(row[3]) == pytest.approx(2.0)

    @pytest.mark.parametrize("source, message", [
        ("param p = 1e400\ninput x ~ Normal(0,1)\noutput f = x + p\n",
         "line 1, column 11: number out of range"),
        ("input x ~ Normal(0,1)\noutput f = x * 1e400\n",
         "line 2, column 16: number out of range"),
        ("input x ~ Normal(0, 1e400)\noutput f = x\n",
         "line 1, column 21: number out of range"),
        ("input x ~ Uniform(-1e308, 1e308)\noutput f = x\n",
         "need a finite upper - lower"),
    ])
    def test_non_finite_literal_or_parameter_exits_one(self, tmp_path, capsys,
                                                       source, message):
        path = tmp_path / "huge.uq"
        path.write_text(source)
        rc = run_cli(["run", "--model", str(path), "--method", "nipc-full", "--k", "2"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err


EVALUATION_KEYS = {"outputs", "op_eval_counts", "total_scalar_evals", "expansion_copies",
                   "equivalent_model_evals", "wall_time_ms"}
UQ_RESULT_DETAILS = {
    "nipc-full": {"k", "pce_order", "n_coefficients", "engine"},
    "nipc-full-amtc": {"k", "pce_order", "n_coefficients", "engine"},
    "sc": {"k", "extrapolation"},
    "nipc-reg": {"pce_order", "n_samples", "seed", "multiplier", "residual", "rank",
                 "n_points"},
    "mc": {"seed", "standard_error", "output"},
}


# Every method on three builtins and on a model file with a non-ASCII
# name, but the piston's mc, which the piston's domain refuses.
LAYOUT_STUDIES = [
    (model, k, method)
    for model, k in (("simple", 3), ("piston", 2), ("multipoint", 2),
                     ("m\u00f6del \u03c0 \U0001d53c.uq", 2))
    for method in METHODS if (model, method) != ("piston", "mc")]


class TestReport:
    """The report layout that `uqc run` writes."""

    def test_json_round_trip_structure(self, tmp_path):
        out = tmp_path / "report.json"
        assert run_cli(["run", "--model", "simple", "--method", "nipc-full",
                        "--k", "2", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())["evaluation"]
        assert set(payload) == EVALUATION_KEYS
        assert payload["total_scalar_evals"] == 16
        assert payload["outputs"]["f"]["signature"] == [0, 1]

    @pytest.mark.parametrize("source", [
        "input x ~ Normal(0, 1)\noutput f = x\n",
        "input x ~ Normal(0, 1)\ninput y ~ Normal(0, 1)\nt = x * y\noutput f = t\n",
    ])
    @pytest.mark.parametrize("method", ["nipc-full", "mc"])
    def test_output_is_reported_under_its_declared_name(self, tmp_path, source, method):
        path = tmp_path / "named.uq"
        path.write_text(source)
        out = tmp_path / "report.json"
        assert run_cli(["run", "--model", str(path), "--method", method, "--k", "2",
                        "--mc-samples", "100", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        if method == "mc":
            assert payload["uq_result"]["details"]["output"] == "f"
        else:
            assert list(payload["evaluation"]["outputs"]) == ["f"]

    def test_json_is_byte_stable_modulo_wall_time(self, tmp_path):
        texts = []
        for i in range(2):
            out = tmp_path / f"report{i}.json"
            assert run_cli(["run", "--model", "simple", "--method", "nipc-full",
                            "--k", "3", "--out", str(out)]) == 0
            texts.append(out.read_text())
        assert strip_wall_times(texts[0]) == strip_wall_times(texts[1])

    @pytest.mark.parametrize("model, k, method", LAYOUT_STUDIES, ids=lambda value: (
        "non-ascii-file" if str(value).endswith(".uq") else None))
    def test_layout(self, tmp_path, capsysbinary, model, k, method):
        if model.endswith(".uq"):  # the simple model, read from a file
            path = tmp_path / model
            path.write_text(BUILTIN_SOURCES["simple"], encoding="utf-8")
            spec, name, graph = str(path), path.stem, builtin_model("simple")
        else:
            spec, name, graph = model, model, builtin_model(model)
        argv = ["run", "--model", spec, "--method", method, "--k", str(k),
                "--mc-samples", "100"]
        json_out, csv_out = tmp_path / "report.json", tmp_path / "report.csv"
        assert run_cli(argv + ["--out", str(json_out)]) == 0
        assert run_cli(argv + ["--format", "csv", "--out", str(csv_out)]) == 0
        text = json_out.read_text(encoding="utf-8")
        payload = json.loads(text)
        # Indented by 2, keys sorted at every level, one trailing newline.
        assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"

        # --out - writes the bytes --out FILE does.
        assert run_cli(argv + ["--out", "-"]) == 0
        stdout = capsysbinary.readouterr().out.decode("utf-8")
        assert strip_wall_times(stdout) == strip_wall_times(text)
        assert run_cli(argv + ["--format", "csv", "--out", "-"]) == 0
        assert capsysbinary.readouterr().out == csv_out.read_bytes()

        assert set(payload) == {"model", "method", "uq_result", "evaluation"}
        assert (payload["model"], payload["method"]) == (name, method)
        result = payload["uq_result"]
        assert set(result) == {"method", "mean", "stddev", "n_model_points", "details"}
        assert result["method"] == method
        assert set(result["details"]) == UQ_RESULT_DETAILS[method]
        evaluation = payload["evaluation"]
        if not METHODS[method].on_grid:
            assert evaluation is None
        else:
            assert set(evaluation) == EVALUATION_KEYS
            output = graph.first_output_name()
            assert set(evaluation["outputs"]) == {output}
            assert set(evaluation["outputs"][output]) == {"signature", "data"}
            assert len(evaluation["outputs"][output]["data"]) == k ** graph.dim
            ops = graph.operations
            assert set(evaluation["op_eval_counts"]) == {str(op.id) for op in ops}

        # The CSV row carries the JSON report's moments in repr form.
        assert csv_out.read_text(encoding="utf-8").split("\n") == [
            "model,method,mean,stddev,n_model_points",
            f"{name},{method},{result['mean']!r},{result['stddev']!r},"
            f"{result['n_model_points']}",
            "",
        ]

    def test_a_refused_study_writes_no_report(self, tmp_path, capsysbinary):
        # The standing piston domain failure: 100 normal draws of S and V0
        # hold one that makes the inner square root negative.
        argv = ["run", "--model", "piston", "--method", "mc", "--mc-samples", "100"]
        out = tmp_path / "report.json"
        assert run_cli(argv + ["--out", str(out)]) == 1
        refused = capsysbinary.readouterr()
        assert refused.out == b"" and not out.exists()
        assert refused.err.startswith(b"error: sqrt of negative value in operation 40 (sqrt)")
        assert run_cli(argv + ["--out", "-"]) == 1
        assert capsysbinary.readouterr() == refused


# Leaves of every kind json writes, and two it refuses inside a report:
# np.float64 is a float to json, np.int64 is not an int.
JSON_FLOATS = st.floats() | st.sampled_from(
    (-0.0, 5e-324, 1e308, -1e308, math.nan, math.inf, -math.inf))
JSON_LEAVES = (st.none() | st.booleans() | st.integers() | st.integers(2 ** 63, 2 ** 200)
               | JSON_FLOATS | st.text() | st.sampled_from(("\"\\\n\t\x00", "\u00e9\u03c0\U0001d53c"))
               | st.builds(np.float64, JSON_FLOATS) | st.builds(np.int64, st.integers(-9, 9)))
# Keys whose sorted order is not their numeric order ("10" < "7").
JSON_KEYS = st.integers(0, 12).map(str) | st.text(max_size=4)


def json_containers(children):
    return (st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
            | st.dictionaries(JSON_KEYS, children, max_size=4)
            | st.dictionaries(st.integers(-3, 3), children, max_size=3)
            | st.lists(JSON_FLOATS, max_size=40))


@settings(max_examples=500, deadline=None)
@given(st.recursive(JSON_LEAVES, json_containers, max_leaves=40))
@example({"7": [0.5], "10": {"a": [], "b": {}, "c": [1.5]}, "": ()})
@example([-0.0, 5e-324, 1e308, 2.5])
@example([math.nan, 1.0])
@example({"x": [np.float64(-0.0), np.float64(math.inf)]})
@example({"x": [1.0, np.int64(2)]})
def test_report_writer_is_json_dumps(payload):
    try:
        expected = json.dumps(payload, indent=2, sort_keys=True)
    except TypeError as exc:
        with pytest.raises(TypeError, match=f"^{re.escape(str(exc))}$"):
            _report_json(payload)
    else:
        assert _report_json(payload) == expected


@pytest.mark.parametrize("counts", [
    {}, {"3": -7, "10": 0, "2": 12}, {"a": 2 ** 200, "b": -(2 ** 70), "c": 10 ** 300},
    {"x": True, "y": 1}, {"x": False}, {"x": 1, "y": 2.5, "z": None, "w": "s"},
    {"7": 1, "10": {"k": 2}}, {"é": 1, "\"": 2}])
def test_report_writer_writes_int_dicts_as_json_dumps(counts):
    # an all-int dict is written with one join; bool values are not ints
    for payload in (counts, {"evaluation": {"op_eval_counts": counts}}):
        assert _report_json(payload) == json.dumps(payload, indent=2, sort_keys=True)


SEP6 =Path(__file__).parent.parent / "perfbench" / "sep6.uq"


class TestRepeatedRuns:
    """A second study in one process reuses the kept 1-D rules and must
    report exactly what the first did."""

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("model, k_values", [
        ("simple", (2, 3, 4)), ("multipoint", (2, 3, 4)), ("piston", (2, 3, 4)),
        ("sep6", (2, 3)),
    ])
    def test_second_report_equals_the_first(self, tmp_path, capsys, model, method,
                                            k_values):
        if not METHODS[method].on_grid:
            k_values = k_values[:1]  # the sample methods do not read --k
        for k in k_values:
            argv = ["run", "--model", str(SEP6) if model == "sep6" else model,
                    "--method", method, "--k", str(k), "--mc-samples", "2000", "--seed", "1"]
            quadrature._standard_rule.cache_clear()
            runs = []
            for i in range(2):
                out, csv = tmp_path / f"report{i}.json", tmp_path / f"report{i}.csv"
                json_rc = run_cli(argv + ["--out", str(out)])
                csv_rc = run_cli(argv + ["--format", "csv", "--out", str(csv)])
                runs.append((json_rc, csv_rc, capsys.readouterr().err,
                             json_rc or strip_wall_times(out.read_text()),
                             csv_rc or csv.read_text()))
            assert runs[1] == runs[0]
            # seed 1 draws piston samples outside the model's real domain
            if (model, method) == ("piston", "mc"):
                assert runs[0][:2] == (1, 1) and "sqrt of negative value" in runs[0][2]
            else:
                assert runs[0][:3] == (0, 0, "")


class TestBench:
    def test_simple_reduction_closed_form(self, tmp_path):
        out = tmp_path / "bench.csv"
        rc = run_cli(["bench", "--model", "simple", "--k", "3..7",
                      "--repeats", "2", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().rstrip("\n").split("\n")
        header = lines[0].split(",")
        assert header == ["k", "naive_scalar_evals", "amtc_scalar_evals",
                          "expansion_copies", "naive_wall_ms", "amtc_wall_ms",
                          "reduction"]
        for line in lines[1:]:
            cells = line.split(",")
            k = int(cells[0])
            naive, amtc, copies = int(cells[1]), int(cells[2]), int(cells[3])
            assert naive == 4 * k * k
            assert amtc == k * k + 3 * k
            assert copies == 2 * k * k
            # reduction column is recomputable from the same row
            assert float(cells[6]) == 1.0 - amtc / naive
            assert float(cells[4]) > 0 and float(cells[5]) > 0

    def test_piston_counts_survive_domain_errors(self, tmp_path, capsys):
        out = tmp_path / "piston.csv"
        rc = run_cli(["bench", "--model", "piston", "--k", "3..7",
                      "--repeats", "1", "--out", str(out)])
        assert rc == 0
        err = capsys.readouterr().err
        assert "domain" in err  # k >= 5 rows cannot be timed
        lines = out.read_text().rstrip("\n").split("\n")
        assert len(lines) == 6
        for line in lines[1:]:
            cells = line.split(",")
            k = int(cells[0])
            reduction = float(cells[6])
            assert 0.40 <= reduction <= 0.70
            if k >= 5:
                assert cells[4] == "" and cells[5] == ""
            else:
                assert cells[4] != "" and cells[5] != ""

    def test_rows_never_build_the_transformed_graph(self):
        with refusing_expand_ir():
            rows = bench_rows(builtin_model("piston"), [2, 3], 1)
        assert [row[3] for row in rows[1:]] == [piston_copies(2), piston_copies(3)]

    def test_model_without_operations(self, tmp_path):
        path = tmp_path / "identity.uq"
        path.write_text("input x ~ Normal(0,1)\noutput f = x\n")
        out = tmp_path / "bench.csv"
        rc = run_cli(["bench", "--model", str(path), "--k", "2..3",
                      "--repeats", "1", "--out", str(out)])
        assert rc == 0
        rows = [line.split(",") for line in out.read_text().rstrip("\n").split("\n")[1:]]
        assert [row[:4] for row in rows] == [["2", "0", "0", "0"], ["3", "0", "0", "0"]]
        assert [row[6] for row in rows] == ["0.0", "0.0"]

    def test_no_repeats_exits_one(self, capsys):
        rc = run_cli(["bench", "--model", "simple", "--k", "2", "--repeats", "0"])
        assert rc == 1
        assert capsys.readouterr().err == "error: --repeats must be at least 1, got 0\n"

    def test_line_endings_are_lf(self, tmp_path):
        out = tmp_path / "bench.csv"
        run_cli(["bench", "--model", "simple", "--k", "2..3",
                 "--repeats", "1", "--out", str(out)])
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")


class TestConvergence:
    def test_reference_has_zero_error(self, tmp_path):
        out = tmp_path / "conv.csv"
        rc = run_cli(["convergence", "--model", "simple", "--methods", "nipc-full",
                      "--k", "2..5", "--pce-order", "2", "--out", str(out)])
        assert rc == 0
        rows = [line.split(",") for line in out.read_text().rstrip().split("\n")[1:]]
        by_k = {int(r[1]): float(r[4]) for r in rows}
        assert by_k[5] == 0.0
        assert by_k[5] < by_k[2]  # converges with k

    def test_reference_study_runs_once(self, tmp_path):
        # The nipc-full row at the largest k reuses the reference study.
        out = tmp_path / "conv.csv"
        with patch("uqc.engine.evaluate_naive", wraps=engine.evaluate_naive) as spy:
            rc = run_cli(["convergence", "--model", "piston", "--methods", "nipc-full",
                          "--k", "2..4", "--out", str(out)])
        assert rc == 0
        assert sorted(call.args[1].axis_sizes[0] for call in spy.call_args_list) == [2, 3, 4]
        rows = [line.split(",") for line in out.read_text().rstrip().split("\n")[1:]]
        assert [r[1] for r in rows] == ["2", "3", "4"]
        assert rows[-1][4] == "0.0"

    def test_mc_noisier_than_projection(self, tmp_path):
        out = tmp_path / "conv2.csv"
        rc = run_cli(["convergence", "--model", "simple", "--methods",
                      "nipc-full,mc", "--k", "2..6", "--pce-order", "4",
                      "--seed", "0", "--out", str(out)])
        assert rc == 0
        rows = [line.split(",") for line in out.read_text().rstrip().split("\n")[1:]]
        errors = {(r[0], int(r[1])): float(r[4]) for r in rows}
        assert errors[("mc", 5)] > errors[("nipc-full", 5)]

    def test_model_without_output_exits_one(self, tmp_path, capsys):
        path = tmp_path / "silent.uq"
        path.write_text("input x ~ Normal(0,1)\n")
        rc = run_cli(["convergence", "--model", str(path), "--methods", "nipc-full,mc",
                      "--k", "2..3"])
        assert rc == 1
        assert capsys.readouterr().err == "error: model declares no output\n"

    def test_zero_reference_mean_exits_one(self, tmp_path, capsys):
        path = tmp_path / "zero.uq"
        path.write_text("input x ~ Uniform(-1, 1)\noutput f = x - x\n")
        rc = run_cli(["convergence", "--model", str(path), "--methods", "nipc-full",
                      "--k", "2..3"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the reference mean at k=3 is 0")
        assert "undefined" in err

    def test_reference_mean_zero_to_within_rounding_exits_one(self, tmp_path, capsys):
        # The k=3 Gauss-Hermite mean of x is 9.7e-18, not 0: dividing by it
        # gave errors of 100% and 2.6e18% and exit status 0.
        path = tmp_path / "odd.uq"
        path.write_text("input x ~ Normal(0, 1)\noutput f = x\n")
        rc = run_cli(["convergence", "--model", str(path), "--methods", "nipc-full,sc,mc",
                      "--k", "1..3"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: the reference mean at k=3 is 0")
        assert "undefined" in captured.err

    @pytest.mark.parametrize("argv", [
        ["run", "--model", "simple", "--method", "mc", "--seed", "-1"],
        ["run", "--model", "simple", "--method", "nipc-reg", "--seed", "-2"],
        ["run", "--model", "simple", "--method", "nipc-full", "--k", "2", "--seed", "-1"],
        ["convergence", "--model", "simple", "--methods", "mc", "--k", "2..3", "--seed", "-3"],
    ])
    def test_negative_seed_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith(f"error: argument --seed: must be non-negative, got {argv[-1]}\n")

    def test_seed_that_is_no_integer_is_named_as_before(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(["run", "--model", "simple", "--method", "mc", "--seed", "x"])
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.endswith(
            "error: argument --seed: invalid int value: 'x'\n")

    def test_no_mc_seeds_exits_one(self, capsys):
        rc = run_cli(["convergence", "--model", "simple", "--methods", "mc",
                      "--k", "2", "--mc-seeds", "0"])
        assert rc == 1
        assert capsys.readouterr().err == "error: --mc-seeds must be at least 1, got 0\n"

    @pytest.mark.parametrize("methods", [",", ""])
    def test_no_method_exits_one(self, capsys, methods):
        # refused before the reference study, which fails on piston at k=7
        rc = run_cli(["convergence", "--model", "piston", "--methods", methods,
                      "--k", "2..7"])
        assert rc == 1
        assert capsys.readouterr().err == "error: --methods names no method\n"

    def test_repeated_method_exits_one(self, capsys):
        # refused before the reference study, which fails on piston at k=7
        rc = run_cli(["convergence", "--model", "piston", "--methods", "sc,mc,sc",
                      "--k", "2..7"])
        assert rc == 1
        assert capsys.readouterr().err == "error: --methods names sc more than once\n"

    @staticmethod
    def rows(tmp_path, *argv):
        out = tmp_path / "conv.csv"
        assert run_cli(["convergence", *argv, "--out", str(out)]) == 0
        lines = out.read_text().rstrip("\n").split("\n")
        assert lines[0] == "method,k,n_model_points,mean,error_vs_reference_pct"
        return [line.split(",") for line in lines[1:]]

    def test_sample_budget_below_the_minimum_is_skipped(self, tmp_path):
        # mc needs 2 samples: the 1-point grid's budget gets no row, and the
        # other rows are those of the same study without k=1.
        rows = self.rows(tmp_path, "--model", "simple", "--methods", "mc", "--k", "1..4")
        assert [row[1] for row in rows] == ["2", "3", "4"]
        assert rows == self.rows(tmp_path, "--model", "simple", "--methods", "mc",
                                 "--k", "2..4")

    def test_every_method(self, tmp_path):
        rows = self.rows(tmp_path, "--model", "multipoint", "--methods", ",".join(METHODS),
                         "--k", "2..4", "--pce-order", "3")
        by_method = {}
        for method, k, points, mean, _ in rows:
            by_method.setdefault(method, {})[int(k)] = (int(points), mean)
        assert by_method["nipc-full-amtc"] == by_method["nipc-full"]
        assert set(by_method["sc"]) == {2, 3, 4}
        # 10 coefficients at order 3 in 2 dimensions: only k=4's 16 points fit them
        assert by_method["nipc-reg"].keys() == {4}
        assert by_method["nipc-reg"][4][0] == 16
        graph = builtin_model("multipoint")
        for k, (points, mean) in by_method["mc"].items():
            assert points == k * k
            assert float(mean) == statistics.fmean(
                monte_carlo(graph, points, seed).mean for seed in range(3))

    def test_unknown_method_rejected(self, capsys):
        rc = run_cli(["convergence", "--model", "simple", "--methods", "kriging",
                      "--k", "2..3"])
        assert rc == 1
        assert "unknown method" in capsys.readouterr().err


SIMPLE_AFTER_DOT = """\
digraph model {
  rankdir=TB;
  subgraph cluster_0 {
    label="{u1}";
    n2 [shape=box, label="cos"];
    n3 [shape=ellipse, label="_t3"];
  }
  subgraph cluster_1 {
    label="{u1, u2}";
    n8 [shape=box, label="add"];
    n9 [shape=ellipse, label="f"];
  }
  subgraph cluster_2 {
    label="{u2}";
    n4 [shape=box, label="neg"];
    n5 [shape=ellipse, label="_t5"];
    n6 [shape=box, label="exp"];
    n7 [shape=ellipse, label="_t7"];
  }
  n0 [shape=ellipse, label="u1"];
  n1 [shape=ellipse, label="u2"];
  n11 [shape=ellipse, label="_x11"];
  n13 [shape=ellipse, label="_x13"];
  n10 [shape=box, label="expand {0} -> {0, 1}", peripheries=2];
  n12 [shape=box, label="expand {1} -> {0, 1}", peripheries=2];
  n0 -> n2 [label="k"];
  n2 -> n3 [label="k"];
  n1 -> n4 [label="k"];
  n4 -> n5 [label="k"];
  n5 -> n6 [label="k"];
  n6 -> n7 [label="k"];
  n3 -> n10 [label="k"];
  n10 -> n11 [label="k^2"];
  n7 -> n12 [label="k"];
  n12 -> n13 [label="k^2"];
  n11 -> n8 [label="k^2"];
  n13 -> n8 [label="k^2"];
  n8 -> n9 [label="k^2"];
}
"""


class TestGraphCommand:
    def test_simple_dot_outputs(self, tmp_path):
        before = tmp_path / "before.dot"
        after = tmp_path / "after.dot"
        rc = run_cli(["graph", "--model", "simple", "--out-before", str(before),
                      "--out-after", str(after)])
        assert rc == 0
        before_text = before.read_text()
        after_text = after.read_text()
        assert "peripheries=2" not in before_text
        assert before_text.count('label="k^2"') > 0
        # two expand nodes; edges labelled with each variable's
        # k^|signature|; one cluster per signature, holding its operations
        # and their outputs
        assert after_text == SIMPLE_AFTER_DOT

    def test_piston_cluster_count_matches_partition(self, tmp_path):
        from uqc import builtin_model, compute_influence_matrix, partition_operations
        groups = partition_operations(compute_influence_matrix(builtin_model("piston")))
        after = tmp_path / "after.dot"
        rc = run_cli(["graph", "--model", "piston",
                      "--out-before", str(tmp_path / "b.dot"),
                      "--out-after", str(after)])
        assert rc == 0
        assert after.read_text().count("subgraph cluster_") == len(groups)

    def test_a_model_that_needs_no_expand_is_still_drawn_transformed(self, tmp_path):
        # insert_expansions adds nothing here, yet sin runs on k points of
        # its {x} subspace, not on the k^2 of the full grid
        model = tmp_path / "m.uq"
        model.write_text("input x ~ Normal(0,1)\ninput y ~ Normal(0,1)\noutput f = sin(x)\n")
        before = tmp_path / "before.dot"
        after = tmp_path / "after.dot"
        rc = run_cli(["graph", "--model", str(model), "--out-before", str(before),
                      "--out-after", str(after)])
        assert rc == 0
        assert "cluster" not in before.read_text()
        assert before.read_text().count('label="k^2"') == 2
        assert after.read_text() == """\
digraph model {
  rankdir=TB;
  subgraph cluster_0 {
    label="{x}";
    n2 [shape=box, label="sin"];
    n3 [shape=ellipse, label="f"];
  }
  n0 [shape=ellipse, label="x"];
  n1 [shape=ellipse, label="y"];
  n0 -> n2 [label="k"];
  n2 -> n3 [label="k"];
}
"""


class TestModuleEntryPoint:
    # `python -m uqc` from a checkout, with only src/ on the path
    @staticmethod
    def run_module(*argv):
        return subprocess.run([sys.executable, "-m", "uqc", *argv],
                              env={**os.environ, "PYTHONPATH": str(SRC)},
                              capture_output=True, text=True, timeout=60)

    def test_python_dash_m_runs_the_cli(self):
        done = self.run_module("run", "--model", "simple", "--method", "nipc-reg",
                               "--pce-order", "2", "--format", "csv")
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("model,method,mean,stddev,n_model_points\nsimple,nipc-reg,")

    def test_python_dash_m_exits_one_on_error(self):
        done = self.run_module("run", "--model", "nosuch", "--method", "mc")
        assert done.returncode == 1
        assert "unknown model" in done.stderr

    def test_a_failure_prints_one_error_line_and_no_warning(self, tmp_path):
        # numpy overflows on the way to each of these errors; outside
        # pytest, which intercepts warnings, its RuntimeWarnings would
        # reach stderr ahead of the error line
        cases = [
            ("input x ~ Normal(1e308, 1e308)\noutput f = x\n", ("nipc-full", "mc", "nipc-reg")),
            ("input x ~ Uniform(1e308, 1.5e308)\noutput f = x\n", ("mc", "nipc-reg")),
            ("input x ~ Normal(0, 1)\noutput f = x * 1e200\n", tuple(METHODS)),
        ]
        runs = []
        for index, (source, methods) in enumerate(cases):
            path = tmp_path / f"case{index}.uq"
            path.write_text(source)
            runs += [[str(path), method] for method in methods]
        script = (
            "import contextlib, io, json, sys, warnings\n"
            "from uqc.cli import main\n"
            "warnings.simplefilter('always')\n"
            "errors = []\n"
            "for model, method in json.loads(sys.argv[1]):\n"
            "    with contextlib.redirect_stderr(io.StringIO()) as err:\n"
            "        code = main(['run', '--model', model, '--method', method, '--k', '3',\n"
            "                     '--mc-samples', '1000'])\n"
            "    errors.append([code, err.getvalue()])\n"
            "print(json.dumps(errors))\n")
        done = subprocess.run([sys.executable, "-c", script, json.dumps(runs)],
                              env={**os.environ, "PYTHONPATH": str(SRC)},
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        for (model, method), (code, err) in zip(runs, json.loads(done.stdout), strict=True):
            assert code == 1 and re.fullmatch(r"error: [^\n]+\n", err), (model, method, err)

    def test_scipy_loads_on_first_use(self, tmp_path):
        # Monte Carlo and `graph` need no scipy; nipc-reg's QR loads LAPACK
        script = (
            "import contextlib, io, json, sys\n"
            "from uqc.cli import main\n"
            "loaded = ['scipy' in sys.modules]\n"
            "def run(*argv):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(list(argv)) == 0\n"
            "run('run', '--model', 'simple', '--method', 'mc', '--mc-samples', '100')\n"
            f"run('graph', '--model', 'simple', '--out-before', {str(tmp_path / 'b.dot')!r},\n"
            f"    '--out-after', {str(tmp_path / 'a.dot')!r})\n"
            "loaded.append('scipy' in sys.modules)\n"
            "run('run', '--model', 'simple', '--method', 'nipc-reg', '--pce-order', '2')\n"
            "loaded.append('scipy.linalg.lapack' in sys.modules)\n"
            "print(json.dumps(loaded))\n")
        done = subprocess.run([sys.executable, "-c", script],
                              env={**os.environ, "PYTHONPATH": str(SRC)},
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == [False, False, True]


class TestArgumentHelpers:
    def test_parse_k_range(self):
        assert parse_k_range("5") == [5]
        assert parse_k_range("3..7") == [3, 4, 5, 6, 7]
        with pytest.raises(ValueError, match="empty k range"):
            parse_k_range("7..3")
        for text in ("3..", "..3", "2..3..4", "x", ""):
            with pytest.raises(ValueError, match=re.escape(f"invalid k range '{text}'")):
                parse_k_range(text)

    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["run", "--model", "simple", "--method", "mc"])
        assert args.method == "mc"
