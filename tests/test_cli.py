import json
import re

import pytest

from uqc.cli import build_parser, main, parse_k_range


def run_cli(argv):
    return main(argv)


def strip_wall_times(text: str) -> str:
    return re.sub(r'"wall_time_ms": [^,}\n]+', '"wall_time_ms": 0', text)


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

    def test_parse_error_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.uq"
        path.write_text("output f = (\n")
        rc = run_cli(["run", "--model", str(path), "--method", "mc"])
        assert rc == 1
        assert "line 1" in capsys.readouterr().err

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

    def test_mc_noisier_than_projection(self, tmp_path):
        out = tmp_path / "conv2.csv"
        rc = run_cli(["convergence", "--model", "simple", "--methods",
                      "nipc-full,mc", "--k", "2..6", "--pce-order", "4",
                      "--seed", "0", "--out", str(out)])
        assert rc == 0
        rows = [line.split(",") for line in out.read_text().rstrip().split("\n")[1:]]
        errors = {(r[0], int(r[1])): float(r[4]) for r in rows}
        assert errors[("mc", 5)] > errors[("nipc-full", 5)]

    def test_unknown_method_rejected(self, capsys):
        rc = run_cli(["convergence", "--model", "simple", "--methods", "kriging",
                      "--k", "2..3"])
        assert rc == 1
        assert "unknown method" in capsys.readouterr().err


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
        assert after_text.count("peripheries=2") == 2  # two expand nodes
        assert before_text.count('label="k^2"') > 0
        assert after_text.count("subgraph cluster_") == 3

    def test_piston_cluster_count_matches_partition(self, tmp_path):
        from uqc import builtin_model, compute_influence_matrix, partition_operations
        partition = partition_operations(
            compute_influence_matrix(builtin_model("piston")))
        after = tmp_path / "after.dot"
        rc = run_cli(["graph", "--model", "piston",
                      "--out-before", str(tmp_path / "b.dot"),
                      "--out-after", str(after)])
        assert rc == 0
        assert after.read_text().count("subgraph cluster_") == len(partition.groups)


class TestArgumentHelpers:
    def test_parse_k_range(self):
        assert parse_k_range("5") == [5]
        assert parse_k_range("3..7") == [3, 4, 5, 6, 7]
        with pytest.raises(ValueError):
            parse_k_range("7..3")

    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["run", "--model", "simple", "--method", "mc"])
        assert args.method == "mc"
