import argparse
import csv
import hashlib
import json
import shutil
from pathlib import Path

import pytest

from nocplace import (CanonicalFamily, Coord, MeshGrid, OutOfBoundsError, Placement,
                      canonical_placement, local_search, manhattan)
from nocplace import optimizer
from nocplace.cli import build_parser, main


def write_placement(tmp_path, placement, name="placement.txt"):
    path = tmp_path / name
    path.write_text(placement.to_text())
    return str(path)


class TestCount:
    def test_small_multinomial(self, capsys):
        assert main(["count", "--grid", "2x2", "--cores", "2",
                     "--caches", "1", "--mcs", "1"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "12"

    def test_16_tile_value(self, capsys):
        assert main(["count", "--grid", "4x4", "--cores", "8",
                     "--caches", "4", "--mcs", "2"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "5405400"

    def test_estimate_uses_distinct_symmetries(self, capsys):
        # Two of the four rectangle symmetries of a 1x5 grid coincide.
        assert main(["count", "--grid", "1x5", "--cores", "2", "--caches", "1"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "30", "symmetry-reduced estimate: >= 15"]

    def test_missing_grid_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--cores", "2", "--caches", "1"])
        assert exc.value.code == 2

    def test_bad_grid_format_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--grid", "eight", "--cores", "2", "--caches", "1"])
        assert exc.value.code == 2

    def test_infeasible_counts_exit_1(self, capsys):
        assert main(["count", "--grid", "2x2", "--cores", "9",
                     "--caches", "1"]) == 1
        assert "error" in capsys.readouterr().err


class TestOptimize:
    def test_center_cache_3x3(self, capsys):
        # Without controllers the two-phase search is the exhaustive one.
        for method in ("exhaustive", "two-phase"):
            assert main(["optimize", "--grid", "3x3", "--cores", "8", "--caches", "1",
                         "--mcs", "0", "--mode", "low", "--method", method]) == 0
            out = capsys.readouterr().out
            # Unique optimum: cache at the center tile.
            assert "CCC\nC$C\nCCC" in out

    def test_budget_exceeded_exit_1(self, capsys):
        assert main(["optimize", "--grid", "8x8", "--cores", "48",
                     "--caches", "16", "--method", "exhaustive"]) == 1
        assert "budget" in capsys.readouterr().err

    def test_result_json_written(self, tmp_path, capsys):
        out = tmp_path / "result.json"
        assert main(["optimize", "--grid", "2x2", "--cores", "1", "--caches", "1",
                     "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["method"] == "exhaustive"
        assert len(data["best"]) == 8

    def test_local_method_prints_generated_seed(self, capsys):
        assert main(["optimize", "--grid", "3x3", "--cores", "8", "--caches", "1",
                     "--method", "local", "--budget", "50"]) == 0
        assert "seed:" in capsys.readouterr().out

    def test_local_budget_is_forwarded_only_when_given(self, monkeypatch, capsys):
        # Unset, local_search keeps its own default of 10,000 evaluations
        # rather than the exhaustive search's 10,000,000.
        budgets = []

        def recording(space, spec, seed, **kwargs):
            budgets.append(kwargs.get("budget"))
            return local_search(space, spec, seed, budget=10)

        # The command imports the search when it runs: patch it at home.
        monkeypatch.setattr(optimizer, "local_search", recording)
        args = ["optimize", "--grid", "3x3", "--cores", "8", "--caches", "1",
                "--method", "local", "--seed", "1"]
        assert main(args) == 0
        assert main(args + ["--budget", "50"]) == 0
        assert budgets == [None, 50]


class TestAnalyze:
    def test_zero_load_flow_delays_match_hops(self, tmp_path, capsys):
        p = canonical_placement(CanonicalFamily.CENTRAL, MeshGrid(8, 8), 48, 16, 0)
        pfile = write_placement(tmp_path, p)
        flows_csv = tmp_path / "flows.csv"
        assert main(["analyze", "--placement", pfile, "--lambda-g", "1e-9",
                     "--mode", "high", "--out-flows", str(flows_csv)]) == 0
        with open(flows_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        for row in rows:
            src = Coord(int(row["src_x"]), int(row["src_y"]))
            dst = Coord(int(row["dst_x"]), int(row["dst_y"]))
            hops = manhattan(src, dst) + 1
            assert float(row["delay"]) == pytest.approx(hops * 1.0, rel=1e-6)

    def test_loads_csv_and_summary(self, tmp_path, capsys):
        p = canonical_placement(CanonicalFamily.CENTRAL, MeshGrid(4, 4), 12, 4, 0)
        pfile = write_placement(tmp_path, p)
        loads_csv = tmp_path / "loads.csv"
        assert main(["analyze", "--placement", pfile, "--lambda-g", "0.1",
                     "--out-loads", str(loads_csv)]) == 0
        header = loads_csv.read_text().splitlines()[0]
        assert header == "router_x,router_y,in_port,out_port,rate"
        assert "objective" in capsys.readouterr().out

    def test_unstable_high_mode_exit_1(self, tmp_path, capsys):
        p = canonical_placement(CanonicalFamily.CENTRAL, MeshGrid(4, 4), 12, 4, 0)
        pfile = write_placement(tmp_path, p)
        assert main(["analyze", "--placement", pfile, "--lambda-g", "5.0",
                     "--mode", "high"]) == 1
        assert "error" in capsys.readouterr().err

    def test_non_finite_mean_service_exit_1(self, tmp_path, capsys):
        p = canonical_placement(CanonicalFamily.CENTRAL, MeshGrid(4, 4), 12, 4, 0)
        pfile = write_placement(tmp_path, p)
        assert main(["analyze", "--placement", pfile, "--mean-service", "nan"]) == 1
        assert ("error: mean service time must be finite and > 0, got nan"
                in capsys.readouterr().err)

    def test_router_outputs_need_high_mode(self, tmp_path, capsys):
        p = canonical_placement(CanonicalFamily.CENTRAL, MeshGrid(4, 4), 12, 4, 0)
        pfile = write_placement(tmp_path, p)
        assert main(["analyze", "--placement", pfile, "--mode", "low",
                     "--out-routers", str(tmp_path / "r.csv")]) == 0
        captured = capsys.readouterr()
        assert "high" in captured.err
        assert not (tmp_path / "r.csv").exists()

    def test_bad_mode_is_usage_error(self, tmp_path):
        p = canonical_placement(CanonicalFamily.CENTRAL, MeshGrid(4, 4), 12, 4, 0)
        pfile = write_placement(tmp_path, p)
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--placement", pfile, "--mode", "sideways"])
        assert exc.value.code == 2

    def test_json_summary_format(self, tmp_path, capsys):
        p = canonical_placement(CanonicalFamily.CENTRAL, MeshGrid(4, 4), 12, 4, 0)
        pfile = write_placement(tmp_path, p)
        assert main(["analyze", "--placement", pfile, "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert "objective" in data
        assert main(["analyze", "--placement", pfile, "--format", "csv"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "objective,mode", f"{data['objective']!r},{data['mode']}"]

    def test_json_summary_reports_peak_utilization_in_high_mode(self, tmp_path, capsys):
        p = canonical_placement(CanonicalFamily.CENTRAL, MeshGrid(4, 4), 12, 4, 0)
        pfile = write_placement(tmp_path, p)
        assert main(["analyze", "--placement", pfile, "--format", "json",
                     "--mode", "high", "--lambda-g", "0.2"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert 0.0 < data["peak_rho_e"] < 1.0
        x, y, port = data["peak_channel"]
        assert 0 <= x < 4 and 0 <= y < 4 and port in "NSEWL"


class TestSimulate:
    def test_stats_json_and_explicit_seed(self, tmp_path, capsys):
        p = canonical_placement(CanonicalFamily.CENTRAL, MeshGrid(3, 3), 8, 1, 0)
        pfile = write_placement(tmp_path, p)
        out = tmp_path / "stats.json"
        assert main(["simulate", "--placement", pfile, "--lambda-g", "0.05",
                     "--messages", "3000", "--seed", "4", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["messages_completed"] == 3000
        assert "mean latency" in capsys.readouterr().out

    def test_seed_generated_and_printed(self, tmp_path, capsys):
        p = canonical_placement(CanonicalFamily.CENTRAL, MeshGrid(3, 3), 8, 1, 0)
        pfile = write_placement(tmp_path, p)
        assert main(["simulate", "--placement", pfile, "--lambda-g", "0.05",
                     "--messages", "1000"]) == 0
        assert "seed:" in capsys.readouterr().out

    def test_non_finite_mu_exit_1(self, tmp_path, capsys):
        p = canonical_placement(CanonicalFamily.CENTRAL, MeshGrid(3, 3), 8, 1, 0)
        pfile = write_placement(tmp_path, p)
        assert main(["simulate", "--placement", pfile, "--mu", "nan",
                     "--messages", "500", "--seed", "1"]) == 1
        assert "error: service rate mu must be finite and > 0, got nan" in capsys.readouterr().err

    def test_round_trip_placement_file(self, tmp_path):
        p = canonical_placement(CanonicalFamily.DISTRIBUTED, MeshGrid(4, 4), 8, 4, 2)
        pfile = write_placement(tmp_path, p)
        assert Placement.from_text(Path(pfile).read_text()) == p


class TestSweepCommand:
    def test_sweep_csv_written(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--grid", "4x4", "--cores", "12", "--caches", "4",
                     "--families", "central,distributed", "--rates", "0.02,0.05",
                     "--seeds", "2", "--messages", "2000", "--seed", "1",
                     "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 2 * 2
        assert set(rows[0]) == {"family", "lambda_g", "seed", "mean_latency",
                                "ci95", "saturated"}

    def test_unknown_family_exit_1(self, tmp_path, capsys):
        assert main(["sweep", "--grid", "4x4", "--cores", "12", "--caches", "4",
                     "--families", "pineapple", "--rates", "0.05", "--seed", "1",
                     "--out", str(tmp_path / "s.csv")]) == 1


class TestCompareCommand:
    def test_delta_csv_and_summary(self, tmp_path, capsys):
        p = canonical_placement(CanonicalFamily.CENTRAL, MeshGrid(3, 3), 8, 1, 0)
        pfile = write_placement(tmp_path, p)
        out = tmp_path / "delta.csv"
        assert main(["compare", "--placement", pfile, "--lambda-g", "0.05",
                     "--messages", "20000", "--seed", "2", "--out", str(out)]) == 0
        assert "max rel err" in capsys.readouterr().out
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["x", "y", "channel", "sim_rt", "analytical_rt", "rel_err"]
        for row in rows:
            for name in ("sim_rt", "analytical_rt", "rel_err"):
                float(row[name])
        # An unstable model is reported, not fatal.
        assert main(["compare", "--placement", pfile, "--lambda-g", "1.5",
                     "--messages", "2000", "--seed", "2"]) == 0
        assert "analytical unavailable" in capsys.readouterr().out


class TestManifest:
    def test_manifest_captures_command(self, tmp_path):
        manifest = tmp_path / "run.json"
        assert main(["count", "--grid", "2x2", "--cores", "1", "--caches", "1",
                     "--manifest", str(manifest)]) == 0
        data = json.loads(manifest.read_text())
        assert data["command"] == "count"
        assert data["version"]
        assert data["parameters"]["cores"] == 1

    def test_rerun_from_manifest_parameters_is_bit_exact(self, tmp_path):
        p = canonical_placement(CanonicalFamily.CENTRAL, MeshGrid(3, 3), 8, 1, 0)
        pfile = write_placement(tmp_path, p)
        manifest = tmp_path / "run.json"
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["simulate", "--placement", pfile, "--lambda-g", "0.05",
                "--messages", "2000", "--seed", "31"]
        assert main(args + ["--out", str(out1), "--manifest", str(manifest)]) == 0
        recorded = json.loads(manifest.read_text())["parameters"]
        replay = ["simulate", "--placement", recorded["placement"],
                  "--lambda-g", str(recorded["lambda_g"]),
                  "--messages", str(recorded["messages"]),
                  "--seed", str(recorded["seed"]),
                  "--out", str(out2)]
        assert main(replay) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("argv", [
        ["optimize", "--grid", "3x3", "--cores", "4", "--caches", "1", "--mode", "high",
         "--method", "local", "--budget", "40", "--out", "result.json"],
        ["analyze", "--placement", "placement.txt", "--mode", "high", "--lambda-g", "0.2",
         "--out-loads", "loads.csv", "--out-routers", "routers.csv", "--out-flows",
         "flows.csv", "--out-report", "report.json"],
        ["sweep", "--grid", "4x4", "--cores", "8", "--caches", "4", "--families",
         "central,distributed", "--rates", "0.05,0.1", "--seeds", "2", "--messages", "400",
         "--out", "sweep.csv"],
        ["simulate", "--placement", "placement.txt", "--messages", "500",
         "--out", "stats.json"],
        ["compare", "--placement", "placement.txt", "--messages", "2000",
         "--out", "delta.csv"],
    ], ids=lambda argv: argv[0])
    def test_rerun_from_manifest_alone_is_bit_exact(self, argv, tmp_path, monkeypatch, capsys):
        # A second directory holds only the inputs the manifest hashes. Its
        # argv, with the generated seed, rewrites every output byte for byte.
        first, second = tmp_path / "first", tmp_path / "second"
        first.mkdir()
        second.mkdir()
        write_placement(first, canonical_placement(CanonicalFamily.CENTRAL, MeshGrid(4, 4),
                                                   12, 4, 0))
        monkeypatch.chdir(first)
        assert main(argv + ["--manifest", "run.json"]) == 0
        data = json.loads((first / "run.json").read_text())
        for name, digest in data["input_hashes"].items():
            shutil.copy(first / name, second / name)
            assert hashlib.sha256((second / name).read_bytes()).hexdigest() == digest
        replay = list(data["argv"])
        if "--seed" not in replay and data["seeds"]:
            replay += ["--seed", str(data["seeds"][0])]
        monkeypatch.chdir(second)
        assert main(replay) == 0
        assert data["outputs"] == [a for a in argv if a.endswith((".json", ".csv"))]
        for name in data["outputs"]:
            assert (second / name).read_bytes() == (first / name).read_bytes()

        # Each parameter is spelled as its option parses it.
        params = data["parameters"]
        assert "command" not in params
        rebuilt = [data["command"]]
        for key, value in params.items():
            if value is not None and value is not False:
                rebuilt += ["--" + key.replace("_", "-")] + ([] if value is True else [str(value)])
        parse = build_parser().parse_args
        assert vars(parse(rebuilt)) == {**vars(parse(argv)), "manifest": None}

    def test_manifest_records_input_hash_and_seed(self, tmp_path):
        p = canonical_placement(CanonicalFamily.CENTRAL, MeshGrid(3, 3), 8, 1, 0)
        pfile = write_placement(tmp_path, p)
        manifest = tmp_path / "run.json"
        assert main(["simulate", "--placement", pfile, "--lambda-g", "0.05",
                     "--messages", "500", "--seed", "9",
                     "--manifest", str(manifest)]) == 0
        data = json.loads(manifest.read_text())
        assert data["seeds"] == [9]
        assert pfile in data["input_hashes"]


COUNTS = {"--grid", "--cores", "--caches", "--mcs"}
TRAFFIC = {"--lambda-g", "--miss-l1", "--miss-l2"}
SIM = {"--mu", "--mean-message-size", "--messages", "--warmup", "--seed"}
COMMON = {"-h", "--help", "--manifest"}
OPTIONS = {
    "count": COUNTS,
    "analyze": {"--placement", "--mode", "--mean-service", *TRAFFIC, "--mem-fixed-latency",
                "--out-loads", "--out-routers", "--out-flows", "--out-report", "--format"},
    "optimize": {*COUNTS, "--mode", "--mean-service", *TRAFFIC, "--method", "--budget",
                 "--seed", "--jobs", "--all-ties", "--out"},
    # The simulator's mean service time is --mean-message-size / --mu.
    "simulate": {"--placement", *TRAFFIC, *SIM, "--out"},
    "sweep": {*COUNTS, *TRAFFIC, *SIM, "--families", "--rates", "--seeds", "--rings",
              "--jobs", "--stripe-width", "--cluster", "--out"},
    "compare": {"--placement", *TRAFFIC, *SIM, "--out"},
}


def test_each_command_takes_exactly_its_options():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(OPTIONS)
    for name, parser in sub.choices.items():
        taken = {s for action in parser._actions for s in action.option_strings}
        assert taken == OPTIONS[name] | COMMON, name


SWEEP = ["sweep", "--grid", "4x4", "--cores", "12", "--caches", "4", "--seed", "1",
         "--out", "{tmp}/s.csv"]


@pytest.mark.parametrize("argv", [
    ["count", "--grid", "0x8", "--cores", "1", "--caches", "1"],
    ["count", "--grid", "20x20", "--cores", "1", "--caches", "1"],
    SWEEP + ["--rates", "abc"],
    SWEEP + ["--rates", "0.1", "--seeds", "0"],
    SWEEP + ["--rates", "0.1", "--families", ","],
    ["analyze", "--placement", "{tmp}/missing.txt"],
    ["simulate", "--placement", "{tmp}/missing.txt", "--seed", "1"],
    ["compare", "--placement", "{tmp}/missing.txt", "--seed", "1"],
    ["simulate", "--placement", "{tmp}/missing.txt", "--seed", "1", "--mean-service", "2"],
    ["optimize", "--grid", "3x3", "--cores", "4", "--caches", "1", "--jobs", "0"],
    SWEEP + ["--rates", "0.1", "--jobs", "0"],
    ["optimize", "--grid", "3x3", "--cores", "4", "--caches", "1", "--jobs", "two"],
    SWEEP + ["--rates", "0.1", "--seeds", "2.5"],
], ids=["grid-0x8", "grid-20x20", "rates", "seeds", "families", "analyze-missing",
        "simulate-missing", "compare-missing", "simulate-mean-service",
        "optimize-jobs", "sweep-jobs", "optimize-jobs-text", "sweep-seeds-text"])
def test_usage_errors_exit_2_with_one_line(argv, tmp_path, capsys):
    try:
        code = main([a.format(tmp=tmp_path) for a in argv])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "error:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("text", [
    '{"width": 2, "height": 1, "tiles": [["core"',
    '{"width": 2, "tiles": [["core", "cache"]]}',
    '{"width": 2, "height": 1, "tiles": [["core", "pizza"]]}',
    '{"width": 2.7, "height": 1, "tiles": [["core", "cache"]]}',
    '{"width": true, "height": 1, "tiles": [["core"]]}',
    '{"width": "2", "height": 1, "tiles": [["core", "cache"]]}',
], ids=["truncated", "missing-key", "unknown-kind", "float-size", "bool-size", "string-size"])
def test_malformed_placement_json_exit_1(text, tmp_path, capsys):
    with pytest.raises(OutOfBoundsError):
        Placement.from_json(text)
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["analyze", "--placement", str(path)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_non_text_placement_file_exit_1(tmp_path, capsys):
    path = tmp_path / "placement.txt"
    path.write_bytes(b"\xff\xfe\x00")
    assert main(["analyze", "--placement", str(path)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:")
