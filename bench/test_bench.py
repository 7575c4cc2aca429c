"""Smoke tests of the benchmark at tiny sizes.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import cases as case_lists  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny(workload: str, trace: bool, seed: int = 3):
    return run.run_workload(workload, seed, 0, trace, size="tiny")


def test_benchmark_json_names_match_the_runner():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(case_lists.WORKLOADS)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


WORKLOAD_METRICS = {
    "analyze": {"high8_p50_ms", "high8_p90_ms", "high16_s", "low8_p50_ms"},
    "search": {"exhaustive_cands_per_s", "local_low_evals_per_s", "local_high_evals_per_s"},
    "simulate": {"sim_msgs_per_s", "model_sim_err"},
    "simulate-mc": {"sim_msgs_per_s", "model_sim_err"},
}


@pytest.mark.parametrize("workload", case_lists.WORKLOADS)
def test_tiny_workload_passes_checks_and_traces_identically(workload):
    result, report = tiny(workload, trace=False)
    assert report["failures"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= len(report["calls"])
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert WORKLOAD_METRICS[workload] <= set(report["metrics"])
    assert report["meta"]["seed"] == 3 and report["meta"]["nproc"] >= 1

    traced, traced_report = tiny(workload, trace=True)
    assert traced["correct"], traced_report["failures"]
    assert set(traced["metrics"]) == set(run.PER_LAYER)
    assert traced_report["digest"] == report["digest"]
    values = {k: m["value"] for k, m in traced["metrics"].items()}
    if workload != "search":
        assert values["optimizer.scored"] == values["optimizer.self_s"] == 0
    if not workload.startswith("simulate"):
        assert values["simulator.channel_services"] == values["simulator.run_sim.self_s"] == 0
    if workload == "search":
        assert values["optimizer.enumerated"] > values["optimizer.scored"] > 0


def test_timed_setups_put_the_run_modules_back():
    nc, _, _, _ = run.setup("analyze", 3, "tiny")
    used = sys.modules["nocplace.latency"]
    clock = run.SetupClock("analyze", 3, "tiny", start=0.0, seconds=0.0)
    clock.tick()
    clock.finish()
    assert len(clock.times) == run.SETUP_REPS and all(t > 0 for t in clock.times)
    assert sys.modules["nocplace"] is nc and sys.modules["nocplace.latency"] is used


def test_outputs_depend_only_on_the_seed():
    first = tiny("simulate", trace=False, seed=5)[1]["digest"]
    assert tiny("simulate", trace=False, seed=5)[1]["digest"] == first
    assert tiny("simulate", trace=False, seed=6)[1]["digest"] != first


def test_wrong_reference_value_counts_as_failure(tmp_path, monkeypatch):
    ref = json.loads(run.REFERENCE.read_text())
    ref["tiny"]["s.exhaustive"]["value"] *= 1.0 + 1e-9
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(ref))
    monkeypatch.setattr(run, "REFERENCE", path)
    result, report = tiny("search", trace=False)
    assert not result["correct"] and result["failed"] == 1
    assert report["failures"][0].startswith("s.exhaustive: .value")


def test_escaping_nonconvergence_counts_as_failure(monkeypatch):
    build = case_lists.build

    def build_with_bad_case(nc, workload, seed, size="full"):
        wl = build(nc, workload, seed, size)

        def diverge():
            raise nc.NonConvergentError("fixed point did not settle")
        wl.cases[0].run = diverge
        return wl

    monkeypatch.setattr(case_lists, "build", build_with_bad_case)
    result, report = tiny("search", trace=False)
    assert result["failed"] == 1 and not result["correct"]
    assert "NonConvergentError" in report["failures"][0]


def test_missing_traced_function_reads_zero(monkeypatch):
    monkeypatch.setattr(tracing, "SPANS", tracing.SPANS + (
        ("mesh.removed", "nocplace.mesh", "no_such_function"),
        ("mesh.removed_method", "nocplace.mesh", "Placement.no_such_method"),
    ))
    result, report = tiny("analyze", trace=True)
    assert result["correct"]
    assert "mesh.removed" not in report["spans_found"]
    assert not tracing.Patches().replace("nocplace.mesh", "no_such_function", lambda f: f)


def test_crossover_check():
    recs = {"central.0.01": {"mean_latency": 6.1}, "distributed.0.01": {"mean_latency": 6.6},
            "central.0.25": {"mean_latency": 45.0}, "distributed.0.25": {"mean_latency": 28.0}}
    assert case_lists._crossover_errors(recs, 0.01, 0.25) == []
    recs["central.0.25"]["mean_latency"] = 20.0
    assert len(case_lists._crossover_errors(recs, 0.01, 0.25)) == 1


def test_compare_tolerates_only_tiny_float_differences():
    ref = {"value": 1.0, "best": ["a"], "n": 3}
    assert case_lists.compare(ref, {"value": 1.0 + 1e-13, "best": ["a"], "n": 3}) == []
    assert case_lists.compare(ref, {"value": 1.0 + 1e-11, "best": ["a"], "n": 3})
    assert case_lists.compare(ref, {"value": 1.0, "best": ["b"], "n": 3})
    assert case_lists.compare({"unstable": True}, {"value": 1.0})


def test_exits_without_result_when_the_program_is_missing(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "analyze", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
