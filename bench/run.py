"""nocplace benchmark: run one workload in one process, check its outputs and
print its metrics.

    python3 bench/run.py --workload analyze --seed 1 --seconds 30 --trace 0

Workloads: analyze, search, simulate, simulate-mc (see bench/README.md).
Each is a closed loop over a fixed case list: one caller, each call starts
when the previous one returns. The loop runs the whole list once, then keeps
cycling through it until ``--seconds`` have passed, skipping the cases whose
next call would end past the deadline. With ``--trace 0`` the last line
carries the end-to-end metrics; with ``--trace 1`` it carries the per-layer
metrics of a traced run. The line before it is a JSON report with run metadata, the output
digest and every workload metric with its unit.

The program is imported from ``src/`` of the checkout that holds this file;
without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from time import perf_counter

import cases as case_lists
from tracing import Patches, Tracer

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"

SRC = ROOT / "src"
# Warm set-ups timed per run, spread evenly over the measured window.
SETUP_REPS = 9

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "mesh.tiles_of.calls": "count",
    "mesh.tiles_of.self_s": "s",
    "mesh.placement_from_string.calls": "count",
    "mesh.placement_from_string.self_s": "s",
    "traffic.resolve.calls": "count",
    "traffic.resolve.self_s": "s",
    "routing.build_flows.self_s": "s",
    "routing.derive_channel_rates.self_s": "s",
    "routing.flows": "count",
    "routing.channel_hops": "count",
    "queueing.packet_delay_inspector.self_s": "s",
    "queueing.solve_router.calls": "count",
    "queueing.solve_router.self_s": "s",
    "queueing.fixed_point_iters": "iterations",
    "latency.objective.calls": "count",
    "latency.objective.self_s": "s",
    "optimizer.enumerated": "count",
    "optimizer.scored": "count",
    "optimizer.useful_ratio": "ratio",
    "optimizer.unstable": "count",
    "optimizer.self_s": "s",
    "simulator.run_sim.self_s": "s",
    "simulator.channel_services": "count",
    "simulator.host_us_per_service": "us",
    "simulator.peak_util": "ratio",
    "simulator.saturated_runs": "count",
    "simulator.compare.self_s": "s",
    **{f"simulator.mean_latency.{fam}{sfx}.{lam}": "sim_time"
       for wl, sfx in (("simulate", ""), ("simulate-mc", "-mc"))
       for fam in ("central", "distributed")
       for lam in case_lists.SIZES["full"][wl]["rates"]},
    "bench.unattributed_s": "s",
    "bench.trace_overhead_s": "s",
}


class SourceMissing(Exception):
    """The checkout holds no nocplace sources to benchmark."""


@dataclass
class Calls:
    """Outcome of every call made in a run, per case."""

    times: dict[str, list[float]] = field(default_factory=dict)
    traced_times: dict[str, list[float]] = field(default_factory=dict)
    ok_times: dict[str, list[float]] = field(default_factory=dict)
    sim_times: dict[str, list[float]] = field(default_factory=dict)
    records: dict[str, dict] = field(default_factory=dict)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)


def _loaded_nocplace() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "nocplace" or n.startswith("nocplace.")}


def import_nocplace():
    """Import the package afresh from ``src/`` (dropping any loaded copy)."""
    if not (SRC / "nocplace" / "__init__.py").is_file():
        raise SourceMissing(f"no nocplace package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in _loaded_nocplace():
        del sys.modules[name]
    nc = importlib.import_module("nocplace")
    if not Path(nc.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SourceMissing(f"nocplace imported from {nc.__file__}, not from {SRC}")
    return nc


def setup(workload: str, seed: int, size: str):
    """Import nocplace, build the case list and load the reference.
    Returns (nc, workload, reference, seconds taken)."""
    t0 = perf_counter()
    nc = import_nocplace()
    wl = case_lists.build(nc, workload, seed, size)
    reference = json.loads(REFERENCE.read_text())[size]
    return nc, wl, reference, perf_counter() - t0


class SetupClock:
    """Times the run's warm set-ups. Each one imports a throwaway copy of
    the package and builds the case list again; the modules the run uses are
    put back afterwards. They are spread evenly over the measured window, so
    that they see the host at the same speed as the calls do."""

    def __init__(self, workload: str, seed: int, size: str, start: float, seconds: float):
        self.args = (workload, seed, size)
        self.due = [start + seconds * (k + 0.5) / SETUP_REPS for k in range(SETUP_REPS)]
        self.times: list[float] = []

    def _time_one(self) -> None:
        self.due.pop(0)
        used = _loaded_nocplace()
        try:
            self.times.append(setup(*self.args)[3])
        finally:
            for name in _loaded_nocplace():
                del sys.modules[name]
            sys.modules.update(used)
            gc.collect()  # free the copy now, not at a random later point

    def tick(self) -> None:
        """Make one set-up if one is due."""
        if self.due and perf_counter() >= self.due[0]:
            self._time_one()

    def finish(self) -> None:
        """Make the set-ups that the window ended before."""
        while self.due:
            self._time_one()


def run_case(nc, case, calls: Calls, capture, reference: dict, first: bool,
             traced: bool) -> float:
    """Make one call, record its outcome, and return its host seconds."""
    calls.attempted += 1
    if capture is not None:
        capture.last = None
    rec = error = None
    t0 = perf_counter()
    try:
        out = case.run()
    except nc.UnstableError:
        rec = {"unstable": True}
    except Exception:  # a failed call is counted and reported, never fatal
        error = traceback.format_exc(limit=3)
    dt = perf_counter() - t0
    (calls.traced_times if traced else calls.times).setdefault(case.id, []).append(dt)
    if rec is None and error is None:
        try:
            rec = case.record(out)
        except Exception:  # an output the record cannot read is a wrong output
            error = traceback.format_exc(limit=3)
        else:
            if not traced:
                calls.ok_times.setdefault(case.id, []).append(dt)
                if capture is not None:
                    calls.sim_times.setdefault(case.id, []).append(capture.last[1])
    if error is not None:
        calls.failures.append(f"{case.id}: {error.strip()}")
        return dt
    if first:
        calls.records[case.id] = rec
        if case.reference:
            errs = (case_lists.compare(reference[case.id], rec) if case.id in reference
                    else ["no reference record"])
        elif "unstable" in rec:
            errs = ["unexpected UnstableError"]
        else:
            errs = case.check(rec)
        if errs:
            calls.failures.append(f"{case.id}: " + "; ".join(errs))
    elif rec != calls.records.get(case.id):
        calls.failures.append(f"{case.id}: output differs from the first call")
    return dt


def closed_loop(nc, wl, calls: Calls, reference: dict, deadline: float,
                setups: SetupClock, tracer: Tracer | None = None) -> None:
    """One full pass over the case list, then more passes until ``deadline``:
    a case whose last call would now end past the deadline is skipped, and
    the loop ends when every case would.

    With a tracer every case is called twice in a row, untraced and then
    traced, so the tracing overhead compares calls made close in time.
    """
    capture = wl.sim_capture
    last: dict[str, float] = {}

    def step(case, first: bool) -> None:
        dt = run_case(nc, case, calls, capture, reference, first, traced=False)
        if tracer is not None:
            tracer.use_bucket(case.id)
            tracer.install()
            try:
                dt += run_case(nc, case, calls, capture, reference, False, traced=True)
            finally:
                tracer.uninstall()
        last[case.id] = dt
        setups.tick()

    for case in wl.cases:
        step(case, first=True)
    skipped = 0
    for case in itertools.cycle(wl.cases):
        if skipped == len(wl.cases):
            return
        if perf_counter() + last[case.id] > deadline:
            skipped += 1
            continue
        skipped = 0
        step(case, first=False)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def case_wall(wl, times: dict[str, list[float]]) -> float:
    """Host time of one pass: the sum over cases of their median call time."""
    return sum(statistics.median(times[c.id]) for c in wl.cases)


def _enumerated(wl, recs: dict[str, dict]) -> tuple[int, int]:
    """Strings enumerated and pruned by the exhaustive and two-phase cases."""
    ids = [c.id for c in wl.cases if c.group in ("exhaustive", "two_phase")]
    pruned = sum(recs[i]["pruned"] for i in ids)
    return sum(recs[i]["evaluated"] for i in ids) + pruned, pruned


def workload_metrics(wl, calls: Calls) -> dict[str, tuple[float, str]]:
    """The workload's own end-to-end metrics, name -> (value, unit)."""
    by_group: dict[str, list] = {}
    for c in wl.cases:
        by_group.setdefault(c.group, []).append(c)
    ok = calls.ok_times
    m: dict[str, tuple[float, str]] = {}
    if wl.name == "analyze":
        high8 = [t for c in by_group["high8"] for t in ok.get(c.id, ())]
        low8 = [t for c in by_group["low8"] for t in ok.get(c.id, ())]
        m["high8_p50_ms"] = (1e3 * statistics.median(high8), "ms")
        m["high8_p90_ms"] = (1e3 * percentile(high8, 0.9), "ms")
        m["high8_samples"] = (len(high8), "count")
        m["high16_s"] = (statistics.mean(statistics.median(ok[c.id])
                                         for c in by_group["high16"]), "s")
        m["low8_p50_ms"] = (1e3 * statistics.median(low8), "ms")
    elif wl.name == "search":
        recs = calls.records
        exh = by_group["exhaustive"] + by_group["two_phase"]
        m["exhaustive_cands_per_s"] = (_enumerated(wl, recs)[0]
                                       / sum(statistics.median(ok[c.id]) for c in exh),
                                       "candidates/s")
        for mode in ("low", "high"):
            cid = f"s.local_{mode}"
            m[f"local_{mode}_evals_per_s"] = (
                recs[cid]["evaluated"] / statistics.median(ok[cid]), "evals/s")
    else:
        recs = calls.records
        msgs = sum(recs[c.id]["completed"] + recs[c.id]["derived_completed"] for c in wl.cases)
        host = sum(statistics.median(calls.sim_times[c.id]) for c in wl.cases)
        m["sim_msgs_per_s"] = (msgs / host, "messages/s")
        errs = [recs[c.id]["mean_rel_err"] for c in wl.cases
                if recs[c.id]["analytical"] and isinstance(recs[c.id]["mean_rel_err"], float)]
        m["model_sim_err"] = (statistics.mean(errs) if errs else math.nan, "ratio")
    return m


def layer_metrics(wl, calls: Calls, tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics per pass of the case list: each case's traced
    totals divided by its traced call count, summed over the cases."""
    per_pass: dict[str, float] = {}
    for c in wl.cases:
        n = len(calls.traced_times[c.id])
        for key, v in tracer.buckets.get(c.id, {}).items():
            per_pass[key] = per_pass.get(key, 0.0) + v / n
    g = per_pass.get
    out = {name: g(name, 0.0) for name in PER_LAYER}
    channels = g("queueing.channels", 0.0)
    if channels:
        out["queueing.fixed_point_iters"] = g("queueing.kingman_wait.calls", 0.0) / channels - 1.0
    out["optimizer.self_s"] = sum(v for k, v in per_pass.items()
                                  if k.startswith("optimizer.") and k.endswith(".self_s"))
    out["simulator.compare.self_s"] = (g("simulator.compare_to_analytical.total_s", 0.0)
                                       - g("simulator.run_sim.total_s", 0.0))

    recs = calls.records
    if wl.name == "search":
        enumerated, pruned = _enumerated(wl, recs)
        out["optimizer.enumerated"] = enumerated
        out["optimizer.scored"] = sum(recs[c.id]["evaluated"] for c in wl.cases)
        out["optimizer.useful_ratio"] = (enumerated - pruned) / enumerated
    if wl.sim_capture is not None:
        services = sum(recs[c.id]["channel_services"] for c in wl.cases)
        out["simulator.channel_services"] = services
        out["simulator.host_us_per_service"] = 1e6 * g("simulator.run_sim.self_s", 0.0) / services
        out["simulator.peak_util"] = max(recs[c.id]["peak_util"] for c in wl.cases)
        out["simulator.saturated_runs"] = sum(recs[c.id]["saturated"] for c in wl.cases)
        for c in wl.cases:
            key = f"simulator.mean_latency.{c.id}"
            if key in out:
                out[key] = recs[c.id]["mean_latency"]

    traced_mean = sum(statistics.mean(calls.traced_times[c.id]) for c in wl.cases)
    out["bench.unattributed_s"] = traced_mean - g("covered_s", 0.0)
    # Paired: each traced call follows an untraced call of the same case.
    out["bench.trace_overhead_s"] = sum(
        statistics.median([t - u for u, t in zip(calls.times[c.id], calls.traced_times[c.id])])
        for c in wl.cases)
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str = "full") -> tuple[dict, dict]:
    """Set up, run and check one workload. Returns (result, report): the
    result line's object and the report with metadata and workload metrics."""
    meta = run_metadata(seed)
    nc, wl, reference, setup_cold = setup(workload, seed, size)
    calls = Calls()
    patches = Patches()
    if wl.sim_capture is not None:
        patches.replace("nocplace.simulator", "run_sim", wl.sim_capture.wrap)
    tracer = Tracer(nc.UnstableError) if trace else None
    start = perf_counter()
    setups = SetupClock(workload, seed, size, start, seconds)
    try:
        closed_loop(nc, wl, calls, reference, start + seconds, setups, tracer)
    finally:
        patches.restore()
    wall = perf_counter() - start
    setups.finish()

    for cross in wl.cross_checks:
        errs = cross(calls.records) if len(calls.records) == len(wl.cases) else []
        calls.failures += [f"cross-check: {e}" for e in errs]
    failed = min(len(calls.failures), calls.attempted)
    digest = hashlib.sha256(json.dumps(
        [[c.id, calls.records.get(c.id)] for c in wl.cases], sort_keys=True).encode()
    ).hexdigest()

    e2e = {
        "setup_s": (statistics.median(setups.times), "s"),
        "wall_s": (case_wall(wl, calls.times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    report = {
        "workload": workload,
        "trace": int(trace),
        "size": size,
        "meta": meta,
        "digest": digest,
        "measured_s": wall,
        "setup_cold_s": setup_cold,
        "calls": {c.id: len(calls.times[c.id]) + len(calls.traced_times.get(c.id, ()))
                  for c in wl.cases},
        "fail_ratio": {"value": failed / calls.attempted, "unit": "failed/attempted"},
        "failures": calls.failures[:20],
    }
    if trace:
        report["spans_found"] = tracer.spans_found
        layers = (layer_metrics(wl, calls, tracer) if failed == 0
                  else dict.fromkeys(PER_LAYER, 0.0))
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        e2e.update(workload_metrics(wl, calls) if failed == 0 else {})
        metrics = {k: {"value": e2e[k][0], "unit": e2e[k][1]} for k in END_TO_END}
        report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    result = {"correct": failed == 0, "attempted": calls.attempted, "failed": failed,
              "metrics": metrics}
    return result, report


def _git_commit(root: Path) -> str:
    # Read .git directly: the benchmark may run in a copy that is no repository.
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def run_metadata(seed: int) -> dict:
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "machine": platform.machine(),
        "commit": _git_commit(ROOT),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=case_lists.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result, report = run_workload(args.workload, args.seed, args.seconds,
                                      bool(args.trace))
    except SourceMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
