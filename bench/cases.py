"""Case lists of the four benchmark workloads and the checks on their outputs.

A case is one call into the public ``nocplace`` API. Every call looks its
function up on the package at call time (``nc.objective(...)``), so the
tracing wrappers installed later see it. A case turns the call's output into
a JSON-able *record*; records feed the output digest, the comparison with the
stored reference (unseeded cases) and the invariant checks (seeded cases).

The workload seed feeds only ``local_search`` seeds, ``SimConfig`` seeds and
the generated skewed access matrix; every other input is fixed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

WORKLOADS = ("analyze", "search", "simulate", "simulate-mc")

FAMILIES = ("central", "concentric", "striped", "checkerboard", "distributed")

REL_TOL = 1e-12


@dataclass
class Case:
    """One public-API call of a workload's fixed case list.

    ``group`` names the end-to-end metric the call's timing feeds. With
    ``reference`` set the record must match the stored reference (the call
    takes no seed); otherwise ``check`` returns the violated invariants.
    """

    id: str
    group: str
    run: Callable[[], object]
    record: Callable[[object], dict]
    reference: bool = False
    check: Callable[[dict], list[str]] = lambda rec: []


@dataclass
class Workload:
    """A workload's fixed case list plus the checks that span several cases."""

    name: str
    cases: list[Case]
    cross_checks: list[Callable[[dict[str, dict]], list[str]]] = field(default_factory=list)
    sim_capture: "SimCapture | None" = None


# Sizes: the full workloads and the tiny ones the smoke tests run.
SIZES = {
    "full": {
        "analyze": {"grid": 8, "cores": 48, "caches": 16, "rates": (0.05, 0.1, 0.2),
                    "mc": (44, 16, 4), "zipf_rates": (0.05, 0.1), "inspect_rates": (0.1, 0.05),
                    "big": (16, 192, 64), "big_rate": 0.05},
        "search": {"exh": (4, 6, 2), "two_phase": (4, 6, 2, 2),
                   "local": (6, 24, 9), "low_budget": 2500, "high_budget": 100},
        # 50,000 messages per run, as in the crossover acceptance test: at
        # lambda 0.25 both families sit at raw rho ~ 1, and shorter runs end
        # before central's backlog separates it from distributed.
        "simulate": {"grid": 8, "counts": (48, 16, 0), "rates": (0.01, 0.1, 0.2, 0.25),
                     "messages": 50_000, "crossover": True},
        "simulate-mc": {"grid": 8, "counts": (44, 16, 4), "rates": (0.05, 0.1),
                        "messages": 10_000},
    },
    "tiny": {
        "analyze": {"grid": 4, "cores": 8, "caches": 4, "rates": (0.05, 0.2),
                    "mc": (6, 4, 2), "zipf_rates": (0.05,), "inspect_rates": (0.05, 0.05),
                    "big": (6, 24, 9), "big_rate": 0.05},
        "search": {"exh": (3, 3, 1), "two_phase": (3, 3, 1, 1),
                   "local": (4, 6, 4), "low_budget": 40, "high_budget": 8},
        # 4x4 shows no robust crossover, so the tiny run does not check it.
        "simulate": {"grid": 4, "counts": (8, 4, 0), "rates": (0.01, 0.25),
                     "messages": 1_500, "crossover": False},
        "simulate-mc": {"grid": 4, "counts": (6, 4, 2), "rates": (0.05,),
                        "messages": 1_000},
    },
}


def finite(x: float) -> float | str:
    """JSON-safe float: non-finite values become strings so records compare
    with ``==`` (NaN never equals itself)."""
    x = float(x)
    return x if math.isfinite(x) else repr(x)


def compare(expected, actual, path: str = "") -> list[str]:
    """Differences between a reference record and a fresh one: floats within
    REL_TOL relative, everything else exactly."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return [f"{path}: keys {sorted(actual)} != {sorted(expected)}"]
        return [d for k in expected for d in compare(expected[k], actual[k], f"{path}.{k}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(actual)} != {len(expected)}"]
        return [d for i, (e, a) in enumerate(zip(expected, actual))
                for d in compare(e, a, f"{path}[{i}]")]
    if (isinstance(expected, float) and isinstance(actual, (int, float))
            and not isinstance(actual, bool)):
        if abs(actual - expected) <= REL_TOL * max(abs(expected), abs(actual)):
            return []
        return [f"{path}: {actual!r} != {expected!r}"]
    if expected != actual or type(expected) is not type(actual):
        return [f"{path}: {actual!r} != {expected!r}"]
    return []


def zipf_matrix(seed: int, n_cores: int, n_caches: int, s: float = 1.0):
    """Skewed access matrix: every core ranks the caches in its own seeded
    random order and weights rank k by 1/(k+1)^s."""
    rng = random.Random(seed)
    weights = [1.0 / (k + 1) ** s for k in range(n_caches)]
    total = sum(weights)
    rows = []
    for _ in range(n_cores):
        order = list(range(n_caches))
        rng.shuffle(order)
        row = [0.0] * n_caches
        for k, j in enumerate(order):
            row[j] = weights[k] / total
        rows.append(tuple(row))
    return tuple(rows)


def sub_seeds(workload: str, seed: int, n: int) -> list[int]:
    """Independent per-call seeds derived from the workload seed."""
    rng = random.Random(f"{workload}:{seed}")
    return [rng.randrange(2**31) for _ in range(n)]


# ----------------------------------------------------------------- analyze

def _objective_record(rep) -> dict:
    return {"value": finite(rep.objective_value), "l2_sum": finite(rep.l2_sum),
            "mem_sum": finite(rep.mem_sum)}


def _inspector_record(rep) -> dict:
    rts = [float(rt) for m in rep.routers.values() for rt in m.rt]
    return {
        "routers": len(rep.routers),
        "channels": len(rts),
        "rt_sum": finite(sum(rts)),
        "rt_max": finite(max(rts)),
        "flows": len(rep.flow_delays),
        "rate_delay_sum": finite(sum(f.rate * d for f, d in rep.flow_delays)),
    }


def _low_by_hand(placement, spec) -> float:
    # Independent LOW objective for a placement without memory controllers:
    # sum over cores of L1 latency plus the p-weighted Manhattan distances.
    cores, caches = placement.cores, placement.caches
    total = 0.0
    for i, c in enumerate(cores):
        row = spec.p[i] if spec.p is not None else [1.0 / len(caches)] * len(caches)
        dist = sum(pij * (abs(c.x - h.x) + abs(c.y - h.y)) for pij, h in zip(row, caches))
        total += spec.latency_l1 + spec.miss_l1 * spec.svc.mean_service * dist
    return total


def _build_analyze(nc, seed: int, size: dict) -> Workload:
    cases: list[Case] = []

    def objective_cases(tag, placement, spec, grid, reference, checks=None):
        for mode in ("low", "high"):
            m = nc.Mode(mode)
            cases.append(Case(
                id=f"{tag}.{mode}",
                group=f"{mode}{grid}",
                run=lambda p=placement, s=spec, m=m: nc.objective(p, s, m),
                record=_objective_record,
                reference=reference,
                check=(checks or {}).get(mode, lambda rec: []),
            ))

    g = nc.MeshGrid(size["grid"], size["grid"])
    plain = {f: nc.canonical_placement(nc.CanonicalFamily(f), g, size["cores"], size["caches"])
             for f in FAMILIES}
    n_cores, n_caches, n_mcs = size["mc"]
    with_mc = {f: nc.canonical_placement(nc.CanonicalFamily(f), g, n_cores, n_caches, n_mcs)
               for f in FAMILIES}
    mc_spec = {lam: nc.TrafficSpec(lambda_g=lam, miss_l2=0.3, model_replies=True)
               for lam in size["rates"]}
    side = size["grid"]

    for f in FAMILIES:
        for lam in size["rates"]:
            objective_cases(f"a{side}.{f}.{lam}", plain[f], nc.TrafficSpec(lambda_g=lam),
                            grid="8", reference=True)
    for f in FAMILIES:
        for lam in size["rates"]:
            objective_cases(f"a{side}mc.{f}.{lam}", with_mc[f], mc_spec[lam],
                            grid="8", reference=True)

    p = zipf_matrix(sub_seeds("analyze", seed, 1)[0], size["cores"], size["caches"])
    for f in FAMILIES:
        for lam in size["zipf_rates"]:
            spec = nc.TrafficSpec(lambda_g=lam, p=p)
            low = _low_by_hand(plain[f], spec)

            def check_low(rec, low=low):
                return _seeded_value_errors(rec) or _rel_errors(rec["value"], low, "LOW by hand")

            def check_high(rec, low=low):
                errs = _seeded_value_errors(rec)
                if not errs and rec["value"] < low * (1.0 - REL_TOL):
                    errs.append(f"HIGH {rec['value']!r} below LOW {low!r}")
                return errs

            objective_cases(f"z{side}.{f}.{lam}", plain[f], spec, grid="8", reference=False,
                            checks={"low": check_low, "high": check_high})

    lam, lam_mc = size["inspect_rates"]
    inspected = [(f"i{side}.{f}.{lam}", plain[f], nc.TrafficSpec(lambda_g=lam))
                 for f in ("central", "distributed")]
    inspected += [(f"i{side}mc.{f}.{lam_mc}", with_mc[f], mc_spec[lam_mc])
                  for f in ("central", "distributed")]
    for tag, placement, spec in inspected:
        cases.append(Case(
            id=tag, group="inspect",
            run=lambda p=placement, s=spec: nc.packet_delay_inspector(p, s),
            record=_inspector_record, reference=True,
        ))

    big_side, big_cores, big_caches = size["big"]
    gb = nc.MeshGrid(big_side, big_side)
    for f in ("central", "distributed"):
        placement = nc.canonical_placement(nc.CanonicalFamily(f), gb, big_cores, big_caches)
        objective_cases(f"a{big_side}.{f}.{size['big_rate']}", placement,
                        nc.TrafficSpec(lambda_g=size["big_rate"]), grid="16", reference=True)

    return Workload("analyze", cases)


def _seeded_value_errors(rec: dict) -> list[str]:
    if "value" not in rec:
        return [f"unexpected outcome {rec}"]
    if not isinstance(rec["value"], float):
        return [f"non-finite objective {rec['value']!r}"]
    return []


def _rel_errors(actual: float, expected: float, what: str) -> list[str]:
    if abs(actual - expected) <= REL_TOL * max(abs(expected), abs(actual)):
        return []
    return [f"{actual!r} != {what} {expected!r}"]


# ------------------------------------------------------------------ search

def _search_record(res) -> dict:
    return {
        "value": finite(res.objective_value),
        "best": [p.to_text().strip().replace("\n", "/") for p in res.best],
        "evaluated": res.evaluated,
        "pruned": res.pruned,
    }


def _build_search(nc, seed: int, size: dict) -> Workload:
    low = nc.Mode.LOW
    spec = nc.TrafficSpec(lambda_g=0.1)
    side, cores, caches = size["exh"]
    exh_space = nc.SearchSpace(nc.MeshGrid(side, side), cores, caches, 0, mode=low)
    side, cores, caches, mcs = size["two_phase"]
    tp_space = nc.SearchSpace(nc.MeshGrid(side, side), cores, caches, mcs, mode=low)
    side, cores, caches = size["local"]
    grid = nc.MeshGrid(side, side)
    seed_low, seed_high = sub_seeds("search", seed, 2)

    cases = [
        Case("s.exhaustive", "exhaustive",
             lambda: nc.exhaustive_search(exh_space, spec, jobs=1),
             _search_record, reference=True),
        Case("s.two_phase", "two_phase",
             lambda: nc.two_phase_optimize(tp_space, spec, jobs=1),
             _search_record, reference=True),
    ]
    for mode, budget, s in ((nc.Mode.LOW, size["low_budget"], seed_low),
                            (nc.Mode.HIGH, size["high_budget"], seed_high)):
        space = nc.SearchSpace(grid, cores, caches, 0, mode=mode)
        cases.append(Case(
            f"s.local_{mode.value}", f"local_{mode.value}",
            lambda space=space, budget=budget, s=s: nc.local_search(space, spec, seed=s,
                                                                  budget=budget),
            _search_record,
            check=lambda rec, space=space, budget=budget: _local_errors(nc, space, spec,
                                                                        budget, rec),
        ))
    return Workload("search", cases)


def _local_errors(nc, space, spec, budget: int, rec: dict) -> list[str]:
    # Seed-independent invariants of a local search: it never loses against
    # its central start, keeps the node counts, stays within its budget, and
    # reports the true objective of its placements.
    if not isinstance(rec["value"], float):
        return [f"non-finite local-search value {rec['value']!r}"]
    errs = []
    start = nc.canonical_placement(nc.CanonicalFamily.CENTRAL, space.grid,
                                   space.n_cores, space.n_caches)
    start_value = nc.objective(start, spec, space.mode).objective_value
    if rec["value"] > start_value * (1.0 + REL_TOL):
        errs.append(f"result {rec['value']!r} worse than central start {start_value!r}")
    if not 1 <= rec["evaluated"] <= budget:
        errs.append(f"evaluated {rec['evaluated']} outside [1, {budget}]")
    if not rec["best"]:
        errs.append("no best placement")
    for text in rec["best"]:
        p = nc.Placement.from_text(text.replace("/", "\n"))
        if p.counts != (space.n_cores, space.n_caches, 0):
            errs.append(f"counts {p.counts} changed in {text}")
        else:
            v = nc.objective(p, spec, space.mode).objective_value
            errs += _rel_errors(rec["value"], v, "objective of the reported placement")
    return errs


# --------------------------------------------------------------- simulators

class SimCapture:
    """Keeps the SimStats and host seconds of the latest ``run_sim`` call.

    ``compare_to_analytical`` returns no SimStats, so the benchmark wraps
    ``run_sim`` where the simulator module looks it up, in every run.
    """

    def __init__(self):
        self.last = None

    def wrap(self, fn):
        def run_sim(*args, **kwargs):
            t0 = perf_counter()
            stats = fn(*args, **kwargs)
            self.last = (stats, perf_counter() - t0)
            return stats
        return run_sim


def _sim_record(capture: SimCapture, report) -> dict:
    st = capture.last[0]
    return {
        "mean_latency": finite(st.mean_latency),
        "ci95": finite(st.ci95),
        "latency_samples": st.latency_samples,
        "generated": st.messages_generated,
        "completed": st.messages_completed,
        "derived_generated": st.derived_generated,
        "derived_completed": st.derived_completed,
        "saturated": st.saturated,
        "channel_services": sum(c.completions for c in st.channels.values()),
        "peak_util": finite(max(c.utilization for c in st.channels.values())),
        "analytical": report.analytical_available,
        "mean_rel_err": finite(report.mean_rel_err),
        "max_rel_err": finite(report.max_rel_err),
    }


def _conservation_errors(rec: dict, messages: int, miss_l2: float | None) -> list[str]:
    errs = []
    if not rec["generated"] == rec["completed"] == messages:
        errs.append(f"primary messages: {rec['generated']} generated, "
                    f"{rec['completed']} completed, budget {messages}")
    if rec["derived_generated"] != rec["derived_completed"]:
        errs.append(f"derived messages: {rec['derived_generated']} generated, "
                    f"{rec['derived_completed']} completed")
    if miss_l2 is None:
        if rec["derived_generated"]:
            errs.append(f"{rec['derived_generated']} derived messages without controllers")
    else:
        # One reply per request plus a Binomial(messages, miss_l2) controller leg.
        legs = rec["derived_generated"] - messages
        sd = math.sqrt(messages * miss_l2 * (1.0 - miss_l2))
        if abs(legs - messages * miss_l2) > 6.0 * sd:
            errs.append(f"{legs} controller legs for {messages} requests at miss_l2 {miss_l2}")
    if not (isinstance(rec["mean_latency"], float) and rec["mean_latency"] > 0.0):
        errs.append(f"mean latency {rec['mean_latency']!r}")
    return errs


def _build_sim(nc, name: str, seed: int, size: dict) -> Workload:
    g = nc.MeshGrid(size["grid"], size["grid"])
    cores, caches, mcs = size["counts"]
    miss_l2 = 0.3 if mcs else None
    suffix = "-mc" if mcs else ""
    capture = SimCapture()
    rates = size["rates"]
    cases = []
    # Central and distributed share a seed per rate (common random numbers,
    # seed-paired as in the acceptance test): without controllers both see
    # the same arrivals, destinations and lengths, so their difference shows
    # the placement rather than the draw.
    for lam, sim_seed in zip(rates, sub_seeds(name, seed, len(rates))):
        spec = (nc.TrafficSpec(lambda_g=lam, miss_l2=miss_l2, model_replies=True) if mcs
                else nc.TrafficSpec(lambda_g=lam))
        for f in ("central", "distributed"):
            placement = nc.canonical_placement(nc.CanonicalFamily(f), g, cores, caches, mcs)
            cfg = nc.SimConfig(placement, spec, messages=size["messages"], seed=sim_seed)
            cases.append(Case(
                f"{f}{suffix}.{lam}", "sim",
                lambda cfg=cfg: nc.compare_to_analytical(cfg),
                lambda report: _sim_record(capture, report),
                check=lambda rec: _conservation_errors(rec, size["messages"], miss_l2),
            ))
    cross = []
    if size.get("crossover"):
        cross.append(lambda recs: _crossover_errors(recs, rates[0], rates[-1]))
    return Workload(name, cases, cross_checks=cross, sim_capture=capture)


def _crossover_errors(recs: dict[str, dict], light: float, heavy: float) -> list[str]:
    # The paper's crossover: central caches win at light load, distributed
    # caches win at heavy load. The saturated flag at the heavy rate is not
    # checked: distributed sits at rho ~ 1.004 there, a finite-horizon transient.
    errs = []
    c, d = recs[f"central.{light}"]["mean_latency"], recs[f"distributed.{light}"]["mean_latency"]
    if not c < d:
        errs.append(f"lambda {light}: central {c!r} not below distributed {d!r}")
    c, d = recs[f"central.{heavy}"]["mean_latency"], recs[f"distributed.{heavy}"]["mean_latency"]
    if not c > d:
        errs.append(f"lambda {heavy}: central {c!r} not above distributed {d!r}")
    return errs


def build(nc, workload: str, seed: int, size: str = "full") -> Workload:
    """The named workload's cases, built from the imported package ``nc``."""
    params = SIZES[size][workload]
    if workload == "analyze":
        return _build_analyze(nc, seed, params)
    if workload == "search":
        return _build_search(nc, seed, params)
    return _build_sim(nc, workload, seed, params)
