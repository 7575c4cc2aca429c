"""The models against the golden corpus in ``tests/data/golden_models.json``
(see ``tests/data/make_golden.py``): objective values and per-router
response times within 1e-12 relative, channel-load CSVs byte for byte, and
the same unstable cases raising the same error. The simulator against
``tests/data/golden_sim.json``: seeded ``SimStats`` JSON byte for byte and
``compare_to_analytical`` rows exactly. The searches against
``tests/data/golden_search.json``: ``SearchResult.to_json_dict()`` with every
float as its ``repr``, or the same error, exactly."""

import hashlib
import io
import json
import math
from pathlib import Path

import pytest

from nocplace import (
    BudgetExceededError,
    Coord,
    MeshGrid,
    Mode,
    NocError,
    NodeKind,
    Placement,
    SimConfig,
    SearchSpace,
    TrafficSpec,
    UnstableError,
    compare_to_analytical,
    exhaustive_search,
    local_search,
    objective,
    packet_delay_inspector,
    run_sim,
    two_phase_optimize,
)
from nocplace import optimizer
from nocplace.routing import channel_loads, flow_set

REL = 1e-12
DATA = Path(__file__).parent / "data"
CASES = json.loads((DATA / "golden_models.json").read_text())["cases"]
SIM_CASES = json.loads((DATA / "golden_sim.json").read_text())["cases"]
SEARCH_CASES = json.loads((DATA / "golden_search.json").read_text())["cases"]


def _close(actual: float, expected: float) -> bool:
    return abs(actual - expected) <= REL * max(abs(actual), abs(expected))


@pytest.fixture(params=CASES, ids=[c["id"] for c in CASES])
def case(request):
    c = request.param
    placement = Placement.from_text(c["placement"].replace("/", "\n"))
    return c, placement, TrafficSpec(**c["spec"])


def test_low_objective(case):
    c, placement, spec = case
    assert _close(objective(placement, spec, Mode.LOW).objective_value, c["low"])


def test_loads_csv_bytes(case):
    c, placement, spec = case
    buf = io.StringIO()
    channel_loads(flow_set(placement, spec), placement.grid).write_csv(buf)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == c["loads_sha256"]


def test_high_objective_and_router_rt(case):
    c, placement, spec = case
    expected = c["high"]
    if "unstable" in expected:
        err = expected["unstable"]
        for run in (lambda: objective(placement, spec, Mode.HIGH),
                    lambda: packet_delay_inspector(placement, spec)):
            with pytest.raises(UnstableError) as exc:
                run()
            assert [exc.value.router.x, exc.value.router.y] == err["router"]
            assert exc.value.channel.value == err["channel"]
            assert str(exc.value) == err["message"]
        return
    assert _close(objective(placement, spec, Mode.HIGH).objective_value, expected["value"])
    report = packet_delay_inspector(placement, spec)
    rt = [float(v) for coord in placement.grid.tiles() for v in report.routers[coord].rt]
    assert len(rt) == len(expected["rt"])
    bad = [(i, a, e) for i, (a, e) in enumerate(zip(rt, expected["rt"])) if not _close(a, e)]
    assert not bad, bad[:5]


@pytest.fixture(params=SIM_CASES, ids=[c["id"] for c in SIM_CASES])
def sim_case(request):
    c = request.param
    placement = Placement.from_text(c["placement"].replace("/", "\n"))
    spec = dict(c["spec"])
    if spec["p"] is not None:
        spec["p"] = tuple(tuple(row) for row in spec["p"])
    return c, SimConfig(placement, TrafficSpec(**spec), messages=c["messages"], seed=c["seed"])


def _same(actual: float, expected: float) -> bool:
    return actual == expected or (math.isnan(actual) and math.isnan(expected))


def test_sim_stats_json_bytes(sim_case):
    c, cfg = sim_case
    text = json.dumps(run_sim(cfg).to_json_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == c["stats_sha256"]


def test_sim_compare_rows(sim_case):
    c, cfg = sim_case
    expected = c["compare"]
    report = compare_to_analytical(cfg)
    assert report.analytical_available is expected["analytical_available"]
    assert report.detail == expected["detail"]
    assert _same(report.max_rel_err, expected["max_rel_err"])
    assert _same(report.mean_rel_err, expected["mean_rel_err"])
    assert len(report.rows) == len(expected["rows"])
    for (coord, port, *values), (x, y, port_value, *want) in zip(report.rows, expected["rows"]):
        assert (coord.x, coord.y, port.value) == (x, y, port_value)
        assert all(_same(a, e) for a, e in zip(values, want)), (x, y, port_value, values, want)


SEARCHES = {"exhaustive": exhaustive_search, "two_phase": two_phase_optimize,
            "local": local_search}


@pytest.mark.parametrize("c", SEARCH_CASES, ids=[c["id"] for c in SEARCH_CASES])
def test_search_result(c):
    d = c["space"]
    space = SearchSpace(
        MeshGrid(*d["grid"]), *d["counts"],
        fixed={Coord(x, y): NodeKind(k) for x, y, k in d["fixed"]},
        mode=Mode(d["mode"]),
        mc_tiles=None if d["mc_tiles"] is None else frozenset(
            Coord(x, y) for x, y in d["mc_tiles"]),
    )
    search = SEARCHES[c["method"]]
    if "error" in c:
        with pytest.raises(NocError) as exc:
            search(space, TrafficSpec(**c["spec"]), **c["kwargs"])
        err = {"type": type(exc.value).__name__, "message": str(exc.value)}
        if isinstance(exc.value, BudgetExceededError):
            err["count"] = exc.value.count
        assert err == c["error"]
        return
    result = search(space, TrafficSpec(**c["spec"]), **c["kwargs"])
    got = {k: repr(v) if isinstance(v, float) else v for k, v in result.to_json_dict().items()}
    assert got == c["result"]


@pytest.mark.parametrize("block", [1, 2, 7, 1 << 30])
def test_search_result_any_block_size(block, monkeypatch):
    # Blocks of one row lower the running minimum block after block; one
    # block larger than any space holds them all. Blocks of a few rows on
    # the bench's 45,315 representatives would add 7 s; the smaller spaces
    # cross block boundaries in the same ways.
    monkeypatch.setattr(optimizer, "SEARCH_BLOCK", block)
    for c in SEARCH_CASES:
        if block > 7 or c["id"] != "exh.low.4x4.6.2.0.prune1":
            test_search_result(c)


def test_budget_counts_controllers_on_pool_tiles_only():
    # 168 candidates exist. Counting controllers on every free tile put them
    # at 1,512 and raised BudgetExceededError.
    [c] = [c for c in SEARCH_CASES if c["id"] == "exh.low.3x3.corner-pool.unpruned"]
    test_search_result({**c, "kwargs": {**c["kwargs"], "budget": 1000}})
