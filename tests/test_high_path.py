"""The HIGH model path without hop gathers against its oracles: the
ports-major fixed point against the loop it replaced (``oracles.fixed_point``)
bit for bit, each router solved alone against the oracle's rule for whole
networks, segment loads against the exact Coord walk, one transit for the
objective, the batch scorer and the delay inspector, the inspector's router
models against a per-tile ``np.ix_`` build, and the batch's memory on 16x16."""

import json
import math
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from nocplace import (
    PAPER,
    NocError,
    STANDARD,
    CanonicalFamily,
    MeshGrid,
    Mode,
    Placement,
    ServiceSpec,
    TrafficSpec,
    canonical_placement,
    objective,
    packet_delay_inspector,
)
from nocplace import queueing
from nocplace.mesh import placement_from_string, placement_string
from nocplace.routing import (
    PORT_INDEX,
    PORT_ORDER,
    ChannelLoadMap,
    Port,
    _stacked_flows,
    channel_loads,
    flow_set,
)
from nocplace.scoring import _stacked_ids, high_objective_batch
from nocplace.segments import link_transit, superpose
from nocplace.traffic import resolve
from oracles import DROPPED, fixed_point, xy_route
from test_objective_batch import as_rows, swaps

CASES = json.loads((Path(__file__).parent / "data" / "golden_models.json").read_text())["cases"]
FIELDS = queueing.FixedPoint._fields


def golden(case):
    return Placement.from_text(case["placement"].replace("/", "\n")), TrafficSpec(**case["spec"])


def assert_same_fixed_point(lam, turns, spec, mode):
    # The oracle with every row a network of its own.
    got = queueing._fixed_point(lam, turns, spec.svc, spec.arrival_scv, mode)
    want = fixed_point(lam, turns, spec.svc, spec.arrival_scv, mode, 1)
    for field, a, b in zip(FIELDS, got, want):
        assert a.dtype == b.dtype and a.shape == b.shape, field
        assert np.array_equal(a, b), field
    return got


@pytest.mark.parametrize("mode", [PAPER, STANDARD])
@pytest.mark.parametrize("case", CASES, ids=[c["id"] for c in CASES])
def test_fixed_point_matches_the_oracle_on_golden_cases(case, mode):
    placement, spec = golden(case)
    loads = channel_loads(flow_set(placement, spec), placement.grid)
    assert_same_fixed_point(loads.lam, loads.turns, spec, mode)


@pytest.mark.parametrize("mode", [PAPER, STANDARD])
def test_fixed_point_matches_the_oracle_off_unit_service(mode):
    # E{S} != 1: the contention terms are scaled into effective utilization.
    spec = TrafficSpec(svc=ServiceSpec(mean_service=0.9, scv=0.5), arrival_scv=0.7)
    for case in CASES[12:18]:
        placement, _ = golden(case)
        loads = channel_loads(flow_set(placement, TrafficSpec(**case["spec"])), placement.grid)
        assert_same_fixed_point(loads.lam, loads.turns, spec, mode)


def test_fixed_point_matches_the_oracle_on_distinct_rows_alone():
    # The distinct rows of the 8x8 cases, as the batch scorer solves them,
    # unstable ones included.
    rows = []
    for case in CASES:
        placement, spec = golden(case)
        if placement.grid.width == 8:
            loads = channel_loads(flow_set(placement, spec), placement.grid)
            rows.append(np.concatenate([loads.lam, loads.turns.reshape(len(loads.lam), -1)], 1))
    rows = np.unique(np.concatenate(rows), axis=0)
    lam, turns = rows[:, :5], rows[:, 5:].reshape(-1, 5, 5)
    status = assert_same_fixed_point(lam, turns, TrafficSpec(), PAPER).status
    assert {queueing.OK, queueing.UNSTABLE, queueing.EFFECTIVE_UNSTABLE} <= set(status.tolist())


@pytest.mark.parametrize("mode", [PAPER, STANDARD])
def test_fixed_point_matches_the_oracle_when_no_row_is_live(mode):
    # Every row plainly unstable: each finishes before the first iteration,
    # so the loop never runs.
    placement, spec = golden(CASES[12])
    loads = channel_loads(flow_set(placement, spec), placement.grid)
    lam = loads.lam.copy()
    lam[:, PORT_INDEX[Port.LOCAL]] = np.linspace(1.0, 2.0, len(lam))
    fp = assert_same_fixed_point(lam, loads.turns, spec, mode)
    assert np.all(fp.status == queueing.UNSTABLE) and not fp.iterations.any()
    assert np.array_equal(fp.rho_e, lam * spec.svc.mean_service)


@pytest.mark.parametrize("mode", [PAPER, STANDARD])
def test_fixed_point_matches_the_oracle_on_single_rows(mode):
    # Every router of a case with both failure kinds, each as a batch of one.
    status = set()
    for case in (CASES[11], CASES[20]):
        placement, spec = golden(case)
        loads = channel_loads(flow_set(placement, spec), placement.grid)
        for t in range(len(loads.lam)):
            fp = assert_same_fixed_point(loads.lam[t:t + 1], loads.turns[t:t + 1], spec, mode)
            status.add(int(fp.status[0]))
    assert {queueing.OK, queueing.UNSTABLE, queueing.EFFECTIVE_UNSTABLE} <= status


@pytest.mark.parametrize("tiny", [1e-200, 5e-324])
def test_fixed_point_matches_the_oracle_near_underflow(tiny):
    # A rate whose queue length can round to 0 takes the masked division;
    # so does a spec whose waiting-time numerator is 0.
    placement, spec = golden(CASES[12])
    loads = channel_loads(flow_set(placement, spec), placement.grid)
    lam, turns = loads.lam.copy(), loads.turns.copy()
    lam[::3, 0] = turns[::3, 0, 4] = tiny
    assert_same_fixed_point(lam, turns, spec, PAPER)
    assert_same_fixed_point(lam, turns, spec, STANDARD)
    exact = TrafficSpec(svc=ServiceSpec(scv=0.0), arrival_scv=0.0)
    assert_same_fixed_point(loads.lam, loads.turns, exact, PAPER)


@pytest.mark.parametrize("mean_service", [1.0, 0.8])
@pytest.mark.parametrize("mode", [PAPER, STANDARD])
def test_fixed_point_matches_the_oracle_on_one_batch_of_every_status(mode, mean_service,
                                                                      monkeypatch):
    # The 8x8 central routers at six load scales in one batch, capped at 20
    # iterations: rows finish at many different iterations while others
    # are still live, fail plainly or effectively, or run out of
    # iterations. E{S} 1.0 takes the loop's path without the E{S} scaling.
    monkeypatch.setattr(queueing, "FIXED_POINT_MAX_ITER", 20)
    grid = MeshGrid(8, 8)
    placement = canonical_placement(CanonicalFamily.CENTRAL, grid, 48, 16)
    loads = channel_loads(flow_set(placement, TrafficSpec(lambda_g=0.1)), grid)
    scales = (0.5, 1.0, 2.0, 2.5, 3.0, 3.3)
    lam = np.concatenate([loads.lam * s for s in scales])
    turns = np.concatenate([loads.turns * s for s in scales])
    spec = TrafficSpec(svc=ServiceSpec(mean_service=mean_service))
    fp = assert_same_fixed_point(lam, turns, spec, mode)
    assert set(fp.status.tolist()) == {queueing.OK, queueing.UNSTABLE,
                                       queueing.EFFECTIVE_UNSTABLE, queueing.NON_CONVERGENT}
    assert len(set(fp.iterations[fp.status == queueing.OK].tolist())) > 5


def raised(call):
    try:
        call()
    except NocError as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("cap", [12, 28])
def test_fixed_point_matches_the_oracle_with_every_status(cap, monkeypatch):
    # 150 placements of 4x4 stacked, 16 rows per network: capped iterations
    # leave some routers non-convergent. Against the oracle's rule for
    # whole networks (group=16, where a failure drops the network's later
    # routers): the same lowest failing router with the same status and
    # rho_e row, every router before it bit-identical, and solve_network
    # raising the oracle's error.
    monkeypatch.setattr(queueing, "FIXED_POINT_MAX_ITER", cap)
    rng = random.Random(0)
    kinds = list("CCCCCCCC$$$$....")
    strings = []
    for _ in range(150):
        rng.shuffle(kinds)
        strings.append("".join(kinds))
    grid, spec = MeshGrid(4, 4), TrafficSpec(lambda_g=0.38, model_replies=True)
    rows = as_rows(strings)
    r = resolve(placement_from_string(grid, strings[0]), spec)
    lam, turns = superpose(_stacked_flows(spec, r.lam, r.p, *_stacked_ids(grid, rows, r)), grid,
                           len(rows))
    n, ends = grid.n_tiles, set()
    for mode in (PAPER, STANDARD):
        got = assert_same_fixed_point(lam, turns, spec, mode)
        assert set(got.status.tolist()) == {queueing.OK, queueing.UNSTABLE,
                                            queueing.EFFECTIVE_UNSTABLE, queueing.NON_CONVERGENT}
        want = fixed_point(lam, turns, spec.svc, spec.arrival_scv, mode, n)
        assert DROPPED in want.status
        for b in range(0, len(lam), n):
            net = slice(b, b + n)
            g, w = (queueing.FixedPoint(*(a[net] for a in fp)) for fp in (got, want))
            failed = np.flatnonzero(g.status)
            first = int(failed[0]) if failed.size else n
            assert first == next(iter(np.flatnonzero(w.status)), n)
            for field, a, c in zip(FIELDS, g, w):
                assert np.array_equal(a[:first], c[:first]), field
            if first < n:
                assert g.status[first] == w.status[first]
                assert np.array_equal(g.rho_e[first], w.rho_e[first])
            ends.add(int(g.status[first]) if first < n else queueing.OK)
            loads = ChannelLoadMap(grid, lam[net], turns[net])
            assert raised(lambda: queueing.solve_network(loads, spec.svc, spec.arrival_scv,
                                                         mode)) == raised(
                lambda: queueing._raise_first_failure(w, grid.coord, PORT_ORDER))
    # At 12 iterations every network fails at a router that has not
    # settled; at 28 the networks end in every outcome.
    assert ends == ({queueing.NON_CONVERGENT} if cap == 12 else
                    {queueing.OK, queueing.UNSTABLE, queueing.EFFECTIVE_UNSTABLE,
                     queueing.NON_CONVERGENT})


def exact_channel_loads(flows):
    """The Coord walk of ``oracles.xy_route``, each channel's and turn's
    rates added exactly (``math.fsum``) and rounded once."""
    ins, turns = {}, {}
    for f in flows:
        hops = xy_route(f.src, f.dst)
        for (router, out), in_port in zip(hops, [Port.LOCAL] + [o.opposite for _, o in hops]):
            ins.setdefault((router, in_port), []).append(f.rate)
            turns.setdefault((router, in_port, out), []).append(f.rate)
    return ({k: math.fsum(v) for k, v in ins.items()},
            {k: math.fsum(v) for k, v in turns.items()})


@pytest.mark.parametrize("case", CASES, ids=[c["id"] for c in CASES])
def test_segment_loads_match_the_exact_coord_walk(case):
    # Within 1e-15 of the exact sums (4e-15 on 16x16, where a channel adds
    # hundreds of flows). A walk adding its flows one by one is itself up
    # to 1.6e-14 off on 16x16, and 2e-15 on 8x8.
    placement, spec = golden(case)
    grid = placement.grid
    fs = flow_set(placement, spec)
    loads = channel_loads(fs, grid)
    in_oracle, turn_oracle = exact_channel_loads(fs.flows(grid))
    tol = 4e-15 if grid.width == 16 else 1e-15
    for oracle, arr in ((in_oracle, loads.lam), (turn_oracle, loads.turns)):
        expected = np.zeros(arr.shape)
        for (router, *ports), rate in oracle.items():
            expected[(grid.index(router), *(PORT_INDEX[p] for p in ports))] = rate
        # A channel or turn no flow takes is exactly 0.0.
        assert np.array_equal(arr == 0.0, expected == 0.0)
        assert np.all(np.abs(arr - expected) <= tol * expected)
    used = {(grid.coord(t), PORT_ORDER[i], PORT_ORDER[o])
            for t, i, o in zip(*(a.tolist() for a in np.nonzero(loads.used_turns)))}
    assert used == set(turn_oracle)


def high_cases():
    g16 = MeshGrid(16, 16)
    yield (canonical_placement(CanonicalFamily.CENTRAL, g16, 192, 64, 0),
           TrafficSpec(lambda_g=0.02))
    g8 = MeshGrid(8, 8)
    yield (canonical_placement(CanonicalFamily.CENTRAL, g8, 44, 16, 4),
           TrafficSpec(lambda_g=0.1, miss_l2=0.3, model_replies=True))


@pytest.mark.parametrize("placement,spec", list(high_cases()), ids=["16x16", "8x8-mc-replies"])
def test_objective_batch_and_inspector_share_one_transit(placement, spec):
    grid = placement.grid
    value = objective(placement, spec, Mode.HIGH).objective_value
    # The placement alone and as the third of a batch of copies.
    string = placement_string(placement)
    others = swaps(string, random.Random(1), 4)
    values, causes = high_objective_batch(grid, as_rows([others[0], others[1], string,
                                                         others[2]]), spec)
    assert values[2] == value and causes[2] == queueing.OK
    assert high_objective_batch(grid, as_rows([string]), spec)[0][0] == value

    report = packet_delay_inspector(placement, spec)
    fs = flow_set(placement, spec)
    fp = queueing.solve_network(channel_loads(fs, grid), spec.svc, spec.arrival_scv, PAPER)
    valid = queueing.valid_port_mask(grid)
    for t, coord in enumerate(grid.tiles()):
        assert np.array_equal(report.routers[coord].rt, fp.rt[t, valid[t]])
    transit = link_transit(grid, fp.rt)(fs.src, fs.dst)
    expected = fp.rt[fs.src, PORT_INDEX[Port.LOCAL]] + transit
    assert [d for _, d in report.flow_delays] == expected.tolist()


def test_inspector_router_models_match_a_per_tile_build():
    # The per-grid port index builds the same models as indexing every
    # tile with np.ix_: every field's value, shape and dtype.
    for case in CASES[:8]:
        placement, spec = golden(case)
        if "unstable" in case["high"]:
            continue
        grid = placement.grid
        report = packet_delay_inspector(placement, spec)
        fp = queueing.solve_network(channel_loads(flow_set(placement, spec), grid), spec.svc,
                                    spec.arrival_scv, PAPER)
        valid = queueing.valid_port_mask(grid)
        for t, coord in enumerate(grid.tiles()):
            idx = np.flatnonzero(valid[t])
            m = report.routers[coord]
            lam = fp.lam[t, idx].astype(float)
            want = {"lam": lam, "contention": fp.contention[t][np.ix_(idx, idx)],
                    "rho_e": fp.rho_e[t, idx], "wq": fp.wq[t, idx], "rt": fp.rt[t, idx],
                    "queue_len": lam * fp.wq[t, idx],
                    "residual": np.full(len(idx), 0.5 * (spec.arrival_scv + spec.svc.scv)
                                        * spec.svc.mean_service)}
            for name, value in want.items():
                got = getattr(m, name)
                assert got.dtype == value.dtype and got.shape == value.shape, name
                assert np.array_equal(got, value), name
            assert m.ports == tuple(PORT_ORDER[i] for i in idx)
            assert (m.iterations, m.final_delta) == (int(fp.iterations[t]),
                                                     float(fp.final_delta[t]))
            assert type(m.iterations) is int and type(m.final_delta) is float


def test_batch_memory_on_16x16_within_the_bound():
    # The bound that 6x6 and 8x8 passes hold (test_objective_batch): the
    # hop gather peaked at 3.43 MB on this batch.
    grid = MeshGrid(16, 16)
    spec = TrafficSpec(lambda_g=0.02)
    string = placement_string(canonical_placement(CanonicalFamily.CENTRAL, grid, 192, 64, 0))
    rows = as_rows(swaps(string, random.Random(0), 300))
    high_objective_batch(grid, rows[:2], spec)
    tracemalloc.start()
    try:
        values, _ = high_objective_batch(grid, rows, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(values).all()
    assert peak < 3 << 20, peak
