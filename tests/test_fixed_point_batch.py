"""The batched contention fixed point against one-router solves: the same
response times and iteration counts, and the error that solving the routers
one by one in row-major order raises first."""

import numpy as np
import pytest

from nocplace import (
    PAPER,
    STANDARD,
    CanonicalFamily,
    Coord,
    InvalidConfigError,
    MeshGrid,
    Mode,
    NonConvergentError,
    Placement,
    Port,
    ServiceSpec,
    TrafficSpec,
    UnstableError,
    canonical_placement,
    objective,
    packet_delay_inspector,
)
from nocplace import queueing
from nocplace.queueing import solve_network
from nocplace.routing import PORT_ORDER, channel_loads, flow_set, valid_port_mask
from nocplace.traffic import matrix
from oracles import solve_one

CASES = [
    (canonical_placement(CanonicalFamily.CENTRAL, MeshGrid(4, 4), 12, 4, 0),
     TrafficSpec(lambda_g=0.2)),
    (canonical_placement(CanonicalFamily.STRIPED, MeshGrid(8, 8), 48, 16, 0),
     TrafficSpec(lambda_g=0.1, svc=ServiceSpec(mean_service=0.8, scv=0.5), arrival_scv=1.5)),
    (canonical_placement(CanonicalFamily.DISTRIBUTED, MeshGrid(8, 8), 44, 16, 4),
     TrafficSpec(lambda_g=0.1, miss_l2=0.3, model_replies=True)),
]


def _loads(placement, spec):
    return channel_loads(flow_set(placement, spec), placement.grid)


def own_ports(loads, coord):
    """Router ``coord``'s loads on the input ports it has (edge routers lack
    the out-of-grid ones): ``lam``, ``turns`` and the ports."""
    t = loads.grid.index(coord)
    idx = np.flatnonzero(valid_port_mask(loads.grid)[t])
    return loads.lam[t, idx], loads.turns[t][np.ix_(idx, idx)], tuple(PORT_ORDER[i] for i in idx)


def solve_alone(loads, coord, svc, ca2=1.0, mode=PAPER):
    lam, turns, ports = own_ports(loads, coord)
    return solve_one(lam, turns, svc, ca2, mode, router=coord, ports=ports)


@pytest.mark.parametrize("mode", [PAPER, STANDARD])
@pytest.mark.parametrize("placement,spec", CASES)
def test_batch_matches_one_router_solves(placement, spec, mode):
    loads = _loads(placement, spec)
    report = packet_delay_inspector(placement, spec, mode=mode)
    batch = solve_network(loads, spec.svc, spec.arrival_scv, mode)
    for t, coord in enumerate(placement.grid.tiles()):
        alone = solve_alone(loads, coord, spec.svc, spec.arrival_scv, mode)
        viewed = report.routers[coord]
        assert alone.ports == viewed.ports
        assert np.array_equal(alone.rt, viewed.rt)
        assert np.array_equal(alone.rho_e, viewed.rho_e)
        assert np.array_equal(alone.contention, viewed.contention)
        assert alone.iterations == viewed.iterations == batch.iterations[t]
        assert alone.final_delta == viewed.final_delta == batch.final_delta[t]
        assert alone.final_delta < queueing.FIXED_POINT_TOL


def test_telemetry_fields():
    placement, spec = CASES[0]
    report = packet_delay_inspector(placement, spec)
    iterations = [m.iterations for m in report.routers.values()]
    # Routers with one busy channel and no cross traffic settle at once.
    assert min(iterations) == 1 and max(iterations) > 1
    rho = {(c, port): float(m.rho_e[i]) for c, m in report.routers.items()
           for i, port in enumerate(m.ports)}
    assert report.peak_rho_e == max(rho.values())
    assert rho[report.peak_channel] == report.peak_rho_e
    assert 0.0 < report.peak_rho_e < 1.0


def _line():
    # Two cores at (0,0) and (1,0) feed the cache at (2,0). Router (1,0)
    # merges two 0.95 channels onto one output: plainly stable, effectively
    # saturated. Router (2,0) receives 1.9 through its west port: plainly
    # unstable.
    return Placement.from_text("CC$\n"), TrafficSpec(lambda_g=0.95, p=matrix([[1.0], [1.0]]))


def test_lowest_failing_router_raises_its_own_error():
    placement, spec = _line()
    loads = _loads(placement, spec)
    assert loads.in_rate(Coord(2, 0), Port.WEST) >= 1.0
    with pytest.raises(UnstableError) as alone:
        solve_alone(loads, Coord(1, 0), spec.svc)
    for run in (lambda: packet_delay_inspector(placement, spec),
                lambda: objective(placement, spec, Mode.HIGH),
                lambda: solve_network(loads, spec.svc)):
        with pytest.raises(UnstableError) as exc:
            run()
        assert exc.value.router == Coord(1, 0)
        assert exc.value.channel is Port.WEST
        assert str(exc.value).startswith("effective utilization")
        assert str(exc.value) == str(alone.value)


def test_plain_utilization_is_checked_before_iterating():
    placement, spec = _line()
    with pytest.raises(UnstableError) as exc:
        solve_alone(_loads(placement, spec), Coord(2, 0), spec.svc)
    assert str(exc.value).startswith("utilization")
    assert exc.value.router == Coord(2, 0)


def test_non_convergence_of_an_earlier_router_wins(monkeypatch):
    # At 0.5 per core router (1,0) settles after 22 iterations and router
    # (2,0) receives 1.0: plainly unstable. Capped at one iteration, router
    # (0,0) (a lone busy channel) still settles and (1,0) fails first.
    placement, _ = _line()
    spec = TrafficSpec(lambda_g=0.5, p=matrix([[1.0], [1.0]]))
    with pytest.raises(UnstableError) as exc:
        packet_delay_inspector(placement, spec)
    assert exc.value.router == Coord(2, 0)
    monkeypatch.setattr(queueing, "FIXED_POINT_MAX_ITER", 1)
    with pytest.raises(NonConvergentError, match=r"router Coord\(x=1, y=0\) .* within 1 "):
        packet_delay_inspector(placement, spec)


@pytest.mark.parametrize("placement,spec", CASES)
def test_non_convergence_names_first_router_over_the_cap(placement, spec, monkeypatch):
    report = packet_delay_inspector(placement, spec)
    cap = sorted({m.iterations for m in report.routers.values()})[-2]
    first = next(c for c, m in report.routers.items() if m.iterations > cap)
    monkeypatch.setattr(queueing, "FIXED_POINT_MAX_ITER", cap)
    with pytest.raises(NonConvergentError) as exc:
        packet_delay_inspector(placement, spec)
    assert f"router {first} " in str(exc.value)
    assert f"within {cap} iterations" in str(exc.value)


def checked_fixed_point(lam, turns, svc, ca2, mode):
    """One router's damped fixed point through the public, argument-checking
    ``kingman_wait`` and ``effective_utilization`` on every iteration: the
    oracle of the batched loop, which checks their arguments once."""
    es = svc.mean_service
    rhs = queueing._contention_rhs(lam[:, None], turns[:, :, None], es)[:, :, 0]
    nq = lam * queueing.kingman_wait(lam * es, ca2, svc.scv, es, mode)
    for it in range(1, queueing.FIXED_POINT_MAX_ITER + 1):
        with np.errstate(divide="ignore", invalid="ignore"):
            c = np.where(nq[None, :] > 0.0, rhs / nq[None, :], 0.0)
        np.fill_diagonal(c, 1.0)
        rho_e = queueing.effective_utilization(lam, c, es)
        wq = queueing.kingman_wait(rho_e, ca2, svc.scv, es, mode)
        nq_next = lam * wq
        delta = np.abs(nq_next - nq).max(initial=0.0)
        nq = (1.0 - queueing.FIXED_POINT_DAMPING) * nq + queueing.FIXED_POINT_DAMPING * nq_next
        if delta < queueing.FIXED_POINT_TOL:
            return c, rho_e, wq, it, delta
    raise AssertionError("did not converge")


@pytest.mark.parametrize("mode", [PAPER, STANDARD])
@pytest.mark.parametrize("placement,spec", CASES)
def test_unchecked_loop_matches_the_checked_functions(placement, spec, mode):
    loads = _loads(placement, spec)
    fp = solve_network(loads, spec.svc, spec.arrival_scv, mode)
    for t in range(placement.grid.n_tiles):
        c, rho_e, wq, it, delta = checked_fixed_point(loads.lam[t], loads.turns[t], spec.svc,
                                                      spec.arrival_scv, mode)
        assert np.array_equal(fp.contention[t], c)
        assert np.array_equal(fp.rho_e[t], rho_e)
        assert np.array_equal(fp.wq[t], wq)
        assert (fp.iterations[t], fp.final_delta[t]) == (it, delta)


def test_waiting_time_arguments_are_checked_before_iterating():
    lam, turns, _ = own_ports(_loads(*CASES[0]), Coord(1, 1))
    with pytest.raises(InvalidConfigError, match="unknown waiting-time mode"):
        solve_one(lam, turns, ServiceSpec(), mode="bogus")
    with pytest.raises(UnstableError, match="SCVs must be >= 0"):
        solve_one(lam, turns, ServiceSpec(), ca2=-1.0)
    # Negative turn rates could make an effective utilization negative
    # inside the loop, which no longer checks its range.
    turns = turns.copy()
    turns[0, 1] = -0.1
    with pytest.raises(UnstableError, match="turn rates must be >= 0"):
        solve_one(lam, turns, ServiceSpec())
