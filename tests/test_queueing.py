import math

import numpy as np
import pytest

from nocplace import (
    CanonicalFamily,
    Coord,
    InvalidConfigError,
    MeshGrid,
    Mode,
    NodeKind,
    OutOfBoundsError,
    PAPER,
    STANDARD,
    Port,
    ServiceSpec,
    TrafficSpec,
    UnstableError,
    build_placement,
    canonical_placement,
    effective_utilization,
    kingman_wait,
    manhattan,
    mm1_response,
    objective,
    packet_delay_inspector,
)
from nocplace.errors import DimensionMismatchError
from nocplace.traffic import matrix
from oracles import path_channels, solve_one


def place(grid, cores=(), caches=(), mcs=()):
    kinds = {c: NodeKind.ROUTER_ONLY for c in grid.tiles()}
    kinds.update({c: NodeKind.CORE for c in cores})
    kinds.update({c: NodeKind.CACHE for c in caches})
    kinds.update({c: NodeKind.MC for c in mcs})
    return build_placement(grid, kinds)


class TestMM1:
    def test_unit_gap(self):
        assert mm1_response(1.0, 2.0) == pytest.approx(1.0)

    def test_zero_load_is_service_time(self):
        assert mm1_response(0.0, 2.0) == pytest.approx(0.5)

    def test_near_saturation(self):
        assert mm1_response(1.9, 2.0) == pytest.approx(10.0)

    def test_unstable(self):
        with pytest.raises(UnstableError):
            mm1_response(2.0, 2.0)


class TestKingman:
    def test_paper_mode_equals_mm1_response_at_unit_scv(self):
        # ((1+1)/2) * 0.5 / (1-0.5) = 1.0 = mm1_response(1, 2): the formula
        # without the utilization factor reproduces the full response time.
        assert kingman_wait(0.5, 1.0, 1.0, 0.5, PAPER) == pytest.approx(
            mm1_response(1.0, 2.0))

    def test_paper_mode_zero_load(self):
        assert kingman_wait(0.0, 1.5, 0.5, 2.0, PAPER) == pytest.approx(2.0)

    def test_standard_mode_matches_mm1_wait(self):
        # lambda=1, mu=2: W_q = lambda / (mu (mu - lambda)) = 0.5.
        assert kingman_wait(0.5, 1.0, 1.0, 0.5, STANDARD) == pytest.approx(0.5)

    def test_unstable(self):
        with pytest.raises(UnstableError):
            kingman_wait(1.0, 1.0, 1.0, 1.0)

    def test_unknown_mode(self):
        with pytest.raises(InvalidConfigError):
            kingman_wait(0.5, 1.0, 1.0, 1.0, mode="bogus")


@pytest.mark.parametrize("fn, args, message", [
    (kingman_wait, (math.nan, 1.0, 1.0, 1.0), "effective utilization"),
    (kingman_wait, (0.5, math.nan, 1.0, 1.0), "SCVs must be >= 0"),
    (kingman_wait, (0.5, 1.0, 1.0, math.inf), "SCVs must be >= 0"),
    (mm1_response, (math.nan, 1.0), "rates out of range"),
    (mm1_response, (0.5, math.inf), "rates out of range"),
])
def test_non_finite_inputs_fail_the_range_checks(fn, args, message):
    # Each returned nan, inf or 0.0 when the checks compared false on NaN or
    # let an infinite E{S} or mu through.
    with pytest.raises(UnstableError, match=message):
        fn(*args)


class TestEffectiveUtilization:
    def test_identity_reduces_to_plain_utilization(self):
        rho = effective_utilization([0.2, 0.4], np.eye(2), [1.0, 1.0])
        assert rho == pytest.approx([0.2, 0.4])

    def test_zero_rates(self):
        rho = effective_utilization([0.0, 0.0], [[1.0, 0.3], [0.2, 1.0]], [1.0, 1.0])
        assert rho == pytest.approx([0.0, 0.0])

    def test_row_sum_example(self):
        rho = effective_utilization([0.2, 0.4], [[1.0, 0.5], [0.25, 1.0]], [1.0, 1.0])
        assert rho == pytest.approx([0.3, 0.5])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            effective_utilization([0.2, 0.4], np.eye(3), [1.0, 1.0])


def solve_two_channels(lam1, lam2, svc, mode=PAPER):
    """A router whose two input channels both turn into the second port."""
    return solve_one([lam1, lam2], [[0.0, lam1], [0.0, lam2]], svc, mode=mode,
                     ports=(Port.NORTH, Port.SOUTH))


def scalar_contention_oracle(lam, es=1.0, tol=1e-12):
    """Independent scalar fixed point for the symmetric 2-channel router with
    both channels fully directed at one output."""
    rho = lam * es
    head = 1.0 - math.exp(-lam * es)
    x = rho * head
    rhs = rho * head * (x / (1.0 - x) ** 2)
    wq = es / (1.0 - rho)  # paper form, unit SCVs
    n = lam * wq
    for _ in range(10_000):
        c12 = rhs / n
        rho_e = lam * (es + c12 * es)
        wq = es / (1.0 - rho_e)
        n_new = lam * wq
        if abs(n_new - n) < tol:
            break
        n = 0.5 * n + 0.5 * n_new
    return c12


class TestContentionMatrix:
    def test_single_busy_channel_has_no_cross_contention(self):
        c = solve_two_channels(0.4, 0.0, ServiceSpec()).contention
        assert c[0, 1] == pytest.approx(0.0)
        assert c[1, 0] == pytest.approx(0.0)
        assert c[0, 0] == c[1, 1] == 1.0

    def test_symmetric_channels_give_symmetric_matrix(self):
        c = solve_two_channels(0.3, 0.3, ServiceSpec()).contention
        assert c[0, 1] == pytest.approx(c[1, 0], rel=1e-9)
        assert c[0, 1] > 0.0

    def test_matches_independent_scalar_fixed_point(self):
        c = solve_two_channels(0.3, 0.3, ServiceSpec()).contention
        assert c[0, 1] == pytest.approx(scalar_contention_oracle(0.3), rel=1e-6)

    def test_unstable_channel_rejected(self):
        with pytest.raises(UnstableError):
            solve_two_channels(1.0, 0.1, ServiceSpec())

    def test_contention_can_saturate_subcritical_channels(self):
        # Plain utilization 0.95 per channel is stable in isolation, but the
        # shared output inflates the effective utilization past 1.
        with pytest.raises(UnstableError) as exc:
            solve_two_channels(0.95, 0.95, ServiceSpec())
        assert "effective" in str(exc.value)


class TestSolveRouter:
    def test_mm1_degeneracy_single_channel(self):
        # One channel, no cross traffic, unit SCVs, paper mode: the channel
        # response time is exactly 1/(mu - lambda).
        model = solve_one([0.5], [[0.5]], ServiceSpec(mean_service=1.0, scv=1.0), ca2=1.0,
                          mode=PAPER, ports=(Port.LOCAL,))
        assert model.contention == pytest.approx(np.eye(1))
        assert model.rt[0] == pytest.approx(mm1_response(0.5, 1.0))

    def test_standard_mode_rt_is_service_plus_wait(self):
        model = solve_two_channels(0.2, 0.4, ServiceSpec(), mode=STANDARD)
        assert model.rt == pytest.approx(model.svc.mean_service + model.wq)
        assert np.all(model.wq >= 0.0)

    def test_rt_at_least_service_time_both_modes(self):
        for mode in (PAPER, STANDARD):
            model = solve_two_channels(0.3, 0.5, ServiceSpec(), mode=mode)
            assert np.all(model.rt >= model.svc.mean_service - 1e-15)


class TestPacketDelayInspector:
    def _line_placement(self):
        g = MeshGrid(3, 1)
        return place(g, cores=[Coord(0, 0)], caches=[Coord(2, 0)])

    def test_three_hop_line_example(self):
        # Three channels each at rho 0.5 with mu=1: per-hop RT 2, total 6.
        p = self._line_placement()
        t = TrafficSpec(lambda_g=0.5, p=matrix([[1.0]]), svc=ServiceSpec(1.0, 1.0))
        report = packet_delay_inspector(p, t)
        [(flow, delay)] = report.flow_delays
        assert delay == pytest.approx(6.0, rel=1e-9)
        for router, port in path_channels(flow.src, flow.dst):
            assert report.rt_of(router, port) == pytest.approx(2.0, rel=1e-9)

    def test_idle_router_weighs_in_at_the_mean_service(self):
        p = place(MeshGrid(3, 1), cores=[Coord(0, 0)], caches=[Coord(1, 0)])
        report = packet_delay_inspector(p, TrafficSpec(lambda_g=0.1, svc=ServiceSpec(2.0)))
        assert report.routers[Coord(2, 0)].weighted_rt() == 2.0

    def test_zero_load_collapses_to_hop_count(self):
        g = MeshGrid(3, 3)
        p = canonical_placement(CanonicalFamily.CENTRAL, g, 8, 1, 0)
        t = TrafficSpec(lambda_g=1e-9)
        report = packet_delay_inspector(p, t)
        es = t.svc.mean_service
        for flow, delay in report.flow_delays:
            hops = manhattan(flow.src, flow.dst) + 1
            assert delay == pytest.approx(hops * es, rel=1e-6)

    def test_monotone_in_injection_rate(self):
        g = MeshGrid(4, 4)
        p = canonical_placement(CanonicalFamily.CENTRAL, g, 12, 4, 0)
        rates = [0.01, 0.05, 0.1, 0.15]
        prev_delay = None
        prev_rho = None
        for rate in rates:
            report = packet_delay_inspector(p, TrafficSpec(lambda_g=rate))
            delays = {(f.src, f.dst): d for f, d in report.flow_delays}
            rho = {
                (coord, port): model.rho_e[i]
                for coord, model in report.routers.items()
                for i, port in enumerate(model.ports)
            }
            if prev_delay is not None:
                assert all(delays[k] >= prev_delay[k] - 1e-12 for k in prev_delay)
                assert all(rho[k] >= prev_rho[k] - 1e-12 for k in prev_rho)
            prev_delay, prev_rho = delays, rho

    def test_symmetric_routers_report_equal_rt(self):
        g = MeshGrid(4, 4)
        p = canonical_placement(CanonicalFamily.CENTRAL, g, 12, 4, 0)
        report = packet_delay_inspector(p, TrafficSpec(lambda_g=0.1))
        mirror_pairs = [
            (Coord(0, 0), Coord(3, 3)),
            (Coord(1, 0), Coord(2, 3)),
            (Coord(0, 1), Coord(3, 2)),
            (Coord(1, 1), Coord(2, 2)),
        ]
        for a, b in mirror_pairs:
            assert report.routers[a].weighted_rt() == pytest.approx(
                report.routers[b].weighted_rt(), abs=1e-8)

    def test_central_8x8_center_beats_corner_rt(self):
        g = MeshGrid(8, 8)
        p = canonical_placement(CanonicalFamily.CENTRAL, g, 48, 16, 0)
        report = packet_delay_inspector(p, TrafficSpec(lambda_g=0.15))
        center = min(report.routers[c].weighted_rt()
                     for c in (Coord(3, 3), Coord(4, 4), Coord(2, 2), Coord(5, 5)))
        corner = max(report.routers[c].weighted_rt()
                     for c in (Coord(0, 0), Coord(7, 0), Coord(0, 7), Coord(7, 7)))
        assert center > corner

    def test_rt_of_a_missing_router_or_port_is_out_of_bounds(self):
        p = canonical_placement(CanonicalFamily.CENTRAL, MeshGrid(4, 4), 8, 4, 0)
        report = packet_delay_inspector(p, TrafficSpec(lambda_g=0.1))
        for router, port, named in [(Coord(9, 9), Port.LOCAL, "no router"),
                                    (Coord(0, 0), Port.NORTH, "has no channel")]:
            with pytest.raises(OutOfBoundsError, match=named) as exc:
                report.rt_of(router, port)
            assert str(router) in str(exc.value) and str(port) in str(exc.value)
        with pytest.raises(OutOfBoundsError, match="has no channel"):
            report.routers[Coord(3, 3)].rt_of(Port.SOUTH)
        assert report.rt_of(Coord(0, 0), Port.SOUTH) == report.routers[Coord(0, 0)].rt_of(
            Port.SOUTH)

    def test_unstable_names_saturated_router(self):
        p = self._line_placement()
        with pytest.raises(UnstableError) as exc:
            packet_delay_inspector(p, TrafficSpec(lambda_g=1.2, p=matrix([[1.0]])))
        assert exc.value.router is not None

    @pytest.mark.parametrize("lam", [0.3, 1.2], ids=["stable", "first-router-unstable"])
    def test_unknown_queue_mode_is_a_config_error(self, lam):
        # At 1.2 the first router is already plain-unstable; the
        # waiting-time formula, which checks the mode, still runs once per
        # batch.
        p = self._line_placement()
        spec = TrafficSpec(lambda_g=lam, p=matrix([[1.0]]))
        with pytest.raises(InvalidConfigError, match="unknown waiting-time mode"):
            packet_delay_inspector(p, spec, mode="bogus")
        with pytest.raises(InvalidConfigError, match="unknown waiting-time mode"):
            objective(p, spec, Mode.HIGH, queue_mode="bogus")

    def test_stability_boundary_is_sharp(self):
        p = self._line_placement()
        packet_delay_inspector(p, TrafficSpec(lambda_g=0.999, p=matrix([[1.0]])))
        with pytest.raises(UnstableError):
            packet_delay_inspector(p, TrafficSpec(lambda_g=1.0, p=matrix([[1.0]])))

    def test_csv_outputs(self):
        import io

        p = self._line_placement()
        report = packet_delay_inspector(p, TrafficSpec(lambda_g=0.3, p=matrix([[1.0]])))
        routers = io.StringIO()
        flows = io.StringIO()
        report.write_router_csv(routers)
        report.write_flow_csv(flows)
        assert routers.getvalue().splitlines()[0] == \
            "x,y,channel,lambda,rho_e,wq,rt,queue_len"
        assert flows.getvalue().splitlines()[0] == \
            "src_x,src_y,dst_x,dst_y,rate,delay"
        assert len(flows.getvalue().splitlines()) == 2
