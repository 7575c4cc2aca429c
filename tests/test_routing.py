import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nocplace import (
    CanonicalFamily,
    Coord,
    Flow,
    FlowKind,
    InvalidTrafficError,
    MeshGrid,
    NodeKind,
    Port,
    TrafficSpec,
    build_placement,
    canonical_placement,
    manhattan,
)
from nocplace.routing import _KIND_CODE, FlowSet, channel_loads, flow_set
from nocplace.traffic import matrix
from oracles import path_channels, xy_route


def place(grid, cores=(), caches=(), mcs=()):
    kinds = {c: NodeKind.ROUTER_ONLY for c in grid.tiles()}
    kinds.update({c: NodeKind.CORE for c in cores})
    kinds.update({c: NodeKind.CACHE for c in caches})
    kinds.update({c: NodeKind.MC for c in mcs})
    return build_placement(grid, kinds)


def flows_of(placement, spec):
    return flow_set(placement, spec).flows(placement.grid)


def loads_of(flows, grid):
    """``channel_loads`` of a list of ``Flow`` objects."""
    flows = list(flows)
    return channel_loads(FlowSet(
        src=np.array([grid.index(f.src) for f in flows], dtype=np.int32),
        dst=np.array([grid.index(f.dst) for f in flows], dtype=np.int32),
        kind=np.array([_KIND_CODE[f.kind] for f in flows], dtype=np.int8),
        rate=np.array([f.rate for f in flows], dtype=float),
    ), grid)


class TestXYRoute:
    def test_self_delivery(self):
        assert xy_route(Coord(2, 2), Coord(2, 2)) == [(Coord(2, 2), Port.LOCAL)]

    def test_pure_x(self):
        assert xy_route(Coord(0, 0), Coord(2, 0)) == [
            (Coord(0, 0), Port.EAST),
            (Coord(1, 0), Port.EAST),
            (Coord(2, 0), Port.LOCAL),
        ]

    def test_x_then_y(self):
        assert xy_route(Coord(0, 0), Coord(2, 1)) == [
            (Coord(0, 0), Port.EAST),
            (Coord(1, 0), Port.EAST),
            (Coord(2, 0), Port.SOUTH),
            (Coord(2, 1), Port.LOCAL),
        ]

    @given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 63), st.integers(0, 63))
    @settings(max_examples=200)
    def test_length_is_manhattan_plus_one(self, w, h, a, b):
        src = Coord(a % w, (a // 8) % h)
        dst = Coord(b % w, (b // 8) % h)
        path = xy_route(src, dst)
        assert len(path) == manhattan(src, dst) + 1
        assert path[-1] == (dst, Port.LOCAL)

    def test_path_channels_enter_via_opposite_port(self):
        chans = path_channels(Coord(0, 0), Coord(2, 1))
        assert chans == [
            (Coord(0, 0), Port.LOCAL),
            (Coord(1, 0), Port.WEST),
            (Coord(2, 0), Port.WEST),
            (Coord(2, 1), Port.NORTH),
        ]


class TestBuildFlows:
    def test_single_pair(self):
        g = MeshGrid(2, 2)
        p = place(g, cores=[Coord(0, 0)], caches=[Coord(1, 0)])
        t = TrafficSpec(lambda_g=1.0, hit_l1=0.5, p=matrix([[1.0]]))
        flows = flows_of(p, t)
        assert len(flows) == 1
        assert flows[0].rate == pytest.approx(0.5)
        assert flows[0].kind is FlowKind.CORE_TO_CACHE

    def test_uniform_two_caches(self):
        g = MeshGrid(3, 1)
        p = place(g, cores=[Coord(0, 0)], caches=[Coord(1, 0), Coord(2, 0)])
        t = TrafficSpec(lambda_g=2.0, hit_l1=0.5)
        flows = flows_of(p, t)
        assert sorted(f.rate for f in flows) == pytest.approx([0.5, 0.5])

    def test_memory_chain_rates(self):
        # lambda_g=2, miss_l1=0.5, two caches at 0.5 probability each,
        # miss_l2=0.4: each cache forwards 0.5*0.4=0.2 and the MC ingress
        # totals lambda_g*miss_l1*miss_l2 = 0.4.
        g = MeshGrid(4, 1)
        p = place(g, cores=[Coord(0, 0)], caches=[Coord(1, 0), Coord(2, 0)],
                  mcs=[Coord(3, 0)])
        t = TrafficSpec(lambda_g=2.0, hit_l1=0.5, miss_l2=0.4)
        flows = flows_of(p, t)
        mc_flows = [f for f in flows if f.kind is FlowKind.CACHE_TO_MC]
        assert sorted(f.rate for f in mc_flows) == pytest.approx([0.2, 0.2])
        assert sum(f.rate for f in mc_flows) == pytest.approx(
            2.0 * 0.5 * 0.4)

    def test_replies_mirror_requests(self):
        g = MeshGrid(2, 1)
        p = place(g, cores=[Coord(0, 0)], caches=[Coord(1, 0)])
        t = TrafficSpec(lambda_g=1.0, model_replies=True)
        flows = flows_of(p, t)
        req = [f for f in flows if f.kind is FlowKind.CORE_TO_CACHE]
        rep = [f for f in flows if f.kind is FlowKind.REPLY]
        assert len(req) == len(rep) == 1
        assert rep[0].src == req[0].dst and rep[0].dst == req[0].src
        assert rep[0].rate == req[0].rate

    def test_bad_probability_matrix_rejected(self):
        g = MeshGrid(3, 1)
        p = place(g, cores=[Coord(0, 0)], caches=[Coord(1, 0), Coord(2, 0)])
        with pytest.raises(InvalidTrafficError):
            flows_of(p, TrafficSpec(lambda_g=1.0, p=matrix([[0.6, 0.6]])))
        with pytest.raises(InvalidTrafficError):
            flows_of(p, TrafficSpec(lambda_g=1.0, p=matrix([[1.2, -0.2]])))


def naive_channel_loads(flows, grid):
    """Oracle: walk each flow's dimension-ordered path with literal loops."""
    in_rates = {}
    turn_rates = {}

    def add(router, in_port, out_port, rate):
        in_rates[(router, in_port)] = in_rates.get((router, in_port), 0.0) + rate
        key = (router, in_port, out_port)
        turn_rates[key] = turn_rates.get(key, 0.0) + rate

    for f in flows:
        if f.rate == 0.0:
            continue
        x, y = f.src.x, f.src.y
        in_port = Port.LOCAL
        while x != f.dst.x:
            out = Port.EAST if f.dst.x > x else Port.WEST
            add(Coord(x, y), in_port, out, f.rate)
            in_port = out.opposite
            x += 1 if f.dst.x > x else -1
        while y != f.dst.y:
            out = Port.SOUTH if f.dst.y > y else Port.NORTH
            add(Coord(x, y), in_port, out, f.rate)
            in_port = out.opposite
            y += 1 if f.dst.y > y else -1
        add(Coord(x, y), in_port, Port.LOCAL, f.rate)
    return in_rates, turn_rates


class TestDeriveChannelRates:
    def test_single_flow_path(self):
        g = MeshGrid(3, 1)
        loads = loads_of(
            [Flow(Coord(0, 0), Coord(2, 0), 0.5, FlowKind.CORE_TO_CACHE)], g)
        assert loads.in_rate(Coord(1, 0), Port.WEST) == pytest.approx(0.5)
        assert loads.turn_rate(Coord(1, 0), Port.WEST, Port.EAST) == pytest.approx(0.5)
        assert loads.in_rate(Coord(2, 0), Port.WEST) == pytest.approx(0.5)
        assert loads.turn_rate(Coord(2, 0), Port.WEST, Port.LOCAL) == pytest.approx(0.5)

    def test_crossing_flows_superpose(self):
        g = MeshGrid(3, 3)
        f1 = Flow(Coord(0, 1), Coord(2, 1), 0.3, FlowKind.CORE_TO_CACHE)
        f2 = Flow(Coord(1, 0), Coord(1, 2), 0.2, FlowKind.CORE_TO_CACHE)
        loads = loads_of([f1, f2], g)
        assert loads.in_rate(Coord(1, 1), Port.WEST) == pytest.approx(0.3)
        assert loads.in_rate(Coord(1, 1), Port.NORTH) == pytest.approx(0.2)

    def test_matches_naive_oracle_on_central_4x4(self):
        g = MeshGrid(4, 4)
        p = canonical_placement(CanonicalFamily.CENTRAL, g, 12, 4, 0)
        t = TrafficSpec(lambda_g=1.0)
        flows = flows_of(p, t)
        loads = loads_of(flows, g)
        in_oracle, turn_oracle = naive_channel_loads(flows, g)
        assert set(loads.in_rates) == set(in_oracle)
        for key, rate in in_oracle.items():
            assert loads.in_rates[key] == pytest.approx(rate, rel=1e-12)
        for key, rate in turn_oracle.items():
            assert loads.turn_rates[key] == pytest.approx(rate, rel=1e-12)

    def test_center_links_beat_corner_links_central_config(self):
        g = MeshGrid(4, 4)
        p = canonical_placement(CanonicalFamily.CENTRAL, g, 12, 4, 0)
        loads = channel_loads(flow_set(p, TrafficSpec(lambda_g=1.0)), g)
        center = max(
            rate for (router, port), rate in loads.in_rates.items()
            if router in (Coord(1, 1), Coord(2, 1), Coord(1, 2), Coord(2, 2))
            and port is not Port.LOCAL
        )
        corner = max(
            (rate for (router, port), rate in loads.in_rates.items()
             if router in (Coord(0, 0), Coord(3, 0), Coord(0, 3), Coord(3, 3))
             and port is not Port.LOCAL),
            default=0.0,
        )
        assert center > corner

    def test_flow_conservation(self):
        g = MeshGrid(4, 4)
        p = canonical_placement(CanonicalFamily.DISTRIBUTED, g, 8, 4, 2)
        loads = channel_loads(flow_set(p, TrafficSpec(lambda_g=0.7, miss_l2=0.3)), g)
        for router in g.tiles():
            for out in (Port.NORTH, Port.SOUTH, Port.EAST, Port.WEST):
                dx, dy = out.delta
                nbr = Coord(router.x + dx, router.y + dy)
                if not g.contains(nbr):
                    continue
                sent = sum(
                    loads.turn_rate(router, in_port, out)
                    for in_port in Port
                )
                received = loads.in_rate(nbr, out.opposite)
                assert sent == pytest.approx(received, rel=1e-9, abs=1e-12)

    def test_local_sink_totals_match_flow_rates(self):
        g = MeshGrid(4, 4)
        p = canonical_placement(CanonicalFamily.STRIPED, g, 8, 4, 0,
                                )
        flows = flows_of(p, TrafficSpec(lambda_g=0.9))
        loads = loads_of(flows, g)
        sink_total = sum(
            rate for (router, in_port, out_port), rate in loads.turn_rates.items()
            if out_port is Port.LOCAL
        )
        assert sink_total == pytest.approx(sum(f.rate for f in flows), rel=1e-9)

    def test_linear_in_rates(self):
        g = MeshGrid(4, 4)
        p = canonical_placement(CanonicalFamily.CENTRAL, g, 12, 4, 0)
        lo = channel_loads(flow_set(p, TrafficSpec(lambda_g=0.5)), g)
        hi = channel_loads(flow_set(p, TrafficSpec(lambda_g=1.5)), g)
        assert set(lo.in_rates) == set(hi.in_rates)
        for key, rate in lo.in_rates.items():
            assert hi.in_rates[key] == pytest.approx(3.0 * rate, rel=1e-9)

    def test_order_independence(self):
        g = MeshGrid(4, 4)
        p = canonical_placement(CanonicalFamily.CENTRAL, g, 12, 4, 0)
        flows = flows_of(p, TrafficSpec(lambda_g=1.0))
        a = loads_of(flows, g)
        b = loads_of(list(reversed(flows)), g)
        assert a.in_rates == b.in_rates
        assert a.turn_rates == b.turn_rates

    @pytest.mark.parametrize("family,counts,spec", [
        (CanonicalFamily.CENTRAL, (48, 16, 0), TrafficSpec(lambda_g=0.1)),
        (CanonicalFamily.DISTRIBUTED, (44, 16, 4),
         TrafficSpec(lambda_g=0.1, miss_l2=0.3, model_replies=True)),
    ], ids=["central", "distributed-mc-replies"])
    def test_zero_rate_flows_change_no_bit(self, family, counts, spec):
        # A zero-rate flow adds exact zeros to every sum, wherever the
        # canonical order puts it.
        g = MeshGrid(8, 8)
        fs = flow_set(canonical_placement(family, g, *counts), spec)
        rng = np.random.default_rng(7)
        n = 300
        idle = FlowSet(rng.integers(0, g.n_tiles, n), rng.integers(0, g.n_tiles, n),
                       rng.integers(0, len(FlowKind), n).astype(np.int8), np.zeros(n))
        order = rng.permutation(len(fs.rate) + n)
        mixed = FlowSet(*(np.concatenate([a, b])[order] for a, b in zip(fs, idle)))
        want, got = channel_loads(fs, g), channel_loads(mixed, g)
        for field in ("lam", "turns", "used_turns"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field


class TestLoadsCsv:
    def test_header_and_rows(self, tmp_path):
        import io

        g = MeshGrid(3, 1)
        loads = loads_of(
            [Flow(Coord(0, 0), Coord(2, 0), 0.5, FlowKind.CORE_TO_CACHE)], g)
        buf = io.StringIO()
        loads.write_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "router_x,router_y,in_port,out_port,rate"
        assert len(lines) == 1 + len(loads.turn_rates)


class TestArrayPaths:
    """The array hop expansion against the per-flow path walkers."""

    def test_link_transit_matches_path_channels_for_all_pairs(self):
        # Each leg is added from 0.0 in path order, then the two legs.
        from nocplace.routing import PORT_INDEX
        from nocplace.segments import link_transit

        g = MeshGrid(5, 3)
        values = np.random.default_rng(7).random((g.n_tiles, len(PORT_INDEX)))
        tiles = list(g.tiles())
        pairs = [(a, b) for a in tiles for b in tiles]
        src = np.array([g.index(a) for a, _ in pairs])
        dst = np.array([g.index(b) for _, b in pairs])
        sums = link_transit(g, values)(src, dst)
        for (a, b), got in zip(pairs, sums.tolist()):
            legs = [[values[g.index(r), PORT_INDEX[p]] for r, p in path_channels(a, b)[1:]
                     if (r.y == a.y) is x_leg] for x_leg in (True, False)]
            assert got == sum(legs[0]) + sum(legs[1])

    def test_turns_follow_xy_route(self):
        g = MeshGrid(4, 3)
        for a in g.tiles():
            for b in g.tiles():
                loads = loads_of([Flow(a, b, 1.0, FlowKind.CORE_TO_CACHE)], g)
                hops = xy_route(a, b)
                ins = [Port.LOCAL] + [out.opposite for _, out in hops[:-1]]
                expected = {(r, i, o): 1.0 for (r, o), i in zip(hops, ins)}
                assert loads.turn_rates == expected


class TestHopGather:
    """The hops the event engine gathers for a drawn pair: ``events._route``
    against the Coord walk of ``path_channels``, on all pairs."""

    @pytest.mark.parametrize("w,h", [(1, 1), (1, 7), (7, 1), (5, 3), (8, 8), (16, 16)])
    def test_all_pairs(self, w, h):
        from nocplace.events import _route
        from nocplace.routing import N_PORTS, PORT_INDEX

        g = MeshGrid(w, h)
        for a in g.tiles():
            for b in g.tiles():
                want = [g.index(r) * N_PORTS + PORT_INDEX[p] for r, p in path_channels(a, b)]
                assert _route(w, g.index(a), g.index(b)) == want
