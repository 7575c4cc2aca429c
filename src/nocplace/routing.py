"""Static XY routing and steady-state channel arrival rates.

Rates are derived by superposing flow rates along their dimension-ordered
paths, ignoring contention; the queueing module layers contention on top.

The analytical models run on an integer-indexed view of the mesh: tile
``t = y * width + x`` (row-major), port ``PORT_ORDER.index(port)``, channel
``t * N_PORTS + port``. Flow sets, channel loads and path sums are arrays
over those indices; ``Flow``, ``Coord`` and ``Port`` keys are built only at
the public boundary.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import IO, Iterable, Iterator, NamedTuple

import numpy as np

from .errors import OutOfBoundsError
from .mesh import Coord, MeshGrid, Placement
from .traffic import ResolvedTraffic, TrafficSpec, resolve


class Port(Enum):
    """Router ports: four mesh directions plus the local injection/ejection
    port. Local ports carry rates like physical ones so endpoint queueing can
    be modeled or excluded uniformly."""

    NORTH = "N"
    SOUTH = "S"
    EAST = "E"
    WEST = "W"
    LOCAL = "L"

    @property
    def delta(self) -> tuple[int, int]:
        return _DELTA[self]

    @property
    def opposite(self) -> "Port":
        return _OPPOSITE[self]


_DELTA = {
    Port.NORTH: (0, -1),
    Port.SOUTH: (0, 1),
    Port.EAST: (1, 0),
    Port.WEST: (-1, 0),
    Port.LOCAL: (0, 0),
}
_OPPOSITE = {
    Port.NORTH: Port.SOUTH,
    Port.SOUTH: Port.NORTH,
    Port.EAST: Port.WEST,
    Port.WEST: Port.EAST,
    Port.LOCAL: Port.LOCAL,
}

PORT_ORDER = (Port.NORTH, Port.SOUTH, Port.EAST, Port.WEST, Port.LOCAL)
N_PORTS = len(PORT_ORDER)
PORT_INDEX = {p: i for i, p in enumerate(PORT_ORDER)}
_N, _S, _E, _W, _L = range(N_PORTS)


class FlowKind(Enum):
    CORE_TO_CACHE = "core-to-cache"
    CACHE_TO_MC = "cache-to-mc"
    REPLY = "reply"


# Integer kind codes, numbered in value order so that sorting by code sorts
# by ``kind.value`` as the canonical flow order does.
_KINDS = tuple(sorted(FlowKind, key=lambda k: k.value))
_KIND_CODE = {k: i for i, k in enumerate(_KINDS)}

# Flows expanded into hops per chunk: bounds the hop arrays of a 16x16 grid
# to ~32k entries.
_HOP_CHUNK = 1024


@dataclass(frozen=True)
class Flow:
    src: Coord
    dst: Coord
    rate: float
    kind: FlowKind


def xy_route(src: Coord, dst: Coord) -> list[tuple[Coord, Port]]:
    """Dimension-ordered path: (router, output port) pairs from src to dst.

    Moves east/west along the source row to the destination column, then
    north/south; the final entry delivers on the local port. Path length is
    manhattan(src, dst) + 1 routers, both endpoints included.
    """
    path = []
    x, y = src.x, src.y
    step_x = Port.EAST if dst.x > x else Port.WEST
    while x != dst.x:
        path.append((Coord(x, y), step_x))
        x += step_x.delta[0]
    step_y = Port.SOUTH if dst.y > y else Port.NORTH
    while y != dst.y:
        path.append((Coord(x, y), step_y))
        y += step_y.delta[1]
    path.append((dst, Port.LOCAL))
    return path


def path_channels(src: Coord, dst: Coord) -> list[tuple[Coord, Port]]:
    """Input channels traversed along the XY path: (router, input port).

    The source router is entered through its local injection port; every
    later router through the port facing the previous hop.
    """
    hops = xy_route(src, dst)
    channels = [(src, Port.LOCAL)]
    for (router, out), (nxt, _) in zip(hops, hops[1:]):
        channels.append((nxt, out.opposite))
    return channels


def valid_in_ports(grid: MeshGrid, router: Coord) -> list[Port]:
    """Input ports that exist at a router (edge routers lack out-of-grid
    ports), in fixed enumeration order."""
    row = valid_port_mask(grid)[grid.index(router)]
    return [port for port, ok in zip(PORT_ORDER, row) if ok]


def valid_port_mask(grid: MeshGrid) -> np.ndarray:
    """(n_tiles, N_PORTS) mask of the input ports that exist: a port exists
    when the neighbour it faces is on the grid (the local port always)."""
    t = np.arange(grid.n_tiles)
    x, y = t % grid.width, t // grid.width
    return np.stack([
        (x + dx >= 0) & (x + dx < grid.width) & (y + dy >= 0) & (y + dy < grid.height)
        for dx, dy in (port.delta for port in PORT_ORDER)
    ], axis=1)


class FlowSet(NamedTuple):
    """A flow set as parallel arrays: source and destination tile indices,
    kind codes and rates, one entry per flow."""

    src: np.ndarray
    dst: np.ndarray
    kind: np.ndarray
    rate: np.ndarray

    def flows(self, grid: MeshGrid) -> list[Flow]:
        """The same flows as ``Flow`` objects, in array order."""
        coords = grid.coords
        return [
            Flow(coords[s], coords[d], rate, _KINDS[k])
            for s, d, k, rate in zip(self.src.tolist(), self.dst.tolist(),
                                     self.kind.tolist(), self.rate.tolist())
        ]


def flow_set(placement: Placement, spec: TrafficSpec,
             resolved: ResolvedTraffic | None = None) -> FlowSet:
    """Array form of ``build_flows``: the same flows, in the same order and
    with bit-identical rates."""
    r = resolved if resolved is not None else resolve(placement, spec)
    miss1 = spec.miss_l1
    cores, caches, mcs = r.core_ids, r.cache_ids, r.mc_ids
    rate = (r.lam[:, None] * miss1 * r.p).ravel()
    src = [np.repeat(cores, len(caches))]
    dst = [np.tile(caches, len(cores))]
    kind = [np.full(rate.size, _KIND_CODE[FlowKind.CORE_TO_CACHE], dtype=np.int8)]
    rates = [rate]
    if r.q is not None and spec.miss_l2 > 0.0:
        cache_ingress = (r.lam * miss1) @ r.p  # aggregate request rate per cache
        rate = (cache_ingress[:, None] * spec.miss_l2 * r.q).ravel()
        src.append(np.repeat(caches, len(mcs)))
        dst.append(np.tile(mcs, len(caches)))
        kind.append(np.full(rate.size, _KIND_CODE[FlowKind.CACHE_TO_MC], dtype=np.int8))
        rates.append(rate)
    src, dst, kind, rate = (np.concatenate(a) for a in (src, dst, kind, rates))
    keep = rate > 0.0
    src, dst, kind, rate = src[keep], dst[keep], kind[keep], rate[keep]
    if spec.model_replies:
        reply = np.full(rate.size, _KIND_CODE[FlowKind.REPLY], dtype=np.int8)
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        kind = np.concatenate([kind, reply])
        rate = np.concatenate([rate, rate])
    return FlowSet(src, dst, kind, rate)


def build_flows(placement: Placement, spec: TrafficSpec,
                resolved: ResolvedTraffic | None = None) -> list[Flow]:
    """Flow set induced by a placement and traffic spec.

    Core i sends to cache j at rate lambda_i * miss_l1 * p_ij. When memory
    controllers are present, cache j forwards its aggregate misses to
    controller k at the miss_l2-scaled rate weighted by the nearest-controller
    split q_jk. Reply flows (reverse direction, equal rate) appear only when
    spec.model_replies is set. Zero-probability pairs yield no flow.
    """
    return flow_set(placement, spec, resolved).flows(placement.grid)


def xy_hops(grid: MeshGrid, src: np.ndarray,
            dst: np.ndarray) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Expand XY paths into hops, a chunk of flows at a time.

    Yields ``(start, flow, pos, channel, out_port)``: hop arrays for flows
    ``start + flow``, in flow order and path order within each flow. ``pos``
    is the hop's position on its path (0 is the injection hop at the
    source), ``channel`` the input channel id ``tile * N_PORTS + in_port``
    and ``out_port`` the port index the hop leaves by.
    """
    w = grid.width
    for start in range(0, len(src), _HOP_CHUNK):
        s = src[start:start + _HOP_CHUNK].astype(np.int32)
        d = dst[start:start + _HOP_CHUNK].astype(np.int32)
        sx, sy, dx, dy = s % w, s // w, d % w, d // w
        nx, ny = np.abs(dx - sx), np.abs(dy - sy)
        length = nx + ny + 1
        flow = np.repeat(np.arange(len(s), dtype=np.int32), length)
        first = np.cumsum(length, dtype=np.int32) - length
        pos = np.arange(int(length.sum()), dtype=np.int32) - np.repeat(first, length)
        east, south = dx > sx, dy > sy
        step_x = np.where(east, 1, -1).astype(np.int32)[flow]
        step_y = np.where(south, 1, -1).astype(np.int32)[flow]
        nxf, nyf = nx[flow], ny[flow]
        x = sx[flow] + step_x * np.minimum(pos, nxf)
        y = sy[flow] + step_y * np.maximum(pos - nxf, 0)
        in_port = np.where(pos == 0, _L,
                           np.where(pos <= nxf, np.where(east, _W, _E)[flow],
                                    np.where(south, _N, _S)[flow]))
        out_port = np.where(pos < nxf, np.where(east, _E, _W)[flow],
                            np.where(pos < nxf + nyf, np.where(south, _S, _N)[flow], _L))
        channel = (y * w + x) * N_PORTS + in_port
        yield start, flow, pos, channel.astype(np.int32), out_port.astype(np.int32)


def path_sums(grid: MeshGrid, src: np.ndarray, dst: np.ndarray,
              values: np.ndarray, skip_injection: bool = False) -> np.ndarray:
    """Sum of ``values[tile, in_port]`` over the input channels of each XY
    path, in path order from 0.0 (as ``sum`` over ``path_channels`` adds).

    ``skip_injection`` leaves out the source's local injection channel, so
    only the routers entered through links count.
    """
    flat = np.ascontiguousarray(values, dtype=float).ravel()
    out = np.empty(len(src))
    for start, flow, pos, channel, _ in xy_hops(grid, src, dst):
        v = flat[channel]
        if skip_injection:
            v[pos == 0] = 0.0
        n = min(_HOP_CHUNK, len(src) - start)
        out[start:start + n] = np.bincount(flow, weights=v, minlength=n)
    return out


@dataclass(eq=False)
class ChannelLoadMap:
    """Steady-state arrival rates per input channel and per turn.

    ``lam[tile, in_port]`` aggregates every flow entering the router through
    that port; ``turns[tile, in_port, out_port]`` splits the same traffic by
    output (port indices follow ``PORT_ORDER``). Flow conservation holds
    exactly by construction. ``in_rates``/``turn_rates`` are the keyed views:
    they hold exactly the channels and turns some nonzero-rate flow uses.
    """

    grid: MeshGrid
    lam: np.ndarray
    turns: np.ndarray
    used_turns: np.ndarray

    @cached_property
    def in_rates(self) -> dict[tuple[Coord, Port], float]:
        used = self.used_turns.any(axis=2)
        tiles, ports = (a.tolist() for a in np.nonzero(used))
        return {(self.grid.coord(t), PORT_ORDER[p]): rate
                for t, p, rate in zip(tiles, ports, self.lam[used].tolist())}

    @cached_property
    def turn_rates(self) -> dict[tuple[Coord, Port, Port], float]:
        used = self.used_turns
        tiles, ins, outs = (a.tolist() for a in np.nonzero(used))
        return {(self.grid.coord(t), PORT_ORDER[i], PORT_ORDER[o]): rate
                for t, i, o, rate in zip(tiles, ins, outs, self.turns[used].tolist())}

    def in_rate(self, router: Coord, port: Port) -> float:
        if not self.grid.contains(router):
            return 0.0
        return float(self.lam[self.grid.index(router), PORT_INDEX[port]])

    def turn_rate(self, router: Coord, in_port: Port, out_port: Port) -> float:
        if not self.grid.contains(router):
            return 0.0
        return float(self.turns[self.grid.index(router), PORT_INDEX[in_port],
                                PORT_INDEX[out_port]])

    def write_csv(self, out: IO[str]) -> None:
        w = csv.writer(out)
        w.writerow(["router_x", "router_y", "in_port", "out_port", "rate"])
        for (router, in_port, out_port), rate in sorted(
            self.turn_rates.items(),
            key=lambda kv: (kv[0][0].y, kv[0][0].x, kv[0][1].value, kv[0][2].value),
        ):
            w.writerow([router.x, router.y, in_port.value, out_port.value, repr(rate)])


def channel_loads(flows: FlowSet, grid: MeshGrid) -> ChannelLoadMap:
    """Superpose flow rates along their XY paths into per-channel loads.

    Flows are added in the canonical (src, dst, kind, rate) order, each
    channel's sum running sequentially from 0.0, so the floating-point sums
    are identical no matter how the caller ordered the flows.
    """
    nz = flows.rate != 0.0
    src, dst, kind, rate = flows.src[nz], flows.dst[nz], flows.kind[nz], flows.rate[nz]
    w = grid.width
    order = np.lexsort((rate, kind, dst // w, dst % w, src // w, src % w))
    src, dst, rate = src[order], dst[order], rate[order]
    n_ch = grid.n_tiles * N_PORTS
    lam = np.zeros(n_ch)
    turns = np.zeros(n_ch * N_PORTS)
    used = np.zeros(n_ch * N_PORTS, dtype=bool)
    for start, flow, _, channel, out_port in xy_hops(grid, src, dst):
        r = rate[start:start + _HOP_CHUNK][flow]
        turn = channel * N_PORTS + out_port
        np.add.at(lam, channel, r)
        np.add.at(turns, turn, r)
        used[turn] = True
    shape = (grid.n_tiles, N_PORTS)
    return ChannelLoadMap(grid, lam.reshape(shape), turns.reshape(shape + (N_PORTS,)),
                          used.reshape(shape + (N_PORTS,)))


def derive_channel_rates(flows: Iterable[Flow], grid: MeshGrid) -> ChannelLoadMap:
    """Superpose flow rates along their XY paths into per-channel loads.

    Flows are processed in a canonical order so the floating-point sums are
    identical no matter how the caller ordered them.
    """
    flows = list(flows)
    outside = [f for f in flows if not (grid.contains(f.src) and grid.contains(f.dst))]
    if outside:
        f = min(outside, key=lambda f: (f.src, f.dst, f.kind.value, f.rate))
        raise OutOfBoundsError(f"flow {f.src}->{f.dst} leaves the grid")
    fs = FlowSet(
        src=np.array([grid.index(f.src) for f in flows], dtype=np.int32),
        dst=np.array([grid.index(f.dst) for f in flows], dtype=np.int32),
        kind=np.array([_KIND_CODE[f.kind] for f in flows], dtype=np.int8),
        rate=np.array([f.rate for f in flows], dtype=float),
    )
    return channel_loads(fs, grid)
