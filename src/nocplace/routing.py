"""Static XY routing and steady-state channel arrival rates.

Rates are derived by superposing flow rates along their dimension-ordered
paths, ignoring contention; the queueing module layers contention on top.

The analytical models run on an integer-indexed view of the mesh: tile
``t = y * width + x`` (row-major), port ``PORT_ORDER.index(port)``, channel
``t * N_PORTS + port``. Flow sets and channel loads are arrays over those
indices; ``Flow``, ``Coord`` and ``Port`` keys are built only at the public
boundary. The loads are superposed from row and column segments
(``segments``); the simulators walk each path's hops themselves.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import IO, NamedTuple

import numpy as np

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


def _port_sum(a: np.ndarray) -> np.ndarray:
    """``a`` added up along the last axis one term at a time from 0.0, as
    Python's ``sum`` adds them. Over ports, an idle port adds an exact zero,
    so padded and unpadded routers agree bit for bit; over a placement's
    per-core totals (``latency._compose``), it gives the objective value."""
    acc = np.zeros(a.shape[:-1])
    for j in range(a.shape[-1]):
        acc += a[..., j]
    return acc


class FlowKind(Enum):
    CORE_TO_CACHE = "core-to-cache"
    CACHE_TO_MC = "cache-to-mc"
    REPLY = "reply"


# Integer kind codes, numbered in value order so that sorting by code sorts
# by ``kind.value`` as the canonical flow order does.
_KINDS = tuple(sorted(FlowKind, key=lambda k: k.value))
_KIND_CODE = {k: i for i, k in enumerate(_KINDS)}


class Flow(NamedTuple):
    """One flow between two tiles: a named tuple, cheap to build in bulk."""

    src: Coord
    dst: Coord
    rate: float
    kind: FlowKind


@lru_cache(maxsize=8)
def valid_port_mask(grid: MeshGrid) -> np.ndarray:
    """(n_tiles, N_PORTS) mask of the input ports that exist: a port exists
    when the neighbour it faces is on the grid (the local port always).
    Built once per grid, read-only."""
    t = np.arange(grid.n_tiles)
    x, y = t % grid.width, t // grid.width
    mask = np.stack([
        (x + dx >= 0) & (x + dx < grid.width) & (y + dy >= 0) & (y + dy < grid.height)
        for dx, dy in (port.delta for port in PORT_ORDER)
    ], axis=1)
    mask.flags.writeable = False
    return mask


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
    """Flow set induced by a placement and traffic spec.

    Core i sends to cache j at rate lambda_i * miss_l1 * p_ij. When memory
    controllers are present, cache j forwards its aggregate misses to
    controller k at the miss_l2-scaled rate weighted by the nearest-controller
    split q_jk. Reply flows (reverse direction, equal rate) appear only when
    spec.model_replies is set. Zero-probability pairs yield no flow.
    """
    r = resolved if resolved is not None else resolve(placement, spec)
    return _stacked_flows(spec, r.lam, r.p, r.core_ids[None], r.cache_ids[None],
                          r.mc_ids[None], None if r.q is None else r.q[None])


def _stacked_flows(spec: TrafficSpec, lam: np.ndarray, p: np.ndarray, cores: np.ndarray,
                   caches: np.ndarray, mcs: np.ndarray, q: np.ndarray | None) -> FlowSet:
    """``flow_set`` of several placements with the same node counts: one row
    of ``cores``, ``caches`` and ``mcs`` tile ids and one leading entry of
    ``q`` (None without controllers) per placement, ``lam`` and ``p``
    shared. The requests of each placement come in its own ``flow_set``
    order, placement after placement, and then all their replies."""
    miss1 = spec.miss_l1
    n, n_cores = cores.shape
    n_caches = caches.shape[1]
    rate = [np.broadcast_to((lam[:, None] * miss1 * p).ravel(), (n, n_cores * n_caches))]
    src = [np.repeat(cores, n_caches, axis=1)]
    dst = [np.tile(caches, (1, n_cores))]
    kind = [np.full(rate[0].shape, _KIND_CODE[FlowKind.CORE_TO_CACHE], dtype=np.int8)]
    if q is not None and spec.miss_l2 > 0.0:
        cache_ingress = (lam * miss1) @ p  # aggregate request rate per cache
        rate.append((cache_ingress[:, None] * spec.miss_l2 * q).reshape(n, -1))
        src.append(np.repeat(caches, mcs.shape[1], axis=1))
        dst.append(np.tile(mcs, (1, n_caches)))
        kind.append(np.full(rate[1].shape, _KIND_CODE[FlowKind.CACHE_TO_MC], dtype=np.int8))
    src, dst, kind, rate = (np.concatenate(a, axis=1).ravel() for a in (src, dst, kind, rate))
    keep = rate > 0.0
    src, dst, kind, rate = src[keep], dst[keep], kind[keep], rate[keep]
    if spec.model_replies:
        reply = np.full(rate.size, _KIND_CODE[FlowKind.REPLY], dtype=np.int8)
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        kind = np.concatenate([kind, reply])
        rate = np.concatenate([rate, rate])
    return FlowSet(src, dst, kind, rate)


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

    @cached_property
    def used_turns(self) -> np.ndarray:
        """The turns some flow takes: no load sum takes a difference."""
        return self.turns > 0.0

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
    sum in an order fixed by the code (see ``segments.superpose``), so the
    floating-point sums are identical no matter how the caller ordered the
    flows.
    """
    from .segments import superpose  # it imports this module

    return ChannelLoadMap(grid, *superpose(flows, grid, 1))
