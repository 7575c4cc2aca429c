"""Expected-latency objective for a placement: low-traffic hop model and
high-traffic router-response-time model.

Per core the total decomposes as

    latency_l1 + l2_term * miss_l1 + mem_term * miss_l1 * miss_l2

where the L2 and memory terms are probability-weighted network transit
times. Both modes share this composition and the transit matrices it is fed
(core x cache and cache x memory controller); they differ only in the price
of one hop. LOW prices every hop at one mean service time E{S}, so a transit
costs E{S} times its manhattan distance. HIGH prices each hop at the modeled
response time of the router the message hops into, so the two modes coincide
exactly in the zero-load limit. (The delay inspector's per-flow delays
additionally charge the source injection channel; the objective charges the
link hops only, matching the low-traffic hop count.)
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import IO

import numpy as np

from .errors import NoCachesError, NoMemControllersError
from .mesh import Coord, MeshGrid, Placement
from .queueing import PAPER, solve_network
from .routing import channel_loads, flow_set, path_sums
from .traffic import ResolvedTraffic, TrafficSpec, resolve


class Mode(Enum):
    LOW = "low"
    HIGH = "high"


@dataclass(frozen=True)
class CoreLatency:
    core: Coord
    l2_term: float
    mem_term: float
    total: float


@dataclass
class LatencyReport:
    """Per-core expected latencies and the summed global objective."""

    mode: Mode
    per_core: list[CoreLatency]
    objective_value: float
    spec: TrafficSpec

    @property
    def l2_sum(self) -> float:
        return sum(c.l2_term for c in self.per_core)

    @property
    def mem_sum(self) -> float:
        return sum(c.mem_term for c in self.per_core)

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode.value,
            "objective": self.objective_value,
            "per_core": [
                {"x": c.core.x, "y": c.core.y, "l2_term": c.l2_term,
                 "mem_term": c.mem_term, "total": c.total}
                for c in self.per_core
            ],
            "parameters": {
                "lambda_g": self.spec.lambda_g,
                "hit_l1": self.spec.hit_l1,
                "miss_l2": self.spec.miss_l2,
                "latency_l1": self.spec.latency_l1,
                "mean_service": self.spec.svc.mean_service,
                "service_scv": self.spec.svc.scv,
                "arrival_scv": self.spec.arrival_scv,
                "mem_fixed_latency": self.spec.mem_fixed_latency,
                "model_replies": self.spec.model_replies,
            },
        }

    def write_json(self, out: IO[str]) -> None:
        json.dump(self.to_json_dict(), out, indent=2)
        out.write("\n")


def low_traffic_l2_latency(core: Coord, placement: Placement, spec: TrafficSpec,
                           resolved: ResolvedTraffic | None = None) -> float:
    """Probability-weighted Manhattan distance from one core to all caches."""
    r = resolved if resolved is not None else resolve(placement, spec)
    if not r.caches:
        raise NoCachesError("placement has no caches")
    i = r.cores.index(core)
    return float(r.p[i] @ placement.grid.hops[r.core_ids[i], r.cache_ids])


def low_traffic_mem_latency(placement: Placement, spec: TrafficSpec,
                            core: Coord | None = None,
                            resolved: ResolvedTraffic | None = None) -> float:
    """Expected cache-to-memory-controller distance plus the fixed off-chip
    access time.

    The expectation nests over caches (weighted by the core's access row, or
    the cache average when no core is given) and over the nearest-controller
    assignment.
    """
    r = resolved if resolved is not None else resolve(placement, spec)
    if r.q is None:
        raise NoMemControllersError("placement has no memory controllers")
    per_cache = (r.q * placement.grid.hops[r.cache_ids][:, r.mc_ids]).sum(axis=1)
    if core is None:
        weights = np.full(len(per_cache), 1.0 / len(per_cache))
    else:
        weights = r.p[r.cores.index(core)]
    return float(weights @ per_cache) + spec.mem_fixed_latency


def objective(placement: Placement, spec: TrafficSpec, mode: Mode = Mode.LOW,
              queue_mode: str = PAPER) -> LatencyReport:
    """Evaluate the placement objective: sum over cores of expected latency.

    LOW mode scales hop counts by E{S}; HIGH mode prices each hop at the
    traversed router's modeled response time and therefore requires a stable
    queueing fixed point. The memory term is included only when the placement
    has memory controllers.
    """
    cores, l2, mem, total = _per_core(placement, spec, mode, queue_mode)
    per_core = list(map(CoreLatency, cores, l2.tolist(), mem.tolist(), total.tolist()))
    return LatencyReport(mode, per_core, float(sum(c.total for c in per_core)), spec)


def _per_core(placement: Placement, spec: TrafficSpec, mode: Mode,
              queue_mode: str) -> tuple[list[Coord], np.ndarray, np.ndarray, np.ndarray]:
    """``objective``'s cores with their L2 terms, memory terms and totals.
    The objective value adds ``total.tolist()`` up one core at a time."""
    r = resolve(placement, spec)
    grid = placement.grid
    if mode is Mode.HIGH:
        fp = solve_network(channel_loads(flow_set(placement, spec, r), grid),
                           spec.svc, spec.arrival_scv, queue_mode)
        transit = _link_transit(grid, fp.rt)
    else:
        # float(): an integer E{S} times the int8 hop table would stay int8.
        es = float(spec.svc.mean_service)

        def transit(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
            return (es * grid.hops[src[0]][:, dst[0]])[None]  # one placement

    l2, mem, total = _compose(spec, r.p, None if r.q is None else r.q[None], transit,
                              r.core_ids[None], r.cache_ids[None], r.mc_ids[None])
    return r.cores, l2[0], mem[0], total[0]


def _link_transit(grid: MeshGrid, rt: np.ndarray):
    """HIGH transit times for ``_compose``: per (src, dst) pair, the summed
    response times of the routers its XY path enters via links. The
    source's injection channel is excluded, as LOW counts the same hops."""
    def transit(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        k, n_src, n_dst = len(src), src.shape[1], dst.shape[1]
        sums = path_sums(grid, np.repeat(src, n_dst, axis=1).ravel(),
                         np.tile(dst, (1, n_src)).ravel(), rt, skip_injection=True)
        return sums.reshape(k, n_src, n_dst)
    return transit


def _compose(spec: TrafficSpec, p: np.ndarray, q: np.ndarray | None, transit,
             cores: np.ndarray, caches: np.ndarray,
             mcs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-core L2 terms, memory terms and totals of placements with the
    same node counts: one row of tile ids and one leading entry of ``q``
    (None without controllers) per placement. ``transit(src, dst)`` gives
    the transit matrices, one leading entry per placement. Each placement's
    terms are bit-identical to its own: every reduction runs per placement
    (the matrix products one matrix-vector product each)."""
    l2 = (p * transit(cores, caches)).sum(axis=2)
    mem = np.zeros(l2.shape)
    if q is not None:
        per_cache_mem = (q * transit(caches, mcs)).sum(axis=2)
        mem = np.matmul(p, per_cache_mem[:, :, None])[:, :, 0] + spec.mem_fixed_latency
    miss1 = spec.miss_l1
    return l2, mem, spec.latency_l1 + l2 * miss1 + mem * miss1 * spec.miss_l2
