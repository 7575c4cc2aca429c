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
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import IO

import numpy as np

from .mesh import Coord, MeshGrid, Placement
from .queueing import PAPER, solve_network
from .routing import _port_sum, channel_loads, flow_set
from .traffic import TrafficSpec, resolve


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
    """Per-core expected latencies and the summed global objective.

    Built from per-core columns in core order: the cores' row-major tile
    ids on ``grid``, their L2 terms, memory terms and totals. The objective
    and the two term sums add a column up one core at a time, as ``sum``
    does; ``per_core`` builds one ``CoreLatency`` per core on first read."""

    mode: Mode
    spec: TrafficSpec
    grid: MeshGrid
    core_ids: list[int]
    l2_terms: list[float]
    mem_terms: list[float]
    totals: list[float]
    objective_value: float = field(init=False)
    l2_sum: float = field(init=False)
    mem_sum: float = field(init=False)

    def __post_init__(self):
        self.objective_value = float(sum(self.totals))
        self.l2_sum, self.mem_sum = sum(self.l2_terms), sum(self.mem_terms)

    @cached_property
    def per_core(self) -> list[CoreLatency]:
        return list(map(CoreLatency, map(self.grid.coords.__getitem__, self.core_ids),
                        self.l2_terms, self.mem_terms, self.totals))

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


def objective(placement: Placement, spec: TrafficSpec, mode: Mode = Mode.LOW,
              queue_mode: str = PAPER) -> LatencyReport:
    """Evaluate the placement objective: sum over cores of expected latency.

    LOW mode scales hop counts by E{S}; HIGH mode prices each hop at the
    traversed router's modeled response time and therefore requires a stable
    queueing fixed point. The memory term is included only when the placement
    has memory controllers.
    """
    r = resolve(placement, spec)
    grid = placement.grid
    if mode is Mode.HIGH:
        from .segments import link_transit  # imported on first use, so LOW never compiles it

        fp = solve_network(channel_loads(flow_set(placement, spec, r), grid), spec.svc,
                           spec.arrival_scv, queue_mode)
        transit = link_transit(grid, fp.rt)
    else:
        transit = _hop_transit(grid, spec)
    l2, mem, total = _compose(spec, r.p, None if r.q is None else r.q[None], transit,
                              r.core_ids[None], r.cache_ids[None], r.mc_ids[None])
    return LatencyReport(mode, spec, grid, r.core_ids.tolist(), l2[0].tolist(), mem[0].tolist(),
                         total[0].tolist())


def _hop_transit(grid: MeshGrid, spec: TrafficSpec):
    """LOW transit times for ``_compose``: E{S} per hop of each pair's
    manhattan distance."""
    # float(): an integer E{S} times the int8 hop table would stay int8.
    table = (float(spec.svc.mean_service) * grid.hops).ravel()
    n = grid.n_tiles
    return lambda src, dst: table.take(src * n + dst)


def _compose(spec: TrafficSpec, p: np.ndarray, q: np.ndarray | None, transit,
             cores: np.ndarray, caches: np.ndarray,
             mcs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-core L2 terms, memory terms and totals of placements with the
    same node counts: one row of tile ids and one leading entry of ``q``
    (None without controllers) per placement. ``transit(src, dst)`` gives
    the transit times of tile ids that broadcast against each other, here
    one matrix per placement. Each placement's terms are bit-identical to
    its own: every reduction runs per placement (the matrix products one
    matrix-vector product each)."""
    l2 = _row_sums(p * transit(cores[:, :, None], caches[:, None, :]))
    mem = np.zeros(l2.shape)
    if q is not None:
        per_cache_mem = _row_sums(q * transit(caches[:, :, None], mcs[:, None, :]))
        mem = np.matmul(p, per_cache_mem[:, :, None])[:, :, 0] + spec.mem_fixed_latency
    miss1 = spec.miss_l1
    return l2, mem, spec.latency_l1 + l2 * miss1 + mem * miss1 * spec.miss_l2


def _row_sums(terms: np.ndarray) -> np.ndarray:
    """``terms.sum(axis=-1)``, bit for bit. numpy adds a row of fewer than 8
    terms one term at a time from 0.0, but slowly for every row of a short
    last axis, so those rows are added a column at a time instead."""
    if terms.shape[-1] >= 8:
        return terms.sum(axis=-1)
    return _port_sum(terms)
