"""Traffic and service-time specifications shared by the analytical models
and the simulator."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import InvalidTrafficError, NoCachesError
from .mesh import NodeKind, Placement

PROB_TOL = 1e-9


@dataclass(frozen=True)
class ServiceSpec:
    """Per-channel packet service time: mean E{S} and squared coefficient of
    variation C_s^2, identical across channels (one service rate per router,
    held constant across compared configurations)."""

    mean_service: float = 1.0
    scv: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.mean_service) and self.mean_service > 0):
            raise InvalidTrafficError(
                f"mean service time must be finite and > 0, got {self.mean_service}")
        if not (math.isfinite(self.scv) and self.scv >= 0):
            raise InvalidTrafficError(f"service SCV must be finite and >= 0, got {self.scv}")


@dataclass(frozen=True)
class TrafficSpec:
    """Workload description: injection rate, hit/miss chain, access matrix.

    ``lambda_g`` is the per-core packet generation rate, scalar or one value
    per core (row-major core order). ``p`` is the N_r x N_h access-probability
    matrix as nested tuples; None means uniform access. Rates entering the
    network are lambda_g * miss_l1: by default hit_l1 = 0 so lambda_g is the
    injection rate itself.
    """

    lambda_g: float | tuple[float, ...] = 0.1
    hit_l1: float = 0.0
    miss_l2: float = 0.1
    p: tuple[tuple[float, ...], ...] | None = None
    latency_l1: float = 1.0
    svc: ServiceSpec = field(default_factory=ServiceSpec)
    arrival_scv: float = 1.0
    model_replies: bool = False
    mem_fixed_latency: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.hit_l1 <= 1.0:
            raise InvalidTrafficError(f"hit_l1 must be in [0,1], got {self.hit_l1}")
        if not 0.0 <= self.miss_l2 <= 1.0:
            raise InvalidTrafficError(f"miss_l2 must be in [0,1], got {self.miss_l2}")
        if not (math.isfinite(self.arrival_scv) and self.arrival_scv >= 0):
            raise InvalidTrafficError(f"arrival SCV must be finite and >= 0, got {self.arrival_scv}")
        for name in ("latency_l1", "mem_fixed_latency"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidTrafficError(f"{name} must be finite, got {getattr(self, name)}")

    @property
    def miss_l1(self) -> float:
        return 1.0 - self.hit_l1

    def with_rate(self, lambda_g: float) -> "TrafficSpec":
        return replace(self, lambda_g=lambda_g)


def matrix(rows: Sequence[Sequence[float]]) -> tuple[tuple[float, ...], ...]:
    """Freeze a nested sequence into the tuple form TrafficSpec stores."""
    return tuple(tuple(float(v) for v in row) for row in rows)


@dataclass(frozen=True)
class ResolvedTraffic:
    """TrafficSpec bound to a concrete placement.

    ``core_ids``/``cache_ids``/``mc_ids`` are the row-major tile indices of
    each kind, ascending. ``p[i][j]`` is core i's access probability to
    cache j; ``q[j][k]`` is the share of cache j's misses sent to memory
    controller k (nearest controller, uniform split on distance ties);
    ``lam[i]`` is core i's generation rate. Both latency models compose
    these into one objective and differ only in the price of a hop: E{S}
    in LOW, the solved response time of the router entered in HIGH.
    """

    core_ids: np.ndarray
    cache_ids: np.ndarray
    mc_ids: np.ndarray
    lam: np.ndarray
    p: np.ndarray
    q: np.ndarray | None


def resolve(placement: Placement, spec: TrafficSpec) -> ResolvedTraffic:
    """Validate a TrafficSpec against a placement and bind its matrices.

    Raises NoCachesError when the placement has no caches and
    InvalidTrafficError for malformed probabilities or rates.
    """
    grid = placement.grid
    core_ids, cache_ids, mc_ids = (placement.tile_ids(kind)
                                   for kind in (NodeKind.CORE, NodeKind.CACHE, NodeKind.MC))
    n_cores = core_ids.size
    if not cache_ids.size:
        raise NoCachesError("placement has no caches")

    if isinstance(spec.lambda_g, (int, float)):
        lam = np.full(n_cores, float(spec.lambda_g))
    else:
        try:
            lam = np.asarray([float(v) for v in spec.lambda_g], dtype=float)
        except (TypeError, ValueError) as exc:
            raise InvalidTrafficError(f"lambda_g entries must be numbers: {exc}") from None
        if lam.shape != (n_cores,):
            raise InvalidTrafficError(
                f"lambda_g has {lam.size} entries for {n_cores} cores"
            )
    if not (np.isfinite(lam) & (lam >= 0)).all():
        raise InvalidTrafficError("injection rates must be finite and >= 0")

    if spec.p is None:
        p = np.full((n_cores, cache_ids.size), 1.0 / cache_ids.size)
    else:
        try:
            p = np.asarray(spec.p, dtype=float)
        except (TypeError, ValueError) as exc:
            raise InvalidTrafficError(f"p must be a numeric matrix: {exc}") from None
        if p.shape != (n_cores, cache_ids.size):
            raise InvalidTrafficError(
                f"p has shape {p.shape}, expected ({n_cores}, {cache_ids.size})"
            )
        # Written so that NaN fails too: it compares false both ways.
        if np.any(~((p >= -PROB_TOL) & (p <= 1.0 + PROB_TOL))):
            raise InvalidTrafficError("p entries must lie in [0, 1]")
        bad = np.abs(p.sum(axis=1) - 1.0) > PROB_TOL
        if np.any(bad):
            raise InvalidTrafficError(
                f"rows of p must sum to 1 (core indices {np.nonzero(bad)[0].tolist()})"
            )

    q = nearest_split(grid.hops[cache_ids][:, mc_ids]) if mc_ids.size else None
    return ResolvedTraffic(core_ids, cache_ids, mc_ids, lam, p, q)


def nearest_split(hops: np.ndarray) -> np.ndarray:
    """``ResolvedTraffic.q`` from the cache-to-controller hop counts: each
    cache's misses split evenly over its nearest controllers. Leading axes
    batch placements."""
    nearest = hops == hops.min(axis=-1, keepdims=True)
    return nearest / nearest.sum(axis=-1, keepdims=True)
