"""Objective values of many placements at once, for the searches: LOW
values with an error bound against ``objective``'s, for selecting, and HIGH
values bit-identical to ``objective``'s from one fixed point shared by many
placements. Placements come as ``uint8`` rows of placement-string bytes.

Only the searches score in batches, so this module is imported on their
first use: importing the package does not compile it.
"""

from __future__ import annotations

import numpy as np

from .latency import _compose, _link_transit
from .mesh import _CHAR_OF_KIND, MeshGrid, NodeKind, placement_from_string
from .queueing import OK, PAPER, _fixed_point
from .routing import _stacked_flows, _superpose
from .traffic import ResolvedTraffic, TrafficSpec, nearest_split, resolve

# Hop counts that ``low_objective_batch`` gathers per chunk, and router
# rows that ``high_objective_batch`` stacks into one fixed point (about
# 2 KB of temporaries each): memory is bounded by these, not by the batch.
_LOW_HOPS = 1 << 20
_BATCH_ROWS = 512


def _first_resolved(grid: MeshGrid, rows: np.ndarray, spec: TrafficSpec) -> ResolvedTraffic:
    # Every row has the same node counts: the first one checks the spec.
    return resolve(placement_from_string(grid, rows[0].tobytes().decode("ascii")), spec)


def _kind_ids(rows: np.ndarray, kind: NodeKind, n: int) -> np.ndarray:
    """The tile ids of the n tiles of ``kind`` in each row, ascending."""
    # One flat index array: a 2-D np.nonzero is about 3x slower and also
    # returns the row indices.
    ids = np.flatnonzero(rows == ord(_CHAR_OF_KIND[kind]))
    ids %= rows.shape[1]
    return ids.reshape(len(rows), n)


def low_objective_batch(grid: MeshGrid, rows: np.ndarray,
                        spec: TrafficSpec) -> tuple[np.ndarray, float]:
    """LOW ``objective_value`` of many placements at once, for selecting
    candidates, and a bound on how far each value may lie from the one
    ``objective`` returns.

    ``rows`` holds one placement string per row as ``uint8`` bytes, every
    row with the same number of cores, caches and controllers. The spec is
    checked against the first row as ``objective`` checks it, with the same
    errors. Rows are scored in chunks that gather at most ``_LOW_HOPS`` hop
    counts, so memory does not grow with the number of rows.
    """
    r = _first_resolved(grid, rows, spec)
    n_cores, n_caches, n_mcs = len(r.core_ids), len(r.cache_ids), len(r.mc_ids)
    es = float(spec.svc.mean_service)
    miss1 = spec.miss_l1
    value = np.empty(len(rows))
    step = max(1, _LOW_HOPS // max(1, n_cores * n_caches + n_caches * n_mcs))
    for i in range(0, len(rows), step):
        chunk = rows[i:i + step]
        cores = _kind_ids(chunk, NodeKind.CORE, n_cores)
        caches = _kind_ids(chunk, NodeKind.CACHE, n_caches)
        # sum_i l2_i: the p-weighted core->cache hops of every core.
        l2 = es * np.einsum("ij,bij->b", r.p, grid.hops[cores[:, :, None], caches[:, None, :]])
        value[i:i + step] = n_cores * spec.latency_l1 + miss1 * l2
        if n_mcs:
            # q splits a cache's misses evenly over its nearest controllers,
            # so sum_k q_jk * hops_jk is the distance to the nearest one.
            mcs = _kind_ids(chunk, NodeKind.MC, n_mcs)
            nearest = grid.hops[caches[:, :, None], mcs[:, None, :]].min(axis=2)
            mem = es * (nearest @ r.p.sum(axis=0)) + n_cores * spec.mem_fixed_latency
            value[i:i + step] += miss1 * spec.miss_l2 * mem
    reach = np.abs(r.p).sum() * es * (grid.width + grid.height - 2)
    scale = n_cores * abs(spec.latency_l1) + miss1 * reach
    if n_mcs:
        scale += miss1 * spec.miss_l2 * (reach + n_cores * abs(spec.mem_fixed_latency))
    # Both this value and objective's are the same sum of products
    # (latency_l1; miss1 * p_ij * E{S} * hops; miss1 * miss_l2 * (p_ij * q_jk *
    # E{S} * hops + mem_fixed_latency)) evaluated in different orders. Along
    # either order no product meets more than K = cores + caches + mcs + 8
    # roundings (its factors, q's division, then one per addition it takes
    # part in), so each computed value is within gamma_K * scale of the exact
    # sum, where scale bounds the sum of the products' magnitudes (Higham,
    # Accuracy and Stability of Numerical Algorithms, sections 3.1 and 4.2).
    # The two values therefore differ by at most 2 * gamma_K * scale, and
    # gamma_K = K u / (1 - K u) <= K * eps for the unit roundoff u = eps / 2.
    k = n_cores + n_caches + n_mcs + 8
    return value, float(2 * k * np.finfo(float).eps * scale)


def high_objective_batch(grid: MeshGrid, rows: np.ndarray, spec: TrafficSpec,
                         queue_mode: str = PAPER) -> tuple[np.ndarray, np.ndarray]:
    """HIGH ``objective_value`` of many placements at once, bit-identical to
    ``objective``'s, and the cause of each failure.

    ``rows`` and the spec check are as for ``low_objective_batch``. A
    placement's cause is ``queueing.OK``, or the status of the router whose
    error ``objective`` would raise (UNSTABLE, EFFECTIVE_UNSTABLE or
    NON_CONVERGENT); a failed placement's value is +inf. The routers of
    ``_BATCH_ROWS`` // n_tiles placements at a time are solved as one fixed
    point, so memory is bounded by that chunk, not by the number of rows.
    """
    r = _first_resolved(grid, rows, spec)
    values = np.empty(len(rows))
    causes = np.empty(len(rows), dtype=np.int8)
    step = max(1, _BATCH_ROWS // grid.n_tiles)
    for i in range(0, len(rows), step):
        values[i:i + step], causes[i:i + step] = _high_chunk(grid, rows[i:i + step], spec,
                                                             queue_mode, r)
    return values, causes


def _high_chunk(grid: MeshGrid, rows: np.ndarray, spec: TrafficSpec, queue_mode: str,
                r: ResolvedTraffic) -> tuple[np.ndarray, np.ndarray]:
    # Placement b's tile t is tile b * n + t of a stack of b copies of the
    # grid, so its channels are offset by b * n routers: one flow set, one
    # superposition and one fixed point of b * n rows serve all of them.
    b, n = len(rows), grid.n_tiles
    local = [_kind_ids(rows, kind, len(ids)) for kind, ids in
             ((NodeKind.CORE, r.core_ids), (NodeKind.CACHE, r.cache_ids), (NodeKind.MC, r.mc_ids))]
    cores, caches, mcs = (ids + np.arange(0, b * n, n)[:, None] for ids in local)
    q = None
    if r.q is not None:
        q = nearest_split(grid.hops[local[1][:, :, None], local[2][:, None, :]])
    lam, turns, _ = _superpose(_stacked_flows(spec, r.lam, r.p, cores, caches, mcs, q), grid, b)
    fp = _fixed_point(lam, turns, spec.svc, spec.arrival_scv, queue_mode, n)
    status = fp.status.reshape(b, n)
    causes = status[np.arange(b), (status != OK).argmax(axis=1)]
    values = np.full(b, np.inf)
    ok = np.flatnonzero(causes == OK)
    if ok.size:
        total = _compose(spec, r.p, None if q is None else q[ok], _link_transit(grid, fp.rt),
                         cores[ok], caches[ok], mcs[ok])[2]
        # Added up as _value adds one placement's totals.
        values[ok] = [float(sum(t)) for t in total.tolist()]
    return values, causes
