"""Objective values of many placements at once, for the searches, each
bit-identical to ``objective``'s: every batch runs ``objective``'s own
composition with a leading placement axis. Placements come as ``uint8``
rows of placement-string bytes.

HIGH placements are superposed a chunk at a time on a stack of grid copies,
and each distinct (``lam``, ``turns``) router row is solved once: the
contention fixed point solves every row as if alone, so equal rows have
equal solutions. A search's candidates share most rows: the 768 swaps of an
8x8 48/16 pass have 1,156 distinct rows among 49,152.

Only the searches score in batches, so this module is imported on their
first use: importing the package does not compile it.
"""

from __future__ import annotations

import numpy as np

from .latency import _compose, _hop_transit
from .mesh import _CHAR_OF_KIND, MeshGrid, NodeKind, placement_from_string
from .queueing import OK, PAPER, _fixed_point
from .routing import N_PORTS, _port_sum, _stacked_flows
from .segments import link_transit, superpose
from .traffic import ResolvedTraffic, TrafficSpec, nearest_split, resolve

# Hop counts that ``low_objective_batch`` gathers per chunk (about 26 bytes
# of float64 and index temporaries each). A chunk's arrays then stay within
# 128 KiB, glibc's default mmap threshold, so they are not mapped afresh for
# every chunk: at 1 << 15 a 6x6 24/9 LOW local search ran about 40% slower.
# Router rows that ``high_objective_batch`` superposes per chunk, and that
# one fixed point solves at most (about 2 KB of temporaries each); distinct
# rows it remembers (about 0.4 KB each) before starting afresh; and rows of
# the superposed placements that may wait for their rows' solutions (4 bytes
# each). Memory is bounded by these, not by the batch.
_LOW_HOPS = 1 << 14
_BATCH_ROWS = 512
_MEMO_ROWS = 1 << 11
_WAIT_ROWS = 1 << 16


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


def low_objective_batch(grid: MeshGrid, rows: np.ndarray, spec: TrafficSpec) -> np.ndarray:
    """LOW ``objective_value`` of many placements at once, bit-identical to
    ``objective``'s.

    ``rows`` holds one placement string per row as ``uint8`` bytes, every
    row with the same number of cores, caches and controllers. The spec is
    checked against the first row as ``objective`` checks it, with the same
    errors. Rows are scored in chunks that gather at most ``_LOW_HOPS`` hop
    counts, so memory does not grow with the number of rows.
    """
    values = np.empty(len(rows))
    if not len(rows):
        return values
    r = _first_resolved(grid, rows, spec)
    transit = _hop_transit(grid, spec)
    n_cores, n_caches, n_mcs = len(r.core_ids), len(r.cache_ids), len(r.mc_ids)
    step = max(1, _LOW_HOPS // max(1, n_cores * n_caches + n_caches * n_mcs))
    for i in range(0, len(rows), step):
        cores, caches, mcs, q = _local_ids(grid, rows[i:i + step], r)
        values[i:i + step] = _port_sum(_compose(spec, r.p, q, transit, cores, caches, mcs)[2])
    return values


def high_objective_batch(grid: MeshGrid, rows: np.ndarray, spec: TrafficSpec,
                         queue_mode: str = PAPER) -> tuple[np.ndarray, np.ndarray]:
    """HIGH ``objective_value`` of many placements at once, bit-identical to
    ``objective``'s, and the cause of each failure.

    ``rows`` and the spec check are as for ``low_objective_batch``. A
    placement's cause is ``queueing.OK``, or the status of its first failing
    router in tile order, whose error ``objective`` would raise (UNSTABLE,
    EFFECTIVE_UNSTABLE or NON_CONVERGENT); a failed placement's value is
    +inf.

    The placements are superposed ``_BATCH_ROWS`` // n_tiles at a time, and
    wait while their router rows not seen before gather. Those rows are
    solved, at most ``_BATCH_ROWS`` per fixed point, once that many gather,
    the waiting placements hold ``_WAIT_ROWS`` rows or the rows seen reach
    ``_MEMO_ROWS``; the waiting placements are then valued, and in the last
    case the rows seen are forgotten. Memory is bounded by these constants,
    not by the number of rows.
    """
    values = np.empty(len(rows))
    causes = np.empty(len(rows), dtype=np.int8)
    if not len(rows):
        return values, causes
    r = _first_resolved(grid, rows, spec)
    memo = _RouterRows(spec, queue_mode)
    step = max(1, _BATCH_ROWS // grid.n_tiles)
    chunk_rows = step * grid.n_tiles
    waiting = []
    for i in range(0, len(rows), step):
        ids = _stacked_ids(grid, rows[i:i + step], r)
        waiting.append((i, ids, _superposed(grid, ids, spec, r, memo)))
        full = len(memo.slot) + chunk_rows > _MEMO_ROWS
        if (full or memo.unsolved >= _BATCH_ROWS or len(waiting) * chunk_rows >= _WAIT_ROWS
                or i + step >= len(rows)):
            memo.solve()
            for j, ids, refs in waiting:
                values[j:j + step], causes[j:j + step] = _finish(grid, spec, r, memo, ids, refs)
            waiting = []
            if full:
                memo = _RouterRows(spec, queue_mode)
    return values, causes


class _RouterRows:
    """Distinct (``lam``, ``turns``) router rows, each solved once, keyed by
    their bytes: ``slot[key]`` indexes ``rt`` and ``status`` once solved."""

    def __init__(self, spec: TrafficSpec, queue_mode: str):
        self.spec, self.queue_mode = spec, queue_mode
        self.slot: dict[bytes, int] = {}
        self.todo: list[np.ndarray] = []  # rows of the slots not solved yet
        self.rt = np.empty((0, N_PORTS))
        self.status = np.empty(0, dtype=np.int8)

    @property
    def unsolved(self) -> int:
        return len(self.slot) - len(self.status)

    def refs(self, lam: np.ndarray, turns: np.ndarray) -> np.ndarray:
        """The slot of every row, new rows getting the next free ones."""
        buf = np.concatenate([lam, turns.reshape(len(lam), -1)], axis=1)
        keys = buf.view(np.dtype((np.void, buf.itemsize * buf.shape[1]))).ravel().tolist()
        seen, slot = len(self.slot), self.slot
        refs = np.array([slot.setdefault(k, len(slot)) for k in keys], dtype=np.int32)
        if len(slot) > seen:
            new, first = np.unique(refs, return_index=True)
            self.todo.append(buf[first[new >= seen]])
        return refs

    def solve(self) -> None:
        """Solve the rows waiting, at most ``_BATCH_ROWS`` per fixed point."""
        if not self.todo:
            return
        todo = np.concatenate(self.todo)
        self.todo = []
        rt, status = [self.rt], [self.status]
        for i in range(0, len(todo), _BATCH_ROWS):
            part = todo[i:i + _BATCH_ROWS]
            fp = _fixed_point(part[:, :N_PORTS], part[:, N_PORTS:].reshape(-1, N_PORTS, N_PORTS),
                              self.spec.svc, self.spec.arrival_scv, self.queue_mode)
            rt.append(fp.rt)
            status.append(fp.status)
        self.rt, self.status = np.concatenate(rt), np.concatenate(status)


def _local_ids(grid: MeshGrid, rows: np.ndarray, r: ResolvedTraffic) -> tuple:
    """The core, cache and controller tile ids of ``rows``, one row each,
    and their q (None without controllers)."""
    cores = _kind_ids(rows, NodeKind.CORE, len(r.core_ids))
    caches = _kind_ids(rows, NodeKind.CACHE, len(r.cache_ids))
    if r.q is None:
        return cores, caches, np.empty((len(rows), 0), dtype=cores.dtype), None
    mcs = _kind_ids(rows, NodeKind.MC, len(r.mc_ids))
    return cores, caches, mcs, nearest_split(grid.hops[caches[:, :, None], mcs[:, None, :]])


def _stacked_ids(grid: MeshGrid, rows: np.ndarray, r: ResolvedTraffic) -> tuple:
    """``_local_ids`` on a stack of grid copies."""
    # Placement b's tile t is tile b * n + t of a stack of b copies of the
    # grid, so its channels are offset by b * n routers: one flow set and
    # one superposition serve all of them.
    *local, q = _local_ids(grid, rows, r)
    offset = np.arange(0, len(rows) * grid.n_tiles, grid.n_tiles)[:, None]
    return (*(ids + offset for ids in local), q)


def _superposed(grid: MeshGrid, ids: tuple, spec: TrafficSpec, r: ResolvedTraffic,
                memo: _RouterRows) -> np.ndarray:
    """The slots of the router rows of the placements of ``_stacked_ids``
    ``ids``, one row of slots each."""
    n = len(ids[0])
    lam, turns = superpose(_stacked_flows(spec, r.lam, r.p, *ids), grid, n)
    return memo.refs(lam, turns).reshape(n, grid.n_tiles)


def _finish(grid: MeshGrid, spec: TrafficSpec, r: ResolvedTraffic, memo: _RouterRows,
            ids: tuple, refs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # A placement's cause is its first failing row, as when its mesh is
    # solved alone: every row's outcome is its own, and the rows after the
    # first failure only go unused.
    status = memo.status[refs]
    causes = status[np.arange(len(refs)), (status != OK).argmax(axis=1)]
    values = np.full(len(refs), np.inf)
    ok = np.flatnonzero(causes == OK)
    if ok.size:
        cores, caches, mcs, q = ids
        transit = link_transit(grid, memo.rt[refs.ravel()])
        total = _compose(spec, r.p, None if q is None else q[ok], transit,
                         cores[ok], caches[ok], mcs[ok])[2]
        values[ok] = _port_sum(total)
    return values, causes
