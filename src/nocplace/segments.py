"""XY paths as one row segment, then one column segment (Dally & Seitz
1987): HIGH channel loads and transit times from per-row and per-column
segment tables, with no path expanded into hops.

``superpose`` adds flow rates per segment and per point turn, and each
channel its covering segments, in one order fixed by the code.
``link_transit`` sums solved response times along every segment of the
grid once, in path order, so a pair's transit is two lookups.
``routing.channel_loads``, the HIGH objective (``latency``), the HIGH batch
scorer (``scoring``) and the delay inspector (``queueing``) all use these
two, so they agree bit for bit.

Only the HIGH model and ``channel_loads`` use them, so this module is
imported on their first use: importing the package does not compile it.
"""

from __future__ import annotations

import numpy as np

from .mesh import MeshGrid
from .routing import _E, _KINDS, _L, _N, _S, _W, N_PORTS, FlowSet, _port_sum


def superpose(flows: FlowSet, grid: MeshGrid, copies: int) -> tuple[np.ndarray, np.ndarray]:
    """``channel_loads``' ``lam`` and ``turns`` for flows on ``copies``
    copies of ``grid`` stacked one below the other: tile ``b * n_tiles + t``
    is tile t of copy b, and every copy's loads are bit-identical to its
    flows' ``channel_loads``.

    An XY path is one row segment, then one column segment (Dally & Seitz
    1987), so no path is expanded into hops. The flows' rates are added per
    segment and per point turn (leaving the source, the corner, entering
    the destination) in the canonical (src, dst, kind, rate) order, with
    ``np.bincount``. A straight-through turn at position p of a line adds
    the segments covering it, over their starts s in travel order, each the
    sum over its ends d past p from the far end: no difference of prefix
    sums, so a turn no flow takes stays exactly 0.0, and a zero-rate flow
    adds exact zeros. ``lam`` adds each channel's turns in port order.
    """
    src, dst, kind, rate = flows
    n_tiles, w, h = copies * grid.n_tiles, grid.width, grid.height
    # The canonical order. ``flow_set`` emits requests in it already, so the
    # sort is skipped when the keys increase: 5-6% of a 16x16 ``objective``
    # and of an 8x8 HIGH swap pass.
    key = (src * np.int64(n_tiles) + dst) * len(_KINDS) + kind
    if not (key[1:] > key[:-1]).all():
        order = np.lexsort((rate, key))
        src, dst, rate = src[order], dst[order], rate[order]
        del order
    del key  # the flow temporaries set a 16x16 batch's peak memory
    src, dst = src.astype(np.int32), dst.astype(np.int32)
    sy, dy = src // w, dst // w
    sx, dx, copy = src - sy * w, dst - dy * w, sy // h
    way = 3 * np.sign(dx - sx) + np.sign(dy - sy) + 4
    corner = sy * w + dx
    # Segments by (start, end, line): rows are lines, and columns are lines
    # by (copy, x). Zero-length segments land on diagonals no turn reads.
    rows = np.bincount((sx * w + dx) * (copies * h) + sy, rate, w * w * copies * h)
    cols = np.bincount(((sy - copy * h) * h + dy - copy * h) * (copies * w) + copy * w + dx,
                       rate, h * h * copies * w)
    del sx, sy, dx, dy, copy
    # Point turns (tile, in, out), one bincount per point; each holds turns
    # no other point takes, and a zero weight where a flow has no corner or
    # ends where it starts. No temporary outgrows 128 KiB, glibc's mmap
    # threshold, on a 512-row batch of 8x8 copies.
    turns = np.zeros(n_tiles * N_PORTS * N_PORTS)
    for point, tile in enumerate((src, corner, dst)):
        turns += np.bincount(tile * (N_PORTS * N_PORTS) + _TURN[point].take(way),
                             rate * _TAKES[point].take(way), n_tiles * N_PORTS * N_PORTS)
    turns = turns.reshape(copies * h, w, N_PORTS, N_PORTS)
    fwd, bwd = _through(rows.reshape(w, w, copies * h))
    turns[:, :, _W, _E], turns[:, :, _E, _W] = fwd.T, bwd.T
    fwd, bwd = _through(cols.reshape(h, h, copies * w))
    columns = turns.reshape(copies, h, w, N_PORTS, N_PORTS)
    columns[..., _N, _S], columns[..., _S, _N] = (
        a.reshape(h, copies, w).transpose(1, 0, 2) for a in (fwd, bwd))
    turns = turns.reshape(n_tiles, N_PORTS, N_PORTS)
    return _port_sum(turns), turns


# By a flow's way 3 * sign(dx - sx) + sign(dy - sy) + 4: the turns
# (in * N_PORTS + out) it takes leaving its source, at its corner and
# entering its destination, and whether it takes them.
_TURN = np.array([[_L * N_PORTS + out for out in (_W, _W, _W, _N, _L, _S, _E, _E, _E)],
                  [_E * N_PORTS + _N, 0, _E * N_PORTS + _S, 0, 0, 0, _W * N_PORTS + _N, 0,
                   _W * N_PORTS + _S],
                  [in_ * N_PORTS + _L for in_ in (_S, _E, _N, _S, _L, _N, _S, _W, _N)]],
                 dtype=np.int32)
_TAKES = np.array([[1.0] * 9, [1.0, 0, 1, 0, 0, 0, 1, 0, 1], [1.0, 1, 1, 1, 0, 1, 1, 1, 1]])


def _through(seg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Straight-through loads on lines of k positions from their segment
    loads ``seg[start, end, line]``: forward (``sum_{s < p < d}``, starts
    ascending, ends from k - 1 down) and backward (``sum_{d < p < s}``, the
    same on the mirror image), each k x lines."""
    k, n = seg.shape[1:]
    both = np.concatenate([seg[:, ::-1], seg[::-1]], axis=2)  # ends from the far end
    # Sums over the ends past p, then over the starts.
    ahead = _prefix(_prefix(both, 1)[:, ::-1], 0)
    out = np.zeros((k, 2 * n))
    out[1:-1] = np.diagonal(ahead, 2).T
    return out[:, :n], out[::-1, n:]


def _prefix(a: np.ndarray, axis: int) -> np.ndarray:
    """``np.cumsum(a, axis)``, bit for bit. numpy accumulates one line at a
    time, so many lines are added a position at a time instead. Measured on
    ``superpose`` plus ``link_transit``, the loop is 3-10% faster on a HIGH
    batch chunk (128 lines on 8x8, 64 on 16x16), and ``np.cumsum`` 7-25%
    faster on one placement's 16 (8x8) or 32 (16x16) lines."""
    if a.shape[-1] < 64:
        return np.cumsum(a, axis)
    out = np.array(a)
    at = (slice(None),) * axis
    for i in range(1, a.shape[axis]):
        out[at + (i,)] += out[at + (i - 1,)]
    return out


def link_transit(grid: MeshGrid, rt: np.ndarray):
    """HIGH transit times: ``transit(src, dst)`` gives, per (src, dst) pair,
    the summed response times ``rt[tile, in_port]`` of the routers its XY
    path enters via links (the source's injection channel excluded).

    ``rt`` may hold stacked copies of ``grid``, and ``src`` and ``dst``
    tile ids broadcast against each other. A pair's transit is two
    lookups: its row segment's sum plus its column segment's, each added
    from 0.0 in path order."""
    w, h = grid.width, grid.height
    copies = len(rt) // grid.n_tiles
    tiles = rt.reshape(copies * h, w, N_PORTS)
    row = _segment_sums(tiles[:, :, _W].T, tiles[:, :, _E].T).ravel()
    columns = tiles.reshape(copies, h, w, N_PORTS).transpose(1, 0, 2, 3).reshape(h, -1, N_PORTS)
    column = _segment_sums(columns[..., _N], columns[..., _S]).ravel()
    n_rows, n_lines = copies * h, copies * w

    def transit(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        # Row (sx, dx, sy) and column (sy, dy, (copy, dx)) split into their
        # src and dst parts, which broadcast.
        sy, dy = src // w, dst // w
        copy, dx = sy // h, dst - dy * w
        return (row.take((src - sy * w) * (w * n_rows) + sy + dx * n_rows)
                + column.take((sy - copy * h) * (h * n_lines) + copy * w
                              + (dy % h) * n_lines + dx))
    return transit


def _segment_sums(fwd: np.ndarray, bwd: np.ndarray) -> np.ndarray:
    """``out[s, d, line]``: ``fwd[:, line]`` added over positions s+1 .. d in
    that order when d > s, ``bwd[:, line]`` over s-1 .. d when d < s, 0 when
    d == s. Leading zeros keep each sum bit for bit one from 0.0."""
    k, n = fwd.shape
    ahead = np.triu(np.ones((k, k), dtype=bool), 1)[:, :, None]
    sums = _prefix(np.concatenate([np.where(ahead, fwd, 0.0),
                                   np.where(ahead.transpose(1, 0, 2), bwd, 0.0)[:, ::-1]], 2), 1)
    return sums[:, :, :n] + sums[:, ::-1, n:]
