"""Candidate enumeration for the exhaustive search: every placement of a
search space as placement-string bytes in ``uint8`` arrays of a fixed number
of rows. No table of choices larger than one block is ever built whole."""

from __future__ import annotations

import math
from itertools import chain, combinations, islice
from typing import Iterator

import numpy as np


# Rows made per step, at most: a step's index arrays hold rows x k entries,
# and kept this small their temporaries add little to resident memory.
_STEP_ROWS = 1024


def _subsets(n: int, k: int) -> Iterator[np.ndarray]:
    """The k-subsets (k >= 1) of range(n) in lexicographic order, in arrays
    of at most _STEP_ROWS rows."""
    subsets = chain.from_iterable(combinations(range(n), k))
    while len(ranks := np.fromiter(islice(subsets, _STEP_ROWS * k), np.min_scalar_type(n))):
        yield ranks.reshape(-1, k)


def _place(parents: np.ndarray, allowed: np.ndarray, k: int, char: int,
           block: int) -> Iterator[np.ndarray]:
    """Each parent row with ``char`` put on k of its open tiles (``.`` and
    ``allowed``) in every way, parents in order and each one's choices in
    lexicographic order. A choice is a k-subset of ranks among the open
    tiles: one table serves every parent, kept whole up to ``block`` rows."""
    if not k:
        yield parents
        return
    is_open = (parents == ord(".")) & allowed
    n_open = is_open.sum(axis=1)
    top, width = int(n_open.max(initial=0)), parents.shape[1]
    n = math.comb(top, k)
    # Several parents per step only when the table is one chunk: order kept.
    step = max(1, _STEP_ROWS // max(n, 1))
    table = list(_subsets(top, k)) if n <= block else None
    for i in range(0, len(parents), step):
        # Per row, its open tiles first, in tile order. Flat int32 indices:
        # a 2-D fancy index is several times slower.
        tiles = np.argsort(~is_open[i:i + step], axis=1, kind="stable").astype(np.int32)
        for ranks in _subsets(top, k) if table is None else table:
            # The k-subsets of range(m) are those of range(top) below m.
            parent, j = np.nonzero(ranks[:, -1] < n_open[i:i + step, None])
            rows = parents.take(i + parent, axis=0)
            at = tiles.take(ranks.take(j, axis=0) + (parent * width).astype(np.int32)[:, None])
            at += np.arange(0, len(rows) * width, width, dtype=np.int32)[:, None]
            rows.ravel()[at] = char
            yield rows


def raw_blocks(base: str, free: list[int], counts: tuple[int, int, int],
               pool: list[int] | None, block: int) -> Iterator[np.ndarray]:
    """Every placement that puts ``counts`` (cores, caches, controllers) on
    the ``free`` tiles of ``base``, controllers on ``pool`` tiles only when
    given, in arrays of ``block`` rows (the last one shorter). Caches vary
    slowest, controllers fastest, as in nested ``combinations`` loops."""
    n_cores, n_caches, n_mcs = counts
    tiles = np.arange(len(base))
    on_free, on_pool = np.isin(tiles, free), np.isin(tiles, free if pool is None else pool)
    empty = np.frombuffer(base.encode("ascii"), dtype=np.uint8)[None]
    pending, size = [], 0
    for with_caches in _place(empty, on_free, n_caches, ord("$"), block):
        for with_cores in _place(with_caches, on_free, n_cores, ord("C"), block):
            for rows in _place(with_cores, on_pool, n_mcs, ord("M"), block):
                pending.append(rows)
                size += len(rows)
                while size >= block:
                    rows = np.concatenate(pending)
                    yield rows[:block]
                    pending, size = [rows[block:]], size - block
    if size:
        yield np.concatenate(pending)
