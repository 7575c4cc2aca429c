"""Candidate enumeration for the exhaustive search, as placement-string
bytes in ``uint8`` arrays of a fixed number of rows: every placement of a
search space (``raw_blocks``), or one per symmetry orbit
(``representative_blocks``). No table of choices larger than one block is
ever built whole.

Representatives are generated in orbit order rather than filtered out of
every placement (orderly generation; Read 1978, McKay 1998). Only the cache
sets that are smallest in their orbit are extended, and their cores and
controllers are tested only under the maps that fix the cache set, a test
that most sets need not make. Each row written is then mapped to the
smallest string of its orbit, the representative that filtering every
placement would keep.

This module is imported on the search's first use: importing the package
does not compile it."""

from __future__ import annotations

import functools
import math
from itertools import chain, combinations, islice
from typing import Iterator

import numpy as np


# Rows made per step, at most: a step's index arrays hold rows x k entries,
# and kept this small their temporaries add little to resident memory.
_STEP_ROWS = 1024


def _subsets(n: int, k: int, step: int) -> Iterator[np.ndarray]:
    """The k-subsets (k >= 1) of range(n) in lexicographic order, in arrays
    of at most ``step`` rows."""
    subsets = chain.from_iterable(combinations(range(n), k))
    while len(ranks := np.fromiter(islice(subsets, step * k), np.min_scalar_type(n))):
        yield ranks.reshape(-1, k)


@functools.lru_cache(maxsize=8)
def _table(n: int, k: int, step: int) -> tuple[np.ndarray, ...]:
    """The arrays of ``_subsets(n, k, step)``, made once and read-only."""
    table = tuple(_subsets(n, k, step))
    for ranks in table:
        ranks.flags.writeable = False
    return table


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
    table = _table(top, k, _STEP_ROWS) if n <= block else None
    for i in range(0, len(parents), step):
        # Per row, its open tiles first, in tile order. Flat int32 indices:
        # a 2-D fancy index is several times slower.
        tiles = np.argsort(~is_open[i:i + step], axis=1, kind="stable").astype(np.int32)
        for ranks in _subsets(top, k, _STEP_ROWS) if table is None else table:
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
    on_free, on_pool, empty = _tiles(base, free, pool)
    yield from _blocks((rows for with_caches in _place(empty, on_free, counts[1], ord("$"), block)
                        for rows in _extend(with_caches, on_free, on_pool, counts, block)),
                       block)


def _tiles(base: str, free: list[int],
           pool: list[int] | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Masks of the free tiles and of those that may host a controller, and
    ``base`` as a one-row array."""
    tiles = np.arange(len(base))
    on_free, on_pool = np.isin(tiles, free), np.isin(tiles, free if pool is None else pool)
    return on_free, on_pool, np.frombuffer(base.encode("ascii"), dtype=np.uint8)[None]


def _extend(with_caches: np.ndarray, on_free: np.ndarray, on_pool: np.ndarray,
            counts: tuple[int, int, int], block: int) -> Iterator[np.ndarray]:
    """The rows of ``with_caches`` with cores and then controllers placed in
    every way, in order."""
    n_cores, _, n_mcs = counts
    for with_cores in _place(with_caches, on_free, n_cores, ord("C"), block):
        yield from _place(with_cores, on_pool, n_mcs, ord("M"), block)


def _blocks(chunks: Iterator[np.ndarray], block: int) -> Iterator[np.ndarray]:
    """The rows of ``chunks`` in order, in arrays of ``block`` rows (the
    last one shorter)."""
    pending, size = [], 0
    for rows in chunks:
        pending.append(rows)
        size += len(rows)
        while size >= block:
            rows = np.concatenate(pending)
            yield rows[:block]
            pending, size = [rows[block:]], size - block
    if size:
        yield np.concatenate(pending)


# Each tile's code in an orbit key; the codes order as the bytes of
# ``$ . C M`` do. A float64 key word holds _DIGITS base-4 digits exactly
# (4**26 = 2**52), so a row's key takes one word per 26 tiles.
_CODE = np.zeros(256)
_CODE[[ord("."), ord("C"), ord("M")]] = 1, 2, 3
_DIGITS = 26


def _key_weights(perms: list[tuple[int, ...]]) -> list[np.ndarray]:
    """Per key word, a (tiles, maps) matrix W: ``codes @ W`` is that word of
    the key of each map's image, ``row[perm]``, in which tile i is digit
    j = perm.index(i); the first tiles are the most significant digits."""
    at = np.argsort(np.array(perms), axis=1).T
    return [np.where(at // _DIGITS == w, 4.0 ** (_DIGITS - 1 - at % _DIGITS), 0.0)
            for w in range(-(-len(at) // _DIGITS))]


def _smallest(keys: list[np.ndarray]) -> np.ndarray:
    """Mask of the columns that hold the lexicographically smallest key of
    each row, given the key words, most significant first."""
    least = keys[0] == keys[0].min(axis=1, keepdims=True)
    for word in keys[1:]:
        word = np.where(least, word, np.inf)
        least &= word == word.min(axis=1, keepdims=True)
    return least


def representative_blocks(base: str, free: list[int], counts: tuple[int, int, int],
                          pool: list[int] | None, perms: list[tuple[int, ...]],
                          block: int) -> Iterator[np.ndarray]:
    """The lexicographically smallest image under ``perms`` (a group of
    tile maps, identity first, that maps the free tiles and the controller
    pool onto themselves) of every placement ``raw_blocks`` would yield,
    each once, in arrays of ``block`` rows (the last one shorter) and in no
    particular order."""
    on_free, on_pool, empty = _tiles(base, free, pool)
    n_cores, n_caches, n_mcs = counts
    weights = _key_weights(perms)
    maps = np.array(perms, dtype=np.int32)

    def keys(rows: np.ndarray) -> list[np.ndarray]:
        codes = _CODE.take(rows)
        return [codes @ w for w in weights]

    def representatives(with_caches: np.ndarray,
                        fixing: tuple[int, ...]) -> Iterator[np.ndarray]:
        # ``fixing``: the maps that fix every cache set of ``with_caches``;
        # a row is kept when no such map makes it smaller.
        for rows in _extend(with_caches, on_free, on_pool, counts, block):
            key = keys(rows)
            if len(fixing) > 1:
                keep = _smallest([word[:, list(fixing)] for word in key])[:, 0]
                rows, key = rows[keep], [word[keep] for word in key]
            # Flat int32 indices, as in _place.
            at = maps[_smallest(key).argmax(axis=1)]
            at += np.arange(0, rows.size, rows.shape[1], dtype=np.int32)[:, None]
            yield rows.take(at)

    # Canonical cache sets wait, grouped by the maps that fix them, until a
    # group holds about a block of candidates.
    per_set = math.comb(len(free) - n_caches, n_cores) * math.comb(
        len(free) - n_caches - n_cores, n_mcs)
    batch = max(1, block // max(1, per_set))
    groups: dict[tuple[int, ...], list[np.ndarray]] = {}

    def chunks() -> Iterator[np.ndarray]:
        for with_caches in _place(empty, on_free, n_caches, ord("$"), block):
            # A cache set is canonical when the identity gives its smallest
            # key; then the maps that give that key are those that fix it.
            least = _smallest(keys(with_caches))
            sets, least = with_caches[least[:, 0]], least[least[:, 0]]
            # Those maps as bits. (np.unique would import numpy.ma: 1.6 MB.)
            bits = least @ (1 << np.arange(len(perms)))
            for mask in dict.fromkeys(bits.tolist()):
                fixing = tuple(i for i in range(len(perms)) if mask >> i & 1)
                group = groups.setdefault(fixing, [])
                group.append(sets[bits == mask])
                if sum(map(len, group)) >= batch:
                    yield from representatives(np.concatenate(groups.pop(fixing)), fixing)
        for fixing, group in groups.items():
            yield from representatives(np.concatenate(group), fixing)

    yield from _blocks(chunks(), block)
