import math
import random
import tracemalloc
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from itertools import combinations

import numpy as np
import pytest

from nocplace import (
    BudgetExceededError,
    CanonicalFamily,
    Coord,
    InfeasibleError,
    InvalidConfigError,
    MeshGrid,
    Mode,
    NodeKind,
    NonConvergentError,
    TrafficSpec,
    UnstableError,
    canonical_placement,
    exhaustive_search,
    local_search,
    objective,
    two_phase_optimize,
)
from nocplace import candidates, optimizer, queueing, scoring
from nocplace.candidates import raw_blocks, representative_blocks
from nocplace.mesh import placement_from_string, placement_string
from nocplace.optimizer import (
    SearchSpace,
    _Ties,
    _prefilter,
    _raw_count,
    _symmetries,
    _tile_ids,
)


def naive_enumerate(space, spec):
    """Oracle: enumerate every placement without pruning, score via the
    public objective, return (min value, argmin strings)."""
    grid = space.grid
    tiles = list(range(grid.n_tiles))
    best = math.inf
    argmin = set()
    for caches in combinations(tiles, space.n_caches):
        rest1 = [i for i in tiles if i not in caches]
        for cores in combinations(rest1, space.n_cores):
            rest2 = [i for i in rest1 if i not in cores]
            for mcs in combinations(rest2, space.n_mcs):
                chars = ["."] * grid.n_tiles
                for i in caches:
                    chars[i] = "$"
                for i in cores:
                    chars[i] = "C"
                for i in mcs:
                    chars[i] = "M"
                s = "".join(chars)
                v = objective(placement_from_string(grid, s), spec, space.mode).objective_value
                tol = 1e-9 * max(1.0, abs(best)) if math.isfinite(best) else 0.0
                if not math.isfinite(best) or v < best - tol:
                    best = v
                    argmin = {s}
                elif v <= best + tol:
                    argmin.add(s)
    return best, argmin


def is_canonical(s, perms):
    """Oracle: the string walk the search filtered candidates with before it
    filtered arrays. Canonical = lexicographically smallest string in its
    symmetry orbit."""
    for perm in perms:
        for pos, i in enumerate(perm):
            c = s[i]
            if c < s[pos]:
                return False
            if c > s[pos]:
                break
    return True


def _canonical(rows, perms):
    """Oracle: the array filter the search kept candidates with before it
    generated orbit representatives. Mask of the rows that are the
    lexicographically smallest string of their orbit under ``perms``. The
    bytes of ``$ . C M`` sort as the characters do, so for each map the first
    tile where a row and its image differ decides."""
    wide = rows.astype(np.int16)
    keep = np.ones(len(rows), dtype=bool)
    at = np.arange(len(rows))
    for perm in perms[1:]:  # perms[0] is the identity
        d = wide[:, perm] - wide
        keep &= d[at, (d != 0).argmax(axis=1)] >= 0
    return keep


def _candidate_strings(base, free, counts, pool):
    """Oracle: the string generator the search enumerated candidates with
    before it wrote them into arrays. All assignment strings that place
    ``counts`` (cores, caches, controllers) on the ``free`` tiles of
    ``base``, controllers on ``pool`` tiles only when given. Caches vary
    slowest, controllers fastest."""
    n_cores, n_caches, n_mcs = counts
    base_chars = list(base)
    for cache_idx in combinations(free, n_caches):
        with_caches = base_chars[:]
        for i in cache_idx:
            with_caches[i] = "$"
        rest = [i for i in free if with_caches[i] == "."]
        for core_idx in combinations(rest, n_cores):
            chars = with_caches[:]
            for i in core_idx:
                chars[i] = "C"
            sites = ()
            if n_mcs:
                sites = [i for i in (rest if pool is None else pool) if chars[i] == "."]
            for mc_idx in combinations(sites, n_mcs):
                for i in mc_idx:
                    chars[i] = "M"
                yield "".join(chars)
                for i in mc_idx:
                    chars[i] = "."


def raw_rows(space, block=optimizer.SEARCH_BLOCK):
    """The rows of ``raw_blocks`` for ``space`` and the oracle's rows,
    after checking that every block but the last is full; None for a space
    of more than 20,000 candidates."""
    base, free, counts, pool = _tile_ids(space)
    if _raw_count(free, counts, pool) > 20_000:
        return None
    blocks = list(raw_blocks(base, free, counts, pool, block))
    assert all(len(b) == block for b in blocks[:-1])
    assert all(b.dtype == np.uint8 and b.shape[1:] == (len(base),) for b in blocks)
    got = np.concatenate(blocks) if blocks else np.empty((0, len(base)), np.uint8)
    return got, rows_of(list(_candidate_strings(base, free, counts, pool)), len(base))


def rows_of(strings, n_tiles):
    return np.array([list(s.encode("ascii")) for s in strings],
                    dtype=np.uint8).reshape(len(strings), n_tiles)


def canonical_rows(space, perms=None):
    """Oracle: the rows of ``raw_blocks`` for ``space`` that ``_canonical``
    keeps under ``perms`` (default: the search's symmetries), in order."""
    base, free, counts, pool = _tile_ids(space)
    perms = _symmetries(space, pool) if perms is None else perms
    return np.concatenate([rows[_canonical(rows, perms)] for rows in
                           raw_blocks(base, free, counts, pool, optimizer.SEARCH_BLOCK)]
                          or [np.empty((0, space.grid.n_tiles), np.uint8)])


class TestExhaustive:
    def test_center_cache_is_unique_optimum_3x3(self):
        space = SearchSpace(MeshGrid(3, 3), n_cores=8, n_caches=1)
        result = exhaustive_search(space, TrafficSpec())
        assert len(result.best) == 1
        assert result.best[0].caches == [Coord(1, 1)]
        assert result.pruned > 0

    def test_2x2_single_pair_ties(self):
        # 12 raw placements; the 8 with core and cache adjacent all tie.
        space = SearchSpace(MeshGrid(2, 2), n_cores=1, n_caches=1)
        result = exhaustive_search(space, TrafficSpec())
        assert len(result.best) == 8
        for p in result.best:
            [core], [cache] = p.cores, p.caches
            assert abs(core.x - cache.x) + abs(core.y - cache.y) == 1

    def test_budget_exceeded_8x8(self):
        space = SearchSpace(MeshGrid(8, 8), n_cores=48, n_caches=16)
        with pytest.raises(BudgetExceededError) as exc:
            exhaustive_search(space, TrafficSpec())
        assert exc.value.count > 10_000_000

    @pytest.mark.parametrize("bad", [8.5, 2.0, True, "2", None])
    def test_non_integer_counts_and_budgets_are_typed_errors(self, bad):
        # They used to escape as TypeError from a slice or a comparison.
        space = SearchSpace(MeshGrid(3, 3), 4, 1)
        for search in (exhaustive_search, two_phase_optimize,
                       lambda space, spec, budget: local_search(space, spec, 1, budget)):
            with pytest.raises(InfeasibleError, match="node count must be an integer"):
                search(SearchSpace(MeshGrid(3, 3), bad, 1), TrafficSpec(), budget=100)
            with pytest.raises(InvalidConfigError, match="budget must be an integer"):
                search(space, TrafficSpec(), budget=bad)

    def test_mode_value_runs_that_mode(self):
        # "high" used to score HIGH under LOW's symmetries, unprefiltered.
        spec = TrafficSpec(lambda_g=0.3)
        by_value = exhaustive_search(SearchSpace(MeshGrid(3, 3), 4, 2, mode="high"), spec)
        by_member = exhaustive_search(SearchSpace(MeshGrid(3, 3), 4, 2, mode=Mode.HIGH), spec)
        assert by_value.to_json_dict() == by_member.to_json_dict()
        assert (len(by_value.best), by_value.evaluated) == (16, 100)
        # Set after construction, it used to score HIGH under LOW's
        # symmetries, unprefiltered: 12 ties and 174 scored.
        space = SearchSpace(MeshGrid(3, 3), 4, 2)
        space.mode = "high"
        assert space.mode is Mode.HIGH
        assert exhaustive_search(space, spec).to_json_dict() == by_member.to_json_dict()
        with pytest.raises(InvalidConfigError, match="unknown latency mode 'sideways'"):
            SearchSpace(MeshGrid(3, 3), 4, 2, mode="sideways")

    def test_pruning_is_lossless(self):
        for space, spec in [
            (SearchSpace(MeshGrid(3, 3), n_cores=2, n_caches=2), TrafficSpec()),
            # A controller pool that not every symmetry maps onto itself.
            (SearchSpace(MeshGrid(3, 3), 2, 1, 1, mc_tiles=frozenset({Coord(2, 0)})),
             TrafficSpec(miss_l2=0.5)),
        ]:
            pruned = exhaustive_search(space, spec, prune_symmetry=True)
            unpruned = exhaustive_search(space, spec, prune_symmetry=False)
            assert pruned.objective_value == pytest.approx(unpruned.objective_value)
            assert {placement_string(p) for p in pruned.best} == \
                {placement_string(p) for p in unpruned.best}
            assert pruned.pruned > 0 and unpruned.pruned == 0

    def test_matches_naive_oracle(self):
        space = SearchSpace(MeshGrid(3, 3), n_cores=3, n_caches=1, n_mcs=1)
        spec = TrafficSpec(miss_l2=0.2)
        result = exhaustive_search(space, spec)
        best, argmin = naive_enumerate(space, spec)
        assert result.objective_value == pytest.approx(best)
        assert {placement_string(p) for p in result.best} == argmin

    def test_high_mode_search_small(self):
        space = SearchSpace(MeshGrid(2, 2), n_cores=1, n_caches=1, mode=Mode.HIGH)
        result = exhaustive_search(space, TrafficSpec(lambda_g=0.1))
        assert len(result.best) == 8  # adjacency still decides at light load

    def test_all_tie_space_builds_only_the_winners(self, monkeypatch):
        # Without cores every placement of 8 caches on 4x4 costs 0.0: each
        # of the 1,674 representatives ties. Their values are final, so
        # only the winners are built into placements, plus the first row of
        # each block, which checks the spec.
        built = []
        real = optimizer.placement_from_string

        def spy(grid, s):
            built.append(s)
            return real(grid, s)

        monkeypatch.setattr(optimizer, "placement_from_string", spy)
        monkeypatch.setattr(scoring, "placement_from_string", spy)
        result = exhaustive_search(SearchSpace(MeshGrid(4, 4), 0, 8), TrafficSpec())
        assert (result.objective_value, len(result.best)) == (0.0, math.comb(16, 8))
        assert result.evaluated == 1_674
        blocks = math.ceil(result.evaluated / optimizer.SEARCH_BLOCK)
        assert len(built) <= len(result.best) + blocks

    def test_fixed_tiles_respected(self):
        space = SearchSpace(
            MeshGrid(3, 3), n_cores=1, n_caches=1,
            fixed={Coord(1, 1): NodeKind.CACHE},
        )
        result = exhaustive_search(space, TrafficSpec())
        for p in result.best:
            assert p.kind_at(Coord(1, 1)) is NodeKind.CACHE
            assert p.counts == (1, 1, 0)
        # Pruning is disabled when tiles are pinned.
        assert result.pruned == 0


class TestCanonicalFilter:
    @pytest.mark.parametrize("axis_preserving", [False, True])
    def test_matches_string_oracle(self, axis_preserving):
        rng = random.Random(17)
        for w in range(1, 6):
            for h in range(1, 6):
                g = MeshGrid(w, h)
                perms = g.symmetry_permutations(axis_preserving)
                # Mostly empty tiles, so orbit members often share long
                # prefixes; the constant strings are fixed by every map.
                strings = ["." * g.n_tiles, "C" * g.n_tiles] + [
                    "".join(rng.choice("......C$M") for _ in range(g.n_tiles))
                    for _ in range(300)]
                kept = _canonical(rows_of(strings, g.n_tiles), perms)
                assert [s for s, k in zip(strings, kept) if k] == \
                    [s for s in strings if is_canonical(s, perms)], (w, h)

    def test_pool_preserving_subgroups(self):
        rng = random.Random(3)
        for w, h, counts in ((3, 3, (2, 1, 1)), (4, 4, (2, 1, 2)), (4, 3, (1, 2, 1)),
                             (5, 5, (1, 1, 1)), (1, 5, (1, 1, 1))):
            g = MeshGrid(w, h)
            corners = {Coord(x, y) for x in (0, w - 1) for y in (0, h - 1)}
            pools = [frozenset(g.perimeter()), frozenset(corners)] + [
                frozenset(rng.sample(list(g.tiles()), rng.randint(1, g.n_tiles)))
                for _ in range(3)]
            for pool in pools:
                space = SearchSpace(g, *counts, mc_tiles=pool)
                base, free, left, ids = _tile_ids(space)
                perms = _symmetries(space, ids)
                strings = list(_candidate_strings(base, free, left, ids))
                kept = _canonical(rows_of(strings, g.n_tiles), perms)
                assert [s for s, k in zip(strings, kept) if k] == \
                    [s for s in strings if is_canonical(s, perms)], (w, h, sorted(pool))


class TestRawCount:
    def test_counts_the_candidate_strings(self):
        rng = random.Random(11)
        for _ in range(60):
            g = MeshGrid(rng.randint(1, 4), rng.randint(1, 4))
            n = g.n_tiles
            counts = [rng.randint(0, 2) for _ in range(3)]
            if sum(counts) > n:
                continue
            tiles = list(g.tiles())
            pool = rng.choice([None, frozenset(rng.sample(tiles, rng.randint(0, n)))])
            routers = rng.sample(tiles, rng.randint(0, min(2, n - sum(counts))))
            fixed = {c: NodeKind.ROUTER_ONLY for c in routers}
            space = SearchSpace(g, *counts, fixed=fixed, mc_tiles=pool)
            base, free, left, ids = _tile_ids(space)
            blocks = raw_blocks(base, free, left, ids, optimizer.SEARCH_BLOCK)
            assert _raw_count(free, left, ids) == sum(len(rows) for rows in blocks)


class TestRawBlocks:
    """The array enumerator against the string oracle, row for row."""

    def test_every_small_grid(self):
        rng = random.Random(5)
        compared = 0
        grids = [(w, h) for w in range(1, 5) for h in range(1, 5)] + [(1, 7), (7, 1)]
        for w, h in grids:
            g = MeshGrid(w, h)
            n = g.n_tiles
            triples = {(0, 0, 0), (n, 0, 0), (0, n, 0), (0, 0, n), (1, 1, 1)}
            while len(triples) < 8:
                triples.add(tuple(rng.randint(0, min(n, 4)) for _ in range(3)))
            for counts in sorted(triples):
                if sum(counts) <= n and (rows := raw_rows(SearchSpace(g, *counts))):
                    compared += 1
                    assert np.array_equal(*rows), (w, h, counts)
        assert compared > 100

    def test_pinned_tiles_and_pools(self, monkeypatch):
        rng = random.Random(8)
        kinds = list(NodeKind)
        compared = 0
        for _ in range(250):
            g = MeshGrid(rng.randint(1, 4), rng.randint(1, 4))
            n = g.n_tiles
            tiles = list(g.tiles())
            fixed = {c: rng.choice(kinds) for c in rng.sample(tiles, rng.randint(0, min(3, n)))}
            free = [c for c in tiles if c not in fixed]
            counts = [rng.randint(0, 3) for _ in range(3)]
            if sum(counts) > len(free):
                continue
            # Blocks of 3 rows keep no table of more than 3 rows whole, and
            # steps of 2 rows split most tables into chunks.
            block = rng.choice([3, 4096])
            monkeypatch.setattr(candidates, "_STEP_ROWS", rng.choice([2, 5, 1024]))
            # An empty pool, a pool the cores and caches can fill completely,
            # and random pools that may cover pinned tiles.
            pool = rng.choice([None, frozenset(), frozenset(free[:counts[0] + counts[1]]),
                               frozenset(rng.sample(tiles, rng.randint(0, n)))])
            pinned = {k: sum(1 for v in fixed.values() if v is k) for k in kinds}
            space = SearchSpace(g, counts[0] + pinned[NodeKind.CORE],
                                counts[1] + pinned[NodeKind.CACHE],
                                counts[2] + pinned[NodeKind.MC], fixed=fixed, mc_tiles=pool)
            if rows := raw_rows(space, block):
                compared += 1
                assert np.array_equal(*rows), (g.width, g.height, fixed, counts, pool)
        assert compared > 100

    @pytest.mark.parametrize("block", [1, 4, 8, 13, 60])
    def test_blocks_cross_cache_boundaries(self, block):
        # 21 core pairs per cache pair on 3x3 2/2, 6 controller tiles per
        # core pair with one controller: no block size here divides either
        # table, and blocks of 1, 4 and 8 rows split the tables themselves.
        for counts in ((2, 2, 0), (2, 2, 1)):
            got, want = raw_rows(SearchSpace(MeshGrid(3, 3), *counts), block)
            assert np.array_equal(got, want), (block, counts)

    def test_first_block_memory_is_bounded(self):
        # 3.2e28 raw placements: one table of cache or core choices alone
        # would not fit in memory, let alone the whole space.
        space = SearchSpace(MeshGrid(8, 8), n_cores=24, n_caches=9, n_mcs=2)
        base, free, counts, pool = _tile_ids(space)
        tracemalloc.start()
        try:
            first = next(raw_blocks(base, free, counts, pool, optimizer.SEARCH_BLOCK))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert first.shape == (optimizer.SEARCH_BLOCK, 64)
        assert first[0].tobytes() == b"$" * 9 + b"C" * 24 + b"MM" + b"." * 29
        assert peak < 4 << 20


class TestRepresentativeBlocks:
    """The orbit-representative enumerator against the array oracle: the
    same set of rows, each once, in blocks of the requested size."""

    @staticmethod
    def check(space, perms=None, block=optimizer.SEARCH_BLOCK):
        base, free, counts, pool = _tile_ids(space)
        perms = _symmetries(space, pool) if perms is None else perms
        blocks = list(representative_blocks(base, free, counts, pool, perms, block))
        assert all(len(b) == block for b in blocks[:-1]) and all(len(b) for b in blocks)
        assert all(b.dtype == np.uint8 and b.shape[1:] == (len(base),) for b in blocks)
        got = [r.tobytes() for b in blocks for r in b]
        want = [r.tobytes() for r in canonical_rows(space, perms)]
        assert len(set(got)) == len(got), "duplicate representatives"
        assert set(got) == set(want), (space, len(got), len(want))
        return len(got)

    @pytest.mark.parametrize("axis_preserving", [False, True])
    def test_every_small_grid(self, axis_preserving):
        # Square, non-square and 1xN grids up to 5x5, under the full group
        # (LOW) and the axis-preserving one (HIGH).
        rng = random.Random(21)
        mode = Mode.HIGH if axis_preserving else Mode.LOW
        compared = 0
        for w in range(1, 6):
            for h in range(1, 6):
                n = w * h
                triples = {(0, 0, 0), (n, 0, 0), (0, n, 0), (1, 1, 1), (2, 2, 0)}
                while len(triples) < 7:
                    triples.add(tuple(rng.randint(0, min(n, 4)) for _ in range(3)))
                for counts in sorted(triples):
                    space = SearchSpace(MeshGrid(w, h), *counts, mode=mode)
                    if sum(counts) <= n and _raw_count(*_tile_ids(space)[1:]) <= 40_000:
                        compared += 1
                        self.check(space)
        assert compared > 120

    def test_zero_caches(self):
        # One cache set, the empty one, that every map fixes: the cores and
        # controllers are filtered under the whole group.
        for w, h, counts in ((4, 4, (3, 0, 0)), (4, 4, (2, 0, 2)), (5, 3, (0, 0, 3)),
                             (1, 6, (2, 0, 1))):
            for mode in Mode:
                self.check(SearchSpace(MeshGrid(w, h), *counts, mode=mode))

    def test_pool_preserving_subgroups(self):
        rng = random.Random(4)
        for w, h, counts in ((3, 3, (2, 1, 1)), (4, 4, (2, 1, 2)), (4, 3, (1, 2, 1)),
                             (5, 5, (1, 1, 2)), (1, 5, (1, 1, 1)), (4, 4, (0, 2, 2))):
            g = MeshGrid(w, h)
            corners = {Coord(x, y) for x in (0, w - 1) for y in (0, h - 1)}
            pools = [frozenset(g.perimeter()), frozenset(corners), frozenset()] + [
                frozenset(rng.sample(list(g.tiles()), rng.randint(1, g.n_tiles)))
                for _ in range(3)]
            for pool in pools:
                for mode in Mode:
                    self.check(SearchSpace(g, *counts, mode=mode, mc_tiles=pool))

    def test_more_than_26_tiles(self):
        # Keys of two and three float64 words.
        for w, h, counts in ((6, 6, (2, 1, 0)), (9, 3, (1, 1, 1)), (7, 4, (0, 2, 1)),
                             (8, 8, (1, 2, 0))):
            for mode in Mode:
                self.check(SearchSpace(MeshGrid(w, h), *counts, mode=mode))

    @pytest.mark.parametrize("block", [1, 3, 100])
    def test_small_blocks_and_steps(self, block, monkeypatch):
        # Steps of 2 rows split every table into chunks, and cache sets
        # reach the cores in groups of one or a few.
        monkeypatch.setattr(candidates, "_STEP_ROWS", 2)
        for w, h, counts in ((3, 3, (2, 2, 1)), (4, 3, (1, 3, 0)), (4, 4, (0, 4, 0))):
            self.check(SearchSpace(MeshGrid(w, h), *counts), block=block)

    def test_unpruned_group(self):
        # The identity alone: every placement is its own representative.
        space = SearchSpace(MeshGrid(3, 3), 2, 2, 1)
        assert self.check(space, perms=[tuple(range(9))]) == _raw_count(*_tile_ids(space)[1:])

    def test_first_block_memory_is_bounded(self):
        # 3.2e28 raw placements, of which the first cache set alone has
        # 1.2e18: nothing may be built whole before the first block.
        space = SearchSpace(MeshGrid(8, 8), n_cores=24, n_caches=9, n_mcs=2)
        base, free, counts, pool = _tile_ids(space)
        perms = _symmetries(space, pool)
        tracemalloc.start()
        try:
            first = next(representative_blocks(base, free, counts, pool, perms,
                                               optimizer.SEARCH_BLOCK))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert first.shape == (optimizer.SEARCH_BLOCK, 64)
        strings = [r.tobytes().decode("ascii") for r in first]
        assert all(is_canonical(s, perms) for s in strings)
        assert all(Counter(s) == Counter({"$": 9, "C": 24, "M": 2, ".": 29}) for s in strings)
        assert len(set(strings)) == len(strings)
        assert peak < 4 << 20


class TestBlocks:
    def test_pruned_blocks_and_dropped_near_ties(self, monkeypatch):
        space = SearchSpace(MeshGrid(3, 3), n_cores=2, n_caches=2)
        spec = TrafficSpec(miss_l2=0.3)
        whole = exhaustive_search(space, spec)
        sizes = []
        blocks = candidates.representative_blocks

        def record_blocks(*args):
            for rows in blocks(*args):
                sizes.append(len(rows))
                yield rows

        monkeypatch.setattr(optimizer, "SEARCH_BLOCK", 3)
        monkeypatch.setattr(candidates, "representative_blocks", record_blocks)
        blocked = exhaustive_search(space, spec)
        assert blocked.to_json_dict() == whole.to_json_dict()
        # 108 representatives of 756 placements, three to a block.
        assert sizes == [3] * 36
        assert (blocked.evaluated, blocked.pruned) == (108, 756 - 108)


class TestPrefilter:
    @pytest.mark.parametrize("hops", [7, 4096])
    def test_keeps_exact_top_by_low_value_and_string(self, hops, monkeypatch):
        # The batched LOW values come in chunks of one row at 7 hops, of
        # hundreds of rows at 4,096.
        monkeypatch.setattr(scoring, "_LOW_HOPS", hops)
        spec = TrafficSpec(lambda_g=0.08, miss_l2=0.2)
        cut_ties = 0
        # Phase 1 of criterion 6's HIGH two-phase searches, and spaces whose
        # many equal LOW values straddle the cut. With three caches, equal
        # values differ in the last bit between the batched and the exact
        # sums, so only the exact values order the candidates at the cut.
        for w, h, nr, nh in ((3, 3, 3, 1), (3, 3, 2, 2), (4, 3, 3, 1), (4, 4, 2, 1),
                             (4, 4, 1, 1), (4, 3, 2, 3), (3, 3, 3, 3)):
            space = SearchSpace(MeshGrid(w, h), nr, nh, mode=Mode.HIGH)
            rows = canonical_rows(space)
            strings = [r.tobytes().decode("ascii") for r in rows]
            keep = max(100, math.ceil(0.05 * len(strings)))
            low = {s: objective(placement_from_string(space.grid, s), spec).objective_value
                   for s in strings}
            order = sorted(strings, key=lambda s: (low[s], s))
            kept = [r.tobytes().decode("ascii") for r in
                    _prefilter(space.grid, rows, spec)]
            assert sorted(kept) == sorted(order[:keep]), (w, h, nr, nh)
            if len(order) > keep and low[order[keep - 1]] == low[order[keep]]:
                cut_ties += 1
        assert cut_ties >= 2


class TestTwoPhase:
    def test_no_mcs_equals_exhaustive(self):
        space = SearchSpace(MeshGrid(3, 3), n_cores=4, n_caches=1)
        spec = TrafficSpec()
        joint = exhaustive_search(space, spec)
        decomposed = two_phase_optimize(space, spec)
        assert decomposed.objective_value == pytest.approx(joint.objective_value)
        assert {placement_string(p) for p in decomposed.best} == \
            {placement_string(p) for p in joint.best}

    def test_matches_joint_on_3x3(self):
        space = SearchSpace(MeshGrid(3, 3), n_cores=3, n_caches=1, n_mcs=1)
        spec = TrafficSpec(miss_l2=0.1)
        joint = exhaustive_search(space, spec)
        decomposed = two_phase_optimize(space, spec)
        assert decomposed.objective_value == pytest.approx(joint.objective_value)

    def test_matches_joint_on_4x4_separable_instance(self):
        space = SearchSpace(MeshGrid(4, 4), n_cores=4, n_caches=1, n_mcs=1)
        spec = TrafficSpec(miss_l2=0.1)
        joint = exhaustive_search(space, spec)
        decomposed = two_phase_optimize(space, spec)
        assert decomposed.objective_value == pytest.approx(joint.objective_value)
        assert decomposed.extras["phase1_objective"] <= joint.objective_value

    def test_perimeter_restricted_mc_ties(self):
        # Cache pinned at the center of a 5x5, one core next to it; the four
        # perimeter tiles nearest the cache tie for the controller.
        g = MeshGrid(5, 5)
        space = SearchSpace(
            g, n_cores=1, n_caches=1, n_mcs=1,
            fixed={Coord(2, 2): NodeKind.CACHE, Coord(2, 1): NodeKind.CORE},
            mc_tiles=frozenset(g.perimeter()),
        )
        result = two_phase_optimize(space, TrafficSpec(miss_l2=0.5))
        mc_sites = {p.mcs[0] for p in result.best}
        assert mc_sites == {Coord(2, 0), Coord(0, 2), Coord(4, 2), Coord(2, 4)}

    @pytest.mark.parametrize("counts,tile,value", [((1, 1, 1), (0, 0), 2.1),
                                                   ((2, 1, 1), (0, 1), 4.2)])
    def test_winners_covering_the_pool_are_skipped(self, counts, tile, value):
        # Some phase-1 winners sit on the only controller tile; phase 2 runs
        # on the others, and finds the joint optimum.
        space = SearchSpace(MeshGrid(3, 3), *counts, mc_tiles=frozenset({Coord(*tile)}))
        spec = TrafficSpec(miss_l2=0.1)
        joint = exhaustive_search(space, spec)
        decomposed = two_phase_optimize(space, spec)
        assert decomposed.objective_value == pytest.approx(value)
        assert decomposed.objective_value == pytest.approx(joint.objective_value)
        assert {placement_string(p) for p in decomposed.best} == \
            {placement_string(p) for p in joint.best}

    def test_no_winner_leaves_the_pool_free(self):
        # The one phase-1 winner, a cache ringed by four cores, covers (0, 1).
        space = SearchSpace(MeshGrid(3, 3), 4, 1, 1, mc_tiles=frozenset({Coord(0, 1)}))
        with pytest.raises(InfeasibleError, match="no phase-1 winner.*mc_tiles"):
            two_phase_optimize(space, TrafficSpec(miss_l2=0.1))
        assert exhaustive_search(space, TrafficSpec(miss_l2=0.1)).best

    def test_pinned_router_tiles_stay_routers(self):
        space = SearchSpace(
            MeshGrid(3, 3), 2, 1, 1,
            fixed={Coord(1, 1): NodeKind.CACHE, Coord(1, 0): NodeKind.ROUTER_ONLY},
        )
        spec = TrafficSpec(miss_l2=0.5)
        result = two_phase_optimize(space, spec)
        assert all(p.kind_at(Coord(1, 0)) is NodeKind.ROUTER_ONLY for p in result.best)
        joint = exhaustive_search(space, spec)
        assert result.objective_value == joint.objective_value
        assert result.best == joint.best

    def test_never_beats_joint(self):
        rng = random.Random(7)
        for _ in range(5):
            w, h = rng.choice([(3, 3), (4, 3), (4, 4)])
            space = SearchSpace(MeshGrid(w, h), n_cores=rng.randint(1, 3),
                                n_caches=1, n_mcs=1)
            spec = TrafficSpec(miss_l2=rng.choice([0.1, 0.3]))
            joint = exhaustive_search(space, spec)
            decomposed = two_phase_optimize(space, spec)
            assert decomposed.objective_value >= joint.objective_value - 1e-9

    def test_phase_two_searches_every_winner_at_once(self):
        # Twelve of the sixteen phase-1 winners leave room on column x = 0,
        # and four of those a controller site that does not saturate.
        # Searched one winner at a time, the first winner whose sites all
        # saturate aborted the whole search with UnstableError.
        grid = MeshGrid(3, 3)
        spec = TrafficSpec(lambda_g=0.5, miss_l2=0.5)
        pool = frozenset(Coord(0, y) for y in range(3))
        result = two_phase_optimize(SearchSpace(grid, 4, 2, 1, mode=Mode.HIGH, mc_tiles=pool),
                                    spec)
        # Oracle from the public API: every phase-1 winner with one
        # controller on each pool tile it leaves free.
        winners = exhaustive_search(SearchSpace(grid, 4, 2, 0, mode=Mode.HIGH), spec).best
        values = {}
        for s in map(placement_string, winners):
            for i in (grid.index(c) for c in pool if s[grid.index(c)] == "."):
                t = s[:i] + "M" + s[i + 1:]
                try:
                    values[t] = objective(placement_from_string(grid, t), spec,
                                          Mode.HIGH).objective_value
                except UnstableError:
                    pass
        low = min(values.values())
        ties = sorted(t for t, v in values.items()
                      if v <= low + optimizer.OBJECTIVE_TIE_REL_TOL * max(1.0, low))
        assert (len(winners), len(values)) == (16, 4)
        assert result.objective_value == low == 22.65921469543847
        assert [placement_string(p) for p in result.best] == ties == \
            ["..CMC$C$C", ".C.MC$C$C", "C$CMC$..C", "C$CMC$.C."]
        assert (result.evaluated, result.extras["unstable"]) == (120, 32)


class TestTies:
    """The tie accumulator every search keeps its argmin ties in."""

    @staticmethod
    def meet_all(blocks):
        ties = _Ties()
        for strings, values in blocks:
            rows = np.frombuffer("".join(strings).encode("ascii"), np.uint8).reshape(
                len(strings), -1)
            ties.meet(rows, np.array(values))
        return ties.floor, sorted(ties.kept)

    def test_a_later_value_within_tolerance_below_becomes_the_floor(self):
        # The pairwise rule kept 10.0 here: a value within 10.0's tolerance
        # joined its ties without lowering the reported value.
        assert self.meet_all([(["C$."], [10.0]), ([".$C"], [10.0 * (1 - 5e-10)])]) == \
            (10.0 * (1 - 5e-10), [".$C", "C$."])

    def test_a_lower_floor_drops_what_its_tolerance_leaves_behind(self):
        blocks = [(["C$."], [10.0]), (["$C.", "..$"], [10.0 + 5e-9, 12.0]),
                  ([".$C"], [10.0 - 6e-9])]
        # 10 + 5e-9 is within 10's tolerance, not within 10 - 6e-9's.
        expected = (10.0 - 6e-9, [".$C", "C$."])
        assert self.meet_all(blocks) == expected
        # What is kept does not depend on the order the blocks are met in.
        for order in ([2, 1, 0], [1, 2, 0], [0, 2, 1]):
            assert self.meet_all([blocks[i] for i in order]) == expected
        assert self.meet_all([(["C$.", "$C."], [math.inf, math.inf])]) == \
            (math.inf, ["$C.", "C$."])


class TestLocalSearch:
    def test_budget_zero_returns_start(self):
        space = SearchSpace(MeshGrid(3, 3), n_cores=8, n_caches=1)
        result = local_search(space, TrafficSpec(), seed=1, budget=0)
        start = canonical_placement(CanonicalFamily.CENTRAL, MeshGrid(3, 3), 8, 1, 0)
        assert result.best == [start]
        assert result.objective_value == pytest.approx(
            objective(start, TrafficSpec(), Mode.LOW).objective_value)

    def test_finds_center_optimum_3x3(self):
        space = SearchSpace(MeshGrid(3, 3), n_cores=8, n_caches=1)
        result = local_search(space, TrafficSpec(), seed=3, budget=500)
        exact = exhaustive_search(space, TrafficSpec())
        assert result.objective_value == pytest.approx(exact.objective_value)

    def test_stays_at_optimum(self):
        space = SearchSpace(MeshGrid(3, 3), n_cores=8, n_caches=1)
        exact = exhaustive_search(space, TrafficSpec())
        # Center start (canonical central) is already the optimum here.
        result = local_search(space, TrafficSpec(), seed=9, budget=40)
        assert result.objective_value == pytest.approx(exact.objective_value)

    def test_deterministic_for_seed(self):
        space = SearchSpace(MeshGrid(4, 4), n_cores=6, n_caches=4)
        a = local_search(space, TrafficSpec(), seed=42, budget=300)
        b = local_search(space, TrafficSpec(), seed=42, budget=300)
        assert a.objective_value == b.objective_value
        assert [placement_string(p) for p in a.best] == \
            [placement_string(p) for p in b.best]

    def test_never_beats_exhaustive(self):
        space = SearchSpace(MeshGrid(3, 3), n_cores=4, n_caches=2)
        exact = exhaustive_search(space, TrafficSpec())
        heur = local_search(space, TrafficSpec(), seed=11, budget=400)
        assert heur.objective_value >= exact.objective_value - 1e-9


    def test_rejects_mc_tiles(self):
        space = SearchSpace(MeshGrid(4, 4), 6, 4, 1, mc_tiles=frozenset({Coord(0, 0)}))
        with pytest.raises(InfeasibleError, match="mc_tiles"):
            local_search(space, TrafficSpec(), seed=1, budget=50)


def meet(best, ties, value, string):
    """The tie rule of the searches: a value replaces the best when the best
    lies beyond its tie tolerance, and ties when within the best's."""
    def cutoff(v):
        return v + optimizer.OBJECTIVE_TIE_REL_TOL * max(1.0, abs(v))
    if best > cutoff(value):
        return value, {string}
    if value <= cutoff(best):
        return best, ties | {string}
    return best, ties


def sequential_local_search(space, spec, seed, budget):
    """``local_search`` scoring one neighbour at a time, as it did before
    its passes were batched: the oracle for its moves, restarts, counts and
    ties."""
    grid = space.grid
    current = list(placement_string(local_search(space, spec, seed, budget=0).best[0]))
    free = [i for i, c in enumerate(grid.coords) if c not in space.fixed]
    rng = random.Random(seed)
    failures = Counter()

    def value_of(chars):
        placement = placement_from_string(grid, "".join(chars))
        try:
            return objective(placement, spec, space.mode).objective_value
        except UnstableError:
            failures["unstable"] += 1
        except NonConvergentError:
            failures["non_convergent"] += 1
        return math.inf

    best_value = current_value = value_of(current)
    best_strings = {"".join(current)}
    evaluated, remaining = 0, budget
    while True:
        best_move, best_move_value = None, current_value
        for a, b in combinations(free, 2):
            if current[a] == current[b]:
                continue
            if remaining <= 0:
                break
            current[a], current[b] = current[b], current[a]
            v = value_of(current)
            current[a], current[b] = current[b], current[a]
            evaluated += 1
            remaining -= 1
            if v < best_move_value:
                best_move, best_move_value = (a, b), v
        if best_move is not None:
            a, b = best_move
            current[a], current[b] = current[b], current[a]
            current_value = best_move_value
            best_value, best_strings = meet(best_value, best_strings, current_value,
                                            "".join(current))
            if remaining > 0:
                continue
        if remaining <= 0:
            break
        kinds = [current[i] for i in free]
        rng.shuffle(kinds)
        for i, ch in zip(free, kinds):
            current[i] = ch
        current_value = value_of(current)
        evaluated += 1
        remaining -= 1
        best_value, best_strings = meet(best_value, best_strings, current_value,
                                        "".join(current))
    return best_value, sorted(best_strings), evaluated, failures


class TestBatchedPasses:
    """Each steepest-descent pass is scored as one batch; the search moves,
    restarts and counts as it did one neighbour at a time."""

    @pytest.mark.parametrize("w,h,counts,mode,lam,seeds,budget", [
        (4, 4, (6, 4, 0), Mode.LOW, 0.1, (1, 2, 3), 300),
        (3, 3, (4, 2, 1), Mode.LOW, 0.1, (4, 5), 200),
        (5, 4, (8, 3, 2), Mode.LOW, 0.1, (6,), 900),
        (3, 3, (5, 2, 0), Mode.HIGH, 0.35, (7, 8), 80),
        (4, 3, (4, 2, 1), Mode.HIGH, 0.3, (9,), 100),
    ])
    def test_matches_one_neighbour_at_a_time(self, w, h, counts, mode, lam, seeds, budget):
        space = SearchSpace(MeshGrid(w, h), *counts, mode=mode)
        spec = TrafficSpec(lambda_g=lam, miss_l2=0.3)
        for seed in seeds:
            result = local_search(space, spec, seed, budget=budget)
            value, best, evaluated, failures = sequential_local_search(space, spec, seed, budget)
            assert result.objective_value == value
            assert [placement_string(p) for p in result.best] == best
            assert result.evaluated == evaluated
            assert {k: result.extras[k] for k in optimizer.FAILURE_KINDS} == \
                {k: failures[k] for k in optimizer.FAILURE_KINDS}


class TestParallelEvaluation:
    def test_jobs_do_not_change_the_result(self):
        space = SearchSpace(MeshGrid(3, 3), n_cores=4, n_caches=2)
        spec = TrafficSpec()
        seq = exhaustive_search(space, spec, jobs=1)
        par = exhaustive_search(space, spec, jobs=2)
        assert par.objective_value == seq.objective_value
        assert [placement_string(p) for p in par.best] == \
            [placement_string(p) for p in seq.best]

    def test_high_jobs_do_not_change_the_result(self):
        # Workers score HIGH candidates; their failure counts are merged.
        space = SearchSpace(MeshGrid(3, 3), 5, 2, 0, mode=Mode.HIGH)
        spec = TrafficSpec(lambda_g=0.35)
        seq = exhaustive_search(space, spec, prefilter=False, jobs=1)
        par = exhaustive_search(space, spec, prefilter=False, jobs=2)
        assert par.to_json_dict() == seq.to_json_dict()
        assert seq.extras["unstable"] > 0

    def test_two_phase_high_jobs_do_not_change_the_result(self, monkeypatch):
        # Phase 1 scores the prefilter's 100 HIGH candidates, enough for the
        # workers to start; phase 2 scores 4 per winner in this process.
        pools = []

        class Counted(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs)
                super().__init__(*args, **kwargs)

        space = SearchSpace(MeshGrid(3, 3), 4, 1, 1, mode=Mode.HIGH)
        spec = TrafficSpec(lambda_g=0.3, miss_l2=0.3)
        seq = two_phase_optimize(space, spec, jobs=1)
        monkeypatch.setattr(optimizer, "ProcessPoolExecutor", Counted)
        par = two_phase_optimize(space, spec, jobs=2)
        assert pools == [{"max_workers": 2}]
        assert par.to_json_dict() == seq.to_json_dict()
        assert seq.extras["unstable"] > 0


class TestSearchResult:
    def test_ties_share_objective(self):
        space = SearchSpace(MeshGrid(2, 2), n_cores=1, n_caches=1)
        spec = TrafficSpec()
        result = exhaustive_search(space, spec)
        for p in result.best:
            v = objective(p, spec, Mode.LOW).objective_value
            assert v == pytest.approx(result.objective_value, rel=1e-9)

    def test_json_dict(self):
        space = SearchSpace(MeshGrid(2, 2), n_cores=1, n_caches=1)
        d = exhaustive_search(space, TrafficSpec()).to_json_dict()
        assert d["method"] == "exhaustive"
        assert len(d["best"]) == 8


class TestFailedCandidates:
    """A candidate the HIGH model cannot score costs +inf and is counted;
    it never aborts the search."""

    def test_unstable_candidates_are_counted(self):
        space = SearchSpace(MeshGrid(3, 3), 5, 2, 0, mode=Mode.HIGH)
        result = exhaustive_search(space, TrafficSpec(lambda_g=0.35), prefilter=False)
        assert math.isfinite(result.objective_value)
        assert 0 < result.extras["unstable"] < result.evaluated
        assert result.extras["non_convergent"] == 0
        assert result.to_json_dict()["unstable"] == result.extras["unstable"]

    def test_non_convergent_candidates_score_inf(self, monkeypatch):
        space = SearchSpace(MeshGrid(3, 3), 5, 2, 0, mode=Mode.HIGH)
        spec = TrafficSpec(lambda_g=0.2)
        exact = exhaustive_search(space, spec, prefilter=False)
        assert exact.extras == {"unstable": 0, "non_convergent": 0}
        # Loaded routers need 17-22 iterations at this rate: a cap of 18
        # leaves a few candidates that still converge.
        monkeypatch.setattr(queueing, "FIXED_POINT_MAX_ITER", 18)
        capped = exhaustive_search(space, spec, prefilter=False)
        assert 0 < capped.extras["non_convergent"] < capped.evaluated
        assert math.isfinite(capped.objective_value)
        assert capped.objective_value >= exact.objective_value

    def test_local_search_leaves_an_unstable_start(self):
        # The pinned core's row-major start saturates; the first move finds
        # a stable placement, which becomes the best.
        space = SearchSpace(MeshGrid(3, 3), 6, 1, 0, mode=Mode.HIGH,
                            fixed={Coord(2, 2): NodeKind.CORE})
        spec = TrafficSpec(lambda_g=0.25, miss_l2=0.3)
        assert local_search(space, spec, seed=1, budget=0).objective_value == math.inf
        result = local_search(space, spec, seed=1, budget=40)
        assert math.isfinite(result.objective_value) and result.extras["unstable"] > 0
        assert [objective(p, spec, Mode.HIGH).objective_value for p in result.best] == \
            [result.objective_value]

    def test_local_search_survives_when_nothing_converges(self, monkeypatch):
        monkeypatch.setattr(queueing, "FIXED_POINT_MAX_ITER", 1)
        space = SearchSpace(MeshGrid(4, 4), 12, 4, 0, mode=Mode.HIGH)
        result = local_search(space, TrafficSpec(lambda_g=0.2), seed=5, budget=20)
        assert result.objective_value == math.inf
        # The start placement is scored on top of the budgeted evaluations.
        assert result.extras["non_convergent"] == result.evaluated + 1
        assert result.extras["unstable"] == 0
