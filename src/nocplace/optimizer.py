"""Placement search: exhaustive enumeration with symmetry pruning, the
two-phase cores+caches / memory-controller decomposition, and a swap-based
local search for instances beyond exhaustive reach.

All methods return every argmin tie rather than picking one arbitrarily;
equivalent constellations are part of the answer, not noise.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import combinations
from typing import Mapping

import numpy as np

from .errors import BudgetExceededError, InfeasibleError, UnstableError
from .latency import Mode
from .mesh import (_CHAR_OF_KIND, CanonicalFamily, Coord, MeshGrid, NodeKind, Placement,
                   canonical_placement, placement_count, placement_from_string,
                   placement_string)
from .queueing import EFFECTIVE_UNSTABLE, NON_CONVERGENT, PAPER, UNSTABLE
from .traffic import TrafficSpec

# The batch scorers of .scoring and the enumerators of .candidates are
# imported where they are called, so that importing the package does not
# compile them.

OBJECTIVE_TIE_REL_TOL = 1e-9

# Candidate rows enumerated and LOW-scored per array block.
SEARCH_BLOCK = 4096

# Candidates scored as +inf, by cause: counted into SearchResult.extras.
FAILURE_KINDS = ("unstable", "non_convergent")


@dataclass
class SearchSpace:
    """What to search: grid, node counts, optional pinned tiles, and the
    latency mode candidates are scored under.

    ``fixed`` pins tiles to kinds (counted toward the totals); symmetry
    pruning is disabled when any tile is pinned. ``mc_tiles`` optionally
    restricts where memory controllers may sit (e.g. the perimeter);
    ``local_search`` rejects it.
    """

    grid: MeshGrid
    n_cores: int
    n_caches: int
    n_mcs: int = 0
    fixed: Mapping[Coord, NodeKind] = field(default_factory=dict)
    mode: Mode = Mode.LOW
    mc_tiles: frozenset[Coord] | None = None


@dataclass
class SearchResult:
    """Search outcome: all argmin ties, their shared objective value, and
    enumeration accounting. ``extras`` counts the candidates scored +inf
    because the HIGH model saturated (``unstable``) or its fixed point did
    not settle (``non_convergent``)."""

    best: list[Placement]
    objective_value: float
    evaluated: int
    pruned: int
    method: str
    extras: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "objective": self.objective_value,
            "evaluated": self.evaluated,
            "pruned_by_symmetry": self.pruned,
            "best": [placement_string(p) for p in self.best],
            **self.extras,
        }


def _tie_cutoff(best: float) -> float:
    return best + OBJECTIVE_TIE_REL_TOL * max(1.0, abs(best))


def _meet(best: float, ties: set[str], value: float, strings: set[str]) -> tuple[float, set[str]]:
    """The best value and its ties after meeting ``strings`` at ``value``:
    they replace the ties when the best lies beyond ``value``'s tie cutoff
    (so a finite value replaces +inf), and join them when ``value`` lies
    within the best's."""
    if best > _tie_cutoff(value):
        return value, strings
    if value <= _tie_cutoff(best):
        return best, ties | strings
    return best, ties


def _tile_ids(space: SearchSpace) -> tuple[str, list[int], tuple[int, int, int],
                                           list[int] | None]:
    """Check counts against the grid and pinned tiles, and read the space
    into tile ids: the pinned kinds as a placement string (``.`` on free
    tiles), the free tiles, the (cores, caches, controllers) still to place,
    and the free tiles that may host a controller (None for any, and when no
    controller remains to be placed)."""
    grid = space.grid
    if space.n_cores < 0 or space.n_caches < 0 or space.n_mcs < 0:
        raise InfeasibleError("negative node counts")
    if space.n_cores + space.n_caches + space.n_mcs > grid.n_tiles:
        raise InfeasibleError("node counts exceed tile count")
    base = ["."] * grid.n_tiles
    for c, k in space.fixed.items():
        if not grid.contains(c):
            raise InfeasibleError(f"fixed tile {c} outside grid")
        base[grid.index(c)] = _CHAR_OF_KIND[k]
    pinned = Counter(space.fixed.values())
    counts = (space.n_cores - pinned[NodeKind.CORE], space.n_caches - pinned[NodeKind.CACHE],
              space.n_mcs - pinned[NodeKind.MC])
    if min(counts) < 0:
        raise InfeasibleError("fixed tiles exceed the requested counts")
    free = [i for i, c in enumerate(grid.coords) if c not in space.fixed]
    pool = None
    if space.mc_tiles is not None and counts[2]:
        pool = [i for i in free if grid.coords[i] in space.mc_tiles]
    return "".join(base), free, counts, pool


def _symmetries(space: SearchSpace, pool: list[int] | None) -> list[tuple[int, ...]]:
    """The symmetries a search may prune by: none when tiles are pinned,
    else those of the grid that map the controller pool onto itself. The
    high-traffic objective is only invariant under the axis-preserving
    symmetries (XY routing breaks under x/y swaps); the low-traffic
    objective admits the full group."""
    if space.fixed:
        return []
    perms = space.grid.symmetry_permutations(axis_preserving=space.mode is Mode.HIGH)
    if pool is None:
        return perms
    return [p for p in perms if {p[i] for i in pool} == set(pool)]


def _values(grid: MeshGrid, rows: np.ndarray, spec: TrafficSpec, mode: Mode, queue_mode: str,
            failures: Counter, jobs: int = 1) -> np.ndarray:
    """The objective values of ``rows`` under ``mode``. HIGH rows are
    scored in ``jobs`` worker processes when there are 64 or more, each
    process scoring a share of them, and the rows scored +inf are counted
    into ``failures`` by cause."""
    from .scoring import high_objective_batch, low_objective_batch
    if mode is Mode.LOW:
        return low_objective_batch(grid, rows, spec)
    if jobs <= 1 or len(rows) < 64:
        values, causes = high_objective_batch(grid, rows, spec, queue_mode)
    else:
        chunk = max(32, math.ceil(len(rows) / (jobs * 4)))
        shares = [rows[i:i + chunk] for i in range(0, len(rows), chunk)]
        n = len(shares)
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(high_objective_batch, [grid] * n, shares, [spec] * n,
                                  [queue_mode] * n))
        values, causes = (np.concatenate(a) for a in zip(*parts))
    failures["unstable"] += int(np.isin(causes, (UNSTABLE, EFFECTIVE_UNSTABLE)).sum())
    failures["non_convergent"] += int((causes == NON_CONVERGENT).sum())
    return values


def _failure_counts(failures: Counter) -> dict[str, int]:
    return {kind: failures[kind] for kind in FAILURE_KINDS}


def _raw_count(free: list[int], counts: tuple[int, int, int], pool: list[int] | None) -> int:
    """Number of rows ``raw_blocks`` yields. With a controller
    pool of P of the F free tiles, a of the m = cores + caches nodes sit on
    pool tiles and the controllers on P - a of them."""
    raw = placement_count(len(free), *counts)  # raises when the nodes outnumber the tiles
    if pool is None:
        return raw
    n_cores, n_caches, n_mcs = counts
    m, p, f = n_cores + n_caches, len(pool), len(free)
    return sum(math.comb(p, a) * math.comb(f - p, m - a) * math.comb(m, n_caches)
               * math.comb(p - a, n_mcs) for a in range(min(p, m) + 1))


def _strings(rows: np.ndarray) -> list[str]:
    return [row.tobytes().decode("ascii") for row in rows]


def _best(grid: MeshGrid, strings: set[str]) -> list[Placement]:
    return [placement_from_string(grid, s) for s in sorted(strings)]


def _prefilter(grid: MeshGrid, rows: np.ndarray, spec: TrafficSpec) -> np.ndarray:
    """The rows among the first max(100, 5%) by (LOW objective, string)."""
    from .scoring import low_objective_batch
    keep = max(100, math.ceil(0.05 * len(rows)))
    if len(rows) <= keep:
        return rows
    low = low_objective_batch(grid, rows, spec)
    cut = np.partition(low, keep - 1)[keep - 1]
    below = low < cut
    at_cut = sorted(np.flatnonzero(low == cut).tolist(), key=lambda i: rows[i].tobytes())
    return np.concatenate([rows[below], rows[at_cut[:keep - int(below.sum())]]])


def _search(grid: MeshGrid, base: str, free: list[int], counts: tuple[int, int, int],
            pool: list[int] | None, perms: list[tuple[int, ...]], spec: TrafficSpec,
            mode: Mode, budget: int, prefilter: bool, queue_mode: str,
            jobs: int) -> SearchResult:
    """Score the lexicographically smallest placement of every orbit under
    ``perms`` (``representative_blocks``; every placement, ``raw_blocks``,
    when ``perms`` holds no map but the identity) and return the argmin ties
    expanded to their orbits.

    Candidates are scored a block at a time, and only those within the tie
    tolerance of the lowest value so far are kept. LOW blocks come from the
    enumerator; HIGH candidates form one block, after the LOW prefilter when
    ``prefilter`` is set, scored over ``jobs`` processes."""
    from .candidates import raw_blocks, representative_blocks
    raw = _raw_count(free, counts, pool)
    estimate = -(-raw // max(1, len(perms)))
    if estimate > budget:
        raise BudgetExceededError(
            f"{raw} raw placements ({estimate} after symmetry pruning) exceed "
            f"budget {budget}; consider two_phase_optimize or local_search",
            count=int(raw),
        )
    if not raw:
        raise InfeasibleError("search space is empty")

    blocks = (representative_blocks(base, free, counts, pool, perms, SEARCH_BLOCK)
              if len(perms) > 1 else raw_blocks(base, free, counts, pool, SEARCH_BLOCK))
    extras: dict = {}
    if mode is Mode.HIGH:
        rows = np.concatenate(list(blocks))
        if prefilter:
            extras["prefilter_evaluated"] = len(rows)
            rows = _prefilter(grid, rows, spec)
        blocks = [rows]
    evaluated = 0
    failures: Counter = Counter()
    scored: dict[str, float] = {}
    floor = cutoff = math.inf
    for rows in blocks:
        evaluated += len(rows)
        values = _values(grid, rows, spec, mode, queue_mode, failures, jobs)
        if values.min() < floor:
            # Only a lower floor can drop kept entries.
            floor = float(values.min())
            cutoff = _tie_cutoff(floor)
            scored = {s: v for s, v in scored.items() if v <= cutoff}
        near = values <= cutoff
        scored.update(zip(_strings(rows[near]), values[near].tolist()))
    if math.isinf(floor):
        raise UnstableError(
            "every candidate placement saturates at this load "
            f"({failures['unstable']} unstable, {failures['non_convergent']} non-convergent)"
        )
    # Every kept entry lies within the tie tolerance of the final floor.
    winners = set(scored)
    if perms:
        winners = {"".join(s[i] for i in perm) for s in winners for perm in perms}
    return SearchResult(best=_best(grid, winners), objective_value=floor, evaluated=evaluated,
                        pruned=raw - extras.get("prefilter_evaluated", evaluated),
                        method="exhaustive", extras={**extras, **_failure_counts(failures)})


def exhaustive_search(space: SearchSpace, spec: TrafficSpec,
                      budget: int = 10_000_000,
                      prune_symmetry: bool = True,
                      prefilter: bool = True,
                      queue_mode: str = PAPER,
                      jobs: int = 1) -> SearchResult:
    """Enumerate every placement (one canonical representative per symmetry
    orbit unless pruning is off or tiles are pinned), score each, and return
    all global argmin placements expanded to their distinct orbit members.
    With ``mc_tiles`` set, pruning uses only the symmetries that map those
    tiles onto themselves.

    High-traffic searches optionally pre-filter candidates by the cheap
    low-traffic objective, keeping max(100, 5% of the representatives); pass
    prefilter=False for exactness. ``jobs`` > 1 scores the high-traffic
    candidates in that many worker processes; low-traffic candidates are
    scored in array blocks in this process. Raises BudgetExceededError when
    the post-pruning candidate estimate exceeds ``budget``.
    """
    base, free, counts, pool = _tile_ids(space)
    perms = _symmetries(space, pool) if prune_symmetry else []
    return _search(space.grid, base, free, counts, pool, perms, spec, space.mode,
                   budget, prefilter, queue_mode, jobs)


def two_phase_optimize(space: SearchSpace, spec: TrafficSpec,
                       budget: int = 10_000_000,
                       queue_mode: str = PAPER,
                       jobs: int = 1) -> SearchResult:
    """Decomposed search: optimize cores+caches with the memory term absent,
    then place the memory controllers around each phase-1 winner.

    Phase 2 scores the full objective, so the reported value is directly
    comparable with a joint exhaustive search. With n_mcs == 0 this is the
    plain cores+caches exhaustive search. As in exhaustive_search, ``jobs``
    parallelises high-traffic scoring only.
    """
    base, free, counts, pool = _tile_ids(space)
    grid = space.grid
    # Pinned controllers stay where they are during phase 1.
    phase1 = _search(grid, base, free, (*counts[:2], 0), None, _symmetries(space, None),
                     spec, space.mode, budget, True, queue_mode, jobs)
    if space.n_mcs == 0:
        phase1.method = "two-phase"
        phase1.extras["phase1_objective"] = phase1.objective_value
        return phase1

    best_value = math.inf
    best_strings: set[str] = set()
    evaluated = phase1.evaluated
    failures = Counter({kind: phase1.extras[kind] for kind in FAILURE_KINDS})
    for winner in map(placement_string, phase1.best):
        open_tiles = [i for i in free if winner[i] == "."]
        sites = None if pool is None else [i for i in pool if winner[i] == "."]
        if len(open_tiles if sites is None else sites) < counts[2]:
            continue  # the winner covers the tiles the controllers need
        result = _search(grid, winner, open_tiles, (0, 0, counts[2]), sites, [], spec,
                         space.mode, budget, True, queue_mode, jobs)
        evaluated += result.evaluated
        failures.update({kind: result.extras[kind] for kind in FAILURE_KINDS})
        best_value, best_strings = _meet(best_value, best_strings, result.objective_value,
                                         {placement_string(p) for p in result.best})
    if not best_strings:
        raise InfeasibleError(f"no phase-1 winner leaves room for {counts[2]} memory "
                              "controllers" + ("" if pool is None else " on mc_tiles"))

    return SearchResult(best=_best(grid, best_strings), objective_value=best_value,
                        evaluated=evaluated, pruned=phase1.pruned, method="two-phase",
                        extras={"phase1_objective": phase1.objective_value,
                                "phase2_objective": best_value, **_failure_counts(failures)})


def local_search(space: SearchSpace, spec: TrafficSpec, seed: int,
                 budget: int = 10_000,
                 queue_mode: str = PAPER) -> SearchResult:
    """Steepest-descent over the swap neighborhood with random restarts.

    A move exchanges the kinds of two tiles of differing kinds (pinned tiles
    never move), which preserves the counts by construction. ``budget`` caps
    neighbor evaluations; the start placement is always scored, so the result
    is never worse than the central canonical start. Deterministic for a
    given seed. Swaps and restarts move controllers to any free tile, so a
    space with ``mc_tiles`` raises InfeasibleError: two_phase_optimize
    honours it.
    """
    if space.mc_tiles is not None:
        raise InfeasibleError("local_search cannot restrict controllers to mc_tiles; "
                              "use two_phase_optimize")
    rng = random.Random(seed)
    grid = space.grid
    base, free, (n_cores, n_caches, n_mcs), _ = _tile_ids(space)
    # Start: the central canonical placement, else pinned tiles plus
    # row-major packing.
    current = list(base)
    for i, ch in zip(free, "$" * n_caches + "C" * n_cores + "M" * n_mcs):
        current[i] = ch
    if not space.fixed and n_caches >= 1:
        try:
            current = list(placement_string(canonical_placement(
                CanonicalFamily.CENTRAL, grid, n_cores, n_caches, n_mcs)))
        except InfeasibleError:
            pass
    current = np.frombuffer("".join(current).encode("ascii"), dtype=np.uint8).copy()
    swaps = np.array(list(combinations(free, 2)), dtype=np.intp).reshape(-1, 2)
    evaluated = 0
    failures: Counter = Counter()

    def score(rows: np.ndarray) -> np.ndarray:
        return _values(grid, rows, spec, space.mode, queue_mode, failures)

    best_value = float(score(current[None])[0])
    best_strings = {current.tobytes().decode("ascii")}
    current_value = best_value
    remaining = budget
    while True:
        # One steepest-descent pass: the next ``remaining`` swaps of
        # differing-kind free tiles, scored at once.
        a, b = swaps[current[swaps[:, 0]] != current[swaps[:, 1]]][:max(remaining, 0)].T
        if len(a):
            rows = np.repeat(current[None], len(a), axis=0)
            at = np.arange(len(a))
            rows[at, a], rows[at, b] = current[b], current[a]
            values = score(rows)
            i = int(values.argmin())
            value = float(values[i])
            evaluated += len(a)
            remaining -= len(a)
            if value < current_value:
                current, current_value = rows[i].copy(), value
                best_value, best_strings = _meet(best_value, best_strings, current_value,
                                                 {current.tobytes().decode("ascii")})
                if remaining > 0:
                    continue
        if remaining <= 0:
            break
        # Local optimum: restart from a random shuffle of the free tiles.
        kinds = current[free].tolist()
        rng.shuffle(kinds)
        current[free] = kinds
        current_value = float(score(current[None])[0])
        evaluated += 1
        remaining -= 1
        best_value, best_strings = _meet(best_value, best_strings, current_value,
                                         {current.tobytes().decode("ascii")})

    return SearchResult(best=_best(grid, best_strings), objective_value=best_value,
                        evaluated=evaluated, pruned=0,
                        method="local", extras={"seed": seed, **_failure_counts(failures)})
