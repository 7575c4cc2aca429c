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
from typing import Iterator, Mapping

from .errors import BudgetExceededError, InfeasibleError, NonConvergentError, UnstableError
from .latency import Mode, objective
from .mesh import (
    _CHAR_OF_KIND,
    Coord,
    MeshGrid,
    NodeKind,
    Placement,
    placement_count,
    placement_from_string,
    placement_string,
)
from .queueing import PAPER
from .traffic import TrafficSpec

OBJECTIVE_TIE_REL_TOL = 1e-9

# Candidates scored as +inf, by cause: counted into SearchResult.extras.
FAILURE_KINDS = ("unstable", "non_convergent")


@dataclass
class SearchSpace:
    """What to search: grid, node counts, optional pinned tiles, and the
    latency mode candidates are scored under.

    ``fixed`` pins tiles to kinds (counted toward the totals); symmetry
    pruning is disabled when any tile is pinned. ``mc_tiles`` optionally
    restricts where memory controllers may sit (e.g. the perimeter).
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


def _validate_space(space: SearchSpace) -> tuple[list[int], int, int, int]:
    """Check counts against the grid and pinned tiles; returns the free tile
    indices and the counts still to be placed."""
    grid = space.grid
    if space.n_cores < 0 or space.n_caches < 0 or space.n_mcs < 0:
        raise InfeasibleError("negative node counts")
    if space.n_cores + space.n_caches + space.n_mcs > grid.n_tiles:
        raise InfeasibleError("node counts exceed tile count")
    fixed_counts = {k: 0 for k in NodeKind}
    for c, k in space.fixed.items():
        if not grid.contains(c):
            raise InfeasibleError(f"fixed tile {c} outside grid")
        fixed_counts[k] += 1
    rem_cores = space.n_cores - fixed_counts[NodeKind.CORE]
    rem_caches = space.n_caches - fixed_counts[NodeKind.CACHE]
    rem_mcs = space.n_mcs - fixed_counts[NodeKind.MC]
    if min(rem_cores, rem_caches, rem_mcs) < 0:
        raise InfeasibleError("fixed tiles exceed the requested counts")
    free = [grid.index(c) for c in grid.tiles() if c not in space.fixed]
    return free, rem_cores, rem_caches, rem_mcs


def _base_chars(space: SearchSpace) -> list[str]:
    chars = ["."] * space.grid.n_tiles
    for c, k in space.fixed.items():
        chars[space.grid.index(c)] = _CHAR_OF_KIND[k]
    return chars


def _candidate_strings(space: SearchSpace,
                       mc_pool: list[int] | None = None) -> Iterator[str]:
    """All assignment strings with the requested counts, fixed tiles pinned.

    Memory controllers draw from ``mc_pool`` indices when given (already
    restricted to free tiles)."""
    free, n_cores, n_caches, n_mcs = _validate_space(space)
    base = _base_chars(space)
    free_set = set(free)
    for cache_idx in combinations(free, n_caches):
        rest1 = [i for i in free if i not in set(cache_idx)]
        for core_idx in combinations(rest1, n_cores):
            taken = set(cache_idx) | set(core_idx)
            if n_mcs:
                pool = [i for i in (mc_pool if mc_pool is not None else rest1)
                        if i in free_set and i not in taken]
                for mc_idx in combinations(pool, n_mcs):
                    chars = base[:]
                    for i in cache_idx:
                        chars[i] = "$"
                    for i in core_idx:
                        chars[i] = "C"
                    for i in mc_idx:
                        chars[i] = "M"
                    yield "".join(chars)
            else:
                chars = base[:]
                for i in cache_idx:
                    chars[i] = "$"
                for i in core_idx:
                    chars[i] = "C"
                yield "".join(chars)


def _is_canonical(s: str, perms: list[tuple[int, ...]]) -> bool:
    # Canonical = lexicographically smallest string in its symmetry orbit.
    for perm in perms:
        for pos, i in enumerate(perm):
            c = s[i]
            if c < s[pos]:
                return False
            if c > s[pos]:
                break
    return True


def _orbit_strings(s: str, perms: list[tuple[int, ...]]) -> set[str]:
    return {"".join(s[i] for i in perm) for perm in perms}


def _objective_value(placement: Placement, spec: TrafficSpec, mode: Mode,
                     queue_mode: str, failures: Counter) -> float:
    # One bad candidate must not abort a search: it scores +inf and is
    # counted by cause.
    try:
        return objective(placement, spec, mode, queue_mode).objective_value
    except UnstableError:
        failures["unstable"] += 1
    except NonConvergentError:
        failures["non_convergent"] += 1
    return math.inf


def _eval_chunk(args) -> tuple[list[float], Counter]:
    width, height, strings, spec, mode, queue_mode = args
    grid = MeshGrid(width, height)
    failures: Counter = Counter()
    values = [
        _objective_value(placement_from_string(grid, s), spec, mode, queue_mode, failures)
        for s in strings
    ]
    return values, failures


def _evaluate_all(grid: MeshGrid, strings: list[str], spec: TrafficSpec,
                  mode: Mode, queue_mode: str, jobs: int,
                  failures: Counter) -> list[float]:
    if jobs <= 1 or len(strings) < 64:
        values, part = _eval_chunk((grid.width, grid.height, strings, spec, mode, queue_mode))
        failures.update(part)
        return values
    chunk = max(32, math.ceil(len(strings) / (jobs * 4)))
    batches = [strings[i:i + chunk] for i in range(0, len(strings), chunk)]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        results = pool.map(
            _eval_chunk,
            [(grid.width, grid.height, b, spec, mode, queue_mode) for b in batches],
        )
        values: list[float] = []
        for part, part_failures in results:
            values.extend(part)
            failures.update(part_failures)
    return values


def _failure_counts(failures: Counter) -> dict[str, int]:
    return {kind: failures[kind] for kind in FAILURE_KINDS}


def exhaustive_search(space: SearchSpace, spec: TrafficSpec,
                      budget: int = 10_000_000,
                      prune_symmetry: bool = True,
                      prefilter: bool = True,
                      queue_mode: str = PAPER,
                      jobs: int = 1) -> SearchResult:
    """Enumerate every placement (one canonical representative per symmetry
    orbit unless pruning is off or tiles are pinned), score each, and return
    all global argmin placements expanded to their distinct orbit members.

    High-traffic searches optionally pre-filter candidates by the cheap
    low-traffic objective, keeping max(100, 5% of the representatives); pass
    prefilter=False for exactness. Raises BudgetExceededError when the
    post-pruning candidate estimate exceeds ``budget``.
    """
    free, rem_cores, rem_caches, rem_mcs = _validate_space(space)
    pruning = prune_symmetry and not space.fixed
    # The high-traffic objective is only invariant under the axis-preserving
    # symmetries (XY routing breaks under x/y swaps), so pruning restricts to
    # that subgroup; the low-traffic objective admits the full group.
    perms = (
        space.grid.symmetry_permutations(axis_preserving=space.mode is Mode.HIGH)
        if pruning else []
    )
    raw = placement_count(len(free), rem_cores, rem_caches, rem_mcs)
    estimate = -(-raw // len(perms)) if pruning else raw
    if estimate > budget:
        raise BudgetExceededError(
            f"{raw} raw placements ({estimate} after symmetry pruning) exceed "
            f"budget {budget}; consider two_phase_optimize or local_search",
            count=int(raw),
        )

    mc_pool = None
    if space.mc_tiles is not None:
        mc_pool = [space.grid.index(c) for c in space.grid.tiles() if c in space.mc_tiles]

    reps: list[str] = []
    pruned = 0
    for s in _candidate_strings(space, mc_pool):
        if pruning and not _is_canonical(s, perms):
            pruned += 1
            continue
        reps.append(s)
    if not reps:
        raise InfeasibleError("search space is empty")

    extras: dict = {}
    failures: Counter = Counter()
    evaluated = 0
    if space.mode is Mode.HIGH and prefilter:
        low = _evaluate_all(space.grid, reps, spec, Mode.LOW, queue_mode, jobs, failures)
        keep = max(100, math.ceil(0.05 * len(reps)))
        order = sorted(range(len(reps)), key=lambda i: (low[i], reps[i]))
        reps = [reps[i] for i in order[:keep]]
        extras["prefilter_evaluated"] = len(low)

    values = _evaluate_all(space.grid, reps, spec, space.mode, queue_mode, jobs, failures)
    evaluated += len(values)
    extras.update(_failure_counts(failures))
    best_value = min(values)
    if math.isinf(best_value):
        raise UnstableError(
            "every candidate placement saturates at this load "
            f"({failures['unstable']} unstable, {failures['non_convergent']} non-convergent)"
        )
    cutoff = _tie_cutoff(best_value)
    winners = sorted(s for s, v in zip(reps, values) if v <= cutoff)

    if pruning:
        expanded: set[str] = set()
        for s in winners:
            expanded |= _orbit_strings(s, perms)
        winners = sorted(expanded)
    best = [placement_from_string(space.grid, s) for s in winners]
    return SearchResult(
        best=best,
        objective_value=best_value,
        evaluated=evaluated,
        pruned=pruned,
        method="exhaustive",
        extras=extras,
    )


def two_phase_optimize(space: SearchSpace, spec: TrafficSpec,
                       budget: int = 10_000_000,
                       queue_mode: str = PAPER,
                       jobs: int = 1) -> SearchResult:
    """Decomposed search: optimize cores+caches with the memory term absent,
    then place the memory controllers around each phase-1 winner.

    Phase 2 scores the full objective, so the reported value is directly
    comparable with a joint exhaustive search. With n_mcs == 0 this is the
    plain cores+caches exhaustive search.
    """
    if space.n_mcs == 0:
        result = exhaustive_search(space, spec, budget, queue_mode=queue_mode, jobs=jobs)
        result.method = "two-phase"
        result.extras["phase1_objective"] = result.objective_value
        return result

    fixed_mc_free = {c: k for c, k in space.fixed.items() if k is not NodeKind.MC}
    reserved = [c for c, k in space.fixed.items() if k is NodeKind.MC]
    phase1_space = SearchSpace(
        grid=space.grid,
        n_cores=space.n_cores,
        n_caches=space.n_caches,
        n_mcs=0,
        # Pre-pinned controller tiles stay reserved during phase 1.
        fixed={**fixed_mc_free, **{c: NodeKind.MC for c in reserved}},
        mode=space.mode,
    )
    if reserved:
        phase1_space.n_mcs = len(reserved)
    phase1 = exhaustive_search(phase1_space, spec, budget, queue_mode=queue_mode, jobs=jobs)

    best_value = math.inf
    best_strings: set[str] = set()
    evaluated = phase1.evaluated
    failures = Counter({kind: phase1.extras[kind] for kind in FAILURE_KINDS})
    for winner in phase1.best:
        fixed = dict(winner.assignment)
        for c in list(fixed):
            if fixed[c] is NodeKind.ROUTER_ONLY:
                del fixed[c]
        phase2_space = SearchSpace(
            grid=space.grid,
            n_cores=space.n_cores,
            n_caches=space.n_caches,
            n_mcs=space.n_mcs,
            fixed=fixed,
            mode=space.mode,
            mc_tiles=space.mc_tiles,
        )
        result = exhaustive_search(phase2_space, spec, budget,
                                   queue_mode=queue_mode, jobs=jobs)
        evaluated += result.evaluated
        failures.update({kind: result.extras[kind] for kind in FAILURE_KINDS})
        if result.objective_value < best_value - OBJECTIVE_TIE_REL_TOL * max(
            1.0, abs(result.objective_value)
        ):
            best_value = result.objective_value
            best_strings = {placement_string(p) for p in result.best}
        elif result.objective_value <= _tie_cutoff(best_value):
            best_strings |= {placement_string(p) for p in result.best}

    best = [placement_from_string(space.grid, s) for s in sorted(best_strings)]
    return SearchResult(
        best=best,
        objective_value=best_value,
        evaluated=evaluated,
        pruned=phase1.pruned,
        method="two-phase",
        extras={
            "phase1_objective": phase1.objective_value,
            "phase2_objective": best_value,
            **_failure_counts(failures),
        },
    )


def _start_placement(space: SearchSpace) -> Placement:
    from .mesh import CanonicalFamily, canonical_placement

    if not space.fixed and space.n_caches >= 1:
        try:
            return canonical_placement(
                CanonicalFamily.CENTRAL, space.grid,
                space.n_cores, space.n_caches, space.n_mcs,
            )
        except InfeasibleError:
            pass
    # Deterministic fallback: pinned tiles, then row-major packing.
    free, rem_cores, rem_caches, rem_mcs = _validate_space(space)
    chars = _base_chars(space)
    fill = "$" * rem_caches + "C" * rem_cores + "M" * rem_mcs
    fill += "." * (len(free) - len(fill))
    for i, ch in zip(free, fill):
        chars[i] = ch
    return placement_from_string(space.grid, "".join(chars))


def local_search(space: SearchSpace, spec: TrafficSpec, seed: int,
                 budget: int = 10_000,
                 queue_mode: str = PAPER) -> SearchResult:
    """Steepest-descent over the swap neighborhood with random restarts.

    A move exchanges the kinds of two tiles of differing kinds (pinned tiles
    never move), which preserves the counts by construction. ``budget`` caps
    neighbor evaluations; the start placement is always scored, so the result
    is never worse than the central canonical start. Deterministic for a
    given seed.
    """
    rng = random.Random(seed)
    grid = space.grid
    free, _, _, _ = _validate_space(space)
    start = _start_placement(space)
    current = list(placement_string(start))
    evaluated = 0
    failures: Counter = Counter()

    def value_of(chars: list[str]) -> float:
        return _objective_value(
            placement_from_string(grid, "".join(chars)), spec, space.mode, queue_mode,
            failures,
        )

    best_value = value_of(current)
    best_strings = {"".join(current)}
    current_value = best_value
    remaining = budget
    while True:
        # One steepest-descent pass over all differing-kind free pairs.
        best_move = None
        best_move_value = current_value
        for a_pos in range(len(free)):
            for b_pos in range(a_pos + 1, len(free)):
                a, b = free[a_pos], free[b_pos]
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
                    best_move_value = v
                    best_move = (a, b)
            if remaining <= 0:
                break
        if best_move is not None:
            a, b = best_move
            current[a], current[b] = current[b], current[a]
            current_value = best_move_value
            tol = OBJECTIVE_TIE_REL_TOL * max(1.0, abs(best_value))
            if current_value < best_value - tol:
                best_value = current_value
                best_strings = {"".join(current)}
            elif current_value <= best_value + tol:
                best_strings.add("".join(current))
            if remaining > 0:
                continue
        if remaining <= 0:
            break
        # Local optimum: restart from a random shuffle of the free tiles.
        kinds = [current[i] for i in free]
        rng.shuffle(kinds)
        for i, ch in zip(free, kinds):
            current[i] = ch
        current_value = value_of(current)
        evaluated += 1
        remaining -= 1
        tol = OBJECTIVE_TIE_REL_TOL * max(1.0, abs(best_value))
        if current_value < best_value - tol:
            best_value = current_value
            best_strings = {"".join(current)}

    best = [placement_from_string(grid, s) for s in sorted(best_strings)]
    return SearchResult(
        best=best,
        objective_value=best_value,
        evaluated=evaluated,
        pruned=0,
        method="local",
        extras={"seed": seed, **_failure_counts(failures)},
    )
