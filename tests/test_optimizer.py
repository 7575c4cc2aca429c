import math
import random
from itertools import combinations

import pytest

from nocplace import (
    BudgetExceededError,
    CanonicalFamily,
    Coord,
    InfeasibleError,
    MeshGrid,
    Mode,
    NodeKind,
    TrafficSpec,
    canonical_placement,
    exhaustive_search,
    local_search,
    objective,
    two_phase_optimize,
)
from nocplace import queueing
from nocplace.mesh import placement_from_string, placement_string
from nocplace.optimizer import SearchSpace


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


class TestParallelEvaluation:
    def test_jobs_do_not_change_the_result(self):
        space = SearchSpace(MeshGrid(3, 3), n_cores=4, n_caches=2)
        spec = TrafficSpec()
        seq = exhaustive_search(space, spec, jobs=1)
        par = exhaustive_search(space, spec, jobs=2)
        assert par.objective_value == seq.objective_value
        assert [placement_string(p) for p in par.best] == \
            [placement_string(p) for p in seq.best]


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

    def test_local_search_survives_when_nothing_converges(self, monkeypatch):
        monkeypatch.setattr(queueing, "FIXED_POINT_MAX_ITER", 1)
        space = SearchSpace(MeshGrid(4, 4), 12, 4, 0, mode=Mode.HIGH)
        result = local_search(space, TrafficSpec(lambda_g=0.2), seed=5, budget=20)
        assert result.objective_value == math.inf
        # The start placement is scored on top of the budgeted evaluations.
        assert result.extras["non_convergent"] == result.evaluated + 1
        assert result.extras["unstable"] == 0
