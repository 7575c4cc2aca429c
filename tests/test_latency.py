import random

import numpy as np
import pytest

from nocplace import (
    CanonicalFamily,
    Coord,
    MeshGrid,
    Mode,
    InvalidTrafficError,
    NoCachesError,
    NodeKind,
    NoMemControllersError,
    ServiceSpec,
    TrafficSpec,
    build_placement,
    canonical_placement,
    low_traffic_l2_latency,
    low_traffic_mem_latency,
    objective,
)
from nocplace import scoring
from nocplace.latency import _row_sums, _sum_in_order
from nocplace.scoring import low_objective_batch
from nocplace.mesh import apply_symmetry, placement_from_string
from nocplace.traffic import matrix


def place(grid, cores=(), caches=(), mcs=()):
    kinds = {c: NodeKind.ROUTER_ONLY for c in grid.tiles()}
    kinds.update({c: NodeKind.CORE for c in cores})
    kinds.update({c: NodeKind.CACHE for c in caches})
    kinds.update({c: NodeKind.MC for c in mcs})
    return build_placement(grid, kinds)


def ring_of_cores_3x3(cache_at=Coord(1, 1)):
    g = MeshGrid(3, 3)
    cores = [c for c in g.tiles() if c != cache_at]
    return place(g, cores=cores, caches=[cache_at])


class TestLowTrafficL2:
    def test_adjacent_single_cache(self):
        g = MeshGrid(2, 1)
        p = place(g, cores=[Coord(0, 0)], caches=[Coord(1, 0)])
        assert low_traffic_l2_latency(Coord(0, 0), p, TrafficSpec()) == pytest.approx(1.0)

    def test_equidistant_pair(self):
        g = MeshGrid(5, 1)
        p = place(g, cores=[Coord(2, 0)], caches=[Coord(0, 0), Coord(4, 0)])
        assert low_traffic_l2_latency(Coord(2, 0), p, TrafficSpec()) == pytest.approx(2.0)

    def test_weighted_distances(self):
        g = MeshGrid(3, 3)
        p = place(g, cores=[Coord(0, 0)], caches=[Coord(2, 0), Coord(0, 2)])
        t = TrafficSpec(p=matrix([[0.25, 0.75]]))
        assert low_traffic_l2_latency(Coord(0, 0), p, t) == pytest.approx(2.0)

    def test_no_caches(self):
        g = MeshGrid(2, 1)
        p = place(g, cores=[Coord(0, 0)])
        with pytest.raises(NoCachesError):
            low_traffic_l2_latency(Coord(0, 0), p, TrafficSpec())


class TestLowTrafficMem:
    def test_adjacent_mc(self):
        g = MeshGrid(3, 1)
        p = place(g, cores=[Coord(0, 0)], caches=[Coord(1, 0)], mcs=[Coord(2, 0)])
        assert low_traffic_mem_latency(p, TrafficSpec()) == pytest.approx(1.0)

    def test_same_column_distance_one(self):
        g = MeshGrid(2, 2)
        p = place(g, cores=[Coord(1, 0)], caches=[Coord(0, 0)], mcs=[Coord(0, 1)])
        assert low_traffic_mem_latency(p, TrafficSpec()) == pytest.approx(1.0)

    def test_average_over_caches(self):
        # Caches at distances 2 and 4 from their nearest controllers.
        g = MeshGrid(7, 1)
        p = place(g, cores=[Coord(3, 0)],
                  caches=[Coord(2, 0), Coord(4, 0)],
                  mcs=[Coord(0, 0)])
        # d(cache1, mc) = 2, d(cache2, mc) = 4 -> mean 3.
        assert low_traffic_mem_latency(p, TrafficSpec()) == pytest.approx(3.0)

    def test_fixed_latency_added(self):
        g = MeshGrid(3, 1)
        p = place(g, cores=[Coord(0, 0)], caches=[Coord(1, 0)], mcs=[Coord(2, 0)])
        t = TrafficSpec(mem_fixed_latency=50.0)
        assert low_traffic_mem_latency(p, t) == pytest.approx(51.0)

    def test_no_mcs(self):
        g = MeshGrid(2, 1)
        p = place(g, cores=[Coord(0, 0)], caches=[Coord(1, 0)])
        with pytest.raises(NoMemControllersError):
            low_traffic_mem_latency(p, TrafficSpec())


class TestObjective:
    def test_center_cache_l2_sum(self):
        report = objective(ring_of_cores_3x3(), TrafficSpec(), Mode.LOW)
        assert report.l2_sum == pytest.approx(12.0)

    def test_corner_cache_l2_sum(self):
        report = objective(ring_of_cores_3x3(Coord(0, 0)), TrafficSpec(), Mode.LOW)
        assert report.l2_sum == pytest.approx(18.0)

    def test_decomposition_identity(self):
        g = MeshGrid(4, 4)
        p = canonical_placement(CanonicalFamily.CENTRAL, g, 10, 4, 2)
        t = TrafficSpec(lambda_g=0.05, hit_l1=0.3, miss_l2=0.4,
                        latency_l1=2.0, mem_fixed_latency=10.0)
        report = objective(p, t, Mode.LOW)
        for core in report.per_core:
            assert core.total == pytest.approx(
                t.latency_l1 + core.l2_term * t.miss_l1
                + core.mem_term * t.miss_l1 * t.miss_l2)
        assert report.objective_value == pytest.approx(
            sum(c.total for c in report.per_core))

    def test_low_mode_independent_of_rate(self):
        p = ring_of_cores_3x3()
        a = objective(p, TrafficSpec(lambda_g=0.01), Mode.LOW)
        b = objective(p, TrafficSpec(lambda_g=0.2), Mode.LOW)
        assert a.objective_value == pytest.approx(b.objective_value)

    def test_high_mode_zero_load_equals_low_mode(self):
        g = MeshGrid(4, 4)
        p = canonical_placement(CanonicalFamily.CENTRAL, g, 10, 4, 2)
        t = TrafficSpec(lambda_g=1e-9, miss_l2=0.4)
        low = objective(p, t, Mode.LOW)
        high = objective(p, t, Mode.HIGH)
        assert high.objective_value == pytest.approx(
            low.objective_value, rel=1e-6)
        # At exactly zero load every router answers in E{S}, so HIGH's
        # per-core terms must be LOW's. An integer E{S} must be priced in
        # floating point, not in the dtype of the int8 hop table.
        for svc in (ServiceSpec(mean_service=0.7), ServiceSpec(mean_service=100)):
            t = TrafficSpec(lambda_g=0.0, hit_l1=0.2, miss_l2=0.4, svc=svc,
                            mem_fixed_latency=3.0)
            low = objective(p, t, Mode.LOW)
            high = objective(p, t, Mode.HIGH)
            assert [c.core for c in high.per_core] == [c.core for c in low.per_core]
            for a, b in zip(low.per_core, high.per_core):
                assert (b.l2_term, b.mem_term, b.total) == pytest.approx(
                    (a.l2_term, a.mem_term, a.total), rel=1e-12)

    def test_high_mode_at_load_dominates_low_mode(self):
        g = MeshGrid(4, 4)
        p = canonical_placement(CanonicalFamily.CENTRAL, g, 12, 4, 0)
        for rate in (0.02, 0.08, 0.14):
            t = TrafficSpec(lambda_g=rate)
            low = objective(p, t, Mode.LOW)
            high = objective(p, t, Mode.HIGH)
            assert high.objective_value >= low.objective_value - 1e-12

    def test_symmetry_invariance_low_mode_full_group(self):
        g = MeshGrid(4, 4)
        p = canonical_placement(CanonicalFamily.DISTRIBUTED, g, 8, 4, 0)
        t = TrafficSpec(lambda_g=0.1)
        base_low = objective(p, t, Mode.LOW).objective_value
        for perm in g.symmetry_permutations():
            q = apply_symmetry(p, perm)
            assert objective(q, t, Mode.LOW).objective_value == pytest.approx(
                base_low, rel=1e-9)

    def test_symmetry_invariance_high_mode_axis_preserving(self):
        # XY routing distinguishes the axes: x/y-swapping symmetries change
        # channel loads, so high-traffic invariance holds for the reflection
        # subgroup only.
        g = MeshGrid(4, 4)
        p = canonical_placement(CanonicalFamily.DISTRIBUTED, g, 8, 4, 0)
        t = TrafficSpec(lambda_g=0.1)
        base_high = objective(p, t, Mode.HIGH).objective_value
        for perm in g.symmetry_permutations(axis_preserving=True):
            q = apply_symmetry(p, perm)
            assert objective(q, t, Mode.HIGH).objective_value == pytest.approx(
                base_high, rel=1e-7)

    def test_mem_fixed_latency_shifts_objective_by_constant(self):
        g = MeshGrid(4, 4)
        t0 = TrafficSpec(lambda_g=0.05, miss_l2=0.5)
        t1 = TrafficSpec(lambda_g=0.05, miss_l2=0.5, mem_fixed_latency=100.0)
        deltas = set()
        for family in (CanonicalFamily.CENTRAL, CanonicalFamily.DISTRIBUTED):
            p = canonical_placement(family, g, 10, 4, 2)
            d = (objective(p, t1, Mode.LOW).objective_value
                 - objective(p, t0, Mode.LOW).objective_value)
            deltas.add(round(d, 9))
        assert len(deltas) == 1  # same shift for every placement

    def test_no_mem_term_without_mcs(self):
        report = objective(ring_of_cores_3x3(), TrafficSpec(miss_l2=0.9), Mode.LOW)
        assert report.mem_sum == 0.0

    def test_json_report(self):
        import io
        import json

        report = objective(ring_of_cores_3x3(), TrafficSpec(), Mode.LOW)
        buf = io.StringIO()
        report.write_json(buf)
        data = json.loads(buf.getvalue())
        assert data["mode"] == "low"
        assert len(data["per_core"]) == 8
        assert data["objective"] == pytest.approx(report.objective_value)


class TestLowObjectiveBatch:
    """The batched LOW scorer of the searches, against objective."""

    @staticmethod
    def _skewed_p(rng, n_cores, n_caches):
        if not n_cores:
            return None  # nested tuples cannot hold a 0 x n_caches matrix
        rows = []
        for _ in range(n_cores):
            w = [rng.choice([0.0, 0.0, rng.random(), 5 * rng.random()]) for _ in range(n_caches)]
            w[rng.randrange(n_caches)] += 1.0
            rows.append([v / sum(w) for v in w])
        return matrix(rows)

    @pytest.mark.parametrize("chunk_hops", [50, None])
    def test_matches_objective_bit_for_bit(self, chunk_hops, monkeypatch):
        # At 50 hops a chunk holds a few rows of the small grids and one row
        # of the large ones; at the default, all 25 rows of every grid.
        if chunk_hops is not None:
            monkeypatch.setattr(scoring, "_LOW_HOPS", chunk_hops)
        rng = random.Random(2016)
        ties = 0
        for w, h, n_cores, n_caches, n_mcs in ((1, 7, 3, 2, 1), (7, 1, 2, 2, 2), (1, 6, 2, 1, 0),
                                               (3, 3, 0, 2, 1), (3, 3, 4, 2, 2), (4, 4, 6, 3, 3),
                                               (5, 3, 5, 4, 2),
                                               (8, 8, 40, 16, 4), (16, 16, 150, 60, 8)):
            g = MeshGrid(w, h)
            specs = [
                TrafficSpec(),
                TrafficSpec(p=self._skewed_p(rng, n_cores, n_caches), miss_l2=0.35),
                TrafficSpec(hit_l1=0.4, miss_l2=0.6, mem_fixed_latency=25.0, latency_l1=2.5,
                            svc=ServiceSpec(mean_service=0.7)),
                # An integer E{S} must not multiply the int8 hop table.
                TrafficSpec(svc=ServiceSpec(mean_service=100), miss_l2=0.9,
                            p=self._skewed_p(rng, n_cores, n_caches)),
            ]
            chars = list("C" * n_cores + "$" * n_caches + "M" * n_mcs
                         + "." * (g.n_tiles - n_cores - n_caches - n_mcs))
            strings = []
            for _ in range(25):
                rng.shuffle(chars)
                strings.append("".join(chars))
            rows = np.array([list(s.encode("ascii")) for s in strings], dtype=np.uint8)
            for spec in specs:
                values = low_objective_batch(g, rows, spec)
                exact = [objective(placement_from_string(g, s), spec).objective_value
                         for s in strings]
                assert values.tolist() == exact, (w, h, spec)
            if n_mcs > 1:
                for s in strings:
                    hops = g.hops[[i for i, c in enumerate(s) if c == "$"]][
                        :, [i for i, c in enumerate(s) if c == "M"]]
                    ties += int(((hops == hops.min(axis=1, keepdims=True)).sum(axis=1) > 1).sum())
        assert ties > 0  # some caches split their misses between controllers

    def test_checks_the_spec_like_objective(self):
        g = MeshGrid(3, 3)
        rows = np.array([list(b"CC..$...."), list(b"C.C.$....")], dtype=np.uint8)
        with pytest.raises(InvalidTrafficError, match="p has shape"):
            low_objective_batch(g, rows, TrafficSpec(p=((1.0,),)))
        with pytest.raises(NoCachesError):
            low_objective_batch(g, rows[:, [0, 1, 2, 3, 5, 5, 6, 7, 8]], TrafficSpec())


def test_sums_keep_numpy_and_python_order():
    # _compose adds each row of terms as numpy's sum does (one term at a
    # time below 8 terms, pairwise above), and each placement's per-core
    # totals as Python's sum does, so objective and the batches agree.
    rng = np.random.default_rng(7)
    for n in range(12):
        terms = rng.random((50, 3, n)) * 10.0 ** rng.integers(-6, 7, (50, 3, n))
        assert _row_sums(terms).tolist() == terms.sum(axis=-1).tolist(), n
    for n in (0, 1, 5, 24, 48):
        total = rng.random((50, n)) * 10.0 ** rng.integers(-6, 7, (50, n))
        assert _sum_in_order(total).tolist() == [float(sum(t)) for t in total.tolist()], n
