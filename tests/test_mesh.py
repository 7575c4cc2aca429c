import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nocplace import (
    CanonicalFamily,
    Coord,
    FamilyParams,
    InfeasibleError,
    MeshGrid,
    NodeKind,
    OutOfBoundsError,
    Placement,
    build_placement,
    canonical_placement,
    manhattan,
    placement_count,
)
from nocplace.mesh import placement_from_string, placement_string
from oracles import apply_symmetry, symmetry_orbit


def grid_coords(max_side=8):
    return st.integers(2, max_side).flatmap(
        lambda w: st.integers(2, max_side).flatmap(
            lambda h: st.tuples(
                st.just(MeshGrid(w, h)),
                st.integers(0, w - 1),
                st.integers(0, h - 1),
                st.integers(0, w - 1),
                st.integers(0, h - 1),
                st.integers(0, w - 1),
                st.integers(0, h - 1),
            )
        )
    )


class TestManhattan:
    def test_identity(self):
        assert manhattan(Coord(0, 0), Coord(0, 0)) == 0

    def test_mixed(self):
        assert manhattan(Coord(1, 2), Coord(4, 6)) == 7

    def test_corner_to_corner(self):
        assert manhattan(Coord(7, 0), Coord(0, 7)) == 14

    @given(grid_coords())
    def test_metric_properties(self, data):
        g, ax, ay, bx, by, cx, cy = data
        a, b, c = Coord(ax, ay), Coord(bx, by), Coord(cx, cy)
        assert manhattan(a, b) == manhattan(b, a)
        assert manhattan(a, b) >= 0
        assert (manhattan(a, b) == 0) == (a == b)
        assert manhattan(a, c) <= manhattan(a, b) + manhattan(b, c)
        assert g.hops[g.index(a), g.index(b)] == manhattan(a, b)

    @pytest.mark.parametrize("w,h", [(1, 1), (1, 7), (7, 1), (5, 3), (16, 16)])
    def test_hop_table_is_manhattan(self, w, h):
        g = MeshGrid(w, h)
        tiles = list(g.tiles())
        assert g.hops.dtype == np.int8
        assert g.hops.tolist() == [[manhattan(a, b) for b in tiles] for a in tiles]
        assert g.hops.max() == w + h - 2


class TestBuildPlacement:
    def test_counts_derived(self):
        g = MeshGrid(2, 2)
        p = build_placement(g, {
            Coord(0, 0): NodeKind.CORE,
            Coord(1, 0): NodeKind.CACHE,
            Coord(0, 1): NodeKind.MC,
            Coord(1, 1): NodeKind.ROUTER_ONLY,
        })
        assert p.counts == (1, 1, 1)

    def test_incomplete_assignment_rejected(self):
        g = MeshGrid(2, 2)
        with pytest.raises(OutOfBoundsError):
            build_placement(g, {
                Coord(0, 0): NodeKind.CORE,
                Coord(1, 0): NodeKind.CACHE,
                Coord(0, 1): NodeKind.MC,
            })

    def test_out_of_grid_coordinate_rejected(self):
        g = MeshGrid(2, 2)
        assignment = {c: NodeKind.ROUTER_ONLY for c in g.tiles()}
        assignment[Coord(2, 0)] = NodeKind.CORE
        with pytest.raises(OutOfBoundsError):
            build_placement(g, assignment)

    def test_all_router_only(self):
        g = MeshGrid(8, 8)
        p = build_placement(g, {c: NodeKind.ROUTER_ONLY for c in g.tiles()})
        assert p.counts == (0, 0, 0)


def enumerate_placements(n_tiles, n_cores, n_caches, n_mcs):
    """Independent brute-force count of distinct kind assignments."""
    tiles = range(n_tiles)
    total = 0
    for cores in combinations(tiles, n_cores):
        rest1 = [t for t in tiles if t not in cores]
        for caches in combinations(rest1, n_caches):
            rest2 = [t for t in rest1 if t not in caches]
            for _ in combinations(rest2, n_mcs):
                total += 1
    return total


class TestPlacementCount:
    def test_small_multinomial(self):
        assert placement_count(4, 2, 1, 1) == 12

    def test_empty(self):
        assert placement_count(4, 0, 0, 0) == 1

    def test_16_tiles_value(self):
        # Exact value for (16,8,4,2); independently recomputed via binomials.
        expected = (math.comb(16, 8) * math.comb(8, 4) * math.comb(4, 2)
                    * math.comb(2, 2))
        assert placement_count(16, 8, 4, 2) == expected == 5405400

    def test_overfull_rejected(self):
        with pytest.raises(InfeasibleError):
            placement_count(4, 3, 1, 1)

    @pytest.mark.parametrize("count", [2.0, 2.5, True, "2", None])
    def test_non_integer_count_or_family_parameter_rejected(self, count):
        # They used to escape as TypeError from math.factorial, a slice or
        # a range.
        with pytest.raises(InfeasibleError, match="cores count must be an integer"):
            placement_count(16, count, 4, 0)
        with pytest.raises(InfeasibleError, match="cores count must be an integer"):
            canonical_placement(CanonicalFamily.CENTRAL, MeshGrid(4, 4), count, 4, 0)
        for name in ("rings", "stripe_width", "cluster"):
            with pytest.raises(InfeasibleError, match=f"{name} must be an integer"):
                FamilyParams(**{name: count})

    @pytest.mark.parametrize("counts", [
        (6, 3, 2, 1), (4, 1, 1, 0), (5, 2, 2, 1), (8, 3, 2, 2), (7, 0, 4, 0),
    ])
    def test_matches_enumeration(self, counts):
        n, a, b, c = counts
        assert placement_count(n, a, b, c) == enumerate_placements(n, a, b, c)

    def test_enumeration_example(self):
        assert placement_count(6, 3, 2, 1) == 60


class TestSymmetryOrbit:
    def _single_core(self, grid, at):
        kinds = {c: NodeKind.ROUTER_ONLY for c in grid.tiles()}
        kinds[at] = NodeKind.CORE
        return build_placement(grid, kinds)

    def test_fully_symmetric_placement(self):
        # Caches in the center 2x2 of a 4x4 grid, cores everywhere else:
        # fixed by every symmetry of the square.
        g = MeshGrid(4, 4)
        kinds = {c: NodeKind.CORE for c in g.tiles()}
        for c in (Coord(1, 1), Coord(2, 1), Coord(1, 2), Coord(2, 2)):
            kinds[c] = NodeKind.CACHE
        assert len(symmetry_orbit(build_placement(g, kinds))) == 1

    def test_parity_checkerboard_odd_grid(self):
        g = MeshGrid(5, 5)
        kinds = {
            c: NodeKind.CACHE if (c.x + c.y) % 2 == 0 else NodeKind.CORE
            for c in g.tiles()
        }
        assert len(symmetry_orbit(build_placement(g, kinds))) == 1

    def test_corner_orbit(self):
        g = MeshGrid(3, 3)
        orbit = symmetry_orbit(self._single_core(g, Coord(0, 0)))
        assert len(orbit) == 4
        assert {p.cores[0] for p in orbit} == {
            Coord(0, 0), Coord(2, 0), Coord(0, 2), Coord(2, 2)
        }

    def test_edge_center_orbit(self):
        # (1,0) on 3x3 sits on the vertical mirror axis: the 8 symmetry maps
        # collapse to the 4 edge-center images.
        g = MeshGrid(3, 3)
        orbit = symmetry_orbit(self._single_core(g, Coord(1, 0)))
        assert len(orbit) == 4
        assert {p.cores[0] for p in orbit} == {
            Coord(1, 0), Coord(0, 1), Coord(2, 1), Coord(1, 2)
        }

    def test_generic_tile_orbit_is_8(self):
        g = MeshGrid(4, 4)
        orbit = symmetry_orbit(self._single_core(g, Coord(1, 0)))
        assert len(orbit) == 8

    @given(st.integers(2, 5), st.integers(2, 5), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_orbit_size_divides_group_and_preserves_counts(self, w, h, bits):
        g = MeshGrid(w, h)
        rng_kinds = []
        kinds = [NodeKind.CORE, NodeKind.CACHE, NodeKind.MC, NodeKind.ROUTER_ONLY]
        v = bits
        for _ in range(g.n_tiles):
            rng_kinds.append(kinds[v & 3])
            v >>= 2
        p = Placement(g, tuple(rng_kinds))
        orbit = symmetry_orbit(p)
        group = 8 if w == h else 4
        assert group % len(orbit) == 0
        assert all(q.counts == p.counts for q in orbit)

    def test_symmetry_permutations_are_bijections(self):
        g = MeshGrid(3, 4)
        for perm in g.symmetry_permutations():
            assert sorted(perm) == list(range(g.n_tiles))

    @staticmethod
    def _coordinate_perms(g, axis_preserving):
        # Oracle: the group as coordinate maps, in the order the search
        # relies on (identity first), deduplicated on first appearance.
        w, h = g.width, g.height
        maps = [lambda c: c, lambda c: Coord(w - 1 - c.x, c.y),
                lambda c: Coord(c.x, h - 1 - c.y), lambda c: Coord(w - 1 - c.x, h - 1 - c.y)]
        if w == h and not axis_preserving:
            maps += [lambda c: Coord(c.y, c.x), lambda c: Coord(c.y, w - 1 - c.x),
                     lambda c: Coord(w - 1 - c.y, c.x), lambda c: Coord(w - 1 - c.y, w - 1 - c.x)]
        perms = []
        for f in maps:
            perm = tuple(g.index(f(c)) for c in g.tiles())
            if perm not in perms:
                perms.append(perm)
        return perms

    @pytest.mark.parametrize("axis_preserving", [False, True])
    def test_symmetry_permutations_match_coordinate_maps(self, axis_preserving):
        for w in range(1, 7):
            for h in range(1, 7):
                g = MeshGrid(w, h)
                assert g.symmetry_permutations(axis_preserving) == \
                    self._coordinate_perms(g, axis_preserving), (w, h)


class TestCanonicalPlacements:
    def test_central_8x8_block(self):
        p = canonical_placement(CanonicalFamily.CENTRAL, MeshGrid(8, 8), 48, 16, 0)
        expected = {Coord(x, y) for x in range(2, 6) for y in range(2, 6)}
        assert set(p.caches) == expected
        assert p.counts == (48, 16, 0)

    def test_distributed_4x4_even_spacing(self):
        p = canonical_placement(CanonicalFamily.DISTRIBUTED, MeshGrid(4, 4), 12, 4, 0)
        assert set(p.caches) == {Coord(1, 1), Coord(3, 1), Coord(1, 3), Coord(3, 3)}
        # Even lattice: both coordinates live on an arithmetic progression
        # with equal spacing and centered margins.
        xs = sorted({c.x for c in p.caches})
        ys = sorted({c.y for c in p.caches})
        assert xs == [1, 3] and ys == [1, 3]

    def test_central_infeasible_when_overfull(self):
        with pytest.raises(InfeasibleError):
            canonical_placement(CanonicalFamily.CENTRAL, MeshGrid(2, 2), 0, 5, 0)

    def test_central_requires_square_count(self):
        with pytest.raises(InfeasibleError):
            canonical_placement(CanonicalFamily.CENTRAL, MeshGrid(8, 8), 40, 8, 0)

    @pytest.mark.parametrize("family", list(CanonicalFamily))
    def test_families_valid_and_deterministic_on_8x8(self, family):
        a = canonical_placement(family, MeshGrid(8, 8), 48, 16, 0)
        b = canonical_placement(family, MeshGrid(8, 8), 48, 16, 0)
        assert a == b
        assert a.counts == (48, 16, 0)

    def test_families_distinct_on_8x8(self):
        layouts = {
            family: frozenset(
                canonical_placement(family, MeshGrid(8, 8), 48, 16, 0).caches
            )
            for family in CanonicalFamily
        }
        assert len(set(layouts.values())) == len(CanonicalFamily)

    def test_striped_needs_whole_columns(self):
        with pytest.raises(InfeasibleError):
            canonical_placement(CanonicalFamily.STRIPED, MeshGrid(8, 8), 40, 12, 0)

    def test_checkerboard_needs_matching_count(self):
        with pytest.raises(InfeasibleError):
            canonical_placement(CanonicalFamily.CHECKERBOARD, MeshGrid(8, 8), 40, 12, 0)

    def test_distributed_needs_even_divisibility(self):
        with pytest.raises(InfeasibleError):
            canonical_placement(CanonicalFamily.DISTRIBUTED, MeshGrid(5, 5), 10, 3, 0)

    def test_concentric_capacity_limit(self):
        with pytest.raises(InfeasibleError):
            canonical_placement(CanonicalFamily.CONCENTRIC, MeshGrid(4, 4), 0, 14, 0)

    def test_mcs_on_perimeter(self):
        p = canonical_placement(CanonicalFamily.CENTRAL, MeshGrid(6, 6), 20, 4, 4)
        per = set(p.grid.perimeter())
        assert all(mc in per for mc in p.mcs)
        assert p.counts == (20, 4, 4)


class TestSerialization:
    def test_text_round_trip_central(self):
        p = canonical_placement(CanonicalFamily.CENTRAL, MeshGrid(8, 8), 48, 16, 0)
        assert Placement.from_text(p.to_text()) == p

    def test_json_round_trip(self):
        p = canonical_placement(CanonicalFamily.STRIPED, MeshGrid(8, 8), 40, 16, 4)
        assert Placement.from_json(p.to_json()) == p

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**72 - 1))
    @settings(max_examples=80, deadline=None)
    def test_text_round_trip_random(self, w, h, bits):
        g = MeshGrid(w, h)
        kinds = [NodeKind.CORE, NodeKind.CACHE, NodeKind.MC, NodeKind.ROUTER_ONLY]
        ks = []
        v = bits
        for _ in range(g.n_tiles):
            ks.append(kinds[v & 3])
            v >>= 2
        p = Placement(g, tuple(ks))
        assert Placement.from_text(p.to_text()) == p
        assert Placement.from_json(p.to_json()) == p
        assert placement_from_string(g, placement_string(p)) == p

    def test_bad_char_rejected(self):
        with pytest.raises(OutOfBoundsError):
            Placement.from_text("C$\nX.\n")

    def test_ragged_rejected(self):
        with pytest.raises(OutOfBoundsError):
            Placement.from_text("C$\nC\n")


class TestGridLimits:
    def test_too_large_rejected(self):
        with pytest.raises(InfeasibleError):
            MeshGrid(17, 4)

    def test_degenerate_row_allowed(self):
        assert MeshGrid(3, 1).n_tiles == 3

    @pytest.mark.parametrize("side", [2.5, True, "2", None])
    def test_non_integer_side_rejected(self, side):
        with pytest.raises(InfeasibleError):
            MeshGrid(side, 2)
        with pytest.raises(InfeasibleError):
            MeshGrid(2, side)

    def test_integer_like_side_becomes_int(self):
        g = MeshGrid(np.int64(3), 2)
        assert type(g.width) is int and g == MeshGrid(3, 2)

    def test_apply_symmetry_round_trips(self):
        g = MeshGrid(4, 4)
        p = canonical_placement(CanonicalFamily.CENTRAL, g, 12, 4, 0)
        perms = g.symmetry_permutations()
        assert apply_symmetry(p, perms[0]) == p  # identity first


def _family(family, side, cores, caches, mcs=0, w=None, **params):
    grid = MeshGrid(w or side, side)
    return lambda: canonical_placement(family, grid, cores, caches, mcs, FamilyParams(**params))


C, R, S, K, D = (CanonicalFamily.CENTRAL, CanonicalFamily.CONCENTRIC, CanonicalFamily.STRIPED,
                 CanonicalFamily.CHECKERBOARD, CanonicalFamily.DISTRIBUTED)
G22 = MeshGrid(2, 2)


@pytest.mark.parametrize("call,error,message", [
    (lambda: Placement(G22, (NodeKind.CORE,) * 3), OutOfBoundsError,
     "assignment covers 3 tiles, grid has 4"),
    (lambda: placement_from_string(G22, "CC$.").kind_at(Coord(2, 0)), OutOfBoundsError,
     "outside 2x2 grid"),
    (lambda: Placement.from_text("\n  \n"), OutOfBoundsError, "empty placement text"),
    (lambda: Placement.from_json_dict({"width": 2, "height": 2, "tiles": [["core", "cache"]]}),
     OutOfBoundsError, "tiles array does not match width/height"),
    (lambda: placement_from_string(G22, "CC$"), OutOfBoundsError,
     "string covers 3 tiles, grid has 4"),
    (lambda: placement_count(4, 1, -1, 0), InfeasibleError, "negative caches count: -1"),
    (_family(C, 2, 0, 9, w=8), InfeasibleError, "3x3 cache block does not fit 8x2"),
    (_family(D, 4, 0, 7), InfeasibleError, "cannot spread 7 caches evenly on 4x4"),
    (_family(R, 4, 0, 4, rings=0), InfeasibleError, "needs at least one ring"),
    (_family(R, 2, 0, 1), InfeasibleError, "grid 2x2 too small for rings"),
    (_family(R, 4, 0, 13), InfeasibleError, "13 caches exceed ring capacity 12"),
    (_family(S, 4, 0, 4, stripe_width=0), InfeasibleError, "stripe width must be >= 1"),
    (_family(S, 4, 0, 6), InfeasibleError, "6 caches do not fill whole columns of height 4"),
    (_family(S, 4, 0, 4, stripe_width=2), InfeasibleError,
     "1 cache columns not divisible into stripes of 2"),
    (_family(S, 4, 0, 8, w=5), InfeasibleError, "2 stripes do not space evenly over width 5"),
    (_family(K, 4, 0, 4, cluster=0), InfeasibleError, "cluster must be >= 1"),
    (_family(K, 4, 0, 4, cluster=3), InfeasibleError, "cluster 3 does not tile 4x4"),
    (_family(K, 4, 0, 5), InfeasibleError, "checkerboard with cluster 2 places 4 caches, need 5"),
    (_family(C, 4, 1, 0), InfeasibleError, "need n_caches >= 1"),
    (_family(C, 4, 12, 4, 1), InfeasibleError, "12+4+1 nodes exceed 16 tiles"),
    (_family(R, 3, 0, 1, 8), InfeasibleError,
     "only 7 free perimeter tiles for 8 memory controllers"),
], ids=["placement-size", "kind-at", "empty-text", "json-tiles", "string-size",
        "negative-count", "central-block", "distributed", "no-rings", "rings-grid",
        "ring-capacity", "stripe-width", "stripe-columns", "stripe-groups", "stripe-spacing",
        "no-cluster", "cluster-tiling", "cluster-count", "no-caches", "too-many-nodes",
        "perimeter-mcs"])
def test_infeasible_inputs_raise_their_typed_error(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert message in str(exc.value)


def test_concentric_quotas_top_up_the_outer_rings():
    # Two rings of 12 and 20 tiles on 8x8 share 10 caches in proportion,
    # 3 and 6 rounded down; the remainder goes to the outer ring.
    p = canonical_placement(R, MeshGrid(8, 8), 0, 10, 0, FamilyParams(rings=2))

    def ring(c):  # offset from the central 2x2 block
        return max(3 - c.x, c.x - 4, 3 - c.y, c.y - 4)

    assert sorted(ring(c) for c in p.caches) == [1] * 3 + [2] * 7
