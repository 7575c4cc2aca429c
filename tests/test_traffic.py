import math

import numpy as np
import pytest

from nocplace import (
    Coord,
    InvalidTrafficError,
    MeshGrid,
    NoCachesError,
    NodeKind,
    SearchSpace,
    ServiceSpec,
    SimConfig,
    TrafficSpec,
    Placement,
    build_placement,
    exhaustive_search,
    objective,
    run_sim,
)
from nocplace.traffic import matrix, resolve


def place(grid, cores=(), caches=(), mcs=()):
    kinds = {c: NodeKind.ROUTER_ONLY for c in grid.tiles()}
    kinds.update({c: NodeKind.CORE for c in cores})
    kinds.update({c: NodeKind.CACHE for c in caches})
    kinds.update({c: NodeKind.MC for c in mcs})
    return build_placement(grid, kinds)


class TestSpecValidation:
    def test_hit_ratio_bounds(self):
        with pytest.raises(InvalidTrafficError):
            TrafficSpec(hit_l1=1.5)
        with pytest.raises(InvalidTrafficError):
            TrafficSpec(miss_l2=-0.1)
        with pytest.raises(InvalidTrafficError, match="must be numbers"):
            TrafficSpec(hit_l1="0.5")

    def test_service_spec_bounds(self):
        with pytest.raises(InvalidTrafficError):
            ServiceSpec(mean_service=0.0)
        with pytest.raises(InvalidTrafficError):
            ServiceSpec(scv=-1.0)
        with pytest.raises(InvalidTrafficError, match="must be numbers"):
            ServiceSpec(mean_service="1.0")

    def test_miss_l1_derived(self):
        assert TrafficSpec(hit_l1=0.3).miss_l1 == pytest.approx(0.7)

    def test_with_rate_keeps_everything_else(self):
        t = TrafficSpec(lambda_g=0.1, hit_l1=0.2, miss_l2=0.4, latency_l1=3.0)
        u = t.with_rate(0.5)
        assert u.lambda_g == 0.5
        assert (u.hit_l1, u.miss_l2, u.latency_l1) == (0.2, 0.4, 3.0)


class TestResolve:
    def test_uniform_default_access(self):
        g = MeshGrid(3, 1)
        p = place(g, cores=[Coord(0, 0)], caches=[Coord(1, 0), Coord(2, 0)])
        r = resolve(p, TrafficSpec())
        assert r.p.shape == (1, 2)
        assert np.allclose(r.p, 0.5)

    def test_per_core_rate_vector(self):
        g = MeshGrid(3, 1)
        p = place(g, cores=[Coord(0, 0), Coord(1, 0)], caches=[Coord(2, 0)])
        r = resolve(p, TrafficSpec(lambda_g=(0.1, 0.3)))
        assert list(r.lam) == [0.1, 0.3]

    def test_rate_vector_length_mismatch(self):
        g = MeshGrid(3, 1)
        p = place(g, cores=[Coord(0, 0)], caches=[Coord(2, 0)])
        with pytest.raises(InvalidTrafficError):
            resolve(p, TrafficSpec(lambda_g=(0.1, 0.3)))

    def test_row_sum_enforced(self):
        g = MeshGrid(3, 1)
        p = place(g, cores=[Coord(0, 0)], caches=[Coord(1, 0), Coord(2, 0)])
        with pytest.raises(InvalidTrafficError):
            resolve(p, TrafficSpec(p=matrix([[0.7, 0.7]])))

    def test_no_caches(self):
        g = MeshGrid(2, 1)
        p = place(g, cores=[Coord(0, 0)])
        with pytest.raises(NoCachesError):
            resolve(p, TrafficSpec())

    def test_nearest_mc_split(self):
        # Cache equidistant from two controllers: the miss stream splits.
        g = MeshGrid(3, 1)
        p = place(g, caches=[Coord(1, 0)], mcs=[Coord(0, 0), Coord(2, 0)],
                  cores=())
        # resolve requires caches only; zero cores is fine for q.
        r = resolve(p, TrafficSpec())
        assert np.allclose(r.q, [[0.5, 0.5]])

    def test_unique_nearest_mc(self):
        g = MeshGrid(4, 1)
        p = place(g, cores=[Coord(0, 0)], caches=[Coord(1, 0)],
                  mcs=[Coord(2, 0), Coord(3, 0)])
        r = resolve(p, TrafficSpec())
        assert np.allclose(r.q, [[1.0, 0.0]])


class TestNanTraffic:
    """NaN compares false both ways, so range checks written as ``< low`` or
    ``> high`` let it through, and an infinite rate passes ``>= 0``; every
    entry point must reject both instead."""

    NAN_P = ((math.nan, 1.0), (0.5, 0.5))

    def _placement(self):
        return Placement.from_text("C$.\n.$.\n.C.")

    @pytest.mark.parametrize("rows", [((math.nan, 1.0), (0.5, 0.5)),
                                      ((0.5, 0.5), (1.0, math.nan))])
    def test_resolve_rejects_nan_access(self, rows):
        with pytest.raises(InvalidTrafficError, match="p entries"):
            resolve(self._placement(), TrafficSpec(p=rows))

    @pytest.mark.parametrize("lam", [math.nan, (0.1, math.nan), math.inf, (0.1, math.inf)])
    def test_resolve_rejects_nan_rate(self, lam):
        with pytest.raises(InvalidTrafficError, match="injection rates"):
            resolve(self._placement(), TrafficSpec(lambda_g=lam))

    def test_objective_rejects_nan(self):
        with pytest.raises(InvalidTrafficError):
            objective(self._placement(), TrafficSpec(p=self.NAN_P))

    def test_exhaustive_search_rejects_nan(self):
        with pytest.raises(InvalidTrafficError):
            exhaustive_search(SearchSpace(MeshGrid(3, 3), 2, 2), TrafficSpec(p=self.NAN_P))

    def test_run_sim_rejects_nan(self):
        with pytest.raises(InvalidTrafficError):
            run_sim(SimConfig(self._placement(), TrafficSpec(p=self.NAN_P), messages=100))


class TestNonFiniteValues:
    """NaN and infinities are neither rates, times nor SCVs. Accepted, they
    made the LOW objective nan or inf, and HIGH run its fixed point to the
    iteration cap and then report non-convergence."""

    @pytest.mark.parametrize("field,value", [
        ("mean_service", math.nan), ("mean_service", math.inf), ("mean_service", -math.inf),
        ("scv", math.nan), ("scv", math.inf),
    ])
    def test_service_spec_rejects(self, field, value):
        with pytest.raises(InvalidTrafficError, match="must be finite"):
            ServiceSpec(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("arrival_scv", math.nan), ("arrival_scv", math.inf),
        ("latency_l1", math.nan), ("latency_l1", math.inf), ("latency_l1", -math.inf),
        ("mem_fixed_latency", math.nan), ("mem_fixed_latency", math.inf),
    ])
    def test_traffic_spec_rejects(self, field, value):
        with pytest.raises(InvalidTrafficError, match="must be finite"):
            TrafficSpec(**{field: value})


class TestMalformedInput:
    """Input that numpy cannot turn into a rate vector or an access matrix
    raises the typed error, not numpy's ValueError."""

    @pytest.mark.parametrize("spec,match", [
        (TrafficSpec(p=((0.5, 0.5), (1.0,))), "p must be a numeric matrix"),
        (TrafficSpec(p=((0.5, 0.5), (0.5, "x"))), "p must be a numeric matrix"),
        (TrafficSpec(lambda_g=(0.1, "x")), "lambda_g entries must be numbers"),
        (TrafficSpec(lambda_g=(0.1, None)), "lambda_g entries must be numbers"),
    ])
    def test_resolve_raises_invalid_traffic(self, spec, match):
        with pytest.raises(InvalidTrafficError, match=match):
            resolve(Placement.from_text("C$.\n.$.\n.C."), spec)
