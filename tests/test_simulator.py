import math

import numpy as np
import pytest

from nocplace import (
    CanonicalFamily,
    Coord,
    InvalidConfigError,
    MeshGrid,
    NodeKind,
    Port,
    SimConfig,
    SweepRow,
    TrafficSpec,
    aggregate_sweep,
    build_placement,
    canonical_placement,
    compare_to_analytical,
    run_sim,
    sweep_latency,
)
from nocplace.simulator import write_sweep_csv
from nocplace.traffic import matrix


def place(grid, cores=(), caches=(), mcs=()):
    kinds = {c: NodeKind.ROUTER_ONLY for c in grid.tiles()}
    kinds.update({c: NodeKind.CORE for c in cores})
    kinds.update({c: NodeKind.CACHE for c in caches})
    kinds.update({c: NodeKind.MC for c in mcs})
    return build_placement(grid, kinds)


def line3():
    g = MeshGrid(3, 1)
    return place(g, cores=[Coord(0, 0)], caches=[Coord(2, 0)])


def single_queue_mesh():
    g = MeshGrid(2, 1)
    return place(g, cores=[Coord(0, 0)], caches=[Coord(1, 0)])


class TestRunSim:
    def test_determinism_bit_identical(self):
        cfg = SimConfig(line3(), TrafficSpec(lambda_g=0.3, p=matrix([[1.0]])),
                        messages=5000, seed=77)
        assert run_sim(cfg) == run_sim(cfg)

    def test_seeds_differ(self):
        base = dict(placement=line3(),
                    traffic=TrafficSpec(lambda_g=0.3, p=matrix([[1.0]])),
                    messages=5000)
        a = run_sim(SimConfig(seed=1, **base))
        b = run_sim(SimConfig(seed=2, **base))
        assert a.mean_latency != b.mean_latency

    def test_conservation(self):
        cfg = SimConfig(line3(), TrafficSpec(lambda_g=0.4, p=matrix([[1.0]])),
                        messages=8000, seed=3)
        stats = run_sim(cfg)
        assert stats.messages_completed == stats.messages_generated == 8000
        assert stats.derived_completed == stats.derived_generated
        assert type(stats.duration) is float
        assert type(stats.channels[(Coord(0, 0), Port.LOCAL)].mean_response) is float

    def test_zero_load_latency_is_three_services(self):
        # Path of 3 routers, mean message 10 packets, mu=10: about 3 time
        # units end to end when queueing is negligible.
        cfg = SimConfig(line3(), TrafficSpec(lambda_g=0.001, p=matrix([[1.0]])),
                        messages=20000, seed=11)
        stats = run_sim(cfg)
        assert stats.mean_latency == pytest.approx(3.0 * (10.0 / 10.0), rel=0.05)
        assert not stats.saturated

    @pytest.mark.parametrize("rho", [0.3, 0.5, 0.7])
    def test_single_queue_matches_mm1(self, rho):
        # The source injection channel of a 1x2 mesh is exactly M/M/1-like:
        # Poisson arrivals, (discretized) exponential service at rate mu/L.
        cfg = SimConfig(single_queue_mesh(),
                        TrafficSpec(lambda_g=rho, p=matrix([[1.0]])),
                        messages=100_000, seed=5)
        stats = run_sim(cfg)
        rt = stats.channels[(Coord(0, 0), Port.LOCAL)].mean_response
        assert rt == pytest.approx(1.0 / (1.0 - rho), rel=0.05)

    def test_saturated_run_flags_and_grows(self):
        base = dict(placement=line3(),
                    traffic=TrafficSpec(lambda_g=1.3, p=matrix([[1.0]])))
        small = run_sim(SimConfig(messages=4000, seed=9, **base))
        big = run_sim(SimConfig(messages=8000, seed=9, **base))
        assert small.saturated and big.saturated
        assert big.mean_latency > 1.5 * small.mean_latency

    def test_littles_law_per_channel(self):
        g = MeshGrid(4, 4)
        p = canonical_placement(CanonicalFamily.CENTRAL, g, 12, 4, 0)
        cfg = SimConfig(p, TrafficSpec(lambda_g=0.15), messages=60_000, seed=13)
        stats = run_sim(cfg)
        checked = 0
        for key, ch in stats.channels.items():
            if ch.completions < 500:
                continue
            lam = ch.arrivals / stats.window
            residual = abs(ch.mean_queue_len - lam * ch.mean_response)
            assert residual / ch.mean_queue_len <= 0.05, key
            checked += 1
        assert checked >= 10

    def test_throughput_tracks_offered_load(self):
        cfg = SimConfig(line3(), TrafficSpec(lambda_g=0.5, p=matrix([[1.0]])),
                        messages=50_000, seed=21)
        stats = run_sim(cfg)
        for key, ch in stats.channels.items():
            assert ch.throughput == pytest.approx(0.5, rel=0.02), key

    def test_seed_independence_of_means(self):
        g = MeshGrid(3, 3)
        p = canonical_placement(CanonicalFamily.CENTRAL, g, 8, 1, 0)
        means = []
        for seed in range(5):
            cfg = SimConfig(p, TrafficSpec(lambda_g=0.02), messages=50_000, seed=seed)
            means.append(run_sim(cfg).mean_latency)
        arr = np.asarray(means)
        assert arr.std(ddof=1) / arr.mean() < 0.05

    def test_mc_legs_follow_miss_ratio(self):
        g = MeshGrid(4, 1)
        p = place(g, cores=[Coord(0, 0)], caches=[Coord(2, 0)], mcs=[Coord(3, 0)])
        cfg = SimConfig(p, TrafficSpec(lambda_g=0.2, miss_l2=0.25, p=matrix([[1.0]])),
                        messages=40_000, seed=8)
        stats = run_sim(cfg)
        assert stats.derived_generated == pytest.approx(0.25 * 40_000, rel=0.05)

    def test_replies_generated(self):
        cfg = SimConfig(single_queue_mesh(),
                        TrafficSpec(lambda_g=0.1, p=matrix([[1.0]]), model_replies=True),
                        messages=5000, seed=6)
        stats = run_sim(cfg)
        assert stats.derived_generated == 5000
        assert stats.derived_completed == 5000

    def test_invalid_config_rejected(self):
        with pytest.raises(InvalidConfigError):
            SimConfig(line3(), TrafficSpec(), messages=0)
        # Non-integral budgets used to pass and fail later inside numpy.
        for bad in (2.5, 1000.0, True, math.inf, "100"):
            with pytest.raises(InvalidConfigError, match="must be an integer"):
                SimConfig(line3(), TrafficSpec(), messages=bad)
        assert type(SimConfig(line3(), TrafficSpec(), messages=np.int64(50)).messages) is int
        with pytest.raises(InvalidConfigError):
            SimConfig(line3(), TrafficSpec(), warmup_frac=1.0)
        with pytest.raises(InvalidConfigError):
            SimConfig(line3(), TrafficSpec(), mu=0.0)
        # NaN compares false with everything, so ``<= 0`` alone lets it pass.
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidConfigError, match="mu must be finite"):
                SimConfig(line3(), TrafficSpec(), mu=bad)
            with pytest.raises(InvalidConfigError, match="message size must be finite"):
                SimConfig(line3(), TrafficSpec(), mean_message_size=bad)


class TestSweep:
    def _base(self):
        g = MeshGrid(3, 3)
        p = canonical_placement(CanonicalFamily.CENTRAL, g, 8, 1, 0)
        return p, SimConfig(p, TrafficSpec(lambda_g=0.05), messages=4000, seed=0)

    def test_single_cell_matches_run_sim(self):
        p, base = self._base()
        rows = sweep_latency([("central", p)], [0.05], base, seeds=[0])
        direct = run_sim(base)
        assert rows[0].mean_latency == direct.mean_latency
        assert rows[0].ci95 == direct.ci95

    def test_factorial_shape_and_aggregate(self):
        p, base = self._base()
        rows = sweep_latency([("a", p), ("b", p)], [0.02, 0.05], base, seeds=[0, 1])
        assert len(rows) == 8
        cells = aggregate_sweep(rows)
        assert set(cells) == {("a", 0.02), ("a", 0.05), ("b", 0.02), ("b", 0.05)}
        assert all(c.n_seeds == 2 for c in cells.values())

    def test_jobs_do_not_change_the_rows(self):
        # Each cell's SimConfig is pickled to a worker, and its row back.
        g = MeshGrid(4, 4)
        placements = [(f.value, canonical_placement(f, g, 8, 4, 0))
                      for f in (CanonicalFamily.CENTRAL, CanonicalFamily.DISTRIBUTED)]
        base = SimConfig(placements[0][1], TrafficSpec(lambda_g=0.05), messages=300, seed=0)
        seq = sweep_latency(placements, [0.05, 0.1], base, seeds=[0, 1], jobs=1)
        par = sweep_latency(placements, [0.05, 0.1], base, seeds=[0, 1], jobs=2)
        assert len(seq) == 8
        assert par == seq

    def test_csv_columns(self, tmp_path):
        p, base = self._base()
        rows = sweep_latency([("central", p)], [0.05], base, seeds=[0])
        out = tmp_path / "sweep.csv"
        with open(out, "w", newline="") as fh:
            write_sweep_csv(rows, fh)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "family,lambda_g,seed,mean_latency,ci95,saturated"
        assert len(lines) == 2

    @pytest.mark.parametrize("df,t", [(10, 2.228139), (15, 2.131450), (20, 2.085963),
                                      (30, 2.042272), (60, 2.000298), (120, 1.979930)])
    def test_aggregate_interval_uses_the_t_quantile_of_many_seeds(self, df, t):
        # df + 1 seeds with means 0..df: the half-width over std/sqrt(n) is
        # the t quantile, not the normal 1.96.
        means = np.arange(df + 1.0)
        rows = [SweepRow("a", 0.1, seed, float(m), 0.0, False) for seed, m in enumerate(means)]
        cell = aggregate_sweep(rows)[("a", 0.1)]
        got = cell.ci95 * math.sqrt(df + 1) / means.std(ddof=1)
        assert got == pytest.approx(t, rel=5e-4)

    def test_grid_mismatch_rejected(self):
        p, base = self._base()
        other = canonical_placement(CanonicalFamily.CENTRAL, MeshGrid(4, 4), 12, 4, 0)
        with pytest.raises(InvalidConfigError):
            sweep_latency([("other", other)], [0.05], base)


class TestCompareToAnalytical:
    def test_zero_load_agreement(self):
        cfg = SimConfig(line3(), TrafficSpec(lambda_g=0.001, p=matrix([[1.0]])),
                        messages=30_000, seed=17)
        report = compare_to_analytical(cfg)
        assert report.analytical_available
        assert report.max_rel_err < 0.01

    def test_moderate_load_within_model_error(self):
        g = MeshGrid(4, 4)
        p = canonical_placement(CanonicalFamily.CENTRAL, g, 12, 4, 0)
        cfg = SimConfig(p, TrafficSpec(lambda_g=0.1), messages=60_000, seed=23)
        report = compare_to_analytical(cfg)
        assert report.analytical_available
        assert report.mean_rel_err <= 0.25

    def test_unstable_analytical_reported_not_fatal(self):
        cfg = SimConfig(line3(), TrafficSpec(lambda_g=1.5, p=matrix([[1.0]])),
                        messages=3000, seed=2)
        report = compare_to_analytical(cfg)
        assert not report.analytical_available
        assert "unavailable" in report.detail
        assert all(math.isnan(err) for _, _, _, _, err in report.rows)
        assert len(report.rows) > 0
