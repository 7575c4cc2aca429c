"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured values. Run with `pytest tests/test_acceptance.py -v -s`.

Heavy simulations use the documented defaults: 8x8 mesh, 48 cores, 16 caches,
no memory controllers, mu = 10 packets/time with mean message size 10 (one
mean message service per time unit per channel).
"""

import math
import random
from functools import lru_cache
from itertools import combinations

import pytest

from nocplace import (
    CanonicalFamily,
    Coord,
    MeshGrid,
    Mode,
    NodeKind,
    Placement,
    Port,
    ServiceSpec,
    SimConfig,
    TrafficSpec,
    build_placement,
    canonical_placement,
    exhaustive_search,
    manhattan,
    objective,
    packet_delay_inspector,
    placement_count,
    run_sim,
    two_phase_optimize,
)
from nocplace.mesh import placement_from_string, placement_string
from nocplace.optimizer import SearchSpace
from nocplace.traffic import matrix
from oracles import apply_symmetry

GRID8 = MeshGrid(8, 8)
N_CORES, N_CACHES = 48, 16  # documented defaults for the 8x8 experiments
SEEDS = (0, 1, 2)
MESSAGES = 50_000

# Operational saturation threshold for criterion 1: mean latency above 55
# time units (about 8x the zero-load mean) marks the saturation regime.
SATURATION_LATENCY = 55.0


@lru_cache(maxsize=None)
def family_placement(family: CanonicalFamily) -> Placement:
    return canonical_placement(family, GRID8, N_CORES, N_CACHES, 0)


def sim_cells(placement, rate, messages=MESSAGES, seeds=SEEDS):
    """Per-seed (mean latency, 95% CI half-width, saturated flag)."""
    cells = []
    for seed in seeds:
        stats = run_sim(SimConfig(placement, TrafficSpec(lambda_g=rate),
                                  messages=messages, seed=seed))
        cells.append((stats.mean_latency, stats.ci95, stats.saturated))
    return cells


def test_criterion_1_fig7_crossover():
    """Central wins at low load, distributed wins at high load and reaches
    the saturation regime at a strictly higher rate."""
    central = family_placement(CanonicalFamily.CENTRAL)
    distributed = family_placement(CanonicalFamily.DISTRIBUTED)

    # (i) Low rate: central strictly lowest among the five families, every
    # per-seed 95% CI disjoint from every central CI.
    low = {f: sim_cells(family_placement(f), 0.01) for f in CanonicalFamily}
    central_upper = max(m + ci for m, ci, _ in low[CanonicalFamily.CENTRAL])
    for family, cells in low.items():
        if family is CanonicalFamily.CENTRAL:
            continue
        other_lower = min(m - ci for m, ci, _ in cells)
        assert other_lower > central_upper, (
            f"{family.value} CI [{other_lower:.3f}, ...] overlaps central "
            f"upper bound {central_upper:.3f} at rate 0.01"
        )

    # (ii) Higher rate, still stable for distributed: distributed strictly
    # beats central, seed-paired CIs disjoint.
    c_mid = sim_cells(central, 0.23)
    d_mid = sim_cells(distributed, 0.23)
    assert not any(sat for _, _, sat in d_mid), "distributed saturated at 0.23"
    for (cm, cc, _), (dm, dc, _) in zip(c_mid, d_mid):
        assert dm + dc < cm - cc, (
            f"distributed {dm:.2f}+-{dc:.2f} not below central {cm:.2f}+-{cc:.2f}"
        )

    # (iii) Saturation ordering: central's latency curve crosses the
    # saturation threshold at a strictly lower rate. At 0.25 every central
    # CI lies above the threshold while every distributed CI lies below it;
    # distributed crosses only by 0.30.
    c_sat = sim_cells(central, 0.25)
    d_sat = sim_cells(distributed, 0.25)
    d_hi = sim_cells(distributed, 0.30)
    assert all(m - ci > SATURATION_LATENCY for m, ci, _ in c_sat), c_sat
    assert all(m + ci < SATURATION_LATENCY for m, ci, _ in d_sat), d_sat
    assert all(m - ci > SATURATION_LATENCY for m, ci, _ in d_hi), d_hi

    print(
        "[criterion 1] PASS - central lowest at 0.01 "
        f"(upper {central_upper:.3f} vs others >= "
        f"{min(min(m - ci for m, ci, _ in cells) for f, cells in low.items() if f is not CanonicalFamily.CENTRAL):.3f}); "
        f"distributed beats central at 0.23 ({d_mid[0][0]:.1f} < {c_mid[0][0]:.1f}); "
        f"saturation threshold {SATURATION_LATENCY} crossed by central at 0.25 "
        f"({c_sat[0][0]:.0f}) but by distributed only beyond 0.25 "
        f"({d_sat[0][0]:.0f} -> {d_hi[0][0]:.0f} at 0.30)"
    )


def test_criterion_2_mm1_oracle():
    """Single-channel simulated response time matches 1/(mu - lambda)."""
    g = MeshGrid(2, 1)
    kinds = {Coord(0, 0): NodeKind.CORE, Coord(1, 0): NodeKind.CACHE}
    placement = build_placement(g, kinds)
    worst = 0.0
    for rho in (0.3, 0.5, 0.7):
        cfg = SimConfig(placement, TrafficSpec(lambda_g=rho, p=matrix([[1.0]])),
                        messages=100_000, seed=5)
        stats = run_sim(cfg)
        measured = stats.channels[(Coord(0, 0), Port.LOCAL)].mean_response
        oracle = 1.0 / (1.0 - rho)  # mu_msg = mu/mean_size = 1 message/time
        err = abs(measured - oracle) / oracle
        worst = max(worst, err)
        assert err <= 0.05, f"rho={rho}: {measured:.4f} vs {oracle:.4f} ({err:.2%})"
    print(f"[criterion 2] PASS - M/M/1 response within {worst:.2%} at rho 0.3/0.5/0.7")


def discretized_mean_service(mean_size=10.0, mu=10.0):
    """Independent oracle for E{S} with lengths max(1, round(Exp(mean)))."""
    e_len = 1.0 - math.exp(-0.5 / mean_size)  # rounds to zero -> length 1
    for k in range(1, 600):
        e_len += k * (math.exp(-(k - 0.5) / mean_size)
                      - math.exp(-(k + 0.5) / mean_size))
    return e_len / mu


def test_criterion_3_zero_load_agreement():
    """At lambda_g = mu_msg/1000 the simulator, the delay inspector and the
    plain hop count times E{S} agree within 1%."""
    rate = 1.0 / 1000.0  # mu_msg = 1 message per time unit
    es = discretized_mean_service()
    svc = ServiceSpec(mean_service=es)

    # Single-flow line: per-flow agreement.
    g = MeshGrid(3, 1)
    line = build_placement(g, {Coord(0, 0): NodeKind.CORE,
                               Coord(1, 0): NodeKind.ROUTER_ONLY,
                               Coord(2, 0): NodeKind.CACHE})
    spec = TrafficSpec(lambda_g=rate, p=matrix([[1.0]]), svc=svc)
    sim = run_sim(SimConfig(line, spec, messages=100_000, seed=17))
    sim_flow = sim.flow_latency[(Coord(0, 0), Coord(2, 0))]
    [(_, ana_flow)] = packet_delay_inspector(line, spec).flow_delays
    ref = 3 * es
    for a, b in ((sim_flow, ana_flow), (sim_flow, ref), (ana_flow, ref)):
        assert abs(a - b) / b <= 0.01, (sim_flow, ana_flow, ref)

    # Multi-flow mesh: rate-weighted aggregate agreement.
    mesh = canonical_placement(CanonicalFamily.CENTRAL, MeshGrid(3, 3), 8, 1, 0)
    spec = TrafficSpec(lambda_g=rate, svc=svc)
    sim = run_sim(SimConfig(mesh, spec, messages=100_000, seed=23))
    report = packet_delay_inspector(mesh, spec)
    total = sum(f.rate for f, _ in report.flow_delays)
    ana_mean = sum(f.rate * d for f, d in report.flow_delays) / total
    ref_mean = sum(f.rate * (manhattan(f.src, f.dst) + 1) * es
                   for f, _ in report.flow_delays) / total
    for a, b in ((sim.mean_latency, ana_mean), (sim.mean_latency, ref_mean),
                 (ana_mean, ref_mean)):
        assert abs(a - b) / b <= 0.01, (sim.mean_latency, ana_mean, ref_mean)
    print(
        "[criterion 3] PASS - zero-load sim/analytical/hop-count agree within 1% "
        f"(line: {sim_flow:.4f}/{ana_flow:.4f}/{ref:.4f}; "
        f"mesh: {sim.mean_latency:.4f}/{ana_mean:.4f}/{ref_mean:.4f})"
    )


def diagonal_profile_sim(stats, grid):
    values = []
    for i in range(grid.width):
        router = Coord(i, i)
        weight, acc = 0.0, 0.0
        for (coord, port), ch in stats.channels.items():
            if coord == router and ch.completions:
                weight += ch.arrivals
                acc += ch.arrivals * ch.mean_response
        values.append(acc / weight if weight else 1.0)
    return values


def assert_center_peaked(values, label):
    # The cache block spans diagonal indices 2..5: the peak must lie there,
    # the profile must rise monotonically into the block from both corners
    # (ties allowed) and the block must dominate the periphery.
    peak = max(range(8), key=lambda i: values[i])
    assert 2 <= peak <= 5, f"{label}: peak at {peak}: {values}"
    assert values[0] <= values[1] <= values[2], f"{label}: west rise violated: {values}"
    assert values[7] <= values[6] <= values[5], f"{label}: east rise violated: {values}"
    assert min(values[2:6]) > max(values[0], values[1], values[6], values[7]), (
        f"{label}: central block does not dominate periphery: {values}"
    )


def test_criterion_4_center_congestion_profile():
    """Both simulated and analytical response times peak in the central
    region of the diagonal and fall off toward the corners."""
    placement = family_placement(CanonicalFamily.CENTRAL)
    spec = TrafficSpec(lambda_g=0.15)
    report = packet_delay_inspector(placement, spec)
    analytical = [report.routers[Coord(i, i)].weighted_rt() for i in range(8)]
    assert_center_peaked(analytical, "analytical")
    for seed in SEEDS:
        stats = run_sim(SimConfig(placement, spec, messages=150_000, seed=seed))
        simulated = diagonal_profile_sim(stats, GRID8)
        assert_center_peaked(simulated, f"simulated seed {seed}")
    print(
        "[criterion 4] PASS - diagonal profile peaks in the cache block "
        f"(analytical {analytical[0]:.2f} -> {max(analytical):.2f} -> {analytical[7]:.2f})"
    )


def naive_min(space, spec):
    grid = space.grid
    tiles = list(range(grid.n_tiles))
    best, argmin = math.inf, set()
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
                v = objective(placement_from_string(grid, s), spec,
                              space.mode).objective_value
                tol = 1e-9 * max(1.0, abs(best)) if math.isfinite(best) else 0.0
                if not math.isfinite(best) or v < best - tol:
                    best, argmin = v, {s}
                elif v <= best + tol:
                    argmin.add(s)
    return best, argmin


def test_criterion_5_optimizer_oracle_equivalence():
    """Symmetry-pruned exhaustive search equals unpruned naive enumeration
    on 20 random instances; the 3x3 single-cache instance yields the center."""
    rng = random.Random(20260808)
    checked = 0
    while checked < 20:
        w = rng.randint(2, 3)
        h = rng.randint(2, 3)
        n = w * h
        nr = rng.randint(1, min(4, n - 1))
        nh = rng.randint(1, min(2, n - nr))
        nm = rng.randint(0, min(1, n - nr - nh))
        if placement_count(n, nr, nh, nm) > 5000:
            continue
        space = SearchSpace(MeshGrid(w, h), nr, nh, nm)
        spec = TrafficSpec(miss_l2=rng.choice([0.1, 0.3]))
        result = exhaustive_search(space, spec)
        best, argmin = naive_min(space, spec)
        assert result.objective_value == pytest.approx(best, rel=1e-9)
        assert {placement_string(p) for p in result.best} == argmin
        checked += 1

    center = exhaustive_search(SearchSpace(MeshGrid(3, 3), 8, 1), TrafficSpec())
    assert len(center.best) == 1
    assert center.best[0].caches == [Coord(1, 1)]
    print(f"[criterion 5] PASS - {checked} random instances match naive "
          "enumeration; 3x3 single cache lands on the center tile")


def test_criterion_6_two_phase_vs_joint():
    """Low-traffic two-phase equals joint exhaustive exactly; high-traffic
    gap stays within 5% (measured)."""
    spec = TrafficSpec(miss_l2=0.1)
    low_instances = [
        (3, 3, 3, 1, 1),
        (3, 3, 4, 2, 1),
        (3, 3, 2, 2, 2),
        (4, 3, 3, 2, 1),
        (4, 4, 4, 1, 1),
    ]
    for w, h, nr, nh, nm in low_instances:
        space = SearchSpace(MeshGrid(w, h), nr, nh, nm)
        joint = exhaustive_search(space, spec)
        decomposed = two_phase_optimize(space, spec)
        assert decomposed.objective_value == pytest.approx(
            joint.objective_value, rel=1e-12), (w, h, nr, nh, nm)

    high_spec = TrafficSpec(lambda_g=0.08, miss_l2=0.2)
    worst_gap = 0.0
    for w, h, nr, nh, nm in [(3, 3, 3, 1, 1), (3, 3, 2, 2, 1), (4, 3, 3, 1, 1)]:
        space = SearchSpace(MeshGrid(w, h), nr, nh, nm, mode=Mode.HIGH)
        joint = exhaustive_search(space, high_spec, prefilter=False)
        decomposed = two_phase_optimize(space, high_spec)
        gap = (decomposed.objective_value - joint.objective_value) / joint.objective_value
        worst_gap = max(worst_gap, gap)
        assert gap <= 0.05, (w, h, nr, nh, nm, gap)
    print(f"[criterion 6] PASS - low-traffic two-phase exact on "
          f"{len(low_instances)} instances; worst high-traffic gap {worst_gap:.2%}")


def count_by_enumeration(n, a, b, c):
    total = 0
    tiles = range(n)
    for cores in combinations(tiles, a):
        rest1 = [t for t in tiles if t not in cores]
        for caches in combinations(rest1, b):
            rest2 = [t for t in rest1 if t not in caches]
            total += sum(1 for _ in combinations(rest2, c))
    return total


def test_criterion_7_counting():
    """placement_count equals explicit enumeration for every tile count <= 8
    and the 16-tile reference value is recomputed independently."""
    checked = 0
    for n in range(1, 9):
        for a in range(n + 1):
            for b in range(n - a + 1):
                for c in range(n - a - b + 1):
                    assert placement_count(n, a, b, c) == \
                        count_by_enumeration(n, a, b, c), (n, a, b, c)
                    checked += 1
    # Documented 16-tile reference: the quoted figure 10810800 equals the
    # multinomial 16!/(8! 4! 2!) over the placed kinds; distinct placements
    # additionally divide by the 2! interchangeable spare tiles.
    quoted = math.factorial(16) // (
        math.factorial(8) * math.factorial(4) * math.factorial(2))
    assert quoted == 10_810_800
    assert placement_count(16, 8, 4, 2) == quoted // math.factorial(2) == 5_405_400
    print(f"[criterion 7] PASS - {checked} exhaustive count checks <= 8 tiles; "
          "16-tile reference recomputed exactly")


def test_criterion_8_invariant_suites():
    """Cross-cutting property suite: objective symmetry, Little's law,
    seeded determinism, and monotone analytical delay."""
    # Objective symmetry: full group in low mode, axis-preserving in high.
    g = MeshGrid(4, 4)
    p = canonical_placement(CanonicalFamily.CENTRAL, g, 10, 4, 2)
    t = TrafficSpec(lambda_g=0.08, miss_l2=0.3)
    base_low = objective(p, t, Mode.LOW).objective_value
    for perm in g.symmetry_permutations():
        assert objective(apply_symmetry(p, perm), t, Mode.LOW).objective_value \
            == pytest.approx(base_low, rel=1e-9)
    base_high = objective(p, t, Mode.HIGH).objective_value
    for perm in g.symmetry_permutations(axis_preserving=True):
        assert objective(apply_symmetry(p, perm), t, Mode.HIGH).objective_value \
            == pytest.approx(base_high, rel=1e-7)

    # Little's law residual <= 5% per busy channel on a stable run.
    mesh = canonical_placement(CanonicalFamily.CENTRAL, MeshGrid(4, 4), 12, 4, 0)
    stats = run_sim(SimConfig(mesh, TrafficSpec(lambda_g=0.15),
                              messages=60_000, seed=13))
    busy = 0
    for key, ch in stats.channels.items():
        if ch.completions < 500:
            continue
        lam = ch.arrivals / stats.window
        assert abs(ch.mean_queue_len - lam * ch.mean_response) \
            / ch.mean_queue_len <= 0.05, key
        busy += 1
    assert busy >= 10

    # Determinism by seed.
    cfg = SimConfig(mesh, TrafficSpec(lambda_g=0.1), messages=5_000, seed=99)
    assert run_sim(cfg) == run_sim(cfg)

    # Monotone analytical delay in the injection rate.
    prev = None
    for rate in (0.02, 0.06, 0.10, 0.14):
        report = packet_delay_inspector(mesh, TrafficSpec(lambda_g=rate))
        delays = {(f.src, f.dst): d for f, d in report.flow_delays}
        if prev is not None:
            assert all(delays[k] >= prev[k] - 1e-12 for k in prev)
        prev = delays
    print("[criterion 8] PASS - symmetry, Little's law, determinism and "
          "monotonicity invariants hold")
