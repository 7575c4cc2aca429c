"""The feed-forward engine against the event engine, which stays the oracle:
``run_sim`` must return the event engine's ``SimStats`` bit for bit, take
the feed-forward engine exactly when no message can be spawned, and keep
its working set within the event engine's."""

import gc
import json
import math
import random
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from nocplace import (
    CanonicalFamily,
    Coord,
    FamilyParams,
    MeshGrid,
    NodeKind,
    Port,
    SimConfig,
    TrafficSpec,
    build_placement,
    canonical_placement,
    run_sim,
)
from nocplace import events, feedforward, simulator

GRID8 = MeshGrid(8, 8)


def place(grid, cores=(), caches=(), mcs=()):
    kinds = {c: NodeKind.ROUTER_ONLY for c in grid.tiles()}
    kinds.update({c: NodeKind.CORE for c in cores})
    kinds.update({c: NodeKind.CACHE for c in caches})
    kinds.update({c: NodeKind.MC for c in mcs})
    return build_placement(grid, kinds)


def family(name, grid=GRID8, counts=(48, 16, 0), params=None):
    return canonical_placement(CanonicalFamily(name), grid, *counts, params)


def as_json(stats) -> str:
    return json.dumps(stats.to_json_dict(), sort_keys=True)


def corpus():
    """(id, SimConfig): the 8x8 48/16 crossover runs, scaled down, and edge
    cases of the generation, warmup, geometry and service parameters."""
    T = TrafficSpec
    for f in ("central", "distributed"):
        for lam in (0.01, 0.1, 0.2, 0.25):
            yield f"8x8.{f}.{lam}", SimConfig(family(f), T(lambda_g=lam), messages=6000, seed=1)
    central = family("central")
    yield "no-warmup", SimConfig(central, T(lambda_g=0.1), messages=3000, warmup_frac=0.0, seed=2)
    for n in (1, 2, 3):
        yield f"{n}-messages", SimConfig(central, T(lambda_g=0.1), messages=n, warmup_frac=0.5,
                                         seed=4)
    C = Coord
    yield "8x1", SimConfig(place(MeshGrid(8, 1), cores=[C(0, 0), C(2, 0), C(5, 0), C(7, 0)],
                                 caches=[C(1, 0), C(6, 0)]), T(lambda_g=0.3), messages=3000, seed=5)
    yield "1x6", SimConfig(place(MeshGrid(1, 6), cores=[C(0, 0), C(0, 3), C(0, 5)],
                                 caches=[C(0, 1), C(0, 4)]), T(lambda_g=0.3), messages=3000, seed=6)
    yield "hit-l1", SimConfig(central, T(lambda_g=0.3, hit_l1=0.4), messages=3000, seed=7)
    yield "mu-size", SimConfig(family("distributed"), T(lambda_g=0.1), mu=7.0,
                               mean_message_size=3.0, messages=3000, seed=8)
    # Lengths are almost all 1, so equal-time events abound.
    yield "size-1", SimConfig(family("distributed"), T(lambda_g=0.1), mean_message_size=1.0,
                              messages=3000, seed=8)
    lam = tuple(0.0 if k % 5 == 0 else 0.05 + 0.005 * (k % 7) for k in range(48))
    yield "per-core-rates", SimConfig(central, T(lambda_g=lam), messages=3000, seed=9)
    yield "controllers-no-legs", SimConfig(family("central", counts=(44, 16, 4)),
                                           T(lambda_g=0.1, miss_l2=0.0), messages=3000, seed=10)
    for lam in (0.3, 0.4):
        yield f"saturated-{lam}", SimConfig(central, T(lambda_g=lam), messages=3000, seed=11)
    skew = ((0.5, 0.5, 0.0, 0.0), (0.0, 0.25, 0.75, 0.0), (0.1, 0.2, 0.3, 0.4),
            (1.0, 0.0, 0.0, 0.0)) * 4
    yield "6x4-skewed", SimConfig(family("distributed", MeshGrid(6, 4), (16, 4, 0)),
                                  T(lambda_g=0.1, p=skew), messages=3000, seed=14)
    yield "16x16", SimConfig(family("central", MeshGrid(16, 16), (192, 64, 0),
                                    FamilyParams(rings=2)),
                             T(lambda_g=0.05), messages=3000, seed=15)


CORPUS = list(corpus())


@pytest.fixture
def engines(monkeypatch):
    """Counts the calls ``run_sim`` makes to each engine."""
    calls = {"events": 0, "feedforward": 0}

    def counted(name, fn):
        def wrapper(config):
            calls[name] += 1
            return fn(config)
        return wrapper

    monkeypatch.setattr(events, "run_events", counted("events", events.run_events))
    monkeypatch.setattr(feedforward, "run_feedforward",
                        counted("feedforward", feedforward.run_feedforward))
    return calls


@pytest.mark.parametrize("config", [c for _, c in CORPUS], ids=[i for i, _ in CORPUS])
def test_matches_event_engine(config, engines):
    stats = run_sim(config)
    assert engines == {"events": 0, "feedforward": 1}
    oracle = events.run_events(config)
    assert as_json(stats) == as_json(oracle)
    assert stats == oracle
    assert list(stats.channels) == list(oracle.channels)
    assert list(stats.flow_latency) == list(oracle.flow_latency)


@pytest.mark.parametrize("window", [2, 7, 97, feedforward._WINDOW])
def test_window_size_does_not_change_results(window, monkeypatch):
    # Small windows carry departures and queues across many window
    # boundaries and make the in-flight store compact and grow. The second
    # run has lengths of almost all 1, so ties abound, and many cross a
    # window boundary.
    monkeypatch.setattr(feedforward, "_WINDOW", window)
    for config in (
        SimConfig(family("central"), TrafficSpec(lambda_g=0.25), messages=800, seed=3),
        SimConfig(family("distributed"), TrafficSpec(lambda_g=0.1), mean_message_size=1.0,
                  messages=800, seed=8),
    ):
        assert as_json(feedforward.run_feedforward(config)) == as_json(
            events.run_events(config))


@pytest.mark.parametrize("seed", [0, 1, 23, 2**40 + 7])
def test_bulk_uniforms_equal_random(seed):
    # One call stands for n calls of random(), bit for bit, and leaves the
    # generator where they would: each size continues the same stream.
    bulk, one = random.Random(seed), random.Random(seed)
    for n in (1, 2, 7, 101, 100_001):
        assert feedforward._uniforms(bulk, n).tolist() == [one.random() for _ in range(n)]
    assert bulk.random() == one.random()


@pytest.mark.parametrize("spec", [
    TrafficSpec(lambda_g=0.1, model_replies=True),
    TrafficSpec(lambda_g=0.1, miss_l2=0.3),
], ids=["replies", "controller-legs"])
def test_spawning_runs_take_the_event_engine(spec, engines):
    config = SimConfig(family("central", counts=(44, 16, 4)), spec, messages=500, seed=1)
    stats = run_sim(config)
    assert engines == {"events": 1, "feedforward": 0}
    assert stats.derived_generated > 0


def test_unresolved_tie_falls_back_to_event_engine(monkeypatch):
    def unresolved(config):
        raise feedforward.TieUnresolved

    monkeypatch.setattr(feedforward, "run_feedforward", unresolved)
    config = SimConfig(family("central"), TrafficSpec(lambda_g=0.1), messages=500, seed=1)
    assert as_json(run_sim(config)) == as_json(events.run_events(config))


class Halves(random.Random):
    """Every uniform is 0.5, whether drawn by ``random()`` or in bulk by
    ``feedforward._uniforms``, whose 32-bit word pairs (2**31, 0) make 0.5."""

    def random(self):
        return 0.5

    def getrandbits(self, k):
        return int.from_bytes((2**31).to_bytes(8, "little") * (k // 64), "little")


def test_simultaneous_generations_are_left_to_the_event_engine():
    # Two cores of one rate that draw the same gap are due at one instant:
    # the event engine pops them in push order, which the generation heap
    # does not keep.
    draws = feedforward._draws(Halves(), [0.1, 0.1], [0, 1], np.ones((2, 1)), 10.0, 5)
    with pytest.raises(feedforward.TieUnresolved):
        next(draws)


@pytest.fixture
def halves(monkeypatch):
    """Both engines draw every uniform as 0.5."""
    constant = SimpleNamespace(Random=Halves)
    monkeypatch.setattr(feedforward, "random", constant)
    monkeypatch.setattr(events, "random", constant)


def following_rates(service: float) -> list[float]:
    """Rates whose first generations, every gap ``-log(0.5) / rate``, fall
    at ``a`` and exactly at ``a + service``: the second core generates
    when the first core's first message leaves its LOCAL channel."""
    gap = -math.log(0.5)
    follow = gap / 0.1 + service
    rate = gap / follow
    for _ in range(100):
        if gap / rate == follow:
            return [0.1, rate]
        rate = math.nextafter(rate, 0.0 if gap / rate < follow else 1.0)
    raise AssertionError("no rate puts the second generation there")


# Two cores in a row before one cache: the core at (0, 0) passes the core
# at (1, 0) on its way east. Every length is round(10 * log 2) = 7 packets,
# 0.7 time units at mu 10.
ROW = place(MeshGrid(3, 1), cores=[Coord(0, 0), Coord(1, 0)], caches=[Coord(2, 0)])


@pytest.mark.parametrize("rates,warmup,site", [
    # 0.2 is exactly 2 * 0.1 in binary64, so the second generation at rate
    # 0.2 lands on the first at rate 0.1, inside a window.
    ([0.1, 0.2], 0.1, "_draws"),
    # The first core's first message and the second core's first reach
    # the cache's WEST channel at one instant, from two channels.
    (following_rates(0.7), 0.0, "_level"),
    # The second generation opens the statistics window just as the first
    # message reaches (1, 0) WEST.
    (following_rates(0.7), 0.1, "_serve"),
], ids=["two-cores-due", "two-arrivals", "arrival-at-warmup"])
def test_ties_that_change_the_trajectory_are_left_to_the_event_engine(rates, warmup, site,
                                                                      halves):
    config = SimConfig(ROW, TrafficSpec(lambda_g=rates), messages=20, warmup_frac=warmup,
                       seed=1)
    with pytest.raises(feedforward.TieUnresolved) as raised:
        feedforward.run_feedforward(config)
    assert raised.traceback[-1].name == site
    assert as_json(run_sim(config)) == as_json(events.run_events(config))


def test_hop_arrival_at_the_warmup_instant_counts(halves):
    # The event engine pops the warmup-th generation before the hop that
    # ties with it, so that arrival at (1, 0) WEST counts, and the one
    # before it at (0, 0) LOCAL does not.
    config = SimConfig(ROW, TrafficSpec(lambda_g=following_rates(0.7)), messages=20,
                       warmup_frac=0.1, seed=1)
    channels = events.run_events(config).channels
    assert (channels[(Coord(1, 0), Port.WEST)].arrivals
            == channels[(Coord(0, 0), Port.LOCAL)].arrivals + 1)


@pytest.mark.parametrize("engine", ["events", "feedforward"])
def test_statistics_ignore_the_order_of_tied_deliveries(engine, monkeypatch):
    # On this run deliveries share times, and the plain mean of the
    # latencies in time order depends on the order of each set of tied
    # deliveries. ``_sim_stats`` orders what it is given, so ``SimStats``
    # and its dict orders stay the same when the ties, channels and flows
    # come reversed.
    config = SimConfig(family("central"), TrafficSpec(lambda_g=0.2), messages=5000, seed=5)
    run = events.run_events if engine == "events" else feedforward.run_feedforward
    expected = run(config)
    sim_stats = simulator._sim_stats
    moved = []

    def reversed_ties(grid, channels, lat, lat_t, flows, *rest):
        k = np.arange(lat_t.size)
        kept, o = np.lexsort((k, lat_t)), np.lexsort((-k, lat_t))
        moved.append(lat[kept].mean() != lat[o].mean())
        return sim_stats(grid, list(channels)[::-1], lat[o], lat_t[o], list(flows)[::-1], *rest)

    monkeypatch.setattr(f"nocplace.{engine}._sim_stats", reversed_ties)
    stats = run(config)
    assert moved == [True]
    assert as_json(stats) == as_json(expected)
    assert stats == expected
    assert list(stats.channels) == list(expected.channels)
    assert list(stats.flow_latency) == list(expected.flow_latency)


def traced_peak(fn, config, warm=True) -> int:
    if warm:
        fn(config)  # warm the per-grid caches
    gc.collect()
    tracemalloc.start()
    try:
        fn(config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_working_set_within_event_engine_bound():
    # Measured on this config (Python 3.11, numpy 2.4): feed-forward 1.64 MB
    # traced peak with windows of 4,096 generations, event engine 1.15 MB
    # (1.43x). The same engine with one window over the whole run, which
    # keeps per-message state for the whole run as the first prototype did,
    # peaks at 1.92 MB (1.67x): 5,000 messages are little more than one
    # window, so this check alone no longer fails whole-run state;
    # ``test_working_set_flat_in_run_length`` does. At 50,000 messages one
    # window reaches 7.5x, where the windowed engine is at 1.04x. 2x leaves
    # room for allocator and version differences.
    # The yardstick has a bound of its own, so that a heavier event engine
    # cannot loosen the check: 1.08 MB measured before the event loop was
    # flattened and after, 1.15 MB with latencies and delivery times in
    # typed arrays, with about 20% left for allocator and version
    # differences. Building each drawn pair's route on first use, not a
    # table of all pairs, brought it to 0.92 MB (feed-forward 1.80x).
    # Channel sums taken per message, with no merge of each level's events
    # in time order, and the latencies ordered by one complex-keyed sort,
    # whose 16-byte keys now set the event engine's peak: feed-forward
    # 1.17 MB, event engine 0.99 MB (1.19x).
    config = SimConfig(family("central"), TrafficSpec(lambda_g=0.2), messages=5000, seed=3)
    event_peak = traced_peak(events.run_events, config)
    assert event_peak <= 1.4e6
    assert traced_peak(feedforward.run_feedforward, config) <= 2.0 * event_peak


def test_working_set_flat_in_run_length():
    # Four times the messages, well under twice the traced peak (Python
    # 3.11, numpy 2.4): 1.64 MB at 5,000 messages, 1.99 MB at 20,000
    # (1.21x), where the latency arrays and the message store of two
    # windows have grown. One window over the whole run: 1.92 MB, then
    # 7.23 MB (3.8x). With channel sums taken per message: 1.17 MB, then
    # 1.43 MB (1.22x).
    short, long = (SimConfig(family("central"), TrafficSpec(lambda_g=0.2), messages=n, seed=3)
                   for n in (5000, 20_000))
    base = traced_peak(feedforward.run_feedforward, short)
    assert traced_peak(feedforward.run_feedforward, long, warm=False) <= 1.6 * base


def test_event_engine_working_set_on_a_spawning_run():
    # Measured before the event loop was flattened (Python 3.11, numpy 2.4):
    # 1.99 MB traced peak; the flat loop 1.99 MB. Measured again later:
    # 2.10 MB with a latency list, 2.07 MB with latencies and delivery times
    # in typed arrays, 1.63 MB with each drawn pair's route built on first
    # use, 1.80 MB with the latencies ordered by one complex-keyed sort. As
    # above, about 25% is left for allocator and version differences.
    spec = TrafficSpec(lambda_g=0.1, miss_l2=0.3, model_replies=True)
    config = SimConfig(family("central", counts=(44, 16, 4)), spec, messages=5000, seed=3)
    assert traced_peak(events.run_events, config) <= 2.6e6
