"""The candidate-batched HIGH scorer against scoring one candidate at a time:
the same values bit for bit and the same failure causes, at any chunk size,
with bounded memory; and the LOW scorer's memory bound."""

import json
import math
import random
import tracemalloc
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from nocplace import (
    PAPER,
    STANDARD,
    CanonicalFamily,
    InvalidTrafficError,
    MeshGrid,
    Mode,
    NonConvergentError,
    Placement,
    SearchSpace,
    ServiceSpec,
    TrafficSpec,
    UnstableError,
    canonical_placement,
    exhaustive_search,
    local_search,
    objective,
)
from nocplace import queueing, scoring
from nocplace.scoring import high_objective_batch
from nocplace.mesh import placement_from_string, placement_string
from nocplace.queueing import EFFECTIVE_UNSTABLE, NON_CONVERGENT, OK, UNSTABLE
from nocplace.traffic import matrix

GOLDEN_MODELS = json.loads(
    (Path(__file__).parent / "data" / "golden_models.json").read_text())["cases"]


def alone(placement, spec, queue_mode):
    """One candidate scored as the search scored it before batching: its
    value, or +inf and the status of the router its error names."""
    try:
        return objective(placement, spec, Mode.HIGH, queue_mode).objective_value, OK
    except NonConvergentError:
        return math.inf, NON_CONVERGENT
    except UnstableError as exc:
        return math.inf, UNSTABLE if str(exc).startswith("utilization") else EFFECTIVE_UNSTABLE


def as_rows(strings):
    return np.array([np.frombuffer(s.encode("ascii"), dtype=np.uint8) for s in strings])


def swaps(string, rng, count):
    """``count`` placements one swap of differing kinds away from ``string``."""
    pairs = [(a, b) for a, b in combinations(range(len(string)), 2) if string[a] != string[b]]
    out = []
    for a, b in rng.sample(pairs, min(count, len(pairs))):
        chars = list(string)
        chars[a], chars[b] = chars[b], chars[a]
        out.append("".join(chars))
    return out


def assert_matches_alone(grid, strings, spec, queue_mode):
    values, causes = high_objective_batch(grid, as_rows(strings), spec, queue_mode)
    for s, value, cause in zip(strings, values.tolist(), causes.tolist()):
        assert (value, cause) == alone(placement_from_string(grid, s), spec, queue_mode), s
    return causes


@pytest.mark.parametrize("queue_mode", [PAPER, STANDARD])
def test_golden_models_corpus(queue_mode):
    rng = random.Random(5)
    for case in GOLDEN_MODELS:
        placement = Placement.from_text(case["placement"].replace("/", "\n"))
        s = placement_string(placement)
        assert_matches_alone(placement.grid, [s] + swaps(s, rng, 3),
                             TrafficSpec(**case["spec"]), queue_mode)


def random_corpus(seed=11, configs=26, per_config=24):
    """(grid, strings, spec, queue mode) of random HIGH scoring problems:
    controllers, replies, skewed access matrices and per-core rates, near
    and past saturation."""
    rng = random.Random(seed)
    out = []
    while len(out) < configs:
        w, h = rng.choice([(2, 2), (3, 3), (4, 3), (2, 5), (4, 4), (5, 5), (6, 6), (8, 4)])
        n = w * h
        cores, caches = rng.randint(0, n // 2), rng.randint(1, max(1, n // 4))
        mcs = rng.randint(0, 3)
        if cores + caches + mcs > n:
            continue
        p = None
        if cores and rng.random() < 0.6:
            rows = [[rng.random() ** 3 * (rng.random() < 0.8) for _ in range(caches)]
                    for _ in range(cores)]
            p = matrix([[v / sum(r) for v in r] if sum(r) else [1.0] + [0.0] * (caches - 1)
                        for r in rows])
        lam = rng.uniform(0.05, 0.45)
        spec = TrafficSpec(
            lambda_g=tuple(rng.uniform(0, lam) for _ in range(cores)) if rng.random() < 0.3
            else lam,
            hit_l1=rng.choice([0.0, 0.3]), miss_l2=rng.choice([0.0, 0.2, 0.6]), p=p,
            latency_l1=rng.choice([1.0, 2.5]),
            svc=ServiceSpec(mean_service=rng.choice([1.0, 0.8]), scv=rng.choice([1.0, 0.5])),
            arrival_scv=rng.choice([1.0, 1.5]), model_replies=rng.random() < 0.5,
            mem_fixed_latency=rng.choice([0.0, 4.0]))
        kinds = list("C" * cores + "$" * caches + "M" * mcs + "." * (n - cores - caches - mcs))
        strings = []
        for _ in range(per_config):
            rng.shuffle(kinds)
            strings.append("".join(kinds))
        out.append((MeshGrid(w, h), strings, spec, rng.choice([PAPER, STANDARD])))
    return out


@pytest.mark.parametrize("per_chunk", [1, 2, 7, None])
def test_random_corpus_at_any_chunk_size(per_chunk, monkeypatch):
    corpus = random_corpus()
    assert sum(len(strings) for _, strings, _, _ in corpus) >= 500
    seen = set()
    for grid, strings, spec, queue_mode in corpus:
        rows = grid.n_tiles * (per_chunk or len(strings))
        monkeypatch.setattr(scoring, "_BATCH_ROWS", rows)
        seen.update(assert_matches_alone(grid, strings, spec, queue_mode).tolist())
    assert {OK, UNSTABLE, EFFECTIVE_UNSTABLE} <= seen


def test_every_failure_kind_in_one_batch(monkeypatch):
    # At 28 iterations some routers of this load have not settled yet: the
    # batch holds scored, plainly and effectively unstable and non-convergent
    # candidates, each failure dropping only its own later routers. At
    # lambda_g 0.38 a flow carries 0.095, so no channel's exact load lands on
    # 1.0: the effectively unstable candidates are so whatever the order of
    # the load sums (at 0.4, ten flows of 0.1 sum to 1.0 or just below it).
    monkeypatch.setattr(queueing, "FIXED_POINT_MAX_ITER", 28)
    rng = random.Random(0)
    kinds = list("CCCCCCCC$$$$....")
    strings = []
    for _ in range(150):
        rng.shuffle(kinds)
        strings.append("".join(kinds))
    spec = TrafficSpec(lambda_g=0.38, miss_l2=0.3, model_replies=True)
    causes = assert_matches_alone(MeshGrid(4, 4), strings, spec, PAPER)
    assert set(causes.tolist()) == {OK, UNSTABLE, EFFECTIVE_UNSTABLE, NON_CONVERGENT}


def test_spec_errors_raise():
    grid = MeshGrid(3, 3)
    rows = as_rows(["CC$......", "C.C$....."])
    with pytest.raises(InvalidTrafficError):
        high_objective_batch(grid, rows, TrafficSpec(p=matrix([[1.0]])))
    # The waiting-time formula's argument check is a spec error, not a
    # saturated candidate: searches raise it instead of counting it.
    spec = TrafficSpec()
    object.__setattr__(spec, "arrival_scv", -1.0)
    with pytest.raises(UnstableError, match="SCVs must be >= 0"):
        high_objective_batch(grid, rows, spec)
    space = SearchSpace(grid, 2, 1, mode=Mode.HIGH)
    for search in (lambda: exhaustive_search(space, spec, prefilter=False),
                   lambda: local_search(space, spec, seed=1, budget=20)):
        with pytest.raises(UnstableError, match="SCVs must be >= 0"):
            search()


def neighbourhood(side, cores, caches, mcs=0):
    grid = MeshGrid(side, side)
    s = placement_string(canonical_placement(CanonicalFamily.CENTRAL, grid, cores, caches, mcs))
    return grid, as_rows(swaps(s, random.Random(0), side ** 4))


def test_memory_is_bounded_by_the_chunk():
    # A whole steepest-descent pass: 315 swaps on 6x6 and 768 on 8x8 stay
    # under one bound, however many candidates the pass holds.
    spec = TrafficSpec(lambda_g=0.1)
    for side, cores, caches, size in ((6, 24, 9, 315), (8, 48, 16, 768)):
        grid, rows = neighbourhood(side, cores, caches)
        assert len(rows) == size
        high_objective_batch(grid, rows[:2], spec)
        tracemalloc.start()
        try:
            values, _ = high_objective_batch(grid, rows, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(values).all()
        assert peak < 3 << 20, (side, peak)


def test_low_memory_is_bounded_by_the_chunk():
    # Whole swap passes scored LOW, one with controllers: the float64
    # transit terms are gathered at most _LOW_HOPS hops at a time, so the
    # 944 candidates of 8x8 44/16/4 (724,992 hops) stay under one bound.
    spec = TrafficSpec(lambda_g=0.1, miss_l2=0.3)
    for side, counts, size in ((6, (24, 9), 315), (8, (48, 16), 768), (8, (44, 16, 4), 944)):
        grid, rows = neighbourhood(side, *counts)
        assert len(rows) == size
        scoring.low_objective_batch(grid, rows[:2], spec)
        tracemalloc.start()
        try:
            values = scoring.low_objective_batch(grid, rows, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(values).all()
        assert peak < 3 << 19, (side, counts, peak)


def spy_fixed_point(monkeypatch):
    """Record the rows of every fixed point the batch scorer runs."""
    calls = []
    real = scoring._fixed_point

    def spy(lam, turns, svc, ca2, mode):
        calls.append(np.concatenate([lam, turns.reshape(len(lam), -1)], axis=1))
        return real(lam, turns, svc, ca2, mode)

    monkeypatch.setattr(scoring, "_fixed_point", spy)
    return calls


@pytest.mark.parametrize("memo_rows,wait_rows", [(1 << 11, 1 << 16), (100, 1 << 16), (1 << 11, 40)])
def test_distinct_rows_with_repeats_and_every_failure_kind(memo_rows, wait_rows, monkeypatch):
    # Repeated candidates and every failure kind (at 28 iterations some
    # routers have not settled), over several flushes: each distinct row is
    # solved once, in fixed points of at most _BATCH_ROWS rows, however the
    # memo and the waiting placements are bounded.
    monkeypatch.setattr(queueing, "FIXED_POINT_MAX_ITER", 28)
    monkeypatch.setattr(scoring, "_BATCH_ROWS", 48)
    monkeypatch.setattr(scoring, "_MEMO_ROWS", memo_rows)
    monkeypatch.setattr(scoring, "_WAIT_ROWS", wait_rows)
    rng = random.Random(3)
    kinds = list("CCCCCCCC$$$$....")
    distinct = []
    for _ in range(40):
        rng.shuffle(kinds)
        distinct.append("".join(kinds))
    strings = [rng.choice(distinct) for _ in range(120)]
    calls = spy_fixed_point(monkeypatch)
    spec = TrafficSpec(lambda_g=0.38, miss_l2=0.3, model_replies=True)
    causes = assert_matches_alone(MeshGrid(4, 4), strings, spec, PAPER)
    assert set(causes.tolist()) == {OK, UNSTABLE, EFFECTIVE_UNSTABLE, NON_CONVERGENT}
    assert len(calls) > 2
    assert all(0 < len(rows) <= 48 for rows in calls)
    solved = [row.tobytes() for rows in calls for row in rows]
    if memo_rows >= 16 * len(distinct):  # the memo never fills
        assert len(solved) == len(set(solved))


def test_distinct_rows_are_solved_once_per_pass(monkeypatch):
    # A 6x6 swap pass repeats most router rows: 315 candidates, 11,340 rows.
    calls = spy_fixed_point(monkeypatch)
    grid, rows = neighbourhood(6, 24, 9)
    values, causes = high_objective_batch(grid, rows, TrafficSpec(lambda_g=0.1))
    assert (causes == OK).all()
    solved = [row.tobytes() for part in calls for row in part]
    assert len(solved) == len(set(solved)) < rows.size // 10
    assert all(len(part) <= scoring._BATCH_ROWS for part in calls)
    strings = [row.tobytes().decode("ascii") for row in rows[::40]]
    for s, value in zip(strings, values[::40].tolist()):
        assert value == alone(placement_from_string(grid, s), TrafficSpec(lambda_g=0.1), PAPER)[0]


def test_empty_batches_return_empty_arrays():
    grid = MeshGrid(3, 3)
    empty = np.empty((0, grid.n_tiles), dtype=np.uint8)
    values, causes = high_objective_batch(grid, empty, TrafficSpec())
    assert values.shape == causes.shape == (0,)
    assert values.dtype == float and causes.dtype == np.int8
    values = scoring.low_objective_batch(grid, empty, TrafficSpec())
    assert values.shape == (0,) and values.dtype == float
