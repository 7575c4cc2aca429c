"""Event engine of the simulator: the engine for every run that spawns
messages (controller legs or replies), and the oracle the feed-forward
engine is tested against.

One heap holds generation and channel-completion events as ``(time, push
count, kind, payload)``; equal times pop in push order. The main loop is one
flat loop that makes no call per event: a message's arrival at its next
channel, the spawn of a derived message and the length draw are written out
where they happen. Each message records its arrival time at the channel it
waits in, so a queue holds messages. A departure adds the message's terms
to its channel's running sums: its response and service times, and its
time in the channel and in service after the statistics window opens (see
``simulator.ChannelStats``). A channel keeps the time of its last
departure, when the next message's service starts unless it arrives later,
and no clock of its events in time order. Each latency is kept with its
delivery time, in two typed arrays, and ``_sim_stats`` orders them: the
order in which simultaneous deliveries pop decides no statistic.

The order of the uniforms is fixed: at a generation the gap to the core's
next generation, the destination cache, then the length; at the delivery of
a request the ``miss_l2`` draw, the controller, the leg's length, then the
reply's length. The leg is pushed before the reply. Gaps and lengths are
drawn as ``random.expovariate`` draws them, ``-log(1 - u)`` divided by the
rate; a length is ``max(1, round(x))`` of an exponential ``x`` with mean
``mean_message_size``.
"""

from __future__ import annotations

import math
import random
from array import array
from bisect import bisect_left
from collections import defaultdict, deque
from heapq import heappop, heappush
from itertools import count

import numpy as np

from .routing import _E, _L, _N, _S, _W, N_PORTS
from .simulator import SimConfig, SimStats, _injection, _sim_stats


class _Channel:
    __slots__ = ("queue", "last_t", "area", "busy", "arrivals", "completions",
                 "resp_sum", "svc_sum")

    def __init__(self):
        self.queue: deque = deque()
        self.last_t = 0.0
        self.area = 0.0
        self.busy = 0.0
        self.arrivals = 0
        self.completions = 0
        self.resp_sum = 0.0
        self.svc_sum = 0.0


class _Message:
    """A message in flight; ``arr`` is its arrival time at the channel whose
    queue holds it."""

    __slots__ = ("path", "hop", "svc", "origin", "arr", "src", "dst", "primary")

    def __init__(self, path, svc, origin, src, dst, primary):
        self.path = path
        self.hop = 0
        self.svc = svc
        self.origin = origin
        self.arr = origin
        self.src = src
        self.dst = dst
        self.primary = primary


def _route(width: int, src: int, dst: int) -> list[int]:
    """The input channel ids ``tile * N_PORTS + in_port`` of the XY path
    from tile ``src`` to tile ``dst``: the injection channel at the source,
    then the row segment, then the column segment (Dally & Seitz 1987)."""
    sy, sx = divmod(src, width)
    dy, dx = divmod(dst, width)
    route = [src * N_PORTS + _L]
    step, port = (1, _W) if dx > sx else (-1, _E)
    route += [(sy * width + x) * N_PORTS + port for x in range(sx + step, dx + step, step)]
    step, port = (1, _N) if dy > sy else (-1, _S)
    route += [(y * width + dx) * N_PORTS + port for y in range(sy + step, dy + step, step)]
    return route


def run_events(config: SimConfig) -> SimStats:
    """Simulate ``config`` on the event engine (see the module docstring)."""
    grid = config.placement.grid
    n_tiles = grid.n_tiles
    spec = config.traffic
    r, inj, active_cores, warmup_count = _injection(config)
    rng = random.Random(config.seed)
    uniform = rng.random
    log = math.log
    mu = config.mu
    size_rate = 1.0 / config.mean_message_size
    messages = config.messages

    cores, caches, mcs = (ids.tolist() for ids in (r.core_ids, r.cache_ids, r.mc_ids))
    last_cache, last_mc = len(caches) - 1, len(mcs) - 1
    # Cumulative access rows for destination sampling.
    cum_p = np.cumsum(r.p, axis=1).tolist()
    cum_q = np.cumsum(r.q, axis=1).tolist() if r.q is not None else None
    cache_index = {cache: j for j, cache in enumerate(caches)}
    miss_l2 = spec.miss_l2
    legs = cum_q is not None and miss_l2 > 0.0
    replies = spec.model_replies

    # Channels and the path of each pair, keyed by src * n_tiles + dst, are
    # built on first use, so only channels on some drawn path appear in
    # ``SimStats.channels``.
    width = grid.width
    channels: defaultdict[int, _Channel] = defaultdict(_Channel)
    paths: dict[int, list[_Channel]] = {}

    stats_start = 0.0 if warmup_count == 0 else math.inf

    heap: list = []
    tick = count().__next__
    generated = 0
    completed = 0
    derived_generated = 0
    derived_completed = 0
    latencies, delivered = array("d"), array("d")
    flow_sums: dict[int, list] = {}

    # Seed one generation event per active core.
    for i in active_cores:
        heappush(heap, (-log(1.0 - uniform()) / inj[i], tick(), 0, i))

    while heap:
        t, _, kind, payload = heappop(heap)
        if kind == 0:
            if generated >= messages:
                continue
            generated += 1
            if generated == warmup_count:
                stats_start = t
            i = payload
            if generated < messages:
                heappush(heap, (t + -log(1.0 - uniform()) / inj[i], tick(), 0, i))
            j = bisect_left(cum_p[i], uniform())
            src, targets, primary = cores[i], (caches[j if j < last_cache else last_cache],), True
        else:
            ch = payload
            queue = ch.queue
            msg = queue.popleft()
            arr_t = msg.arr
            if t > stats_start:
                begin = ch.last_t if ch.last_t > arr_t else arr_t
                ch.area += t - (arr_t if arr_t > stats_start else stats_start)
                ch.busy += t - (begin if begin > stats_start else stats_start)
            ch.last_t = t
            if arr_t >= stats_start:
                ch.completions += 1
                ch.resp_sum += t - arr_t
                ch.svc_sum += msg.svc
            if queue:
                heappush(heap, (t + queue[0].svc, tick(), 1, ch))
            hop = msg.hop + 1
            path = msg.path
            if hop < len(path):
                # Arrival at the next channel of the path. Arrivals count
                # from the start of the statistics window.
                msg.hop = hop
                msg.arr = t
                ch = path[hop]
                queue = ch.queue
                if t >= stats_start:
                    ch.arrivals += 1
                if not queue:
                    heappush(heap, (t + msg.svc, tick(), 1, ch))
                queue.append(msg)
                continue
            # Delivered.
            if msg.primary:
                completed += 1
            else:
                derived_completed += 1
            if msg.origin >= stats_start:
                latency = t - msg.origin
                latencies.append(latency)
                delivered.append(t)
                key = msg.src * n_tiles + msg.dst
                agg = flow_sums.get(key)
                if agg is None:
                    agg = flow_sums[key] = [0, 0.0]
                agg[0] += 1
                agg[1] += latency
            if not msg.primary:
                continue
            # A request spawns its controller leg, then its reply.
            src, targets, primary = msg.dst, [], False
            if legs and uniform() < miss_l2:
                k = bisect_left(cum_q[cache_index[src]], uniform())
                targets.append(mcs[k if k < last_mc else last_mc])
            if replies:
                targets.append(msg.src)
            derived_generated += len(targets)
        # Each new message draws its length and arrives at its first channel.
        for dst in targets:
            key = src * n_tiles + dst
            path = paths.get(key)
            if path is None:
                path = paths[key] = [channels[c] for c in _route(width, src, dst)]
            length = round(-log(1.0 - uniform()) / size_rate)
            msg = _Message(path, (length if length > 1.0 else 1.0) / mu, t, src, dst, primary)
            ch = path[0]
            queue = ch.queue
            if t >= stats_start:
                ch.arrivals += 1
            if not queue:
                heappush(heap, (t + msg.svc, tick(), 1, ch))
            queue.append(msg)

    # The heap is empty, so every message has departed and added its terms.
    end_t = max((ch.last_t for ch in channels.values()), default=0.0)
    return _sim_stats(
        grid,
        ((cid, ch.arrivals, ch.completions, ch.busy, ch.area, ch.resp_sum, ch.svc_sum)
         for cid, ch in channels.items()),
        np.frombuffer(latencies), np.frombuffer(delivered),
        ((key, n, s) for key, (n, s) in flow_sums.items()),
        end_t, max(end_t - stats_start, 0.0),
        generated, completed, derived_generated, derived_completed,
    )
