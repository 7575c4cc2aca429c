"""Feed-forward simulator engine for runs that draw no derived messages.

Under XY routing the channel-dependency graph has no cycles (Dally & Seitz
1987), so when no delivery spawns a message each channel's departures follow
from its arrivals by Lindley's FIFO recursion ``D_k = max(A_k, D_{k-1}) +
S_k`` (Lindley 1952), taken channel by channel in dependency order with no
event heap. ``run_feedforward`` returns the ``SimStats`` of the event engine
bit for bit:

- The random stream is the same: every draw happens at a generation, and a
  window's uniforms come from one ``getrandbits`` call that yields the words
  ``random()`` would use (``_uniforms``).
- Every float is computed by the same operations in the same order: each
  departure by the recursion in FIFO order; each channel's running sums
  (response, service, queue-length area, busy time) one term per message
  in FIFO order, and each flow's latency sum in delivery order. The area
  and the busy time are sums over messages of their time in the channel
  and in service (see ``simulator.ChannelStats``), so no channel needs a
  clock that meets its arrivals and departures in time order.
- The order of simultaneous events is not rebuilt. Message lengths repeat,
  so a departure often coincides with another event, but the statistics do
  not depend on how such ties pop: ``simulator._sim_stats`` orders the
  latencies by (delivery time, latency), and the deliveries of one flow
  leave one channel, at distinct times. Ties that change the trajectory
  raise ``TieUnresolved``.

The working set is bounded: generations come in windows of ``_WINDOW``, and
only the messages in flight are kept, 30 bytes each: each window's store is
the undelivered tail of the last one followed by the new window. Beyond that
a run keeps 16 bytes per message: its latency and delivery time. Fewer,
larger windows make fewer numpy calls per message.
"""

from __future__ import annotations

import math
import random
from heapq import heapify, heapreplace

import numpy as np

from .routing import _E, _L, _N, _S, _W, N_PORTS
from .simulator import SimConfig, SimStats, _injection, _sim_stats

# Generations per window of the feed-forward engine. Its working set is
# about two windows of messages plus one level's arrays; fewer, larger
# windows cost less numpy call overhead. 4,096 keeps the traced peak of
# ``test_working_set_within_event_engine_bound`` within its 2x bound.
_WINDOW = 4096


class TieUnresolved(Exception):
    """An event coincides with another whose relative pop order changes the
    trajectory: two arrivals at one channel from different channels (their
    FIFO order), an arrival and the warmup-th generation (whether it counts),
    or the generations of two cores. Each takes a coincidence of float sums;
    such runs are left to the event engine."""


def _uniforms(rng: random.Random, n: int) -> np.ndarray:
    """The next ``n`` values of ``rng.random()``, bit for bit, in one call.

    ``random()`` builds ``((a >> 5) * 2**26 + (b >> 6)) * 2**-53`` from two
    32-bit Mersenne Twister words; ``getrandbits(64 * n)`` draws the same
    ``2n`` words, least significant first, and leaves the generator in the
    same state."""
    words = np.frombuffer(rng.getrandbits(64 * n).to_bytes(8 * n, "little"), dtype="<u4")
    return ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) * (1.0 / 9007199254740992.0)


def _draws(rng: random.Random, inj: list[float], active_cores: list[int],
           cum_p: np.ndarray, mean_size: float, messages: int):
    """Replay the event engine's draws, ``_WINDOW`` generations at a time.

    Without derived messages every draw happens at a generation event: the
    gap to the core's next generation (none after the last), the cache and
    the length, in that order, one ``rng.random()`` each (``expovariate`` is
    ``-log(1 - u) / rate``, with ``math.log``, whose last bits ``np.log``
    does not always match). So a window's uniforms are drawn in one go, and
    only the order of the generations is replayed one at a time, on a heap
    of the active cores' next generation times. The event engine pops equal
    times in push order, which the heap does not keep, so two cores due at
    one instant raise ``TieUnresolved``. Yields (times, core indices, cache
    indices, lengths, time of the next generation or inf).
    """
    uniform, log = rng.random, math.log
    owner: dict[float, int] = {}  # the core due at each time on the heap
    for i in active_cores:
        if owner.setdefault(-log(1.0 - uniform()) / inj[i], i) != i:
            raise TieUnresolved
    heap = list(owner)
    heapify(heap)
    # Each core's cumulative access row, padded with inf to a power of two
    # so that a branch-free binary search stays inside the row.
    width = 1 << cum_p.shape[1].bit_length()
    rows = np.full((cum_p.shape[0], width), math.inf)
    rows[:, :cum_p.shape[1]] = cum_p
    rows = rows.ravel()
    while messages:
        n = min(_WINDOW, messages)
        messages -= n
        last = not messages
        u = _uniforms(rng, 3 * n - last)
        if last:
            u = np.insert(u, 3 * n - 3, 0.0)  # the last generation draws no gap
        times, cores = [], []
        push_t, push_i = times.append, cores.append
        for g in map(log, (1.0 - u[0:3 * (n - last):3]).tolist()):
            t = heap[0]
            i = owner.pop(t)
            push_t(t)
            push_i(i)
            t = t + -g / inj[i]
            if owner.setdefault(t, i) != i:
                raise TieUnresolved
            heapreplace(heap, t)
        if last:
            push_t(heap[0])
            push_i(owner[heap[0]])
        del push_t, push_i  # they hold the lists, and each list its floats
        times, cores = np.array(times), np.array(cores)
        # searchsorted(cum_p[core], pick) for every generation at once.
        pick = u[1::3]
        at = cores * width - 1
        step = width >> 1
        while step:
            at += step * (rows[at + step] < pick)
            step >>= 1
        caches = at - (cores * width - 1)
        sizes = -np.fromiter(map(log, (1.0 - u[2::3]).tolist()), float, n) / (1.0 / mean_size)
        del u, pick, at
        yield (times, cores, np.minimum(caches, cum_p.shape[1] - 1),
               np.maximum(np.rint(sizes), 1.0), math.inf if last else heap[0])


def _lindley(arrive: list[float], service: list[float], starts: list[int],
             free: list[float]) -> list[float]:
    """FIFO service starts ``B_k = max(A_k, D_{k-1})``, where ``D_k = B_k +
    S_k``, evaluated in order. The arrivals are grouped by channel; each
    group begins at its index in ``starts`` with ``D_{k-1}`` the time its
    channel's server frees up."""
    out: list[float] = []
    push = out.append
    for b, e, d in zip(starts, starts[1:] + [len(arrive)], free):
        for a, s in zip(arrive[b:e], service[b:e]):
            if a > d:
                d = a
            push(d)
            d += s
    return out


def _segments(keys: np.ndarray) -> np.ndarray:
    """Boolean mask of the first element of each run of equal ``keys``."""
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return first


class _FeedForward:
    """State of one feed-forward run (see the module docstring).

    Channels are visited level by level: level 0 holds the LOCAL channels,
    levels 1..w-1 the X channels by position along the direction of travel,
    levels w..w+h-2 the Y channels likewise. Every channel that feeds a
    channel sits on an earlier level, and a message enters at most one
    channel per level, so a message's latest event carries all its state.
    Generations come in windows; a window serves, level by level, every
    arrival before the next window's first generation, which no later
    message can precede. Each served message adds its terms to its channel's
    running sums at once. Before the warmup-th generation fixes the start
    of the statistics window, only the messages that have not departed by
    the end of the current generation window can add anything: they are
    held until then.
    """

    def __init__(self, config: SimConfig):
        grid = config.placement.grid
        self.config = config
        self.grid = grid
        w, h, n_tiles = grid.width, grid.height, grid.n_tiles
        r, self.inj, self.active_cores, self.warmup_count = _injection(config)
        self.cum_p = np.cumsum(r.p, axis=1)
        n_cores, n_caches = len(r.core_ids), len(r.cache_ids)
        self.n_caches = n_caches
        n_flows = n_cores * n_caches
        self.n_ch = n_ch = n_tiles * N_PORTS
        self.w = w
        self.n_levels = w + h - 1

        # Per flow (core index * n_caches + cache index): its endpoints, the
        # channel at level L as base + step * L within each phase, and its
        # walk: the level after LOCAL, the last X level, the level after it,
        # the last Y level.
        self.src = src = np.repeat(r.core_ids, n_caches).astype(np.int64)
        self.dst = dst = np.tile(r.cache_ids, n_cores).astype(np.int64)
        sx, sy, dx, dy = src % w, src // w, dst % w, dst // w
        east, south = dx > sx, dy > sy
        # A mesh has at most 16x16 tiles (``mesh.MAX_SIDE``), so channel ids,
        # their four running-sum bins and every base + step * L fit int16,
        # which ``lexsort`` radix-sorts.
        self.local_ch = (src * N_PORTS + _L).astype(np.int16)
        self.x_base = np.where(east, sy * w * N_PORTS + _W,
                               (sy * w + w - 1) * N_PORTS + _E).astype(np.int16)
        self.x_step = np.where(east, N_PORTS, -N_PORTS).astype(np.int16)
        self.y_base = np.where(south, dx * N_PORTS + _N - (w - 1) * w * N_PORTS,
                               ((h - 1) * w + dx) * N_PORTS + _S + (w - 1) * w * N_PORTS
                               ).astype(np.int16)
        self.y_step = np.where(south, w * N_PORTS, -w * N_PORTS).astype(np.int16)
        self.x_last = np.where(east, dx, w - 1 - dx)
        self.y_last = (w - 1) + np.where(south, dy, h - 1 - dy)
        self.after_x = np.where(dy != sy, (w - 1) + np.where(south, sy + 1, h - sy), self.n_levels)
        self.after_local = np.where(dx != sx, np.where(east, sx + 1, w - sx), self.after_x)

        messages = config.messages
        self.stats_start = 0.0 if self.warmup_count == 0 else math.inf

        # Messages that may be in flight, in generation order, and the count
        # of generations so far. Each holds its generation time, service
        # time and flow, the time of its latest event and the level of its
        # next channel.
        fields = {"t0": np.float64, "svc": np.float64, "cur": np.float64, "flow": np.int32,
                  "next": np.int16}
        self.msg = {name: np.empty(0, dtype) for name, dtype in fields.items()}
        self.generated = 0

        # Channels: each server's free time (-inf until a message uses it),
        # and the event engine's running sums, side by side (response,
        # service, queue-length area, busy time) so that one ``bincount``
        # adds a level's terms. The messages held for the statistics window
        # as (channel, arrival, service start, departure, service time).
        self.free = np.full(n_ch, -math.inf)
        self.arrivals = np.zeros(n_ch, dtype=np.int64)
        self.sums = np.zeros(4 * n_ch)
        self.bins = np.arange(4 * n_ch)
        self.held = (np.empty(0, np.int16), *[np.empty(0)] * 4)

        # Per-flow delivery counts and latency sums; the latencies and
        # delivery times in delivery order.
        self.flow_n = np.zeros(n_flows, dtype=np.int64)
        self.flow_sum = np.zeros(n_flows)
        self.lat = np.empty(messages)
        self.lat_t = np.empty(messages)
        self.n_lat = 0

    def run(self) -> SimStats:
        config = self.config
        start = -math.inf
        for times, cores, caches, lengths, stop in _draws(
                random.Random(config.seed), self.inj, self.active_cores, self.cum_p,
                config.mean_message_size, config.messages):
            self._generate(times, cores, caches, lengths)
            for level in range(self.n_levels):
                self._level(level, stop)
            self._deliver(start, stop)
            start = stop
        return self._stats()

    def _generate(self, times, cores, caches, lengths) -> None:
        """Append one window of generations to the messages in flight."""
        c, g0 = times.size, self.generated
        self.generated += c
        new = {"t0": times, "svc": lengths / self.config.mu, "cur": times,
               "flow": cores * self.n_caches + caches, "next": np.zeros(c, np.int16)}
        self.msg = {name: np.concatenate((a, new[name]), dtype=a.dtype)
                    for name, a in self.msg.items()}
        if g0 < self.warmup_count <= g0 + c:
            self.stats_start = float(times[self.warmup_count - 1 - g0])
            self._fold(self.held, math.inf)  # they come first on their channels

    def _level(self, level: int, stop: float) -> None:
        """Serve the arrivals before ``stop`` at the channels of one level
        and fold their terms into the running sums."""
        msg = self.msg
        cur = msg["cur"]
        sel = np.flatnonzero((msg["next"] == level) & (cur < stop))
        if not sel.size:
            return
        f = msg["flow"][sel]
        if level == 0:
            ch = self.local_ch[f]
        elif level < self.w:
            ch = self.x_base[f] + self.x_step[f] * level
        else:
            ch = self.y_base[f] + self.y_step[f] * level
        # By channel, then time; equal times keep message order.
        o = np.lexsort((cur[sel], ch))
        sel, ch, f = sel[o], ch[o], f[o]
        arrive = cur[sel]
        first = _segments(ch)
        if level and np.any((arrive[1:] == arrive[:-1]) & ~first[1:]):
            raise TieUnresolved
        self._fold((ch, arrive, *self._serve(level, sel, f, ch, first, arrive)), stop)

    def _serve(self, level, sel, f, ch, first, arrive) -> tuple[np.ndarray, ...]:
        """Service starts, departures and service times of the messages
        ``sel`` of flows ``f`` arriving at ``ch`` (sorted by channel, then in
        FIFO order; ``first`` marks each channel's first); updates the
        messages and the channels."""
        msg = self.msg
        heads = np.flatnonzero(first)
        hc = ch[heads]
        svc = msg["svc"][sel]
        begin = np.fromiter(_lindley(arrive.tolist(), svc.tolist(), heads.tolist(),
                                     self.free[hc].tolist()), float, sel.size)
        dep = begin + svc
        # Whether an arrival at the warmup instant counts depends on its pop
        # order against the warmup-th generation, which only that
        # generation's own LOCAL arrival is known to follow.
        if np.count_nonzero(arrive == self.stats_start) > (level == 0):
            raise TieUnresolved
        msg["cur"][sel] = dep
        if level == 0:
            msg["next"][sel] = self.after_local[f]
        elif level < self.w:
            msg["next"][sel] = np.where(level < self.x_last[f], level + 1, self.after_x[f])
        else:
            msg["next"][sel] = np.where(level < self.y_last[f], level + 1, self.n_levels)
        self.free[hc] = dep[np.append(heads[1:], sel.size) - 1]
        return begin, dep, svc

    def _fold(self, served, stop: float) -> None:
        """Add the terms of the ``served`` messages, (channel, arrival,
        service start, departure, service time) in each channel's FIFO
        order, to the running sums (see ``simulator.ChannelStats``): the
        response and service time of each arrival counted from the start
        ``s`` of the statistics window, and each departure after ``s`` its
        time in the channel and in service after ``s``. Before ``s`` is
        known, the messages that depart at or after ``stop`` are held."""
        s = self.stats_start
        if s == math.inf:
            held = [np.concatenate(pair) for pair in zip(self.held, served)]
            later = held[3] >= stop
            self.held = tuple(a[later] for a in held)
            return
        ch, arrive, begin, dep, svc = served
        n_ch = self.n_ch
        counted = arrive >= s
        after = dep > s
        self.arrivals += np.bincount(ch[counted], minlength=n_ch)
        self.sums = np.bincount(
            np.concatenate((self.bins, ch, ch + n_ch, ch + 2 * n_ch, ch + 3 * n_ch)),
            np.concatenate((self.sums, np.where(counted, dep - arrive, 0.0),
                            np.where(counted, svc, 0.0),
                            np.where(after, dep - np.maximum(arrive, s), 0.0),
                            np.where(after, dep - np.maximum(begin, s), 0.0))),
            minlength=4 * n_ch)

    def _deliver(self, start: float, stop: float) -> None:
        """Record the deliveries in [start, stop) in message order, which is
        each flow's delivery order: a flow's messages share every channel of
        their path, and each channel is FIFO. Drops the messages before the
        first one still waiting."""
        msg = self.msg
        cur = msg["cur"]
        waiting = (msg["next"] != self.n_levels) | (cur >= stop)
        fin = np.flatnonzero(~waiting & (cur >= start) & (msg["t0"] >= self.stats_start))
        new = slice(self.n_lat, self.n_lat + fin.size)
        self.n_lat += fin.size
        self.lat_t[new] = cur[fin]
        self.lat[new] = lat = self.lat_t[new] - msg["t0"][fin]
        f = msg["flow"][fin]
        self.flow_n += np.bincount(f, minlength=self.flow_n.size)
        self.flow_sum = np.bincount(np.concatenate((np.arange(self.flow_sum.size), f)),
                                    np.concatenate((self.flow_sum, lat)),
                                    minlength=self.flow_sum.size)
        first = np.flatnonzero(waiting)
        keep = int(first[0]) if first.size else cur.size
        self.msg = {name: a[keep:] for name, a in msg.items()}

    def _stats(self) -> SimStats:
        channel_ids = np.flatnonzero(self.free != -math.inf)
        resp_sum, svc_sum, area, busy = self.sums.reshape(4, self.n_ch)[:, channel_ids].tolist()
        arrivals = self.arrivals[channel_ids].tolist()
        flows = np.flatnonzero(self.flow_n)
        keys = self.src[flows] * self.grid.n_tiles + self.dst[flows]
        messages = self.config.messages
        end_t = float(self.free.max())  # the last departure
        return _sim_stats(
            self.grid,
            zip(channel_ids.tolist(), arrivals, arrivals, busy, area, resp_sum, svc_sum),
            self.lat[:self.n_lat], self.lat_t[:self.n_lat],
            zip(keys.tolist(), self.flow_n[flows].tolist(), self.flow_sum[flows].tolist()),
            end_t, max(end_t - self.stats_start, 0.0),
            messages, messages, 0, 0,
        )


def run_feedforward(config: SimConfig) -> SimStats:
    """The feed-forward engine: Lindley's recursion per channel in
    dependency order (see ``_FeedForward``)."""
    return _FeedForward(config).run()
