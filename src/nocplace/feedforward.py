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
  departure by the recursion in FIFO order; each running sum (response,
  service, queue-length area, busy time) one term at a time in each
  channel's event order, and each flow's latency sum in delivery order.
- The order of simultaneous events is not rebuilt. Message lengths repeat,
  so a departure often coincides with another event, but the statistics do
  not depend on how such ties pop: ``simulator._sim_stats`` orders the
  latencies by (delivery time, latency), and the deliveries of one flow
  leave one channel, at distinct times. Ties that change the trajectory
  raise ``TieUnresolved``.

The working set is bounded: generations come in windows of ``_WINDOW``, and
only the messages in flight are kept, 30 bytes each, in a store of at most
two windows. Beyond that a run keeps 16 bytes per message: its latency and
delivery time. Fewer, larger windows make fewer numpy calls per message.
"""

from __future__ import annotations

import math
import random
from heapq import heapify, heapreplace

import numpy as np

from .routing import _E, _L, _N, _S, _W, N_PORTS
from .simulator import SimConfig, SimStats, _injection, _sim_stats
from .traffic import resolve

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
    """FIFO departures ``D_k = max(A_k, D_{k-1}) + S_k``, evaluated in order.
    The arrivals are grouped by channel; each group begins at its index in
    ``starts`` with ``D_{k-1}`` the time its channel's server frees up."""
    out: list[float] = []
    push = out.append
    for b, e, d in zip(starts, starts[1:] + [len(arrive)], free):
        for a, s in zip(arrive[b:e], service[b:e]):
            d = (a if a > d else d) + s
            push(d)
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
    message can precede.
    """

    def __init__(self, config: SimConfig):
        grid = config.placement.grid
        self.config = config
        self.grid = grid
        w, h, n_tiles = grid.width, grid.height, grid.n_tiles
        r = resolve(config.placement, config.traffic)
        self.cum_p = np.cumsum(r.p, axis=1)
        self.inj, self.active_cores = _injection(config, r)
        n_cores, n_caches = len(r.core_ids), len(r.cache_ids)
        self.n_caches = n_caches
        n_flows = n_cores * n_caches
        self.n_ch = n_ch = n_tiles * N_PORTS
        self.w = w
        self.n_levels = w + h - 1
        self.done = self.n_levels

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
        self.after_x = np.where(dy != sy, (w - 1) + np.where(south, sy + 1, h - sy), self.done)
        self.after_local = np.where(dx != sx, np.where(east, sx + 1, w - sx), self.after_x)

        messages = config.messages
        self.warmup_count = int(config.warmup_frac * messages)
        self.stats_start = 0.0 if self.warmup_count == 0 else math.inf

        # Messages: index i holds message base + i; lo:size may be in flight.
        # Each holds its generation time, service time and flow, the time of
        # its latest event and the level of its next channel.
        fields = {"t0": np.float64, "svc": np.float64, "cur": np.float64, "flow": np.int32,
                  "next": np.int16}
        cap = min(2 * _WINDOW, messages)
        self.msg = {name: np.empty(cap, dtype) for name, dtype in fields.items()}
        self.base = self.size = self.lo = 0

        # Channels: whether a message used it, each server's free time; the
        # event engine's running sums, side by side (response, service,
        # queue-length area, busy time) so that one ``bincount`` adds a
        # level's terms; the queue length and time of the last event folded
        # into the area, and per level the departures not yet folded as
        # channel + 1j * time, in channel and time order.
        self.used = np.zeros(n_ch, dtype=bool)
        self.free = np.full(n_ch, -math.inf)
        self.arrivals = np.zeros(n_ch, dtype=np.int64)
        self.sums = np.zeros(4 * n_ch)
        self.bins = np.arange(4 * n_ch)
        self.queued = np.zeros(n_ch, dtype=np.int64)
        self.last_t = np.zeros(n_ch)
        self.pending = [np.empty(0, dtype=complex)] * self.n_levels

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
        """Append one window of generations, dropping delivered messages."""
        c = times.size
        msg = self.msg
        if self.size + c > msg["t0"].size:
            keep = self.size - self.lo
            for name, a in msg.items():
                if keep + c > a.size:
                    msg[name] = np.empty(2 * (keep + c), a.dtype)
                msg[name][:keep] = a[self.lo:self.size]
            self.base, self.size, self.lo = self.base + self.lo, keep, 0
        g0 = self.base + self.size
        new = slice(self.size, self.size + c)
        self.size += c
        msg["t0"][new] = msg["cur"][new] = times
        msg["svc"][new] = lengths / self.config.mu
        msg["flow"][new] = cores * self.n_caches + caches
        msg["next"][new] = 0
        if g0 < self.warmup_count <= g0 + c:
            self.stats_start = float(times[self.warmup_count - 1 - g0])

    def _level(self, level: int, stop: float) -> None:
        """Serve the arrivals before ``stop`` at the channels of one level
        and fold that level's events before ``stop`` into the running sums."""
        msg, lo, size = self.msg, self.lo, self.size
        cur = msg["cur"]
        sel = np.flatnonzero((msg["next"][lo:size] == level) & (cur[lo:size] < stop))
        sel += lo
        if not sel.size:
            if self.pending[level].size:
                empty = np.empty(0)
                self._fold(level, stop, sel, empty, empty, empty)
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
        dep, svc = self._serve(level, sel, f, ch, first, arrive)
        self._fold(level, stop, ch, arrive, dep, svc)

    def _serve(self, level, sel, f, ch, first, arrive) -> tuple[np.ndarray, np.ndarray]:
        """Departures and service times of the messages ``sel`` of flows
        ``f`` arriving at ``ch`` (sorted by channel, then in FIFO order;
        ``first`` marks each channel's first); updates the messages and the
        channels."""
        msg = self.msg
        heads = np.flatnonzero(first)
        hc = ch[heads]
        svc = msg["svc"][sel]
        dep = np.fromiter(_lindley(arrive.tolist(), svc.tolist(), heads.tolist(),
                                   self.free[hc].tolist()), float, sel.size)
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
            msg["next"][sel] = np.where(level < self.y_last[f], level + 1, self.done)
        self.used[hc] = True
        self.free[hc] = dep[np.append(heads[1:], sel.size) - 1]
        return dep, svc

    def _fold(self, level, stop, ch, arrive, dep, svc) -> None:
        """Add the level's running sums: response and service time of the
        counted arrivals at ``ch``, and queue-length area and busy time over
        the arrivals and the departures before ``stop``. Each channel's
        events are taken in time order, as the event engine meets them;
        events at one instant add dt = 0, so their order among themselves
        does not matter."""
        n_ch, na, pend = self.n_ch, arrive.size, self.pending[level]
        # Arrivals, pending departures and new departures are each in
        # channel and time order: a stable sort merges the three runs.
        key = np.empty(2 * na + pend.size, dtype=complex)
        key[na:na + pend.size] = pend
        key.real[:na] = key.real[na + pend.size:] = ch
        key.imag[:na], key.imag[na + pend.size:] = arrive, dep
        o = np.argsort(key, kind="stable")
        key = key[o]
        later = key.imag >= stop
        self.pending[level] = key[later]
        now = ~later
        step = np.where(o[now] < na, 1, -1)
        key = key[now]
        del o, later, now
        if not key.size:
            return
        t = key.imag.copy()
        ch_all = key.real.astype(np.int16)
        del key
        # Queue length before each event: the channel's queue, then one
        # cumulative sum whose first step on each channel restarts it.
        heads = np.flatnonzero(_segments(ch_all))
        hc = ch_all[heads]
        queued = self.queued[hc]
        self.queued[hc] = ends = queued + np.add.reduceat(step, heads)
        restart = step.copy()
        restart[heads] += queued
        restart[heads[1:]] -= ends[:-1]
        n = np.cumsum(restart)
        n -= step
        del restart, step
        prev_t = np.empty(t.size)
        prev_t[1:] = t[:-1]
        prev_t[heads] = self.last_t[hc]
        self.last_t[hc] = t[np.append(heads[1:], t.size) - 1]

        # Terms of events before the statistics window are 0.0, which adds
        # nothing to a sum of non-negative terms.
        stats_start = self.stats_start
        if stats_start == math.inf:
            return
        counted = arrive >= stats_start
        self.arrivals += np.bincount(ch[counted], minlength=n_ch)
        dt = t - np.maximum(prev_t, stats_start)
        dt[t <= stats_start] = 0.0
        self.sums = np.bincount(
            np.concatenate((self.bins, ch, ch + n_ch, ch_all + 2 * n_ch, ch_all + 3 * n_ch)),
            np.concatenate((self.sums, np.where(counted, dep - arrive, 0.0),
                            np.where(counted, svc, 0.0), n * dt, np.where(n > 0, dt, 0.0))),
            minlength=4 * n_ch)

    def _deliver(self, start: float, stop: float) -> None:
        """Record the deliveries in [start, stop) in message order, which is
        each flow's delivery order: a flow's messages share every channel of
        their path, and each channel is FIFO."""
        msg, lo, size, done = self.msg, self.lo, self.size, self.done
        cur = msg["cur"][lo:size]
        waiting = (msg["next"][lo:size] != done) | (cur >= stop)
        fin = np.flatnonzero(~waiting & (cur >= start) & (msg["t0"][lo:size] >= self.stats_start))
        fin += lo
        new = slice(self.n_lat, self.n_lat + fin.size)
        self.n_lat += fin.size
        self.lat_t[new] = msg["cur"][fin]
        self.lat[new] = lat = self.lat_t[new] - msg["t0"][fin]
        f = msg["flow"][fin]
        self.flow_n += np.bincount(f, minlength=self.flow_n.size)
        self.flow_sum = np.bincount(np.concatenate((np.arange(self.flow_sum.size), f)),
                                    np.concatenate((self.flow_sum, lat)),
                                    minlength=self.flow_sum.size)
        first = np.flatnonzero(waiting)
        self.lo += int(first[0]) if first.size else size - lo

    def _stats(self) -> SimStats:
        channel_ids = np.flatnonzero(self.used)
        resp_sum, svc_sum, area, busy = self.sums.reshape(4, self.n_ch)[:, channel_ids].tolist()
        arrivals = self.arrivals[channel_ids].tolist()
        flows = np.flatnonzero(self.flow_n)
        keys = self.src[flows] * self.grid.n_tiles + self.dst[flows]
        messages = self.config.messages
        end_t = float(self.last_t.max())  # the last departure
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
