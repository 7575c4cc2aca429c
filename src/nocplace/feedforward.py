"""Feed-forward simulator engine for runs that draw no derived messages.

Under XY routing the channel-dependency graph has no cycles (Dally & Seitz
1987), so when no delivery spawns a message each channel's departures follow
from its arrivals by Lindley's FIFO recursion ``D_k = max(A_k, D_{k-1}) +
S_k`` (Lindley 1952), taken channel by channel in dependency order with no
event heap. ``run_feedforward`` returns the ``SimStats`` of the event engine
bit for bit:

- The random stream is the same: every draw happens at a generation.
- Every float is computed by the same operations in the same order: each
  departure by the recursion in FIFO order; each running sum (response,
  service, queue-length area, busy time, flow latency) one term at a time in
  the order the event engine adds it.
- Equal times pop in the event engine's order. Message lengths repeat, so a
  departure often coincides with another event. The event engine breaks
  such ties by push order, that is by the pop order of the pushing events
  and then by push rank within one of them; ``_rank_ties`` rebuilds that
  order for every set of events that share a time. It decides the order of
  deliveries (the latency list) and which of two simultaneous events
  scheduled a departure. Ties it does not rebuild raise ``TieUnresolved``.

The working set is bounded: generations come in windows of ``_WINDOW``, and
only the messages in flight and the current window's events are kept.
"""

from __future__ import annotations

import math
import random
from collections import deque
from heapq import heapify, heapreplace
from typing import NamedTuple

import numpy as np

from .routing import N_PORTS, xy_hops
from .simulator import SimConfig, SimStats, _injection, _sim_stats
from .traffic import resolve

_N, _S, _E, _W, _L = range(N_PORTS)  # port indices in PORT_ORDER

# Generations per window of the feed-forward engine. Its working set is a
# few windows of messages and events; fewer, larger windows cost less numpy
# call overhead.
_WINDOW = 2048

# One in-flight message of the feed-forward engine, one array per field:
# generation time, service time and flow (core index * n_caches + cache
# index); ``cur`` is the time of its latest event, ``level``/``next`` the
# level of that event and of its next channel, and ``sched_t``/``sched``/
# ``rank`` the record of that event: when and by which event it was
# scheduled, and its push rank within that event.
_MSG_FIELDS = {"t0": np.float64, "svc": np.float64, "cur": np.float64,
               "sched_t": np.float64, "sched": np.int64, "flow": np.int32,
               "rank": np.int32, "level": np.int16, "next": np.int16}


class _Events(NamedTuple):
    """Events of the current window, kept until its ties are ranked: time,
    the record fields of ``_MSG_FIELDS`` and the event id."""

    t: np.ndarray
    sched_t: np.ndarray
    sched: np.ndarray
    rank: np.ndarray
    id: np.ndarray


class TieUnresolved(Exception):
    """An event coincides with another whose relative pop order the engine
    does not rebuild: two arrivals at one channel from different channels
    (their FIFO order), or an arrival and the warmup-th generation (whether
    it counts). Each takes a coincidence of float sums; such runs are left
    to the event engine."""


def _draws(rng: random.Random, inj: list[float], active_cores: list[int],
           cum_p: np.ndarray, mean_size: float, messages: int):
    """Replay the event engine's draws, ``_WINDOW`` generations at a time.

    Without derived messages every draw happens at a generation event: the
    gap to the core's next generation (none after the last), the cache and
    the length, in that order, one ``rng.random()`` each (``expovariate`` is
    ``-log(1 - u) / rate``). So a window's uniforms are drawn in one go, and
    only the order of the generations is replayed one at a time, on a heap
    of the active cores whose time ties break by their own push counter: the
    order the event engine's global counter gives them. Yields (times, core
    indices, cache indices, lengths, time of the next generation or inf).
    """
    uniform, log = rng.random, math.log
    heap = [(-log(1.0 - uniform()) / inj[i], seq, i) for seq, i in enumerate(active_cores)]
    heapify(heap)
    seq = len(heap)
    while messages:
        n = min(_WINDOW, messages)
        messages -= n
        u = [uniform() for _ in range(3 * n - (not messages))]
        if not messages:
            u.insert(3 * n - 3, 0.0)  # the last generation draws no gap
        times, cores = [], []
        for s, x in zip(range(seq, seq + n - (not messages)), u[0::3]):
            t, _, i = heap[0]
            heapreplace(heap, (t + -log(1.0 - x) / inj[i], s, i))
            times.append(t)
            cores.append(i)
        seq += n
        if not messages:
            t, _, i = heap[0]
            times.append(t)
            cores.append(i)
        cores = np.array(cores, dtype=np.int64)
        pick = np.array(u[1::3])
        caches = np.empty(n, dtype=np.int64)
        for i in np.unique(cores).tolist():
            mine = cores == i
            caches[mine] = np.searchsorted(cum_p[i], pick[mine])
        sizes = np.array([-log(1.0 - x) for x in u[2::3]]) / (1.0 / mean_size)
        times = np.array(times)
        del u, pick
        yield (times, cores, np.minimum(caches, cum_p.shape[1] - 1),
               np.maximum(np.rint(sizes), 1.0), heap[0][0] if messages else math.inf)


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


def _add_in_order(acc: np.ndarray, idx: np.ndarray, values: np.ndarray) -> None:
    """``acc[i] += v`` for each ``v`` of ``values`` at index ``i``, one at a
    time in array order, as the event engine's running sums add (``bincount``
    accumulates sequentially; ``np.add.at`` is slow before numpy 1.25)."""
    n = acc.size
    acc[:] = np.bincount(np.concatenate((np.arange(n), idx)),
                         np.concatenate((acc, values)), minlength=n)


def _segments(keys: np.ndarray) -> np.ndarray:
    """Boolean mask of the first element of each run of equal ``keys``."""
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return first


def _sort_by_channel(t: np.ndarray, ch: np.ndarray, kind: str = "stable") -> np.ndarray:
    """Order by channel, then time; equal times keep their order when
    ``kind`` is stable."""
    o = np.argsort(t, kind=kind)
    return o[np.argsort(ch[o].astype(np.int16 if ch.size and ch.max() < 2**15 else np.int64),
                        kind="stable")]


def _rank_ties(events: list[_Events], ranks: dict[int, int], amb: dict,
               ranked: deque) -> None:
    """Rank, in the event engine's pop order, each set of the window's
    ``events`` that share a time, earliest time first. Equal times pop in
    push order: by the pop order of the scheduling events (their time, then
    their own tie rank), then by push rank within one scheduling event. When
    an event was scheduled at the instant its channel's previous departure
    left (``amb``), whichever of the two popped later scheduled it."""
    t = np.concatenate([part.t for part in events])
    o = np.argsort(t)
    same = t[o[1:]] == t[o[:-1]]
    if not same.any():
        return
    o = o[np.append(same, False) | np.insert(same, 0, False)]
    t, sched_t, sched, rank, ids = (np.concatenate([part[k] for part in events])[o]
                                    for k in range(len(_Events._fields)))
    # Most ties split on the scheduling time or share the scheduling event;
    # the rest need the scheduling events' own tie ranks, taken in time order.
    o = np.lexsort((rank, sched, sched_t, t))
    t, sched_t, sched, rank, ids = t[o], sched_t[o], sched[o], rank[o], ids[o]
    group = np.cumsum(_segments(t)) - 1
    pair = np.flatnonzero((t[1:] == t[:-1]) & (sched_t[1:] == sched_t[:-1]))
    hard = [k for k, other, a, b in zip(pair.tolist(), (sched[pair + 1] != sched[pair]).tolist(),
                                        ids[pair].tolist(), ids[pair + 1].tolist())
            if other or a in amb or b in amb]
    heads = np.flatnonzero(_segments(group))
    ranks.update(zip(ids.tolist(), (np.arange(t.size) - heads[group]).tolist()))
    bounds = np.append(heads, t.size).tolist()
    for g in sorted(set(group[hard].tolist())):
        b, e = bounds[g], bounds[g + 1]
        keyed = []
        for at, by, push, eid in zip(*(a[b:e].tolist() for a in (sched_t, sched, rank, ids))):
            pred = amb.get(eid)
            if pred is None:
                key = (at, ranks.get(by, 0), push)
            else:
                by_arrival, by_pred = ranks[by], ranks[pred[0]]
                key = (at, max(by_arrival, by_pred), int(by_arrival > by_pred))
            keyed.append((key, eid))
        keyed.sort()
        ranks.update((eid, k) for k, (_, eid) in enumerate(keyed))
    ranked.append((float(t[-1]), ids))


def _pop_order(t: np.ndarray, ids: np.ndarray, ranks: dict[int, int]) -> np.ndarray:
    """Order of events by time, equal times by tie rank."""
    o = np.argsort(t, kind="stable")
    tied = np.flatnonzero(t[o[1:]] == t[o[:-1]])
    if not tied.size:
        return o
    tied = o[np.union1d(tied, tied + 1)]
    rank = np.zeros(t.size, dtype=np.int64)
    rank[tied] = [ranks[eid] for eid in ids[tied].tolist()]
    return np.lexsort((rank, t))


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
        n_ch = n_tiles * N_PORTS
        self.w = w
        self.n_levels = w + h - 1
        self.done = self.n_levels
        self.stride = self.n_levels + 1  # event id: message * stride + level + 1

        # Per flow (core index * n_caches + cache index): its endpoints, the
        # channel at level L as base + step * L within each phase, and its
        # walk: the level after LOCAL, the last X level, the level after it,
        # the last Y level.
        self.src = src = np.repeat(r.core_ids, n_caches).astype(np.int64)
        self.dst = dst = np.tile(r.cache_ids, n_cores).astype(np.int64)
        sx, sy, dx, dy = src % w, src // w, dst % w, dst // w
        east, south = dx > sx, dy > sy
        self.local_ch = src * N_PORTS + _L
        self.x_base = np.where(east, sy * w * N_PORTS + _W, (sy * w + w - 1) * N_PORTS + _E)
        self.x_step = np.where(east, N_PORTS, -N_PORTS)
        self.y_base = np.where(south, dx * N_PORTS + _N - (w - 1) * w * N_PORTS,
                               ((h - 1) * w + dx) * N_PORTS + _S + (w - 1) * w * N_PORTS)
        self.y_step = np.where(south, w * N_PORTS, -w * N_PORTS)
        self.x_last = np.where(east, dx, w - 1 - dx)
        self.y_last = (w - 1) + np.where(south, dy, h - 1 - dy)
        self.after_x = np.where(dy != sy, (w - 1) + np.where(south, sy + 1, h - sy), self.done)
        self.after_local = np.where(dx != sx, np.where(east, sx + 1, w - sx), self.after_x)

        self.warmup_count = int(config.warmup_frac * config.messages)
        self.stats_start = 0.0 if self.warmup_count == 0 else math.inf
        self.svc_max = 0.0

        # Messages: index i holds message base + i; lo:size may be in flight.
        cap = min(2 * _WINDOW, config.messages)
        self.msg = {name: np.empty(cap, dtype) for name, dtype in _MSG_FIELDS.items()}
        self.base = self.size = self.lo = 0
        self.core_last = np.full(n_cores, -1, dtype=np.int64)  # latest generation per core
        self.core_last_t = np.zeros(n_cores)
        self.push_rank = np.zeros(n_cores, dtype=np.int64)
        self.push_rank[self.active_cores] = np.arange(len(self.active_cores))

        # Channels: each server's free time and the id of the departure that
        # frees it; the event engine's running sums; the queue length and
        # time of the last event folded into the area, and per level the
        # departures not yet folded.
        self.free = np.full(n_ch, -math.inf)
        self.last_id = np.full(n_ch, -1, dtype=np.int64)
        self.arrivals = np.zeros(n_ch, dtype=np.int64)
        self.completions = np.zeros(n_ch, dtype=np.int64)
        self.resp_sum, self.svc_sum, self.area, self.busy = (np.zeros(n_ch) for _ in range(4))
        self.queued = np.zeros(n_ch, dtype=np.int64)
        self.last_t = np.zeros(n_ch)
        self.pending = [(np.empty(0, dtype=np.int64), np.empty(0))] * self.n_levels

        # Ties: the pop rank of each event that shares its time, by group for
        # pruning, and the events scheduled at the instant their channel's
        # previous departure left (id -> (that departure's id, time)).
        self.ranks: dict[int, int] = {}
        self.ranked: deque = deque()
        self.amb: dict[int, tuple[int, float]] = {}

        # Flows in order of first generation (channel creation order) and of
        # first delivery; per-flow latency sums; latencies in delivery order.
        self.made = np.zeros(n_flows, dtype=bool)
        self.made_order: list[np.ndarray] = []
        self.seen = np.zeros(n_flows, dtype=bool)
        self.seen_order: list[np.ndarray] = []
        self.flow_n = np.zeros(n_flows, dtype=np.int64)
        self.flow_sum = np.zeros(n_flows)
        self.lat = np.empty(config.messages)
        self.n_lat = 0
        self.end_t = 0.0

    def run(self) -> SimStats:
        config = self.config
        start = -math.inf
        for times, cores, caches, lengths, stop in _draws(
                random.Random(config.seed), self.inj, self.active_cores, self.cum_p,
                config.mean_message_size, config.messages):
            self._generate(times, cores, caches, lengths)
            window: list[_Events] = []
            for level in range(self.n_levels):
                self._level(level, stop, window)
            self._deliver(start, stop, window)
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
        msg["flow"][new] = flow = cores * self.n_caches + caches
        msg["level"][new], msg["next"][new] = -1, 0
        # A new message's latest event is its generation. The same core's
        # previous generation pushed it (rank 0: before the LOCAL push); the
        # first generation of each core was pushed in active-core order.
        o = np.argsort(cores, kind="stable")
        heads = _segments(cores[o])
        tails = np.append(heads[1:], True)
        prev = np.empty(c, dtype=np.int64)
        prev_t = np.empty(c)
        prev[o[1:]], prev_t[o[1:]] = g0 + o[:-1], times[o[:-1]]
        head_cores = cores[o[heads]]
        prev[o[heads]], prev_t[o[heads]] = self.core_last[head_cores], self.core_last_t[head_cores]
        tail_cores = cores[o[tails]]
        self.core_last[tail_cores], self.core_last_t[tail_cores] = g0 + o[tails], times[o[tails]]
        first = prev < 0
        msg["sched_t"][new] = np.where(first, -math.inf, prev_t)
        msg["sched"][new] = np.where(first, -1, prev * self.stride)
        msg["rank"][new] = np.where(first, self.push_rank[cores], 0)
        if g0 < self.warmup_count <= g0 + c:
            self.stats_start = float(times[self.warmup_count - 1 - g0])
        self.svc_max = max(self.svc_max, float(msg["svc"][new].max()))
        self.made_order.append(_first_seen(flow, self.made))

    def _level(self, level: int, stop: float, window: list) -> None:
        """Serve the arrivals before ``stop`` at the channels of one level and
        fold that level's events before ``stop`` into the area sums."""
        msg, lo, size = self.msg, self.lo, self.size
        sel = np.flatnonzero((msg["next"][lo:size] == level) & (msg["cur"][lo:size] < stop)) + lo
        dep_ch, dep_t = self.pending[level]
        if not sel.size and not dep_t.size:
            return
        f = msg["flow"][sel]
        if level == 0:
            ch = self.local_ch[f]
        elif level < self.w:
            ch = self.x_base[f] + self.x_step[f] * level
        else:
            ch = self.y_base[f] + self.y_step[f] * level
        o = _sort_by_channel(msg["cur"][sel], ch)
        sel, ch = sel[o], ch[o]
        arrive = msg["cur"][sel]
        up = _Events(arrive, msg["sched_t"][sel], msg["sched"][sel], msg["rank"][sel],
                     (self.base + sel) * self.stride + msg["level"][sel] + 1)
        if level and np.any((arrive[1:] == arrive[:-1]) & (ch[1:] == ch[:-1])):
            raise TieUnresolved
        window.append(up)
        dep = self._serve(level, sel, ch, arrive, up.id)
        dep_ch, dep_t = np.concatenate((dep_ch, ch)), np.concatenate((dep_t, dep))
        later = dep_t >= stop
        self.pending[level] = dep_ch[later], dep_t[later]
        self._fold(np.concatenate((ch, dep_ch[~later])),
                   np.concatenate((arrive, dep_t[~later])), sel.size)

    def _serve(self, level, sel, ch, arrive, up) -> np.ndarray:
        """Departures of the messages ``sel`` arriving at ``ch`` (sorted by
        channel, then in FIFO order) from upstream events ``up``; updates the
        messages, the channels and the running sums."""
        n = sel.size
        if not n:
            return np.empty(0)
        msg = self.msg
        svc = msg["svc"][sel]
        heads = np.flatnonzero(_segments(ch))
        free = self.free[ch[heads]]
        dep = np.fromiter(_lindley(arrive.tolist(), svc.tolist(), heads.tolist(),
                                   free.tolist()), float, n)
        own = (self.base + sel) * self.stride + level + 1
        prev_dep = np.empty(n)
        prev_dep[1:] = dep[:-1]
        prev_dep[heads] = free
        prev_id = np.empty(n, dtype=np.int64)
        prev_id[1:] = own[:-1]
        prev_id[heads] = self.last_id[ch[heads]]
        for k in np.flatnonzero(arrive == prev_dep).tolist():
            self.amb[int(own[k])] = (int(prev_id[k]), float(dep[k]))
        # Whether an arrival at the warmup instant counts depends on its pop
        # order against the warmup-th generation, which only that
        # generation's own LOCAL arrival is known to follow.
        if np.count_nonzero(arrive == self.stats_start) > (level == 0):
            raise TieUnresolved
        # The departure was pushed by the arrival's event when the server was
        # idle (rank 1: after the push of the next message on the upstream
        # channel), else by the previous departure (rank 0).
        by_arrival = arrive >= prev_dep
        msg["sched_t"][sel] = np.maximum(arrive, prev_dep)
        msg["sched"][sel] = np.where(by_arrival, up, prev_id)
        msg["rank"][sel] = by_arrival
        msg["cur"][sel] = dep
        msg["level"][sel] = level
        f = msg["flow"][sel]
        if level == 0:
            msg["next"][sel] = self.after_local[f]
        elif level < self.w:
            msg["next"][sel] = np.where(level < self.x_last[f], level + 1, self.after_x[f])
        else:
            msg["next"][sel] = np.where(level < self.y_last[f], level + 1, self.done)
        tails = np.append(heads[1:], n) - 1
        self.free[ch[tails]] = dep[tails]
        self.last_id[ch[tails]] = own[tails]

        counted = arrive >= self.stats_start
        cc = ch[counted]
        n_arr = np.bincount(cc, minlength=self.free.size)
        self.arrivals += n_arr
        self.completions += n_arr
        _add_in_order(self.resp_sum, cc, (dep - arrive)[counted])
        _add_in_order(self.svc_sum, cc, svc[counted])
        return dep

    def _fold(self, ch: np.ndarray, t: np.ndarray, n_arrivals: int) -> None:
        """Add queue-length area and busy time over the events ``t`` at ``ch``:
        ``n_arrivals`` arrivals, then departures. Each channel's events are
        taken in time order, as the event engine meets them; events at one
        instant add dt = 0, so their order among themselves does not matter."""
        if not t.size:
            return
        step = np.ones(t.size, dtype=np.int64)
        step[n_arrivals:] = -1
        o = _sort_by_channel(t, ch, "quicksort")
        ch, t, step = ch[o], t[o], step[o]
        heads = np.flatnonzero(_segments(ch))
        tails = np.append(heads[1:], t.size) - 1
        before = np.cumsum(step) - step
        seg = np.repeat(np.arange(heads.size), np.diff(np.append(heads, t.size)))
        n = self.queued[ch] + before - before[heads][seg]
        prev_t = np.empty(t.size)
        prev_t[1:] = t[:-1]
        prev_t[heads] = self.last_t[ch[heads]]
        live = t > self.stats_start
        dt = t[live] - np.maximum(prev_t[live], self.stats_start)
        n, lc = n[live], ch[live]
        _add_in_order(self.area, lc, n * dt)
        _add_in_order(self.busy, lc[n > 0], dt[n > 0])
        ends = ch[tails]
        self.queued[ends] += before[tails] + step[tails] - before[heads]
        self.last_t[ends] = t[tails]

    def _deliver(self, start: float, stop: float, window: list) -> None:
        """Rank the window's ties and record its deliveries in pop order."""
        msg, lo, size, done = self.msg, self.lo, self.size, self.done
        cur = msg["cur"][lo:size]
        waiting = (msg["next"][lo:size] != done) | (cur >= stop)
        fin = np.flatnonzero(~waiting & (cur >= start)) + lo
        final = _Events(msg["cur"][fin], msg["sched_t"][fin], msg["sched"][fin], msg["rank"][fin],
                        (self.base + fin) * self.stride + msg["level"][fin] + 1)
        window.append(final)
        _rank_ties(window, self.ranks, self.amb, self.ranked)
        window.clear()

        if fin.size:
            self.end_t = max(self.end_t, float(final.t.max()))
        fin = fin[_pop_order(final.t, final.id, self.ranks)]
        fin = fin[msg["t0"][fin] >= self.stats_start]
        lat = self.lat[self.n_lat:self.n_lat + fin.size]
        lat[:] = msg["cur"][fin] - msg["t0"][fin]
        self.n_lat += fin.size
        f = msg["flow"][fin]
        self.flow_n += np.bincount(f, minlength=self.flow_n.size)
        _add_in_order(self.flow_sum, f, lat)
        self.seen_order.append(_first_seen(f, self.seen))

        for eid in [k for k, (_, t) in self.amb.items() if t < stop]:
            del self.amb[eid]
        while self.ranked and self.ranked[0][0] + self.svc_max < stop:
            for eid in self.ranked.popleft()[1].tolist():
                del self.ranks[eid]
        first = np.flatnonzero(waiting)
        self.lo += int(first[0]) if first.size else size - lo

    def _stats(self) -> SimStats:
        """The run's ``SimStats``, with the event engine's dict orders."""
        made = np.concatenate(self.made_order)
        channel_ids = dict.fromkeys(np.concatenate(
            [hops for _, _, _, hops, _ in xy_hops(self.grid, self.src[made], self.dst[made])]
        ).tolist())
        columns = [a.tolist() for a in (self.arrivals, self.completions, self.busy, self.area,
                                        self.resp_sum, self.svc_sum)]
        flows = np.concatenate(self.seen_order)
        keys = self.src[flows] * self.grid.n_tiles + self.dst[flows]
        messages = self.config.messages
        return _sim_stats(
            self.grid,
            ((cid, *(col[cid] for col in columns)) for cid in channel_ids),
            self.lat[:self.n_lat],
            zip(keys.tolist(), self.flow_n[flows].tolist(), self.flow_sum[flows].tolist()),
            self.end_t, max(self.end_t - self.stats_start, 0.0),
            messages, messages, 0, 0,
        )


def _first_seen(flow: np.ndarray, seen: np.ndarray) -> np.ndarray:
    """The flows of ``flow`` not yet in ``seen``, in order of first
    occurrence; marks them seen."""
    fresh, at = np.unique(flow, return_index=True)
    fresh = fresh[np.argsort(at)]
    fresh = fresh[~seen[fresh]]
    seen[fresh] = True
    return fresh


def run_feedforward(config: SimConfig) -> SimStats:
    """The feed-forward engine: Lindley's recursion per channel in
    dependency order (see ``_FeedForward``)."""
    return _FeedForward(config).run()
