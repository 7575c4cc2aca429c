"""Discrete-event mesh simulator: store-and-forward switching at message
granularity under XY routing.

Each (router, input port) channel is a FIFO queue with a single server. A
message drawn with exponential length L occupies every channel on its path
for L/mu in turn: the whole body follows the header hop by hop, but a channel
serves one message at a time, so the zero-load latency of a path with d link
hops is (d+1) * L/mu including the source injection service. Buffers are
infinite; saturation is detected statistically from the latency trend, not
from overflow.

Two engines run the model and return the same ``SimStats``, bit for bit:

- The event engine (``events.run_events``) pops generation and
  channel-completion events from one heap and breaks time ties by insertion
  order, in one flat loop that makes no call per event. It runs every
  configuration, and it is the only engine for runs that spawn messages:
  controller legs (controllers present and ``miss_l2 > 0``) and replies
  (``model_replies``).
- The feed-forward engine (``feedforward.run_feedforward``) takes all other
  runs. With no spawned traffic every random draw happens at a generation
  and XY routing orders the channels without cycles, so each channel's
  departures follow from Lindley's recursion in dependency order. It
  replays the same draws and evaluates every float with the same operations
  in the same order (see that module). ``run_sim`` picks the engine; there
  is no option.

The engines need not agree on the order of simultaneous deliveries:
``_sim_stats`` orders the latencies by (delivery time, latency), the
channels by id and the flows by (source, destination) tile id.

Each engine lives in its own module, imported on first use, so ``import
nocplace`` compiles neither.

Both route on the analytical models' topology: endpoints are the tile ids of
``resolve`` and paths the channel ids ``tile * N_PORTS + in_port`` of the
injection channel, the row segment and then the column segment, so both
route the same XY paths over the same channels.
``Coord``/``Port`` keys are built only when ``SimStats`` is assembled, and
every statistic is a plain Python float.

Runs are deterministic for a given (config, seed): all randomness flows from
one seeded generator.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass, replace
from typing import IO, Sequence

import numpy as np

from .errors import InvalidConfigError, UnstableError
from .mesh import Coord, NodeKind, Placement
from .queueing import PAPER, packet_delay_inspector
from .routing import N_PORTS, PORT_ORDER, Port
from .traffic import TrafficSpec

# t critical values (two-sided 95%) for small seed counts, df 1..9
_T95 = {1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
        6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262}

SATURATION_TREND_RATIO = 1.5


@dataclass(frozen=True)
class SimConfig:
    """One simulation run: placement, traffic, message budget and seed.

    ``mu`` is the router service rate in packets per time unit; a message of
    L packets occupies a channel for L/mu. Defaults give mean message size 10
    and mu 10, i.e. one mean message service per time unit per channel.
    """

    placement: Placement
    traffic: TrafficSpec
    mean_message_size: float = 10.0
    mu: float = 10.0
    messages: int = 100_000
    warmup_frac: float = 0.1
    seed: int = 0

    def __post_init__(self):
        # A float or bool budget would reach numpy array sizes and fail there.
        try:
            if isinstance(self.messages, bool):
                raise TypeError
            object.__setattr__(self, "messages", operator.index(self.messages))
        except TypeError:
            raise InvalidConfigError(
                f"message budget must be an integer, got {self.messages!r}") from None
        if self.messages <= 0:
            raise InvalidConfigError("message budget must be > 0")
        if not (math.isfinite(self.mu) and self.mu > 0):
            raise InvalidConfigError(f"service rate mu must be finite and > 0, got {self.mu}")
        if not (math.isfinite(self.mean_message_size) and self.mean_message_size > 0):
            raise InvalidConfigError("mean message size must be finite and > 0, "
                                     f"got {self.mean_message_size}")
        if not 0.0 <= self.warmup_frac < 1.0:
            raise InvalidConfigError("warmup fraction must lie in [0, 1)")


@dataclass
class ChannelStats:
    """Post-warmup statistics for one (router, input port) channel."""

    arrivals: int = 0
    completions: int = 0
    mean_service: float = 0.0
    utilization: float = 0.0
    throughput: float = 0.0
    mean_queue_len: float = 0.0
    mean_response: float = 0.0


@dataclass
class SimStats:
    """Run outcome: per-channel metrics plus global message latency.

    ``channels`` iterates in channel-id order: row-major router, then ports
    N, S, E, W, LOCAL. ``flow_latency`` iterates in row-major tile-id order
    of the source, then of the destination. ``to_json_dict`` lists both in
    these orders, and ``compare_to_analytical`` the channels."""

    channels: dict[tuple[Coord, Port], ChannelStats]
    flow_latency: dict[tuple[Coord, Coord], float]
    mean_latency: float
    ci95: float
    latency_samples: int
    messages_generated: int
    messages_completed: int
    derived_generated: int
    derived_completed: int
    saturated: bool
    duration: float
    window: float

    def to_json_dict(self) -> dict:
        return {
            "mean_latency": self.mean_latency,
            "ci95": self.ci95,
            "latency_samples": self.latency_samples,
            "messages_generated": self.messages_generated,
            "messages_completed": self.messages_completed,
            "derived_generated": self.derived_generated,
            "derived_completed": self.derived_completed,
            "saturated": self.saturated,
            "duration": self.duration,
            "window": self.window,
            "channels": [
                {
                    "x": coord.x, "y": coord.y, "port": port.value,
                    "arrivals": st.arrivals, "completions": st.completions,
                    "mean_service": st.mean_service,
                    "utilization": st.utilization,
                    "throughput": st.throughput,
                    "mean_queue_len": st.mean_queue_len,
                    "mean_response": st.mean_response,
                }
                for (coord, port), st in self.channels.items()
            ],
            "flows": [
                {"src_x": src.x, "src_y": src.y, "dst_x": dst.x, "dst_y": dst.y,
                 "mean_latency": latency}
                for (src, dst), latency in self.flow_latency.items()
            ],
        }


def run_sim(config: SimConfig) -> SimStats:
    """Simulate the configured workload to completion and collect statistics.

    Cores inject primary messages at rate lambda_g * miss_l1 with destinations
    drawn from the access matrix. When memory controllers exist, a delivered
    request spawns a controller leg with probability miss_l2; replies are
    generated when the traffic spec asks for them. Statistics start after the
    warmup fraction of the primary budget has been generated.

    A run that can spawn no message takes the feed-forward engine, any other
    the event engine; both return the same statistics (see the module
    docstring). The feed-forward engine hands a run back to the event engine
    when it meets a coincidence of float sums whose order changes the
    trajectory (``feedforward.TieUnresolved``).
    """
    spec = config.traffic
    if not (spec.model_replies or (spec.miss_l2 > 0.0 and NodeKind.MC in config.placement.kinds)):
        from .feedforward import TieUnresolved, run_feedforward  # it imports this module

        try:
            return run_feedforward(config)
        except TieUnresolved:
            pass
    from .events import run_events  # it imports this module

    return run_events(config)


def _injection(config: SimConfig, resolved) -> tuple[list[float], list[int]]:
    """Per-core injection rates and the indices of the cores that inject."""
    inj = (resolved.lam * config.traffic.miss_l1).tolist()
    active_cores = [i for i, rate in enumerate(inj) if rate > 0.0]
    if not active_cores and config.messages > 0:
        raise InvalidConfigError("no core has a positive injection rate")
    return inj, active_cores


def _sim_stats(grid, channels, lat: np.ndarray, lat_t: np.ndarray, flows, end_t: float,
               window: float, generated: int, completed: int, derived_generated: int,
               derived_completed: int) -> SimStats:
    """Assemble ``SimStats``. ``channels`` holds (channel id, arrivals,
    completions, busy time, queue-length area, response sum, service sum),
    ``lat`` and ``lat_t`` the post-warmup latencies and their delivery times,
    and ``flows`` (src * n_tiles + dst, count, latency sum), each in any
    order. This is the one place that orders them: channels by id, flows by
    key and latencies by (delivery time, latency), so no statistic depends on
    how an engine breaks time ties."""
    coords = grid.coords
    n_tiles = grid.n_tiles
    lat = lat[np.lexsort((lat, lat_t))]
    channel_stats: dict[tuple[Coord, Port], ChannelStats] = {}
    for cid, arrivals, completions, busy, area, resp_sum, svc_sum in sorted(channels):
        st = ChannelStats(arrivals=arrivals, completions=completions)
        if window > 0:
            st.utilization = busy / window
            st.throughput = completions / window
            st.mean_queue_len = area / window
        if completions:
            st.mean_service = svc_sum / completions
            st.mean_response = resp_sum / completions
        channel_stats[(coords[cid // N_PORTS], PORT_ORDER[cid % N_PORTS])] = st

    mean_latency = float(lat.mean()) if lat.size else 0.0
    ci95 = float(1.96 * lat.std(ddof=1) / math.sqrt(lat.size)) if lat.size > 1 else 0.0
    saturated = False
    if lat.size >= 20:
        half = lat.size // 2
        first, second = lat[:half].mean(), lat[half:].mean()
        saturated = bool(second > SATURATION_TREND_RATIO * first)

    return SimStats(
        channels=channel_stats,
        flow_latency={(coords[key // n_tiles], coords[key % n_tiles]): s / n
                      for key, n, s in sorted(flows)},
        mean_latency=mean_latency,
        ci95=ci95,
        latency_samples=int(lat.size),
        messages_generated=generated,
        messages_completed=completed,
        derived_generated=derived_generated,
        derived_completed=derived_completed,
        saturated=saturated,
        duration=end_t,
        window=window,
    )


@dataclass(frozen=True)
class SweepRow:
    family: str
    lambda_g: float
    seed: int
    mean_latency: float
    ci95: float
    saturated: bool


def _sweep_cell(args) -> SweepRow:
    label, rate, cfg = args
    stats = run_sim(cfg)
    return SweepRow(label, rate, cfg.seed, stats.mean_latency,
                    stats.ci95, stats.saturated)


def sweep_latency(placements: Sequence[tuple[str, Placement]],
                  rates: Sequence[float],
                  base: SimConfig,
                  seeds: Sequence[int] = (0, 1, 2),
                  jobs: int = 1) -> list[SweepRow]:
    """Full factorial latency sweep: placements x rates x seeds.

    All placements must share the base config's grid so the total service
    rate is identical across compared configurations. Cells are independent
    runs; with jobs > 1 they execute in parallel and the row order (keyed by
    placement, rate, seed) is the same regardless of worker count.
    """
    grid = base.placement.grid
    for label, p in placements:
        if p.grid != grid:
            raise InvalidConfigError(f"placement {label!r} is not on the base grid")
    cells = [
        (label, rate, replace(base, placement=placement,
                              traffic=base.traffic.with_rate(rate), seed=seed))
        for label, placement in placements
        for rate in rates
        for seed in seeds
    ]
    if jobs <= 1:
        return [_sweep_cell(c) for c in cells]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_sweep_cell, cells))


@dataclass(frozen=True)
class SweepCell:
    mean_latency: float
    ci95: float
    n_seeds: int
    runs_saturated: int


def _t95(df: int) -> float:
    """The two-sided 95% t critical value: ``_T95`` for df <= 9, else the
    three-term Cornish-Fisher expansion about z = 1.95996, within 0.01% of
    the exact value from df 10 on."""
    if df in _T95:
        return _T95[df]
    z = 1.959963984540054
    z2 = z * z
    return z * (1.0 + (z2 + 1.0) / (4 * df) + ((5 * z2 + 16) * z2 + 3) / (96 * df ** 2)
                + (((3 * z2 + 19) * z2 + 17) * z2 - 15) / (384 * df ** 3))


def aggregate_sweep(rows: Sequence[SweepRow]) -> dict[tuple[str, float], SweepCell]:
    """Collapse sweep rows over seeds: mean of per-seed means with a
    t-distribution 95% confidence half-width."""
    groups: dict[tuple[str, float], list[SweepRow]] = {}
    for row in rows:
        groups.setdefault((row.family, row.lambda_g), []).append(row)
    cells = {}
    for key, rs in groups.items():
        means = np.array([r.mean_latency for r in rs])
        n = means.size
        if n > 1:
            ci = float(_t95(n - 1) * means.std(ddof=1) / math.sqrt(n))
        else:
            ci = rs[0].ci95
        cells[key] = SweepCell(float(means.mean()), ci, n,
                               sum(1 for r in rs if r.saturated))
    return cells


def write_sweep_csv(rows: Sequence[SweepRow], out: IO[str]) -> None:
    w = csv.writer(out)
    w.writerow(["family", "lambda_g", "seed", "mean_latency", "ci95", "saturated"])
    for row in rows:
        w.writerow([row.family, repr(row.lambda_g), row.seed,
                    repr(row.mean_latency), repr(row.ci95), int(row.saturated)])


@dataclass
class CompareReport:
    """Per-channel relative error of the analytical response time against a
    simulation of the same configuration."""

    rows: list[tuple[Coord, Port, float, float, float]]
    max_rel_err: float
    mean_rel_err: float
    analytical_available: bool
    detail: str = ""

    def write_csv(self, out: IO[str]) -> None:
        w = csv.writer(out)
        w.writerow(["x", "y", "channel", "sim_rt", "analytical_rt", "rel_err"])
        for coord, port, sim_rt, ana_rt, err in self.rows:
            w.writerow([coord.x, coord.y, port.value, repr(sim_rt),
                        repr(ana_rt), repr(err)])


def compare_to_analytical(config: SimConfig, queue_mode: str = PAPER,
                          min_completions: int = 100) -> CompareReport:
    """Run the simulator and the packet delay inspector on one configuration
    and tabulate per-channel response-time deltas.

    Channels with fewer than ``min_completions`` post-warmup completions are
    skipped (their sample means carry no signal). An unstable analytical
    fixed point is reported, not raised; simulated values are still returned.
    """
    sim = run_sim(config)
    es = config.mean_message_size / config.mu
    spec = config.traffic
    analytic_spec = replace(spec, svc=replace(spec.svc, mean_service=es))
    try:
        report = packet_delay_inspector(config.placement, analytic_spec, mode=queue_mode)
    except UnstableError as exc:
        report, unstable = None, exc

    rows = []
    for (coord, port), st in sim.channels.items():
        if st.completions < min_completions:
            continue
        if report is None:
            ana_rt = err = math.nan
        else:
            ana_rt = report.rt_of(coord, port)
            err = abs(ana_rt - st.mean_response) / st.mean_response
        rows.append((coord, port, st.mean_response, ana_rt, err))
    if report is None:
        return CompareReport(rows, math.nan, math.nan, False,
                             detail=f"analytical unavailable: {unstable}")
    if not rows:
        return CompareReport(rows, math.nan, math.nan, True,
                             detail="no channel met the completion threshold")
    errs = [err for *_, err in rows]
    return CompareReport(rows, max(errs), float(np.mean(errs)), True)
