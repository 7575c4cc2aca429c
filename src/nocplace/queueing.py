"""Per-router response-time model: contention matrix, effective utilization,
waiting time, and end-to-end packet delays.

The model treats every input channel of a router as a queue whose effective
utilization is inflated by cross-channel contention. Contention between
channels i and j is accumulated per shared output port using the M/G/1-style
head/position probability Pr = 1 - exp(-lambda_turn * E{S}), the closed form
sum_{m>=1} m x^m = x/(1-x)^2, and queue lengths closed through Little's law
by a damped fixed point.

Two waiting-time variants ship. "paper" evaluates
W = ((Ca^2+Cs^2)/2) * E{S} / (1 - rho_e), which at unit SCVs equals the M/M/1
response time, so in this mode the per-channel response time is that value
(floored at E{S}). "standard" is textbook Kingman: the same expression scaled
by rho_e, used as a pure waiting time on top of E{S}. The two modes produce
identical response times whenever (Ca^2+Cs^2)/2 = 1, which covers the default
Poisson-arrival / exponential-service configuration.

Routers are solved in one batched pass over (router, port) arrays. Each
router runs exactly the iteration it would run alone (ports are summed in a
fixed sequential order, so padding a router with idle ports changes no bit)
and stops at its own convergence, so a router's outcome depends on its own
(lam, turns) row only. The kernel reports each row's outcome rather than
raising. ``solve_network`` raises the failure of a mesh's lowest failing
router, which is the router that solving them one by one would fail at; the
HIGH batch scorer solves each distinct row of many placements once and
reads a placement's outcome off its rows.
The waiting-time formula's arguments are checked once per batch, not on
every iteration. The loop runs on ports-major arrays in buffers allocated
once at full width, and a finished row keeps its column until the loop ends;
a plainly unstable row finishes before the first iteration.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import IO, Callable, NamedTuple, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidConfigError,
    NonConvergentError,
    OutOfBoundsError,
    UnstableError,
)
from .mesh import Coord, MeshGrid, Placement
from .routing import (
    _L,
    N_PORTS,
    PORT_ORDER,
    ChannelLoadMap,
    Flow,
    Port,
    _port_sum,
    channel_loads,
    flow_set,
    valid_port_mask,
)
from .traffic import ServiceSpec, TrafficSpec

PAPER = "paper"
STANDARD = "standard"

FIXED_POINT_TOL = 1e-8
FIXED_POINT_MAX_ITER = 500
FIXED_POINT_DAMPING = 0.5


def mm1_response(lam: float, mu: float) -> float:
    """Mean response time of an M/M/1 queue: 1/(mu - lambda)."""
    # Written so that NaN fails the range checks.
    if not (lam >= 0 and 0 < mu < math.inf):
        raise UnstableError(f"rates out of range: lambda={lam}, mu={mu}")
    if lam >= mu:
        raise UnstableError(f"unstable queue: lambda={lam} >= mu={mu}")
    return 1.0 / (mu - lam)


def kingman_wait(rho_e, ca2: float, cs2: float, es: float, mode: str = PAPER):
    """Approximate waiting time from effective utilization and variability.

    PAPER mode returns ((Ca^2+Cs^2)/2) * E{S} / (1-rho_e) as written; STANDARD
    multiplies by rho_e, the textbook G/G/1 heavy-traffic form. ``rho_e`` may
    be a scalar or an array of utilizations.
    """
    if mode not in (PAPER, STANDARD):
        raise InvalidConfigError(f"unknown waiting-time mode {mode!r}")
    # Written so that NaN fails the range checks.
    if not np.all((0 <= rho_e) & (rho_e < 1.0)):
        raise UnstableError(f"effective utilization {rho_e} outside [0, 1)")
    if not (0 <= ca2 < math.inf and 0 <= cs2 < math.inf and 0 < es < math.inf):
        raise UnstableError("SCVs must be >= 0 and E{S} > 0")
    base = 0.5 * (ca2 + cs2) * es / (1.0 - rho_e)
    return base if mode == PAPER else rho_e * base


def effective_utilization(lam, contention, es) -> np.ndarray:
    """Per-channel effective utilization: row sums of diag(lam) C diag(E{S}).

    Row i aggregates the service demand channel i suffers from every channel
    j; the identity contention matrix reduces to the plain lambda * E{S}.
    Leading axes of ``lam`` and ``contention`` batch independent routers.
    """
    lam = np.asarray(lam, dtype=float)
    c = np.asarray(contention, dtype=float)
    es = np.asarray(es, dtype=float)
    n = lam.shape[-1]
    if es.ndim == 0:
        es = np.full(n, float(es))
    if c.shape != lam.shape + (n,) or es.shape != (n,):
        raise DimensionMismatchError(
            f"lambda has {n} channels, C is {c.shape}, E{{S}} is {es.shape}"
        )
    return lam * _port_sum(c * es)


@dataclass
class RouterQueueModel:
    """Solved queue model for one router.

    Vectors are indexed like ``ports``. ``contention`` carries unit diagonal
    (self service occupancy) plus the cross-channel terms; ``queue_len`` is
    the Little's-law queue length lambda * W_q at the fixed point.
    ``iterations`` counts the damped fixed-point iterations run and
    ``final_delta`` is the queue-length change of the last one (below
    ``FIXED_POINT_TOL``).
    """

    router: Coord
    ports: tuple[Port, ...]
    lam: np.ndarray
    svc: ServiceSpec
    contention: np.ndarray
    rho_e: np.ndarray
    residual: np.ndarray
    wq: np.ndarray
    rt: np.ndarray
    queue_len: np.ndarray
    iterations: int
    final_delta: float

    def rt_of(self, port: Port) -> float:
        if port not in self.ports:
            raise OutOfBoundsError(f"router {self.router} has no channel {port}")
        return float(self.rt[self.ports.index(port)])

    def weighted_rt(self) -> float:
        """Arrival-rate-weighted mean response time over the router's
        channels; E{S} for an idle router."""
        total = float(self.lam.sum())
        if total <= 0.0:
            return self.svc.mean_service
        return float(self.lam @ self.rt) / total


# Row outcomes of ``_fixed_point`` (``FixedPoint.status``).
OK, UNSTABLE, EFFECTIVE_UNSTABLE, NON_CONVERGENT = range(4)


class FixedPoint(NamedTuple):
    """Solved fixed points of a batch of routers: one row per router, ports
    on the last axes (``contention`` is rows x ports x ports).

    ``status`` is each row's outcome. A row that failed on a utilization
    keeps it in ``rho_e`` (plain for UNSTABLE, effective for
    EFFECTIVE_UNSTABLE), whose first maximum is the failing port."""

    lam: np.ndarray
    contention: np.ndarray
    rho_e: np.ndarray
    wq: np.ndarray
    rt: np.ndarray
    iterations: np.ndarray
    final_delta: np.ndarray
    status: np.ndarray


def _contention_rhs(lam: np.ndarray, turns: np.ndarray, es: float) -> np.ndarray:
    # rhs[i][j] = rho_i * sum_k Pr(turn_ik at head) * x_jk/(1-x_jk)^2 with
    # x_jk = rho_j * (1 - exp(-turn_jk * E{S})), accumulated over the
    # outputs both channels drive. Ports-major: ``lam`` is ports x rows,
    # ``turns`` and the result ports x ports x rows.
    rho = lam * es
    head = 1.0 - np.exp(-turns * es)
    series = rho[:, None] * head  # x, then x/(1-x)^2 in place
    series /= (1.0 - series) ** 2
    # _port_sum of head[i, k] * series[j, k] over k, one output at a time:
    # no ports^3 x rows temporary.
    acc = head[:, None, 0] * series[None, :, 0]
    for k in range(1, head.shape[1]):
        acc += head[:, None, k] * series[None, :, k]
    return rho[:, None] * acc


def _fixed_point(lam: np.ndarray, turns: np.ndarray, svc: ServiceSpec, ca2: float,
                 mode: str) -> FixedPoint:
    """Run the damped contention fixed point of every row (router) at once.

    ``lam`` is rows x ports, ``turns`` rows x ports x outputs. Every row is
    solved as if alone and freezes at the iteration where its own
    queue-length change drops below ``FIXED_POINT_TOL``. Or it fails: on
    its plain utilization before iterating, then on its effective
    utilization, or by not converging within ``FIXED_POINT_MAX_ITER``
    iterations. Only the argument checks of the waiting-time formula, an
    unknown ``mode`` among them, and negative turn rates raise, whatever
    the rows.

    The loop runs on ports-major copies: column r of ``lam_p`` and ``nq``
    (ports x rows) and of the contention terms (ports x ports x rows) is
    row r, and every temporary is written into buffers allocated once. A
    row that finishes writes its columns into ports-major outputs by a
    masked copy and keeps its column until the loop ends, set to ``lam``
    0 and ``nq`` +inf: its utilization stays 0 and its queue-length change
    +inf, so it neither fails nor converges again. A plainly unstable row
    is spent so before the first iteration. The loop stops when no column
    is live; the outputs turn rows-major once, after it.
    """
    es = svc.mean_service
    n_rows, n = lam.shape
    rho = lam * es
    status = np.zeros(n_rows, dtype=np.int8)
    iterations = np.zeros(n_rows, dtype=np.int64)
    final_delta = np.zeros(n_rows)
    bad = rho.max(axis=1, initial=0.0) >= 1.0
    status[bad] = UNSTABLE
    rho_out = np.where(bad, rho.T, 0.0)
    # The waiting-time formula's checks, once per batch, with the plainly
    # unstable rows at utilization 0: with rates >= 0 every contention term
    # is >= 0, so no later effective utilization is negative, and the loop
    # spends those >= 1 before the formula sees them.
    rho[bad] = 0.0
    nq = (lam * kingman_wait(rho, ca2, svc.scv, es, mode)).T.copy()
    if np.minimum.reduce(turns, None, initial=0.0) < 0.0:
        raise UnstableError("turn rates must be >= 0")
    # kingman_wait's and effective_utilization's arithmetic, unchecked.
    num, es_f = 0.5 * (ca2 + svc.scv) * es, float(es)
    keep, damp = 1.0 - FIXED_POINT_DAMPING, FIXED_POINT_DAMPING
    lam_p, live = lam.T.astype(float), np.ones(n_rows, dtype=bool)

    def spend(cols: np.ndarray) -> None:  # cols: a mask over the rows
        np.copyto(lam_p, 0.0, where=cols)
        np.copyto(nq, np.inf, where=cols)
        live[cols] = False

    spend(bad)
    rhs = _contention_rhs(lam_p, turns.transpose(1, 2, 0).copy(), es)
    c, contention = np.empty((n, n, n_rows)), np.zeros((n, n, n_rows))
    cs = c if es_f == 1.0 else np.empty_like(c)  # c * 1.0 is c
    diagonal = c.reshape(n * n, n_rows)[::n + 1]
    div, rho_e, wq, nq_next, diff = np.empty((5, n, n_rows))
    idle, wq_out = (lam_p == 0.0).astype(float), np.zeros((n, n_rows))
    peak, spent = np.empty(n_rows), True

    with np.errstate(all="ignore"):  # masked divisions by 0, spent columns at +inf
        for it in range(1, FIXED_POINT_MAX_ITER + 1):
            if spent and not live.any():  # live changes only when columns are spent
                break
            # c = rhs / nq where nq > 0, else 0. An idle channel (lam 0) has
            # nq 0 and rhs 0 throughout, so it divides by 1 instead.
            np.add(nq, idle, div)
            np.divide(rhs, div, c)
            if not np.minimum.reduce(div, None) > 0.0:
                np.copyto(c, 0.0, where=~(nq > 0.0))
            diagonal[...] = 1.0
            if cs is not c:
                np.multiply(c, es_f, cs)
            # numpy adds a row's ports one at a time, in port order, as
            # chained adds would: it pairs terms only along the innermost
            # axis, and even there not fewer than 8 (a batch of one row).
            np.add.reduce(cs, 1, None, rho_e)
            rho_e *= lam_p
            spent = np.maximum.reduce(rho_e, None) >= 1.0
            if spent:
                cols = np.maximum.reduce(rho_e, 0) >= 1.0
                status[cols] = EFFECTIVE_UNSTABLE
                np.copyto(rho_out, rho_e, where=cols)
                spend(cols)
                np.copyto(rho_e, 0.0, where=cols)
            np.subtract(1.0, rho_e, wq)
            np.divide(num, wq, wq)
            if mode == STANDARD:
                wq *= rho_e
            np.multiply(lam_p, wq, nq_next)
            np.subtract(nq_next, nq, diff)
            np.abs(diff, diff)
            np.maximum.reduce(diff, 0, None, peak)
            nq *= keep
            nq_next *= damp
            nq += nq_next
            if np.minimum.reduce(peak) < FIXED_POINT_TOL:
                spent = True
                cols = peak < FIXED_POINT_TOL
                for out, a in ((contention, c), (rho_out, rho_e), (wq_out, wq)):
                    np.copyto(out, a, where=cols)
                iterations[cols], final_delta[cols] = it, peak[cols]
                spend(cols)
    status[live] = NON_CONVERGENT
    wq_out = wq_out.T.copy()
    rt = np.maximum(wq_out, es) if mode == PAPER else es + wq_out
    return FixedPoint(lam, contention.transpose(2, 0, 1).copy(), rho_out.T.copy(), wq_out, rt,
                      iterations, final_delta, status)


def _raise_first_failure(fp: FixedPoint, router_of: Callable[[int], Coord],
                         ports: Sequence[Port]) -> None:
    """Raise the error of the lowest failing row, if any: UnstableError
    naming the port of its largest (effective) utilization, or
    NonConvergentError."""
    failed = np.flatnonzero(fp.status)
    if not failed.size:
        return
    row = int(failed[0])
    router = router_of(row)
    if fp.status[row] == NON_CONVERGENT:
        raise NonConvergentError(
            f"contention fixed point at router {router} did not converge "
            f"within {FIXED_POINT_MAX_ITER} iterations"
        )
    label = "utilization" if fp.status[row] == UNSTABLE else "effective utilization"
    rho = fp.rho_e[row]
    i = int(rho.argmax())
    raise UnstableError(f"{label} {rho[i]:.4f} >= 1 at router {router} channel {ports[i].value}",
                        router=router, channel=ports[i])


def solve_network(loads: ChannelLoadMap, svc: ServiceSpec, ca2: float = 1.0,
                  mode: str = PAPER) -> FixedPoint:
    """Solve every router of a mesh in one batch: rows are tiles in row-major
    order, ports are ``PORT_ORDER`` (absent ports carry no load).

    Raises what solving the routers one by one in row-major order would
    raise first: the failure of the lowest failing router. The routers
    after the first plainly unstable one cannot change it, so they are not
    solved.
    """
    lam, turns = loads.lam, loads.turns
    bad = np.flatnonzero((lam * svc.mean_service).max(axis=1, initial=0.0) >= 1.0)
    if bad.size:
        lam, turns = lam[:bad[0] + 1], turns[:bad[0] + 1]
    fp = _fixed_point(lam, turns, svc, ca2, mode)
    _raise_first_failure(fp, loads.grid.coord, PORT_ORDER)
    return fp


@lru_cache(maxsize=8)
def _router_index(grid: MeshGrid) -> tuple[np.ndarray, np.ndarray, tuple[tuple, ...]]:
    """``packet_delay_inspector``'s view of the routers of ``grid``, built
    once per grid: the flat (tile, port) index of every valid port, the
    flat (tile, port, port) index of their contention entries, and per tile
    its coordinate, ports and the bounds of its entries in both."""
    valid = valid_port_mask(grid)
    chans, cells, routers = [], [], []
    v = c = 0
    for t, coord in enumerate(grid.tiles()):
        idx = np.flatnonzero(valid[t])
        k = len(idx)
        chans.append(t * N_PORTS + idx)
        cells.append((t * N_PORTS + idx[:, None]) * N_PORTS + idx)
        routers.append((coord, tuple(PORT_ORDER[i] for i in idx), v, v + k, c, c + k * k, k))
        v, c = v + k, c + k * k
    chans, cells = np.concatenate(chans), np.concatenate(cells, axis=None)
    chans.flags.writeable = cells.flags.writeable = False
    return chans, cells, tuple(routers)


@dataclass
class DelayReport:
    """Inspector output: solved per-router models, in row-major router
    order, plus per-flow path delays.

    A flow's delay sums the response time of the input channel it traverses
    at every router on its XY path, source injection channel included, so the
    zero-load limit is (manhattan + 1) * E{S}. ``peak_rho_e`` is the largest
    effective utilization of any channel, at ``peak_channel`` (first in
    row-major router, then port order): the stability margin is
    1 - peak_rho_e.
    """

    mode: str
    routers: dict[Coord, RouterQueueModel]
    flow_delays: list[tuple[Flow, float]]
    peak_rho_e: float
    peak_channel: tuple[Coord, Port]

    def rt_of(self, router: Coord, port: Port) -> float:
        if router not in self.routers:
            raise OutOfBoundsError(f"no router {router} in the report for channel {port}")
        return self.routers[router].rt_of(port)

    def write_router_csv(self, out: IO[str]) -> None:
        w = csv.writer(out)
        w.writerow(["x", "y", "channel", "lambda", "rho_e", "wq", "rt", "queue_len"])
        for coord, m in self.routers.items():
            for i, port in enumerate(m.ports):
                w.writerow([
                    coord.x, coord.y, port.value,
                    repr(float(m.lam[i])), repr(float(m.rho_e[i])),
                    repr(float(m.wq[i])), repr(float(m.rt[i])),
                    repr(float(m.queue_len[i])),
                ])

    def write_flow_csv(self, out: IO[str]) -> None:
        w = csv.writer(out)
        w.writerow(["src_x", "src_y", "dst_x", "dst_y", "rate", "delay"])
        for flow, delay in self.flow_delays:
            w.writerow([flow.src.x, flow.src.y, flow.dst.x, flow.dst.y,
                        repr(flow.rate), repr(delay)])


def packet_delay_inspector(placement: Placement, spec: TrafficSpec,
                           mode: str = PAPER) -> DelayReport:
    """End-to-end delay model: flows -> channel rates -> per-router contention
    fixed points -> per-flow path delays.

    Raises UnstableError naming the first saturated router when the offered
    load cannot be served.
    """
    grid = placement.grid
    flows = flow_set(placement, spec)
    from .segments import link_transit  # imported on first use

    fp = solve_network(channel_loads(flows, grid), spec.svc, spec.arrival_scv, mode)
    chans, cells, index = _router_index(grid)
    lam, rho_e, wq, rt = (a.take(chans) for a in (fp.lam, fp.rho_e, fp.wq, fp.rt))
    contention, queue_len = fp.contention.take(cells), lam * wq
    residual = np.full(len(chans),
                       0.5 * (spec.arrival_scv + spec.svc.scv) * spec.svc.mean_service)
    iterations, final_delta = fp.iterations.tolist(), fp.final_delta.tolist()
    routers = {
        coord: RouterQueueModel(coord, ports, lam[v0:v1], spec.svc,
                                contention[c0:c1].reshape(k, k), rho_e[v0:v1], residual[v0:v1],
                                wq[v0:v1], rt[v0:v1], queue_len[v0:v1], iterations[t],
                                final_delta[t])
        for t, (coord, ports, v0, v1, c0, c1, k) in enumerate(index)
    }
    delays = fp.rt[flows.src, _L] + link_transit(grid, fp.rt)(flows.src, flows.dst)
    rho_e = np.where(valid_port_mask(grid), fp.rho_e, -np.inf)
    t, port = divmod(int(rho_e.argmax()), N_PORTS)
    return DelayReport(
        mode=mode,
        routers=routers,
        flow_delays=list(zip(flows.flows(grid), delays.tolist())),
        peak_rho_e=float(rho_e[t, port]),
        peak_channel=(grid.coord(t), PORT_ORDER[port]),
    )
