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

All routers of a mesh are solved in one batched pass over (router, port)
arrays. Each router runs exactly the iteration it would run alone (ports
are summed in a fixed sequential order, so padding a router with idle ports
changes no bit) and stops at its own convergence. The kernel reports each
row's outcome rather than raising, so one batch can also hold the meshes of
many candidate placements: a saturated or non-convergent router ends only
its own mesh.
Since a row's outcome depends on its own (lam, turns) alone, the HIGH batch
scorer goes further: it solves each distinct row of many placements once,
as networks of one router, and reads a placement's outcome off its rows.
The waiting-time formula's arguments are checked once per batch, not on
every iteration.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import IO, Callable, NamedTuple, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidConfigError,
    NonConvergentError,
    UnstableError,
)
from .mesh import Coord, Placement
from .routing import (
    N_PORTS,
    PORT_ORDER,
    ChannelLoadMap,
    Flow,
    Port,
    channel_loads,
    flow_set,
    path_sums,
    valid_port_mask,
)
from .traffic import ResolvedTraffic, ServiceSpec, TrafficSpec, resolve

PAPER = "paper"
STANDARD = "standard"

FIXED_POINT_TOL = 1e-8
FIXED_POINT_MAX_ITER = 500
FIXED_POINT_DAMPING = 0.5


def mm1_response(lam: float, mu: float) -> float:
    """Mean response time of an M/M/1 queue: 1/(mu - lambda)."""
    if lam < 0 or mu <= 0:
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
    if np.any(rho_e < 0) or np.any(rho_e >= 1.0):
        raise UnstableError(f"effective utilization {rho_e} outside [0, 1)")
    if ca2 < 0 or cs2 < 0 or es <= 0:
        raise UnstableError("SCVs must be >= 0 and E{S} > 0")
    base = 0.5 * (ca2 + cs2) * es / (1.0 - rho_e)
    return base if mode == PAPER else rho_e * base


def _port_sum(a: np.ndarray) -> np.ndarray:
    # Sum over the last axis in port order, one add at a time: an idle port
    # adds an exact zero, so padded and unpadded routers agree bit for bit.
    acc = a[..., 0].copy()
    for j in range(1, a.shape[-1]):
        acc += a[..., j]
    return acc


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
        return float(self.rt[self.ports.index(port)])

    def weighted_rt(self) -> float:
        """Arrival-rate-weighted mean response time over the router's
        channels; E{S} for an idle router."""
        total = float(self.lam.sum())
        if total <= 0.0:
            return self.svc.mean_service
        return float(self.lam @ self.rt) / total


# Row outcomes of ``_fixed_point`` (``FixedPoint.status``). A failure ends
# its group: the group's later rows are DROPPED, never solved.
OK, UNSTABLE, EFFECTIVE_UNSTABLE, NON_CONVERGENT, DROPPED = range(5)


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
    # outputs both channels drive. Batched over the leading axis.
    rho = lam * es
    head = 1.0 - np.exp(-turns * es)
    series = rho[..., :, None] * head  # x, then x/(1-x)^2 in place
    series /= (1.0 - series) ** 2
    # _port_sum of head[i, k] * series[j, k] over k, one output at a time:
    # no rows x ports^3 temporary.
    acc = head[..., :, None, 0] * series[..., None, :, 0]
    for k in range(1, head.shape[-1]):
        acc += head[..., :, None, k] * series[..., None, :, k]
    return rho[..., :, None] * acc


def _first_failures(rows: np.ndarray, bad: np.ndarray,
                    group: int) -> tuple[np.ndarray, np.ndarray]:
    """Masks over the ascending ``rows``: the first bad row of each group of
    ``group`` rows, and the group's rows after it."""
    g = rows // group
    first = np.full(int(g[-1]) + 1, np.iinfo(rows.dtype).max)
    np.minimum.at(first, g[bad], rows[bad])
    return rows == first[g], rows > first[g]


def _fixed_point(lam: np.ndarray, turns: np.ndarray, svc: ServiceSpec, ca2: float,
                 mode: str, group: int) -> FixedPoint:
    """Run the damped contention fixed point of every row (router) at once.

    ``lam`` is rows x ports, ``turns`` rows x ports x outputs; every
    ``group`` consecutive rows are one network. Every row iterates as if
    alone and freezes at the iteration where its own queue-length change
    drops below ``FIXED_POINT_TOL``. A row fails as solving its network's
    rows one after another would: on its plain utilization before
    iterating, then on its effective utilization, or by not converging
    within ``FIXED_POINT_MAX_ITER`` iterations. Its network's later rows
    are then dropped, so the lowest failing row of a network is the one
    that solving it alone fails at. Only an unknown ``mode``, checked
    first whatever the rows, and argument errors of the waiting-time
    formula raise.
    """
    if mode not in (PAPER, STANDARD):
        raise InvalidConfigError(f"unknown waiting-time mode {mode!r}")
    es = svc.mean_service
    n_rows, n = lam.shape
    rho = lam * es
    status = np.zeros(n_rows, dtype=np.int8)
    rho_out = np.zeros((n_rows, n))
    rows = np.arange(n_rows)
    bad = rho.max(axis=1, initial=0.0) >= 1.0
    if bad.any():
        fail, drop = _first_failures(rows, bad, group)
        status[fail], status[drop] = UNSTABLE, DROPPED
        rho_out[fail] = rho[fail]
        rows = rows[~(fail | drop)]

    lam_a, turns_a = lam[rows], turns[rows]
    rhs = _contention_rhs(lam_a, turns_a, es)
    contention = np.zeros((n_rows, n, n))
    wq_out = np.zeros((n_rows, n))
    iterations = np.zeros(n_rows, dtype=np.int64)
    final_delta = np.zeros(n_rows)
    nq = lam_a
    if rows.size:
        # Like a network alone, the batch reaches the waiting-time formula
        # (and its argument checks) only if some first router passed the
        # plain check. Checked once here: with rates >= 0 every contention
        # term is >= 0, so no later effective utilization is negative, and
        # the loop drops those >= 1 before the formula sees them.
        nq = lam_a * kingman_wait(rho[rows], ca2, svc.scv, es, mode)
        if (turns_a < 0.0).any():
            raise UnstableError("turn rates must be >= 0")
    # kingman_wait's and effective_utilization's arithmetic, unchecked.
    num, es_f = 0.5 * (ca2 + svc.scv) * es, float(es)
    diagonal = np.eye(n, dtype=bool)
    for it in range(1, FIXED_POINT_MAX_ITER + 1):
        if not rows.size:
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            c = np.where(nq[:, None, :] > 0.0, rhs / nq[:, None, :], 0.0)
        c[:, diagonal] = 1.0
        rho_e = lam_a * _port_sum(c * es_f)
        bad = rho_e.max(axis=1) >= 1.0
        if bad.any():
            fail, drop = _first_failures(rows, bad, group)
            status[rows[fail]], status[rows[drop]] = EFFECTIVE_UNSTABLE, DROPPED
            rho_out[rows[fail]] = rho_e[fail]
            left = ~(fail | drop)
            rows, lam_a, rhs, nq, c, rho_e = (a[left] for a in (rows, lam_a, rhs, nq, c, rho_e))
        wq = num / (1.0 - rho_e)
        if mode == STANDARD:
            wq = rho_e * wq
        nq_next = lam_a * wq
        delta = np.abs(nq_next - nq).max(axis=1, initial=0.0)
        nq = (1.0 - FIXED_POINT_DAMPING) * nq + FIXED_POINT_DAMPING * nq_next
        done = delta < FIXED_POINT_TOL
        if done.any():
            ids = rows[done]
            contention[ids] = c[done]
            rho_out[ids] = rho_e[done]
            wq_out[ids] = wq[done]
            iterations[ids] = it
            final_delta[ids] = delta[done]
            left = ~done
            rows, lam_a, rhs, nq = rows[left], lam_a[left], rhs[left], nq[left]
    status[rows] = NON_CONVERGENT
    rt = np.maximum(wq_out, es) if mode == PAPER else es + wq_out
    return FixedPoint(lam, contention, rho_out, wq_out, rt, iterations, final_delta, status)


def _unstable(rho: np.ndarray, label: str, router: Coord,
              ports: Sequence[Port]) -> UnstableError:
    i = int(rho.argmax())
    return UnstableError(
        f"{label} {rho[i]:.4f} >= 1 at router {router} channel {ports[i].value}",
        router=router,
        channel=ports[i],
    )


def _raise_first_failure(fp: FixedPoint, router_of: Callable[[int], Coord],
                         ports: Sequence[Port]) -> None:
    """Raise the error of the lowest failing row, if any: UnstableError
    naming the port of its largest (effective) utilization, or
    NonConvergentError."""
    failed = np.flatnonzero(fp.status)
    if not failed.size:
        return
    row = int(failed[0])
    if fp.status[row] == NON_CONVERGENT:
        raise NonConvergentError(
            f"contention fixed point at router {router_of(row)} did not converge "
            f"within {FIXED_POINT_MAX_ITER} iterations"
        )
    label = "utilization" if fp.status[row] == UNSTABLE else "effective utilization"
    raise _unstable(fp.rho_e[row], label, router_of(row), ports)


def solve_network(loads: ChannelLoadMap, svc: ServiceSpec, ca2: float = 1.0,
                  mode: str = PAPER) -> FixedPoint:
    """Solve every router of a mesh in one batch: rows are tiles in row-major
    order, ports are ``PORT_ORDER`` (absent ports carry no load).

    Raises what solving the routers one by one in row-major order would
    raise first.
    """
    fp = _fixed_point(loads.lam, loads.turns, svc, ca2, mode, loads.grid.n_tiles)
    _raise_first_failure(fp, loads.grid.coord, PORT_ORDER)
    return fp


def _router_model(router: Coord, ports: tuple[Port, ...], svc: ServiceSpec, ca2: float,
                  fp: FixedPoint, row: int, idx) -> RouterQueueModel:
    lam = fp.lam[row, idx].astype(float)
    wq = fp.wq[row, idx]
    return RouterQueueModel(
        router=router,
        ports=ports,
        lam=lam,
        svc=svc,
        contention=fp.contention[row][np.ix_(idx, idx)],
        rho_e=fp.rho_e[row, idx],
        residual=np.full(len(ports), 0.5 * (ca2 + svc.scv) * svc.mean_service),
        wq=wq,
        rt=fp.rt[row, idx],
        queue_len=lam * wq,
        iterations=int(fp.iterations[row]),
        final_delta=float(fp.final_delta[row]),
    )


@dataclass
class DelayReport:
    """Inspector output: solved per-router models plus per-flow path delays.

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
        return self.routers[router].rt_of(port)

    def write_router_csv(self, out: IO[str]) -> None:
        w = csv.writer(out)
        w.writerow(["x", "y", "channel", "lambda", "rho_e", "wq", "rt", "queue_len"])
        for coord in sorted(self.routers, key=lambda c: (c.y, c.x)):
            m = self.routers[coord]
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
                           mode: str = PAPER,
                           resolved: ResolvedTraffic | None = None) -> DelayReport:
    """End-to-end delay model: flows -> channel rates -> per-router contention
    fixed points -> per-flow path delays.

    Raises UnstableError naming the first saturated router when the offered
    load cannot be served.
    """
    r = resolved if resolved is not None else resolve(placement, spec)
    grid = placement.grid
    flows = flow_set(placement, spec, resolved=r)
    fp = solve_network(channel_loads(flows, grid), spec.svc, spec.arrival_scv, mode)
    valid = valid_port_mask(grid)
    routers: dict[Coord, RouterQueueModel] = {}
    for t, coord in enumerate(grid.tiles()):
        idx = np.flatnonzero(valid[t])
        ports = tuple(PORT_ORDER[i] for i in idx)
        routers[coord] = _router_model(coord, ports, spec.svc, spec.arrival_scv, fp, t, idx)
    delays = path_sums(grid, flows.src, flows.dst, fp.rt)
    rho_e = np.where(valid, fp.rho_e, -np.inf)
    t, port = divmod(int(rho_e.argmax()), N_PORTS)
    return DelayReport(
        mode=mode,
        routers=routers,
        flow_delays=list(zip(flows.flows(grid), delays.tolist())),
        peak_rho_e=float(rho_e[t, port]),
        peak_channel=(grid.coord(t), PORT_ORDER[port]),
    )
