"""Test oracles: independent, Coord-keyed reference implementations that the
array kernels of the library are checked against.

- ``xy_route`` and ``path_channels`` walk one dimension-ordered path with
  literal loops; ``events._route`` and ``segments.link_transit`` must agree.
- ``solve_one`` runs the contention fixed point of a single router, as a
  network of one router, and raises what that router alone raises.
- ``fixed_point`` is the batched contention fixed point as it was before
  its loop went ports-major, with its rule for networks of ``group`` rows:
  ``queueing._fixed_point`` must agree bit for bit with ``group=1``, and a
  network's lowest failing row must be the one the oracle fails at.
- ``apply_symmetry`` and ``symmetry_orbit`` map placements by the grid's
  symmetry permutations.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from nocplace import queueing
from nocplace.mesh import Coord, Placement
from nocplace.queueing import PAPER, RouterQueueModel
from nocplace.routing import PORT_ORDER, Port
from nocplace.traffic import ServiceSpec


def xy_route(src: Coord, dst: Coord) -> list[tuple[Coord, Port]]:
    """Dimension-ordered path: (router, output port) pairs from src to dst.

    Moves east/west along the source row to the destination column, then
    north/south; the final entry delivers on the local port. Path length is
    manhattan(src, dst) + 1 routers, both endpoints included.
    """
    path = []
    x, y = src.x, src.y
    step_x = Port.EAST if dst.x > x else Port.WEST
    while x != dst.x:
        path.append((Coord(x, y), step_x))
        x += step_x.delta[0]
    step_y = Port.SOUTH if dst.y > y else Port.NORTH
    while y != dst.y:
        path.append((Coord(x, y), step_y))
        y += step_y.delta[1]
    path.append((dst, Port.LOCAL))
    return path


def path_channels(src: Coord, dst: Coord) -> list[tuple[Coord, Port]]:
    """Input channels traversed along the XY path: (router, input port).

    The source router is entered through its local injection port; every
    later router through the port facing the previous hop.
    """
    hops = xy_route(src, dst)
    channels = [(src, Port.LOCAL)]
    for (router, out), (nxt, _) in zip(hops, hops[1:]):
        channels.append((nxt, out.opposite))
    return channels


def solve_one(lam, turns, svc: ServiceSpec, ca2: float = 1.0, mode: str = PAPER, *,
              router: Coord = Coord(0, 0),
              ports: Sequence[Port] | None = None) -> RouterQueueModel:
    """One router's contention fixed point: ``lam`` per input channel,
    ``turns`` per (input channel, output port), both indexed like ``ports``
    (the first ``len(lam)`` of ``PORT_ORDER`` by default).

    Raises UnstableError when a channel's (effective) utilization reaches 1
    and NonConvergentError when the iteration does not settle, naming
    ``router`` and the port.
    """
    lam = np.asarray(lam, dtype=float)
    turns = np.asarray(turns, dtype=float)
    ports = tuple(ports) if ports is not None else PORT_ORDER[:len(lam)]
    fp = queueing._fixed_point(lam[None], turns[None], svc, ca2, mode)
    queueing._raise_first_failure(fp, lambda _: router, ports)
    lam, wq = fp.lam[0].astype(float), fp.wq[0]
    return RouterQueueModel(router, ports, lam, svc, fp.contention[0], fp.rho_e[0],
                            np.full(len(ports), 0.5 * (ca2 + svc.scv) * svc.mean_service), wq,
                            fp.rt[0], lam * wq, int(fp.iterations[0]),
                            float(fp.final_delta[0]))


def apply_symmetry(p: Placement, perm: tuple[int, ...]) -> Placement:
    """The placement whose tile i holds what ``p``'s tile ``perm[i]`` holds."""
    return Placement(p.grid, tuple(p.kinds[i] for i in perm))


def symmetry_orbit(p: Placement) -> set[Placement]:
    """All distinct images of a placement under the grid's symmetry group."""
    return {apply_symmetry(p, perm) for perm in p.grid.symmetry_permutations()}


# ``queueing._fixed_point`` as it was before its loop went ports-major
# (commit 35c9f94), copied verbatim with the module's names qualified, and
# with its own code for the rows a failure drops from their network (the
# kernel solves every row alone and has none). With ``group=1`` the kernel
# must return the same eight arrays bit for bit.

DROPPED = 4


def _port_sum(a: np.ndarray) -> np.ndarray:
    # Sum over the last axis in port order, one add at a time: an idle port
    # adds an exact zero, so padded and unpadded routers agree bit for bit.
    acc = a[..., 0].copy()
    for j in range(1, a.shape[-1]):
        acc += a[..., j]
    return acc


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


def fixed_point(lam: np.ndarray, turns: np.ndarray, svc: ServiceSpec, ca2: float,
                 mode: str, group: int) -> queueing.FixedPoint:
    """Run the damped contention fixed point of every row (router) at once.

    ``lam`` is rows x ports, ``turns`` rows x ports x outputs; every
    ``group`` consecutive rows are one network. Every row iterates as if
    alone and freezes at the iteration where its own queue-length change
    drops below ``queueing.FIXED_POINT_TOL``. A row fails as solving its network's
    rows one after another would: on its plain utilization before
    iterating, then on its effective utilization, or by not converging
    within ``queueing.FIXED_POINT_MAX_ITER`` iterations. Its network's later rows
    are then dropped, so the lowest failing row of a network is the one
    that solving it alone fails at. Only an unknown ``mode``, checked
    first whatever the rows, and argument errors of the waiting-time
    formula raise.
    """
    if mode not in (queueing.PAPER, queueing.STANDARD):
        raise queueing.InvalidConfigError(f"unknown waiting-time mode {mode!r}")
    es = svc.mean_service
    n_rows, n = lam.shape
    rho = lam * es
    status = np.zeros(n_rows, dtype=np.int8)
    rho_out = np.zeros((n_rows, n))
    rows = np.arange(n_rows)
    bad = rho.max(axis=1, initial=0.0) >= 1.0
    if bad.any():
        fail, drop = _first_failures(rows, bad, group)
        status[fail], status[drop] = queueing.UNSTABLE, DROPPED
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
        nq = lam_a * queueing.kingman_wait(rho[rows], ca2, svc.scv, es, mode)
        if (turns_a < 0.0).any():
            raise queueing.UnstableError("turn rates must be >= 0")
    # queueing.kingman_wait's and effective_utilization's arithmetic, unchecked.
    num, es_f = 0.5 * (ca2 + svc.scv) * es, float(es)
    diagonal = np.eye(n, dtype=bool)
    for it in range(1, queueing.FIXED_POINT_MAX_ITER + 1):
        if not rows.size:
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            c = np.where(nq[:, None, :] > 0.0, rhs / nq[:, None, :], 0.0)
        c[:, diagonal] = 1.0
        rho_e = lam_a * _port_sum(c * es_f)
        bad = rho_e.max(axis=1) >= 1.0
        if bad.any():
            fail, drop = _first_failures(rows, bad, group)
            status[rows[fail]], status[rows[drop]] = queueing.EFFECTIVE_UNSTABLE, DROPPED
            rho_out[rows[fail]] = rho_e[fail]
            left = ~(fail | drop)
            rows, lam_a, rhs, nq, c, rho_e = (a[left] for a in (rows, lam_a, rhs, nq, c, rho_e))
        wq = num / (1.0 - rho_e)
        if mode == queueing.STANDARD:
            wq = rho_e * wq
        nq_next = lam_a * wq
        delta = np.abs(nq_next - nq).max(axis=1, initial=0.0)
        nq = (1.0 - queueing.FIXED_POINT_DAMPING) * nq + queueing.FIXED_POINT_DAMPING * nq_next
        done = delta < queueing.FIXED_POINT_TOL
        if done.any():
            ids = rows[done]
            contention[ids] = c[done]
            rho_out[ids] = rho_e[done]
            wq_out[ids] = wq[done]
            iterations[ids] = it
            final_delta[ids] = delta[done]
            left = ~done
            rows, lam_a, rhs, nq = rows[left], lam_a[left], rhs[left], nq[left]
    status[rows] = queueing.NON_CONVERGENT
    rt = np.maximum(wq_out, es) if mode == queueing.PAPER else es + wq_out
    return queueing.FixedPoint(lam, contention, rho_out, wq_out, rt, iterations, final_delta, status)
