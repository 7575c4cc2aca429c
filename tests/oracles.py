"""Test oracles: independent, Coord-keyed reference implementations that the
array kernels of the library are checked against.

- ``xy_route`` and ``path_channels`` walk one dimension-ordered path with
  literal loops; ``routing.xy_hops`` and ``routing.path_sums`` must agree.
- ``solve_one`` runs the contention fixed point of a single router, as a
  network of one router, and raises what that router alone raises.
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
    fp = queueing._fixed_point(lam[None], turns[None], svc, ca2, mode, 1)
    queueing._raise_first_failure(fp, lambda _: router, ports)
    return queueing._router_model(router, ports, svc, ca2, fp, 0, np.arange(len(ports)))


def apply_symmetry(p: Placement, perm: tuple[int, ...]) -> Placement:
    """The placement whose tile i holds what ``p``'s tile ``perm[i]`` holds."""
    return Placement(p.grid, tuple(p.kinds[i] for i in perm))


def symmetry_orbit(p: Placement) -> set[Placement]:
    """All distinct images of a placement under the grid's symmetry group."""
    return {apply_symmetry(p, perm) for perm in p.grid.symmetry_permutations()}
