"""Mesh grid geometry, tile assignments, canonical cache layouts and grid symmetries.

A placement assigns one :class:`NodeKind` to every tile of a rectangular mesh.
Placements are immutable values: they hash, compare and serialize (text and
JSON) deterministically, which the optimizer relies on for symmetry pruning.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Mapping

import numpy as np

from .errors import InfeasibleError, OutOfBoundsError, as_int

MAX_SIDE = 16  # analysis is specified for meshes up to 16x16


class NodeKind(Enum):
    CORE = "core"
    CACHE = "cache"
    MC = "mc"
    ROUTER_ONLY = "router"


_CHAR_OF_KIND = {
    NodeKind.CORE: "C",
    NodeKind.CACHE: "$",
    NodeKind.MC: "M",
    NodeKind.ROUTER_ONLY: ".",
}
_KIND_OF_CHAR = {c: k for k, c in _CHAR_OF_KIND.items()}


@dataclass(frozen=True, order=True)
class Coord:
    """Tile position: x is the column, y is the row, both 0-based."""

    x: int
    y: int


def manhattan(a: Coord, b: Coord) -> int:
    """Hop count between two tiles under minimal mesh routing (L1 norm)."""
    return abs(a.x - b.x) + abs(a.y - b.y)


@dataclass(frozen=True)
class MeshGrid:
    """Rectangular mesh of width x height tiles.

    Degenerate 1xN meshes are accepted: the single-queue reductions used to
    validate the simulator live on them.
    """

    width: int
    height: int

    def __post_init__(self):
        object.__setattr__(self, "width", as_int(self.width, InfeasibleError, "grid side"))
        object.__setattr__(self, "height", as_int(self.height, InfeasibleError, "grid side"))
        if self.width < 1 or self.height < 1:
            raise InfeasibleError(f"grid {self.width}x{self.height} has empty sides")
        if self.width > MAX_SIDE or self.height > MAX_SIDE:
            raise InfeasibleError(
                f"grid {self.width}x{self.height} exceeds supported {MAX_SIDE}x{MAX_SIDE}"
            )

    @property
    def n_tiles(self) -> int:
        return self.width * self.height

    @property
    def is_square(self) -> bool:
        return self.width == self.height

    def contains(self, c: Coord) -> bool:
        return 0 <= c.x < self.width and 0 <= c.y < self.height

    def index(self, c: Coord) -> int:
        return c.y * self.width + c.x

    def coord(self, idx: int) -> Coord:
        return Coord(idx % self.width, idx // self.width)

    @property
    @functools.cache
    def hops(self) -> np.ndarray:
        """All-pairs hop counts: ``hops[s, d]`` is the manhattan distance
        between tiles ``s`` and ``d``. Built once per grid size and
        read-only; int8 coordinates keep every temporary as small as the
        table (64 KB at 16x16, at most 30 hops)."""
        t = np.arange(self.n_tiles)
        x, y = (t % self.width).astype(np.int8), (t // self.width).astype(np.int8)
        hops = np.abs(x[:, None] - x) + np.abs(y[:, None] - y)
        hops.flags.writeable = False
        return hops

    @property
    @functools.cache
    def coords(self) -> tuple[Coord, ...]:
        """All tiles in row-major order: ``coords[i]`` is tile ``i``. Built
        once per grid size."""
        return tuple(Coord(x, y) for y in range(self.height) for x in range(self.width))

    def tiles(self) -> Iterator[Coord]:
        """All tiles in row-major order."""
        return iter(self.coords)

    def perimeter(self) -> list[Coord]:
        return [
            c
            for c in self.tiles()
            if c.x in (0, self.width - 1) or c.y in (0, self.height - 1)
        ]

    def symmetry_permutations(self, axis_preserving: bool = False) -> list[tuple[int, ...]]:
        """Tile-index permutations of the grid's symmetry group, identity
        first, deduplicated.

        Square grids get the full dihedral group of order 8, non-square grids
        the 4 rectangle symmetries. ``axis_preserving`` drops the maps that
        swap x and y even on square grids: dimension-ordered routing is only
        invariant under the axis-preserving subgroup, so load-dependent
        analyses must restrict to it. Maps that coincide (degenerate 1xN
        grids) appear once.

        Applying permutation ``p`` to a row-major kind sequence ``s`` via
        ``[s[i] for i in p]`` yields the symmetric image of the placement.
        """
        a = np.arange(self.n_tiles).reshape(self.height, self.width)
        images = [a, a.T] if self.is_square and not axis_preserving else [a]
        flips = ((1, 1), (1, -1), (-1, 1), (-1, -1))
        return list(dict.fromkeys(tuple(m[::sy, ::sx].ravel().tolist())
                                  for m in images for sy, sx in flips))


@dataclass(frozen=True)
class Placement:
    """Total assignment of node kinds to the tiles of a grid.

    ``kinds`` stores one entry per tile in row-major order; counts are
    derived, never stored, so a Placement cannot be inconsistent.
    """

    grid: MeshGrid
    kinds: tuple[NodeKind, ...]

    def __post_init__(self):
        if len(self.kinds) != self.grid.n_tiles:
            raise OutOfBoundsError(
                f"assignment covers {len(self.kinds)} tiles, grid has {self.grid.n_tiles}"
            )

    def kind_at(self, c: Coord) -> NodeKind:
        if not self.grid.contains(c):
            raise OutOfBoundsError(f"{c} outside {self.grid.width}x{self.grid.height} grid")
        return self.kinds[self.grid.index(c)]

    def tile_ids(self, kind: NodeKind) -> np.ndarray:
        """Row-major indices of the tiles of the given kind, ascending."""
        return np.array([i for i, k in enumerate(self.kinds) if k is kind], dtype=np.int32)

    def tiles_of(self, kind: NodeKind) -> list[Coord]:
        """Tiles of the given kind in row-major order."""
        return list(map(self.grid.coords.__getitem__, self.tile_ids(kind).tolist()))

    @property
    def cores(self) -> list[Coord]:
        return self.tiles_of(NodeKind.CORE)

    @property
    def caches(self) -> list[Coord]:
        return self.tiles_of(NodeKind.CACHE)

    @property
    def mcs(self) -> list[Coord]:
        return self.tiles_of(NodeKind.MC)

    @property
    def counts(self) -> tuple[int, int, int]:
        """(cores, caches, memory controllers)."""
        return (
            sum(1 for k in self.kinds if k is NodeKind.CORE),
            sum(1 for k in self.kinds if k is NodeKind.CACHE),
            sum(1 for k in self.kinds if k is NodeKind.MC),
        )

    def to_text(self) -> str:
        """One character per tile, row-major, newline per row: C $ M . ."""
        w = self.grid.width
        rows = []
        for y in range(self.grid.height):
            rows.append("".join(_CHAR_OF_KIND[self.kinds[y * w + x]] for x in range(w)))
        return "\n".join(rows) + "\n"

    @staticmethod
    def from_text(text: str) -> "Placement":
        rows = [r for r in text.splitlines() if r.strip()]
        if not rows:
            raise OutOfBoundsError("empty placement text")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise OutOfBoundsError("ragged placement text: rows differ in width")
        kinds = []
        for r in rows:
            for ch in r:
                if ch not in _KIND_OF_CHAR:
                    raise OutOfBoundsError(f"unknown tile character {ch!r}")
                kinds.append(_KIND_OF_CHAR[ch])
        return Placement(MeshGrid(width, len(rows)), tuple(kinds))

    def to_json_dict(self) -> dict:
        w = self.grid.width
        return {
            "width": w,
            "height": self.grid.height,
            "tiles": [
                [self.kinds[y * w + x].value for x in range(w)]
                for y in range(self.grid.height)
            ],
        }

    @staticmethod
    def from_json_dict(d: Mapping) -> "Placement":
        """The placement of ``to_json_dict``'s mapping. A missing key, a
        value of the wrong type (a size that is not an integer too) or an
        unknown tile kind raises OutOfBoundsError, as ``from_text`` does for
        the same faults."""
        try:
            grid = MeshGrid(*(as_int(d[k], OutOfBoundsError, f"placement JSON {k}")
                              for k in ("width", "height")))
            tiles = d["tiles"]
            if len(tiles) != grid.height or any(len(row) != grid.width for row in tiles):
                raise OutOfBoundsError("tiles array does not match width/height")
            kinds = tuple(NodeKind(v) for row in tiles for v in row)
        except KeyError as exc:
            raise OutOfBoundsError(f"placement JSON has no {exc.args[0]!r} key") from exc
        except (TypeError, ValueError) as exc:
            raise OutOfBoundsError(f"malformed placement JSON: {exc}") from exc
        return Placement(grid, kinds)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    @staticmethod
    def from_json(text: str) -> "Placement":
        try:
            d = json.loads(text)
        except ValueError as exc:  # json.JSONDecodeError
            raise OutOfBoundsError(f"placement is not valid JSON: {exc}") from exc
        return Placement.from_json_dict(d)


def placement_string(p: Placement) -> str:
    """Flat row-major one-char-per-tile encoding (no newlines)."""
    return "".join(_CHAR_OF_KIND[k] for k in p.kinds)


def placement_from_string(grid: MeshGrid, s: str) -> Placement:
    if len(s) != grid.n_tiles:
        raise OutOfBoundsError(f"string covers {len(s)} tiles, grid has {grid.n_tiles}")
    return Placement(grid, tuple(_KIND_OF_CHAR[ch] for ch in s))


def build_placement(grid: MeshGrid, assignment: Mapping[Coord, NodeKind]) -> Placement:
    """Build a placement from an explicit coordinate map.

    The map must be total over the grid; counts are derived from it. Raises
    OutOfBoundsError for coordinates outside the grid or missing tiles.
    """
    kinds: list[NodeKind | None] = [None] * grid.n_tiles
    for c, k in assignment.items():
        if not grid.contains(c):
            raise OutOfBoundsError(f"{c} outside {grid.width}x{grid.height} grid")
        kinds[grid.index(c)] = k
    missing = [grid.coord(i) for i, k in enumerate(kinds) if k is None]
    if missing:
        raise OutOfBoundsError(f"incomplete assignment: no kind for {missing[:4]}")
    return Placement(grid, tuple(kinds))  # type: ignore[arg-type]


def _node_counts(n_tiles, n_cores, n_caches, n_mcs) -> list[int]:
    """The four counts as ints. One that is not an integer or is negative,
    or nodes that outnumber the tiles, raise InfeasibleError."""
    names = ("tiles", "cores", "caches", "mcs")
    counts = [as_int(v, InfeasibleError, f"{name} count")
              for name, v in zip(names, (n_tiles, n_cores, n_caches, n_mcs))]
    for name, v in zip(names, counts):
        if v < 0:
            raise InfeasibleError(f"negative {name} count: {v}")
    if sum(counts[1:]) > counts[0]:
        raise InfeasibleError(f"{n_cores}+{n_caches}+{n_mcs} nodes exceed {n_tiles} tiles")
    return counts


def placement_count(n_tiles: int, n_cores: int, n_caches: int, n_mcs: int) -> int:
    """Number of distinct placements: n!/(cores! caches! mcs! rest!), exact.

    Remaining tiles are interchangeable router-only tiles, hence the rest!
    divisor. Arbitrary-precision: 16x16 grids overflow 64-bit counts.
    """
    n_tiles, *nodes = _node_counts(n_tiles, n_cores, n_caches, n_mcs)
    return math.factorial(n_tiles) // math.prod(
        map(math.factorial, (*nodes, n_tiles - sum(nodes))))


class CanonicalFamily(Enum):
    """Named cache layout families spanning central to fully distributed.

    CENTRAL and DISTRIBUTED are pinned by the geometry below; the three
    intermediate families are parametric stand-ins (rings, stripes,
    clustered checkerboard) that realize the central-to-distributed
    progression and can be tuned via FamilyParams.
    """

    CENTRAL = "central"
    CONCENTRIC = "concentric"
    STRIPED = "striped"
    CHECKERBOARD = "checkerboard"
    DISTRIBUTED = "distributed"


@dataclass(frozen=True)
class FamilyParams:
    rings: int = 1          # concentric: number of nested rings
    stripe_width: int = 1   # striped: adjacent cache columns per stripe
    cluster: int = 2        # checkerboard: side of each square cache block

    def __post_init__(self):
        for name in ("rings", "stripe_width", "cluster"):
            object.__setattr__(self, name, as_int(getattr(self, name), InfeasibleError, name))


def _central_sites(grid: MeshGrid, n_caches: int) -> list[Coord]:
    # Centered square block; non-square-number cache counts are rejected
    # rather than silently approximated.
    k = math.isqrt(n_caches)
    if k * k != n_caches:
        raise InfeasibleError(f"central family needs a square block; {n_caches} is not a square")
    if k > min(grid.width, grid.height):
        raise InfeasibleError(f"{k}x{k} cache block does not fit {grid.width}x{grid.height}")
    x0 = (grid.width - k) // 2
    y0 = (grid.height - k) // 2
    return [Coord(x0 + i, y0 + j) for j in range(k) for i in range(k)]


def _distributed_sites(grid: MeshGrid, n_caches: int) -> list[Coord]:
    # Even lattice with half-cell offset: r x c cache rows/columns where the
    # grid divides evenly; the factorization with the most balanced spacing
    # wins. Mirrored-boundary-uniform, e.g. {1,3,5,7}^2 for 16 on 8x8.
    best = None
    for r in range(1, n_caches + 1):
        if n_caches % r:
            continue
        c = n_caches // r
        if grid.height % r or grid.width % c:
            continue
        sx, sy = grid.width // c, grid.height // r
        key = (abs(sx - sy), r)
        if best is None or key < best[0]:
            best = (key, r, c, sx, sy)
    if best is None:
        raise InfeasibleError(
            f"cannot spread {n_caches} caches evenly on {grid.width}x{grid.height}"
        )
    _, r, c, sx, sy = best
    ox, oy = sx // 2, sy // 2
    return [Coord(ox + i * sx, oy + j * sy) for j in range(r) for i in range(c)]


def _center_block(grid: MeshGrid) -> tuple[int, int, int, int]:
    # Innermost 1- or 2-wide block depending on parity: (x0, x1, y0, y1).
    x0 = (grid.width - 1) // 2
    x1 = grid.width // 2
    y0 = (grid.height - 1) // 2
    y1 = grid.height // 2
    return x0, x1, y0, y1


def _ring_tiles(grid: MeshGrid, radius: int) -> list[Coord]:
    # Rectangle perimeter at the given offset from the center block, walked
    # clockwise from its top-left corner. The radius is at most
    # _concentric_sites' r_max, so the ring lies inside the grid.
    x0, x1, y0, y1 = _center_block(grid)
    lx, rx = x0 - radius, x1 + radius
    ty, by = y0 - radius, y1 + radius
    ring = [Coord(x, ty) for x in range(lx, rx + 1)]
    ring += [Coord(rx, y) for y in range(ty + 1, by + 1)]
    ring += [Coord(x, by) for x in range(rx - 1, lx - 1, -1)]
    ring += [Coord(lx, y) for y in range(by - 1, ty, -1)]
    return ring


def _concentric_sites(grid: MeshGrid, n_caches: int, rings: int) -> list[Coord]:
    if rings < 1:
        raise InfeasibleError("concentric family needs at least one ring")
    x0, x1, y0, y1 = _center_block(grid)
    r_max = min(x0, y0, grid.width - 1 - x1, grid.height - 1 - y1)
    if r_max < 1:
        raise InfeasibleError(f"grid {grid.width}x{grid.height} too small for rings")
    radii = sorted({max(1, round(j * r_max / (rings + 1))) for j in range(1, rings + 1)})
    tiers = [_ring_tiles(grid, r) for r in radii]
    capacity = sum(len(t) for t in tiers)
    if n_caches > capacity:
        raise InfeasibleError(f"{n_caches} caches exceed ring capacity {capacity}")
    # Proportional quota per ring, remainder to the outermost rings.
    quotas = [n_caches * len(t) // capacity for t in tiers]
    for i in range(len(tiers) - 1, -1, -1):
        if sum(quotas) == n_caches:
            break
        quotas[i] += 1
    # Each floor lies below its ring's length unless n_caches == capacity,
    # when no top-up is needed; the floors fall short of n_caches by fewer
    # than len(tiers). So the quotas sum to n_caches, each within its ring.
    sites = []
    for tier, q in zip(tiers, quotas):
        sites += [tier[i * len(tier) // q] for i in range(q)]
    return sites


def _striped_sites(grid: MeshGrid, n_caches: int, stripe_width: int) -> list[Coord]:
    if stripe_width < 1:
        raise InfeasibleError("stripe width must be >= 1")
    if n_caches % grid.height:
        raise InfeasibleError(f"{n_caches} caches do not fill whole columns of height {grid.height}")
    n_cols = n_caches // grid.height
    if n_cols % stripe_width:
        raise InfeasibleError(f"{n_cols} cache columns not divisible into stripes of {stripe_width}")
    groups = n_cols // stripe_width
    if grid.width % groups:
        raise InfeasibleError(f"{groups} stripes do not space evenly over width {grid.width}")
    # n_caches fits the grid, so the groups * stripe_width cache columns
    # fit its width and no stripe is wider than its spacing sx.
    sx = grid.width // groups
    ox = (sx - stripe_width) // 2
    cols = [ox + g * sx + i for g in range(groups) for i in range(stripe_width)]
    return [Coord(x, y) for y in range(grid.height) for x in cols]


def _checkerboard_sites(grid: MeshGrid, n_caches: int, cluster: int) -> list[Coord]:
    # Square cache blocks on the even-even positions of the block grid,
    # alternating with core blocks in both dimensions.
    if cluster < 1:
        raise InfeasibleError("cluster must be >= 1")
    if grid.width % cluster or grid.height % cluster:
        raise InfeasibleError(f"cluster {cluster} does not tile {grid.width}x{grid.height}")
    nbx, nby = grid.width // cluster, grid.height // cluster
    blocks = [(bx, by) for by in range(0, nby, 2) for bx in range(0, nbx, 2)]
    count = len(blocks) * cluster * cluster
    if count != n_caches:
        raise InfeasibleError(
            f"checkerboard with cluster {cluster} places {count} caches, need {n_caches}"
        )
    return [
        Coord(bx * cluster + i, by * cluster + j)
        for bx, by in blocks
        for j in range(cluster)
        for i in range(cluster)
    ]


_SITE_BUILDERS = {
    CanonicalFamily.CENTRAL: lambda g, n, p: _central_sites(g, n),
    CanonicalFamily.CONCENTRIC: lambda g, n, p: _concentric_sites(g, n, p.rings),
    CanonicalFamily.STRIPED: lambda g, n, p: _striped_sites(g, n, p.stripe_width),
    CanonicalFamily.CHECKERBOARD: lambda g, n, p: _checkerboard_sites(g, n, p.cluster),
    CanonicalFamily.DISTRIBUTED: lambda g, n, p: _distributed_sites(g, n),
}


def canonical_placement(
    family: CanonicalFamily,
    grid: MeshGrid,
    n_cores: int,
    n_caches: int,
    n_mcs: int = 0,
    params: FamilyParams = FamilyParams(),
) -> Placement:
    """Deterministic placement of a canonical cache layout family.

    Caches go to the family's sites; cores fill remaining tiles nearest to
    the cache centroid first (row-major tie-break); memory controllers take
    free perimeter tiles by the same ordering. Raises InfeasibleError when
    the family cannot host the requested counts.
    """
    _, n_cores, n_caches, n_mcs = _node_counts(grid.n_tiles, n_cores, n_caches, n_mcs)
    if n_caches < 1:
        raise InfeasibleError("need n_caches >= 1")
    sites = _SITE_BUILDERS[family](grid, n_caches, params)
    cache_set = set(sites)
    cx = sum(c.x for c in sites) / len(sites)
    cy = sum(c.y for c in sites) / len(sites)

    def centroid_key(c: Coord):
        return (abs(c.x - cx) + abs(c.y - cy), c.y, c.x)

    # Every site builder returns n_caches distinct tiles, so the counts
    # checked above leave at least n_cores free tiles.
    free = sorted((c for c in grid.tiles() if c not in cache_set), key=centroid_key)
    core_set = set(free[:n_cores])

    kinds = {c: NodeKind.ROUTER_ONLY for c in grid.tiles()}
    kinds.update({c: NodeKind.CACHE for c in cache_set})
    kinds.update({c: NodeKind.CORE for c in core_set})
    if n_mcs:
        candidates = [c for c in sorted(grid.perimeter(), key=centroid_key)
                      if kinds[c] is NodeKind.ROUTER_ONLY]
        if len(candidates) < n_mcs:
            raise InfeasibleError(
                f"only {len(candidates)} free perimeter tiles for {n_mcs} memory controllers"
            )
        kinds.update({c: NodeKind.MC for c in candidates[:n_mcs]})
    return build_placement(grid, kinds)
