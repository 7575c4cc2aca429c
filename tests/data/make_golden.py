"""Write the golden corpora that ``tests/test_golden.py`` checks the models
and the simulator against.

    PYTHONPATH=src python3 tests/data/make_golden.py models tests/data/golden_models.json
    PYTHONPATH=src python3 tests/data/make_golden.py sim tests/data/golden_sim.json
    PYTHONPATH=src python3 tests/data/make_golden.py search tests/data/golden_search.json
    PYTHONPATH=src python3 tests/data/make_golden.py diff OLD.json NEW.json

``diff`` matches the cases of two files of one kind by id. It prints the
ids removed and added, and for the ids in both the largest relative change
of every numeric field and how many other fields changed. It exits 1 when
ids were removed or added, or when a LOW value, an unstable case (router,
channel, message), a search's argmin set or error, or a simulator run's
``stats_sha256`` moved.

The models file was first written by the dict-walking implementation of
the HIGH model that the integer-indexed kernel replaced (commit 2fa444d), so
the test pins the kernel to the results of the code it replaced. Later
summation-order changes moved 12 HIGH values in their last digits (at most
4e-15 relative, within the test's 1e-12), and the file was then regenerated
by the kernel, so that CI can regenerate it and compare it byte for byte as
it does the other two files. Per case it
stores the LOW and HIGH objective values, the per-router response times of
the delay inspector (13 significant digits, row-major routers, ports in
``PORT_ORDER``), the SHA-256 of the ``channel_loads`` CSV, and for
unstable cases the raised error's router, channel and message.

The committed simulator file was written by the ``Coord``-keyed event engine
(commit 6f20235) before it moved onto integer channel ids. Per seeded run it
stores the SHA-256 of ``json.dumps(SimStats.to_json_dict(), sort_keys=True)``
and the ``compare_to_analytical`` rows as floats, compared exactly.

The committed search file was written by the ``Coord``-keyed search (commit
f83eddc) before it moved onto tile ids. Per case it stores the search's
inputs and either ``SearchResult.to_json_dict()``, every float as its
``repr``, or the raised error's type, message and (for a budget error)
count, compared exactly.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import sys

import nocplace as nc
from nocplace.routing import channel_loads, flow_set

FAMILIES = ("central", "concentric", "striped", "checkerboard", "distributed")

# side: (cores, caches), (cores, caches, mcs) of the controller case, rates
GRIDS = {
    4: ((12, 4), (10, 4, 2), (0.2, 0.3)),
    8: ((48, 16), (44, 16, 4), (0.1, 0.2)),
    16: ((192, 64), (184, 64, 8), (0.08,)),
}


def cases():
    """(id, placement, spec) of every golden case."""
    for side, ((cores, caches), (mc_cores, mc_caches, mcs), rates) in GRIDS.items():
        grid = nc.MeshGrid(side, side)
        params = nc.FamilyParams(rings=2 if side == 16 else 1)
        for lam in rates:
            for f in FAMILIES:
                p = nc.canonical_placement(nc.CanonicalFamily(f), grid, cores, caches, 0, params)
                yield f"{side}x{side}.{f}.{lam}", p, nc.TrafficSpec(lambda_g=lam)
            p = nc.canonical_placement(nc.CanonicalFamily.CENTRAL, grid, mc_cores, mc_caches, mcs)
            yield (f"{side}x{side}.central-mc.{lam}", p,
                   nc.TrafficSpec(lambda_g=lam, miss_l2=0.3, model_replies=True))


def spec_dict(spec) -> dict:
    return {"lambda_g": spec.lambda_g, "miss_l2": spec.miss_l2,
            "model_replies": spec.model_replies}


def spec_from_dict(d: dict):
    return nc.TrafficSpec(**d)


def loads_sha256(placement, spec) -> str:
    buf = io.StringIO()
    channel_loads(flow_set(placement, spec), placement.grid).write_csv(buf)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def unstable_dict(exc) -> dict:
    return {"router": [exc.router.x, exc.router.y], "channel": exc.channel.value,
            "message": str(exc)}


def high_outcome(placement, spec) -> dict:
    try:
        value = nc.objective(placement, spec, nc.Mode.HIGH).objective_value
    except nc.UnstableError as exc:
        return {"unstable": unstable_dict(exc)}
    report = nc.packet_delay_inspector(placement, spec)
    rt = [float(f"{v:.13g}") for c in placement.grid.tiles() for v in report.routers[c].rt]
    return {"value": value, "rt": rt}


def models(path: str) -> None:
    out = []
    for case_id, placement, spec in cases():
        out.append({
            "id": case_id,
            "placement": placement.to_text().strip().replace("\n", "/"),
            "spec": spec_dict(spec),
            "low": nc.objective(placement, spec, nc.Mode.LOW).objective_value,
            "high": high_outcome(placement, spec),
            "loads_sha256": loads_sha256(placement, spec),
        })
        print(case_id, "unstable" if "unstable" in out[-1]["high"] else "ok", file=sys.stderr)
    with open(path, "w") as fh:
        json.dump({"cases": out}, fh, separators=(",", ":"))
        fh.write("\n")


# The 6x4 case is not square, so a transposed x/y in a tile-id mapping moves
# its paths; its access matrix has zero entries, which the sampler's clamp to
# the last cache can still reach.
SKEWED_6X4 = ((0.5, 0.5, 0.0, 0.0), (0.0, 0.25, 0.75, 0.0), (0.1, 0.2, 0.3, 0.4),
              (1.0, 0.0, 0.0, 0.0))


def sim_cases():
    """(id, SimConfig) of every simulator golden case, 3,000 messages each."""
    grid = nc.MeshGrid(8, 8)
    for f in ("central", "distributed"):
        p = nc.canonical_placement(nc.CanonicalFamily(f), grid, 48, 16, 0)
        for lam in (0.01, 0.25):
            yield f"8x8.{f}.{lam}", nc.SimConfig(p, nc.TrafficSpec(lambda_g=lam),
                                                 messages=3000, seed=7)
    p = nc.canonical_placement(nc.CanonicalFamily.CENTRAL, grid, 44, 16, 4)
    yield "8x8.central-mc.0.1", nc.SimConfig(
        p, nc.TrafficSpec(lambda_g=0.1, miss_l2=0.3, model_replies=True),
        messages=3000, seed=11)
    p = nc.canonical_placement(nc.CanonicalFamily.DISTRIBUTED, nc.MeshGrid(6, 4), 16, 4, 2)
    p_rows = SKEWED_6X4 * 4
    yield "6x4.distributed-mc.0.1", nc.SimConfig(
        p, nc.TrafficSpec(lambda_g=0.1, miss_l2=0.5, p=p_rows, model_replies=True),
        messages=3000, seed=13)
    # The spawning paths one at a time: controller legs without replies,
    # replies without controllers, and both under long queues.
    p = nc.canonical_placement(nc.CanonicalFamily.CENTRAL, grid, 44, 16, 4)
    yield "8x8.central-mc.legs.0.1", nc.SimConfig(
        p, nc.TrafficSpec(lambda_g=0.1, miss_l2=0.3), messages=3000, seed=17)
    p = nc.canonical_placement(nc.CanonicalFamily.DISTRIBUTED, grid, 48, 16, 0)
    yield "8x8.distributed.replies.0.05", nc.SimConfig(
        p, nc.TrafficSpec(lambda_g=0.05, model_replies=True), messages=3000, seed=19)
    p = nc.canonical_placement(nc.CanonicalFamily.DISTRIBUTED, grid, 44, 16, 4)
    yield "8x8.distributed-mc.0.15", nc.SimConfig(
        p, nc.TrafficSpec(lambda_g=0.15, miss_l2=0.3, model_replies=True),
        messages=3000, seed=23)


def sim_spec_dict(spec) -> dict:
    return {"lambda_g": spec.lambda_g, "miss_l2": spec.miss_l2,
            "p": None if spec.p is None else [list(row) for row in spec.p],
            "model_replies": spec.model_replies}


def sim_stats_sha256(stats) -> str:
    text = json.dumps(stats.to_json_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def compare_dict(report) -> dict:
    return {
        "rows": [[coord.x, coord.y, port.value, float(sim_rt), float(ana_rt), float(err)]
                 for coord, port, sim_rt, ana_rt, err in report.rows],
        "max_rel_err": float(report.max_rel_err),
        "mean_rel_err": float(report.mean_rel_err),
        "analytical_available": report.analytical_available,
        "detail": report.detail,
    }


def sim(path: str) -> None:
    out = []
    for case_id, cfg in sim_cases():
        report = nc.compare_to_analytical(cfg)
        out.append({
            "id": case_id,
            "placement": cfg.placement.to_text().strip().replace("\n", "/"),
            "spec": sim_spec_dict(cfg.traffic),
            "messages": cfg.messages,
            "seed": cfg.seed,
            "stats_sha256": sim_stats_sha256(nc.run_sim(cfg)),
            "compare": compare_dict(report),
        })
        print(case_id, len(report.rows), "rows", file=sys.stderr)
    with open(path, "w") as fh:
        json.dump({"cases": out}, fh, separators=(",", ":"))
        fh.write("\n")


LOW, HIGH = {"mode": "low"}, {"mode": "high"}
PERIMETER_3X3 = [[x, y] for y in range(3) for x in range(3) if (x, y) != (1, 1)]


def _space(grid, cores, caches, mcs=0, fixed=(), mc_tiles=None, mode="low") -> dict:
    return {"grid": list(grid), "counts": [cores, caches, mcs],
            "fixed": [list(f) for f in fixed], "mc_tiles": mc_tiles, "mode": mode}


def search_cases():
    """(id, method, space dict, spec dict, keyword arguments) of every search
    golden case: exhaustive LOW/HIGH pruned and unpruned on square,
    non-square and 1xN grids, the HIGH prefilter, pinned tiles and
    controller pools, two-phase, seeded local search, and the errors."""
    low = {"lambda_g": 0.1}
    mem = {"lambda_g": 0.1, "miss_l2": 0.2}
    for grid, counts, spec, prunes in (((3, 3), (2, 2, 0), low, (1, 0)),
                                       ((3, 3), (3, 1, 1), mem, (1,)),
                                       ((4, 3), (3, 2, 0), low, (1,)),
                                       ((4, 3), (2, 1, 1), mem, (1,)),
                                       ((2, 5), (2, 1, 1), mem, (1, 0)),
                                       ((1, 5), (2, 1, 0), low, (1, 0)),
                                       ((1, 5), (2, 1, 1), mem, (1, 0)),
                                       ((4, 4), (2, 2, 0), low, (1,)),
                                       ((4, 4), (1, 1, 1), mem, (1,)),
                                       # The bench's exhaustive case, and 36 tiles.
                                       ((4, 4), (6, 2, 0), low, (1,)),
                                       ((6, 6), (2, 1, 0), low, (1,))):
        for prune in prunes:
            name = f"exh.low.{grid[0]}x{grid[1]}.{'.'.join(map(str, counts))}.prune{prune}"
            yield name, "exhaustive", _space(grid, *counts), spec, {"prune_symmetry": bool(prune)}
    yield ("exh.low.3x3.fixed-cache", "exhaustive",
           _space((3, 3), 1, 1, fixed=[(1, 1, "cache")]), low, {})
    yield ("exh.low.3x3.fixed-mc-router", "exhaustive",
           _space((3, 3), 2, 1, 1, fixed=[(0, 0, "mc"), (1, 0, "router")]), mem, {})
    yield ("exh.low.3x3.perimeter-pool", "exhaustive",
           _space((3, 3), 2, 1, 1, mc_tiles=PERIMETER_3X3), {"miss_l2": 0.5}, {})
    yield ("exh.low.3x3.corner-pool.unpruned", "exhaustive",
           _space((3, 3), 2, 1, 1, mc_tiles=[[2, 0]]), {"miss_l2": 0.5},
           {"prune_symmetry": False})
    yield ("exh.low.3x3.pool-no-mcs", "exhaustive",
           _space((3, 3), 3, 1, 0, mc_tiles=[[2, 0]]), low, {})
    hi = {"lambda_g": 0.2}
    for grid, counts, spec, kw in (((2, 2), (1, 1, 0), low, {}),
                                   ((3, 3), (2, 1, 0), hi, {"prefilter": False}),
                                   ((3, 2), (2, 1, 0), hi, {"prefilter": False,
                                                            "prune_symmetry": False}),
                                   ((4, 2), (2, 1, 0), hi, {"prefilter": False}),
                                   ((3, 3), (2, 1, 1), mem, {}),
                                   ((3, 2), (3, 1, 0), {"lambda_g": 0.35}, {"prefilter": False}),
                                   # Prefiltered; cache pairs a flip maps onto themselves.
                                   ((4, 4), (2, 2, 0), hi, {})):
        name = f"exh.high.{grid[0]}x{grid[1]}.{'.'.join(map(str, counts))}"
        name += "".join(f".{k}{int(v)}" for k, v in kw.items())
        yield name, "exhaustive", _space(grid, *counts, **HIGH), spec, kw

    for grid, counts, spec in (((3, 3), (4, 1, 0), low), ((3, 3), (3, 1, 1), mem),
                               ((4, 3), (2, 1, 1), mem), ((2, 5), (2, 1, 2), mem),
                               ((4, 4), (2, 1, 1), mem)):
        name = f"two.low.{grid[0]}x{grid[1]}.{'.'.join(map(str, counts))}"
        yield name, "two_phase", _space(grid, *counts), spec, {}
    yield ("two.low.3x3.pinned-mc", "two_phase",
           _space((3, 3), 2, 1, 2, fixed=[(0, 0, "mc")]), mem, {})
    yield ("two.low.3x3.pinned-core-mc", "two_phase",
           _space((3, 3), 2, 1, 1, fixed=[(1, 1, "core"), (2, 2, "mc")]), mem, {})
    yield ("two.low.5x5.perimeter", "two_phase",
           _space((5, 5), 1, 1, 1, fixed=[(2, 2, "cache"), (2, 1, "core")],
                  mc_tiles=[[x, y] for y in range(5) for x in range(5)
                            if x in (0, 4) or y in (0, 4)]), {"miss_l2": 0.5}, {})
    yield ("two.low.3x3.pool", "two_phase",
           _space((3, 3), 2, 1, 1, mc_tiles=[[0, 1], [2, 2]]), {"miss_l2": 0.5}, {})
    yield ("two.high.3x2.2.1.1", "two_phase", _space((3, 2), 2, 1, 1, **HIGH), mem, {})
    yield ("two.high.3x3.4.1.1.unstable", "two_phase", _space((3, 3), 4, 1, 1, **HIGH),
           {"lambda_g": 0.3, "miss_l2": 0.2}, {})

    for grid, counts, seed, budget in (((3, 3), (8, 1, 0), 3, 200), ((3, 3), (4, 2, 0), 11, 200),
                                       ((4, 4), (6, 4, 0), 42, 300), ((4, 4), (4, 2, 2), 5, 300),
                                       ((4, 3), (3, 2, 1), 8, 200), ((1, 5), (2, 1, 0), 2, 30),
                                       ((3, 3), (8, 1, 0), 1, 0)):
        name = f"local.low.{grid[0]}x{grid[1]}.{'.'.join(map(str, counts))}.b{budget}"
        yield name, "local", _space(grid, *counts), mem, {"seed": seed, "budget": budget}
    yield ("local.low.3x3.fixed", "local",
           _space((3, 3), 3, 2, 1, fixed=[(1, 1, "cache"), (0, 0, "router")]), mem,
           {"seed": 4, "budget": 150})
    yield ("local.high.3x3.4.1.0", "local", _space((3, 3), 4, 1, 0, **HIGH), {"lambda_g": 0.15},
           {"seed": 6, "budget": 60})
    # Three passes, a restart, and one swap that saturates the HIGH model.
    yield ("local.high.4x4.8.4.0.b250", "local", _space((4, 4), 8, 4, 0, **HIGH),
           {"lambda_g": 0.3}, {"seed": 7, "budget": 250})
    yield ("local.low.6x6.24.9.0.b1000", "local", _space((6, 6), 24, 9), mem,
           {"seed": 13, "budget": 1000})

    # Two-phase with controllers takes its own path, so its errors use one.
    for method, mcs in (("exhaustive", 0), ("two_phase", 1), ("local", 0)):
        kw = {"seed": 1} if method == "local" else {}
        yield f"err.{method}.negative", method, _space((3, 3), -1, 1, mcs), mem, kw
        yield f"err.{method}.too-many", method, _space((2, 2), 2, 2, mcs or 1), mem, kw
        yield (f"err.{method}.fixed-outside", method,
               _space((3, 3), 1, 1, mcs, fixed=[(3, 0, "core")]), mem, kw)
        yield (f"err.{method}.fixed-excess", method,
               _space((3, 3), 1, 1, mcs, fixed=[(0, 0, "cache"), (1, 0, "cache")]), mem, kw)
    yield ("err.two_phase.mc-excess", "two_phase",
           _space((3, 3), 1, 1, 1, fixed=[(0, 0, "mc"), (2, 2, "mc")]), mem, {})
    yield "err.exhaustive.budget", "exhaustive", _space((4, 4), 6, 2), low, {"budget": 1000}
    yield "err.two_phase.budget", "two_phase", _space((4, 4), 6, 2, 2), low, {"budget": 1000}
    yield ("err.exhaustive.empty-pool", "exhaustive", _space((3, 3), 1, 1, 1, mc_tiles=[]),
           mem, {})
    yield ("err.exhaustive.all-unstable", "exhaustive", _space((2, 2), 3, 1, **HIGH),
           {"lambda_g": 0.9}, {"prefilter": False})


def search_space(d: dict):
    grid = nc.MeshGrid(*d["grid"])
    return nc.SearchSpace(
        grid, *d["counts"],
        fixed={nc.Coord(x, y): nc.NodeKind(k) for x, y, k in d["fixed"]},
        mode=nc.Mode(d["mode"]),
        mc_tiles=None if d["mc_tiles"] is None else frozenset(
            nc.Coord(x, y) for x, y in d["mc_tiles"]),
    )


SEARCHES = {"exhaustive": nc.exhaustive_search, "two_phase": nc.two_phase_optimize,
            "local": nc.local_search}


def search_outcome(method: str, space: dict, spec: dict, kwargs: dict) -> dict:
    """The search's ``to_json_dict()`` with every float as its ``repr``, or
    the error it raised."""
    try:
        result = SEARCHES[method](search_space(space), nc.TrafficSpec(**spec), **kwargs)
    except nc.NocError as exc:
        err = {"type": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, nc.BudgetExceededError):
            err["count"] = exc.count
        return {"error": err}
    return {"result": {k: repr(v) if isinstance(v, float) else v
                       for k, v in result.to_json_dict().items()}}


def search(path: str) -> None:
    out = []
    for case_id, method, space, spec, kwargs in search_cases():
        out.append({"id": case_id, "method": method, "space": space, "spec": spec,
                    "kwargs": kwargs, **search_outcome(method, space, spec, kwargs)})
        print(case_id, out[-1].get("error", {}).get("type", "ok"), file=sys.stderr)
    with open(path, "w") as fh:
        json.dump({"cases": out}, fh, separators=(",", ":"))
        fh.write("\n")


# Fields a regeneration must leave as they are: a LOW value, an unstable
# case's error, a simulator run's statistics and a search's argmin set or
# error. A ``result.best`` that only changes order is not counted.
STRICT = ("low", "high.unstable", "stats_sha256", "result.best", "error")
ROW_FIELDS = ("x", "y", "channel", "sim_rt", "analytical_rt", "rel_err")


def _leaves(o, n, path=""):
    """(field, old, new) of every leaf of two cases, list positions folded
    into ``[]`` (compare rows by column); a missing side is None."""
    if isinstance(o, dict) and isinstance(n, dict):
        for k in sorted(set(o) | set(n)):
            yield from _leaves(o.get(k), n.get(k), f"{path}.{k}" if path else k)
    elif path == "result.best":
        yield path, o, n
    elif isinstance(o, list) and isinstance(n, list) and len(o) == len(n):
        for i, (a, b) in enumerate(zip(o, n)):
            sub = f"{path}.{ROW_FIELDS[i]}" if path.endswith("rows[]") else f"{path}[]"
            yield from _leaves(a, b, sub)
    else:
        yield path, o, n


def _number(v):
    if isinstance(v, str):  # search floats are stored as their repr
        try:
            return float(v)
        except ValueError:
            return None
    return float(v) if isinstance(v, (int, float)) and not isinstance(v, bool) else None


def _change(a, b) -> float | None:
    """The relative change from a to b when both are numbers, else None."""
    x, y = _number(a), _number(b)
    if x is None or y is None:
        return None
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    scale = max(abs(x), abs(y))
    return abs(x - y) / scale if math.isfinite(scale) and scale > 0 else math.inf


def diff(old_path: str, new_path: str) -> int:
    """Print the case ids removed from and added to a golden file of one
    kind, and for the ids in both the largest relative change of every
    numeric field and how many other leaves changed. Returns 1 when ids
    were removed or added or a ``STRICT`` field moved, else 0."""
    old, new = (json.load(open(p))["cases"] for p in (old_path, new_path))
    old_ids, new_by_id = {c["id"] for c in old}, {c["id"]: c for c in new}
    removed = [c["id"] for c in old if c["id"] not in new_by_id]
    added = [c["id"] for c in new if c["id"] not in old_ids]
    for label, ids in (("removed", removed), ("added", added)):
        if ids:
            print(f"{label} {len(ids)} cases: {', '.join(ids)}")
    common = [(o, new_by_id[o["id"]]) for o in old if o["id"] in new_by_id]
    print(f"{len(common)} cases in both files")
    worst: dict[str, tuple[float, str]] = {}
    changed: dict[str, dict[str, None]] = {}  # field -> the ids of the cases, in order
    broken = []
    for o, n in common:
        for field, a, b in _leaves(o, n):
            if field == "result.best" and a is not None and b is not None:
                a, b = sorted(a), sorted(b)
            rel = None if isinstance(a, bool) or isinstance(b, bool) else _change(a, b)
            if rel is not None:
                if rel >= worst.get(field, (-1.0, ""))[0]:
                    worst[field] = max(worst.get(field, (-1.0, "")), (rel, o["id"]))
                if rel == 0.0:
                    continue
            elif a == b:
                continue
            else:
                changed.setdefault(field, {})[o["id"]] = None
            if field.startswith(STRICT):
                broken.append(f"{o['id']}: {field}: {a!r} -> {b!r}")
    for field, (rel, case) in sorted(worst.items()):
        print(f"{field}: largest relative change {rel:.3g}" + (f" ({case})" if rel else ""))
    for field, ids in sorted(changed.items()):
        cases = list(ids)
        print(f"{field}: changed in {len(cases)} of {len(common)} cases ({', '.join(cases[:3])}"
              + (", ..." if len(cases) > 3 else "") + ")")
    for line in broken:
        print("MOVED", line)
    return 1 if broken or removed or added else 0


if __name__ == "__main__":
    if sys.argv[1] == "diff":
        sys.exit(diff(sys.argv[2], sys.argv[3]))
    {"models": models, "sim": sim, "search": search}[sys.argv[1]](sys.argv[2])
