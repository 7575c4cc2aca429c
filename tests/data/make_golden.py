"""Write the golden corpora that ``tests/test_golden.py`` checks the models
and the simulator against.

    PYTHONPATH=src python3 tests/data/make_golden.py models tests/data/golden_models.json
    PYTHONPATH=src python3 tests/data/make_golden.py sim tests/data/golden_sim.json

The committed models file was written by the dict-walking implementation of
the HIGH model that the integer-indexed kernel replaced (commit 2fa444d), so
the test pins the kernel to the results of the code it replaced. Per case it
stores the LOW and HIGH objective values, the per-router response times of
the delay inspector (13 significant digits, row-major routers, ports in
``PORT_ORDER``), the SHA-256 of the ``derive_channel_rates`` CSV, and for
unstable cases the raised error's router, channel and message.

The committed simulator file was written by the ``Coord``-keyed event engine
(commit 6f20235) before it moved onto integer channel ids. Per seeded run it
stores the SHA-256 of ``json.dumps(SimStats.to_json_dict(), sort_keys=True)``
and the ``compare_to_analytical`` rows as floats, compared exactly.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys

import nocplace as nc
from nocplace.routing import build_flows, derive_channel_rates

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
    derive_channel_rates(build_flows(placement, spec), placement.grid).write_csv(buf)
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


if __name__ == "__main__":
    {"models": models, "sim": sim}[sys.argv[1]](sys.argv[2])
