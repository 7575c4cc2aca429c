"""Write the golden corpus that ``tests/test_golden.py`` checks the models
against.

    PYTHONPATH=src python3 tests/data/make_golden.py tests/data/golden_models.json

The committed file was written by the dict-walking implementation of the
HIGH model that the integer-indexed kernel replaced (commit 2fa444d), so the
test pins the kernel to the results of the code it replaced. Per case it
stores the LOW and HIGH objective values, the per-router response times of
the delay inspector (13 significant digits, row-major routers, ports in
``PORT_ORDER``), the SHA-256 of the ``derive_channel_rates`` CSV, and for
unstable cases the raised error's router, channel and message.
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


def main(path: str) -> None:
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


if __name__ == "__main__":
    main(sys.argv[1])
