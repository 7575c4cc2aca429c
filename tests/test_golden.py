"""The models against the golden corpus in ``tests/data/golden_models.json``
(see ``tests/data/make_golden.py``): objective values and per-router
response times within 1e-12 relative, channel-load CSVs byte for byte, and
the same unstable cases raising the same error."""

import hashlib
import io
import json
from pathlib import Path

import pytest

from nocplace import Mode, Placement, TrafficSpec, UnstableError, objective, packet_delay_inspector
from nocplace.routing import build_flows, derive_channel_rates

REL = 1e-12
CASES = json.loads((Path(__file__).parent / "data" / "golden_models.json").read_text())["cases"]


def _close(actual: float, expected: float) -> bool:
    return abs(actual - expected) <= REL * max(abs(actual), abs(expected))


@pytest.fixture(params=CASES, ids=[c["id"] for c in CASES])
def case(request):
    c = request.param
    placement = Placement.from_text(c["placement"].replace("/", "\n"))
    return c, placement, TrafficSpec(**c["spec"])


def test_low_objective(case):
    c, placement, spec = case
    assert _close(objective(placement, spec, Mode.LOW).objective_value, c["low"])


def test_loads_csv_bytes(case):
    c, placement, spec = case
    buf = io.StringIO()
    derive_channel_rates(build_flows(placement, spec), placement.grid).write_csv(buf)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == c["loads_sha256"]


def test_high_objective_and_router_rt(case):
    c, placement, spec = case
    expected = c["high"]
    if "unstable" in expected:
        err = expected["unstable"]
        for run in (lambda: objective(placement, spec, Mode.HIGH),
                    lambda: packet_delay_inspector(placement, spec)):
            with pytest.raises(UnstableError) as exc:
                run()
            assert [exc.value.router.x, exc.value.router.y] == err["router"]
            assert exc.value.channel.value == err["channel"]
            assert str(exc.value) == err["message"]
        return
    assert _close(objective(placement, spec, Mode.HIGH).objective_value, expected["value"])
    report = packet_delay_inspector(placement, spec)
    rt = [float(v) for coord in placement.grid.tiles() for v in report.routers[coord].rt]
    assert len(rt) == len(expected["rt"])
    bad = [(i, a, e) for i, (a, e) in enumerate(zip(rt, expected["rt"])) if not _close(a, e)]
    assert not bad, bad[:5]
