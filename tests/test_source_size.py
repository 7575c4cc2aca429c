"""Every library module stays below the 4,096 tokens at which CPython's
parser doubles its token array: past that step, compiling the module holds
markedly more memory, which every fresh import pays (the package is
recompiled when bytecode is not written)."""

import os
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

PARSER_STEP = 4096
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nocplace"
# Modules imported on first use only: the two simulator engines, the
# candidate enumerators and batch scorers of the search, and the segment
# tables of the HIGH model.
ON_FIRST_USE = {"nocplace.candidates", "nocplace.events", "nocplace.feedforward",
                "nocplace.scoring", "nocplace.segments"}


def tokens(path: Path) -> int:
    """Tokens as the parser reads them: comments and blank lines excluded."""
    with path.open("rb") as fh:
        return sum(1 for tok in tokenize.tokenize(fh.readline)
                   if tok.type not in (tokenize.COMMENT, tokenize.NL))


@pytest.mark.parametrize("name", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_stays_below_the_parser_step(name):
    count = tokens(PACKAGE / name)
    assert count < PARSER_STEP, f"{name} has {count} tokens"


def loaded_after(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``code``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent), *filter(None, [os.environ.get("PYTHONPATH")])]))
    code += "\nimport sys; print(*sorted(sys.modules))"
    return set(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True).stdout.split())


def test_package_import_leaves_the_first_use_modules_uncompiled():
    # Public names load their home module on first access, so the package
    # import itself compiles no submodule.
    loaded = loaded_after("import nocplace")
    assert not ON_FIRST_USE & loaded
    assert not {m for m in loaded if m.startswith("nocplace.")}


def _cli(*argv: str) -> str:
    return ("import contextlib, io\n"
            "from nocplace.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({list(argv)!r}) == 0")


# Each entry point compiles the layers it uses, and not the search or the
# simulator (or the latency model) when it does not use them.
ENTRY_POINTS = {
    "objective": ("import nocplace as nc; nc.objective", {"optimizer", "simulator"}),
    "SimConfig": ("import nocplace as nc; nc.SimConfig", {"optimizer", "latency"}),
    "SearchSpace": ("import nocplace as nc; nc.SearchSpace", {"simulator"}),
    "cli-count": (_cli("count", "--grid", "4x4", "--cores", "8", "--caches", "4"),
                  {"optimizer", "simulator"}),
    "cli-analyze": (_cli("analyze", "--placement", "{placement}"), {"optimizer", "simulator"}),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_entry_point_leaves_unused_modules_uncompiled(entry, tmp_path):
    import nocplace as nc

    placement = tmp_path / "central.txt"
    placement.write_text(nc.canonical_placement(
        nc.CanonicalFamily.CENTRAL, nc.MeshGrid(4, 4), 8, 4, 0).to_text())
    code, unused = ENTRY_POINTS[entry]
    loaded = loaded_after(code.replace("{placement}", str(placement)))
    assert not {f"nocplace.{m}" for m in unused} & loaded
    assert "nocplace" in loaded


def test_feedforward_run_leaves_numpy_random_unimported():
    # The feed-forward engine draws through ``random.Random``; importing
    # ``numpy.random`` would add about 5 MB of resident memory to a run.
    loaded = loaded_after(
        "import nocplace as nc\n"
        "grid = nc.MeshGrid(4, 4)\n"
        "p = nc.canonical_placement(nc.CanonicalFamily.CENTRAL, grid, 8, 4, 0)\n"
        "nc.run_sim(nc.SimConfig(p, nc.TrafficSpec(lambda_g=0.1), messages=300, seed=1))")
    assert "nocplace.feedforward" in loaded
    assert "nocplace.events" not in loaded  # no fallback to the event engine
    assert "numpy.random" not in loaded
