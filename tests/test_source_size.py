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
# The feed-forward simulator is imported on first use only, so its compile
# cost stays off the paths that do not simulate.
OVER_THE_STEP = {"feedforward.py"}
# Modules imported on first use only: the two simulator engines, and the
# candidate enumerators and batch scorers of the search.
ON_FIRST_USE = {"nocplace.candidates", "nocplace.events", "nocplace.feedforward",
                "nocplace.scoring"}


def tokens(path: Path) -> int:
    """Tokens as the parser reads them: comments and blank lines excluded."""
    with path.open("rb") as fh:
        return sum(1 for tok in tokenize.tokenize(fh.readline)
                   if tok.type not in (tokenize.COMMENT, tokenize.NL))


@pytest.mark.parametrize("name", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_stays_below_the_parser_step(name):
    count = tokens(PACKAGE / name)
    if name in OVER_THE_STEP:
        assert count >= PARSER_STEP
    else:
        assert count < PARSER_STEP, f"{name} has {count} tokens"


def test_package_import_leaves_the_first_use_modules_uncompiled():
    code = "import sys, nocplace; print(*sorted(sys.modules))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent), *filter(None, [os.environ.get("PYTHONPATH")])]))
    loaded = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True).stdout.split()
    assert "nocplace.simulator" in loaded
    assert not ON_FIRST_USE & set(loaded)
