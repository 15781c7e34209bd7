"""tools/coldstart.py's timed child runs on this tree."""

import importlib.util
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_coldstart():
    spec = importlib.util.spec_from_file_location(
        "coldstart", ROOT / "tools" / "coldstart.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_solve_rows_child_runs_on_this_tree():
    # the child calls dhym.cli by name in a fresh interpreter; a renamed or
    # deleted function fails here rather than in the tool
    coldstart = load_coldstart()
    seconds = coldstart.run_once(ROOT, ["-c", coldstart.SOLVE_ROWS_CHILD],
                                 child_timed=True)
    assert math.isfinite(seconds) and seconds > 0
