"""tools/coldstart.py's timed child runs on this tree."""

import importlib.util
import json
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


def test_records_the_bytecode_setting(tmp_path, monkeypatch, capsys):
    # the JSON says whether the children wrote bytecode, as the children
    # themselves report it, and whether each root's dhym was cached
    coldstart = load_coldstart()
    monkeypatch.setattr(coldstart, "run_once", lambda *args: 1e-3)
    for setting, writes in (("1", False), (None, True)):
        if setting is None:
            monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
        else:
            monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", setting)
        out = tmp_path / "cold.json"
        assert coldstart.main(["--runs", "15", "--out", str(out),
                               f"tree={ROOT}"]) == 0
        capsys.readouterr()  # the printed table
        result = json.loads(out.read_text())
        assert result["children_write_bytecode"] is writes
        assert list(result["dhym_bytecode_cached"]) == ["tree"]
        assert type(result["dhym_bytecode_cached"]["tree"]) is bool
