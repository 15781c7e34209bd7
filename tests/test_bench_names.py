"""The layer names the benchmark traces must exist in the package.

bench/run.py wraps each function named in its TRACED tuple and reports a
missing one as an absent layer.  The tuple is read here with ast, without
importing or running the benchmark, so a renamed layer fails this suite.
"""

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def _traced() -> tuple:
    for node in ast.parse(BENCH.read_text()).body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED assignment in {BENCH}")


def test_every_traced_name_is_a_callable_in_dhym():
    names = _traced()
    assert names
    missing = []
    for name in names:
        mod_name, func_name = name.split(".")
        mod = importlib.import_module("dhym." + mod_name)
        if not callable(getattr(mod, func_name, None)):
            missing.append(name)
    assert missing == []
