"""The layer names and result fields the benchmark traces must exist in
the package.

bench/run.py wraps each function named in its TRACED tuple and reports a
missing one as an absent layer.  Its RATIOS probes read one attribute of
a traced function's result through getattr or hasattr with a default, so
a renamed field would read as 0 without an error.  Both are read here with
ast, without importing or running the benchmark, so a renamed layer or
field fails this suite.
"""

import ast
import importlib
from pathlib import Path

from dhym.charges import Geometry, charge_report
from dhym.contour import Window, extract_level_set
from dhym.lifting import cxy_path_lift, sector_lift

from conftest import scaled_example

BENCH = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def _assigned(name: str) -> ast.expr:
    for node in ast.parse(BENCH.read_text()).body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == [name]):
            return node.value
    raise AssertionError(f"no {name} assignment in {BENCH}")


def _traced() -> tuple:
    return ast.literal_eval(_assigned("TRACED"))


def _is_callable(name: str) -> bool:
    mod_name, func_name = name.split(".")
    mod = importlib.import_module("dhym." + mod_name)
    return callable(getattr(mod, func_name, None))


def _probes() -> dict:
    """RATIOS metric -> (traced function, attribute its probe reads)."""
    probes = {}
    ratios = _assigned("RATIOS")
    for key, value in zip(ratios.keys, ratios.values):
        func, probe = value.elts
        attrs = [call.args[1].value for call in ast.walk(probe)
                 if isinstance(call, ast.Call)
                 and getattr(call.func, "id", None) in ("getattr", "hasattr")]
        assert len(attrs) == 1, ast.unparse(probe)
        probes[ast.literal_eval(key)] = (ast.literal_eval(func), attrs[0])
    return probes


# for each probed function, a real call whose result is a useful outcome
USEFUL_RESULTS = {
    "contour.extract_level_set": lambda: extract_level_set(
        charge_report(Geometry(2, 2.0, 2.0, 1.0)), Window(-3, 3, -3, 3), 64),
    # a defined lift, and an origin hit
    "lifting.sector_lift": lambda: sector_lift(
        charge_report(Geometry(4, 3.0, 1.0, 0.3))),
    "lifting.cxy_path_lift": lambda: cxy_path_lift(
        charge_report(scaled_example())),
}


def test_every_traced_name_is_a_callable_in_dhym():
    names = _traced()
    assert names
    assert [name for name in names if not _is_callable(name)] == []


def test_every_probe_reads_a_field_of_a_traced_result():
    probes = _probes()
    assert probes
    traced = _traced()
    for metric, (func, attr) in probes.items():
        assert func in traced and _is_callable(func), metric
        assert func in USEFUL_RESULTS, f"{metric}: no useful result to probe"
        assert hasattr(USEFUL_RESULTS[func](), attr), (metric, attr)
