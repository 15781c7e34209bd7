"""tools/layers.py times every layer it names on this tree."""

import importlib.util
import json
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_layers():
    spec = importlib.util.spec_from_file_location(
        "layers", ROOT / "tools" / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_is_timed_on_this_tree(tmp_path, capsys):
    # the child looks each layer up by name in a fresh interpreter; a
    # renamed or deleted function fails here rather than in the tool
    layers = load_layers()
    out = tmp_path / "layers.json"
    assert layers.main(["--runs", "1", "--instances", str(layers.MIN_INSTANCES),
                        "--out", str(out), f"tree={ROOT}"]) == 0
    capsys.readouterr()  # the printed table
    entry = json.loads(out.read_text())["roots"]["tree"]
    assert entry["missing"] == []
    assert list(entry["layers"]) == list(layers.LAYERS)
    assert list(entry["kernels"]) == ["python_kernel", "numpy_kernel"]
    for row in (*entry["layers"].values(), *entry["kernels"].values()):
        assert math.isfinite(row["best_us"]) and row["best_us"] > 0
        assert row["instances"] >= 1
        faults = row["minflt_per_instance"]
        assert math.isfinite(faults) and faults >= 0
