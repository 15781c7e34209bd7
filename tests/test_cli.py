import csv
import hashlib
import json
import math
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from dhym.config import ConfigError, load_config

from conftest import degenerate_example, scaled_example


def run_cli(args, stdin_text=None):
    return subprocess.run(
        [sys.executable, "-m", "dhym.cli", *args],
        input=stdin_text, capture_output=True, text=True)


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def geometry_doc(g, **extra):
    return {"n": g.n, "a": g.a, "p": g.p, "q": g.q, **extra}


def test_load_config_roundtrip():
    cfg = load_config('{"n": 3, "a": 2.0, "p": 1.0, "q": 0.5}')
    assert cfg.geometry.n == 3
    assert cfg.geometry.a == 2.0
    assert cfg.sweep is None and cfg.figure is None


def test_load_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        load_config('{"n": 3, "a": 2.0, "p": 1.0, "q": 0.5, "bogus": 1}')
    with pytest.raises(ConfigError):
        load_config('{"n": 3, "a": 2.0, "p": 1.0, "q": 0.5, '
                    '"tolerances": {"nope": 1}}')


def test_load_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        load_config('{"n": 2.5, "a": 2.0, "p": 1.0, "q": 0.5}')
    with pytest.raises(ConfigError):
        load_config('{"n": 2, "a": 0.5, "p": 1.0, "q": 0.5}')
    with pytest.raises(ConfigError):
        load_config('[1, 2]')


def test_analyze_exists(tmp_path):
    path = write_config(tmp_path, {"n": 2, "a": 2.0, "p": 2.0, "q": 1.0})
    res = run_cli(["analyze", "--config", path])
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["existence"]["value"] == "exists"
    assert doc["existence"]["notes"]["also_certified_by_stability"] is True
    assert doc["charge"]["theta_hat"] == pytest.approx(math.pi / 2)


def test_analyze_not_exists(tmp_path):
    path = write_config(tmp_path, {"n": 2, "a": 2.0, "p": -3.0, "q": 0.0})
    res = run_cli(["analyze", "--config", path])
    assert res.returncode == 1
    assert json.loads(res.stdout)["existence"]["value"] == "not_exists"


def test_analyze_lift_undefined(tmp_path):
    path = write_config(tmp_path, geometry_doc(scaled_example()))
    res = run_cli(["analyze", "--config", path])
    assert res.returncode == 2
    doc = json.loads(res.stdout)
    assert doc["existence"]["value"] == "inconclusive"
    assert "lift" in json.dumps(doc["existence"]["notes"]).lower()


def test_analyze_degenerate_cites_witness(tmp_path):
    path = write_config(tmp_path, geometry_doc(degenerate_example()))
    res = run_cli(["analyze", "--config", path])
    assert res.returncode == 2
    doc = json.loads(res.stdout)
    assert doc["existence"]["route"] == "degenerate"
    assert doc["charge"]["degenerate"] is True
    assert doc["charge"]["degenerate_m"] == 1


def test_analyze_reads_stdin():
    res = run_cli(["analyze", "--config", "-"],
                  stdin_text='{"n": 2, "a": 2.0, "p": 2.0, "q": 1.0}')
    assert res.returncode == 0


def test_analyze_malformed_config(tmp_path):
    path = write_config(tmp_path, {"n": 2, "a": 2.0, "p": 2.0})
    res = run_cli(["analyze", "--config", path])
    assert res.returncode == 64
    assert res.stderr.strip()


def test_solve_linear_instance(tmp_path):
    path = write_config(tmp_path, {"n": 2, "a": 2.0, "p": 2.0, "q": 1.0})
    out = tmp_path / "solution.csv"
    res = run_cli(["solve", "--config", path, "--out", str(out)])
    assert res.returncode == 0
    summary = json.loads(res.stdout)
    assert summary["endpoint_error"] <= 1e-6
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) >= 257
    for row in rows[:: len(rows) // 16]:
        assert float(row["f"]) == pytest.approx(float(row["x"]), abs=1e-8)
        assert float(row["theta"]) == pytest.approx(math.pi / 2, abs=1e-8)


def test_solve_zero_class(tmp_path):
    path = write_config(tmp_path, {"n": 3, "a": 2.0, "p": 0.0, "q": 0.0})
    out = tmp_path / "solution.csv"
    res = run_cli(["solve", "--config", path, "--out", str(out)])
    assert res.returncode == 0
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert all(float(r["f"]) == 0.0 for r in rows)


def test_solve_near_vertical_tangent(tmp_path):
    # z1 lies 6.3e-6 rad from a vertical-tangent ray, so the curve leaves
    # (1, q) almost vertically
    path = write_config(tmp_path, {"n": 5, "a": 7.3278, "p": 42.4857,
                                   "q": 4.6127})
    res = run_cli(["solve", "--config", path,
                   "--out", str(tmp_path / "solution.csv")])
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["verified"] is True


def test_solve_refuses_inconclusive(tmp_path):
    path = write_config(tmp_path, geometry_doc(scaled_example()))
    res = run_cli(["solve", "--config", path, "--out",
                   str(tmp_path / "no.csv")])
    assert res.returncode == 2


def test_sweep_grid(tmp_path):
    doc = {"n": 2, "a": 2.0, "p": 0.0, "q": 0.0,
           "sweep": {"p_range": [1.5, 2.5], "q_range": [0.5, 1.5],
                     "p_count": 3, "q_count": 3}}
    path = write_config(tmp_path, doc)
    out = tmp_path / "sweep.csv"
    res = run_cli(["sweep", "--config", path, "--out", str(out)])
    assert res.returncode == 0
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 9
    # n = 2: every grid point lifts
    assert all(r["lift_defined"] == "true" for r in rows)
    center = [r for r in rows
              if float(r["p"]) == 2.0 and float(r["q"]) == 1.0]
    assert len(center) == 1
    assert center[0]["existence"] == "exists"
    # row-major ordering: p varies slowest
    ps = [float(r["p"]) for r in rows]
    assert ps == sorted(ps)


def test_sweep_determinism(tmp_path):
    doc = {"n": 3, "a": 2.0, "p": 0.0, "q": 0.0,
           "sweep": {"p_range": [-2.0, 2.0], "q_range": [-2.0, 2.0],
                     "p_count": 4, "q_count": 4}}
    path = write_config(tmp_path, doc)
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert run_cli(["sweep", "--config", path, "--out", str(out1)]).returncode == 0
    assert run_cli(["sweep", "--config", path, "--out", str(out2)]).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_figure_output(tmp_path):
    doc = {"n": 2, "a": 2.0, "p": 2.0, "q": 1.0,
           "figure": {"window": [-3.0, 3.0, -3.0, 3.0]}}
    path = write_config(tmp_path, doc)
    out = tmp_path / "fig.svg"
    res = run_cli(["figure", "--config", path, "--out", str(out)])
    assert res.returncode == 0
    root = ET.fromstring(out.read_text())
    assert root.tag.endswith("svg")
    classes = [el.get("class") for el in root.iter()
               if el.tag.endswith("polyline")]
    assert "level" in classes
    assert "solution" in classes
    endpoints = [el for el in root.iter()
                 if el.get("class") == "endpoint"]
    assert len(endpoints) == 2
    # coordinates carry exactly three decimals
    pts = next(el for el in root.iter()
               if el.get("class") == "level").get("points")
    first = pts.split()[0].split(",")[0]
    assert len(first.rsplit(".", 1)[1]) == 3


def test_figure_determinism(tmp_path):
    doc = {"n": 5, "a": 2.0, "p": 1.3, "q": 0.4,
           "figure": {"window": [-3.0, 3.0, -3.0, 3.0], "samples": 128}}
    path = write_config(tmp_path, doc)
    out1, out2 = tmp_path / "f1.svg", tmp_path / "f2.svg"
    assert run_cli(["figure", "--config", path, "--out", str(out1)]).returncode == 0
    assert run_cli(["figure", "--config", path, "--out", str(out2)]).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()


# sha256 of the SVG on stdout, recorded before the contour oracle and the
# SVG writer were vectorized; the figure bytes must not drift
PINNED_FIGURES = [
    # the n = 11 portrait of acceptance criterion 9
    ({"n": 11, "a": 2.0, "p": 1.1, "q": 0.4,
      "figure": {"window": [-3.0, 3.0, -3.0, 3.0], "samples": 256}},
     "e934bd03de372cffd58882c7b04746d7b01a330c43b1cc7fa93f43b4ee82a040"),
    # c = 0: the zero rays cross at the origin through saddle cells
    ({"n": 2, "a": 2.0, "p": 2.0, "q": 1.0,
      "figure": {"window": [-3.0, 3.0, -3.0, 3.0], "samples": 256}},
     "d81f2894a8cc1846cf9c4b1e95d4b5b1ba843fcb3a50fb20ba93b4b1b4288898"),
    # a non-square, off-centre window at the smallest grid
    ({"n": 11, "a": 2.0, "p": 1.1, "q": 0.4,
      "figure": {"window": [0.1, 3.0, -3.0, 3.0], "samples": 64}},
     "635e348d53192f64f0060fc7a722ae2de17dffcc48eb80876c96f655797cbdd4"),
]


@pytest.mark.parametrize("doc,digest", PINNED_FIGURES)
def test_figure_bytes_pinned(doc, digest):
    res = run_cli(["figure", "--config", "-"], stdin_text=json.dumps(doc))
    assert res.returncode == 0, res.stderr
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == digest


def test_figure_window_must_contain_endpoints(tmp_path):
    doc = {"n": 2, "a": 2.0, "p": 2.0, "q": 1.0,
           "figure": {"window": [-1.0, 1.0, -1.0, 1.0]}}
    path = write_config(tmp_path, doc)
    res = run_cli(["figure", "--config", path,
                   "--out", str(tmp_path / "fig.svg")])
    assert res.returncode == 64


def test_figure_samples_bounded(tmp_path):
    # only the rejection is exercised: an oversized grid is never run
    base = {"n": 2, "a": 2.0, "p": 2.0, "q": 1.0}
    cfg = load_config(json.dumps(
        {**base, "figure": {"window": [-3, 3, -3, 3], "samples": 2048}}))
    assert cfg.figure.samples == 2048
    path = write_config(tmp_path, {
        **base, "figure": {"window": [-3, 3, -3, 3], "samples": 2049}})
    res = run_cli(["figure", "--config", path])
    assert res.returncode == 64
    assert "samples" in res.stderr and "Traceback" not in res.stderr
    assert res.stdout == ""


def test_analyze_determinism(tmp_path):
    path = write_config(tmp_path, {"n": 4, "a": 3.0, "p": 1.0, "q": 0.3})
    r1 = run_cli(["analyze", "--config", path])
    r2 = run_cli(["analyze", "--config", path])
    assert r1.stdout == r2.stdout


def test_usage_errors_exit_64():
    # argparse's default of 2 would read as an inconclusive verdict
    for args in (["analyze"], ["bogus", "--config", "x.json"], []):
        res = run_cli(args)
        assert res.returncode == 64, args
        assert "usage:" in res.stderr and "Traceback" not in res.stderr


def test_seed_flag_removed(tmp_path):
    path = write_config(tmp_path, {"n": 2, "a": 2.0, "p": 2.0, "q": 1.0})
    res = run_cli(["analyze", "--config", path, "--seed", "1"])
    assert res.returncode == 64
    assert "--seed" in res.stderr


def test_tolerances_validated(tmp_path):
    base = '{"n": 2, "a": 2.0, "p": 2.0, "q": 1.0, "tolerances": %s}'
    for bad in ('{"curve_samples": "x"}', '{"curve_samples": 2}',
                '{"curve_samples": 300.0}', '{"eps_zero": -1}',
                '{"tol_level": 0}', '{"eps_angle": true}',
                '{"lift_steps": 1024}', '{"initial_step_frac": 0.01}',
                '{"min_step_frac": 1e-9}',
                # n = 2: deadbands of pi/4 around rays pi/2 apart cover
                # every argument
                '{"eps_angle": 10}', '{"eps_angle": 0.7854}'):
        with pytest.raises(ConfigError):
            load_config(base % bad)
    cfg = load_config(base % '{"curve_samples": 513}')
    assert cfg.tolerances.curve_samples == 513
    assert load_config(base % '{"eps_angle": 0.785}').tolerances.eps_angle == 0.785
    path = write_config(tmp_path, {"n": 2, "a": 2.0, "p": 2.0, "q": 1.0,
                                   "tolerances": {"curve_samples": "x"}})
    res = run_cli(["solve", "--config", path,
                   "--out", str(tmp_path / "no.csv")])
    assert res.returncode == 64
    assert "curve_samples" in res.stderr and "Traceback" not in res.stderr
    path = write_config(tmp_path, {"n": 2, "a": 2.0, "p": 1.0, "q": 1.0,
                                   "tolerances": {"eps_angle": 10}})
    res = run_cli(["analyze", "--config", path])
    assert res.returncode == 64
    assert "eps_angle" in res.stderr and "Traceback" not in res.stderr
    # the step knobs of the former adaptive integrator are unknown keys
    for key, value in (("initial_step_frac", 0.01), ("min_step_frac", 1e-9)):
        path = write_config(tmp_path, {"n": 2, "a": 2.0, "p": 2.0, "q": 1.0,
                                       "tolerances": {key: value}})
        res = run_cli(["solve", "--config", path,
                       "--out", str(tmp_path / "no.csv")])
        assert res.returncode == 64
        assert "unknown key" in res.stderr and key in res.stderr


def test_overflow_exits_3(tmp_path):
    for command, doc in (
            ("analyze", {"n": 400, "a": 10.0, "p": 1.0, "q": 1.0}),
            # the charges are finite, but z^n overflows on the figure grid
            ("figure", {"n": 1200, "a": 1.01, "p": 0, "q": 0,
                        "figure": {"window": [-1.3, 1.3, -1.3, 1.3],
                                   "samples": 64}})):
        path = write_config(tmp_path, doc)
        res = run_cli([command, "--config", path])
        assert res.returncode == 3, command
        assert "overflow" in res.stderr and "Traceback" not in res.stderr
        assert "Warning" not in res.stderr and res.stdout == ""
