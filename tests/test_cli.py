import cmath
import csv
import hashlib
import io
import json
import math
import random
import re
import struct
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from dhym import charges, cli, levelcurve, lifting, stability
from dhym.config import ConfigError, load_config

from conftest import (degenerate_example, float_degenerate_example,
                      random_geometry, sample_stable, scaled_example)


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
    # the figure draws every layer, so a list of layers is an unknown key
    doc = {"n": 3, "a": 2.0, "p": 1.0, "q": 0.5,
           "figure": {"window": [-3, 3, -3, 3], "overlays": ["endpoints"]}}
    with pytest.raises(ConfigError, match=r"unknown key.*figure.*overlays"):
        load_config(json.dumps(doc))
    res = run_cli(["figure", "--config", "-"], stdin_text=json.dumps(doc))
    assert res.returncode == 64 and res.stdout == ""
    assert "overlays" in res.stderr and "Traceback" not in res.stderr


def test_load_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        load_config('{"n": 2.5, "a": 2.0, "p": 1.0, "q": 0.5}')
    with pytest.raises(ConfigError):
        load_config('{"n": 2, "a": 0.5, "p": 1.0, "q": 0.5}')
    with pytest.raises(ConfigError):
        load_config('[1, 2]')
    # each nested value is checked as the top-level ones are: a string, a
    # bool, a fraction or a surplus entry is an error naming the key
    base = {"n": 3, "a": 2.0, "p": 1.0, "q": 0.5}
    sweep = {"p_range": [0, 1], "q_range": [0, 1], "p_count": 2, "q_count": 2}
    for key, doc in (
            ("sweep.p_range", {"sweep": {**sweep, "p_range": ["0", "1"],
                                         "q_count": True}}),
            ("sweep.p_range", {"sweep": {**sweep, "p_range": ["0", "1"]}}),
            ("sweep.q_count", {"sweep": {**sweep, "q_count": True}}),
            ("sweep.p_count", {"sweep": {**sweep, "p_count": 2.9}}),
            ("sweep.p_count", {"sweep": {**sweep, "p_count": 1e3}}),
            ("sweep.p_range", {"sweep": {**sweep, "p_range": [0, 1, 7]}}),
            ("figure.window", {"figure": {"window": ["-3", 3, -3, 3]}}),
            ("figure.samples", {"figure": {"window": [-3, 3, -3, 3],
                                           "samples": True}})):
        with pytest.raises(ConfigError, match=re.escape(key)):
            load_config(json.dumps({**base, **doc}))
    # integers beyond the float range, and past Python's 4300-digit limit
    # on parsing one, are config errors, not an overflow anomaly or a crash
    big = "1" + "0" * 400
    for key, text in (
            ("a", '{"n": 3, "a": %s, "p": 1, "q": 0.5}' % big),
            ("n", '{"n": %s, "a": 2, "p": 1, "q": 0.5}' % big),
            ("JSON", '{"n": 3, "a": 1%s, "p": 1, "q": 0.5}' % ("0" * 5000))):
        with pytest.raises(ConfigError, match=rf"\b{key}\b"):
            load_config(text)


def test_load_config_window_contains_endpoints():
    # (1, q) = (1, 1) and (a, p) = (2, 3); each missed endpoint is named
    base = {"n": 2, "a": 2.0, "p": 3.0, "q": 1.0}
    for window, name in (([1.5, 3.0, 0.0, 4.0], "(1,q)"),
                         ([0.0, 3.0, 0.0, 2.0], "(a,p)")):
        doc = {**base, "figure": {"window": window}}
        with pytest.raises(ConfigError, match=re.escape(
                f"figure.window must contain endpoint {name}")):
            load_config(json.dumps(doc))
    # an edge through an endpoint still contains it
    for window in ([1.0, 2.0, 1.0, 3.0], [0.0, 3.0, -1.0, 3.0]):
        cfg = load_config(json.dumps({**base, "figure": {"window": window}}))
        assert cfg.figure.window == tuple(window)


def test_analyze_exists(tmp_path):
    path = write_config(tmp_path, {"n": 2, "a": 2.0, "p": 2.0, "q": 1.0})
    res = run_cli(["analyze", "--config", path])
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["existence"] == {"margin": doc["existence"]["margin"],
                                "reason": "", "value": "exists"}
    assert doc["lift"]["divisor"] in ("H", "E")
    assert doc["stability"]["overall"] == "stable"
    assert doc["charge"]["theta_hat"] == pytest.approx(math.pi / 2)


def test_analyze_not_exists(tmp_path):
    path = write_config(tmp_path, {"n": 2, "a": 2.0, "p": -3.0, "q": 0.0})
    res = run_cli(["analyze", "--config", path])
    assert res.returncode == 1
    assert json.loads(res.stdout)["existence"]["value"] == "not_exists"


def test_analyze_lift_undefined(tmp_path):
    # the sector lift is undefined because the gap exceeds pi/n, which
    # decides the instance by the gap rule
    path = write_config(tmp_path, geometry_doc(scaled_example()))
    res = run_cli(["analyze", "--config", path])
    assert res.returncode == 1
    doc = json.loads(res.stdout)
    assert doc["existence"]["value"] == "not_exists"
    assert doc["existence"]["reason"] == "sector_gap"
    assert doc["existence"]["margin"] == pytest.approx(1.53, abs=0.01)
    assert set(doc["existence"]) == {"margin", "reason", "value"}
    assert doc["lift"] == {"defined": False, "detail": doc["lift"]["detail"],
                           "reason": "sector condition fails"}
    assert doc["same_component"]["status"] == "different"


def test_analyze_degenerate_cites_witness(tmp_path):
    # the gap 2 pi/3 decides the exactly degenerate record; the charge block
    # still cites the witness m of z2 = e^(2 pi i m / 3) z1
    path = write_config(tmp_path, geometry_doc(degenerate_example()))
    res = run_cli(["analyze", "--config", path])
    assert res.returncode == 1
    doc = json.loads(res.stdout)
    assert doc["existence"]["value"] == "not_exists"
    assert doc["existence"]["reason"] == "sector_gap"
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
    # a gap of pi/4 to the ulp sits in the deadband; the gap of
    # scaled_example() is 1.53 wider than pi/3
    psi = 0.1
    deadband = {"n": 4, "a": 2.0, "p": 2.0 * math.tan(psi + math.pi / 4),
                "q": math.tan(psi)}
    for doc, code, verdict in ((deadband, 2, "inconclusive (deadband)"),
                               (geometry_doc(scaled_example()), 1,
                                "not_exists (sector_gap)")):
        out = tmp_path / "no.csv"
        res = run_cli(["solve", "--config", write_config(tmp_path, doc),
                       "--out", str(out)])
        assert res.returncode == code
        assert res.stderr == f"no solve attempted: existence is {verdict}\n"
        assert res.stdout == "" and not out.exists()


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
    pytest.param(
        {"n": 11, "a": 2.0, "p": 1.1, "q": 0.4,
         "figure": {"window": [-3.0, 3.0, -3.0, 3.0], "samples": 256}},
        "e934bd03de372cffd58882c7b04746d7b01a330c43b1cc7fa93f43b4ee82a040",
        id="figure-PORTRAIT"),
    # c = 0: the zero rays cross at the origin through saddle cells
    pytest.param(
        {"n": 2, "a": 2.0, "p": 2.0, "q": 1.0,
         "figure": {"window": [-3.0, 3.0, -3.0, 3.0], "samples": 256}},
        "d81f2894a8cc1846cf9c4b1e95d4b5b1ba843fcb3a50fb20ba93b4b1b4288898",
        id="figure-ZERO_LEVEL"),
    # a non-square, off-centre window at the smallest grid
    pytest.param(
        {"n": 11, "a": 2.0, "p": 1.1, "q": 0.4,
         "figure": {"window": [0.1, 3.0, -3.0, 3.0], "samples": 64}},
        "635e348d53192f64f0060fc7a722ae2de17dffcc48eb80876c96f655797cbdd4",
        id="figure-OFF_CENTRE"),
    # n = 12 on a fine grid, level set leaving the window on all four sides
    pytest.param(
        {"n": 12, "a": 2.0, "p": 1.1, "q": 0.4,
         "figure": {"window": [-2.5, 2.5, -2.0, 3.0], "samples": 1024}},
        "0cd3abe775c73a4d32ceddddcf117914b95d1e81f418c15a5a01694dd254098f",
        id="figure-FINE_GRID"),
    # c = 0 with 1,025 grid nodes exactly on the zero level: the bytes
    # depend on the value of the zero nudge
    pytest.param(
        {"n": 12, "a": 2.0, "p": 0.0, "q": 0.0,
         "figure": {"window": [-3.0, 3.0, -3.0, 3.0], "samples": 256}},
        "6cfdc0509cfca27441b536541c4fc9f13fc3dd4ccc3e8fa35818fd53919faff5",
        id="figure-ZERO_CLASS"),
    # 64 px per unit puts both endpoints on exact ties of "%.3f": the
    # circles print cy="319.938" (319.9375) and cx="448.062" (448.0625)
    pytest.param(
        {"n": 3, "a": 2.0009765625, "p": 0.0009765625, "q": 0.0009765625,
         "figure": {"window": [-5, 5, -5, 5], "samples": 64}},
        "97bd6078662b79b061daa186dc10da3a3e9872f20405b6d9f3c210d63c27ef53",
        id="figure-PIXEL_TIES"),
]


@pytest.mark.parametrize("doc,digest", PINNED_FIGURES)
def test_figure_bytes_pinned(doc, digest):
    res = run_cli(["figure", "--config", "-"], stdin_text=json.dumps(doc))
    assert res.returncode == 0, res.stderr
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == digest


# instances for the pinned analyze/solve/sweep outputs
STABLE = {"n": 4, "a": 3.0, "p": 1.0, "q": 0.3}
STEEP = {"n": 5, "a": 7.3278, "p": 42.4857, "q": 4.6127}
LIFT_UNDEFINED = {"n": 4, "a": 2.5, "p": -1.0, "q": 3.0}
ORIGIN_HIT = {"n": 3, "a": 1.2320508075688774, "p": -3.732050807568877,
              "q": 4.0}  # scaled_example(), acceptance criterion 5
DEGENERATE = {"n": 3, "a": 1.2320508075688774, "p": -1.8660254037844386,
              "q": 2.0}
EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

# sha256 of stdout followed by the solve CSV (if any), recorded before the
# analysis and the CSV writer were rewritten; the bytes must not drift.  The
# sector gaps of LIFT_UNDEFINED and ORIGIN_HIT decide not_exists, and so
# does the exactly degenerate record's gap 2 pi/3 (sector_gap, exit 1).
# The analyze and sweep digests were re-pinned when each answer came to be
# printed once: the existence block holds value, reason and margin, the
# divisor bound sits in a defined lift, same_component prints no ray count,
# and the sweep has no route column, and again when the charge block
# stopped listing every class's central charge.  The solve digests were
# re-pinned when the solve CSV's numbers came to print as "%.16e", not
# "%.17g"
PINNED_OUTPUTS = [
    ("analyze", STABLE, 0,
     "ee6b1310485bbe9635be403d79f93d185894d05bd0e99deca5c248079d6f6f8f"),
    ("analyze", LIFT_UNDEFINED, 1,
     "dfed0aae0575405e4fa25772fd30a18f62e372c0170a574270788bb5ddaa44f5"),
    ("analyze", ORIGIN_HIT, 1,
     "7a9898302ce86c176dc401855d9ea19a8bc7a94892dc4793139614f607ab7e74"),
    ("analyze", DEGENERATE, 1,
     "56d1c5b4fcf5690a272ae719e39ee2a74bf4d2190126699cbf46107cdd96ae49"),
    ("solve", STABLE, 0,
     "ffd58d875e193acf3729e88caae69c2d23d36ed23fc00b7762dd9680ede73081"),
    ("solve", STEEP, 0,
     "bc641b333752d448ec3c3aa4735d71d39dfe6d870d5f1316a6d0133c80b9976a"),
    ("solve", LIFT_UNDEFINED, 1, EMPTY),
    ("solve", ORIGIN_HIT, 1, EMPTY),
    ("solve", DEGENERATE, 1, EMPTY),
    # corners: the origin hit (first row) and the degenerate point (last)
    ("sweep", {**ORIGIN_HIT, "sweep": {
        "p_range": [ORIGIN_HIT["p"], DEGENERATE["p"]], "q_range": [4.0, 2.0],
        "p_count": 3, "q_count": 3}}, 0,
     "23fafae08d444a4e5e884df450e18e04c859f11a925e846b3305589be9c788df"),
    # stable, unstable, not_exists and lift-undefined rows
    ("sweep", {**STABLE, "sweep": {
        "p_range": [-2.0, 2.0], "q_range": [-1.0, 3.0],
        "p_count": 4, "q_count": 5}}, 0,
     "70dac8e578513368351be95561b9979df431b7e9f22c4da3822bb8dc3c5db027"),
]


# a pinned case's id is its command and instance name, so a re-pin keeps it
_PINNED_NAMES = {tuple(doc[k] for k in "napq"): name for name, doc in (
    ("STABLE", STABLE), ("STEEP", STEEP), ("LIFT_UNDEFINED", LIFT_UNDEFINED),
    ("ORIGIN_HIT", ORIGIN_HIT), ("DEGENERATE", DEGENERATE))}


@pytest.mark.parametrize("command,doc,code,digest", PINNED_OUTPUTS, ids=[
    f"{command}-{_PINNED_NAMES[tuple(doc[k] for k in 'napq')]}"
    for command, doc, _, _ in PINNED_OUTPUTS])
def test_outputs_pinned(command, doc, code, digest, tmp_path, monkeypatch,
                        capsys):
    monkeypatch.chdir(tmp_path)  # solve writes solution.csv here
    assert cli.main([command, "--config", write_config(tmp_path, doc)]) == code
    out = capsys.readouterr().out
    csv_path = tmp_path / "solution.csv"
    out += csv_path.read_text() if csv_path.exists() else ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_solve_csv_format():
    # every double, -0, subnormals and non-finite values included: the CSV
    # is what numpy's own CSV writer prints with fmt="%.16e"
    special = [0.0, -0.0, 5e-324, -5e-324, math.nan, math.inf, -math.inf,
               1e22, 2.2250738585072014e-308, 0.1]
    noise = np.frombuffer(np.random.default_rng(5).bytes(8 * 1000), np.float64)
    cols = np.concatenate([special, noise]).reshape(5, -1)
    curve = SimpleNamespace(x=cols[0], f=cols[1], f_prime=cols[2])
    check = SimpleNamespace(residual=cols[3], theta_pointwise=cols[4])
    text = io.StringIO()
    np.savetxt(text, cols.T, fmt="%.16e", delimiter=",",
               header="x,f,f_prime,residual,theta", comments="")
    assert cli._solve_rows(curve, check) == text.getvalue()


def _stdlib_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _analysis_text(g) -> str:
    rep = charges.charge_report(g)
    return cli.analysis_report(rep, stability.existence_verdict(rep))


def test_json_writer_matches_stdlib(tmp_path, monkeypatch, capsys):
    # the stdlib encoder is the oracle for the analyze report and for
    # cli._json, byte for byte
    texts = [_analysis_text(charges.Geometry(**doc))
             for command, doc, _, _ in PINNED_OUTPUTS if command == "analyze"]
    rng = np.random.default_rng(31)
    pool = [random_geometry(rng, n_hi=40) for _ in range(300)]
    assert {g.n for g in pool} == set(range(2, 41))
    texts += [_analysis_text(g) for g in pool]
    for text in texts:
        assert text == _stdlib_json(json.loads(text))
    # solve prints its summary through the writer: the text must be what
    # the stdlib prints for the values it holds
    monkeypatch.chdir(tmp_path)
    summaries = 0
    for command, doc, code, _ in PINNED_OUTPUTS:
        if command == "solve" and code == 0:
            assert cli.main([command, "--config",
                             write_config(tmp_path, doc)]) == 0
            out = capsys.readouterr().out
            assert out == _stdlib_json(json.loads(out)) + "\n"
            summaries += 1
    assert summaries == 2


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def test_existence_block_is_typed():
    # the existence block holds three keys, prints as strict JSON, and gives
    # a reason from the closed set exactly when the value is not "exists";
    # the divisor bound is printed in a defined lift, and only there
    docs = [doc for command, doc, _, _ in PINNED_OUTPUTS
            if command == "analyze"]
    rng = np.random.default_rng(14)
    docs += [geometry_doc(random_geometry(rng)) for _ in range(300)]
    # degenerate in floats with a gap of 1e-12, so still "degenerate"
    docs += [geometry_doc(float_degenerate_example(n)) for n in (2, 5)]
    reasons = set()
    for doc in docs:
        text = _analysis_text(charges.Geometry(**doc))
        report = json.loads(text, parse_constant=_reject_constant)
        block = report["existence"]
        assert set(block) == {"value", "reason", "margin"}, doc
        assert (block["reason"] == "") == (block["value"] == "exists"), doc
        assert block["reason"] in ("", *levelcurve.REASONS), doc
        assert (block["margin"] is None) == (block["reason"] == "degenerate")
        lift = report.get("lift", {})
        lifted = lift.get("defined", False)
        assert ("divisor" in lift) == ("divisor_margin" in lift) == lifted
        assert lift.get("divisor") in (None, "H", "E"), doc
        assert isinstance(lift.get("divisor_margin", 0.0), float), doc
        reasons.add(block["reason"])
    assert {"", "degenerate", "sector_gap",
            "divisor_bound_fails"} <= reasons


# one instance of each layout variant of the analyze report: the block, key
# and value that show the variant
ZERO_LEVEL_SAME_RAY = {"n": 2, "a": 2.0, "p": 2.0, "q": 1.0}
ZERO_LEVEL_TWO_RAYS = {"n": 3, "a": 3.0, "p": 0.0, "q": 1.7320508075688772}
LIFT_OUT_OF_RANGE = {"n": 2, "a": 3.233796133252511e+100, "p": -1e+150,
                     "q": -8.984439347343544e+134}
REPORT_VARIANTS = [
    (DEGENERATE, "charge", "degenerate", True),
    (STABLE, "lift", "defined", True),
    (LIFT_UNDEFINED, "lift", "reason", "sector condition fails"),
    (LIFT_OUT_OF_RANGE, "lift", "reason", "lift out of range"),
    (STABLE, "volume_path", "defined", True),
    (ORIGIN_HIT, "volume_path", "defined", False),
    (ZERO_LEVEL_SAME_RAY, "same_component", "same_ray", True),
    (ZERO_LEVEL_TWO_RAYS, "same_component", "same_ray", False),
    (STABLE, "same_component", "same_ray", None),
    (ZERO_LEVEL_SAME_RAY, "lift", "divisor", "H"),
    (STABLE, "lift", "divisor", "E"),
]


def test_analysis_report_is_canonical():
    # the report is printed from its layout, not by a JSON encoder: its
    # text must be strict JSON and exactly what the stdlib prints for it
    docs = [doc for command, doc, _, _ in PINNED_OUTPUTS
            if command == "analyze"]
    rng = np.random.default_rng(23)
    docs += [geometry_doc(random_geometry(rng, n_hi=40)) for _ in range(300)]
    # magnitudes from 1e-8 to 1e6
    for _ in range(300):
        mag = (10.0 ** rng.uniform(-8, 6, size=3)).tolist()
        sign = rng.choice([-1.0, 1.0], size=2).tolist()
        docs.append({"n": int(rng.integers(2, 41)), "a": 1.0 + mag[0],
                     "p": sign[0] * mag[1], "q": sign[1] * mag[2]})
    for doc, block, key, value in REPORT_VARIANTS:
        text = _analysis_text(charges.Geometry(**doc))
        assert json.loads(text)[block][key] == value, (doc, block, key)
        docs.append(doc)
    for doc in docs:
        text = _analysis_text(charges.Geometry(**doc))
        report = json.loads(text, parse_constant=_reject_constant)
        assert text == _stdlib_json(report), doc


def test_analysis_report_non_finite_values(monkeypatch):
    # a non-finite float outside the rows prints as json.dumps prints it
    rep = charges.charge_report(charges.Geometry(**STABLE))
    monkeypatch.setattr(cli, "cxy_path_lift",
                        lambda rep: lifting.OriginHit(t_star=math.nan))
    monkeypatch.setattr(cli, "sector_lift", lambda rep: lifting.LiftedAngle(
        winding=0, lifted=math.inf, method="sector_path", margin=-math.inf))
    text = cli.analysis_report(rep, stability.existence_verdict(rep))
    report = json.loads(text)
    assert text == _stdlib_json(report)
    assert '"origin_hit_t": NaN' in text
    assert '"lifted": Infinity' in text and '"margin": -Infinity' in text


def test_json_writer_edge_values():
    # _json writes scalars only, each as the stdlib prints it; the layouts
    # around them are derived from json.dumps
    text = "\u00e9\n\"\\\x00\u2028\U0001f600"
    values = [-0.0, 5e-324, 1e308, -1e308, math.nan, math.inf, -math.inf,
              0.1, 0, -7, 10 ** 30, True, False, None, "", text]
    for value in values:
        assert cli._json(value) == _stdlib_json(value)
    # a record, a numpy scalar or a container in a report is a bug, not a
    # list, a float or a block
    for bad in (np.float64(1.0), np.bool_(True), {1, 2}, b"x", (1.5,),
                charges.Geometry(2, 2.0, 1.0, 1.0), {}, [],
                {"b": {}, "a": [], "": [[], {}, [[]], {"x": {}}]},
                [[1.5, "t"], {text: [-0.0, {"\u00e9": math.nan}]}], values):
        with pytest.raises(TypeError):
            cli._json(bad)



def _leaves(obj, path=()):
    """(path, type name, repr) of every scalar: a float matches only the
    same float, and NaN matches NaN."""
    if isinstance(obj, dict):
        return [leaf for key, v in obj.items()
                for leaf in _leaves(v, path + (key,))]
    if isinstance(obj, list):
        return [leaf for i, v in enumerate(obj)
                for leaf in _leaves(v, path + (i,))]
    return [(path, type(obj).__name__, repr(obj))]


def _layer_report(g) -> dict:
    """The analyze report as a dict, built from the layers' own records."""
    rep = charges.charge_report(g)
    verdict = stability.existence_verdict(rep)
    report = {
        "charge": {"degenerate": rep.degenerate, "r_x": rep.r_x,
                   "theta_hat": rep.theta_hat,
                   "zeta": [rep.zeta.real, rep.zeta.imag]},
        "existence": {"value": verdict.value.value, "reason": verdict.reason,
                      "margin": verdict.margin},
        "geometry": g._asdict(),
    }
    if rep.degenerate:
        report["charge"]["degenerate_m"] = charges.degeneracy_check(rep)
        return report
    lift = lifting.sector_lift(rep)
    if isinstance(lift, lifting.LiftedAngle):
        margin, divisor = stability.divisor_angle_bounds(rep, lift)
        report["lift"] = {
            "defined": True, "lifted": lift.lifted, "margin": lift.margin,
            "method": lift.method, "winding": lift.winding,
            "supercritical": stability.supercritical_check(lift, g.n),
            "divisor": divisor, "divisor_margin": margin}
    else:
        report["lift"] = {"defined": False, "reason": lift.reason,
                          "detail": lift.detail}
    report["same_component"] = levelcurve.same_component(rep)._asdict()
    stab = stability.stability_verdict(rep)
    report["stability"] = {"overall": stab.overall.value, "per_k": {
        str(k): {"margin_E": pk.sign_e.margin, "margin_H": pk.sign_h.margin,
                 "sign_E": pk.sign_e.value.value,
                 "sign_H": pk.sign_h.value.value,
                 "verdict": pk.verdict.value}
        for k, pk in stab.per_k.items()}}
    cxy = lifting.cxy_path_lift(rep)
    report["volume_path"] = (
        {"defined": False, "origin_hit_t": cxy.t_star}
        if isinstance(cxy, lifting.OriginHit)
        else {"defined": True, "lifted": cxy.lifted, "winding": cxy.winding})
    return report


def test_report_leaves_hold_layer_values(tmp_path, capsys):
    # every leaf the analyze report and the solve summary print is the
    # value its layer returns, in its key: two swapped arguments of a
    # layout would print canonical JSON and still fail here
    rng = np.random.default_rng(37)
    pool = [random_geometry(rng, n_hi=40) for _ in range(300)]
    pool += [charges.Geometry(**doc) for doc, _, _, _ in REPORT_VARIANTS]
    for g in pool:
        report = json.loads(_analysis_text(g))
        assert sorted(_leaves(report)) == sorted(_leaves(_layer_report(g))), g
    for doc in (STABLE, STEEP):
        csv_path = str(tmp_path / "s.csv")
        assert cli.main(["solve", "--config", write_config(tmp_path, doc),
                         "--out", csv_path]) == 0
        rep = charges.charge_report(charges.Geometry(**doc))
        curve = levelcurve.trace_solution(
            rep, stability.existence_verdict(rep))
        check = levelcurve.verify_solution(curve, rep)
        expected = {"samples": len(curve.x), "csv": csv_path, "c": rep.c,
                    "verified": check.passed}
        expected.update({key: getattr(check, key) for key in (
            "endpoint_error", "residual_max", "residual_l2", "theta_mean",
            "theta_oscillation")})
        summary = json.loads(capsys.readouterr().out)
        assert sorted(_leaves(summary)) == sorted(_leaves(expected)), doc


def test_solve_summary_non_finite_values(tmp_path, capsys, monkeypatch):
    # non-finite figures print as json.dumps prints them, and the curve
    # they describe is not verified
    def non_finite(curve, rep):
        return levelcurve.verify_solution(curve, rep)._replace(
            residual_max=math.inf, residual_l2=math.nan,
            theta_oscillation=-math.inf, passed=False)

    monkeypatch.setattr(cli, "verify_solution", non_finite)
    assert cli.main(["solve", "--config", write_config(tmp_path, STABLE),
                     "--out", str(tmp_path / "s.csv")]) == 3
    out = capsys.readouterr().out
    assert out == _stdlib_json(json.loads(out)) + "\n"
    assert "Infinity" in out and "NaN" in out


def test_ops_call_no_json_encoder(tmp_path, capsys, monkeypatch):
    # the layouts are derived from json.dumps at import, never during an op
    ops = [(command, write_config(tmp_path, doc, f"{i}.json"), code)
           for i, (command, doc, code, _) in enumerate(PINNED_OUTPUTS)
           if command in ("analyze", "solve")]
    calls = []
    monkeypatch.setattr(json, "dumps", lambda *args, **kw: calls.append(0))
    monkeypatch.setattr(json.JSONEncoder, "encode",
                        lambda self, o: calls.append(0))
    for command, path, code in ops:
        assert cli.main([command, "--config", path,
                         "--out", str(tmp_path / "out")]) == code
    capsys.readouterr()
    assert len(ops) == 9 and calls == []


BENCH_RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def _bench_run() -> dict:
    """The globals of bench/run.py, read and run without writing bytecode
    beside it; its samplers and checks use no dhym code, and importing it
    runs nothing."""
    module = {"__name__": "bench_run", "__file__": str(BENCH_RUN)}
    exec(compile(BENCH_RUN.read_text(), str(BENCH_RUN), "exec"), module)
    return module


def test_analyze_verdict_matches_oracle(capsys, monkeypatch):
    # dhym analyze on the benchmark's own pool against an oracle that uses
    # no dhym code: the gap against pi/n, then the signs of
    # cos((n-1) psi_j - arg zeta) at both ends; a record within the
    # benchmark's STABLE_MARGIN of either edge is skipped
    bench = _bench_run()
    zeta, edge = bench["_zeta"], bench["STABLE_MARGIN"]
    rng = random.Random(1)
    checked, seen = 0, set()
    for i in range(3000):
        n, a, p, q = bench["random_instance"](rng, i)
        theta = cmath.phase(zeta(n, a, p, q))
        psi1, psi2 = math.atan2(q, 1.0), math.atan2(p, a)
        excess = abs(psi2 - psi1) - math.pi / n
        fans = [(n - 1) * psi - theta for psi in (psi1, psi2)]
        # angular distance of each end from its nearest level-(n-1) ray
        ray = min(abs(math.remainder(f - math.pi / 2, math.pi)) / (n - 1)
                  for f in fans)
        if abs(excess) <= edge or (excess < 0 and ray <= edge):
            continue
        if excess > 0:
            want = ("not_exists", "sector_gap")
        elif all(math.cos(f) > 0 for f in fans):
            want = ("exists", "")
        else:
            want = ("not_exists", "divisor_bound_fails")
        monkeypatch.setattr(sys, "stdin", io.StringIO(
            json.dumps({"n": n, "a": a, "p": p, "q": q})))
        code = cli.main(["analyze", "--config", "-"])
        block = json.loads(capsys.readouterr().out)["existence"]
        assert (block["value"], block["reason"]) == want, (n, a, p, q)
        assert code == (0 if want[0] == "exists" else 1)
        checked += 1
        seen.add(want)
    assert checked == 3000 and len(seen) == 3


def test_main_reuses_parser(tmp_path, capsys):
    path = write_config(tmp_path, STABLE)
    analyze = ["analyze", "--config", path]
    solve = ["solve", "--config", path, "--out", str(tmp_path / "s.csv")]
    outs = []
    for args in (analyze, solve):
        assert cli.main(args) == 0
        outs.append(capsys.readouterr().out)
    with pytest.raises(SystemExit) as exc:
        cli.main(analyze + ["--bogus"])
    assert exc.value.code == 64
    assert "usage:" in capsys.readouterr().err
    assert cli.main(analyze) == 0
    outs.append(capsys.readouterr().out)
    assert cli._parser.cache_info().misses == 1  # one build per process
    assert outs == [run_cli(args).stdout for args in (analyze, solve, analyze)]


def test_argv_forms_match_argparse(monkeypatch, capsys):
    # main reads the documented forms itself and hands every other argv to
    # argparse; either way a call must end as a fresh argparse parse ends:
    # with the same (command, config, out), or the same exit and text
    called = []
    monkeypatch.setattr(cli, "_read_config", lambda path: path)
    for name in cli._COMMANDS:
        monkeypatch.setattr(cli, "run_" + name, lambda cfg, out, *streams,
                            name=name: called.append((name, cfg, out)) or 0)
    fresh = cli._parser.__wrapped__()  # a parser main has not used

    def by_main(argv):
        assert cli.main(argv) == 0
        return called.pop()

    def by_argparse(argv):
        ns = fresh.parse_args(argv)
        return ns.command, ns.config, ns.out

    def outcome(parse, argv):
        try:
            result = parse(argv)
        except SystemExit as exc:
            result = exc.code
        out, err = capsys.readouterr()
        if not isinstance(result, tuple):  # help, or a usage error
            helped = "-h" in (sys.argv[1:] if argv is None else argv)
            assert (result, "usage:" in (out if result == 0 else err)) == (
                0 if helped else 64, True), argv
        return result, out, err

    values = ["x.json", "-", "", "a=b"]  # "-" or not starting with "-"
    dashed = ["-5", "--x", "-my file", "--"]
    documented, other = [], [[], ["-h"], ["--config", "x.json"]]
    for command in cli._COMMANDS:
        documented += [[command, "--config", v] for v in values]
        documented += [[command, "--config", v, "--out", w]
                       for v in values for w in values]
        other += [[command, "--config", v] for v in dashed]
        other += [[command, "--config", v, "--out", w]
                  for v in values[:2] for w in dashed]
        other += [
            [command], [command, "-h"], [command, "--config"],
            [command, "--config", "x.json", "--out"],
            [command, "--config=x.json"], [command, "--config=-"],
            [command, "--config", "x.json", "--out=o"],
            [command, "--out", "o", "--config", "x.json"],
            [command, "--conf", "x.json"],
            [command, "--config", "x.json", "--config", "y.json"],
            [command, "--config", "x.json", "extra"],
            [command, "--config", "x.json", "--out", "o", "extra"],
            [command, "--config", "x.json", "--bogus", "o"],
            [command, "-h", "--config", "x.json"],
            ["--config", "x.json", command],
            [command.upper(), "--config", "x.json"],
            [command[:3], "--config", "x.json"]]

    def parser_calls():
        return sum(cli._parser.cache_info()[:2])  # hits and misses

    for argv in documented + other:
        want = outcome(by_argparse, argv)
        calls = parser_calls()
        assert outcome(by_main, argv) == want, argv
        # main itself reads exactly the documented forms
        assert (parser_calls() == calls) == (argv in documented), argv
        monkeypatch.setattr(sys, "argv", ["dhym", *argv])
        assert outcome(by_main, None) == outcome(by_argparse, None), argv
        assert isinstance(want[0], tuple) or argv not in documented


def _count_calls(monkeypatch, module, name) -> list:
    """Record every call of module.name, wherever dhym binds the function."""
    calls = []
    original = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    for mod_name, mod in list(sys.modules.items()):
        if (mod_name.split(".")[0] == "dhym"
                and getattr(mod, name, None) is original):
            monkeypatch.setattr(mod, name, counting)
    return calls


def test_angle_record_computed_once(tmp_path, capsys, monkeypatch):
    # one in-process command evaluates zeta at most once and decides
    # existence exactly once, wherever either function is bound: the trace
    # takes the verdict and decides nothing
    zetas = _count_calls(monkeypatch, charges, "zeta")
    verdicts = _count_calls(monkeypatch, stability, "existence_verdict")
    decisions = _count_calls(monkeypatch, levelcurve, "graphical_existence")
    path = write_config(tmp_path, STABLE)
    for command in ("analyze", "solve"):
        zetas.clear()
        verdicts.clear()
        decisions.clear()
        assert cli.main([command, "--config", path,
                         "--out", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        assert len(zetas) <= 1, (command, len(zetas))
        assert len(verdicts) == 1, (command, len(verdicts))
        assert len(decisions) == 1, (command, len(decisions))


def test_solve_measures_curve_once(tmp_path, capsys, monkeypatch):
    # the CSV columns and the summary figures come from one evaluation of
    # the ODE terms, the verifier's; the trace computes none of them
    calls = _count_calls(monkeypatch, levelcurve, "_ode_terms")
    assert cli.main(["solve", "--config", write_config(tmp_path, STABLE),
                     "--out", str(tmp_path / "s.csv")]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_volume_path_lifted_by_analyze_only(tmp_path, capsys, monkeypatch):
    # the existence decision never lifts the volume path, not even where the
    # sector lift is undefined; analyze lifts it once for its own report
    calls = _count_calls(monkeypatch, lifting, "cxy_path_lift")
    verdict = stability.existence_verdict(charges.charge_report(scaled_example()))
    assert verdict.value is stability.Existence.NOT_EXISTS
    assert verdict.reason == "sector_gap" and calls == []
    assert cli.main(["analyze", "--config",
                     write_config(tmp_path, ORIGIN_HIT)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert len(calls) == 1
    assert report["volume_path"]["defined"] is False
    assert 0.0 <= report["volume_path"]["origin_hit_t"] <= 1.0


def test_sweep_skips_volume_path(tmp_path, capsys, monkeypatch):
    # a sweep row prints no volume-path note, so no row lifts the volume path
    calls = _count_calls(monkeypatch, lifting, "cxy_path_lift")
    path = write_config(tmp_path, {**STABLE, "sweep": {
        "p_range": [-2.0, 2.0], "q_range": [-1.0, 3.0],
        "p_count": 4, "q_count": 5}})
    assert cli.main(["sweep", "--config", path]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert sum(r["lift_defined"] == "false" and r["stability"] != "degenerate"
               for r in rows) > 0
    assert calls == []


def test_solve_skips_volume_path(tmp_path, capsys, monkeypatch):
    # solve prints only the verdict and its reason, so it never lifts the
    # volume path, not even where the sector lift is undefined
    calls = _count_calls(monkeypatch, lifting, "cxy_path_lift")
    path = write_config(tmp_path, LIFT_UNDEFINED)
    assert cli.main(["solve", "--config", path,
                     "--out", str(tmp_path / "no.csv")]) == 1
    assert capsys.readouterr().err == (
        "no solve attempted: existence is not_exists (sector_gap)\n")
    assert calls == []


def test_certificates_computed_by_analyze_and_sweep_only(tmp_path, capsys,
                                                        monkeypatch):
    # stability, the sector lift and the divisor bound decide nothing:
    # existence_verdict, solve and figure never compute them, and analyze
    # and sweep compute each once per instance for the blocks they print
    counts = {name: _count_calls(monkeypatch, module, name)
              for module, name in ((stability, "stability_verdict"),
                                   (lifting, "sector_lift"),
                                   (stability, "divisor_angle_bounds"))}
    doc = {**STABLE, "figure": {"window": [-4, 4, -4, 4], "samples": 64},
           "sweep": {"p_range": [-2.0, 2.0], "q_range": [-1.0, 3.0],
                     "p_count": 2, "q_count": 2}}
    path = write_config(tmp_path, doc)
    for g in (charges.Geometry(**STABLE), scaled_example()):
        stability.existence_verdict(charges.charge_report(g))
    assert [len(c) for c in counts.values()] == [0, 0, 0]
    # the sweep grid has two rows whose sector lift is undefined, and a
    # divisor bound only where it is defined
    for command, expect in (("solve", [0, 0, 0]), ("figure", [0, 0, 0]),
                            ("analyze", [1, 1, 1]), ("sweep", [4, 4, 2])):
        assert cli.main([command, "--config", path,
                         "--out", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        assert [len(c) for c in counts.values()] == expect, command
        for c in counts.values():
            c.clear()


def test_zero_level_vertical_tangent_is_inconclusive(tmp_path, capsys):
    # c is zero to EPS_ZERO and both arguments round to -pi/2, yet p / a is
    # about -3.1e49 while q is about -9.0e134, so the endpoints are not on
    # one ray; both lie on the level-1 ray at -pi/2, margin 0.0, so the
    # deadband decides and nothing is traced
    doc = {"n": 2, "a": 3.233796133252511e+100, "p": -1e+150,
           "q": -8.984439347343544e+134}
    rep = charges.charge_report(charges.Geometry(**doc))
    assert rep.psi1 == rep.psi2 == -math.pi / 2
    path = write_config(tmp_path, {**doc, "figure": {
        "window": [-2e150, 2e150, -2e150, 2e150], "samples": 64}})
    assert cli.main(["analyze", "--config", path]) == 2
    block = json.loads(capsys.readouterr().out)["existence"]
    assert (block["value"], block["reason"], block["margin"]) == (
        "inconclusive", "deadband", 0.0)
    out = tmp_path / "solution.csv"
    assert cli.main(["solve", "--config", path, "--out", str(out)]) == 2
    res = capsys.readouterr()
    assert res.err == ("no solve attempted: existence is inconclusive "
                       "(deadband)\n")
    assert res.out == "" and not out.exists()
    assert cli.main(["figure", "--config", path]) == 0
    root = ET.fromstring(capsys.readouterr().out)
    assert not any(el.get("class") == "solution" for el in root.iter())


# imports dhym, then runs each command of argv[2:] in-process on the
# config argv[1]; prints, per step, the exit code and which of numpy,
# dataclasses, inspect (which pulls in ast, dis and tokenize) and argparse
# are loaded
_IMPORT_PROBE = """
import contextlib, io, json, sys
import dhym, dhym.cli
def heavy():
    return [m for m in ("numpy", "dataclasses", "inspect", "argparse")
            if m in sys.modules]
steps = [["import", None, heavy()]]
for command in sys.argv[2:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = dhym.cli.main([command, "--config", sys.argv[1],
                              "--out", sys.argv[1] + "." + command])
    steps.append([command, code, heavy()])
print(json.dumps(steps))
"""


def test_verdicts_never_import_numpy(tmp_path):
    path = write_config(tmp_path, {**STABLE, "sweep": {
        "p_range": [-2.0, 2.0], "q_range": [-1.0, 3.0],
        "p_count": 3, "q_count": 3},
        "figure": {"window": [-4, 4, -4, 4], "samples": 64}})
    res = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, path,
         "analyze", "sweep", "solve", "figure"],
        capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    steps = json.loads(res.stdout)
    assert steps[:3] == [["import", None, []], ["analyze", 0, []],
                         ["sweep", 0, []]]
    assert [step[:2] for step in steps[3:]] == [["solve", 0], ["figure", 0]]
    assert all("numpy" in step[2] and "argparse" not in step[2]
               for step in steps[3:])


def test_linspace_matches_numpy():
    rng = np.random.default_rng(11)
    ranges = [(0.0, 1.0), (3.0, -1.5), (2.5, 2.5), (-0.0, 0.0), (0.0, -0.0),
              (-0.0, 5.0), (-0.0, -0.0), (0.0, 5e-324), (1e-300, 2e-300)]
    ranges += [tuple(rng.uniform(-10.0, 10.0, 2)) for _ in range(200)]
    ranges += [tuple(rng.uniform(-1.0, 1.0, 2) * 10.0 ** rng.integers(-150, 150, 2))
               for _ in range(200)]
    for start, stop in ranges:
        for num in (1, 2, 3, 40):
            got = cli._linspace(float(start), float(stop), num)
            want = np.linspace(start, stop, num).tolist()
            assert ([struct.pack("<d", v) for v in got]
                    == [struct.pack("<d", v) for v in want]), (start, stop, num)


def test_figure_degenerate_exits_2(tmp_path):
    # zeta ~ 0 leaves no average angle, so no level curve to draw; analyze
    # decides the same instance by its gap (sector_gap, exit 1), but the
    # figure needs theta_hat and stays at exit 2
    path = write_config(tmp_path, {**DEGENERATE, "figure": {
        "window": [-3, 3, -3, 3], "samples": 64}})
    res = run_cli(["figure", "--config", path])
    assert res.returncode == 2
    assert "degenerate" in res.stderr and "Traceback" not in res.stderr
    assert len(res.stderr.splitlines()) == 1 and res.stdout == ""


def test_unwritable_out_exits_64(tmp_path):
    path = write_config(tmp_path, STABLE)
    for command in ("analyze", "solve"):
        res = run_cli([command, "--config", path,
                       "--out", str(tmp_path / "missing" / "out")])
        assert res.returncode == 64, command
        assert "missing" in res.stderr and "Traceback" not in res.stderr


def test_figure_window_must_contain_endpoints(tmp_path):
    # a config error for every subcommand, which all check the figure
    # object, before anything is computed or written
    doc = {"n": 2, "a": 2.0, "p": 2.0, "q": 1.0,
           "figure": {"window": [-1.0, 1.0, -1.0, 1.0]},
           "sweep": {"p_range": [0, 1], "q_range": [0, 1],
                     "p_count": 2, "q_count": 2}}
    path = write_config(tmp_path, doc)
    for command in ("figure", "analyze", "solve", "sweep"):
        out = tmp_path / f"{command}.out"
        res = run_cli([command, "--config", path, "--out", str(out)])
        assert res.returncode == 64, command
        assert res.stderr == ("error: figure.window must contain "
                              "endpoint (a,p)\n")
        assert res.stdout == "" and not out.exists()


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


def test_tolerances_validated(tmp_path, capsys):
    # the tolerances are fixed constants: every override the former
    # "tolerances" object took, valid or not, is now an unknown key
    out = str(tmp_path / "no.out")
    for value in ({"curve_samples": "x"}, {"curve_samples": 2},
                  {"curve_samples": 300.0}, {"eps_zero": -1},
                  {"tol_level": 0}, {"eps_angle": True},
                  {"lift_steps": 1024}, {"initial_step_frac": 0.01},
                  {"min_step_frac": 1e-9}, {"eps_angle": 10},
                  {"eps_angle": 0.7854}, {"curve_samples": 513},
                  {"eps_angle": 0.785}, {}):
        path = write_config(tmp_path, {"n": 2, "a": 2.0, "p": 2.0, "q": 1.0,
                                       "tolerances": value})
        for command in ("analyze", "solve"):
            assert cli.main([command, "--config", path, "--out", out]) == 64
            err = capsys.readouterr().err
            assert "unknown key" in err and "tolerances" in err, value
    res = run_cli(["solve", "--config", path, "--out", out])
    assert res.returncode == 64
    assert "tolerances" in res.stderr and "Traceback" not in res.stderr


def test_n_bounded_by_angular_deadband():
    # the angular deadband 1e-8 must stay below pi/(2n), the half-gap of
    # the top fan; only parsed, nothing is computed
    doc = '{"n": %d, "a": 2.0, "p": 1.0, "q": 0.5}'
    assert load_config(doc % 157_079_632).geometry.n == 157_079_632
    with pytest.raises(ConfigError, match=r"\bn\b.*157079633"):
        load_config(doc % 157_079_633)


def test_non_finite_ranges_exit_64(tmp_path):
    # an infinite sweep range or figure window is a config error naming the
    # key, not a failure at a computed grid point or a numpy warning
    inf = math.inf
    for command, key, doc in (
            ("sweep", "sweep.p_range", {"sweep": {
                "p_range": [0, inf], "q_range": [0, 1],
                "p_count": 3, "q_count": 2}}),
            ("figure", "figure.window", {"figure": {
                "window": [-inf, 3, -3, 3], "samples": 64}}),
            # finite ends whose width overflows
            ("sweep", "sweep.p_range", {"sweep": {
                "p_range": [-1e308, 1e308], "q_range": [0, 1],
                "p_count": 3, "q_count": 2}}),
            ("figure", "figure.window", {"figure": {
                "window": [-1e308, 1e308, -3, 3], "samples": 64}})):
        path = write_config(tmp_path, {"n": 3, "a": 2, "p": 1, "q": 1, **doc})
        res = run_cli([command, "--config", path])
        assert res.returncode == 64, command
        assert key in res.stderr and "Warning" not in res.stderr
        assert "Traceback" not in res.stderr and res.stdout == ""


def test_overflow_exits_3(tmp_path):
    for command, doc in (
            ("analyze", {"n": 400, "a": 10.0, "p": 1.0, "q": 1.0}),
            # each power is finite, but zeta = z2^n - z1^n is not
            ("analyze", {"n": 2, "a": 1.2e154, "p": 0, "q": 1.2e154}),
            # the charges are finite, but z^n overflows on the figure grid
            ("figure", {"n": 1200, "a": 1.01, "p": 0, "q": 0,
                        "figure": {"window": [-1.3, 1.3, -1.3, 1.3],
                                   "samples": 64}}),
            # z2^n leaves the float range at one grid point, which the
            # message names
            ("sweep", {"n": 3, "a": 2, "p": 0, "q": 0, "sweep": {
                "p_range": [0, 1e200], "q_range": [0, 0],
                "p_count": 2, "q_count": 1}})):
        path = write_config(tmp_path, doc)
        res = run_cli([command, "--config", path])
        assert res.returncode == 3, command
        assert "overflow" in res.stderr and "Traceback" not in res.stderr
        assert "Warning" not in res.stderr and res.stdout == ""
        if command == "sweep":
            assert "p=1e+200" in res.stderr


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


@pytest.mark.parametrize("command,doc,code", [
    # the residual's squares overflow, though every residual is finite
    ("solve", {"n": 16, "a": 2042771443713.4456, "p": 222241502356885.84,
               "q": 6031517675622.951}, 0),
    # |z2|^200 is 1.4e308, so the level terms overflow at the last nodes:
    # an anomaly that names the overflow, not a NaN summary
    ("solve", {"n": 200, "a": 8.239982867972993, "p": -33.74574160476608,
               "q": -4.095265545167276}, 3),
    # both endpoints lie on the level-1 ray at -pi/2, so the verdict is
    # the deadband and no trace is attempted; the figure still draws
    # without a warning
    ("figure", {"n": 2, "a": 3.233796133252511e+100, "p": -1e+150,
                "q": -8.984439347343544e+134,
                "figure": {"window": [-2e150, 2e150, -2e150, 2e150],
                           "samples": 64}}, 0),
    # at x = 1, |y / x| = |q| is far beyond the 1e16 that tan(phi) reaches
    # near pi/2, so the seed must come from r sin(phi)
    ("solve", {"n": 2, "a": 1.3686385038302029e+94,
               "p": -1.5927239311624523e+89, "q": -6.46789271801482e+95}, 0),
    # the figure traces the exists verdict of the n = 200 instance before
    # it draws, so it names the trace's overflow, not the contour's
    ("figure", {"n": 200, "a": 8.239982867972993, "p": -33.74574160476608,
                "q": -4.095265545167276,
                "figure": {"window": [-1, 9, -34, 1], "samples": 64}}, 3),
])
def test_large_magnitudes_give_strict_output(command, doc, code, tmp_path):
    path = write_config(tmp_path, doc)
    args = [command, "--config", path]
    if command == "solve":
        args += ["--out", str(tmp_path / "solution.csv")]
    res = run_cli(args)
    assert res.returncode == code, res.stderr
    assert "Warning" not in res.stderr and "Traceback" not in res.stderr
    if code == 3:
        assert res.stdout == "" and res.stderr.startswith(
            "anomaly: trace failed despite yes-verdict: ")
        assert "np.float64" not in res.stderr
        assert "level terms overflow at x=" in res.stderr
    elif command == "figure":
        ET.fromstring(res.stdout)
    else:
        summary = json.loads(res.stdout, parse_constant=_reject_constant)
        assert summary["verified"] is True


def near_float_limit_figure(seed):
    """A figure config whose grid's largest |z|^n lies within a factor 4
    of DBL_MAX, on either side."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 13))
    log_u = rng.uniform(-math.log(4.0), math.log(4.0))
    # the corner modulus sqrt(2) w has (sqrt(2) w)^n = DBL_MAX / u
    w = math.exp((math.log(sys.float_info.max) - log_u) / n) / math.sqrt(2.0)
    a, p, q = (float(v) for v in rng.uniform([1, -10, -10], 10))
    return {"n": n, "a": a, "p": p, "q": q,
            "figure": {"window": [-w, w, -w, w], "samples": 64}}


@pytest.mark.parametrize("seed", range(6))
def test_figure_near_float_limit_is_finite_or_exit_3(seed, tmp_path, capsys):
    # binary powering overflows at other operands than numpy's integer
    # power: a grid whose |Re(e^(-i theta_hat) z^n)| overflows while Phi
    # stays finite draws, and only a Phi that leaves the float range
    # exits 3; no coordinate is ever nan or inf
    path = write_config(tmp_path, near_float_limit_figure(seed))
    code = cli.main(["figure", "--config", path])
    res = capsys.readouterr()
    if code == 3:
        assert res.out == "" and "overflow" in res.err
        return
    assert code == 0 and res.err == ""
    coords = re.findall(r'(?:points|cx|cy)="([^"]*)"', res.out)
    values = [float(v) for text in coords for v in re.split("[ ,]", text)]
    assert values and all(math.isfinite(v) for v in values)


FIGURE_STABLE = {**STABLE, "figure": {"window": [0.0, 4.0, -1.0, 2.0],
                                      "samples": 64}}


def test_trace_failure_is_an_anomaly(tmp_path, capsys, monkeypatch):
    # a yes-verdict whose trace fails exits 3 before anything is written,
    # for the figure as for solve
    def failing(rep, verdict):
        raise levelcurve.TraceError("injected")

    monkeypatch.setattr(cli, "trace_solution", failing)
    path = write_config(tmp_path, FIGURE_STABLE)
    for command in ("figure", "solve"):
        out = tmp_path / f"{command}.out"
        assert cli.main([command, "--config", path, "--out", str(out)]) == 3
        res = capsys.readouterr()
        assert res.out == "" and not out.exists()
        assert res.err == ("anomaly: trace failed despite yes-verdict: "
                           "injected\n")


def test_unverified_curve_is_an_anomaly(tmp_path, capsys, monkeypatch):
    # a traced curve that fails verification is still written, then
    # reported with exit 3
    def offset(rep, verdict):
        curve = levelcurve.trace_solution(rep, verdict)
        return curve._replace(f=curve.f + 0.05)

    monkeypatch.setattr(cli, "trace_solution", offset)
    path = write_config(tmp_path, FIGURE_STABLE)
    for command in ("figure", "solve"):
        out = tmp_path / f"{command}.out"
        assert cli.main([command, "--config", path, "--out", str(out)]) == 3
        res = capsys.readouterr()
        assert res.err == "anomaly: traced curve failed verification\n"
        if command == "figure":
            root = ET.fromstring(out.read_text())
            assert sum(el.get("class") == "solution"
                       for el in root.iter()) == 1
        else:
            assert json.loads(res.out)["verified"] is False
            assert out.read_text().startswith("x,f,f_prime,residual,theta\n")


def _window(g):
    """A window around both endpoints; a > 1 always."""
    return [0.5, g.a + 0.5, min(g.q, g.p) - 0.5, max(g.q, g.p) + 0.5]


def test_one_gate_from_verdict_to_curve(tmp_path, capsys, monkeypatch):
    # figure and solve each decide existence once, trace only an exists
    # verdict, and the figure draws a solution exactly then
    rng = np.random.default_rng(18)
    pool = ([random_geometry(rng) for _ in range(60)]
            + [sample_stable(rng) for _ in range(20)])
    exists = [stability.existence_verdict(charges.charge_report(g)).value
              is stability.Existence.EXISTS for g in pool]
    assert 0 < sum(exists) < len(pool)
    verdicts = _count_calls(monkeypatch, stability, "existence_verdict")
    traces = _count_calls(monkeypatch, levelcurve, "trace_solution")
    out = str(tmp_path / "out")
    for g, yes in zip(pool, exists):
        path = write_config(tmp_path, geometry_doc(
            g, figure={"window": _window(g), "samples": 64}))
        for command in ("figure", "solve"):
            verdicts.clear()
            traces.clear()
            code = cli.main([command, "--config", path, "--out", out])
            capsys.readouterr()
            assert code == 0 if command == "figure" or yes else code in (1, 2)
            assert len(verdicts) == 1 and len(traces) == yes, (command, g)
            if command == "figure":
                root = ET.fromstring(open(out).read())
                drawn = sum(el.get("class") == "solution"
                            for el in root.iter())
                assert drawn == yes, g
