"""End-to-end acceptance checks.

Each test prints a single pass/fail line so the run log documents every
criterion at its stated tolerance and time budget.
"""

import math
import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from dhym.charges import Geometry, charge_report
from dhym.contour import Window, extract_level_set
from dhym.figure import render_figure
from dhym.config import FigureSpec
from dhym.levelcurve import (
    Existence,
    graphical_existence,
    level_context,
    same_component,
    trace_solution,
    verify_solution,
    TraceError,
)
from dhym.lifting import (
    LiftedAngle,
    LiftUndefined,
    OriginHit,
    cxy_path_lift,
    sector_lift,
)
from dhym.rays import ray_set
from dhym.stability import divisor_angle_bounds
from dhym.tolerances import EPS_ANGLE, TOL_ENDPOINT

from conftest import (
    cell_diag,
    check_alternation,
    collinear_geometry,
    degenerate_example,
    lift_exists,
    oracle_same_component,
    phi,
    random_geometry,
    sample_stable,
    scaled_example,
)


def report(name, ok, detail=""):
    line = f"criterion {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print("\n" + line)
    assert ok, line


def test_criterion_1_shared_level_value(rng):
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        g = random_geometry(rng)
        rec = charge_report(g)
        level_context(rec)  # raises TraceError when the two ends disagree
        th = rec.theta_hat
        diff = abs(phi(1.0, g.q, g.n, th) - phi(g.a, g.p, g.n, th))
        scale = max(abs(g.z1), abs(g.z2)) ** g.n
        worst = max(worst, diff / scale)
    dt = time.perf_counter() - t0
    ok = worst <= 1e-9 and dt < 5.0
    report("1 shared level value", ok,
           f"worst relative gap {worst:.2e}, {dt:.2f}s")


def test_criterion_2_alternation(rng):
    t0 = time.perf_counter()
    ok = True
    for _ in range(256):
        th = float(rng.uniform(-math.pi, math.pi))
        for n in range(2, 17):
            for k in range(2, n + 1):
                if not check_alternation(k, th, n).ok:
                    ok = False
    # boundary construction: theta = 0, k = n = 4 pins the smallest rays
    # of both fans exactly at -pi/2
    res = check_alternation(4, 0.0, 4)
    boundary = (res.ok
                and ray_set(4, 0.0, 4)[-1] == pytest.approx(
                    -math.pi / 2, abs=1e-12)
                and ray_set(3, 0.0, 4)[-1] == pytest.approx(
                    -math.pi / 2, abs=1e-12))
    dt = time.perf_counter() - t0
    ok = ok and boundary and dt < 5.0
    report("2 alternation", ok, f"2<=k<=n<=16 x 256 angles, {dt:.2f}s")


def test_criterion_3_stability_sufficiency(rng):
    t0 = time.perf_counter()
    failures = 0
    worst_endpoint = worst_residual = 0.0
    for _ in range(1000):
        g = sample_stable(rng)
        rec = charge_report(g)
        if graphical_existence(rec).value is not Existence.EXISTS:
            failures += 1
            continue
        try:
            curve = trace_solution(rec)
        except TraceError:
            failures += 1
            continue
        check = verify_solution(curve, rec)
        e_rel = check.endpoint_error / max(1.0, abs(g.p))
        zmax = max(abs(g.z1), abs(g.z2))
        r_rel = check.residual_max / (1.0 + zmax ** (g.n - 1))
        worst_endpoint = max(worst_endpoint, e_rel)
        worst_residual = max(worst_residual, r_rel)
        if e_rel > 1e-6 or r_rel > 1e-6:
            failures += 1
    dt = time.perf_counter() - t0
    ok = failures == 0 and dt < 60.0
    report("3 stability sufficiency", ok,
           f"1000 stable instances, worst endpoint {worst_endpoint:.2e}, "
           f"worst residual {worst_residual:.2e}, {dt:.2f}s")


def test_criterion_4_biconditional(rng):
    t0 = time.perf_counter()
    exceptions = 0
    knife_edge_only = True
    for _ in range(1000):
        g = random_geometry(rng)
        rec = charge_report(g)
        lift = sector_lift(rec)
        defined = isinstance(lift, LiftedAngle)
        margins = [abs(math.pi / g.n
                       - abs(math.atan2(g.p, g.a) - math.atan2(g.q, 1.0)))]
        predicted = False
        if defined:
            margin, _ = divisor_angle_bounds(rec, lift)
            margins.append(abs(margin))
            predicted = margin > EPS_ANGLE
        actual = False
        if graphical_existence(rec).value is Existence.EXISTS:
            try:
                check = verify_solution(trace_solution(rec), rec)
                actual = (check.endpoint_error
                          <= TOL_ENDPOINT * max(1.0, abs(g.p)))
            except TraceError:
                actual = False
        if predicted != actual:
            exceptions += 1
            if min(margins) >= 10 * EPS_ANGLE:
                knife_edge_only = False
    dt = time.perf_counter() - t0
    rate = exceptions / 1000.0
    ok = rate < 0.02 and knife_edge_only and dt < 120.0
    report("4 biconditional", ok,
           f"exception rate {rate:.3f}, knife-edge only {knife_edge_only}, "
           f"{dt:.2f}s")


def test_criterion_5_degenerate_example():
    g = degenerate_example()
    cancel = abs((g.a + 1j * g.p) ** 3 - (1 + 2j) ** 3)
    gs = scaled_example()
    hit = cxy_path_lift(charge_report(gs))
    origin_ok = isinstance(hit, OriginHit) and abs(hit.t_star - 0.5) <= 1e-6
    sector_undef = isinstance(sector_lift(charge_report(gs)), LiftUndefined)
    ok = cancel <= 1e-9 and origin_ok and sector_undef
    t_star = hit.t_star if isinstance(hit, OriginHit) else float("nan")
    report("5 degenerate example", ok,
           f"|cancellation| {cancel:.2e}, t* {t_star:.8f}, "
           f"sector lift undefined {sector_undef}")


def test_criterion_6_n2_lift_universality(rng):
    t0 = time.perf_counter()
    all_defined = all(
        lift_exists(charge_report(random_geometry(rng, n_lo=2, n_hi=2)))
        for _ in range(1000))
    dt = time.perf_counter() - t0
    report("6 n=2 lift universality", all_defined,
           f"1000 instances, {dt:.2f}s")


def test_criterion_7_exact_solution_recovery(rng):
    worst_f = worst_theta = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 13))
        a = float(rng.uniform(1.1, 8.0))
        lam = float(rng.uniform(-2.0, 2.0))
        g = collinear_geometry(n, a, lam)
        rec = charge_report(g)
        curve = trace_solution(rec)
        dev = float(np.max(np.abs(curve.f - lam * curve.x)))
        worst_f = max(worst_f, dev / max(1.0, abs(lam) * a))
        target = n * math.atan(lam)
        toff = float(np.max(np.abs([
            math.remainder(t - target, math.tau)
            for t in verify_solution(curve, rec).theta_pointwise])))
        worst_theta = max(worst_theta, toff)
    ok = worst_f <= 1e-8 and worst_theta <= 1e-8
    report("7 exact solution recovery", ok,
           f"worst f deviation {worst_f:.2e}, "
           f"worst angle deviation {worst_theta:.2e}")


def test_criterion_8_oracle_equivalence(rng):
    t0 = time.perf_counter()
    agree = 0
    knife_edge_only = True
    for _ in range(500):
        g = random_geometry(rng)
        rec = charge_report(g)
        res = same_component(rec)
        analytic = res.status == "same" or (
            res.status == "on_zero_level" and bool(res.same_ray))
        m = 1.3 * max(g.a, abs(g.p), abs(g.q), 1.0)
        w = Window(-m, m, -m, m)
        cs = extract_level_set(rec, w, 128)
        diag = cell_diag(w, 128)
        oracle = oracle_same_component(cs, (1.0, g.q), (g.a, g.p), diag)
        if oracle is not None and oracle == analytic:
            agree += 1
        else:
            # disagreement must be a grid knife edge: an endpoint within
            # two cells of a ray of the top fan
            rays = ray_set(g.n, rec.theta_hat, g.n)
            near = False
            for z in (g.z1, g.z2):
                arg = math.atan2(z.imag, z.real)
                gap = min(abs(arg - phi_r) for phi_r in rays)
                if gap * abs(z) <= 2.0 * diag:
                    near = True
            knife_edge_only = knife_edge_only and near
    dt = time.perf_counter() - t0
    rate = agree / 500.0
    ok = rate >= 0.99 and knife_edge_only
    report("8 oracle equivalence", ok,
           f"agreement {rate:.3f}, knife-edge only {knife_edge_only}, "
           f"{dt:.1f}s")


def test_criterion_9_figure_reproduction():
    # the level set of a generic nonzero value has one component per
    # matching-sign sector, 2n sectors in the full plane, so the window
    # spans both half planes to show all n components as in the paper's
    # n = 11 portrait
    g = Geometry(11, 2.0, 1.1, 0.4)
    window = Window(-3.0, 3.0, -3.0, 3.0)
    rec = charge_report(g)
    cs = extract_level_set(rec, window, 256)
    oracle_count = len(cs.polylines)
    svg = render_figure(rec, FigureSpec(window=window, samples=256))
    root = ET.fromstring(svg)
    svg_count = sum(1 for el in root.iter()
                    if el.tag.endswith("polyline")
                    and el.get("class") == "level")
    ok = oracle_count == 11 and svg_count == 11
    report("9 figure reproduction", ok,
           f"oracle components {oracle_count}, svg components {svg_count}")
