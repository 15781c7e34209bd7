import cmath
import math

import numpy as np
import pytest

from dhym.charges import (DegenerateGeometryError, Geometry, charge_report,
                          theta_hat)
from dhym.config import FigureSpec
from dhym.contour import Window, extract_level_set
from dhym.figure import render_figure
from dhym.levelcurve import (
    Existence,
    GraphicalPreconditionError,
    TraceError,
    graphical_existence,
    level_context,
    same_component,
    trace_solution,
    verify_solution,
)
from dhym.rays import ray_set
from dhym.tolerances import EPS_ANGLE, TOL_ENDPOINT, TOL_LEVEL

from conftest import (
    collinear_geometry,
    degenerate_example,
    phi,
    phi_gradient,
    random_geometry,
    sample_stable,
)


def _graphical(g):
    return graphical_existence(charge_report(g))


def test_phi_examples():
    # e^{-i pi/2} (x+iy)^2 has imaginary part y^2 - x^2
    assert phi(1.0, 1.0, 2, math.pi / 2) == pytest.approx(0.0, abs=1e-14)
    assert phi(2.0, 2.0, 2, math.pi / 2) == pytest.approx(0.0, abs=1e-14)
    assert phi(3.0, 1.0, 2, math.pi / 2) == pytest.approx(-8.0, abs=1e-12)
    for x in (0.5, 1.0, 4.0):
        assert phi(x, 0.0, 5, 0.0) == 0.0


def test_phi_gradient_matches_finite_differences(rng):
    for _ in range(1000):
        n = int(rng.integers(2, 13))
        th = float(rng.uniform(-math.pi, math.pi))
        x = float(rng.uniform(0.2, 4.0))
        y = float(rng.uniform(-4.0, 4.0))
        gx, gy = phi_gradient(x, y, n, th)
        h = 1e-6 * max(1.0, abs(x), abs(y))
        fx = (phi(x + h, y, n, th) - phi(x - h, y, n, th)) / (2 * h)
        fy = (phi(x, y + h, n, th) - phi(x, y - h, n, th)) / (2 * h)
        scale = max(1.0, math.hypot(x, y) ** (n - 1)) * n
        assert abs(gx - fx) <= 1e-6 * scale
        assert abs(gy - fy) <= 1e-6 * scale


def test_vertical_tangent_locus_is_next_ray_set(rng):
    # Phi_y vanishes on |z| = 1 exactly at the angles of the (n-1) ray set
    for _ in range(50):
        n = int(rng.integers(2, 13))
        th = float(rng.uniform(-math.pi, math.pi))
        for angle in ray_set(n - 1, th, n):
            _, gy = phi_gradient(math.cos(angle), math.sin(angle), n, th)
            assert abs(gy) <= 1e-10 * n


def test_level_context_endpoint_agreement(rng):
    for _ in range(200):
        g = random_geometry(rng)
        rep = charge_report(g)
        level_context(rep)  # raises TraceError when the two ends disagree
        c1 = phi(1.0, g.q, g.n, rep.theta_hat)
        c2 = phi(g.a, g.p, g.n, rep.theta_hat)
        assert abs(c1 - c2) <= 1e-9 * rep.scale
        # c is the value of the end nearer the origin, bit for bit
        assert rep.c == (c1 if abs(g.z1) <= abs(g.z2) else c2)


def test_level_context_rejects_disagreeing_ends(rng):
    # a record whose c is off by more than EPS_ZERO * scale at one end is
    # caught before the trace runs
    for _ in range(20):
        rep = charge_report(sample_stable(rng))
        bad = rep._replace(c=rep.c + 1e-6 * rep.scale)
        with pytest.raises(TraceError, match="disagree"):
            level_context(bad)
        with pytest.raises(TraceError, match="disagree"):
            trace_solution(bad, graphical_existence(bad))


def test_level_set_layers_raise_on_degenerate_record():
    # the gap rule decides the exactly degenerate record before anything
    # reads theta_hat; every layer that needs it raises
    rep = charge_report(degenerate_example())
    verdict = graphical_existence(rep)
    assert verdict.value is Existence.NOT_EXISTS
    assert verdict.reason == "sector_gap"
    assert verdict.margin == pytest.approx(math.pi / 3, abs=1e-12)
    good = charge_report(Geometry(2, 2.0, 2.0, 1.0))
    curve = trace_solution(good, graphical_existence(good))
    window = Window(-3.0, 3.0, -3.0, 3.0)
    for call in (lambda: level_context(rep),
                 lambda: same_component(rep),
                 lambda: trace_solution(rep, verdict),
                 lambda: verify_solution(curve, rep),
                 lambda: extract_level_set(rep, window, 64),
                 lambda: render_figure(rep, FigureSpec(window=window,
                                                       samples=64))):
        with pytest.raises(DegenerateGeometryError):
            call()


def test_same_component_zero_level_example():
    res = same_component(charge_report(Geometry(2, 2.0, 2.0, 1.0)))
    assert res.status == "on_zero_level"
    assert res.same_ray is True


def test_same_component_stable_instances(rng):
    for _ in range(100):
        g = sample_stable(rng)
        res = same_component(charge_report(g))
        assert res.status in ("same", "on_zero_level")
        if res.status == "on_zero_level":
            assert res.same_ray


def test_same_component_separated_sectors():
    # wide argument spread across many sectors of a fine ray fan: the gap
    # 2 is far above pi/12
    g = Geometry(12, 2.0, 2 * math.tan(1.0), math.tan(-1.0))
    assert same_component(charge_report(g)) == ("different", None)


def test_same_component_is_the_top_fan_rule():
    # off the zero level the ends share a component exactly when the verdict
    # is not sector_gap, away from the knife edge gap = pi/n; on it they
    # share a ray exactly when the gap is within EPS_ANGLE, which is when
    # z2 was built on the ray of z1 and not on the top ray m pi/n from it
    rng = np.random.default_rng(28)
    pool = [(random_geometry(rng, n_hi=40), None) for _ in range(3000)]
    for _ in range(300):
        n, m = int(rng.integers(2, 41)), int(rng.integers(0, 3))
        q = float(rng.uniform(-10.0, 10.0))
        z2 = (float(rng.uniform(1.5, 5.0)) * cmath.exp(1j * m * math.pi / n)
              * complex(1.0, q))
        if z2.real > 1.0:
            pool.append((Geometry(n, z2.real, z2.imag, q), m))
    seen = set()
    for g, m in pool:
        rep = charge_report(g)
        res = same_component(rep)
        gap = abs(rep.psi2 - rep.psi1)
        if res.status == "on_zero_level":
            assert res.same_ray == (gap <= EPS_ANGLE), g
            if m is not None:
                assert res.same_ray == (m == 0), g
        else:
            assert m is None and res.same_ray is None, g
            if abs(gap - math.pi / g.n) > EPS_ANGLE:
                sector_gap = graphical_existence(rep).reason == "sector_gap"
                assert (res.status == "different") == sector_gap, g
        seen.add(res)
    assert seen == {("same", None), ("different", None),
                    ("on_zero_level", True), ("on_zero_level", False)}


def test_graphical_existence_stable(rng):
    for _ in range(100):
        g = sample_stable(rng)
        assert _graphical(g).value is Existence.EXISTS


def test_graphical_existence_zero_level_linear():
    assert _graphical(Geometry(2, 2.0, 2.0, 1.0)).value is Existence.EXISTS


def test_graphical_existence_blocked_by_vertical_tangent():
    # the gap 0.98 is below pi/2, and the level-1 ray between the
    # endpoints turns the arc back in x
    res = _graphical(Geometry(2, 2.0, -3.0, 0.0))
    assert res.value is Existence.NOT_EXISTS
    assert res.reason == "divisor_bound_fails"
    # a gap wider than pi/n is decided before any ray count
    res = _graphical(Geometry(12, 2.0, 2 * math.tan(1.0), math.tan(-1.0)))
    assert res.value is Existence.NOT_EXISTS and res.reason == "sector_gap"


def test_graphical_existence_zero_level_needs_one_ray():
    # a record whose c reads zero while its endpoints lie off the top fan
    # is a deadband: on the zero level the trace seeds the common ray, and
    # there is none
    rep = charge_report(Geometry(4, 3.0, 1.0, 0.3))
    assert _graphical(rep.g).value is Existence.EXISTS
    res = graphical_existence(rep._replace(c=0.0))
    assert res.value is Existence.INCONCLUSIVE and res.reason == "deadband"
    assert res.margin > 0.1


def test_trace_requires_graphical_yes():
    rep = charge_report(Geometry(12, 2.0, 2 * math.tan(1.0), math.tan(-1.0)))
    with pytest.raises(GraphicalPreconditionError,
                       match=r"not_exists \(sector_gap\)"):
        trace_solution(rep, graphical_existence(rep))


def test_trace_linear_solution():
    g = Geometry(2, 2.0, 2.0, 1.0)
    rep = charge_report(g)
    curve = trace_solution(rep, graphical_existence(rep))
    assert np.max(np.abs(curve.f - curve.x)) <= 1e-8
    assert curve.x[0] == 1.0 and curve.x[-1] == 2.0
    assert curve.f[0] == g.q
    rep = verify_solution(curve, rep)
    assert rep.passed
    assert rep.theta_mean == pytest.approx(math.pi / 2, abs=1e-9)


def test_trace_zero_solution():
    g = Geometry(3, 2.0, 0.0, 0.0)
    rep = charge_report(g)
    curve = trace_solution(rep, graphical_existence(rep))
    assert np.max(np.abs(curve.f)) == 0.0
    rep = verify_solution(curve, rep)
    assert rep.passed
    assert rep.theta_mean == pytest.approx(0.0, abs=1e-12)


def test_trace_collinear_recovers_scaled_line(rng):
    for _ in range(20):
        n = int(rng.integers(2, 13))
        a = float(rng.uniform(1.1, 8.0))
        lam = float(rng.uniform(-2.0, 2.0))
        g = collinear_geometry(n, a, lam)
        rep = charge_report(g)
        curve = trace_solution(rep, graphical_existence(rep))
        assert np.max(np.abs(curve.f - lam * curve.x)) <= 1e-8 * max(
            1.0, abs(lam) * a)


@pytest.mark.filterwarnings("error")
def test_trace_stable_instances(rng):
    for _ in range(100):
        g = sample_stable(rng)
        rep = charge_report(g)
        curve = trace_solution(rep, graphical_existence(rep))
        assert curve.x.shape == (257,)
        assert np.all(np.diff(curve.x) > 0)
        rep = verify_solution(curve, rep)
        assert rep.endpoint_error <= 1e-6 * max(1.0, abs(g.p))
        zmax = max(abs(g.z1), abs(g.z2))
        # rep.passed implies this: each node's residual bound is
        # TOL_ENDPOINT * (1 + min(rcap, |z_j / x_j|^(n-1))), and its cap
        # rcap = max(|z1|, |z2| / a)^(n-1) is at most zmax^(n-1)
        assert rep.residual_max <= 1e-6 * (1.0 + zmax ** (g.n - 1))
        assert rep.passed, (g, rep)
        assert rep.theta_oscillation <= 1e-6


def test_trace_n2_nodes_are_exact_roots(rng):
    # for n = 2, Phi = c reads sin(th) y^2 + 2 x cos(th) y - (x^2 sin(th) + c)
    # = 0, with discriminant / 4 = x^2 + c sin(th); every node must sit on
    # the root of the traced branch to near full precision, which a polish
    # that stops at the level tolerance does not reach
    for _ in range(200):
        rep = charge_report(sample_stable(rng, n_lo=2, n_hi=2))
        curve = trace_solution(rep, graphical_existence(rep))
        x, s, co = curve.x, math.sin(rep.theta_hat), math.cos(rep.theta_hat)
        # the square root takes the sign of x cos(th), so the sum in t and
        # thus neither root formula cancels
        t = -(x * co + math.copysign(1.0, co) * np.sqrt(x * x + rep.c * s))
        with np.errstate(divide="ignore", invalid="ignore"):
            roots = (t / s, -(x * x * s + rep.c) / t)
        # the traced branch passes through (1, q)
        y = min(roots, key=lambda r: abs(r[0] - rep.g.q))
        err = np.abs(curve.f - y) / np.maximum(1.0, np.hypot(x, y))
        assert np.max(err) <= 1e-12, rep.g


def test_pointwise_angle_matches_average_angle(rng):
    for _ in range(50):
        g = sample_stable(rng)
        rep = charge_report(g)
        curve = trace_solution(rep, graphical_existence(rep))
        check = verify_solution(curve, rep)
        th, _ = theta_hat(g)
        off = math.remainder(float(check.theta_pointwise[0]) - th, math.tau)
        assert abs(off) <= 1e-6


def test_verify_rejects_perturbed_curve(rng):
    g = Geometry(2, 2.0, 2.0, 1.0)
    rep = charge_report(g)
    curve = trace_solution(rep, graphical_existence(rep))
    noisy = curve._replace(
        f=curve.f + 1e-2 * rng.standard_normal(curve.f.shape))
    rep = verify_solution(noisy, rep)
    assert not rep.passed
    assert rep.residual_ratio > TOL_ENDPOINT


def test_verify_rejects_off_level_samples(rng):
    # slopes recomputed at the noisy points keep the residual and the
    # pointwise angle consistent, so only the level of (x, f) shows the noise
    g = Geometry(2, 2.0, 2.0, 1.0)
    rep = charge_report(g)
    curve = trace_solution(rep, graphical_existence(rep))
    f = curve.f.copy()
    f[1:-1] *= 1.0 + 0.05 * rng.standard_normal(len(f) - 2)
    fp = np.array([-gx / gy for gx, gy in
                   (phi_gradient(x, y, g.n, rep.theta_hat) for x, y in zip(curve.x, f))])
    rep = verify_solution(curve._replace(f=f, f_prime=fp), rep)
    assert not rep.passed
    assert not rep.level_max <= TOL_LEVEL


def test_verify_bounds_each_node_by_its_own_scale():
    # |z2|/|z1| is about 10, so against the instance scale max(|z1|,|z2|)^n
    # an offset of 0.05 (3.7% of |q|) near z1 would hide in rounding noise;
    # the bound of each node is relative to max(1, |z_j|)^n
    g = Geometry(12, 9.182629479592398, -13.541372513311577,
                 -1.3384071406011395)
    rep = charge_report(g)
    curve = trace_solution(rep, graphical_existence(rep))
    assert verify_solution(curve, rep).passed
    f, fp = curve.f.copy(), curve.f_prime.copy()
    for j in range(1, 20):
        f[j] += 0.05
        gx, gy = phi_gradient(float(curve.x[j]), float(f[j]), g.n,
                              rep.theta_hat)
        fp[j] = -gx / gy
    check = verify_solution(curve._replace(f=f, f_prime=fp), rep)
    assert not check.passed
    assert not check.level_max <= TOL_LEVEL


def test_verify_bounds_each_residual_by_its_own_scale():
    # the residual is built from z/x, and |z/x| only runs from 1.67 to 1.78
    # while |z| grows tenfold; against 1e-6 * (1 + |z_j / x_j|^(n-1)) a slope
    # error of 1e-3 at either end is 560 times its node's bound, but only
    # 1.4e-8 of a bound set by the largest |z| on the curve, so the residual
    # check itself must reject the curve
    g = Geometry(12, 9.182629479592398, -13.541372513311577,
                 -1.3384071406011395)
    rep = charge_report(g)
    curve = trace_solution(rep, graphical_existence(rep))
    assert verify_solution(curve, rep).residual_ratio <= TOL_ENDPOINT
    for nodes in (slice(1, 20), slice(-20, -1)):
        fp = curve.f_prime.copy()
        fp[nodes] += 1e-3
        check = verify_solution(curve._replace(f_prime=fp), rep)
        assert not check.passed
        assert check.residual_ratio > 100 * TOL_ENDPOINT
