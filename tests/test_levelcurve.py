import math

import numpy as np
import pytest

from dhym.charges import Geometry, charge_report, theta_hat
from dhym.levelcurve import (
    GraphicalPreconditionError,
    LevelSetContext,
    graphical_existence,
    level_context,
    same_component,
    trace_solution,
    verify_solution,
)
from dhym.rays import ray_set
from dhym.tolerances import TOL_ENDPOINT, TOL_LEVEL

from conftest import (
    collinear_geometry,
    phi,
    phi_gradient,
    random_geometry,
    sample_stable,
)


def _record(g):
    """The angle record of g and its level-set context."""
    rep = charge_report(g)
    return rep, level_context(rep)


def _graphical(g):
    rep, ctx = _record(g)
    return graphical_existence(rep, same_component(rep, ctx))


def test_phi_examples():
    ctx = LevelSetContext(n=2, theta_hat=math.pi / 2, c=0.0, scale=1.0)
    # e^{-i pi/2} (x+iy)^2 has imaginary part y^2 - x^2
    assert phi(1.0, 1.0, ctx) == pytest.approx(0.0, abs=1e-14)
    assert phi(2.0, 2.0, ctx) == pytest.approx(0.0, abs=1e-14)
    assert phi(3.0, 1.0, ctx) == pytest.approx(-8.0, abs=1e-12)
    ctx0 = LevelSetContext(n=5, theta_hat=0.0, c=0.0, scale=1.0)
    for x in (0.5, 1.0, 4.0):
        assert phi(x, 0.0, ctx0) == 0.0


def test_phi_gradient_matches_finite_differences(rng):
    for _ in range(1000):
        n = int(rng.integers(2, 13))
        th = float(rng.uniform(-math.pi, math.pi))
        ctx = LevelSetContext(n=n, theta_hat=th, c=0.0, scale=1.0)
        x = float(rng.uniform(0.2, 4.0))
        y = float(rng.uniform(-4.0, 4.0))
        gx, gy = phi_gradient(x, y, ctx)
        h = 1e-6 * max(1.0, abs(x), abs(y))
        fx = (phi(x + h, y, ctx) - phi(x - h, y, ctx)) / (2 * h)
        fy = (phi(x, y + h, ctx) - phi(x, y - h, ctx)) / (2 * h)
        scale = max(1.0, math.hypot(x, y) ** (n - 1)) * n
        assert abs(gx - fx) <= 1e-6 * scale
        assert abs(gy - fy) <= 1e-6 * scale


def test_vertical_tangent_locus_is_next_ray_set(rng):
    # Phi_y vanishes on |z| = 1 exactly at the angles of the (n-1) ray set
    for _ in range(50):
        n = int(rng.integers(2, 13))
        th = float(rng.uniform(-math.pi, math.pi))
        ctx = LevelSetContext(n=n, theta_hat=th, c=0.0, scale=1.0)
        for angle in ray_set(n - 1, th, n):
            _, gy = phi_gradient(math.cos(angle), math.sin(angle), ctx)
            assert abs(gy) <= 1e-10 * n


def test_level_context_endpoint_agreement(rng):
    for _ in range(200):
        g = random_geometry(rng)
        ctx = level_context(charge_report(g))
        c1 = phi(1.0, g.q, ctx)
        c2 = phi(g.a, g.p, ctx)
        assert abs(c1 - c2) <= 1e-9 * ctx.scale
        assert ctx.c == pytest.approx(c1, abs=1e-9 * ctx.scale)


def test_same_component_zero_level_example():
    res = same_component(*_record(Geometry(2, 2.0, 2.0, 1.0)))
    assert res.status == "on_zero_level"
    assert res.same_ray is True


def test_same_component_stable_instances(rng):
    for _ in range(100):
        g = sample_stable(rng)
        res = same_component(*_record(g))
        assert res.status in ("same", "on_zero_level")
        if res.status == "on_zero_level":
            assert res.same_ray


def test_same_component_separated_sectors():
    # wide argument spread across many sectors of a fine ray fan
    g = Geometry(12, 2.0, 2 * math.tan(1.0), math.tan(-1.0))
    res = same_component(*_record(g))
    assert res.status == "different"
    assert res.rays_between >= 2


def test_graphical_existence_stable(rng):
    for _ in range(100):
        g = sample_stable(rng)
        assert _graphical(g).yes


def test_graphical_existence_zero_level_linear():
    assert _graphical(Geometry(2, 2.0, 2.0, 1.0)).yes


def test_graphical_existence_blocked_by_vertical_tangent():
    g = Geometry(12, 2.0, 2 * math.tan(1.0), math.tan(-1.0))
    res = _graphical(g)
    assert not res.yes
    assert res.reason


def test_trace_requires_graphical_yes():
    g = Geometry(12, 2.0, 2 * math.tan(1.0), math.tan(-1.0))
    with pytest.raises(GraphicalPreconditionError):
        trace_solution(*_record(g))


def test_trace_linear_solution():
    g = Geometry(2, 2.0, 2.0, 1.0)
    rep, ctx = _record(g)
    curve = trace_solution(rep, ctx)
    assert np.max(np.abs(curve.f - curve.x)) <= 1e-8
    assert curve.x[0] == 1.0 and curve.x[-1] == 2.0
    assert curve.f[0] == g.q
    rep = verify_solution(curve, rep, ctx)
    assert rep.passed
    assert rep.theta_mean == pytest.approx(math.pi / 2, abs=1e-9)


def test_trace_zero_solution():
    g = Geometry(3, 2.0, 0.0, 0.0)
    rep, ctx = _record(g)
    curve = trace_solution(rep, ctx)
    assert np.max(np.abs(curve.f)) == 0.0
    rep = verify_solution(curve, rep, ctx)
    assert rep.passed
    assert rep.theta_mean == pytest.approx(0.0, abs=1e-12)


def test_trace_collinear_recovers_scaled_line(rng):
    for _ in range(20):
        n = int(rng.integers(2, 13))
        a = float(rng.uniform(1.1, 8.0))
        lam = float(rng.uniform(-2.0, 2.0))
        g = collinear_geometry(n, a, lam)
        curve = trace_solution(*_record(g))
        assert np.max(np.abs(curve.f - lam * curve.x)) <= 1e-8 * max(
            1.0, abs(lam) * a)


@pytest.mark.filterwarnings("error")
def test_trace_stable_instances(rng):
    for _ in range(100):
        g = sample_stable(rng)
        rep, ctx = _record(g)
        curve = trace_solution(rep, ctx)
        assert curve.x.shape == (257,)
        assert np.all(np.diff(curve.x) > 0)
        rep = verify_solution(curve, rep, ctx)
        assert rep.endpoint_error <= 1e-6 * max(1.0, abs(g.p))
        zmax = max(abs(g.z1), abs(g.z2))
        assert rep.residual_max <= 1e-6 * (1.0 + zmax ** (g.n - 1))
        assert rep.passed, (g, rep)
        assert rep.theta_oscillation <= 1e-6


def test_pointwise_angle_matches_average_angle(rng):
    for _ in range(50):
        g = sample_stable(rng)
        rep, ctx = _record(g)
        check = verify_solution(trace_solution(rep, ctx), rep, ctx)
        th, _ = theta_hat(g)
        off = math.remainder(float(check.theta_pointwise[0]) - th, math.tau)
        assert abs(off) <= 1e-6


def test_verify_rejects_perturbed_curve(rng):
    g = Geometry(2, 2.0, 2.0, 1.0)
    rep, ctx = _record(g)
    curve = trace_solution(rep, ctx)
    noisy = curve._replace(
        f=curve.f + 1e-2 * rng.standard_normal(curve.f.shape))
    rep = verify_solution(noisy, rep, ctx)
    assert not rep.passed
    assert rep.residual_ratio > TOL_ENDPOINT


def test_verify_rejects_off_level_samples(rng):
    # slopes recomputed at the noisy points keep the residual and the
    # pointwise angle consistent, so only the level of (x, f) shows the noise
    g = Geometry(2, 2.0, 2.0, 1.0)
    rep, ctx = _record(g)
    curve = trace_solution(rep, ctx)
    f = curve.f.copy()
    f[1:-1] *= 1.0 + 0.05 * rng.standard_normal(len(f) - 2)
    fp = np.array([-gx / gy for gx, gy in
                   (phi_gradient(x, y, ctx) for x, y in zip(curve.x, f))])
    rep = verify_solution(curve._replace(f=f, f_prime=fp), rep, ctx)
    assert not rep.passed
    assert not rep.level_max <= TOL_LEVEL


def test_verify_bounds_each_node_by_its_own_scale():
    # |z2|/|z1| is about 10, so against the instance scale max(|z1|,|z2|)^n
    # an offset of 0.05 (3.7% of |q|) near z1 would hide in rounding noise;
    # the bound of each node is relative to max(1, |z_j|)^n
    g = Geometry(12, 9.182629479592398, -13.541372513311577,
                 -1.3384071406011395)
    rep, ctx = _record(g)
    curve = trace_solution(rep, ctx)
    assert verify_solution(curve, rep, ctx).passed
    f, fp = curve.f.copy(), curve.f_prime.copy()
    for j in range(1, 20):
        f[j] += 0.05
        gx, gy = phi_gradient(float(curve.x[j]), float(f[j]), ctx)
        fp[j] = -gx / gy
    check = verify_solution(curve._replace(f=f, f_prime=fp), rep, ctx)
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
    rep, ctx = _record(g)
    curve = trace_solution(rep, ctx)
    assert verify_solution(curve, rep, ctx).residual_ratio <= TOL_ENDPOINT
    for nodes in (slice(1, 20), slice(-20, -1)):
        fp = curve.f_prime.copy()
        fp[nodes] += 1e-3
        check = verify_solution(curve._replace(f_prime=fp), rep, ctx)
        assert not check.passed
        assert check.residual_ratio > 100 * TOL_ENDPOINT
