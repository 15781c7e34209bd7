import math

import numpy as np
import pytest

from dhym.charges import Geometry, charge_report, theta_hat
from dhym.lifting import (
    LiftUndefined,
    LiftedAngle,
    OriginHit,
    cxy_path_lift,
    sector_lift,
)

from conftest import lift_exists, random_geometry, sample_stable, scaled_example


def _unwrapped_final(path):
    """Oracle: continuous argument at the end of a densely sampled path that
    starts on the positive real axis, via numpy's unwrap."""
    args = np.unwrap(np.angle(path))
    assert abs(args[0]) < 1e-12
    assert np.max(np.abs(np.diff(args))) < math.pi / 4, "sampling too coarse"
    return float(args[-1])


_T = np.linspace(0.0, 1.0, 20_001)


def test_volume_path_matches_unwrap_oracle(rng):
    for n in range(2, 65):
        for _ in range(3):
            g = random_geometry(rng, n_lo=n, n_hi=n)
            lift = cxy_path_lift(charge_report(g))
            # fixed sampling cannot unwrap a path that skims the origin
            if not isinstance(lift, LiftedAngle) or lift.margin < 1e-2:
                continue
            final = _unwrapped_final((g.a + 1j * _T * g.p) ** n
                                     - (1.0 + 1j * _T * g.q) ** n)
            assert lift.lifted == pytest.approx(final, abs=1e-6), g


def test_sector_path_matches_unwrap_oracle(rng):
    for n in range(2, 65):
        g = sample_stable(rng, n_lo=n, n_hi=n)
        lift = sector_lift(charge_report(g))
        assert isinstance(lift, LiftedAngle)
        psi1, psi2 = math.atan(g.q), math.atan2(g.p, g.a)
        final = _unwrapped_final((g.a + 1j * g.a * np.tan(_T * psi2)) ** n
                                 - (1.0 + 1j * np.tan(_T * psi1)) ** n)
        assert lift.lifted == pytest.approx(final, abs=1e-6), g


def test_cxy_lift_examples():
    lift = cxy_path_lift(charge_report(Geometry(2, 2.0, 2.0, 1.0)))
    assert isinstance(lift, LiftedAngle)
    assert lift.winding == 0
    assert lift.lifted == pytest.approx(math.pi / 2, abs=1e-12)

    lift = cxy_path_lift(charge_report(Geometry(5, 3.0, 0.0, 0.0)))
    assert isinstance(lift, LiftedAngle)
    assert lift.lifted == 0.0
    assert lift.winding == 0


def test_cxy_lift_origin_hit():
    hit = cxy_path_lift(charge_report(scaled_example()))
    assert isinstance(hit, OriginHit)
    assert hit.t_star == pytest.approx(0.5, abs=1e-6)


def test_sector_lift_examples():
    lift = sector_lift(charge_report(Geometry(2, 2.0, 2.0, 1.0)))
    assert isinstance(lift, LiftedAngle)
    assert lift.winding == 0
    assert lift.lifted == pytest.approx(math.pi / 2, abs=1e-12)

    lift = sector_lift(charge_report(Geometry(5, 3.0, 0.0, 0.0)))
    assert isinstance(lift, LiftedAngle)
    assert lift.lifted == 0.0


def test_sector_lift_undefined_when_gap_too_wide():
    g = scaled_example()
    gap = abs(math.atan2(g.p, g.a) - math.atan2(g.q, 1.0))
    assert gap == pytest.approx(2.58, abs=0.01)
    assert gap > math.pi / g.n
    res = sector_lift(charge_report(g))
    assert isinstance(res, LiftUndefined)
    assert not lift_exists(charge_report(g))


def test_lifts_agree_when_both_defined(rng):
    checked = 0
    while checked < 200:
        g = random_geometry(rng)
        s = sector_lift(charge_report(g))
        if not isinstance(s, LiftedAngle):
            continue
        c = cxy_path_lift(charge_report(g))
        if not isinstance(c, LiftedAngle):
            continue
        checked += 1
        assert s.winding == c.winding
        assert s.lifted == pytest.approx(c.lifted, abs=1e-9)
        assert -g.n * math.pi / 2 < s.lifted < g.n * math.pi / 2


def test_lift_matches_principal_angle(rng):
    for _ in range(100):
        g = random_geometry(rng)
        s = sector_lift(charge_report(g))
        if not isinstance(s, LiftedAngle):
            continue
        th, _ = theta_hat(g)
        assert s.theta_principal == pytest.approx(th, abs=1e-12)
        assert s.lifted == pytest.approx(th + math.tau * s.winding, abs=1e-12)


def test_stable_instances_always_lift(rng):
    for _ in range(100):
        g = sample_stable(rng)
        assert lift_exists(charge_report(g))


def test_n2_always_lifts(rng):
    for _ in range(200):
        g = random_geometry(rng, n_lo=2, n_hi=2)
        assert lift_exists(charge_report(g))


def _numpy_volume_lift(rep):
    """Reference volume-path lift with the per-root angles as numpy arrays:
    (OriginHit, t_star) or (LiftedAngle, winding, lifted, margin)."""
    g = rep.g
    w = np.exp(2j * np.pi * np.arange(g.n) / g.n)
    alpha = g.a - w
    subtended = np.angle((g.z2 - w * g.z1) / alpha)
    slack = math.pi - np.abs(subtended)
    j = int(np.argmin(slack))
    if slack[j] <= rep.tol.eps_angle:
        beta = 1j * (g.p - w[j] * g.q)
        return OriginHit, float(-(alpha[j] * beta.conjugate()).real / abs(beta) ** 2)
    th = rep.angle()
    winding = round((float(subtended.sum()) - th) / math.tau)
    return LiftedAngle, winding, th + math.tau * winding, float(slack[j])


def test_volume_path_matches_numpy_reference(rng):
    g0 = scaled_example()
    pool = [random_geometry(rng, n_hi=64) for _ in range(400)]
    pool += [Geometry(g0.n, g0.a, g0.p + d, g0.q) for d in (0.0, 1e-10, -1e-9)]
    hits = 0
    for g in pool:
        rep = charge_report(g)
        kind, *want = _numpy_volume_lift(rep)
        got = cxy_path_lift(rep)
        assert type(got) is kind, g
        if kind is OriginHit:
            hits += 1
            assert got.t_star == want[0], g
        else:
            assert (got.winding, got.lifted) == tuple(want[:2]), g
            assert got.margin == pytest.approx(want[2], abs=1e-12), g
    assert hits == 3
