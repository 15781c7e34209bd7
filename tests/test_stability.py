import cmath
import math

import numpy as np
import pytest

from dhym.charges import Geometry, charge_report, degeneracy_check
from dhym.levelcurve import same_component
from dhym.lifting import LiftedAngle, LiftUndefined, sector_lift
from dhym.rays import Sign, _fan_angle
from dhym.stability import (
    Existence,
    KVerdict,
    Overall,
    divisor_angle_bounds,
    existence_verdict,
    stability_verdict,
    supercritical_check,
)
from dhym.tolerances import EPS_ANGLE

from conftest import (
    collinear_geometry,
    degenerate_example,
    float_degenerate_example,
    random_geometry,
    sample_stable,
    scaled_example,
)


def test_stability_verdict_positive_example():
    rep = stability_verdict(charge_report(Geometry(2, 2.0, 2.0, 1.0)))
    assert rep.overall is Overall.STABLE
    k1 = rep.per_k[1]
    assert k1.verdict is KVerdict.POSITIVE_STABLE
    assert k1.sign_h.value is Sign.POSITIVE
    assert k1.sign_e.value is Sign.POSITIVE


def test_stability_verdict_boundary_example():
    # p = q = 0 puts both points on a ray: inconclusive, yet a solution
    # exists, showing the criterion is sufficient but not necessary
    rep = stability_verdict(charge_report(Geometry(3, 2.0, 0.0, 0.0)))
    assert rep.overall is Overall.INCONCLUSIVE
    assert rep.per_k[1].verdict is KVerdict.INCONCLUSIVE
    v = existence_verdict(charge_report(Geometry(3, 2.0, 0.0, 0.0)))
    assert v.value is Existence.EXISTS


def test_collinear_classes_are_stable(rng):
    for _ in range(50):
        n = int(rng.integers(2, 13))
        a = float(rng.uniform(1.1, 8.0))
        lam = float(rng.uniform(0.1, 3.0))
        rep = stability_verdict(charge_report(collinear_geometry(n, a, lam)))
        assert rep.overall is Overall.STABLE


def test_supercritical_check():
    mk = lambda lifted: LiftedAngle(0, lifted, "sector_path", 1.0)
    assert supercritical_check(mk(math.pi / 2), 2)
    assert not supercritical_check(mk(0.0), 3)
    assert supercritical_check(mk(5 * math.pi / 2 - 1e-6), 5)
    assert not supercritical_check(mk(5 * math.pi / 2), 5)


def test_supercritical_stable_implies_all_positive(rng):
    checked = 0
    while checked < 200:
        g = random_geometry(rng)
        rec = charge_report(g)
        rep = stability_verdict(rec)
        if rep.overall is not Overall.STABLE:
            continue
        lift = sector_lift(rec)
        assert isinstance(lift, LiftedAngle)
        if not supercritical_check(lift, g.n):
            continue
        checked += 1
        for k, pk in rep.per_k.items():
            assert pk.verdict is KVerdict.POSITIVE_STABLE, (g, k)


def test_divisor_angle_bounds_examples():
    rec = charge_report(Geometry(2, 2.0, 2.0, 1.0))
    lift = sector_lift(rec)
    margin, _ = divisor_angle_bounds(rec, lift)
    assert margin > EPS_ANGLE
    # divisor angles pi/4 sit comfortably inside (0, pi)
    assert margin > 0.5

    rec = charge_report(Geometry(3, 2.0, 0.0, 0.0))
    margin, _ = divisor_angle_bounds(rec, sector_lift(rec))
    assert margin > EPS_ANGLE

    rec = charge_report(Geometry(2, 2.0, -3.0, 0.0))
    margin, _ = divisor_angle_bounds(rec, sector_lift(rec))
    assert margin < -EPS_ANGLE


def test_existence_exists_both_routes():
    rep = charge_report(Geometry(2, 2.0, 2.0, 1.0))
    v = existence_verdict(rep)
    assert v.value is Existence.EXISTS
    assert v.reason == "" and v.margin > EPS_ANGLE
    assert divisor_angle_bounds(rep, sector_lift(rep))[0] > EPS_ANGLE
    assert stability_verdict(rep).overall is Overall.STABLE


def test_existence_not_exists():
    v = existence_verdict(charge_report(Geometry(2, 2.0, -3.0, 0.0)))
    assert v.value is Existence.NOT_EXISTS
    assert v.reason == "divisor_bound_fails" and v.margin > EPS_ANGLE


def test_existence_degenerate():
    # zeta = 0 exactly puts z2 = w z1 with w^3 = 1, a gap of 2 pi/3: the gap
    # rule decides before degeneracy, with an excess of pi/3
    rep = charge_report(degenerate_example())
    v = existence_verdict(rep)
    assert rep.degenerate
    assert v.value is Existence.NOT_EXISTS and v.reason == "sector_gap"
    assert v.margin == pytest.approx(math.pi / 3, abs=1e-12)
    # only a record degenerate in floats with z2 ~ z1 gets past the gap
    for n in (2, 5):
        rep = charge_report(float_degenerate_example(n))
        assert rep.degenerate and degeneracy_check(rep) == 0
        assert abs(rep.psi2 - rep.psi1) < 1e-11
        v = existence_verdict(rep)
        assert v.value is Existence.INCONCLUSIVE
        assert v.reason == "degenerate" and v.margin is None
    # z2 = w z1 with w = e^(2 pi i m / n), 0 < m < n, makes zeta vanish, and
    # the gap 2 pi min(m, n - m) / n exceeds pi/n by at least pi/n
    rng = np.random.default_rng(27)
    checked = 0
    while checked < 500:
        n = int(rng.integers(2, 17))
        m = int(rng.integers(1, n))
        q = float(rng.uniform(-10.0, 10.0))
        z2 = cmath.exp(2j * math.pi * m / n) * complex(1.0, q)
        if not z2.real > 1.0:
            continue
        rep = charge_report(Geometry(n, z2.real, z2.imag, q))
        v = existence_verdict(rep)
        assert rep.degenerate, rep.g
        assert v.value is Existence.NOT_EXISTS, rep.g
        assert v.reason == "sector_gap"
        assert v.margin >= math.pi / n - 1e-9, rep.g
        checked += 1


def test_existence_not_exists_when_no_path_lifts():
    # neither lift is defined (criterion 5), and the gap 2.58 exceeds
    # pi/3 by 1.53: two top-fan rays lie between the endpoints
    rep = charge_report(scaled_example())
    v = existence_verdict(rep)
    assert v.value is Existence.NOT_EXISTS and v.reason == "sector_gap"
    assert v.margin == abs(rep.psi2 - rep.psi1) - math.pi / 3
    assert v.margin == pytest.approx(1.53, abs=0.01)
    assert isinstance(sector_lift(rep), LiftUndefined)
    assert same_component(rep) == ("different", None)


def test_stable_implies_exists(rng):
    for _ in range(200):
        g = sample_stable(rng)
        v = existence_verdict(charge_report(g))
        assert v.value is Existence.EXISTS, g


def test_stability_verdict_rejects_degenerate():
    with pytest.raises(Exception):
        stability_verdict(charge_report(degenerate_example()))


def test_certificates_agree_with_verdict_off_knife_edges():
    # away from the deadbands the divisor bound's sign is the verdict, and
    # a stable record exists; existence_verdict's docstring proves both
    rng = np.random.default_rng(21)
    divisor_checked = stable_checked = 0
    for _ in range(2000):
        rep = charge_report(random_geometry(rng, n_hi=16))
        v = existence_verdict(rep)
        lift = sector_lift(rep)
        if isinstance(lift, LiftedAngle):
            margin, _ = divisor_angle_bounds(rep, lift)
            if abs(margin) >= 10 * EPS_ANGLE:
                divisor_checked += 1
                assert (margin > 0) == (v.value is Existence.EXISTS), rep.g
        stab = stability_verdict(rep)
        if stab.overall is Overall.STABLE and all(
                min(pk.sign_h.margin, pk.sign_e.margin) >= 10 * EPS_ANGLE
                for pk in stab.per_k.values()):
            stable_checked += 1
            assert v.value is Existence.EXISTS, rep.g
    assert divisor_checked > 300 and stable_checked > 50


@pytest.mark.parametrize("steps,decided", [
    (0.0, False), (0.5, False), (-0.5, False), (0.9, False), (-0.9, False),
    (100.0, True), (-100.0, True)])
def test_gap_deadband(steps, decided):
    # endpoints built with gap = pi/n + delta, delta = steps * EPS_ANGLE:
    # within EPS_ANGLE of pi/n the verdict is a deadband; outside it, the
    # gap rule decides above pi/n and the level-(n-1) ray count below it
    delta = steps * EPS_ANGLE
    rng = np.random.default_rng(22)
    for _ in range(50):
        n = int(rng.integers(2, 17))
        psi1 = float(rng.uniform(-1.2, 1.2 - math.pi / n))
        a = float(rng.uniform(1.5, 10.0))
        rep = charge_report(Geometry(n, a, a * math.tan(psi1 + math.pi / n
                                                        + delta),
                                     math.tan(psi1)))
        gap = rep.psi2 - rep.psi1
        assert abs(gap - math.pi / n - delta) <= 1e-14
        v = existence_verdict(rep)
        if not decided:
            assert v.value is Existence.INCONCLUSIVE, rep.g
            assert v.reason == "deadband" and v.margin <= EPS_ANGLE
        elif delta > 0:
            assert v.value is Existence.NOT_EXISTS, rep.g
            assert v.reason == "sector_gap"
            assert v.margin == pytest.approx(delta, rel=1e-5)
        else:
            # the endpoints sit near the two top-fan rays that bound their
            # sector, so the one level-(n-1) ray inside it (the fans
            # interleave) lies between them: one multiple of pi strictly
            # between the level-(n-1) fan angles of the ends
            lo, hi = (_fan_angle(psi, n - 1, rep.theta_hat, n) / math.pi
                      for psi in (rep.psi1, rep.psi2))
            assert math.ceil(hi) - math.floor(lo) - 1 == 1
            assert v.value is Existence.NOT_EXISTS, rep.g
            assert v.reason == "divisor_bound_fails" and v.margin > EPS_ANGLE
