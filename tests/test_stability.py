import math

import pytest

from dhym.charges import Geometry, charge_report
from dhym.lifting import LiftedAngle, sector_lift
from dhym.rays import Sign
from dhym.stability import (
    BoundsStatus,
    Existence,
    KVerdict,
    Overall,
    Route,
    divisor_angle_bounds,
    existence_verdict,
    stability_verdict,
    supercritical_check,
)

from conftest import (
    collinear_geometry,
    degenerate_example,
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
    assert v.route is Route.THEOREM_BICONDITIONAL


def test_collinear_classes_are_stable(rng):
    for _ in range(50):
        n = int(rng.integers(2, 13))
        a = float(rng.uniform(1.1, 8.0))
        lam = float(rng.uniform(0.1, 3.0))
        rep = stability_verdict(charge_report(collinear_geometry(n, a, lam)))
        assert rep.overall is Overall.STABLE


def test_supercritical_check():
    mk = lambda lifted: LiftedAngle(0.0, 0, lifted, "sector_path", 1.0)
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
    chk = divisor_angle_bounds(rec, lift)
    assert chk.status is BoundsStatus.OK
    # divisor angles pi/4 sit comfortably inside (0, pi)
    assert chk.margin > 0.5

    rec = charge_report(Geometry(3, 2.0, 0.0, 0.0))
    chk = divisor_angle_bounds(rec, sector_lift(rec))
    assert chk.status is BoundsStatus.OK

    rec = charge_report(Geometry(2, 2.0, -3.0, 0.0))
    chk = divisor_angle_bounds(rec, sector_lift(rec))
    assert chk.status is BoundsStatus.FAIL


def test_existence_exists_both_routes():
    v = existence_verdict(charge_report(Geometry(2, 2.0, 2.0, 1.0)))
    assert v.value is Existence.EXISTS
    assert v.notes["also_certified_by_stability"] is True


def test_existence_not_exists():
    v = existence_verdict(charge_report(Geometry(2, 2.0, -3.0, 0.0)))
    assert v.value is Existence.NOT_EXISTS
    assert v.route is Route.THEOREM_BICONDITIONAL


def test_existence_degenerate():
    v = existence_verdict(charge_report(degenerate_example()))
    assert v.value is Existence.INCONCLUSIVE
    assert v.route is Route.DEGENERATE


def test_existence_inconclusive_when_no_path_lifts():
    v = existence_verdict(charge_report(scaled_example()))
    assert v.value is Existence.INCONCLUSIVE
    assert "lift" in str(v.notes).lower()


def test_stable_implies_exists(rng):
    for _ in range(200):
        g = sample_stable(rng)
        v = existence_verdict(charge_report(g))
        assert v.value is Existence.EXISTS, g


def test_stability_verdict_rejects_degenerate():
    with pytest.raises(Exception):
        stability_verdict(charge_report(degenerate_example()))
