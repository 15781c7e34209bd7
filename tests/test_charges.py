import cmath
import math

import numpy as np
import pytest

from dhym.charges import (
    DegenerateGeometryError,
    Geometry,
    InvalidGeometryError,
    SubvarietyClass,
    SubvarietyKind,
    all_subvariety_classes,
    central_charge,
    charge_report,
    cpow,
    degeneracy_check,
    principal_angle,
    theta_hat,
    zeta,
)

from conftest import degenerate_example, random_geometry


def binomial_zeta(g):
    """Independent evaluation of (a+ip)^n - (1+iq)^n via binomial sums."""
    total = 0j
    for j in range(g.n + 1):
        coef = math.comb(g.n, j)
        total += coef * (g.a ** (g.n - j)) * (1j * g.p) ** j
        total -= coef * (1j * g.q) ** j
    return total


def test_principal_angle_branch():
    assert principal_angle(0.0) == 0.0
    assert principal_angle(math.pi) == -math.pi
    assert principal_angle(-math.pi) == -math.pi
    assert principal_angle(3 * math.pi) == -math.pi
    assert principal_angle(0.5) == pytest.approx(0.5, abs=1e-15)
    assert principal_angle(2 * math.pi + 0.5) == pytest.approx(0.5, abs=1e-14)
    for t in np.linspace(-20, 20, 401):
        r = principal_angle(float(t))
        assert -math.pi <= r < math.pi


def test_cpow_matches_builtin():
    rng = np.random.default_rng(0)
    for _ in range(200):
        z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        if abs(z) < 1e-6:
            continue
        k = int(rng.integers(1, 16))
        ref = z ** k
        assert cpow(z, k) == pytest.approx(ref, rel=1e-12)


def test_geometry_validation():
    with pytest.raises(InvalidGeometryError):
        Geometry(1, 2.0, 0.0, 0.0)
    with pytest.raises(InvalidGeometryError):
        Geometry(3, 1.0, 0.0, 0.0)
    with pytest.raises(InvalidGeometryError):
        Geometry(3, 2.0, math.inf, 0.0)
    g = Geometry(2, 2.0, 2.0, 1.0)
    assert g.z1 == 1 + 1j
    assert g.z2 == 2 + 2j


def test_zeta_examples():
    assert zeta(Geometry(2, 2.0, 2.0, 1.0)) == pytest.approx(6j, abs=1e-12)
    assert zeta(Geometry(3, 2.0, 0.0, 0.0)) == pytest.approx(7.0, abs=1e-12)
    assert abs(zeta(degenerate_example())) <= 1e-9


def test_zeta_matches_binomial_expansion(rng):
    for _ in range(10_000):
        g = random_geometry(rng)
        z = zeta(g)
        ref = binomial_zeta(g)
        scale = max(abs(z), abs(ref), 1e-300)
        assert abs(z - ref) <= 1e-12 * scale


def test_theta_hat_examples():
    th, r = theta_hat(Geometry(2, 2.0, 2.0, 1.0))
    assert th == pytest.approx(math.pi / 2, abs=1e-12)
    assert r == pytest.approx(6.0, abs=1e-12)
    th, r = theta_hat(Geometry(3, 2.0, 0.0, 0.0))
    assert th == 0.0
    assert r == pytest.approx(7.0, abs=1e-12)
    with pytest.raises(DegenerateGeometryError):
        theta_hat(degenerate_example())


def test_theta_hat_reconstructs_zeta(rng):
    for _ in range(500):
        g = random_geometry(rng)
        th, r = theta_hat(g)
        assert r * cmath.exp(1j * th) == pytest.approx(zeta(g), rel=1e-12)


def test_central_charge_examples():
    g = Geometry(2, 2.0, 2.0, 1.0)
    rep = charge_report(g)
    h1 = SubvarietyClass(SubvarietyKind.HYPERPLANE_POWER, 1)
    e1 = SubvarietyClass(SubvarietyKind.EXCEPTIONAL_POWER, 1)
    assert central_charge(rep, h1) == pytest.approx(-2 + 2j, abs=1e-12)
    assert central_charge(rep, e1) == pytest.approx(-1 + 1j, abs=1e-12)
    full = SubvarietyClass(SubvarietyKind.FULL_SPACE, 2)
    inv_i_n = (-1j) ** g.n
    assert central_charge(rep, full) == pytest.approx(-inv_i_n * zeta(g), rel=1e-12)


def test_central_charge_dimension_range():
    rep = charge_report(Geometry(3, 2.0, 1.0, 0.5))
    with pytest.raises(ValueError):
        central_charge(rep, SubvarietyClass(SubvarietyKind.HYPERPLANE_POWER, 3))
    with pytest.raises(ValueError):
        central_charge(rep, SubvarietyClass(SubvarietyKind.EXCEPTIONAL_POWER, 0))


def test_central_charge_sign_consistency(rng):
    # the stability quotient reduces to Im(i^{n-k} e^{-i theta} z_l^k);
    # the raw charge form Im(-i^n e^{-i theta} Z(V)) must agree in sign
    for _ in range(300):
        g = random_geometry(rng)
        rep = charge_report(g)
        th, _ = theta_hat(g)
        w = cmath.exp(-1j * th)
        for k in range(1, g.n):
            for kind, zl in ((SubvarietyKind.HYPERPLANE_POWER, g.z2),
                             (SubvarietyKind.EXCEPTIONAL_POWER, g.z1)):
                zv = central_charge(rep, SubvarietyClass(kind, k))
                raw = (-(1j ** g.n) * w * zv).imag
                red = ((1j ** (g.n - k)) * w * cpow(zl, k)).imag
                if abs(red) > 1e-9 * max(1.0, abs(zl) ** k):
                    assert raw * red > 0


def test_degeneracy_check():
    assert degeneracy_check(charge_report(degenerate_example())) == 1
    assert degeneracy_check(charge_report(Geometry(2, 2.0, 2.0, 1.0))) is None
    assert degeneracy_check(charge_report(Geometry(3, 2.0, 0.0, 0.0))) is None
    assert charge_report(degenerate_example()).degenerate


def test_all_subvariety_classes():
    classes = all_subvariety_classes(4)
    # one full-space class plus H and E powers for each k in 1..n-1
    assert len(classes) == 1 + 2 * 3
    kinds = [c.kind for c in classes]
    assert kinds.count(SubvarietyKind.FULL_SPACE) == 1


def test_charge_report_consistency():
    rep = charge_report(Geometry(2, 2.0, 2.0, 1.0))
    assert not rep.degenerate
    assert rep.zeta == pytest.approx(6j, abs=1e-12)
    assert rep.theta_hat == pytest.approx(math.pi / 2, abs=1e-12)
    assert rep.r_x == pytest.approx(6.0, abs=1e-12)
    assert len(rep.charges) == 3

    rep = charge_report(degenerate_example())
    assert rep.degenerate
