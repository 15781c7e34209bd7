import cmath
import math

import numpy as np
import pytest

from dhym.charges import (
    DegenerateGeometryError,
    Geometry,
    InvalidGeometryError,
    central_charges,
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
    # a copy is validated like a new instance
    assert type(g._replace(p=3.0)) is Geometry
    assert g._replace(p=3.0) == Geometry(2, 2.0, 3.0, 1.0)
    with pytest.raises(InvalidGeometryError):
        g._replace(a=1.0)


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
    charges = central_charges(charge_report(g))
    assert charges["H:dim1"] == pytest.approx(-2 + 2j, abs=1e-12)
    assert charges["E:dim1"] == pytest.approx(-1 + 1j, abs=1e-12)
    inv_i_n = (-1j) ** g.n
    assert charges["X"] == pytest.approx(-inv_i_n * zeta(g), rel=1e-12)


def test_all_subvariety_classes():
    # every cycle class has a charge: X, plus the H and E powers of every
    # dimension k in 1..n-1
    for n in (2, 3, 4, 7):
        charges = central_charges(charge_report(Geometry(n, 2.0, 1.0, 0.5)))
        assert set(charges) == ({"X"} | {f"H:dim{k}" for k in range(1, n)}
                                | {f"E:dim{k}" for k in range(1, n)})


def test_central_charge_dimension_range():
    # dimensions 0 and n are not proper cycles and get no charge; each k in
    # 1..n-1 gets -i^(-k) z^k of its own k
    g = Geometry(3, 2.0, 1.0, 0.5)
    charges = central_charges(charge_report(g))
    for tag in ("H", "E"):
        assert f"{tag}:dim0" not in charges
        assert f"{tag}:dim{g.n}" not in charges
    for k in range(1, g.n):
        assert charges[f"H:dim{k}"] == pytest.approx(-((-1j) ** k) * g.z2 ** k, rel=1e-12)
        assert charges[f"E:dim{k}"] == pytest.approx(-((-1j) ** k) * g.z1 ** k, rel=1e-12)


def test_central_charge_sign_consistency(rng):
    # the stability quotient reduces to Im(i^{n-k} e^{-i theta} z_l^k);
    # the raw charge form Im(-i^n e^{-i theta} Z(V)) must agree in sign
    for _ in range(300):
        g = random_geometry(rng)
        charges = central_charges(charge_report(g))
        th, _ = theta_hat(g)
        w = cmath.exp(-1j * th)
        for k in range(1, g.n):
            for tag, zl in (("H", g.z2), ("E", g.z1)):
                zv = charges[f"{tag}:dim{k}"]
                raw = (-(1j ** g.n) * w * zv).imag
                red = ((1j ** (g.n - k)) * w * cpow(zl, k)).imag
                if abs(red) > 1e-9 * max(1.0, abs(zl) ** k):
                    assert raw * red > 0


def test_degeneracy_check():
    assert degeneracy_check(charge_report(degenerate_example())) == 1
    assert degeneracy_check(charge_report(Geometry(2, 2.0, 2.0, 1.0))) is None
    assert degeneracy_check(charge_report(Geometry(3, 2.0, 0.0, 0.0))) is None
    assert charge_report(degenerate_example()).degenerate


def test_charge_report_consistency():
    rep = charge_report(Geometry(2, 2.0, 2.0, 1.0))
    assert not rep.degenerate
    assert rep.zeta == pytest.approx(6j, abs=1e-12)
    assert rep.theta_hat == pytest.approx(math.pi / 2, abs=1e-12)
    assert rep.r_x == pytest.approx(6.0, abs=1e-12)
    assert len(central_charges(rep)) == 3

    rep = charge_report(degenerate_example())
    assert rep.degenerate
    assert rep.theta_hat == 0.0 and rep.c == 0.0
