"""An exact oracle for the sector signs, in rational arithmetic.

Every float input is an exact rational, so each sign the stability verdict
reads has an exact answer.  With e^(-i theta_hat) = conj(zeta) / |zeta|,
the sign of Im(i^(n-k) e^(-i theta_hat) z^k) is the sign of
Im(i^(n-k) conj(zeta) z^k), a polynomial in a, p and q.  The inputs are
dyadic, so scaling z1 = 1+iq and z2 = a+ip by a common power of two D makes
them Gaussian integers; zeta scales by D^n and z^k by D^k, both positive,
and no sign changes.  The oracle is therefore exact integer arithmetic.

rays.sector_of reads the sign off the float fan angle
(n-k) pi/2 - theta_hat + k arg z, and its margin is that angle's distance
to a multiple of pi, over k; inside the EPS_ANGLE deadband it reports no
sign, so the tests check the fan angle's own sign.  With u = 2^-53 the fan
angle is off by at most, to first order in u:

- 6ku from arg z: atan2 of exact components is within two ulps (4u, as
  |arg z| < 2), and k arg z rounds by at most 2ku;
- 2(12n + 13) u scale / |zeta| + 2u from theta_hat: each power
  r^n exp(i n arg z) in charges.cpow carries a relative error of at most
  (6n + 6) u, so the float zeta is off by (12n + 13) u scale, which moves
  its argument by at most pi/2 times that over |zeta|; with
  |zeta| <= 2 scale the sum is at most 32 (n+1) u scale / |zeta|;
- 10 (n+1) u from the fan angle's own arithmetic: the float pi in
  (n-k) pi/2 and in the remainder, taken at most n times, and two
  roundings of a sum below (n+2) pi/2.

So the sign is exact wherever the margin exceeds
B = 2 (32 (n+1) scale / |zeta| + 6k + 10 (n+1)) u / k, the factor 2
covering the terms of second order.  The bound follows from the rounding
of theta_hat and arg z alone; no pool chose it.
"""

import math
from fractions import Fraction

import numpy as np

from dhym.charges import Geometry, charge_report
from dhym.rays import Sign, _fan_angle, sector_of

from conftest import random_geometry

U = 2.0 ** -53


def _mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _powers(z, n):
    out = [(1, 0)]
    for _ in range(n):
        out.append(_mul(out[-1], z))
    return out


def exact_signs(g):
    """{(k, j): sign of Im(i^(n-k) conj(zeta) z_j^k)} for k in 1..n-1 and
    j = 1, 2, exactly, with the exact zeta; -1, 0 or 1."""
    fr = [Fraction(v) for v in (1.0, g.q, g.a, g.p)]
    d = max(f.denominator for f in fr)  # all powers of two
    re1, im1, re2, im2 = (f.numerator * (d // f.denominator) for f in fr)
    n = g.n
    pw = {1: _powers((re1, im1), n), 2: _powers((re2, im2), n)}
    zeta = (pw[2][n][0] - pw[1][n][0], pw[2][n][1] - pw[1][n][1])
    assert zeta != (0, 0), g
    conj = (zeta[0], -zeta[1])
    out = {}
    for k in range(1, n):
        for j in (1, 2):
            w = _mul(conj, pw[j][k])
            # Im(i^m w) for m = n-k mod 4
            im = (w[1], w[0], -w[1], -w[0])[(n - k) % 4]
            out[k, j] = (im > 0) - (im < 0)
    return out


def sign_bound(rep, k):
    """B of the module docstring: the margin above which sector_of's sign
    at level k is exact."""
    n = rep.g.n
    return 2 * (32 * (n + 1) * rep.scale / rep.r_x + 6 * k
                + 10 * (n + 1)) * U / k


def _check_signs(g, tally):
    """Assert the float fan angle's sign, and sector_of's where it reports
    one, against the oracle at every sign of g whose margin exceeds the
    bound; tally counts (signs, checked, checked below 1e-12)."""
    rep = charge_report(g)
    for (k, j), s in exact_signs(g).items():
        psi = rep.psi1 if j == 1 else rep.psi2
        v = sector_of(psi, k, rep.theta_hat, g.n)
        tally[0] += 1
        if v.margin <= sign_bound(rep, k):
            continue
        tally[1] += 1
        tally[2] += v.margin < 1e-12
        fan = _fan_angle(psi, k, rep.theta_hat, g.n)
        assert s != 0 and (math.sin(fan) > 0) == (s > 0), (g, k, j, v)
        if v.value is not Sign.ON_RAY:  # outside the deadband
            assert v.value is (Sign.POSITIVE if s > 0 else Sign.NEGATIVE), \
                (g, k, j, v)


def test_sector_signs_match_exact_oracle():
    rng = np.random.default_rng(2)
    pool = [random_geometry(rng, n_hi=12) for _ in range(300)]
    pool += [random_geometry(rng, n_hi=12, a_hi=30.0, pq=60.0)
             for _ in range(100)]
    tally = [0, 0, 0]
    for g in pool:
        _check_signs(g, tally)
    # the bound excludes only signs at a knife edge
    assert tally[1] >= 0.99 * tally[0], tally


def _on_ray(rng):
    """An instance whose z2 sits on a ray of some level k to rounding: p is
    moved onto the ray of the current theta_hat until it stops moving, or
    None when the ray leaves the sampled range."""
    n = int(rng.integers(3, 13))
    a, q = float(rng.uniform(1.05, 10.0)), float(rng.uniform(-10.0, 10.0))
    p, k = float(rng.uniform(-10.0, 10.0)), int(rng.integers(1, n))
    for _ in range(60):
        rep = charge_report(Geometry(n, a, p, q))
        if rep.degenerate:
            return None
        # the label of the ray nearest z2: the fan angle over pi, rounded
        m = round(_fan_angle(rep.psi2, k, rep.theta_hat, n) / math.pi)
        phi = (m * math.pi - (n - k) * math.pi / 2 + rep.theta_hat) / k
        if abs(phi) >= 1.4:
            return None
        p = a * math.tan(phi)
    return n, a, phi, q


def test_sector_signs_near_rays_match_exact_oracle():
    # z2 within a few ulp of a ray, then moved off it by 1e-15 to 1e-11
    # rad: the margins straddle the bound
    rng = np.random.default_rng(4)
    tally = [0, 0, 0]
    for _ in range(200):
        inst = _on_ray(rng)
        if inst is None:
            continue
        n, a, phi, q = inst
        for d in (0.0, 1e-15, -1e-15, 1e-13, -1e-13, 1e-11, -1e-11):
            g = Geometry(n, a, a * math.tan(phi + d), q)
            if not charge_report(g).degenerate:
                _check_signs(g, tally)
    assert tally[2] >= 20, tally


def test_exact_oracle_examples():
    # n = 2, z1 = 1+i, z2 = 2+2i: zeta = 8i - 2i = 6i, and for k = 1
    # Im(i conj(zeta) z) = Im(i (-6i) z) = 6 Im z, positive at both ends
    assert exact_signs(Geometry(2, 2.0, 2.0, 1.0)) == {(1, 1): 1, (1, 2): 1}
    # z2 = 3 z1, so zeta = 26 z1^3 and the sign is that of
    # Im((i conj z1)^(3-k)) with i conj z1 = 0.5 + i: Im(-0.75 + i) > 0 at
    # k = 1 and Im(0.5 + i) > 0 at k = 2, at both ends
    assert set(exact_signs(Geometry(3, 3.0, 1.5, 0.5)).values()) == {1}
