import cmath
import math

import pytest

from dhym.rays import Sign, ray_set, sector_of
from dhym.tolerances import EPS_ANGLE

from conftest import check_alternation


def test_ray_set_examples():
    rs = ray_set(2, math.pi / 2, 2)
    assert rs == pytest.approx((math.pi / 4, -math.pi / 4), abs=1e-12)
    rs = ray_set(1, math.pi / 2, 2)
    assert rs == pytest.approx((0.0,), abs=1e-12)


def test_ray_set_structure(rng):
    for _ in range(200):
        n = int(rng.integers(2, 17))
        k = int(rng.integers(1, n + 1))
        th = float(rng.uniform(-math.pi, math.pi))
        rs = ray_set(k, th, n)
        assert len(rs) == k
        for phi in rs:
            assert -math.pi / 2 <= phi < math.pi / 2
            # each angle solves sin((n-k)pi/2 - theta + k*phi) = 0
            assert abs(math.sin((n - k) * math.pi / 2 - th + k * phi)) <= 1e-11
        for a, b in zip(rs, rs[1:]):
            assert a - b == pytest.approx(math.pi / k, abs=1e-12)


def test_sector_of_examples():
    v = sector_of(cmath.phase(1 + 1j), 1, math.pi / 2, 2)
    assert v.value is Sign.POSITIVE
    v = sector_of(cmath.phase(1 + 0j), 1, 0.0, 3)
    assert v.value is Sign.ON_RAY
    # every ray angle classifies as on-ray
    rs = ray_set(3, 0.7, 5)
    for phi in rs:
        v = sector_of(phi, 3, 0.7, 5)
        assert v.value is Sign.ON_RAY
        assert v.margin <= 1e-8


def test_sector_alternates_between_rays(rng):
    for _ in range(50):
        n = int(rng.integers(2, 13))
        k = int(rng.integers(1, n + 1))
        th = float(rng.uniform(-math.pi, math.pi))
        rs = ray_set(k, th, n)
        # midpoints of consecutive sectors carry opposite signs
        edges = [math.pi / 2] + list(rs) + [-math.pi / 2]
        signs = []
        for hi, lo in zip(edges, edges[1:]):
            if hi - lo < 1e-6:
                continue
            mid = 0.5 * (hi + lo)
            v = sector_of(mid, k, th, n)
            assert v.value is not Sign.ON_RAY
            signs.append(1 if v.value is Sign.POSITIVE else -1)
        for s0, s1 in zip(signs, signs[1:]):
            assert s0 == -s1


def test_check_alternation_examples():
    res = check_alternation(2, math.pi / 2, 2)
    assert res.ok
    assert res.interleaved == pytest.approx(
        (math.pi / 4, 0.0, -math.pi / 4), abs=1e-12)


def test_check_alternation_boundary_case():
    # theta = 0, k = n = 4 puts the smallest R_4 ray exactly at -pi/2;
    # the proposition then forces the smallest R_3 ray there too
    res = check_alternation(4, 0.0, 4)
    assert res.ok
    rs4 = ray_set(4, 0.0, 4)
    rs3 = ray_set(3, 0.0, 4)
    assert rs4[-1] == pytest.approx(-math.pi / 2, abs=1e-12)
    assert rs3[-1] == pytest.approx(-math.pi / 2, abs=1e-12)


def test_check_alternation_sweep(rng):
    for _ in range(64):
        th = float(rng.uniform(-math.pi, math.pi))
        for n in range(2, 17):
            for k in range(2, n + 1):
                res = check_alternation(k, th, n)
                assert res.ok, (k, th, n, res.detail)


def test_sector_sign_matches_direct_evaluation(rng):
    # the sign of sin(fan angle) against Im(i^(n-k) e^(-i theta) z^k) on
    # the unit circle, wherever the margin clears the deadband
    checked = 0
    for _ in range(2000):
        n = int(rng.integers(2, 65))
        k = int(rng.integers(1, n + 1))
        th = float(rng.uniform(-math.pi, math.pi))
        arg = float(rng.uniform(-math.pi / 2, math.pi / 2))
        v = sector_of(arg, k, th, n)
        if v.margin <= EPS_ANGLE:
            continue
        checked += 1
        s = (1j ** ((n - k) % 4) * cmath.exp(-1j * th)
             * cmath.exp(1j * arg) ** k).imag
        assert v.value is (Sign.POSITIVE if s > 0 else Sign.NEGATIVE), (
            n, k, th, arg)
    assert checked > 1900

