"""Ray sets and alternating sectors in the right half plane.

For a level k the ray set collects the angles phi in [-pi/2, pi/2) with
sin((n-k)*pi/2 - theta_hat + k*phi) = 0; these are the directions where
Im(i^(n-k) e^(-i theta_hat) z^k) changes sign.  Adjacent rays bound
alternating positive/negative sectors, and consecutive levels interleave.
The verdicts read signs, ray counts and ray labels off that fan angle in
closed form; only the figure lists the rays.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .tolerances import EPS_ANGLE

_HALF_PI = math.pi / 2.0


class Sign(Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    ON_RAY = "on_ray"


class SectorVerdict(NamedTuple):
    value: Sign
    margin: float  # angular distance to the nearest ray of the level


def ray_set(k: int, theta_hat: float, n: int) -> tuple[float, ...]:
    """The k ray angles of the level in [-pi/2, pi/2), strictly
    descending."""
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in 1..{n}, got {k}")
    base = (theta_hat - (n - k) * _HALF_PI) / k
    # one representative in [-pi/2, pi/2); remainder lands in [-pi/2, pi/2]
    b0 = math.remainder(base, math.pi)
    if b0 >= _HALF_PI:
        b0 -= math.pi
    step = math.pi / k
    angles = []
    for j in range(k):
        phi = b0 - j * step
        if phi < -_HALF_PI - 1e-15:
            phi += math.pi
        elif phi < -_HALF_PI:
            phi = -_HALF_PI
        angles.append(phi)
    angles.sort(reverse=True)
    return tuple(angles)


def _fan_angle(arg_z: float, k: int, theta_hat: float, n: int) -> float:
    """(n-k) pi/2 - theta_hat + k arg(z): a multiple of pi exactly on a ray
    of the level, increasing with arg(z)."""
    return (n - k) * _HALF_PI - theta_hat + k * arg_z


def sector_of(arg_z: float, k: int, theta_hat: float, n: int) -> SectorVerdict:
    """Sign of Im(i^(n-k) e^(-i theta_hat) z^k) for z with argument arg_z,
    which is the sign of sin of the fan angle, with an on-ray deadband."""
    psi = _fan_angle(arg_z, k, theta_hat, n)
    # angular distance from arg(z) to the nearest ray of the level
    margin = abs(math.remainder(psi, math.pi)) / k
    if margin <= EPS_ANGLE:
        return SectorVerdict(Sign.ON_RAY, margin)
    return SectorVerdict(Sign.POSITIVE if math.sin(psi) > 0 else Sign.NEGATIVE,
                         margin)


def rays_between(arg1: float, arg2: float, k: int, theta_hat: float,
                 n: int) -> int:
    """Number of rays of the level strictly between two arguments, each
    moved EPS_ANGLE inward: the integers strictly between the fan angles
    over pi at the two moved ends."""
    lo = min(arg1, arg2) + EPS_ANGLE
    hi = max(arg1, arg2) - EPS_ANGLE
    if lo >= hi:
        return 0
    return (math.ceil(_fan_angle(hi, k, theta_hat, n) / math.pi)
            - math.floor(_fan_angle(lo, k, theta_hat, n) / math.pi) - 1)


def ray_index(arg_z: float, k: int, theta_hat: float, n: int) -> int:
    """Label of the ray of the level nearest arg(z): the nearest integer
    to the fan angle over pi."""
    return round(_fan_angle(arg_z, k, theta_hat, n) / math.pi)
