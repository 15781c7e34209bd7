"""Ray sets and alternating sectors in the right half plane.

For a level k the ray set collects the angles phi in [-pi/2, pi/2) with
sin((n-k)*pi/2 - theta_hat + k*phi) = 0; these are the directions where
Im(i^(n-k) e^(-i theta_hat) z^k) changes sign.  Adjacent rays bound
alternating positive/negative sectors, and consecutive levels interleave.
The verdict and the stability certificate read signs off that fan angle
in closed form; only the figure lists the rays.
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
