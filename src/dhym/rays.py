"""Ray sets and alternating sectors in the right half plane.

For a level k the ray set collects the angles phi in [-pi/2, pi/2) with
sin((n-k)*pi/2 - theta_hat + k*phi) = 0; these are the directions where
Im(i^(n-k) e^(-i theta_hat) z^k) changes sign.  Adjacent rays bound
alternating positive/negative sectors, and consecutive levels interleave.
The verdicts read signs, ray counts and ray labels off that fan angle in
closed form; only the figure and check_alternation list the rays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .tolerances import DEFAULT_TOL, Tolerances

_HALF_PI = math.pi / 2.0


class Sign(Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    ON_RAY = "on_ray"


@dataclass(frozen=True)
class SectorVerdict:
    value: Sign
    margin: float  # angular distance to the nearest ray of the level


@dataclass(frozen=True)
class RaySet:
    k: int
    n: int
    theta_hat: float
    angles: tuple[float, ...]  # strictly descending, each in [-pi/2, pi/2)


def ray_set(k: int, theta_hat: float, n: int) -> RaySet:
    """The k ray angles of the level in [-pi/2, pi/2), sorted descending."""
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
    return RaySet(k=k, n=n, theta_hat=theta_hat, angles=tuple(angles))


def _fan_angle(arg_z: float, k: int, theta_hat: float, n: int) -> float:
    """(n-k) pi/2 - theta_hat + k arg(z): a multiple of pi exactly on a ray
    of the level, increasing with arg(z)."""
    return (n - k) * _HALF_PI - theta_hat + k * arg_z


def sector_of(arg_z: float, k: int, theta_hat: float, n: int,
              tol: Tolerances = DEFAULT_TOL) -> SectorVerdict:
    """Sign of Im(i^(n-k) e^(-i theta_hat) z^k) for z with argument arg_z,
    which is the sign of sin of the fan angle, with an on-ray deadband."""
    psi = _fan_angle(arg_z, k, theta_hat, n)
    # angular distance from arg(z) to the nearest ray of the level
    margin = abs(math.remainder(psi, math.pi)) / k
    if margin <= tol.eps_angle:
        return SectorVerdict(Sign.ON_RAY, margin)
    return SectorVerdict(Sign.POSITIVE if math.sin(psi) > 0 else Sign.NEGATIVE,
                         margin)


def rays_between(arg1: float, arg2: float, k: int, theta_hat: float, n: int,
                 tol: Tolerances = DEFAULT_TOL) -> int:
    """Number of rays of the level strictly between two arguments, each
    moved eps_angle inward: the integers strictly between the fan angles
    over pi at the two moved ends."""
    lo = min(arg1, arg2) + tol.eps_angle
    hi = max(arg1, arg2) - tol.eps_angle
    if lo >= hi:
        return 0
    return (math.ceil(_fan_angle(hi, k, theta_hat, n) / math.pi)
            - math.floor(_fan_angle(lo, k, theta_hat, n) / math.pi) - 1)


def ray_index(arg_z: float, k: int, theta_hat: float, n: int) -> int:
    """Label of the ray of the level nearest arg(z): the nearest integer
    to the fan angle over pi."""
    return round(_fan_angle(arg_z, k, theta_hat, n) / math.pi)


@dataclass(frozen=True)
class AlternationResult:
    ok: bool
    interleaved: tuple[float, ...]
    detail: str = ""


def check_alternation(k: int, theta_hat: float, n: int,
                      atol: float = 1e-12) -> AlternationResult:
    """Verify that levels k and k-1 interleave with level k outermost.

    The expected order is phi_k^1 > phi_{k-1}^1 > phi_k^2 > ... >
    phi_{k-1}^{k-1} >= phi_k^k, where the final equality is allowed only
    when both angles equal -pi/2.
    """
    if not 2 <= k <= n:
        raise ValueError(f"k must lie in 2..{n}, got {k}")
    outer = ray_set(k, theta_hat, n).angles
    inner = ray_set(k - 1, theta_hat, n).angles
    merged = []
    for j in range(k - 1):
        merged.append(outer[j])
        merged.append(inner[j])
    merged.append(outer[k - 1])
    for i in range(len(merged) - 1):
        hi, lo = merged[i], merged[i + 1]
        last_pair = i == len(merged) - 2
        if hi > lo + atol:
            continue
        if last_pair and abs(hi + _HALF_PI) <= atol and abs(lo + _HALF_PI) <= atol:
            continue  # shared boundary ray at -pi/2
        return AlternationResult(
            False, tuple(merged),
            f"order violated at position {i}: {hi!r} !> {lo!r}")
    return AlternationResult(True, tuple(merged))
