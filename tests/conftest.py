"""Shared samplers and reference instances for the test suite."""

import cmath
import math
from dataclasses import dataclass

import numpy as np
import pytest

from dhym.charges import ChargeReport, Geometry, charge_report
from dhym.levelcurve import LevelSetContext
from dhym.lifting import LiftedAngle, cxy_path_lift, sector_lift
from dhym.rays import ray_set
from dhym.stability import Overall, stability_verdict


def random_geometry(rng, n_lo=2, n_hi=12, a_hi=10.0, pq=10.0):
    """One random non-degenerate instance from the standard pool."""
    while True:
        n = int(rng.integers(n_lo, n_hi + 1))
        a = float(rng.uniform(1.0, a_hi))
        if a <= 1.0:
            continue
        p = float(rng.uniform(-pq, pq))
        q = float(rng.uniform(-pq, pq))
        g = Geometry(n, a, p, q)
        if not charge_report(g).degenerate:
            return g


def sample_stable(rng, n_lo=2, n_hi=12, a_hi=10.0):
    """Random stability-certified instance.

    Both endpoint arguments are drawn inside a band narrower than one
    sector width, then filtered through the full verdict, so rejection
    stays cheap even for large n.
    """
    while True:
        n = int(rng.integers(n_lo, n_hi + 1))
        a = float(rng.uniform(1.05, a_hi))
        base = float(rng.uniform(-math.pi / 2, math.pi / 2))
        half = math.pi / (2 * n)
        ph1 = min(max(base + float(rng.uniform(-half, half)), -1.4), 1.4)
        ph2 = min(max(base + float(rng.uniform(-half, half)), -1.4), 1.4)
        g = Geometry(n, a, a * math.tan(ph2), math.tan(ph1))
        rep = charge_report(g)
        if rep.degenerate:
            continue
        if stability_verdict(rep).overall is Overall.STABLE:
            return g


def collinear_geometry(n: int, a: float, lam: float) -> Geometry:
    """Classes proportional to the polarization: p = lambda*a, q = lambda."""
    return Geometry(n, a, lam * a, lam)


def degenerate_example() -> Geometry:
    """Dimension-3 instance with (a+ip)^3 = (1+2i)^3 exactly."""
    theta = 2.0 * math.pi / 3.0 - math.atan(2.0)
    r = math.sqrt(5.0)
    return Geometry(3, r * math.cos(theta), -r * math.sin(theta), 2.0)


def scaled_example() -> Geometry:
    """The degenerate instance with both classes doubled."""
    g = degenerate_example()
    return Geometry(3, g.a, 2.0 * g.p, 2.0 * g.q)


def lift_exists(rep: ChargeReport) -> bool:
    """True when some path defines a lift.

    The sector deformation is tried first; outside its angular range the
    volume path still lifts whenever it misses the origin (always the case
    in dimension 2, where the two power terms can never be antipodal).
    """
    if isinstance(sector_lift(rep), LiftedAngle):
        return True
    return isinstance(cxy_path_lift(rep), LiftedAngle)


def phi(x: float, y: float, ctx: LevelSetContext) -> float:
    """Im(e^(-i theta_hat) (x+iy)^n)."""
    return (cmath.exp(-1j * ctx.theta_hat) * complex(x, y) ** ctx.n).imag


def phi_gradient(x: float, y: float, ctx: LevelSetContext) -> tuple[float, float]:
    """(Phi_x, Phi_y) = n (Im, Re) of e^(-i theta_hat) (x+iy)^(n-1)."""
    w = ctx.n * cmath.exp(-1j * ctx.theta_hat) * complex(x, y) ** (ctx.n - 1)
    return w.imag, w.real


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
    outer = ray_set(k, theta_hat, n)
    inner = ray_set(k - 1, theta_hat, n)
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
        if (last_pair and abs(hi + math.pi / 2) <= atol
                and abs(lo + math.pi / 2) <= atol):
            continue  # shared boundary ray at -pi/2
        return AlternationResult(
            False, tuple(merged),
            f"order violated at position {i}: {hi!r} !> {lo!r}")
    return AlternationResult(True, tuple(merged))


@pytest.fixture
def rng():
    return np.random.default_rng(20260826)
