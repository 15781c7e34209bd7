"""Shared samplers and reference instances for the test suite."""

import cmath
import math
from dataclasses import dataclass

import numpy as np
import pytest

from dhym.charges import ChargeReport, Geometry, charge_report
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


def float_degenerate_example(n: int) -> Geometry:
    """z1 = 1 + 1e12 i and z2 = 2 + 1e12 i: |z1| and |z2| round to the same
    double, so zeta vanishes in floats, with a gap of 1e-12 (z2 ~ z1)."""
    q = 1e12
    return Geometry(n, 2.0, math.sqrt(1.0 + q * q - 4.0), q)


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


def phi(x: float, y: float, n: int, th: float) -> float:
    """Im(e^(-i th) (x+iy)^n)."""
    return (cmath.exp(-1j * th) * complex(x, y) ** n).imag


def phi_gradient(x: float, y: float, n: int,
                 th: float) -> tuple[float, float]:
    """(Phi_x, Phi_y) = n (Im, Re) of e^(-i th) (x+iy)^(n-1)."""
    w = n * cmath.exp(-1j * th) * complex(x, y) ** (n - 1)
    return w.imag, w.real


def _point_polyline_distance(p: np.ndarray, poly: np.ndarray) -> float:
    a, b = poly[:-1], poly[1:]  # a polyline has at least two vertices
    ab = b - a
    ap = p[None, :] - a
    denom = np.einsum("ij,ij->i", ab, ab)
    t = np.clip(np.divide(np.einsum("ij,ij->i", ap, ab), denom,
                          out=np.zeros_like(denom), where=denom > 0), 0.0, 1.0)
    proj = a + t[:, None] * ab
    d = np.hypot(proj[:, 0] - p[0], proj[:, 1] - p[1])
    return float(d.min())


def cell_diag(window, samples: int) -> float:
    """The diagonal of a grid cell of extract_level_set(rep, window,
    samples), the contour oracle's resolution."""
    return math.hypot((window.xmax - window.xmin) / samples,
                      (window.ymax - window.ymin) / samples)


def component_near(cs, point, diag: float) -> int | None:
    """Index of the contour set's polyline nearest the point, within 2 cell
    diagonals diag, else None."""
    p = np.asarray(point, dtype=float)
    best, best_d = None, 2.0 * diag
    for idx, chain in enumerate(cs.chains):
        d = _point_polyline_distance(p, cs.points[chain])
        if d <= best_d:
            best, best_d = idx, d
    return best


def oracle_same_component(cs, p1, p2, diag: float) -> bool | None:
    """True/False when both points locate on a polyline of the contour set
    with cell diagonal diag, else None: the marching-squares answer to
    same_component."""
    c1, c2 = (component_near(cs, p, diag) for p in (p1, p2))
    return None if c1 is None or c2 is None else c1 == c2


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
