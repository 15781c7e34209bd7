"""Level curves of Phi(x, y) = Im(e^(-i theta_hat) (x+iy)^n) and the
boundary-value solver.

Both endpoints (1, q) and (a, p) always share the level value c, so a
solution is a graphical arc of the level curve over [1, a].  In polar form
that arc is explicit, r(phi) = (c / sin(n phi - theta_hat))^(1/n) for phi
between arg z1 and arg z2, so nothing is integrated: every node of the
output grid is solved at once, seeded by bisecting for the angle with
r(phi) cos(phi) = x and polished by Newton steps in y on Phi = c.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .charges import Geometry, theta_hat
from .rays import Sign, nearest_ray_index, ray_set, rays_strictly_between, sector_of
from .tolerances import DEFAULT_TOL, Tolerances


class TraceError(RuntimeError):
    pass


class GraphicalPreconditionError(TraceError):
    """trace_solution called on an instance without a graphical arc."""


# halvings that shrink the angle bracket, no wider than pi/n <= pi/2, below
# the spacing of doubles near 1
_BISECTIONS = 53
# Newton steps in y allowed to reach |Phi - c| <= tol_level * scale
_NEWTON_STEPS = 16


@dataclass(frozen=True)
class LevelSetContext:
    n: int
    theta_hat: float
    c: float
    scale: float  # max(1, |z1|**n, |z2|**n)


@dataclass(frozen=True)
class SameComponentResult:
    status: str  # "same" | "different" | "on_zero_level"
    rays_between: int = 0
    same_ray: bool | None = None


@dataclass(frozen=True)
class GraphicalResult:
    yes: bool
    reason: str = ""


@dataclass(frozen=True)
class SolutionCurve:
    x: np.ndarray
    f: np.ndarray
    f_prime: np.ndarray
    c: float
    residual_max: float
    residual_l2: float
    theta_pointwise: np.ndarray
    endpoint_error: float


@dataclass(frozen=True)
class VerificationReport:
    residual_max: float
    residual_bound: float
    residual_ok: bool
    theta_oscillation: float
    oscillation_ok: bool
    theta_mean: float
    theta_matches_average_angle: bool
    theta_in_range: bool
    endpoint_error: float
    endpoint_ok: bool
    level_max: float
    level_bound: float
    level_ok: bool
    lift_match: bool | None
    passed: bool


def phi(x: float, y: float, ctx: LevelSetContext) -> float:
    """Im(e^(-i theta_hat) (x+iy)^n)."""
    return (cmath.exp(-1j * ctx.theta_hat) * complex(x, y) ** ctx.n).imag


def phi_gradient(x: float, y: float, ctx: LevelSetContext) -> tuple[float, float]:
    """(Phi_x, Phi_y) = n (Im, Re) of e^(-i theta_hat) (x+iy)^(n-1)."""
    w = ctx.n * cmath.exp(-1j * ctx.theta_hat) * complex(x, y) ** (ctx.n - 1)
    return w.imag, w.real


def level_context(g: Geometry, tol: Tolerances = DEFAULT_TOL) -> LevelSetContext:
    """Level value shared by (1, q) and (a, p); verified from both ends.

    Each end's value carries a rounding error of order eps * |z|^n, while
    |c| <= min(|z1|, |z2|)^n, so c is taken from the end nearer the origin.
    """
    th, _ = theta_hat(g, tol)
    scale = max(1.0, g.scale)
    ctx = LevelSetContext(n=g.n, theta_hat=th, c=0.0, scale=scale)
    c1 = phi(1.0, g.q, ctx)
    c2 = phi(g.a, g.p, ctx)
    if abs(c1 - c2) > 1e-9 * scale:
        raise TraceError(f"endpoint level values disagree: {c1!r} vs {c2!r}")
    c = c1 if abs(g.z1) <= abs(g.z2) else c2
    return LevelSetContext(n=g.n, theta_hat=th, c=c, scale=scale)


def same_component(g: Geometry, tol: Tolerances = DEFAULT_TOL,
                   ctx: LevelSetContext | None = None) -> SameComponentResult:
    """Do the two endpoints sit on the same component of the level set?

    For c = 0 the level set is n rays; the endpoints match iff they sit on
    the same ray.  Otherwise components occupy alternating sectors, so the
    endpoints agree iff no top-level ray lies strictly between them.
    ``ctx`` is ``level_context(g, tol)`` when the caller already has it.
    """
    ctx = ctx or level_context(g, tol)
    a1 = cmath.phase(g.z1)
    a2 = cmath.phase(g.z2)
    rs = ray_set(g.n, ctx.theta_hat, g.n)
    # |c| is bounded by min(|z1|, |z2|)**n, so the zero test must use that
    # scale; against the max it would misfire whenever |z2| >> |z1|
    zero_scale = min(abs(g.z1), abs(g.z2)) ** g.n
    if abs(ctx.c) <= tol.eps_zero * zero_scale:
        v1 = sector_of(g.z1, g.n, ctx.theta_hat, g.n, tol)
        v2 = sector_of(g.z2, g.n, ctx.theta_hat, g.n, tol)
        on_rays = v1.value is Sign.ON_RAY and v2.value is Sign.ON_RAY
        same_ray = (on_rays and
                    nearest_ray_index(a1, rs) == nearest_ray_index(a2, rs))
        return SameComponentResult("on_zero_level", same_ray=same_ray)
    nb = rays_strictly_between(a1, a2, rs, tol)
    if nb == 0:
        return SameComponentResult("same")
    return SameComponentResult("different", rays_between=nb)


def graphical_existence(g: Geometry, tol: Tolerances = DEFAULT_TOL,
                        ctx: LevelSetContext | None = None,
                        sc: SameComponentResult | None = None) -> GraphicalResult:
    """Can the endpoints be joined by a graphical arc (no vertical slope)?

    ``ctx`` and ``sc`` are level_context and same_component of (g, tol),
    when the caller already has them."""
    ctx = ctx or level_context(g, tol)
    sc = sc or same_component(g, tol, ctx)
    if sc.status == "different":
        return GraphicalResult(False, f"endpoints on different components "
                                      f"({sc.rays_between} rays between)")
    if sc.status == "on_zero_level" and not sc.same_ray:
        return GraphicalResult(False, "zero level set: endpoints on different rays")
    if sc.status == "on_zero_level":
        # linear solution along a common ray; a ray never has vertical slope
        return GraphicalResult(True)
    a1 = cmath.phase(g.z1)
    a2 = cmath.phase(g.z2)
    rs_v = ray_set(g.n - 1, ctx.theta_hat, g.n)
    if rays_strictly_between(a1, a2, rs_v, tol) > 0:
        return GraphicalResult(False, "vertical-tangent ray between endpoints")
    for name, z in (("(1,q)", g.z1), ("(a,p)", g.z2)):
        if sector_of(z, g.n - 1, ctx.theta_hat, g.n, tol).value is Sign.ON_RAY:
            return GraphicalResult(False, f"endpoint {name} on a "
                                          f"vertical-tangent ray (inconclusive)")
    return GraphicalResult(True)


def _level_terms(x: np.ndarray, y: np.ndarray, ctx: LevelSetContext):
    """Phi - c and the gradient (Phi_x, Phi_y) at arrays of points."""
    z = x + 1j * y
    u = np.exp(-1j * ctx.theta_hat) * z ** (ctx.n - 1)
    return np.imag(u * z) - ctx.c, ctx.n * u.imag, ctx.n * u.real


def _arc_angles(g: Geometry, ctx: LevelSetContext, xs: np.ndarray) -> np.ndarray:
    """Angle phi of the arc point above each x, by bisection on
    r(phi) cos(phi) = x: a graphical arc has no vertical tangent, so that
    abscissa runs monotonically from 1 at arg z1 to a at arg z2."""
    n = ctx.n
    # sin(n phi - theta_hat) has the sign of c between the endpoint
    # arguments; the floor keeps a rounding slip at either end finite
    sign = math.copysign(1.0, ctx.c)
    floor = np.finfo(float).tiny
    root_c = abs(ctx.c) ** (1.0 / n)
    lo = np.full(xs.shape, cmath.phase(g.z1))
    hi = np.full(xs.shape, cmath.phase(g.z2))
    for _ in range(_BISECTIONS):
        mid = 0.5 * (lo + hi)
        s = np.maximum(sign * np.sin(n * mid - ctx.theta_hat), floor)
        short = root_c * s ** (-1.0 / n) * np.cos(mid) < xs
        lo = np.where(short, mid, lo)
        hi = np.where(short, hi, mid)
    return 0.5 * (lo + hi)


def _ode_terms(x, f, fp, ctx: LevelSetContext):
    """Residual Im(e^(-i theta_hat) (1 + i f/x)^(n-1) (1 + i f')) of the ODE
    and the pointwise angle (n-1) arctan(f/x) + arctan(f')."""
    zr = 1.0 + 1j * f / x
    res = np.imag(np.exp(-1j * ctx.theta_hat) * zr ** (ctx.n - 1) * (1.0 + 1j * fp))
    return res, (ctx.n - 1) * np.arctan2(f, x) + np.arctan(fp)


def trace_solution(g: Geometry, tol: Tolerances = DEFAULT_TOL) -> SolutionCurve:
    """Solve the level curve Phi = c on x = linspace(1, a, curve_samples).

    All nodes at once: each is seeded from the polar form of the arc, or
    from the common ray on the zero level, and polished by Newton steps in
    y until |Phi - c| <= tol_level * scale.  The reported slope is the
    exact level-set slope -Phi_x / Phi_y there.
    """
    ctx = level_context(g, tol)
    sc = same_component(g, tol, ctx)
    ge = graphical_existence(g, tol, ctx, sc)
    if not ge.yes:
        raise GraphicalPreconditionError(ge.reason)
    xs = np.linspace(1.0, g.a, tol.curve_samples)
    if sc.status == "on_zero_level":
        y = g.q * xs  # the common ray; exact when c is exactly zero
    else:
        y = xs * np.tan(_arc_angles(g, ctx, xs))
    target = tol.tol_level * ctx.scale
    for _ in range(_NEWTON_STEPS):
        r, gx, gy = _level_terms(xs, y, ctx)
        vertical = np.abs(gy) <= 1e-12 * np.hypot(gx, gy)
        if np.any(vertical):
            raise TraceError(f"vertical tangent at x={xs[np.argmax(vertical)]!r}")
        off = np.abs(r) > target
        if not np.any(off):
            break
        y = np.where(off, y - r / gy, y)
    else:
        raise TraceError(f"level polish did not converge at x={xs[np.argmax(off)]!r}")
    fp = -gx / gy
    res, theta = _ode_terms(xs, y, fp, ctx)
    return SolutionCurve(
        x=xs, f=y, f_prime=fp, c=ctx.c,
        residual_max=float(np.max(np.abs(res))),
        residual_l2=float(np.sqrt(np.mean(res ** 2))),
        theta_pointwise=theta,
        endpoint_error=float(abs(y[-1] - g.p)),
    )


def verify_solution(curve: SolutionCurve, g: Geometry,
                    tol: Tolerances = DEFAULT_TOL,
                    lift: float | None = None) -> VerificationReport:
    """Independent check of a traced curve against the original equation.

    The level check reads only the samples (x, f): every node must satisfy
    |Phi(x, f) - c| <= tol_level * scale, the target the trace polishes to.
    The residual and the pointwise angle read the curve's own f_prime.
    """
    ctx = level_context(g, tol)
    level_max = float(np.max(np.abs(_level_terms(curve.x, curve.f, ctx)[0])))
    level_bound = tol.tol_level * ctx.scale
    res, theta = _ode_terms(curve.x, curve.f, curve.f_prime, ctx)
    residual_max = float(np.max(np.abs(res)))
    zmax = float(np.max(np.hypot(curve.x, curve.f)))
    residual_bound = tol.tol_endpoint * (1.0 + zmax ** (ctx.n - 1))
    osc = float(np.max(theta) - np.min(theta))
    mean = float(np.mean(theta))
    matches = abs(math.remainder(mean - ctx.theta_hat, math.tau)) <= tol.tol_angle
    in_range = -ctx.n * math.pi / 2 < mean < ctx.n * math.pi / 2
    endpoint_error = float(abs(curve.f[-1] - g.p))
    endpoint_ok = endpoint_error <= tol.tol_endpoint * max(1.0, abs(g.p))
    lift_match = None
    if lift is not None:
        lift_match = abs(mean - lift) <= tol.tol_angle
    passed = (residual_max <= residual_bound and osc <= tol.tol_angle
              and matches and in_range and endpoint_ok
              and level_max <= level_bound and lift_match is not False)
    return VerificationReport(
        residual_max=residual_max, residual_bound=residual_bound,
        residual_ok=residual_max <= residual_bound,
        theta_oscillation=osc, oscillation_ok=osc <= tol.tol_angle,
        theta_mean=mean, theta_matches_average_angle=matches,
        theta_in_range=in_range,
        endpoint_error=endpoint_error, endpoint_ok=endpoint_ok,
        level_max=level_max, level_bound=level_bound,
        level_ok=level_max <= level_bound,
        lift_match=lift_match, passed=passed,
    )
