"""Level curves of Phi(x, y) = Im(e^(-i theta_hat) (x+iy)^n) and the
boundary-value solver.

Both endpoints (1, q) and (a, p) always share the level value c, so a
solution is a graphical arc of the level curve over [1, a].  In polar form
that arc is explicit, r(phi) = (c / sin(n phi - theta_hat))^(1/n) for phi
between arg z1 and arg z2, so nothing is integrated: every node of the
output grid is solved at once, seeded by bisecting for the angle with
r(phi) cos(phi) = x and polished by Newton steps in y on Phi = c.  The
layers read the angle record (charges.charge_report) and the context that
level_context builds from it once, and recompute neither.  Only the
array functions import numpy, so the verdicts run without loading it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .charges import ChargeReport
from .rays import Sign, ray_index, rays_between, sector_of


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
    residual: np.ndarray  # of the ODE at each node, as in _ode_terms
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
    passed: bool


def phi(x: float, y: float, ctx: LevelSetContext) -> float:
    """Im(e^(-i theta_hat) (x+iy)^n)."""
    return (cmath.exp(-1j * ctx.theta_hat) * complex(x, y) ** ctx.n).imag


def level_context(rep: ChargeReport) -> LevelSetContext:
    """Level value shared by (1, q) and (a, p); verified from both ends.

    Each end's value carries a rounding error of order eps * |z|^n, while
    |c| <= min(|z1|, |z2|)^n, so c is taken from the end nearer the origin.
    """
    g, th = rep.g, rep.angle()  # raises DegenerateGeometryError
    scale = max(1.0, rep.scale)
    ctx = LevelSetContext(n=g.n, theta_hat=th, c=0.0, scale=scale)
    c1 = phi(1.0, g.q, ctx)
    c2 = phi(g.a, g.p, ctx)
    if abs(c1 - c2) > 1e-9 * scale:
        raise TraceError(f"endpoint level values disagree: {c1!r} vs {c2!r}")
    c = c1 if abs(g.z1) <= abs(g.z2) else c2
    return LevelSetContext(n=g.n, theta_hat=th, c=c, scale=scale)


def same_component(rep: ChargeReport, ctx: LevelSetContext) -> SameComponentResult:
    """Do the two endpoints sit on the same component of the level set?

    For c = 0 the level set is n rays; the endpoints match iff they sit on
    the same ray.  Otherwise components occupy alternating sectors, so the
    endpoints agree iff no top-level ray lies strictly between them.
    """
    g, n, th, tol = rep.g, rep.g.n, rep.theta_hat, rep.tol
    # |c| is bounded by min(|z1|, |z2|)**n, so the zero test must use that
    # scale; against the max it would misfire whenever |z2| >> |z1|
    zero_scale = min(abs(g.z1), abs(g.z2)) ** n
    if abs(ctx.c) <= tol.eps_zero * zero_scale:
        v1 = sector_of(rep.psi1, n, th, n, tol)
        v2 = sector_of(rep.psi2, n, th, n, tol)
        on_rays = v1.value is Sign.ON_RAY and v2.value is Sign.ON_RAY
        same_ray = (on_rays and ray_index(rep.psi1, n, th, n)
                    == ray_index(rep.psi2, n, th, n))
        return SameComponentResult("on_zero_level", same_ray=same_ray)
    nb = rays_between(rep.psi1, rep.psi2, n, th, n, tol)
    if nb == 0:
        return SameComponentResult("same")
    return SameComponentResult("different", rays_between=nb)


def graphical_existence(rep: ChargeReport,
                        sc: SameComponentResult) -> GraphicalResult:
    """Can the endpoints be joined by a graphical arc (no vertical slope)?

    ``sc`` is same_component of the record."""
    if sc.status == "different":
        return GraphicalResult(False, f"endpoints on different components "
                                      f"({sc.rays_between} rays between)")
    if sc.status == "on_zero_level" and not sc.same_ray:
        return GraphicalResult(False, "zero level set: endpoints on different rays")
    if sc.status == "on_zero_level":
        # linear solution along a common ray; a ray never has vertical slope
        return GraphicalResult(True)
    n, th, tol = rep.g.n, rep.theta_hat, rep.tol
    if rays_between(rep.psi1, rep.psi2, n - 1, th, n, tol) > 0:
        return GraphicalResult(False, "vertical-tangent ray between endpoints")
    for name, psi in (("(1,q)", rep.psi1), ("(a,p)", rep.psi2)):
        if sector_of(psi, n - 1, th, n, tol).value is Sign.ON_RAY:
            return GraphicalResult(False, f"endpoint {name} on a "
                                          f"vertical-tangent ray (inconclusive)")
    return GraphicalResult(True)


def _level_terms(x: np.ndarray, y: np.ndarray, ctx: LevelSetContext):
    """Phi - c and the gradient (Phi_x, Phi_y) at arrays of points."""
    import numpy as np
    z = x + 1j * y
    u = np.exp(-1j * ctx.theta_hat) * z ** (ctx.n - 1)
    return np.imag(u * z) - ctx.c, ctx.n * u.imag, ctx.n * u.real


def _arc_angles(rep: ChargeReport, ctx: LevelSetContext,
                xs: np.ndarray) -> np.ndarray:
    """Angle phi of the arc point above each x, by bisection on
    r(phi) cos(phi) = x: a graphical arc has no vertical tangent, so that
    abscissa runs monotonically from 1 at arg z1 to a at arg z2."""
    import numpy as np
    n = ctx.n
    # sin(n phi - theta_hat) has the sign of c between the endpoint
    # arguments; the floor keeps a rounding slip at either end finite
    sign = math.copysign(1.0, ctx.c)
    floor = np.finfo(float).tiny
    root_c = abs(ctx.c) ** (1.0 / n)
    lo = np.full(xs.shape, rep.psi1)
    hi = np.full(xs.shape, rep.psi2)
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
    import numpy as np
    zr = 1.0 + 1j * f / x
    res = np.imag(np.exp(-1j * ctx.theta_hat) * zr ** (ctx.n - 1) * (1.0 + 1j * fp))
    return res, (ctx.n - 1) * np.arctan2(f, x) + np.arctan(fp)


def trace_solution(rep: ChargeReport, ctx: LevelSetContext) -> SolutionCurve:
    """Solve the level curve Phi = c on x = linspace(1, a, curve_samples).

    All nodes at once: each is seeded from the polar form of the arc, or
    from the common ray on the zero level, and polished by Newton steps in
    y until |Phi - c| <= tol_level * scale.  The reported slope is the
    exact level-set slope -Phi_x / Phi_y there.  ``ctx`` is level_context
    of the record.
    """
    import numpy as np
    g, tol = rep.g, rep.tol
    sc = same_component(rep, ctx)
    ge = graphical_existence(rep, sc)
    if not ge.yes:
        raise GraphicalPreconditionError(ge.reason)
    xs = np.linspace(1.0, g.a, tol.curve_samples)
    if sc.status == "on_zero_level":
        y = g.q * xs  # the common ray; exact when c is exactly zero
    else:
        y = xs * np.tan(_arc_angles(rep, ctx, xs))
    target = tol.tol_level * ctx.scale
    # a node whose terms overflow comes out NaN or inf and counts as off
    # the level, so the polish reports it instead of numpy warning about it
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_NEWTON_STEPS):
            r, gx, gy = _level_terms(xs, y, ctx)
            vertical = np.abs(gy) <= 1e-12 * np.hypot(gx, gy)
            if np.any(vertical):
                raise TraceError(f"vertical tangent at "
                                 f"x={float(xs[np.argmax(vertical)])!r}")
            off = ~(np.abs(r) <= target)
            if not np.any(off):
                break
            y = np.where(off, y - r / gy, y)
        else:
            raise TraceError(f"level polish did not converge at "
                             f"x={float(xs[np.argmax(off)])!r}")
    fp = -gx / gy
    res, theta = _ode_terms(xs, y, fp, ctx)
    res_max = float(np.max(np.abs(res)))
    with np.errstate(over="ignore"):
        res_l2 = float(np.sqrt(np.mean(res ** 2)))
    if not math.isfinite(res_l2) and math.isfinite(res_max):
        # the squares overflowed; rescaling by the max keeps them in range
        res_l2 = res_max * float(np.sqrt(np.mean((res / res_max) ** 2)))
    return SolutionCurve(
        x=xs, f=y, f_prime=fp, residual=res, c=ctx.c,
        residual_max=res_max, residual_l2=res_l2,
        theta_pointwise=theta,
        endpoint_error=float(abs(y[-1] - g.p)),
    )


def verify_solution(curve: SolutionCurve, rep: ChargeReport,
                    ctx: LevelSetContext) -> VerificationReport:
    """Independent check of a traced curve against the original equation.

    ``ctx`` is level_context of the record, so c comes from the input, never
    from the curve.  The level check reads only the samples (x, f): every
    node must satisfy |Phi(x, f) - c| <= tol_level * scale, the target the
    trace polishes to.  The residual and the pointwise angle read the
    curve's own f_prime.
    """
    import numpy as np
    g, tol = rep.g, rep.tol
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
    passed = (residual_max <= residual_bound and osc <= tol.tol_angle
              and matches and in_range and endpoint_ok
              and level_max <= level_bound)
    return VerificationReport(
        residual_max=residual_max, residual_bound=residual_bound,
        residual_ok=residual_max <= residual_bound,
        theta_oscillation=osc, oscillation_ok=osc <= tol.tol_angle,
        theta_mean=mean, theta_matches_average_angle=matches,
        theta_in_range=in_range,
        endpoint_error=endpoint_error, endpoint_ok=endpoint_ok,
        level_max=level_max, level_bound=level_bound,
        level_ok=level_max <= level_bound, passed=passed,
    )
