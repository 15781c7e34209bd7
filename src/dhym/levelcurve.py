"""Level curves of Phi(x, y) = Im(e^(-i theta_hat) (x+iy)^n) and the
boundary-value solver.

Both endpoints (1, q) and (a, p) always share the level value c, so a
solution is a graphical arc of the level curve over [1, a].  In polar form
that arc is explicit, r(phi) = (c / sin(n phi - theta_hat))^(1/n) for phi
between arg z1 and arg z2, so nothing is integrated: every node of the
output grid is solved at once, seeded by bisecting for the angle with
r(phi) cos(phi) = x and polished by Newton steps in y on Phi = c.  The
trace only solves; verify_solution is the one place that measures a curve
(its level, the ODE residual, the pointwise angle and the endpoint error).
The layers read the angle record (charges.charge_report) and the context
that level_context builds from it once, and recompute neither.  Only the
array functions import numpy, so the verdicts run without loading it.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .charges import ChargeReport
from .rays import Sign, ray_index, rays_between, sector_of
from .tolerances import (CURVE_SAMPLES, EPS_ZERO, TOL_ANGLE, TOL_ENDPOINT,
                         TOL_LEVEL)


class TraceError(RuntimeError):
    pass


class GraphicalPreconditionError(TraceError):
    """trace_solution called on an instance without a graphical arc."""


# halvings that shrink the angle bracket, no wider than pi/n <= pi/2, below
# the spacing of doubles near 1
_BISECTIONS = 53
# Newton steps in y allowed to bring every node onto its level target
_NEWTON_STEPS = 16


class LevelSetContext(NamedTuple):
    n: int
    theta_hat: float
    c: float
    scale: float  # rep.scale, max(|z1|**n, |z2|**n) >= 1 as |z1| >= 1


class SameComponentResult(NamedTuple):
    status: str  # "same" | "different" | "on_zero_level"
    rays_between: int = 0  # a deadband count, as rays.rays_between
    same_ray: bool | None = None


class GraphicalResult(NamedTuple):
    yes: bool
    reason: str = ""


class SolutionCurve(NamedTuple):
    x: np.ndarray
    f: np.ndarray
    f_prime: np.ndarray


class VerificationReport(NamedTuple):
    residual: np.ndarray  # of the ODE at each node, as in _ode_terms
    theta_pointwise: np.ndarray
    residual_max: float
    residual_l2: float
    residual_ratio: float  # worst |residual| over the node's own scale
    theta_oscillation: float
    theta_mean: float
    endpoint_error: float
    level_max: float  # worst |Phi - c| over the node's own scale
    passed: bool


def level_context(rep: ChargeReport) -> LevelSetContext:
    """Level value shared by (1, q) and (a, p); verified from both ends.

    Each end's value carries a rounding error of order eps * |z|^n, while
    |c| <= min(|z1|, |z2|)^n, so c is taken from the end nearer the origin.
    """
    g, th = rep.g, rep.angle()  # raises DegenerateGeometryError
    rot = cmath.exp(-1j * th)
    c1 = (rot * g.z1 ** g.n).imag
    c2 = (rot * g.z2 ** g.n).imag
    if abs(c1 - c2) > 1e-9 * rep.scale:
        raise TraceError(f"endpoint level values disagree: {c1!r} vs {c2!r}")
    c = c1 if abs(g.z1) <= abs(g.z2) else c2
    return LevelSetContext(n=g.n, theta_hat=th, c=c, scale=rep.scale)


def same_component(rep: ChargeReport, ctx: LevelSetContext) -> SameComponentResult:
    """Do the two endpoints sit on the same component of the level set?

    For c = 0 the level set is n rays; the endpoints match iff they sit on
    the same ray.  Otherwise components occupy alternating sectors, so the
    endpoints agree iff no top-level ray lies strictly between them.
    """
    g, n, th = rep.g, rep.g.n, rep.theta_hat
    # |c| is bounded by min(|z1|, |z2|)**n, so the zero test must use that
    # scale; against the max it would misfire whenever |z2| >> |z1|
    zero_scale = min(abs(g.z1), abs(g.z2)) ** n
    if abs(ctx.c) <= EPS_ZERO * zero_scale:
        v1 = sector_of(rep.psi1, n, th, n)
        v2 = sector_of(rep.psi2, n, th, n)
        on_rays = v1.value is Sign.ON_RAY and v2.value is Sign.ON_RAY
        same_ray = (on_rays and ray_index(rep.psi1, n, th, n)
                    == ray_index(rep.psi2, n, th, n))
        return SameComponentResult("on_zero_level", same_ray=same_ray)
    nb = rays_between(rep.psi1, rep.psi2, n, th, n)
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
    n, th = rep.g.n, rep.theta_hat
    if rays_between(rep.psi1, rep.psi2, n - 1, th, n) > 0:
        return GraphicalResult(False, "vertical-tangent ray between endpoints")
    for name, psi in (("(1,q)", rep.psi1), ("(a,p)", rep.psi2)):
        if sector_of(psi, n - 1, th, n).value is Sign.ON_RAY:
            return GraphicalResult(False, f"endpoint {name} on a "
                                          f"vertical-tangent ray (inconclusive)")
    return GraphicalResult(True)


def _level_terms(x: np.ndarray, y: np.ndarray, ctx: LevelSetContext):
    """Phi - c and the gradient (Phi_x, Phi_y) at arrays of points."""
    import numpy as np
    z = x + 1j * y
    u = np.exp(-1j * ctx.theta_hat) * z ** (ctx.n - 1)
    return np.imag(u * z) - ctx.c, ctx.n * u.imag, ctx.n * u.real


def _node_scale(x: np.ndarray, y: np.ndarray, cap: float,
                k: int) -> np.ndarray:
    """min(cap, max(1, |z|)^k) at each node.  With k = n and the instance
    scale as the cap it is the size of Phi's rounding error there.  The cap
    keeps a node that runs off from loosening its own bound; on the exact
    arc |z| peaks at an endpoint, so it never binds."""
    import numpy as np
    return np.minimum(cap, np.maximum(1.0, np.hypot(x, y)) ** k)


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
    """Solve the level curve Phi = c on x = linspace(1, a, CURVE_SAMPLES).

    All nodes at once: each is seeded from the polar form of the arc, or
    from the common ray on the zero level, and polished by Newton steps in
    y until |Phi - c| <= TOL_LEVEL * min(scale, max(1, |z_j|)^n) at every
    node z_j, the bound verify_solution checks.  The reported slope is the
    exact level-set slope -Phi_x / Phi_y there.  The curve carries only its
    samples; verify_solution measures it.  ``ctx`` is level_context of the
    record.
    """
    import numpy as np
    g = rep.g
    sc = same_component(rep, ctx)
    ge = graphical_existence(rep, sc)
    if not ge.yes:
        raise GraphicalPreconditionError(ge.reason)
    xs = np.linspace(1.0, g.a, CURVE_SAMPLES)
    if sc.status == "on_zero_level":
        y = g.q * xs  # the common ray; exact when c is exactly zero
    else:
        y = xs * np.tan(_arc_angles(rep, ctx, xs))
    # a node whose terms overflow comes out NaN or inf and counts as off
    # the level, so the polish reports it instead of numpy warning about it
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_NEWTON_STEPS):
            r, gx, gy = _level_terms(xs, y, ctx)
            vertical = np.abs(gy) <= 1e-12 * np.hypot(gx, gy)
            if np.any(vertical):
                raise TraceError(f"vertical tangent at "
                                 f"x={float(xs[np.argmax(vertical)])!r}")
            off = ~(np.abs(r) <= TOL_LEVEL * _node_scale(xs, y, ctx.scale,
                                                         ctx.n))
            if not np.any(off):
                break
            y = np.where(off, y - r / gy, y)
        else:
            raise TraceError(f"level polish did not converge at "
                             f"x={float(xs[np.argmax(off)])!r}")
    return SolutionCurve(x=xs, f=y, f_prime=-gx / gy)


def verify_solution(curve: SolutionCurve, rep: ChargeReport,
                    ctx: LevelSetContext) -> VerificationReport:
    """Independent check of a traced curve against the original equation,
    and the one place its figures are computed.

    ``ctx`` is level_context of the record, so c comes from the input, never
    from the curve.  The level check reads only the samples (x, f): every
    node z_j must satisfy |Phi(x_j, f_j) - c| <= TOL_LEVEL * min(scale,
    max(1, |z_j|)^n), the bound of Phi's rounding error at that node, capped
    at the instance scale; a non-finite node fails it.  The residual of the
    ODE and the pointwise angle read the curve's own f_prime, and the
    residual is bounded node by node too.  It is built from z_j / x_j, so
    its scale is |z_j / x_j|^(n-1): |res_j| <= TOL_ENDPOINT * (1 +
    min(rcap, |z_j / x_j|^(n-1))).  On the exact arc |z / x| = 1 / |cos
    arg z| peaks at an endpoint, so rcap = max(|z1|, |z2| / a)^(n-1).
    """
    import numpy as np
    g, n = rep.g, ctx.n
    res, theta = _ode_terms(curve.x, curve.f, curve.f_prime, ctx)
    rcap = max(abs(g.z1), abs(g.z2) / g.a) ** (n - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        level = (np.abs(_level_terms(curve.x, curve.f, ctx)[0])
                 / _node_scale(curve.x, curve.f, ctx.scale, n))
        ratio = np.abs(res) / (1.0 + _node_scale(1.0, curve.f / curve.x,
                                                 rcap, n - 1))
    # a NaN ratio propagates through the max and fails the bound below
    level_max = float(np.max(level))
    residual_ratio = float(np.max(ratio))
    residual_max = float(np.max(np.abs(res)))
    with np.errstate(over="ignore"):
        residual_l2 = float(np.sqrt(np.mean(res ** 2)))
    if not math.isfinite(residual_l2) and math.isfinite(residual_max):
        # the squares overflowed; rescaling by the max keeps them in range
        residual_l2 = residual_max * float(
            np.sqrt(np.mean((res / residual_max) ** 2)))
    osc = float(np.max(theta) - np.min(theta))
    mean = float(np.mean(theta))
    endpoint_error = float(abs(curve.f[-1] - g.p))
    passed = (residual_ratio <= TOL_ENDPOINT and osc <= TOL_ANGLE
              and abs(math.remainder(mean - ctx.theta_hat, math.tau))
              <= TOL_ANGLE
              and -n * math.pi / 2 < mean < n * math.pi / 2
              and endpoint_error <= TOL_ENDPOINT * max(1.0, abs(g.p))
              and level_max <= TOL_LEVEL)
    return VerificationReport(
        residual=res, theta_pointwise=theta, residual_max=residual_max,
        residual_l2=residual_l2, residual_ratio=residual_ratio,
        theta_oscillation=osc, theta_mean=mean,
        endpoint_error=endpoint_error, level_max=level_max, passed=passed,
    )
