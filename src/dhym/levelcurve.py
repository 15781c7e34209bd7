"""Level curves of Phi(x, y) = Im(e^(-i theta_hat) (x+iy)^n), the
existence decision and the boundary-value solver.

Both endpoints (1, q) and (a, p) always share the level value c, so a
solution is a graphical arc of the level curve over [1, a], and
graphical_existence decides whether one exists.  In polar form the arc is
explicit, r(phi) = (c / sin(n phi - theta_hat))^(1/n) for phi between
arg z1 and arg z2, so trace_solution integrates nothing, and
verify_solution is the one place that measures a curve.  Every layer
reads theta_hat and c from the angle record (charges.charge_report);
only the array functions import numpy, so the verdicts run without it.
"""

from __future__ import annotations

import cmath
import math
from enum import Enum
from typing import NamedTuple

from .charges import ChargeReport
from .rays import Sign, sector_of
from .tolerances import (CURVE_SAMPLES, EPS_ANGLE, EPS_ZERO, TOL_ANGLE,
                         TOL_ENDPOINT, TOL_LEVEL)


class TraceError(RuntimeError):
    pass


class GraphicalPreconditionError(TraceError):
    """trace_solution given a verdict other than EXISTS."""


# Newton steps in y allowed to bring every node onto its level target, the
# last one included
_NEWTON_STEPS = 16


class SameComponentResult(NamedTuple):
    status: str  # "same" | "different" | "on_zero_level"
    same_ray: bool | None = None  # on the zero level only


class Existence(Enum):
    EXISTS = "exists"
    NOT_EXISTS = "not_exists"
    INCONCLUSIVE = "inconclusive"


# why a verdict is not EXISTS, one token each; the reason is "" exactly
# when the verdict is EXISTS
REASONS = ("sector_gap", "divisor_bound_fails", "deadband", "degenerate")


class ExistenceVerdict(NamedTuple):
    value: Existence
    reason: str  # "" or one of REASONS
    margin: float | None  # radians, as graphical_existence; None if degenerate


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


def level_context(rep: ChargeReport) -> None:
    """Check that (1, q) and (a, p) share the level value rep.c: the far
    end's value, computed here (charge_report takes c from the nearer end),
    must agree with it to EPS_ZERO * scale, else TraceError."""
    g, th = rep.g, rep.angle()  # raises DegenerateGeometryError
    far = g.z2 if abs(g.z1) <= abs(g.z2) else g.z1
    c_far = (cmath.exp(-1j * th) * far ** g.n).imag
    if abs(rep.c - c_far) > EPS_ZERO * rep.scale:
        raise TraceError(f"endpoint level values disagree: "
                         f"{rep.c!r} vs {c_far!r}")


def _on_zero_level(rep: ChargeReport) -> bool:
    """c = 0 to EPS_ZERO of min(|z1|, |z2|)**n, which bounds |c|; against
    the max the test would misfire whenever |z2| >> |z1|."""
    g = rep.g
    return abs(rep.c) <= EPS_ZERO * min(abs(g.z1), abs(g.z2)) ** g.n


def same_component(rep: ChargeReport) -> SameComponentResult:
    """Do the two endpoints sit on the same component of the level set?
    analyze prints the answer; no verdict reads it.  It is the top-fan rule
    of existence_verdict, with gap = |psi2 - psi1|: for c != 0 an even
    number of level-n rays lies between the ends, so they share a component
    exactly when gap < pi/n.  For c = 0 the level set is the n rays, and
    the ends share one when gap <= EPS_ANGLE.  A degenerate record raises
    DegenerateGeometryError."""
    rep.angle()  # raises DegenerateGeometryError
    gap = abs(rep.psi2 - rep.psi1)
    if _on_zero_level(rep):
        return SameComponentResult("on_zero_level", same_ray=gap <= EPS_ANGLE)
    return SameComponentResult("same" if gap < math.pi / rep.g.n
                               else "different")


def graphical_existence(rep: ChargeReport) -> ExistenceVerdict:
    """The existence decision, in the five steps existence_verdict proves
    (gap = |psi2 - psi1|): 1. gap - pi/n >= EPS_ANGLE is "sector_gap", read
    off the arguments alone; 2. past it, a degenerate record (z2 ~ z1) is
    "degenerate"; 3. a margin, the least of |gap - pi/n| and both ends'
    level-(n-1) sector margins, within EPS_ANGLE is "deadband"; 4. unless
    Phi_y > 0 at both ends, i.e. cos((n-1) psi_j - theta_hat) > 0, it is
    "divisor_bound_fails"; 5. on the zero level a gap above EPS_ANGLE is
    "deadband".  Else it is EXISTS.  The margin is gap - pi/n in step 1,
    None in step 2 and that of step 3 after it."""
    n, gap = rep.g.n, abs(rep.psi2 - rep.psi1)
    excess = gap - math.pi / n
    if excess >= EPS_ANGLE:
        return ExistenceVerdict(Existence.NOT_EXISTS, "sector_gap", excess)
    if rep.degenerate:
        return ExistenceVerdict(Existence.INCONCLUSIVE, "degenerate", None)
    s1 = sector_of(rep.psi1, n - 1, rep.theta_hat, n)
    s2 = sector_of(rep.psi2, n - 1, rep.theta_hat, n)
    margin = min(abs(excess), s1.margin, s2.margin)
    if margin <= EPS_ANGLE:
        value, reason = Existence.INCONCLUSIVE, "deadband"
    elif s1.value is not Sign.POSITIVE or s2.value is not Sign.POSITIVE:
        value, reason = Existence.NOT_EXISTS, "divisor_bound_fails"
    elif gap > EPS_ANGLE and _on_zero_level(rep):
        value, reason = Existence.INCONCLUSIVE, "deadband"
    else:
        value, reason = Existence.EXISTS, ""
    return ExistenceVerdict(value, reason, margin)


def _level_terms(x: np.ndarray, y: np.ndarray, rep: ChargeReport):
    """Phi - c and the gradient (Phi_x, Phi_y) at arrays of points."""
    import numpy as np
    n, z = rep.g.n, x + 1j * y
    u = np.exp(-1j * rep.theta_hat) * z ** (n - 1)
    return np.imag(u * z) - rep.c, n * u.imag, n * u.real


def _node_scale(x: np.ndarray, y: np.ndarray, cap: float,
                k: int) -> np.ndarray:
    """min(cap, max(1, |z|)^k) at each node.  With k = n and the instance
    scale as the cap it is the size of Phi's rounding error there.  The cap
    keeps a node that runs off from loosening its own bound; on the exact
    arc |z| peaks at an endpoint, so it never binds."""
    import numpy as np
    return np.minimum(cap, np.maximum(1.0, np.hypot(x, y)) ** k)


def _arc_seed(rep: ChargeReport, xs: np.ndarray) -> np.ndarray:
    """y above each x on the polar arc sampled from arg z1 to arg z2, its
    ends pinned to (1, q) and (a, p).  A graphical arc has a monotone
    abscissa, so one interpolation seeds every node.  y is r sin(phi), as
    x tan(phi) caps |y / x| near 1e16, where phi rounds to +-pi/2."""
    import numpy as np
    g, n = rep.g, rep.g.n
    phi = np.linspace(rep.psi1, rep.psi2, CURVE_SAMPLES)
    # sin(n phi - theta_hat) has the sign of c between the endpoint
    # arguments; the floor keeps a rounding slip near either end finite
    s = np.maximum(math.copysign(1.0, rep.c) * np.sin(n * phi - rep.theta_hat),
                   np.finfo(float).tiny)
    r = abs(rep.c) ** (1.0 / n) * s ** (-1.0 / n)
    ax, ay = r * np.cos(phi), r * np.sin(phi)
    ax[0], ay[0], ax[-1], ay[-1] = 1.0, g.q, g.a, g.p
    return np.interp(xs, ax, ay)


def _ode_terms(x, f, fp, rep: ChargeReport):
    """Residual Im(e^(-i theta_hat) (1 + i f/x)^(n-1) (1 + i f')) of the ODE
    and the pointwise angle (n-1) arctan(f/x) + arctan(f')."""
    import numpy as np
    n, zr = rep.g.n, 1.0 + 1j * f / x
    res = np.imag(np.exp(-1j * rep.theta_hat) * zr ** (n - 1) * (1.0 + 1j * fp))
    return res, (n - 1) * np.arctan2(f, x) + np.arctan(fp)


def trace_solution(rep: ChargeReport, verdict: ExistenceVerdict) -> SolutionCurve:
    """Solve the level curve Phi = c on x = linspace(1, a, CURVE_SAMPLES).

    All nodes at once, with no search: each is seeded from the closed-form
    polar arc, or from the common ray on the zero level.  Newton steps in y
    on every node bring |Phi - c| within TOL_LEVEL * min(scale, max(1,
    |z_j|)^n) at each node z_j, the bound verify_solution checks, and one
    step more then takes each node to full precision.  The slope is the
    exact level-set slope -Phi_x / Phi_y at the final nodes.  It decides
    nothing: after level_context it raises GraphicalPreconditionError
    unless the caller's verdict, existence_verdict(rep), is EXISTS.
    """
    import numpy as np
    g = rep.g
    level_context(rep)
    if verdict.value is not Existence.EXISTS:
        raise GraphicalPreconditionError(
            f"existence is {verdict.value.value} ({verdict.reason})")
    xs = np.linspace(1.0, g.a, CURVE_SAMPLES)
    # an overflow leaves NaN or inf terms, which the polish reports by name
    with np.errstate(over="ignore", invalid="ignore"):
        if _on_zero_level(rep):
            y = g.q * xs  # the common ray; exact when c is exactly zero
        else:
            y = _arc_seed(rep, xs)
        on_level = False
        for _ in range(_NEWTON_STEPS):
            r, gx, gy = _level_terms(xs, y, rep)
            finite = np.isfinite(r) & np.isfinite(gx) & np.isfinite(gy)
            if not np.all(finite):
                raise TraceError(f"level terms overflow at "
                                 f"x={float(xs[np.argmin(finite)])!r}")
            vertical = np.abs(gy) <= 1e-12 * np.hypot(gx, gy)
            if np.any(vertical):
                raise TraceError(f"vertical tangent at "
                                 f"x={float(xs[np.argmax(vertical)])!r}")
            if on_level:
                break
            off = np.abs(r) > TOL_LEVEL * _node_scale(xs, y, rep.scale, g.n)
            on_level = not np.any(off)
            y = y - r / gy
        else:
            raise TraceError(f"level polish did not converge at "
                             f"x={float(xs[np.argmax(off)])!r}")
    return SolutionCurve(x=xs, f=y, f_prime=-gx / gy)


def verify_solution(curve: SolutionCurve,
                    rep: ChargeReport) -> VerificationReport:
    """Independent check of a traced curve against the original equation,
    and the one place its figures are computed.

    theta_hat and c come from the angle record, so from the input, never
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
    g, n, th = rep.g, rep.g.n, rep.angle()
    res, theta = _ode_terms(curve.x, curve.f, curve.f_prime, rep)
    rcap = max(abs(g.z1), abs(g.z2) / g.a) ** (n - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        level = (np.abs(_level_terms(curve.x, curve.f, rep)[0])
                 / _node_scale(curve.x, curve.f, rep.scale, n))
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
              and abs(math.remainder(mean - th, math.tau)) <= TOL_ANGLE
              and -n * math.pi / 2 < mean < n * math.pi / 2
              and endpoint_error <= TOL_ENDPOINT * max(1.0, abs(g.p))
              and level_max <= TOL_LEVEL)
    return VerificationReport(
        residual=res, theta_pointwise=theta, residual_max=residual_max,
        residual_l2=residual_l2, residual_ratio=residual_ratio,
        theta_oscillation=osc, theta_mean=mean,
        endpoint_error=endpoint_error, level_max=level_max, passed=passed,
    )
