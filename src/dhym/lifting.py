"""Lifting the average angle from the circle to the real line.

Two routes are provided, both in closed form.  The volume path
gamma(t) = (a+itp)^n - (1+itq)^n starts at the positive real number a^n - 1
and ends at zeta; when it misses the origin its continuous argument defines
a lift.  The sector deformation instead shrinks the arguments of z1 and z2
simultaneously (real parts fixed), which works whenever
|arg z2 - arg z1| < pi/n and never passes through the origin.
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import NamedTuple

from .charges import ChargeReport
from .tolerances import EPS_ANGLE


class LiftedAngle(NamedTuple):
    winding: int
    lifted: float  # theta_hat + 2*pi*winding
    method: str  # "volume_path" | "sector_path"
    margin: float  # angular slack (radians) before the route breaks down


class OriginHit(NamedTuple):
    t_star: float


class LiftUndefined(NamedTuple):
    reason: str
    detail: str = ""


def _finish_lift(rep: ChargeReport, total: float, margin: float,
                 method: str) -> LiftedAngle:
    th = rep.angle()
    # paths start on the positive real axis (argument 0)
    winding = round((total - th) / math.tau)
    lifted = th + math.tau * winding
    return LiftedAngle(winding=winding, lifted=lifted, method=method,
                       margin=margin)


@functools.lru_cache(maxsize=16)
def _roots_of_unity(n: int) -> tuple:
    # exp(2 pi i j / n), as tau j (1/n) rounds in the pinned outputs
    return tuple([cmath.exp(complex(0.0, math.tau * j * (1.0 / n)))
                  for j in range(n)])


def cxy_path_lift(rep: ChargeReport) -> LiftedAngle | OriginHit:
    """Lift via the straight volume path (a+itp)^n - (1+itq)^n, t in [0,1].

    With w_j = exp(2 pi i j / n) the path factors as
    prod_j (alpha_j + t beta_j), where alpha_j = a - w_j (never 0, as a > 1)
    and beta_j = i (p - w_j q).  Each factor runs along a straight segment,
    so its argument changes by the angle the segment subtends at the origin,
    phase((z2 - w_j z1) / (a - w_j)), and the total change is the sum.  A
    segment passes through the origin exactly when that angle reaches pi.

    Returns OriginHit when some segment's slack pi - |angle| is at most
    EPS_ANGLE; t_star is then the point of that segment nearest the origin.
    The margin of a lift is the smallest slack.
    """
    g = rep.g
    w = _roots_of_unity(g.n)
    z1, z2, a = g.z1, g.z2, g.a
    subtended = [cmath.phase((z2 - wj * z1) / (a - wj)) for wj in w]
    slack = [math.pi - abs(s) for s in subtended]
    j = min(range(g.n), key=slack.__getitem__)  # the first smallest slack
    if slack[j] <= EPS_ANGLE:
        beta = 1j * (g.p - w[j] * g.q)
        return OriginHit(
            t_star=-((g.a - w[j]) * beta.conjugate()).real / abs(beta) ** 2)
    return _finish_lift(rep, math.fsum(subtended), slack[j], "volume_path")


def sector_lift(rep: ChargeReport) -> LiftedAngle | LiftUndefined:
    """Lift via simultaneous argument shrinking of z1 and z2.

    Defined when |arg z2 - arg z1| < pi/n (minus the angular deadband); the
    margin is pi/n - |arg z2 - arg z1|.  Both points keep their real parts
    while their arguments scale linearly to zero.  Writing the path as
    z2(t)^n (1 - rho(t) e^{i t d}) with d = n (arg z1 - arg z2) and
    rho = (|z1|/|z2|)^n, the imaginary part of the second factor keeps one
    sign because |t d| < pi, so its argument stays on the principal branch
    and the lift is n arg z2 + atan2(-rho sin d, 1 - rho cos d).
    """
    g, n, psi1, psi2 = rep.g, rep.g.n, rep.psi1, rep.psi2
    gap = abs(psi2 - psi1)
    if gap >= math.pi / n - EPS_ANGLE:
        return LiftUndefined(
            reason="sector condition fails",
            detail=f"|arg z2 - arg z1| = {gap:.6f} >= pi/{n} = {math.pi / n:.6f}")

    d = n * (psi1 - psi2)
    rho = (abs(g.z1) / abs(g.z2)) ** n
    total = n * psi2 + math.atan2(-rho * math.sin(d), 1.0 - rho * math.cos(d))
    lift = _finish_lift(rep, total, math.pi / n - gap, "sector_path")
    if not -n * math.pi / 2 < lift.lifted < n * math.pi / 2:
        return LiftUndefined(
            reason="lift out of range",
            detail=f"lifted angle {lift.lifted:.6f} outside (-n pi/2, n pi/2)")
    return lift
