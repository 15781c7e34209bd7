"""Stability and the lifted-angle certificate, and the existence decision.

Per-dimension stability asks that Im(i^(n-k) e^(-i theta_hat) z^k) keep
one sign over both generators z1 = 1+iq, z2 = a+ip, for every k in
1..n-1; the paper proves it sufficient.  The lifted-angle form
(Collins-Jacob-Yau) asks that both divisor angles (n-1)*arg(z) fall within
pi/2 of the sector lift.  Neither decides: analyze and sweep print both
as certificates, and existence_verdict, proved in its docstring, is
levelcurve.graphical_existence.  Everything here reads the angle record
(charges.charge_report) and recomputes none of it.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .charges import ChargeReport
from .levelcurve import Existence, ExistenceVerdict, graphical_existence
from .lifting import LiftedAngle
from .rays import SectorVerdict, Sign, sector_of


class KVerdict(Enum):
    POSITIVE_STABLE = "positive_stable"
    NEGATIVE_STABLE = "negative_stable"
    UNSTABLE = "unstable"
    INCONCLUSIVE = "inconclusive"


class Overall(Enum):
    STABLE = "stable"
    UNSTABLE = "unstable"
    INCONCLUSIVE = "inconclusive"


class PerK(NamedTuple):
    sign_h: SectorVerdict  # sector of z2 = a+ip
    sign_e: SectorVerdict  # sector of z1 = 1+iq
    verdict: KVerdict


class StabilityReport(NamedTuple):
    per_k: dict[int, PerK]
    overall: Overall


def _combine(sh: SectorVerdict, se: SectorVerdict) -> KVerdict:
    if sh.value is Sign.ON_RAY or se.value is Sign.ON_RAY:
        return KVerdict.INCONCLUSIVE
    if sh.value is se.value:
        return (KVerdict.POSITIVE_STABLE if sh.value is Sign.POSITIVE
                else KVerdict.NEGATIVE_STABLE)
    return KVerdict.UNSTABLE


def stability_verdict(rep: ChargeReport) -> StabilityReport:
    """Per-dimension one-signedness of both generators, combined overall."""
    th = rep.angle()  # raises DegenerateGeometryError
    n = rep.g.n
    per_k = {}
    overall = Overall.STABLE  # until a k is unstable or inconclusive
    for k in range(1, n):
        sh = sector_of(rep.psi2, k, th, n)
        se = sector_of(rep.psi1, k, th, n)
        verdict = _combine(sh, se)
        per_k[k] = PerK(sign_h=sh, sign_e=se, verdict=verdict)
        if verdict is KVerdict.UNSTABLE:
            overall = Overall.UNSTABLE
        elif verdict is KVerdict.INCONCLUSIVE and overall is Overall.STABLE:
            overall = Overall.INCONCLUSIVE
    return StabilityReport(per_k=per_k, overall=overall)


def supercritical_check(lift: LiftedAngle, n: int) -> bool:
    """True when the lifted angle sits strictly in ((n-2) pi/2, n pi/2)."""
    return (n - 2) * math.pi / 2 < lift.lifted < n * math.pi / 2


def divisor_angle_bounds(rep: ChargeReport,
                         lift: LiftedAngle) -> tuple[float, str]:
    """The margin min over the divisors H and E of
    pi/2 - |((n-1) arg z) - lifted|, and the divisor that attains it, H on
    a tie.  Both bounds hold when the margin is positive."""
    n = rep.g.n
    h = math.pi / 2 - abs((n - 1) * rep.psi2 - lift.lifted)
    e = math.pi / 2 - abs((n - 1) * rep.psi1 - lift.lifted)
    return (h, "H") if h <= e else (e, "E")


def existence_verdict(rep: ChargeReport) -> ExistenceVerdict:
    """levelcurve.graphical_existence, whose five steps hold for these
    reasons, with th = theta_hat, Phi = Im(e^(-i th) z^n), psi_j = arg z_j
    and gap = |psi2 - psi1|:

    - dHYM solutions are unique in their class (Jacob-Yau, Math. Ann.
      2017).  The U(n) fixing the blown-up point preserves omega and
      [alpha], so a solution is U(n)-invariant, of Calabi form.  The ODE's
      residual is x^(1-n) (Phi_x + f' Phi_y) / n, so a solution is an
      x-monotone arc of Phi = c from z1 to z2, and without one none exists.
    - Top fan.  Phi = 0 on the level-n rays, pi/n apart; an arc from z1 to
      z2 in x > 0 meets every ray strictly between psi1 and psi2.  A gap of
      pi/n or more holds one in its closure.  One at an end makes c = 0, and
      on Phi = 0 an arc keeps to one ray, so gap = 0: no arc ("sector_gap").
      For c != 0, sin(n psi_j - th) has the sign of c at both ends, so an
      even number of rays lies between; below pi/n at most one fits, so
      none does, and both ends lie on the one component r(phi) = (c /
      sin(n phi - th))^(1/n).  Parity decides, so the top fan needs no
      on-ray deadband: when |z2| >> |z1| the far end sits within 1e-10 rad
      of a top ray although c != 0.
    - Degeneracy.  zeta = 0 gives z2 = w z1 with w^n = 1, w != 1 as a > 1,
      and both arguments lie in (-pi/2, pi/2), so gap = 2 pi |m| / n with m
      != 0: "sector_gap", with an excess of at least pi/n.  Only a record
      degenerate in floats, with z2 ~ z1, gets past the gap ("degenerate").
    - Vertical tangents.  Phi_y = n |z|^(n-1) cos((n-1) phi - th) vanishes
      exactly on the level-(n-1) rays, changing sign.  One between the ends
      turns the arc back in x ("divisor_bound_fails").  With none the arc
      is a graph (on c = 0, the common ray), with Phi_y > 0: |zeta| =
      e^(-i th) zeta is the integral over [1, a] of n |u|^2 / Re u dx, with
      u = e^(-i th) z^(n-1).  Below pi/n < pi/(n-1) at most one such ray
      fits between the ends, so two signs decide: Phi_y > 0 at both.
    - The certificate.  The sector lift is L = n psi2 + A, with A =
      Arg(1 - rho e^(id)), d = n (psi1 - psi2) and |d| < pi.  A positive
      combination of 1 and -e^(id) puts A between 0 and d - pi sign(d), so
      (n-1) psi2 - L = -psi2 - A and (n-1) psi1 - L = -psi1 + (d - A) lie
      in (-3 pi/2, 3 pi/2).  As L = th mod 2 pi, the divisor bound
      |(n-1) psi_j - L| < pi/2 holds exactly when Phi_y(z_j) > 0, so the
      divisor margin has the verdict's sign.
    """
    return graphical_existence(rep)
