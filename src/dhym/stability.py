"""Stability verdicts and the existence decision.

Per-dimension stability asks that Im(i^(n-k) e^(-i theta_hat) z^k) keep
one sign over both generators z1 = 1+iq, z2 = a+ip; one-signedness for
every k in 1..n-1 suffices for a solution (the sign may differ across k).
The necessary-and-sufficient route instead checks that the average angle
lifts and that both divisor angles (n-1)*arg(z) fall within pi/2 of the
lifted angle.  existence_verdict is the one existence decision: it runs
both routes once and returns them with the verdict.  The volume-path lift
decides nothing and is not read here.  Every function here reads the
instance's angle record (charges.charge_report) and recomputes none of it.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .charges import ChargeReport
from .lifting import LiftedAngle, LiftUndefined, sector_lift
from .rays import SectorVerdict, Sign, sector_of
from .tolerances import EPS_ANGLE


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


class Existence(Enum):
    EXISTS = "exists"
    NOT_EXISTS = "not_exists"
    INCONCLUSIVE = "inconclusive"


class Route(Enum):
    THEOREM_SUFFICIENT = "stability_sufficient"
    THEOREM_BICONDITIONAL = "lift_and_divisor_bounds"
    DEGENERATE = "degenerate"


# why a verdict is not EXISTS, one token each; the reason is "" exactly
# when the verdict is EXISTS
REASONS = ("divisor_bound_fails", "degenerate", "lift_undefined",
           "divisor_bound_marginal", "stable_but_lift_undefined",
           "stable_but_divisor_fails")


class ExistenceVerdict(NamedTuple):
    value: Existence
    route: Route
    reason: str  # "" or one of REASONS
    # what the verdict was decided from; None for a degenerate record, and
    # divisor is divisor_angle_bounds of the lift, None when it is undefined
    stability: StabilityReport | None = None
    lift: LiftedAngle | LiftUndefined | None = None
    divisor: tuple[float, str] | None = None


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
    for k in range(1, n):
        sh = sector_of(rep.psi2, k, th, n)
        se = sector_of(rep.psi1, k, th, n)
        per_k[k] = PerK(sign_h=sh, sign_e=se, verdict=_combine(sh, se))
    verdicts = {p.verdict for p in per_k.values()}
    if verdicts <= {KVerdict.POSITIVE_STABLE, KVerdict.NEGATIVE_STABLE}:
        overall = Overall.STABLE
    elif KVerdict.UNSTABLE in verdicts:
        overall = Overall.UNSTABLE
    else:
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
    """The existence decision for the record.

    The lift route is authoritative: existence iff the sector lift is
    defined and both divisor bounds hold.  When the lift is undefined we
    report inconclusive rather than non-existence, since a different path
    could in principle still define a lift.  Stability is used as an
    independent certificate when the divisor bound is marginal; where it
    contradicts the lift route the verdict is inconclusive.

    The verdict carries the stability report, the sector lift and the
    divisor bound it was decided from; a degenerate record gets none of
    them, and only ``rep`` is read.
    """
    if rep.degenerate:
        return ExistenceVerdict(Existence.INCONCLUSIVE, Route.DEGENERATE,
                                "degenerate")
    stab, lift = stability_verdict(rep), sector_lift(rep)
    stable = stab.overall is Overall.STABLE
    if isinstance(lift, LiftUndefined):
        # stability guarantees the sector condition; a stable record here
        # has its gap inside the angular deadband
        return ExistenceVerdict(
            Existence.INCONCLUSIVE, Route.THEOREM_BICONDITIONAL,
            "stable_but_lift_undefined" if stable else "lift_undefined",
            stab, lift)
    divisor = divisor_angle_bounds(rep, lift)
    route = Route.THEOREM_BICONDITIONAL
    if divisor[0] > EPS_ANGLE:
        value, reason = Existence.EXISTS, ""
    elif divisor[0] < -EPS_ANGLE:
        value, reason = ((Existence.INCONCLUSIVE, "stable_but_divisor_fails")
                         if stable else
                         (Existence.NOT_EXISTS, "divisor_bound_fails"))
    elif stable:  # a marginal divisor bound, |margin| <= EPS_ANGLE
        value, reason, route = Existence.EXISTS, "", Route.THEOREM_SUFFICIENT
    else:
        value, reason = Existence.INCONCLUSIVE, "divisor_bound_marginal"
    return ExistenceVerdict(value, route, reason, stab, lift, divisor)
