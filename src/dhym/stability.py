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

from .charges import ChargeReport, degeneracy_check
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


class ExistenceVerdict(NamedTuple):
    value: Existence
    route: Route
    notes: dict
    # what the verdict was decided from; None for a degenerate record
    stability: StabilityReport | None = None
    lift: LiftedAngle | LiftUndefined | None = None


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
                         lift: LiftedAngle) -> tuple[float, str | None]:
    """The margin min over the divisors H and E of
    pi/2 - |((n-1) arg z) - lifted|, and the divisor that attains it.
    Both bounds hold when the margin is positive."""
    margin = math.inf
    which = None
    for name, psi in (("H", rep.psi2), ("E", rep.psi1)):
        ang = (rep.g.n - 1) * psi
        m = math.pi / 2 - abs(ang - lift.lifted)
        if m < margin:
            margin, which = m, name
    return margin, which


def existence_verdict(rep: ChargeReport) -> ExistenceVerdict:
    """The existence decision for the record.

    The lift route is authoritative: existence iff the sector lift is
    defined and both divisor bounds hold.  When the lift is undefined we
    report inconclusive rather than non-existence, since a different path
    could in principle still define a lift.  Stability is recorded and used
    as an independent certificate when the lift route is marginal.

    The verdict carries the stability report and the sector lift it was
    decided from; a degenerate record gets neither, and only ``rep`` is read.
    """
    if rep.degenerate:
        return ExistenceVerdict(
            Existence.INCONCLUSIVE, Route.DEGENERATE,
            notes={"degenerate_m": degeneracy_check(rep), "r_x": rep.r_x})
    stab, lift = stability_verdict(rep), sector_lift(rep)
    stable = stab.overall is Overall.STABLE
    notes: dict = {"lemma_stability": stab.overall.value}

    def verdict(value: Existence, route=Route.THEOREM_BICONDITIONAL):
        return ExistenceVerdict(value, route, notes, stab, lift)

    if isinstance(lift, LiftUndefined):
        notes["lift"] = "undefined"
        notes["lift_reason"] = lift.reason
        notes["lift_detail"] = lift.detail
        if stable:
            # stability guarantees the sector condition; reaching this branch
            # means the gap sits inside the angular deadband
            notes["anomaly"] = "stable but sector lift undefined (knife edge)"
        return verdict(Existence.INCONCLUSIVE)

    notes["lift"] = lift.lifted
    notes["winding"] = lift.winding
    notes["supercritical"] = supercritical_check(lift, rep.g.n)
    margin, which = divisor_angle_bounds(rep, lift)
    notes["divisor_margin"] = margin
    if margin > EPS_ANGLE:
        route = (Route.THEOREM_SUFFICIENT if stable
                 else Route.THEOREM_BICONDITIONAL)
        notes["also_certified_by_stability"] = stable
        notes["sufficient_route"] = route.value
        return verdict(Existence.EXISTS)
    if margin < -EPS_ANGLE:
        if stable:
            notes["anomaly"] = "stable yet divisor bound fails"
            return verdict(Existence.INCONCLUSIVE)
        notes["failed_divisor"] = which
        return verdict(Existence.NOT_EXISTS)
    # marginal divisor bound: |margin| <= EPS_ANGLE
    notes["divisor_bound"] = "marginal"
    if stable:
        return verdict(Existence.EXISTS, Route.THEOREM_SUFFICIENT)
    return verdict(Existence.INCONCLUSIVE)
