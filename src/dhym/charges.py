"""Central charges on the blowup of projective space at a point.

The instance is encoded by (n, a, p, q): the ambient dimension, the
Kahler class a*H - E and the real (1,1) class p*H - q*E, where H is the
hyperplane class and E the exceptional divisor.  Every charge reduces to
the two complex numbers z1 = 1 + iq and z2 = a + ip; the two-generator
intersection ring is hard-coded (E^n integrates to (-1)^(n-1)).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

from .tolerances import DEFAULT_TOL, Tolerances


class InvalidGeometryError(ValueError):
    """Raised for inputs outside the admissible (n, a, p, q) domain."""


class DegenerateGeometryError(ValueError):
    """Raised when zeta vanishes (no well-defined average angle)."""


def principal_angle(theta: float) -> float:
    """Reduce an angle to the principal branch [-pi, pi)."""
    t = math.remainder(theta, math.tau)
    return -math.pi if t >= math.pi else t


def cpow(z: complex, k: int) -> complex:
    """z**k through polar form; avoids cancellation in repeated products."""
    r = abs(z)
    if r == 0.0:
        return complex(0.0)
    return (r ** k) * cmath.exp(1j * k * cmath.phase(z))


# i**(-k) for k mod 4
_INV_I = (1 + 0j, -1j, -1 + 0j, 1j)


@dataclass(frozen=True)
class Geometry:
    """Problem instance: [omega] = a*H - E, [alpha] = p*H - q*E on Bl(P^n)."""

    n: int
    a: float
    p: float
    q: float

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 2:
            raise InvalidGeometryError(f"n must be an integer >= 2, got {self.n!r}")
        for name in ("a", "p", "q"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise InvalidGeometryError(f"{name} must be finite, got {v!r}")
        if not self.a > 1.0:
            raise InvalidGeometryError(f"a must be > 1, got {self.a!r}")

    @property
    def z1(self) -> complex:
        return complex(1.0, self.q)

    @property
    def z2(self) -> complex:
        return complex(self.a, self.p)


class SubvarietyKind(Enum):
    FULL_SPACE = "full_space"
    HYPERPLANE_POWER = "hyperplane_power"
    EXCEPTIONAL_POWER = "exceptional_power"


@dataclass(frozen=True)
class SubvarietyClass:
    """A cycle class: X itself, H^(n-k), or the effective (-1)^(n-k-1) E^(n-k).

    ``dim`` is the complex dimension k of the cycle; the orientation sign
    on exceptional powers is baked into the charge formula.
    """

    kind: SubvarietyKind
    dim: int


@dataclass(frozen=True)
class ChargeReport:
    """The angle record of one instance, built once by charge_report; the
    verdict, trace and figure layers read it and recompute nothing."""

    g: Geometry
    tol: Tolerances
    zeta: complex
    theta_hat: float  # 0.0 when degenerate
    r_x: float  # |zeta|
    degenerate: bool
    psi1: float  # arg z1
    psi2: float  # arg z2
    scale: float  # max(|z1|**n, |z2|**n), for relative tolerances

    @property
    def charges(self) -> dict:
        """Central charge of every cycle class, built on each access."""
        return {v: central_charge(self, v)
                for v in all_subvariety_classes(self.g.n)}

    def angle(self) -> float:
        """theta_hat; raises DegenerateGeometryError when zeta vanishes."""
        if self.degenerate:
            raise DegenerateGeometryError(
                f"zeta ~ 0 for {self.g} (|zeta| = {self.r_x:.3e})")
        return self.theta_hat


def zeta(g: Geometry) -> complex:
    """The total volume charge (a+ip)^n - (1+iq)^n."""
    try:  # cpow raises OverflowError when |z|^n leaves the float range
        z = cpow(g.z2, g.n) - cpow(g.z1, g.n)
        if math.isfinite(z.real) and math.isfinite(z.imag):
            return z
    except OverflowError:
        pass
    raise OverflowError(f"zeta overflow for {g}")


def theta_hat(g: Geometry, tol: Tolerances = DEFAULT_TOL) -> tuple[float, float]:
    """Principal average angle in [-pi, pi) and the modulus r_X of zeta.

    Raises DegenerateGeometryError when zeta vanishes to tolerance.
    """
    rep = charge_report(g, tol)
    return rep.angle(), rep.r_x


def central_charge(rep: ChargeReport, v: SubvarietyClass) -> complex:
    """Charge of a cycle class: -i^(-k) z2^k for H-powers, -i^(-k) z1^k for
    E-powers, and -i^(-n) zeta for the full space."""
    g = rep.g
    if v.kind is SubvarietyKind.FULL_SPACE:
        if v.dim != g.n:
            raise ValueError(f"full space must have dim n = {g.n}, got {v.dim}")
        return -_INV_I[g.n % 4] * rep.zeta
    if not 1 <= v.dim <= g.n - 1:
        raise ValueError(f"cycle dimension must lie in 1..{g.n - 1}, got {v.dim}")
    base = g.z2 if v.kind is SubvarietyKind.HYPERPLANE_POWER else g.z1
    return -_INV_I[v.dim % 4] * cpow(base, v.dim)


def degeneracy_check(rep: ChargeReport) -> int | None:
    """Return the witnessing integer m when z2^n = z1^n to tolerance, else None.

    Degeneracy means |z2| = |z1| together with an argument gap of 2*pi*m/n.
    """
    g, tol = rep.g, rep.tol
    m1, m2 = abs(g.z1), abs(g.z2)
    if abs(m2 - m1) > tol.eps_zero * max(m1, m2):
        return None
    dphi = abs(rep.psi2 - rep.psi1)
    m = round(dphi * g.n / math.tau)
    if abs(dphi - math.tau * m / g.n) > tol.eps_angle:
        return None
    return m


def all_subvariety_classes(n: int) -> list[SubvarietyClass]:
    out = [SubvarietyClass(SubvarietyKind.FULL_SPACE, n)]
    for k in range(1, n):
        out.append(SubvarietyClass(SubvarietyKind.HYPERPLANE_POWER, k))
        out.append(SubvarietyClass(SubvarietyKind.EXCEPTIONAL_POWER, k))
    return out


def charge_report(g: Geometry, tol: Tolerances = DEFAULT_TOL) -> ChargeReport:
    z = zeta(g)
    r = abs(z)
    scale = max(abs(g.z1) ** g.n, abs(g.z2) ** g.n)
    degenerate = r <= tol.eps_zero * scale
    th = principal_angle(cmath.phase(z)) if not degenerate else 0.0
    return ChargeReport(g=g, tol=tol, zeta=z, theta_hat=th, r_x=r,
                        degenerate=degenerate, psi1=cmath.phase(g.z1),
                        psi2=cmath.phase(g.z2), scale=scale)
