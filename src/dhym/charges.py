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
from typing import NamedTuple

from .tolerances import EPS_ZERO


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
    return (abs(z) ** k) * cmath.exp(1j * k * cmath.phase(z))


class _GeometryFields(NamedTuple):
    n: int
    a: float
    p: float
    q: float


class Geometry(_GeometryFields):
    """Problem instance: [omega] = a*H - E, [alpha] = p*H - q*E on Bl(P^n)."""

    __slots__ = ()

    def __new__(cls, n: int, a: float, p: float, q: float):
        if not isinstance(n, int) or n < 2:
            raise InvalidGeometryError(f"n must be an integer >= 2, got {n!r}")
        for name, v in (("a", a), ("p", p), ("q", q)):
            if not math.isfinite(v):
                raise InvalidGeometryError(f"{name} must be finite, got {v!r}")
        if not a > 1.0:
            raise InvalidGeometryError(f"a must be > 1, got {a!r}")
        return super().__new__(cls, n, a, p, q)

    @classmethod
    def _make(cls, fields):
        """Validates, so that _replace does too."""
        return cls(*fields)

    @property
    def z1(self) -> complex:
        return complex(1.0, self.q)

    @property
    def z2(self) -> complex:
        return complex(self.a, self.p)


class ChargeReport(NamedTuple):
    """The angle record of one instance, built once by charge_report; the
    verdict, trace and figure layers read it and recompute nothing."""

    g: Geometry
    zeta: complex
    theta_hat: float  # 0.0 when degenerate
    r_x: float  # |zeta|
    degenerate: bool
    psi1: float  # arg z1
    psi2: float  # arg z2
    scale: float  # max(|z1|**n, |z2|**n), for relative tolerances
    c: float  # Im(e^(-i theta_hat) z^n) at z1 and z2; 0.0 when degenerate

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


def theta_hat(g: Geometry) -> tuple[float, float]:
    """Principal average angle in [-pi, pi) and the modulus r_X of zeta.

    Raises DegenerateGeometryError when zeta vanishes to tolerance.
    """
    rep = charge_report(g)
    return rep.angle(), rep.r_x


def degeneracy_check(rep: ChargeReport) -> int | None:
    """The witnessing integer m of a degenerate record, else None.

    Degeneracy means |z2| = |z1| together with an argument gap of 2*pi*m/n;
    m = 0 means z2 ~ z1, the only degenerate record with a gap below pi/n.
    """
    if not rep.degenerate:
        return None
    return round(abs(rep.psi2 - rep.psi1) * rep.g.n / math.tau)


def charge_report(g: Geometry) -> ChargeReport:
    z = zeta(g)
    r = abs(z)
    scale = max(abs(g.z1) ** g.n, abs(g.z2) ** g.n)
    degenerate = r <= EPS_ZERO * scale
    th = c = 0.0
    if not degenerate:
        th = principal_angle(cmath.phase(z))
        # each end's value is off by about eps * |z|^n while |c| <=
        # min(|z1|, |z2|)^n, so c comes from the nearer end
        near = g.z1 if abs(g.z1) <= abs(g.z2) else g.z2
        c = (cmath.exp(-1j * th) * near ** g.n).imag
    return ChargeReport(g=g, zeta=z, theta_hat=th, r_x=r,
                        degenerate=degenerate, psi1=cmath.phase(g.z1),
                        psi2=cmath.phase(g.z2), scale=scale, c=c)
