"""Numerical tolerances shared across the solver.

All verdict-producing routines take a Tolerances instance so that
knife-edge inputs degrade to explicit "inconclusive" results instead of
flipping booleans.  The defaults are scale-relative where magnitudes can
grow like max(|1+iq|, |a+ip|)**n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields


@dataclass(frozen=True)
class Tolerances:
    # zeta / level-value deadband, relative to max(|z1|**n, |z2|**n)
    eps_zero: float = 1e-9
    # angular deadband (radians) for on-ray / sector-boundary classification
    eps_angle: float = 1e-8
    # level adherence |Phi - c| at every traced node, relative to scale
    tol_level: float = 1e-10
    # endpoint error budget, relative to max(1, |p|)
    tol_endpoint: float = 1e-6
    # pointwise-angle oscillation budget along an accepted curve (radians)
    tol_angle: float = 1e-6
    # number of samples in an emitted solution curve (>= 257)
    curve_samples: int = 257

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name == "curve_samples":
                if isinstance(v, bool) or not isinstance(v, int) or v < 257:
                    raise ValueError(
                        f"curve_samples must be an integer >= 257, got {v!r}")
            elif (isinstance(v, bool) or not isinstance(v, (int, float))
                  or not math.isfinite(v) or v <= 0):
                raise ValueError(
                    f"{f.name} must be a finite positive number, got {v!r}")


DEFAULT_TOL = Tolerances()
