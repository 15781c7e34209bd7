"""Deformed Hermitian-Yang-Mills existence tests on the blowup of P^n."""

from .charges import (ChargeReport, DegenerateGeometryError, Geometry,
                      InvalidGeometryError, charge_report, degeneracy_check,
                      theta_hat, zeta)
from .contour import ContourSet, Window, extract_level_set
from .levelcurve import (SolutionCurve, TraceError, graphical_existence,
                         level_context, same_component, trace_solution,
                         verify_solution)
from .lifting import (LiftedAngle, LiftUndefined, OriginHit, cxy_path_lift,
                      sector_lift)
from .rays import SectorVerdict, Sign, ray_set, sector_of
from .stability import (Existence, ExistenceVerdict, Overall, StabilityReport,
                        divisor_angle_bounds, existence_verdict,
                        stability_verdict, supercritical_check)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
