"""Deterministic SVG rendering of level sets, rays, and traced solutions.

Output is plain SVG 1.1 text with coordinates rounded to 1e-3 pixels, so
identical inputs produce byte-identical documents.  numpy is imported
where it is used, so importing dhym.cli does not load it.
"""

from __future__ import annotations

import math

from .charges import ChargeReport
from .config import FigureSpec
from .contour import Window, extract_level_set
from .levelcurve import LevelSetContext, SolutionCurve
from .rays import ray_set

_W = 640
_H = 640


class FigureError(ValueError):
    pass


def _fmt(v: float) -> str:
    s = f"{v:.3f}"
    return "0.000" if s == "-0.000" else s


class _Mapper:
    def __init__(self, window: Window):
        self.window = window
        self.sx = _W / (window.xmax - window.xmin)
        self.sy = _H / (window.ymax - window.ymin)

    def __call__(self, x, y):
        """Pixel coordinates of scalars or arrays of window coordinates."""
        return ((x - self.window.xmin) * self.sx,
                _H - (y - self.window.ymin) * self.sy)


def _polyline(points, cls: str, style: str, mapper: _Mapper) -> str:
    import numpy as np
    px, py = mapper(*np.asarray(points, dtype=float).T)
    flat = np.column_stack([px, py]).ravel().tolist()
    # with three decimals per number, a match is always a whole coordinate
    coords = ("%.3f,%.3f " * len(px) % tuple(flat))[:-1].replace("-0.000", "0.000")
    return f'<polyline class="{cls}" points="{coords}" style="{style}" fill="none"/>'


def _clip_ray(phi: float, window: Window):
    """Portion of the ray {r e^(i phi): r >= 0} inside the window, or None."""
    dx, dy = math.cos(phi), math.sin(phi)
    t_lo, t_hi = 0.0, math.inf
    for d, lo, hi in ((dx, window.xmin, window.xmax),
                      (dy, window.ymin, window.ymax)):
        if abs(d) < 1e-15:
            if not lo <= 0.0 <= hi:
                return None
            continue
        t0, t1 = lo / d, hi / d
        if t0 > t1:
            t0, t1 = t1, t0
        t_lo, t_hi = max(t_lo, t0), min(t_hi, t1)
    if t_hi <= t_lo:
        return None
    return ((t_lo * dx, t_lo * dy), (t_hi * dx, t_hi * dy))


def render_figure(rep: ChargeReport, ctx: LevelSetContext, spec: FigureSpec,
                  curve: SolutionCurve | None = None) -> str:
    """Level-set figure: rays, contour polylines, solution, endpoint markers."""
    import numpy as np
    g, window = rep.g, spec.window
    for name, (x, y) in (("(1,q)", (1.0, g.q)), (("(a,p)"), (g.a, g.p))):
        if not window.contains(x, y):
            raise FigureError(f"figure window must contain endpoint {name}")
    mapper = _Mapper(window)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_W}" height="{_H}" viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
    ]

    # dotted rays of the top fan (the zero level of Phi), then dashed rays
    # of the next fan down (the vertical-tangent locus)
    for name, k, color, dash in (("top", g.n, "#888888", "2,4"),
                                 ("vertical", g.n - 1, "#bb4444", "8,4")):
        style = f"stroke:{color};stroke-width:1;stroke-dasharray:{dash}"
        for phi_ang in ray_set(k, ctx.theta_hat, g.n):
            seg = _clip_ray(phi_ang, window)
            if seg:
                parts.append(_polyline(seg, f"ray-{name}", style, mapper))

    contours = extract_level_set(ctx, window, spec.samples, spec.samples)
    for poly in contours.polylines:
        parts.append(_polyline(
            poly, "level", "stroke:#3465a4;stroke-width:1.5", mapper))

    if curve is not None:
        pts = np.column_stack([curve.x, curve.f])
        parts.append(_polyline(
            pts, "solution", "stroke:#2a7d2a;stroke-width:2.5", mapper))

    for x, y in ((1.0, g.q), (g.a, g.p)):
        px, py = mapper(x, y)
        parts.append(f'<circle class="endpoint" cx="{_fmt(px)}" '
                     f'cy="{_fmt(py)}" r="4" fill="#cc4400"/>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
