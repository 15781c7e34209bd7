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
from .levelcurve import SolutionCurve
from .rays import ray_set

_W = 640
_H = 640


def _pairs(flat) -> list:
    """"x,y" strings of the pixel pairs in flat = (x0, y0, x1, y1, ...),
    three decimals per number and -0.000 written as 0.000."""
    # with three decimals per number, a match is always a whole coordinate
    text = "%.3f,%.3f " * (len(flat) // 2) % tuple(flat)
    return text.replace("-0.000", "0.000").split()


class _Mapper:
    def __init__(self, window: Window):
        self.window = window
        self.sx = _W / (window.xmax - window.xmin)
        self.sy = _H / (window.ymax - window.ymin)

    def __call__(self, x, y):
        """Pixel coordinates of scalars or arrays of window coordinates."""
        return ((x - self.window.xmin) * self.sx,
                _H - (y - self.window.ymin) * self.sy)


def _pixels(mapper: _Mapper, x, y) -> list:
    """Formatted pixel pairs of the window coordinate arrays x and y."""
    import numpy as np
    return _pairs(np.column_stack(mapper(x, y)).ravel().tolist())


def _polyline(pairs, cls: str, style: str) -> str:
    coords = " ".join(pairs)
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


def render_figure(rep: ChargeReport, spec: FigureSpec,
                  curve: SolutionCurve | None = None) -> str:
    """Level-set figure: rays, contour polylines, solution, endpoint markers."""
    g, th, window = rep.g, rep.angle(), spec.window
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
        for phi_ang in ray_set(k, th, g.n):
            seg = _clip_ray(phi_ang, window)
            if seg:
                (x0, y0), (x1, y1) = seg
                parts.append(_polyline(_pairs(mapper(x0, y0) + mapper(x1, y1)),
                                       f"ray-{name}", style))

    # every crossing is mapped and formatted once; a loop's closing node
    # reuses its start's string
    contours = extract_level_set(rep, window, spec.samples)
    nodes = _pixels(mapper, *contours.points.T)
    for chain in contours.chains:
        parts.append(_polyline(map(nodes.__getitem__, chain), "level",
                               "stroke:#3465a4;stroke-width:1.5"))

    if curve is not None:
        parts.append(_polyline(_pixels(mapper, curve.x, curve.f), "solution",
                               "stroke:#2a7d2a;stroke-width:2.5"))

    for x, y in ((1.0, g.q), (g.a, g.p)):
        cx, cy = _pairs(mapper(x, y))[0].split(",")
        parts.append(f'<circle class="endpoint" cx="{cx}" cy="{cy}" r="4" '
                     f'fill="#cc4400"/>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
