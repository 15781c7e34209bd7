"""Deterministic SVG rendering of level sets, rays, and traced solutions.

Output is plain SVG 1.1 text with coordinates rounded to 1e-3 pixels, so
identical inputs produce byte-identical documents.  Every coordinate of a
figure (ray ends, contour nodes, the traced curve and the endpoints) is
mapped to pixels and formatted once, in one array pass whose text is what
Python's ``"%.3f"`` prints; Python's own formatting decides every tie.
numpy is imported where it is used, so importing dhym.cli does not load it.
"""

from __future__ import annotations

import functools
import math

from .charges import ChargeReport
from .config import FigureSpec
from .contour import Window, extract_level_set
from .levelcurve import SolutionCurve
from .rays import ray_set

_W = 640
_H = 640


def _fixed(v: float) -> str:
    """v with three decimals, -0.000 written as 0.000."""
    s = "%.3f" % v
    return "0.000" if s == "-0.000" else s


@functools.cache
def _digit_words():
    """uint32 tables of 4-byte text groups, NUL where a digit is blank:
    the thousands-and-up group of the integer part; its units-to-hundreds
    group and the point, unpadded then (offset 1000) zero-padded behind a
    higher group; the decimals and the comma after an x, then (offset
    1000) the space after a y; and the minus sign."""
    import numpy as np

    def words(groups):
        return np.frombuffer("".join(groups).encode("ascii"), dtype=np.uint32)

    high = words(str(i).rjust(4, "\0") if i else "\0" * 4 for i in range(10000))
    units = words([str(i).rjust(3, "\0") + "." for i in range(1000)]
                  + [f"{i:03}." for i in range(1000)])
    decimals = words([f"{i:03}," for i in range(1000)]
                     + [f"{i:03} " for i in range(1000)])
    return high, units, decimals, words("-\0\0\0")[0]


def _fixed_pairs(flat) -> list:
    """"x,y" strings of the float64 pixel pairs flat = [x0, y0, x1, ...],
    each number as _fixed prints it.

    k = rint(1000 v) is what "%.3f" rounds to unless 1000 v is within an
    ulp of a half-integer, |k| >= 1e10 or v is not finite; a pair holding
    such a value is printed by _fixed.
    """
    import numpy as np
    high, units, decimals, minus = _digit_words()
    with np.errstate(over="ignore", invalid="ignore"):
        y = flat * 1000.0
        k = np.rint(y)
        doubt = ~(np.abs(k) < 1e10)
        doubt |= np.abs(y - np.floor(y) - 0.5) <= np.spacing(np.abs(y))
    k[doubt] = 0.0  # keeps the cast finite and the table indices in range
    k = k.astype(np.int64)
    hi, rest = np.divmod(np.abs(k), 1000000)
    lo, dec = np.divmod(rest, 1000)
    dec[1::2] += 1000  # a y closes its pair with a space
    words = np.empty((len(k), 4), dtype=np.uint32)
    words[:, 0] = np.where(k < 0, minus, 0)  # k == 0 drops the sign of -0.000
    words[:, 1] = high[hi]
    words[:, 2] = units[lo + 1000 * (hi > 0)]
    words[:, 3] = decimals[dec]
    pairs = words.tobytes().translate(None, b"\0").decode("ascii").split()
    for p in np.unique(np.flatnonzero(doubt) >> 1).tolist():
        pairs[p] = f"{_fixed(flat[2 * p])},{_fixed(flat[2 * p + 1])}"
    return pairs


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
    import numpy as np
    g, th, window = rep.g, rep.angle(), spec.window

    # dotted rays of the top fan (the zero level of Phi), then dashed rays
    # of the next fan down (the vertical-tangent locus)
    rays, ray_ends = [], []
    for name, k, color, dash in (("top", g.n, "#888888", "2,4"),
                                 ("vertical", g.n - 1, "#bb4444", "8,4")):
        style = f"stroke:{color};stroke-width:1;stroke-dasharray:{dash}"
        for phi_ang in ray_set(k, th, g.n):
            seg = _clip_ray(phi_ang, window)
            if seg:
                rays.append((f"ray-{name}", style))
                ray_ends.extend(seg)
    contours = extract_level_set(rep, window, spec.samples)

    # every coordinate is mapped and formatted once, contour nodes first so
    # that a chain's node rows index their strings
    blocks = [contours.points, np.reshape(ray_ends, (-1, 2))]
    if curve is not None:
        blocks.append(np.column_stack((curve.x, curve.f)))
    blocks.append([(1.0, g.q), (g.a, g.p)])
    x, y = np.concatenate(blocks).T
    sx = _W / (window.xmax - window.xmin)
    sy = _H / (window.ymax - window.ymin)
    # a window narrower than 640 / DBL_MAX maps to inf or nan, printed as such
    with np.errstate(over="ignore", invalid="ignore"):
        pixels = np.column_stack(((x - window.xmin) * sx,
                                  _H - (y - window.ymin) * sy))
    pairs = _fixed_pairs(pixels.ravel())
    m = len(contours.points)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_W}" height="{_H}" viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
    ]
    for i, (cls, style) in enumerate(rays):
        parts.append(_polyline(pairs[m + 2 * i:m + 2 * i + 2], cls, style))
    # a loop's closing node reuses its start's string
    for chain in contours.chains:
        parts.append(_polyline(map(pairs.__getitem__, chain), "level",
                               "stroke:#3465a4;stroke-width:1.5"))
    if curve is not None:
        parts.append(_polyline(pairs[m + len(ray_ends):-2], "solution",
                               "stroke:#2a7d2a;stroke-width:2.5"))
    for pair in pairs[-2:]:
        cx, cy = pair.split(",")
        parts.append(f'<circle class="endpoint" cx="{cx}" cy="{cy}" r="4" '
                     f'fill="#cc4400"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
