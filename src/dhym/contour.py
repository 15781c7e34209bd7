"""Marching-squares extraction of level-set polylines.

This is the brute-force oracle for component questions: it never looks at
ray combinatorics, only at signs of Phi - c on a grid.  Numpy classifies
the cells and interpolates the crossed edges; Python only walks the
segments of crossed cells, which are keyed by the grid edge they cross,
so chains stitch together exactly and each connected component of the
level set inside the window becomes one polyline (open chain or loop).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .levelcurve import LevelSetContext

# local corner order: 0=(i,j), 1=(i+1,j), 2=(i+1,j+1), 3=(i,j+1)
# local edge ids and the corners they join
_EDGE_CORNERS = ((0, 1), (1, 2), (3, 2), (0, 3))
# edges adjacent to each corner, used to carve off saddle corners
_CORNER_EDGES = ((0, 3), (0, 1), (1, 2), (2, 3))


def _cell_segments(signs, center_positive: bool):
    """Edge-id pairs to join in one cell given the 4 corner signs."""
    crossed = [e for e, (ca, cb) in enumerate(_EDGE_CORNERS)
               if signs[ca] != signs[cb]]
    if not crossed:
        return ()
    if len(crossed) == 2:
        return (tuple(crossed),)
    # saddle: both diagonals uniform; carve off the corners whose sign
    # disagrees with the cell center
    minority = [c for c in range(4) if signs[c] != center_positive]
    return tuple(_CORNER_EDGES[c] for c in minority)


def _segment_table() -> np.ndarray:
    """Local edge pairs per cell, indexed by 2 * case + (center > 0); a
    cell has at most two segments and unused slots hold -1."""
    table = np.full((32, 2, 2), -1)
    for key in range(32):
        signs = [bool(key >> (k + 1) & 1) for k in range(4)]
        for s, pair in enumerate(_cell_segments(signs, bool(key & 1))):
            table[key, s] = pair
    return table


_SEGMENTS = _segment_table()


@dataclass(frozen=True)
class Window:
    xmin: float
    xmax: float
    ymin: float
    ymax: float

    def contains(self, x: float, y: float) -> bool:
        return self.xmin <= x <= self.xmax and self.ymin <= y <= self.ymax


@dataclass
class ContourSet:
    polylines: list  # list of (m, 2) float arrays
    cell_diag: float

    def component_near(self, point, radius: float | None = None) -> int | None:
        """Index of the polyline within radius (default 2 cell diagonals)."""
        if radius is None:
            radius = 2.0 * self.cell_diag
        p = np.asarray(point, dtype=float)
        best, best_d = None, radius
        for idx, poly in enumerate(self.polylines):
            d = _point_polyline_distance(p, poly)
            if d <= best_d:
                best, best_d = idx, d
        return best

    def same_component(self, p1, p2, radius: float | None = None) -> bool | None:
        """True/False when both points locate on a polyline, else None."""
        c1 = self.component_near(p1, radius)
        c2 = self.component_near(p2, radius)
        if c1 is None or c2 is None:
            return None
        return c1 == c2


def _point_polyline_distance(p: np.ndarray, poly: np.ndarray) -> float:
    a = poly[:-1]
    b = poly[1:]
    if len(poly) == 1:
        return float(np.hypot(*(poly[0] - p)))
    ab = b - a
    ap = p[None, :] - a
    denom = np.einsum("ij,ij->i", ab, ab)
    t = np.clip(np.divide(np.einsum("ij,ij->i", ap, ab), denom,
                          out=np.zeros_like(denom), where=denom > 0), 0.0, 1.0)
    proj = a + t[:, None] * ab
    d = np.hypot(proj[:, 0] - p[0], proj[:, 1] - p[1])
    return float(d.min())


def marching_squares(values: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> list:
    """Polylines of the zero level of ``values`` sampled at xs x ys.

    values[i, j] corresponds to (xs[i], ys[j]).  Returns a list of (m, 2)
    arrays; loops repeat their first vertex at the end.
    """
    nx, ny = values.shape
    pos = values > 0
    # case bit k is the sign of local corner k
    case = (pos[:-1, :-1] + 2 * pos[1:, :-1] + 4 * pos[1:, 1:]
            + 8 * pos[:-1, 1:])
    ci, cj = np.nonzero((case != 0) & (case != 15))  # row-major cell order
    center = (values[ci, cj] + values[ci + 1, cj]
              + values[ci + 1, cj + 1] + values[ci, cj + 1])
    segs = _SEGMENTS[2 * case[ci, cj] + (center > 0)]
    # grid edges are numbered x-edges ((i,j),(i+1,j)) first, then
    # y-edges ((i,j),(i,j+1)); columns are the cell's local edges 0..3
    n_xedges = (nx - 1) * ny
    edges = np.column_stack([ci * ny + cj, n_xedges + (ci + 1) * (ny - 1) + cj,
                             ci * ny + cj + 1, n_xedges + ci * (ny - 1) + cj])
    # (segment, end) grid edge ids, in cell order then table order
    ends = edges[np.arange(len(ci))[:, None, None], segs][segs[:, :, 0] >= 0]

    adj: dict = {}  # node -> neighbours, both in first-seen order
    for a, b in ends.tolist():
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)

    nodes = np.unique(ends)
    is_x = nodes < n_xedges
    i0 = np.where(is_x, nodes // ny, (nodes - n_xedges) // (ny - 1))
    j0 = np.where(is_x, nodes % ny, (nodes - n_xedges) % (ny - 1))
    i1, j1 = i0 + is_x, j0 + ~is_x
    v0, v1 = values[i0, j0], values[i1, j1]
    t = np.clip(v0 / (v0 - v1), 0.0, 1.0)
    points = np.column_stack([xs[i0] + t * (xs[i1] - xs[i0]),
                              ys[j0] + t * (ys[j1] - ys[j0])])
    return [points[np.searchsorted(nodes, chain)] for chain in _stitch(adj)]


def _stitch(adj: dict) -> list:
    """Node chains of a graph whose nodes have degree 1 or 2.

    Open chains come first, each walked from its first-seen end; then
    loops, each walked from its first-seen node towards that node's first
    neighbour and closed by repeating the start.
    """
    seen = set()
    chains = []
    for start in [node for node, nbrs in adj.items() if len(nbrs) == 1] + list(adj):
        if start in seen:
            continue
        chain, cur = [], start
        while cur is not None:
            chain.append(cur)
            seen.add(cur)
            cur = next((nb for nb in adj[cur] if nb not in seen), None)
        if len(adj[start]) == 2:
            chain.append(start)
        chains.append(chain)
    return chains


def extract_level_set(ctx: LevelSetContext, window: Window,
                      nx: int = 256, ny: int = 256) -> ContourSet:
    """Contours of Phi = c on an (nx+1) x (ny+1) node grid over the window.

    Raises OverflowError when Phi is not finite somewhere on the grid.
    """
    if nx < 64 or ny < 64:
        raise ValueError("oracle grid must be at least 64x64 cells")
    xs = np.linspace(window.xmin, window.xmax, nx + 1)
    ys = np.linspace(window.ymin, window.ymax, ny + 1)
    zx = xs[:, None] + 1j * ys[None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.imag(np.exp(-1j * ctx.theta_hat) * zx ** ctx.n) - ctx.c
    if not np.all(np.isfinite(values)):
        raise OverflowError(f"Phi overflows float64 on the window for n={ctx.n}")
    # nudge exact zeros off the grid so every crossing is a sign change
    eps = 1e-300 + 1e-15 * float(np.max(np.abs(values)))
    values = np.where(values == 0.0, eps, values)
    polylines = marching_squares(values, xs, ys)
    dx = (window.xmax - window.xmin) / nx
    dy = (window.ymax - window.ymin) / ny
    return ContourSet(polylines=polylines, cell_diag=math.hypot(dx, dy))
