"""Marching-squares extraction of level-set polylines.

This is the brute-force oracle for component questions: it never looks at
ray combinatorics, only at signs of Phi - c on a grid.  Numpy forms Phi by
binary powering.  One index of the flattened grid names a node, the cell it
is corner 0 of and its two grid edges; numpy finds the cells with one to
three positive corners, numbers their crossed grid edges in first-seen order
with one scatter, interpolates each crossing once and links it to its (at
most two) neighbours in index arrays.  Python only walks those arrays into
chains of node indices, so each connected component of the level set inside
the window becomes one chain (open or a loop).  A ContourSet holds the node
table and the chains and derives its polylines.  The queries that locate a
point on a component live with the tests, which alone ask them.  numpy is
imported where it is used, so importing dhym.cli does not load it.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

from .charges import ChargeReport

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


@functools.cache
def _segment_table() -> np.ndarray:
    """Local edge pairs per cell, indexed by 2 * case + (center > 0); a
    cell has at most two segments and unused slots hold -1."""
    import numpy as np
    table = np.full((32, 2, 2), -1)
    for key in range(32):
        signs = [bool(key >> (k + 1) & 1) for k in range(4)]
        for s, pair in enumerate(_cell_segments(signs, bool(key & 1))):
            table[key, s] = pair
    return table


class Window(NamedTuple):
    xmin: float
    xmax: float
    ymin: float
    ymax: float

    def contains(self, x: float, y: float) -> bool:
        return self.xmin <= x <= self.xmax and self.ymin <= y <= self.ymax


class ContourSet(NamedTuple):
    points: np.ndarray  # (m, 2) crossings, one row per crossed grid edge
    chains: list  # row indices of each polyline; a loop repeats its start

    @property
    def polylines(self) -> list:
        """One (m, 2) float array per chain, loops closed."""
        return [self.points[chain] for chain in self.chains]


def marching_squares(values: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> tuple:
    """Node table and chains of the zero level of ``values`` on xs x ys.

    values[i, j] corresponds to (xs[i], ys[j]).  Returns ``(points,
    chains)``: points is an (m, 2) array with one row per crossed grid edge,
    in first-seen order, and each chain lists the rows of one polyline; a
    loop repeats its first node at the end.
    """
    import numpy as np
    nx, ny = values.shape
    # one flat index f = i * ny + j names the grid node (i, j), the cell
    # with corners f, f + ny, f + ny + 1 and f + 1 (local corners 0..3; case
    # bit k is the sign of corner k), its x-edge to f + ny and its y-edge to
    # f + 1, named nx * ny + f
    vf = values.ravel()
    pos = (vf > 0).view(np.uint8)
    count = pos[:-ny - 1] + pos[ny:-1] + pos[ny + 1:] + pos[1:-ny]
    count[ny - 1::ny] = 0  # at j = ny - 1, corner f + 1 is in the next row
    f = np.flatnonzero(count & 3)  # 1 to 3 positive corners; 4 & 3 is 0
    case = pos[f] | pos[f + ny] << 1 | pos[f + ny + 1] << 2 | pos[f + 1] << 3
    center = vf[f] + vf[f + ny] + vf[f + ny + 1] + vf[f + 1]
    segs = _segment_table()[2 * case + (center > 0)].ravel()
    # the used segment end slots, four per cell in table order; the two ends
    # of a segment stay adjacent, so slot s ^ 1 is the other end of slot s
    slots = np.flatnonzero(segs >= 0)
    local, cell = segs[slots], f[slots >> 2]
    ends = cell + np.array([0, vf.size + ny, 1, vf.size], dtype=np.intp)[local]
    # a crossed grid edge fills a slot in each cell it borders; a later slot
    # repeats it: local edge 0 of a cell with j > 0 (edge 2 of cell f - 1) or
    # local edge 3 of a cell with i > 0 (edge 1 of cell f - ny)
    repeat = (local == 0) & (cell % ny != 0) | (local == 3) & (cell >= ny)
    # nodes are numbered by first-seen slot; a repeating slot takes its
    # edge's node, and each node's neighbours are its slots' partners
    head, second = np.flatnonzero(~repeat), np.flatnonzero(repeat)
    nodes = ends[head]
    node_of = np.empty(2 * vf.size, dtype=np.intp)
    node_of[nodes] = np.arange(len(nodes))
    nb1 = np.full(len(nodes), -1, dtype=np.intp)
    nb1[node_of[ends[second]]] = node_of[ends[second ^ 1]]
    # a node's grid edge runs from grid node g0 = (i0, j0) to (i1, j1)
    is_y, g0 = np.divmod(nodes, vf.size)
    i0, j0 = np.divmod(g0, ny)
    i1, j1 = i0 + 1 - is_y, j0 + is_y
    v0, v1 = vf[g0], vf[i1 * ny + j1]
    t = np.clip(v0 / (v0 - v1), 0.0, 1.0)
    points = np.column_stack([xs[i0] + t * (xs[i1] - xs[i0]),
                              ys[j0] + t * (ys[j1] - ys[j0])])
    return points, _stitch(node_of[ends[head ^ 1]].tolist(), nb1.tolist(),
                           np.flatnonzero(nb1 < 0).tolist())


def _stitch(nb0: list, nb1: list, open_ends: list) -> list:
    """Node chains of a graph whose node v has neighbours nb0[v], nb1[v]
    (-1 at an open end); open_ends lists the nodes with nb1 < 0 in
    ascending order.  Open chains come first, each walked from its
    lower-numbered end; then loops, each walked from its lowest node towards
    nb0 and closed by repeating the start.
    """
    chains, tails = [], set()
    for start in open_ends:
        if start in tails:
            continue
        chain, prev, cur = [], -1, start
        while cur >= 0:
            chain.append(cur)
            prev, cur = cur, nb1[cur] if nb0[cur] == prev else nb0[cur]
        tails.add(prev)
        chains.append(chain)
    if sum(map(len, chains)) == len(nb0):
        return chains
    # loops are left: each starts at its lowest node not yet walked
    seen = set(itertools.chain.from_iterable(chains))
    for start in range(len(nb0)):
        if start in seen:
            continue
        chain, prev, cur = [], -1, start
        while cur not in seen:
            chain.append(cur)
            seen.add(cur)
            prev, cur = cur, nb1[cur] if nb0[cur] == prev else nb0[cur]
        chain.append(start)
        chains.append(chain)
    return chains


def extract_level_set(rep: ChargeReport, window: Window,
                      samples: int) -> ContourSet:
    """Contours of Phi = c on a (samples+1)^2 node grid over the window.

    Raises DegenerateGeometryError for a degenerate record and
    OverflowError when Phi is not finite somewhere on the grid.
    """
    import numpy as np
    th, n = rep.angle(), rep.g.n
    if samples < 64:
        raise ValueError("oracle grid must be at least 64x64 cells")
    xs = np.linspace(window.xmin, window.xmax, samples + 1)
    ys = np.linspace(window.ymin, window.ymax, samples + 1)
    # one block holds both factors and is dropped before the oracle runs, so
    # the heap stays under glibc's trim threshold (twice the largest block)
    zx, phi = np.empty((2, samples + 1, samples + 1), dtype=complex)
    zx.real = xs[:, None]
    zx.imag = ys[None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        # e^{-i theta_hat} z^n by binary powering, the rotation folded into
        # the first factor; numpy's integer ** is a slower per-element loop
        k = n
        while not k & 1:
            np.multiply(zx, zx, out=zx)
            k >>= 1
        np.multiply(np.exp(-1j * th), zx, out=phi)
        while k := k >> 1:
            np.multiply(zx, zx, out=zx)
            if k & 1:
                np.multiply(phi, zx, out=phi)
        values = phi.imag - rep.c
        del zx, phi
        # NaN propagates through the max, so one pass checks finiteness
        peak = float(np.max(np.abs(values)))
    if not math.isfinite(peak):
        raise OverflowError(f"Phi overflows float64 on the window for n={n}")
    # nudge exact zeros off the grid so every crossing is a sign change
    values[values == 0.0] = 1e-300 + 1e-15 * peak
    return ContourSet(*marching_squares(values, xs, ys))
