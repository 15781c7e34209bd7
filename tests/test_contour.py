import math

import numpy as np
import pytest

from dhym import contour
from dhym.charges import Geometry, charge_report
from dhym.contour import ContourSet, Window, extract_level_set, marching_squares
from dhym.rays import ray_set

from conftest import (cell_diag, component_near, oracle_same_component,
                      random_geometry)


def grid_field(fn, lo, hi, m=101):
    xs = np.linspace(lo, hi, m)
    ys = np.linspace(lo, hi, m)
    vals = fn(xs[:, None], ys[None, :])
    return vals, xs, ys


def polylines(values, xs, ys):
    """marching_squares' chains as the polylines of a ContourSet."""
    return ContourSet(*marching_squares(values, xs, ys)).polylines


def polar_component_count(rep, window, samples=20000):
    """Count sign-class sectors whose level arc enters the window.

    On the ray through angle phi the level set has the exact polar form
    r = (c / sin(n*phi - theta))^{1/n} wherever the sine sign matches c,
    so each sector is probed by sampling its angular extent.
    """
    n, th, c = rep.g.n, rep.theta_hat, rep.c
    phis = np.linspace(-math.pi, math.pi, samples, endpoint=False)
    s = np.sin(n * phis - th)
    ok = np.sign(s) == np.sign(c)
    r = np.full_like(phis, np.nan)
    r[ok] = (c / s[ok]) ** (1.0 / n)
    x = r * np.cos(phis)
    y = r * np.sin(phis)
    inside = ok & (x >= window.xmin) & (x <= window.xmax) \
        & (y >= window.ymin) & (y <= window.ymax)
    # a sector index identifies the component the probe point belongs to;
    # reduce mod 2n so the seam at phi = +-pi does not split a sector
    sectors = np.floor((n * phis - th) / math.pi).astype(int) % (2 * n)
    return len(set(sectors[inside]))


def test_circle_single_loop():
    vals, xs, ys = grid_field(lambda x, y: x ** 2 + y ** 2 - 1.0, -2.0, 2.0)
    polys = polylines(vals, xs, ys)
    assert len(polys) == 1
    loop = polys[0]
    assert np.allclose(loop[0], loop[-1])
    radii = np.hypot(loop[:, 0], loop[:, 1])
    assert np.max(np.abs(radii - 1.0)) < 1e-3


def test_line_single_chain():
    vals, xs, ys = grid_field(lambda x, y: y - x + 0.2, -2.0, 2.0)
    polys = polylines(vals, xs, ys)
    assert len(polys) == 1
    chain = polys[0]
    assert np.max(np.abs(chain[:, 1] - chain[:, 0] + 0.2)) < 1e-9


def test_hyperbola_two_branches():
    vals, xs, ys = grid_field(lambda x, y: x * y - 0.5, -2.0, 2.0)
    polys = polylines(vals, xs, ys)
    assert len(polys) == 2


def test_saddle_cells_do_not_connect_across_center():
    # x*y has a saddle at the origin; the four zero rays must pair into
    # two chains consistent with the center sign, never into one blob
    vals, xs, ys = grid_field(lambda x, y: x * y + 1e-3, -1.0, 1.0, m=11)
    polys = polylines(vals, xs, ys)
    assert len(polys) == 2


def test_extract_level_set_min_grid():
    g = Geometry(3, 2.0, 1.0, 0.2)
    rep = charge_report(g)
    with pytest.raises(ValueError):
        extract_level_set(rep, Window(-2, 2, -2, 2), 32)


def test_component_membership_queries():
    g = Geometry(2, 2.0, 2.0, 1.0)
    rep = charge_report(g)
    w = Window(-3, 3, -3, 3)
    cs = extract_level_set(rep, w, 128)
    diag = cell_diag(w, 128)
    assert oracle_same_component(cs, (1.0, g.q), (g.a, g.p), diag) is True
    assert component_near(cs, (100.0, 100.0), diag) is None


def test_zero_level_contours_are_straight_rays():
    g = Geometry(2, 2.0, 2.0, 1.0)  # c = 0 for this instance
    rep = charge_report(g)
    assert abs(rep.c) <= 1e-9 * rep.scale
    cs = extract_level_set(rep, Window(-3, 3, -3, 3), 128)
    lines = ray_set(g.n, rep.theta_hat, g.n)
    for poly in cs.polylines:
        pts = poly[np.hypot(poly[:, 0], poly[:, 1]) > 0.3]
        if len(pts) < 2:
            continue
        angles = np.arctan2(pts[:, 1], pts[:, 0])
        # every point sits on one of the zero lines (compared mod pi since
        # lines carry two opposite rays); the crossing at the origin may
        # stitch different lines into one polyline, so check pointwise
        off = np.min(np.abs(
            np.remainder(angles[:, None] - np.array(lines)[None, :]
                         + math.pi / 2, math.pi) - math.pi / 2), axis=1)
        assert np.max(off) < 0.05


def test_full_window_component_count_matches_sector_count():
    g = Geometry(11, 2.0, 1.1, 0.4)
    rep = charge_report(g)
    w = Window(-3.0, 3.0, -3.0, 3.0)
    cs = extract_level_set(rep, w, 256)
    assert len(cs.polylines) == polar_component_count(rep, w) == 11


def test_half_window_component_count_matches_sector_count():
    g = Geometry(11, 2.0, 1.1, 0.4)
    rep = charge_report(g)
    w = Window(0.1, 3.0, -3.0, 3.0)
    cs = extract_level_set(rep, w, 256)
    assert len(cs.polylines) == polar_component_count(rep, w)


def test_window_counts_random_instances(rng):
    for _ in range(20):
        n = int(rng.integers(3, 10))
        a = float(rng.uniform(1.3, 3.0))
        p = float(rng.uniform(-2, 2))
        q = float(rng.uniform(-2, 2))
        g = Geometry(n, a, p, q)
        rep = charge_report(g)
        if abs(rep.c) <= 1e-6 * rep.scale:
            continue
        m = 1.5 * max(a, abs(p), abs(q))
        w = Window(-m, m, -m, m)
        cs = extract_level_set(rep, w, 192)
        # components clipping only a sliver thinner than a couple of grid
        # cells may be missed, so bracket with shrunk and grown windows
        pad = 2.0 * cell_diag(w, 192)
        lo = polar_component_count(
            rep, Window(w.xmin + pad, w.xmax - pad, w.ymin + pad, w.ymax - pad))
        hi = polar_component_count(
            rep, Window(w.xmin - pad, w.xmax + pad, w.ymin - pad, w.ymax + pad))
        assert lo <= len(cs.polylines) <= hi, g


def _vertex_edge(x, y):
    """Grid edge of a vertex on the integer grid: ("x", i, j) joins (i, j)
    and (i+1, j); ("y", i, j) joins (i, j) and (i, j+1)."""
    if y == math.floor(y) and x != math.floor(x):
        return ("x", math.floor(x), int(y))
    if x == math.floor(x) and y != math.floor(y):
        return ("y", int(x), math.floor(y))
    raise AssertionError(f"vertex ({x}, {y}) is not inside a grid edge")


@pytest.mark.parametrize("seed", range(5))
def test_stitch_random_sign_patterns(seed):
    # unit-spaced grid: vertices on x-edges have integral y, and vice versa;
    # noise makes about one cell in eight a saddle
    m = 33
    vals = np.random.default_rng(seed).standard_normal((m, m))
    xs = ys = np.arange(m, dtype=float)
    pos = vals > 0
    crossed = {("x", i, j) for i in range(m - 1) for j in range(m)
               if pos[i, j] != pos[i + 1, j]}
    crossed |= {("y", i, j) for i in range(m) for j in range(m - 1)
                if pos[i, j] != pos[i, j + 1]}

    def on_boundary(edge):
        kind, i, j = edge
        return j in (0, m - 1) if kind == "x" else i in (0, m - 1)

    def cells(edge):
        kind, i, j = edge
        if kind == "x":
            return {(i, j - 1), (i, j)}
        return {(i - 1, j), (i, j)}

    seen = []
    for poly in polylines(vals, xs, ys):
        edges = [_vertex_edge(x, y) for x, y in poly.tolist()]
        if np.array_equal(poly[0], poly[-1]):
            edges = edges[:-1]  # a loop repeats its start
        else:
            assert on_boundary(edges[0]) and on_boundary(edges[-1])
        # consecutive vertices share a cell, including a loop's closing step
        closing = [(edges[-1], edges[0])] if len(edges) < len(poly) else []
        for e0, e1 in list(zip(edges, edges[1:])) + closing:
            assert cells(e0) & cells(e1), (e0, e1)
        seen.extend(edges)
    assert len(seen) == len(set(seen))
    assert set(seen) == crossed


def _reference_marching_squares(values, xs, ys):
    """marching_squares with its former int64 case sums and dict-of-lists
    graph walk, kept as the reference for the index-array stitcher."""
    nx, ny = values.shape
    pos = values > 0
    case = (pos[:-1, :-1] + 2 * pos[1:, :-1] + 4 * pos[1:, 1:]
            + 8 * pos[:-1, 1:])
    ci, cj = np.nonzero((case != 0) & (case != 15))
    center = (values[ci, cj] + values[ci + 1, cj]
              + values[ci + 1, cj + 1] + values[ci, cj + 1])
    segs = contour._segment_table()[2 * case[ci, cj] + (center > 0)]
    n_xedges = (nx - 1) * ny
    edges = np.column_stack([ci * ny + cj, n_xedges + (ci + 1) * (ny - 1) + cj,
                             ci * ny + cj + 1, n_xedges + ci * (ny - 1) + cj])
    ends = edges[np.arange(len(ci))[:, None, None], segs][segs[:, :, 0] >= 0]

    adj: dict = {}
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

    seen, chains = set(), []
    for start in [v for v, nbrs in adj.items() if len(nbrs) == 1] + list(adj):
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
    return [points[np.searchsorted(nodes, chain)] for chain in chains]


def _assert_same_polylines(values, xs, ys):
    got = polylines(values, xs, ys)
    want = _reference_marching_squares(values, xs, ys)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    return got


def test_stitcher_matches_reference_on_noise(rng):
    for _ in range(300):
        nx, ny = (int(k) for k in rng.integers(2, 41, 2))
        xs, ys = np.sort(rng.uniform(-5, 5, nx)), np.sort(rng.uniform(-5, 5, ny))
        kind = rng.integers(4)
        if kind == 0:  # smooth-ish field: long chains and loops
            vals = (np.sin(xs[:, None] * rng.uniform(0.5, 3))
                    * np.cos(ys[None, :] * rng.uniform(0.5, 3))
                    + rng.uniform(-0.5, 0.5))
        elif kind == 1:  # white noise
            vals = rng.standard_normal((nx, ny))
        elif kind == 2:  # checkerboard: every cell is a saddle
            i, j = np.indices((nx, ny))
            vals = (-1.0) ** (i + j) * rng.uniform(0.1, 1.0, (nx, ny))
        else:  # tiny positive values: subnormal centers and crossings
            vals = np.where(rng.random((nx, ny)) < 0.5,
                            rng.choice([5e-324, 1e-310, 1e-300], (nx, ny)),
                            -rng.uniform(1e-300, 1.0, (nx, ny)))
        _assert_same_polylines(vals, xs, ys)


def test_stitcher_matches_reference_on_level_sets(rng, monkeypatch):
    grids = []

    def recording(values, xs, ys):
        grids.append((values, xs, ys))
        return original(values, xs, ys)

    original = contour.marching_squares
    monkeypatch.setattr(contour, "marching_squares", recording)
    for _ in range(50):
        g = random_geometry(rng)
        rep = charge_report(g)
        w = 1.3 * max(g.a, abs(g.p), abs(g.q), 1.0)
        extract_level_set(rep, Window(-w, w, -w, w), 128)
    # every extraction goes through the module's marching_squares
    assert len(grids) == 50
    for values, xs, ys in grids:
        _assert_same_polylines(values, xs, ys)


def test_stitcher_empty_and_single_saddle():
    xs, ys = np.arange(5.0), np.arange(4.0)
    for sign in (1.0, -1.0):
        points, chains = marching_squares(sign * np.ones((5, 4)), xs, ys)
        assert points.shape == (0, 2) and chains == []
    xs = ys = np.arange(2.0)
    # each diagonal pattern, with the center positive, then negative
    for vals in ([[1.0, -1.0], [-1.0, 2.0]], [[1.0, -1.0], [-1.0, 0.5]],
                 [[-1.0, 1.0], [1.0, -0.5]], [[-1.0, 1.0], [1.0, -2.0]]):
        assert [len(p) for p in _assert_numbered_like_reference(
            np.array(vals), xs, ys)] == [2, 2]


def _assert_numbered_like_reference(values, xs, ys):
    """marching_squares matches the reference, and its chains hold every
    node row once (a loop repeats its start at the end)."""
    polys = _assert_same_polylines(values, xs, ys)
    points, chains = marching_squares(values, xs, ys)
    rows = [v for chain in chains
            for v in (chain[:-1] if chain[0] == chain[-1] else chain)]
    assert sorted(rows) == list(range(len(points)))
    return polys


def _first_row_and_column_fields():
    """Sign patterns crossed on grid row 0 and column 0, where a cell's
    local edges 0 and 3 are the first to see their grid edges."""
    rng = np.random.default_rng(7)
    for i, j in ((0, 0), (0, 2), (3, 0), (5, 4), (0, 4), (5, 0), (2, 2)):
        vals = -np.ones((6, 5))
        vals[i, j] = 1.0  # one positive node: a short chain or a loop
        yield vals
    for rows, cols in ((slice(0, 1), slice(None)), (slice(None), slice(0, 1)),
                       (slice(0, 2), slice(0, 2))):
        vals = -np.ones((6, 5))
        vals[rows, cols] = 1.0
        yield vals
    for _ in range(20):  # noise on row 0 and column 0 only
        vals = -rng.uniform(0.1, 1.0, (7, 6))
        vals[0] = rng.standard_normal(6)
        vals[:, 0] = rng.standard_normal(7)
        yield vals


@pytest.mark.parametrize("vals", list(_first_row_and_column_fields()))
def test_numbering_on_first_row_and_column(vals):
    nx, ny = vals.shape
    _assert_numbered_like_reference(vals, np.arange(float(nx)),
                                    np.arange(float(ny)))


def test_open_chains_and_loops_in_one_grid():
    # the circle is a loop and the line y = x + 3 an open chain; a loop
    # comes after every open chain
    vals, xs, ys = grid_field(
        lambda x, y: (x ** 2 + y ** 2 - 1.0) * (y - x - 3.0), -4.0, 4.0, m=81)
    polys = _assert_numbered_like_reference(vals, xs, ys)
    closed = [np.array_equal(p[0], p[-1]) for p in polys]
    assert closed == [False, True]


def test_loops_only_grid():
    vals, xs, ys = grid_field(lambda x, y: x ** 2 + y ** 2 - 0.25, -2.0, 2.0)
    polys = _assert_numbered_like_reference(vals, xs, ys)
    assert len(polys) == 1 and np.array_equal(polys[0][0], polys[0][-1])
