import math

import numpy as np
import pytest

from dhym import contour, figure
from dhym.charges import Geometry, charge_report
from dhym.config import FigureSpec
from dhym.contour import ContourSet, Window, marching_squares
from dhym.figure import _fixed_pairs


def python_pairs(values):
    """The pair strings Python's own formatting prints."""
    text = [("%.3f" % v).replace("-0.000", "0.000") for v in values.tolist()]
    return [f"{x},{y}" for x, y in zip(text[::2], text[1::2])]


def assert_formats_like_python(values, rng):
    values = rng.permutation(np.asarray(values, dtype=float))
    if len(values) % 2:
        values = values[:-1]
    assert _fixed_pairs(values) == python_pairs(values)


def near(values, ulps):
    """values moved by -ulps..ulps steps of their own spacing."""
    out = [values]
    up = down = values
    for _ in range(ulps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


@pytest.mark.parametrize("seed", range(20))
def test_formatter_matches_python_on_ties(seed):
    # an odd multiple of 1/16 is an exact binary number whose thousandths
    # end in 5: a round-half-even tie that only Python's rule decides.  A
    # decimal tie such as 0.0005 is not a double; its nearest double lies
    # off the tie by less than 1000 v can resolve, so 1000 v may round onto it
    rng = np.random.default_rng(seed)
    ties = np.concatenate([[0.0625, 319.9375, -1.0625, 448.0625],
                           (2 * rng.integers(-10**4, 10**4, 200) + 1) / 16,
                           (2 * rng.integers(-8 * 10**7, 8 * 10**7, 200) + 1) / 16,
                           (2 * rng.integers(-10**6, 10**6, 200) + 1) / 2000,
                           (2 * rng.integers(-10**10, 10**10, 200) + 1) / 2000])
    assert_formats_like_python(near(ties, 2), rng)


@pytest.mark.parametrize("seed", range(5))
def test_formatter_matches_python_at_zero_and_range_ends(seed):
    rng = np.random.default_rng(seed)
    edges = np.array([0.0, -0.0, -0.0004, -0.0005, 0.0005, -0.0004999, 5e-324,
                      -5e-324, 9999999.9995, -9999999.9995, 9999999.9994,
                      9999999.999, 1e12, -1e12, 1e300, np.nan, np.inf, -np.inf])
    assert_formats_like_python(near(edges, 2), rng)


@pytest.mark.parametrize("seed", range(5))
def test_formatter_matches_python_on_uniform_values(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    fallbacks = []
    monkeypatch.setattr(figure, "_fixed", lambda v: fallbacks.append(v) or "%.3f" % v)
    values = np.concatenate([rng.uniform(0, 640, 3000),
                             rng.uniform(-1e7, 1e7, 3000)])
    assert_formats_like_python(values, rng)
    # the array path prints these; none is close enough to a tie to need
    # Python's formatting
    assert fallbacks == []


def test_digit_words_match_fstring_tables():
    # the reference builds each 4-byte word as Python's formatting prints
    # it, NUL where a digit is blank
    def words(groups):
        return np.frombuffer("".join(groups).encode("ascii"), dtype=np.uint32)

    reference = (
        words(str(i).rjust(4, "\0") if i else "\0" * 4 for i in range(10000)),
        words([str(i).rjust(3, "\0") + "." for i in range(1000)]
              + [f"{i:03}." for i in range(1000)]),
        words([f"{i:03}," for i in range(1000)]
              + [f"{i:03} " for i in range(1000)]),
        words("-\0\0\0")[0])
    for got, want in zip(figure._digit_words(), reference):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def reference_extract(rep, window, samples, grids):
    """extract_level_set with Phi as numpy's integer power of z followed by
    the rotation, the path binary powering replaced; appends its grid."""
    xs = np.linspace(window.xmin, window.xmax, samples + 1)
    ys = np.linspace(window.ymin, window.ymax, samples + 1)
    zx = np.empty((samples + 1, samples + 1), dtype=complex)
    zx.real = xs[:, None]
    zx.imag = ys[None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        zx **= rep.g.n
        np.multiply(np.exp(-1j * rep.angle()), zx, out=zx)
    values = zx.imag - rep.c
    peak = float(np.max(np.abs(values)))
    assert math.isfinite(peak)
    values[values == 0.0] = 1e-300 + 1e-15 * peak
    grids.append(values)
    return ContourSet(*marching_squares(values, xs, ys))


def test_binary_power_keeps_figure_bytes(monkeypatch):
    # figure_pool-style instances: n cycles through 2..12, the window is
    # 1.3 times the largest endpoint coordinate
    rng = np.random.default_rng(31)
    new_grids, ref_grids = [], []

    def recording(values, xs, ys):
        new_grids.append(values)
        return marching_squares(values, xs, ys)

    monkeypatch.setattr(contour, "marching_squares", recording)
    for i in range(150):
        n = 2 + i % 11
        a, p, q = (float(v) for v in rng.uniform([1, -10, -10], 10))
        rep = charge_report(Geometry(n, a, p, q))
        w = 1.3 * max(a, abs(p), abs(q), 1.0)
        spec = FigureSpec(Window(-w, w, -w, w), 128)
        svg = figure.render_figure(rep, spec)
        with monkeypatch.context() as m:
            m.setattr(figure, "extract_level_set",
                      lambda r, win, s: reference_extract(r, win, s, ref_grids))
            assert figure.render_figure(rep, spec) == svg, (n, a, p, q)
        # each path rounds O(log n) complex products of size up to
        # max|z|^n, with max|z| the largest modulus on the grid
        bound = 16 * n * np.finfo(float).eps * math.hypot(w, w) ** n
        assert np.max(np.abs(new_grids[-1] - ref_grids[-1])) <= bound
    assert len(new_grids) == len(ref_grids) == 150
