import numpy as np
import pytest

from dhym import figure
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
