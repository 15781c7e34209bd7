"""The solve CSV writer against Python's own "%.17g", byte for byte."""

from types import SimpleNamespace

import numpy as np
import pytest

from dhym import cli
from dhym.charges import charge_report
from dhym.levelcurve import trace_solution, verify_solution

from conftest import sample_stable


def python_rows(values):
    """The CSV rows Python's own formatting prints, five numbers to a row."""
    return [(cli._SOLVE_ROW % tuple(row))[:-1]
            for row in np.reshape(values, (-1, 5)).tolist()]


def assert_formats_like_python(values, rng):
    """Checks the values, shuffled and cut to whole rows, and returns them."""
    values = rng.permutation(np.asarray(values, dtype=float))
    values = values[:len(values) - len(values) % 5]
    cols = values.reshape(-1, 5).T
    curve = SimpleNamespace(x=cols[0], f=cols[1], f_prime=cols[2])
    check = SimpleNamespace(residual=cols[3], theta_pointwise=cols[4])
    lines = cli._solve_rows(curve, check).splitlines()
    assert lines[0] == "x,f,f_prime,residual,theta"
    assert lines[1:] == python_rows(values)
    return values


def record_fallbacks(monkeypatch) -> list:
    """The rows the writer hands to Python's formatting, as they come."""
    rows = []
    monkeypatch.setattr(cli, "_python_row",
                        lambda row: rows.append(row) or cli._SOLVE_ROW % tuple(row))
    return rows


def is_tie(v: float) -> bool:
    """True when v's exact decimal expansion has 18 significant digits, the
    last a 5: halfway between two 17-digit numbers."""
    digits = ("%.60e" % abs(v)).partition("e")[0].replace(".", "").rstrip("0")
    return len(digits) == 18 and digits.endswith("5")


def near(values, ulps):
    """values moved by -ulps..ulps steps of their own spacing; a step past
    the largest double gives inf."""
    out = [values]
    up = down = values
    with np.errstate(over="ignore"):
        for _ in range(ulps):
            up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
            out += [up, down]
    return np.concatenate(out)


@pytest.mark.parametrize("seed", range(10))
def test_formatter_matches_python_on_ties(seed, monkeypatch):
    # k 2^-(17-E) with k odd lies in [10^E, 10^(E+1)) and has exactly one
    # decimal digit past the 17th, a 5: a round-half-even tie that only
    # Python's rule decides.  m + 0.5 has exactly 17 digits from 10^15 on
    rng = np.random.default_rng(seed)
    ties = []
    for e in range(-8, 16):
        s = 17 - e  # k runs over [2^s 10^e, 2^s 10^(e+1)), below 2^53
        lo = -(-2 ** s * 10 ** max(e, 0) // 10 ** max(-e, 0))
        hi = min(2 ** s * 10 ** max(e + 1, 0) // 10 ** max(-e - 1, 0), 2 ** 53)
        k = 2 * rng.integers(lo // 2, hi // 2, 20) + 1
        ties.append(k * 2.0 ** -s)
    ties.append(rng.integers(10 ** 15, 2 ** 52, 100) + 0.5)
    ties = np.concatenate(ties)
    ties = np.concatenate([ties, -ties])
    fallbacks = record_fallbacks(monkeypatch)
    values = assert_formats_like_python(near(ties, 2), rng)
    # Python prints every row that holds a tie
    n_ties = sum(map(is_tie, values.tolist()))
    assert n_ties >= 2 * 24 * 20  # the k 2^-s above, and some of their neighbours
    assert sum(is_tie(v) for row in fallbacks for v in row) == n_ties


def test_formatter_matches_python_at_powers_of_ten():
    # every power of ten the tables hold and a step past each end, two ulps
    # either way: the digits roll over to the next exponent there
    lim = cli._G17_EXP
    powers = np.array([float(f"1e{k}") for k in range(-lim - 2, lim + 3)])
    assert_formats_like_python(near(np.concatenate([powers, -powers]), 2),
                               np.random.default_rng(0))


@pytest.mark.parametrize("seed", range(5))
def test_formatter_matches_python_at_form_switches(seed):
    # "%.17g" prints E = -4 and E = 16 in fixed form and E = -5 and E = 17
    # with an exponent; values that round up to the next power of ten move
    # across the switch
    rng = np.random.default_rng(seed)
    edges = [1e-5, 1e-4, 1e16, 1e17, 9.9999999999999999e-6, 9.99999999999999e-5,
             99999999999999999.0, 9999999999999999.0, 12345678901234567.0,
             1.2345678901234567e-5, 0.00012345678901234567, 0.0001]
    edges = np.concatenate([edges, rng.uniform(1e-5, 1e-4, 50),
                            rng.uniform(1e-4, 1e-3, 50),
                            rng.uniform(1e16, 1e17, 50),
                            rng.uniform(1e17, 1e18, 50)])
    assert_formats_like_python(near(np.concatenate([edges, -edges]), 2), rng)


@pytest.mark.parametrize("seed", range(5))
def test_formatter_matches_python_at_zero_and_range_ends(seed):
    rng = np.random.default_rng(seed)
    lim = cli._G17_EXP
    edges = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                      1.7976931348623157e308, -1.7976931348623157e308,
                      np.nan, np.inf, -np.inf, 10.0 ** -lim, 10.0 ** (lim + 1),
                      9.999999999999999e-281, 9.999999999999999e280])
    edges = np.concatenate([edges, rng.uniform(1, 10, 20) * 10.0 ** -lim,
                            rng.uniform(1, 10, 20) * 10.0 ** lim,
                            rng.uniform(1, 10, 20) * 10.0 ** (-lim - 1),
                            rng.uniform(1, 10, 20) * 10.0 ** (lim + 1),
                            rng.uniform(0, 1, 20) * 2.2250738585072014e-308])
    assert_formats_like_python(near(np.concatenate([edges, -edges]), 2), rng)


@pytest.mark.parametrize("seed", range(5))
def test_formatter_matches_python_on_uniform_values(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    fallbacks = record_fallbacks(monkeypatch)
    # doubles from 1e13 to 1e16 have few enough bits that many are exact
    # ties at the 17th digit, which Python decides; these ranges stay clear
    values = np.concatenate([rng.uniform(1, 10, 1000),
                             rng.uniform(-np.pi, np.pi, 1000),
                             rng.uniform(-1e6, 1e6, 1000),
                             rng.uniform(-1e-15, 1e-15, 1000),
                             10.0 ** rng.uniform(-280, 12, 1000),
                             -(10.0 ** rng.uniform(16, 281, 1000))])
    assert_formats_like_python(values, rng)
    # the array path prints these; none is close enough to a tie to need
    # Python's formatting
    assert fallbacks == []


def test_solve_rows_match_python_on_traced_curves():
    rng = np.random.default_rng(17)
    for _ in range(50):
        rep = charge_report(sample_stable(rng, n_hi=16))
        curve = trace_solution(rep)
        check = verify_solution(curve, rep)
        rows = np.column_stack((curve.x, curve.f, curve.f_prime,
                                check.residual, check.theta_pointwise))
        lines = cli._solve_rows(curve, check).splitlines()
        assert lines[0] == "x,f,f_prime,residual,theta"
        assert lines[1:] == python_rows(rows)
