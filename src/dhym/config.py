"""JSON run configuration for the command-line front end.

A config is a single JSON document; unknown keys are rejected so typos
fail loudly instead of silently using defaults.  Every value is read by
one of three checked readers: an object, a number or a list of numbers.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

from .charges import Geometry, InvalidGeometryError
from .contour import Window
from .tolerances import EPS_ANGLE


class ConfigError(ValueError):
    pass


# the largest n whose half fan gap pi/(2n) exceeds the angular deadband
_N_MAX = math.floor(math.pi / (2 * EPS_ANGLE))


class SweepSpec(NamedTuple):
    p_range: tuple[float, float]
    q_range: tuple[float, float]
    p_count: int
    q_count: int


class FigureSpec(NamedTuple):
    window: Window
    samples: int  # contour oracle grid size per axis, 256 when not given


class RunConfig(NamedTuple):
    geometry: Geometry
    sweep: SweepSpec | None = None
    figure: FigureSpec | None = None


def _object(doc, allowed, where: str) -> dict:
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(doc) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")
    return doc


def _number(v, where: str, kind: type = float):
    """A JSON number as a float, or with kind int a JSON integer as an int;
    never a bool or a string.  A missing key reads as None."""
    if isinstance(v, bool) or not isinstance(v, (int, kind)):
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{where} must be {what}, got {v!r}")
    try:
        return kind(v)
    except OverflowError:  # a JSON integer beyond the float range
        raise ConfigError(f"{where} must be finite") from None


def _numbers(doc: dict, key: str, count: int, where: str) -> tuple:
    """doc[key] as exactly count numbers; each (lo, hi) pair of them must
    have a finite width, which also rules out a non-finite end."""
    v, name = doc.get(key), f"{where}.{key}"
    if not isinstance(v, list) or len(v) != count:
        raise ConfigError(f"{name} must be a list of {count} numbers, got {v!r}")
    out = tuple([_number(x, f"an entry of {name}") for x in v])
    if not all(math.isfinite(hi - lo) for lo, hi in zip(out[::2], out[1::2])):
        raise ConfigError(f"{name} must be finite with a finite width, got {v!r}")
    return out


def parse_config(doc) -> RunConfig:
    _object(doc, {*Geometry._fields, "sweep", "figure"}, "config")
    n = _number(doc.get("n"), "n", int)
    try:
        geometry = Geometry(n, *(_number(doc.get(key), key)
                                 for key in ("a", "p", "q")))
    except InvalidGeometryError as exc:
        raise ConfigError(str(exc)) from exc

    # rays of the top fan are pi/n apart, so an angular deadband of pi/(2n)
    # or more leaves no argument off a ray and every sector lift undefined
    if n > _N_MAX:
        raise ConfigError(f"n must be at most {_N_MAX} so that pi/(2n) "
                          f"exceeds the angular deadband, got {n!r}")

    sweep = None
    if "sweep" in doc:
        sdoc = _object(doc["sweep"], SweepSpec._fields, "sweep")
        sweep = SweepSpec(
            p_range=_numbers(sdoc, "p_range", 2, "sweep"),
            q_range=_numbers(sdoc, "q_range", 2, "sweep"),
            p_count=_number(sdoc.get("p_count"), "sweep.p_count", int),
            q_count=_number(sdoc.get("q_count"), "sweep.q_count", int))
        if sweep.p_count < 1 or sweep.q_count < 1:
            raise ConfigError("sweep grid counts must be >= 1")

    figure = None
    if "figure" in doc:
        fdoc = _object(doc["figure"], FigureSpec._fields, "figure")
        window = Window(*_numbers(fdoc, "window", 4, "figure"))
        if not (window.xmin < window.xmax and window.ymin < window.ymax):
            raise ConfigError("figure.window must be non-empty")
        samples = _number(fdoc.get("samples", 256), "figure.samples", int)
        # the contour oracle holds several (samples+1)^2 arrays at once
        if not 64 <= samples <= 2048:
            raise ConfigError("figure.samples must be an integer in [64, 2048]")
        figure = FigureSpec(window=window, samples=samples)

    return RunConfig(geometry=geometry, sweep=sweep, figure=figure)


def load_config(text: str) -> RunConfig:
    try:
        doc = json.loads(text)
    except ValueError as exc:  # also an integer of over 4300 digits
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(doc)
