"""JSON run configuration for the command-line front end.

A config is a single JSON document; unknown keys are rejected so typos
fail loudly instead of silently using defaults.
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


_OVERLAYS = ("level_set", "rays_top", "rays_vertical", "endpoints", "solution")


class SweepSpec(NamedTuple):
    p_range: tuple[float, float]
    q_range: tuple[float, float]
    p_count: int
    q_count: int


class FigureSpec(NamedTuple):
    window: Window
    samples: int = 256
    overlays: tuple[str, ...] = _OVERLAYS


class RunConfig(NamedTuple):
    geometry: Geometry
    sweep: SweepSpec | None = None
    figure: FigureSpec | None = None


def _require_keys(doc: dict, allowed: set, where: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")


def _number(doc: dict, key: str, where: str) -> float:
    if key not in doc:
        raise ConfigError(f"missing required key {key!r} in {where}")
    v = doc[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where}.{key} must be a number, got {v!r}")
    return float(v)


def parse_config(doc) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    _require_keys(doc, {"n", "a", "p", "q", "sweep", "figure"}, "config")
    n = doc.get("n")
    if isinstance(n, bool) or not isinstance(n, int):
        raise ConfigError(f"n must be an integer, got {n!r}")
    try:
        geometry = Geometry(n=n, a=_number(doc, "a", "config"),
                            p=_number(doc, "p", "config"),
                            q=_number(doc, "q", "config"))
    except InvalidGeometryError as exc:
        raise ConfigError(str(exc)) from exc

    # rays of the top fan are pi/n apart, so an angular deadband of pi/(2n)
    # or more leaves no argument off a ray and every sector lift undefined
    if EPS_ANGLE >= math.pi / (2 * n):
        raise ConfigError(f"n must be at most "
                          f"{math.floor(math.pi / (2 * EPS_ANGLE))} so that "
                          f"pi/(2n) exceeds the angular deadband, got {n!r}")

    sweep = None
    if "sweep" in doc:
        sdoc = doc["sweep"]
        if not isinstance(sdoc, dict):
            raise ConfigError("sweep must be an object")
        _require_keys(sdoc, {"p_range", "q_range", "p_count", "q_count"}, "sweep")
        try:
            sweep = SweepSpec(
                p_range=(float(sdoc["p_range"][0]), float(sdoc["p_range"][1])),
                q_range=(float(sdoc["q_range"][0]), float(sdoc["q_range"][1])),
                p_count=int(sdoc["p_count"]),
                q_count=int(sdoc["q_count"]),
            )
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed sweep spec: {exc}") from exc
        if sweep.p_count < 1 or sweep.q_count < 1:
            raise ConfigError("sweep grid counts must be >= 1")
        for key in ("p_range", "q_range"):
            lo, hi = getattr(sweep, key)
            if not math.isfinite(hi - lo):  # also catches a non-finite end
                raise ConfigError(f"sweep.{key} must be finite with a finite "
                                  f"width, got {sdoc[key]!r}")

    figure = None
    if "figure" in doc:
        fdoc = doc["figure"]
        if not isinstance(fdoc, dict):
            raise ConfigError("figure must be an object")
        _require_keys(fdoc, {"window", "samples", "overlays"}, "figure")
        try:
            w = fdoc["window"]
            window = Window(float(w[0]), float(w[1]), float(w[2]), float(w[3]))
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed figure window: {exc}") from exc
        # a finite width also rules out a non-finite end
        if not (math.isfinite(window.xmax - window.xmin)
                and math.isfinite(window.ymax - window.ymin)):
            raise ConfigError(f"figure.window must be finite with a finite "
                              f"width, got {w!r}")
        if not (window.xmin < window.xmax and window.ymin < window.ymax):
            raise ConfigError("figure window must be non-empty")
        samples = fdoc.get("samples", 256)
        # the contour oracle holds several (samples+1)^2 arrays at once
        if (isinstance(samples, bool) or not isinstance(samples, int)
                or not 64 <= samples <= 2048):
            raise ConfigError("figure samples must be an integer in [64, 2048]")
        overlays = tuple(fdoc.get("overlays", _OVERLAYS))
        bad = set(overlays) - set(_OVERLAYS)
        if bad:
            raise ConfigError(f"unknown overlay(s): {sorted(bad)}")
        figure = FigureSpec(window=window, samples=samples, overlays=overlays)

    return RunConfig(geometry=geometry, sweep=sweep, figure=figure)


def load_config(text: str) -> RunConfig:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(doc)
