"""Command-line front end: analyze, solve, sweep, and figure.

Exit codes: 0 a solution exists, 1 no solution, 2 inconclusive or
degenerate, 3 internal anomaly (trace failed despite a yes-verdict, or
arithmetic overflow), 64 usage and configuration errors.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .charges import (Geometry, InvalidGeometryError, SubvarietyKind,
                      charge_report, degeneracy_check)
from .config import ConfigError, RunConfig, load_config
from .figure import FigureError, render_figure
from .levelcurve import (TraceError, graphical_existence, same_component,
                         trace_solution, verify_solution)
from .lifting import LiftedAngle, OriginHit, cxy_path_lift, sector_lift
from .stability import Existence, existence_verdict, stability_verdict
from .tolerances import Tolerances

EXIT_EXISTS = 0
EXIT_NOT_EXISTS = 1
EXIT_INCONCLUSIVE = 2
EXIT_ANOMALY = 3
EXIT_USAGE = 64

_FLOAT_FMT = "{:.17g}"


def _c2j(z: complex) -> list:
    return [z.real, z.imag]


def _charge_key(v) -> str:
    if v.kind is SubvarietyKind.FULL_SPACE:
        return "X"
    tag = "H" if v.kind is SubvarietyKind.HYPERPLANE_POWER else "E"
    return f"{tag}:dim{v.dim}"


def analysis_report(g: Geometry, tol: Tolerances) -> dict:
    """All verdicts for one instance as a JSON-serializable dict."""
    rep = charge_report(g, tol)
    out: dict = {
        "geometry": {"n": g.n, "a": g.a, "p": g.p, "q": g.q},
        "charge": {
            "zeta": _c2j(rep.zeta),
            "theta_hat": rep.theta_hat,
            "r_x": rep.r_x,
            "degenerate": rep.degenerate,
            "charges": {_charge_key(v): _c2j(z)
                        for v, z in sorted(rep.charges.items(),
                                           key=lambda kv: _charge_key(kv[0]))},
        },
    }
    verdict = existence_verdict(g, tol)
    out["existence"] = {
        "value": verdict.value.value,
        "route": verdict.route.value,
        "notes": dict(sorted(verdict.notes.items())),
    }
    if rep.degenerate:
        out["charge"]["degenerate_m"] = degeneracy_check(g, tol)
        return out

    stab = stability_verdict(g, tol)
    out["stability"] = {
        "overall": stab.overall.value,
        "per_k": {str(k): {"sign_H": pk.sign_h.value.value,
                           "sign_E": pk.sign_e.value.value,
                           "margin_H": pk.sign_h.margin,
                           "margin_E": pk.sign_e.margin,
                           "verdict": pk.verdict.value}
                  for k, pk in sorted(stab.per_k.items())},
    }
    lift = sector_lift(g, tol)
    if isinstance(lift, LiftedAngle):
        out["lift"] = {"defined": True, "method": lift.method,
                       "winding": lift.winding, "lifted": lift.lifted,
                       "margin": lift.margin}
    else:
        out["lift"] = {"defined": False, "reason": lift.reason,
                       "detail": lift.detail}
    cxy = cxy_path_lift(g, tol)
    if isinstance(cxy, OriginHit):
        out["volume_path"] = {"defined": False, "origin_hit_t": cxy.t_star}
    else:
        out["volume_path"] = {"defined": True, "winding": cxy.winding,
                              "lifted": cxy.lifted}
    sc = same_component(g, tol)
    out["same_component"] = {"status": sc.status,
                             "rays_between": sc.rays_between,
                             "same_ray": sc.same_ray}
    ge = graphical_existence(g, tol)
    out["graphical_existence"] = {"yes": ge.yes, "reason": ge.reason}
    return out


def _existence_exit(value: Existence) -> int:
    if value is Existence.EXISTS:
        return EXIT_EXISTS
    if value is Existence.NOT_EXISTS:
        return EXIT_NOT_EXISTS
    return EXIT_INCONCLUSIVE


def run_analyze(cfg: RunConfig, out_path: str | None, stdout) -> int:
    report = analysis_report(cfg.geometry, cfg.tolerances)
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    stdout.write(text)
    return _existence_exit(Existence(report["existence"]["value"]))


def _solve_rows(curve, g: Geometry, theta_hat: float) -> str:
    zr = 1.0 + 1j * curve.f / curve.x
    res = np.imag(np.exp(-1j * theta_hat) * zr ** (g.n - 1)
                  * (1.0 + 1j * curve.f_prime))
    lines = ["x,f,f_prime,residual,theta"]
    for x, f, fp, r, th in zip(curve.x, curve.f, curve.f_prime, res,
                               curve.theta_pointwise):
        lines.append(",".join(_FLOAT_FMT.format(v) for v in (x, f, fp, r, th)))
    return "\n".join(lines) + "\n"


def run_solve(cfg: RunConfig, out_path: str | None, stdout, stderr) -> int:
    g, tol = cfg.geometry, cfg.tolerances
    verdict = existence_verdict(g, tol)
    if verdict.value is not Existence.EXISTS:
        stderr.write(f"no solve attempted: existence is "
                     f"{verdict.value.value} via {verdict.route.value}\n")
        return _existence_exit(verdict.value)
    try:
        curve = trace_solution(g, tol)
    except TraceError as exc:
        stderr.write(f"anomaly: trace failed despite yes-verdict: {exc}\n")
        return EXIT_ANOMALY
    rep = charge_report(g, tol)
    csv_text = _solve_rows(curve, g, rep.theta_hat)
    target = out_path or "solution.csv"
    with open(target, "w") as fh:
        fh.write(csv_text)
    check = verify_solution(curve, g, tol)
    summary = {
        "samples": len(curve.x),
        "csv": target,
        "c": curve.c,
        "endpoint_error": curve.endpoint_error,
        "residual_max": curve.residual_max,
        "residual_l2": curve.residual_l2,
        "theta_mean": check.theta_mean,
        "theta_oscillation": check.theta_oscillation,
        "verified": check.passed,
    }
    stdout.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    if not check.passed:
        stderr.write("anomaly: traced curve failed verification\n")
        return EXIT_ANOMALY
    return EXIT_EXISTS


def run_sweep(cfg: RunConfig, out_path: str | None, stdout) -> int:
    if cfg.sweep is None:
        raise ConfigError("sweep command requires a sweep spec in the config")
    sw = cfg.sweep
    g0, tol = cfg.geometry, cfg.tolerances
    ps = np.linspace(sw.p_range[0], sw.p_range[1], sw.p_count)
    qs = np.linspace(sw.q_range[0], sw.q_range[1], sw.q_count)
    lines = ["p,q,stability,existence,route,lift_defined,"
             "stability_margin,lift_margin,divisor_margin"]
    for p in ps:
        for q in qs:
            g = Geometry(n=g0.n, a=g0.a, p=float(p), q=float(q))
            row = _sweep_row(g, tol)
            lines.append(row)
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        stdout.write(text)
    return 0


def _sweep_row(g: Geometry, tol: Tolerances) -> str:
    rep = charge_report(g, tol)
    if rep.degenerate:
        return ",".join([_FLOAT_FMT.format(g.p), _FLOAT_FMT.format(g.q),
                         "degenerate", "inconclusive", "degenerate",
                         "false", "nan", "nan", "nan"])
    stab = stability_verdict(g, tol)
    stab_margin = min(min(pk.sign_h.margin, pk.sign_e.margin)
                      for pk in stab.per_k.values())
    lift = sector_lift(g, tol)
    lift_defined = isinstance(lift, LiftedAngle)
    lift_margin = lift.margin if lift_defined else float("nan")
    verdict = existence_verdict(g, tol)
    div_margin = verdict.notes.get("divisor_margin", float("nan"))
    return ",".join([
        _FLOAT_FMT.format(g.p), _FLOAT_FMT.format(g.q),
        stab.overall.value, verdict.value.value, verdict.route.value,
        "true" if lift_defined else "false",
        _FLOAT_FMT.format(stab_margin), _FLOAT_FMT.format(lift_margin),
        _FLOAT_FMT.format(div_margin),
    ])


def run_figure(cfg: RunConfig, out_path: str | None, stdout) -> int:
    if cfg.figure is None:
        raise ConfigError("figure command requires a figure spec in the config")
    g, tol = cfg.geometry, cfg.tolerances
    curve = None
    if "solution" in cfg.figure.overlays:
        ge = graphical_existence(g, tol)
        if ge.yes:
            try:
                curve = trace_solution(g, tol)
            except TraceError:
                curve = None
    svg = render_figure(g, cfg.figure, curve=curve, tol=tol)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(svg)
    else:
        stdout.write(svg)
    return 0


def _read_config(path: str) -> RunConfig:
    if path == "-":
        return load_config(sys.stdin.read())
    with open(path) as fh:
        return load_config(fh.read())


class _Parser(argparse.ArgumentParser):
    """Reports usage errors with EXIT_USAGE; argparse's own 2 would read as
    an inconclusive verdict."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def main(argv=None) -> int:
    parser = _Parser(
        prog="dhym",
        description="Existence tests and level-curve solver for the deformed "
                    "Hermitian-Yang-Mills equation on the blowup of P^n.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (("analyze", "all verdicts for one instance (JSON)"),
                           ("solve", "trace the solution curve (CSV + JSON)"),
                           ("sweep", "stability map over a (p, q) grid (CSV)"),
                           ("figure", "level-set figure (SVG)")):
        sp = sub.add_parser(name, help=helptext)
        sp.add_argument("--config", required=True,
                        help="path to JSON config, or - for stdin")
        sp.add_argument("--out", default=None, help="output file path")
    args = parser.parse_args(argv)

    try:
        cfg = _read_config(args.config)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        if args.command == "analyze":
            return run_analyze(cfg, args.out, sys.stdout)
        if args.command == "solve":
            return run_solve(cfg, args.out, sys.stdout, sys.stderr)
        if args.command == "sweep":
            return run_sweep(cfg, args.out, sys.stdout)
        return run_figure(cfg, args.out, sys.stdout)
    except (ConfigError, FigureError, InvalidGeometryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OverflowError as exc:
        print(f"error: arithmetic overflow: {exc}", file=sys.stderr)
        return EXIT_ANOMALY


if __name__ == "__main__":
    sys.exit(main())
