"""Command-line front end: analyze, solve, sweep, and figure.

Exit codes: 0 a solution exists, 1 no solution, 2 inconclusive or
degenerate, 3 internal anomaly (a yes-verdict whose trace fails or does
not verify, or arithmetic overflow), 64 usage and configuration errors.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from json.encoder import encode_basestring_ascii as _json_str

from .charges import (DegenerateGeometryError, Geometry, central_charges,
                      charge_report, degeneracy_check)
from .config import ConfigError, RunConfig, load_config
from .figure import render_figure
from .levelcurve import (TraceError, same_component, trace_solution,
                         verify_solution)
from .lifting import LiftedAngle, OriginHit, cxy_path_lift, sector_lift
from .stability import (Existence, divisor_angle_bounds, existence_verdict,
                        stability_verdict, supercritical_check)

EXIT_EXISTS = 0
EXIT_NOT_EXISTS = 1
EXIT_INCONCLUSIVE = 2
EXIT_ANOMALY = 3
EXIT_USAGE = 64
_EXIT_FOR = {Existence.EXISTS: EXIT_EXISTS, Existence.NOT_EXISTS: EXIT_NOT_EXISTS,
             Existence.INCONCLUSIVE: EXIT_INCONCLUSIVE}

# rows of the solve and sweep CSVs, every float at full precision
_SOLVE_ROW = ",".join(["%.17g"] * 5) + "\n"
_SWEEP_ROW = "%.17g,%.17g,%s,%s,%s,%s,%.17g,%.17g,%.17g"


def analysis_report(g: Geometry) -> dict:
    """All verdicts for one instance as a JSON-serializable dict."""
    rep = charge_report(g)
    out: dict = {
        "geometry": {"n": g.n, "a": g.a, "p": g.p, "q": g.q},
        "charge": {
            "zeta": [rep.zeta.real, rep.zeta.imag],
            "theta_hat": rep.theta_hat,
            "r_x": rep.r_x,
            "degenerate": rep.degenerate,
            "charges": {key: [z.real, z.imag]
                        for key, z in central_charges(rep).items()},
        },
    }
    verdict = existence_verdict(rep)
    out["existence"] = {"value": verdict.value.value,
                        "route": verdict.route.value,
                        "reason": verdict.reason, "margin": verdict.margin,
                        "divisor_margin": None, "divisor": None}
    if rep.degenerate:
        out["charge"]["degenerate_m"] = degeneracy_check(rep)
        return out

    # certificates, printed beside the verdict; none of them decides it
    stab, lift = stability_verdict(rep), sector_lift(rep)
    out["stability"] = {
        "overall": stab.overall.value,
        "per_k": {str(k): {"sign_H": pk.sign_h.value.value,
                           "sign_E": pk.sign_e.value.value,
                           "margin_H": pk.sign_h.margin,
                           "margin_E": pk.sign_e.margin,
                           "verdict": pk.verdict.value}
                  for k, pk in sorted(stab.per_k.items())},
    }
    cxy = cxy_path_lift(rep)
    if isinstance(cxy, OriginHit):
        out["volume_path"] = {"defined": False, "origin_hit_t": cxy.t_star}
    else:
        out["volume_path"] = {"defined": True, "winding": cxy.winding,
                              "lifted": cxy.lifted}
    if isinstance(lift, LiftedAngle):
        out["lift"] = {"defined": True, "method": lift.method,
                       "winding": lift.winding, "lifted": lift.lifted,
                       "margin": lift.margin,
                       "supercritical": supercritical_check(lift, g.n)}
        (out["existence"]["divisor_margin"],
         out["existence"]["divisor"]) = divisor_angle_bounds(rep, lift)
    else:
        out["lift"] = {"defined": False, "reason": lift.reason,
                       "detail": lift.detail}
    sc = same_component(rep)
    out["same_component"] = {"status": sc.status,
                             "rays_between": sc.rays_between,
                             "same_ray": sc.same_ray}
    return out


def _json(o, nl: str = "\n") -> str:
    """json.dumps(o, indent=2, sort_keys=True) of plain dicts, lists and
    scalars, in one pass: with an indent the json module runs its
    pure-Python encoder, which costs more than building the report."""
    t = type(o)
    if t is float:
        if math.isfinite(o):
            return float.__repr__(o)
        return "NaN" if o != o else "Infinity" if o > 0 else "-Infinity"
    if t is str:
        return _json_str(o)
    inner = nl + "  "
    if t is dict:
        if not o:
            return "{}"
        return "{" + inner + ("," + inner).join(
            [_json_str(k) + ": " + _json(o[k], inner) for k in sorted(o)]
        ) + nl + "}"
    if t is list:
        if not o:
            return "[]"
        return "[" + inner + ("," + inner).join(
            [_json(v, inner) for v in o]) + nl + "]"
    if t is bool:
        return "true" if o else "false"
    if t is int:
        return int.__repr__(o)
    if o is None:
        return "null"
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def _write_out(text: str, out_path: str | None, stdout, tee=False) -> None:
    """text to --out when it is given, else (or also, with tee) to stdout."""
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    if tee or not out_path:
        stdout.write(text)


def run_analyze(cfg: RunConfig, out_path: str | None, stdout) -> int:
    report = analysis_report(cfg.geometry)
    _write_out(_json(report) + "\n", out_path, stdout, tee=True)
    return _EXIT_FOR[Existence(report["existence"]["value"])]


def _solve_rows(curve, check) -> str:
    import numpy as np
    flat = np.column_stack((curve.x, curve.f, curve.f_prime, check.residual,
                            check.theta_pointwise)).ravel().tolist()
    return ("x,f,f_prime,residual,theta\n"
            + _SOLVE_ROW * len(curve.x) % tuple(flat))


def _solution(rep):
    """(verdict, curve, check): only an EXISTS verdict is traced and
    verified, and a trace that fails raises TraceError."""
    verdict = existence_verdict(rep)
    if verdict.value is not Existence.EXISTS:
        return verdict, None, None
    try:
        curve = trace_solution(rep)
    except TraceError as exc:
        raise TraceError(f"trace failed despite yes-verdict: {exc}") from exc
    return verdict, curve, verify_solution(curve, rep)


def _require_verified(check) -> None:  # called once the output is written
    if check is not None and not check.passed:
        raise TraceError("traced curve failed verification")


def run_solve(cfg: RunConfig, out_path: str | None, stdout, stderr) -> int:
    rep = charge_report(cfg.geometry)
    verdict, curve, check = _solution(rep)
    if curve is None:
        stderr.write(f"no solve attempted: existence is "
                     f"{verdict.value.value} via {verdict.route.value} "
                     f"({verdict.reason})\n")
        return _EXIT_FOR[verdict.value]
    target = out_path or "solution.csv"
    _write_out(_solve_rows(curve, check), target, stdout)
    summary = {
        "samples": len(curve.x),
        "csv": target,
        "c": rep.c,
        "endpoint_error": check.endpoint_error,
        "residual_max": check.residual_max,
        "residual_l2": check.residual_l2,
        "theta_mean": check.theta_mean,
        "theta_oscillation": check.theta_oscillation,
        "verified": check.passed,
    }
    stdout.write(_json(summary) + "\n")
    _require_verified(check)
    return EXIT_EXISTS


def run_sweep(cfg: RunConfig, out_path: str | None, stdout) -> int:
    if cfg.sweep is None:
        raise ConfigError("sweep command requires a sweep spec in the config")
    sw, g0 = cfg.sweep, cfg.geometry
    ps = _linspace(*sw.p_range, sw.p_count)
    qs = _linspace(*sw.q_range, sw.q_count)
    lines = ["p,q,stability,existence,route,lift_defined,"
             "stability_margin,lift_margin,divisor_margin"]
    for p in ps:
        for q in qs:
            g = Geometry(n=g0.n, a=g0.a, p=p, q=q)
            lines.append(_sweep_row(g))
    _write_out("\n".join(lines) + "\n", out_path, stdout)
    return 0


def _linspace(start: float, stop: float, num: int) -> list:
    """np.linspace(start, stop, num) as Python floats, bit for bit."""
    div, delta = num - 1, stop - start
    if div == 0:
        return [0.0 * delta + start]
    step = delta / div
    if step == 0:  # delta / div underflowed
        return [i / div * delta + start for i in range(div)] + [stop]
    return [i * step + start for i in range(div)] + [stop]


def _sweep_row(g: Geometry) -> str:
    nan = float("nan")
    rep = charge_report(g)
    verdict = existence_verdict(rep)
    if rep.degenerate:
        return _SWEEP_ROW % (g.p, g.q, "degenerate", verdict.value.value,
                             verdict.route.value, "false", nan, nan, nan)
    stab, lift = stability_verdict(rep), sector_lift(rep)
    stab_margin = min(min(pk.sign_h.margin, pk.sign_e.margin)
                      for pk in stab.per_k.values())
    lift_defined = isinstance(lift, LiftedAngle)
    lift_margin = lift.margin if lift_defined else nan
    div_margin = divisor_angle_bounds(rep, lift)[0] if lift_defined else nan
    return _SWEEP_ROW % (g.p, g.q, stab.overall.value, verdict.value.value,
                         verdict.route.value, "true" if lift_defined else "false",
                         stab_margin, lift_margin, div_margin)


def run_figure(cfg: RunConfig, out_path: str | None, stdout) -> int:
    if cfg.figure is None:
        raise ConfigError("figure command requires a figure spec in the config")
    rep = charge_report(cfg.geometry)
    _, curve, check = _solution(rep)
    # exit 0 for every verdict; only an EXISTS verdict's curve is drawn
    _write_out(render_figure(rep, cfg.figure, curve=curve), out_path, stdout)
    _require_verified(check)
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


@functools.cache
def _parser() -> _Parser:
    """Built once per process: building costs far more than a parse."""
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
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _read_config(args.config)
        if args.command == "analyze":
            return run_analyze(cfg, args.out, sys.stdout)
        if args.command == "solve":
            return run_solve(cfg, args.out, sys.stdout, sys.stderr)
        if args.command == "sweep":
            return run_sweep(cfg, args.out, sys.stdout)
        return run_figure(cfg, args.out, sys.stdout)
    # OSError: a config that cannot be read or an --out that cannot be written
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TraceError as exc:
        print(f"anomaly: {exc}", file=sys.stderr)
        return EXIT_ANOMALY
    except OverflowError as exc:
        print(f"error: arithmetic overflow: {exc}", file=sys.stderr)
        return EXIT_ANOMALY
    except DegenerateGeometryError as exc:
        print(f"error: degenerate instance: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE


if __name__ == "__main__":
    sys.exit(main())
