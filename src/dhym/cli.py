"""Command-line front end: analyze, solve, sweep, and figure.

The analyze report and the solve summary print as json.dumps(..., indent=2,
sort_keys=True) prints them.  Their layout is derived from json.dumps once,
at import (_layout), and each op fills it with one % per block; _json
writes the scalars.

main reads <command> --config X [--out Y] itself; argparse, imported on
first need, reads any other argv and prints help and usage errors.

Exit codes: 0 a solution exists, 1 no solution, 2 inconclusive (a margin
in the deadband, or a record degenerate in floats with a gap below pi/n)
or a figure of a degenerate record, 3 anomaly (a yes-verdict whose trace
fails or does not verify, or overflow), 64 usage or configuration error.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from json.encoder import encode_basestring_ascii as _json_str

from .charges import (ChargeReport, DegenerateGeometryError, Geometry,
                      charge_report, degeneracy_check)
from .config import ConfigError, RunConfig, load_config
from .figure import render_figure
from .levelcurve import (ExistenceVerdict, TraceError, same_component,
                         trace_solution, verify_solution)
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
_SOLVE_ROW = ",".join(["%.16e"] * 5) + "\n"
_SWEEP_ROW = "%.17g,%.17g,%s,%s,%s,%.17g,%.17g,%.17g"


# The leaves of a _layout skeleton: a value slot prints %s and takes JSON
# text, a token slot prints "%s" and takes a token of a closed set as it is,
# and the rows slot {_ROWS: None} gives its line to the joined rows of a
# block.
_VALUE, _TOKEN, _ROWS = "<value>", "%s", "<rows>"


def _layout(skeleton, depth: int = 1) -> str:
    """The %-template of json.dumps(skeleton, indent=2, sort_keys=True): at
    depth 0 the whole text, else the members inside its braces, indented as
    json.dumps indents members at that depth.  Called at import only."""
    lines = json.dumps(skeleton, indent=2, sort_keys=True).split("\n")
    if depth:
        lines = ["  " * (depth - 1) + line for line in lines[1:-1]]
    return "\n".join(["%s" if f'"{_ROWS}"' in line else line
                      for line in lines]).replace(f'"{_VALUE}"', "%s")


# The analyze report's layout, one template per block and variant and one
# per row of its O(n) block, per_k.  Each skeleton lists its keys in sorted
# order, the order of the % arguments.  The per_k margins print through
# "%s", which is repr; they are finite, at most pi/2.
_CHARGE, _CHARGE_DEGENERATE = [_layout({"charge": {
    "degenerate": _VALUE, **degenerate_m, "r_x": _VALUE, "theta_hat": _VALUE,
    "zeta": [_VALUE, _VALUE]}})
    for degenerate_m in ({}, {"degenerate_m": _VALUE})]
_EXISTENCE = _layout({"existence": {
    "margin": _VALUE, "reason": _TOKEN, "value": _TOKEN}})
_GEOMETRY = _layout({"geometry": dict.fromkeys("anpq", _VALUE)})
_LIFT = _layout({"lift": {
    "defined": True, "divisor": _TOKEN, "divisor_margin": _VALUE,
    "lifted": _VALUE, "margin": _VALUE, "method": _TOKEN,
    "supercritical": _VALUE, "winding": _VALUE}})
_LIFT_UNDEFINED = _layout({"lift": {
    "defined": False, "detail": _VALUE, "reason": _TOKEN}})
_SAME_COMPONENT = _layout({"same_component": {
    "same_ray": _VALUE, "status": _TOKEN}})
_STABILITY = _layout({"stability": {"overall": _TOKEN,
                                    "per_k": {_ROWS: None}}})
_PER_K_ROW = _layout({_TOKEN: {
    "margin_E": _VALUE, "margin_H": _VALUE, "sign_E": _TOKEN,
    "sign_H": _TOKEN, "verdict": _TOKEN}}, depth=3)
_VOLUME_PATH = _layout({"volume_path": {
    "defined": True, "lifted": _VALUE, "winding": _VALUE}})
_ORIGIN_HIT = _layout({"volume_path": {
    "defined": False, "origin_hit_t": _VALUE}})
_REPORT = _layout({_ROWS: None}, depth=0)  # the blocks are its rows
_SUMMARY = _layout(dict.fromkeys(  # the solve summary
    ["c", "csv", "endpoint_error", "residual_l2", "residual_max", "samples",
     "theta_mean", "theta_oscillation", "verified"], _VALUE), depth=0)


def analysis_report(rep: ChargeReport, verdict: ExistenceVerdict) -> str:
    """The analyze report of one instance as JSON text without the final
    newline, printed in one pass from the records the layers return; no
    dict is built.  The text is what json.dumps(report, indent=2,
    sort_keys=True) prints for the same report.

    The verdict is printed, not decided, here.  A non-degenerate record
    also gets its certificates, each computed once and in this order:
    stability, the sector lift, the volume path, the divisor bound and the
    components.
    """
    g = rep.g
    degenerate_m, certificates = (), []
    if rep.degenerate:
        degenerate_m = (_json(degeneracy_check(rep)),)
    else:
        # certificates, printed beside the verdict; none of them decides it
        stab, lift = stability_verdict(rep), sector_lift(rep)
        cxy = cxy_path_lift(rep)
        if isinstance(lift, LiftedAngle):
            divisor_margin, divisor = divisor_angle_bounds(rep, lift)
            lift_block = _LIFT % (divisor, _json(divisor_margin),
                                  _json(lift.lifted), _json(lift.margin),
                                  lift.method,
                                  _json(supercritical_check(lift, g.n)),
                                  _json(lift.winding))
        else:
            lift_block = _LIFT_UNDEFINED % (_json(lift.detail), lift.reason)
        sc = same_component(rep)
        # _value_ skips the enum value property, as costly as a float's repr
        per_k = ",\n".join([
            _PER_K_ROW % (k, pk.sign_e.margin, pk.sign_h.margin,
                          pk.sign_e.value._value_, pk.sign_h.value._value_,
                          pk.verdict._value_)
            for k in _per_k_order(g.n) for pk in (stab.per_k[k],)])
        certificates = [
            lift_block,
            _SAME_COMPONENT % (_json(sc.same_ray), sc.status),
            _STABILITY % (stab.overall.value, per_k),
            _ORIGIN_HIT % _json(cxy.t_star) if isinstance(cxy, OriginHit)
            else _VOLUME_PATH % (_json(cxy.lifted), _json(cxy.winding))]
    return _REPORT % ",\n".join([
        (_CHARGE_DEGENERATE if rep.degenerate else _CHARGE) % (
            _json(rep.degenerate), *degenerate_m, _json(rep.r_x),
            _json(rep.theta_hat), _json(rep.zeta.real), _json(rep.zeta.imag)),
        _EXISTENCE % (_json(verdict.margin), verdict.reason,
                      verdict.value.value),
        _GEOMETRY % (_json(g.a), _json(g.n), _json(g.p), _json(g.q)),
        *certificates])


@functools.lru_cache(maxsize=16)
def _per_k_order(n: int) -> tuple:
    """1..n-1 sorted as json.dumps sorts the per_k keys: "10" before "2"."""
    return tuple(sorted(range(1, n), key=str))


def _json(o) -> str:
    """json.dumps(o) of one scalar: None, a bool, an int, a str or a float,
    non-finite floats as NaN, Infinity and -Infinity.  Anything else, a
    numpy scalar, a record or a container, raises TypeError."""
    t = type(o)
    if t is float:
        if math.isfinite(o):
            return float.__repr__(o)
        return "NaN" if o != o else "Infinity" if o > 0 else "-Infinity"
    if t is str:
        return _json_str(o)
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
    rep = charge_report(cfg.geometry)
    verdict = existence_verdict(rep)
    _write_out(analysis_report(rep, verdict) + "\n", out_path, stdout,
               tee=True)
    return _EXIT_FOR[verdict.value]


# the exponents E = floor(log10 |v|) the array path of _solve_rows prints:
# within them the Dekker splits of |v| < 1e281 and of 10^(16-E) <= 1e296
# cannot overflow, and every term of the product stays a normal double
_EXP_LIMIT = 280
# the offset of the leads in the word table of _digit_tables
_LEAD = 10000


@functools.cache
def _digit_tables():
    """The tables of _solve_rows' array path, built on its first call.

    ``powers`` has one row per E in [-_EXP_LIMIT, _EXP_LIMIT]: 10^(16-E) as
    the double-double hi + lo, hi and lo each correctly rounded by Python's
    int division, then hi's Dekker halves.  ``words`` holds 4-byte text
    groups, NUL where blank: the 4-digit groups zero-padded (offset 0); the
    sign, the lead digit and the point (_LEAD, 10 per sign); and from
    _LEAD + 20, four per E, the exponent and a comma, then the exponent and
    a newline, each as two words.
    """
    import numpy as np
    hi, lo = [], []
    for e in range(-_EXP_LIMIT, _EXP_LIMIT + 1):
        num, den = (10 ** (16 - e), 1) if e <= 16 else (1, 10 ** (e - 16))
        h = num / den
        h_num, h_den = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * h_den - h_num * den) / (den * h_den))
    hi = np.array(hi)
    split = hi * 134217729.0
    hi_hi = split - (split - hi)
    powers = np.column_stack((hi, hi_hi, hi - hi_hi, lo))

    groups = np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10 + 48
    small = "".join([f"{sign}{top}.".ljust(4, "\0")
                     for sign in "\0-" for top in range(10)]
                    + [f"e{e:+03}{sep}".ljust(8, "\0")
                       for e in range(-_EXP_LIMIT, _EXP_LIMIT + 1)
                       for sep in ",\n"])
    words = np.concatenate([groups.astype(np.uint8).ravel(),
                            np.frombuffer(small.encode(), dtype=np.uint8)])
    return powers, words.view(np.uint32)


def _python_row(values) -> str:
    return _SOLVE_ROW % tuple(values)


def _solve_rows(curve, check) -> str:
    """The solve CSV: a header, then x, f, f_prime, residual and theta at
    each node, every number as Python's "%.16e" prints it.  The text is
    what np.savetxt(rows, fmt="%.16e", delimiter=",", header=..., comments="")
    writes.

    The numbers are printed in one array pass.  For v with E = floor(log10
    |v|), |v| 10^(16-E) is formed as an exact Dekker product with the
    double-double 10^(16-E) of _digit_tables plus a correction, and rounded
    to the integer D of 17 digits; the rest of the sum bounds the error of
    the scaled value.  Each number's text is then seven NUL-padded 4-byte
    words: the sign, D's lead digit and the point, the other 16 digits in
    four groups, and the exponent with the field's separator; deleting the
    NULs gives the CSV.

    A row holding a doubtful number is printed by Python's own formatting,
    so Python decides every case the array path cannot: a scaled value
    whose fraction lies within the error bound of 1/2 (a possible tie), a D
    outside [1e16, 1e17) or, at 1e16, a scaled value that may lie below it
    (E one too large), an E outside the tables, zero and non-finite values.
    """
    import numpy as np
    powers, words = _digit_tables()
    flat = np.column_stack((curve.x, curve.f, curve.f_prime, check.residual,
                            check.theta_pointwise)).ravel()
    n = len(flat)
    a = np.abs(flat)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(a))
    ok = np.abs(e) <= _EXP_LIMIT  # False for 0, subnormals, inf and nan
    row = np.where(ok, e, 0.0).astype(np.intp)
    row += _EXP_LIMIT  # E's row in the tables
    a = np.where(ok, a, 1.0)
    hi, hi_hi, hi_lo, lo = powers.take(row, axis=0).T
    # the scaled value a 10^(16-E) is p + t: p + t_exact is the Dekker
    # product a hi, and t also takes w = a lo; rounding w and the sum, and
    # lo's own rounding, leave at most 2^-52 |w| + 2^-53 |t| (first order)
    split = a * 134217729.0
    a_hi = split - (split - a)
    a_lo = a - a_hi
    p = a * hi
    t = a_hi * hi_hi
    t -= p
    t += a_hi * hi_lo
    t += a_lo * hi_hi
    t += a_lo * hi_lo
    w = a * lo
    t += w
    bound = np.abs(w)
    bound += np.abs(t)
    bound *= 2.0 ** -50  # at least four times that error
    t_int = np.rint(t)
    frac = t - t_int
    # p >= 2^53 is an integer wherever D is accepted, so D = p + t_int is
    # the scaled value rounded, and frac is the scaled value less D
    d = p.astype(np.int64)
    d += t_int.astype(np.int64)
    d_off = d - 10 ** 16
    doubt = 0.5 - np.abs(frac) <= bound  # a possible tie
    doubt |= d_off.view(np.uint64) >= 9 * 10 ** 16  # D outside [1e16, 1e17)
    doubt |= (d_off == 0) & (frac < bound)  # below 1e16: E one too large
    doubt |= ~ok
    d[doubt] = 10 ** 16

    # word rows: the sign, lead digit and point, four groups of four
    # digits, and the suffix's two words
    idx = np.empty((7, n), dtype=np.intp)
    top = d // 10 ** 16
    d -= top * 10 ** 16
    np.multiply(flat < 0, 10, out=idx[0])
    idx[0] += top
    idx[0] += _LEAD
    high = d // 10 ** 8
    low = d - high * 10 ** 8
    np.floor_divide(high, 10 ** 4, out=idx[1])
    np.subtract(high, idx[1] * 10 ** 4, out=idx[2])
    np.floor_divide(low, 10 ** 4, out=idx[3])
    np.subtract(low, idx[3] * 10 ** 4, out=idx[4])
    np.multiply(row, 4, out=idx[5])
    idx[5] += _LEAD + 20
    idx[5].reshape(-1, 5)[:, -1] += 2  # the last column ends the line
    np.add(idx[5], 1, out=idx[6])
    text = words.take(idx.T).tobytes().translate(None, b"\0").decode("ascii")

    if doubt.any():
        lines = text.splitlines(keepends=True)
        rows = flat.reshape(-1, 5)
        for i in np.flatnonzero(doubt.reshape(-1, 5).any(axis=1)).tolist():
            lines[i] = _python_row(rows[i].tolist())
        text = "".join(lines)
    return "x,f,f_prime,residual,theta\n" + text


def _solution(rep):
    """(verdict, curve, check): only an EXISTS verdict is traced and
    verified, and a trace that fails raises TraceError."""
    verdict = existence_verdict(rep)
    if verdict.value is not Existence.EXISTS:
        return verdict, None, None
    try:
        curve = trace_solution(rep, verdict)
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
                     f"{verdict.value.value} ({verdict.reason})\n")
        return _EXIT_FOR[verdict.value]
    target = out_path or "solution.csv"
    _write_out(_solve_rows(curve, check), target, stdout)
    stdout.write(_SUMMARY % (
        _json(rep.c), _json(target), _json(check.endpoint_error),
        _json(check.residual_l2), _json(check.residual_max),
        _json(len(curve.x)), _json(check.theta_mean),
        _json(check.theta_oscillation), _json(check.passed)) + "\n")
    _require_verified(check)
    return EXIT_EXISTS


def run_sweep(cfg: RunConfig, out_path: str | None, stdout) -> int:
    if cfg.sweep is None:
        raise ConfigError("sweep command requires a sweep spec in the config")
    sw, g0 = cfg.sweep, cfg.geometry
    ps = _linspace(*sw.p_range, sw.p_count)
    qs = _linspace(*sw.q_range, sw.q_count)
    lines = ["p,q,stability,existence,lift_defined,"
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
                             "false", nan, nan, nan)
    stab, lift = stability_verdict(rep), sector_lift(rep)
    stab_margin = min(min(pk.sign_h.margin, pk.sign_e.margin)
                      for pk in stab.per_k.values())
    lift_defined = isinstance(lift, LiftedAngle)
    lift_margin = lift.margin if lift_defined else nan
    div_margin = divisor_angle_bounds(rep, lift)[0] if lift_defined else nan
    return _SWEEP_ROW % (g.p, g.q, stab.overall.value, verdict.value.value,
                         "true" if lift_defined else "false",
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


_COMMANDS = {"analyze": "all verdicts for one instance (JSON)",
             "solve": "trace the solution curve (CSV + JSON)",
             "sweep": "stability map over a (p, q) grid (CSV)",
             "figure": "level-set figure (SVG)"}


def _args(argv: list) -> tuple:
    """(command, config, out) as argparse reads argv; the documented form,
    each value "-" or not starting with "-", is read here without it."""
    if (len(argv) in (3, 5) and argv[0] in _COMMANDS
            and argv[1] == "--config" and argv[3:4] in ([], ["--out"])
            and all(type(v) is str and (v == "-" or v[:1] != "-")
                    for v in argv[2::2])):
        return argv[0], argv[2], argv[4] if len(argv) == 5 else None
    ns = _parser().parse_args(argv)
    return ns.command, ns.config, ns.out


@functools.cache
def _parser():
    """Built once per process, and only for an argv outside the documented
    form: importing argparse and building it cost more than a call's work."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        # a usage error exits EXIT_USAGE: argparse's 2 reads as inconclusive
        def error(self, message):
            self.print_usage(sys.stderr)
            self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    parser = _Parser(
        prog="dhym",
        description="Existence tests and level-curve solver for the deformed "
                    "Hermitian-Yang-Mills equation on the blowup of P^n.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in _COMMANDS.items():
        sp = sub.add_parser(name, help=helptext)
        sp.add_argument("--config", required=True,
                        help="path to JSON config, or - for stdin")
        sp.add_argument("--out", default=None, help="output file path")
    return parser


def main(argv=None) -> int:
    command, config, out = _args(sys.argv[1:] if argv is None else list(argv))
    try:
        cfg = _read_config(config)
        if command == "analyze":
            return run_analyze(cfg, out, sys.stdout)
        if command == "solve":
            return run_solve(cfg, out, sys.stdout, sys.stderr)
        if command == "sweep":
            return run_sweep(cfg, out, sys.stdout)
        return run_figure(cfg, out, sys.stdout)
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
