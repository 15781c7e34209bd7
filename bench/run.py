"""End-to-end and per-layer benchmark of the dhym command-line front end.

Run from the root of a checkout:

    python3 bench/run.py --workload analyze_pool --seed 1 --seconds 30 --trace 0

Each workload is a closed loop with one client in one process and one
thread.  An operation is one in-process call to ``dhym.cli.main`` with the
JSON config on stdin; stdout and stderr are captured in memory, and the
``solve`` CSV is read back from ``.bench_out/``.  Inputs come from the
samplers below, which never call into ``dhym``; every output is checked
without ``dhym`` code.

Workloads:
  analyze_pool  ``dhym analyze`` on independent random instances: the
                verdict layers (charges, rays, stability, lifting), with the
                volume-path tracker on most instances.
  solve_stable  ``dhym solve`` on instances the sampler certifies stable:
                the trace, its verification and the CSV writer; the
                volume-path tracker never runs.
  figure_pool   ``dhym figure`` at the default 256^2 grid: the contour
                extraction and the SVG writer.

With ``--trace 0`` the run reports the end-to-end metrics, with tracing
off.  With ``--trace 1`` it runs each input twice, untraced and traced in
alternating order, and reports the per-layer metrics of the traced calls
plus the tracing overhead.  The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import hashlib
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import NamedTuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(".bench_out")  # relative to ROOT, so outputs do not name the checkout
SOLVE_CSV = OUT_DIR / "solution.csv"

# warm-up operations per workload: untimed, checked, and hashed into the
# determinism digest
WARMUP_OPS = {"analyze_pool": 40, "solve_stable": 30, "figure_pool": 3}
SETUP_REPEATS = 5

# output-check constants; dhym's own defaults are tol_endpoint = 1e-6 and a
# per-step level target of 1e-10 * scale, so these leave room for rounding
# and none for a wrong curve
TOL_ENDPOINT = 1e-6
LEVEL_REL = 1e-8
# the stable sampler keeps every per-k sign this far (radians) from a ray,
# 100 times dhym's default angular deadband
STABLE_MARGIN = 1e-6

EXIT_FOR_EXISTENCE = {"exists": 0, "not_exists": 1, "inconclusive": 2}

# "<module>.<function>" for every traced layer function
TRACED = (
    "config.load_config",
    "charges.charge_report", "charges.theta_hat", "charges.zeta",
    "rays.sector_of", "rays.ray_set",
    "lifting.sector_lift", "lifting.cxy_path_lift",
    "stability.stability_verdict", "stability.existence_verdict",
    "levelcurve.level_context", "levelcurve.same_component",
    "levelcurve.graphical_existence", "levelcurve.trace_solution",
    "levelcurve.verify_solution",
    "contour.extract_level_set",
    "figure.render_figure",
    "cli.analysis_report", "cli.run_solve", "cli.run_figure", "cli.main",
)
# ratios of useful outcomes to attempts: name -> (function, outcome of one call)
RATIOS = {
    "lifting.sector_lift.defined_frac":
        ("lifting.sector_lift", lambda r: float(hasattr(r, "lifted"))),
    "lifting.cxy_path_lift.origin_hit_frac":
        ("lifting.cxy_path_lift", lambda r: float(hasattr(r, "t_star"))),
    "contour.extract_level_set.polylines_per_call":
        ("contour.extract_level_set",
         lambda r: float(len(getattr(r, "polylines", ())))),
}


# --- samplers (no dhym code) -------------------------------------------------

def _zeta(n: int, a: float, p: float, q: float) -> complex:
    return complex(a, p) ** n - complex(1.0, q) ** n


def _scale(n: int, a: float, p: float, q: float) -> float:
    return max(abs(complex(1.0, q)), abs(complex(a, p))) ** n


def _dimension(i: int) -> int:
    # n cycles through 2..12, so every run sees the same mix of dimensions
    # and the cost of a run does not hinge on how many large n it drew
    return 2 + i % 11


def random_instance(rng: random.Random, i: int) -> tuple:
    """n in 2..12, a in (1, 10), p and q in (-10, 10), non-degenerate."""
    n = _dimension(i)
    while True:
        a = rng.uniform(1.0, 10.0)
        p = rng.uniform(-10.0, 10.0)
        q = rng.uniform(-10.0, 10.0)
        if a > 1.0 and abs(_zeta(n, a, p, q)) > 1e-9 * _scale(n, a, p, q):
            return n, a, p, q


def certified_stable(n: int, a: float, p: float, q: float) -> bool:
    """Every k in 1..n-1 gives Im(i^(n-k) e^(-i theta) z^k) one sign on both
    z1 = 1+iq and z2 = a+ip, with each z at least STABLE_MARGIN from a ray."""
    zeta = _zeta(n, a, p, q)
    if abs(zeta) <= 1e-6 * _scale(n, a, p, q):
        return False
    theta = cmath.phase(zeta)
    args = (cmath.phase(complex(1.0, q)), cmath.phase(complex(a, p)))
    for k in range(1, n):
        signs = set()
        for arg in args:
            psi = (n - k) * math.pi / 2 - theta + k * arg
            if abs(math.remainder(psi, math.pi)) / k <= STABLE_MARGIN:
                return False
            signs.add(math.sin(psi) > 0)
        if len(signs) != 1:
            return False
    return True


def stable_instance(rng: random.Random, i: int) -> tuple:
    """Both endpoint arguments drawn within one sector width of a common
    base angle, kept only when certified stable."""
    n = _dimension(i)
    half = math.pi / (2 * n)
    while True:
        a = rng.uniform(1.05, 10.0)
        base = rng.uniform(-math.pi / 2, math.pi / 2)
        ph1 = min(max(base + rng.uniform(-half, half), -1.4), 1.4)
        ph2 = min(max(base + rng.uniform(-half, half), -1.4), 1.4)
        p, q = a * math.tan(ph2), math.tan(ph1)
        if certified_stable(n, a, p, q):
            return n, a, p, q


# --- operations ----------------------------------------------------------------

def _config(inst: tuple, **extra) -> str:
    n, a, p, q = inst
    return json.dumps({"n": n, "a": a, "p": p, "q": q, **extra})


def analyze_op(inst):
    return ["analyze", "--config", "-"], _config(inst)


def solve_op(inst):
    return (["solve", "--config", "-", "--out", str(SOLVE_CSV)],
            _config(inst))


def figure_op(inst):
    n, a, p, q = inst
    w = 1.3 * max(a, abs(p), abs(q), 1.0)
    return (["figure", "--config", "-"],
            _config(inst, figure={"window": [-w, w, -w, w]}))


class Outcome(NamedTuple):
    code: int | None
    stdout: str
    stderr: str
    csv: str | None
    error: str | None

    def digest_bytes(self) -> bytes:
        return "\0".join([str(self.code), self.error or "", self.stdout,
                          self.stderr, self.csv or ""]).encode() + b"\0"


def call_cli(cli, argv: list, stdin_text: str, reads_csv: bool) -> Outcome:
    """One operation: dhym.cli.main(argv) with stdin/stdout/stderr in memory.

    Returns the outcome and leaves timing to the caller.  ``cli.main`` is
    looked up on the module at each call so that the traced run's wrapper
    is the one called.
    """
    if reads_csv:
        with contextlib.suppress(FileNotFoundError):
            SOLVE_CSV.unlink()
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    code, error = None, None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        error = f"system_exit:{exc.code}"
    except Exception as exc:  # an uncaught exception is a counted failure
        error = f"exception:{type(exc).__name__}"
    finally:
        sys.stdin = saved_stdin
    csv = None
    if reads_csv and SOLVE_CSV.exists():
        csv = SOLVE_CSV.read_text()
    return Outcome(code, out.getvalue(), err.getvalue(), csv, error)


# --- output checks (no dhym code) -----------------------------------------------

def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=reject)


def check_analyze(inst, res: Outcome) -> str | None:
    try:
        doc = _strict_json(res.stdout)
        value = doc["existence"]["value"]
    except (ValueError, KeyError, TypeError):
        return "analyze_strict_json"
    if EXIT_FOR_EXISTENCE.get(value) != res.code:
        return "analyze_exit_matches_existence"
    return None


def _read_csv(text: str) -> np.ndarray:
    lines = text.splitlines()
    if not lines or lines[0] != "x,f,f_prime,residual,theta":
        raise ValueError("bad header")
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    if rows.ndim != 2 or rows.shape[1] != 5 or rows.shape[0] < 2:
        raise ValueError("bad shape")
    return rows


def check_solve(inst, res: Outcome) -> str | None:
    if res.code == 1:
        return "solve_stable_reported_no_solution"
    if res.code != 0:
        return None  # inconclusive: nothing was solved
    try:
        _strict_json(res.stdout)
    except ValueError:
        return "solve_strict_json"
    try:
        rows = _read_csv(res.csv or "")
    except ValueError:
        return "solve_csv_readable"
    n, a, p, q = inst
    x, f = rows[:, 0], rows[:, 1]
    if x[0] != 1.0 or abs(x[-1] - a) > 1e-12 * a or np.any(np.diff(x) <= 0):
        return "solve_x_grid"
    ep = TOL_ENDPOINT * max(1.0, abs(p))
    if not (abs(f[0] - q) <= ep and abs(f[-1] - p) <= ep):
        return "solve_endpoints"
    theta = cmath.phase(_zeta(n, a, p, q))
    rot = cmath.exp(-1j * theta)
    c = 0.5 * ((rot * complex(1.0, q) ** n).imag
               + (rot * complex(a, p) ** n).imag)
    z = x + 1j * f
    level = np.imag(rot * z ** n) - c
    scale = max(1.0, float(np.max(np.abs(z))) ** n)
    if not np.all(np.abs(level) <= LEVEL_REL * scale):
        return "solve_level_residual"
    return None


_SVG = "{http://www.w3.org/2000/svg}"


def check_figure(inst, res: Outcome) -> str | None:
    try:
        root = ET.fromstring(res.stdout)
    except ET.ParseError:
        return "figure_xml"
    circles = [e for e in root.iter(_SVG + "circle")
               if e.get("class") == "endpoint"]
    levels = [e for e in root.iter(_SVG + "polyline")
              if e.get("class") == "level"]
    if len(circles) != 2:
        return "figure_endpoint_circles"
    if not levels:
        return "figure_level_polyline"
    return None


WORKLOADS = {
    "analyze_pool": (random_instance, analyze_op, check_analyze),
    "solve_stable": (stable_instance, solve_op, check_solve),
    "figure_pool": (random_instance, figure_op, check_figure),
}


def failure_of(check, inst, res: Outcome) -> tuple:
    """The failure reason or None, and whether the failure is a wrong
    output, as opposed to an error the program raised or reported."""
    if res.error:
        return res.error, False
    if res.code in (3, 64):
        return f"exit_code_{res.code}", False
    reason = check(inst, res)
    return reason, reason is not None


# --- tracing ---------------------------------------------------------------------

class Tracer:
    """Wraps the TRACED functions at every binding site inside ``dhym``.

    A name that the package no longer defines is reported as absent.
    Spans are (function index, start ns, end ns, parent span, op id,
    outcome) tuples kept in memory until ``write``.
    """

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.op = -1
        self.wrappers: dict = {}  # id(original) -> (original, wrapper)
        self.absent: list = []
        self.patches: list = []
        probes = {fn: probe for fn, probe in RATIOS.values()}
        for idx, name in enumerate(TRACED):
            mod_name, func_name = name.split(".")
            func = getattr(sys.modules.get("dhym." + mod_name), func_name, None)
            if callable(func):
                self.wrappers[id(func)] = (func, self._wrap(idx, func,
                                                            probes.get(name)))
            else:
                self.absent.append(name)

    def _wrap(self, idx: int, func, probe):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            outcome = None
            t0 = clock()
            try:
                result = func(*args, **kwargs)
                if probe is not None:
                    outcome = probe(result)
                return result
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (idx, t0, t1, parent, self.op, outcome)

        return wrapper

    def install(self):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "dhym"
                                   or mod_name.startswith("dhym.")):
                continue
            for attr, val in list(vars(mod).items()):
                entry = self.wrappers.get(id(val))
                if entry is not None and entry[0] is val:
                    setattr(mod, attr, entry[1])
                    self.patches.append((mod, attr, val))

    def uninstall(self):
        for mod, attr, val in self.patches:
            setattr(mod, attr, val)
        self.patches.clear()

    def layer_metrics(self, ops: int) -> dict:
        count = [0] * len(TRACED)
        incl = [0] * len(TRACED)
        self_ns = [0] * len(TRACED)
        outcomes: dict = {}
        for idx, t0, t1, parent, _, outcome in self.spans:
            d = t1 - t0
            count[idx] += 1
            incl[idx] += d
            self_ns[idx] += d
            if parent >= 0:
                self_ns[self.spans[parent][0]] -= d
            if outcome is not None:
                outcomes.setdefault(TRACED[idx], []).append(outcome)
        out = {}
        for idx, name in enumerate(TRACED):
            out[f"{name}.calls_per_op"] = (count[idx] / ops, "count")
            out[f"{name}.self_us_per_op"] = (self_ns[idx] / 1e3 / ops, "us")
            out[f"{name}.us_per_call"] = (
                incl[idx] / 1e3 / count[idx] if count[idx] else 0.0, "us")
        for metric, (func, _) in RATIOS.items():
            vals = outcomes.get(func, [])
            out[metric] = (sum(vals) / len(vals) if vals else 0.0, "ratio")
        return out

    def write(self, path: Path):
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": TRACED, "absent": self.absent,
                                 "fields": ["name", "start_ns", "end_ns",
                                            "parent", "op", "outcome"]}) + "\n")
            for idx, t0, t1, parent, op, outcome in self.spans:
                fh.write(json.dumps([TRACED[idx], t0, t1, parent, op,
                                     outcome]) + "\n")


# --- measurement -----------------------------------------------------------------

def measure_setup() -> list:
    """Wall times of fresh interpreters that import dhym.cli.

    The benchmark's own import has already written the bytecode cache, so
    compilation is not counted.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import dhym.cli"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return times


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "dhym").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def check_determinism(workload: str, seed: int, digest: str) -> bool:
    """Compare with an earlier run of the same source, workload and seed."""
    store = OUT_DIR / "digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    key = f"{source_hash()}/{workload}/{seed}"
    previous = known.setdefault(key, digest)
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, store)
    return previous == digest


def tail(latencies_ms: list) -> tuple:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def p95(latencies_ms: list) -> float:
    """The 95th percentile, interpolated as statistics.quantiles does."""
    if len(latencies_ms) < 2:
        return latencies_ms[0]
    return statistics.quantiles(latencies_ms, n=20)[-1]


class Run:
    def __init__(self, workload: str, seed: int):
        self.sampler, self.make_op, self.check = WORKLOADS[workload]
        self.reads_csv = workload == "solve_stable"
        self.rng = random.Random(seed)
        self.index = 0
        self.attempted = 0
        self.failures: dict = {}
        self.wrong_outputs = 0

    def next_input(self):
        inst = self.sampler(self.rng, self.index)
        self.index += 1
        return inst, self.make_op(inst)

    def execute(self, cli, inst, op) -> tuple:
        """Run and check one operation; returns (outcome, ns, failed)."""
        argv, stdin_text = op
        t0 = time.perf_counter_ns()
        res = call_cli(cli, argv, stdin_text, self.reads_csv)
        ns = time.perf_counter_ns() - t0
        self.attempted += 1
        reason, wrong = failure_of(self.check, inst, res)
        if reason:
            self.record(reason, wrong)
        return res, ns, reason is not None

    def record(self, reason: str, wrong_output: bool):
        self.failures[reason] = self.failures.get(reason, 0) + 1
        self.wrong_outputs += wrong_output

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "dhym" / "cli.py").is_file():
        print(f"error: no dhym sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import dhym.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "dhym":
        print(f"error: imported dhym from {cli.__file__}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    setup_times = [] if args.trace else measure_setup()

    run = Run(args.workload, args.seed)
    digest = hashlib.sha256()
    warmup = WARMUP_OPS[args.workload]
    for _ in range(warmup):
        inst, op = run.next_input()
        res, _, _ = run.execute(cli, inst, op)
        digest.update(res.digest_bytes())
    digest_hex = digest.hexdigest()
    deterministic = check_determinism(args.workload, args.seed, digest_hex)
    print(f"digest sha256 {digest_hex} over the first {warmup} operations"
          f"{'' if deterministic else ' DIFFERS from an earlier run'}")

    if args.trace:
        metrics = traced_loop(cli, run, args)
    else:
        metrics = timed_loop(cli, run, args, setup_times)

    print(f"attempted {run.attempted} failed {run.failed} "
          f"failed_frac {run.failed / run.attempted:.6g} "
          f"wrong outputs {run.wrong_outputs}")
    for reason, count in sorted(run.failures.items()):
        print(f"  failed check {reason}: {count}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        # an error the program reports (exit 3, a traceback) is a failed
        # operation; only a wrong or non-deterministic output is incorrect
        "correct": run.wrong_outputs == 0 and deterministic,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def timed_loop(cli, run: Run, args, setup_times: list) -> dict:
    latencies_ms, done, inconclusive, decided = [], 0, 0, 0
    end = time.perf_counter() + args.seconds
    while time.perf_counter() < end:
        inst, op = run.next_input()
        res, ns, failed = run.execute(cli, inst, op)
        latencies_ms.append(ns / 1e6)
        if failed:
            continue
        done += 1
        inconclusive += res.code == 2
        decided += res.code in (0, 1)
    measured = len(latencies_ms)
    tail_ms, tail_pct, beyond = tail(latencies_ms)
    print(f"operations {measured} completed {done} inconclusive_frac "
          f"{inconclusive / measured:.6g} ({inconclusive} of {measured})")
    # printed, not bounded: see bench/README.md
    print(f"latency_ms_tail {tail_ms:.6g} ms, p{tail_pct:.3f} of {measured} "
          f"samples, {beyond} beyond it")
    print(f"ops_per_s {done / (sum(latencies_ms) / 1e3):.6g} 1/s")
    print(f"latency_ms_p50 {statistics.median(latencies_ms):.6g} ms")
    print("setup_s samples " + " ".join(f"{t:.4f}" for t in setup_times))
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "latency_ms_p95": (p95(latencies_ms), "ms"),
        "decided_frac": (decided / measured, "frac"),
    }


def traced_loop(cli, run: Run, args) -> dict:
    """Each input runs untraced and traced, in alternating order; per-layer
    metrics come from the traced calls only."""
    tracer = Tracer()
    plain_ns = traced_ns = ops = 0
    end = time.perf_counter() + args.seconds
    while time.perf_counter() < end:
        inst, op = run.next_input()
        results = {}
        for traced in ((False, True) if ops % 2 == 0 else (True, False)):
            if traced:
                tracer.op = ops
                tracer.install()
            try:
                results[traced] = run.execute(cli, inst, op)
            finally:
                tracer.uninstall()
        if (results[False][0].digest_bytes()
                != results[True][0].digest_bytes()):
            run.record("trace_changed_output", True)
        plain_ns += results[False][1]
        traced_ns += results[True][1]
        ops += 1
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_path)
    print(f"traced operations {ops}, spans {len(tracer.spans)} written to "
          f"{spans_path}")
    if tracer.absent:
        print("absent layers: " + " ".join(tracer.absent))
    metrics = tracer.layer_metrics(ops)
    metrics["trace_overhead_frac"] = (traced_ns / plain_ns - 1.0, "frac")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
