"""Per-layer times of dhym in µs per instance, for one or more source trees.

    python3 tools/layers.py --out BENCH_layers.json parent=../parent change=.

Each ``LABEL=ROOT`` names a checkout whose ``src/`` holds the ``dhym``
package.  For every root, fresh interpreters with ``ROOT/src`` on the path
time each layer in ``LAYERS`` over seeded pools drawn by the samplers of
this checkout's ``bench/run.py``, so every root sees the same inputs:

- ``charge_report``, ``stability_verdict``, ``existence_verdict``,
  ``sector_lift``, ``cxy_path_lift``, ``graphical_existence`` and
  ``analysis_report`` on ``random_instance``, the inputs of analyze_pool;
- ``trace_solution`` and ``verify_solution`` on ``stable_instance``, the
  inputs of solve_stable, wherever the verdict is EXISTS;
- ``marching_squares``, ``extract_level_set`` and ``render_figure`` on
  ``random_instance`` with figure_pool's window at the default 256^2 grid;
  ``marching_squares`` gets the grids that ``extract_level_set`` passes it.

A layer's inputs (the report, the verdict, the curve, the grids) are built
untimed, and its time is one pass over its pool divided by the pool's size,
so it counts the layer's own call and what it calls: ``render_figure``
includes ``extract_level_set``, which includes ``marching_squares``.  Every
child first makes one untimed pass.

Around each pass the child also reads its minor page faults
(``resource.getrusage(RUSAGE_SELF).ru_minflt``), per instance like the
time: a layer that allocates fresh pages on every call shows there.

Each child also times two fixed kernels, a pure-Python loop and a numpy
complex multiply.  A layer's time divided by a kernel's compares across
sessions and machines, where the raw times do not.

Children run ``--runs`` times per root.  Runs alternate between the roots,
and the order of the roots is reversed on every other run.  The JSON output
holds, per root, the best (least) and median time of each layer and kernel
with every sample, the median minor page faults per instance with every
sample, and the names of layers the root does not define, with the
Python and numpy versions and the core count.  The script exits 1 if a root
lacks a layer.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SAMPLES = 256  # the figure grid that figure_pool draws at
# "<module>.<function>" of every timed layer, in dhym
LAYERS = ("charges.charge_report", "stability.stability_verdict",
          "stability.existence_verdict", "lifting.sector_lift",
          "lifting.cxy_path_lift", "levelcurve.graphical_existence",
          "cli.analysis_report", "levelcurve.trace_solution",
          "levelcurve.verify_solution", "contour.marching_squares",
          "contour.extract_level_set", "figure.render_figure")
# the fewest instances that hold every dimension 2..12 of the samplers once
MIN_INSTANCES = 11
SEED = 1  # of each pool's random.Random


def load_bench():
    spec = importlib.util.spec_from_file_location("bench_run",
                                                  ROOT / "bench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pools(instances: int) -> dict:
    """name -> list of (n, a, p, q), each pool from its own Random(SEED)."""
    bench = load_bench()
    out = {}
    for name, sampler in (("random", bench.random_instance),
                          ("stable", bench.stable_instance)):
        rng = random.Random(SEED)
        out[name] = [sampler(rng, i) for i in range(instances)]
    return out


def python_kernel() -> int:
    return sum(i * i % 7 for i in range(100000))


def numpy_kernel(np) -> None:
    z = np.full((SAMPLES + 1, SAMPLES + 1), 0.6 + 0.7j)
    for _ in range(8):
        np.multiply(z, z, out=z)


def recorded_grids(contour, reps: list, windows: list) -> list:
    """The (values, xs, ys) that extract_level_set passes to
    marching_squares, one per instance, from an untimed pass."""
    grids, original = [], contour.marching_squares

    def recording(*grid):
        grids.append(grid)
        return original(*grid)

    contour.marching_squares = recording
    try:
        for rep, w in zip(reps, windows):
            contour.extract_level_set(rep, w, SAMPLES)
    finally:
        contour.marching_squares = original
    return grids


def child() -> int:
    """Read the pools as JSON on stdin; print seconds and minor page faults
    per instance of each layer the package defines, and per call of each
    kernel."""
    import numpy as np
    from dhym import (charges, cli, contour, figure, levelcurve, lifting,
                      stability)
    from dhym.config import FigureSpec
    modules = {m.__name__.rsplit(".", 1)[1]: m for m in
               (charges, cli, contour, figure, levelcurve, lifting, stability)}

    def layer(name):
        module, func = name.split(".")
        return getattr(modules[module], func, None)

    pool = json.load(sys.stdin)
    exists = levelcurve.Existence.EXISTS
    reps = [charges.charge_report(charges.Geometry(*inst))
            for inst in pool["random"]]
    verdicts = [stability.existence_verdict(rep) for rep in reps]
    stable = [charges.charge_report(charges.Geometry(*inst))
              for inst in pool["stable"]]
    traces = [(rep, v) for rep, v in
              zip(stable, map(stability.existence_verdict, stable))
              if v.value is exists]
    windows = [contour.Window(-w, w, -w, w) for w in
               (1.3 * max(a, abs(p), abs(q), 1.0)
                for _, a, p, q in pool["random"])]
    inputs = {
        "charges.charge_report": [(rep.g,) for rep in reps],
        "stability.stability_verdict": [(rep,) for rep in reps],
        "stability.existence_verdict": [(rep,) for rep in reps],
        "lifting.sector_lift": [(rep,) for rep in reps],
        "lifting.cxy_path_lift": [(rep,) for rep in reps],
        "levelcurve.graphical_existence": [(rep,) for rep in reps],
        "cli.analysis_report": list(zip(reps, verdicts)),
        "levelcurve.trace_solution": traces,
        "levelcurve.verify_solution": [
            (levelcurve.trace_solution(rep, v), rep) for rep, v in traces],
        "contour.marching_squares": (
            recorded_grids(contour, reps, windows)
            if layer("contour.marching_squares") else []),
        "contour.extract_level_set": [(rep, w, SAMPLES)
                                      for rep, w in zip(reps, windows)],
        "figure.render_figure": [
            (rep, FigureSpec(w, SAMPLES), levelcurve.trace_solution(rep, v)
             if v.value is exists else None)
            for rep, v, w in zip(reps, verdicts, windows)],
    }
    timed = {name: (layer(name), args) for name, args in inputs.items()
             if layer(name) is not None}
    timed["python_kernel"] = (python_kernel, [()])
    timed["numpy_kernel"] = (numpy_kernel, [(np,)])
    result = {}
    for _ in range(2):  # the first pass is untimed
        for name, (fn, args) in timed.items():
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            t0 = time.perf_counter()
            for a in args:
                fn(*a)
            seconds = time.perf_counter() - t0
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
            result[name] = [seconds / len(args), faults / len(args), len(args)]
    json.dump(result, sys.stdout)
    return 0


def run_child(root: Path, pool: dict) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    res = subprocess.run([sys.executable, __file__, "--child"], env=env,
                         input=json.dumps(pool), check=True, text=True,
                         stdout=subprocess.PIPE)
    return json.loads(res.stdout)


def summary(seconds: list, faults: list, instances: int) -> dict:
    us = [s * 1e6 for s in seconds]
    return {"best_us": min(us), "median_us": statistics.median(us),
            "instances": instances, "samples_us": [round(v, 3) for v in us],
            "minflt_per_instance": statistics.median(faults),
            "samples_minflt": [round(v, 3) for v in faults]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("roots", nargs="*", metavar="LABEL=ROOT")
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--instances", type=int, default=110)
    ap.add_argument("--out", help="JSON file to write")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        return child()
    if not args.roots or not args.out:
        ap.error("give --out and at least one LABEL=ROOT")
    if args.runs < 1 or args.instances < MIN_INSTANCES:
        ap.error(f"--runs must be at least 1 and --instances at least "
                 f"{MIN_INSTANCES}")
    roots = {}
    for spec in args.roots:
        label, sep, path = spec.partition("=")
        root = Path(path).resolve()
        if not sep or not (root / "src" / "dhym" / "cli.py").is_file():
            ap.error(f"{spec}: expected LABEL=ROOT with ROOT/src/dhym")
        roots[label] = root

    pool = pools(args.instances)
    samples = {label: {} for label in roots}
    for i in range(args.runs):
        order = list(roots.items())
        if i % 2:
            order.reverse()
        for label, root in order:
            for name, (seconds, faults, count) in run_child(root,
                                                            pool).items():
                row = samples[label].setdefault(name, ([], [], count))
                row[0].append(seconds)
                row[1].append(faults)
        print(f"run {i + 1} of {args.runs}", file=sys.stderr)

    result = {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "cpu_count": os.cpu_count(),
        "runs": args.runs,
        "instances": args.instances,
        "seed": SEED,
        "samples": SAMPLES,
        "layers": list(LAYERS),
        "roots": {},
    }
    missing = False
    for label, per in samples.items():
        rows = {name: summary(*values) for name, values in per.items()}
        entry = {"layers": {name: rows[name] for name in LAYERS if name in rows},
                 "kernels": {name: rows[name]
                             for name in ("python_kernel", "numpy_kernel")},
                 "missing": [name for name in LAYERS if name not in rows]}
        missing |= bool(entry["missing"])
        result["roots"][label] = entry
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    for label, entry in result["roots"].items():
        for name, row in (*entry["layers"].items(), *entry["kernels"].items()):
            print(f"{label:10s} {name:32s} best {row['best_us']:10.1f} us"
                  f"  median {row['median_us']:10.1f} us"
                  f"  {row['minflt_per_instance']:8.1f} minflt")
        if entry["missing"]:
            print(f"{label:10s} missing layers: {' '.join(entry['missing'])}")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
