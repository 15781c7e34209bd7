"""Cold-start wall times of the dhym command line, for one or more source trees.

    python3 tools/coldstart.py --out BENCH_cold.json parent=../parent change=.

Each ``LABEL=ROOT`` names a checkout whose ``src/`` holds the ``dhym``
package.  For every root the script times fresh interpreters that run

- ``import dhym.cli`` and ``import numpy``;
- ``python -m dhym.cli analyze``, ``solve`` and ``figure`` on the fixed
  configs below, with ``--config PATH`` and, for ``solve``, ``--out PATH``;

and, inside a fresh interpreter that has loaded ``dhym.cli`` and numpy and
traced and verified the solve config's curve untimed, the first call of
``cli._solve_rows(curve, check)``, which writes the solve CSV and builds its
tables, read with ``time.perf_counter`` in the child.

Every measure runs ``--runs`` times per root (at least 15).  Runs alternate
between the roots, and the order of the roots is reversed on every other
run, so a drift of the machine falls on both sides alike.  Each child is
waited for with a blocking wait: ``subprocess.run`` without ``timeout=``,
which would poll.  One untimed run of each measure per root comes first.

Whether compilation is counted depends on the bytecode cache.  A child
inherits the environment, so with ``PYTHONDONTWRITEBYTECODE`` set the
untimed run writes no cache, and unless ``src/dhym/__pycache__`` already
holds one for this interpreter, every timed child compiles every ``dhym``
module it imports.  Without it, the untimed run writes the cache and no
timed child compiles ``dhym``.

The JSON output holds, per root and measure, the median and quartiles in ms
and every sample, with the Python and numpy versions and the core count.
It records which case was measured: ``children_write_bytecode``, the
children's own ``not sys.dont_write_bytecode``, and per root
``dhym_bytecode_cached``, whether every ``dhym`` module had a cache file
for this interpreter after the untimed runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from importlib.metadata import version
from pathlib import Path

# an instance that exists, so solve traces and figure draws its curve
GEOMETRY = {"n": 5, "a": 2.0, "p": 1.1, "q": 0.4}
FIGURE = {"window": [-3.0, 3.0, -3.0, 3.0], "samples": 256}

SOLVE_ROWS_CHILD = f"""\
import time, numpy, dhym.cli
from dhym.charges import Geometry, charge_report
_, curve, check = dhym.cli._solution(charge_report(Geometry(**{GEOMETRY!r})))
t0 = time.perf_counter()
dhym.cli._solve_rows(curve, check)
print(time.perf_counter() - t0)
"""


def measures(tmp: Path) -> dict:
    """name -> (argv after the interpreter, whether the child prints its own
    time in seconds)."""
    config = tmp / "config.json"
    config.write_text(json.dumps({**GEOMETRY, "figure": FIGURE}))
    cli = ["-m", "dhym.cli"]
    return {
        "import_dhym_cli": (["-c", "import dhym.cli"], False),
        "import_numpy": (["-c", "import numpy"], False),
        "analyze": ([*cli, "analyze", "--config", str(config)], False),
        "solve": ([*cli, "solve", "--config", str(config),
                   "--out", str(tmp / "solution.csv")], False),
        "figure": ([*cli, "figure", "--config", str(config)], False),
        "solve_rows_first_call": (["-c", SOLVE_ROWS_CHILD], True),
    }


def run_once(root: Path, argv: list, child_timed: bool) -> float:
    """Seconds of one fresh interpreter, or the time it printed."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    t0 = time.perf_counter()
    res = subprocess.run([sys.executable, *argv], env=env, check=True,
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    elapsed = time.perf_counter() - t0
    return float(res.stdout) if child_timed else elapsed


def children_write_bytecode() -> bool:
    """Whether a child started as run_once starts it writes bytecode."""
    res = subprocess.run(
        [sys.executable, "-c", "import sys; print(sys.dont_write_bytecode)"],
        check=True, stdout=subprocess.PIPE, text=True)
    return res.stdout.strip() == "False"


def dhym_bytecode_cached(root: Path) -> bool:
    """Whether every dhym module of root has a cache file for this
    interpreter, so that a child loads it without compiling."""
    package = root / "src" / "dhym"
    tag = sys.implementation.cache_tag
    return all((package / "__pycache__" / f"{py.stem}.{tag}.pyc").is_file()
               for py in package.glob("*.py"))


def summary(samples_s: list) -> dict:
    ms = [s * 1e3 for s in samples_s]
    q1, median, q3 = statistics.quantiles(ms, n=4)
    return {"median_ms": median, "q1_ms": q1, "q3_ms": q3,
            "samples_ms": [round(v, 4) for v in ms]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("roots", nargs="+", metavar="LABEL=ROOT")
    ap.add_argument("--runs", type=int, default=21)
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args(argv)
    if args.runs < 15:
        ap.error("--runs must be at least 15")
    roots = {}
    for spec in args.roots:
        label, sep, path = spec.partition("=")
        root = Path(path).resolve()
        if not sep or not (root / "src" / "dhym" / "cli.py").is_file():
            ap.error(f"{spec}: expected LABEL=ROOT with ROOT/src/dhym")
        roots[label] = root

    with tempfile.TemporaryDirectory() as tmp:
        todo = measures(Path(tmp))
        samples = {label: {name: [] for name in todo} for label in roots}
        for root in roots.values():  # untimed
            for child_argv, child_timed in todo.values():
                run_once(root, child_argv, child_timed)
        cached = {label: dhym_bytecode_cached(root)
                  for label, root in roots.items()}
        for i in range(args.runs):
            order = list(roots.items())
            if i % 2:
                order.reverse()
            for name, (child_argv, child_timed) in todo.items():
                for label, root in order:
                    samples[label][name].append(
                        run_once(root, child_argv, child_timed))
            print(f"run {i + 1} of {args.runs}", file=sys.stderr)

    result = {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "cpu_count": os.cpu_count(),
        "runs": args.runs,
        "children_write_bytecode": children_write_bytecode(),
        "dhym_bytecode_cached": cached,
        "geometry": GEOMETRY,
        "figure": FIGURE,
        "roots": {label: {name: summary(values)
                          for name, values in per.items()}
                  for label, per in samples.items()},
    }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    for label, per in result["roots"].items():
        for name, stats in per.items():
            print(f"{label:10s} {name:24s} median {stats['median_ms']:8.2f} ms"
                  f"  IQR {stats['q1_ms']:.2f}-{stats['q3_ms']:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
