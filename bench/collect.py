"""Run bench/run.py over several seeds and summarise the spread.

    python3 bench/collect.py --workloads analyze_pool solve_stable \
        --seeds 1 2 3 4 5 --seconds 25 --trace 0 --out summary.json

For every (workload, metric) it prints the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median.
With ``--out`` it also writes the runs, the summary and the environment
as JSON.  Each run's determinism digest is kept, so two collections on
the same source and seeds can be compared.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
# figures run.py prints on --trace 0 runs without bounding them
PRINTED = ("latency_ms_tail", "ops_per_s", "latency_ms_p50")


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["digest"] = next(ln.split()[2] for ln in lines
                            if ln.startswith("digest sha256 "))
    result["seed"] = seed
    result["printed"] = {ln.split()[0]: float(ln.split()[1]) for ln in lines
                         if ln.split()[:1] and ln.split()[0] in PRINTED}
    return result


def summarise(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def environment() -> dict:
    import numpy
    import scipy
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()

    runs: dict = {}
    summary: dict = {}
    for workload in args.workloads:
        runs[workload] = [run_once(workload, s, args.seconds, args.trace)
                          for s in args.seeds]
        failed = sum(r["failed"] for r in runs[workload])
        attempted = sum(r["attempted"] for r in runs[workload])
        print(f"{workload}: attempted {attempted} failed {failed} "
              f"correct {all(r['correct'] for r in runs[workload])}")
        summary[workload] = {}
        names = [*runs[workload][0]["metrics"], *runs[workload][0]["printed"]]
        for name in names:
            values = [r["metrics"][name]["value"] if name in r["metrics"]
                      else r["printed"][name] for r in runs[workload]]
            s = summarise(values)
            summary[workload][name] = s
            print(f"  {name:48s} median {s['median']:.6g} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
                  f"spread {s['spread']:.4f}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"environment": environment(), "seconds": args.seconds,
             "trace": args.trace, "seeds": args.seeds, "summary": summary,
             "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
