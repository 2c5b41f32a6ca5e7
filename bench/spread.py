"""Run one workload with several seeds and report each metric's spread across runs.

Usage (from the root of a qmasslab checkout):

    python3 bench/spread.py --workload pipeline-warm --seeds 1-10 [--seconds 30] [--trace 0]

For every metric it prints the quartiles of the per-run values (as
``statistics.quantiles(values, n=4)`` gives them), the spread
``(q3 - q1) / median`` and, for end-to-end metrics, the bound declared in
BENCHMARK.json.  With ``--trace 0`` it does the same for the figures as
measured, before the host correction (``raw.<metric>``, from run.py's ``raw``
line).  Bounds are chosen so that the spread stays well inside them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--seconds", type=float, default=None,
                   help="default: run_seconds from BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or declared["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}

    values: dict[str, list[float]] = {}
    for seed in _seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        env = next(json.loads(l.split(" ", 1)[1]) for l in lines if l.startswith("environment "))
        raw = [json.loads(l.split(" ", 1)[1]) for l in lines if l.startswith("raw ")]
        factors = "/".join(f"{f:.3f}" for f in env["correction_factors"])
        print(f"seed {seed}: factors={factors} "
              f"correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                  if k in bounds), flush=True)
        if raw:
            print(f"seed {seed} raw: " + json.dumps(raw[0]), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        for name, value in (raw[0]["metrics"] if raw else {}).items():
            values.setdefault(f"raw.{name}", []).append(value)

    print(f"{'metric':48s} {'q1':>12s} {'median':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = f"{bounds[name]:.2f}" if name in bounds else ""
        print(f"{name:48s} {q1:12.6g} {med:12.6g} {q3:12.6g} {spread:8.3f} {bound:>6s}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
