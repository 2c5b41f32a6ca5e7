"""qmasslab benchmark: one workload, one op in flight, outputs checked on every op.

Usage (from the root of a qmasslab checkout):

    python3 bench/run.py --workload {cli-cold,pipeline-warm,oracle-warm} \\
        --seed N --seconds S --trace {0,1}

Workloads (menus and the reason for every entry are in menus.py):

* cli-cold: each op is a fresh interpreter running the ``qmass-lab`` console
  script on a light scenario, which is what a CLI user pays per invocation.
  Import dominates it; it bypasses the heavy kernels.
* pipeline-warm: each op is one ``scenarios.run`` with exports in a warm
  interpreter, a script sweeping parameters.  RK4 streamlines, the
  per-position lstsq loop and CSV formatting do the work; no scipy oracle.
* oracle-warm: each op calls the physics and oracle functions directly, as
  the demos do, with no export.  The Hilbert envelope and the Brent peak
  refinement of scipy sit on this path.

Set-up is timed from spawning a workload interpreter to its first timed op
(import, menu and golden load, one untimed warm-up pass over every entry);
``setup_s`` is the median of SETUP_STARTS cold starts.  The warm workloads
split their timed blocks round-robin over those interpreters, so a single
process's luck does not set the run's figures.

Every timing (set-up and ops) is corrected for host speed (reference.py): a
fixed, qmasslab-independent reference is timed during the timed phase (a
kernel between warm ops, a fresh interpreter importing numpy and scipy
between cli-cold ops) and every timing is divided by ``(median reference /
nominal) ** elasticity``, per workload interpreter on the warm workloads.
``peak_rss_mib`` is as measured.  The figures as measured and the factors
are printed above the result, on a line starting with ``raw``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.  With
``--trace 1`` the run has half the blocks, each run twice, untraced and
traced, and it carries the per-layer metrics of the traced passes.
Exit code 2 means the checkout holds no qmasslab sources; 1 means a workload
interpreter crashed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import checks
import menus
import reference
import tracing

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SETUP_STARTS = 3
#: A workload interpreter or CLI child still running after this is killed.
WATCHDOG_S = 150
PERCENTILES = (50, 75, 90, 95, 99, 99.9)
# What the generated ``qmass-lab`` console script runs.
CONSOLE = "import sys; from qmasslab.cli import main; sys.exit(main())"


class WorkerError(RuntimeError):
    pass


def tail(latencies) -> tuple[float, float]:
    """(percentile, value): the highest of PERCENTILES with >= 10 samples beyond it.

    Nearest-rank percentiles.  Falls back to the median's rank when fewer
    than 20 samples exist.
    """
    xs = sorted(latencies)
    n = len(xs)
    best = (50, xs[math.ceil(0.5 * n) - 1])
    for p in PERCENTILES:
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= 10:
            best = (p, xs[rank - 1])
    return best


def end_to_end(records, setups) -> dict[str, float]:
    """Timing metrics of the untraced op records ([id, latency, cpu, ...]) and cold starts."""
    lat = [rec[1] for rec in records]
    return {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail(lat)[1],
        "cpu_per_op_s": sum(rec[2] for rec in records) / len(records),
        "setup_s": statistics.median(setups),
    }


def _env() -> dict:
    paths = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


@contextmanager
def _watchdog(proc):
    timer = threading.Timer(WATCHDOG_S, proc.kill)
    timer.start()
    try:
        yield
    finally:
        timer.cancel()


def run_worker(args, index: int, work: Path, importtime: bool) -> tuple[float, dict]:
    """Spawn one workload interpreter; return its set-up seconds and its report."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [
        str(BENCH / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--worker", str(index),
        "--workers", str(SETUP_STARTS), "--trace", str(args.trace), "--work", str(work),
    ]
    err_path = work / f"worker-{index}.err"
    with open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=_env(),
                                cwd=ROOT, text=True)
        with _watchdog(proc):
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            rest = proc.stdout.read()
            code = proc.wait()
    if ready.strip() != "ready" or code != 0:
        raise WorkerError(f"worker {index} exited {code}:\n{err_path.read_text()[-4000:]}")
    return setup_s, json.loads(rest.splitlines()[-1])


def run_cli_ops(args, work: Path, golden: dict):
    """Timed cli-cold ops, each a fresh interpreter reaped with its rusage.

    Without tracing, a cold reference sample is taken before every
    ``reference.COLD_EVERY``-th op.  Returns (records, peak RSS, span files,
    reference samples).
    """
    records, rss, spans, refs = [], [], [], []
    out = work / "cli-out"
    with open(work / "cli.err", "w") as err:
        for index, block in enumerate(menus.plan(args.workload, args.seed, args.seconds,
                                                 bool(args.trace))):
            for traced, entry_id in [(t, e) for t in menus.passes(index, bool(args.trace))
                                     for e in block]:
                if not args.trace and len(records) % reference.COLD_EVERY == 0:
                    try:
                        refs.append(reference.cold_sample(WATCHDOG_S, env=_env(), cwd=ROOT,
                                                          stderr=err))
                    except subprocess.SubprocessError as exc:
                        raise WorkerError(f"cold reference failed: {exc}") from exc
                entry = menus.entry(args.workload, entry_id)
                argv = menus.cli_argv(entry) + ["--out", str(checks.fresh_dir(out))]
                if traced:
                    span_path = work / f"cli-spans-{len(records)}.json"
                    cmd = [sys.executable, str(BENCH / "cli_child.py"), str(span_path)] + argv
                else:
                    cmd = [sys.executable, "-c", CONSOLE] + argv
                t0 = time.perf_counter()
                proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err,
                                        env=_env(), cwd=ROOT)
                with _watchdog(proc):
                    _, status, usage = os.wait4(proc.pid, 0)
                latency = time.perf_counter() - t0
                proc.returncode = code = os.waitstatus_to_exitcode(status)
                ok, margin, reason = checks.check_cli(code, out, golden.get(entry_id))
                records.append([entry_id, latency, usage.ru_utime + usage.ru_stime, ok,
                                margin, reason, index, traced])
                rss.append(usage.ru_maxrss / 1024.0)
                if traced and span_path.is_file():
                    spans.append(span_path)
    return records, max(rss), spans, refs


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=menus.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "qmasslab" / "__init__.py").is_file():
        print(f"bench: no qmasslab sources under {ROOT / 'src'}; "
              "run from the root of a qmasslab checkout", file=sys.stderr)
        return 2
    work = checks.fresh_dir(ROOT / ".bench_work" / args.workload)
    load_start = os.getloadavg()

    try:
        starts = [run_worker(args, i, work, bool(args.trace) and i == 0)
                  for i in range(SETUP_STARTS)]
    except WorkerError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    setups = [s for s, _ in starts]
    reports = [r for _, r in starts]
    warmup = [rec for r in reports for rec in r["warmup"]]
    if args.workload == "cli-cold":
        try:
            timed, peak_rss, span_files, refs = run_cli_ops(
                args, work, checks.load_golden()[args.workload])
        except WorkerError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 1
        # run.py starts every op, so one stream of samples serves the whole run
        # (trace runs take none; their per-layer times are as measured).
        # Op wall times follow the samples' wall time, op CPU times their CPU time.
        wall_f = cpu_f = 1.0
        if refs:
            walls, cpus = zip(*refs)
            nominal, elasticity = reference.COLD_NOMINAL_S, reference.COLD_ELASTICITY
            wall_f = (statistics.median(walls) / nominal) ** elasticity
            cpu_f = (statistics.median(cpus) / nominal) ** elasticity
        factors, cpu_factors = [wall_f] * SETUP_STARTS, [cpu_f] * SETUP_STARTS
    else:
        timed = [rec for r in reports for rec in r["timed"]]
        peak_rss = max(r["maxrss_mib"] for r in reports)
        span_files = [Path(r["spans"]) for r in reports if r["spans"]]
        # Each interpreter's set-up and ops are corrected by its own samples,
        # taken in the same stretch of time (a short run leaves one without ops).
        factors = [
            (statistics.median(r["refs"]) / reference.NOMINAL_S) ** reference.ELASTICITY
            if r["refs"] else 1.0
            for r in reports
        ]
        cpu_factors = factors

    records = warmup + timed
    failed = [rec for rec in records if not rec[3]]
    for rec in failed[:10]:
        print(f"FAILED {rec[0]}: {rec[5]}")
    untraced = [rec for rec in timed if not rec[7]]
    lat = [rec[1] for rec in untraced]

    by_entry: dict[str, list[float]] = {}
    for rec in untraced:
        by_entry.setdefault(rec[0], []).append(rec[1])
    for entry_id, values in by_entry.items():
        print(f"entry {entry_id}: median {statistics.median(values):.6f} s over {len(values)} ops")

    if args.trace:
        traced = [rec for rec in timed if rec[7]]
        totals: dict[str, list] = {}
        for path in span_files:
            tracing.merge(totals, tracing.aggregate(json.loads(path.read_text())))
        n = len(traced)
        traced_s = sum(rec[1] for rec in traced)
        metrics = tracing.layer_metrics(totals, n)
        metrics.update(tracing.import_times((work / "worker-0.err").read_text()))
        metrics["cli.startup_s"] = (
            (traced_s - totals.get("cli.main", [0.0])[0]) / n
            if args.workload == "cli-cold" else 0.0
        )
        metrics["bench.margin_min"] = min(rec[4] for rec in records)
        metrics["bench.trace_overhead"] = (len(lat) / sum(lat)) / (n / traced_s) - 1.0
        print(f"traced {n} ops ({traced_s / n:.6f} s per op), untraced {len(lat)} ops")
    else:
        pct, _ = tail(lat)
        print(f"op_tail_s is p{pct:g} of {len(lat)} timed ops "
              f"({len(lat) - math.ceil(pct / 100 * len(lat))} beyond it)")
        # Block i ran in interpreter i % SETUP_STARTS (worker.py), cli-cold's in run.py.
        corrected = []
        for rec in untraced:
            i = rec[6] % SETUP_STARTS
            corrected.append([rec[0], rec[1] / factors[i], rec[2] / cpu_factors[i]])
        raw = end_to_end(untraced, setups)
        metrics = end_to_end(corrected, [s / f for s, f in zip(setups, factors)])
        metrics["peak_rss_mib"] = peak_rss
        print("raw " + json.dumps({"metrics": raw, "factors": factors,
                                   "cpu_factors": cpu_factors, "setup_s_starts": setups}))

    environment = {
        "python": reports[0]["versions"]["python"],
        "numpy": reports[0]["versions"]["numpy"],
        "scipy": reports[0]["versions"]["scipy"],
        "qmasslab": reports[0]["versions"]["qmasslab"],
        "nproc": os.cpu_count(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "workload": args.workload,
        "seed": args.seed,
        "blocks": menus.block_count(args.workload, args.seconds, bool(args.trace)),
        "correction_factors": factors,
    }
    print("environment " + json.dumps(environment))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
