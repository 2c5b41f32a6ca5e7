"""One workload interpreter, spawned fresh by run.py for every cold start.

Set-up is everything before the first timed op: ``import qmasslab``, loading
the menu and the golden digests, and one untimed warm-up pass over every menu
entry.  The worker then prints ``ready`` and runs its share of the run's timed
blocks (none for cli-cold, whose timed ops are fresh interpreters), each block
once more traced when ``--trace 1`` (``menus.passes``).  The last line of
stdout is a JSON report; spans go to ``<work>/spans-<worker>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(1, str(ROOT / "src"))

import qmasslab  # noqa: E402  (after the checkout's src is on the path)

import menus  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
from checks import FAILED_MARGIN, fresh_dir, load_golden  # noqa: E402
from ops import OPS  # noqa: E402


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "absent"


def _run_op(workload, entry, out, golden, tracer):
    call, check, writes_files = OPS[workload]
    if writes_files:
        fresh_dir(out)
    span = contextlib.nullcontext()
    if tracer is not None:
        tracer.op += 1
        span = tracer.span("op")
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with span:
            result = call(entry, out)
        latency = time.perf_counter() - t0
        cpu = time.process_time() - c0
        ok, margin, reason = check(entry, result, out, golden)
    except Exception as exc:  # any exception is a failed op, reported with its text
        latency = time.perf_counter() - t0
        cpu = time.process_time() - c0
        ok, margin, reason = False, FAILED_MARGIN, f"{type(exc).__name__}: {exc}"
    return [entry.id, latency, cpu, ok, margin, reason]


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--worker", type=int, required=True)
    p.add_argument("--workers", type=int, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--work", required=True)
    args = p.parse_args(argv)

    if Path(qmasslab.__file__).resolve().parent != (ROOT / "src" / "qmasslab").resolve():
        raise SystemExit(f"imported qmasslab from {qmasslab.__file__}, not from {ROOT / 'src'}")

    work = Path(args.work)
    out = work / f"out-{args.worker}"
    golden = load_golden().get(args.workload, {})
    warmup = [
        _run_op(args.workload, e, out, golden, None) for e in menus.MENUS[args.workload]
    ]
    print("ready", flush=True)

    blocks = menus.plan(args.workload, args.seed, args.seconds, bool(args.trace))
    tracer = tracing.Tracer()
    timed, refs, last_ref = [], [], -reference.EVERY_S
    if args.workload != "cli-cold":
        for index in range(args.worker, len(blocks), args.workers):
            for traced in menus.passes(index, bool(args.trace)):
                with tracer.patched() if traced else contextlib.nullcontext():
                    for entry_id in blocks[index]:
                        if time.perf_counter() - last_ref >= reference.EVERY_S:
                            refs.append(reference.sample())
                            last_ref = time.perf_counter()
                        rec = _run_op(args.workload, menus.entry(args.workload, entry_id), out,
                                      golden, tracer if traced else None)
                        timed.append(rec + [index, traced])
    spans = None
    if tracer.spans:
        spans = str(work / f"spans-{args.worker}.json")
        tracer.dump(spans)
    report = {
        "warmup": warmup,
        "timed": timed,
        "refs": refs,
        "spans": spans,
        "maxrss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {
            "python": sys.version.split()[0],
            "qmasslab": qmasslab.__version__,
            "numpy": _version("numpy"),
            "scipy": _version("scipy"),
        },
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
