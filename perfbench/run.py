"""tsedarts benchmark: one command, four workloads, every metric by name.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree (the program is imported from ./src).
Each unit of work runs in a fresh process (perfbench/worker.py) with BLAS
pinned to one thread; units repeat, whole, until S seconds have passed.
Before them, a few probe processes run the same workload up to its first
round, so set-up time is a median too.  Every unit checks its outputs.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones, measured untraced; with --trace 1 units alternate
untraced and traced, and the metrics are the per-layer ones from the
traced units plus the tracing overhead.  The line before it holds the run
context.  Both are also written to perfbench/out/<workload>/result.json;
the spans of the last traced unit go to perfbench/trace/<workload>.npz.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tse-vector-deep", "darts-vector-eigen", "tse-image-nb201",
             "verify-oracles")
PROBES = 5
DEADLINE_S = 170.0
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class UnitFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str, trace: bool, out: str, t_stop: float) -> dict:
    env = dict(os.environ, **PINNED)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), mode,
           "1" if trace else "0", out]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + [repr(t0)], env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                              timeout=max(1.0, t_stop - t0))
    except subprocess.TimeoutExpired as err:
        raise UnitFailed(f"{mode} of {workload} did not end in time") from err
    if proc.returncode != 0:
        raise UnitFailed(f"{mode} of {workload} exited with code {proc.returncode}")
    with open(os.path.join(out, "unit.json")) as f:
        return json.load(f)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True)):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_context(args) -> dict:
    import numpy as np
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), None)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(PINNED["OPENBLAS_NUM_THREADS"]),
        "commit": git_commit(), "source_sha256": source_digest(),
    }


def measure(args, out_root: str):
    t_start = time.monotonic()
    t_stop = t_start + DEADLINE_S
    probes = [spawn(args.workload, args.seed, "probe", False,
                    os.path.join(out_root, f"probe{k}"), t_stop) for k in range(PROBES)]
    units = []
    while True:
        traced = bool(args.trace) and len(units) % 2 == 1
        units.append((traced, spawn(args.workload, args.seed, "unit", traced,
                                    os.path.join(out_root, f"unit{len(units)}"), t_stop)))
        enough = not args.trace or len(units) >= 2
        if enough and time.monotonic() - t_start >= args.seconds:
            return probes, units


def summarise(args, probes: list, units: list) -> dict:
    found = [c for _, u in units for c in u["checks"]]
    failed = [c for c in found if not c["ok"]]
    for c in failed:
        print(f"check failed: {c['name']}: {c['detail']}", file=sys.stderr)
    attempted = sum(u["rounds"] for _, u in units) + len(found)
    if args.trace:
        plain = [u for t, u in units if not t]
        traced = [u for t, u in units if t]
        metrics = {k: {"value": statistics.median(u["layers"][k] for u in traced),
                       "unit": unit_of(k)} for k in traced[0]["layers"]}
        run_plain = statistics.median(u["run_s"] for u in plain)
        run_traced = statistics.median(u["run_s"] for u in traced)
        metrics["trace.round_ms"] = {"value": statistics.median(
            r for u in traced for r in u["round_ms"]), "unit": "ms"}
        metrics["trace.run_s"] = {"value": run_traced, "unit": "s"}
        metrics["trace.untraced_run_s"] = {"value": run_plain, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": run_traced - run_plain, "unit": "s"}
    else:
        plain = [u for _, u in units]
        metrics = {
            "setup_s": {"value": statistics.median(
                [p["setup_s"] for p in probes] + [u["setup_s"] for u in plain]), "unit": "s"},
            "run_s": {"value": statistics.median(u["run_s"] for u in plain), "unit": "s"},
            "round_ms": {"value": statistics.median(
                r for u in plain for r in u["round_ms"]), "unit": "ms"},
            "peak_rss_mb": {"value": statistics.median(u["peak_rss_mb"] for u in plain),
                            "unit": "MB"},
        }
    return {"correct": not failed, "attempted": attempted, "failed": len(failed),
            "metrics": metrics}


def unit_of(name: str) -> str:
    if name.endswith("ms"):
        return "ms"
    return "%" if name.endswith("_pct") else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the running unit is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not os.path.isfile(os.path.join(ROOT, "src", "tsedarts", "__init__.py")):
        print(f"no program source under {ROOT}/src", file=sys.stderr)
        return 2

    out_root = os.path.join(HERE, "out", args.workload)
    shutil.rmtree(out_root, ignore_errors=True)
    os.makedirs(out_root)
    context = run_context(args)
    try:
        probes, units = measure(args, out_root)
    except UnitFailed as err:
        print(f"benchmark aborted: {err}", file=sys.stderr)
        return 1
    summary = summarise(args, probes, units)
    traced = [k for k, (t, _) in enumerate(units) if t]
    if traced:
        os.makedirs(os.path.join(HERE, "trace"), exist_ok=True)
        shutil.copyfile(os.path.join(out_root, f"unit{traced[-1]}", "spans.npz"),
                        os.path.join(HERE, "trace", f"{args.workload}.npz"))
    with open(os.path.join(out_root, "result.json"), "w") as f:
        json.dump({"context": context, "result": summary}, f, indent=2)
    print(json.dumps({"context": context}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
