"""Benchmark of diracshell: one workload, one seed, one run.

    python3 perfbench/run.py --workload verify_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  It starts the measured worker process
(worker.py) once for the timed run and, before and after it, several
times for set-up only,
then checks every output of the run against references computed here
(checks.py), after the worker has ended.  The last line of stdout is one
JSON object {"correct", "attempted", "failed", "metrics"}: with --trace 0
the metrics are the end-to-end ones of BENCHMARK.json, with --trace 1 the
per-layer ones (spans.py).  Results and span files go to perfbench/results/.
See README.md in this directory.
"""
from __future__ import annotations

import argparse
import json
import os
import pickle
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
# one BLAS/OpenMP thread in every worker, set before numpy loads there
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# set-up is timed in this many worker processes, half before and half after
# the timed run, so that its median spans the same stretch of time
SETUP_RUNS = 11
# the whole run must end within 180 s; the timed loop may overrun --seconds
# by half a cycle, and checking takes a few seconds more
DEADLINE_S = 170.0


class WorkerError(RuntimeError):
    pass


def launch(args, deadline: float, *, setup_only: bool = False, spans_out=None) -> dict:
    """Run worker.py once and return its unpickled report."""
    env = dict(os.environ, **dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    if spans_out:
        cmd += ["--spans-out", str(spans_out)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError("out of time before starting a worker")
    cmd += ["--launched", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=env, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    # the worker is this benchmark's own process, started just above
    return pickle.loads(proc.stdout)


def end_to_end(report: dict, setups: list, attempted: int, failed: int) -> dict:
    times = np.asarray(report["times"])
    values = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": ((attempted - failed) / report["elapsed"], "1/s"),
        "op_p50_ms": (1e3 * float(np.percentile(times, 50)), "ms"),
        "op_p90_ms": (1e3 * float(np.percentile(times, 90)), "ms"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "diracshell" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'diracshell'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks
    import spans

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    extra_setups = 0 if args.trace else (SETUP_RUNS - 1) // 2
    try:
        setups = [launch(args, deadline, setup_only=True)["setup_s"] for _ in range(extra_setups)]
        spans_out = RESULTS / f"{stem}-spans.json" if args.trace else None
        report = launch(args, deadline, spans_out=spans_out)
        setups.append(report["setup_s"])
        setups += [launch(args, deadline, setup_only=True)["setup_s"] for _ in range(extra_setups)]
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    inputs = workloads.make_inputs(args.workload, args.seed)
    failed, problems = checks.check_run(args.workload, inputs, report)
    for text in problems[:20]:
        print(f"check failed: {text}", file=sys.stderr)
    attempted = len(report["times"])
    if args.trace:
        units = spans.metric_units()
        metrics = {name: {"value": report["layer"][name], "unit": units[name]} for name in units}
    else:
        metrics = end_to_end(report, setups, attempted, failed)
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    line = json.dumps(result)
    (RESULTS / f"{stem}.json").write_text(line + "\n", encoding="utf-8")
    print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
