"""The measured process of one benchmark run; run.py starts it.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
                                --launched T [--setup-only] [--spans-out PATH]

It imports the program from src/, builds the run's inputs with the
program's own calls (set-up), runs one warm-up op, then whole cycles of ops
up to the cycle boundary nearest to --seconds, and writes a pickled report
to stdout: the op times and outputs, the set-up time counted from
--launched (the parent's time.monotonic() just before it started this
process) and the peak resident memory.  It checks nothing: run.py does
that after this process has ended, so the references never count towards
its memory.

With --trace 1, wrappers are installed for set-up, then cycles alternate
untraced and traced, so that the tracing overhead is measured on the same
stretch of time; the per-layer metrics cover the traced cycles only.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import pickle
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _verify_op(cli, eta: str, m: str):
    # "--eta=-4/3": with a space, argparse takes "-4/3" for an option
    argv = ["verify", "--suite", "all", f"--eta={eta}", f"--m={m}"]

    def op():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        return rc, buf.getvalue()

    return op


def _resolvent_op(greens, field, z: complex, targets):
    def op():
        return greens.resolvent_apply(workloads.MASS, z, field, targets)

    return op


def _kernel_op(greens, z: complex, x):
    def op():
        return (
            greens.pde_residual(workloads.MASS, z, x, 2e-3),
            greens.pde_residual(workloads.MASS, z, x, 1e-3),
        )

    return op


def build_ops(workload: str, inputs: dict, cli, greens) -> list:
    """Set-up: the program calls that build the inputs, then one callable per
    cycle entry."""
    cycle = inputs["cycle"]
    if workload == "verify_sweep":
        return [_verify_op(cli, e["eta"], e["m"]) for e in cycle]
    if workload == "kernel_points":
        return [_kernel_op(greens, e["z"], e["x"]) for e in cycle]
    c2 = inputs["c2"]
    two_s2 = 2.0 * workloads.SIGMA ** 2

    def source(u, v):
        g = np.exp(-(u * u + v * v) / two_s2)
        return (g, c2 * g)

    field = greens.SampledField.sample(source, workloads.HALF_WIDTH, workloads.GRID_COUNT)
    return [_resolvent_op(greens, field, e["z"], e["targets"]) for e in cycle]


def _plain(workload: str, out):
    """Program output as plain values the checking parent can read."""
    if workload == "kernel_points" and not isinstance(out, dict):
        return tuple(mat.as_array() for mat in out)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--launched", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)
    report_out = sys.stdout.buffer
    sys.stdout = sys.stderr  # stdout carries only the pickled report

    import diracshell
    from diracshell import cli, greens

    if Path(diracshell.__file__).resolve().parent != ROOT / "src" / "diracshell":
        print(f"error: imported diracshell from {diracshell.__file__}, not from src/", file=sys.stderr)
        return 2
    inputs = workloads.make_inputs(args.workload, args.seed)
    tracer = spans.Tracer(cli, greens) if args.trace else None
    if tracer:
        tracer.install()
    ops = build_ops(args.workload, inputs, cli, greens)
    setup_s = time.monotonic() - args.launched
    if args.setup_only:
        pickle.dump({"setup_s": setup_s}, report_out)
        return 0
    if tracer:
        tracer.uninstall()

    ops[0]()  # warm-up, not timed
    times, outputs, traced_flags = [], [], []
    clock = time.perf_counter
    start = clock()
    while True:
        traced = tracer is not None and len(traced_flags) % 2 == 1
        if traced:
            tracer.install()
        elif tracer:
            tracer.uninstall()
        for op in ops:
            if traced:
                tracer.op = len(times)
            t0 = clock()
            try:
                out = op()
            except Exception as exc:  # counted as a failed op by the parent
                out = {"error": repr(exc)}
            times.append(clock() - t0)
            outputs.append(out)
        traced_flags.append(traced)
        # stop at the cycle boundary nearest to --seconds
        done = clock() - start
        if done + 0.5 * done / len(traced_flags) >= args.seconds and (
            tracer is None or len(traced_flags) >= 2
        ):
            break
    elapsed = clock() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()

    report = {
        "setup_s": setup_s,
        "times": times,
        "elapsed": elapsed,
        "peak_rss_mb": peak_rss_mb,
        "outputs": [_plain(args.workload, out) for out in outputs],
    }
    if args.workload == "kernel_points":
        # the kernel at each op's point, for the closed-form comparison
        report["kernels"] = [
            greens.green_kernel(workloads.MASS, e["z"], e["x"]).as_array() for e in inputs["cycle"]
        ]
    if tracer:
        n = len(ops)
        traced_times = [t for i, t in enumerate(times) if traced_flags[i // n]]
        plain_times = [t for i, t in enumerate(times) if not traced_flags[i // n]]
        layer = spans.layer_metrics(tracer.spans, len(traced_times))
        layer["trace.traced_op_p50_ms"] = 1e3 * statistics.median(traced_times)
        layer["trace.untraced_op_p50_ms"] = 1e3 * statistics.median(plain_times)
        layer["trace.overhead_ms"] = layer["trace.traced_op_p50_ms"] - layer["trace.untraced_op_p50_ms"]
        report["layer"] = layer
        if args.spans_out:
            with open(args.spans_out, "w", encoding="utf-8") as fh:
                json.dump({"fields": spans.SPAN_FIELDS, "spans": tracer.spans}, fh)
    pickle.dump(report, report_out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
