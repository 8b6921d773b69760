"""One workload process: set up, warm up, run timed ops, print one JSON line.

Started by run.py in a fresh interpreter with qres's sources on PYTHONPATH
and numpy/BLAS pinned to one thread.  Modes:

  setup  set up, run the warm-up op, report when the first timed op would
         start (CLOCK_MONOTONIC, shared with the parent) and the peak RSS so
         far, exit;
  run    as setup, then run ops untraced for --seconds and report their
         latencies, the reference kernel's time around each and failures;
  trace  as setup, then for --seconds run each op untraced and again
         traced on the same input, compare the outputs bit for bit, measure
         the posterior's per-call allocation peak on one op, and report the
         per-layer metrics.  Spans go to --spans-out.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import itertools
import json
import math
import platform
import random
import resource
import statistics
import sys
import time
import warnings
from dataclasses import dataclass

import numpy
import qres

import tracing
import workloads


# Time between two runs of the reference kernel during a timed run, and the
# half-width of the window of reference times whose median goes with an op.
REFERENCE_GAP_S = 0.1
REFERENCE_WINDOW_S = 1.0

_GRID = numpy.linspace(-1.0, 1.0, 2001)
_POINTS = numpy.linspace(-1.0, 1.0, 200)
_NODES = numpy.linspace(-1.0, 1.0, 15)


def _python_loop() -> float:
    total = 0.0
    for i in range(20_000):
        total += math.sqrt(i)
    return total


def array_kernel() -> float:
    """A pure-Python loop and three grid x points residual sums like the
    posterior's, on 3.2 MB arrays: the reference for the studies."""
    total = _python_loop()
    for shift in (0.0, 0.1, 0.2):
        residuals = numpy.subtract.outer(_GRID + shift, _POINTS)
        total += float(numpy.sum(numpy.abs(residuals) ** 2))
    return total


def interpreter_kernel() -> float:
    """Pure-Python loops and many numpy calls on 15 elements, like the
    quadrature's 15-node panels: the reference for bounds-sweep."""
    total = _python_loop() + _python_loop()
    for _ in range(1200):
        total += float(numpy.sum(numpy.exp(0.5 * _NODES)))
    return total


# Fixed work independent of qres, timed between ops.  A busy host slows
# array-bound and interpreter-bound code by different amounts, so each
# workload names the kernel whose work resembles its ops; that kernel slows
# by about as much as the ops do.  Each takes about 7 ms on an idle core of a
# 2-vCPU Intel Xeon VM with Python 3.11 and numpy 2.4.
REFERENCE_KERNELS = {"array": array_kernel, "interpreter": interpreter_kernel}


def reference_seconds(kernel) -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def window_median(times: list, values: list, t: float) -> float:
    """Median of the values whose times lie within REFERENCE_WINDOW_S of t,
    always including the last one before t and the first one after it."""
    lo = bisect.bisect_left(times, t - REFERENCE_WINDOW_S)
    hi = bisect.bisect_right(times, t + REFERENCE_WINDOW_S)
    at = bisect.bisect_left(times, t)
    lo, hi = min(lo, max(at - 1, 0)), max(hi, min(at + 1, len(times)))
    return statistics.median(values[lo:hi])


@dataclass
class Op:
    latency: float
    problems: list
    fingerprint: str | None


def attempt(workload, inp, tracer=None):
    """Run one op, under ``tracer`` if given, and check it.  An op fails if
    it raises a qres error or a RuntimeWarning (escalated to an error), or if
    its output check fails."""
    start = time.perf_counter()
    try:
        with tracer or contextlib.nullcontext():
            start = time.perf_counter()
            out = workload.run(inp)
            latency = time.perf_counter() - start
    except (qres.QresError, RuntimeWarning) as exc:
        return Op(time.perf_counter() - start, [f"{type(exc).__name__}: {exc}"], None)
    return Op(latency, workload.check(inp, out), workload.fingerprint(out))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)

    warnings.simplefilter("error", RuntimeWarning)
    workload = workloads.WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    counter = itertools.count()

    def next_input():
        return workload.make_input(rng, next(counter))

    warm = attempt(workload, next_input())
    first_op_at = time.monotonic()
    result = {
        "first_op_at": first_op_at,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "warmup_problems": warm.problems,
        "qres_file": qres.__file__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if args.mode == "run":
        # The reference kernel runs before the first op, after the last, and
        # between ops at least every REFERENCE_GAP_S.  Each op is paired with
        # the median reference time within REFERENCE_WINDOW_S of its start,
        # which discards the reference's own hiccups but follows changes in
        # machine speed that last seconds.  Its first, slower run is not kept.
        deadline = time.monotonic() + args.seconds
        kernel = REFERENCE_KERNELS[workload.reference]
        ops, starts, ref_times, refs = [], [], [], []

        def take_reference():
            refs.append(reference_seconds(kernel))
            ref_times.append(time.monotonic())

        kernel()
        take_reference()
        while time.monotonic() < deadline:
            if time.monotonic() - ref_times[-1] >= REFERENCE_GAP_S:
                take_reference()
            starts.append(time.monotonic())
            ops.append(attempt(workload, next_input()))
        take_reference()
        result["latencies"] = [op.latency for op in ops]
        result["references"] = [window_median(ref_times, refs, t) for t in starts]
        result["problems"] = [op.problems for op in ops]
    elif args.mode == "trace":
        # Each input runs untraced and then traced, back to back, so drift in
        # machine speed hits both sides of the overhead alike.
        tracer = tracing.Tracer()
        deadline = time.monotonic() + args.seconds
        inputs, plain, traced = [], [], []
        while time.monotonic() < deadline:
            inputs.append(next_input())
            plain.append(attempt(workload, inputs[-1]))
            traced.append(attempt(workload, inputs[-1], tracer))
        ops = len(traced)
        metrics = tracing.layer_metrics(tracer.spans, tracer.counts, ops)
        untraced_s = sum(op.latency for op in plain) / ops
        traced_s = sum(op.latency for op in traced) / ops
        peak = tracing.posterior_peak_alloc(lambda: workload.run(inputs[0]))
        metrics.update(
            {
                "simulate.posterior.peak_alloc_mb": (peak / 2**20, "MB"),
                "trace.ops": (ops, "count"),
                "trace.untraced_op_s": (untraced_s, "s/op"),
                "trace.traced_op_s": (traced_s, "s/op"),
                "trace.overhead_s": (traced_s - untraced_s, "s/op"),
            }
        )
        result["metrics"] = metrics
        result["problems"] = [op.problems for op in plain + traced]
        result["mismatched"] = sum(
            a.fingerprint != b.fingerprint for a, b in zip(plain, traced)
        )
        if args.spans_out:
            with open(args.spans_out, "w") as handle:
                json.dump(
                    {"fields": ["name", "start", "end", "parent"], "spans": tracer.spans},
                    handle,
                )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
