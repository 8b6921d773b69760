"""Spans and counters around the calls into qres's layers.

The tracer works from outside the program: it replaces the module attributes
through which qres calls its own layers (``simulate.draw`` as seen by
``run_trials``, ``metrology.position_variance`` as seen by ``bound_report``,
and so on) with wrappers that record a span per call, and restores them on
exit.  Spans are kept in memory as [name, start, end, parent index].
"""

from __future__ import annotations

import time
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

from qres import metrology, numerics, probe, simulate

# (module, attribute, span name, counter update from (args, result))
SPANS = (
    (simulate, "run_trials", "simulate.run_trials", lambda a, r: {"trials": r.trials}),
    (simulate, "draw", "simulate.draw", lambda a, r: {"samples": r.n}),
    (simulate, "mle", "simulate.mle", None),
    (
        simulate,
        "posterior",
        "simulate.posterior",
        lambda a, r: {"posterior_cells": r.grid.size * a[0].n},
    ),
    (simulate, "sample_gamma", "numerics.sample_gamma", None),
    (metrology, "bound_report", "metrology.bound_report", None),
    (metrology, "fisher_numeric", "metrology.fisher_numeric", None),
    (metrology, "repetitions_required", "metrology.repetitions_required", None),
    (metrology, "position_variance", "probe.position_variance", None),
)

# Modules whose functions call integrate through their own binding.
INTEGRATE_CALLERS = (probe, metrology)


@contextmanager
def patched(replacements):
    """Set each (owner, attribute, value) and restore the originals on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


class Tracer:
    """Records spans and counts while used as a context manager; the same
    tracer may be entered many times and accumulates across uses."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._replacements = [
            (module, attr, self._span(name, getattr(module, attr), count))
            for module, attr, name, count in SPANS
        ]
        self._replacements += [
            (module, "integrate", self._integrate(module.integrate))
            for module in INTEGRATE_CALLERS
        ]
        self._replacements.append(
            (numerics.RngStream, "uniforms", self._uniforms(numerics.RngStream.uniforms))
        )

    def _span(self, name, fn, count):
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][1:3] = start, end
            if count is not None:
                counts.update(count(args, result))
            return result

        return wrapper

    def _integrate(self, fn):
        counts = self.counts

        def wrapper(f, *args, **kwargs):
            def counted(x):
                counts["integrate_evals"] += np.size(x)
                return f(x)

            counts["integrate_calls"] += 1
            return fn(counted, *args, **kwargs)

        return wrapper

    def _uniforms(self, fn):
        counts = self.counts

        def wrapper(stream, size=None):
            counts["uniforms"] += 1 if size is None else int(size)
            return fn(stream, size)

        return wrapper

    def __enter__(self):
        self._patch = patched(self._replacements)
        self._patch.__enter__()
        return self

    def __exit__(self, *exc):
        return self._patch.__exit__(*exc)


def posterior_peak_alloc(op):
    """Run ``op()`` with tracemalloc on around each posterior call; returns
    the largest per-call peak of traced allocations, in bytes (0 when the op
    makes no posterior call)."""
    inner = simulate.posterior
    peaks = [0]

    def wrapper(*args, **kwargs):
        tracemalloc.start()
        try:
            return inner(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    with patched([(simulate, "posterior", wrapper)]):
        op()
    return max(peaks)


def span_times(spans):
    """Per span name: (calls, inclusive seconds, self seconds).

    Self time is a span's duration minus the durations of its direct
    children, so the self times of all spans add up to the root spans'
    durations.
    """
    children = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent] += end - start
    totals = defaultdict(lambda: [0, 0.0, 0.0])
    for (name, start, end, _), child in zip(spans, children):
        entry = totals[name]
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - child
    return {name: tuple(v) for name, v in totals.items()}


def layer_metrics(spans, counts, ops: int) -> dict:
    """Per-layer metrics, per op, as {name: (value, unit)}."""
    times = span_times(spans)

    def calls(name):
        return times.get(name, (0, 0.0, 0.0))[0]

    def inclusive(name):
        return times.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return (times.get(name, (0, 0.0, 0.0))[2] / ops, "s/op")

    def ratio(num, den):
        return num / den if den else 0.0

    cells = counts["posterior_cells"] / ops
    metrics = {f"{name}.self_s": self_s(name) for *_, name, _ in SPANS}
    metrics.update(
        {
            "simulate.posterior.calls": (calls("simulate.posterior") / ops, "calls/op"),
            "simulate.posterior.cells": (cells, "cells/op"),
            "simulate.posterior.bytes_computed": (8.0 * cells, "B/op"),
            "simulate.mle.calls_per_trial": (
                ratio(calls("simulate.mle"), counts["trials"]),
                "calls/trial",
            ),
            "simulate.draw.samples_per_s": (
                ratio(counts["samples"], inclusive("simulate.draw")),
                "1/s",
            ),
            "numerics.uniforms_per_sample": (
                ratio(counts["uniforms"], counts["samples"]),
                "uniforms/sample",
            ),
            "numerics.integrate.calls": (counts["integrate_calls"] / ops, "calls/op"),
            "numerics.integrate.evals": (counts["integrate_evals"] / ops, "evals/op"),
            "trace.self_sum_s": (sum(t[2] for t in times.values()) / ops, "s/op"),
        }
    )
    return metrics
