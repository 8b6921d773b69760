"""Tests of the benchmark itself: wrapping must not change results, every
output check must catch a corrupted result, and the harness refuses to run
without qres's sources.

    python3 -m pytest perfbench -q
"""

import dataclasses
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

from qres import metrology, simulate  # noqa: E402


def test_workload_names_agree():
    assert run.WORKLOADS == tuple(workloads.WORKLOADS)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_op_is_bit_identical_to_untraced(name):
    workload = workloads.WORKLOADS[name]
    inp = workload.make_input(random.Random(5), 7)
    originals = [getattr(m, a) for m, a, *_ in tracing.SPANS]
    tracer = tracing.Tracer()
    plain = worker.attempt(workload, inp)
    traced = worker.attempt(workload, inp, tracer)
    assert plain.problems == [] and traced.problems == []
    assert traced.fingerprint == plain.fingerprint
    assert tracer.spans, "the tracer recorded no span"
    assert [getattr(m, a) for m, a, *_ in tracing.SPANS] == originals


def test_self_times_add_up_to_root_spans():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["child", 1.0, 4.0, 0],
        ["grandchild", 2.0, 3.0, 1],
        ["child", 5.0, 6.0, 0],
    ]
    times = tracing.span_times(spans)
    assert times["root"] == (1, 10.0, 6.0)
    assert times["child"] == (2, 4.0, 3.0)
    assert times["grandchild"] == (1, 1.0, 1.0)
    assert sum(t[2] for t in times.values()) == 10.0


def test_tail_keeps_ten_samples_beyond():
    latencies = list(range(100, 0, -1))
    assert run.tail(latencies) == (90, 90.0)
    assert run.tail([3, 1, 2]) == (3, 100.0)


# ---------------------------------------------------------------------------
# Every check fails on a corrupted result
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def bound_pair():
    workload = workloads.WORKLOADS["bounds-sweep"]
    [pair] = workload.run({"alphas": (20,), "energy": 0.7})
    return pair


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda r, f: (dataclasses.replace(r, quantum_fisher=r.quantum_fisher * (1 + 1e-5)), f),
        lambda r, f: (r, f * (1 - 1e-5)),
        lambda r, f: (dataclasses.replace(r, crb=np.nextafter(r.crb, 1.0)), f),
        lambda r, f: (dataclasses.replace(r, n_required=r.n_required * (1 + 1e-12)), f),
        lambda r, f: (dataclasses.replace(r, fisher=float("nan")), f),
    ],
    ids=["quantum_fisher", "fisher_numeric", "crb", "n_required", "nan"],
)
def test_bounds_check_catches(bound_pair, corrupt):
    assert workloads.check_bound(*bound_pair) == []
    assert workloads.check_bound(*corrupt(*bound_pair))


def test_bounds_check_catches_repetitions_quadrature(bound_pair, monkeypatch):
    true = metrology.repetitions_required(20)
    monkeypatch.setattr(
        workloads,
        "_repetitions",
        lambda alpha: dataclasses.replace(true, quadrature=true.quadrature * (1 + 1e-5)),
    )
    assert workloads.check_bound(*bound_pair)


@pytest.fixture(scope="module")
def alpha20_study():
    s = simulate.run_trials(alpha=20, energy=workloads.ENERGY, n=50, chi=0.2, trials=100, seed=3)
    # A variance equal to the bound sits inside the band on both sides.
    return dataclasses.replace(s, mle_variance=s.energy_bound)


@pytest.mark.parametrize("efficient", [False, True])
def test_alpha20_check_passes_clean_study(alpha20_study, efficient):
    assert workloads.check_study_alpha20(alpha20_study, efficient=efficient) == []


@pytest.mark.parametrize(
    "corrupt, efficient",
    [
        (lambda s: dataclasses.replace(s, mles=np.where(np.arange(s.trials) == 3, np.nan, s.mles)),
         True),
        (lambda s: dataclasses.replace(s, posterior_variances=-s.posterior_variances), False),
        (lambda s: dataclasses.replace(s, mle_variance=0.3 * s.energy_bound), False),
        (lambda s: dataclasses.replace(s, mle_variance=3.0 * s.energy_bound), True),
    ],
    ids=["nan-mle", "negative-posterior-variance", "below-band", "above-band"],
)
def test_alpha20_check_catches(alpha20_study, corrupt, efficient):
    assert workloads.check_study_alpha20(corrupt(alpha20_study), efficient=efficient)


def test_gaussian_check():
    s = simulate.run_trials(alpha=2, energy=workloads.ENERGY, n=400, chi=-0.3, trials=2, seed=9)
    assert workloads.check_study_gaussian(s) == []
    bumped = dataclasses.replace(s, posterior_variances=s.posterior_variances * (1 + 1e-8))
    assert workloads.check_study_gaussian(bumped)
    assert workloads.check_study_gaussian(dataclasses.replace(s, mle_variance=float("inf")))


def test_chi2_band_brackets_one():
    lo, hi = workloads.chi2_band(199)
    assert 0.5 < lo < 0.65 and 1.5 < hi < 1.65


# ---------------------------------------------------------------------------
# The harness refuses to run without the sources
# ---------------------------------------------------------------------------


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "study-mle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )  # fmt: skip
    assert proc.returncode != 0
    assert proc.stdout == ""
