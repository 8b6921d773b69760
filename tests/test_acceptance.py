"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line with the measured quantities (run with ``pytest -s`` to see
the lines for passing criteria too).

Known-red criterion: number 4 asserts that the 200-trial mean posterior
variance at alpha=20, energy 1/3, N=50 falls within 25 percent of the
energy-constrained bound.  The measured trial mean sits 31.8 percent above
the bound at seed 42 (verified independently with scipy/numpy-only
machinery; the per-trial distribution is strongly right-skewed, its median
IS within 25 percent, and the mean converges onto the bound only for N well
above the ~33-repetition threshold).  The criterion is implemented exactly as stated
and fails honestly rather than being loosened; see the README.
"""

import csv
import math
import subprocess
import sys
import time
from math import lgamma

import numpy as np
import pytest

from qres.metrology import (
    energy_bound,
    energy_bound_approx,
    error_propagation_bound,
    fisher_closed,
    fisher_numeric,
    repetitions_required,
)
from qres.oscillator import HOBoundInput, NumberShiftModel, ho_energy_bound, number_shift_fisher
from qres.probe import ProbeSpec, uncertainty_product
from qres.simulate import run_trials


def _report(number, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {detail}")


def test_criterion_1_efficiency_identity():
    """Closed-form and quadrature Fisher information agree to 1e-6 relative
    over the working grid, within 5 seconds total."""
    start = time.monotonic()
    worst = 0.0
    for alpha in (2, 4, 8, 20, 40, 100):
        for gamma in (0.5, 1.0, 2.0):
            spec = ProbeSpec(alpha, gamma)
            deviation = abs(fisher_numeric(spec) / fisher_closed(spec) - 1.0)
            worst = max(worst, deviation)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-6 and elapsed < 5.0
    _report(1, ok, f"worst relative deviation {worst:.2e}, elapsed {elapsed:.2f}s")
    assert worst <= 1e-6
    assert elapsed < 5.0


def test_criterion_2_gaussian_closure():
    """At alpha=2 the energy bound reduces to energy/N exactly, and the
    Monte-Carlo estimator variance lands within 5 percent of it."""
    start = time.monotonic()
    energy, n = 1.0 / 3.0, 100
    exact = energy_bound(2, energy, n) == error_propagation_bound(energy, n)
    summary = run_trials(2, energy, n, 0.0, 10**4, 42, compute_posterior=False)
    target = energy / n
    deviation = abs(summary.mle_variance / target - 1.0)
    elapsed = time.monotonic() - start
    ok = exact and deviation <= 0.05 and elapsed < 30.0
    _report(
        2,
        ok,
        f"bound==energy/N: {exact}, mle variance {summary.mle_variance:.4e} vs "
        f"{target:.4e} ({deviation:.2%} off), elapsed {elapsed:.1f}s",
    )
    assert exact
    assert deviation <= 0.05
    assert elapsed < 30.0


def test_criterion_3_bound_sweep(tmp_path):
    """The sweep CSV starts at 1, decreases strictly, and tracks 3/alpha
    within 5 percent from alpha=4 on; generated in under a second."""
    out = tmp_path / "sweep.csv"
    start = time.monotonic()
    subprocess.run(
        [sys.executable, "-m", "qres", "sweep", "--alpha-max", "40", "--out", str(out)],
        check=True,
        stdout=subprocess.PIPE,
    )
    elapsed = time.monotonic() - start
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    table = {int(r[0]): (float(r[1]), float(r[2])) for r in rows}

    # independent check of the alpha=4 exact value via stdlib lgamma
    oracle_4 = math.exp(
        2.0 * lgamma(0.25) - 2.0 * math.log(4.0) - lgamma(1.75) - lgamma(0.75)
    )
    assert table[4][0] == pytest.approx(oracle_4, rel=1e-12)
    assert table[4][0] == pytest.approx(0.7295, abs=5e-5)

    starts_at_one = table[2][0] == 1.0
    bounds = [table[a][0] for a in sorted(table)]
    decreasing = all(b < a for a, b in zip(bounds, bounds[1:]))
    worst = max(
        abs(table[a][1] - table[a][0]) / table[a][0] for a in sorted(table) if a >= 4
    )
    ok = starts_at_one and decreasing and worst <= 0.05 and elapsed < 1.0
    _report(
        3,
        ok,
        f"alpha=2 value {table[2][0]}, strictly decreasing: {decreasing}, worst "
        f"3/alpha deviation {worst:.2%}, elapsed {elapsed:.2f}s",
    )
    assert starts_at_one
    assert decreasing
    assert worst <= 0.05
    assert elapsed < 1.0


def test_criterion_4_posterior_variance_reproduction():
    """200-trial mean posterior variance at alpha=20, energy 1/3, N=50
    within 25 percent of the energy bound (known red; see module docstring)."""
    start = time.monotonic()
    energy, n = 1.0 / 3.0, 50
    bound = energy_bound(20, energy, n)
    # the bound itself matches the independent stdlib-lgamma evaluation and
    # the large-alpha approximation is exactly 1e-3 at these parameters
    oracle = (
        energy
        / n
        * math.exp(
            2.0 * lgamma(0.05) - 2.0 * math.log(20.0) - lgamma(1.95) - lgamma(0.15)
        )
    )
    assert bound == pytest.approx(oracle, rel=1e-12)
    assert bound == pytest.approx(1.0366e-3, rel=1e-4)
    assert energy_bound_approx(20, energy, n) == pytest.approx(1e-3, rel=1e-12)

    summary = run_trials(20, energy, n, 0.0, 200, 42)
    deviation = abs(summary.mean_posterior_variance / bound - 1.0)
    elapsed = time.monotonic() - start
    ok = deviation <= 0.25 and elapsed < 60.0
    _report(
        4,
        ok,
        f"mean posterior variance {summary.mean_posterior_variance:.4e} vs bound "
        f"{bound:.4e} ({deviation:.1%} off, tolerance 25%), elapsed {elapsed:.1f}s",
    )
    assert elapsed < 60.0
    assert deviation <= 0.25, (
        f"mean posterior variance {summary.mean_posterior_variance:.4e} is "
        f"{deviation:.1%} above the bound {bound:.4e}; the trial-mean of this "
        "skewed statistic does not reach the 25% band at N=50 (finite-N "
        "excess; see the module docstring and README)"
    )


def test_criterion_5_repetitions_consistency():
    """Quadrature and closed form of the repetitions estimate agree to 1e-6
    for even alpha in [4, 60]; the 2-alpha rule is approached from below and
    is within 10 percent at alpha=100."""
    start = time.monotonic()
    worst = 0.0
    for alpha in range(4, 62, 2):
        estimate = repetitions_required(alpha)
        worst = max(worst, abs(estimate.quadrature / estimate.closed_form - 1.0))
    ratios = [repetitions_required(a).closed_form / (2.0 * a) for a in (20, 40, 60, 100)]
    from_below = all(r < 1.0 for r in ratios) and ratios == sorted(ratios)
    at_100 = abs(ratios[-1] - 1.0)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-6 and from_below and at_100 <= 0.10 and elapsed < 5.0
    _report(
        5,
        ok,
        f"worst quadrature deviation {worst:.2e}, ratio/(2 alpha) at 100: "
        f"{ratios[-1]:.4f}, elapsed {elapsed:.2f}s",
    )
    assert worst <= 1e-6
    assert from_below
    assert at_100 <= 0.10
    assert elapsed < 5.0


def test_criterion_6_uncertainty_product_paradox():
    """Minimum uncertainty exactly at alpha=2, strictly increasing with
    alpha, and bound * uncertainty_product = energy/N to 1e-10: better
    resolution comes with larger deviation from minimum uncertainty."""
    gaussian = uncertainty_product(ProbeSpec(2, 1.0))
    products = [uncertainty_product(ProbeSpec(a, 1.0)) for a in range(2, 42, 2)]
    increasing = all(b > a for a, b in zip(products, products[1:]))
    energy, n = 0.7, 9
    worst = max(
        abs(energy_bound(a, energy, n) * uncertainty_product(ProbeSpec(a, 1.0)) * n / energy - 1.0)
        for a in range(2, 42, 2)
    )
    ok = abs(gaussian - 1.0) <= 1e-10 and increasing and worst <= 1e-10
    _report(
        6,
        ok,
        f"alpha=2 product {gaussian}, strictly increasing: {increasing}, worst "
        f"decomposition error {worst:.2e}",
    )
    assert abs(gaussian - 1.0) <= 1e-10
    assert increasing
    assert worst <= 1e-10


def test_criterion_7_oscillator_contrast():
    """The oscillator floor halves when the energy doubles while the
    free-particle floor doubles, and the number-shift Fisher information
    stays within its leading-order band across the valid rectangle."""
    base = ho_energy_bound(HOBoundInput(1.0, 1.0, 3))
    doubled = ho_energy_bound(HOBoundInput(1.0, 2.0, 3))
    halves = doubled == pytest.approx(base / 2.0, rel=1e-15)
    doubles = energy_bound(8, 2.0, 3) == pytest.approx(
        2.0 * energy_bound(8, 1.0, 3), rel=1e-12
    )
    worst = 0.0
    for n_level in range(0, 101, 5):
        for chi in np.geomspace(1e-3, 0.1, 13):
            fisher = number_shift_fisher(NumberShiftModel(n_level, float(chi)))
            band = abs(fisher.exact * chi * (n_level + 1) - 1.0) / (2.0 * chi)
            worst = max(worst, float(band))
    ok = halves and doubles and worst <= 1.0
    _report(
        7,
        ok,
        f"oscillator halves: {halves}, free-particle doubles: {doubles}, "
        f"leading-order band usage {worst:.3f} of allowance",
    )
    assert halves
    assert doubles
    assert worst <= 1.0


def test_criterion_8_cli_determinism(tmp_path):
    """Re-running any CLI command with identical flags and seed produces
    byte-identical output files."""
    commands = [
        ["probe", "--alpha", "2,20", "--energy", "0.3333333333333333", "--out", "p.csv"],
        ["sweep", "--alpha-max", "20", "--out", "s.csv"],
        [
            "simulate",
            "--alpha",
            "20",
            "--energy",
            "0.3333333333333333",
            "--n",
            "50",
            "--trials",
            "3",
            "--seed",
            "7",
            "--out",
            "sim.json",
            "--posterior-out",
            "post.csv",
        ],
        ["bounds", "--alpha", "20", "--energy", "0.3333333333333333", "--n", "50", "--out", "b.json"],
    ]
    identical = True
    for idx, command in enumerate(commands):
        dirs = []
        for attempt in ("a", "b"):
            workdir = tmp_path / f"{idx}{attempt}"
            workdir.mkdir()
            subprocess.run(
                [sys.executable, "-m", "qres", *command],
                cwd=workdir,
                check=True,
                stdout=subprocess.PIPE,
            )
            dirs.append(workdir)
        names = sorted(p.name for p in dirs[0].iterdir())
        identical &= names == sorted(p.name for p in dirs[1].iterdir())
        for name in names:
            identical &= (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
    _report(8, identical, f"{len(commands)} commands re-run byte-identically: {identical}")
    assert identical
