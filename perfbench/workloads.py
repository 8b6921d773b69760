"""The benchmark's workloads: how each draws its inputs from the seed, the op
it runs through qres's public functions, the check on the op's output, and a
fingerprint of that output.

Ops look up ``simulate.run_trials``, ``metrology.bound_report`` and
``metrology.fisher_numeric`` on their modules at call time, so a tracer that
patches those module attributes sees the calls.
"""

from __future__ import annotations

import functools
import hashlib
import math
import random
from dataclasses import dataclass
from statistics import NormalDist
from typing import Any, Callable

import numpy as np

from qres import metrology, probe, simulate

ENERGY = 1.0 / 3.0

# Probability in each tail of the chi-square band on mle_variance / bound.
CHI2_TAIL = 1e-6

# Relative agreement required between independent routes to one quantity.
ROUTE_RTOL = 1e-6

# At alpha = 2 the posterior is exactly Gaussian with variance energy / n;
# the grid and the trapezoid rule reproduce it far below this tolerance.
GAUSSIAN_POSTERIOR_RTOL = 1e-9

BOUNDS_REPETITIONS = 50


@dataclass(frozen=True)
class Workload:
    name: str
    make_input: Callable[[random.Random, int], dict]
    run: Callable[[dict], Any]
    check: Callable[[dict, Any], list]
    fingerprint: Callable[[Any], str]
    # The reference kernel (see worker.REFERENCE_KERNELS) whose work
    # resembles this workload's ops.
    reference: str


def chi2_band(dof: int, tail: float = CHI2_TAIL) -> tuple:
    """Quantiles of chi2(dof) / dof with ``tail`` probability beyond each.

    Wilson-Hilferty cube-root approximation; for dof >= 99 and a 1e-6 tail
    its quantiles are within about one percent of the exact ones.  If T
    trials estimate a variance equal to the bound, the ratio of their sample
    variance to the bound falls outside this band with probability 2 * tail.
    """
    z = NormalDist().inv_cdf(1.0 - tail)
    spread = math.sqrt(2.0 / (9.0 * dof))
    centre = 1.0 - 2.0 / (9.0 * dof)
    return (centre - z * spread) ** 3, (centre + z * spread) ** 3


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if part is not None:
            h.update(np.asarray(part, dtype=np.float64).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Estimation studies: one op is one run_trials call
# ---------------------------------------------------------------------------


def _study_input(rng: random.Random, index: int) -> dict:
    return {"chi": rng.uniform(-1.0, 1.0), "seed": rng.randrange(2**63)}


def _study_fingerprint(s) -> str:
    return _digest(
        s.mles,
        s.posterior_means,
        s.posterior_variances,
        s.mle_mean,
        s.mle_variance,
        s.mean_posterior_variance,
        s.energy_bound,
    )


def _finite_problems(s) -> list:
    values = [s.mles, s.mle_mean, s.mle_variance, s.energy_bound]
    if s.posterior_variances is not None:
        values += [s.posterior_means, s.posterior_variances, s.mean_posterior_variance]
    if all(np.all(np.isfinite(v)) for v in values):
        return []
    return ["non-finite study output"]


def check_study_alpha20(s, *, efficient: bool) -> list:
    """Checks for the alpha = 20 studies.

    The MLE is unbiased here (the density is symmetric), so by Cramer-Rao its
    variance is at least the bound, and the sample variance over the trials
    may fall below the chi-square band only with probability 1e-6.  The
    upper side of the band holds only where the MLE is efficient, i.e. at
    n far above ``repetitions_required`` (about 33 at alpha = 20); at
    n = 50 its variance sits about 40 percent above the bound.
    """
    problems = _finite_problems(s)
    if s.posterior_variances is not None and not np.all(s.posterior_variances > 0.0):
        problems.append("non-positive posterior variance")
    lo, hi = chi2_band(s.trials - 1)
    ratio = s.mle_variance / s.energy_bound
    if not ratio >= lo:
        problems.append(f"mle_variance / energy_bound = {ratio!r} below the band [{lo}, {hi}]")
    elif efficient and not ratio <= hi:
        problems.append(f"mle_variance / energy_bound = {ratio!r} above the band [{lo}, {hi}]")
    return problems


def check_study_gaussian(s) -> list:
    """At alpha = 2 every trial's posterior variance is energy / n."""
    problems = _finite_problems(s)
    exact = s.energy / s.repetitions
    worst = float(np.max(np.abs(s.posterior_variances / exact - 1.0)))
    if not worst <= GAUSSIAN_POSTERIOR_RTOL:
        problems.append(f"posterior variance off energy/n by {worst!r} relative")
    return problems


def _study(name, *, alpha, n, trials, compute_posterior, check) -> Workload:
    def run(inp):
        return simulate.run_trials(
            alpha=alpha,
            energy=ENERGY,
            n=n,
            chi=inp["chi"],
            trials=trials,
            seed=inp["seed"],
            compute_posterior=compute_posterior,
        )

    return Workload(
        name=name,
        make_input=_study_input,
        run=run,
        check=lambda inp, s: check(s),
        fingerprint=_study_fingerprint,
        reference="array",
    )


# ---------------------------------------------------------------------------
# Bounds sweep: one op is bound_report plus a fisher_numeric cross-check at
# every even alpha in 2..200, at one energy
# ---------------------------------------------------------------------------

# One alpha takes 3 to 10 ms, so short that the latency tail of single-alpha
# ops measures the machine's scheduling hiccups rather than qres; a whole
# sweep takes about half a second.
ALPHAS = tuple(range(2, 201, 2))


def _bounds_input(rng: random.Random, index: int) -> dict:
    return {"alphas": ALPHAS, "energy": 10.0 ** rng.uniform(-3.0, 3.0)}


def _bounds_run(inp):
    out = []
    for alpha in inp["alphas"]:
        report = metrology.bound_report(alpha, inp["energy"], BOUNDS_REPETITIONS)
        spec = probe.ProbeSpec(report.alpha, report.gamma)
        out.append((report, metrology.fisher_numeric(spec)))
    return out


@functools.cache
def _repetitions(alpha: int):
    # Memoized: it depends on alpha alone, and recomputing it for every op
    # would triple the time spent checking.
    return metrology.repetitions_required(alpha)


def check_bound(report, fisher_num) -> list:
    """Checks on one bound_report and its fisher_numeric cross-check."""
    problems = []
    if not _rel(report.quantum_fisher, report.fisher) <= ROUTE_RTOL:
        problems.append("quantum_fisher disagrees with fisher")
    if not _rel(fisher_num, report.fisher) <= ROUTE_RTOL:
        problems.append("fisher_numeric disagrees with fisher")
    if report.crb != 1.0 / (report.repetitions * report.fisher):
        problems.append("crb != 1/(n fisher)")
    if report.alpha >= 4:
        rr = _repetitions(report.alpha)
        if report.n_required != rr.closed_form:
            problems.append("n_required differs from repetitions_required")
        if not _rel(rr.quadrature, rr.closed_form) <= ROUTE_RTOL:
            problems.append("repetitions_required quadrature disagrees with closed form")
    return [f"alpha={report.alpha}: {p}" for p in problems]


def _bounds_fingerprint(out) -> str:
    return _digest(*(list(report.to_dict().values()) + [f] for report, f in out))


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's criterion-4 study: many small trials, so the per-trial
        # loop in run_trials, the doubled MLE and the posterior's trapezoid
        # sums dominate while memory stays small.
        _study(
            "study-posterior",
            alpha=20,
            n=50,
            trials=200,
            compute_posterior=True,
            check=functools.partial(check_study_alpha20, efficient=False),
        ),
        # Few large trials: the grid x N likelihood matrix dominates time and
        # peak memory, the opposite use of the posterior layer.  Two trials
        # keep an op near half a second, so a run holds enough ops for a
        # latency tail; the per-call peak does not depend on the trial count.
        _study(
            "study-large-n",
            alpha=2,
            n=10_000,
            trials=2,
            compute_posterior=True,
            check=check_study_gaussian,
        ),
        # Estimator-variance study that bypasses the posterior: sampler and
        # MLE only, so a posterior change should leave it unchanged.
        _study(
            "study-mle",
            alpha=20,
            n=10_000,
            trials=100,
            compute_posterior=False,
            check=functools.partial(check_study_alpha20, efficient=True),
        ),
        # Quadrature only, no sampling: the one workload on that layer, and
        # one a simulate change should leave unchanged.  Energies span six
        # decades.
        Workload(
            name="bounds-sweep",
            make_input=_bounds_input,
            run=_bounds_run,
            check=lambda inp, out: [p for pair in out for p in check_bound(*pair)],
            fingerprint=_bounds_fingerprint,
            reference="interpreter",
        ),
    )
}
