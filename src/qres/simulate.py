"""Monte-Carlo measurement simulation and estimation.

A trial draws N momentum outcomes from the probe density shifted by the true
signal, computes the maximum-likelihood estimate once (the minimizer of
sum_j |p_j - x|^alpha, strictly convex for even alpha >= 2, found as the root
of its monotone score), and builds the Bayesian posterior of the signal under
a flat prior,

    posterior(x) ~ exp( -2 sum_j |(p_j - x) / gamma|^alpha ),

on a uniform grid centered at the estimate.  Repeated-trial studies compare
the empirical estimator variance and the mean posterior variance against the
energy-constrained bound.

Determinism: trial j always uses the random stream (seed, stream_index=j),
so results are bit-reproducible and independent of execution order; trials
may run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResolutionError
from .errors import require_finite, require_int, require_positive
from .metrology import energy_bound, fisher_closed
from .numerics import RngStream, sample_gamma
from .probe import ProbeSpec, gamma_for_energy, mean_energy, validate_alpha

__all__ = [
    "PosteriorGrid",
    "SampleSet",
    "TrialSummary",
    "draw",
    "draw_uniform",
    "mle",
    "posterior",
    "run_trials",
]

# Grid half-width in units of the Cramer-Rao standard deviation 1/sqrt(N F):
# 8 predicted sigmas leave under 1e-14 truncated mass for a near-Gaussian
# posterior.
_GRID_SIGMAS = 8.0

_MLE_TOL_FACTOR = 1e-10

# Newton steps that keep halving, and bisections that halve the bracket,
# converge in a few dozen steps; the cap only bounds the loop.
_MLE_MAX_STEPS = 200

# Grid points x samples per block of the likelihood sum.  The two block
# buffers, 256 kB each whatever the sample count, are allocated once per
# call, so posterior memory is O(grid), not O(grid x N), and the passes over
# a block stay in a core's cache.
_LIKELIHOOD_BLOCK_CELLS = 2**15


@dataclass(frozen=True, eq=False)
class SampleSet:
    """N simulated momentum outcomes for a true signal, with RNG provenance.

    Regenerating with the same (spec, chi_true, n, seed, stream_index)
    reproduces ``outcomes`` bit-exactly.
    """

    spec: ProbeSpec
    chi_true: float
    outcomes: np.ndarray
    seed: int
    stream_index: int

    @property
    def n(self) -> int:
        return self.outcomes.size


@dataclass(frozen=True, eq=False)
class PosteriorGrid:
    """Discretized signal posterior with its summary statistics.

    ``log_weights`` is the normalized log-density on ``grid``: the trapezoid
    integral of exp(log_weights) over the grid is 1.
    """

    grid: np.ndarray
    log_weights: np.ndarray
    mean: float
    variance: float
    map_estimate: float

    @property
    def density(self) -> np.ndarray:
        return np.exp(self.log_weights)


def draw(spec: ProbeSpec, chi: float, n: int, stream: RngStream) -> SampleSet:
    """Draw ``n`` independent outcomes from the density shifted by ``chi``.

    Exact sampling: p = chi + s * gamma * 2^(-1/alpha) * g^(1/alpha) with
    s = +-1 equiprobable and g ~ Gamma(1/alpha) reproduces the shifted probe
    density exactly (the transformation maps the gamma density onto it).

    The stream is consumed; to regenerate the same set, pass a fresh stream
    with the same (seed, stream_index).
    """
    n = require_int("n", n, 1)
    chi = require_finite("chi", chi)
    alpha = spec.alpha
    g = sample_gamma(1.0 / alpha, stream, size=n)
    # one signed scalar width per draw: negation is exact, so this is
    # bit-identical to scaling +-1 by gamma and then by 2^(-1/alpha)
    width = spec.gamma * 2.0 ** (-1.0 / alpha)
    signed = np.where(stream.uniforms(n) < 0.5, -width, width)
    outcomes = chi + signed * g ** (1.0 / alpha)
    return SampleSet(
        spec=spec,
        chi_true=chi,
        outcomes=outcomes,
        seed=stream.seed,
        stream_index=stream.stream_index,
    )


def draw_uniform(spec: ProbeSpec, chi: float, n: int, stream: RngStream) -> SampleSet:
    """Draw outcomes from the square-profile stand-in for the probe density:
    uniform on chi +- sqrt(3 * mean energy), which has the same variance.

    At large alpha the probe density is close to this square profile, so the
    shortcut is a useful cross-check of exact sampling; it is not exact and
    :func:`draw` is the default everywhere.
    """
    n = require_int("n", n, 1)
    chi = require_finite("chi", chi)
    half = math.sqrt(3.0 * mean_energy(spec))
    outcomes = chi + half * (2.0 * stream.uniforms(n) - 1.0)
    return SampleSet(
        spec=spec,
        chi_true=chi,
        outcomes=outcomes,
        seed=stream.seed,
        stream_index=stream.stream_index,
    )


def _power_in_place(base: np.ndarray, k: int, spare: np.ndarray) -> None:
    """Raise ``base`` to the integer power k >= 1 in place by binary powering:
    log2(k) squarings and a multiply per further set bit.  ``spare``, of the
    same shape, is overwritten."""
    while not k & 1:
        base *= base
        k >>= 1
    k >>= 1
    if not k:
        return
    # base holds the product so far; the repeated squares build in spare
    np.multiply(base, base, out=spare)
    while True:
        if k & 1:
            base *= spare
        k >>= 1
        if not k:
            return
        spare *= spare


def _log_likelihood(samples: SampleSet, grid: np.ndarray) -> np.ndarray:
    """Unnormalized log-likelihood of the signal on a grid of candidates,
    -2 sum_j |(p_j - x) / gamma|^alpha, summed over blocks of samples.

    Alpha is even, so each cell is the squared scaled residual raised to
    alpha/2 by binary powering.  Residuals are scaled after the subtraction:
    dividing outcomes and grid by gamma first would lose digits wherever
    p_j - x is small against p_j."""
    outcomes = samples.outcomes
    inverse_gamma = 1.0 / samples.spec.gamma
    half_alpha = samples.spec.alpha // 2
    rows = max(1, _LIKELIHOOD_BLOCK_CELLS // grid.size)
    base, spare = np.empty((2, min(rows, outcomes.size), grid.size))
    total = np.zeros(grid.size)
    for start in range(0, outcomes.size, rows):
        block = outcomes[start : start + rows]
        cells = base[: block.size]
        np.subtract.outer(block, grid, out=cells)
        cells *= inverse_gamma
        cells *= cells
        _power_in_place(cells, half_alpha, spare[: block.size])
        total += cells.sum(axis=0)
    return -2.0 * total


def mle(samples: SampleSet) -> float:
    """Maximum-likelihood signal estimate.

    The unique minimizer of sum_j |p_j - x|^alpha, found to 1e-10 * gamma as
    the root of the decreasing score sum_j sign(r_j) |r_j|^(alpha - 1) by
    Newton steps safeguarded with bisection on [min p_j, max p_j].  The
    residuals r_j = (p_j - x) / s are scaled by the sample half-range s, so
    the largest is O(1) and no power can overflow or underflow to a wrong
    root at any alpha or energy.  For alpha = 2 this is the sample mean; as
    alpha grows it approaches the midrange.
    """
    outcomes = samples.outcomes
    lo = float(outcomes.min())
    hi = float(outcomes.max())
    if lo == hi:
        return lo
    alpha = samples.spec.alpha
    if alpha == 2:
        return float(outcomes.mean())
    tol = _MLE_TOL_FACTOR * samples.spec.gamma
    scale = 0.5 * (hi - lo)
    x = lo + scale
    step = hi - lo
    for _ in range(_MLE_MAX_STEPS):
        r = (outcomes - x) / scale
        weights = np.abs(r) ** (alpha - 2)
        score = float(r @ weights)
        if score > 0.0:
            lo = x
        elif score < 0.0:
            hi = x
        else:
            return x
        newton = scale * score / ((alpha - 1) * float(weights.sum()))
        # bisect when Newton leaves the bracket or stops halving its step
        if lo <= x + newton <= hi and abs(newton) <= 0.5 * abs(step):
            step = newton
        else:
            step = 0.5 * (lo + hi) - x
        x += step
        if abs(step) <= tol:
            return x
    return x


def _trapezoid(values: np.ndarray, dx: float) -> float:
    return float(dx * (values.sum() - 0.5 * (values[0] + values[-1])))


def posterior(
    samples: SampleSet,
    grid_points: int = 2001,
    half_width: float | None = None,
    center: float | None = None,
) -> PosteriorGrid:
    """Signal posterior under a flat prior, on a uniform grid centered at the
    maximum-likelihood estimate (``center``, computed when not given).

    The default half-width is 8/sqrt(N F) with F the closed-form Fisher
    information, i.e. eight Cramer-Rao standard deviations.  The grid density
    is normalized by the trapezoid rule; mean, variance and the maximum are
    computed from the normalized grid, not from a Gaussian fit.

    Raises :class:`ResolutionError` when essentially all mass falls into a
    single cell, in which case more grid points (or a narrower window) are
    needed.
    """
    if require_int("grid_points", grid_points, 101) % 2 == 0:
        raise DomainError(f"grid_points must be odd, got {grid_points!r}")
    center = mle(samples) if center is None else require_finite("center", center)
    if half_width is None:
        half_width = _GRID_SIGMAS / math.sqrt(samples.n * fisher_closed(samples.spec))
    else:
        half_width = require_positive("half_width", half_width)

    grid = np.linspace(center - half_width, center + half_width, int(grid_points))
    dx = grid[1] - grid[0]
    log_w = _log_likelihood(samples, grid)
    peak = log_w.max()
    weights = np.exp(log_w - peak)

    norm = _trapezoid(weights, dx)
    density = weights / norm
    occupied = int(np.count_nonzero(density * dx > 1e-12))
    if occupied < 3:
        raise ResolutionError(
            "posterior mass collapses into a single grid cell; increase "
            "grid_points or reduce half_width"
        )

    mean = _trapezoid(grid * density, dx)
    variance = _trapezoid((grid - mean) ** 2 * density, dx)
    if not variance > 0.0:
        raise ResolutionError(
            "degenerate posterior variance on this grid; increase grid_points"
        )
    log_weights = log_w - peak - math.log(norm)
    map_estimate = float(grid[int(np.argmax(log_w))])
    return PosteriorGrid(
        grid=grid,
        log_weights=log_weights,
        mean=mean,
        variance=variance,
        map_estimate=map_estimate,
    )


@dataclass(frozen=True, eq=False)
class TrialSummary:
    """Aggregates of a repeated-trial estimation study.

    ``mles`` and ``posterior_variances`` are per-trial values (the latter is
    None when the study skipped posteriors); ``mle_variance`` is the
    empirical variance of the estimates across trials (None for a single
    trial), and
    ``posterior_to_bound_ratio`` compares the mean posterior variance to the
    energy-constrained bound for the same parameters.
    """

    alpha: int
    energy: float
    repetitions: int
    chi_true: float
    trials: int
    seed: int
    mles: np.ndarray
    posterior_means: np.ndarray | None
    posterior_variances: np.ndarray | None
    mle_mean: float
    mle_variance: float | None
    mean_posterior_variance: float | None
    energy_bound: float
    posterior_to_bound_ratio: float | None


def run_trials(
    alpha: int,
    energy: float,
    n: int,
    chi: float,
    trials: int,
    seed: int,
    grid_points: int = 2001,
    compute_posterior: bool = True,
    uniform_sampling: bool = False,
) -> TrialSummary:
    """Run ``trials`` independent estimation experiments and aggregate them.

    Trial j draws its samples from the stream (seed, stream_index=j), so the
    study is reproducible and order-independent.  ``compute_posterior=False``
    skips the posterior grids (useful for large estimator-variance studies
    where only the MLEs matter); ``uniform_sampling=True`` draws outcomes
    from the square-profile stand-in instead of the exact density.
    """
    alpha = validate_alpha(alpha)
    trials = require_int("trials", trials, 1)
    spec = ProbeSpec(alpha, gamma_for_energy(alpha, energy))
    sampler = draw_uniform if uniform_sampling else draw

    estimates = np.empty(trials)
    post_means = np.empty(trials) if compute_posterior else None
    post_vars = np.empty(trials) if compute_posterior else None
    for j in range(trials):
        samples = sampler(spec, chi, n, RngStream(seed, j))
        estimates[j] = mle(samples)
        if compute_posterior:
            grid = posterior(samples, grid_points, center=estimates[j])
            post_means[j] = grid.mean
            post_vars[j] = grid.variance

    bound = energy_bound(alpha, energy, n)
    mean_post_var = float(post_vars.mean()) if compute_posterior else None
    return TrialSummary(
        alpha=alpha,
        energy=float(energy),
        repetitions=int(n),
        chi_true=float(chi),
        trials=trials,
        seed=int(seed),
        mles=estimates,
        posterior_means=post_means,
        posterior_variances=post_vars,
        mle_mean=float(estimates.mean()),
        mle_variance=float(estimates.var(ddof=1)) if trials > 1 else None,
        mean_posterior_variance=mean_post_var,
        energy_bound=bound,
        posterior_to_bound_ratio=(
            mean_post_var / bound if compute_posterior else None
        ),
    )
