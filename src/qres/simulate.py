"""Monte-Carlo measurement simulation and estimation.

A trial draws N momentum outcomes from the probe density shifted by the true
signal, computes the maximum-likelihood estimate once (the minimizer of
sum_j |p_j - x|^alpha, strictly convex for even alpha >= 2, found as the root
of its monotone score), and builds the Bayesian posterior of the signal under
a flat prior,

    posterior(x) ~ exp( -2 sum_j |(p_j - x) / gamma|^alpha ),

on a uniform grid over the window where the log-likelihood stays within 40
nats of its value at the estimate, doubled until the posterior variance
converges.  Repeated-trial studies compare
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
from .probe import ProbeSpec, _stated, mean_energy

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

# Starting half-width of the posterior window in units of the Cramer-Rao
# standard deviation 1/sqrt(N F).  Each side then widens by _WINDOW_GROWTH
# until the log-likelihood at its edge lies _WINDOW_DROP nats below its value
# at the center: unless N >> repetitions_required the posterior can be much
# wider than 8 predicted sigmas (2.25x at alpha = 200, N = 20, E = 1/3).
_GRID_SIGMAS = 8.0
_WINDOW_GROWTH = 1.5
_WINDOW_DROP = 40.0

# The grid doubles until the variance from every other point agrees with the
# full grid's to _GRID_RTOL.  With both ends e^-40 below the peak the
# trapezoid rule converges geometrically, so 101 to 1601 points suffice from
# alpha = 2 to 200 at N >= 20; the cap stops a grid that cannot resolve the
# posterior, such as an explicit half-width far wider than it.
_GRID_RTOL = 1e-12
_GRID_MAX_POINTS = 2**16 + 1

# The summed log-likelihood L carries a rounding error of order eps * |L|,
# which no grid refines away: at alpha = 2 and N = 1e6 it holds the two
# variances up to 2.2 eps |L| apart on every grid up to 3201 points, and with
# _GRID_RTOL alone the grid ran to the cap from N = 2e5.  So the tolerance
# never falls below this multiple of |L| at the peak; |L| is about N / alpha,
# so that floor passes _GRID_RTOL only beyond N of about 560 alpha.
_LIKELIHOOD_ROUNDING = 8.0 * np.finfo(float).eps

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
    integral of exp(log_weights) over the grid is 1.  ``variance_error`` is
    the grid's own error estimate: the relative difference between
    ``variance`` and the variance from every other grid point.
    """

    grid: np.ndarray
    log_weights: np.ndarray
    mean: float
    variance: float
    map_estimate: float
    variance_error: float

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


def _moments(grid: np.ndarray, weights: np.ndarray, dx: float) -> tuple:
    """Trapezoid normalization, mean and variance of unnormalized weights."""
    norm = _trapezoid(weights, dx)
    density = weights / norm
    mean = _trapezoid(grid * density, dx)
    return norm, mean, _trapezoid((grid - mean) ** 2 * density, dx)


def posterior(
    samples: SampleSet,
    grid_points: int = 101,
    half_width: float | None = None,
    center: float | None = None,
) -> PosteriorGrid:
    """Signal posterior under a flat prior, on a uniform grid around the
    maximum-likelihood estimate (``center``, computed when not given).

    The window starts at eight Cramer-Rao standard deviations, 8/sqrt(N F)
    with F the closed-form Fisher information, on each side of ``center``.
    Each side then widens by 1.5x until the log-likelihood at its edge lies
    at least 40 nats below its value at ``center``; the log-likelihood is
    concave, so the posterior beyond either edge is below e^-40 of its peak.
    An explicit ``half_width`` is used as given.

    ``grid_points`` (odd, at least 101) is the starting and smallest grid.
    While the variance from every other point differs from the full grid's
    by more than 1e-12 relative, the grid doubles: only the new midpoints
    are evaluated, so no likelihood value is computed twice.  At large N the
    tolerance rises to 8 eps |L|, the rounding of the summed log-likelihood
    L at its peak, which no finer grid removes.  The density is
    normalized by the trapezoid rule; mean, variance and the maximum are
    computed from the normalized grid, not from a Gaussian fit.

    Raises :class:`ResolutionError` when the grid would pass 65537 points
    before the variance converges (as when essentially all mass falls into
    a single cell of too wide a window), or when the variance degenerates.
    """
    points = require_int("grid_points", grid_points, 101)
    if points % 2 == 0:
        raise DomainError(f"grid_points must be odd, got {grid_points!r}")
    center = mle(samples) if center is None else require_finite("center", center)
    if half_width is None:
        start = _GRID_SIGMAS / math.sqrt(samples.n * fisher_closed(samples.spec))
        offsets = np.array([-start, start])
        probes = _log_likelihood(samples, center + np.array([0.0, -start, start]))
        at_center, edges = probes[0], probes[1:]
        # a NaN edge compares False and stops widening its side
        while (shallow := edges > at_center - _WINDOW_DROP).any():
            offsets[shallow] *= _WINDOW_GROWTH
            edges[shallow] = _log_likelihood(samples, center + offsets[shallow])
        lo, hi = center + offsets
    else:
        half_width = require_positive("half_width", half_width)
        lo, hi = center - half_width, center + half_width

    grid = np.linspace(lo, hi, points)
    log_w = _log_likelihood(samples, grid)
    while True:
        dx = grid[1] - grid[0]
        peak = log_w.max()
        weights = np.exp(log_w - peak)
        norm, mean, variance = _moments(grid, weights, dx)
        if np.count_nonzero(weights / norm * dx > 1e-12) >= 3:
            if not variance > 0.0:
                raise ResolutionError("degenerate posterior variance on this grid")
            coarse = _moments(grid[::2], weights[::2], 2.0 * dx)[2]
            error = abs(coarse - variance) / variance
            if error <= max(_GRID_RTOL, _LIKELIHOOD_ROUNDING * abs(peak)):
                break
        points = 2 * points - 1
        if points > _GRID_MAX_POINTS:
            raise ResolutionError(
                f"posterior not resolved on {_GRID_MAX_POINTS} grid points: its "
                "mass falls into fewer than 3 cells or its variance has not "
                "converged; reduce half_width"
            )
        # linspace steps by (hi - lo) / (points - 1), exactly half the old
        # step, so the even points of the finer grid are the old grid
        grid = np.linspace(lo, hi, points)
        finer = np.empty(points)
        finer[::2] = log_w
        finer[1::2] = _log_likelihood(samples, grid[1::2])
        log_w = finer

    return PosteriorGrid(
        grid=grid,
        log_weights=log_w - peak - math.log(norm),
        mean=mean,
        variance=variance,
        map_estimate=float(grid[int(np.argmax(log_w))]),
        variance_error=error,
    )


@dataclass(frozen=True, eq=False)
class TrialSummary:
    """Aggregates of a repeated-trial estimation study of the probe of width
    ``gamma`` and mean energy ``energy``.

    ``mles`` and ``posterior_variances`` are per-trial values (the latter is
    None when the study skipped posteriors, as is ``first_posterior``, trial
    0's grid); ``mle_variance`` is the empirical variance of the estimates
    across trials (None for a single trial), and ``posterior_to_bound_ratio``
    compares the mean posterior variance to the energy-constrained bound for
    the same parameters.
    """

    alpha: int
    energy: float
    gamma: float
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
    first_posterior: PosteriorGrid | None


def run_trials(
    alpha: int | ProbeSpec,
    energy: float | None,
    n: int,
    chi: float,
    trials: int,
    seed: int,
    grid_points: int = 101,
    compute_posterior: bool = True,
    uniform_sampling: bool = False,
) -> TrialSummary:
    """Run ``trials`` independent estimation experiments on one probe, stated
    as ``(alpha, energy)`` or as ``(ProbeSpec, None)``, and aggregate them.

    Trial j draws its samples from the stream (seed, stream_index=j), so the
    study is reproducible and order-independent.  Each trial's posterior is
    :func:`posterior` centered at its MLE: a window that widens until the
    log-likelihood falls 40 nats at both edges, on a grid that starts at
    ``grid_points`` and doubles, up to 65537 points, until its variance
    converges to 1e-12 relative.  ``compute_posterior=False`` skips the
    posterior grids (useful for large estimator-variance studies where only
    the MLEs matter); ``uniform_sampling=True`` draws outcomes from the
    square-profile stand-in instead of the exact density.
    """
    spec, energy = _stated(alpha, energy)
    trials = require_int("trials", trials, 1)
    sampler = draw_uniform if uniform_sampling else draw

    estimates = np.empty(trials)
    post_means = np.empty(trials) if compute_posterior else None
    post_vars = np.empty(trials) if compute_posterior else None
    first_posterior = None
    for j in range(trials):
        samples = sampler(spec, chi, n, RngStream(seed, j))
        estimates[j] = mle(samples)
        if compute_posterior:
            grid = posterior(samples, grid_points, center=estimates[j])
            post_means[j], post_vars[j] = grid.mean, grid.variance
            if j == 0:
                first_posterior = grid

    bound = energy_bound(spec.alpha, energy, n)
    mean_post_var = float(post_vars.mean()) if compute_posterior else None
    return TrialSummary(
        alpha=spec.alpha,
        energy=energy,
        gamma=spec.gamma,
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
        posterior_to_bound_ratio=mean_post_var / bound if compute_posterior else None,
        first_posterior=first_posterior,
    )
