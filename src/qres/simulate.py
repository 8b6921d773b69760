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

Studies run their trials in blocks: each stage draws, solves or integrates
a whole block as (trials, N) and (trials, grid) arrays, and :func:`draw`,
:func:`mle` and :func:`posterior` are the one-row case of the same code.

Determinism: trial j always uses the random stream (seed, stream_index=j),
and its results are bit-identical whichever block it falls in, so they are
reproducible and do not depend on the block size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResolutionError
from .errors import require_finite, require_int, require_positive
from .metrology import energy_bound, fisher_closed
from .numerics import RngStream, _gamma_rows, _uniform_rows
from .numerics import sample_gamma  # noqa: F401  (perfbench/tracing.py wraps it)
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

# Values per trial block of run_trials, which holds
# _BLOCK_VALUES // max(N, grid_points) trials (at least one), so a block's
# sample and grid arrays stay near this size whatever the trial count.  The
# MLE's per-step bookkeeping costs the same for one row as for hundreds,
# about a third of a Newton step at N = 1e4; three trials per block at that
# N amortize it, while larger blocks slow the sampler, whose temporaries
# then outgrow a core's cache.
_BLOCK_VALUES = 2**15

# Cells (trials x samples x grid points) per block of the likelihood sum.
# The two block buffers, 256 kB each whatever the sample count, are
# allocated once per call, so posterior memory is O(grid), not O(grid x N),
# and the passes over a block stay in a core's cache.
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


def _exact_outcomes(spec: ProbeSpec, chi: float, n: int, streams) -> np.ndarray:
    """``n`` outcomes from each stream, one row per stream: see :func:`draw`."""
    alpha = spec.alpha
    g, signs = _gamma_rows(1.0 / alpha, streams, n, trailing=n)
    # one signed scalar width per draw: negation is exact, so this is
    # bit-identical to scaling +-1 by gamma and then by 2^(-1/alpha)
    width = spec.gamma * 2.0 ** (-1.0 / alpha)
    g **= 1.0 / alpha  # in place, as in _squeeze_round
    g *= np.where(signs < 0.5, -width, width)
    g += chi
    return g


def _square_outcomes(spec: ProbeSpec, chi: float, n: int, streams) -> np.ndarray:
    """``n`` outcomes from each stream, one row per stream: see
    :func:`draw_uniform`."""
    half = math.sqrt(3.0 * mean_energy(spec))
    return chi + half * (2.0 * _uniform_rows(streams, n) - 1.0)


def _sample_set(rows, spec: ProbeSpec, chi: float, n: int, stream: RngStream) -> SampleSet:
    n = require_int("n", n, 1)
    chi = require_finite("chi", chi)
    return SampleSet(
        spec=spec,
        chi_true=chi,
        outcomes=rows(spec, chi, n, [stream])[0],
        seed=stream.seed,
        stream_index=stream.stream_index,
    )


def draw(spec: ProbeSpec, chi: float, n: int, stream: RngStream) -> SampleSet:
    """Draw ``n`` independent outcomes from the density shifted by ``chi``.

    Exact sampling: p = chi + s * gamma * 2^(-1/alpha) * g^(1/alpha) with
    s = +-1 equiprobable and g ~ Gamma(1/alpha) reproduces the shifted probe
    density exactly (the transformation maps the gamma density onto it).

    The stream is consumed; to regenerate the same set, pass a fresh stream
    with the same (seed, stream_index).
    """
    return _sample_set(_exact_outcomes, spec, chi, n, stream)


def draw_uniform(spec: ProbeSpec, chi: float, n: int, stream: RngStream) -> SampleSet:
    """Draw outcomes from the square-profile stand-in for the probe density:
    uniform on chi +- sqrt(3 * mean energy), which has the same variance.

    At large alpha the probe density is close to this square profile, so the
    shortcut is a useful cross-check of exact sampling; it is not exact and
    :func:`draw` is the default everywhere.
    """
    return _sample_set(_square_outcomes, spec, chi, n, stream)


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


def _log_likelihoods(spec: ProbeSpec, outcomes: np.ndarray, grids: np.ndarray) -> np.ndarray:
    """Unnormalized log-likelihoods of the signal, one row per trial: row t
    is -2 sum_j |(p_tj - x) / gamma|^alpha on the candidates ``grids[t]``
    given the samples ``outcomes[t]``.

    The cells are summed a block at a time: whole trials while one trial's
    N x G cells fit in _LIKELIHOOD_BLOCK_CELLS, and blocks of one trial's
    samples beyond that.  Alpha is even, so each cell is the squared scaled
    residual raised to alpha/2 by binary powering.  Residuals are scaled
    after the subtraction: dividing outcomes and grid by gamma first would
    lose digits wherever p_j - x is small against p_j."""
    trials, n = outcomes.shape
    size = grids.shape[1]
    inverse_gamma = 1.0 / spec.gamma
    half_alpha = spec.alpha // 2
    rows = min(n, max(1, _LIKELIHOOD_BLOCK_CELLS // size))
    block = max(1, _LIKELIHOOD_BLOCK_CELLS // (rows * size))
    base, spare = np.empty((2, min(block, trials), rows, size))
    total = np.zeros((trials, size))
    for first in range(0, trials, block):
        trial_outcomes = outcomes[first : first + block, :, None]
        trial_grids = grids[first : first + block, None, :]
        trial_total = total[first : first + block]
        for start in range(0, n, rows):
            samples = trial_outcomes[:, start : start + rows]
            a, b = samples.shape[:2]
            cells = base[:a, :b]
            np.subtract(samples, trial_grids, out=cells)
            cells *= inverse_gamma
            cells *= cells
            _power_in_place(cells, half_alpha, spare[:a, :b])
            trial_total += cells.sum(axis=1)
    return -2.0 * total


def _log_likelihood(samples: SampleSet, grid: np.ndarray) -> np.ndarray:
    """The log-likelihood of one sample set on one grid: the one-row case of
    :func:`_log_likelihoods`."""
    return _log_likelihoods(samples.spec, samples.outcomes[None], grid[None])[0]


def _rows(array: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """``array[keep]``, without a copy when ``keep`` selects every row."""
    return array if keep.all() else array[keep]


def _mles(spec: ProbeSpec, outcomes: np.ndarray) -> np.ndarray:
    """Maximum-likelihood estimate of each row of ``outcomes``: see
    :func:`mle`.  The safeguarded Newton steps run over every unconverged
    row at once, each row within its own bracket."""
    lo = outcomes.min(axis=1)
    hi = outcomes.max(axis=1)
    alpha = spec.alpha
    if alpha == 2:
        return np.where(lo == hi, lo, outcomes.mean(axis=1))
    estimates = lo.copy()  # the rows with lo == hi keep it
    active = lo < hi
    if not active.any():
        return estimates
    index = np.flatnonzero(active)
    samples, lo, hi = _rows(outcomes, active), lo[active], hi[active]
    tol = _MLE_TOL_FACTOR * spec.gamma
    scale = 0.5 * (hi - lo)
    x = lo + scale
    half_step = scale  # half the last step; before the first, half the bracket
    for _ in range(_MLE_MAX_STEPS):
        r = samples - x[:, None]  # in place from here, as in _squeeze_round
        r /= scale[:, None]
        weights = np.abs(r)
        weights **= alpha - 2
        # one dot product per row, as r @ w; a row sum of r * w would add
        # in another order
        score = np.matmul(r[:, None, :], weights[:, :, None])[:, 0, 0]
        np.copyto(lo, x, where=score > 0.0)
        np.copyto(hi, x, where=score < 0.0)
        newton = scale * score / ((alpha - 1) * weights.sum(axis=1))
        target = x + newton
        # bisect when Newton leaves the bracket or stops halving its step; a
        # zero score makes a zero Newton step, which ends the row at its root
        newton_ok = (lo <= target) & (target <= hi) & (np.abs(newton) <= half_step)
        step = np.where(newton_ok, newton, 0.5 * (lo + hi) - x)
        x += step
        size = np.abs(step)
        half_step = 0.5 * size
        done = size <= tol
        if done.any():
            estimates[index[done]] = x[done]
            if done.all():
                return estimates
            going = ~done
            index, samples, lo, hi = index[going], samples[going], lo[going], hi[going]
            scale, x, half_step = scale[going], x[going], half_step[going]
    raise ResolutionError(f"maximum-likelihood estimate not converged in {_MLE_MAX_STEPS} steps")


def mle(samples: SampleSet) -> float:
    """Maximum-likelihood signal estimate.

    The unique minimizer of sum_j |p_j - x|^alpha, found to 1e-10 * gamma as
    the root of the decreasing score sum_j sign(r_j) |r_j|^(alpha - 1) by
    Newton steps safeguarded with bisection on [min p_j, max p_j].  The
    residuals r_j = (p_j - x) / s are scaled by the sample half-range s, so
    the largest is O(1) and no power can overflow or underflow to a wrong
    root at any alpha or energy.  For alpha = 2 this is the sample mean; as
    alpha grows it approaches the midrange.  Raises :class:`ResolutionError`
    if the root is not found within 200 steps, rather than return an
    unconverged iterate.
    """
    return float(_mles(samples.spec, samples.outcomes[None])[0])


def _grids(lo: np.ndarray, hi: np.ndarray, points: int) -> np.ndarray:
    """Row t is ``np.linspace(lo[t], hi[t], points)`` (for a nonzero step),
    in a C-ordered array: ``linspace`` with ``axis=1`` returns an F-ordered
    view, and a row sum over an F-ordered array adds in another order than
    the sum over one grid."""
    grid = np.arange(points) * ((hi - lo) / (points - 1))[:, None]
    grid += lo[:, None]
    grid[:, -1] = hi
    return grid


def _trapezoid(values: np.ndarray, dx: np.ndarray) -> np.ndarray:
    return dx * (values.sum(axis=1) - 0.5 * (values[:, 0] + values[:, -1]))


def _moments(grid: np.ndarray, weights: np.ndarray, dx: np.ndarray) -> tuple:
    """Trapezoid normalization, mean and variance of the unnormalized
    weights in each row."""
    norm = _trapezoid(weights, dx)
    density = weights / norm[:, None]
    mean = _trapezoid(grid * density, dx)
    return norm, mean, _trapezoid((grid - mean[:, None]) ** 2 * density, dx)


def _grid_points(grid_points) -> int:
    points = require_int("grid_points", grid_points, 101)
    if points % 2 == 0:
        raise DomainError(f"grid_points must be odd, got {grid_points!r}")
    return points


def _posteriors(
    spec: ProbeSpec,
    outcomes: np.ndarray,
    centers: np.ndarray,
    points: int,
    half_width: float | None = None,
) -> tuple:
    """Posterior of each row of ``outcomes`` around its ``centers`` entry,
    as :func:`posterior` builds it: the rows' means, variances and variance
    errors stacked in a (3, trials) array, and row 0's grid.

    Every row starts on ``points`` points, and the rows whose variance has
    not converged double together."""
    trials, n = outcomes.shape
    if half_width is None:
        start = _GRID_SIGMAS / math.sqrt(n * fisher_closed(spec))
        offsets = np.repeat([[-start, start]], trials, axis=0)
        probes = _log_likelihoods(
            spec, outcomes, centers[:, None] + np.array([0.0, -start, start])
        )
        floor, edges = probes[:, :1] - _WINDOW_DROP, probes[:, 1:]
        # a NaN edge compares False and stops widening its side; a row with
        # one shallow side probes one point, as a row alone would
        while (shallow := edges > floor).any():
            offsets[shallow] *= _WINDOW_GROWTH
            both = shallow.all(axis=1)
            if both.any():
                edges[both] = _log_likelihoods(
                    spec, _rows(outcomes, both), centers[both, None] + offsets[both]
                )
            one = shallow.any(axis=1) & ~both
            if one.any():
                sides = shallow & one[:, None]
                edges[sides] = _log_likelihoods(
                    spec, _rows(outcomes, one), (centers[one] + offsets[sides])[:, None]
                )[:, 0]
        lo, hi = centers + offsets[:, 0], centers + offsets[:, 1]
    else:
        lo, hi = centers - half_width, centers + half_width

    stats = np.empty((3, trials))
    first = None
    index = np.arange(trials)
    grid = _grids(lo, hi, points)
    log_w = _log_likelihoods(spec, outcomes, grid)
    while True:
        dx = grid[:, 1] - grid[:, 0]
        peak = log_w.max(axis=1)
        weights = np.exp(log_w - peak[:, None])
        norm, mean, variance = _moments(grid, weights, dx)
        occupied = (weights / norm[:, None] * dx[:, None] > 1e-12).sum(axis=1) >= 3
        if not (variance[occupied] > 0.0).all():
            raise ResolutionError("degenerate posterior variance on this grid")
        # rows of fewer than 3 occupied cells divide by zero here and refine
        with np.errstate(divide="ignore", invalid="ignore"):
            coarse = _moments(grid[:, ::2], weights[:, ::2], 2.0 * dx)[2]
            error = np.abs(coarse - variance) / variance
        done = occupied & (error <= np.maximum(_GRID_RTOL, _LIKELIHOOD_ROUNDING * np.abs(peak)))
        stats[:, index[done]] = mean[done], variance[done], error[done]
        if index[0] == 0 and done[0]:
            first = PosteriorGrid(
                grid=grid[0].copy(),
                log_weights=log_w[0] - peak[0] - math.log(norm[0]),
                mean=float(mean[0]),
                variance=float(variance[0]),
                map_estimate=float(grid[0, int(np.argmax(log_w[0]))]),
                variance_error=float(error[0]),
            )
        going = ~done
        if not going.any():
            return stats, first
        points = 2 * points - 1
        if points > _GRID_MAX_POINTS:
            raise ResolutionError(
                f"posterior not resolved on {_GRID_MAX_POINTS} grid points: its "
                "mass falls into fewer than 3 cells or its variance has not "
                "converged; reduce half_width"
            )
        index, outcomes, log_w = index[going], _rows(outcomes, going), log_w[going]
        lo, hi = lo[going], hi[going]
        # each row steps by (hi - lo) / (points - 1), exactly half its old
        # step, so the even points of the finer grid are the old grid
        grid = _grids(lo, hi, points)
        finer = np.empty(grid.shape)
        finer[:, ::2] = log_w
        finer[:, 1::2] = _log_likelihoods(spec, outcomes, grid[:, 1::2])
        log_w = finer


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
    points = _grid_points(grid_points)
    center = mle(samples) if center is None else require_finite("center", center)
    if half_width is not None:
        half_width = require_positive("half_width", half_width)
    return _posteriors(
        samples.spec, samples.outcomes[None], np.array([center]), points, half_width
    )[1]


@dataclass(frozen=True, eq=False)
class TrialSummary:
    """Aggregates of a repeated-trial estimation study of the probe of width
    ``gamma`` and mean energy ``energy``.

    ``mles``, ``posterior_means``, ``posterior_variances`` and
    ``posterior_errors`` are per-trial values (the last three, and trial 0's
    grid ``first_posterior``, are None when the study skipped posteriors);
    ``posterior_errors`` holds each grid's ``variance_error``.
    ``mle_variance`` is the empirical variance of the estimates across
    trials (None for a single trial), and ``posterior_to_bound_ratio``
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
    posterior_errors: np.ndarray | None
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
    study is reproducible.  Trials run in blocks of consecutive indices, of
    _BLOCK_VALUES // max(n, grid_points) trials (at least one): each stage
    (drawing, the MLE, the posterior) runs over a whole block as
    (trials, N) and (trials, grid) arrays, and trial j's results are
    bit-identical to :func:`draw`, :func:`mle` and :func:`posterior` on its
    own stream.  Each trial's posterior is centered at its MLE: a window
    that widens until the log-likelihood falls 40 nats at both edges, on a
    grid that starts at ``grid_points`` and doubles, up to 65537 points,
    until its variance converges to 1e-12 relative.
    ``compute_posterior=False`` skips the posterior grids (useful for large
    estimator-variance studies where only the MLEs matter);
    ``uniform_sampling=True`` draws outcomes from the square-profile
    stand-in instead of the exact density.
    """
    spec, energy = _stated(alpha, energy)
    trials = require_int("trials", trials, 1)
    n = require_int("n", n, 1)
    chi = require_finite("chi", chi)
    sampler = _square_outcomes if uniform_sampling else _exact_outcomes
    if compute_posterior:
        points = _grid_points(grid_points)
        per_block = max(1, _BLOCK_VALUES // max(n, points))
        posteriors = np.empty((3, trials))
    else:
        per_block = max(1, _BLOCK_VALUES // n)
        posteriors = [None] * 3

    estimates = np.empty(trials)
    first_posterior = None
    for start in range(0, trials, per_block):
        block = slice(start, min(trials, start + per_block))
        streams = [RngStream(seed, j) for j in range(block.start, block.stop)]
        outcomes = sampler(spec, chi, n, streams)
        estimates[block] = _mles(spec, outcomes)
        if compute_posterior:
            posteriors[:, block], grid = _posteriors(spec, outcomes, estimates[block], points)
            if start == 0:
                first_posterior = grid

    post_means, post_vars, post_errors = posteriors
    bound = energy_bound(spec.alpha, energy, n)
    mean_post_var = float(post_vars.mean()) if compute_posterior else None
    return TrialSummary(
        alpha=spec.alpha,
        energy=energy,
        gamma=spec.gamma,
        repetitions=n,
        chi_true=chi,
        trials=trials,
        seed=int(seed),
        mles=estimates,
        posterior_means=post_means,
        posterior_variances=post_vars,
        posterior_errors=post_errors,
        mle_mean=float(estimates.mean()),
        mle_variance=float(estimates.var(ddof=1)) if trials > 1 else None,
        mean_posterior_variance=mean_post_var,
        energy_bound=bound,
        posterior_to_bound_ratio=mean_post_var / bound if compute_posterior else None,
        first_posterior=first_posterior,
    )
