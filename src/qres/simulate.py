"""Monte-Carlo measurement simulation and estimation.

A trial draws N momentum outcomes from the probe density shifted by the true
signal, computes the maximum-likelihood estimate once (the minimizer of
sum_j |p_j - x|^alpha, strictly convex for even alpha >= 2, found as the root
of its monotone score), and builds the Bayesian posterior of the signal under
a flat prior,

    posterior(x) ~ exp( -2 sum_j |(p_j - x) / gamma|^alpha ),

on a uniform grid over the window where the log-likelihood stays within 40
nats of its value at the estimate, doubled until the posterior variance
converges.  The grid is the window's coordinate u in [-1, 1], the same
points for every posterior, and its moments return to signal units once.
For even alpha the log-likelihood is a polynomial of degree alpha in x: at
alpha = 2 it is taken in closed form, and at alpha >= 4 a well-conditioned
row interpolates it from alpha + 1 direct sums at the Chebyshev points of
its window.  The direct sum over the samples, taken the same way at every
alpha, is the reference that both faster routes are tested against.
Repeated-trial studies compare the empirical estimator variance and the
mean posterior variance against the energy-constrained bound.

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
from itertools import islice

import numpy as np

from .errors import DomainError, ResolutionError
from .errors import require_finite, require_int
from .metrology import energy_bound, fisher_closed
from .numerics import RngStream, _stream_generators
from .numerics import sample_gamma  # noqa: F401  (perfbench/tracing.py wraps it)
from .probe import ProbeSpec, _stated

__all__ = [
    "PosteriorGrid",
    "SampleSet",
    "TrialSummary",
    "draw",
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
# posterior, whose mass falls into too few cells or whose variance does not
# settle.
_GRID_RTOL = 1e-12
_GRID_MAX_POINTS = 2**16 + 1

# The log-likelihood L summed directly over the samples, as at alpha >= 4
# off the Chebyshev route, carries a rounding error of order eps * |L| that
# no grid refines away.  Summed so at alpha = 2 and N = 1e6 it held the two
# variances up to 2.2 eps |L| apart on every grid up to 3201 points, and
# with _GRID_RTOL alone the grid ran to the cap; at alpha = 4 and N = 2e5 it
# does not settle within 401 points.  So the tolerance never falls below
# this multiple of |L| at the peak; |L| is about N / alpha, so that floor
# passes _GRID_RTOL only beyond N of about 560 alpha.  The closed form at
# alpha = 2 needs no floor: it settles on 101 points at N = 1e6 without one,
# and it drops the row constant of L, so its |L| at the peak is near 0.
# The Chebyshev route rounds less from cell to cell, since its nodes'
# rounding enters every cell through one polynomial: at alpha = 4 and
# N = 2e5 it settles within 201 points without the floor.
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

# Cells (trials x samples x grid points) per block of the direct likelihood
# sum, which posteriors take at alpha >= 4 off the Chebyshev route; alpha = 2
# takes a closed form and no blocks.  The two block buffers, 256 kB each
# whatever the sample count, are allocated once per call, so posterior
# memory is O(grid), not O(grid x N), and the passes over a block stay in a
# core's cache.
_LIKELIHOOD_BLOCK_CELLS = 2**15

# The Chebyshev route's bound on alpha eps kappa (see _chebyshev_rows).  Over
# 200 trials at each of 11 shapes from (alpha, N) = (4, 10) to (48, 400), a
# cell's error relative to the direct sum was at most 0.52 alpha eps kappa,
# so an admitted row's cells stay within about 5e-13 of it.  At the
# criterion-4 shape (alpha = 20, N = 50) the bound admits about 90% of rows.
_CHEBYSHEV_BOUND = 1e-12


@dataclass(frozen=True, eq=False)
class SampleSet:
    """N simulated momentum outcomes for a true signal, with RNG provenance.

    Regenerating with the same (spec, chi_true, n, seed, stream_index)
    reproduces ``outcomes`` bit-exactly.  ``spec`` must be a
    :class:`~qres.probe.ProbeSpec` and ``outcomes`` a non-empty 1-D float64
    array of finite values, else :class:`DomainError`.
    """

    spec: ProbeSpec
    chi_true: float
    outcomes: np.ndarray
    seed: int
    stream_index: int

    def __post_init__(self):
        if not isinstance(self.spec, ProbeSpec):
            raise DomainError(f"spec must be a ProbeSpec, got {self.spec!r}")
        outcomes = self.outcomes
        if not (
            isinstance(outcomes, np.ndarray)
            and outcomes.dtype == np.float64
            and outcomes.ndim == 1
            and outcomes.size
            and np.isfinite(outcomes).all()
        ):
            raise DomainError(
                "outcomes must be a non-empty 1-D float64 array of finite values, "
                f"got {outcomes!r}"
            )

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


def _exact_outcomes(spec: ProbeSpec, chi: float, n: int, generators, trials: int) -> np.ndarray:
    """``n`` outcomes from each of the next ``trials`` generators, one row
    per generator: see :func:`draw`."""
    w = np.empty((trials, n))
    if spec.alpha == 2:
        for row, generator in zip(w, generators):
            generator.standard_normal(out=row)
        w *= 0.5 * spec.gamma
        w += chi
        return w
    root = 1.0 / spec.alpha
    uniforms = np.empty((trials, n))
    for row, uniform_row, generator in zip(w, uniforms, generators):
        generator.standard_gamma(1.0 + root, out=row)
        generator.random(out=uniform_row)
    w **= root  # in place, so that a block's temporaries stay few
    # v = 2u - 1, exact: the factor U = |v| and the sign of v in one uniform
    uniforms *= 2.0
    uniforms -= 1.0
    w *= uniforms
    w *= spec.gamma * 2.0**-root
    w += chi
    return w


def draw(spec: ProbeSpec, chi: float, n: int, stream: RngStream) -> SampleSet:
    """Draw ``n`` independent outcomes from the density shifted by ``chi``.

    Exact sampling, by one of two routes.  At alpha = 2 the density
    exp(-2 ((p - chi) / gamma)^2) is the normal law N(chi, (gamma / 2)^2),
    so p = chi + (gamma / 2) Z with Z from the stream's generator's
    ``standard_normal``, one variate per outcome.

    At alpha >= 4, |p - chi| = gamma * 2^(-1/alpha) * g^(1/alpha) with
    g ~ Gamma(1/alpha) has the probe density, and so does
    gamma * 2^(-1/alpha) * W^(1/alpha) * U with W ~ Gamma(1 + 1/alpha) and U
    uniform, since g = W U^alpha in law.  The second form, the
    uniform-product form of the generalized Gaussian (Nardon & Pianca,
    J. Stat. Comput. Simul. 79:1317, 2009), is the one used: it takes the
    1/alpha root before anything can underflow, where g itself lies below
    the smallest float for 2.4% of draws at alpha = 200.  W comes from the
    stream's generator's ``standard_gamma``, then one uniform u per outcome
    gives v = 2u - 1, which is exact: U = |v| and the sign of p - chi is
    the sign of v.  The 2^53 values of u map to 2^52 equally spaced values
    of |v| on each sign, independent of it, so U keeps 52 random bits.

    The stream is consumed; to regenerate the same set, pass a fresh stream
    with the same (seed, stream_index).
    """
    n = require_int("n", n, 1)
    chi = require_finite("chi", chi)
    return SampleSet(
        spec=spec,
        chi_true=chi,
        outcomes=_exact_outcomes(spec, chi, n, [stream._generator], 1)[0],
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


def _log_likelihoods(spec: ProbeSpec, outcomes: np.ndarray, grids: np.ndarray) -> np.ndarray:
    """Unnormalized log-likelihoods of the signal, one row per trial: row t
    is -2 sum_j |(p_tj - x) / gamma|^alpha on the candidates ``grids[t]``
    given the samples ``outcomes[t]``.  This is the direct sum, the same
    at every alpha, which every faster route is tested against.

    The cells are summed a block at a time: whole trials while one trial's
    N x G cells fit in _LIKELIHOOD_BLOCK_CELLS, and blocks of one trial's
    samples beyond that.  Alpha is even, so each cell is the squared scaled
    residual raised to alpha/2 by binary powering.

    Residuals are scaled after the subtraction: dividing outcomes and grid
    by gamma first would lose digits wherever p_j - x is small against
    p_j."""
    trials, n = outcomes.shape
    inverse_gamma = 1.0 / spec.gamma
    size = grids.shape[1]
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
    # no copy when every row is active
    samples = outcomes if active.all() else outcomes[active]
    lo, hi = lo[active], hi[active]
    tol = _MLE_TOL_FACTOR * spec.gamma
    scale = 0.5 * (hi - lo)
    x = lo + scale
    half_step = scale  # half the last step; before the first, half the bracket
    # the step's arrays, allocated once per call: their leading rows serve
    # the rows still going, so no step allocates a (rows, N) array
    buffers = np.empty((3,) + samples.shape)
    for _ in range(_MLE_MAX_STEPS):
        r, weights, spare = buffers[:, : len(x)]
        np.subtract(samples, x[:, None], out=r)
        r /= scale[:, None]
        np.multiply(r, r, out=weights)
        _power_in_place(weights, alpha // 2 - 1, spare)
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
    score is taken by multiplication alone, as sum_j r_j w_j with the
    weights w_j = (r_j^2)^(alpha/2 - 1) raised by binary powering, which
    also give the Newton slope; alpha is even, so no float pow is needed.
    The residuals r_j = (p_j - x) / s are scaled by the sample half-range s,
    so the largest is O(1) and no power can overflow or underflow to a wrong
    root at any alpha or energy.  For alpha = 2 this is the sample mean; as
    alpha grows it approaches the midrange.  Raises :class:`ResolutionError`
    if the root is not found within 200 steps, rather than return an
    unconverged iterate.
    """
    return float(_mles(samples.spec, samples.outcomes[None])[0])


def _trapezoid(values: np.ndarray, du: float) -> np.ndarray:
    return du * (values.sum(axis=1) - 0.5 * (values[:, 0] + values[:, -1]))


def _moments(u: np.ndarray, weights: np.ndarray, du: float) -> tuple:
    """Trapezoid normalization, mean and variance of the unnormalized
    weights in each row, on the points ``u`` of step ``du``."""
    norm = _trapezoid(weights, du)
    density = weights / norm[:, None]
    mean = _trapezoid(u * density, du)
    return norm, mean, _trapezoid((u - mean[:, None]) ** 2 * density, du)


def _grid_points(grid_points) -> int:
    points = require_int("grid_points", grid_points, 101)
    if points % 2 == 0:
        raise DomainError(f"grid_points must be odd, got {grid_points!r}")
    return points


def _chebyshev_points(degree: int) -> np.ndarray:
    """The degree + 1 Chebyshev points of the second kind on [-1, 1] in
    increasing order, taken as sines so that they are symmetric and hold 0
    and +-1 exactly."""
    return np.sin(np.pi / (2 * degree) * np.arange(-degree, degree + 1, 2))


def _barycentric_matrix(degree: int, positions: np.ndarray) -> np.ndarray:
    """The (degree + 1, len(positions)) matrix that takes the values of a
    polynomial of that degree at :func:`_chebyshev_points` to its values at
    ``positions`` in [-1, 1]: the second (true) barycentric formula, with
    weights (-1)^k halved at both ends (Berrut & Trefethen, SIAM Rev.
    46:501, 2004).  A position on a node takes that node's value."""
    weights = np.ones(degree + 1)
    weights[1::2] = -1.0
    weights[[0, -1]] *= 0.5
    difference = positions - _chebyshev_points(degree)[:, None]
    on_node = difference == 0.0
    difference[on_node] = 1.0
    terms = weights[:, None] / difference
    matrix = terms / terms.sum(axis=0)
    hit = on_node.any(axis=0)
    matrix[:, hit] = on_node[:, hit]
    return matrix


def _chebyshev_rows(alpha: int, centre: np.ndarray, edges: np.ndarray, points: int) -> np.ndarray:
    """Which rows take the Chebyshev route, from each row's log-likelihood
    L at the centre and at its two final window edges, (trials, 2).

    L is concave with its peak at the centre, so |L| is smallest there and
    largest at an edge, and kappa = max|L| / |L(0)| bounds the ratio of the
    route's absolute error, about alpha eps max|L|, to any cell's |L|.  A
    row is admitted while alpha eps kappa <= _CHEBYSHEV_BOUND and the
    alpha + 1 nodes are at most half the (points - 1) grid steps.  One
    sample, or two at alpha = 20 (where L(0) is 0 or tiny), is refused, as
    is alpha >= 50 on 101 points."""
    if alpha == 2 or 2 * (alpha + 1) > points - 1:
        return np.zeros(len(centre), dtype=bool)
    # an infinite or NaN kappa compares False
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa = np.abs(edges).max(axis=1) / np.abs(centre)
    return alpha * np.finfo(float).eps * kappa <= _CHEBYSHEV_BOUND


def _row_likelihoods(spec: ProbeSpec, centred: np.ndarray):
    """The log-likelihood of the rows of a block as one function
    f(rows, grids), row ``rows[i]`` on ``grids[i]``, over a state built once
    per block.

    At alpha >= 4 the state is the samples, for :func:`_log_likelihoods`.
    At alpha = 2 it is each row's mean m, and the sum is taken in closed
    form about m, as -2 N ((x - m) / gamma)^2, so a row costs O(N + G)
    instead of O(N G).  That is the direct sum less its row constant
    -2 sum_j ((p_j - m) / gamma)^2, which cancels once the posterior
    subtracts each row's peak.  The mean is a row sum, whose bits do not
    depend on how many rows there are."""

    def take(array, rows):
        return array if rows.size == len(array) else array[rows]

    if spec.alpha != 2:
        return lambda rows, grids: _log_likelihoods(spec, take(centred, rows), grids)
    n = centred.shape[1]
    inverse_gamma = 1.0 / spec.gamma
    mean = centred.mean(axis=1, keepdims=True)

    def closed_form(rows, grids):
        cells = grids - take(mean, rows)
        cells *= inverse_gamma
        cells *= cells
        cells *= n
        return -2.0 * cells

    return closed_form


def _interpolated(values: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Each row's polynomial, given by its values at the
    :func:`_chebyshev_points`, at the points ``u`` of [-1, 1].  The product
    with the barycentric matrix is a batch of one-row products, so that a
    row's bits do not depend on how many rows there are."""
    matrix = _barycentric_matrix(values.shape[1] - 1, u)
    return np.matmul(values[:, None], matrix)[:, 0]


def _windows(spec: ProbeSpec, likelihood, trials: int, n: int) -> tuple:
    """Each row's posterior window, its middle and half-width as offsets from
    the centre of its samples, with its log-likelihood at the centre and at
    both final edges, (trials, 2): see :func:`posterior`.  ``likelihood`` is
    the block's :func:`_row_likelihoods`."""
    index = np.arange(trials)
    start = _GRID_SIGMAS / math.sqrt(n * fisher_closed(spec))
    offsets = np.repeat([[-start, start]], trials, axis=0)
    probes = likelihood(index, np.repeat([[0.0, -start, start]], trials, axis=0))
    floor, edges = probes[:, :1] - _WINDOW_DROP, probes[:, 1:]
    # a NaN edge compares False and stops widening its side; a row with
    # one shallow side probes both edges, the other one unmoved
    while (shallow := edges > floor).any():
        offsets[shallow] *= _WINDOW_GROWTH
        wider = shallow.any(axis=1)
        edges[wider] = likelihood(index[wider], offsets[wider])
    lo, hi = offsets[:, 0], offsets[:, 1]
    return 0.5 * (lo + hi), 0.5 * (hi - lo), probes[:, 0], edges


def _in_windows(middle: np.ndarray, half: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The points ``u`` of [-1, 1] in each window ``middle`` +- ``half``, as
    offsets from the centre, one row per window."""
    return middle[:, None] + half[:, None] * u


def _posteriors(spec: ProbeSpec, centred: np.ndarray, centers: np.ndarray, points: int) -> tuple:
    """Posterior of each row of samples around its ``centers`` entry, as
    :func:`posterior` builds it, given ``centred``, each row's samples less
    that entry: the rows' means, variances and variance errors stacked in a
    (3, trials) array, and row 0's grid.

    Each posterior is taken in its window's coordinate u of [-1, 1], so one
    grid and one step serve every row, and its mean and variance return to
    signal units once, at the end.  Rows start on ``points`` points, and
    those whose variance has not converged double together.  A row that
    :func:`_chebyshev_rows` admits evaluates the direct sum once, at the
    alpha + 1 Chebyshev points of its final window: even alpha makes L a
    polynomial of degree alpha, so those values fix it, and every grid
    point, the doubling rounds' midpoints too, follows from them by
    :func:`_interpolated`.  The window probes and the other rows take the
    direct sum at the points :func:`_in_windows` places.

    The windows are offsets from 0, and the centers are added back to the
    means and row 0's grid: formed in absolute coordinates, the grid and the
    residuals p_j - x round by an amount that grows with |chi|."""
    trials, n = centred.shape
    likelihood = _row_likelihoods(spec, centred)
    index = np.arange(trials)
    middle, half, centre, edges = _windows(spec, likelihood, trials, n)
    chebyshev = _chebyshev_rows(spec.alpha, centre, edges, points)

    def direct(rows, u):
        return likelihood(rows, _in_windows(middle[rows], half[rows], u))

    values = np.empty((trials, spec.alpha + 1))
    if chebyshev.any():
        values[chebyshev] = direct(index[chebyshev], _chebyshev_points(spec.alpha))

    def evaluate(rows, u):
        # the log-likelihood of ``rows`` at the points ``u`` of their windows
        route = chebyshev[rows]
        if not route.any():
            return direct(rows, u)
        out = np.empty((len(rows), len(u)))
        out[route] = _interpolated(values[rows[route]], u)
        if not route.all():
            out[~route] = direct(rows[~route], u)
        return out

    stats = np.empty((3, trials))
    u = np.linspace(-1.0, 1.0, points)
    log_w = evaluate(index, u)
    while True:
        du = 2.0 / (points - 1)
        peak = log_w.max(axis=1)
        weights = np.exp(log_w - peak[:, None])
        norm, mean, variance = _moments(u, weights, du)
        occupied = (weights / norm[:, None] * du > 1e-12).sum(axis=1) >= 3
        if not (variance[occupied] > 0.0).all():
            raise ResolutionError("degenerate posterior variance on this grid")
        # rows of fewer than 3 occupied cells divide by zero here and refine
        with np.errstate(divide="ignore", invalid="ignore"):
            coarse = _moments(u[::2], weights[:, ::2], 2.0 * du)[2]
            error = np.abs(coarse - variance) / variance
        done = occupied & (error <= np.maximum(_GRID_RTOL, _LIKELIHOOD_ROUNDING * np.abs(peak)))
        stats[:, index[done]] = mean[done], variance[done], error[done]
        if index[0] == 0 and done[0]:
            first_u, first_log_w = u, log_w[0] - peak[0] - math.log(norm[0] * half[0])
        going = ~done
        if not going.any():
            break
        points = 2 * points - 1
        if points > _GRID_MAX_POINTS:
            raise ResolutionError(
                f"posterior not resolved within the cap of {_GRID_MAX_POINTS} grid "
                "points: its mass falls into fewer than 3 cells or its variance "
                "has not converged"
            )
        index, log_w = index[going], log_w[going]
        # the step halves exactly: the finer grid's even points are the old grid
        u = np.linspace(-1.0, 1.0, points)
        finer = np.empty((len(index), points))
        finer[:, ::2] = log_w
        finer[:, 1::2] = evaluate(index, u[1::2])
        log_w = finer
    stats[0] = centers + (middle + half * stats[0])
    stats[1] *= half * half
    grid = centers[0] + _in_windows(middle[:1], half[:1], first_u)[0]
    return stats, PosteriorGrid(
        grid=grid,
        log_weights=first_log_w,
        mean=float(stats[0, 0]),
        variance=float(stats[1, 0]),
        map_estimate=float(grid[np.argmax(first_log_w)]),
        variance_error=float(stats[2, 0]),
    )


def posterior(samples: SampleSet, grid_points: int = 101) -> PosteriorGrid:
    """Signal posterior under a flat prior, on a uniform grid around the
    maximum-likelihood estimate :func:`mle`.

    The window starts at eight Cramer-Rao standard deviations, 8/sqrt(N F)
    with F the closed-form Fisher information, on each side of the estimate.
    Each side then widens by 1.5x until the log-likelihood at its edge lies
    at least 40 nats below its value at the estimate; the log-likelihood is
    concave, so the posterior beyond either edge is below e^-40 of its peak.
    The samples are centred on the estimate and the window is taken as
    offsets from it, so its rounding does not grow with the size of the
    signal.

    ``grid_points`` (odd, at least 101) is the starting and smallest grid,
    equally spaced in the window's coordinate u in [-1, 1]: the window of
    middle m and half-width h holds the points m + h u.  While the variance
    from every other point differs from the full grid's by more than 1e-12
    relative, the grid doubles and only the new midpoints are evaluated.  At
    large N the tolerance rises to 8 eps |L|, the rounding of the summed
    log-likelihood L at its peak, which no finer grid removes.  The density
    is normalized by the trapezoid rule in u; mean, variance and the maximum
    are computed from the normalized grid, not from a Gaussian fit, and the
    moments return to signal units as m + h mean_u and h^2 var_u.

    The log-likelihood L(x) = -2 sum_j |(p_j - x) / gamma|^alpha takes one
    of three routes.  The direct sum over the samples at each grid point is
    the reference, the same at every alpha, that the other two are tested
    against.  At alpha = 2 L is the closed form about the sample mean,
    less a constant of the row that the normalization removes, O(N + grid).
    At alpha >= 4 L is a polynomial of degree alpha, so its values at the
    alpha + 1 Chebyshev points of the second kind of the final window fix
    it, and every grid point, on the first grid and on each doubling,
    follows by barycentric interpolation, stable at those points (Berrut &
    Trefethen, SIAM Rev. 46:501, 2004): O(alpha N + alpha grid).
    That route's error is about alpha eps max|L| at any cell, where max|L|
    over the window is at an edge; relative to |L(0)|, the smallest |L|
    (at the estimate, where the concave L peaks), it measured at most about
    alpha eps kappa / 2 with kappa = max|L| / |L(0)|.  So a posterior takes
    it only where alpha eps kappa <= 1e-12 and the alpha + 1 nodes are at
    most half the grid's steps; otherwise, as for one sample, two samples at
    alpha = 20, or alpha >= 50 on 101 points, L is the direct sum over the
    samples at each grid point.  Both quantities are known from the window
    probes, which always take the direct sum.

    Raises :class:`ResolutionError` when the grid would pass 65537 points
    before the variance converges, or when the variance degenerates.
    """
    points = _grid_points(grid_points)
    center = mle(samples)
    centred = samples.outcomes[None] - center
    return _posteriors(samples.spec, centred, np.array([center]), points)[1]


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
) -> TrialSummary:
    """Run ``trials`` independent estimation experiments on one probe, stated
    as ``(alpha, energy)`` or as ``(ProbeSpec, None)``, and aggregate them.

    Trial j draws its samples from the stream (seed, stream_index=j), so the
    study is reproducible: one Philox generator is keyed per call and
    re-keyed in place for each trial j to the state ``RngStream(seed, j)``
    starts in, so trial j draws the same bytes as from that stream, without
    building it.  Trials run in blocks of consecutive indices, of
    _BLOCK_VALUES // max(n, grid_points) trials (at least one): each stage
    (drawing, the MLE, the posterior) runs over a whole block as
    (trials, N) and (trials, grid) arrays, and trial j's results are
    bit-identical to :func:`draw`, :func:`mle` and :func:`posterior` on its
    own stream.  Each trial's posterior is centered at its MLE: a window
    that widens until the log-likelihood falls 40 nats at both edges, on a
    grid that starts at ``grid_points`` and doubles, up to 65537 points,
    until its variance converges to 1e-12 relative.
    ``compute_posterior=False`` skips the posterior grids (useful for large
    estimator-variance studies where only the MLEs matter).
    """
    spec, energy = _stated(alpha, energy)
    trials = require_int("trials", trials, 1)
    n = require_int("n", n, 1)
    chi = require_finite("chi", chi)
    generators = _stream_generators(seed, range(trials))
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
        count = block.stop - block.start
        outcomes = _exact_outcomes(spec, chi, n, islice(generators, count), count)
        estimates[block] = _mles(spec, outcomes)
        if compute_posterior:
            outcomes -= estimates[block, None]  # in place: no other stage reads them
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
