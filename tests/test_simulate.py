"""Tests for the Monte-Carlo simulation and estimation layer.

Oracles: distribution moments and a Kolmogorov-Smirnov check of the exact
sampler, Gaussian conjugacy of the posterior at alpha = 2, direct objective
comparisons for the MLE, the direct likelihood sum for its Chebyshev route
and its alpha = 2 closed form, the two-sample midpoint identities and a
per-trial quadrature of the posterior's moments, scale and translation
equivariance, pinned outputs with MLEs solved in 60-digit arithmetic, and
the closed-form bounds for trial aggregates.
"""

import dataclasses
import hashlib
import math
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special, stats

from qres.errors import DomainError, ResolutionError
from qres.metrology import crb, fisher_closed
from qres.numerics import RngStream, integrate
from qres import numerics, simulate
from qres.probe import ProbeSpec, gamma_for_energy, mean_energy
from qres.simulate import (
    _LIKELIHOOD_BLOCK_CELLS,
    SampleSet,
    TrialSummary,
    _log_likelihoods,
    draw,
    mle,
    posterior,
    run_trials,
)


def _grid_moment(grid, order):
    """Trapezoid moment of a PosteriorGrid about its mean."""
    dx = grid.grid[1] - grid.grid[0]
    values = (grid.grid - grid.mean) ** order * grid.density
    return dx * (values.sum() - 0.5 * (values[0] + values[-1]))


# SHA-256 of the little-endian float64 bytes of
# draw(ProbeSpec(alpha, 1.7), -0.3, 40_000, RngStream(2718, j)).outcomes for
# j = 0, 1, 2 in turn, recorded on numpy 2.4.6.  Like the sample_gamma
# digests, they depend on numpy's standard_gamma stream and on its pow at
# alpha >= 4, and on its standard_normal stream at alpha = 2.
_DRAW_SHA256 = [
    (2, "5dd6440d15487aa0ce36f59232f4f6b688757853826ed91e6559efb413da7045"),
    (20, "4c836da69fe912a1d924e1d6cadc883600dde43f3ffc09b6d6c91d6251cfffb0"),
    (200, "e20375b03f5c7126656283e9513ff66fb458c0d76df32b0d363ee283aa4bd3aa"),
]


class TestDraw:
    @pytest.mark.parametrize(
        "alpha,digest", _DRAW_SHA256, ids=[str(alpha) for alpha, _ in _DRAW_SHA256]
    )
    def test_bytes_match_the_pinned_digests(self, alpha, digest):
        h = hashlib.sha256()
        for j in range(3):
            samples = draw(ProbeSpec(alpha, 1.7), -0.3, 40_000, RngStream(2718, j))
            h.update(np.ascontiguousarray(samples.outcomes, dtype="<f8").tobytes())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("alpha", [2, 4, 20, 50, 100, 200])
    def test_kolmogorov_smirnov_against_the_probe_cdf(self, alpha):
        # Rooting a Gamma(1/alpha) variate after it underflowed to 0 put 2.4%
        # of the draws exactly at chi at alpha = 200 (KS p ~ 1e-14).
        def cdf(x):
            # P(|p| <= |x|) = gammainc(1/alpha, 2|x|^alpha); that underflows
            # near 0 just as the draws did, so small arguments take its series
            t = 2.0 * np.abs(x) ** alpha
            series = 2.0 ** (1.0 / alpha) * np.abs(x) / math.gamma(1.0 + 1.0 / alpha)
            mass = np.where(t < 1e-30, series, special.gammainc(1.0 / alpha, t))
            return 0.5 + 0.5 * np.sign(x) * mass

        for seed in (5, 6, 7):
            outcomes = draw(ProbeSpec(alpha, 1.0), 0.0, 10**5, RngStream(seed, 0)).outcomes
            assert not np.any(outcomes == 0.0)
            assert stats.kstest(outcomes, cdf).pvalue > 1e-3

    def test_gaussian_variance(self):
        samples = draw(ProbeSpec(2, 1.0), 0.0, 10**6, RngStream(11, 0))
        assert samples.outcomes.var() == pytest.approx(0.25, abs=2e-3)

    def test_flat_probe_variance_matches_energy(self):
        spec = ProbeSpec(20, gamma_for_energy(20, 1.0 / 3.0))
        samples = draw(spec, 0.0, 10**6, RngStream(11, 1))
        # close to uniform on (-1, 1): variance 1/3, support barely wider
        assert samples.outcomes.var() == pytest.approx(1.0 / 3.0, abs=3e-3)
        assert np.abs(samples.outcomes).max() < 1.3

    def test_shift_is_exactly_elementwise(self):
        spec = ProbeSpec(4, 1.0)
        base = draw(spec, 0.0, 1000, RngStream(5, 2))
        shifted = draw(spec, 5.0, 1000, RngStream(5, 2))
        assert np.array_equal(shifted.outcomes, base.outcomes + 5.0)

    def test_bit_reproducible(self):
        spec = ProbeSpec(6, 0.7)
        a = draw(spec, 0.3, 257, RngStream(123, 9))
        b = draw(spec, 0.3, 257, RngStream(123, 9))
        assert np.array_equal(a.outcomes, b.outcomes)
        assert (a.seed, a.stream_index, a.n) == (123, 9, 257)

    def test_gaussian_route_is_one_normal_per_outcome(self):
        spec, chi, n = ProbeSpec(2, 1.7), -0.3, 1000
        for j in range(3):
            normals = RngStream(2718, j)._generator.standard_normal(n)
            expected = chi + 0.5 * spec.gamma * normals
            outcomes = draw(spec, chi, n, RngStream(2718, j)).outcomes
            assert outcomes.tobytes() == expected.tobytes()
        # no gamma variate or uniform is drawn: a generator without them serves
        normals_only = types.SimpleNamespace(
            standard_normal=RngStream(2718, 2)._generator.standard_normal
        )
        block = simulate._exact_outcomes(spec, chi, n, [normals_only], 1)
        assert block[0].tobytes() == outcomes.tobytes()

    def test_flat_route_is_one_gamma_and_one_uniform_per_outcome(self):
        spec, chi, n = ProbeSpec(20, 1.7), -0.3, 1000
        root = 1.0 / spec.alpha
        for j in range(3):
            generator = RngStream(2718, j)._generator
            w = generator.standard_gamma(1.0 + root, n)
            v = 2.0 * generator.random(n) - 1.0
            expected = (w**root * v) * (spec.gamma * 2.0**-root) + chi
            outcomes = draw(spec, chi, n, RngStream(2718, j)).outcomes
            assert outcomes.tobytes() == expected.tobytes()

    def test_validation(self):
        with pytest.raises(DomainError):
            draw(ProbeSpec(2, 1.0), 0.0, 0, RngStream(0, 0))
        with pytest.raises(DomainError):
            draw(ProbeSpec(2, 1.0), float("inf"), 5, RngStream(0, 0))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    half_alpha=st.integers(min_value=1, max_value=100),
    log10_gamma=st.floats(min_value=-30.0, max_value=30.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    stream_index=st.integers(min_value=0, max_value=2**32 - 1),
    log10_scale=st.floats(min_value=-3.0, max_value=3.0),
    shift=st.floats(min_value=-10.0, max_value=10.0),
)
def test_draw_scales_with_the_width(
    half_alpha, log10_gamma, seed, stream_index, log10_scale, shift
):
    alpha = 2 * half_alpha
    gamma = 10.0**log10_gamma
    c = 10.0**log10_scale
    chi = shift * c * gamma
    base = draw(ProbeSpec(alpha, gamma), 0.0, 200, RngStream(seed, stream_index))
    scaled = draw(ProbeSpec(alpha, c * gamma), chi, 200, RngStream(seed, stream_index))
    expected = chi + c * base.outcomes
    # a few roundings apart: the width enters the product in another place
    ulps = 4.0 * np.finfo(float).eps
    assert np.all(
        np.abs(scaled.outcomes - expected) <= ulps * (abs(chi) + np.abs(expected))
    )
    second_moment = np.mean((scaled.outcomes - chi) ** 2)
    assert second_moment == pytest.approx(
        c * c * np.mean(base.outcomes**2), rel=1e-12
    )


class TestMle:
    def test_gaussian_case_is_the_sample_mean(self):
        spec = ProbeSpec(2, 1.0)
        samples = draw(spec, 0.2, 200, RngStream(7, 0))
        assert mle(samples) == samples.outcomes.mean()

    def test_degenerate_samples(self):
        constant = SampleSet(
            spec=ProbeSpec(8, 1.0),
            chi_true=0.0,
            outcomes=np.full(4, 0.77),
            seed=1,
            stream_index=0,
        )
        assert mle(constant) == 0.77

    def test_flat_probe_estimate_is_near_the_midrange(self):
        spec = ProbeSpec(20, gamma_for_energy(20, 1.0 / 3.0))
        samples = draw(spec, 0.0, 50, RngStream(21, 0))
        outcomes = samples.outcomes
        estimate = mle(samples)

        def objective(x):
            return float(np.sum(np.abs(outcomes - x) ** 20))

        midrange = 0.5 * (outcomes.min() + outcomes.max())
        assert objective(estimate) <= objective(outcomes.mean())
        assert objective(estimate) <= objective(midrange)
        assert abs(estimate - midrange) < 0.05

    def test_shift_equivariance(self):
        spec = ProbeSpec(6, 1.0)
        base = draw(spec, 0.0, 100, RngStream(3, 4))
        shifted = draw(spec, 0.4, 100, RngStream(3, 4))
        # equivariant up to the search tolerance and the float rounding of
        # the elementwise shift
        assert mle(shifted) == pytest.approx(mle(base) + 0.4, abs=1e-8)

    @pytest.mark.parametrize("alpha", [4, 20, 200])
    def test_estimate_is_the_root_of_the_score_in_60_digits(self, alpha):
        mpmath = pytest.importorskip("mpmath")
        spec = ProbeSpec(alpha, gamma_for_energy(alpha, 1.0 / 3.0))
        for j in range(3):
            samples = draw(spec, 0.2, 50, RngStream(17, j))
            with mpmath.workdps(60):
                points = [mpmath.mpf(float(p)) for p in samples.outcomes]
                lo, hi = min(points), max(points)
                # the score sum_j (p_j - x)^(alpha - 1) decreases in x
                while hi - lo > 1e-15 * spec.gamma:
                    mid = (lo + hi) / 2
                    if mpmath.fsum((p - mid) ** (alpha - 1) for p in points) > 0:
                        lo = mid
                    else:
                        hi = mid
                root = float((lo + hi) / 2)
            assert abs(mle(samples) - root) <= 2e-10 * spec.gamma

    @pytest.mark.parametrize("energy", [1e4, 1e-4])
    def test_large_alpha_far_from_unit_width(self, energy):
        # unscaled, sum |p - x|^200 overflows at this energy (gamma ~ 174)
        # and underflows at the other (gamma ~ 0.017); either way the
        # estimate used to land tens of sigmas from the midrange
        spec = ProbeSpec(200, gamma_for_energy(200, energy))
        samples = draw(spec, 0.0, 50, RngStream(3, 0))
        sigma = math.sqrt(crb(fisher_closed(spec), 50))
        midrange = 0.5 * (samples.outcomes.min() + samples.outcomes.max())
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            estimate = mle(samples)
            grid = posterior(samples)
        assert abs(estimate - midrange) < 3.0 * sigma
        assert abs(grid.mean - midrange) < 3.0 * sigma


# Equivariance tolerance, relative to the probe width for locations and to
# the variance itself for posterior variances.  Measured errors stay below
# 5e-14.
_EQUIVARIANCE_RTOL = 1e-12


@settings(max_examples=100, derandomize=True, deadline=None)
# alpha = 2, which takes the likelihood's closed form, at both ends of the
# energy range, whatever the search draws
@example(half_alpha=1, log10_energy=-30.0, seed=0, log10_scale=-3.0, shift=-10.0)
@example(half_alpha=1, log10_energy=30.0, seed=1, log10_scale=3.0, shift=10.0)
@given(
    half_alpha=st.integers(min_value=1, max_value=100),
    log10_energy=st.floats(min_value=-30.0, max_value=30.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    log10_scale=st.floats(min_value=-3.0, max_value=3.0),
    shift=st.floats(min_value=-10.0, max_value=10.0),
)
def test_estimators_are_scale_and_translation_equivariant(
    half_alpha, log10_energy, seed, log10_scale, shift
):
    alpha = 2 * half_alpha
    spec = ProbeSpec(alpha, gamma_for_energy(alpha, 10.0**log10_energy))
    width = spec.gamma
    base = draw(spec, 0.0, 50, RngStream(seed, 0))
    c = 10.0**log10_scale
    t = shift * width
    scaled = dataclasses.replace(
        base, spec=ProbeSpec(alpha, c * width), outcomes=c * base.outcomes
    )
    shifted = dataclasses.replace(base, outcomes=base.outcomes + t)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sets = (base, scaled, shifted)
        estimates = [mle(s) for s in sets]
        grids = [posterior(s) for s in sets]

    tol = _EQUIVARIANCE_RTOL * width
    assert abs(estimates[1] - c * estimates[0]) <= c * tol
    assert abs(estimates[2] - (estimates[0] + t)) <= tol
    assert abs(grids[1].mean - c * grids[0].mean) <= c * tol
    assert abs(grids[2].mean - (grids[0].mean + t)) <= tol
    rtol = _EQUIVARIANCE_RTOL
    assert grids[1].variance == pytest.approx(c * c * grids[0].variance, rel=rtol)
    assert grids[2].variance == pytest.approx(grids[0].variance, rel=rtol)


@pytest.mark.parametrize("t", [1e4, 1e6, 1e8])
@pytest.mark.parametrize("alpha", [2, 20, 200])
def test_posterior_is_translation_equivariant_far_from_the_origin(alpha, t):
    # s + t and (s + t) - t hold the same information, since the second
    # subtraction is exact.  With the grid and the residuals formed in
    # absolute coordinates their rounding grew with |t|: the posterior raised
    # ResolutionError from t = 1e6 at alpha = 200 and at t = 1e8 at alpha = 2.
    spec = ProbeSpec(alpha, gamma_for_energy(alpha, 1.0 / 3.0))
    for j in range(10):
        base = draw(spec, 0.0, 50, RngStream(3, j))
        shifted = dataclasses.replace(base, outcomes=base.outcomes + t)
        back = dataclasses.replace(base, outcomes=shifted.outcomes - t)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            far, near = posterior(shifted), posterior(back)
        assert far.variance == pytest.approx(near.variance, rel=_EQUIVARIANCE_RTOL)
        # the estimates differ by the rounding of samples near t
        bound = _EQUIVARIANCE_RTOL * spec.gamma + 4.0 * np.spacing(t)
        assert abs(far.mean - (near.mean + t)) <= bound


@pytest.mark.parametrize("chi", [0.3, 25.0])
@pytest.mark.parametrize("alpha", [2, 4, 20, 100, 200])
def test_log_likelihood_matches_the_direct_sum(alpha, chi):
    spec = ProbeSpec(alpha, gamma_for_energy(alpha, 1.0 / 3.0))
    grid = np.linspace(chi - 1.5 * spec.gamma, chi + 1.5 * spec.gamma, 2001)
    rows = _LIKELIHOOD_BLOCK_CELLS // grid.size
    # one sample, and partial, whole and just-over blocks
    for n in (1, rows - 1, rows, rows + 1):
        samples = draw(spec, chi, n, RngStream(8, n))
        residuals = np.subtract.outer(samples.outcomes, grid) / spec.gamma
        direct = -2.0 * np.sum(np.abs(residuals) ** alpha, axis=0)
        # sums below the normal range carry no relative precision either way
        np.testing.assert_allclose(
            _log_likelihoods(spec, samples.outcomes[None], grid[None])[0],
            direct,
            rtol=1e-12,
            atol=np.finfo(float).tiny,
        )


def _centred_windows(alpha, n, trials, seed):
    """A block of trials centred on their MLEs, with each row's window,
    log-likelihood at the centre and at both edges, and admission to the
    Chebyshev route on 101 points, as the posterior builds them."""
    spec = ProbeSpec(alpha, gamma_for_energy(alpha, 1.0 / 3.0))
    outcomes = np.stack([draw(spec, 0.2, n, RngStream(seed, j)).outcomes for j in range(trials)])
    centred = outcomes - simulate._mles(spec, outcomes)[:, None]
    likelihood = simulate._row_likelihoods(spec, centred)
    lo, hi, centre, edges = simulate._windows(spec, likelihood, trials, n)
    admitted = simulate._chebyshev_rows(alpha, centre, edges, 101)
    return spec, centred, lo, hi, admitted


@pytest.mark.parametrize("alpha,n", [(4, 50), (8, 50), (20, 50), (20, 200)])
def test_chebyshev_route_matches_the_direct_sum(alpha, n):
    spec, centred, lo, hi, admitted = _centred_windows(alpha, n, 100, 3)
    # the criterion-4 shape (20, 50) admits about 90% of rows
    assert admitted.mean() >= 0.8
    centred, lo, hi = centred[admitted], lo[admitted], hi[admitted]
    values = _log_likelihoods(spec, centred, simulate._chebyshev_nodes(lo, hi, alpha))
    # the first grid, and the midpoints that its first doubling adds
    for grid, positions in (
        (simulate._grids(lo, hi, 101), np.linspace(-1.0, 1.0, 101)),
        (simulate._grids(lo, hi, 201)[:, 1::2], np.linspace(-1.0, 1.0, 201)[1::2]),
    ):
        np.testing.assert_allclose(
            simulate._interpolated(values, positions),
            _log_likelihoods(spec, centred, grid),
            rtol=1e-12,
            atol=0,
        )


@pytest.mark.parametrize("alpha,n", [(20, 1), (20, 2), (20, 10), (50, 400), (200, 50)])
def test_chebyshev_route_refuses_ill_conditioned_rows(alpha, n):
    # one sample puts L(0) at 0, two at alpha = 20 near it (kappa >= 2e7 over
    # 2000 trials) and ten still give kappa >= 3e3; alpha >= 50 needs more
    # nodes than half of the 100 steps of a 101-point grid
    admitted = _centred_windows(alpha, n, 200, 3)[-1]
    assert not admitted.any()


@pytest.mark.parametrize("degree", [4, 8, 20, 48])
def test_barycentric_matrix_reproduces_monomials(degree):
    # exact for every polynomial of its degree; in floats within
    # degree * eps, the route's error model with max |f| = 1 (measured
    # 4 eps at most)
    nodes = simulate._chebyshev_points(degree)
    assert (nodes[0], nodes[degree // 2], nodes[-1]) == (-1.0, 0.0, 1.0)
    assert np.array_equal(nodes, -nodes[::-1])
    for positions in (np.linspace(-1.0, 1.0, 101), np.linspace(-1.0, 1.0, 201)[1::2]):
        matrix = simulate._barycentric_matrix(degree, positions)
        for k in range(degree + 1):
            np.testing.assert_allclose(
                nodes**k @ matrix, positions**k, rtol=0, atol=degree * np.finfo(float).eps
            )


@pytest.mark.parametrize("alpha", [2, 4, 8, 20, 50, 200])
def test_two_sample_estimates_are_the_midpoint(alpha):
    # Two samples of a symmetric location family give a likelihood symmetric
    # about their midpoint, so the MLE and the posterior mean are that
    # midpoint exactly.  Per trial, on both likelihood routes: at alpha = 4
    # the Chebyshev route takes 224 of these rows.
    spec = ProbeSpec(alpha, gamma_for_energy(alpha, 1.0 / 3.0))
    chi, trials = 0.3, 1000
    summary = run_trials(spec, None, 2, chi, trials, 2026)
    outcomes = np.stack([draw(spec, chi, 2, RngStream(2026, j)).outcomes for j in range(trials)])
    midpoint = 0.5 * (outcomes[:, 0] + outcomes[:, 1])
    # Newton's first step from lo + (hi - lo) / 2 may move it by one rounding
    assert np.all(np.abs(summary.mles - midpoint) <= np.spacing(np.abs(outcomes).max(axis=1)))
    deviation = np.abs(summary.posterior_means - midpoint) / np.sqrt(summary.posterior_variances)
    assert deviation.max() <= 1e-12


@pytest.mark.parametrize("alpha", [2, 4, 20, 200])
def test_two_sample_mean_posterior_variance_is_half_the_energy(alpha):
    # By the Pitman identity the mean posterior variance is the risk of the
    # posterior mean, the midpoint, whose variance is Var(p) / 2 = E / 2.
    # At alpha = 2 every trial gives E / 2; otherwise the mean over the
    # trials must lie within 4 standard errors, with the seed, the trial
    # count and z fixed before the first run.
    spec = ProbeSpec(alpha, gamma_for_energy(alpha, 1.0 / 3.0))
    trials = 4000
    variances = run_trials(spec, None, 2, 0.0, trials, 2027).posterior_variances
    half = mean_energy(spec) / 2.0
    if alpha == 2:
        np.testing.assert_allclose(variances, half, rtol=simulate._GRID_RTOL, atol=0)
    else:
        z = (variances.mean() - half) / (variances.std(ddof=1) / math.sqrt(trials))
        assert abs(z) <= 4.0


@pytest.mark.parametrize("alpha", [4, 20, 200])
def test_posterior_moments_match_the_quadrature_reference(alpha):
    # Per trial, the posterior's mean and variance from integrate over
    # x^k prod_j f(p_j - x), with no grid and no window rule.  Here the
    # Chebyshev route takes all 10 trials at alpha = 4 and 9 at alpha = 20;
    # alpha = 200 takes the direct sum.
    spec = ProbeSpec(alpha, gamma_for_energy(alpha, 1.0 / 3.0))
    chi, trials, seed = 0.2, 10, 31
    summary = run_trials(spec, None, 50, chi, trials, seed)
    for j in range(trials):
        # offsets from the MLE, as the posterior takes them
        residuals = draw(spec, chi, 50, RngStream(seed, j)).outcomes - summary.mles[j]

        def log_likelihood(x):
            return -2.0 * np.sum(np.abs(np.subtract.outer(residuals, x) / spec.gamma) ** alpha, 0)

        peak = log_likelihood(np.zeros(1))[0]
        # past this reach the farthest sample alone puts L 40 nats below peak
        reach = spec.gamma * ((40.0 - peak) / 2.0) ** (1.0 / alpha)
        lo, hi = residuals.max() - reach, residuals.min() + reach

        def moment(weight):
            return integrate(lambda x: weight(x) * np.exp(log_likelihood(x) - peak), lo, hi)

        mass = moment(np.ones_like)
        # the weights stay positive, so each integral holds its 1e-8
        mean = lo + moment(lambda x: x - lo) / mass
        variance = moment(lambda x: (x - mean) ** 2) / mass
        assert abs(summary.posterior_means[j] - (summary.mles[j] + mean)) <= 1e-8 * (hi - lo)
        # a ratio of two integrals, each within 1e-8
        assert summary.posterior_variances[j] == pytest.approx(variance, rel=2e-8, abs=0)


@pytest.mark.parametrize("chi", [0.3, 25.0])
def test_gaussian_log_likelihood_is_the_closed_form_at_large_n(chi, monkeypatch):
    # the study-large-n benchmark's shape: N = 1e4 on a 101-point grid, whose
    # direct sum takes an 8 MB matrix
    spec = ProbeSpec(2, gamma_for_energy(2, 1.0 / 3.0))
    grid = np.linspace(chi - 1.5 * spec.gamma, chi + 1.5 * spec.gamma, 101)
    samples = draw(spec, chi, 10_000, RngStream(8, 10_000))
    one = np.arange(1)
    np.testing.assert_allclose(
        simulate._row_likelihoods(spec, samples.outcomes[None])(one, grid[None])[0],
        _log_likelihoods(spec, samples.outcomes[None], grid[None])[0],
        rtol=1e-12,
    )
    # a block of rows, as run_trials passes, gives each row its bits alone
    outcomes = np.stack([draw(spec, chi, 10_000, RngStream(8, j)).outcomes for j in range(3)])
    grids = np.repeat(grid[None], 3, axis=0)
    block = simulate._row_likelihoods(spec, outcomes)(np.arange(3), grids)
    for t in range(3):
        alone = simulate._row_likelihoods(spec, outcomes[t : t + 1])(one, grids[t : t + 1])[0]
        assert block[t].tobytes() == alone.tobytes()

    def refuse(*args):
        raise AssertionError("the alpha = 2 likelihood took the per-cell powers")

    monkeypatch.setattr(simulate, "_power_in_place", refuse)
    summary = run_trials(2, 1.0 / 3.0, 10_000, 0.0, 2, 9)
    np.testing.assert_allclose(
        summary.posterior_variances, (1.0 / 3.0) / 10_000, rtol=simulate._GRID_RTOL
    )


class TestPosterior:
    def test_gaussian_conjugacy(self):
        # for alpha=2 the posterior is exactly Gaussian with variance
        # gamma^2 / (4 N)
        spec = ProbeSpec(2, 1.0)
        samples = draw(spec, 0.0, 20, RngStream(5, 0))
        grid = posterior(samples)
        assert grid.variance == pytest.approx(1.0 / 80.0, rel=simulate._GRID_RTOL)
        assert grid.mean == pytest.approx(samples.outcomes.mean(), abs=1e-12)
        assert abs(_grid_moment(grid, 4) / grid.variance**2 - 3.0) < 1e-6

    def test_normalization(self):
        spec = ProbeSpec(20, gamma_for_energy(20, 1.0 / 3.0))
        samples = draw(spec, 0.0, 50, RngStream(5, 1))
        grid = posterior(samples)
        dx = grid.grid[1] - grid.grid[0]
        total = dx * (grid.density.sum() - 0.5 * (grid.density[0] + grid.density[-1]))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_map_matches_mle_to_grid_resolution(self):
        spec = ProbeSpec(4, 1.0)
        samples = draw(spec, 0.1, 40, RngStream(6, 0))
        grid = posterior(samples)
        spacing = grid.grid[1] - grid.grid[0]
        assert abs(grid.map_estimate - mle(samples)) <= spacing
        assert grid.grid[0] <= grid.map_estimate <= grid.grid[-1]

    def test_near_gaussian_shape_well_above_repetition_threshold(self):
        # excess kurtosis of the posterior stays below 0.2 once N is well
        # past the repetitions-required estimate (~33 at alpha=20)
        spec = ProbeSpec(20, gamma_for_energy(20, 1.0 / 3.0))
        for j in range(10):
            samples = draw(spec, 0.0, 200, RngStream(3, j))
            grid = posterior(samples)
            excess = _grid_moment(grid, 4) / grid.variance**2 - 3.0
            assert abs(excess) < 0.2

    def test_degenerate_grid_raises_resolution_error(self, monkeypatch):
        # this posterior converges only at 401 points
        monkeypatch.setattr(simulate, "_GRID_MAX_POINTS", 201)
        samples = draw(ProbeSpec(200, 1.0), 0.0, 20, RngStream(8, 0))
        with pytest.raises(ResolutionError, match="within the cap of 201 grid points"):
            posterior(samples)

    @pytest.mark.parametrize("alpha", [2, 4, 50])
    def test_memory_does_not_grow_with_sample_count(self, alpha, monkeypatch):
        # a grid x N likelihood matrix would take 101 * 1e4 * 8 B = 8 MB
        # here: alpha = 2 takes the closed form, alpha = 4 the Chebyshev
        # route, and alpha = 50, whose 51 nodes are refused on 101 points,
        # the block sums at every grid point
        admitted, cells = [], [0]
        log_likelihoods, chebyshev_rows = simulate._log_likelihoods, simulate._chebyshev_rows

        def counting(spec, outcomes, grids):
            cells[0] += grids.size * outcomes.shape[1]
            return log_likelihoods(spec, outcomes, grids)

        def recording(*args):
            admitted.append(chebyshev_rows(*args))
            return admitted[-1]

        monkeypatch.setattr(simulate, "_log_likelihoods", counting)
        monkeypatch.setattr(simulate, "_chebyshev_rows", recording)
        samples = draw(ProbeSpec(alpha, 1.0), 0.0, 10**4, RngStream(4, 0))
        tracemalloc.start()
        try:
            grid = posterior(samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        ((chebyshev,),) = admitted
        full = grid.grid.size * samples.n
        if alpha == 2:
            assert cells[0] == 0 and not chebyshev
        elif alpha == 4:
            assert 0 < cells[0] < full and chebyshev
        else:
            assert cells[0] >= full and not chebyshev

    @pytest.mark.parametrize("grid_points", [100, 99, 2000, 11])
    def test_grid_points_validation(self, grid_points):
        spec = ProbeSpec(2, 1.0)
        samples = draw(spec, 0.0, 5, RngStream(8, 1))
        with pytest.raises(DomainError):
            posterior(samples, grid_points=grid_points)

    def test_a_converged_starting_grid_is_kept(self):
        # the inputs of `qres simulate --posterior-out`, whose CSV keeps 2001 rows
        spec = ProbeSpec(4, gamma_for_energy(4, 0.5))
        samples = draw(spec, 0.0, 10, RngStream(1, 0))
        grid = posterior(samples, grid_points=2001)
        assert grid.grid.size == 2001
        assert grid.variance_error <= 1e-12

    def test_large_n_converges_at_the_rounding_of_the_likelihood(self, monkeypatch):
        # the log-likelihood of 2e5 samples, summed directly, rounds at about
        # 1e-11 relative, so a 1e-12 tolerance alone does not settle every
        # such grid; whether it binds varies from draw to draw, so the claim
        # is made over streams 0-4, fixed before the first run
        sets = [draw(ProbeSpec(4, 1.0), 0.0, 200_000, RngStream(4, j)) for j in range(5)]
        for samples in sets:
            grid = posterior(samples)
            assert grid.grid.size == 101
            assert grid.variance_error <= 1e-10
        monkeypatch.setattr(simulate, "_LIKELIHOOD_ROUNDING", 0.0)
        monkeypatch.setattr(simulate, "_GRID_MAX_POINTS", 401)
        # these posteriors take the Chebyshev route, whose cells round
        # together through one polynomial: it settles without the floor
        for samples in sets:
            assert posterior(samples).variance_error <= simulate._GRID_RTOL
        # the direct sum does not
        monkeypatch.setattr(simulate, "_CHEBYSHEV_BOUND", 0.0)
        raised = 0
        for samples in sets:
            try:
                posterior(samples)
            except ResolutionError as error:
                assert "within the cap of 401 grid points" in str(error)
                raised += 1
        assert raised >= 1

    def test_gaussian_large_n_converges_without_the_rounding_floor(self, monkeypatch):
        # per grid point the closed form adds one term to the constant S,
        # where the direct sum rounds at each of its 2e5 additions, so
        # _GRID_RTOL alone settles this grid
        monkeypatch.setattr(simulate, "_LIKELIHOOD_ROUNDING", 0.0)
        samples = draw(ProbeSpec(2, 1.0), 0.0, 200_000, RngStream(4, 0))
        grid = posterior(samples)
        assert grid.grid.size == 101
        assert grid.variance == pytest.approx(1.0 / 800_000, rel=1e-11)

    @pytest.mark.parametrize("n", [20, 50])
    @pytest.mark.parametrize("alpha", [100, 200])
    def test_window_holds_the_whole_posterior(self, alpha, n):
        # Unless N >> repetitions_required the posterior is wider than the
        # 8-sigma starting window; cut there, its variance was up to 68% low.
        spec = ProbeSpec(alpha, gamma_for_energy(alpha, 1.0 / 3.0))
        for j in range(10):
            samples = draw(spec, 0.0, n, RngStream(3, j))
            grid = posterior(samples)
            log_w = grid.log_weights
            assert max(log_w[0], log_w[-1]) <= log_w.max() - 40.0
            # reference: a direct-sum trapezoid on twice the window, 5x finer
            lo, hi = grid.grid[0], grid.grid[-1]
            middle, width = 0.5 * (lo + hi), hi - lo
            dense = np.linspace(middle - width, middle + width, 10 * (grid.grid.size - 1) + 1)
            residuals = np.subtract.outer(samples.outcomes, dense) / spec.gamma
            log_like = -2.0 * np.sum(np.abs(residuals) ** alpha, axis=0)
            weights = np.exp(log_like - log_like.max())
            mean = np.sum(dense * weights) / np.sum(weights)
            variance = np.sum((dense - mean) ** 2 * weights) / np.sum(weights)
            assert grid.variance == pytest.approx(variance, rel=1e-12, abs=0)


def test_posterior_grids_evaluate_each_likelihood_value_once(monkeypatch):
    # the study-posterior benchmark's shape: 200 posteriors at alpha=20, N=50.
    # A row on the Chebyshev route sums the likelihood directly at its 21
    # nodes and nowhere else; any other row at each point of its final grid.
    spec = ProbeSpec(20, gamma_for_energy(20, 1.0 / 3.0))
    cells = {"grid": 0, "probe": 0}
    admitted = []
    log_likelihoods, chebyshev_rows = simulate._log_likelihoods, simulate._chebyshev_rows

    def counting(spec, outcomes, grids):
        # window-edge probes take at most 3 points; nodes 21, grids at least 100
        cells["probe" if grids.shape[1] <= 3 else "grid"] += grids.size * outcomes.shape[1]
        return log_likelihoods(spec, outcomes, grids)

    def recording(*args):
        admitted.append(chebyshev_rows(*args))
        return admitted[-1]

    monkeypatch.setattr(simulate, "_log_likelihoods", counting)
    monkeypatch.setattr(simulate, "_chebyshev_rows", recording)
    run_trials(spec, None, 50, 0.2, 200, 7)
    monkeypatch.undo()
    (admitted,) = admitted  # one block
    final_points = [
        posterior(draw(spec, 0.2, 50, RngStream(7, j))).grid.size for j in range(200)
    ]
    assert cells["grid"] == 50 * np.where(admitted, 21, final_points).sum()
    assert admitted.mean() >= 0.8
    assert cells["grid"] + cells["probe"] <= 101 * 50 * 200 / 2


def _same_bytes(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


# Blocks of 2 trials, so that 5 trials span three blocks, the last one short;
# without posteriors a block holds _BLOCK_VALUES // n trials, and grid_points
# is unused.
@pytest.mark.parametrize("grid_points", [101, 2001])
@pytest.mark.parametrize("compute_posterior", [False, True])
@pytest.mark.parametrize("n", [1, 20, 50])
@pytest.mark.parametrize("alpha", [2, 4, 20, 200])
def test_trial_blocks_match_one_trial_at_a_time(
    alpha, n, compute_posterior, grid_points, monkeypatch
):
    values = max(n, grid_points) if compute_posterior else n
    monkeypatch.setattr(simulate, "_BLOCK_VALUES", 2 * values)
    spec = ProbeSpec(alpha, gamma_for_energy(alpha, 1.0 / 3.0))
    summary = run_trials(
        spec, None, n, 0.2, 5, 11, grid_points=grid_points, compute_posterior=compute_posterior
    )
    if not compute_posterior:
        assert summary.posterior_variances is None and summary.first_posterior is None
    for j in range(5):
        samples = draw(spec, 0.2, n, RngStream(11, j))
        assert _same_bytes(summary.mles[j], mle(samples))
        if not compute_posterior:
            continue
        grid = posterior(samples, grid_points)
        assert _same_bytes(summary.posterior_means[j], grid.mean)
        assert _same_bytes(summary.posterior_variances[j], grid.variance)
        assert _same_bytes(summary.posterior_errors[j], grid.variance_error)
        if j == 0:
            first = summary.first_posterior
            for name in ("grid", "log_weights", "mean", "variance", "map_estimate"):
                assert _same_bytes(getattr(first, name), getattr(grid, name)), name


# SHA-256 of the little-endian float64 bytes of mles, posterior_means and
# posterior_variances, in turn, recorded on numpy 2.4.6.  Like the draw
# digests, they depend on numpy's gamma sampler, transcendental and BLAS
# kernels; they also pin the MLE's score to one dot product per row.
_STUDY_SHA256 = [
    (
        dict(alpha=20, energy=1.0 / 3.0, n=50, chi=0.2, trials=12, seed=7),
        "620c76f3a8d97b32aec24f1bf5a92e9deb948d8e9dff0380bff352f39bd040a4",
    ),
    (
        dict(alpha=200, energy=1.0 / 3.0, n=20, chi=0.2, trials=12, seed=7),
        "bc3ba763dd4470b33b36280fde939e9438d1bd6683f51987d45afe24ff1ad0bc",
    ),
    (
        dict(alpha=2, energy=1.0 / 3.0, n=10_000, chi=-0.3, trials=2, seed=9),
        "a06f6a59d718028b591c7c577f70e21c0aa65bc3c99f9789e6997962df1f38fa",
    ),
    (
        dict(
            alpha=4, energy=1.0 / 3.0, n=10_000, chi=0.1, trials=3, seed=5, compute_posterior=False
        ),
        "e7b19066c51586c68e77456c21056f9fca2d06f58190fd3fe33435dc7ea4af63",
    ),
]


@pytest.mark.parametrize(
    "kwargs,digest",
    _STUDY_SHA256,
    ids=[f"alpha{kwargs['alpha']}-n{kwargs['n']}" for kwargs, _ in _STUDY_SHA256],
)
def test_study_bytes_match_the_pinned_digests(kwargs, digest):
    summary = run_trials(**kwargs)
    h = hashlib.sha256()
    for values in (summary.mles, summary.posterior_means, summary.posterior_variances):
        if values is not None:
            h.update(np.ascontiguousarray(values, dtype="<f8").tobytes())
    assert h.hexdigest() == digest


def test_study_blocks_hold_trials_up_to_the_block_size():
    # at the real block size: 200 trials of N=50 fill one block of 324, and
    # 7 trials of N=1e4 fill blocks of 3, 3 and 1
    for n, trials in ((50, 200), (10_000, 7)):
        spec = ProbeSpec(20, gamma_for_energy(20, 1.0 / 3.0))
        summary = run_trials(spec, None, n, 0.0, trials, 3, compute_posterior=n < 100)
        for j in (0, trials - 1):
            samples = draw(spec, 0.0, n, RngStream(3, j))
            assert _same_bytes(summary.mles[j], mle(samples))


@pytest.mark.parametrize("n,trials,blocks", [(50, 200, 1), (10_000, 7, 3)])
def test_a_study_keys_one_philox_generator(n, trials, blocks, monkeypatch):
    # building a Philox draws a SeedSequence from OS entropy, so a study keys
    # one and re-keys it for each trial
    built = []
    philox = np.random.Philox

    def counting(*args, **kwargs):
        built.append(args or kwargs)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)
    run_trials(20, 1.0 / 3.0, n, 0.0, trials, 3, compute_posterior=n < 100)
    assert math.ceil(trials / (simulate._BLOCK_VALUES // max(n, 101))) == blocks
    assert len(built) == 1


def test_a_study_checks_its_seed_once(monkeypatch):
    # the seed is checked when the generator is keyed; each trial's index is
    # written into the saved key, not checked again
    calls = []
    stream_key = numerics._stream_key

    def counting(*args):
        calls.append(args)
        return stream_key(*args)

    monkeypatch.setattr(numerics, "_stream_key", counting)
    run_trials(20, 1.0 / 3.0, 50, 0.0, 200, 3, compute_posterior=False)
    assert calls == [(3, 0)]


def test_an_unconverged_mle_raises(monkeypatch):
    spec = ProbeSpec(20, gamma_for_energy(20, 1.0 / 3.0))
    samples = draw(spec, 0.0, 50, RngStream(3, 0))
    monkeypatch.setattr(simulate, "_MLE_MAX_STEPS", 1)
    with pytest.raises(ResolutionError, match="not converged"):
        mle(samples)
    with pytest.raises(ResolutionError, match="not converged"):
        run_trials(spec, None, 50, 0.0, 3, 3, compute_posterior=False)
    # the closed forms take no steps: the Gaussian mean, a single distinct value
    gaussian = draw(ProbeSpec(2, 1.0), 0.0, 50, RngStream(3, 0))
    assert mle(gaussian) == gaussian.outcomes.mean()
    constant = dataclasses.replace(samples, outcomes=np.full(4, 0.5))
    assert mle(constant) == 0.5


class TestRunTrials:
    def test_gaussian_estimator_variance_matches_energy_over_n(self):
        summary = run_trials(
            2, 1.0 / 3.0, 100, 0.0, 1500, 42, compute_posterior=False
        )
        assert summary.mle_variance == pytest.approx((1.0 / 3.0) / 100.0, rel=0.10)
        assert summary.posterior_variances is None
        assert summary.first_posterior is None
        assert summary.posterior_to_bound_ratio is None

    def test_estimator_variance_respects_the_crb(self):
        # 1e4 trials keep the sampling noise of the variance ratio ~1.4%,
        # so the 0.9 slack only absorbs genuine finite-trial fluctuation
        summary = run_trials(4, 1.0 / 3.0, 50, 0.0, 10**4, 5, compute_posterior=False)
        floor = crb(fisher_closed(ProbeSpec(4, gamma_for_energy(4, 1.0 / 3.0))), 50)
        assert summary.mle_variance >= 0.9 * floor

    def test_flat_probe_posterior_aggregates(self):
        # at N=50 (~1.5x the repetitions-required estimate) the mean
        # posterior variance still sits visibly above the bound; it
        # approaches it as N grows (see test below)
        summary = run_trials(20, 1.0 / 3.0, 50, 0.0, 60, 11)
        assert summary.posterior_variances.shape == (60,)
        assert 1.0 <= summary.posterior_to_bound_ratio <= 1.9
        floor = crb(fisher_closed(ProbeSpec(20, gamma_for_energy(20, 1.0 / 3.0))), 50)
        assert summary.mle_variance >= 0.9 * floor

    def test_posterior_variance_approaches_bound_with_more_repetitions(self):
        loose = run_trials(20, 1.0 / 3.0, 50, 0.0, 40, 13)
        tight = run_trials(20, 1.0 / 3.0, 400, 0.0, 40, 13)
        ratio_50 = loose.mean_posterior_variance / loose.energy_bound
        ratio_400 = tight.mean_posterior_variance / tight.energy_bound
        assert ratio_400 < ratio_50
        assert ratio_400 == pytest.approx(1.0, abs=0.15)

    @pytest.mark.parametrize("alpha", [2, 4, 20, 100, 200])
    def test_one_sample_posterior_is_the_reflected_density(self, alpha):
        # with one outcome p the posterior of the signal x is P(p - x), whose
        # variance is the probe's momentum variance, the mean energy
        spec = ProbeSpec(alpha, gamma_for_energy(alpha, 1.0 / 3.0))
        summary = run_trials(spec, None, 1, 0.3, 20, 2026)
        np.testing.assert_allclose(
            summary.posterior_variances, mean_energy(spec), rtol=simulate._GRID_RTOL, atol=0.0
        )

    @pytest.mark.parametrize("alpha", [2, 20, 200])
    def test_posterior_mean_risk_is_the_mean_posterior_variance(self, alpha):
        # Under a flat prior E[(posterior mean - chi)^2] = E[posterior
        # variance] (the Pitman estimator's risk).  The paired differences
        # must average to zero within 4 standard errors; the seed, the
        # trial count and the bound were fixed before the first run.
        chi, trials = 0.3, 3000
        summary = run_trials(alpha, 1.0 / 3.0, 50, chi, trials, 2026)
        gaps = (summary.posterior_means - chi) ** 2 - summary.posterior_variances
        z = gaps.mean() / (gaps.std(ddof=1) / math.sqrt(trials))
        assert abs(z) <= 4.0

    def test_signal_location_does_not_change_estimator_statistics(self):
        at_zero = run_trials(4, 1.0 / 3.0, 30, 0.0, 300, 9, compute_posterior=False)
        at_shift = run_trials(4, 1.0 / 3.0, 30, 0.4, 300, 9, compute_posterior=False)
        assert at_shift.mle_variance == pytest.approx(at_zero.mle_variance, rel=1e-6)
        assert at_shift.mle_mean - at_zero.mle_mean == pytest.approx(0.4, abs=1e-6)

    def test_trials_validation(self):
        with pytest.raises(DomainError):
            run_trials(2, 1.0, 10, 0.0, 0, 0)
        single = run_trials(2, 1.0, 10, 0.0, 1, 0)
        assert single.mles.shape == (1,)
        assert single.mle_variance is None
        assert single.mean_posterior_variance == single.posterior_variances[0]

    @pytest.mark.parametrize("seed", [-1, 2**64, True, 1.5])
    def test_seed_is_checked_before_any_sampling(self, seed, monkeypatch):
        def sampler(*args):
            raise AssertionError("sampled before the seed was checked")

        monkeypatch.setattr(simulate, "_exact_outcomes", sampler)
        with pytest.raises(DomainError, match="seed"):
            run_trials(2, 1.0, 10, 0.0, 3, seed)

    def test_the_largest_seed_is_accepted(self):
        summary = run_trials(2, 1.0, 10, 0.0, 3, 2**64 - 1)
        assert summary.seed == 2**64 - 1
        samples = draw(ProbeSpec(2, 2.0), 0.0, 10, RngStream(2**64 - 1, 2))
        assert _same_bytes(summary.mles[2], mle(samples))

    def test_probe_spec_form_is_the_energy_form_where_the_round_trip_is_exact(self):
        spec = ProbeSpec(20, gamma_for_energy(20, 1.0 / 3.0))
        assert mean_energy(spec) == 1.0 / 3.0
        by_energy = run_trials(20, 1.0 / 3.0, 50, 0.2, 4, 7)
        by_spec = run_trials(spec, None, 50, 0.2, 4, 7)
        for field in dataclasses.fields(TrialSummary):
            if field.name != "first_posterior":
                a, b = getattr(by_spec, field.name), getattr(by_energy, field.name)
                assert np.array_equal(a, b), field.name
        first, first_by_energy = by_spec.first_posterior, by_energy.first_posterior
        for name in ("grid", "log_weights", "mean", "variance", "map_estimate"):
            assert np.array_equal(getattr(first, name), getattr(first_by_energy, name))
        assert (first.mean, first.variance) == (
            by_spec.posterior_means[0],
            by_spec.posterior_variances[0],
        )
        with pytest.raises(DomainError, match="not both"):
            run_trials(spec, 1.0 / 3.0, 50, 0.2, 4, 7)


# run_trials outputs recorded on numpy 2.4.6, with the exact MLE of the same
# samples: the root of the score, solved in 60-digit arithmetic
# ("exact_mles").
_PINNED_STUDIES = {
    "study-posterior": (
        dict(alpha=20, energy=1.0 / 3.0, n=50, chi=0.2, trials=3, seed=7),
        {
            "exact_mles": [0.19418705665314792, 0.21395232600077618, 0.19403266919233378],
            "posterior_means": [
                0.19395583061866187,
                0.2132860757115271,
                0.19379711821941248,
            ],
            "posterior_variances": [
                0.0007816141187642054,
                0.006920138961802036,
                0.0016045425189741274,
            ],
        },
    ),
    "study-large-n": (
        dict(alpha=2, energy=1.0 / 3.0, n=10_000, chi=-0.3, trials=2, seed=9),
        {
            "exact_mles": [-0.30264207894506195, -0.30545557619513813],
            "posterior_means": [-0.3026420789450618, -0.30545557619513813],
            "posterior_variances": [3.333333333333384e-05, 3.3333333333335185e-05],
        },
    ),
    "study-mle": (
        dict(
            alpha=20,
            energy=1.0 / 3.0,
            n=10_000,
            chi=0.1,
            trials=3,
            seed=5,
            compute_posterior=False,
        ),
        {
            "exact_mles": [0.09468064898200712, 0.10101705604223825, 0.10148880572775476],
            "posterior_means": None,
            "posterior_variances": None,
        },
    ),
}


@pytest.mark.parametrize("name", sorted(_PINNED_STUDIES))
def test_study_outputs_match_pinned_values(name):
    kwargs, pinned = _PINNED_STUDIES[name]
    summary = run_trials(**kwargs)
    if pinned["posterior_variances"] is None:
        assert summary.posterior_errors is None
    else:
        assert summary.posterior_errors.shape == (kwargs["trials"],)
        assert np.all(summary.posterior_errors <= 1e-12)
    gamma = gamma_for_energy(kwargs["alpha"], kwargs["energy"])
    assert np.all(np.abs(summary.mles - pinned["exact_mles"]) <= 2e-10 * gamma)
    for key in ("posterior_means", "posterior_variances"):
        if pinned[key] is None:
            assert getattr(summary, key) is None
        else:
            np.testing.assert_allclose(
                getattr(summary, key), pinned[key], rtol=1e-12, atol=0
            )
