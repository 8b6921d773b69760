"""Tests for the Monte-Carlo simulation and estimation layer.

Oracles: distribution moments of the exact sampler, Gaussian conjugacy of
the posterior at alpha = 2, direct objective comparisons for the MLE,
scale and translation equivariance, outputs pinned before the estimator
rewrite, and the closed-form bounds for trial aggregates.
"""

import dataclasses
import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qres.errors import DomainError, ResolutionError
from qres.metrology import crb, fisher_closed
from qres.numerics import RngStream
from qres import simulate
from qres.probe import ProbeSpec, gamma_for_energy, mean_energy
from qres.simulate import (
    _LIKELIHOOD_BLOCK_CELLS,
    SampleSet,
    TrialSummary,
    _log_likelihood,
    draw,
    draw_uniform,
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
# j = 0, 1, 2 in turn, recorded before the sampler and the scaling in draw
# were rewritten.  Like the sample_gamma digests, they depend on numpy's
# transcendental kernels.
_DRAW_SHA256 = [
    (2, "8904663a2f3430f169457717f88e8860903d07c1dda2bec0b6d311f386949da3"),
    (20, "cad5c17fe6dd64b4615a3a189fac7f9249e18ae57587541e1036f63df613fc40"),
    (200, "7677213b22fe0cbc3da63d6f79ce59cad5a188d9986b864d480c8413380f0fd9"),
]


class TestDraw:
    @pytest.mark.parametrize("alpha,digest", _DRAW_SHA256)
    def test_bytes_match_the_pinned_digests(self, alpha, digest):
        h = hashlib.sha256()
        for j in range(3):
            samples = draw(ProbeSpec(alpha, 1.7), -0.3, 40_000, RngStream(2718, j))
            h.update(np.ascontiguousarray(samples.outcomes, dtype="<f8").tobytes())
        assert h.hexdigest() == digest

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

    def test_uniform_stand_in(self):
        spec = ProbeSpec(20, gamma_for_energy(20, 1.0 / 3.0))
        samples = draw_uniform(spec, 0.0, 10**5, RngStream(2, 0))
        assert np.abs(samples.outcomes).max() <= 1.0 + 1e-12
        assert samples.outcomes.var() == pytest.approx(1.0 / 3.0, abs=5e-3)

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
            grid = posterior(samples, center=estimate)
        assert abs(estimate - midrange) < 3.0 * sigma
        assert abs(grid.mean - midrange) < 3.0 * sigma


# Equivariance tolerance, relative to the probe width for locations and to
# the variance itself for posterior variances.  Measured errors stay below
# 5e-14.
_EQUIVARIANCE_RTOL = 1e-12


@settings(max_examples=100, derandomize=True, deadline=None)
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
        grids = [posterior(s, center=m) for s, m in zip(sets, estimates)]

    tol = _EQUIVARIANCE_RTOL * width
    assert abs(estimates[1] - c * estimates[0]) <= c * tol
    assert abs(estimates[2] - (estimates[0] + t)) <= tol
    assert abs(grids[1].mean - c * grids[0].mean) <= c * tol
    assert abs(grids[2].mean - (grids[0].mean + t)) <= tol
    rtol = _EQUIVARIANCE_RTOL
    assert grids[1].variance == pytest.approx(c * c * grids[0].variance, rel=rtol)
    assert grids[2].variance == pytest.approx(grids[0].variance, rel=rtol)


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
            _log_likelihood(samples, grid), direct, rtol=1e-12, atol=np.finfo(float).tiny
        )


class TestPosterior:
    def test_gaussian_conjugacy(self):
        # for alpha=2 the posterior is exactly Gaussian with variance
        # gamma^2 / (4 N)
        spec = ProbeSpec(2, 1.0)
        samples = draw(spec, 0.0, 20, RngStream(5, 0))
        grid = posterior(samples)
        assert grid.variance == pytest.approx(1.0 / 80.0, rel=1e-2)
        assert grid.mean == pytest.approx(samples.outcomes.mean(), abs=1e-7)
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

    def test_degenerate_grid_raises_resolution_error(self):
        spec = ProbeSpec(2, 1.0)
        samples = draw(spec, 0.0, 50, RngStream(8, 0))
        with pytest.raises(ResolutionError):
            posterior(samples, grid_points=101, half_width=1e6)

    def test_given_center_is_used_as_is(self):
        spec = ProbeSpec(6, 1.0)
        samples = draw(spec, 0.1, 40, RngStream(6, 1))
        own = posterior(samples)
        given_center = posterior(samples, center=mle(samples))
        assert np.array_equal(given_center.grid, own.grid)
        assert given_center.variance == own.variance
        with pytest.raises(DomainError):
            posterior(samples, center=float("nan"))

    def test_memory_does_not_grow_with_sample_count(self):
        # the grid x N likelihood matrix took 2001 * 1e4 * 8 B = 160 MB here
        samples = draw(ProbeSpec(2, 1.0), 0.0, 10**4, RngStream(4, 0))
        tracemalloc.start()
        try:
            posterior(samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

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

    def test_large_n_converges_at_the_rounding_of_the_likelihood(self):
        # the summed log-likelihood of 2e5 samples rounds at about 1e-11
        # relative, so a 1e-12 tolerance alone refined this grid to its cap
        samples = draw(ProbeSpec(2, 1.0), 0.0, 200_000, RngStream(4, 0))
        grid = posterior(samples)
        assert grid.grid.size == 101
        assert grid.variance == pytest.approx(1.0 / 800_000, rel=1e-10)

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
    # the study-posterior benchmark's shape: 200 posteriors at alpha=20, N=50
    spec = ProbeSpec(20, gamma_for_energy(20, 1.0 / 3.0))
    cells = {"grid": 0, "probe": 0}
    log_likelihoods = simulate._log_likelihoods

    def counting(spec, outcomes, grids):
        # window-edge probes take at most 3 points; grids take at least 100
        cells["probe" if grids.shape[1] <= 3 else "grid"] += grids.size * outcomes.shape[1]
        return log_likelihoods(spec, outcomes, grids)

    monkeypatch.setattr(simulate, "_log_likelihoods", counting)
    summary = run_trials(spec, None, 50, 0.2, 200, 7)
    monkeypatch.undo()
    final_cells = [
        posterior(draw(spec, 0.2, 50, RngStream(7, j)), center=summary.mles[j]).grid.size * 50
        for j in range(200)
    ]
    assert cells["grid"] == sum(final_cells)
    assert cells["grid"] + cells["probe"] <= 2001 * 50 * 200 / 4


def _same_bytes(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


# Blocks of 2 trials, so that 5 trials span three blocks, the last one short.
@pytest.mark.parametrize("grid_points", [101, 2001])
@pytest.mark.parametrize("uniform_sampling", [False, True])
@pytest.mark.parametrize("n", [1, 20, 50])
@pytest.mark.parametrize("alpha", [2, 4, 20, 200])
def test_trial_blocks_match_one_trial_at_a_time(
    alpha, n, uniform_sampling, grid_points, monkeypatch
):
    monkeypatch.setattr(simulate, "_BLOCK_VALUES", 2 * max(n, grid_points))
    spec = ProbeSpec(alpha, gamma_for_energy(alpha, 1.0 / 3.0))
    sampler = draw_uniform if uniform_sampling else draw
    summary = run_trials(
        spec, None, n, 0.2, 5, 11, grid_points=grid_points, uniform_sampling=uniform_sampling
    )
    for j in range(5):
        samples = sampler(spec, 0.2, n, RngStream(11, j))
        estimate = mle(samples)
        grid = posterior(samples, grid_points, center=estimate)
        assert _same_bytes(summary.mles[j], estimate)
        assert _same_bytes(summary.posterior_means[j], grid.mean)
        assert _same_bytes(summary.posterior_variances[j], grid.variance)
        assert _same_bytes(summary.posterior_errors[j], grid.variance_error)
        if j == 0:
            first = summary.first_posterior
            for name in ("grid", "log_weights", "mean", "variance", "map_estimate"):
                assert _same_bytes(getattr(first, name), getattr(grid, name)), name


# SHA-256 of the little-endian float64 bytes of mles, posterior_means and
# posterior_variances, in turn, recorded when run_trials ran one trial at a
# time.  Like the draw digests, they depend on numpy's transcendental and
# BLAS kernels; they also pin the MLE's score to one dot product per row.
_STUDY_SHA256 = [
    (
        dict(alpha=20, energy=1.0 / 3.0, n=50, chi=0.2, trials=12, seed=7),
        "0a868ec4af5d92fae22af520079ec1b0b5a8ee152501e932afd6562193c18779",
    ),
    (
        dict(alpha=200, energy=1.0 / 3.0, n=20, chi=0.2, trials=12, seed=7),
        "38ba32a2d46f0e5a657e23a7cc697150986d55c607a729cc441b09fdae8faa37",
    ),
    (
        dict(
            alpha=4, energy=1.0 / 3.0, n=10_000, chi=0.1, trials=3, seed=5, compute_posterior=False
        ),
        "d42a013e378ab8e2918bb6cd4daf22d65b104523b8404b83db1ad833b1cffd05",
    ),
]


@pytest.mark.parametrize("kwargs,digest", _STUDY_SHA256)
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

    def test_signal_location_does_not_change_estimator_statistics(self):
        at_zero = run_trials(4, 1.0 / 3.0, 30, 0.0, 300, 9, compute_posterior=False)
        at_shift = run_trials(4, 1.0 / 3.0, 30, 0.4, 300, 9, compute_posterior=False)
        assert at_shift.mle_variance == pytest.approx(at_zero.mle_variance, rel=1e-6)
        assert at_shift.mle_mean - at_zero.mle_mean == pytest.approx(0.4, abs=1e-6)

    def test_uniform_sampling_toggle(self):
        exact = run_trials(20, 1.0 / 3.0, 30, 0.0, 20, 3)
        square = run_trials(20, 1.0 / 3.0, 30, 0.0, 20, 3, uniform_sampling=True)
        assert not np.array_equal(exact.mles, square.mles)

    def test_trials_validation(self):
        with pytest.raises(DomainError):
            run_trials(2, 1.0, 10, 0.0, 0, 0)
        single = run_trials(2, 1.0, 10, 0.0, 1, 0)
        assert single.mles.shape == (1,)
        assert single.mle_variance is None
        assert single.mean_posterior_variance == single.posterior_variances[0]

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


# run_trials outputs recorded when the MLE was a golden-section search on
# sum |p - x|^alpha ("mles"), and the exact MLE of the same samples: the root
# of the score, solved in 60-digit arithmetic ("exact_mles").  Golden-section
# search cannot resolve the minimum closer than the objective's flat zone,
# about sqrt(machine epsilon) * width, so the old estimates sit up to 3.3e-9
# gamma from the exact ones.
_PINNED_STUDIES = {
    "study-posterior": (
        dict(alpha=20, energy=1.0 / 3.0, n=50, chi=0.2, trials=3, seed=7),
        {
            "mles": [0.22939992146124283, 0.24308157641857647, 0.1410781116093204],
            "exact_mles": [0.22939992104239, 0.2430815757723393, 0.14107811074655105],
            "posterior_means": [
                0.22953977344920903,
                0.24298266756001652,
                0.14092601422320591,
            ],
            "posterior_variances": [
                0.0011878180314821916,
                0.0006878641139435131,
                0.0006207508869584037,
            ],
        },
    ),
    "study-large-n": (
        dict(alpha=2, energy=1.0 / 3.0, n=10_000, chi=-0.3, trials=2, seed=9),
        {
            "mles": [-0.29861882425921704, -0.3018365314564576],
            "exact_mles": [-0.29861882808855245, -0.30183653513623737],
            "posterior_means": [-0.29861882808855233, -0.30183653513623737],
            "posterior_variances": [3.3333333333330706e-05, 3.3333333333331146e-05],
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
            "mles": [0.09722699718213976, 0.09894098723166742, 0.09674128191161782],
            "exact_mles": [0.097226998983057, 0.09894098645535178, 0.09674128157139548],
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
    # the old search's flat zone, not the new solve, sets this tolerance
    assert np.all(np.abs(summary.mles - pinned["mles"]) <= 1e-8 * gamma)
    for key in ("posterior_means", "posterior_variances"):
        if pinned[key] is None:
            assert getattr(summary, key) is None
        else:
            np.testing.assert_allclose(
                getattr(summary, key), pinned[key], rtol=1e-12, atol=0
            )
