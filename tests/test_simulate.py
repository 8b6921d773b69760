"""Tests for the Monte-Carlo simulation and estimation layer.

Oracles: distribution moments of the exact sampler, Gaussian conjugacy of
the posterior at alpha = 2, direct objective comparisons for the MLE,
scale and translation equivariance, outputs pinned before the estimator
rewrite, and the closed-form bounds for trial aggregates.
"""

import dataclasses
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
from qres.probe import ProbeSpec, gamma_for_energy
from qres.simulate import SampleSet, draw, draw_uniform, mle, posterior, run_trials


def _grid_moment(grid, order):
    """Trapezoid moment of a PosteriorGrid about its mean."""
    dx = grid.grid[1] - grid.grid[0]
    values = (grid.grid - grid.mean) ** order * grid.density
    return dx * (values.sum() - 0.5 * (values[0] + values[-1]))


class TestDraw:
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


class TestRunTrials:
    def test_gaussian_estimator_variance_matches_energy_over_n(self):
        summary = run_trials(
            2, 1.0 / 3.0, 100, 0.0, 1500, 42, compute_posterior=False
        )
        assert summary.mle_variance == pytest.approx((1.0 / 3.0) / 100.0, rel=0.10)
        assert summary.posterior_variances is None
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
