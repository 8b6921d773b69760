"""Tests for the numerical kernel.

Oracles: the stdlib ``math.lgamma`` for log-gamma, analytic integrals for
quadrature, and distribution moments plus a Kolmogorov-Smirnov check (scipy)
for the gamma sampler.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from qres.errors import AccuracyError, DomainError
from qres.numerics import RngStream, integrate, log_gamma, sample_gamma


class TestLogGamma:
    def test_half_integer_and_factorial_values(self):
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), abs=1e-13)
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-13)
        assert log_gamma(6.0) == pytest.approx(math.log(120.0), abs=1e-12)

    def test_matches_stdlib_lgamma_over_working_range(self):
        xs = np.concatenate(
            [np.geomspace(1e-3, 200.0, 2000), np.linspace(0.01, 200.0, 2000)]
        )
        worst = max(abs(log_gamma(float(x)) - math.lgamma(float(x))) for x in xs)
        assert worst <= 1e-12

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.floats(min_value=0.01, max_value=100.0))
    def test_recurrence(self, x):
        assert log_gamma(x + 1.0) == pytest.approx(
            math.log(x) + log_gamma(x), abs=1e-12
        )

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_domain_errors(self, bad):
        with pytest.raises(DomainError):
            log_gamma(bad)


class TestIntegrate:
    def test_monomial(self):
        assert integrate(lambda x: x**2, 0.0, 1.0, 1e-12) == pytest.approx(
            1.0 / 3.0, rel=1e-12
        )

    def test_gaussian_integral(self):
        value = integrate(lambda x: np.exp(-x * x), -6.0, 6.0, 1e-12)
        assert value == pytest.approx(math.sqrt(math.pi), rel=1e-10)

    def test_linearity(self):
        f = lambda x: np.exp(-x * x)
        g = lambda x: x**4
        combined = integrate(lambda x: 3.0 * f(x) + 2.0 * g(x), -2.0, 2.0, 1e-11)
        separate = 3.0 * integrate(f, -2.0, 2.0, 1e-11) + 2.0 * integrate(
            g, -2.0, 2.0, 1e-11
        )
        assert combined == pytest.approx(separate, rel=1e-10)

    def test_odd_integrand_is_zero(self):
        # A relative test alone can never be met for an exactly-zero
        # integral; abs_tol exists for this case.
        value = integrate(lambda x: x * np.exp(-x * x), -5.0, 5.0, 1e-10, abs_tol=1e-12)
        assert abs(value) <= 1e-12

    def test_budget_exhaustion_carries_best_estimate(self):
        spike = lambda x: np.exp(-((1000.0 * x) ** 2))
        with pytest.raises(AccuracyError) as excinfo:
            integrate(spike, -1.0, 1.0, 1e-12, max_evals=60, initial_panels=1)
        err = excinfo.value
        assert err.best_estimate is not None
        assert err.error_estimate > 0.0

    def test_invalid_interval(self):
        with pytest.raises(DomainError):
            integrate(lambda x: x, 1.0, 0.0, 1e-8)
        with pytest.raises(DomainError):
            integrate(lambda x: x, 0.0, math.inf, 1e-8)


class TestRngStream:
    def test_identical_identifiers_reproduce_bit_exactly(self):
        a = RngStream(123, 7).uniforms(1000)
        b = RngStream(123, 7).uniforms(1000)
        assert np.array_equal(a, b)

    def test_distinct_stream_indices_differ(self):
        a = RngStream(123, 0).uniforms(1000)
        b = RngStream(123, 1).uniforms(1000)
        assert not np.array_equal(a, b)
        # and are uncorrelated to sampling accuracy
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.1

    def test_scalar_draw_advances_the_stream(self):
        s = RngStream(5, 0)
        assert s.uniforms() != s.uniforms()

    @pytest.mark.parametrize("seed,index", [(-1, 0), (2**64, 0), (0, -3), (1.5, 0)])
    def test_validation(self, seed, index):
        with pytest.raises(DomainError):
            RngStream(seed, index)


class TestSampleGamma:
    def test_exponential_mean(self):
        draws = sample_gamma(1.0, RngStream(42, 0), size=10**6)
        assert draws.mean() == pytest.approx(1.0, abs=5e-3)

    def test_half_shape_mean(self):
        draws = sample_gamma(0.5, RngStream(42, 1), size=10**6)
        assert draws.mean() == pytest.approx(0.5, abs=5e-3)

    def test_small_shape_second_moment(self):
        shape = 0.05
        draws = sample_gamma(shape, RngStream(42, 2), size=10**6)
        second = float((draws**2).mean())
        assert second == pytest.approx(shape * (shape + 1.0), rel=0.02)

    @pytest.mark.parametrize("shape", [1.5, 1.0, 0.5, 0.05])
    def test_kolmogorov_smirnov_against_scipy_cdf(self, shape):
        draws = sample_gamma(shape, RngStream(7, 3), size=10**5)
        result = stats.kstest(draws, "gamma", args=(shape,))
        assert result.pvalue > 0.01

    def test_bit_reproducible(self):
        a = sample_gamma(0.25, RngStream(9, 4), size=500)
        b = sample_gamma(0.25, RngStream(9, 4), size=500)
        assert np.array_equal(a, b)

    def test_nonnegative(self):
        draws = sample_gamma(0.05, RngStream(1, 0), size=10**4)
        assert np.all(draws >= 0.0)

    @pytest.mark.parametrize("bad", [0.0, -0.5, float("nan")])
    def test_domain_errors(self, bad):
        with pytest.raises(DomainError):
            sample_gamma(bad, RngStream(0, 0))
