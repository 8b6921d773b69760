"""Tests for the generalized-Gaussian probe family.

Oracles: stdlib ``math.lgamma`` expressions for closed forms, quadrature of
the density for moments and normalization, and finite differences for the
wavefunction-derivative cross-check.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qres import probe
from qres.errors import DomainError
from qres.metrology import fisher_closed
from qres.numerics import integrate
from qres.probe import (
    ProbeSpec,
    absolute_moment,
    density,
    gamma_for_energy,
    log_density,
    mean_energy,
    position_variance,
    truncation_window,
    uncertainty_product,
)


class TestProbeSpec:
    @pytest.mark.parametrize("alpha", [2, 4, 20, 200])
    def test_valid_shapes(self, alpha):
        assert ProbeSpec(alpha, 1.0).alpha == alpha

    @pytest.mark.parametrize("alpha", [1, 3, 0, -2, 202, 2.0, True])
    def test_invalid_alpha(self, alpha):
        with pytest.raises(DomainError):
            ProbeSpec(alpha, 1.0)

    @pytest.mark.parametrize("gamma", [0.0, -1.0, float("nan"), float("inf")])
    def test_invalid_gamma(self, gamma):
        with pytest.raises(DomainError):
            ProbeSpec(2, gamma)


class TestDensity:
    def test_gaussian_peak_value(self):
        # prefactor at alpha=2, gamma=1 is sqrt(2/pi)
        assert density(ProbeSpec(2, 1.0), 0.0) == pytest.approx(
            math.sqrt(2.0 / math.pi), rel=1e-12
        )

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(
        alpha=st.sampled_from([2, 4, 10, 60]),
        gamma=st.floats(min_value=0.1, max_value=10.0),
        p=st.floats(min_value=-50.0, max_value=50.0),
    )
    def test_even_function(self, alpha, gamma, p):
        spec = ProbeSpec(alpha, gamma)
        assert density(spec, p) == density(spec, -p)

    def test_near_square_profile_at_large_alpha(self):
        # with the width fixed by mean energy 1/3 the profile approaches a
        # square of height ~1/2 on (-1, 1)
        spec = ProbeSpec(20, gamma_for_energy(20, 1.0 / 3.0))
        assert 0.45 <= density(spec, 0.0) <= 0.55

    @pytest.mark.parametrize("alpha", [2, 4, 20, 100])
    @pytest.mark.parametrize("gamma", [0.1, 1.0, 10.0])
    def test_normalization(self, alpha, gamma):
        spec = ProbeSpec(alpha, gamma)
        window = truncation_window(spec)
        total = integrate(lambda p: density(spec, p), -window, window)
        assert total == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("alpha", [2, 6, 40])
    def test_first_moment_vanishes(self, alpha):
        spec = ProbeSpec(alpha, 1.3)
        window = truncation_window(spec)
        # a relative test cannot be met for an exactly-zero integral, so the
        # integrals of p P(p) over the two half-lines must cancel
        first = lambda p: p * density(spec, p)
        left, right = integrate(first, -window, 0.0), integrate(first, 0.0, window)
        assert right == pytest.approx(absolute_moment(spec, 1) / 2.0, rel=1e-8)
        assert abs(left + right) <= 1e-10

    def test_log_density_matches_density(self):
        spec = ProbeSpec(8, 0.7)
        p = np.linspace(-1.5, 1.5, 11)
        np.testing.assert_allclose(np.exp(log_density(spec, p)), density(spec, p))

    def test_far_tail_is_zero_without_overflow(self):
        # graceful underflow to 0 is expected; overflow or invalid ops are not
        spec = ProbeSpec(2, 1.0)
        with np.errstate(over="raise", invalid="raise"):
            assert density(spec, 1e6) == 0.0
            assert density(spec, np.array([1e6, -1e8]))[1] == 0.0


class TestAbsoluteMoment:
    def test_zeroth_moment_is_one(self):
        assert absolute_moment(ProbeSpec(12, 3.0), 0) == 1.0

    def test_gaussian_second_moment(self):
        # Gaussian with variance gamma^2/4
        assert absolute_moment(ProbeSpec(2, 1.0), 2) == pytest.approx(0.25, rel=1e-12)

    @pytest.mark.parametrize("alpha", [2, 4, 20, 100])
    @pytest.mark.parametrize("k", [0, 2, 4])
    def test_closed_form_matches_quadrature(self, alpha, k):
        spec = ProbeSpec(alpha, 1.0)
        window = truncation_window(spec)
        numeric = integrate(lambda p: np.abs(p) ** k * density(spec, p), -window, window)
        assert absolute_moment(spec, k) == pytest.approx(numeric, rel=1e-8)

    def test_rejects_negative_order(self):
        with pytest.raises(DomainError):
            absolute_moment(ProbeSpec(2, 1.0), -1)


class TestMeanEnergyAndWidth:
    def test_gaussian_values(self):
        assert mean_energy(ProbeSpec(2, 1.0)) == pytest.approx(0.25, rel=1e-12)
        assert mean_energy(ProbeSpec(2, 2.0)) == pytest.approx(1.0, rel=1e-12)

    def test_width_inversion_gaussian(self):
        assert gamma_for_energy(2, 0.25) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("alpha", [2, 12, 22, 42, 62, 82, 100])
    @pytest.mark.parametrize("energy", [0.01, 1.0 / 3.0, 10.0])
    def test_round_trip(self, alpha, energy):
        spec = ProbeSpec(alpha, gamma_for_energy(alpha, energy))
        assert mean_energy(spec) == pytest.approx(energy, rel=1e-12)

    def test_width_for_third_energy_at_alpha_20(self):
        # independent oracle: bisection on the quadrature second moment
        alpha, energy = 20, 1.0 / 3.0

        def energy_of(width):
            spec = ProbeSpec(alpha, width)
            window = truncation_window(spec)
            return integrate(lambda p: p * p * density(spec, p), -window, window)

        lo, hi = 0.5, 2.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if energy_of(mid) < energy:
                lo = mid
            else:
                hi = mid
        assert gamma_for_energy(alpha, energy) == pytest.approx(
            0.5 * (lo + hi), rel=1e-9
        )

    def test_invalid_energy(self):
        with pytest.raises(DomainError):
            gamma_for_energy(4, -1.0)


class TestPositionVariance:
    def test_gaussian_minimum_uncertainty(self):
        # (Dx)^2 = 1/gamma^2 for the Gaussian probe at gamma=1
        assert position_variance(ProbeSpec(2, 1.0)) == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("alpha", [4, 20])
    def test_equals_quarter_fisher(self, alpha):
        spec = ProbeSpec(alpha, 1.0)
        assert position_variance(spec) == pytest.approx(
            fisher_closed(spec) / 4.0, rel=1e-6
        )

    def test_integrand_is_called_once_per_batch_of_panels(self, monkeypatch):
        calls = []
        inner = probe.integrate

        def counting_integrate(f, *args, **kwargs):
            def counted(x):
                calls.append(x.size)
                return f(x)

            return inner(counted, *args, **kwargs)

        monkeypatch.setattr(probe, "integrate", counting_integrate)
        spec = ProbeSpec(200, 1.0)
        assert position_variance(spec) == pytest.approx(
            fisher_closed(spec) / 4.0, rel=1e-6
        )
        # one call per subdivision round, not one per 15-node panel
        assert len(calls) <= 20
        assert sum(calls) > 20 * 15

    def test_analytic_derivative_against_finite_differences(self):
        # (psi')^2 from the analytic log-slope vs a central difference of
        # psi = sqrt(P) at step 1e-4; the analytic route is the
        # implementation, differencing is only this cross-check.
        spec = ProbeSpec(6, 1.1)
        h = 1e-4
        for p in (0.3, 0.7, 1.2):
            psi = lambda q: math.sqrt(density(spec, q))
            fd_sq = ((psi(p + h) - psi(p - h)) / (2.0 * h)) ** 2
            t = abs(p) / spec.gamma
            analytic_sq = (
                (spec.alpha / spec.gamma) ** 2
                * t ** (2 * spec.alpha - 2)
                * density(spec, p)
            )
            assert analytic_sq == pytest.approx(fd_sq, rel=1e-6)


class TestUncertaintyProduct:
    def test_gaussian_is_exactly_minimum_uncertainty(self):
        assert uncertainty_product(ProbeSpec(2, 0.37)) == 1.0

    def test_width_invariance(self):
        assert uncertainty_product(ProbeSpec(4, 0.5)) == uncertainty_product(
            ProbeSpec(4, 2.0)
        )

    def test_strictly_increasing_in_alpha(self):
        values = [uncertainty_product(ProbeSpec(a, 1.0)) for a in range(2, 42, 2)]
        assert values[0] == 1.0
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_matches_product_of_variances(self):
        spec = ProbeSpec(8, 1.7)
        product = 4.0 * position_variance(spec) * mean_energy(spec)
        assert uncertainty_product(spec) == pytest.approx(product, rel=1e-6)
