"""Tests for the harmonic-oscillator contrast models.

Oracles: direct substitution for the quadratic-in-omega bound, exact
Bernoulli algebra for the number-shift channel, and the free-particle
energy bound for the opposite-monotonicity contrast.
"""

import pytest

from qres.errors import DomainError, UnboundedInformationError
from qres.metrology import energy_bound
from qres.oscillator import (
    HOBoundInput,
    NumberShiftModel,
    ho_energy_bound,
    mean_number,
    number_shift_distribution,
    number_shift_fisher,
)


class TestHoEnergyBound:
    def test_substitution(self):
        assert ho_energy_bound(HOBoundInput(1.0, 1.0, 1)) == 0.25

    def test_doubling_energy_halves_the_bound(self):
        base = ho_energy_bound(HOBoundInput(1.0, 1.0, 4))
        assert ho_energy_bound(HOBoundInput(1.0, 2.0, 4)) == pytest.approx(
            base / 2.0, rel=1e-15
        )

    def test_quadratic_in_omega(self):
        values = [ho_energy_bound(HOBoundInput(w, 1.0, 1)) for w in (1.0, 2.0, 3.0)]
        assert values[1] == pytest.approx(4.0 * values[0], rel=1e-12)
        assert values[2] == pytest.approx(9.0 * values[0], rel=1e-12)

    def test_small_frequency_limit_vanishes_and_is_flagged(self):
        # as omega -> 0 the floor degenerates to zero and the input reports
        # the free-particle limit, where this bound stops constraining
        previous = float("inf")
        for omega in (1e-3, 1e-4, 1e-6):
            bound_input = HOBoundInput(omega, 1.0, 1)
            value = ho_energy_bound(bound_input)
            assert value < previous
            assert bound_input.free_particle_limit
            previous = value
        assert previous < 1e-12

    def test_large_dx_regime_flag(self):
        assert HOBoundInput(0.1, 1.0, 1).large_dx_regime
        assert not HOBoundInput(1.0, 1.0, 1).large_dx_regime
        # omega^2 under- and overflows a float here; the ratio does not need it
        assert HOBoundInput(1e-200, 1e200, 1).large_dx_regime
        assert not HOBoundInput(1e200, 1e-200, 1).large_dx_regime

    def test_validation(self):
        with pytest.raises(DomainError):
            HOBoundInput(0.0, 1.0, 1)
        with pytest.raises(DomainError):
            HOBoundInput(1.0, -1.0, 1)
        with pytest.raises(DomainError):
            HOBoundInput(1.0, 1.0, 0)


class TestOppositeEnergyMonotonicity:
    def test_contrast_between_the_two_schemes(self):
        # the oscillator floor falls with energy while the free-particle
        # floor rises with it, over a decade each way
        energies = [0.1, 1.0, 10.0]
        oscillator = [ho_energy_bound(HOBoundInput(1.0, e, 10)) for e in energies]
        free = [energy_bound(8, e, 10) for e in energies]
        assert oscillator == sorted(oscillator, reverse=True)
        assert free == sorted(free)


class TestNumberShiftModel:
    def test_identity_channel(self):
        dist = number_shift_distribution(NumberShiftModel(3, 0.0))
        assert dist.probabilities == (1.0, 0.0)
        assert dist.outcomes == (3, 4)

    def test_ground_level_shift_probability(self):
        dist = number_shift_distribution(NumberShiftModel(0, 0.01))
        assert dist.q == pytest.approx(0.01 / 1.01, rel=1e-12)
        assert dist.q_first_order == pytest.approx(0.01, rel=1e-15)

    def test_probabilities_sum_to_one_over_valid_rectangle(self):
        for n_level in (0, 1, 7, 50, 100):
            for chi in (1e-3, 0.03, 0.1):
                dist = number_shift_distribution(NumberShiftModel(n_level, chi))
                assert 0.0 <= dist.probabilities[0] <= 1.0
                assert 0.0 <= dist.probabilities[1] <= 1.0
                assert sum(dist.probabilities) == pytest.approx(1.0, abs=1e-15)

    def test_validation(self):
        with pytest.raises(DomainError):
            NumberShiftModel(-1, 0.01)
        with pytest.raises(DomainError):
            NumberShiftModel(0, 0.2)  # outside the small-signal regime
        with pytest.raises(DomainError):
            NumberShiftModel(0, -0.01)


class TestMeanNumber:
    def test_ground_level_conventions(self):
        model = NumberShiftModel(0, 0.01)
        assert mean_number(model, "normalized") == pytest.approx(
            0.01 / 1.01, rel=1e-12
        )
        assert mean_number(model, "first_order") == pytest.approx(0.01, rel=1e-15)

    def test_identity_channel_under_both_conventions(self):
        model = NumberShiftModel(5, 0.0)
        assert mean_number(model, "normalized") == 5.0
        assert mean_number(model, "first_order") == 5.0

    def test_excited_level_conventions_disagree(self):
        # normalized first-order mean shift is chi/(n+1), not chi
        model = NumberShiftModel(4, 0.05)
        normalized_shift = mean_number(model, "normalized") - 4.0
        assert normalized_shift == pytest.approx(0.01, rel=0.02)
        assert mean_number(model, "first_order") - 4.0 == pytest.approx(
            0.05, rel=1e-15
        )

    def test_unknown_convention(self):
        with pytest.raises(DomainError):
            mean_number(NumberShiftModel(0, 0.01), "bogus")


class TestNumberShiftFisher:
    def test_ground_level_approximation(self):
        fisher = number_shift_fisher(NumberShiftModel(0, 0.01))
        assert fisher.approx == pytest.approx(100.0, rel=1e-15)
        assert fisher.exact == pytest.approx(100.0, rel=0.03)

    def test_excited_level(self):
        fisher = number_shift_fisher(NumberShiftModel(9, 0.05))
        assert fisher.approx == pytest.approx(2.0, rel=1e-15)
        assert abs(fisher.exact - 2.0) / 2.0 < 0.10

    def test_leading_order_band(self):
        # |exact * chi (n+1) - 1| <= 2 chi across the valid rectangle
        for n_level in (0, 1, 3, 10, 100, 10**156):
            for chi in (1e-3, 0.01, 0.05, 0.1):
                fisher = number_shift_fisher(NumberShiftModel(n_level, chi))
                product = fisher.exact * chi * (n_level + 1)
                assert abs(product - 1.0) <= 2.0 * chi

    def test_crb_scales_with_level(self):
        # variance floor chi (n+1) / N: level 3 costs 4x level 0
        chi, n = 0.01, 5
        floor_0 = 1.0 / (n * number_shift_fisher(NumberShiftModel(0, chi)).approx)
        floor_3 = 1.0 / (n * number_shift_fisher(NumberShiftModel(3, chi)).approx)
        assert floor_3 == pytest.approx(4.0 * floor_0, rel=1e-12)
        assert floor_0 == pytest.approx(chi / n, rel=1e-15)

    def test_identity_point_is_rejected(self):
        with pytest.raises(UnboundedInformationError):
            number_shift_fisher(NumberShiftModel(0, 0.0))
