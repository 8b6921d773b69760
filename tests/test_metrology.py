"""Tests for the resolution bounds.

Oracles: stdlib ``math.lgamma`` expressions evaluated inline, 50-digit mpmath
for every closed form of the probe family, the quadrature route against the
closed forms, and hand-checked special cases of the Gaussian probe.
"""

import hashlib
import math
import random
import time
import warnings
from math import lgamma

import numpy as np
import pytest

from qres import metrology, probe
from qres.errors import DomainError
from qres.metrology import (
    bound_report,
    crb,
    energy_bound,
    energy_bound_approx,
    error_propagation_bound,
    fisher_closed,
    fisher_numeric,
    normalized_bound,
    repetitions_required,
    scenario_chi_electric,
    scenario_chi_stern_gerlach,
)
from qres.probe import (
    ProbeSpec,
    absolute_moment,
    gamma_for_energy,
    mean_energy,
    position_variance,
    uncertainty_product,
)


def _stdlib_energy_bound(alpha, energy, n):
    """Eq-level oracle built only on math.lgamma."""
    return (
        energy
        / n
        * math.exp(
            2.0 * lgamma(1.0 / alpha)
            - 2.0 * math.log(alpha)
            - lgamma(2.0 - 1.0 / alpha)
            - lgamma(3.0 / alpha)
        )
    )


class TestFisher:
    def test_gaussian_location_fisher(self):
        # variance gamma^2/4 at alpha=2, so F = 4/gamma^2
        assert fisher_closed(ProbeSpec(2, 1.0)) == pytest.approx(4.0, rel=1e-12)
        assert fisher_closed(ProbeSpec(2, 2.0)) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("alpha", range(2, 202, 2))
    def test_numeric_agrees_with_closed_form(self, alpha):
        # both quadrature routes; the worst gap measured over the even alphas
        # was 8.0e-15 (fisher_numeric)
        spec = ProbeSpec(alpha, 1.0)
        closed = fisher_closed(spec)
        assert fisher_numeric(spec) == pytest.approx(closed, rel=1e-12)
        assert 4.0 * position_variance(spec) == pytest.approx(closed, rel=1e-12)

    def test_numeric_and_position_variance_integrate_different_integrands(self, monkeypatch):
        # fisher_numeric integrates the curvature |u|^(alpha - 2) P(u) and
        # position_variance the squared score |u|^(2 alpha - 2) P(u): on
        # the same nodes their ratio is |u|^-alpha, not a constant, so
        # criterion 1 compares two integrals, not one integral with itself
        integrands = []
        monkeypatch.setattr(probe, "integrate", lambda f, lo, hi: integrands.append(f) or 1.0)
        spec = ProbeSpec(20, 1.0)
        fisher_numeric(spec)
        position_variance(spec)
        nodes = np.linspace(0.5, 1.2, 8)
        curvature, score = (f(nodes.copy()) for f in integrands)
        np.testing.assert_allclose(score / curvature, nodes**20, rtol=1e-12)


class TestCrb:
    def test_values(self):
        assert crb(4.0, 1) == 0.25
        assert crb(4.0, 100) == pytest.approx(2.5e-3, rel=1e-15)
        # n * fisher overflows, the floor does not
        assert crb(1e308, 10) == 1e-309

    def test_matches_error_propagation_for_gaussian(self):
        energy = 1.0 / 3.0
        fisher = fisher_closed(ProbeSpec(2, gamma_for_energy(2, energy)))
        assert crb(fisher, 50) == pytest.approx(energy / 50.0, rel=1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            crb(-1.0, 10)
        with pytest.raises(DomainError):
            crb(4.0, 0)
        with pytest.raises(DomainError, match="crb underflows a float"):
            crb(1e308, 10**300)


class TestEnergyBound:
    def test_gaussian_reduces_to_energy_over_n_exactly(self):
        for energy, n in [(1.0 / 3.0, 50), (0.7, 3), (2.5, 1)]:
            assert energy_bound(2, energy, n) == error_propagation_bound(energy, n)

    def test_reference_point(self):
        value = energy_bound(20, 1.0 / 3.0, 50)
        assert value == pytest.approx(_stdlib_energy_bound(20, 1.0 / 3.0, 50), rel=1e-12)
        assert value == pytest.approx(1.03658e-3, rel=1e-4)

    def test_linear_in_energy(self):
        one = energy_bound(8, 1.0, 10)
        assert energy_bound(8, 2.0, 10) == pytest.approx(2.0 * one, rel=1e-12)

    def test_equals_crb_after_width_elimination(self):
        for alpha in (2, 6, 20, 60):
            energy = 0.4
            fisher = fisher_closed(ProbeSpec(alpha, gamma_for_energy(alpha, energy)))
            assert energy_bound(alpha, energy, 7) == pytest.approx(
                crb(fisher, 7), rel=1e-10
            )

    def test_uncertainty_product_decomposition(self):
        # bound = (energy/n) / (4 (Dx)^2 (Dp)^2): a larger uncertainty
        # product means a smaller bound
        for alpha in (2, 4, 20, 40):
            energy, n = 0.9, 13
            expected = (energy / n) / uncertainty_product(ProbeSpec(alpha, 1.0))
            assert energy_bound(alpha, energy, n) == pytest.approx(expected, rel=1e-10)

    def test_normalized_bound_depends_only_on_alpha(self):
        for alpha in (2, 10, 34):
            ratios = {
                round(energy_bound(alpha, e, n) * n / e, 14)
                for e in (0.1, 1.0, 10.0)
                for n in (1, 50)
            }
            assert len(ratios) == 1
            assert normalized_bound(alpha) == pytest.approx(
                ratios.pop(), rel=1e-10
            )

    def test_normalized_bound_strictly_decreasing(self):
        values = [normalized_bound(a) for a in range(2, 102, 2)]
        assert values[0] == 1.0
        assert all(b < a for a, b in zip(values, values[1:]))


class TestEnergyBoundApprox:
    def test_reference_point_is_exact(self):
        assert energy_bound_approx(20, 1.0 / 3.0, 50) == pytest.approx(1e-3, rel=1e-15)

    def test_small_alpha_quality(self):
        exact = energy_bound(4, 1.0, 1)
        approx = energy_bound_approx(4, 1.0, 1)
        assert abs(approx - exact) / exact < 0.05

    def test_gaussian_overshoot(self):
        # the one small-alpha failure point: approx/exact = 1.5 at alpha=2
        assert energy_bound_approx(2, 1.0, 1) / energy_bound(2, 1.0, 1) == pytest.approx(
            1.5, rel=1e-12
        )


class TestErrorPropagation:
    def test_value(self):
        assert error_propagation_bound(1.0 / 3.0, 50) == pytest.approx(
            6.666666666666667e-3, rel=1e-15
        )

    def test_exceeds_energy_bound_for_flat_probes(self):
        # the sample mean is not efficient away from the Gaussian case
        assert error_propagation_bound(1.0 / 3.0, 50) > energy_bound(20, 1.0 / 3.0, 50)


class TestRepetitionsRequired:
    def test_closed_form_matches_quadrature(self):
        # the worst gap measured over the even alphas was 4.3e-14
        for alpha in range(4, 202, 2):
            estimate = repetitions_required(alpha)
            assert estimate.quadrature == pytest.approx(
                estimate.closed_form, rel=1e-12
            )

    def test_stdlib_oracle(self):
        estimate = repetitions_required(20)
        oracle = 2.0 * math.exp(
            lgamma(2.0 - 3.0 / 20) + lgamma(1.0 / 20) - 2.0 * lgamma(1.0 - 1.0 / 20)
        ) - 2.0
        assert estimate.closed_form == pytest.approx(oracle, rel=1e-12)
        # tens of repetitions, same order as the 2*alpha rule of thumb
        assert 20.0 < estimate.closed_form < 40.0
        assert estimate.large_alpha == 40.0

    def test_rule_of_thumb_approached_from_below(self):
        ratios = [
            repetitions_required(a).closed_form / (2.0 * a) for a in (20, 40, 100)
        ]
        assert all(r < 1.0 for r in ratios)
        assert ratios == sorted(ratios)
        assert abs(ratios[-1] - 1.0) < 0.10

    def test_gaussian_is_closed_form_only_and_zero(self):
        estimate = repetitions_required(2)
        assert estimate.quadrature is None
        assert estimate.closed_form == pytest.approx(0.0, abs=1e-10)


# Quadrature outputs of the per-panel Gauss-Kronrod loop that preceded the
# batched one, at gamma_for_energy(alpha, energy):
# {(alpha, energy): (position_variance, fisher_numeric)} and
# {alpha: repetitions_required(alpha).quadrature}.
_PINNED_ROUTES = {
    (4, 1e-3): (342.709935783348, 1370.8397431333917),
    (4, 1.0): (0.34270993578334796, 1.3708397431333919),
    (4, 1e3): (0.00034270993578334764, 0.0013708397431333903),
    (20, 1e-3): (1607.8551099586298, 6431.420439834519),
    (20, 1.0): (1.60785510995863, 6.43142043983452),
    (20, 1e3): (0.0016078551099586293, 0.006431420439834517),
    (100, 1e-3): (8255.35242795028, 33021.409711801185),
    (100, 1.0): (8.255352427950323, 33.0214097118013),
    (100, 1e3): (0.0082553524279503, 0.03302140971180122),
    (200, 1e-3): (16586.04169116373, 66344.16676465496),
    (200, 1.0): (16.586041691163842, 66.34416676465534),
    (200, 1e3): (0.016586041691163844, 0.06634416676465536),
}
_PINNED_REPETITIONS = {
    4: 2.376879230452957,
    20: 32.610772520047114,
    100: 192.12959872919023,
    200: 392.06529481497074,
}


# Every closed form against 50-digit mpmath at every even alpha, built from
# the unit-width absolute moments m_k = 2^(-k/alpha) G((k+1)/alpha) / G(1/alpha).
_ORACLE_ENERGIES = (1e-3, 1.0 / 3.0, 0.5, 7.0, 1e3)
_ORACLE_REPETITIONS = 7
_ORACLE_ORDERS = (1, 3, 7)
_CLOSED_FORMS = (
    "absolute_moment",
    "mean_energy",
    "gamma_for_energy",
    "fisher_closed",
    "uncertainty_product",
    "normalized_bound",
    "energy_bound",
    "repetitions_closed",
)


def _closed_forms_against_mpmath(mp):
    """Yield (closed form, qres value, 50-digit value)."""
    for alpha in range(2, 202, 2):
        a = mp.mpf(alpha)

        def m(k):
            return mp.power(2, -k / a) * mp.gamma((k + 1) / a) / mp.gamma(1 / a)

        product = (2 * a) ** 2 * m(2) * m(2 * alpha - 2)
        yield "uncertainty_product", uncertainty_product(ProbeSpec(alpha, 1.0)), product
        yield "normalized_bound", normalized_bound(alpha), 1 / product
        repetitions = 2 * m(2 * alpha - 4) / m(alpha - 2) ** 2 - 2
        yield "repetitions_closed", metrology._repetitions_closed(alpha), repetitions
        for energy in _ORACLE_ENERGIES:
            e = mp.mpf(energy)
            yield "gamma_for_energy", gamma_for_energy(alpha, energy), mp.sqrt(e / m(2))
            yield (
                "energy_bound",
                energy_bound(alpha, energy, _ORACLE_REPETITIONS),
                e / _ORACLE_REPETITIONS / product,
            )
            spec = ProbeSpec(alpha, gamma_for_energy(alpha, energy))
            g = mp.mpf(spec.gamma)  # the float width, exactly
            yield "mean_energy", mean_energy(spec), g**2 * m(2)
            yield "fisher_closed", fisher_closed(spec), (2 * a / g) ** 2 * m(2 * alpha - 2)
            for k in _ORACLE_ORDERS:
                yield "absolute_moment", absolute_moment(spec, k), g**k * m(k)


@pytest.fixture(scope="module")
def worst_mpmath_errors():
    """Largest relative error of each closed form against mpmath (absolute
    where the exact value is 0: the repetitions at alpha = 2)."""
    mpmath = pytest.importorskip("mpmath")
    worst = dict.fromkeys(_CLOSED_FORMS, 0.0)
    with mpmath.workdps(50):
        for name, value, exact in _closed_forms_against_mpmath(mpmath):
            error = abs(value - exact) / abs(exact) if exact else abs(value)
            worst[name] = max(worst[name], float(error))
    return worst


@pytest.mark.parametrize("name", _CLOSED_FORMS)
def test_closed_form_within_1e_14_of_mpmath(worst_mpmath_errors, name):
    assert worst_mpmath_errors[name] <= 1e-14


class TestPinnedQuadratures:
    @pytest.mark.parametrize("alpha, energy", sorted(_PINNED_ROUTES))
    def test_position_variance_and_fisher_numeric(self, alpha, energy):
        spec = ProbeSpec(alpha, gamma_for_energy(alpha, energy))
        variance, fisher = _PINNED_ROUTES[alpha, energy]
        assert position_variance(spec) == pytest.approx(variance, rel=1e-12)
        assert fisher_numeric(spec) == pytest.approx(fisher, rel=1e-12)

    @pytest.mark.parametrize("alpha", sorted(_PINNED_REPETITIONS))
    def test_repetitions_quadrature(self, alpha):
        assert repetitions_required(alpha).quadrature == pytest.approx(
            _PINNED_REPETITIONS[alpha], rel=1e-12
        )


# Each route with the alphas it is taken at and its (integrand batches,
# evaluations) summed over those alphas; integrating the whole window took
# (332, 77700), (332, 77700) and (405, 87960), and fisher_numeric took
# (240, 65040) while it integrated the squared score.
_QUADRATURE_WORK = {
    "position_variance": (
        range(2, 202, 2),
        lambda a: position_variance(ProbeSpec(a, 1.0)),
        (240, 65040),
    ),
    "fisher_numeric": (
        range(2, 202, 2),
        lambda a: fisher_numeric(ProbeSpec(a, 1.0)),
        (221, 62520),
    ),
    "repetitions": (range(4, 202, 2), repetitions_required, (288, 71250)),
}


def test_every_quadrature_route_makes_one_call_at_one_policy(monkeypatch):
    # integrate takes no policy arguments: every route runs at its one policy,
    # one call per alpha over the half-window from 0, with the pinned work
    integrate = probe.integrate
    work, lows = [0, 0], []

    def recording(f, lo, hi):
        def counted(x):
            work[0] += 1
            work[1] += x.size
            return f(x)

        lows.append(lo)
        return integrate(counted, lo, hi)

    monkeypatch.setattr(probe, "integrate", recording)
    for alphas, route, expected in _QUADRATURE_WORK.values():
        work[:], lows[:] = [0, 0], []
        for alpha in alphas:
            route(alpha)
        assert tuple(work) == expected
        assert lows == [0.0] * len(alphas)


# SHA-256 of float.hex of every field of bound_report(alpha, energy, 50) and
# of fisher_numeric, for every even alpha at three energies, recorded from
# the heap-ordered quadrature loop and re-pinned when the alpha = 2 width and
# Fisher information became exact (only the alpha = 2 rows moved, each by a
# few ulp toward the exact value), again when each quadrature became twice
# the integral over its half-window (old and new agree within 7.1e-13), and
# again when fisher_numeric moved from the squared score at chi = 0.7 gamma
# to the curvature (the report fields kept their bits).  The pins above hold
# to 1e-12; this one holds bit for bit.  Like the sampler digests, it
# depends on numpy's exp and log.
_REPORT_ENERGIES = (1e-250, 1.0 / 3.0, 1e250)
_REPORT_SHA256 = "044649785b17439ee274e7cc76f981e707d14311068ec6765d68dd5a948196f9"


def test_reports_and_fisher_quadrature_match_the_pinned_digest():
    digest = hashlib.sha256()
    for alpha in range(2, 202, 2):
        for energy in _REPORT_ENERGIES:
            report = bound_report(alpha, energy, 50)
            spec = ProbeSpec(alpha, report.gamma)
            values = [*report.to_dict().values(), fisher_numeric(spec)]
            for value in values:
                text = value.hex() if isinstance(value, float) else str(value)
                digest.update(text.encode() + b",")
    assert digest.hexdigest() == _REPORT_SHA256


def test_gaussian_closed_forms_are_exact():
    # at alpha = 2: E = gamma^2 / 4, gamma = 2 sqrt(E), F = 4 / gamma^2, with
    # gamma^2 as gamma * gamma, the rounded square (pow(gamma, 2) is not
    # always rounded correctly)
    rng = random.Random(2)
    for _ in range(2000):
        gamma = 10.0 ** rng.uniform(-3.0, 3.0)
        energy = 10.0 ** rng.uniform(-3.0, 3.0)
        spec = ProbeSpec(2, gamma)
        assert mean_energy(spec) == gamma * gamma / 4
        assert fisher_closed(spec) == 4 / (gamma * gamma)
        assert gamma_for_energy(2, energy) == 2 * math.sqrt(energy)
    report = bound_report(ProbeSpec(2, 1.3), None, 50)
    assert report.energy_bound == report.crb


class TestScenarios:
    def test_electric(self):
        assert scenario_chi_electric(1.0, 1.0, 1.0) == 1.0
        assert scenario_chi_electric(2.0, 0.5, 3.0) == 3.0
        assert scenario_chi_electric(5.0, 0.0, 2.0) == 0.0

    def test_stern_gerlach(self):
        assert scenario_chi_stern_gerlach(1.0, 1.0, 1.0) == 1.0
        assert scenario_chi_stern_gerlach(-1.0, 2.0, 0.5) == -1.0
        assert scenario_chi_stern_gerlach(3.0, 2.0, 0.0) == 0.0

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            scenario_chi_electric(float("nan"), 1.0, 1.0)


class TestBoundReport:
    def test_gaussian_closure(self):
        report = bound_report(2, 1.0 / 3.0, 50)
        assert report.energy_bound == report.error_prop_bound
        assert report.energy_bound == pytest.approx(6.667e-3, rel=1e-3)
        assert report.uncertainty_product == 1.0

    def test_probe_spec_form_is_the_energy_form_where_the_round_trip_is_exact(self):
        spec = ProbeSpec(20, gamma_for_energy(20, 1.0 / 3.0))
        assert mean_energy(spec) == 1.0 / 3.0
        assert bound_report(spec, None, 50) == bound_report(20, 1.0 / 3.0, 50)
        with pytest.raises(DomainError, match="not both"):
            bound_report(spec, 1.0 / 3.0, 50)

    def test_reference_parameters(self):
        report = bound_report(20, 1.0 / 3.0, 50)
        assert report.approx_bound == pytest.approx(1e-3, rel=1e-15)
        assert report.crb == 1.0 / (report.repetitions * report.fisher)
        assert report.energy_bound == pytest.approx(report.crb, rel=1e-10)

    def test_efficiency_identity(self):
        report = bound_report(4, 1.0, 1)
        assert report.quantum_fisher == pytest.approx(report.fisher, rel=1e-6)

    @pytest.mark.parametrize("alpha, energy", [(4, 1e-308), (2, 1e-300), (200, 1e300)])
    def test_quadrature_route_holds_where_the_closed_form_fits(self, alpha, energy):
        # integrated at width gamma, the first raised a bare OverflowError, the
        # second an AccuracyError, and the third underflowed to 0.0
        report = bound_report(alpha, energy, 1)
        assert report.quantum_fisher / report.fisher == pytest.approx(1.0, rel=1e-6)

    def test_reports_the_closed_form_without_the_repetitions_quadrature(
        self, monkeypatch
    ):
        def no_quadrature(alpha):
            raise AssertionError("bound_report ran the repetitions quadrature")

        monkeypatch.setattr(metrology, "_repetitions_integral", no_quadrature)
        report = bound_report(20, 1.0 / 3.0, 50)
        monkeypatch.undo()
        assert report.n_required == repetitions_required(20).closed_form

    def test_to_dict_key_order(self):
        keys = list(bound_report(2, 1.0, 1).to_dict())
        assert keys == [
            "alpha",
            "gamma",
            "mean_energy",
            "repetitions",
            "fisher",
            "quantum_fisher",
            "crb",
            "energy_bound",
            "approx_bound",
            "error_prop_bound",
            "n_required",
            "uncertainty_product",
        ]


class TestEfficiencyIdentityGrid:
    def test_closed_equals_numeric_over_working_grid(self):
        start = time.monotonic()
        for alpha in (2, 4, 8, 20, 40, 100):
            for gamma in (0.5, 1.0, 2.0):
                spec = ProbeSpec(alpha, gamma)
                assert fisher_numeric(spec) == pytest.approx(
                    fisher_closed(spec), rel=1e-6
                )
        assert time.monotonic() - start < 5.0


def test_bound_report_at_every_energy():
    """Every even alpha at energies 10^k, k = -307..302 in steps of 7: each
    report is finite, with the quadrature route within 1e-6 of the closed
    form, or refused with DomainError where the closed-form Fisher
    information itself overflows a float; nothing warns or raises otherwise."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha in range(2, 202, 2):
            for k in range(-307, 303, 7):
                energy = 10.0**k
                try:
                    report = bound_report(alpha, energy, 1)
                except DomainError:
                    spec = ProbeSpec(alpha, gamma_for_energy(alpha, energy))
                    with pytest.raises(DomainError, match="overflows a float"):
                        fisher_closed(spec)
                    continue
                values = report.to_dict().values()
                assert all(math.isfinite(v) for v in values), (alpha, k)
                ratio = report.quantum_fisher / report.fisher
                assert abs(ratio - 1.0) <= 1e-6, (alpha, k, ratio)
