"""Tests for the numerical kernel.

Oracles: the stdlib ``math.lgamma`` for log-gamma, analytic integrals for
quadrature, and distribution moments plus a Kolmogorov-Smirnov check (scipy)
for the gamma sampler.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from qres import numerics
from qres.errors import AccuracyError, DomainError
from qres.numerics import RngStream, _stream_generators, integrate, log_gamma, sample_gamma


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


def _policy(monkeypatch, **constants):
    """Run integrate at another policy: each keyword names one of the
    numerics constants _RTOL, _INITIAL_PANELS and _MAX_EVALS."""
    for name, value in constants.items():
        monkeypatch.setattr(numerics, name, value)


class TestIntegrate:
    def test_monomial(self):
        assert integrate(lambda x: x**2, 0.0, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_gaussian_integral(self):
        value = integrate(lambda x: np.exp(-x * x), -6.0, 6.0)
        assert value == pytest.approx(math.sqrt(math.pi), rel=1e-10)

    def test_linearity(self):
        f = lambda x: np.exp(-x * x)
        g = lambda x: x**4
        combined = integrate(lambda x: 3.0 * f(x) + 2.0 * g(x), -2.0, 2.0)
        separate = 3.0 * integrate(f, -2.0, 2.0) + 2.0 * integrate(g, -2.0, 2.0)
        assert combined == pytest.approx(separate, rel=1e-10)

    def test_odd_integrand_is_zero(self):
        # A relative test can never be met for an exactly-zero integral, so
        # the two half-line integrals, each 1/2 in magnitude, must cancel.
        f = lambda x: x * np.exp(-x * x)
        left, right = integrate(f, -5.0, 0.0), integrate(f, 0.0, 5.0)
        assert right == pytest.approx(0.5, rel=1e-10)
        assert abs(left + right) <= 1e-12

    def test_budget_exhaustion_carries_best_estimate(self, monkeypatch):
        _policy(monkeypatch, _RTOL=1e-12, _MAX_EVALS=60, _INITIAL_PANELS=1)
        spike = lambda x: np.exp(-((1000.0 * x) ** 2))
        with pytest.raises(AccuracyError) as excinfo:
            integrate(spike, -1.0, 1.0)
        err = excinfo.value
        assert err.best_estimate is not None
        assert err.error_estimate > 0.0

    @pytest.mark.parametrize("initial_panels", [1, 8])
    @pytest.mark.parametrize("max_evals", [120, 137, 500, 1000, 4321])
    def test_never_evaluates_beyond_the_budget(self, max_evals, initial_panels, monkeypatch):
        # a tolerance no budget here can meet
        _policy(monkeypatch, _RTOL=1e-300, _MAX_EVALS=max_evals, _INITIAL_PANELS=initial_panels)
        evaluated = []

        def spike(x):
            evaluated.append(x.size)
            return np.exp(-((1000.0 * x) ** 2))

        with pytest.raises(AccuracyError):
            integrate(spike, -1.0, 1.0)
        assert sum(evaluated) <= max_evals
        # the last round used what it could of the budget
        assert sum(evaluated) > max_evals - 30

    def test_invalid_interval(self):
        with pytest.raises(DomainError):
            integrate(lambda x: x, 1.0, 0.0)
        with pytest.raises(DomainError):
            integrate(lambda x: x, 0.0, math.inf)


# Runs of the heap-ordered loop that preceded the panel arrays: the result,
# or the AccuracyError payload, as float.hex; the panels per call of f; and a
# SHA-256 of the nodes handed to f, which pins the panels split in each round.
# Each run sets the policy constants it was pinned at.  The constant
# integrand gives every panel of one width the same error surrogate, so its
# splits follow the tie order (lower edge first).
_INTEGRATE_CASES = {
    "gaussian": (
        lambda x: np.exp(-x * x),
        -6.0,
        6.0,
        {"_RTOL": 1e-12, "_INITIAL_PANELS": 8},
    ),
    "kink": (
        lambda x: np.abs(x - 0.3) ** 1.5,
        -1.0,
        2.0,
        {"_RTOL": 1e-13, "_INITIAL_PANELS": 3},
    ),
    "spike over budget": (
        lambda x: np.exp(-((1000.0 * x) ** 2)),
        -1.0,
        1.0,
        {"_RTOL": 1e-12, "_MAX_EVALS": 600, "_INITIAL_PANELS": 1},
    ),
    "constant, tied errors": (
        np.ones_like,
        0.0,
        3.0,
        {"_RTOL": 1e-300, "_MAX_EVALS": 2000, "_INITIAL_PANELS": 5},
    ),
}
_INTEGRATE_PINS = {
    "gaussian": (
        ("0x1.c5bf891b4ef6ap+0",),
        [8, 2, 2, 2, 2],
        "b63ce0baca9ad1fdaa39fa3725c247114ded650db3918e0e0c34aea3ee4bbb5b",
    ),
    "kink": (
        ("0x1.239571c921de1p+1",),
        [3, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 4, 4, 4, 4],
        "235fba2849b040d35bb87640413ce563d5ac8b83795db1c302c33b40fabae0c7",
    ),
    "spike over budget": (
        ("0x1.d0a35e1bf00f1p-10", "0x1.14ddcfab3a580p-20"),
        [1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 4, 4],
        "681e8d298be674a1a678c3b69892f2ea616c24f83d08fea1622d17cb8df9d971",
    ),
    "constant, tied errors": (
        ("0x1.8000000000000p+1", "0x1.4000000000000p-51"),
        [5, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 4, 4, 4, 4, 6, 6, 6, 8, 8, 10, 10, 12, 14, 10],
        "ab703f5656ce1eaa8bb62c80d52d6a62523e029d801d22d30becba9090bac322",
    ),
}


@pytest.mark.parametrize("name", sorted(_INTEGRATE_CASES))
def test_integrate_matches_the_pinned_runs(name, monkeypatch):
    f, lo, hi, constants = _INTEGRATE_CASES[name]
    _policy(monkeypatch, **constants)
    batches, nodes = [], hashlib.sha256()

    def recording(x):
        batches.append(x.size // 15)
        nodes.update(np.ascontiguousarray(x, dtype="<f8").tobytes())
        return f(x)

    try:
        result = (integrate(recording, lo, hi).hex(),)
    except AccuracyError as err:
        result = (err.best_estimate.hex(), err.error_estimate.hex())
    assert (result, batches, nodes.hexdigest()) == _INTEGRATE_PINS[name]


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


class TestStreamGenerators:
    @pytest.mark.parametrize(
        "seed,index", [(0, 0), (5, 7), (2**64 - 1, 3), (42, 2**64 - 1)]
    )
    def test_a_rekeyed_generator_draws_the_bytes_of_a_fresh_stream(self, seed, index):
        generators = _stream_generators(seed, [12345, index])
        previous = next(generators)
        previous.random(3)
        # an odd count leaves a spare 32-bit half and a part-used buffer
        previous.integers(1000, size=5, dtype=np.uint32)
        state = previous.bit_generator.state
        assert state["has_uint32"] == 1 and state["buffer_pos"] < 4

        def draws(generator):
            return (
                generator.standard_gamma(1.05, size=7).tobytes(),
                generator.random(9).tobytes(),
                generator.integers(1000, size=3, dtype=np.uint32).tobytes(),
            )

        assert draws(next(generators)) == draws(RngStream(seed, index)._generator)


# SHA-256 of the little-endian float64 bytes of
# sample_gamma(shape, RngStream(2718, j), size=60_000) for j = 0, 1, 2 in
# turn, recorded on numpy 2.4.6.  They are the bytes of numpy's
# Generator.standard_gamma, whose stream numpy may change between releases,
# so another numpy build may need them recorded again.
_SAMPLE_GAMMA_SHA256 = [
    (1 / 200, "21fb052d201cf29f8b889fa46df4022085b3d118533f7676b2d6c1d0b2279707"),
    (1 / 20, "9cf824eeae275180199267e7c7ca8b0453d64b7ff7c4c10c77cbbbe23595e349"),
    (1 / 2, "a216908598340b6d2648a63e4cd3202476b830bb3f82ce9ce5f741f0225587c0"),
    (1.0, "dbf2d4995c9fce4fcb0675cee66cdaeb0631da1f3cd2ae98eaba04093dceae22"),
    (2.5, "9a0ba967aac77a4654b4a12f2b4d69748ce06856bcd9df5c8898f1d964f4e275"),
]


class TestSampleGamma:
    @pytest.mark.parametrize(
        "shape,digest", _SAMPLE_GAMMA_SHA256, ids=[str(shape) for shape, _ in _SAMPLE_GAMMA_SHA256]
    )
    def test_bytes_match_the_pinned_digests(self, shape, digest):
        h = hashlib.sha256()
        for j in range(3):
            draws = sample_gamma(shape, RngStream(2718, j), size=60_000)
            h.update(np.ascontiguousarray(draws, dtype="<f8").tobytes())
        assert h.hexdigest() == digest

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
