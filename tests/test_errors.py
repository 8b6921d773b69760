"""The shared argument checks and the public entries that rely on them: every
bad argument raises DomainError, never a bare TypeError or ValueError, and
is never silently converted."""

import warnings

import numpy as np
import pytest

from qres.errors import DomainError, require_finite, require_int, require_positive
from qres.metrology import (
    bound_report,
    crb,
    energy_bound,
    energy_bound_approx,
    fisher_closed,
    fisher_numeric,
    scenario_chi_electric,
    scenario_chi_stern_gerlach,
)
from qres.numerics import RngStream, integrate, log_gamma, sample_gamma
from qres.oscillator import (
    HOBoundInput,
    NumberShiftModel,
    ho_energy_bound,
    number_shift_fisher,
)
from qres.probe import (
    ProbeSpec,
    absolute_moment,
    gamma_for_energy,
    mean_energy,
    position_variance,
)
from qres.simulate import SampleSet, mle

NAN, INF = float("nan"), float("inf")
REJECTED = DomainError

# (input, require_int(name, value, 1), require_finite, require_positive)
HELPER_CASES = [
    (True, REJECTED, 1.0, 1.0),
    (np.True_, REJECTED, 1.0, 1.0),
    (2.5, REJECTED, 2.5, 2.5),
    (np.int64(3), 3, 3.0, 3.0),
    (None, REJECTED, REJECTED, REJECTED),
    ("x", REJECTED, REJECTED, REJECTED),
    (NAN, REJECTED, REJECTED, REJECTED),
    (INF, REJECTED, REJECTED, REJECTED),
    (-INF, REJECTED, REJECTED, REJECTED),
    (0, REJECTED, 0.0, REJECTED),
    (-2, REJECTED, -2.0, REJECTED),
]


def _check(call, value, expected, result_type):
    if expected is REJECTED:
        with pytest.raises(DomainError) as info:
            call("arg", value)
        # the message names the argument and the value it got
        assert "arg" in str(info.value) and repr(value) in str(info.value)
    else:
        result = call("arg", value)
        assert type(result) is result_type and result == expected


@pytest.mark.parametrize("value, as_int, as_finite, as_positive", HELPER_CASES)
def test_helpers(value, as_int, as_finite, as_positive):
    _check(lambda name, v: require_int(name, v, 1), value, as_int, int)
    _check(require_finite, value, as_finite, float)
    _check(require_positive, value, as_positive, float)


def test_require_int_minimum_is_inclusive_and_optional():
    assert require_int("n", 0, 0) == 0
    assert require_int("n", -7) == -7
    with pytest.raises(DomainError, match=r"n must be an integer >= 0, got -1"):
        require_int("n", -1, 0)


def _integrand(x):
    return x * x


def _constant(value):
    return lambda x: np.full_like(x, value)


# (f, lo, hi, calls of f before the DomainError): each of these warned, spent
# the whole budget, or raised a bare ValueError or OverflowError
INTEGRATE_OVERFLOWS = {
    "integrate over [-1e308, 1e308]": (lambda x: np.exp(-x * x), -1e308, 1e308, 0),
    "integrate panel estimate 1e308 * 10": (_constant(1e308), 0.0, 10.0, 1),
    "integrate total 1e307 * 100": (_constant(1e307), 0.0, 100.0, 1),
}
INTEGRATE_NON_FINITE = {
    "integrate f nan": (_constant(NAN), 0.0, 1.0, 1),
    "integrate f -inf, inf": (lambda x: np.where(x < 0.0, -INF, INF), -1.0, 1.0, 1),
}


def _integrate_calls(cases):
    return {name: lambda c=case: integrate(*c[:3]) for name, case in cases.items()}


def _mle_of(outcomes):
    """mle of a hand-built SampleSet holding ``outcomes``."""
    return mle(SampleSet(ProbeSpec(20, 1.0), 0.0, outcomes, 0, 0))


# each of these was accepted, converted, or raised a bare TypeError/ValueError;
# mle returned nan for the set holding a nan, and for the one holding inf it
# let RuntimeWarnings through before a ResolutionError
PUBLIC_CASES = {
    "RngStream seed True": lambda: RngStream(True),
    "RngStream uniforms size -1": lambda: RngStream(0).uniforms(-1),
    "RngStream uniforms size 2.5": lambda: RngStream(0).uniforms(2.5),
    "RngStream uniforms size True": lambda: RngStream(0).uniforms(True),
    "sample_gamma size 2.7": lambda: sample_gamma(0.5, RngStream(0), size=2.7),
    "sample_gamma size True": lambda: sample_gamma(0.5, RngStream(0), size=True),
    "mle of outcomes [nan, 1]": lambda: _mle_of(np.array([NAN, 1.0])),
    "mle of outcomes [inf, 1]": lambda: _mle_of(np.array([INF, 1.0])),
    "mle of outcomes []": lambda: _mle_of(np.array([])),
    "mle of 2-D outcomes": lambda: _mle_of(np.ones((2, 3))),
    "SampleSet spec 20": lambda: SampleSet(20, 0.0, np.ones(3), 0, 0),
    "integrate lo None": lambda: integrate(_integrand, None, 1.0),
    "gamma_for_energy None": lambda: gamma_for_energy(2, None),
    "ProbeSpec gamma 'x'": lambda: ProbeSpec(2, "x"),
    "energy_bound energy 'abc'": lambda: energy_bound(2, "abc", 3),
    "HOBoundInput omega None": lambda: HOBoundInput(None, 1.0, 1),
    **_integrate_calls(INTEGRATE_NON_FINITE),
}


@pytest.mark.parametrize("case", sorted(PUBLIC_CASES))
def test_public_entries_raise_domain_error(case):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            PUBLIC_CASES[case]()


# each of these raised a bare OverflowError (an ArithmeticError) or returned
# inf
OVERFLOW_CASES = {
    "fisher_closed gamma 1e-200": lambda: fisher_closed(ProbeSpec(2, 1e-200)),
    "absolute_moment k 400": lambda: absolute_moment(ProbeSpec(2, 10.0), 400),
    "mean_energy gamma 1e200": lambda: mean_energy(ProbeSpec(2, 1e200)),
    "bound_report energy 1e-310": lambda: bound_report(2, 1e-310, 1),
    "log_gamma 1e306": lambda: log_gamma(1e306),
    "position_variance gamma 1e-200": lambda: position_variance(ProbeSpec(2, 1e-200)),
    "fisher_numeric gamma 1e-200": lambda: fisher_numeric(ProbeSpec(2, 1e-200)),
    "crb fisher 1e-320": lambda: crb(1e-320, 1),
    "energy_bound_approx energy 1e308": lambda: energy_bound_approx(2, 1e308, 1),
    "bound_report approx_bound at energy 1e308": lambda: bound_report(2, 1e308, 1),
    "scenario_chi_electric 1e200 * 1e200": lambda: scenario_chi_electric(
        1e200, 1e200, 1.0
    ),
    "scenario_chi_stern_gerlach 1e200 * 1e200": lambda: scenario_chi_stern_gerlach(
        1e200, 1e200, 1.0
    ),
    "number_shift_fisher chi 1e-320": lambda: number_shift_fisher(
        NumberShiftModel(0, 1e-320)
    ),
    "ho_energy_bound omega 1e200": lambda: ho_energy_bound(
        HOBoundInput(1e200, 1e-200, 1)
    ),
    "ho_energy_bound omega^2 / energy": lambda: ho_energy_bound(
        HOBoundInput(1e150, 1e-100, 1)
    ),
    "crb n 10**400": lambda: crb(1.0, 10**400),
    "energy_bound n 10**400": lambda: energy_bound(2, 1.0, 10**400),
    "ho_energy_bound repetitions 10**400": lambda: ho_energy_bound(
        HOBoundInput(1.0, 1.0, 10**400)
    ),
    "NumberShiftModel n_level 10**400": lambda: NumberShiftModel(10**400, 0.05),
    **_integrate_calls(INTEGRATE_OVERFLOWS),
}


@pytest.mark.parametrize("case", sorted(OVERFLOW_CASES))
def test_float_overflow_raises_domain_error(case):
    with pytest.raises(DomainError, match="overflows a float"):
        OVERFLOW_CASES[case]()


INTEGRATE_DEFECTS = {**INTEGRATE_OVERFLOWS, **INTEGRATE_NON_FINITE}


@pytest.mark.parametrize("case", sorted(INTEGRATE_DEFECTS))
def test_integrate_refuses_in_the_first_round_without_warning(case):
    f, lo, hi, batches = INTEGRATE_DEFECTS[case]
    calls = []

    def counting(x):
        calls.append(x.size)
        return f(x)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            integrate(counting, lo, hi)
    assert len(calls) == batches


def test_width_fits_where_energy_over_m2_would_overflow():
    # energy / m_2 = 4e308 is not a float, but the width 2e154 is
    assert gamma_for_energy(2, 1e308) == pytest.approx(2e154, rel=1e-15)
