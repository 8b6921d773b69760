"""The shared argument checks and the public entries that rely on them: every
bad argument raises DomainError, never a bare TypeError or ValueError, and
is never silently converted."""

import math

import numpy as np
import pytest

from qres.errors import DomainError, require_finite, require_int, require_positive
from qres.metrology import energy_bound
from qres.numerics import RngStream, integrate, sample_gamma
from qres.oscillator import HOBoundInput
from qres.probe import ProbeSpec, gamma_for_energy

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


# each of these was accepted, converted, or raised a bare TypeError/ValueError
PUBLIC_CASES = {
    "RngStream seed True": lambda: RngStream(True),
    "sample_gamma size 2.7": lambda: sample_gamma(0.5, RngStream(0), size=2.7),
    "sample_gamma size True": lambda: sample_gamma(0.5, RngStream(0), size=True),
    "integrate initial_panels 2.5": lambda: integrate(
        _integrand, 0.0, 1.0, initial_panels=2.5
    ),
    "integrate lo None": lambda: integrate(_integrand, None, 1.0),
    "integrate abs_tol -1": lambda: integrate(_integrand, 0.0, 1.0, abs_tol=-1.0),
    "gamma_for_energy None": lambda: gamma_for_energy(2, None),
    "ProbeSpec gamma 'x'": lambda: ProbeSpec(2, "x"),
    "energy_bound energy 'abc'": lambda: energy_bound(2, "abc", 3),
    "HOBoundInput omega None": lambda: HOBoundInput(None, 1.0, 1),
}


@pytest.mark.parametrize("case", sorted(PUBLIC_CASES))
def test_public_entries_raise_domain_error(case):
    with pytest.raises(DomainError):
        PUBLIC_CASES[case]()


@pytest.mark.parametrize("tolerance", ["rel_tol", "abs_tol"])
def test_nan_tolerance_is_rejected_before_any_evaluation(tolerance):
    calls = []

    def counting(x):
        calls.append(x.size)
        return x * x

    with pytest.raises(DomainError):
        integrate(counting, 0.0, 1.0, **{tolerance: math.nan})
    assert calls == []
