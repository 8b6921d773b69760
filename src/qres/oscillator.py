"""Harmonic-oscillator contrast cases.

Two companion models show how the free-particle scheme's energy behavior is
special:

* position-generated shifts read out through momentum, where the mean energy
  caps the position spread and yields the floor omega^2 / (4 N <H>) - a bound
  that *decreases* with energy, opposite to the free-particle scheme;
* number shifts on a Fock state, a two-outcome channel raising level n to
  n + 1 with amplitude sqrt(chi / (n + 1)), whose Fisher information
  1 / (chi (n + 1)) again puts the energy in the numerator of the variance
  floor.

The executable ground truth for the number-shift channel is the normalized
two-outcome distribution; the unnormalized first-order quantities are
reported alongside because the channel is specified only to first order in
the signal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import DomainError, UnboundedInformationError, finite_result
from .errors import require_finite, require_int, require_positive

__all__ = [
    "CHI_MAX",
    "HOBoundInput",
    "NumberShiftDistribution",
    "NumberShiftFisher",
    "NumberShiftModel",
    "ho_energy_bound",
    "mean_number",
    "number_shift_distribution",
    "number_shift_fisher",
]

# The number-shift channel is a first-order expansion in the signal; beyond
# this the neglected orders are no longer small.
CHI_MAX = 0.1

# "Much greater than 1" threshold for the large position-spread regime.
_LARGE_DX_MIN = 10.0

# Below omega = energy / 100 the oscillator is effectively a free particle
# over the relevant scales and the position-spread bound, though it still
# evaluates, has degenerated to ~0 and no longer constrains anything.
_FREE_PARTICLE_OMEGA_FRACTION = 0.01


@dataclass(frozen=True)
class HOBoundInput:
    """Oscillator frequency, mean probe energy and repetition count."""

    omega: float
    energy: float
    repetitions: int

    def __post_init__(self):
        for name in ("omega", "energy"):
            object.__setattr__(self, name, require_positive(name, getattr(self, name)))
        object.__setattr__(
            self, "repetitions", require_int("repetitions", self.repetitions, 1)
        )

    @property
    def large_dx_regime(self) -> bool:
        """True when energy/omega^2 >> 1, i.e. the position spread implied by
        the energy budget is large and the bound's derivation applies."""
        return self.energy / self.omega / self.omega > _LARGE_DX_MIN

    @property
    def free_particle_limit(self) -> bool:
        """True when omega is negligible against the energy scale: the bound
        tends to zero and the free-particle analysis (no energy-imposed
        floor) takes over."""
        return self.omega < _FREE_PARTICLE_OMEGA_FRACTION * self.energy


def ho_energy_bound(bound_input: HOBoundInput) -> float:
    """Variance floor omega^2 / (4 N <H>) for position-generated shifts on an
    oscillator probe.

    Decreases as the energy grows, in sharp contrast with the free-particle
    scheme where the floor is proportional to the energy.  Check
    ``bound_input.large_dx_regime`` and ``bound_input.free_particle_limit``
    before leaning on the value.
    """
    omega = bound_input.omega
    bound = omega * omega / (4.0 * bound_input.repetitions * bound_input.energy)
    return finite_result("ho_energy_bound", bound)


@dataclass(frozen=True)
class NumberShiftModel:
    """The two-outcome number-shift channel on Fock level ``n_level``.

    Valid for small signals: 0 <= chi <= CHI_MAX and chi/(n_level + 1) < 1 so
    the shift probability is a genuine Bernoulli parameter.  chi = 0 is the
    identity channel (allowed here; the Fisher information is undefined
    there and :func:`number_shift_fisher` rejects it).
    """

    n_level: int
    chi: float

    def __post_init__(self):
        object.__setattr__(self, "n_level", require_int("n_level", self.n_level, 0))
        chi = require_finite("chi", self.chi)
        if chi < 0.0:
            raise DomainError(f"chi must be a nonnegative real, got {self.chi!r}")
        if chi > CHI_MAX:
            raise DomainError(
                f"chi={chi} is outside the small-signal regime (chi <= {CHI_MAX})"
            )
        if chi / (self.n_level + 1) >= 1.0:
            raise DomainError("chi/(n_level + 1) must be below 1")
        object.__setattr__(self, "chi", chi)

    @property
    def shift_weight(self) -> float:
        """First-order weight chi/(n_level + 1) of the raised component."""
        return self.chi / (self.n_level + 1)


class NumberShiftDistribution(NamedTuple):
    """Measured-number distribution after the channel: outcome ``n_level``
    with probability ``1 - q``, outcome ``n_level + 1`` with probability
    ``q``; ``q_first_order`` is the unnormalized first-order weight."""

    outcomes: tuple
    probabilities: tuple
    q: float
    q_first_order: float


def number_shift_distribution(model: NumberShiftModel) -> NumberShiftDistribution:
    """Outcome distribution of a number measurement after the channel.

    Normalizing the raised state gives q = w / (1 + w) with
    w = chi/(n_level + 1); the unnormalized first-order weight w itself is
    reported alongside.
    """
    w = model.shift_weight
    q = w / (1.0 + w)
    return NumberShiftDistribution(
        outcomes=(model.n_level, model.n_level + 1),
        probabilities=(1.0 - q, q),
        q=q,
        q_first_order=w,
    )


def mean_number(model: NumberShiftModel, convention: str = "normalized") -> float:
    """Mean measured number after the channel, under a chosen convention.

    ``"normalized"`` uses the normalized two-outcome distribution,
        (n + chi) / (1 + chi/(n + 1)),
    whose first-order shift is chi/(n + 1).  ``"first_order"`` returns
    n + chi, the unnormalized first-order shift of the channel as specified.
    The two agree at n = 0 to first order but differ by a factor n + 1 in
    the shift for excited levels; both are exposed because the channel
    definition does not fix the convention.
    """
    n, chi = model.n_level, model.chi
    if convention == "normalized":
        return (n + chi) / (1.0 + model.shift_weight)
    if convention == "first_order":
        return n + chi
    raise DomainError(
        f"convention must be 'normalized' or 'first_order', got {convention!r}"
    )


class NumberShiftFisher(NamedTuple):
    """Fisher information of the number-shift channel: ``exact`` from the
    normalized Bernoulli distribution, ``approx`` the leading-order
    1/(chi (n + 1))."""

    exact: float
    approx: float


def number_shift_fisher(model: NumberShiftModel) -> NumberShiftFisher:
    """Fisher information about the signal carried by one number measurement.

    With q(chi) = chi / (n + 1 + chi), the Bernoulli information
    (dq/dchi)^2 [1/q + 1/(1-q)] reduces to (n + 1) / (chi (n + 1 + chi)^2),
    within a factor (1 + chi/(n+1))^-2 of the leading-order 1/(chi (n + 1)).
    Diverges as chi -> 0, so the identity point is rejected.
    """
    if model.chi == 0.0:
        raise UnboundedInformationError(
            "the number-shift Fisher information diverges as chi -> 0; "
            "evaluate at a strictly positive signal"
        )
    n1 = model.n_level + 1.0
    exact = n1 / (model.chi * (n1 + model.chi)) / (n1 + model.chi)
    fisher = NumberShiftFisher(exact=exact, approx=1.0 / (model.chi * n1))
    return finite_result("number_shift_fisher", fisher)
