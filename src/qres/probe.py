"""Generalized-Gaussian momentum probes.

A probe is the pure state whose momentum density is

    P(p) = [alpha * 2^(1/alpha) / (2 * gamma * G(1/alpha))] * exp(-2 |p/gamma|^alpha),

with shape exponent ``alpha`` (even integer; Gaussian at 2, approaching a
square profile as it grows) and width ``gamma``.  This module provides the
density, the position variance obtained by quadrature of the momentum-
wavefunction derivative, and the closed forms: absolute moments, mean energy
(the momentum variance), the width-for-energy map and the uncertainty
product.  Each closed form is one expression over one moment kernel, and a
value that overflows a float raises :class:`DomainError`.

Densities and likelihood factors are always evaluated in the log domain so
that ``|p/gamma|^alpha`` cannot overflow before the final exponentiation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, require_int, require_positive
from .numerics import integrate, log_gamma

__all__ = [
    "ALPHA_MAX",
    "ProbeSpec",
    "absolute_moment",
    "density",
    "gamma_for_energy",
    "log_density",
    "mean_energy",
    "position_variance",
    "truncation_window",
    "uncertainty_product",
    "validate_alpha",
]

# The largest alpha at which the simulation side is tested.  The closed forms
# and the log-domain quadratures hold beyond it (ROADMAP item 11); what does
# not is the posterior: its 8-sigma starting window shrinks as 1/sqrt(alpha)
# while the posterior's own width tends to 1/N, and the likelihood's
# binary-powered |(p - x)/gamma|^alpha overflows for residuals near 2 gamma
# once alpha exceeds about 1023.
ALPHA_MAX = 200

# Quadrature truncation: |p| <= gamma * TAIL_EXPONENT^(1/alpha) puts the tail
# density below exp(-700) ~ 1e-304, i.e. under representable magnitude, with
# no adaptive tail hunting.
TAIL_EXPONENT = 350.0

# Largest exponent alpha ln|p/gamma| that log_density feeds to exp() when
# forming |p/gamma|^alpha: the cap keeps the power finite, and the density
# factor exp(-2|p/gamma|^alpha) has underflowed to zero long before it.
_EXP_CLIP = 705.0


def validate_alpha(alpha: int) -> int:
    """Check the shape exponent: an even integer in [2, ALPHA_MAX]."""
    alpha = require_int("alpha", alpha)
    if alpha < 2 or alpha > ALPHA_MAX or alpha % 2 != 0:
        raise DomainError(
            f"alpha must be an even integer in [2, {ALPHA_MAX}], got {alpha}"
        )
    return alpha


@dataclass(frozen=True)
class ProbeSpec:
    """Parameters of one probe: shape exponent ``alpha`` and width ``gamma``.

    Immutable value; all operations on it are pure and safe to share across
    threads.
    """

    alpha: int
    gamma: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", validate_alpha(self.alpha))
        object.__setattr__(self, "gamma", require_positive("gamma", self.gamma))


def truncation_window(spec: ProbeSpec) -> float:
    """Half-width of the window outside which the density underflows."""
    return spec.gamma * TAIL_EXPONENT ** (1.0 / spec.alpha)


def _log_prefactor(spec: ProbeSpec) -> float:
    return (
        math.log(spec.alpha)
        + math.log(2.0) / spec.alpha
        - math.log(2.0 * spec.gamma)
        - log_gamma(1.0 / spec.alpha)
    )


def log_density(spec: ProbeSpec, p):
    """Natural log of the momentum density at ``p`` (scalar or array)."""
    t = np.abs(np.asarray(p, dtype=float)) / spec.gamma
    with np.errstate(divide="ignore"):  # ln 0 = -inf gives 0^alpha = 0
        power = np.exp(np.minimum(spec.alpha * np.log(t), _EXP_CLIP))
    result = _log_prefactor(spec) - 2.0 * power
    return float(result) if np.isscalar(p) else result


def density(spec: ProbeSpec, p):
    """Momentum density P(p); an even function of ``p``, normalized to 1."""
    result = np.exp(log_density(spec, p))
    return float(result) if np.isscalar(p) else result


def _log_moment(alpha: int, k: float) -> float:
    """ln m_k, the log of the unit-width absolute moment

        m_k = E|p/gamma|^k = 2^(-k/alpha) G((k+1)/alpha) / G(1/alpha),

    from which every closed form of the family is built; exactly 0 at k = 0.
    """
    log_gamma_ratio = log_gamma((k + 1.0) / alpha) - log_gamma(1.0 / alpha)
    return log_gamma_ratio - (k / alpha) * math.log(2.0)


def _exp(x: float) -> float:
    """exp(x) for a closed form or quadrature assembled in the log domain: the
    one place where such a value can overflow a float, raising DomainError."""
    try:
        return math.exp(x)
    except OverflowError:
        raise DomainError(f"closed form overflows a float: exp({x:.6g})") from None


def absolute_moment(spec: ProbeSpec, k: int) -> float:
    """Closed-form absolute moment E|p|^k = gamma^k m_k, which the tests
    cross-check against quadrature of |p|^k P(p)."""
    k = require_int("k", k, 0)
    return _exp(k * math.log(spec.gamma) + _log_moment(spec.alpha, k))


def mean_energy(spec: ProbeSpec) -> float:
    """Mean probe energy, equal to the momentum variance E p^2 (mean is 0).

    At alpha = 2 it is exactly gamma^2 / 4 wherever that is a float; the
    log-gamma route misses it by a few ulp."""
    half = 0.5 * spec.gamma
    if spec.alpha == 2 and half * half < math.inf:
        return half * half
    return absolute_moment(spec, 2)


def gamma_for_energy(alpha: int, energy: float) -> float:
    """The unique width giving the requested mean energy at this ``alpha``,
    gamma = sqrt(energy / m_2), formed as sqrt(energy) m_2^(-1/2) so that
    no intermediate overflows; exactly 2 sqrt(energy) at alpha = 2."""
    alpha = validate_alpha(alpha)
    energy = require_positive("energy", energy)
    if alpha == 2:
        return 2.0 * math.sqrt(energy)
    return math.sqrt(energy) * _exp(-0.5 * _log_moment(alpha, 2))


def _stated(alpha, energy) -> tuple[ProbeSpec, float]:
    """(spec, energy) of a probe stated as (ProbeSpec, None), used as given
    with its mean energy, or as (alpha, energy), whose energy is kept bit for
    bit and whose width is derived from it."""
    if not isinstance(alpha, ProbeSpec):
        return ProbeSpec(alpha, gamma_for_energy(alpha, energy)), float(energy)
    if energy is not None:
        raise DomainError("give a ProbeSpec or an energy, not both")
    return alpha, mean_energy(alpha)


def _unit_integral(alpha: int, weight) -> float:
    """The integral of weight(power) P(u) over the window of the unit-width
    probe: the one quadrature behind every probe integral, at
    :func:`~qres.numerics.integrate`'s one policy.  It is O(1) at any width,
    so callers rescale in the log domain.  ln u is taken once per node, and
    power(k) forms u^k from it, for the even weight and the density alike,
    as exp(k ln u).  Every k is at most 2 alpha - 2 and u at most
    TAIL_EXPONENT^(1/alpha), so k ln u stays below 2 ln TAIL_EXPONENT and
    the power needs no cap.

    Evenness contract: the integrand sees u only through power, that is
    through |u|, and the density is even, so the integral is twice the one
    over the half-window [0, window], whose 32 starting panels are then half
    as wide.  The Gauss-Kronrod nodes are interior, so every u there is
    positive."""
    unit = ProbeSpec(alpha, 1.0)
    window = truncation_window(unit)
    log_prefactor = _log_prefactor(unit)

    def integrand(u):
        log_u = np.log(u)

        def power(k):
            out = np.multiply(k, log_u)
            return np.exp(out, out=out)

        # weight(power) * exp(log_prefactor - 2 power(alpha)), in place
        values = power(alpha)
        values *= 2.0
        np.subtract(log_prefactor, values, out=values)
        np.exp(values, out=values)
        return np.multiply(weight(power), values, out=values)

    return 2.0 * integrate(integrand, 0.0, window)


def position_variance(spec: ProbeSpec) -> float:
    """Position variance (Dx)^2, by quadrature of the squared derivative of
    the real momentum wavefunction psi(p) = sqrt(P(p)).

    The derivative is analytic,
        psi'(p) = -(alpha/gamma) |p/gamma|^(alpha-1) sign(p) psi(p),
    so (psi')^2 = (alpha/gamma)^2 |p/gamma|^(2 alpha - 2) P(p); a
    finite-difference cross-check lives in the tests, not here, because
    differencing cancels catastrophically at large alpha.  The integral runs
    at unit width and is rescaled by (alpha/gamma)^2 in the log domain.
    """
    a = spec.alpha
    integral = _unit_integral(a, lambda power: power(2 * a - 2))
    return _exp(2.0 * (math.log(a) - math.log(spec.gamma)) + math.log(integral))


def uncertainty_product(spec: ProbeSpec) -> float:
    """The product 4 (Dx)^2 (Dp)^2 = (2 alpha)^2 m_2 m_(2 alpha - 2) in closed
    form, from (Dp)^2 = gamma^2 m_2 and (Dx)^2 = (alpha/gamma)^2 m_(2 alpha - 2);
    >= 1 and independent of gamma.

    The Gaussian probe (alpha = 2) is the minimum-uncertainty case; its value
    is exactly 1, returned without round-trip through log-gamma so identities
    pinned to the Gaussian hold to the last bit.
    """
    a = spec.alpha
    if a == 2:
        return 1.0
    return _exp(2.0 * math.log(2.0 * a) + _log_moment(a, 2) + _log_moment(a, 2 * a - 2))
