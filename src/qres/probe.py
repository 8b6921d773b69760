"""Generalized-Gaussian momentum probes.

A probe is the pure state whose momentum density is

    P(p) = [alpha * 2^(1/alpha) / (2 * gamma * G(1/alpha))] * exp(-2 |p/gamma|^alpha),

with shape exponent ``alpha`` (even integer; Gaussian at 2, approaching a
square profile as it grows) and width ``gamma``.  This module provides the
density, absolute moments, mean energy (the momentum variance), the inverse
width-for-energy map, the position variance obtained by quadrature of the
momentum-wavefunction derivative, and the position-momentum uncertainty
product.

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

# Beyond this the density is numerically indistinguishable from a square
# profile and |p/gamma|^alpha overflows even log-careful evaluations near the
# truncation window edge.
ALPHA_MAX = 200

# Quadrature truncation: |p| <= gamma * TAIL_EXPONENT^(1/alpha) puts the tail
# density below exp(-700) ~ 1e-304, i.e. under representable magnitude, with
# no adaptive tail hunting.
TAIL_EXPONENT = 350.0

# Largest exponent k ln|p/gamma| fed to exp() when forming |p/gamma|^k: the
# cap keeps the power finite, and at k = alpha the density factor
# exp(-2|p/gamma|^alpha) has underflowed to zero long before it.
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


def _scaled_power(p, gamma: float, k: float) -> np.ndarray:
    """|p/gamma|^k for k > 0, formed as exp(k ln|p/gamma|) with the exponent
    capped at _EXP_CLIP, so it never overflows; 0 at p = 0."""
    t = np.abs(np.asarray(p, dtype=float)) / gamma
    with np.errstate(divide="ignore"):
        return np.exp(np.minimum(k * np.log(t), _EXP_CLIP))


def log_density(spec: ProbeSpec, p):
    """Natural log of the momentum density at ``p`` (scalar or array)."""
    result = _log_prefactor(spec) - 2.0 * _scaled_power(p, spec.gamma, spec.alpha)
    return float(result) if np.isscalar(p) else result


def density(spec: ProbeSpec, p):
    """Momentum density P(p); an even function of ``p``, normalized to 1."""
    result = np.exp(log_density(spec, p))
    return float(result) if np.isscalar(p) else result


def absolute_moment(spec: ProbeSpec, k: int) -> float:
    """Closed-form absolute moment E|p|^k.

    For this family
        E|p|^k = gamma^k * 2^(-k/alpha) * G((k+1)/alpha) / G(1/alpha),
    which the tests cross-check against quadrature of p^k P(p).
    """
    if require_int("k", k, 0) == 0:
        return 1.0
    a = spec.alpha
    return math.exp(
        k * math.log(spec.gamma)
        - (k / a) * math.log(2.0)
        + log_gamma((k + 1.0) / a)
        - log_gamma(1.0 / a)
    )


def mean_energy(spec: ProbeSpec) -> float:
    """Mean probe energy, equal to the momentum variance E p^2 (mean is 0)."""
    return absolute_moment(spec, 2)


def gamma_for_energy(alpha: int, energy: float) -> float:
    """The unique width giving the requested mean energy at this ``alpha``.

    Inverts the mean-energy formula:
        gamma = sqrt(energy * 2^(2/alpha) * G(1/alpha) / G(3/alpha)).
    """
    alpha = validate_alpha(alpha)
    energy = require_positive("energy", energy)
    return math.sqrt(
        energy
        * math.exp(
            (2.0 / alpha) * math.log(2.0)
            + log_gamma(1.0 / alpha)
            - log_gamma(3.0 / alpha)
        )
    )


def position_variance(spec: ProbeSpec, rel_tol: float = 1e-8) -> float:
    """Position variance (Dx)^2, by quadrature of the squared derivative of
    the real momentum wavefunction psi(p) = sqrt(P(p)).

    The derivative is analytic,
        psi'(p) = -(alpha/gamma) |p/gamma|^(alpha-1) sign(p) psi(p),
    so (psi')^2 = (alpha/gamma)^2 |p/gamma|^(2 alpha - 2) P(p); a
    finite-difference cross-check lives in the tests, not here, because
    differencing cancels catastrophically at large alpha.
    """
    a, g = spec.alpha, spec.gamma
    window = truncation_window(spec)
    log_prefactor = _log_prefactor(spec)

    def integrand(p):
        dens = np.exp(log_prefactor - 2.0 * _scaled_power(p, g, a))
        return (a / g) ** 2 * _scaled_power(p, g, 2 * a - 2) * dens

    return integrate(integrand, -window, window, rel_tol, initial_panels=32)


def uncertainty_product(spec: ProbeSpec) -> float:
    """The product 4 (Dx)^2 (Dp)^2 in closed form; >= 1, independent of gamma.

        4 (Dx)^2 (Dp)^2 = alpha^2 G(2 - 1/alpha) G(3/alpha) / G(1/alpha)^2.

    The Gaussian probe (alpha = 2) is the minimum-uncertainty case; its value
    is exactly 1, returned without round-trip through log-gamma so identities
    pinned to the Gaussian hold to the last bit.
    """
    a = spec.alpha
    if a == 2:
        return 1.0
    return math.exp(
        2.0 * math.log(a)
        + log_gamma(2.0 - 1.0 / a)
        + log_gamma(3.0 / a)
        - 2.0 * log_gamma(1.0 / a)
    )
