"""Resolution bounds and diagnostics for momentum-shift estimation.

The measured signal is a momentum shift chi imprinted on a generalized-
Gaussian probe, estimated from N repeated momentum measurements.  This module
collects everything one asks about that scheme:

* Fisher information of the shift family, both in closed form and as an
  independent quadrature of (dP/dchi)^2 / P;
* the Cramer-Rao variance floor 1/(N F);
* the energy-constrained bound obtained by eliminating the probe width in
  favor of the mean energy, its large-alpha approximation 3 E/(N alpha), and
  the naive error-propagation variance E/N of the sample mean;
* the estimated number of repetitions needed before a maximum-likelihood
  estimator approaches the Cramer-Rao floor, again with an independent
  quadrature cross-check;
* unit-agnostic conversions from physical couplings (electric dipole kick,
  Stern-Gerlach gradient) to the dimensionless shift.

All gamma-function expressions are evaluated through log-gamma differences,
since G(1/alpha) grows like alpha.  Where an identity is exact at alpha = 2
(the Gaussian probe) the code returns the exact value rather than the
round-tripped one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import require_finite, require_int, require_positive
from .numerics import integrate, log_gamma
from .probe import (
    ProbeSpec,
    _log_prefactor,
    _scaled_power,
    gamma_for_energy,
    position_variance,
    truncation_window,
    uncertainty_product,
    validate_alpha,
)

__all__ = [
    "BoundReport",
    "RepetitionsEstimate",
    "bound_report",
    "crb",
    "energy_bound",
    "energy_bound_approx",
    "error_propagation_bound",
    "fisher_closed",
    "fisher_numeric",
    "normalized_bound",
    "repetitions_required",
    "scenario_chi_electric",
    "scenario_chi_stern_gerlach",
]


# ---------------------------------------------------------------------------
# Fisher information
# ---------------------------------------------------------------------------


def fisher_closed(spec: ProbeSpec) -> float:
    """Fisher information of the shift family, closed form:

        F = alpha^2 * 2^(2/alpha) * G(2 - 1/alpha) / (gamma^2 * G(1/alpha)).
    """
    a, g = spec.alpha, spec.gamma
    return math.exp(
        2.0 * math.log(a)
        + (2.0 / a) * math.log(2.0)
        + log_gamma(2.0 - 1.0 / a)
        - 2.0 * math.log(g)
        - log_gamma(1.0 / a)
    )


def fisher_numeric(spec: ProbeSpec, chi: float = 0.0, rel_tol: float = 1e-8) -> float:
    """Fisher information by quadrature of (dP/dchi)^2 / P for the shifted
    density P(p - chi).

    The family is a pure location family, so the result does not depend on
    ``chi``; the parameter exists to let callers confirm that.  The score is
    analytic, d(ln P)/dp = -(2 alpha / gamma) |u|^(alpha-1) sign(u) with
    u = (p - chi)/gamma, so the integrand is the squared score times the
    density, with every power of |u| formed in the log domain.
    """
    chi = require_finite("chi", chi)
    a, g = spec.alpha, spec.gamma
    window = truncation_window(spec)
    log_prefactor = _log_prefactor(spec)

    def integrand(p):
        u = np.asarray(p, dtype=float) - chi
        dens = np.exp(log_prefactor - 2.0 * _scaled_power(u, g, a))
        return (2.0 * a / g) ** 2 * _scaled_power(u, g, 2 * a - 2) * dens

    return integrate(integrand, chi - window, chi + window, rel_tol, initial_panels=32)


def crb(fisher: float, n: int) -> float:
    """Cramer-Rao variance floor 1/(n * fisher) for n repetitions."""
    return 1.0 / (require_int("n", n, 1) * require_positive("fisher", fisher))


# ---------------------------------------------------------------------------
# Energy-constrained bounds
# ---------------------------------------------------------------------------


def normalized_bound(alpha: int) -> float:
    """The energy-normalized bound n * energy_bound / energy, a function of
    alpha alone:

        G(1/alpha)^2 / (alpha^2 * G(2 - 1/alpha) * G(3/alpha)).

    Equals 1 exactly at alpha = 2 and decreases as the probe approaches a
    square momentum profile; it is also 1 / uncertainty_product.
    """
    alpha = validate_alpha(alpha)
    if alpha == 2:
        return 1.0
    return math.exp(
        2.0 * log_gamma(1.0 / alpha)
        - 2.0 * math.log(alpha)
        - log_gamma(2.0 - 1.0 / alpha)
        - log_gamma(3.0 / alpha)
    )


def energy_bound(alpha: int, energy: float, n: int) -> float:
    """Variance floor at fixed mean energy:

        energy * G(1/alpha)^2 / (n * alpha^2 * G(2 - 1/alpha) * G(3/alpha)).

    This is the Cramer-Rao floor after eliminating the width gamma in favor
    of the mean energy; it is proportional to the energy, so lower energy
    gives better resolution, and at alpha = 2 it reduces exactly to
    energy / n.
    """
    energy = require_positive("energy", energy)
    n = require_int("n", n, 1)
    return (energy / n) * normalized_bound(alpha)


def energy_bound_approx(alpha: int, energy: float, n: int) -> float:
    """Large-alpha approximation of :func:`energy_bound`: 3 energy/(n alpha)."""
    alpha = validate_alpha(alpha)
    return 3.0 * require_positive("energy", energy) / (require_int("n", n, 1) * alpha)


def error_propagation_bound(energy: float, n: int) -> float:
    """Variance energy/n of the plain sample-mean estimator.

    Error propagation with unit slope and measurement variance equal to the
    mean energy.  Coincides with :func:`energy_bound` at alpha = 2 (the mean
    is efficient for a Gaussian) and exceeds it for larger alpha, where the
    sample mean is no longer an efficient estimator.
    """
    return require_positive("energy", energy) / require_int("n", n, 1)


# ---------------------------------------------------------------------------
# Repetitions needed to approach the Cramer-Rao floor
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RepetitionsEstimate:
    """Estimated repetitions before maximum likelihood reaches the variance
    floor.

    ``closed_form`` is the gamma-function expression
        2 G(2 - 3/alpha) G(1/alpha) / G(1 - 1/alpha)^2 - 2;
    ``quadrature`` re-derives it from the defining integral over the density
    and its first two derivatives (None at alpha = 2, where the quadrature
    path is not taken and only the closed form is reported); ``large_alpha``
    is the 2 * alpha rule of thumb, accurate to ~10 percent only near
    alpha = 100 and above.  Both the exact value and the rule of thumb are
    reported because they differ by tens of percent at moderate alpha.
    """

    closed_form: float
    quadrature: float | None
    large_alpha: float

    @property
    def closed_form_only(self) -> bool:
        return self.quadrature is None


def _repetitions_closed(alpha: int) -> float:
    """The closed form 2 G(2 - 3/alpha) G(1/alpha) / G(1 - 1/alpha)^2 - 2, for
    an already validated alpha; a few log-gamma calls, no quadrature."""
    return (
        2.0
        * math.exp(
            log_gamma(2.0 - 3.0 / alpha)
            + log_gamma(1.0 / alpha)
            - 2.0 * log_gamma(1.0 - 1.0 / alpha)
        )
        - 2.0
    )


def _repetitions_integral(alpha: int, rel_tol: float) -> float:
    """Quadrature of the repetitions integrand with analytic dP/dp, d2P/dp2.

    With L = ln P, the integrand (P'')^2/P - (P')^4/(3 P^3) rearranges to
    P [ (L'' + L'^2)^2 - L'^4 / 3 ], which is evaluated in the log domain.
    At p = 0 both derivative factors vanish for even alpha >= 4, so the
    integrand limit there is 0.
    """
    spec = ProbeSpec(alpha, 1.0)  # the result is width-independent
    window = truncation_window(spec)
    log_prefactor = _log_prefactor(spec)

    def integrand(p):
        dens = np.exp(log_prefactor - 2.0 * _scaled_power(p, 1.0, alpha))
        l1_squared = 4.0 * alpha * alpha * _scaled_power(p, 1.0, 2 * alpha - 2)
        l2 = -2.0 * alpha * (alpha - 1.0) * _scaled_power(p, 1.0, alpha - 2)
        return dens * ((l2 + l1_squared) ** 2 - l1_squared**2 / 3.0)

    return integrate(integrand, -window, window, rel_tol, initial_panels=32)


def repetitions_required(alpha: int, rel_tol: float = 1e-8) -> RepetitionsEstimate:
    """Repetitions needed before the maximum-likelihood variance approaches
    the Cramer-Rao floor, as closed form plus an independent quadrature.

    The two routes agree to 1e-6 relative for even alpha >= 4.  At alpha = 2
    the integrand's derivative powers are not integrable in the form used
    here, so only the closed form is returned, flagged via ``quadrature is
    None``; its value there is exactly 0 (the Gaussian sample mean attains
    the floor at any N).
    """
    alpha = validate_alpha(alpha)
    closed = _repetitions_closed(alpha)
    if alpha == 2:
        quad = None
    else:
        spec = ProbeSpec(alpha, 1.0)
        fisher = fisher_closed(spec)
        quad = 2.0 * _repetitions_integral(alpha, rel_tol) / fisher**2 - 2.0
    return RepetitionsEstimate(
        closed_form=closed, quadrature=quad, large_alpha=2.0 * alpha
    )


# ---------------------------------------------------------------------------
# Physical scenario conversions
# ---------------------------------------------------------------------------


def scenario_chi_electric(q: float, field: float, tau: float) -> float:
    """Momentum shift from an impulsive electric dipole kick: chi = q E tau.

    Unit-agnostic multiplier; charge, field amplitude and interaction time
    are already in the scheme's dimensionless units.
    """
    return (
        require_finite("q", q)
        * require_finite("field", field)
        * require_finite("tau", tau)
    )


def scenario_chi_stern_gerlach(mu_z: float, gradient: float, tau: float) -> float:
    """Momentum shift from a Stern-Gerlach gradient: chi = mu_z B0 tau."""
    return (
        require_finite("mu_z", mu_z)
        * require_finite("gradient", gradient)
        * require_finite("tau", tau)
    )


# ---------------------------------------------------------------------------
# Aggregated report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    """All resolution quantities for one probe at fixed mean energy.

    Invariants (enforced by construction and checked in the tests):
    ``crb == 1/(repetitions * fisher)`` exactly;
    ``energy_bound * repetitions / mean_energy`` depends only on alpha;
    ``fisher`` and ``quantum_fisher`` agree to 1e-6 relative.
    """

    alpha: int
    gamma: float
    mean_energy: float
    repetitions: int
    fisher: float
    quantum_fisher: float
    crb: float
    energy_bound: float
    approx_bound: float
    error_prop_bound: float
    n_required: float
    uncertainty_product: float

    def to_dict(self) -> dict:
        """Plain dict with stable key order, ready for JSON rendering."""
        return {
            "alpha": self.alpha,
            "gamma": self.gamma,
            "mean_energy": self.mean_energy,
            "repetitions": self.repetitions,
            "fisher": self.fisher,
            "quantum_fisher": self.quantum_fisher,
            "crb": self.crb,
            "energy_bound": self.energy_bound,
            "approx_bound": self.approx_bound,
            "error_prop_bound": self.error_prop_bound,
            "n_required": self.n_required,
            "uncertainty_product": self.uncertainty_product,
        }


def bound_report(alpha: int, energy: float, n: int) -> BoundReport:
    """Populate a :class:`BoundReport` for the probe with the given mean
    energy.

    ``quantum_fisher`` is computed as 4x the position-variance quadrature,
    independently of the closed-form ``fisher``, so the report itself
    exercises the measurement-efficiency identity.
    """
    alpha = validate_alpha(alpha)
    energy = require_positive("energy", energy)
    n = require_int("n", n, 1)
    spec = ProbeSpec(alpha, gamma_for_energy(alpha, energy))
    fisher = fisher_closed(spec)
    return BoundReport(
        alpha=alpha,
        gamma=spec.gamma,
        mean_energy=energy,
        repetitions=n,
        fisher=fisher,
        quantum_fisher=4.0 * position_variance(spec),
        crb=crb(fisher, n),
        energy_bound=energy_bound(alpha, energy, n),
        approx_bound=energy_bound_approx(alpha, energy, n),
        error_prop_bound=error_propagation_bound(energy, n),
        n_required=_repetitions_closed(alpha),
        uncertainty_product=uncertainty_product(spec),
    )
