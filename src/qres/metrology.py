"""Resolution bounds and diagnostics for momentum-shift estimation.

The measured signal is a momentum shift chi imprinted on a generalized-
Gaussian probe, estimated from N repeated momentum measurements.  This module
collects everything one asks about that scheme:

* Fisher information of the shift family, both in closed form, the mean
  squared score, and as an independent quadrature of the mean curvature
  E[-d^2 ln P/dp^2] of the log-density (the second information identity);
* the Cramer-Rao variance floor 1/(N F);
* the energy-constrained bound obtained by eliminating the probe width in
  favor of the mean energy, its large-alpha approximation 3 E/(N alpha), and
  the naive error-propagation variance E/N of the sample mean;
* the estimated number of repetitions needed before a maximum-likelihood
  estimator approaches the Cramer-Rao floor, again with an independent
  quadrature cross-check;
* unit-agnostic conversions from physical couplings (electric dipole kick,
  Stern-Gerlach gradient) to the dimensionless shift.

Every closed form is one expression over the probe family's unit-width
absolute moments m_k (``probe._log_moment``), summed in the log domain and
exponentiated once, so a value that overflows a float raises
:class:`DomainError`.  Where an identity is exact at alpha = 2 (the Gaussian
probe) the result is the exact value rather than the round-tripped one.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass

from .errors import DomainError, finite_result, require_finite, require_int
from .errors import require_positive
from .numerics import integrate  # noqa: F401  (perfbench/tracing.py wraps it)
from .probe import (
    ProbeSpec,
    _exp,
    _log_moment,
    _stated,
    _unit_integral,
    position_variance,
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
    """Fisher information of the shift family, closed form: the mean of the
    squared score (2 alpha/gamma)^2 |p/gamma|^(2 alpha - 2), that is

        F = (2 alpha/gamma)^2 m_(2 alpha - 2)
          = alpha^2 * 2^(2/alpha) * G(2 - 1/alpha) / (gamma^2 * G(1/alpha)).
    """
    a = spec.alpha
    square = spec.gamma * spec.gamma
    # at alpha = 2, exactly 4 / gamma^2 wherever gamma^2 is a normal float;
    # the log-gamma route misses it by an ulp, but holds beyond that range
    if a == 2 and sys.float_info.min < square < math.inf:
        return 4.0 / square
    log_score_scale = math.log(2.0 * a) - math.log(spec.gamma)
    return _exp(2.0 * log_score_scale + _log_moment(a, 2 * a - 2))


def fisher_numeric(spec: ProbeSpec) -> float:
    """Fisher information by quadrature, through the second information
    identity F = E[-d^2 ln P / dp^2] rather than the mean squared score that
    :func:`fisher_closed` and :func:`~qres.probe.position_variance` share.

    The curvature of the log-density is analytic, -d^2 ln P/dp^2 =
    (2 alpha (alpha - 1) / gamma^2) |p/gamma|^(alpha - 2), so

        F = (2 alpha (alpha - 1) / gamma^2) m_(alpha - 2),

    integrated at unit width and rescaled in the log domain.  It meets the
    closed form (2 alpha/gamma)^2 m_(2 alpha - 2) only through the identity
    2 alpha (alpha - 1) m_(alpha - 2) = 4 alpha^2 m_(2 alpha - 2) between
    gamma functions, so the two are independent checks of each other.
    """
    a = spec.alpha
    integral = _unit_integral(a, lambda power: power(a - 2))
    log_scale = math.log(2.0 * a * (a - 1)) - 2.0 * math.log(spec.gamma)
    return _exp(log_scale + math.log(integral))


def crb(fisher: float, n: int) -> float:
    """Cramer-Rao variance floor 1/(n * fisher) for n repetitions, formed as
    1/n/fisher where n * fisher overflows; DomainError if it underflows to 0."""
    n, fisher = require_int("n", n, 1), require_positive("fisher", fisher)
    bound = 1.0 / (n * fisher) if n * fisher < math.inf else 1.0 / n / fisher
    if bound == 0.0:
        raise DomainError(f"crb underflows a float: 1/({n:.6g} * {fisher:.6g})")
    return finite_result("crb", bound)


# ---------------------------------------------------------------------------
# Energy-constrained bounds
# ---------------------------------------------------------------------------


def normalized_bound(alpha: int) -> float:
    """The energy-normalized bound n * energy_bound / energy, a function of
    alpha alone:

        1 / uncertainty_product
          = G(1/alpha)^2 / (alpha^2 * G(2 - 1/alpha) * G(3/alpha)).

    Equals 1 exactly at alpha = 2 and decreases as the probe approaches a
    square momentum profile.
    """
    return 1.0 / uncertainty_product(ProbeSpec(alpha, 1.0))


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
    alpha, energy = validate_alpha(alpha), require_positive("energy", energy)
    bound = 3.0 * energy / (require_int("n", n, 1) * alpha)
    return finite_result("energy_bound_approx", bound)


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


def _repetitions_closed(alpha: int) -> float:
    """The closed form 2 m_(2 alpha - 4) / m_(alpha - 2)^2 - 2, which is
    2 G(2 - 3/alpha) G(1/alpha) / G(1 - 1/alpha)^2 - 2, for an already
    validated alpha; no quadrature, and exactly 0 at alpha = 2."""
    ratio = _exp(_log_moment(alpha, 2 * alpha - 4) - 2.0 * _log_moment(alpha, alpha - 2))
    return 2.0 * ratio - 2.0


def _repetitions_integral(alpha: int) -> float:
    """Quadrature of the repetitions integrand with analytic dP/dp, d2P/dp2.

    With L = ln P, the integrand (P'')^2/P - (P')^4/(3 P^3) rearranges to
    P [ (L'' + L'^2)^2 - L'^4 / 3 ], which is evaluated in the log domain.
    At p = 0 both derivative factors vanish for even alpha >= 4, so the
    integrand limit there is 0.
    """

    def weight(power):
        l1_squared = 4.0 * alpha * alpha * power(2 * alpha - 2)
        l2 = -2.0 * alpha * (alpha - 1.0) * power(alpha - 2)
        return (l2 + l1_squared) ** 2 - l1_squared**2 / 3.0

    return _unit_integral(alpha, weight)


def repetitions_required(alpha: int) -> RepetitionsEstimate:
    """Repetitions needed before the maximum-likelihood variance approaches
    the Cramer-Rao floor, as closed form plus an independent quadrature.

    The two routes agree to 1e-12 relative for even alpha >= 4.  At alpha = 2
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
        fisher = fisher_closed(ProbeSpec(alpha, 1.0))
        quad = 2.0 * _repetitions_integral(alpha) / fisher**2 - 2.0
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
    chi = require_finite("q", q) * require_finite("field", field)
    return finite_result("scenario_chi_electric", chi * require_finite("tau", tau))


def scenario_chi_stern_gerlach(mu_z: float, gradient: float, tau: float) -> float:
    """Momentum shift from a Stern-Gerlach gradient: chi = mu_z B0 tau."""
    chi = require_finite("mu_z", mu_z) * require_finite("gradient", gradient)
    return finite_result("scenario_chi_stern_gerlach", chi * require_finite("tau", tau))


# ---------------------------------------------------------------------------
# Aggregated report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    """All resolution quantities for one probe at fixed mean energy.

    Invariants (enforced by construction and checked in the tests):
    ``crb == 1/(repetitions * fisher)`` exactly;
    ``energy_bound * repetitions / mean_energy`` depends only on alpha;
    ``fisher`` and ``quantum_fisher`` agree to 1e-12 relative.
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
        """Plain dict in field order, ready for JSON rendering."""
        return asdict(self)


def bound_report(alpha: int | ProbeSpec, energy: float | None, n: int) -> BoundReport:
    """Populate a :class:`BoundReport` for one probe, stated as ``(alpha,
    energy)`` or as ``(ProbeSpec, None)``, which is reported at its own width.

    ``quantum_fisher`` is computed as 4x the position-variance quadrature,
    independently of the closed-form ``fisher``, so the report itself
    exercises the measurement-efficiency identity.
    """
    spec, energy = _stated(alpha, energy)
    n = require_int("n", n, 1)
    fisher = fisher_closed(spec)
    product = uncertainty_product(spec)  # of alpha alone, as normalized_bound's
    return BoundReport(
        alpha=spec.alpha,
        gamma=spec.gamma,
        mean_energy=energy,
        repetitions=n,
        fisher=fisher,
        quantum_fisher=4.0 * position_variance(spec),
        crb=crb(fisher, n),
        energy_bound=(energy / n) * (1.0 / product),
        approx_bound=energy_bound_approx(spec.alpha, energy, n),
        error_prop_bound=error_propagation_bound(energy, n),
        n_required=_repetitions_closed(spec.alpha),
        uncertainty_product=product,
    )
