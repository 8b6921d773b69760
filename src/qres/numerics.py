"""Numerical kernel: log-gamma (the standard library's ``lgamma`` behind the
package's argument check), adaptive quadrature, gamma-variate sampling, and
reproducible seeded random streams.

Everything here is deterministic given its inputs.  Randomness enters only
through :class:`RngStream`, an explicit value owned and advanced by the
caller, so results never depend on execution order or parallel scheduling.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import AccuracyError, DomainError
from .errors import require_finite, require_int, require_positive

__all__ = [
    "RngStream",
    "integrate",
    "log_gamma",
    "sample_gamma",
]


# ---------------------------------------------------------------------------
# Reproducible random streams
# ---------------------------------------------------------------------------

_UINT64_MAX = 2**64


class RngStream:
    """A reproducible uniform-random stream identified by (seed, stream_index).

    The stream is backed by the counter-based Philox bit generator keyed
    directly with the (seed, stream_index) pair, so identical identifiers
    produce identical draw sequences on every platform and distinct
    stream_index values are statistically independent.  Because each trial
    owns its own stream, parallel execution order cannot change results.

    Only raw uniforms are drawn from the underlying generator; every other
    distribution used by this package is built on top of them in this module,
    which keeps the byte-level sequence under our control.

    A stream is a stateful value with a single owner: consecutive calls to
    :meth:`uniforms` advance it.  Recreate the object to replay a sequence.
    """

    def __init__(self, seed: int, stream_index: int = 0):
        for name, value in (("seed", seed), ("stream_index", stream_index)):
            if require_int(name, value, 0) >= _UINT64_MAX:
                raise DomainError(f"{name} must fit in an unsigned 64-bit integer")
        self._seed = int(seed)
        self._stream_index = int(stream_index)
        key = np.array([self._seed, self._stream_index], dtype=np.uint64)
        self._generator = np.random.Generator(np.random.Philox(key=key))

    @property
    def seed(self) -> int:
        return self._seed

    @property
    def stream_index(self) -> int:
        return self._stream_index

    def uniforms(self, size: int | None = None):
        """Draw uniforms in [0, 1): a float for ``size=None``, else an array."""
        if size is None:
            return float(self._generator.random())
        return self._generator.random(size)

    def __repr__(self):
        return f"RngStream(seed={self._seed}, stream_index={self._stream_index})"


def _uniform_rows(streams, size: int) -> np.ndarray:
    """One row per stream of the next ``size`` uniforms: row t holds what
    ``streams[t].uniforms(size)`` would return, written in place."""
    rows = np.empty((len(streams), size))
    for stream, row in zip(streams, rows):
        stream._generator.random(out=row)
    return rows


# ---------------------------------------------------------------------------
# Log-gamma
# ---------------------------------------------------------------------------


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0: the standard library's
    ``math.lgamma`` behind the package's argument check.  Its value
    overflows a float above x ~ 2.6e305, which raises :class:`DomainError`.
    """
    x = require_positive("x", x)
    try:
        return math.lgamma(x)
    except OverflowError:
        raise DomainError(f"log_gamma overflows a float at x = {x!r}") from None


# ---------------------------------------------------------------------------
# Adaptive quadrature
# ---------------------------------------------------------------------------

# 15-point Kronrod extension of 7-point Gauss-Legendre on [-1, 1].
_KRONROD_NODES_HALF = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
)
_KRONROD_WEIGHTS_HALF = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
)
_KRONROD_CENTER_WEIGHT = 0.209482141084727828012999174891714
_GAUSS_WEIGHTS_HALF = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
)
_GAUSS_CENTER_WEIGHT = 0.417959183673469387755102040816327

_NODES = np.concatenate(
    [-np.array(_KRONROD_NODES_HALF), [0.0], np.array(_KRONROD_NODES_HALF)[::-1]]
)
_W_KRONROD = np.concatenate(
    [
        np.array(_KRONROD_WEIGHTS_HALF),
        [_KRONROD_CENTER_WEIGHT],
        np.array(_KRONROD_WEIGHTS_HALF)[::-1],
    ]
)
_W_GAUSS = np.zeros(15)
_W_GAUSS[1:14:2] = np.concatenate(
    [np.array(_GAUSS_WEIGHTS_HALF), [_GAUSS_CENTER_WEIGHT], np.array(_GAUSS_WEIGHTS_HALF)[::-1]]
)

_EVALS_PER_PANEL = 15


def integrate(
    f,
    lo: float,
    hi: float,
    rel_tol: float = 1e-10,
    *,
    abs_tol: float = 0.0,
    max_evals: int = 1_000_000,
    initial_panels: int = 8,
) -> float:
    """Globally adaptive Gauss-Kronrod quadrature of ``f`` over [lo, hi].

    The panels live in four arrays: lower and upper edges, Kronrod estimates
    and |Kronrod - Gauss| error surrogates.  Each round halves the worst
    eighth of them (at least one), largest surrogate first and ties by lower,
    then upper edge; subdivision stops once the summed surrogate is below
    ``max(abs_tol, rel_tol * |I|)``.

    Integrand contract: ``f`` receives one flat 1-D array holding the 15
    nodes of every panel new in a round (many panels per call) and must
    return the same-shaped array of values, computed elementwise, so that a
    value depends only on its own node.  A non-finite value, and a panel
    estimate or total that overflows a float, raise :class:`DomainError` in
    the round where they occur.

    Parameters
    ----------
    f : callable
        Elementwise vectorized integrand.
    lo, hi : float
        Integration limits, ``lo < hi``, both finite; 2 max(|lo|, |hi|) must
        be a float too, so that the nodes can be formed.
    rel_tol : float
        Requested relative accuracy.
    abs_tol : float
        Absolute floor for the stopping test; useful for integrals whose
        exact value is zero, where a relative test can never be met.
    max_evals : int
        Node budget, at least 15 per initial panel.  Exceeding it raises
        :class:`AccuracyError` carrying the best estimate.
    initial_panels : int
        Number of equal panels seeding the subdivision, so narrow features
        away from the interval center are not missed by the first rule.
    """
    lo, hi = require_finite("lo", lo), require_finite("hi", hi)
    if not lo < hi:
        raise DomainError(f"invalid integration interval [{lo}, {hi}]")
    if not math.isfinite(2.0 * max(-lo, hi)):
        raise DomainError(f"integration interval [{lo!r}, {hi!r}] overflows a float")
    rel_tol = require_positive("rel_tol", rel_tol)
    abs_tol = require_finite("abs_tol", abs_tol)
    if abs_tol < 0.0:
        raise DomainError(f"abs_tol must be nonnegative, got {abs_tol!r}")
    initial_panels = require_int("initial_panels", initial_panels, 1)
    max_evals = require_int("max_evals", max_evals, _EVALS_PER_PANEL * initial_panels)

    edges = np.linspace(lo, hi, initial_panels + 1)
    lows, highs = edges[:-1], edges[1:]
    estimates = errors = np.empty(0)  # of the leading panels; the rest are new
    evals = 0
    while True:
        new_lows, new_highs = lows[estimates.size :], highs[estimates.size :]
        halves = 0.5 * (new_highs - new_lows)
        nodes = 0.5 * (new_lows + new_highs)[:, None] + halves[:, None] * _NODES
        values = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
        evals += nodes.size
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            kronrod = halves * (values @ _W_KRONROD)
            error = np.abs(kronrod - halves * (values @ _W_GAUSS))
        # every Kronrod weight is positive, so a non-finite value makes its
        # panel's kronrod, and with it the error, non-finite too
        if not np.isfinite(error).all():
            bad = nodes[~np.isfinite(values)]
            if bad.size:
                raise DomainError(f"integrand is not finite at x = {float(bad[0])}")
            raise DomainError("a quadrature panel estimate overflows a float")
        estimates = np.concatenate([estimates, kronrod])
        errors = np.concatenate([errors, error])
        # exact compensated totals; cheap relative to the 15-point panels
        try:
            total = math.fsum(estimates.tolist())
            total_error = math.fsum(errors.tolist())
        except OverflowError:
            raise DomainError("the quadrature total overflows a float") from None
        if total_error <= max(abs_tol, rel_tol * abs(total)):
            return total
        if evals + 2 * _EVALS_PER_PANEL > max_evals:
            raise AccuracyError(
                f"quadrature did not converge within {max_evals} evaluations "
                f"(estimate {total!r}, error surrogate {total_error!r})",
                best_estimate=total,
                error_estimate=total_error,
            )
        # halve the worst panels in bulk, within the budget, so the O(panels)
        # totals above are not recomputed per split; the next batch is their
        # left halves, then their right halves, worst first
        budget = (max_evals - evals) // (2 * _EVALS_PER_PANEL)
        splits = min(max(1, lows.size // 8), budget)
        order = np.lexsort((highs, lows, -errors))  # -errors is the primary key
        worst, keep = order[:splits], order[splits:]
        mids = 0.5 * (lows[worst] + highs[worst])
        lows = np.concatenate([lows[keep], lows[worst], mids])
        highs = np.concatenate([highs[keep], mids, highs[worst]])
        estimates, errors = estimates[keep], errors[keep]


# ---------------------------------------------------------------------------
# Gamma sampling
# ---------------------------------------------------------------------------


def _squeeze_round(d: float, c: float, u1, u2, u):
    """Marsaglia-Tsang proposals d v from same-shaped uniform arrays: u1 and
    u2 give the Box-Muller normals, u the acceptance test.  Returns the
    values and which of them are accepted, flattened in C order."""
    # The arithmetic is in place and dead arrays are dropped early, so that
    # a block's temporaries stay few: otherwise the heap grows past malloc's
    # trim threshold and hands its pages back after every block, which cost
    # a 100-trial study at N = 1e4 about 1100 minor page faults.
    # x = sqrt(-2 ln(1 - u1)) cos(2 pi u2); 1 - u1 in (0, 1] keeps ln finite
    x = 1.0 - u1
    np.log(x, out=x)
    x *= -2.0
    np.sqrt(x, out=x)
    angle = 2.0 * np.pi * u2
    np.cos(angle, out=angle)
    x *= angle
    del angle
    x = x.reshape(-1)
    u = u.reshape(-1)  # a copy only of a strided block of rows
    v = c * x
    v += 1.0
    v **= 3
    x2 = x * x
    del x
    positive = v > 0.0
    # x2 * x2, not x**4: pow on negative normals is tens of times slower, and
    # the squeeze lies well inside the exact region, so a last-bit change in
    # it cannot change which proposals are accepted
    squeeze = x2 * x2
    squeeze *= 0.0331
    np.subtract(1.0, squeeze, out=squeeze)
    accept = u < squeeze
    del squeeze
    accept &= positive
    # the exact log test runs only on the few proposals the squeeze rejects
    test = np.flatnonzero(positive & ~accept)
    with np.errstate(divide="ignore"):  # log 0 = -inf accepts, as it should
        accept[test] = np.log(u[test]) < 0.5 * x2[test] + d * (
            1.0 - v[test] + np.log(v[test])
        )
    v *= d
    return v, accept


def _gamma_rows(shape: float, streams, size: int, trailing: int = 0):
    """Exact Gamma(shape) draws, ``size`` from each stream as one row, and
    the ``trailing`` uniforms each stream yields right after them.

    Each stream is consumed exactly as :func:`sample_gamma` consumes it,
    followed by ``stream.uniforms(trailing)``: one call per stream and round
    (Philox yields the same values for ``random(a)`` then ``random(b)`` as
    for ``random(a + b)``), while every transform runs once over the rows.
    """
    boosted = shape < 1.0
    a = shape + 1.0 if boosted else shape
    d = a - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)

    # the first round fills every slot from [u1 | u2 | u] per stream; later
    # rounds redraw only the rejected, each stream for its own
    first = _uniform_rows(streams, 3 * size).reshape(len(streams), 3, size)
    out, accept = _squeeze_round(d, c, first[:, 0], first[:, 1], first[:, 2])
    del first
    pending = np.flatnonzero(~accept)
    while pending.size:
        counts = np.bincount(pending // size).tolist()
        u1, u2, u = np.concatenate(
            [streams[t].uniforms(3 * m).reshape(3, m) for t, m in enumerate(counts) if m],
            axis=1,
        )
        values, accept = _squeeze_round(d, c, u1, u2, u)
        out[pending[accept]] = values[accept]
        pending = pending[~accept]

    out = out.reshape(len(streams), size)
    tail = _uniform_rows(streams, (size if boosted else 0) + trailing)
    if boosted:
        out *= tail[:, :size] ** (1.0 / shape)
        tail = tail[:, size:]
    return out, tail


def sample_gamma(shape: float, stream: RngStream, size: int | None = None):
    """Exact draws from Gamma(shape, unit scale).

    Uses the Marsaglia-Tsang squeeze for shape >= 1.  For shape < 1 the draw
    is boosted from shape + 1 and multiplied by U^(1/shape), which is exact
    (not approximate); the tests verify this against distribution moments and
    a Kolmogorov-Smirnov check.

    Returns a float for ``size=None``, otherwise an ndarray of ``size`` draws
    consumed from ``stream`` as one deterministic batch.
    """
    shape = require_positive("shape", shape)
    scalar = size is None
    n = 1 if scalar else require_int("size", size, 0)
    out = _gamma_rows(shape, [stream], n)[0][0]
    return float(out[0]) if scalar else out
