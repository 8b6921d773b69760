"""Numerical kernel: log-gamma (the standard library's ``lgamma`` behind the
package's argument check), adaptive quadrature, gamma-variate sampling
(numpy's ``Generator.standard_gamma``: Marsaglia-Tsang for shape > 1), and
reproducible seeded random streams, whose generators also give the package
its uniforms and normals.

Everything here is deterministic given its inputs.  Randomness enters only
through :class:`RngStream`, an explicit value owned and advanced by the
caller, so results never depend on execution order or parallel scheduling.
Studies do not build one :class:`RngStream` per trial: they key one Philox
generator per study and re-key it in place for each trial j to the state
``RngStream(seed, j)`` starts in (:func:`_stream_generators`), so each trial
draws the same bytes as from its own stream.
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


def _stream_key(seed: int, stream_index: int) -> np.ndarray:
    """The Philox key of the stream (seed, stream_index): both must be
    integers in [0, 2^64), else :class:`DomainError`."""
    for name, value in (("seed", seed), ("stream_index", stream_index)):
        if require_int(name, value, 0) >= _UINT64_MAX:
            raise DomainError(f"{name} must fit in an unsigned 64-bit integer")
    return np.array([int(seed), int(stream_index)], dtype=np.uint64)


class RngStream:
    """A reproducible uniform-random stream identified by (seed, stream_index).

    The stream is backed by the counter-based Philox bit generator keyed
    directly with the (seed, stream_index) pair, so identical identifiers
    produce identical draw sequences on every platform and distinct
    stream_index values are statistically independent.  Because each trial
    owns its own stream, parallel execution order cannot change results.
    A study re-keys one generator in place for each trial j instead of
    building this object (:func:`_stream_generators`); the re-keyed state is
    the one ``RngStream(seed, j)`` starts in, so the bytes are the same.

    The package draws uniforms, gamma variates and standard normals (the
    Gaussian probe's outcomes) from the underlying generator, and every
    other distribution it uses is built on them.  The same
    (seed, stream_index) gives the same bytes on one numpy build.  Across
    numpy releases the gamma and normal bytes may change, since numpy may
    change the stream of a ``Generator`` method between releases, and the
    values built on them depend on numpy's pow, exp and log kernels too.

    A stream is a stateful value with a single owner: consecutive calls to
    :meth:`uniforms` advance it.  Recreate the object to replay a sequence.
    """

    def __init__(self, seed: int, stream_index: int = 0):
        key = _stream_key(seed, stream_index)
        self._seed = int(seed)
        self._stream_index = int(stream_index)
        self._generator = np.random.Generator(np.random.Philox(key=key))

    @property
    def seed(self) -> int:
        return self._seed

    @property
    def stream_index(self) -> int:
        return self._stream_index

    def uniforms(self, size: int | None = None):
        """Draw uniforms in [0, 1): a float for ``size=None``, else an array
        of ``size`` (an integer >= 0) uniforms."""
        if size is None:
            return float(self._generator.random())
        return self._generator.random(require_int("size", size, 0))

    def __repr__(self):
        return f"RngStream(seed={self._seed}, stream_index={self._stream_index})"


def _stream_generators(seed: int, stream_indices):
    """An iterator over the generators of the streams (seed, j), for each j
    in ``stream_indices`` in turn.

    It keys one Philox generator, checking ``seed`` once, before it returns,
    and re-keys it in place for each j through the bit generator's ``state``
    setter: key (seed, j), counter zero, buffer empty and no spare 32-bit
    half, which is the state ``RngStream(seed, j)`` starts in.  So each
    generator draws the bytes of ``RngStream(seed, j)``, without the fresh
    OS-entropy ``SeedSequence`` that building a ``Philox`` draws and the key
    then overrides.  Each j is written unchecked into the key's second
    word, a uint64, so it must be an integer in [0, 2^64).  Every item is
    the same object: it holds stream j only until the next item is taken.
    """
    bit_generator = np.random.Philox(key=_stream_key(seed, 0))
    generator = np.random.Generator(bit_generator)
    start = bit_generator.state
    key = start["state"]["key"]

    def rekeyed(stream_index):
        key[1] = stream_index
        bit_generator.state = start
        return generator

    return map(rekeyed, stream_indices)


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

# The one quadrature policy: the relative tolerance of the stopping test, the
# equal panels seeding the subdivision, so that narrow features away from the
# interval center are not missed by the first rule, and the node budget.
_RTOL = 1e-8
_INITIAL_PANELS = 32
_MAX_EVALS = 1_000_000


def integrate(f, lo: float, hi: float) -> float:
    """Globally adaptive Gauss-Kronrod quadrature of ``f`` over [lo, hi], at
    one fixed policy: relative tolerance 1e-8, 32 equal starting panels and a
    budget of 1e6 evaluations.

    The panels live in four arrays: lower and upper edges, Kronrod estimates
    and |Kronrod - Gauss| error surrogates.  Each round halves the worst
    eighth of them (at least one), largest surrogate first and ties by lower,
    then upper edge; subdivision stops once the summed surrogate is below
    1e-8 |I|.  Exceeding the budget raises :class:`AccuracyError` carrying
    the best estimate.

    Integrand contract: ``f`` receives one flat 1-D array holding the 15
    nodes of every panel new in a round (many panels per call) and must
    return the same-shaped array of values, computed elementwise, so that a
    value depends only on its own node.  A non-finite value, and a panel
    estimate or total that overflows a float, raise :class:`DomainError` in
    the round where they occur.

    The limits must satisfy ``lo < hi``, both finite, and 2 max(|lo|, |hi|)
    must be a float too, so that the nodes can be formed.
    """
    lo, hi = require_finite("lo", lo), require_finite("hi", hi)
    if not lo < hi:
        raise DomainError(f"invalid integration interval [{lo}, {hi}]")
    if not math.isfinite(2.0 * max(-lo, hi)):
        raise DomainError(f"integration interval [{lo!r}, {hi!r}] overflows a float")

    edges = np.linspace(lo, hi, _INITIAL_PANELS + 1)
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
        if total_error <= _RTOL * abs(total):
            return total
        if evals + 2 * _EVALS_PER_PANEL > _MAX_EVALS:
            raise AccuracyError(
                f"quadrature did not converge within {_MAX_EVALS} evaluations "
                f"(estimate {total!r}, error surrogate {total_error!r})",
                best_estimate=total,
                error_estimate=total_error,
            )
        # halve the worst panels in bulk, within the budget, so the O(panels)
        # totals above are not recomputed per split; the next batch is their
        # left halves, then their right halves, worst first
        budget = (_MAX_EVALS - evals) // (2 * _EVALS_PER_PANEL)
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


def sample_gamma(shape: float, stream: RngStream, size: int | None = None):
    """Exact draws from Gamma(shape, unit scale): numpy's
    ``Generator.standard_gamma`` on the stream's own generator.  numpy uses
    the Marsaglia-Tsang squeeze method for shape > 1, the exponential for
    shape 1 and an exact rejection method for shape < 1; the tests verify
    the draws against distribution moments and a Kolmogorov-Smirnov check.
    At small shapes some variates lie below the smallest float and are
    returned as 0: about 2.4% of them at shape 1/200.

    Returns a float for ``size=None``, otherwise an ndarray of ``size`` draws
    consumed from ``stream`` as one deterministic batch.
    """
    shape = require_positive("shape", shape)
    scalar = size is None
    n = 1 if scalar else require_int("size", size, 0)
    out = stream._generator.standard_gamma(shape, size=n)
    return float(out[0]) if scalar else out
