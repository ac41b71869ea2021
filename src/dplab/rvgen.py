"""Seed-reproducible random variates: gamma, beta, and Dirichlet draws.

Streams are counter-based (Philox keyed by ``(master_seed, stream_index)``),
so any stream can be opened directly without generating the draws of the
streams before it.  Every sampler consumes draws from its stream
in a fixed documented order, which makes experiments bit-reproducible and
safe to run replication-parallel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError
from .special import expit

# Uniform draws live in [0, 1); exact zeros (probability 2^-53) are nudged to
# the smallest normal double before taking logs.
_TINY = np.finfo(np.float64).tiny

# Smallest gamma shape drawn.  Below it a boosted draw's log(U) / shape (see
# _log_gamma_draws) can overflow to -inf, as log(_TINY) / shape does for any
# shape below 3.9e-306.
MIN_SHAPE = 1e-305


def check_seed(value, name: str) -> int:
    """``value`` as a stream coordinate: an integer in [0, 2^64), one Philox
    key word.  Anything wider is rejected, not reduced, because two seeds
    that agree modulo 2^64 would run the same stream."""
    if not isinstance(value, (int, np.integer)) or not 0 <= value < 1 << 64:
        raise ArgumentError(f"{name} must be an integer in [0, 2^64), got {value!r}")
    return int(value)


@dataclass
class RngStream:
    """One independent random stream addressed by ``(master_seed, stream_index)``.

    Identical coordinates reproduce the identical draw sequence across runs
    and thread schedules; distinct stream indices are statistically
    independent.  A stream advances as it is consumed and must not be shared
    between threads; streams with different indices may be consumed
    concurrently.
    """

    master_seed: int
    stream_index: int = 0

    def __post_init__(self) -> None:
        key = np.array(
            [check_seed(self.master_seed, "master_seed"),
             check_seed(self.stream_index, "stream_index")],
            dtype=np.uint64,
        )
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def uniform(self, size: int | None = None, out: np.ndarray | None = None):
        """Uniform draw(s) on [0, 1), written into ``out`` when it is given."""
        return self._gen.random(size=size, out=out)

    def normal(self, size: int | None = None):
        """Standard normal draw(s)."""
        return self._gen.standard_normal(size=size)

    # No dplab code calls this; it stays because bench/tracing.py patches it
    # by name.
    def permutation(self, n: int) -> np.ndarray:
        """A uniformly random permutation of ``range(n)``."""
        return self._gen.permutation(n)

    def shuffle(self, x: np.ndarray) -> None:
        """Shuffle ``x`` in place along its first axis.

        Consumes the same draws as ``permutation(len(x))`` and leaves ``x``
        equal to ``x[permutation(len(x))]`` on a twin stream.
        """
        self._gen.shuffle(x)


def check_shape(name: str, value: float) -> float:
    """``value`` as a gamma shape: finite and at least MIN_SHAPE."""
    value = float(value)
    if not np.isfinite(value) or value < MIN_SHAPE:
        raise ArgumentError(
            f"{name} must be finite and at least MIN_SHAPE = {MIN_SHAPE:g}, got {value!r}"
        )
    return value


def _safe_uniform(rng: RngStream, n: int) -> np.ndarray:
    u = rng.uniform(n)
    return np.maximum(u, _TINY, out=u)


def _check_shapes(name: str, value, size: int):
    """A shape as ``check_shape`` takes it, or one per draw: ``size`` of them."""
    if np.ndim(value) == 0:
        return check_shape(name, value)
    values = np.asarray(value, dtype=float)
    if values.shape != (size,):
        raise ArgumentError(f"{name} must be a scalar or hold {size} shapes, got shape {values.shape}")
    if not np.all((values >= MIN_SHAPE) & (values < np.inf)):  # NaN fails too
        raise ArgumentError(f"every {name} must be finite and at least MIN_SHAPE = {MIN_SHAPE:g}")
    return values


def _mt_gamma(rng: RngStream, shape, n: int) -> np.ndarray:
    """Marsaglia-Tsang rejection sampler; valid for shape >= 1, a scalar or
    one per slot.

    Each attempt consumes one normal and one uniform; rejected slots are
    redrawn until the whole batch is filled.  A cube v <= 0 has a NaN or
    -inf log, which the acceptance test rejects (the caller silences the
    warnings).
    """
    d = shape - 1.0 / 3.0
    c = 1.0 / np.sqrt(9.0 * d)
    dk, ck = d, c
    out = pending = None
    while pending is None or pending.size:
        size = n if pending is None else pending.size
        if pending is not None and np.ndim(d):
            dk, ck = d[pending], c[pending]
        x = rng.normal(size)
        u = _safe_uniform(rng, size)
        t = 1.0 + ck * x
        v = t * t * t
        dv = dk * v
        accept = np.log(u) < 0.5 * x * x + dk - dv + dk * np.log(v)
        if pending is None:
            # The first round's values stay in place; its rejected slots
            # are filled by the later rounds.
            out, pending = dv, np.flatnonzero(~accept)
        else:
            out[pending[accept]] = dv[accept]
            pending = pending[~accept]
    return out


def _log_gamma_draws(rng: RngStream, shape, n: int) -> np.ndarray:
    """Logarithm of Gamma(shape, 1) draws, for a scalar shape or one per
    slot; stable for every shape down to MIN_SHAPE.

    For shape < 1 the draw is boosted: G = G' * U^(1/shape) with
    G' ~ Gamma(shape + 1), evaluated in log space so tiny shapes (routine for
    Dirichlet-process cells with small a*H(A)) never underflow.  All n
    Marsaglia-Tsang draws come first, then one uniform per boosted slot, in
    slot order.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        small = shape < 1.0
        logs = np.log(_mt_gamma(rng, shape + small, n))
        if np.ndim(shape):
            small = np.flatnonzero(small)
            logs[small] += np.log(_safe_uniform(rng, small.size)) / shape[small]
        elif small:
            logs += np.log(_safe_uniform(rng, n)) / shape
        return logs


def sample_beta(alpha, beta, rng: RngStream, size: int) -> np.ndarray:
    """``size`` draws from Beta(alpha, beta), each G1 / (G1 + G2) with
    independent gammas; ``alpha`` and ``beta`` are each a scalar or one
    shape per draw.

    Draw order: the ``size`` alpha gammas, then the ``size`` beta gammas.
    The ratio is formed in log space (expit of the log-gamma difference), so
    extreme parameter pairs such as (1, 1e4) or (1, 0.01) keep full precision,
    and tiny shapes such as the 3e-7 of deep bisection cells give exactly 0
    or 1, never NaN.  ``dplab.special.expit`` takes its exp from numpy, so
    about 1% of draws differ from scipy.special.expit's by an ulp or two;
    the quantiles of ``bisection_quantiles``, which only compare masses with
    levels, do not move.
    """
    alpha = _check_shapes("alpha", alpha, size)
    beta = _check_shapes("beta", beta, size)
    la = _log_gamma_draws(rng, alpha, size)
    lb = _log_gamma_draws(rng, beta, size)
    return expit(la - lb)


def sample_dirichlet(alphas, rng: RngStream, size: int) -> np.ndarray:
    """``size`` probability vectors from Dirichlet(alphas), which needs at
    least two positive parameters; returns shape (size, len(alphas)).

    Independent gammas are drawn coordinate by coordinate in log space and
    normalized by softmax, so the output sums to one and tiny parameters do
    not underflow to an all-zero vector.
    """
    alphas = [check_shape("a Dirichlet parameter", a) for a in alphas]
    if len(alphas) < 2:
        raise ArgumentError("a Dirichlet needs at least two parameters")
    logs = np.empty((size, len(alphas)))
    for j, alpha in enumerate(alphas):
        logs[:, j] = _log_gamma_draws(rng, alpha, size)
    logs -= logs.max(axis=1, keepdims=True)
    out = np.exp(logs)
    out /= out.sum(axis=1, keepdims=True)
    return out

