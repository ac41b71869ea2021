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
from scipy.special import expit

from .errors import ParameterError

_MASK64 = (1 << 64) - 1

# Uniform draws live in [0, 1); exact zeros (probability 2^-53) are nudged to
# the smallest normal double before taking logs.
_TINY = np.finfo(np.float64).tiny


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
        if not isinstance(self.master_seed, (int, np.integer)):
            raise ParameterError("master_seed must be an integer")
        if not isinstance(self.stream_index, (int, np.integer)) or self.stream_index < 0:
            raise ParameterError("stream_index must be a non-negative integer")
        key = np.array(
            [int(self.master_seed) & _MASK64, int(self.stream_index) & _MASK64],
            dtype=np.uint64,
        )
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def uniform(self, size: int | None = None):
        """Uniform draw(s) on [0, 1)."""
        return self._gen.random(size=size)

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


def _check_positive(name: str, value: float) -> float:
    value = float(value)
    if not np.isfinite(value) or value <= 0.0:
        raise ParameterError(f"{name} must be a positive finite real, got {value!r}")
    return value


def _safe_uniform(rng: RngStream, n: int) -> np.ndarray:
    u = np.atleast_1d(rng.uniform(n))
    if u.min() <= 0.0:
        u = np.where(u <= 0.0, _TINY, u)
    return u


def _mt_gamma(rng: RngStream, shape: float, n: int) -> np.ndarray:
    """Marsaglia-Tsang rejection sampler; valid for shape >= 1.

    Each attempt consumes one normal and one uniform; rejected slots are
    redrawn until the whole batch is filled.
    """
    d = shape - 1.0 / 3.0
    c = 1.0 / np.sqrt(9.0 * d)
    out = np.empty(n)
    pending = np.arange(n)
    while pending.size:
        x = np.atleast_1d(rng.normal(pending.size))
        u = _safe_uniform(rng, pending.size)
        t = 1.0 + c * x
        v = t * t * t
        pos = v > 0.0
        logv = np.log(np.where(pos, v, 1.0))
        accept = pos & (np.log(u) < 0.5 * x * x + d - d * v + d * logv)
        out[pending[accept]] = d * v[accept]
        pending = pending[~accept]
    return out


def _log_gamma_draws(rng: RngStream, shape: float, n: int) -> np.ndarray:
    """Logarithm of Gamma(shape, 1) draws; stable for arbitrarily small shapes.

    For shape < 1 the draw is boosted: G = G' * U^(1/shape) with
    G' ~ Gamma(shape + 1), evaluated in log space so tiny shapes (routine for
    Dirichlet-process cells with small a*H(A)) never underflow.
    """
    if shape == 1.0:
        return np.log(-np.log(_safe_uniform(rng, n)))
    if shape >= 1.0:
        return np.log(_mt_gamma(rng, shape, n))
    boosted = _mt_gamma(rng, shape + 1.0, n)
    u = _safe_uniform(rng, n)
    return np.log(boosted) + np.log(u) / shape


def sample_beta(alpha: float, beta: float, rng: RngStream, size: int | None = None):
    """Draw from Beta(alpha, beta) as G1 / (G1 + G2) with independent gammas.

    The ratio is formed in log space (expit of the log-gamma difference), so
    extreme parameter pairs such as (1, 1e4) or (1, 0.01) keep full precision,
    and tiny shapes such as the 3e-7 of deep bisection cells give exactly 0
    or 1, never NaN.
    """
    alpha = _check_positive("alpha", alpha)
    beta = _check_positive("beta", beta)
    n = 1 if size is None else int(size)
    la = _log_gamma_draws(rng, alpha, n)
    lb = _log_gamma_draws(rng, beta, n)
    out = expit(la - lb)
    return float(out[0]) if size is None else out


@dataclass(frozen=True)
class DirichletParams:
    """Parameter vector (a_1, ..., a_k) of a Dirichlet distribution, k >= 2."""

    alphas: tuple[float, ...]

    def __post_init__(self):
        alphas = tuple(float(a) for a in self.alphas)
        object.__setattr__(self, "alphas", alphas)
        if len(alphas) < 2:
            raise ParameterError("a Dirichlet needs at least two parameters")
        for a in alphas:
            if not np.isfinite(a) or a <= 0.0:
                raise ParameterError(f"Dirichlet parameters must be positive, got {a!r}")

    @property
    def k(self) -> int:
        return len(self.alphas)


def sample_dirichlet(params: DirichletParams, rng: RngStream, size: int | None = None):
    """Draw a probability vector from the Dirichlet distribution.

    Independent gammas are drawn coordinate by coordinate in log space and
    normalized by softmax, so the output sums to one and tiny parameters do
    not underflow to an all-zero vector.  Returns shape (k,), or (size, k).
    """
    if not isinstance(params, DirichletParams):
        params = DirichletParams(tuple(params))
    n = 1 if size is None else int(size)
    logs = np.empty((n, params.k))
    for j, alpha in enumerate(params.alphas):
        logs[:, j] = _log_gamma_draws(rng, alpha, n)
    logs -= logs.max(axis=1, keepdims=True)
    out = np.exp(logs)
    out /= out.sum(axis=1, keepdims=True)
    return out[0] if size is None else out

