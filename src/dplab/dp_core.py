"""Dirichlet-process representations and closed-form moments.

Three exact samplers are provided: finite-dimensional Dirichlet marginals
over a partition, truncated stick-breaking realizations carrying explicit
truncation bookkeeping, and quantiles located by dyadic Beta bisection.
Closed-form mean/variance/cross-moment formulas and posterior conjugacy live
alongside them so Monte Carlo output can be checked against exact targets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import ArgumentError, ParameterError, PartitionError, TruncationError
from .rvgen import DirichletParams, RngStream, sample_beta, sample_dirichlet

# Clipping window applied to uniforms before quantile transforms, so bases
# with unbounded support never produce infinite atoms.
_U_LO = 1e-300
_U_HI = 1.0 - 1e-16

# Deepest bisection level: dyadic cells of width 2^-52 are at the resolution
# of doubles near 1, and their midpoints are exact doubles inside (0, 1).
_MAX_BISECTION_DEPTH = 52


# ---------------------------------------------------------------------------
# Borel sets: finite disjoint unions of half-open intervals (lo, hi]
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BorelSet:
    """A finite union of disjoint, sorted half-open intervals (lo, hi]."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        cleaned = []
        prev_hi = -np.inf
        for pair in self.intervals:
            lo, hi = (float(pair[0]), float(pair[1]))
            if np.isnan(lo) or np.isnan(hi) or not lo < hi:
                raise ParameterError(f"interval ({lo}, {hi}] is empty or invalid")
            if lo < prev_hi:
                raise ParameterError("intervals must be sorted and pairwise disjoint")
            cleaned.append((lo, hi))
            prev_hi = hi
        object.__setattr__(self, "intervals", tuple(cleaned))

    @classmethod
    def interval(cls, lo: float, hi: float) -> "BorelSet":
        return cls(((lo, hi),))

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def intersect(self, other: "BorelSet") -> "BorelSet":
        """Intersection, again a sorted disjoint union of half-open intervals."""
        out = []
        i = j = 0
        a, b = self.intervals, other.intervals
        while i < len(a) and j < len(b):
            lo = max(a[i][0], b[j][0])
            hi = min(a[i][1], b[j][1])
            if lo < hi:
                out.append((lo, hi))
            if a[i][1] <= b[j][1]:
                i += 1
            else:
                j += 1
        return BorelSet(tuple(out))

    def contains_interval(self, lo: float, hi: float) -> bool:
        """True when (lo, hi] sits inside one of this set's intervals."""
        return any(l <= lo and hi <= h for l, h in self.intervals)


class MeasureLike(Protocol):
    """Anything that can assign probability mass to a BorelSet."""

    def measure(self, s: BorelSet) -> float: ...


# ---------------------------------------------------------------------------
# Base measures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BaseMeasure:
    """A continuous distribution H given by cdf, quantile, and density.

    The callables must accept (and vectorize over) numpy arrays.  The cdf is
    assumed continuous and nondecreasing; quantile inverts it on (0, 1).
    """

    cdf: Callable
    quantile: Callable
    density: Callable
    support: tuple[float, float]
    label: str

    def measure(self, s: BorelSet) -> float:
        if s.is_empty:
            return 0.0
        total = 0.0
        for lo, hi in s.intervals:
            total += float(self.cdf(hi)) - float(self.cdf(lo))
        return total


def uniform_base() -> BaseMeasure:
    return BaseMeasure(
        cdf=lambda x: np.clip(x, 0.0, 1.0),
        quantile=lambda u: np.asarray(u, dtype=float),
        density=lambda x: ((np.asarray(x) >= 0.0) & (np.asarray(x) <= 1.0)).astype(float),
        support=(0.0, 1.0),
        label="uniform",
    )


def exponential_base(rate: float = 1.0) -> BaseMeasure:
    if not np.isfinite(rate) or rate <= 0:
        raise ParameterError("exponential rate must be positive")

    def cdf(x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 0.0, -np.expm1(-rate * np.maximum(x, 0.0)), 0.0)

    def density(x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0.0, rate * np.exp(-rate * np.minimum(x, 7e2)), 0.0)

    return BaseMeasure(
        cdf=cdf,
        quantile=lambda u: -np.log1p(-np.asarray(u, dtype=float)) / rate,
        density=density,
        support=(0.0, np.inf),
        label=f"exponential({rate:g})",
    )


def normal_base(mu: float = 0.0, sigma: float = 1.0) -> BaseMeasure:
    if not np.isfinite(mu) or not np.isfinite(sigma) or sigma <= 0:
        raise ParameterError("normal base needs finite mu and positive sigma")
    norm_const = 1.0 / (sigma * np.sqrt(2.0 * np.pi))
    return BaseMeasure(
        cdf=lambda x: ndtr((np.asarray(x, dtype=float) - mu) / sigma),
        quantile=lambda u: mu + sigma * ndtri(np.asarray(u, dtype=float)),
        density=lambda x: norm_const
        * np.exp(-0.5 * ((np.asarray(x, dtype=float) - mu) / sigma) ** 2),
        support=(-np.inf, np.inf),
        label=f"normal({mu:g},{sigma:g})",
    )


# ---------------------------------------------------------------------------
# Realizations
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class DpSample:
    """One truncated realization: sorted atoms, positive weights, and the
    stick mass left ungenerated."""

    atoms: np.ndarray
    weights: np.ndarray
    truncation_remainder: float
    concentration: float

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float).ravel()
        weights = np.asarray(self.weights, dtype=float).ravel()
        if atoms.size == 0 or atoms.size != weights.size:
            raise ParameterError("atoms and weights must be equal-length, non-empty")
        if not np.all(np.isfinite(atoms)):
            raise ParameterError("atoms must be finite")
        if np.any(weights <= 0.0):
            raise ParameterError("weights must be strictly positive")
        rem = float(self.truncation_remainder)
        if not 0.0 <= rem < 1.0:
            raise ParameterError("truncation_remainder must lie in [0, 1)")
        if abs(weights.sum() + rem - 1.0) > 1e-12:
            raise ParameterError("weights plus truncation remainder must sum to 1")
        if not np.isfinite(self.concentration) or self.concentration <= 0:
            raise ParameterError("concentration must be positive")
        min_gap = np.diff(atoms).min() if atoms.size > 1 else np.inf
        if min_gap < 0.0:
            order = np.argsort(atoms, kind="stable")
            atoms, weights = atoms[order], weights[order]
            min_gap = np.diff(atoms).min()
        if min_gap == 0.0:
            # Ties have probability zero under a continuous base but can occur
            # in floating point; merge them by adding weights.
            uniq, inverse = np.unique(atoms, return_inverse=True)
            merged = np.zeros(uniq.size)
            np.add.at(merged, inverse, weights)
            atoms, weights = uniq, merged
        self.atoms = atoms
        self.weights = weights
        self.truncation_remainder = rem
        self.concentration = float(self.concentration)
        self._levels = None

    def cdf_levels(self) -> np.ndarray:
        """The realization's cdf between atoms: entry k is the total weight of
        the k smallest atoms, for k = 0..n_atoms (computed once, then cached)."""
        if self._levels is None:
            self._levels = np.empty(self.weights.size + 1)
            self._levels[0] = 0.0
            np.cumsum(self.weights, out=self._levels[1:])
        return self._levels

    def cumulative_weights(self) -> np.ndarray:
        """Total weight of the atoms up to and including each atom."""
        return self.cdf_levels()[1:]

    @property
    def n_atoms(self) -> int:
        return self.atoms.size


@dataclass(frozen=True)
class TruncationPolicy:
    """Stopping rule for stick-breaking: stop once the remaining stick mass
    drops below ``epsilon``, or after ``max_atoms`` sticks, whichever is first.

    The expected remainder after N sticks is (a / (1 + a))^N, so for target
    epsilon roughly a * ln(1/epsilon) sticks are generated.
    """

    epsilon: float = 1e-10
    max_atoms: int | None = None

    def __post_init__(self):
        eps = float(self.epsilon)
        if not np.isfinite(eps) or eps >= 1.0:
            raise TruncationError("epsilon must be a real number below 1")
        if eps <= 0.0 and self.max_atoms is None:
            raise TruncationError("epsilon <= 0 requires max_atoms to be set")
        if self.max_atoms is not None and int(self.max_atoms) < 1:
            raise TruncationError("max_atoms must be at least 1")
        object.__setattr__(self, "epsilon", eps)
        object.__setattr__(
            self, "max_atoms", None if self.max_atoms is None else int(self.max_atoms)
        )


def stick_breaking_sample(
    a: float,
    base: BaseMeasure,
    trunc: TruncationPolicy,
    rng: RngStream,
) -> DpSample:
    """One truncated stick-breaking realization of DP(a, H).

    Sticks V_j ~ Beta(1, a) are drawn by exact inversion, V = 1 - U^(1/a)
    (U and 1-U are both uniform), so the running remainder is tracked in log
    space without cancellation: log of the mass left after stick j is
    cumsum(log U)/a, and the stick weights are its telescoped differences.
    Atoms are i.i.d. from the base via its quantile; since atom order is
    exchangeable and independent of the weights, atoms are generated
    pre-sorted and the weight vector is attached through a uniformly random
    permutation.

    Draw order per stream: stick uniforms (in blocks), atom uniforms, pairing.
    The pairing is an in-place ``RngStream.shuffle`` of the weights, which
    consumes the same draws as ``permutation(n)`` and gives the same pairing
    as indexing by it.
    """
    if not np.isfinite(a) or a <= 0:
        raise ParameterError("concentration a must be positive")
    if not isinstance(trunc, TruncationPolicy):
        raise TruncationError("trunc must be a TruncationPolicy")

    # log of remaining mass must fall below this to stop on epsilon
    log_target = a * np.log(trunc.epsilon) if trunc.epsilon > 0 else -np.inf
    cap = trunc.max_atoms

    if trunc.epsilon > 0:
        block = int(a * np.log(1.0 / trunc.epsilon) * 1.04) + 64
    else:
        block = 256
    if cap is not None:
        block = min(block, cap)

    log_stick_chunks: list[np.ndarray] = []
    carry = 0.0
    count = 0
    stop_total = None
    while True:
        log_q = rng.uniform(block)
        with np.errstate(divide="ignore"):  # U == 0 has probability 2^-53
            np.log(log_q, out=log_q)  # log(1 - V_j)
        neg_cs = np.cumsum(log_q)
        neg_cs += carry
        np.negative(neg_cs, out=neg_cs)  # -log of the mass left, increasing
        hit = np.searchsorted(neg_cs, -log_target, side="left")
        if hit < neg_cs.size:
            log_stick_chunks.append(log_q[: hit + 1])
            stop_total = count + hit + 1
            break
        log_stick_chunks.append(log_q)
        count += log_q.size
        carry = -neg_cs[-1]
        if cap is not None and count >= cap:
            stop_total = cap
            break
        block = max(block // 2, 256)
        if cap is not None:
            block = min(block, cap - count)

    # remaining mass after each stick; weights telescope: w_j = R_{j-1} - R_j
    if len(log_stick_chunks) == 1:
        # One block: its cumsum is already the log of the mass left.
        log_q = log_stick_chunks[0][:stop_total]
        remaining = neg_cs[: log_q.size]
        np.divide(remaining, -a, out=remaining)
    else:
        log_q = np.concatenate(log_stick_chunks)[:stop_total]
        remaining = np.cumsum(log_q)
        remaining /= a
    np.exp(remaining, out=remaining)
    n = log_q.size
    weights = log_q  # the stick logs are spent; reuse their buffer
    weights[0] = 1.0 - remaining[0]
    np.subtract(remaining[:-1], remaining[1:], out=weights[1:])
    remainder = float(remaining[-1])

    atoms = rng.uniform(n)
    atoms.sort()
    np.clip(atoms, _U_LO, _U_HI, out=atoms)
    atoms = np.asarray(base.quantile(atoms), dtype=float)
    rng.shuffle(weights)
    if weights.min() <= 0.0:
        keep = weights > 0.0
        atoms, weights = atoms[keep], weights[keep]
    return DpSample(atoms, weights, remainder, a)


def dp_cdf(sample: DpSample, t):
    """P_a((-inf, t]) for the realization: total weight of atoms <= t.

    The truncation remainder is excluded, a documented downward bias of at
    most the policy's epsilon; this keeps the cdf monotone.
    """
    idx = np.searchsorted(sample.atoms, t, side="right")
    out = sample.cdf_levels()[idx]
    return float(out) if np.isscalar(t) else out


def dp_quantile(sample: DpSample, u):
    """Generalized inverse: the smallest atom whose cumulative weight >= u.

    For u inside the truncated top mass (u > 1 - remainder) the largest atom
    is returned, matching inf over the generated support.
    """
    uarr = np.asarray(u, dtype=float)
    if np.any(uarr <= 0.0) or np.any(uarr > 1.0):
        raise ArgumentError("quantile levels must lie in (0, 1]")
    cum = sample.cumulative_weights()
    idx = np.searchsorted(cum, uarr, side="left")
    idx = np.minimum(idx, sample.n_atoms - 1)
    out = sample.atoms[idx]
    return float(out) if np.isscalar(u) else out


def bisection_quantiles(a: float, levels, rng: RngStream, size: int, epsilon: float):
    """Quantiles Q(u) = inf{x : P_a[0, x] >= u} of ``size`` independent
    realizations of DP(a, U[0, 1]) at each of ``levels``; returns shape
    (size, len(levels)).

    Under the uniform base P_a is a Polya tree: a dyadic cell of width 2^-k
    gives its left half a Beta(a 2^-(k+1), a 2^-(k+1)) share of its mass,
    independently of every other cell (Ferguson 1973).  Each quantile descends
    K = min(52, ceil(log2(1/epsilon))) levels from [0, 1], going left iff the
    mass up to the left half's right edge reaches u, and returns the midpoint
    of its final cell: within max(epsilon, 2^-53) of the exact quantile and
    inside (0, 1).
    Quantiles in one cell share its split, so their joint law is exact too.

    Draw order per stream: level k = 0..K-1 makes one ``sample_beta`` call of
    size * len(levels) draws, rows in (replication, level) order; a level in
    the same cell as the level before it reuses that level's draw, which is
    why ``levels`` must be nondecreasing.
    """
    if not np.isfinite(a) or a <= 0:
        raise ParameterError("concentration a must be positive")
    u = np.asarray(levels, dtype=float)
    if u.ndim != 1 or u.size == 0 or not (0.0 < u[0] and u[-1] < 1.0 and np.all(np.diff(u) >= 0)):
        raise ArgumentError("quantile levels must be a non-empty nondecreasing list inside (0, 1)")
    if int(size) < 1:
        raise ArgumentError("size must be positive")
    epsilon = float(epsilon)
    if not 0.0 < epsilon < 1.0:
        raise ArgumentError("epsilon must lie in (0, 1)")
    depth = min(_MAX_BISECTION_DEPTH, int(np.ceil(np.log2(1.0 / epsilon))))

    n, j = int(size), u.size
    idx = np.zeros((n, j), dtype=np.int64)  # dyadic cell at the current level
    before = np.zeros((n, j))  # mass left of the cell
    mass = np.ones((n, j))  # mass of the cell
    for k in range(depth):
        shape = a * 2.0 ** -(k + 1)
        share = sample_beta(shape, shape, rng, size=n * j).reshape(n, j)
        for c in range(1, j):
            share[:, c] = np.where(idx[:, c] == idx[:, c - 1], share[:, c - 1], share[:, c])
        left = share * mass
        right = before + left < u
        before = np.where(right, before + left, before)
        mass = np.where(right, mass - left, left)
        idx = 2 * idx + right
    return (idx + 0.5) * 2.0**-depth


def validate_partition(partition: list[BorelSet], measures: np.ndarray) -> None:
    """Check cells are pairwise disjoint with measures summing to one."""
    if len(partition) == 0:
        raise PartitionError("partition must contain at least one cell")
    for i in range(len(partition)):
        for j in range(i + 1, len(partition)):
            if not partition[i].intersect(partition[j]).is_empty:
                raise PartitionError(f"cells {i} and {j} overlap")
    if np.any(measures < -1e-12):
        raise PartitionError("a cell has negative measure")
    if abs(measures.sum() - 1.0) > 1e-9:
        raise PartitionError(
            f"cell measures sum to {measures.sum():.12g}, expected 1 within 1e-9"
        )


def sample_fidi(a: float, measures, rng: RngStream, size: int | None = None):
    """Ferguson marginals: draws of (P_a(A_1), ..., P_a(A_k)) over a partition
    with cell measures H(A_j), distributed Dirichlet(a*H(A_1), ..., a*H(A_k)).

    Callers check the partition with ``validate_partition`` first.  Cells
    with H(A_j) <= 0 receive exactly zero mass, and a single positive cell
    exactly one.  All ``size`` draws come from ``rng`` in one vectorised
    call.  Returns shape (k,), or (size, k) when ``size`` is given.
    """
    if not np.isfinite(a) or a <= 0:
        raise ParameterError("concentration a must be positive")
    measures = np.asarray(measures, dtype=float)
    n = 1 if size is None else int(size)
    if n < 1:
        raise ArgumentError("size must be positive")
    out = np.zeros((n, measures.size))
    positive = np.flatnonzero(measures > 0.0)
    if positive.size == 1:
        out[:, positive[0]] = 1.0
    else:
        params = DirichletParams(tuple(a * measures[positive]))
        out[:, positive] = sample_dirichlet(params, rng, size=n)
    return out[0] if size is None else out


# ---------------------------------------------------------------------------
# Conjugacy
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PosteriorParams:
    """Posterior law DP(a + n, H*) where H* mixes the prior base with the
    empirical measure of the data: H*(t) = (a*H(t) + #{X_k <= t}) / (a + n).
    """

    a_star: float
    prior_concentration: float
    base: BaseMeasure
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        data = np.sort(np.asarray(self.data, dtype=float).ravel())
        if data.size and not np.all(np.isfinite(data)):
            raise ParameterError("posterior data must be finite")
        object.__setattr__(self, "data", data)
        if self.a_star != self.prior_concentration + data.size:
            raise ParameterError("a_star must equal a + n exactly")

    @property
    def n(self) -> int:
        return self.data.size

    def cdf(self, t):
        counts = np.searchsorted(self.data, t, side="right")
        out = (self.prior_concentration * self.base.cdf(t) + counts) / self.a_star
        return float(out) if np.isscalar(t) else out

    def measure(self, s: BorelSet) -> float:
        if s.is_empty:
            return 0.0
        total = 0.0
        a = self.prior_concentration
        for lo, hi in s.intervals:
            prior_mass = float(self.base.cdf(hi)) - float(self.base.cdf(lo))
            count = np.searchsorted(self.data, hi, side="right") - np.searchsorted(
                self.data, lo, side="right"
            )
            total += (a * prior_mass + count) / self.a_star
        return total


def posterior_update(a: float, base: BaseMeasure, data) -> PosteriorParams:
    """Conjugate update after observing ``data``: DP(a, H) -> DP(a + n, H*)."""
    if not np.isfinite(a) or a <= 0:
        raise ParameterError("concentration a must be positive")
    data = np.asarray(data, dtype=float).ravel()
    return PosteriorParams(a + data.size, float(a), base, data)


# ---------------------------------------------------------------------------
# Closed-form moments
# ---------------------------------------------------------------------------


def dp_moments(a: float, base: MeasureLike, s: BorelSet) -> tuple[float, float]:
    """Exact (mean, variance) of P_a(S): (H(S), H(S)(1 - H(S)) / (1 + a))."""
    if not np.isfinite(a) or a <= 0:
        raise ParameterError("concentration a must be positive")
    m = base.measure(s)
    return m, m * (1.0 - m) / (1.0 + a)


def dp_cross_moment(a: float, base: MeasureLike, s1: BorelSet, s2: BorelSet) -> float:
    """Exact E[P_a(S1) P_a(S2)] = (H(S1 and S2) + a H(S1) H(S2)) / (1 + a).

    For disjoint sets this reduces to a/(1+a) * H(S1) H(S2); the intersection
    term is required whenever the sets overlap.
    """
    if not np.isfinite(a) or a <= 0:
        raise ParameterError("concentration a must be positive")
    m1 = base.measure(s1)
    m2 = base.measure(s2)
    m12 = base.measure(s1.intersect(s2))
    return (m12 + a * m1 * m2) / (1.0 + a)
