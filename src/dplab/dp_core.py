"""Dirichlet-process representations and closed-form moments.

Three exact samplers are provided: finite-dimensional Dirichlet marginals
over a partition, truncated stick-breaking realizations carrying explicit
truncation bookkeeping, and quantiles located by dyadic Beta bisection.
Closed-form targets live alongside them so Monte Carlo output can be checked
against exact values: the mean, variance and cross moment of P_a, and the
posterior mean that conjugacy gives after observing data.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ArgumentError
from .rvgen import RngStream, check_shape, sample_beta, sample_dirichlet

# Floor applied to uniforms before quantile transforms: the normal base's
# ndtri(0) is -inf.  No cap is needed, as RngStream.uniform is below 1.
_U_LO = 1e-300

# Deepest bisection level: dyadic cells of width 2^-52 are at the resolution
# of doubles near 1, and their midpoints are exact doubles inside (0, 1).
_MAX_BISECTION_DEPTH = 52

# Part of the bisection draw layout: a bisection of at most this many splits
# (depth * size * levels) draws them all in one sample_beta call; a larger one
# makes one call per level.  Changing it moves the quantiles of every size in
# between.
_GROUPED_SPLITS = 2**15

# Most sticks one stick-breaking draw may hold (256 MiB of float64): a larger
# budget is rejected before anything is drawn, not left to fail in numpy.
MAX_STICKS = 2**25


def check_concentration(a: float) -> None:
    """The one rule for a concentration: a positive finite real."""
    if not np.isfinite(a) or a <= 0:
        raise ArgumentError("concentration a must be positive")


def check_resolution(epsilon: float) -> float:
    """The one rule for a truncation resolution, of stick-breaking and of
    bisection quantiles alike: 0 < epsilon < 1."""
    epsilon = float(epsilon)
    if not 0.0 < epsilon < 1.0:
        raise ArgumentError("epsilon must satisfy 0 < epsilon < 1")
    return epsilon


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
                raise ArgumentError(f"interval ({lo}, {hi}] is empty or invalid")
            if lo < prev_hi:
                raise ArgumentError("intervals must be sorted and pairwise disjoint")
            cleaned.append((lo, hi))
            prev_hi = hi
        object.__setattr__(self, "intervals", tuple(cleaned))

    @classmethod
    def interval(cls, lo: float, hi: float) -> "BorelSet":
        return cls(((lo, hi),))

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

    def measure(self, s: BorelSet) -> float:
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
    )


def exponential_base(rate: float = 1.0) -> BaseMeasure:
    if not np.isfinite(rate) or rate <= 0:
        raise ArgumentError("exponential rate must be positive")

    def cdf(x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 0.0, -np.expm1(-rate * np.maximum(x, 0.0)), 0.0)

    def density(x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0.0, rate * np.exp(-np.minimum(rate * x, 7e2)), 0.0)

    return BaseMeasure(
        cdf=cdf,
        quantile=lambda u: -np.log1p(-np.asarray(u, dtype=float)) / rate,
        density=density,
        support=(0.0, np.inf),
    )


def normal_base(mu: float = 0.0, sigma: float = 1.0) -> BaseMeasure:
    if not np.isfinite(mu) or not np.isfinite(sigma) or sigma <= 0:
        raise ArgumentError("normal base needs finite mu and positive sigma")
    # The one scipy import of a run: a normal base's atoms are scipy's ndtri.
    from scipy.special import ndtr, ndtri

    norm_const = 1.0 / (sigma * np.sqrt(2.0 * np.pi))
    return BaseMeasure(
        cdf=lambda x: ndtr((np.asarray(x, dtype=float) - mu) / sigma),
        quantile=lambda u: mu + sigma * ndtri(np.asarray(u, dtype=float)),
        density=lambda x: norm_const
        * np.exp(-0.5 * ((np.asarray(x, dtype=float) - mu) / sigma) ** 2),
        support=(-np.inf, np.inf),
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

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float).ravel()
        weights = np.asarray(self.weights, dtype=float).ravel()
        if atoms.size == 0 or atoms.size != weights.size:
            raise ArgumentError("atoms and weights must be equal-length, non-empty")
        if not np.all(np.isfinite(atoms)):
            raise ArgumentError("atoms must be finite")
        if not np.all(weights > 0.0):  # NaN fails too
            raise ArgumentError("weights must be strictly positive")
        rem = float(self.truncation_remainder)
        if not 0.0 <= rem < 1.0:
            raise ArgumentError("truncation_remainder must lie in [0, 1)")
        if abs(weights.sum() + rem - 1.0) > 1e-12:
            raise ArgumentError("weights plus truncation remainder must sum to 1")
        # neighbour tests on bools, a byte per atom, not on an array of gaps
        if (atoms[1:] < atoms[:-1]).any():
            order = np.argsort(atoms, kind="stable")
            atoms, weights = atoms[order], weights[order]
        if (atoms[1:] == atoms[:-1]).any():
            # Ties have probability zero under a continuous base but can occur
            # in floating point; merge them by adding weights.
            uniq, inverse = np.unique(atoms, return_inverse=True)
            merged = np.zeros(uniq.size)
            np.add.at(merged, inverse, weights)
            atoms, weights = uniq, merged
        self.atoms = atoms
        self.weights = weights
        self.truncation_remainder = rem
        self._levels = None

    def cdf_levels(self, out: np.ndarray | None = None) -> np.ndarray:
        """The realization's cdf between atoms: entry k is the total weight of
        the k smallest atoms, for k = 0..n_atoms (computed once, into ``out``
        when given, then cached)."""
        if self._levels is None:
            self._levels = np.empty(self.weights.size + 1) if out is None else out
            self._levels[0] = 0.0
            np.cumsum(self.weights, out=self._levels[1:])
        return self._levels

    @property
    def n_atoms(self) -> int:
        return self.atoms.size


@dataclass(frozen=True)
class TruncationPolicy:
    """Stopping rule for stick-breaking: stop once the remaining stick mass
    drops below ``epsilon`` (``check_resolution``: 0 < epsilon < 1), so the
    realization is within epsilon of an exact draw of DP(a, H).

    The expected remainder after N sticks is (a / (1 + a))^N, so for target
    epsilon roughly a * ln(1/epsilon) sticks are generated.
    """

    epsilon: float = 1e-10

    def __post_init__(self):
        object.__setattr__(self, "epsilon", check_resolution(self.epsilon))


class Scratch:
    """Grow-only float64 work buffers, one per role, so that realization
    after realization is drawn without allocating its arrays afresh.

    A sample drawn into a scratch holds views of its buffers and is valid
    only until the next draw into the same scratch.  A scratch belongs to one
    thread.
    """

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}

    def take(self, role: str, n: int, keep: int = 0) -> np.ndarray:
        """The first ``n`` entries of the buffer for ``role``.  A shorter
        buffer is replaced by a longer one that carries over its first
        ``keep`` entries; it is made 1/64 longer than asked, so that sizes
        creeping up from one realization to the next do not replace it
        again."""
        buf = self._buffers.get(role)
        if buf is None or buf.size < n:
            grown = _buffer(max(n + n // 64, 2 * keep))
            if keep:
                grown[:keep] = buf[:keep]
            self._buffers[role] = buf = grown
        return buf[:n]

    @property
    def entries(self) -> int:
        """Doubles held in all of its buffers."""
        return sum(buf.size for buf in self._buffers.values())


# Scratch buffers of at least this many entries get an anonymous mapping of
# their own, which returns its pages to the system as soon as the buffer is
# dropped.  malloc can keep a freed buffer's pages resident in its heaps, so
# the scratches of successive replication loops would pile up there.
_MAPPED_ENTRIES = 1 << 15


def _buffer(n: int) -> np.ndarray:
    if n < _MAPPED_ENTRIES:
        return np.empty(n)
    return np.frombuffer(mmap.mmap(-1, 8 * n), dtype=np.float64)


def stick_budget(a: float, epsilon: float) -> int:
    """Sticks the first block of a stick-breaking draw at concentration ``a``
    and resolution ``epsilon`` holds: int(a ln(1/epsilon) 1.04) + 64.  The
    one rule for a draw: ``a`` below rvgen.MIN_SHAPE, where the sticks'
    log(U) / a can overflow as a boosted gamma draw's does, or a budget
    above MAX_STICKS raises ArgumentError."""
    check_shape("a stick-breaking concentration", a)
    first = a * np.log(1.0 / epsilon) * 1.04
    # compared as a float first, so a huge a never reaches int()
    if not (first < MAX_STICKS and int(first) + 64 <= MAX_STICKS):
        raise ArgumentError(
            f"a stick-breaking draw at a = {a:g} needs more than MAX_STICKS = 2^25 sticks;"
            " lower a or raise epsilon"
        )
    return int(first) + 64


def stick_breaking_sample(
    a: float,
    base: BaseMeasure,
    trunc: TruncationPolicy,
    rng: RngStream,
    scratch: Scratch | None = None,
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

    The sticks, atoms and cdf levels are drawn into the buffers of
    ``scratch``, and the sample holds views of them; without one, a fresh
    scratch makes every array the sample's own.  Either way the draws and
    the arithmetic are the same.
    """
    check_concentration(a)
    if not isinstance(trunc, TruncationPolicy):
        raise ArgumentError("trunc must be a TruncationPolicy")
    block = stick_budget(a, trunc.epsilon)
    buffers = Scratch() if scratch is None else scratch

    # log of remaining mass must fall below this to stop on epsilon
    log_target = a * np.log(trunc.epsilon)

    # Each block is appended to "sticks", and the cumsum of every stick drawn
    # so far goes to "levels" after its first entry, which the cdf levels take
    # over last.  A second block is rare (under 1e-3 at epsilon 1e-10), so
    # summing the whole prefix again costs nothing measurable.
    drawn = 0
    while True:
        sticks = buffers.take("sticks", drawn + block, keep=drawn)
        log_q = sticks[drawn:]
        rng.uniform(block, out=log_q)
        with np.errstate(divide="ignore"):  # U == 0 has probability 2^-53
            np.log(log_q, out=log_q)  # log(1 - V_j)
        drawn += block
        neg_cs = buffers.take("levels", drawn + 1)[1:]
        np.cumsum(sticks, out=neg_cs)
        np.negative(neg_cs, out=neg_cs)  # -log of the mass left, increasing
        hit = np.searchsorted(neg_cs, -log_target, side="left")
        if hit < drawn:
            n = hit + 1
            break
        block = max(block // 2, 256)

    # remaining mass after each stick; weights telescope: w_j = R_{j-1} - R_j
    remaining = neg_cs[:n]
    np.divide(remaining, -a, out=remaining)
    np.exp(remaining, out=remaining)
    weights = sticks[:n]  # the stick logs are spent; reuse their buffer
    weights[0] = 1.0 - remaining[0]
    np.subtract(remaining[:-1], remaining[1:], out=weights[1:])
    remainder = float(remaining[-1])

    atoms = buffers.take("atoms", n)
    rng.uniform(n, out=atoms)
    atoms.sort()
    np.maximum(atoms, _U_LO, out=atoms)
    atoms = np.asarray(base.quantile(atoms), dtype=float)
    rng.shuffle(weights)
    if weights.min() <= 0.0:
        keep = weights > 0.0
        atoms, weights = atoms[keep], weights[keep]
    sample = DpSample(atoms, weights, remainder)
    sample.cdf_levels(out=buffers.take("levels", sample.n_atoms + 1))
    return sample


def dp_cdf(sample: DpSample, t):
    """P_a((-inf, t]) for the realization: total weight of atoms <= t.

    The truncation remainder is excluded, a documented downward bias of at
    most the policy's epsilon; this keeps the cdf monotone.  A NaN t raises
    ``ArgumentError``.
    """
    if np.isnan(t).any():
        raise ArgumentError("dp_cdf needs points that are not NaN")
    idx = np.searchsorted(sample.atoms, t, side="right")
    out = sample.cdf_levels()[idx]
    return float(out) if np.isscalar(t) else out


def dp_quantile(sample: DpSample, u):
    """Generalized inverse: the smallest atom whose cumulative weight >= u.

    For u inside the truncated top mass (u > 1 - remainder) the largest atom
    is returned, matching inf over the generated support.
    """
    uarr = np.asarray(u, dtype=float)
    if not np.all((uarr > 0.0) & (uarr <= 1.0)):  # NaN fails too
        raise ArgumentError("quantile levels must lie in (0, 1]")
    idx = np.searchsorted(sample.cdf_levels()[1:], uarr, side="left")
    idx = np.minimum(idx, sample.n_atoms - 1)
    out = sample.atoms[idx]
    return float(out) if np.isscalar(u) else out


def bisection_depth(epsilon: float) -> int:
    """K = min(52, ceil(log2(1/epsilon))), the levels a bisection quantile at
    resolution ``epsilon`` descends; its deepest splits are Beta(a 2^-K, a 2^-K)."""
    return min(_MAX_BISECTION_DEPTH, int(np.ceil(np.log2(1.0 / check_resolution(epsilon)))))


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

    Draw order per stream: when K * size * len(levels) <= _GROUPED_SPLITS
    (2^15), one ``sample_beta`` call draws every split, rows in (depth,
    replication, level) order with per-row shapes, all alpha gammas before
    all beta gammas; otherwise depth k = 0..K-1 makes one scalar-shape call
    of size * len(levels) draws, rows in (replication, level) order.  Either
    way a level in the same cell as the level before it reuses that level's
    draw, which is why ``levels`` must be nondecreasing.  Drawing every split
    before the descent changes no law: a split's shape depends only on its
    depth, and all splits are independent.
    """
    check_concentration(a)
    u = np.asarray(levels, dtype=float)
    if u.ndim != 1 or u.size == 0 or not (0.0 < u[0] and u[-1] < 1.0 and np.all(np.diff(u) >= 0)):
        raise ArgumentError("quantile levels must be a non-empty nondecreasing list inside (0, 1)")
    if int(size) < 1:
        raise ArgumentError("size must be positive")
    depth = bisection_depth(epsilon)

    n, j = int(size), u.size
    shapes = [a * 2.0 ** -(k + 1) for k in range(depth)]
    if depth * n * j <= _GROUPED_SPLITS:
        rows = np.repeat(shapes, n * j)
        shares = sample_beta(rows, rows, rng, size=rows.size).reshape(depth, n, j)
    else:
        shares = (sample_beta(s, s, rng, size=n * j).reshape(n, j) for s in shapes)
    idx = np.zeros((n, j), dtype=np.int64)  # dyadic cell at the current level
    before = np.zeros((n, j))  # mass left of the cell
    mass = np.ones((n, j))  # mass of the cell
    for share in shares:
        for c in range(1, j):
            share[:, c] = np.where(idx[:, c] == idx[:, c - 1], share[:, c - 1], share[:, c])
        left = share * mass
        right = before + left < u
        before = np.where(right, before + left, before)
        mass = np.where(right, mass - left, left)
        idx = 2 * idx + right
    return (idx + 0.5) * 2.0**-depth


def sample_fidi(a: float, measures, rng: RngStream, size: int) -> np.ndarray:
    """Ferguson marginals: ``size`` draws of (P_a(A_1), ..., P_a(A_k)) over a
    partition with cell measures H(A_j), distributed
    Dirichlet(a*H(A_1), ..., a*H(A_k)); returns shape (size, k).

    Callers take the measures from ``verify.refine_to_partition``.  Cells
    with H(A_j) <= 0 receive exactly zero mass, and a single positive cell
    exactly one.  All draws come from ``rng`` in one vectorised call.
    """
    check_concentration(a)
    measures = np.asarray(measures, dtype=float)
    n = int(size)
    if n < 1:
        raise ArgumentError("size must be positive")
    out = np.zeros((n, measures.size))
    positive = np.flatnonzero(measures > 0.0)
    if positive.size == 1:
        out[:, positive[0]] = 1.0
    else:
        out[:, positive] = sample_dirichlet(a * measures[positive], rng, size=n)
    return out


# ---------------------------------------------------------------------------
# Closed-form moments
# ---------------------------------------------------------------------------


def dp_moments(a: float, base: BaseMeasure, s: BorelSet) -> tuple[float, float]:
    """Exact (mean, variance) of P_a(S): (H(S), H(S)(1 - H(S)) / (1 + a))."""
    check_concentration(a)
    m = base.measure(s)
    return m, m * (1.0 - m) / (1.0 + a)


def posterior_mean(a: float, base: BaseMeasure, data, s: BorelSet) -> float:
    """H*(S), the mean of the posterior DP(a + n, H*) after observing ``data``
    (Ferguson 1973): H*(t) = (a H(t) + #{X_k <= t}) / (a + n) mixes the prior
    base with the empirical measure of the data."""
    check_concentration(a)
    data = np.asarray(data, dtype=float).ravel()
    if not np.all(np.isfinite(data)):
        raise ArgumentError("posterior data must be finite")
    if np.any(data[1:] < data[:-1]):  # a caller with several sets sorts once
        data = np.sort(data)
    total = 0.0
    for lo, hi in s.intervals:
        prior_mass = float(base.cdf(hi)) - float(base.cdf(lo))
        count = np.searchsorted(data, hi, side="right") - np.searchsorted(data, lo, side="right")
        total += (a * prior_mass + count) / (a + data.size)
    return total


def dp_cross_moment(a: float, base: BaseMeasure, s1: BorelSet, s2: BorelSet) -> float:
    """Exact E[P_a(S1) P_a(S2)] = (H(S1 and S2) + a H(S1) H(S2)) / (1 + a).

    For disjoint sets this reduces to a/(1+a) * H(S1) H(S2); the intersection
    term is required whenever the sets overlap.
    """
    check_concentration(a)
    m1 = base.measure(s1)
    m2 = base.measure(s2)
    m12 = base.measure(s1.intersect(s2))
    return (m12 + a * m1 * m2) / (1.0 + a)
