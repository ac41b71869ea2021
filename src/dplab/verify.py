"""Monte Carlo verification of the large-concentration limit laws.

Every check simulates Dirichlet-process functionals from counter-based
streams, then compares estimates against closed-form targets.  Checks on
Dirichlet marginals and on quantiles draw all replications of a leg in one
vectorised call from stream base + leg; stick-breaking checks give
replication r of leg l its own stream, base + l*R + r.  Every check returns
an ``McSummary`` whose verdict is a list of named checks: a comparison passes
when the estimate sits within a pinned multiple of its Monte Carlo standard
error (MEAN_TOL for headline means, MOMENT_TOL for other moment identities,
VARIANCE_TOL for the quantile family's variances; an exact rule, such as a
count that must be zero, is a comparison at zero standard error); a
distributional check passes when its Kolmogorov-Smirnov p-value exceeds
KS_LEVEL.  These multiples are the acceptance suite's and cannot be changed
by a caller or a config.  The summary passes when every check does.
Stick-breaking replication loops are data-parallel and reduce in fixed index
order, so results are independent of thread count.  Each share of such a loop
(the calling thread's, or one worker thread's) draws its realizations into
one ``dp_core.Scratch``, reused from replication to replication and dropped
when the share ends; a replication returns plain values, never a view of it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from .dp_core import (
    BaseMeasure,
    BorelSet,
    DpSample,
    Scratch,
    TruncationPolicy,
    bisection_quantiles,
    dp_cdf,
    dp_cross_moment,
    dp_moments,
    dp_quantile,
    posterior_mean,
    sample_fidi,
    stick_breaking_sample,
    uniform_base,
)
from .errors import ArgumentError, ConfigError
from .kolmogorov import kolmogorov_sf, two_sample_sf
from .processes import bb_cov, limit_quantile_cov
from .processes import (
    TvEstimate,
    check_density_concentration,
    limit_bivariate_density,
    scaled_bivariate_density,
    tv_distance_bivariate,
)
from .rvgen import RngStream
# Unused here; bench/tracing.py patches verify.sample_dirichlet by name.
from .rvgen import sample_dirichlet  # noqa: F401
from .special import ndtr_sorted

# The pass rule: comparisons at these multiples of their standard error,
# Kolmogorov-Smirnov checks at this level.
MEAN_TOL = 3.0
MOMENT_TOL = 4.0
VARIANCE_TOL = 5.0
KS_LEVEL = 0.01

# Fewest replications moment_check accepts, and fewest concentrations gc_study
# can fit a decay rate to.
MIN_MOMENT_REPLICATIONS = 1000
MIN_GC_A_VALUES = 2

# Acceptance window for gc_study's fitted log-log decay rate of the sup-norm.
GC_RATE_WINDOW = (-0.6, -0.4)

# How far a density_convergence_study gap column may rise from one
# concentration to the next, and the exact density's integral sit from one.
DENSITY_SLACK = 1e-3

# The density family's pointwise-gap grid, per axis.
DENSITY_GRID = np.linspace(-2.5, 2.5, 11)

# Smallest scratch, in doubles, that replication 0 of a map_replications loop
# must have filled for the rest to fan out.  A stick-breaking replication's
# scratch is fixed by its stick budget; smaller ones hold the GIL between
# numpy calls and run no faster, or slower, on two threads than on one.  On a
# shared 2-core machine two threads start to win near 11k entries for a
# sampler-only replication (a = 150) and 43k for a gc one (a = 300); 2^15,
# between the two, fans out gc loops from a = 230, about break-even, and
# sampler-only loops from a = 450 (README, "Determinism and parallelism").
MIN_PARALLEL_ENTRIES = 1 << 15

# Largest equal sample size for which ks_two_sample_check computes the exact
# two-sample law, as scipy's ks_2samp does.
_KS_EXACT_MAX = 10_000

_DL_SLACK = 1e-12

# Most segments _deviation_stats works at once; math.fsum adds the chunks'
# np.sum values exactly rounded, replaying no library's summation order.
_CHUNK = 1 << 15

_SUMMARY_HEADER = ["kind", "name", "estimate", "se", "target", "tolerance_se", "one_sided", "passed"]

# An artifact table: (CSV header, rows of raw values).
Table = tuple[list[str], list[list]]


# ---------------------------------------------------------------------------
# Result containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Comparison:
    """One estimate-versus-target check at a stated SE multiple.

    Two-sided: passes iff |estimate - target| <= tolerance_se * standard_error.
    One-sided: passes iff estimate - target <= tolerance_se * standard_error.
    With zero standard error the check degenerates to (in)equality.
    """

    name: str
    estimate: float
    standard_error: float
    target: float
    tolerance_se: float
    one_sided: bool
    passed: bool

    @classmethod
    def build(cls, name, estimate, standard_error, target, tolerance_se, one_sided=False):
        estimate = float(estimate)
        standard_error = float(standard_error)
        target = float(target)
        gap = estimate - target
        slack = tolerance_se * standard_error
        passed = bool(gap <= slack) if one_sided else bool(abs(gap) <= slack)
        return cls(name, estimate, standard_error, target, float(tolerance_se), one_sided, passed)


@dataclass(frozen=True)
class LevelCheck:
    """A goodness-of-fit statistic checked at a significance level:
    passes iff p_value > level."""

    name: str
    statistic: float
    p_value: float
    level: float
    passed: bool

    @classmethod
    def build(cls, name, statistic, p_value, level):
        return cls(name, float(statistic), float(p_value), float(level), bool(p_value > level))


@dataclass(eq=False)
class McSummary:
    """Outcome of one Monte Carlo experiment.

    ``estimates`` maps a name to (value, standard_error); ``comparisons`` and
    ``level_checks`` carry the pass/fail verdicts, and ``compare`` records an
    estimate with its comparison; ``seed_info`` records the
    master seed and the inclusive stream-index range consumed (None when the
    experiment draws nothing).  A stick-breaking replication can be
    reproduced alone from its stream; a Dirichlet-marginal leg only whole,
    from its one stream.  ``tables`` holds CSV tables written besides the
    summary, and ``details`` extra JSON entries.
    """

    replications: int = 0
    estimates: dict[str, tuple[float, float]] = field(default_factory=dict)
    comparisons: list[Comparison] = field(default_factory=list)
    level_checks: list[LevelCheck] = field(default_factory=list)
    seed_info: tuple[int, tuple[int, int]] | None = None
    tables: dict[str, Table] = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in [*self.comparisons, *self.level_checks])

    def compare(self, name, estimate, target, tol) -> None:
        """Record ``estimate``, a (value, standard error) pair, under ``name``
        and compare it with ``target`` at ``tol`` standard errors."""
        self.estimates[name] = estimate
        self.comparisons.append(Comparison.build(name, *estimate, target, tol))

    def csv_tables(self) -> dict[str, Table]:
        """The extra tables, then the summary: one row per estimate,
        comparison and level check."""
        rows = [
            ["estimate", name, value, se, None, None, None, None]
            for name, (value, se) in self.estimates.items()
        ]
        rows += [
            ["comparison", c.name, c.estimate, c.standard_error, c.target, c.tolerance_se,
             c.one_sided, c.passed]
            for c in self.comparisons
        ]
        rows += [
            ["level_check", c.name, c.statistic, None, c.level, None, None, c.passed]
            for c in self.level_checks
        ]
        return {**self.tables, "summary": (_SUMMARY_HEADER, rows)}

    def to_json(self) -> dict:
        seed_info = self.seed_info and {
            "master_seed": self.seed_info[0], "stream_range": list(self.seed_info[1])
        }
        return {
            "type": "mc_summary",
            "replications": self.replications,
            "seed_info": seed_info,
            "estimates": {k: [v, se] for k, (v, se) in self.estimates.items()},
            "comparisons": [
                {"name": c.name, "estimate": c.estimate, "se": c.standard_error, "target": c.target,
                 "tolerance_se": c.tolerance_se, "one_sided": c.one_sided, "pass": c.passed}
                for c in self.comparisons
            ],
            "level_checks": [
                {"name": c.name, "statistic": c.statistic, "p_value": c.p_value, "level": c.level,
                 "pass": c.passed}
                for c in self.level_checks
            ],
            "pass": self.passed,
            **self.details,
        }


# ---------------------------------------------------------------------------
# Argument rules, also run by the config validator
# ---------------------------------------------------------------------------


def check_a_values(a_values: Sequence[float], min_count: int = 1) -> np.ndarray:
    """The concentrations as an array; they must number at least
    ``min_count`` and be finite, positive and strictly increasing."""
    a_values = np.asarray(a_values, dtype=float)
    finite = np.isfinite(a_values).all()  # NaN fails no comparison, so it is tested alone
    if a_values.size < min_count or not finite or np.any(np.diff([0.0, *a_values]) <= 0):
        raise ArgumentError(
            f"a_values must be finite, positive, strictly increasing, at least {min_count} of them"
        )
    return a_values


def check_levels(u_points: Sequence[float]) -> list[float]:
    """The quantile levels as floats; each must lie strictly inside (0, 1),
    and no two may be equal."""
    u_points = [float(u) for u in u_points]
    if any(not 0.0 < u < 1.0 for u in u_points):
        raise ArgumentError("u_points must lie strictly inside (0, 1)")
    if len(set(u_points)) < len(u_points):
        raise ArgumentError("u_points must be distinct")
    return u_points


def check_modulus_points(t1: float, t: float, t2: float) -> None:
    if not 0.0 <= t1 <= t <= t2 <= 1.0:
        raise ArgumentError("need 0 <= t1 <= t <= t2 <= 1")


def check_moment_replications(replications: int) -> None:
    if replications < MIN_MOMENT_REPLICATIONS:
        raise ArgumentError(f"moment_check needs at least {MIN_MOMENT_REPLICATIONS} replications")


# ---------------------------------------------------------------------------
# Monte Carlo plumbing
# ---------------------------------------------------------------------------


def resolve_threads() -> int:
    """Worker threads for replication loops: DPLAB_THREADS, at most one per
    CPU; zero, negative or unset means one per CPU."""
    env = os.environ.get("DPLAB_THREADS", "").strip()
    try:
        threads = int(env) if env else 0
    except ValueError:
        raise ConfigError("DPLAB_THREADS", f"expected an integer, got {env!r}") from None
    cpus = os.cpu_count() or 1
    return min(threads, cpus) if threads > 0 else cpus


def map_replications(
    fn: Callable[[RngStream, Scratch], np.ndarray],
    replications: int,
    master_seed: int,
    base_stream: int = 0,
) -> np.ndarray:
    """Evaluate ``fn(rng, scratch)`` once per replication, replication r on
    stream base_stream + r, and stack the results as rows.

    Replication 0 runs on the calling thread.  The rest fan out over up to
    ``resolve_threads()`` worker threads only when its scratch came to hold
    at least MIN_PARALLEL_ENTRIES doubles; smaller replications are bound by
    the GIL and stay on the calling thread.  Each share of the replications
    (the calling thread's, or one worker's) draws into one ``Scratch`` that
    lives as long as the share, so ``fn`` must return nothing that views it.
    Rows are written into a preallocated array keyed by index and reduced in
    fixed order afterwards, so the output is identical for any thread count.
    """
    replications = int(replications)
    if replications < 1:
        raise ArgumentError("replications must be positive")
    scratch = Scratch()
    first = fn(RngStream(master_seed, base_stream), scratch)
    first = np.atleast_1d(np.asarray(first, dtype=float))
    out = np.empty((replications, first.size))
    out[0] = first

    def run_range(lo: int, hi: int, scratch: Scratch) -> None:
        for r in range(lo, hi):
            out[r] = fn(RngStream(master_seed, base_stream + r), scratch)

    threads = min(resolve_threads(), replications - 1)
    if threads <= 1 or scratch.entries < MIN_PARALLEL_ENTRIES:
        run_range(1, replications, scratch)
    else:
        # Imported here: with logging it costs every process about 3 ms and
        # 0.6 MiB, and most runs never fan out.
        from concurrent.futures import ThreadPoolExecutor

        del scratch  # the calling thread's share ends with replication 0
        bounds = np.linspace(1, replications, threads + 1).astype(int)
        with ThreadPoolExecutor(max_workers=threads) as pool:
            scratches = [Scratch() for _ in range(threads)]
            list(pool.map(run_range, bounds[:-1], bounds[1:], scratches))
    return out


def mc_mean_se(x: np.ndarray) -> tuple[float, float]:
    x = np.asarray(x, dtype=float)
    n = x.size
    se = float(x.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return float(x.mean()), se


def mc_var_se(x: np.ndarray) -> tuple[float, float]:
    """Sample variance with its delta-method standard error
    sqrt((m4 - s^4) / n), m4 the fourth central moment."""
    x = np.asarray(x, dtype=float)
    n = x.size
    centered = x - x.mean()
    s2 = float(centered @ centered / (n - 1))
    squares = centered * centered
    m4 = float(np.mean(squares * squares))
    se = float(np.sqrt(max(m4 - s2 * s2, 0.0) / n))
    return s2, se


def mc_cov_se(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Sample covariance with the standard error of the mean cross product."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    prod = (x - x.mean()) * (y - y.mean())
    cov = float(prod.sum() / (n - 1))
    se = float(prod.std(ddof=1) / np.sqrt(n))
    return cov, se


# The KS checks compute their statistics as scipy's kstest and ks_2samp do,
# with the same operations in the same order and scipy's normal cdf
# (dplab.special), and their p-values with dplab.kolmogorov: scipy takes
# longer to import than most runs take.  A sample holding NaN gives a NaN
# statistic and p-value, so its check fails.
def ks_normal_check(name: str, sample: np.ndarray) -> LevelCheck:
    """One-sample KS test of ``sample`` against N(0, 1)."""
    x = np.sort(np.asarray(sample, dtype=float))
    n = x.size
    cdf = ndtr_sorted(x)
    d_plus = (np.arange(1.0, n + 1) / n - cdf).max()
    d_minus = (cdf - np.arange(0.0, n) / n).max()
    stat = d_plus if d_plus > d_minus else d_minus
    return LevelCheck.build(name, stat, kolmogorov_sf(n, float(stat)), KS_LEVEL)


def ks_two_sample_check(name, x, y) -> LevelCheck:
    """Two-sample KS test of equal-size samples ``x`` and ``y``: exact for
    up to 10^4 each, Kolmogorov's law at n/2 beyond."""
    x = np.sort(np.asarray(x, dtype=float))
    y = np.sort(np.asarray(y, dtype=float))
    n = x.size
    if y.size != n:
        raise ArgumentError(f"ks_two_sample_check needs equal sizes, got {n} and {y.size}")
    if np.isnan(x).any() or np.isnan(y).any():
        return LevelCheck.build(name, np.nan, np.nan, KS_LEVEL)
    both = np.concatenate([x, y])
    diffs = np.searchsorted(x, both, side="right") / n - np.searchsorted(y, both, side="right") / n
    below = np.clip(-diffs.min(), 0, 1)
    above = diffs.max()
    stat = below if below > above else above
    if n > _KS_EXACT_MAX:
        return LevelCheck.build(name, stat, kolmogorov_sf(round(n / 2), float(stat)), KS_LEVEL)
    h = int(np.round(stat * n))
    # At h = 1 the tail is one, and the recursion can round a few ulps past it.
    p = min(two_sample_sf(n, h), 1.0) if h else 1.0
    return LevelCheck.build(name, h / n, p, KS_LEVEL)


# ---------------------------------------------------------------------------
# Partitions: Borel sets cut into segments at the ends of their intervals
# ---------------------------------------------------------------------------


def _intervals(sets: Sequence[BorelSet]) -> tuple[np.ndarray, np.ndarray]:
    """Every interval of ``sets`` as a row (lo, hi), and the index of its set."""
    ends = np.array([pair for s in sets for pair in s.intervals], dtype=float).reshape(-1, 2)
    return ends, np.repeat(np.arange(len(sets)), [len(s.intervals) for s in sets])


def cut_points(sets: Sequence[BorelSet], base: BaseMeasure) -> np.ndarray:
    """The sorted distinct ends of the base's support and of the sets'
    intervals, both ends clipped into the support: the bounds of the
    segments.  An interval outside the support adds no segment."""
    cuts = np.sort(np.append(np.clip(_intervals(sets)[0], *base.support), base.support))
    # np.unique's result, without the 0.8 MiB of resident memory its first call adds
    return cuts[np.append(True, cuts[1:] != cuts[:-1])]


def _check_masses(masses: np.ndarray) -> None:
    if np.any(masses < -1e-12):
        raise ArgumentError("a cell has negative measure")
    if abs(masses.sum() - 1.0) > 1e-9:
        raise ArgumentError(f"cell measures sum to {masses.sum():.12g}, expected 1 within 1e-9")


def refine_to_partition(sets: Sequence[BorelSet], base: BaseMeasure) -> tuple[np.ndarray, ...]:
    """Cut the line at ``cut_points(sets, base)``.  Returns the cut points,
    the H-masses of the segments between them (ArgumentError unless they
    are non-negative and sum to one within 1e-9), and a membership matrix,
    1.0 at (i, j) when segment j lies inside set i and 0.0 elsewhere, so a
    set's mass is the sum of its segments' masses."""
    cuts = cut_points(sets, base)
    masses = np.diff(base.cdf(cuts))
    _check_masses(masses)
    ends, owner = _intervals(sets)
    ends = np.clip(ends, *base.support)  # as cut_points does: outside, an empty interval
    # segment j lies inside (lo, hi] when lo <= cuts[j] and cuts[j + 1] <= hi
    first = np.searchsorted(cuts, ends[:, 0], side="left")
    stop = np.searchsorted(cuts, ends[:, 1], side="right") - 1
    member = np.zeros((len(sets), cuts.size - 1))
    for i, j, k in zip(owner, first, stop):
        member[i, j:k] = 1.0
    return cuts, masses, member


def check_partition(cells: Sequence[BorelSet], masses: np.ndarray) -> None:
    """ArgumentError unless there is a cell, no two cells overlap (outside
    the support too) and the cells' ``masses`` are non-negative and sum to
    one within 1e-9.  Sorted by left end, an interval that overlaps an
    earlier one overlaps its neighbour, so only neighbours are compared."""
    if not len(cells):
        raise ArgumentError("partition must contain at least one cell")
    ends, owner = _intervals(cells)
    order = np.argsort(ends[:, 0])
    clash = np.flatnonzero(ends[order[1:], 0] < ends[order[:-1], 1])
    if clash.size:
        i, j = sorted(owner[order[clash[0] : clash[0] + 2]])
        raise ArgumentError(f"cells {i} and {j} overlap")
    _check_masses(masses)


def realization_masses(sample: DpSample, cuts: np.ndarray, member: np.ndarray) -> np.ndarray:
    """The masses of ``refine_to_partition``'s sets under the realization,
    remainder excluded, from one ``dp_cdf`` call at the cut points."""
    return member @ np.diff(dp_cdf(sample, cuts))


# ---------------------------------------------------------------------------
# Moment identities
# ---------------------------------------------------------------------------


def _moment_checks(
    summary: McSummary, a: float, base: BaseMeasure, sets: Sequence[BorelSet], vals: np.ndarray,
    prefix: str, mean_k: float,
) -> None:
    """Record in ``summary`` the mean and variance of each column of ``vals``
    (replications of the masses P_a gives ``sets``) and each pairwise
    cross-moment, compared with their closed forms; names carry ``prefix``.
    Means are judged at ``mean_k`` (MEAN_TOL when they are the headline,
    MOMENT_TOL otherwise), the rest at MOMENT_TOL."""
    for i, s in enumerate(sets):
        m, v = dp_moments(a, base, s)
        col = vals[:, i]
        summary.compare(f"{prefix}mean[S{i + 1}]", mc_mean_se(col), m, mean_k)
        summary.compare(f"{prefix}var[S{i + 1}]", mc_var_se(col), v, MOMENT_TOL)
    for i, j in combinations(range(len(sets)), 2):
        target = dp_cross_moment(a, base, sets[i], sets[j])
        cross = mc_mean_se(vals[:, i] * vals[:, j])
        summary.compare(f"{prefix}cross[S{i + 1},S{j + 1}]", cross, target, MOMENT_TOL)


def moment_check(
    a: float,
    base: BaseMeasure,
    sets: Sequence[BorelSet],
    replications: int,
    seed: int,
    *,
    base_stream: int = 0,
) -> McSummary:
    """Monte Carlo means, variances, and pairwise cross-moments of P_a over
    the sets, each against its closed form; all replications come from
    stream base_stream."""
    check_moment_replications(replications)
    _, measures, member = refine_to_partition(sets, base)
    draws = sample_fidi(a, measures, RngStream(seed, base_stream), size=replications)
    summary = McSummary(replications, seed_info=(seed, (base_stream, base_stream)))
    _moment_checks(summary, a, base, sets, draws @ member.T, "", MEAN_TOL)
    return summary


# ---------------------------------------------------------------------------
# Increment-product modulus bound
# ---------------------------------------------------------------------------


def modulus_check(
    a: float,
    t1: float,
    t: float,
    t2: float,
    replications: int,
    seed: int,
    *,
    base_stream: int = 0,
) -> McSummary:
    """Estimate E[(P_a(t) - P_a(t1)) (P_a(t2) - P_a(t))] under the uniform
    base, compare it with the exact a/(a+1) (t - t1)(t2 - t), and assert the
    quadratic modulus bound a/(a+1) (t2 - t1)^2.  All replications come from
    stream base_stream; an empty increment is exactly zero in every one."""
    check_modulus_points(t1, t, t2)
    w1, w2 = t - t1, t2 - t
    exact = a / (a + 1.0) * w1 * w2
    bound = a / (a + 1.0) * (t2 - t1) ** 2
    measures = [w1, w2, 1.0 - w1 - w2]
    p = sample_fidi(a, measures, RngStream(seed, base_stream), size=replications)
    mean, se = mc_mean_se(p[:, 0] * p[:, 1])
    summary = McSummary(replications, seed_info=(seed, (base_stream, base_stream)))
    summary.compare("increment_product", (mean, se), exact, MOMENT_TOL)
    summary.comparisons.append(
        Comparison.build("increment_product_bound", mean, se, bound, MOMENT_TOL, one_sided=True)
    )
    return summary


# ---------------------------------------------------------------------------
# Finite-dimensional normality
# ---------------------------------------------------------------------------


def fidi_normality_check(
    a: float,
    sets: Sequence[BorelSet],
    replications: int,
    seed: int,
    *,
    base_stream: int = 0,
) -> McSummary:
    """Simulate the centered-scaled vector (sqrt(a)(P_a(S_i) - lam(S_i)))_i
    under the uniform base and check mean, covariance, and marginal normality
    against the Brownian-bridge limit; all replications come from stream
    base_stream."""
    lam = uniform_base()
    _, measures, member = refine_to_partition(sets, lam)
    set_masses = member @ measures
    draws = sample_fidi(a, measures, RngStream(seed, base_stream), size=replications)
    vals = np.sqrt(a) * (draws @ member.T - set_masses)

    summary = McSummary(replications, seed_info=(seed, (base_stream, base_stream)))
    for i in range(len(sets)):
        summary.compare(f"mean[S{i + 1}]", mc_mean_se(vals[:, i]), 0.0, MOMENT_TOL)
    for i in range(len(sets)):
        for j in range(i, len(sets)):
            est = mc_var_se(vals[:, i]) if i == j else mc_cov_se(vals[:, i], vals[:, j])
            target = bb_cov(sets[i], sets[j], lam)
            summary.compare(f"cov[S{i + 1},S{j + 1}]", est, target, MOMENT_TOL)
    for i in range(len(sets)):
        sd = np.sqrt(set_masses[i] * (1.0 - set_masses[i]))
        if sd > 0:
            summary.level_checks.append(ks_normal_check(f"ks_normal[S{i + 1}]", vals[:, i] / sd))
    return summary


# ---------------------------------------------------------------------------
# Exact uniform distance and squared-deviation integral
# ---------------------------------------------------------------------------


def _deviation_stats(
    sample: DpSample, base: BaseMeasure, scratch: Scratch | None = None
) -> tuple[float, float]:
    """Exact (sup-norm, integral of squared deviation dH) of P_a - H.

    Both are computed after mapping atoms through H, where P_a - H becomes a
    step function against the identity: the sup is attained at an atom (from
    the left or the right), and the integral is a closed-form sum of cubics
    over the inter-atom segments.  The segments are worked at most _CHUNK at
    a time, in the buffers of ``scratch`` when one is given, so no array as
    long as the realization is made.  math.fsum adds the chunks' np.sum
    values, exactly rounded, in no order replayed from numpy.
    """
    buffers = Scratch() if scratch is None else scratch
    atoms, lev = sample.atoms, sample.cdf_levels()
    n = atoms.size
    sup, pieces = 0.0, []

    # Segment k runs from H-level s_{k-1} to s_k (s_{-1} = 0, s_n = 1) at cdf
    # level lev[k]; d and e are P_a - H at its left and right ends, and the
    # integral over it of (lev[k] - x)^2 dx is (d_k^3 - e_k^3) / 3.
    for lo in range(0, n + 1, _CHUNK):
        hi = min(lo + _CHUNK, n + 1)
        m, first, last = hi - lo, max(lo - 1, 0), min(hi, n)
        s = buffers.take("s", m + 1)  # s_{lo-1} .. s_{hi-1}
        s[0], s[m] = 0.0, 1.0  # s_{-1} and s_n, unless the run's atoms cover them
        s[first - lo + 1 : last - lo + 1] = base.cdf(atoms[first:last])
        d, e = buffers.take("d", m), buffers.take("e", m)
        np.subtract(lev[lo:hi], s[:m], out=d)
        np.subtract(lev[lo:hi], s[1:], out=e)
        sup = max(sup, float(d.max()), float(-e.min()))
        cubes = s[:m]  # the H-levels are spent; reuse their buffer
        np.multiply(d, d, out=cubes)
        cubes *= d
        np.multiply(e, e, out=d)
        d *= e
        cubes -= d
        pieces.append(float(np.sum(cubes)))

    return sup, math.fsum(pieces) / 3.0


def sup_deviation(sample: DpSample, base: BaseMeasure) -> float:
    """Exact sup over the real line of |P_a(x) - H(x)|."""
    return _deviation_stats(sample, base)[0]


def cvm_deviation(sample: DpSample, base: BaseMeasure) -> float:
    """Exact integral of (P_a(x) - H(x))^2 dH(x)."""
    return _deviation_stats(sample, base)[1]


def donoho_liu_bounds(sup_dev, cvm) -> tuple:
    """(d^3/3, integral of squared deviation, whether the cubic lower bound
    d^3/3 <= integral holds); elementwise when given arrays."""
    lhs = sup_dev**3 / 3.0
    return lhs, cvm, lhs <= cvm + _DL_SLACK


def _gc_comparisons(mean_sup: np.ndarray, rate: float, violations: int) -> list[Comparison]:
    """The gc verdict as exact comparisons at zero standard error: no step
    of the mean sup-norm that fails to fall, the fitted rate inside
    GC_RATE_WINDOW (its upper end on ``fitted_rate``, its lower end on
    ``neg_fitted_rate``), and no sample that broke the cubic bound."""
    lo, hi = GC_RATE_WINDOW
    nonfalling = int(np.sum(~(np.diff(mean_sup) < 0.0)))
    return [
        Comparison.build("mean_sup_nonfalling_steps", nonfalling, 0.0, 0.0, 0.0),
        Comparison.build("fitted_rate", rate, 0.0, hi, 0.0, one_sided=True),
        Comparison.build("neg_fitted_rate", -rate, 0.0, -lo, 0.0, one_sided=True),
        Comparison.build("cubic_bound_violations", violations, 0.0, 0.0, 0.0),
    ]


def gc_study(
    a_values: Sequence[float],
    base: BaseMeasure,
    replications: int,
    seed: int,
    *,
    epsilon: float = 1e-10,
    base_stream: int = 0,
) -> McSummary:
    """Uniform-convergence study: per concentration, the Monte Carlo means
    of the exact sup-norm and squared-deviation integral (the ``curve``
    table), the deviation-bound sweep, and a least-squares log-log decay
    rate of the mean sup-norm; ``_gc_comparisons`` gives the verdict.
    Stick-breaking stops once the remaining mass drops below ``epsilon``.

    Leg l (for a_values[l]) uses stream indices base_stream + l*replications + r.
    """
    a_values = check_a_values(a_values, MIN_GC_A_VALUES)
    trunc = TruncationPolicy(epsilon)

    n_samples = int(replications) * a_values.size
    summary = McSummary(n_samples, seed_info=(seed, (base_stream, base_stream + n_samples - 1)))
    curve = np.empty((a_values.size, 5))  # a, mean_sup, se_sup, mean_cvm, se_cvm
    curve[:, 0] = a_values
    violations = 0
    for leg, a in enumerate(a_values):

        def rep(rng: RngStream, scratch: Scratch, a=a) -> np.ndarray:
            sample = stick_breaking_sample(a, base, trunc, rng, scratch)
            return np.array(_deviation_stats(sample, base, scratch))

        leg_stream = base_stream + leg * replications
        vals = map_replications(rep, replications, seed, leg_stream)
        curve[leg, 1:3] = summary.estimates[f"a={a:g}/mean_sup"] = mc_mean_se(vals[:, 0])
        curve[leg, 3:5] = summary.estimates[f"a={a:g}/mean_cvm"] = mc_mean_se(vals[:, 1])
        violations += int(np.sum(~donoho_liu_bounds(vals[:, 0], vals[:, 1])[2]))

    mean_sup = curve[:, 1]
    rate = float(np.polyfit(np.log(a_values), np.log(mean_sup), 1)[0])
    summary.estimates["fitted_rate"] = (rate, 0.0)
    summary.comparisons = _gc_comparisons(mean_sup, rate, violations)
    summary.tables["curve"] = (["a", "mean_sup", "se_sup", "mean_cvm", "se_cvm"], curve.tolist())
    summary.details = {
        "a_values": a_values.tolist(),
        "mean_sup": mean_sup.tolist(),
        "fitted_rate": rate,
        "dl_checked": n_samples,
        "dl_violations": violations,
    }
    return summary


# ---------------------------------------------------------------------------
# Representation agreement (stick-breaking vs finite-dimensional marginals)
# ---------------------------------------------------------------------------


def representation_check(
    a: float,
    base: BaseMeasure,
    cells: Sequence[BorelSet],
    replications: int,
    seed: int,
    *,
    trunc: TruncationPolicy | None = None,
    base_stream: int = 0,
) -> McSummary:
    """Compare the two exact representations over one partition: cell masses
    from truncated stick-breaking against Dirichlet marginals, by coordinate
    two-sample KS tests and by first/second moments against the closed forms.

    Stick replications use streams base..base+R-1, and all R marginal draws
    come from stream base+R.
    """
    trunc = trunc or TruncationPolicy()
    cuts, segments, member = refine_to_partition(cells, base)
    measures = member @ segments
    check_partition(cells, measures)

    def stick_rep(rng: RngStream, scratch: Scratch) -> np.ndarray:
        sample = stick_breaking_sample(a, base, trunc, rng, scratch)
        return realization_masses(sample, cuts, member)

    sticks = map_replications(stick_rep, replications, seed, base_stream)
    fidi_stream = RngStream(seed, base_stream + replications)
    fidis = sample_fidi(a, measures, fidi_stream, size=replications)

    summary = McSummary(
        2 * replications, seed_info=(seed, (base_stream, base_stream + replications))
    )
    _moment_checks(summary, a, base, cells, sticks, "stick_", MOMENT_TOL)
    _moment_checks(summary, a, base, cells, fidis, "fidi_", MOMENT_TOL)
    summary.level_checks = [
        ks_two_sample_check(f"ks_2samp[S{i + 1}]", sticks[:, i], fidis[:, i])
        for i in range(len(cells))
    ]
    return summary


def quantile_sampler_check(a: float, replications: int, seed: int) -> McSummary:
    """Compare the two exact quantile samplers of DP(a, U[0, 1]): quartiles
    of stick-breaking realizations against ``bisection_quantiles``, both at
    the default truncation epsilon, by two-sample KS tests on Q(.25), Q(.5),
    Q(.75) and Q(.75) - Q(.25).

    Stick replications use streams 0..R-1, and all R bisection draws come
    from stream R.
    """
    trunc = TruncationPolicy()
    levels = np.array([0.25, 0.5, 0.75])
    uniform = uniform_base()

    def stick_rep(rng: RngStream, scratch: Scratch) -> np.ndarray:
        return dp_quantile(stick_breaking_sample(a, uniform, trunc, rng, scratch), levels)

    sticks = map_replications(stick_rep, replications, seed)
    bisect_stream = RngStream(seed, replications)
    bisect = bisection_quantiles(a, levels, bisect_stream, replications, trunc.epsilon)

    level_checks = [
        ks_two_sample_check(f"ks_2samp[Q({u:g})]", sticks[:, i], bisect[:, i])
        for i, u in enumerate(levels)
    ]
    level_checks.append(ks_two_sample_check(
        "ks_2samp[iqr]", sticks[:, 2] - sticks[:, 0], bisect[:, 2] - bisect[:, 0]
    ))
    return McSummary(
        2 * replications, level_checks=level_checks, seed_info=(seed, (0, replications))
    )


# ---------------------------------------------------------------------------
# Posterior conjugacy
# ---------------------------------------------------------------------------


def posterior_check(
    a: float,
    base: BaseMeasure,
    data,
    sets: Sequence[BorelSet],
    replications: int,
    seed: int,
    *,
    base_stream: int = 0,
) -> McSummary:
    """Conjugacy: after observing n = ``np.size(data)`` points the posterior
    is DP(a + n, H*), so the posterior mass of each test set, drawn as a
    Dirichlet marginal at concentration a + n, has Monte Carlo mean
    ``posterior_mean``.  The concentration is recorded as the exact row
    ``a_star``.  Set i's replications come from stream base_stream + i."""
    data = np.sort(np.asarray(data, dtype=float).ravel())
    a_star = a + data.size
    summary = McSummary(
        replications * len(sets), seed_info=(seed, (base_stream, base_stream + len(sets) - 1))
    )
    summary.compare("a_star", (a_star, 0.0), a_star, 0.0)
    for i, s in enumerate(sets):
        m = posterior_mean(a, base, data, s)
        rng = RngStream(seed, base_stream + i)
        vals = sample_fidi(a_star, [m, 1.0 - m], rng, size=replications)[:, 0]
        summary.compare(f"posterior_mean[S{i + 1}]", mc_mean_se(vals), m, MOMENT_TOL)
    return summary


# ---------------------------------------------------------------------------
# Quantile-process limits
# ---------------------------------------------------------------------------


def quantile_limit_study(
    a_values: Sequence[float],
    base: BaseMeasure,
    u_points: Sequence[float],
    replications: int,
    seed: int,
    *,
    epsilon: float = 1e-10,
    base_stream: int = 0,
) -> McSummary:
    """Quantile-process limit checks per concentration: the covariance matrix
    of Q_a at the requested levels, the variance of the scaled median and
    interquartile-range deviations, and normality of the standardized median,
    all against the limiting Gaussian covariance.

    A disputed alternative coefficient set for the interquartile-range
    variance circulates (3/h^2(q3) + 3/(16 h^2(q1)) - 2/(h(q1) h(q3))); it is
    recorded in the estimates so every run carries the adjudication evidence,
    but the comparison target is the value implied by the limit covariance.
    Quantiles are drawn under the uniform base by ``bisection_quantiles`` and
    mapped through the base quantile, which commutes with taking quantiles;
    ``epsilon`` is the bisection resolution (each quantile lies within
    epsilon of the exact one in H-level).  Leg l draws all its replications
    from stream base_stream + l.
    """
    a_values = check_a_values(a_values)
    u_points = check_levels(u_points)

    u_all = sorted(set(u_points) | {0.25, 0.5, 0.75})
    u_arr = np.array(u_all)
    col = {u: i for i, u in enumerate(u_all)}

    cov = {(u, v): limit_quantile_cov(u, v, base) for u in u_all for v in u_all}
    median_target = cov[0.5, 0.5]
    iqr_target = cov[0.75, 0.75] + cov[0.25, 0.25] - 2.0 * cov[0.25, 0.75]
    h1 = float(base.density(base.quantile(0.25)))
    h3 = float(base.density(base.quantile(0.75)))
    printed_iqr = 3.0 / h3**2 + 3.0 / (16.0 * h1**2) - 2.0 / (h1 * h3)

    summary = McSummary(
        int(replications) * a_values.size,
        seed_info=(seed, (base_stream, base_stream + a_values.size - 1)),
    )
    summary.estimates["iqr_var_printed_reference"] = (printed_iqr, 0.0)
    summary.estimates["iqr_var_limit_target"] = (iqr_target, 0.0)
    base_quantiles = np.asarray(base.quantile(u_arr), dtype=float)

    for leg, a in enumerate(a_values):
        rng = RngStream(seed, base_stream + leg)
        q = bisection_quantiles(a, u_arr, rng, replications, epsilon)
        vals = np.sqrt(a) * (np.asarray(base.quantile(q), dtype=float) - base_quantiles)
        tag = f"a={a:g}"

        for i, ui in enumerate(u_points):
            for uj in u_points[i:]:
                x, y = vals[:, col[ui]], vals[:, col[uj]]
                est = mc_var_se(x) if ui == uj else mc_cov_se(x, y)
                name = f"{tag}/qcov[{ui:g},{uj:g}]"
                summary.compare(name, est, cov[ui, uj], VARIANCE_TOL)

        med = vals[:, col[0.5]]
        summary.compare(f"{tag}/median_var", mc_var_se(med), median_target, VARIANCE_TOL)
        iqr_dev = vals[:, col[0.75]] - vals[:, col[0.25]]
        summary.compare(f"{tag}/iqr_var", mc_var_se(iqr_dev), iqr_target, VARIANCE_TOL)
        summary.level_checks.append(
            ks_normal_check(f"{tag}/ks_median", med / np.sqrt(median_target))
        )
    return summary


# ---------------------------------------------------------------------------
# Bivariate density convergence
# ---------------------------------------------------------------------------


def _density_comparisons(a_values, max_gaps, tvs, integrals, converged) -> list[Comparison]:
    """The density verdict as exact comparisons at zero standard error:
    each rise of the gap and TV columns from one concentration to the next
    at most DENSITY_SLACK, each integral of the exact density within
    DENSITY_SLACK of one, and no quadrature that stopped at
    ``processes.N_MAX`` before meeting ``processes.QUAD_TOL``."""
    steps = [
        (f"{column}_step[a={a:g}]", step)
        for column, values in (("max_gap", max_gaps), ("tv", tvs))
        for a, step in zip(a_values[1:], np.diff(values))
    ]
    steps += [(f"integral_error[a={a:g}]", abs(v - 1.0)) for a, v in zip(a_values, integrals)]
    unconverged = sum(not ok for ok in converged)
    return [
        *(Comparison.build(name, x, 0.0, DENSITY_SLACK, 0.0, one_sided=True) for name, x in steps),
        Comparison.build("unconverged_quadratures", unconverged, 0.0, 0.0, 0.0),
    ]


def density_convergence_study(
    l1: float,
    l2: float,
    a_values: Sequence[float],
    integrals: Sequence[TvEstimate],
) -> McSummary:
    """Tabulate, per concentration, the max pointwise gap on the tensor grid
    DENSITY_GRID x DENSITY_GRID and the total-variation distance between the
    exact scaled bivariate density and its Gaussian limit, as the ``gap`` table.  ``integrals``
    are the quadratures of the exact density, one per concentration.
    ``_density_comparisons`` gives the verdict; quadratures report their
    refinement error as their standard error.  Nothing is drawn."""
    a_values = check_a_values(a_values)
    for a in a_values:
        check_density_concentration(l1, l2, a)
    if len(integrals) != a_values.size:
        raise ArgumentError("need one density integral per concentration")
    g = DENSITY_GRID
    flim = limit_bivariate_density(g[:, None], g[None, :], l1, l2)
    origin = float(limit_bivariate_density(0.0, 0.0, l1, l2))
    summary = McSummary(estimates={"limit_density_at_origin": (origin, 0.0)})
    rows, tvs = [], []
    for a, integral in zip(a_values, integrals):
        fa = scaled_bivariate_density(g[:, None], g[None, :], l1, l2, a)
        tv = tv_distance_bivariate(l1, l2, a)
        tvs.append(tv)
        rows.append([float(a), float(np.max(np.abs(fa - flim))), tv.value, tv.quad_error])
        summary.estimates[f"tv[a={a:g}]"] = (tv.value, tv.quad_error)
        summary.estimates[f"integral[a={a:g}]"] = (integral.value, integral.quad_error)
    summary.comparisons = _density_comparisons(
        a_values,
        [row[1] for row in rows],
        [tv.value for tv in tvs],
        [est.value for est in integrals],
        [est.converged for est in [*tvs, *integrals]],
    )
    summary.tables["gap"] = (["a", "max_gap", "tv_distance", "quad_error"], rows)
    summary.details = {
        "limit_density_at_origin": origin,
        "integrals": {f"a={a:g}": [e.value, e.quad_error] for a, e in zip(a_values, integrals)},
        "rows": [{"tv_distance": tv.value} for tv in tvs],
    }
    return summary
