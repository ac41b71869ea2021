"""Monte Carlo verification of the large-concentration limit laws.

Every check simulates Dirichlet-process functionals from counter-based
streams, then compares estimates against closed-form targets.  Checks on
Dirichlet marginals and on quantiles draw all replications of a leg in one
vectorised call from stream base + leg; stick-breaking checks give
replication r of leg l its own stream, base + l*R + r.  A comparison passes
when the estimate sits within a stated multiple of its Monte Carlo standard
error; distributional checks use a Kolmogorov-Smirnov statistic at a stated
level.  Stick-breaking replication loops are data-parallel and reduce in
fixed index order, so results are independent of thread count.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np
import scipy.stats

from .dp_core import (
    BaseMeasure,
    BorelSet,
    DpSample,
    TruncationPolicy,
    bisection_quantiles,
    dp_cdf,
    dp_cross_moment,
    dp_moments,
    dp_quantile,
    posterior_update,
    sample_fidi,
    stick_breaking_sample,
    uniform_base,
    validate_partition,
)
from .errors import ArgumentError, ConfigError, DplabError, ParameterError
from .processes import bb_cov, limit_quantile_cov
from .processes import (
    QuadratureSpec,
    BivariateGaussianSpec,
    Grid,
    limit_bivariate_density,
    scaled_bivariate_density,
    tv_distance_bivariate,
)
from .rvgen import RngStream
# Unused here; bench/tracing.py patches verify.sample_dirichlet by name.
from .rvgen import sample_dirichlet  # noqa: F401

DEFAULT_MEAN_TOL = 3.0
DEFAULT_MOMENT_TOL = 4.0
DEFAULT_VARIANCE_TOL = 5.0
DEFAULT_KS_LEVEL = 0.01

# Fewest replications moment_check accepts, and fewest concentrations gc_study
# can fit a decay rate to.
MIN_MOMENT_REPLICATIONS = 1000
MIN_GC_A_VALUES = 2

# Acceptance window for the fitted sup-norm decay rate of a GcCurve.
GC_RATE_WINDOW = (-0.6, -0.4)

# Shortest first replication for which map_replications fans out.  Shorter
# ones hold the GIL between numpy calls and run slower on two threads than on
# one (measured on a 2-core machine: a gc replication at a = 100 takes about
# 0.45 ms and is 1.8x slower on 2 threads; at a = 10^3, about 2.5 ms and
# 1.7x faster).
MIN_PARALLEL_REP_SECONDS = 1e-3

_DL_SLACK = 1e-12

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
    ``level_checks`` carry the pass/fail verdicts; ``seed_info`` records the
    master seed and the inclusive stream-index range consumed.  A
    stick-breaking replication can be reproduced alone from its stream; a
    Dirichlet-marginal leg only whole, from its one stream.
    """

    replications: int
    estimates: dict[str, tuple[float, float]]
    comparisons: list[Comparison]
    level_checks: list[LevelCheck] = field(default_factory=list)
    seed_info: tuple[int, tuple[int, int]] = (0, (0, 0))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in [*self.comparisons, *self.level_checks])

    def csv_tables(self) -> dict[str, Table]:
        """One row per estimate, comparison and level check."""
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
        return {"summary": (_SUMMARY_HEADER, rows)}

    def to_json(self) -> dict:
        return {
            "type": "mc_summary",
            "replications": self.replications,
            "seed_info": {
                "master_seed": self.seed_info[0], "stream_range": list(self.seed_info[1])
            },
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
        }


@dataclass(eq=False)
class GcCurve:
    """Uniform-distance decay across concentrations: the mean sup-norm and
    mean squared-deviation integral per concentration, plus the fitted
    log-log decay rate of the sup-norm.

    Passes when the mean sup-norm strictly decreases, the rate lies inside
    GC_RATE_WINDOW, and the cubic deviation bound held on every sample.
    """

    a_values: np.ndarray
    mean_sup: np.ndarray
    se_sup: np.ndarray
    mean_cvm: np.ndarray
    se_cvm: np.ndarray
    fitted_rate: float
    dl_checked: int = 0
    dl_violations: int = 0

    # The per-concentration vectors, in artifact column order.
    _COLUMNS = ("a_values", "mean_sup", "se_sup", "mean_cvm", "se_cvm")

    def __post_init__(self):
        if len({len(getattr(self, c)) for c in self._COLUMNS}) != 1:
            raise ParameterError("curve vectors must share one length")
        if np.any(self.mean_sup < 0.0) or np.any(self.mean_sup > 1.0):
            raise ParameterError("mean sup-norms must lie in [0, 1]")

    @property
    def passed(self) -> bool:
        decreasing = bool(np.all(np.diff(self.mean_sup) < 0.0))
        rate_ok = GC_RATE_WINDOW[0] <= self.fitted_rate <= GC_RATE_WINDOW[1]
        return decreasing and rate_ok and self.dl_violations == 0

    def csv_tables(self) -> dict[str, Table]:
        """The curve, one row per concentration, and the summary."""
        curve = zip(*(getattr(self, c) for c in self._COLUMNS))
        summary = [
            ["fitted_rate", self.fitted_rate],
            ["dl_checked", self.dl_checked],
            ["dl_violations", self.dl_violations],
            ["passed", self.passed],
        ]
        return {
            "curve": (["a", *self._COLUMNS[1:]], [list(row) for row in curve]),
            "summary": (["name", "value"], summary),
        }

    def to_json(self) -> dict:
        return {
            "type": "gc_curve",
            **{c: getattr(self, c).tolist() for c in self._COLUMNS},
            "fitted_rate": self.fitted_rate,
            "dl_checked": self.dl_checked,
            "dl_violations": self.dl_violations,
        }


@dataclass(frozen=True)
class DensityRow:
    """One concentration's gaps; ``converged`` tells whether the TV
    quadrature met its tolerance."""

    a: float
    max_gap: float
    tv_distance: float
    quad_error: float
    converged: bool


@dataclass(eq=False)
class DensityTable:
    """Pointwise and total-variation gaps between the exact scaled bivariate
    density and its Gaussian limit, per concentration."""

    rows: list[DensityRow]
    gap_nonincreasing: bool
    tv_nonincreasing: bool

    @property
    def passed(self) -> bool:
        return self.gap_nonincreasing and self.tv_nonincreasing


class DlBound(NamedTuple):
    lhs: float
    rhs: float
    holds: bool


# ---------------------------------------------------------------------------
# Argument rules, also run by the config validator
# ---------------------------------------------------------------------------


def check_a_values(a_values: Sequence[float], min_count: int = 1) -> np.ndarray:
    """The concentrations as an array; they must number at least
    ``min_count`` and be positive and strictly increasing."""
    a_values = np.asarray(a_values, dtype=float)
    if a_values.size < min_count or np.any(a_values <= 0) or np.any(np.diff(a_values) <= 0):
        raise ArgumentError(
            f"a_values must be positive and strictly increasing, at least {min_count} of them"
        )
    return a_values


def check_levels(u_points: Sequence[float]) -> list[float]:
    """The quantile levels as floats; each must lie strictly inside (0, 1)."""
    u_points = [float(u) for u in u_points]
    if any(not 0.0 < u < 1.0 for u in u_points):
        raise ArgumentError("u_points must lie strictly inside (0, 1)")
    return u_points


def check_resolution(trunc: TruncationPolicy) -> float:
    """The quantile family's bisection resolution, ``trunc.epsilon``; a
    ``max_atoms`` cap has no meaning there."""
    if trunc.max_atoms is not None:
        raise ArgumentError("max_atoms has no meaning for bisection quantiles; set it to null")
    return trunc.epsilon


def check_modulus_points(t1: float, t: float, t2: float) -> None:
    if not 0.0 <= t1 <= t <= t2 <= 1.0:
        raise ArgumentError("need 0 <= t1 <= t <= t2 <= 1")


def check_moment_replications(replications: int) -> None:
    if replications < MIN_MOMENT_REPLICATIONS:
        raise ArgumentError(f"moment_check needs at least {MIN_MOMENT_REPLICATIONS} replications")


# ---------------------------------------------------------------------------
# Monte Carlo plumbing
# ---------------------------------------------------------------------------


def resolve_threads(threads: int | None = None) -> int:
    """Worker threads for replication loops: ``threads``, or DPLAB_THREADS
    when None; zero, negative or unset means one per CPU."""
    if threads is None:
        env = os.environ.get("DPLAB_THREADS", "").strip()
        try:
            threads = int(env) if env else 0
        except ValueError:
            raise ConfigError("DPLAB_THREADS", f"expected an integer, got {env!r}") from None
    threads = int(threads)
    return threads if threads > 0 else os.cpu_count() or 1


def map_replications(
    fn: Callable[[RngStream], np.ndarray],
    replications: int,
    master_seed: int,
    base_stream: int = 0,
    threads: int | None = None,
) -> np.ndarray:
    """Evaluate ``fn`` once per replication, replication r on stream
    base_stream + r, and stack the results as rows.

    Replication 0 runs on the calling thread and is timed.  The rest fan out
    over up to ``threads`` worker threads (``resolve_threads``) only when it
    took at least MIN_PARALLEL_REP_SECONDS; shorter replications are bound by
    the GIL and stay on the calling thread.  Rows are written into a
    preallocated array keyed by index and reduced in fixed order afterwards,
    so the output is identical for any thread count.
    """
    replications = int(replications)
    if replications < 1:
        raise ArgumentError("replications must be positive")
    start = time.perf_counter()
    first = np.atleast_1d(np.asarray(fn(RngStream(master_seed, base_stream)), dtype=float))
    first_seconds = time.perf_counter() - start
    out = np.empty((replications, first.size))
    out[0] = first

    def run_range(lo: int, hi: int) -> None:
        for r in range(lo, hi):
            out[r] = fn(RngStream(master_seed, base_stream + r))

    threads = min(resolve_threads(threads), replications)
    if threads == 1 or replications <= 2 or first_seconds < MIN_PARALLEL_REP_SECONDS:
        run_range(1, replications)
    else:
        bounds = np.linspace(1, replications, threads + 1).astype(int)
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [
                pool.submit(run_range, bounds[i], bounds[i + 1]) for i in range(threads)
            ]
            for fut in futures:
                fut.result()
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
    m4 = float(np.mean(centered**4))
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


def ks_normal_check(name: str, sample: np.ndarray, level: float = DEFAULT_KS_LEVEL) -> LevelCheck:
    stat, p = scipy.stats.kstest(np.asarray(sample, dtype=float), "norm")
    return LevelCheck.build(name, stat, p, level)


def ks_two_sample_check(name, x, y, level: float = DEFAULT_KS_LEVEL) -> LevelCheck:
    stat, p = scipy.stats.ks_2samp(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    return LevelCheck.build(name, stat, p, level)


# ---------------------------------------------------------------------------
# Partition refinement over an arbitrary family of Borel sets
# ---------------------------------------------------------------------------


def refine_to_partition(
    sets: Sequence[BorelSet], base: BaseMeasure
) -> tuple[list[BorelSet], np.ndarray]:
    """Split the support at every set endpoint.

    Returns the partition cells plus a boolean membership matrix with entry
    (i, j) true when cell j lies inside set i, so set masses are exact sums
    of cell masses.
    """
    lo, hi = base.support
    edges = {lo, hi}
    for s in sets:
        for l, h in s.intervals:
            edges.add(max(l, lo))
            edges.add(min(h, hi))
    cuts = sorted(edges)
    cells = [BorelSet.interval(cuts[i], cuts[i + 1]) for i in range(len(cuts) - 1)]
    member = np.zeros((len(sets), len(cells)), dtype=bool)
    for i, s in enumerate(sets):
        for j, cell in enumerate(cells):
            member[i, j] = s.contains_interval(*cell.intervals[0])
    return cells, member


def dp_set_mass(sample: DpSample, s: BorelSet) -> float:
    """Mass the realization assigns to a Borel set (remainder excluded)."""
    total = 0.0
    for lo, hi in s.intervals:
        total += dp_cdf(sample, hi) - dp_cdf(sample, lo)
    return total


# ---------------------------------------------------------------------------
# Moment identities
# ---------------------------------------------------------------------------


def moment_check(
    a: float,
    base: BaseMeasure,
    sets: Sequence[BorelSet],
    replications: int,
    seed: int,
    *,
    base_stream: int = 0,
    mean_tol: float = DEFAULT_MEAN_TOL,
    moment_tol: float = DEFAULT_MOMENT_TOL,
) -> McSummary:
    """Monte Carlo means, variances, and pairwise cross-moments of P_a over
    the sets, each against its closed form; all replications come from
    stream base_stream."""
    check_moment_replications(replications)
    cells, member = refine_to_partition(sets, base)
    measures = np.array([base.measure(c) for c in cells])
    validate_partition(cells, measures)
    draws = sample_fidi(a, measures, RngStream(seed, base_stream), size=replications)
    vals = draws @ member.T.astype(float)

    estimates: dict[str, tuple[float, float]] = {}
    comparisons: list[Comparison] = []
    for i, s in enumerate(sets):
        mean, mean_se = mc_mean_se(vals[:, i])
        var, var_se = mc_var_se(vals[:, i])
        m, v = dp_moments(a, base, s)
        estimates[f"mean[S{i + 1}]"] = (mean, mean_se)
        estimates[f"var[S{i + 1}]"] = (var, var_se)
        comparisons.append(Comparison.build(f"mean[S{i + 1}]", mean, mean_se, m, mean_tol))
        comparisons.append(Comparison.build(f"var[S{i + 1}]", var, var_se, v, moment_tol))
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            cross, cross_se = mc_mean_se(vals[:, i] * vals[:, j])
            target = dp_cross_moment(a, base, sets[i], sets[j])
            name = f"cross[S{i + 1},S{j + 1}]"
            estimates[name] = (cross, cross_se)
            comparisons.append(Comparison.build(name, cross, cross_se, target, moment_tol))
    return McSummary(
        replications,
        estimates,
        comparisons,
        seed_info=(seed, (base_stream, base_stream)),
    )


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
    tol: float = DEFAULT_MOMENT_TOL,
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
    comparisons = [
        Comparison.build("increment_product", mean, se, exact, tol),
        Comparison.build("increment_product_bound", mean, se, bound, tol, one_sided=True),
    ]
    return McSummary(
        replications,
        {"increment_product": (mean, se)},
        comparisons,
        seed_info=(seed, (base_stream, base_stream)),
    )


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
    tol: float = DEFAULT_MOMENT_TOL,
    ks_level: float = DEFAULT_KS_LEVEL,
) -> McSummary:
    """Simulate the centered-scaled vector (sqrt(a)(P_a(S_i) - lam(S_i)))_i
    under the uniform base and check mean, covariance, and marginal normality
    against the Brownian-bridge limit; all replications come from stream
    base_stream."""
    lam = uniform_base()
    cells, member = refine_to_partition(sets, lam)
    measures = np.array([lam.measure(c) for c in cells])
    validate_partition(cells, measures)
    weights = member.astype(float)
    set_masses = weights @ measures
    draws = sample_fidi(a, measures, RngStream(seed, base_stream), size=replications)
    vals = np.sqrt(a) * (draws @ weights.T - set_masses)

    estimates: dict[str, tuple[float, float]] = {}
    comparisons: list[Comparison] = []
    level_checks: list[LevelCheck] = []
    for i in range(len(sets)):
        mean, mean_se = mc_mean_se(vals[:, i])
        estimates[f"mean[S{i + 1}]"] = (mean, mean_se)
        comparisons.append(Comparison.build(f"mean[S{i + 1}]", mean, mean_se, 0.0, tol))
    for i in range(len(sets)):
        for j in range(i, len(sets)):
            target = bb_cov(sets[i], sets[j], lam)
            if i == j:
                est, se = mc_var_se(vals[:, i])
            else:
                est, se = mc_cov_se(vals[:, i], vals[:, j])
            name = f"cov[S{i + 1},S{j + 1}]"
            estimates[name] = (est, se)
            comparisons.append(Comparison.build(name, est, se, target, tol))
    for i in range(len(sets)):
        sd = np.sqrt(set_masses[i] * (1.0 - set_masses[i]))
        if sd > 0:
            level_checks.append(
                ks_normal_check(f"ks_normal[S{i + 1}]", vals[:, i] / sd, ks_level)
            )
    return McSummary(
        replications,
        estimates,
        comparisons,
        level_checks,
        seed_info=(seed, (base_stream, base_stream)),
    )


# ---------------------------------------------------------------------------
# Exact uniform distance and squared-deviation integral
# ---------------------------------------------------------------------------


def _deviation_stats(
    sample: DpSample, base: BaseMeasure, grid: np.ndarray | None = None
) -> tuple[float, float, float]:
    """Exact (sup-norm, integral of squared deviation dH) of P_a - H, and the
    largest |P_a - H| over the H-levels in ``grid`` (0.0 without a grid).

    All are computed after mapping atoms through H, where P_a - H becomes a
    step function against the identity: the sup is attained at an atom (from
    the left or the right), and the integral is a closed-form sum of cubics
    over the inter-atom segments.  The grid value can never exceed the exact
    sup, which makes it a check on it.
    """
    s = np.asarray(base.cdf(sample.atoms), dtype=float)
    lev = sample.cdf_levels()
    w = lev[1:]
    # Segment k runs from H-level s_{k-1} to s_k (s_{-1} = 0, s_n = 1) at cdf
    # level lev[k]; d and e are P_a - H at its left and right ends.
    d = np.empty(lev.size)
    d[0] = 0.0
    np.subtract(w, s, out=d[1:])
    e = np.empty(lev.size)
    e[0] = -s[0]
    np.subtract(w[:-1], s[1:], out=e[1:-1])
    e[-1] = w[-1] - 1.0
    sup = float(max(d.max(), -e.min()))

    # integral over segment k of (lev[k] - x)^2 dx is (d_k^3 - e_k^3) / 3
    cubes = d * d
    cubes *= d
    e_cubes = np.multiply(e, e, out=d)  # d is spent; reuse its buffer
    e_cubes *= e
    cubes -= e_cubes
    cvm = float(np.sum(cubes) / 3.0)
    grid_sup = 0.0
    if grid is not None:
        grid_sup = float(np.max(np.abs(lev[np.searchsorted(s, grid, side="right")] - grid)))
    return sup, cvm, grid_sup


def sup_deviation(sample: DpSample, base: BaseMeasure) -> float:
    """Exact sup over the real line of |P_a(x) - H(x)|."""
    return _deviation_stats(sample, base)[0]


def cvm_deviation(sample: DpSample, base: BaseMeasure) -> float:
    """Exact integral of (P_a(x) - H(x))^2 dH(x)."""
    return _deviation_stats(sample, base)[1]


def donoho_liu_bounds(sup_dev, cvm) -> DlBound:
    """The cubic lower bound d^3/3 <= integral of squared deviation;
    elementwise when given arrays."""
    lhs = sup_dev**3 / 3.0
    return DlBound(lhs, cvm, lhs <= cvm + _DL_SLACK)


def gc_study(
    a_values: Sequence[float],
    base: BaseMeasure,
    replications: int,
    grid_resolution: int,
    seed: int,
    *,
    trunc: TruncationPolicy | None = None,
    threads: int | None = None,
    base_stream: int = 0,
) -> GcCurve:
    """Uniform-convergence study: per concentration, the Monte Carlo mean of
    the exact sup-norm and of the exact squared-deviation integral, the
    deviation-bound sweep, and a least-squares log-log decay rate.

    Leg l (for a_values[l]) uses stream indices base_stream + l*replications + r.
    """
    a_values = check_a_values(a_values, MIN_GC_A_VALUES)
    trunc = trunc or TruncationPolicy()
    grid = np.linspace(0.0, 1.0, int(grid_resolution)) if grid_resolution else None

    mean_sup = np.empty(a_values.size)
    se_sup = np.empty(a_values.size)
    mean_cvm = np.empty(a_values.size)
    se_cvm = np.empty(a_values.size)
    violations = 0
    for leg, a in enumerate(a_values):

        def rep(rng: RngStream, a=a) -> np.ndarray:
            sample = stick_breaking_sample(a, base, trunc, rng)
            return np.array(_deviation_stats(sample, base, grid))

        leg_stream = base_stream + leg * replications
        vals = map_replications(rep, replications, seed, leg_stream, threads)
        excess = float(np.max(vals[:, 2] - vals[:, 0]))
        if excess > 1e-9:
            raise DplabError(f"an exact sup-norm fell {excess} below its grid evaluation")
        mean_sup[leg], se_sup[leg] = mc_mean_se(vals[:, 0])
        mean_cvm[leg], se_cvm[leg] = mc_mean_se(vals[:, 1])
        violations += int(np.sum(~donoho_liu_bounds(vals[:, 0], vals[:, 1]).holds))

    rate = float(np.polyfit(np.log(a_values), np.log(mean_sup), 1)[0])
    return GcCurve(
        a_values,
        mean_sup,
        se_sup,
        mean_cvm,
        se_cvm,
        rate,
        dl_checked=int(replications) * a_values.size,
        dl_violations=violations,
    )


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
    threads: int | None = None,
    tol: float = DEFAULT_MOMENT_TOL,
    ks_level: float = DEFAULT_KS_LEVEL,
    base_stream: int = 0,
) -> McSummary:
    """Compare the two exact representations over one partition: cell masses
    from truncated stick-breaking against Dirichlet marginals, by coordinate
    two-sample KS tests and by first/second moments against the closed forms.

    Stick replications use streams base..base+R-1, and all R marginal draws
    come from stream base+R.
    """
    trunc = trunc or TruncationPolicy()
    measures = np.array([base.measure(c) for c in cells])
    validate_partition(list(cells), measures)

    def stick_rep(rng: RngStream) -> np.ndarray:
        sample = stick_breaking_sample(a, base, trunc, rng)
        return np.array([dp_set_mass(sample, c) for c in cells])

    sticks = map_replications(stick_rep, replications, seed, base_stream, threads)
    fidi_stream = RngStream(seed, base_stream + replications)
    fidis = sample_fidi(a, measures, fidi_stream, size=replications)

    estimates: dict[str, tuple[float, float]] = {}
    comparisons: list[Comparison] = []
    level_checks: list[LevelCheck] = []
    for route, vals in (("stick", sticks), ("fidi", fidis)):
        for i, cell in enumerate(cells):
            m, v = dp_moments(a, base, cell)
            mean, mean_se = mc_mean_se(vals[:, i])
            var, var_se = mc_var_se(vals[:, i])
            estimates[f"{route}_mean[S{i + 1}]"] = (mean, mean_se)
            estimates[f"{route}_var[S{i + 1}]"] = (var, var_se)
            comparisons.append(
                Comparison.build(f"{route}_mean[S{i + 1}]", mean, mean_se, m, tol)
            )
            comparisons.append(Comparison.build(f"{route}_var[S{i + 1}]", var, var_se, v, tol))
        for i in range(len(cells)):
            for j in range(i + 1, len(cells)):
                cross, cross_se = mc_mean_se(vals[:, i] * vals[:, j])
                target = dp_cross_moment(a, base, cells[i], cells[j])
                comparisons.append(
                    Comparison.build(
                        f"{route}_cross[S{i + 1},S{j + 1}]", cross, cross_se, target, tol
                    )
                )
    for i in range(len(cells)):
        level_checks.append(
            ks_two_sample_check(f"ks_2samp[S{i + 1}]", sticks[:, i], fidis[:, i], ks_level)
        )
    return McSummary(
        2 * replications,
        estimates,
        comparisons,
        level_checks,
        seed_info=(seed, (base_stream, base_stream + replications)),
    )


def quantile_sampler_check(
    a: float, replications: int, seed: int, *, ks_level: float = DEFAULT_KS_LEVEL
) -> McSummary:
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

    def stick_rep(rng: RngStream) -> np.ndarray:
        return dp_quantile(stick_breaking_sample(a, uniform, trunc, rng), levels)

    sticks = map_replications(stick_rep, replications, seed)
    bisect_stream = RngStream(seed, replications)
    bisect = bisection_quantiles(a, levels, bisect_stream, replications, trunc.epsilon)

    level_checks = [
        ks_two_sample_check(f"ks_2samp[Q({u:g})]", sticks[:, i], bisect[:, i], ks_level)
        for i, u in enumerate(levels)
    ]
    level_checks.append(ks_two_sample_check(
        "ks_2samp[iqr]", sticks[:, 2] - sticks[:, 0], bisect[:, 2] - bisect[:, 0], ks_level
    ))
    return McSummary(2 * replications, {}, [], level_checks, seed_info=(seed, (0, replications)))


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
    tol: float = DEFAULT_MOMENT_TOL,
) -> McSummary:
    """Conjugacy: the posterior concentration is a + n exactly, and the
    Monte Carlo mean of the posterior mass of each test set matches the
    posterior base measure.  Set i's replications come from stream
    base_stream + i."""
    post = posterior_update(a, base, data)
    estimates: dict[str, tuple[float, float]] = {"a_star": (post.a_star, 0.0)}
    comparisons = [
        Comparison.build("a_star", post.a_star, 0.0, a + post.n, 0.0)
    ]
    for i, s in enumerate(sets):
        m = post.measure(s)
        rng = RngStream(seed, base_stream + i)
        vals = sample_fidi(post.a_star, [m, 1.0 - m], rng, size=replications)[:, 0]
        mean, se = mc_mean_se(vals)
        estimates[f"posterior_mean[S{i + 1}]"] = (mean, se)
        comparisons.append(Comparison.build(f"posterior_mean[S{i + 1}]", mean, se, m, tol))
    return McSummary(
        replications * len(sets),
        estimates,
        comparisons,
        seed_info=(seed, (base_stream, base_stream + len(sets) - 1)),
    )


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
    trunc: TruncationPolicy | None = None,
    tol: float = DEFAULT_VARIANCE_TOL,
    ks_level: float = DEFAULT_KS_LEVEL,
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
    ``trunc.epsilon`` is the bisection resolution (each quantile lies within
    epsilon of the exact one in H-level), and a ``max_atoms`` cap is
    rejected.  Leg l draws all its replications from stream base_stream + l.
    """
    a_values = check_a_values(a_values)
    u_points = check_levels(u_points)
    epsilon = check_resolution(trunc or TruncationPolicy())

    u_all = sorted(set(u_points) | {0.25, 0.5, 0.75})
    u_arr = np.array(u_all)
    col = {u: i for i, u in enumerate(u_all)}

    cov_targets = {
        (ui, uj): limit_quantile_cov(ui, uj, base)
        for i, ui in enumerate(u_points)
        for uj in u_points[i:]
    }
    median_target = limit_quantile_cov(0.5, 0.5, base)
    c_11 = limit_quantile_cov(0.25, 0.25, base)
    c_33 = limit_quantile_cov(0.75, 0.75, base)
    c_13 = limit_quantile_cov(0.25, 0.75, base)
    iqr_target = c_33 + c_11 - 2.0 * c_13
    h1 = float(base.density(base.quantile(0.25)))
    h3 = float(base.density(base.quantile(0.75)))
    printed_iqr = 3.0 / h3**2 + 3.0 / (16.0 * h1**2) - 2.0 / (h1 * h3)

    estimates: dict[str, tuple[float, float]] = {
        "iqr_var_printed_reference": (printed_iqr, 0.0),
        "iqr_var_limit_target": (iqr_target, 0.0),
    }
    comparisons: list[Comparison] = []
    level_checks: list[LevelCheck] = []
    base_quantiles = np.asarray(base.quantile(u_arr), dtype=float)

    for leg, a in enumerate(a_values):
        rng = RngStream(seed, base_stream + leg)
        q = bisection_quantiles(a, u_arr, rng, replications, epsilon)
        vals = np.sqrt(a) * (np.asarray(base.quantile(q), dtype=float) - base_quantiles)
        tag = f"a={a:g}"

        for i, ui in enumerate(u_points):
            for uj in u_points[i:]:
                if ui == uj:
                    est, se = mc_var_se(vals[:, col[ui]])
                else:
                    est, se = mc_cov_se(vals[:, col[ui]], vals[:, col[uj]])
                name = f"{tag}/qcov[{ui:g},{uj:g}]"
                estimates[name] = (est, se)
                comparisons.append(
                    Comparison.build(name, est, se, cov_targets[(ui, uj)], tol)
                )

        med = vals[:, col[0.5]]
        med_var, med_se = mc_var_se(med)
        estimates[f"{tag}/median_var"] = (med_var, med_se)
        comparisons.append(
            Comparison.build(f"{tag}/median_var", med_var, med_se, median_target, tol)
        )

        iqr_dev = vals[:, col[0.75]] - vals[:, col[0.25]]
        iqr_var, iqr_se = mc_var_se(iqr_dev)
        estimates[f"{tag}/iqr_var"] = (iqr_var, iqr_se)
        comparisons.append(
            Comparison.build(f"{tag}/iqr_var", iqr_var, iqr_se, iqr_target, tol)
        )

        level_checks.append(
            ks_normal_check(f"{tag}/ks_median", med / np.sqrt(median_target), ks_level)
        )

    return McSummary(
        int(replications) * a_values.size,
        estimates,
        comparisons,
        level_checks,
        seed_info=(seed, (base_stream, base_stream + a_values.size - 1)),
    )


# ---------------------------------------------------------------------------
# Bivariate density convergence
# ---------------------------------------------------------------------------


def density_convergence_study(
    l1: float,
    l2: float,
    a_values: Sequence[float],
    grid: Grid,
    quad: QuadratureSpec | None = None,
) -> DensityTable:
    """Tabulate, per concentration, the max pointwise gap on the tensor grid
    and the total-variation distance between the exact scaled bivariate
    density and its Gaussian limit.  Both columns must not increase with the
    concentration (within 1e-3)."""
    quad = quad or QuadratureSpec()
    a_values = check_a_values(a_values)
    spec = BivariateGaussianSpec.from_cell_measures(l1, l2)
    g = grid.points
    flim = limit_bivariate_density(g[:, None], g[None, :], spec)
    rows = []
    for a in a_values:
        fa = scaled_bivariate_density(g[:, None], g[None, :], l1, l2, a)
        max_gap = float(np.max(np.abs(fa - flim)))
        tv = tv_distance_bivariate(l1, l2, a, quad)
        rows.append(DensityRow(float(a), max_gap, tv.value, tv.quad_error, tv.converged))
    gaps = np.array([r.max_gap for r in rows])
    tvs = np.array([r.tv_distance for r in rows])
    slack = 1e-3
    return DensityTable(
        rows,
        gap_nonincreasing=bool(np.all(np.diff(gaps) <= slack)),
        tv_nonincreasing=bool(np.all(np.diff(tvs) <= slack)),
    )
