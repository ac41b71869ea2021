"""Limit objects for the large-concentration regime.

The Brownian-bridge covariance of the centered-scaled process
sqrt(a) (P_a - H), the Gaussian limit covariance of the quantile process
sqrt(a) (P_a^{-1} - H^{-1}), and the exact vs limiting bivariate cell
densities (plain functions of the cell measures l1, l2, which
check_density_cells validates) together with their total-variation gap.
The exact density is written in Stirling form, so its normaliser has no
terms of size a log a to cancel in floating point.  The bivariate integrals
use one tensor-Simpson quadrature whose box, grid sizes and tolerance are
the pinned constants HALF_WIDTH, N_START, N_MAX and QUAD_TOL.

The quadrature evaluates each point of its finest grid once, a block of
rows of about _BLOCK_POINTS points per kernel call, and keeps no grid, only
a table of each row's sums over the three Simpson weight classes; a
refinement evaluates only the new points.  Its memory does not grow with
the grid size.  The density kernels work elementwise, with the operations
and order of the plain array expressions, each row is summed alone, and the
table is added in a fixed order, so the estimates do not depend on the
blocking.  Both integrals refuse a concentration whose density is unbounded
(check_density_concentration).
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .dp_core import BaseMeasure, BorelSet, check_concentration
from .errors import ArgumentError
from .special import stirlerr


# ---------------------------------------------------------------------------
# Bridge and quantile-process limit covariances
# ---------------------------------------------------------------------------


def bb_cov(s1: BorelSet, s2: BorelSet, mu: BaseMeasure) -> float:
    """Bridge covariance mu(S1 and S2) - mu(S1) mu(S2)."""
    return mu.measure(s1.intersect(s2)) - mu.measure(s1) * mu.measure(s2)


def limit_quantile_cov(u: float, v: float, base: BaseMeasure) -> float:
    """Covariance of the limiting quantile process at levels (u, v):

        (min(u, v) - u v) / (h(H^{-1}(u)) h(H^{-1}(v)))

    where h is the base density.  Raises unless the denominator is positive and finite.
    """
    for name, val in (("u", u), ("v", v)):
        if not 0.0 < val < 1.0:
            raise ArgumentError(f"{name} must lie in (0, 1)")
    hu = float(base.density(base.quantile(u)))
    hv = float(base.density(base.quantile(v)))
    if not (hu > 0.0 and 0.0 < hu * hv < np.inf):
        raise ArgumentError(
            f"base density product {hu!r} * {hv!r} at the quantiles of u = {u!r} and v = {v!r} "
            "is not positive and finite"
        )
    return (min(u, v) - u * v) / (hu * hv)


# ---------------------------------------------------------------------------
# Bivariate cell densities: exact (finite a) and Gaussian limit
# ---------------------------------------------------------------------------


def check_density_cells(l1: float, l2: float) -> tuple[float, float]:
    """Two disjoint cells' measures as floats, if l1, l2 > 0 and l1 + l2 < 1."""
    l1, l2 = float(l1), float(l2)
    if not (0.0 < l1 and 0.0 < l2 and l1 + l2 < 1.0):
        raise ArgumentError("cell measures need l1 > 0, l2 > 0, l1 + l2 < 1")
    return l1, l2


def limit_bivariate_density(y1, y2, l1: float, l2: float):
    """Limit of the scaled masses of two disjoint cells: the zero-mean normal
    density with sigma11 = l1(1-l1), sigma22 = l2(1-l2) and correlation
    rho = -sqrt(l1 l2 / ((1-l1)(1-l2))), inside (-1, 0) as l1 + l2 < 1."""
    l1, l2 = check_density_cells(l1, l2)
    sigma11, sigma22 = l1 * (1.0 - l1), l2 * (1.0 - l2)
    rho = -np.sqrt(l1 * l2 / ((1.0 - l1) * (1.0 - l2)))
    det = sigma11 * sigma22 * (1.0 - rho**2)
    y1 = np.asarray(y1, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    z1 = y1 / np.sqrt(sigma11)
    z2 = y2 / np.sqrt(sigma22)
    # One output buffer carries the quadratic form to the density.
    out = np.empty(np.broadcast_shapes(y1.shape, y2.shape))
    np.multiply(2.0 * rho * z1, z2, out=out)
    np.subtract(z1 * z1, out, out=out)
    out += z2 * z2
    out /= 1.0 - rho**2
    out *= -0.5
    np.exp(out, out=out)
    out /= 2.0 * np.pi * np.sqrt(det)
    return float(out) if out.ndim == 0 else out


def scaled_bivariate_density(y1, y2, l1: float, l2: float, a: float):
    """Exact joint density of the scaled masses of two disjoint cells,
    (sqrt(a)(P_a(S1) - l1), sqrt(a)(P_a(S2) - l2)).

    This is the Dirichlet(a l1, a l2, a l3) density (Ferguson 1973),
    l3 = 1 - l1 - l2, pushed through the centering-scaling map.  With
    z_i = y_i/(sqrt(a) l_i), y3 = -(y1 + y2) and s = ``special.stirlerr``,
    Stirling's form of each Gamma cancels the normaliser's a log a and e^-a
    terms exactly, as a l1 + a l2 + a l3 = a:

        log f = sum_i (a l_i - 1) log1p(z_i) - log(l1 l2 l3)/2 - log 2 pi
                + s(a) - s(a l1) - s(a l2) - s(a l3),

    whose rounding is about sqrt(a) 2^-52 relative.  The density is zero
    outside the open simplex, where some z_i <= -1.
    """
    l1, l2 = check_density_cells(l1, l2)
    check_concentration(a)
    y1 = np.asarray(y1, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    l3 = 1.0 - l1 - l2
    root_a = np.sqrt(a)
    s_a, s_1, s_2, s_3 = stirlerr([a, a * l1, a * l2, a * l3])
    log_norm = float(s_a - s_1 - s_2 - s_3) - 0.5 * np.log(l1 * l2 * l3) - np.log(2.0 * np.pi)
    z1 = y1 / (root_a * l1)
    z2 = y2 / (root_a * l2)
    # Two buffers of the broadcast shape: z3 then its log term, and log f then
    # the density; the z1 and z2 terms use their own (unbroadcast) operands.
    # Points outside the simplex (an infinite y1 or y2 too) take log1p 0 and
    # exp 0, then 0: numpy's vector log1p and exp run about four times slower
    # on arguments at or below -1 and on -inf, and no NaN or inf reaches the sum.
    z3 = np.add(y1, y2, out=np.empty(np.broadcast_shapes(y1.shape, y2.shape)))
    z3 /= -root_a * l3
    outside = ~((z1 > -1.0) & (z2 > -1.0) & (z3 > -1.0))
    np.copyto(z3, 0.0, where=outside)
    log1p_z1 = np.log1p(np.where((-1.0 < z1) & (z1 < np.inf), z1, 0.0))
    log1p_z2 = np.log1p(np.where((-1.0 < z2) & (z2 < np.inf), z2, 0.0))
    out = np.empty_like(z3)
    np.add(log_norm + (a * l1 - 1.0) * log1p_z1, (a * l2 - 1.0) * log1p_z2, out=out)
    np.log1p(z3, out=z3)
    z3 *= a * l3 - 1.0
    out += z3
    np.copyto(out, 0.0, where=outside)
    np.exp(out, out=out)
    np.copyto(out, 0.0, where=outside)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Tensor-Simpson quadrature with refinement
# ---------------------------------------------------------------------------


class TvEstimate(NamedTuple):
    """A quadrature estimate, its refinement error, and whether the last
    refinement moved it by less than ``QUAD_TOL`` (False when the grid
    reached ``N_MAX`` first)."""

    value: float
    quad_error: float
    converged: bool


# The one tensor-Simpson quadrature of the bivariate integrals: the box
# [-HALF_WIDTH, HALF_WIDTH]^2 (cut to the density's support), N_START points
# per axis, refined n -> 2n - 1 until the estimate moves by less than
# QUAD_TOL; the last move is reported as the quadrature error.
HALF_WIDTH = 8.0
N_START = 65
N_MAX = 1025
QUAD_TOL = 1e-4
# The largest concentration the bivariate integrals accept.
MAX_DENSITY_A = 1e20

# Points per density-kernel call: the ladder evaluates its points in blocks
# of rows, so the kernels' temporaries stay small whatever the grid size.
_BLOCK_POINTS = 1 << 15


def _simpson_cuts(n: int) -> tuple:
    """The slices of the end, odd and even interior points of an n-point
    axis, whose Simpson weights are 1, 4 and 2."""
    return slice(0, n, n - 1), slice(1, n, 2), slice(2, n - 1, 2)


def _row_sums(f: Callable, x: np.ndarray, y: np.ndarray, cuts: tuple) -> np.ndarray:
    """Evaluate f(x[:, None], y[None, :]), a block of rows of at most
    _BLOCK_POINTS points (or one row) per call of f.  Returns the table of
    each row's sums over the column slices ``cuts``, one column per slice."""
    step = max(_BLOCK_POINTS // y.size, 1)
    sums = np.empty((x.size, len(cuts)))
    for i in range(0, x.size, step):
        vals = f(x[i : i + step, None], y[None, :])
        # Each row of a column slice is summed alone, pairwise, whatever the block.
        for j, cut in enumerate(cuts):
            sums[i : i + step, j] = vals[:, cut].sum(axis=1)
    return sums


def _refine_simpson_2d(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    xbox: tuple[float, float],
    ybox: tuple[float, float],
) -> TvEstimate:
    """Integrate f over the box, doubling resolution until the estimate
    settles within QUAD_TOL (or N_MAX is reached, reported as not
    converged).

    No grid is kept, only the (n, 3) table of each row's sums over its end,
    odd and even interior columns (``_simpson_cuts``).  The estimate weights
    the table's columns, then its rows, the same way, in numpy sums of a
    fixed order that does not depend on the blocking.  The n-point grid is
    the even-index subgrid of the (2n - 1)-point one (``linspace`` gives it
    bit for bit), so a refinement calls f only on the odd rows and on the
    even rows' odd columns: an old row keeps its end sum, and its odd and
    even interior sums add up to its new even interior sum.
    """
    n = N_START
    x = np.linspace(xbox[0], xbox[1], n)
    y = np.linspace(ybox[0], ybox[1], n)
    s = _row_sums(f, x, y, _simpson_cuts(n))
    prev = None
    while True:
        v = s[:, 0] + 4.0 * s[:, 1] + 2.0 * s[:, 2]
        total = (v[0] + v[-1]) + 4.0 * v[1::2].sum() + 2.0 * v[2:-1:2].sum()
        est = float(total * ((x[1] - x[0]) / 3.0) * ((y[1] - y[0]) / 3.0))
        if prev is not None and abs(est - prev) < QUAD_TOL:
            return TvEstimate(est, abs(est - prev), True)
        if 2 * n - 1 > N_MAX:
            return TvEstimate(est, abs(est - prev) if prev is not None else QUAD_TOL, False)
        prev = est
        n = 2 * n - 1
        x = np.linspace(xbox[0], xbox[1], n)
        y = np.linspace(ybox[0], ybox[1], n)
        old, s = s, np.empty((n, 3))
        s[1::2] = _row_sums(f, x[1::2], y, _simpson_cuts(n))
        s[::2, 0] = old[:, 0]
        s[::2, 1] = _row_sums(f, x[::2], y[1::2], (slice(None),))[:, 0]
        s[::2, 2] = old[:, 1] + old[:, 2]


def check_density_concentration(l1: float, l2: float, a: float) -> None:
    """The bivariate integrals need a * l > 1 for each cell measure l of
    (l1, l2, 1 - l1 - l2): at a * l <= 1 the exact density is unbounded at
    that cell's edge, where the tensor-Simpson quadrature cannot integrate it.
    And a <= MAX_DENSITY_A: the exact density's rounding error grows as
    sqrt(a) 2^-52 relative, 2e-6 at 1e20; at 1e30 the quadrature stops
    unconverged, and by 1e100 exp overflows."""
    smallest = a * min(l1, l2, 1.0 - l1 - l2)
    if not smallest > 1.0:
        raise ArgumentError(f"a * min(l1, l2, 1 - l1 - l2) must exceed 1, got {smallest:g} at"
                            f" a = {a:g}: the exact density is unbounded at a cell edge")
    if not a <= MAX_DENSITY_A:
        raise ArgumentError(f"a must be at most {MAX_DENSITY_A:g}, got {a:g}: the exact"
                            " density's relative rounding grows as sqrt(a) 2^-52")


def _support_box(l1: float, l2: float, a: float):
    root_a = np.sqrt(a)
    xbox = (max(-root_a * l1, -HALF_WIDTH), min(root_a * (1.0 - l1), HALF_WIDTH))
    ybox = (max(-root_a * l2, -HALF_WIDTH), min(root_a * (1.0 - l2), HALF_WIDTH))
    return xbox, ybox


def tv_distance_bivariate(l1: float, l2: float, a: float) -> TvEstimate:
    """Total-variation distance between the exact scaled cell-mass density at
    concentration ``a`` and its Gaussian limit: half the L1 gap by quadrature.

    Returns the estimate together with the refinement-based error bound.
    """
    l1, l2 = check_density_cells(l1, l2)
    check_density_concentration(l1, l2, a)
    xbox, ybox = _support_box(l1, l2, a)

    def gap(x, y):
        out = scaled_bivariate_density(x, y, l1, l2, a)
        out -= limit_bivariate_density(x, y, l1, l2)
        return np.abs(out, out=out)

    est = _refine_simpson_2d(gap, xbox, ybox)
    # |f - g| integrates to at most 2, so TV cannot exceed 1 beyond
    # quadrature noise; clip the noise.
    return TvEstimate(min(0.5 * est.value, 1.0), 0.5 * est.quad_error, est.converged)


def bivariate_density_integral(l1: float, l2: float, a: float) -> TvEstimate:
    """Quadrature of the exact scaled density over its (boxed) support;
    should be 1 up to quadrature error plus truncated tail mass."""
    l1, l2 = check_density_cells(l1, l2)
    check_density_concentration(l1, l2, a)
    xbox, ybox = _support_box(l1, l2, a)
    return _refine_simpson_2d(lambda x, y: scaled_bivariate_density(x, y, l1, l2, a), xbox, ybox)
