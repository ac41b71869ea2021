"""Limit objects: bridge and quantile covariances, bivariate densities."""

import numpy as np
import pytest

from dplab import (
    ArgumentError,
    BivariateGaussianSpec,
    BorelSet,
    Grid,
    ParameterError,
    SingularDensityError,
    bb_cov,
    bivariate_density_integral,
    exponential_base,
    limit_bivariate_density,
    limit_quantile_cov,
    normal_base,
    processes,
    scaled_bivariate_density,
    tv_distance_bivariate,
    uniform_base,
)
from dplab.processes import _refine_simpson_2d

THIRD = 1.0 / 3.0
LIMIT_AT_ORIGIN = np.sqrt(27.0) / (2.0 * np.pi)


class TestGridAndPath:
    def test_grid_must_increase(self):
        with pytest.raises(ParameterError):
            Grid(np.array([0.1, 0.1, 0.5]))
        with pytest.raises(ParameterError):
            Grid(np.array([]))


class TestBridgeCovariance:
    def test_same_set(self, uniform01):
        s = BorelSet.interval(0.0, 0.3)
        assert bb_cov(s, s, uniform01) == pytest.approx(0.21)

    def test_disjoint_sets(self, uniform01):
        a, b = BorelSet.interval(0.0, 0.2), BorelSet.interval(0.5, 0.6)
        assert bb_cov(a, b, uniform01) == pytest.approx(-0.02)

    def test_full_space_gives_zero(self, uniform01):
        full = BorelSet.interval(0.0, 1.0)
        for other in (BorelSet.interval(0.2, 0.4), full):
            assert bb_cov(full, other, uniform01) == pytest.approx(0.0)


class TestLimitQuantileCov:
    def test_uniform_values(self, uniform01):
        assert limit_quantile_cov(0.5, 0.5, uniform01) == pytest.approx(0.25)
        assert limit_quantile_cov(0.25, 0.75, uniform01) == pytest.approx(0.0625)

    def test_exponential_median(self, exp1):
        # h(H^{-1}(u)) = 1 - u for the unit-rate exponential
        assert limit_quantile_cov(0.5, 0.5, exp1) == pytest.approx(1.0)

    def test_symmetry(self, exp1):
        assert limit_quantile_cov(0.2, 0.7, exp1) == pytest.approx(
            limit_quantile_cov(0.7, 0.2, exp1)
        )

    @pytest.mark.parametrize("factory", [uniform_base, exponential_base, normal_base])
    def test_positive_semidefinite_on_grid(self, factory):
        base = factory()
        us = np.linspace(0.05, 0.95, 10)
        gram = np.array([[limit_quantile_cov(u, v, base) for v in us] for u in us])
        eigvals = np.linalg.eigvalsh(gram)
        assert eigvals.min() >= -1e-9

    def test_vanishing_density_raises(self):
        # density 4|x - 1/2| on [0, 1] vanishes exactly at its median
        from dplab import BaseMeasure

        def cdf(x):
            x = np.asarray(x, dtype=float)
            return np.where(x < 0.5, 2 * x - 2 * x * x, 0.5 + 2 * (x - 0.5) ** 2)

        def quantile(u):
            u = np.asarray(u, dtype=float)
            lower = (1 - np.sqrt(np.clip(1 - 2 * u, 0, None))) / 2
            upper = 0.5 + np.sqrt(np.clip((u - 0.5) / 2, 0, None))
            return np.where(u < 0.5, lower, upper)

        tent = BaseMeasure(
            cdf, quantile, lambda x: np.abs(4 * np.asarray(x) - 2), (0.0, 1.0), "tent"
        )
        with pytest.raises(SingularDensityError):
            limit_quantile_cov(0.5, 0.5, tent)
        # away from the singular point the covariance is finite
        assert np.isfinite(limit_quantile_cov(0.25, 0.25, tent))

    def test_domain(self, uniform01):
        with pytest.raises(ArgumentError):
            limit_quantile_cov(0.0, 0.5, uniform01)


class TestBivariateGaussianSpec:
    def test_from_cell_measures(self):
        spec = BivariateGaussianSpec.from_cell_measures(THIRD, THIRD)
        assert spec.rho12 == pytest.approx(-0.5)
        assert spec.sigma11 == pytest.approx(2.0 / 9.0)
        assert spec.covariance_det == pytest.approx(1.0 / 27.0)

    def test_invalid_cells(self):
        with pytest.raises(ParameterError):
            BivariateGaussianSpec.from_cell_measures(0.6, 0.5)
        with pytest.raises(ParameterError):
            BivariateGaussianSpec.from_cell_measures(0.0, 0.5)


class TestLimitBivariateDensity:
    def test_value_at_origin(self):
        spec = BivariateGaussianSpec.from_cell_measures(THIRD, THIRD)
        assert limit_bivariate_density(0.0, 0.0, spec) == pytest.approx(
            LIMIT_AT_ORIGIN, abs=1e-12
        )

    def test_symmetric_under_equal_cells(self):
        spec = BivariateGaussianSpec.from_cell_measures(THIRD, THIRD)
        for y1, y2 in [(0.3, -0.8), (1.2, 0.4)]:
            assert limit_bivariate_density(y1, y2, spec) == pytest.approx(
                limit_bivariate_density(y2, y1, spec)
            )


class TestScaledBivariateDensity:
    def test_outside_simplex_image_is_zero(self):
        a = 25.0
        # y1 pushing x1 below zero
        assert scaled_bivariate_density(-5.0 * THIRD, 0.0, THIRD, THIRD, a) == 0.0
        # y1 + y2 exhausting the third cell
        assert scaled_bivariate_density(3.0, 3.0, THIRD, THIRD, a) == 0.0

    def test_integrates_to_one(self):
        est = bivariate_density_integral(THIRD, THIRD, 50.0)
        assert abs(est.value - 1.0) <= 1e-3

    def test_large_concentration_approaches_limit_at_origin(self):
        val = scaled_bivariate_density(0.0, 0.0, THIRD, THIRD, 1e4)
        assert abs(val / LIMIT_AT_ORIGIN - 1.0) <= 0.02

    def test_pointwise_gap_shrinks_with_concentration(self):
        """Max |exact - limit| over a fixed 11x11 grid decreasing in a."""
        spec = BivariateGaussianSpec.from_cell_measures(THIRD, THIRD)
        g = np.linspace(-2.5, 2.5, 11)
        flim = limit_bivariate_density(g[:, None], g[None, :], spec)
        gaps = [
            np.max(np.abs(scaled_bivariate_density(g[:, None], g[None, :], THIRD, THIRD, a) - flim))
            for a in (1e2, 1e3, 1e4)
        ]
        assert gaps[0] > gaps[1] > gaps[2]


class TestTvDistance:
    def test_identical_integrands_give_zero(self):
        def zero_gap(x, y):
            f = scaled_bivariate_density(x, y, THIRD, THIRD, 100.0)
            return np.abs(f - f)

        est = _refine_simpson_2d(zero_gap, (-8.0, 8.0), (-8.0, 8.0))
        assert est.value == 0.0

    def test_decreases_with_concentration(self):
        tv_small = tv_distance_bivariate(THIRD, THIRD, 1e2)
        tv_large = tv_distance_bivariate(THIRD, THIRD, 1e4)
        assert tv_large.value < tv_small.value

    def test_flags_tolerance_not_met(self, monkeypatch):
        """At tol 1e-9 the refinement reaches n_max first and says so; the
        pinned tolerance is met."""
        assert tv_distance_bivariate(THIRD, THIRD, 1e3).converged
        assert bivariate_density_integral(THIRD, THIRD, 1e3).converged
        monkeypatch.setattr(processes, "QUAD_TOL", 1e-9)
        tv = tv_distance_bivariate(THIRD, THIRD, 1e3)
        assert not tv.converged and tv.quad_error > processes.QUAD_TOL

    @pytest.mark.parametrize("a", [1e2, 1e3, 1e4])
    def test_bounded_by_one(self, a):
        est = tv_distance_bivariate(THIRD, THIRD, a)
        assert 0.0 <= est.value <= 1.0
        assert est.quad_error >= 0.0
