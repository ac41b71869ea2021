"""Variate generators: reproducibility, analytic moments, and densities."""

import numpy as np
import pytest
import scipy.stats

from dplab import DirichletParams, ParameterError, RngStream
from dplab.rvgen import _log_gamma_draws, sample_beta, sample_dirichlet


class TestRngStream:
    def test_identical_coordinates_reproduce_bitwise(self):
        a = RngStream(123456789, 7).uniform(1000)
        b = RngStream(123456789, 7).uniform(1000)
        assert np.array_equal(a, b)

    def test_distinct_indices_differ(self):
        a = RngStream(123456789, 0).uniform(1000)
        b = RngStream(123456789, 1).uniform(1000)
        assert not np.array_equal(a, b)

    def test_gamma_sequence_reproducible_through_rejection(self):
        params = DirichletParams((2.7, 0.3))  # both gamma branches reject
        a = sample_dirichlet(params, RngStream(5, 3), size=5000)
        b = sample_dirichlet(params, RngStream(5, 3), size=5000)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("n", [1, 2, 1000, 70_000])
    def test_shuffle_is_the_permutation_gather(self, n):
        x = RngStream(8, 1).uniform(n)
        expected = x[RngStream(8, 2).permutation(n)]
        twin = RngStream(8, 2)
        twin.shuffle(x)
        assert np.array_equal(x, expected)
        reference = RngStream(8, 2)
        reference.permutation(n)
        assert twin.uniform() == reference.uniform()

    def test_invalid_coordinates(self):
        with pytest.raises(ParameterError):
            RngStream(1.5, 0)
        with pytest.raises(ParameterError):
            RngStream(1, -1)


class TestSampleGamma:
    """Log-space gamma draws (``_log_gamma_draws``), which every beta and
    Dirichlet draw is built from."""

    def test_shape_one_is_exponential_reduction(self):
        """A unit-shape draw equals -log(U) for the stream's uniform U."""
        log_draws = _log_gamma_draws(RngStream(9, 3), 1.0, 3)
        u = RngStream(9, 3).uniform(3)
        assert np.array_equal(log_draws, np.log(-np.log(u)))

    def test_mean_matches_shape(self):
        draws = np.exp(_log_gamma_draws(RngStream(42, 0), 5.0, 100_000))
        se = draws.std(ddof=1) / np.sqrt(draws.size)
        assert abs(draws.mean() - 5.0) <= 3 * se

    @pytest.mark.parametrize("shape", [0.5, 0.05])
    def test_small_shapes_keep_correct_mean(self, shape):
        """Boosted draws must stay unbiased well below shape 1."""
        draws = np.exp(_log_gamma_draws(RngStream(42, 1), shape, 100_000))
        se = draws.std(ddof=1) / np.sqrt(draws.size)
        assert abs(draws.mean() - shape) <= 4 * se

    @pytest.mark.parametrize("shape", [0.0, -1.0, np.nan, np.inf])
    def test_invalid_shape(self, shape):
        """The public gamma-based samplers reject the shape before drawing."""
        with pytest.raises(ParameterError):
            sample_beta(shape, 1.0, RngStream(0, 0))
        with pytest.raises(ParameterError):
            DirichletParams((shape, 1.0))


class TestSampleBeta:
    def test_flat_beta_is_uniform(self):
        draws = sample_beta(1.0, 1.0, RngStream(11, 0), size=10_000)
        stat, p = scipy.stats.kstest(draws, "uniform")
        assert p > 0.01

    def test_mean(self):
        draws = sample_beta(2.0, 3.0, RngStream(11, 1), size=100_000)
        se = draws.std(ddof=1) / np.sqrt(draws.size)
        assert abs(draws.mean() - 0.4) <= 3 * se

    def test_variance_matches_cell_mass_formula(self):
        """Beta(a*H(A), a*(1-H(A))) variance is H(A)(1-H(A))/(1+a):
        a=10, H(A)=0.3 gives 0.21/11."""
        draws = sample_beta(3.0, 7.0, RngStream(11, 2), size=100_000)
        var = draws.var(ddof=1)
        centered = draws - draws.mean()
        se = np.sqrt((np.mean(centered**4) - var**2) / draws.size)
        assert abs(var - 0.21 / 11.0) <= 3 * se

    def test_extreme_parameter_ratio_stays_in_unit_interval(self):
        draws = sample_beta(1.0, 1e4, RngStream(11, 3), size=1000)
        assert np.all(draws >= 0.0) and np.all(draws <= 1.0)
        assert draws.mean() < 0.01

    def test_tiny_shapes_come_out_zero_or_one_without_nan(self):
        """Beta(1e-10, 1e-10) is Bernoulli(1/2) to within 1e-10: deep
        bisection cells draw such shares."""
        draws = sample_beta(1e-10, 1e-10, RngStream(11, 4), size=10_000)
        assert np.all((draws >= 0.0) & (draws <= 1.0))
        se = draws.std(ddof=1) / np.sqrt(draws.size)
        assert abs(draws.mean() - 0.5) <= 5 * se

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            sample_beta(0.0, 1.0, RngStream(0, 0))
        with pytest.raises(ParameterError):
            sample_beta(1.0, -2.0, RngStream(0, 0))


class TestSampleDirichlet:
    @pytest.mark.parametrize(
        "alphas", [(2.0, 2.0), (1.0, 2.0, 3.0), (0.01, 0.005, 5.0), (0.3, 0.7)]
    )
    def test_simplex_constraint(self, alphas):
        draws = sample_dirichlet(DirichletParams(alphas), RngStream(3, 0), size=2000)
        assert np.all(draws >= 0.0)
        np.testing.assert_allclose(draws.sum(axis=1), 1.0, atol=1e-12)

    def test_symmetric_mean(self):
        draws = sample_dirichlet(DirichletParams((2.0, 2.0)), RngStream(3, 1), size=100_000)
        se = draws[:, 0].std(ddof=1) / np.sqrt(draws.shape[0])
        assert abs(draws[:, 0].mean() - 0.5) <= 3 * se

    def test_first_moment(self):
        draws = sample_dirichlet(DirichletParams((1.0, 2.0, 3.0)), RngStream(3, 2), size=100_000)
        se = draws[:, 0].std(ddof=1) / np.sqrt(draws.shape[0])
        assert abs(draws[:, 0].mean() - 1.0 / 6.0) <= 3 * se

    @pytest.mark.parametrize("alphas", [(1.0, 2.0, 3.0), (0.5, 0.5), (2.0, 3.0, 4.0, 5.0)])
    def test_pairwise_covariance(self, alphas):
        """Empirical covariances against -a_i a_j / (A^2 (A + 1))."""
        draws = sample_dirichlet(DirichletParams(alphas), RngStream(3, 3), size=100_000)
        total = sum(alphas)
        n = draws.shape[0]
        for i in range(len(alphas)):
            for j in range(i + 1, len(alphas)):
                target = -alphas[i] * alphas[j] / (total**2 * (total + 1.0))
                prod = (draws[:, i] - draws[:, i].mean()) * (draws[:, j] - draws[:, j].mean())
                cov = prod.sum() / (n - 1)
                se = prod.std(ddof=1) / np.sqrt(n)
                assert abs(cov - target) <= 4 * se, (alphas, i, j)

    def test_invalid_params(self):
        with pytest.raises(ParameterError):
            DirichletParams((1.0,))
        with pytest.raises(ParameterError):
            DirichletParams((1.0, 0.0))
        with pytest.raises(ParameterError):
            DirichletParams((1.0, -1.0, 2.0))


def _simpson(values, h):
    w = np.ones(values.size)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(w @ values * h / 3.0)
