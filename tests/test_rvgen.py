"""Variate generators: reproducibility, analytic moments, and densities."""

import hashlib
import itertools

import numpy as np
import pytest
import scipy.stats

from dplab import ArgumentError, RngStream
from dplab.rvgen import MIN_SHAPE, _log_gamma_draws, sample_beta, sample_dirichlet


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
        alphas = (2.7, 0.3)  # both gamma branches reject
        a = sample_dirichlet(alphas, RngStream(5, 3), size=5000)
        b = sample_dirichlet(alphas, RngStream(5, 3), size=5000)
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

    @pytest.mark.parametrize(
        "seed, index", [(1.5, 0), (1, -1), (-1, 0), (1 + 2**64, 0), (1, 2**64)]
    )
    def test_invalid_coordinates(self, seed, index):
        """Coordinates are one Philox key word each: a value outside
        [0, 2^64) is rejected, not reduced onto another stream."""
        with pytest.raises(ArgumentError):
            RngStream(seed, index)

    def test_largest_coordinates_open(self):
        top = RngStream(2**64 - 1, 2**64 - 1).uniform(4)
        assert not np.array_equal(top, RngStream(0, 0).uniform(4))


class TestSampleGamma:
    """Log-space gamma draws (``_log_gamma_draws``), which every beta and
    Dirichlet draw is built from."""

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

    @pytest.mark.parametrize("shape", [0.0, -1.0, np.nan, np.inf, 1e-306])
    def test_invalid_shape(self, shape):
        """The public gamma-based samplers reject the shape before drawing."""
        with pytest.raises(ArgumentError):
            sample_beta(shape, 1.0, RngStream(0, 0), size=1)
        with pytest.raises(ArgumentError):
            sample_dirichlet((shape, 1.0), RngStream(0, 0), size=1)

    def test_min_shape_draws_stay_finite(self):
        """A boosted draw adds log(U) / shape, U >= the smallest normal
        double: finite at MIN_SHAPE, -inf below 3.9e-306.  At MIN_SHAPE beta
        shares are exactly 0 or 1, and Dirichlet vectors sum to one."""
        log_tiny = np.log(np.finfo(np.float64).tiny)
        assert np.isfinite(log_tiny / MIN_SHAPE)
        with np.errstate(over="ignore"):
            assert log_tiny / 3.9e-306 == -np.inf
        shares = sample_beta(MIN_SHAPE, MIN_SHAPE, RngStream(13, 0), size=1000)
        assert np.all((shares == 0.0) | (shares == 1.0))
        vectors = sample_dirichlet((MIN_SHAPE, MIN_SHAPE, 1.0), RngStream(13, 1), size=1000)
        np.testing.assert_allclose(vectors.sum(axis=1), 1.0, rtol=0, atol=1e-15)


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
        with pytest.raises(ArgumentError):
            sample_beta(0.0, 1.0, RngStream(0, 0), size=1)
        with pytest.raises(ArgumentError):
            sample_beta(1.0, -2.0, RngStream(0, 0), size=1)


class TestSampleBetaPerSlot:
    """Per-slot shape arrays: each slot is drawn from its own Beta law."""

    SHAPES = (0.3, 0.7, 1.0, 2.5, 1e4)

    def test_each_slot_follows_its_law(self):
        """Every (alpha, beta) pair of SHAPES, interleaved slot by slot, so
        each rejection round mixes pending slots of every shape, and the
        boost's uniforms are shared by slots of two shapes below 1.  (Much
        smaller shapes round a share to exactly 1 too often for a KS test.)"""
        pairs = list(itertools.product(self.SHAPES, repeat=2))
        alpha, beta = (np.tile(col, 2000) for col in zip(*pairs))
        draws = sample_beta(alpha, beta, RngStream(12, 0), size=alpha.size)
        for i, (a, b) in enumerate(pairs):
            p = scipy.stats.kstest(draws[i :: len(pairs)], scipy.stats.beta(a, b).cdf).pvalue
            assert p > 1e-3, (a, b, p)

    def test_tiny_shapes_come_out_zero_or_one(self):
        alpha = np.tile([3e-7, 1e-300, 3e-7, 1e-300], 2500)
        beta = np.tile([3e-7, 1e-300, 1e-300, 2.5], 2500)
        draws = sample_beta(alpha, beta, RngStream(12, 1), size=alpha.size)
        assert np.all((draws == 0.0) | (draws == 1.0))

    @pytest.mark.parametrize(
        "alpha, beta", [(0.3, 2.5), (2.5, 1e4), (1e-10, 0.999), (1.0, 1.0), (1.0, 7.0)]
    )
    def test_constant_slots_draw_the_scalar_shape_bits(self, alpha, beta):
        """Per-slot shapes take the scalar path's draws in the scalar path's
        order."""
        n = 5000
        per_slot = sample_beta(np.full(n, alpha), np.full(n, beta), RngStream(12, 2), size=n)
        np.testing.assert_array_equal(per_slot, sample_beta(alpha, beta, RngStream(12, 2), size=n))

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf, 1e-306])
    def test_any_bad_slot_raises(self, bad):
        shapes = np.array([1.0, 2.0, bad, 0.5])
        with pytest.raises(ArgumentError):
            sample_beta(shapes, 1.0, RngStream(0, 0), size=4)
        with pytest.raises(ArgumentError):
            sample_beta(np.ones(4), shapes, RngStream(0, 0), size=4)

    @pytest.mark.parametrize("shapes", [np.ones(3), np.ones(5), np.ones((2, 2)), np.ones((4, 1))])
    def test_shape_count_must_match_size(self, shapes):
        with pytest.raises(ArgumentError):
            sample_beta(shapes, 1.0, RngStream(0, 0), size=4)


# sha256 of the little-endian float64 scalar-shape draws of 999 slots from
# stream i of seed 2027 for the i-th (alpha, beta) pair, in turn; recorded
# when shape 1 joined Marsaglia-Tsang.  Per-slot shapes must leave it alone.
_SCALAR_BETA_PAIRS = [(0.3, 1.0), (1.0, 1.0), (2.5, 1e4), (1e4, 1e4), (3e-7, 3e-7),
                      (1e-300, 0.5), (1.0, 7.0), (0.999, 1.001)]
_SCALAR_BETA_DIGEST = "83b0c87b12c695e0202f095733a994faaf7e672354efa9425c3253faa2769d7b"


def test_scalar_beta_draws_are_bit_identical():
    h = hashlib.sha256()
    for i, (alpha, beta) in enumerate(_SCALAR_BETA_PAIRS):
        draws = sample_beta(alpha, beta, RngStream(2027, i), size=999)
        h.update(np.asarray(draws, dtype="<f8").tobytes())
    assert h.hexdigest() == _SCALAR_BETA_DIGEST


class TestSampleDirichlet:
    @pytest.mark.parametrize(
        "alphas", [(2.0, 2.0), (1.0, 2.0, 3.0), (0.01, 0.005, 5.0), (0.3, 0.7)]
    )
    def test_simplex_constraint(self, alphas):
        draws = sample_dirichlet(alphas, RngStream(3, 0), size=2000)
        assert np.all(draws >= 0.0)
        np.testing.assert_allclose(draws.sum(axis=1), 1.0, atol=1e-12)

    def test_symmetric_mean(self):
        draws = sample_dirichlet((2.0, 2.0), RngStream(3, 1), size=100_000)
        se = draws[:, 0].std(ddof=1) / np.sqrt(draws.shape[0])
        assert abs(draws[:, 0].mean() - 0.5) <= 3 * se

    def test_first_moment(self):
        draws = sample_dirichlet((1.0, 2.0, 3.0), RngStream(3, 2), size=100_000)
        se = draws[:, 0].std(ddof=1) / np.sqrt(draws.shape[0])
        assert abs(draws[:, 0].mean() - 1.0 / 6.0) <= 3 * se

    @pytest.mark.parametrize("alphas", [(1.0, 2.0, 3.0), (0.5, 0.5), (2.0, 3.0, 4.0, 5.0)])
    def test_pairwise_covariance(self, alphas):
        """Empirical covariances against -a_i a_j / (A^2 (A + 1))."""
        draws = sample_dirichlet(alphas, RngStream(3, 3), size=100_000)
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
        for alphas in [(1.0,), (1.0, 0.0), (1.0, -1.0, 2.0)]:
            with pytest.raises(ArgumentError):
                sample_dirichlet(alphas, RngStream(0, 0), size=1)


def _simpson(values, h):
    w = np.ones(values.size)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(w @ values * h / 3.0)
