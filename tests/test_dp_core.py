"""Core representations: base measures, realizations, conjugacy, moments."""

import numpy as np
import pytest
import scipy.integrate
import scipy.stats

from dplab import (
    ArgumentError,
    BorelSet,
    ParameterError,
    PartitionError,
    RngStream,
    TruncationError,
    TruncationPolicy,
    bisection_quantiles,
    dp_cdf,
    dp_cross_moment,
    dp_moments,
    dp_quantile,
    exponential_base,
    normal_base,
    posterior_update,
    sample_fidi,
    stick_breaking_sample,
    uniform_base,
)
from dplab import dp_core
from dplab.dp_core import validate_partition
from conftest import make_sample


class TestBaseMeasure:
    @pytest.mark.parametrize("factory", [uniform_base, exponential_base, normal_base])
    def test_quantile_inverts_cdf(self, factory):
        base = factory()
        u = np.linspace(0.001, 0.999, 200)
        np.testing.assert_allclose(base.cdf(base.quantile(u)), u, atol=1e-9)

    @pytest.mark.parametrize("factory", [uniform_base, exponential_base, normal_base])
    def test_cdf_nondecreasing(self, factory):
        base = factory()
        x = base.quantile(np.linspace(0.001, 0.999, 500))
        assert np.all(np.diff(base.cdf(x)) >= 0.0)

    @pytest.mark.parametrize(
        "factory,interval",
        [
            (uniform_base, (0.1, 0.8)),
            (exponential_base, (0.2, 2.5)),
            (normal_base, (-1.0, 1.5)),
        ],
    )
    def test_density_integrates_cdf(self, factory, interval):
        base = factory()
        quad, _ = scipy.integrate.quad(base.density, *interval)
        assert abs(quad - (base.cdf(interval[1]) - base.cdf(interval[0]))) <= 1e-6

    def test_measure_of_borel_set(self, uniform01):
        s = BorelSet((((0.0, 0.2), (0.5, 0.7))))
        assert uniform01.measure(s) == pytest.approx(0.4)


class TestBorelSet:
    def test_rejects_empty_interval(self):
        with pytest.raises(ParameterError):
            BorelSet.interval(0.5, 0.5)

    def test_rejects_overlap_and_disorder(self):
        with pytest.raises(ParameterError):
            BorelSet(((0.0, 0.5), (0.4, 0.8)))
        with pytest.raises(ParameterError):
            BorelSet(((0.5, 0.8), (0.0, 0.2)))

    def test_touching_intervals_allowed(self):
        s = BorelSet(((0.0, 0.3), (0.3, 1.0)))
        assert len(s.intervals) == 2

    def test_intersection(self):
        a = BorelSet(((0.0, 0.4), (0.6, 1.0)))
        b = BorelSet.interval(0.3, 0.7)
        assert a.intersect(b).intervals == ((0.3, 0.4), (0.6, 0.7))
        assert a.intersect(BorelSet.interval(0.45, 0.55)).is_empty

    def test_contains_interval(self):
        s = BorelSet(((0.0, 0.4), (0.6, 1.0)))
        assert s.contains_interval(0.1, 0.3)
        assert not s.contains_interval(0.3, 0.7)


def _measures(base, cells):
    measures = np.array([base.measure(cell) for cell in cells])
    validate_partition(cells, measures)
    return measures


class TestSampleFidi:
    def test_marginal_mean_is_cell_mass(self, uniform01):
        cells = [BorelSet.interval(0.0, 0.3), BorelSet.interval(0.3, 1.0)]
        draws = sample_fidi(10.0, _measures(uniform01, cells), RngStream(21, 0), size=20_000)
        se = draws[:, 0].std(ddof=1) / np.sqrt(draws.shape[0])
        assert abs(draws[:, 0].mean() - 0.3) <= 3 * se

    def test_zero_mass_cell_is_exactly_zero(self, uniform01):
        cells = [
            BorelSet.interval(0.0, 1.0),
            BorelSet.interval(2.0, 3.0),  # outside the support: mass 0
        ]
        draws = sample_fidi(5.0, _measures(uniform01, cells), RngStream(21, 1), size=50)
        assert np.all(draws[:, 1] == 0.0)
        assert np.all(draws[:, 0] == 1.0)
        draws = sample_fidi(5.0, [0.25, 0.0, 0.75], RngStream(21, 1), size=50)
        assert np.all(draws[:, 1] == 0.0)
        np.testing.assert_allclose(draws.sum(axis=1), 1.0, atol=1e-12)

    def test_equal_cells_are_symmetric(self, uniform01):
        cells = [BorelSet.interval(0.0, 0.5), BorelSet.interval(0.5, 1.0)]
        draws = sample_fidi(1.0, _measures(uniform01, cells), RngStream(21, 2), size=20_000)
        for j in range(2):
            se = draws[:, j].std(ddof=1) / np.sqrt(draws.shape[0])
            assert abs(draws[:, j].mean() - 0.5) <= 3 * se

    def test_non_partition_rejected(self, uniform01):
        with pytest.raises(PartitionError):  # gap: masses sum to 0.8
            _measures(uniform01, [BorelSet.interval(0.0, 0.8)])
        with pytest.raises(PartitionError):  # overlapping cells
            _measures(uniform01, [BorelSet.interval(0.0, 0.6), BorelSet.interval(0.4, 1.0)])
        with pytest.raises(ParameterError):
            sample_fidi(0.0, [0.5, 0.5], RngStream(0, 0))

    def test_single_cell_partition(self, uniform01):
        cells = [BorelSet.interval(*uniform01.support)]
        draws = sample_fidi(1.0, _measures(uniform01, cells), RngStream(0, 0), size=5)
        assert np.all(draws == 1.0)


class TestStickBreaking:
    @pytest.mark.parametrize("a", [0.5, 10.0, 1000.0])
    def test_stick_identity(self, uniform01, a):
        s = stick_breaking_sample(a, uniform01, TruncationPolicy(1e-10), RngStream(31, 0))
        assert abs(s.weights.sum() + s.truncation_remainder - 1.0) <= 1e-12
        assert np.all(s.weights > 0.0)
        assert np.all(np.diff(s.atoms) > 0.0)

    def test_remainder_below_epsilon(self, uniform01):
        s = stick_breaking_sample(50.0, uniform01, TruncationPolicy(1e-8), RngStream(31, 1))
        assert s.truncation_remainder <= 1e-8

    def test_max_atoms_cap(self, uniform01):
        s = stick_breaking_sample(
            100.0, uniform01, TruncationPolicy(1e-10, max_atoms=40), RngStream(31, 2)
        )
        assert s.n_atoms <= 40
        assert s.truncation_remainder > 1e-10  # cap hit before epsilon

    def test_mean_cdf_matches_base(self, uniform01):
        vals = np.array(
            [
                dp_cdf(
                    stick_breaking_sample(10.0, uniform01, TruncationPolicy(1e-10), RngStream(31, r)),
                    0.3,
                )
                for r in range(10_000)
            ]
        )
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(vals.mean() - 0.3) <= 3 * se

    def test_tiny_concentration_is_near_degenerate(self, uniform01):
        """With a = 0.01 the first stick eats almost everything: the largest
        weight exceeds 0.99 in more than 95% of replications."""
        wins = 0
        for r in range(1000):
            s = stick_breaking_sample(0.01, uniform01, TruncationPolicy(1e-10), RngStream(33, r))
            wins += s.weights.max() > 0.99
        assert wins / 1000 > 0.95

    @pytest.mark.parametrize("factory", [exponential_base, normal_base])
    def test_general_base_atoms_live_in_support(self, factory):
        base = factory()
        s = stick_breaking_sample(20.0, base, TruncationPolicy(1e-10), RngStream(31, 3))
        assert np.all(np.isfinite(s.atoms))
        lo, hi = base.support
        assert np.all(s.atoms > lo) and np.all(s.atoms < hi)

    def test_invalid_truncation(self):
        with pytest.raises(TruncationError):
            TruncationPolicy(0.0, max_atoms=None)
        with pytest.raises(TruncationError):
            TruncationPolicy(-1.0)
        with pytest.raises(TruncationError):
            TruncationPolicy(1e-10, max_atoms=0)

    def test_invalid_concentration(self, uniform01):
        with pytest.raises(ParameterError):
            stick_breaking_sample(0.0, uniform01, TruncationPolicy(), RngStream(0, 0))


class TestDpSampleValidation:
    def test_weights_must_be_positive(self):
        with pytest.raises(ParameterError):
            make_sample([0.1, 0.2], [0.5, 0.0], 0.5)

    def test_mass_must_close_to_one(self):
        with pytest.raises(ParameterError):
            make_sample([0.1, 0.2], [0.5, 0.4], 0.0)

    def test_ties_merged_by_weight(self):
        s = make_sample([0.2, 0.2, 0.7], [0.1, 0.2, 0.7])
        assert s.n_atoms == 2
        np.testing.assert_allclose(s.weights, [0.3, 0.7])


class TestDpCdf:
    def test_step_values(self):
        s = make_sample([0.2, 0.7], [0.3, 0.7])
        assert dp_cdf(s, 0.1) == 0.0
        assert dp_cdf(s, 0.5) == pytest.approx(0.3)
        assert dp_cdf(s, 0.9) == pytest.approx(1.0)
        # right-continuity: the atom's mass counts at the atom itself
        assert dp_cdf(s, 0.2) == pytest.approx(0.3)

    def test_vectorized(self):
        s = make_sample([0.2, 0.7], [0.3, 0.7])
        np.testing.assert_allclose(dp_cdf(s, np.array([0.1, 0.5, 0.9])), [0.0, 0.3, 1.0])

    def test_remainder_excluded(self):
        s = make_sample([0.5], [0.9], remainder=0.1)
        assert dp_cdf(s, 0.9) == pytest.approx(0.9)


class TestDpQuantile:
    def test_inf_definition_boundary(self):
        s = make_sample([0.2, 0.7], [0.3, 0.7])
        assert dp_quantile(s, 0.3) == 0.2
        assert dp_quantile(s, 0.31) == 0.7
        assert dp_quantile(s, 1.0) == 0.7

    def test_domain(self):
        s = make_sample([0.2], [1.0])
        for bad in (0.0, -0.1, 1.0001):
            with pytest.raises(ArgumentError):
                dp_quantile(s, bad)

    def test_cdf_quantile_idempotence(self, uniform01):
        s = stick_breaking_sample(7.0, uniform01, TruncationPolicy(1e-10), RngStream(37, 0))
        for u in np.linspace(0.01, 0.999, 57):
            x = dp_quantile(s, u)
            assert dp_cdf(s, x) >= u
            assert x in s.atoms


class TestBisectionQuantiles:
    LEVELS = [0.25, 0.5, 0.75]

    def test_cells_at_the_resolution_inside_the_unit_interval(self):
        q = bisection_quantiles(50.0, self.LEVELS, RngStream(41, 0), 500, epsilon=1e-6)
        assert q.shape == (500, 3)
        assert np.all((q > 0.0) & (q < 1.0))
        cells = q * 2.0**20 - 0.5  # depth ceil(log2(1e6)) = 20: midpoints of 2^-20 cells
        np.testing.assert_array_equal(cells, np.round(cells))

    def test_deepest_cells_stay_inside_the_unit_interval(self):
        """Below 2^-52 the depth is capped: midpoints of 2^-52 cells."""
        q = bisection_quantiles(0.5, [0.01, 0.99], RngStream(41, 2), 500, epsilon=1e-300)
        assert np.all((q > 0.0) & (q < 1.0))
        cells = q * 2.0**52 - 0.5
        np.testing.assert_array_equal(cells, np.round(cells))

    def test_shared_splits_keep_quantiles_ordered(self):
        """Levels in one cell share its split, so every realization's
        quantiles are nondecreasing in the level, and equal levels agree."""
        q = bisection_quantiles(3.0, [0.1, 0.5, 0.5, 0.52, 0.9], RngStream(41, 1), 2000, 1e-10)
        assert np.all(np.diff(q, axis=1) >= 0.0)
        np.testing.assert_array_equal(q[:, 1], q[:, 2])

    def test_draw_layout(self, monkeypatch):
        """One beta call per level, shape a 2^-(k+1), size * len(levels) draws."""
        calls, sample_beta = [], dp_core.sample_beta

        def recording_beta(alpha, beta, rng, size):
            calls.append((alpha, beta, size))
            return sample_beta(alpha, beta, rng, size)

        monkeypatch.setattr(dp_core, "sample_beta", recording_beta)
        bisection_quantiles(1e4, self.LEVELS, RngStream(41, 3), 7, epsilon=1e-10)
        assert calls == [(1e4 * 2.0 ** -(k + 1),) * 2 + (21,) for k in range(34)]

    @pytest.mark.parametrize("a, u", [(2.0, 0.3), (10.0, 0.5), (1e3, 0.9)])
    def test_marginal_law_is_exact(self, a, u):
        """P(Q(u) <= x) = P(P_a[0, x] >= u), with P_a[0, x] ~ Beta(a x, a(1 - x))."""
        q = bisection_quantiles(a, [u], RngStream(43, 0), 3000, 1e-10)[:, 0]
        _, p = scipy.stats.kstest(q, lambda x: scipy.stats.beta.sf(u, a * x, a * (1.0 - x)))
        assert p > 1e-3

    def test_rejects_bad_arguments(self):
        rng = RngStream(0, 0)
        with pytest.raises(ParameterError):
            bisection_quantiles(0.0, self.LEVELS, rng, 10, 1e-10)
        for levels in ([0.0, 0.5], [0.5, 1.0], [], [np.nan], [0.5, 0.25], [[0.5]]):
            with pytest.raises(ArgumentError):
                bisection_quantiles(1.0, levels, rng, 10, 1e-10)
        with pytest.raises(ArgumentError):
            bisection_quantiles(1.0, self.LEVELS, rng, 0, 1e-10)
        for eps in (0.0, 1.0):
            with pytest.raises(ArgumentError):
                bisection_quantiles(1.0, self.LEVELS, rng, 10, epsilon=eps)


class TestPosterior:
    def test_mixture_cdf_value(self, uniform01):
        post = posterior_update(2.0, uniform01, [0.2, 0.4, 0.6])
        assert post.cdf(0.5) == pytest.approx((2.0 * 0.5 + 2) / 5.0)

    def test_concentration_adds_sample_size(self, uniform01):
        assert posterior_update(2.0, uniform01, [0.2, 0.4, 0.6]).a_star == 5.0

    def test_empty_data_is_identity(self, uniform01):
        post = posterior_update(2.0, uniform01, [])
        assert post.a_star == 2.0
        for t in (0.1, 0.5, 0.9):
            assert post.cdf(t) == pytest.approx(uniform01.cdf(t))

    def test_measure_counts_data(self, uniform01):
        post = posterior_update(2.0, uniform01, [0.2, 0.4, 0.6])
        s = BorelSet.interval(0.3, 0.6)  # contains 0.4 and 0.6
        assert post.measure(s) == pytest.approx((2.0 * 0.3 + 2) / 5.0)


class TestClosedFormMoments:
    def test_mean_variance(self, uniform01):
        m, v = dp_moments(10.0, uniform01, BorelSet.interval(0.0, 0.3))
        assert m == pytest.approx(0.3)
        assert v == pytest.approx(0.21 / 11.0)

    def test_degenerate_masses(self, uniform01):
        assert dp_moments(10.0, uniform01, BorelSet.interval(2.0, 3.0)) == (0.0, 0.0)
        m, v = dp_moments(10.0, uniform01, BorelSet.interval(*uniform01.support))
        assert (m, v) == (1.0, 0.0)

    def test_cross_moment_disjoint(self, uniform01):
        a = BorelSet.interval(0.0, 0.3)
        b = BorelSet.interval(0.3, 0.5)
        assert dp_cross_moment(1.0, uniform01, a, b) == pytest.approx(0.03)

    def test_cross_moment_total_mass(self, uniform01):
        full = BorelSet.interval(*uniform01.support)
        assert dp_cross_moment(1.0, uniform01, full, full) == pytest.approx(1.0)

    def test_cross_moment_second_moment_case(self, uniform01):
        """A = B with mass 1/2 at a = 1 must reproduce the Beta(1/2, 1/2)
        second moment 0.125 + 0.25."""
        half = BorelSet.interval(0.0, 0.5)
        assert dp_cross_moment(1.0, uniform01, half, half) == pytest.approx(0.375)


class TestChebyshevConcentration:
    @pytest.mark.parametrize("a,eps", [(10.0, 0.2), (100.0, 0.05)])
    def test_tail_fraction_bounded(self, uniform01, a, eps):
        cells = [BorelSet.interval(0.0, 0.3), BorelSet.interval(0.3, 1.0)]
        draws = sample_fidi(a, _measures(uniform01, cells), RngStream(47, 0), size=20_000)
        exceed = np.abs(draws[:, 0] - 0.3) > eps
        frac = exceed.mean()
        bound = 0.3 * 0.7 / (eps**2 * (1.0 + a))
        se = np.sqrt(max(frac * (1 - frac), 1e-12) / draws.shape[0])
        assert frac <= bound + 4 * se
