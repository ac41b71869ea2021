"""Core representations: base measures, realizations, conjugacy, moments."""

import hashlib

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


# sha256 of (atoms, weights, truncation remainder, the stream's next uniform)
# of stick_breaking_sample(a, base, policy, RngStream(505, 0)), as little-endian
# float64, recorded from the implementation that paired weights with atoms by
# weights[permutation(n)].  Any change to the draw layout or to the arithmetic
# changes them.
_STICK_POLICIES = {
    "eps": TruncationPolicy(1e-10),
    "eps_cap50": TruncationPolicy(1e-10, max_atoms=50),
    "cap3000": TruncationPolicy(0.0, max_atoms=3000),  # many 256-stick blocks
}
_STICK_BASES = {"uniform": uniform_base, "exponential": exponential_base, "normal": normal_base}
_STICK_DIGESTS = {
    ("uniform", 0.5, "eps"): "ee471dc6432e16fc16d077cd7fe7d37c10040be9cf7a4e40b0f001bd06949b4e",
    ("uniform", 0.5, "eps_cap50"): "406a97c4474a2f2d89b0618108d23c1a40834366e819595681dec60319e197cf",
    ("uniform", 0.5, "cap3000"): "d187fa9daf9305b99a271040fbb841d9aab29dc7778522d0cd6feb579069e8ed",
    ("uniform", 10.0, "eps"): "e7e36597580fecd0244362468270c01b6b6fc8b24e3ad4bf7aa9253d3a7b7e3d",
    ("uniform", 10.0, "eps_cap50"): "70081da265bf259a304bc698c0627080dec544c7e52ed92d652a2760c8095d08",
    ("uniform", 10.0, "cap3000"): "3d9519a548ddfd3402164e547bf15cf408ec9b664a57e6139f89d354f196ee13",
    ("uniform", 100.0, "eps"): "ebd081975d585edae03181d39ca08346085d2b93f6398c239ec52b84195e7cc2",
    ("uniform", 100.0, "eps_cap50"): "75d482d28b99d70ef2eef029da7324b992b6680239d81b8e18adff250a11471d",
    ("uniform", 100.0, "cap3000"): "33c047aee45f48de55f3965850a8ea401338c85e257421c27b5e1547a60b8f92",
    ("uniform", 10000.0, "eps"): "baa85b1a7d59ef5097e8f90d09294ad92525352ced37a771bc5bc776c41e6727",
    ("uniform", 10000.0, "eps_cap50"): "41f3f76e131de69846778f5685fc645e04a09a737855572ffc85b6da38ad9410",
    ("uniform", 10000.0, "cap3000"): "aaa534e97dff228fe37131036871721f241c94d7ec17226220ee0881d555b9ed",
    ("exponential", 0.5, "eps"): "42318ee3b58c12490b00e16e7590d57c5c713b4ac86d11ce2fbd353e10ea266a",
    ("exponential", 0.5, "eps_cap50"): "15c6cf2ecd7c5ac1cbddeb3c61a5be09be88606b4f42d370fd5652ad3572eb67",
    ("exponential", 0.5, "cap3000"): "ded2dc9a745b176100ab07ed1949553b28199043071c3d22a63eb95d4063ebe0",
    ("exponential", 10.0, "eps"): "f812d07bbdd9e365ee1e26fe7fe8d8329d9675ef7eb7e68ff0a993f9147b0a5a",
    ("exponential", 10.0, "eps_cap50"): "c67fa34233d52652de14fd5f80e841dcd5192ccc6c3219d36d614b8875694d15",
    ("exponential", 10.0, "cap3000"): "0f5cb1edba80e0359eae99067ee6ca0719e037e6cbf4205d71330a8093d305d2",
    ("exponential", 100.0, "eps"): "57c7bd2fce12a3d2bc766850a4690102d3381b894d26b526005ce735602a71bb",
    ("exponential", 100.0, "eps_cap50"): "c448db50b8b389ca1f4c96e91faade3cfc5dc311bc06c3266b05c6c537f325b3",
    ("exponential", 100.0, "cap3000"): "e010593ed2037f45de7aae73878c45917c9c09e14305ae8d5f0f10b37ea75ad2",
    ("exponential", 10000.0, "eps"): "159914e1b70d06970858cb9b34444b12fd2101457cd98fc534af15812e078d31",
    ("exponential", 10000.0, "eps_cap50"): "4a6f7a4efa4de68d88ca258384b0405d6f4062aaf184e488654b42e67dde3d90",
    ("exponential", 10000.0, "cap3000"): "cd3d7be47fa1eab0f5ce0c480d028072c897225bf68e4ff60a11dc3e4cb5c238",
    ("normal", 0.5, "eps"): "2f9fca74364cd4353bee064de4f7b44731fe23372cdcdd35f181eb0ceeec9873",
    ("normal", 0.5, "eps_cap50"): "9a1e98223f169c8701fbc56b4e974d0ab3517a7bd3615dba18b2902d0e0a2b72",
    ("normal", 0.5, "cap3000"): "92b6bc54aad8027567c8c10d93300fba25121230ab0022bcee072c6d69ff257b",
    ("normal", 10.0, "eps"): "f67d26c452812822c706ee5ced07f316ed05abe7414fe51f9f8716a46ea3974e",
    ("normal", 10.0, "eps_cap50"): "8c49b398dfb52d761eb045f56715a90b79dcb7aa6152b6b9aa89dbf0714ede12",
    ("normal", 10.0, "cap3000"): "cffe5e24a8e55c8090ed34feaa2c90a97b6efa227f8a781bceaf3afeed9b9197",
    ("normal", 100.0, "eps"): "9b9ac7fcdf727d1e9d725284ac45aea21d60e29cb97ecc4ee897b0b2436b82c8",
    ("normal", 100.0, "eps_cap50"): "918383c47016517f9cae5016de30a8ff827f9dca6c8abed727e410e8c2769fc3",
    ("normal", 100.0, "cap3000"): "3fc3d27618fd5b89999709b478d7998345d23b9efe496bc62609918499dfc509",
    ("normal", 10000.0, "eps"): "4a823cffe9d2bead00f94ca633dcff2e0518f574a921a44c74bf0cff8bf969f3",
    ("normal", 10000.0, "eps_cap50"): "8135555868d93ccbf88090afae008774f40bd9f248c649582bf49f6900d735f8",
    ("normal", 10000.0, "cap3000"): "146ea7d5acc4c55c14ecb5d2b36e7b121efaa025a1f277e57cd1e7c2875beb01",
}
# RngStream(7, 655) is the first stream of seed 7 whose first block of sticks
# at a = 100, epsilon 1e-10 leaves more than epsilon, so it draws a second.
_TWO_BLOCK_DIGEST = "21291d70e0e971e4aea096a11240c6bee82da73629382dc0ed1a3cd1b78c22e6"


def _stick_digest(a, base, policy, rng):
    s = stick_breaking_sample(a, base, policy, rng)
    h = hashlib.sha256()
    for part in (s.atoms, s.weights, [s.truncation_remainder], [rng.uniform()]):
        h.update(np.asarray(part, dtype="<f8").tobytes())
    return h.hexdigest()


class TestStickBreakingDrawLayout:
    @pytest.mark.parametrize("key", list(_STICK_DIGESTS), ids=lambda k: "-".join(map(str, k)))
    def test_realization_is_bit_identical(self, key):
        base, a, policy = key
        rng = RngStream(505, 0)
        digest = _stick_digest(a, _STICK_BASES[base](), _STICK_POLICIES[policy], rng)
        assert digest == _STICK_DIGESTS[key]

    def test_second_block_is_bit_identical(self, uniform01):
        rng = RngStream(7, 655)
        sizes = []
        draw = rng.uniform

        def counted(n=None):
            sizes.append(n)
            return draw(n)

        rng.uniform = counted
        assert _stick_digest(100.0, uniform01, TruncationPolicy(1e-10), rng) == _TWO_BLOCK_DIGEST
        assert len(sizes) == 4  # two stick blocks, the atoms, the digest's draw


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
