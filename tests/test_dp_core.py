"""Core representations: base measures, realizations, conjugacy, moments."""

import hashlib
import tracemalloc

import numpy as np
import pytest
import scipy.integrate
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from dplab import (
    ArgumentError,
    BorelSet,
    RngStream,
    TruncationPolicy,
    bisection_quantiles,
    dp_cdf,
    dp_cross_moment,
    dp_moments,
    dp_quantile,
    exponential_base,
    normal_base,
    posterior_mean,
    sample_fidi,
    stick_breaking_sample,
    uniform_base,
)
from dplab import dp_core
from dplab.verify import refine_to_partition
from conftest import make_sample

# Borel sets on the grid k/4 (exact in binary floating point): sorted distinct
# endpoints paired off into disjoint intervals (lo, hi].
_borel_sets = st.lists(
    st.integers(-8, 8).map(lambda k: k / 4.0), min_size=2, max_size=8, unique=True
).map(lambda ends: sorted(ends)[: len(ends) // 2 * 2]).map(
    lambda ends: BorelSet(tuple(zip(ends[::2], ends[1::2])))
)


def _contains(s: BorelSet, x: float) -> bool:
    return any(lo < x <= hi for lo, hi in s.intervals)


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
        with pytest.raises(ArgumentError):
            BorelSet.interval(0.5, 0.5)

    def test_rejects_overlap_and_disorder(self):
        with pytest.raises(ArgumentError):
            BorelSet(((0.0, 0.5), (0.4, 0.8)))
        with pytest.raises(ArgumentError):
            BorelSet(((0.5, 0.8), (0.0, 0.2)))

    def test_touching_intervals_allowed(self):
        s = BorelSet(((0.0, 0.3), (0.3, 1.0)))
        assert len(s.intervals) == 2

    def test_intersection(self):
        a = BorelSet(((0.0, 0.4), (0.6, 1.0)))
        b = BorelSet.interval(0.3, 0.7)
        assert a.intersect(b).intervals == ((0.3, 0.4), (0.6, 0.7))
        assert a.intersect(BorelSet.interval(0.45, 0.55)).intervals == ()

    @settings(max_examples=300, deadline=None)
    @given(_borel_sets, _borel_sets)
    def test_intersect_matches_point_membership(self, a, b):
        """A point lies in the intersection iff it lies in both sets, at every
        endpoint, every midpoint between endpoints, and beyond both ends."""
        both = a.intersect(b)
        ends = sorted({x for s in (a, b) for pair in s.intervals for x in pair})
        points = [-3.0, 3.0, *ends, *((x + y) / 2.0 for x, y in zip(ends, ends[1:]))]
        for x in points:
            assert _contains(both, x) == (_contains(a, x) and _contains(b, x)), x


def _measures(base, cells):
    """The cells' H-measures: sums of the masses of the segments they are
    cut into, which are checked to sum to one."""
    _, masses, member = refine_to_partition(cells, base)
    return member @ masses


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

    def test_rejects_bad_concentration(self):
        with pytest.raises(ArgumentError):
            sample_fidi(0.0, [0.5, 0.5], RngStream(0, 0), size=1)

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

    @pytest.mark.parametrize("epsilon", [0.0, 1.0, -1.0, np.nan, np.inf])
    def test_invalid_truncation(self, epsilon):
        with pytest.raises(ArgumentError, match="0 < epsilon < 1"):
            TruncationPolicy(epsilon)

    def test_invalid_concentration(self, uniform01):
        with pytest.raises(ArgumentError):
            stick_breaking_sample(0.0, uniform01, TruncationPolicy(), RngStream(0, 0))


# sha256 of (atoms, weights, truncation remainder, the stream's next uniform)
# of stick_breaking_sample(a, base, policy, RngStream(505, 0)), as little-endian
# float64, recorded from the implementation that paired weights with atoms by
# weights[permutation(n)].  Any change to the draw layout or to the arithmetic
# changes them.  The eps_1e-2 and eps_1e-6 entries were recorded while
# stick-breaking could still stop at a max_atoms cap: an epsilon-only draw is
# the same with or without that cap's branches.
_STICK_POLICIES = {
    "eps": TruncationPolicy(1e-10),
    "eps_1e-2": TruncationPolicy(1e-2),
    "eps_1e-6": TruncationPolicy(1e-6),
}
_STICK_BASES = {"uniform": uniform_base, "exponential": exponential_base, "normal": normal_base}
_STICK_DIGESTS = {
    ("uniform", 0.5, "eps"): "ee471dc6432e16fc16d077cd7fe7d37c10040be9cf7a4e40b0f001bd06949b4e",
    ("uniform", 0.5, "eps_1e-2"): "950583e701628fd2f661b2f742ca717311df626f27f5ce3be956fcb560fa3cb9",
    ("uniform", 0.5, "eps_1e-6"): "1adfc2879eaddaa38dba50538bc8fe3425bbb8ea197860891bb50b159c7ce61f",
    ("uniform", 10.0, "eps"): "e7e36597580fecd0244362468270c01b6b6fc8b24e3ad4bf7aa9253d3a7b7e3d",
    ("uniform", 10.0, "eps_1e-2"): "f309e9d19c97a1d64261d8b9edd06153d9848f7afd59b2dad6788ce71e493505",
    ("uniform", 10.0, "eps_1e-6"): "127fa83782c1b2f4cd341cdb0ee0b62804dfb2b2cb5de976c306519573742f0c",
    ("uniform", 100.0, "eps"): "ebd081975d585edae03181d39ca08346085d2b93f6398c239ec52b84195e7cc2",
    ("uniform", 100.0, "eps_1e-2"): "77561123a5d70af13f60165d11d6f2001fdccea48372f822280c16aafe63dd32",
    ("uniform", 100.0, "eps_1e-6"): "01ffd25060375ac1e4436dbe2c685ed9919bd86d9f4ddc5de565a4722008d48b",
    ("uniform", 10000.0, "eps"): "baa85b1a7d59ef5097e8f90d09294ad92525352ced37a771bc5bc776c41e6727",
    ("uniform", 10000.0, "eps_1e-2"): "4a5a0a037e34799abd7e6174d8369846a3c0affda75762f0471ec135e17be284",
    ("uniform", 10000.0, "eps_1e-6"): "c13c5b290fe1c878afbe655d034ebdbc64f31cc4f86b08bf79bd8c736c714dde",
    ("exponential", 0.5, "eps"): "42318ee3b58c12490b00e16e7590d57c5c713b4ac86d11ce2fbd353e10ea266a",
    ("exponential", 0.5, "eps_1e-2"): "0002934d92e70369742720e0d87b00f43292b7751c5d1139ce4a024642d2d018",
    ("exponential", 0.5, "eps_1e-6"): "b08672f2909a655623293904f3fac34ecf2d05555e70a6ddbc1d98680af8edc2",
    ("exponential", 10.0, "eps"): "f812d07bbdd9e365ee1e26fe7fe8d8329d9675ef7eb7e68ff0a993f9147b0a5a",
    ("exponential", 10.0, "eps_1e-2"): "760a5db817efadb55332bd6d84b66a9a795f8fbfe1dd13fd3101bb72b91b798d",
    ("exponential", 10.0, "eps_1e-6"): "ae178dcc92715936b6307e2d87140b4d4a703e18c3f4b9b698f8c77b0ca5bad1",
    ("exponential", 100.0, "eps"): "57c7bd2fce12a3d2bc766850a4690102d3381b894d26b526005ce735602a71bb",
    ("exponential", 100.0, "eps_1e-2"): "400e780567703625d3447b07feec187202e99aa94d6ff04b902b5befe10f53f7",
    ("exponential", 100.0, "eps_1e-6"): "35bc26f975ab8d0744eb0d88990652291304044a9b7a80d3e8646900212469de",
    ("exponential", 10000.0, "eps"): "159914e1b70d06970858cb9b34444b12fd2101457cd98fc534af15812e078d31",
    ("exponential", 10000.0, "eps_1e-2"): "0e2a9f6b9fd900b9a7c0a4bd52c430d83c9bf6bb79d934db0220d7b31964040d",
    ("exponential", 10000.0, "eps_1e-6"): "b818d89c144fd50049201d230e7eda6f7ba05fc592ca3760af17d06e651a1661",
    ("normal", 0.5, "eps"): "2f9fca74364cd4353bee064de4f7b44731fe23372cdcdd35f181eb0ceeec9873",
    ("normal", 0.5, "eps_1e-2"): "3a05c729a593b647698d65d3ee7f71352427a1eb28fd9379e4ddbf77db7ea2ff",
    ("normal", 0.5, "eps_1e-6"): "eab5fb3678bcd1cb1bf1fd065a1a7fbea61a5f422308c814e6e2eeaf6b99ec77",
    ("normal", 10.0, "eps"): "f67d26c452812822c706ee5ced07f316ed05abe7414fe51f9f8716a46ea3974e",
    ("normal", 10.0, "eps_1e-2"): "181ce63cb96c310e7f33525a4c4faff4266d1720bb4d9e922f0ad5021e7aa081",
    ("normal", 10.0, "eps_1e-6"): "a82344c40c28e02348296c111de23554098902cc124b29c5c89c7e1bcebb85b4",
    ("normal", 100.0, "eps"): "9b9ac7fcdf727d1e9d725284ac45aea21d60e29cb97ecc4ee897b0b2436b82c8",
    ("normal", 100.0, "eps_1e-2"): "6402b506f1516b3d837b49fb37ec2cbf38e78c231f3389333aff58fa7fbb3d54",
    ("normal", 100.0, "eps_1e-6"): "d393f51345a66b9ec3f238b207bfae1a2bfd23af6c992ea3d8cae24d23600c15",
    ("normal", 10000.0, "eps"): "4a823cffe9d2bead00f94ca633dcff2e0518f574a921a44c74bf0cff8bf969f3",
    ("normal", 10000.0, "eps_1e-2"): "b719595c72adbf23373e2bd3f919d2190f4fadec14a00bd08bc5bc8455a0be38",
    ("normal", 10000.0, "eps_1e-6"): "f99e1a125895f2c903676fb1f136924fad5541147e0f5ec1f797a1093bc60f6e",
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

        def counted(n=None, out=None):
            sizes.append(n)
            return draw(n, out=out)

        rng.uniform = counted
        assert _stick_digest(100.0, uniform01, TruncationPolicy(1e-10), rng) == _TWO_BLOCK_DIGEST
        assert len(sizes) == 4  # two stick blocks, the atoms, the digest's draw


class TestStickBudget:
    def test_limit_is_inclusive(self):
        """The two a-values at epsilon 1e-10 whose budgets, int(a ln(1e10)
        1.04) + 64, are MAX_STICKS and MAX_STICKS + 1."""
        limit, per_a = dp_core.MAX_STICKS, np.log(1.0 / 1e-10) * 1.04
        assert dp_core.stick_budget((limit - 63.5) / per_a, 1e-10) == limit
        with pytest.raises(ArgumentError, match="MAX_STICKS"):
            dp_core.stick_budget((limit - 62.5) / per_a, 1e-10)

    @pytest.mark.parametrize(
        "a, trunc",
        [
            (1e15, TruncationPolicy(1e-10)),
            (1e300, TruncationPolicy(1e-10)),
        ],
        ids=["a_1e15", "a_1e300"],
    )
    def test_sampler_rejects_before_drawing(self, uniform01, a, trunc):
        rng = RngStream(41, 0)
        with pytest.raises(ArgumentError, match="MAX_STICKS"):
            stick_breaking_sample(a, uniform01, trunc, rng)
        assert rng.uniform() == RngStream(41, 0).uniform()  # nothing was drawn


class TestScratch:
    """Realizations drawn into one reused scratch are bit-identical to fresh
    ones, and a scratch never touches a sample drawn without it."""

    DRAWS = [
        (10.0, TruncationPolicy(1e-10)),
        (1e4, TruncationPolicy(1e-10)),
        (10.0, TruncationPolicy(1e-10)),
        (1e3, TruncationPolicy(1e-10)),
        (10.0, TruncationPolicy(1e-2)),
        (50.0, TruncationPolicy(1e-3)),
    ]

    @staticmethod
    def _parts(s):
        return s.atoms, s.weights, s.truncation_remainder, s.cdf_levels()

    def test_reused_scratch_is_bit_identical(self, uniform01, exp1):
        scratch = dp_core.Scratch()
        for i, (a, trunc) in enumerate(self.DRAWS * 2):
            base = uniform01 if i < len(self.DRAWS) else exp1
            fresh = stick_breaking_sample(a, base, trunc, RngStream(43, i))
            reused = stick_breaking_sample(a, base, trunc, RngStream(43, i), scratch)
            for x, y in zip(self._parts(fresh), self._parts(reused)):
                assert np.array_equal(x, y)

    def test_scratch_draws_leave_a_fresh_sample_alone(self, uniform01):
        kept = stick_breaking_sample(1e3, uniform01, TruncationPolicy(1e-10), RngStream(44, 0))
        before = [np.copy(x) for x in self._parts(kept)]
        scratch = dp_core.Scratch()
        for i, (a, trunc) in enumerate(self.DRAWS):
            stick_breaking_sample(a, uniform01, trunc, RngStream(44, 1 + i), scratch)
        for x, y in zip(before, self._parts(kept)):
            assert np.array_equal(x, y)

    def test_take_grows_and_carries_over(self):
        scratch = dp_core.Scratch()
        first = scratch.take("x", 3)
        first[:] = [1.0, 2.0, 3.0]
        assert scratch.take("x", 2).base is first.base  # shorter requests reuse it
        grown = scratch.take("x", 10**5, keep=3)
        assert grown.size == 10**5
        assert np.array_equal(grown[:3], [1.0, 2.0, 3.0])


class TestDpSampleValidation:
    @pytest.mark.parametrize(
        "weights",
        [[0.5, 0.0], [np.nan, 0.5], [0.5, np.nan], [np.nan, np.nan]],
        ids=["zero", "nan_first", "nan_last", "all_nan"],
    )
    def test_weights_must_be_positive(self, weights):
        """A NaN weight is not > 0: it must not slip past the positivity and
        mass checks, which both compare False against NaN."""
        with pytest.raises(ArgumentError, match="strictly positive"):
            make_sample([0.1, 0.2], weights, 0.5)

    def test_mass_must_close_to_one(self):
        with pytest.raises(ArgumentError):
            make_sample([0.1, 0.2], [0.5, 0.4], 0.0)

    def test_ties_merged_by_weight(self):
        s = make_sample([0.2, 0.2, 0.7], [0.1, 0.2, 0.7])
        assert s.n_atoms == 2
        np.testing.assert_allclose(s.weights, [0.3, 0.7])

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from([0.0, 0.2, 0.5, 0.7, 1.0]), st.floats(1e-3, 1.0)),
            min_size=1,
            max_size=20,
        ),
        st.one_of(st.just(0.0), st.floats(1e-12, 0.5)),
    )
    def test_tie_merging_conserves_weight(self, pairs, remainder):
        """Atoms come out unique and strictly increasing, each carrying the
        total weight of its ties, in any input order."""
        atoms = np.array([x for x, _ in pairs])
        weights = np.array([w for _, w in pairs])
        weights *= (1.0 - remainder) / weights.sum()
        s = make_sample(atoms, weights, remainder)
        assert np.all(np.diff(s.atoms) > 0.0)
        np.testing.assert_array_equal(s.atoms, np.unique(atoms))
        for x, w in zip(s.atoms, s.weights):
            assert w == pytest.approx(weights[atoms == x].sum(), rel=0, abs=1e-15)
        assert s.weights.sum() == pytest.approx(weights.sum(), rel=0, abs=1e-15)

    def test_validation_makes_no_gap_array(self):
        """Checking order and ties of 2^20 sorted atoms allocates bools, a
        byte per atom, never a float64 array of gaps (8 bytes per atom)."""
        n = 1 << 20
        atoms, weights = np.linspace(0.0, 1.0, n), np.full(n, 1.0 / n)
        tracemalloc.start()
        try:
            make_sample(atoms, weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * n


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

    def test_nan_rejected(self):
        s = make_sample([0.2, 0.7], [0.3, 0.7])
        for bad in (np.nan, np.array([0.5, np.nan])):
            with pytest.raises(ArgumentError):
                dp_cdf(s, bad)


class TestDpQuantile:
    def test_inf_definition_boundary(self):
        s = make_sample([0.2, 0.7], [0.3, 0.7])
        assert dp_quantile(s, 0.3) == 0.2
        assert dp_quantile(s, 0.31) == 0.7
        assert dp_quantile(s, 1.0) == 0.7

    def test_domain(self):
        s = make_sample([0.2], [1.0])
        for bad in (0.0, -0.1, 1.0001, np.nan, np.array([0.5, np.nan])):
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
        """At most 2^15 splits: one beta call, each level's shape
        a 2^-(k+1) repeated size * len(levels) times.  Above: one
        scalar-shape call per level of size * len(levels) draws."""
        calls, sample_beta = [], dp_core.sample_beta

        def recording_beta(alpha, beta, rng, size):
            calls.append((alpha, beta, size))
            return sample_beta(alpha, beta, rng, size)

        monkeypatch.setattr(dp_core, "sample_beta", recording_beta)
        shapes = [1e4 * 2.0 ** -(k + 1) for k in range(34)]
        bisection_quantiles(1e4, self.LEVELS, RngStream(41, 3), 7, epsilon=1e-10)
        [(alpha, beta, size)] = calls
        assert size == 34 * 21
        np.testing.assert_array_equal(alpha, np.repeat(shapes, 21))
        np.testing.assert_array_equal(beta, alpha)

        calls.clear()
        size = dp_core._GROUPED_SPLITS // (34 * 3) + 1  # 322: just above
        bisection_quantiles(1e4, self.LEVELS, RngStream(41, 3), size, epsilon=1e-10)
        assert calls == [(s, s, size * 3) for s in shapes]

    # (a, u, R): R = 3000 draws the splits level by level, R = 900 in one call.
    MARGINAL_CASES = [
        pytest.param(2.0, 0.3, 3000, id="2.0-0.3"),
        pytest.param(10.0, 0.5, 3000, id="10.0-0.5"),
        pytest.param(1e3, 0.9, 3000, id="1000.0-0.9"),
        pytest.param(100.0, 0.7, 900, id="100.0-0.7-one-call"),
    ]

    @staticmethod
    def _marginal_p(a, u, size):
        """KS p-value of Q(u) against its exact law: P(Q(u) <= x) =
        P(P_a[0, x] >= u), with P_a[0, x] ~ Beta(a x, a(1 - x))."""
        q = bisection_quantiles(a, [u], RngStream(43, 0), size, 1e-10)[:, 0]
        return scipy.stats.kstest(q, lambda x: scipy.stats.beta.sf(u, a * x, a * (1.0 - x))).pvalue

    @pytest.mark.parametrize("a, u, size", MARGINAL_CASES)
    def test_marginal_law_is_exact(self, a, u, size):
        assert self._marginal_p(a, u, size) > 1e-3

    @pytest.mark.parametrize("a, u, size", MARGINAL_CASES)
    def test_parent_cell_shape_fails(self, a, u, size, monkeypatch):
        """Negative control: every split drawn with its parent cell's shape
        a 2^-k in place of a 2^-(k+1), on both draw layouts."""
        sample_beta = dp_core.sample_beta
        monkeypatch.setattr(
            dp_core, "sample_beta",
            lambda alpha, beta, rng, size: sample_beta(2.0 * alpha, 2.0 * beta, rng, size),
        )
        assert self._marginal_p(a, u, size) < 1e-3

    def test_rejects_bad_arguments(self):
        rng = RngStream(0, 0)
        with pytest.raises(ArgumentError):
            bisection_quantiles(0.0, self.LEVELS, rng, 10, 1e-10)
        for levels in ([0.0, 0.5], [0.5, 1.0], [], [np.nan], [0.5, 0.25], [[0.5]]):
            with pytest.raises(ArgumentError):
                bisection_quantiles(1.0, levels, rng, 10, 1e-10)
        with pytest.raises(ArgumentError):
            bisection_quantiles(1.0, self.LEVELS, rng, 0, 1e-10)
        for eps in (0.0, 1.0):
            with pytest.raises(ArgumentError):
                bisection_quantiles(1.0, self.LEVELS, rng, 10, epsilon=eps)


# sha256 of the little-endian float64 quantiles that bisection_quantiles
# gives at LEVELS, R = 2,000 and epsilon 1e-10, for stream 0 of seeds 8809,
# 8810 and 3 in turn.  Depth 34 at every a; at a = 10^8 the Beta shapes run
# from 5e7 down to 3e-3.
_BISECTION_LEVELS = [0.05, 0.25, 0.5, 0.75, 0.95]
_BISECTION_DIGESTS = {
    10.0: "c7dfa3e67fac93c6661903125dd65da3ef1eb62aa37a444b78b9d72b9074fd54",
    1e4: "d4a61b6682ddb81a140062eff04c198a1be0fc1060a9b34c95ef85a039e1c554",
    1e8: "111738423014fe713519a82f6d661bcfdc0c6a849b6615463546726c24995352",
}


# The same at R = 100, whose 17,000 splits are drawn in one sample_beta call.
_GROUPED_BISECTION_DIGESTS = {
    10.0: "a3d218f3a75db9392ecf63b13fbfa3643cbf4ff795e4e53cd23bff0e87e19c72",
    1e4: "505c24d30cc2d2d130eb48beb6da9305168de99845c42d16f5a27d92df34e267",
    1e8: "04e58e4e29d54fcbbcf3524031ed84214813e5074caf23a6ffad05e6c3568e97",
}


def _bisection_digest(a, size):
    h = hashlib.sha256()
    for seed in (8809, 8810, 3):
        q = bisection_quantiles(a, _BISECTION_LEVELS, RngStream(seed, 0), size, 1e-10)
        h.update(np.asarray(q, dtype="<f8").tobytes())
    return h.hexdigest()


class TestBisectionQuantilesPinned:
    @pytest.mark.parametrize("a", list(_BISECTION_DIGESTS), ids=lambda a: f"{a:g}")
    def test_quantiles_are_bit_identical(self, a):
        assert _bisection_digest(a, 2000) == _BISECTION_DIGESTS[a]

    @pytest.mark.parametrize("a", list(_GROUPED_BISECTION_DIGESTS), ids=lambda a: f"{a:g}")
    def test_grouped_quantiles_are_bit_identical(self, a):
        assert _bisection_digest(a, 100) == _GROUPED_BISECTION_DIGESTS[a]


class TestPosterior:
    DATA = [0.2, 0.4, 0.6]

    def test_mixture_cdf_value(self, uniform01):
        mean = posterior_mean(2.0, uniform01, self.DATA, BorelSet.interval(0.0, 0.5))
        assert mean == pytest.approx((2.0 * 0.5 + 2) / 5.0)

    def test_empty_data_is_identity(self, uniform01):
        for t in (0.1, 0.5, 0.9):
            mean = posterior_mean(2.0, uniform01, [], BorelSet.interval(0.0, t))
            assert mean == pytest.approx(uniform01.cdf(t))

    def test_measure_counts_data(self, uniform01):
        s = BorelSet.interval(0.3, 0.6)  # contains 0.4 and 0.6
        assert posterior_mean(2.0, uniform01, self.DATA, s) == pytest.approx((2.0 * 0.3 + 2) / 5.0)

    def test_rejects_bad_concentration_and_data(self, uniform01):
        s = BorelSet.interval(0.0, 0.5)
        with pytest.raises(ArgumentError, match="concentration"):
            posterior_mean(0.0, uniform01, self.DATA, s)
        with pytest.raises(ArgumentError, match="finite"):
            posterior_mean(2.0, uniform01, [0.2, np.nan], s)


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
