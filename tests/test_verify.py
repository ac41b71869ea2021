"""Monte Carlo verification layer: oracles, pass-flag semantics, studies."""

import hashlib
import os
import threading
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from dplab import (
    ArgumentError,
    BaseMeasure,
    BorelSet,
    RngStream,
    TruncationPolicy,
    bisection_quantiles,
    bivariate_density_integral,
    cvm_deviation,
    density_convergence_study,
    donoho_liu_bounds,
    dp_cdf,
    dp_core,
    dp_quantile,
    exponential_base,
    fidi_normality_check,
    gc_study,
    limit_quantile_cov,
    moment_check,
    modulus_check,
    normal_base,
    posterior_check,
    quantile_limit_study,
    quantile_sampler_check,
    representation_check,
    sample_fidi,
    stick_breaking_sample,
    sup_deviation,
    uniform_base,
    verify,
)
from dplab.kolmogorov import kolmogorov_sf, smirnov, two_sample_sf
from dplab.verify import (
    Comparison,
    LevelCheck,
    check_partition,
    map_replications,
    mc_cov_se,
    mc_mean_se,
    mc_var_se,
    realization_masses,
    refine_to_partition,
)

from conftest import make_sample


class TestComparisonSemantics:
    def test_two_sided(self):
        assert Comparison.build("x", 1.05, 0.02, 1.0, 3.0).passed
        assert not Comparison.build("x", 1.10, 0.02, 1.0, 3.0).passed

    def test_one_sided(self):
        # far below the target is fine one-sided, fails two-sided
        assert Comparison.build("x", 0.2, 0.01, 1.0, 4.0, one_sided=True).passed
        assert not Comparison.build("x", 0.2, 0.01, 1.0, 4.0).passed

    def test_zero_se_degenerates_to_equality(self):
        assert Comparison.build("x", 5.0, 0.0, 5.0, 4.0).passed
        assert not Comparison.build("x", 5.0 + 1e-9, 0.0, 5.0, 4.0).passed

    def test_level_check(self):
        assert LevelCheck.build("ks", 0.01, 0.2, 0.01).passed
        assert not LevelCheck.build("ks", 0.08, 0.004, 0.01).passed


def _kolmogorov_edge_cases():
    """(n, d) on both sides of every branch edge of kolmogorov_sf: n*d at 1/2
    and 1, n*d at n - 1, d at 1/2, n*d^2 at 0.754693 (scipy's Durbin/Pomeranz
    edge), 2.2, 4, 18 and 370, and n*d^1.5 at 1.4; n on both sides of 140 and
    of 10^5, plus a sweep of sqrt(n)*d over the body of the law."""
    nudges = (1 - 1e-9, 1.0, 1 + 1e-9)
    cases = []
    for n in (1, 2, 3, 10, 139, 140, 141, 1000, 100000, 100001):
        # Far out at n = 10^5 scipy's smirnov costs about 0.15 s a call, so
        # the n*d^2 edges that only small n have (4 and 18) are left out there.
        edges = (0.754693, 2.2, 4.0, 18.0, 370.0) if n < 100000 else (0.754693, 2.2, 370.0)
        ds = [t * f / n for t in (0.5, 1.0, n - 1.0) for f in nudges]
        ds += [0.5 * f for f in nudges]
        ds += [np.sqrt(c * f / n) for c in edges for f in nudges]
        ds += [(1.4 * f / n) ** (2 / 3) for f in nudges]
        cases += [(n, d) for d in ds if 0.0 < d < 1.0]
    for n in (5, 50, 140, 141, 500, 3000):
        cases += [(n, s / np.sqrt(n)) for s in np.linspace(0.2, 2.5, 12) if s / np.sqrt(n) < 1]
    return cases


class TestKolmogorov:
    """``dplab.kolmogorov`` against scipy.stats, which it stands in for."""

    def test_one_sample_tail_matches_kstwo(self):
        far = []
        for n, d in _kolmogorov_edge_cases():
            ref = float(scipy.stats.kstwo.sf(d, n))
            got = kolmogorov_sf(n, float(d))
            if ref > 1e-12:
                assert abs(got - ref) <= 1e-10 * ref, (n, d, got, ref)
            else:
                far.append((n, d, got))
        assert far and all(got <= 1e-11 for _, _, got in far), far

    def test_smirnov_tail_matches_scipy(self):
        """The Birnbaum-Tingey sum against scipy.special.smirnov wherever
        kolmogorov_sf takes it: n d^2 from 2.2 (4 up to n = 140) to 370, and
        d >= 1/2."""
        for n in (3, 10, 140, 141, 1000, 3000, 31623, 100000):
            cs = (2.2, 4.0, 10.0, 30.0, 100.0, 369.0) if n < 100000 else (2.2, 30.0, 369.0)
            for d in [np.sqrt(c / n) for c in cs] + [0.5, 0.75]:
                if not 1.0 < n * d < n - 1.0:
                    continue
                ref, got = scipy.special.smirnov(n, d), smirnov(n, float(d))
                if ref > 1e-12:
                    assert abs(got - ref) <= 1e-10 * ref, (n, d, got, ref)
                else:
                    assert got <= 1e-11, (n, d, got, ref)

    def test_far_tail_is_zero_from_n_d2_370(self):
        for n in (141, 1000, 100000, 10**6):
            assert kolmogorov_sf(n, np.sqrt(370.0 / n)) == 0.0

    def test_two_sample_tail_at_one_step_is_one(self):
        """D_{n,n} >= 1/n always.  The recursion lands within a few ulps of
        one there; where it rounds past one (n = 7), ks_2samp leaves the exact
        law for the asymptotic one, and the check clips to one instead."""
        assert all(abs(two_sample_sf(n, 1) - 1.0) < 1e-15 for n in range(1, 60))
        x, y = np.arange(0.0, 14.0, 2.0), np.arange(1.0, 15.0, 2.0)
        check = verify.ks_two_sample_check("xy", x, y)
        assert (check.statistic, check.p_value) == (1 / 7, 1.0)

    @pytest.mark.parametrize("n", [1, 2, 100, 3000, 12000])
    def test_checks_match_kstest_and_ks_2samp(self, n):
        rng = np.random.default_rng(1000 + n)
        for shift in (0.0, 0.05, 0.5):
            x, y = rng.normal(shift, 1.0, n), rng.normal(0.0, 1.0, n)
            one, ref = verify.ks_normal_check("x", x), scipy.stats.kstest(x, "norm")
            assert one.statistic == ref.statistic
            assert abs(one.p_value - ref.pvalue) <= 1e-10 * ref.pvalue
            two, ref = verify.ks_two_sample_check("xy", x, y), scipy.stats.ks_2samp(x, y)
            assert two.statistic == ref.statistic
            if n <= 10_000:
                assert two.p_value == ref.pvalue
            else:
                assert abs(two.p_value - ref.pvalue) <= 1e-10 * ref.pvalue

    def test_nan_sample_fails_without_raising(self):
        """At n = 100 a NaN statistic would reach the Durbin branch, whose
        matrix order needs a finite n*d."""
        x = np.random.default_rng(7).normal(size=100)
        y = x[::-1].copy()
        x[17] = np.nan
        for check in (verify.ks_normal_check("x", x), verify.ks_two_sample_check("xy", x, y),
                      verify.ks_two_sample_check("yx", y, x)):
            assert np.isnan(check.statistic) and np.isnan(check.p_value)
            assert not check.passed

    def test_two_sample_sizes_must_match(self):
        with pytest.raises(ArgumentError, match="equal sizes"):
            verify.ks_two_sample_check("xy", np.zeros(10), np.zeros(11))

    def test_shifted_normal_fails(self):
        """Negative control: N(0.1, 1) at n = 3000 is no standard normal."""
        x = np.random.default_rng(2024).normal(0.1, 1.0, 3000)
        assert not verify.ks_normal_check("shifted", x).passed


def _kolmogorov_pin_grid(n: int) -> list[float]:
    """The d of the pinned grid at n: n*d near 1/2, 1, n - 1 and n, n*d^2
    from 0.02 to 371 and d at 0.3, 1/2 and 3/4, which together reach the
    Ruben-Gambino ends, the Durbin matrix, Pelz-Good, twice the Smirnov tail
    and the zero far tail."""
    ds = [t / n for t in (0.4, 0.75, 1.0, 1.5, n - 1.5, n - 1.0, n - 0.5)]
    ds += [np.sqrt(c / n) for c in (0.02, 0.1, 0.3, 0.6, 1.0, 1.5, 2.2, 4.0, 10.0, 30.0,
                                    100.0, 369.0, 371.0)]
    return [float(d) for d in sorted(set(ds + [0.3, 0.5, 0.75])) if 0.0 < d < 1.0]


# sha256 of the little-endian float64 smirnov(n, d) values over
# _kolmogorov_pin_grid(n), followed by the kolmogorov_sf(n, d) values.
_KOLMOGOROV_DIGESTS = {
    3: "489f6364c6d66d360aaa34d6136a7e9a5c84e5299264e63673df6613766a8f78",
    40: "098b8e3b33711d08b2a8e09cf68cdabe6a62b6cb207318a81166687ae6e44216",
    140: "e8205e99f7d6d949a8b88382a1e3361530db38d5f11552be353d75a72f14aa3a",
    141: "e318b1e4eaf58888122434ff5ecfaa6efdc0009f26572f28462da9ea7e859ed8",
    3000: "f44dcc6112bccb44e47e6b5680cb577036e734c3d2c1b9ae1982fff001f6a430",
    100_000: "ab292a6a74ba0ec976415a7e8be0eaf8feb75cd0ce9468e69d877f037b02941d",
    1_000_000: "f326facb68a06c9111bd7e738b830170bea2414c1090ea1214758f460aa41695",
}


class TestKolmogorovPinned:
    """The KS p-values bit for bit: a moved bit in the Stirling series or any
    branch shows here, where TestKolmogorov's 1e-10 against scipy cannot
    see it."""

    @pytest.mark.parametrize("n", list(_KOLMOGOROV_DIGESTS))
    def test_values_are_bit_identical(self, n):
        ds = _kolmogorov_pin_grid(n)
        values = [smirnov(n, d) for d in ds] + [kolmogorov_sf(n, d) for d in ds]
        digest = hashlib.sha256(np.array(values, dtype="<f8").tobytes()).hexdigest()
        assert digest == _KOLMOGOROV_DIGESTS[n]

    def test_grid_reaches_every_branch(self, monkeypatch):
        from dplab import kolmogorov

        seen = Counter()
        for name in ("_durbin_cdf", "_pelz_good_cdf", "smirnov"):
            def spy(*args, _f=getattr(kolmogorov, name), _name=name):
                seen[_name] += 1
                return _f(*args)
            monkeypatch.setattr(kolmogorov, name, spy)
        for n in _KOLMOGOROV_DIGESTS:
            for d in _kolmogorov_pin_grid(n):
                kolmogorov_sf(n, d)
                t = n * d
                seen["ruben_gambino_low"] += n <= 140 and 0.5 < t <= 1.0
                seen["ruben_gambino_high"] += t >= n - 1
                seen["far_tail_zero"] += n > 140 and d < 0.5 and t * d >= 370.0
        assert min(seen.values()) > 0 and len(seen) == 6, seen
        assert max(_KOLMOGOROV_DIGESTS) == 10**6


# sha256 of the little-endian float64 KS statistics of ks_normal_check on
# four normal samples of size n, drawn in turn from default_rng(4040 + n) with
# (loc, scale) = (0, 1), (0.05, 1), (0.3, 1) and (0, 4).  The statistic is
# written to the summary CSVs at 17 digits.
_KS_NORMAL_DIGESTS = {
    100: "bdbfe2258ccb7e791a105bdc5b154fadd81eb51149ad3e52dd16d7d4a6c95ce5",
    3000: "11971a5331e4e4c6f02cffb5b363478c29101fe86a98bf43e6ae71e7f621b68f",
    100000: "a165a408f4c2f0cdca6f526320a6294062cdc65eeffd62b5c5080568e5521b41",
}


class TestKsNormalPinned:
    @pytest.mark.parametrize("n", list(_KS_NORMAL_DIGESTS))
    def test_statistics_are_bit_identical(self, n):
        rng = np.random.default_rng(4040 + n)
        stats = [verify.ks_normal_check("x", rng.normal(loc, scale, n)).statistic
                 for loc, scale in ((0.0, 1.0), (0.05, 1.0), (0.3, 1.0), (0.0, 4.0))]
        assert hashlib.sha256(np.array(stats, dtype="<f8").tobytes()).hexdigest() == _KS_NORMAL_DIGESTS[n]


class TestReplicationEngine:
    @pytest.fixture(autouse=True)
    def four_cpus(self, monkeypatch):
        """Room for a pool of up to four threads on any runner."""
        monkeypatch.setattr(os, "cpu_count", lambda: 4)

    def test_stream_allocation(self, monkeypatch):
        monkeypatch.setenv("DPLAB_THREADS", "1")
        vals = map_replications(lambda rng, scratch: np.array([rng.uniform()]), 5, 99, 10)
        direct = [RngStream(99, 10 + r).uniform() for r in range(5)]
        np.testing.assert_array_equal(vals[:, 0], direct)

    def test_thread_count_does_not_change_results(self, monkeypatch):
        def rep(rng, scratch):
            scratch.take("work", verify.MIN_PARALLEL_ENTRIES)
            return rng.uniform(3)

        monkeypatch.setenv("DPLAB_THREADS", "1")
        a = map_replications(rep, 200, 7, 0)
        monkeypatch.setenv("DPLAB_THREADS", "4")
        b = map_replications(rep, 200, 7, 0)
        assert np.array_equal(a, b)

    def test_slow_replications_fan_out_without_changing_results(self, monkeypatch):
        ran_on = set()

        def rep(rng, scratch):
            ran_on.add(threading.get_ident())
            scratch.take("work", verify.MIN_PARALLEL_ENTRIES)
            return rng.uniform(3)

        monkeypatch.setenv("DPLAB_THREADS", "2")
        fanned = map_replications(rep, 12, 7, 0)
        assert ran_on - {threading.get_ident()}  # some share ran on a worker
        monkeypatch.setenv("DPLAB_THREADS", "1")
        assert np.array_equal(fanned, map_replications(rep, 12, 7, 0))

    def test_fast_replications_stay_on_the_calling_thread(self, monkeypatch):
        monkeypatch.setenv("DPLAB_THREADS", "4")
        ran_on = set()

        def rep(rng, scratch):
            ran_on.add(threading.get_ident())
            return rng.uniform(3)

        map_replications(rep, 200, 7, 0)
        assert ran_on == {threading.get_ident()}

    def test_gc_study_is_thread_count_free(self, uniform01, monkeypatch):
        curves = []
        for threads in ("1", "2"):
            monkeypatch.setenv("DPLAB_THREADS", threads)
            curves.append(gc_study([100.0, 1000.0], uniform01, 6, 17))
        assert curves[0].to_json() == curves[1].to_json()

    def test_rejects_no_replications(self):
        with pytest.raises(ArgumentError, match="replications must be positive"):
            map_replications(lambda rng, scratch: rng.uniform(1), 0, 1)

    def test_thread_count_is_at_most_one_per_cpu(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        for env, threads in (("100000", 3), ("2", 2), ("0", 3), ("", 3), ("-5", 3)):
            monkeypatch.setenv("DPLAB_THREADS", env)
            assert verify.resolve_threads() == threads

    def test_variance_se_estimator(self):
        x = RngStream(1, 0).normal(50_000)
        var, se = mc_var_se(x)
        assert abs(var - 1.0) <= 4 * se


class TestMomentCheck:
    def test_headline_means_and_variances(self, uniform01):
        sets = [BorelSet.interval(0.0, 0.3)]
        out = moment_check(10.0, uniform01, sets, 20_000, 101)
        by_name = {c.name: c for c in out.comparisons}
        assert by_name["mean[S1]"].target == pytest.approx(0.3)
        assert by_name["var[S1]"].target == pytest.approx(0.21 / 11.0)
        assert out.passed

    def test_disjoint_cross_moment(self, uniform01):
        sets = [BorelSet.interval(0.0, 0.3), BorelSet.interval(0.3, 0.5)]
        out = moment_check(1.0, uniform01, sets, 20_000, 102)
        cross = next(c for c in out.comparisons if c.name.startswith("cross"))
        assert cross.target == pytest.approx(0.03)
        assert cross.passed

    def test_overlapping_sets_use_intersection_term(self, uniform01):
        sets = [BorelSet.interval(0.0, 0.3), BorelSet.interval(0.2, 0.5)]
        out = moment_check(1.0, uniform01, sets, 20_000, 103)
        cross = next(c for c in out.comparisons if c.name.startswith("cross"))
        assert cross.target == pytest.approx((0.1 + 1.0 * 0.3 * 0.3) / 2.0)
        assert cross.passed

    def test_requires_enough_replications(self, uniform01):
        with pytest.raises(ArgumentError):
            moment_check(1.0, uniform01, [BorelSet.interval(0, 1)], 999, 0)

    def test_pass_flags_recomputable(self, uniform01):
        """No hidden state: each flag follows from its stored fields."""
        sets = [BorelSet.interval(0.0, 0.3), BorelSet.interval(0.3, 0.5)]
        out = moment_check(2.0, uniform01, sets, 5000, 104)
        for c in out.comparisons:
            gap = c.estimate - c.target
            slack = c.tolerance_se * c.standard_error
            expected = gap <= slack if c.one_sided else abs(gap) <= slack
            assert c.passed == expected


class TestModulusCheck:
    def test_product_moment_against_exact(self):
        out = modulus_check(1.0, 0.0, 0.5, 1.0, 20_000, 111)
        prod = next(c for c in out.comparisons if c.name == "increment_product")
        assert prod.target == pytest.approx(0.125)
        assert out.passed

    def test_degenerate_increment_is_zero(self):
        out = modulus_check(1.0, 0.4, 0.4, 0.9, 100, 112)
        prod = next(c for c in out.comparisons if c.name == "increment_product")
        assert prod.estimate == 0.0 and prod.target == 0.0 and prod.passed

    def test_quadratic_bound_is_one_sided(self):
        out = modulus_check(10.0, 0.1, 0.4, 0.9, 20_000, 113)
        bound = next(c for c in out.comparisons if c.name == "increment_product_bound")
        assert bound.one_sided
        assert bound.target == pytest.approx(10.0 / 11.0 * 0.64)
        assert bound.passed

    def test_ordering_violation(self):
        with pytest.raises(ArgumentError):
            modulus_check(1.0, 0.5, 0.4, 0.9, 100, 0)


class TestFidiNormality:
    def test_canonical_cells(self, canonical_cells):
        out = fidi_normality_check(1e4, canonical_cells, 4000, 121)
        assert out.passed
        # covariance targets are the bridge covariances
        by_name = {c.name: c for c in out.comparisons}
        assert by_name["cov[S1,S1]"].target == pytest.approx(0.25 * 0.75)
        assert by_name["cov[S1,S2]"].target == pytest.approx(-0.0625)
        assert by_name["mean[S1]"].target == 0.0
        assert len(out.level_checks) == 3


def _brute_force_sup(sample, base):
    xs = np.concatenate(
        [sample.atoms, sample.atoms - 1e-9, np.linspace(0.0, 1.0, 2001)]
    )
    return np.max(np.abs(dp_cdf(sample, xs) - np.asarray(base.cdf(xs))))


def _exact_deviation(atoms, weights):
    """(sup, cvm) of F - x on [0, 1] in rational arithmetic, from
    the raw atoms and weights; F(t) is the weight of the atoms <= t."""
    pairs = [(Fraction(t), Fraction(w)) for t, w in zip(atoms, weights)]

    def cdf(t, strict=False):
        return sum((w for x, w in pairs if (x < t if strict else x <= t)), Fraction(0))

    one = Fraction(1)
    candidates = [abs(cdf(x) - x) for x, _ in pairs] + [abs(cdf(x, True) - x) for x, _ in pairs]
    candidates += [cdf(Fraction(0)), one - cdf(one)]
    cuts = sorted({Fraction(0), one, *(x for x, _ in pairs)})
    cvm = sum(
        ((cdf(lo) - lo) ** 3 - (cdf(lo) - hi) ** 3) / 3 for lo, hi in zip(cuts, cuts[1:])
    )
    return float(max(candidates)), float(cvm)


_unit_atoms = st.one_of(st.sampled_from([0.0, 0.125, 0.5, 0.75, 1.0]), st.floats(0.0, 1.0))


@st.composite
def _partitions(draw):
    """A partition of (lo, hi], lo <= 0 < 1 <= hi, on the grid k/8 into at
    most four cells; a cell is the union of the segments between sorted
    endpoints that drew its label, so it may have several intervals, and
    intervals past the unit support."""
    lo, hi = draw(st.integers(-4, 0)) / 8.0, draw(st.integers(8, 12)) / 8.0
    inner = draw(st.sets(st.integers(-3, 11), max_size=8))
    ends = sorted({lo, hi} | {k / 8.0 for k in inner if lo < k / 8.0 < hi})
    labels = draw(st.lists(st.integers(0, 3), min_size=len(ends) - 1, max_size=len(ends) - 1))
    cells = {}
    for label, pair in zip(labels, zip(ends, ends[1:])):
        cells.setdefault(label, []).append(pair)
    return [BorelSet(tuple(pairs)) for pairs in cells.values()]


class TestRefineToPartition:
    @pytest.mark.parametrize(
        "base_name, outside",
        [
            ("uniform", ((1.5, 2.0),)),
            ("uniform", ((-2.0, -1.0),)),
            ("uniform", ((-2.0, -1.0), (1.5, 2.0))),
            ("exponential", ((-3.0, -1.0),)),
        ],
    )
    def test_a_set_outside_the_support_adds_no_column(self, base_name, outside):
        """Every cut lies inside the support, and a set wholly outside it
        adds no segment and contains none."""
        base = {"uniform": uniform_base, "exponential": exponential_base}[base_name]()
        sets = [BorelSet.interval(0.0, 0.5)]
        cuts, masses, member = refine_to_partition(sets, base)
        got_cuts, got_masses, got_member = refine_to_partition([*sets, BorelSet(outside)], base)
        lo, hi = base.support
        assert np.all((lo <= got_cuts) & (got_cuts <= hi))
        assert got_cuts.tolist() == cuts.tolist() and got_masses.tolist() == masses.tolist()
        assert got_member[0].tolist() == member[0].tolist() and not got_member[1].any()

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(["uniform", "exponential", "normal"]),
        st.lists(
            st.lists(st.integers(-4, 12), min_size=2, max_size=6, unique=True),
            min_size=1,
            max_size=4,
        ),
    )
    def test_segments_sum_to_set_masses(self, base_name, endpoint_lists):
        """The cut points include the support's ends; each segment's mass is
        the H-measure of its interval, bit for bit; inside the support a
        segment belongs to a set iff its midpoint does; and a set's mass is
        the sum of its segments' masses."""
        base = {"uniform": uniform_base, "exponential": exponential_base,
                "normal": normal_base}[base_name]()
        sets = []
        for ends in endpoint_lists:
            ends = sorted(k / 8.0 for k in ends)[: len(ends) // 2 * 2]
            sets.append(BorelSet(tuple(zip(ends[::2], ends[1::2]))))
        cuts, masses, member = refine_to_partition(sets, base)
        lo, hi = base.support
        assert lo in cuts and hi in cuts and np.all(np.diff(cuts) > 0)
        assert masses.tolist() == [base.measure(BorelSet.interval(l, h))
                                   for l, h in zip(cuts, cuts[1:])]
        inside = np.flatnonzero((cuts[:-1] >= lo) & (cuts[1:] <= hi))
        for i, s in enumerate(sets):
            for j in inside:
                mid = (cuts[j] + cuts[j + 1]) / 2.0
                assert member[i, j] == any(l < mid <= h for l, h in s.intervals), (i, j)
            assert member[i] @ masses == pytest.approx(base.measure(s), rel=0, abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(
        _partitions(),
        st.lists(st.tuples(st.integers(1, 15), st.floats(1e-3, 1.0)), min_size=1, max_size=20),
    )
    def test_realization_masses_sum_each_cells_intervals(self, cells, pairs):
        """A realization's cell masses from one dp_cdf call at the cut points
        equal the sum of dp_cdf(hi) - dp_cdf(lo) over each cell's intervals:
        bit for bit for a single-interval cell.  Atoms sit on the grid k/16,
        so some fall on cut points."""
        atoms = np.array([k / 16.0 for k, _ in pairs])
        weights = np.array([w for _, w in pairs])
        sample = make_sample(atoms, weights / weights.sum())
        cuts, segments, member = refine_to_partition(cells, uniform_base())
        check_partition(cells, member @ segments)
        got = realization_masses(sample, cuts, member)
        for i, cell in enumerate(cells):
            expected = 0.0
            for lo, hi in cell.intervals:
                expected += dp_cdf(sample, hi) - dp_cdf(sample, lo)
            if len(cell.intervals) == 1:
                assert got[i] == expected, i
            else:
                assert got[i] == pytest.approx(expected, rel=0, abs=1e-15), i


class TestExactDeviationStats:
    def test_single_atom_values(self, uniform01):
        s = make_sample([0.5], [1.0])
        assert sup_deviation(s, uniform01) == pytest.approx(0.5)
        assert cvm_deviation(s, uniform01) == pytest.approx(1.0 / 12.0)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(_unit_atoms, st.floats(1e-3, 1.0)), min_size=1, max_size=30),
        st.one_of(st.just(0.0), st.floats(1e-12, 0.5)),
    )
    def test_matches_exact_brute_force(self, pairs, remainder):
        atoms = np.array([t for t, _ in pairs])
        weights = np.array([w for _, w in pairs])
        weights *= (1.0 - remainder) / weights.sum()
        s = make_sample(atoms, weights, remainder)
        got = verify._deviation_stats(s, uniform_base())
        want = _exact_deviation(atoms, weights)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_sup_against_brute_force(self, uniform01):
        for r in range(25):
            s = stick_breaking_sample(
                3.0, uniform01, TruncationPolicy(1e-6), RngStream(131, r)
            )
            exact = sup_deviation(s, uniform01)
            assert exact >= _brute_force_sup(s, uniform01) - 1e-9
            # the brute force grid gets within grid resolution of the sup
            assert exact <= _brute_force_sup(s, uniform01) + 1e-3

    def test_cvm_against_adaptive_quadrature(self, uniform01):
        for r in range(10):
            s = stick_breaking_sample(
                3.0, uniform01, TruncationPolicy(1e-6), RngStream(132, r)
            )
            exact = cvm_deviation(s, uniform01)
            quad, _ = scipy.integrate.quad(
                lambda x: (dp_cdf(s, x) - x) ** 2,
                0.0,
                1.0,
                points=np.sort(s.atoms),
                limit=200,
            )
            assert abs(exact - quad) <= 1e-8

    def test_cvm_under_general_base(self, exp1):
        s = stick_breaking_sample(
            3.0, exp1, TruncationPolicy(1e-6), RngStream(133, 0)
        )
        exact = cvm_deviation(s, exp1)
        quad, _ = scipy.integrate.quad(
            lambda x: (dp_cdf(s, x) - exp1.cdf(x)) ** 2 * exp1.density(x),
            0.0,
            40.0,
            points=np.sort(s.atoms),
            limit=300,
        )
        assert abs(exact - quad) <= 1e-8


# sha256 of the little-endian float64 (sup, cvm, grid_sup) triples for
# streams 0, 1 and 2 of seed 1616, each drawn by stick-breaking at epsilon
# 1e-10 into one scratch that _deviation_stats then shares, as a gc
# replication does.  (sup, cvm) is _deviation_stats's; grid_sup is
# max |P_a - H| over a 512-point H-level grid on the uniform base, from
# dp_cdf, and 0.0 on the unit-rate exponential base.  At a = 10^4 a
# realization has about 230k atoms.
_DEVIATION_DIGESTS = {
    ("uniform", 10.0): "41aa46084fbf3b4b4fd8d408332ae8e320771c2196127377024a446dd604dc25",
    ("uniform", 1000.0): "98769f7a32ce598a66810349c618a8e57a9dba22bbd2bb4d6bc462f0e8fbbfb1",
    ("uniform", 10000.0): "ed47ac62225fe52159c1a5572b4edcb1cfbfca57a827ee0956d3ca244718c64b",
    ("exponential", 10.0): "5e133cebbca396359ed012f6a93527b977248acf0c319ea0308cb27965f53a9f",
    ("exponential", 1000.0): "69e83120fcefbad40a532538a9f53d5ed9a90d3c5f0b8b398a3a042a693b772e",
    ("exponential", 10000.0): "ea276d5c151cd91e65a70d8f29f8a936d90f89a5aecefc13289b5f2bc0b13d40",
}


def _deviation_triples(base_name: str, a: float) -> np.ndarray:
    base = {"uniform": uniform_base(), "exponential": exponential_base(1.0)}[base_name]
    grid = np.linspace(0.0, 1.0, 512)
    scratch = dp_core.Scratch()
    triples = []
    for r in range(3):
        s = stick_breaking_sample(a, base, TruncationPolicy(1e-10), RngStream(1616, r), scratch)
        grid_sup = np.max(np.abs(dp_cdf(s, grid) - grid)) if base_name == "uniform" else 0.0
        triples.append((*verify._deviation_stats(s, base, scratch), grid_sup))
    return np.array(triples, dtype="<f8")


class TestDeviationStatsPinned:
    @pytest.mark.parametrize("key", list(_DEVIATION_DIGESTS), ids=lambda k: f"{k[0]}-{k[1]:g}")
    def test_deviation_stats_are_bit_identical(self, key):
        digest = hashlib.sha256(_deviation_triples(*key).tobytes()).hexdigest()
        assert digest == _DEVIATION_DIGESTS[key]


class _RecordingScratch(dp_core.Scratch):
    """A scratch that records the most entries asked of each role."""

    def __init__(self):
        super().__init__()
        self.most = Counter()

    def take(self, role, n, keep=0):
        self.most[role] = max(self.most[role], n)
        return super().take(role, n, keep)


class TestDeviationStatsChunks:
    """The statistics walk a realization _CHUNK segments at a time; the
    chunks' sums are added by math.fsum."""

    def test_chunk_size_moves_only_the_last_bits_of_cvm(self, uniform01, monkeypatch):
        """One piece (np.sum over the whole array), 1,000-segment pieces and
        the default: the sup is the same number, and the integral moves
        by rounding only."""
        s = stick_breaking_sample(1e4, uniform01, TruncationPolicy(1e-10), RngStream(8808, 0))
        assert s.n_atoms > 3 * verify._CHUNK
        stats = []
        for chunk in (1 << 30, 1000, verify._CHUNK):
            monkeypatch.setattr(verify, "_CHUNK", chunk)
            stats.append(verify._deviation_stats(s, uniform01))
        (sup, cvm), *others = stats
        for other_sup, other_cvm in others:
            assert other_sup == sup
            assert abs(other_cvm - cvm) <= 1e-14 * cvm

    def test_only_the_realization_is_realization_long(self, uniform01):
        """After a gc replication at a = 10^4, every scratch role besides the
        sample's own three arrays is chunk-sized."""
        scratch = _RecordingScratch()
        s = stick_breaking_sample(1e4, uniform01, TruncationPolicy(1e-10), RngStream(8808, 0), scratch)
        verify._deviation_stats(s, uniform01, scratch)
        assert s.n_atoms > 3 * verify._CHUNK
        chunked = {role: n for role, n in scratch.most.items()
                   if role not in ("sticks", "levels", "atoms")}
        assert chunked and max(chunked.values()) <= verify._CHUNK + 1, chunked


class TestDeviationBound:
    def test_single_atom_case(self, uniform01):
        s = make_sample([0.5], [1.0])
        lhs, rhs, holds = donoho_liu_bounds(sup_deviation(s, uniform01), cvm_deviation(s, uniform01))
        assert lhs == pytest.approx(1.0 / 24.0)
        assert rhs == pytest.approx(1.0 / 12.0)
        assert holds

    def test_printed_three_halves_exponent_fails_here(self, uniform01):
        """The same single-atom case refutes a 3/2-power variant of the
        bound, which is why the cubic form is the one implemented."""
        s = make_sample([0.5], [1.0])
        d = sup_deviation(s, uniform01)
        cvm = cvm_deviation(s, uniform01)
        assert d**1.5 / np.sqrt(3.0) > cvm
        assert d**3 / 3.0 <= cvm

    def test_zero_deviation_degenerate(self):
        lhs, rhs, holds = donoho_liu_bounds(0.0, 0.0)
        assert lhs == 0.0 and rhs == 0.0 and holds

    def test_sweep_holds_on_random_samples(self, uniform01):
        trunc = TruncationPolicy(1e-10)
        for r in range(1000):
            s = stick_breaking_sample(10.0, uniform01, trunc, RngStream(134, r))
            lhs, rhs, holds = donoho_liu_bounds(
                sup_deviation(s, uniform01), cvm_deviation(s, uniform01)
            )
            assert holds


class TestGcStudy:
    def test_decay_and_rate(self, uniform01):
        out = gc_study([10.0, 100.0, 1000.0], uniform01, 300, 141)
        assert np.all(np.diff(out.details["mean_sup"]) < 0.0)
        assert -0.6 <= out.details["fitted_rate"] <= -0.4
        assert out.details["dl_violations"] == 0
        assert out.details["dl_checked"] == 900
        assert out.passed

    @staticmethod
    def _cvm_mean_z(base) -> list[float]:
        """Each leg's mean_cvm against the exact E int (P_a - H)^2 dH =
        1/(6(1 + a)) for continuous H, which follows from
        Var P_a(t) = H(t)(1 - H(t))/(1 + a) (Ferguson 1973), in SE units."""
        a_values = [1.0, 10.0, 100.0]
        out = gc_study(a_values, base, 2000, 8808)
        z = []
        for a in a_values:
            est, se = out.estimates[f"a={a:g}/mean_cvm"]
            z.append((est - 1.0 / (6.0 * (1.0 + a))) / se)
        return z

    @pytest.mark.parametrize("base", ["uniform01", "exp1"])
    def test_mean_cvm_is_exact(self, base, request):
        z = self._cvm_mean_z(request.getfixturevalue(base))
        assert all(abs(v) <= verify.MEAN_TOL for v in z), z

    def test_mean_cvm_catches_a_wrong_concentration(self, uniform01, monkeypatch):
        """Negative control: every realization drawn at 1.25 a."""
        sample = verify.stick_breaking_sample
        monkeypatch.setattr(verify, "stick_breaking_sample",
                            lambda a, *args: sample(1.25 * a, *args))
        z = self._cvm_mean_z(uniform01)
        assert any(abs(v) > verify.MEAN_TOL for v in z), z

    def test_degenerate_single_atom_sup(self, uniform01):
        s = make_sample([0.5], [1.0])
        assert sup_deviation(s, uniform01) == pytest.approx(0.5)

    def test_requires_increasing_a_values(self, uniform01):
        with pytest.raises(ArgumentError):
            gc_study([100.0, 10.0], uniform01, 10, 0)

    @pytest.mark.parametrize("a_values", [[10.0, np.nan], [np.nan, 10.0], [10.0, np.inf]])
    def test_rejects_non_finite_a_values_before_drawing(self, uniform01, a_values, monkeypatch):
        """NaN compares False with everything, so it must be ruled out by
        name, as must infinity, before the first leg draws."""
        drawn = []
        monkeypatch.setattr(verify, "stick_breaking_sample", lambda *args: drawn.append(args))
        with pytest.raises(ArgumentError, match="finite"):
            gc_study(a_values, uniform01, 10, 0)
        assert not drawn
        with pytest.raises(ArgumentError, match="finite"):
            quantile_limit_study(a_values, uniform01, [0.5], 10, 0)


class TestRepresentationAgreement:
    def test_stick_vs_marginals(self, uniform01, canonical_cells):
        out = representation_check(10.0, uniform01, canonical_cells, 3000, 151)
        assert out.passed
        assert len(out.level_checks) == 3
        assert all(c.p_value > 0.01 for c in out.level_checks)

    @pytest.mark.parametrize(
        "cells",
        [
            [],
            [BorelSet.interval(0.0, 0.4), BorelSet.interval(0.5, 1.0)],
            [BorelSet.interval(0.0, 0.6), BorelSet.interval(0.4, 1.0)],
            [BorelSet(((0.0, 0.3), (0.6, 1.0))), BorelSet.interval(0.2, 0.6)],
            [BorelSet.interval(-1.0, 0.5), BorelSet.interval(-0.5, -0.2),
             BorelSet.interval(0.5, 1.0)],
        ],
        ids=["no_cells", "gap", "overlap", "overlap_two_intervals", "overlap_outside_support"],
    )
    def test_non_partition_rejected(self, uniform01, cells, monkeypatch):
        """Cells that are not a partition raise ArgumentError before any
        realization is drawn, also when two cells overlap only where the base
        puts no mass."""
        drawn = []
        monkeypatch.setattr(verify, "stick_breaking_sample", lambda *args: drawn.append(args))
        with pytest.raises(ArgumentError):
            representation_check(10.0, uniform01, cells, 10, 0)
        assert not drawn

    def test_negative_cell_mass_rejected(self):
        """A cdf that falls gives a cell negative mass, though the masses sum
        to one."""
        knots, levels = [0.0, 0.3, 0.6, 1.0], [0.0, 0.5, 0.4, 1.0]
        base = BaseMeasure(
            cdf=lambda x: np.interp(x, knots, levels),
            quantile=lambda u: np.asarray(u, dtype=float),
            density=lambda x: np.ones_like(np.asarray(x, dtype=float)),
            support=(0.0, 1.0),
        )
        cells = [BorelSet.interval(lo, hi) for lo, hi in zip(knots, knots[1:])]
        with pytest.raises(ArgumentError, match="negative"):
            representation_check(10.0, base, cells, 10, 0)


class TestPosteriorCheck:
    def test_conjugacy(self, uniform01):
        sets = [
            BorelSet.interval(0.0, 0.3),
            BorelSet.interval(0.3, 0.6),
            BorelSet.interval(0.6, 1.0),
        ]
        out = posterior_check(2.0, uniform01, [0.2, 0.4, 0.6], sets, 10_000, 161)
        assert out.estimates["a_star"][0] == 5.0
        assert out.passed

    def test_empty_data_keeps_concentration(self, uniform01):
        out = posterior_check(2.0, uniform01, [], [BorelSet.interval(0.0, 0.5)], 2_000, 162)
        assert out.estimates["a_star"] == (2.0, 0.0)


class TestQuantileLimitStudy:
    def test_uniform_base_targets(self, uniform01):
        out = quantile_limit_study([400.0], uniform01, [0.25, 0.5, 0.75], 2500, 171)
        by_name = {c.name: c for c in out.comparisons}
        assert by_name["a=400/median_var"].target == pytest.approx(0.25)
        assert by_name["a=400/iqr_var"].target == pytest.approx(0.25)
        # internal consistency: the diagonal covariance entry IS the limit value
        assert by_name["a=400/qcov[0.5,0.5]"].target == pytest.approx(
            limit_quantile_cov(0.5, 0.5, uniform01)
        )
        assert out.passed

    def test_exponential_base_median(self, exp1):
        out = quantile_limit_study([400.0], exp1, [0.5], 2500, 172)
        med = next(c for c in out.comparisons if c.name.endswith("median_var"))
        assert med.target == pytest.approx(1.0)
        assert out.passed

    def test_printed_reference_recorded(self, uniform01):
        out = quantile_limit_study([100.0], uniform01, [0.5], 500, 173)
        assert out.estimates["iqr_var_printed_reference"][0] == pytest.approx(
            3.0 + 3.0 / 16.0 - 2.0
        )
        assert out.estimates["iqr_var_limit_target"][0] == pytest.approx(0.25)

    def test_rejects_bad_levels(self, uniform01):
        with pytest.raises(ArgumentError):
            quantile_limit_study([10.0], uniform01, [0.0, 0.5], 100, 0)

    def test_rejects_duplicate_levels(self, uniform01):
        """A repeated level would give comparisons that share one name."""
        with pytest.raises(ArgumentError, match="distinct"):
            quantile_limit_study([10.0], uniform01, [0.5, 0.5], 100, 0)
        assert verify.check_levels([0.25, 0.5]) == [0.25, 0.5]

    def test_draw_layout(self, exp1):
        """Leg l draws all replications from stream (seed, base + l) in one
        bisection_quantiles call at the levels {u_points, .25, .5, .75}."""
        seed, base_stream, r = 77, 1000, 400
        out = quantile_limit_study([100.0, 1e6], exp1, [0.1, 0.5], r, seed,
                                   epsilon=1e-8, base_stream=base_stream)
        levels = [0.1, 0.25, 0.5, 0.75]
        for leg, a in enumerate([100.0, 1e6]):
            q = bisection_quantiles(a, levels, RngStream(seed, base_stream + leg), r, 1e-8)
            vals = np.sqrt(a) * (exp1.quantile(q) - exp1.quantile(np.array(levels)))
            tag = f"a={a:g}"
            assert out.estimates[f"{tag}/qcov[0.1,0.5]"] == mc_cov_se(vals[:, 0], vals[:, 2])
            assert out.estimates[f"{tag}/iqr_var"] == mc_var_se(vals[:, 3] - vals[:, 1])
        assert out.seed_info == (seed, (base_stream, base_stream + 1))

    @pytest.mark.parametrize("base", ["uniform01", "exp1"])
    def test_passes_at_a_1e8(self, base, request):
        """Far beyond stick-breaking's reach (about 2*10^9 sticks per sample)."""
        out = quantile_limit_study([1e8], request.getfixturevalue(base), [0.25, 0.5, 0.75],
                                   2000, 175)
        assert out.passed

    def test_matches_direct_general_base_sampling(self, exp1):
        """Sampling under the uniform base and mapping through the base
        quantile is bitwise the same realization as sampling with the base
        directly, so the study's shortcut is exact."""
        trunc = TruncationPolicy(1e-10)
        uniform = uniform_base()
        for r in range(5):
            direct = stick_breaking_sample(25.0, exp1, trunc, RngStream(174, r))
            via_u = stick_breaking_sample(25.0, uniform, trunc, RngStream(174, r))
            np.testing.assert_array_equal(direct.atoms, exp1.quantile(via_u.atoms))
            np.testing.assert_array_equal(direct.weights, via_u.weights)
            for u in (0.25, 0.5, 0.75):
                assert dp_quantile(direct, u) == exp1.quantile(dp_quantile(via_u, u))


class TestQuantileSamplerCrossCheck:
    """The two exact quantile samplers agree in law: dp_quantile of
    stick-breaking realizations against bisection_quantiles, by two-sample KS
    per level and on Q(.75) - Q(.25), judged here at level 1e-3 on the
    p-values the check reports."""

    R, SEED, KS_LEVEL = 3000, 181, 1e-3

    @pytest.mark.parametrize("a", [10.0, 100.0])
    def test_samplers_agree(self, a):
        out = quantile_sampler_check(a, self.R, self.SEED)
        assert [c.name for c in out.level_checks] == [
            "ks_2samp[Q(0.25)]", "ks_2samp[Q(0.5)]", "ks_2samp[Q(0.75)]", "ks_2samp[iqr]"
        ]
        p_values = [(c.name, c.p_value) for c in out.level_checks]
        assert all(p > self.KS_LEVEL for _, p in p_values), p_values
        assert out.seed_info == (self.SEED, (0, self.R))

    @pytest.mark.parametrize("a", [10.0, 100.0])
    def test_parent_cell_shape_fails(self, a, monkeypatch):
        """Negative control: every split drawn with its parent cell's shape
        a 2^-k in place of a 2^-(k+1)."""
        sample_beta = dp_core.sample_beta
        monkeypatch.setattr(
            dp_core, "sample_beta",
            lambda alpha, beta, rng, size: sample_beta(2.0 * alpha, 2.0 * beta, rng, size),
        )
        out = quantile_sampler_check(a, self.R, self.SEED)
        assert not any(c.p_value > self.KS_LEVEL for c in out.level_checks)


class TestDensityConvergenceStudy:
    def test_columns_decrease(self):
        a_values = [100.0, 1000.0]
        integrals = [bivariate_density_integral(1 / 3, 1 / 3, a) for a in a_values]
        out = density_convergence_study(1 / 3, 1 / 3, a_values, integrals)
        assert out.passed
        _, rows = out.tables["gap"]  # a, max_gap, tv_distance, quad_error
        assert rows[1][2] < rows[0][2]
        assert rows[1][1] < rows[0][1]

    def test_max_gap_is_the_grid_maximum(self):
        """The gap table's max_gap is max |f_a - phi| over the 11 x 11 grid
        on [-2.5, 2.5]^2, with f_a scipy's Dirichlet(a l) density pushed
        through y = sqrt(a)(x - l) (Jacobian 1/a, zero off the simplex) and
        phi scipy's normal density with the bridge covariance."""
        l1, l2, a_values = 0.1, 0.2, [100.0, 1000.0, 10000.0]
        integrals = [bivariate_density_integral(l1, l2, a) for a in a_values]
        _, rows = density_convergence_study(l1, l2, a_values, integrals).tables["gap"]
        g = np.linspace(-2.5, 2.5, 11)
        cov = [[l1 * (1 - l1), -l1 * l2], [-l1 * l2, l2 * (1 - l2)]]
        phi = scipy.stats.multivariate_normal([0.0, 0.0], cov)
        shapes = np.array([l1, l2, 1 - l1 - l2])
        for a, row in zip(a_values, rows):
            gaps = []
            for y1 in g:
                for y2 in g:
                    x = shapes + np.array([y1, y2, -y1 - y2]) / np.sqrt(a)
                    f = scipy.stats.dirichlet.pdf(x, a * shapes) / a if np.all(x > 0) else 0.0
                    gaps.append(abs(f - phi.pdf([y1, y2])))
            assert row[0] == a
            assert row[1] == pytest.approx(max(gaps), rel=1e-8)

    def test_rejects_decreasing_a(self):
        with pytest.raises(ArgumentError):
            density_convergence_study(1 / 3, 1 / 3, [100.0, 50.0], [])

    def test_rejects_an_integral_count_other_than_the_a_values(self):
        with pytest.raises(ArgumentError, match="one density integral per concentration"):
            density_convergence_study(1 / 3, 1 / 3, [100.0, 1000.0], [])

    def test_rejects_unbounded_density(self):
        """At a * l3 <= 1 the exact density is unbounded at the l3 edge."""
        with pytest.raises(ArgumentError, match="must exceed 1"):
            density_convergence_study(0.05, 0.9, [2.0], [])


class TestMarginalDrawLayout:
    """Each leg of a Dirichlet-marginal family draws all its replications
    from one stream, (seed, base + leg), in one ``sample_fidi`` call."""

    SEED, BASE, R = 77, 1000, 1500

    def _cell_draws(self, a, base, sets, stream):
        _, measures, member = refine_to_partition(sets, base)
        draws = sample_fidi(a, measures, RngStream(self.SEED, stream), size=self.R)
        return draws @ member.T

    def _assert_estimates(self, out, expected, streams):
        for name, (value, se) in expected.items():
            assert out.estimates[name] == pytest.approx((value, se), rel=1e-12, abs=1e-15), name
        assert out.seed_info == (self.SEED, streams)
        assert out.to_json()["seed_info"]["stream_range"] == list(streams)

    def test_moment_check(self, uniform01):
        sets = [BorelSet.interval(0.0, 0.3), BorelSet.interval(0.2, 0.5)]
        out = moment_check(10.0, uniform01, sets, self.R, self.SEED, base_stream=self.BASE)
        vals = self._cell_draws(10.0, uniform01, sets, self.BASE)
        expected = {
            "mean[S1]": mc_mean_se(vals[:, 0]),
            "var[S2]": mc_var_se(vals[:, 1]),
            "cross[S1,S2]": mc_mean_se(vals[:, 0] * vals[:, 1]),
        }
        self._assert_estimates(out, expected, (self.BASE, self.BASE))

    def test_fidi_normality_check(self, uniform01, canonical_cells):
        out = fidi_normality_check(1e4, canonical_cells, self.R, self.SEED, base_stream=self.BASE)
        vals = 100.0 * (self._cell_draws(1e4, uniform01, canonical_cells, self.BASE)
                        - np.array([0.25, 0.25, 0.5]))
        expected = {
            "mean[S3]": mc_mean_se(vals[:, 2]),
            "cov[S1,S1]": mc_var_se(vals[:, 0]),
            "cov[S1,S2]": mc_cov_se(vals[:, 0], vals[:, 1]),
        }
        self._assert_estimates(out, expected, (self.BASE, self.BASE))

    def test_modulus_check(self):
        out = modulus_check(1.0, 0.1, 0.4, 0.9, self.R, self.SEED, base_stream=self.BASE)
        p = sample_fidi(1.0, [0.3, 0.5, 0.2], RngStream(self.SEED, self.BASE), size=self.R)
        expected = {"increment_product": mc_mean_se(p[:, 0] * p[:, 1])}
        self._assert_estimates(out, expected, (self.BASE, self.BASE))

    def test_posterior_check(self, uniform01):
        sets = [BorelSet.interval(0.0, 0.3), BorelSet.interval(0.3, 0.6)]
        out = posterior_check(2.0, uniform01, [0.2, 0.4, 0.6], sets, self.R, self.SEED,
                              base_stream=self.BASE)
        expected = {}
        for i, m in enumerate([(2.0 * 0.3 + 1) / 5.0, (2.0 * 0.3 + 2) / 5.0]):
            rng = RngStream(self.SEED, self.BASE + i)
            vals = sample_fidi(5.0, [m, 1.0 - m], rng, size=self.R)[:, 0]
            expected[f"posterior_mean[S{i + 1}]"] = mc_mean_se(vals)
        self._assert_estimates(out, expected, (self.BASE, self.BASE + 1))

    def test_representation_check_moves_only_its_marginal_half(self, uniform01):
        cells = [BorelSet.interval(0.0, 0.4), BorelSet.interval(0.4, 1.0)]
        trunc = TruncationPolicy(1e-10)
        r = 200
        out = representation_check(10.0, uniform01, cells, r, self.SEED, trunc=trunc,
                                   base_stream=self.BASE)
        fidis = sample_fidi(10.0, [0.4, 0.6], RngStream(self.SEED, self.BASE + r), size=r)
        samples = (
            stick_breaking_sample(10.0, uniform01, trunc, RngStream(self.SEED, self.BASE + i))
            for i in range(r)
        )
        sticks = np.array([dp_cdf(s, 0.4) - dp_cdf(s, 0.0) for s in samples])
        assert out.estimates["fidi_mean[S1]"] == pytest.approx(mc_mean_se(fidis[:, 0]), rel=1e-12)
        assert out.estimates["stick_mean[S1]"] == mc_mean_se(sticks)
        assert out.seed_info == (self.SEED, (self.BASE, self.BASE + r))


class TestGcDrawLayout:
    """Replication r of gc leg l runs on stream (seed, base + l*R + r), and the
    summary records the whole range it consumed."""

    def test_leg_mean_sup_from_its_streams(self, uniform01):
        seed, base_stream, r = 77, 1000, 6
        a_values = [10.0, 100.0]
        out = gc_study(a_values, uniform01, r, seed, base_stream=base_stream)
        for leg, a in enumerate(a_values):
            sups = [
                sup_deviation(
                    stick_breaking_sample(a, uniform01, TruncationPolicy(),
                                          RngStream(seed, base_stream + leg * r + i)),
                    uniform01,
                )
                for i in range(r)
            ]
            assert out.estimates[f"a={a:g}/mean_sup"] == mc_mean_se(np.array(sups))
        last = base_stream + len(a_values) * r - 1
        assert out.seed_info == (seed, (base_stream, last))
        assert out.to_json()["seed_info"]["stream_range"] == [base_stream, last]


def _old_gc_passed(mean_sup, rate, violations) -> bool:
    """The gc pass rule as it stood before it became a list of comparisons."""
    decreasing = bool(np.all(np.diff(mean_sup) < 0.0))
    return decreasing and -0.6 <= rate <= -0.4 and violations == 0


def _old_density_passed(max_gaps, tvs, integrals, converged) -> bool:
    """The density pass rule as it stood before it became a list of
    comparisons."""
    slack = 1e-3
    monotone = bool(np.all(np.diff(max_gaps) <= slack)) and bool(np.all(np.diff(tvs) <= slack))
    in_range = all(abs(v - 1.0) <= 1e-3 for v in integrals)
    return monotone and in_range and all(converged)


def _up(x):
    return float(np.nextafter(x, np.inf))


def _down(x):
    return float(np.nextafter(x, -np.inf))


def _integral_edge(side: int) -> float:
    """The float farthest from one on ``side`` (+1 above, -1 below) that
    still lies within 1e-3 of one."""
    step = _up if side > 0 else _down
    v = 1.0 + side * 1e-3
    while abs(v - 1.0) > 1e-3:
        v = float(np.nextafter(v, 1.0))
    while abs(step(v) - 1.0) <= 1e-3:
        v = step(v)
    return v


class TestVerdictEquivalence:
    """The gc and density comparisons pass exactly when the old pass rules
    did, at the edges of each rule."""

    SUP = [0.2, 0.08, 0.03]

    @pytest.mark.parametrize(
        "mean_sup, rate, violations, passed",
        [
            (SUP, -0.5, 0, True),
            (SUP, -0.6, 0, True),
            (SUP, -0.4, 0, True),
            (SUP, _down(-0.6), 0, False),
            (SUP, _up(-0.4), 0, False),
            ([0.2, 0.08, 0.08], -0.5, 0, False),  # a tie is not a fall
            ([0.2, _down(0.2), 0.03], -0.5, 0, True),
            ([0.2, 0.3, 0.03], -0.5, 0, False),
            (SUP, -0.5, 1, False),
            (SUP, float("nan"), 0, False),
        ],
    )
    def test_gc(self, mean_sup, rate, violations, passed):
        comparisons = verify._gc_comparisons(np.array(mean_sup), rate, violations)
        assert _old_gc_passed(np.array(mean_sup), rate, violations) is passed
        assert all(c.passed for c in comparisons) is passed
        assert all(c.standard_error == 0.0 for c in comparisons)

    A = [100.0, 1000.0, 10000.0]
    GAPS = [0.3, 0.1, 0.03]
    TVS = [0.03, 0.01, 0.003]
    ONES = [1.0, 1.0, 1.0]
    CONVERGED = [True] * 6

    @pytest.mark.parametrize(
        "max_gaps, tvs, integrals, converged, passed",
        [
            (GAPS, TVS, ONES, CONVERGED, True),
            ([0.0, 1e-3, 0.0], TVS, ONES, CONVERGED, True),  # a step of exactly the slack
            ([0.0, _up(1e-3), 0.0], TVS, ONES, CONVERGED, False),
            (GAPS, [0.0, 0.0, 1e-3], ONES, CONVERGED, True),
            (GAPS, [0.0, 0.0, _up(1e-3)], ONES, CONVERGED, False),
            (GAPS, TVS, [_integral_edge(1), _integral_edge(-1), 1.0], CONVERGED, True),
            (GAPS, TVS, [_up(_integral_edge(1)), 1.0, 1.0], CONVERGED, False),
            (GAPS, TVS, [1.0, _down(_integral_edge(-1)), 1.0], CONVERGED, False),
            (GAPS, TVS, ONES, [True] * 5 + [False], False),
            (GAPS, TVS, [float("nan"), 1.0, 1.0], CONVERGED, False),
        ],
    )
    def test_density(self, max_gaps, tvs, integrals, converged, passed):
        comparisons = verify._density_comparisons(self.A, max_gaps, tvs, integrals, converged)
        assert _old_density_passed(max_gaps, tvs, integrals, converged) is passed
        assert all(c.passed for c in comparisons) is passed
        assert all(c.standard_error == 0.0 for c in comparisons)


def _nominal_false_fail_rate(check) -> float:
    """A check's false-fail probability on correct code: the KS level, or the
    normal tail beyond its SE multiple (zero for exact comparisons)."""
    if isinstance(check, LevelCheck):
        return check.level
    if check.standard_error == 0.0:
        return 0.0
    tails = 1.0 if check.one_sided else 2.0
    return tails * scipy.stats.norm.sf(check.tolerance_se)


class TestCalibration:
    """Over fixed seeds, each comparison and KS check of the Dirichlet-marginal
    and quantile families, and of both halves of ``representation_check``,
    fails no more often than its nominal rate allows: at most the count a
    Binomial(seeds, rate) exceeds with probability 1e-6."""

    SEEDS = range(500)
    R = 2000

    @staticmethod
    def _assert_false_fails_bounded(run, seeds):
        fails, rates = Counter(), {}
        for seed in seeds:
            out = run(seed)
            for check in [*out.comparisons, *out.level_checks]:
                rates[check.name] = _nominal_false_fail_rate(check)
                fails[check.name] += not check.passed
        for name, rate in rates.items():
            bound = scipy.stats.binom.isf(1e-6, len(seeds), rate)
            assert fails[name] <= bound, f"{name}: {fails[name]} fails, bound {bound:g}"

    @pytest.mark.parametrize("family", ["moments", "fidi", "modulus", "posterior"])
    def test_false_fail_counts(self, family, uniform01, canonical_cells):
        sets = [BorelSet.interval(0.0, 0.3), BorelSet.interval(0.3, 0.5),
                BorelSet.interval(0.2, 0.5)]
        run = {
            "moments": lambda seed: moment_check(1.0, uniform01, sets, self.R, seed),
            "fidi": lambda seed: fidi_normality_check(1e4, canonical_cells, self.R, seed),
            "modulus": lambda seed: modulus_check(1.0, 0.1, 0.4, 0.9, self.R, seed),
            "posterior": lambda seed: posterior_check(
                2.0, uniform01, [0.2, 0.4, 0.6], canonical_cells, self.R, seed
            ),
        }[family]
        self._assert_false_fails_bounded(run, self.SEEDS)

    def test_quantile_false_fail_counts(self, uniform01):
        """200 seeds at R = 1,000 and a = 10^4."""
        self._assert_false_fails_bounded(
            lambda seed: quantile_limit_study([1e4], uniform01, [0.25, 0.5, 0.75], 1000, seed),
            range(200),
        )

    def test_representation_false_fail_counts(self, uniform01, canonical_cells):
        """200 seeds at R = 200 and a = 10: the stick-breaking moments, the
        marginal moments and the two-sample KS checks between them."""
        self._assert_false_fails_bounded(
            lambda seed: representation_check(10.0, uniform01, canonical_cells, 200, seed),
            range(200),
        )

    def test_wrong_variance_target_fails(self, uniform01, monkeypatch):
        """Negative control: variance m(1 - m)/a in place of m(1 - m)/(1 + a)."""

        def wrong_moments(a, base, s):
            m = base.measure(s)
            return m, m * (1.0 - m) / a

        monkeypatch.setattr(verify, "dp_moments", wrong_moments)
        out = moment_check(1.0, uniform01, [BorelSet.interval(0.0, 0.3)], 100_000, 8801)
        assert not out.passed
        assert not next(c for c in out.comparisons if c.name == "var[S1]").passed
