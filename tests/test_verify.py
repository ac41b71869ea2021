"""Monte Carlo verification layer: oracles, pass-flag semantics, studies."""

import threading
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from dplab import (
    ArgumentError,
    BorelSet,
    Grid,
    RngStream,
    TruncationPolicy,
    bisection_quantiles,
    cvm_deviation,
    density_convergence_study,
    donoho_liu_bounds,
    dp_cdf,
    dp_core,
    dp_quantile,
    fidi_normality_check,
    gc_study,
    limit_quantile_cov,
    moment_check,
    modulus_check,
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
from dplab.verify import (
    Comparison,
    LevelCheck,
    dp_set_mass,
    map_replications,
    mc_cov_se,
    mc_mean_se,
    mc_var_se,
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


class TestReplicationEngine:
    def test_stream_allocation(self):
        vals = map_replications(lambda rng: np.array([rng.uniform()]), 5, 99, 10, threads=1)
        direct = [RngStream(99, 10 + r).uniform() for r in range(5)]
        np.testing.assert_array_equal(vals[:, 0], direct)

    def test_thread_count_does_not_change_results(self):
        def rep(rng):
            return rng.uniform(3)

        a = map_replications(rep, 200, 7, 0, threads=1)
        b = map_replications(rep, 200, 7, 0, threads=4)
        assert np.array_equal(a, b)

    def test_slow_replications_fan_out_without_changing_results(self):
        ran_on = set()

        def rep(rng):
            ran_on.add(threading.get_ident())
            time.sleep(0.002)  # above MIN_PARALLEL_REP_SECONDS
            return rng.uniform(3)

        fanned = map_replications(rep, 12, 7, 0, threads=2)
        workers = ran_on - {threading.get_ident()}
        assert len(workers) >= 2
        assert np.array_equal(fanned, map_replications(rep, 12, 7, 0, threads=1))

    def test_fast_replications_stay_on_the_calling_thread(self):
        ran_on = set()

        def rep(rng):
            ran_on.add(threading.get_ident())
            return rng.uniform(3)

        map_replications(rep, 200, 7, 0, threads=4)
        assert ran_on == {threading.get_ident()}

    def test_gc_study_is_thread_count_free(self, uniform01):
        curves = [gc_study([100.0, 1000.0], uniform01, 6, 64, 17, threads=t) for t in (1, 2)]
        assert curves[0].to_json() == curves[1].to_json()

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


def _exact_deviation(atoms, weights, grid):
    """(sup, cvm, grid sup) of F - x on [0, 1] in rational arithmetic, from
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
    grid_sup = max(abs(cdf(Fraction(g)) - Fraction(g)) for g in grid)
    return float(max(candidates)), float(cvm), float(grid_sup)


_unit_atoms = st.one_of(st.sampled_from([0.0, 0.125, 0.5, 0.75, 1.0]), st.floats(0.0, 1.0))


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
        grid = np.linspace(0.0, 1.0, 17)
        s = make_sample(atoms, weights, remainder)
        got = verify._deviation_stats(s, uniform_base(), grid)
        want = _exact_deviation(atoms, weights, grid)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_sup_against_brute_force(self, uniform01):
        for r in range(25):
            s = stick_breaking_sample(
                3.0, uniform01, TruncationPolicy(1e-10, max_atoms=50), RngStream(131, r)
            )
            exact = sup_deviation(s, uniform01)
            assert exact >= _brute_force_sup(s, uniform01) - 1e-9
            # the brute force grid gets within grid resolution of the sup
            assert exact <= _brute_force_sup(s, uniform01) + 1e-3

    def test_cvm_against_adaptive_quadrature(self, uniform01):
        for r in range(10):
            s = stick_breaking_sample(
                3.0, uniform01, TruncationPolicy(1e-10, max_atoms=50), RngStream(132, r)
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
            3.0, exp1, TruncationPolicy(1e-10, max_atoms=40), RngStream(133, 0)
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
            assert donoho_liu_bounds(sup_deviation(s, uniform01), cvm_deviation(s, uniform01)).holds


class TestGcStudy:
    def test_decay_and_rate(self, uniform01):
        curve = gc_study([10.0, 100.0, 1000.0], uniform01, 300, 256, 141)
        assert np.all(np.diff(curve.mean_sup) < 0.0)
        assert -0.6 <= curve.fitted_rate <= -0.4
        assert curve.dl_violations == 0
        assert curve.dl_checked == 900

    def test_degenerate_single_atom_sup(self, uniform01):
        s = make_sample([0.5], [1.0])
        assert sup_deviation(s, uniform01) == pytest.approx(0.5)

    def test_requires_increasing_a_values(self, uniform01):
        with pytest.raises(ArgumentError):
            gc_study([100.0, 10.0], uniform01, 10, 64, 0)


class TestRepresentationAgreement:
    def test_stick_vs_marginals(self, uniform01, canonical_cells):
        out = representation_check(10.0, uniform01, canonical_cells, 3000, 151)
        assert out.passed
        assert len(out.level_checks) == 3
        assert all(c.p_value > 0.01 for c in out.level_checks)


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

    def test_rejects_an_atom_cap(self, uniform01):
        """The truncation's epsilon is the bisection resolution; max_atoms
        has no meaning for the quantile family."""
        with pytest.raises(ArgumentError):
            quantile_limit_study([10.0], uniform01, [0.5], 100, 0,
                                 trunc=TruncationPolicy(1e-10, max_atoms=1000))

    def test_draw_layout(self, exp1):
        """Leg l draws all replications from stream (seed, base + l) in one
        bisection_quantiles call at the levels {u_points, .25, .5, .75}."""
        seed, base_stream, r = 77, 1000, 400
        out = quantile_limit_study([100.0, 1e6], exp1, [0.1, 0.5], r, seed,
                                   trunc=TruncationPolicy(1e-8), base_stream=base_stream)
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
    at level 1e-3 per level and on Q(.75) - Q(.25)."""

    R, SEED, KS_LEVEL = 3000, 181, 1e-3

    @pytest.mark.parametrize("a", [10.0, 100.0])
    def test_samplers_agree(self, a):
        out = quantile_sampler_check(a, self.R, self.SEED, ks_level=self.KS_LEVEL)
        assert [c.name for c in out.level_checks] == [
            "ks_2samp[Q(0.25)]", "ks_2samp[Q(0.5)]", "ks_2samp[Q(0.75)]", "ks_2samp[iqr]"
        ]
        assert out.passed, [(c.name, c.p_value) for c in out.level_checks]
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
        out = quantile_sampler_check(a, self.R, self.SEED, ks_level=self.KS_LEVEL)
        assert not any(c.passed for c in out.level_checks)


class TestDensityConvergenceStudy:
    def test_columns_decrease(self):
        table = density_convergence_study(
            1 / 3, 1 / 3, [100.0, 1000.0], Grid(np.linspace(-2.5, 2.5, 11))
        )
        assert table.passed
        assert table.rows[1].tv_distance < table.rows[0].tv_distance
        assert table.rows[1].max_gap < table.rows[0].max_gap

    def test_rejects_decreasing_a(self):
        with pytest.raises(ArgumentError):
            density_convergence_study(
                1 / 3, 1 / 3, [100.0, 50.0], Grid(np.linspace(-1, 1, 5))
            )


class TestMarginalDrawLayout:
    """Each leg of a Dirichlet-marginal family draws all its replications
    from one stream, (seed, base + leg), in one ``sample_fidi`` call."""

    SEED, BASE, R = 77, 1000, 1500

    def _cell_draws(self, a, base, sets, stream):
        cells, member = refine_to_partition(sets, base)
        measures = [base.measure(c) for c in cells]
        draws = sample_fidi(a, measures, RngStream(self.SEED, stream), size=self.R)
        return draws @ member.T.astype(float)

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
        sticks = np.array([
            dp_set_mass(stick_breaking_sample(10.0, uniform01, trunc,
                                              RngStream(self.SEED, self.BASE + i)), cells[0])
            for i in range(r)
        ])
        assert out.estimates["fidi_mean[S1]"] == pytest.approx(mc_mean_se(fidis[:, 0]), rel=1e-12)
        assert out.estimates["stick_mean[S1]"] == mc_mean_se(sticks)
        assert out.seed_info == (self.SEED, (self.BASE, self.BASE + r))


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
    and quantile families fails no more often than its nominal rate allows:
    at most the count a Binomial(seeds, rate) exceeds with probability 1e-6."""

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

    def test_wrong_variance_target_fails(self, uniform01, monkeypatch):
        """Negative control: variance m(1 - m)/a in place of m(1 - m)/(1 + a)."""

        def wrong_moments(a, base, s):
            m = base.measure(s)
            return m, m * (1.0 - m) / a

        monkeypatch.setattr(verify, "dp_moments", wrong_moments)
        out = moment_check(1.0, uniform01, [BorelSet.interval(0.0, 0.3)], 100_000, 8801)
        assert not out.passed
        assert not next(c for c in out.comparisons if c.name == "var[S1]").passed
