"""Limit objects: bridge and quantile covariances, bivariate densities."""

import warnings

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
    run_experiment,
    scaled_bivariate_density,
    tv_distance_bivariate,
    uniform_base,
    validate_config,
    verify,
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

        tent = BaseMeasure(cdf, quantile, lambda x: np.abs(4 * np.asarray(x) - 2), (0.0, 1.0))
        with pytest.raises(SingularDensityError):
            limit_quantile_cov(0.5, 0.5, tent)
        # away from the singular point the covariance is finite
        assert np.isfinite(limit_quantile_cov(0.25, 0.25, tent))

    def test_domain(self, uniform01):
        with pytest.raises(ArgumentError):
            limit_quantile_cov(0.0, 0.5, uniform01)

    @pytest.mark.parametrize(
        "u, base",
        [
            (1e-200, normal_base()),  # h about 3e-199: the product underflows to 0
            (0.5, normal_base(sigma=1e200)),
            (0.5, exponential_base(1e-300)),
            (0.5, exponential_base(1e300)),  # the product overflows to inf
        ],
    )
    def test_density_product_out_of_range_raises(self, u, base):
        h = float(base.density(base.quantile(u)))
        assert 0.0 < h < np.inf
        with pytest.raises(SingularDensityError, match="not positive and finite"):
            limit_quantile_cov(u, u, base)

    @pytest.mark.parametrize("rate", [1e-3, 0.5, 2.0, 1e3])
    def test_exponential_at_any_rate(self, rate):
        """h(H^{-1}(u)) = rate (1 - u): the quantiles at 3/4 and 0.999 lie
        beyond 700 for the smaller rates."""
        base = exponential_base(rate)
        for u, v in ((0.5, 0.5), (0.25, 0.75), (0.75, 0.999)):
            target = (min(u, v) - u * v) / (rate * rate * (1 - u) * (1 - v))
            assert limit_quantile_cov(u, v, base) == pytest.approx(target, rel=1e-12)


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


# sha256 of the density family's numerics as little-endian float64, recorded
# from the implementation that evaluated the whole Simpson grid at every
# refinement level and built each density from fresh temporaries.  A
# quadrature result is hashed as (value, quad_error, converged); a density as
# its values.  Any change to the grids, the refinement or the arithmetic
# changes them.
_DENSITY_CELLS = {
    "third": (THIRD, THIRD),
    "small": (0.1, 0.2),
    "wide": (0.45, 0.5),
    "edge": (0.05, 0.9),
}
_DENSITY_A = (2.0, 10.0, 1e2, 1e3, 1e4, 1e5)
_DENSITY_GRID = np.linspace(-4.0, 4.0, 41)
_SIMPLEX_EXITS = (np.array([-5.0, 3.0, 0.0, 0.2]), np.array([0.0, 3.0, -5.0, 0.1]))
_QUAD_DIGESTS = {
    ("tv", "third", 2.0): "7bc6be88b435425fc76d2d8792fa7244131dc838a38fd35f749e6ca55c09cd3b",
    ("tv", "third", 10.0): "48addfe91bff58ab952b2fa1c2a051a217b1c250443cc96fa8bc2212c41ba704",
    ("tv", "third", 100.0): "52f10c786e495e6997fed0ce3f38c2424de9eb8c5a206198cf00e7074ed0aa18",
    ("tv", "third", 1000.0): "19105652c86fe4f9d7e99c8b884187e4fa70defd5afc9124ca1a9651e6322029",
    ("tv", "third", 10000.0): "47553a637944a632976662bc9bd4943900f80ec684983743bfd3daecaf8acf8b",
    ("tv", "third", 100000.0): "8f23962e9bbf39caa2d1ed0daa38fb99db8901c8948c32900adbbc39bdb2197a",
    ("tv", "small", 2.0): "4e66632951a9c3476bc9696b59bb60fef9d1c4b70dbd59d21c1b11c25634de87",
    ("tv", "small", 10.0): "9386d38ec422931319ef531da3a6c54e34b63879f51104101ae15bf179827d4a",
    ("tv", "small", 100.0): "1678ead79972a4e1fc4c50744739397052fc06a5ba3e403c1d5ead91232ab58f",
    ("tv", "small", 1000.0): "c7884b78e95eaede3fbba85628cc661b49b30f944e7bc2151c5c40f4281becb3",
    ("tv", "small", 10000.0): "7fd38b72603d5c9a4794c3a3254968f2006557aac82dd01dd94a791aae61bc80",
    ("tv", "small", 100000.0): "51668059e68d4e5b0d1f9f12477a9f3ea44c742022a5617a3154d3052c29143b",
    ("tv", "wide", 2.0): "14fd3131ac6454bd148ab907a4e1c71dd4616bbf1b436cea044cefc7787a11ea",
    ("tv", "wide", 10.0): "8aaafe1e4c010e704608e2a6eb079a6ced061a47ef1675db5aa1cef8f95ae81b",
    ("tv", "wide", 100.0): "031125cafcb8f5fa5ca80b739ad3f5e1c89d1ceb565b2d5c859f1915ad327c32",
    ("tv", "wide", 1000.0): "a3a96266ec48187c7068f1d9a7653889302a9234d1eee6682b9d3b496f44d509",
    ("tv", "wide", 10000.0): "391264a4abef840e1a8ed01b90272e61579f22db5b94fe2881eb047a8154e8ca",
    ("tv", "wide", 100000.0): "e81e118e5603dc02ee7e5c7be3bc78c3c78e0a09fb4dea0f3307fd3257f581ed",
    ("tv", "edge", 2.0): "00af488d8f1e31742df7a69f3d155da9722330a85b8e1b5f0250cf31d685eb6c",
    ("tv", "edge", 10.0): "40ecd3f9b15ff9d55a2cc20e73cf04dda85a03c7583818e37d3864fee9a99734",
    ("tv", "edge", 100.0): "3870c69cb0cb61a0614611952edb0aad779d60b61ae7e1b81c5fda9fd1982a5c",
    ("tv", "edge", 1000.0): "4e42625779bdec914e7bcb258073f60160939e69ac9c9eff0569bc877d4dfa84",
    ("tv", "edge", 10000.0): "645410e7bd1c3875b96fbb35529fd70e0a1ae32b358874d1d56f8bf298624aec",
    ("tv", "edge", 100000.0): "91f34205da0713f6c83e6e3ebdf821b251154ee51be553822058827b4152a0ec",
    ("integral", "third", 2.0): "c1918910e07b53b24e66e0bac1a108d19d6e8f5744b9d5196af89e685eedb015",
    ("integral", "third", 10.0): "5ffb5e5815cfa1c66d5e58639c6aaec0968f715c7461029017bb6efafc6429f8",
    ("integral", "third", 100.0): "f41061da1e7c52fc1fcfe18db751a20fcbc7719ae4e56e2883c8ef08d49ab9c7",
    ("integral", "third", 1000.0): "5301d854b37cf80981271d9685f706177b44ecd0f709b2f14944fdb1298447ce",
    ("integral", "third", 10000.0): "e8dbb49ac87f9facdd9a29a7c651de19ea38ed06317311efb71d5bd8f131f113",
    ("integral", "third", 100000.0): "f606c15caa2750201f52c640dde45376093a0db8431175ba2e86f8e645c43145",
    ("integral", "small", 2.0): "380269e10536b01d7ae91f15f0513ff168508db8f0e0f0f336ba23ba5adace89",
    ("integral", "small", 10.0): "9a4b10a8eaaf33417baddb852cfec5b0493de4c6aace05052c82f3d35447bf05",
    ("integral", "small", 100.0): "ea1299c35e3644fd8cb7498569592ce79d0e5df6f295250695dfb8532a2327e6",
    ("integral", "small", 1000.0): "dafb3846b22fd7c29b14d9f7b95daf8b7e745853ba1bd06b73acdb4f5e2c72a1",
    ("integral", "small", 10000.0): "3b2a11cc6f3385d12743b95fcf2d558215faffe84ae9b2d1a3c8daf235066aa1",
    ("integral", "small", 100000.0): "3015fb062a3424b9c0a49a7a07c115d964d113c12e03121dd03b7a3d88001122",
    ("integral", "wide", 2.0): "c185479407e39884ab5da7ce896d7ea4ee424c1decd36314acaa38ff8a778c2e",
    ("integral", "wide", 10.0): "7bbc593531e941dac826faa76af4c36af13210570089a52b153219be51d21b1f",
    ("integral", "wide", 100.0): "c67e9c9f3b54b0e984fbc3f5f3f4917bbc155bf7da4966419a4c9ae8aa317855",
    ("integral", "wide", 1000.0): "879f441e214ddd7d663652d321414d7bff2b389c37b4beb992a56307fac10f3c",
    ("integral", "wide", 10000.0): "51294d2cff3a03a2108caf4523c3ab8b5294710d4ed7d2f7ce3a4f56e390334c",
    ("integral", "wide", 100000.0): "89cb2170f2b347f015a7af9bc65ebdfa7c615d55bd95ddb99b8e818f5561c23f",
    ("integral", "edge", 2.0): "278e22be564415c2a9ac6ed78ecf44282bd7b9bcd72c1adbaafc9bc8fdc17bb2",
    ("integral", "edge", 10.0): "f4bd868f52563160a513ff920ee2e114a431f90f2d48aa4f75ed2bc7c8c460a3",
    ("integral", "edge", 100.0): "4442ca844a07cee74ea1f53eb367827b5a813d80e4557dea8fabe44154746ea2",
    ("integral", "edge", 1000.0): "d7bb356b860a9843cbfe7bba13f386343782f37cdb6c865d2ba3a7e5a8eaa3aa",
    ("integral", "edge", 10000.0): "57d09e258c913c8fe3c68d129ed3e9647a12119d5bf4a588d756376a5ad14ddc",
    ("integral", "edge", 100000.0): "66e8601b2153cbaa1d2357297f8be6bb7d7a3d6e8ed453638d57b988c9558d6c",
}
_DENSITY_DIGESTS = {
    ("exact", "third", "grid", 2.0): "ca5c1c1e200fc18d510ef18c7049f6d9ca69ee42ea8bfc571faee5c901d5f349",
    ("exact", "third", "grid", 100.0): "a9cfb088649a40ac712ec5d128b621113c47d4b18bb9e31ca926ff763dca9ba7",
    ("exact", "third", "grid", 10000.0): "bd53932b43d42daebf786e2c21e870ef2bf5b909f782d483e17c421b2c5bb6a4",
    ("limit", "third", "grid", 0.0): "7d7ded33b40b6188d3ac44be90ed4ffb33892b39f973d3e3af133c6e74c85d63",
    ("exact", "third", "scalar", 2.0): "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
    ("exact", "third", "scalar", 100.0): "8f2407a4beaa2e1e39283ca7fd5aeeffed9b9fb6401f10280975918d3b3ac1b9",
    ("exact", "third", "scalar", 10000.0): "107efe66f8a74cc0984b648a20fca846d67026a5671ba9b06587ec1cffc33332",
    ("limit", "third", "scalar", 0.0): "950ab1b0e0349b6318bd96894e5542feb4a1d360de0e908b0294537eb650f857",
    ("exact", "third", "exits", 2.0): "f793a88e4313eea032d232721f3fe5777864bc02078bc1035f414ed09b90f7d2",
    ("exact", "third", "exits", 100.0): "726b0c24aa4b549590f5827d2c018acdf02dfcad82e7ccfabbf01eb3a9f633bb",
    ("exact", "third", "exits", 10000.0): "385ccb831cafb6a2cc5e1c4017dc56b8c5ed151c1862c053fafdea410bea6b46",
    ("limit", "third", "exits", 0.0): "5bf04bb65a5cd51cb23541989333717c9b231be21640922933164fb5de213890",
    ("exact", "small", "grid", 2.0): "7f21495fb88de5362d3e739a6a147561228ef938ce15cd28c3c1c4fa1431d3f0",
    ("exact", "small", "grid", 100.0): "aa012cee72fb8f021e915ed33d21c5fe64dc5a600ea0a229fc92f7de97ee7767",
    ("exact", "small", "grid", 10000.0): "b358cbe8b0a92c5291b2edcd5ed61fdb1b5efd17a4e3389e0f1717cfcb709250",
    ("limit", "small", "grid", 0.0): "e98397413a6e7803c4f57cc8e80914ad228e62ced01ef1294b5def88c0f98187",
    ("exact", "small", "scalar", 2.0): "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
    ("exact", "small", "scalar", 100.0): "e607425615fa718565216ffe0733bdd6e664d9984c9e0a2c3d8aa89c356767b7",
    ("exact", "small", "scalar", 10000.0): "63f51970863411340963620c0aade4fe61a24912ba24c26e8d51357e392770cd",
    ("limit", "small", "scalar", 0.0): "c22109f1252d87a5fd146abef6290bff5cb0c3eaa0097fece00b10e1e692cafe",
    ("exact", "small", "exits", 2.0): "abe97090caad93e1930836378b526b038b903c791aff03740694520bf8458997",
    ("exact", "small", "exits", 100.0): "f97ebd5d2d67fcee49d95d8b025e8d3cac4a687c51c02dc7d71548695887bddf",
    ("exact", "small", "exits", 10000.0): "07465de0bfc290287feca87d6db03b66cd6cb538b34b19ef7c6113473b77fe53",
    ("limit", "small", "exits", 0.0): "b05b82289b09c9f8522d568f197335c31abb938d8a646b7ede3d39ed4639ec45",
    ("exact", "wide", "grid", 2.0): "966502575a7b613c7e5d3e0d23ba8b4070486c409b4d5814e1ddabd2688fa199",
    ("exact", "wide", "grid", 100.0): "02b015c04fcfef65e08038762e73c8a072a95edf24c9861d7ec96b3175acab8e",
    ("exact", "wide", "grid", 10000.0): "f6529e77531a787d13a503d2a5df8a663fb5332b12a736232f8cb702a25b1443",
    ("limit", "wide", "grid", 0.0): "cf6c6d0e1a11e8e5e99ea06c6ae2177a613a488e046ff898fc478146853e33ee",
    ("exact", "wide", "scalar", 2.0): "df1bfb65c3ef5bbde49a0c8350a8f46f80f80bc3aeffa82c19e0992a0f070089",
    ("exact", "wide", "scalar", 100.0): "4ab08c96c013ca833b91ff6552a4d4ffe2cae60c2ed314bf7bdda8d0941c6078",
    ("exact", "wide", "scalar", 10000.0): "a68a31fdd5366f049efa4e5167a8cc4165945a8d0269eb4c151865ebc96bc237",
    ("limit", "wide", "scalar", 0.0): "47a274f5f865fc6e3d90de6d9e56fff45353fee747bf9fee9e3e334be537ed01",
    ("exact", "wide", "exits", 2.0): "66687aadf862bd776c8fc18b8e9f8e20089714856ee233b3902a591d0d5f2925",
    ("exact", "wide", "exits", 100.0): "4421210c5f12ec3457a74f8d9298f26afb4665a88a2942c20f8cbce58faec583",
    ("exact", "wide", "exits", 10000.0): "4a264755bf313bd39ad88c020c0ea24457f1d30f3ee0d9e89e02294af45d96d7",
    ("limit", "wide", "exits", 0.0): "efa9774a03ca5d25a72e0c23d3ed17ae5a6a80cec72e648ca9f1f92cc27bb284",
    ("exact", "edge", "grid", 2.0): "ae922d4593e5a0acf915d6846e7921eef00b9f6c53f859c5ab4ba2a6fcd5c30d",
    ("exact", "edge", "grid", 100.0): "d9aa36bfff0e49b318b704b273a612bfd1e450e25810c476435e698f592423fc",
    ("exact", "edge", "grid", 10000.0): "343989b8d55f7095ef23fee13b08a723f4c0facbac71c7840de66bbb1fe0e41d",
    ("limit", "edge", "grid", 0.0): "5d464703e0f9fcdffec926acfca841b425644c1e966a3ebfecf45581d5a14f64",
    ("exact", "edge", "scalar", 2.0): "2cdbdef2314f9b5df651290777af545bbecc433ddc1cecd24d57fb63b9cae1aa",
    ("exact", "edge", "scalar", 100.0): "fe69ba990e5156c458284c7799bbb365f2f86b3288d2cbd48c6e4b861db5b37e",
    ("exact", "edge", "scalar", 10000.0): "abdcdba06da2793e392ec4bbbf082eaef4ace9bff93558a0a3e5a82b9a4fc517",
    ("limit", "edge", "scalar", 0.0): "732fa53d605646a46cac8b4dc8b32bdbd796ac5ce07061967ff3047e58e9e334",
    ("exact", "edge", "exits", 2.0): "66687aadf862bd776c8fc18b8e9f8e20089714856ee233b3902a591d0d5f2925",
    ("exact", "edge", "exits", 100.0): "6159dd3717b9dac935b58da42f6ff417e820ee5fc874b68d950efc25670aec62",
    ("exact", "edge", "exits", 10000.0): "ccdb00f57cb20ba59d50f465554e455a848eaa93aca7db2b50ddae4fddb1ca19",
    ("limit", "edge", "exits", 0.0): "9e90dba7a594a9f0c4fc38124cb68cc29cb18765778e856cce536b3a2c8d286d",
}
# tv_distance_bivariate(1/3, 1/3, 10^3) with QUAD_TOL at 1e-9: stopped by N_MAX.
_N_MAX_DIGEST = "6df676e8ea332666cc125547ac7dd3ac8f00c50bcfbec36d5db7d65afeb001c0"


def _digest(*values) -> str:
    import hashlib

    flat = np.concatenate([np.asarray(v, dtype="<f8").ravel() for v in values])
    return hashlib.sha256(flat.tobytes()).hexdigest()


def _quad_digest(est) -> str:
    return _digest(est.value, est.quad_error, float(est.converged))


def _density_values(kind: str, cells: str, where: str, a: float):
    l1, l2 = _DENSITY_CELLS[cells]
    y1, y2 = {
        "grid": (_DENSITY_GRID[:, None], _DENSITY_GRID[None, :]),
        "scalar": (0.3, -0.7),
        "exits": _SIMPLEX_EXITS,
    }[where]
    if kind == "limit":
        return limit_bivariate_density(y1, y2, BivariateGaussianSpec.from_cell_measures(l1, l2))
    return scaled_bivariate_density(y1, y2, l1, l2, a)


class TestDensityNumericsPinned:
    @pytest.mark.parametrize("key", list(_QUAD_DIGESTS), ids=lambda k: "-".join(map(str, k)))
    def test_quadrature_is_bit_identical(self, key):
        fn, cells, a = key
        quad = {"tv": tv_distance_bivariate, "integral": bivariate_density_integral}[fn]
        assert _quad_digest(quad(*_DENSITY_CELLS[cells], a)) == _QUAD_DIGESTS[key]

    def test_n_max_stop_is_bit_identical(self, monkeypatch):
        monkeypatch.setattr(processes, "QUAD_TOL", 1e-9)
        tv = tv_distance_bivariate(THIRD, THIRD, 1e3)
        assert not tv.converged
        assert _quad_digest(tv) == _N_MAX_DIGEST

    @pytest.mark.parametrize("key", list(_DENSITY_DIGESTS), ids=lambda k: "-".join(map(str, k)))
    def test_density_is_bit_identical(self, key):
        assert _digest(_density_values(*key)) == _DENSITY_DIGESTS[key]


def _full_grid_ladder(f, xbox, ybox):
    """Reference ladder: every refinement level evaluates its whole grid."""
    n, prev = processes.N_START, None
    while True:
        x = np.linspace(xbox[0], xbox[1], n)
        y = np.linspace(ybox[0], ybox[1], n)
        vals = f(x[:, None], y[None, :])
        wx = processes._simpson_weights(n, x[1] - x[0])
        wy = processes._simpson_weights(n, y[1] - y[0])
        est = float(wx @ vals @ wy)
        settled = prev is not None and abs(est - prev) < processes.QUAD_TOL
        if settled or 2 * n - 1 > processes.N_MAX:
            return est
        prev, n = est, 2 * n - 1


class TestSimpsonLadder:
    @staticmethod
    def _record(f, xbox, ybox):
        """Run the ladder on ``f``, counting the calls at each point of a
        grid as fine as N_MAX; returns the estimate and the counts."""
        fine_x = np.linspace(xbox[0], xbox[1], processes.N_MAX)
        fine_y = np.linspace(ybox[0], ybox[1], processes.N_MAX)
        counts = np.zeros((processes.N_MAX, processes.N_MAX), dtype=int)

        def recording(x, y):
            ix = np.searchsorted(fine_x, x.ravel())
            iy = np.searchsorted(fine_y, y.ravel())
            assert np.array_equal(fine_x[ix], x.ravel()) and np.array_equal(fine_y[iy], y.ravel())
            counts[np.ix_(ix, iy)] += 1
            return f(x, y)

        return _refine_simpson_2d(recording, xbox, ybox), counts

    @pytest.mark.parametrize(
        "a, tol, n_final",
        [(1e3, processes.QUAD_TOL, 129), (1e2, 0.0, processes.N_MAX)],
        ids=["converged", "n_max_stopped"],
    )
    def test_each_point_of_the_final_grid_is_evaluated_once(self, monkeypatch, a, tol, n_final):
        monkeypatch.setattr(processes, "QUAD_TOL", tol)
        xbox, ybox = processes._support_box(THIRD, THIRD, a)

        def density(x, y):
            return scaled_bivariate_density(x, y, THIRD, THIRD, a)

        est, counts = self._record(density, xbox, ybox)
        assert est.converged == (n_final < processes.N_MAX)
        stride = (processes.N_MAX - 1) // (n_final - 1)
        assert counts.sum() == n_final**2
        assert np.all(counts[::stride, ::stride] == 1)
        assert est.value == _full_grid_ladder(density, xbox, ybox)

    @pytest.mark.parametrize("cells", ["third", "small", "wide", "edge"])
    @pytest.mark.parametrize("a", [2.0, 10.0, 1e2, 1e3, 1e4, 1e5])
    def test_coarse_grid_is_the_even_subgrid(self, cells, a):
        """The identity the nested refinement rests on, bit for bit."""
        for lo, hi in processes._support_box(*_DENSITY_CELLS[cells], a):
            n = processes.N_START
            while 2 * n - 1 <= processes.N_MAX:
                fine = np.linspace(lo, hi, 2 * n - 1)[::2]
                assert fine.tobytes() == np.linspace(lo, hi, n).tobytes()
                n = 2 * n - 1


# scaled_bivariate_density(y1, y2, 1/4, 1/4, 16) on a grid whose first row
# has x1 = 0 exactly, whose first columns have x2 <= 0 and whose upper
# corner lies outside the simplex, recorded before the kernel kept those
# points out of numpy's log and exp.
_BOUNDARY_Y1 = np.linspace(-1.0, 3.0, 41)
_BOUNDARY_Y2 = np.linspace(-1.5, 2.5, 41)
_BOUNDARY_DIGEST = "b668d4be94794ea8465963d7ea0d3ec12db185b3dbbdf7dc971387437f8c8701"


class TestRowBlocks:
    """The ladder fills its grids a block of rows per kernel call."""

    @pytest.mark.parametrize(
        "block", [1, processes._BLOCK_POINTS, 1 << 30], ids=["one_row", "default", "whole_grid"]
    )
    def test_estimates_do_not_depend_on_the_block_size(self, monkeypatch, block):
        monkeypatch.setattr(processes, "_BLOCK_POINTS", block)
        for (fn, cells, a), digest in _QUAD_DIGESTS.items():
            quad = {"tv": tv_distance_bivariate, "integral": bivariate_density_integral}[fn]
            assert _quad_digest(quad(*_DENSITY_CELLS[cells], a)) == digest, (fn, cells, a)
        monkeypatch.setattr(processes, "QUAD_TOL", 1e-9)
        assert _quad_digest(tv_distance_bivariate(THIRD, THIRD, 1e3)) == _N_MAX_DIGEST

    def test_no_kernel_call_exceeds_the_block(self, monkeypatch):
        """A default density-family run calls each kernel on at most
        _BLOCK_POINTS points at a time (131,328 when each refinement
        evaluated its new rows in one call)."""
        sizes = []

        def recorded(kernel):
            def call(y1, y2, *args):
                sizes.append(np.broadcast_shapes(np.shape(y1), np.shape(y2)))
                return kernel(y1, y2, *args)

            return call

        for module in (processes, verify):
            for name in ("scaled_bivariate_density", "limit_bivariate_density"):
                monkeypatch.setattr(module, name, recorded(getattr(module, name)))
        config = validate_config({"schema_version": 1, "seed": 1, "experiment": "density"})
        assert run_experiment(config).results["density"].passed
        points = [int(np.prod(shape)) for shape in sizes]
        assert max(points) <= processes._BLOCK_POINTS
        assert max(points) > processes._BLOCK_POINTS // 2

    def test_points_outside_the_simplex_skip_log_and_exp(self):
        """Exactly 0 outside the simplex, the recorded bits inside, and no
        zero, negative or -inf reaches numpy's log or exp (which would warn).
        An infinite argument at a l1 = 1 would give 0 * inf."""
        y1, y2 = _BOUNDARY_Y1[:, None], _BOUNDARY_Y2[None, :]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = scaled_bivariate_density(y1, y2, 0.25, 0.25, 16.0)
            assert scaled_bivariate_density(np.inf, 0.0, THIRD, THIRD, 3.0) == 0.0
        x1, x2, x3 = y1 / 4.0 + 0.25, y2 / 4.0 + 0.25, 1.0 - (y1 + y2) / 4.0 - 0.25 - 0.25
        inside = (x1 > 0.0) & (x2 > 0.0) & (x3 > 0.0)
        assert x1[0, 0] == 0.0 and 0 < inside.sum() < out.size
        assert np.all(out[~inside] == 0.0) and np.all(out[inside] > 0.0)
        assert _digest(out) == _BOUNDARY_DIGEST


class TestDensityShapes:
    SPEC = BivariateGaussianSpec.from_cell_measures(0.1, 0.2)

    @pytest.mark.parametrize("kind", ["exact", "limit"])
    def test_scalar_input_gives_a_float(self, kind):
        density = self._density(kind)
        assert type(density(0.3, -0.7)) is float
        assert type(density(np.float64(0.3), np.array(-0.7))) is float
        assert type(density(-40.0, 0.0)) is float  # outside the simplex

    @pytest.mark.parametrize("kind", ["exact", "limit"])
    @pytest.mark.parametrize(
        "y1, y2, shape",
        [
            (np.zeros((4, 1)), np.zeros((1, 3)), (4, 3)),
            (np.zeros(5), np.zeros(5), (5,)),
            (np.zeros(5), 0.0, (5,)),
            (0.0, np.zeros((2, 3)), (2, 3)),
            (np.zeros((1, 3)), np.zeros((4, 1)), (4, 3)),
        ],
        ids=["column_x_row", "one_d", "one_d_x_scalar", "scalar_x_grid", "row_x_column"],
    )
    def test_broadcast_shape(self, kind, y1, y2, shape):
        density = self._density(kind)
        out = density(y1, y2)
        assert isinstance(out, np.ndarray) and out.shape == shape
        assert np.all(out == density(0.0, 0.0))

    def _density(self, kind):
        if kind == "limit":
            return lambda y1, y2: limit_bivariate_density(y1, y2, self.SPEC)
        return lambda y1, y2: scaled_bivariate_density(y1, y2, 0.1, 0.2, 50.0)
