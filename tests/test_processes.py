"""Limit objects: bridge and quantile covariances, bivariate densities."""

import warnings

import numpy as np
import pytest

from dplab import (
    ArgumentError,
    BorelSet,
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
        with pytest.raises(ArgumentError):
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
        with pytest.raises(ArgumentError, match="not positive and finite"):
            limit_quantile_cov(u, u, base)

    @pytest.mark.parametrize("rate", [1e-3, 0.5, 2.0, 1e3])
    def test_exponential_at_any_rate(self, rate):
        """h(H^{-1}(u)) = rate (1 - u): the quantiles at 3/4 and 0.999 lie
        beyond 700 for the smaller rates."""
        base = exponential_base(rate)
        for u, v in ((0.5, 0.5), (0.25, 0.75), (0.75, 0.999)):
            target = (min(u, v) - u * v) / (rate * rate * (1 - u) * (1 - v))
            assert limit_quantile_cov(u, v, base) == pytest.approx(target, rel=1e-12)


class TestLimitBivariateDensity:
    @pytest.mark.parametrize("l1, l2", [(THIRD, THIRD), (0.1, 0.2), (0.45, 0.5), (0.05, 0.9)])
    def test_second_moments_are_the_bridge_covariance(self, l1, l2):
        """On a fine grid over +-10 SDs the density has the covariance
        [[l1(1-l1), -l1 l2], [-l1 l2, l2(1-l2)]] of the bridge at two
        disjoint cells."""
        s1, s2 = np.sqrt(l1 * (1 - l1)), np.sqrt(l2 * (1 - l2))
        y1, y2 = np.linspace(-10 * s1, 10 * s1, 2001), np.linspace(-10 * s2, 10 * s2, 2001)
        f = limit_bivariate_density(y1[:, None], y2[None, :], l1, l2)
        cell = (y1[1] - y1[0]) * (y2[1] - y2[0])
        mass = f.sum() * cell
        moments = {
            "11": (y1[:, None] ** 2 * f).sum() * cell,
            "22": (y2[None, :] ** 2 * f).sum() * cell,
            "12": (y1[:, None] * y2[None, :] * f).sum() * cell,
        }
        assert mass == pytest.approx(1.0, rel=1e-6)
        assert moments["11"] == pytest.approx(l1 * (1 - l1), rel=1e-6)
        assert moments["22"] == pytest.approx(l2 * (1 - l2), rel=1e-6)
        assert moments["12"] == pytest.approx(-l1 * l2, rel=1e-6)

    @pytest.mark.parametrize("l1, l2", [(0.6, 0.5), (0.0, 0.5), (0.5, -0.1), (0.5, 0.5)])
    def test_invalid_cells(self, l1, l2):
        with pytest.raises(ArgumentError):
            limit_bivariate_density(0.0, 0.0, l1, l2)
        with pytest.raises(ArgumentError):
            processes.check_density_cells(l1, l2)

    def test_value_at_origin(self):
        assert limit_bivariate_density(0.0, 0.0, THIRD, THIRD) == pytest.approx(
            LIMIT_AT_ORIGIN, abs=1e-12
        )

    def test_symmetric_under_equal_cells(self):
        for y1, y2 in [(0.3, -0.8), (1.2, 0.4)]:
            assert limit_bivariate_density(y1, y2, THIRD, THIRD) == pytest.approx(
                limit_bivariate_density(y2, y1, THIRD, THIRD)
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
        g = np.linspace(-2.5, 2.5, 11)
        flim = limit_bivariate_density(g[:, None], g[None, :], THIRD, THIRD)
        gaps = [
            np.max(np.abs(scaled_bivariate_density(g[:, None], g[None, :], THIRD, THIRD, a) - flim))
            for a in (1e2, 1e3, 1e4)
        ]
        assert gaps[0] > gaps[1] > gaps[2]


def _dirichlet_reference(y1, y2, l1, l2, a, b):
    """scipy's Dirichlet(b l1, b l2, b l3) density pushed through the map
    y = sqrt(a)(x - l), with its Jacobian 1/a; b = a is the exact density."""
    from scipy.stats import dirichlet

    x1, x2 = l1 + y1 / np.sqrt(a), l2 + y2 / np.sqrt(a)
    x = np.stack([x1, x2, 1.0 - x1 - x2])
    return np.exp(dirichlet.logpdf(x, b * np.array([l1, l2, 1.0 - l1 - l2]))) / a


class TestStirlingKernel:
    """The density in Stirling form against a second representation and at
    concentrations where the log-gamma normaliser lost its digits."""

    @pytest.mark.parametrize("cells", [(THIRD, THIRD), (0.1, 0.2)])
    @pytest.mark.parametrize("a", [10.0, 100.0])
    def test_matches_the_dirichlet_density(self, cells, a):
        g = np.linspace(-2.0, 2.0, 9)
        y1, y2 = (v.ravel() for v in np.meshgrid(g, g))
        x1, x2 = cells[0] + y1 / np.sqrt(a), cells[1] + y2 / np.sqrt(a)
        inside = np.minimum(np.minimum(x1, x2), 1.0 - x1 - x2) > 0.01
        y1, y2 = y1[inside], y2[inside]
        assert y1.size >= 20
        got = scaled_bivariate_density(y1, y2, *cells, a)
        want = _dirichlet_reference(y1, y2, *cells, a, a)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        # The same check catches the density built at a + 1 with the sqrt(a) map kept.
        wrong = _dirichlet_reference(y1, y2, *cells, a, a + 1.0)
        assert np.max(np.abs(wrong / want - 1.0)) > 1e-3

    @pytest.mark.parametrize("a", [1e8, 1e12])
    def test_integrates_to_one_at_large_concentration(self, a):
        est = bivariate_density_integral(THIRD, THIRD, a)
        assert est.converged and abs(est.value - 1.0) <= 1e-9

    def test_origin_matches_the_limit_at_large_concentration(self):
        val = scaled_bivariate_density(0.0, 0.0, THIRD, THIRD, 1e12)
        assert abs(val / LIMIT_AT_ORIGIN - 1.0) <= 1e-8


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

    @pytest.mark.parametrize("a", [1e3, 4.5], ids=["converged", "n_max_stopped"])
    @pytest.mark.parametrize(
        "quad", [tv_distance_bivariate, bivariate_density_integral], ids=["tv", "integral"]
    )
    def test_results_are_python_floats(self, quad, a):
        est = quad(THIRD, THIRD, a)
        assert est.converged == (a == 1e3)
        assert type(est.value) is float and type(est.quad_error) is float

    @pytest.mark.parametrize("a", [1e2, 1e3, 1e4])
    def test_bounded_by_one(self, a):
        est = tv_distance_bivariate(THIRD, THIRD, a)
        assert 0.0 <= est.value <= 1.0
        assert est.quad_error >= 0.0


# sha256 of the density family's numerics as little-endian float64.  The
# limit densities were recorded from the implementation that evaluated the
# whole Simpson grid at every refinement level and built each density from
# fresh temporaries; the exact densities from the Stirling-form kernel; the
# quadratures from that kernel and the ladder's table of row sums, added in
# a fixed order.
# A quadrature result is hashed as (value, quad_error, converged); a density
# as its values.  Any change to the grids, the refinement or the arithmetic
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
    ("tv", "third", 10.0): "117f07dc0490723586c2a7d4c2f92890798cce641342598457562e6b9f709e52",
    ("tv", "third", 100.0): "8c6d67bb7c204a8123a1cb264206399983d8c39d4692ded8c2c15c1c19e9df6e",
    ("tv", "third", 1000.0): "f98be5488472654b0236f9b332c4b899a0c972cbe5eb992f011639568b3b07ba",
    ("tv", "third", 10000.0): "89f723c19484c9503c32ed097b898de86f5bc09ff33932a9a7574ed057417175",
    ("tv", "third", 100000.0): "aef1e8771fa23bd5157ffc4400ad46ee46c4c1b6389912056c53594e992bf91f",
    ("tv", "small", 100.0): "ef162deab8845aa0286442f1d273138591a1e7f9919c9a8eb7b138002d693412",
    ("tv", "small", 1000.0): "cb986b885d8c301a81224fe3c9ae299a2619fc7029c4d240187e82ba3975df84",
    ("tv", "small", 10000.0): "778a96f9be32b4b0952242f326d41cb562804ebe48c6436807e8e69b4196b0ea",
    ("tv", "small", 100000.0): "e03191f137d909b77d3ee865e6cf20f4cbcd9d9dc33c8cc3b4c761884b0841e7",
    ("tv", "wide", 100.0): "1e069e0ea7ed7f6d40da2f7851ec5e76c7554ba40c0d08090d01311a35110f9c",
    ("tv", "wide", 1000.0): "25f0a7a61934bc7e9023c9275c1cf39f8cadb069778fbfd27d354f2904ffd813",
    ("tv", "wide", 10000.0): "d2220c6bb3fe0080016d7466a4f9dd6cc21c8b4473c4ef81a9622096d118e59c",
    ("tv", "wide", 100000.0): "92433ede33c3e427af1f9bd8871574d4e4fac384e6dd91effbf5fb6cccc98d5f",
    ("tv", "edge", 100.0): "0bdf05f8181681d1eb4fafb43dcfe4528ac919e7dc6f22e9e033fb44dd4f1de9",
    ("tv", "edge", 1000.0): "fafe6932fca176ce70a35a863b58ca8c805f44bc5c2ba200dfd1b2ef0476cdc2",
    ("tv", "edge", 10000.0): "37c4d09a67f39d1600063bbdf340aa6594b3e3dec30af52e883fd8cdcb1d47cc",
    ("tv", "edge", 100000.0): "7f6b6f8fe506fccad0d15aee50dd8f23340ee289823fc1981918bfb831dc0ba5",
    ("integral", "third", 10.0): "f86cabb2069d63742ddb78de479412a3bf7472a7d3e0099baadc38dba27af2b5",
    ("integral", "third", 100.0): "11305ea35d57a0ebd48ecf42aa0f392d264c3a8ee66bb562d488523c1d4e25f4",
    ("integral", "third", 1000.0): "0e32639c4ed2f4d955c3d181f1aced180260ef5432dbed5e7e9c977948c1d421",
    ("integral", "third", 10000.0): "872f9bb1e77672847c3012a277df748e60e78af22ca4d14d2e3db24c54fa4764",
    ("integral", "third", 100000.0): "ce922333faa1f0074c28200971e1846f8fa4dd8ccb72098edbb28124eb4d3596",
    ("integral", "small", 100.0): "eb6f4a0592c1cb7c8b5497046b564006f81a1cee35789264bd3b17528d7b574b",
    ("integral", "small", 1000.0): "118f71b4bb489ed9784bc5975dc6fd0d7912ee7bd2a954c3d797b91406711e03",
    ("integral", "small", 10000.0): "d5a8cbcb3032568f4216628cfb01e087cfbb5d843ddeda436f74d6e6423d2299",
    ("integral", "small", 100000.0): "f767380da21c837c8ce8e43e7817029b618b7fb8b6a79fade62568f42212f771",
    ("integral", "wide", 100.0): "068575819d907b8505494fc83607e0c91256ce7ab1c06bbc34708eb34542b962",
    ("integral", "wide", 1000.0): "0b0f8af1eece8239ace3560493bf673fa5a9bd3df831f27e313091fafee4ba51",
    ("integral", "wide", 10000.0): "758496470498c86c4755dd80cb2f0f64654ea3f3f67c9bfd1fca112061984faa",
    ("integral", "wide", 100000.0): "44a2ebd9234068f7108a27cf98d2f345af738bac25e9a5105fb874f46beffba9",
    ("integral", "edge", 100.0): "e0ab99a2c5cac52b7150d77fdb4646c41f299255e60e4de1198db0c75ec772ee",
    ("integral", "edge", 1000.0): "d27008ae0d2f5bc1e9657022030f9e95e27ca3e96adeafb8db3cdf30e898a2fa",
    ("integral", "edge", 10000.0): "e8432f07023406c1710bb8eafc233d36cd950419abdcc2d9a205296db26d8582",
    ("integral", "edge", 100000.0): "c4b52620703ef1b62b8fb517230676b086d1201381d419badd221c4a473bc131",
}
# The (cells, a) of _DENSITY_CELLS x _DENSITY_A with a * min(l1, l2, l3) <= 1,
# where the exact density is unbounded and both quadratures refuse.
_UNBOUNDED = [("third", 2.0), ("small", 2.0), ("small", 10.0), ("wide", 2.0), ("wide", 10.0),
              ("edge", 2.0), ("edge", 10.0)]
_DENSITY_DIGESTS = {
    ("exact", "third", "grid", 2.0): "63e483f2335af3fa14e43d0c9cc1dbabcca18def16893d7b3ab25051ad52b43c",
    ("exact", "third", "grid", 100.0): "bcaf392dae58c110dda082eb53f473083cf8f26f4806643c9fa933fe8738b0b8",
    ("exact", "third", "grid", 10000.0): "c174138ec12929c668af3fa57754b5321e63e570d85e0dd5808a7d2dfa3dba9f",
    ("limit", "third", "grid", 0.0): "7d7ded33b40b6188d3ac44be90ed4ffb33892b39f973d3e3af133c6e74c85d63",
    ("exact", "third", "scalar", 2.0): "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
    ("exact", "third", "scalar", 100.0): "3abb9f0d6bc60c7f538083792dc13762aaf68859900d7f9abca7a940d813989e",
    ("exact", "third", "scalar", 10000.0): "17a0344238f4064b30872644bf84a656778c06345ff191cc5236cb1cc3fd4971",
    ("limit", "third", "scalar", 0.0): "950ab1b0e0349b6318bd96894e5542feb4a1d360de0e908b0294537eb650f857",
    ("exact", "third", "exits", 2.0): "00a35285e6019ef8252aa4b075f25320e158c4d86ee59b30d6ef432b6d8fbac5",
    ("exact", "third", "exits", 100.0): "3c2b70a8fbf85a55d2b177b3046c833d1ed1d043781929fb309a2c3d27cd5f49",
    ("exact", "third", "exits", 10000.0): "cbe47ac56e54ec7288909510e77b55a45e1934be073963549c8a8f5209ed41dd",
    ("limit", "third", "exits", 0.0): "5bf04bb65a5cd51cb23541989333717c9b231be21640922933164fb5de213890",
    ("exact", "small", "grid", 2.0): "0831891ad44d7897d41a6728224c231d04ec45c7a3e9e1f96068bf94b073c4c9",
    ("exact", "small", "grid", 100.0): "4b4663ae95fcbb8de274601943e63551f581b49967882f58c69c2bc88ce758ac",
    ("exact", "small", "grid", 10000.0): "af624d25f1e4311e7a217f628463ff7ddf77c6fc73b6889d6216ca9826b5594e",
    ("limit", "small", "grid", 0.0): "e98397413a6e7803c4f57cc8e80914ad228e62ced01ef1294b5def88c0f98187",
    ("exact", "small", "scalar", 2.0): "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
    ("exact", "small", "scalar", 100.0): "b7ab2472ab7937308f5e922d8c9a745bf88effaf6f3c582897442edf6b487545",
    ("exact", "small", "scalar", 10000.0): "17e19bcfeac0ddd7defbbbf64b910dc9fd82016bb4254a0813e89af66aa169da",
    ("limit", "small", "scalar", 0.0): "c22109f1252d87a5fd146abef6290bff5cb0c3eaa0097fece00b10e1e692cafe",
    ("exact", "small", "exits", 2.0): "f6ea6f9821bf8954db55cecada52dbf4a2cecfdc1ca813197cc98391a8ecff3e",
    ("exact", "small", "exits", 100.0): "9dad810b8ad570772e770a96c01ca569c1ca4b6ee91a276fadfdc99f848f5ca3",
    ("exact", "small", "exits", 10000.0): "3db109776ae77764011b87d2448a9bae9b6fe45e5e6db1037ea0523503ecd834",
    ("limit", "small", "exits", 0.0): "b05b82289b09c9f8522d568f197335c31abb938d8a646b7ede3d39ed4639ec45",
    ("exact", "wide", "grid", 2.0): "12877ec5d9e3e2b13f7cb76c36c545623aa4b59be695845f1dd5f6b55c3b0bae",
    ("exact", "wide", "grid", 100.0): "525e3a63711e5bc1f9487c6cf51e53f9cf422751c70458ed00f9ca231b27225a",
    ("exact", "wide", "grid", 10000.0): "0b2c07009fe4a8049b84a1b921f55f6855d078c89a1546b0f27e956d2936dbc2",
    ("limit", "wide", "grid", 0.0): "cf6c6d0e1a11e8e5e99ea06c6ae2177a613a488e046ff898fc478146853e33ee",
    ("exact", "wide", "scalar", 2.0): "a788a4403288815c40d115da42736d89f37a9f9f66089d025bb2c988a4d5bd57",
    ("exact", "wide", "scalar", 100.0): "6397b56bb28c4e0166ae4459a679dd7ddcb5518a3a219195ecf3dae564173c8d",
    ("exact", "wide", "scalar", 10000.0): "b180255cbd47d5db8f403ddc36293969b7f9297e03f35cecb55352b8e6135f7c",
    ("limit", "wide", "scalar", 0.0): "47a274f5f865fc6e3d90de6d9e56fff45353fee747bf9fee9e3e334be537ed01",
    ("exact", "wide", "exits", 2.0): "66687aadf862bd776c8fc18b8e9f8e20089714856ee233b3902a591d0d5f2925",
    ("exact", "wide", "exits", 100.0): "0cf9aced8f379320a354f0e97d6130f34efbc318f9ff03a92ea410dd42c57cf2",
    ("exact", "wide", "exits", 10000.0): "2bbfa0d7fac63e316852a691884f09c28d5c84b56d0024d0391b895ab8506f2e",
    ("limit", "wide", "exits", 0.0): "efa9774a03ca5d25a72e0c23d3ed17ae5a6a80cec72e648ca9f1f92cc27bb284",
    ("exact", "edge", "grid", 2.0): "74c89961ea4f99241458d9d50c5802f9b0bc28bc81d1b299bf503e5907838fc3",
    ("exact", "edge", "grid", 100.0): "4a02efe8da76b440350da610f4a910ec9ace8ba1ff0982ab893fa07c8ad06612",
    ("exact", "edge", "grid", 10000.0): "dd259aec6cc197bef682522be725a490b80f21a928e8bbd7b05f062ac851af51",
    ("limit", "edge", "grid", 0.0): "5d464703e0f9fcdffec926acfca841b425644c1e966a3ebfecf45581d5a14f64",
    ("exact", "edge", "scalar", 2.0): "2cdbdef2314f9b5df651290777af545bbecc433ddc1cecd24d57fb63b9cae1aa",
    ("exact", "edge", "scalar", 100.0): "f13f7e08bb7300a7efefbe01162f39780dd532b059e5710d1edb0ca658c5889d",
    ("exact", "edge", "scalar", 10000.0): "39cd8308c4db6e1939ab209d04c1c2fe4a76f2ce96ccb693545a1e5f896f6da8",
    ("limit", "edge", "scalar", 0.0): "732fa53d605646a46cac8b4dc8b32bdbd796ac5ce07061967ff3047e58e9e334",
    ("exact", "edge", "exits", 2.0): "66687aadf862bd776c8fc18b8e9f8e20089714856ee233b3902a591d0d5f2925",
    ("exact", "edge", "exits", 100.0): "3dc5e7275176af064a8c0e90572596deb036b3a63cb4a82aabc844990180dbb6",
    ("exact", "edge", "exits", 10000.0): "b56fd24fd11f97bc91a7b861b6967bcd9565caa3dbd1263f3371a2e9dd03e843",
    ("limit", "edge", "exits", 0.0): "9e90dba7a594a9f0c4fc38124cb68cc29cb18765778e856cce536b3a2c8d286d",
}
# tv_distance_bivariate(1/3, 1/3, 10^3) with QUAD_TOL at 1e-9: stopped by N_MAX.
_N_MAX_DIGEST = "cb39c92bc4faed1d591c1ab111e222076bd5fb9c7d7401245857192cf51d2a77"


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
        return limit_bivariate_density(y1, y2, l1, l2)
    return scaled_bivariate_density(y1, y2, l1, l2, a)


class TestDensityNumericsPinned:
    @pytest.mark.parametrize("key", list(_QUAD_DIGESTS), ids=lambda k: "-".join(map(str, k)))
    def test_quadrature_is_bit_identical(self, key):
        fn, cells, a = key
        quad = {"tv": tv_distance_bivariate, "integral": bivariate_density_integral}[fn]
        assert _quad_digest(quad(*_DENSITY_CELLS[cells], a)) == _QUAD_DIGESTS[key]

    @pytest.mark.parametrize("cells, a", _UNBOUNDED)
    @pytest.mark.parametrize(
        "quad", [tv_distance_bivariate, bivariate_density_integral], ids=["tv", "integral"]
    )
    def test_unbounded_density_is_refused(self, quad, cells, a):
        with pytest.raises(ArgumentError, match="must exceed 1"):
            quad(*_DENSITY_CELLS[cells], a)

    def test_n_max_stop_is_bit_identical(self, monkeypatch):
        monkeypatch.setattr(processes, "QUAD_TOL", 1e-9)
        tv = tv_distance_bivariate(THIRD, THIRD, 1e3)
        assert not tv.converged
        assert _quad_digest(tv) == _N_MAX_DIGEST

    @pytest.mark.parametrize("key", list(_DENSITY_DIGESTS), ids=lambda k: "-".join(map(str, k)))
    def test_density_is_bit_identical(self, key):
        assert _digest(_density_values(*key)) == _DENSITY_DIGESTS[key]


def _simpson_weights(n: int, h: float) -> np.ndarray:
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def _full_grid_ladder(f, xbox, ybox):
    """Reference ladder: every refinement level evaluates its whole grid and
    sums it as one BLAS product."""
    n, prev = processes.N_START, None
    while True:
        x = np.linspace(xbox[0], xbox[1], n)
        y = np.linspace(ybox[0], ybox[1], n)
        vals = f(x[:, None], y[None, :])
        wx = _simpson_weights(n, x[1] - x[0])
        wy = _simpson_weights(n, y[1] - y[0])
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
        # The ladder adds its row sums in another order than the BLAS
        # product, whose rounding differs from it by an ulp or two.
        assert est.value == pytest.approx(_full_grid_ladder(density, xbox, ybox), rel=1e-14, abs=0)

    @pytest.mark.parametrize("cells, a", [("third", 1e3), ("edge", 1e2), ("wide", 1e5)])
    def test_tv_gap_matches_the_full_grid(self, monkeypatch, cells, a):
        """The |f - phi| integrand of tv_distance_bivariate, whose row sums
        span hundreds of binades between the centre and the tails."""
        ladders = []

        def recorded(f, xbox, ybox):
            est = _refine_simpson_2d(f, xbox, ybox)
            ladders.append((est.value, _full_grid_ladder(f, xbox, ybox)))
            return est

        monkeypatch.setattr(processes, "_refine_simpson_2d", recorded)
        tv_distance_bivariate(*_DENSITY_CELLS[cells], a)
        [(value, reference)] = ladders
        assert value == pytest.approx(reference, rel=1e-14, abs=0)

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
# corner lies outside the simplex.
_BOUNDARY_Y1 = np.linspace(-1.0, 3.0, 41)
_BOUNDARY_Y2 = np.linspace(-1.5, 2.5, 41)
_BOUNDARY_DIGEST = "9f82268084f56879bd209ae14bd05a6f39bef97915e14417c43364468b9b73dc"


class TestRowBlocks:
    """The ladder evaluates its points a block of rows per kernel call and
    keeps only their row sums."""

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

    def test_memory_does_not_grow_with_the_grid(self):
        """At a l = 1.5 the ladder stops at N_MAX, where the whole grid alone
        is 8 MiB: the peak is the kernels' block temporaries and the row sums."""
        import tracemalloc

        tracemalloc.start()
        try:
            est = tv_distance_bivariate(THIRD, THIRD, 4.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not est.converged
        assert peak <= 1.5 * 2**20

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
            return lambda y1, y2: limit_bivariate_density(y1, y2, 0.1, 0.2)
        return lambda y1, y2: scaled_bivariate_density(y1, y2, 0.1, 0.2, 50.0)
