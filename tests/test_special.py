"""dplab.special against the scipy.special functions it stands in for."""

import warnings

import numpy as np
import pytest
import scipy.special

from dplab import ArgumentError
from dplab import special
from dplab.special import expit, gammaln, ndtr_sorted, polevl

SQRT2 = np.sqrt(2.0)


def _with_neighbours(points) -> np.ndarray:
    points = np.asarray(points, dtype=float)
    return np.concatenate([points, np.nextafter(points, -np.inf), np.nextafter(points, np.inf)])


def _bits(x) -> bytes:
    return np.asarray(x, dtype="<f8").tobytes()


def _p1evl(x, coef):
    """cephes' p1evl as written: the leading 1 is implied."""
    out = x + coef[0]
    for c in coef[1:]:
        out = out * x + c
    return out


class TestPolevl:
    X = np.concatenate([[0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e-300, 1e30, -1e30],
                        np.random.default_rng(1958).normal(0.0, 3.0, 500)])
    COEFS = [special._T, special._P, special._B, special._A, (0.0,), (2.0, 0.0), (-0.0, 0.0, -3.0)]

    @pytest.mark.parametrize("coef", COEFS)
    def test_array_is_the_float_evaluation_of_each_element(self, coef):
        """Bit for bit, the sign of a zero included."""
        want = [polevl(float(x), coef) for x in self.X]
        assert all(type(v) is float for v in want)
        assert _bits(polevl(self.X, coef)) == _bits(want)

    @pytest.mark.parametrize("den", [special._U, special._Q, special._S, special._C])
    def test_leading_one_is_p1evl(self, den):
        assert den[0] == 1.0
        assert _bits(polevl(self.X, den)) == _bits(_p1evl(self.X, den[1:]))
        assert _bits([polevl(float(x), den) for x in self.X]) == _bits(_p1evl(self.X, den[1:]))

    def test_does_not_write_its_argument(self):
        x = self.X.copy()
        polevl(x, special._T)
        assert _bits(x) == _bits(self.X)


class TestNdtr:
    def test_bit_for_bit_over_every_branch(self):
        """Every branch edge of cephes' ndtr (|a| = 1, sqrt 2, 8 sqrt 2, the
        MAXLOG underflow near -37.7), with its neighbours, a sweep down to
        -40, the extremes and NaN."""
        edges = [0.0, 1 / SQRT2, 1.0, SQRT2, 8.0, 8 * SQRT2, 37.5, 37.7, 38.0, 40.0]
        edges = _with_neighbours(edges + [-e for e in edges] + [-0.0, np.inf, -np.inf, 1e300])
        rng = np.random.default_rng(1951)
        a = np.sort(np.concatenate([
            edges, [np.nan, np.nan], np.linspace(-40.0, 40.0, 80_001),
            rng.normal(0.0, 1.0, 50_000), rng.normal(0.0, 6.0, 50_000),
        ]))
        np.testing.assert_array_equal(ndtr_sorted(a), scipy.special.ndtr(a))

    @pytest.mark.parametrize("a", [[], [np.nan], [-np.inf, np.inf], [-0.0], [-3.0, 3.0]])
    def test_short_and_one_branch_inputs(self, a):
        a = np.array(a)
        np.testing.assert_array_equal(ndtr_sorted(a), scipy.special.ndtr(a))


class TestGammaln:
    def test_bit_for_bit_on_positive_reals(self):
        """The density family's cell shapes a l at l = 1/3, the edges of lgam's
        branches (13, 1000, 1e8) with their neighbours, and a log-uniform
        sweep of (1e-300, 1e9]."""
        edges = _with_neighbours([1.0, 2.0, 3.0, 13.0, 1000.0, 1e8, 1e9])
        rng = np.random.default_rng(1973)
        xs = np.concatenate([
            [100 / 3, 1000 / 3, 10000 / 3, 1e-300, 5e-324], edges[edges <= 1e9],
            10.0 ** rng.uniform(-3.0, 9.0, 20_000), rng.uniform(0.0, 15.0, 5_000),
        ])
        got = np.array([gammaln(float(x)) for x in xs])
        np.testing.assert_array_equal(got, scipy.special.gammaln(xs))

    @pytest.mark.parametrize("x", [2.0, 3.0, 0.3, 5.5, 33.3, 5000.0, 1e9])
    def test_result_types(self, x):
        """A float gives a float; a numpy scalar or 0-d array gives a numpy
        float64, except where lgam returns log(z) alone (x = 2 and 3), and
        the 0-d array is left as it was."""
        assert type(gammaln(x)) is float
        numpy_type = float if x in (2.0, 3.0) else np.float64
        arg = np.array(x)
        for got in (gammaln(np.float64(x)), gammaln(arg)):
            assert type(got) is numpy_type and got == gammaln(x)
        assert arg == x

    def test_rejects_non_positive(self):
        for bad in (0.0, -1.5, float("nan")):
            with pytest.raises(ArgumentError):
                gammaln(bad)


class TestExpit:
    def test_within_four_ulps(self):
        """One ulp of numpy's exp against libm's grows to at most 4 ulps of
        the result through 1 + exp(-x) and the division; most values agree
        bit for bit."""
        x = np.random.default_rng(1998).normal(0.0, 20.0, 200_000)
        got, ref = expit(x), scipy.special.expit(x)
        assert np.all(np.abs(got - ref) <= 4 * np.spacing(ref))
        assert np.mean(got != ref) < 0.05

    def test_saturates_without_warning(self):
        with warnings.catch_warnings(), np.errstate(over="raise", divide="raise", invalid="raise"):
            warnings.simplefilter("error")
            out = expit(np.array([-1e10, -800.0, 800.0, 1e10]))
        np.testing.assert_array_equal(out, [0.0, 0.0, 1.0, 1.0])
