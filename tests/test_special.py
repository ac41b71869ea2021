"""dplab.special against the scipy.special functions it stands in for, and
the Stirling correction."""

import math
import warnings

import numpy as np
import pytest
import scipy.special

from dplab import special
from dplab.special import expit, ndtr_sorted, polevl, stirlerr

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
    COEFS = [special._T, special._P, special._R, special._STIRLERR_SERIES, (0.0,), (2.0, 0.0),
             (-0.0, 0.0, -3.0)]

    @pytest.mark.parametrize("coef", COEFS)
    def test_array_is_the_float_evaluation_of_each_element(self, coef):
        """Bit for bit, the sign of a zero included."""
        want = [polevl(float(x), coef) for x in self.X]
        assert all(type(v) is float for v in want)
        assert _bits(polevl(self.X, coef)) == _bits(want)

    @pytest.mark.parametrize("den", [special._U, special._Q, special._S, (1.0, *special._R)])
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


class TestStirlerr:
    def test_branches_agree_at_sixteen(self):
        """The series from 16 on against the lgamma expression below it,
        evaluated at 16: they differ by that expression's rounding (its terms
        are of size 45 there), not by the series' truncation."""
        below = math.lgamma(17.0) - 16.5 * math.log(16.0) + 16.0 - math.log(math.sqrt(2 * math.pi))
        assert abs(float(stirlerr(16.0)) - below) <= 1e-14
        assert abs(float(stirlerr(np.nextafter(16.0, 0.0))) - below) <= 1e-14

    def test_recurrence(self):
        """s(x + 1) - s(x) = 1 - (x + 1/2) log1p(1/x), from
        Gamma(x + 2) = (x + 1) Gamma(x + 1), across both branches."""
        x = np.concatenate([np.linspace(1.0, 40.0, 391), [1e3, 1e6, 1e12]])
        step = stirlerr(x + 1.0) - stirlerr(x)
        np.testing.assert_allclose(step, 1.0 - (x + 0.5) * np.log1p(1.0 / x), rtol=0.0, atol=5e-14)

    @pytest.mark.parametrize("x", [3.0, 30.0, np.float64(30.0), np.array(3.0)])
    def test_a_scalar_gives_a_0d_float_array(self, x):
        out = stirlerr(x)
        assert type(out) is np.ndarray and out.shape == () and out.dtype == np.float64


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
