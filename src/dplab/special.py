"""Special functions without scipy, whose import costs more memory and
start-up time than most runs take.

- ``expit``, the logistic function, for the log-space Beta draws;
- ``ndtr_sorted``, cephes' standard normal cdf ``ndtr``, for the KS checks;
- ``stirlerr``, log Gamma(x + 1) less its Stirling approximation (Loader
  2000), for ``kolmogorov.smirnov`` and ``processes.scaled_bivariate_density``;
- ``polevl``, cephes' Horner rule on a float or an array.

The two ports evaluate scipy 1.17's functions with the same operations in
the same order: ``ndtr_sorted`` returns scipy's values bit for bit, and
``expit`` differs in the last bits of a few values, which moves no
Beta-bisection quantile.
"""

from __future__ import annotations

import math

import numpy as np

# cephes' constants: M_SQRT1_2, MAXLOG = log(DBL_MAX).
_SQRT1_2 = 7.07106781186547524401e-1
_MAXLOG = 7.09782712893383996843e2


def polevl(x, coef):
    """cephes' polevl of a float or a float array x: the polynomial whose
    coefficients ``coef`` run from the highest power down, by Horner's rule
    in cephes' order (0 x + c is c for finite x).  cephes' p1evl is
    ``polevl(x, (1.0, *coef))``: 1 x is x."""
    out = x * 0.0 + coef[0]
    for c in coef[1:]:
        out *= x
        out += c
    return out


def expit(x: np.ndarray) -> np.ndarray:
    """scipy.special.expit, 1 / (1 + exp(-x)), over a float array.

    scipy evaluates the same formula over libm's exp.  numpy's vectorized
    exp differs from libm's by 1 ulp for about 5% of arguments, which moves
    about 2% of the results, by at most 4 ulps after 1 + exp(-x) and the
    division round.  exp(-x) overflows to inf for x below about -709.78,
    which gives exactly 0 without a warning.
    """
    with np.errstate(over="ignore"):
        out = np.exp(np.negative(x))
    out += 1.0
    return np.divide(1.0, out, out=out)


# cephes ndtr.c: erf(x) = x T(x^2)/U(x^2) for |x| < 1; erfc(x) =
# exp(-x^2) P(x)/Q(x) for 1 <= x < 8 and exp(-x^2) R(x)/S(x) for x >= 8.
# U, Q and S, which cephes takes to p1evl, carry its leading 1 written out.
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)


def _erf(x: np.ndarray) -> np.ndarray:
    """cephes erf for |x| < 1."""
    xx = x * x
    return polevl(xx, _T) * x / polevl(xx, _U)


def _erfc_exp(z: np.ndarray, num, den) -> np.ndarray:
    """cephes erfc for z >= 1, exp(-z^2) num(z)/den(z), with exp taken from
    libm (math.exp) as cephes takes it; 0 where -z^2 < -MAXLOG."""
    if not z.size:  # the usual case for x >= 8: skip some thirty numpy calls
        return z
    with np.errstate(over="ignore", invalid="ignore"):  # z = inf, overwritten below
        arg = -z * z
        out = np.fromiter(map(math.exp, arg.tolist()), float, arg.size)
        out *= polevl(z, num)
        out /= polevl(z, den)
    out[arg < -_MAXLOG] = 0.0
    return out


def ndtr_sorted(a: np.ndarray) -> np.ndarray:
    """scipy.special.ndtr, the standard normal cdf, of a nondecreasing float
    array (NaN last, where np.sort puts it).

    This is cephes' ndtr as scipy 1.17 builds it: with x = a/sqrt(2),
    0.5 + 0.5 erf(x) for |x| < 1/sqrt(2), else 0.5 erfc(|x|) (or 1 minus
    it for x > 0), with erfc as 1 - erf below 1 and exp(-x^2) times a
    rational function above, which underflows to 0 once x^2 exceeds MAXLOG.
    The rational functions are evaluated in cephes' Horner order and the exp
    by libm, so every value is scipy's bit for bit.  Because ``a`` is
    sorted, each branch is one contiguous slice.
    """
    x = a * _SQRT1_2
    out = np.empty_like(x)
    # Slice edges: x <= -8 | -8 < x <= -1 | -1 < x <= -1/sqrt2 | erf |
    # 1/sqrt2 <= x < 1 | 1 <= x < 8 | 8 <= x <= inf | NaN.
    e1, e2, e3 = np.searchsorted(x, (-8.0, -1.0, -_SQRT1_2), side="right")
    e4, e5, e6 = np.searchsorted(x, (_SQRT1_2, 1.0, 8.0), side="left")
    e7 = np.searchsorted(x, np.inf, side="right")
    # One erf over -1 < x < 1: erf(|x|) = -erf(x) left of the middle slice.
    erf = _erf(x[e2:e5])
    np.add(1.0, erf[: e3 - e2], out=out[e2:e3])
    np.multiply(0.5, erf[e3 - e2 : e4 - e2], out=out[e3:e4])
    out[e3:e4] += 0.5
    np.subtract(1.0, erf[e4 - e2 :], out=out[e4:e5])
    # Each exp branch once, over |x| from both sides.
    for lo, hi, top, end, num, den in ((0, e1, e6, e7, _R, _S), (e1, e2, e5, e6, _P, _Q)):
        h = _erfc_exp(np.concatenate((np.negative(x[lo:hi]), x[top:end])), num, den)
        out[lo:hi], out[top:end] = h[: hi - lo], h[hi - lo :]
    # 0.5 erfc(|x|) left of the middle, one minus it right of it.
    out[:e3] *= 0.5
    out[e4:e7] *= 0.5
    np.subtract(1.0, out[e4:e7], out=out[e4:e7])
    out[e7:] = np.nan
    return out


# Stirling-series corrections: five terms of 1/(12x) - 1/(360x^3) + ... from
# 16 on (Loader 2000), where the first omitted term is below 1e-16.
_STIRLERR_SERIES = (1 / 1188, -1 / 1680, 1 / 1260, -1 / 360, 1 / 12)
_LOG_SQRT_2PI = math.log(math.sqrt(2 * math.pi))


def stirlerr(x) -> np.ndarray:
    """s(x) = log Gamma(x + 1) - ((x + 1/2) log x - x + log sqrt(2 pi)) of
    real x > 0, as a float array (0-d for a scalar): that expression by libm
    below 16, the series from 16 on."""
    x = np.asarray(x, dtype=float)
    out = np.asarray(polevl(1.0 / (x * x), _STIRLERR_SERIES) / x)  # an array for 0-d x too
    small = x < 16
    out[small] = [math.lgamma(k + 1.0) - (k + 0.5) * math.log(k) + k - _LOG_SQRT_2PI
                  for k in x[small].tolist()]
    return out
