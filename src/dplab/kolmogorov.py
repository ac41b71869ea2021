"""Kolmogorov-Smirnov tail probabilities without scipy.

``kolmogorov_sf(n, d)`` is P(D_n >= d) for the two-sided one-sample
statistic of n observations from a continuous law.  It takes the branches of
Simard & L'Ecuyer (2011) as scipy's ``kstwo`` does: the Ruben-Gambino closed
forms at the two ends of the support, twice the one-sided Smirnov tail far
out, the Durbin matrix of Marsaglia, Tsang & Wang (2003) for small n (also
where scipy uses Pomeranz's recursion) and for small n*d^1.5, and the
Pelz-Good expansion otherwise.  Against ``kstwo.sf`` the relative gap is
below 1e-10 wherever the tail exceeds 1e-12.

``smirnov(n, d)``, the one-sided tail, is the Birnbaum-Tingey sum in a form
whose logarithms stay of size n*d; its cost is one vectorized pass over n
terms (about 0.04 s at n = 10^6 on a 2-core Xeon, where
scipy.special.smirnov takes 1.4 s).

``two_sample_sf(n, h)`` is P(D_{n,n} >= h/n) for two independent samples of
n each, by the exact lattice-path recursion of scipy's ``ks_2samp``, in the
same order of operations, so it returns scipy's value bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .special import stirlerr

# The Durbin matrix powers are rescaled by 2^128 to stay inside float range.
_SCALE_EXP = 128
_SCALE = 2.0**_SCALE_EXP

_SQRT2PI = math.sqrt(2 * math.pi)
# log 2 as fdlibm splits it: q * _LN2_HI is exact for q < 2^20.
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
_MIN_LOG = -708


def kolmogorov_sf(n: int, d: float) -> float:
    """P(D_n >= d) for the two-sided Kolmogorov-Smirnov statistic D_n of a
    sample of n; NaN for a NaN d."""
    if math.isnan(d):
        return d
    if d >= 1.0:
        return 0.0
    t = n * d
    if t <= 1.0:
        # Ruben-Gambino: P(D_n < d) = n!/n^n (2t - 1)^n for 1/2 <= t <= 1.
        # Beyond n = 140, n!/n^n < 1e-58, so the tail rounds to one.
        if t <= 0.5 or n > 140:
            return 1.0
        return 1.0 - float(np.prod(np.arange(1, n + 1) * (1.0 / n) * (2 * t - 1)))
    if t >= n - 1:  # Ruben-Gambino
        return min(2 * (1.0 - d) ** n, 1.0)
    nd2 = t * d
    far = nd2 > 4.0 if n <= 140 else nd2 >= 2.2
    if d >= 0.5 or far:
        if n > 140 and d < 0.5 and nd2 >= 370.0:
            return 0.0  # 2 exp(-2 n d^2) < 1e-320
        return min(2 * smirnov(n, d), 1.0)
    if n <= 140 or (n <= 100000 and n * d**1.5 <= 1.4):
        cdf = _durbin_cdf(n, d)
    else:
        cdf = _pelz_good_cdf(n, d)
    return float(np.clip(1.0 - cdf, 0.0, 1.0))


# smirnov sums its terms in runs of this many, so its scratch stays near 3 MiB.
_SMIRNOV_CHUNK = 1 << 16


def smirnov(n: int, d: float) -> float:
    """P(D_n^+ >= d), the one-sided tail of Smirnov (1944), for 0 < d < 1:
    the sum of Birnbaum & Tingey (1951),

        d sum_{j=0}^{n(1-d)} C(n, j) (1 - d - j/n)^(n-j) (d + j/n)^(j-1),

    as scipy.special.smirnov gives it, within 1e-10 relative wherever it
    exceeds 1e-12.  With t = n d, term j > 0 is written

        d n/(t + j) sqrt(n/(2 pi j (n-j)))
          exp(delta_j + (n-j) log1p(-t/(n-j)) + j log1p(t/j)),

    where delta_j = s(n) - s(j) - s(n-j) takes the Stirling corrections s of
    the binomial (Loader 2000); every logarithm is of size about t, not
    n log n.  Term 0 is (1 - d)^n.  All terms are summed, in runs of
    ``_SMIRNOV_CHUNK``: in the far tail nearly all of them contribute.
    """
    t = n * d
    s_n = stirlerr(float(n))
    jmax = math.ceil(n - t) - 1  # the last j with n - j - t > 0
    total = 0.0
    for lo in range(1, jmax + 1, _SMIRNOV_CHUNK):
        j = np.arange(float(lo), float(min(lo + _SMIRNOV_CHUNK, jmax + 1)))
        k = n - j
        terms = np.log1p(t / j)
        terms *= j
        u = np.log1p(-t / k)
        u *= k
        terms += u
        terms -= stirlerr(j)
        terms -= stirlerr(k)
        terms += s_n
        np.exp(terms, out=terms)
        k *= j
        np.divide(n / (2 * math.pi), k, out=k)
        np.sqrt(k, out=k)
        terms *= k
        j += t
        np.divide(n, j, out=j)
        terms *= j
        total += float(np.sum(terms))
    return math.exp(n * math.log1p(-d)) + d * total


def _durbin_cdf(n: int, d: float) -> float:
    """P(D_n < d) for 1 < n*d < n - 1: entry (k, k) of n!/n^n H^n, with
    n*d = k - h, 0 <= h < 1, and H the Durbin matrix of order 2k - 1."""
    k = math.ceil(n * d)
    h = k - n * d
    m = 2 * k - 1

    # Column 0 is v, row m-1 is v reversed, and H[i, j] = 1/(i - j + 1)! on
    # and below the superdiagonal.
    v = 1.0 - h ** np.arange(1, m + 1)
    w = np.empty(m)
    fac = 1.0
    for j in range(m):
        w[j] = fac
        fac /= j + 1
        v[j] *= fac
    tt = max(2 * h - 1.0, 0) ** m - 2 * h**m
    v[-1] = (1.0 + tt) * fac
    H = np.zeros((m, m))
    for i in range(1, m):
        H[i - 1 :, i] = w[: m - i + 1]
    H[:, 0] = v
    H[-1, :] = v[::-1]

    # H^n by squaring; H is divided by 2^128 whenever its centre exceeds it.
    # einsum calls no BLAS: OpenBLAS's threaded dgemm can stall at about
    # 16 ms per product of these small matrices, where einsum takes 2 ms at most.
    power = np.eye(m)
    expnt = 0  # power carries a factor 2^-expnt
    h_expnt = 0  # H carries a factor 2^-h_expnt
    nn = n
    while True:
        if nn % 2:
            power = np.einsum("ij,jk->ik", power, H)
            expnt += h_expnt
        nn //= 2
        if not nn:
            break
        H = np.einsum("ij,jk->ik", H, H)
        h_expnt *= 2
        if abs(H[k - 1, k - 1]) > _SCALE:
            H /= _SCALE
            h_expnt += _SCALE_EXP

    # Times n!/n^n = sqrt(2 pi n) e^(s(n) - n) (Stirling), which underflows
    # from n = 746 on: e^-n = 2^-q e^-r with n = q log 2 + r, the product
    # q log 2 split in two (as in fdlibm's exp), so no digit of n is lost.
    q = round(n / math.log(2))
    r = (n - q * _LN2_HI) - q * _LN2_LO
    fac = math.exp(float(stirlerr(float(n))) - r) * (_SQRT2PI * math.sqrt(n))
    return math.ldexp(float(power[k - 1, k - 1]) * fac, expnt - q)


def _pelz_good_cdf(n: int, d: float) -> float:
    """P(D_n <= d) by the Pelz-Good (1976) expansion in powers of n^-1/2 of
    the Li-Chien/Korolyuk series, with z = sqrt(n) d."""
    z = math.sqrt(n) * d
    z2, z3, z4, z6 = z**2, z**3, z**4, z**6
    qlog = -math.pi**2 / 8 / z2
    if qlog < _MIN_LOG:
        return 0.0
    q = math.exp(qlog)

    pi2, pi4, pi6 = math.pi**2, math.pi**4, math.pi**6
    k1a, k1b = -z2, pi2 / 4
    k2a = 6 * z6 + 2 * z4
    k2b = (2 * z4 - 5 * z2) * pi2 / 4
    k2c = pi4 * (1 - 2 * z2) / 16
    k3d = pi6 * (5 - 30 * z2) / 64
    k3c = pi4 * (-60 * z2 + 212 * z4) / 16
    k3b = pi2 * (135 * z4 - 96 * z6) / 4
    k3a = -30 * z6 - 90 * z**8

    # Horner in q over the odd integers m = 2k - 1 of sum c_m q^(m^2).
    terms = np.zeros(4)
    maxk = math.ceil(16 * z / math.pi)
    for k in range(maxk, 0, -1):
        m2 = (2 * k - 1) ** 2
        terms *= q ** (8 * k)
        terms += [
            1.0,
            k1a + k1b * m2,
            k2a + k2b * m2 + k2c * m2**2,
            k3a + k3b * m2 + k3c * m2**2 + k3d * m2**3,
        ]
    terms *= q
    terms *= _SQRT2PI
    terms /= [z, 6 * z4, 72 * z**7, 6480 * z**10]

    # The K2 and K3 terms over all integers k: sums of k^2 q'^(k^2).
    q = math.exp(-pi2 / 2 / z2)
    ks = np.arange(maxk, 0, -1)
    k2 = ks**2
    qk2 = q**k2
    terms[2] += np.sum(k2 * qk2) * (pi2 * _SQRT2PI / (-36 * z3))
    sqrt3z, kpi = math.sqrt(3) * z, math.pi * ks
    terms[3] += np.sum((sqrt3z + kpi) * (sqrt3z - kpi) * k2 * qk2) * (pi2 * _SQRT2PI / (216 * z6))
    return float(sum(terms / np.power(float(n), np.arange(4) / 2.0)))


def two_sample_sf(n: int, h: int) -> float:
    """P(D_{n,n} >= h/n), 1 <= h <= n, for two independent samples of n from
    one continuous law: the share of lattice paths that leave the band
    |x - y| < h, as 2 (A0 - A0 A1 + A0 A1 A2 - ...) with each ratio A_k of
    binomials a product of h simple factors."""
    tail = 0.0
    for k in range(n // h, -1, -1):
        p1 = 1.0
        for j in range(h):
            p1 = (n - k * h - j) * p1 / (n + k * h + j + 1)
        tail = p1 * (1.0 - tail)
    return 2 * tail
