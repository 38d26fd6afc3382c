"""Survival function of the two-sided one-sample Kolmogorov-Smirnov
statistic, ``scipy.stats.kstwo.sf(d, n)`` bit for bit.

``sf`` computes 1 - CDF in-house where n > 140, 1 < n*d and
n*d**2 < 2.2, the body of the distribution at the sizes ``tune``
compares: with Durbin's matrix (Marsaglia, Tsang & Wang, J. Stat.
Softw. 8(18), 2003) where n <= 100000 and n*d**1.5 <= 1.4, and with
Pelz & Good's expansion (JRSS-B 38(2), 1976) elsewhere, the split of
Simard & L'Ecuyer (J. Stat. Softw. 39(11), 2011).  Everything else
(the upper tail, n <= 140, the edge cases) is left to scipy, imported
on first use.

The two algorithms are ported from scipy's ``scipy/stats/_ksstats.py``
(``_kolmogn_DMTW`` and ``_kolmogn_PelzGood``) with the same numpy calls
in the same order, long-double rescaling included, so that the results
carry the same bits, except where scipy's running power of Durbin's
matrix overflows (for some n above ~57,000): there it is rescaled as
well, and the p-value comes out near one where scipy returns 0.0.
The bit identity was checked against scipy
1.17.1's ``_ksstats``; scipy 1.10, the declared floor, is covered only
once its CI job runs.  ``_ksstats`` is private scipy code, so a later
scipy may change it: ``test_kstwo_sf_matches_scipy_bit_for_bit``
compares ``sf`` with the installed ``kstwo.sf`` and is the guard that
catches such a change.  That file is distributed under this notice:

    Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
    All rights reserved.

    Redistribution and use in source and binary forms, with or without
    modification, are permitted provided that the following conditions
    are met:

    1. Redistributions of source code must retain the above copyright
       notice, this list of conditions and the following disclaimer.

    2. Redistributions in binary form must reproduce the above
       copyright notice, this list of conditions and the following
       disclaimer in the documentation and/or other materials provided
       with the distribution.

    3. Neither the name of the copyright holder nor the names of its
       contributors may be used to endorse or promote products derived
       from this software without specific prior written permission.

    THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
    "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
    LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
    A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
    OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
    SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
    LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
    DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
    THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
    (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
    OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations

import numpy as np

_E128 = 128
_EP128 = np.ldexp(np.longdouble(1), _E128)
_EM128 = np.ldexp(np.longdouble(1), -_E128)

_SQRT2PI = np.sqrt(2 * np.pi)
_MIN_LOG = -708
_SQRT3 = np.sqrt(3)
_PI_SQUARED = np.pi ** 2
_PI_FOUR = np.pi ** 4
_PI_SIX = np.pi ** 6


def sf(d, n) -> float:
    """P(D_n >= d) for a sample of size n (an integral number)."""
    k = int(n)
    x = np.asarray(d, dtype=np.float64)  # scipy evaluates on a 0-d array too
    t = k * x
    # n > 140 and n*d**2 < 2.2 also give d < 0.5 and n*d < n - 1
    if not (k > 140 and t > 1.0 and t * x < 2.2):
        import scipy.stats  # slow to import; only the cases above need it

        return float(scipy.stats.kstwo.sf(d, n))
    if k <= 100000 and k * x**1.5 <= 1.4:
        cdf = _cdf_durbin(k, x)
    else:
        cdf = _cdf_pelz_good(k, x)
    return float(np.clip(1.0 - cdf, 0.0, 1.0))


def _cdf_durbin(n, d):
    """P(D_n <= d) as the k-th diagonal entry of (n!/n^n) H^n, with
    d = (k - h)/n and H of order 2k - 1."""
    nd = n * d
    k = int(np.ceil(nd))
    h = k - nd
    m = 2 * k - 1

    H = np.zeros([m, m])
    intm = np.arange(1, m + 1)
    v = 1.0 - h ** intm
    w = np.empty(m)
    fac = 1.0
    for j in intm:
        w[j - 1] = fac
        fac /= j
        v[j - 1] *= fac
    tt = max(2 * h - 1.0, 0)**m - 2*h**m
    v[-1] = (1.0 + tt) * fac
    for i in range(1, m):
        H[i - 1:, i] = w[:m - i + 1]
    H[:, 0] = v
    H[-1, :] = np.flip(v, axis=0)

    # H^n by repeated squaring, both factors rescaled by powers of 2**128.
    # scipy rescales only H, so Hpwr overflows for some n above ~57,000;
    # here Hpwr is rescaled too, but only where its product would
    # overflow, which keeps scipy's bits wherever scipy stays finite.
    Hpwr = np.eye(np.shape(H)[0])
    nn = n
    expnt = 0
    Hexpnt = 0
    while nn > 0:
        if nn % 2:
            with np.errstate(over="ignore", invalid="ignore"):
                prod = np.matmul(Hpwr, H)
            if not np.isfinite(prod).all():
                Hpwr /= _EP128
                expnt += _E128
                prod = np.matmul(Hpwr, H)
            Hpwr = prod
            expnt += Hexpnt
        H = np.matmul(H, H)
        Hexpnt *= 2
        if np.abs(H[k - 1, k - 1]) > _EP128:
            H /= _EP128
            Hexpnt += _E128
        nn = nn // 2

    p = Hpwr[k - 1, k - 1]
    for i in range(1, n + 1):
        p = i * p / n
        if np.abs(p) < _EM128:
            p *= _EP128  # p turns long double here, as in scipy
            expnt -= _E128
    if expnt != 0:
        p = np.ldexp(p, expnt)
    return np.clip(p, 0.0, 1.0)


def _cdf_pelz_good(n, x):
    """P(D_n <= x) by the Pelz-Good expansion in z = sqrt(n) x, whose
    theta-function sums are evaluated by a Horner scheme in q."""
    z = np.sqrt(n) * x
    zsquared, zthree, zfour, zsix = z**2, z**3, z**4, z**6

    qlog = -_PI_SQUARED / 8 / zsquared
    if qlog < _MIN_LOG:
        return 0.0
    q = np.exp(qlog)

    k1a = -zsquared
    k1b = _PI_SQUARED / 4

    k2a = 6 * zsix + 2 * zfour
    k2b = (2 * zfour - 5 * zsquared) * _PI_SQUARED / 4
    k2c = _PI_FOUR * (1 - 2 * zsquared) / 16

    k3d = _PI_SIX * (5 - 30 * zsquared) / 64
    k3c = _PI_FOUR * (-60 * zsquared + 212 * zfour) / 16
    k3b = _PI_SQUARED * (135 * zfour - 96 * zsix) / 4
    k3a = -30 * zsix - 90 * z**8

    K0to3 = np.zeros(4)
    maxk = int(np.ceil(16 * z / np.pi))
    for k in range(maxk, 0, -1):
        m = 2 * k - 1
        msquared, mfour, msix = m**2, m**4, m**6
        qpower = np.power(q, 8 * k)
        coeffs = np.array([1.0,
                           k1a + k1b*msquared,
                           k2a + k2b*msquared + k2c*mfour,
                           k3a + k3b*msquared + k3c*mfour + k3d*msix])
        K0to3 *= qpower
        K0to3 += coeffs
    K0to3 *= q
    K0to3 *= _SQRT2PI
    K0to3 /= np.array([z, 6 * zfour, 72 * z**7, 6480 * z**10])

    # the terms of K2 and K3 summed over all integers k
    q = np.exp(-_PI_SQUARED / 2 / zsquared)
    ks = np.arange(maxk, 0, -1)
    ksquared = ks ** 2
    sqrt3z = _SQRT3 * z
    kspi = np.pi * ks
    qpwers = q ** ksquared
    k2extra = np.sum(ksquared * qpwers)
    k2extra *= _PI_SQUARED * _SQRT2PI/(-36 * zthree)
    K0to3[2] += k2extra
    k3extra = np.sum((sqrt3z + kspi) * (sqrt3z - kspi) * ksquared * qpwers)
    k3extra *= _PI_SQUARED * _SQRT2PI/(216 * zsix)
    K0to3[3] += k3extra
    powers_of_n = np.power(n * 1.0, np.arange(len(K0to3)) / 2.0)
    K0to3 /= powers_of_n
    return sum(K0to3)
