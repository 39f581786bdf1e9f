"""Seeded random streams shared by the simulation generators.

Gaussian draws go through the inverse-CDF method (standard-normal quantile
applied to PCG64 uniforms) instead of numpy's ziggurat sampler, so a stream is
fully pinned by (seed, stream label, draw order) and reproducible by any
implementation of the same named algorithm.  The quantile is Cephes `ndtri`
(S. L. Moshier, Methods and Programs for Mathematical Functions, 1989), ported
below with its coefficients and operation order, so every draw equals
scipy.special.ndtri's bit for bit.  Its tails take the natural log through
libm (math.log) element by element: numpy's SIMD log rounds some inputs
differently, and one ulp there changes a draw.
"""

from __future__ import annotations

import math

import numpy as np

# Stream labels keep independent purposes (GPS noise, odometry noise, ...)
# decorrelated under a single run seed.
GPS_STREAM = 1
ODOMETRY_STREAM = 2
TRAJECTORY_STREAM = 3
CLOUD_STREAM = 4

# Cephes ndtri: sqrt(2 pi), exp(-2), and the rational approximations, highest
# power first.  P0/Q0 cover 0 <= |y - 0.5| <= 3/8, P1/Q1 z = sqrt(-2 log y)
# from 2 to 8, P2/Q2 from 8 to 64.  The Q arrays carry the leading 1 that
# Cephes' p1evl implies; 1 * x is exact, so Horner's rule rounds alike.
_S2PI = 2.50662827463100050242e0
_EXP_M2 = 0.13533528323661269189
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x: np.ndarray, coef: tuple) -> np.ndarray:
    """Horner's rule over coef, highest power first."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _log(x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.log, x.tolist()), dtype=float, count=x.size)


def _ndtri(y0) -> np.ndarray | np.float64:
    """Standard normal quantile of each y0 in (0, 1), Cephes ndtri."""
    y0 = np.asarray(y0, dtype=float)
    if not np.all((y0 > 0.0) & (y0 < 1.0)):
        raise ValueError("ndtri needs every input in the open interval (0, 1)")
    flip = y0 > 1.0 - _EXP_M2
    y = np.where(flip, 1.0 - y0, y0)
    central = y > _EXP_M2
    out = np.empty_like(y)

    yc = y[central] - 0.5
    y2 = yc * yc
    x = yc + yc * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0))
    out[central] = x * _S2PI

    tail = ~central
    x = np.sqrt(-2.0 * _log(y[tail]))
    x0 = x - _log(x) / x
    z = 1.0 / x
    x1 = np.where(x < 8.0, z * _polevl(z, _P1) / _polevl(z, _Q1),
                  z * _polevl(z, _P2) / _polevl(z, _Q2))
    x = x0 - x1
    out[tail] = np.where(flip[tail], x, -x)
    return out[()]


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """PCG64 generator keyed by (seed, stream)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), int(stream)])))


def normal(rng: np.random.Generator, size=None) -> np.ndarray | float:
    """Standard normal draws via the inverse CDF of uniform variates."""
    u = rng.random(size)
    # random() can return exactly 0.0 where ndtri diverges; nudge into (0, 1).
    u = np.clip(u, 1e-300, None)
    return _ndtri(u)
