"""Chi-squared spoofing detection on window GPS residuals.

The test statistic is the sum of squared sigma-normalized GPS residuals at
the window optimum.  Under nominal noise it is (approximately) centrally
chi-squared with one degree of freedom per pseudorange, so the detection
threshold is the (1 - ALPHA) quantile for the number of residuals actually
present in the window; the false-alarm probability ALPHA is one constant.
The quantile function is implemented from scratch on top of the regularized
lower incomplete gamma so it can be checked against an independent oracle.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Optional, Tuple, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .solver import WindowGraph

# False-alarm probability of one detection trial.
ALPHA = 1e-3

# Absolute tolerance on the CDF value when inverting (not on the quantile).
_CDF_TOLERANCE = 1e-10
_MAX_ITERATIONS = 200


def test_statistic(graph: "WindowGraph") -> Optional[Tuple[float, int]]:
    """Return (q, n) over the window's GPS residuals, or None if it has none.

    The caller is expected to have optimized the graph first; residuals are
    evaluated at the current estimates.  A window without GPS cannot be
    tested, which is distinct from a window that passes with q = 0.
    """
    residuals, sigma = graph.gps_residuals()
    if residuals.size == 0:
        return None
    normalized = residuals / sigma
    return float(normalized @ normalized), int(residuals.size)


def _gamma_p_series(a: float, x: float) -> float:
    # Lower-tail power series, effective for x < a + 1.
    term = 1.0 / a
    total = term
    denom = a
    for _ in range(_MAX_ITERATIONS):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * 1e-16:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gamma_q_continued_fraction(a: float, x: float) -> float:
    # Upper-tail Lentz continued fraction, effective for x >= a + 1.
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b if b != 0.0 else 1.0 / tiny
    h = d
    for i in range(1, _MAX_ITERATIONS + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _chi2_cdf(x: float, n: int) -> float:
    """Regularized lower incomplete gamma P(n/2, x/2)."""
    if x <= 0.0:
        return 0.0
    a = n / 2.0
    half = x / 2.0
    if half < a + 1.0:
        return _gamma_p_series(a, half)
    return 1.0 - _gamma_q_continued_fraction(a, half)


def _chi2_pdf(x: float, n: int) -> float:
    if x <= 0.0:
        return 0.0
    a = n / 2.0
    return math.exp((a - 1.0) * math.log(x) - x / 2.0
                    - a * math.log(2.0) - math.lgamma(a))


def chi2_inverse_cdf(p: float, n: int) -> float:
    """Quantile of the central chi-squared distribution with n dof.

    Bisection with Newton polish on the CDF; terminates when the CDF at the
    iterate is within 1e-10 of p.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability must be in (0, 1), got {p}")
    if n < 1 or int(n) != n:
        raise ValueError(f"degrees of freedom must be a positive integer, got {n}")
    n = int(n)

    lo = 0.0
    hi = n + 40.0 * math.sqrt(n)
    while _chi2_cdf(hi, n) < p:  # defensive; the bracket covers practical p
        hi *= 2.0
    x = 0.5 * (lo + hi)
    for _ in range(_MAX_ITERATIONS):
        err = _chi2_cdf(x, n) - p
        if abs(err) <= _CDF_TOLERANCE:
            return x
        if err < 0.0:
            lo = x
        else:
            hi = x
        slope = _chi2_pdf(x, n)
        if slope > 0.0:
            candidate = x - err / slope
            if lo < candidate < hi:
                x = candidate
                continue
        x = 0.5 * (lo + hi)
    return x


@lru_cache(maxsize=None)
def threshold(n: int) -> float:
    """Detection threshold: the (1 - ALPHA) chi-squared quantile for n dof."""
    if n < 1:
        raise ValueError(f"need at least one residual, got n={n}")
    return chi2_inverse_cdf(1.0 - ALPHA, n)


def decide(q: float, tau: float, latched: bool, monitoring: bool = True) -> str:
    """Decision of one detection trial.

    Strict comparison: q == tau is authentic.  A latched run reports
    spoof-detected regardless of q; the caller holds the latch and sets it
    from the decision.  With ``monitoring=False`` (authentication trust
    window) a crossing does not detect.  The caller keeps the trial log.
    """
    return "spoof-detected" if latched or (monitoring and q > tau) else "authentic"


def mitigate(graph: "WindowGraph") -> "WindowGraph":
    """Drop the window's GPS and coast: strip_gps dead-reckons it to its
    optimum, unsolved.  A window without GPS is returned unchanged."""
    return graph.strip_gps() if graph.gps_count() else graph
