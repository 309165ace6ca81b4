"""Scalar-normal special functions: tail, inverse tail, hazard, and extreme moments.

Everything here is deterministic closed-form or quadrature; no random numbers.
These primitives back the estimator normalizations and the closed-form
variance layer, so their accuracy budget is tighter than general-purpose
library defaults. Domain violations raise :class:`~corrlink.errors.DomainError`
rather than returning NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy import special

from .errors import ConfigurationError, DomainError

__all__ = [
    "phi",
    "qfunc",
    "qfunc_inv",
    "inverse_mills",
    "ThresholdMoments",
    "truncated_normal_moments",
    "geometric_entropy",
    "geometric_entropy_inv",
    "MaxMoments",
    "max_normal_moments",
]

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LN2 = math.log(2.0)

# Upper-tail probabilities underflow float64 near t = 37.6; the hazard series
# below takes over well before that point.
_MILLS_SERIES_CUTOFF = 37.0


def phi(x):
    """Standard normal density, vectorized over array input."""
    x = np.asarray(x, dtype=float)
    out = np.exp(-0.5 * x * x) / _SQRT_2PI
    return float(out) if out.ndim == 0 else out


def qfunc(x):
    """Standard normal upper-tail probability Pr(Z > x).

    Parameters
    ----------
    x : array_like
        Points at which to evaluate the tail. Any real value is accepted;
        results below roughly 1e-308 underflow to 0.

    Returns
    -------
    float or ndarray
        Tail probabilities, scalar for scalar input.
    """
    x = np.asarray(x, dtype=float)
    out = 0.5 * special.erfc(x / _SQRT2)
    return float(out) if out.ndim == 0 else out


def _qinv_unchecked(p, out=None):
    # Hot path used by the samplers; caller guarantees p in (0, 1). Works in
    # one array (``out``, which may be ``p``) rather than three temporaries.
    out = np.multiply(p, 2.0, out=out, dtype=float)
    if out.ndim == 0:
        return _SQRT2 * special.erfcinv(out)
    special.erfcinv(out, out=out)
    return np.multiply(out, _SQRT2, out=out)


def qfunc_inv(p):
    """Inverse of :func:`qfunc` on the open interval (0, 1).

    Parameters
    ----------
    p : array_like
        Tail probabilities, all strictly inside (0, 1).

    Returns
    -------
    float or ndarray
        The point whose upper-tail probability is ``p``.

    Raises
    ------
    DomainError
        If any entry lies outside (0, 1).
    """
    arr = np.asarray(p, dtype=float)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise DomainError(f"tail probability must lie in (0, 1), got {p!r}")
    out = _qinv_unchecked(arr)
    return float(out) if out.ndim == 0 else out


def inverse_mills(t: float) -> float:
    """Normal hazard ratio phi(t) / Q(t), the mean of the tail beyond ``t``.

    Accurate over the whole real line. For large ``t`` the ratio of two
    underflowing quantities is replaced by a divergent-series evaluation in
    powers of 1/t^2, truncated where its terms start growing; the switchover
    sits far below the region where the series error matters.

    Parameters
    ----------
    t : float
        Tail cutoff.

    Returns
    -------
    float
        E[Z | Z > t] for standard normal Z. Always >= max(t, 0); tends to 0
        as t -> -inf and to t + 1/t as t -> +inf.
    """
    t = float(t)
    if not math.isfinite(t):
        raise DomainError(f"tail cutoff must be finite, got {t!r}")
    if t > _MILLS_SERIES_CUTOFF:
        # 1/s = (1/t)(1 - 1/t^2 + 3/t^4 - 15/t^6 + 105/t^8 - ...), nested.
        r = 1.0 / t
        r2 = r * r
        recip = r * (1.0 - r2 * (1.0 - r2 * (3.0 - r2 * (15.0 - 105.0 * r2))))
        return 1.0 / recip
    return float(phi(t) / qfunc(t))


@dataclass(frozen=True)
class ThresholdMoments:
    """Conditional moments of a standard normal given exceedance of a threshold."""

    threshold: float
    mean: float
    second_moment: float
    variance: float


def truncated_normal_moments(t: float) -> ThresholdMoments:
    """Moments of Z | Z > t for standard normal Z.

    Uses the identities mean = s(t), E[Z^2 | Z > t] = 1 + t s(t), and
    variance = 1 - s(t) (s(t) - t). The variance expression loses all
    precision by t ~ 1e2 (it is O(1/t^2) computed as a difference of O(1)
    terms), so beyond that it switches to the two-term tail expansion
    1/t^2 - 6/t^4, whose relative error there is below 1e-7.
    """
    t = float(t)
    s = inverse_mills(t)
    second = 1.0 + t * s
    if t >= 100.0:
        var = (1.0 - 6.0 / (t * t)) / (t * t)
    else:
        var = 1.0 - s * (s - t)
    return ThresholdMoments(threshold=t, mean=s, second_moment=second, variance=var)


def geometric_entropy(p: float) -> float:
    """Entropy in bits of a geometric law divided by its success probability.

    This is the expected description length of the first success index when
    the index is entropy-coded: h(p)/p with h the binary entropy. Equals 2
    at p = 1/2 and grows without bound as p -> 0; strictly decreasing on
    (0, 1).

    Parameters
    ----------
    p : float
        Success probability, in (0, 1].

    Returns
    -------
    float
        h(p)/p in bits. Returns 0.0 at p = 1.
    """
    p = float(p)
    if not 0.0 < p <= 1.0:
        raise DomainError(f"success probability must lie in (0, 1], got {p!r}")
    if p == 1.0:
        return 0.0
    # h(p)/p = -log2(p) - (1-p) log2(1-p) / p, with log1p for the 1-p factor.
    return -math.log2(p) - (1.0 - p) * math.log1p(-p) / (p * _LN2)


_BRENT_RTOL = 4.0 * np.finfo(float).eps
_BRENT_MAXITER = 100


def _brentq(f, xa: float, xb: float, xtol: float) -> float:
    """Brent's (1973) bracketing root finder, a port of scipy's ``brentq.c``.

    Same defaults (rtol = 4 eps, 100 iterations) and the same floating-point
    operations in the same order, so the returned root equals
    ``scipy.optimize.brentq(f, xa, xb, xtol=xtol)`` bit for bit; the budget
    inversion's output bytes depend on it. Porting it keeps ``scipy.optimize``
    out of the import path.
    """
    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre = f(xpre)
    fcur = f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise DomainError("root finder: f(a) and f(b) must have different signs")
    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # Secant step.
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # Inverse quadratic interpolation.
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre = scur
                scur = stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise DomainError(f"root finder did not converge in {_BRENT_MAXITER} iterations")


def geometric_entropy_inv(k: float) -> float:
    """Invert :func:`geometric_entropy` on its decreasing branch.

    Finds the p in (0, 1) with h(p)/p = k. Root-finding runs on u = ln p to
    keep the bracket well-scaled for the huge-k regime (p down to ~1e-300),
    then two Newton corrections polish to full float64 accuracy.

    Parameters
    ----------
    k : float
        Bit budget, must be positive. Budgets beyond ~998 bits (the entropy
        at p = 1e-300) would need p below the float64 range and are rejected.

    Returns
    -------
    float
        The unique p with geometric_entropy(p) == k.
    """
    return _geometric_entropy_inv_cached(float(k))


@lru_cache(maxsize=256)
def _geometric_entropy_inv_cached(k: float) -> float:
    if not k > 0.0:
        raise DomainError(f"bit budget must be positive, got {k!r}")
    if k > geometric_entropy(1e-300):
        raise DomainError(f"bit budget {k!r} needs a success probability below float64 range")
    lo = math.log(1e-300)
    hi = math.log1p(-1e-12)
    if k <= geometric_entropy(math.exp(hi)):
        # Budget below ~4.1e-11 bits; the root sits against the p = 1 endpoint.
        return math.exp(hi)
    u = _brentq(lambda v: geometric_entropy(math.exp(v)) - k, lo, hi, xtol=1e-12)
    for _ in range(2):
        # Newton in u = ln p; the slope log1p(-p)/(ln2 * p) stays order-one
        # for tiny p where the p-space derivative would underflow.
        p = math.exp(u)
        slope = math.log1p(-p) / (_LN2 * p)
        u -= (geometric_entropy(p) - k) / slope
    return math.exp(u)


class MaxMoments(NamedTuple):
    """First and second moments of the maximum of n iid standard normals."""

    mean: float
    second_moment: float
    variance: float


# The largest max budget: past 2^924 samples the maximum's mass moves beyond the
# top of the quadrature window below, which is pinned at Q^-1(5e-300).
_MAX_BUDGET = 924


def _max_block(k) -> float:
    """2^k, the max scheme's block size; a fractional k is no whole block."""
    if not (1 <= k <= _MAX_BUDGET and float(k).is_integer()):
        raise ConfigurationError(f"max needs an integer budget of 1 to {_MAX_BUDGET} bits, got {k!r}")
    return 2.0 ** int(k)


@lru_cache(maxsize=256)
def _max_normal_moments_cached(n: float) -> MaxMoments:
    # Imported here: only the max scheme's theory needs quadrature, and
    # scipy.integrate pulls scipy.optimize in with it.
    from scipy import integrate

    ln_n = math.log(n)

    def log_density(x: float) -> float:
        q = qfunc(x)
        if x >= 0.0:
            log_cdf = math.log1p(-q)
        else:
            # CDF(x) = Q(-x) keeps full precision in the lower tail.
            qq = qfunc(-x)
            if qq <= 0.0:
                return -math.inf
            log_cdf = math.log(qq)
        return ln_n - 0.5 * x * x - math.log(_SQRT_2PI) + (n - 1.0) * log_cdf

    # Integration window: all mass outside contributes < 1e-20 to either moment.
    lo = qfunc_inv(min(1.0 - 1e-9, 45.0 / n))
    hi = qfunc_inv(max(5e-300, min(0.5, 1e-21 / n)))

    def moment(power: int) -> float:
        val, _ = integrate.quad(
            lambda x: (x**power) * math.exp(log_density(x)), lo, hi, limit=200
        )
        return val

    m1 = moment(1)
    m2 = moment(2)
    return MaxMoments(mean=m1, second_moment=m2, variance=m2 - m1 * m1)


def max_normal_moments(n: float) -> MaxMoments:
    """Moments of max(Z_1, ..., Z_n) for iid standard normals, 2 <= n <= 2^924.

    Computed by log-space quadrature of the extreme-value density
    n phi(x) CDF(x)^(n-1) over a window that carries all but ~1e-20 of the
    mass, so ``n`` may be astronomically large (e.g. 2^200) without overflow.
    Results are cached; ``n`` need not be an integer.

    Returns
    -------
    MaxMoments
        mean, second_moment, variance of the maximum.
    """
    n = float(n)
    if not 2.0 <= n <= 2.0**_MAX_BUDGET:
        raise ConfigurationError(
            f"need 2 to 2^{_MAX_BUDGET} samples for a maximum (a max budget of at most "
            f"{_MAX_BUDGET} bits), got {n!r}")
    return _max_normal_moments_cached(n)
