"""Closed-form theory: variances, Fisher information, lower bounds, benchmarks.

Every function here is a pure closed-form (or quadrature-backed) expression;
nothing samples. Asymptotic formulas drop their vanishing correction terms
and are labeled asymptotic; exact formulas are exact for every finite
parameter value. The Monte Carlo layer compares against these, never the
other way around.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError, DomainError
from .linalg import invert
from .statmath import (geometric_entropy_inv, inverse_mills, phi, qfunc, qfunc_inv,
                       truncated_normal_moments)

__all__ = [
    "TheoryReport",
    "zhang_berger_variance",
    "zhang_berger_optimal",
    "fisher_scalar",
    "crossing_variance",
    "exact_threshold_variance",
    "threshold_for_budget",
    "fisher_yvec",
    "crlb_yvec",
    "fisher_xvec",
    "crlb_xvec",
    "stopping_second_moment",
    "stopping_moment_bracket",
    "quantization_loss_bound",
    "xvec_mse_bound",
    "unquantized_xvec_trace_bound",
    "laplace_theory",
    "pareto_theory",
    "pareto_unquantized_floor",
    "linear_baseline_trace",
]

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class TheoryReport:
    """Closed-form values for one scheme at one parameter point.

    ``theory_exact``, ``theory_asymptotic`` and ``theory_bound`` are the sweep
    row's theory columns; ``crlb_trace`` and ``fisher`` are set where the
    scheme has an information computation; ``bounds`` holds further labelled
    values. Absent values are None.
    """

    scheme: str
    k: float
    theory_exact: Optional[float] = None
    theory_asymptotic: Optional[float] = None
    theory_bound: Optional[float] = None
    crlb_trace: Optional[float] = None
    fisher: Optional[np.ndarray] = None
    bounds: tuple = ()

    def __post_init__(self):
        if self.theory_exact is not None and self.crlb_trace is not None:
            # Allow a hair of quadrature slack in the unbiased-estimator ordering.
            if self.theory_exact < self.crlb_trace * (1.0 - 1e-9):
                raise ConfigurationError(
                    f"exact variance {self.theory_exact} fell below the lower "
                    f"bound trace {self.crlb_trace}; the formulas disagree"
                )
        if self.theory_asymptotic is not None and not self.theory_asymptotic >= 0.0:
            raise ConfigurationError("asymptotic variance must be nonnegative")


def _check_rho(rho: float) -> float:
    rho = float(rho)
    if not -1.0 < rho < 1.0:
        raise DomainError(f"correlation must lie strictly inside (-1, 1), got {rho!r}")
    return rho


# ---------------------------------------------------------------------------
# Scalar benchmark and scalar schemes.


def zhang_berger_variance(rho: float, k: float, rate: float) -> float:
    """Random-coding benchmark variance at a given per-sample rate (vanishing term dropped)."""
    rho = float(rho)
    if not rate > 0.0:
        raise DomainError(f"rate must be positive, got {rate!r}")
    if not k > 0.0:
        raise DomainError(f"bit budget must be positive, got {k!r}")
    return (rate / k) * (1.0 + rho * rho + (1.0 - rho * rho) / (2.0 ** (2.0 * rate) - 1.0))


def zhang_berger_optimal(rho: float, k: float) -> float:
    """Zero-rate limit of the random-coding benchmark: (1 - rho^2)/(2 k ln 2)."""
    rho = float(rho)
    if not k > 0.0:
        raise DomainError(f"bit budget must be positive, got {k!r}")
    return (1.0 - rho * rho) / (2.0 * k * _LN2)


def fisher_scalar(rho: float, x_second: float) -> float:
    """Information about the correlation in (J, Y_J) when E[X_J^2] = ``x_second``.

    Given X = x, Y is normal with mean rho x and variance 1 - rho^2; the
    information is linear in x^2, so a selection rule enters only through
    the second moment of the X it selects (x^2 for an X pinned at x).
    """
    rho = _check_rho(rho)
    one = 1.0 - rho * rho
    return (one * x_second + 2.0 * rho * rho) / (one * one)


def crossing_variance(rho, x_var: float, norm: float) -> float:
    """Exact variance of Y_J / ``norm``, summed over the coordinates of ``rho``.

    Every scalar-selection estimator divides the Y read at the selected
    index J by a fixed normaliser, and every model it runs on has
    E[Y | X] = rho X and Var(Y | X) = 1 - rho^2. Each coordinate's variance is
    therefore (rho^2 Var(X_J) + 1 - rho^2) / norm^2, where ``x_var`` is
    Var(X_J) under the selection rule.
    """
    total = 0.0
    # Left to right on purpose: from Python 3.12 on, the built-in sum() of
    # floats compensates, and the bytes would depend on the interpreter.
    for r in np.asarray(rho, dtype=float).reshape(-1):
        r = _check_rho(r)
        total += (r * r * x_var + 1.0 - r * r) / (norm * norm)
    return total


def _plan_variance(plan) -> float:
    """:func:`crossing_variance` of a fixed-normaliser ``estimators.CrossingPlan``."""
    return crossing_variance(plan.truth, plan.model.tail_variance(plan.t), plan.norm)


def threshold_for_budget(k: float) -> float:
    """Crossing threshold whose index entropy equals the bit budget."""
    return qfunc_inv(geometric_entropy_inv(k))


def exact_threshold_variance(rho: float, t: float) -> float:
    """Exact variance of the Gaussian first-crossing estimator at threshold t."""
    mom = truncated_normal_moments(t)
    return crossing_variance(rho, mom.variance, mom.mean)


# ---------------------------------------------------------------------------
# Y-vector scheme.


def _yvec_noise(rho: np.ndarray, sigma_y: np.ndarray) -> np.ndarray:
    noise = sigma_y - np.outer(rho, rho)
    eigmin = float(np.linalg.eigvalsh(noise).min())
    if eigmin <= 0.0:
        raise DomainError(
            f"conditional noise covariance must be positive definite (smallest eigenvalue {eigmin:.3e})"
        )
    return noise


def fisher_yvec(rho: np.ndarray, sigma_y: np.ndarray, exj2: float) -> np.ndarray:
    """Fisher matrix for the shared-index vector scheme given E[X_J^2]."""
    rho = np.asarray(rho, dtype=float).reshape(-1)
    sigma_y = np.asarray(sigma_y, dtype=float)
    noise = _yvec_noise(rho, sigma_y)
    noise_inv = invert(noise)
    nr = noise_inv @ rho
    return noise_inv * (float(exj2) + float(rho @ nr)) + np.outer(nr, nr)


def crlb_yvec(rho: np.ndarray, sigma_y: np.ndarray, exj2: float) -> np.ndarray:
    """Closed-form inverse of the vector Fisher matrix (rank-one update identity)."""
    rho = np.asarray(rho, dtype=float).reshape(-1)
    sigma_y = np.asarray(sigma_y, dtype=float)
    noise = _yvec_noise(rho, sigma_y)
    nr = np.linalg.solve(noise, rho)
    quad = float(rho @ nr)
    c = float(exj2) + quad
    return (noise - np.outer(rho, rho) / (float(exj2) + 2.0 * quad)) / c


# ---------------------------------------------------------------------------
# X-vector scheme.


def stopping_second_moment(a: float, b: float, d: int) -> float:
    """Exact diagonal value of E[W W^T] for the stopping-set selection matrix.

    One coordinate per column is two-sided tail-conditioned beyond ``a``
    (second moment 1 + a*s(a)), the rest are truncated inside (-b, b); all
    cross terms vanish by sign symmetry, so E[W W^T] is this multiple of the
    identity.
    """
    if d < 1:
        raise DomainError(f"dimension must be at least 1, got {d!r}")
    strong = 1.0 + a * inverse_mills(a)
    if d == 1:
        return strong
    if b <= 0.0:
        raise DomainError("weak band must have positive width when d > 1")
    body = 1.0 - 2.0 * qfunc(b)
    weak = 1.0 - 2.0 * b * phi(b) / body
    return strong + (d - 1) * weak


def stopping_moment_bracket(a: float, b: float, d: int) -> tuple[float, float]:
    """Two-sided bracket for the inverse second moment of a selection row."""
    if not a > (d - 1) * b:
        raise DomainError(
            f"strong bound {a!r} must exceed (d-1) times the weak bound for the bracket to hold"
        )
    lower = 1.0 / (a * a + d + 1.0)
    upper = 1.0 / (a - (d - 1) * b) ** 2
    return lower, upper


def fisher_xvec(rho: np.ndarray, sigma_x: np.ndarray, alpha: float, sigma2: float,
                d: int) -> np.ndarray:
    """Fisher matrix for the stopping-set scheme with row second moment alpha."""
    rho = np.asarray(rho, dtype=float).reshape(-1)
    sigma_x = np.asarray(sigma_x, dtype=float)
    if rho.shape[0] != d or sigma_x.shape != (d, d):
        raise ConfigurationError("dimension argument disagrees with the vector inputs")
    if not sigma2 > 0.0:
        raise DomainError(f"conditional noise variance must be positive, got {sigma2!r}")
    sx_inv = invert(sigma_x)
    sr = sx_inv @ rho
    # Divide by sigma2 once at the end: at a degenerate pair (sigma2 near 0)
    # the information is then infinite instead of sigma2**2 underflowing to 0.
    with np.errstate(over="ignore"):
        return (alpha * sx_inv + np.outer(sr, sr) * (2.0 * d) / sigma2) / sigma2


def crlb_xvec(rho: np.ndarray, sigma_x: np.ndarray, alpha: float, sigma2: float,
              d: int) -> np.ndarray:
    """Closed-form inverse of the stopping-set Fisher matrix."""
    rho = np.asarray(rho, dtype=float).reshape(-1)
    sigma_x = np.asarray(sigma_x, dtype=float)
    if not sigma2 > 0.0:
        raise DomainError(f"conditional noise variance must be positive, got {sigma2!r}")
    denom = alpha * sigma2 + 2.0 * d * (1.0 - sigma2)
    return (sigma2 / alpha) * (sigma_x - (2.0 * d / denom) * np.outer(rho, rho))


def quantization_loss_bound(a: float, k_q: float, d: int) -> float:
    """Additive mean-squared-error penalty bound for midpoint matrix quantization."""
    if d < 1:
        raise DomainError(f"dimension must be at least 1, got {d!r}")
    return (2.0 * d) ** 6 * (math.exp(-a * a / 2.0) + 2.0 ** (-k_q))


def xvec_mse_bound(rho: np.ndarray, d: int, k: float) -> float:
    """Leading-order summed-error bound for the full vector scheme at budget k."""
    rho = np.asarray(rho, dtype=float).reshape(-1)
    if rho.shape[0] != d:
        raise ConfigurationError("dimension argument disagrees with the correlation vector")
    if not k > 0.0:
        raise DomainError(f"bit budget must be positive, got {k!r}")
    worst = float(np.min(1.0 - rho * rho))
    return (d * d / (2.0 * _LN2)) * worst / k


def unquantized_xvec_trace_bound(rho: np.ndarray, d: int, k_l: float) -> float:
    """Leading-order covariance-trace bound for the exact-matrix variant."""
    rho = np.asarray(rho, dtype=float).reshape(-1)
    worst = float(np.min(1.0 - rho * rho))
    return (d / (2.0 * _LN2)) * worst / k_l


# ---------------------------------------------------------------------------
# Non-Gaussian additive schemes.


def laplace_theory(rho: float, k: float) -> float:
    """Asymptotic variance of the first-crossing scheme under double-exponential X."""
    rho = _check_rho(rho)
    if not k > 0.0:
        raise DomainError(f"bit budget must be positive, got {k!r}")
    return (2.0 - rho * rho) / (_LN2 * k) ** 2


def pareto_theory(alpha: float, rho: float, k: float) -> tuple[float, float]:
    """Asymptotic error bound and budget exponent for the quantized heavy-tail scheme.

    Returns (bound, exponent) with bound = (1 + rho^2) * 2^(-exponent * k) and
    exponent = (2/alpha) * (alpha - 2)/(alpha - 1).
    """
    rho = float(rho)
    if not alpha > 2.0:
        raise DomainError(f"tail exponent must exceed 2, got {alpha!r}")
    if not k > 0.0:
        raise DomainError(f"bit budget must be positive, got {k!r}")
    exponent = (2.0 / alpha) * (alpha - 2.0) / (alpha - 1.0)
    return (1.0 + rho * rho) * 2.0 ** (-exponent * k), exponent


def pareto_unquantized_floor(alpha: float, rho: float) -> float:
    """Variance floor of the unquantized heavy-tail scheme as the budget grows."""
    rho = float(rho)
    if not alpha > 2.0:
        raise DomainError(f"tail exponent must exceed 2, got {alpha!r}")
    return rho * rho / (alpha * (alpha - 2.0))


# ---------------------------------------------------------------------------
# Linear-transform baseline.


def linear_baseline_trace(plan) -> float:
    """Exact covariance trace of the transform baseline of an ``estimators.LinearPlan``.

    The channels run on independent samples, so the trace is each channel's
    crossing variance weighted by the squared norm of its inverse-transform
    column.
    """
    trace = 0.0
    for i, channel in enumerate(plan.channels):
        trace += _plan_variance(channel) * float(plan.inv_mt[:, i] @ plan.inv_mt[:, i])
    return trace
