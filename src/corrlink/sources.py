"""Seeded samplers for every joint law the estimators consume.

Two layers live here. The marginal laws expose tail probabilities, tail
quantiles, and conditional tail moments; every variate in the package is
produced by inverse-CDF transform of open uniforms so that streams are
reproducible across platforms from the seed alone. The joint models combine
marginals into (X, Y) pairs with known ground-truth correlation and own
their sampling: plain pair draws, the crossing probability, X | X > t, and
Y given X. The crossing helpers at the bottom draw "first sample beyond a
threshold" events by an exact distribution-equivalent shortcut (geometric
index plus conditional tail draw) that makes tiny crossing probabilities
affordable, and ``walk_first_hit`` finds first hits literally, row by row of
a model's own draws, for any hit rule: it is the oracle the shortcuts are
tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional, Union

import numpy as np

from .errors import ConfigurationError, DomainError
from .linalg import CorrelationMatrix, _row_sums, sym_inv_sqrt, sym_sqrt
from .statmath import (
    _qinv_unchecked,
    inverse_mills,
    qfunc,
    truncated_normal_moments,
)

__all__ = [
    "StdNormal",
    "UnitLaplace",
    "ParetoTwoSided",
    "UnitUniform",
    "Rademacher",
    "GaussianScalar",
    "GaussianYVec",
    "GaussianXVec",
    "AdditiveNoise",
    "DoublySymmetricBinary",
    "BlockAveraged",
    "JointModel",
    "MarginalLaw",
    "substream",
    "normal_from_uniform",
    "CrossingBatch",
    "draw_first_crossing",
    "walk_first_hit",
]

_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)

_MIN_UNIFORM = 2.0**-53


def substream(master_seed: int, index: int) -> np.random.Generator:
    """Independent generator number ``index`` derived from a master seed.

    Counter-based keying: the pair (master_seed, index) is the generator key,
    so any worker can construct its stream without coordination and the
    result never depends on scheduling order.
    """
    key = np.array([np.uint64(master_seed & (2**64 - 1)), np.uint64(index & (2**64 - 1))])
    return np.random.Generator(np.random.Philox(key=key))


def _open_uniform(rng: np.random.Generator, size=None, out=None) -> np.ndarray:
    u = rng.random(size, out=out)
    # rng.random can return exactly 0; the quantile transforms need (0, 1).
    # Its draws are multiples of 2^-53, so the clamp moves only exact zeros.
    return np.maximum(u, _MIN_UNIFORM, out=u)


def normal_from_uniform(rng: np.random.Generator, size) -> np.ndarray:
    """Standard normals by inverse tail transform of open uniforms."""
    u = _open_uniform(rng, size)
    return _qinv_unchecked(u, out=u)


# ---------------------------------------------------------------------------
# Marginal laws: zero mean, unit variance.


class _TailLaw:
    """Draws by inverting the upper tail at open uniforms."""

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        return self.tail_quantile(_open_uniform(rng, size))


@dataclass(frozen=True)
class StdNormal:
    """Standard normal marginal."""

    name = "normal"
    support_upper = math.inf

    def tail_prob(self, x):
        return qfunc(x)

    def tail_quantile(self, p):
        return _qinv_unchecked(p)

    def tail_mean(self, t: float) -> float:
        return inverse_mills(t)

    def tail_variance(self, t: float) -> float:
        return truncated_normal_moments(t).variance

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        return normal_from_uniform(rng, size)


@dataclass(frozen=True)
class UnitLaplace(_TailLaw):
    """Symmetric exponential with unit variance: Pr(X > x) = exp(-sqrt(2) x)/2 for x >= 0."""

    name = "laplace"
    support_upper = math.inf

    def tail_prob(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x >= 0.0, 0.5 * np.exp(-_SQRT2 * x), 1.0 - 0.5 * np.exp(_SQRT2 * x))
        return float(out) if out.ndim == 0 else out

    def tail_quantile(self, p):
        p = np.asarray(p, dtype=float)
        upper = -np.log(2.0 * p) / _SQRT2
        lower = np.log(2.0 * (1.0 - p)) / _SQRT2
        out = np.where(p <= 0.5, upper, lower)
        return float(out) if out.ndim == 0 else out

    def tail_mean(self, t: float) -> float:
        t = float(t)
        if t >= 0.0:
            # Memoryless beyond the origin.
            return t + 1.0 / _SQRT2
        partial = 0.5 * math.exp(_SQRT2 * t) * (-t + 1.0 / _SQRT2)
        return partial / self.tail_prob(t)

    def tail_variance(self, t: float) -> float:
        t = float(t)
        if t >= 0.0:
            return 0.5
        s = -t
        partial_sq = 1.0 - 0.5 * math.exp(-_SQRT2 * s) * ((s + 1.0 / _SQRT2) ** 2 + 0.5)
        mean = self.tail_mean(t)
        return partial_sq / self.tail_prob(t) - mean * mean


@dataclass(frozen=True)
class ParetoTwoSided(_TailLaw):
    """Symmetric power-law tails Pr(|X| > x) = (x0/x)^alpha, no mass inside (-x0, x0).

    Unit variance forces x0 = sqrt((alpha - 2)/alpha); alpha must exceed 2 for
    the variance to exist at all.
    """

    alpha: float
    name = "pareto"
    support_upper = math.inf

    def __post_init__(self):
        if not self.alpha > 2.0:
            raise ConfigurationError(
                f"two-sided power law needs tail exponent > 2 for unit variance, got {self.alpha!r}"
            )

    @property
    def x0(self) -> float:
        return math.sqrt((self.alpha - 2.0) / self.alpha)

    def tail_prob(self, x):
        x = np.asarray(x, dtype=float)
        a = self.alpha
        x0 = self.x0
        out = np.where(
            x >= x0,
            0.5 * (x0 / np.maximum(x, x0)) ** a,
            np.where(x > -x0, 0.5, 1.0 - 0.5 * (x0 / np.maximum(-x, x0)) ** a),
        )
        return float(out) if out.ndim == 0 else out

    def tail_quantile(self, p):
        p = np.asarray(p, dtype=float)
        a = self.alpha
        x0 = self.x0
        upper = x0 * (2.0 * p) ** (-1.0 / a)
        lower = -x0 * (2.0 * (1.0 - p)) ** (-1.0 / a)
        out = np.where(p <= 0.5, upper, lower)
        return float(out) if out.ndim == 0 else out

    def tail_mean(self, t: float) -> float:
        t = float(t)
        a = self.alpha
        x0 = self.x0
        if t >= x0:
            return a * t / (a - 1.0)
        pos_part = a * x0 / (2.0 * (a - 1.0))
        if t > -x0:
            return pos_part / 0.5
        neg_part = -pos_part * (1.0 - (x0 / -t) ** (a - 1.0))
        return (pos_part + neg_part) / self.tail_prob(t)

    def tail_variance(self, t: float) -> float:
        t = float(t)
        a = self.alpha
        x0 = self.x0
        mean = self.tail_mean(t)
        if t >= x0:
            return a * t * t / ((a - 1.0) ** 2 * (a - 2.0))
        if t > -x0:
            second = 1.0
        else:
            second = (1.0 - 0.5 * (x0 / -t) ** (a - 2.0)) / self.tail_prob(t)
        return second - mean * mean


@dataclass(frozen=True)
class UnitUniform(_TailLaw):
    """Uniform on [-sqrt(3), sqrt(3)]."""

    name = "uniform"
    support_upper = _SQRT3

    def tail_prob(self, x):
        x = np.asarray(x, dtype=float)
        out = np.clip((_SQRT3 - x) / (2.0 * _SQRT3), 0.0, 1.0)
        return float(out) if out.ndim == 0 else out

    def tail_quantile(self, p):
        p = np.asarray(p, dtype=float)
        out = _SQRT3 * (1.0 - 2.0 * p)
        return float(out) if out.ndim == 0 else out

    def tail_mean(self, t: float) -> float:
        t = float(t)
        if t >= _SQRT3:
            raise DomainError(f"no mass above {t!r} for the bounded uniform law")
        return (max(t, -_SQRT3) + _SQRT3) / 2.0

    def tail_variance(self, t: float) -> float:
        t = float(t)
        if t >= _SQRT3:
            raise DomainError(f"no mass above {t!r} for the bounded uniform law")
        return (_SQRT3 - max(t, -_SQRT3)) ** 2 / 12.0


@dataclass(frozen=True)
class Rademacher(_TailLaw):
    """Fair signs: +1 or -1 with equal probability."""

    name = "rademacher"
    support_upper = 1.0

    def tail_prob(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x >= 1.0, 0.0, np.where(x >= -1.0, 0.5, 1.0))
        return float(out) if out.ndim == 0 else out

    def tail_quantile(self, p):
        p = np.asarray(p, dtype=float)
        out = np.where(p <= 0.5, 1.0, -1.0)
        return float(out) if out.ndim == 0 else out

    def tail_mean(self, t: float) -> float:
        t = float(t)
        if t >= 1.0:
            raise DomainError(f"no mass above {t!r} for the sign law")
        return 1.0 if t >= -1.0 else 0.0

    def tail_variance(self, t: float) -> float:
        t = float(t)
        if t >= 1.0:
            raise DomainError(f"no mass above {t!r} for the sign law")
        return 0.0 if t >= -1.0 else 1.0


MarginalLaw = Union[StdNormal, UnitLaplace, ParetoTwoSided, UnitUniform, Rademacher]


# ---------------------------------------------------------------------------
# Joint models.


class JointModel:
    """Behaviour every joint (X, Y) model shares; each model overrides what it knows.

    Every model draws plain pairs with ``draw_pairs(rng, n)``. Models whose
    X law has a closed-form upper tail also provide ``crossing_prob(t)``
    (Pr(X > t)), ``tail_x(t, p, rng, n)`` (draws of X | X > t, given
    p = Pr(X > t)) and ``y_given_x``, which together drive the first-crossing
    shortcut, and ``tail_variance(t)`` (Var(X | X > t)), which the exact
    variance of a crossing estimator needs; the rest report a crossing
    probability of None and can only be walked literally
    (``walk_first_hit``). ``y_given_x`` never writes to x.
    """

    x_support_upper = math.inf

    def true_correlations(self) -> np.ndarray:
        """Ground-truth correlation vector of the model, for error measurement."""
        return np.array(self.rho, dtype=float, ndmin=1)

    def crossing_prob(self, t: float) -> Optional[float]:
        """Pr(X > t), or None when no closed form is known."""
        return None

    def block_law(self, m: int):
        """Exact crossing law of the block average of ``m`` pairs, or None if unknown."""
        return None


class _ScalarX(JointModel):
    """Models with scalar X drawn from the marginal law ``x_law``.

    Crossing probabilities, tail draws and plain draws all come from the
    law; each model supplies only ``y_given_x``.
    """

    @property
    def x_support_upper(self) -> float:
        return self.x_law.support_upper

    def crossing_prob(self, t: float) -> float:
        return float(self.x_law.tail_prob(float(t)))

    def tail_x(self, t: float, p: float, rng: np.random.Generator, n: int) -> np.ndarray:
        u = _open_uniform(rng, n)
        u *= p
        return self.x_law.tail_quantile(u)

    def tail_variance(self, t: float) -> float:
        return self.x_law.tail_variance(t)

    def draw_pairs(self, rng: np.random.Generator, n: int):
        x = self.x_law.sample(rng, n)
        return x, self.y_given_x(x, rng)


class _LinearPair(_ScalarX):
    """Y = rho X + sqrt(1 - rho^2) Z with Z drawn from ``z_law``."""

    def y_given_x(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        # s z + rho x in z's own buffer; IEEE addition commutes, so these are
        # the bits of rho x + s z.
        y = self.z_law.sample(rng, x.shape[0])
        y *= math.sqrt(1.0 - self.rho**2)
        y += self.rho * x
        return y


def _check_rho_scalar(rho: float) -> float:
    rho = float(rho)
    if not abs(rho) <= 1.0:
        raise ConfigurationError(f"correlation must lie in [-1, 1], got {rho!r}")
    return rho


@dataclass(frozen=True)
class GaussianScalar(_LinearPair):
    """Bivariate normal pair with unit marginals and correlation ``rho``."""

    rho: float
    x_law = StdNormal()
    z_law = StdNormal()

    def __post_init__(self):
        object.__setattr__(self, "rho", _check_rho_scalar(self.rho))

    def block_law(self, m: int) -> GaussianScalar:
        # Block averages of a bivariate normal pair are the same bivariate normal.
        return self


@dataclass(frozen=True)
class GaussianYVec(_ScalarX):
    """Scalar X against a d-vector Y with per-coordinate correlations ``rho``.

    The Y side has correlation matrix ``sigma_y``; the residual covariance
    sigma_y - rho rho^T must be positive semidefinite for the model to exist.
    """

    rho: np.ndarray = field(repr=True)
    sigma_y: CorrelationMatrix = field(repr=False)
    x_law = StdNormal()

    def __post_init__(self):
        rho = np.array(self.rho, dtype=float).reshape(-1)
        if np.any(np.abs(rho) > 1.0):
            raise ConfigurationError("every correlation entry must lie in [-1, 1]")
        if rho.size != self.sigma_y.dim:
            raise ConfigurationError(
                f"correlation vector length {rho.size} does not match matrix dim {self.sigma_y.dim}"
            )
        resid = self.sigma_y.values - np.outer(rho, rho)
        vals, vecs = np.linalg.eigh(resid)
        if vals[0] < -1e-10:
            raise ConfigurationError(
                f"residual Y covariance not positive semidefinite (eigenvalue {vals[0]:.3e})"
            )
        noise_sqrt = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T
        rho.setflags(write=False)
        noise_sqrt.setflags(write=False)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "_noise_sqrt", noise_sqrt)

    @property
    def dim(self) -> int:
        return self.rho.size

    def y_given_x(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        y = normal_from_uniform(rng, (x.shape[0], self.dim)) @ self._noise_sqrt
        y += x[:, None] * self.rho
        return y


@dataclass(frozen=True)
class GaussianXVec(JointModel):
    """d-vector X with correlation matrix ``sigma_x`` against a scalar Y.

    Coordinate correlations are ``rho``; the conditional noise variance
    1 - rho sigma_x^{-1} rho^T must be nonnegative.
    """

    rho: np.ndarray = field(repr=True)
    sigma_x: CorrelationMatrix = field(repr=False)

    def __post_init__(self):
        rho = np.array(self.rho, dtype=float).reshape(-1)
        if np.any(np.abs(rho) > 1.0):
            raise ConfigurationError("every correlation entry must lie in [-1, 1]")
        if rho.size != self.sigma_x.dim:
            raise ConfigurationError(
                f"correlation vector length {rho.size} does not match matrix dim {self.sigma_x.dim}"
            )
        w = np.linalg.solve(self.sigma_x.values, rho)
        sigma2 = 1.0 - float(rho @ w)
        if sigma2 < -1e-10:
            raise ConfigurationError(
                f"conditional noise variance {sigma2:.3e} is negative; correlations incompatible"
            )
        sigma2 = max(sigma2, 0.0)
        sqrt_sx = sym_sqrt(self.sigma_x.values)
        inv_sqrt_sx = sym_inv_sqrt(self.sigma_x.values)
        whitened_rho = inv_sqrt_sx @ rho
        for arr in (rho, sqrt_sx, inv_sqrt_sx, whitened_rho):
            arr.setflags(write=False)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "noise_var", sigma2)
        object.__setattr__(self, "sqrt_sigma_x", sqrt_sx)
        object.__setattr__(self, "inv_sqrt_sigma_x", inv_sqrt_sx)
        object.__setattr__(self, "whitened_rho", whitened_rho)

    @property
    def dim(self) -> int:
        return self.rho.size

    def draw_whitened(self, rng: np.random.Generator, n: int):
        """``n`` (whitened X vector, scalar Y) pairs: the selection protocol's view."""
        w = normal_from_uniform(rng, (n, self.dim))
        y = w @ self.whitened_rho + math.sqrt(self.noise_var) * normal_from_uniform(rng, n)
        return w, y

    def draw_pairs(self, rng: np.random.Generator, n: int):
        w, y = self.draw_whitened(rng, n)
        return w @ self.sqrt_sigma_x, y


@dataclass(frozen=True)
class AdditiveNoise(_LinearPair):
    """Y = rho X + sqrt(1 - rho^2) Z with X, Z independent unit-variance laws."""

    rho: float
    x_law: MarginalLaw
    z_law: MarginalLaw

    def __post_init__(self):
        object.__setattr__(self, "rho", _check_rho_scalar(self.rho))


@dataclass(frozen=True)
class DoublySymmetricBinary(_ScalarX):
    """Centered fair signs where Y flips the sign of X with probability ``flip_prob``.

    The induced correlation is 1 - 2 flip_prob.
    """

    flip_prob: float
    x_law = Rademacher()

    def __post_init__(self):
        p = float(self.flip_prob)
        if not 0.0 <= p <= 1.0:
            raise ConfigurationError(f"flip probability must lie in [0, 1], got {p!r}")
        object.__setattr__(self, "flip_prob", p)

    @property
    def rho(self) -> float:
        return 1.0 - 2.0 * self.flip_prob

    def y_given_x(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        flips = _open_uniform(rng, x.shape[0]) < self.flip_prob
        return np.where(flips, -x, x)

    def block_law(self, m: int) -> _BinaryBlock:
        return _BinaryBlock(self.flip_prob, m)


@lru_cache(maxsize=64)
def _binomial_upper_tail(m: int, bmin: int) -> tuple[float, np.ndarray]:
    """Pr(B >= bmin) and Pr(B <= b | B >= bmin) for b = bmin..m, B ~ Binomial(m, 1/2).

    At p = 1/2 every pmf is exactly C(m, b) / 2^m, so both come from exact
    integer sums of binomial coefficients, stepped with the ratio
    C(m, b+1) = C(m, b) (m - b) / (b + 1). Python's int/int division rounds
    correctly even past the float range, so each value is the correctly
    rounded one. Once the terms fall (2b >= m), the sum stops where everything
    left is below 2^-1100 of it: no float can move by that much, and the
    table then ends at 1.0. That keeps large m cheap. The table is read-only
    because the cache shares it.
    """
    term = math.comb(m, bmin)
    partial = [term]
    for b in range(bmin, m):
        term = term * (m - b) // (b + 1)
        if 2 * b >= m and term * (m - b) < partial[-1] >> 1100:
            break
        partial.append(partial[-1] + term)
    total = partial[-1]
    cum = np.array([s / total for s in partial])
    cum.flags.writeable = False
    return total / (1 << m), cum


@dataclass(frozen=True)
class _BinaryBlock:
    """Crossing law of the average of ``m`` doubly symmetric binary pairs.

    The block X is (2 B - m)/sqrt(m) with B ~ Binomial(m, 1/2) the count of
    +1 signs; given B, Y's count moves by independent binomial sign flips.
    """

    flip_prob: float
    m: int

    def _bmin(self, t: float) -> int:
        # Smallest count B with (2 B - m)/sqrt(m) > t.
        return math.floor((self.m + t * math.sqrt(self.m)) / 2.0) + 1

    def crossing_prob(self, t: float) -> float:
        bmin = self._bmin(float(t))
        if bmin > self.m:
            return 0.0
        if bmin <= 0:
            return 1.0
        return _binomial_upper_tail(self.m, bmin)[0]

    def tail_x(self, t: float, p: float, rng: np.random.Generator, n: int) -> np.ndarray:
        u = _open_uniform(rng, n)
        m = self.m
        bmin = max(self._bmin(t), 0)
        cum = _binomial_upper_tail(m, bmin)[1]
        b = bmin + np.searchsorted(cum, u, side="left")
        return (2.0 * b - m) / math.sqrt(m)

    def tail_variance(self, t: float) -> float:
        # X = (2 B - m)/sqrt(m), so Var(X | X > t) = 4 Var(B | B >= bmin)/m.
        bmin = max(self._bmin(float(t)), 0)
        pmf = np.diff(_binomial_upper_tail(self.m, bmin)[1], prepend=0.0)
        b = np.arange(bmin, bmin + pmf.size)
        dev = b - pmf @ b
        return 4.0 * float(pmf @ (dev * dev)) / self.m

    def y_given_x(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        m = self.m
        sq = math.sqrt(m)
        b = np.rint((x * sq + m) / 2.0).astype(np.int64)
        lost = rng.binomial(b, self.flip_prob)
        gained = rng.binomial(m - b, self.flip_prob)
        return (2.0 * (b - lost + gained) - m) / sq


@dataclass(frozen=True)
class BlockAveraged(JointModel):
    """Each emitted pair is a block of ``m`` inner pairs summed and scaled by 1/sqrt(m).

    Preserves the inner correlation exactly while making the marginals
    approximately normal as ``m`` grows. Crossings have a closed form only
    when the inner model knows its block law (Gaussian and binary pairs).
    """

    inner: JointModel
    m: int

    def __post_init__(self):
        if not (float(self.m).is_integer() and self.m >= 1):
            raise ConfigurationError(f"block size must be an integer >= 1, got {self.m!r}")
        if isinstance(self.inner, BlockAveraged):
            raise ConfigurationError("nested block averaging is not supported")
        if isinstance(self.inner, (GaussianYVec, GaussianXVec)):
            raise ConfigurationError("block averaging is defined for scalar pair models only")
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "_block", self.inner.block_law(self.m))

    @property
    def rho(self) -> float:
        return self.inner.rho

    @property
    def x_support_upper(self) -> float:
        inner = self.inner.x_support_upper
        return inner * math.sqrt(self.m) if math.isfinite(inner) else math.inf

    def crossing_prob(self, t: float) -> Optional[float]:
        return None if self._block is None else self._block.crossing_prob(t)

    def tail_x(self, t: float, p: float, rng: np.random.Generator, n: int) -> np.ndarray:
        return self._block.tail_x(t, p, rng, n)

    def tail_variance(self, t: float) -> float:
        return self._block.tail_variance(t)

    def y_given_x(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return self._block.y_given_x(x, rng)

    def draw_pairs(self, rng: np.random.Generator, n: int):
        xi, yi = self.inner.draw_pairs(rng, n * self.m)
        scale = 1.0 / math.sqrt(self.m)
        x = _row_sums(xi.reshape(n, self.m)) * scale
        y = _row_sums(yi.reshape(n, self.m)) * scale
        return x, y


# ---------------------------------------------------------------------------
# First-crossing draws.


@dataclass(frozen=True)
class CrossingBatch:
    """Per-trial first-crossing results: index, crossing X, paired Y, cap flags.

    Indices are 1-based and stored as floats: their magnitudes can exceed the
    exact-integer range long before the statistics degrade, and they enter
    the estimators only through sample accounting.
    """

    index: np.ndarray
    x: np.ndarray
    y: np.ndarray
    capped: np.ndarray


def _geometric_index(p: float, rng: np.random.Generator, n: int) -> np.ndarray:
    if p >= 1.0:
        return np.ones(n)
    # First-success index: ceil(ln u / ln(1 - p)), always >= 1.
    j = _open_uniform(rng, n)
    np.log(j, out=j)
    j /= math.log1p(-p)
    np.ceil(j, out=j)
    return np.maximum(j, 1.0, out=j)


def draw_first_crossing(
    model: JointModel, t: float, rng: np.random.Generator, size: int,
    p: Optional[float] = None,
) -> CrossingBatch:
    """Sample (J, X_J, Y_J) for the first X exceeding ``t``, without scanning.

    Uses the exact factorization of the first-crossing event: the index is
    geometric with the crossing probability, independent of the crossing
    value, whose law is X | X > t; Y is then drawn from its conditional given
    X. Identical in distribution to the literal walk ``walk_first_hit`` at
    any crossing probability, including ones far too small to wait out.
    ``p`` is Pr(X > t) when the caller has it already, as a crossing plan
    does; otherwise the model works it out.
    """
    if p is None:
        p = model.crossing_prob(t)
    if p is None:
        raise ConfigurationError(
            f"model {model!r} has no closed-form crossing probability; walk it with walk_first_hit"
        )
    if p <= 0.0:
        raise ConfigurationError(
            f"threshold {t!r} can never be crossed under {model!r} (crossing probability 0)"
        )
    n = int(size)
    index = _geometric_index(p, rng, n)
    x = model.tail_x(t, p, rng, n)
    y = model.y_given_x(x, rng)
    return CrossingBatch(index=index, x=x, y=y, capped=np.zeros(n, dtype=bool))


# Rows per draw of the literal walk: bounds its working set at any crossing
# probability (a block-averaged row costs m inner pairs).
_WALK_ROWS = 2**16


def walk_first_hit(
    draw: Callable, hit: Callable, p: float, rng: np.random.Generator, size: int, cap: int
) -> CrossingBatch:
    """Literal search, in each of ``size`` trials, for the first row whose X satisfies ``hit``.

    ``draw(rng, n)`` returns n i.i.d. (X, Y) rows, as a model's ``draw_pairs``
    or ``draw_whitened`` does, and ``hit(x)`` marks the rows that end a walk.
    Each pass gives every live trial a slab of about 1/``p`` fresh rows, ``p``
    being the hit probability (exact, or an approximation: it sets only the
    slab length); a trial stops at the first hit in its slab, and the rest of
    the slab is discarded, which the i.i.d. stream allows. Trials with no hit
    within ``cap`` rows are flagged ``capped``, with index ``cap`` and NaN
    payloads. This is the package's one literal scan: the independent check
    on every exact shortcut, and the sampler for models without one.
    """
    n = int(size)
    cap = int(cap)
    if cap < 1:
        raise ConfigurationError(f"scan cap must be at least 1, got {cap!r}")
    if not 0.0 < p <= 1.0:
        raise ConfigurationError(f"hit probability must lie in (0, 1], got {p!r}")
    block = min(math.ceil(1.0 / p), _WALK_ROWS)
    index = np.full(n, float(cap))
    capped = np.ones(n, dtype=bool)
    # The payload shapes are those of the first draw; size 0 draws nothing.
    x = y = np.empty(0)
    live = np.arange(n)
    seen = 0
    while live.size and seen < cap:
        take = min(block, cap - seen)
        per_draw = max(1, _WALK_ROWS // take)
        for lo in range(0, live.size, per_draw):
            trials = live[lo : lo + per_draw]
            xs, ys = draw(rng, trials.size * take)
            if x.shape[0] != n:
                x = np.full((n,) + xs.shape[1:], math.nan)
                y = np.full((n,) + ys.shape[1:], math.nan)
            mask = hit(xs).reshape(trials.size, take)
            first = mask.argmax(axis=1)
            found = mask[np.arange(trials.size), first]
            rows = np.flatnonzero(found) * take + first[found]
            done = trials[found]
            index[done] = seen + first[found] + 1
            x[done] = xs[rows]
            y[done] = ys[rows]
            capped[done] = False
        live = live[capped[live]]
        seen += take
    return CrossingBatch(index=index, x=x, y=y, capped=capped)
