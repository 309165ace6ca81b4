"""Every correlation estimator, in batch form.

Batch functions sample many independent trials at once. They draw the
selected samples from the exact conditional laws of the selection events
(geometric index, tail-conditioned values) rather than scanning sample by
sample. The two are distribution-identical; the tests check each shortcut
against the literal walk ``sources.walk_first_hit``, which is also the
sampler for block averages without a closed-form crossing law. Every trial
yields an estimate, its sample consumption and its bit cost; a walk that
reaches its cap raises ``TrialFailureError`` rather than dropping the trial.

Each cell is a plan, derived once, whose ``run(rng, size)`` draws one chunk:
``CrossingPlan``, ``MaxPlan``, ``XVecPlan`` or ``LinearPlan``. ``run`` looks
its runner up when called, so a wrapper installed after the plan was built,
such as a tracing span, still sees every chunk.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from .analysis import crossing_variance
from .errors import ConfigurationError, TrialFailureError
from .linalg import _off_diagonal, _row_sums
from .protocol import (
    LedgerMode,
    ParetoAllocation,
    StoppingSetParams,
    _check_index_range,
    _stopping_crossing_prob,
    allocate_bits_pareto,
    golomb_length_array,
    golomb_parameter,
    quantize_pareto_value,
    quantize_W_matrix,
)
from .sources import (
    AdditiveNoise,
    BlockAveraged,
    GaussianScalar,
    GaussianXVec,
    JointModel,
    ParetoTwoSided,
    _geometric_index,
    _open_uniform,
    _philox_cursors,
    _skip_doubles,
    draw_first_crossing,
    normal_from_uniform,
    walk_first_hit,
)
from .statmath import (
    _max_block,
    _qinv_unchecked,
    geometric_entropy,
    geometric_entropy_inv,
    inverse_mills,
    max_normal_moments,
    qfunc,
    threshold_for_budget,
)

__all__ = [
    "TrialBatch",
    "CrossingPlan",
    "crossing_trials",
    "threshold_plan",
    "MaxPlan",
    "max_trials",
    "stopping_matrix_batch",
    "XVecPlan",
    "xvec_core_batch",
    "xvec_paired_batch",
    "clt_plan",
    "pareto_plan",
    "LinearPlan",
    "linear_baseline_plan",
    "linear_plan_trials",
]


@dataclass(frozen=True)
class TrialBatch:
    """Vectorized outcome of n independent trials of one scheme."""

    estimates: np.ndarray
    truth: np.ndarray
    bits_expected: float
    bits_realized: Optional[np.ndarray]
    samples: np.ndarray

    @property
    def n(self) -> int:
        return self.estimates.shape[0]


@dataclass(frozen=True)
class CrossingPlan:
    """What every chunk of one first-crossing cell shares, derived once per cell.

    Indices and tail values are drawn at ``p_cross`` = Pr(X > t) with the
    shortcut, or, when ``walk_cap`` is set, by the literal walk, whose slabs
    ``p_cross`` (then an approximation) sizes and which raises past the
    cap. ``bits`` books each index: the entropy of the crossing probability
    its code assumes, NaN for walked crossings. In realized mode ``golomb_m``
    is that code's divisor, and None otherwise. Y_J / ``norm`` is the
    estimate, or Y_J over the crossing value quantized by ``alloc``.
    """

    model: JointModel
    t: float
    p_cross: float
    norm: Optional[float]
    bits: float
    golomb_m: Optional[int]
    truth: np.ndarray
    walk_cap: Optional[int] = None
    alloc: Optional[ParetoAllocation] = None

    def run(self, rng: np.random.Generator, size: int) -> TrialBatch:
        return crossing_trials(self, rng, size)

    def check_index_range(self, trials: int) -> None:
        """Refuse ``trials`` realized trials whose Golomb-coded indices would pass 2^53."""
        if self.golomb_m is not None:
            _check_index_range(self.p_cross, trials)

    def variance(self) -> float:
        """Exact variance of Y_J / ``norm``, summed over coordinates; needs a fixed ``norm``."""
        return crossing_variance(self.truth, self.model.tail_variance(self.t), self.norm)


def _crossing_plan(model: JointModel, t: float, p_cross: float, p: Optional[float],
                   norm: Optional[float], mode: LedgerMode, **kwargs) -> CrossingPlan:
    """The plan booking each index at H(``p``); None ``p`` books NaN bits (walked crossings)."""
    bits = math.nan if p is None else geometric_entropy(p)
    m_code = golomb_parameter(p) if p is not None and mode is LedgerMode.REALIZED else None
    truth = model.true_correlations()
    truth.setflags(write=False)
    return CrossingPlan(model, t, p_cross, norm, bits, m_code, truth, **kwargs)


def crossing_trials(plan: CrossingPlan, rng: np.random.Generator, size: int) -> TrialBatch:
    """``size`` first-crossing trials of ``plan``'s cell: draw, then estimate Y_J / norm.

    A walk past the cap raises. A quantized crossing value adds its payload bits.
    """
    if plan.walk_cap is None:
        batch = draw_first_crossing(plan.model, plan.t, rng, size, p=plan.p_cross)
    else:
        t = plan.t
        batch = walk_first_hit(plan.model.draw_pairs, lambda x: x > t, plan.p_cross, rng, size,
                               plan.walk_cap)
        if batch.capped.any():
            raise TrialFailureError(f"a walk found no crossing of threshold {t:.6g} within "
                                    f"its cap of {plan.walk_cap} rows")
    bits = plan.bits
    realized = None
    if plan.golomb_m is not None:
        realized = golomb_length_array(batch.index, plan.golomb_m)
    norm = plan.norm
    if plan.alloc is not None:
        xhat = quantize_pareto_value(batch.x, plan.alloc.t, plan.alloc.u, plan.alloc.k_q)
        norm = xhat.values
        bits += xhat.bits_expected
        if realized is not None:
            realized += xhat.bits_realized
    est = batch.y
    est /= norm
    return TrialBatch(
        estimates=est if est.ndim == 2 else est[:, None],
        truth=plan.truth,
        bits_expected=bits,
        bits_realized=realized,
        samples=batch.index,
    )


# ---------------------------------------------------------------------------
# Scalar schemes.


def threshold_plan(model: JointModel, k: float, mode: LedgerMode = LedgerMode.EXPECTED
                   ) -> CrossingPlan:
    """First-crossing plan on any model with a scalar X law: estimate = Y_J / E[X|X>t].

    t is the X law's upper quantile at the crossing probability p whose index
    costs ``k`` bits, booked at H(p); a vector Y is read at the one shared index.
    """
    x_law = getattr(model, "x_law", None)
    if x_law is None:
        raise ConfigurationError(
            f"threshold trials need a model with a scalar X law, got {model!r}"
        )
    p = geometric_entropy_inv(k)
    t = float(x_law.tail_quantile(p))
    # The index is booked at H(p), so X must cross t with probability p, up
    # to rounding. A discrete law such as the sign law puts t on an atom.
    p_t = float(x_law.tail_prob(t))
    if not math.isclose(p_t, p, rel_tol=1e-6):
        raise ConfigurationError(
            f"the {x_law.name} X law crosses its threshold {t!r} with probability {p_t!r}, "
            f"not the {p!r} that a {k!r}-bit index needs; threshold trials need a "
            "continuous X law"
        )
    return _crossing_plan(model, t, p_t, p, x_law.tail_mean(t), mode)


class MaxPlan(NamedTuple):
    """The largest-of-2^k cell: its model, integer budget and ledger mode."""

    model: GaussianScalar
    k: int
    mode: LedgerMode = LedgerMode.EXPECTED

    def run(self, rng: np.random.Generator, size: int) -> TrialBatch:
        return max_trials(self.model, self.k, rng, size, mode=self.mode)

    def check_index_range(self, trials: int) -> None:
        """Nothing to refuse: the index has a fixed-length code."""

    def variance(self) -> float:
        """Exact variance of Y_J / E[max of 2^k normals]."""
        mm = max_normal_moments(_max_block(self.k))
        return crossing_variance(self.model.rho, mm.variance, mm.mean)


def max_trials(
    model: GaussianScalar, k: int, rng: np.random.Generator, size: int,
    mode: LedgerMode = LedgerMode.EXPECTED,
) -> TrialBatch:
    """Largest-of-2^k scheme: estimate = Y_J / E[max of 2^k normals].

    The argmax position of an i.i.d. block is uniform and independent of the
    maximum value, so the trial draws (J, X_J) directly from those laws; the
    fixed-length index code costs exactly k bits either way.
    """
    n_samples = _max_block(k)
    if not isinstance(model, GaussianScalar):
        raise ConfigurationError("max trials need the scalar Gaussian model")
    mean_max = max_normal_moments(n_samples).mean
    u = _open_uniform(rng, size)
    # CDF of the block maximum is Phi^n; invert through the upper tail.
    x = _qinv_unchecked(-np.expm1(np.log(u) / n_samples))
    est = (model.y_given_x(x, rng) / mean_max)[:, None]
    realized = None
    if mode is LedgerMode.REALIZED:
        realized = np.full(size, k, dtype=np.int64)
    return TrialBatch(
        estimates=est,
        truth=model.true_correlations(),
        bits_expected=float(k),
        bits_realized=realized,
        samples=np.full(size, n_samples),
    )


# Rows a walked crossing reads before it raises; walks read 1/p rows on average.
_WALK_CAP = 4096 * 1024


def clt_plan(model: BlockAveraged, k: float, mode: LedgerMode = LedgerMode.EXPECTED
             ) -> CrossingPlan:
    """Threshold plan on block averages, normalized as if the blocks were Gaussian.

    Indices are booked at the entropy of the block average's actual crossing
    probability, which tends to ``k`` only as the block size grows. Without a
    closed-form crossing law it walks, and a trial past ``_WALK_CAP`` rows raises.
    Rejects block sizes whose bounded support cannot reach the threshold.
    """
    if not isinstance(model, BlockAveraged):
        raise ConfigurationError("CLT trials need a block-averaged model")
    # The Gaussian threshold whose crossing index costs k bits.
    t = threshold_for_budget(k)
    xsup = model.x_support_upper
    if math.isfinite(xsup) and t >= xsup:
        inner_sup = model.inner.x_support_upper
        m_min = math.floor(t * t / (inner_sup * inner_sup)) + 1
        raise ConfigurationError(
            f"block size {model.m} cannot cross threshold {t:.4f} (block support tops out "
            f"at {xsup:.4f}); the smallest workable block size is {m_min}"
        )
    p = model.crossing_prob(t)
    if p is not None:
        if p <= 0.0:
            raise ConfigurationError(
                f"crossing probability is 0 at block size {model.m}; increase the block size"
            )
        return _crossing_plan(model, t, p, p, inverse_mills(t), mode)
    # No closed-form crossing probability: walk the block stream literally,
    # with slabs sized by the Gaussian limit of the crossing probability.
    if mode is LedgerMode.REALIZED:
        raise ConfigurationError(
            "realized accounting needs a closed-form crossing probability for the index code"
        )
    return _crossing_plan(model, t, float(qfunc(t)), None, inverse_mills(t), mode,
                          walk_cap=_WALK_CAP)


def pareto_plan(model: AdditiveNoise, k: float, mode: LedgerMode = LedgerMode.EXPECTED
                ) -> CrossingPlan:
    """Quantized-value plan for power-law X: estimate = Y_J / quantized X_J.

    ``plan.alloc`` splits ``k`` between index and value bits.
    """
    if not isinstance(model, AdditiveNoise) or not isinstance(model.x_law, ParetoTwoSided):
        raise ConfigurationError("the quantized heavy-tail scheme needs a power-law X marginal")
    alpha = model.x_law.alpha
    if not alpha > 3.0:
        raise ConfigurationError(
            f"the quantized scheme's error analysis needs tail exponent > 3, got {alpha!r}"
        )
    alloc = allocate_bits_pareto(k, alpha)
    return _crossing_plan(model, alloc.t, model.crossing_prob(alloc.t),
                          geometric_entropy_inv(alloc.k_l), None, mode, alloc=alloc)


# ---------------------------------------------------------------------------
# Vector schemes.


# Trials per draw block. A block's C-order uniforms fill a small buffer that
# is transposed into the entry-major stack while it is still in cache.
_DRAW_BLOCK = 2048


def stopping_matrix_batch(
    d: int, a: float, b: float, rng, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``size`` selection matrices and their index gaps directly.

    Column l of each matrix is the l-th selected whitened vector: coordinate
    l two-sided tail-conditioned beyond ``a``, the others truncated inside
    (-b, b). Gaps between consecutive selections are geometric with the
    stopping-set crossing probability. Returns (W with shape (size, d, d),
    gaps with shape (size, d)). W is a view of an entry-major (d, d, size)
    array: entry (i, j) of every trial is one contiguous run.

    ``rng`` is one generator, read in order: signs, magnitudes, matrix
    uniforms, gaps. Or it is a (signs, magnitudes, matrix, gaps) tuple of
    generators, each read in order, as ``xvec_core_batch`` passes the cursors
    of one block of a longer draw.
    """
    signs_rng, mags_rng, w_rng, gaps_rng = rng if isinstance(rng, tuple) else (rng,) * 4
    p = _stopping_crossing_prob(a, b, d)
    q_a = float(qfunc(a))
    q_b = float(qfunc(b))
    # The stack first: the draw's temporaries then free one hole beside it,
    # where the later steps' temporaries fit.
    w = np.empty((d, d, size)).transpose(2, 0, 1)
    # Strong diagonal: random sign, magnitude conditioned beyond a. The sign
    # is u < 0.5, as u - 0.5 is negative exactly when u < 0.5.
    signs = _open_uniform(signs_rng, (size, d))
    mags = _open_uniform(mags_rng, (size, d))
    mags *= q_a
    _qinv_unchecked(mags, out=mags)
    signs -= 0.5
    np.copysign(mags, signs, out=mags)
    del signs
    if d > 1:
        # Each trial's d x d uniforms come in C order, the diagonal's unused.
        block = np.empty((min(size, _DRAW_BLOCK), d, d))
        for start in range(0, size, _DRAW_BLOCK):
            stop = min(start + _DRAW_BLOCK, size)
            w[start:stop] = _open_uniform(w_rng, out=block[: stop - start])
        # Weak off-diagonals: normal truncated to (-b, b) via its probability band.
        for part in _off_diagonal(w):
            part *= 1.0 - 2.0 * q_b
            part += q_b
            _qinv_unchecked(part, out=part)
    # The matrix uniforms' copy wrote the diagonal too.
    np.copyto(np.einsum("nii->ni", w), mags)
    del mags
    return w, _geometric_index(p, gaps_rng, (size, d))


def _left_solve(w: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Rows x with x W = y for a (n, d, d) stack, in place: returns ``y`` holding x.

    Gaussian elimination without pivoting on W^T x = y; ``w`` is overwritten
    by the factors. Each step is one numpy operation over all n trials, which
    on an entry-major stack and an (n, d) view of trials-last ``y`` runs over
    contiguous trials; :func:`xvec_core_batch` passes one block of at most
    ``_XVEC_BLOCK`` trials, whose rows stay in cache. No pivot is needed: every :class:`StoppingSetParams` has a > d(b + 1), so each
    selection matrix (|W_ii| > a, |W_ij| < b) and its midpoint quantization
    (diagonal magnitudes in (a, sqrt(3) a), off-diagonals in (-b, b)) is
    strictly diagonally dominant by rows and by columns. There every leading
    minor is nonsingular, elimination without pivoting is stable with growth
    factor <= 2, and partial pivoting would never swap rows.
    """
    n, d = y.shape
    # Entry-major scratch for the products of one step.
    prod = np.empty((d - 1, d - 1, n)).transpose(2, 0, 1)
    # Forward elimination: row k right of the pivot turns into the
    # multipliers W_ki / W_kk, which clear W_ck and y_k from every later
    # column c and right-hand side entry.
    for k in range(d - 1):
        r = d - 1 - k
        mult = w[:, k, k + 1:]
        np.divide(mult, w[:, k, k, None], out=mult)
        t = prod[:, :r, :r]
        np.multiply(w[:, k + 1:, k, None], mult[:, None, :], out=t)
        w[:, k + 1:, k + 1:] -= t
        t = prod[:, 0, :r]
        np.multiply(mult, y[:, k, None], out=t)
        y[:, k + 1:] -= t
    # Back substitution.
    for k in range(d - 1, -1, -1):
        y[:, k] /= w[:, k, k]
        if k:
            t = prod[:, 0, :k]
            np.multiply(w[:, k, :k], y[:, k, None], out=t)
            y[:, :k] -= t
    return y


# Trials per block of a vector-X chunk: a full chunk of 16,384 trials runs as two.
_XVEC_BLOCK = 8192


class XVecPlan(NamedTuple):
    """A vector-X cell: its model, stopping-set parameters and ledger mode."""

    model: GaussianXVec
    params: StoppingSetParams
    mode: LedgerMode = LedgerMode.EXPECTED

    def run(self, rng: np.random.Generator, size: int) -> TrialBatch:
        return xvec_core_batch(self.model, self.params, rng, size, mode=self.mode)

    def check_index_range(self, trials: int) -> None:
        """Refuse ``trials`` realized trials whose d Golomb-coded gaps each could pass 2^53."""
        if self.mode is LedgerMode.REALIZED:
            _check_index_range(self.params.crossing_prob, trials * self.params.d)


def xvec_core_batch(
    model: GaussianXVec,
    params: StoppingSetParams,
    rng: np.random.Generator,
    size: int,
    mode: LedgerMode = LedgerMode.EXPECTED,
) -> TrialBatch:
    """Stopping-set selection, matrix quantization when ``params.k_q`` > 0, and reconstruction.

    :func:`allocate_bits_xvec` gives k_q > 0; :func:`stopping_params_from_body_budget`
    gives k_q = 0, which sends the matrix exactly and books only the index bits.
    The estimates are an F-ordered (size, d) array.

    The chunk's draws are the in-order draw of the whole chunk: ``size`` x d
    signs, then as many magnitudes, the matrices' uniforms (d > 1 only), the
    gaps, and the noise z. The trials run in blocks of ``_XVEC_BLOCK``, so only
    a block's matrices are held at once. Past one block each draw reads its
    own Philox cursor, opened at the offset where that draw starts, so every
    block reads exactly the doubles the in-order draw gives its trials, and
    ``rng`` is then moved on to where the in-order draw leaves it. So a chunk
    of more than one block needs a Philox generator, as ``substream`` gives.
    """
    d = model.dim
    if params.d != d:
        raise ConfigurationError(f"params dimension {params.d} does not match model {d}")
    bits_expected = d * geometric_entropy(params.crossing_prob)
    m_code = golomb_parameter(params.crossing_prob) if mode is LedgerMode.REALIZED else None
    draws, z_rng = rng, rng
    if size > _XVEC_BLOCK:
        nd = size * d
        w_len = nd * d if d > 1 else 0
        cursors = _philox_cursors(rng, (0, nd, 2 * nd, 2 * nd + w_len, 3 * nd + w_len))
        draws, z_rng = cursors[:4], cursors[4]
        _skip_doubles(rng, 4 * nd + w_len)
    rho = model.whitened_rho
    noise_sd = math.sqrt(model.noise_var)
    y = np.empty((d, size))
    samples = np.empty(size)
    realized = None if m_code is None else np.empty(size, dtype=np.int64)
    payload = None
    for start in range(0, size, _XVEC_BLOCK):
        stop = min(start + _XVEC_BLOCK, size)
        w, gaps = stopping_matrix_batch(d, params.a, params.b, draws, stop - start)
        if realized is not None:
            realized[start:stop] = _row_sums(
                golomb_length_array(gaps.reshape(-1), m_code).reshape(-1, d))
        samples[start:stop] = _row_sums(gaps)
        del gaps
        # Bob's Y values read at the selected indices, one trials-last run per
        # coordinate: y = sigma z + rho~^T W, the products summed from j = 0 up.
        runs = w.transpose(1, 2, 0)
        y_block = y[:, start:stop]
        np.multiply(runs[0], rho[0], out=y_block)
        term = np.empty_like(y_block)
        for j in range(1, d):
            np.multiply(runs[j], rho[j], out=term)
            y_block += term
        del term, runs
        z = normal_from_uniform(z_rng, (stop - start, d))
        z *= noise_sd
        y_block += z.T
        del z
        if params.k_q > 0.0:
            # y is formed, so the exact selection matrices are no longer needed.
            # Every block books the same payload; its values are w itself.
            payload = quantize_W_matrix(w, params, out=w)._replace(values=None)
        _left_solve(w, y_block.T)
        del w
    if payload is not None:
        bits_expected += payload.bits_expected
        if realized is not None:
            realized += payload.bits_realized
    # One product over the chunk: a one-trial block would take another BLAS
    # path, whose last bit can differ.
    return TrialBatch(
        estimates=(model.sqrt_sigma_x.T @ y).T,
        truth=model.true_correlations(),
        bits_expected=bits_expected,
        bits_realized=realized,
        samples=samples,
    )


def xvec_paired_batch(model: GaussianXVec, params: StoppingSetParams, rng: np.random.Generator,
                      size: int) -> tuple[TrialBatch, TrialBatch]:
    """Quantized and unquantized reconstructions of the same selection draws.

    Sharing the selection randomness turns the quantization-loss comparison
    into a paired design, which is what the additive loss bound speaks about.
    The exact branch runs at k_q = 0 on a copy of ``rng``, replaying the quantized
    branch's draws (quantizing draws none), so ``rng`` itself advances once.
    """
    replay = copy.deepcopy(rng)
    return (xvec_core_batch(model, params, rng, size),
            xvec_core_batch(model, replace(params, k_q=0.0), replay, size))


# ---------------------------------------------------------------------------
# Linear-transform baseline.


class LinearPlan(NamedTuple):
    """The transform baseline's cell: one threshold plan per transformed coordinate."""

    channels: tuple
    inv_mt: np.ndarray
    truth: np.ndarray

    def run(self, rng: np.random.Generator, size: int) -> TrialBatch:
        return linear_plan_trials(self, rng, size)

    def check_index_range(self, trials: int) -> None:
        for channel in self.channels:
            channel.check_index_range(trials)

    def variance(self) -> float:
        """Exact covariance trace: the channels run on independent samples, so it is
        each channel's variance weighted by the squared norm of its inverse-transform column.
        """
        trace = 0.0
        for i, channel in enumerate(self.channels):
            trace += channel.variance() * float(self.inv_mt[:, i] @ self.inv_mt[:, i])
        return trace


def _transform_channels(transform, sigma_x: np.ndarray, rho: np.ndarray):
    """Channels of the two-coordinate transform baseline: (correlations, inverse transform).

    Each row of ``transform`` is rescaled so its coordinate of X has unit
    variance under ``sigma_x``. Returns each transformed coordinate's
    correlation with Y (clipped to [-1, 1]) and the inverse of the
    normalized transform, which maps channel estimates back.
    """
    if len(rho) != 2:
        raise ConfigurationError("the transform baseline is defined for two coordinates")
    m = np.asarray(transform, dtype=float)
    row_vars = np.einsum("ij,jk,ik->i", m, sigma_x, m)
    if np.any(row_vars <= 0.0):
        raise ConfigurationError("transform rows must have positive variance")
    m = m / np.sqrt(row_vars)[:, None]
    if abs(float(np.linalg.det(m))) < 1e-12:
        raise ConfigurationError("transform matrix is singular after row normalization")
    return np.clip(m @ rho, -1.0, 1.0), np.linalg.inv(m)


def linear_baseline_plan(
    model: GaussianXVec,
    budgets: tuple[float, float],
    m_transform: np.ndarray,
    mode: LedgerMode = LedgerMode.EXPECTED,
) -> LinearPlan:
    """Transform channels and a threshold plan on each, at its own budget.

    Each channel is a unit-variance Gaussian whose correlation with Y is the
    transformed correlation vector.
    """
    alphas, inv_mt = _transform_channels(m_transform, model.sigma_x.values, model.rho)
    channels = tuple(threshold_plan(GaussianScalar(rho=float(alpha)), k, mode)
                     for alpha, k in zip(alphas, budgets, strict=True))
    return LinearPlan(channels, inv_mt, model.true_correlations())


def linear_plan_trials(plan: LinearPlan, rng: np.random.Generator, size: int) -> TrialBatch:
    """``size`` trials of the transform baseline: each channel on fresh samples, then invert."""
    alpha_hat = np.empty((size, len(plan.channels)))
    samples = np.zeros(size)
    bits_expected = 0.0
    realized = None
    for i, channel in enumerate(plan.channels):
        batch = crossing_trials(channel, rng, size)
        alpha_hat[:, i] = batch.estimates[:, 0]
        samples += batch.samples
        bits_expected += batch.bits_expected
        if batch.bits_realized is not None:
            realized = batch.bits_realized if realized is None else realized + batch.bits_realized
    return TrialBatch(
        estimates=alpha_hat @ plan.inv_mt.T,
        truth=plan.truth,
        bits_expected=bits_expected,
        bits_realized=realized,
        samples=samples,
    )
