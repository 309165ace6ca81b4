"""Every correlation estimator, in batch form.

Batch functions sample many independent trials at once. They draw the
selected samples from the exact conditional laws of the selection events
(geometric index, tail-conditioned values) rather than scanning sample by
sample. The two are distribution-identical; the tests check each shortcut
against the literal walk ``sources.walk_first_hit``, which is also the
sampler for block averages without a closed-form crossing law. Each batch
reports estimates, per-trial sample consumption, bit costs, and failure
flags; nothing is ever silently dropped.
"""

from __future__ import annotations

import copy
import math
import threading
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import ConfigurationError
from .linalg import _row_sums, _transform_channels, singular_value_lower_bound
from .protocol import (
    LedgerMode,
    ParetoAllocation,
    StoppingSetParams,
    _stopping_crossing_prob,
    allocate_bits_pareto,
    allocate_bits_xvec,
    golomb_length_array,
    golomb_parameter,
    quantize_pareto_value,
    quantize_W_matrix,
    stopping_params_from_body_budget,
)
from .sources import (
    AdditiveNoise,
    BlockAveraged,
    GaussianScalar,
    GaussianXVec,
    JointModel,
    ParetoTwoSided,
    _open_uniform,
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
    qfunc_inv,
)

__all__ = [
    "TrialBatch",
    "CrossingPlan",
    "crossing_trials",
    "threshold_plan",
    "threshold_trials",
    "max_trials",
    "stopping_matrix_batch",
    "xvec_core_batch",
    "xvec_trials",
    "xvec_unquantized_trials",
    "xvec_paired_batch",
    "clt_plan",
    "clt_trials",
    "pareto_plan",
    "pareto_trials",
    "LinearPlan",
    "linear_baseline_plan",
    "linear_plan_trials",
    "linear_baseline_trials",
]


@dataclass(frozen=True)
class TrialBatch:
    """Vectorized outcome of n independent trials of one scheme."""

    estimates: np.ndarray
    truth: np.ndarray
    bits_expected: float
    bits_realized: Optional[np.ndarray]
    samples: np.ndarray
    failed: np.ndarray

    @property
    def n(self) -> int:
        return self.estimates.shape[0]


@dataclass(frozen=True)
class CrossingPlan:
    """What every chunk of one first-crossing cell shares, derived once per cell.

    Indices and tail values are drawn at ``p_cross`` = Pr(X > t) with the
    shortcut, or, when ``walk_cap`` is set, by the literal walk, whose slabs
    ``p_cross`` (then an approximation) sizes and which flags trials past the
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

    Capped walks fail. A quantized crossing value adds its payload bits.
    """
    if plan.walk_cap is None:
        batch = draw_first_crossing(plan.model, plan.t, rng, size, p=plan.p_cross)
    else:
        t = plan.t
        batch = walk_first_hit(plan.model.draw_pairs, lambda x: x > t, plan.p_cross, rng, size,
                               plan.walk_cap)
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
        failed=batch.capped,
    )


# ---------------------------------------------------------------------------
# Scalar schemes.


def threshold_plan(model: JointModel, k: float, mode: LedgerMode = LedgerMode.EXPECTED
                   ) -> CrossingPlan:
    """The plan behind :func:`threshold_trials`; each index is booked at H(p)."""
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


def threshold_trials(
    model: JointModel, k: float, rng: np.random.Generator, size: int,
    mode: LedgerMode = LedgerMode.EXPECTED,
) -> TrialBatch:
    """First-crossing scheme on any model with a scalar X law: estimate = Y_J / E[X|X>t].

    The threshold t is the X law's upper quantile at the crossing probability
    whose index costs ``k`` bits. Every coordinate of a vector Y is read at
    the one shared index.
    """
    return crossing_trials(threshold_plan(model, k, mode), rng, size)


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
        failed=np.zeros(size, dtype=bool),
    )


def clt_plan(model: BlockAveraged, k: float, mode: LedgerMode = LedgerMode.EXPECTED,
             cap: Optional[int] = None) -> CrossingPlan:
    """The plan behind :func:`clt_trials`; without a closed-form crossing law it walks.

    Rejects block sizes whose bounded support cannot reach the threshold.
    """
    if not isinstance(model, BlockAveraged):
        raise ConfigurationError("CLT trials need a block-averaged model")
    # The Gaussian threshold whose crossing index costs k bits.
    t = qfunc_inv(geometric_entropy_inv(k))
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
    # Capped trials carry NaN payloads, so their estimates are NaN too.
    if mode is LedgerMode.REALIZED:
        raise ConfigurationError(
            "realized accounting needs a closed-form crossing probability for the index code"
        )
    return _crossing_plan(model, t, float(qfunc(t)), None, inverse_mills(t), mode,
                          walk_cap=4096 * 1024 if cap is None else cap)


def clt_trials(
    model: BlockAveraged, k: float, rng: np.random.Generator, size: int,
    mode: LedgerMode = LedgerMode.EXPECTED,
    cap: Optional[int] = None,
) -> TrialBatch:
    """Threshold scheme on block averages, normalized as if the blocks were Gaussian.

    The reported expected bits are the entropy cost of the realized crossing
    probability of the block-average process, which tends to the configured
    budget as the block size grows but differs from it at finite block sizes.
    """
    return crossing_trials(clt_plan(model, k, mode, cap), rng, size)


def pareto_plan(model: AdditiveNoise, k: float, mode: LedgerMode = LedgerMode.EXPECTED
                ) -> CrossingPlan:
    """The plan behind :func:`pareto_trials`; rejects models and budgets it cannot run."""
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


def pareto_trials(
    model: AdditiveNoise, k: float, rng: np.random.Generator, size: int,
    mode: LedgerMode = LedgerMode.EXPECTED,
) -> tuple[TrialBatch, ParetoAllocation]:
    """Quantized-value threshold scheme for power-law X: estimate = Y_J / quantized X_J."""
    plan = pareto_plan(model, k, mode)
    return crossing_trials(plan, rng, size), plan.alloc


# ---------------------------------------------------------------------------
# Vector schemes.


def stopping_matrix_batch(
    d: int, a: float, b: float, rng: np.random.Generator, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``size`` selection matrices and their index gaps directly.

    Column l of each matrix is the l-th selected whitened vector: coordinate
    l two-sided tail-conditioned beyond ``a``, the others truncated inside
    (-b, b). Gaps between consecutive selections are geometric with the
    stopping-set crossing probability. Returns (W with shape (size, d, d),
    gaps with shape (size, d)).
    """
    p = _stopping_crossing_prob(a, b, d)
    q_a = float(qfunc(a))
    q_b = float(qfunc(b))
    # Strong diagonal: random sign, magnitude conditioned beyond a.
    signs = _open_uniform(rng, (size, d))
    mags = _open_uniform(rng, (size, d))
    mags *= q_a
    _qinv_unchecked(mags, out=mags)
    # Weak off-diagonals: normal truncated to (-b, b) via its probability
    # band, drawn straight into the stack and transformed in place.
    w = np.empty((size, d, d))
    if d > 1:
        _open_uniform(rng, out=w)
        w *= 1.0 - 2.0 * q_b
        w += q_b
        _qinv_unchecked(w, out=w)
    # Sign from u < 0.5, as u - 0.5 is negative exactly when u < 0.5.
    signs -= 0.5
    np.copysign(mags, signs, out=np.einsum("nii->ni", w))
    del signs, mags
    u_gap = _open_uniform(rng, (size, d))
    np.log(u_gap, out=u_gap)
    u_gap /= math.log1p(-p)
    np.ceil(u_gap, out=u_gap)
    gaps = np.maximum(u_gap, 1.0, out=u_gap)
    return w, gaps


# numpy's bundled OpenBLAS serialises concurrent LU factorisations, with
# contention on top: two threads each solving a chunk's (n, d, d) stack run
# slower together than one alone. One solve at a time turns that contention
# into a clean hand-off while the other workers sample, quantize and screen.
# The cost: under a BLAS whose LU does run concurrently, this lock holds the
# solve (about a quarter of a one-thread chunk) to one core. The results do
# not depend on it; every solve is the same call on the same stack.
_SOLVE_LOCK = threading.Lock()


def _xvec_reconstruct(w_used: np.ndarray, y: np.ndarray, recon: np.ndarray):
    """Estimates y W^-1 recon per trial, NaN where the screen rejects W; returns (est, failed)."""
    # Deterministic screen: diagonal dominance gives a positive lower bound on
    # the smallest singular value for every valid parameter set.
    failed = ~(singular_value_lower_bound(w_used) > 0.0)
    any_failed = bool(failed.any())
    if any_failed:
        w_used = np.where(failed[:, None, None], np.eye(w_used.shape[-1])[None, :, :], w_used)
    # y W^-1 is the solution x of W^T x = y.
    with _SOLVE_LOCK:
        x = np.linalg.solve(np.swapaxes(w_used, -1, -2), y[..., None])
    est = x[..., 0] @ recon
    if any_failed:
        est[failed] = np.nan
    return est, failed


def xvec_core_batch(
    model: GaussianXVec,
    params: StoppingSetParams,
    rng: np.random.Generator,
    size: int,
    quantize: bool,
    mode: LedgerMode = LedgerMode.EXPECTED,
) -> TrialBatch:
    """Stopping-set selection, optional matrix quantization, and reconstruction."""
    d = model.dim
    if params.d != d:
        raise ConfigurationError(f"params dimension {params.d} does not match model {d}")
    w, gaps = stopping_matrix_batch(d, params.a, params.b, rng, size)
    # Bob's Y values read at the selected indices.
    y = normal_from_uniform(rng, (size, d))
    y *= math.sqrt(model.noise_var)
    y += np.einsum("j,njl->nl", model.whitened_rho, w)
    bits_expected = d * geometric_entropy(params.crossing_prob)
    realized = None
    if mode is LedgerMode.REALIZED:
        m_code = golomb_parameter(params.crossing_prob)
        realized = _row_sums(golomb_length_array(gaps.reshape(-1), m_code).reshape(size, d))
    samples = _row_sums(gaps)
    del gaps
    if quantize:
        # y is formed, so the exact selection matrices are no longer needed.
        q = quantize_W_matrix(w, params, out=w)
        bits_expected += q.bits_expected
        if realized is not None:
            realized = realized + q.bits_realized
    est, failed = _xvec_reconstruct(w, y, model.sqrt_sigma_x)
    return TrialBatch(
        estimates=est,
        truth=model.true_correlations(),
        bits_expected=bits_expected,
        bits_realized=realized,
        samples=samples,
        failed=failed,
    )


def xvec_trials(
    model: GaussianXVec, k: float, rng: np.random.Generator, size: int,
    b0: float = 0.3,
    mode: LedgerMode = LedgerMode.EXPECTED,
) -> TrialBatch:
    """Full vector-X scheme under a total budget: allocation, selection, quantization."""
    params = allocate_bits_xvec(k, model.dim, b0)
    return xvec_core_batch(model, params, rng, size, quantize=True, mode=mode)


def xvec_unquantized_trials(
    model: GaussianXVec, k_l: float, rng: np.random.Generator, size: int,
    b0: float = 0.3,
    mode: LedgerMode = LedgerMode.EXPECTED,
) -> TrialBatch:
    """Diagnostic variant with the exact selection matrix (index bits only)."""
    params = stopping_params_from_body_budget(k_l, model.dim, b0)
    return xvec_core_batch(model, params, rng, size, quantize=False, mode=mode)


def xvec_paired_batch(model: GaussianXVec, params: StoppingSetParams, rng: np.random.Generator,
                      size: int) -> tuple[TrialBatch, TrialBatch]:
    """Quantized and unquantized reconstructions of the same selection draws.

    Sharing the selection randomness turns the quantization-loss comparison
    into a paired design, which is what the additive loss bound speaks about.
    Quantizing draws nothing, so the exact branch replays the quantized
    branch's draws from a copy of ``rng``; ``rng`` itself advances once.
    """
    replay = copy.deepcopy(rng)
    return (xvec_core_batch(model, params, rng, size, quantize=True),
            xvec_core_batch(model, params, replay, size, quantize=False))


# ---------------------------------------------------------------------------
# Linear-transform baseline.


class LinearPlan(NamedTuple):
    """The transform baseline's cell: one threshold plan per transformed coordinate."""

    channels: tuple
    inv_mt: np.ndarray
    truth: np.ndarray


def linear_baseline_plan(
    model: GaussianXVec,
    budgets: tuple[float, float],
    m_transform: np.ndarray,
    mode: LedgerMode = LedgerMode.EXPECTED,
) -> LinearPlan:
    """Transform channels and a threshold plan on each, at its own budget."""
    alphas, inv_mt = _transform_channels(m_transform, model.sigma_x.values, model.rho)
    channels = tuple(threshold_plan(GaussianScalar(rho=float(alpha)), k, mode)
                     for alpha, k in zip(alphas, budgets, strict=True))
    return LinearPlan(channels, inv_mt, model.true_correlations())


def linear_plan_trials(plan: LinearPlan, rng: np.random.Generator, size: int) -> TrialBatch:
    """``size`` trials of the transform baseline: each channel's run in turn, then invert."""
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
        failed=np.zeros(size, dtype=bool),
    )


def linear_baseline_trials(
    model: GaussianXVec,
    budgets: tuple[float, float],
    m_transform: np.ndarray,
    rng: np.random.Generator,
    size: int,
    mode: LedgerMode = LedgerMode.EXPECTED,
) -> TrialBatch:
    """Two scalar threshold runs on linearly transformed coordinates, then invert.

    Each transformed coordinate is a unit-variance Gaussian whose correlation
    with Y is the transformed correlation vector; the two runs use fresh
    independent samples and the estimates map back through the inverse
    transform.
    """
    return linear_plan_trials(linear_baseline_plan(model, budgets, m_transform, mode), rng, size)
