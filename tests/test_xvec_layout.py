"""The entry-major xvec chunk against the C-order chunk it replaced, bit for bit.

``xvec_core_batch`` holds a chunk's selection matrices entry-major: entry
(i, j) of every trial is one contiguous run. The functions below are the
C-order pipeline it replaced, kept as the oracle: the stack drawn and
transformed as (n, d, d), every entry quantized before the diagonal is
rewritten, and the solve copying blocks into a trials-last buffer. Both
read the same Philox draws in the same order, so every estimate, sample
count and bit count must agree to the last bit.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from corrlink.errors import ConfigurationError
from corrlink.estimators import (
    _DRAW_BLOCK,
    _XVEC_BLOCK,
    TrialBatch,
    stopping_matrix_batch,
    xvec_core_batch,
)
from corrlink.linalg import CorrelationMatrix, _row_sums
from corrlink.protocol import (
    _SQRT3,
    LedgerMode,
    QuantizedPayload,
    StoppingSetParams,
    _midpoint,
    _stopping_crossing_prob,
    allocate_bits_xvec,
    golomb_length_array,
    golomb_parameter,
    quantize_W_matrix,
)
from corrlink.sources import (
    GaussianXVec,
    _geometric_index,
    _open_uniform,
    normal_from_uniform,
    substream,
)
from corrlink.statmath import _qinv_unchecked, geometric_entropy, qfunc

DIMS = [1, 2, 3, 4, 8, 9]
# 8,193 ends in a one-trial chunk block and 16,385 in a one-trial third one,
# read through the cursors; a one-trial block's own Sigma_x^1/2 product would
# take another BLAS path. 4,095 to 4,097 straddle the oracle's solve block.
SIZES = [1, 2, _DRAW_BLOCK - 1, _DRAW_BLOCK, _DRAW_BLOCK + 1, 4095, 4096, 4097,
         _XVEC_BLOCK - 1, _XVEC_BLOCK, _XVEC_BLOCK + 1, 16_384, 2 * _XVEC_BLOCK + 1]
# Budgets allocate_bits_xvec accepts; at d = 8 and 9 just above the least feasible ones.
BUDGETS = {1: 40.0, 2: 80.0, 3: 120.0, 4: 160.0, 8: 840.0, 9: 1160.0}


def c_order_stopping_matrix_batch(d, a, b, rng, size):
    """The selection draw on a C-order (size, d, d) stack, every entry transformed."""
    p = _stopping_crossing_prob(a, b, d)
    q_a = float(qfunc(a))
    q_b = float(qfunc(b))
    signs = _open_uniform(rng, (size, d))
    mags = _open_uniform(rng, (size, d))
    mags *= q_a
    _qinv_unchecked(mags, out=mags)
    w = np.empty((size, d, d))
    if d > 1:
        _open_uniform(rng, out=w)
        w *= 1.0 - 2.0 * q_b
        w += q_b
        _qinv_unchecked(w, out=w)
    signs -= 0.5
    np.copysign(mags, signs, out=np.einsum("nii->ni", w))
    return w, _geometric_index(p, rng, (size, d))


def c_order_quantize(w, params):
    """Every entry through the off-diagonal map, then the diagonal rewritten."""
    d = params.d
    out = np.empty_like(w)
    expected = d * d * params.k_q
    if params.k_q > 52:
        out[...] = w
        return QuantizedPayload(out, expected, int(math.ceil(expected)))
    cells = int(math.floor(2.0**params.k_q))
    cells = max(cells - cells % 2, 2)
    half = cells // 2
    a = params.a
    diag = np.diagonal(w, axis1=-2, axis2=-1)
    mag = np.abs(diag)
    _midpoint(mag, a, (_SQRT3 * a - a) / half, half, out=mag)
    mag *= np.sign(diag)
    if params.b > 0.0:
        _midpoint(w, -params.b, 2.0 * params.b / cells, cells, out=out)
    else:
        out.fill(0.0)
    np.einsum("...ii->...i", out)[...] = mag
    return QuantizedPayload(out, expected, math.ceil(d * d * math.log2(cells)))


def c_order_left_solve(w, y, block=4096):
    """Rows x with x W = y, each block copied to a trials-last (d, d + 1, block) buffer."""
    n, d = y.shape
    x = np.empty((n, d))
    buf = np.empty((d, d + 1, min(n, block)))
    tmp = np.empty((d, buf.shape[-1]))
    for start in range(0, n, block):
        stop = min(start + block, n)
        a = buf[..., : stop - start]
        np.copyto(a[:, :d], w[start:stop].transpose(2, 1, 0))
        np.copyto(a[:, d], y[start:stop].T)
        for k in range(d - 1):
            np.divide(a[k + 1:, k], a[k, k], out=a[k + 1:, k])
            t = tmp[: d - k, : stop - start]
            for i in range(k + 1, d):
                np.multiply(a[i, k], a[k, k + 1:], out=t)
                a[i, k + 1:] -= t
        xb = a[:, d]
        for k in range(d - 1, -1, -1):
            xb[k] /= a[k, k]
            if k:
                t = tmp[:k, : stop - start]
                np.multiply(a[:k, k], xb[k], out=t)
                xb[:k] -= t
        x[start:stop] = xb.T
    return x


def c_order_xvec_core_batch(model, params, rng, size, mode):
    """The C-order chunk: y by einsum over the stack, then quantize and solve."""
    d = model.dim
    w, gaps = c_order_stopping_matrix_batch(d, params.a, params.b, rng, size)
    y = normal_from_uniform(rng, (size, d))
    y *= math.sqrt(model.noise_var)
    y += np.einsum("j,njl->nl", model.whitened_rho, w)
    bits_expected = d * geometric_entropy(params.crossing_prob)
    realized = None
    if mode is LedgerMode.REALIZED:
        m_code = golomb_parameter(params.crossing_prob)
        realized = _row_sums(golomb_length_array(gaps.reshape(-1), m_code).reshape(size, d))
    samples = _row_sums(gaps)
    if params.k_q > 0.0:
        q = c_order_quantize(w, params)
        w = q.values
        bits_expected += q.bits_expected
        if realized is not None:
            realized = realized + q.bits_realized
    return TrialBatch(
        estimates=c_order_left_solve(w, y) @ model.sqrt_sigma_x,
        truth=model.true_correlations(),
        bits_expected=bits_expected,
        bits_realized=realized,
        samples=samples,
    )


def model_and_params(d, quantized):
    rho = np.linspace(0.4, -0.3, d) if d > 1 else np.array([0.6])
    sigma = CorrelationMatrix.equicorrelated(d, 0.2) if d > 1 else CorrelationMatrix.identity(1)
    params = allocate_bits_xvec(BUDGETS[d], d)
    return GaussianXVec(rho=rho, sigma_x=sigma), params if quantized else replace(params, k_q=0.0)


def stream_position(rng):
    """A Philox generator's counter, buffer position and buffered 32-bit half."""
    state = rng.bit_generator.state
    return (state["state"]["counter"].tolist(), state["buffer_pos"], state["has_uint32"],
            state["uinteger"])


def assert_same_bits(batch, oracle):
    assert batch.estimates.shape == oracle.estimates.shape
    assert batch.estimates.tobytes("F") == oracle.estimates.tobytes("F")
    assert batch.samples.tobytes() == oracle.samples.tobytes()
    assert float(batch.bits_expected).hex() == float(oracle.bits_expected).hex()
    if oracle.bits_realized is None:
        assert batch.bits_realized is None
    else:
        assert batch.bits_realized.dtype == oracle.bits_realized.dtype
        assert batch.bits_realized.tobytes() == oracle.bits_realized.tobytes()


class TestEntryMajorChunk:
    @pytest.mark.parametrize("mode", list(LedgerMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("quantized", [False, True], ids=["exact", "quantized"])
    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("d", DIMS)
    def test_core_batch_matches_c_order_chunk(self, d, size, quantized, mode):
        model, params = model_and_params(d, quantized)
        key = 1000 * d + size
        if mode is LedgerMode.REALIZED and d >= 8:
            # Every valid stopping set at d >= 8 has gaps beyond 2^53, so
            # realized accounting refuses the chunk on both paths.
            for run in (xvec_core_batch, c_order_xvec_core_batch):
                with pytest.raises(ConfigurationError, match="exact float64 integer range"):
                    run(model, params, substream(5, key), size, mode)
            return
        rng, oracle_rng = substream(5, key), substream(5, key)
        batch = xvec_core_batch(model, params, rng, size, mode)
        assert batch.estimates.flags.f_contiguous
        assert_same_bits(batch, c_order_xvec_core_batch(model, params, oracle_rng, size, mode))
        # The generator is left where the in-order draw leaves it.
        assert stream_position(rng) == stream_position(oracle_rng)
        np.testing.assert_array_equal(rng.random(8), oracle_rng.random(8))

    @pytest.mark.parametrize("drawn", [0, 1, 3, 4])
    def test_cursors_start_where_the_generator_stands(self, drawn):
        # A chunk may begin part way into the generator's four-double buffer.
        model, params = model_and_params(3, True)
        rng, oracle_rng = substream(8, drawn), substream(8, drawn)
        rng.random(drawn)
        oracle_rng.random(drawn)
        size = _XVEC_BLOCK + 5
        batch = xvec_core_batch(model, params, rng, size)
        assert_same_bits(batch, c_order_xvec_core_batch(model, params, oracle_rng, size,
                                                        LedgerMode.EXPECTED))
        np.testing.assert_array_equal(rng.random(8), oracle_rng.random(8))

    def test_other_bit_generators_run_one_block_and_refuse_more(self):
        # One block reads its generator in order; past one block the draws
        # are read through Philox cursors, so another bit generator is refused
        # before anything is drawn rather than misread.
        model, params = model_and_params(4, True)
        rng, oracle_rng = np.random.default_rng(3), np.random.default_rng(3)
        batch = xvec_core_batch(model, params, rng, _XVEC_BLOCK)
        assert_same_bits(batch, c_order_xvec_core_batch(model, params, oracle_rng, _XVEC_BLOCK,
                                                        LedgerMode.EXPECTED))
        state = rng.bit_generator.state
        with pytest.raises(ConfigurationError, match="needs a Philox generator, got PCG64"):
            xvec_core_batch(model, params, rng, _XVEC_BLOCK + 1)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("size", [1, _DRAW_BLOCK + 1, 4097])
    @pytest.mark.parametrize("d", DIMS)
    def test_selection_draw_matches_c_order_draw(self, d, size):
        # Same matrices, same gaps, and the generator left at the same point:
        # at d = 1 the matrix is its diagonal and no off-diagonal uniforms
        # are drawn.
        _, params = model_and_params(d, True)
        rng, oracle_rng = substream(6, d), substream(6, d)
        w, gaps = stopping_matrix_batch(d, params.a, params.b, rng, size)
        w_ref, gaps_ref = c_order_stopping_matrix_batch(d, params.a, params.b, oracle_rng, size)
        assert w.transpose(1, 2, 0).flags.c_contiguous
        assert w.tobytes() == w_ref.tobytes()
        assert gaps.tobytes() == gaps_ref.tobytes()
        np.testing.assert_array_equal(rng.random(8), oracle_rng.random(8))

    @pytest.mark.parametrize("layout", ["entry-major", "C"])
    @pytest.mark.parametrize("d", [1, 2, 4, 9])
    def test_quantizer_matches_c_order_quantizer(self, d, layout):
        params = StoppingSetParams(a=d * 1.3 + 1.0, b=0.3, d=d, k_l=20.0, k_q=3.0)
        w, _ = stopping_matrix_batch(d, params.a, params.b, substream(7, d), 3_000)
        if layout == "C":
            w = np.ascontiguousarray(w)
        ref = c_order_quantize(w, params)
        fresh = quantize_W_matrix(w, params)
        assert fresh.values.tobytes() == ref.values.tobytes()
        assert fresh.bits_realized == ref.bits_realized
        aliased = quantize_W_matrix(w, params, out=w)
        assert aliased.values is w
        assert w.tobytes() == ref.values.tobytes()
