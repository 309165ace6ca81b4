"""Tests for index coding, selection rules, quantizers, and bit accounting.

The selection rules are checked on the literal walk ``sources.walk_first_hit``
and on the batches the estimators build from the exact shortcuts.
"""

import math
import re

import numpy as np
import pytest
from scipy import stats

from corrlink.analysis import threshold_for_budget
from corrlink.errors import ConfigurationError, DomainError
from corrlink.estimators import (
    clt_trials,
    linear_baseline_trials,
    max_trials,
    stopping_matrix_batch,
    threshold_trials,
    xvec_core_batch,
)
from corrlink.linalg import CorrelationMatrix
from corrlink.protocol import (
    LedgerMode,
    StoppingSetParams,
    allocate_bits_pareto,
    allocate_bits_xvec,
    golomb_decode,
    golomb_encode,
    golomb_length,
    golomb_length_array,
    golomb_parameter,
    quantize_pareto_value,
    quantize_W_matrix,
    stopping_params_from_body_budget,
)
from corrlink.sources import (
    AdditiveNoise,
    BlockAveraged,
    GaussianScalar,
    GaussianXVec,
    StdNormal,
    UnitLaplace,
    UnitUniform,
    draw_first_crossing,
    substream,
    walk_first_hit,
)
from corrlink.statmath import (
    geometric_entropy,
    geometric_entropy_inv,
    max_normal_moments,
    qfunc,
    qfunc_inv,
)
from test_oracles import max_oracle, stopping_set_oracle, threshold_oracle


class FixedDraw:
    """Row draw that replays preset (x, y) arrays in order."""

    def __init__(self, xs, ys):
        self._xs = np.asarray(xs, dtype=float)
        self._ys = np.asarray(ys, dtype=float)
        self._pos = 0

    def __call__(self, rng, n):
        lo, hi = self._pos, self._pos + n
        self._pos = hi
        return self._xs[lo:hi], self._ys[lo:hi]


def xvec_model(d):
    return GaussianXVec(rho=np.zeros(d), sigma_x=CorrelationMatrix.identity(d))


def laplace_block():
    # Block averages of Laplace X have no closed-form crossing law, so the
    # CLT scheme walks them literally.
    return BlockAveraged(AdditiveNoise(0.2, UnitLaplace(), StdNormal()), 4)


class TestGolombCoding:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 8, 10, 16])
    def test_round_trip(self, m):
        for j in range(1, 201):
            word = golomb_encode(j, m)
            assert len(word) == golomb_length(j, m)
            decoded, used = golomb_decode(word, m)
            assert decoded == j and used == len(word)

    @pytest.mark.parametrize("m", [1, 3, 5, 8])
    def test_prefix_free(self, m):
        words = [golomb_encode(j, m) for j in range(1, 81)]
        assert len(set(words)) == len(words)
        for i, a in enumerate(words):
            for b in words[i + 1 :]:
                assert not b.startswith(a) and not a.startswith(b)

    def test_concatenated_stream_decodes(self):
        m = 5
        indices = [1, 17, 3, 42, 8]
        blob = "".join(golomb_encode(j, m) for j in indices)
        pos = 0
        out = []
        while pos < len(blob):
            j, used = golomb_decode(blob[pos:], m)
            out.append(j)
            pos += used
        assert out == indices

    def test_unary_divisor(self):
        for j in range(1, 20):
            assert golomb_encode(j, 1) == "1" * (j - 1) + "0"
            assert golomb_length(j, 1) == j

    def test_power_of_two_divisor_is_rice(self):
        # Divisor 2^b gives a flat b-bit remainder after the unary quotient.
        for j in range(1, 100):
            q = (j - 1) // 8
            assert golomb_length(j, 8) == q + 1 + 3

    def test_parameter_values(self):
        assert golomb_parameter(0.5) == 1
        assert golomb_parameter(0.2) == 4
        assert golomb_parameter(0.01) == 69
        for p in [0.9, 0.5, 0.1, 1e-3, 1e-6]:
            assert golomb_parameter(p) == max(1, math.ceil(-math.log(2.0) / math.log1p(-p)))

    def test_parameter_domain(self):
        for p in [0.0, 1.0, -0.1, 1.5]:
            with pytest.raises(DomainError):
                golomb_parameter(p)

    def test_mean_length_within_one_bit_of_entropy(self):
        # Optimal divisor keeps the average codeword within one bit of the
        # geometric index entropy.
        for p in [0.5, 0.2, 0.05, 0.01]:
            m = golomb_parameter(p)
            j = np.arange(1, int(200 / p))
            probs = p * (1.0 - p) ** (j - 1)
            mean_len = float(np.sum(probs * golomb_length_array(j, m)))
            h = geometric_entropy(p)
            assert h <= mean_len + 1e-9
            assert mean_len <= h + 1.0

    def test_invalid_arguments(self):
        with pytest.raises(DomainError):
            golomb_encode(0, 4)
        with pytest.raises(DomainError):
            golomb_encode(3, 0)
        with pytest.raises(DomainError):
            golomb_length(-2, 4)

    def test_truncated_words_rejected(self):
        with pytest.raises(DomainError):
            golomb_decode("111", 4)
        with pytest.raises(DomainError):
            golomb_decode("0", 5)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 8, 9, 700, 2**20 + 1, 2**31 - 1])
    def test_length_array_matches_scalar(self, m):
        # Every codeword boundary: j - 1 = q m + r with r at 0, thr - 1, thr
        # and m - 1, thr being where the long remainders start, for small and
        # huge quotients, up to the last exactly representable index.
        b = (m - 1).bit_length()
        thr = (1 << b) - m
        top_q = (2**53 - 2) // m
        j = sorted({
            q * m + r + 1
            for q in (0, 1, 2, 3, 1000, top_q // 2, top_q - 1, top_q)
            for r in (0, thr - 1, thr, m - 1)
            if 0 <= r < m and q * m + r + 1 <= 2**53 - 1
        } | {1, 2, 7, 100, 12345, 2**53 - 1})
        got = golomb_length_array(np.array(j, dtype=float), m)
        assert got.dtype == np.int64
        assert got.tolist() == [golomb_length(v, m) for v in j]

    def test_length_array_guards(self):
        with pytest.raises(DomainError):
            golomb_length_array(np.array([0.5]), 4)
        with pytest.raises(ConfigurationError):
            golomb_length_array(np.array([2.0**53]), 4)


class TestBitLedger:
    """Bit accounting, as each ``TrialBatch`` carries it."""

    def test_expected_mode_totals(self):
        # The transform baseline books the sum of its two channels' charges;
        # realized mode adds their codewords trial by trial.
        model = GaussianXVec(rho=np.array([0.4, -0.2]), sigma_x=CorrelationMatrix.identity(2))
        budgets = (6.0, 9.0)
        expected = linear_baseline_trials(model, budgets, np.eye(2), substream(5, 0), 200)
        assert expected.bits_expected == pytest.approx(15.0, abs=1e-6)
        assert expected.bits_realized is None
        realized = linear_baseline_trials(model, budgets, np.eye(2), substream(5, 0), 200,
                                          mode=LedgerMode.REALIZED)
        rng = substream(5, 0)
        runs = [threshold_trials(GaussianScalar(float(r)), k, rng, 200, mode=LedgerMode.REALIZED)
                for r, k in zip(model.rho, budgets)]
        np.testing.assert_array_equal(realized.bits_realized,
                                      runs[0].bits_realized + runs[1].bits_realized)

    def test_negative_charge_rejected(self):
        # A budget that cannot pay for an index is refused before any draw.
        for k in (0.0, -1.0):
            with pytest.raises(ConfigurationError):
                max_trials(GaussianScalar(0.3), k, substream(0, 0), 4)
            with pytest.raises(ConfigurationError):
                allocate_bits_xvec(k, 2)
            with pytest.raises(ConfigurationError):
                allocate_bits_pareto(k, 4.0)
            with pytest.raises(DomainError):
                threshold_trials(GaussianScalar(0.3), k, substream(0, 0), 4)

    def test_nan_charge_allowed(self):
        # The literal walk has no closed-form index cost: it books NaN
        # expected bits, and that alone fails no trial.
        batch = clt_trials(laplace_block(), 4.0, substream(3, 0), 50)
        assert math.isnan(batch.bits_expected)
        assert not batch.failed.any()
        assert np.isfinite(batch.estimates).all()

    def test_realized_mode_requires_codeword(self):
        # Realized mode gives every trial a whole codeword of at least one
        # bit; expected mode books none.
        fixed = max_trials(GaussianScalar(0.3), 6, substream(7, 0), 100, mode=LedgerMode.REALIZED)
        assert np.all(fixed.bits_realized == 6)
        batch = threshold_trials(GaussianScalar(0.3), 6.0, substream(7, 1), 100,
                                 mode=LedgerMode.REALIZED)
        assert np.issubdtype(batch.bits_realized.dtype, np.integer)
        assert batch.bits_realized.min() >= 1
        assert threshold_trials(GaussianScalar(0.3), 6.0, substream(7, 1), 100).bits_realized is None


class TestTranscript:
    """What a transcript's indices and sample count satisfy, on the walks and batches."""

    def test_indices_must_increase(self):
        # Each stopping-set gap is a whole number of rows, at least one, so
        # the cumulative selection indices strictly increase.
        _, walked = stopping_set_oracle(xvec_model(3), 1.0, 1.5, substream(31, 0), 2000)
        _, direct = stopping_matrix_batch(3, 1.0, 1.5, substream(31, 1), 2000)
        for gaps in (walked, direct):
            assert np.all(gaps >= 1) and np.all(gaps == np.floor(gaps))
            assert np.all(np.diff(np.cumsum(gaps, axis=1), axis=1) > 0)

    def test_samples_cover_last_index(self):
        # A trial's sample count is the index of its last selection: the sum
        # of the stopping-set gaps, drawn first from the same substream.
        params = StoppingSetParams(a=2.7, b=0.3, d=2, k_l=10.0, k_q=4.0)
        batch = xvec_core_batch(xvec_model(2), params, substream(33, 0), 500, quantize=False)
        _, gaps = stopping_matrix_batch(2, params.a, params.b, substream(33, 0), 500)
        np.testing.assert_array_equal(batch.samples, gaps.sum(axis=1))
        # A crossing trial stops reading at its index.
        model, k = GaussianScalar(0.3), 8.0
        batch = threshold_trials(model, k, substream(33, 1), 500)
        crossing = draw_first_crossing(model, threshold_for_budget(k), substream(33, 1), 500)
        np.testing.assert_array_equal(batch.samples, crossing.index)


class TestSelectMaxIndex:
    def test_picks_argmax(self):
        # One block of four rows, walked to the row holding the block's largest X.
        draw = FixedDraw([0.1, 2.0, -1.0, 0.5], [1.0, 2.0, 3.0, 4.0])
        sel = walk_first_hit(draw, lambda x: x == x.max(), 0.25, None, 1, 4)
        assert sel.index.tolist() == [2.0]
        assert sel.x[0] == 2.0 and sel.y[0] == 2.0
        assert not sel.capped.any()

    def test_power_of_two_budget(self):
        batch = max_trials(GaussianScalar(0.0), 10, substream(3, 0), 50, mode=LedgerMode.REALIZED)
        assert batch.bits_expected == pytest.approx(10.0)
        assert np.all(batch.bits_realized == 10)
        assert np.all(batch.samples == 2**10)

    def test_rejects_non_power_of_two(self):
        # Blocks of 0, 1, 6 and 100 rows: budgets of no bits or a fraction of one.
        for k in [-math.inf, 0, math.log2(6), math.log2(100)]:
            with pytest.raises(ConfigurationError):
                max_trials(GaussianScalar(0.0), k, substream(3, 0), 4)
        assert max_trials(GaussianScalar(0.0), 3.0, substream(3, 0), 4).bits_expected == 3.0

    def test_selected_value_moments(self):
        # The transmitted X is the block maximum; its mean must match the
        # quadrature moments.
        mom = max_normal_moments(8)
        _, x, _ = max_oracle(GaussianScalar(0.3), 3, substream(7, 0), 4000)
        se = math.sqrt(mom.variance / x.size)
        assert abs(x.mean() - mom.mean) < 5 * se


class TestSelectThresholdIndex:
    def test_matches_replayed_stream(self):
        model, t, n = GaussianScalar(0.4), 0.5, 40
        p = model.crossing_prob(t)
        take = math.ceil(1.0 / p)
        batch = walk_first_hit(model.draw_pairs, lambda x: x > t, p, substream(11, 0), n, 10**6)
        xs, ys = model.draw_pairs(substream(11, 0), n * take)
        mask = (xs > t).reshape(n, take)
        hit = mask.any(axis=1)
        assert 0 < hit.sum() < n
        first = mask.argmax(axis=1)
        rows = np.arange(n) * take + first
        np.testing.assert_array_equal(batch.index[hit], first[hit] + 1)
        np.testing.assert_array_equal(batch.x[hit], xs[rows[hit]])
        np.testing.assert_array_equal(batch.y[hit], ys[rows[hit]])
        # Trials with no hit in their first slab are carried to the next one.
        assert np.all(batch.index[~hit] > take) and np.all(batch.x[~hit] > t)
        assert not batch.capped.any()

    def test_expected_bits_at_even_odds(self):
        # A 2-bit budget is crossing probability 1/2: threshold 0, and on
        # average two rows read.
        assert geometric_entropy_inv(2.0) == pytest.approx(0.5, abs=1e-12)
        batch = threshold_trials(GaussianScalar(0.0), 2.0, substream(5, 0), 20_000)
        assert batch.bits_expected == pytest.approx(2.0)
        se = math.sqrt(2.0 / batch.n)
        assert abs(batch.samples.mean() - 2.0) < 5 * se

    def test_expected_bits_hit_budget(self):
        # The threshold is set so that the model's own crossing probability
        # costs exactly the budget.
        t = qfunc_inv(geometric_entropy_inv(20.0))
        model = GaussianScalar(0.0)
        assert geometric_entropy(model.crossing_prob(t)) == pytest.approx(20.0, abs=1e-6)
        batch = threshold_trials(model, 20.0, substream(5, 1), 10)
        assert batch.bits_expected == pytest.approx(20.0, abs=1e-6)

    def test_realized_mode_charges_codeword(self):
        p = 0.1
        k = geometric_entropy(p)
        m = golomb_parameter(geometric_entropy_inv(k))
        batch = threshold_trials(GaussianScalar(0.0), k, substream(1000, 0), 300,
                                 mode=LedgerMode.REALIZED)
        want = [golomb_length(int(j), m) for j in batch.samples]
        assert batch.bits_realized.tolist() == want
        assert geometric_entropy(p) - 0.5 < batch.bits_realized.mean() < geometric_entropy(p) + 1.0

    def test_realized_mean_within_one_bit(self):
        # Codeword-length accounting for geometric indices stays within one
        # bit of the entropy charge at scale.
        p = 0.03
        m = golomb_parameter(p)
        rng = substream(77, 0)
        j = rng.geometric(p, size=100000)
        mean_len = golomb_length_array(j, m).mean()
        h = geometric_entropy(p)
        assert h - 0.05 < mean_len < h + 1.0

    def test_wait_cap(self):
        # Past the cap a walk stops: the trial is flagged, its index is the
        # cap and its payloads are NaN.
        model = AdditiveNoise(0.3, UnitUniform(), StdNormal())
        t = 1.7
        batch = walk_first_hit(model.draw_pairs, lambda x: x > t, model.crossing_prob(t),
                               substream(21, 0), 200, 2)
        assert batch.capped.any() and not batch.capped.all()
        assert np.all(batch.index[batch.capped] == 2)
        assert np.isnan(batch.x[batch.capped]).all() and np.isnan(batch.y[batch.capped]).all()
        assert np.all(batch.x[~batch.capped] > t) and np.all(batch.index[~batch.capped] <= 2)

    def test_impossible_threshold(self):
        # Uniform X never exceeds sqrt(3), so neither sampler can cross 2.
        model = AdditiveNoise(0.3, UnitUniform(), StdNormal())
        assert model.crossing_prob(2.0) == 0.0
        with pytest.raises(ConfigurationError):
            draw_first_crossing(model, 2.0, substream(21, 1), 4)
        with pytest.raises(ConfigurationError):
            threshold_oracle(model, 2.0, substream(21, 2), 4)

    def test_realized_needs_crossing_prob(self):
        with pytest.raises(ConfigurationError, match="closed-form crossing probability"):
            clt_trials(laplace_block(), 4.0, substream(3, 1), 10, mode=LedgerMode.REALIZED)

    def test_no_closed_form_charges_nan(self):
        block = laplace_block()
        assert block.crossing_prob(threshold_for_budget(4.0)) is None
        batch = clt_trials(block, 4.0, substream(3, 2), 20, cap=4096)
        assert math.isnan(batch.bits_expected)
        assert batch.bits_realized is None

    def test_default_wait_cap(self):
        # Without a cap the walk reads up to 4096 * 1024 rows a trial, far
        # beyond any trial at this budget.
        default = clt_trials(laplace_block(), 4.0, substream(9, 0), 200)
        explicit = clt_trials(laplace_block(), 4.0, substream(9, 0), 200, cap=4096 * 1024)
        assert not default.failed.any()
        np.testing.assert_array_equal(default.samples, explicit.samples)
        np.testing.assert_array_equal(default.estimates, explicit.estimates)


class TestStoppingSetParams:
    def test_crossing_prob_formula(self):
        params = StoppingSetParams(a=3.0, b=0.4, d=2, k_l=10.0, k_q=4.0)
        want = 2.0 * qfunc(3.0) * (1.0 - 2.0 * qfunc(0.4))
        assert params.crossing_prob == pytest.approx(want, rel=1e-12)

    def test_scalar_case_drops_weak_constraint(self):
        params = StoppingSetParams(a=2.0, b=0.0, d=1, k_l=8.0, k_q=4.0)
        assert params.crossing_prob == pytest.approx(2.0 * qfunc(2.0), rel=1e-12)

    def test_geometry_preconditions(self):
        with pytest.raises(ConfigurationError):
            StoppingSetParams(a=2.7, b=0.4, d=2, k_l=10.0, k_q=4.0)
        with pytest.raises(ConfigurationError):
            StoppingSetParams(a=3.0, b=-0.1, d=2, k_l=10.0, k_q=4.0)
        with pytest.raises(ConfigurationError):
            StoppingSetParams(a=3.0, b=0.4, d=0, k_l=10.0, k_q=4.0)

    def test_degenerate_crossing_prob(self):
        # b = 0 in dimension 2 leaves no room for the weak coordinates.
        with pytest.raises(ConfigurationError):
            StoppingSetParams(a=3.0, b=0.0, d=2, k_l=10.0, k_q=4.0)


class TestSelectStoppingSets:
    PARAMS = StoppingSetParams(a=1.2, b=0.0, d=1, k_l=4.0, k_q=4.0)

    def test_selected_geometry(self):
        # The literal walk selects, for each column, a strong target
        # coordinate and weak others.
        params = StoppingSetParams(a=2.7, b=0.3, d=2, k_l=10.0, k_q=4.0)
        w, gaps = stopping_set_oracle(xvec_model(2), params.a, params.b, substream(31, 1), 200)
        assert w.shape == (200, 2, 2) and gaps.shape == (200, 2)
        for ell in range(2):
            assert np.all(np.abs(w[:, ell, ell]) > params.a)
            for j in range(2):
                if j != ell:
                    assert np.all(np.abs(w[:, j, ell]) < params.b)

    def test_expected_bits(self):
        params = StoppingSetParams(a=2.7, b=0.3, d=2, k_l=10.0, k_q=4.0)
        batch = xvec_core_batch(xvec_model(2), params, substream(33, 2), 50, quantize=False)
        h = geometric_entropy(params.crossing_prob)
        assert batch.bits_expected == pytest.approx(2 * h)
        assert batch.bits_realized is None

    def test_realized_charges_gap_codewords(self):
        params = StoppingSetParams(a=2.7, b=0.3, d=2, k_l=10.0, k_q=4.0)
        batch = xvec_core_batch(xvec_model(2), params, substream(35, 0), 300,
                                quantize=False, mode=LedgerMode.REALIZED)
        _, gaps = stopping_matrix_batch(2, params.a, params.b, substream(35, 0), 300)
        m = golomb_parameter(params.crossing_prob)
        want = golomb_length_array(gaps.reshape(-1), m).reshape(300, 2).sum(axis=1)
        np.testing.assert_array_equal(batch.bits_realized, want)

    def test_gap_distribution(self):
        # Literal walk gaps follow the geometric law of the crossing event.
        p = self.PARAMS.crossing_prob
        a = self.PARAMS.a
        gaps = walk_first_hit(xvec_model(1).draw_whitened, lambda w: np.abs(w[:, 0]) > a, p,
                              substream(100, 0), 4000, 4096).index
        kmax = 12
        obs = np.array([np.sum(gaps == j) for j in range(1, kmax + 1)] + [np.sum(gaps > kmax)])
        probs = np.array([p * (1 - p) ** (j - 1) for j in range(1, kmax + 1)] + [(1 - p) ** kmax])
        assert stats.chisquare(obs, gaps.size * probs).pvalue > 0.01

    def test_crossing_frequency(self):
        # Empirical frequency of strong-here-weak-there over raw whitened draws.
        rng = substream(41, 0)
        w = rng.standard_normal((1000000, 2))
        hit = (np.abs(w[:, 0]) > 3.0) & (np.abs(w[:, 1]) < 1.0)
        p = 2.0 * qfunc(3.0) * (1.0 - 2.0 * qfunc(1.0))
        se = math.sqrt(p * (1 - p) / w.shape[0])
        assert abs(hit.mean() - p) < 5 * se

    def test_dimension_mismatch(self):
        params = StoppingSetParams(a=2.7, b=0.3, d=2, k_l=10.0, k_q=4.0)
        with pytest.raises(ConfigurationError):
            xvec_core_batch(xvec_model(3), params, substream(1, 0), 4, quantize=False)

    def test_wait_cap(self):
        a, b, cap = 5.0, 0.3, 64
        p = 2.0 * qfunc(a) * (1.0 - 2.0 * qfunc(b))

        def hit(w):
            return (np.abs(w[:, 0]) > a) & (np.abs(w[:, 1]) < b)

        batch = walk_first_hit(xvec_model(2).draw_whitened, hit, p, substream(1, 1), 20, cap)
        assert batch.capped.all()
        assert np.all(batch.index == cap) and np.isnan(batch.x).all()


def bits(x: np.ndarray) -> np.ndarray:
    """The float64 bit patterns, which tell -0.0 from 0.0."""
    return x.view(np.uint64)


def matrix_cells(k_q: float) -> int:
    """The matrix alphabet: 2^k_q cells rounded down to an even count, at least two."""
    cells = int(math.floor(2.0**k_q))
    cells -= cells % 2
    return max(cells, 2)


class TestQuantizeWMatrix:
    PARAMS = StoppingSetParams(a=3.2, b=0.4, d=2, k_l=20.0, k_q=8.0)

    def draw(self, n, seed=0):
        from corrlink.estimators import stopping_matrix_batch

        w, _ = stopping_matrix_batch(2, 3.2, 0.4, substream(seed, 0), n)
        return w

    def test_identity_at_fine_budgets(self):
        params = StoppingSetParams(a=3.2, b=0.4, d=2, k_l=20.0, k_q=60.0)
        w = self.draw(1)[0]
        payload = quantize_W_matrix(w, params)
        assert np.array_equal(payload.values, w)
        assert payload.bits_expected == pytest.approx(4 * 60.0)

    def test_cell_width_bounds(self):
        params = StoppingSetParams(a=4.5, b=1.0, d=2, k_l=20.0, k_q=6.0)
        rng = substream(3, 0)
        for _ in range(200):
            w = np.diag((4.5 + 2.8 * rng.random(2)) * np.sign(rng.random(2) - 0.5))
            w[0, 1], w[1, 0] = rng.uniform(-1.0, 1.0, 2)
            out = quantize_W_matrix(w, params).values
            off = ~np.eye(2, dtype=bool)
            assert np.all(np.abs(out[off] - w[off]) <= 2.0 * 1.0 / 2**6 + 1e-12)

    def test_preserves_selection_geometry(self):
        # Quantized matrices keep strong diagonals and weak off-diagonals, so
        # the invertibility margin survives transmission.
        w = self.draw(500, seed=5)
        for i in range(w.shape[0]):
            out = quantize_W_matrix(w[i], self.PARAMS).values
            assert np.all(np.abs(np.diag(out)) >= self.PARAMS.a)
            assert np.all(np.sign(np.diag(out)) == np.sign(np.diag(w[i])))
            off = ~np.eye(2, dtype=bool)
            assert np.all(np.abs(out[off]) <= self.PARAMS.b)

    def test_idempotent(self):
        w = self.draw(50, seed=7)
        for i in range(w.shape[0]):
            once = quantize_W_matrix(w[i], self.PARAMS).values
            twice = quantize_W_matrix(once, self.PARAMS).values
            assert np.array_equal(once, twice)

    def test_bit_charges(self):
        payload = quantize_W_matrix(self.draw(1)[0], self.PARAMS)
        assert payload.bits_expected == pytest.approx(4 * 8.0)
        assert payload.bits_realized == math.ceil(4 * math.log2(256))

    def test_mean_square_error_bound(self):
        # Clamp-plus-cell-width bound on the matrix distortion, with wide margin.
        params = self.PARAMS
        a, b, d = params.a, params.b, params.d
        c = math.sqrt(3.0) * a
        cells = 2**8
        eps1 = 2.0 * (c - a) / cells
        eps2 = 2.0 * b / cells
        bound = 8.0 * d * c * c * math.exp(-(c * c - a * a) / 2.0) + d * d * (eps1 + eps2) ** 2
        w = self.draw(3000, seed=9)
        err = 0.0
        for i in range(w.shape[0]):
            out = quantize_W_matrix(w[i], params).values
            err += float(np.sum((out - w[i]) ** 2))
        err /= w.shape[0]
        assert err <= 0.01 * bound

    def test_shape_check(self):
        with pytest.raises(ConfigurationError):
            quantize_W_matrix(np.eye(3), self.PARAMS)

    @staticmethod
    def reference(w, params):
        """Boolean-mask form of the quantizer: gather the diagonal and the rest."""
        if params.k_q > 52:
            return w.copy()
        d = params.d
        cells = matrix_cells(params.k_q)
        half = cells // 2
        a = params.a
        step_diag = (math.sqrt(3.0) * a - a) / half
        out = np.empty_like(w)
        eye = np.eye(d, dtype=bool)
        diag = w[..., eye]
        idx = np.clip(np.floor((np.abs(diag) - a) / step_diag), 0, half - 1)
        out[..., eye] = np.sign(diag) * (a + (idx + 0.5) * step_diag)
        if params.b > 0.0:
            step_off = 2.0 * params.b / cells
            vals = np.clip(w[..., ~eye], -params.b, params.b)
            oidx = np.clip(np.floor((vals + params.b) / step_off), 0, cells - 1)
            out[..., ~eye] = -params.b + (oidx + 0.5) * step_off
        else:
            out[..., ~eye] = 0.0
        return out

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("b,k_q", [(0.3, 1.5), (0.3, 5.0), (0.0, 3.0), (0.3, 60.0)])
    def test_in_place_matches_out_of_place(self, d, b, k_q):
        from types import SimpleNamespace

        from corrlink.estimators import stopping_matrix_batch

        a = d * 1.3 + 1.0
        # b = 0 has no valid crossing probability at d > 1, so the quantizer,
        # which reads only a, b, d and k_q, gets those four directly.
        params = SimpleNamespace(a=a, b=b, d=d, k_l=20.0, k_q=k_q)
        w, _ = stopping_matrix_batch(d, a, 0.3, substream(11, d), 3_000)
        # Entries past both clamps, a zero diagonal and a negative zero.
        w[:50] = 3.0 * a * substream(12, d).standard_normal((50, d, d))
        w[50, 0, 0], w[51, d - 1, d - 1] = 0.0, -0.0
        before = w.copy()
        fresh = quantize_W_matrix(w, params)
        np.testing.assert_array_equal(bits(w), bits(before))
        np.testing.assert_array_equal(bits(fresh.values), bits(self.reference(w, params)))
        aliased = quantize_W_matrix(w, params, out=w)
        assert aliased.values is w
        np.testing.assert_array_equal(bits(w), bits(fresh.values))
        assert (aliased.bits_expected, aliased.bits_realized) == (
            fresh.bits_expected, fresh.bits_realized)


class TestQuantizePareto:
    def test_midpoint_cells(self):
        payload = quantize_pareto_value(1.6, 1.0, 3.0, 2.0)
        assert payload.values == pytest.approx(1.75)
        assert payload.bits_expected == 2.0
        assert payload.bits_realized == 2
        assert abs(payload.values - 1.6) <= (3.0 - 1.0) / 2**2

    def test_single_cell(self):
        payload = quantize_pareto_value(2.9, 1.0, 3.0, 0.0)
        assert payload.values == pytest.approx(2.0)
        assert payload.bits_realized == 0

    def test_saturates_above_upper_edge(self):
        payload = quantize_pareto_value(8.0, 1.0, 3.0, 4.0)
        assert payload.values == pytest.approx(3.0)

    def test_error_within_cell_width(self):
        rng = substream(13, 0)
        for _ in range(300):
            x = float(rng.uniform(1.0, 3.0))
            payload = quantize_pareto_value(x, 1.0, 3.0, 5.0)
            assert abs(float(payload.values) - x) <= 2.0 / 2**5

    def test_array_matches_each_value(self):
        xs = np.array([1.01, 1.6, 2.2, 2.9, 3.0, 8.0])
        payload = quantize_pareto_value(xs, 1.0, 3.0, 3.0)
        assert payload.values.shape == xs.shape
        for x, value in zip(xs, payload.values):
            assert value == quantize_pareto_value(x, 1.0, 3.0, 3.0).values

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            quantize_pareto_value(np.array([1.5, 0.9]), 1.0, 3.0, 2.0)
        with pytest.raises(DomainError):
            quantize_pareto_value(0.9, 1.0, 3.0, 2.0)
        with pytest.raises(ConfigurationError):
            quantize_pareto_value(1.5, 3.0, 1.0, 2.0)


class TestSharedMidpointMap:
    """The matrix and Pareto quantizers share one midpoint map.

    The references are the three maps as each quantizer once wrote it out:
    the diagonal magnitudes, the off-diagonals after a clip to [-b, b], and
    the Pareto value through np.minimum with saturation above u.
    """

    @staticmethod
    def reference_matrix(w, a, b, cells):
        half = cells // 2
        step_diag = (math.sqrt(3.0) * a - a) / half
        diag = np.diagonal(w, axis1=-2, axis2=-1)
        mag = np.abs(diag)
        mag -= a
        mag /= step_diag
        np.floor(mag, out=mag)
        np.clip(mag, 0, half - 1, out=mag)
        mag += 0.5
        mag *= step_diag
        mag += a
        mag *= np.sign(diag)
        out = np.empty_like(w)
        if b > 0.0:
            step_off = 2.0 * b / cells
            np.clip(w, -b, b, out=out)
            out += b
            out /= step_off
            np.floor(out, out=out)
            np.clip(out, 0, cells - 1, out=out)
            out += 0.5
            out *= step_off
            out -= b
        else:
            out.fill(0.0)
        np.einsum("...ii->...i", out)[...] = mag
        return out

    @staticmethod
    def reference_pareto(x, t, u, cells):
        step = (u - t) / cells
        idx = np.minimum(np.floor((x - t) / step), cells - 1)
        return np.where(x > u, u, t + (idx + 0.5) * step)

    # Budgets giving 2, 4, 6 and 200 cells to both quantizers.
    K_Q = [1.0, 2.0, 2.6, 7.65]

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("b", [0.0, 0.4])
    @pytest.mark.parametrize("k_q", K_Q)
    def test_matrix_matches_the_written_out_maps(self, d, b, k_q):
        from types import SimpleNamespace

        a = d * 1.3 + 1.0
        cells = matrix_cells(k_q)
        assert cells == {1.0: 2, 2.0: 4, 2.6: 6, 7.65: 200}[k_q]
        params = SimpleNamespace(a=a, b=b, d=d, k_l=20.0, k_q=k_q)
        step_diag = (math.sqrt(3.0) * a - a) / (cells // 2)
        edges = [a + i * step_diag for i in range(cells // 2 + 1)]
        edges += [-b + i * 2.0 * b / cells for i in range(cells + 1)]
        special = [0.0, -0.0, math.inf, -math.inf, a, -a, math.sqrt(3.0) * a,
                   -math.sqrt(3.0) * a, b, -b, 3.0 * a]
        pool = np.array(special + edges + [-e for e in edges])
        rng = substream(21, d)
        w = rng.choice(pool, size=(4_000, d, d))
        w[:1_000] = 2.0 * a * rng.standard_normal((1_000, d, d))
        want = self.reference_matrix(w, a, b, cells)
        before = w.copy()
        fresh = quantize_W_matrix(w, params)
        np.testing.assert_array_equal(bits(w), bits(before))
        np.testing.assert_array_equal(bits(fresh.values), bits(want))
        assert fresh.bits_realized == max(int(math.ceil(d * d * math.log2(cells))), 1)
        aliased = quantize_W_matrix(w, params, out=w)
        assert aliased.values is w
        np.testing.assert_array_equal(bits(w), bits(want))
        assert aliased.bits_realized == fresh.bits_realized

    @pytest.mark.parametrize("k_q", [0.0] + K_Q)
    def test_pareto_matches_the_written_out_map(self, k_q):
        t, u = 1.7, 1.7 ** 4.0
        cells = max(1, int(math.floor(2.0**k_q)))
        step = (u - t) / cells
        edges = [t + i * step for i in range(1, cells + 1)]
        xs = np.array([np.nextafter(t, math.inf), u, np.nextafter(u, math.inf), 2.0 * u,
                       math.inf, *edges, *substream(22, cells).uniform(t, 1.2 * u, 500)])
        want = self.reference_pareto(xs, t, u, cells)
        payload = quantize_pareto_value(xs, t, u, k_q)
        np.testing.assert_array_equal(bits(payload.values), bits(want))
        assert payload.bits_realized == (int(math.ceil(math.log2(cells))) if cells > 1 else 0)
        for x in xs[:5]:
            one = quantize_pareto_value(float(x), t, u, k_q).values
            assert one.shape == () and bits(one) == bits(self.reference_pareto(x, t, u, cells))
        # At or below t, infinities and zeros included, nothing is quantized.
        for x in (t, 0.0, -0.0, -math.inf):
            with pytest.raises(DomainError):
                quantize_pareto_value(x, t, u, k_q)


class TestAllocateBitsXVec:
    @pytest.mark.parametrize("k,d", [(100.0, 2), (200.0, 2), (400.0, 3)])
    def test_budget_exhausted_exactly(self, k, d):
        params = allocate_bits_xvec(k, d)
        assert d * params.k_l + d * d * params.k_q == pytest.approx(k, rel=1e-9)

    def test_index_cost_constraint_exact(self):
        params = allocate_bits_xvec(400.0, 2, b0=0.3)
        assert geometric_entropy(params.crossing_prob) == pytest.approx(params.k_l, abs=1e-6)

    def test_scalar_dimension_formula(self):
        params = allocate_bits_xvec(100.0, 1, b0=0.0)
        assert params.k_l == pytest.approx((math.sqrt(101.0) - 1.0) ** 2)
        # With no weak coordinates, a zero weak bound is valid.
        assert stopping_params_from_body_budget(60.0, 1, 0.0).b == 0.0

    def test_index_share_approaches_reciprocal_dimension(self):
        # The largest budget whose crossing probability still fits in float64.
        params = allocate_bits_xvec(2000.0, 2)
        assert params.k_l / 2000.0 == pytest.approx(0.5, rel=0.1)

    def test_overlarge_budget_reports_float_limit(self):
        with pytest.raises(ConfigurationError, match="representable crossing range"):
            allocate_bits_xvec(1e4, 2)
        # Q(d(b0 + 1)) underflows to 0, so no budget reaches a > d(b0 + 1).
        with pytest.raises(ConfigurationError, match="representable crossing range"):
            allocate_bits_xvec(60.0, 2, b0=18.0)

    def test_infeasible_budget_reports_minimum(self):
        # The reported minimum is the feasibility boundary, not an estimate of it.
        for d in (2, 3, 4):
            with pytest.raises(ConfigurationError, match=r"minimal feasible budget is about \d") as e:
                allocate_bits_xvec(10.0, d)
            k_min = float(re.search(r"about (\S+) bits", str(e.value)).group(1))
            allocate_bits_xvec(k_min * (1.0 + 1e-6), d)
            with pytest.raises(ConfigurationError, match="minimal feasible budget"):
                allocate_bits_xvec(k_min * (1.0 - 1e-6), d)

    @pytest.mark.parametrize("b0,d,match", [
        (0.0, 2, "leaves the weak band"), (0.0, 4, "leaves the weak band"),
        (-0.1, 2, "must be >= 0"), (-0.1, 1, "must be >= 0"), (math.nan, 3, "must be >= 0"),
    ])
    def test_weak_bound_without_a_weak_band_is_rejected(self, b0, d, match):
        with pytest.raises(ConfigurationError, match=match):
            allocate_bits_xvec(400.0, d, b0=b0)
        with pytest.raises(ConfigurationError, match=match):
            stopping_params_from_body_budget(60.0, d, b0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            allocate_bits_xvec(0.0, 2)
        with pytest.raises(ConfigurationError):
            allocate_bits_xvec(100.0, 0)


class TestAllocateBitsPareto:
    def test_split_formulas(self):
        alloc = allocate_bits_pareto(60.0, 4.0)
        assert alloc.k_q == pytest.approx(20.0)
        assert alloc.k_l == pytest.approx(40.0)
        assert alloc.u == pytest.approx(alloc.t**2, rel=1e-12)

    def test_threshold_solves_entropy_equation(self):
        alloc = allocate_bits_pareto(60.0, 4.0)
        x0 = math.sqrt(0.5)
        p = 0.5 * (x0 / alloc.t) ** 4
        assert geometric_entropy(p) == pytest.approx(40.0, abs=1e-8)

    def test_threshold_asymptotics(self):
        # log2(t) approaches k_l / alpha for large budgets.
        alloc = allocate_bits_pareto(600.0, 4.0)
        assert math.log2(alloc.t) / (alloc.k_l / 4.0) == pytest.approx(1.0, rel=0.1)

    def test_infeasible_budgets(self):
        with pytest.raises(ConfigurationError):
            allocate_bits_pareto(3.0, 4.0)
        with pytest.raises(ConfigurationError):
            allocate_bits_pareto(4.5, 4.0)
        with pytest.raises(ConfigurationError):
            allocate_bits_pareto(60.0, 2.0)
