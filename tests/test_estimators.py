"""Monte Carlo and structural tests for the trial batches."""

import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import integrate, special, stats

from corrlink.analysis import (
    crlb_xvec,
    crossing_variance,
    exact_threshold_variance,
    linear_baseline_trace,
    quantization_loss_bound,
    stopping_moment_bracket,
    stopping_second_moment,
    threshold_for_budget,
)
from corrlink.errors import ConfigurationError, TrialFailureError
from corrlink.estimators import (
    clt_trials,
    linear_baseline_plan,
    linear_baseline_trials,
    max_trials,
    pareto_trials,
    stopping_matrix_batch,
    threshold_trials,
    xvec_paired_batch,
    xvec_trials,
    xvec_unquantized_trials,
)
from corrlink.harness import ExperimentConfig
from corrlink.linalg import CorrelationMatrix, sym_sqrt
from corrlink.protocol import (
    LedgerMode,
    StoppingSetParams,
    allocate_bits_pareto,
    quantize_W_matrix,
    stopping_params_from_body_budget,
)
from corrlink.sources import (
    AdditiveNoise,
    BlockAveraged,
    DoublySymmetricBinary,
    GaussianScalar,
    GaussianXVec,
    GaussianYVec,
    ParetoTwoSided,
    StdNormal,
    UnitLaplace,
    UnitUniform,
    substream,
)
from corrlink.statmath import (
    geometric_entropy,
    geometric_entropy_inv,
    inverse_mills,
    max_normal_moments,
    qfunc,
    truncated_normal_moments,
)

SEED = 615243


def assert_mean_close(values, target, n_se=4.0, extra=0.0):
    """Sample mean against a target, tolerance from the sample's own spread."""
    values = np.asarray(values, dtype=float).reshape(-1)
    se = values.std(ddof=1) / math.sqrt(values.size)
    assert abs(values.mean() - target) <= n_se * se + extra


def assert_variance_close(values, target, n_se=4.0):
    """Sample variance against a target, tolerance from the fourth moment."""
    values = np.asarray(values, dtype=float).reshape(-1)
    dev = values - values.mean()
    v = float(np.mean(dev * dev))
    m4 = float(np.mean(dev**4))
    se = math.sqrt(max(m4 - v * v, 1e-300) / values.size)
    assert v == pytest.approx(target, abs=n_se * se)


class TestThresholdTrials:
    @pytest.mark.parametrize("rho", [-0.9, -0.3, 0.0, 0.5, 0.95])
    def test_unbiased(self, rho):
        batch = threshold_trials(GaussianScalar(rho), 20.0, substream(SEED, 1), 100_000)
        assert batch.estimates.shape == (100_000, 1)
        assert batch.truth == pytest.approx([rho])
        assert not batch.failed.any()
        assert_mean_close(batch.estimates[:, 0], rho)

    @pytest.mark.parametrize("rho,k", [(0.5, 20.0), (-0.8, 10.0), (0.0, 40.0)])
    def test_variance_matches_closed_form(self, rho, k):
        batch = threshold_trials(GaussianScalar(rho), k, substream(SEED, 2), 200_000)
        t = threshold_for_budget(k)
        assert_variance_close(batch.estimates[:, 0], exact_threshold_variance(rho, t))

    @pytest.mark.parametrize("k", [10.0, 20.0, 40.0])
    def test_expected_bits_equal_budget(self, k):
        batch = threshold_trials(GaussianScalar(0.3), k, substream(SEED, 3), 10)
        assert batch.bits_expected == pytest.approx(k, abs=1e-6)
        assert batch.bits_realized is None

    def test_realized_bits_near_entropy(self):
        k = 12.0
        batch = threshold_trials(
            GaussianScalar(0.3), k, substream(SEED, 4), 20_000, mode=LedgerMode.REALIZED
        )
        mean_bits = batch.bits_realized.mean()
        assert k - 0.05 <= mean_bits <= k + 1.0
        assert np.issubdtype(batch.bits_realized.dtype, np.integer)
        assert batch.bits_realized.min() >= 1

    def test_samples_mean_is_inverse_crossing_prob(self):
        k = 10.0
        p = geometric_entropy_inv(k)
        batch = threshold_trials(GaussianScalar(0.0), k, substream(SEED, 5), 50_000)
        assert_mean_close(batch.samples, 1.0 / p, n_se=5.0)

    def test_rejects_wrong_model(self):
        # Models without a scalar X law have no threshold to cross.
        vector_x = GaussianXVec(rho=np.array([0.3, 0.2]), sigma_x=CorrelationMatrix.identity(2))
        blocks = BlockAveraged(GaussianScalar(0.5), 4)
        for model in (vector_x, blocks):
            with pytest.raises(ConfigurationError, match="scalar X law"):
                threshold_trials(model, 20.0, substream(SEED, 6), 10)

    @pytest.mark.parametrize("k,t,p_t", [(1.5, -1.0, 0.5), (3.0, 1.0, 0.0)])
    def test_rejects_an_x_law_with_atoms(self, k, t, p_t):
        # The sign law crosses -1 with probability 1/2 and 1 never, so no
        # threshold gives the crossing probability an index of k bits needs.
        model = DoublySymmetricBinary(0.25)
        with pytest.raises(ConfigurationError) as err:
            threshold_trials(model, k, substream(SEED, 7), 10)
        message = str(err.value)
        assert "rademacher X law" in message
        assert f"threshold {t!r} with probability {p_t!r}" in message
        assert repr(geometric_entropy_inv(k)) in message


class TestMaxTrials:
    @pytest.mark.parametrize("rho", [-0.9, 0.0, 0.5])
    def test_unbiased(self, rho):
        batch = max_trials(GaussianScalar(rho), 10, substream(SEED, 11), 100_000)
        assert_mean_close(batch.estimates[:, 0], rho)
        assert not batch.failed.any()

    @pytest.mark.parametrize("rho,k", [(0.5, 10), (0.9, 6)])
    def test_variance_matches_closed_form(self, rho, k):
        batch = max_trials(GaussianScalar(rho), k, substream(SEED, 12), 200_000)
        mm = max_normal_moments(2.0**k)
        assert_variance_close(batch.estimates[:, 0], crossing_variance(rho, mm.variance, mm.mean))

    def test_degenerate_pair_variance_is_scaled_block_maximum(self):
        k = 10
        batch = max_trials(GaussianScalar(1.0), k, substream(SEED, 16), 200_000)
        mm = max_normal_moments(2.0**k)
        assert_variance_close(batch.estimates[:, 0], mm.variance / mm.mean**2)

    def test_block_maximum_law(self):
        # At rho = 1 the estimate is the block maximum over its mean, so the
        # sampler can be checked against the exact CDF Phi(x)^n.
        k = 10
        batch = max_trials(GaussianScalar(1.0), k, substream(SEED, 13), 5_000)
        x = batch.estimates[:, 0] * max_normal_moments(2.0**k).mean
        res = stats.kstest(x, lambda v: stats.norm.cdf(v) ** (2.0**k))
        assert res.pvalue > 1e-3

    def test_accounting_is_fixed_length(self):
        batch = max_trials(GaussianScalar(0.4), 8, substream(SEED, 14), 500,
                           mode=LedgerMode.REALIZED)
        assert batch.bits_expected == 8.0
        assert np.all(batch.bits_realized == 8)
        assert np.all(batch.samples == 256.0)

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ConfigurationError):
            max_trials(GaussianScalar(0.4), 0, substream(SEED, 15), 10)

    @pytest.mark.parametrize("k", [925, 1000, 1024, 10**6, 1e300])
    def test_rejects_budgets_past_924_bits(self, k):
        with pytest.raises(ConfigurationError, match="integer budget of 1 to 924 bits"):
            max_trials(GaussianScalar(0.4), k, substream(SEED, 15), 10)
        with pytest.raises(ConfigurationError, match="integer budget of 1 to 924 bits"):
            ExperimentConfig.from_text(f"scheme = max\ngrid.k = {k}\ngrid.rho = 0.4\n"
                                       "trials = 100\nseed = 0\n")


class TestYVecTrials:
    RHO = np.array([0.8, 0.4, -0.2])

    def model(self):
        return GaussianYVec(rho=self.RHO, sigma_y=CorrelationMatrix.equicorrelated(3, 0.3))

    def test_single_coordinate_matches_scalar_run(self):
        k = 15.0
        vec = GaussianYVec(rho=np.array([0.5]), sigma_y=CorrelationMatrix.identity(1))
        a = threshold_trials(vec, k, substream(SEED, 21), 500)
        b = threshold_trials(GaussianScalar(0.5), k, substream(SEED, 21), 500)
        np.testing.assert_array_equal(a.estimates[:, 0], b.estimates[:, 0])
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_unbiased_per_coordinate(self):
        batch = threshold_trials(self.model(), 20.0, substream(SEED, 22), 200_000)
        assert batch.estimates.shape == (200_000, 3)
        for col in range(3):
            assert_mean_close(batch.estimates[:, col], self.RHO[col])

    def test_per_coordinate_variance_is_scalar_variance(self):
        # Marginally each coordinate runs the scalar scheme at its own
        # correlation; the Y-side coupling moves only the cross terms.
        k = 20.0
        batch = threshold_trials(self.model(), k, substream(SEED, 23), 200_000)
        t = threshold_for_budget(k)
        for col in range(3):
            assert_variance_close(batch.estimates[:, col],
                                  exact_threshold_variance(self.RHO[col], t))

    def test_error_cross_covariance(self):
        k = 20.0
        n = 400_000
        batch = threshold_trials(self.model(), k, substream(SEED, 24), n)
        t = threshold_for_budget(k)
        s = inverse_mills(t)
        tvar = truncated_normal_moments(t).variance
        err = batch.estimates - self.RHO[None, :]
        for i, j in [(0, 1), (0, 2), (1, 2)]:
            want = (self.RHO[i] * self.RHO[j] * tvar
                    + (0.3 - self.RHO[i] * self.RHO[j])) / s**2
            got = float(np.mean(err[:, i] * err[:, j]))
            se = np.std(err[:, i] * err[:, j], ddof=1) / math.sqrt(n)
            assert abs(got - want) <= 5.0 * se

    def test_single_index_bit_charge(self):
        batch = threshold_trials(self.model(), 20.0, substream(SEED, 25), 5_000,
                                 mode=LedgerMode.REALIZED)
        assert batch.bits_expected == pytest.approx(20.0, abs=1e-6)
        assert 19.95 <= batch.bits_realized.mean() <= 21.0


class TestAdditiveTrials:
    @pytest.mark.parametrize("x_law", [UnitLaplace(), UnitUniform(), ParetoTwoSided(4.0)],
                             ids=["laplace", "uniform", "pareto"])
    def test_unbiased(self, x_law):
        model = AdditiveNoise(rho=0.6, x_law=x_law, z_law=StdNormal())
        batch = threshold_trials(model, 16.0, substream(SEED, 31), 100_000)
        assert_mean_close(batch.estimates[:, 0], 0.6)

    @pytest.mark.parametrize("x_law", [UnitLaplace(), UnitUniform()],
                             ids=["laplace", "uniform"])
    def test_variance_matches_closed_form(self, x_law):
        model = AdditiveNoise(rho=0.6, x_law=x_law, z_law=StdNormal())
        k = 16.0
        batch = threshold_trials(model, k, substream(SEED, 32), 200_000)
        t = float(x_law.tail_quantile(geometric_entropy_inv(k)))
        assert_variance_close(batch.estimates[:, 0],
                              crossing_variance(0.6, x_law.tail_variance(t), x_law.tail_mean(t)))

    def test_budget_and_realized(self):
        model = AdditiveNoise(rho=0.2, x_law=UnitLaplace(), z_law=StdNormal())
        batch = threshold_trials(model, 14.0, substream(SEED, 33), 20_000,
                                 mode=LedgerMode.REALIZED)
        assert batch.bits_expected == pytest.approx(14.0, abs=1e-6)
        assert batch.bits_realized.mean() <= 15.0

    @pytest.mark.parametrize("mode", list(LedgerMode))
    def test_gaussian_x_is_the_scalar_gaussian_run_bit_for_bit(self, mode):
        additive = AdditiveNoise(rho=0.5, x_law=StdNormal(), z_law=StdNormal())
        a = threshold_trials(additive, 18.0, substream(SEED, 35), 5_000, mode=mode)
        b = threshold_trials(GaussianScalar(0.5), 18.0, substream(SEED, 35), 5_000, mode=mode)
        np.testing.assert_array_equal(a.estimates, b.estimates)
        np.testing.assert_array_equal(a.samples, b.samples)
        assert a.bits_expected == b.bits_expected
        if mode is LedgerMode.REALIZED:
            np.testing.assert_array_equal(a.bits_realized, b.bits_realized)
        else:
            assert a.bits_realized is None and b.bits_realized is None

    def test_gaussian_x_reduces_to_threshold_scheme(self):
        model = AdditiveNoise(rho=0.5, x_law=StdNormal(), z_law=StdNormal())
        k = 18.0
        batch = threshold_trials(model, k, substream(SEED, 34), 200_000)
        t = threshold_for_budget(k)
        assert_variance_close(batch.estimates[:, 0], exact_threshold_variance(0.5, t))


class TestCltTrials:
    FLIP = 0.25  # doubly symmetric binary pair, correlation 0.5

    def binary_block(self, m):
        return BlockAveraged(DoublySymmetricBinary(self.FLIP), m)

    def binary_conditional(self, m, t):
        b = np.arange(m + 1)
        xbar = (2.0 * b - m) / math.sqrt(m)
        pmf = stats.binom.pmf(b, m, 0.5)
        sel = xbar > t
        p = float(pmf[sel].sum())
        mean = float((xbar * pmf)[sel].sum()) / p
        second = float((xbar**2 * pmf)[sel].sum()) / p
        return p, mean, second - mean**2

    def test_small_block_cannot_cross(self):
        with pytest.raises(ConfigurationError, match="smallest workable block size is 21"):
            clt_trials(self.binary_block(16), 20.0, substream(SEED, 41), 10)

    def test_binary_block_closed_form_path(self):
        k, m = 20.0, 64
        t = threshold_for_budget(k)
        s = inverse_mills(t)
        p, cond_mean, cond_var = self.binary_conditional(m, t)
        batch = clt_trials(self.binary_block(m), k, substream(SEED, 42), 30_000)
        rho = 1.0 - 2.0 * self.FLIP
        # The Gaussian normalization is only asymptotically correct, so the
        # honest target mean is rho E[Xbar | crossing] / s, not rho itself.
        assert_mean_close(batch.estimates[:, 0], rho * cond_mean / s)
        assert_variance_close(batch.estimates[:, 0],
                              (rho**2 * cond_var + 1.0 - rho**2) / s**2)
        h = -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p)) / p
        assert batch.bits_expected == pytest.approx(h, rel=1e-9)
        assert abs(batch.samples.mean() * p - 1.0) < 0.1
        # The lattice makes the realizable crossing cost overshoot the
        # configured budget; the overshoot shrinks as the block grows.
        coarse_gap = abs(batch.bits_expected - k)
        finer = clt_trials(self.binary_block(256), k, substream(SEED, 48), 5)
        assert abs(finer.bits_expected - k) < coarse_gap < 2.0

    def test_gaussian_block_is_exact_at_any_size(self):
        k = 20.0
        batch = clt_trials(BlockAveraged(GaussianScalar(0.5), 4), k,
                           substream(SEED, 43), 100_000)
        t = threshold_for_budget(k)
        assert batch.bits_expected == pytest.approx(k, abs=1e-6)
        assert_mean_close(batch.estimates[:, 0], 0.5)
        assert_variance_close(batch.estimates[:, 0], exact_threshold_variance(0.5, t))

    def literal_model(self):
        inner = AdditiveNoise(rho=0.6, x_law=UnitUniform(), z_law=StdNormal())
        return BlockAveraged(inner, 2)

    def test_literal_scan_path(self):
        k = 6.0
        model = self.literal_model()
        t = threshold_for_budget(k)
        s = inverse_mills(t)
        batch = clt_trials(model, k, substream(SEED, 44), 800, cap=4096)
        assert math.isnan(batch.bits_expected)
        assert batch.bits_realized is None
        assert not batch.failed.any()
        # Sum of two unit-variance uniforms is triangular; integrate its tail
        # to get the exact conditional mean of the block average.
        half = 2.0 * math.sqrt(3.0)
        cut = t * math.sqrt(2.0)
        tail_p = (half - cut) ** 2 / (2.0 * half**2)
        num, _ = integrate.quad(lambda v: v * (half - v) / half**2, cut, half)
        cond_mean = num / tail_p / math.sqrt(2.0)
        assert_mean_close(batch.estimates[:, 0], 0.6 * cond_mean / s, n_se=5.0)
        assert_mean_close(batch.samples, 1.0 / tail_p, n_se=5.0)

    def test_literal_scan_cap_marks_failures(self):
        batch = clt_trials(self.literal_model(), 6.0, substream(SEED, 45), 400, cap=8)
        assert batch.failed.any()
        assert np.isnan(batch.estimates[batch.failed, 0]).all()
        assert np.all(batch.samples[batch.failed] == 8)

    def test_literal_scan_refuses_realized_accounting(self):
        with pytest.raises(ConfigurationError, match="realized accounting"):
            clt_trials(self.literal_model(), 6.0, substream(SEED, 46), 10,
                       mode=LedgerMode.REALIZED)

    def test_requires_block_model(self):
        with pytest.raises(ConfigurationError):
            clt_trials(GaussianScalar(0.5), 20.0, substream(SEED, 47), 10)


class TestParetoTrials:
    def model(self, alpha=4.0, rho=0.6):
        return AdditiveNoise(rho=rho, x_law=ParetoTwoSided(alpha), z_law=StdNormal())

    def test_allocation_passthrough_and_budget(self):
        k = 30.0
        batch, alloc = pareto_trials(self.model(), k, substream(SEED, 51), 100)
        assert alloc == allocate_bits_pareto(k, 4.0)
        assert batch.bits_expected == pytest.approx(k, abs=1e-6)

    def test_mean_within_quantization_bias(self):
        k = 30.0
        batch, alloc = pareto_trials(self.model(), k, substream(SEED, 52), 100_000)
        cells = max(1, int(math.floor(2.0**alloc.k_q)))
        step = (alloc.u - alloc.t) / cells
        # Midpoint cells keep |X / Xhat - 1| below step / (2 t); saturation
        # above u contributes a couple orders of magnitude less.
        bias_bound = 0.6 * step / (2.0 * alloc.t)
        assert_mean_close(batch.estimates[:, 0], 0.6, extra=bias_bound)

    def test_realized_is_index_code_plus_payload(self):
        k = 30.0
        batch, alloc = pareto_trials(self.model(), k, substream(SEED, 53), 20_000,
                                     mode=LedgerMode.REALIZED)
        payload = math.ceil(math.log2(max(1, int(math.floor(2.0**alloc.k_q)))))
        assert batch.bits_realized.min() >= 1 + payload
        assert batch.bits_realized.mean() <= alloc.k_l + 1.0 + payload

    def test_rejects_light_tail_exponent(self):
        with pytest.raises(ConfigurationError, match="exponent > 3"):
            pareto_trials(self.model(alpha=2.5), 30.0, substream(SEED, 54), 10)

    def test_rejects_non_power_law_marginal(self):
        model = AdditiveNoise(rho=0.6, x_law=UnitLaplace(), z_law=StdNormal())
        with pytest.raises(ConfigurationError, match="power-law"):
            pareto_trials(model, 30.0, substream(SEED, 55), 10)


class TestStoppingMatrixBatch:
    D, A, B = 2, 3.2, 0.4

    def draw(self, size, idx=61):
        return stopping_matrix_batch(self.D, self.A, self.B, substream(SEED, idx), size)

    def test_geometry(self):
        w, gaps = self.draw(20_000)
        diag = np.einsum("nii->ni", w)
        off = w[:, [0, 1], [1, 0]]
        assert np.all(np.abs(diag) > self.A)
        assert np.all(np.abs(off) < self.B)
        assert np.issubdtype(gaps.dtype, np.integer) or np.all(gaps >= 1)
        assert np.all(gaps >= 1)

    def test_gap_distribution(self):
        # 1e5 geometric gaps against equal-probability bins at the 1% level.
        w, gaps = self.draw(50_000)
        flat = gaps.reshape(-1)
        p = 2.0 * qfunc(self.A) * (1.0 - 2.0 * qfunc(self.B)) ** (self.D - 1)
        nbins = 16
        qs = np.arange(1, nbins) / nbins
        edges = np.ceil(np.log1p(-qs) / math.log1p(-p))
        counts, _ = np.histogram(flat, bins=np.concatenate(([0.5], edges + 0.5, [np.inf])))
        probs = np.diff(np.concatenate(([0.0], 1.0 - (1.0 - p) ** edges, [1.0])))
        res = stats.chisquare(counts, probs * flat.size)
        assert res.pvalue > 0.01

    def test_strong_coordinate_law(self):
        w, _ = self.draw(20_000)
        diag = np.abs(np.einsum("nii->ni", w)).reshape(-1)
        assert_mean_close(diag, inverse_mills(self.A), n_se=5.0)
        qa = qfunc(self.A)
        res = stats.kstest(diag[:5_000], lambda v: (qa - qfunc(v)) / qa)
        assert res.pvalue > 1e-3
        signs = np.sign(np.einsum("nii->ni", w)).reshape(-1)
        assert abs(signs.mean()) < 5.0 / math.sqrt(signs.size)

    def test_weak_coordinate_law(self):
        w, _ = self.draw(20_000)
        off = w[:, [0, 1], [1, 0]].reshape(-1)
        assert_mean_close(off, 0.0, n_se=5.0)
        body = 1.0 - 2.0 * qfunc(self.B)
        weak_second = 1.0 - 2.0 * self.B * stats.norm.pdf(self.B) / body
        assert_mean_close(off**2, weak_second, n_se=5.0)
        cdf = lambda v: (qfunc(-self.B) - qfunc(v)) / body
        res = stats.kstest(off[:5_000], cdf)
        assert res.pvalue > 1e-3

    def test_row_second_moment_matches_closed_form(self):
        w, _ = self.draw(100_000)
        ww = np.einsum("nij,nkj->nik", w, w)
        alpha = stopping_second_moment(self.A, self.B, self.D)
        assert_mean_close(ww[:, 0, 0], alpha, n_se=5.0)
        assert_mean_close(ww[:, 1, 1], alpha, n_se=5.0)
        assert_mean_close(ww[:, 0, 1], 0.0, n_se=5.0)

    def test_bracket_contains_inverse_second_moment(self):
        lo, hi = stopping_moment_bracket(self.A, self.B, self.D)
        alpha = stopping_second_moment(self.A, self.B, self.D)
        assert lo < 1.0 / alpha < hi

    @staticmethod
    def reference(d, a, b, rng, size):
        """Whole-array form of the sampler: same draws, same arithmetic, new arrays."""
        from corrlink.statmath import qfunc

        p = 2.0 * float(qfunc(a)) * (1.0 - 2.0 * float(qfunc(b))) ** (d - 1)
        q_a, q_b = float(qfunc(a)), float(qfunc(b))

        def open_uniform(shape):
            u = rng.random(shape)
            return np.where(u == 0.0, 2.0**-53, u)

        def qinv(x):
            return math.sqrt(2.0) * special.erfcinv(2.0 * x)

        w = np.empty((size, d, d))
        signs = np.where(open_uniform((size, d)) < 0.5, -1.0, 1.0)
        mags = qinv(open_uniform((size, d)) * q_a)
        if d > 1:
            w[...] = qinv(q_b + open_uniform((size, d, d)) * (1.0 - 2.0 * q_b))
        for ell in range(d):
            w[:, ell, ell] = signs[:, ell] * mags[:, ell]
        gaps = np.maximum(np.ceil(np.log(open_uniform((size, d))) / math.log1p(-p)), 1.0)
        return w, gaps

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_matches_whole_array_reference(self, d):
        a, b = d * 1.3 + 1.0, 0.3
        w, gaps = stopping_matrix_batch(d, a, b, substream(SEED, 63), 5_000)
        w_ref, gaps_ref = self.reference(d, a, b, substream(SEED, 63), 5_000)
        np.testing.assert_array_equal(w.view(np.uint64), w_ref.view(np.uint64))
        np.testing.assert_array_equal(gaps, gaps_ref)

    def test_matches_scalar_quantizer(self):
        params = StoppingSetParams(a=self.A, b=self.B, d=self.D, k_l=20.0, k_q=6.0)
        w, _ = self.draw(200, idx=62)
        q = quantize_W_matrix(w, params).values
        for i in range(w.shape[0]):
            np.testing.assert_array_equal(q[i], quantize_W_matrix(w[i], params).values)


class TestXVecTrials:
    RHO = np.array([0.95, 0.1])

    def model(self):
        return GaussianXVec(rho=self.RHO, sigma_x=CorrelationMatrix.identity(2))

    def test_unquantized_unbiased_and_never_degenerate(self):
        batch = xvec_unquantized_trials(self.model(), 40.0, substream(SEED, 71), 100_000)
        assert not batch.failed.any()
        for col in range(2):
            assert_mean_close(batch.estimates[:, col], self.RHO[col])

    def test_unquantized_trace_against_bound_pair(self):
        model = self.model()
        k_l = 40.0
        batch = xvec_unquantized_trials(model, k_l, substream(SEED, 72), 100_000)
        params = stopping_params_from_body_budget(k_l, 2, 0.3)
        alpha = stopping_second_moment(params.a, params.b, params.d)
        bound = crlb_xvec(self.RHO, np.eye(2), alpha, model.noise_var, 2)
        err = batch.estimates - self.RHO[None, :]
        trace = float(np.mean(np.sum(err * err, axis=1)))
        floor = float(np.trace(bound))
        assert trace >= 0.97 * floor
        assert trace <= 1.6 * floor

    def test_quantized_mean_and_budget(self):
        k = 200.0
        batch = xvec_trials(self.model(), k, substream(SEED, 73), 100_000)
        assert batch.bits_expected == pytest.approx(k, abs=1e-6)
        assert not batch.failed.any()
        for col in range(2):
            assert_mean_close(batch.estimates[:, col], self.RHO[col], extra=5e-3)

    def test_realized_accounting(self):
        k = 60.0
        batch = xvec_trials(self.model(), k, substream(SEED, 75), 5_000,
                            mode=LedgerMode.REALIZED)
        assert np.issubdtype(batch.bits_realized.dtype, np.integer)
        # Two index codes each at most one bit over entropy, plus the integer
        # round-up of the matrix payload.
        assert batch.bits_realized.mean() <= batch.bits_expected + 2.0 + 1.0
        assert batch.bits_realized.min() >= 2

    def test_realized_accounting_caps_at_exact_integer_range(self):
        # A 200-bit budget drives crossing indices beyond 2^53, where exact
        # codeword lengths can no longer be attributed trial by trial.
        with pytest.raises(ConfigurationError, match="exact float64 integer range"):
            xvec_trials(self.model(), 200.0, substream(SEED, 78), 100,
                        mode=LedgerMode.REALIZED)

    def test_paired_quantization_loss_within_bound(self):
        params = StoppingSetParams(a=6.0, b=0.5, d=2, k_l=30.0, k_q=8.0)
        quant, exact = xvec_paired_batch(self.model(), params, substream(SEED, 76), 50_000)
        diff = quant.estimates - exact.estimates
        loss = float(np.mean(np.sum(diff * diff, axis=1)))
        assert 0.0 < loss <= quantization_loss_bound(params.a, params.k_q, params.d)
        np.testing.assert_array_equal(quant.samples, exact.samples)

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("quantized", [False, True])
    def test_reconstruction_matches_refined_inverse(self, d, quantized):
        from corrlink.estimators import _xvec_reconstruct

        params = StoppingSetParams(a=d * 1.3 + 1.0, b=0.3, d=d, k_l=20.0, k_q=3.0)
        w, _ = stopping_matrix_batch(d, params.a, params.b, substream(SEED, 90 + d), 4_000)
        if quantized:
            w = quantize_W_matrix(w, params).values
        rng = substream(SEED, 95 + d)
        y = rng.standard_normal((w.shape[0], d))
        recon = sym_sqrt(CorrelationMatrix.equicorrelated(d, 0.4).values)
        est, failed = _xvec_reconstruct(w, y, recon)
        assert not failed.any()
        inv = np.linalg.inv(w)
        inv = inv + inv @ (np.eye(d) - w @ inv)
        expected = np.einsum("nl,nlk,km->nm", y, inv, recon)
        np.testing.assert_allclose(est, expected, rtol=0.0, atol=1e-12)

    def test_reconstruction_marks_screen_failures(self):
        from corrlink.estimators import _xvec_reconstruct

        d = 3
        params = StoppingSetParams(a=d * 1.3 + 1.0, b=0.3, d=d, k_l=20.0, k_q=3.0)
        w, _ = stopping_matrix_batch(d, params.a, params.b, substream(SEED, 97), 500)
        w[[3, 40, 41]] = 0.5  # all-equal entries: no diagonal dominance
        before = w.copy()
        y = substream(SEED, 98).standard_normal((w.shape[0], d))
        recon = sym_sqrt(CorrelationMatrix.equicorrelated(d, 0.4).values)
        est, failed = _xvec_reconstruct(w, y, recon)
        np.testing.assert_array_equal(w, before)
        np.testing.assert_array_equal(np.flatnonzero(failed), [3, 40, 41])
        assert np.isnan(est[failed]).all()
        ok_est, ok_failed = _xvec_reconstruct(w[~failed], y[~failed], recon)
        assert not ok_failed.any()
        np.testing.assert_array_equal(est[~failed], ok_est)

    def test_paired_branches_match_core_batches(self):
        # Each branch is the core batch on the same substream, and the caller's
        # generator advances by one batch's draws, not two.
        from corrlink.estimators import xvec_core_batch

        model = GaussianXVec(rho=np.array([0.3, 0.2, 0.4]),
                             sigma_x=CorrelationMatrix.equicorrelated(3, 0.2))
        params = StoppingSetParams(a=6.0, b=0.5, d=3, k_l=30.0, k_q=3.0)
        rng = substream(SEED, 79)
        paired = xvec_paired_batch(model, params, rng, 3_000)
        for pair, quantize in zip(paired, (True, False)):
            core_rng = substream(SEED, 79)
            core = xvec_core_batch(model, params, core_rng, 3_000, quantize=quantize)
            np.testing.assert_array_equal(pair.estimates, core.estimates)
            np.testing.assert_array_equal(pair.samples, core.samples)
            np.testing.assert_array_equal(pair.failed, core.failed)
            assert pair.bits_expected == core.bits_expected
            assert pair.bits_realized is None
        np.testing.assert_array_equal(rng.random(64), core_rng.random(64))

    @pytest.mark.parametrize("quantize", [True, False])
    def test_concurrent_batches_match_serial_calls(self, quantize):
        # Two workers share the solve lock; each batch must still be exactly
        # the serial call on its own substream.
        from corrlink.estimators import xvec_core_batch

        model = GaussianXVec(rho=np.array([0.3, 0.2, 0.1, 0.4]),
                             sigma_x=CorrelationMatrix.equicorrelated(4, 0.2))
        params = StoppingSetParams(a=9.0, b=0.5, d=4, k_l=30.0, k_q=2.0)

        def run(idx):
            return xvec_core_batch(model, params, substream(SEED, 80 + idx), 4_096, quantize)

        serial = [run(idx) for idx in range(4)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(run, idx) for idx in range(4)]
                threaded = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(switch)
        for one, other in zip(serial, threaded):
            np.testing.assert_array_equal(one.estimates, other.estimates)
            np.testing.assert_array_equal(one.failed, other.failed)
            np.testing.assert_array_equal(one.samples, other.samples)

    def test_tiny_body_budget_is_rejected(self):
        with pytest.raises(ConfigurationError, match="no valid strong bound"):
            stopping_params_from_body_budget(1.0, 2, 0.3)

    def test_dimension_mismatch_is_rejected(self):
        from corrlink.estimators import xvec_core_batch

        params = StoppingSetParams(a=6.0, b=0.5, d=3, k_l=30.0, k_q=8.0)
        with pytest.raises(ConfigurationError, match="does not match"):
            xvec_core_batch(self.model(), params, substream(SEED, 77), 10, quantize=True)


class TestLinearBaseline:
    def model(self):
        return GaussianXVec(rho=np.array([0.4, -0.4]),
                            sigma_x=CorrelationMatrix.equicorrelated(2, 0.6))

    @pytest.mark.parametrize("transform", ["identity", "whiten"])
    def test_unbiased_and_trace_matches_closed_form(self, transform):
        model = self.model()
        m = np.eye(2) if transform == "identity" else model.inv_sqrt_sigma_x
        budgets = (20.0, 20.0)
        batch = linear_baseline_trials(model, budgets, m, substream(SEED, 81), 100_000)
        for col in range(2):
            assert_mean_close(batch.estimates[:, col], model.rho[col])
        err = batch.estimates - model.rho[None, :]
        sq = np.sum(err * err, axis=1)
        trace = float(np.mean(sq))
        se = np.std(sq, ddof=1) / math.sqrt(sq.size)
        exact = linear_baseline_trace(linear_baseline_plan(model, budgets, m))
        assert abs(trace - exact) <= 4.0 * se

    def test_budget_sums_both_channels(self):
        batch = linear_baseline_trials(self.model(), (12.0, 18.0), np.eye(2),
                                       substream(SEED, 82), 2_000,
                                       mode=LedgerMode.REALIZED)
        assert batch.bits_expected == pytest.approx(30.0, abs=2e-6)
        assert batch.bits_realized.mean() <= 32.0

    def test_rejects_singular_transform(self):
        with pytest.raises(ConfigurationError, match="singular"):
            linear_baseline_trials(self.model(), (20.0, 20.0),
                                   np.array([[1.0, 1.0], [1.0, 1.0]]),
                                   substream(SEED, 83), 10)

    def test_rejects_zero_row(self):
        with pytest.raises(ConfigurationError, match="positive variance"):
            linear_baseline_trials(self.model(), (20.0, 20.0),
                                   np.array([[0.0, 0.0], [1.0, 0.0]]),
                                   substream(SEED, 84), 10)

    def test_rejects_other_dimensions(self):
        model = GaussianXVec(rho=np.array([0.3, 0.2, 0.1]),
                             sigma_x=CorrelationMatrix.identity(3))
        with pytest.raises(ConfigurationError, match="two coordinates"):
            linear_baseline_trials(model, (20.0, 20.0), np.eye(3),
                                   substream(SEED, 85), 10)
