"""Oracle checks for the closed-form variance, information, and bound layer."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from corrlink.analysis import (
    TheoryReport,
    crlb_xvec,
    crlb_yvec,
    crossing_variance,
    exact_threshold_variance,
    fisher_scalar,
    fisher_xvec,
    fisher_yvec,
    laplace_theory,
    pareto_theory,
    pareto_unquantized_floor,
    quantization_loss_bound,
    stopping_moment_bracket,
    stopping_second_moment,
    unquantized_xvec_trace_bound,
    xvec_mse_bound,
    zhang_berger_optimal,
)
from corrlink.errors import ConfigurationError, DomainError
from corrlink.estimators import linear_baseline_plan
from corrlink.harness import ExperimentConfig
from corrlink.linalg import CorrelationMatrix
from corrlink.sources import GaussianXVec, ParetoTwoSided, StdNormal, UnitLaplace
from corrlink.statmath import (
    geometric_entropy_inv,
    inverse_mills,
    max_normal_moments,
    qfunc,
    threshold_for_budget,
    truncated_normal_moments,
)

LN2 = math.log(2.0)


def threshold_fisher(rho, t):
    return fisher_scalar(rho, truncated_normal_moments(t).second_moment)


def law_variance(law, rho, t):
    """Exact variance of the first-crossing estimator normalised by the law's tail mean."""
    return crossing_variance(rho, law.tail_variance(t), law.tail_mean(t))


def max_variance(rho, k):
    mm = max_normal_moments(2.0**k)
    return crossing_variance(rho, mm.variance, mm.mean)


def conditional_log_density(y, rho, x):
    var = 1.0 - rho * rho
    return -0.5 * math.log(2.0 * math.pi * var) - (y - rho * x) ** 2 / (2.0 * var)


class TestScalarFisher:
    @pytest.mark.parametrize("rho,x", [(0.4, 2.0), (-0.7, 0.5), (0.0, 1.3)])
    def test_matches_finite_difference_score(self, rho, x):
        h = 1e-5

        def integrand(y):
            score = (conditional_log_density(y, rho + h, x)
                     - conditional_log_density(y, rho - h, x)) / (2.0 * h)
            return score**2 * math.exp(conditional_log_density(y, rho, x))

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            val, _ = integrate.quad(integrand, -40.0, 40.0, limit=200)
        assert fisher_scalar(rho, x * x) == pytest.approx(val, rel=1e-5)

    def test_threshold_information_averages_the_conditional(self):
        rho, t = 0.5, 1.3

        def integrand(x):
            return fisher_scalar(rho, x * x) * stats.norm.pdf(x)

        val, _ = integrate.quad(integrand, t, 60.0, limit=200)
        assert threshold_fisher(rho, t) == pytest.approx(val / qfunc(t), rel=1e-8)

    def test_threshold_information_frozen_value(self):
        assert threshold_fisher(0.5, threshold_for_budget(20.0)) == pytest.approx(
            31.14078683, abs=5e-7
        )

    def test_max_information_at_one_bit(self):
        # The larger of two standard normals has second moment exactly 1.
        rho = 0.6
        one = 1.0 - rho * rho
        second = max_normal_moments(2.0).second_moment
        assert second == pytest.approx(1.0, rel=1e-9)
        assert fisher_scalar(rho, second) == pytest.approx((one + 2.0 * rho * rho) / one**2,
                                                           rel=1e-9)

    def test_information_grows_with_budget(self):
        ts = [threshold_for_budget(k) for k in (5.0, 10.0, 20.0, 40.0)]
        vals = [threshold_fisher(0.5, t) for t in ts]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        maxvals = [fisher_scalar(0.5, max_normal_moments(2.0**k).second_moment)
                   for k in (2, 4, 8, 16)]
        assert all(a < b for a, b in zip(maxvals, maxvals[1:]))

    def test_rejects_degenerate_correlation(self):
        with pytest.raises(DomainError):
            fisher_scalar(1.0, 2.0)


class TestExactVariances:
    @pytest.mark.parametrize("rho", [-0.9, -0.3, 0.0, 0.5, 0.95])
    @pytest.mark.parametrize("t", [0.5, 2.0, 4.557])
    def test_threshold_variance_from_truncated_moments(self, rho, t):
        mom = truncated_normal_moments(t)
        want = (rho * rho * mom.variance + 1.0 - rho * rho) / mom.mean**2
        assert exact_threshold_variance(rho, t) == pytest.approx(want, rel=1e-12)

    def test_threshold_variance_frozen_value(self):
        t = threshold_for_budget(20.0)
        assert exact_threshold_variance(0.5, t) == pytest.approx(
            0.03353109906734186, rel=1e-12
        )

    def test_max_variance_from_block_moments(self):
        mm = max_normal_moments(2.0**8)
        want = (0.49 * mm.variance + 0.51) / mm.mean**2
        assert report("max", 8, rho=0.7).theory_exact == pytest.approx(want, rel=1e-12)

    @given(rho=st.floats(-0.95, 0.95), k=st.floats(5.0, 200.0))
    @settings(max_examples=120)
    def test_exact_variance_dominates_the_information_bound(self, rho, k):
        t = threshold_for_budget(k)
        assert exact_threshold_variance(rho, t) >= (1.0 - 1e-12) / threshold_fisher(rho, t)

    @pytest.mark.parametrize("k", [1, 4, 9, 14])
    def test_max_variance_dominates_the_information_bound(self, k):
        for rho in (-0.8, 0.0, 0.6):
            second = max_normal_moments(2.0**k).second_moment
            assert max_variance(rho, k) >= (1.0 - 1e-12) / fisher_scalar(rho, second)

    @pytest.mark.parametrize("rho", [-0.9, 0.0, 0.3])
    def test_unselected_sample_has_unit_variance(self, rho):
        # J = 1 with no selection: X_J is standard normal and Y_J / 1 has variance 1.
        assert crossing_variance(rho, 1.0, 1.0) == 1.0

    @pytest.mark.parametrize("rho", [1.0, -1.0, [0.5, 1.0], [-1.0, 0.2]])
    def test_crossing_variance_refuses_unit_correlation(self, rho):
        with pytest.raises(DomainError, match="strictly inside"):
            crossing_variance(rho, 0.5, 2.0)

    def test_variance_decreases_with_budget(self):
        vals = [exact_threshold_variance(0.5, threshold_for_budget(k))
                for k in (10.0, 20.0, 40.0, 80.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_threshold_for_budget_frozen_value(self):
        assert threshold_for_budget(40.0) == pytest.approx(6.907160, abs=1e-5)


class TestBenchmark:
    def test_zero_rate_value(self):
        assert zhang_berger_optimal(0.0, 10.0) == pytest.approx(
            0.07213475204444816, rel=1e-12
        )

    def test_guards(self):
        with pytest.raises(DomainError):
            zhang_berger_optimal(0.5, 0.0)


class TestYVecTheory:
    RHO = np.array([0.6, 0.3, -0.2, 0.1])
    SIGMA = CorrelationMatrix.equicorrelated(4, 0.3).values

    @pytest.mark.parametrize("exj2", [1.5, 5.0, 30.0])
    def test_fisher_and_crlb_are_inverse(self, exj2):
        f = fisher_yvec(self.RHO, self.SIGMA, exj2)
        c = crlb_yvec(self.RHO, self.SIGMA, exj2)
        np.testing.assert_allclose(f @ c, np.eye(4), atol=1e-9)
        np.testing.assert_allclose(c, np.linalg.inv(f), atol=1e-12)

    def test_uncorrelated_reduction(self):
        rho = np.zeros(3)
        f = fisher_yvec(rho, self.SIGMA[:3, :3], 7.0)
        np.testing.assert_allclose(f, 7.0 * np.linalg.inv(self.SIGMA[:3, :3]), atol=1e-12)
        c = crlb_yvec(rho, self.SIGMA[:3, :3], 7.0)
        np.testing.assert_allclose(c, self.SIGMA[:3, :3] / 7.0, atol=1e-12)

    def test_one_coordinate_matches_scalar_information(self):
        t = 2.0
        mom = truncated_normal_moments(t)
        f = fisher_yvec(np.array([0.5]), np.eye(1), mom.second_moment)
        assert f[0, 0] == pytest.approx(threshold_fisher(0.5, t), rel=1e-12)

    def test_degenerate_noise_rejected(self):
        with pytest.raises(DomainError, match="positive definite"):
            fisher_yvec(np.array([0.9, 0.9]), np.eye(2), 5.0)

    def test_sum_mse_is_the_scalar_sum(self):
        t = threshold_for_budget(20.0)
        want = sum(exact_threshold_variance(r, t) for r in self.RHO)
        rep = report("yvec", 20.0, rho=", ".join(map(str, self.RHO)))
        assert rep.theory_exact == pytest.approx(want, rel=1e-12)

    def test_crlb_trace_below_sum_mse(self):
        t = threshold_for_budget(20.0)
        mom = truncated_normal_moments(t)
        c = crlb_yvec(self.RHO, self.SIGMA, mom.second_moment)
        assert float(np.trace(c)) < crossing_variance(self.RHO, mom.variance, mom.mean)


    def test_sum_runs_left_to_right(self):
        # At these correlations a compensated sum (the built-in sum() from
        # Python 3.12 on, or fsum) rounds the last bit differently.
        rho = np.array([-0.382, 0.327, -0.571, 0.84, -0.256, -0.75])
        t = threshold_for_budget(10.0)
        mom = truncated_normal_moments(t)
        terms = [exact_threshold_variance(float(r), t) for r in rho]
        want = 0.0
        for term in terms:
            want += term
        assert want != math.fsum(terms)
        assert crossing_variance(rho, mom.variance, mom.mean) == want


class TestXVecTheory:
    RHO = np.array([0.5, -0.3, 0.2])
    SIGMA = CorrelationMatrix.equicorrelated(3, 0.4).values

    def test_fisher_and_crlb_are_inverse(self):
        # The closed-form inverse folds in the model identity
        # rho' Sigma^{-1} rho = 1 - sigma2, so the noise variance must be the
        # one the model implies for these correlations.
        sigma2 = 1.0 - float(self.RHO @ np.linalg.solve(self.SIGMA, self.RHO))
        f = fisher_xvec(self.RHO, self.SIGMA, 30.0, sigma2, 3)
        c = crlb_xvec(self.RHO, self.SIGMA, 30.0, sigma2, 3)
        np.testing.assert_allclose(f @ c, np.eye(3), atol=1e-9)
        np.testing.assert_allclose(c, np.linalg.inv(f), atol=1e-12)

    def test_uncorrelated_reduction(self):
        rho = np.zeros(3)
        f = fisher_xvec(rho, self.SIGMA, 12.0, 0.8, 3)
        np.testing.assert_allclose(f, (12.0 / 0.8) * np.linalg.inv(self.SIGMA), atol=1e-10)
        c = crlb_xvec(rho, self.SIGMA, 12.0, 0.8, 3)
        np.testing.assert_allclose(c, (0.8 / 12.0) * self.SIGMA, atol=1e-12)

    def test_larger_row_moment_tightens_the_bound(self):
        t1 = float(np.trace(crlb_xvec(self.RHO, self.SIGMA, 20.0, 0.6, 3)))
        t2 = float(np.trace(crlb_xvec(self.RHO, self.SIGMA, 60.0, 0.6, 3)))
        assert t2 < t1

    def test_guards(self):
        with pytest.raises(ConfigurationError):
            fisher_xvec(self.RHO, self.SIGMA, 30.0, 0.6, 2)
        with pytest.raises(DomainError):
            fisher_xvec(self.RHO, self.SIGMA, 30.0, 0.0, 3)
        with pytest.raises(DomainError):
            crlb_xvec(self.RHO, self.SIGMA, 30.0, -1.0, 3)

    def test_row_second_moment_against_quadrature(self):
        a, b, d = 2.5, 0.7, 3
        strong_num, _ = integrate.quad(lambda x: x * x * stats.norm.pdf(x), a, 50.0)
        strong = strong_num / qfunc(a)
        weak_num, _ = integrate.quad(lambda x: x * x * stats.norm.pdf(x), -b, b)
        weak = weak_num / (1.0 - 2.0 * qfunc(b))
        want = strong + (d - 1) * weak
        assert stopping_second_moment(a, b, d) == pytest.approx(want, rel=1e-9)

    def test_row_second_moment_one_dimensional_case(self):
        a = 2.0
        assert stopping_second_moment(a, 0.0, 1) == pytest.approx(
            1.0 + a * inverse_mills(a), rel=1e-12
        )
        with pytest.raises(DomainError):
            stopping_second_moment(2.0, 0.0, 2)

    @pytest.mark.parametrize("a,b,d", [(3.2, 0.4, 2), (5.0, 0.5, 2), (6.0, 0.3, 4),
                                       (2.0, 0.0, 1)])
    def test_bracket_contains_the_inverse_moment(self, a, b, d):
        lo, hi = stopping_moment_bracket(a, b, d)
        assert lo < 1.0 / stopping_second_moment(a, b, d) < hi

    def test_bracket_precondition(self):
        with pytest.raises(DomainError):
            stopping_moment_bracket(1.0, 2.0, 2)

    def test_quantization_penalty_arithmetic(self):
        want = (2.0 * 2) ** 6 * (math.exp(-18.0) + 2.0**-8)
        assert quantization_loss_bound(6.0, 8.0, 2) == pytest.approx(want, rel=1e-12)
        assert quantization_loss_bound(6.0, 16.0, 2) < quantization_loss_bound(6.0, 8.0, 2)

    def test_summed_error_bounds(self):
        rho = np.array([0.95, 0.1])
        val = xvec_mse_bound(rho, 2, 400.0)
        assert val == pytest.approx((4.0 / (2.0 * LN2)) * (1.0 - 0.95**2) / 400.0, rel=1e-12)
        assert xvec_mse_bound(rho, 2, 800.0) < val
        exact_variant = unquantized_xvec_trace_bound(rho, 2, 200.0)
        assert exact_variant == pytest.approx((2.0 / (2.0 * LN2)) * (1.0 - 0.95**2) / 200.0,
                                              rel=1e-12)
        with pytest.raises(ConfigurationError):
            xvec_mse_bound(rho, 3, 400.0)
        with pytest.raises(DomainError):
            xvec_mse_bound(rho, 2, 0.0)


class TestAdditiveTheory:
    @pytest.mark.parametrize("t", [0.3, 1.5, 3.0])
    def test_gaussian_marginal_reduces_to_the_threshold_formula(self, t):
        assert law_variance(StdNormal(), 0.5, t) == exact_threshold_variance(0.5, t)

    def test_laplace_memorylessness_closes_the_formula(self):
        rho, t = 0.6, 2.0
        root2 = math.sqrt(2.0)
        want = (rho * rho * 0.5 + 1.0 - rho * rho) / (t + 1.0 / root2) ** 2
        assert law_variance(UnitLaplace(), rho, t) == pytest.approx(want, rel=1e-12)

    def test_laplace_asymptote_is_approached_from_above(self):
        rho = 0.6
        law = UnitLaplace()

        def ratio(k):
            t = float(law.tail_quantile(geometric_entropy_inv(k)))
            return law_variance(law, rho, t) / laplace_theory(rho, k)

        r200, r400, r800 = ratio(200.0), ratio(400.0), ratio(800.0)
        assert r200 > r400 > r800 > 1.0
        assert r800 == pytest.approx(1.0, abs=0.05)

    def test_laplace_theory_value(self):
        assert laplace_theory(0.5, 40.0) == pytest.approx(1.75 / (LN2 * 40.0) ** 2,
                                                          rel=1e-12)

    def test_pareto_exponent_and_bound(self):
        bound, exponent = pareto_theory(4.0, 0.6, 30.0)
        assert exponent == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert bound == pytest.approx(1.36 * 2.0 ** (-10.0), rel=1e-12)
        with pytest.raises(DomainError):
            pareto_theory(2.0, 0.6, 30.0)

    def test_pareto_floor_matches_the_law_tail_limit(self):
        # The same limit falls out of the law's own tail moments at a huge
        # threshold, pinning the constant independently.
        law = ParetoTwoSided(4.0)
        assert pareto_unquantized_floor(4.0, 0.6) == pytest.approx(0.045, rel=1e-12)
        assert law_variance(law, 0.6, 1e8) == pytest.approx(0.045, rel=1e-5)


def linear_trace(model, budgets, m_transform):
    return linear_baseline_plan(model, budgets, m_transform).variance()


class TestLinearBaselineTrace:
    def test_identity_transform_sums_scalar_variances(self):
        model = GaussianXVec(rho=np.array([0.4, -0.4]),
                             sigma_x=CorrelationMatrix.identity(2))
        budgets = (20.0, 30.0)
        want = sum(exact_threshold_variance(r, threshold_for_budget(k))
                   for r, k in zip(model.rho, budgets))
        got = linear_trace(model, budgets, np.eye(2))
        assert got == pytest.approx(want, rel=1e-12)

    def test_whitening_helps_for_balanced_correlations(self):
        model = GaussianXVec(rho=np.array([0.4, -0.4]),
                             sigma_x=CorrelationMatrix.equicorrelated(2, 0.6))
        budgets = (20.0, 20.0)
        naive = linear_trace(model, budgets, np.eye(2))
        white = linear_trace(model, budgets, model.inv_sqrt_sigma_x)
        assert white < naive

    def test_whitening_hurts_for_lopsided_correlations(self):
        model = GaussianXVec(rho=np.array([0.99, 0.594]),
                             sigma_x=CorrelationMatrix.equicorrelated(2, 0.6))
        budgets = (20.0, 20.0)
        naive = linear_trace(model, budgets, np.eye(2))
        white = linear_trace(model, budgets, model.inv_sqrt_sigma_x)
        assert naive < white

    def test_rejects_other_dimensions(self):
        model = GaussianXVec(rho=np.array([0.3, 0.2, 0.1]),
                             sigma_x=CorrelationMatrix.identity(3))
        with pytest.raises(ConfigurationError):
            linear_trace(model, (20.0, 20.0), np.eye(3))


def report(scheme, k, **model):
    """The theory report of one grid point, assembled by the scheme registry."""
    raw = {"grid.k": str(k), **{f"model.{key}": str(value) for key, value in model.items()}}
    return ExperimentConfig.from_mapping(raw, scheme=scheme, trials=100, seed=0).reports()[0]


class TestReports:
    def test_threshold_report(self):
        rep = report("threshold", 20.0, rho=0.5)
        t = threshold_for_budget(20.0)
        assert rep.theory_exact == pytest.approx(exact_threshold_variance(0.5, t))
        assert rep.crlb_trace == pytest.approx(1.0 / threshold_fisher(0.5, t))
        assert rep.theory_exact >= rep.crlb_trace
        assert dict(rep.bounds)["benchmark-zero-rate"] == pytest.approx(
            zhang_berger_optimal(0.5, 20.0)
        )

    def test_max_report(self):
        rep = report("max", 10, rho=0.5)
        assert rep.theory_exact == pytest.approx(max_variance(0.5, 10))
        assert rep.fisher.shape == (1, 1)

    def test_yvec_report_with_default_coupling(self):
        rho = np.array([0.7, -0.2])
        rep = report("yvec", 20.0, rho="0.7, -0.2")
        t = threshold_for_budget(20.0)
        assert rep.theory_exact == pytest.approx(sum(exact_threshold_variance(r, t) for r in rho))
        assert rep.fisher.shape == (2, 2)
        assert rep.theory_exact >= rep.crlb_trace

    def test_xvec_report(self):
        rho = np.array([0.95, 0.1])
        rep = report("xvec", 400.0, rho="0.95, 0.1")
        assert rep.theory_exact is None
        assert rep.fisher.shape == (2, 2)
        names = dict(rep.bounds)
        for key in ("summed-error-budget-bound", "inverse-moment-lower",
                    "inverse-moment-upper", "quantization-penalty",
                    "row-second-moment"):
            assert key in names
        alpha = names["row-second-moment"]
        assert names["inverse-moment-lower"] < 1.0 / alpha < names["inverse-moment-upper"]
        # A larger row second moment can only shrink the bound.
        sigma2 = 1.0 - float(rho @ rho)
        traces = [float(np.trace(crlb_xvec(rho, np.eye(2), a, sigma2, 2)))
                  for a in alpha * np.array([0.5, 1.0, 2.0, 4.0])]
        assert np.all(np.diff(traces) < 0.0)
        assert rep.crlb_trace == pytest.approx(traces[1])

    def test_clt_report_carries_the_gaussian_limit(self):
        rep = report("clt", 20.0, rho=0.5)
        t = threshold_for_budget(20.0)
        assert dict(rep.bounds)["gaussian-limit-variance"] == pytest.approx(
            exact_threshold_variance(0.5, t)
        )
        assert rep.theory_exact == dict(rep.bounds)["gaussian-limit-variance"]

    @pytest.mark.parametrize("m", [16, 64, 256])
    def test_binary_clt_report_is_exact_at_the_block_size(self, m):
        # The block average lives on a binomial lattice; the estimator keeps
        # the Gaussian normaliser s, so its variance is the lattice's
        # (rho^2 Var(X_J) + 1 - rho^2) / s^2, not the Gaussian limit.
        rep = report("clt", 10.0, kind="binary", p=0.25, m=m)
        rho, t = 0.5, threshold_for_budget(10.0)
        counts = np.arange(m + 1)
        xbar = (2.0 * counts - m) / math.sqrt(m)
        pmf = stats.binom.pmf(counts, m, 0.5)[xbar > t]
        pmf /= pmf.sum()
        x = xbar[xbar > t]
        var = float(pmf @ (x - pmf @ x) ** 2)
        want = (rho * rho * var + 1.0 - rho * rho) / inverse_mills(t) ** 2
        assert rep.theory_exact == pytest.approx(want, rel=1e-10)
        limit = dict(rep.bounds)["gaussian-limit-variance"]
        assert limit == exact_threshold_variance(rho, t)
        assert rep.theory_exact >= rep.crlb_trace

    def test_pareto_report(self):
        rep = report("pareto", 30.0, alpha=4.0, rho=0.6)
        names = dict(rep.bounds)
        assert names["budget-exponent"] == pytest.approx(1.0 / 3.0)
        assert names["unquantized-floor"] == pytest.approx(0.045)

    def test_additive_report_defaults_to_laplace(self):
        rep = report("additive", 40.0, rho=0.5)
        assert rep.theory_asymptotic == pytest.approx(laplace_theory(0.5, 40.0))

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown scheme"):
            report("bogus", 20.0, rho=0.5)

    def test_report_invariant_rejects_contradictory_values(self):
        with pytest.raises(ConfigurationError, match="fell below"):
            TheoryReport(scheme="threshold", k=20.0, theory_exact=0.001,
                         theory_asymptotic=0.01, fisher=np.array([[10.0]]),
                         crlb_trace=0.1)
