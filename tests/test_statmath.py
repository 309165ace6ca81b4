import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from corrlink.errors import ConfigurationError, DomainError
from corrlink.statmath import (
    _brentq,
    _geometric_entropy_inv_cached,
    geometric_entropy,
    geometric_entropy_inv,
    inverse_mills,
    max_normal_moments,
    phi,
    qfunc,
    qfunc_inv,
    truncated_normal_moments,
)

_SQRT2 = math.sqrt(2.0)


def oracle_tail(x: float) -> float:
    # Independent path: math.erfc instead of the scipy kernel used inside.
    return 0.5 * math.erfc(x / _SQRT2)


def oracle_mills(t: float) -> float:
    # phi/Q with the exponential factor cancelled analytically; stable at any t.
    return math.sqrt(2.0 / math.pi) / special.erfcx(t / _SQRT2)


class TestTailFunction:
    def test_frozen_values(self):
        assert qfunc(0.0) == pytest.approx(0.5, abs=1e-15)
        assert qfunc(2.0) == pytest.approx(0.02275013194817921, rel=1e-13)
        assert phi(2.0) == pytest.approx(0.05399096651318806, rel=1e-13)
        assert phi(0.0) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-14)

    @given(st.floats(min_value=-8.0, max_value=8.0))
    def test_matches_independent_oracle(self, x):
        assert qfunc(x) == pytest.approx(oracle_tail(x), rel=1e-12)

    @given(st.floats(min_value=-6.0, max_value=37.0),
           st.floats(min_value=1e-6, max_value=1.0))
    def test_strictly_decreasing(self, x, gap):
        assert qfunc(x) > qfunc(x + gap)

    @given(st.floats(min_value=-5.3, max_value=37.0))
    def test_roundtrip(self, x):
        assert qfunc_inv(qfunc(x)) == pytest.approx(x, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("x", [-6.0, -5.8, -5.5])
    def test_roundtrip_near_certainty(self, x):
        # Q(x) is within 1e-8 of 1.0 here, so float64 spacing caps the
        # recoverable accuracy near ulp(1)/density; 4e-8 is the honest bound.
        assert qfunc_inv(qfunc(x)) == pytest.approx(x, abs=4e-8)

    def test_array_input(self):
        xs = np.array([-1.0, 0.0, 2.0])
        vals = qfunc(xs)
        assert vals.shape == (3,)
        assert np.all(np.diff(vals) < 0)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1])
    def test_inverse_domain(self, p):
        with pytest.raises(DomainError):
            qfunc_inv(p)


class TestInverseMills:
    @given(st.floats(min_value=0.01, max_value=300.0))
    def test_bracket(self, t):
        s = inverse_mills(t)
        assert t < s <= t + 1.0 / t

    @given(st.floats(min_value=-5.0, max_value=37.0))
    def test_matches_oracle_direct_region(self, t):
        assert inverse_mills(t) == pytest.approx(oracle_mills(t), rel=1e-11)

    @pytest.mark.parametrize("t", [3.0, 5.0, 10.0, 37.0, 40.0, 80.0, 200.0])
    def test_tail_accuracy_bound(self, t):
        # The reciprocal series used at large t must stay within 10/t^7.
        assert abs(inverse_mills(t) - oracle_mills(t)) / oracle_mills(t) <= 10.0 / t**7

    @staticmethod
    def _series(t: float) -> float:
        r = 1.0 / t
        r2 = r * r
        return 1.0 / (r * (1.0 - r2 * (1.0 - r2 * (3.0 - r2 * (15.0 - 105.0 * r2)))))

    def test_series_expression_accuracy(self):
        # The reciprocal expansion, checked across the handoff region.
        for t in np.linspace(4.0, 200.0, 60):
            assert abs(self._series(t) - oracle_mills(t)) / oracle_mills(t) <= 10.0 / t**7

    @pytest.mark.xfail(
        strict=True,
        reason="the truncated expansion is asymptotic: its relative error at t=3 "
        "is 8.2e-3, above 10/t^7 = 4.6e-3; the bound only holds from t of about 3.9",
    )
    def test_series_expression_accuracy_as_stated(self):
        t = 3.0
        assert abs(self._series(t) - oracle_mills(t)) / oracle_mills(t) <= 10.0 / t**7

    def test_continuity_at_branch_switch(self):
        lo, hi = inverse_mills(36.999999), inverse_mills(37.000001)
        assert abs(hi - lo) < 1e-4

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            inverse_mills(math.inf)
        with pytest.raises(DomainError):
            inverse_mills(math.nan)


class TestTruncatedMoments:
    def test_frozen_value(self):
        mom = truncated_normal_moments(2.0)
        assert mom.mean == pytest.approx(2.3732155328228, rel=1e-12)
        assert mom.variance == pytest.approx(0.114279100414, rel=1e-9)

    def test_identities(self):
        for t in (-1.0, 0.0, 0.7, 3.0):
            mom = truncated_normal_moments(t)
            s = inverse_mills(t)
            assert mom.mean == pytest.approx(s, rel=1e-13)
            assert mom.second_moment == pytest.approx(1.0 + t * s, rel=1e-12)
            assert mom.variance == pytest.approx(mom.second_moment - s * s, rel=1e-6)

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 3.0])
    def test_against_rejection_sampling(self, t, rng):
        z = rng.standard_normal(1_000_000)
        kept = z[z > t]
        n = kept.size
        mom = truncated_normal_moments(t)
        # Exact conditional raw moments via E[Z^k | Z>t] = (k-1) E[Z^(k-2)] + t^(k-1) s;
        # they give stable standard errors even where the tail sample is small.
        s = oracle_mills(t)
        m1, m2 = s, 1.0 + t * s
        m3 = (2.0 + t * t) * s
        m4 = 3.0 + (t**3 + 3.0 * t) * s
        var = m2 - m1 * m1
        mu4 = m4 - 4.0 * m1 * m3 + 6.0 * m1 * m1 * m2 - 3.0 * m1**4
        se_mean = math.sqrt(var / n)
        assert mom.mean == pytest.approx(kept.mean(), abs=4.0 * se_mean)
        se_second = math.sqrt((m4 - m2 * m2) / n)
        assert mom.second_moment == pytest.approx(np.mean(kept**2), abs=4.0 * se_second)
        se_var = math.sqrt(max(mu4 - var * var, 0.0) / n)
        assert mom.variance == pytest.approx(kept.var(ddof=1), abs=4.0 * se_var)

    def test_far_tail_asymptotic_branch(self):
        mom = truncated_normal_moments(150.0)
        t = 150.0
        assert mom.variance == pytest.approx((1.0 - 6.0 / t**2) / t**2, rel=1e-4)
        # Continuity across the asymptotic handoff.
        below, above = truncated_normal_moments(99.9), truncated_normal_moments(100.1)
        assert below.variance == pytest.approx(above.variance, rel=2e-2)

    @given(st.floats(min_value=-3.0, max_value=200.0))
    def test_variance_positive_below_one(self, t):
        var = truncated_normal_moments(t).variance
        assert 0.0 < var <= 1.0 + 1e-12


class TestGeometricEntropy:
    def test_exact_points(self):
        assert geometric_entropy(0.5) == pytest.approx(2.0, rel=1e-14)
        assert geometric_entropy(1.0) == 0.0
        assert geometric_entropy(2.0**-20) == pytest.approx(21.442694352958, rel=1e-11)

    @given(st.floats(min_value=1e-12, max_value=1.0 - 1e-9),
           st.floats(min_value=1e-6, max_value=0.5))
    def test_strictly_decreasing(self, p, shrink):
        q = p * (1.0 - shrink)
        assert geometric_entropy(q) > geometric_entropy(p)

    @given(st.floats(min_value=1e-12, max_value=0.2))
    def test_log_offset_bound(self, p):
        # h(p)/p stays within log2(e) + 1 of -log2(p) on the small-p range.
        assert abs(geometric_entropy(p) + math.log2(p)) <= math.log2(math.e) + 1.0

    def test_domain(self):
        for p in (0.0, -0.5, 1.5):
            with pytest.raises(DomainError):
                geometric_entropy(p)

    def test_inverse_frozen(self):
        assert geometric_entropy_inv(20.0) == pytest.approx(2.592352204405e-06, rel=1e-9)
        assert geometric_entropy_inv(40.0) == pytest.approx(2.472262867e-12, rel=1e-6)

    @given(st.floats(min_value=0.5, max_value=900.0))
    def test_inverse_roundtrip(self, k):
        p = geometric_entropy_inv(k)
        assert 0.0 < p < 1.0
        assert geometric_entropy(p) == pytest.approx(k, rel=1e-9)

    def test_inverse_is_cached_per_budget(self):
        # Every chunk of a cell asks for the same p; the search runs once.
        _geometric_entropy_inv_cached.cache_clear()
        first = geometric_entropy_inv(17.25)
        assert geometric_entropy_inv(np.float64(17.25)) == first
        assert _geometric_entropy_inv_cached.cache_info()[:2] == (1, 1)
        assert first == _geometric_entropy_inv_cached.__wrapped__(17.25)
        # A refused budget is not cached: it raises every time.
        for _ in range(2):
            with pytest.raises(DomainError):
                geometric_entropy_inv(-1.0)

    def test_inverse_domain(self):
        with pytest.raises(DomainError):
            geometric_entropy_inv(0.0)
        with pytest.raises(DomainError):
            geometric_entropy_inv(1001.0)

    def test_inverse_refuses_budgets_below_its_range(self):
        # Below the entropy at p = 1 - 1e-12 the search cannot resolve p from
        # 1; such a budget is refused, not run at that p's budget.
        floor = geometric_entropy(1.0 - 1e-12)
        assert floor == pytest.approx(4.13e-11, rel=1e-3)
        for k in (1e-12, floor):
            with pytest.raises(DomainError, match=rf"{k!r} is below about 4\.13e-11 bits"):
                geometric_entropy_inv(k)
        p = geometric_entropy_inv(2.0 * floor)
        assert p < 1.0 - 1e-12
        assert geometric_entropy(p) == pytest.approx(2.0 * floor, rel=1e-6)


class TestBrentPort:
    """``_brentq`` must return scipy's ``brentq`` root bit for bit."""

    def test_matches_scipy_on_the_budget_inversion(self):
        optimize = pytest.importorskip("scipy.optimize")
        lo = math.log(1e-300)
        hi = math.log1p(-1e-12)
        k_min = geometric_entropy(math.exp(hi))  # below this the inverse returns exp(hi)
        k_max = geometric_entropy(1e-300)  # above this it raises
        rng = np.random.default_rng(1973)
        budgets = np.concatenate([
            np.exp(rng.uniform(math.log(k_min), math.log(k_max), 8000)),
            np.linspace(0.05, 997.5, 2000),
            [k_min * (1.0 + 1e-9), k_min * 1.001, 997.9, 998.0, k_max * (1.0 - 1e-12)],
        ])
        mismatched = []
        for k in budgets:
            k = float(k)
            assert k_min < k <= k_max

            def f(v, k=k):
                return geometric_entropy(math.exp(v)) - k

            ours = _brentq(f, lo, hi, 1e-12)
            theirs = optimize.brentq(f, lo, hi, xtol=1e-12)
            if ours != theirs:
                mismatched.append((k, ours, theirs))
        assert budgets.size >= 10_000
        assert mismatched == []

    def test_exact_roots_and_sign_errors(self):
        assert _brentq(lambda x: x - 0.25, 0.25, 3.0, 1e-12) == 0.25
        assert _brentq(lambda x: x * x - 2.0, 0.0, 2.0, 1e-15) == pytest.approx(math.sqrt(2.0))
        with pytest.raises(DomainError, match="different signs"):
            _brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12)


class TestMaxMoments:
    def test_two_sample_analytic(self):
        mm = max_normal_moments(2.0)
        assert mm.mean == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-10)
        assert mm.second_moment == pytest.approx(1.0, rel=1e-9)
        assert mm.variance == pytest.approx(1.0 - 1.0 / math.pi, rel=1e-8)

    def test_against_monte_carlo(self, rng):
        n = 8
        draws = rng.standard_normal((500_000, n)).max(axis=1)
        mm = max_normal_moments(float(n))
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert mm.mean == pytest.approx(draws.mean(), abs=4.0 * se)
        sq = draws**2
        se2 = sq.std(ddof=1) / math.sqrt(draws.size)
        assert mm.second_moment == pytest.approx(sq.mean(), abs=4.0 * se2)

    @pytest.mark.parametrize("k", [1, 2, 5, 10, 20, 40, 80])
    def test_mean_grows_with_block(self, k):
        lo = max_normal_moments(2.0**k).mean
        hi = max_normal_moments(2.0 ** (k + 1)).mean
        assert hi > lo > 0.0

    def test_huge_block_sane(self):
        mm = max_normal_moments(2.0**80)
        # Extreme-value scaling: mean near sqrt(2 ln n).
        approx = math.sqrt(2.0 * 80.0 * math.log(2.0))
        assert 0.9 * approx < mm.mean < 1.05 * approx
        assert mm.variance > 0.0

    def test_domain(self):
        with pytest.raises(ConfigurationError):
            max_normal_moments(1.0)

    def test_block_limit(self):
        # Up to 2^924 samples the window holds the mass and the variance keeps
        # shrinking; past it the window's upper end no longer moves with it.
        assert 0.0 < max_normal_moments(2.0**924).variance < max_normal_moments(2.0**900).variance
        for n in (2.0**924 * (1.0 + 2.0**-52), 2.0**925, 2.0**1000, math.inf):
            with pytest.raises(ConfigurationError, match="2 to 2\\^924 samples"):
                max_normal_moments(n)
