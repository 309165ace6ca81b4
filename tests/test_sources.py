"""Tests for the marginal laws, joint pair models, and crossing samplers."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate, stats

from corrlink.errors import ConfigurationError, DomainError
from corrlink.sources import (
    AdditiveNoise,
    BlockAveraged,
    DoublySymmetricBinary,
    GaussianScalar,
    GaussianXVec,
    GaussianYVec,
    ParetoTwoSided,
    Rademacher,
    StdNormal,
    UnitLaplace,
    UnitUniform,
    draw_first_crossing,
    normal_from_uniform,
    _binomial_upper_tail,
    _open_uniform,
    _philox_cursors,
    _skip_doubles,
    substream,
    walk_first_hit,
)
from corrlink.linalg import CorrelationMatrix
from corrlink.statmath import qfunc

SQRT3 = math.sqrt(3.0)


def quantile_moment(law, t, power):
    """Oracle: E[X^power | X > t] by integrating the quantile function."""
    p = law.tail_prob(t)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        val, _ = integrate.quad(
            lambda q: law.tail_quantile(q) ** power, 0.0, p, limit=300, points=[min(0.5, p)]
        )
    return val / p


class TestMarginalLaws:
    CONTINUOUS = [
        pytest.param(StdNormal(), [-1.5, 0.0, 1.0, 2.5], id="normal"),
        pytest.param(UnitLaplace(), [-2.0, -0.3, 0.0, 1.2], id="laplace"),
        pytest.param(ParetoTwoSided(4.0), [-2.0, 0.0, 1.0], id="pareto4"),
        pytest.param(ParetoTwoSided(2.5), [1.5], id="pareto2.5"),
        pytest.param(UnitUniform(), [-2.0, -0.5, 0.9], id="uniform"),
    ]

    @pytest.mark.parametrize("law,grid", CONTINUOUS)
    def test_tail_mean_matches_quantile_integral(self, law, grid):
        for t in grid:
            assert law.tail_mean(t) == pytest.approx(quantile_moment(law, t, 1), rel=1e-6)

    @pytest.mark.parametrize("law,grid", CONTINUOUS)
    def test_tail_variance_matches_quantile_integral(self, law, grid):
        for t in grid:
            want = quantile_moment(law, t, 2) - quantile_moment(law, t, 1) ** 2
            assert law.tail_variance(t) == pytest.approx(want, rel=1e-6, abs=1e-9)

    @pytest.mark.parametrize("law,grid", CONTINUOUS)
    def test_quantile_inverts_tail_prob(self, law, grid):
        for p in [1e-6, 1e-3, 0.1, 0.5, 0.9, 0.999]:
            x = law.tail_quantile(p)
            assert law.tail_prob(x) == pytest.approx(p, rel=1e-9)

    @pytest.mark.parametrize("law,grid", CONTINUOUS)
    def test_unconditional_moments(self, law, grid):
        # Far below the support the conditioning is vacuous.
        t = -1e6 if isinstance(law, ParetoTwoSided) else -50.0
        assert law.tail_prob(t) == pytest.approx(1.0)
        assert law.tail_mean(t) == pytest.approx(0.0, abs=1e-9)
        # Power-law tails shed their truncation error only at rate (x0/|t|)^(alpha-2).
        tol = (law.x0 / -t) ** (law.alpha - 2.0) if isinstance(law, ParetoTwoSided) else 1e-9
        assert law.tail_variance(t) == pytest.approx(1.0, abs=tol)

    def test_normal_delegates_to_tail_functions(self):
        law = StdNormal()
        assert law.tail_prob(2.0) == pytest.approx(0.02275013194817921, rel=1e-14)
        assert law.tail_mean(2.0) == pytest.approx(2.3732155328228406, rel=1e-12)
        assert law.tail_variance(2.0) == pytest.approx(0.11427910041408218, rel=1e-10)

    def test_laplace_closed_forms(self):
        law = UnitLaplace()
        assert law.tail_prob(0.0) == pytest.approx(0.5)
        assert law.tail_prob(1.0 / math.sqrt(2)) == pytest.approx(0.5 * math.exp(-1.0))
        assert law.tail_mean(0.0) == pytest.approx(1.0 / math.sqrt(2))
        # Memoryless above the origin: overshoot moments do not depend on t.
        for t in [0.0, 0.7, 3.0]:
            assert law.tail_mean(t) - t == pytest.approx(1.0 / math.sqrt(2))
            assert law.tail_variance(t) == pytest.approx(0.5)

    @pytest.mark.parametrize("alpha", [2.0, math.inf, math.nan])
    def test_pareto_needs_a_finite_exponent_above_two(self, alpha):
        with pytest.raises(ConfigurationError, match="tail exponent > 2"):
            ParetoTwoSided(alpha)

    def test_pareto_closed_forms(self):
        law = ParetoTwoSided(4.0)
        x0 = math.sqrt(0.5)
        assert law.x0 == pytest.approx(x0)
        assert law.tail_prob(x0) == pytest.approx(0.5)
        assert law.tail_prob(2 * x0) == pytest.approx(0.5 * 2.0**-4)
        assert law.tail_quantile(0.5 * 2.0**-4) == pytest.approx(2 * x0)
        for t in [x0, 1.0, 5.0]:
            assert law.tail_mean(t) == pytest.approx(4.0 * t / 3.0)
            assert law.tail_variance(t) == pytest.approx(2.0 * t * t / 9.0)

    def test_pareto_mean_below_negative_edge(self):
        # E[X 1{X > -2}] = x0^4 / 12 for the exponent-4 law; conditioning divides by the mass.
        law = ParetoTwoSided(4.0)
        p = 1.0 - 0.5 * (law.x0 / 2.0) ** 4
        assert law.tail_mean(-2.0) == pytest.approx((0.25 / 12.0) / p, rel=1e-12)

    def test_pareto_excludes_center_gap(self, rng):
        law = ParetoTwoSided(4.0)
        x = law.sample(rng, 50000)
        assert np.all(np.abs(x) >= law.x0)
        assert law.tail_prob(0.0) == pytest.approx(0.5)

    def test_pareto_tail_frequencies(self, rng):
        law = ParetoTwoSided(4.0)
        x = law.sample(rng, 200000)
        for thr in [1.0, 2.0]:
            p = law.tail_prob(thr)
            se = math.sqrt(p * (1 - p) / x.size)
            assert abs(np.mean(x > thr) - p) < 5 * se

    def test_pareto_requires_finite_variance(self):
        with pytest.raises(ConfigurationError):
            ParetoTwoSided(2.0)
        with pytest.raises(ConfigurationError):
            ParetoTwoSided(1.5)

    def test_uniform_endpoints(self):
        law = UnitUniform()
        assert law.tail_quantile(0.5) == pytest.approx(0.0)
        assert law.tail_prob(SQRT3) == 0.0
        assert law.tail_prob(-SQRT3) == 1.0
        assert law.support_upper == pytest.approx(SQRT3)

    def test_sign_law_values(self):
        law = Rademacher()
        assert law.tail_prob(0.0) == 0.5
        assert law.tail_prob(-1.0) == 0.5
        assert law.tail_prob(1.0) == 0.0
        assert law.tail_prob(-1.5) == 1.0
        assert law.tail_mean(0.0) == 1.0
        assert law.tail_variance(0.0) == 0.0
        assert law.tail_mean(-1.5) == 0.0
        assert law.tail_variance(-1.5) == 1.0

    @pytest.mark.parametrize(
        "law,top",
        [(UnitUniform(), SQRT3), (Rademacher(), 1.0)],
        ids=["uniform", "rademacher"],
    )
    def test_bounded_laws_reject_empty_tail(self, law, top):
        for t in [top, top + 1.0]:
            with pytest.raises(DomainError):
                law.tail_mean(t)
            with pytest.raises(DomainError):
                law.tail_variance(t)

    @pytest.mark.parametrize(
        "law",
        [StdNormal(), UnitLaplace(), ParetoTwoSided(6.0), UnitUniform(), Rademacher()],
        ids=["normal", "laplace", "pareto6", "uniform", "rademacher"],
    )
    def test_sample_moments(self, law, rng):
        x = law.sample(rng, 400000)
        n = x.size
        assert abs(x.mean()) < 6 / math.sqrt(n)
        kurt = float(np.mean(x**4))
        var_se = math.sqrt(max(kurt - 1.0, 1e-12) / n)
        assert abs(x.var() - 1.0) < 6 * max(var_se, 1e-6)


class TestRandomness:
    def test_substream_reproducible(self):
        a = substream(123, 7).standard_normal(16)
        b = substream(123, 7).standard_normal(16)
        assert np.array_equal(a, b)

    def test_substream_index_decorrelates(self):
        a = substream(123, 0).standard_normal(16)
        b = substream(123, 1).standard_normal(16)
        assert not np.array_equal(a, b)

    def test_normal_from_uniform_moments(self):
        x = normal_from_uniform(substream(99, 0), 400000)
        n = x.size
        assert abs(x.mean()) < 6 / math.sqrt(n)
        assert abs(x.var() - 1.0) < 6 * math.sqrt(2.0 / n)
        assert abs(stats.skew(x)) < 6 * math.sqrt(6.0 / n)
        assert abs(stats.kurtosis(x)) < 6 * math.sqrt(24.0 / n)

    def test_normal_from_uniform_distribution(self):
        x = normal_from_uniform(substream(7, 3), 100000)
        assert stats.kstest(x, "norm").pvalue > 1e-3

    def test_normal_from_uniform_shape(self):
        x = normal_from_uniform(substream(1, 0), (3, 5))
        assert x.shape == (3, 5)


class TestJointModels:
    def test_scalar_correlation(self):
        model = GaussianScalar(rho=0.6)
        x, y = model.draw_pairs(substream(11, 0), 200000)
        assert abs(np.mean(x * y) - 0.6) < 0.012
        assert abs(np.var(y) - 1.0) < 0.015

    def test_scalar_rejects_bad_rho(self):
        with pytest.raises(ConfigurationError):
            GaussianScalar(rho=1.5)

    def test_yvec_covariances(self):
        rho = np.array([0.8, 0.4, -0.2])
        model = GaussianYVec(rho=rho, sigma_y=CorrelationMatrix.equicorrelated(3, 0.3))
        x, y = model.draw_pairs(substream(5, 0), 200000)
        for ell in range(3):
            assert abs(np.mean(x * y[:, ell]) - rho[ell]) < 0.015
        emp = np.cov(y, rowvar=False)
        assert np.allclose(emp, model.sigma_y.values, atol=0.02)

    def test_yvec_rejects_incompatible(self):
        with pytest.raises(ConfigurationError):
            GaussianYVec(rho=np.array([0.9, 0.9]), sigma_y=CorrelationMatrix.identity(2))
        with pytest.raises(ConfigurationError):
            GaussianYVec(rho=np.array([0.5]), sigma_y=CorrelationMatrix.identity(2))

    def test_xvec_covariances(self):
        rho = np.array([0.7, 0.3, -0.2])
        model = GaussianXVec(rho=rho, sigma_x=CorrelationMatrix.equicorrelated(3, 0.4))
        x, y = model.draw_pairs(substream(5, 0), 200000)
        assert np.allclose(np.cov(x, rowvar=False), model.sigma_x.values, atol=0.02)
        for ell in range(3):
            assert abs(np.mean(x[:, ell] * y) - rho[ell]) < 0.015
        assert abs(np.var(y) - 1.0) < 0.015

    def test_xvec_noise_variance(self):
        rho = np.array([0.7, 0.3, -0.2])
        sx = CorrelationMatrix.equicorrelated(3, 0.4)
        model = GaussianXVec(rho=rho, sigma_x=sx)
        want = 1.0 - rho @ np.linalg.solve(sx.values, rho)
        assert model.noise_var == pytest.approx(want, rel=1e-12)

    def test_xvec_whitened_draws(self):
        rho = np.array([0.7, 0.3, -0.2])
        model = GaussianXVec(rho=rho, sigma_x=CorrelationMatrix.equicorrelated(3, 0.4))
        w, y = model.draw_whitened(substream(5, 0), 200000)
        assert np.allclose(np.cov(w, rowvar=False), np.eye(3), atol=0.02)
        for ell in range(3):
            assert abs(np.mean(w[:, ell] * y) - model.whitened_rho[ell]) < 0.015

    def test_xvec_rejects_incompatible(self):
        with pytest.raises(ConfigurationError):
            GaussianXVec(rho=np.array([0.99, -0.99]), sigma_x=CorrelationMatrix.equicorrelated(2, 0.9))

    @pytest.mark.parametrize("model", [GaussianXVec, GaussianYVec])
    def test_vector_models_reject_a_nan_correlation(self, model):
        with pytest.raises(ConfigurationError, match="every correlation entry must lie in"):
            model(np.array([np.nan, 0.2]), CorrelationMatrix.identity(2))

    def test_additive_correlation(self):
        model = AdditiveNoise(rho=0.5, x_law=UnitLaplace(), z_law=StdNormal())
        x, y = model.draw_pairs(substream(13, 0), 200000)
        assert abs(np.mean(x * y) - 0.5) < 0.015
        assert abs(np.var(y) - 1.0) < 0.02

    def test_binary_correlation(self):
        model = DoublySymmetricBinary(flip_prob=0.2)
        assert model.rho == pytest.approx(0.6)
        x, y = model.draw_pairs(substream(17, 0), 200000)
        assert set(np.unique(x)) <= {-1.0, 1.0}
        assert abs(np.mean(x * y) - 0.6) < 0.01

    def test_binary_rejects_bad_flip(self):
        with pytest.raises(ConfigurationError):
            DoublySymmetricBinary(flip_prob=1.2)

    def test_block_average_keeps_correlation(self):
        inner = DoublySymmetricBinary(flip_prob=0.2)
        for m in [1, 16]:
            x, y = BlockAveraged(inner, m).draw_pairs(substream(19, 0), 100000)
            assert abs(np.mean(x * y) - 0.6) < 0.02
            assert abs(np.var(x) - 1.0) < 0.02

    def test_block_average_normalizes(self):
        # Averaged sign blocks approach the normal shape as the block grows.
        inner = DoublySymmetricBinary(flip_prob=0.2)
        dists = []
        for m in [1, 4, 64]:
            x, _ = BlockAveraged(inner, m).draw_pairs(substream(23, 0), 40000)
            dists.append(stats.kstest(x, "norm").statistic)
        assert dists[0] > dists[1] > dists[2]
        assert dists[2] < 0.08

    def test_block_average_validation(self):
        inner = GaussianScalar(rho=0.1)
        for m in (0, 4.5, math.nan):
            with pytest.raises(ConfigurationError):
                BlockAveraged(inner, m)
        assert BlockAveraged(inner, 4.0).m == 4
        with pytest.raises(ConfigurationError):
            BlockAveraged(BlockAveraged(inner, 2), 2)
        vec = GaussianYVec(rho=np.array([0.3]), sigma_y=CorrelationMatrix.identity(1))
        with pytest.raises(ConfigurationError):
            BlockAveraged(vec, 2)


class TestModelQueries:
    def test_true_correlations(self):
        assert GaussianScalar(0.4).true_correlations() == pytest.approx([0.4])
        rho = np.array([0.8, -0.2])
        mat = CorrelationMatrix.identity(2)
        assert np.array_equal(GaussianYVec(rho, mat).true_correlations(), rho)
        assert np.array_equal(GaussianXVec(rho, mat).true_correlations(), rho)
        assert DoublySymmetricBinary(0.25).true_correlations() == pytest.approx([0.5])
        block = BlockAveraged(GaussianScalar(0.4), 8)
        assert block.true_correlations() == pytest.approx([0.4])

    def test_x_support_upper(self):
        assert GaussianScalar(0.0).x_support_upper == math.inf
        assert DoublySymmetricBinary(0.1).x_support_upper == 1.0
        uni = AdditiveNoise(0.3, UnitUniform(), StdNormal())
        assert uni.x_support_upper == pytest.approx(SQRT3)
        block = BlockAveraged(DoublySymmetricBinary(0.1), 4)
        assert block.x_support_upper == pytest.approx(2.0)

    def test_crossing_prob_closed_forms(self):
        assert GaussianScalar(0.2).crossing_prob(1.3) == pytest.approx(
            0.5 * math.erfc(1.3 / math.sqrt(2)), rel=1e-12
        )
        add = AdditiveNoise(0.3, UnitLaplace(), StdNormal())
        assert add.crossing_prob(0.9) == pytest.approx(UnitLaplace().tail_prob(0.9))
        assert DoublySymmetricBinary(0.1).crossing_prob(0.0) == 0.5
        assert DoublySymmetricBinary(0.1).crossing_prob(1.0) == 0.0

    def test_crossing_prob_binary_blocks(self):
        model = BlockAveraged(DoublySymmetricBinary(0.2), 9)
        # (2B - 9)/3 > 0.5 needs B >= 6 successes out of 9 fair signs.
        want = (math.comb(9, 6) + math.comb(9, 7) + math.comb(9, 8) + math.comb(9, 9)) / 2.0**9
        assert model.crossing_prob(0.5) == pytest.approx(want, rel=1e-12)
        assert model.crossing_prob(3.0) == 0.0
        assert model.crossing_prob(-4.0) == 1.0

    @pytest.mark.parametrize("m", [1, 2, 7, 16, 33, 60])
    def test_binary_block_tail_is_exact(self, m):
        for bmin in range(0, m + 1):
            terms = [math.comb(m, b) for b in range(bmin, m + 1)]
            p, cum = _binomial_upper_tail(m, bmin)
            assert p == float(Fraction(sum(terms), 2**m))
            want = [float(Fraction(sum(terms[: j + 1]), sum(terms))) for j in range(len(terms))]
            assert cum.tolist() == want

    @pytest.mark.parametrize("m", [64, 255, 1000, 1024, 1025, 4096])
    def test_binary_block_tail_matches_scipy(self, m):
        for bmin in np.unique(np.linspace(1, m, 25).astype(int)):
            ref = stats.binom.sf(bmin - 1, m, 0.5)
            if ref < 1e-250:
                continue  # scipy's pmf underflows long before the exact sums do
            p, cum = _binomial_upper_tail(m, int(bmin))
            assert p == pytest.approx(ref, rel=1e-12, abs=0.0)
            ref_cum = np.cumsum(stats.binom.pmf(np.arange(bmin, m + 1), m, 0.5))
            ref_cum /= ref_cum[-1]
            # The table may stop early at 1.0, where the remaining mass is
            # negligible. Subnormal entries carry no relative precision, so
            # the absolute floor is the smallest normal float.
            assert cum[-1] == 1.0
            np.testing.assert_allclose(cum, ref_cum[: cum.size], rtol=1e-12,
                                       atol=np.finfo(float).tiny)
            np.testing.assert_allclose(ref_cum[cum.size:], 1.0, rtol=1e-12)
            model = BlockAveraged(DoublySymmetricBinary(0.2), m)
            t = (2.0 * bmin - m - 1.0) / math.sqrt(m)  # bmin is the smallest count above t
            assert model.crossing_prob(t) == p

    def test_tail_variance_comes_from_the_x_law(self):
        for model in (GaussianScalar(0.3), AdditiveNoise(0.3, UnitLaplace(), StdNormal()),
                      BlockAveraged(GaussianScalar(0.3), 4)):
            law = model.x_law if hasattr(model, "x_law") else StdNormal()
            for t in (-1.0, 0.4, 2.5):
                assert model.tail_variance(t) == law.tail_variance(t)

    @pytest.mark.parametrize("m", [1, 2, 7, 16, 64, 256, 1000])
    def test_binary_block_tail_variance_matches_the_lattice(self, m):
        model = BlockAveraged(DoublySymmetricBinary(0.2), m)
        counts = np.arange(m + 1)
        xbar = (2.0 * counts - m) / math.sqrt(m)
        pmf = stats.binom.pmf(counts, m, 0.5)
        for t in np.linspace(-math.sqrt(m) - 1.0, math.sqrt(m) - 0.5, 9):
            sel = xbar > t
            w = pmf[sel] / pmf[sel].sum()
            x = xbar[sel]
            want = float(w @ (x - w @ x) ** 2)
            assert model.tail_variance(t) == pytest.approx(want, rel=1e-9, abs=1e-15)
        # Below the support the whole block average is selected: unit variance.
        assert model.tail_variance(-math.sqrt(m) - 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_crossing_prob_unknown_cases(self):
        block = BlockAveraged(AdditiveNoise(0.2, UnitLaplace(), StdNormal()), 4)
        assert block.crossing_prob(0.5) is None
        mat = CorrelationMatrix.identity(2)
        assert GaussianXVec(np.array([0.5, 0.1]), mat).crossing_prob(0.5) is None


class TestSampleStream:
    """The row stream of a substream, as the models and the walker read it."""

    def test_deterministic(self):
        model = GaussianScalar(0.3)
        a = model.draw_pairs(substream(42, 0), 64)
        b = model.draw_pairs(substream(42, 0), 64)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        c = model.draw_pairs(substream(43, 0), 64)
        assert not np.array_equal(a[0], c[0])

    def test_iterator_matches_draw_chunk(self):
        # A walk that stops on every row reads the rows of one draw in order.
        model = GaussianScalar(0.3)
        xs, ys = model.draw_pairs(substream(42, 0), 16)
        batch = walk_first_hit(model.draw_pairs, lambda x: np.ones(x.shape[0], dtype=bool), 1.0,
                               substream(42, 0), 16, 1)
        assert np.all(batch.index == 1) and not batch.capped.any()
        assert np.array_equal(batch.x, xs) and np.array_equal(batch.y, ys)

    def test_vector_shapes(self):
        rho = np.array([0.5, -0.1])
        yv = GaussianYVec(rho, CorrelationMatrix.identity(2))
        x, y = yv.draw_pairs(substream(1, 0), 10)
        assert x.shape == (10,) and y.shape == (10, 2)
        xv = GaussianXVec(rho, CorrelationMatrix.identity(2))
        x, y = xv.draw_pairs(substream(1, 0), 10)
        assert x.shape == (10, 2) and y.shape == (10,)

    def test_whitened_requires_xvec(self):
        # Only the X-vector model has whitened rows to walk.
        assert not hasattr(GaussianScalar(0.1), "draw_whitened")
        yv = GaussianYVec(np.array([0.3, 0.1]), CorrelationMatrix.identity(2))
        assert not hasattr(yv, "draw_whitened")
        xv = GaussianXVec(np.array([0.3, 0.1]), CorrelationMatrix.identity(2))
        w, y = xv.draw_whitened(substream(1, 0), 4)
        assert w.shape == (4, 2) and y.shape == (4,)


class TestFirstCrossing:
    def test_index_is_geometric(self):
        model = GaussianScalar(0.5)
        t = 0.8
        p = model.crossing_prob(t)
        batch = draw_first_crossing(model, t, substream(31, 0), 100000)
        assert np.all(batch.index >= 1)
        assert not batch.capped.any()
        se = math.sqrt((1 - p) / p**2 / batch.index.size)
        assert abs(batch.index.mean() - 1 / p) < 5 * se
        # Chi-square fit against the geometric cell probabilities.
        kmax = 20
        obs = np.array(
            [np.sum(batch.index == j) for j in range(1, kmax + 1)] + [np.sum(batch.index > kmax)]
        )
        probs = np.array([p * (1 - p) ** (j - 1) for j in range(1, kmax + 1)] + [(1 - p) ** kmax])
        assert stats.chisquare(obs, batch.index.size * probs).pvalue > 1e-3

    def test_crossing_value_moments(self):
        model = GaussianScalar(0.5)
        t = 1.1
        law = StdNormal()
        batch = draw_first_crossing(model, t, substream(37, 0), 200000)
        n = batch.x.size
        assert np.all(batch.x > t)
        m, v = law.tail_mean(t), law.tail_variance(t)
        assert abs(batch.x.mean() - m) < 5 * math.sqrt(v / n)
        y_var = 0.25 * v + 0.75
        assert abs(batch.y.mean() - 0.5 * m) < 5 * math.sqrt(y_var / n)

    def test_matches_literal_scan(self):
        # The factorized draw and the literal walk agree in distribution.
        model = GaussianScalar(0.5)
        t = 0.8
        direct = draw_first_crossing(model, t, substream(41, 0), 4000)
        walked = walk_first_hit(model.draw_pairs, lambda x: x > t, model.crossing_prob(t),
                                substream(41, 1), 4000, 4096)
        assert not walked.capped.any()
        assert stats.ks_2samp(direct.x, walked.x).pvalue > 1e-3
        assert stats.ks_2samp(direct.y, walked.y).pvalue > 1e-3
        assert stats.ks_2samp(direct.index, walked.index).pvalue > 1e-3

    def test_binary_block_crossing_values(self):
        model = BlockAveraged(DoublySymmetricBinary(0.2), 9)
        batch = draw_first_crossing(model, 0.5, substream(43, 0), 20000)
        lattice = (2.0 * np.arange(6, 10) - 9.0) / 3.0
        assert np.all(np.isin(batch.x, lattice))
        weights = np.array([math.comb(9, b) for b in range(6, 10)], dtype=float)
        weights /= weights.sum()
        obs = np.array([np.sum(batch.x == v) for v in lattice])
        assert stats.chisquare(obs, batch.x.size * weights).pvalue > 1e-3

    def test_binary_block_y_correlation(self):
        inner = DoublySymmetricBinary(0.2)
        model = BlockAveraged(inner, 16)
        batch = draw_first_crossing(model, 1.0, substream(47, 0), 100000)
        # E[Y | X = x] = rho x for the averaged sign pairs.
        resid = batch.y - inner.rho * batch.x
        assert abs(resid.mean()) < 5 * resid.std() / math.sqrt(resid.size)

    def test_scan_caps_out(self):
        # Cap 8 is below the slab length at p = Q(2), so the one pass reads 8
        # rows per trial, in one draw that a replay reproduces.
        model, t, cap = GaussianScalar(0.0), 2.0, 8
        batch = walk_first_hit(model.draw_pairs, lambda x: x > t, float(qfunc(t)),
                               substream(51, 0), 50, cap)
        xs, _ = model.draw_pairs(substream(51, 0), 50 * cap)
        mask = (xs > t).reshape(50, cap)
        no_hit = ~mask.any(axis=1)
        assert batch.capped.sum() == 43
        np.testing.assert_array_equal(batch.capped, no_hit)
        np.testing.assert_array_equal(np.isnan(batch.x), no_hit)
        np.testing.assert_array_equal(np.isnan(batch.y), no_hit)
        # A hit on the last allowed row also reads index = cap (one trial
        # here), so ``capped``, not the index, marks the capped trials.
        np.testing.assert_array_equal(batch.index, np.where(no_hit, cap, mask.argmax(axis=1) + 1))

    def test_impossible_crossing_rejected(self):
        with pytest.raises(ConfigurationError):
            draw_first_crossing(DoublySymmetricBinary(0.1), 1.5, substream(0, 0), 4)
        uni = AdditiveNoise(0.3, UnitUniform(), StdNormal())
        with pytest.raises(ConfigurationError):
            draw_first_crossing(uni, 2.0, substream(0, 0), 4)

    def test_no_closed_form_rejected(self):
        block = BlockAveraged(AdditiveNoise(0.2, UnitLaplace(), StdNormal()), 4)
        with pytest.raises(ConfigurationError):
            draw_first_crossing(block, 0.5, substream(0, 0), 4)

    CROSSABLE = [
        GaussianScalar(0.6),
        AdditiveNoise(-0.4, UnitLaplace(), StdNormal()),
        AdditiveNoise(0.3, ParetoTwoSided(4.5), UnitUniform()),
        AdditiveNoise(0.3, StdNormal(), UnitLaplace()),
        GaussianYVec(rho=[0.5, -0.2], sigma_y=CorrelationMatrix([[1.0, 0.3], [0.3, 1.0]])),
        DoublySymmetricBinary(0.2),
        BlockAveraged(GaussianScalar(0.5), 4),
        BlockAveraged(DoublySymmetricBinary(0.2), 16),
    ]

    @pytest.mark.parametrize("model", CROSSABLE, ids=lambda m: type(m).__name__)
    def test_draws_leave_their_inputs_alone(self, model):
        # The draws work in their own buffers: Y given X must not write to
        # X (the quantized scheme reads the crossing values afterwards), and
        # neither draw may hand back an array it shares with another.
        t = 0.5
        p = model.crossing_prob(t)
        x = model.tail_x(t, p, substream(53, 0), 1000)
        assert np.all(x > t)
        x.setflags(write=False)
        before = x.copy()
        y = model.y_given_x(x, substream(53, 1))
        assert not np.shares_memory(x, y)
        assert x.tobytes() == before.tobytes()
        assert model.tail_x(t, p, substream(53, 0), 1000).tobytes() == before.tobytes()

    @pytest.mark.parametrize("model", CROSSABLE[:4], ids=lambda m: getattr(m, "x_law").name)
    def test_in_place_draws_match_their_plain_form(self, model):
        # Scaling the uniforms, and s Z + rho X summed into Z, in place give
        # the bits of the out-of-place expressions.
        t = 0.5
        p = model.crossing_prob(t)
        x = model.tail_x(t, p, substream(59, 0), 1000)
        plain_x = model.x_law.tail_quantile(_open_uniform(substream(59, 0), 1000) * p)
        assert x.tobytes() == np.asarray(plain_x).tobytes()
        y = model.y_given_x(x, substream(59, 1))
        z = model.z_law.sample(substream(59, 1), 1000)
        plain_y = model.rho * x + math.sqrt(1.0 - model.rho**2) * z
        assert y.tobytes() == plain_y.tobytes()

    def test_a_given_crossing_probability_is_used(self):
        model = GaussianScalar(0.5)
        t = 0.8
        p = model.crossing_prob(t)
        plain = draw_first_crossing(model, t, substream(61, 0), 500)
        given = draw_first_crossing(model, t, substream(61, 0), 500, p=p)
        for a, b in zip((plain.index, plain.x, plain.y), (given.index, given.x, given.y)):
            assert a.tobytes() == b.tobytes()
        with pytest.raises(ConfigurationError):
            draw_first_crossing(model, t, substream(61, 0), 500, p=0.0)


class _FixedUniforms:
    """Stands in for a Generator whose ``random`` returns these fixed values."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def random(self, size=None, out=None):
        if out is None:
            out = np.empty(size)
        out[...] = self.values.reshape(out.shape)
        return out


class TestOpenUniform:
    @staticmethod
    def where_form(u):
        return np.where(u == 0.0, 2.0**-53, u)

    def test_matches_where_form_on_philox(self):
        for size in (1, 1000, (50, 3, 3)):
            want = self.where_form(substream(5, 1).random(size))
            got = _open_uniform(substream(5, 1), size)
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_clamps_only_exact_zeros(self):
        # Generator.random returns multiples of 2^-53 in [0, 1).
        values = np.array([0.0, 2.0**-53, 2.0**-52, 0.5, 0.0, 1.0 - 2.0**-53])
        want = self.where_form(values)
        np.testing.assert_array_equal(_open_uniform(_FixedUniforms(values), values.size), want)
        out = np.empty((2, 3))
        got = _open_uniform(_FixedUniforms(values), out=out)
        assert got is out
        np.testing.assert_array_equal(got.reshape(-1), want)
        assert got.min() > 0.0

    def test_out_draws_the_same_stream(self):
        out = np.empty((40, 4, 4))
        _open_uniform(substream(6, 2), out=out)
        np.testing.assert_array_equal(out, _open_uniform(substream(6, 2), (40, 4, 4)))


def philox_state(rng):
    state = rng.bit_generator.state
    return (state["state"]["counter"].tolist(), state["state"]["key"].tolist(),
            state["buffer"].tolist(), state["buffer_pos"], state["has_uint32"], state["uinteger"])


class TestPhiloxCursors:
    """Reading a Philox stream at an offset, and skipping ahead on it."""

    @pytest.mark.parametrize("drawn", [0, 1, 2, 3, 4, 5])
    def test_cursor_reads_the_doubles_drawn_in_order(self, drawn):
        # From a fresh generator and from one part way into its four-double
        # buffer; opening the cursors leaves the generator untouched.
        rng = substream(9, 4)
        rng.random(drawn)
        before = philox_state(rng)
        ahead = substream(9, 4).random(drawn + 30)[drawn:]
        cursors = _philox_cursors(rng, range(10))
        assert philox_state(rng) == before
        for offset, cursor in enumerate(cursors):
            np.testing.assert_array_equal(cursor.random(20), ahead[offset:offset + 20])
        assert philox_state(rng) == before

    def test_cursor_reaches_far_offsets(self):
        # Past 2^64 counter steps, so the carry into the counter's second word
        # counts: advancing by 2^64 + 1 steps skips 4 (2^64 + 1) doubles.
        offset = 4 * (2**64 + 1) + 7
        rng = substream(9, 5)
        rng.bit_generator.advance(2**64 + 1)
        ahead = rng.random(11)[7:]
        np.testing.assert_array_equal(_philox_cursors(substream(9, 5), (offset,))[0].random(4),
                                      ahead)

    @pytest.mark.parametrize("drawn", [0, 1, 3])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 9, 16_387])
    def test_skip_leaves_the_state_drawing_leaves(self, drawn, n):
        rng, drawing = substream(9, 6), substream(9, 6)
        # A buffered 32-bit half survives drawing doubles, and so skipping.
        rng.integers(0, 10, dtype=np.int32)
        drawing.integers(0, 10, dtype=np.int32)
        rng.random(drawn)
        drawing.random(drawn + n)
        _skip_doubles(rng, n)
        skipped, drawn_state = philox_state(rng), philox_state(drawing)
        # An emptied buffer's stale contents are never read again.
        if drawn_state[3] == 4:
            skipped, drawn_state = skipped[:2] + skipped[3:], drawn_state[:2] + drawn_state[3:]
        assert skipped == drawn_state
        np.testing.assert_array_equal(rng.integers(0, 2**31, 4, dtype=np.int32),
                                      drawing.integers(0, 2**31, 4, dtype=np.int32))
        np.testing.assert_array_equal(rng.random(9), drawing.random(9))

    def test_other_bit_generators_are_refused(self):
        with pytest.raises(ConfigurationError, match="needs a Philox generator, got PCG64"):
            _philox_cursors(np.random.default_rng(1), (0,))
