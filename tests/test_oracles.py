"""The literal first-hit walker, and every exact shortcut checked against it.

Three oracles are built from ``walk_first_hit`` and the models' own row
draws: the threshold oracle is one walk; the stopping-set oracle is d
sequential walks over whitened rows, one per target coordinate; the max
oracle is a fixed-length block per trial and its argmax. Each is compared at
10^5 trials with the exact sampler the estimators use. Seeds are fixed, and
each test's p-value floor is FAMILY_ALPHA split over its comparisons.
"""

import math

import numpy as np
import pytest
from scipy import stats

from corrlink import sources
from corrlink.analysis import stopping_second_moment
from corrlink.errors import ConfigurationError
from corrlink.estimators import max_trials, stopping_matrix_batch
from corrlink.linalg import CorrelationMatrix
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
    draw_first_crossing,
    substream,
    walk_first_hit,
)
from corrlink.statmath import max_normal_moments, qfunc

TRIALS = 100_000
FAMILY_ALPHA = 1e-3


def threshold_oracle(model, t, rng, size, cap=2**20):
    return walk_first_hit(model.draw_pairs, lambda x: x > t, model.crossing_prob(t),
                          rng, size, cap)


def stopping_set_oracle(model: GaussianXVec, a, b, rng, size, cap=2**20):
    """(W, gaps): column l of W is the whitened row of the l-th stopping set."""
    d = model.dim
    p = 2.0 * qfunc(a) * (1.0 - 2.0 * qfunc(b)) ** (d - 1)
    w = np.empty((size, d, d))
    gaps = np.empty((size, d))
    for target in range(d):
        def hit(rows, target=target):
            mag = np.abs(rows)
            return (mag[:, target] > a) & (np.delete(mag, target, axis=1) < b).all(axis=1)

        batch = walk_first_hit(model.draw_whitened, hit, p, rng, size, cap)
        assert not batch.capped.any()
        w[:, :, target] = batch.x
        gaps[:, target] = batch.index
    return w, gaps


def max_oracle(model, k, rng, size):
    """(J, X_J, Y_J) for the largest X of each trial's block of 2^k rows."""
    n = 2**k
    x, y = model.draw_pairs(rng, size * n)
    j = x.reshape(size, n).argmax(axis=1)
    rows = np.arange(size) * n + j
    return j + 1, x[rows], y[rows]


def assert_same_laws(pairs):
    """Two-sample KS on each (label, walked, direct) triple, floor split over the triples."""
    floor = FAMILY_ALPHA / len(pairs)
    # Rounding merges lattice points that the block sum and the closed-form
    # law reach by different float operations (1.0 against 1.0000000000000002).
    pvalues = {label: stats.ks_2samp(np.round(walked, 12), np.round(direct, 12)).pvalue
               for label, walked, direct in pairs}
    assert min(pvalues.values()) >= floor, pvalues


class TestWalkFirstHit:
    def test_payload_shapes_follow_the_draw(self):
        rho = np.array([0.5, -0.1])
        yv = GaussianYVec(rho, CorrelationMatrix.identity(2))
        batch = threshold_oracle(yv, 0.5, substream(3, 0), 7)
        assert batch.x.shape == (7,) and batch.y.shape == (7, 2)
        xv = GaussianXVec(rho, CorrelationMatrix.identity(2))
        batch = walk_first_hit(xv.draw_whitened, lambda w: w[:, 0] > 0.5, 0.3,
                               substream(3, 1), 7, 10**6)
        assert batch.x.shape == (7, 2) and batch.y.shape == (7,)
        assert np.all(batch.x[:, 0] > 0.5)
        empty = threshold_oracle(GaussianScalar(0.1), 0.5, substream(3, 2), 0)
        assert empty.index.shape == empty.x.shape == empty.capped.shape == (0,)

    def test_draws_stay_bounded_at_any_crossing_probability(self):
        model = GaussianScalar(0.0)

        def recording(sizes):
            def draw(rng, n):
                sizes.append(n)
                return model.draw_pairs(rng, n)
            return draw

        short, long = [], []
        walk_first_hit(recording(short), lambda x: x > 0.0, 0.5, substream(5, 0), 200_000, 10**6)
        walk_first_hit(recording(long), lambda x: x > 5.0, 1e-9, substream(5, 1), 3, 3 * 2**16)
        # Whole slabs of 2 rows, no probe row, and at most _WALK_ROWS rows a draw.
        assert max(short) == sources._WALK_ROWS and all(n % 2 == 0 for n in short)
        assert set(long) == {sources._WALK_ROWS}

    def test_rejects_a_cap_or_probability_it_cannot_walk(self):
        model = GaussianScalar(0.0)
        for p, cap in ((0.5, 0), (0.0, 10), (1.5, 10)):
            with pytest.raises(ConfigurationError):
                walk_first_hit(model.draw_pairs, lambda x: x > 0.0, p, substream(0, 0), 4, cap)


CROSSING_CASES = [
    pytest.param(GaussianScalar(0.5), 1.0, id="gaussian"),
    pytest.param(AdditiveNoise(0.5, UnitLaplace(), StdNormal()),
                 float(UnitLaplace().tail_quantile(0.15)), id="laplace"),
    pytest.param(AdditiveNoise(0.5, UnitUniform(), StdNormal()),
                 float(UnitUniform().tail_quantile(0.15)), id="uniform"),
    pytest.param(AdditiveNoise(0.5, ParetoTwoSided(4.0), StdNormal()),
                 float(ParetoTwoSided(4.0).tail_quantile(0.15)), id="pareto"),
    pytest.param(DoublySymmetricBinary(0.2), 0.0, id="binary"),
    pytest.param(BlockAveraged(GaussianScalar(0.5), 4), 1.0, id="gaussian-block"),
    pytest.param(BlockAveraged(DoublySymmetricBinary(0.2), 9), 0.5, id="binary-block"),
    pytest.param(GaussianYVec(np.array([0.5, -0.3, 0.2]),
                              CorrelationMatrix.equicorrelated(3, 0.2)), 1.0, id="yvec"),
]


class TestCrossingOracle:
    @pytest.mark.parametrize("model,t", CROSSING_CASES)
    def test_walk_matches_the_first_crossing_shortcut(self, model, t):
        assert model.crossing_prob(t) > 0.1
        walked = threshold_oracle(model, t, substream(61, 0), TRIALS)
        direct = draw_first_crossing(model, t, substream(61, 1), TRIALS)
        assert not walked.capped.any()
        ys = walked.y.reshape(TRIALS, -1)
        yd = direct.y.reshape(TRIALS, -1)
        assert_same_laws(
            [("J", walked.index, direct.index), ("X", walked.x, direct.x)]
            + [(f"Y{col}", ys[:, col], yd[:, col]) for col in range(ys.shape[1])]
        )


class TestMaxOracle:
    def test_walk_matches_the_max_scheme(self):
        model, k = GaussianScalar(0.5), 3
        j, x, y = max_oracle(model, k, substream(67, 0), TRIALS)
        batch = max_trials(model, k, substream(67, 1), TRIALS)
        mean_max = max_normal_moments(2.0**k).mean
        floor = FAMILY_ALPHA / 3
        assert stats.ks_2samp(y / mean_max, batch.estimates[:, 0]).pvalue >= floor
        assert stats.kstest(x, lambda v: stats.norm.cdf(v) ** 2**k).pvalue >= floor
        # The argmax position is uniform over the block.
        counts = np.bincount(j, minlength=2**k + 1)[1:]
        assert stats.chisquare(counts).pvalue >= floor
        assert np.all(batch.samples == 2**k)


class TestStoppingSetOracle:
    A, B = 1.0, 1.5

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_walk_matches_the_direct_stopping_matrices(self, d):
        model = GaussianXVec(np.zeros(d), CorrelationMatrix.identity(d))
        w_walk, g_walk = stopping_set_oracle(model, self.A, self.B, substream(71, d), TRIALS)
        w_dir, g_dir = stopping_matrix_batch(d, self.A, self.B, substream(72, d), TRIALS)
        assert_same_laws(
            [(f"W{i}{l}", w_walk[:, i, l], w_dir[:, i, l]) for i in range(d) for l in range(d)]
            + [(f"gap{l}", g_walk[:, l], g_dir[:, l]) for l in range(d)]
        )
        # E[W W^T] is stopping_second_moment times the identity; both samplers
        # meet it, and each other, at 5 standard errors in every entry.
        alpha = stopping_second_moment(self.A, self.B, d)
        moments = []
        for w in (w_walk, w_dir):
            wwt = np.einsum("nil,njl->nij", w, w)
            mean = wwt.mean(axis=0)
            se = wwt.std(axis=0, ddof=1) / math.sqrt(TRIALS)
            assert np.all(np.abs(mean - alpha * np.eye(d)) <= 5.0 * se)
            moments.append((mean, se))
        (m1, s1), (m2, s2) = moments
        assert np.all(np.abs(m1 - m2) <= 5.0 * np.hypot(s1, s2))
