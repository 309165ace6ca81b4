import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from corrlink.errors import ConfigurationError, SingularMatrixError
from corrlink.linalg import (
    CorrelationMatrix,
    _row_sums,
    invert,
    singular_value_lower_bound,
    sym_inv_sqrt,
    sym_sqrt,
)


def reference_bound(m):
    """The screen's formula on whole stacks, with numpy's reductions."""
    absm = np.abs(m)
    diag = np.diagonal(absm, axis1=-2, axis2=-1)
    row_off = absm.sum(axis=-1) - diag
    col_off = absm.sum(axis=-2) - diag
    return (diag - 0.5 * (row_off + col_off)).min(axis=-1)


def random_correlation(rng, d):
    a = rng.standard_normal((d, d + 3))
    cov = a @ a.T + 0.05 * np.eye(d)
    scale = np.sqrt(np.diag(cov))
    return cov / np.outer(scale, scale)


class TestCorrelationMatrix:
    def test_identity_and_equicorrelated(self):
        ident = CorrelationMatrix.identity(3)
        assert ident.dim == 3
        np.testing.assert_array_equal(ident.values, np.eye(3))
        eq = CorrelationMatrix.equicorrelated(4, 0.6)
        assert eq.values[0, 1] == pytest.approx(0.6)
        assert np.all(np.diag(eq.values) == 1.0)

    def test_accepts_random_valid(self, rng):
        for d in (1, 2, 5):
            mat = CorrelationMatrix(random_correlation(rng, d))
            assert mat.dim == d

    def test_values_read_only(self):
        mat = CorrelationMatrix.identity(2)
        with pytest.raises(ValueError):
            mat.values[0, 1] = 0.5

    def test_defensive_copy(self):
        raw = np.eye(2)
        mat = CorrelationMatrix(raw)
        raw[0, 1] = 0.9
        assert mat.values[0, 1] == 0.0

    @pytest.mark.parametrize(
        "bad",
        [
            np.ones((2, 3)),
            np.array([[1.0, 0.5], [0.2, 1.0]]),
            np.array([[1.0, 0.5], [0.5, 2.0]]),
            np.array([[1.0, 1.3], [1.3, 1.0]]),
            np.array([[1.0, 1.0], [1.0, 1.0]]),
        ],
        ids=["nonsquare", "asymmetric", "diagonal", "entry-range", "singular"],
    )
    def test_rejects_invalid(self, bad):
        with pytest.raises(ConfigurationError):
            CorrelationMatrix(bad)

    def test_equicorrelated_negative_limit(self):
        # Off-diagonal below -1/(d-1) is not positive definite.
        with pytest.raises(ConfigurationError):
            CorrelationMatrix.equicorrelated(3, -0.6)


class TestSymmetricRoots:
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=1000))
    def test_sqrt_roundtrip(self, d, seed):
        rng = np.random.default_rng(seed)
        a = random_correlation(rng, d)
        root = sym_sqrt(a)
        np.testing.assert_allclose(root @ root, a, atol=1e-10)
        np.testing.assert_allclose(root, root.T, atol=1e-12)

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=1000))
    def test_inv_sqrt_whitens(self, d, seed):
        rng = np.random.default_rng(seed)
        a = random_correlation(rng, d)
        w = sym_inv_sqrt(a)
        np.testing.assert_allclose(w @ a @ w, np.eye(d), atol=1e-9)

    def test_matches_scipy_oracle(self, rng):
        from scipy import linalg as sla

        a = random_correlation(rng, 4)
        np.testing.assert_allclose(sym_sqrt(a), sla.sqrtm(a).real, atol=1e-9)

    def test_rejects_singular(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SingularMatrixError):
            sym_inv_sqrt(a)


class TestInvert:
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=1000))
    def test_matches_numpy(self, d, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((d, d)) + 2.0 * np.eye(d)
        np.testing.assert_allclose(invert(a), np.linalg.inv(a), atol=1e-9)

    def test_residual_small(self, rng):
        a = random_correlation(rng, 5)
        inv = invert(a)
        np.testing.assert_allclose(a @ inv, np.eye(5), atol=1e-12)

    def test_rejects_ill_conditioned(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]])
        with pytest.raises(SingularMatrixError) as exc_info:
            invert(a)
        assert exc_info.value.condition_estimate > 1e12


class TestSingularValueLowerBound:
    @given(
        hnp.arrays(
            np.float64,
            (3, 3),
            elements=st.floats(min_value=-0.4, max_value=0.4),
        )
    )
    def test_bound_below_true_smin_dominant(self, off):
        m = off + 4.0 * np.eye(3)
        bound = singular_value_lower_bound(m)
        smin = np.linalg.svd(m, compute_uv=False).min()
        assert bound <= smin + 1e-12
        assert bound > 0.0

    @given(
        hnp.arrays(
            np.float64,
            (4, 4),
            elements=st.floats(min_value=-2.0, max_value=2.0),
        )
    )
    def test_bound_never_exceeds_smin(self, m):
        bound = singular_value_lower_bound(m)
        if bound > 0.0:
            smin = np.linalg.svd(m, compute_uv=False).min()
            assert bound <= smin + 1e-9

    def test_diagonal_exact(self):
        m = np.diag([3.0, 5.0, 2.0])
        assert singular_value_lower_bound(m) == pytest.approx(2.0)

    def test_stack_matches_each_matrix(self):
        rng = np.random.default_rng(3)
        stack = rng.standard_normal((7, 3, 3)) + 4.0 * np.eye(3)
        bounds = singular_value_lower_bound(stack)
        assert bounds.shape == (7,)
        for i in range(7):
            assert bounds[i] == singular_value_lower_bound(stack[i])

    @pytest.mark.parametrize("shape", [(9,), (1,), (), (2, 3)])
    @pytest.mark.parametrize("d", range(1, 10))
    def test_matches_whole_stack_formula(self, d, shape):
        # Magnitudes spread over 2^±30 so any change of summation order shows.
        rng = np.random.default_rng(d)
        m = rng.standard_normal(shape + (d, d)) * np.exp2(rng.integers(-30, 30, shape + (d, d)))
        m += 1e9 * np.eye(d)
        want = reference_bound(m)
        before = m.copy()
        got = singular_value_lower_bound(m)
        np.testing.assert_array_equal(m, before)
        if shape:
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        else:
            assert isinstance(got, float)
            assert np.float64(got).view(np.uint64) == want.view(np.uint64)

    @pytest.mark.parametrize("d", range(1, 10))
    def test_nan_row_gives_nan_bound(self, d):
        rng = np.random.default_rng(50 + d)
        stack = rng.standard_normal((5, d, d)) + 4.0 * d * np.eye(d)
        stack[2, d // 2, 0] = np.nan
        got = singular_value_lower_bound(stack)
        np.testing.assert_array_equal(np.isnan(got), [False, False, True, False, False])
        np.testing.assert_array_equal(got, reference_bound(stack))
        assert np.isnan(singular_value_lower_bound(stack[2]))
        assert singular_value_lower_bound(stack[0]) == reference_bound(stack[0])

    def test_tight_symmetric_case(self):
        m = np.array([[3.0, 1.0], [1.0, 3.0]])
        assert singular_value_lower_bound(m) == pytest.approx(2.0)
        assert np.linalg.svd(m, compute_uv=False).min() == pytest.approx(2.0)


class TestRowSums:
    """``_row_sums`` must repeat numpy's ``sum(axis=-1)`` bit for bit.

    If a numpy release changes the order in which it adds a short last axis,
    these tests fail before any golden file does.
    """

    @pytest.mark.parametrize("shape", [(400,), (), (3, 5)])
    @pytest.mark.parametrize("d", range(1, 11))
    def test_matches_numpy_sum(self, d, shape):
        # Magnitudes from 1e-8 to 1e8 with both signs, so any change of order
        # shows; from d = 8 on the helper is numpy's own sum.
        rng = np.random.default_rng(100 + d)
        a = rng.standard_normal(shape + (d,)) * 10.0 ** rng.uniform(-8.0, 8.0, shape + (d,))
        want = np.asarray(a.sum(axis=-1))
        got = np.asarray(_row_sums(a))
        assert got.shape == want.shape
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("d", [1, 2, 4, 7, 8])
    def test_special_values_and_integers(self, d):
        a = np.zeros((4, d))
        a[0] = -0.0
        a[1, -1] = np.nan
        a[2, 0] = np.inf
        a[3, 0] = -np.inf
        a[3, -1] = np.inf if d > 1 else -np.inf
        with np.errstate(invalid="ignore"):  # inf - inf
            got, want = _row_sums(a), a.sum(axis=-1)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        ints = np.arange(4 * d, dtype=np.int64).reshape(4, d) - 5
        got = _row_sums(ints)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, ints.sum(axis=-1))
