"""Small dense symmetric-matrix helpers used by the vector estimators.

Dimensions here are tiny (d <= 16 in practice) so everything routes through
plain dense eigendecomposition and direct solves; the value added over raw
numpy is validation, symmetric square roots with a positive-definiteness
floor, and descriptive failures instead of silent NaN propagation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, SingularMatrixError

__all__ = [
    "CorrelationMatrix",
    "sym_sqrt",
    "sym_inv_sqrt",
    "invert",
    "singular_value_lower_bound",
]

# Eigenvalues below this floor count as a degenerate correlation structure.
_EIG_FLOOR = 1e-10

_COND_LIMIT = 1e12


@dataclass(frozen=True, eq=False)
class CorrelationMatrix:
    """A validated correlation matrix: symmetric, unit diagonal, entries in [-1, 1].

    The wrapped array is copied and marked read-only. Construction rejects
    matrices that are not (numerically) positive definite so downstream
    square roots and inverses are always well-defined.
    """

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.array(self.values, dtype=float, copy=True)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ConfigurationError(f"correlation matrix must be square, got shape {arr.shape}")
        if not np.allclose(arr, arr.T, atol=1e-12):
            raise ConfigurationError("correlation matrix must be symmetric")
        if not np.allclose(np.diag(arr), 1.0, atol=1e-12):
            raise ConfigurationError("correlation matrix must have a unit diagonal")
        if np.any(np.abs(arr) > 1.0 + 1e-12):
            raise ConfigurationError("correlation entries must lie in [-1, 1]")
        eigmin = float(np.linalg.eigvalsh(arr)[0])
        if eigmin <= _EIG_FLOOR:
            raise ConfigurationError(
                f"correlation matrix must be positive definite, smallest eigenvalue {eigmin:.3e}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    @classmethod
    def identity(cls, d: int) -> "CorrelationMatrix":
        return cls(np.eye(int(d)))

    @classmethod
    def equicorrelated(cls, d: int, offdiag: float) -> "CorrelationMatrix":
        """All off-diagonal entries equal to ``offdiag``."""
        d = int(d)
        arr = np.full((d, d), float(offdiag))
        np.fill_diagonal(arr, 1.0)
        return cls(arr)


def _eigh_checked(a: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=float)
    vals, vecs = np.linalg.eigh(a)
    if vals[0] <= _EIG_FLOOR:
        raise SingularMatrixError(
            f"{what} needs a positive definite matrix, smallest eigenvalue {vals[0]:.3e}"
        )
    return vals, vecs


def sym_sqrt(a: np.ndarray) -> np.ndarray:
    """Symmetric positive-definite square root of a symmetric matrix."""
    vals, vecs = _eigh_checked(a, "symmetric square root")
    return (vecs * np.sqrt(vals)) @ vecs.T


def sym_inv_sqrt(a: np.ndarray) -> np.ndarray:
    """Symmetric inverse square root, the canonical whitening transform."""
    vals, vecs = _eigh_checked(a, "inverse square root")
    return (vecs / np.sqrt(vals)) @ vecs.T


def invert(a: np.ndarray) -> np.ndarray:
    """Invert a small square matrix with a conditioning guard.

    Raises
    ------
    SingularMatrixError
        If the 1-norm condition estimate exceeds 1e12 (the result would
        carry fewer than ~4 trustworthy digits).
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ConfigurationError(f"can only invert square matrices, got shape {a.shape}")
    cond = float(np.linalg.cond(a, 1))
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise SingularMatrixError(
            f"matrix 1-norm condition estimate {cond:.3e} exceeds {_COND_LIMIT:.0e}",
            condition_estimate=cond,
        )
    eye = np.eye(a.shape[0])
    x = np.linalg.solve(a, eye)
    # One step of iterative refinement; cheap at these sizes.
    x += np.linalg.solve(a, eye - a @ x)
    return x


# numpy adds fewer than this many terms along an axis strictly left to right,
# starting from 0.0; from this many on it sums pairwise in blocks.
_SEQUENTIAL_SUM_LIMIT = 8


def _row_sums(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=-1)`` bit for bit, for a numeric array with a short last axis.

    numpy reduces a short last axis one row at a time, which costs far more
    than the arithmetic. Below ``_SEQUENTIAL_SUM_LIMIT`` terms the same sums
    come from adding whole columns in order; from there on this is numpy's
    own sum.
    """
    d = a.shape[-1]
    if d >= _SEQUENTIAL_SUM_LIMIT:
        return a.sum(axis=-1)
    # 0 + a[..., 0], as numpy starts: it turns a -0.0 into 0.0.
    total = a[..., 0] + 0
    for j in range(1, d):
        total += a[..., j]
    return total


def singular_value_lower_bound(m: np.ndarray):
    """Deterministic lower bound on the smallest singular value.

    For a square matrix returns
    min_i ( |m_ii| - (row_i off-diagonal sum + column_i off-diagonal sum) / 2 ),
    which bounds sigma_min from below whenever it is positive. Used to screen
    nearly singular selection matrices without an SVD per trial. A stack of
    shape (..., d, d) gives an array of bounds of shape (...); a single
    matrix gives a float.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ConfigurationError(f"bound needs square matrices, got shape {m.shape}")
    # |m| is taken one row slab (..., d) at a time rather than for the whole
    # stack. Summing rows in order as whole slabs, and each slab with
    # _row_sums, repeats np.abs(m).sum(axis=-2) and .sum(axis=-1) bit for bit.
    d = m.shape[-1]
    slab = np.empty(m.shape[:-1])
    col_off = np.abs(m[..., 0, :])
    for i in range(1, d):
        col_off += np.abs(m[..., i, :], out=slab)
    # Column i of col_off becomes row i's bound term once its sum is used.
    for i in range(d):
        np.abs(m[..., i, :], out=slab)
        diag = slab[..., i]
        row_off = _row_sums(slab)
        row_off -= diag
        col_i = col_off[..., i]
        col_i -= diag
        row_off += col_i
        row_off *= 0.5
        np.subtract(diag, row_off, out=col_i)
    # A minimum chain over the columns, like _row_sums, in place of a
    # reduction that runs row by row.
    bound = col_off[..., 0].copy()
    for i in range(1, d):
        np.minimum(bound, col_off[..., i], out=bound)
    return float(bound) if bound.ndim == 0 else bound


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
