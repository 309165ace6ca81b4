"""Two-party machinery: what Alice sends, how it is coded, and what it costs.

Every transmitted object is booked either as entropy (``LedgerMode.EXPECTED``,
the default) or as an actual prefix-free codeword length
(``LedgerMode.REALIZED``): geometric indices get a Golomb code matched to the
crossing probability, fixed-size payloads get fixed-length codes. This
module holds those codes, the quantizers for the transmitted values, and the
bit allocations that split a budget between index and payload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np

from .errors import ConfigurationError, DomainError
from .linalg import _off_diagonal
from .statmath import geometric_entropy, geometric_entropy_inv, qfunc, qfunc_inv

__all__ = [
    "LedgerMode",
    "StoppingSetParams",
    "ParetoAllocation",
    "golomb_parameter",
    "quantize_W_matrix",
    "quantize_pareto_value",
    "allocate_bits_xvec",
    "allocate_bits_pareto",
    "stopping_params_from_body_budget",
]

_SQRT3 = math.sqrt(3.0)

# Largest float that still represents every smaller integer exactly; indices
# beyond this cannot be Golomb-coded faithfully.
_MAX_EXACT_INDEX = 2.0**53


class LedgerMode(Enum):
    EXPECTED = "expected"
    REALIZED = "realized"


# ---------------------------------------------------------------------------
# Golomb coding of geometric indices.


def golomb_parameter(p: float) -> int:
    """Optimal Golomb divisor for a geometric index with success probability ``p``."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"success probability must lie in (0, 1), got {p!r}")
    denom = math.log1p(-p) / math.log(2.0)
    return max(1, math.ceil(-1.0 / denom))


def _check_index_range(p: float, indices: int) -> None:
    """Refuse ``indices`` Golomb-coded indices at crossing probability ``p`` when more
    than 1e-9 of them are expected to reach 2^53, where :func:`golomb_length_array`
    refuses them: a geometric index reaches 2^53 with probability (1 - p)^(2^53 - 1).
    """
    expected = indices * math.exp((_MAX_EXACT_INDEX - 1.0) * math.log1p(-p))
    if expected > 1e-9:
        raise ConfigurationError(
            f"mode = realized cannot code {indices} Golomb-coded indices at crossing "
            f"probability {p:.6g}: {expected:.3g} of them are expected to reach 2^53, past the "
            "exact float64 integer range (at most 1e-9 may); lower k or use mode = expected"
        )


def golomb_length_array(indices: np.ndarray, m: int) -> np.ndarray:
    """Golomb codeword lengths under divisor ``m`` for a float array of exact integer indices.

    Index j >= 1 is coded as the quotient (j - 1) // m in unary, then the
    remainder in truncated binary: b = ceil(log2 m) bits, one fewer for the
    2^b - m smallest remainders.
    """
    j = np.asarray(indices, dtype=float)
    # min and max propagate NaN, which passes both guards as it always has.
    if j.size and j.min() < 1.0:
        raise DomainError("indices must be >= 1")
    if j.size and j.max() >= _MAX_EXACT_INDEX:
        raise ConfigurationError(
            "an index exceeds the exact float64 integer range; realized accounting "
            "is unavailable at this crossing probability"
        )
    r = j.astype(np.int64)
    r -= 1
    # Division by a scalar divisor is far cheaper than divmod; the remainder
    # follows by multiply and subtract.
    q = np.floor_divide(r, m)
    r -= q * m
    b = (m - 1).bit_length()
    thr = (1 << b) - m
    # q + 1 + b bits, one fewer for the short codewords (r < thr).
    q += 1 + b
    q -= r < thr
    return q


# ---------------------------------------------------------------------------
# Parameter blocks.


@dataclass(frozen=True)
class StoppingSetParams:
    """Geometry and bit split for the vector-X selection rule.

    One coordinate must land beyond ``a`` in magnitude while every other stays
    inside (-b, b); ``k_l`` bits are budgeted per transmitted index and
    ``k_q`` per quantized matrix entry.
    """

    a: float
    b: float
    d: int
    k_l: float
    k_q: float

    def __post_init__(self):
        if self.d < 1:
            raise ConfigurationError(f"dimension must be >= 1, got {self.d!r}")
        if self.b < 0.0:
            raise ConfigurationError(f"weak-coordinate bound must be >= 0, got {self.b!r}")
        if not self.k_q >= 0.0:
            raise ConfigurationError(f"matrix entry budget k_q must be >= 0, got {self.k_q!r}")
        if not self.a > self.d * (self.b + 1.0):
            raise ConfigurationError(
                f"need a > d(b+1) for the quantization-loss guarantee: "
                f"a={self.a!r}, d={self.d!r}, b={self.b!r}"
            )
        _stopping_crossing_prob(self.a, self.b, self.d)

    @property
    def crossing_prob(self) -> float:
        return _stopping_crossing_prob(self.a, self.b, self.d)


def _stopping_crossing_prob(a: float, b: float, d: int) -> float:
    """Chance that a whitened vector stops the walk: 2Q(a) (1 - 2Q(b))^(d-1).

    One coordinate lands beyond ``a`` in magnitude and the d - 1 others inside
    (-b, b). Raises ConfigurationError unless the result lies in (0, 1).
    """
    p = 2.0 * qfunc(a) * (1.0 - 2.0 * qfunc(b)) ** (d - 1)
    if not 0.0 < p < 1.0:
        raise ConfigurationError(f"stopping-set crossing probability {p!r} outside (0, 1)")
    return p


class ParetoAllocation(NamedTuple):
    """Bit split and induced thresholds for the quantized heavy-tail scheme."""

    k_l: float
    k_q: float
    t: float
    u: float


# ---------------------------------------------------------------------------
# Quantizers.


class QuantizedPayload(NamedTuple):
    values: np.ndarray
    bits_expected: float
    bits_realized: int


def _midpoint(x: np.ndarray, lo: float, step: float, cells: int, out=None) -> np.ndarray:
    """Midpoints of the ``cells`` cells of width ``step`` from ``lo`` that hold ``x``.

    Values beyond either end, infinities included, go to the end cells. The
    map runs in place on ``out``, which may be ``x`` itself.
    """
    out = np.subtract(x, lo, out=np.empty_like(x) if out is None else out)
    out /= step
    np.floor(out, out=out)
    np.clip(out, 0, cells - 1, out=out)
    out += 0.5
    out *= step
    out += lo
    return out


def quantize_W_matrix(
    w: np.ndarray, params: StoppingSetParams, out: Optional[np.ndarray] = None
) -> QuantizedPayload:
    """Midpoint-quantize a selection matrix, or a stack of shape (..., d, d), for transmission.

    Diagonal entries keep their sign; magnitudes are clamped to
    [a, sqrt(3) a] and quantized on that doubled segment. Off-diagonal
    entries are quantized on [-b, b]. Each matrix is charged d^2 k_q
    expected bits; its realized cost is one fixed-length codeword over the
    product alphabet. The values are written to ``out`` (which may be ``w``
    itself) or to a new array.
    """
    w = np.asarray(w, dtype=float)
    d = params.d
    if w.shape[-2:] != (d, d):
        raise ConfigurationError(f"selection matrix must be {d}x{d}, got {w.shape}")
    if out is None:
        out = np.empty_like(w)
    expected = d * d * params.k_q
    if params.k_q > 52:
        # Alphabet finer than float64 spacing; quantization is the identity.
        out[...] = w
        return QuantizedPayload(out, expected, int(math.ceil(expected)))
    # Fractional budgets round the alphabet down to an even count; two cells
    # minimum keeps the sign split on the strong coordinate meaningful.
    cells = int(math.floor(2.0**params.k_q))
    cells = max(cells - cells % 2, 2)
    half = cells // 2
    a = params.a
    # Diagonal magnitudes on [a, sqrt(3) a], signs kept; the sign is read
    # before ``out`` (which may be ``w``) takes the magnitude.
    diag = np.einsum("...ii->...i", w)
    sign = np.sign(diag)
    mag = np.einsum("...ii->...i", out)
    np.abs(diag, out=mag)
    _midpoint(mag, a, (_SQRT3 * a - a) / half, half, out=mag)
    mag *= sign
    for entries, dest in zip(_off_diagonal(w), _off_diagonal(out)):
        _midpoint(entries, -params.b, 2.0 * params.b / cells, cells, out=dest)
    return QuantizedPayload(out, expected, math.ceil(d * d * math.log2(cells)))


def quantize_pareto_value(x, t: float, u: float, k_q: float) -> QuantizedPayload:
    """Midpoint-quantize crossing values on [t, u]; values beyond u saturate to u.

    ``x`` may be a scalar or an array; the bit charges are per value.
    """
    x = np.asarray(x, dtype=float)
    if not u > t:
        raise ConfigurationError(f"need u > t, got t={t!r} u={u!r}")
    if np.any(x <= t):
        raise DomainError(f"a value does not exceed the threshold {t!r}")
    cells = max(1, int(math.floor(2.0**k_q)))
    values = np.where(x > u, u, _midpoint(x, t, (u - t) / cells, cells))
    return QuantizedPayload(values, float(k_q), math.ceil(math.log2(cells)))


# ---------------------------------------------------------------------------
# Bit allocation.


def _strong_bound(k_l: float, d: int, b0: float) -> tuple[float, Optional[float]]:
    """Stopping-set geometry at weak bound ``b0``: the band mass and the strong bound.

    Returns (1 - 2Q(b0))^(d-1), the chance that the d - 1 weak coordinates
    all fall inside (-b0, b0), and the strong bound a that solves
    2Q(a) (1 - 2Q(b0))^(d-1) = p with geometric entropy H(p) = ``k_l``; a is
    None when p is too large for any a > 0, as it is for a ``k_l`` below the
    entropy inverse's range. Raises DomainError when ``k_l`` needs a p below
    the float64 range.
    """
    if not b0 >= 0.0:
        raise ConfigurationError(f"weak bound b0 must be >= 0, got {b0!r}")
    body = (1.0 - 2.0 * qfunc(b0)) ** (d - 1)
    if not body > 0.0:
        raise ConfigurationError(
            f"weak bound b0 = {b0!r} leaves the weak band (-b0, b0) no probability at "
            f"dimension {d}; it must be larger"
        )
    try:
        q_a = geometric_entropy_inv(k_l) / (2.0 * body)
    except DomainError:
        # Below the inverse's range p is near 1, leaving no a > 0; past its top, raise.
        if k_l > 1.0:
            raise
        return body, None
    return body, (qfunc_inv(q_a) if q_a < 0.5 else None)


def allocate_bits_xvec(k: float, d: int, b0: float = 0.3) -> StoppingSetParams:
    """Split a total budget between stopping-set indices and matrix quantization.

    Uses the closed-form split k_l = (sqrt(k+1) - 1)^2 / d per index and
    k_q = sqrt(4 k_l / d^3) per matrix entry, which exhausts the budget
    exactly: d k_l + d^2 k_q = k. The strong-coordinate bound solves the
    per-index entropy equation at the weak bound ``b0``.
    """
    k = float(k)
    d = int(d)
    if d < 1:
        raise ConfigurationError(f"dimension must be >= 1, got {d!r}")
    if k <= 0.0:
        raise ConfigurationError(f"bit budget must be positive, got {k!r}")
    k_l = (math.sqrt(k + 1.0) - 1.0) ** 2 / d
    try:
        body, a = _strong_bound(k_l, d, b0)
        if a is None or not a > d * (b0 + 1.0):
            # a > d(b0 + 1) exactly when the crossing probability is below p*,
            # that is when k_l exceeds H(p*); invert the split at k_l = H(p*).
            k_l_min = geometric_entropy(2.0 * qfunc(d * (b0 + 1.0)) * body)
            # The least feasible budget must itself be representable.
            geometric_entropy_inv(k_l_min)
            k_min = (1.0 + math.sqrt(d * k_l_min)) ** 2 - 1.0
            raise ConfigurationError(
                f"budget {k!r} too small for dimension {d} at weak bound {b0!r}; "
                f"minimal feasible budget is about {k_min:.10g} bits"
            )
    except DomainError as exc:
        # Over-large budgets push the crossing probability below float64.
        raise ConfigurationError(
            f"budget {k!r} at dimension {d} and weak bound {b0!r} needs a crossing "
            f"probability beyond the representable crossing range: {exc}"
        ) from exc
    return StoppingSetParams(a=a, b=b0, d=d, k_l=k_l, k_q=math.sqrt(4.0 * k_l / d**3))


def stopping_params_from_body_budget(k_l: float, d: int, b0: float) -> StoppingSetParams:
    """Stopping-set geometry from a per-index budget alone (no quantization split)."""
    _, a = _strong_bound(k_l, d, b0)
    if a is None:
        raise ConfigurationError(f"per-index budget {k_l!r} gives no valid strong bound")
    return StoppingSetParams(a=a, b=b0, d=d, k_l=k_l, k_q=0.0)


def allocate_bits_pareto(k: float, alpha: float) -> ParetoAllocation:
    """Split a budget between index and value description for power-law tails.

    k_q = k/(alpha-1) value bits, k_l = k (alpha-2)/(alpha-1) index bits; the
    threshold solves the index-entropy equation on the upper tail and the
    saturation point is t^(alpha/(alpha-2)).
    """
    k = float(k)
    alpha = float(alpha)
    if not alpha > 2.0:
        raise ConfigurationError(f"tail exponent must exceed 2, got {alpha!r}")
    k_q = k / (alpha - 1.0)
    k_l = k * (alpha - 2.0) / (alpha - 1.0)
    if k_l <= 2.0:
        raise ConfigurationError(
            f"index budget {k_l:.3f} bits is too small (needs > 2, the value at crossing "
            f"probability 1/2); increase k"
        )
    p = geometric_entropy_inv(k_l)
    x0 = math.sqrt((alpha - 2.0) / alpha)
    if not 2.0 * p < x0**alpha:
        raise ConfigurationError(
            f"budget {k!r} puts the threshold below the support edge; infeasible"
        )
    t = x0 * (2.0 * p) ** (-1.0 / alpha)
    if t <= 1.0:
        raise ConfigurationError(
            f"threshold {t:.4f} <= 1 makes the saturation point non-increasing; "
            f"increase k"
        )
    u = t ** (alpha / (alpha - 2.0))
    return ParetoAllocation(k_l=k_l, k_q=k_q, t=t, u=u)
