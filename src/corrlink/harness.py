"""Experiment orchestration: configs, parallel Monte Carlo sweeps, CSV output.

A sweep is a cartesian grid of parameter points. Each point runs a fixed
number of trials in fixed-size chunks; chunk c of grid cell i always draws
from the substream keyed by (i, c), and chunk partial sums are reduced with
exact summation in a fixed order, so the output bytes depend only on the
config and master seed, never on the thread count.
"""

from __future__ import annotations

import io
import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from itertools import islice, product
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import analysis
from .errors import ConfigurationError, CorrlinkError, TrialFailureError
from .estimators import (
    MaxPlan,
    TrialBatch,
    XVecPlan,
    clt_plan,
    linear_baseline_plan,
    pareto_plan,
    threshold_plan,
)
from .linalg import CorrelationMatrix, _row_sums
from .protocol import LedgerMode, allocate_bits_xvec, stopping_params_from_body_budget
from .sources import (
    AdditiveNoise,
    BlockAveraged,
    DoublySymmetricBinary,
    GaussianScalar,
    GaussianXVec,
    GaussianYVec,
    ParetoTwoSided,
    StdNormal,
    UnitLaplace,
    substream,
)
from .statmath import _max_block, max_normal_moments, truncated_normal_moments

__all__ = [
    "CHUNK_TRIALS",
    "COLUMNS",
    "ExperimentConfig",
    "SweepRow",
    "parse_config",
    "run_sweep",
    "emit_csv",
    "format_csv",
]

CHUNK_TRIALS = 16384

COLUMNS = (
    "scheme", "d", "k", "rho_spec", "alpha", "m", "b0", "trials", "failures",
    "bias", "bias_se", "variance", "variance_se", "mse",
    "theory_exact", "theory_asymptotic", "theory_bound", "bits_expected_mean",
)

_GRID_KEYS = ("k", "rho", "m", "alpha", "b0")


# ---------------------------------------------------------------------------
# Config parsing.


def parse_config(text: str) -> dict[str, str]:
    """Parse flat ``key = value`` lines; '#' starts a comment; keys may be dotted."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigurationError(f"line {lineno}: empty key")
        if not value:
            raise ConfigurationError(f"line {lineno}: empty value for {key!r}")
        if key in out:
            raise ConfigurationError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _parse_float_list(value: str, key: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in value.split(",") if part.strip() != "")
    except ValueError as exc:
        raise ConfigurationError(f"{key}: expected comma-separated numbers, got {value!r}") from exc
    if not values:
        raise ConfigurationError(f"{key}: expected at least one number, got {value!r}")
    return values


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated description of one sweep."""

    scheme: str
    trials: int
    seed: int
    mode: LedgerMode = LedgerMode.EXPECTED
    out: Optional[str] = None
    grid: dict = field(default_factory=dict)
    model: dict = field(default_factory=dict)
    # One (plan, meta, theory) triple per grid point, built while validating
    # and reused by every run_sweep of this config.
    _cells: tuple = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.scheme not in _SCHEMES:
            known = ", ".join(sorted(_SCHEMES))
            raise ConfigurationError(f"scheme: unknown scheme {self.scheme!r} (known: {known})")
        if self.trials < 100:
            raise ConfigurationError(f"trials: must be at least 100, got {self.trials}")
        # Philox keys are 64-bit: any other seed would alias one of these.
        if not 0 <= self.seed < 2**64:
            raise ConfigurationError(f"seed: must lie in [0, 2^64), got {self.seed}")
        if not self.grid.get("k"):
            raise ConfigurationError("grid.k: at least one bit budget is required")
        spec = _SCHEMES[self.scheme]
        for key in self.grid:
            if key not in _GRID_KEYS:
                raise ConfigurationError(f"grid.{key}: unknown grid axis")
            if key not in spec.grid_axes:
                raise ConfigurationError(
                    f"grid.{key}: the {self.scheme} scheme has no such axis "
                    f"(its axes: {', '.join(spec.grid_axes)})"
                )
            if key in self.model:
                raise ConfigurationError(f"grid.{key}, model.{key}: give one of the two, not both")
            if len(set(self.grid[key])) != len(self.grid[key]):
                raise ConfigurationError(
                    f"grid.{key}: repeated value in {list(self.grid[key])}; each cell "
                    f"would run again on another substream"
                )
        for key in self.model:
            if key not in spec.model_keys:
                raise ConfigurationError(
                    f"model.{key}: the {self.scheme} scheme does not read this key "
                    f"(it reads: {', '.join(spec.model_keys)})"
                )
        # Every grid point must pass its scheme's preconditions before any
        # trials run; building its plan exercises them, and the plan then
        # checks that realized mode can code the indices of every trial.
        cells = []
        for point in self.points():
            try:
                cells.append(spec.build(self, {**self.model, **point}))
                cells[-1][0].check_index_range(self.trials)
            except (CorrlinkError, ValueError) as exc:
                raise ConfigurationError(f"grid point {point}: {exc}") from exc
        object.__setattr__(self, "_cells", tuple(cells))

    @classmethod
    def from_mapping(cls, raw: dict[str, str], **overrides) -> "ExperimentConfig":
        grid: dict[str, tuple[float, ...]] = {}
        model: dict[str, object] = {}
        top: dict[str, object] = {}
        for key, value in raw.items():
            if key.startswith("grid."):
                grid[key[5:]] = _parse_float_list(value, key)
            elif key.startswith("model."):
                name = key[6:]
                if name == "rho":
                    model[name] = _parse_float_list(value, key)
                elif name in ("x_law", "kind", "transform"):
                    model[name] = value
                else:
                    parsed = _parse_float_list(value, key)
                    if len(parsed) != 1:
                        raise ConfigurationError(f"{key}: expected a single number, got {value!r}")
                    model[name] = parsed[0]
            elif key == "scheme":
                top["scheme"] = value
            elif key in ("trials", "seed"):
                try:
                    top[key] = int(value)
                except ValueError as exc:
                    raise ConfigurationError(f"{key}: expected an integer, got {value!r}") from exc
            elif key == "mode":
                mode = value.strip().lower()
                if mode not in ("expected", "realized"):
                    raise ConfigurationError(f"mode: expected 'expected' or 'realized', got {value!r}")
                top["mode"] = LedgerMode.REALIZED if mode == "realized" else LedgerMode.EXPECTED
            elif key == "out":
                top["out"] = value
            else:
                raise ConfigurationError(f"{key}: unknown configuration key")
        top.update(overrides)
        if "scheme" not in top:
            raise ConfigurationError("scheme: required key is missing")
        if "trials" not in top:
            raise ConfigurationError("trials: required key is missing")
        if "seed" not in top:
            raise ConfigurationError("seed: required key is missing")
        return cls(grid=grid, model=model, **top)

    @classmethod
    def from_text(cls, text: str, **overrides) -> "ExperimentConfig":
        return cls.from_mapping(parse_config(text), **overrides)

    @classmethod
    def from_file(cls, path: str, **overrides) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read(), **overrides)

    def points(self) -> list[dict]:
        """Grid points in deterministic order (cartesian product, fixed axis order)."""
        axes = []
        for key in _GRID_KEYS:
            if key in self.grid:
                axes.append([(key, value) for value in self.grid[key]])
        return [dict(combo) for combo in product(*axes)]

    def reports(self) -> list:
        """The closed-form analysis.TheoryReport of every grid point, in grid order."""
        return [theory for _, _, theory in self._cells]


# ---------------------------------------------------------------------------
# Scheme registry. One record per scheme: the model.* keys it reads, the grid
# axes it honours, and a builder returning (plan, metadata dict with
# d/k/rho_spec/alpha/m/b0, analysis.TheoryReport), where ``plan.run(rng,
# size)`` gives a TrialBatch. The config rejects any other key or axis,
# because an ignored key would silently do nothing and an ignored axis would
# repeat identical cells. A builder reads one mapping per grid point, the
# model keys merged with the point's values (the config keeps the two key
# sets disjoint). It derives its cell's plan here, once; its chunks only draw.


class _Scheme(NamedTuple):
    model_keys: tuple
    grid_axes: tuple
    build: Callable


def _meta(d: int, k: float, rho_spec, alpha=None, m=None, b0=None) -> dict:
    return {"d": d, "k": k, "rho_spec": tuple(rho_spec), "alpha": alpha, "m": m, "b0": b0}


def _rho(cell: dict, vector: bool):
    """The cell's correlations as an array, or as one float for a scalar scheme."""
    rho = cell.get("rho")
    if rho is None:
        raise ConfigurationError("model.rho: required for vector schemes" if vector
                                 else "rho: provide grid.rho or model.rho")
    arr = np.asarray(rho, dtype=float).reshape(-1)
    if vector:
        return arr
    if arr.size != 1:
        raise ConfigurationError("rho: scalar schemes need a single correlation value")
    return float(arr[0])


def _scalar_report(scheme: str, rho: float, k: float, exact: float, x_second: float,
                   bound: Optional[tuple] = None) -> analysis.TheoryReport:
    """A scalar cell's report: the zero-rate benchmark is its asymptote and, by
    default, its labelled bound."""
    benchmark = analysis.zhang_berger_optimal(rho, k)
    fisher = analysis.fisher_scalar(rho, x_second)
    return analysis.TheoryReport(
        scheme, k, theory_exact=exact, theory_asymptotic=benchmark,
        crlb_trace=1.0 / fisher, fisher=np.array([[fisher]]),
        bounds=(bound or ("benchmark-zero-rate", benchmark),),
    )


def _build_threshold(config: ExperimentConfig, cell: dict):
    rho = _rho(cell, False)
    k = cell["k"]
    plan = threshold_plan(GaussianScalar(rho=rho), k, config.mode)
    theory = _scalar_report(config.scheme, rho, k, plan.variance(),
                            truncated_normal_moments(plan.t).second_moment)
    return plan, _meta(1, k, (rho,)), theory


def _build_max(config: ExperimentConfig, cell: dict):
    rho = _rho(cell, False)
    k = cell["k"]
    plan = MaxPlan(GaussianScalar(rho=rho), k, config.mode)
    # The benchmark refuses a budget that is not positive; the block then
    # refuses a fractional budget or one past 924 bits.
    analysis.zhang_berger_optimal(rho, k)
    theory = _scalar_report(config.scheme, rho, k, plan.variance(),
                            max_normal_moments(_max_block(k)).second_moment)
    return plan, _meta(1, k, (rho,)), theory


def _build_yvec(config: ExperimentConfig, cell: dict):
    rho = _rho(cell, True)
    k = cell["k"]
    sigma_y = CorrelationMatrix(np.outer(rho, rho) + np.diag(1.0 - rho * rho))
    plan = threshold_plan(GaussianYVec(rho=rho, sigma_y=sigma_y), k, config.mode)
    asym = float(np.sum(1.0 - rho * rho)) / (2.0 * k * math.log(2.0))
    exj2 = truncated_normal_moments(plan.t).second_moment
    theory = analysis.TheoryReport(
        config.scheme, k, theory_exact=plan.variance(), theory_asymptotic=asym,
        crlb_trace=float(np.trace(analysis.crlb_yvec(rho, sigma_y.values, exj2))),
        fisher=analysis.fisher_yvec(rho, sigma_y.values, exj2),
        bounds=(("per-coordinate-benchmark-sum", asym),),
    )
    return plan, _meta(rho.size, k, rho), theory


def _xvec_model(cell: dict, rho: np.ndarray) -> GaussianXVec:
    d = rho.size
    off = float(cell.get("sigma_offdiag", 0.0))
    sigma_x = CorrelationMatrix.equicorrelated(d, off) if off != 0.0 else CorrelationMatrix.identity(d)
    return GaussianXVec(rho=rho, sigma_x=sigma_x)


def _build_xvec(config: ExperimentConfig, cell: dict, quantize: bool):
    """``xvec`` splits k between indices and the quantized matrix; ``xvec_exact``
    spends k on each index and sends the matrix exactly."""
    rho = _rho(cell, True)
    k = cell["k"]
    b0 = float(cell.get("b0", 0.3))
    model = _xvec_model(cell, rho)
    d = model.dim
    if quantize:
        params = allocate_bits_xvec(k, d, b0)
        bound = ("summed-error-budget-bound", analysis.xvec_mse_bound(rho, d, k))
    else:
        params = stopping_params_from_body_budget(k, d, b0)
        bound = ("trace-budget-bound", analysis.unquantized_xvec_trace_bound(rho, d, k))
    alpha = analysis.stopping_second_moment(params.a, params.b, d)
    sigma2 = max(model.noise_var, 1e-300)
    sigma_x = model.sigma_x.values
    # StoppingSetParams guarantees a > d(b + 1), so the bracket always holds.
    lower, upper = analysis.stopping_moment_bracket(params.a, params.b, d)
    bounds = [bound, ("inverse-moment-lower", lower), ("inverse-moment-upper", upper)]
    if quantize:
        bounds.append(("quantization-penalty",
                       analysis.quantization_loss_bound(params.a, params.k_q, d)))
    bounds.append(("row-second-moment", alpha))
    crlb_trace = float(np.trace(analysis.crlb_xvec(rho, sigma_x, alpha, sigma2, d)))
    theory = analysis.TheoryReport(
        config.scheme, k, theory_asymptotic=crlb_trace, theory_bound=bound[1],
        crlb_trace=crlb_trace, fisher=analysis.fisher_xvec(rho, sigma_x, alpha, sigma2, d),
        bounds=tuple(bounds),
    )
    return XVecPlan(model, params, config.mode), _meta(d, k, rho, b0=b0), theory


def _clt_inner(cell: dict):
    kind = str(cell.get("kind", "gaussian")).lower()
    if kind == "binary":
        if "rho" in cell:
            raise ConfigurationError("rho: binary blocks take their correlation from model.p")
        p_flip = float(cell.get("p", 0.25))
        return DoublySymmetricBinary(flip_prob=p_flip)
    if kind != "gaussian":
        raise ConfigurationError(f"model.kind: unknown block kind {kind!r} (known: binary, gaussian)")
    if "p" in cell:
        raise ConfigurationError("model.p: only binary blocks read the flip probability")
    return GaussianScalar(rho=_rho(cell, False))


def _build_clt(config: ExperimentConfig, cell: dict):
    k = cell["k"]
    inner = _clt_inner(cell)
    model = BlockAveraged(inner=inner, m=cell.get("m", 1))
    plan = clt_plan(model, k, config.mode)
    rho = float(inner.rho)
    t = plan.t
    # Exact at every block size; the Gaussian limit is a labelled bound.
    limit = analysis.exact_threshold_variance(rho, t)
    theory = _scalar_report(config.scheme, rho, k, plan.variance(),
                            truncated_normal_moments(t).second_moment,
                            ("gaussian-limit-variance", limit))
    return plan, _meta(1, k, (rho,), m=model.m), theory


_LAW_FACTORIES = {
    "laplace": lambda cell: UnitLaplace(),
    "gaussian": lambda cell: StdNormal(),
    "pareto": lambda cell: ParetoTwoSided(alpha=float(cell.get("alpha", 4.0))),
}


def _build_pareto(config: ExperimentConfig, cell: dict):
    rho = _rho(cell, False)
    k = cell["k"]
    x_law = _LAW_FACTORIES["pareto"](cell)
    model = AdditiveNoise(rho=rho, x_law=x_law, z_law=StdNormal())
    plan = pareto_plan(model, k, config.mode)
    bound, exponent = analysis.pareto_theory(x_law.alpha, rho, k)
    theory = analysis.TheoryReport(
        config.scheme, k, theory_asymptotic=bound, theory_bound=bound,
        bounds=(("budget-exponent", exponent),
                ("unquantized-floor", analysis.pareto_unquantized_floor(x_law.alpha, rho))),
    )
    return plan, _meta(1, k, (rho,), alpha=x_law.alpha), theory


def _build_additive(config: ExperimentConfig, cell: dict):
    rho = _rho(cell, False)
    k = cell["k"]
    law_name = str(cell.get("x_law", "laplace")).lower()
    if law_name not in _LAW_FACTORIES:
        known = ", ".join(sorted(_LAW_FACTORIES))
        raise ConfigurationError(f"model.x_law: unknown law {law_name!r} (known: {known})")
    if law_name != "pareto" and "alpha" in cell:
        raise ConfigurationError("model.alpha: only the pareto x_law reads a tail index")
    x_law = _LAW_FACTORIES[law_name](cell)
    plan = threshold_plan(AdditiveNoise(rho=rho, x_law=x_law, z_law=StdNormal()), k, config.mode)
    bounds = ()
    if law_name == "laplace":
        asym = analysis.laplace_theory(rho, k)
        bounds = (("double-exponential-asymptote", asym),)
    elif law_name == "pareto":
        asym = analysis.pareto_unquantized_floor(x_law.alpha, rho)
    else:
        asym = analysis.zhang_berger_optimal(rho, k)
    theory = analysis.TheoryReport(
        config.scheme, k, theory_exact=plan.variance(), theory_asymptotic=asym, bounds=bounds,
    )
    return plan, _meta(1, k, (rho,), alpha=getattr(x_law, "alpha", None)), theory


def _build_linear(config: ExperimentConfig, cell: dict):
    rho = _rho(cell, True)
    k = cell["k"]
    if rho.size != 2:
        raise ConfigurationError("model.rho: the transform baseline needs exactly two correlations")
    model = _xvec_model(cell, rho)
    transform = str(cell.get("transform", "whiten")).lower()
    if transform == "whiten":
        m_transform = model.inv_sqrt_sigma_x
    elif transform == "identity":
        m_transform = np.eye(2)
    else:
        raise ConfigurationError(f"model.transform: unknown transform {transform!r}")
    budgets = (k / 2.0, k / 2.0)
    plan = linear_baseline_plan(model, budgets, m_transform, config.mode)
    theory = analysis.TheoryReport(config.scheme, k, theory_exact=plan.variance())
    return plan, _meta(2, k, rho), theory


_SCHEMES: dict[str, _Scheme] = {
    "threshold": _Scheme(("rho",), ("k", "rho"), _build_threshold),
    "max": _Scheme(("rho",), ("k", "rho"), _build_max),
    "yvec": _Scheme(("rho",), ("k", "rho"), _build_yvec),
    "xvec": _Scheme(("rho", "sigma_offdiag", "b0"), ("k", "rho", "b0"),
                    partial(_build_xvec, quantize=True)),
    "xvec_exact": _Scheme(("rho", "sigma_offdiag", "b0"), ("k", "rho", "b0"),
                          partial(_build_xvec, quantize=False)),
    "clt": _Scheme(("rho", "kind", "p", "m"), ("k", "rho", "m"), _build_clt),
    "pareto": _Scheme(("rho", "alpha"), ("k", "rho", "alpha"), _build_pareto),
    "additive": _Scheme(("rho", "x_law", "alpha"), ("k", "rho"), _build_additive),
    "linear": _Scheme(("rho", "sigma_offdiag", "transform"), ("k",), _build_linear),
}


# ---------------------------------------------------------------------------
# Sweep execution.


@dataclass(frozen=True)
class SweepRow:
    """Aggregated Monte Carlo results plus theory values for one grid point."""

    scheme: str
    d: int
    k: float
    rho_spec: tuple
    alpha: Optional[float]
    m: Optional[int]
    b0: Optional[float]
    trials: int
    failures: int  # always 0, as every trial yields an estimate; kept for the CSV bytes
    bias: float
    bias_se: float
    variance: float
    variance_se: float
    mse: float
    theory_exact: Optional[float]
    theory_asymptotic: Optional[float]
    theory_bound: Optional[float]
    bits_expected_mean: float
    mse_se: float = 0.0
    bits_realized_mean: Optional[float] = None
    samples_mean: float = 0.0

    def __post_init__(self):
        if self.variance < 0.0:
            raise ConfigurationError("aggregated variance cannot be negative")


def _chunk_partial(batch: TrialBatch) -> dict:
    """One chunk's power sums of the errors, per coordinate and over coordinates.

    The per-coordinate sums s1..s4 are lists of floats; t1, t2 are the sums of
    each trial's summed error and its square, q1, q2 those of its squared norm.
    """
    err = batch.estimates - batch.truth
    e2 = err * err
    s1 = err.sum(axis=0)
    s2 = e2.sum(axis=0)
    d = err.shape[1]
    if d > 1:
        # Each trial's summed error and squared norm, each squared in place
        # once summed.
        row_sum = _row_sums(err)
        t1 = float(row_sum.sum())
        t2 = float(np.square(row_sum, out=row_sum).sum())
        del row_sum
        norm2 = _row_sums(e2)
        q1 = float(norm2.sum())
        q2 = float(np.square(norm2, out=norm2).sum())
        del norm2
    # err is read, so its third and then its fourth powers go over it.
    power = np.multiply(e2, err, out=err)
    s3 = power.sum(axis=0)
    np.multiply(e2, e2, out=power)
    s4 = power.sum(axis=0)
    if d == 1:
        # One coordinate: a trial's summed error is its error and its squared
        # norm its squared error, and an (n, 1) sum over axis 0 is numpy's
        # pairwise sum of the column, so these are the bits of the sums of
        # row sums. Only the sign of an all-zero t1 could differ: the row
        # sums turn -0.0 into 0.0, and so does adding 0.0.
        t1, t2, q1, q2 = float(s1[0]) + 0.0, float(s2[0]), float(s2[0]), float(s4[0])
    partial = {
        "n": batch.n,
        "s1": s1.tolist(),
        "s2": s2.tolist(),
        "s3": s3.tolist(),
        "s4": s4.tolist(),
        "t1": t1,
        "t2": t2,
        "q1": q1,
        "q2": q2,
        "samples": float(batch.samples.sum()),
        "bits_expected": float(batch.bits_expected),
    }
    if batch.bits_realized is not None:
        partial["bits_realized"] = float(batch.bits_realized.sum())
    return partial


def _reduce_cell(partials: list[dict], meta: dict, theory: tuple, scheme: str) -> SweepRow:
    """One grid point's row from its chunk partials, reduced exactly and in chunk order."""
    n = sum(p["n"] for p in partials)
    s1, s2, s3, s4 = np.array([[math.fsum(sums) for sums in zip(*(p[key] for p in partials))]
                               for key in ("s1", "s2", "s3", "s4")])
    delta = s1 / n
    m2 = np.maximum(s2 / n - delta**2, 0.0)
    # Central fourth moment from power sums about the truth, recentered at the
    # sample mean; feeds the standard error of the variance estimate.
    m4 = s4 / n - 4.0 * delta * (s3 / n) + 6.0 * delta**2 * (s2 / n) - 3.0 * delta**4
    m4 = np.maximum(m4, 0.0)
    var_of_var = np.maximum(m4 - m2**2, 0.0) / n
    t1 = math.fsum(p["t1"] for p in partials)
    t2 = math.fsum(p["t2"] for p in partials)
    q1 = math.fsum(p["q1"] for p in partials)
    q2 = math.fsum(p["q2"] for p in partials)
    samples = math.fsum(p["samples"] for p in partials)
    bias = t1 / n
    bias_var = max(t2 / n - bias * bias, 0.0)
    bias_se = math.sqrt(bias_var / n)
    variance = float(m2.sum())
    variance_se = math.sqrt(var_of_var.sum())
    mse = q1 / n
    mse_se = math.sqrt(max(q2 / n - mse * mse, 0.0) / n)
    bits_realized = None
    if all("bits_realized" in p for p in partials):
        bits_realized = math.fsum(p["bits_realized"] for p in partials) / n
    return SweepRow(
        scheme=scheme,
        **meta,
        trials=n,
        failures=0,
        bias=bias,
        bias_se=bias_se,
        variance=variance,
        variance_se=variance_se,
        mse=mse,
        theory_exact=theory[0],
        theory_asymptotic=theory[1],
        theory_bound=theory[2],
        bits_expected_mean=partials[0]["bits_expected"],
        mse_se=mse_se,
        bits_realized_mean=bits_realized,
        samples_mean=samples / n,
    )


def _default_threads() -> int:
    env = os.environ.get("CORRLINK_THREADS")
    if env:
        try:
            threads = int(env)
        except ValueError as exc:
            raise ConfigurationError(f"CORRLINK_THREADS: expected an integer, got {env!r}") from exc
        if threads < 1:
            raise ConfigurationError(f"CORRLINK_THREADS: must be at least 1, got {env!r}")
        return threads
    try:
        available = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        available = os.cpu_count() or 1
    return max(1, min(available, 8))


def run_sweep(config: ExperimentConfig, threads: Optional[int] = None) -> list[SweepRow]:
    """Run every grid point of the sweep; deterministic given the config and seed.

    Chunks go to the pool in (cell, chunk) order from one flat stream, at
    most 2 * threads + 1 ahead of the chunk being collected: later cells run
    while earlier ones are reduced, and the chunks in flight do not grow with
    the grid. Partials are collected and reduced in the same order. The first
    failing cell in grid order raises once the chunks still queued are
    cancelled, a failed trial's ``TrialFailureError`` naming its grid point;
    what later chunks already computed is dropped.
    """
    if threads is None:
        threads = _default_threads()
    if threads < 1:
        raise ConfigurationError(f"threads: must be at least 1, got {threads}")
    sizes = [CHUNK_TRIALS] * (config.trials // CHUNK_TRIALS)
    if config.trials % CHUNK_TRIALS:
        sizes.append(config.trials % CHUNK_TRIALS)

    def run_chunk(plan, key: int, size: int) -> dict:
        return _chunk_partial(plan.run(substream(config.seed, key), size))

    jobs = ((plan, (cell << 40) | chunk, size)
            for cell, (plan, _, _) in enumerate(config._cells)
            for chunk, size in enumerate(sizes))
    lookahead = 2 * threads + 1
    pending: deque = deque()
    rows: list[SweepRow] = []
    with ThreadPoolExecutor(max_workers=threads) as pool:
        try:
            for point, (_, meta, theory) in zip(config.points(), config._cells):
                partials = []
                for _ in sizes:
                    for job in islice(jobs, lookahead - len(pending)):
                        pending.append(pool.submit(run_chunk, *job))
                    try:
                        partials.append(pending.popleft().result())
                    except TrialFailureError as exc:
                        raise TrialFailureError(f"grid point {point}: {exc}") from exc
                columns = (theory.theory_exact, theory.theory_asymptotic, theory.theory_bound)
                rows.append(_reduce_cell(partials, meta, columns, config.scheme))
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
    return rows


# ---------------------------------------------------------------------------
# CSV emission.


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, tuple):
        return "|".join("%.10g" % v for v in value)
    if isinstance(value, float) and math.isnan(value):
        return ""
    if isinstance(value, float):
        return "%.10g" % value
    return str(value)


def _row_fields(row: SweepRow) -> list[str]:
    return [_fmt(getattr(row, name)) for name in COLUMNS]


def format_csv(rows: list[SweepRow]) -> str:
    """Render sweep rows as CSV text with the fixed 18-column schema."""
    buf = io.StringIO()
    buf.write(",".join(COLUMNS) + "\n")
    for row in rows:
        buf.write(",".join(_row_fields(row)) + "\n")
    return buf.getvalue()


def emit_csv(rows: list[SweepRow], path: str) -> None:
    """Write sweep rows to ``path``; I/O problems surface as OSError with the path."""
    text = format_csv(rows)
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write results to {path!r}: {exc}") from exc
