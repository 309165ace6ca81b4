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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Optional

import numpy as np

from . import analysis
from .errors import ConfigurationError, CorrlinkError, TrialFailureError
from .estimators import (
    TrialBatch,
    additive_trials,
    clt_trials,
    linear_baseline_trials,
    max_trials,
    pareto_trials,
    require_crossable_block,
    threshold_trials,
    xvec_trials,
    xvec_unquantized_trials,
    yvec_trials,
)
from .linalg import CorrelationMatrix
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
from .statmath import geometric_entropy_inv

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
    # One (batch_fn, meta, theory) triple per grid point, built while
    # validating and reused by every run_sweep of this config.
    _cells: tuple = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.scheme not in _SCHEMES:
            known = ", ".join(sorted(_SCHEMES))
            raise ConfigurationError(f"scheme: unknown scheme {self.scheme!r} (known: {known})")
        if self.trials < 100:
            raise ConfigurationError(f"trials: must be at least 100, got {self.trials}")
        if not self.grid.get("k"):
            raise ConfigurationError("grid.k: at least one bit budget is required")
        model_keys, grid_axes = _SCHEME_KEYS[self.scheme]
        for key in self.grid:
            if key not in _GRID_KEYS:
                raise ConfigurationError(f"grid.{key}: unknown grid axis")
            if key not in grid_axes:
                raise ConfigurationError(
                    f"grid.{key}: the {self.scheme} scheme has no such axis "
                    f"(its axes: {', '.join(grid_axes)})"
                )
            if key in self.model:
                raise ConfigurationError(f"grid.{key}, model.{key}: give one of the two, not both")
        for key in self.model:
            if key not in model_keys:
                raise ConfigurationError(
                    f"model.{key}: the {self.scheme} scheme does not read this key "
                    f"(it reads: {', '.join(model_keys)})"
                )
        # Every grid point must pass its scheme's preconditions before any
        # trials run; building the runner exercises them.
        cells = []
        for point in self.points():
            try:
                cells.append(_SCHEMES[self.scheme](self, point))
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
                if name in ("rho", "sigma_offdiag"):
                    parsed = _parse_float_list(value, key)
                    model[name] = parsed[0] if len(parsed) == 1 and name != "rho" else parsed
                elif name in ("x_law", "kind", "transform"):
                    model[name] = value
                else:
                    parsed = _parse_float_list(value, key)
                    if len(parsed) != 1:
                        raise ConfigurationError(f"{key}: expected a single number, got {value!r}")
                    model[name] = parsed[0]
            elif key == "scheme":
                top["scheme"] = value
            elif key == "trials":
                top["trials"] = int(value)
            elif key == "seed":
                top["seed"] = int(value)
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


# ---------------------------------------------------------------------------
# Scheme registry. Each builder returns (batch_fn(rng, size) -> TrialBatch,
# metadata dict with d/k/rho_spec/alpha/m/b0, theory triple).


def _model_rho_vector(config: ExperimentConfig, point: dict, d_default: int) -> np.ndarray:
    rho = config.model.get("rho")
    if rho is None:
        if "rho" in point:
            return np.array([point["rho"]])
        raise ConfigurationError("model.rho: required for vector schemes")
    arr = np.asarray(rho, dtype=float).reshape(-1)
    return arr


def _scalar_rho(config: ExperimentConfig, point: dict) -> float:
    if "rho" in point:
        return float(point["rho"])
    rho = config.model.get("rho")
    if rho is None:
        raise ConfigurationError("rho: provide grid.rho or model.rho")
    arr = np.asarray(rho, dtype=float).reshape(-1)
    if arr.size != 1:
        raise ConfigurationError("rho: scalar schemes need a single correlation value")
    return float(arr[0])


def _build_threshold(config: ExperimentConfig, point: dict):
    rho = _scalar_rho(config, point)
    k = float(point["k"])
    model = GaussianScalar(rho=rho)
    t = analysis.threshold_for_budget(k)

    def batch_fn(rng, size):
        return threshold_trials(model, k, rng, size, mode=config.mode)

    meta = {"d": 1, "k": k, "rho_spec": (rho,), "alpha": None, "m": None, "b0": None}
    theory = (analysis.exact_threshold_variance(rho, t),
              analysis.zhang_berger_optimal(rho, k), None)
    return batch_fn, meta, theory


def _build_max(config: ExperimentConfig, point: dict):
    rho = _scalar_rho(config, point)
    k = float(point["k"])
    k_int = int(round(k))
    if abs(k - k_int) > 1e-9:
        raise ConfigurationError(f"k: the fixed-length index scheme needs an integer budget, got {k}")
    model = GaussianScalar(rho=rho)

    def batch_fn(rng, size):
        return max_trials(model, k_int, rng, size, mode=config.mode)

    meta = {"d": 1, "k": float(k_int), "rho_spec": (rho,), "alpha": None, "m": None, "b0": None}
    theory = (analysis.exact_max_variance(rho, k_int),
              analysis.zhang_berger_optimal(rho, k_int), None)
    return batch_fn, meta, theory


def _build_yvec(config: ExperimentConfig, point: dict):
    rho = _model_rho_vector(config, point, d_default=2)
    k = float(point["k"])
    sigma_y = CorrelationMatrix(np.outer(rho, rho) + np.diag(1.0 - rho * rho))
    model = GaussianYVec(rho=rho, sigma_y=sigma_y)
    t = analysis.threshold_for_budget(k)

    def batch_fn(rng, size):
        return yvec_trials(model, k, rng, size, mode=config.mode)

    meta = {"d": rho.size, "k": k, "rho_spec": tuple(rho), "alpha": None, "m": None, "b0": None}
    asym = float(np.sum(1.0 - rho * rho)) / (2.0 * k * math.log(2.0))
    theory = (analysis.yvec_sum_mse(rho, t), asym, None)
    return batch_fn, meta, theory


def _xvec_model(config: ExperimentConfig, rho: np.ndarray) -> GaussianXVec:
    d = rho.size
    off = config.model.get("sigma_offdiag", 0.0)
    off = float(np.asarray(off, dtype=float).reshape(-1)[0])
    sigma_x = CorrelationMatrix.equicorrelated(d, off) if off != 0.0 else CorrelationMatrix.identity(d)
    return GaussianXVec(rho=rho, sigma_x=sigma_x)


def _build_xvec(config: ExperimentConfig, point: dict):
    rho = _model_rho_vector(config, point, d_default=2)
    k = float(point["k"])
    b0 = float(point.get("b0", config.model.get("b0", 0.3)))
    model = _xvec_model(config, rho)
    d = model.dim
    params = allocate_bits_xvec(k, d, b0)
    alpha_exact = analysis.stopping_second_moment(params.a, params.b, d)
    sigma2 = max(model.noise_var, 1e-300)

    def batch_fn(rng, size):
        return xvec_trials(model, k, rng, size, b0=b0, mode=config.mode)

    meta = {"d": d, "k": k, "rho_spec": tuple(rho), "alpha": None, "m": None, "b0": b0}
    crlb = analysis.crlb_xvec(rho, model.sigma_x.values, alpha_exact, sigma2, d)
    theory = (None, float(np.trace(crlb)), analysis.xvec_mse_bound(rho, d, k))
    return batch_fn, meta, theory


def _build_xvec_exact(config: ExperimentConfig, point: dict):
    rho = _model_rho_vector(config, point, d_default=2)
    k_l = float(point["k"])
    b0 = float(point.get("b0", config.model.get("b0", 0.3)))
    model = _xvec_model(config, rho)
    d = model.dim
    params = stopping_params_from_body_budget(k_l, d, b0)
    alpha_exact = analysis.stopping_second_moment(params.a, params.b, d)
    sigma2 = max(model.noise_var, 1e-300)

    def batch_fn(rng, size):
        return xvec_unquantized_trials(model, k_l, rng, size, b0=b0, mode=config.mode)

    meta = {"d": d, "k": k_l, "rho_spec": tuple(rho), "alpha": None, "m": None, "b0": b0}
    crlb = analysis.crlb_xvec(rho, model.sigma_x.values, alpha_exact, sigma2, d)
    theory = (None, float(np.trace(crlb)),
              analysis.unquantized_xvec_trace_bound(rho, d, k_l))
    return batch_fn, meta, theory


def _clt_inner(config: ExperimentConfig, point: dict):
    kind = str(config.model.get("kind", "gaussian")).lower()
    if kind == "binary":
        if "rho" in point or "rho" in config.model:
            raise ConfigurationError("rho: binary blocks take their correlation from model.p")
        p_flip = float(np.asarray(config.model.get("p", 0.25)).reshape(-1)[0])
        return DoublySymmetricBinary(flip_prob=p_flip)
    if kind != "gaussian":
        raise ConfigurationError(f"model.kind: unknown block kind {kind!r} (known: binary, gaussian)")
    if "p" in config.model:
        raise ConfigurationError("model.p: only binary blocks read the flip probability")
    return GaussianScalar(rho=_scalar_rho(config, point))


def _build_clt(config: ExperimentConfig, point: dict):
    k = float(point["k"])
    m = int(point.get("m", config.model.get("m", 1)))
    inner = _clt_inner(config, point)
    model = BlockAveraged(inner=inner, m=m)
    require_crossable_block(model, k)
    rho = float(inner.rho)
    t = analysis.threshold_for_budget(k)

    def batch_fn(rng, size):
        return clt_trials(model, k, rng, size, mode=config.mode)

    meta = {"d": 1, "k": k, "rho_spec": (rho,), "alpha": None, "m": m, "b0": None}
    theory = (analysis.exact_threshold_variance(rho, t),
              analysis.zhang_berger_optimal(rho, k), None)
    return batch_fn, meta, theory


def _build_pareto(config: ExperimentConfig, point: dict):
    rho = _scalar_rho(config, point)
    k = float(point["k"])
    alpha = float(point.get("alpha", config.model.get("alpha", 4.0)))
    model = AdditiveNoise(rho=rho, x_law=ParetoTwoSided(alpha=alpha), z_law=StdNormal())

    def batch_fn(rng, size):
        return pareto_trials(model, k, rng, size, mode=config.mode)[0]

    bound, _ = analysis.pareto_theory(alpha, rho, k)
    meta = {"d": 1, "k": k, "rho_spec": (rho,), "alpha": alpha, "m": None, "b0": None}
    theory = (None, bound, bound)
    return batch_fn, meta, theory


_LAW_FACTORIES = {
    "laplace": lambda config: UnitLaplace(),
    "gaussian": lambda config: StdNormal(),
    "pareto": lambda config: ParetoTwoSided(
        alpha=float(np.asarray(config.model.get("alpha", 4.0)).reshape(-1)[0])
    ),
}


def _build_additive(config: ExperimentConfig, point: dict):
    rho = _scalar_rho(config, point)
    k = float(point["k"])
    law_name = str(config.model.get("x_law", "laplace")).lower()
    if law_name not in _LAW_FACTORIES:
        known = ", ".join(sorted(_LAW_FACTORIES))
        raise ConfigurationError(f"model.x_law: unknown law {law_name!r} (known: {known})")
    if law_name != "pareto" and "alpha" in config.model:
        raise ConfigurationError("model.alpha: only the pareto x_law reads a tail index")
    x_law = _LAW_FACTORIES[law_name](config)
    model = AdditiveNoise(rho=rho, x_law=x_law, z_law=StdNormal())
    p = geometric_entropy_inv(k)
    t = float(x_law.tail_quantile(p))

    def batch_fn(rng, size):
        return additive_trials(model, k, rng, size, mode=config.mode)

    alpha_meta = getattr(x_law, "alpha", None)
    meta = {"d": 1, "k": k, "rho_spec": (rho,), "alpha": alpha_meta, "m": None, "b0": None}
    exact = analysis.additive_exact_variance(x_law, rho, t)
    if isinstance(x_law, UnitLaplace):
        asym = analysis.laplace_theory(rho, k)
    elif isinstance(x_law, ParetoTwoSided):
        asym = analysis.pareto_unquantized_floor(x_law.alpha, rho)
    else:
        asym = analysis.zhang_berger_optimal(rho, k)
    theory = (exact, asym, None)
    return batch_fn, meta, theory


def _build_linear(config: ExperimentConfig, point: dict):
    rho = _model_rho_vector(config, point, d_default=2)
    if rho.size != 2:
        raise ConfigurationError("model.rho: the transform baseline needs exactly two correlations")
    k = float(point["k"])
    model = _xvec_model(config, rho)
    transform = str(config.model.get("transform", "whiten")).lower()
    if transform == "whiten":
        m_transform = model.inv_sqrt_sigma_x
    elif transform == "identity":
        m_transform = np.eye(2)
    else:
        raise ConfigurationError(f"model.transform: unknown transform {transform!r}")
    budgets = (k / 2.0, k / 2.0)

    def batch_fn(rng, size):
        return linear_baseline_trials(model, budgets, m_transform, rng, size, mode=config.mode)

    meta = {"d": 2, "k": k, "rho_spec": tuple(rho), "alpha": None, "m": None, "b0": None}
    theory = (analysis.linear_baseline_trace(model, budgets, m_transform), None, None)
    return batch_fn, meta, theory


_SCHEMES: dict[str, Callable] = {
    "threshold": _build_threshold,
    "max": _build_max,
    "yvec": _build_yvec,
    "xvec": _build_xvec,
    "xvec_exact": _build_xvec_exact,
    "clt": _build_clt,
    "pareto": _build_pareto,
    "additive": _build_additive,
    "linear": _build_linear,
}

# The model.* keys each scheme reads and the grid axes it honours; the config
# rejects any other, because an ignored key would silently do nothing and an
# ignored axis would repeat identical cells.
_SCHEME_KEYS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "threshold": (("rho",), ("k", "rho")),
    "max": (("rho",), ("k", "rho")),
    "yvec": (("rho",), ("k", "rho")),
    "xvec": (("rho", "sigma_offdiag", "b0"), ("k", "rho", "b0")),
    "xvec_exact": (("rho", "sigma_offdiag", "b0"), ("k", "rho", "b0")),
    "clt": (("rho", "kind", "p", "m"), ("k", "rho", "m")),
    "pareto": (("rho", "alpha"), ("k", "rho", "alpha")),
    "additive": (("rho", "x_law", "alpha"), ("k", "rho")),
    "linear": (("rho", "sigma_offdiag", "transform"), ("k",)),
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
    failures: int
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
        if self.failures > self.trials:
            raise ConfigurationError("failure count cannot exceed the trial count")


def _chunk_partial(batch: TrialBatch) -> dict:
    ok = ~batch.failed
    err = batch.estimates[ok] - batch.truth[None, :]
    row_sum = err.sum(axis=1)
    e2 = err * err
    norm2 = e2.sum(axis=1)
    partial = {
        "n": int(batch.failed.shape[0]),
        "fail": int(np.count_nonzero(batch.failed)),
        "s1": err.sum(axis=0),
        "s2": e2.sum(axis=0),
        "s3": (e2 * err).sum(axis=0),
        "s4": (e2 * e2).sum(axis=0),
        "t1": float(row_sum.sum()),
        "t2": float(np.square(row_sum).sum()),
        "q1": float(norm2.sum()),
        "q2": float(np.square(norm2).sum()),
        "samples": float(batch.samples.sum()),
        "bits_expected": float(batch.bits_expected),
    }
    if batch.bits_realized is not None:
        partial["bits_realized"] = float(batch.bits_realized.sum())
    return partial


def _reduce_cell(partials: list[dict], meta: dict, theory: tuple, scheme: str) -> SweepRow:
    n_total = sum(p["n"] for p in partials)
    failures = sum(p["fail"] for p in partials)
    n = n_total - failures
    if n <= 1:
        raise TrialFailureError(f"grid point {meta}: no successful trials to aggregate")
    d = meta["d"]
    s1 = np.array([math.fsum(float(p["s1"][j]) for p in partials) for j in range(d)])
    s2 = np.array([math.fsum(float(p["s2"][j]) for p in partials) for j in range(d)])
    s3 = np.array([math.fsum(float(p["s3"][j]) for p in partials) for j in range(d)])
    s4 = np.array([math.fsum(float(p["s4"][j]) for p in partials) for j in range(d)])
    t1 = math.fsum(p["t1"] for p in partials)
    t2 = math.fsum(p["t2"] for p in partials)
    q1 = math.fsum(p["q1"] for p in partials)
    q2 = math.fsum(p["q2"] for p in partials)
    samples = math.fsum(p["samples"] for p in partials)
    delta = s1 / n
    m2 = np.maximum(s2 / n - delta**2, 0.0)
    # Central fourth moment from power sums about the truth, recentered at the
    # sample mean; feeds the standard error of the variance estimate.
    m4 = s4 / n - 4.0 * delta * (s3 / n) + 6.0 * delta**2 * (s2 / n) - 3.0 * delta**4
    m4 = np.maximum(m4, 0.0)
    bias = t1 / n
    bias_var = max(t2 / n - bias * bias, 0.0)
    bias_se = math.sqrt(bias_var / n)
    variance = float(m2.sum())
    var_of_var = np.maximum(m4 - m2**2, 0.0) / n
    variance_se = float(math.sqrt(var_of_var.sum()))
    mse = q1 / n
    mse_se = math.sqrt(max(q2 / n - mse * mse, 0.0) / n)
    bits_expected = partials[0]["bits_expected"]
    bits_realized = None
    if all("bits_realized" in p for p in partials):
        bits_realized = math.fsum(p["bits_realized"] for p in partials) / n_total
    return SweepRow(
        scheme=scheme,
        d=d,
        k=meta["k"],
        rho_spec=tuple(meta["rho_spec"]),
        alpha=meta["alpha"],
        m=meta["m"],
        b0=meta["b0"],
        trials=n_total,
        failures=failures,
        bias=bias,
        bias_se=bias_se,
        variance=variance,
        variance_se=variance_se,
        mse=mse,
        theory_exact=theory[0],
        theory_asymptotic=theory[1],
        theory_bound=theory[2],
        bits_expected_mean=bits_expected,
        mse_se=mse_se,
        bits_realized_mean=bits_realized,
        samples_mean=samples / n_total,
    )


def _default_threads() -> int:
    env = os.environ.get("CORRLINK_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ConfigurationError(f"CORRLINK_THREADS: expected an integer, got {env!r}") from exc
    return max(1, min(os.cpu_count() or 1, 8))


def run_sweep(config: ExperimentConfig, threads: Optional[int] = None) -> list[SweepRow]:
    """Run every grid point of the sweep; deterministic given the config and seed."""
    if threads is None:
        threads = _default_threads()
    if threads < 1:
        raise ConfigurationError(f"threads: must be at least 1, got {threads}")
    rows: list[SweepRow] = []
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for cell_idx, (batch_fn, meta, theory) in enumerate(config._cells):
            sizes = [CHUNK_TRIALS] * (config.trials // CHUNK_TRIALS)
            if config.trials % CHUNK_TRIALS:
                sizes.append(config.trials % CHUNK_TRIALS)

            def run_chunk(chunk_idx: int, size: int, fn=batch_fn, cell=cell_idx) -> dict:
                rng = substream(config.seed, (cell << 40) | chunk_idx)
                return _chunk_partial(fn(rng, size))

            futures = [pool.submit(run_chunk, i, size) for i, size in enumerate(sizes)]
            partials = [f.result() for f in futures]
            row = _reduce_cell(partials, meta, theory, config.scheme)
            if row.failures > 0.10 * row.trials:
                raise TrialFailureError(
                    f"grid point {meta}: {row.failures} of {row.trials} trials failed "
                    "(more than 10%)"
                )
            rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# CSV emission.


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float) and math.isnan(value):
        return ""
    if isinstance(value, float):
        return "%.10g" % value
    return str(value)


def _row_fields(row: SweepRow) -> list[str]:
    rho_spec = "|".join("%.10g" % r for r in row.rho_spec)
    return [
        row.scheme,
        str(row.d),
        _fmt(row.k),
        rho_spec,
        _fmt(row.alpha),
        _fmt(row.m) if row.m is not None else "",
        _fmt(row.b0),
        str(row.trials),
        str(row.failures),
        _fmt(row.bias),
        _fmt(row.bias_se),
        _fmt(row.variance),
        _fmt(row.variance_se),
        _fmt(row.mse),
        _fmt(row.theory_exact),
        _fmt(row.theory_asymptotic),
        _fmt(row.theory_bound),
        _fmt(row.bits_expected_mean),
    ]


def format_csv(rows: list[SweepRow]) -> str:
    """Render sweep rows as CSV text with the fixed 18-column schema."""
    buf = io.StringIO()
    buf.write(",".join(COLUMNS) + "\n")
    for row in rows:
        fields = _row_fields(row)
        assert len(fields) == len(COLUMNS)
        buf.write(",".join(fields) + "\n")
    return buf.getvalue()


def emit_csv(rows: list[SweepRow], path: str) -> None:
    """Write sweep rows to ``path``; I/O problems surface as OSError with the path."""
    text = format_csv(rows)
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write results to {path!r}: {exc}") from exc
