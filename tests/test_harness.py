"""Config parsing, sweep determinism, aggregation, CSV output, and the CLI."""

import dataclasses
import math
import os
import re
import subprocess
import sys
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrlink import harness
from corrlink.analysis import (
    crossing_variance,
    exact_threshold_variance,
    threshold_for_budget,
    zhang_berger_optimal,
)
from corrlink.cli import main
from corrlink.errors import ConfigurationError, TrialFailureError
from corrlink.estimators import (
    TrialBatch,
    clt_trials,
    linear_baseline_trials,
    pareto_trials,
    threshold_trials,
)
from corrlink.harness import (
    CHUNK_TRIALS,
    COLUMNS,
    ExperimentConfig,
    SweepRow,
    emit_csv,
    format_csv,
    parse_config,
    run_sweep,
)
from corrlink.linalg import CorrelationMatrix, _row_sums
from corrlink.protocol import LedgerMode
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
    substream,
)
from corrlink.statmath import geometric_entropy_inv, max_normal_moments
from test_golden import CONFIGS as GOLDEN_CONFIGS

THRESHOLD_TEXT = """
# comment line
scheme = threshold
grid.k = 10, 20
grid.rho = 0.5
trials = 20000
seed = 42
"""


class TestParseConfig:
    def test_comments_blanks_and_dotted_keys(self):
        text = "\n".join([
            "scheme = threshold  # trailing comment",
            "",
            "# full-line comment",
            "grid.k = 10, 20",
            "trials = 500",
        ])
        out = parse_config(text)
        assert out == {"scheme": "threshold", "grid.k": "10, 20", "trials": "500"}

    def test_missing_separator_reports_line(self):
        with pytest.raises(ConfigurationError, match="line 2"):
            parse_config("a = 1\nbroken line\n")

    def test_empty_key_reports_line(self):
        with pytest.raises(ConfigurationError, match="line 1: empty key"):
            parse_config("= 3\n")

    def test_duplicate_key_reports_line(self):
        with pytest.raises(ConfigurationError, match="line 3: duplicate key 'seed'"):
            parse_config("seed = 1\ntrials = 200\nseed = 2\n")


def reduce_chunks(chunks: list) -> SweepRow:
    """Run scalar values, one array per chunk, through the sweep's chunk reducer."""
    partials = [
        harness._chunk_partial(TrialBatch(
            estimates=np.asarray(c, dtype=float)[:, None], truth=np.zeros(1),
            bits_expected=0.0, bits_realized=None, samples=np.ones(len(c)),
            failed=np.zeros(len(c), dtype=bool),
        ))
        for c in chunks
    ]
    meta = {"d": 1, "k": 1.0, "rho_spec": (0.0,), "alpha": None, "m": None, "b0": None}
    return harness._reduce_cell(partials, meta, (None, None, None), "threshold")


class TestStreamingMoments:
    """The one-pass chunk reducer that run_sweep uses (_chunk_partial + _reduce_cell)."""

    def test_matches_two_pass_results(self, rng):
        values = rng.standard_normal(40_000) * 2.5 - 0.7
        edges = np.cumsum([0, 1, 7, 100, 4096])
        row = reduce_chunks(np.split(values, edges[1:]))
        mean = float(values.mean())
        var = float(np.mean((values - mean) ** 2))
        assert row.trials == values.size
        assert row.bias == pytest.approx(mean, rel=1e-12, abs=1e-15)
        assert row.variance == pytest.approx(var, rel=1e-12)

    def test_constant_stream_has_zero_variance(self):
        row = reduce_chunks([np.full(1000, 3.7), np.full(13, 3.7)])
        assert row.bias == pytest.approx(3.7, rel=1e-15)
        assert row.variance == 0.0

    def test_empty_accumulator_rejected(self):
        with pytest.raises(TrialFailureError, match="no successful trials"):
            reduce_chunks([])


def reference_chunk_partial(batch: TrialBatch) -> dict:
    """The chunk reducer as it was on numpy arrays throughout: the oracle for the fast one."""
    fail = int(np.count_nonzero(batch.failed))
    estimates = batch.estimates[~batch.failed] if fail else batch.estimates
    err = estimates - batch.truth[None, :]
    row_sum = _row_sums(err)
    e2 = err * err
    norm2 = _row_sums(e2)
    partial = {
        "n": int(batch.failed.shape[0]),
        "fail": fail,
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


def reference_reduce_cell(partials: list[dict], meta: dict, theory: tuple, scheme: str) -> SweepRow:
    n_total = sum(p["n"] for p in partials)
    failures = sum(p["fail"] for p in partials)
    n = n_total - failures
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
    bits_realized = None
    if all("bits_realized" in p for p in partials):
        bits_realized = math.fsum(p["bits_realized"] for p in partials) / n_total
    return SweepRow(
        scheme=scheme, d=d, k=meta["k"], rho_spec=tuple(meta["rho_spec"]), alpha=meta["alpha"],
        m=meta["m"], b0=meta["b0"], trials=n_total, failures=failures, bias=bias,
        bias_se=bias_se, variance=variance, variance_se=variance_se, mse=mse,
        theory_exact=theory[0], theory_asymptotic=theory[1], theory_bound=theory[2],
        bits_expected_mean=partials[0]["bits_expected"], mse_se=mse_se,
        bits_realized_mean=bits_realized, samples_mean=samples / n_total,
    )


def row_bits(row: SweepRow) -> tuple:
    """Every field of a row, floats as their exact hex spelling."""
    return tuple(
        tuple(v.hex() for v in value) if isinstance(value, tuple)
        else value.hex() if isinstance(value, float) else value
        for value in dataclasses.astuple(row)
    )


class TestReducerOracle:
    """The sweep reducer against its plain numpy form, bit for bit."""

    @pytest.mark.parametrize("realized", [False, True])
    @pytest.mark.parametrize("with_failures", [False, True])
    @pytest.mark.parametrize("n_chunks", [1, 2, 6])
    @pytest.mark.parametrize("d", [1, 2, 4, 8, 9])
    def test_rows_match_the_numpy_reducer(self, d, n_chunks, with_failures, realized):
        rng = np.random.default_rng(1000 * d + 10 * n_chunks + 2 * with_failures + realized)
        truth = rng.uniform(-0.9, 0.9, d)
        meta = {"d": d, "k": 12.5, "rho_spec": tuple(truth), "alpha": None, "m": None,
                "b0": None}
        sizes = [CHUNK_TRIALS, 5000, 1, 3, 777, 2048][:n_chunks]
        batches = []
        for c, size in enumerate(sizes):
            # Moderate noise, a constant chunk (zero variance, the clip at 0)
            # and heavy tails, at magnitudes from 1e-6 to 1e6.
            scale = 10.0 ** rng.uniform(-6, 6)
            if c == 1:
                est = np.broadcast_to(truth + scale, (size, d)).copy()
            else:
                est = truth + scale * rng.standard_t(3 + c, (size, d))
            failed = np.zeros(size, dtype=bool)
            if with_failures and size > 2:
                failed[rng.random(size) < 0.1] = True
                est[failed] = np.nan
            bits = rng.integers(1, 40, size) if realized else None
            batches.append(TrialBatch(
                estimates=est, truth=truth, bits_expected=12.5, bits_realized=bits,
                samples=np.ceil(rng.exponential(100.0, size)), failed=failed,
            ))
        theory = (0.25, 0.125, None)
        fast = harness._reduce_cell([harness._chunk_partial(b) for b in batches], meta, theory, "x")
        slow = reference_reduce_cell([reference_chunk_partial(b) for b in batches], meta, theory,
                                     "x")
        assert row_bits(fast) == row_bits(slow)

    @pytest.mark.parametrize("d", [1, 3, 9])
    @pytest.mark.parametrize("offset,case", [(0.1, "constant"), (0.7, "constant"), (0.1, "nan")])
    def test_clipped_and_nan_moments_match(self, d, offset, case):
        # A constant stream leaves the moments at rounding noise around 0,
        # which the reducer clips: at offset 0.1 the fourth moment rounds
        # below 0, at 0.7 the second. An unflagged NaN passes the clip as NaN.
        truth = np.linspace(-0.5, 0.7, d)
        est = np.tile(truth + offset, (999, 1))
        if case == "nan":
            est[17, 0] = np.nan
        batch = TrialBatch(estimates=est, truth=truth, bits_expected=3.0, bits_realized=None,
                           samples=np.ones(999), failed=np.zeros(999, dtype=bool))
        meta = {"d": d, "k": 3.0, "rho_spec": tuple(truth), "alpha": None, "m": None, "b0": None}
        fast = harness._reduce_cell([harness._chunk_partial(batch)], meta, (None,) * 3, "x")
        slow = reference_reduce_cell([reference_chunk_partial(batch)], meta, (None,) * 3, "x")
        assert row_bits(fast) == row_bits(slow)
        assert math.isnan(fast.variance) == (case == "nan")

    def test_one_column_sum_is_the_pairwise_sum(self):
        # For d = 1 the reducer takes the over-coordinate sums from the (n, 1)
        # column sums: numpy must sum a column as it sums a flat array, which
        # (pairwise, in blocks) a plain left-to-right loop does not match.
        rng = np.random.default_rng(5)
        differs_from_loop = False
        for n in (1, 2, 7, 8, 9, 127, 128, 129, 1000, 4097, CHUNK_TRIALS, 3 * CHUNK_TRIALS + 5):
            values = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3, n)
            column = values[:, None].copy()
            assert column.sum(axis=0)[0].hex() == values.sum().hex()
            assert (column * column).sum(axis=0)[0].hex() == np.square(values).sum().hex()
            loop = 0.0
            for v in values:
                loop += v
            differs_from_loop |= loop != values.sum()
        assert differs_from_loop


def batch_bits(batch: TrialBatch) -> tuple:
    arrays = (batch.estimates, batch.truth, batch.samples, batch.failed)
    realized = None if batch.bits_realized is None else batch.bits_realized.tobytes()
    return tuple(a.tobytes() for a in arrays) + (float(batch.bits_expected).hex(), realized)


def _linear_trials(rng, size, mode):
    model = GaussianXVec(rho=[0.5, 0.3], sigma_x=CorrelationMatrix.equicorrelated(2, 0.3))
    return linear_baseline_trials(model, (10.0, 10.0), model.inv_sqrt_sigma_x, rng, size, mode)


# One config per crossing scheme, and the public trial function its cell must match.
PLAN_CASES = {
    "threshold": ("scheme = threshold\ngrid.k = 10\ngrid.rho = 0.5\n",
                  lambda rng, n, mode: threshold_trials(GaussianScalar(0.5), 10.0, rng, n, mode)),
    "yvec": ("scheme = yvec\nmodel.rho = 0.5, 0.2\ngrid.k = 10\n",
             lambda rng, n, mode: threshold_trials(
                 GaussianYVec(rho=[0.5, 0.2], sigma_y=CorrelationMatrix(
                     [[1.0, 0.1], [0.1, 1.0]])), 10.0, rng, n, mode)),
    "additive-laplace": ("scheme = additive\nmodel.x_law = laplace\ngrid.k = 10\ngrid.rho = 0.5\n",
                         lambda rng, n, mode: threshold_trials(
                             AdditiveNoise(0.5, UnitLaplace(), StdNormal()), 10.0, rng, n, mode)),
    "additive-gaussian": ("scheme = additive\nmodel.x_law = gaussian\ngrid.k = 10\n"
                          "grid.rho = 0.5\n",
                          lambda rng, n, mode: threshold_trials(
                              AdditiveNoise(0.5, StdNormal(), StdNormal()), 10.0, rng, n, mode)),
    "additive-pareto": ("scheme = additive\nmodel.x_law = pareto\nmodel.alpha = 5\ngrid.k = 10\n"
                        "grid.rho = 0.5\n",
                        lambda rng, n, mode: threshold_trials(
                            AdditiveNoise(0.5, ParetoTwoSided(5.0), StdNormal()), 10.0, rng, n,
                            mode)),
    "clt-gaussian": ("scheme = clt\ngrid.k = 10\ngrid.m = 4\ngrid.rho = 0.5\n",
                     lambda rng, n, mode: clt_trials(BlockAveraged(GaussianScalar(0.5), 4), 10.0,
                                                     rng, n, mode)),
    "clt-binary": ("scheme = clt\nmodel.kind = binary\nmodel.p = 0.25\ngrid.k = 10\ngrid.m = 16\n",
                   lambda rng, n, mode: clt_trials(BlockAveraged(DoublySymmetricBinary(0.25), 16),
                                                   10.0, rng, n, mode)),
    "pareto": ("scheme = pareto\ngrid.k = 20\ngrid.rho = 0.5\nmodel.alpha = 4\n",
               lambda rng, n, mode: pareto_trials(
                   AdditiveNoise(0.5, ParetoTwoSided(4.0), StdNormal()), 20.0, rng, n, mode)[0]),
    "linear": ("scheme = linear\nmodel.rho = 0.5, 0.3\nmodel.sigma_offdiag = 0.3\ngrid.k = 20\n",
               _linear_trials),
}


class TestCrossingPlans:
    """A cell's plan, derived once at validation, draws what the public trial function does."""

    @pytest.mark.parametrize("mode", ["expected", "realized"])
    @pytest.mark.parametrize("name", sorted(PLAN_CASES))
    def test_cell_matches_its_trial_function(self, name, mode):
        text, trials = PLAN_CASES[name]
        config = ExperimentConfig.from_text(f"{text}mode = {mode}\ntrials = 1000\nseed = 3\n")
        (batch_fn, _, _), = config._cells
        want = trials(substream(3, 9), 3000, config.mode)
        # The plan is shared by every chunk: a second draw must not see the first.
        batch_fn(substream(3, 8), 3000)
        got = batch_fn(substream(3, 9), 3000)
        assert batch_bits(got) == batch_bits(want)
        assert (got.bits_realized is None) == (config.mode is LedgerMode.EXPECTED)

    @pytest.mark.parametrize("name", ["pareto", "linear", "yvec"])
    def test_workers_share_a_plan(self, name):
        # Every chunk of a cell reads the one plan; chunks run at once on more
        # workers than cores, switching often, must each equal the serial run.
        from concurrent.futures import ThreadPoolExecutor

        text, _ = PLAN_CASES[name]
        config = ExperimentConfig.from_text(f"{text}mode = realized\ntrials = 1000\nseed = 3\n")
        (batch_fn, _, _), = config._cells
        serial = [batch_bits(batch_fn(substream(4, key), 2000)) for key in range(8)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(batch_fn, substream(4, key), 2000) for key in range(8)]
                threaded = [batch_bits(future.result(timeout=60)) for future in futures]
        finally:
            sys.setswitchinterval(switch)
        assert threaded == serial


class TestExperimentConfig:
    def test_from_text_and_grid_order(self):
        config = ExperimentConfig.from_text(THRESHOLD_TEXT)
        assert config.scheme == "threshold"
        assert config.trials == 20_000
        assert config.seed == 42
        assert config.mode is LedgerMode.EXPECTED
        assert config.points() == [{"k": 10.0, "rho": 0.5}, {"k": 20.0, "rho": 0.5}]

    def test_rho_axis_varies_fastest(self):
        text = "scheme = threshold\ngrid.k = 10, 20\ngrid.rho = 0.1, 0.2\ntrials = 200\nseed = 1"
        config = ExperimentConfig.from_text(text)
        assert config.points() == [
            {"k": 10.0, "rho": 0.1}, {"k": 10.0, "rho": 0.2},
            {"k": 20.0, "rho": 0.1}, {"k": 20.0, "rho": 0.2},
        ]

    def test_overrides_beat_text(self):
        config = ExperimentConfig.from_text(THRESHOLD_TEXT, seed=7, trials=300)
        assert config.seed == 7
        assert config.trials == 300

    def test_from_file(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text(THRESHOLD_TEXT)
        config = ExperimentConfig.from_file(str(path))
        assert config.grid["k"] == (10.0, 20.0)

    def test_realized_mode_parse(self):
        config = ExperimentConfig.from_text(THRESHOLD_TEXT + "mode = realized\n")
        assert config.mode is LedgerMode.REALIZED

    def test_wait_cap_parse(self):
        # No runner ever read the key, so the parser no longer accepts it.
        with pytest.raises(ConfigurationError, match="wait_cap: unknown configuration key"):
            ExperimentConfig.from_text(THRESHOLD_TEXT + "wait_cap = 64\n")

    @pytest.mark.parametrize("line", ["model.m =", "model.m = ,", "grid.k ="])
    def test_empty_values_rejected(self, line):
        with pytest.raises(ConfigurationError):
            ExperimentConfig.from_text(THRESHOLD_TEXT + line + "\n")

    def test_multiple_values_for_a_scalar_model_key_rejected(self):
        text = ("scheme = clt\nmodel.m = 16, 64\ngrid.k = 10\ngrid.rho = 0.5\n"
                "trials = 200\nseed = 1")
        with pytest.raises(ConfigurationError, match="model.m: expected a single number"):
            ExperimentConfig.from_text(text)
        text = ("scheme = xvec\nmodel.sigma_offdiag = 0.1, 0.5\nmodel.rho = 0.3, 0.2\n"
                "grid.k = 60\ntrials = 200\nseed = 1")
        with pytest.raises(ConfigurationError, match="model.sigma_offdiag: expected a single"):
            ExperimentConfig.from_text(text)

    def test_programming_error_in_a_builder_is_not_a_config_error(self, monkeypatch):
        def broken(config, point):
            raise TypeError("bug inside the builder")

        spec = harness._SCHEMES["threshold"]
        monkeypatch.setitem(harness._SCHEMES, "threshold", spec._replace(build=broken))
        with pytest.raises(TypeError, match="bug inside the builder"):
            ExperimentConfig.from_text(THRESHOLD_TEXT)

    @pytest.mark.parametrize("text,match", [
        ("scheme = bogus\ngrid.k = 10\ntrials = 200\nseed = 1", "unknown scheme"),
        ("scheme = threshold\ngrid.k = 10\ngrid.rho = 0.5\ntrials = 50\nseed = 1",
         "at least 100"),
        ("scheme = threshold\ngrid.rho = 0.5\ntrials = 200\nseed = 1",
         "at least one bit budget"),
        ("scheme = threshold\ngrid.k = 10\ngrid.rho = 0.5\ngrid.zeta = 1\n"
         "trials = 200\nseed = 1", "unknown grid axis"),
        ("scheme = threshold\ngrid.k = 10\ngrid.rho = 0.5\ntrials = 200\nseed = 1\n"
         "volume = 11", "unknown configuration key"),
        ("scheme = threshold\ngrid.k = 10\ngrid.rho = 0.5\ntrials = 200\nseed = 1\n"
         "mode = loud", "expected 'expected' or 'realized'"),
        ("grid.k = 10\ntrials = 200\nseed = 1", "scheme: required"),
        ("scheme = threshold\ngrid.k = 10\nseed = 1", "trials: required"),
        ("scheme = threshold\ngrid.k = 10\ntrials = 200", "seed: required"),
        ("scheme = threshold\ngrid.k = ten\ntrials = 200\nseed = 1",
         "comma-separated numbers"),
        ("scheme = threshold\ngrid.k = 10\ntrials = 1e3\nseed = 1",
         "trials: expected an integer, got '1e3'"),
        ("scheme = threshold\ngrid.k = 10\ntrials = 1000.5\nseed = 1",
         "trials: expected an integer, got '1000.5'"),
        ("scheme = threshold\ngrid.k = 10\ntrials = 200\nseed = abc",
         "seed: expected an integer, got 'abc'"),
        ("scheme = clt\ngrid.k = 10\ngrid.rho = 0.5\ngrid.m = 4.5, 4\ntrials = 200\nseed = 1",
         r"grid point \{'k': 10.0, 'rho': 0.5, 'm': 4.5\}: block size must be an integer"),
        ("scheme = clt\ngrid.k = 10\ngrid.rho = 0.5\nmodel.m = 4.5\ntrials = 200\nseed = 1",
         r"grid point \{'k': 10.0, 'rho': 0.5\}: block size must be an integer >= 1, got 4.5"),
    ])
    def test_validation_errors(self, text, match):
        with pytest.raises(ConfigurationError, match=match):
            ExperimentConfig.from_text(text)

    def test_integral_float_block_size_is_accepted(self):
        for line in ("grid.m = 4.0, 16", "model.m = 4.0"):
            config = ExperimentConfig.from_text("scheme = clt\ngrid.k = 10\ngrid.rho = 0.5\n"
                                                f"{line}\ntrials = 200\nseed = 1")
            assert config._cells[0][1]["m"] == 4

    def test_probe_rejects_fractional_budget_for_fixed_length_scheme(self):
        text = "scheme = max\ngrid.k = 10.5\ngrid.rho = 0.5\ntrials = 200\nseed = 1"
        with pytest.raises(ConfigurationError, match="integer budget"):
            ExperimentConfig.from_text(text)

    def test_probe_rejects_uncrossable_block_size(self):
        text = ("scheme = clt\nmodel.kind = binary\nmodel.p = 0.25\nmodel.m = 16\n"
                "grid.k = 20\ntrials = 200\nseed = 1")
        with pytest.raises(ConfigurationError, match="smallest workable block size"):
            ExperimentConfig.from_text(text)

    def test_probe_rejects_infeasible_vector_budget(self):
        text = ("scheme = xvec\nmodel.rho = 0.5, 0.2, 0.1\ngrid.k = 10\n"
                "trials = 200\nseed = 1")
        with pytest.raises(ConfigurationError, match="grid point"):
            ExperimentConfig.from_text(text)

    def test_scalar_scheme_rejects_vector_rho(self):
        text = "scheme = threshold\nmodel.rho = 0.5, 0.2\ngrid.k = 10\ntrials = 200\nseed = 1"
        with pytest.raises(ConfigurationError, match="single correlation"):
            ExperimentConfig.from_text(text)


    @pytest.mark.parametrize("text,match", [
        (THRESHOLD_TEXT + "model.bogus = 3\n", "model.bogus: the threshold scheme does not read"),
        (THRESHOLD_TEXT + "grid.m = 4, 16\n", "grid.m: the threshold scheme has no such axis"),
        ("scheme = additive\ngrid.k = 10\ngrid.rho = 0.5\ngrid.alpha = 3, 4\n"
         "trials = 200\nseed = 1", "grid.alpha: the additive scheme has no such axis"),
        ("scheme = linear\nmodel.rho = 0.5, 0.3\ngrid.k = 20\ngrid.rho = 0.1, 0.2\n"
         "trials = 200\nseed = 1", "grid.rho: the linear scheme has no such axis"),
        ("scheme = yvec\nmodel.rho = 0.5, 0.2\ngrid.k = 10\ngrid.rho = 0.1, 0.2\n"
         "trials = 200\nseed = 1", "grid.rho, model.rho: give one"),
        ("scheme = xvec\nmodel.rho = 0.3, 0.2\nmodel.b0 = 0.3\ngrid.b0 = 0.2, 0.4\n"
         "grid.k = 40\ntrials = 200\nseed = 1", "grid.b0, model.b0: give one"),
        ("scheme = clt\nmodel.kind = laplace\ngrid.k = 10\ngrid.m = 4\ngrid.rho = 0.5\n"
         "trials = 200\nseed = 1", "unknown block kind"),
        ("scheme = clt\nmodel.kind = binary\ngrid.k = 10\ngrid.m = 64\ngrid.rho = 0.1, 0.5\n"
         "trials = 200\nseed = 1", "binary blocks take their correlation from model.p"),
        ("scheme = clt\nmodel.p = 0.1\ngrid.k = 10\ngrid.m = 4\ngrid.rho = 0.5\n"
         "trials = 200\nseed = 1", "model.p: only binary blocks"),
        ("scheme = additive\nmodel.x_law = laplace\nmodel.alpha = 3\ngrid.k = 10\n"
         "grid.rho = 0.5\ntrials = 200\nseed = 1", "model.alpha: only the pareto x_law"),
    ])
    def test_keys_a_scheme_ignores_are_rejected(self, text, match):
        with pytest.raises(ConfigurationError, match=match):
            ExperimentConfig.from_text(text)

    @pytest.mark.parametrize("text,match", [
        ("scheme = pareto\ngrid.k = 40\ngrid.rho = 0.5\ngrid.alpha = 4, 2.5\n"
         "trials = 200\nseed = 1",
         r"grid point \{'k': 40.0, 'rho': 0.5, 'alpha': 2.5\}: .*tail exponent > 3"),
        ("scheme = pareto\ngrid.k = 3, 40\ngrid.rho = 0.5\nmodel.alpha = 4\n"
         "trials = 200\nseed = 1",
         r"grid point \{'k': 3.0, 'rho': 0.5\}: index budget 2.000 bits is too small"),
    ])
    def test_pareto_points_the_trials_cannot_run_are_rejected(self, text, match):
        with pytest.raises(ConfigurationError, match=match):
            ExperimentConfig.from_text(text)

    @pytest.mark.parametrize("scheme,axis,b0,reason", [
        ("xvec", "model", "0", "weak bound b0 = 0.0 leaves the weak band"),
        ("xvec_exact", "grid", "0", "weak bound b0 = 0.0 leaves the weak band"),
        ("xvec", "grid", "-0.2", "weak bound b0 must be >= 0"),
        ("xvec_exact", "model", "nan", "weak bound b0 must be >= 0"),
    ])
    def test_weak_bounds_without_a_weak_band_are_rejected(self, scheme, axis, b0, reason):
        text = (f"scheme = {scheme}\nmodel.rho = 0.3, 0.2\n{axis}.b0 = {b0}\ngrid.k = 60\n"
                "trials = 200\nseed = 1")
        with pytest.raises(ConfigurationError, match=r"grid point \{'k': 60\.0.*\}: " + reason):
            ExperimentConfig.from_text(text)

    @pytest.mark.parametrize("text,match", [
        (THRESHOLD_TEXT.replace("grid.k = 10, 20", "grid.k = 10, 10"), r"grid\.k: repeated value"),
        (THRESHOLD_TEXT.replace("grid.rho = 0.5", "grid.rho = 0.5, 0.2, 0.50"),
         r"grid\.rho: repeated value"),
        ("scheme = xvec\nmodel.rho = 0.3, 0.2\ngrid.k = 40\ngrid.b0 = 0.3, 0.2, 0.3\n"
         "trials = 200\nseed = 1", r"grid\.b0: repeated value"),
    ])
    def test_repeated_grid_values_are_rejected(self, text, match):
        with pytest.raises(ConfigurationError, match=match):
            ExperimentConfig.from_text(text)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5, -(2**63)])
    def test_seeds_outside_the_key_range_are_rejected(self, seed):
        text = THRESHOLD_TEXT.replace("seed = 42", f"seed = {seed}")
        with pytest.raises(ConfigurationError, match=r"seed: must lie in \[0, 2\^64\)"):
            ExperimentConfig.from_text(text)
        with pytest.raises(ConfigurationError, match="seed: must lie"):
            ExperimentConfig.from_text(THRESHOLD_TEXT, seed=seed)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_range_ends_are_accepted(self, seed):
        text = THRESHOLD_TEXT.replace("seed = 42", f"seed = {seed}")
        assert ExperimentConfig.from_text(text).seed == seed

    def test_readme_example_configs_parse(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
        assert blocks
        for block in blocks:
            assert ExperimentConfig.from_text(block).points()


class TestRunSweep:
    def test_xvec_d4_chunk_working_set(self):
        # One full d = 4 chunk holds a single 16,384 x 4 x 4 stack (2 MiB);
        # everything else it allocates is (trials, d) or smaller.
        import tracemalloc

        config = ExperimentConfig.from_text(
            "scheme = xvec\ngrid.k = 160\nmodel.rho = 0.3, 0.2, 0.1, 0.4\n"
            f"trials = {CHUNK_TRIALS}\nseed = 1\n"
        )
        batch_fn = config._cells[0][0]
        harness._chunk_partial(batch_fn(substream(1, 0), CHUNK_TRIALS))  # warm caches
        tracemalloc.start()
        try:
            harness._chunk_partial(batch_fn(substream(1, 0), CHUNK_TRIALS))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20

    def test_each_cell_is_built_once(self, monkeypatch):
        spec = harness._SCHEMES["threshold"]
        calls = []

        def counting(config, point):
            calls.append(point)
            return spec.build(config, point)

        monkeypatch.setitem(harness._SCHEMES, "threshold", spec._replace(build=counting))
        config = ExperimentConfig.from_text(THRESHOLD_TEXT, trials=300)
        assert calls == config.points()
        first = format_csv(run_sweep(config, threads=1))
        assert format_csv(run_sweep(config, threads=2)) == first
        assert calls == config.points()

    def test_threshold_sweep_matches_theory(self):
        config = ExperimentConfig.from_text(THRESHOLD_TEXT)
        rows = run_sweep(config, threads=2)
        assert [row.k for row in rows] == [10.0, 20.0]
        for row in rows:
            assert row.trials == 20_000
            assert row.failures == 0
            assert abs(row.bias) <= 4.0 * row.bias_se + 1e-12
            assert abs(row.variance - row.theory_exact) <= 4.0 * row.variance_se
            assert row.theory_asymptotic == pytest.approx(zhang_berger_optimal(0.5, row.k))
            assert row.bits_expected_mean == pytest.approx(row.k, abs=1e-6)
            assert row.mse == pytest.approx(row.variance + row.bias**2, rel=1e-9)
            assert row.samples_mean == pytest.approx(1.0 / geometric_entropy_inv(row.k),
                                                     rel=0.1)

    def test_thread_count_never_changes_the_bytes(self):
        config = ExperimentConfig.from_text(THRESHOLD_TEXT)
        csv_one = format_csv(run_sweep(config, threads=1))
        csv_many = format_csv(run_sweep(config, threads=8))
        assert csv_one == csv_many

    @settings(max_examples=25, deadline=None)
    @given(scheme=st.sampled_from(sorted(harness._SCHEMES)), threads=st.sampled_from([1, 2, 3]),
           chunk=st.integers(min_value=40, max_value=400))
    def test_thread_count_never_changes_the_bytes_at_any_chunk_size(self, scheme, threads,
                                                                     chunk):
        # The chunk size is part of the stream identity (it decides which
        # substream draws each trial), so each size is checked against its own
        # one-thread run.
        config = ExperimentConfig.from_text(GOLDEN_CONFIGS[scheme] + "trials = 300\nseed = 5\n")
        with mock.patch.object(harness, "CHUNK_TRIALS", chunk):
            serial = format_csv(run_sweep(config, threads=1))
            assert format_csv(run_sweep(config, threads=threads)) == serial

    def test_chunked_cells_reduce_like_one_chunk(self):
        # More trials than one chunk forces the multi-chunk reduction path.
        text = ("scheme = threshold\ngrid.k = 10\ngrid.rho = 0.3\n"
                f"trials = {CHUNK_TRIALS + 500}\nseed = 9")
        config = ExperimentConfig.from_text(text)
        rows = run_sweep(config, threads=4)
        assert rows[0].trials == CHUNK_TRIALS + 500
        assert abs(rows[0].variance - rows[0].theory_exact) <= 5.0 * rows[0].variance_se

    def test_realized_mode_reports_mean_codeword_length(self):
        config = ExperimentConfig.from_text(THRESHOLD_TEXT, trials=5000)
        rows = run_sweep(ExperimentConfig.from_text(
            THRESHOLD_TEXT + "mode = realized\n", trials=5000), threads=2)
        assert config.mode is LedgerMode.EXPECTED
        for row in rows:
            assert row.k - 0.1 <= row.bits_realized_mean <= row.k + 1.0

    def test_yvec_sweep(self):
        text = ("scheme = yvec\nmodel.rho = 0.9, 0.5, 0.1, -0.3\ngrid.k = 20\n"
                "trials = 20000\nseed = 5")
        rows = run_sweep(ExperimentConfig.from_text(text), threads=2)
        row = rows[0]
        t = threshold_for_budget(20.0)
        assert row.d == 4
        assert row.theory_exact == pytest.approx(
            sum(exact_threshold_variance(r, t) for r in (0.9, 0.5, 0.1, -0.3)))
        assert abs(row.variance - row.theory_exact) <= 4.0 * row.variance_se
        assert abs(row.bias) <= 5.0 * row.bias_se + 1e-12

    def test_linear_sweep_uses_half_budget_per_channel(self):
        text = ("scheme = linear\nmodel.rho = 0.4, -0.4\nmodel.sigma_offdiag = 0.6\n"
                "model.transform = whiten\ngrid.k = 40\ntrials = 20000\nseed = 8")
        rows = run_sweep(ExperimentConfig.from_text(text), threads=2)
        row = rows[0]
        assert row.bits_expected_mean == pytest.approx(40.0, abs=2e-6)
        assert abs(row.mse - row.theory_exact) <= 4.0 * row.mse_se

    def test_failure_rate_above_ten_percent_aborts(self, monkeypatch):
        spec = harness._SCHEMES["threshold"]

        def flaky(config, point):
            batch_fn, meta, theory = spec.build(config, point)

            def wrapped(rng, size):
                batch = batch_fn(rng, size)
                failed = batch.failed.copy()
                failed[: size // 5] = True
                return TrialBatch(
                    estimates=batch.estimates, truth=batch.truth,
                    bits_expected=batch.bits_expected,
                    bits_realized=batch.bits_realized,
                    samples=batch.samples, failed=failed,
                )
            return wrapped, meta, theory

        monkeypatch.setitem(harness._SCHEMES, "threshold", spec._replace(build=flaky))
        config = ExperimentConfig.from_text(THRESHOLD_TEXT, trials=1000)
        with pytest.raises(TrialFailureError, match="more than 10%"):
            run_sweep(config, threads=1)

    def test_small_failure_rate_is_excluded_from_aggregates(self, monkeypatch):
        spec = harness._SCHEMES["threshold"]

        def flaky(config, point):
            batch_fn, meta, theory = spec.build(config, point)

            def wrapped(rng, size):
                batch = batch_fn(rng, size)
                failed = batch.failed.copy()
                failed[: size // 20] = True
                est = batch.estimates.copy()
                est[failed] = np.nan
                return TrialBatch(
                    estimates=est, truth=batch.truth,
                    bits_expected=batch.bits_expected,
                    bits_realized=batch.bits_realized,
                    samples=batch.samples, failed=failed,
                )
            return wrapped, meta, theory

        monkeypatch.setitem(harness._SCHEMES, "threshold", spec._replace(build=flaky))
        config = ExperimentConfig.from_text(THRESHOLD_TEXT, trials=10_000)
        rows = run_sweep(config, threads=2)
        for row in rows:
            assert row.failures == pytest.approx(0.05 * row.trials, rel=0.05)
            assert math.isfinite(row.variance)
            assert abs(row.variance - row.theory_exact) <= 5.0 * row.variance_se

    def test_invalid_thread_count(self):
        config = ExperimentConfig.from_text(THRESHOLD_TEXT, trials=200)
        with pytest.raises(ConfigurationError, match="threads"):
            run_sweep(config, threads=0)


class TestDefaultThreads:
    @pytest.fixture(autouse=True)
    def no_override(self, monkeypatch):
        monkeypatch.delenv("CORRLINK_THREADS", raising=False)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 64)

    def test_counts_the_cpus_in_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 3, 5},
                            raising=False)
        assert harness._default_threads() == 3

    def test_caps_at_eight(self, monkeypatch):
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(32)),
                            raising=False)
        assert harness._default_threads() == 8

    @pytest.mark.parametrize("cpus,expected", [(5, 5), (None, 1)])
    def test_falls_back_to_cpu_count_without_affinity(self, monkeypatch, cpus, expected):
        monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
        assert harness._default_threads() == expected

    def test_environment_overrides_the_mask_and_the_cap(self, monkeypatch):
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setenv("CORRLINK_THREADS", "12")
        assert harness._default_threads() == 12
        monkeypatch.setenv("CORRLINK_THREADS", "many")
        with pytest.raises(ConfigurationError, match="CORRLINK_THREADS"):
            harness._default_threads()


# Six cells of four chunks each (1000, 1000, 1000, 500) once CHUNK_TRIALS is 1000.
PIPELINE_TEXT = ("scheme = threshold\ngrid.k = 6, 10\ngrid.rho = 0, 0.3, 0.6\n"
                 "trials = 3500\nseed = 11\n")
PIPELINE_CHUNKS = 4


class TestChunkPipeline:
    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(harness, "CHUNK_TRIALS", 1000)

    def flaky(self, monkeypatch, calls, raising_cell=None, hold=None):
        """Cell 0 fails 20% of its trials; ``raising_cell``'s chunks raise.

        Every chunk call is appended to ``calls`` when it starts. With a
        ``hold`` event, cell 1's chunks then wait for it (at most 1 s).
        """
        spec = harness._SCHEMES["threshold"]

        def build(config, point):
            batch_fn, meta, theory = spec.build(config, point)
            cell = config.points().index(point)

            def wrapped(rng, size):
                calls.append(cell)
                if hold is not None and cell == 1:
                    hold.wait(timeout=1.0)
                if cell == raising_cell:
                    raise RuntimeError(f"chunk of cell {cell} broke")
                batch = batch_fn(rng, size)
                if cell != 0:
                    return batch
                failed = batch.failed.copy()
                failed[: size // 5] = True
                return dataclasses.replace(batch, failed=failed)
            return wrapped, meta, theory

        monkeypatch.setitem(harness._SCHEMES, "threshold", spec._replace(build=build))
        return ExperimentConfig.from_text(PIPELINE_TEXT)

    def test_bytes_match_a_serial_reduction_at_every_thread_count(self):
        config = ExperimentConfig.from_text(PIPELINE_TEXT)
        assert len(config.points()) >= 6
        sizes = [1000, 1000, 1000, 500]
        serial = []
        for cell, (batch_fn, meta, theory) in enumerate(config._cells):
            partials = [
                harness._chunk_partial(batch_fn(substream(config.seed, (cell << 40) | c), n))
                for c, n in enumerate(sizes)
            ]
            columns = (theory.theory_exact, theory.theory_asymptotic, theory.theory_bound)
            serial.append(harness._reduce_cell(partials, meta, columns, config.scheme))
        expected = format_csv(serial)
        for threads in (1, 2, 3, 8):
            assert format_csv(run_sweep(config, threads=threads)) == expected

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_first_failing_cell_in_grid_order_raises(self, monkeypatch, threads):
        config = self.flaky(monkeypatch, [], raising_cell=1)
        with pytest.raises(TrialFailureError,
                           match=r"'k': 6.0, 'rho_spec': \(0.0,\).*more than 10%"):
            run_sweep(config, threads=threads)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_abort_starts_at_most_the_lookahead_beyond_the_failing_cell(self, monkeypatch,
                                                                        threads):
        calls = []
        config = self.flaky(monkeypatch, calls)
        with pytest.raises(TrialFailureError, match="more than 10%"):
            run_sweep(config, threads=threads)
        assert calls.count(0) == PIPELINE_CHUNKS
        assert len(calls) <= PIPELINE_CHUNKS + 2 * threads + 1

    def test_abort_cancels_the_queued_chunks(self, monkeypatch):
        # One worker. If it reaches cell 1's first chunk before the abort,
        # the never-set event holds it there for 1 s, long past the abort:
        # the two chunks queued behind it must never start.
        calls = []
        config = self.flaky(monkeypatch, calls, hold=threading.Event())
        with pytest.raises(TrialFailureError, match="more than 10%"):
            run_sweep(config, threads=1)
        assert calls in ([0] * PIPELINE_CHUNKS, [0] * PIPELINE_CHUNKS + [1])


class TestCsvOutput:
    def make_row(self, **overrides):
        fields = dict(
            scheme="threshold", d=1, k=20.0, rho_spec=(0.5,), alpha=None, m=None,
            b0=None, trials=1000, failures=0, bias=0.000123456789012,
            bias_se=1e-5, variance=0.0335, variance_se=4e-4, mse=0.0335,
            theory_exact=None, theory_asymptotic=0.027, theory_bound=None,
            bits_expected_mean=float("nan"),
        )
        fields.update(overrides)
        return SweepRow(**fields)

    def test_column_schema(self):
        assert len(COLUMNS) == 18
        text = format_csv([self.make_row()])
        header, line, tail = text.split("\n")
        assert header == ",".join(COLUMNS)
        assert tail == ""
        fields = line.split(",")
        assert len(fields) == 18
        assert fields[0] == "threshold"
        assert fields[3] == "0.5"
        # None and NaN both render as empty cells; floats use %.10g.
        assert fields[14] == ""
        assert fields[17] == ""
        assert fields[9] == "0.000123456789"

    def test_vector_rho_is_pipe_joined(self):
        row = self.make_row(rho_spec=(0.9, -0.25), d=2)
        line = format_csv([row]).splitlines()[1]
        assert line.split(",")[3] == "0.9|-0.25"

    def test_emit_csv_roundtrip(self, tmp_path):
        rows = [self.make_row()]
        path = tmp_path / "out.csv"
        emit_csv(rows, str(path))
        assert path.read_text(encoding="utf-8") == format_csv(rows)

    def test_emit_csv_wraps_io_errors(self, tmp_path):
        with pytest.raises(OSError, match="cannot write results"):
            emit_csv([self.make_row()], str(tmp_path / "missing" / "out.csv"))

    def test_row_validation(self):
        with pytest.raises(ConfigurationError, match="negative"):
            self.make_row(variance=-1e-9)
        with pytest.raises(ConfigurationError, match="failure count"):
            self.make_row(failures=2000)


class TestCli:
    def write_config(self, tmp_path, text=None):
        path = tmp_path / "run.cfg"
        path.write_text(text if text is not None else
                        THRESHOLD_TEXT.replace("20000", "500"))
        return str(path)

    def test_run_to_stdout(self, tmp_path, capsys):
        code = main(["run", self.write_config(tmp_path), "--threads", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == ",".join(COLUMNS)
        assert len(out.splitlines()) == 3

    def test_run_to_file_with_seed_override(self, tmp_path, capsys):
        out_path = tmp_path / "rows.csv"
        code = main(["run", self.write_config(tmp_path), "--seed", "5",
                     "--out", str(out_path), "--threads", "1"])
        assert code == 0
        assert out_path.read_text().startswith("scheme,")
        capsys.readouterr()

    def test_run_bad_config_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("scheme = bogus\ngrid.k = 10\ntrials = 200\nseed = 1\n")
        assert main(["run", str(path)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_run_empty_value_exits_one(self, tmp_path, capsys):
        path = self.write_config(tmp_path, THRESHOLD_TEXT + "model.m =\n")
        assert main(["run", path]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_run_seed_override_out_of_range_exits_one(self, tmp_path, capsys, seed):
        assert main(["run", self.write_config(tmp_path), "--seed", seed]) == 1
        captured = capsys.readouterr()
        assert "seed: must lie in [0, 2^64)" in captured.err
        assert captured.out == ""

    def test_run_missing_file_exits_one(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.cfg")]) == 1
        capsys.readouterr()

    def test_theory_threshold(self, capsys):
        code = main(["theory", "threshold", "--k", "20", "--rho", "0.5"])
        out = capsys.readouterr().out
        assert code == 0
        t = threshold_for_budget(20.0)
        assert f"{exact_threshold_variance(0.5, t):.10g}" in out
        assert "benchmark-zero-rate" in out

    def test_theory_vector_scheme(self, capsys):
        code = main(["theory", "xvec", "--k", "400", "--rho", "0.95,0.1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "quantization-penalty" in out

    def test_theory_xvec_exact_matches_the_sweep_row(self, capsys):
        text = "scheme = xvec_exact\nmodel.rho = 0.3, 0.2\ngrid.k = 40\ntrials = 200\nseed = 1"
        row = run_sweep(ExperimentConfig.from_text(text), threads=1)[0]
        code = main(["theory", "xvec_exact", "--k", "40", "--rho", "0.3,0.2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "scheme: xvec_exact" in out
        assert "theory_exact: n/a" in out
        assert f"theory_asymptotic: {row.theory_asymptotic:.10g}" in out
        assert f"theory_bound: {row.theory_bound:.10g}" in out
        assert f"crlb_trace: {row.theory_asymptotic:.10g}" in out
        assert f"trace-budget-bound: {row.theory_bound:.10g}" in out

    @pytest.mark.parametrize("flags,keys", [
        (["threshold", "--k", "20", "--rho", "0.5"], "grid.k = 20\ngrid.rho = 0.5"),
        (["max", "--k", "10", "--rho", "-0.3"], "grid.k = 10\ngrid.rho = -0.3"),
        (["yvec", "--k", "20", "--rho", "0.7,-0.2"], "grid.k = 20\nmodel.rho = 0.7, -0.2"),
        (["xvec", "--k", "400", "--rho", "0.95,0.1", "--sigma-offdiag", "0.3"],
         "grid.k = 400\nmodel.rho = 0.95, 0.1\nmodel.sigma_offdiag = 0.3"),
        # A degenerate pair: the conditional noise variance is 0.
        (["xvec", "--k", "60", "--rho", "1.0,0.0"], "grid.k = 60\nmodel.rho = 1.0, 0.0"),
        (["xvec_exact", "--k", "40", "--rho", "0.3,0.2", "--b0", "0.25"],
         "grid.k = 40\nmodel.rho = 0.3, 0.2\nmodel.b0 = 0.25"),
        (["clt", "--k", "20", "--rho", "0.5"], "grid.k = 20\ngrid.rho = 0.5"),
        (["pareto", "--k", "30", "--rho", "0.6", "--alpha", "4.5"],
         "grid.k = 30\ngrid.rho = 0.6\ngrid.alpha = 4.5"),
        (["pareto", "--k", "30", "--rho", "0.6"], "grid.k = 30\ngrid.rho = 0.6"),
        (["additive", "--k", "20", "--rho", "0.5"], "grid.k = 20\ngrid.rho = 0.5"),
        (["additive", "--k", "20", "--rho", "0.5", "--x-law", "gaussian"],
         "grid.k = 20\ngrid.rho = 0.5\nmodel.x_law = gaussian"),
        (["additive", "--k", "20", "--rho", "0.5", "--x-law", "pareto", "--alpha", "5"],
         "grid.k = 20\ngrid.rho = 0.5\nmodel.x_law = pareto\nmodel.alpha = 5"),
        (["linear", "--k", "20", "--rho", "0.5,0.3"], "grid.k = 20\nmodel.rho = 0.5, 0.3"),
    ])
    def test_theory_prints_the_sweep_row_columns(self, flags, keys, capsys):
        text = f"scheme = {flags[0]}\n{keys}\ntrials = 200\nseed = 3"
        rows = run_sweep(ExperimentConfig.from_text(text), threads=1)
        header, line = format_csv(rows).splitlines()
        cells = dict(zip(header.split(","), line.split(",")))
        assert main(["theory", *flags]) == 0
        out = capsys.readouterr().out.splitlines()
        for column in ("theory_exact", "theory_asymptotic", "theory_bound"):
            assert f"{column}: {cells[column] or 'n/a'}" in out

    @pytest.mark.parametrize("flags,match", [
        (["threshold", "--alpha", "3"], "model.alpha: the threshold scheme does not read"),
        (["threshold", "--x-law", "bogus"], "model.x_law: the threshold scheme does not read"),
        (["threshold", "--b0", "9"], "model.b0: the threshold scheme does not read"),
        (["yvec", "--sigma-offdiag", "0.2"], "model.sigma_offdiag: the yvec scheme"),
        (["clt", "--alpha", "3"], "model.alpha: the clt scheme does not read"),
        (["pareto", "--x-law", "gaussian"], "model.x_law: the pareto scheme does not read"),
        (["additive", "--alpha", "3"], "model.alpha: only the pareto x_law"),
        (["xvec", "--x-law", "laplace"], "model.x_law: the xvec scheme does not read"),
        (["linear", "--b0", "0.3"], "model.b0: the linear scheme does not read"),
    ])
    def test_theory_rejects_flags_the_scheme_does_not_read(self, flags, match, capsys):
        rho = "0.5,0.3" if flags[0] in ("yvec", "xvec", "linear") else "0.5"
        assert main(["theory", *flags, "--k", "40", "--rho", rho]) == 1
        assert match in capsys.readouterr().err

    @pytest.mark.parametrize("b0,match", [("0", "weak bound b0 = 0.0 leaves"),
                                          ("-1", "weak bound b0 must be >= 0")])
    def test_theory_xvec_rejects_weak_bounds_without_a_weak_band(self, b0, match, capsys):
        assert main(["theory", "xvec", "--k", "60", "--rho", "0.3,0.2", "--b0", b0]) == 1
        assert match in capsys.readouterr().err

    def test_theory_rejects_vector_rho_for_scalar_scheme(self, capsys):
        assert main(["theory", "threshold", "--k", "20", "--rho", "0.5,0.2"]) == 1
        assert "single correlation" in capsys.readouterr().err

    def test_theory_max_rejects_fractional_budget(self, capsys):
        assert main(["theory", "max", "--k", "10.5", "--rho", "0.5"]) == 1
        assert "integer budget" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "theory"])
    def test_max_budgets_stop_at_924_bits(self, command, tmp_path, capsys):
        # Past 2^924 samples the block maximum's mass leaves the moments'
        # quadrature window, so larger budgets are refused, not misreported.
        def exit_code(k):
            if command == "theory":
                return main(["theory", "max", "--k", k, "--rho", "0.5"])
            path = tmp_path / "max.cfg"
            path.write_text(f"scheme = max\ngrid.k = {k}\ngrid.rho = 0.5\ntrials = 100\nseed = 1\n")
            return main(["run", str(path), "--threads", "1"])

        assert exit_code("924") == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        mm = max_normal_moments(2.0**924)
        exact = crossing_variance(0.5, mm.variance, mm.mean)
        assert 0.0 < exact < 1e-3
        assert "%.10g" % exact in captured.out
        for k in ("925", "1000", "1024", "1e6"):
            assert exit_code(k) == 1
            captured = capsys.readouterr()
            assert "integer budget of 1 to 924 bits" in captured.err
            assert captured.out == ""

    THEORY_RHO = {"yvec": "0.5,0.3", "xvec": "0.3,0.2", "xvec_exact": "0.3,0.2",
                  "linear": "0.5,0.3"}

    @pytest.mark.parametrize("scheme", sorted(harness._SCHEMES))
    @pytest.mark.parametrize("k", ["1e-9", "0.5", "2", "925", "1024", "1e6", "1e300"])
    def test_theory_exits_cleanly_at_any_budget(self, scheme, k, capsys):
        code = main(["theory", scheme, "--k", k, "--rho", self.THEORY_RHO.get(scheme, "0.5")])
        captured = capsys.readouterr()
        assert code in (0, 1)
        assert ("config error" in captured.err) == (code == 1)

    @pytest.mark.parametrize("flags,match", [
        (["--alpha", "2.5", "--k", "40"], "tail exponent > 3"),
        (["--k", "3"], "index budget 2.000 bits is too small"),
    ])
    def test_theory_pareto_rejects_points_the_trials_cannot_run(self, flags, match, capsys):
        assert main(["theory", "pareto", "--rho", "0.5", *flags]) == 1
        assert match in capsys.readouterr().err

    def test_python_dash_m_runs_the_cli(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "corrlink", "theory", "threshold", "--k", "10", "--rho", "0.5"],
            capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        assert "theory_exact" in proc.stdout

    def test_theory_pareto_defaults_alpha_like_run(self, capsys):
        assert main(["theory", "pareto", "--k", "30", "--rho", "0.6"]) == 0
        default = capsys.readouterr().out
        assert main(["theory", "pareto", "--k", "30", "--rho", "0.6", "--alpha", "4"]) == 0
        assert capsys.readouterr().out == default

    def test_run_unwritable_out_exits_three(self, tmp_path, capsys):
        out_path = tmp_path / "missing" / "rows.csv"
        assert main(["run", self.write_config(tmp_path), "--out", str(out_path)]) == 3
        assert "cannot write results" in capsys.readouterr().err

    def test_selftest_passes(self, capsys):
        code = main(["selftest"])
        out = capsys.readouterr().out
        assert code == 0
        assert "all 5 checks passed" in out
