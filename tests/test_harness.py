"""Config parsing, sweep determinism, aggregation, CSV output, and the CLI."""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from corrlink import harness
from corrlink.analysis import (
    exact_threshold_variance,
    threshold_for_budget,
    yvec_sum_mse,
    zhang_berger_optimal,
)
from corrlink.cli import main
from corrlink.errors import ConfigurationError, TrialFailureError
from corrlink.estimators import TrialBatch
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
from corrlink.protocol import LedgerMode
from corrlink.statmath import geometric_entropy_inv

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

    def test_programming_error_in_a_builder_is_not_a_config_error(self, monkeypatch):
        def broken(config, point):
            raise TypeError("bug inside the builder")

        monkeypatch.setitem(harness._SCHEMES, "threshold", broken)
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
    ])
    def test_validation_errors(self, text, match):
        with pytest.raises(ConfigurationError, match=match):
            ExperimentConfig.from_text(text)

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

    def test_readme_example_configs_parse(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
        assert blocks
        for block in blocks:
            assert ExperimentConfig.from_text(block).points()


class TestRunSweep:
    def test_each_cell_is_built_once(self, monkeypatch):
        original = harness._SCHEMES["threshold"]
        calls = []

        def counting(config, point):
            calls.append(point)
            return original(config, point)

        monkeypatch.setitem(harness._SCHEMES, "threshold", counting)
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
            yvec_sum_mse(np.array([0.9, 0.5, 0.1, -0.3]), t))
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
        original = harness._SCHEMES["threshold"]

        def flaky(config, point):
            batch_fn, meta, theory = original(config, point)

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

        monkeypatch.setitem(harness._SCHEMES, "threshold", flaky)
        config = ExperimentConfig.from_text(THRESHOLD_TEXT, trials=1000)
        with pytest.raises(TrialFailureError, match="more than 10%"):
            run_sweep(config, threads=1)

    def test_small_failure_rate_is_excluded_from_aggregates(self, monkeypatch):
        original = harness._SCHEMES["threshold"]

        def flaky(config, point):
            batch_fn, meta, theory = original(config, point)

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

        monkeypatch.setitem(harness._SCHEMES, "threshold", flaky)
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
        assert f"asymptotic_variance: {row.theory_bound:.10g}" in out
        assert f"crlb_trace: {row.theory_asymptotic:.10g}" in out

    def test_theory_rejects_vector_rho_for_scalar_scheme(self, capsys):
        assert main(["theory", "threshold", "--k", "20", "--rho", "0.5,0.2"]) == 1
        assert "single correlation" in capsys.readouterr().err

    def test_theory_pareto_requires_alpha(self, capsys):
        assert main(["theory", "pareto", "--k", "30", "--rho", "0.6"]) == 1
        capsys.readouterr()

    def test_selftest_passes(self, capsys):
        code = main(["selftest"])
        out = capsys.readouterr().out
        assert code == 0
        assert "all 5 checks passed" in out
