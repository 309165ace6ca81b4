"""Every chunk of a sweep is seen by a span wrapper installed after validation.

The benchmark's ``--trace 1`` metrics (``perfbench/spantrace.py``) wrap each
scheme's runner in its module namespace once the config is built. A cell's
plan looks its runner up when it runs, so each chunk must record one runner
span directly under ``harness.run_sweep``.
"""

import sys
from pathlib import Path

import pytest

import corrlink
from corrlink import harness
from corrlink.harness import ExperimentConfig, format_csv

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from spantrace import Tracer, check_spans, root_span  # noqa: E402

SWEEPS = {
    "threshold": ("scheme = threshold\ngrid.k = 10, 20\ngrid.rho = 0.5\n",
                  "estimators.crossing_trials"),
    "max": ("scheme = max\ngrid.k = 3, 8\ngrid.rho = 0.5\n", "estimators.max_trials"),
    "xvec": ("scheme = xvec\nmodel.rho = 0.3, 0.2\ngrid.k = 40, 60\n",
             "estimators.xvec_core_batch"),
    "linear": ("scheme = linear\nmodel.rho = 0.5, 0.3\ngrid.k = 20, 30\n",
               "estimators.linear_plan_trials"),
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_every_chunk_records_its_runner(name, threads, monkeypatch):
    monkeypatch.setattr(harness, "CHUNK_TRIALS", 100)
    text, runner = SWEEPS[name]
    config = ExperimentConfig.from_text(f"{text}trials = 250\nseed = 7\n")
    plain = format_csv(harness.run_sweep(config, threads=threads))
    with Tracer(corrlink) as tracer:
        # Looked up on the module, so the sweep itself is the root span.
        traced = format_csv(harness.run_sweep(config, threads=threads))
    assert traced == plain
    spans = tracer.spans
    assert check_spans(spans) == []
    root = root_span(spans)
    assert root.name == "harness.run_sweep"
    top = [s.name for s in spans.values() if s.parent is not None and spans[s.parent] is root]
    chunks = len(config.points()) * 3
    assert top.count("sources.substream") == chunks
    assert top.count(runner) == chunks
    assert {n for n in top if n.startswith("estimators.")} == {runner}
