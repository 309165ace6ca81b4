"""Smoke test of the benchmark at tiny sizes: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spantrace import LAYERS, Tracer, check_spans, root_span, self_times  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny(name: str) -> run.Workload:
    return dataclasses.replace(run.WORKLOADS[name], trials=300)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_every_declared_metric_is_printed_with_its_unit(name, trace, capsys):
    result = run.run(tiny(name), seed=3, seconds=0.0, trace=trace, setup_samples=1)
    run.report(result)
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] >= 1 and last["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in last["metrics"].items()
    }
    for value in last["metrics"].values():
        assert isinstance(value["value"], float)


def traced_sweep(name: str, threads: int):
    corrlink = run.load_corrlink()
    from corrlink import harness

    config = harness.ExperimentConfig.from_text(tiny(name).config_text(5))
    plain = harness.format_csv(harness.run_sweep(config, threads=threads))
    tracer = Tracer(corrlink)
    originals = {layer: dict(vars(getattr(corrlink, layer))) for layer in LAYERS}
    with tracer:
        rows = harness.run_sweep(config, threads=threads)
    traced = harness.format_csv(rows)
    for layer in LAYERS:
        assert dict(vars(getattr(corrlink, layer))) == originals[layer]
    assert traced == plain
    return tracer.spans


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_spans_nest_and_self_times_are_nonnegative(name, threads):
    spans = traced_sweep(name, threads)
    assert check_spans(spans) == []
    assert root_span(spans).name == "harness.run_sweep"
    assert {s.layer for s in spans.values()} >= {"harness", "estimators", "sources", "statmath"}
    children: dict[int, list] = {}
    for span in spans.values():
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    for sid, kids in children.items():
        parent = spans[sid]
        for kid in kids:
            assert parent.start <= kid.start <= kid.end <= parent.end
        if threads == 1:
            assert sum(k.end - k.start for k in kids) <= parent.end - parent.start


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_one_thread_self_times_add_up_to_the_traced_call(name):
    spans = traced_sweep(name, 1)
    root = root_span(spans)
    assert sum(self_times(spans).values()) == root.end - root.start


def test_a_changed_csv_fails_the_gate():
    corrlink = run.load_corrlink()
    from corrlink import harness

    workload = tiny("threshold-grid")
    config = harness.ExperimentConfig.from_text(workload.config_text(1))
    gates = run.Gates(workload, {config.seed: config})
    call = run.timed_call(harness, config, 1)
    gates.check(call)
    with pytest.raises(run.BenchFailure, match="CSV bytes differ"):
        gates.check(dataclasses.replace(call, csv=call.csv + "\n"))


def test_scipy_import_time_counts_only_outermost_scipy_imports():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |     scipy._lib",
        "import time:        20 |         20 |       numpy.linalg",
        "import time:        30 |         50 |     scipy.special",
        "import time:         5 |        100 |   scipy",
        "import time:         7 |        300 | corrlink.statmath",
        "import time:        40 |         40 |   scipy.stats",
        "import time:         1 |        341 | corrlink",
    ])
    assert run.scipy_import_seconds(log) == pytest.approx(140e-6)
