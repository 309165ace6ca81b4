"""corrlink throughput benchmark: timed ``run_sweep`` calls plus fresh-process set-up.

Usage::

    python3 perfbench/run.py --workload threshold-grid --seed 1 --seconds 35 --trace 0

Each workload is a fixed sweep config; ``--seed`` picks the two master seeds
its calls alternate between. One process runs many short closed-loop
``harness.run_sweep`` calls, alternating 1 and ``nproc`` threads, and samples
set-up time (``import corrlink`` plus config validation) in fresh processes
spread through the run. Every output is checked before any metric is printed;
a failed check prints no metrics and exits 1.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the same calls
with span wrappers installed at corrlink's module boundaries (see
``spantrace.py``) and prints the per-layer metrics instead. See ``NOTES.md`` for
what each metric is expected to move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(Path(__file__).resolve().parent))

from spantrace import LAYERS, Tracer, check_spans, root_span, self_times  # noqa: E402

# Fresh-process set-up samples per run, spread evenly over the measured time.
SETUP_SAMPLES = 6

# Allowed |variance - theory_exact| in units of the variance's standard error.
VARIANCE_SIGMAS = 6.0

# glibc mallopt parameters and the values the bench pins them to. By default
# glibc moves its mmap threshold as arrays are freed and trims each arena's
# top when it grows, so whether a call's 128 KiB-2 MiB chunk temporaries
# page-fault in fresh memory depends on which arena the new pool thread gets
# and on what earlier calls freed. An xvec-d4 call then takes either about
# 5,000 or about 30,000 minor faults, in runs of several calls, and its wall
# time jumps by up to 20% between the two states. A fixed threshold and no
# trimming keep every call in the no-fault state.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
MALLOC_SETTINGS = {_M_MMAP_THRESHOLD: 16 << 20, _M_TRIM_THRESHOLD: 256 << 20}


@dataclass(frozen=True)
class Workload:
    """A sweep config without its seed, plus which statistical gates apply."""

    name: str
    body: str
    trials: int
    bits_gate: bool = False

    def config_text(self, seed: int) -> str:
        return f"{self.body}trials = {self.trials}\nseed = {seed}\n"


WORKLOADS = {
    w.name: w
    for w in (
        # Acceptance-style grid: reducer plus crossing sampler, six chunks per
        # cell that run in parallel.
        Workload(
            "threshold-grid",
            "scheme = threshold\ngrid.k = 10, 20, 40\ngrid.rho = 0, 0.5, 0.9\n",
            trials=6 * 16384,
        ),
        # Every trial blocks on a batched 4x4 reconstruction; the scalar
        # crossing sampler is bypassed.
        Workload(
            "xvec-d4",
            "scheme = xvec\ngrid.k = 160, 240\nmodel.rho = 0.3, 0.2, 0.1, 0.4\n",
            trials=2 * 16384,
        ),
        # Many one-chunk cells: run_sweep waits for each cell, so extra
        # threads cannot help; realized mode adds Golomb lengths.
        Workload(
            "small-cells",
            "scheme = threshold\nmode = realized\n"
            "grid.k = " + ", ".join(str(k) for k in range(4, 20)) + "\n"
            "grid.rho = 0, 0.3, 0.6, 0.9\n",
            trials=16384,
            bits_gate=True,
        ),
    )
}

_SETUP_CODE = """\
import json, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import corrlink
from corrlink import harness
t1 = time.perf_counter()
harness.ExperimentConfig.from_text(sys.argv[2])
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1, "file": corrlink.__file__}))
"""


class BenchFailure(Exception):
    """A correctness gate failed; the run must not report metrics."""


def pin_malloc() -> str:
    """Apply ``MALLOC_SETTINGS`` to this process; say what was done, for the header."""
    try:
        import ctypes

        libc = ctypes.CDLL(None)
        mallopt = libc.mallopt
    except (OSError, AttributeError):
        return "default (no mallopt)"
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    for param, value in MALLOC_SETTINGS.items():
        if mallopt(param, value) != 1:
            raise BenchFailure(f"mallopt({param}, {value}) failed")
    return (f"mmap_threshold={MALLOC_SETTINGS[_M_MMAP_THRESHOLD] >> 20} MiB "
            f"trim_threshold={MALLOC_SETTINGS[_M_TRIM_THRESHOLD] >> 20} MiB")


def load_corrlink():
    """Import corrlink from this checkout's ``src``, never from anywhere else."""
    if not (SRC / "corrlink" / "__init__.py").is_file():
        raise BenchFailure(f"no corrlink sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import corrlink

    if Path(corrlink.__file__).resolve().parent != SRC / "corrlink":
        raise BenchFailure(f"imported corrlink from {corrlink.__file__}, not from {SRC}")
    return corrlink


# ---------------------------------------------------------------------------
# Set-up samples.


def scipy_import_seconds(importtime_log: str) -> float:
    """Cumulative time of the outermost scipy imports in a ``-X importtime`` log.

    The log lists each module after the modules it imported (post-order),
    indented two spaces per nesting level.
    """
    entries = []
    for line in importtime_log.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].strip()
        depth = (len(parts[2].rstrip()) - len(name) - 1) // 2
        entries.append((depth, name, int(parts[1])))
    total_us = 0
    stack: list[tuple[int, bool]] = []  # (depth, inside scipy) of open ancestors
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not inside:
            total_us += cumulative
        stack.append((depth, inside or is_scipy))
    return total_us / 1e6


def setup_sample(config_text: str) -> dict:
    """``import corrlink`` plus config validation, timed inside a fresh interpreter."""
    try:
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", _SETUP_CODE, str(SRC), config_text],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchFailure("set-up process took more than 120 s") from exc
    if proc.returncode != 0:
        raise BenchFailure(f"set-up process failed:\n{proc.stderr[-2000:]}")
    sample = json.loads(proc.stdout.strip().splitlines()[-1])
    if Path(sample.pop("file")).resolve().parent != SRC / "corrlink":
        raise BenchFailure("set-up process imported corrlink from outside this checkout")
    sample["scipy_import_s"] = scipy_import_seconds(proc.stderr)
    if sample["scipy_import_s"] <= 0.0:
        raise BenchFailure("set-up process log shows no scipy import")
    return sample


# ---------------------------------------------------------------------------
# Timed calls and their checks.


@dataclass
class Call:
    seed: int
    threads: int
    traced: bool
    wall_s: float
    trials: int
    failures: int
    csv: str
    rows: list = field(default_factory=list, repr=False)
    spans: dict = field(default_factory=dict, repr=False)
    generators: list = field(default_factory=list, repr=False)

    @property
    def trials_per_s(self) -> float:
        return self.trials / self.wall_s


def timed_call(harness, config, threads: int, tracer: Tracer | None = None) -> Call:
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        t0 = time.perf_counter()
        rows = harness.run_sweep(config, threads=threads)
        wall = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    call = Call(
        seed=config.seed, threads=threads, traced=tracer is not None, wall_s=wall,
        trials=sum(r.trials for r in rows), failures=sum(r.failures for r in rows),
        csv=harness.format_csv(rows), rows=rows,
    )
    if tracer is not None:
        call.spans, call.generators = tracer.spans, tracer.generators
    return call


class Gates:
    """Correctness checks; the first call per seed is the reference for the rest."""

    def __init__(self, workload: Workload, configs: dict):
        self.workload = workload
        self.configs = configs
        self.reference: dict[int, str] = {}

    def check(self, call: Call) -> None:
        config = self.configs[call.seed]
        rows = call.rows
        where = f"seed {call.seed}, {call.threads} thread(s){', traced' if call.traced else ''}"
        if len(rows) != len(config.points()):
            raise BenchFailure(f"{where}: {len(rows)} rows, config has {len(config.points())} cells")
        for row in rows:
            if row.trials != config.trials:
                raise BenchFailure(f"{where}: row k={row.k} has {row.trials} trials, not {config.trials}")
        ref = self.reference.get(call.seed)
        if ref is not None:
            if call.csv != ref:
                raise BenchFailure(f"{where}: CSV bytes differ from the first call with this seed")
            return
        for row in rows:
            if row.theory_exact is not None:
                gap = abs(row.variance - row.theory_exact)
                if not gap <= VARIANCE_SIGMAS * row.variance_se:
                    raise BenchFailure(
                        f"{where}: k={row.k} rho={row.rho_spec}: |variance - theory_exact| = "
                        f"{gap:.3g} > {VARIANCE_SIGMAS:g} x {row.variance_se:.3g}"
                    )
            if self.workload.bits_gate:
                if row.bits_realized_mean is None:
                    raise BenchFailure(f"{where}: k={row.k}: no realized bits reported")
                if not abs(row.bits_realized_mean - row.bits_expected_mean) <= 1.0:
                    raise BenchFailure(
                        f"{where}: k={row.k}: realized {row.bits_realized_mean:.4f} bits vs "
                        f"expected {row.bits_expected_mean:.4f}"
                    )
        self.reference[call.seed] = call.csv


# ---------------------------------------------------------------------------
# Per-layer aggregation of traced calls.


def philox_outputs(generator) -> int:
    """64-bit Philox outputs drawn so far, from the counter and buffer position."""
    state = generator.bit_generator.state
    counter = sum(int(c) << (64 * i) for i, c in enumerate(state["state"]["counter"]))
    return 4 * counter - (4 - int(state["buffer_pos"]))


def _inclusive(spans: dict, sid: int) -> bool:
    """True when no ancestor of the span has the same name (its time is not yet counted)."""
    name = spans[sid].name
    parent = spans[sid].parent
    while parent is not None:
        if spans[parent].name == name:
            return False
        parent = spans[parent].parent
    return True


def layer_metrics(traced_1t: list[Call], traced_np: list[Call], untraced_1t: list[Call],
                  setups: list[dict]) -> dict:
    self_ns = {layer: 0 for layer in LAYERS}
    fn_self_ns: dict[str, int] = {}
    fn_incl_ns: dict[str, int] = {}
    counts: dict[str, int] = {}
    theory_ns = chunks = cells = uniforms = 0
    trials = 0
    for call in traced_1t:
        spans = call.spans
        trials += call.trials
        cells += len(call.rows)
        for sid, value in self_times(spans).items():
            span = spans[sid]
            self_ns[span.layer] += value
            fn_self_ns[span.name] = fn_self_ns.get(span.name, 0) + value
            counts[span.name] = counts.get(span.name, 0) + 1
            if _inclusive(spans, sid):
                fn_incl_ns[span.name] = fn_incl_ns.get(span.name, 0) + span.end - span.start
            parent = spans.get(span.parent)
            parent_layer = parent.layer if parent else None
            if span.layer == "analysis" and parent_layer != "analysis":
                theory_ns += span.end - span.start
            if span.name == "sources.substream" and parent_layer == "harness":
                chunks += 1
        uniforms += sum(philox_outputs(g) for g in call.generators)
    busy = []
    for call in traced_np:
        spans = call.spans
        root = root_span(spans)
        work = sum(
            s.end - s.start for s in spans.values()
            if s.layer == "estimators" and s.parent is not None
            and spans[s.parent].layer == "harness"
        )
        busy.append(work / (call.threads * (root.end - root.start)))
    n = len(traced_1t)
    per_mtrial = 1e6 / trials / 1e6  # ns -> ms, per 10^6 trials

    def ms(value_ns: int) -> float:
        return value_ns * per_mtrial

    out = {
        "harness.pool_busy_frac": (statistics.median(busy), "fraction"),
        "harness.cells": (cells / n, "count"),
        "harness.chunks": (chunks / n, "count"),
        "estimators.xvec_core_batch.self_ms_per_mtrial":
            (ms(fn_self_ns.get("estimators.xvec_core_batch", 0)), "ms/Mtrial"),
        "estimators.stopping_matrix_batch.ms_per_mtrial":
            (ms(fn_incl_ns.get("estimators.stopping_matrix_batch", 0)), "ms/Mtrial"),
        "estimators.threshold_trials.self_ms_per_mtrial":
            (ms(fn_self_ns.get("estimators.threshold_trials", 0)), "ms/Mtrial"),
        "sources.draw_first_crossing.ms_per_mtrial":
            (ms(fn_incl_ns.get("sources.draw_first_crossing", 0)), "ms/Mtrial"),
        "sources.normal_from_uniform.ms_per_mtrial":
            (ms(fn_incl_ns.get("sources.normal_from_uniform", 0)), "ms/Mtrial"),
        "sources.uniforms_per_trial": (uniforms / trials, "uniforms/trial"),
        "sources.substream.calls": (counts.get("sources.substream", 0) / n, "count"),
        "protocol.golomb_length_array.ms_per_mtrial":
            (ms(fn_incl_ns.get("protocol.golomb_length_array", 0)), "ms/Mtrial"),
        "analysis.theory_ms_per_cell": (theory_ns / 1e6 / cells, "ms/cell"),
        "statmath.geometric_entropy_inv.calls":
            (counts.get("statmath.geometric_entropy_inv", 0) / n, "count"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_ms_per_mtrial"] = (ms(self_ns[layer]), "ms/Mtrial")
    out["setup.import_s"] = (statistics.median(s["import_s"] for s in setups), "s")
    out["setup.scipy_import_s"] = (statistics.median(s["scipy_import_s"] for s in setups), "s")
    out["setup.build_s"] = (statistics.median(s["build_s"] for s in setups), "s")
    traced_wall = statistics.median(c.wall_s for c in traced_1t)
    untraced_wall = statistics.median(c.wall_s for c in untraced_1t)
    out["trace_overhead_frac"] = (traced_wall / untraced_wall - 1.0, "fraction")
    return out


def check_trace(call: Call) -> None:
    problems = check_spans(call.spans)
    if problems:
        raise BenchFailure("trace is malformed: " + "; ".join(problems[:5]))
    if call.threads == 1:
        root = root_span(call.spans)
        total = sum(self_times(call.spans).values())
        if total != root.end - root.start:
            raise BenchFailure(
                f"1-thread self times add to {total} ns, the traced call took "
                f"{root.end - root.start} ns"
            )


# ---------------------------------------------------------------------------
# The run.


@dataclass
class Result:
    header: list[str]
    correct: bool
    attempted: int
    failed: int
    metrics: dict  # name -> (value, unit)
    spread: dict  # name -> list of samples behind the median

    def json_line(self) -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
        })


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "corrlink").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        setup_samples: int = SETUP_SAMPLES) -> Result:
    malloc = pin_malloc()
    corrlink = load_corrlink()
    from corrlink import harness
    import numpy
    import scipy

    nproc = _nproc()
    seeds = (2 * seed, 2 * seed + 1)
    texts = {s: workload.config_text(s) for s in seeds}
    configs = {s: harness.ExperimentConfig.from_text(texts[s]) for s in seeds}
    gates = Gates(workload, configs)
    tracer = Tracer(corrlink) if trace else None

    if trace:
        plan = [(s, th, traced) for s in seeds for th, traced in ((1, False), (1, True), (nproc, True))]
    else:
        plan = [(s, th, False) for s in seeds for th in (1, nproc)]

    def do(step) -> Call:
        s, th, traced = step
        call = timed_call(harness, configs[s], th, tracer if traced else None)
        gates.check(call)
        if traced:
            check_trace(call)
        return call

    # Warm-up: bytecode compiled, caches filled, lazy imports done. Also the
    # byte-identity reference for each seed.
    setup_sample(texts[seeds[0]])
    for step in plan:
        do(step)

    calls: list[Call] = []
    setups: list[dict] = []
    start = time.perf_counter()
    due = [start + seconds * (i + 0.5) / setup_samples for i in range(setup_samples)]

    def take_setup_samples(now: float) -> None:
        while len(setups) < len(due) and now >= due[len(setups)]:
            setups.append(setup_sample(texts[seeds[len(setups) % 2]]))

    # Whole rounds of the plan, so both seeds and thread counts get equal calls.
    while True:
        for step in plan:
            take_setup_samples(time.perf_counter())
            calls.append(do(step))
        if time.perf_counter() >= start + seconds:
            break
    take_setup_samples(float("inf"))

    header = [
        f"workload: {workload.name}  trace: {int(trace)}  seconds: {seconds:g}  "
        f"seeds: {seeds[0]}, {seeds[1]}  threads: 1, {nproc}",
        f"host: nproc={nproc} python={platform.python_version()} numpy={numpy.__version__} "
        f"scipy={scipy.__version__} malloc: {malloc}",
        f"source: commit={_git_commit()} src_sha256={_source_digest()}",
    ]
    for s in seeds:
        header.append(
            f"seed {s}: config_sha256={hashlib.sha256(texts[s].encode()).hexdigest()} "
            f"csv_sha256={hashlib.sha256(gates.reference[s].encode()).hexdigest()}"
        )
    attempted = sum(c.trials for c in calls)
    failed = sum(c.failures for c in calls)
    header.append(f"calls: {len(calls)}  setup samples: {len(setups)}  "
                  f"trials attempted: {attempted}  trials failed: {failed}")

    spread: dict[str, list[float]] = {}
    if trace:
        traced_1t = [c for c in calls if c.traced and c.threads == 1]
        metrics = layer_metrics(
            traced_1t,
            [c for c in calls if c.traced and c.threads == nproc],
            [c for c in calls if not c.traced],
            setups,
        )
        layer_sum = sum(metrics[f"{layer}.self_ms_per_mtrial"][0] for layer in LAYERS)
        root_ns = sum(root_span(c.spans).end - root_span(c.spans).start for c in traced_1t)
        root_ms = root_ns / 1e6 / (sum(c.trials for c in traced_1t) / 1e6)
        header.append(f"traced 1-thread call: {root_ms:.4f} ms/Mtrial; "
                      f"sum of layer self times: {layer_sum:.4f} ms/Mtrial")
    else:
        spread["trials_per_s"] = [c.trials_per_s for c in calls if c.threads == nproc]
        spread["trials_per_s_1t"] = [c.trials_per_s for c in calls if c.threads == 1]
        spread["setup_s"] = [s["import_s"] + s["build_s"] for s in setups]
        metrics = {
            "trials_per_s": (statistics.median(spread["trials_per_s"]), "trials/s"),
            "trials_per_s_1t": (statistics.median(spread["trials_per_s_1t"]), "trials/s"),
            "setup_s": (statistics.median(spread["setup_s"]), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    return Result(header, True, attempted, failed, metrics, spread)


def describe(name: str, values: list[float], unit: str, higher_is_better: bool) -> str:
    """Median, sample count, quartiles, and the slowest-call percentile with 10 samples beyond it."""
    median = statistics.median(values)
    text = f"{name}: median {median:.6g} {unit}  n={len(values)}"
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        text += f"  q1 {q1:.6g}  q3 {q3:.6g}"
    if len(values) > 10:
        ordered = sorted(values, reverse=higher_is_better)  # fastest first
        rank = len(values) - 10  # exactly 10 slower samples beyond this one
        text += f"  p{100 * rank // len(values)} slowest {ordered[rank - 1]:.6g}"
    else:
        text += "  slowest percentile: fewer than 11 samples"
    return text


def report(result: Result) -> None:
    for line in result.header:
        print(line)
    for name, (value, unit) in result.metrics.items():
        if name in result.spread:
            print(describe(name, result.spread[name], unit, unit == "trials/s"))
        else:
            print(f"{name}: {value:.6g} {unit}")
    print(result.json_line())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except BenchFailure as exc:
        print(f"perfbench: FAILED: {exc}", file=sys.stderr)
        return 1
    report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
