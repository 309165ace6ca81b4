"""Command line front end: run sweeps, print theory values, run the selftest.

Exit codes: 0 success, 1 configuration problem, 2 runtime failure (a walked
crossing that reached its cap, or selftest failures), 3 output I/O error.
"""

from __future__ import annotations

import argparse
import math
import sys
from functools import partial
from typing import Optional

import numpy as np

from .errors import CorrlinkError, TrialFailureError
from .harness import _SCHEMES, ExperimentConfig, emit_csv, format_csv, run_sweep

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_IO = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrlink",
        description="Distributed correlation estimation: simulated protocols, "
        "bit accounting, and closed-form theory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a Monte Carlo sweep from a config file")
    p_run.add_argument("config", help="path to a flat key = value config file")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--threads", type=int, default=None, help="worker thread count")
    p_run.add_argument("--out", default=None, help="output CSV path (default: config, else stdout)")

    p_theory = sub.add_parser(
        "theory", help="print closed-form values for one scheme, or for each grid point "
        "of a config file")
    p_theory.add_argument("scheme", nargs="?", help=f"scheme id ({', '.join(_SCHEMES)})")
    p_theory.add_argument("--config", default=None, metavar="FILE",
                          help="a config file as `run` reads it, in place of the scheme and flags")
    p_theory.add_argument("--k", type=float, default=None, help="bit budget")
    p_theory.add_argument("--rho", default=None,
                          help="correlation, comma-separated for vector schemes")
    p_theory.add_argument("--alpha", type=float, default=None, help="power-law tail exponent")
    p_theory.add_argument("--b0", type=float, default=None,
                          help="weak-coordinate band half-width (default 0.3)")
    p_theory.add_argument("--sigma-offdiag", type=float, default=None,
                          help="equicorrelated off-diagonal of the X covariance (default 0)")
    p_theory.add_argument("--x-law", default=None, dest="x_law",
                          help="X marginal for the additive scheme (laplace, gaussian, pareto)")
    p_theory.set_defaults(usage_error=p_theory.error)

    sub.add_parser("selftest", help="run the built-in invariant checks")
    return parser


def _cmd_run(args) -> int:
    try:
        overrides = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        config = ExperimentConfig.from_file(args.config, **overrides)
    except (CorrlinkError, OSError, ValueError) as exc:
        print(f"corrlink: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        rows = run_sweep(config, threads=args.threads)
    except TrialFailureError as exc:
        print(f"corrlink: runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except CorrlinkError as exc:
        print(f"corrlink: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out_path = args.out if args.out is not None else config.out
    if out_path is None:
        sys.stdout.write(format_csv(rows))
        return EXIT_OK
    try:
        emit_csv(rows, out_path)
    except OSError as exc:
        print(f"corrlink: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


# Each `theory` flag and the config key it sets; a flag left out sets nothing,
# so the scheme's config default applies.
_THEORY_KEYS = {
    "k": "grid.k", "rho": "model.rho", "alpha": "model.alpha", "b0": "model.b0",
    "sigma_offdiag": "model.sigma_offdiag", "x_law": "model.x_law",
}


def _cmd_theory(args) -> int:
    flagged = [args.scheme, *(getattr(args, flag) for flag in _THEORY_KEYS)]
    if args.config is not None and any(value is not None for value in flagged):
        args.usage_error("--config replaces the scheme and its flags")
    if args.config is None and None in (args.scheme, args.k, args.rho):
        args.usage_error("give a scheme with --k and --rho, or --config FILE")
    try:
        if args.config is not None:
            config = ExperimentConfig.from_file(args.config)
        else:
            raw = {key: str(getattr(args, flag)) for flag, key in _THEORY_KEYS.items()
                   if getattr(args, flag) is not None}
            # Nothing is simulated; trials and seed only complete the config.
            config = ExperimentConfig.from_mapping(raw, scheme=args.scheme, trials=100, seed=0)
    except (CorrlinkError, OSError, ValueError) as exc:
        print(f"corrlink: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.config is None:
        _print_report(config.reports()[0])
        return EXIT_OK
    for i, (point, report) in enumerate(zip(config.points(), config.reports())):
        if i:
            print()
        print(f"grid point: {point}")
        _print_report(report)
    return EXIT_OK


def _print_report(report) -> None:
    print(f"scheme: {report.scheme}")
    print(f"k: {report.k:.10g}")
    for name in ("theory_exact", "theory_asymptotic", "theory_bound", "crlb_trace"):
        value = getattr(report, name)
        print(f"{name}: " + ("n/a" if value is None else "%.10g" % value))
    if report.fisher is not None:
        print("fisher:")
        for row in report.fisher:
            print("  " + "  ".join(f"{value:.10g}" for value in row))
    if report.bounds:
        print("bounds:")
        for label, value in report.bounds:
            print(f"  {label}: {value:.10g}")


def _expect(ok, message: str) -> None:
    """A selftest assertion that ``python -O`` keeps."""
    if not ok:
        raise AssertionError(message)


def _selftest_checks():
    from .estimators import TrialBatch
    from .harness import _chunk_partial, _reduce_cell
    from .protocol import golomb_length_array
    from .statmath import geometric_entropy, geometric_entropy_inv, qfunc, qfunc_inv

    def check_roundtrips():
        for x in np.linspace(-6.0, 37.0, 25):
            back = qfunc_inv(qfunc(x))
            _expect(abs(back - x) <= 1e-8 * max(1.0, abs(x)), f"tail roundtrip failed at {x}")
        for k in (5.0, 20.0, 60.0):
            p = geometric_entropy_inv(k)
            _expect(abs(geometric_entropy(p) - k) <= 1e-8 * k, f"entropy roundtrip failed at {k}")

    def check_golomb():
        # Over the first 20 quotients a complete prefix code has Kraft sum
        # exactly 1 - 2^-20; lengths never shrink and grow one bit per quotient.
        for m in (1, 2, 3, 8, 37, 1000):
            length = golomb_length_array(np.arange(1.0, 20 * m + 1), m)
            _expect(math.fsum(2.0 ** -length) == 1.0 - 2.0**-20, f"Kraft sum incomplete at {m}")
            _expect(np.all(np.diff(length) >= 0), f"lengths decrease at {m}")
            _expect(np.array_equal(length[m:], length[:-m] + 1), f"quotient step off at {m}")

    def check_moments():
        # The sweep reducer on uneven chunks against two-pass moments.
        rng = np.random.default_rng(7)
        values = rng.standard_normal(100_000) * 3.0 + 1.0
        edges = [0, 1, 1000, 1024, 50_000, 77_777, values.size]
        partials = [
            _chunk_partial(TrialBatch(
                estimates=values[lo:hi, None], truth=np.zeros(1), bits_expected=0.0,
                bits_realized=None, samples=np.ones(hi - lo),
            ))
            for lo, hi in zip(edges, edges[1:])
        ]
        meta = {"d": 1, "k": 0.0, "rho_spec": (0.0,), "alpha": None, "m": None, "b0": None}
        row = _reduce_cell(partials, meta, (None, None, None), "selftest")
        mean = float(values.mean())
        var = float(np.mean((values - mean) ** 2))
        _expect(abs(row.bias - mean) <= 1e-9 * max(1.0, abs(mean)), "reduced mean drifted")
        _expect(abs(row.variance - var) <= 1e-9 * var, "reduced variance drifted")

    def check_determinism(text):
        config = ExperimentConfig.from_text(text)
        csv_1 = format_csv(run_sweep(config, threads=1))
        csv_2 = format_csv(run_sweep(config, threads=4))
        _expect(csv_1 == csv_2, "thread count changed the output bytes")

    def check_monte_carlo():
        text = "scheme = threshold\ngrid.k = 10\ngrid.rho = 0.3\ntrials = 20000\nseed = 3"
        config = ExperimentConfig.from_text(text)
        row = run_sweep(config)[0]
        gap = abs(row.variance - row.theory_exact)
        _expect(gap <= 6.0 * row.variance_se,
                f"variance {row.variance:.6g} vs exact {row.theory_exact:.6g} "
                f"outside 6 standard errors ({row.variance_se:.3g})")

    return [
        ("tail and entropy roundtrips", check_roundtrips),
        ("index code lengths", check_golomb),
        ("streaming moments", check_moments),
        ("thread determinism", partial(
            check_determinism,
            "scheme = threshold\ngrid.k = 10\ngrid.rho = 0.5\ntrials = 256\nseed = 11")),
        # One chunk of two blocks, each draw read through its own stream
        # cursor, then a 3,616-trial chunk of one block.
        ("xvec thread determinism", partial(
            check_determinism,
            "scheme = xvec\ngrid.k = 120\nmodel.rho = 0.3, 0.2, 0.1\ntrials = 20000\nseed = 11")),
        ("monte carlo vs exact variance", check_monte_carlo),
    ]


def _cmd_selftest() -> int:
    failures = 0
    checks = _selftest_checks()
    for name, check in checks:
        try:
            check()
        except Exception as exc:
            failures += 1
            print(f"selftest FAIL {name}: {exc}", file=sys.stderr)
        else:
            print(f"selftest ok   {name}")
    if failures:
        print(f"selftest: {failures} of {len(checks)} checks failed", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"selftest: all {len(checks)} checks passed")
    return EXIT_OK


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "theory":
        return _cmd_theory(args)
    return _cmd_selftest()


if __name__ == "__main__":
    sys.exit(main())
