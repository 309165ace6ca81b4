"""Golden CSV bytes: one small sweep per scheme, pinned to the exact text.

Each config below runs about 2k trials per cell. The expected text in
``tests/golden/<name>.csv`` is the output of ``format_csv(run_sweep(cfg))``
and must not change under refactoring: the same seeds, substream keys and
draw order give the same bytes, at any thread count. To regenerate a file
after a deliberate change of its output, name it:
``python tests/test_golden.py clt_binary``. With no names the script lists
them and writes nothing.
"""

import sys
from pathlib import Path

import pytest

from corrlink.harness import ExperimentConfig, format_csv, run_sweep

GOLDEN_DIR = Path(__file__).parent / "golden"

CONFIGS = {
    "threshold": "scheme = threshold\ngrid.k = 4, 10, 40\ngrid.rho = 0.0, 0.5, 0.9\n",
    "threshold_realized": "scheme = threshold\ngrid.k = 10, 20\ngrid.rho = 0.3\n"
                          "mode = realized\n",
    "max": "scheme = max\ngrid.k = 3, 8\ngrid.rho = 0.5\n",
    "yvec": "scheme = yvec\nmodel.rho = 0.5, 0.2\ngrid.k = 10, 20\n",
    "xvec": "scheme = xvec\nmodel.rho = 0.3, 0.2\nmodel.sigma_offdiag = 0.2\ngrid.k = 40, 60\n",
    "xvec_exact": "scheme = xvec_exact\nmodel.rho = 0.3, 0.2\ngrid.k = 20, 40\n",
    "xvec_d4": "scheme = xvec\nmodel.rho = 0.3, 0.2, 0.1, 0.4\nmodel.sigma_offdiag = 0.1\n"
               "grid.k = 160, 240\n",
    "xvec_exact_d3": "scheme = xvec_exact\nmodel.rho = 0.3, 0.2, 0.4\nmodel.sigma_offdiag = 0.2\n"
                     "grid.k = 20, 40\n",
    "clt": "scheme = clt\ngrid.k = 10\ngrid.m = 4, 16\ngrid.rho = 0.5\n",
    "clt_binary": "scheme = clt\nmodel.kind = binary\nmodel.p = 0.25\ngrid.k = 10\n"
                  "grid.m = 16, 64\n",
    "pareto": "scheme = pareto\ngrid.k = 20, 40\ngrid.rho = 0.5\nmodel.alpha = 4\n",
    "additive": "scheme = additive\nmodel.x_law = laplace\ngrid.k = 10, 20\ngrid.rho = 0.5\n",
    "linear": "scheme = linear\nmodel.rho = 0.5, 0.3\nmodel.sigma_offdiag = 0.3\ngrid.k = 20\n",
}


def _config(name: str) -> ExperimentConfig:
    return ExperimentConfig.from_text(CONFIGS[name] + "trials = 2000\nseed = 20180531\n")


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_sweep_bytes_match_golden(name, threads):
    want = (GOLDEN_DIR / f"{name}.csv").read_text(encoding="utf-8")
    assert format_csv(run_sweep(_config(name), threads=threads)) == want


def test_regeneration_writes_only_the_named_files(tmp_path, monkeypatch):
    monkeypatch.setitem(globals(), "GOLDEN_DIR", tmp_path)
    assert main([]) == 0
    assert main(["max", "no_such_file"]) == 2
    assert list(tmp_path.iterdir()) == []
    assert main(["max"]) == 0
    assert [path.name for path in tmp_path.iterdir()] == ["max.csv"]
    assert (tmp_path / "max.csv").read_text(encoding="utf-8") == \
        (Path(__file__).parent / "golden" / "max.csv").read_text(encoding="utf-8")


def main(names: list[str]) -> int:
    """Rewrite the named golden files; with no names, list them."""
    if not names:
        print("golden files: " + ", ".join(sorted(CONFIGS)))
        return 0
    unknown = sorted(set(names) - set(CONFIGS))
    if unknown:
        print(f"unknown golden file(s): {', '.join(unknown)}; known: "
              + ", ".join(sorted(CONFIGS)), file=sys.stderr)
        return 2
    for name in names:
        path = GOLDEN_DIR / f"{name}.csv"
        path.write_text(format_csv(run_sweep(_config(name), threads=1)), encoding="utf-8")
        print(f"wrote {path}")
    return 0

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
