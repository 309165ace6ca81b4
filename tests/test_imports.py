"""What ``import corrlink`` loads: numpy and scipy.special, nothing heavier."""

import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

HEAVY = ("scipy.stats", "scipy.optimize", "scipy.integrate")


def run_isolated(code: str) -> str:
    """Run ``code`` in a fresh interpreter that imports corrlink from this checkout."""
    prelude = f"import sys\nsys.path.insert(0, {str(SRC)!r})\n"
    proc = subprocess.run(
        [sys.executable, "-c", prelude + textwrap.dedent(code)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_and_config_validation_load_no_heavy_scipy_module():
    out = run_isolated(f"""
        import corrlink
        from corrlink.harness import ExperimentConfig
        loaded = [[m for m in {HEAVY!r} if m in sys.modules]]
        ExperimentConfig.from_text("scheme = threshold\\ngrid.k = 10, 20, 40\\n"
                                   "grid.rho = 0, 0.5, 0.9\\ntrials = 1000\\nseed = 1")
        ExperimentConfig.from_text("scheme = xvec\\ngrid.k = 160, 240\\n"
                                   "model.rho = 0.3, 0.2, 0.1, 0.4\\ntrials = 1000\\nseed = 1")
        loaded.append([m for m in {HEAVY!r} if m in sys.modules])
        print(loaded, "scipy.special" in sys.modules)
    """)
    assert out.split() == ["[[],", "[]]", "True"]


def test_max_scheme_runs_and_loads_quadrature_on_first_use(tmp_path):
    cfg = tmp_path / "max.cfg"
    cfg.write_text("scheme = max\ngrid.k = 3\ngrid.rho = 0.5\ntrials = 500\nseed = 2\n")
    out = run_isolated(f"""
        from corrlink.cli import main
        before = "scipy.integrate" in sys.modules
        code = main(["run", {str(cfg)!r}])
        print("loaded", before, "scipy.integrate" in sys.modules, "exit", code)
    """)
    lines = out.strip().splitlines()
    assert lines[-1] == "loaded False True exit 0"
    header, row = lines[0].split(","), lines[1].split(",")
    assert row[0] == "max" and row[header.index("theory_exact")] != ""
