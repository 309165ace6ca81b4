"""Calibration battery: the Monte Carlo gates checked over independent seeds.

Every statistical gate in the suite reads one row's z-score and trusts that
``variance_se`` and ``bias_se`` are honest: when the theory is right, the
variance z = (variance - theory_exact) / variance_se and the bias
z = bias / bias_se are standard normal. One row cannot show that. Each config
below runs its one cell of ``TRIALS`` trials on master seeds 1 to N, and
checks that both z's have a mean within 4/sqrt(N) of 0 and a standard
deviation within 4/sqrt(2N) of 1. Every estimator here is unbiased. The
configs cover both branches of the chunk reducer: one coordinate
(threshold, max, additive) and two (yvec, linear).

The suite runs N = 200; the SD bound is then 0.2. For the full battery,
N = 2,000 with an SD bound of 0.063, run the script:
``python tests/test_calibration.py``. It prints each config's mean and SD of
both z's and its wall time, and exits 1 if any check fails.
"""

import math
import sys
import time
from functools import lru_cache

import numpy as np
import pytest

from corrlink.harness import ExperimentConfig, run_sweep

N_SEEDS = 200
N_SEEDS_FULL = 2000
TRIALS = 20_000

CONFIGS = {
    "threshold": "scheme = threshold\ngrid.k = 10\ngrid.rho = 0.5\n",
    "max": "scheme = max\ngrid.k = 8\ngrid.rho = 0.5\n",
    "yvec": "scheme = yvec\nmodel.rho = 0.5, 0.2\ngrid.k = 20\n",
    "additive": "scheme = additive\nmodel.x_law = laplace\ngrid.k = 20\ngrid.rho = 0.5\n",
    "linear": "scheme = linear\nmodel.rho = 0.5, 0.3\nmodel.sigma_offdiag = 0.3\ngrid.k = 20\n",
}


@lru_cache(maxsize=None)
def z_scores(name: str, n_seeds: int) -> dict:
    """The variance and bias z-scores of one config's cell on master seeds 1..n_seeds."""
    var_z, bias_z = [], []
    for seed in range(1, n_seeds + 1):
        config = ExperimentConfig.from_text(f"{CONFIGS[name]}trials = {TRIALS}\nseed = {seed}\n")
        (row,) = run_sweep(config, threads=1)
        var_z.append((row.variance - row.theory_exact) / row.variance_se)
        bias_z.append(row.bias / row.bias_se)
    return {"variance": np.array(var_z), "bias": np.array(bias_z)}


def misses(z: np.ndarray) -> list[str]:
    """The calibration checks that the z-scores ``z`` fail, one line each."""
    n = z.size
    mean, sd = float(z.mean()), float(z.std(ddof=1))
    out = []
    if abs(mean) > 4.0 / math.sqrt(n):
        out.append(f"mean z {mean:+.3f} is past 4/sqrt({n}) = {4.0 / math.sqrt(n):.3f}")
    if abs(sd - 1.0) > 4.0 / math.sqrt(2 * n):
        out.append(f"SD of z {sd:.3f} is past 1 ± 4/sqrt(2·{n}) = {4.0 / math.sqrt(2 * n):.3f}")
    return out


@pytest.mark.parametrize("stat", ["variance", "bias"])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_z_scores_are_standard_normal(name, stat):
    assert misses(z_scores(name, N_SEEDS)[stat]) == []


def main() -> int:
    """Run the full battery, N = 2,000 seeds per config; 1 if any check fails."""
    failed = False
    print(f"{N_SEEDS_FULL} seeds of {TRIALS} trials per config")
    print("config      variance z: mean     SD   bias z: mean     SD   wall s")
    for name in CONFIGS:
        start = time.perf_counter()
        z = z_scores(name, N_SEEDS_FULL)
        wall = time.perf_counter() - start
        print(f"{name:10s}  {z['variance'].mean():+17.3f} {z['variance'].std(ddof=1):6.3f}"
              f"  {z['bias'].mean():+13.3f} {z['bias'].std(ddof=1):6.3f} {wall:8.1f}")
        for stat in ("variance", "bias"):
            for line in misses(z[stat]):
                failed = True
                print(f"  FAIL {stat}: {line}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
