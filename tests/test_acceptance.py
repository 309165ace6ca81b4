"""End-to-end acceptance battery: every protocol against its closed-form theory.

Each test is one criterion and prints one summary line. Monte Carlo checks pin
their own statistical tolerances from the sampled moments, so a pass is a
4-sigma (or stated) agreement with the exact formulas, not a loose eyeball.
"""

import math

import numpy as np
import pytest
from scipy import stats

from corrlink import (
    AdditiveNoise,
    BlockAveraged,
    ConfigurationError,
    CorrelationMatrix,
    DoublySymmetricBinary,
    GaussianScalar,
    GaussianXVec,
    GaussianYVec,
    LedgerMode,
    ParetoTwoSided,
    StdNormal,
    StoppingSetParams,
    ExperimentConfig,
    UnitLaplace,
    clt_trials,
    crossing_variance,
    exact_threshold_variance,
    fisher_scalar,
    geometric_entropy_inv,
    inverse_mills,
    laplace_theory,
    linear_baseline_plan,
    linear_baseline_trace,
    max_normal_moments,
    max_trials,
    pareto_trials,
    pareto_unquantized_floor,
    quantization_loss_bound,
    run_sweep,
    stopping_matrix_batch,
    substream,
    threshold_for_budget,
    threshold_trials,
    truncated_normal_moments,
    xvec_paired_batch,
    xvec_trials,
    zhang_berger_optimal,
)

SEED = 86422
LN2 = math.log(2.0)

RHO_GRID = (0.0, 0.3, -0.3, 0.6, -0.6, 0.9, -0.9)
XVEC_RHO = np.array([0.95, 0.1])
YVEC_RHO = np.array([0.9, 0.5, 0.1, -0.3])


def _threshold_fisher(rho, t):
    return fisher_scalar(rho, truncated_normal_moments(t).second_moment)


def _mse_and_se(sq_errors):
    """Mean squared error with its standard error from the empirical spread."""
    sq = np.asarray(sq_errors, dtype=float)
    mse = float(sq.mean())
    se = float(sq.std(ddof=1)) / math.sqrt(sq.size)
    return mse, se


def _xvec_model():
    return GaussianXVec(rho=XVEC_RHO, sigma_x=CorrelationMatrix.identity(2))


def _yvec_model():
    sigma = np.outer(YVEC_RHO, YVEC_RHO) + np.diag(1.0 - YVEC_RHO**2)
    return GaussianYVec(rho=YVEC_RHO, sigma_y=CorrelationMatrix(sigma))


def test_threshold_monte_carlo_matches_exact_variance_grid():
    """Criterion 1: simulated threshold runs hit the exact variance, cell by cell."""
    trials = 1_000_000
    worst_bias_z = 0.0
    worst_var_z = 0.0
    for cell, (k, rho) in enumerate(
        (k, rho) for k in (10.0, 20.0, 30.0) for rho in RHO_GRID
    ):
        batch = threshold_trials(GaussianScalar(rho), k, substream(SEED, cell), trials)
        est = batch.estimates[:, 0]
        se_mean = est.std(ddof=1) / math.sqrt(trials)
        bias_z = abs(est.mean() - rho) / se_mean
        assert bias_z <= 4.0, f"bias {bias_z:.2f} sigma at k={k}, rho={rho}"

        dev = est - est.mean()
        var = float(np.mean(dev * dev))
        m4 = float(np.mean(dev**4))
        se_var = math.sqrt(max(m4 - var * var, 0.0) / trials)
        exact = exact_threshold_variance(rho, threshold_for_budget(k))
        var_z = abs(var - exact) / se_var
        assert var_z <= 4.0, f"variance {var_z:.2f} sigma at k={k}, rho={rho}"
        worst_bias_z = max(worst_bias_z, bias_z)
        worst_var_z = max(worst_var_z, var_z)
    print(
        f"PASS exact-variance grid: 21 cells x {trials} trials, worst bias "
        f"{worst_bias_z:.2f} sigma, worst variance {worst_var_z:.2f} sigma"
    )


def test_scaled_variance_ratio_tightens_with_budget():
    """Criterion 2: k Var 2ln2/(1-rho^2) shrinks toward 1 for both scalar schemes."""
    rho = 0.5
    unit = 1.0 - rho * rho
    budgets = (10, 20, 40, 80)
    thr = [
        k * exact_threshold_variance(rho, threshold_for_budget(float(k))) * 2 * LN2 / unit
        for k in budgets
    ]
    moments = [max_normal_moments(2.0**k) for k in budgets]
    mx = [k * crossing_variance(rho, mm.variance, mm.mean) * 2 * LN2 / unit
          for k, mm in zip(budgets, moments)]
    for name, seq in (("threshold", thr), ("max", mx)):
        assert all(a >= b for a, b in zip(seq, seq[1:])), f"{name} ratios not monotone"
        assert seq[-1] <= 1.35, f"{name} ratio {seq[-1]:.4f} at k=80"
    print(
        f"PASS scaled-variance ratios: threshold {thr[-1]:.4f}, max {mx[-1]:.4f} "
        f"at k=80, both monotone down"
    )


def test_efficiency_product_near_one_for_moderate_correlations():
    """Criterion 3 (attainable part): variance times information stays in [1, 1.25]."""
    budgets = (10.0, 20.0, 40.0, 80.0)

    def product(rho, k):
        t = threshold_for_budget(k)
        return exact_threshold_variance(rho, t) * _threshold_fisher(rho, t)

    for rho in (0.0, 0.3, -0.3, 0.6, -0.6):
        value = product(rho, 40.0)
        assert 1.0 <= value <= 1.25, f"product {value:.6f} at rho={rho}"
    for rho in RHO_GRID:
        seq = [product(rho, k) for k in budgets]
        assert all(a > b for a, b in zip(seq, seq[1:])), f"not decreasing at rho={rho}"
    # The extreme correlations do get under the ceiling, just at a larger budget.
    assert product(0.9, 80.0) <= 1.25
    print(
        f"PASS efficiency product: within [1, 1.25] at k=40 for |rho| <= 0.6 "
        f"(worst {product(0.6, 40.0):.6f}), decreasing in k everywhere"
    )


@pytest.mark.xfail(
    strict=True,
    reason="at correlation 0.9 the 40-bit efficiency product is 1.2656, above the "
    "1.25 ceiling this check pins; the ceiling is met only from 80 bits up",
)
def test_efficiency_product_ceiling_across_full_correlation_grid():
    """Criterion 3 as stated: the [1, 1.25] window at k=40 over the whole grid."""
    t = threshold_for_budget(40.0)
    for rho in RHO_GRID:
        value = exact_threshold_variance(rho, t) * _threshold_fisher(rho, t)
        assert 1.0 <= value <= 1.25, f"product {value:.6f} at rho={rho}"


def test_shared_index_vector_run_beats_split_budget_scalars():
    """Criterion 4: one 40-bit vector run beats four 10-bit scalar runs by ~1/d."""
    trials = 100_000
    d = YVEC_RHO.size
    batch = threshold_trials(_yvec_model(), 40.0, substream(SEED, 100), trials)
    sq = np.sum((batch.estimates - YVEC_RHO) ** 2, axis=1)
    vec_mse, vec_se = _mse_and_se(sq)

    naive_mse = 0.0
    naive_var = 0.0
    for l, rho in enumerate(YVEC_RHO):
        scalar = threshold_trials(
            GaussianScalar(float(rho)), 10.0, substream(SEED, 101 + l), trials
        )
        m, s = _mse_and_se((scalar.estimates[:, 0] - rho) ** 2)
        naive_mse += m
        naive_var += s * s
    naive_se = math.sqrt(naive_var)

    slack = 3.0 * math.sqrt(vec_se**2 + (naive_se / d) ** 2)
    assert vec_mse <= naive_mse / d + slack, (
        f"vector sum-MSE {vec_mse:.6f} vs naive/d {naive_mse / d:.6f}"
    )
    print(
        f"PASS shared-index dominance: vector sum-MSE {vec_mse:.6f} <= "
        f"naive/{d} = {naive_mse / d:.6f} (slack {slack:.2e})"
    )


def test_vector_source_protocol_dominates_per_coordinate_scalars():
    """Criterion 5: the joint-selection scheme beats split-budget scalar runs."""
    trials = 100_000
    model = _xvec_model()
    unit = model.dim**2 * float(np.min(1.0 - XVEC_RHO**2)) / (2.0 * LN2)
    ratios = []
    for i, k in enumerate((200.0, 400.0)):
        batch = xvec_trials(model, k, substream(SEED, 110 + i), trials)
        fail_rate = float(batch.failed.mean())
        assert fail_rate < 1e-3, f"failure rate {fail_rate:.2e} at k={k}"
        est = batch.estimates[~batch.failed]
        mse, _ = _mse_and_se(np.sum((est - XVEC_RHO) ** 2, axis=1))

        naive = sum(
            exact_threshold_variance(float(r), threshold_for_budget(k / 2))
            for r in XVEC_RHO
        )
        assert mse < naive, f"sum-MSE {mse:.3e} not below naive {naive:.3e} at k={k}"
        ratios.append(mse * k / unit)
    assert ratios[0] <= 2.0 and ratios[1] <= 2.0, f"ratios {ratios}"
    assert ratios[1] < ratios[0], f"ratio not decreasing: {ratios}"
    print(
        f"PASS vector-source dominance: scaled ratios {ratios[0]:.4f} -> "
        f"{ratios[1]:.4f} (cap 2), strictly under the scalar baseline"
    )


def test_selection_matrix_second_moment_bracket_holds_empirically():
    """Criterion 6: the inverse-second-moment bracket on sampled selection matrices."""
    d, a, b = 2, 5.0, 0.5
    n = 100_000
    w, _ = stopping_matrix_batch(d, a, b, substream(SEED, 120), n)
    ww = w @ w.transpose(0, 2, 1)
    inv = np.linalg.inv(ww)

    diag_mean = np.mean(ww[:, np.arange(d), np.arange(d)], axis=1)
    alpha_hat = float(diag_mean.mean())
    se_alpha = float(diag_mean.std(ddof=1)) / math.sqrt(n)
    inv_diag_mean = np.mean(inv[:, np.arange(d), np.arange(d)], axis=1)
    beta_hat = float(inv_diag_mean.mean())
    se_beta = float(inv_diag_mean.std(ddof=1)) / math.sqrt(n)
    se_inv_alpha = se_alpha / alpha_hat**2

    lower = 1.0 / (a * a + d + 1.0)
    upper = 1.0 / (a - (d - 1) * b) ** 2
    assert lower <= 1.0 / alpha_hat + 3.0 * se_inv_alpha
    assert 1.0 / alpha_hat <= beta_hat + 3.0 * math.sqrt(se_beta**2 + se_inv_alpha**2)
    assert beta_hat <= upper + 3.0 * se_beta

    off = inv[:, 0, 1]
    off_z = abs(float(off.mean())) / (float(off.std(ddof=1)) / math.sqrt(n))
    assert off_z <= 4.0, f"off-diagonal {off_z:.2f} sigma from zero"
    print(
        f"PASS second-moment bracket: {lower:.5f} <= {1.0 / alpha_hat:.5f} <= "
        f"{beta_hat:.5f} <= {upper:.5f}, off-diagonal {off_z:.2f} sigma"
    )


def test_quantization_loss_within_additive_bound():
    """Criterion 7: paired quantized-vs-exact reconstruction loss under the bound."""
    params = StoppingSetParams(a=6.0, b=0.5, d=2, k_l=30.0, k_q=8.0)
    n = 100_000
    quantized, unquantized = xvec_paired_batch(_xvec_model(), params, substream(SEED, 130), n)
    sq_q = np.sum((quantized.estimates - XVEC_RHO) ** 2, axis=1)
    sq_u = np.sum((unquantized.estimates - XVEC_RHO) ** 2, axis=1)
    diff = sq_q - sq_u
    loss = float(diff.mean())
    se = float(diff.std(ddof=1)) / math.sqrt(n)

    bound = quantization_loss_bound(params.a, params.k_q, params.d)
    assert loss <= bound, f"loss {loss:.3e} above bound {bound:.3e}"
    assert loss >= -3.0 * se, f"paired loss {loss:.3e} significantly negative"
    print(f"PASS quantization loss: paired excess {loss:.3e} <= bound {bound:.4f}")


def test_block_averaged_binary_approaches_gaussian_limit():
    """Criterion 8 (attainable part): binary block averages against the exact lattice."""
    k = 20.0
    rho = 0.5
    inner = DoublySymmetricBinary(0.25)
    t = threshold_for_budget(k)
    s = inverse_mills(t)

    with pytest.raises(ConfigurationError, match="block size is 21"):
        clt_trials(BlockAveraged(inner, 16), k, substream(SEED, 140), 100)

    def lattice_mse(m):
        # Independent oracle: the block average lives on a binomial lattice.
        counts = np.arange(m + 1)
        xbar = (2.0 * counts - m) / math.sqrt(m)
        pmf = stats.binom.pmf(counts, m, 0.5)
        sel = xbar > t
        p = float(pmf[sel].sum())
        mean = float((xbar * pmf)[sel].sum()) / p
        second = float((xbar**2 * pmf)[sel].sum()) / p
        e1 = rho * mean / s
        e2 = (rho * rho * second + 1.0 - rho * rho) / (s * s)
        return e2 - 2.0 * rho * e1 + rho * rho

    trials = 400_000
    for i, m in enumerate((64, 256)):
        batch = clt_trials(BlockAveraged(inner, m), k, substream(SEED, 141 + i), trials)
        mse, se = _mse_and_se((batch.estimates[:, 0] - rho) ** 2)
        exact = lattice_mse(m)
        assert mse == pytest.approx(exact, abs=4.0 * se), f"m={m}: {mse:.6f} vs {exact:.6f}"

    limit = exact_threshold_variance(rho, t)
    gap_64 = abs(lattice_mse(64) - limit)
    gap_256 = abs(lattice_mse(256) - limit)
    assert gap_256 < gap_64, "coarser blocks sit closer to the Gaussian limit"
    benchmark = zhang_berger_optimal(rho, k)
    assert lattice_mse(256) <= 1.25 * benchmark

    realized = clt_trials(
        BlockAveraged(inner, 256), k, substream(SEED, 143), 10_000, mode=LedgerMode.REALIZED
    )
    mean_bits = float(realized.bits_realized.mean())
    assert 0.9 * k <= mean_bits <= 1.1 * k, f"realized bits {mean_bits:.3f}"
    print(
        f"PASS block-averaged binary: MC matches lattice MSE, limit gap "
        f"{gap_64:.2e} -> {gap_256:.2e}, MSE(256)/benchmark "
        f"{lattice_mse(256) / benchmark:.4f} <= 1.25, realized {mean_bits:.2f} bits"
    )


def test_block_averaged_binary_rows_match_their_exact_moments():
    """Criterion 8 at finite block sizes: binary rows against the lattice's exact moments."""
    k, rho = 10.0, 0.5
    text = ("scheme = clt\nmodel.kind = binary\nmodel.p = 0.25\ngrid.k = 10\n"
            f"grid.m = 16, 64, 256\ntrials = 1000000\nseed = {SEED}\n")
    t = threshold_for_budget(k)
    s = inverse_mills(t)
    worst = 0.0
    for row in run_sweep(ExperimentConfig.from_text(text), threads=2):
        m = row.m
        counts = np.arange(m + 1)
        xbar = (2.0 * counts - m) / math.sqrt(m)
        pmf = stats.binom.pmf(counts, m, 0.5)
        sel = xbar > t
        mean = float((xbar * pmf)[sel].sum()) / float(pmf[sel].sum())
        bias = rho * (mean / s - 1.0)
        var_z = (row.variance - row.theory_exact) / row.variance_se
        bias_z = (row.bias - bias) / row.bias_se
        assert abs(var_z) <= 4.0, f"m={m}: variance {var_z:.2f} sigma from theory_exact"
        assert abs(bias_z) <= 4.0, f"m={m}: bias {bias_z:.2f} sigma from {bias:.5f}"
        limit = exact_threshold_variance(rho, t)
        assert row.theory_exact != limit
        worst = max(worst, abs(var_z), abs(bias_z))
    print(f"PASS binary block rows: variance and bias within {worst:.2f} sigma of the "
          f"exact lattice moments at m = 16, 64, 256")


@pytest.mark.xfail(
    strict=True,
    reason="a 20-bit budget puts the crossing threshold beyond the reach of 16 binary "
    "summands, and the exact block MSE rises toward its Gaussian limit rather "
    "than falling, so the stated block-size sweep cannot hold",
)
def test_block_averaged_binary_mse_decreases_across_block_sizes():
    """Criterion 8 as stated: MSE falling across block sizes 16, 64, 256."""
    inner = DoublySymmetricBinary(0.25)
    mses = []
    for i, m in enumerate((16, 64, 256)):
        batch = clt_trials(BlockAveraged(inner, m), 20.0, substream(SEED, 145 + i), 400_000)
        mses.append(float(np.mean((batch.estimates[:, 0] - 0.5) ** 2)))
    assert mses[0] > mses[1] > mses[2]


def test_heavy_tail_budget_exponent_and_unquantized_floor():
    """Criterion 9: power-law source MSE decays at the predicted budget exponent."""
    model = AdditiveNoise(rho=0.6, x_law=ParetoTwoSided(4.0), z_law=StdNormal())
    trials = 1_000_000
    budgets = np.array([30.0, 60.0, 90.0])
    logs = []
    for i, k in enumerate(budgets):
        batch, _ = pareto_trials(model, float(k), substream(SEED, 150 + i), trials)
        mse = float(np.mean((batch.estimates[:, 0] - 0.6) ** 2))
        logs.append(math.log2(mse))
    slope = float(np.polyfit(budgets, logs, 1)[0])
    assert -0.45 <= slope <= -0.20, f"log2-MSE slope {slope:.4f}"

    floor = pareto_unquantized_floor(4.0, 0.6)
    batch = threshold_trials(model, 90.0, substream(SEED, 153), trials)
    mse_u = float(np.mean((batch.estimates[:, 0] - 0.6) ** 2))
    assert mse_u >= 0.5 * floor, f"unquantized MSE {mse_u:.4f} under half the floor {floor:.4f}"
    print(
        f"PASS heavy-tail budgets: log2-MSE slope {slope:.4f} in [-0.45, -0.20], "
        f"unquantized floor {mse_u:.4f} >= {0.5 * floor:.4f}"
    )


def test_laplace_tail_scaled_mse_converges_to_theory():
    """Criterion 10: k^2 MSE for the Laplace source settles onto its limit."""
    rho = 0.5
    law = UnitLaplace()
    model = AdditiveNoise(rho=rho, x_law=law, z_law=StdNormal())
    trials = 1_000_000
    ratios = []
    for i, k in enumerate((20.0, 40.0, 80.0)):
        t = float(law.tail_quantile(geometric_entropy_inv(k)))
        exact = crossing_variance(rho, law.tail_variance(t), law.tail_mean(t))
        batch = threshold_trials(model, k, substream(SEED, 160 + i), trials)
        mse, se = _mse_and_se((batch.estimates[:, 0] - rho) ** 2)
        assert mse == pytest.approx(exact, abs=4.0 * se), f"k={k}: {mse:.3e} vs {exact:.3e}"
        ratios.append(exact / laplace_theory(rho, k))
    assert ratios[-1] <= 1.30, f"k=80 ratio {ratios[-1]:.4f}"
    assert ratios[0] > ratios[1] > ratios[2] > 1.0, f"not converging: {ratios}"
    print(
        f"PASS Laplace scaling: k^2 MSE / limit = "
        f"{ratios[0]:.4f} -> {ratios[1]:.4f} -> {ratios[2]:.4f}, MC matched at 4 sigma"
    )


def test_transform_baseline_grid_search_finds_wins_and_losses():
    """Criterion 11: whitening neither dominates nor is dominated across the grid."""
    sigma = CorrelationMatrix.equicorrelated(2, 0.6)
    budgets = (20.0, 20.0)
    wins = losses = skipped = 0
    win_at = loss_at = None
    for r1 in np.linspace(-0.99, 0.99, 23):
        for r2 in np.linspace(-0.99, 0.99, 23):
            try:
                model = GaussianXVec(rho=np.array([r1, r2]), sigma_x=sigma)
                naive = linear_baseline_trace(linear_baseline_plan(model, budgets, np.eye(2)))
                white = linear_baseline_trace(
                    linear_baseline_plan(model, budgets, model.inv_sqrt_sigma_x))
            except ConfigurationError:
                skipped += 1
                continue
            if naive < white * (1.0 - 1e-9):
                wins += 1
                win_at = win_at or (round(float(r1), 2), round(float(r2), 2))
            elif white < naive * (1.0 - 1e-9):
                losses += 1
                loss_at = loss_at or (round(float(r1), 2), round(float(r2), 2))
    assert wins >= 1, "no grid point where the untransformed runs win"
    assert losses >= 1, "no grid point where whitening wins"
    print(
        f"PASS transform non-dominance: naive wins at {wins} points (e.g. {win_at}), "
        f"whitening wins at {losses} (e.g. {loss_at}), {skipped} invalid skipped"
    )


def test_realized_bit_accounting_stays_within_one_bit():
    """Criterion 12: realized codeword lengths average at most one bit over plan."""
    trials = 10_000
    pareto_model = AdditiveNoise(rho=0.6, x_law=ParetoTwoSided(4.0), z_law=StdNormal())
    laplace_model = AdditiveNoise(rho=0.6, x_law=UnitLaplace(), z_law=StdNormal())
    runs = [
        (
            "threshold",
            threshold_trials(
                GaussianScalar(0.5), 20.0, substream(SEED, 170), trials,
                mode=LedgerMode.REALIZED,
            ),
        ),
        (
            "max",
            max_trials(
                GaussianScalar(0.5), 10, substream(SEED, 171), trials,
                mode=LedgerMode.REALIZED,
            ),
        ),
        (
            "yvec",
            threshold_trials(
                _yvec_model(), 40.0, substream(SEED, 172), trials,
                mode=LedgerMode.REALIZED,
            ),
        ),
        (
            "xvec",
            xvec_trials(
                _xvec_model(), 60.0, substream(SEED, 173), trials,
                mode=LedgerMode.REALIZED,
            ),
        ),
        (
            "additive",
            threshold_trials(
                laplace_model, 16.0, substream(SEED, 174), trials,
                mode=LedgerMode.REALIZED,
            ),
        ),
        (
            "pareto",
            pareto_trials(
                pareto_model, 30.0, substream(SEED, 175), trials,
                mode=LedgerMode.REALIZED,
            )[0],
        ),
        (
            "clt-binary",
            clt_trials(
                BlockAveraged(DoublySymmetricBinary(0.25), 256), 20.0,
                substream(SEED, 176), trials, mode=LedgerMode.REALIZED,
            ),
        ),
    ]
    overages = {}
    for name, batch in runs:
        mean_bits = float(batch.bits_realized.mean())
        over = mean_bits - batch.bits_expected
        assert over <= 1.0, f"{name}: realized {mean_bits:.4f} vs expected {batch.bits_expected:.4f}"
        overages[name] = over
    worst = max(overages, key=overages.get)
    print(
        f"PASS realized accounting: all 7 schemes within +1 bit of plan "
        f"(worst {worst} at +{overages[worst]:.3f})"
    )
