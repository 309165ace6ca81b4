"""Distributed correlation estimation under a communication budget.

Two simulated parties share correlated Gaussian (or heavier-tailed) samples;
one sends a few carefully chosen bits, the other turns them into unbiased
correlation estimates. The package provides the protocols themselves with
bit-exact accounting, the closed-form variance and information theory for
each, and a reproducible Monte Carlo harness that checks one against the
other.
"""

from .analysis import (
    TheoryReport,
    additive_exact_variance,
    crlb_xvec,
    crlb_yvec,
    exact_max_variance,
    exact_threshold_variance,
    fisher_max,
    fisher_scalar_given_x,
    fisher_threshold,
    fisher_xvec,
    fisher_yvec,
    laplace_theory,
    linear_baseline_trace,
    pareto_theory,
    pareto_unquantized_floor,
    quantization_loss_bound,
    stopping_moment_bracket,
    stopping_second_moment,
    threshold_for_budget,
    unquantized_xvec_trace_bound,
    xvec_mse_bound,
    yvec_sum_mse,
    zhang_berger_optimal,
    zhang_berger_variance,
)
from .errors import (
    ConfigurationError,
    CorrlinkError,
    DomainError,
    SingularMatrixError,
    TrialFailureError,
)
from .estimators import (
    TrialBatch,
    additive_trials,
    clt_trials,
    linear_baseline_trials,
    max_trials,
    pareto_allocation,
    pareto_trials,
    require_crossable_block,
    stopping_matrix_batch,
    threshold_trials,
    xvec_paired_batch,
    xvec_trials,
    xvec_unquantized_trials,
    yvec_trials,
)
from .harness import (
    COLUMNS,
    ExperimentConfig,
    SweepRow,
    emit_csv,
    format_csv,
    parse_config,
    run_sweep,
)
from .linalg import CorrelationMatrix, invert, singular_value_lower_bound, sym_inv_sqrt, sym_sqrt
from .protocol import (
    LedgerMode,
    StoppingSetParams,
    allocate_bits_pareto,
    allocate_bits_xvec,
    golomb_decode,
    golomb_encode,
    golomb_length,
    golomb_parameter,
    quantize_W_matrix,
    quantize_pareto_value,
    stopping_params_from_body_budget,
)
from .sources import (
    AdditiveNoise,
    BlockAveraged,
    DoublySymmetricBinary,
    GaussianScalar,
    GaussianXVec,
    GaussianYVec,
    ParetoTwoSided,
    Rademacher,
    StdNormal,
    UnitLaplace,
    UnitUniform,
    substream,
)
from .statmath import (
    MaxMoments,
    ThresholdMoments,
    geometric_entropy,
    geometric_entropy_inv,
    inverse_mills,
    max_normal_moments,
    phi,
    qfunc,
    qfunc_inv,
    truncated_normal_moments,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "CorrlinkError", "DomainError", "ConfigurationError", "SingularMatrixError",
    "TrialFailureError",
    # statmath
    "phi", "qfunc", "qfunc_inv", "inverse_mills", "truncated_normal_moments",
    "ThresholdMoments", "geometric_entropy", "geometric_entropy_inv",
    "max_normal_moments", "MaxMoments",
    # linalg
    "CorrelationMatrix", "sym_sqrt", "sym_inv_sqrt", "invert",
    "singular_value_lower_bound",
    # sources
    "StdNormal", "UnitLaplace", "ParetoTwoSided", "UnitUniform", "Rademacher",
    "GaussianScalar", "GaussianYVec", "GaussianXVec", "AdditiveNoise",
    "DoublySymmetricBinary", "BlockAveraged", "substream",
    # protocol
    "LedgerMode", "StoppingSetParams", "golomb_parameter", "golomb_length",
    "golomb_encode", "golomb_decode", "quantize_W_matrix", "quantize_pareto_value",
    "allocate_bits_xvec", "allocate_bits_pareto", "stopping_params_from_body_budget",
    # estimators
    "TrialBatch", "max_trials", "threshold_trials", "yvec_trials",
    "xvec_trials", "xvec_unquantized_trials", "xvec_paired_batch", "clt_trials",
    "pareto_trials", "additive_trials", "linear_baseline_trials",
    "stopping_matrix_batch", "require_crossable_block", "pareto_allocation",
    # analysis
    "TheoryReport", "zhang_berger_variance", "zhang_berger_optimal",
    "fisher_scalar_given_x", "fisher_threshold", "fisher_max",
    "exact_threshold_variance", "exact_max_variance", "threshold_for_budget",
    "fisher_yvec", "crlb_yvec", "yvec_sum_mse", "fisher_xvec", "crlb_xvec",
    "stopping_second_moment", "stopping_moment_bracket",
    "quantization_loss_bound", "xvec_mse_bound", "unquantized_xvec_trace_bound",
    "additive_exact_variance", "laplace_theory", "pareto_theory",
    "pareto_unquantized_floor", "linear_baseline_trace",
    # harness
    "ExperimentConfig", "SweepRow", "COLUMNS",
    "parse_config", "run_sweep", "emit_csv", "format_csv",
]
