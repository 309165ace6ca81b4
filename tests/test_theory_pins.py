"""Every fixed-normaliser cell's ``theory_exact``, pinned to ten significant digits.

Each reference below is a verbatim copy of the per-scheme expression the
cell's exact variance used to come from. The cells are built through the
config path, exactly as ``corrlink run`` and ``corrlink theory`` build them,
and each ``theory_exact`` must print as its reference does in the CSV
(``%.10g``) over a grid of budgets and correlations.
"""

import numpy as np
import pytest

from corrlink.errors import ConfigurationError
from corrlink.harness import ExperimentConfig
from corrlink.estimators import _transform_channels
from corrlink.linalg import sym_inv_sqrt
from corrlink.sources import ParetoTwoSided, StdNormal, UnitLaplace
from corrlink.statmath import geometric_entropy_inv, inverse_mills, max_normal_moments, qfunc_inv

RHOS = (-0.99, -0.9, -0.7, -0.5, -0.3, -0.1, 0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99)
BUDGETS = (0.5, 1, 2, 4, 10, 20, 40, 100, 400, 900)
MAX_BUDGETS = tuple(k for k in BUDGETS if float(k).is_integer())


def _threshold_ref(rho, t):
    s = inverse_mills(t)
    return (1.0 - rho * rho * (s - t) * s) / (s * s)


def _max_ref(rho, k):
    mm = max_normal_moments(2.0 ** int(k))
    return (rho * rho * mm.variance + 1.0 - rho * rho) / (mm.mean * mm.mean)


def _yvec_ref(rho, t):
    total = 0.0
    for r in rho:
        total += _threshold_ref(r, t)
    return float(total)


def _additive_ref(x_law, rho, t):
    mean = float(x_law.tail_mean(t))
    var = float(x_law.tail_variance(t))
    return (rho * rho * var + 1.0 - rho * rho) / (mean * mean)


def _linear_ref(sigma_x, rho, budgets, m_transform):
    alphas, inv_mt = _transform_channels(m_transform, sigma_x, rho)
    trace = 0.0
    for i, k in enumerate(budgets):
        t = qfunc_inv(geometric_entropy_inv(float(k)))
        trace += _threshold_ref(float(alphas[i]), t) * float(inv_mt[:, i] @ inv_mt[:, i])
    return trace


def _t(k):
    return qfunc_inv(geometric_entropy_inv(float(k)))


def _cells(text):
    config = ExperimentConfig.from_text(text + "trials = 100\nseed = 0\n")
    return [(point, report.theory_exact)
            for point, report in zip(config.points(), config.reports(), strict=True)]


def _grid(values):
    return ", ".join(repr(float(v)) for v in values)


def _assert_digits(got, want, where):
    assert f"{got:.10g}" == f"{want:.10g}", f"{where}: {got!r} against {want!r}"


SCALAR_GRID = f"grid.k = {_grid(BUDGETS)}\ngrid.rho = {_grid(RHOS)}\n"


def test_threshold_cells_keep_their_digits():
    for point, exact in _cells("scheme = threshold\n" + SCALAR_GRID):
        _assert_digits(exact, _threshold_ref(point["rho"], _t(point["k"])), point)


def test_gaussian_clt_cells_keep_their_digits():
    for point, exact in _cells("scheme = clt\ngrid.m = 1, 4\n" + SCALAR_GRID):
        _assert_digits(exact, _threshold_ref(point["rho"], _t(point["k"])), point)


def test_max_cells_keep_their_digits():
    text = f"scheme = max\ngrid.k = {_grid(MAX_BUDGETS)}\ngrid.rho = {_grid(RHOS)}\n"
    for point, exact in _cells(text):
        _assert_digits(exact, _max_ref(point["rho"], point["k"]), point)


@pytest.mark.parametrize("rho", RHOS)
def test_yvec_cells_keep_their_digits(rho):
    vec = (rho, 0.5, -0.3)
    text = f"scheme = yvec\nmodel.rho = {_grid(vec)}\ngrid.k = {_grid(BUDGETS)}\n"
    for point, exact in _cells(text):
        _assert_digits(exact, _yvec_ref(vec, _t(point["k"])), (vec, point))


@pytest.mark.parametrize("law,key", [
    (UnitLaplace(), "model.x_law = laplace\n"),
    (ParetoTwoSided(2.5), "model.x_law = pareto\nmodel.alpha = 2.5\n"),
    (ParetoTwoSided(4.0), "model.x_law = pareto\nmodel.alpha = 4\n"),
])
def test_additive_cells_keep_their_digits(law, key):
    for point, exact in _cells("scheme = additive\n" + key + SCALAR_GRID):
        t = float(law.tail_quantile(geometric_entropy_inv(point["k"])))
        _assert_digits(exact, _additive_ref(law, point["rho"], t), point)


def test_gaussian_additive_cells_keep_their_digits():
    law = StdNormal()
    for point, exact in _cells("scheme = additive\nmodel.x_law = gaussian\n" + SCALAR_GRID):
        _assert_digits(exact, _additive_ref(law, point["rho"], _t(point["k"])), point)


def test_gaussian_additive_cells_equal_threshold_cells():
    # The same estimator on the same law: one formula gives the same bits.
    additive = _cells("scheme = additive\nmodel.x_law = gaussian\n" + SCALAR_GRID)
    threshold = _cells("scheme = threshold\n" + SCALAR_GRID)
    assert additive == threshold


@pytest.mark.parametrize("offdiag,transform", [
    (0.0, "identity"), (0.0, "whiten"), (0.3, "identity"), (0.3, "whiten"),
])
@pytest.mark.parametrize("rho", RHOS)
def test_linear_cells_keep_their_digits(rho, offdiag, transform):
    vec = (0.7 * rho, 0.2)
    text = (f"scheme = linear\nmodel.rho = {_grid(vec)}\nmodel.sigma_offdiag = {offdiag!r}\n"
            f"model.transform = {transform}\ngrid.k = {_grid(BUDGETS)}\n")
    sigma_x = np.array([[1.0, offdiag], [offdiag, 1.0]])
    m_transform = sym_inv_sqrt(sigma_x) if transform == "whiten" else np.eye(2)
    for point, exact in _cells(text):
        k = point["k"]
        want = _linear_ref(sigma_x, np.array(vec), (k / 2.0, k / 2.0), m_transform)
        _assert_digits(exact, want, (vec, point))


@pytest.mark.parametrize("text", [
    "scheme = yvec\nmodel.rho = 1.0, 0.5\ngrid.k = 10\n",
    "scheme = yvec\nmodel.rho = 0.2, -1.0\ngrid.k = 10\n",
    "scheme = linear\nmodel.rho = 1.0, 0.0\ngrid.k = 20\n",
    "scheme = linear\nmodel.rho = 0.0, -1.0\ngrid.k = 20\n",
    "scheme = max\ngrid.rho = 1.0\ngrid.k = 8\n",
    "scheme = max\ngrid.rho = -1.0\ngrid.k = 8\n",
    "scheme = additive\ngrid.rho = 1.0\ngrid.k = 10\n",
    "scheme = additive\nmodel.x_law = pareto\ngrid.rho = -1.0\ngrid.k = 10\n",
])
def test_unit_correlation_is_refused(text):
    with pytest.raises(ConfigurationError, match="strictly inside"):
        ExperimentConfig.from_text(text + "trials = 100\nseed = 0\n")
