"""Scalar reference formulas that the tests check the vectorized kernels against.

Each takes one smoother row ``h`` and evaluates its formula directly, with
no penalty table: the exact risk, the penalized risk that ``risk_profile``
evaluates on every grid row, and the full contrasts, which keep the sum
y^2 that the selector drops.  ``risk_profile_rows`` evaluates the risks of
``risk_profile`` from a table's columns with one dot product per grid row.
"""

from __future__ import annotations

import numpy as np

from specreg import SpectralData, SpectralModel, sigma_hat2


def _as_h(size: int, h) -> np.ndarray:
    h = np.asarray(h, dtype=float)
    if h.shape != (size,):
        raise ValueError("dimension error: h must match the retained spectrum")
    return h


def exact_risk(model: SpectralModel, h) -> float:
    """Mean squared error sum (1-h)^2 beta^2 + sigma^2 sum h^2 / lambda."""
    lam = model.spectrum.retained
    h = _as_h(lam.size, h)
    resid = 1.0 - h
    bias = float((resid * resid) @ (model.coefficients * model.coefficients))
    return bias + model.sigma ** 2 * float(np.sum(h * h / lam))


def penalized_risk(model: SpectralModel, h, pen_total: float, q_plus_val: float, gamma: float) -> float:
    """Mean penalized contrast: exact risk plus the adaptive-penalty term and
    the bias inflation from plugging in the variance estimate."""
    lam = model.spectrum.retained
    h = np.asarray(h, dtype=float)
    resid2 = (1.0 - h) ** 2
    denom = float(np.sum(resid2))
    if denom <= 0.0:
        raise ValueError("variance estimation impossible: h is identically 1")
    beta2 = model.coefficients * model.coefficients
    inflation = float(pen_total) * float((resid2 * lam) @ beta2) / denom
    return exact_risk(model, h) + (1.0 + gamma) * model.sigma ** 2 * float(q_plus_val) + inflation


def risk_profile_rows(model: SpectralModel, table) -> tuple[np.ndarray, np.ndarray]:
    """The exact and the penalized risk of every grid row of the table, one
    row at a time; the penalized risk is inf on a row with no residual
    degrees of freedom."""
    lam = model.spectrum.retained
    beta2 = model.coefficients * model.coefficients
    sigma2 = model.sigma ** 2
    risks = np.empty(table.alphas.size)
    penalized = np.empty(table.alphas.size)
    for i, resid2 in enumerate(table.resid2):
        risks[i] = float(resid2 @ beta2) + sigma2 * float(table.h_lambda_norm2[i])
        dof = float(table.one_minus_h_norm2[i])
        if dof > 0.0:
            inflation = float(table.pen_total[i]) * float((resid2 * lam) @ beta2) / dof
            adaptive = (1.0 + table.gamma) * sigma2 * float(table.q_plus[i])
            penalized[i] = risks[i] + adaptive + inflation
        else:
            penalized[i] = np.inf
    return risks, penalized


def contrast_known_sigma(data: SpectralData, h, pen: float, sigma2: float) -> float:
    """sum (1-h)^2 y^2 + sigma2 * pen."""
    if not float(sigma2) >= 0.0:
        raise ValueError("invalid input: sigma2 must be nonnegative")
    resid = 1.0 - _as_h(data.y.size, h)
    return float((resid * resid) @ (data.y * data.y)) + float(sigma2) * float(pen)


def contrast_unknown_sigma(
    data: SpectralData, h, pen: float, extra_ss: float = 0.0, extra_dof: float = 0.0
) -> float:
    """sum (1-h)^2 y^2 + sigma_hat2 * pen."""
    return contrast_known_sigma(data, h, pen, sigma_hat2(data, h, extra_ss, extra_dof))
