"""Scalar reference formulas that the tests check the vectorized kernels against.

Each takes one smoother row ``h`` and evaluates its formula directly, with
no penalty table: the penalties ``pen_u`` and ``pen_cv`` of one grid row,
the exact risk, the penalized risk that ``risk_profile`` evaluates on every
grid row, the variance estimate and the full contrasts of the selector,
which keep the sum y^2 that it drops.  ``cramer_term`` is the transform of
the calibration equation written out, with its domain check, apart from the
kernel that the mu solve runs.
``risk_profile_rows`` evaluates the risks of ``risk_profile`` from a
table's columns with one dot product per grid row.
``penalty_columns`` evaluates the penalty table's formulas on the whole
M x p matrices at once, as the table build did before it worked in row
blocks, and ``first_violation`` is the ordering check on the whole M x p
matrix of h rows, as :func:`check_ordered` made it before it worked in row
blocks.
"""

from __future__ import annotations

import numpy as np

from specreg import SpectralData, SpectralModel, Spectrum, h_values
from specreg.penalty import _solve_mu_rows
from specreg.smoothers import _row_slices


def _as_h(size: int, h) -> np.ndarray:
    h = np.asarray(h, dtype=float)
    if h.shape != (size,):
        raise ValueError("dimension error: h must match the retained spectrum")
    return h


def _check_h(h, size: int) -> np.ndarray:
    h = _as_h(size, h)
    if np.any(h < 0.0) or np.any(h > 1.0):
        raise ValueError("invalid input: h values must lie in [0, 1]")
    return h


def pen_u(h, spectrum: Spectrum) -> float:
    """Unbiased-risk penalty 2 * sum h(k) / lambda(k)."""
    lam = spectrum.retained
    h = _check_h(h, lam.size)
    return 2.0 * float(np.sum(h / lam))


def pen_cv(h) -> float:
    """Cross-validation penalty 2 * sum h(k)."""
    h = np.asarray(h, dtype=float)
    return 2.0 * float(np.sum(h))


def cramer_term(x):
    """Increasing convex transform log1p(-2x)/2 + x/(1-2x) of the
    calibration equation, for 0 <= x < 1/2; accepts scalars or arrays and
    vanishes at 0."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0) or np.any(x >= 0.5):
        raise ValueError("domain error: cramer_term requires 0 <= x < 1/2")
    out = 0.5 * np.log1p(-2.0 * x) + x / (1.0 - 2.0 * x)
    return out if out.ndim else float(out)


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
    for i, h in enumerate(table.h(slice(None))):
        resid2 = (1.0 - h) ** 2
        risks[i] = float(resid2 @ beta2) + sigma2 * float(table.h_lambda_norm2[i])
        dof = float(table.one_minus_h_norm2[i])
        if dof > 0.0:
            inflation = float(table.pen_total[i]) * float((resid2 * lam) @ beta2) / dof
            adaptive = (1.0 + table.gamma) * sigma2 * float(table.q_plus[i])
            penalized[i] = risks[i] + adaptive + inflation
        else:
            penalized[i] = np.inf
    return risks, penalized


def sigma_hat2(data: SpectralData, h, extra_ss: float = 0.0, extra_dof: float = 0.0) -> float:
    """Residual-based variance estimate in spectral coordinates,
    sum lambda (1-h)^2 y^2 / sum (1-h)^2.  The part of Y orthogonal to the
    column span of X enters through ``extra_ss`` (its squared norm) and
    ``extra_dof`` (n - p), which adds pure-noise degrees of freedom."""
    h = _as_h(data.y.size, h)
    resid2 = (1.0 - h) ** 2
    denom = float(np.sum(resid2)) + float(extra_dof)
    if not denom > 0.0:
        raise ValueError("variance estimation impossible: no residual degrees of freedom")
    num = float((data.spectrum.retained * resid2) @ (data.y * data.y)) + float(extra_ss)
    return num / denom


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


def penalty_columns(family, grid, spectrum, gamma: float) -> dict[str, np.ndarray]:
    """The columns, mu, q_plus and ``tie_end`` of ``build_penalty_table`` and
    the row kernels ``noise_weights`` and ``resid2`` of its ``_kernels``,
    each formula evaluated on the whole M x p matrices, which the row-blocked
    build must match bit for bit, plus the whole M x p matrix ``h`` whose
    rows the table's accessor forms.  Only mu and q_plus are formed one row
    block at a time, as the build does, since each block's row sums stop at
    its last nonzero column and each block starts from the scale its
    neighbour hands on."""
    lam = spectrum.retained
    h = h_values(family, grid.values, spectrum)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        t = h * (2.0 - h) / lam
        peak = np.max(t, axis=1, initial=0.0)
        scaled = t / np.where(peak > 0.0, peak, 1.0)[:, None]
        norm2 = np.einsum("ij,ij->i", scaled, scaled)
        d = peak * np.sqrt(2.0 * norm2)
        rho = scaled / np.sqrt(np.where(norm2 > 0.0, norm2, 1.0))[:, None]
        log_ratio = np.maximum(np.log(d) - np.log(d[-1]), 0.0)
        mu, q = np.empty(d.size), np.empty(d.size)
        scale = 1.0  # handed from block to block as the build does
        for block in _row_slices(*rho.shape):  # the blocks the build hands the solve
            mu[block], _, scale = _solve_mu_rows(rho[block], log_ratio[block], scale)
            used = np.flatnonzero(np.any(rho[block] != 0.0, axis=0))
            rows = rho[block, :used[-1] + 1 if used.size else 0]
            x = mu[block, None] * rows
            q[block] = 2.0 * d[block] * np.einsum("ij,ij->i", rows, x / (1.0 - 2.0 * x))
        q = np.where(mu == 0.0, 0.0, q)
        h_over_lam = h / lam
        pen_u = 2.0 * np.sum(h_over_lam, axis=1)
        resid2 = (1.0 - h) ** 2
        tie_end = np.arange(d.size)
        for i in np.flatnonzero(d[1:] == d[:-1])[::-1]:
            if np.array_equal(h[i], h[i + 1]):
                tie_end[i] = tie_end[i + 1]
        return {
            "pen_u": pen_u,
            "pen_cv": 2.0 * np.sum(h, axis=1),
            "d": d,
            "mu": mu,
            "q_plus": q,
            "pen_total": pen_u + (1.0 + gamma) * q,
            "h_lambda_norm2": np.sum(h * h / lam, axis=1),
            "one_minus_h_norm2": np.sum(resid2, axis=1),
            "max_h_over_lambda": np.max(h_over_lam, axis=1),
            "h": h,
            "noise_weights": t,
            "resid2": resid2,
            "tie_end": tie_end,
        }


def first_violation(rows: np.ndarray, alphas: np.ndarray):
    """The first ordering violation among the h rows of the grid points
    ``alphas`` as (alpha_low, alpha_high, k, kind), or None: a row not
    monotone in lambda anywhere, else the first pair of consecutive rows
    where the later one exceeds the earlier one."""
    alphas = alphas.tolist()
    rising = np.argwhere(np.diff(rows, axis=1) > 1e-12)
    if rising.size:
        i, k = rising[0]
        return alphas[i], alphas[i], int(k) + 1, "not monotone in lambda"
    diff = rows[1:] - rows[:-1]
    above = np.argwhere(diff > 1e-12)
    if above.size:
        i, k = above[0]
        kind = "crossing" if np.any(diff[i] < -1e-12) else "grid direction"
        return alphas[i], alphas[i + 1], int(k) + 1, kind
    return None
