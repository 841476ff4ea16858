"""Data-driven choice of the smoothing parameter on a finite grid.

With known noise level the contrast is the residual spectral energy plus
sigma^2 times the penalty; with unknown noise level the per-alpha variance
estimate sigma_hat2 is plugged in instead.  The selected alpha minimizes the
contrast over the grid, ties broken toward the smoothest model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SpectralData
from .penalty import PenaltyTable
from .smoothers import AlphaGrid

__all__ = [
    "contrast_known_sigma",
    "sigma_hat2",
    "contrast_unknown_sigma",
    "SelectionResult",
    "select_alpha",
]

_PENALTY_COLUMNS = {"total": "pen_total", "unbiased": "pen_u"}


def _residual_energy(data: SpectralData, h: np.ndarray) -> float:
    resid = 1.0 - h
    return float((resid * resid) @ (data.y * data.y))


def _as_h(data: SpectralData, h) -> np.ndarray:
    h = np.asarray(h, dtype=float)
    if h.shape != data.y.shape:
        raise ValueError("dimension error: h must match the retained spectrum")
    return h


def contrast_known_sigma(data: SpectralData, h, pen: float, sigma2: float) -> float:
    """sum (1-h)^2 y^2 + sigma2 * pen."""
    if not float(sigma2) >= 0.0:
        raise ValueError("invalid input: sigma2 must be nonnegative")
    return _residual_energy(data, _as_h(data, h)) + float(sigma2) * float(pen)


def sigma_hat2(data: SpectralData, h, extra_ss: float = 0.0, extra_dof: float = 0.0) -> float:
    """Residual-based variance estimate in spectral coordinates.

    Returns sum lambda (1-h)^2 y^2 / sum (1-h)^2.  By default only the
    retained spectral components enter; when raw observations are available
    the part of Y orthogonal to the column span of X can be folded in
    through ``extra_ss`` (its squared norm) and ``extra_dof`` (n - p), which
    adds pure-noise degrees of freedom.
    """
    h = _as_h(data, h)
    lam = data.spectrum.retained
    resid2 = (1.0 - h) ** 2
    denom = float(np.sum(resid2)) + float(extra_dof)
    if not denom > 0.0:
        raise ValueError("variance estimation impossible: no residual degrees of freedom")
    num = float((lam * resid2) @ (data.y * data.y)) + float(extra_ss)
    return num / denom


def contrast_unknown_sigma(
    data: SpectralData, h, pen: float, extra_ss: float = 0.0, extra_dof: float = 0.0
) -> float:
    """sum (1-h)^2 y^2 + sigma_hat2 * pen."""
    h = _as_h(data, h)
    return _residual_energy(data, h) + sigma_hat2(data, h, extra_ss, extra_dof) * float(pen)


@dataclass(frozen=True)
class SelectionResult:
    """Chosen grid point, its variance estimate, and the filtered estimate."""

    alpha_hat: float
    alpha_hat_index: int
    sigma_hat2: float | None
    contrasts: np.ndarray
    estimate: np.ndarray


def select_alpha(
    data: SpectralData,
    grid: AlphaGrid,
    table: PenaltyTable,
    mode: str,
    sigma2: float | None = None,
    penalty: str = "total",
    extra_ss: float = 0.0,
    extra_dof: float = 0.0,
) -> SelectionResult:
    """Minimize the penalized contrast over the grid.

    mode "known" uses the supplied ``sigma2``; mode "unknown" plugs in the
    per-alpha variance estimate, which requires every grid row to keep some
    residual degrees of freedom.  ``penalty`` picks the table column:
    "total" (default) or "unbiased".  Ties are broken toward the largest
    alpha, i.e. the smoothest of the tied models.  Raises ArithmeticError
    when a contrast is not finite.
    """
    if len(grid) == 0 or table.alphas.size == 0:
        raise ValueError("empty grid")
    if not np.array_equal(grid.values, table.alphas):
        raise ValueError("dimension error: grid and penalty table are misaligned")
    h_rows = table.h_rows
    if h_rows.shape[1] != data.y.size:
        raise ValueError("dimension error: table and data spectra differ")
    try:
        pens = getattr(table, _PENALTY_COLUMNS[penalty])
    except KeyError:
        raise ValueError(f"invalid input: unknown penalty choice {penalty!r}") from None

    y2 = data.y * data.y
    base = table.resid2 @ y2
    s2 = None
    if mode == "known":
        if sigma2 is None or not float(sigma2) >= 0.0:
            raise ValueError("invalid input: known-sigma mode requires sigma2 >= 0")
        contrasts = base + float(sigma2) * pens
    elif mode == "unknown":
        denom = table.resid_dof + float(extra_dof)
        if np.any(denom <= 0.0):
            raise ValueError(
                "variance estimation impossible: a grid row has no residual degrees of freedom"
            )
        s2 = (table.resid2 @ (data.spectrum.retained * y2) + float(extra_ss)) / denom
        contrasts = base + s2 * pens
    else:
        raise ValueError("invalid input: mode must be 'known' or 'unknown'")
    if not np.all(np.isfinite(contrasts)):
        raise ArithmeticError("non-finite contrast (observations too large for floating point?)")

    index = contrasts.size - 1 - int(np.argmin(contrasts[::-1]))
    return SelectionResult(
        alpha_hat=float(grid.values[index]),
        alpha_hat_index=index,
        sigma_hat2=float(s2[index]) if s2 is not None else None,
        contrasts=contrasts,
        estimate=h_rows[index] * data.y,
    )
