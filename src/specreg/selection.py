"""Data-driven choice of the smoothing parameter on a finite grid.

The contrast of grid row i is the residual spectral energy sum (1-h)^2 y^2
plus a variance times the penalty: sigma^2 when the noise level is known,
the per-alpha estimate sigma_hat2 when it is not.  The selected alpha
minimizes the contrast over the grid, ties broken toward the smoothest
model.

The selector never forms the residual energy itself.  It drops the sum
y^2 that every row shares: as 1 - (1-h)^2 = lambda t with the noise
weights t = (2h - h^2) / lambda, the rest of the contrast is
-t @ (lambda y^2) + s2 * pen.  On exponentially ill-posed spectra sum y^2
reaches sigma^2 / lambda_min, which would round away the differences
between the rows that keep the small eigenvalues out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SpectralData
from .penalty import PenaltyTable
from .smoothers import _residual_factors

__all__ = ["sigma_hat2", "SelectionResult", "select_alpha"]

_PENALTY_COLUMNS = {"total": "pen_total", "unbiased": "pen_u"}


def sigma_hat2(data: SpectralData, h, extra_ss: float = 0.0, extra_dof: float = 0.0) -> float:
    """Residual-based variance estimate in spectral coordinates.

    Returns sum lambda (1-h)^2 y^2 / sum (1-h)^2.  By default only the
    retained spectral components enter; when raw observations are available
    the part of Y orthogonal to the column span of X can be folded in
    through ``extra_ss`` (its squared norm) and ``extra_dof`` (n - p), which
    adds pure-noise degrees of freedom.
    """
    h = np.asarray(h, dtype=float)
    if h.shape != data.y.shape:
        raise ValueError("dimension error: h must match the retained spectrum")
    lam = data.spectrum.retained
    resid2, dof = _residual_factors(h)
    denom = float(dof) + float(extra_dof)
    if not denom > 0.0:
        raise ValueError("variance estimation impossible: no residual degrees of freedom")
    num = float((lam * resid2) @ (data.y * data.y)) + float(extra_ss)
    return num / denom


def _select_rows(table: PenaltyTable, y: np.ndarray, mode: str, sigma2: float | None = None,
                 penalty: str = "total", extra_ss: float = 0.0, extra_dof: float = 0.0):
    """The selection kernel, on one observation y of shape (p,) or on a block
    of them, one per row of y.

    Returns the contrasts relative to the smoothest grid row (so the last
    is 0), the picked grid rows and the variance estimates of every grid row,
    which known mode also computes (not finite on rows without residual
    degrees of freedom); a block gives one row of each per observation.  A
    pick goes to the largest index among equal contrasts, then to the last
    row of its run of bit-identical h rows.
    """
    try:
        pens = getattr(table, _PENALTY_COLUMNS[penalty])
    except KeyError:
        raise ValueError(f"invalid input: unknown penalty choice {penalty!r}") from None
    if mode == "known":
        if sigma2 is None or not float(sigma2) >= 0.0:
            raise ValueError("invalid input: known-sigma mode requires sigma2 >= 0")
    elif mode != "unknown":
        raise ValueError("invalid input: mode must be 'known' or 'unknown'")
    denom = table.one_minus_h_norm2 + float(extra_dof)
    if mode == "unknown" and np.any(denom <= 0.0):
        raise ValueError("variance estimation impossible: a grid row has no residual degrees of freedom")

    # The products run table @ y.T, one observation per column: for a block
    # BLAS then packs the large table into its smaller panel, which halves
    # the packing buffer it keeps resident (1.1 -> 0.5 MB at 900 x 1000).
    # Overflow and NaN are caught by the finiteness check on the contrasts.
    y, col = y.T, (slice(None),) + (None,) * (y.ndim - 1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        lam_y2 = table.spectrum.retained[col] * (y * y)
        noise, resid = table._kernel_products(lam_y2)
        s2 = (resid + float(extra_ss)) / denom[col]
        weight = s2 if mode == "unknown" else float(sigma2)
        contrasts = weight * pens[col] - noise
        contrasts -= contrasts[-1]
    if not np.all(np.isfinite(contrasts)):
        raise ArithmeticError("non-finite contrast (observations too large for floating point?)")
    index = table.tie_end[contrasts.shape[0] - 1 - np.argmin(contrasts[::-1], axis=0)]
    return contrasts.T, index, s2.T


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
    table: PenaltyTable,
    mode: str,
    sigma2: float | None = None,
    penalty: str = "total",
    extra_ss: float = 0.0,
    extra_dof: float = 0.0,
) -> SelectionResult:
    """Minimize the penalized contrast over the grid of the table, which must
    be built on the retained eigenvalues of the data.

    mode "known" uses the supplied ``sigma2``; mode "unknown" plugs in the
    per-alpha variance estimate, which requires every grid row to keep some
    residual degrees of freedom.  ``penalty`` picks the table column:
    "total" (default) or "unbiased".  The result's contrasts are relative to
    the smoothest grid point.  Ties are broken toward the largest alpha,
    i.e. the smoothest of the tied models, and grid rows with bit-identical
    h count as one model, reported at the largest alpha of their run.
    Raises ArithmeticError when a contrast is not finite.
    """
    if not np.array_equal(table.spectrum.retained, data.spectrum.retained):
        raise ValueError("dimension error: table and data spectra differ")
    contrasts, index, s2 = _select_rows(
        table, data.y, mode, sigma2, penalty, extra_ss, extra_dof)
    index = int(index)
    return SelectionResult(
        alpha_hat=float(table.alphas[index]),
        alpha_hat_index=index,
        sigma_hat2=float(s2[index]) if mode == "unknown" else None,
        contrasts=contrasts,
        estimate=table.h(index) * data.y,
    )
