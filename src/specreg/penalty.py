"""Penalty calibration for data-driven smoothing parameter selection.

The total penalty on the grid is pen_u + (1 + gamma) * q_plus.  pen_u is the
classical unbiased-risk term 2 * sum h/lambda.  q_plus is an adaptive term
sized so that the supremum over all grid points of the quadratic-noise
excess stays comparable to its value at the smoothest point; it is defined
through the root mu of a Cramer-type calibration equation

    sum_k cramer_term(mu * rho(k)) = log(d / d_ref),

solved by safeguarded bisection on a bracket where the left side provably
changes sign.  All norms are evaluated with max scaling so severely
ill-posed spectra (eigenvalues down to ~1e-300) do not overflow the squared
intermediates.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import Spectrum
from .smoothers import AlphaGrid, SmootherFamily, check_ordered, h_values

__all__ = [
    "pen_u",
    "pen_cv",
    "noise_scale",
    "cramer_term",
    "solve_mu",
    "q_plus",
    "total_penalty",
    "PenaltyTable",
    "build_penalty_table",
    "variance_span",
    "ConditionsReport",
    "check_conditions",
    "PenaltyInequalityReport",
    "verify_penalty_inequalities",
]

_MU_BRACKET_MARGIN = 1e-12
_MU_BISECTION_STEPS = 60
_MU_RESIDUAL_TOL = 1e-10


def _check_h(h, size: int) -> np.ndarray:
    h = np.asarray(h, dtype=float)
    if h.shape != (size,):
        raise ValueError("dimension error: h must match the retained spectrum")
    if np.any(h < 0.0) or np.any(h > 1.0):
        raise ValueError("invalid input: h values must lie in [0, 1]")
    return h


def _check_gamma(gamma: float) -> float:
    gamma = float(gamma)
    if not 0.0 < gamma < 0.25:
        raise ValueError("invalid input: gamma must lie in (0, 1/4)")
    return gamma


def pen_u(h, spectrum: Spectrum) -> float:
    """Unbiased-risk penalty 2 * sum h(k) / lambda(k)."""
    lam = spectrum.retained
    h = _check_h(h, lam.size)
    return 2.0 * float(np.sum(h / lam))


def pen_cv(h) -> float:
    """Cross-validation penalty 2 * sum h(k)."""
    h = np.asarray(h, dtype=float)
    return 2.0 * float(np.sum(h))


def noise_scale(h, spectrum: Spectrum) -> float:
    """Standard deviation sqrt(2 * sum lambda^-2 * (2h - h^2)^2) of the
    quadratic noise functional, the natural unit of all penalty bounds."""
    lam = spectrum.retained
    h = _check_h(h, lam.size)
    t = h * (2.0 - h) / lam
    peak = float(np.max(t)) if t.size else 0.0
    if peak == 0.0:
        return 0.0
    scaled = t / peak
    return peak * float(np.sqrt(2.0 * (scaled @ scaled)))


def cramer_term(x):
    """Increasing convex transform used in the penalty calibration equation.

    Defined for 0 <= x < 1/2 as log1p(-2x)/2 + x + 2x^2/(1-2x); accepts
    scalars or arrays and vanishes at 0.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0) or np.any(x >= 0.5):
        raise ValueError("domain error: cramer_term requires 0 <= x < 1/2")
    out = 0.5 * np.log1p(-2.0 * x) + x + 2.0 * x * x / (1.0 - 2.0 * x)
    return out if out.ndim else float(out)


def _rho_from(t: np.ndarray, d: float) -> np.ndarray:
    return np.sqrt(2.0) * t / d


def _rho(h, spectrum: Spectrum) -> np.ndarray:
    lam = spectrum.retained
    h = _check_h(h, lam.size)
    d = noise_scale(h, spectrum)
    if d == 0.0:
        raise ValueError("degenerate smoother: h is identically zero")
    return _rho_from(h * (2.0 - h) / lam, d)


def _cramer_rowsum(rho: np.ndarray, mu: np.ndarray) -> np.ndarray:
    x = mu[:, None] * rho
    return np.sum(0.5 * np.log1p(-2.0 * x) + x + 2.0 * x * x / (1.0 - 2.0 * x), axis=1)


def _solve_mu_rows(rho: np.ndarray, log_ratio: np.ndarray) -> np.ndarray:
    """Vectorized bisection for sum_k cramer_term(mu * rho(k)) = log_ratio,
    one root per row of rho.  Rows with log_ratio == 0 return mu = 0."""
    rho = np.atleast_2d(rho)
    log_ratio = np.asarray(log_ratio, dtype=float)
    hi = (1.0 - _MU_BRACKET_MARGIN) / (2.0 * np.max(rho, axis=1))
    lo = np.zeros_like(hi)
    for _ in range(_MU_BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        below = _cramer_rowsum(rho, mid) < log_ratio
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    mu = np.where(log_ratio > 0.0, 0.5 * (lo + hi), 0.0)
    resid = np.abs(_cramer_rowsum(rho, mu) - np.maximum(log_ratio, 0.0))
    if np.any(resid > _MU_RESIDUAL_TOL * np.maximum(1.0, log_ratio)):
        raise ArithmeticError("mu bisection did not reach the residual tolerance")
    return mu


def solve_mu(h, spectrum: Spectrum, log_ratio: float) -> float:
    """Root mu >= 0 of sum_k cramer_term(mu * rho(k)) = log_ratio.

    log_ratio is log(d / d_ref) and must be nonnegative; small negative
    values (floating point noise when the two scales coincide) are clamped
    to zero with a warning.
    """
    rho = _rho(h, spectrum)
    log_ratio = float(log_ratio)
    if log_ratio < 0.0:
        warnings.warn("negative log ratio clamped to zero", RuntimeWarning, stacklevel=2)
        log_ratio = 0.0
    if log_ratio == 0.0:
        return 0.0
    return float(_solve_mu_rows(rho[None, :], np.array([log_ratio]))[0])


def q_plus(h, spectrum: Spectrum, d_ref: float) -> float:
    """Adaptive penalty term 2 * d * mu * sum rho^2 / (1 - 2*mu*rho).

    Exactly zero when the noise scale of h equals the reference d_ref (the
    smoothest grid point); every denominator stays positive because the mu
    bracket ends strictly before 1 / (2 * max rho).
    """
    if not float(d_ref) > 0.0:
        raise ValueError("invalid input: d_ref must be positive")
    d = noise_scale(h, spectrum)
    if d == 0.0:
        raise ValueError("degenerate smoother: h is identically zero")
    mu = solve_mu(h, spectrum, float(np.log(d) - np.log(d_ref)))
    if mu == 0.0:
        return 0.0
    rho = _rho(h, spectrum)
    return 2.0 * d * mu * float(np.sum(rho * rho / (1.0 - 2.0 * mu * rho)))


def total_penalty(h, spectrum: Spectrum, gamma: float, d_ref: float) -> float:
    """pen_u + (1 + gamma) * q_plus with gamma in (0, 1/4)."""
    gamma = _check_gamma(gamma)
    return pen_u(h, spectrum) + (1.0 + gamma) * q_plus(h, spectrum, d_ref)


@dataclass(frozen=True)
class PenaltyTable:
    """Per-grid-point penalty quantities as read-only columns, entry i for
    grid point ``alphas[i]``, plus the grid-wide scalars.

    The row matrices hold the damping factors ``h_rows`` and the kernels
    that selection and benchmarking reuse on every replication: the noise
    weights (2h - h^2) / lambda, the squared residual factors (1 - h)^2 and
    their row sums ``resid_dof``.
    """

    gamma: float
    psi: float
    alphas: np.ndarray
    pen_u: np.ndarray
    pen_cv: np.ndarray
    d: np.ndarray
    mu: np.ndarray
    q_plus: np.ndarray
    pen_total: np.ndarray
    h_lambda_norm2: np.ndarray
    one_minus_h_norm2: np.ndarray
    max_h_over_lambda: np.ndarray
    h_rows: np.ndarray
    noise_weights: np.ndarray
    resid2: np.ndarray
    resid_dof: np.ndarray

    @property
    def d_ref(self) -> float:
        return float(self.d[-1])


def build_penalty_table(
    family: SmootherFamily,
    grid: AlphaGrid,
    spectrum: Spectrum,
    gamma: float,
) -> PenaltyTable:
    """Evaluate every penalty quantity on the grid.

    The reference scale for q_plus is the noise scale of the last grid row
    (the smoothest model), so q_plus vanishes there exactly.  Requires the
    noise scale to be nonincreasing along the grid, which holds for every
    ordered family; user-supplied table families are additionally run
    through the full ordering check before anything is computed.  Raises
    ArithmeticError when a column is not finite, e.g. when an eigenvalue is
    so small that h / lambda overflows.
    """
    gamma = _check_gamma(gamma)
    if family.kind == "table":
        report = check_ordered(family, grid, spectrum)
        if not report.ok:
            raise ValueError(f"invalid input: table family is not ordered ({report.violation})")
    lam = spectrum.retained
    h_rows = np.array([h_values(family, float(a), spectrum) for a in grid.values])
    t = h_rows * (2.0 - h_rows) / lam
    peak = np.max(t, axis=1)
    if np.any(peak == 0.0):
        raise ValueError("degenerate smoother: h is identically zero on a grid row")
    scaled = t / peak[:, None]
    d = peak * np.sqrt(2.0 * np.einsum("ij,ij->i", scaled, scaled))
    if np.any(d[1:] > d[:-1] * (1.0 + 1e-12)):
        raise ValueError("invalid input: noise scale must be nonincreasing along the grid "
                         "(is the family ordered?)")
    log_ratio = np.maximum(np.log(d) - np.log(d[-1]), 0.0)
    rho = np.sqrt(2.0) * t / d[:, None]
    mu = _solve_mu_rows(rho, log_ratio)
    q = 2.0 * d * mu * np.einsum("ij,ij->i", rho, rho / (1.0 - 2.0 * mu[:, None] * rho))
    q = np.where(mu == 0.0, 0.0, q)

    pen_u_col = 2.0 * np.sum(h_rows / lam, axis=1)
    resid = 1.0 - h_rows
    resid2 = resid ** 2
    # one_minus_h_norm2 and resid_dof add the same squares in different
    # orders (einsum vs pairwise sum) and differ in the last bit on some
    # rows.  Each feeds outputs that are fixed byte for byte: the first the
    # CSV column, psi and the risk profile, the second the variance
    # estimate of the selector.
    columns = {
        "alphas": grid.values,
        "pen_u": pen_u_col,
        "pen_cv": 2.0 * np.sum(h_rows, axis=1),
        "d": d,
        "mu": mu,
        "q_plus": q,
        "pen_total": pen_u_col + (1.0 + gamma) * q,
        "h_lambda_norm2": np.sum(h_rows * h_rows / lam, axis=1),
        "one_minus_h_norm2": np.einsum("ij,ij->i", resid, resid),
        "max_h_over_lambda": np.max(h_rows / lam, axis=1),
    }
    for name, column in columns.items():
        if not np.all(np.isfinite(column)):
            raise ArithmeticError(f"non-finite {name} in the penalty table "
                                  "(eigenvalues outside the floating-point range?)")
    columns.update(h_rows=h_rows, noise_weights=t, resid2=resid2, resid_dof=np.sum(resid2, axis=1))
    for column in columns.values():
        column.setflags(write=False)
    one_minus = columns["one_minus_h_norm2"]
    psi = _span(one_minus, columns["pen_total"]) if one_minus[0] > 0.0 else float("nan")
    return PenaltyTable(gamma=gamma, psi=psi, **columns)


def _span(one_minus_h_norm2: np.ndarray, pen_total: np.ndarray) -> float:
    first = one_minus_h_norm2[0]
    envelope = np.sqrt(max(np.log(np.log1p(one_minus_h_norm2[-1] / first)), 0.0))
    span = np.log1p(pen_total[0] / pen_total[-1])
    return float((envelope + span) / np.sqrt(first))


def variance_span(table: PenaltyTable) -> float:
    """Scale of the variance-estimation error over the grid range.

    Combines the iterated-logarithm envelope of the residual degrees of
    freedom with the log span of the penalty, both relative to the residual
    norm at the grid floor.  Small for rich grids on large problems, which
    is exactly when plugging in the variance estimate is harmless.  The
    loglog term is clipped at zero, which only binds for very narrow grids.
    """
    if table.one_minus_h_norm2[0] <= 0.0:
        raise ValueError("variance estimation impossible at the grid floor: h is identically 1")
    return _span(table.one_minus_h_norm2, table.pen_total)


@dataclass(frozen=True)
class ConditionsReport:
    """Grid-wide estimate of the structural constant linking the penalty scales."""

    ok: bool
    c2_hat: float
    ratio_unbiased: np.ndarray
    ratio_scale: np.ndarray


def check_conditions(table: PenaltyTable) -> ConditionsReport:
    """Estimate the smallest constant for which the two structural lower
    bounds on the smoother norms hold on the grid; passes when positive.

    The second ratio treats the zero log at the reference row as +inf, so
    that row binds only through the first ratio.
    """
    h_lambda = table.h_lambda_norm2
    d = table.d
    log_ratio = np.maximum(np.log(d) - np.log(d[-1]), 0.0)
    ratio1 = h_lambda / (0.5 * table.pen_u)
    with np.errstate(divide="ignore"):
        ratio2 = (np.where(log_ratio > 0.0, h_lambda / log_ratio, np.inf) + table.max_h_over_lambda) / d
    c2_hat = float(min(np.min(ratio1), np.min(ratio2)))
    return ConditionsReport(ok=c2_hat > 0.0, c2_hat=c2_hat, ratio_unbiased=ratio1, ratio_scale=ratio2)


@dataclass(frozen=True)
class PenaltyInequalityReport:
    """Outcome of the structural-inequality sweep; `violations` keeps at most
    `_MAX_REPORTED` examples, `total_violations` counts them all."""

    ok: bool
    violations: tuple[str, ...]
    total_violations: int = 0


_MAX_REPORTED = 50


def verify_penalty_inequalities(table: PenaltyTable, rtol: float = 1e-9) -> PenaltyInequalityReport:
    """Check the structural inequalities of the penalty on a computed table.

    Guaranteed, row-wise: q_plus >= d * max(sqrt(log r), log r / mu) and
    mu >= min(sqrt(log r)/2, 1/4) with r = d/d_ref.  A violation of either
    is a fault in the table.

    Auxiliary, which correct tables can violate (see the README): for well
    separated scales (d >= e^2 d_ref) the log-form bound
    d >= mu*q / log(mu*q/d_ref), which holds only with the constant 1/2 in
    front of the right side; and pair-wise, the ratio of adaptive penalties
    dominating the ratio of noise scales.  Both are reported as found.
    All comparisons carry the relative slack ``rtol``.
    """
    d, mu, q = table.d, table.mu, table.q_plus
    alphas = table.alphas.tolist()  # Python floats, whose repr the messages print
    log_r = np.maximum(np.log(d) - np.log(d[-1]), 0.0)
    violations: list[str] = []
    total = 0

    def note(message: str) -> None:
        nonlocal total
        total += 1
        if len(violations) < _MAX_REPORTED:
            violations.append(message)

    with np.errstate(divide="ignore", invalid="ignore"):
        per_mu = np.where(mu > 0.0, log_r / mu, 0.0)
    bound = d * np.maximum(np.sqrt(log_r), per_mu)
    slack = rtol * np.maximum(np.maximum(np.abs(bound), np.abs(q)), 1.0)
    for i in np.nonzero(q < bound - slack)[0]:
        note(f"q_plus below its lower bound at alpha={alphas[i]!r}")

    mu_bound = np.minimum(0.5 * np.sqrt(log_r), 0.25)
    for i in np.nonzero(mu < mu_bound - rtol * np.maximum(mu_bound, 1.0))[0]:
        note(f"mu below its lower bound at alpha={alphas[i]!r}")

    separated = d >= np.exp(2.0) * d[-1]
    for i in np.nonzero(separated)[0]:
        inner = mu[i] * q[i] / d[-1]
        if inner <= 1.0:
            note(f"degenerate log bound at alpha={alphas[i]!r}")
            continue
        rhs = mu[i] * q[i] / np.log(inner)
        if d[i] < rhs - rtol * max(abs(rhs), abs(d[i]), 1.0):
            note(f"noise scale below the log bound at alpha={alphas[i]!r}")

    with np.errstate(divide="ignore", invalid="ignore"):
        log_d = np.log(d)
        log_q = np.where(q > 0.0, np.log(q), -np.inf)
        # pairs i < j with q_j > 0: log d_i - log d_j <= log q_i - log q_j
        lhs = log_d[:, None] - log_d[None, :]
        rhs = log_q[:, None] - log_q[None, :]
    i_idx, j_idx = np.nonzero(np.triu(lhs > rhs + rtol, k=1) & (q[None, :] > 0.0))
    for i, j in zip(i_idx, j_idx):
        note(
            "noise scale ratio exceeds the adaptive penalty ratio for "
            f"alphas ({alphas[i]!r}, {alphas[j]!r})"
        )

    return PenaltyInequalityReport(ok=total == 0, violations=tuple(violations), total_violations=total)
