"""Penalty calibration for data-driven smoothing parameter selection.

The total penalty on the grid is pen_u + (1 + gamma) * q_plus.  pen_u is the
classical unbiased-risk term 2 * sum h/lambda.  q_plus is an adaptive term
sized so that the supremum over all grid points of the quadratic-noise
excess stays comparable to its value at the smoothest point; it is defined
through the root mu of a Cramer-type calibration equation

    sum_k cramer_term(mu * rho(k)) = log(d / d_ref),

solved as a 60-step bisection on a bracket where the left side provably
changes sign.  The bisection is replayed from a root estimate: only the
steps inside a band around the root, certified by a proved bound on the
rounding error of the row sums, evaluate the sums, so mu keeps the bits of
the plain bisection.  All norms are evaluated with max scaling so severely
ill-posed spectra (eigenvalues down to ~1e-300) do not overflow the squared
intermediates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import Spectrum
from .smoothers import AlphaGrid, SmootherFamily, _first_violation, h_values

__all__ = [
    "pen_u",
    "pen_cv",
    "cramer_term",
    "PenaltyTable",
    "build_penalty_table",
    "ConditionsReport",
    "check_conditions",
    "PenaltyInequalityReport",
    "verify_penalty_inequalities",
]

_MU_BRACKET_MARGIN = 1e-12
_MU_BISECTION_STEPS = 60
_MU_RESIDUAL_TOL = 1e-10
# Entries per row block of the Cramer row sums: a block's temporaries stay
# in the L2 cache instead of streaming the whole table through memory.
_ROW_BLOCK_ELEMS = 2 ** 15
# The error model of the float row sums behind the mu solve's certificate
# (see _solve_mu_rows): the unit roundoff and the accuracy assumed of numpy's
# log1p, in ulps; and the iteration cap of the solve's root estimate.
_UNIT_ROUNDOFF = 2.0 ** -53
_LOG1P_ULPS = 4
_HALLEY_STEPS = 30


def _check_h(h, size: int) -> np.ndarray:
    h = np.asarray(h, dtype=float)
    if h.shape != (size,):
        raise ValueError("dimension error: h must match the retained spectrum")
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


def _noise_scale_rows(t: np.ndarray) -> np.ndarray:
    """sqrt(2 * sum_k t(k)^2) for every row of the noise weights t, scaled by
    the row maximum so that the squares cannot overflow; 0 on a zero row."""
    peak = np.max(t, axis=1, initial=0.0)
    scaled = t / np.where(peak > 0.0, peak, 1.0)[:, None]
    return peak * np.sqrt(2.0 * np.einsum("ij,ij->i", scaled, scaled))


def _cramer(x):
    """cramer_term without its domain check, which the mu solve skips.  The
    in-place steps round exactly as 0.5 * log1p(-2x) + x + 2x * x / (1 - 2x)
    evaluated left to right, with fewer temporaries."""
    w = np.multiply(x, -2.0)
    out = np.log1p(w)
    out *= 0.5
    out += x
    w += 1.0
    q = np.multiply(x, 2.0)
    q *= x
    q /= w
    out += q
    return out


def cramer_term(x):
    """Increasing convex transform used in the penalty calibration equation.

    Defined for 0 <= x < 1/2 as log1p(-2x)/2 + x + 2x^2/(1-2x); accepts
    scalars or arrays and vanishes at 0.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0) or np.any(x >= 0.5):
        raise ValueError("domain error: cramer_term requires 0 <= x < 1/2")
    out = _cramer(x)
    return out if out.ndim else float(out)


def _row_blocks(rho: np.ndarray) -> list[tuple[slice, int]]:
    """Row slices of rho of about _ROW_BLOCK_ELEMS entries each, with the
    width up to the block's last nonzero column."""
    rows, p = rho.shape
    step = max(1, _ROW_BLOCK_ELEMS // p)
    blocks = []
    for start in range(0, rows, step):
        block = slice(start, min(start + step, rows))
        used = np.flatnonzero(np.any(rho[block] != 0.0, axis=0))
        blocks.append((block, int(used[-1]) + 1 if used.size else 0))
    return blocks


def _cramer_rowsum(rho: np.ndarray, mu: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """sum_k cramer_term(mu * rho(k)) for every row of rho, an (n, width)
    piece of a row block up to the block's last nonzero column.

    The terms go into the first n rows of ``terms``, a buffer of the full
    table width whose columns after ``width`` hold zeros, and each row is
    summed at that full width: numpy's pairwise summation groups the terms
    by position, so a shorter sum would round differently and move mu, whose
    17 digits the penalty-table CSV prints.  A row's sum depends on that row
    alone, so any subset of a block's rows gets the bits of the whole block.
    """
    n, width = rho.shape
    terms[:n, :width] = _cramer(mu[:, None] * rho)
    return np.sum(terms[:n], axis=1)


def _error_coefficients(rho: np.ndarray, p: int) -> np.ndarray:
    """Rows r, alpha, beta, delta, theta of the row-sum error bound
    E(m) = (alpha m + beta m^2) / w + delta (m / w)^2 + theta,
    w = 1 - 2 fl(m r) - 2^-51, for every row of rho (see _solve_mu_rows)."""
    r = np.max(rho, axis=1, initial=0.0)
    depth = 25 + p.bit_length()
    gamma = depth * _UNIT_ROUNDOFF / (1.0 - depth * _UNIT_ROUNDOFF)
    slack = 1.0 + 2.0 ** -20
    alpha = slack * (2 * _LOG1P_ULPS + 8) * _UNIT_ROUNDOFF * np.sum(rho, axis=1)
    s2 = slack * np.einsum("ij,ij->i", rho, rho)
    theta = np.full_like(r, p * 2.0 ** -1000)
    return np.array([r, alpha, 2.0 * gamma * s2, 2.0 * _UNIT_ROUNDOFF * s2, theta])


def _rowsum_error(m: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """E(m) for the rows whose error coefficients are the columns of coef."""
    r, alpha, beta, delta, theta = coef
    w = (1.0 - 2.0 * (m * r)) - 2.0 ** -51
    return (alpha * m + beta * m * m) / w + delta * (m / w) ** 2 + theta


def _root_estimate(rho: np.ndarray, hi: np.ndarray, log_ratio: np.ndarray,
                   coef: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Approximate root m of every row with log_ratio > 0, with the residual
    f(m) - log_ratio and the slope f'(m) there (NaN on the other rows).

    Safeguarded Halley iteration (Newton's method with the second derivative)
    in u = -log1p(-2 m r), r the row maximum of rho, which moves the pole
    m = 1/(2r) to u = inf: m(u) = -expm1(-u) / (2r), m' = -m'' = e^-u / (2r).
    With q = x / (1 - 2x) at x = m rho, f' = sum rho c'(x) = 2 sum q^2 / m, as
    c'(x) = 2x / (1 - 2x)^2, and f'' = 2 sum q^2 (1 + 4q) / m^2.  A step that
    leaves the bracket of u known so far is replaced by the bracket midpoint.
    The start is the geometric mean of the bounds on the root that
    x^2 <= c(x) <= 2x^2 / (1 - 2x) give, and a row stops once its residual is
    within twice the error bound E of the float row sum.  The f summed here
    runs only up to the block width, so it is not the exact row sum F; the
    certificate in _certified_band decides what the estimate is good for.
    """
    mu, resid, slope = np.full((3, rho.shape[0]), np.nan)
    todo = np.flatnonzero(log_ratio > 0.0)
    rows, target, top, r = rho[todo], log_ratio[todo], hi[todo], coef[0, todo]
    s2 = np.einsum("ij,ij->i", rows, rows)
    low = target / (target * r + np.sqrt((target * r) ** 2 + 2.0 * s2 * target))
    m = np.sqrt(low * np.minimum(np.sqrt(target / s2), top))
    u, u_lo, u_hi = -np.log1p(-2.0 * r * m), np.zeros(todo.size), -np.log1p(-2.0 * r * top)
    for _ in range(_HALLEY_STEPS):
        m = -np.expm1(-u) / (2.0 * r)
        x = m[:, None] * rows
        g = np.sum(_cramer(x), axis=1) - target
        q = x / (1.0 - 2.0 * x)
        q2 = q * q
        q2_sum = np.sum(q2, axis=1)
        fp = 2.0 * q2_sum / m
        fpp = 2.0 * (q2_sum + 4.0 * np.einsum("ij,ij->i", q2, q)) / (m * m)
        mu[todo], resid[todo], slope[todo] = m, g, fp
        going = ~(np.abs(g) <= 2.0 * _rowsum_error(m, coef[:, todo]))
        if not going.any():
            break
        below = g < 0.0
        u_lo, u_hi = np.where(below, u, u_lo), np.where(below, u_hi, u)
        dm = np.exp(-u) / (2.0 * r)
        g1, g2 = fp * dm, (fpp * dm - fp) * dm
        u = u - 2.0 * g * g1 / (2.0 * g1 * g1 - g * g2)
        u = np.where((u > u_lo) & (u < u_hi), u, 0.5 * (u_lo + u_hi))
        todo, rows, target, r, u, u_lo, u_hi = (v[going] for v in (todo, rows, target, r, u, u_lo, u_hi))
    return mu, resid, slope


def _certified_band(rho: np.ndarray, p: int, hi: np.ndarray, log_ratio: np.ndarray,
                    rowsum) -> tuple[np.ndarray, np.ndarray]:
    """Band (a, b) around the root of every row of rho, an (n, width) row
    block of a table of width p, such that the float row sum F is below
    log_ratio for every m <= a and not below it for every m in [b, hi], as
    proved in _solve_mu_rows; -inf and +inf mark a side whose certificate
    fails.  ``rowsum(m)`` evaluates F for the block, twice.

    The band is the Newton-corrected estimate mu - resid / f', widened by
    4.5 E / f' on each side: a certificate needs about 4E there (2E in its
    own test, E in F at the edge and E in the estimate's residual), and the
    last 0.5E absorbs the change of f' and E across the band.
    """
    coef = _error_coefficients(rho, p)
    mu, resid, slope = _root_estimate(rho, hi, log_ratio, coef)
    margin = 4.5 * _rowsum_error(mu, coef)
    a = np.clip(mu - (resid + margin) / slope, 0.0, hi)
    b = np.clip(mu + (margin - resid) / slope, 0.0, hi)
    below = rowsum(a) + 2.0 * _rowsum_error(a, coef) < log_ratio
    r, alpha, beta = coef[:3]
    above = ((rowsum(b) - 2.0 * _rowsum_error(b, coef) > log_ratio)
             & (alpha / (2.0 * b) + beta <= 0.5 * r * r))
    return np.where(below, a, -np.inf), np.where(above, b, np.inf)


def _solve_mu_rows(rho: np.ndarray, log_ratio: np.ndarray) -> np.ndarray:
    """Root of sum_k cramer_term(mu * rho(k)) = log_ratio for every row of
    rho, bit for bit the result of the plain 60-step bisection on the bracket
    [0, hi], hi = (1 - 1e-12) / (2 max rho), that compares the float row sum
    F of _cramer_rowsum with log_ratio at every midpoint.  Rows with
    log_ratio == 0 return 0.

    Certified replay.  _certified_band gives each row a band (a, b) around a
    root estimate, with F(m) < log_ratio proved for every m <= a and
    F(m) >= log_ratio for every m in [b, hi].  The bisection steps are then
    replayed exactly, but a midpoint at or below a is decided "below" and one
    at or above b "not below" without an evaluation; only midpoints inside
    the band evaluate F, for the rows that need it, in row blocks.  Both
    certificates are checked on F itself, so a bad root estimate (even NaN)
    only makes a side fail, a side that fails is never skipped, and mu and
    the residual check below do not depend on the estimate.

    The bound.  Let c(x) = cramer_term(x), increasing and convex with
    0 <= c(x) <= 2x^2 / (1 - 2x), f(m) = sum_k c(m rho_k) the exact row sum,
    u = 2^-53, r = max rho, s1 = sum rho, s2 = sum rho^2, y_k = fl(m rho_k)
    and W(m) = 1 - 2 (1 + u) m r, so that 1 - 2 y_k >= W(m).
      (i) Per term, with numpy's log1p within _LOG1P_ULPS = 4 ulps (a
          relative 8u) and w = 1 - 2y: as |log1p(-2y)| <= 2y / w, the sum
          0.5 log1p(-2y) + y is off by at most (8 + 2.01) u y / w, the
          quotient 2y^2 / w <= y / w by 3.01 u y / w and the last addition
          by 1.01 u c(y) <= 1.01 u y / w, so the computed term T_k is within
          16 u y_k / W(m) of c(y_k).
     (ii) numpy sums a row pairwise: runs of at most 128 terms go through 8
          interleaved partial sums (at most 15 additions each, 3 to combine
          them and 7 for the remainder) and longer rows are halved, so every
          term passes through at most D = 25 + bit_length(p) roundings and
          |F - sum T_k| <= gamma_D sum |T_k|, gamma_D = D u / (1 - D u)
          (Higham, Accuracy and Stability of Numerical Algorithms, ch. 4),
          where sum |T_k| <= (2 s2 m^2 + 16 u s1 m) (1 + u)^2 / W(m).  The
          zeros after a block's width add nothing and round nothing.
    (iii) Each y_k lies within a relative u of m rho_k, so, c being
          increasing, f(m(1 - u)) <= sum c(y_k) <= f(m(1 + u)).
    With E0(m) = (alpha m + beta m^2) / W(m) + theta, alpha = 16 u s1 and
    beta = 2 gamma_D s2 up to factors 1 + O(gamma_D), (i)-(iii) give
        f(m(1 - u)) - E0(m) <= F(m) <= f(m(1 + u)) + E0(m).
    Subnormal products and intermediates add at most 12 units of 2^-1075 per
    term, which theta = p 2^-1000 covers.  As f' is increasing and
    f'(m') <= 2 m' s2 / W(m)^2 at m' = (1 + u) m,
    f(m(1 + u)) - f(m(1 - u)) <= 2 delta m^2 / W(m)^2 with delta = 2 u s2
    (1 + u), so E = E0 + delta m^2 / W^2 bounds |F(m) - f(m)|, and E is
    nondecreasing in m.  _error_coefficients inflates alpha, beta and delta
    by 1 + 2^-20, which covers the factors 1 + O(gamma_D) and the rounding of
    s1, s2 and of E itself, and _rowsum_error's w = 1 - 2 fl(m r) - 2^-51 is
    at most W(m), because m r < 1/2.
      Below a: if fl(F(a) + 2E(a)) < log_ratio, then for every m <= a
          F(m) <= f(m(1 + u)) + E0(m) <= f(a(1 + u)) + E0(a)
               <= f(a(1 - u)) + 2 delta a^2 / W(a)^2 + E0(a) <= F(a) + 2E(a).
      Above b: on [b, hi], W >= W(hi) > 0.999e-12, E0' <= (alpha + 2 beta m)
          / W^2 and (f(m(1 - u)))' >= 2 m (1 - u)^2 r^2 / (W + 2u)^2, so
          f(m(1 - u)) - E0(m) is nondecreasing there when
          alpha / (2b) + beta <= r^2 / 2.  If that holds and
          fl(F(b) - 2E(b)) > log_ratio, then for every m in [b, hi]
          F(m) >= f(m(1 - u)) - E0(m) >= f(b(1 - u)) - E0(b)
               >= f(b(1 + u)) - 2 delta b^2 / W(b)^2 - E0(b) >= F(b) - 2E(b).
    The rounded sums are compared strictly, which keeps both implications
    exact: a real sum at or past log_ratio cannot round to the other side.
    The mpmath test of the bound in tests/test_penalty.py prints the largest
    ratio |F - f| / E it sees, which guards the log1p assumption.
    """
    rows, p = rho.shape
    blocks = _row_blocks(rho)
    hi = (1.0 - _MU_BRACKET_MARGIN) / (2.0 * np.max(rho, axis=1))
    # one zero-tailed term buffer per solve, as tall as the first (largest) block
    terms = np.zeros((blocks[0][0].stop if blocks else 0, p))
    filled = 0  # columns of terms that may hold nonzero terms

    def rowsum(chunk, width: int, m: np.ndarray) -> np.ndarray:
        nonlocal filled
        if filled > width:
            terms[:, width:filled] = 0.0
        filled = width
        return _cramer_rowsum(rho[chunk, :width], m, terms)

    active = log_ratio > 0.0  # the other rows return 0 whatever their bisection does
    a, b = np.empty(rows), np.empty(rows)
    for block, width in blocks:
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            a[block], b[block] = _certified_band(rho[block, :width], p, hi[block], log_ratio[block],
                                                 partial(rowsum, block, width))
    a[~active] = np.inf  # decided "below" at every step, never evaluated
    starts = [block.start for block, _ in blocks]
    lo, top = np.zeros(rows), hi
    for _ in range(_MU_BISECTION_STEPS):
        mid = 0.5 * (lo + top)
        below = mid <= a
        inside = (mid > a) & (mid < b)
        if inside.any():
            need = np.flatnonzero(inside)
            cuts = np.searchsorted(need, starts).tolist() + [need.size]
            for (block, width), first, last in zip(blocks, cuts, cuts[1:]):
                if first < last:
                    chunk = block if last - first == block.stop - block.start else need[first:last]
                    below[chunk] = rowsum(chunk, width, mid[chunk]) < log_ratio[chunk]
        lo = np.where(below, mid, lo)
        top = np.where(below, top, mid)
    mu = np.where(active, 0.5 * (lo + top), 0.0)
    resid = np.empty(rows)
    for block, width in blocks:
        resid[block] = np.abs(rowsum(block, width, mu[block]) - np.maximum(log_ratio[block], 0.0))
    if np.any(resid > _MU_RESIDUAL_TOL * np.maximum(1.0, log_ratio)):
        raise ArithmeticError("mu bisection did not reach the residual tolerance")
    return mu


def _mu_q_rows(t: np.ndarray, d: np.ndarray, log_ratio: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Root mu and adaptive term q_plus = 2 * d * mu * sum rho^2 / (1 - 2*mu*rho)
    of every row, from the noise weights t, their noise scales d and the
    log ratios log(d / d_ref) >= 0, with rho = sqrt(2) * t / d.

    q_plus is exactly zero where mu is; every denominator stays positive
    because the mu bracket ends strictly before 1 / (2 * max rho).
    """
    rho = np.sqrt(2.0) * t / d[:, None]
    mu = _solve_mu_rows(rho, log_ratio)
    q = 2.0 * d * mu * np.einsum("ij,ij->i", rho, rho / (1.0 - 2.0 * mu[:, None] * rho))
    return mu, np.where(mu == 0.0, 0.0, q)


def _log_ratio(d, d_ref) -> np.ndarray:
    """log(d / d_ref), evaluated as a difference of logs so that huge scales
    do not overflow, and clamped at zero."""
    return np.maximum(np.log(d) - np.log(d_ref), 0.0)


@dataclass(frozen=True)
class PenaltyTable:
    """Per-grid-point penalty quantities as read-only columns, entry i for
    grid point ``alphas[i]``, plus the grid-wide scalars and the spectrum.

    The row matrices hold the damping factors ``h_rows`` and the kernels
    that selection and benchmarking reuse on every replication: the noise
    weights (2h - h^2) / lambda, the squared residual factors (1 - h)^2 and
    their row sums ``resid_dof``.  ``psi`` scales the variance-estimation
    error over the grid range; it is NaN when the floor row has h = 1
    everywhere, which leaves no residual to estimate the variance from.
    """

    gamma: float
    psi: float
    spectrum: Spectrum
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
    ordered family; the h rows of user-supplied table families additionally
    go through the full ordering check before any penalty is computed.  Raises
    ArithmeticError when a column is not finite, e.g. when an eigenvalue is
    so small that h / lambda overflows.
    """
    gamma = float(gamma)
    if not 0.0 < gamma < 0.25:
        raise ValueError("invalid input: gamma must lie in (0, 1/4)")
    lam = spectrum.retained
    h_rows = h_values(family, grid.values, spectrum)
    if family.kind == "table":
        violation = _first_violation(h_rows, grid.values)
        if violation is not None:
            raise ValueError(f"invalid input: table family is not ordered ({violation})")
    # Overflow and NaN below are caught by the checks on d and on the columns.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        t = h_rows * (2.0 - h_rows) / lam
        d = _noise_scale_rows(t)
        if np.any(d == 0.0):
            raise ValueError("degenerate smoother: h is identically zero on a grid row")
        if np.any(d[1:] > d[:-1] * (1.0 + 1e-12)):
            raise ValueError("invalid input: noise scale must be nonincreasing along the grid "
                             "(is the family ordered?)")
        mu, q = _mu_q_rows(t, d, _log_ratio(d, d[-1]))
        h_over_lam = h_rows / lam
        pen_u_col, max_h_over_lam = 2.0 * np.sum(h_over_lam, axis=1), np.max(h_over_lam, axis=1)
        del h_over_lam  # an M x p matrix: freed before the residual matrices
        resid = 1.0 - h_rows
        resid2 = resid ** 2
        # one_minus_h_norm2 and resid_dof add the same squares in different
        # orders (einsum vs pairwise sum) and differ in the last bit on some
        # rows.  Each feeds outputs that are fixed byte for byte: the first
        # the CSV column, psi and the risk profile, the second the variance
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
            "max_h_over_lambda": max_h_over_lam,
        }
    for name, column in columns.items():
        if not np.all(np.isfinite(column)):
            raise ArithmeticError(f"non-finite {name} in the penalty table "
                                  "(eigenvalues outside the floating-point range?)")
    columns.update(h_rows=h_rows, noise_weights=t, resid2=resid2, resid_dof=np.sum(resid2, axis=1))
    for column in columns.values():
        column.setflags(write=False)
    # psi: the iterated-logarithm envelope of the residual degrees of freedom
    # plus the log span of the penalty, relative to the floor residual norm
    one_minus, pen_total = columns["one_minus_h_norm2"], columns["pen_total"]
    psi = float("nan")
    if one_minus[0] > 0.0:
        envelope = np.sqrt(max(np.log(np.log1p(one_minus[-1] / one_minus[0])), 0.0))
        psi = float((envelope + np.log1p(pen_total[0] / pen_total[-1])) / np.sqrt(one_minus[0]))
    return PenaltyTable(gamma=gamma, psi=psi, spectrum=spectrum, **columns)


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
    log_ratio = _log_ratio(d, d[-1])
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
    front of the right side; it is reported as found.  All comparisons
    carry the relative slack ``rtol``.  The pair-wise ratio monotonicity
    q_i/q_j >= d_i/d_j is not checked: it is blind to the scale of q_plus
    and false on correct tables.
    """
    d, mu, q = table.d, table.mu, table.q_plus
    log_r = _log_ratio(d, d[-1])
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = d * np.maximum(np.sqrt(log_r), np.where(mu > 0.0, log_r / mu, 0.0))
        inner = mu * q / d[-1]
        log_rhs = mu * q / np.log(inner)
    q_low = q < bound - rtol * np.maximum(np.maximum(np.abs(bound), np.abs(q)), 1.0)
    mu_bound = np.minimum(0.5 * np.sqrt(log_r), 0.25)
    mu_low = mu < mu_bound - rtol * np.maximum(mu_bound, 1.0)
    separated = d >= np.exp(2.0) * d[-1]
    degenerate = separated & (inner <= 1.0)
    log_low = separated & ~degenerate & (
        d < log_rhs - rtol * np.maximum(np.maximum(np.abs(log_rhs), np.abs(d)), 1.0))
    total = sum(int(np.count_nonzero(mask)) for mask in (q_low, mu_low, degenerate, log_low))

    # format only the reported messages, in kind order and row order within a kind
    alphas = table.alphas.tolist()  # Python floats, whose repr the messages print
    violations: list[str] = []
    for label, mask in (("q_plus below its lower bound", q_low),
                        ("mu below its lower bound", mu_low),
                        (None, degenerate | log_low)):
        for i in np.flatnonzero(mask)[:_MAX_REPORTED - len(violations)]:
            kind = label or ("degenerate log bound" if degenerate[i] else "noise scale below the log bound")
            violations.append(f"{kind} at alpha={alphas[i]!r}")
    return PenaltyInequalityReport(ok=total == 0, violations=tuple(violations), total_violations=total)
