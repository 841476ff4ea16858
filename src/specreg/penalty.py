"""Penalty calibration for data-driven smoothing parameter selection.

The total penalty on the grid is pen_u + (1 + gamma) * q_plus.  pen_u is the
classical unbiased-risk term 2 * sum h/lambda.  q_plus is an adaptive term
sized so that the supremum over all grid points of the quadratic-noise
excess stays comparable to its value at the smoothest point; it is defined
through the root mu of a Cramer-type calibration equation

    sum_k c(mu * rho(k)) = log(d / d_ref),

with c(x) = log1p(-2x)/2 + x/(1-2x) increasing and convex on [0, 1/2) and
c(0) = 0, solved per row block by a safeguarded Halley iteration to the
rounding noise of the float row sum, each block starting from the scale of
the root its neighbour found.  All norms are evaluated with max
scaling so severely ill-posed spectra (eigenvalues down to ~1e-300) do not
overflow the squared intermediates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import Spectrum
from .smoothers import AlphaGrid, SmootherFamily, _cutoffs, _row_kernels, _row_slices, check_ordered, h_values

__all__ = [
    "PenaltyTable",
    "build_penalty_table",
    "check_conditions",
    "verify_penalty_inequalities",
]

_MU_BRACKET_MARGIN = 1e-12
_MU_RESIDUAL_TOL = 1e-10
# A row whose relative residual is this small takes its Halley step as its
# last: the cubic convergence leaves it far below _MU_RESIDUAL_TOL.
_MU_LAST_STEP_TOL = 1e-6
_HALLEY_STEPS = 30
_EPS = np.finfo(float).eps
# Relative slack of every comparison of verify_penalty_inequalities.
_INEQUALITY_RTOL = 1e-9


def _unit_rows(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Noise scale d = sqrt(2 * sum_k t(k)^2) and unit row rho = t / |t| of
    every row of the noise weights t, squaring t over its row maximum so that
    the squares cannot overflow; d = 0 and rho = 0 on a zero row."""
    peak = np.max(t, axis=1, initial=0.0)
    rho = t / np.where(peak > 0.0, peak, 1.0)[:, None]
    norm2 = np.einsum("ij,ij->i", rho, rho)
    d = peak * np.sqrt(2.0 * norm2)
    rho /= np.sqrt(np.where(norm2 > 0.0, norm2, 1.0))[:, None]
    return d, rho


def _cramer(x):
    """The Cramer transform c(x) = log1p(-2x)/2 + x/(1-2x) of the
    calibration equation, elementwise on 0 <= x < 1/2 (unchecked), and its
    q = x / (1 - 2x).  The in-place steps round exactly as
    0.5 * log1p(-2x) + x / (1 - 2x) left to right, with 1 + (-2x) rounding
    as 1 - 2x."""
    w = np.multiply(x, -2.0)
    out = np.log1p(w)
    out *= 0.5
    w += 1.0
    q = x / w
    out += q
    return out, q


def _cramer_rowsum(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sum_k c(x(k)) for every row of x = mu * rho, the rows of one
    block up to its last nonzero column, and the q of every entry."""
    terms, q = _cramer(x)
    return np.sum(terms, axis=1), q


def _solve_mu_rows(rho: np.ndarray, log_ratio: np.ndarray,
                   scale: float = 1.0) -> tuple[np.ndarray, np.ndarray, float]:
    """Root mu of sum_k c(mu * rho(k)) = log_ratio for every row of
    rho, one block of rows, in [0, (1 - 1e-12) / (2 max rho)], with sums up
    to the block's last nonzero column (rows with log_ratio == 0 return 0),
    sum_k rho q at x = mu rho, from the residual check's row sum, and the
    scale to hand the next block.

    Safeguarded Halley iteration (Newton's method with the second derivative)
    in u = -log1p(-2 m r), r the row maximum of rho, which moves the pole
    m = 1/(2r) to u = inf: m(u) = -expm1(-u) / (2r),
    m' = -m'' = e^-u / (2r).  With the q = x / (1 - 2x) of the row sum at
    x = m rho, f' = 2 sum q^2 / m, as c'(x) = 2x / (1 - 2x)^2, and
    f'' = 2 sum q^2 (1 + 4q) / m^2.  The start is ``scale`` times the
    geometric mean of the bounds on the root that
    x^2 <= c(x) <= 2x^2 / (1 - 2x) give, capped halfway from that mean to
    the pole; the returned scale is root / mean at the block's last row with
    log_ratio > 0 (``scale`` itself without one), which the next block of a
    grid, whose rows are close to these, starts from.  A step that leaves the
    bracket of u known so far becomes the bracket midpoint.  A row whose
    float row sum F is within 1e-6 L of L = log_ratio, and whose step stays
    in the bracket, takes that step as its last: from there Halley's cubic
    convergence lands within the rounding noise of the row sum.  A row
    whose F is within that noise, |F - L| <= 32 eps (L + m s1) / (1 - 2 m r)
    with s1 = sum rho (each term's log1p is off by about eps x / (1 - 2x)),
    stops too, and keeps its iterate when the step leaves the bracket.
    Every row must then pass the residual check.
    """
    used = np.flatnonzero(np.any(rho != 0.0, axis=0))
    rho = rho[:, :used[-1] + 1 if used.size else 0]
    mu = np.zeros(rho.shape[0])
    todo = np.flatnonzero(log_ratio > 0.0)
    rows, target = rho[todo], log_ratio[todo]
    r, s1, s2 = np.max(rows, axis=1, initial=0.0), np.sum(rows, axis=1), np.einsum("ij,ij->i", rows, rows)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        top = (1.0 - _MU_BRACKET_MARGIN) / (2.0 * r)
        low = target / (target * r + np.sqrt((target * r) ** 2 + 2.0 * s2 * target))
        start = np.sqrt(low * np.minimum(np.sqrt(target / s2), top))
        m = np.minimum(scale * start, 0.5 * (start + top))
        u, u_lo, u_hi = -np.log1p(-2.0 * r * m), np.zeros(todo.size), -np.log1p(-2.0 * r * top)
        last, last_start = todo[-1:], start[-1:]  # the row whose root / start is handed on
        for _ in range(_HALLEY_STEPS if todo.size else 0):
            m = -np.expm1(-u) / (2.0 * r)
            g, q = _cramer_rowsum(m[:, None] * rows)
            g -= target
            q2 = q * q
            q2_sum = np.sum(q2, axis=1)
            fp = 2.0 * q2_sum / m
            fpp = 2.0 * (q2_sum + 4.0 * np.einsum("ij,ij->i", q2, q)) / (m * m)
            u_lo, u_hi = np.where(g < 0.0, u, u_lo), np.where(g > 0.0, u, u_hi)
            dm = np.exp(-u) / (2.0 * r)
            g1, g2 = fp * dm, (fpp * dm - fp) * dm
            step = u - 2.0 * g * g1 / (2.0 * g1 * g1 - g * g2)
            inside = (step > u_lo) & (step < u_hi)
            done = ((np.abs(g) <= 32.0 * _EPS * (target + m * s1) / (1.0 - 2.0 * m * r))
                    | (inside & (np.abs(g) <= _MU_LAST_STEP_TOL * target)))
            u = np.where(inside, step, np.where(done, u, 0.5 * (u_lo + u_hi)))
            mu[todo] = -np.expm1(-u) / (2.0 * r)
            if done.all():
                break
            todo, rows, target, r, s1, u, u_lo, u_hi = (
                v[~done] for v in (todo, rows, target, r, s1, u, u_lo, u_hi))
        # empty on a block without a positive log ratio; a NaN or infinite
        # ratio (a non-finite d, a start that underflows to 0) is not handed on
        ratio = mu[last] / last_start
        if ratio.size and 0.0 < ratio[0] < np.inf:
            scale = float(ratio[0])
    rowsum, q = _cramer_rowsum(mu[:, None] * rho)
    resid = np.abs(rowsum - np.maximum(log_ratio, 0.0))
    if np.any(resid > _MU_RESIDUAL_TOL * np.maximum(1.0, log_ratio)):
        raise ArithmeticError("mu solve did not reach the residual tolerance")
    return mu, np.einsum("ij,ij->i", rho, q), scale


def _log_ratio(d, d_ref) -> np.ndarray:
    """log(d / d_ref), evaluated as a difference of logs so that huge scales
    do not overflow, and clamped at zero."""
    return np.maximum(np.log(d) - np.log(d_ref), 0.0)


@dataclass(frozen=True)
class PenaltyTable:
    """Per-grid-point penalty quantities as read-only columns, entry i for
    grid point ``alphas[i]``, plus the grid-wide scalars and the spectrum.

    The table keeps no M x p matrix: :meth:`h` forms the damping factors
    of the rows it is asked for from ``family``, and
    :meth:`_kernel_products` multiplies the row kernels that selection and
    benchmarking reuse on every replication, which a cutoff table never
    forms.
    ``tie_end[i]`` is the last row of the run of bit-identical h rows that
    holds row i, which selection counts as one model.  ``psi`` scales the
    variance-estimation error over the grid range; it is NaN when the floor
    row has h = 1 everywhere, which leaves no residual to estimate the
    variance from.
    """

    gamma: float
    psi: float
    spectrum: Spectrum
    family: SmootherFamily
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
    tie_end: np.ndarray

    @property
    def d_ref(self) -> float:
        return float(self.d[-1])

    def h(self, index: int | slice | np.ndarray) -> np.ndarray:
        """The h rows of the grid rows ``index`` (an int, an index array or a
        slice), formed anew, bit-identical to the rows the table was built on."""
        return h_values(self.family, self.alphas[index], self.spectrum)

    @cached_property
    def _kernels(self) -> tuple[np.ndarray, np.ndarray]:
        """The two M x p :func:`_row_kernels` of the whole grid, the noise
        weights and the squared residual factors, formed on first use and kept."""
        kernels = _row_kernels(self.h(slice(None)), self.spectrum.retained)
        for kernel in kernels:
            kernel.setflags(write=False)
        return kernels

    def _kernel_products(self, v: np.ndarray, noise: bool = True,
                         resid: bool = True) -> tuple[np.ndarray | None, np.ndarray | None]:
        """``noise_weights @ v`` with ``noise`` and ``resid2 @ v`` with
        ``resid`` (each None without its flag), the two :attr:`_kernels`
        applied to v of shape (p,) or to a block (p, n) with one vector per
        column; a v of another length is a dimension error.

        A cutoff row i is 1/lambda up to its cutoff m_i and 0 after it, its
        resid2 row 0 up to m_i and 1 after it.  So there the
        products are the prefix sums of the products v / lambda, which the
        matrix product forms too, at m_i, and the suffix sums of v after m_i.
        They run in sequence along k, so each column of a block gives the
        bits of its one-vector product.  Other families multiply the kernels,
        which a cutoff table never forms.
        """
        lam = self.spectrum.retained
        if v.shape[:1] != lam.shape:
            raise ValueError("dimension error: the vectors must match the retained spectrum")
        if self.family.kind != "cutoff":
            noise_weights, resid2 = self._kernels
            return noise_weights @ v if noise else None, resid2 @ v if resid else None
        m, products = _cutoffs(self.alphas, lam.size), [None, None]
        if noise:
            col, top = (slice(None),) + (None,) * (v.ndim - 1), m.max()
            prefix = (1.0 / lam[:top])[col] * v[:top]  # 1/lambda past every cutoff may overflow
            products[0] = np.cumsum(prefix, axis=0, out=prefix)[m - 1]
            del prefix
        if resid:
            suffix = np.zeros((lam.size + 1,) + v.shape[1:])  # suffix[p] = 0: rows with m_i = p
            np.cumsum(v[::-1], axis=0, out=suffix[-2::-1])
            products[1] = suffix[m]
        return products[0], products[1]


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
    ordered family; user-supplied table families first go through
    :func:`check_ordered` on the grid.  The h rows are formed one row block
    at a time, in grid order, and not kept.  A cutoff table forms no h row:
    row i is 1 up to its cutoff m_i and 0 after it, so its columns are
    lookups at m_i in s = 1/lambda and its prefix sums, and its noise
    weights are s up to m_i.  Each block's mu is solved
    before the checks on the whole grid run, and they still decide: the
    solve raises no error on the rows they reject (a zero or non-finite d or
    d_ref gives mu = 0 or NaN).  Raises ArithmeticError when a column is not
    finite, e.g. when an eigenvalue is so small that h / lambda overflows.
    """
    gamma = float(gamma)
    if not 0.0 < gamma < 0.25:
        raise ValueError("invalid input: gamma must lie in (0, 1/4)")
    if family.kind == "table":
        violation = check_ordered(family, grid, spectrum)
        if violation is not None:
            raise ValueError(f"invalid input: table family is not ordered ({violation})")
    lam = spectrum.retained
    rows, alphas, cutoff = len(grid), grid.values, family.kind == "cutoff"
    # One pass over the row blocks forms each block's noise weights and its
    # mu and q_plus; on other families than cutoff also its h, its columns
    # and its ties between adjacent rows.
    pen_u_col, pen_cv_col, d, mu, rho_q, h_lambda, one_minus, max_h_over_lam = (
        np.empty(rows) for _ in range(8))
    tied = np.empty(rows - 1, dtype=bool)  # h row i equals h row i + 1
    # Overflow and NaN below are caught by the checks on d and on the columns.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if cutoff:
            m, s, k = _cutoffs(alphas, lam.size), 1.0 / lam, np.arange(lam.size)
            h_lambda[:], max_h_over_lam[:] = np.cumsum(s)[m - 1], s[m - 1]
            pen_u_col[:], pen_cv_col[:], one_minus[:] = 2.0 * h_lambda, 2.0 * m, lam.size - m
            tied[:] = m[1:] == m[:-1]
            t = np.where(k < m[-1], s, 0.0)[None]
        else:
            t = _row_kernels(h_values(family, alphas[-1:], spectrum), lam)[0]
        d_ref = _unit_rows(t)[0][0]  # = d[-1], from the last row alone
        scale = 1.0  # root / start of the last solved row, carried to the next block
        for block in _row_slices(rows, lam.size):
            if cutoff:  # the noise weights h (2 - h) / lambda, with the same bits
                t = np.where(k < m[block, None], s, 0.0)
            else:
                h = h_values(family, alphas[block], spectrum)
                if block.start:
                    tied[block.start - 1] = np.array_equal(last, h[0])
                tied[block.start:block.stop - 1] = np.all(h[1:] == h[:-1], axis=1)
                last = h[-1].copy()  # _row_kernels consumes h
                h_lam = h / lam
                pen_u_col[block], max_h_over_lam[block] = 2.0 * np.sum(h_lam, axis=1), np.max(h_lam, axis=1)
                pen_cv_col[block], h_lambda[block] = 2.0 * np.sum(h, axis=1), np.sum(h * h / lam, axis=1)
                t = _row_kernels(h, lam)[0]  # h now holds (1 - h)^2
                one_minus[block] = np.sum(h, axis=1)
                del h, h_lam
            d[block], rho = _unit_rows(t)
            del t  # not held through the mu solve
            mu[block], rho_q[block], scale = _solve_mu_rows(rho, _log_ratio(d[block], d_ref), scale)
        if np.any(d == 0.0):
            raise ValueError("degenerate smoother: h is identically zero on a grid row")
        if np.any(d[1:] > d[:-1] * (1.0 + 1e-12)):
            raise ValueError("invalid input: noise scale must be nonincreasing along the grid "
                             "(is the family ordered?)")
        # q_plus = 2 d mu sum rho^2 / (1 - 2 mu rho) = 2 d sum rho q, exactly 0 where mu is
        q = np.where(mu == 0.0, 0.0, 2.0 * d * rho_q)
        columns = {
            "alphas": alphas,
            "pen_u": pen_u_col,
            "pen_cv": pen_cv_col,
            "d": d,
            "mu": mu,
            "q_plus": q,
            "pen_total": pen_u_col + (1.0 + gamma) * q,
            "h_lambda_norm2": h_lambda,
            "one_minus_h_norm2": one_minus,
            "max_h_over_lambda": max_h_over_lam,
        }
    for name, column in columns.items():
        if not np.all(np.isfinite(column)):
            raise ArithmeticError(f"non-finite {name} in the penalty table "
                                  "(eigenvalues outside the floating-point range?)")
    # each row's run of tied rows ends at the first row not tied to the next
    ends = np.flatnonzero(np.append(~tied, True))
    tie_end = ends[np.searchsorted(ends, np.arange(rows))]
    columns["tie_end"] = tie_end
    for column in columns.values():
        column.setflags(write=False)
    # psi: the iterated-logarithm envelope of the residual degrees of freedom
    # plus the log span of the penalty, relative to the floor residual norm
    pen_total = columns["pen_total"]
    psi = float("nan")
    if one_minus[0] > 0.0:
        envelope = np.sqrt(max(np.log(np.log1p(one_minus[-1] / one_minus[0])), 0.0))
        psi = float((envelope + np.log1p(pen_total[0] / pen_total[-1])) / np.sqrt(one_minus[0]))
    return PenaltyTable(gamma=gamma, psi=psi, spectrum=spectrum, family=family, **columns)


def check_conditions(table: PenaltyTable) -> float:
    """Estimate c2_hat, the smallest constant for which the two structural
    lower bounds on the smoother norms hold on the grid; the conditions hold
    when it is positive.

    The second ratio treats the zero log at the reference row as +inf, so
    that row binds only through the first ratio.  c2_hat is 0 when the
    sum h^2 / lambda of a row underflows.
    """
    h_lambda = table.h_lambda_norm2
    d = table.d
    log_ratio = _log_ratio(d, d[-1])
    ratio1 = h_lambda / (0.5 * table.pen_u)
    per_log = np.divide(h_lambda, log_ratio, out=np.full_like(h_lambda, np.inf), where=log_ratio > 0.0)
    ratio2 = (per_log + table.max_h_over_lambda) / d
    return float(min(np.min(ratio1), np.min(ratio2)))


def verify_penalty_inequalities(table: PenaltyTable) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Check the structural inequalities of the penalty on a computed table;
    return ``(guaranteed, auxiliary)``, one message per violating row and
    kind, every violation listed.

    Guaranteed, row-wise, in this order of kinds and in row order within a
    kind: q_plus >= d * max(sqrt(log r), log r / mu) and
    mu >= min(sqrt(log r)/2, 1/4) with r = d/d_ref, and, for well separated
    scales (d >= e^2 d_ref), mu*q/d_ref > 1 (acceptance criterion 2 has the
    proof).  A violation of any is a fault in the table.

    Auxiliary, which correct tables can violate (see the README), in row
    order: on the separated rows the log-form bound
    d >= mu*q / log(mu*q/d_ref), which holds only with the constant 1/2 in
    front of the right side; it is reported as found.  All comparisons
    carry the relative slack ``_INEQUALITY_RTOL``.  The pair-wise ratio
    monotonicity q_i/q_j >= d_i/d_j is not checked: it is blind to the
    scale of q_plus and false on correct tables.
    """
    d, mu, q, rtol = table.d, table.mu, table.q_plus, _INEQUALITY_RTOL
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
    alphas = table.alphas.tolist()  # Python floats, whose repr the messages print

    def listed(kind: str, mask: np.ndarray) -> tuple[str, ...]:
        return tuple(f"{kind} at alpha={alphas[i]!r}" for i in np.flatnonzero(mask))

    guaranteed = (listed("q_plus below its lower bound", q_low) + listed("mu below its lower bound", mu_low)
                  + listed("degenerate log bound", degenerate))
    return guaranteed, listed("noise scale below the log bound", log_low)
