"""Ordered smoother families and the grids they are evaluated on.

A family maps a regularization parameter alpha to damping factors
h_alpha(k) in [0, 1], one per retained eigenvalue.  Grid convention: larger
alpha means more smoothing, so h is pointwise no larger.  The no-crossing
(ordering) property that the penalty calibration relies on is verified on
the finite grid by :func:`check_ordered`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Spectrum, _frozen_array

__all__ = [
    "SmootherFamily",
    "AlphaGrid",
    "OrderingViolation",
    "OrderingReport",
    "h_values",
    "check_ordered",
    "default_grid",
]

# The parameters each smoother kind takes; a family rejects any other.
_KIND_PARAMETERS = {"cutoff": (), "tikhonov": (), "landweber": ("tau",), "table": ("alphas", "h_table")}
_ORDER_ATOL = 1e-12  # rounding slack of the ordering check
# Entries per row block of the grid walks (the ordering check, the grid floor,
# the penalty table build and its mu solve): a block's temporaries stay in
# the L2 cache instead of streaming an M x p matrix through memory.
_ROW_BLOCK_ELEMS = 2 ** 15


@dataclass(frozen=True)
class SmootherFamily:
    """A named smoother family plus the parameters of its kind, those that
    _KIND_PARAMETERS lists, e.g. ``SmootherFamily("landweber", tau=0.5)``.

    ``tau`` is the landweber relaxation step (default 1/lambda(1)), finite
    and positive when given.  User supplied tables carry explicit ``alphas``
    and matching ``h_table`` rows, kept as read-only copies; they are
    accepted but should always be run through :func:`check_ordered`.
    """

    kind: str
    tau: float | None = None
    alphas: np.ndarray | None = None
    h_table: np.ndarray | None = None

    def __post_init__(self):
        if not (isinstance(self.kind, str) and self.kind in _KIND_PARAMETERS):
            raise ValueError(f"invalid input: unknown smoother kind {self.kind!r}")
        for name in ("tau", "alphas", "h_table"):
            if getattr(self, name) is not None and name not in _KIND_PARAMETERS[self.kind]:
                raise ValueError(f"invalid input: {name} does not apply to smoother kind {self.kind!r}")
        if self.tau is not None and not (np.isfinite(self.tau) and self.tau > 0.0):
            raise ValueError(f"invalid input: tau must be positive and finite, got {self.tau!r}")
        if self.kind == "table":
            # read-only: a penalty table forms its h rows from them again
            alphas, table = _frozen_array(self.alphas), _frozen_array(self.h_table)
            if alphas.ndim != 1 or table.ndim != 2 or table.shape[0] != alphas.size:
                raise ValueError("invalid input: table family needs matching alphas and rows")
            if not (np.all(np.isfinite(alphas)) and np.all(np.isfinite(table))):
                raise ValueError("invalid input: table family entries must be finite")
            object.__setattr__(self, "alphas", alphas)
            object.__setattr__(self, "h_table", table)


@dataclass(frozen=True)
class AlphaGrid:
    """Strictly increasing positive grid a_1 < ... < a_M."""

    values: np.ndarray

    def __post_init__(self):
        values = _frozen_array(self.values)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("invalid input: grid must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(values)) or values[0] <= 0.0:
            raise ValueError("invalid input: grid values must be positive and finite")
        if np.any(np.diff(values) <= 0.0):
            raise ValueError("invalid input: grid values must be strictly increasing")
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.values.size


def _iterations_from_alpha(alpha: np.ndarray) -> np.ndarray:
    # ceil(1/alpha), except that alpha == 1/m (grids are built as exact
    # reciprocals) gives m even where 1/alpha rounds to just above m.
    with np.errstate(over="ignore", divide="ignore"):
        q = 1.0 / alpha
        nearest = np.round(q)
        exact = (nearest >= 1.0) & (1.0 / nearest == alpha)
    return np.where(exact, nearest, np.where(q > 1.0, np.ceil(q), 1.0))


def _check_family(family: SmootherFamily, spectrum: Spectrum) -> None:
    """Raise the ValueError of a family that no alpha can evaluate on the
    spectrum: a landweber step with tau * lambda(1) > 1, or table rows of
    another width than the retained spectrum."""
    lam = spectrum.retained
    if family.kind == "landweber":
        tau = family.tau if family.tau is not None else 1.0 / lam[0]
        # small slack covers the rounding of the default step 1/lambda(1)
        if tau * lam[0] > 1.0 + 1e-9:
            raise ValueError("unstable step: tau * lambda(1) > 1")
    if family.kind == "table" and family.h_table.shape[1] != lam.size:
        raise ValueError("dimension error: tabulated h row does not match the spectrum")


def h_values(family: SmootherFamily, alpha: float | np.ndarray, spectrum: Spectrum) -> np.ndarray:
    """Damping factors h_alpha(k), one row per alpha over the retained
    eigenvalues: shape ``np.shape(alpha) + (p,)``, so a scalar alpha gives
    one row and ``grid.values`` the M x p family on the grid.

    cutoff:    h(k) = 1 for k <= ceil(1/alpha), else 0
    tikhonov:  h(k) = lambda(k) / (lambda(k) + alpha)
    landweber: h(k) = 1 - (1 - tau*lambda(k)) ** ceil(1/alpha)
    table:     the first tabulated row whose alpha matches to 1e-12

    Landweber is evaluated as -expm1(m * log1p(-tau*lambda)), which keeps
    full relative accuracy when tau*lambda is below the rounding unit of
    1 - tau*lambda (the power form rounds h to 0 there).  Landweber values
    and tabulated rows are clamped to [0, 1]; cutoff rows are exactly 0 or 1
    and tikhonov's lambda / (lambda + alpha) cannot round out of [0, 1].
    Each row depends on its own alpha only, so rows formed for any subset of
    a grid are bit-identical to the same rows of the whole grid.
    """
    alpha = np.asarray(alpha, dtype=float)
    if not np.all(np.isfinite(alpha) & (alpha > 0.0)):
        raise ValueError("invalid input: alpha must be positive")
    _check_family(family, spectrum)
    lam = spectrum.retained
    column = alpha[..., None]
    if family.kind == "cutoff":
        m = _iterations_from_alpha(column)
        h = (np.arange(1, lam.size + 1, dtype=float) <= m).astype(float)
    elif family.kind == "tikhonov":
        h = lam / (lam + column)
    elif family.kind == "landweber":
        tau = family.tau if family.tau is not None else 1.0 / lam[0]
        x = np.clip(tau * lam, 0.0, 1.0)
        with np.errstate(divide="ignore"):  # log1p(-1) = -inf gives h = 1
            h = -np.expm1(_iterations_from_alpha(column) * np.log1p(-x))
        np.clip(h, 0.0, 1.0, out=h)
    else:
        match = np.abs(family.alphas - column) <= 1e-12 * np.maximum(1.0, column)
        found = match.any(axis=-1)
        if not found.all():
            raise ValueError(f"invalid input: alpha {float(alpha[~found][0])!r} is not tabulated")
        # take copies even for a scalar alpha, so the clip never writes h_table
        h = np.take(family.h_table, np.argmax(match, axis=-1), axis=0)
        np.clip(h, 0.0, 1.0, out=h)
    return h


@dataclass(frozen=True)
class OrderingViolation:
    alpha_low: float
    alpha_high: float
    k: int
    kind: str


@dataclass(frozen=True)
class OrderingReport:
    ok: bool
    violation: OrderingViolation | None = None


def _row_slices(rows: int, p: int) -> list[slice]:
    """The row blocks of a walk over ``rows`` grid rows of width p, of about
    _ROW_BLOCK_ELEMS entries each."""
    step = max(1, _ROW_BLOCK_ELEMS // p)
    return [slice(start, min(start + step, rows)) for start in range(0, rows, step)]


def check_ordered(family: SmootherFamily, grid: AlphaGrid, spectrum: Spectrum) -> OrderingReport:
    """Verify the ordering of the family on the grid.

    Checks that each h profile is nondecreasing in lambda (equivalently
    nonincreasing in k) and that along the grid a larger alpha never exceeds
    a smaller one anywhere, which rules out crossings.  Returns the first
    violating (alpha pair, component) triple on failure, where a row not
    monotone in lambda beats any violation between two rows.  The h rows
    are formed one row block at a time, every block even after a violation.
    """
    alphas = grid.values.tolist()  # Python floats, whose repr the violation prints
    violation, last = None, None  # last: the previous block's last row, as a 1 x p block
    for block in _row_slices(len(grid), spectrum.retained.size):
        rows = h_values(family, grid.values[block], spectrum)
        if violation is not None and violation.kind == "not monotone in lambda":
            continue
        # argwhere is row-major, so its first hit is the first row, then component
        rising = np.argwhere(np.diff(rows, axis=1) > _ORDER_ATOL)
        if rising.size:
            i, k = block.start + rising[0][0], rising[0][1]
            violation = OrderingViolation(alphas[i], alphas[i], int(k) + 1, "not monotone in lambda")
        elif violation is None:
            # consecutive rows suffice: pointwise dominance is transitive along the grid
            pairs = rows if last is None else np.concatenate((last, rows))
            diff = pairs[1:] - pairs[:-1]
            above = np.argwhere(diff > _ORDER_ATOL)
            if above.size:
                j, k = above[0]
                i = block.stop - len(pairs) + j
                kind = "crossing" if np.any(diff[j] < -_ORDER_ATOL) else "grid direction"
                violation = OrderingViolation(alphas[i], alphas[i + 1], int(k) + 1, kind)
        last = rows[-1:]
    return OrderingReport(violation is None, violation)


def _row_kernels(h: np.ndarray, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The noise weights h (2 - h) / lambda of the h rows, whose row norms
    give the noise scale d, and their squared residual factors (1 - h)^2,
    whose row sums are the residual degrees of freedom, formed in place in
    h (the same bits as (1 - h) ** 2), which the call consumes."""
    t = 2.0 - h
    t *= h
    t /= lam
    np.subtract(1.0, h, out=h)
    h *= h
    return t, h


def default_grid(
    family: SmootherFamily,
    spectrum: Spectrum,
    points: int | None = None,
    floor: bool = True,
) -> AlphaGrid:
    """Standard grid for a family.

    cutoff: the reciprocals {1/m : m = p..1} (``points`` is ignored).
    tikhonov/landweber: geometric with ``points`` values between
    lambda(p)/10 and 10*lambda(1).  With ``floor`` the lower end is then
    raised to the first grid point whose row keeps sum (1-h)^2 >=
    max(10, p/10) residual degrees of freedom to estimate the noise level
    from, summed as the penalty table's ``one_minus_h_norm2`` column, so the
    table's floor row meets the bound exactly.  ``floor=False`` keeps the
    full range.
    """
    lam = spectrum.retained
    if family.kind == "cutoff":
        values = 1.0 / np.arange(lam.size, 0, -1, dtype=float)
    elif family.kind == "table":
        values = np.sort(np.asarray(family.alphas, dtype=float))
    else:
        if points is None or points < 2:
            raise ValueError("invalid input: need points >= 2 for a geometric grid")
        values = np.geomspace(lam[-1] / 10.0, 10.0 * lam[0], int(points))
    if floor:
        # walk the row blocks up to the first one that holds the floor row
        for block in _row_slices(values.size, lam.size):
            with np.errstate(over="ignore"):  # the noise weights are not read here
                dof = np.sum(_row_kernels(h_values(family, values[block], spectrum), lam)[1], axis=1)
            keep = np.flatnonzero(dof >= max(10.0, lam.size / 10.0))
            if keep.size:
                values = values[block.start + keep[0]:]
                break
        else:
            raise ValueError("alpha floor infeasible: no grid point satisfies the floor rule")
    return AlphaGrid(values)
