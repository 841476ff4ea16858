"""Spectral-coordinate representation of high dimensional linear models.

A design matrix X (n x p, n >= p) enters only through the eigenvalues and
eigenvectors of X'X.  Every downstream formula depends on the data through
the eigenvalues lambda(k) and the spectral observations y(k) alone, so
synthetic experiments can skip the matrix entirely and work with a
:class:`SpectralModel` in spectral coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Spectrum",
    "DecomposedDesign",
    "SpectralModel",
    "SpectralData",
    "decompose_design",
    "to_spectral",
    "simulate_observation",
    "reconstruct_estimate",
    "replication_stream",
    "polynomial_spectrum",
    "exponential_spectrum",
]


def _frozen_array(values) -> np.ndarray:
    """A read-only float array; one that is read-only already is not copied."""
    if isinstance(values, np.ndarray) and values.dtype == float and not values.flags.writeable:
        return values
    out = np.array(values, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of X'X, sorted nonincreasing, plus the retained count.

    Entries past ``effective_rank`` are kept for reporting only and take no
    part in any computation.
    """

    eigenvalues: np.ndarray
    effective_rank: int = -1

    def __post_init__(self):
        eig = _frozen_array(self.eigenvalues)
        if eig.ndim != 1 or eig.size == 0:
            raise ValueError("invalid input: eigenvalues must be a nonempty 1-d sequence")
        object.__setattr__(self, "eigenvalues", eig)
        rank = self.effective_rank if self.effective_rank >= 0 else eig.size
        if not 1 <= rank <= eig.size:
            raise ValueError("invalid input: effective_rank out of range")
        object.__setattr__(self, "effective_rank", int(rank))
        head = eig[:rank]
        if not np.all(np.isfinite(head)):
            raise ValueError("invalid input: non-finite eigenvalues")
        if head[-1] <= 0.0:
            raise ValueError("invalid input: retained eigenvalues must be positive")
        if np.any(np.diff(head) > 0.0):
            raise ValueError("invalid input: eigenvalues must be nonincreasing")

    @property
    def retained(self) -> np.ndarray:
        """Eigenvalues that survive rank truncation."""
        return self.eigenvalues[: self.effective_rank]


def polynomial_spectrum(p: int, exponent: float) -> Spectrum:
    """Spectrum with lambda(k) = k**-exponent, k = 1..p."""
    k = np.arange(1, p + 1, dtype=float)
    return Spectrum(k ** -float(exponent))


def exponential_spectrum(p: int, kappa: float) -> Spectrum:
    """Spectrum with lambda(k) = exp(-kappa * k), k = 1..p."""
    k = np.arange(1, p + 1, dtype=float)
    return Spectrum(np.exp(-float(kappa) * k))


@dataclass(frozen=True)
class DecomposedDesign:
    """Eigendecomposition of X'X, with X kept as X = Q R and R = U_R S V'.

    ``basis`` holds the orthonormal eigenvectors V of X'X as columns.  Q is
    kept as LAPACK keeps it: row j of ``reflectors`` holds column j of R on
    and left of the diagonal and the tail of the Householder vector v_j
    right of it, with Q = H_0 ... H_(p-1) and H_j = I - tau_j v_j v_j'.
    ``r_left_basis`` is the p x p U_R.  The left singular vectors of X are
    Q U_R; they are never formed, and the spectral transform of raw data
    never squares the condition number by forming X'X.
    """

    spectrum: Spectrum
    basis: np.ndarray
    n: int
    reflectors: np.ndarray
    tau: np.ndarray
    r_left_basis: np.ndarray

    def __post_init__(self):
        p = self.spectrum.eigenvalues.size
        for name, shape in (("basis", (p, p)), ("reflectors", (p, self.n)), ("tau", (p,)),
                            ("r_left_basis", (p, p))):
            value = _frozen_array(getattr(self, name))
            if value.shape != shape:
                raise ValueError(f"dimension error: {name} must have shape {shape}")
            object.__setattr__(self, name, value)
        gram = self.basis.T @ self.basis
        if float(np.max(np.abs(gram - np.eye(p)))) > 1e-10:
            raise ValueError("invalid input: basis columns are not orthonormal")


@dataclass(frozen=True)
class SpectralModel:
    """Simulation ground truth: spectrum, true coefficients, noise level."""

    spectrum: Spectrum
    coefficients: np.ndarray
    sigma: float

    def __post_init__(self):
        coef = _frozen_array(self.coefficients)
        if coef.shape != (self.spectrum.effective_rank,):
            raise ValueError("dimension error: coefficients must match effective_rank")
        if not np.all(np.isfinite(coef)):
            raise ValueError("invalid input: non-finite coefficients")
        sigma = float(self.sigma)
        if not (np.isfinite(sigma) and sigma >= 0.0):
            raise ValueError("invalid input: sigma must be a nonnegative real")
        object.__setattr__(self, "coefficients", coef)
        object.__setattr__(self, "sigma", sigma)


@dataclass(frozen=True)
class SpectralData:
    """One observation in spectral coordinates: y(k) paired with lambda(k),
    and the squared norm ``residual2`` of the part of a raw Y orthogonal to
    the columns of X, pure noise with ``residual_dof`` = n - p degrees of
    freedom (0 and 0 for data without one)."""

    spectrum: Spectrum
    y: np.ndarray
    residual2: float = 0.0
    residual_dof: int = 0

    def __post_init__(self):
        y = _frozen_array(self.y)
        if y.shape != (self.spectrum.effective_rank,):
            raise ValueError("dimension error: y must match effective_rank")
        if not np.all(np.isfinite(y)):
            raise ValueError("invalid input: non-finite observations")
        if not (np.isfinite(self.residual2) and self.residual2 >= 0.0):
            raise ValueError("invalid input: residual2 must be finite and >= 0")
        if not isinstance(self.residual_dof, (int, np.integer)) or self.residual_dof < 0:
            raise ValueError("invalid input: residual_dof must be an integer >= 0")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "residual2", float(self.residual2))


def _check_rank_tol(rank_tol) -> float:
    rank_tol = float(rank_tol)
    if not 0.0 <= rank_tol <= 1.0:  # NaN fails too
        raise ValueError("invalid input: rank_tol must lie in [0, 1]")
    return rank_tol


def _check_x(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("invalid input: X must be a 2-d matrix")
    n, p = x.shape
    if n < p or p < 1:
        raise ValueError("invalid input: need n >= p >= 1")
    if not np.all(np.isfinite(x)):
        raise ValueError("invalid input: non-finite entries")
    return x


def decompose_design(x: np.ndarray, rank_tol: float = 1e-12) -> DecomposedDesign:
    """Decompose a design matrix into spectral form.

    The eigenvalues of X'X are the squared singular values of X; computing
    them from X is far better conditioned for severely ill-posed designs
    than forming X'X.  X is first factored as X = Q R by Householder
    reflections, then R = U_R S V' by an SVD of the p x p triangle (Chan's
    QR-first SVD), so no n x p matrix is formed besides the reflectors.
    For n >= 11p/6 LAPACK's SVD of X takes this route itself, and S and V
    are bit-identical to it.  Components with
    lambda(k) < rank_tol * lambda(1) are truncated and ``effective_rank``
    reduced accordingly; rank_tol must lie in [0, 1].
    """
    rank_tol = _check_rank_tol(rank_tol)
    x = _check_x(x)
    n, p = x.shape
    if not np.any(x):
        raise ValueError("degenerate design: all-zero matrix")
    reflectors, tau = np.linalg.qr(x, mode="raw")
    # Since CPython 3.11 a caller that passes X as a temporary (the CLI passes
    # the parsed CSV) leaves this frame its only reference, so X is freed here
    # before the SVD workspace is allocated; on 3.10 the caller still holds it.
    del x
    reflectors.setflags(write=False)  # a view of an array no one else holds
    r_left, sing, vt = np.linalg.svd(np.triu(reflectors[:, :p].T))
    lam = sing ** 2
    rank = int(np.count_nonzero(lam >= rank_tol * lam[0]))
    return DecomposedDesign(Spectrum(lam, rank), vt.T, n, reflectors, tau, r_left)


def _check_y(design: DecomposedDesign, y) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.shape != (design.n,):
        raise ValueError("dimension error: Y must have length n")
    if not np.all(np.isfinite(y)):
        raise ValueError("invalid input: non-finite entries")
    return y


def _rotate(design: DecomposedDesign, y: np.ndarray) -> np.ndarray:
    """Q'Y, by the p Householder reflections H_0, ..., H_(p-1) in turn."""
    z = _check_y(design, y).copy()
    for j, (row, tau) in enumerate(zip(design.reflectors, design.tau)):
        v = row[j + 1:]
        w = tau * (z[j] + v @ z[j + 1:])
        z[j] -= w
        z[j + 1:] -= w * v
    return z


def to_spectral(design: DecomposedDesign, y: np.ndarray) -> SpectralData:
    """Transform raw observations into spectral coordinates.

    Returns y(k) = <X'Y, psi_k> / lambda(k) for every retained component,
    evaluated as (U'Y)_k / s_k with s_k the singular values of X and
    U = Q U_R the left singular vectors: U'Y = U_R' (Q'Y)[:p] from one
    rotation Q'Y.  ``residual2`` is the sum of squares of the other n - p
    entries, so it cannot cancel when Y lies almost in the span of X.
    """
    p, rank = design.tau.size, design.spectrum.effective_rank
    with np.errstate(over="ignore", invalid="ignore"):  # SpectralData rejects non-finite results
        z = _rotate(design, y)
        proj = design.r_left_basis[:, :rank].T @ z[:p]
        return SpectralData(design.spectrum, proj / np.sqrt(design.spectrum.retained),
                            float(z[p:] @ z[p:]), design.n - p)


def simulate_observation(model: SpectralModel, rng: np.random.Generator) -> SpectralData:
    """Draw y(k) = beta(k) + sigma * g(k) / sqrt(lambda(k)) with g standard normal.

    Consumes exactly ``effective_rank`` draws from ``rng``; an identical
    stream state yields bitwise identical output.
    """
    g = rng.standard_normal(model.spectrum.effective_rank)
    return SpectralData(model.spectrum, _observe(model, g))


def _observe(model: SpectralModel, g: np.ndarray) -> np.ndarray:
    """The observations beta + sigma * g / sqrt(lambda) of the standard normal
    draws g, of shape (p,) or one row per observation, formed in place in g."""
    g *= model.sigma
    g /= np.sqrt(model.spectrum.retained)
    g += model.coefficients
    return g


def reconstruct_estimate(design: DecomposedDesign, filtered: np.ndarray) -> np.ndarray:
    """Map filtered spectral coefficients h(k) * y(k) back to coefficient space."""
    filtered = np.asarray(filtered, dtype=float)
    rank = design.spectrum.effective_rank
    if filtered.shape != (rank,):
        raise ValueError("dimension error: filtered must have length effective_rank")
    return design.basis[:, :rank] @ filtered


def replication_stream(master_seed: int, index: int) -> np.random.Generator:
    """Private random stream for one replication, derived from (seed, index)."""
    return np.random.default_rng(np.random.SeedSequence([master_seed, index]))

