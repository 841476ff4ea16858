"""Exact risk functionals, the penalized oracle, and the Monte Carlo harness.

The harness validates the selector against the penalized oracle risk: every
replication draws its observation from a private stream derived from
(master seed, replication index), runs the selector, and records the loss.
Aggregation is a deterministic fold in replication order, so reports are
bitwise reproducible for a fixed configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import SpectralModel, Spectrum, replication_stream, simulate_observation
from .penalty import PenaltyTable, build_penalty_table, _check_gamma
from .selection import select_alpha
from .smoothers import AlphaGrid, SmootherFamily

__all__ = [
    "exact_risk",
    "penalized_risk",
    "RiskProfile",
    "risk_profile",
    "oracle_risk",
    "growth_term",
    "risk_bound",
    "excess_sup_stat",
    "BenchReport",
    "mc_run",
]

_EXCESS_QUANTILES = (0.5, 0.9, 0.95, 0.99)


def exact_risk(model: SpectralModel, h) -> float:
    """Mean squared error sum (1-h)^2 beta^2 + sigma^2 sum h^2 / lambda."""
    lam = model.spectrum.retained
    h = np.asarray(h, dtype=float)
    if h.shape != lam.shape:
        raise ValueError("dimension error: h must match the retained spectrum")
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


@dataclass(frozen=True)
class RiskProfile:
    """Exact and penalized risks per grid point, plus the oracle point.

    Rows with no residual degrees of freedom (h identically 1) carry an
    infinite penalized risk and are listed in ``degenerate_rows``.
    """

    alphas: np.ndarray
    risks: np.ndarray
    penalized: np.ndarray
    degenerate_rows: tuple[int, ...]
    r: float
    oracle_index: int


def risk_profile(model: SpectralModel, table: PenaltyTable) -> RiskProfile:
    """Evaluate the exact and penalized risks on every grid row."""
    risks = np.empty(table.alphas.size)
    penalized = np.empty(table.alphas.size)
    degenerate = []
    for i, h in enumerate(table.h_rows):
        risks[i] = exact_risk(model, h)
        if table.one_minus_h_norm2[i] > 0.0:
            penalized[i] = penalized_risk(model, h, table.pen_total[i], table.q_plus[i], table.gamma)
        else:
            penalized[i] = np.inf
            degenerate.append(i)
    index = int(np.argmin(penalized))
    return RiskProfile(
        alphas=table.alphas,
        risks=risks,
        penalized=penalized,
        degenerate_rows=tuple(degenerate),
        r=float(penalized[index]),
        oracle_index=index,
    )


def oracle_risk(profile: RiskProfile) -> tuple[float, int]:
    """Best achievable penalized risk over the grid and where it is attained."""
    if profile.penalized.size == 0:
        raise ValueError("empty grid")
    index = int(np.argmin(profile.penalized))
    return float(profile.penalized[index]), index


def growth_term(x: float) -> float:
    """x / log(x), the slow-growth factor in the oracle bound."""
    return float(x) / math.log(x)


def risk_bound(
    oracle: float,
    sigma2: float,
    d_ref: float,
    span: float,
    gamma: float,
    c: float = 1.0,
) -> float:
    """Reported upper bound on the selector risk in oracle terms.

    ``c`` is a user constant (the analysis only provides its existence); the
    bound is reporting-only and never asserted by the harness.  Raises when
    the scale preconditions fail, flagged as "bound not evaluable".
    """
    if not (float(sigma2) > 0.0 and float(d_ref) > 0.0 and float(gamma) > 0.0):
        raise ValueError("bound not evaluable: need positive sigma2, d_ref and gamma")
    log_arg = oracle / (sigma2 * d_ref)
    growth_arg = oracle / (sigma2 * gamma * d_ref) + gamma ** -4
    margin = 1.0 - c * span / gamma
    if not (growth_arg > math.e and log_arg > 1.0 and margin > 0.0):
        raise ValueError("bound not evaluable: scale preconditions fail")
    main = (1.0 + c * span + c / math.sqrt(math.log(log_arg))) * oracle
    tail = c * sigma2 * d_ref / (margin * math.sqrt(gamma)) * growth_term(growth_arg)
    return float(main + tail)


def excess_sup_stat(
    spectrum: Spectrum,
    table: PenaltyTable,
    gamma: float,
    rng: np.random.Generator | None,
    xi: np.ndarray | None = None,
) -> float:
    """One draw of the positive part of the worst penalized noise excess.

    Draws xi standard normal, forms the quadratic functional
    sum lambda^-1 (2h - h^2)(xi^2 - 1) on every grid row, and returns the
    positive part of its supremum over the grid after subtracting
    (1 + gamma) * q_plus.  ``xi`` overrides the draw (test hook).
    """
    if not float(gamma) > 0.0:
        raise ValueError("invalid input: gamma must be positive")
    if xi is None:
        xi = rng.standard_normal(spectrum.retained.size)
    xi = np.asarray(xi, dtype=float)
    z = xi * xi - 1.0
    excess = table.noise_weights @ z - (1.0 + gamma) * table.q_plus
    return float(max(np.max(excess), 0.0))


@dataclass(frozen=True)
class BenchReport:
    """Aggregated Monte Carlo results plus the per-replication records."""

    replications: int
    seed: int
    gamma: float
    mode: str
    penalty: str
    empirical_risk: float
    empirical_risk_se: float
    oracle_risk: float
    oracle_alpha_index: int
    oracle_ratio: float
    alpha_hat_histogram: tuple[int, ...]
    sigma_hat2_mean: float
    sigma_hat2_var: float
    excess_sup_mean_norm: float
    excess_sup_quantiles_norm: dict[float, float]
    d_ref: float
    psi: float
    risk_bound: float | None
    losses: np.ndarray = field(repr=False)
    alpha_hat_indices: np.ndarray = field(repr=False)
    sigma_hat2s: np.ndarray = field(repr=False)
    excess_sups: np.ndarray = field(repr=False)

    def to_dict(self) -> dict:
        """JSON-ready summary (per-replication arrays go to the CSV instead).

        Non-finite scalars map to null so the output stays strict JSON.
        """

        def scalar(value):
            if value is None or not math.isfinite(value):
                return None
            return value

        return {
            "replications": self.replications,
            "seed": self.seed,
            "gamma": self.gamma,
            "mode": self.mode,
            "penalty": self.penalty,
            "empirical_risk": scalar(self.empirical_risk),
            "empirical_risk_se": scalar(self.empirical_risk_se),
            "oracle_risk": scalar(self.oracle_risk),
            "oracle_alpha_index": self.oracle_alpha_index,
            "oracle_ratio": scalar(self.oracle_ratio),
            "alpha_hat_histogram": list(self.alpha_hat_histogram),
            "sigma_hat2_mean": scalar(self.sigma_hat2_mean),
            "sigma_hat2_var": scalar(self.sigma_hat2_var),
            "excess_sup_mean_norm": scalar(self.excess_sup_mean_norm),
            "excess_sup_quantiles_norm": {
                str(k): scalar(v) for k, v in self.excess_sup_quantiles_norm.items()
            },
            "d_ref": scalar(self.d_ref),
            "psi": scalar(self.psi),
            "risk_bound": scalar(self.risk_bound),
        }


def mc_run(
    model: SpectralModel,
    family: SmootherFamily,
    grid: AlphaGrid,
    gamma: float,
    mode: str,
    replications: int,
    master_seed: int,
    penalty: str = "total",
    sigma2: float | None = None,
) -> BenchReport:
    """Run the seeded Monte Carlo experiment.

    Replication i consumes its private stream (master_seed, i): first the
    observation draw, then the excess-statistic draw.  In known-sigma mode
    the true model variance is used unless ``sigma2`` overrides it.
    """
    if replications < 1:
        raise ValueError("invalid input: replications must be >= 1")
    gamma = _check_gamma(gamma)
    table = build_penalty_table(family, grid, model.spectrum, gamma)
    profile = risk_profile(model, table)
    beta = model.coefficients
    known_sigma2 = model.sigma ** 2 if sigma2 is None else float(sigma2)

    losses = np.empty(replications)
    indices = np.empty(replications, dtype=int)
    sigma2s = np.empty(replications)
    excesses = np.empty(replications)
    for i in range(replications):
        rng = replication_stream(master_seed, i)
        data = simulate_observation(model, rng)
        sel = select_alpha(
            data, grid, table, mode,
            sigma2=known_sigma2 if mode == "known" else None,
            penalty=penalty,
        )
        losses[i] = float(np.sum((beta - sel.estimate) ** 2))
        indices[i] = sel.alpha_hat_index
        if sel.sigma_hat2 is not None:
            sigma2s[i] = sel.sigma_hat2
        elif table.resid_dof[sel.alpha_hat_index] > 0.0:
            resid2 = table.resid2[sel.alpha_hat_index]
            spectral_ss = float((model.spectrum.retained * resid2) @ (data.y * data.y))
            sigma2s[i] = spectral_ss / table.resid_dof[sel.alpha_hat_index]
        else:
            sigma2s[i] = np.nan
        excesses[i] = excess_sup_stat(model.spectrum, table, gamma, rng)

    empirical = float(np.mean(losses))
    se = float(np.std(losses, ddof=1) / math.sqrt(replications)) if replications > 1 else 0.0
    have_s2 = np.isfinite(sigma2s).any()
    d_ref = table.d_ref
    try:
        bound = risk_bound(profile.r, model.sigma ** 2, d_ref, table.psi, gamma)
    except ValueError:
        bound = None
    return BenchReport(
        replications=replications,
        seed=master_seed,
        gamma=gamma,
        mode=mode,
        penalty=penalty,
        empirical_risk=empirical,
        empirical_risk_se=se,
        oracle_risk=profile.r,
        oracle_alpha_index=profile.oracle_index,
        oracle_ratio=empirical / profile.r if profile.r > 0.0 else float("inf"),
        alpha_hat_histogram=tuple(int(c) for c in np.bincount(indices, minlength=len(grid))),
        sigma_hat2_mean=float(np.nanmean(sigma2s)) if have_s2 else float("nan"),
        sigma_hat2_var=float(np.nanvar(sigma2s)) if have_s2 else float("nan"),
        excess_sup_mean_norm=float(np.mean(excesses) / d_ref),
        excess_sup_quantiles_norm={
            q: float(np.quantile(excesses, q) / d_ref) for q in _EXCESS_QUANTILES
        },
        d_ref=d_ref,
        psi=table.psi,
        risk_bound=bound,
        losses=losses,
        alpha_hat_indices=indices,
        sigma_hat2s=sigma2s,
        excess_sups=excesses,
    )
