"""Exact risk functionals, the penalized oracle, and the Monte Carlo harness.

The harness validates the selector against the penalized oracle risk: every
replication draws its observation from a private stream derived from
(master seed, replication index), runs the selector, and records the loss.
Aggregation is a deterministic fold in replication order, so reports are
bitwise reproducible for a fixed configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .core import SpectralModel, _observe, replication_stream
from .penalty import PenaltyTable
from .selection import _select_rows

__all__ = [
    "RiskProfile",
    "risk_profile",
    "risk_bound",
    "excess_sup_stat",
    "BenchReport",
    "mc_run",
]

_EXCESS_QUANTILES = (0.5, 0.9, 0.95, 0.99)
# Replications per block of mc_run.  On the 900 x 1000 cutoff table of k^-2
# with one BLAS thread (2-vCPU AVX-512 Xeon), one mc_run (R=300) takes
# 0.024-0.026 s with blocks of 32 or 64 and 0.028-0.031 s with one block of
# 300 (medians of 7 interleaved runs, two sessions), and its traced peak
# beyond the table is 2.5 MB with 32, 4.9 MB with 64 and 18.1 MB with 300.
_BLOCK = 32


@dataclass(frozen=True)
class RiskProfile:
    """Exact and penalized risks per grid point, plus the oracle point.

    Rows with no residual degrees of freedom (h identically 1, where the
    table's ``one_minus_h_norm2`` is 0) carry an infinite penalized risk.
    ``r`` is the least penalized risk; ``oracle_index`` is the last row of
    the run of bit-identical h rows that attains it, where selection reports
    its picks of that model too.
    """

    risks: np.ndarray
    penalized: np.ndarray
    r: float
    oracle_index: int


def risk_profile(model: SpectralModel, table: PenaltyTable) -> RiskProfile:
    """Evaluate on every grid row, from the table's columns, the exact risk
    sum (1-h)^2 beta^2 + sigma^2 sum h^2 / lambda and the penalized risk: the
    exact risk plus the adaptive term (1 + gamma) sigma^2 q_plus and the bias
    inflation pen_total sum lambda (1-h)^2 beta^2 / sum (1-h)^2 from plugging
    in the variance estimate.  The two sums of (1-h)^2 against beta^2 and
    lambda beta^2 are the table's row-kernel products, one vector each,
    which can round bit-identical rows differently."""
    lam = model.spectrum.retained
    if not np.array_equal(table.spectrum.retained, lam):
        raise ValueError("dimension error: table and model spectra differ")
    beta2 = model.coefficients * model.coefficients
    sigma2 = model.sigma ** 2
    dof = table.one_minus_h_norm2
    risks = table._kernel_products(beta2, noise=False)[1] + sigma2 * table.h_lambda_norm2
    with np.errstate(divide="ignore", invalid="ignore"):
        inflation = table.pen_total * table._kernel_products(lam * beta2, noise=False)[1] / dof
    adaptive = (1.0 + table.gamma) * sigma2 * table.q_plus
    penalized = np.where(dof > 0.0, risks + adaptive + inflation, np.inf)
    best = int(np.argmin(penalized))
    return RiskProfile(
        risks=risks,
        penalized=penalized,
        r=float(penalized[best]),
        oracle_index=int(table.tie_end[best]),
    )


def risk_bound(
    oracle: float,
    sigma2: float,
    d_ref: float,
    span: float,
    gamma: float,
    c: float = 1.0,
) -> float:
    """Upper bound on the selector risk in oracle terms.

    ``c`` is a user constant (the analysis only provides its existence), so
    the bound is a library function only: ``mc_run`` does not report it, as
    with c = 1 its margin 1 - c span / gamma needs span < gamma < 1/4.
    Raises when the scale preconditions fail, flagged as "bound not
    evaluable".
    """
    if not (float(sigma2) > 0.0 and float(d_ref) > 0.0 and float(gamma) > 0.0):
        raise ValueError("bound not evaluable: need positive sigma2, d_ref and gamma")
    log_arg = oracle / (sigma2 * d_ref)
    growth_arg = oracle / (sigma2 * gamma * d_ref) + gamma ** -4
    margin = 1.0 - c * span / gamma
    if not (growth_arg > math.e and log_arg > 1.0 and margin > 0.0):
        raise ValueError("bound not evaluable: scale preconditions fail")
    main = (1.0 + c * span + c / math.sqrt(math.log(log_arg))) * oracle
    tail = c * sigma2 * d_ref / (margin * math.sqrt(gamma)) * (growth_arg / math.log(growth_arg))
    return float(main + tail)


def excess_sup_stat(table: PenaltyTable, xi: np.ndarray):
    """The positive part of the worst penalized noise excess of the standard
    normal draw xi.

    Forms the quadratic functional sum lambda^-1 (2h - h^2)(xi^2 - 1) on
    every grid row, and returns the positive part of its supremum over the
    grid after subtracting (1 + gamma) * q_plus, with gamma from the table.
    A block of draws, one per row of ``xi``, gives an array with one
    statistic per draw.
    """
    xi = np.asarray(xi, dtype=float)
    noise = table._kernel_products((xi * xi - 1.0).T, resid=False)[0]
    excess = noise.T - (1.0 + table.gamma) * table.q_plus
    sup = np.maximum(np.max(excess, axis=-1), 0.0)
    return float(sup) if sup.ndim == 0 else sup


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
    losses: np.ndarray = field(repr=False)
    alpha_hat_indices: np.ndarray = field(repr=False)
    sigma_hat2s: np.ndarray = field(repr=False)
    excess_sups: np.ndarray = field(repr=False)

    def to_dict(self) -> dict:
        """JSON-ready summary: every field but the per-replication arrays,
        which go to the CSV.  Non-finite floats map to null so the output
        stays strict JSON."""

        def finite(value):
            return None if isinstance(value, float) and not math.isfinite(value) else value

        out = {f.name: finite(getattr(self, f.name)) for f in fields(self) if f.repr}
        out["alpha_hat_histogram"] = list(self.alpha_hat_histogram)
        out["excess_sup_quantiles_norm"] = {
            str(q): finite(v) for q, v in self.excess_sup_quantiles_norm.items()}
        return out


def mc_run(
    model: SpectralModel,
    table: PenaltyTable,
    mode: str,
    replications: int,
    master_seed: int,
    penalty: str = "total",
    sigma2: float | None = None,
) -> BenchReport:
    """Run the seeded Monte Carlo experiment on the grid of the table, which
    must be built on the model's retained eigenvalues.

    Replication i consumes its private stream (master_seed, i): first the
    observation draw, then the excess-statistic draw.  In known-sigma mode
    the true model variance is used unless ``sigma2`` overrides it.  The
    replications are drawn and evaluated in blocks of ``_BLOCK``, each
    through one product per row kernel of the table.
    """
    if replications < 1:
        raise ValueError("invalid input: replications must be >= 1")
    profile = risk_profile(model, table)
    beta = model.coefficients
    known_sigma2 = model.sigma ** 2 if sigma2 is None else float(sigma2)

    losses = np.empty(replications)
    indices = np.empty(replications, dtype=int)
    sigma2s = np.empty(replications)
    excesses = np.empty(replications)
    for start in range(0, replications, _BLOCK):
        block = slice(start, min(start + _BLOCK, replications))
        ys, xis = np.empty((2, block.stop - start, beta.size))
        for b, i in enumerate(range(start, block.stop)):
            rng = replication_stream(master_seed, i)
            rng.standard_normal(out=ys[b])
            rng.standard_normal(out=xis[b])
        _observe(model, ys)
        if not np.all(np.isfinite(ys)):
            raise ValueError("invalid input: non-finite observations")
        _, index, s2 = _select_rows(table, ys, mode, known_sigma2, penalty)
        losses[block] = np.sum((beta - table.h(index) * ys) ** 2, axis=1)
        indices[block] = index
        sigma2s[block] = s2[np.arange(index.size), index]  # NaN on a row with no residual dof
        excesses[block] = excess_sup_stat(table, xis)

    empirical = float(np.mean(losses))
    # the spread of the losses over the power of two of their maximum, an
    # exact scale under which the squared deviations cannot overflow
    scale = np.frexp(np.max(losses))[1]
    spread = np.ldexp(np.std(np.ldexp(losses, -scale), ddof=1), scale) if replications > 1 else 0.0
    se = float(spread / math.sqrt(replications))
    have_s2 = np.isfinite(sigma2s).any()
    d_ref = table.d_ref
    return BenchReport(
        replications=replications,
        seed=master_seed,
        gamma=table.gamma,
        mode=mode,
        penalty=penalty,
        empirical_risk=empirical,
        empirical_risk_se=se,
        oracle_risk=profile.r,
        oracle_alpha_index=profile.oracle_index,
        oracle_ratio=empirical / profile.r if profile.r > 0.0 else float("inf"),
        alpha_hat_histogram=tuple(int(c) for c in np.bincount(indices, minlength=len(table.alphas))),
        sigma_hat2_mean=float(np.nanmean(sigma2s)) if have_s2 else float("nan"),
        sigma_hat2_var=float(np.nanvar(sigma2s)) if have_s2 else float("nan"),
        excess_sup_mean_norm=float(np.mean(excesses) / d_ref),
        excess_sup_quantiles_norm={
            q: float(np.quantile(excesses, q) / d_ref) for q in _EXCESS_QUANTILES
        },
        d_ref=d_ref,
        psi=table.psi,
        losses=losses,
        alpha_hat_indices=indices,
        sigma_hat2s=sigma2s,
        excess_sups=excesses,
    )
