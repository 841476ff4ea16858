"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Pilot-frozen constants are marked FROZEN with the pilot value next to them.
Criterion 2 asserts the structural bounds the penalty provably satisfies:
the two lower bounds on q_plus and mu, and the log-form bound with its
proved constant 1/2 (the proof is in the test's docstring).  The verifier
also checks an auxiliary inequality that the penalty as defined violates:
the log-form bound with constant 1, which for flat damping profiles reduces
to log(2L) >= L with L = log(d/d_ref), false for every L >= 2.  Criterion 2
asserts that every violation the verifier reports is of this kind.  The
ratio monotonicity q_i/q_j >= d_i/d_j is checked by neither: it is
scale-free so no constant repairs it (it fails in 50-digit arithmetic, see
tests/test_penalty.py).
"""

from __future__ import annotations

import json
import math
import time
from functools import lru_cache

import numpy as np
import pytest

from specreg import (
    AlphaGrid,
    SmootherFamily,
    SpectralModel,
    Spectrum,
    build_penalty_table,
    default_grid,
    excess_sup_stat,
    exponential_spectrum,
    h_values,
    mc_run,
    polynomial_spectrum,
    replication_stream,
    risk_bound,
)
from specreg.cli import main as cli_main
from reference import cramer_term, exact_risk, pen_u

GAMMA = 0.1
FAMILY_KINDS = ("cutoff", "tikhonov", "landweber")
SPECTRA = ("k^-1", "k^-2", "e^-k/2", "e^-k")


def _spectrum(name: str, p: int) -> Spectrum:
    return {
        "k^-1": lambda: polynomial_spectrum(p, 1.0),
        "k^-2": lambda: polynomial_spectrum(p, 2.0),
        "e^-k/2": lambda: exponential_spectrum(p, 0.5),
        "e^-k": lambda: exponential_spectrum(p, 1.0),
    }[name]()


@lru_cache(maxsize=None)
def _criterion2_tables():
    """Full-grid penalty tables for every criterion-2 configuration."""
    tables = {}
    for p in (20, 100, 500):
        for sname in SPECTRA:
            spectrum = _spectrum(sname, p)
            for kind in FAMILY_KINDS:
                family = SmootherFamily(kind)
                grid = default_grid(family, spectrum, points=40, floor=False)
                table = build_penalty_table(family, grid, spectrum, GAMMA)
                tables[(p, sname, kind)] = (spectrum, table)
    return tables


def test_criterion_01_unbiasedness_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(200):
        p = int(rng.integers(1, 101))
        lam = np.sort(10.0 ** rng.uniform(math.log10(0.2), math.log10(5.0), p))[::-1]
        spectrum = Spectrum(lam)
        beta = rng.standard_normal(p)
        sigma = rng.uniform(0.1, 1.5)
        h = rng.uniform(0.0, 1.0, p)
        model = SpectralModel(spectrum, beta, sigma)
        left = exact_risk(model, h)
        resid2 = (1.0 - h) ** 2
        right = (
            float(resid2 @ (beta * beta))
            + sigma ** 2 * float(np.sum(resid2 / lam))
            + sigma ** 2 * pen_u(h, spectrum)
            - sigma ** 2 * float(np.sum(1.0 / lam))
        )
        worst = max(worst, abs(left - right) / max(abs(left), abs(right)))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12 and elapsed < 1.0
    print(f"criterion 1: {'PASS' if ok else 'FAIL'} "
          f"(worst relative gap {worst:.3e}, {elapsed:.2f}s)")
    assert worst <= 1e-12
    assert elapsed < 1.0


# The message prefix of the auxiliary inequality of
# verify_penalty_inequalities.  Criterion 2 explains why it does not hold.
_AUXILIARY_KIND = "noise scale below the log bound at alpha="


def _penalty_structure(table, rtol: float):
    """Criterion-2 failures of one table, the worst margin of the proved
    log-form bound, and the count of the auxiliary constant-1 log-form rows
    recomputed from the columns as the verifier states them.

    Every comparison carries the verifier's relative slack
    ``rtol * max(|lhs|, |rhs|, 1)``.
    """
    d, mu, q = table.d, table.mu, table.q_plus
    log_r = np.maximum(np.log(d) - np.log(d[-1]), 0.0)
    failures = []

    def below(lhs, rhs):
        return lhs < rhs - rtol * np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1.0)

    with np.errstate(divide="ignore", invalid="ignore"):
        per_mu = np.where(mu > 0.0, log_r / mu, 0.0)
    if np.any(below(q, d * np.maximum(np.sqrt(log_r), per_mu))):
        failures.append("q_plus < d*max(sqrt(L), L/mu)")
    mu_bound = np.minimum(0.5 * np.sqrt(log_r), 0.25)
    if np.any(mu < mu_bound - rtol * np.maximum(mu_bound, 1.0)):
        failures.append("mu < min(sqrt(L)/2, 1/4)")

    separated = d >= np.exp(2.0) * d[-1]
    d_sep, muq = d[separated], mu[separated] * q[separated]
    inner = muq / d[-1]
    margin, log_rows = np.inf, 0
    if np.any(inner <= 1.0):
        failures.append("mu*q_plus/d_ref <= 1 where d >= e^2 d_ref")
    elif inner.size:
        rhs = muq / np.log(inner)  # the constant-1 form the verifier checks
        if np.any(below(d_sep, 0.5 * rhs)):
            failures.append("d < mu*q_plus / (2 log(mu*q_plus/d_ref))")
        margin = float(np.min(d_sep / (0.5 * rhs)))
        log_rows = int(np.count_nonzero(below(d_sep, rhs)))
    return failures, margin, log_rows


def test_criterion_02_penalty_structure():
    """Structural bounds of the adaptive penalty on every table.

    Per row, with L = log(d/d_ref) and relative slack rtol:

    1. Lower bounds: q_plus >= d*max(sqrt(L), L/mu) and
       mu >= min(sqrt(L)/2, 1/4).
    2. Log-form bound with its proved constant: on rows with
       d >= e^2 d_ref, mu*q_plus/d_ref > 1 and
       d >= mu*q_plus / (2*log(mu*q_plus/d_ref)).
       Proof.  Let x_k = mu*rho_k with sum rho^2 = 1 and
       u = mu*q_plus/d = sum 2x^2/(1-2x).  Then L = sum cramer_term(x)
       = u - sum phi(x) with phi(x) = -log(1-2x)/2 - x.  Termwise
       0 <= phi <= cramer_term: with s = 2x, 2*phi = sum_{n>=2} s^n/n
       <= (1/2) sum_{n>=2} s^n = 2x^2/(1-2x).  So L <= u <= 2L, and
       log(mu*q_plus/d_ref) = log(u) + L > L >= u/2 because u >= L >= 2.
       Flat profiles drive u/L to 2, so the 1/2 is sharp; it is also why
       the constant-1 form reduces to log(2L) >= L, false for L >= 2.
    3. The ratio monotonicity q_i/q_j >= d_i/d_j is not asserted, and the
       verifier does not check it.  It is scale-free in q_plus, so no
       constant repairs it, and it fails in 50-digit arithmetic
       (tests/test_penalty.py,
       TestVerifyPenaltyInequalities.test_ratio_monotonicity_fails_in_high_precision).
    4. verify_penalty_inequalities lists no guaranteed-kind violation,
       every auxiliary violation it lists is of the constant-1 log form,
       and their count matches the count of those rows recomputed here.
    """
    from specreg import verify_penalty_inequalities

    rtol = 1e-9
    started = time.perf_counter()
    failures = []
    worst_margin = np.inf
    log_rows = 0
    for (p, sname, kind), (_, table) in _criterion2_tables().items():
        broken, margin, n_log = _penalty_structure(table, rtol)
        guaranteed, auxiliary = verify_penalty_inequalities(table)
        if guaranteed:
            broken.append(f"verifier reports a guaranteed-kind violation: {guaranteed[:5]}")
        if not all(v.startswith(_AUXILIARY_KIND) for v in auxiliary):
            broken.append("verifier reports an auxiliary violation of another kind")
        if len(auxiliary) != n_log:
            broken.append(f"verifier lists {len(auxiliary)} auxiliary violations, "
                          f"expected {n_log} log-form")
        if broken:
            failures.append((p, sname, kind, broken))
        worst_margin = min(worst_margin, margin)
        log_rows += n_log
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 10.0
    print(f"criterion 2: {'PASS' if ok else 'FAIL'} "
          f"({len(failures)}/{len(_criterion2_tables())} configs violate, "
          f"worst proved log-form margin {worst_margin:.4f}; auxiliary, not asserted: "
          f"{log_rows} constant-1 log-form rows; {elapsed:.2f}s)")
    for p, sname, kind, broken in failures:
        print(f"  p={p} {sname} {kind}: " + "; ".join(broken))
    assert elapsed < 10.0
    assert not failures, "the penalty violates a bound it provably satisfies"


def test_criterion_03_root_solver():
    started = time.perf_counter()
    worst_resid = 0.0
    worst_mu_margin = np.inf
    rows = 0
    for (_, _, _), (spectrum, table) in _criterion2_tables().items():
        lam = spectrum.retained
        d_ref = table.d_ref
        for i, h in enumerate(table.h(slice(None))):
            d, mu = float(table.d[i]), float(table.mu[i])
            log_ratio = max(math.log(d) - math.log(d_ref), 0.0)
            rho = np.sqrt(2.0) * (h * (2.0 - h) / lam) / d
            resid = abs(float(np.sum(cramer_term(mu * rho))) - log_ratio)
            worst_resid = max(worst_resid, resid / max(1.0, log_ratio))
            bound = min(0.5 * math.sqrt(log_ratio), 0.25)
            if bound > 0.0:
                worst_mu_margin = min(worst_mu_margin, mu / bound)
            rows += 1
    elapsed = time.perf_counter() - started
    ok = worst_resid <= 1e-10 and worst_mu_margin >= 1.0 - 1e-9
    print(f"criterion 3: {'PASS' if ok else 'FAIL'} "
          f"({rows} rows, worst residual {worst_resid:.3e}, "
          f"worst mu margin {worst_mu_margin:.4f}, {elapsed:.2f}s)")
    assert worst_resid <= 1e-10
    assert worst_mu_margin >= 1.0 - 1e-9


def test_criterion_04_rate_function_bound():
    xs = np.linspace(0.0, 0.4999, 10_000)
    gap = cramer_term(xs) - xs * xs / (1.0 - 2.0 * xs)
    worst = float(np.min(gap))
    ok = worst >= -1e-14
    print(f"criterion 4: {'PASS' if ok else 'FAIL'} (worst gap {worst:.3e} at "
          f"x={xs[int(np.argmin(gap))]:.4f})")
    assert worst >= -1e-14


def test_criterion_05_covariance_inequality():
    rng = np.random.default_rng(1005)
    p = 50
    spectrum = polynomial_spectrum(p, 1.0)
    weights2 = rng.standard_normal((100, p)) ** 2
    worst = np.inf
    for kind in FAMILY_KINDS:
        family = SmootherFamily(kind)
        grid = default_grid(family, spectrum, points=25, floor=False)
        rows = np.array([h_values(family, a, spectrum) for a in grid.values])
        for i in range(len(grid.values)):
            for j in range(i + 1, len(grid.values)):
                lhs = weights2 @ ((rows[i] - rows[j]) ** 2)
                rhs = np.abs(weights2 @ ((1 - rows[i]) ** 2 - (1 - rows[j]) ** 2))
                margin = np.min(rhs * (1 + 1e-10) + 1e-12 - lhs)
                worst = min(worst, float(margin))
    ok = worst >= 0.0
    print(f"criterion 5: {'PASS' if ok else 'FAIL'} (worst margin {worst:.3e})")
    assert worst >= 0.0


def test_criterion_06_variance_calibration():
    started = time.perf_counter()
    p, sigma, reps = 100, 1.0, 100_000
    spectrum = polynomial_spectrum(p, 1.0)
    lam = spectrum.retained
    family = SmootherFamily("tikhonov")
    grid = default_grid(family, spectrum, points=40)
    rng = np.random.default_rng(606)
    noise = sigma * rng.standard_normal((reps, p)) / np.sqrt(lam)
    lines = []
    ok = True

    h = h_values(family, grid.values[0], spectrum)
    resid2 = (1.0 - h) ** 2
    samples = (noise * noise) @ (lam * resid2) / resid2.sum()
    se = samples.std(ddof=1) / math.sqrt(reps)
    dev = abs(float(samples.mean()) - sigma ** 2)
    ok &= dev < 4.0 * se
    lines.append(f"zero-signal mean {samples.mean():.6f} (dev {dev / se:.2f} SE)")

    beta = 1.0 / np.arange(1.0, p + 1.0)
    for alpha in (float(grid.values[0]), float(grid.values[len(grid) // 2])):
        h = h_values(family, alpha, spectrum)
        resid2 = (1.0 - h) ** 2
        ys = beta + noise
        samples = (ys * ys) @ (lam * resid2) / resid2.sum()
        want = sigma ** 2 + float(resid2 @ (lam * beta * beta)) / float(resid2.sum())
        se = samples.std(ddof=1) / math.sqrt(reps)
        dev = abs(float(samples.mean()) - want)
        ok &= dev < 4.0 * se
        lines.append(f"beta-bias at alpha={alpha:.4g}: mean {samples.mean():.6f} "
                     f"target {want:.6f} (dev {dev / se:.2f} SE)")

    elapsed = time.perf_counter() - started
    ok &= elapsed < 60.0
    print(f"criterion 6: {'PASS' if ok else 'FAIL'} ({'; '.join(lines)}, {elapsed:.1f}s)")
    assert ok


def test_criterion_07_oracle_behavior():
    started = time.perf_counter()
    p = 200
    spectrum = polynomial_spectrum(p, 2.0)
    beta = 1.0 / np.arange(1.0, p + 1.0)
    family = SmootherFamily("cutoff")
    grid = default_grid(family, spectrum)
    table = build_penalty_table(family, grid, spectrum, GAMMA)
    ratios = {}
    report_at = {}
    for sigma in (0.05, 0.02):
        model = SpectralModel(spectrum, beta, sigma)
        report = mc_run(model, table, "unknown", 500, 20260809)
        ratios[sigma] = report.oracle_ratio
        report_at[sigma] = report
    ratio_cap = 1.0  # FROZEN from the pilot run of this exact config: 0.8341
    flat_slack = 0.02
    # the bound constant is user-supplied; a small value keeps the margin
    # precondition satisfiable for this wide grid span (c=1 is flagged
    # not-evaluable, which is why the bench report carries no bound)
    bound = risk_bound(
        report_at[0.05].oracle_risk, 0.05 ** 2, report_at[0.05].d_ref,
        report_at[0.05].psi, GAMMA, c=0.01,
    )
    elapsed = time.perf_counter() - started
    ok = (
        math.isfinite(ratios[0.05])
        and ratios[0.05] <= ratio_cap
        and ratios[0.02] <= ratios[0.05] + flat_slack
        and math.isfinite(bound)
        and bound > report_at[0.05].empirical_risk
        and elapsed < 300.0
    )
    print(f"criterion 7: {'PASS' if ok else 'FAIL'} "
          f"(ratio@0.05={ratios[0.05]:.4f} <= {ratio_cap}, ratio@0.02={ratios[0.02]:.4f}, "
          f"reported bound {bound:.4g} > empirical {report_at[0.05].empirical_risk:.4g}, "
          f"{elapsed:.1f}s)")
    assert ok


def test_criterion_08_severely_ill_posed_comparison():
    started = time.perf_counter()
    p = 30
    k = np.arange(1.0, p + 1.0)
    beta = np.exp(-k / 4.0)
    family = SmootherFamily("cutoff")
    medians = {}
    tails = {}
    for kappa in (0.5, 1.0, 2.0):
        spectrum = exponential_spectrum(p, kappa)
        table = build_penalty_table(family, default_grid(family, spectrum), spectrum, GAMMA)
        model = SpectralModel(spectrum, beta, 0.1)
        for penalty in ("total", "unbiased"):
            report = mc_run(model, table, "unknown", 500, 8261, penalty=penalty)
            med = float(np.median(report.losses))
            q95 = float(np.quantile(report.losses, 0.95))
            medians[(kappa, penalty)] = med
            tails[(kappa, penalty)] = q95 / med
    elapsed = time.perf_counter() - started
    ordered = all(medians[(kappa, "total")] <= medians[(kappa, "unbiased")] for kappa in (1.0, 2.0))
    ok = ordered and elapsed < 300.0
    print(f"criterion 8: {'PASS' if ok else 'FAIL'} (median adaptive vs unbiased: "
          + ", ".join(
              f"kappa={kappa}: {medians[(kappa, 'total')]:.3g} vs {medians[(kappa, 'unbiased')]:.3g}"
              for kappa in (0.5, 1.0, 2.0)
          )
          + f"; {elapsed:.1f}s)")
    # reported, not asserted: tail behavior of both selectors
    print("  reported tail ratios (q95/median): "
          + ", ".join(
              f"kappa={kappa}: adaptive {tails[(kappa, 'total')]:.3g} "
              f"(<=10x: {tails[(kappa, 'total')] <= 10.0}), "
              f"unbiased {tails[(kappa, 'unbiased')]:.3g}"
              for kappa in (0.5, 1.0, 2.0)
          ))
    assert ordered
    assert elapsed < 300.0


def test_criterion_09_excess_statistic_stability():
    started = time.perf_counter()
    family = SmootherFamily("cutoff")
    means = {}
    for p in (50, 200, 400):
        spectrum = polynomial_spectrum(p, 2.0)
        grid = default_grid(family, spectrum, floor=False)
        table = build_penalty_table(family, grid, spectrum, GAMMA)
        total = 0.0
        for i in range(10_000):
            total += excess_sup_stat(table, replication_stream(4242, i).standard_normal(p))
        means[p] = total / 10_000 / table.d_ref
    mean_cap = 0.45  # FROZEN from the pilot run: 0.3582 for every p
    growth_slack = 0.02
    elapsed = time.perf_counter() - started
    ok = (
        all(means[p] <= mean_cap for p in means)
        and means[400] <= means[50] + growth_slack
        and means[200] <= means[50] + growth_slack
        and elapsed < 300.0
    )
    print(f"criterion 9: {'PASS' if ok else 'FAIL'} "
          f"(mean/d_ref: p50={means[50]:.4f}, p200={means[200]:.4f}, "
          f"p400={means[400]:.4f}, cap {mean_cap}, {elapsed:.1f}s)")
    assert ok


def test_criterion_10_end_to_end_determinism(tmp_path):
    config = {
        "problem": {
            "generator": {
                "spectrum": {"kind": "polynomial", "p": 50, "exponent": 2.0},
                "signal": {"kind": "polynomial", "exponent": 1.0},
                "sigma": 0.1,
            }
        },
        "family": {"kind": "cutoff"},
        "grid": {"floor": "default"},
        "gamma": GAMMA,
        "mode": "unknown",
        "replications": 40,
        "seed": 7,
    }
    config_path = tmp_path / "bench.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    outputs = {}
    for tag in ("first", "second"):
        report = tmp_path / f"{tag}.json"
        reps = tmp_path / f"{tag}.csv"
        code = cli_main([
            "bench", "--config", str(config_path),
            "--out", str(report), "--rep-out", str(reps),
        ])
        assert code == 0
        outputs[tag] = (report.read_bytes(), reps.read_bytes())
    ok = outputs["first"] == outputs["second"]
    print(f"criterion 10: {'PASS' if ok else 'FAIL'} (bench outputs byte-identical: {ok})")
    assert ok
    payload = json.loads(outputs["first"][0])
    assert "oracle_ratio" in payload
