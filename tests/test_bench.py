"""Tests for the risk functionals, the oracle profile, and the MC harness."""

from __future__ import annotations

import math

import numpy as np
import pytest

from specreg import (
    AlphaGrid,
    SmootherFamily,
    SpectralModel,
    build_penalty_table,
    default_grid,
    exact_risk,
    excess_sup_stat,
    growth_term,
    mc_run,
    oracle_risk,
    penalized_risk,
    polynomial_spectrum,
    replication_stream,
    risk_bound,
    risk_profile,
)


def _model(p=12, exponent=2.0, sigma=0.2, signal=1.0):
    s = polynomial_spectrum(p, exponent)
    beta = signal / np.arange(1.0, p + 1.0)
    return SpectralModel(s, beta, sigma)


class TestExactRisk:
    def test_full_smoother_gives_least_squares_risk(self):
        model = _model(sigma=0.5)
        want = 0.25 * float(np.sum(1.0 / model.spectrum.retained))
        assert exact_risk(model, np.ones(12)) == pytest.approx(want, rel=1e-14)

    def test_zero_smoother_gives_signal_energy(self):
        model = _model()
        assert exact_risk(model, np.zeros(12)) == pytest.approx(
            float(model.coefficients @ model.coefficients), rel=1e-14
        )

    def test_noiseless_bias_only(self):
        model = _model(sigma=0.0)
        h = np.linspace(1.0, 0.0, 12)
        want = float(((1 - h) ** 2) @ (model.coefficients ** 2))
        assert exact_risk(model, h) == pytest.approx(want, rel=1e-14)


class TestPenalizedRisk:
    def test_zero_signal(self):
        s = polynomial_spectrum(8, 1.0)
        model = SpectralModel(s, np.zeros(8), 0.4)
        h = np.linspace(0.9, 0.1, 8)
        got = penalized_risk(model, h, pen_total=5.0, q_plus_val=2.0, gamma=0.1)
        want = exact_risk(model, h) + 1.1 * 0.16 * 2.0
        assert got == pytest.approx(want, rel=1e-14)

    def test_reference_row_has_no_adaptive_term(self):
        model = _model()
        h = np.linspace(0.5, 0.01, 12)
        lam = model.spectrum.retained
        beta2 = model.coefficients ** 2
        resid2 = (1 - h) ** 2
        pen = 3.0
        want = exact_risk(model, h) + pen * float(resid2 @ (lam * beta2)) / float(np.sum(resid2))
        assert penalized_risk(model, h, pen, 0.0, 0.1) == pytest.approx(want, rel=1e-14)

    def test_mean_shifted_contrast_matches(self):
        # MC expectation of the unknown-sigma contrast plus the alpha-free
        # shift -(sum (y-b)^2) should match the closed form within 4 SE
        from specreg import pen_u

        rng = np.random.default_rng(51)
        p, sigma, reps = 8, 0.5, 100_000
        s = polynomial_spectrum(p, 1.0)
        lam = s.retained
        beta = 1.0 / np.arange(1.0, p + 1.0)
        model = SpectralModel(s, beta, sigma)
        h = np.linspace(0.95, 0.2, p)
        resid2 = (1 - h) ** 2
        q_val, gamma = 1.5, 0.1
        pen_total = pen_u(h, s) + (1 + gamma) * q_val
        want = penalized_risk(model, h, pen_total, q_val, gamma)
        ys = beta + sigma * rng.standard_normal((reps, p)) / np.sqrt(lam)
        base = (ys * ys) @ resid2
        s2 = (ys * ys) @ (lam * resid2) / np.sum(resid2)
        shift = ((ys - beta) ** 2) @ np.ones(p)
        samples = base + s2 * pen_total - shift
        se = np.std(samples, ddof=1) / math.sqrt(reps)
        assert abs(np.mean(samples) - want) < 4.0 * se


class TestRiskProfile:
    def _table(self, model, floor_rule=None):
        family = SmootherFamily.cutoff()
        grid = default_grid(family, model.spectrum, floor_rule=floor_rule)
        return build_penalty_table(family, grid, model.spectrum, 0.1), grid

    def test_degenerate_rows_flagged(self):
        model = _model()
        table, grid = self._table(model)  # full cutoff grid includes h == 1
        profile = risk_profile(model, table)
        assert profile.degenerate_rows == (0,)
        assert np.isinf(profile.penalized[0])

    def test_penalized_dominates_exact(self):
        model = _model()
        table, _ = self._table(model)
        profile = risk_profile(model, table)
        finite = np.isfinite(profile.penalized)
        assert np.all(profile.penalized[finite] >= profile.risks[finite])

    def test_zero_signal_oracle_is_smoothest(self):
        s = polynomial_spectrum(15, 1.0)
        model = SpectralModel(s, np.zeros(15), 0.3)
        table, grid = self._table(model)
        profile = risk_profile(model, table)
        assert profile.oracle_index == len(grid) - 1

    def test_oracle_matches_independent_reevaluation(self):
        model = _model(p=200, sigma=0.05)
        table, grid = self._table(model)
        profile = risk_profile(model, table)
        redone = []
        for i, h in enumerate(table.h_rows):
            if table.one_minus_h_norm2[i] == 0.0:
                redone.append(np.inf)
                continue
            redone.append(
                penalized_risk(model, h, table.pen_total[i], table.q_plus[i], 0.1)
            )
        assert profile.oracle_index == int(np.argmin(redone))
        r, idx = oracle_risk(profile)
        assert idx == profile.oracle_index
        assert r == pytest.approx(min(redone), rel=1e-14)

    def test_single_row(self):
        s = polynomial_spectrum(6, 1.0)
        model = SpectralModel(s, np.ones(6), 0.2)
        grid = AlphaGrid([0.5])
        table = build_penalty_table(SmootherFamily.cutoff(), grid, s, 0.1)
        profile = risk_profile(model, table)
        assert oracle_risk(profile) == (profile.penalized[0], 0)


class TestRiskBound:
    def test_degenerate_constants_give_oracle(self):
        assert risk_bound(10.0, 1.0, 1.0, 0.0, 0.1, c=0.0) == 10.0

    def test_growth_term_value(self):
        assert growth_term(math.e ** 2) == pytest.approx(math.e ** 2 / 2.0, rel=1e-15)

    def test_not_evaluable_cases(self):
        with pytest.raises(ValueError, match="bound not evaluable"):
            risk_bound(10.0, 1.0, 1.0, 1.0, 0.1, c=1.0)  # margin 1 - psi/gamma < 0
        with pytest.raises(ValueError, match="bound not evaluable"):
            risk_bound(0.5, 1.0, 1.0, 0.0, 0.1, c=0.0)  # oracle below noise scale
        with pytest.raises(ValueError, match="bound not evaluable"):
            risk_bound(10.0, 0.0, 1.0, 0.0, 0.1)

    def test_exceeds_oracle_for_small_constants(self):
        value = risk_bound(10.0, 1.0, 1.0, 0.05, 0.1, c=0.1)
        assert np.isfinite(value) and value > 10.0


class TestExcessSupStat:
    def _table(self, p=30):
        s = polynomial_spectrum(p, 2.0)
        family = SmootherFamily.cutoff()
        grid = default_grid(family, s, floor_rule=None)
        return s, build_penalty_table(family, grid, s, 0.1)

    def test_zero_noise_hook(self):
        s, table = self._table()
        value = excess_sup_stat(s, table, 0.1, rng=None, xi=np.zeros(30))
        assert value == 0.0

    def test_single_point_mean_bounded_by_noise_scale(self):
        # with one grid row the statistic is the positive part of the noise
        # functional; its mean is below d/sqrt(2) by Cauchy-Schwarz
        s = polynomial_spectrum(10, 1.0)
        grid = AlphaGrid([1.0])
        table = build_penalty_table(SmootherFamily.cutoff(), grid, s, 0.1)
        d = table.d[0]
        rng = replication_stream(3, 0)
        draws = np.array([excess_sup_stat(s, table, 0.1, rng) for _ in range(20_000)])
        se = np.std(draws, ddof=1) / math.sqrt(draws.size)
        assert np.mean(draws) <= d / math.sqrt(2.0) + 4.0 * se

    def test_reproducible_given_stream(self):
        s, table = self._table()
        a = excess_sup_stat(s, table, 0.1, replication_stream(5, 1))
        b = excess_sup_stat(s, table, 0.1, replication_stream(5, 1))
        assert a == b


class TestMcRun:
    def _experiment(self, sigma=0.1, replications=10, mode="unknown", penalty="total"):
        p = 30
        s = polynomial_spectrum(p, 2.0)
        beta = 1.0 / np.arange(1.0, p + 1.0)
        model = SpectralModel(s, beta, sigma)
        family = SmootherFamily.cutoff()
        grid = default_grid(family, s)
        return mc_run(model, family, grid, 0.1, mode, replications, 17, penalty=penalty)

    def test_deterministic_reports(self):
        a = self._experiment()
        b = self._experiment()
        assert a.to_dict() == b.to_dict()
        assert np.array_equal(a.losses, b.losses)
        assert np.array_equal(a.sigma_hat2s, b.sigma_hat2s)
        assert np.array_equal(a.excess_sups, b.excess_sups)

    def test_zero_noise_known_mode_hits_best_bias(self):
        p = 20
        s = polynomial_spectrum(p, 2.0)
        beta = 1.0 / np.arange(1.0, p + 1.0)
        model = SpectralModel(s, beta, 0.0)
        family = SmootherFamily.cutoff()
        grid = default_grid(family, s, floor_rule=None)
        report = mc_run(model, family, grid, 0.1, "known", 3, 0, sigma2=0.0)
        table = build_penalty_table(family, grid, s, 0.1)
        best_bias = min(
            float(((1 - table.h_rows[i]) ** 2) @ (beta * beta)) for i in range(len(grid))
        )
        assert report.empirical_risk == best_bias
        assert report.empirical_risk_se == 0.0

    def test_report_invariants(self):
        report = self._experiment(replications=25)
        assert sum(report.alpha_hat_histogram) == 25
        assert report.empirical_risk >= 0.0
        assert report.oracle_ratio == pytest.approx(
            report.empirical_risk / report.oracle_risk, rel=1e-15
        )
        assert np.all(report.excess_sups >= 0.0)
        assert report.excess_sup_quantiles_norm[0.5] <= report.excess_sup_quantiles_norm[0.99]

    def test_unbiased_penalty_option(self):
        report = self._experiment(penalty="unbiased")
        assert report.penalty == "unbiased"

    def test_requires_replications(self):
        with pytest.raises(ValueError, match="replications"):
            self._experiment(replications=0)

    def test_spectral_loss_equals_coefficient_space_loss(self):
        # the per-replication loss in spectral coordinates must agree with the
        # coefficient-space norm taken through basis reconstruction
        from specreg import decompose_design, reconstruct_estimate, to_spectral

        rng = np.random.default_rng(19)
        x = rng.standard_normal((25, 8))
        design = decompose_design(x)
        beta_coef = rng.standard_normal(8)
        beta_spec = design.basis.T @ beta_coef
        y = to_spectral(design, x @ beta_coef + 0.3 * rng.standard_normal(25)).y
        h = np.linspace(1.0, 0.1, 8)
        loss_spectral = float(np.sum((beta_spec - h * y) ** 2))
        rebuilt = reconstruct_estimate(design, h * y)
        loss_coef = float(np.sum((beta_coef - rebuilt) ** 2))
        assert abs(loss_spectral - loss_coef) <= 1e-10 * max(loss_spectral, 1.0)
