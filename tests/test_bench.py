"""Tests for the risk functionals, the oracle profile, and the MC harness."""

from __future__ import annotations

import dataclasses
import json
import math

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
    growth_term,
    h_values,
    mc_run,
    polynomial_spectrum,
    replication_stream,
    risk_bound,
    risk_profile,
    select_alpha,
    sigma_hat2,
    simulate_observation,
)
from reference import exact_risk, penalized_risk, risk_profile_rows


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
    def _table(self, model):
        family = SmootherFamily.cutoff()
        grid = default_grid(family, model.spectrum, floor=False)
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
        for i, h in enumerate(table.h(slice(None))):
            if table.one_minus_h_norm2[i] == 0.0:
                redone.append(np.inf)
                continue
            redone.append(
                penalized_risk(model, h, table.pen_total[i], table.q_plus[i], 0.1)
            )
        assert profile.oracle_index == int(np.argmin(redone))
        assert profile.r == pytest.approx(min(redone), rel=1e-14)

    @pytest.mark.parametrize("kind", ["cutoff", "tikhonov", "landweber"])
    def test_matches_per_row_reference(self, kind):
        # one matrix-vector product per formula against one dot per row; the
        # oracle lies in the same run of bit-identical rows, reported at its end
        family = SmootherFamily(kind)
        for s, floor in ((polynomial_spectrum(200, 2.0), True), (exponential_spectrum(100, 1.0), True),
                         (polynomial_spectrum(60, 2.0), True), (polynomial_spectrum(30, 1.0), False)):
            p = s.effective_rank
            table = build_penalty_table(family, default_grid(family, s, points=30, floor=floor), s, 0.1)
            model = SpectralModel(s, 1.0 / np.arange(1.0, p + 1.0), 0.1)
            profile = risk_profile(model, table)
            risks, penalized = risk_profile_rows(model, table)
            np.testing.assert_allclose(profile.risks, risks, rtol=1e-13, atol=0.0)
            np.testing.assert_allclose(profile.penalized, penalized, rtol=1e-13, atol=0.0)
            assert profile.degenerate_rows == tuple(np.flatnonzero(np.isinf(penalized)))
            assert profile.oracle_index == table.tie_end[int(np.argmin(penalized))]
            assert profile.r == np.min(profile.penalized)
            assert profile.r == pytest.approx(np.min(penalized), rel=1e-13)

    def test_oracle_reported_at_the_end_of_its_tied_run(self):
        # every alpha >= 1 of this landweber grid maps to one iteration, so
        # rows 16-21 hold bit-identical h: the oracle is that model, which
        # selection reports at the last row of the run, and so does the oracle
        s = polynomial_spectrum(60, 2.0)
        family = SmootherFamily.landweber()
        table = build_penalty_table(family, default_grid(family, s, points=30), s, 0.1)
        model = SpectralModel(s, 1.0 / np.arange(1.0, 61.0), 0.1)
        profile = risk_profile(model, table)
        assert int(np.argmin(profile.penalized)) in range(16, 22)
        assert profile.oracle_index == 21
        report = mc_run(model, table, "unknown", 40, 7)
        assert report.oracle_alpha_index == 21
        assert not any(report.alpha_hat_histogram[16:21])

    def test_single_row(self):
        s = polynomial_spectrum(6, 1.0)
        model = SpectralModel(s, np.ones(6), 0.2)
        grid = AlphaGrid([0.5])
        table = build_penalty_table(SmootherFamily.cutoff(), grid, s, 0.1)
        profile = risk_profile(model, table)
        assert (profile.r, profile.oracle_index) == (profile.penalized[0], 0)


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
        grid = default_grid(family, s, floor=False)
        return build_penalty_table(family, grid, s, 0.1)

    def test_zero_noise_hook(self):
        table = self._table()
        value = excess_sup_stat(table, rng=None, xi=np.zeros(30))
        assert value == 0.0

    def test_single_point_mean_bounded_by_noise_scale(self):
        # with one grid row the statistic is the positive part of the noise
        # functional; its mean is below d/sqrt(2) by Cauchy-Schwarz
        s = polynomial_spectrum(10, 1.0)
        grid = AlphaGrid([1.0])
        table = build_penalty_table(SmootherFamily.cutoff(), grid, s, 0.1)
        d = table.d[0]
        rng = replication_stream(3, 0)
        draws = np.array([excess_sup_stat(table, rng) for _ in range(20_000)])
        se = np.std(draws, ddof=1) / math.sqrt(draws.size)
        assert np.mean(draws) <= d / math.sqrt(2.0) + 4.0 * se

    def test_reproducible_given_stream(self):
        table = self._table()
        a = excess_sup_stat(table, replication_stream(5, 1))
        b = excess_sup_stat(table, replication_stream(5, 1))
        assert a == b


class TestMcRun:
    def _experiment(self, sigma=0.1, replications=10, mode="unknown", penalty="total"):
        p = 30
        s = polynomial_spectrum(p, 2.0)
        beta = 1.0 / np.arange(1.0, p + 1.0)
        model = SpectralModel(s, beta, sigma)
        family = SmootherFamily.cutoff()
        table = build_penalty_table(family, default_grid(family, s), s, 0.1)
        return mc_run(model, table, mode, replications, 17, penalty=penalty)

    def test_deterministic_reports(self):
        a = self._experiment()
        b = self._experiment()
        assert a.to_dict() == b.to_dict()
        assert np.array_equal(a.losses, b.losses)
        assert np.array_equal(a.sigma_hat2s, b.sigma_hat2s)
        assert np.array_equal(a.excess_sups, b.excess_sups)

    def test_to_dict_maps_non_finite_quantiles_to_null(self):
        report = dataclasses.replace(self._experiment(), excess_sup_quantiles_norm={
            0.5: float("nan"), 0.9: float("inf"), 0.99: 2.5})
        summary = report.to_dict()
        assert summary["excess_sup_quantiles_norm"] == {"0.5": None, "0.9": None, "0.99": 2.5}
        # every field but the per-replication arrays, as strict JSON
        arrays = {"losses", "alpha_hat_indices", "sigma_hat2s", "excess_sups"}
        assert set(summary) == {f.name for f in dataclasses.fields(report)} - arrays
        json.dumps(summary, allow_nan=False)

    def test_zero_noise_known_mode_hits_best_bias(self):
        p = 20
        s = polynomial_spectrum(p, 2.0)
        beta = 1.0 / np.arange(1.0, p + 1.0)
        model = SpectralModel(s, beta, 0.0)
        family = SmootherFamily.cutoff()
        grid = default_grid(family, s, floor=False)
        table = build_penalty_table(family, grid, s, 0.1)
        report = mc_run(model, table, "known", 3, 0, sigma2=0.0)
        best_bias = min(
            float(((1 - h_values(family, alpha, s)) ** 2) @ (beta * beta)) for alpha in grid.values
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

    def test_known_mode_records_residual_variance_estimate(self):
        # known mode selects with the true sigma but still records the
        # residual variance estimate at the selected row of each replication
        report = self._experiment(replications=8, mode="known")
        p = 30
        s = polynomial_spectrum(p, 2.0)
        model = SpectralModel(s, 1.0 / np.arange(1.0, p + 1.0), 0.1)
        grid = default_grid(SmootherFamily.cutoff(), s)
        lam = s.retained.tolist()
        for i in range(report.replications):
            y = simulate_observation(model, replication_stream(17, i)).y.tolist()
            alpha = float(grid.values[report.alpha_hat_indices[i]])
            h = h_values(SmootherFamily.cutoff(), alpha, s).tolist()
            num = math.fsum(l * (1.0 - hk) ** 2 * yk * yk for l, hk, yk in zip(lam, h, y))
            den = math.fsum((1.0 - hk) ** 2 for hk in h)
            assert report.sigma_hat2s[i] == pytest.approx(num / den, rel=1e-12)

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


class TestBatchedMcRun:
    """mc_run evaluates blocks of replications with one product per row
    kernel, prefix and suffix sums on cutoff tables; these tests hold it to
    a per-replication loop and to the oracle on the spectra where the full
    contrasts cancel."""

    @staticmethod
    def _loop(model, table, mode, replications, seed, penalty="total"):
        # the per-replication path: one select_alpha and one excess draw
        # per stream, with the variance estimate at the picked row
        picks, losses, sigma2s, excesses = [], [], [], []
        for i in range(replications):
            rng = replication_stream(seed, i)
            data = simulate_observation(model, rng)
            sel = select_alpha(data, table, mode, sigma2=model.sigma ** 2 if mode == "known" else None,
                               penalty=penalty)
            picks.append(sel.alpha_hat_index)
            losses.append(float(np.sum((model.coefficients - sel.estimate) ** 2)))
            sigma2s.append(sigma_hat2(data, table.h(sel.alpha_hat_index)))
            excesses.append(excess_sup_stat(table, rng))
        return np.array(picks), np.array(losses), np.array(sigma2s), np.array(excesses)

    @pytest.mark.parametrize("kind", ["cutoff", "tikhonov", "landweber"])
    @pytest.mark.parametrize("mode", ["known", "unknown"])
    @pytest.mark.parametrize("spectrum", ["k^-2 p=80", "e^-k p=100"])
    def test_matches_per_replication_loop(self, spectrum, kind, mode):
        # 150 replications span several blocks, the last one partial
        p = 80 if spectrum == "k^-2 p=80" else 100
        spectrum = polynomial_spectrum(p, 2.0) if p == 80 else exponential_spectrum(p, 1.0)
        model = SpectralModel(spectrum, 1.0 / np.arange(1.0, p + 1.0), 0.1)
        family = SmootherFamily(kind)
        table = build_penalty_table(family, default_grid(family, spectrum, points=40), spectrum, 0.1)
        report = mc_run(model, table, mode, 150, 23, penalty="unbiased")
        picks, losses, sigma2s, excesses = self._loop(model, table, mode, 150, 23, "unbiased")
        assert np.array_equal(report.alpha_hat_indices, picks)
        np.testing.assert_allclose(report.losses, losses, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(report.sigma_hat2s, sigma2s, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(report.excess_sups, excesses, rtol=1e-12, atol=0.0)
        if kind == "cutoff":  # a block's sums are its one-vector sums, bit for bit
            assert np.array_equal(report.excess_sups, excesses)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_non_finite_observations(self):
        # sigma g / sqrt(lambda) overflows where |g| > 2.6 past the first component
        s = Spectrum([1.0] + [3e-308] * 49)
        model = SpectralModel(s, np.zeros(50), 1.2e154)
        table = build_penalty_table(SmootherFamily.cutoff(), AlphaGrid([1.0]), s, 0.1)
        with pytest.raises(ValueError, match="invalid input: non-finite observations"):
            mc_run(model, table, "known", 40, 3)

    def test_block_of_excess_draws(self):
        table = TestExcessSupStat()._table()
        xi = replication_stream(5, 0).standard_normal((7, 30))
        block = excess_sup_stat(table, None, xi)
        assert block.shape == (7,)
        for row, value in zip(xi, block):
            assert value == pytest.approx(excess_sup_stat(table, None, row), rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("mode", ["known", "unknown"])
    @pytest.mark.parametrize("kind", ["cutoff", "tikhonov", "landweber"])
    @pytest.mark.parametrize("spectrum", ["e^-k p=100", "e^-2k p=30"])
    def test_oracle_ratio_on_exponential_spectra(self, spectrum, kind, mode):
        # On e^-k spectra sum y^2 reaches sigma^2 / lambda_min (1e42 at
        # p=100), far above the differences between the contrasts of the
        # smooth rows; a selector that forms the full contrasts picks among
        # rounding noise there (oracle ratios up to 3.5e20).
        p, kappa = (100, 1.0) if spectrum == "e^-k p=100" else (30, 2.0)
        s = exponential_spectrum(p, kappa)
        model = SpectralModel(s, 1.0 / np.arange(1.0, p + 1.0), 0.1)
        family = SmootherFamily(kind)
        table = build_penalty_table(family, default_grid(family, s, points=40), s, 0.1)
        report = mc_run(model, table, mode, 200, 7)
        assert report.oracle_ratio < 2.0
