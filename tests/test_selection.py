"""Tests for contrasts, the variance estimator, and grid selection."""

from __future__ import annotations

import math

import numpy as np
import pytest

from specreg import (
    AlphaGrid,
    SmootherFamily,
    SpectralData,
    SpectralModel,
    Spectrum,
    build_penalty_table,
    contrast_known_sigma,
    contrast_unknown_sigma,
    default_grid,
    exact_risk,
    h_values,
    pen_u,
    polynomial_spectrum,
    replication_stream,
    select_alpha,
    sigma_hat2,
    simulate_observation,
)


def _data(spectrum, y):
    return SpectralData(spectrum, np.asarray(y, dtype=float))


class TestContrastKnownSigma:
    def test_full_smoother_leaves_penalty_only(self):
        s = polynomial_spectrum(4, 1.0)
        data = _data(s, [1.0, 2.0, 3.0, 4.0])
        assert contrast_known_sigma(data, np.ones(4), pen=7.0, sigma2=0.25) == 0.25 * 7.0

    def test_zero_smoother_no_penalty(self):
        s = polynomial_spectrum(3, 1.0)
        data = _data(s, [1.0, -2.0, 2.0])
        assert contrast_known_sigma(data, np.zeros(3), pen=0.0, sigma2=1.0) == 9.0

    def test_unbiasedness_identity(self):
        # closed-form identity linking the exact risk to the mean contrast:
        # L(h) = [sum (1-h)^2 b^2 + s2 sum (1-h)^2/lam] + s2*pen_u - s2*sum 1/lam
        rng = np.random.default_rng(41)
        for _ in range(200):
            p = int(rng.integers(1, 101))
            lam = np.sort(10.0 ** rng.uniform(math.log10(0.2), math.log10(5.0), p))[::-1]
            s = Spectrum(lam)
            beta = rng.standard_normal(p)
            sigma = rng.uniform(0.1, 1.5)
            h = rng.uniform(0.0, 1.0, p)
            model = SpectralModel(s, beta, sigma)
            left = exact_risk(model, h)
            resid2 = (1.0 - h) ** 2
            right = (
                float(resid2 @ (beta * beta))
                + sigma ** 2 * float(np.sum(resid2 / lam))
                + sigma ** 2 * pen_u(h, s)
                - sigma ** 2 * float(np.sum(1.0 / lam))
            )
            assert abs(left - right) <= 1e-12 * max(abs(left), abs(right))


class TestSigmaHat2:
    def test_noiseless_zero_smoother(self):
        s = polynomial_spectrum(4, 1.0)
        beta = np.array([1.0, 0.5, -0.5, 2.0])
        got = sigma_hat2(_data(s, beta), np.zeros(4))
        want = float(np.sum(s.retained * beta * beta)) / 4.0
        assert got == pytest.approx(want, rel=1e-14)

    def test_full_smoother_rejected(self):
        s = polynomial_spectrum(3, 1.0)
        with pytest.raises(ValueError, match="variance estimation impossible"):
            sigma_hat2(_data(s, [1.0, 2.0, 3.0]), np.ones(3))

    def test_unbiased_at_zero_signal(self):
        rng = np.random.default_rng(42)
        p, sigma, reps = 30, 0.8, 100_000
        s = polynomial_spectrum(p, 1.0)
        lam = s.retained
        h = h_values(SmootherFamily.tikhonov(), 0.3, s)
        resid2 = (1.0 - h) ** 2
        noise = sigma * rng.standard_normal((reps, p)) / np.sqrt(lam)
        samples = (noise * noise * (lam * resid2)) @ np.ones(p) / np.sum(resid2)
        se = np.std(samples, ddof=1) / math.sqrt(reps)
        assert abs(np.mean(samples) - sigma ** 2) < 4.0 * se
        # spot check the module implementation against the batch formula
        check = sigma_hat2(_data(s, noise[0] / 1.0), h)
        assert check == pytest.approx(float(samples[0]), rel=1e-12)

    def test_mean_matches_bias_formula(self):
        rng = np.random.default_rng(43)
        p, sigma, reps = 25, 0.6, 100_000
        s = polynomial_spectrum(p, 2.0)
        lam = s.retained
        beta = 1.0 / np.arange(1.0, p + 1.0)
        h = h_values(SmootherFamily.tikhonov(), 0.05, s)
        resid2 = (1.0 - h) ** 2
        ys = beta + sigma * rng.standard_normal((reps, p)) / np.sqrt(lam)
        samples = (ys * ys) @ (lam * resid2) / np.sum(resid2)
        want = sigma ** 2 + float(resid2 @ (lam * beta * beta)) / float(np.sum(resid2))
        se = np.std(samples, ddof=1) / math.sqrt(reps)
        assert abs(np.mean(samples) - want) < 4.0 * se

    def test_orthogonal_residual_terms(self):
        s = polynomial_spectrum(3, 1.0)
        data = _data(s, [1.0, 1.0, 1.0])
        h = np.zeros(3)
        base = sigma_hat2(data, h)
        widened = sigma_hat2(data, h, extra_ss=3.0, extra_dof=3.0)
        num = float(np.sum(s.retained))
        assert base == pytest.approx(num / 3.0)
        assert widened == pytest.approx((num + 3.0) / 6.0)


class TestContrastUnknownSigma:
    def test_scale_equivariance_exact(self):
        s = polynomial_spectrum(6, 1.5)
        rng = np.random.default_rng(44)
        y = rng.standard_normal(6)
        h = rng.uniform(0.0, 0.9, 6)
        pen = 3.5
        base = contrast_unknown_sigma(_data(s, y), h, pen)
        scaled = contrast_unknown_sigma(_data(s, 2.0 * y), h, pen)
        assert scaled == 4.0 * base  # powers of two scale without rounding

    def test_zero_smoother_closed_form(self):
        s = polynomial_spectrum(3, 1.0)
        y = np.array([1.0, 2.0, -1.0])
        pen = 2.0
        got = contrast_unknown_sigma(_data(s, y), np.zeros(3), pen)
        want = float(y @ y) + pen * float(np.sum(s.retained * y * y)) / 3.0
        assert got == pytest.approx(want, rel=1e-14)

    def test_matches_known_contrast_at_estimated_variance(self):
        s = polynomial_spectrum(5, 1.0)
        y = np.array([2.0, 1.0, 0.5, 0.2, 0.1])
        h = np.linspace(0.9, 0.1, 5)
        pen = 1.7
        s2 = sigma_hat2(_data(s, y), h)
        assert contrast_unknown_sigma(_data(s, y), h, pen) == pytest.approx(
            contrast_known_sigma(_data(s, y), h, pen, s2), rel=1e-15
        )


class TestSelectAlpha:
    def _setup(self, p=20, gamma=0.1, floor_rule=None):
        s = polynomial_spectrum(p, 2.0)
        family = SmootherFamily.cutoff()
        grid = default_grid(family, s, floor_rule=floor_rule)
        table = build_penalty_table(family, grid, s, gamma)
        return s, family, grid, table

    def test_single_point_grid(self):
        s = polynomial_spectrum(5, 1.0)
        grid = AlphaGrid([0.5])
        table = build_penalty_table(SmootherFamily.cutoff(), grid, s, 0.1)
        result = select_alpha(_data(s, np.ones(5)), grid, table, "known", sigma2=1.0)
        assert result.alpha_hat == 0.5
        assert result.alpha_hat_index == 0

    def test_zero_noise_picks_richest_model(self):
        s, _, grid, table = self._setup()
        beta = 1.0 / np.arange(1.0, 21.0)
        result = select_alpha(_data(s, beta), grid, table, "known", sigma2=0.0)
        assert result.alpha_hat_index == 0
        assert result.alpha_hat == grid.alpha_floor

    def test_ties_break_to_largest_alpha(self):
        s = polynomial_spectrum(3, 1.0)
        grid = default_grid(SmootherFamily.cutoff(), s, floor_rule=None)
        table = build_penalty_table(SmootherFamily.cutoff(), grid, s, 0.1)
        # signal lives entirely in the first component: every cutoff removes
        # nothing of it, so with zero penalty weight all contrasts tie at 0
        data = _data(s, [3.0, 0.0, 0.0])
        result = select_alpha(data, grid, table, "known", sigma2=0.0)
        assert result.alpha_hat_index == len(grid) - 1
        assert result.alpha_hat == 1.0

    def test_scale_invariance_of_argmin(self):
        s, _, grid, table = self._setup(floor_rule=lambda h: float((1 - h) @ (1 - h)) >= 3.0)
        rng = replication_stream(7, 0)
        beta = 1.0 / np.arange(1.0, 21.0)
        model = SpectralModel(s, beta, 0.1)
        data = simulate_observation(model, rng)
        doubled = SpectralData(s, 2.0 * data.y)
        for mode, sigma2 in (("known", 0.01), ("unknown", None)):
            a = select_alpha(data, grid, table, mode, sigma2=sigma2)
            b = select_alpha(
                doubled, grid, table, mode, sigma2=None if sigma2 is None else 4.0 * sigma2
            )
            assert a.alpha_hat_index == b.alpha_hat_index, mode

    def test_unknown_mode_rejects_degenerate_rows(self):
        s, _, grid, table = self._setup()  # full grid keeps the h == 1 row
        data = _data(s, np.ones(20))
        with pytest.raises(ValueError, match="variance estimation impossible"):
            select_alpha(data, grid, table, "unknown")

    def test_contrasts_match_scalar_ops(self):
        s, _, grid, table = self._setup(floor_rule=lambda h: float((1 - h) @ (1 - h)) >= 3.0)
        data = _data(s, np.linspace(1.0, 0.1, 20))
        result = select_alpha(data, grid, table, "unknown")
        for i, h in enumerate(table.h_rows):
            want = contrast_unknown_sigma(data, h, table.pen_total[i])
            assert result.contrasts[i] == pytest.approx(want, rel=1e-12)
        assert np.array_equal(
            result.estimate, table.h_rows[result.alpha_hat_index] * data.y
        )

    def test_non_finite_contrast_is_numerical_failure(self):
        s, _, grid, table = self._setup(floor_rule=lambda h: float((1 - h) @ (1 - h)) >= 3.0)
        y = np.ones(20)
        y[0] = 1e200  # y^2 overflows to inf
        with np.errstate(over="ignore", invalid="ignore"):
            for mode, sigma2 in (("known", 0.01), ("unknown", None)):
                with pytest.raises(ArithmeticError, match="non-finite contrast"):
                    select_alpha(_data(s, y), grid, table, mode, sigma2=sigma2)

    def test_misaligned_table_rejected(self):
        s, family, grid, table = self._setup()
        other = AlphaGrid(grid.values[:-1])
        with pytest.raises(ValueError, match="misaligned"):
            select_alpha(_data(s, np.ones(20)), other, table, "known", sigma2=1.0)

    def test_selection_concentrates_near_oracle(self):
        # alpha_hat should track the exact-risk minimizer over replications
        p = 200
        s = polynomial_spectrum(p, 2.0)
        family = SmootherFamily.cutoff()
        grid = default_grid(family, s)
        table = build_penalty_table(family, grid, s, 0.1)
        beta = 1.0 / np.arange(1.0, p + 1.0)
        model = SpectralModel(s, beta, 0.05)
        risks = [exact_risk(model, table.h_rows[i]) for i in range(len(grid))]
        oracle_index = int(np.argmin(risks))
        hits = 0
        reps = 300
        for i in range(reps):
            data = simulate_observation(model, replication_stream(99, i))
            result = select_alpha(data, grid, table, "unknown")
            if abs(result.alpha_hat_index - oracle_index) <= 15:
                hits += 1
        assert hits / reps > 0.8


class TestCovarianceInequality:
    def test_holds_for_ordered_families(self):
        # deterministic form: sum (h1-h2)^2 b^2 <= |sum (1-h1)^2 b^2 - sum (1-h2)^2 b^2|
        rng = np.random.default_rng(45)
        p = 50
        s = polynomial_spectrum(p, 1.0)
        weights = rng.standard_normal((100, p))
        for family in (SmootherFamily.cutoff(), SmootherFamily.tikhonov(), SmootherFamily.landweber()):
            grid = default_grid(family, s, points=20, floor_rule=None)
            rows = np.array([h_values(family, a, s) for a in grid.values])
            for i in range(len(grid)):
                for j in range(i + 1, len(grid)):
                    lhs = (weights * weights) @ ((rows[i] - rows[j]) ** 2)
                    rhs = np.abs(
                        (weights * weights) @ ((1 - rows[i]) ** 2 - (1 - rows[j]) ** 2)
                    )
                    assert np.all(lhs <= rhs * (1 + 1e-10) + 1e-12)
