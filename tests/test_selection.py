"""Tests for contrasts, the variance estimator, and grid selection."""

from __future__ import annotations

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from specreg import (
    AlphaGrid,
    SmootherFamily,
    SpectralData,
    SpectralModel,
    Spectrum,
    build_penalty_table,
    decompose_design,
    default_grid,
    exponential_spectrum,
    h_values,
    mc_run,
    polynomial_spectrum,
    replication_stream,
    risk_profile,
    select_alpha,
    simulate_observation,
    to_spectral,
)
from reference import contrast_known_sigma, contrast_unknown_sigma, exact_risk, pen_u, sigma_hat2


# the cutoff grid of p = 20 from m = 17 down, which keeps at least 3
# residual degrees of freedom on every row
_KEEP_3_DOF = AlphaGrid(1.0 / np.arange(17, 0, -1, dtype=float))


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
        h = h_values(SmootherFamily("tikhonov"), 0.3, s)
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
        h = h_values(SmootherFamily("tikhonov"), 0.05, s)
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
    def _setup(self, p=20, gamma=0.1, grid=None):
        s = polynomial_spectrum(p, 2.0)
        family = SmootherFamily("cutoff")
        grid = default_grid(family, s, floor=False) if grid is None else grid
        table = build_penalty_table(family, grid, s, gamma)
        return s, family, grid, table

    def test_single_point_grid(self):
        s = polynomial_spectrum(5, 1.0)
        grid = AlphaGrid([0.5])
        table = build_penalty_table(SmootherFamily("cutoff"), grid, s, 0.1)
        result = select_alpha(_data(s, np.ones(5)), table, "known", sigma2=1.0)
        assert result.alpha_hat == 0.5
        assert result.alpha_hat_index == 0

    def test_zero_noise_picks_richest_model(self):
        s, _, grid, table = self._setup()
        beta = 1.0 / np.arange(1.0, 21.0)
        result = select_alpha(_data(s, beta), table, "known", sigma2=0.0)
        assert result.alpha_hat_index == 0
        assert result.alpha_hat == float(grid.values[0])

    def test_ties_break_to_largest_alpha(self):
        s = polynomial_spectrum(3, 1.0)
        grid = default_grid(SmootherFamily("cutoff"), s, floor=False)
        table = build_penalty_table(SmootherFamily("cutoff"), grid, s, 0.1)
        # signal lives entirely in the first component: every cutoff removes
        # nothing of it, so with zero penalty weight all contrasts tie at 0
        data = _data(s, [3.0, 0.0, 0.0])
        result = select_alpha(data, table, "known", sigma2=0.0)
        assert result.alpha_hat_index == len(grid) - 1
        assert result.alpha_hat == 1.0

    def test_identical_rows_pick_the_largest_alpha_of_their_run(self):
        # every alpha >= 1 of this landweber grid maps to one iteration, so
        # rows 16-21 hold bit-identical h: one model, which a pick anywhere
        # in the run reports at its largest alpha, row 21
        s = polynomial_spectrum(60, 2.0)
        family = SmootherFamily("landweber")
        grid = default_grid(family, s, points=30)
        table = build_penalty_table(family, grid, s, 0.1)
        assert np.array_equal(table.tie_end, np.r_[np.arange(16), np.full(6, 21)])
        model = SpectralModel(s, 1.0 / np.arange(1.0, 61.0), 1.0)
        picks = set()
        for i in range(100):
            data = simulate_observation(model, replication_stream(7, i))
            for mode, sigma2 in (("known", 1.0), ("unknown", None)):
                picks.add(select_alpha(data, table, mode, sigma2=sigma2).alpha_hat_index)
        assert 21 in picks and not picks & set(range(16, 21))
        # a strict minimum inside the run still reports its last row
        pen_total = table.pen_total.copy()
        pen_total[18] *= 1.0 - 1e-9
        result = select_alpha(data, replace(table, pen_total=pen_total), "known", sigma2=1e6)
        assert (result.alpha_hat_index, result.alpha_hat) == (21, grid.values[21])
        assert int(np.argmin(result.contrasts)) == 18
        report = mc_run(model, table, "unknown", 100, 7)
        assert report.alpha_hat_histogram[21] > 0 and not any(report.alpha_hat_histogram[16:21])

    def test_scale_invariance_of_argmin(self):
        s, _, grid, table = self._setup(grid=_KEEP_3_DOF)
        rng = replication_stream(7, 0)
        beta = 1.0 / np.arange(1.0, 21.0)
        model = SpectralModel(s, beta, 0.1)
        data = simulate_observation(model, rng)
        doubled = SpectralData(s, 2.0 * data.y)
        for mode, sigma2 in (("known", 0.01), ("unknown", None)):
            a = select_alpha(data, table, mode, sigma2=sigma2)
            b = select_alpha(
                doubled, table, mode, sigma2=None if sigma2 is None else 4.0 * sigma2
            )
            assert a.alpha_hat_index == b.alpha_hat_index, mode
        # in unknown mode y -> 2^j y scales every contrast and variance
        # estimate by 4^j without rounding, on every family
        s = polynomial_spectrum(200, 2.0)
        model = SpectralModel(s, 1.0 / np.arange(1.0, 201.0), 0.1)
        for kind in ("cutoff", "tikhonov", "landweber"):
            family = SmootherFamily(kind)
            table = build_penalty_table(family, default_grid(family, s, points=40), s, 0.1)
            for i in range(50):
                data = simulate_observation(model, replication_stream(7, i))
                a = select_alpha(data, table, "unknown")
                for j in (-3, 5):
                    b = select_alpha(SpectralData(s, 2.0 ** j * data.y), table, "unknown")
                    assert b.alpha_hat_index == a.alpha_hat_index, (kind, i, j)
                    assert np.array_equal(b.contrasts, 4.0 ** j * a.contrasts), (kind, i, j)
                    assert b.sigma_hat2 == 4.0 ** j * a.sigma_hat2, (kind, i, j)

    def test_unknown_mode_rejects_degenerate_rows(self):
        s, _, grid, table = self._setup()  # full grid keeps the h == 1 row
        data = _data(s, np.ones(20))
        with pytest.raises(ValueError, match="variance estimation impossible"):
            select_alpha(data, table, "unknown")

    def test_table_from_another_spectrum_rejected(self):
        # the same width is not enough: the table's eigenvalues must be the data's
        model = SpectralModel(polynomial_spectrum(50, 2.0), 1.0 / np.arange(1.0, 51.0), 0.1)
        data = simulate_observation(model, replication_stream(7, 0))
        family = SmootherFamily("tikhonov")
        for other in (exponential_spectrum(50, 0.5), polynomial_spectrum(40, 2.0)):
            table = build_penalty_table(family, default_grid(family, other, points=30), other, 0.1)
            with pytest.raises(ValueError, match="table and data spectra differ"):
                select_alpha(data, table, "unknown")
            with pytest.raises(ValueError, match="table and model spectra differ"):
                risk_profile(model, table)

    def test_contrasts_match_scalar_ops(self):
        s, family, grid, table = self._setup(grid=_KEEP_3_DOF)
        data = _data(s, np.linspace(1.0, 0.1, 20))
        result = select_alpha(data, table, "unknown")
        # the contrasts are relative to the smoothest row: the full scalar
        # contrasts minus the last one, which cancels their shared sum y^2
        full = np.array([contrast_unknown_sigma(data, h, table.pen_total[i])
                         for i, h in enumerate(table.h(slice(None)))])
        assert result.contrasts[-1] == 0.0
        np.testing.assert_allclose(result.contrasts, full - full[-1], rtol=1e-12,
                                   atol=1e-14 * np.max(np.abs(full)))
        assert np.array_equal(
            result.estimate, h_values(family, grid.values, s)[result.alpha_hat_index] * data.y
        )

    def test_non_finite_contrast_is_numerical_failure(self):
        s, _, grid, table = self._setup(grid=_KEEP_3_DOF)
        y = np.ones(20)
        y[0] = 1e200  # y^2 overflows to inf
        for mode, sigma2 in (("known", 0.01), ("unknown", None)):
            with pytest.raises(ArithmeticError, match="non-finite contrast"):
                select_alpha(_data(s, y), table, mode, sigma2=sigma2)

    def test_selection_concentrates_near_oracle(self):
        # alpha_hat should track the exact-risk minimizer over replications
        p = 200
        s = polynomial_spectrum(p, 2.0)
        family = SmootherFamily("cutoff")
        grid = default_grid(family, s)
        table = build_penalty_table(family, grid, s, 0.1)
        beta = 1.0 / np.arange(1.0, p + 1.0)
        model = SpectralModel(s, beta, 0.05)
        risks = [exact_risk(model, h_values(family, alpha, s)) for alpha in grid.values]
        oracle_index = int(np.argmin(risks))
        hits = 0
        reps = 300
        for i in range(reps):
            data = simulate_observation(model, replication_stream(99, i))
            result = select_alpha(data, table, "unknown")
            if abs(result.alpha_hat_index - oracle_index) <= 15:
                hits += 1
        assert hits / reps > 0.8


class TestContrastsAgainstMpmath:
    def test_ill_posed_spectrum(self):
        # on e^-k, p=100, sum y^2 ~ 1e42: the relative contrasts of the
        # smooth rows lie far below its rounding, yet each must match the
        # difference of the full contrasts, taken to 80 digits, within 1e-12
        # of the terms that form it, and sigma_hat2 to rtol 1e-12
        from mpmath import mp, mpf

        p = 100
        s = exponential_spectrum(p, 1.0)
        model = SpectralModel(s, 1.0 / np.arange(1.0, p + 1.0), 0.1)
        family = SmootherFamily("tikhonov")
        table = build_penalty_table(family, default_grid(family, s, points=40), s, 0.1)
        data = simulate_observation(model, replication_stream(7, 3))
        result = select_alpha(data, table, "unknown")
        rows = range(0, len(table.alphas), 3)
        with mp.workdps(80):
            lam = [mpf(float(v)) for v in s.retained]
            y2 = [mpf(float(v)) ** 2 for v in data.y]

            def full(i):
                resid2 = [(1 - mpf(float(v))) ** 2 for v in table.h(i)]
                s2 = mp.fsum(l * r * y for l, r, y in zip(lam, resid2, y2)) / mp.fsum(resid2)
                return mp.fsum(r * y for r, y in zip(resid2, y2)) + s2 * mpf(float(table.pen_total[i])), s2

            last = full(len(table.alphas) - 1)[0]
            want = np.array([float(full(i)[0] - last) for i in rows])
            want_s2 = float(full(result.alpha_hat_index)[1])
        lam_y2 = s.retained * data.y * data.y
        h = table.h(slice(None))
        noise_weights, resid2 = h * (2.0 - h) / s.retained, (1.0 - h) ** 2
        terms = np.abs(table.pen_total * (resid2 @ lam_y2) / table.one_minus_h_norm2) + noise_weights @ lam_y2
        scale = (terms + terms[-1])[rows]
        assert np.all(np.abs(result.contrasts[rows] - want) <= 1e-12 * scale)
        assert result.sigma_hat2 == pytest.approx(want_s2, rel=1e-12)
        assert np.min(np.abs(want[want != 0.0])) < np.finfo(float).eps * float(data.y @ data.y)


class TestSelectionInputs:
    """select_alpha and mc_run reject a bad mode, penalty or known-mode
    sigma2 with a ValueError, before any contrast is formed."""

    _CASES = [
        ({"mode": "bogus"}, "mode must be 'known' or 'unknown'"),
        ({"mode": "unknown", "penalty": "bogus"}, "unknown penalty choice 'bogus'"),
        *(({"mode": "known", "sigma2": sigma2}, "known-sigma mode requires a finite sigma2 >= 0")
          for sigma2 in (-0.01, math.nan, math.inf)),
    ]

    @staticmethod
    def _table():
        s = polynomial_spectrum(20, 2.0)
        model = SpectralModel(s, 1.0 / np.arange(1.0, 21.0), 0.1)
        return model, build_penalty_table(SmootherFamily("cutoff"), _KEEP_3_DOF, s, 0.1)

    @pytest.mark.parametrize("kwargs, message", _CASES + [
        ({"mode": "known"}, "known-sigma mode requires a finite sigma2 >= 0")], ids=str)
    def test_select_alpha_rejects(self, kwargs, message):
        # an infinite sigma2 once gave an ArithmeticError on the contrasts
        model, table = self._table()
        data = simulate_observation(model, replication_stream(3, 0))
        with pytest.raises(ValueError, match=re.escape(message)):
            select_alpha(data, table, **kwargs)

    @pytest.mark.parametrize("kwargs, message", _CASES, ids=str)
    def test_mc_run_rejects(self, kwargs, message):
        model, table = self._table()
        with pytest.raises(ValueError, match=re.escape(message)):
            mc_run(model, table, replications=4, master_seed=3, **kwargs)


class TestMatrixPath:
    """Metamorphic invariances of selection from a raw design matrix."""

    @staticmethod
    def _problem(reps=20):
        n, p = 80, 20
        x = np.random.default_rng(11).standard_normal((n, p)) * np.linspace(1.0, 0.05, p)
        beta = 1.0 / np.arange(1.0, p + 1.0)
        return x, [x @ beta + 0.1 * replication_stream(3, i).standard_normal(n) for i in range(reps)]

    @staticmethod
    def _select(x, y):
        data = to_spectral(decompose_design(x), y)
        family = SmootherFamily("tikhonov")
        grid = default_grid(family, data.spectrum, points=40)
        return select_alpha(data, build_penalty_table(family, grid, data.spectrum, 0.1), "unknown")

    def test_orthogonal_residual_enters_the_variance_estimate(self):
        # the n - p = 60 coordinates of y orthogonal to the columns of x are
        # pure noise, which unknown mode adds to every row's estimate
        x, (y,) = self._problem(reps=1)
        data = to_spectral(decompose_design(x), y)
        assert data.residual_dof == 60 and data.residual2 > 0.0
        family = SmootherFamily("tikhonov")
        table = build_penalty_table(family, default_grid(family, data.spectrum, points=40),
                                    data.spectrum, 0.1)
        for given in (data, SpectralData(data.spectrum, data.y)):
            result = select_alpha(given, table, "unknown")
            want = sigma_hat2(data, table.h(result.alpha_hat_index), given.residual2, given.residual_dof)
            assert result.sigma_hat2 == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_design_scaling_keeps_index(self):
        # X -> cX scales lambda and the tikhonov grid by c^2 and y(k) by 1/c,
        # which leaves h and the argmin unchanged up to rounding
        x, ys = self._problem()
        for i, y in enumerate(ys):
            index = self._select(x, y).alpha_hat_index
            for c in (2.0 ** -3, 2.0 ** 5, 10.0):
                assert self._select(c * x, y).alpha_hat_index == index, (i, c)

    def test_row_permutation_keeps_selection(self):
        # permuting observations leaves X'X and X'Y unchanged; the SVD may
        # flip singular-vector signs, which flips signs of y(k) only
        x, ys = self._problem()
        for i, y in enumerate(ys):
            perm = replication_stream(4, i).permutation(y.size)
            a, b = self._select(x, y), self._select(x[perm], y[perm])
            assert b.alpha_hat_index == a.alpha_hat_index, i
            assert b.alpha_hat == pytest.approx(a.alpha_hat, rel=1e-12, abs=0.0), i
            assert b.sigma_hat2 == pytest.approx(a.sigma_hat2, rel=1e-12, abs=0.0), i
            np.testing.assert_allclose(b.contrasts, a.contrasts, rtol=1e-12, atol=0.0)
            estimate = np.abs(a.estimate)
            assert np.max(np.abs(np.abs(b.estimate) - estimate)) <= 1e-12 * np.max(estimate), i


class TestCovarianceInequality:
    def test_holds_for_ordered_families(self):
        # deterministic form: sum (h1-h2)^2 b^2 <= |sum (1-h1)^2 b^2 - sum (1-h2)^2 b^2|
        rng = np.random.default_rng(45)
        p = 50
        s = polynomial_spectrum(p, 1.0)
        weights = rng.standard_normal((100, p))
        for family in (SmootherFamily("cutoff"), SmootherFamily("tikhonov"), SmootherFamily("landweber")):
            grid = default_grid(family, s, points=20, floor=False)
            rows = np.array([h_values(family, a, s) for a in grid.values])
            for i in range(len(grid)):
                for j in range(i + 1, len(grid)):
                    lhs = (weights * weights) @ ((rows[i] - rows[j]) ** 2)
                    rhs = np.abs(
                        (weights * weights) @ ((1 - rows[i]) ** 2 - (1 - rows[j]) ** 2)
                    )
                    assert np.all(lhs <= rhs * (1 + 1e-10) + 1e-12)
