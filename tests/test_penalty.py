"""Tests for the penalty quantities, the calibration root, and the verifiers."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from specreg import (
    AlphaGrid,
    SmootherFamily,
    Spectrum,
    build_penalty_table,
    check_conditions,
    cramer_term,
    default_grid,
    exponential_spectrum,
    h_values,
    noise_scale,
    pen_cv,
    pen_u,
    polynomial_spectrum,
    q_plus,
    solve_mu,
    total_penalty,
    variance_span,
    verify_penalty_inequalities,
)

FAMILIES = [SmootherFamily.cutoff(), SmootherFamily.tikhonov(), SmootherFamily.landweber()]


def _cutoff_table(spectrum, gamma=0.1, floor_rule=None):
    family = SmootherFamily.cutoff()
    grid = default_grid(family, spectrum, floor_rule=floor_rule)
    return build_penalty_table(family, grid, spectrum, gamma), grid


class TestPenU:
    def test_zero_smoother(self):
        assert pen_u(np.zeros(3), polynomial_spectrum(3, 1.0)) == 0.0

    def test_full_smoother(self):
        assert pen_u(np.ones(2), Spectrum([1.0, 0.5])) == 6.0

    def test_against_exact_summation(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            p = int(rng.integers(1, 60))
            lam = np.sort(10.0 ** rng.uniform(-4, 1, p))[::-1]
            h = rng.uniform(0.0, 1.0, p)
            got = pen_u(h, Spectrum(lam))
            want = 2.0 * math.fsum(float(a) / float(b) for a, b in zip(h, lam))
            assert abs(got - want) <= 1e-14 * abs(want)


class TestPenCV:
    def test_values(self):
        assert pen_cv(np.zeros(4)) == 0.0
        assert pen_cv(np.ones(7)) == 14.0

    def test_tikhonov_at_matching_alpha(self):
        p = 9
        s = Spectrum(np.full(p, 2.0))
        h = h_values(SmootherFamily.tikhonov(), 2.0, s)
        assert pen_cv(h) == float(p)


class TestNoiseScale:
    def test_small_cases(self):
        assert noise_scale(np.ones(2), Spectrum([1.0, 1.0])) == 2.0
        assert noise_scale(np.zeros(2), Spectrum([1.0, 0.5])) == 0.0

    def test_exponential_growth_rate(self):
        # log D(m) for cutoff on lambda(k) = exp(-k) grows affinely with slope 1
        s = exponential_spectrum(30, 1.0)
        family = SmootherFamily.cutoff()
        ms = np.arange(5, 26)
        logs = [
            math.log(noise_scale(h_values(family, 1.0 / m, s), s)) for m in ms
        ]
        slope = np.polyfit(ms, logs, 1)[0]
        assert abs(slope - 1.0) < 0.02

    def test_no_overflow_for_severe_spectra(self):
        s = exponential_spectrum(500, 1.0)
        d = noise_scale(np.ones(500), s)
        assert np.isfinite(d) and d > 1e200


class TestCramerTerm:
    def test_zero(self):
        assert cramer_term(0.0) == 0.0

    def test_dominates_quadratic_bound(self):
        for x in (0.01, 0.1, 0.25, 0.4, 0.49):
            assert cramer_term(x) >= x * x / (1.0 - 2.0 * x)

    def test_quarter_against_mpmath(self):
        from mpmath import mp, mpf

        with mp.workdps(50):
            x = mpf(1) / 4
            want = float(mp.log(1 - 2 * x) / 2 + x + 2 * x * x / (1 - 2 * x))
        assert abs(cramer_term(0.25) - want) <= 1e-14 * abs(want)

    def test_strictly_increasing(self):
        xs = np.linspace(0.0, 0.499, 2000)
        vals = cramer_term(xs)
        assert np.all(np.diff(vals) > 0.0)

    def test_domain(self):
        with pytest.raises(ValueError, match="domain error"):
            cramer_term(0.5)
        with pytest.raises(ValueError, match="domain error"):
            cramer_term(-0.01)


class TestSolveMu:
    def test_zero_log_ratio(self):
        s = polynomial_spectrum(5, 1.0)
        assert solve_mu(np.ones(5), s, 0.0) == 0.0

    def test_negative_log_ratio_clamps_with_warning(self):
        s = polynomial_spectrum(5, 1.0)
        with pytest.warns(RuntimeWarning, match="clamped"):
            assert solve_mu(np.ones(5), s, -1e-14) == 0.0

    def test_single_component_matches_scalar_inverse(self):
        # p = 1 makes rho = 1, so mu is the scalar inverse of the transform,
        # computed here by an independent bisection on the closed form
        s = Spectrum([2.0])
        for target in (0.01, 0.5, 2.0, 10.0):
            lo, hi = 0.0, 0.5 - 1e-15
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                val = 0.5 * math.log(1.0 - 2.0 * mid) + mid + 2.0 * mid * mid / (1.0 - 2.0 * mid)
                if val < target:
                    lo = mid
                else:
                    hi = mid
            want = 0.5 * (lo + hi)
            got = solve_mu(np.array([0.7]), s, target)
            assert abs(got - want) < 1e-12

    def test_residual_and_lower_bound(self):
        rng = np.random.default_rng(32)
        for _ in range(40):
            p = int(rng.integers(2, 50))
            lam = np.sort(10.0 ** rng.uniform(-4, 0, p))[::-1]
            s = Spectrum(lam)
            h = rng.uniform(0.0, 1.0, p)
            if not h.any():
                continue
            log_ratio = float(10.0 ** rng.uniform(-3, 2))
            mu = solve_mu(h, s, log_ratio)
            t = h * (2.0 - h) / lam
            d = noise_scale(h, s)
            rho = np.sqrt(2.0) * t / d
            resid = abs(float(np.sum(cramer_term(mu * rho))) - log_ratio)
            assert resid <= 1e-10 * max(1.0, log_ratio)
            assert mu >= min(0.5 * math.sqrt(log_ratio), 0.25) * (1.0 - 1e-9)

    def test_objective_monotone_in_mu(self):
        s = polynomial_spectrum(8, 1.0)
        h = np.linspace(1.0, 0.2, 8)
        d = noise_scale(h, s)
        rho = np.sqrt(2.0) * (h * (2.0 - h) / s.retained) / d
        mus = np.linspace(0.0, (1 - 1e-9) / (2 * rho.max()), 300)
        vals = [float(np.sum(cramer_term(m * rho))) for m in mus]
        assert np.all(np.diff(vals) > 0.0)

    def test_degenerate_smoother(self):
        s = polynomial_spectrum(4, 1.0)
        with pytest.raises(ValueError, match="degenerate smoother"):
            solve_mu(np.zeros(4), s, 1.0)


class TestQPlus:
    def test_zero_at_reference(self):
        s = polynomial_spectrum(6, 2.0)
        h = h_values(SmootherFamily.tikhonov(), 3.0, s)
        d = noise_scale(h, s)
        assert q_plus(h, s, d) == 0.0

    def test_independent_reimplementation(self):
        # from-scratch recomputation with a different root finder (brentq)
        s = Spectrum([1.0, 0.1])
        family = SmootherFamily.tikhonov()
        h = h_values(family, 0.05, s)
        d_ref = noise_scale(h_values(family, 10.0, s), s)
        got = q_plus(h, s, d_ref)

        lam = s.retained
        t = h * (2.0 - h) / lam
        d = math.sqrt(2.0 * float(t @ t))
        rho = math.sqrt(2.0) * t / d
        target = math.log(d / d_ref)

        def objective(m):
            x = m * rho
            return float(np.sum(0.5 * np.log1p(-2 * x) + x + 2 * x * x / (1 - 2 * x))) - target

        mu = brentq(objective, 0.0, (1 - 1e-13) / (2 * rho.max()), xtol=1e-15, rtol=1e-15)
        want = 2.0 * d * mu * float(np.sum(rho * rho / (1.0 - 2.0 * mu * rho)))
        assert abs(got - want) <= 1e-9 * want

    def test_dominates_root_log_scale(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            p = int(rng.integers(3, 40))
            lam = np.sort(10.0 ** rng.uniform(-5, 0, p))[::-1]
            s = Spectrum(lam)
            family = FAMILIES[int(rng.integers(0, 3))]
            grid = default_grid(family, s, points=10, floor_rule=None)
            d_ref = noise_scale(h_values(family, grid.alpha_max, s), s)
            h = h_values(family, grid.alpha_floor, s)
            d = noise_scale(h, s)
            if d <= d_ref:
                continue
            q = q_plus(h, s, d_ref)
            assert q >= d * math.sqrt(math.log(d / d_ref)) * (1.0 - 1e-9)


class TestTotalPenalty:
    def test_reduces_to_pen_u_at_reference(self):
        s = polynomial_spectrum(5, 1.0)
        h = h_values(SmootherFamily.cutoff(), 1.0, s)
        d_ref = noise_scale(h, s)
        assert total_penalty(h, s, 0.1, d_ref) == pen_u(h, s)

    def test_gamma_boundaries_rejected(self):
        s = polynomial_spectrum(3, 1.0)
        h = np.ones(3)
        for gamma in (0.0, 0.25, -0.1, 1.0):
            with pytest.raises(ValueError, match="gamma"):
                total_penalty(h, s, gamma, 1.0)

    def test_nonincreasing_along_grid(self):
        for spectrum in (polynomial_spectrum(40, 1.0), exponential_spectrum(25, 0.5)):
            for family in FAMILIES:
                grid = default_grid(family, spectrum, points=15, floor_rule=None)
                table = build_penalty_table(family, grid, spectrum, 0.1)
                pen = table.pen_total
                assert np.all(np.diff(pen) <= 1e-9 * pen[:-1]), family.kind


class TestPenaltyTable:
    def test_row_invariants(self):
        for spectrum in (polynomial_spectrum(50, 2.0), exponential_spectrum(500, 1.0)):
            table, _ = _cutoff_table(spectrum)
            lam = spectrum.retained
            d = table.d
            assert np.all(np.diff(d) <= 0.0)
            assert table.q_plus[-1] == 0.0
            assert np.all(table.q_plus[:-1] > 0.0)
            for name in ("pen_u", "pen_cv", "d", "mu", "q_plus", "pen_total",
                         "h_lambda_norm2", "one_minus_h_norm2", "max_h_over_lambda"):
                col = getattr(table, name)
                assert np.all(np.isfinite(col)) and np.all(col >= 0.0), name
            # the stored row kernels are exactly their recomputation from h_rows
            h_rows = table.h_rows
            resid2 = (1.0 - h_rows) ** 2
            assert np.array_equal(table.noise_weights, h_rows * (2.0 - h_rows) / lam)
            assert np.array_equal(table.resid2, resid2)
            assert np.array_equal(table.resid_dof, np.sum(resid2, axis=1))
            for name in ("alphas", "pen_u", "pen_cv", "d", "mu", "q_plus", "pen_total",
                         "h_lambda_norm2", "one_minus_h_norm2", "max_h_over_lambda",
                         "h_rows", "noise_weights", "resid2", "resid_dof"):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(table, name)[0] = 0.0
            # rho derived from the stored noise scale must be a unit vector
            for i, h in enumerate(table.h_rows):
                rho = np.sqrt(2.0) * (h * (2.0 - h) / lam) / table.d[i]
                assert abs(float(rho @ rho) - 1.0) <= 1e-12

    def test_requires_ordered_family(self):
        s = Spectrum([1.0, 0.5])
        family = SmootherFamily.from_table(
            alphas=[1.0, 2.0], h_table=[[0.3, 0.1], [0.9, 0.5]]
        )
        with pytest.raises(ValueError, match="not ordered"):
            build_penalty_table(family, AlphaGrid([1.0, 2.0]), s, 0.1)

    def test_accepts_ordered_table_family(self):
        s = Spectrum([1.0, 0.5])
        family = SmootherFamily.from_table(
            alphas=[1.0, 2.0], h_table=[[0.9, 0.5], [0.3, 0.1]]
        )
        table = build_penalty_table(family, AlphaGrid([1.0, 2.0]), s, 0.1)
        assert table.alphas.size == 2

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_subnormal_eigenvalue_is_numerical_failure(self):
        # h / lambda overflows at lambda = 1e-310, so D is NaN on the first
        # row; NaN slips through every comparison and must be caught explicitly
        s = Spectrum([1.0, 0.5, 0.25, 1e-310])
        family = SmootherFamily.cutoff()
        grid = default_grid(family, s, floor_rule=None)
        with pytest.raises(ArithmeticError, match="non-finite"):
            build_penalty_table(family, grid, s, 0.1)


class TestVarianceSpan:
    def test_single_point_closed_form(self):
        s = polynomial_spectrum(12, 1.0)
        family = SmootherFamily.tikhonov()
        grid = AlphaGrid([1.0])
        table = build_penalty_table(family, grid, s, 0.1)
        norm = math.sqrt(table.one_minus_h_norm2[0])
        # both ratios are 1; the loglog term log(log 2) is negative and clips to 0
        assert table.psi == pytest.approx(math.log(2.0) / norm, rel=1e-12)
        assert variance_span(table) == table.psi

    def test_hand_evaluated_cutoff_case(self):
        s = polynomial_spectrum(100, 2.0)
        family = SmootherFamily.cutoff()
        grid = AlphaGrid([1.0 / 50.0, 1.0])
        table = build_penalty_table(family, grid, s, 0.1)
        floor_norm2 = 100.0 - 50.0
        top_norm2 = 100.0 - 1.0
        envelope = math.sqrt(math.log(math.log(1.0 + top_norm2 / floor_norm2)))
        span = math.log(1.0 + table.pen_total[0] / table.pen_total[-1])
        want = (envelope + span) / math.sqrt(floor_norm2)
        assert table.psi == pytest.approx(want, rel=1e-12)

    def test_decreases_with_dimension(self):
        values = []
        for p in (100, 1000, 10000):
            s = polynomial_spectrum(p, 2.0)
            grid = AlphaGrid([2.0 / p, 1.0])  # keep p/2 at the floor, 1 at the top
            table = build_penalty_table(SmootherFamily.cutoff(), grid, s, 0.1)
            values.append(table.psi)
        assert values[0] > values[1] > values[2]

    def test_degenerate_floor(self):
        s = polynomial_spectrum(5, 1.0)
        table, _ = _cutoff_table(s)  # full grid: first row keeps everything
        assert math.isnan(table.psi)
        with pytest.raises(ValueError, match="variance estimation impossible"):
            variance_span(table)


class TestCheckConditions:
    def test_polynomial_cutoff_passes(self):
        table, _ = _cutoff_table(polynomial_spectrum(50, 2.0))
        report = check_conditions(table)
        assert report.ok and report.c2_hat > 0.0

    def test_exponential_cutoff_constant_near_one(self):
        table, _ = _cutoff_table(exponential_spectrum(30, 1.0))
        report = check_conditions(table)
        assert report.ok
        assert 0.5 <= report.c2_hat <= 1.5

    def test_binary_smoother_first_ratio_is_one(self):
        s = polynomial_spectrum(5, 1.0)
        table = build_penalty_table(SmootherFamily.cutoff(), AlphaGrid([1.0 / 5.0]), s, 0.1)
        report = check_conditions(table)
        assert report.ratio_unbiased[0] == 1.0


class TestVerifyPenaltyInequalities:
    def test_lower_bounds_hold_on_random_spectra(self):
        # the root and adaptive-term lower bounds hold on every table, and so
        # does the log-form bound with its proved constant 1/2 (acceptance
        # criterion 2 has the proof); the verifier's two auxiliary
        # inequalities are not guaranteed and are not asserted here
        rng = np.random.default_rng(34)
        for _ in range(30):
            p = int(rng.integers(3, 40))
            lam = np.sort(10.0 ** rng.uniform(-6, 0, p))[::-1]
            s = Spectrum(lam)
            family = FAMILIES[int(rng.integers(0, 3))]
            grid = default_grid(family, s, points=12, floor_rule=None)
            table = build_penalty_table(family, grid, s, 0.1)
            report = verify_penalty_inequalities(table)
            for violation in report.violations:
                assert "q_plus below" not in violation
                assert "mu below" not in violation
            d, mu, q = table.d, table.mu, table.q_plus
            separated = d >= math.exp(2.0) * table.d_ref
            inner = mu[separated] * q[separated] / table.d_ref
            assert np.all(inner > 1.0)
            half_log_rhs = mu[separated] * q[separated] / (2.0 * np.log(inner))
            assert np.all(d[separated] >= half_log_rhs * (1.0 - 1e-9))

    def test_single_point_grid_vacuous(self):
        s = polynomial_spectrum(5, 1.0)
        table = build_penalty_table(SmootherFamily.cutoff(), AlphaGrid([0.5]), s, 0.1)
        assert verify_penalty_inequalities(table).ok

    def test_flat_spectrum_tikhonov_passes(self):
        s = Spectrum(np.ones(5))
        family = SmootherFamily.tikhonov()
        grid = default_grid(family, s, points=12, floor_rule=None)
        table = build_penalty_table(family, grid, s, 0.1)
        assert verify_penalty_inequalities(table).ok

    def test_detects_log_bound_counterexample(self):
        # the verifier checks the log-form bound with constant 1, which flat
        # damping profiles violate (it reduces to log(2L) >= L, false for
        # L >= 2); the detector must report it rather than mask it
        table, _ = _cutoff_table(polynomial_spectrum(100, 2.0))
        report = verify_penalty_inequalities(table)
        assert not report.ok
        assert any("log bound" in v for v in report.violations)

    def test_ratio_monotonicity_fails_in_high_precision(self):
        # the pairwise check q_i/q_j >= d_i/d_j is false for the penalty as
        # defined, not an artefact of rounding: recompute d, mu and q_plus for
        # cutoff at m = 217 and m = 32 (reference m = 1) in 50-digit arithmetic
        from mpmath import mp, mpf

        s = polynomial_spectrum(217, 2.0)
        table = build_penalty_table(
            SmootherFamily.cutoff(), AlphaGrid([1.0 / 217.0, 1.0 / 32.0, 1.0]), s, 0.1
        )
        assert list(table.h_rows.sum(axis=1)) == [217.0, 32.0, 1.0]
        with mp.workdps(50):
            inv_lam = [1 / mpf(float(v)) for v in s.retained]

            def scale(m):
                return mp.sqrt(2 * mp.fsum(t * t for t in inv_lam[:m]))

            d_ref = scale(1)
            per_d = []
            for m in (217, 32):
                d = scale(m)
                rho = [mp.sqrt(2) * t / d for t in inv_lam[:m]]
                log_ratio = mp.log(d / d_ref)

                def excess(mu):
                    return mp.fsum(
                        mp.log(1 - 2 * mu * r) / 2 + mu * r + 2 * (mu * r) ** 2 / (1 - 2 * mu * r)
                        for r in rho
                    ) - log_ratio

                lo, hi = mpf(0), 1 / (2 * max(rho))
                for _ in range(170):
                    mid = (lo + hi) / 2
                    lo, hi = (mid, hi) if excess(mid) < 0 else (lo, mid)
                mu = (lo + hi) / 2
                q = 2 * d * mu * mp.fsum(r * r / (1 - 2 * mu * r) for r in rho)
                per_d.append(q / d)
            want = float(per_d[0] / per_d[1])
        q, d = table.q_plus, table.d
        got = (q[0] / d[0]) / (q[1] / d[1])
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        assert want < 1.0 - 1e-3
        report = verify_penalty_inequalities(table)
        assert any("ratio exceeds" in v for v in report.violations)
