"""Tests for the penalty quantities, the calibration root, and the verifiers."""

from __future__ import annotations

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from specreg import (
    AlphaGrid,
    SmootherFamily,
    SpectralModel,
    Spectrum,
    build_penalty_table,
    check_conditions,
    check_ordered,
    default_grid,
    excess_sup_stat,
    exponential_spectrum,
    h_values,
    mc_run,
    polynomial_spectrum,
    replication_stream,
    risk_profile,
    select_alpha,
    simulate_observation,
    verify_penalty_inequalities,
)
from specreg import penalty
from specreg.penalty import (
    _cramer,
    _cramer_rowsum,
    _row_slices,
    _unit_rows,
)
from specreg.selection import _select_rows
from specreg.smoothers import _ROW_BLOCK_ELEMS
from reference import cramer_term, pen_cv, pen_u, penalty_columns

FAMILIES = [SmootherFamily("cutoff"), SmootherFamily("tikhonov"), SmootherFamily("landweber")]


def _cutoff_table(spectrum, gamma=0.1, floor=False):
    family = SmootherFamily("cutoff")
    grid = default_grid(family, spectrum, floor=floor)
    return build_penalty_table(family, grid, spectrum, gamma), grid


def _kernel_matrices(table):
    """The row kernels h (2 - h) / lambda and (1 - h)^2 of every grid row,
    formed from the table's h rows."""
    h = table.h(slice(None))
    return h * (2.0 - h) / table.spectrum.retained, (1.0 - h) ** 2


def _table_blocks(table):
    """The row blocks the build walks."""
    return _row_slices(table.alphas.size, table.spectrum.retained.size)


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
        h = h_values(SmootherFamily("tikhonov"), 2.0, s)
        assert pen_cv(h) == float(p)


def _one_row_table(h, spectrum):
    family = SmootherFamily("table", alphas=[1.0], h_table=[h])
    return build_penalty_table(family, AlphaGrid([1.0]), spectrum, 0.1)


def _scalar_kernels(h, spectrum, log_ratio):
    """Noise scale and root of a single h against a free target log ratio,
    through the table's row kernels."""
    t = (h * (2.0 - h) / spectrum.retained)[None, :]
    d, rho = _unit_rows(t)
    mu, _ = penalty._solve_mu_rows(rho, np.array([log_ratio]))
    return t[0], float(d[0]), float(mu[0])


class TestNoiseScale:
    def test_small_cases(self):
        assert _one_row_table(np.ones(2), Spectrum([1.0, 1.0])).d[0] == 2.0
        assert _unit_rows(np.zeros((1, 2)))[0][0] == 0.0

    def test_exponential_growth_rate(self):
        # log D(m) for cutoff on lambda(k) = exp(-k) grows affinely with slope 1
        table, grid = _cutoff_table(exponential_spectrum(30, 1.0))
        ms = np.arange(5, 26)
        logs = np.log(table.d[np.searchsorted(grid.values, 1.0 / ms)])
        slope = np.polyfit(ms, logs, 1)[0]
        assert abs(slope - 1.0) < 0.02

    def test_no_overflow_for_severe_spectra(self):
        table, _ = _cutoff_table(exponential_spectrum(500, 1.0))
        assert np.all(table.h(0) == 1.0)
        assert np.isfinite(table.d[0]) and table.d[0] > 1e200

    def test_unit_rows_against_mpmath(self):
        from mpmath import mp, mpf

        rng = np.random.default_rng(22)
        t = 10.0 ** rng.uniform(-300.0, 0.0, (6, 40))
        t[0, :3] = [5e-324, 1e-310, 1.0]  # subnormal entries beside the peak
        t[1] = 1.0
        t[2] = 1e-300
        t[3] = 1e300  # its squares overflow without the max scaling
        t[4] = np.geomspace(1e-10, 1e-320, 40)  # a small peak; subnormal entries of t and rho
        d, rho = _unit_rows(t)
        peak = t.max(axis=1)[:, None]
        assert np.array_equal(rho.max(axis=1), 1.0 / np.sqrt(np.einsum("ij,ij->i", t / peak, t / peak)))
        with mp.workdps(40):
            for i, row in enumerate(t):
                want = mp.sqrt(2 * mp.fsum(mpf(float(v)) ** 2 for v in row))
                assert abs(mpf(float(d[i])) / want - 1) <= 4 * np.finfo(float).eps, i
                assert abs(mp.fsum(mpf(float(v)) ** 2 for v in rho[i]) - 1) <= 4 * np.finfo(float).eps, i

    def test_unit_rows_of_a_zero_row(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d, rho = _unit_rows(np.array([[0.0, 0.0, 0.0], [0.0, 2.0, 1.0]]))
        assert d[0] == 0.0 and np.all(rho[0] == 0.0)
        assert d[1] == math.sqrt(10.0) and np.array_equal(rho[1], np.array([0.0, 2.0, 1.0]) / math.sqrt(5.0))


class TestCramerTerm:
    # the value checks hold the kernel of the mu solve; the domain check is
    # the reference's, whose formula the residual checks compare with
    def test_zero(self):
        assert _cramer(0.0)[0] == 0.0

    def test_dominates_quadratic_bound(self):
        for x in (0.01, 0.1, 0.25, 0.4, 0.49):
            assert _cramer(x)[0] >= x * x / (1.0 - 2.0 * x)

    def test_quarter_against_mpmath(self):
        from mpmath import mp, mpf

        with mp.workdps(50):
            x = mpf(1) / 4
            want = float(mp.log(1 - 2 * x) / 2 + x + 2 * x * x / (1 - 2 * x))
        assert abs(_cramer(0.25)[0] - want) <= 1e-14 * abs(want)

    def test_strictly_increasing(self):
        xs = np.linspace(0.0, 0.499, 2000)
        vals = _cramer(xs)[0]
        assert np.all(np.diff(vals) > 0.0)

    def test_domain(self):
        with pytest.raises(ValueError, match="domain error"):
            cramer_term(0.5)
        with pytest.raises(ValueError, match="domain error"):
            cramer_term(-0.01)


class TestSolveMu:
    def test_zero_log_ratio(self):
        table = _one_row_table(np.ones(5), polynomial_spectrum(5, 1.0))
        assert table.mu[0] == 0.0

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
            got = _scalar_kernels(np.array([0.7]), s, target)[2]
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
            t, d, mu = _scalar_kernels(h, s, log_ratio)
            rho = np.sqrt(2.0) * t / d
            resid = abs(float(np.sum(cramer_term(mu * rho))) - log_ratio)
            assert resid <= 1e-10 * max(1.0, log_ratio)
            assert mu >= min(0.5 * math.sqrt(log_ratio), 0.25) * (1.0 - 1e-9)

    def test_objective_monotone_in_mu(self):
        s = polynomial_spectrum(8, 1.0)
        h = np.linspace(1.0, 0.2, 8)
        t = h * (2.0 - h) / s.retained
        rho = t / math.sqrt(float(t @ t))
        mus = np.linspace(0.0, (1 - 1e-9) / (2 * rho.max()), 300)
        vals = [float(np.sum(cramer_term(m * rho))) for m in mus]
        assert np.all(np.diff(vals) > 0.0)

    def test_degenerate_smoother(self):
        with pytest.raises(ValueError, match="degenerate smoother"):
            _one_row_table(np.zeros(4), polynomial_spectrum(4, 1.0))


def _zero_tailed_rho(rng, widths, p):
    """Rows with nonzero rho up to the given widths, exact zeros after."""
    rho = np.zeros((len(widths), p))
    for i, width in enumerate(widths):
        rho[i, :width] = rng.uniform(0.01, 1.0, width)
    return rho


def _used_width(rows):
    """The width of ``rows`` up to their last nonzero column."""
    used = np.flatnonzero(np.any(rows != 0.0, axis=0))
    return int(used[-1]) + 1 if used.size else 0


def _solve_blocked(rho, log_ratio):
    """mu of every row of rho, solved one row block at a time, as
    build_penalty_table hands the rows to the solve."""
    mu = np.empty(rho.shape[0])
    for block in _row_slices(*rho.shape):
        mu[block] = penalty._solve_mu_rows(rho[block], log_ratio[block])[0]
    return mu


class TestCramerRowsum:
    @staticmethod
    def _check(rng, widths, p):
        # each block's row sum, taken up to the block width, against the
        # closed-form terms summed at the full table width
        rho = _zero_tailed_rho(rng, widths, p)
        mu = rng.uniform(0.0, 0.49, len(widths)) / np.maximum(np.max(rho, axis=1), 1.0)
        x = mu[:, None] * rho
        want = np.sum(0.5 * np.log1p(-2.0 * x) + x / (1.0 - 2.0 * x), axis=1)
        for block in _row_slices(*rho.shape):
            width = _used_width(rho[block])
            x_block = mu[block, None] * rho[block, :width]
            got, q = _cramer_rowsum(x_block)
            assert np.array_equal(q, x_block / (1.0 - 2.0 * x_block))
            np.testing.assert_allclose(got, want[block], rtol=1e-14, atol=0.0)
            assert np.all(got[want[block] == 0.0] == 0.0)

    def test_mixed_zero_tails(self):
        rng = np.random.default_rng(41)
        p = 300
        # the first block is full width, the others end in zero tails
        widths = rng.integers(0, 200, 250)
        widths[:3] = (0, 1, p)
        self._check(rng, widths, p)

    def test_ragged_last_block(self):
        rng = np.random.default_rng(42)
        p = 100
        rows = 3 * (_ROW_BLOCK_ELEMS // p) + 5
        self._check(rng, np.linspace(p, 1, rows).astype(int), p)

    def test_row_wider_than_block(self):
        rng = np.random.default_rng(43)
        p = _ROW_BLOCK_ELEMS + 7
        assert [rows.stop - rows.start for rows in _row_slices(3, p)] == [1, 1, 1]
        self._check(rng, [p, 5000, 0], p)

    def test_rows_without_zeros(self):
        rng = np.random.default_rng(44)
        self._check(rng, [700] * 60, 700)

    def test_single_row(self):
        rng = np.random.default_rng(45)
        for width in (0, 3, 129, 400):
            self._check(rng, [width], 400)

    def test_cramer_rounds_as_the_closed_form(self):
        # the in-place _cramer against the left-to-right expression it replaces
        x = np.concatenate([np.linspace(0.0, 0.5 - 1e-13, 5001), 10.0 ** np.arange(-320.0, 0.0)])
        want = 0.5 * np.log1p(-2.0 * x) + x / (1.0 - 2.0 * x)
        assert np.array_equal(_cramer(x)[0], want)
        assert np.array_equal(_cramer(x[:5319].reshape(-1, 3))[0], want[:5319].reshape(-1, 3))
        # and the q it returns for the Halley step rounds as that expression
        assert np.array_equal(_cramer(x)[1], x / (1.0 - 2.0 * x))


def _bisection_mu(rho, log_ratio):
    """Frozen reference for the mu solve: the plain 60-step bisection on
    [0, (1 - 1e-12) / (2 max rho)] that sums every midpoint's Cramer terms at
    the full row width, in row chunks to bound the temporaries."""
    hi = (1.0 - 1e-12) / (2.0 * np.max(rho, axis=1))
    lo = np.zeros_like(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        rowsum = np.empty_like(mid)
        for start in range(0, rho.shape[0], 64):
            x = mid[start:start + 64, None] * rho[start:start + 64]
            rowsum[start:start + 64] = np.sum(
                0.5 * np.log1p(-2.0 * x) + x + 2.0 * x * x / (1.0 - 2.0 * x), axis=1)
        below = rowsum < log_ratio
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return np.where(log_ratio > 0.0, 0.5 * (lo + hi), 0.0)


def _mu_inputs(table):
    """rho and the log ratios that build_penalty_table hands to the mu solve."""
    d = table.d
    return _unit_rows(_kernel_matrices(table)[0])[1], penalty._log_ratio(d, d[-1])


def _count_rowsums(monkeypatch):
    """Record the calls of the mu solve's row sum; returns their list."""
    calls, rowsum = [], penalty._cramer_rowsum
    monkeypatch.setattr(penalty, "_cramer_rowsum", lambda *args: calls.append(None) or rowsum(*args))
    return calls


def _assert_near_bisection(mu, rho, log_ratio):
    """mu within 8 ulps of the plain bisection's on every row."""
    want = _bisection_mu(rho, log_ratio)
    assert np.all(np.abs(mu - want) <= 8.0 * np.spacing(want))


def _assert_within_noise(mu, rho, log_ratio):
    """Every row's mu within eps (1 + mu s1 / L) / (1 - 2 mu r) relative of
    the 50-digit root of the row sum, s1 = sum rho, r = max rho, L =
    log_ratio: the rounding noise of the float row sum, carried to the root.
    Rows with L = 0 must give exactly 0.  Returns the largest error found,
    in units of that bound."""
    from mpmath import mp, mpf

    assert np.all(mu[log_ratio == 0.0] == 0.0)
    worst = 0.0
    with mp.workdps(50):
        for row, target, got in zip(rho, log_ratio, mu):
            if target == 0.0:
                continue
            terms = [mpf(float(v)) for v in row if v]
            lo, hi, m = mpf(0), 1 / (2 * max(terms)), mpf(float(got))
            while True:  # Newton's method, bisecting where a step leaves [lo, hi]
                value, slope = -mpf(float(target)), mpf(0)
                for r in terms:
                    x = m * r
                    w = 1 - 2 * x
                    value += mp.log(w) / 2 + x + 2 * x * x / w
                    slope += 2 * x * r / (w * w)
                lo, hi = (m, hi) if value < 0 else (lo, m)
                step = m - value / slope
                step = step if lo < step < hi else (lo + hi) / 2
                if abs(step - m) <= m * mpf(10) ** -30:
                    break
                m = step
            root = float(step)
            bound = np.finfo(float).eps * (1.0 + root * row.sum() / target) / (1.0 - 2.0 * root * row.max())
            error = float(abs(mpf(float(got)) - step) / step) / bound
            assert error <= 1.0, (target, got, root)
            worst = max(worst, error)
    return worst


_BISECTION_TABLES = {
    "mc-cutoff k^-2 p=1000": (SmootherFamily("cutoff"), lambda: polynomial_spectrum(1000, 2.0), {}),
    "cutoff k^-2 p=2000": (SmootherFamily("cutoff"), lambda: polynomial_spectrum(2000, 2.0), {}),
    "cutoff e^-k/2 p=1000": (SmootherFamily("cutoff"), lambda: exponential_spectrum(1000, 0.5), {}),
    "tikhonov k^-2 p=1000": (SmootherFamily("tikhonov"), lambda: polynomial_spectrum(1000, 2.0),
                             {"points": 200}),
    "tikhonov k^-1 p=2000": (SmootherFamily("tikhonov"), lambda: polynomial_spectrum(2000, 1.0),
                             {"points": 200}),
    "landweber e^-k p=300": (SmootherFamily("landweber"), lambda: exponential_spectrum(300, 1.0),
                             {"points": 100}),
    "tikhonov e^-k p=500": (SmootherFamily("tikhonov"), lambda: exponential_spectrum(500, 1.0),
                            {"points": 100, "floor": False}),
    "landweber e^-k p=500": (SmootherFamily("landweber"), lambda: exponential_spectrum(500, 1.0),
                             {"points": 100, "floor": False}),
}


class TestMuBisectionReplay:
    """The Halley solve must land within 8 ulps of the plain bisection's mu,
    and both within the rounding noise of the row sum of the exact root."""

    @pytest.mark.parametrize("name", list(_BISECTION_TABLES))
    def test_tables_match_plain_bisection(self, name, monkeypatch):
        family, make_spectrum, grid_kwargs = _BISECTION_TABLES[name]
        spectrum = make_spectrum()
        grid = default_grid(family, spectrum, **grid_kwargs)
        calls = _count_rowsums(monkeypatch)
        table = build_penalty_table(family, grid, spectrum, 0.1)
        _assert_near_bisection(table.mu, *_mu_inputs(table))
        # at most six Halley steps per block on average, plus the residual
        # check: a stop rule that misjudges the noise floor of noise-limited
        # rows (e^-k spectra, rows near the pole) runs them to the step cap
        assert len(calls) <= 7 * len(_table_blocks(table))

    def test_ordered_table_family(self):
        s = polynomial_spectrum(40, 1.0)
        alphas = np.geomspace(1e-3, 10.0, 25)
        family = SmootherFamily(
            "table", alphas=alphas.tolist(), h_table=[s.retained / (s.retained + a) for a in alphas])
        table = build_penalty_table(family, AlphaGrid(alphas), s, 0.1)
        _assert_near_bisection(table.mu, *_mu_inputs(table))

    def test_rows_with_zero_log_ratio(self):
        spectrum = polynomial_spectrum(300, 2.0)
        family = SmootherFamily("cutoff")
        rho, log_ratio = _mu_inputs(build_penalty_table(
            family, default_grid(family, spectrum), spectrum, 0.1))
        log_ratio[::3] = 0.0
        mu = _solve_blocked(rho, log_ratio)
        assert np.all(mu[::3] == 0.0)
        _assert_near_bisection(mu, rho, log_ratio)

    def test_multi_block_zero_tails(self):
        # widths rise and fall from block to block
        rng = np.random.default_rng(46)
        p = 400
        widths = rng.integers(1, p + 1, 700)
        rho = _zero_tailed_rho(rng, widths, p)
        assert len(_row_slices(*rho.shape)) > 5
        log_ratio = rng.uniform(0.01, 20.0, widths.size)
        _assert_near_bisection(_solve_blocked(rho, log_ratio), rho, log_ratio)

    def test_row_wider_than_block(self):
        rng = np.random.default_rng(47)
        p = _ROW_BLOCK_ELEMS + 7
        rho = _zero_tailed_rho(rng, [p, 40, 5000, 1], p)
        log_ratio = np.array([3.0, 0.5, 12.0, 1.0])
        assert len(_row_slices(*rho.shape)) == 4
        _assert_near_bisection(_solve_blocked(rho, log_ratio), rho, log_ratio)

    def test_trim_is_exact(self):
        # the solve trims the rows it is handed to their last nonzero column:
        # handing it the trimmed rows gives the same mu bit for bit, on the
        # cutoff table's blocks (k^-2, p=400), random zero tails and an
        # all-zero block with log ratio 0
        rng = np.random.default_rng(48)
        spectrum = polynomial_spectrum(400, 2.0)
        family = SmootherFamily("cutoff")
        rho, log_ratio = _mu_inputs(build_penalty_table(
            family, default_grid(family, spectrum), spectrum, 0.1))
        cases = [(rho[block], log_ratio[block]) for block in _row_slices(*rho.shape)]
        cases += [(_zero_tailed_rho(rng, rng.integers(1, 300, 50), 400), rng.uniform(0.01, 20.0, 50)),
                  (np.zeros((3, 50)), np.zeros(3))]
        for rows, target in cases:
            width = _used_width(rows)
            assert width < rows.shape[1]
            mu = penalty._solve_mu_rows(rows, target)[0]
            assert np.array_equal(mu, penalty._solve_mu_rows(rows[:, :width], target)[0])
        assert width == 0 and np.array_equal(mu, np.zeros(3))

    def test_random_extreme_rows(self, monkeypatch):
        # rows spanning 330 decades (subnormal entries included), flat rows,
        # single-entry rows and log ratios from 1e-16 to 1e3, where the root
        # is known only to the rounding noise of the row sum: both solves
        # must stay inside it, though they need not agree to the ulp
        rng = np.random.default_rng(49)
        worst = {"halley": 0.0, "bisection": 0.0}
        for p in (1, 7, 129, 700):
            t = np.vstack([10.0 ** rng.uniform(-330.0, 0.0, (10, p)),
                           np.ones((3, p)), rng.uniform(0.0, 1.0, (10, p))])
            t[:, 0] += 1e-300
            rho = t / np.sqrt(np.sum((t / t.max(axis=1, keepdims=True)) ** 2, axis=1,
                                     keepdims=True)) / t.max(axis=1, keepdims=True)
            log_ratio = 10.0 ** rng.uniform(-16.0, 3.0, len(t))
            log_ratio[::5] = 0.0
            calls = _count_rowsums(monkeypatch)
            halley = penalty._solve_mu_rows(rho, log_ratio)[0]
            assert len(_row_slices(*rho.shape)) == 1 and len(calls) <= 7
            for name, mu in (("halley", halley), ("bisection", _bisection_mu(rho, log_ratio))):
                worst[name] = max(worst[name], _assert_within_noise(mu, rho, log_ratio))
        print(f"worst error / bound: {worst}")

    def test_midpoint_fallback(self, monkeypatch):
        # the first row sum of the block reports each residual 1000 times too
        # large (with its sign kept, so the bracket stays right): the Halley
        # steps from there leave the bracket, the bracket midpoints take
        # over, and mu still lands within the noise of the exact root
        spectrum = exponential_spectrum(200, 0.5)
        family = SmootherFamily("tikhonov")
        rho, log_ratio = _mu_inputs(build_penalty_table(
            family, default_grid(family, spectrum, points=20), spectrum, 0.1))
        assert len(_row_slices(*rho.shape)) == 1 and log_ratio[-1] == 0.0 and np.all(log_ratio[:-1] > 0.0)
        rowsum, calls = penalty._cramer_rowsum, []

        def inflated(x):
            calls.append(np.max(x, axis=1))  # m r, with x = m rho and r = max rho
            value, q = rowsum(x)
            if len(calls) == 1:
                value = log_ratio[:-1] + 1e3 * (value - log_ratio[:-1])
            return value, q

        monkeypatch.setattr(penalty, "_cramer_rowsum", inflated)
        mu = penalty._solve_mu_rows(rho, log_ratio)[0]
        # u = -log1p(-2 m r); the first bracket is (0, u0) or (u0, u(hi))
        r = np.max(rho[:-1], axis=1)
        u0, u1, u_hi = (-np.log1p(-2.0 * mr) for mr in (calls[0], calls[1], r * (1.0 - 1e-12) / (2.0 * r)))
        midpoint = np.isclose(u1, 0.5 * u0, rtol=1e-12) | np.isclose(u1, 0.5 * (u0 + u_hi), rtol=1e-12)
        assert np.count_nonzero(midpoint) > log_ratio.size // 2
        _assert_within_noise(mu, rho, log_ratio)


class TestQPlus:
    def test_zero_at_reference(self):
        s = polynomial_spectrum(6, 2.0)
        table = build_penalty_table(SmootherFamily("tikhonov"), AlphaGrid([3.0]), s, 0.1)
        assert table.q_plus[0] == 0.0

    def test_independent_reimplementation(self):
        # from-scratch recomputation with a different root finder (brentq)
        s = Spectrum([1.0, 0.1])
        table = build_penalty_table(SmootherFamily("tikhonov"), AlphaGrid([0.05, 10.0]), s, 0.1)

        lam = s.retained

        def weights(alpha):
            h = lam / (lam + alpha)
            return h * (2.0 - h) / lam

        t, t_ref = weights(0.05), weights(10.0)
        d = math.sqrt(2.0 * float(t @ t))
        d_ref = math.sqrt(2.0 * float(t_ref @ t_ref))
        rho = math.sqrt(2.0) * t / d
        target = math.log(d / d_ref)

        def objective(m):
            x = m * rho
            return float(np.sum(0.5 * np.log1p(-2 * x) + x + 2 * x * x / (1 - 2 * x))) - target

        mu = brentq(objective, 0.0, (1 - 1e-13) / (2 * rho.max()), xtol=1e-15, rtol=1e-15)
        want = 2.0 * d * mu * float(np.sum(rho * rho / (1.0 - 2.0 * mu * rho)))
        assert abs(table.q_plus[0] - want) <= 1e-9 * want

    def test_rounding_against_mpmath(self):
        # 40-digit q_plus = 2 d mu sum rho^2 / (1 - 2 mu rho) at the table's
        # own float d, mu and rho, on every second row of tikhonov on e^-k/2
        # (p = 500, 200 points), where mu rho comes closest to 1/2
        from mpmath import mp, mpf

        spectrum = exponential_spectrum(500, 0.5)
        family = SmootherFamily("tikhonov")
        table = build_penalty_table(family, default_grid(family, spectrum, points=200), spectrum, 0.1)
        rho = _mu_inputs(table)[0]
        worst = 0.0
        with mp.workdps(40):
            for i in np.flatnonzero(table.mu > 0.0)[::2]:
                mu = mpf(float(table.mu[i]))
                total = mp.fsum(mpf(float(r)) ** 2 / (1 - 2 * mu * mpf(float(r))) for r in rho[i] if r)
                want = 2 * mpf(float(table.d[i])) * mu * total
                worst = max(worst, float(abs(mpf(float(table.q_plus[i])) - want) / want))
        assert worst <= 64.0 * np.finfo(float).eps, worst / np.finfo(float).eps

    def test_dominates_root_log_scale(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            p = int(rng.integers(3, 40))
            lam = np.sort(10.0 ** rng.uniform(-5, 0, p))[::-1]
            s = Spectrum(lam)
            family = FAMILIES[int(rng.integers(0, 3))]
            grid = default_grid(family, s, points=10, floor=False)
            table = build_penalty_table(
                family, AlphaGrid([grid.values[0], grid.values[-1]]), s, 0.1)
            d, d_ref = table.d
            if d <= d_ref:
                continue
            assert table.q_plus[0] >= d * math.sqrt(math.log(d / d_ref)) * (1.0 - 1e-9)


class TestTotalPenalty:
    def test_reduces_to_pen_u_at_reference(self):
        table, _ = _cutoff_table(polynomial_spectrum(5, 1.0))
        assert table.q_plus[-1] == 0.0
        assert table.pen_total[-1] == table.pen_u[-1]

    def test_gamma_boundaries_rejected(self):
        s = polynomial_spectrum(3, 1.0)
        grid = default_grid(SmootherFamily("cutoff"), s, floor=False)
        for gamma in (0.0, 0.25, -0.1, 1.0):
            with pytest.raises(ValueError, match="gamma"):
                build_penalty_table(SmootherFamily("cutoff"), grid, s, gamma)

    def test_nonincreasing_along_grid(self):
        for spectrum in (polynomial_spectrum(40, 1.0), exponential_spectrum(25, 0.5)):
            for family in FAMILIES:
                grid = default_grid(family, spectrum, points=15, floor=False)
                table = build_penalty_table(family, grid, spectrum, 0.1)
                pen = table.pen_total
                assert np.all(np.diff(pen) <= 1e-9 * pen[:-1]), family.kind


class TestPenaltyTable:
    def test_row_invariants(self):
        blocks = []
        for spectrum in (polynomial_spectrum(50, 2.0), exponential_spectrum(500, 1.0)):
            table, _ = _cutoff_table(spectrum)
            blocks.append(len(_table_blocks(table)))
            lam = spectrum.retained
            d = table.d
            assert np.all(np.diff(d) <= 0.0)
            assert table.q_plus[-1] == 0.0
            assert np.all(table.q_plus[:-1] > 0.0)
            for name in ("pen_u", "pen_cv", "d", "mu", "q_plus", "pen_total",
                         "h_lambda_norm2", "one_minus_h_norm2", "max_h_over_lambda"):
                col = getattr(table, name)
                assert np.all(np.isfinite(col)) and np.all(col >= 0.0), name
            # the row kernels are exactly their recomputation from the
            # whole-grid h, whose rows the accessor forms anew
            h_rows = h_values(table.family, table.alphas, spectrum)
            assert np.array_equal(table.h(slice(None)), h_rows)
            resid2 = (1.0 - h_rows) ** 2
            noise_weights, kernel_resid2 = table._kernels
            assert np.array_equal(noise_weights, h_rows * (2.0 - h_rows) / lam)
            assert np.array_equal(kernel_resid2, resid2)
            assert np.array_equal(table.one_minus_h_norm2, np.sum(resid2, axis=1))
            # the build's noise scale is the one normalization of the same kernel
            assert np.array_equal(table.d, _unit_rows(noise_weights)[0])
            for name in ("alphas", "pen_u", "pen_cv", "d", "mu", "q_plus", "pen_total",
                         "h_lambda_norm2", "one_minus_h_norm2", "max_h_over_lambda", "tie_end"):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(table, name)[0] = 0.0
            for kernel in table._kernels:
                with pytest.raises(ValueError, match="read-only"):
                    kernel[0] = 0.0
            # rho derived from the stored noise scale must be a unit vector
            for i, h in enumerate(h_rows):
                rho = np.sqrt(2.0) * (h * (2.0 - h) / lam) / table.d[i]
                assert abs(float(rho @ rho) - 1.0) <= 1e-12
        assert blocks[0] == 1 and blocks[1] > 1  # one table that the build walks in several blocks

    def test_against_mpmath_on_ill_posed_spectrum(self):
        # 50-digit references for d, mu and q_plus on e^-k, p = 500, where
        # 1/lambda spans 217 decades, on five rows of each built-in family
        from mpmath import mp, mpf

        s = exponential_spectrum(500, 1.0)
        lam = s.retained
        tau_lam = np.clip((1.0 / lam[0]) * lam, 0.0, 1.0)  # the default landweber step

        def h_ref(kind, alpha):
            if kind == "cutoff":
                m = round(1.0 / alpha)  # the default grid holds the reciprocals 1/m
                return [mpf(k < m) for k in range(lam.size)]
            if kind == "tikhonov":
                return [mpf(float(v)) / (mpf(float(v)) + mpf(alpha)) for v in lam]
            m = math.ceil(1.0 / alpha)  # or m - 1 where alpha is its reciprocal
            m = m - 1 if m > 1 and 1.0 / (m - 1) == alpha else m
            # the power form 1 - (1 - x)^m would need ~p/2.3 digits to hold 1 - x
            return [-mp.expm1(m * mp.log1p(-mpf(float(v)))) for v in tau_lam]

        def noise(h):
            t = [hk * (2 - hk) / mpf(float(v)) for hk, v in zip(h, lam)]
            d = mp.sqrt(2 * mp.fsum(tk * tk for tk in t))
            return d, [mp.sqrt(2) * tk / d for tk in t if tk]

        def cramer_sums(rho, mu):
            # sum_k c(mu * rho(k)) and its derivative in mu, c'(x) = 2x / (1 - 2x)^2
            terms, slopes = [], []
            for r in rho:
                x = mu * r
                u = 1 - 2 * x
                terms.append(mp.log(u) / 2 + x + 2 * x * x / u)
                slopes.append(2 * x * r / (u * u))
            return mp.fsum(terms), mp.fsum(slopes)

        def root(rho, log_ratio, start):
            # Newton on the convex, increasing row sum decreases monotonically
            # from any start above the root.  The start only saves steps: the
            # root is accepted on a sign change of the row sum around it.
            mu = mpf(start)
            while True:
                value, slope = cramer_sums(rho, mu)
                step = (value - log_ratio) / slope
                if step <= mu * mpf(10) ** -45:
                    break
                mu -= step
            eps = mpf(10) ** -40
            assert cramer_sums(rho, mu * (1 - eps))[0] < log_ratio
            assert cramer_sums(rho, mu * (1 + eps))[0] > log_ratio
            return mu

        for kind in ("cutoff", "tikhonov", "landweber"):
            family = SmootherFamily(kind)
            grid = default_grid(family, s, points=40, floor=False)
            table = build_penalty_table(family, grid, s, 0.1)
            with mp.workdps(50):
                d_ref = noise(h_ref(kind, grid.values[-1]))[0]
                for i in np.unique(np.linspace(0, len(grid) - 1, 5).round().astype(int)):
                    d, rho = noise(h_ref(kind, float(grid.values[i])))
                    log_ratio = mp.log(d / d_ref)
                    mu = root(rho, log_ratio, table.mu[i] * (1 + 1e-6)) if log_ratio else mpf(0)
                    q = 2 * d * mu * mp.fsum(r * r / (1 - 2 * mu * r) for r in rho)
                    for name, want, rtol in (("d", d, 1e-14), ("mu", mu, 1e-14),
                                             ("q_plus", q, 1e-12)):
                        got = getattr(table, name)[i]
                        assert abs(got - float(want)) <= rtol * float(want), (kind, i, name)

    def test_requires_ordered_family(self):
        s = Spectrum([1.0, 0.5])
        family = SmootherFamily(
            "table", alphas=[1.0, 2.0], h_table=[[0.3, 0.1], [0.9, 0.5]]
        )
        grid = AlphaGrid([1.0, 2.0])
        with pytest.raises(ValueError, match="not ordered") as excinfo:
            build_penalty_table(family, grid, s, 0.1)
        violation = check_ordered(family, grid, s)
        assert str(excinfo.value) == f"invalid input: table family is not ordered ({violation})"

    def test_rising_noise_scale_is_rejected(self):
        # the second row rises by less than the ordering check's slack, so
        # the family passes check_ordered, yet its noise scale rises
        s = Spectrum([1.0, 1.0])
        grid = AlphaGrid([1.0, 2.0])
        family = SmootherFamily("table", alphas=grid.values, h_table=[[1e-10, 1e-10], [1e-10 + 5e-13] * 2])
        assert check_ordered(family, grid, s) is None
        with pytest.raises(ValueError, match="^invalid input: noise scale must be nonincreasing "
                                             r"along the grid \(is the family ordered\?\)$"):
            build_penalty_table(family, grid, s, 0.1)

    def test_accepts_ordered_table_family(self):
        s = Spectrum([1.0, 0.5])
        family = SmootherFamily(
            "table", alphas=[1.0, 2.0], h_table=[[0.9, 0.5], [0.3, 0.1]]
        )
        table = build_penalty_table(family, AlphaGrid([1.0, 2.0]), s, 0.1)
        assert table.alphas.size == 2

    def test_subnormal_eigenvalue_is_numerical_failure(self):
        # h / lambda overflows at lambda = 1e-310, so D is NaN on the first
        # row; NaN slips through every comparison and must be caught explicitly
        s = Spectrum([1.0, 0.5, 0.25, 1e-310])
        family = SmootherFamily("cutoff")
        grid = default_grid(family, s, floor=False)
        with pytest.raises(ArithmeticError, match="non-finite"):
            build_penalty_table(family, grid, s, 0.1)


def _tikhonov_table_family(p: int, rows: int) -> tuple[SmootherFamily, AlphaGrid, Spectrum]:
    """An ordered table family of tikhonov rows on lambda(k) = 1/k, its grid
    and spectrum."""
    s = polynomial_spectrum(p, 1.0)
    alphas = np.geomspace(1e-3 / p, 10.0, rows)
    family = SmootherFamily("table", alphas=alphas, h_table=s.retained / (s.retained + alphas[:, None]))
    return family, AlphaGrid(alphas), s


class TestBlockedBuild:
    """build_penalty_table walks the grid in row blocks; every column and
    row matrix must equal the whole-matrix formulas bit for bit."""

    @pytest.mark.parametrize("family, grid, spectrum", [
        pytest.param(family, default_grid(family, s, points), s, id=name)
        for name, family, s, points in (
            ("cutoff", SmootherFamily("cutoff"), polynomial_spectrum(400, 2.0), None),
            ("tikhonov", SmootherFamily("tikhonov"), polynomial_spectrum(200, 2.0), 400),
            ("landweber", SmootherFamily("landweber"), polynomial_spectrum(200, 2.0), 700),
            ("landweber-e^-k", SmootherFamily("landweber"), exponential_spectrum(100, 1.0), 800))
    ] + [pytest.param(*_tikhonov_table_family(300, 250), id="table")])
    def test_matches_whole_matrix_formulas(self, family, grid, spectrum):
        table = build_penalty_table(family, grid, spectrum, 0.1)
        blocks = _table_blocks(table)
        # at least three blocks, the last one ragged
        assert len(blocks) >= 3 and blocks[-1].stop - blocks[-1].start < blocks[0].stop
        want = penalty_columns(family, grid, spectrum, 0.1)
        h = want.pop("h")
        for name, kernel in zip(("noise_weights", "resid2"), table._kernels):
            assert np.array_equal(kernel, want.pop(name)), name
        for name, column in want.items():
            assert np.array_equal(getattr(table, name), column), name
        # the accessor's rows are the whole-matrix rows: all of them, each
        # block, single rows, strided and random index sets
        assert np.array_equal(table.h(slice(None)), h)
        for block in blocks:
            assert np.array_equal(table.h(block), h[block])
        rows = len(grid)
        rng = np.random.default_rng(rows)
        for index in (0, rows // 2, rows - 1, np.arange(0, rows, 7), rng.integers(0, rows, 32),
                      rng.permutation(rows)[:100]):
            assert np.array_equal(table.h(index), h[index])

    def test_single_row_grid(self):
        s = polynomial_spectrum(50, 2.0)
        family, grid = SmootherFamily("tikhonov"), AlphaGrid([0.01])
        table = build_penalty_table(family, grid, s, 0.1)
        want = penalty_columns(family, grid, s, 0.1)
        assert np.array_equal(table.h(slice(None)), want.pop("h"))
        for name, kernel in zip(("noise_weights", "resid2"), table._kernels):
            assert np.array_equal(kernel, want.pop(name)), name
        for name, column in want.items():
            assert np.array_equal(getattr(table, name), column), name

    def test_ties_across_block_starts(self):
        # landweber on k^-2, p = 200, 700 points (M = 559): blocks of 163
        # rows start at 163, 326 and 489, and runs of bit-identical rows
        # (equal iteration counts) run across the last two of them
        s = polynomial_spectrum(200, 2.0)
        family = SmootherFamily("landweber")
        grid = default_grid(family, s, points=700)
        table = build_penalty_table(family, grid, s, 0.1)
        starts = [block.start for block in _table_blocks(table)]
        assert len(grid) == 559 and starts == [0, 163, 326, 489]
        want = penalty_columns(family, grid, s, 0.1)["tie_end"]
        assert np.array_equal(table.tie_end, want)
        for start in (326, 489):
            assert want[start - 1] > start - 1

    def test_peak_memory_is_the_kept_rows(self):
        # the mc-cutoff table (k^-2, p = 1000, M = 900): it keeps its columns
        # and no M x p matrix, and forms h and every other temporary one
        # row block at a time
        s = polynomial_spectrum(1000, 2.0)
        family = SmootherFamily("cutoff")
        grid = default_grid(family, s)
        tracemalloc.start()
        try:
            table = build_penalty_table(family, grid, s, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        arrays = [value for value in vars(table).values() if isinstance(value, np.ndarray)]
        assert all(value.ndim == 1 for value in arrays)
        columns = sum(value.nbytes for value in arrays)
        assert (table.alphas.size, s.retained.size) == (900, 1000)
        assert peak <= columns + 4e6, (peak, columns)

    def test_peak_memory_of_the_kernels(self):
        # a tikhonov table (k^-2, p = 1000, M = 774) forms its two M x p row
        # kernels on first use, the second in the buffer of its h rows
        s = polynomial_spectrum(1000, 2.0)
        family = SmootherFamily("tikhonov")
        table = build_penalty_table(family, default_grid(family, s, points=900), s, 0.1)
        tracemalloc.start()
        try:
            table._kernels
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows, p = table.alphas.size, s.retained.size
        assert rows == 774
        assert peak <= 2 * rows * p * 8 + 1e6, (peak, rows * p * 8)

    def test_table_family_violation_across_blocks(self):
        # the build runs check_ordered on a table family before its walk, so
        # it reports that verdict: a crossing in the first block loses to a
        # row that rises in k in a later one
        family, grid, s = _tikhonov_table_family(4096, 20)  # blocks of 8 rows
        rows = family.h_table.copy()
        rows[3, 0] = 0.5 * (rows[2, 0] + 1.0)
        rows[17, [5, 6]] = rows[17, [6, 5]]
        family = SmootherFamily("table", alphas=grid.values, h_table=rows)
        violation = check_ordered(family, grid, s)
        assert violation.kind == "not monotone in lambda" and violation.alpha_low == grid.values[17]
        with pytest.raises(ValueError, match="not ordered") as excinfo:
            build_penalty_table(family, grid, s, 0.1)
        assert str(excinfo.value) == f"invalid input: table family is not ordered ({violation})"

    def test_first_untabulated_alpha_in_grid_order_is_named(self):
        # the build runs check_ordered first, which forms the blocks in grid
        # order; it once formed the last block first and named row 18
        family, grid, s = _tikhonov_table_family(4096, 20)  # blocks of 8 rows
        values = grid.values.copy()
        values[[4, 18]] *= 1.5
        with pytest.raises(ValueError, match="is not tabulated") as excinfo:
            build_penalty_table(family, AlphaGrid(values), s, 0.1)
        assert str(excinfo.value) == f"invalid input: alpha {float(values[4])!r} is not tabulated"

    def test_zero_rows_in_the_last_block_are_degenerate(self):
        # zero last rows make d_ref = 0, and the build solves mu on every
        # block, with log ratios of inf, before it checks the whole grid:
        # it still reports the degenerate smoother
        family, grid, s = _tikhonov_table_family(4096, 20)  # blocks of 8 rows
        rows = family.h_table.copy()
        rows[18:] = 0.0
        family = SmootherFamily("table", alphas=grid.values, h_table=rows)
        assert len(_row_slices(len(grid), s.retained.size)) == 3
        with pytest.raises(ValueError, match="degenerate smoother: h is identically zero"):
            build_penalty_table(family, grid, s, 0.1)


def _kernel_table(name: str):
    if name == "tikhonov" or name == "landweber":
        s, family = polynomial_spectrum(80, 2.0), SmootherFamily(name)
        return build_penalty_table(family, default_grid(family, s, points=40), s, 0.1)
    if name == "explicit k^-2 p=60":
        # 1/10.5 and 1/10.2 share the cutoff 11 (tied rows), and 0.01 <= 1/p
        # keeps every component (m = p, a zero resid2 row)
        s = polynomial_spectrum(60, 2.0)
        grid = AlphaGrid([0.01, 1 / 10.5, 1 / 10.2, 0.2, 0.5, 1.0])
        return build_penalty_table(SmootherFamily("cutoff"), grid, s, 0.1)
    s = polynomial_spectrum(1000, 2.0) if name == "k^-2 p=1000" else exponential_spectrum(100, 1.0)
    return _cutoff_table(s, floor=True)[0]


_CUTOFF_TABLES = ["k^-2 p=1000", "e^-k p=100", "explicit k^-2 p=60"]


class TestKernelProducts:
    """PenaltyTable._kernel_products: prefix and suffix sums on cutoff
    tables, which agree with the matrix products to rounding and give a
    block the bits of its one-vector results; the matrix products
    themselves on other families."""

    @staticmethod
    def _vectors(table, n=5):
        # observations y = beta + sigma g / sqrt(lambda) and standard normal
        # excess draws xi, then the vectors the two callers multiply: the
        # lambda y^2 of selection and the xi^2 - 1 of both signs
        lam = table.spectrum.retained
        rng = np.random.default_rng(lam.size)
        ys = 1.0 / np.arange(1.0, lam.size + 1.0) + 0.1 * rng.standard_normal((n, lam.size)) / np.sqrt(lam)
        xis = rng.standard_normal((n, lam.size))
        return ys, xis, (lam * ys * ys, xis * xis - 1.0)

    @pytest.mark.parametrize("name", _CUTOFF_TABLES)
    def test_cutoff_matches_matrix_products(self, name):
        table = _kernel_table(name)
        kernels = _kernel_matrices(table)
        ys, _, blocks = self._vectors(table)
        if name == "explicit k^-2 p=60":
            m = table.pen_cv / 2.0
            assert m[0] == ys.shape[1] and m[1] == m[2] == 11.0 and table.tie_end[1] == 2
        for block in blocks:
            for v in (block.T, block[0]):  # a block, one vector per column, and one vector
                noise, resid = table._kernel_products(v)
                for got, kernel in zip((noise, resid), kernels):
                    scale = np.abs(kernel) @ np.abs(v)
                    assert np.all(np.abs(got - kernel @ v) <= 1e-13 * scale)
                alone = table._kernel_products(v, resid=False)
                assert np.array_equal(alone[0], noise) and alone[1] is None
                alone = table._kernel_products(v, noise=False)
                assert alone[0] is None and np.array_equal(alone[1], resid)

    @pytest.mark.parametrize("name", _CUTOFF_TABLES)
    def test_cutoff_block_equals_one_vector(self, name):
        table = _kernel_table(name)
        ys, xis, blocks = self._vectors(table)
        for block in blocks:
            noise, resid = table._kernel_products(block.T)
            for j, v in enumerate(block):
                one = table._kernel_products(v)
                assert np.array_equal(noise[:, j], one[0]) and np.array_equal(resid[:, j], one[1])
        modes = ("known",) if table.one_minus_h_norm2[0] == 0.0 else ("known", "unknown")
        for mode in modes:
            contrasts, index, s2 = _select_rows(table, ys, mode, 0.01)
            for j, y in enumerate(ys):
                one = _select_rows(table, y, mode, 0.01)
                assert np.array_equal(contrasts[j], one[0]) and index[j] == one[1]
                assert np.array_equal(s2[j], one[2], equal_nan=True)
        sups = excess_sup_stat(table, xis)
        for j, xi in enumerate(xis):
            assert sups[j] == excess_sup_stat(table, xi)

    @pytest.mark.parametrize("name", ["cutoff", "tikhonov", "landweber", "table"])
    def test_kernels_are_the_h_row_formulas(self, name):
        if name == "table":
            family, grid, s = _tikhonov_table_family(300, 250)
            table = build_penalty_table(family, grid, s, 0.1)
        else:
            table = _kernel_table("k^-2 p=1000" if name == "cutoff" else name)
        h = table.h(slice(None))
        noise_weights, resid2 = table._kernels
        assert np.array_equal(noise_weights, h * (2.0 - h) / table.spectrum.retained)
        assert np.array_equal(resid2, (1.0 - h) ** 2)

    def test_tikhonov_kernels_formed_once(self):
        # the build and the checks on a table read its columns only; the
        # first product forms the kernels, and every later one reuses them
        table = _kernel_table("tikhonov")
        check_conditions(table)
        verify_penalty_inequalities(table)
        assert "_kernels" not in vars(table)
        p = table.spectrum.retained.size
        model = SpectralModel(table.spectrum, 1.0 / np.arange(1.0, p + 1.0), 0.1)
        select_alpha(simulate_observation(model, replication_stream(3, 0)), table, "unknown")
        kernels = vars(table)["_kernels"]
        select_alpha(simulate_observation(model, replication_stream(3, 1)), table, "unknown")
        excess_sup_stat(table, replication_stream(4, 0).standard_normal((5, p)))
        risk_profile(model, table)
        mc_run(model, table, "unknown", 10, 7)
        assert vars(table)["_kernels"] is kernels

    @pytest.mark.parametrize("name", ["tikhonov", "landweber"])
    def test_other_families_multiply_the_matrices(self, name):
        table = _kernel_table(name)
        noise_weights, resid2 = _kernel_matrices(table)
        for block in self._vectors(table)[2]:
            for v in (block.T, block[0]):
                noise, resid = table._kernel_products(v)
                assert np.array_equal(noise, noise_weights @ v)
                assert np.array_equal(resid, resid2 @ v)


class TestVarianceSpan:
    def test_single_point_closed_form(self):
        s = polynomial_spectrum(12, 1.0)
        family = SmootherFamily("tikhonov")
        grid = AlphaGrid([1.0])
        table = build_penalty_table(family, grid, s, 0.1)
        norm = math.sqrt(table.one_minus_h_norm2[0])
        # both ratios are 1; the loglog term log(log 2) is negative and clips to 0
        assert table.psi == pytest.approx(math.log(2.0) / norm, rel=1e-12)

    def test_hand_evaluated_cutoff_case(self):
        s = polynomial_spectrum(100, 2.0)
        family = SmootherFamily("cutoff")
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
            table = build_penalty_table(SmootherFamily("cutoff"), grid, s, 0.1)
            values.append(table.psi)
        assert values[0] > values[1] > values[2]

    def test_degenerate_floor(self):
        s = polynomial_spectrum(5, 1.0)
        table, _ = _cutoff_table(s)  # full grid: first row keeps everything
        assert table.one_minus_h_norm2[0] == 0.0
        assert math.isnan(table.psi)


class TestCheckConditions:
    def test_polynomial_cutoff_passes(self):
        table, _ = _cutoff_table(polynomial_spectrum(50, 2.0))
        assert check_conditions(table) > 0.0

    def test_exponential_cutoff_constant_near_one(self):
        table, _ = _cutoff_table(exponential_spectrum(30, 1.0))
        assert 0.5 <= check_conditions(table) <= 1.5

    def test_binary_smoother_first_ratio_is_one(self):
        s = polynomial_spectrum(5, 1.0)
        table = build_penalty_table(SmootherFamily("cutoff"), AlphaGrid([1.0 / 5.0]), s, 0.1)
        # one row: its sum h^2 / lambda over half of pen_u is 1, and the
        # reference row's second ratio is +inf
        assert check_conditions(table) == 1.0

    def test_underflowing_h_lambda_gives_zero(self):
        # h^2 underflows, so sum h^2 / lambda is 0 on every row, and the
        # reference row's log ratio is 0 too: 0 / 0 is not evaluated there
        s = Spectrum([1.0, 1.0])
        grid = AlphaGrid([1.0, 2.0])
        family = SmootherFamily("table", alphas=grid.values, h_table=[[1e-170, 1e-170], [1e-171, 1e-171]])
        table = build_penalty_table(family, grid, s, 0.1)
        assert np.all(table.h_lambda_norm2 == 0.0)
        assert check_conditions(table) == 0.0


class TestVerifyPenaltyInequalities:
    def test_lower_bounds_hold_on_random_spectra(self):
        # the root and adaptive-term lower bounds hold on every table, and so
        # does the log-form bound with its proved constant 1/2 (acceptance
        # criterion 2 has the proof); the verifier's auxiliary constant-1
        # form is not guaranteed and is not asserted here
        rng = np.random.default_rng(34)
        for _ in range(30):
            p = int(rng.integers(3, 40))
            lam = np.sort(10.0 ** rng.uniform(-6, 0, p))[::-1]
            s = Spectrum(lam)
            family = FAMILIES[int(rng.integers(0, 3))]
            grid = default_grid(family, s, points=12, floor=False)
            table = build_penalty_table(family, grid, s, 0.1)
            assert verify_penalty_inequalities(table)[0] == ()
            d, mu, q = table.d, table.mu, table.q_plus
            separated = d >= math.exp(2.0) * table.d_ref
            inner = mu[separated] * q[separated] / table.d_ref
            assert np.all(inner > 1.0)
            half_log_rhs = mu[separated] * q[separated] / (2.0 * np.log(inner))
            assert np.all(d[separated] >= half_log_rhs * (1.0 - 1e-9))

    def test_single_point_grid_vacuous(self):
        s = polynomial_spectrum(5, 1.0)
        table = build_penalty_table(SmootherFamily("cutoff"), AlphaGrid([0.5]), s, 0.1)
        assert verify_penalty_inequalities(table) == ((), ())

    def test_flat_spectrum_tikhonov_passes(self):
        s = Spectrum(np.ones(5))
        family = SmootherFamily("tikhonov")
        grid = default_grid(family, s, points=12, floor=False)
        table = build_penalty_table(family, grid, s, 0.1)
        assert verify_penalty_inequalities(table) == ((), ())

    def test_detects_log_bound_counterexample(self):
        # the verifier checks the log-form bound with constant 1, which flat
        # damping profiles violate (it reduces to log(2L) >= L, false for
        # L >= 2); the detector must report it rather than mask it, as
        # auxiliary: every such row, in row order, with no cap
        table, _ = _cutoff_table(polynomial_spectrum(100, 2.0))
        guaranteed, auxiliary = verify_penalty_inequalities(table)
        assert guaranteed == ()
        assert len(auxiliary) == 79
        alphas = [float(v.removeprefix("noise scale below the log bound at alpha=")) for v in auxiliary]
        assert alphas == sorted(set(alphas)) and set(alphas) <= set(table.alphas.tolist())

    def test_guaranteed_violations_in_kind_then_row_order(self):
        # a table whose q_plus and mu are scaled down violates all three
        # guaranteed kinds; the degenerate rows mu*q/d_ref <= 1 are not
        # checked against the auxiliary log form
        table, _ = _cutoff_table(polynomial_spectrum(100, 2.0), floor=True)
        broken = dataclasses.replace(table, q_plus=table.q_plus * 1e-6, mu=table.mu * 0.5)
        guaranteed, auxiliary = verify_penalty_inequalities(broken)
        assert auxiliary == ()
        kinds = ("q_plus below its lower bound", "mu below its lower bound", "degenerate log bound")
        found = [(kinds.index(kind), float(alpha)) for kind, alpha in (v.split(" at alpha=") for v in guaranteed)]
        assert found == sorted(found)  # alpha increases along the grid
        assert [sum(k == i for k, _ in found) for i in range(3)] == [89, 2, 88]

    def test_ratio_monotonicity_fails_in_high_precision(self):
        # the pairwise form q_i/q_j >= d_i/d_j is false for the penalty as
        # defined, not an artefact of rounding, so the verifier does not check
        # it: recompute d, mu and q_plus for cutoff at m = 217 and m = 32
        # (reference m = 1) in 50-digit arithmetic
        from mpmath import mp, mpf

        s = polynomial_spectrum(217, 2.0)
        table = build_penalty_table(
            SmootherFamily("cutoff"), AlphaGrid([1.0 / 217.0, 1.0 / 32.0, 1.0]), s, 0.1
        )
        assert list(table.h(slice(None)).sum(axis=1)) == [217.0, 32.0, 1.0]
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
        guaranteed, auxiliary = verify_penalty_inequalities(table)
        assert guaranteed == ()
        assert all(v.startswith("noise scale below the log bound") for v in auxiliary)
