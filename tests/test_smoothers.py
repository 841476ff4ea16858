"""Tests for the smoother families, the ordering check, and grid construction."""

from __future__ import annotations

import tracemalloc
import warnings

import numpy as np
import pytest

from specreg import (
    AlphaGrid,
    SmootherFamily,
    Spectrum,
    build_penalty_table,
    check_ordered,
    default_grid,
    exponential_spectrum,
    h_values,
    polynomial_spectrum,
)
from specreg import smoothers
from specreg.smoothers import _row_slices
from reference import first_violation

FAMILIES = [SmootherFamily("cutoff"), SmootherFamily("tikhonov"), SmootherFamily("landweber")]


def _random_spectrum(rng, p=None):
    p = p or int(rng.integers(3, 40))
    lam = np.sort(10.0 ** rng.uniform(-6.0, 0.0, size=p))[::-1]
    return Spectrum(lam)


class TestHValues:
    def test_tikhonov_small_alpha_limit(self):
        s = polynomial_spectrum(6, 2.0)
        h = h_values(SmootherFamily("tikhonov"), 1e-14 * s.retained[-1], s)
        assert np.all(h >= 1.0 - 1e-9)

    def test_tikhonov_half_at_matching_eigenvalue(self):
        s = Spectrum([2.0, 1.0, 0.5])
        h = h_values(SmootherFamily("tikhonov"), 1.0, s)
        assert h[1] == 0.5

    def test_landweber_single_full_step(self):
        s = Spectrum([1.0])
        for alpha in (0.05, 0.4, 1.0, 3.0):
            assert h_values(SmootherFamily("landweber", tau=1.0), alpha, s)[0] == 1.0

    def test_cutoff_index_rule(self):
        s = polynomial_spectrum(5, 1.0)
        h = h_values(SmootherFamily("cutoff"), 1.0 / 3.0, s)
        assert np.array_equal(h, [1.0, 1.0, 1.0, 0.0, 0.0])
        assert np.array_equal(h_values(SmootherFamily("cutoff"), 1.0, s), [1, 0, 0, 0, 0])
        assert np.array_equal(h_values(SmootherFamily("cutoff"), 0.9, s), [1, 1, 0, 0, 0])

    def test_bounds_hold_everywhere(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            s = _random_spectrum(rng)
            for family in FAMILIES:
                for alpha in 10.0 ** rng.uniform(-4, 2, size=5):
                    h = h_values(family, float(alpha), s)
                    assert np.all(h >= 0.0) and np.all(h <= 1.0)

    def test_landweber_default_step_is_stable(self):
        # default tau = 1/lambda(1) may round to tau*lambda(1) just above 1
        s = Spectrum([3.0, 1.0, 0.1])
        h = h_values(SmootherFamily("landweber"), 0.2, s)
        assert np.all(np.isfinite(h))

    def test_landweber_against_mpmath_on_ill_posed_spectrum(self):
        # tau*lambda falls below 2^-53 deep in e^-k, where 1 - (1 - x)^m
        # in floating point rounds h to 0; the reference takes the power in
        # 80 digits, enough to hold 1 - x exactly for x down to e^-99
        import math

        from mpmath import mp, mpf

        s = exponential_spectrum(100, 1.0)
        family = SmootherFamily("landweber")
        grid = default_grid(family, s, points=40, floor=False)
        x = np.clip((1.0 / s.retained[0]) * s.retained, 0.0, 1.0)  # the default step
        with mp.workdps(80):
            for alpha in grid.values:
                m = math.ceil(1.0 / alpha)  # or m - 1 where alpha is its reciprocal
                m = m - 1 if m > 1 and 1.0 / (m - 1) == alpha else m
                got = h_values(family, float(alpha), s)
                want = np.array([float(1 - (1 - mpf(float(v))) ** m) for v in x])
                assert np.all(np.abs(got - want) <= 1e-12 * want), alpha
        # the floor row keeps every component, so the default floor trims
        assert len(default_grid(family, s, points=40)) == 34

    def test_landweber_iterations_round_up_past_the_snap(self):
        # 1/alpha = 6573421660.39 on the e^-k grid is no reciprocal 1/m, so it
        # takes ceil(1/alpha) iterations, however close it lies to an integer
        s = exponential_spectrum(100, 1.0)
        family = SmootherFamily("landweber")
        alpha = 1.521277732760748e-10
        assert alpha in default_grid(family, s, points=40, floor=False).values
        x = np.clip((1.0 / s.retained[0]) * s.retained, 0.0, 1.0)
        with np.errstate(divide="ignore"):  # x[0] = 1 gives h = 1
            want = -np.expm1(6573421661.0 * np.log1p(-x))
        assert np.array_equal(h_values(family, alpha, s), want)

    def test_landweber_unstable_step_rejected(self):
        s = Spectrum([2.0, 1.0])
        with pytest.raises(ValueError, match="unstable step"):
            h_values(SmootherFamily("landweber", tau=1.0), 0.5, s)

    @pytest.mark.parametrize("tau", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_landweber_tau_must_be_positive_and_finite(self, tau):
        # once checked only by h_values, which let NaN through
        with pytest.raises(ValueError, match="tau must be positive and finite"):
            SmootherFamily("landweber", tau=tau)

    def test_alpha_must_be_positive(self):
        s = polynomial_spectrum(3, 1.0)
        with pytest.raises(ValueError, match="alpha"):
            h_values(SmootherFamily("cutoff"), 0.0, s)


def _reference_iterations(alpha: float) -> float:
    # the per-alpha rule h_values applies along its alpha axis
    q = 1.0 / alpha
    nearest = float(np.round(q))
    if nearest >= 1.0 and 1.0 / nearest == alpha:
        return nearest
    return float(np.ceil(q)) if q > 1.0 else 1.0


def _reference_table_row(family, alpha: float, size: int) -> np.ndarray:
    match = np.nonzero(np.abs(family.alphas - alpha) <= 1e-12 * max(1.0, alpha))[0]
    if match.size == 0:
        raise ValueError(f"invalid input: alpha {alpha!r} is not tabulated")
    row = family.h_table[match[0]]
    if row.size != size:
        raise ValueError("dimension error: tabulated h row does not match the spectrum")
    return row


def _reference_h(family, alpha: float, spectrum) -> np.ndarray:
    """One row of h, evaluated one alpha at a time."""
    lam = spectrum.retained
    if family.kind == "cutoff":
        m = _reference_iterations(alpha)
        h = (np.arange(1, lam.size + 1, dtype=float) <= m).astype(float)
    elif family.kind == "tikhonov":
        h = lam / (lam + alpha)
    elif family.kind == "landweber":
        tau = family.tau if family.tau is not None else 1.0 / lam[0]
        x = np.clip(tau * lam, 0.0, 1.0)
        with np.errstate(divide="ignore"):
            h = -np.expm1(_reference_iterations(alpha) * np.log1p(-x))
    else:
        h = _reference_table_row(family, alpha, lam.size)
    return np.clip(h, 0.0, 1.0)


class TestGridBroadcast:
    """h_values on a whole grid equals its per-alpha rows bit for bit."""

    @staticmethod
    def _assert_rows(family, alphas, s):
        alphas = np.asarray(alphas, dtype=float)
        got = h_values(family, alphas, s)
        want = np.array([_reference_h(family, float(a), s) for a in alphas])
        assert got.shape == (alphas.size, s.effective_rank)
        assert np.array_equal(got, want)

    def test_cutoff_reciprocal_grid(self):
        s = polynomial_spectrum(500, 2.0)
        grid = default_grid(SmootherFamily("cutoff"), s, floor=False)
        self._assert_rows(SmootherFamily("cutoff"), grid.values, s)

    def test_cutoff_alphas_just_off_reciprocals(self):
        s = polynomial_spectrum(500, 2.0)
        m = np.arange(1.0, 501.0)
        off = np.sort(np.concatenate([np.nextafter(1.0 / m, 0.0), np.nextafter(1.0 / m, 1.0)]))
        self._assert_rows(SmootherFamily("cutoff"), off, s)

    def test_cutoff_alphas_above_one(self):
        s = polynomial_spectrum(10, 1.0)
        self._assert_rows(SmootherFamily("cutoff"), [np.nextafter(1.0, 2.0), 1.5, 2.0, 3.7, 1e3], s)

    def test_tikhonov(self):
        s = polynomial_spectrum(200, 2.0)
        grid = default_grid(SmootherFamily("tikhonov"), s, points=60, floor=False)
        self._assert_rows(SmootherFamily("tikhonov"), grid.values, s)

    @pytest.mark.parametrize("s", [polynomial_spectrum(300, 2.0), exponential_spectrum(100, 1.0)],
                             ids=["k^-2", "e^-k"])
    def test_landweber_default_step(self, s):
        family = SmootherFamily("landweber")
        grid = default_grid(family, s, points=60, floor=False)
        self._assert_rows(family, grid.values, s)

    def test_table_family(self):
        s = polynomial_spectrum(8, 1.0)
        # 0.2 is tabulated twice within 1e-12, with different rows
        alphas = [0.05, 0.2, 0.2 * (1.0 + 1e-13), 0.8, 3.2]
        family = SmootherFamily(
            "table", alphas=alphas, h_table=[s.retained / (s.retained + a) for a in [0.05, 0.2, 0.3, 0.8, 3.2]])
        self._assert_rows(family, [0.05, 0.2, 0.2 * (1.0 + 5e-13), 0.8, 3.2], s)
        self._assert_rows(family, [3.2, 0.05, 3.2], s)
        assert np.array_equal(h_values(family, [0.2, 0.2 * (1.0 + 1e-13)], s), family.h_table[[1, 1]])

    def test_scalar_alpha_gives_one_row(self):
        s = polynomial_spectrum(6, 1.0)
        for family in FAMILIES:
            h = h_values(family, 0.25, s)
            assert h.shape == (6,)
            assert np.array_equal(h, _reference_h(family, 0.25, s))

    def test_table_clip_never_writes_the_table(self):
        # tabulated rows are clamped to [0, 1] in a copy, for a scalar alpha
        # (one row) as for an array of them
        s = polynomial_spectrum(3, 1.0)
        family = SmootherFamily("table", alphas=[1.0, 2.0], h_table=[[1.5, 0.5, -0.2], [0.9, 0.4, 0.1]])
        for alpha in (1.0, [1.0, 2.0], [[1.0]]):
            h = h_values(family, alpha, s)
            assert np.array_equal(h, np.clip(family.h_table[np.searchsorted([1.0, 2.0], alpha)], 0.0, 1.0))
            h[...] = 0.5  # a fresh array, not a view of the table
        assert np.array_equal(family.h_table, [[1.5, 0.5, -0.2], [0.9, 0.4, 0.1]])

    def test_table_family_keeps_read_only_copies(self):
        # a penalty table forms its h rows from the family again, so later
        # writes to the arrays the family was made from must not reach it
        s = polynomial_spectrum(3, 1.0)
        alphas, h_table = np.array([1.0, 2.0]), np.array([[1.0, 0.5, 0.2], [0.9, 0.4, 0.1]])
        family = SmootherFamily("table", alphas=alphas, h_table=h_table)
        table = build_penalty_table(family, AlphaGrid(alphas), s, 0.1)
        alphas[0], h_table[:] = 3.0, 0.0
        assert np.array_equal(table.h(slice(None)), [[1.0, 0.5, 0.2], [0.9, 0.4, 0.1]])
        for value in (family.alphas, family.h_table):
            with pytest.raises(ValueError, match="read-only"):
                value[0] = 0.0

    def test_first_untabulated_alpha_is_named(self):
        s = polynomial_spectrum(3, 1.0)
        family = SmootherFamily("table", alphas=[1.0, 2.0], h_table=[[1.0, 0.5, 0.2], [0.9, 0.4, 0.1]])
        with pytest.raises(ValueError, match=r"^invalid input: alpha 1\.5 is not tabulated$"):
            h_values(family, AlphaGrid([1.0, 1.5, 2.0, 2.5]).values, s)

    @pytest.mark.parametrize("field, index", [("alphas", 1), ("h_table", (0, 2))])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_table_family_entries_must_be_finite(self, field, index, value):
        # a NaN row once passed check_ordered, as every comparison with NaN
        # is false, and the table build then failed on its non-finite columns
        entries = {"alphas": np.array([1.0, 2.0]), "h_table": np.array([[1.0, 0.5, 0.2], [0.9, 0.4, 0.1]])}
        entries[field][index] = value
        with pytest.raises(ValueError, match=r"^invalid input: table family entries must be finite$"):
            SmootherFamily("table", **entries)

    def test_table_rows_of_another_width_rejected(self):
        family = SmootherFamily("table", alphas=[1.0, 2.0], h_table=[[1.0, 0.5], [0.9, 0.4]])
        with pytest.raises(ValueError, match="^dimension error: tabulated h row does not match"):
            h_values(family, 1.0, polynomial_spectrum(3, 1.0))


class TestRowSubsets:
    """Rows formed for any subset of a grid equal the same rows of the
    whole-grid matrix bit for bit, which the penalty table's accessor and
    every row-blocked walk rely on."""

    @pytest.mark.parametrize("s", [polynomial_spectrum(1000, 2.0), exponential_spectrum(500, 1.0),
                                   polynomial_spectrum(333, 1.0)], ids=["k^-2", "e^-k", "k^-1"])
    @pytest.mark.parametrize("family", FAMILIES, ids=lambda family: family.kind)
    def test_subsets_match_the_whole_grid(self, family, s):
        alphas = default_grid(family, s, points=300, floor=False).values
        whole = h_values(family, alphas, s)
        rng = np.random.default_rng(alphas.size)
        subsets = [slice(block.start, block.stop) for block in _row_slices(alphas.size, s.effective_rank)]
        subsets += [0, alphas.size // 3, alphas.size - 1, slice(1, None, 5), slice(None, None, -3),
                    rng.integers(0, alphas.size, 32), rng.permutation(alphas.size)[:50]]
        for index in subsets:
            assert np.array_equal(h_values(family, alphas[index], s), whole[index])


def _defective_table(defects) -> tuple[SmootherFamily, AlphaGrid, Spectrum]:
    """Tikhonov rows on lambda(k) = 1/k, p = 4096 (row blocks of 8 rows),
    on 20 grid points, with each (kind, row) defect of ``defects`` applied:
    "rise" swaps two components so the row rises in k, "cross" lifts its
    first component above the previous row's, "direction" lifts the whole
    row above the previous one."""
    s = polynomial_spectrum(4096, 1.0)
    alphas = np.geomspace(1e-3, 10.0, 20)
    rows = s.retained / (s.retained + alphas[:, None])
    for kind, i in defects:
        if kind == "rise":
            rows[i, [5, 6]] = rows[i, [6, 5]]
        elif kind == "cross":
            rows[i, 0] = 0.5 * (rows[i - 1, 0] + 1.0)
        else:
            rows[i] = np.minimum(rows[i - 1] * 1.01, 1.0)
    return SmootherFamily("table", alphas=alphas, h_table=rows), AlphaGrid(alphas), s


class TestCheckOrderedBlocks:
    """check_ordered walks the grid in row blocks of 8 rows here; its verdict
    equals the whole-matrix check's."""

    @pytest.mark.parametrize("defects", [
        [], [("cross", 3)], [("cross", 8)], [("direction", 16)], [("cross", 3), ("rise", 17)],
        [("rise", 9), ("rise", 2)], [("cross", 12), ("cross", 19)], [("direction", 8), ("cross", 2)],
        [("rise", 0)], [("rise", 19), ("direction", 1)],
    ], ids=str)
    def test_matches_whole_matrix_check(self, defects):
        family, grid, s = _defective_table(defects)
        assert len(_row_slices(len(grid), s.effective_rank)) == 3
        violation = check_ordered(family, grid, s)
        want = first_violation(family.h_table, grid.values)
        got = None if violation is None else (
            violation.alpha_low, violation.alpha_high, violation.k, violation.kind)
        assert got == want

    def test_rising_row_in_a_later_block_beats_a_crossing(self):
        family, grid, s = _defective_table([("cross", 3), ("rise", 17)])
        violation = check_ordered(family, grid, s)
        assert violation.kind == "not monotone in lambda"
        assert violation.alpha_low == violation.alpha_high == grid.values[17]
        family, grid, s = _defective_table([("cross", 3)])
        violation = check_ordered(family, grid, s)
        assert violation.kind == "crossing" and violation.alpha_high == grid.values[3]


class TestCheckOrdered:
    def test_builtin_families_pass(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            s = _random_spectrum(rng)
            for family in FAMILIES:
                grid = default_grid(family, s, points=15, floor=False)
                violation = check_ordered(family, grid, s)
                assert violation is None, (family.kind, violation)

    def test_crossing_table_fails_with_witness(self):
        s = Spectrum([1.0, 0.5])
        family = SmootherFamily(
            "table", alphas=[1.0, 2.0],
            h_table=[[0.9, 0.1], [0.5, 0.5]],
        )
        violation = check_ordered(family, AlphaGrid([1.0, 2.0]), s)
        assert violation.kind == "crossing"
        assert violation.k == 2
        assert (violation.alpha_low, violation.alpha_high) == (1.0, 2.0)

    def test_reversed_direction_fails(self):
        s = Spectrum([1.0, 0.5])
        family = SmootherFamily(
            "table", alphas=[1.0, 2.0],
            h_table=[[0.2, 0.1], [0.8, 0.4]],
        )
        violation = check_ordered(family, AlphaGrid([1.0, 2.0]), s)
        assert violation.kind == "grid direction"

    def test_non_monotone_profile_fails(self):
        s = Spectrum([1.0, 0.5, 0.25])
        family = SmootherFamily("table", alphas=[1.0], h_table=[[0.5, 0.9, 0.1]])
        violation = check_ordered(family, AlphaGrid([1.0]), s)
        assert violation.kind == "not monotone in lambda"

    def test_grid_monotone_smoothing(self):
        s = polynomial_spectrum(20, 1.5)
        for family in FAMILIES:
            grid = default_grid(family, s, points=12, floor=False)
            rows = [h_values(family, a, s) for a in grid.values]
            for i in range(len(rows) - 1):
                assert np.all(rows[i] >= rows[i + 1] - 1e-12)


class TestDefaultGrid:
    def test_cutoff_full_range(self):
        grid = default_grid(SmootherFamily("cutoff"), polynomial_spectrum(4, 1.0), floor=False)
        assert np.allclose(grid.values, [0.25, 1 / 3, 0.5, 1.0])

    def test_geometric_two_points(self):
        s = polynomial_spectrum(10, 2.0)
        grid = default_grid(SmootherFamily("tikhonov"), s, points=2, floor=False)
        assert np.allclose(grid.values, [s.retained[-1] / 10.0, 10.0 * s.retained[0]])

    def test_default_floor_keeps_at_most_90_of_100(self):
        s = polynomial_spectrum(100, 1.0)
        grid = default_grid(SmootherFamily("cutoff"), s)
        # first kept alpha must zero out at least 10 components
        assert float(grid.values[0]) == pytest.approx(1.0 / 90.0)
        h = h_values(SmootherFamily("cutoff"), grid.values[0], s)
        assert np.sum(h) <= 90

    @pytest.mark.parametrize("kind", ["cutoff", "tikhonov", "landweber"])
    def test_floor_row_of_the_table_keeps_the_floor_dof(self, kind):
        # the floor and the table's one_minus_h_norm2 column are one
        # reduction, so the floor row meets the bound in the table too, and
        # the grid point below the floor misses it
        family = SmootherFamily(kind)
        for s in (polynomial_spectrum(200, 2.0), polynomial_spectrum(60, 1.0),
                  exponential_spectrum(100, 1.0), exponential_spectrum(40, 0.5)):
            need = max(10.0, s.effective_rank / 10.0)
            grid = default_grid(family, s, points=40)
            table = build_penalty_table(family, grid, s, 0.1)
            assert table.one_minus_h_norm2[0] >= need, (kind, s.effective_rank)
            full = default_grid(family, s, points=40, floor=False).values
            below = full[full < grid.values[0]]
            if below.size:
                resid = 1.0 - h_values(family, below[-1], s)
                assert float(np.sum(resid * resid)) < need, (kind, s.effective_rank)

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda family: family.kind)
    def test_floor_row_is_the_first_of_the_whole_grid(self, family, monkeypatch):
        # the blocked walk stops at the first row of the whole grid that
        # keeps the floor dof, on grids whose floor row lies past block 1;
        # it forms the residual factors alone, never the noise weights
        def no_noise_weights(h, lam):
            raise AssertionError("the floor formed the noise weights")

        monkeypatch.setattr(smoothers, "_row_kernels", no_noise_weights)
        for s in (polynomial_spectrum(1000, 2.0), polynomial_spectrum(333, 1.0),
                  exponential_spectrum(500, 1.0)):
            full = default_grid(family, s, points=900, floor=False).values
            resid = 1.0 - h_values(family, full, s)
            dof = np.sum(resid * resid, axis=1)
            first = np.flatnonzero(dof >= max(10.0, s.effective_rank / 10.0))[0]
            grid = default_grid(family, s, points=900)
            assert np.array_equal(grid.values, full[first:]), (family.kind, s.effective_rank)

    def test_floor_walk_peak_memory(self):
        # the mc-cutoff spectrum (k^-2, p = 1000): the floor row is row 100,
        # in the fourth block of 32 rows, and no 1000 x 1000 matrix is formed
        s = polynomial_spectrum(1000, 2.0)
        tracemalloc.start()
        try:
            grid = default_grid(SmootherFamily("cutoff"), s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(grid) == 900
        assert peak <= 2e6, peak

    def test_floor_on_a_subnormal_eigenvalue_warns_nothing(self):
        # the noise weights 1 / lambda of cutoff rows overflow at
        # lambda = 1e-310, and the floor forms only (1 - h)^2
        s = Spectrum(np.append(polynomial_spectrum(29, 1.0).retained, 1e-310))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = default_grid(SmootherFamily("cutoff"), s)
        assert float(grid.values[0]) == pytest.approx(1.0 / 20.0)

    def test_floor_infeasible(self):
        with pytest.raises(ValueError, match="alpha floor infeasible"):
            default_grid(SmootherFamily("cutoff"), polynomial_spectrum(4, 1.0))

    def test_geometric_needs_points(self):
        with pytest.raises(ValueError, match="points"):
            default_grid(SmootherFamily("tikhonov"), polynomial_spectrum(5, 1.0), floor=False)

    def test_severely_ill_posed_grid_is_finite(self):
        s = exponential_spectrum(500, 1.0)
        grid = default_grid(SmootherFamily("landweber"), s, points=20, floor=False)
        h = h_values(SmootherFamily("landweber"), grid.values[0], s)
        assert np.all(np.isfinite(h))


class TestConstructorChecks:
    @pytest.mark.parametrize("kind, parameters", [
        ("cutoff", {"tau": 2.0}),
        ("tikhonov", {"alphas": [1.0], "h_table": [[1.0]]}),
        ("landweber", {"h_table": [[1.0]]}),
        ("table", {"tau": 1.0, "alphas": [1.0], "h_table": [[1.0]]}),
    ], ids=["cutoff-tau", "tikhonov-alphas", "landweber-h_table", "table-tau"])
    def test_parameter_of_another_kind_rejected(self, kind, parameters):
        # such a parameter was once kept and ignored
        name = next(iter(parameters))
        with pytest.raises(ValueError, match=f"^invalid input: {name} does not apply to smoother kind {kind!r}$"):
            SmootherFamily(kind, **parameters)

    @pytest.mark.parametrize("build, message", [
        (lambda: SmootherFamily("bogus"), "invalid input: unknown smoother kind 'bogus'"),
        (lambda: SmootherFamily(3), "invalid input: unknown smoother kind 3"),
        (lambda: SmootherFamily(["cutoff"]), "invalid input: unknown smoother kind ['cutoff']"),
        (lambda: SmootherFamily("table", alphas=[1.0, 2.0], h_table=[[1.0, 0.5]]),
         "invalid input: table family needs matching alphas and rows"),
        (lambda: SmootherFamily("table"), "invalid input: table family needs matching alphas and rows"),
        (lambda: AlphaGrid([]), "invalid input: grid must be a nonempty 1-d sequence"),
        (lambda: AlphaGrid([[0.1, 0.2]]), "invalid input: grid must be a nonempty 1-d sequence"),
    ], ids=["kind-bogus", "kind-int", "kind-list", "table-rows", "table-none", "grid-empty", "grid-2d"])
    def test_invalid_input_message(self, build, message):
        with pytest.raises(ValueError) as excinfo:
            build()
        assert str(excinfo.value) == message

    def test_table_default_grid_is_its_sorted_alphas(self):
        s = polynomial_spectrum(20, 1.0)
        alphas = np.array([3.2, 0.01, 0.2, 0.05, 0.8])
        family = SmootherFamily("table", alphas=alphas, h_table=s.retained / (s.retained + alphas[:, None]))
        full = np.sort(alphas)
        assert np.array_equal(default_grid(family, s, floor=False).values, full)
        resid = 1.0 - h_values(family, full, s)
        first = np.flatnonzero(np.sum(resid * resid, axis=1) >= 10.0)[0]
        assert first > 0
        assert np.array_equal(default_grid(family, s).values, full[first:])


class TestAlphaGrid:
    def test_validation(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            AlphaGrid([1.0, 1.0])
        with pytest.raises(ValueError, match="positive"):
            AlphaGrid([0.0, 1.0])
        grid = AlphaGrid([0.1, 0.2])
        assert len(grid) == 2
        assert float(grid.values[0]) == 0.1
        assert float(grid.values[-1]) == 0.2
