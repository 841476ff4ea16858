"""Tests for the spectral-coordinate core: decomposition, transforms, simulation."""

from __future__ import annotations

import numpy as np
import pytest

from specreg import (
    DecomposedDesign,
    SpectralData,
    SpectralModel,
    Spectrum,
    decompose_design,
    polynomial_spectrum,
    reconstruct_estimate,
    replication_stream,
    simulate_observation,
    to_spectral,
)
from specreg.core import _check_x


def _orthonormal(rng, n, p):
    q, _ = np.linalg.qr(rng.standard_normal((n, p)))
    return q


class TestSpectrum:
    def test_generators(self):
        s = polynomial_spectrum(4, 2.0)
        assert np.allclose(s.retained, [1.0, 0.25, 1 / 9, 1 / 16])
        assert s.effective_rank == 4

    def test_rejects_increasing(self):
        with pytest.raises(ValueError, match="nonincreasing"):
            Spectrum([1.0, 2.0])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            Spectrum([1.0, 0.0])

    def test_arrays_are_immutable(self):
        s = polynomial_spectrum(3, 1.0)
        with pytest.raises(ValueError):
            s.eigenvalues[0] = 5.0


class TestDecompose:
    def test_identity(self):
        design = decompose_design(np.eye(3))
        assert np.allclose(design.spectrum.retained, [1.0, 1.0, 1.0])
        assert design.spectrum.effective_rank == 3

    def test_diagonal_design(self):
        x = np.zeros((3, 2))
        x[0, 0] = 2.0
        x[1, 1] = 1.0
        design = decompose_design(x)
        assert np.allclose(design.spectrum.retained, [4.0, 1.0])

    def test_known_svd_factors(self):
        rng = np.random.default_rng(5)
        left = _orthonormal(rng, 10, 5)
        right = _orthonormal(rng, 5, 5)
        sing = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
        x = left @ np.diag(sing) @ right.T
        design = decompose_design(x)
        assert np.max(np.abs(design.spectrum.retained - sing ** 2) / sing ** 2) < 1e-8

    def test_reconstruction_invariant(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((12, 6))
        design = decompose_design(x)
        gram = x.T @ x
        rebuilt = design.basis @ np.diag(design.spectrum.eigenvalues) @ design.basis.T
        rel = np.linalg.norm(rebuilt - gram) / np.linalg.norm(gram)
        assert rel < 1e-8

    def test_rank_truncation(self):
        rng = np.random.default_rng(7)
        left = _orthonormal(rng, 8, 4)
        right = _orthonormal(rng, 4, 4)
        sing = np.array([1.0, 0.5, 1e-10, 1e-12])
        x = left @ np.diag(sing) @ right.T
        design = decompose_design(x, rank_tol=1e-12)
        lam = design.spectrum
        assert lam.effective_rank == 2
        assert np.all(lam.retained >= 1e-12 * lam.retained[0])

    @pytest.mark.parametrize("rank_tol", [float("nan"), -1.0, -1e-300, 1.0 + 1e-15, 2.0, float("inf")])
    def test_rank_tol_out_of_range_rejected(self, rank_tol):
        # NaN once reached Spectrum as a rank of 0 and -1 kept every component
        with pytest.raises(ValueError, match=r"^invalid input: rank_tol must lie in \[0, 1\]$"):
            decompose_design(np.eye(3), rank_tol=rank_tol)

    def test_rank_tol_ends_of_the_range(self):
        x = np.diag([1.0, 0.5, 1e-3])
        assert decompose_design(x, rank_tol=0.0).spectrum.effective_rank == 3
        assert decompose_design(x, rank_tol=1.0).spectrum.effective_rank == 1

    def test_tall_design_matches_the_svd_bit_for_bit(self):
        # for n >= 11p/6 LAPACK's SVD of X itself factors X = QR first and
        # takes the SVD of R, the route decompose_design takes
        x = np.random.default_rng(15).standard_normal((120, 40)) * np.geomspace(1.0, 1e-3, 40)
        _, sing, vt = np.linalg.svd(x, full_matrices=False)
        design = decompose_design(x)
        assert np.array_equal(design.spectrum.eigenvalues, sing ** 2)
        assert np.array_equal(design.basis, vt.T)

    def test_near_square_design_matches_the_svd(self):
        # below 11p/6 the plain SVD bidiagonalises X directly: last bits may differ
        rng = np.random.default_rng(16)
        x = rng.standard_normal((30, 20)) * np.geomspace(1.0, 1e-3, 20)
        y = rng.standard_normal(30)
        design = decompose_design(x)
        sing = np.linalg.svd(x, compute_uv=False)
        np.testing.assert_allclose(design.spectrum.eigenvalues, sing ** 2, rtol=1e-12, atol=0.0)
        mine = reconstruct_estimate(design, to_spectral(design, y).y)
        ls = np.linalg.lstsq(x, y, rcond=None)[0]
        assert np.linalg.norm(mine - ls) / np.linalg.norm(ls) < 1e-9

    def test_keeps_no_n_by_p_matrix_but_the_reflectors(self):
        design = decompose_design(np.random.default_rng(17).standard_normal((50, 5)))
        assert design.reflectors.shape == (5, 50)
        assert not hasattr(design, "left_basis")
        for value in (design.basis, design.tau, design.r_left_basis):
            assert value.size <= 25 and not value.flags.writeable
        assert not design.reflectors.flags.writeable

    def test_errors(self):
        with pytest.raises(ValueError, match="degenerate design"):
            decompose_design(np.zeros((4, 2)))
        bad = np.ones((4, 2))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="invalid input"):
            decompose_design(bad)
        with pytest.raises(ValueError, match="invalid input"):
            decompose_design(np.ones((2, 4)))


class TestToSpectral:
    def test_identity_design(self):
        design = decompose_design(np.eye(3))
        data = to_spectral(design, np.array([3.0, -1.0, 2.0]))
        assert np.allclose(np.sort(np.abs(data.y)), np.sort([1.0, 2.0, 3.0]))
        # identity design: spectral values coincide with Y up to basis ordering/sign
        rebuilt = reconstruct_estimate(design, data.y)
        assert np.allclose(rebuilt, [3.0, -1.0, 2.0], atol=1e-12)

    def test_noiseless_consistency(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((9, 4))
        beta = rng.standard_normal(4)
        design = decompose_design(x)
        data = to_spectral(design, x @ beta)
        expected = design.basis.T @ beta
        assert np.max(np.abs(data.y - expected)) < 1e-8

    def test_noise_variance_per_component(self):
        # y(k) - <beta, psi_k> should have variance sigma^2 / lambda(k)
        rng = np.random.default_rng(9)
        n, p, sigma, reps = 8, 4, 0.7, 10_000
        x = rng.standard_normal((n, p))
        beta = rng.standard_normal(p)
        design = decompose_design(x)
        target = design.basis.T @ beta
        devs = np.empty((reps, p))
        for i in range(reps):
            data = to_spectral(design, x @ beta + sigma * rng.standard_normal(n))
            devs[i] = data.y - target
        got = np.var(devs, axis=0)
        want = sigma ** 2 / design.spectrum.retained
        assert np.all(np.abs(got - want) / want < 0.05)

    def test_dimension_error(self):
        design = decompose_design(np.eye(3))
        with pytest.raises(ValueError, match="dimension error"):
            to_spectral(design, np.ones(4))


class TestSimulate:
    def test_zero_noise_is_exact(self):
        model = SpectralModel(polynomial_spectrum(5, 1.0), np.arange(1.0, 6.0), 0.0)
        data = simulate_observation(model, replication_stream(0, 0))
        assert np.array_equal(data.y, model.coefficients)

    def test_determinism(self):
        model = SpectralModel(polynomial_spectrum(6, 2.0), np.ones(6), 0.3)
        a = simulate_observation(model, replication_stream(42, 7))
        b = simulate_observation(model, replication_stream(42, 7))
        assert np.array_equal(a.y, b.y)

    def test_streams_differ_across_indices(self):
        model = SpectralModel(polynomial_spectrum(6, 2.0), np.ones(6), 0.3)
        a = simulate_observation(model, replication_stream(42, 0))
        b = simulate_observation(model, replication_stream(42, 1))
        assert not np.array_equal(a.y, b.y)

    def test_unbiased(self):
        p, sigma, reps = 3, 0.5, 100_000
        spectrum = polynomial_spectrum(p, 2.0)
        beta = np.array([1.0, -0.5, 0.25])
        model = SpectralModel(spectrum, beta, sigma)
        rng = replication_stream(123, 0)
        total = np.zeros(p)
        for _ in range(reps):
            total += simulate_observation(model, rng).y
        mean = total / reps
        se = sigma / np.sqrt(spectrum.retained) / np.sqrt(reps)
        assert np.all(np.abs(mean - beta) < 4.0 * se)


class TestReconstruct:
    def test_identity_no_smoothing(self):
        design = decompose_design(np.eye(4))
        y = np.array([1.0, 2.0, -1.0, 0.5])
        data = to_spectral(design, y)
        assert np.allclose(reconstruct_estimate(design, data.y), y, atol=1e-12)

    def test_zero_filter(self):
        design = decompose_design(np.eye(4))
        assert np.array_equal(reconstruct_estimate(design, np.zeros(4)), np.zeros(4))

    def test_round_trip_recovers_beta(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((11, 5))
        beta = rng.standard_normal(5)
        design = decompose_design(x)
        data = to_spectral(design, x @ beta)
        rebuilt = reconstruct_estimate(design, data.y)  # h == 1
        assert np.max(np.abs(rebuilt - beta)) < 1e-8

    def test_matches_least_squares(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((15, 6))
        y = rng.standard_normal(15)
        design = decompose_design(x)
        mine = reconstruct_estimate(design, to_spectral(design, y).y)
        ls = np.linalg.lstsq(x, y, rcond=None)[0]
        assert np.linalg.norm(mine - ls) / np.linalg.norm(ls) < 1e-8

    def test_dimension_error(self):
        design = decompose_design(np.eye(4))
        with pytest.raises(ValueError, match="dimension error"):
            reconstruct_estimate(design, np.zeros(3))


class TestOrthogonalResidual:
    def test_splits_total_energy(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((10, 3))
        y = rng.standard_normal(10)
        design = decompose_design(x)
        data = to_spectral(design, y)
        resid2, dof = data.residual2, data.residual_dof
        assert dof == 7
        proj = np.linalg.svd(x, full_matrices=False)[0].T @ y
        assert resid2 == pytest.approx(float(y @ y - proj @ proj))
        assert resid2 >= 0.0

    def test_zero_for_in_span_data(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((9, 4))
        design = decompose_design(x)
        resid2 = to_spectral(design, x @ rng.standard_normal(4)).residual2
        assert resid2 < 1e-20

    def test_no_cancellation_near_the_span(self):
        # |Y|^2 ~ 1e9 while the part orthogonal to the columns has |e|^2 = 1e-8:
        # y @ y - |U'y|^2 loses all of it, the sum of squares of (Q'y)[p:] none
        rng = np.random.default_rng(3)
        x = rng.standard_normal((40, 8))
        g = rng.standard_normal(8)
        e = rng.standard_normal(40)
        left = np.linalg.svd(x, full_matrices=False)[0]
        e -= left @ (left.T @ e)
        e *= 1e-4 / np.linalg.norm(e)
        data = to_spectral(decompose_design(x), x @ (1e3 * g) + e)
        resid2, dof = data.residual2, data.residual_dof
        assert dof == 32
        assert resid2 == pytest.approx(1e-8, rel=1e-6)

    @pytest.mark.parametrize("kind", ["orthogonal 1e160", "flat 1e308"])
    def test_overflow_is_an_error_without_a_warning(self, kind):
        # a finite y whose residual sum of squares (or whose rotation, which
        # then meets inf - inf) overflows is rejected as non-finite data, and
        # no numpy warning escapes (the suite turns RuntimeWarnings into errors)
        rng = np.random.default_rng(14)
        x = rng.standard_normal((12, 4))
        y = 1e160 * np.linalg.svd(x)[0][:, 5] if kind == "orthogonal 1e160" else np.full(12, 1e308)
        with pytest.raises(ValueError, match="invalid input: (residual2|non-finite)"):
            to_spectral(decompose_design(x), y)


class TestAgainstMpmath:
    def test_least_squares_on_ill_conditioned_design(self):
        """The QR-first path against 50-digit least squares (mpmath QR) on a
        12 x 4 design with singular values 1, 1e-2, 1e-4, 1e-6 (condition
        number 1e6).  The estimate with h = 1 is the least-squares solution,
        whatever the signs of the singular vectors; a backward-stable solve
        is off by about cond^2 eps |r| / (|X| |beta|) ~ 1e-10 here.  The
        squared residual is off by about eps (|Y| / |r| + cond) ~ 1e-12."""
        from mpmath import matrix, mp

        rng = np.random.default_rng(14)
        x = (_orthonormal(rng, 12, 4) * [1.0, 1e-2, 1e-4, 1e-6]) @ _orthonormal(rng, 4, 4).T
        y = x @ rng.standard_normal(4) + 1e-3 * rng.standard_normal(12)
        design = decompose_design(x, rank_tol=1e-14)
        assert design.spectrum.effective_rank == 4
        with mp.workdps(50):
            solution, residual = mp.qr_solve(matrix(x.tolist()), matrix(y.tolist()))
            beta = np.array([float(v) for v in solution])
            want2 = float(residual ** 2)
        mine = reconstruct_estimate(design, to_spectral(design, y).y)
        assert np.linalg.norm(mine - beta) / np.linalg.norm(beta) < 1e-8
        data = to_spectral(design, y)
        resid2, dof = data.residual2, data.residual_dof
        assert dof == 8
        assert resid2 == pytest.approx(want2, rel=1e-10)


def test_spectral_data_validation():
    s = polynomial_spectrum(3, 1.0)
    with pytest.raises(ValueError, match="dimension error"):
        SpectralData(s, [1.0, 2.0])


def test_spectral_data_residual_defaults_to_none():
    data = SpectralData(polynomial_spectrum(3, 1.0), [1.0, 2.0, 3.0])
    assert (data.residual2, data.residual_dof) == (0.0, 0)


@pytest.mark.parametrize("residual2, residual_dof", [
    (-1.0, 2), (np.nan, 2), (np.inf, 2), (1.0, -1), (1.0, 2.5)])
def test_spectral_data_rejects_a_bad_residual(residual2, residual_dof):
    with pytest.raises(ValueError, match="invalid input: residual"):
        SpectralData(polynomial_spectrum(3, 1.0), [1.0, 2.0, 3.0], residual2, residual_dof)


_S2 = Spectrum([2.0, 1.0])
_DESIGN = {"spectrum": _S2, "basis": np.eye(2), "n": 3, "reflectors": np.zeros((2, 3)),
           "tau": np.zeros(2), "r_left_basis": np.eye(2)}


@pytest.mark.parametrize("build, message", [
    (lambda: Spectrum([]), "invalid input: eigenvalues must be a nonempty 1-d sequence"),
    (lambda: Spectrum([1.0, 0.5], 3), "invalid input: effective_rank out of range"),
    (lambda: Spectrum([np.inf, 0.5]), "invalid input: non-finite eigenvalues"),
    (lambda: Spectrum([1.0, np.nan, 0.25], 2), "invalid input: non-finite eigenvalues"),
    (lambda: DecomposedDesign(**dict(_DESIGN, tau=np.zeros(3))), "dimension error: tau must have shape (2,)"),
    (lambda: DecomposedDesign(**dict(_DESIGN, basis=[[1.0, 1.0], [0.0, 1.0]])),
     "invalid input: basis columns are not orthonormal"),
    (lambda: SpectralModel(_S2, [1.0], 0.1), "dimension error: coefficients must match effective_rank"),
    (lambda: SpectralModel(_S2, [1.0, np.nan], 0.1), "invalid input: non-finite coefficients"),
    (lambda: SpectralModel(_S2, [1.0, 0.5], -0.1), "invalid input: sigma must be a nonnegative real"),
    (lambda: SpectralModel(_S2, [1.0, 0.5], np.nan), "invalid input: sigma must be a nonnegative real"),
    (lambda: _check_x(np.ones(3)), "invalid input: X must be a 2-d matrix"),
], ids=["spectrum-empty", "spectrum-rank", "spectrum-inf", "spectrum-nan-retained", "design-shape",
        "design-basis", "model-length", "model-nan", "model-sigma-negative", "model-sigma-nan", "x-1d"])
def test_invalid_input_message(build, message):
    with pytest.raises(ValueError) as excinfo:
        build()
    assert str(excinfo.value) == message
