"""Tests for the public names and the signatures that outside tools bind."""

from __future__ import annotations

import importlib
import inspect

import pytest

from specreg import SmootherFamily, build_penalty_table, default_grid, penalty, polynomial_spectrum


@pytest.mark.parametrize("name", ("core", "smoothers", "penalty", "selection", "bench"))
def test_every_export_resolves(name):
    # tools walk __all__ with getattr, so a stale export breaks them
    module = importlib.import_module(f"specreg.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"specreg.{name}.__all__ names missing attributes: {missing}"


def test_selection_and_bench_exports():
    # the scalar risk, variance and contrast formulas are test references
    # (tests/reference.py), not part of the package
    import specreg

    assert set(specreg.selection.__all__) == {"SelectionResult", "select_alpha"}
    assert set(specreg.bench.__all__) == {
        "RiskProfile", "risk_profile", "growth_term", "risk_bound", "excess_sup_stat",
        "BenchReport", "mc_run"}
    for name in ("exact_risk", "penalized_risk", "sigma_hat2", "contrast_known_sigma",
                 "contrast_unknown_sigma"):
        assert not hasattr(specreg, name), name


def test_build_penalty_table_parameter_names():
    # callers and tracers bind the grid and the spectrum by name
    params = inspect.signature(build_penalty_table).parameters
    assert {"grid", "spectrum"} <= set(params)


def test_mu_solve_names_the_tracer_binds(monkeypatch):
    # the perfbench tracer times _solve_mu_rows and counts _cramer_rowsum
    # calls by name: one per row block for each Halley step and one for the
    # residual check.  This single-block table takes four steps.
    assert inspect.isfunction(penalty._solve_mu_rows)
    assert inspect.isfunction(penalty._cramer_rowsum)
    calls = []
    rowsum = penalty._cramer_rowsum

    def counting(*args):
        calls.append(None)
        return rowsum(*args)

    monkeypatch.setattr(penalty, "_cramer_rowsum", counting)
    spectrum = polynomial_spectrum(50, 2.0)
    family = SmootherFamily.cutoff()
    build_penalty_table(family, default_grid(family, spectrum), spectrum, 0.1)
    assert len(calls) == 5
