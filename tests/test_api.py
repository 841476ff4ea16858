"""Tests for the public names and the signatures that outside tools bind."""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import json
import pkgutil
import sys
from pathlib import Path

import pytest

from specreg import SmootherFamily, build_penalty_table, default_grid, penalty, polynomial_spectrum

_ROOT = Path(__file__).resolve().parents[1]
_MODULES = ("core", "smoothers", "penalty", "selection", "bench")


@pytest.mark.parametrize("name", _MODULES)
def test_every_export_resolves(name):
    # tools walk __all__ with getattr, so a stale export breaks them
    module = importlib.import_module(f"specreg.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"specreg.{name}.__all__ names missing attributes: {missing}"


def test_selection_and_bench_exports():
    # the scalar penalty, risk, variance and contrast formulas are test
    # references (tests/reference.py), not part of the package, and neither
    # are the wrappers growth_term and model_from_json, nor the report types
    # of check_ordered, check_conditions and verify_penalty_inequalities,
    # which return their findings
    import specreg

    assert set(specreg.selection.__all__) == {"SelectionResult", "select_alpha"}
    assert set(specreg.bench.__all__) == {
        "RiskProfile", "risk_profile", "risk_bound", "excess_sup_stat", "BenchReport", "mc_run"}
    for name in ("exact_risk", "penalized_risk", "sigma_hat2", "contrast_known_sigma",
                 "contrast_unknown_sigma", "pen_u", "pen_cv", "cramer_term", "growth_term",
                 "model_from_json", "OrderingReport", "ConditionsReport", "PenaltyInequalityReport"):
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
    family = SmootherFamily("cutoff")
    build_penalty_table(family, default_grid(family, spectrum), spectrum, 0.1)
    assert len(calls) == 5


def test_package_exports_the_modules_exports():
    # each module's __all__ is the one declaration of the package's names
    import specreg

    exports = set().union(*(importlib.import_module(f"specreg.{name}").__all__ for name in _MODULES))
    public = {name for name in vars(specreg) if not name.startswith("_")}
    submodules = {module.name for module in pkgutil.iter_modules(specreg.__path__)}
    assert set(_MODULES) <= public
    assert public - submodules == exports


def test_every_per_layer_metric_is_traced(monkeypatch):
    # a metric whose function was renamed reads null in a traced benchmark run
    # while the run itself still succeeds
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("layertrace", _ROOT / "perfbench" / "layertrace.py")
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    metrics = json.loads((_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    tracer = layertrace.Tracer()
    tracer.start()
    try:
        keys = {*tracer.counts, *(f"{span}.calls" for span in tracer.calls),
                *(f"{span}.self_s" for span in tracer.self_s)}
    finally:
        tracer.stop()
    # run.py measures these three itself
    own = {"cli.bytes_in", "cli.bytes_out", "trace_overhead_s"}
    missing = [m["name"] for m in metrics if m["name"] not in own | keys]
    assert not missing, f"per-layer metrics no traced function gives: {missing}"
