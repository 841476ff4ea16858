"""Tests for the public names and the signatures that outside tools bind."""

from __future__ import annotations

import importlib
import inspect

import pytest

from specreg import build_penalty_table


@pytest.mark.parametrize("name", ("core", "smoothers", "penalty", "selection", "bench"))
def test_every_export_resolves(name):
    # tools walk __all__ with getattr, so a stale export breaks them
    module = importlib.import_module(f"specreg.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"specreg.{name}.__all__ names missing attributes: {missing}"


def test_build_penalty_table_parameter_names():
    # callers and tracers bind the grid and the spectrum by name
    params = inspect.signature(build_penalty_table).parameters
    assert {"grid", "spectrum"} <= set(params)
