"""Smoke test of the benchmark harness at reduced size.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload (also one that BENCHMARK.json does not list) once per
trace mode on small inputs and checks that each metric of BENCHMARK.json
prints with its unit and that the output check passes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

sys.path.insert(0, str(run.SRC))
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_workload_reports_every_metric(workload, trace, capsys):
    record = run.execute(workload, 3, 0.0, bool(trace), SPEC, small=True)
    run.report(record)
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    for metric in expected:
        assert any(line.strip().startswith(f"{metric['name']} = ")
                   and line.endswith(f" {metric['unit']}") for line in lines[:-1])
        value = result["metrics"][metric["name"]]["value"]
        if not trace:
            assert value > 0
    assert f"output digest: {record['digest']}" in lines
