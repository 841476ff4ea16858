"""Tests for the summary step of tools/bench_pairs.py, on fixed per-pair values."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", _ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    sys.dont_write_bytecode, saved = True, sys.dont_write_bytecode
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def _pairs(parent, change, **extra):
    return [{"pair": i, "seed": 7 + i, "first": "parent" if i % 2 == 0 else "change",
             "parent": {"wall_s": p, "rate": p}, "change": {"wall_s": c, "rate": c},
             "digest": {"parent": "a", "change": "a"}, "failed": {"parent": 0, "change": 0}, **extra}
            for i, (p, c) in enumerate(zip(parent, change))]


def test_quartiles_and_wins_of_fixed_pairs(bench_pairs):
    metrics = [{"name": "wall_s", "better": "lower"}, {"name": "rate", "better": "higher"}]
    # pair 1 is a tie, which counts for neither side
    pairs = _pairs([1.0, 2.0, 3.0, 4.0, 5.0], [0.5, 2.0, 2.5, 4.5, 4.0])
    record = bench_pairs.workload_record(pairs, metrics)
    assert set(record) == {"summary", "failed", "correct", "digests_equal", "pairs"}
    assert (record["failed"], record["correct"], record["digests_equal"]) == (
        {"parent": 0, "change": 0}, True, True)
    wall, rate = record["summary"]["wall_s"], record["summary"]["rate"]
    assert set(wall) == {"parent", "change", "change_wins", "parent_wins", "median_change_rel", "parent_iqr"}
    assert wall["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert wall["change"] == {"median": 2.5, "q1": 2.0, "q3": 4.0}
    assert (wall["change_wins"], wall["parent_wins"]) == (3, 1)
    assert (rate["change_wins"], rate["parent_wins"]) == (1, 3)
    assert wall["median_change_rel"] == pytest.approx(2.5 / 3.0 - 1.0, rel=1e-15)
    assert wall["parent_iqr"] == 2.0


def test_failures_and_digests_are_counted_over_all_pairs(bench_pairs):
    pairs = _pairs([1.0, 2.0], [1.0, 2.0])
    pairs[1]["failed"]["change"] = 3
    pairs[0]["digest"]["change"] = "b"
    record = bench_pairs.workload_record(pairs, [{"name": "wall_s", "better": "lower"}])
    assert (record["failed"], record["correct"], record["digests_equal"]) == (
        {"parent": 0, "change": 3}, False, False)


def test_trees_with_other_benchmark_files_are_a_usage_error(bench_pairs, tmp_path, capsys):
    for side in ("parent", "change"):
        for name in bench_pairs._BENCHMARK_FILES:
            (tmp_path / side / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / side / name).write_text(side if name == "BENCHMARK.json" else "", encoding="utf-8")
    with pytest.raises(SystemExit) as excinfo:
        bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--pairs", "10",
                          "--seconds", "1", "--out", str(tmp_path / "out.json")])
    assert excinfo.value.code == 2
    assert "BENCHMARK.json is missing or differs between the two trees" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def test_committed_pairs_file_is_the_runners_summary(bench_pairs):
    # BENCH_32.json was written by the runner: its summaries recompute from
    # its own pairs, on every end-to-end metric of the benchmark
    document = json.loads((_ROOT / "BENCH_32.json").read_text(encoding="utf-8"))
    spec = json.loads((_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(document) == {"title", "parent_commit", "method", "environment", "claim", "workloads"}
    assert set(document["workloads"]) == {w["name"] for w in spec["workloads"]}
    for workload in document["workloads"].values():
        assert len(workload["pairs"]) >= 10
        assert [pair["first"] for pair in workload["pairs"]] == [
            "parent" if i % 2 == 0 else "change" for i in range(len(workload["pairs"]))]
        assert workload == bench_pairs.workload_record(workload["pairs"], spec["end_to_end"])
