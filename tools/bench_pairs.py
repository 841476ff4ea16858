"""Run the benchmark on two source trees in alternating pairs and summarise it.

Usage: python tools/bench_pairs.py PARENT_TREE CHANGE_TREE --pairs N --seconds S
           --out BENCH_<PR>.json [--seed SEED] [--title TITLE] [--parent-commit SHA]

PARENT_TREE and CHANGE_TREE are two checkouts (e.g. ``git archive`` of the
parent commit and of the change), each holding ``perfbench/`` and
``BENCHMARK.json``; both must hold the same benchmark files byte for byte.
For every workload of BENCHMARK.json the runner takes N pairs, one after
the other.  Each run is ``python3 perfbench/run.py --workload W --seed SEED
--seconds S --trace 0`` in its tree, in a process of its own, one run at a
time.  Both runs of a pair use one seed, SEED + the pair's number over all
workloads (the first pair of the first workload gets SEED), and the parent
runs first on the 1st, 3rd, 5th ... pair of each workload, the change
first on the others.  Every pair is kept as run: none is dropped or re-run.
A run that exits nonzero ends the runner with exit 2 and writes nothing.

The output keeps, per workload, every pair's end-to-end metrics on both
sides (``setup_s``, a bare ``import specreg`` in a fresh interpreter, is
there as a witness of host load), the output digests and failed command
counts, and per metric each side's q1, median and q3 over the pairs, the
pairs each side wins, the relative change of the median and the parent's
interquartile range.  It claims nothing: ``claim`` is null.  Standard
library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

_BENCHMARK_FILES = ("BENCHMARK.json", "perfbench/run.py", "perfbench/workloads.py",
                    "perfbench/layertrace.py")


def side_summary(values: list[float]) -> dict:
    """Median and quartiles of one side's per-pair values (at least two)."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per end-to-end metric (BENCHMARK.json entries with ``name`` and
    ``better``), both sides' quartiles over ``pairs``, the pairs each side
    wins (a tie counts for neither), the change's median relative to the
    parent's, and the parent's interquartile range."""
    summary = {}
    for metric in metrics:
        name, sign = metric["name"], (1.0 if metric["better"] == "lower" else -1.0)
        parent = [pair["parent"][name] for pair in pairs]
        change = [pair["change"][name] for pair in pairs]
        sides = {"parent": side_summary(parent), "change": side_summary(change)}
        summary[name] = {
            **sides,
            "change_wins": sum(sign * (c - p) < 0.0 for p, c in zip(parent, change)),
            "parent_wins": sum(sign * (p - c) < 0.0 for p, c in zip(parent, change)),
            "median_change_rel": sides["change"]["median"] / sides["parent"]["median"] - 1.0,
            "parent_iqr": sides["parent"]["q3"] - sides["parent"]["q1"],
        }
    return summary


def workload_record(pairs: list[dict], metrics: list[dict]) -> dict:
    """The summary, failure counts and digest agreement of one workload's
    pairs, each pair as run_pair returns it, and the pairs themselves."""
    return {
        "summary": summarize(pairs, metrics),
        "failed": {side: sum(pair["failed"][side] for pair in pairs) for side in ("parent", "change")},
        "correct": all(pair["failed"][side] == 0 for pair in pairs for side in ("parent", "change")),
        "digests_equal": all(pair["digest"]["parent"] == pair["digest"]["change"] for pair in pairs),
        "pairs": pairs,
    }


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``tree``: its full record as run.py writes it."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} in {tree} exited {done.returncode}:\n{done.stderr}")
    return json.loads((tree / "perfbench" / ".work" / f"{workload}.result.json").read_text(encoding="utf-8"))


def run_pair(trees: dict, workload: str, number: int, seed: int, seconds: float,
             metrics: list[dict]) -> tuple[dict, dict]:
    """Pair ``number`` (from 0) of a workload, both sides on one seed and
    the parent first on even numbers, and the environment the parent's run
    records."""
    order = ("parent", "change") if number % 2 == 0 else ("change", "parent")
    records = {side: run_side(trees[side], workload, seed, seconds) for side in order}
    pair = {"pair": number, "seed": seed, "first": order[0]}
    for side in ("parent", "change"):
        values = records[side]["result"]["metrics"]
        pair[side] = {metric["name"]: values[metric["name"]]["value"] for metric in metrics}
    pair["digest"] = {side: records[side]["digest"] for side in ("parent", "change")}
    pair["failed"] = {side: records[side]["result"]["failed"] for side in ("parent", "change")}
    return pair, records["parent"]["environment"]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="source tree of the parent commit")
    parser.add_argument("change", type=Path, help="source tree of the change")
    parser.add_argument("--pairs", type=int, required=True, help="pairs per workload (at least 2)")
    parser.add_argument("--seconds", type=float, required=True, help="run length of each run")
    parser.add_argument("--out", type=Path, required=True, help="output JSON path")
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair (default 1)")
    parser.add_argument("--title", default="", help="what the change does")
    parser.add_argument("--parent-commit", default=None, help="the parent's commit id, for the record")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for name in _BENCHMARK_FILES:
        texts = [(tree / name).read_bytes() if (tree / name).is_file() else None for tree in trees.values()]
        if texts[0] is None or texts[0] != texts[1]:
            parser.error(f"{name} is missing or differs between the two trees")
    spec = json.loads((trees["parent"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics, workloads = spec["end_to_end"], [w["name"] for w in spec["workloads"]]
    seeds = {w: [args.seed + k * args.pairs + i for i in range(args.pairs)] for k, w in enumerate(workloads)}
    records, environment = {}, None
    try:
        for workload in workloads:
            pairs = []
            for number, seed in enumerate(seeds[workload]):
                pair, environment = run_pair(trees, workload, number, seed, args.seconds, metrics)
                pairs.append(pair)
                print(f"{workload} pair {number} seed {seed}: " + ", ".join(
                    f"{name} {pair['parent'][name]:.4g} -> {pair['change'][name]:.4g}"
                    for name in (m["name"] for m in metrics)), flush=True)
            records[workload] = workload_record(pairs, metrics)
    except RuntimeError as exc:
        sys.stderr.write(f"{exc}\n")
        return 2
    document = {
        "title": args.title,
        "parent_commit": args.parent_commit,
        "method": {
            "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} --trace 0",
            "runner": f"python tools/bench_pairs.py PARENT_TREE CHANGE_TREE --pairs {args.pairs} "
                      f"--seconds {args.seconds:g} --seed {args.seed}",
            "runs": "each side from its own copy of the tree (parent commit, change), "
                    "one process per run, one run at a time",
            "pairs_per_workload": {w: args.pairs for w in workloads},
            "order": "pairs alternate strictly: even pair numbers run the parent first, "
                     "odd ones the change first",
            "seeds": seeds,
            "quartiles": "statistics.quantiles(method='inclusive') over the run medians of a side",
            "win": "the change's run reads better than the parent's run of the same pair; "
                   "a tie counts for neither",
            "kept": "every pair as run; setup_s of each run is a witness of host load",
        },
        "environment": environment,
        "claim": None,
        "workloads": records,
    }
    args.out.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
