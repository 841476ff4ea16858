"""Workload definitions for the specreg benchmark.

Each workload is a fixed sequence of ``specreg`` CLI commands plus the
inputs they read, generated from the benchmark seed.  Every command runs
once per pass, in order, in one process (closed loop, one client).

Run as a script to generate a workload's inputs into a directory:

    python3 perfbench/workloads.py <workload> <seed> <dest> [--small]

The runner does this in a child process, so that input generation neither
counts towards the runner's timed region nor towards its peak memory.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path

GAMMA = 0.1


@dataclass(frozen=True)
class Command:
    """One CLI invocation: ``argv`` for ``specreg.cli.main``, the files it
    writes (relative to the work directory) and the exit code it must give."""

    label: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]
    expect_exit: int = 0


def _generator_config(spectrum: dict, signal: dict, sigma: float, replications: int,
                      seed: int, penalty: str = "total") -> dict:
    return {
        "problem": {"generator": {"spectrum": spectrum, "signal": signal, "sigma": sigma}},
        "family": {"kind": "cutoff"},
        "grid": {"floor": "default"},
        "gamma": GAMMA,
        "mode": "unknown",
        "penalty": penalty,
        "replications": replications,
        "seed": seed,
    }


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _bench(label: str, config: str) -> Command:
    return Command(label, ("bench", "--config", config, "--out", f"{label}.json",
                           "--rep-out", f"{label}.csv"), (f"{label}.json", f"{label}.csv"))


def _select(config: str, label: str = "select") -> Command:
    return Command(label, ("select", "--config", config, "--out", f"{label}.json"),
                   (f"{label}.json",))


# Sizes at full scale and at the reduced scale the smoke test uses.
_SIZES = {
    "mc-cutoff": {False: {"p": 1000, "R": 300}, True: {"p": 60, "R": 20}},
    "mc-illposed": {False: {"p": 40, "R": 20000}, True: {"p": 40, "R": 400}},
    "pipeline-matrix": {False: {"n": 3000, "p": 600}, True: {"n": 300, "p": 60}},
}

# The command sequence of each workload, and why it was chosen: the three
# stress different layers, so that an optimisation of one layer shows on
# the workload that exercises it and shows no change on one that bypasses it.
WORKLOADS = {
    # Large-p Monte Carlo: k^-2 spectrum, p=1000, cutoff grid with the
    # default floor (M=900), R=300.  The penalty table (the mu solve) and
    # the per-replication select/excess kernels on 900x1000 matrices
    # dominate; the closing select is one fit from the same config, which
    # is one more table build.
    "mc-cutoff": (_bench("bench", "mc.json"), _select("mc.json")),
    # The paper's criterion-8 comparison at scale: e^-k spectrum, p=40,
    # M=30, R=20000 for penalty "total" and again for "unbiased".  Tiny
    # matrices make per-replication overhead (stream set-up, simulation,
    # select, excess) dominate and the mu solve negligible: the same
    # selection layer as mc-cutoff, used in a very different shape.  One
    # select takes milliseconds here, so it runs 20 times per pass to give
    # its median enough samples.  Not listed in BENCHMARK.json: on a shared
    # two-vCPU host its interpreter-bound passes swing so much that the
    # spread of its run medians (IQR/median 0.13-0.22 over ten seeds) sits
    # too close to the largest bound a time metric may have (0.25).
    "mc-illposed": (
        _bench("bench-total", "mc-total.json"),
        _bench("bench-unbiased", "mc-unbiased.json"),
        *(_select("mc-total.json", f"select-{i}") for i in range(20)),
    ),
    # The README user flow on raw data: decompose, penalty-table, check and
    # select on a 3000x600 CSV design.  No Monte Carlo loop runs; CSV
    # parsing and the SVD (once per command) dominate.  check exits 2 on
    # the documented criterion-2 log bound, which is the expected result.
    "pipeline-matrix": (
        Command("decompose", ("decompose", "--config", "matrix.json", "--out", "decompose.json"),
                ("decompose.json",)),
        Command("penalty-table", ("penalty-table", "--config", "matrix.json", "--out",
                                  "table.csv"), ("table.csv",)),
        Command("check", ("check", "--config", "matrix.json"), (), expect_exit=2),
        _select("matrix.json"),
    ),
}


def generate(name: str, seed: int, dest: Path, small: bool = False) -> None:
    """Write the inputs of workload ``name`` for ``seed`` into ``dest``."""
    size = _SIZES[name][small]
    dest.mkdir(parents=True, exist_ok=True)
    if name == "mc-cutoff":
        spectrum = {"kind": "polynomial", "p": size["p"], "exponent": 2.0}
        signal = {"kind": "polynomial", "exponent": 1.0}
        _write_json(dest / "mc.json", _generator_config(spectrum, signal, 0.05, size["R"], seed))
    elif name == "mc-illposed":
        spectrum = {"kind": "exponential", "p": size["p"], "kappa": 1.0}
        signal = {"kind": "exponential", "rate": 0.25}
        for penalty in ("total", "unbiased"):
            config = _generator_config(spectrum, signal, 0.1, size["R"], seed, penalty)
            _write_json(dest / f"mc-{penalty}.json", config)
    else:
        _generate_matrix(seed, dest, size["n"], size["p"])


def _generate_matrix(seed: int, dest: Path, n: int, p: int) -> None:
    """X = U diag(k^-1) V' with random orthonormal U, V, and Y = X V c plus
    noise of sd 0.05, with spectral coefficients c(k) = k^-1.

    Paths in the config are relative: commands run in ``dest``.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((n, p)))
    v, _ = np.linalg.qr(rng.standard_normal((p, p)))
    k = np.arange(1.0, p + 1.0)
    x = (u / k) @ v.T
    y = u @ (k ** -2.0) + 0.05 * rng.standard_normal(n)
    # fixed width, so the file size does not depend on the seed; synced, so
    # that writing the 43 MB back to disk does not overlap the timed passes
    for file, values in (("x.csv", x), ("y.csv", y)):
        with open(dest / file, "wb") as handle:
            np.savetxt(handle, values, fmt="%+.16e", delimiter=",")
            handle.flush()
            os.fsync(handle.fileno())
    _write_json(dest / "expected_eigenvalues.json", [float(v) for v in k ** -2.0])
    _write_json(dest / "matrix.json", {
        "problem": {"matrix": {"x": "x.csv", "y": "y.csv"}},
        "family": {"kind": "cutoff"},
        "grid": {"floor": "default"},
        "gamma": GAMMA,
        "mode": "unknown",
    })


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def _median_loss(path: Path) -> float:
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    return statistics.median(float(line.split(",")[2]) for line in lines)


def check_properties(name: str, dest: Path) -> set[str]:
    """Labels of the commands whose outputs, as left in ``dest`` by the last
    pass, miss the workload's paper property or cannot be parsed."""
    failed = set()

    def load(file: str):
        try:
            return json.loads((dest / file).read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None

    for command in WORKLOADS[name]:
        if command.argv[0] == "select":
            selection = load(command.outputs[0])
            if not (isinstance(selection, dict) and _finite(selection.get("alpha_hat"))):
                failed.add(command.label)
    if name == "mc-cutoff":
        report = load("bench.json")
        if not (isinstance(report, dict) and _finite(report.get("oracle_ratio"))):
            failed.add("bench")
    elif name == "mc-illposed":
        # criterion 8: the adaptive penalty is no worse than the unbiased one
        try:
            if _median_loss(dest / "bench-total.csv") > _median_loss(dest / "bench-unbiased.csv"):
                failed.add("bench-unbiased")
        except (OSError, ValueError, IndexError, statistics.StatisticsError):
            failed.add("bench-unbiased")
    else:
        decomposed = load("decompose.json")
        expected = load("expected_eigenvalues.json")
        eigenvalues = decomposed.get("eigenvalues") if isinstance(decomposed, dict) else None
        if not (isinstance(eigenvalues, list) and len(eigenvalues) == len(expected) and all(
                _finite(got) and abs(got - want) <= 1e-6 * want
                for got, want in zip(eigenvalues, expected))):
            failed.add("decompose")
    return failed


if __name__ == "__main__":
    if len(sys.argv) not in (4, 5) or sys.argv[1] not in WORKLOADS:
        sys.exit(f"usage: workloads.py {{{','.join(WORKLOADS)}}} SEED DEST [--small]")
    generate(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]), small=sys.argv[4:] == ["--small"])
