"""specreg benchmark: runs one workload through ``specreg.cli.main``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
``src/``).  Inputs are generated from the seed in a child process, outside
the timed region, into ``perfbench/.work/``.  Then passes (every command
of the workload, in order, in this process) repeat for about
``--seconds``: no pass starts that would, at the mean pass time, end
later.  The first pass warms up and is not timed.  Each metric is the
median over the timed passes.  The runner uses one BLAS thread and keeps
freed memory in the process (``pin_allocator``), and records both.

Every command's exit code, stdout and output files go into a sha256 digest
that must be identical across the passes of a run, and each workload checks
one paper property of its outputs; a command that misses either counts as
failed.  With ``--trace 0`` the end-to-end metrics named in BENCHMARK.json
are reported; with ``--trace 1`` untraced and traced passes alternate and
the per-layer metrics come from the traced ones (see ``layertrace.py``).  The
last line of stdout is the JSON result; the lines before it give the
environment, the digest and the metrics in readable form, and the full
record is written to ``perfbench/.work/<workload>.result.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, check_properties  # noqa: E402

# One BLAS thread (at most nproc on any machine): runs on a shared
# two-core box are steadier, and every measurement states the setting.
BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# glibc mallopt parameter numbers (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_MAX = -4
# Fresh-interpreter imports timed for setup_s after each timed pass; the
# median over the run is reported.  Spread over the run like the passes,
# they see the same mix of fast and slow spells of a shared host.
SETUP_IMPORTS_PER_PASS = 2
# Child processes (input generation, import timing) are killed after this.
CHILD_TIMEOUT_S = 120


def pin_threads() -> None:
    """Set the BLAS thread count; must run before numpy is imported."""
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def pin_allocator() -> str:
    """Keep freed memory in the process, so that the passes after the first
    reuse it; returns the setting, for the record.

    With glibc's defaults each large numpy temporary is mapped on allocation
    and unmapped on free, so a pass of mc-cutoff takes 0.1-0.5 million page
    faults.  On a shared two-vCPU virtual machine their cost swung with the
    host's load: the same pass took 5 to 10 s, up to a third of it system
    time.  With mmap and heap trimming off, the warm-up pass faults the heap
    in and the timed passes after it take almost none, so they time the
    program's own work; the cost of first-touch faults is left out of them.
    """
    if platform.libc_ver()[0] != "glibc":
        return "default"
    libc = ctypes.CDLL(None)
    if libc.mallopt(_M_MMAP_MAX, 0) and libc.mallopt(_M_TRIM_THRESHOLD, -1):
        return "glibc mallopt: M_MMAP_MAX=0, M_TRIM_THRESHOLD=-1"
    return "default"


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "cpu": cpu,
    }


def _io_counters() -> tuple[int, int, int] | None:
    """(rchar, wchar, bytes this read itself adds to rchar), or None."""
    try:
        with open("/proc/self/io", "rb", buffering=0) as handle:
            text = handle.read()
    except OSError:
        return None
    fields = dict(line.split(b": ") for line in text.splitlines())
    return int(fields[b"rchar"]), int(fields[b"wchar"]), len(text)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def timed_import() -> float:
    """Wall time for a fresh interpreter to ``import specreg``."""
    start = time.perf_counter()
    # with pipes the wait ends when the child closes them; a bare wait with
    # a timeout polls in steps of up to 50 ms
    subprocess.run([sys.executable, "-c", "import specreg"], env=_child_env(), cwd=ROOT,
                   check=True, capture_output=True, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - start


class Pass:
    """Outcome of one pass: per-command times, digests and failures."""

    def __init__(self):
        self.times: dict[str, float] = {}
        self.digests: dict[str, str] = {}
        self.failed: set[str] = set()
        self.bytes_in = 0
        self.bytes_out = 0
        self.io_ok = True

    @property
    def wall_s(self) -> float:
        return sum(self.times.values())

    @property
    def digest(self) -> str:
        return hashlib.sha256("".join(self.digests.values()).encode()).hexdigest()


def run_pass(name: str, workdir: Path, count_io: bool = False) -> Pass:
    """Run every command of the workload once, then check the outputs."""
    from specreg.cli import main  # looked up per pass: a traced pass gets the wrapper

    result = Pass()
    for command in WORKLOADS[name]:
        out, err = io.StringIO(), io.StringIO()
        before = _io_counters() if count_io else None
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = main(list(command.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed command, reported, not fatal
            code = None
            err.write(traceback.format_exc())
        result.times[command.label] = time.perf_counter() - start
        after = _io_counters() if count_io else None
        stdout = out.getvalue().encode()
        if before is not None and after is not None:
            result.bytes_in += after[0] - before[0] - before[2]
            result.bytes_out += after[1] - before[1] + len(stdout)
        else:
            result.io_ok = False
        if code != command.expect_exit:
            result.failed.add(command.label)
            sys.stderr.write(f"{command.label}: exit {code}, expected {command.expect_exit}\n"
                             f"{err.getvalue()}")
        digest = hashlib.sha256(f"{command.label}\0{code}\0".encode() + stdout)
        for output in command.outputs:
            path = workdir / output
            digest.update(f"\0{output}\0".encode())
            digest.update(path.read_bytes() if path.is_file() else b"<missing>")
        result.digests[command.label] = digest.hexdigest()
    result.failed |= check_properties(name, workdir)
    return result


def _median_low(values):
    """Median that is always one of the samples, so counts stay whole."""
    values = [v for v in values if v is not None]
    return statistics.median_low(values) if values else None


def _layer_value(name: str, tracer) -> float | int | None:
    if name in tracer.counts:
        return tracer.counts[name]
    base, _, kind = name.rpartition(".")
    if kind == "self_s":
        return tracer.self_s.get(base)
    if kind == "calls":
        return tracer.calls.get(base)
    return None


def execute(name: str, seed: int, seconds: float, trace: bool, spec: dict,
            small: bool = False) -> dict:
    """Generate inputs, run the passes and compute the metrics of one run."""
    workdir = WORK / (f"{name}-small" if small else name)
    shutil.rmtree(workdir, ignore_errors=True)
    generate = [sys.executable, str(HERE / "workloads.py"), name, str(seed), str(workdir)]
    subprocess.run(generate + (["--small"] if small else []), env=_child_env(), check=True,
                   timeout=CHILD_TIMEOUT_S)
    setup_samples: list[float] = []
    if not trace:
        timed_import()  # the first import may compile bytecode

    import specreg.cli  # noqa: F401  (imported before any pass is timed)

    passes: list[tuple[Pass, bool]] = []  # (pass, traced)
    samples: list[dict] = []
    tracer = None
    if trace:
        from layertrace import Tracer

        tracer = Tracer()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        start = time.perf_counter()
        # the first pass faults in the heap and fills caches: it is checked
        # and gives the reference digest, but is not timed
        gc.collect()
        warmup = run_pass(name, workdir)
        while True:
            gc.collect()
            passes.append((run_pass(name, workdir), False))
            if not trace:
                setup_samples += [timed_import() for _ in range(SETUP_IMPORTS_PER_PASS)]
            else:
                gc.collect()
                tracer.reset()
                tracer.start()
                try:
                    traced = run_pass(name, workdir, count_io=True)
                finally:
                    tracer.stop()
                passes.append((traced, True))
                sample = {m["name"]: _layer_value(m["name"], tracer) for m in spec["per_layer"]}
                sample["cli.bytes_in"] = traced.bytes_in if traced.io_ok else None
                sample["cli.bytes_out"] = traced.bytes_out if traced.io_ok else None
                samples.append(sample)
            # stop when one more round, at the mean round time, would overrun
            rounds = len(passes) // (2 if trace else 1)
            elapsed = time.perf_counter() - start
            if elapsed * (rounds + 1) / rounds > seconds:
                break
    finally:
        os.chdir(cwd)

    reference = warmup.digests
    attempted = failed = 0
    for result in [warmup] + [result for result, _ in passes]:
        result.failed |= {label for label, d in result.digests.items() if d != reference[label]}
        attempted += len(result.digests)
        failed += len(result.failed)
    measured = [result for result, traced in passes if not traced]
    wall_s = statistics.median(r.wall_s for r in measured)

    if trace:
        traced_wall = statistics.median(r.wall_s for r, traced in passes if traced)
        values = {m["name"]: _median_low(s[m["name"]] for s in samples) for m in spec["per_layer"]}
        values["trace_overhead_s"] = traced_wall - wall_s
        metrics = spec["per_layer"]
    else:
        values = {
            "wall_s": wall_s,
            "select_s": statistics.median(r.times[c.label] for r in measured
                                          for c in WORKLOADS[name] if c.argv[0] == "select"),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = spec["end_to_end"]
    extra = {"failed_frac": failed / attempted}
    bench_labels = [c.label for c in WORKLOADS[name] if c.argv[0] == "bench"]
    if bench_labels and not trace:
        reps = sum(json.loads((workdir / f"{label}.json").read_text())["replications"]
                   for label in bench_labels)
        extra["reps_per_s"] = statistics.median(
            reps / sum(r.times[label] for label in bench_labels) for r in measured)
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "environment": environment(),
        "digest": warmup.digest,
        "passes": [{"warmup": r is warmup, "traced": traced, "times_s": r.times,
                    "failed": sorted(r.failed)} for r, traced in [(warmup, False)] + passes],
        "extra": extra,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]}
                        for m in metrics},
        },
    }


def report(record: dict) -> None:
    """Print the readable summary and, as the last line, the JSON result."""
    result = record["result"]
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{len(record['passes'])} passes")
    print("environment: " + json.dumps(record["environment"], sort_keys=True))
    print(f"output digest: {record['digest']}")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']} {metric['unit']}")
    print(f"  failed_frac = {record['extra']['failed_frac']} "
          f"({result['failed']} of {result['attempted']} commands)")
    if "reps_per_s" in record["extra"]:
        print(f"  reps_per_s = {record['extra']['reps_per_s']} 1/s")
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "specreg" / "__init__.py").is_file():
        sys.stderr.write(f"specreg sources not found under {SRC}\n")
        return 2
    pin_threads()
    allocator = pin_allocator()
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    record = execute(args.workload, args.seed, args.seconds, bool(args.trace), spec)
    record["environment"]["allocator"] = allocator
    WORK.mkdir(exist_ok=True)
    (WORK / f"{args.workload}.result.json").write_text(json.dumps(record, indent=2) + "\n")
    report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
