"""Digest the CLI outputs of a fixed config matrix, for byte-identity checks.

Usage: python tools/cli_digest.py SRC OUTDIR [--compare OLD_OUTPUT]

Imports ``specreg`` from the source directory SRC, writes 65 configs (and
the CSV inputs they read) under OUTDIR, and runs ``penalty-table``,
``select``, ``check`` and, where the problem has a model, ``bench`` on each
of them in-process.  For every command it prints one sha256 over the exit
code, stdout, the CLI's error lines on stderr and the output files (the
line also shows the exit code), then one overall digest over those lines.
Run it on two checkouts and compare: equal lines mean byte-identical
outputs.  The rest of stderr is left out, because numpy warnings print
source lines.

After them come the discrete lines, one per command and one overall, each
a sha256 over the fields that hold no rounded float: the exit code and the
error lines, the ``penalty-table`` row count, the grid index of the
``select`` alpha_hat (looked up in the alpha column of the same config's
``penalty-table``, so that it does not move with the last bits of an SVD
the grid is built from), the ``bench`` alpha_hat_histogram and
oracle_alpha_index, and the ``check`` verdict lines with every float
literal replaced by ``<float>``.  A change that declares moved bytes must
keep these.  Another BLAS kernel can move the byte lines, so compare them
under the same kernel, e.g. with the same ``OPENBLAS_CORETYPE`` (default,
Haswell, Sandybridge, Prescott); the discrete lines agree across these
four.

With ``--compare OLD_OUTPUT``, the saved output of an earlier run, it
prints instead one line per command that differs from that run: ``bytes
moved:`` or ``discrete moved:`` and the config and command, or ``added:``
and ``removed:`` for a command only this run or only the earlier one has.
Two runs of the same tree print nothing.

Config matrix:
  - generator k^-2 (p=60) and e^-k/2 (p=40) x cutoff/tikhonov/landweber
    x known/unknown x total/unbiased penalty (24);
  - an 80x20 design matrix x 3 families x include_orthogonal_residual
    x known/unknown (12);
  - spectral data x 3 families x penalty, plus one known-mode config (7);
  - floorless tikhonov, ill-posed landweber on e^-k (p=100), an ordered
    table family and one for each ordering violation (grid direction, not
    monotone in lambda, crossing), and a subnormal eigenvalue (7);
  - cutoff on k^-2 with p=400 (M=360), whose mu solve spans five row
    blocks, each ending in a zero tail (1);
  - cutoff on a flat spectrum (p=60, every eigenvalue 1), whose rows hold
    equal rho entries, where the start bounds of the mu solve are loosest
    (its Halley steps stay inside their bracket there) (1);
  - the ordered table family on an explicit grid that holds an alpha the
    table does not list, which pins the "is not tabulated" error (1);
  - a near-square 30x20 design matrix (below n = 11p/6, where LAPACK's SVD
    of X skips its own QR step) x 3 families, unknown mode with the
    orthogonal residual (3);
  - configuration errors that exit 1 (6): a negative seed, a fractional
    seed, a negative sigma2 in known mode, fractional and boolean
    replications, a fractional p;
  - tikhonov on k^-2 with p=200 and 400 points (M=332), whose table build
    and mu solve span three row blocks of 163, 163 and 6 rows, with no zero
    tail (1);
  - landweber on k^-2 with p=200 and 700 points (M=559), whose runs of
    bit-identical h rows cross the row-block starts 326 and 489, so the
    table's ties are found across blocks (1);
  - cutoff on k^-2 (p=60) in known mode on an explicit grid with a row
    that keeps every component (alpha = 0.01 <= 1/p) and two rows with one
    cutoff m = 11 (alphas 1/10.5 and 1/10.2), the edge rows of the prefix
    and suffix sums of cutoff tables (1).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import sys
from pathlib import Path

import numpy as np

FAMILIES = ("cutoff", "tikhonov", "landweber")
SEED = 7
REPLICATIONS = 20
_ERROR_PREFIXES = ("config error:", "numerical failure:", "error:")
_FLOAT = re.compile(r"[-+]?(?:\d+\.\d*(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+|nan|inf)")


def _grid(kind: str) -> dict:
    return {} if kind == "cutoff" else {"points": 30}


def _generator(spectrum: dict) -> dict:
    return {"generator": {"spectrum": spectrum,
                          "signal": {"kind": "polynomial", "exponent": 1.0},
                          "sigma": 0.1}}


def _mode(mode: str) -> dict:
    return {"mode": mode, "sigma2": 0.01} if mode == "known" else {"mode": mode}


def _write_csv(path: Path, array: np.ndarray) -> str:
    np.savetxt(path, np.atleast_2d(array), delimiter=",", fmt="%.17g")
    return str(path)


def _table_family(defect: str) -> dict:
    """Tikhonov rows on lambda(k) = 1/k, with one ordering violation of the
    kind ``defect`` names ("ordered" for none)."""
    lam = np.arange(1.0, 9.0) ** -1.0
    alphas = [0.05, 0.2, 0.8, 3.2]
    rows = [lam / (lam + a) for a in alphas]
    if defect == "unordered":  # the grid direction is reversed between two rows
        rows[1], rows[2] = rows[2], rows[1]
    elif defect == "nonmonotone":  # a row rises with k
        rows[1][[3, 4]] = rows[1][[4, 3]]
    elif defect == "crossing":  # a smoother row exceeds its neighbour at k = 1 only
        rows[2][0] = 0.5 * (rows[1][0] + 1.0)
    return {"kind": "table", "alphas": alphas, "h_table": [row.tolist() for row in rows]}


def build_configs(data_dir: Path) -> dict[str, dict]:
    """Name -> config; generator configs also run ``bench``."""
    base = {"gamma": 0.1, "seed": SEED, "replications": REPLICATIONS}
    configs = {}
    spectra = {
        "poly60": {"kind": "polynomial", "p": 60, "exponent": 2.0},
        "exp40": {"kind": "exponential", "p": 40, "kappa": 0.5},
    }
    for sname, spectrum in spectra.items():
        for kind in FAMILIES:
            for mode in ("known", "unknown"):
                for penalty in ("total", "unbiased"):
                    configs[f"gen-{sname}-{kind}-{mode}-{penalty}"] = dict(
                        base, problem=_generator(spectrum), family={"kind": kind},
                        grid=_grid(kind), penalty=penalty, **_mode(mode))

    rng = np.random.default_rng(2024)
    x = rng.standard_normal((80, 20)) * np.linspace(1.0, 0.05, 20)
    y = x @ (1.0 / np.arange(1.0, 21.0)) + 0.1 * rng.standard_normal(80)
    matrix = {"x": _write_csv(data_dir / "x.csv", x), "y": _write_csv(data_dir / "y.csv", y)}
    for kind in FAMILIES:
        for orth in (False, True):
            for mode in ("known", "unknown"):
                configs[f"matrix-{kind}-orth{int(orth)}-{mode}"] = dict(
                    base, problem={"matrix": matrix}, family={"kind": kind}, grid=_grid(kind),
                    include_orthogonal_residual=orth, **_mode(mode))

    k = np.arange(1.0, 31.0)
    spectral_data = {"spectral_data": {"eigenvalues": (k ** -1.5).tolist(),
                                       "y": (1.0 / k + 0.05 * np.cos(3.0 * k)).tolist()}}
    for kind in FAMILIES:
        for penalty in ("total", "unbiased"):
            configs[f"spectral-{kind}-{penalty}"] = dict(
                base, problem=spectral_data, family={"kind": kind}, grid=_grid(kind),
                penalty=penalty, mode="unknown")
    configs["spectral-cutoff-known"] = dict(
        base, problem=spectral_data, family={"kind": "cutoff"}, grid={}, **_mode("known"))

    configs["gen-poly60-tikhonov-floorless"] = dict(
        base, problem=_generator(spectra["poly60"]), family={"kind": "tikhonov"},
        grid={"points": 30, "floor": "none"}, mode="unknown")
    configs["gen-exp100-landweber-illposed"] = dict(
        base, problem=_generator({"kind": "exponential", "p": 100, "kappa": 1.0}),
        family={"kind": "landweber"}, grid={"points": 40}, mode="unknown")
    table_problem = _generator({"kind": "polynomial", "p": 8, "exponent": 1.0})
    for defect in ("ordered", "unordered", "nonmonotone", "crossing"):
        configs[f"gen-table-{defect}"] = dict(
            base, problem=table_problem, family=_table_family(defect),
            grid={"floor": "none"}, **_mode("known"))
    configs["spectral-subnormal"] = dict(
        base, problem={"spectral_data": {"eigenvalues": [1.0, 0.5, 0.25, 1e-310],
                                         "y": [1.0, 0.5, 0.2, 0.1]}},
        family={"kind": "cutoff"}, grid={"floor": "none"}, **_mode("known"))
    configs["gen-poly400-cutoff-multiblock"] = dict(
        base, problem=_generator({"kind": "polynomial", "p": 400, "exponent": 2.0}),
        family={"kind": "cutoff"}, grid={}, mode="unknown")
    configs["gen-flat60-cutoff-safeguard"] = dict(
        base, problem=_generator({"kind": "polynomial", "p": 60, "exponent": 0.0}),
        family={"kind": "cutoff"}, grid={}, mode="unknown")
    configs["gen-table-untabulated"] = dict(
        base, problem=table_problem, family=_table_family("ordered"),
        grid={"values": [0.05, 0.2, 0.5, 0.8]}, **_mode("known"))

    x = rng.standard_normal((30, 20)) * np.geomspace(1.0, 0.01, 20)
    y = x @ (1.0 / np.arange(1.0, 21.0)) + 0.1 * rng.standard_normal(30)
    square = {"x": _write_csv(data_dir / "x30.csv", x), "y": _write_csv(data_dir / "y30.csv", y)}
    for kind in FAMILIES:
        configs[f"matrix30-{kind}-orth1-unknown"] = dict(
            base, problem={"matrix": square}, family={"kind": kind}, grid=_grid(kind),
            include_orthogonal_residual=True, mode="unknown")

    bad = dict(base, problem=_generator({"kind": "polynomial", "p": 30, "exponent": 2.0}),
               family={"kind": "tikhonov"}, grid={"points": 10}, mode="unknown")
    configs["bad-seed-negative"] = dict(bad, seed=-1)
    configs["bad-seed-fraction"] = dict(bad, seed=1.9)
    configs["bad-sigma2-negative-known"] = dict(bad, mode="known", sigma2=-0.01)
    configs["bad-replications-fraction"] = dict(bad, replications=2.9)
    configs["bad-replications-bool"] = dict(bad, replications=True)
    configs["bad-p-fraction"] = dict(bad, problem=_generator(
        {"kind": "polynomial", "p": 30.7, "exponent": 2.0}))

    configs["gen-poly200-tikhonov-multiblock"] = dict(
        base, problem=_generator({"kind": "polynomial", "p": 200, "exponent": 2.0}),
        family={"kind": "tikhonov"}, grid={"points": 400}, mode="unknown")
    configs["gen-poly200-landweber-blockties"] = dict(
        base, problem=_generator({"kind": "polynomial", "p": 200, "exponent": 2.0}),
        family={"kind": "landweber"}, grid={"points": 700}, mode="unknown")
    configs["gen-poly60-cutoff-edgerows"] = dict(
        base, problem=_generator(spectra["poly60"]), family={"kind": "cutoff"},
        grid={"values": [0.01, 1 / 10.5, 1 / 10.2, 0.2, 0.5, 1.0]}, **_mode("known"))
    return configs


def _commands(config: dict) -> list[str]:
    commands = ["penalty-table", "select", "check"]
    if "generator" in config["problem"]:
        commands.append("bench")
    return commands


def _discrete(command: str, code, stdout: str, errors: list[str], alphas: list[float]) -> str:
    """sha256 over the fields of one command's output that hold no rounded
    float; ``alphas`` is the grid of the config's ``penalty-table``."""
    fields = [f"exit={code}", *errors]
    if command == "check":
        fields += [_FLOAT.sub("<float>", line) for line in stdout.splitlines()]
    elif code == 0 and command == "penalty-table":
        fields.append(f"rows={len(stdout.splitlines()) - 1}")
    elif code == 0 and command == "select":
        fields.append(f"alpha_hat_index={alphas.index(json.loads(stdout)['alpha_hat'])}")
    elif code == 0 and command == "bench":
        report = json.loads(stdout)
        fields += [f"alpha_hat_histogram={report['alpha_hat_histogram']}",
                   f"oracle_alpha_index={report['oracle_alpha_index']}"]
    return hashlib.sha256(("\n".join(fields) + "\n").encode()).hexdigest()


def _run(main, argv: list[str], files: list[Path]) -> tuple[str, int, str, list[str]]:
    """The byte digest, the exit code, stdout and the error lines of one command."""
    for path in files:
        path.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    errors = [line for line in stderr.getvalue().splitlines() if line.startswith(_ERROR_PREFIXES)]
    digest = hashlib.sha256(f"exit={code}\n".encode())
    digest.update(stdout.getvalue().encode())
    for line in errors:
        digest.update(f"{line}\n".encode())
    for path in files:
        digest.update(f"\n--- {path.name}\n".encode())
        digest.update(path.read_bytes() if path.exists() else b"<absent>")
    return digest.hexdigest(), code, stdout.getvalue(), errors


def _command_digests(output: str) -> dict[tuple[str, str, str], str]:
    """(kind, config, command) -> digest for every command line of a digest
    output, kind "bytes" or "discrete"; the overall lines are left out."""
    digests = {}
    for line in output.splitlines():
        digest, _, rest = line.partition("  ")
        fields = rest.split()
        if len(fields) >= 3 and fields[2].startswith("exit="):
            digests["discrete" if fields[-1] == "discrete" else "bytes", fields[0], fields[1]] = digest
    return digests


def compare(old: str, new: str) -> list[str]:
    """The commands whose lines differ between the digest outputs ``old`` and
    ``new``: moved byte lines, then moved discrete lines, each in run order,
    then the commands only ``new`` has and those only ``old`` has."""
    old_digests, new_digests = _command_digests(old), _command_digests(new)
    moved = [f"{kind} moved: {name} {command}"
             for (kind, name, command), digest in new_digests.items()
             if old_digests.get((kind, name, command), digest) != digest]
    added = [key[1:] for key in new_digests if key[0] == "bytes" and key not in old_digests]
    removed = [key[1:] for key in old_digests if key[0] == "bytes" and key not in new_digests]
    return (moved + [f"added: {name} {command}" for name, command in added]
            + [f"removed: {name} {command}" for name, command in removed])


def main(argv: list[str]) -> int:
    old = None
    if len(argv) == 4 and argv[2] == "--compare":
        old = Path(argv[3]).read_text(encoding="utf-8")
        argv = argv[:2]
    if len(argv) != 2:
        sys.stderr.write(__doc__.split("\n\n")[1] + "\n")
        return 1
    src, outdir = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    sys.path.insert(0, str(src))
    from specreg.cli import main as cli_main

    for sub in ("configs", "data", "out"):
        (outdir / sub).mkdir(parents=True, exist_ok=True)
    configs = build_configs(outdir / "data")
    lines, discrete = [], []
    for name, config in configs.items():
        path = outdir / "configs" / f"{name}.json"
        path.write_text(json.dumps(config, indent=1, sort_keys=True), encoding="utf-8")
        for command in _commands(config):
            argv_cmd = [command, "--config", str(path)]
            files = []
            if command == "bench":
                rep = outdir / "out" / f"{name}.reps.csv"
                argv_cmd += ["--rep-out", str(rep)]
                files.append(rep)
            digest, code, stdout, errors = _run(cli_main, argv_cmd, files)
            if command == "penalty-table":
                alphas = [float(row.split(",")[0]) for row in stdout.splitlines()[1:]]
            fields = _discrete(command, code, stdout, errors, alphas)
            lines.append(f"{digest}  {name} {command} exit={code}")
            discrete.append(f"{fields}  {name} {command} exit={code} discrete")
    output = []
    for block, label in ((lines, "overall"), (discrete, "discrete overall")):
        overall = hashlib.sha256(("\n".join(block) + "\n").encode()).hexdigest()
        output += [*block, f"{overall}  {label} ({len(block)} commands, {len(configs)} configs)"]
    report = output if old is None else compare(old, "\n".join(output))
    if report:
        print("\n".join(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
