"""Command line front end: config ingestion, dispatch, deterministic output.

One JSON config document describes the problem source (matrix files, a
spectral problem, or a generator), the smoother family, the grid, and the
experiment parameters.  All outputs are pure functions of (config bytes,
seed): JSON uses sorted keys and shortest round-trip floats, CSV prints 17
significant digits, so re-running a command reproduces its outputs byte for
byte.

Exit codes: 0 success, 1 configuration error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from .bench import mc_run
from .core import (
    SpectralData,
    SpectralModel,
    Spectrum,
    _check_rank_tol,
    _check_x,
    _check_y,
    decompose_design,
    exponential_spectrum,
    polynomial_spectrum,
    replication_stream,
    simulate_observation,
    to_spectral,
)
from .penalty import PenaltyTable, build_penalty_table, check_conditions, verify_penalty_inequalities
from .selection import _PENALTY_COLUMNS, select_alpha
from .smoothers import _KIND_PARAMETERS, AlphaGrid, SmootherFamily, _check_family, check_ordered, default_grid

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
_MAX_REPORTED = 50  # violation lines that check prints at most

_TABLE_COLUMNS = (
    ("alpha", "alphas"),
    ("pen_u", "pen_u"),
    ("pen_cv", "pen_cv"),
    ("D", "d"),
    ("mu", "mu"),
    ("q_plus", "q_plus"),
    ("pen_total", "pen_total"),
    ("h_lambda_norm2", "h_lambda_norm2"),
    ("one_minus_h_norm2", "one_minus_h_norm2"),
    ("max_h_over_lambda", "max_h_over_lambda"),
)


class ConfigError(Exception):
    """Anything wrong with the configuration or its referenced files."""


class _Parser(argparse.ArgumentParser):
    # the interface contract wants usage + exit 1 on bad flags, not argparse's 2
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(EXIT_CONFIG)

    def parse_known_args(self, args=None, namespace=None):
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:  # report with this parser's usage; argparse would pass a subcommand's to the top level
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return namespace, extra


def _fmt(value: float) -> str:
    return f"{value:.17g}"


# The keys each config section may hold, over all commands, by dotted path ("" the
# top).  A section whose keys depend on its kind maps each kind to its keys; a grid
# is of kind "values" when it lists them, else of kind "points".
_KEYS = {
    "": {"problem", "family", "grid", "gamma", "seed", "mode", "sigma2", "penalty",
         "replications", "include_orthogonal_residual", "outputs"},
    "problem": {"matrix", "spectral", "spectral_data", "generator"},
    "problem.matrix": {"x", "y", "rank_tol"},
    "problem.spectral": {"eigenvalues", "coefficients", "sigma"},
    "problem.spectral_data": {"eigenvalues", "y"},
    "problem.generator": {"spectrum", "signal", "sigma"},
    "problem.generator.spectrum": {"polynomial": {"kind", "p", "exponent"},
                                   "exponential": {"kind", "p", "kappa"}},
    "problem.generator.signal": {"polynomial": {"kind", "exponent"}, "exponential": {"kind", "rate"},
                                 "zero": {"kind"}, "explicit": {"kind", "values"}},
    "family": {kind: {"kind", *parameters} for kind, parameters in _KIND_PARAMETERS.items()},
    "grid": {"values": {"values"}, "points": {"points", "floor"}},
    "outputs": {"report", "replications_csv"},
}


def _check_keys(section, path: str = "") -> None:
    """Raise a ConfigError naming the first key of ``section`` (at ``path``)
    or of its sections that _KEYS does not list, or lists only for another
    kind; non-objects are left to _get and unknown kinds to the readers."""
    if path not in _KEYS or not isinstance(section, dict):
        return
    keys, kind_keys = _KEYS[path], None
    if isinstance(keys, dict):
        kind = ("values" if "values" in section else "points") if path == "grid" else section.get("kind")
        kind_keys = keys.get(kind) if isinstance(kind, str) else None
        keys = set().union(*keys.values())
    for key, value in section.items():
        name = f"{path}.{key}" if path else key
        if key not in keys:
            raise ConfigError(f"unknown config key {name!r}")
        if kind_keys is not None and key not in kind_keys:
            raise ConfigError(f"config key {name!r} does not apply to {path.rsplit('.', 1)[-1]} "
                              f"kind {kind!r}")
        _check_keys(value, name)


def _config(path: str | None, section: str = "") -> dict:
    """The JSON document at ``path``, the config section ``section``, keys checked."""
    if path is None:
        raise ConfigError("this command needs --config")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            config = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # ValueError holds JSONDecodeError and UnicodeDecodeError
        raise ConfigError(f"invalid JSON in {path}: {exc}") from None
    _check_keys(config, section)
    return config


@contextlib.contextmanager
def _config_errors():
    """Report a ValueError of the library calls in the block as a ConfigError."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _load_matrix(path: str) -> np.ndarray:
    try:
        with warnings.catch_warnings():  # a file with no data gives a warning and no matrix
            warnings.filterwarnings("error", "loadtxt: input contained no data", UserWarning)
            return np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"invalid CSV in {path}: {exc}") from None
    except UserWarning:
        raise ConfigError(f"no data in {path}") from None


def _write_text(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None


def _check_writable(path: str | None) -> None:
    """Raise the ConfigError that writing ``path`` (None: stdout) would
    raise, and leave no file behind."""
    if path is None:
        return
    existed = os.path.lexists(path)
    try:
        open(path, "a", encoding="utf-8").close()
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None
    if not existed:
        os.remove(path)


def _write_json(obj, path: str | None) -> None:
    _write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", path)


_REQUIRED = object()


def _get(section, key: str, kind=None, default=_REQUIRED):
    """``section[key]`` converted by ``kind``.  A missing key gives
    ``default`` (required keys have none), and so does null where the
    default is None; a section that is no JSON object or a value that
    ``kind`` rejects is a ConfigError."""
    if not isinstance(section, dict):
        raise ConfigError(f"expected a JSON object holding {key!r}, not {type(section).__name__}")
    value = section.get(key, default)
    if value is _REQUIRED:
        raise ConfigError(f"config is missing {key!r}")
    if kind is None or value is default:
        return value
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise ConfigError(f"invalid {key!r}: {exc}") from None


def _number(value, integer: bool = False):
    """A ``kind`` for _get that accepts JSON numbers only, as a float, where
    float() would read "0.1" and true as 1.0; with ``integer`` only JSON
    integers, where int() would truncate 2.9 to 2."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        raise ValueError(f"expected {'an integer' if integer else 'a number'}, got {value!r}")
    return value if integer else float(value)


def _numbers(value):
    """A ``kind`` for _get that accepts a JSON number or a list of them,
    nested to any depth, with every number checked by _number."""
    return [_numbers(v) for v in value] if isinstance(value, list) else _number(value)


def _at_least(low, integer: bool = False):
    """A ``kind`` for _get that accepts finite numbers >= low, checked by _number."""
    def kind(value):
        number = _number(value, integer)
        if not float(number) >= low:
            raise ValueError(f"expected a value >= {low}, got {value!r}")
        if number == np.inf:
            raise ValueError(f"expected a finite value, got {value!r}")
        return number
    return kind


def _bool(value):
    """A ``kind`` for _get that accepts JSON booleans only, where a string
    such as "false" would read as true."""
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


def _path(value):
    """A ``kind`` for _get that accepts JSON strings only, the file paths,
    where Path() would raise TypeError on a number and np.loadtxt would read
    a list of strings as CSV lines."""
    if not isinstance(value, str):
        raise ValueError(f"expected a path string, got {value!r}")
    return value


def _choice(*allowed: str):
    """A ``kind`` for _get that accepts only the given strings."""
    def kind(value):
        if value not in allowed:
            raise ValueError(f"expected one of {', '.join(map(repr, allowed))}, got {value!r}")
        return value
    return kind


_MODE, _PENALTY = _choice("known", "unknown"), _choice(*_PENALTY_COLUMNS)


def _problem(config: dict) -> tuple[str, dict]:
    """The one problem source: its name and its section."""
    problem = _get(config, "problem")
    sources = [k for k in ("matrix", "spectral", "spectral_data", "generator")
               if _get(problem, k, default=None) is not None]
    if len(sources) != 1:
        raise ConfigError("config needs exactly one problem source among "
                          "matrix, spectral, spectral_data, generator")
    return sources[0], problem[sources[0]]


def _design(matrix: dict, rank_tol: float | None = None):
    # a given rank_tol (the --rank-tol flag) overrides the config's
    if rank_tol is None:
        rank_tol = _get(matrix, "rank_tol", _number, 1e-12)
    with _config_errors():
        rank_tol = _check_rank_tol(rank_tol)
    return decompose_design(_load_x(_get(matrix, "x", _path)), rank_tol)


def _load_x(path: str) -> np.ndarray:
    """The design matrix at ``path``, a bad shape or entry a ConfigError.
    Apart from _design, so that X reaches decompose_design as a temporary."""
    x = _load_matrix(path)
    with _config_errors():
        return _check_x(x)


def _signal_values(signal: dict, p: int) -> np.ndarray:
    kind = _get(signal, "kind", default=None)
    k = np.arange(1, p + 1, dtype=float)
    if kind == "polynomial":
        return k ** -_get(signal, "exponent", _number)
    if kind == "exponential":
        return np.exp(-_get(signal, "rate", _number) * k)
    if kind == "zero":
        return np.zeros(p)
    if kind == "explicit":
        return np.asarray(_get(signal, "values", _numbers), dtype=float)
    raise ConfigError(f"unknown signal kind {kind!r}")


def _generator_model(gen: dict) -> SpectralModel:
    spec_cfg = _get(gen, "spectrum")
    kind = _get(spec_cfg, "kind", default=None)
    p = _get(spec_cfg, "p", _at_least(1, integer=True))
    with _config_errors():
        if kind == "polynomial":
            spectrum = polynomial_spectrum(p, _get(spec_cfg, "exponent", _number))
        elif kind == "exponential":
            spectrum = exponential_spectrum(p, _get(spec_cfg, "kappa", _number))
        else:
            raise ConfigError(f"unknown spectrum kind {kind!r}")
        coef = _signal_values(_get(gen, "signal"), spectrum.effective_rank)
        return SpectralModel(spectrum, coef, _get(gen, "sigma", _number))


def _model(config: dict) -> SpectralModel:
    source, section = _problem(config)
    if source == "generator":
        return _generator_model(section)
    if source == "spectral":
        section = _config(section, "problem.spectral") if isinstance(section, str) else section
        eigenvalues, coefficients, sigma = (_get(section, key, kind) for key, kind in (
            ("eigenvalues", _numbers), ("coefficients", _numbers), ("sigma", _number)))
        with _config_errors():
            return SpectralModel(Spectrum(eigenvalues), coefficients, sigma)
    raise ConfigError("this command needs a spectral or generator problem source")


def _spectrum(config: dict) -> Spectrum:
    source, section = _problem(config)
    if source == "matrix":
        return _design(section).spectrum
    if source == "spectral_data":
        with _config_errors():
            return Spectrum(_get(section, "eigenvalues", _numbers))
    return _model(config).spectrum


def _family(config: dict) -> SmootherFamily:
    fam = _get(config, "family")
    kind = _get(fam, "kind", default=None)
    if not (isinstance(kind, str) and kind in _KIND_PARAMETERS):
        raise ConfigError(f"unknown family kind {kind!r}")
    with _config_errors():
        if kind == "table":
            return SmootherFamily(kind, alphas=_get(fam, "alphas", _numbers),
                                  h_table=_get(fam, "h_table", _numbers))
        return SmootherFamily(kind, tau=_get(fam, "tau", _number, None))


def _grid(config: dict, family: SmootherFamily, spectrum: Spectrum) -> AlphaGrid:
    grid_cfg = _get(config, "grid")
    floor = _get(grid_cfg, "floor", _choice("default", "none"), "default")
    with _config_errors():
        _check_family(family, spectrum)  # a fault of any grid, before any h row is formed
        if "values" in grid_cfg:
            return AlphaGrid(_get(grid_cfg, "values", _numbers))
        points = _get(grid_cfg, "points", _at_least(2, integer=True), None)
        return default_grid(family, spectrum, points=points, floor=floor == "default")


def _gamma(config: dict) -> float:
    gamma = _get(config, "gamma", _number)
    if not 0.0 < gamma < 0.25:
        raise ConfigError("gamma must lie in (0, 1/4)")
    return gamma


def _table(config: dict, spectrum: Spectrum) -> PenaltyTable:
    """The penalty table of the config's family, grid and gamma on the spectrum."""
    family = _family(config)
    return build_penalty_table(family, _grid(config, family, spectrum), spectrum, _gamma(config))


def _seed(config: dict, args) -> int:
    # the --seed flag overrides the config
    seed = _get(config if args.seed is None else vars(args), "seed", _at_least(0, integer=True), None)
    if seed is None:
        raise ConfigError("no seed given (config 'seed' or --seed)")
    return seed


def _cmd_decompose(args) -> int:
    matrix = {"x": args.matrix}
    if args.matrix is None:
        source, matrix = _problem(_config(args.config))
        if source != "matrix":
            raise ConfigError("decompose needs a matrix problem source")
    design = _design(matrix, args.rank_tol)
    _write_json(
        {
            "eigenvalues": [float(v) for v in design.spectrum.eigenvalues],
            "effective_rank": design.spectrum.effective_rank,
            "n": design.n,
        },
        args.out,
    )
    return EXIT_OK


def _cmd_penalty_table(args) -> int:
    config = _config(args.config)
    table = _table(config, _spectrum(config))
    lines = [",".join(name for name, _ in _TABLE_COLUMNS)]
    for row in zip(*(getattr(table, attr) for _, attr in _TABLE_COLUMNS)):
        lines.append(",".join(_fmt(value) for value in row))
    _write_text("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _selection_inputs(config: dict, args) -> SpectralData:
    """The observation; a raw-matrix one keeps its orthogonal residual only
    with include_orthogonal_residual."""
    source, section = _problem(config)
    if source == "matrix":
        design = _design(section)
        y = _load_matrix(_get(section, "y", _path))
        if 1 not in y.shape:
            raise ConfigError(f"y must be one row or one column, not {y.shape[0]} x {y.shape[1]}")
        with _config_errors():  # y of another length than X's rows, or not finite
            y = _check_y(design, y.ravel())
        data = to_spectral(design, y)
        if _get(config, "include_orthogonal_residual", _bool, False):
            return data
        return SpectralData(data.spectrum, data.y)
    if source == "spectral_data":
        with _config_errors():
            return SpectralData(Spectrum(_get(section, "eigenvalues", _numbers)), _get(section, "y", _numbers))
    return simulate_observation(_model(config), replication_stream(_seed(config, args), 0))


def _cmd_select(args) -> int:
    config = _config(args.config)
    data = _selection_inputs(config, args)
    table = _table(config, data.spectrum)
    mode = _get(config, "mode", _MODE, "unknown")
    sigma2 = _get(config, "sigma2", _at_least(0.0), None)
    if mode == "known" and sigma2 is None:
        raise ConfigError("known-sigma mode needs 'sigma2' in the config")
    result = select_alpha(
        data, table, mode,
        sigma2=sigma2,
        penalty=_get(config, "penalty", _PENALTY, "total"),
    )
    _write_json(
        {
            "alpha_hat": result.alpha_hat,
            "sigma_hat2": result.sigma_hat2,
            "contrasts": [float(v) for v in result.contrasts],
            "estimate": [float(v) for v in result.estimate],
        },
        args.out,
    )
    return EXIT_OK


def _cmd_bench(args) -> int:
    config = _config(args.config)
    outputs = _get(config, "outputs", default={})
    report_path = args.out or _get(outputs, "report", _path, None)
    rep_path = args.rep_out or _get(outputs, "replications_csv", _path, None)
    for path in (report_path, rep_path):  # before the run, which writes them at its end
        _check_writable(path)
    model = _model(config)
    table = _table(config, model.spectrum)
    report = mc_run(
        model,
        table,
        _get(config, "mode", _MODE, "unknown"),
        _get(config, "replications", _at_least(1, integer=True)),
        _seed(config, args),
        penalty=_get(config, "penalty", _PENALTY, "total"),
        sigma2=_get(config, "sigma2", _at_least(0.0), None),
    )
    _write_json(report.to_dict(), report_path)
    if rep_path is not None:
        lines = ["rep,alpha_hat_index,loss,sigma_hat2,excess_sup"]
        for i in range(report.replications):
            lines.append(
                f"{i},{report.alpha_hat_indices[i]},{_fmt(report.losses[i])},"
                f"{_fmt(report.sigma_hat2s[i])},{_fmt(report.excess_sups[i])}"
            )
        _write_text("\n".join(lines) + "\n", rep_path)
    return EXIT_OK


def _cmd_check(args) -> int:
    config = _config(args.config)
    spectrum = _spectrum(config)
    family = _family(config)
    grid = _grid(config, family, spectrum)
    # penalty quantities are meaningless for a family that is not ordered
    violation = check_ordered(family, grid, spectrum)
    print(f"ordering: {'PASS' if violation is None else 'FAIL ' + repr(violation)}")
    if violation is not None:
        return EXIT_NUMERIC
    table = build_penalty_table(family, grid, spectrum, _gamma(config))
    c2_hat = check_conditions(table)
    print(f"conditions: {'PASS' if c2_hat > 0.0 else 'FAIL'} (c2_hat={_fmt(c2_hat)})")
    guaranteed, auxiliary = verify_penalty_inequalities(table)
    violations = guaranteed + auxiliary
    print(f"penalty inequalities: {'FAIL' if violations else 'PASS'}")
    for line in violations[:_MAX_REPORTED]:
        print(f"  {line}")
    return EXIT_OK if c2_hat > 0.0 and not violations else EXIT_NUMERIC


def _build_parser() -> _Parser:
    parser = _Parser(prog="specreg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "decompose": _cmd_decompose,
        "penalty-table": _cmd_penalty_table,
        "select": _cmd_select,
        "bench": _cmd_bench,
        "check": _cmd_check,
    }
    for name, handler in handlers.items():
        cmd = sub.add_parser(name, help=f"run the {name} pipeline")
        cmd.add_argument("--config", help="JSON configuration file")
        if name != "check":  # check prints its verdict and writes no output
            cmd.add_argument("--out", help="output path (stdout when omitted)")
        if name in ("select", "bench"):  # the commands that draw from the seed
            cmd.add_argument("--seed", type=int, help="override the config seed")
        if name == "decompose":
            cmd.add_argument("--matrix", help="design matrix CSV (overrides config)")
            cmd.add_argument("--rank-tol", type=float, help="relative eigenvalue cut (overrides config)")
        if name == "bench":
            cmd.add_argument("--rep-out", help="per-replication CSV path")
        cmd.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a reader that closed stdout shows here, not at interpreter exit
        return code
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except BrokenPipeError as exc:
        # the interpreter's exit flush of what is left then goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.stderr.write(f"config error: cannot write stdout: {exc}\n")
        return EXIT_CONFIG
    except MemoryError as exc:  # a size in the config too large to allocate
        sys.stderr.write(f"config error: out of memory: {exc}\n")
        return EXIT_CONFIG
    except (ValueError, ArithmeticError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
