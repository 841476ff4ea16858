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
import json
import sys
from pathlib import Path

import numpy as np

from .bench import mc_run
from .core import (
    SpectralData,
    SpectralModel,
    Spectrum,
    decompose_design,
    exponential_spectrum,
    model_from_json,
    orthogonal_residual2,
    polynomial_spectrum,
    replication_stream,
    simulate_observation,
    to_spectral,
)
from .penalty import build_penalty_table, check_conditions, verify_penalty_inequalities
from .selection import select_alpha
from .smoothers import AlphaGrid, SmootherFamily, check_ordered, default_floor_rule, default_grid

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2

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


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from None


def _load_matrix(path: str) -> np.ndarray:
    try:
        return np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"invalid CSV in {path}: {exc}") from None


def _write_text(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _write_json(obj, path: str | None) -> None:
    _write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", path)


def _require(config: dict, key: str):
    if key not in config:
        raise ConfigError(f"config is missing {key!r}")
    return config[key]


def _problem(config: dict) -> dict:
    problem = _require(config, "problem")
    sources = [k for k in ("matrix", "spectral", "spectral_data", "generator") if k in problem]
    if len(sources) != 1:
        raise ConfigError("config needs exactly one problem source among "
                          "matrix, spectral, spectral_data, generator")
    return problem


def _signal_values(signal: dict, p: int) -> np.ndarray:
    kind = signal.get("kind")
    k = np.arange(1, p + 1, dtype=float)
    if kind == "polynomial":
        return k ** -float(_cfg_get(signal, "exponent"))
    if kind == "exponential":
        return np.exp(-float(_cfg_get(signal, "rate")) * k)
    if kind == "zero":
        return np.zeros(p)
    if kind == "explicit":
        return np.asarray(_cfg_get(signal, "values"), dtype=float)
    raise ConfigError(f"unknown signal kind {kind!r}")


def _cfg_get(section: dict, key: str):
    if key not in section:
        raise ConfigError(f"config section is missing {key!r}")
    return section[key]


def _generator_model(gen: dict) -> SpectralModel:
    spec_cfg = _cfg_get(gen, "spectrum")
    kind = spec_cfg.get("kind")
    p = int(_cfg_get(spec_cfg, "p"))
    try:
        if kind == "polynomial":
            spectrum = polynomial_spectrum(p, float(_cfg_get(spec_cfg, "exponent")))
        elif kind == "exponential":
            spectrum = exponential_spectrum(p, float(_cfg_get(spec_cfg, "kappa")))
        else:
            raise ConfigError(f"unknown spectrum kind {kind!r}")
        coef = _signal_values(_cfg_get(gen, "signal"), spectrum.effective_rank)
        return SpectralModel(spectrum, coef, float(_cfg_get(gen, "sigma")))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _model(config: dict) -> SpectralModel:
    problem = _problem(config)
    if "generator" in problem:
        return _generator_model(problem["generator"])
    if "spectral" in problem:
        spec = problem["spectral"]
        if isinstance(spec, str):
            spec = _load_json(spec)
        try:
            return model_from_json(spec)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    raise ConfigError("this command needs a spectral or generator problem source")


def _spectrum(config: dict) -> Spectrum:
    problem = _problem(config)
    if "matrix" in problem:
        x = _load_matrix(_cfg_get(problem["matrix"], "x"))
        rank_tol = float(problem["matrix"].get("rank_tol", 1e-12))
        return decompose_design(x, rank_tol).spectrum
    if "spectral_data" in problem:
        try:
            return Spectrum(_cfg_get(problem["spectral_data"], "eigenvalues"))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    return _model(config).spectrum


def _family(config: dict) -> SmootherFamily:
    fam = _require(config, "family")
    kind = fam.get("kind")
    try:
        if kind == "cutoff":
            return SmootherFamily.cutoff()
        if kind == "tikhonov":
            return SmootherFamily.tikhonov()
        if kind == "landweber":
            tau = fam.get("tau")
            return SmootherFamily.landweber(None if tau is None else float(tau))
        if kind == "table":
            return SmootherFamily.from_table(_cfg_get(fam, "alphas"), _cfg_get(fam, "h_table"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    raise ConfigError(f"unknown family kind {kind!r}")


def _grid(config: dict, family: SmootherFamily, spectrum: Spectrum) -> AlphaGrid:
    grid_cfg = _require(config, "grid")
    try:
        if "values" in grid_cfg:
            return AlphaGrid(np.asarray(grid_cfg["values"], dtype=float))
        floor = grid_cfg.get("floor", "default")
        if floor not in ("default", "none"):
            raise ConfigError(f"unknown grid floor {floor!r}")
        rule = default_floor_rule if floor == "default" else None
        return default_grid(family, spectrum, points=grid_cfg.get("points"), floor_rule=rule)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _gamma(config: dict) -> float:
    gamma = float(_require(config, "gamma"))
    if not 0.0 < gamma < 0.25:
        raise ConfigError("gamma must lie in (0, 1/4)")
    return gamma


def _seed(config: dict, args) -> int:
    if args.seed is not None:
        return int(args.seed)
    if "seed" in config:
        return int(config["seed"])
    raise ConfigError("no seed given (config 'seed' or --seed)")


def _cmd_decompose(args) -> int:
    if args.matrix is not None:
        path, rank_tol = args.matrix, args.rank_tol
    else:
        config = _load_json(_required_config(args))
        problem = _problem(config)
        if "matrix" not in problem:
            raise ConfigError("decompose needs a matrix problem source")
        path = _cfg_get(problem["matrix"], "x")
        rank_tol = float(problem["matrix"].get("rank_tol", args.rank_tol))
    design = decompose_design(_load_matrix(path), rank_tol)
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
    config = _load_json(_required_config(args))
    spectrum = _spectrum(config)
    family = _family(config)
    grid = _grid(config, family, spectrum)
    table = build_penalty_table(family, grid, spectrum, _gamma(config))
    lines = [",".join(name for name, _ in _TABLE_COLUMNS)]
    for row in zip(*(getattr(table, attr) for _, attr in _TABLE_COLUMNS)):
        lines.append(",".join(_fmt(value) for value in row))
    _write_text("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _selection_inputs(config: dict, args) -> tuple[SpectralData, float, float]:
    """Data plus the optional orthogonal-residual terms for raw-matrix mode."""
    problem = _problem(config)
    if "matrix" in problem:
        x = _load_matrix(_cfg_get(problem["matrix"], "x"))
        y = _load_matrix(_cfg_get(problem["matrix"], "y")).ravel()
        design = decompose_design(x, float(problem["matrix"].get("rank_tol", 1e-12)))
        data = to_spectral(design, y)
        if config.get("include_orthogonal_residual", False):
            extra_ss, extra_dof = orthogonal_residual2(design, y)
            return data, extra_ss, float(extra_dof)
        return data, 0.0, 0.0
    if "spectral_data" in problem:
        section = problem["spectral_data"]
        try:
            data = SpectralData(Spectrum(_cfg_get(section, "eigenvalues")), _cfg_get(section, "y"))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        return data, 0.0, 0.0
    model = _model(config)
    data = simulate_observation(model, replication_stream(_seed(config, args), 0))
    return data, 0.0, 0.0


def _cmd_select(args) -> int:
    config = _load_json(_required_config(args))
    data, extra_ss, extra_dof = _selection_inputs(config, args)
    family = _family(config)
    grid = _grid(config, family, data.spectrum)
    table = build_penalty_table(family, grid, data.spectrum, _gamma(config))
    mode = config.get("mode", "unknown")
    sigma2 = config.get("sigma2")
    if mode == "known" and sigma2 is None:
        raise ConfigError("known-sigma mode needs 'sigma2' in the config")
    result = select_alpha(
        data, grid, table, mode,
        sigma2=None if sigma2 is None else float(sigma2),
        penalty=config.get("penalty", "total"),
        extra_ss=extra_ss,
        extra_dof=extra_dof,
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
    config = _load_json(_required_config(args))
    model = _model(config)
    family = _family(config)
    grid = _grid(config, family, model.spectrum)
    replications = int(_require(config, "replications"))
    if replications < 1:
        raise ConfigError("replications must be >= 1")
    report = mc_run(
        model,
        family,
        grid,
        _gamma(config),
        config.get("mode", "unknown"),
        replications,
        _seed(config, args),
        penalty=config.get("penalty", "total"),
        sigma2=None if config.get("sigma2") is None else float(config["sigma2"]),
    )
    outputs = config.get("outputs", {})
    report_path = args.out or outputs.get("report")
    _write_json(report.to_dict(), report_path)
    rep_path = args.rep_out or outputs.get("replications_csv")
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
    config = _load_json(_required_config(args))
    spectrum = _spectrum(config)
    family = _family(config)
    grid = _grid(config, family, spectrum)
    ordering = check_ordered(family, grid, spectrum)
    print(f"ordering: {'PASS' if ordering.ok else 'FAIL ' + repr(ordering.violation)}")
    if not ordering.ok:
        # penalty quantities are meaningless for a non-ordered family
        return EXIT_NUMERIC
    table = build_penalty_table(family, grid, spectrum, _gamma(config))
    conditions = check_conditions(table)
    print(f"conditions: {'PASS' if conditions.ok else 'FAIL'} (c2_hat={_fmt(conditions.c2_hat)})")
    inequalities = verify_penalty_inequalities(table)
    if inequalities.ok:
        print("penalty inequalities: PASS")
    else:
        print("penalty inequalities: FAIL")
        for line in inequalities.violations:
            print(f"  {line}")
    return EXIT_OK if ordering.ok and conditions.ok and inequalities.ok else EXIT_NUMERIC


def _required_config(args) -> str:
    if args.config is None:
        raise ConfigError("this command needs --config")
    return args.config


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
        cmd.add_argument("--out", help="output path (stdout when omitted)")
        cmd.add_argument("--seed", type=int, help="override the config seed")
        if name == "decompose":
            cmd.add_argument("--matrix", help="design matrix CSV (overrides config)")
            cmd.add_argument("--rank-tol", type=float, default=1e-12)
        if name == "bench":
            cmd.add_argument("--rep-out", help="per-replication CSV path")
        cmd.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except (ValueError, ArithmeticError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
