"""End-to-end tests of the command line interface and its exit codes."""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from specreg import (
    SmootherFamily,
    build_penalty_table,
    default_grid,
    polynomial_spectrum,
    verify_penalty_inequalities,
)
from specreg import cli
from specreg.cli import main


def run(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse-level rejections
        return exc.code


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def well_conditioned_config(**overrides):
    cfg = {
        "problem": {
            "generator": {
                "spectrum": {"kind": "polynomial", "p": 30, "exponent": 0.0},
                "signal": {"kind": "polynomial", "exponent": 1.0},
                "sigma": 0.2,
            }
        },
        "family": {"kind": "tikhonov"},
        "grid": {"points": 20},
        "gamma": 0.1,
        "mode": "unknown",
        "replications": 20,
        "seed": 11,
    }
    cfg.update(overrides)
    return cfg


def _table_family(alphas, h_table):
    return {"family": {"kind": "table", "alphas": alphas, "h_table": h_table},
            "grid": {"values": [0.1, 1.0]}}


def _spectral(eigenvalues, coefficients, sigma=0.2):
    return {"problem": {"spectral": {"eigenvalues": eigenvalues, "coefficients": coefficients,
                                     "sigma": sigma}}}


# (entry, config override with a string or boolean number in it, command)
_ARRAY_ENTRIES = [
    ("grid.values", {"grid": {"values": ["0.001", True, 2]}}, "penalty-table"),
    ("signal.values", {"problem": {"generator": {
        "spectrum": {"kind": "polynomial", "p": 30, "exponent": 0.0},
        "signal": {"kind": "explicit", "values": ["1", True, *[0.5] * 28]}, "sigma": 0.2}}},
     "bench"),
    ("family.alphas", _table_family([0.1, "1"], [[0.5] * 30, [0.4] * 30]), "penalty-table"),
    ("family.h_table", _table_family([0.1, 1.0], [[0.5] * 30, [True, *[0.4] * 29]]), "check"),
    ("spectral_data.eigenvalues", {"problem": {"spectral_data": {
        "eigenvalues": [1.0, "0.5"], "y": [0.1, 0.2]}}}, "penalty-table"),
    ("spectral_data.y", {"problem": {"spectral_data": {
        "eigenvalues": [1.0, 0.5], "y": [0.1, False]}}}, "select"),
    ("spectral.eigenvalues", _spectral([1.0, True], [1.0, 0.5]), "bench"),
    ("spectral.coefficients", _spectral([1.0, 0.5], ["1", 0.5]), "select"),
    ("spectral.sigma", _spectral([1.0, 0.5], [1.0, 0.5], "0.2"), "bench"),
]


class TestCheck:
    def test_well_conditioned_config_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, well_conditioned_config())
        assert run(["check", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "ordering: PASS" in out
        assert "conditions: PASS" in out
        assert "penalty inequalities: PASS" in out

    def test_crossing_table_family_fails(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "problem": {"spectral_data": {"eigenvalues": [1.0, 0.5], "y": [0.0, 0.0]}},
                "family": {
                    "kind": "table",
                    "alphas": [1.0, 2.0],
                    "h_table": [[0.9, 0.1], [0.5, 0.5]],
                },
                "grid": {"values": [1.0, 2.0]},
                "gamma": 0.1,
            },
        )
        assert run(["check", "--config", cfg]) == 2


    def test_failed_penalty_inequalities_are_listed(self, tmp_path, capsys):
        # k^-2 at p=50 on the cutoff grid violates the auxiliary constant-1
        # log form, which correct tables can violate: check lists each row
        cfg = well_conditioned_config(
            problem={"generator": {"spectrum": {"kind": "polynomial", "p": 50, "exponent": 2.0},
                                   "signal": {"kind": "polynomial", "exponent": 1.0}, "sigma": 0.05}},
            family={"kind": "cutoff"}, grid={"floor": "default"})
        assert run(["check", "--config", write_config(tmp_path, cfg)]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "ordering: PASS"
        assert lines[1].startswith("conditions: PASS")
        assert lines[2:4] == ["penalty inequalities: FAIL", "  noise scale below the log bound at alpha=0.025"]
        assert all(line.startswith("  ") for line in lines[3:])

    def test_at_most_50_violations_are_listed(self, tmp_path, capsys):
        # the cutoff grid on k^-2 at p=100 has 69 auxiliary log-form rows,
        # of which check prints the first 50
        cfg = well_conditioned_config(
            problem={"generator": {"spectrum": {"kind": "polynomial", "p": 100, "exponent": 2.0},
                                   "signal": {"kind": "polynomial", "exponent": 1.0}, "sigma": 0.05}},
            family={"kind": "cutoff"}, grid={"floor": "default"})
        assert run(["check", "--config", write_config(tmp_path, cfg)]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert lines[2] == "penalty inequalities: FAIL"
        spectrum, family = polynomial_spectrum(100, 2.0), SmootherFamily("cutoff")
        table = build_penalty_table(family, default_grid(family, spectrum), spectrum, 0.1)
        guaranteed, auxiliary = verify_penalty_inequalities(table)
        assert (guaranteed, len(auxiliary)) == ((), 69)
        assert lines[3:] == [f"  {v}" for v in auxiliary[:50]]

    def test_underflowing_conditions_fail_without_a_warning(self, tmp_path, capsys, recwarn):
        # h^2 underflows on both rows, so c2_hat is 0 on a table that builds;
        # the reference row's 0 / 0 log ratio once leaked a numpy warning
        cfg = write_config(tmp_path, {
            "problem": {"spectral_data": {"eigenvalues": [1.0, 1.0], "y": [0.0, 0.0]}},
            "family": {"kind": "table", "alphas": [1.0, 2.0], "h_table": [[1e-170, 1e-170], [1e-171, 1e-171]]},
            "grid": {"values": [1.0, 2.0]},
            "gamma": 0.1,
        })
        assert run(["check", "--config", cfg]) == 2
        assert capsys.readouterr() == (
            "ordering: PASS\nconditions: FAIL (c2_hat=0)\npenalty inequalities: PASS\n", "")
        assert [str(w.message) for w in recwarn] == []

    def test_out_flag_is_a_usage_error(self, tmp_path, capsys):
        # check writes no output: its --out was once accepted and ignored
        out = tmp_path / "verdict.txt"
        assert run(["check", "--config", write_config(tmp_path, well_conditioned_config()), "--out", str(out)]) == 1
        assert "usage" in capsys.readouterr().err
        assert not out.exists()


class TestDecompose:
    def test_matrix_flag(self, tmp_path):
        x = np.zeros((3, 2))
        x[0, 0] = 2.0
        x[1, 1] = 1.0
        matrix = tmp_path / "x.csv"
        np.savetxt(matrix, x, delimiter=",")
        out = tmp_path / "decomp.json"
        assert run(["decompose", "--matrix", str(matrix), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["n"] == 3
        assert payload["effective_rank"] == 2
        assert payload["eigenvalues"] == pytest.approx([4.0, 1.0])

    def test_degenerate_matrix_is_numerical_failure(self, tmp_path):
        matrix = tmp_path / "x.csv"
        np.savetxt(matrix, np.zeros((3, 2)), delimiter=",")
        assert run(["decompose", "--matrix", str(matrix)]) == 2

    def test_rank_tol_flag_overrides_config(self, tmp_path):
        # the column scales leave 4 eigenvalues within 1e-6 of the first and 7 within 1e-12
        x = np.random.default_rng(3).standard_normal((30, 10)) * np.logspace(0, -8, 10)
        matrix = tmp_path / "x.csv"
        np.savetxt(matrix, x, delimiter=",", fmt="%.17g")
        cfg = write_config(tmp_path, {"problem": {"matrix": {"x": str(matrix), "rank_tol": 1e-12}}})

        def rank(*argv):
            out = tmp_path / "decomp.json"
            assert run(["decompose", *argv, "--out", str(out)]) == 0
            return json.loads(out.read_text())["effective_rank"]

        assert rank("--config", cfg) == 7
        assert rank("--matrix", str(matrix)) == 7  # the default 1e-12
        assert rank("--matrix", str(matrix), "--rank-tol", "1e-6") == 4
        assert rank("--config", cfg, "--rank-tol", "1e-6") == 4

    @pytest.mark.parametrize("value", ["nan", "inf", "2", "-1"])
    def test_rank_tol_out_of_range_is_config_error(self, tmp_path, capsys, value):
        # these once exited 2 (effective_rank out of range), and -1 ran as 0
        matrix = tmp_path / "x.csv"
        np.savetxt(matrix, np.diag([2.0, 1.0]), delimiter=",")
        runs = [["decompose", "--matrix", str(matrix), "--rank-tol", value]]
        if value in ("2", "-1"):
            cfg = write_config(tmp_path, {"problem": {"matrix": {"x": str(matrix), "rank_tol": float(value)}}})
            runs.append(["decompose", "--config", cfg])
        for argv in runs:
            assert run(argv) == 1
            assert capsys.readouterr().err == "config error: invalid input: rank_tol must lie in [0, 1]\n"


class TestPenaltyTable:
    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, well_conditioned_config())
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert run(["penalty-table", "--config", cfg, "--out", str(first)]) == 0
        assert run(["penalty-table", "--config", cfg, "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        lines = first.read_text().splitlines()
        assert lines[0] == (
            "alpha,pen_u,pen_cv,D,mu,q_plus,pen_total,"
            "h_lambda_norm2,one_minus_h_norm2,max_h_over_lambda"
        )
        assert len(lines) >= 2


class TestPenaltyTableMatrixSource:
    def test_matrix_problem(self, tmp_path):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((20, 6))
        np.savetxt(tmp_path / "x.csv", x, delimiter=",")
        cfg = write_config(
            tmp_path,
            {
                "problem": {"matrix": {"x": str(tmp_path / "x.csv")}},
                "family": {"kind": "tikhonov"},
                "grid": {"points": 10, "floor": "none"},
                "gamma": 0.1,
            },
        )
        out = tmp_path / "table.csv"
        assert run(["penalty-table", "--config", cfg, "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 11


class TestSelect:
    def test_spectral_data_source(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "problem": {
                    "spectral_data": {
                        "eigenvalues": [1.0, 0.25, 1.0 / 9.0, 1.0 / 16.0, 0.04],
                        "y": [2.0, 1.0, 0.3, 0.1, 0.05],
                    }
                },
                "family": {"kind": "cutoff"},
                "grid": {"values": [0.25, 1.0 / 3.0, 0.5, 1.0]},
                "gamma": 0.1,
                "mode": "unknown",
            },
        )
        out = tmp_path / "sel.json"
        assert run(["select", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"alpha_hat", "sigma_hat2", "contrasts", "estimate"}
        assert len(payload["contrasts"]) == 4
        assert len(payload["estimate"]) == 5
        assert payload["sigma_hat2"] > 0.0

    def test_known_sigma_mode_reports_no_estimate(self, tmp_path):
        cfg_doc = {
            "problem": {
                "spectral_data": {
                    "eigenvalues": [1.0, 0.25, 1.0 / 9.0],
                    "y": [2.0, 1.0, 0.3],
                }
            },
            "family": {"kind": "cutoff"},
            "grid": {"values": [1.0 / 3.0, 0.5, 1.0]},
            "gamma": 0.1,
            "mode": "known",
            "sigma2": 0.04,
        }
        out = tmp_path / "sel.json"
        assert run(["select", "--config", write_config(tmp_path, cfg_doc), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["sigma_hat2"] is None

    def test_matrix_source_with_orthogonal_residual(self, tmp_path, monkeypatch):
        import specreg.core as core

        rotations = []
        rotate = core._rotate
        monkeypatch.setattr(core, "_rotate", lambda *a: rotations.append(1) or rotate(*a))
        rng = np.random.default_rng(3)
        x = rng.standard_normal((12, 4))
        y = x @ np.array([1.0, -0.5, 0.25, 0.0]) + 0.1 * rng.standard_normal(12)
        np.savetxt(tmp_path / "x.csv", x, delimiter=",")
        np.savetxt(tmp_path / "y.csv", y, delimiter=",")
        cfg = write_config(
            tmp_path,
            {
                "problem": {"matrix": {"x": str(tmp_path / "x.csv"), "y": str(tmp_path / "y.csv")}},
                "family": {"kind": "tikhonov"},
                "grid": {"points": 10, "floor": "none"},
                "gamma": 0.1,
                "mode": "unknown",
                "include_orthogonal_residual": True,
            },
        )
        out = tmp_path / "sel.json"
        assert run(["select", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["estimate"]) == 4
        assert len(rotations) == 1  # one rotation of y serves both terms

    @pytest.mark.parametrize("y, status", [
        (np.ones(11), "config error: dimension error: Y must have length n"),
        (np.ones(13), "config error: dimension error: Y must have length n"),
        (np.append(np.ones(11), np.nan), "config error: invalid input: non-finite entries"),
        # a finite y whose rotation overflows is no fault of the config
        (np.full(12, 1.5e308), "numerical failure: invalid input: non-finite observations"),
        # a y of two columns or two rows was once flattened to its 12 entries
        (np.ones((6, 2)), "config error: y must be one row or one column, not 6 x 2"),
        (np.ones((2, 6)), "config error: y must be one row or one column, not 2 x 6"),
    ])
    def test_matrix_source_with_bad_y_is_config_error(self, tmp_path, capsys, y, status):
        # a y of another length than X's 12 rows once exited 2; spectral data
        # with a y that does not fit exits 1 too
        x = np.random.default_rng(3).standard_normal((12, 4))
        np.savetxt(tmp_path / "x.csv", x, delimiter=",")
        np.savetxt(tmp_path / "y.csv", y, delimiter=",")
        cfg = write_config(tmp_path, {
            "problem": {"matrix": {"x": str(tmp_path / "x.csv"), "y": str(tmp_path / "y.csv")}},
            "family": {"kind": "tikhonov"}, "grid": {"points": 10, "floor": "none"},
            "gamma": 0.1, "mode": "unknown"})
        code = run(["select", "--config", cfg])
        assert code == (1 if status.startswith("config") else 2)
        assert capsys.readouterr().err == f"{status}\n"

    @pytest.mark.parametrize("include", [False, True])
    def test_y_whose_residual_overflows_is_one_line(self, tmp_path, capsys, recwarn, include):
        # a finite y of norm 1e160 orthogonal to the columns of X overflows the
        # residual sum of squares; numpy's overflow warning once came first
        x = np.random.default_rng(3).standard_normal((12, 4))
        np.savetxt(tmp_path / "x.csv", x, delimiter=",")
        np.savetxt(tmp_path / "y.csv", 1e160 * np.linalg.svd(x)[0][:, 5], delimiter=",")
        cfg = write_config(tmp_path, {
            "problem": {"matrix": {"x": str(tmp_path / "x.csv"), "y": str(tmp_path / "y.csv")}},
            "family": {"kind": "tikhonov"}, "grid": {"points": 10, "floor": "none"},
            "gamma": 0.1, "mode": "unknown", "include_orthogonal_residual": include})
        assert run(["select", "--config", cfg]) == 2
        assert capsys.readouterr().err == "numerical failure: invalid input: residual2 must be finite and >= 0\n"
        assert [str(w.message) for w in recwarn] == []

    def test_spectral_problem_source(self, tmp_path):
        spec_doc = {
            "eigenvalues": [1.0, 0.5, 0.25, 0.125],
            "coefficients": [1.0, 0.5, 0.25, 0.1],
            "sigma": 0.2,
        }
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(spec_doc), encoding="utf-8")
        cfg = write_config(
            tmp_path,
            {
                "problem": {"spectral": str(path)},
                "family": {"kind": "tikhonov"},
                "grid": {"points": 8, "floor": "none"},
                "gamma": 0.1,
                "mode": "unknown",
                "replications": 5,
                "seed": 2,
            },
        )
        out = tmp_path / "report.json"
        assert run(["bench", "--config", cfg, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["replications"] == 5

    def test_generator_source_uses_seed(self, tmp_path):
        cfg = write_config(tmp_path, well_conditioned_config())
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert run(["select", "--config", cfg, "--out", str(a)]) == 0
        assert run(["select", "--config", cfg, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        c = tmp_path / "c.json"
        assert run(["select", "--config", cfg, "--seed", "99", "--out", str(c)]) == 0
        assert a.read_bytes() != c.read_bytes()


class TestBench:
    def test_smoke_report_and_reps(self, tmp_path):
        cfg = write_config(
            tmp_path,
            well_conditioned_config(
                problem={
                    "generator": {
                        "spectrum": {"kind": "polynomial", "p": 30, "exponent": 2.0},
                        "signal": {"kind": "polynomial", "exponent": 1.0},
                        "sigma": 0.1,
                    }
                },
                family={"kind": "cutoff"},
                grid={"floor": "default"},
            ),
        )
        report_path = tmp_path / "report.json"
        reps_path = tmp_path / "reps.csv"
        code = run(["bench", "--config", cfg, "--out", str(report_path), "--rep-out", str(reps_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert "oracle_ratio" in report
        assert report["replications"] == 20
        lines = reps_path.read_text().splitlines()
        assert lines[0] == "rep,alpha_hat_index,loss,sigma_hat2,excess_sup"
        assert len(lines) == 21

    def test_outputs_from_config_paths(self, tmp_path):
        report_path = tmp_path / "r.json"
        reps_path = tmp_path / "r.csv"
        cfg = write_config(
            tmp_path,
            well_conditioned_config(
                outputs={"report": str(report_path), "replications_csv": str(reps_path)}
            ),
        )
        assert run(["bench", "--config", cfg]) == 0
        assert report_path.exists() and reps_path.exists()

    def test_report_keys_are_the_documented_set(self, tmp_path):
        # the keys the README lists for the bench report
        out = tmp_path / "report.json"
        assert run(["bench", "--config", write_config(tmp_path, well_conditioned_config()),
                    "--out", str(out)]) == 0
        assert set(json.loads(out.read_text())) == {
            "replications", "seed", "gamma", "mode", "penalty", "empirical_risk",
            "empirical_risk_se", "oracle_risk", "oracle_alpha_index", "oracle_ratio",
            "alpha_hat_histogram", "sigma_hat2_mean", "sigma_hat2_var", "excess_sup_mean_norm",
            "excess_sup_quantiles_norm", "d_ref", "psi"}

    def test_non_finite_psi_is_null(self, tmp_path):
        # a floorless cutoff grid keeps the floor row with h = 1, which leaves
        # psi NaN; known mode selects without a variance estimate
        cfg = well_conditioned_config(family={"kind": "cutoff"}, grid={"floor": "none"},
                                      mode="known", sigma2=0.04)
        out = tmp_path / "report.json"
        assert run(["bench", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        assert '"psi": null' in out.read_text()


class TestExitCodes:
    def test_unknown_flag_is_config_error(self, tmp_path, capsys):
        assert run(["penalty-table", "--nope"]) == 1
        assert "usage" in capsys.readouterr().err

    @pytest.mark.parametrize("command, usage", [
        ("check", "usage: specreg check [-h] [--config CONFIG]"),
        ("decompose", "usage: specreg decompose [-h] [--config CONFIG] [--out OUT]"),
    ])
    def test_unknown_flag_shows_the_command_usage(self, tmp_path, capsys, command, usage):
        cfg = write_config(tmp_path, well_conditioned_config())
        assert run([command, "--config", cfg, "--bogus", "1"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith(usage)
        assert err[-1] == "error: unrecognized arguments: --bogus 1"

    def test_unknown_flag_before_the_command_shows_the_top_level_usage(self, tmp_path, capsys):
        assert run(["--bogus", "check", "--config", write_config(tmp_path, well_conditioned_config())]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("usage: specreg [-h]")
        assert err[-1] == "error: unrecognized arguments: --bogus"

    @pytest.mark.parametrize("command", ["decompose", "penalty-table", "check"])
    def test_seed_flag_of_a_command_that_draws_nothing_is_a_usage_error(self, tmp_path, capsys, command):
        # these commands once accepted --seed and ignored it
        assert run([command, "--config", write_config(tmp_path, well_conditioned_config()), "--seed", "5"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1] == "error: unrecognized arguments: --seed 5"

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_missing_config(self):
        assert run(["penalty-table"]) == 1

    def test_two_problem_sources(self, tmp_path):
        cfg = well_conditioned_config()
        cfg["problem"]["spectral"] = {"eigenvalues": [1.0], "coefficients": [0.0], "sigma": 1.0}
        assert run(["penalty-table", "--config", write_config(tmp_path, cfg)]) == 1

    @pytest.mark.parametrize("command", ["select", "penalty-table"])
    @pytest.mark.parametrize("sigma, status", [
        (None, "invalid 'sigma': expected a number, got None"),
        ("missing", "config is missing 'sigma'"),
    ], ids=["null", "missing"])
    def test_spectral_source_without_sigma_is_config_error(self, tmp_path, capsys, command, sigma, status):
        # a null sigma once ended in a TypeError traceback out of float()
        cfg = well_conditioned_config(**_spectral([1.0, 0.5, 0.25], [1.0, 0.5, 0.25], sigma),
                                      grid={"points": 5, "floor": "none"})
        if sigma == "missing":
            del cfg["problem"]["spectral"]["sigma"]
        assert run([command, "--config", write_config(tmp_path, cfg)]) == 1
        assert capsys.readouterr().err == f"config error: {status}\n"

    def test_bad_gamma(self, tmp_path):
        cfg = well_conditioned_config(gamma=0.3)
        assert run(["penalty-table", "--config", write_config(tmp_path, cfg)]) == 1

    @pytest.mark.parametrize("override, command, key", [
        *(pytest.param(override, "bench", None, id=repr(override)) for override in (
            {"gamma": "abc"}, {"gamma": None}, {"replications": "ten"}, {"seed": "x"},
            {"family": "cutoff"}, {"grid": [1, 2]}, {"grid": {"points": "many"}},
            {"grid": {"points": 20, "floor": "bogus"}},
            {"family": {"kind": "landweber", "tau": "big"}})),
        *(pytest.param(override, command, None, id=f"{command}-{override!r}")
          for override in ({"mode": "bogus"}, {"penalty": "bogus"}) for command in ("select", "bench")),
        # array entries hold JSON numbers only, where float() would read "1"
        # and true as 1.0
        *(pytest.param(override, command, name.split(".")[-1], id=f"{command}-{name}")
          for name, override, command in _ARRAY_ENTRIES),
    ])
    def test_malformed_value_is_config_error(self, tmp_path, capsys, override, command, key):
        cfg = write_config(tmp_path, well_conditioned_config(**override))
        assert run([command, "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        if key is not None:
            assert err.startswith(f"config error: invalid {key!r}: expected a number, got ")

    def test_null_optional_values_count_as_absent(self, tmp_path, capsys):
        cfg = well_conditioned_config(family={"kind": "landweber", "tau": None}, sigma2=None)
        cfg["problem"]["generator"]["spectrum"]["exponent"] = 1.0
        assert run(["select", "--config", write_config(tmp_path, cfg)]) == 0
        assert capsys.readouterr().err == ""

    def test_degenerate_row_is_numerical_failure(self, tmp_path):
        # full cutoff grid keeps the h == 1 row: unknown-sigma selection fails
        cfg = well_conditioned_config(
            problem={
                "generator": {
                    "spectrum": {"kind": "polynomial", "p": 10, "exponent": 1.0},
                    "signal": {"kind": "zero"},
                    "sigma": 0.5,
                }
            },
            family={"kind": "cutoff"},
            grid={"floor": "none"},
        )
        assert run(["select", "--config", write_config(tmp_path, cfg)]) == 2

    def test_non_finite_values_are_numerical_failures(self, tmp_path, capsys):
        subnormal = {
            "problem": {"spectral_data": {"eigenvalues": [1.0, 0.5, 0.25, 1e-310],
                                          "y": [1.0, 0.5, 0.2, 0.1]}},
            "family": {"kind": "cutoff"},
            "grid": {"floor": "none"},
            "gamma": 0.1,
            "mode": "known",
            "sigma2": 0.01,
        }
        huge_y = dict(subnormal, problem={"spectral_data": {
            "eigenvalues": [1.0, 0.5, 0.25, 0.125], "y": [1e200, 1.0, 0.5, 0.1]}})
        for cfg, command in ((subnormal, "penalty-table"), (subnormal, "select"),
                             (huge_y, "select")):
            out = tmp_path / "out"
            argv = [command, "--config", write_config(tmp_path, cfg), "--out", str(out)]
            assert run(argv) == 2, command
            assert "numerical failure: non-finite" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("command", ["penalty-table", "select", "check", "bench"])
    @pytest.mark.parametrize("grid", [{"points": 10}, {"points": 10, "floor": "none"},
                                      {"values": [0.1, 0.5, 1.0]}], ids=["floor", "floorless", "values"])
    @pytest.mark.parametrize("family, status", [
        ({"kind": "landweber", "tau": 5.0}, "unstable step: tau * lambda(1) > 1"),
        ({"kind": "table", "alphas": [0.1, 0.5, 1.0], "h_table": [[0.5] * 29, [0.4] * 29, [0.3] * 29]},
         "dimension error: tabulated h row does not match the spectrum"),
    ], ids=["tau", "width"])
    def test_family_that_fits_no_grid_is_config_error(self, tmp_path, capsys, command, grid, family, status):
        # without the grid floor, whose walk forms h rows among the config
        # checks, these once exited 2 as numerical failures
        cfg = write_config(tmp_path, well_conditioned_config(family=family, grid=grid))
        assert run([command, "--config", cfg]) == 1
        assert capsys.readouterr() == ("", f"config error: {status}\n")

    @pytest.mark.parametrize("command", ["penalty-table", "select", "check"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_table_entry_is_config_error(self, tmp_path, capsys, command, value):
        # a NaN row once passed the ordering check (check printed
        # "ordering: PASS"), and then every command exited 2 on a non-finite pen_u
        cfg = {"problem": {"spectral_data": {"eigenvalues": [1.0, 0.5, 0.25], "y": [1.0, 0.5, 0.2]}},
               "family": {"kind": "table", "alphas": [0.5, 1.0],
                          "h_table": [[0.9, value, 0.1], [0.5, 0.3, 0.1]]},
               "grid": {"values": [0.5, 1.0]}, "gamma": 0.1, "mode": "known", "sigma2": 0.01}
        assert run([command, "--config", write_config(tmp_path, cfg)]) == 1
        assert capsys.readouterr() == ("", "config error: invalid input: table family entries must be finite\n")

    @pytest.mark.parametrize("command", ["select", "bench"])
    def test_infinite_sigma2_is_config_error(self, tmp_path, capsys, command):
        # known mode once exited 2 on a non-finite contrast
        cfg = write_config(tmp_path, well_conditioned_config(mode="known", sigma2=float("inf")))
        assert run([command, "--config", cfg]) == 1
        assert capsys.readouterr().err == "config error: invalid 'sigma2': expected a finite value, got inf\n"

    def test_deeply_nested_config_is_config_error(self, tmp_path, capsys):
        # nesting past the recursion limit, in the number check of array
        # entries (depth 500, about two frames a level) and in the JSON parser
        for depth, message in ((500, "invalid 'values'"), (100_000, "invalid JSON")):
            text = json.dumps(well_conditioned_config(grid={"values": "NEST"}))
            path = tmp_path / "config.json"
            path.write_text(text.replace('"NEST"', "[" * depth + "1" + "]" * depth), encoding="utf-8")
            assert run(["penalty-table", "--config", str(path)]) == 1
            assert capsys.readouterr().err.startswith(f"config error: {message}")

    @pytest.mark.parametrize("spectral_file", [False, True], ids=["config", "spectral-file"])
    def test_config_that_is_not_utf8_is_config_error(self, tmp_path, capsys, spectral_file):
        # the decode error once exited 2 as a numerical failure
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"gamma": \xff}')
        path = str(bad)
        if spectral_file:
            path = write_config(tmp_path, well_conditioned_config(problem={"spectral": str(bad)}))
        assert run(["penalty-table", "--config", path]) == 1
        with pytest.raises(UnicodeDecodeError) as excinfo:
            bad.read_text(encoding="utf-8")
        assert capsys.readouterr() == ("", f"config error: invalid JSON in {bad}: {excinfo.value}\n")

    @pytest.mark.parametrize("command, flag", [("penalty-table", "--out"), ("bench", "--rep-out")])
    def test_unwritable_output_path_is_config_error(self, tmp_path, capsys, command, flag):
        # once a FileNotFoundError traceback out of main
        path = tmp_path / "missing" / "out.csv"
        argv = [command, "--config", write_config(tmp_path, well_conditioned_config()), flag, str(path)]
        if command == "bench":
            argv += ["--out", str(tmp_path / "report.json")]
        assert run(argv) == 1
        with pytest.raises(OSError) as excinfo:
            path.write_text("", encoding="utf-8")
        assert capsys.readouterr() == ("", f"config error: cannot write {path}: {excinfo.value}\n")

    @pytest.mark.parametrize("flag", ["--out", "--rep-out"])
    def test_unwritable_bench_output_fails_before_the_run(self, tmp_path, capsys, monkeypatch, flag):
        # bench once ran every replication and wrote its report before it
        # found that --rep-out could not be written; the other output, which
        # exists, is neither truncated nor removed
        monkeypatch.setattr(cli, "mc_run", lambda *args, **kwargs: pytest.fail("mc_run started"))
        outputs = {"--out": tmp_path / "report.json", "--rep-out": tmp_path / "reps.csv"}
        bad, (other,) = tmp_path / "missing" / "out", [path for f, path in outputs.items() if f != flag]
        outputs[flag] = bad
        other.write_text("kept\n", encoding="utf-8")
        argv = ["bench", "--config", write_config(tmp_path, well_conditioned_config())]
        assert run(argv + [arg for f, path in outputs.items() for arg in (f, str(path))]) == 1
        with pytest.raises(OSError) as excinfo:
            bad.write_text("", encoding="utf-8")
        assert capsys.readouterr() == ("", f"config error: cannot write {bad}: {excinfo.value}\n")
        assert sorted(path.name for path in tmp_path.iterdir()) == ["config.json", other.name]
        assert other.read_text(encoding="utf-8") == "kept\n"

    @pytest.mark.parametrize("override, command", [
        *(pytest.param(override, command, id=f"{command}-{override!r}")
          for override in ({"seed": -1}, {"seed": 1.9}, {"mode": "known", "sigma2": -0.01},
                           {"sigma2": -0.01})
          for command in ("select", "bench")),
        *(pytest.param(override, "bench", id=repr(override))
          for override in ({"replications": 2.9}, {"replications": True})),
        *(pytest.param({"grid": {"points": 20.5}}, command, id=f"{command}-points")
          for command in ("penalty-table", "check")),
    ])
    def test_out_of_range_or_fractional_value_is_config_error(self, tmp_path, capsys, override, command):
        # these once exited 2 with a numerical failure, or were truncated to
        # an integer and run
        cfg = write_config(tmp_path, well_conditioned_config(**override))
        assert run([command, "--config", cfg]) == 1
        assert capsys.readouterr().err.startswith("config error:")

    def test_replications_too_many_to_allocate(self, tmp_path, capsys):
        # numpy refuses the 728 TiB of losses without allocating them; the
        # MemoryError once ended the command in a traceback
        cfg = write_config(tmp_path, well_conditioned_config(replications=10 ** 14))
        assert run(["bench", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: out of memory: ") and err.count("\n") == 1

    _REAL_KEYS = ("gamma", "sigma", "sigma2", "rank_tol", "tau", "exponent", "kappa", "rate")

    @staticmethod
    def _with_real(tmp_path, key, value):
        """well_conditioned_config with the real-valued ``key`` set to ``value``,
        in a problem or family that reads it."""
        cfg = well_conditioned_config()
        gen = cfg["problem"]["generator"]
        if key in ("gamma", "sigma2"):
            cfg[key] = value
        elif key == "sigma":
            gen["sigma"] = value
        elif key == "exponent":
            gen["spectrum"]["exponent"] = value
        elif key == "kappa":
            gen["spectrum"] = {"kind": "exponential", "p": 30, "kappa": value}
        elif key == "rate":
            gen["signal"] = {"kind": "exponential", "rate": value}
        elif key == "tau":  # tau = 1 on a flat spectrum would make every h = 1
            cfg["family"] = {"kind": "landweber", "tau": value}
            gen["spectrum"]["exponent"] = 1.0
        else:
            rng = np.random.default_rng(5)
            x = rng.standard_normal((60, 30))
            np.savetxt(tmp_path / "x.csv", x, delimiter=",")
            np.savetxt(tmp_path / "y.csv", x @ np.ones(30) + rng.standard_normal(60), delimiter=",")
            cfg["problem"] = {"matrix": {"x": str(tmp_path / "x.csv"), "y": str(tmp_path / "y.csv"),
                                         "rank_tol": value}}
        return write_config(tmp_path, cfg)

    @pytest.mark.parametrize("value", ["0.1", "1", True, False])
    @pytest.mark.parametrize("key", _REAL_KEYS)
    def test_real_value_that_is_no_json_number_is_config_error(self, tmp_path, capsys, key, value):
        # float() once read "0.1" as 0.1 and true as 1.0
        assert run(["select", "--config", self._with_real(tmp_path, key, value)]) == 1
        assert capsys.readouterr().err.startswith(f"config error: invalid {key!r}: expected a number")

    @pytest.mark.parametrize("key", [key for key in _REAL_KEYS if key != "gamma"])
    def test_real_value_accepts_json_integers(self, tmp_path, key):
        # gamma lies in (0, 1/4), which holds no integer
        outputs = []
        for value in (1, 1.0) if key != "rank_tol" else (0, 0.0):
            out = tmp_path / f"{value!r}.json"
            assert run(["select", "--config", self._with_real(tmp_path, key, value), "--out", str(out)]) == 0
            outputs.append(out.read_text())
        assert outputs[0] == outputs[1]

    def test_fractional_dimension_and_negative_seed_flag_are_config_errors(self, tmp_path, capsys):
        cfg = well_conditioned_config()
        cfg["problem"]["generator"]["spectrum"]["p"] = 30.7
        assert run(["penalty-table", "--config", write_config(tmp_path, cfg)]) == 1
        assert "config error: invalid 'p'" in capsys.readouterr().err
        cfg = write_config(tmp_path, well_conditioned_config())
        assert run(["bench", "--config", cfg, "--seed", "-3"]) == 1
        assert capsys.readouterr().err.startswith("config error: invalid 'seed': expected a value >= 0")

    def test_missing_seed_for_bench(self, tmp_path):
        cfg = well_conditioned_config()
        del cfg["seed"]
        assert run(["bench", "--config", write_config(tmp_path, cfg)]) == 1

    @staticmethod
    def _matrix_config(tmp_path, **overrides):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((100, 40))
        np.savetxt(tmp_path / "x.csv", x, delimiter=",")
        np.savetxt(tmp_path / "y.csv", x @ (1.0 / np.arange(1.0, 41.0)) + rng.standard_normal(100),
                   delimiter=",")
        return {"problem": {"matrix": {"x": str(tmp_path / "x.csv"), "y": str(tmp_path / "y.csv")}},
                "family": {"kind": "tikhonov"}, "grid": {"points": 10}, "gamma": 0.1,
                "mode": "unknown", **overrides}

    @staticmethod
    def _read_error(read, path) -> str:
        with pytest.raises((OSError, ValueError)) as excinfo:
            read(path)
        return str(excinfo.value)

    @pytest.mark.parametrize("case", [
        "config-missing", "x-missing", "x-non-numeric", "signal-kind", "spectrum-kind",
        "bench-matrix", "decompose-generator", "known-without-sigma2"])
    def test_config_fault_message(self, tmp_path, capsys, case):
        command, cfg, config_path = "penalty-table", well_conditioned_config(), None
        x = tmp_path / "x.csv"
        loadtxt = functools.partial(np.loadtxt, delimiter=",", ndmin=2, dtype=float)
        if case == "config-missing":
            config_path = tmp_path / "missing.json"
            want = f"cannot read {config_path}: {self._read_error(open, config_path)}"
        elif case in ("x-missing", "x-non-numeric"):
            command, cfg = "decompose", self._matrix_config(tmp_path)
            if case == "x-missing":
                x.unlink()
                want = f"cannot read {x}: {self._read_error(loadtxt, x)}"
            else:
                x.write_text("1.0,2.0\n3.0,abc\n", encoding="utf-8")
                want = f"invalid CSV in {x}: {self._read_error(loadtxt, x)}"
        elif case in ("signal-kind", "spectrum-kind"):
            cfg["problem"]["generator"][case.split("-")[0]]["kind"] = "bogus"
            want = f"unknown {case.split('-')[0]} kind 'bogus'"
        elif case == "bench-matrix":
            command, cfg = "bench", self._matrix_config(tmp_path)
            want = "this command needs a spectral or generator problem source"
        elif case == "decompose-generator":
            command, want = "decompose", "decompose needs a matrix problem source"
        else:
            command, cfg = "select", well_conditioned_config(mode="known")
            want = "known-sigma mode needs 'sigma2' in the config"
        assert run([command, "--config", str(config_path or write_config(tmp_path, cfg))]) == 1
        assert capsys.readouterr() == ("", f"config error: {want}\n")

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None, [False]])
    def test_orthogonal_residual_flag_must_be_boolean(self, tmp_path, capsys, value):
        # the string "false" once switched the residual on, as a truthy value
        cfg = self._matrix_config(tmp_path, include_orthogonal_residual=value)
        assert run(["select", "--config", write_config(tmp_path, cfg)]) == 1
        assert capsys.readouterr().err.startswith(
            "config error: invalid 'include_orthogonal_residual': expected true or false, got ")

    @pytest.mark.parametrize("command", ["decompose", "penalty-table", "select"])
    @pytest.mark.parametrize("fault, status", [
        ("nan", "invalid input: non-finite entries"),
        ("wide", "invalid input: need n >= p >= 1"),
    ])
    def test_bad_x_is_config_error(self, tmp_path, capsys, command, fault, status):
        # these once exited 2, where the same faults in y exit 1
        cfg = self._matrix_config(tmp_path)
        x = np.loadtxt(tmp_path / "x.csv", delimiter=",")
        if fault == "nan":
            x[3, 5] = np.nan
        np.savetxt(tmp_path / "x.csv", x if fault == "nan" else x[:30], delimiter=",")
        assert run([command, "--config", write_config(tmp_path, cfg)]) == 1
        assert capsys.readouterr().err == f"config error: {status}\n"

    @pytest.mark.parametrize("command", ["decompose", "penalty-table", "select"])
    @pytest.mark.parametrize("name, text", [("x", ""), ("x", "\n\n"), ("y", ""), ("y", "\n")],
                             ids=["x-empty", "x-blank", "y-empty", "y-blank"])
    def test_csv_without_data_is_config_error(self, tmp_path, capsys, recwarn, command, name, text):
        # an empty x once gave a numerical failure, an empty y a length
        # error, each after a numpy warning on stderr
        cfg = self._matrix_config(tmp_path)
        (tmp_path / f"{name}.csv").write_text(text, encoding="utf-8")
        code = run([command, "--config", write_config(tmp_path, cfg)])
        if name == "y" and command != "select":  # only select reads y
            assert code == 0
            return
        assert code == 1
        assert capsys.readouterr().err == f"config error: no data in {tmp_path / name}.csv\n"
        assert [str(w.message) for w in recwarn] == []

    def test_orthogonal_residual_flag_switches_the_estimate(self, tmp_path):
        s2 = {}
        for value in (False, True):
            out = tmp_path / f"{value}.json"
            cfg = self._matrix_config(tmp_path, include_orthogonal_residual=value)
            assert run(["select", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
            s2[value] = json.loads(out.read_text())["sigma_hat2"]
        assert s2[False] != s2[True]

    @pytest.mark.parametrize("section, key, value, command", [
        ("matrix", "x", 5, "select"),
        ("matrix", "x", ["1,2", "3,4"], "decompose"),  # once read as inline CSV lines
        ("matrix", "y", ["1"], "select"),
        ("outputs", "report", 5, "bench"),  # once a TypeError out of main
        ("outputs", "replications_csv", 5, "bench"),
    ])
    def test_path_that_is_no_json_string_is_config_error(self, tmp_path, capsys, section, key, value, command):
        if section == "matrix":
            cfg = self._matrix_config(tmp_path)
            cfg["problem"]["matrix"][key] = value
        else:
            cfg = well_conditioned_config(outputs={key: value})
        assert run([command, "--config", write_config(tmp_path, cfg)]) == 1
        assert capsys.readouterr().err.startswith(
            f"config error: invalid {key!r}: expected a path string, got ")

    @pytest.mark.parametrize("grid", [{"values": [0.1, 0.5, 1.0]}, {"points": 20, "floor": "none"},
                                      {"points": 20}], ids=["explicit", "floorless", "floor"])
    @pytest.mark.parametrize("tau", [0.0, -1.0, float("nan")])
    def test_landweber_tau_that_is_not_positive_is_config_error(self, tmp_path, capsys, tau, grid):
        # once a numerical failure (exit 2) on the first h rows, or with the
        # default floor a config error that NaN made "alpha floor infeasible"
        cfg = well_conditioned_config(family={"kind": "landweber", "tau": tau}, grid=grid)
        assert run(["penalty-table", "--config", write_config(tmp_path, cfg)]) == 1
        assert capsys.readouterr().err.startswith("config error: invalid input: tau must be positive")

    def test_bench_checks_its_output_paths_before_the_run(self, tmp_path, capsys, monkeypatch):
        from specreg import cli
        monkeypatch.setattr(cli, "mc_run", lambda *args, **kwargs: pytest.fail("mc_run was called"))
        for outputs in ({"report": 5}, {"replications_csv": 5}, {"report": "r.json", "bogus": 1}):
            cfg = well_conditioned_config(outputs=outputs)
            assert run(["bench", "--config", write_config(tmp_path, cfg)]) == 1
            assert capsys.readouterr().err.startswith("config error:")

    _SOURCES = {
        "matrix": {"x": "x.csv", "y": "y.csv"},
        "spectral": {"eigenvalues": [1.0, 0.5], "coefficients": [1.0, 0.5], "sigma": 0.2},
        "spectral_data": {"eigenvalues": [1.0, 0.5], "y": [1.0, 0.5]},
    }

    @pytest.mark.parametrize("path", [
        "penality", "problem.generater", "problem.generator.noise", "problem.generator.spectrum.q",
        "problem.generator.signal.scale", "family.step", "grid.point", "outputs.reports",
        "problem.matrix.z", "problem.spectral.lambda", "problem.spectral_data.x",
    ])
    @pytest.mark.parametrize("command", ["decompose", "penalty-table", "select", "bench", "check"])
    def test_unknown_config_key_is_config_error(self, tmp_path, capsys, path, command):
        # a misspelt key once fell back to its default: "penality" ran the
        # total penalty and exited 0; the check comes before any file is read
        cfg = well_conditioned_config()
        *sections, key = path.split(".")
        if sections[1:] and sections[1] in self._SOURCES:
            cfg["problem"] = {sections[1]: dict(self._SOURCES[sections[1]])}
        section = cfg
        for name in sections:
            section = section.setdefault(name, {})
        section[key] = 1.0
        assert run([command, "--config", write_config(tmp_path, cfg)]) == 1
        assert capsys.readouterr().err == f"config error: unknown config key {path!r}\n"

    def test_unknown_key_in_a_spectral_file_is_config_error(self, tmp_path, capsys):
        spectral = dict(self._SOURCES["spectral"], sigma2=0.04)
        cfg = well_conditioned_config(problem={"spectral": write_config(tmp_path, spectral, "spectral.json")})
        assert run(["select", "--config", write_config(tmp_path, cfg)]) == 1
        assert capsys.readouterr().err == "config error: unknown config key 'problem.spectral.sigma2'\n"

    _POLYNOMIAL = {"kind": "polynomial", "p": 30, "exponent": 2.0}

    @pytest.mark.parametrize("path, section, kind", [
        ("family.tau", {"family": {"kind": "cutoff", "tau": -5.0}}, "family kind 'cutoff'"),
        ("family.alphas", {"family": {"kind": "tikhonov", "alphas": "junk"}}, "family kind 'tikhonov'"),
        ("grid.points", {"grid": {"values": [0.1, 1.0], "points": "many"}}, "grid kind 'values'"),
        ("grid.floor", {"grid": {"values": [0.1, 1.0], "floor": "none"}}, "grid kind 'values'"),
        ("problem.generator.spectrum.kappa", {"problem": {"generator": {
            "spectrum": dict(_POLYNOMIAL, kappa=1.0), "signal": {"kind": "zero"}, "sigma": 0.2}}},
         "spectrum kind 'polynomial'"),
        ("problem.generator.signal.rate", {"problem": {"generator": {
            "spectrum": _POLYNOMIAL, "signal": {"kind": "polynomial", "exponent": 1.0, "rate": 1.0},
            "sigma": 0.2}}}, "signal kind 'polynomial'"),
        ("problem.generator.signal.values", {"problem": {"generator": {
            "spectrum": _POLYNOMIAL, "signal": {"kind": "zero", "values": [1.0]}, "sigma": 0.2}}},
         "signal kind 'zero'"),
    ])
    @pytest.mark.parametrize("command", ["decompose", "penalty-table", "select", "bench", "check"])
    def test_key_of_another_kind_is_config_error(self, tmp_path, capsys, path, section, kind, command):
        # such a key was once ignored: a cutoff family with tau -5 ran to exit 0
        cfg = write_config(tmp_path, well_conditioned_config(**section))
        assert run([command, "--config", cfg]) == 1
        assert capsys.readouterr().err == f"config error: config key {path!r} does not apply to {kind}\n"

    def test_unknown_kind_stays_the_readers_error(self, tmp_path, capsys):
        cfg = well_conditioned_config(family={"kind": "bogus", "tau": 1.0})
        assert run(["penalty-table", "--config", write_config(tmp_path, cfg)]) == 1
        assert capsys.readouterr().err == "config error: unknown family kind 'bogus'\n"


def _specreg(argv, stdout, unbuffered: bool) -> subprocess.Popen:
    """The CLI in a child process writing to ``stdout``, stderr piped."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(Path(__file__).resolve().parents[1] / "src"),
                                                       os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen([sys.executable, "-m", "specreg.cli", *argv], stdout=stdout,
                            stderr=subprocess.PIPE, env=env)


_BROKEN_PIPE = f"config error: cannot write stdout: {BrokenPipeError(32, os.strerror(32))}\n"


class TestClosedStdout:
    """A reader that closes stdout early, as ``specreg check ... | head -2``
    does, gets one config error line on stderr and exit 1; this once ended
    in a BrokenPipeError traceback or an "Exception ignored" line."""

    def test_reader_closes_after_two_lines(self, tmp_path):
        # the 1730-line CSV (331 kB) fills the pipe, so the writer is still
        # writing when the pipe closes.  (Unbuffered, Python drops the rest
        # of a write that the closing pipe cuts short, and exits 0.)
        cfg = write_config(tmp_path, well_conditioned_config(grid={"points": 4000}))
        child = _specreg(["penalty-table", "--config", cfg], subprocess.PIPE, unbuffered=False)
        head = [child.stdout.readline() for _ in range(2)]
        child.stdout.close()
        stderr = child.stderr.read().decode()
        assert child.wait(timeout=60) == 1
        assert head[0] == b"alpha,pen_u,pen_cv,D,mu,q_plus,pen_total,h_lambda_norm2," \
                          b"one_minus_h_norm2,max_h_over_lambda\n"
        assert stderr == _BROKEN_PIPE

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_check_into_a_closed_pipe(self, tmp_path, unbuffered):
        # unbuffered, the first line fails; buffered, the flush at the end
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            child = _specreg(["check", "--config", write_config(tmp_path, well_conditioned_config())],
                             write_end, unbuffered)
        finally:
            os.close(write_end)
        stderr = child.stderr.read().decode()
        assert child.wait(timeout=60) == 1
        assert stderr == _BROKEN_PIPE


def test_digest_is_independent_of_hash_seed(tmp_path):
    # every command of the digest's config matrix, run under two string hash
    # seeds: no output may depend on the iteration order of a set or dict
    root = Path(__file__).resolve().parents[1]
    outputs = []
    for seed in ("1", "2"):
        done = subprocess.run(
            [sys.executable, str(root / "tools" / "cli_digest.py"), str(root / "src"), str(tmp_path / seed)],
            capture_output=True, text=True, env=dict(os.environ, PYTHONHASHSEED=seed), check=True)
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1] != ""
