"""End-to-end tests of the command line interface and its exit codes."""

from __future__ import annotations

import json

import numpy as np
import pytest

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

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_missing_config(self):
        assert run(["penalty-table"]) == 1

    def test_two_problem_sources(self, tmp_path):
        cfg = well_conditioned_config()
        cfg["problem"]["spectral"] = {"eigenvalues": [1.0], "coefficients": [0.0], "sigma": 1.0}
        assert run(["penalty-table", "--config", write_config(tmp_path, cfg)]) == 1

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

    def test_deeply_nested_config_is_config_error(self, tmp_path, capsys):
        # nesting past the recursion limit, in the number check of array
        # entries (depth 500, about two frames a level) and in the JSON parser
        for depth, message in ((500, "invalid 'values'"), (100_000, "invalid JSON")):
            text = json.dumps(well_conditioned_config(grid={"values": "NEST"}))
            path = tmp_path / "config.json"
            path.write_text(text.replace('"NEST"', "[" * depth + "1" + "]" * depth), encoding="utf-8")
            assert run(["penalty-table", "--config", str(path)]) == 1
            assert capsys.readouterr().err.startswith(f"config error: {message}")

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
