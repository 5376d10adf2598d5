"""End-to-end checks of the command-line interface.

Most cases call ``main`` in process and assert on exit codes and written
files; one test runs the installed console script in a subprocess to cover
the packaging entry point.
"""

import ast
import csv
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vofde
import vofde.cli
from vofde.cli import main
from vofde.reference import SCENARIO_NAMES, scenario


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestList:
    def test_prints_every_scenario(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIO_NAMES:
            assert name in out


class TestScenarioTrace:
    def test_trace_shape_and_header(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = main(["scenario", "--name", "ex4", "--h", "1e-3", "--out", str(out)])
        assert code == 0
        rows = read_rows(out)
        assert rows[0] == ["t", "u", "udot", "uddot", "alpha"]
        assert len(rows) == 1 + 1001
        assert float(rows[1][0]) == 0.0
        assert float(rows[-1][0]) == pytest.approx(1.0)
        # manufactured solution u = t^2
        assert float(rows[-1][1]) == pytest.approx(1.0, abs=5e-3)

    def test_trace_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["scenario", "--name", "ex2i", "--h", "1e-2", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("config", [False, True])
    def test_step_longer_than_horizon_is_usage_error(self, tmp_path, capsys, config):
        # one step of 0.5 on a horizon of 0.1 would end the trace at t = 0.5
        out = tmp_path / "trace.csv"
        if config:
            body = {"scenario": "ex4", "h": 0.5, "T": 0.1, "out_path": str(out)}
            path = tmp_path / "run.json"
            path.write_text(json.dumps(body))
            code = main(["run", "--config", str(path)])
        else:
            code = main(["scenario", "--name", "ex4", "--h", "0.5", "--T", "0.1", "--out", str(out)])
        assert code == 2
        assert "error: h = 0.5 exceeds the horizon" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("h", ["1e-300", "1e-13", "5e-324"])
    def test_grid_too_large_is_usage_error(self, tmp_path, capsys, h):
        # N = T / h would be 1e300, 1e13 or not finite: refused before any allocation
        out = tmp_path / "tiny.csv"
        assert main(["scenario", "--name", "ex4", "--h", h, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: h = {h}: ") and err.count("\n") == 1
        assert "physical memory" in err
        assert not out.exists()

    def test_step_equal_to_horizon_runs(self, tmp_path):
        out = tmp_path / "trace.csv"
        assert main(["scenario", "--name", "ex4", "--h", "0.1", "--T", "0.1", "--out", str(out)]) == 0
        assert [float(r[0]) for r in read_rows(out)[1:]] == [0.0, 0.1]

    @pytest.mark.parametrize(
        "name", [n for n in SCENARIO_NAMES if scenario(n, h=1.0).problem is not None]
    )
    def test_trace_read_back_is_on_the_grid(self, tmp_path, name):
        # discrete_residuals refuses a trace off the grid, so a trace read
        # back from its CSV is re-verified only if its times are the grid's
        h = scenario(name, h=1.0).grid.T / 500
        out = tmp_path / "trace.csv"
        assert main(["scenario", "--name", name, "--h", repr(h), "--out", str(out)]) == 0
        times = np.loadtxt(out, delimiter=",", skiprows=1)[:, 0]
        np.testing.assert_array_equal(times, scenario(name, h).grid.times())

    def test_derivative_benchmark_has_no_trace(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = main(["scenario", "--name", "ex1i", "--h", "1e-2", "--out", str(out)])
        assert code == 2
        assert not out.exists()


class TestStability:
    def test_linear_scenario_report(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = main(
            ["scenario", "--name", "ex2iii_d", "--h", "1e-2", "--stability", "--out", str(out)]
        )
        assert code == 0
        rows = read_rows(out)
        assert rows[0] == ["t", "u", "udot", "uddot", "alpha", "rho"]
        assert rows[1][5] == "nan"  # no step reaches node 0
        assert all(float(r[5]) <= 1.0 + 1e-12 for r in rows[2:])
        head = out.read_text().splitlines()[:2]
        assert head == ["t,u,udot,uddot,alpha,rho", "0,1,10,-25,0,nan"]
        report = json.loads((tmp_path / "trace.csv.stability.json").read_text())
        assert set(report) == {"max_rho", "satisfied", "tol", "trace_conditional", "rho"}
        assert report["tol"] == 1e-12
        assert report["satisfied"] is True
        assert report["trace_conditional"] is False
        assert report["max_rho"] <= 1.0 + 1e-12
        assert len(report["rho"]) == len(rows) - 2
        # the verdict tolerance is a constant, not a configuration key
        other = tmp_path / "tol.csv"
        config = tmp_path / "run.json"
        config.write_text(json.dumps(
            {"scenario": "ex2iii_d", "h": 1e-2, "outputs": ["trace", "stability"],
             "out_path": str(other), "stability_tol": 1e-6}
        ))
        capsys.readouterr()
        assert main(["run", "--config", str(config)]) == 2
        assert "unknown keys ['stability_tol']" in capsys.readouterr().err
        assert list(tmp_path.glob("tol.csv*")) == []

    def test_state_dependent_order_is_conditional(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = main(
            ["scenario", "--name", "ex3iii", "--h", "1e-2", "--stability", "--out", str(out)]
        )
        assert code == 4
        assert "along the solved trajectory" in capsys.readouterr().err
        report = json.loads((tmp_path / "trace.csv.stability.json").read_text())
        assert report["trace_conditional"] is True


class TestConvergence:
    def test_error_ratios(self, tmp_path):
        out = tmp_path / "conv.csv"
        code = main(
            ["scenario", "--name", "ex1ii", "--h", "4e-3",
             "--convergence", "0.004,0.002,0.001", "--out", str(out)]
        )
        assert code == 0
        rows = read_rows(out)
        assert rows[0] == ["h", "N", "max_abs_error", "ratio"]
        assert len(rows) == 4
        errs = [float(r[2]) for r in rows[1:]]
        assert errs[0] > errs[1] > errs[2]
        assert rows[1][3] == "nan"
        assert float(rows[2][3]) > 1.5

    def test_step_longer_than_horizon_is_usage_error(self, tmp_path, capsys):
        # ex1ii runs to T = 1: a step of 5 would measure its error at t = 5
        out = tmp_path / "conv.csv"
        code = main(
            ["scenario", "--name", "ex1ii", "--h", "0.01",
             "--convergence", "0.01,0.02,5", "--out", str(out)]
        )
        assert code == 2
        assert "convergence_steps[2]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "steps,T,bad", [([0.01, 5.0], None, 1), ([0.01, 5.0], 2.0, 1), ([1e-300, 0.01], None, 0)]
    )
    def test_study_checks_its_steps_against_the_horizon(self, steps, T, bad):
        # called from Python, without parse_config: ex1ii runs to T = 1 by default
        with pytest.raises(vofde.cli.ConfigError, match=rf"convergence_steps\[{bad}\] = "):
            vofde.cli.convergence_study("ex1ii", steps, T)

    def test_study_reports_a_bad_horizon_under_its_key(self):
        with pytest.raises(vofde.cli.ConfigError) as err:
            vofde.cli.convergence_study("ex1ii", [0.01, 0.005], T=0)
        assert str(err.value).startswith("T = 0: horizon T") and "h =" not in str(err.value)

    def test_requires_reference_solution(self, tmp_path):
        out = tmp_path / "conv.csv"
        code = main(
            ["scenario", "--name", "ex2i", "--h", "1e-2",
             "--convergence", "0.01,0.005", "--out", str(out)]
        )
        assert code == 2

    def test_incompatible_with_stability(self, tmp_path):
        code = main(
            ["scenario", "--name", "ex1ii", "--h", "1e-2", "--stability",
             "--convergence", "0.01,0.005", "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2


class TestScenarioFlags:
    """The scenario flags are read as the run configuration they stand for."""

    @pytest.mark.parametrize(
        "flags",
        [
            ["--h", "0.01", "--convergence", "nan,0.01"],
            ["--h", "0.01", "--convergence", "inf,0.01"],
            ["--h", "nan"],
        ],
    )
    def test_non_finite_step_is_usage_error(self, tmp_path, capsys, flags):
        out = tmp_path / "c.csv"
        assert main(["scenario", "--name", "ex1ii", *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "must be finite" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags,key",
        [
            (["--h", "-0.01"], "h = -0.01: step size must be positive"),
            (["--h", "0.01", "--T", "0"], "horizon T must be positive"),
            (["--h", "0.01", "--convergence", "0.01,0"], "convergence_steps[1] = 0.0: step size"),
        ],
    )
    def test_non_positive_step_or_horizon_is_usage_error(self, tmp_path, capsys, flags, key):
        out = tmp_path / "c.csv"
        assert main(["scenario", "--name", "ex1ii", *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and key in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("config", [False, True])
    def test_bad_horizon_is_reported_under_its_key(self, tmp_path, capsys, config):
        # checked before the step, so the error names T and not h
        out = tmp_path / "x.csv"
        if config:
            path = tmp_path / "run.json"
            body = {"scenario": "ex1ii", "h": 0.01, "T": 0, "out_path": str(out)}
            path.write_text(json.dumps(body))
            code = main(["run", "--config", str(path)])
        else:
            argv = ["scenario", "--name", "ex1ii", "--h", "0.01", "--T", "0", "--out", str(out)]
            code = main(argv)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: T = 0") and "horizon T" in err and "h =" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags,body",
        [
            (["--name", "ex2ii", "--h", "0.01"],
             {"scenario": "ex2ii", "h": 0.01, "outputs": ["trace"]}),
            (["--name", "ex3iii", "--h", "0.02", "--stability"],
             {"scenario": "ex3iii", "h": 0.02, "outputs": ["trace", "stability"]}),
            (["--name", "ex1ii", "--h", "0.004", "--T", "0.5", "--convergence", "0.004,0.002"],
             {"scenario": "ex1ii", "h": 0.004, "T": 0.5, "outputs": ["convergence"],
              "convergence_steps": [0.004, 0.002]}),
        ],
    )
    def test_flags_and_run_config_agree(self, tmp_path, monkeypatch, flags, body):
        seen = []
        monkeypatch.setattr(vofde.cli, "_execute", lambda cfg: seen.append(cfg) or 0)
        out = str(tmp_path / "x.csv")
        config = tmp_path / "run.json"
        config.write_text(json.dumps({**body, "out_path": out}))
        assert main(["scenario", *flags, "--out", out]) == 0
        assert main(["run", "--config", str(config)]) == 0
        assert len(seen) == 2 and seen[0] == seen[1]


class TestRunConfig:
    def write_config(self, tmp_path, body):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(body))
        return path

    def inline_problem(self):
        return {
            "a1": 1.0,
            "a2": {"form": "constant", "params": {"value": 1.0}},
            "a3": 25.0,
            "p": 0.0,
            "alpha": {"form": "constant", "params": {"value": 0.5}},
            "u0": 1.0,
            "v0": 10.0,
        }

    @pytest.mark.parametrize(
        "key,spec",
        [
            ("a2", {"form": "constant", "params": {"value": 1.0}}),
            ("a3", {"form": "polynomial", "params": {"coeffs": [25.0, -1.0, 0.5]}}),
            ("a1", {"form": "exp_decay", "params": {"offset": 1.0, "scale": 0.5, "rate": 2.0}}),
            ("a2", {"form": "power", "params": {"coeff": 0.1, "exponent": 0.5}}),
            ("alpha", {"form": "tanh_abs_velocity", "params": {"d": 0.9, "k": 0.5}}),
            ("nonlinear", {"form": "cubic", "params": {"coeff": 2.0}}),
        ],
        ids=["constant", "polynomial", "exp_decay", "power", "tanh_abs_velocity", "cubic"],
    )
    def test_inline_problem_runs(self, tmp_path, key, spec):
        out = tmp_path / "trace.csv"
        cfg = self.write_config(
            tmp_path,
            {"h": 1e-2, "T": 1.0, "outputs": ["trace"], "out_path": str(out),
             "problem": {**self.inline_problem(), key: spec}},
        )
        assert main(["run", "--config", str(cfg)]) == 0
        rows = read_rows(out)
        assert len(rows) == 1 + 101
        assert float(rows[1][1]) == 1.0

    def test_scenario_reference_with_two_outputs(self, tmp_path):
        out = tmp_path / "result.csv"
        cfg = self.write_config(
            tmp_path,
            {"scenario": "ex2ii", "h": 1e-2, "outputs": ["trace", "stability"],
             "out_path": str(out)},
        )
        assert main(["run", "--config", str(cfg)]) == 0
        assert out.exists()
        assert (tmp_path / "result.csv.stability.json").exists()

    def test_state_dependent_alpha_form(self, tmp_path):
        body = self.inline_problem()
        body["alpha"] = {"form": "tanh_abs_velocity", "params": {"d": 1.0, "k": 0.5}}
        out = tmp_path / "trace.csv"
        cfg = self.write_config(
            tmp_path,
            {"h": 1e-2, "T": 1.0, "outputs": ["trace"], "out_path": str(out),
             "problem": body},
        )
        assert main(["run", "--config", str(cfg)]) == 0
        rows = read_rows(out)
        # order column must reflect the velocity feedback, not a constant
        alphas = {r[4] for r in rows[2:]}
        assert len(alphas) > 1

    def test_inline_step_longer_than_horizon_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        cfg = self.write_config(
            tmp_path,
            {"h": 0.5, "T": 0.1, "outputs": ["trace"], "out_path": str(out),
             "problem": self.inline_problem()},
        )
        assert main(["run", "--config", str(cfg)]) == 2
        assert "h = 0.5 exceeds the horizon T = 0.1" in capsys.readouterr().err
        assert not out.exists()

    def test_given_horizon_is_checked_when_parsing(self):
        # with T in the configuration the check needs no scenario or problem
        body = {"scenario": "ex4", "h": 0.01, "T": 0.1, "outputs": ["convergence"],
                "convergence_steps": [0.01, 0.2], "out_path": "unused.csv"}
        with pytest.raises(vofde.cli.ConfigError, match=r"convergence_steps\[1\] = 0.2 exceeds"):
            vofde.cli.parse_config(body)

    def test_default_horizon_is_checked_when_parsing(self):
        # ex4 runs to T = 1 unless told otherwise; no scenario is loaded
        body = {"scenario": "ex4", "h": 2.0, "out_path": "unused.csv"}
        with pytest.raises(vofde.cli.ConfigError, match=r"h = 2.0 exceeds the horizon T = 1.0"):
            vofde.cli.parse_config(body)

    def test_inline_problem_without_horizon_rejected_when_parsing(self):
        body = {"h": 0.01, "out_path": "unused.csv", "problem": self.inline_problem()}
        with pytest.raises(vofde.cli.ConfigError, match="need a top-level horizon T"):
            vofde.cli.parse_config(body)

    def inline_convergence(self, tmp_path):
        return {"h": 1e-3, "T": 1.0, "outputs": ["trace", "convergence"],
                "convergence_steps": [0.01, 0.005], "out_path": str(tmp_path / "x.csv"),
                "problem": self.inline_problem()}

    def test_inline_convergence_rejected_when_parsing(self, tmp_path):
        with pytest.raises(vofde.cli.ConfigError, match="need a named scenario"):
            vofde.cli.parse_config(self.inline_convergence(tmp_path))

    def test_inline_convergence_solves_nothing(self, tmp_path, monkeypatch, capsys):
        body = self.inline_convergence(tmp_path)
        solved = []
        monkeypatch.setattr(vofde.cli, "solve_problem", lambda problem: solved.append(problem))
        assert main(["run", "--config", str(self.write_config(tmp_path, body))]) == 2
        assert "need a named scenario" in capsys.readouterr().err
        assert solved == []
        assert list(tmp_path.glob("x.csv*")) == []

    @pytest.mark.parametrize(
        "key,spec,message",
        [
            ("a2", {"form": "power", "params": {"coeff": 1.0, "exponent": -0.5}},
             "a2: the exponent must be >= 0"),
            ("p", {"form": "sine", "params": {}},
             "p has unknown form 'sine'; known forms: constant, polynomial, exp_decay, power"),
            # the nonlinear table has no constant form, so a number is no shorthand
            ("nonlinear", 3, "nonlinear must be a form object, got 3"),
        ],
        ids=["negative_exponent", "unknown_form", "nonlinear_number"],
    )
    def test_catalog_rejection_is_usage_error(self, tmp_path, capsys, key, spec, message):
        out = tmp_path / "x.csv"
        cfg = self.write_config(
            tmp_path,
            {"h": 1e-2, "T": 1.0, "outputs": ["trace"], "out_path": str(out),
             "problem": {**self.inline_problem(), key: spec}},
        )
        assert main(["run", "--config", str(cfg)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_convergence_without_reference_solves_nothing(self, tmp_path, monkeypatch, capsys):
        # ex2i has no reference solution; that is found before its trace is solved
        body = {"scenario": "ex2i", "h": 1e-2, "outputs": ["trace", "convergence"],
                "convergence_steps": [0.01, 0.005], "out_path": str(tmp_path / "x.csv")}
        solved = []
        monkeypatch.setattr(vofde.cli, "solve_problem", lambda problem: solved.append(problem))
        assert main(["run", "--config", str(self.write_config(tmp_path, body))]) == 2
        assert "has no reference solution" in capsys.readouterr().err
        assert solved == []
        assert list(tmp_path.glob("x.csv*")) == []

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("{not json")
        assert main(["run", "--config", str(path)]) == 2

    def test_unknown_key_rejected(self, tmp_path):
        cfg = self.write_config(
            tmp_path,
            {"h": 1e-2, "T": 1.0, "outputs": ["trace"], "out_path": "x.csv",
             "problem": self.inline_problem(), "bogus": 1},
        )
        assert main(["run", "--config", str(cfg)]) == 2

    def test_unknown_scenario(self, tmp_path):
        cfg = self.write_config(
            tmp_path, {"scenario": "nope", "h": 1e-2, "outputs": ["trace"], "out_path": "x.csv"}
        )
        assert main(["run", "--config", str(cfg)]) == 2

    def test_unknown_scenario_with_horizon(self, tmp_path, capsys):
        # a given T skips the default-horizon lookup, not the name check
        out = tmp_path / "x.csv"
        cfg = self.write_config(
            tmp_path, {"scenario": "nope", "h": 1e-2, "T": 1.0, "out_path": str(out)}
        )
        assert main(["run", "--config", str(cfg)]) == 2
        argv = ["scenario", "--name", "nope", "--h", "1e-2", "--T", "1.0", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.count("error: unknown scenario 'nope'") == 2
        assert not out.exists()

    def test_scenario_and_problem_conflict(self, tmp_path):
        cfg = self.write_config(
            tmp_path,
            {"scenario": "ex2i", "h": 1e-2, "T": 1.0, "outputs": ["trace"],
             "out_path": "x.csv", "problem": self.inline_problem()},
        )
        assert main(["run", "--config", str(cfg)]) == 2

    def test_integer_too_large_for_a_float_is_usage_error(self, tmp_path, capsys):
        cfg = self.write_config(
            tmp_path, {"scenario": "ex4", "h": 10**400, "out_path": str(tmp_path / "x.csv")}
        )
        assert main(["run", "--config", str(cfg)]) == 2
        assert "h must be finite" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "absent.json")]) == 2

    def test_degenerate_problem_is_solver_error(self, tmp_path):
        body = self.inline_problem()
        body["a1"] = 0.0
        cfg = self.write_config(
            tmp_path,
            {"h": 1e-2, "T": 1.0, "outputs": ["trace"],
             "out_path": str(tmp_path / "x.csv"), "problem": body},
        )
        assert main(["run", "--config", str(cfg)]) == 3

    def test_leading_coefficient_through_zero_is_solver_error(self, tmp_path):
        body = self.inline_problem()
        body["a1"] = {"form": "polynomial", "params": {"coeffs": [1.0, -1.0]}}
        cfg = self.write_config(
            tmp_path,
            {"h": 1e-2, "T": 2.0, "outputs": ["trace"],
             "out_path": str(tmp_path / "x.csv"), "problem": body},
        )
        assert main(["run", "--config", str(cfg)]) == 3
        assert not (tmp_path / "x.csv").exists()

    def test_infinite_damping_is_solver_error_without_warnings(self, tmp_path, capsys):
        # a2 = 1 + 1e308 t + 1e308 t^2 overflows to inf at t = 0.8: the
        # node_table check names that step before any step is solved
        body = self.inline_problem()
        body["a2"] = {"form": "polynomial", "params": {"coeffs": [1.0, 1e308, 1e308]}}
        cfg = self.write_config(
            tmp_path,
            {"h": 1e-2, "T": 1.0, "outputs": ["trace"],
             "out_path": str(tmp_path / "x.csv"), "problem": body},
        )
        assert main(["run", "--config", str(cfg)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: coefficient a2 = inf at step 80 (t = 0.8) is not finite\n"
        assert not (tmp_path / "x.csv").exists()

    def test_overflow_in_forcing_is_solver_error(self, tmp_path, capsys):
        body = self.inline_problem()
        body["p"] = {"form": "exp_decay", "params": {"offset": 0, "scale": 1, "rate": -1000}}
        cfg = self.write_config(
            tmp_path,
            {"h": 1e-2, "T": 1.0, "outputs": ["trace"],
             "out_path": str(tmp_path / "x.csv"), "problem": body},
        )
        assert main(["run", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "x.csv").exists()

    def test_overflow_in_nonlinear_term_is_solver_error(self, tmp_path, capsys):
        body = self.inline_problem()
        body.update(u0=1e300, v0=1e300, nonlinear={"form": "cubic"})
        cfg = self.write_config(
            tmp_path,
            {"h": 1e-2, "T": 1.0, "outputs": ["trace"],
             "out_path": str(tmp_path / "x.csv"), "problem": body},
        )
        assert main(["run", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_overflow_in_nonlinear_term_at_a_trial_state_names_its_step(self, tmp_path, capsys):
        # the blow-up oscillator with a cubic of coefficient 0: the float
        # power overflows at a trial state of step 217, a solver failure
        body = self.inline_problem()
        body.update(a3=-1e4, v0=0.0, nonlinear={"form": "cubic", "params": {"coeff": 0.0}})
        cfg = self.write_config(
            tmp_path,
            {"h": 1e-2, "T": 10.0, "outputs": ["trace"],
             "out_path": str(tmp_path / "x.csv"), "problem": body},
        )
        assert main(["run", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: residual inf at trial q ") and err.endswith(" in step 217\n")
        assert not (tmp_path / "x.csv").exists()

    def test_order_outside_domain_is_solver_error(self, tmp_path):
        body = self.inline_problem()
        body["alpha"] = {"form": "polynomial", "params": {"coeffs": [0.5, 2.0]}}
        cfg = self.write_config(
            tmp_path,
            {"h": 1e-2, "T": 1.0, "outputs": ["trace"],
             "out_path": str(tmp_path / "x.csv"), "problem": body},
        )
        assert main(["run", "--config", str(cfg)]) == 3


class TestCsvWriter:
    # np.savetxt with the format the CLI's files have always had is the
    # oracle; the writer formats _CSV_ROWS rows at a time, so the row counts
    # straddle one chunk
    VALUES = [math.nan, 0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 1.0, 7.0, -3.0,
              1e300, 0.1, 2.0 ** 53, 1.0 / 3.0, 1e-310]

    @staticmethod
    def oracle(path, table, header):
        np.savetxt(path, table, fmt="%.17g", delimiter=",", header=header, comments="")
        return path.read_bytes()

    @pytest.mark.parametrize("extra", [None, -1, 0, 1])
    def test_trace_bytes_equal_savetxt(self, tmp_path, extra):
        rows = 1 if extra is None else vofde.cli._CSV_ROWS + extra
        rng = np.random.default_rng(rows)
        table = rng.choice(self.VALUES, size=(rows, 6))
        table[:, :5] *= rng.uniform(0.5, 2.0, (rows, 5))  # inf * x and nan * x keep their class
        trace = vofde.SolutionTrace(
            t=table[:, 0], u=table[:, 1], udot=table[:, 2], uddot=table[:, 3],
            alpha_used=table[:, 4], udot_mean=np.zeros(rows - 1),
        )
        vofde.cli.write_trace_csv(str(tmp_path / "trace.csv"), trace, rho=table[1:, 5])
        table[0, 5] = math.nan  # node 0 has no radius
        written = (tmp_path / "trace.csv").read_bytes()
        assert written == self.oracle(tmp_path / "oracle.csv", table, "t,u,udot,uddot,alpha,rho")
        assert written.count(b"\n") == rows + 1
        vofde.cli.write_trace_csv(str(tmp_path / "plain.csv"), trace)
        assert (tmp_path / "plain.csv").read_bytes() == self.oracle(
            tmp_path / "oracle.csv", table[:, :5], "t,u,udot,uddot,alpha"
        )

    def test_convergence_rows_with_integers_equal_savetxt(self, tmp_path):
        rows = [(0.1, 10, 1e-3, math.nan), (0.05, 20, 2.5e-4, 4.0), (0.025, 40, -0.0, math.inf)]
        vofde.cli.write_convergence_csv(str(tmp_path / "c.csv"), rows)
        assert (tmp_path / "c.csv").read_bytes() == self.oracle(
            tmp_path / "oracle.csv", rows, "h,N,max_abs_error,ratio"
        )


class TestImportWeight:
    def test_scenario_runs_do_not_load_scipy(self, tmp_path):
        # scipy roughly doubles the import time and peak memory of a run, so
        # only the test oracles may load it, on first use
        script = (
            "import sys, vofde, vofde.cli\n"
            "for name in ('ex4', 'ex5'):\n"
            "    out = sys.argv[1] + '/' + name + '.csv'\n"
            "    args = ['scenario', '--name', name, '--h', '0.025', '--stability', '--out', out]\n"
            "    assert vofde.cli.main(args) == 0, name\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
        assert len(read_rows(tmp_path / "ex5.csv")) == 1 + 41


    def test_package_source_imports_no_scipy(self):
        # scipy is a test dependency only; the package must run on numpy alone
        src = Path(vofde.cli.__file__).parent
        for path in sorted(src.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                assert all(n.split(".")[0] != "scipy" for n in names), (path.name, names)


class TestConsoleScript:
    def test_entry_point_runs(self, tmp_path):
        out = tmp_path / "trace.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "vofde.cli", "scenario", "--name", "ex5",
             "--h", "1e-2", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        rows = read_rows(out)
        assert len(rows) == 1 + 101
