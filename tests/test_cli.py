"""Command line interface behavior and exit codes."""

from __future__ import annotations

import pytest

from gossipskip.cli import main

COMPLETE_GRAPH_CONFIG = """
graph.kind = random
graph.n = 5
graph.iota = 1.0
graph.seed = 0
problem.kind = least_squares
problem.d = 4
problem.mu = 1.0
problem.kappa = 6.0
problem.seed = 2
run.T = 400
run.tol = 0.0
run.seeds = 0
alg.0.kind = mg_skip
alg.0.alpha = one_over_5L
alg.0.p = 0.5
"""


class TestTopology:
    def test_ring15_reports_constants(self, capsys):
        assert main(["topology", "--kind", "ring", "--n", "15"]) == 0
        out = capsys.readouterr().out
        values = dict(
            line.split(" = ") for line in out.strip().splitlines() if " = " in line
        )
        assert float(values["rho"]) == pytest.approx(0.9424, abs=1e-3)
        assert int(values["K"]) == 4
        assert float(values["eta"]) == pytest.approx(0.4986, abs=1e-3)

    def test_random_kind(self, capsys):
        assert main(
            ["topology", "--kind", "random", "--n", "10", "--iota", "0.5"]
        ) == 0
        assert "edges = 22" in capsys.readouterr().out

    def test_bad_kind_rejected_by_argparse(self):
        with pytest.raises(SystemExit) as err:
            main(["topology", "--kind", "torus", "--n", "4"])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--kind", "ring", "--n", "2"], "ring needs n >= 3 nodes, got 2"),
            (
                ["--kind", "random", "--n", "10", "--iota", "0"],
                "connectivity ratio must be in (0, 1], got 0.0",
            ),
            (["--kind", "random", "--n", "0"], "node count must be >= 1, got 0"),
        ],
        ids=["ring-n2", "random-iota0", "random-n0"],
    )
    def test_out_of_range_exit_2(self, capsys, argv, message):
        assert main(["topology", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""


class TestVerify:
    def test_complete_graph_all_checks_pass(self, tmp_path, capsys):
        config = tmp_path / "exp.cfg"
        config.write_text(COMPLETE_GRAPH_CONFIG)
        code = main(["verify", "--config", str(config), "--steps", "50"])
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert code == 0

    def test_ring_reports_envelope_failure(self, tmp_path, capsys):
        # the multi-round radius envelope is not attained on rings at the
        # default round count; verify reports it and exits nonzero
        config = tmp_path / "exp.cfg"
        config.write_text(
            COMPLETE_GRAPH_CONFIG.replace("graph.kind = random", "graph.kind = ring")
            .replace("graph.n = 5", "graph.n = 15")
            .replace("graph.iota = 1.0\ngraph.seed = 0\n", "")
            .replace("problem.kappa = 6.0", "problem.kappa_rule = half_over_gap")
        )
        code = main(["verify", "--config", str(config), "--steps", "30"])
        out = capsys.readouterr().out
        assert code == 1
        assert "multi-round radius envelope" in out and "FAIL" in out
        assert "fixed-point residual" in out

    def test_missing_config(self, capsys):
        assert main(["verify", "--config", "missing.cfg"]) == 2

    def test_negative_steps_exit_2(self, tmp_path, capsys):
        config = tmp_path / "exp.cfg"
        config.write_text(COMPLETE_GRAPH_CONFIG)
        assert main(["verify", "--config", str(config), "--steps", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --steps must be >= 0, got -1\n"
        assert captured.out == ""

    def test_reports_reference_certificate(self, tmp_path, capsys):
        config = tmp_path / "exp.cfg"
        config.write_text(COMPLETE_GRAPH_CONFIG.replace("run.tol = 0.0", "run.tol = 1e-7"))
        assert main(["verify", "--config", str(config), "--steps", "5"]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if "x* certified" in line]
        assert len(lines) == 1 and "PASS" in lines[0]
        bound = float(lines[0].split("error bound ")[1].split()[0])
        assert bound <= 1e-10

    def test_skip1_first_algorithm_omits_contraction_row(self, tmp_path, capsys):
        config = tmp_path / "exp.cfg"
        config.write_text(
            COMPLETE_GRAPH_CONFIG.replace("alg.0.kind = mg_skip", "alg.0.kind = skip1")
        )
        main(["verify", "--config", str(config), "--steps", "20"])
        out = capsys.readouterr().out
        assert "contraction over" not in out
        assert "fixed-point residual" in out


class TestRun:
    def test_missing_config_exit_2(self):
        assert main(["run", "--config", "nope.cfg", "--out", "/tmp/x"]) == 2

    def test_run_writes_outputs(self, tmp_path, capsys):
        config = tmp_path / "exp.cfg"
        config.write_text(COMPLETE_GRAPH_CONFIG.replace("run.T = 400", "run.T = 20"))
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out_dir)]) == 0
        assert (out_dir / "summary.csv").exists()
        assert (out_dir / "mg_skip_p0.5__seed0.csv").exists()
        assert "wrote traces" in capsys.readouterr().out

    def test_unknown_flag_exit_2(self):
        with pytest.raises(SystemExit) as err:
            main(["run", "--bogus"])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "edit, message",
        [
            (("graph.kind = random", "graph.kind = ring"), "does not apply to kind 'ring'"),
            (("problem.kind = least_squares\nproblem.d = 4\nproblem.mu = 1.0\nproblem.kappa = 6.0",
              "problem.kind = libsvm\nproblem.path = none.svm\nproblem.gamma1 = 0.1"),
             "libsvm file not found"),
            (("alg.0.alpha = one_over_5L", "alg.0.alpha = one_over_2L"),
             "unknown alpha rule 'one_over_2L'"),
            (("alg.0.p = 0.5", "alg.0.p = 0.5\nalg.0.K = twice"), "unknown K rule 'twice'"),
            (("alg.0.p = 0.5", "alg.0.p = 0.5\nalg.0.K = fixed:0"), "unknown K rule 'fixed:0'"),
            (("graph.kind = random", "graph.kind = torus"), "unknown graph kind 'torus'"),
            (("problem.d = 4", "problem.d = ten"), "problem.d: expected an integer, got 'ten'"),
            (("run.seeds = 0", "run.seeds = 0\nrun.diagnostics = no"),
             "run.diagnostics: expected true or false, got 'no'"),
        ],
    )
    def test_config_error_exit_2(self, tmp_path, capsys, edit, message):
        config = tmp_path / "exp.cfg"
        config.write_text(COMPLETE_GRAPH_CONFIG.replace(*edit))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--p", "1,0.5"]])
    def test_uncertified_reference_exit_2(self, tmp_path, capsys, command):
        """A run.tol the reference cannot certify 1000-fold is refused before any run:
        this logistic x* is certified to about 1e-13 relative, run.tol wants 1e-15."""
        config = tmp_path / "exp.cfg"
        config.write_text(
            COMPLETE_GRAPH_CONFIG.replace("run.tol = 0.0", "run.tol = 1e-12").replace(
                "problem.kind = least_squares\nproblem.d = 4\nproblem.mu = 1.0\nproblem.kappa = 6.0",
                "problem.kind = logistic\nproblem.d = 4\nproblem.samples_per_node = 10",
            )
        )
        argv = [command[0], "--config", str(config), "--out", str(tmp_path / "o"), *command[1:]]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: run.tol = 1e-12 needs x* certified")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_run_time_error_still_raises(self, tmp_path):
        # only parsing is caught; a config that parses but cannot run raises
        config = tmp_path / "exp.cfg"
        config.write_text(
            COMPLETE_GRAPH_CONFIG.replace("alg.0.alpha = one_over_5L", "alg.0.alpha = fixed:10")
        )
        with pytest.raises(RuntimeError, match="must be < 2"):
            main(["run", "--config", str(config), "--out", str(tmp_path / "o")])


class TestSweep:
    def test_sweep_expands_p_grid(self, tmp_path, capsys):
        config = tmp_path / "exp.cfg"
        config.write_text(
            COMPLETE_GRAPH_CONFIG.replace("run.T = 400", "run.T = 2000").replace(
                "run.tol = 0.0", "run.tol = 1e-6"
            )
        )
        out_dir = tmp_path / "sweep"
        code = main(
            ["sweep", "--config", str(config), "--out", str(out_dir), "--p", "1,0.5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mg_skip_p1" in out and "mg_skip_p0.5" in out
        assert (out_dir / "mg_skip_p1__seed0.csv").exists()
        assert (out_dir / "mg_skip_p0.5__seed0.csv").exists()

    def test_sweep_dedupes_same_kind_rows(self, tmp_path):
        config = tmp_path / "exp.cfg"
        config.write_text(
            COMPLETE_GRAPH_CONFIG.replace("run.T = 400", "run.T = 10")
            + "alg.1.kind = mg_skip\nalg.1.alpha = one_over_5L\nalg.1.p = 0.3\n"
        )
        out_dir = tmp_path / "o"
        code = main(
            ["sweep", "--config", str(config), "--out", str(out_dir), "--p", "1,0.5"]
        )
        assert code == 0
        csvs = sorted(f.name for f in out_dir.glob("mg_skip*seed0.csv"))
        assert csvs == ["mg_skip_p0.5__seed0.csv", "mg_skip_p1__seed0.csv"]

    def test_sweep_runs_engine_kind_once(self, tmp_path, capsys):
        config = tmp_path / "exp.cfg"
        config.write_text(
            COMPLETE_GRAPH_CONFIG.replace("run.T = 400", "run.T = 10")
            + "alg.1.kind = puda_nids\nalg.1.alpha = one_over_5L\n"
        )
        out_dir = tmp_path / "o"
        code = main(
            ["sweep", "--config", str(config), "--out", str(out_dir), "--p", "1,0.5"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            "mg_skip_p0.5",
            "mg_skip_p1",
            "puda_nids",
        ]
        assert [f.name for f in out_dir.glob("puda_nids*.csv")] == ["puda_nids__seed0.csv"]

    @pytest.mark.parametrize("grid", ["abc", "0", "1.5"])
    def test_bad_p_exit_2(self, tmp_path, capsys, grid):
        config = tmp_path / "exp.cfg"
        config.write_text(COMPLETE_GRAPH_CONFIG)
        out_dir = tmp_path / "o"
        code = main(["sweep", "--config", str(config), "--out", str(out_dir), "--p", grid])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: --p '{grid}': ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out_dir.exists()

    def test_empty_grid(self, tmp_path):
        config = tmp_path / "exp.cfg"
        config.write_text(COMPLETE_GRAPH_CONFIG)
        assert main(
            ["sweep", "--config", str(config), "--out", str(tmp_path / "o"), "--p", ""]
        ) == 2
