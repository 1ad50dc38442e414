"""Command line interface behavior and exit codes."""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import gossipskip
import gossipskip.cli as cli
from gossipskip import ContractionReport, MultiGossipOperator, Prop1Report, harness
from gossipskip.cli import main

RING15_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "ring15.cfg"

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

# ring-15 least squares whose L1 weight puts the minimiser at x* = 0
ZERO_MINIMISER_CONFIG = """
graph.kind = ring
graph.n = 15
problem.kind = least_squares
problem.d = 10
problem.mu = 1.0
problem.kappa = 5
problem.seed = 1
problem.gamma2 = 3
run.T = 200
run.tol = 1e-7
run.seeds = 0
alg.0.kind = mg_skip
alg.0.alpha = one_over_5L
alg.0.p = 1.0
"""

# limits that tie two keys, which the builders check: exit 2 like a bad value
TWO_KEY_LIMITS = [
    (("graph.n = 5\ngraph.iota = 1.0", "graph.n = 15\ngraph.iota = 0.05"),
     "5 edges cannot connect 15 nodes"),
    (("problem.mu = 1.0\nproblem.kappa = 6.0", "problem.mu = 2\nproblem.lsmooth = 1"),
     "need 0 < mu <= lsmooth, got mu=2.0, lsmooth=1.0"),
    # rho is about 0 on the complete graph, so lsmooth = mu / 2
    (("problem.kappa = 6.0", "problem.kappa_rule = half_over_gap"),
     "need 0 < mu <= lsmooth, got mu=1.0"),
]


# COMPLETE_GRAPH_CONFIG's row, and an engine row in its place
ENGINE_ROW = (
    "alg.0.kind = mg_skip\nalg.0.alpha = one_over_5L\nalg.0.p = 0.5",
    "alg.0.kind = puda_nids\nalg.0.alpha = one_over_5L",
)


def _no_reference(*args, **kwargs):
    pytest.fail("the reference was solved for a config with a refused row")


def test_module_help_exit_0():
    """``python -m gossipskip.cli --help`` lists the subcommands and exits 0."""
    src = str(Path(gossipskip.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "gossipskip.cli", "--help"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "{run,verify,topology,sweep}" in done.stdout


def _graph_config(graph: str) -> str:
    """COMPLETE_GRAPH_CONFIG with its graph lines replaced by ``graph``."""
    return COMPLETE_GRAPH_CONFIG.replace(
        "graph.kind = random\ngraph.n = 5\ngraph.iota = 1.0\ngraph.seed = 0", graph
    )


def _assert_one_config_error(capsys, message: str) -> None:
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ") and message in captured.err
    assert captured.err.count("\n") == 1


class TestTopology:
    def test_ring15_reports_constants(self, capsys):
        assert main(["topology", "--config", str(RING15_CONFIG)]) == 0
        assert capsys.readouterr().out == (
            "n = 15\nedges = 15\nrho = 0.942364\nK = 4\neta = 0.498587\n"
        )

    @pytest.mark.parametrize(
        "graph, out",
        [
            ("graph.kind = ring\ngraph.n = 400",
             "n = 400\nedges = 400\nrho = 0.999918\nK = 110\neta = 0.974675\n"),
            ("graph.kind = random\ngraph.n = 20\ngraph.iota = 0.2\ngraph.seed = 0",
             "n = 20\nedges = 38\nrho = 0.913883\nK = 3\neta = 0.422498\n"),
        ],
        ids=["ring400-gossip", "logistic-random"],
    )
    def test_benchmark_graph(self, tmp_path, capsys, graph, out):
        """The graphs of the benchmark's other two workloads."""
        config = tmp_path / "exp.cfg"
        config.write_text(_graph_config(graph))
        assert main(["topology", "--config", str(config)]) == 0
        assert capsys.readouterr().out == out

    def test_random_kind(self, tmp_path, capsys):
        config = tmp_path / "exp.cfg"
        config.write_text(_graph_config("graph.kind = random\ngraph.n = 10\ngraph.iota = 0.5"))
        assert main(["topology", "--config", str(config)]) == 0
        assert "edges = 22" in capsys.readouterr().out

    def test_builds_no_problem_or_reference(self, monkeypatch):
        def built(*args, **kwargs):
            pytest.fail("topology built a problem or a reference")

        monkeypatch.setattr(harness, "build_problem", built)
        monkeypatch.setattr(harness, "centralized_solve", built)
        assert main(["topology", "--config", str(RING15_CONFIG)]) == 0

    @pytest.mark.parametrize(
        "graph, message",
        [
            ("graph.kind = ring\ngraph.n = 2", "graph.n: expected an integer >= 3, got '2'"),
            ("graph.kind = random\ngraph.iota = 0", "graph.iota: expected a number in (0, 1], got '0'"),
            ("graph.kind = random\ngraph.n = 0", "graph.n: expected an integer >= 1, got '0'"),
            ("graph.kind = ring\ngraph.iota = 0.3", "'graph.iota' does not apply to kind 'ring'"),
            ("graph.kind = random\ngraph.seed = -1", "graph.seed: expected an integer >= 0, got '-1'"),
            ("graph.kind = torus", "unknown graph kind 'torus'"),
            ("graph.kind = random\ngraph.iota = 0.05", "5 edges cannot connect 15 nodes"),
        ],
        ids=[
            "ring-n2", "random-iota0", "random-n0", "iota-on-ring", "negative-seed", "kind-torus",
            "iota-too-small",
        ],
    )
    def test_out_of_range_exit_2(self, tmp_path, capsys, graph, message):
        """A graph the config's keys do not describe, alone or together, is one config error."""
        config = tmp_path / "exp.cfg"
        config.write_text(_graph_config(graph))
        assert main(["topology", "--config", str(config)]) == 2
        _assert_one_config_error(capsys, message)


# each subcommand's arguments besides --config; OUT stands for an output directory
COMMANDS = [
    ["run", "--out", "OUT"],
    ["verify", "--steps", "3"],
    ["topology"],
    ["sweep", "--out", "OUT", "--p", "1"],
]


@pytest.mark.parametrize("command", COMMANDS, ids=[c[0] for c in COMMANDS])
@pytest.mark.parametrize(
    "make, message",
    [
        (lambda path: path.mkdir(), "cannot read config {path}: Is a directory"),
        (lambda path: path.write_bytes(b"graph.n = 15\n\xff\n"), "config {path} is not UTF-8: "),
        (lambda path: None, "cannot read config {path}: No such file or directory"),
    ],
    ids=["directory", "non-utf8", "missing"],
)
def test_unreadable_config_exit_2(tmp_path, capsys, command, make, message):
    """A config that cannot be read as UTF-8 text is one config error naming it."""
    config, out = tmp_path / "exp.cfg", tmp_path / "out"
    make(config)
    rest = [str(out) if arg == "OUT" else arg for arg in command[1:]]
    assert main([command[0], "--config", str(config), *rest]) == 2
    _assert_one_config_error(capsys, message.format(path=config))
    assert not out.exists()


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
        assert captured.err == "config error: --steps must be >= 0, got -1\n"
        assert captured.out == ""

    @pytest.mark.parametrize("steps", ["0", "5", "40"])
    def test_oversized_stepsize_exit_2(self, tmp_path, capsys, steps):
        """The checks step the first row's iteration, so its stepsize is checked
        before any of them runs, at every step count: one config error line,
        exit 2 and nothing on stdout."""
        config = tmp_path / "exp.cfg"
        config.write_text(
            RING15_CONFIG.read_text().replace("alg.0.alpha = one_over_5L", "alg.0.alpha = fixed:1")
        )
        assert main(["verify", "--config", str(config), "--steps", steps]) == 2
        captured = capsys.readouterr()
        assert captured.err == "config error: mg_skip_p1: alpha*L = 8.675 must be < 2\n"
        assert captured.out == ""

    def test_later_row_stepsize_exit_2(self, tmp_path, capsys, monkeypatch):
        """Every row is checked, not only the first one the checks step, and
        before the reference solve."""
        monkeypatch.setattr(harness, "centralized_solve", _no_reference)
        config = tmp_path / "exp.cfg"
        config.write_text(
            RING15_CONFIG.read_text().replace("alg.2.alpha = one_over_5L", "alg.2.alpha = fixed:1")
        )
        assert main(["verify", "--config", str(config), "--steps", "20"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "config error: skip1_p1: alpha*L = 8.675 must be < 2\n"
        assert captured.out == ""

    def test_first_row_steps_with_its_own_operator(self, tmp_path, capsys, monkeypatch):
        """The stationarity step gossips as the first row does: a skip1 first
        row steps with one plain round (K = 1, Mbar = W), while the radius row
        reports Proposition 1 at the default K = 4."""
        operators = []
        step = cli.mg_skip_step

        def recorded(state, problem, gossip, cfg, theta):
            operators.append(gossip)
            return step(state, problem, gossip, cfg, theta)

        monkeypatch.setattr(cli, "mg_skip_step", recorded)
        config = tmp_path / "exp.cfg"
        config.write_text(
            RING15_CONFIG.read_text()
            .replace("alg.0.kind = mg_skip", "alg.0.kind = skip1")
            .replace("alg.2.p = 1.0", "alg.2.p = 0.5")
            .replace("summary.baseline = mg_skip_p1", "summary.baseline = skip1_p1")
        )
        main(["verify", "--config", str(config), "--steps", "20"])
        out = capsys.readouterr().out
        # skip1 has no contraction row, so the one step is the stationarity check
        assert [(op.K, op.eta) for op in operators] == [(1, 0.0)]
        assert "(K=4)" in next(line for line in out.splitlines() if "radius envelope" in line)
        assert "fixed point is stationary     PASS" in out
        assert "fast_goss == dense (I-Mbar)Z  PASS" in out

    def test_default_k_first_row_checks_prop1_on_its_own_operator(self, capsys, monkeypatch):
        """A default-K mg_skip first row is Proposition 1's operator: one operator
        is built at the default K, and the radius row and the steps both use it."""
        built, checked, stepped = [], [], []
        from_mixing = MultiGossipOperator.from_mixing.__func__
        prop1, step = cli.verify_prop1, cli.mg_skip_step

        def counted(cls, mixing, K=None):
            built.append(K)
            return from_mixing(cls, mixing, K)

        def recorded(state, problem, gossip, *rest, **kw):
            stepped.append(gossip)
            return step(state, problem, gossip, *rest, **kw)

        monkeypatch.setattr(MultiGossipOperator, "from_mixing", classmethod(counted))
        monkeypatch.setattr(cli, "verify_prop1", lambda op: checked.append(op) or prop1(op))
        monkeypatch.setattr(cli, "mg_skip_step", recorded)
        assert main(["verify", "--config", str(RING15_CONFIG), "--steps", "3"]) == 1
        assert built == [None]
        assert len(checked) == 1 and len(stepped) == 4  # the stationarity step, then 3
        assert all(op is checked[0] for op in stepped)
        assert "(K=4)" in next(line for line in capsys.readouterr().out.splitlines() if "radius" in line)

    def test_skip1_first_row_rows_and_default_k(self, tmp_path, capsys):
        """A skip1 first row gossips once, so Proposition 1 is checked on a default-K
        operator of its own; verify prints no row for what MixingMatrix refuses."""
        config = tmp_path / "exp.cfg"
        config.write_text(
            RING15_CONFIG.read_text()
            .replace("alg.0.kind = mg_skip", "alg.0.kind = skip1")
            .replace("alg.2.p = 1.0", "alg.2.p = 0.5")
            .replace("summary.baseline = mg_skip_p1", "summary.baseline = skip1_p1")
        )
        assert main(["verify", "--config", str(config), "--steps", "20"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line.partition("  ")[0] for line in lines[:-1]] == [
            "reference x* certified",
            "multi-round radius envelope",
            "sigma_min(I-Mbar) >= 2/5",
            "fast_goss == dense (I-Mbar)Z",
            "fixed-point residual at x*",
            "fixed point is stationary",
        ]
        assert lines[1].endswith("(K=4)") and lines[-1] == "5/6 checks passed"

    def test_report_fields_are_the_ones_read(self):
        assert [f.name for f in fields(Prop1Report)] == [
            "op",
            "K",
            "radius",
            "radius_bound",
            "radius_bound_ok",
            "sigma_min",
            "sigma_min_ok",
        ]
        assert not hasattr(Prop1Report, "all_ok")
        assert [f.name for f in fields(ContractionReport)] == ["lhs", "rhs", "ok"]

    def test_reports_reference_certificate(self, tmp_path, capsys):
        config = tmp_path / "exp.cfg"
        config.write_text(COMPLETE_GRAPH_CONFIG.replace("run.tol = 0.0", "run.tol = 1e-7"))
        assert main(["verify", "--config", str(config), "--steps", "5"]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if "x* certified" in line]
        assert len(lines) == 1 and "PASS" in lines[0]
        assert lines[0].endswith(" relative (run.tol 1e-07)")
        bound = float(lines[0].split("error bound ")[1].split()[0])
        assert bound <= 1e-10

    def test_zero_minimiser_certificate_is_absolute(self, tmp_path, capsys):
        """Where x* = 0 the reference's bound is the absolute one, and the
        certificate line says so."""
        config = tmp_path / "exp.cfg"
        config.write_text(ZERO_MINIMISER_CONFIG)
        main(["verify", "--config", str(config), "--steps", "3"])
        lines = [line for line in capsys.readouterr().out.splitlines() if "x* certified" in line]
        assert len(lines) == 1
        assert lines[0].endswith("PASS  error bound 0.0e+00 absolute (run.tol 1e-07)")

    def test_zero_steps_omit_contraction_row(self, tmp_path, capsys):
        """Over 0 steps there is no contraction check: no row, and the count
        covers one check fewer than at 1 step, where the row is present."""
        main(["verify", "--config", str(RING15_CONFIG), "--steps", "1"])
        one_step = capsys.readouterr().out.splitlines()
        main(["verify", "--config", str(RING15_CONFIG), "--steps", "0"])
        zero_steps = capsys.readouterr().out.splitlines()
        assert not any("contraction" in line for line in zero_steps)
        assert len(zero_steps) == len(one_step) - 1
        passed, total = map(int, one_step[-1].split()[0].split("/"))
        assert zero_steps[-1] == f"{passed - 1}/{total - 1} checks passed"
        config = tmp_path / "exp.cfg"
        config.write_text(COMPLETE_GRAPH_CONFIG)
        assert main(["verify", "--config", str(config), "--steps", "0"]) == 0
        out = capsys.readouterr().out
        assert "contraction" not in out and out.endswith("6/6 checks passed\n")

    def test_one_step_reports_contraction_row(self, capsys):
        main(["verify", "--config", str(RING15_CONFIG), "--steps", "1"])
        lines = capsys.readouterr().out.splitlines()
        rows = [line for line in lines if line.startswith("contraction over 1 steps")]
        assert len(rows) == 1 and "  PASS  " in rows[0] and "-inf" not in rows[0]

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

    def test_output_error_propagates(self, tmp_path):
        """An OSError writing a run's outputs is no input error: it propagates."""
        config, out = tmp_path / "exp.cfg", tmp_path / "out"
        config.write_text(COMPLETE_GRAPH_CONFIG.replace("run.T = 400", "run.T = 20"))
        out.write_text("")
        with pytest.raises(FileExistsError):
            main(["run", "--config", str(config), "--out", str(out)])

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
            (("run.T = 400", "run.T = 0"), "run.T: expected an integer >= 1, got '0'"),
            (("run.seeds = 0", "run.seeds = -1"),
             "run.seeds: expected distinct integers >= 0 separated by commas, got '-1'"),
            (("graph.kind = random\ngraph.n = 5\ngraph.iota = 1.0\ngraph.seed = 0",
              "graph.kind = ring\ngraph.n = 2"), "graph.n: expected an integer >= 3, got '2'"),
            (("graph.iota = 1.0", "graph.iota = 0"), "graph.iota: expected a number in (0, 1]"),
            (("problem.mu = 1.0", "problem.mu = -1"),
             "problem.mu: expected a number in (0, inf), got '-1'"),
            (("problem.seed = 2", "problem.seed = -2"),
             "problem.seed: expected an integer >= 0, got '-2'"),
            (("problem.d = 4", "problem.d = 0"), "problem.d: expected an integer >= 1, got '0'"),
            (("problem.kappa = 6.0", "problem.kappa = 0.5"),
             "problem.kappa: expected a number in [1, inf), got '0.5'"),
            (("alg.0.kind = mg_skip\nalg.0.alpha = one_over_5L\nalg.0.p = 0.5", ""),
             "need at least one algorithm"),
            *TWO_KEY_LIMITS,
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

    @pytest.mark.parametrize("command", [["verify"], ["sweep", "--p", "1,0.5"]])
    @pytest.mark.parametrize("edit, message", TWO_KEY_LIMITS)
    def test_two_key_limit_exit_2(self, tmp_path, capsys, command, edit, message):
        """``verify`` and ``sweep`` refuse what ``run`` refuses, with one line."""
        config = tmp_path / "exp.cfg"
        config.write_text(COMPLETE_GRAPH_CONFIG.replace(*edit))
        out = ["--out", str(tmp_path / "o")] if command[0] == "sweep" else []
        assert main([command[0], "--config", str(config), *out, *command[1:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert err.count("\n") == 1 and not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command, bad_row, name",
        [
            (["run"], 0, "mg_skip_p0.5"),
            (["run"], 1, "skip1_p1"),
            (["sweep", "--p", "1,0.5"], 0, "mg_skip_p1"),
            (["sweep", "--p", "1,0.5"], 1, "skip1_p1"),
        ],
    )
    def test_oversized_stepsize_exit_2(self, tmp_path, capsys, command, bad_row, name):
        """A skipping row with alpha * L >= 2 (L = 6 here) is refused before any
        output exists, whether it is the first row or the second."""
        text = COMPLETE_GRAPH_CONFIG + "alg.1.kind = skip1\nalg.1.alpha = one_over_5L\n"
        config = tmp_path / "exp.cfg"
        bad = text.replace(f"alg.{bad_row}.alpha = one_over_5L", f"alg.{bad_row}.alpha = fixed:1")
        config.write_text(bad)
        argv = [command[0], "--config", str(config), "--out", str(tmp_path / "o"), *command[1:]]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"config error: {name}: alpha*L = 6 must be < 2\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--p", "1,0.5"], ["verify"]])
    def test_engine_row_stepsize_exit_2(self, tmp_path, capsys, monkeypatch, command):
        """An engine row's stepsize is checked as a skipping row's is: alpha * L
        >= 2 (L = 6 here) is one config error line and exit 2, before the
        reference solve and before any output exists."""
        monkeypatch.setattr(harness, "centralized_solve", _no_reference)
        config = tmp_path / "exp.cfg"
        config.write_text(
            COMPLETE_GRAPH_CONFIG.replace(*ENGINE_ROW).replace(
                "alg.0.alpha = one_over_5L", "alg.0.alpha = fixed:10"
            )
        )
        out = [] if command[0] == "verify" else ["--out", str(tmp_path / "o")]
        assert main([command[0], "--config", str(config), *out, *command[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.err == "config error: puda_nids: alpha*L = 60 must be < 2\n"
        assert captured.out == ""
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--p", "1,0.5"]])
    @pytest.mark.parametrize("name", ["../escaped", "a/b", "a\\b", "a\0b"])
    def test_alg_name_outside_out_dir_exit_2(self, tmp_path, capsys, command, name):
        """A row's name is its trace files' name: one with a path separator or NUL
        is one config error line naming the key's line, and nothing is written."""
        config = tmp_path / "cfg" / "exp.cfg"
        config.parent.mkdir()
        config.write_text(COMPLETE_GRAPH_CONFIG + f"alg.0.name = {name}\n")
        argv = [command[0], "--config", str(config), "--out", str(tmp_path / "o"), *command[1:]]
        assert main(argv) == 2
        lineno = len(COMPLETE_GRAPH_CONFIG.splitlines()) + 1
        assert capsys.readouterr().err == (
            f"config error: config line {lineno}: alg.0.name: expected a name without "
            f"'/', '\\' or NUL, got {name!r}\n"
        )
        assert [path.name for path in tmp_path.iterdir()] == ["cfg"]

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--p", "1,0.5"]])
    @pytest.mark.parametrize("index", ["01", "00", "+1", "\u0663", "1\u00b2"])
    def test_non_canonical_alg_index_exit_2(self, tmp_path, capsys, command, index):
        """An algorithm index is a canonical ASCII decimal: ``alg.01`` beside
        ``alg.1`` would be a second row, as would one written in other
        digits.  Any other index is an unknown key, and nothing is written."""
        config = tmp_path / "cfg" / "exp.cfg"
        config.parent.mkdir()
        config.write_text(
            ZERO_MINIMISER_CONFIG.replace("alg.0.", f"alg.{index}.")
            + "alg.1.kind = skip1\nalg.1.alpha = one_over_5L\n"
        )
        argv = [command[0], "--config", str(config), "--out", str(tmp_path / "o"), *command[1:]]
        assert main(argv) == 2
        lineno = ZERO_MINIMISER_CONFIG.splitlines().index("alg.0.kind = mg_skip") + 1
        assert capsys.readouterr().err == (
            f"config error: config line {lineno}: unknown key 'alg.{index}.kind'\n"
        )
        assert [path.name for path in tmp_path.iterdir()] == ["cfg"]

    def test_run_time_error_still_raises(self, tmp_path, diverging_engine):
        # a config that is built but fails in its run is no config error: it raises
        config = tmp_path / "exp.cfg"
        config.write_text(COMPLETE_GRAPH_CONFIG.replace(*ENGINE_ROW))
        with pytest.raises(RuntimeError, match="run puda_nids/seed0 failed: non-finite iterate"):
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

    @pytest.mark.parametrize(
        "row, name", [("alg.1.alpha = one_over_L", "fast"), ("alg.1.K = fixed:2", "tworound")]
    )
    def test_sweep_refuses_rows_sharing_a_label(self, tmp_path, capsys, row, name):
        """Rows that differ only in alpha or K would give each p one label:
        rather than keep the first and drop the other, the sweep prints one
        config error naming both rows, exits 2 and writes nothing."""
        config = tmp_path / "exp.cfg"
        config.write_text(
            COMPLETE_GRAPH_CONFIG + f"alg.1.kind = mg_skip\n{row}\nalg.1.name = {name}\n"
        )
        out_dir = tmp_path / "o"
        code = main(["sweep", "--config", str(config), "--out", str(out_dir), "--p", "1,0.5"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"config error: --p '1,0.5': rows 'mg_skip_p0.5' and '{name}' differ but share "
            "'mg_skip_p1'\n"
        )
        assert captured.out == "" and not out_dir.exists()

    @pytest.mark.parametrize(
        "first, second",
        [
            ("alg.0.alpha = fixed:0.02", "alg.1.alpha = fixed:0.020"),
            ("alg.0.alpha = fixed:0.02", "alg.1.alpha = fixed:2e-2"),
            ("alg.0.K = fixed:2", "alg.1.K = fixed:02"),
        ],
    )
    def test_sweep_collapses_one_fixed_value_spelled_twice(self, tmp_path, capsys, first, second):
        """Two rows whose fixed alpha or K is one number spelled two ways run the
        same stepsize and rounds at each p, so they share its label as equal rows."""
        config = tmp_path / "exp.cfg"
        config.write_text(
            COMPLETE_GRAPH_CONFIG.replace("run.T = 400", "run.T = 10").replace(
                "alg.0.alpha = one_over_5L\n", ""
            )
            + f"{first}\nalg.1.kind = mg_skip\nalg.1.p = 0.2\nalg.1.name = second\n{second}\n"
        )
        out_dir = tmp_path / "o"
        assert main(["sweep", "--config", str(config), "--out", str(out_dir), "--p", "1"]) == 0
        assert capsys.readouterr().out.startswith("mg_skip_p1: ")
        assert sorted(f.name for f in out_dir.glob("*.csv")) == ["mg_skip_p1__seed0.csv", "summary.csv"]

    def test_sweep_refuses_fixed_k_beside_default(self, tmp_path, capsys):
        """``fixed:1`` is the complete graph's default K, but the rules differ on
        other graphs, so the rows stay distinct and cannot share a label."""
        config = tmp_path / "exp.cfg"
        config.write_text(
            COMPLETE_GRAPH_CONFIG + "alg.1.kind = mg_skip\nalg.1.K = fixed:1\nalg.1.name = one\n"
        )
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "o"), "--p", "1"]) == 2
        assert "rows 'mg_skip_p0.5' and 'one' differ but share 'mg_skip_p1'" in capsys.readouterr().err

    def test_sweep_refuses_p_values_sharing_a_label(self, tmp_path, capsys):
        """Two p values that print alike would give one label two runs: rather
        than run only the first, the sweep names the label and both values."""
        out_dir = tmp_path / "o"
        grid = "0.3400001,0.3400002"
        assert main(["sweep", "--config", str(RING15_CONFIG), "--out", str(out_dir), "--p", grid]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"config error: --p '{grid}': p = 0.3400001 and 0.3400002 differ but share "
            "'mg_skip_p0.34'\n"
        )
        assert captured.out == "" and not out_dir.exists()

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
