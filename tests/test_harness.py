"""Config parsing, experiment execution, CSV schema."""

from __future__ import annotations

import contextlib
import csv
import importlib.util
import io
import json
import math
import re
import sys
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from gossipskip import (
    AlgorithmSpec,
    MultiGossipOperator,
    ReferenceSolution,
    RunConfig,
    centralized_solve,
    metropolis_weights,
    mg_skip_run,
    parse_config,
    run_experiment,
)
from gossipskip import cli, harness
from gossipskip.harness import (
    TRACE_COLUMNS,
    build_gossip,
    build_graph,
    build_problem,
    write_trace_csv,
)

ROOT = Path(__file__).resolve().parents[1]


def _bench_workloads():
    """``bench/workloads.py``'s workloads, loaded by path as the benchmark loads it."""
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.WORKLOADS


def _loss_arrays(problem):
    return [v for loss in problem.losses for v in vars(loss).values() if isinstance(v, np.ndarray)]

BASE_CONFIG = """
# ring benchmark, two skipping variants
graph.kind = ring
graph.n = 15
problem.kind = least_squares
problem.d = 10
problem.mu = 1.0
problem.kappa_rule = half_over_gap
problem.seed = 1
run.T = 10
run.tol = 0.0
run.seeds = 0
run.diagnostics = false
alg.0.kind = mg_skip
alg.0.alpha = one_over_5L
alg.0.p = 1.0
alg.1.kind = mg_skip
alg.1.alpha = one_over_5L
alg.1.p = 0.5
summary.baseline = mg_skip_p1
"""


# BASE_CONFIG's least-squares lines, which a logistic problem does not read
_LEAST_SQUARES = (
    "problem.kind = least_squares\nproblem.d = 10\nproblem.mu = 1.0\n"
    "problem.kappa_rule = half_over_gap"
)


class TestParseConfig:
    def test_round_trip_fields(self):
        spec = parse_config(BASE_CONFIG)
        assert spec.graph["kind"] == "ring" and spec.graph["n"] == 15
        assert spec.T == 10 and spec.tol == 0.0 and spec.seeds == (0,)
        assert [a.name for a in spec.algorithms] == ["mg_skip_p1", "mg_skip_p0.5"]
        assert spec.baseline == "mg_skip_p1"

    def test_seed_list(self):
        spec = parse_config(BASE_CONFIG.replace("run.seeds = 0", "run.seeds = 3,4,5"))
        assert spec.seeds == (3, 4, 5)

    def test_bad_line(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_config("not a key value pair")

    def test_duplicate_key(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_config("a.b = 1\na.b = 2\nalg.0.kind = mg_skip\nrun.seeds = 0")

    @pytest.mark.parametrize(
        "line",
        [
            "alg.0.k = fixed:2",
            "run.seed = 3",
            "problem.kapa = 50",
            "problem.kappa_coeff = 0.5",
            "alg.0.eta_variant = printed",
            "alg.x.kind = mg_skip",
        ],
    )
    def test_unknown_key(self, line):
        text = BASE_CONFIG + line + "\n"
        lineno = len(text.splitlines())
        key = line.split(" = ")[0]
        with pytest.raises(ValueError, match=f"line {lineno}: unknown key '{key}'"):
            parse_config(text)

    @pytest.mark.parametrize(
        "kind, line",
        [
            ("skip1", "alg.1.K = fixed:3"),
            ("puda_nids", "alg.1.K = fixed:5"),
            ("puda_nids", "alg.1.p = 0.2"),
        ],
    )
    def test_key_unused_by_kind(self, kind, line):
        text = BASE_CONFIG.replace(
            "alg.1.kind = mg_skip\nalg.1.alpha = one_over_5L\nalg.1.p = 0.5\n",
            f"alg.1.kind = {kind}\nalg.1.alpha = one_over_5L\n{line}\n",
        )
        lineno = text.splitlines().index(line) + 1
        key = line.split(" = ")[0]
        with pytest.raises(
            ValueError, match=f"line {lineno}: key '{key}' does not apply to kind '{kind}'"
        ):
            parse_config(text)

    @pytest.mark.parametrize("line", ["graph.iota = 0.5", "graph.seed = 2"])
    def test_graph_key_unused_by_kind(self, line):
        self.check_unused_by_kind(BASE_CONFIG, "ring", line)

    @pytest.mark.parametrize(
        "kind, line",
        [
            ("logistic", "problem.kappa = 3"),
            ("logistic", "problem.mu = 1.0"),
            ("logistic", "problem.kappa_rule = half_over_gap"),
            ("least_squares", "problem.gamma1 = 0.1"),
            ("least_squares", "problem.samples_per_node = 5"),
        ],
    )
    def test_problem_key_unused_by_kind(self, kind, line):
        text = BASE_CONFIG.replace(
            "problem.kind = least_squares\nproblem.d = 10\nproblem.mu = 1.0\n"
            "problem.kappa_rule = half_over_gap\n",
            f"problem.kind = {kind}\nproblem.d = 4\n",
        )
        self.check_unused_by_kind(text, kind, line)

    @staticmethod
    def check_unused_by_kind(text, kind, line):
        text += line + "\n"
        lineno = len(text.splitlines())
        key = line.split(" = ")[0]
        with pytest.raises(
            ValueError, match=f"line {lineno}: key '{key}' does not apply to kind '{kind}'"
        ):
            parse_config(text)

    def test_every_read_key_accepted(self, tmp_path):
        (tmp_path / "data.txt").write_text("+1 1:0.5\n-1 2:0.5\n")
        # every run key, and the one algorithm row each config needs
        base = (
            "run.T = 10\nrun.tol = 0.0\nrun.seeds = 0\nrun.diagnostics = false\n"
            "alg.9.kind = mg_skip\n"
        )
        per_kind = [
            "graph.kind = ring\ngraph.n = 5\n",
            "graph.kind = random\ngraph.n = 5\ngraph.iota = 0.5\ngraph.seed = 2\n",
            "problem.kind = least_squares\nproblem.d = 3\nproblem.mu = 1.0\n"
            "problem.lsmooth = 4.0\nproblem.gamma2 = 0.1\nproblem.seed = 1\n",
            "problem.kappa = 3\n",
            "problem.kappa_rule = half_over_gap\n",
            "problem.kind = logistic\nproblem.d = 3\nproblem.samples_per_node = 5\n"
            "problem.gamma1 = 0.1\nproblem.gamma2 = 0.0\nproblem.seed = 1\n",
            "problem.kind = libsvm\nproblem.path = data.txt\nproblem.gamma1 = 0.1\n"
            "problem.gamma2 = 0.0\nproblem.seed = 1\n",
            "alg.0.kind = mg_skip\nalg.0.alpha = one_over_L\nalg.0.p = 0.5\n"
            "alg.0.K = fixed:2\nalg.0.name = custom\nsummary.baseline = custom\n",
            "alg.0.kind = skip1\nalg.0.alpha = one_over_L\nalg.0.p = 0.5\nalg.0.name = s\n",
            "alg.0.kind = puda_nids\nalg.0.alpha = one_over_L\nalg.0.name = e\n",
        ]
        for keys in per_kind:
            parse_config(base + keys, base_dir=tmp_path)

    def test_readme_and_shipped_configs_parse(self, ring15_mixing):
        readme = (ROOT / "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        shipped = ROOT / "configs" / "ring15.cfg"
        for spec in (
            parse_config(block),
            parse_config(shipped.read_text(), base_dir=shipped.parent),
        ):
            assert build_graph(spec.graph).n == 15
            assert build_problem(spec, ring15_mixing).kappa == pytest.approx(
                0.5 / (1.0 - ring15_mixing.rho)
            )
        # the benchmark's configs too, so a parser that rejects one fails here
        for workload in _bench_workloads().values():
            for seed in (0, 1):
                spec = parse_config(workload.config_text(seed))
                assert spec.seeds == workload.seeds(seed)
                build_problem(spec, metropolis_weights(build_graph(spec.graph)))

    @pytest.mark.parametrize(
        "old, new, key",
        [
            ("graph.n = 15", "graph.n = 15.9", "graph.n"),
            ("graph.n = 15", "graph.n = abc", "graph.n"),
            ("problem.d = 10", "problem.d = ten", "problem.d"),
            ("run.T = 10", "run.T = 2.5", "run.T"),
            ("run.diagnostics = false", "run.diagnostics = no", "run.diagnostics"),
            ("graph.kind = ring", "graph.kind = torus", "graph.kind"),
            ("problem.kind = least_squares", "problem.kind = nope", "problem.kind"),
            ("= half_over_gap", "= half_over_gapp", "problem.kappa_rule"),
            (
                "problem.kappa_rule = half_over_gap",
                "problem.kappa = 3\nproblem.lsmooth = 4.0",
                "problem.lsmooth",
            ),
            ("run.seeds = 0", "run.seeds = 0,0", "run.seeds"),
            ("alg.0.alpha = one_over_5L", "alg.0.alpha = one_over_2L", "alg.0.alpha"),
            ("alg.0.p = 1.0", "alg.0.p = 1.0\nalg.0.K = fixed:0", "alg.0.K"),
            ("alg.0.p = 1.0", "alg.0.p = 1.5", "alg.0.p"),
            ("= mg_skip_p1", "= nope", "summary.baseline"),
            (
                "alg.1.p = 0.5",
                "alg.1.p = 0.5\nalg.1.name = a\nalg.0.name = a",
                "alg.1.name",
            ),
            ("alg.1.p = 0.5", "alg.1.p = 1.0", "alg.1.kind"),
            ("run.T = 10", "run.T = 0", "run.T"),
            ("problem.d = 10", "problem.d = 0", "problem.d"),
            (_LEAST_SQUARES, "problem.kind = logistic\nproblem.d = 0", "problem.d"),
            (_LEAST_SQUARES, "problem.kind = logistic\nproblem.samples_per_node = 0",
             "problem.samples_per_node"),
            ("graph.n = 15", "graph.n = 2", "graph.n"),
            ("graph.kind = ring\ngraph.n = 15", "graph.kind = random\ngraph.n = 0", "graph.n"),
            ("graph.kind = ring", "graph.kind = random\ngraph.seed = -1", "graph.seed"),
            ("problem.seed = 1", "problem.seed = -2", "problem.seed"),
            ("run.seeds = 0", "run.seeds = 1,-1", "run.seeds"),
            ("problem.mu = 1.0", "problem.mu = -1", "problem.mu"),
            ("problem.mu = 1.0", "problem.mu = 0", "problem.mu"),
            ("problem.mu = 1.0", "problem.mu = inf", "problem.mu"),
            ("problem.kappa_rule = half_over_gap", "problem.lsmooth = 0", "problem.lsmooth"),
            (_LEAST_SQUARES, "problem.kind = logistic\nproblem.gamma1 = 0", "problem.gamma1"),
            ("problem.kappa_rule = half_over_gap", "problem.kappa = 0.5", "problem.kappa"),
            ("problem.mu = 1.0", "problem.mu = 1.0\nproblem.gamma2 = -0.1", "problem.gamma2"),
            (_LEAST_SQUARES, "problem.kind = logistic\nproblem.gamma2 = nan", "problem.gamma2"),
            ("graph.kind = ring", "graph.kind = random\ngraph.iota = 0", "graph.iota"),
            ("graph.kind = ring", "graph.kind = random\ngraph.iota = 1.5", "graph.iota"),
            ("run.tol = 0.0", "run.tol = inf", "run.tol"),
            ("run.tol = 0.0", "run.tol = nan", "run.tol"),
            ("run.tol = 0.0", "run.tol = -1e-7", "run.tol"),
        ],
        ids=[
            "n-float",
            "n-text",
            "d-text",
            "T-float",
            "diagnostics-no",
            "graph-kind",
            "problem-kind",
            "kappa-rule",
            "two-curvature-keys",
            "repeated-seeds",
            "alpha-rule",
            "K-rule",
            "p-range",
            "unknown-baseline",
            "repeated-name",
            "repeated-generated-name",
            "T-zero",
            "d-zero",
            "logistic-d-zero",
            "samples-zero",
            "ring-n-2",
            "random-n-0",
            "graph-seed-negative",
            "problem-seed-negative",
            "run-seed-negative",
            "mu-negative",
            "mu-zero",
            "mu-inf",
            "lsmooth-zero",
            "gamma1-zero",
            "kappa-below-1",
            "gamma2-negative",
            "logistic-gamma2-nan",
            "iota-zero",
            "iota-above-1",
            "tol-inf",
            "tol-nan",
            "tol-negative",
        ],
    )
    def test_bad_value_names_line_and_key(self, old, new, key):
        text = BASE_CONFIG.replace(old, new)
        lineno = next(i for i, line in enumerate(text.splitlines(), 1) if line.startswith(key + " ="))
        with pytest.raises(ValueError, match=rf"config line {lineno}: .*{re.escape(key)}"):
            parse_config(text)

    def test_range_bounds_accepted(self):
        """Each key's range includes its bound: a 3-node ring, a 1-node random
        graph with iota = 1, kappa = 1, no L1 weight, seed 0, T = 1 and tol = 0;
        and a run.tol of 1e-7, as the shipped configs set."""
        spec = parse_config(
            BASE_CONFIG.replace("graph.n = 15", "graph.n = 3")
            .replace("problem.kappa_rule = half_over_gap", "problem.kappa = 1\nproblem.gamma2 = 0")
            .replace("problem.seed = 1", "problem.seed = 0")
            .replace("run.T = 10", "run.T = 1")
            .replace("run.tol = 0.0", "run.tol = 0")
        )
        assert (spec.graph["n"], spec.problem["kappa"], spec.problem["gamma2"]) == (3, 1.0, 0.0)
        assert (spec.problem["seed"], spec.T, spec.seeds, spec.tol) == (0, 1, (0,), 0.0)
        assert parse_config(BASE_CONFIG.replace("run.tol = 0.0", "run.tol = 1e-7")).tol == 1e-7
        spec = parse_config(
            BASE_CONFIG.replace("graph.kind = ring\ngraph.n = 15", "graph.kind = random\n"
                                "graph.n = 1\ngraph.iota = 1\ngraph.seed = 0")
        )
        assert spec.graph == {"kind": "random", "n": 1, "iota": 1.0, "seed": 0}

    def test_every_numeric_key_is_ranged(self):
        """No key reads a bare integer or number: each takes a bound, so inf,
        nan or a negative value never reaches a run unchecked."""
        unranged = [
            f"{section}.{field}"
            for section, field, _, reader, _ in harness._KEYS
            if isinstance(reader, partial)
            and reader.func is harness._typed
            and reader.args[0] in (int, float)
            and reader.keywords.get("ok") is None
        ]
        assert unranged == []

    def test_empty_value_names_line(self):
        with pytest.raises(ValueError, match="config line 2: empty key or value"):
            parse_config("graph.kind = ring\nrun.T =\nalg.0.kind = mg_skip\n")

    @pytest.mark.parametrize(
        "text, problem",
        [
            (
                "alg.0.kind = mg_skip\n",
                {"kind": "least_squares", "d": 10, "mu": 1.0, "kappa": 10.0, "gamma2": 0.0,
                 "seed": 0},
            ),
            (
                "problem.kind = logistic\nalg.0.kind = mg_skip\n",
                {"kind": "logistic", "d": 22, "samples_per_node": 100, "gamma1": 0.01,
                 "gamma2": 0.001, "seed": 0},
            ),
        ],
        ids=["least_squares", "logistic"],
    )
    def test_defaults_complete_the_sections(self, ring15_mixing, text, problem):
        spec = parse_config(text)
        assert spec.graph == {"kind": "ring", "n": 15}
        assert spec.problem == problem
        assert (spec.T, spec.tol, spec.seeds, spec.diagnostics) == (1000, 0.0, (0,), False)
        explicit = parse_config(
            "graph.kind = ring\ngraph.n = 15\n"
            + "".join(f"problem.{key} = {value}\n" for key, value in problem.items())
            + "run.T = 1000\nrun.tol = 0.0\nrun.seeds = 0\nrun.diagnostics = false\n"
            "alg.0.kind = mg_skip\n"
        )
        assert explicit.problem == spec.problem
        built = [build_problem(s, ring15_mixing) for s in (spec, explicit)]
        arrays = [_loss_arrays(p) for p in built]
        assert len(arrays[0]) == len(arrays[1]) >= 2 * ring15_mixing.n
        assert all(np.array_equal(a, b) for a, b in zip(*arrays))
        assert built[0].reg.weight == built[1].reg.weight

    def test_missing_libsvm_file(self):
        text = "problem.kind = libsvm\nproblem.path = nope.txt\nalg.0.kind = mg_skip\nrun.seeds = 0"
        with pytest.raises(FileNotFoundError):
            parse_config(text)

    def test_duplicate_algorithm_names(self):
        text = BASE_CONFIG.replace("alg.1.p = 0.5", "alg.1.p = 1.0")
        with pytest.raises(ValueError, match="duplicate algorithm names"):
            parse_config(text)

    def test_unknown_baseline(self):
        text = BASE_CONFIG.replace("summary.baseline = mg_skip_p1", "summary.baseline = nope")
        with pytest.raises(ValueError, match="baseline"):
            parse_config(text)


class TestReferenceCertificate:
    @pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.cfg")), ids=lambda p: p.name)
    def test_shipped_config_reference_certified(self, path):
        """A shipped config never runs against an x* certified above 1e-3 * run.tol."""
        spec = parse_config(path.read_text(), base_dir=path.parent)
        problem = build_problem(spec, metropolis_weights(build_graph(spec.graph)))
        reference = centralized_solve(problem, tol=1e-13)
        assert spec.tol > 0.0
        assert reference.relative_error_bound <= 1e-3 * spec.tol
        assert harness.reference_certifies(reference, spec.tol)

    def test_benchmark_workloads_reference_certified(self):
        for workload in _bench_workloads().values():
            for seed in (0, 1):
                spec = parse_config(workload.config_text(seed))
                problem = build_problem(spec, metropolis_weights(build_graph(spec.graph)))
                reference = centralized_solve(problem, tol=1e-13)
                assert harness.reference_certifies(reference, spec.tol), workload.name

    def test_zero_tolerance_accepts_any_reference(self):
        loose = ReferenceSolution(xstar=np.ones(2), residual=1.0, iterations=1, error_bound=1.0)
        assert harness.reference_certifies(loose, 0.0)
        assert not harness.reference_certifies(loose, 1e-7)

    def test_manifest_records_certificate(self, tmp_path):
        """Least squares is one direct solve (0 iterations); the logistic L1
        problem iterates.  Both bounds sit far below 1e-13 relative."""
        logistic = re.sub(
            r"problem\.kind = least_squares.*?problem\.seed = 1\n",
            "problem.kind = logistic\nproblem.d = 5\nproblem.samples_per_node = 20\nproblem.seed = 1\n",
            BASE_CONFIG,
            flags=re.S,
        )
        iterations = {}
        for label, text in (("ls", BASE_CONFIG), ("logistic", logistic)):
            run_experiment(parse_config(text), tmp_path / label, config_text=text)
            manifest = json.loads((tmp_path / label / "manifest.json").read_text())
            assert 0.0 <= manifest["reference_error_bound"] <= 1e-13
            iterations[label] = manifest["reference_iterations"]
        assert iterations["ls"] == 0 and iterations["logistic"] > 0

    def test_refuses_tolerance_below_certificate(self, tmp_path):
        text = BASE_CONFIG.replace("run.tol = 0.0", "run.tol = 1e-14")
        with pytest.raises(harness.UncertifiedReferenceError, match="run.tol = 1e-14"):
            run_experiment(parse_config(text), tmp_path / "out", config_text=text)
        assert not (tmp_path / "out").exists()


class TestAlgorithmSpec:
    def test_alpha_rules(self):
        a = AlgorithmSpec(kind="mg_skip", alpha_rule="one_over_5L")
        assert a.resolve_alpha(2.0) == pytest.approx(0.1)
        b = AlgorithmSpec(kind="mg_skip", alpha_rule="one_over_L")
        assert b.resolve_alpha(2.0) == pytest.approx(0.5)
        c = AlgorithmSpec(kind="mg_skip", alpha_rule="fixed:0.03")
        assert c.resolve_alpha(2.0) == pytest.approx(0.03)

    def test_k_rules(self, ring15_mixing):
        assert build_gossip(AlgorithmSpec(kind="mg_skip"), ring15_mixing).K == 4
        assert build_gossip(AlgorithmSpec(kind="mg_skip", k_rule="fixed:2"), ring15_mixing).K == 2

    @pytest.mark.parametrize(
        "field, rule",
        [
            ("alpha_rule", "one_over_2L"),
            ("alpha_rule", "fixed:0"),
            ("alpha_rule", "fixed:-0.1"),
            ("alpha_rule", "fixed:nan"),
            ("alpha_rule", "fixed:abc"),
            ("alpha_rule", "0.1"),
            ("k_rule", "twice"),
            ("k_rule", "fixed:0"),
            ("k_rule", "fixed:2.5"),
            ("k_rule", "3"),
        ],
    )
    def test_bad_rule_rejected_at_construction(self, field, rule):
        label = "alpha" if field == "alpha_rule" else "K"
        with pytest.raises(ValueError, match=f"unknown {label} rule '{rule}'"):
            AlgorithmSpec(kind="mg_skip", **{field: rule})

    @pytest.mark.parametrize("kind", ["skip1", "puda_nids"])
    def test_skip1_uses_plain_mixing(self, ring15_mixing, kind):
        op = build_gossip(AlgorithmSpec(kind=kind), ring15_mixing)
        assert op.K == 1 and op.eta == 0.0
        assert np.array_equal(op.mbar, ring15_mixing.w)

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            AlgorithmSpec(kind="unknown")

    def test_kind_reading_no_p_keeps_the_default(self):
        # the engine reads no p, so a p grid gives it one spec, under one label
        assert AlgorithmSpec(kind="puda_nids", p=0.5) == AlgorithmSpec(kind="puda_nids")
        assert AlgorithmSpec(kind="puda_nids", p=0.5).name == "puda_nids"
        assert AlgorithmSpec(kind="skip1", p=0.5).p == 0.5

    @pytest.mark.parametrize("name", ["../escaped", "a/b", "a\\b", "a\0b"])
    def test_name_that_is_no_file_name_rejected(self, name):
        # the name is the trace file's; the config reader refuses the same names
        with pytest.raises(ValueError, match="expected a name without '/', '\\\\' or NUL"):
            AlgorithmSpec(kind="mg_skip", name=name)


class TestRunExperiment:
    def test_exact_row_count_and_schema(self, tmp_path):
        spec = parse_config(BASE_CONFIG)
        run_experiment(spec, tmp_path, config_text=BASE_CONFIG)
        trace = (tmp_path / "mg_skip_p1__seed0.csv").read_text().splitlines()
        assert trace[0] == ",".join(TRACE_COLUMNS)
        assert len(trace) == 1 + 10  # header + exactly T rows
        assert (tmp_path / "summary.csv").exists()
        assert (tmp_path / "manifest.json").exists()

    def test_manifest_records_gossip_kernels(self, tmp_path):
        small = BASE_CONFIG + "alg.2.kind = puda_nids\nalg.2.alpha = one_over_5L\n"
        # ring-240 is above the gather crossover (240 >= 20 * 3 nonzeros per row + 100);
        # mg_skip's K = 66 rounds fold into one product (2 * 240 < 66 * 160), the
        # one-round operator's do not
        large = BASE_CONFIG.replace("graph.n = 15", "graph.n = 240").replace(
            "problem.kappa_rule = half_over_gap", "problem.kappa = 2"
        )
        large += "alg.2.kind = puda_nids\nalg.2.alpha = one_over_5L\n"
        kernels = {}
        for label, text in (("small", small), ("large", large)):
            run_experiment(parse_config(text), tmp_path / label, config_text=text)
            manifest = json.loads((tmp_path / label / "manifest.json").read_text())
            kernels[label] = manifest["gossip_kernels"]
        assert kernels == {
            "small": {"mg_skip_p1": "folded", "mg_skip_p0.5": "folded", "puda_nids": "folded"},
            "large": {
                "mg_skip_p1": "folded",
                "mg_skip_p0.5": "folded",
                "puda_nids": "neighbour",
            },
        }
        rows = (tmp_path / "large" / "mg_skip_p1__seed0.csv").read_text().splitlines()
        assert rows[0] == ",".join(TRACE_COLUMNS) and len(rows) == 1 + 10

    def test_manifest_records_mbar_build_seconds(self, tmp_path):
        """``mbar_build_seconds`` lists the build under the algorithm whose run
        built ``Mbar``: the first folded row, on ring-15 as on ring-240.  The
        p = 0.5 row shares its operator, and the gathered one builds none."""
        large = BASE_CONFIG.replace("graph.n = 15", "graph.n = 240").replace(
            "problem.kappa_rule = half_over_gap", "problem.kappa = 2"
        )
        large += "alg.2.kind = puda_nids\nalg.2.alpha = one_over_5L\n"
        builds = {}
        for label, text in (("small", BASE_CONFIG), ("large", large)):
            run_experiment(parse_config(text), tmp_path / label, config_text=text)
            manifest = json.loads((tmp_path / label / "manifest.json").read_text())
            builds[label] = manifest["mbar_build_seconds"]
        for label in ("small", "large"):
            assert list(builds[label]) == ["mg_skip_p1"] and builds[label]["mg_skip_p1"] > 0.0

    def test_operator_built_once_per_experiment(self, tmp_path, monkeypatch):
        """A ring-240 sweep over three p values builds one folded operator's Mbar once."""
        built = []
        build = MultiGossipOperator.mbar.func
        monkeypatch.setattr(MultiGossipOperator.mbar, "func", lambda op: built.append(op) or build(op))
        text = BASE_CONFIG.replace("graph.n = 15", "graph.n = 240").replace(
            "problem.kappa_rule = half_over_gap", "problem.kappa = 2"
        )
        config = tmp_path / "ring240.cfg"
        config.write_text(text)
        argv = ["sweep", "--config", str(config), "--out", str(tmp_path / "out"), "--p", "1,0.5,0.34"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        assert len(built) == 1 and built[0].kernel == "folded"
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["gossip_kernels"] == dict.fromkeys(
            ["mg_skip_p1", "mg_skip_p0.5", "mg_skip_p0.34"], "folded"
        )

    def test_manifest_lists_runs(self, tmp_path):
        text = (
            BASE_CONFIG.replace("run.seeds = 0", "run.seeds = 0,1")
            + "alg.2.kind = puda_nids\nalg.2.alpha = one_over_5L\n"
        )
        run_experiment(parse_config(text), tmp_path, config_text=text)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["reference_seconds"] > 0.0
        phases = manifest["phase_seconds"]
        assert list(phases) == ["graph", "mixing", "problem", "traces"]
        assert all(seconds > 0.0 for seconds in phases.values())
        runs = manifest["runs"]
        # phases, reference and runs (the engine's counted once) are disjoint parts of the wall time
        timed = sum(phases.values()) + manifest["reference_seconds"]
        timed += sum(run["run_seconds"] for run in runs[:5])
        assert timed <= manifest["wall_seconds"] + 1e-3
        assert [(run["algorithm"], run["seed"]) for run in runs] == [
            (name, seed) for name in ("mg_skip_p1", "mg_skip_p0.5", "puda_nids") for seed in (0, 1)
        ]
        assert {run["stop_reason"] for run in runs} == {"horizon"}
        for run in runs:
            assert run["run_seconds"] > 0.0
            assert run["iterations_per_second"] == pytest.approx(10 / run["run_seconds"], rel=1e-5)
        # the engine's one run is listed under both seeds
        assert runs[4] == dict(runs[5], seed=0)
        early = text.replace("run.T = 10", "run.T = 5000").replace("run.tol = 0.0", "run.tol = 1e-5")
        run_experiment(parse_config(early), tmp_path / "early", config_text=early)
        runs = json.loads((tmp_path / "early" / "manifest.json").read_text())["runs"]
        assert {run["stop_reason"] for run in runs} == {"tol"}

    def test_early_stop_fewer_rows(self, tmp_path):
        text = BASE_CONFIG.replace("run.T = 10", "run.T = 5000").replace(
            "run.tol = 0.0", "run.tol = 1e-5"
        )
        spec = parse_config(text)
        summary = run_experiment(spec, tmp_path, config_text=text)
        iters = summary["mean"]["mg_skip_p1"]["iterations_to_tol"]
        assert iters is not None and iters < 5000

    def test_determinism_byte_identical(self, tmp_path):
        spec = parse_config(BASE_CONFIG)
        run_experiment(spec, tmp_path / "a", config_text=BASE_CONFIG)
        run_experiment(spec, tmp_path / "b", config_text=BASE_CONFIG)
        for name in ("mg_skip_p1__seed0.csv", "mg_skip_p0.5__seed0.csv", "summary.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_speedup_ratios_against_baseline(self, tmp_path):
        text = BASE_CONFIG.replace("run.T = 10", "run.T = 5000").replace(
            "run.tol = 0.0", "run.tol = 1e-6"
        )
        spec = parse_config(text)
        summary = run_experiment(spec, tmp_path, config_text=text)
        base = summary["mean"]["mg_skip_p1"]
        other = summary["mean"]["mg_skip_p0.5"]
        assert base["iter_speedup_vs_baseline"] == pytest.approx(1.0)
        # p = 0.5 halves communication at unchanged iteration count
        assert other["comm_speedup_vs_baseline"] > 1.5

    def test_summary_csv_columns(self, tmp_path):
        """``summary.csv`` has one communication column, and every per-run and
        mean row fills the header with its cells in the header's order."""
        text = BASE_CONFIG.replace("run.T = 10", "run.T = 5000").replace(
            "run.tol = 0.0", "run.tol = 1e-6"
        )
        summary = run_experiment(parse_config(text), tmp_path, config_text=text)
        with open(tmp_path / "summary.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == [
            "algorithm",
            "seed",
            "iterations_to_tol",
            "comm_to_tol",
            "grad_evals_to_tol",
            "final_rel_err",
            "iter_speedup_vs_baseline",
            "comm_speedup_vs_baseline",
        ]
        assert all(len(row) == len(header) for row in rows)
        means = {row[0]: dict(zip(header, row)) for row in rows if row[1] == "mean"}
        for name, m in summary["mean"].items():
            assert float(means[name]["comm_to_tol"]) == m["comm_to_tol"]
            assert float(means[name]["final_rel_err"]) == m["final_rel_err"]
            assert float(means[name]["comm_speedup_vs_baseline"]) == m["comm_speedup_vs_baseline"]

    def test_summary_rows_share_one_layout(self, tmp_path):
        """Means group each algorithm's runs in config order; a run that missed
        the tolerance leaves no mean and no speedup.  In ``summary.csv`` the
        mean rows follow by name, a cell a row lacks or holds as ``None`` is
        empty, a float is its ``repr`` and an integer its digits."""
        rows = [
            {"algorithm": "b", "seed": 0, "iterations_to_tol": 3, "comm_to_tol": 6,
             "grad_evals_to_tol": 3, "final_rel_err": 0.1},
            {"algorithm": "b", "seed": 1, "iterations_to_tol": 4, "comm_to_tol": 8,
             "grad_evals_to_tol": 4, "final_rel_err": 0.2},
            {"algorithm": "a", "seed": 0, "iterations_to_tol": None, "comm_to_tol": None,
             "grad_evals_to_tol": None, "final_rel_err": 0.5},
        ]
        spec = SimpleNamespace(baseline="", algorithms=(SimpleNamespace(name="b"),))
        summary = harness._summarize(rows, spec)
        assert summary["baseline"] == "b" and summary["per_run"] is rows
        assert summary["mean"] == {
            "b": {"iterations_to_tol": 3.5, "comm_to_tol": 7.0,
                  "final_rel_err": 0.15000000000000002,
                  "iter_speedup_vs_baseline": 1.0, "comm_speedup_vs_baseline": 1.0},
            "a": {"iterations_to_tol": None, "comm_to_tol": None, "final_rel_err": 0.5,
                  "iter_speedup_vs_baseline": None, "comm_speedup_vs_baseline": None},
        }
        assert list(summary["mean"]) == ["b", "a"]
        harness._write_summary_csv(tmp_path / "summary.csv", summary)
        assert (tmp_path / "summary.csv").read_text() == (
            ",".join(harness.SUMMARY_COLUMNS) + "\n"
            "b,0,3,6,3,0.1,,\n"
            "b,1,4,8,4,0.2,,\n"
            "a,0,,,,0.5,,\n"
            "a,mean,,,,0.5,,\n"
            "b,mean,3.5,7.0,,0.15000000000000002,1.0,1.0\n"
        )

    def test_monotone_counters_in_trace(self, tmp_path):
        spec = parse_config(BASE_CONFIG)
        run_experiment(spec, tmp_path, config_text=BASE_CONFIG)
        rows = (tmp_path / "mg_skip_p0.5__seed0.csv").read_text().splitlines()[1:]
        comm = [int(r.split(",")[4]) for r in rows]
        grad = [int(r.split(",")[5]) for r in rows]
        assert comm == sorted(comm) and grad == sorted(grad)

    def test_engine_row_runs_once_for_all_seeds(self, tmp_path, monkeypatch):
        calls = []
        puda_run = harness.puda_run

        def counted(*args, **kwargs):
            calls.append(args)
            return puda_run(*args, **kwargs)

        monkeypatch.setattr(harness, "puda_run", counted)
        text = (
            BASE_CONFIG.replace("run.seeds = 0", "run.seeds = 0,1")
            + "alg.2.kind = puda_nids\nalg.2.alpha = one_over_5L\n"
        )
        summary = run_experiment(parse_config(text), tmp_path, config_text=text)
        assert len(calls) == 1
        traces = [
            (tmp_path / f"puda_nids__seed{seed}.csv").read_text().splitlines()
            for seed in (0, 1)
        ]
        assert len(traces[0]) == len(traces[1]) == 1 + 10
        for row0, row1 in zip(traces[0][1:], traces[1][1:]):
            cells0, cells1 = row0.split(","), row1.split(",")
            assert (cells0[1], cells1[1]) == ("0", "1")
            assert cells0[:1] + cells0[2:] == cells1[:1] + cells1[2:]
        engine_rows = [row for row in summary["per_run"] if row["algorithm"] == "puda_nids"]
        assert [row["seed"] for row in engine_rows] == [0, 1]

    def test_puda_algorithms_run(self, tmp_path):
        text = BASE_CONFIG + "alg.2.kind = puda_nids\nalg.2.alpha = one_over_5L\n"
        spec = parse_config(text)
        summary = run_experiment(spec, tmp_path, config_text=text)
        assert "puda_nids" in summary["mean"]

    def test_libsvm_problem_kind_with_relative_path(self, tmp_path):
        data = tmp_path / "tiny.libsvm"
        lines = [f"{'+1' if i % 2 else '-1'} 1:{0.1 * i:.2f} 3:1.0" for i in range(12)]
        data.write_text("\n".join(lines) + "\n")
        config = tmp_path / "exp.cfg"
        config.write_text(
            """
graph.kind = ring
graph.n = 3
problem.kind = libsvm
problem.path = tiny.libsvm
problem.gamma1 = 0.05
problem.gamma2 = 0.01
problem.seed = 0
run.T = 8
run.seeds = 0
alg.0.kind = mg_skip
alg.0.alpha = one_over_L
alg.0.p = 1.0
"""
        )
        # the path resolves relative to the config's directory
        spec = parse_config(config.read_text(), base_dir=config.parent)
        summary = run_experiment(spec, tmp_path / "out", config_text=config.read_text())
        assert summary["per_run"][0]["final_rel_err"] < 1.0

    def test_logistic_problem_kind(self, tmp_path):
        text = """
graph.kind = random
graph.n = 8
graph.iota = 0.5
graph.seed = 2
problem.kind = logistic
problem.d = 6
problem.samples_per_node = 20
problem.gamma1 = 0.05
problem.gamma2 = 0.01
problem.seed = 0
run.T = 5
run.seeds = 1
alg.0.kind = mg_skip
alg.0.alpha = one_over_L
alg.0.p = 0.5
"""
        spec = parse_config(text)
        summary = run_experiment(spec, tmp_path, config_text=text)
        assert summary["per_run"][0]["algorithm"] == "mg_skip_p0.5"

    def test_run_errors_carry_run_identity(self, tmp_path, diverging_engine):
        text = BASE_CONFIG.replace(
            "alg.1.kind = mg_skip\nalg.1.alpha = one_over_5L\nalg.1.p = 0.5",
            "alg.1.kind = puda_nids\nalg.1.alpha = one_over_5L",
        )
        spec = parse_config(text)
        with pytest.raises(RuntimeError, match="puda_nids/seed0 failed: non-finite iterate"):
            run_experiment(spec, tmp_path, config_text=text)
        # the first algorithm's trace survives the failure
        assert (tmp_path / "mg_skip_p1__seed0.csv").exists()

    def test_diagnostics_column_populated(self, tmp_path):
        text = BASE_CONFIG.replace("run.diagnostics = false", "run.diagnostics = true")
        spec = parse_config(text)
        run_experiment(spec, tmp_path, config_text=text)
        rows = (tmp_path / "mg_skip_p1__seed0.csv").read_text().splitlines()[1:]
        psi = [r.split(",")[7] for r in rows]
        assert all(cell != "" for cell in psi)
        assert float(psi[0]) > float(psi[-1])


class TestTraceCsv:
    @pytest.mark.parametrize("diagnostics", [False, True])
    def test_round_trip(self, tmp_path, bench, diagnostics):
        cfg = RunConfig(alpha=bench.alpha, p=0.5, T=40, tol=0.0, seed=3)
        result = mg_skip_run(
            bench.problem, bench.gossip, cfg, bench.reference, diagnostics=diagnostics
        )
        path = tmp_path / "trace.csv"
        write_trace_csv(path, "mg_skip_p0.5", 3, result)
        with open(path, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert tuple(header) == TRACE_COLUMNS
        assert len(rows) == result.iterations == 40
        columns = {name: [row[i] for row in rows] for i, name in enumerate(header)}
        assert columns["algorithm"] == ["mg_skip_p0.5"] * 40
        assert columns["seed"] == ["3"] * 40
        for name, values in (
            ("t", result.ts),
            ("theta", result.thetas),
            ("comm_rounds", result.comm_rounds),
            ("grad_evals", result.grad_evals),
            ("rel_err", result.rel_err),
        ):
            assert all(float(cell) == value for cell, value in zip(columns[name], values))
        for cell, value in zip(columns["psi"], result.psi):
            assert (cell == "") == math.isnan(value)
            assert cell == "" or float(cell) == value
        assert all(cell != "" for cell in columns["psi"]) == diagnostics

    @pytest.mark.parametrize(
        "name, diagnostics", [('a,"b"', False), ("mg_skip_p0.5", True), ("x y\nz", True)]
    )
    def test_bytes_match_csv_writer(self, tmp_path, bench, name, diagnostics):
        cfg = RunConfig(alpha=bench.alpha, p=0.5, T=40, tol=0.0, seed=3)
        result = mg_skip_run(
            bench.problem, bench.gossip, cfg, bench.reference, diagnostics=diagnostics
        )
        assert np.isfinite(result.psi).all() == diagnostics
        path = tmp_path / "trace.csv"
        write_trace_csv(path, name, 3, result)
        want = io.StringIO(newline="")
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(TRACE_COLUMNS)
        columns = (result.thetas, result.comm_rounds, result.rel_err, result.psi)
        for k, (theta, comm, err, psi) in enumerate(zip(*(c.tolist() for c in columns))):
            cell = "" if math.isnan(psi) else repr(psi)
            writer.writerow([name, 3, k, theta, comm, k + 1, repr(err), cell])
        assert path.read_bytes() == want.getvalue().encode()


class TestBuilders:
    def test_build_graph_random(self):
        spec = parse_config(
            "graph.kind = random\ngraph.n = 12\ngraph.iota = 0.4\ngraph.seed = 1\n"
            "alg.0.kind = mg_skip\nrun.seeds = 0"
        )
        g = build_graph(spec.graph)
        assert g.n == 12 and g.m == int(0.4 * 12 * 11 / 2)

    def test_build_problem_kappa_rule(self, ring15_mixing):
        spec = parse_config(BASE_CONFIG)
        p = build_problem(spec, ring15_mixing)
        assert p.kappa == pytest.approx(0.5 / (1.0 - ring15_mixing.rho))

    def test_build_problem_explicit_lsmooth(self, ring15_mixing):
        text = BASE_CONFIG.replace(
            "problem.kappa_rule = half_over_gap", "problem.lsmooth = 4.0"
        )
        p = build_problem(parse_config(text), ring15_mixing)
        assert p.L == pytest.approx(4.0)

    def test_unknown_kappa_rule_rejected(self, ring15_mixing):
        text = BASE_CONFIG.replace("= half_over_gap", "= half_over_gapp")
        with pytest.raises(ValueError, match="unknown kappa rule 'half_over_gapp'"):
            build_problem(parse_config(text), ring15_mixing)

    def test_curvature_set_once(self, ring15_mixing):
        text = BASE_CONFIG.replace(
            "problem.kappa_rule = half_over_gap",
            "problem.lsmooth = 4.0\nproblem.kappa = 3",
        )
        with pytest.raises(ValueError, match="set only one of problem.lsmooth, problem.kappa"):
            build_problem(parse_config(text), ring15_mixing)


class TestPSweepDirection:
    def test_comm_to_tol_shrinks_down_to_optimal_p(self, tmp_path, bench):
        """Inside p in [1/sqrt(kappa), 1], smaller p saves communication."""
        p_star = 1.0 / np.sqrt(bench.kappa)
        text = BASE_CONFIG.replace("run.T = 10", "run.T = 5000").replace(
            "run.tol = 0.0", "run.tol = 1e-7"
        )
        spec = parse_config(text)
        from dataclasses import replace as dc_replace

        algs = tuple(
            dc_replace(spec.algorithms[0], p=p, name=f"mg_skip_p{p:g}")
            for p in (1.0, 0.5, round(float(p_star), 4))
        )
        spec = dc_replace(spec, algorithms=algs, baseline="mg_skip_p1")
        summary = run_experiment(spec, tmp_path, config_text=text)
        comms = [summary["mean"][a.name]["comm_to_tol"] for a in algs]
        assert comms[0] > comms[1] > comms[2]
        iters = [summary["mean"][a.name]["iterations_to_tol"] for a in algs]
        assert max(iters) / min(iters) <= 1.05
