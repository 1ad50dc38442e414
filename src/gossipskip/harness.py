"""Experiment orchestration: config files, seed sweeps, CSV traces.

Config files are flat ``key = value`` text with dotted sections, e.g.::

    graph.kind = ring
    graph.n = 15
    problem.kind = least_squares
    problem.d = 10
    problem.mu = 1.0
    problem.kappa_rule = half_over_gap
    problem.seed = 1
    run.T = 5000
    run.tol = 1e-7
    run.seeds = 1,2,3
    alg.0.kind = mg_skip
    alg.0.alpha = one_over_5L
    alg.0.p = 1.0
    summary.baseline = mg_skip_p1

``_KEYS`` gives every key its section, the kinds that read it, its type
and its default.  ``parse_config`` reads each value by its type, rejects
what the table does not allow with an error naming the line, and fills
in the defaults, so ``build_graph`` and ``build_problem`` get complete,
typed sections.

Outputs are one CSV per (algorithm, seed) run with the fixed column
order ``algorithm, seed, t, theta, comm_rounds, grad_evals, rel_err,
psi``, a ``summary.csv`` with iterations/communication to tolerance and
speedup ratios against a declared baseline row, and a ``manifest.json``
holding the config hash, versions, the gossip kernels, the reference's
certified error bound, each run's stop reason and wall-clock timings,
the ``Mbar`` builds' among them (timings never enter the data files, so
reruns are byte-identical).  Every command reading a config sets it up through
:func:`setup_experiment`, which refuses a row's stepsize before the reference
solve; a ``run.tol`` the reference cannot certify is refused before any run.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from itertools import chain, groupby
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import __version__
from .algorithms import RunConfig, RunResult, check_stepsize, mg_skip_run, puda_nids, puda_run
from .gossip import MultiGossipOperator
from .problems import (
    L1Reg,
    ProblemInstance,
    ReferenceSolution,
    centralized_solve,
    gen_least_squares,
    gen_logistic,
    load_libsvm,
    logistic_from_parts,
)
from .topology import Graph, MixingMatrix, build_random_connectivity, build_ring, metropolis_weights

__all__ = [
    "AlgorithmSpec",
    "ExperimentSpec",
    "parse_config",
    "build_graph",
    "build_problem",
    "build_gossip",
    "setup_experiment",
    "run_experiment",
    "reference_certifies",
    "UncertifiedReferenceError",
    "TRACE_COLUMNS",
    "SUMMARY_COLUMNS",
    "GRAPH_KINDS",
]

GRAPH_KINDS = ("ring", "random")

TRACE_COLUMNS = (
    "algorithm",
    "seed",
    "t",
    "theta",
    "comm_rounds",
    "grad_evals",
    "rel_err",
    "psi",
)

# summary.csv's columns: a per-run row fills the first six, an algorithm's mean
# row all but grad_evals_to_tol
SUMMARY_COLUMNS = (
    "algorithm",
    "seed",
    "iterations_to_tol",
    "comm_to_tol",
    "grad_evals_to_tol",
    "final_rel_err",
    "iter_speedup_vs_baseline",
    "comm_speedup_vs_baseline",
)

# the one deterministic primal-dual engine baseline; every other kind skips
_ENGINE_KIND = "puda_nids"

# a run stopping at rel_err < tol needs x* certified to this fraction of tol
_REFERENCE_MARGIN = 1e-3


def _typed(cast, expects: str, text: str, ok=None, bound: str = ""):
    """``text`` read by ``cast`` and held to ``bound`` by ``ok``; errors say what was expected."""
    try:
        value = cast(text)
    except ValueError:
        raise ValueError(f"expected {expects}, got {text!r}") from None
    if ok is not None and not ok(value):
        raise ValueError(f"expected {expects} {bound}, got {text!r}")
    return value


def _choice(label: str, options: tuple[str, ...], text: str) -> str:
    """``text`` when it is one of ``options``."""
    if text not in options:
        raise ValueError(f"unknown {label} {text!r}; expected {' or '.join(options)}")
    return text


def _rule(label: str, names: tuple[str, ...], fixed: str, valid, text: str) -> str:
    """``text`` when it is one of ``names`` or ``fixed:<value>`` with ``valid(value)`` true."""
    prefix, _, value = text.partition(":")
    try:
        ok = text in names or (prefix == "fixed" and valid(value))
    except ValueError:
        ok = False
    if not ok:
        expects = f"{', '.join(names)} or fixed:<{fixed}>"
        raise ValueError(f"unknown {label} rule {text!r}; expected {expects}")
    return text


def _probability(p: float) -> float:
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must be in (0, 1], got {p}")
    return p


def _distinct_ints(text: str) -> tuple[int, ...]:
    values = tuple(int(token) for token in text.split(","))
    if len(set(values)) < len(values) or min(values) < 0:
        raise ValueError("repeated or negative value")
    return values


# the readers: each takes a value's text and returns its typed value
_INT = partial(_typed, int, "an integer")  # int() takes integer literals only, not '1e4'
_FLOAT = partial(_typed, float, "a number")
_BOOL = partial(_typed, lambda text: bool(("false", "true").index(text)), "true or false")
_SEEDS = partial(_typed, _distinct_ints, "distinct integers >= 0 separated by commas")
_COUNT = partial(_INT, ok=lambda v: v >= 1, bound=">= 1")
_RING_N = partial(_INT, ok=lambda v: v >= 3, bound=">= 3")
_SEED = partial(_INT, ok=lambda v: v >= 0, bound=">= 0")
_POSITIVE = partial(_FLOAT, ok=lambda v: 0.0 < v < math.inf, bound="in (0, inf)")
_KAPPA = partial(_FLOAT, ok=lambda v: 1.0 <= v < math.inf, bound="in [1, inf)")
_WEIGHT = partial(_FLOAT, ok=lambda v: 0.0 <= v < math.inf, bound="in [0, inf)")
_UNIT = partial(_FLOAT, ok=lambda v: 0.0 < v <= 1.0, bound="in (0, 1]")
_GRAPH_KIND = partial(_choice, "graph kind", GRAPH_KINDS)
_PROBLEM_KIND = partial(_choice, "problem kind", ("least_squares", "logistic", "libsvm"))
_ALG_KIND = partial(_choice, "algorithm kind", ("mg_skip", "skip1", _ENGINE_KIND))
_KAPPA_RULE = partial(_choice, "kappa rule", ("half_over_gap",))
_ALPHA_RULE = partial(
    _rule, "alpha", ("one_over_5L", "one_over_L"), "float > 0", lambda v: 0.0 < float(v) < math.inf
)
_K_RULE = partial(_rule, "K", ("default",), "int >= 1", lambda v: int(v) >= 1)

# Every config key: section ("alg" stands for each "alg.<i>"), the kinds that
# read it (None: all), reader, and default (None: absent unless set; an absent
# "alg.<i>" key takes AlgorithmSpec's field default).  Readers check each value's
# range; limits tying two keys (iota against n, lsmooth < mu) are the builders'.
_KEYS = (
    ("graph", "kind", None, _GRAPH_KIND, "ring"),
    ("graph", "n", ("ring",), _RING_N, 15),
    ("graph", "n", ("random",), _COUNT, 15),
    ("graph", "iota", ("random",), _UNIT, 0.5),
    ("graph", "seed", ("random",), _SEED, 0),
    ("problem", "kind", None, _PROBLEM_KIND, "least_squares"),
    ("problem", "seed", None, _SEED, 0),
    ("problem", "d", ("least_squares",), _COUNT, 10),
    ("problem", "mu", ("least_squares",), _POSITIVE, 1.0),
    ("problem", "lsmooth", ("least_squares",), _POSITIVE, None),
    ("problem", "kappa_rule", ("least_squares",), _KAPPA_RULE, None),
    ("problem", "kappa", ("least_squares",), _KAPPA, 10.0),
    ("problem", "gamma2", ("least_squares",), _WEIGHT, 0.0),
    ("problem", "d", ("logistic",), _COUNT, 22),
    ("problem", "samples_per_node", ("logistic",), _COUNT, 100),
    ("problem", "path", ("libsvm",), str, None),
    ("problem", "gamma1", ("logistic", "libsvm"), _POSITIVE, 0.01),
    ("problem", "gamma2", ("logistic", "libsvm"), _WEIGHT, 0.001),
    ("alg", "kind", None, _ALG_KIND, "mg_skip"),
    ("alg", "alpha", None, _ALPHA_RULE, None),
    ("alg", "name", None, str, None),
    # skip1 always gossips once; the engine neither skips nor takes a round count
    ("alg", "p", ("mg_skip", "skip1"), _UNIT, None),
    ("alg", "K", ("mg_skip",), _K_RULE, None),
    ("run", "T", None, _COUNT, 1000),
    ("run", "tol", None, _WEIGHT, 0.0),
    ("run", "seeds", None, _SEEDS, (0,)),
    ("run", "diagnostics", None, _BOOL, False),
    ("summary", "baseline", None, str, ""),
)

_DEFAULT_KIND = {section: default for section, field, _, _, default in _KEYS if field == "kind"}
# a least-squares problem takes its curvature from at most one of these;
# kappa's default applies only when none is set
_CURVATURE = ("lsmooth", "kappa_rule", "kappa")
# the AlgorithmSpec field each "alg.<i>" key sets, where the names differ
_ALG_FIELDS = {"alpha": "alpha_rule", "K": "k_rule"}


@dataclass(frozen=True)
class AlgorithmSpec:
    """One algorithm row of an experiment."""

    kind: str
    alpha_rule: str = "one_over_5L"
    p: float = 1.0
    k_rule: str = "default"
    name: str = ""

    def __post_init__(self) -> None:
        # the config readers, so a spec built in code is checked as a config row is
        _ALG_KIND(self.kind)
        _probability(self.p)
        _ALPHA_RULE(self.alpha_rule)
        _K_RULE(self.k_rule)
        if not self.name:
            label = self.kind if self.kind == _ENGINE_KIND else f"{self.kind}_p{self.p:g}"
            object.__setattr__(self, "name", label)

    def resolve_alpha(self, lsmooth: float) -> float:
        if self.alpha_rule == "one_over_5L":
            return 1.0 / (5.0 * lsmooth)
        if self.alpha_rule == "one_over_L":
            return 1.0 / lsmooth
        return float(self.alpha_rule.removeprefix("fixed:"))


@dataclass(frozen=True)
class ExperimentSpec:
    """Problem + graph + algorithm grid + seeds."""

    problem: dict
    graph: dict
    algorithms: tuple[AlgorithmSpec, ...]
    T: int
    tol: float
    seeds: tuple[int, ...]
    diagnostics: bool
    baseline: str

    def __post_init__(self) -> None:
        if not self.seeds:
            raise ValueError("seed list must be non-empty")
        if not self.algorithms:
            raise ValueError("need at least one algorithm")


def parse_config(text: str, base_dir: Path | None = None) -> ExperimentSpec:
    """Parse flat dotted ``key = value`` text into an experiment spec.

    A malformed line, an unknown key or kind, a key its kind does not read,
    an ill-typed value, a repeated algorithm name and an unknown baseline
    are each a ``ValueError`` naming its config line.
    """
    given: dict[str, tuple[int, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ValueError(f"config line {lineno}: empty key or value")
        if key in given:
            raise ValueError(f"config line {lineno}: duplicate key {key!r}")
        given[key] = (lineno, value)

    # after the whole text, so a duplicate key is reported first; kinds before
    # the other keys, so each key is checked against its section's kind
    scopes: dict[str, dict] = {"graph": {}, "problem": {}, "run": {}, "summary": {}}
    for key in sorted(given, key=lambda key: not key.endswith(".kind")):
        lineno, value = given[key]
        section, _, field = key.partition(".")
        scope = section
        if section == "alg":
            aid, _, field = field.partition(".")
            scope = f"alg.{aid}" if aid.isdigit() else ""
        rows = [row for row in _KEYS if scope and row[:2] == (section, field)]
        if not rows:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        values = scopes.setdefault(scope, {})
        kind = values.get("kind", _DEFAULT_KIND.get(section))
        readers = [row[3] for row in rows if row[2] is None or kind in row[2]]
        if not readers:
            raise ValueError(f"config line {lineno}: key {key!r} does not apply to kind {kind!r}")
        try:
            values[field] = readers[0](value)
        except ValueError as err:
            raise ValueError(f"config line {lineno}: {key}: {err}") from None

    problem = scopes["problem"]
    curvature = [key for key in _CURVATURE if key in problem]
    if len(curvature) > 1:
        lineno = max(given[f"problem.{key}"][0] for key in curvature)
        listed = ", ".join(f"problem.{key}" for key in curvature)
        raise ValueError(f"config line {lineno}: set only one of {listed}")
    keep_unset = _CURVATURE if curvature else ()
    for scope, values in scopes.items():
        # a section's kind row comes first, so its kind is set before the rows it selects
        for section, field, kinds, _, default in _KEYS:
            if section != scope.partition(".")[0] or default is None or field in keep_unset:
                continue
            if kinds is None or values["kind"] in kinds:
                values.setdefault(field, default)

    if problem["kind"] == "libsvm":
        # relative to the config's directory; joining keeps an absolute path as it is
        path = (base_dir or Path()) / problem.get("path", "")
        if not path.is_file():
            raise FileNotFoundError(f"libsvm file not found: {path}")
        problem["path"] = str(path)

    alg_scopes = sorted((s for s in scopes if s.startswith("alg.")), key=lambda s: int(s[4:]))
    algorithms = tuple(
        AlgorithmSpec(**{_ALG_FIELDS.get(key, key): value for key, value in scopes[s].items()})
        for s in alg_scopes
    )
    rows: dict[str, str] = {}
    for scope, alg in zip(alg_scopes, algorithms):
        if alg.name in rows:
            # the key that set the name, else the kind it was generated from
            first = min((key for key in given if key.startswith(scope + ".")), key=given.get)
            key = next((k for k in (f"{scope}.name", f"{scope}.kind") if k in given), first)
            raise ValueError(
                f"config line {given[key][0]}: {key}: duplicate algorithm names: "
                f"{alg.name!r} is also {rows[alg.name]}'s name"
            )
        rows[alg.name] = scope
    run, summary = scopes["run"], scopes["summary"]
    if summary["baseline"] and summary["baseline"] not in rows:
        lineno = given["summary.baseline"][0]
        raise ValueError(
            f"config line {lineno}: summary.baseline: {summary['baseline']!r} is not an "
            "algorithm name"
        )
    return ExperimentSpec(
        problem=problem, graph=scopes["graph"], algorithms=algorithms, **run, **summary
    )


class UncertifiedReferenceError(ValueError):
    """The reference ``x*`` is not certified well below ``run.tol``."""


def reference_certifies(reference: ReferenceSolution, tol: float) -> bool:
    """Whether ``reference`` can measure runs that stop at ``rel_err < tol``: its
    certified relative error is at most ``1e-3 * tol``.  Any reference can when
    ``tol`` is 0 (no stop on tolerance)."""
    return tol <= 0.0 or reference.relative_error_bound <= _REFERENCE_MARGIN * tol


def build_graph(graph: dict) -> Graph:
    """The graph of a ``graph`` section: ``kind``, ``n``, and a random one's ``iota`` and ``seed``."""
    if graph["kind"] == "ring":
        return build_ring(graph["n"])
    return build_random_connectivity(graph["n"], graph["iota"], graph["seed"])


def build_problem(spec: ExperimentSpec, mixing: MixingMatrix) -> ProblemInstance:
    problem = spec.problem
    if problem["kind"] == "least_squares":
        mu = problem["mu"]
        if "lsmooth" in problem:
            lsmooth = problem["lsmooth"]
        elif "kappa_rule" in problem:
            # half_over_gap, the one kappa rule
            lsmooth = mu * 0.5 / (1.0 - mixing.rho)
        else:
            lsmooth = mu * problem["kappa"]
        reg = L1Reg(weight=problem["gamma2"]) if problem["gamma2"] > 0.0 else None
        return gen_least_squares(mixing.n, problem["d"], mu, lsmooth, problem["seed"], reg=reg)
    gamma1, gamma2, seed = problem["gamma1"], problem["gamma2"], problem["seed"]
    if problem["kind"] == "logistic":
        samples = problem["samples_per_node"]
        return gen_logistic(mixing.n, problem["d"], samples, gamma1, gamma2, seed)
    return logistic_from_parts(load_libsvm(problem["path"], mixing.n, seed), gamma1, gamma2)


def build_gossip(alg: AlgorithmSpec, mixing: MixingMatrix) -> MultiGossipOperator:
    """``mg_skip``'s Chebyshev rounds (its row's ``K``); one plain round, ``Mbar = W``, for the others."""
    if alg.kind == "mg_skip":
        K = None if alg.k_rule == "default" else int(alg.k_rule.removeprefix("fixed:"))
        return MultiGossipOperator.from_mixing(mixing, K=K)
    return MultiGossipOperator(mixing=mixing, K=1, eta=0.0)


def setup_experiment(
    spec: ExperimentSpec, phases: dict[str, float]
) -> tuple[MixingMatrix, ProblemInstance, tuple[float, ...], ReferenceSolution]:
    """The mixing matrix, problem, each row's stepsize and the reference ``x*``.

    Built in that order from the graph.  The first row, of any kind, whose
    stepsize :func:`check_stepsize` refuses is a ``ValueError`` naming it,
    before the reference solve.  Adds each step's wall-clock seconds to
    ``phases``: ``graph``, ``mixing``, ``problem`` and ``reference``.
    """
    with _timed(phases, "graph"):
        graph = build_graph(spec.graph)
    with _timed(phases, "mixing"):
        mixing = metropolis_weights(graph)
    with _timed(phases, "problem"):
        problem = build_problem(spec, mixing)
    alphas = tuple(alg.resolve_alpha(problem.L) for alg in spec.algorithms)
    for alg, alpha in zip(spec.algorithms, alphas):
        try:
            check_stepsize(alpha, problem)
        except ValueError as err:
            raise ValueError(f"{alg.name}: {err}") from None
    with _timed(phases, "reference"):
        reference = centralized_solve(problem, tol=1e-13)
    return mixing, problem, alphas, reference


def write_trace_csv(path: Path, name: str, seed: int, result: RunResult) -> None:
    """One row per iteration in ``TRACE_COLUMNS`` order.

    Floats are written as ``repr`` (exact round trip); ``psi`` is empty
    where it is NaN.
    """
    k = result.iterations
    rows = zip(
        [name] * k,
        [seed] * k,
        result.ts.tolist(),
        result.thetas.tolist(),
        result.comm_rounds.tolist(),
        result.grad_evals.tolist(),
        map(repr, result.rel_err.tolist()),
        ["" if math.isnan(v) else repr(v) for v in result.psi.tolist()],
    )
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACE_COLUMNS)
        writer.writerows(rows)


def run_experiment(spec: ExperimentSpec, out_dir: str | Path, config_text: str = "") -> dict:
    """Execute every (algorithm, seed) pair and write traces + summary.

    The reference solution is computed once and shared by every run, so
    all relative errors are against the same ``x*``.  Rows whose gossip
    operators agree in ``K`` and ``eta`` share one operator.  Returns the
    summary structure that also lands in ``summary.csv``.

    ``manifest.json`` lists per ``(algorithm, seed)`` the run's stop
    reason, wall-clock seconds and iterations per second; the engine's one
    run is listed under every seed.  ``phase_seconds`` gives the wall-clock
    seconds spent building the graph, the mixing matrix with its spectrum
    and the problem, and writing the traces and ``summary.csv``, next to
    ``reference_seconds``.  A folded operator builds ``Mbar`` in
    the first run that gossips with it, so that run's time includes the
    build; ``mbar_build_seconds`` gives the build's own seconds under the
    algorithm whose run built it.

    Raises, before anything is written, the stepsize ``ValueError`` of
    :func:`setup_experiment`, then :class:`UncertifiedReferenceError` when
    the reference does not certify ``spec.tol`` (see :func:`reference_certifies`).
    """
    started = time.time()
    phases: dict[str, float] = {}
    mixing, problem, alphas, reference = setup_experiment(spec, phases)
    reference_seconds = phases.pop("reference")
    if not reference_certifies(reference, spec.tol):
        raise UncertifiedReferenceError(
            f"run.tol = {spec.tol:g} needs x* certified to {_REFERENCE_MARGIN * spec.tol:.1e} "
            f"relative; its certified bound is {reference.relative_error_bound:.1e}"
        )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    rows, runs = [], []
    kernels: dict[str, str] = {}
    builds: dict[str, float] = {}
    # rows with the same K and eta share one operator, so its neighbour table
    # and Mbar are built once per experiment
    operators: dict[tuple[int, float], MultiGossipOperator] = {}
    for alg, alpha in zip(spec.algorithms, alphas):
        built = build_gossip(alg, mixing)
        gossip = operators.setdefault((built.K, built.eta), built)
        kernels[alg.name] = gossip.kernel
        unbuilt = gossip.mbar_seconds is None
        result = None
        for seed in spec.seeds:
            # the engine ignores the seed, so its one run is every seed's trace
            if result is None or alg.kind != _ENGINE_KIND:
                clock = time.perf_counter()
                try:
                    if alg.kind == _ENGINE_KIND:
                        result = puda_run(
                            problem, puda_nids(gossip), alpha, spec.T, reference, tol=spec.tol
                        )
                    else:
                        cfg = RunConfig(alpha=alpha, p=alg.p, T=spec.T, tol=spec.tol, seed=seed)
                        result = mg_skip_run(
                            problem, gossip, cfg, reference, diagnostics=spec.diagnostics
                        )
                except Exception as err:
                    # traces already on disk stay there; attach the run identity
                    raise RuntimeError(f"run {alg.name}/seed{seed} failed: {err}") from err
                seconds = time.perf_counter() - clock
            with _timed(phases, "traces"):
                write_trace_csv(out / f"{alg.name}__seed{seed}.csv", alg.name, seed, result)
            rows.append(_summary_row(alg.name, seed, result))
            runs.append(
                {
                    "algorithm": alg.name,
                    "seed": seed,
                    "stop_reason": result.stop_reason,
                    "run_seconds": _significant(seconds),
                    "iterations_per_second": _significant(result.iterations / seconds),
                }
            )
        if unbuilt and gossip.mbar_seconds is not None:
            builds[alg.name] = _significant(gossip.mbar_seconds)

    summary = _summarize(rows, spec)
    with _timed(phases, "traces"):
        _write_summary_csv(out / "summary.csv", summary)

    manifest = {
        "config_sha256": hashlib.sha256(config_text.encode()).hexdigest(),
        "package_version": __version__,
        "numpy_version": np.__version__,
        "wall_seconds": round(time.time() - started, 3),
        "rho": mixing.rho,
        "gossip_kernels": kernels,
        "mbar_build_seconds": builds,
        "reference_residual": reference.residual,
        "reference_error_bound": reference.relative_error_bound,
        "reference_iterations": reference.iterations,
        "reference_seconds": _significant(reference_seconds),
        "phase_seconds": {name: _significant(value) for name, value in phases.items()},
        "runs": runs,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return summary


@contextmanager
def _timed(phases: dict[str, float], name: str):
    """Add the wall-clock seconds the ``with`` block takes to ``phases[name]``."""
    clock = time.perf_counter()
    try:
        yield
    finally:
        phases[name] = phases.get(name, 0.0) + time.perf_counter() - clock


def _significant(value: float) -> float:
    """``value`` to six significant digits, for the manifest's timings."""
    return float(f"{value:.6g}")


def _summary_row(name: str, seed: int, result: RunResult) -> dict:
    reached = result.stopped
    return {
        "algorithm": name,
        "seed": seed,
        "iterations_to_tol": int(result.iterations) if reached else None,
        "comm_to_tol": int(result.comm_rounds[-1]) if reached else None,
        "grad_evals_to_tol": int(result.grad_evals[-1]) if reached else None,
        "final_rel_err": float(result.rel_err[-1]),
    }


def _summarize(rows: list[dict], spec: ExperimentSpec) -> dict:
    means: dict[str, dict] = {}
    # each algorithm's rows are consecutive, in config order
    for name, runs in groupby(rows, itemgetter("algorithm")):
        runs = list(runs)
        mean = means[name] = {}
        for key in ("iterations_to_tol", "comm_to_tol", "final_rel_err"):
            # a run that missed the tolerance leaves its algorithm no mean
            values = [row[key] for row in runs]
            mean[key] = None if None in values else sum(values) / len(values)
    baseline = spec.baseline or spec.algorithms[0].name
    base = means[baseline]
    for mean in means.values():
        for key, ratio in (
            ("iterations_to_tol", "iter_speedup_vs_baseline"),
            ("comm_to_tol", "comm_speedup_vs_baseline"),
        ):
            mean[ratio] = base[key] / mean[key] if base[key] and mean[key] else None
    return {"baseline": baseline, "per_run": rows, "mean": means}


def _write_summary_csv(path: Path, summary: dict) -> None:
    """The per-run rows, then one ``mean`` row per algorithm by name, over
    ``SUMMARY_COLUMNS``.  A cell a row lacks or holds as ``None`` is empty, a
    float is written as its ``repr`` and anything else by ``str``: ``csv``'s
    own rule."""
    mean = summary["mean"]
    means = ({"algorithm": name, "seed": "mean", **mean[name]} for name in sorted(mean))
    with open(path, "w", newline="\n") as fh:
        writer = csv.DictWriter(fh, SUMMARY_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(chain(summary["per_run"], means))
