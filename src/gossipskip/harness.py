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

Outputs are one CSV per (algorithm, seed) run with the fixed column
order ``algorithm, seed, t, theta, comm_rounds, grad_evals, rel_err,
psi``, a ``summary.csv`` with iterations/communication to tolerance and
speedup ratios against a declared baseline row, and a ``manifest.json``
holding the config hash, versions and wall-clock timings (timings never
enter the data files, so reruns are byte-identical).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .algorithms import RunConfig, RunResult, mg_skip_run, puda_nids, puda_run
from .gossip import MultiGossipOperator, default_K
from .problems import (
    L1Reg,
    ProblemInstance,
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
    "run_experiment",
    "TRACE_COLUMNS",
]

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

# the one deterministic primal-dual engine baseline; every other kind skips
_ENGINE_KIND = "puda_nids"

# the keys each kind reads, per config section; a section's first kind is
# its default, and "alg.<i>." prefixes the per-algorithm keys
_KIND_KEYS = {
    "graph": {
        "ring": {"kind", "n"},
        "random": {"kind", "n", "iota", "seed"},
    },
    "problem": {
        "least_squares": {"kind", "d", "mu", "lsmooth", "kappa", "kappa_rule", "gamma2", "seed"},
        "logistic": {"kind", "d", "samples_per_node", "gamma1", "gamma2", "seed"},
        "libsvm": {"kind", "path", "gamma1", "gamma2", "seed"},
    },
    "alg": {
        "mg_skip": {"kind", "alpha", "p", "K", "name"},
        # skip1 always gossips once; the engine neither skips nor takes a round count
        "skip1": {"kind", "alpha", "p", "name"},
        _ENGINE_KIND: {"kind", "alpha", "name"},
    },
    # sections without a kind: one key set, under the kind ""
    "run": {"": {"T", "tol", "seeds", "diagnostics"}},
    "summary": {"": {"baseline"}},
}


@dataclass(frozen=True)
class AlgorithmSpec:
    """One algorithm row of an experiment."""

    kind: str
    alpha_rule: str = "one_over_5L"
    p: float = 1.0
    k_rule: str = "default"
    name: str = ""

    def __post_init__(self) -> None:
        if self.kind not in _KIND_KEYS["alg"]:
            raise ValueError(f"unknown algorithm kind {self.kind!r}")
        if not 0.0 < self.p <= 1.0:
            raise ValueError(f"p must be in (0, 1], got {self.p}")
        # resolving checks both rules, so a bad one fails with the config
        self.resolve_alpha(1.0)
        self.resolve_K(0.0)
        if not self.name:
            label = self.kind if self.kind == _ENGINE_KIND else f"{self.kind}_p{self.p:g}"
            object.__setattr__(self, "name", label)

    def resolve_alpha(self, lsmooth: float) -> float:
        if self.alpha_rule == "one_over_5L":
            return 1.0 / (5.0 * lsmooth)
        if self.alpha_rule == "one_over_L":
            return 1.0 / lsmooth
        alpha = _fixed(self.alpha_rule, float)
        if not 0.0 < alpha < math.inf:
            expected = "one_over_5L, one_over_L or fixed:<float > 0>"
            raise ValueError(f"unknown alpha rule {self.alpha_rule!r}; expected {expected}")
        return alpha

    def resolve_K(self, rho: float) -> int:
        if self.k_rule == "default":
            return default_K(rho)
        k = _fixed(self.k_rule, int)
        if k < 1:
            expected = "default or fixed:<int >= 1>"
            raise ValueError(f"unknown K rule {self.k_rule!r}; expected {expected}")
        return k


def _fixed(rule: str, cast):
    """The value of a ``fixed:<value>`` rule read by ``cast``, else 0, which no rule accepts."""
    prefix, _, text = rule.partition(":")
    try:
        return cast(text) if prefix == "fixed" else 0
    except ValueError:
        return 0


@dataclass(frozen=True)
class ExperimentSpec:
    """Problem + graph + algorithm grid + seeds."""

    problem: dict
    graph: dict
    algorithms: tuple[AlgorithmSpec, ...]
    T: int
    tol: float
    seeds: tuple[int, ...]
    diagnostics: bool = False
    baseline: str = ""

    def __post_init__(self) -> None:
        if not self.seeds:
            raise ValueError("seed list must be non-empty")
        if not self.algorithms:
            raise ValueError("need at least one algorithm")
        names = [a.name for a in self.algorithms]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate algorithm names: {names}")
        if self.baseline and self.baseline not in names:
            raise ValueError(f"baseline {self.baseline!r} is not an algorithm name")


def _coerce(value: str):
    low = value.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        pass
    return value


def parse_config(text: str, base_dir: Path | None = None) -> ExperimentSpec:
    """Parse flat dotted ``key = value`` text into an experiment spec."""
    table: dict[str, str] = {}
    linenos: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ValueError(f"config line {lineno}: empty key or value")
        if key in table:
            raise ValueError(f"config line {lineno}: duplicate key {key!r}")
        table[key] = value
        linenos[key] = lineno
    # after the whole text, so a duplicate key is reported before an unknown one
    for key, lineno in linenos.items():
        error = _key_error(key, table)
        if error:
            raise ValueError(f"config line {lineno}: {error}")

    def section(prefix: str) -> dict:
        out = {}
        for key, value in table.items():
            if key.startswith(prefix + "."):
                out[key[len(prefix) + 1 :]] = _coerce(value)
        return out

    problem = section("problem")
    graph = section("graph")
    run = section("run")
    summary = section("summary")

    if problem.get("kind") == "libsvm":
        path = Path(str(problem.get("path", "")))
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        if not path.exists():
            raise FileNotFoundError(f"libsvm file not found: {path}")
        problem["path"] = str(path)

    alg_ids = sorted(
        {key.split(".")[1] for key in table if key.startswith("alg.")}, key=int
    )
    algorithms = []
    for aid in alg_ids:
        entry = section(f"alg.{aid}")
        algorithms.append(
            AlgorithmSpec(
                kind=str(entry.get("kind", "mg_skip")),
                alpha_rule=str(entry.get("alpha", "one_over_5L")),
                p=float(entry.get("p", 1.0)),
                k_rule=str(entry.get("K", "default")),
                name=str(entry.get("name", "")),
            )
        )

    seeds_raw = run.get("seeds", "0")
    if isinstance(seeds_raw, int):
        seeds = (seeds_raw,)
    else:
        seeds = tuple(int(s) for s in str(seeds_raw).split(",") if s.strip())

    return ExperimentSpec(
        problem=problem,
        graph=graph,
        algorithms=tuple(algorithms),
        T=int(run.get("T", 1000)),
        tol=float(run.get("tol", 0.0)),
        seeds=seeds,
        diagnostics=bool(run.get("diagnostics", False)),
        baseline=str(summary.get("baseline", "")),
    )


def _key_error(key: str, table: dict[str, str]) -> str | None:
    """Why ``key`` is rejected, or None when its section and kind read it."""
    section, _, field = key.partition(".")
    scope = section
    if section == "alg":
        aid, _, field = field.partition(".")
        if not aid.isdigit():
            return f"unknown key {key!r}"
        scope = f"alg.{aid}"
    kinds = _KIND_KEYS.get(section, {})
    if not any(field in keys for keys in kinds.values()):
        return f"unknown key {key!r}"
    kind = table.get(f"{scope}.kind", next(iter(kinds)))
    # an unknown kind is reported where it is built
    if kind in kinds and field not in kinds[kind]:
        return f"key {key!r} does not apply to kind {kind!r}"
    return None


def build_graph(spec: ExperimentSpec) -> Graph:
    kind = spec.graph.get("kind", "ring")
    n = int(spec.graph.get("n", 15))
    if kind == "ring":
        return build_ring(n)
    if kind == "random":
        return build_random_connectivity(
            n, float(spec.graph.get("iota", 0.5)), int(spec.graph.get("seed", 0))
        )
    raise ValueError(f"unknown graph kind {kind!r}")


def build_problem(spec: ExperimentSpec, mixing: MixingMatrix) -> ProblemInstance:
    kind = spec.problem.get("kind", "least_squares")
    n = mixing.n
    seed = int(spec.problem.get("seed", 0))
    if kind == "least_squares":
        d = int(spec.problem.get("d", 10))
        mu = float(spec.problem.get("mu", 1.0))
        curvature = [key for key in ("lsmooth", "kappa_rule", "kappa") if key in spec.problem]
        if len(curvature) > 1:
            raise ValueError(f"set only one of {', '.join('problem.' + k for k in curvature)}")
        if "lsmooth" in spec.problem:
            lsmooth = float(spec.problem["lsmooth"])
        elif "kappa_rule" in spec.problem:
            rule = spec.problem["kappa_rule"]
            if rule != "half_over_gap":
                raise ValueError(f"unknown kappa rule {rule!r}; expected 'half_over_gap'")
            lsmooth = mu * 0.5 / (1.0 - mixing.rho)
        else:
            lsmooth = mu * float(spec.problem.get("kappa", 10.0))
        gamma2 = float(spec.problem.get("gamma2", 0.0))
        reg = L1Reg(weight=gamma2) if gamma2 > 0.0 else None
        return gen_least_squares(n, d, mu, lsmooth, seed, reg=reg)
    if kind == "logistic":
        return gen_logistic(
            n,
            int(spec.problem.get("d", 22)),
            int(spec.problem.get("samples_per_node", 100)),
            float(spec.problem.get("gamma1", 0.01)),
            float(spec.problem.get("gamma2", 0.001)),
            seed,
        )
    if kind == "libsvm":
        parts = load_libsvm(str(spec.problem["path"]), n, seed)
        return logistic_from_parts(
            parts,
            float(spec.problem.get("gamma1", 0.01)),
            float(spec.problem.get("gamma2", 0.001)),
        )
    raise ValueError(f"unknown problem kind {kind!r}")


def build_gossip(alg: AlgorithmSpec, mixing: MixingMatrix) -> MultiGossipOperator:
    """``mg_skip``'s Chebyshev rounds; one plain round, ``Mbar = W``, for the others."""
    if alg.kind == "mg_skip":
        return MultiGossipOperator.from_mixing(mixing, K=alg.resolve_K(mixing.rho))
    return MultiGossipOperator(mixing=mixing, K=1, eta=0.0)


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
    all relative errors are against the same ``x*``.  Returns the
    summary structure that also lands in ``summary.csv``.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = time.time()

    graph = build_graph(spec)
    mixing = metropolis_weights(graph)
    problem = build_problem(spec, mixing)
    reference = centralized_solve(problem, tol=1e-13)

    rows = []
    kernels: dict[str, str] = {}
    for alg in spec.algorithms:
        gossip = build_gossip(alg, mixing)
        alpha = alg.resolve_alpha(problem.L)
        kernels[alg.name] = gossip.kernel
        result = None
        for seed in spec.seeds:
            try:
                if alg.kind != _ENGINE_KIND:
                    cfg = RunConfig(
                        alpha=alpha, p=alg.p, T=spec.T, tol=spec.tol, seed=seed
                    )
                    result = mg_skip_run(
                        problem, gossip, cfg, reference, diagnostics=spec.diagnostics
                    )
                elif result is None:
                    # the engine ignores the seed, so its one run is every seed's trace
                    result = puda_run(
                        problem, puda_nids(gossip), alpha, spec.T, reference, tol=spec.tol
                    )
            except Exception as err:
                # traces already on disk stay there; attach the run identity
                raise RuntimeError(f"run {alg.name}/seed{seed} failed: {err}") from err
            write_trace_csv(out / f"{alg.name}__seed{seed}.csv", alg.name, seed, result)
            rows.append(_summary_row(alg.name, seed, result))

    summary = _summarize(rows, spec)
    _write_summary_csv(out / "summary.csv", summary)

    manifest = {
        "config_sha256": hashlib.sha256(config_text.encode()).hexdigest(),
        "package_version": __version__,
        "numpy_version": np.__version__,
        "wall_seconds": round(time.time() - started, 3),
        "rho": mixing.rho,
        "gossip_kernels": kernels,
        "reference_residual": reference.residual,
        "reference_iterations": reference.iterations,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return summary


def _summary_row(name: str, seed: int, result: RunResult) -> dict:
    reached = result.stopped
    iters = int(result.iterations) if reached else None
    comm = int(result.comm_rounds[-1]) if reached else None
    return {
        "algorithm": name,
        "seed": seed,
        "iterations_to_tol": iters,
        "comm_to_tol": comm,
        "grad_evals_to_tol": int(result.grad_evals[-1]) if reached else None,
        # a round sends each neighbour one d-vector, so this equals comm_to_tol
        "vec_transmissions_to_tol": comm,
        "final_rel_err": float(result.rel_err[-1]),
    }


def _summarize(rows: list[dict], spec: ExperimentSpec) -> dict:
    by_alg: dict[str, list[dict]] = {}
    for row in rows:
        by_alg.setdefault(row["algorithm"], []).append(row)

    def mean_of(entries, key):
        vals = [e[key] for e in entries if e[key] is not None]
        return (sum(vals) / len(vals)) if len(vals) == len(entries) else None

    means = {}
    for name, entries in by_alg.items():
        means[name] = {
            "iterations_to_tol": mean_of(entries, "iterations_to_tol"),
            "comm_to_tol": mean_of(entries, "comm_to_tol"),
            "vec_transmissions_to_tol": mean_of(entries, "vec_transmissions_to_tol"),
            "final_rel_err": sum(e["final_rel_err"] for e in entries) / len(entries),
        }
    baseline = spec.baseline or spec.algorithms[0].name
    base = means[baseline]
    for name, m in means.items():
        for key, ratio_key in (
            ("iterations_to_tol", "iter_speedup_vs_baseline"),
            ("comm_to_tol", "comm_speedup_vs_baseline"),
        ):
            if base[key] and m[key]:
                m[ratio_key] = base[key] / m[key]
            else:
                m[ratio_key] = None
    return {"baseline": baseline, "per_run": rows, "mean": means}


def _write_summary_csv(path: Path, summary: dict) -> None:
    columns = [
        "algorithm",
        "seed",
        "iterations_to_tol",
        "comm_to_tol",
        "grad_evals_to_tol",
        "vec_transmissions_to_tol",
        "final_rel_err",
        "iter_speedup_vs_baseline",
        "comm_speedup_vs_baseline",
    ]

    def cell(value) -> str:
        if value is None:
            return ""
        if isinstance(value, float):
            return repr(value)
        return str(value)

    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in summary["per_run"]:
            writer.writerow(
                [cell(row.get(c)) for c in columns[:7]] + ["", ""]
            )
        for name in sorted(summary["mean"]):
            m = summary["mean"][name]
            writer.writerow(
                [
                    name,
                    "mean",
                    cell(m["iterations_to_tol"]),
                    cell(m["comm_to_tol"]),
                    "",
                    cell(m["vec_transmissions_to_tol"]),
                    cell(m["final_rel_err"]),
                    cell(m["iter_speedup_vs_baseline"]),
                    cell(m["comm_speedup_vs_baseline"]),
                ]
            )
