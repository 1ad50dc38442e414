"""The benchmark's workloads: one experiment config each, run through the CLI.

A workload seed ``s`` becomes ``problem.seed = s + 1`` and run seeds
``R*s, ..., R*s + R - 1`` (``R = run_seeds``), so seed 0 reproduces the
README's pinned ring-15 sweep (problem seed 1, run seeds 0, 1, 2).  Graph
seeds stay fixed, so every seed of a workload runs on the same topology and
the same round count ``K``.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    # CLI subcommand plus arguments other than --config/--out
    command: tuple[str, ...]
    # config text with {problem_seed}, {run_seeds}, {T} and {tol} placeholders
    config: str
    run_seeds: int
    # algorithm names as the harness labels them after any sweep expansion
    algorithms: tuple[str, ...]
    # algorithms that are expected to stop at the horizon above tolerance
    horizon_algorithms: frozenset[str] = frozenset()
    T: int = 5000
    tol: float = 1e-7

    def seeds(self, seed: int) -> tuple[int, ...]:
        return tuple(self.run_seeds * seed + k for k in range(self.run_seeds))

    def config_text(self, seed: int) -> str:
        return self.config.format(
            problem_seed=seed + 1,
            run_seeds=",".join(str(s) for s in self.seeds(seed)),
            T=self.T,
            tol=self.tol,
        )

    def run_keys(self, seed: int) -> list[tuple[str, int]]:
        return [(alg, s) for alg in self.algorithms for s in self.seeds(seed)]


_SWEEP_P = (1.0, 0.5, 0.34, 0.2, 0.1)

# Why each workload exists is written out in README.md next to this file.
RING15_SWEEP = Workload(
    name="ring15-sweep",
    command=("sweep", "--p", ",".join(f"{p:g}" for p in _SWEEP_P)),
    config="""\
graph.kind = ring
graph.n = 15
problem.kind = least_squares
problem.d = 10
problem.mu = 1.0
problem.kappa_rule = half_over_gap
problem.seed = {problem_seed}
run.T = {T}
run.tol = {tol}
run.seeds = {run_seeds}
run.diagnostics = false
alg.0.kind = mg_skip
alg.0.alpha = one_over_5L
alg.0.p = 1.0
alg.1.kind = mg_skip
alg.1.alpha = one_over_5L
alg.1.p = 0.34
alg.2.kind = skip1
alg.2.alpha = one_over_5L
alg.2.p = 1.0
summary.baseline = mg_skip_p1
""",
    run_seeds=3,
    algorithms=tuple(f"{kind}_p{p:g}" for kind in ("mg_skip", "skip1") for p in _SWEEP_P),
    # single gossip at p = 0.1 is still at rel_err ~1e-4 after T = 5000
    horizon_algorithms=frozenset({"skip1_p0.1"}),
)

RING400_GOSSIP = Workload(
    name="ring400-gossip",
    command=("run",),
    config="""\
graph.kind = ring
graph.n = 400
problem.kind = least_squares
problem.d = 10
problem.mu = 1.0
problem.kappa = 2
problem.seed = {problem_seed}
run.T = {T}
run.tol = {tol}
run.seeds = {run_seeds}
alg.0.kind = mg_skip
alg.0.alpha = one_over_5L
alg.0.p = 1.0
""",
    # p = 1 gossips on every iteration, so a run's cost is its iteration
    # count times one fast_goss call; at p < 1 the number of gossip blocks,
    # which sets the cost, would change with the coin seed
    run_seeds=1,
    algorithms=("mg_skip_p1",),
    tol=1e-4,
)

LOGISTIC_RANDOM = Workload(
    name="logistic-random",
    command=("run",),
    config="""\
graph.kind = random
graph.n = 20
graph.iota = 0.2
graph.seed = 0
problem.kind = logistic
problem.d = 22
problem.samples_per_node = 100
problem.gamma1 = 0.1
problem.gamma2 = 0.001
problem.seed = {problem_seed}
run.T = {T}
run.tol = {tol}
run.seeds = {run_seeds}
alg.0.kind = mg_skip
alg.0.alpha = one_over_5L
alg.0.p = 1.0
alg.1.kind = mg_skip
alg.1.alpha = one_over_5L
alg.1.p = 0.3
alg.2.kind = skip1
alg.2.alpha = one_over_5L
alg.2.p = 0.3
""",
    run_seeds=1,
    algorithms=("mg_skip_p1", "mg_skip_p0.3", "skip1_p0.3"),
)

WORKLOADS = {w.name: w for w in (RING15_SWEEP, RING400_GOSSIP, LOGISTIC_RANDOM)}

# The README's sweep table: per-algorithm means over run seeds 0, 1, 2 of
# iterations and communication rounds to tolerance, rounded as printed there.
README_TABLE = {
    "mg_skip_p1": (637, 2548),
    "mg_skip_p0.5": (637, 1313),
    "mg_skip_p0.34": (637, 912),
    "mg_skip_p0.2": (637, 500),
    "mg_skip_p0.1": (1186, 508),
    "skip1_p1": (637, 637),
    "skip1_p0.2": (2425, 505),
}
