"""Shared fixtures: the ring-15 benchmark instance and the topology matrix."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import pytest

from gossipskip import algorithms
from gossipskip import (
    MixingMatrix,
    MultiGossipOperator,
    ProblemInstance,
    ReferenceSolution,
    build_random_connectivity,
    build_ring,
    centralized_solve,
    dual_fixed_point,
    gen_least_squares,
    metropolis_weights,
)


@dataclass(frozen=True)
class Bench:
    """Ring-15 least-squares benchmark: kappa = 0.5/(1-rho), alpha = 1/(5L)."""

    mixing: MixingMatrix
    gossip: MultiGossipOperator
    problem: ProblemInstance
    reference: ReferenceSolution
    ystar: np.ndarray
    alpha: float
    kappa: float


@pytest.fixture(scope="session")
def ring15_mixing() -> MixingMatrix:
    return metropolis_weights(build_ring(15))


@pytest.fixture(scope="session")
def bench(ring15_mixing: MixingMatrix) -> Bench:
    rho = ring15_mixing.rho
    kappa = 0.5 / (1.0 - rho)
    problem = gen_least_squares(15, 10, mu=1.0, lsmooth=kappa, seed=1)
    gossip = MultiGossipOperator.from_mixing(ring15_mixing)
    reference = centralized_solve(problem, tol=1e-13)
    return Bench(
        mixing=ring15_mixing,
        gossip=gossip,
        problem=problem,
        reference=reference,
        ystar=dual_fixed_point(problem, reference),
        alpha=1.0 / (5.0 * problem.L),
        kappa=kappa,
    )


@pytest.fixture
def diverging_engine(monkeypatch) -> None:
    """Every engine step starts from a NaN iterate, as a diverging run's becomes,
    so a run of a stepsize the entry check accepts still ends in divergence."""
    step = algorithms.puda_step
    monkeypatch.setattr(
        algorithms, "puda_step", lambda state, *args: step(replace(state, x=state.x * np.nan), *args)
    )


@pytest.fixture(scope="session")
def topology_matrix() -> list[tuple[str, MixingMatrix]]:
    """Rings n in 5..50 plus random graphs (n=20, iota grid, 5 seeds)."""
    entries = [(f"ring{n}", metropolis_weights(build_ring(n))) for n in range(5, 51)]
    for iota in (0.25, 0.5, 1.0):
        for seed in range(5):
            g = build_random_connectivity(20, iota, seed)
            entries.append((f"rand_i{iota}_s{seed}", metropolis_weights(g)))
    return entries


@pytest.fixture(scope="session")
def gossip_matrix(topology_matrix) -> list[tuple[str, MultiGossipOperator]]:
    return [
        (label, MultiGossipOperator.from_mixing(mix))
        for label, mix in topology_matrix
    ]
