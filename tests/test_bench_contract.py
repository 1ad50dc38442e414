"""The benchmark's hook points and coverage: every callable ``bench/spans.py``
patches by name exists, and each workload runs the gossip path and the
reference solve it is there for."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from gossipskip import metropolis_weights, parse_config, problems
from gossipskip.gossip import _NeighbourTable, _block_hops
from gossipskip.harness import build_gossip, build_graph, setup_experiment

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


TARGETS = _load("bench_spans", BENCH / "spans.py").ALL_TARGETS
WORKLOADS = _load("bench_workloads", BENCH / "workloads.py").WORKLOADS


@pytest.mark.parametrize("target", TARGETS, ids=[t[0] for t in TARGETS])
def test_target_resolves(target):
    _, module, path, _ = target
    owner = importlib.import_module(f"gossipskip.{module}")
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def _operators(name: str):
    """The gossip operators of workload ``name``'s algorithm rows, as the harness builds them."""
    spec = parse_config(WORKLOADS[name].config_text(0))
    mixing = metropolis_weights(build_graph(spec.graph))
    return [build_gossip(alg, mixing) for alg in spec.algorithms]


@pytest.mark.parametrize("name, Ks", [("ring15-sweep", [4, 4, 1]), ("logistic-random", [3, 3, 1])])
def test_small_workloads_fold(name, Ks):
    """ring15-sweep and logistic-random lie below the gather crossover, so
    every row, the one-round rows too, folds its K rounds into one product
    with Mbar."""
    operators = _operators(name)
    assert [op.K for op in operators] == Ks
    assert [op.kernel for op in operators] == ["folded"] * len(Ks)


def test_ring400_gossip_folds_with_the_reach_build():
    """ring400-gossip's one operator applies the folded Mbar at K = 110, and
    each of the 13 blocks of I its build gathers stops short of some node
    within ceil(K/2) hops, so every round gathers fewer than n rows."""
    (op,) = _operators("ring400-gossip")
    assert (op.kernel, op.K) == ("folded", 110)
    h = (op.K + 1) // 2
    hops = _block_hops(_NeighbourTable(op.mixing.w).idx, op.n, h)
    assert hops.shape[1] == 13
    assert (hops > h).any(axis=0).tolist() == [True] * 13


@pytest.mark.parametrize(
    "name, polished", [("ring15-sweep", False), ("ring400-gossip", False), ("logistic-random", True)]
)
def test_reference_takes_its_path(monkeypatch, name, polished):
    """The least-squares workloads' references are the direct solve; the
    logistic one is FISTA handing over to the Newton polish, which certifies
    to 1e-14 in at most 60 steps."""
    polishes = []
    newton_polish = problems._newton_polish
    monkeypatch.setattr(
        problems, "_newton_polish", lambda *args: polishes.append(args) or newton_polish(*args)
    )
    *_, reference = setup_experiment(parse_config(WORKLOADS[name].config_text(0)), {})
    assert len(polishes) == polished
    if polished:
        assert 0 < reference.iterations <= 60
        assert reference.relative_error_bound <= 1e-14
    else:
        assert reference.iterations == 0
