"""Multi-round gossip operator: recursion, distributed equivalence, spectra."""

from __future__ import annotations

import math
import os
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import gossipskip
from gossipskip import gossip as gossip_module
from gossipskip import (
    MixingMatrix,
    MultiGossipOperator,
    build_random_connectivity,
    build_ring,
    chebyshev_eta,
    default_K,
    metropolis_weights,
    verify_prop1,
)
from gossipskip.gossip import _MBAR_BLOCK, _block_hops, _chebyshev, _NeighbourTable


class TestChebyshevEta:
    def test_zero_gap(self):
        assert chebyshev_eta(0.0) == 0.0

    def test_reported_value(self):
        assert chebyshev_eta(0.9424) == pytest.approx(0.4987, abs=1e-4)

    def test_half(self):
        assert chebyshev_eta(0.5) == pytest.approx(0.0718, abs=1e-4)

    def test_monotone_in_rho(self):
        grid = np.linspace(0.0, 0.999, 200)
        vals = [chebyshev_eta(r) for r in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v < 1.0 for v in vals)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            chebyshev_eta(1.0)
        with pytest.raises(ValueError):
            chebyshev_eta(-0.1)


class TestDefaultK:
    @pytest.mark.parametrize(
        "rho,expected", [(0.0, 1), (0.9424, 4), (1.0 - 0.1186, 2), (0.75, 2)]
    )
    def test_values(self, rho, expected):
        assert default_K(rho) == expected

    def test_clamped_to_one(self):
        assert default_K(0.1) == 1

    @pytest.mark.parametrize("rho", [-0.1, 1.0])
    def test_domain_error(self, rho):
        with pytest.raises(ValueError, match=r"spectral gap must be in \[0, 1\)"):
            default_K(rho)


class TestMbar:
    @pytest.mark.parametrize("K", [1, 2, 3, 4, 6])
    def test_symmetric_doubly_stochastic(self, ring15_mixing, K):
        op = MultiGossipOperator.from_mixing(ring15_mixing, K=K)
        mbar = op.mbar
        assert np.abs(mbar - mbar.T).max() <= 1e-12
        assert np.abs(mbar.sum(axis=1) - 1.0).max() <= 1e-12

    @pytest.mark.parametrize(
        "kind, n, K",
        [
            pytest.param("ring", 200, None, id="200"),
            pytest.param("ring", 400, None, id="400"),
            pytest.param("ring", 400, 1, id="400-K1"),
            *(pytest.param("ring", 15, K, id=f"ring15-K{K}") for K in range(1, 7)),
            pytest.param("ring", 30, None, id="ring30"),
            pytest.param("random", 20, None, id="rand20"),
        ],
    )
    def test_half_round_build_matches_dense_recursion(self, kind, n, K):
        """From the gather crossover up, Mbar is built from ceil(K/2) gathered
        rounds and two products: ring-200 (odd K = 55) and ring-400 (even
        K = 110, and K = 1) equal the K-round dense recursion on I entrywise
        to 1e-14.  Below the crossover the build runs that recursion itself,
        so ring-15 at K = 1..6, ring-30 and a random 20-node graph equal it
        exactly."""
        graph = build_ring(n) if kind == "ring" else build_random_connectivity(n, 0.3, seed=1)
        op = MultiGossipOperator.from_mixing(metropolis_weights(graph), K=K)
        if K is None and n in (200, 400):
            assert op.K == {200: 55, 400: 110}[n]
        expected = _dense_recursion(op.mixing.w, np.eye(n), op.K, op.eta)
        if op.n < op._gather_row:
            assert n <= 30
            assert np.array_equal(op.mbar, expected)
        else:
            assert n >= 200
            assert np.abs(op.mbar - expected).max() <= 1e-14
        assert not op.mbar.flags.writeable

    @pytest.mark.parametrize("K, rounds", [(None, 55), (24, 12), (26, 13)])
    def test_build_gathers_half_the_rounds(self, monkeypatch, K, rounds):
        """Ring-400's build runs ceil(K/2) gathered rounds on each of its 13
        blocks of I: 55 at the default K = 110, not 110."""
        calls = 0
        gather = gossip_module._gather

        def counted(s, idx, wts):
            nonlocal calls
            calls += 1
            return gather(s, idx, wts)

        monkeypatch.setattr(gossip_module, "_gather", counted)
        op = MultiGossipOperator.from_mixing(metropolis_weights(build_ring(400)), K=K)
        op.mbar
        assert op.kernel == "folded"
        assert calls == math.ceil(400 / _MBAR_BLOCK) * rounds == 13 * rounds

    def test_build_holds_mbar_and_one_block(self):
        """Building ring-400's Mbar allocates at most 3 n^2 doubles (the half-round
        build's P_{h-2}, P_{h-1} and P_h, one of which becomes Mbar) plus one
        block's temporaries: the identity block and three iterates of the
        recursion, and per gathered round a (width, n, block) product."""
        op = MultiGossipOperator.from_mixing(metropolis_weights(build_ring(400)))
        n, width = op.n, 3
        tracemalloc.start()
        try:
            op.mbar
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (3 * n * n + (3 * width + 4) * n * _MBAR_BLOCK)

    def test_build_keeps_no_weight_layout(self):
        """After ring-400's Mbar is built the folded operator holds Mbar only:
        it never builds the neighbour table ``fast_goss`` would gather with, and
        the build's own table and its (width, n, block) temporaries are freed."""
        op = MultiGossipOperator.from_mixing(metropolis_weights(build_ring(400)))
        n = op.n
        tracemalloc.start()
        try:
            op.mbar
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert op.kernel == "folded" and "_apply_w" not in op.__dict__
        assert held <= 8 * n * n + 16 * 1024

    @pytest.mark.parametrize(
        "graph, K, eta",
        [
            ("ring400", None, None),
            ("ring400", 24, None),
            ("ring400", 26, None),
            *(("ring400", K, None) for K in (1, 2, 3)),
            ("ring400", 1, 0.0),
            ("ring210", None, None),
            ("ring210", 181, None),
            ("ring512", None, None),
            ("rand400", None, None),
            ("zero_diag_ring417", None, None),
        ],
        ids=lambda v: "default" if v is None else str(v),
    )
    def test_reach_build_bit_identical_to_full_rows(self, reach_mixings, graph, K, eta):
        """The build that gathers only each block's reached rows gives the Mbar
        of full-row rounds bit for bit: ring-400 at K = 110, 24, 26 and at
        K = 1, 2, 3 (h <= 2, where P_{h-2} may be P_{-1} = 0); ring-210, whose
        last block is partial, also at K = 181, where only that block stops
        short of every node; ring-512; a random tree with padded rows, whose
        blocks gather fewer than all 400 rows in 105 of their 312 rounds; and
        an odd ring with a zero diagonal, where no node is its own neighbour
        and the last block is node 416 alone.  At K = 1, eta = 0 it is W
        exactly."""
        mixing = reach_mixings[graph]
        if eta is None:
            op = MultiGossipOperator.from_mixing(mixing, K=K)
        else:
            op = MultiGossipOperator(mixing=mixing, K=K, eta=eta)
        assert op.kernel != "dense"
        assert np.array_equal(op.mbar, _full_row_build(op.mixing.w, op.K, op.eta))
        if eta == 0.0:
            assert np.array_equal(op.mbar, mixing.w)

    def test_reach_build_test_graphs(self, reach_mixings):
        """Which blocks of the graphs above stop short of every node within
        h = ceil(K/2) hops, and so gather fewer rows than n."""
        def short(graph, K=None):
            op = MultiGossipOperator.from_mixing(reach_mixings[graph], K=K)
            h = (op.K + 1) // 2
            hops = _block_hops(_NeighbourTable(op.mixing.w).idx, op.n, h)
            return (hops > h).any(axis=0).tolist()

        assert short("ring400") == [True] * 13
        assert short("ring210", K=181) == [False] * 6 + [True]
        assert short("rand400") == [False] * 13
        assert (_NeighbourTable(reach_mixings["rand400"].w).wts == 0.0).any()
        assert short("zero_diag_ring417") == [True] * 14

    def test_block_hops_keep_nodes_without_self_loops(self, reach_mixings):
        """With w_ii = 0 a node is not its own neighbour, yet a node once
        reached stays reached: on the zero-diagonal ring-417, hops are ring
        distances (capped at h + 1), from the first block and from the last,
        which is node 416 alone."""
        idx = _NeighbourTable(reach_mixings["zero_diag_ring417"].w).idx
        hops = _block_hops(idx, 417, 100)
        nodes = np.arange(417)
        first = np.where(nodes < _MBAR_BLOCK, 0, np.minimum(nodes - 31, 417 - nodes))
        last = np.minimum(416 - nodes, nodes + 1)
        assert np.array_equal(hops[:, 0], np.minimum(first, 101))
        assert np.array_equal(hops[:, -1], np.minimum(last, 101))

    def test_build_gathers_only_reached_rows(self, reach_mixings, monkeypatch):
        """On ring-400 a block of I reaches two more nodes per hop, so round k
        of the build gathers 32 + 2k rows on each full block and 16 + 2k on
        the last: 62,040 rows over the 55 rounds, against 13 * 55 * 400 =
        286,000 for full rounds.  Every block of the random tree reaches all
        400 nodes within its 24 rounds, yet gathers only the rows it has
        reached: 112,412 rows against 13 * 24 * 400 = 124,800, the first
        block's rounds starting at 82, 134, 201 and 274 rows, and 105 of the
        312 rounds gathering fewer than 400."""
        gathered = []
        gather = gossip_module._gather

        def counted(s, idx, wts):
            gathered.append(idx.shape[1])
            return gather(s, idx, wts)

        monkeypatch.setattr(gossip_module, "_gather", counted)
        MultiGossipOperator.from_mixing(reach_mixings["ring400"]).mbar
        assert gathered == [width + 2 * k for width in [32] * 12 + [16] for k in range(1, 56)]
        assert sum(gathered) == 62_040
        gathered.clear()
        MultiGossipOperator.from_mixing(reach_mixings["rand400"]).mbar
        assert len(gathered) == 13 * 24
        assert sum(gathered) == 112_412
        assert gathered[:4] == [82, 134, 201, 274]
        assert sum(rows < 400 for rows in gathered) == 105

    def test_build_seconds_recorded(self, reach_mixings, ring15_mixing):
        for mixing in (reach_mixings["ring210"], ring15_mixing):
            op = MultiGossipOperator.from_mixing(mixing)
            assert op.mbar_seconds is None
            op.fast_goss(np.ones((op.n, 2)))
            assert (op.mbar_seconds is None) == (op.kernel != "folded")
            op.mbar
            assert op.mbar_seconds > 0.0

    def test_eta0_rounds_match_full_update(self, ring15_mixing):
        """At eta = 0 the recursion skips its momentum updates and gives the
        values the full updates give."""
        states = np.random.default_rng(3).standard_normal((15, 4))
        prev = cur = states
        for _ in range(3):
            nxt = ring15_mixing.w @ cur
            nxt *= 1.0
            nxt -= 0.0 * prev
            prev, cur = cur, nxt
        got = _chebyshev(partial(np.matmul, ring15_mixing.w), states, 3, 0.0)
        assert np.array_equal(got, cur)

    @pytest.mark.parametrize("kernel", ["dense", "neighbour"])
    def test_in_place_rounds_match_plain_recursion(self, bench, large_gossip, kernel):
        """At eta > 0 the in-place rounds, with their one scratch array, give the
        plain recursion's bits: ring-15's through dense products with W, as
        the Mbar build below the gather crossover runs them, and ring-800's
        on the neighbour gather, where fast_goss gives ``states - s_K``'s."""
        op = bench.gossip if kernel == "dense" else large_gossip["ring800"]
        assert op.eta > 0.0
        apply_w = partial(np.matmul, op.mixing.w) if kernel == "dense" else op._apply_w
        states = np.random.default_rng(9).standard_normal((op.n, 6))
        before = states.copy()
        prev = cur = states
        for _ in range(op.K):
            prev, cur = cur, (1.0 + op.eta) * apply_w(cur) - op.eta * prev
        assert np.array_equal(_chebyshev(apply_w, states, op.K, op.eta), cur)
        if kernel == "neighbour":
            assert op.kernel == "neighbour"
            assert np.array_equal(op.fast_goss(states), states - cur)
        assert np.array_equal(states, before)

    def test_k1_eta0_reduces_to_w(self, ring15_mixing):
        """At K = 1, eta = 0 below the gather crossover Mbar is W, and the
        folded product is ``S - W @ S`` to the bit, as one plain round gives it."""
        op = MultiGossipOperator(mixing=ring15_mixing, K=1, eta=0.0)
        assert np.array_equal(op.mbar, ring15_mixing.w)
        assert op.kernel == "folded"
        rng = np.random.default_rng(3)
        for trailing in ((10,), (1,), ()):
            states = rng.standard_normal((op.n, *trailing))
            assert np.array_equal(op.fast_goss(states), states - ring15_mixing.w @ states)

    def test_invalid_params(self, ring15_mixing):
        with pytest.raises(ValueError):
            MultiGossipOperator(mixing=ring15_mixing, K=0, eta=0.1)
        with pytest.raises(ValueError):
            MultiGossipOperator(mixing=ring15_mixing, K=2, eta=1.0)


class TestFastGoss:
    def test_consensual_input_maps_to_zero(self, gossip_matrix):
        rng = np.random.default_rng(5)
        for label, op in gossip_matrix[:8]:
            row = rng.standard_normal(4)
            states = np.tile(row, (op.n, 1))
            out = op.fast_goss(states)
            assert np.abs(out).max() <= 1e-12, label

    def test_rounds_match_mbar_on_acceptance_topologies(self, gossip_matrix):
        """Every acceptance topology folds, so criterion 3 checks the product
        with Mbar; here the K distributed rounds, through the neighbour gather
        and through dense products with W, match ``(I - Mbar) S`` to its 1e-10
        and map consensual states to within its 1e-12 of zero."""
        rng = np.random.default_rng(31)
        for label, op in gossip_matrix:
            w = op.mixing.w
            eye_minus = np.eye(op.n) - op.mbar
            consensual = np.tile(rng.standard_normal(3), (op.n, 1))
            for apply_w in (_NeighbourTable(w), partial(np.matmul, w)):
                for _ in range(20):
                    states = rng.standard_normal((op.n, 3))
                    rounds = states - _chebyshev(apply_w, states, op.K, op.eta)
                    assert np.abs(rounds - eye_minus @ states).max() <= 1e-10, label
                image = consensual - _chebyshev(apply_w, consensual, op.K, op.eta)
                assert np.abs(image).max() <= 1e-12, label

    def test_complete_graph_closed_form(self):
        g = build_random_connectivity(5, 1.0, seed=0)
        m = metropolis_weights(g)
        op = MultiGossipOperator.from_mixing(m)  # rho = 0 -> K = 1, eta = 0
        assert op.K == 1 and op.eta == 0.0
        states = np.eye(5)[:, :3]
        expected = (np.eye(5) - np.full((5, 5), 0.2)) @ states
        assert np.abs(op.fast_goss(states) - expected).max() <= 1e-14

    def test_matches_dense_recursion(self, bench):
        rng = np.random.default_rng(9)
        eye_minus = np.eye(15) - bench.gossip.mbar
        for _ in range(20):
            states = rng.standard_normal((15, 10))
            dense = eye_minus @ states
            assert np.abs(bench.gossip.fast_goss(states) - dense).max() <= 1e-10

    def test_shape_error(self, bench):
        with pytest.raises(ValueError, match="rows"):
            bench.gossip.fast_goss(np.zeros((7, 3)))

    def test_frobenius_contraction_on_random_mean_zero_inputs(self, bench):
        # ||Mbar x||_F <= sqrt(2) (1 - sqrt(1-rho))^K ||x||_F for 1^T x = 0
        op = bench.gossip
        bound = math.sqrt(2.0) * (1.0 - math.sqrt(1.0 - op.mixing.rho)) ** op.K
        rng = np.random.default_rng(123)
        for _ in range(150):
            x = rng.standard_normal((15, 6))
            x -= x.mean(axis=0, keepdims=True)
            ratio = np.linalg.norm(op.mbar @ x) / np.linalg.norm(x)
            assert ratio <= bound


class TestSpectralConsistency:
    @pytest.mark.parametrize("n,K", [(6, 1), (9, 2), (15, 4), (20, 3)])
    def test_mbar_spectrum_matches_scalar_recursion(self, n, K):
        """Eigenvalues of M_K are the scalar recursion applied to eig(W)."""
        mix = metropolis_weights(build_random_connectivity(n, 0.6, seed=n))
        op = MultiGossipOperator.from_mixing(mix, K=K)
        lam = np.sort(np.linalg.eigvalsh(mix.w))
        p_prev = np.ones_like(lam)
        p_cur = np.ones_like(lam)
        for _ in range(K):
            p_cur, p_prev = (1.0 + op.eta) * lam * p_cur - op.eta * p_prev, p_cur
        assert np.allclose(
            np.sort(np.linalg.eigvalsh(op.mbar)), np.sort(p_cur), atol=1e-12
        )

    def test_ring3_is_exact_averaging(self):
        mix = metropolis_weights(build_random_connectivity(3, 1.0, seed=0))
        assert mix.rho == pytest.approx(0.0, abs=1e-12)
        op = MultiGossipOperator.from_mixing(mix)
        assert op.K == 1 and op.eta == 0.0
        assert np.allclose(op.mbar, np.full((3, 3), 1.0 / 3.0), atol=1e-15)

    @pytest.mark.parametrize(
        "graph",
        [build_ring(15), build_random_connectivity(20, 0.3, seed=1), build_ring(200)],
        ids=["ring15", "random20", "ring200"],
    )
    def test_spectrum_matches_dense_eigvalsh(self, graph):
        op = MultiGossipOperator.from_mixing(metropolis_weights(graph))
        dense = np.linalg.eigvalsh(0.5 * (op.mbar + op.mbar.T))
        assert np.abs(op.spectrum - dense).max() <= 1e-12

    def test_fast_goss_accepts_single_column(self, bench):
        v = np.arange(15.0)
        out = bench.gossip.fast_goss(v)
        dense = (np.eye(15) - bench.gossip.mbar) @ v
        assert out.shape == (15,)
        assert np.abs(out - dense).max() <= 1e-12


class TestSqrtHalfGap:
    """``S = sqrt((I - Mbar)/2)`` and ``S^+``, as the KKT residual and the
    Lyapunov function build them from :attr:`half_gap_eigh`."""

    def test_square_root_squares_back(self, bench):
        op = bench.gossip
        h, vecs = op.half_gap_eigh
        s = (vecs * np.sqrt(h)) @ vecs.T
        half = 0.5 * (np.eye(15) - op.mbar)
        assert np.abs(s @ s - half).max() <= 1e-12

    def test_pinv_projects_onto_mean_zero(self, bench):
        op = bench.gossip
        h, vecs = op.half_gap_eigh
        s = (vecs * np.sqrt(h)) @ vecs.T
        in_range = h > 0.0
        s_pinv = (vecs[:, in_range] / np.sqrt(h[in_range])) @ vecs[:, in_range].T
        proj = s @ s_pinv
        expected = np.eye(15) - np.ones((15, 15)) / 15.0
        assert np.abs(proj - expected).max() <= 1e-9


class TestHalfGapEigh:
    @pytest.mark.parametrize(
        "graph",
        [build_ring(15), build_random_connectivity(20, 0.3, seed=1), build_ring(210)],
        ids=["ring15", "random20", "ring210"],
    )
    def test_eigenpairs_rebuild_half_gap(self, graph):
        op = MultiGossipOperator.from_mixing(metropolis_weights(graph))
        # each folds its K rounds into one product with Mbar; ring-210 by the fold rule
        assert op.kernel == "folded"
        h, vecs = op.half_gap_eigh
        half = 0.5 * (np.eye(op.n) - op.mbar)
        assert np.abs((vecs * h) @ vecs.T - half).max() <= 1e-12
        assert np.abs(vecs.T @ vecs - np.eye(op.n)).max() <= 1e-12
        (null,) = np.flatnonzero(h == 0.0)
        consensus = vecs[:, null] * math.sqrt(op.n)
        assert np.abs(np.abs(consensus) - 1.0).max() <= 1e-12
        assert np.all(np.sign(consensus) == np.sign(consensus[0]))

    def test_one_eigh_per_mixing(self, monkeypatch):
        """Operators on one mixing matrix share its one ``eigh``, whose values
        are those of a call of their own."""
        mixing = metropolis_weights(build_ring(15))
        eigh, calls = np.linalg.eigh, []
        monkeypatch.setattr(np.linalg, "eigh", lambda w: calls.append(w) or eigh(w))
        multi = MultiGossipOperator.from_mixing(mixing, K=4)
        single = MultiGossipOperator(mixing=mixing, K=1, eta=0.0)
        (_, vecs), (h, single_vecs) = multi.half_gap_eigh, single.half_gap_eigh
        assert len(calls) == 1 and single_vecs is vecs
        lam, own = eigh(mixing.w)
        assert np.array_equal(vecs, own) and np.array_equal(mixing.eigh[0], lam)
        # at K = 1, eta = 0, Mbar = W: h = (1 - lam)/2 with the consensus mode at 0
        assert np.array_equal(h[:-1], 0.5 * (1.0 - lam[:-1])) and h[-1] == 0.0

    def test_read_only(self, bench):
        h, vecs = bench.gossip.half_gap_eigh
        with pytest.raises(ValueError):
            h[0] = 1.0
        with pytest.raises(ValueError):
            vecs[0, 0] = 1.0


class TestVerifyProp1:
    def test_complete_graph_all_pass(self):
        g = build_random_connectivity(5, 1.0, seed=0)
        op = MultiGossipOperator.from_mixing(metropolis_weights(g))
        rep = verify_prop1(op)
        assert rep.sigma_min == pytest.approx(1.0, abs=1e-12)
        assert rep.radius <= 1e-12
        assert rep.symmetric and rep.doubly_stochastic
        assert rep.radius_bound_ok and rep.sigma_min_ok

    def test_ring15_default_k(self, bench):
        rep = verify_prop1(bench.gossip)
        assert rep.K == 4
        assert rep.sigma_min >= 0.4  # measured 0.4592
        assert rep.sigma_min == pytest.approx(0.4592, abs=1e-3)
        assert rep.symmetric and rep.doubly_stochastic

    def test_ring15_k1_radius_holds_but_sigma_small(self, ring15_mixing):
        op = MultiGossipOperator.from_mixing(ring15_mixing, K=1)
        rep = verify_prop1(op)
        assert rep.sigma_min < 0.4
        assert rep.radius_bound_ok  # bound is loose at K = 1 here

    def test_spectral_fields_build_no_mbar(self):
        """Above 512 nodes the ring's operator gathers, so the run builds no
        Mbar, and neither does reading the report's spectral fields; only the
        symmetry and row-sum flags build it, on first read."""
        op = MultiGossipOperator.from_mixing(metropolis_weights(build_ring(520)))
        assert op.kernel == "neighbour"
        rep = verify_prop1(op)
        assert rep.radius > 0.0 and rep.sigma_min > 0.0
        assert op.mbar_seconds is None
        assert rep.symmetric and rep.doubly_stochastic
        assert op.mbar_seconds is not None

    def test_reports_never_raise(self, gossip_matrix):
        for label, op in gossip_matrix[:6]:
            rep = verify_prop1(op)
            assert isinstance(rep.radius, float), label

    def test_spectral_quantities_match_dense_eigvalsh(self, gossip_matrix):
        for label, op in gossip_matrix:
            rep = verify_prop1(op)
            mbar, n = op.mbar, op.n
            centered = mbar - np.ones((n, n)) / n
            radius = np.abs(np.linalg.eigvalsh(0.5 * (centered + centered.T))).max()
            gap_eigs = np.linalg.eigvalsh(np.eye(n) - 0.5 * (mbar + mbar.T))
            sigma_min = gap_eigs[gap_eigs > 1e-9].min()
            assert abs(rep.radius - radius) <= 1e-12, label
            assert abs(rep.sigma_min - sigma_min) <= 1e-12, label


def _dense_recursion(w, states, K, eta):
    """Reference: ``s_K`` by the dense matrix expression, unrolled."""
    s_prev = s_cur = states
    for _ in range(K):
        s_cur, s_prev = (1.0 + eta) * (w @ s_cur) - eta * s_prev, s_cur
    return s_cur


def _full_row_build(w, K, eta):
    """Reference: the half-round build with every round on all n rows of each
    block of I, through the broadcast-weight gather."""
    table = _NeighbourTable(w)
    n, h = w.shape[0], (K + 1) // 2
    wts = table.wts[:, :, None]
    p = [np.empty((n, n)) for _ in range(3)]
    for top in range(0, n, _MBAR_BLOCK):
        cols = slice(top, top + _MBAR_BLOCK)
        iterates = [0.0, np.eye(n, min(_MBAR_BLOCK, n - top), -top)]  # P_{-1}, P_0
        for _ in range(h):
            nxt = (np.take(iterates[-1], table.idx, axis=0) * wts).sum(axis=0)
            if eta:
                nxt *= 1.0 + eta
                nxt -= eta * iterates[-2]
            iterates.append(nxt)
        p[0][:, cols], p[1][:, cols], p[2][:, cols] = iterates[-3:]
    left, left_prev, out = (p[1], p[0], p[2]) if K % 2 else (p[2], p[1], p[0])
    for top in range(0, n, _MBAR_BLOCK):
        cols = slice(top, top + _MBAR_BLOCK)
        m_b = p[2][:, cols] - eta * p[1][:, cols]
        m_b_prev = p[1][:, cols] - eta * p[0][:, cols]
        block = left[top:] @ m_b
        block -= eta * (left_prev[top:] @ m_b_prev)
        out[top:, cols] = block
        out[:top, cols] = out[cols, :top].T
    return out


@pytest.fixture(scope="module")
def reach_mixings():
    """Rings around the fold cap, a random graph whose rows are padded, and an
    odd ring with weight 1/2 on each neighbour and none on the diagonal."""
    mixings = {f"ring{n}": metropolis_weights(build_ring(n)) for n in (210, 400, 512)}
    mixings["rand400"] = metropolis_weights(build_random_connectivity(400, 2 / 400, seed=0))
    w = np.zeros((417, 417))
    nodes = np.arange(417)
    w[nodes, (nodes + 1) % 417] = w[nodes, (nodes - 1) % 417] = 0.5
    mixings["zero_diag_ring417"] = MixingMatrix.from_matrix(w)
    return mixings


@pytest.fixture(scope="module")
def large_gossip() -> dict[str, MultiGossipOperator]:
    """Graphs around and above the gather crossover, at their default K."""
    mixings = {f"ring{n}": metropolis_weights(build_ring(n)) for n in (200, 400, 800)}
    # a random tree plus a few chords; its widest row has 13 nonzeros
    mixings["rand1000"] = metropolis_weights(build_random_connectivity(1000, 0.002, seed=0))
    return {label: MultiGossipOperator.from_mixing(mix) for label, mix in mixings.items()}


LARGE = ("ring200", "ring400", "ring800", "rand1000")
SHAPES = ((10,), (1,), ())


class TestNeighbourKernel:
    def test_kernel_chosen_from_sparsity(self, large_gossip, bench, gossip_matrix, reach_mixings):
        # folded at every K below n = 20 * width + 100 (160 on rings, 360 at
        # width 13); from there, folded up to n = 512 once 2 * n < K * (20 * width + 100)
        assert {label: large_gossip[label].kernel for label in LARGE} == {
            "ring200": "folded",
            "ring400": "folded",
            "ring800": "neighbour",
            "rand1000": "neighbour",
        }
        assert bench.gossip.kernel == "folded"
        ring15 = bench.gossip.mixing
        assert {MultiGossipOperator.from_mixing(ring15, K=K).kernel for K in range(1, 7)} == {
            "folded"
        }
        ring100 = MultiGossipOperator.from_mixing(metropolis_weights(build_ring(100)))
        assert (ring100.K, ring100.kernel) == (27, "folded")
        assert all(op.kernel == "folded" for _, op in gossip_matrix)
        assert MultiGossipOperator.from_mixing(reach_mixings["ring512"]).kernel == "folded"
        # a ring-400 row costs 160 per gathered round against 800 for the product
        mixing = large_gossip["ring400"].mixing
        kernels = {K: MultiGossipOperator.from_mixing(mixing, K=K).kernel for K in (1, 5, 6)}
        assert kernels == {1: "neighbour", 5: "neighbour", 6: "folded"}
        assert MultiGossipOperator(mixing=mixing, K=1, eta=0.0).kernel == "neighbour"

    def test_folded_mbar_built_by_first_call(self, large_gossip):
        op = MultiGossipOperator.from_mixing(large_gossip["ring200"].mixing)
        assert op.kernel == "folded"
        assert "mbar" not in op.__dict__
        states = np.random.default_rng(5).standard_normal((op.n, 10))
        assert np.array_equal(op.fast_goss(states), states - op.__dict__["mbar"] @ states)

    @pytest.mark.parametrize("label", ("ring15",) + LARGE)
    @pytest.mark.parametrize("trailing", SHAPES)
    def test_matches_dense_kernel(self, large_gossip, bench, label, trailing):
        op = bench.gossip if label == "ring15" else large_gossip[label]
        rng = np.random.default_rng(7)
        states = rng.standard_normal((op.n, *trailing))
        before = states.copy()
        dense = states - _dense_recursion(op.mixing.w, states, op.K, op.eta)
        out = op.fast_goss(states)
        assert out.shape == states.shape
        assert np.abs(out - dense).max() <= 1e-13
        # drive the gather explicitly too, whichever kernel the operator picked
        gathered = states - _chebyshev(_NeighbourTable(op.mixing.w), states, op.K, op.eta)
        assert gathered.shape == states.shape
        assert np.abs(gathered - dense).max() <= 1e-13
        assert np.array_equal(states, before)

    @pytest.mark.parametrize("label", ("ring400", "rand1000"))
    @pytest.mark.parametrize("trailing", SHAPES + ((32,), (3, 2)))
    def test_gather_bit_identical_to_broadcast_weights(self, large_gossip, label, trailing):
        """The gather equals multiplying by the weights broadcast over the
        trailing axes and summing over slots, bit for bit: on unit normal
        states, and on all -0.0 states, whose products are -0.0 and whose sums
        both start from +0.0."""
        table = _NeighbourTable(large_gossip[label].mixing.w)
        # rand1000's rows are padded: only its widest row fills every slot
        assert (table.wts == 0.0).any() == (label == "rand1000")
        shape = (table.wts.shape[1], *trailing)
        normal = np.random.default_rng(13).standard_normal(shape)
        for states in (normal, np.full(shape, -0.0)):
            before = states.copy()
            # the weights broadcast over the trailing axes with stride 0
            wts = table.wts.reshape(table.wts.shape + (1,) * len(trailing))
            expected = (np.take(states, table.idx, axis=0) * wts).sum(axis=0)
            assert np.array_equal(table(states).view(np.int64), expected.view(np.int64))
            assert np.array_equal(states.view(np.int64), before.view(np.int64))

    def test_table_keeps_nothing_per_call(self, large_gossip):
        """Calls on four trailing shapes leave the table holding its
        ``(width, n)`` neighbour indices and weights, and nothing else."""
        table = _NeighbourTable(large_gossip["rand1000"].mixing.w)
        for trailing in SHAPES + ((32,),):
            table(np.ones((table.wts.shape[1], *trailing)))
        assert set(vars(table)) == {"idx", "wts"}

    def test_concurrent_calls_match_serial(self, large_gossip):
        """Four threads share a fresh ring-400 operator and race to build its
        lazily built state: the neighbour table at K = 1, Mbar at the default
        K.  Each result is bitwise the serial one."""
        mixing = large_gossip["ring400"].mixing
        rng = np.random.default_rng(17)
        inputs = [rng.standard_normal((mixing.n, *shape)) for shape in ((10,), (1,), (), (10,))]
        for K, kernel in ((1, "neighbour"), (None, "folded")):
            reference = MultiGossipOperator.from_mixing(mixing, K=K)
            serial = [reference.fast_goss(s) for s in inputs]
            op = MultiGossipOperator.from_mixing(mixing, K=K)
            start = threading.Barrier(4)

            def work(k):
                start.wait(timeout=60)
                return [op.fast_goss(inputs[(k + j) % 4]) for j in range(4)]

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                with ThreadPoolExecutor(max_workers=4) as pool:
                    futures = [pool.submit(work, k) for k in range(4)]
                    results = [f.result(timeout=120) for f in futures]
            finally:
                sys.setswitchinterval(interval)
            assert op.kernel == kernel
            for k, outs in enumerate(results):
                for j, out in enumerate(outs):
                    assert np.array_equal(out, serial[(k + j) % 4]), (kernel, k, j)

    @pytest.mark.parametrize("label", LARGE)
    def test_matches_mbar(self, large_gossip, label):
        op = large_gossip[label]
        if op.n > 400:
            # a dense Mbar costs K * width * n^2; the kernel depends on W alone
            op = MultiGossipOperator(mixing=op.mixing, K=20, eta=op.eta)
            assert op.kernel == "neighbour"
        eye_minus = np.eye(op.n) - op.mbar
        rng = np.random.default_rng(11)
        for trailing in SHAPES:
            states = rng.standard_normal((op.n, *trailing))
            assert np.abs(op.fast_goss(states) - eye_minus @ states).max() <= 1e-10, trailing

    @pytest.mark.parametrize("label", ("ring15",) + LARGE)
    def test_trailing_axes_batch_as_columns(self, large_gossip, bench, label):
        """Every kernel takes ``(n, 3, 2)`` states: the result is the one on the
        ``(n, 6)`` view, reshaped back, and matches the dense recursion there."""
        op = bench.gossip if label == "ring15" else large_gossip[label]
        states = np.random.default_rng(19).standard_normal((op.n, 3, 2))
        before = states.copy()
        flat = states.reshape(op.n, 6)
        out = op.fast_goss(states)
        assert out.shape == states.shape
        assert np.array_equal(out, op.fast_goss(flat).reshape(states.shape))
        dense = flat - _dense_recursion(op.mixing.w, flat, op.K, op.eta)
        assert np.abs(out.reshape(op.n, 6) - dense).max() <= 1e-13
        assert np.array_equal(states, before)

    def test_no_scipy_import(self):
        # importing scipy.sparse alone adds about 18 MiB of peak resident memory
        code = (
            "import sys; import numpy as np; import gossipskip as gs\n"
            "mixing = gs.metropolis_weights(gs.build_ring(400))\n"
            "for K, kernel in ((1, 'neighbour'), (None, 'folded')):\n"
            "    op = gs.MultiGossipOperator.from_mixing(mixing, K=K)\n"
            "    op.fast_goss(np.ones((400, 3)))\n"
            "    assert op.kernel == kernel\n"
            "print('scipy' in sys.modules)\n"
        )
        src = str(Path(gossipskip.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"
