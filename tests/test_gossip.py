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
from gossipskip import (
    MultiGossipOperator,
    build_random_connectivity,
    build_ring,
    chebyshev_eta,
    default_K,
    metropolis_weights,
    verify_prop1,
)
from gossipskip.gossip import _MBAR_BLOCK, _chebyshev, _NeighbourTable


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
        """Every Mbar is built from ceil(K/2) rounds and two products: ring-200
        (odd K = 55), ring-400 (even K = 110, and K = 1 on the gather), ring-15
        at K = 1..6, ring-30 and a random 20-node graph.  It equals the K-round
        dense recursion on I entrywise to 1e-14."""
        graph = build_ring(n) if kind == "ring" else build_random_connectivity(n, 0.3, seed=1)
        op = MultiGossipOperator.from_mixing(metropolis_weights(graph), K=K)
        if K is None and n in (200, 400):
            assert op.K == {200: 55, 400: 110}[n]
        expected = _dense_recursion(op.mixing.w, np.eye(n), op.K, op.eta)
        assert np.abs(op.mbar - expected).max() <= 1e-14
        assert not op.mbar.flags.writeable

    @pytest.mark.parametrize("K, rounds", [(None, 55), (24, 12), (26, 13)])
    def test_build_gathers_half_the_rounds(self, monkeypatch, K, rounds):
        """Ring-400's build runs ceil(K/2) gathered rounds on each of its 13
        blocks of I: 55 at the default K = 110, not 110."""
        calls = 0
        gather = _NeighbourTable.__call__

        def counted(table, s):
            nonlocal calls
            calls += 1
            return gather(table, s)

        monkeypatch.setattr(_NeighbourTable, "__call__", counted)
        op = MultiGossipOperator.from_mixing(metropolis_weights(build_ring(400)), K=K)
        op.mbar
        assert op.kernel == "folded"
        assert calls == math.ceil(400 / _MBAR_BLOCK) * rounds == 13 * rounds

    def test_build_holds_mbar_and_one_block(self):
        """Building ring-400's Mbar allocates at most 3 n^2 doubles (the half-round
        build's P_{h-2}, P_{h-1} and P_h, one of which becomes Mbar) plus one
        block's temporaries: the identity block and three iterates of the
        recursion, and per gathered round a (width, n, block) product and weight
        layout (two layouts, for the full and the last partial block)."""
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
        the build's own table and its (width, n, block) weight layouts are freed."""
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

    def test_k1_eta0_reduces_to_w(self, ring15_mixing):
        op = MultiGossipOperator(mixing=ring15_mixing, K=1, eta=0.0)
        assert np.array_equal(op.mbar, ring15_mixing.w)

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
        # ring-210 folds its K = 57 rounds into one product with Mbar
        assert op.kernel == ("folded" if graph.n == 210 else "dense")
        h, vecs = op.half_gap_eigh
        half = 0.5 * (np.eye(op.n) - op.mbar)
        assert np.abs((vecs * h) @ vecs.T - half).max() <= 1e-12
        assert np.abs(vecs.T @ vecs - np.eye(op.n)).max() <= 1e-12
        (null,) = np.flatnonzero(h == 0.0)
        consensus = vecs[:, null] * math.sqrt(op.n)
        assert np.abs(np.abs(consensus) - 1.0).max() <= 1e-12
        assert np.all(np.sign(consensus) == np.sign(consensus[0]))

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
        assert rep.all_ok

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
    def test_kernel_chosen_from_sparsity(self, large_gossip, bench, gossip_matrix):
        # the gather from n >= 20 * width + 100: 160 on rings, 360 at width 13;
        # folded up to n = 512 once 2 * n < K * (20 * width + 100)
        assert {label: large_gossip[label].kernel for label in LARGE} == {
            "ring200": "folded",
            "ring400": "folded",
            "ring800": "neighbour",
            "rand1000": "neighbour",
        }
        assert bench.gossip.kernel == "dense"
        assert all(op.kernel == "dense" for _, op in gossip_matrix)
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

    @pytest.mark.parametrize("label", LARGE)
    @pytest.mark.parametrize("trailing", SHAPES)
    def test_matches_dense_kernel(self, large_gossip, label, trailing):
        op = large_gossip[label]
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
    @pytest.mark.parametrize("trailing", SHAPES + ((32,),))
    def test_gather_bit_identical_to_broadcast_weights(self, large_gossip, label, trailing):
        table = _NeighbourTable(large_gossip[label].mixing.w)
        # rand1000's rows are padded: only its widest row fills every slot
        assert (table.wts == 0.0).any() == (label == "rand1000")
        states = np.random.default_rng(13).standard_normal((table.wts.shape[1], *trailing))
        before = states.copy()
        # the weights broadcast over the trailing axes with stride 0
        wts = table.wts.reshape(table.wts.shape + (1,) * len(trailing))
        expected = (np.take(states, table.idx, axis=0) * wts).sum(axis=0)
        assert np.array_equal(table(states), expected)
        assert np.array_equal(table(states), expected)  # from the cached layout
        assert np.array_equal(states, before)

    def test_cached_weights_read_only(self, large_gossip):
        table = _NeighbourTable(large_gossip["rand1000"].mixing.w)
        for trailing in SHAPES + ((32,),):
            table(np.ones((table.wts.shape[1], *trailing)))
        assert set(table.wts_by_shape) == {(10,), (1,), (), (32,)}
        for trailing, wts in table.wts_by_shape.items():
            assert wts.shape == table.wts.shape + trailing and wts.flags.c_contiguous
            with pytest.raises(ValueError):
                wts[...] = 0.0

    def test_concurrent_calls_match_serial(self, large_gossip):
        """Four threads share a fresh ring-400 operator and race to build its
        lazily built state: the neighbour table and weight layouts at K = 1,
        Mbar at the default K.  Each result is bitwise the serial one."""
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

    @pytest.mark.parametrize("trailing", SHAPES)
    def test_ring15_dense_kernel_bit_identical(self, bench, trailing):
        op = bench.gossip
        states = np.random.default_rng(3).standard_normal((op.n, *trailing))
        expected = states - _dense_recursion(op.mixing.w, states, op.K, op.eta)
        assert np.array_equal(op.fast_goss(states), expected)

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
