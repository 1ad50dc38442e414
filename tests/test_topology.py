"""Graphs, Metropolis weights, and spectral quantities."""

from __future__ import annotations

import numpy as np
import pytest

from gossipskip import (
    Graph,
    MixingMatrix,
    build_random_connectivity,
    build_ring,
    metropolis_weights,
)


def bfs_connected(n: int, edges) -> bool:
    """Independent connectivity oracle."""
    adj = {i: set() for i in range(n)}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for i in frontier:
            for j in adj[i]:
                if j not in seen:
                    seen.add(j)
                    nxt.append(j)
        frontier = nxt
    return len(seen) == n


class TestGraph:
    def test_ring3_is_triangle(self):
        g = build_ring(3)
        assert set(g.edges) == {(0, 1), (1, 2), (0, 2)}
        assert all(g.degree(i) == 2 for i in range(3))

    def test_ring4_edges(self):
        g = build_ring(4)
        assert set(g.edges) == {(0, 1), (1, 2), (2, 3), (0, 3)}

    def test_ring15_degrees(self):
        g = build_ring(15)
        assert g.m == 15
        assert all(g.degree(i) == 2 for i in range(15))

    def test_ring_too_small(self):
        with pytest.raises(ValueError):
            build_ring(2)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(n=3, edges=((0, 0), (0, 1), (1, 2)))

    def test_edge_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"edge \(1,3\) out of range for n=3"):
            Graph(n=3, edges=((0, 1), (1, 3)))

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="disconnected"):
            Graph(n=4, edges=((0, 1), (2, 3)))

    def test_duplicate_edges_collapse(self):
        g = Graph(n=3, edges=((0, 1), (1, 0), (1, 2), (0, 2)))
        assert g.m == 3

    def test_single_node(self):
        g = Graph(n=1, edges=())
        assert g.m == 0 and g.neighbors(0) == ()


class TestRandomConnectivity:
    def test_complete_graph(self):
        g = build_random_connectivity(20, 1.0, seed=0)
        assert g.m == 190

    def test_edge_count_and_connectivity(self):
        g = build_random_connectivity(20, 0.25, seed=7)
        assert g.m == 47  # floor(0.25 * 190)
        assert bfs_connected(g.n, g.edges)

    def test_infeasible(self):
        with pytest.raises(ValueError, match="cannot connect"):
            build_random_connectivity(5, 0.05, seed=0)

    def test_reproducible(self):
        a = build_random_connectivity(20, 0.3, seed=11)
        b = build_random_connectivity(20, 0.3, seed=11)
        assert a.edges == b.edges

    def test_seed_changes_edges(self):
        a = build_random_connectivity(20, 0.3, seed=1)
        b = build_random_connectivity(20, 0.3, seed=2)
        assert a.edges != b.edges

    @pytest.mark.parametrize("iota", [0.25, 0.5, 1.0])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_connected_across_grid(self, iota, seed):
        g = build_random_connectivity(20, iota, seed)
        assert bfs_connected(g.n, g.edges)


class TestMetropolis:
    def test_complete5_is_uniform(self):
        g = build_random_connectivity(5, 1.0, seed=0)
        m = metropolis_weights(g)
        assert np.allclose(m.w, np.full((5, 5), 0.2), atol=1e-15)
        assert m.rho == pytest.approx(0.0, abs=1e-12)

    def test_ring4_weights_and_gap(self):
        m = metropolis_weights(build_ring(4))
        assert m.w[0, 1] == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert m.w[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert m.rho == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_ring15_gap_matches_reported_value(self, ring15_mixing):
        assert ring15_mixing.rho == pytest.approx(0.9424, abs=1e-3)

    def test_invariants_across_topologies(self, topology_matrix):
        for label, m in topology_matrix:
            w = m.w
            assert np.abs(w.sum(axis=1) - 1.0).max() <= 1e-12, label
            assert np.array_equal(w, w.T), label
            assert w.min() >= 0.0 and w.max() <= 1.0, label
            assert m.rho < 1.0, label
            assert m.eigenvalues[0] == pytest.approx(1.0, abs=1e-10)


class TestSpectralGap:
    def test_uniform_matrix_gap_zero(self):
        m = MixingMatrix.from_matrix(np.full((6, 6), 1.0 / 6.0))
        assert m.rho == pytest.approx(0.0, abs=1e-12)

    def test_single_node_convention(self):
        m = MixingMatrix.from_matrix(np.array([[1.0]]))
        assert m.rho == 0.0

    def test_matches_svd_oracle(self, topology_matrix):
        for label, m in topology_matrix[:10] + topology_matrix[-5:]:
            n = m.n
            centered = m.w - np.ones((n, n)) / n
            oracle = np.linalg.svd(centered, compute_uv=False)[0]
            assert m.rho == pytest.approx(oracle, abs=1e-10), label


class TestMixingValidation:
    def test_asymmetric_rejected(self):
        w = np.array([[0.5, 0.5], [0.4, 0.6]])
        with pytest.raises(ValueError, match="symmetric"):
            MixingMatrix.from_matrix(w)

    def test_bad_row_sum_rejected(self):
        w = np.array([[0.6, 0.5], [0.5, 0.6]])
        with pytest.raises(ValueError, match="sum to 1"):
            MixingMatrix.from_matrix(w)

    def test_negative_entry_rejected(self):
        w = np.array([[1.2, -0.2], [-0.2, 1.2]])
        with pytest.raises(ValueError, match="nonnegative"):
            MixingMatrix.from_matrix(w)

    def test_sparsity_respects_graph(self):
        g = build_ring(4)
        w = np.full((4, 4), 0.25)
        with pytest.raises(ValueError, match="edge set"):
            MixingMatrix.from_matrix(w, graph=g)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="must be square"):
            MixingMatrix.from_matrix(np.full((2, 3), 1.0 / 3.0))

    def test_graph_size_must_match(self):
        w = metropolis_weights(build_ring(3)).w
        with pytest.raises(ValueError, match="graph size does not match"):
            MixingMatrix.from_matrix(w, graph=build_ring(4))

    def test_weights_are_immutable(self, ring15_mixing):
        with pytest.raises(ValueError):
            ring15_mixing.w[0, 0] = 2.0
