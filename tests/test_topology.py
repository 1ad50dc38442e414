"""Graphs, Metropolis weights, and spectral quantities."""

from __future__ import annotations

import hashlib
import tracemalloc

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

    @pytest.mark.parametrize("edge", [(1, 2.5), (1.5, 2), (2.0001, 1)])
    def test_non_integer_index_rejected(self, edge):
        with pytest.raises(ValueError, match=rf"edge \({edge[0]},{edge[1]}\) has a non-integer"):
            Graph(n=3, edges=((0, 1), edge))

    def test_integer_valued_indices_pass(self):
        g = Graph(n=3, edges=((0, 1.0), (np.int64(2), np.float64(1.0))))
        assert g.edges == ((0, 1), (1, 2))
        assert all(type(i) is int for edge in g.edges for i in edge)

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

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="must be square"):
            MixingMatrix.from_matrix(np.full((2, 3), 1.0 / 3.0))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one node"):
            MixingMatrix.from_matrix(np.zeros((0, 0)))

    def test_weights_are_immutable(self, ring15_mixing):
        with pytest.raises(ValueError):
            ring15_mixing.w[0, 0] = 2.0


def _random_cases(n):
    for iota in (0.01, 0.05, 0.2, 0.5, 1.0):
        if int(np.floor(iota * n * (n - 1) / 2)) >= n - 1:
            yield from (build_random_connectivity(n, iota, seed) for seed in range(4))


# SHA-256 over each group's graphs in order, of repr(g.edges) and of
# metropolis_weights(g).w.tobytes(): the bytes the per-edge Python builders gave
PINNED_GROUPS = {
    "rings 3-60, 400, 800": (
        lambda: (build_ring(n) for n in [*range(3, 61), 400, 800]),
        "787c3ecfaed3df8273507c3f3d771fde7650d28022856e41aab7aaecf9e97f51",
        "9c380d87644736696fb71cf5c4064ab97f26ce39a90d0acea7b36560897f664b",
    ),
    "random n=5": (
        lambda: _random_cases(5),
        "c67312a6cb9bf3f2b402ff887906883ee08349c082817a4cbd3d07b480940c65",
        "d046bb9228d3d9a422a2fafa54dd6a921eca8e3dab540902346f736848f8c61b",
    ),
    "random n=20": (
        lambda: _random_cases(20),
        "b45c671f983b1cb827e8c0e594f5da5375a4baa8cdb63a1b98840248c6d199a6",
        "c612c4f455ef9ae03f66644fa55d4f5f9da0dfd035b46857f0934544bdb042ae",
    ),
    "random n=50": (
        lambda: _random_cases(50),
        "82132288d330cd41d228bc181af9b3f53a2b8cbca9e4c0882d1929c78080837f",
        "597880c41d06da9e7f28fc19eafee090c370d7121704facbac7fc20f74c5ab50",
    ),
    "random n=120": (
        lambda: _random_cases(120),
        "92a1fa685c35fb10901a9fe0cf0807857e7be758ffee49dd251cd69a61e55ce2",
        "bd22e101a31480d43537b8368265973e4ad810ba3a7cbdeb1caf5f99e0f50ac6",
    ),
    "random n=300": (
        lambda: _random_cases(300),
        "239ce4ff3f29478f39c66b96094141853f50b3f980df11d27d82062c130edea5",
        "d96ec95cf44a79b2244b24416476242aa8e4dc5d0d188411edfdc3ae3ff78971",
    ),
}


class TestPinnedBytes:
    """Edges and weights are pinned byte for byte: a rebuilt sampler or weight
    rule must give every ``(n, iota, seed)`` the same graph and ``W``."""

    @pytest.mark.parametrize("group", PINNED_GROUPS)
    def test_edges_and_weights(self, group):
        graphs, edges_digest, weights_digest = PINNED_GROUPS[group]
        edges, weights = hashlib.sha256(), hashlib.sha256()
        for g in graphs():
            edges.update(repr(g.edges).encode())
            weights.update(metropolis_weights(g).w.tobytes())
        assert (edges.hexdigest(), weights.hexdigest()) == (edges_digest, weights_digest)

    @pytest.mark.parametrize(
        "case, digest",
        [
            # few extra edges: rng.choice samples without a full permutation
            ((1000, 0.01, 3), "1bbf20fbcd4faebcc3d3cac3f6b50b11c1616ab27adbaf63bc29167fcfc31c2c"),
            # many: rng.choice shuffles every free pair's index
            ((1000, 0.5, 1), "1a66e35f4b74f4b13a73373fbba57c41b5e16bdeb9ccb3d9adbb1c58828f06d3"),
            ((2000, 0.001, 0), "95407a0c3aaf700a02d32250b945c995cc9d9131c04aaf598e23395bdaf90749"),
        ],
    )
    def test_large_random_edges(self, case, digest):
        g = build_random_connectivity(*case)
        assert hashlib.sha256(repr(g.edges).encode()).hexdigest() == digest

    def test_sparse_random_graph_lists_no_pairs(self):
        """A 2000-node graph with a tree's worth of edges is built without
        listing its two million node pairs, which as tuples peak near 184 MiB."""
        tracemalloc.start()
        try:
            build_random_connectivity(2000, 0.001, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
