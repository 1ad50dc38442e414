"""Network topologies and their doubly stochastic mixing matrices.

Graphs are undirected, connected, and immutable once built.  Mixing
matrices follow the Metropolis-Hastings rule and carry their full real
spectrum, from which the spectral gap ``rho = max{|lam_2|, |lam_n|}``
is derived.  Everything downstream (gossip acceleration, stepsize and
skipping-probability rules) keys off ``rho``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Graph",
    "MixingMatrix",
    "build_ring",
    "build_random_connectivity",
    "metropolis_weights",
]

# Tag mixed into the SeedSequence so graph sampling never shares a
# stream with problem generation or coin flipping.
_GRAPH_STREAM = 0x707


def _canonical_edges(edges) -> tuple[tuple[int, int], ...]:
    out = set()
    for i, j in edges:
        if i == j:
            raise ValueError(f"self-loop ({i},{i}) is not allowed")
        a, b = (int(i), int(j)) if i < j else (int(j), int(i))
        out.add((a, b))
    return tuple(sorted(out))


@dataclass(frozen=True)
class Graph:
    """Undirected connected graph on nodes ``0..n-1``.

    Edges are stored canonically as sorted ``(i, j)`` pairs with
    ``i < j``; duplicates collapse and self-loops are rejected.
    Construction fails for disconnected graphs.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    _neighbors: tuple[tuple[int, ...], ...] = field(
        default=(), repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"node count must be >= 1, got {self.n}")
        edges = _canonical_edges(self.edges)
        object.__setattr__(self, "edges", edges)
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for i, j in edges:
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge ({i},{j}) out of range for n={self.n}")
            nbrs[i].append(j)
            nbrs[j].append(i)
        object.__setattr__(
            self, "_neighbors", tuple(tuple(sorted(v)) for v in nbrs)
        )
        if not self._is_connected():
            raise ValueError("graph is disconnected")

    def _is_connected(self) -> bool:
        # BFS from node 0
        seen = np.zeros(self.n, dtype=bool)
        stack = [0]
        seen[0] = True
        while stack:
            i = stack.pop()
            for j in self._neighbors[i]:
                if not seen[j]:
                    seen[j] = True
                    stack.append(j)
        return bool(seen.all())

    def neighbors(self, i: int) -> tuple[int, ...]:
        """Neighbors of node ``i`` (excluding ``i`` itself)."""
        return self._neighbors[i]

    def degree(self, i: int) -> int:
        return len(self._neighbors[i])

    @property
    def m(self) -> int:
        """Edge count."""
        return len(self.edges)


@dataclass(frozen=True)
class MixingMatrix:
    """Symmetric doubly stochastic weight matrix with spectral metadata.

    Attributes
    ----------
    w : ndarray, shape (n, n)
        The weights; read-only.
    eigenvalues : ndarray, shape (n,)
        Real spectrum sorted descending; ``eigenvalues[0] == 1``.
    rho : float
        Spectral gap ``max{|lam_2|, |lam_n|}`` (0 for n == 1).
    """

    w: np.ndarray
    eigenvalues: np.ndarray
    rho: float

    @classmethod
    def from_matrix(cls, w: np.ndarray, graph: Graph | None = None) -> MixingMatrix:
        """Validate ``w`` and attach its spectrum.

        Raises
        ------
        ValueError
            If ``w`` is not exactly symmetric, rows do not sum to 1
            within 1e-12, entries are negative, its sparsity pattern
            does not respect ``graph``, or the leading eigenvalue is
            not 1 within 1e-10.
        """
        w = np.asarray(w, dtype=float)
        n = w.shape[0]
        if w.shape != (n, n):
            raise ValueError(f"mixing matrix must be square, got {w.shape}")
        if not np.array_equal(w, w.T):
            raise ValueError("mixing matrix must be exactly symmetric")
        if np.abs(w.sum(axis=1) - 1.0).max() > 1e-12:
            raise ValueError("rows must sum to 1 within 1e-12")
        if w.min() < 0.0:
            raise ValueError("entries must be nonnegative")
        if graph is not None:
            if graph.n != n:
                raise ValueError("graph size does not match matrix")
            mask = np.zeros((n, n), dtype=bool)
            for i, j in graph.edges:
                mask[i, j] = mask[j, i] = True
            np.fill_diagonal(mask, True)
            if np.any(w[~mask] != 0.0):
                raise ValueError("nonzero weight outside the edge set")
        eigenvalues = np.sort(np.linalg.eigvalsh(w))[::-1]
        if abs(eigenvalues[0] - 1.0) > 1e-10:
            raise ValueError("leading eigenvalue must be 1 within 1e-10")
        rho = 0.0 if n == 1 else float(max(abs(eigenvalues[1]), abs(eigenvalues[-1])))
        w = w.copy()
        w.setflags(write=False)
        eigenvalues = eigenvalues.copy()
        eigenvalues.setflags(write=False)
        return cls(w=w, eigenvalues=eigenvalues, rho=rho)

    @property
    def n(self) -> int:
        return self.w.shape[0]


def build_ring(n: int) -> Graph:
    """Ring on ``n >= 3`` nodes: edges ``(i, (i+1) mod n)``, all degrees 2."""
    if n < 3:
        raise ValueError(f"ring needs n >= 3 nodes, got {n}")
    return Graph(n=n, edges=tuple((i, (i + 1) % n) for i in range(n)))


def build_random_connectivity(n: int, iota: float, seed: int) -> Graph:
    """Random connected graph with exactly ``floor(iota*n*(n-1)/2)`` edges.

    A random spanning tree guarantees connectivity; the remaining edges
    are drawn uniformly among the unused pairs.  Identical
    ``(n, iota, seed)`` always produce the identical edge set.

    Raises
    ------
    ValueError
        If the requested edge count is below ``n - 1`` (connectivity
        infeasible) or ``iota`` is outside ``(0, 1]``.
    """
    if not 0.0 < iota <= 1.0:
        raise ValueError(f"connectivity ratio must be in (0, 1], got {iota}")
    m = int(np.floor(iota * n * (n - 1) / 2))
    if m < n - 1:
        raise ValueError(
            f"floor(iota*n*(n-1)/2) = {m} edges cannot connect {n} nodes"
        )
    rng = np.random.default_rng(np.random.SeedSequence([seed, _GRAPH_STREAM]))
    edges: set[tuple[int, int]] = set()
    # random spanning tree: attach each node (in random order) to a
    # uniformly chosen earlier node
    order = rng.permutation(n)
    for k in range(1, n):
        i = int(order[k])
        j = int(order[rng.integers(0, k)])
        edges.add((min(i, j), max(i, j)))
    remaining = [
        (i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in edges
    ]
    extra = m - len(edges)
    for idx in rng.choice(len(remaining), size=extra, replace=False):
        edges.add(remaining[int(idx)])
    return Graph(n=n, edges=tuple(edges))


def metropolis_weights(g: Graph) -> MixingMatrix:
    """Metropolis-Hastings weights for ``g``.

    ``w_ij = 1/(1 + max(deg_i, deg_j))`` on edges, the diagonal absorbs
    the remainder.  The result is symmetric, doubly stochastic, and has
    positive diagonal, so its spectrum lies in ``(-1, 1]`` with a simple
    leading eigenvalue 1 for connected graphs.
    """
    n = g.n
    w = np.zeros((n, n))
    for i, j in g.edges:
        v = 1.0 / (1.0 + max(g.degree(i), g.degree(j)))
        w[i, j] = v
        w[j, i] = v
    for i in range(n):
        w[i, i] = 1.0 - w[i].sum()
    return MixingMatrix.from_matrix(w, graph=g)
