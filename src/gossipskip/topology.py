"""Network topologies and their doubly stochastic mixing matrices.

Graphs are undirected, connected, and immutable once built.  Mixing
matrices follow the Metropolis-Hastings rule and carry their full real
spectrum, from which the spectral gap ``rho = max{|lam_2|, |lam_n|}``
is derived.  Everything downstream (gossip acceleration, stepsize and
skipping-probability rules) keys off ``rho``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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


@dataclass(frozen=True)
class Graph:
    """Undirected connected graph on nodes ``0..n-1``.

    Edges are stored canonically as sorted ``(i, j)`` pairs with
    ``i < j``; duplicates collapse, and self-loops and non-integer node
    indices are rejected.  Construction fails for disconnected graphs.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"node count must be >= 1, got {self.n}")
        edges = set()
        for i, j in self.edges:
            if int(i) != i or int(j) != j:
                raise ValueError(f"edge ({i},{j}) has a non-integer node index")
            if i == j:
                raise ValueError(f"self-loop ({i},{i}) is not allowed")
            a, b = (int(i), int(j)) if i < j else (int(j), int(i))
            if not (0 <= a and b < self.n):
                raise ValueError(f"edge ({a},{b}) out of range for n={self.n}")
            edges.add((a, b))
        object.__setattr__(self, "edges", tuple(sorted(edges)))
        if not self._is_connected():
            raise ValueError("graph is disconnected")

    @cached_property
    def _neighbors(self) -> tuple[tuple[int, ...], ...]:
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for i, j in self.edges:
            nbrs[i].append(j)
            nbrs[j].append(i)
        return tuple(tuple(sorted(v)) for v in nbrs)

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
        Real spectrum sorted descending; ``eigenvalues[0] == 1``.  From
        ``eigvalsh`` at construction, as ``rho`` needs it; :attr:`eigh`
        decomposes ``w`` on first use.
    rho : float
        Spectral gap ``max{|lam_2|, |lam_n|}`` (0 for n == 1).
    """

    w: np.ndarray
    eigenvalues: np.ndarray
    rho: float

    @classmethod
    def from_matrix(cls, w: np.ndarray) -> MixingMatrix:
        """Validate ``w`` and attach its spectrum.

        Raises
        ------
        ValueError
            If ``w`` is empty, not square or not exactly symmetric, rows do
            not sum to 1 within 1e-12, entries are negative, or the
            leading eigenvalue is not 1 within 1e-10.
        """
        w = np.asarray(w, dtype=float)
        n = w.shape[0]
        if w.shape != (n, n):
            raise ValueError(f"mixing matrix must be square, got {w.shape}")
        if n == 0:
            raise ValueError("mixing matrix must have at least one node")
        if not np.array_equal(w, w.T):
            raise ValueError("mixing matrix must be exactly symmetric")
        if np.abs(w.sum(axis=1) - 1.0).max() > 1e-12:
            raise ValueError("rows must sum to 1 within 1e-12")
        if w.min() < 0.0:
            raise ValueError("entries must be nonnegative")
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

    @cached_property
    def eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """``np.linalg.eigh(w)``, computed on first use and shared by every
        operator on this matrix.  Read-only."""
        lam, vecs = np.linalg.eigh(self.w)
        lam.setflags(write=False)
        vecs.setflags(write=False)
        return lam, vecs


def build_ring(n: int) -> Graph:
    """Ring on ``n >= 3`` nodes: edges ``(i, (i+1) mod n)``, all degrees 2."""
    if n < 3:
        raise ValueError(f"ring needs n >= 3 nodes, got {n}")
    return Graph(n=n, edges=tuple((i, (i + 1) % n) for i in range(n)))


def build_random_connectivity(n: int, iota: float, seed: int) -> Graph:
    """Random connected graph with exactly ``floor(iota*n*(n-1)/2)`` edges.

    A random spanning tree guarantees connectivity; the remaining edges
    are drawn uniformly among the unused pairs, by their rank in the
    row-major pair order, so no list of all pairs is built.  Identical
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
    # random spanning tree: attach each node (in random order) to a
    # uniformly chosen earlier node
    order = rng.permutation(n)
    tree = [sorted((int(order[k]), int(order[rng.integers(0, k)]))) for k in range(1, n)]
    # pair (i, j), i < j, has rank starts[i] + j - i - 1 in row-major order; the
    # extra edges are a uniform draw of ranks among those the tree leaves free
    nodes = np.arange(n)
    starts = nodes * (2 * n - nodes - 1) // 2
    taken = np.sort([starts[i] + j - i - 1 for i, j in tree])
    free = rng.choice(n * (n - 1) // 2 - len(tree), size=m - len(tree), replace=False)
    # free rank number f is f plus the count of tree ranks t_k (k-th smallest)
    # with t_k - k <= f, as t_k - k free ranks lie below t_k
    ranks = free + np.searchsorted(taken - np.arange(len(tree)), free, side="right")
    rows = np.searchsorted(starts, ranks, side="right") - 1
    extra = zip(rows.tolist(), (ranks - starts[rows] + rows + 1).tolist())
    return Graph(n=n, edges=(*tree, *extra))


def metropolis_weights(g: Graph) -> MixingMatrix:
    """Metropolis-Hastings weights for ``g``.

    ``w_ij = 1/(1 + max(deg_i, deg_j))`` on edges, the diagonal absorbs
    the remainder.  The result is symmetric, doubly stochastic, and has
    positive diagonal, so its spectrum lies in ``(-1, 1]`` with a simple
    leading eigenvalue 1 for connected graphs.
    """
    i, j = np.array(g.edges, dtype=int).reshape(-1, 2).T
    degree = np.bincount(np.concatenate((i, j)), minlength=g.n)
    w = np.zeros((g.n, g.n))
    w[i, j] = w[j, i] = 1.0 / (1.0 + np.maximum(degree[i], degree[j]))
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return MixingMatrix.from_matrix(w)
