"""Chebyshev-accelerated multi-round gossip.

``K`` consecutive neighbor-averaging rounds with a fixed momentum
weight ``eta`` compress the mixing spectrum toward 1.  The resulting
operator ``Mbar = M_K`` obeys the recursion

    M_{k+1} = (1 + eta) W M_k - eta M_{k-1},   M_0 = M_{-1} = I,

and the distributed procedure :meth:`MultiGossipOperator.fast_goss`
evaluates ``(I - Mbar) @ states`` in one of two ways (see
:attr:`MultiGossipOperator.kernel`): as one product with the cached
``Mbar``, folding the ``K`` rounds into one, wherever a dense ``n x n``
matrix is cheap, or as ``K`` rounds of per-node neighbour exchanges, each
gathering every node's neighbour rows from a padded table, on large
sparse graphs.  ``Mbar`` itself is the recursion run on ``I``: below the
gather crossover as ``K`` dense products with ``W``, and above it as
``ceil(K/2)`` gathered rounds and two dense products (see
:func:`_half_round_build`), each block of columns of ``I`` gathering
only the rows it has reached, which are all that are nonzero.

``Mbar`` is a polynomial in ``W``: it has ``W``'s eigenvectors, and each
eigenvalue ``lam`` of ``W`` maps to ``p_K(lam)``, the recursion run on
scalars.  The diagnostics use that map instead of a dense ``Mbar``:
:func:`verify_prop1` reads the measured contraction radius and the
smallest nonzero eigenvalue of ``I - Mbar`` off
:attr:`MultiGossipOperator.spectrum` and reports them next to the
classical ``sqrt(2) (1 - sqrt(1-rho))^K`` envelope, and the Lyapunov
diagnostic works in the eigenbasis
:attr:`MultiGossipOperator.half_gap_eigh`.  The envelope is not a sound
spectral-radius bound at the prescribed round count (the recursion is
critically damped at the edge eigenvalues, which adds a polynomial-in-K
factor), so callers must consult the report flags rather than assume it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .topology import MixingMatrix

__all__ = [
    "chebyshev_eta",
    "default_K",
    "MultiGossipOperator",
    "Prop1Report",
    "verify_prop1",
]

# Eigenvalues of (I - Mbar)/2 at or below this are flushed to exactly 0.  The
# consensus mode's value 1 - p_K(1) is rounding noise, and the Lyapunov
# diagnostic must give that mode no weight at all.
_NULL_TOL = 1e-9

# Below n = 20 * width + 100, width being the widest row's nonzero count,
# fast_goss always folds and Mbar is built by K dense products; from there
# the neighbour gather applies W unless the fold rule below holds.  Per row,
# a gather round costs about what a dense row of 20 entries per slot plus
# 100 costs.  Rings cross at n = 160, and no graph below n = 120 ever does.
# Measured per W @ S at d = 10, one BLAS thread, 2-core x86-64 VM, dense vs
# gather: ring-90 5.1-5.5 vs 7.4-7.7 us, ring-120 7.6-7.9 vs 8.7-9.2 us,
# ring-200 19.6-20.1 vs 12.0-12.2 us; random graphs n = 200 (width 9) 17-25
# vs 24-36 us, n = 250 (width 10) 28 vs 32-38 us, n = 350 (width 11) 103-110
# vs 48-51 us, n = 800 (width 14) 661-712 vs 140-145 us.  So the fitted
# crossover still falls between ring-120 (dense) and ring-200 (gather).
# Dense cost jumps between n = 300 and 350 (a cache effect), so no single
# n / width ratio fits both rings and random graphs.  Below the crossover
# one product with Mbar costs no more than one W @ S, so folding beats K
# dense rounds at every K.
_GATHER_COST_PER_SLOT = 20
_GATHER_COST_PER_ROW = 100

# From the crossover up, the folded kernel applies the cached Mbar in one
# dense product when n <= 512 and 2 * n < K * (20 * width + 100): per row, the
# product costs about 2 dense-row entries per node against K gathered rounds.
# Fitted per call at d = 10, one BLAS thread, 2-core x86-64 VM, from the K at
# which one product (states - Mbar @ states) costs what K gathered rounds do:
# ring-160 1.1, ring-200 1.7, ring-300 2.5, ring-350 4.3, ring-400 6.9,
# ring-512 9.8; random n = 350 (width 11) 2.0, n = 400 (width 13) 2.3, n = 512
# (width 11) 4.0.  Those put the factor between 1.1 and 3.3 (the dense cache
# jump again); 2 keeps every misjudged call within 2x of the faster kernel.
# The cap applies only from the crossover up, where W is sparse: it keeps
# Mbar at 2 MiB, and its build (0.02-0.03 s at ring-400, 0.1 s at ring-800,
# process CPU time) within a few dozen calls' saving.  Below the crossover a
# dense W already holds n^2 doubles.  Both constants were fitted before the
# build gathered only reached rows; refitting them to the cheaper build would
# move kernels, and so outputs, above n = 512.
_FOLD_COST_PER_NODE = 2
_FOLD_MAX_NODES = 512

# Mbar is built this many columns of I at a time, so the gather's
# (width, n, columns) temporaries stay small next to Mbar itself.
_MBAR_BLOCK = 32


def chebyshev_eta(rho: float) -> float:
    """Standard Chebyshev momentum weight ``(1-sqrt(1-rho^2))/(1+sqrt(1-rho^2))``.

    Monotone increasing in ``rho`` on ``[0, 1)`` with range ``[0, 1)``;
    this is the critical damping for the two-term recursion on spectra
    contained in ``[-rho, rho]``.
    """
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"spectral gap must be in [0, 1), got {rho}")
    c = math.sqrt(1.0 - rho * rho)
    return (1.0 - c) / (1.0 + c)


def default_K(rho: float) -> int:
    """Round count ``max(1, floor(1/sqrt(1-rho)))``."""
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"spectral gap must be in [0, 1), got {rho}")
    return max(1, int(math.floor(1.0 / math.sqrt(1.0 - rho))))


@dataclass(frozen=True)
class MultiGossipOperator:
    """The multi-round operator, distributed and dense views.

    Immutable after construction; the neighbour table applying ``W``, the
    dense ``Mbar`` and the eigenpairs of ``(I - Mbar)/2`` are built on first use
    and cached.  ``fast_goss`` is pure and safe to call concurrently.
    Choosing the kernel builds nothing: the folded kernel's ``Mbar`` is
    built by its first ``fast_goss``.
    """

    mixing: MixingMatrix
    K: int
    eta: float

    def __post_init__(self) -> None:
        if self.K < 1:
            raise ValueError(f"round count must be >= 1, got {self.K}")
        if not 0.0 <= self.eta < 1.0:
            raise ValueError(f"eta must be in [0, 1), got {self.eta}")

    @classmethod
    def from_mixing(cls, mixing: MixingMatrix, K: int | None = None) -> MultiGossipOperator:
        """Build with ``eta = chebyshev_eta(rho)`` and by default ``K = default_K(rho)``."""
        rho = mixing.rho
        return cls(mixing=mixing, K=default_K(rho) if K is None else K, eta=chebyshev_eta(rho))

    @property
    def n(self) -> int:
        return self.mixing.n

    @cached_property
    def _gather_row(self) -> int:
        """The gather crossover ``20 * width + 100``, ``width`` the largest
        number of nonzeros in a row of ``W``: a gathered round costs about
        what this many dense entries per row do."""
        width = int(np.count_nonzero(self.mixing.w, axis=1).max())
        return _GATHER_COST_PER_SLOT * width + _GATHER_COST_PER_ROW

    @cached_property
    def kernel(self) -> str:
        """How ``fast_goss`` applies ``Mbar``: ``"folded"`` or ``"neighbour"``.

        Chosen once per operator from the sparsity of ``W`` and ``K``, with
        ``width`` the largest number of nonzeros in a row of ``W``:

        - ``"folded"``: one product with the cached ``Mbar``, at every ``K``
          when ``n < 20 * width + 100``, and otherwise when ``n <= 512`` and
          ``2 * n < K * (20 * width + 100)``;
        - ``"neighbour"``: ``K`` rounds of the neighbour gather otherwise.
        """
        row = self._gather_row
        pays = self.n <= _FOLD_MAX_NODES and _FOLD_COST_PER_NODE * self.n < self.K * row
        return "folded" if self.n < row or pays else "neighbour"

    @cached_property
    def _apply_w(self) -> _NeighbourTable:
        """The neighbour gather applying ``W`` in the ``"neighbour"`` kernel's :meth:`fast_goss`."""
        return _NeighbourTable(self.mixing.w)

    @cached_property
    def mbar(self) -> np.ndarray:
        """Dense ``M_K``, the matrix :meth:`fast_goss` applies.  Read-only.

        Below the gather crossover (``n < 20 * width + 100``) the build runs
        the ``K`` rounds of the recursion on ``I`` with dense products, so at
        ``K = 1``, ``eta = 0`` it is ``W @ I``, which is ``W`` exactly.  From
        the crossover up it is built by :func:`_half_round_build` from a
        neighbour table of its own, which it frees, so the operator then
        holds ``Mbar`` and nothing else the build made; it agrees with the
        ``K`` rounds to rounding (under ``2e-15`` per entry at ring-400), and
        at ``K = 1``, ``eta = 0`` it too is ``W`` exactly.  Its wall-clock
        seconds are :attr:`mbar_seconds`.
        """
        clock = time.perf_counter()
        if self.n < self._gather_row:
            m = _chebyshev(partial(np.matmul, self.mixing.w), np.eye(self.n), self.K, self.eta)
        else:
            # a table of the build's own, so a folded operator never holds one
            m = _half_round_build(_NeighbourTable(self.mixing.w), self.K, self.eta)
        m.setflags(write=False)
        # cached beside mbar, as the frozen dataclass takes no new attribute
        self.__dict__["_mbar_seconds"] = time.perf_counter() - clock
        return m

    @property
    def mbar_seconds(self) -> float | None:
        """Wall-clock seconds :attr:`mbar`'s build took; ``None`` until it is built."""
        return self.__dict__.get("_mbar_seconds")

    def _on_eigenvalues(self, lam: np.ndarray) -> np.ndarray:
        """``p_K(lam)``: the recursion run on each eigenvalue ``lam`` of ``W``."""
        return _chebyshev(partial(np.multiply, lam), np.ones_like(lam), self.K, self.eta)

    @property
    def spectrum(self) -> np.ndarray:
        """Eigenvalues of ``Mbar``, ascending, from those of ``W``; ``O(nK)``."""
        return np.sort(self._on_eigenvalues(self.mixing.eigenvalues))

    @cached_property
    def half_gap_eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenpairs ``(h, V)`` of ``(I - Mbar)/2``: ``(I - Mbar)/2 = V diag(h) V^T``.

        ``V`` holds the orthonormal eigenvectors of ``W`` from
        :attr:`MixingMatrix.eigh`, which every operator on the same mixing
        matrix shares, and the eigenvalue ``lam`` of ``W`` maps to
        ``h = (1 - p_K(lam))/2``.  The consensus eigenvalue is exactly 0.
        Read-only.
        """
        lam, vecs = self.mixing.eigh
        h = 0.5 * (1.0 - self._on_eigenvalues(lam))
        h[h <= _NULL_TOL] = 0.0
        h.setflags(write=False)
        return h, vecs

    def fast_goss(self, states: np.ndarray) -> np.ndarray:
        """Distributed evaluation of ``(I - Mbar) @ states``.

        Each of the ``K`` rounds combines every node's value with its
        neighbors' (one application of ``W``); the momentum term is
        purely local.  Returns ``states - s_K`` where ``s_K`` follows
        the Chebyshev recursion from ``s_0 = s_{-1} = states``.  The
        folded kernel computes the same ``K`` rounds as one product with
        ``Mbar``, which agrees with the recursion to rounding (``1.5e-14``
        at ring-400 on unit normal states) and, where ``Mbar = W`` exactly
        (``K = 1``, ``eta = 0``), is ``states - W @ states`` to the bit.
        ``states`` has ``n`` rows and any trailing shape; both kernels
        treat the trailing axes as one batch of columns.
        """
        states = np.asarray(states, dtype=float)
        if states.shape[0] != self.n:
            raise ValueError(
                f"states has {states.shape[0]} rows, expected {self.n}"
            )
        if states.ndim > 2:
            # W and Mbar act on the node axis: the other axes are one batch of columns
            return self.fast_goss(states.reshape(self.n, -1)).reshape(states.shape)
        if self.kernel == "folded":
            s_k = self.mbar @ states
        else:
            s_k = _chebyshev(self._apply_w, states, self.K, self.eta)
        # s_k is the kernel's own new array: states - s_k overwrites it
        return np.subtract(states, s_k, out=s_k)


class _NeighbourTable:
    """``W`` in padded ELL form, applied by gathering neighbor rows.

    ``idx`` and ``wts`` have shape ``(width, n)``: row ``i`` of ``W @ s``
    is ``sum_k wts[k, i] * s[idx[k, i]]``.  Rows with fewer than
    ``width`` nonzeros are padded with weight 0 on the node itself.  A
    call gathers through :func:`_gather` and keeps nothing, so the table
    holds ``idx`` and ``wts`` alone whatever states it has met.
    """

    def __init__(self, w: np.ndarray) -> None:
        n = w.shape[0]
        rows, cols = np.nonzero(w)  # row-major, so each row's entries are contiguous
        counts = np.bincount(rows, minlength=n)
        slot = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
        self.idx = np.tile(np.arange(n), (int(counts.max()), 1))
        self.wts = np.zeros(self.idx.shape)
        self.idx[slot, rows] = cols
        self.wts[slot, rows] = w[rows, cols]

    def __call__(self, s: np.ndarray) -> np.ndarray:
        return _gather(s, self.idx, self.wts)


def _gather(s: np.ndarray, idx: np.ndarray, wts: np.ndarray) -> np.ndarray:
    """``sum_k wts[k, i] * s[idx[k, i]]`` for each row ``i``, ``idx`` and ``wts``
    of shape ``(width, rows)`` and ``s`` of any trailing shape.

    ``np.einsum`` multiplies each gathered row by its weight and adds the
    ``width`` products in slot order, the same operations as multiplying by
    ``wts`` broadcast over the trailing axes and summing over slots, so the
    result is the same to the bit, signed zeros included.
    """
    return np.einsum("kn,kn...->n...", wts, np.take(s, idx, axis=0))


def _chebyshev(apply_w, states: np.ndarray, K: int, eta: float) -> np.ndarray:
    """``s_K`` of ``s_{k+1} = (1 + eta) W s_k - eta s_{k-1}``, ``s_0 = s_{-1} = states``.

    ``apply_w`` returns a new array, which is updated in place, and one
    scratch array holds ``eta s_{k-1}``; this performs the same
    floating-point operations as the recursion's expression, so ``s_K`` is
    the same to the bit, and ``states`` is never written.
    The neighbour kernel's :meth:`~MultiGossipOperator.fast_goss` runs it
    on its states through the gather, and :attr:`MultiGossipOperator.mbar`,
    below the gather crossover, on ``I`` through dense products with ``W``.
    """
    if not eta:
        # both updates would keep every finite value, but turn a -0.0 into +0.0
        for _ in range(K):
            states = apply_w(states)
        return states
    grow = 1.0 + eta
    prev = cur = states
    scaled = None
    for _ in range(K):
        nxt = apply_w(cur)
        nxt *= grow
        scaled = np.multiply(prev, eta, out=scaled)
        nxt -= scaled
        prev, cur = cur, nxt
    return cur


def _half_round_build(table: _NeighbourTable, K: int, eta: float) -> np.ndarray:
    """``M_K`` from ``h = ceil(K/2)`` rounds of the recursion and two dense products.

    ``P_k``, the recursion's fundamental solution (``P_0 = I``,
    ``P_{-1} = 0``), gives ``M_k = P_k - eta P_{k-1}`` and, since the
    recursion shifts solutions, ``M_{a+b} = P_a M_b - eta P_{a-1} M_{b-1}``.
    The build runs ``h`` rounds on each block of ``I`` to fill ``P_{h-2}``,
    ``P_{h-1}`` and ``P_h``, then takes ``b = h`` and ``a = K - h``.  Each
    column block of ``M_K`` is written over the one ``P`` that is not a
    left operand, after its own columns of ``M_h`` and ``M_{h-1}`` are read,
    so the build holds three ``(n, n)`` arrays and returns one of them.
    The products give a block's rows from its diagonal block down; the
    rows above are copied from earlier blocks, as ``M_K`` is symmetric.

    A block's columns of ``P_k`` are exact zeros beyond ``k`` hops of its
    own nodes, so round ``k`` on a block gathers from ``table`` only the
    rows within ``k`` hops (see :func:`_reach_rounds`).  Each sums the
    terms a round on all ``n`` rows sums, in the same order, so ``M_K`` is
    the same to the bit as with rounds on all rows.
    """
    n = table.idx.shape[1]
    h = (K + 1) // 2
    p = [np.zeros((n, n)) for _ in range(3)]  # P_{h-2}, P_{h-1}, P_h
    hops = _block_hops(table.idx, n, h)
    for block, top in enumerate(range(0, n, _MBAR_BLOCK)):
        cols = slice(top, top + _MBAR_BLOCK)
        # reach[k]: how many nodes are within k hops of this block
        reach = np.cumsum(np.bincount(hops[:, block], minlength=h + 1))
        # nearest first; the block's own nodes, at 0 hops, keep their order
        rows = np.argsort(hops[:, block], kind="stable")[: reach[h]]
        local = np.full(n, rows.size)  # renumbered; a neighbour beyond them reads row rows.size
        local[rows] = np.arange(rows.size)
        rounds = _reach_rounds(local[table.idx[:, rows]], table.wts[:, rows], reach, h, eta)
        for out, values in zip(p, rounds):
            out[rows, cols] = values
    # the left operands P_a, P_{a-1}, and the output
    if K % 2:  # a = h - 1
        left, left_prev, out = p[1], p[0], p[2]
    else:  # a = h
        left, left_prev, out = p[2], p[1], p[0]
    for top in range(0, n, _MBAR_BLOCK):
        cols = slice(top, top + _MBAR_BLOCK)
        m_b = p[2][:, cols] - eta * p[1][:, cols]
        m_b_prev = p[1][:, cols] - eta * p[0][:, cols]
        # M_K is symmetric: its rows above this block are the columns left of it
        block = left[top:] @ m_b
        block -= eta * (left_prev[top:] @ m_b_prev)
        out[top:, cols] = block
        out[:top, cols] = out[cols, :top].T
    return out


def _block_hops(idx: np.ndarray, n: int, h: int) -> np.ndarray:
    """``hops[i, b]``: the hop distance from column block ``b`` of ``I`` to node
    ``i``, or ``h + 1`` beyond ``h`` hops.

    One boolean breadth-first search over the neighbour indices ``idx``
    serves every block; it stops once no block's reach grows.  A node
    stays reached whether or not it is its own neighbour (``w_ii`` may be
    zero), so the reach only grows.
    """
    blocks = np.arange(n) // _MBAR_BLOCK
    reached = blocks[:, None] == np.arange(blocks[-1] + 1)
    hops = np.where(reached, 0, h + 1)
    for k in range(1, h + 1):
        grown = reached[idx].any(axis=0) | reached
        new = grown & ~reached
        if not new.any():
            break
        hops[new] = k
        reached = grown
    return hops


def _reach_rounds(idx: np.ndarray, wts: np.ndarray, reach: np.ndarray, h: int, eta: float):
    """One block's ``P_{h-2}``, ``P_{h-1}`` and ``P_h`` on its reached rows.

    ``idx`` and ``wts``, of shape ``(width, rows)``, gather the block's
    ``rows`` reached rows nearest first, its own nodes leading; ``reach[k]``
    of them lie within ``k`` hops, so ``reach[0]`` is the block's own node
    count, its number of columns.  Round ``k`` gathers through the first
    ``reach[k]`` rows only, as ``P_k`` is zero on the rest.  Three buffers
    hold the iterates, with one zero row past the reached ones for the
    neighbours beyond them; the buffer each round writes held ``P_{k-3}``,
    whose rows all lie within ``reach[k]``, so no row it skips is nonzero.
    """
    size, cols = wts.shape[1], reach[0]
    prev, cur, nxt = (np.zeros((size + 1, cols)) for _ in range(3))  # P_{-1}, P_0, spare
    cur[:cols] = np.eye(cols)
    for k in range(1, h + 1):
        within = reach[k]
        step = nxt[:within]
        step[...] = _gather(cur, idx[:, :within], wts[:, :within])
        # the recursion's own operations on the same values (see _chebyshev)
        if eta:
            step *= 1.0 + eta
            step -= eta * prev[:within]
        prev, cur, nxt = cur, nxt, prev
    return nxt[:size], prev[:size], cur[:size]


@dataclass(frozen=True)
class Prop1Report:
    """Measured multi-round spectral quantities vs their claimed envelopes.

    ``symmetric`` and ``doubly_stochastic`` read the dense ``op.mbar``, so
    they are computed on first read: a report whose flags are never read
    builds no ``Mbar`` that the operator's own kernel does not.
    """

    op: MultiGossipOperator = field(repr=False, compare=False)
    K: int
    radius: float
    radius_bound: float
    radius_bound_ok: bool
    sigma_min: float
    sigma_min_ok: bool

    @cached_property
    def symmetric(self) -> bool:
        mbar = self.op.mbar
        return bool(np.abs(mbar - mbar.T).max() <= 1e-12)

    @cached_property
    def doubly_stochastic(self) -> bool:
        return bool(np.abs(self.op.mbar.sum(axis=1) - 1.0).max() <= 1e-9)


def verify_prop1(op: MultiGossipOperator) -> Prop1Report:
    """Check the multi-round operator against its claimed spectral envelopes.

    Reports (never raises): symmetry and double stochasticity of the
    dense ``Mbar``, computed when first read; the measured radius
    ``max|eig(Mbar - 11^T/n)|`` against
    ``sqrt(2) (1 - sqrt(1-rho))^K + 1e-9``; and the smallest nonzero
    eigenvalue of ``I - Mbar`` against ``2/5``.  Both eigenvalue
    quantities come from :attr:`MultiGossipOperator.spectrum`, the source
    the primal-dual engine checks.  The two envelope flags
    are only meaningful guarantees at ``K = default_K(rho)``, and even
    there the envelopes can fail (see module docstring); downstream
    code gates on the measured ``sigma_min``.
    """
    # ascending; the largest is the consensus eigenvalue 1, which centring removes
    off = op.spectrum[:-1]
    radius = float(np.abs(off).max(initial=0.0))
    radius_bound = math.sqrt(2.0) * (1.0 - math.sqrt(1.0 - op.mixing.rho)) ** op.K
    # n == 1 has no nonzero eigenvalues at all; the check is vacuous then
    sigma_min = float((1.0 - off).min()) if off.size else float("nan")
    sigma_min_ok = bool(off.size == 0 or sigma_min >= 0.4)
    return Prop1Report(
        op=op,
        K=op.K,
        radius=radius,
        radius_bound=radius_bound,
        radius_bound_ok=bool(radius <= radius_bound + 1e-9),
        sigma_min=sigma_min,
        sigma_min_ok=sigma_min_ok,
    )
