"""Chebyshev-accelerated multi-round gossip.

``K`` consecutive neighbor-averaging rounds with a fixed momentum
weight ``eta`` compress the mixing spectrum toward 1.  The resulting
operator ``Mbar = M_K`` obeys the recursion

    M_{k+1} = (1 + eta) W M_k - eta M_{k-1},   M_0 = M_{-1} = I,

and the distributed procedure :meth:`MultiGossipOperator.fast_goss`
evaluates ``(I - Mbar) @ states`` using only per-node neighbor
exchanges, ``K`` rounds per invocation.  Each round applies ``W`` either
as a dense product or, on large sparse graphs, by gathering every node's
neighbor rows from a padded table; on mid-size sparse graphs whose ``K``
rounds cost more than one dense product, the cached ``Mbar`` is applied
instead, folding the ``K`` rounds into one (see
:attr:`MultiGossipOperator.kernel`).  ``Mbar`` itself is the recursion
run on ``I``: for ``K`` dense rounds on the dense kernel, and on the
others for ``ceil(K/2)`` gathered rounds and two dense products (see
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
from dataclasses import dataclass
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

# The neighbor gather applies W when n >= 20 * width + 100, width being the
# widest row's nonzero count: per row, a gather round costs about what a dense
# row of 20 entries per slot plus 100 costs.  Rings switch at n = 160, and no
# graph below n = 120 ever does.  Measured per W @ S at d = 10, one BLAS
# thread, 2-core x86-64 VM, dense vs gather: ring-90 9 vs 12 us, ring-120
# 12-13 vs 13-14 us, ring-200 29 vs 16-17 us; random graphs n = 200 (width 9)
# 31 vs 32-34 us, n = 250 (width 10) 35-41 vs 43-46 us, n = 350 (width 11)
# 184-192 vs 57-67 us, n = 800 (width 14) 1063-1133 vs 203-228 us.  Dense cost
# jumps between n = 300 and 350 (a cache effect), so no single n / width
# ratio fits both rings and random graphs.
_GATHER_COST_PER_SLOT = 20
_GATHER_COST_PER_ROW = 100

# Where the gather is picked, the folded kernel applies the cached Mbar in one
# dense product when n <= 512 and 2 * n < K * (20 * width + 100): per row, the
# product costs about 2 dense-row entries per node against K gathered rounds.
# Fitted per call at d = 10, one BLAS thread, 2-core x86-64 VM, from the K at
# which one product (states - Mbar @ states) costs what K gathered rounds do:
# ring-160 1.1, ring-200 1.7, ring-300 2.5, ring-350 4.3, ring-400 6.9,
# ring-512 9.8; random n = 350 (width 11) 2.0, n = 400 (width 13) 2.3, n = 512
# (width 11) 4.0.  Those put the factor between 1.1 and 3.3 (the dense cache
# jump again); 2 keeps every misjudged call within 2x of the faster kernel.
# The cap keeps Mbar at 2 MiB, and its build (0.03 s at ring-400, 0.17 s at
# ring-800) within a few dozen calls' saving.  Both constants were fitted
# before the build gathered only reached rows; refitting them to the cheaper
# build would move kernels, and so outputs, above n = 512.
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

    Immutable after construction; the kernel applying ``W``, the dense
    ``Mbar`` and the eigenpairs of ``(I - Mbar)/2`` are built on first use
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
    def kernel(self) -> str:
        """How ``fast_goss`` applies ``Mbar``: ``"dense"``, ``"neighbour"`` or ``"folded"``.

        Chosen once per operator from the sparsity of ``W`` and ``K``, with
        ``width`` the largest number of nonzeros in a row of ``W``:

        - ``"dense"``: ``K`` rounds of ``W @ S``, when ``n < 20 * width + 100``;
        - ``"folded"``: one product with the cached ``Mbar``, when also
          ``n <= 512`` and ``2 * n < K * (20 * width + 100)``;
        - ``"neighbour"``: ``K`` rounds of the neighbour gather otherwise.
        """
        width = int(np.count_nonzero(self.mixing.w, axis=1).max())
        gather_row = _GATHER_COST_PER_SLOT * width + _GATHER_COST_PER_ROW
        if self.n < gather_row:
            return "dense"
        if self.n <= _FOLD_MAX_NODES and _FOLD_COST_PER_NODE * self.n < self.K * gather_row:
            return "folded"
        return "neighbour"

    @cached_property
    def _apply_w(self):
        """The callable applying ``W`` in :meth:`fast_goss` and the dense kernel's
        :attr:`mbar`: ``W @ s`` on the dense kernel, else the neighbour gather."""
        w = self.mixing.w
        return partial(np.matmul, w) if self.kernel == "dense" else _NeighbourTable(w)

    @cached_property
    def mbar(self) -> np.ndarray:
        """Dense ``M_K``, the matrix :meth:`fast_goss` applies.  Read-only.

        The dense kernel runs the ``K`` rounds of the recursion on ``I``
        itself.  The others build it by :func:`_half_round_build` from a
        neighbour table of its own, which it frees, so the operator then
        holds ``Mbar`` and nothing else the build made; it agrees with the
        ``K`` rounds to rounding (under ``2e-15`` per entry at ring-400).
        At ``K = 1``, ``eta = 0`` either build is ``W`` exactly.  Its
        wall-clock seconds are :attr:`mbar_seconds`.
        """
        clock = time.perf_counter()
        if self.kernel == "dense":
            m = _chebyshev(self._apply_w, np.eye(self.n), self.K, self.eta)
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
        at ring-400 on unit normal states).  ``states`` has ``n`` rows and
        any trailing shape; every kernel treats the trailing axes as one
        batch of columns.
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
    ``width`` nonzeros are padded with weight 0 on the node itself.
    ``wts_by_shape`` maps each trailing state shape met so far to its
    :func:`_layout` of ``wts``, and a call gathers through :func:`_gather`.
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
        self.wts_by_shape: dict[tuple[int, ...], np.ndarray] = {}

    def layout(self, trailing: tuple[int, ...]) -> np.ndarray:
        """``wts`` laid out as ``(width, n, *trailing)``, built on first use."""
        wts = self.wts_by_shape.get(trailing)
        if wts is None:
            # concurrent first calls build equal copies; every caller uses the stored one
            wts = self.wts_by_shape.setdefault(trailing, _layout(self.wts, trailing))
        return wts

    def __call__(self, s: np.ndarray) -> np.ndarray:
        return _gather(s, self.idx, self.layout(s.shape[1:]))


def _layout(wts: np.ndarray, trailing: tuple[int, ...]) -> np.ndarray:
    """A read-only copy of ``wts`` laid out as ``(width, n, *trailing)``: the gather's
    multiply then runs over contiguous operands, not ``wts`` broadcast with stride 0
    (which took about half of each round)."""
    column = wts.reshape(wts.shape + (1,) * len(trailing))
    out = np.broadcast_to(column, wts.shape + trailing).copy()
    out.setflags(write=False)
    return out


def _gather(s: np.ndarray, idx: np.ndarray, wts: np.ndarray) -> np.ndarray:
    """``sum_k wts[k, i] * s[idx[k, i]]`` for each row ``i``, ``wts`` as :func:`_layout` gives it."""
    g = np.take(s, idx, axis=0)
    g *= wts
    return g.sum(axis=0)


def _chebyshev(apply_w, states: np.ndarray, K: int, eta: float) -> np.ndarray:
    """``s_K`` of ``s_{k+1} = (1 + eta) W s_k - eta s_{k-1}``, ``s_0 = s_{-1} = states``.

    ``apply_w`` returns a new array, which is updated in place, and one
    scratch array holds ``eta s_{k-1}``; this performs the same
    floating-point operations as the recursion's expression, so ``s_K`` is
    the same to the bit, and ``states`` is never written.
    :meth:`~MultiGossipOperator.fast_goss` runs it on its states, and the
    dense kernel's :attr:`MultiGossipOperator.mbar` on ``I``.
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
        wts = _layout(table.wts[:, rows], (min(_MBAR_BLOCK, n - top),))
        rounds = _reach_rounds(local[table.idx[:, rows]], wts, reach, h, eta)
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

    ``idx`` and ``wts``, laid out for the block's ``width`` columns, gather
    the block's rows nearest first, its own nodes leading; ``reach[k]`` of
    them lie within ``k`` hops.  Round ``k`` gathers through the first
    ``reach[k]`` rows only, as ``P_k`` is zero on the rest.  Three buffers
    hold the iterates, with one zero row past the reached ones for the
    neighbours beyond them; the buffer each round writes held ``P_{k-3}``,
    whose rows all lie within ``reach[k]``, so no row it skips is nonzero.
    """
    size, width = wts.shape[1:]
    prev, cur, nxt = (np.zeros((size + 1, width)) for _ in range(3))  # P_{-1}, P_0, spare
    cur[:width] = np.eye(width)
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
    """Measured multi-round spectral quantities vs their claimed envelopes."""

    rho: float
    K: int
    eta: float
    symmetric: bool
    doubly_stochastic: bool
    radius: float
    radius_bound: float
    radius_bound_ok: bool
    sigma_min: float
    sigma_min_ok: bool

    @property
    def all_ok(self) -> bool:
        return (
            self.symmetric
            and self.doubly_stochastic
            and self.radius_bound_ok
            and self.sigma_min_ok
        )


def verify_prop1(op: MultiGossipOperator) -> Prop1Report:
    """Check the multi-round operator against its claimed spectral envelopes.

    Reports (never raises): symmetry and double stochasticity of the
    dense ``Mbar``; the measured radius ``max|eig(Mbar - 11^T/n)|`` against
    ``sqrt(2) (1 - sqrt(1-rho))^K + 1e-9``; and the smallest nonzero
    eigenvalue of ``I - Mbar`` against ``2/5``.  Both eigenvalue
    quantities come from :attr:`MultiGossipOperator.spectrum`, the source
    the primal-dual engine checks.  The two envelope flags
    are only meaningful guarantees at ``K = default_K(rho)``, and even
    there the envelopes can fail (see module docstring); downstream
    code gates on the measured ``sigma_min``.
    """
    mbar = op.mbar
    rho = op.mixing.rho
    symmetric = bool(np.abs(mbar - mbar.T).max() <= 1e-12)
    doubly_stochastic = bool(np.abs(mbar.sum(axis=1) - 1.0).max() <= 1e-9)
    # ascending; the largest is the consensus eigenvalue 1, which centring removes
    off = op.spectrum[:-1]
    radius = float(np.abs(off).max(initial=0.0))
    radius_bound = math.sqrt(2.0) * (1.0 - math.sqrt(1.0 - rho)) ** op.K
    # n == 1 has no nonzero eigenvalues at all; the check is vacuous then
    sigma_min = float((1.0 - off).min()) if off.size else float("nan")
    sigma_min_ok = bool(off.size == 0 or sigma_min >= 0.4)
    return Prop1Report(
        rho=rho,
        K=op.K,
        eta=op.eta,
        symmetric=symmetric,
        doubly_stochastic=doubly_stochastic,
        radius=radius,
        radius_bound=radius_bound,
        radius_bound_ok=bool(radius <= radius_bound + 1e-9),
        sigma_min=sigma_min,
        sigma_min_ok=sigma_min_ok,
    )
