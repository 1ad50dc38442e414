"""Chebyshev-accelerated multi-round gossip.

``K`` consecutive neighbor-averaging rounds with a fixed momentum
weight ``eta`` compress the mixing spectrum toward 1.  The resulting
operator ``Mbar = M_K`` obeys the recursion

    M_{k+1} = (1 + eta) W M_k - eta M_{k-1},   M_0 = M_{-1} = I,

and the distributed procedure :meth:`MultiGossipOperator.fast_goss`
evaluates ``(I - Mbar) @ states`` using only per-node neighbor
exchanges, ``K`` rounds per invocation.  Each round applies ``W`` either
as a dense product or, on large sparse graphs, by gathering every node's
neighbor rows from a padded table (see :attr:`MultiGossipOperator.kernel`).

``Mbar`` is a polynomial in ``W``: it has ``W``'s eigenvectors, and each
eigenvalue ``lam`` of ``W`` maps to ``p_K(lam)``, the recursion run on
scalars.  The diagnostics use that map instead of a dense ``Mbar``:
:func:`verify_prop1` reads the measured contraction radius and the
smallest nonzero eigenvalue of ``I - Mbar`` off
:attr:`MultiGossipOperator.spectrum` and reports them next to the
classical ``sqrt(2) (1 - sqrt(1-rho))^K`` envelope, and the Lyapunov and
fixed-point diagnostics work in the eigenbasis
:attr:`MultiGossipOperator.half_gap_eigh`.  The envelope is not a sound
spectral-radius bound at the prescribed round count (the recursion is
critically damped at the edge eigenvalues, which adds a polynomial-in-K
factor), so callers must consult the report flags rather than assume it.
"""

from __future__ import annotations

import math
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
# consensus mode's value 1 - p_K(1) is rounding noise, and the Lyapunov and
# fixed-point diagnostics must give that mode no weight at all.
_NULL_TOL = 1e-9

# The neighbor gather applies W when n >= this many times the widest row's
# nonzero count.  Measured per W @ S with d = 10, one BLAS thread on a
# 2-core x86-64 VM: rings cross over between n = 200 (dense 23 us, gather
# 30 us) and n = 210 (38 vs 31 us); at ring-400 the gather is 5x faster
# (49 vs 243 us).
_GATHER_MIN_NODES_PER_SLOT = 70

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

    @property
    def kernel(self) -> str:
        """How each round applies ``W``: ``"neighbour"`` gather or ``"dense"`` product.

        Chosen once per operator from the sparsity of ``W``: the gather
        when ``n`` is at least ``_GATHER_MIN_NODES_PER_SLOT`` (70) times
        ``width``, the largest number of nonzeros in a row of ``W``.
        """
        return "neighbour" if isinstance(self._apply_w, _NeighbourTable) else "dense"

    @cached_property
    def _apply_w(self):
        """The callable applying ``W`` to a state array."""
        w = self.mixing.w
        width = int(np.count_nonzero(w, axis=1).max())
        sparse = self.n >= _GATHER_MIN_NODES_PER_SLOT * width
        return _NeighbourTable(w) if sparse else partial(np.matmul, w)

    @cached_property
    def mbar(self) -> np.ndarray:
        """Dense ``M_K``: the recursion of :meth:`fast_goss` applied to ``I``."""
        eye = np.eye(self.n)
        m = np.hstack(
            [
                _chebyshev(self._apply_w, eye[:, j : j + _MBAR_BLOCK], self.K, self.eta)
                for j in range(0, self.n, _MBAR_BLOCK)
            ]
        )
        m.setflags(write=False)
        return m

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

        ``V`` holds the orthonormal eigenvectors of ``W``, and the eigenvalue
        ``lam`` of ``W`` maps to ``h = (1 - p_K(lam))/2``.  The consensus
        eigenvalue is exactly 0.  Read-only.
        """
        lam, vecs = np.linalg.eigh(self.mixing.w)
        h = 0.5 * (1.0 - self._on_eigenvalues(lam))
        h[h <= _NULL_TOL] = 0.0
        h.setflags(write=False)
        vecs.setflags(write=False)
        return h, vecs

    def fast_goss(self, states: np.ndarray) -> np.ndarray:
        """Distributed evaluation of ``(I - Mbar) @ states``.

        Each of the ``K`` rounds combines every node's value with its
        neighbors' (one application of ``W``); the momentum term is
        purely local.  Returns ``states - s_K`` where ``s_K`` follows
        the Chebyshev recursion from ``s_0 = s_{-1} = states``.
        """
        states = np.asarray(states, dtype=float)
        if states.shape[0] != self.n:
            raise ValueError(
                f"states has {states.shape[0]} rows, expected {self.n}"
            )
        return states - _chebyshev(self._apply_w, states, self.K, self.eta)


class _NeighbourTable:
    """``W`` in padded ELL form, applied by gathering neighbor rows.

    ``idx`` and ``wts`` have shape ``(width, n)``: row ``i`` of ``W @ s``
    is ``sum_k wts[k, i] * s[idx[k, i]]``.  Rows with fewer than
    ``width`` nonzeros are padded with weight 0 on the node itself.
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
        # weights broadcast over the trailing axes of s, which may be none
        wts = self.wts.reshape(self.wts.shape + (1,) * (s.ndim - 1))
        return (np.take(s, self.idx, axis=0) * wts).sum(axis=0)


def _chebyshev(apply_w, states: np.ndarray, K: int, eta: float) -> np.ndarray:
    """``s_K`` of ``s_{k+1} = (1 + eta) W s_k - eta s_{k-1}``, ``s_0 = s_{-1} = states``.

    ``apply_w`` returns a new array, which is updated in place; this
    performs the same floating-point operations as the expression above,
    and ``states`` is never written.
    """
    s_prev = s_cur = states
    for _ in range(K):
        s_next = apply_w(s_cur)
        s_next *= 1.0 + eta
        s_next -= eta * s_prev
        s_prev, s_cur = s_cur, s_next
    return s_cur


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
