"""Problem instances: smooth per-node losses plus a shared proximable term.

Each node holds a strongly convex smooth loss with known moduli
``(mu_i, L_i)``; the shared nonsmooth term, an L1 weight (``L1Reg``, the
zero regularizer being ``L1Reg(0.0)``), enters only through its
proximal mapping.  Generators cover the synthetic least-squares and
logistic families, a LIBSVM-format loader partitions real data across
nodes, and :func:`centralized_solve` produces the reference solution
``x*`` that all relative-error traces share.

Both families have a stacked gradient kernel, built once per instance,
that computes every node's gradient in batched array operations: stacked
Gram matrices for least squares, zero-padded features for logistic
losses.  Any other loss object falls back to one ``gradient`` call per
node.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .topology import Graph

__all__ = [
    "QuadraticLoss",
    "LogisticLoss",
    "L1Reg",
    "l1_prox",
    "ProblemInstance",
    "ReferenceSolution",
    "CentralizedSolveError",
    "gen_least_squares",
    "gen_logistic",
    "load_libsvm",
    "logistic_from_parts",
    "flood_constants",
    "centralized_solve",
]

_LS_STREAM = 0x15
_LOGISTIC_STREAM = 0x10C
_PARTITION_STREAM = 0x9A7

# centralized_solve hands FISTA's iterate to Newton once its certified bound
# is this small relative to the iterate, for at most this many steps
_POLISH_AT = 1e-4
_POLISH_STEPS = 6
# above this many nonzeros there is no polish, so its |S|^2 Hessian stays under 8 MB
_POLISH_MAX_SUPPORT = 1000


@dataclass(frozen=True)
class QuadraticLoss:
    """``f(x) = 0.5 ||A x - b||^2`` with exact curvature bounds.

    ``mu`` and ``lsmooth`` are the extreme eigenvalues of ``A^T A``,
    passed by the caller, who knows them exactly (pinned constructions).
    ``A^T A`` and ``A^T b`` are formed on the first ``gradient`` call; a
    :class:`ProblemInstance` stacks every node's own instead.
    """

    a: np.ndarray
    b: np.ndarray
    mu: float
    lsmooth: float

    @property
    def dim(self) -> int:
        return self.a.shape[1]

    @functools.cached_property
    def _gram(self) -> np.ndarray:
        return self.a.T @ self.a

    @functools.cached_property
    def _atb(self) -> np.ndarray:
        return self.a.T @ self.b

    def value(self, x: np.ndarray) -> float:
        r = self.a @ x - self.b
        return 0.5 * float(r @ r)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self._gram @ x - self._atb


@dataclass(frozen=True)
class LogisticLoss:
    """Average logistic loss over local samples plus a ridge term.

    ``f(x) = (1/m) sum_j log(1 + exp(-(a_j . x) b_j)) + gamma1 ||x||^2``
    with labels ``b_j in {-1, +1}``.  Strong convexity ``mu = 2*gamma1``
    is exact; ``lsmooth = 2*gamma1 + sum_j ||a_j||^2 / (4m)`` is the
    certified curvature upper bound, computed once at construction.
    """

    features: np.ndarray
    labels: np.ndarray
    gamma1: float
    lsmooth: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.gamma1 <= 0.0:
            raise ValueError("gamma1 must be positive for strong convexity")
        if not (np.abs(self.labels) == 1.0).all():  # NaN fails too
            raise ValueError("labels must be in {-1, +1}")
        m = self.features.shape[0]
        lsmooth = 2.0 * self.gamma1 + float((self.features**2).sum()) / (4.0 * m)
        object.__setattr__(self, "lsmooth", lsmooth)

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def mu(self) -> float:
        return 2.0 * self.gamma1

    def value(self, x: np.ndarray) -> float:
        margins = (self.features @ x) * self.labels
        return float(np.logaddexp(0.0, -margins).mean()) + self.gamma1 * float(x @ x)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        margins = (self.features @ x) * self.labels
        # d/dm log(1+e^-m) = -sigmoid(-m)
        sig = 0.5 * (1.0 + np.tanh(-0.5 * margins))
        g = -(self.features * (sig * self.labels)[:, None]).mean(axis=0)
        return g + 2.0 * self.gamma1 * x


@dataclass(frozen=True)
class L1Reg:
    """``r(x) = weight * ||x||_1`` with soft-thresholding prox.

    ``L1Reg(0.0)``, the default, is the zero regularizer: its prox is the
    identity, returned as ``np.asarray(y, dtype=float)`` without a threshold.
    """

    weight: float = 0.0

    def prox(self, alpha: float, y: np.ndarray) -> np.ndarray:
        if self.weight == 0.0:
            return np.asarray(y, dtype=float)
        return l1_prox(alpha, self.weight, y)


def l1_prox(alpha: float, weight: float, y: np.ndarray) -> np.ndarray:
    """Componentwise ``sign(y) * max(|y| - alpha*weight, 0)``."""
    if not alpha > 0.0:
        raise ValueError(f"prox step must be positive, got {alpha}")
    if not weight >= 0.0:
        raise ValueError(f"l1 weight must be nonnegative, got {weight}")
    y = np.asarray(y, dtype=float)
    # the expression's operations, on one new array
    out = np.abs(y, out=np.empty(y.shape))
    out -= alpha * weight
    np.maximum(out, 0.0, out=out)
    out *= np.sign(y)
    return out


class _QuadraticStack:
    """Every node's ``A_i^T A_i x_i - A_i^T b_i`` from stacked Gram matrices."""

    def __init__(self, losses: tuple) -> None:
        # formed here, not cached on the losses, which never need their own
        self.grams = np.array([f.a.T @ f.a for f in losses])
        self.atbs = np.array([f.a.T @ f.b for f in losses])
        self.mean_gram = self.grams.mean(axis=0)
        self.mean_atb = self.atbs.mean(axis=0)

    def gradients(self, x_stack: np.ndarray) -> np.ndarray:
        g = np.einsum("nij,nj->ni", self.grams, x_stack)
        g -= self.atbs
        return g

    def average(self, x: np.ndarray) -> np.ndarray:
        return self.mean_gram @ x - self.mean_atb

    def support_hessian(self, x: np.ndarray, support: np.ndarray) -> np.ndarray:
        """The averaged loss's Hessian on the ``support`` rows and columns (constant in ``x``)."""
        return self.mean_gram[np.ix_(support, support)]


def _sigmoid_of_minus(margins: np.ndarray) -> np.ndarray:
    """``sigmoid(-m) = 0.5 (1 + tanh(-m/2))``, in place on ``margins``, which it returns."""
    margins *= -0.5
    np.tanh(margins, out=margins)
    margins += 1.0
    margins *= 0.5
    return margins


class _LogisticStack:
    """Every node's logistic gradient from zero-padded, label-signed samples.

    ``signed[i, j]`` is node ``i``'s feature row ``j`` times its label
    ``b_j``.  As ``b_j = +-1``, ``signed @ x`` is the margins ``(F @ x) * b``
    and ``w @ signed`` is ``(w * b) @ F``, to the bit: a sign flip commutes
    with every rounding.  Node ``i``'s ``m_i`` samples fill the first rows
    of its block and the rest are zero.  A zero row adds exactly 0 to the
    gradient, so unequal partitions are exact.

    At a single point, ``flat`` views every block as one ``(n * m_max, d)``
    matrix and ``row_weights`` gives each of its rows ``1 / (n * m_i)``, so
    the averaged gradient and the support Hessian are plain products.
    """

    def __init__(self, losses: tuple) -> None:
        n, d = len(losses), losses[0].dim
        self.counts = np.array([[len(f.labels)] for f in losses])
        m_max = int(self.counts.max())
        self.signed = np.zeros((n, m_max, d))
        for i, f in enumerate(losses):
            np.multiply(f.features, f.labels[:, None], out=self.signed[i, : len(f.labels)])
        self.two_gamma1 = np.array([[2.0 * f.gamma1] for f in losses])
        self.flat = self.signed.reshape(n * m_max, d)
        self.row_weights = np.repeat(1.0 / (n * self.counts[:, 0]), m_max)
        self.mean_two_gamma1 = float(self.two_gamma1.mean())

    def gradients(self, x_stack: np.ndarray) -> np.ndarray:
        sig = np.matmul(self.signed, x_stack[:, :, None])[:, :, 0]
        # the same tanh form of sigmoid(-margin) as LogisticLoss.gradient
        _sigmoid_of_minus(sig)
        sums = np.matmul(sig[:, None, :], self.signed)[:, 0, :]
        sums /= self.counts
        # -(sums) + r is r - sums exactly
        g = self.two_gamma1 * x_stack
        g -= sums
        return g

    def average(self, x: np.ndarray) -> np.ndarray:
        sig = _sigmoid_of_minus(self.flat @ x)
        sig *= self.row_weights
        g = self.mean_two_gamma1 * x
        g -= sig @ self.flat
        return g

    def support_hessian(self, x: np.ndarray, support: np.ndarray) -> np.ndarray:
        """``F_S^T diag(w s (1 - s)) F_S + mean(2 gamma1) I``: ``F_S`` the ``support``
        columns, ``s`` the sigmoid of the margins and ``w`` the row weights."""
        sig = _sigmoid_of_minus(self.flat @ x)
        sig *= 1.0 - sig
        sig *= self.row_weights
        # one copy of the columns, scaled by sqrt(w s (1 - s)); C^T C is exactly symmetric
        cols = self.flat[:, support]
        cols *= np.sqrt(sig)[:, None]
        h = cols.T @ cols
        h.flat[:: support.size + 1] += self.mean_two_gamma1
        return h


@dataclass(frozen=True)
class ProblemInstance:
    """Per-node smooth losses plus one shared proximable regularizer.

    ``L`` (largest ``L_i``) and ``mu`` (smallest ``mu_i``) are computed
    once at construction.
    """

    losses: tuple
    reg: L1Reg
    dim: int
    L: float = field(init=False, repr=False)
    mu: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.losses:
            raise ValueError("need at least one node loss")
        if any(f.dim != self.dim for f in self.losses):
            raise ValueError("inconsistent loss dimensions")
        object.__setattr__(self, "L", max(f.lsmooth for f in self.losses))
        object.__setattr__(self, "mu", min(f.mu for f in self.losses))
        if self.mu <= 0.0:
            raise ValueError("losses must be strongly convex (mu > 0)")
        if all(isinstance(f, QuadraticLoss) for f in self.losses):
            stack = _QuadraticStack(self.losses)
        elif all(isinstance(f, LogisticLoss) for f in self.losses):
            stack = _LogisticStack(self.losses)
        else:
            stack = None
        object.__setattr__(self, "_stack", stack)

    @property
    def n(self) -> int:
        return len(self.losses)

    @property
    def kappa(self) -> float:
        return self.L / self.mu

    def gradient_stack(self, x_stack: np.ndarray) -> np.ndarray:
        """Per-node gradients of the stacked iterate, shape ``(n, d)``.

        Always a new array, which the caller owns and may overwrite.
        """
        if self._stack is not None:
            return self._stack.gradients(x_stack)
        return np.stack(
            [f.gradient(x_stack[i]) for i, f in enumerate(self.losses)]
        )

    def gradient_average(self, x: np.ndarray) -> np.ndarray:
        """Gradient of ``(1/n) sum_i f_i`` at a single point."""
        if self._stack is not None:
            return self._stack.average(x)
        return np.mean([f.gradient(x) for f in self.losses], axis=0)

    def prox_stack(self, alpha: float, y_stack: np.ndarray) -> np.ndarray:
        """Row-wise prox of the shared regularizer (each prox is separable)."""
        return self.reg.prox(alpha, y_stack)


@dataclass(frozen=True)
class ReferenceSolution:
    """Centralized minimizer with its certified error bound.

    ``error_bound`` bounds ``||xstar - x*||`` for the true minimizer ``x*``
    (see :func:`centralized_solve`); ``residual`` is the gradient-mapping
    residual it was derived from, and ``iterations`` the solver's count.
    """

    xstar: np.ndarray
    residual: float
    iterations: int
    error_bound: float

    @property
    def relative_error_bound(self) -> float:
        """``error_bound / ||xstar||``, or ``error_bound`` itself when ``xstar = 0``."""
        norm = float(np.linalg.norm(self.xstar))
        return self.error_bound / norm if norm > 0.0 else self.error_bound


class CentralizedSolveError(RuntimeError):
    """Reference solver could not certify its tolerance; carries the best iterate."""

    def __init__(self, message: str, best: ReferenceSolution):
        super().__init__(message)
        self.best = best


def gen_least_squares(
    n: int,
    d: int,
    mu: float,
    lsmooth: float,
    seed: int,
    reg: L1Reg = L1Reg(),
) -> ProblemInstance:
    """Synthetic least squares with per-node curvature pinned exactly.

    Each node gets ``A_i = Q_i diag(s_i)`` with ``Q_i`` a random
    orthogonal matrix and singular values ``s_i`` log-uniform in
    ``[sqrt(mu), sqrt(lsmooth)]``, endpoints pinned in fixed slots so
    that ``eig(A_i^T A_i)`` spans exactly ``[mu, lsmooth]`` on every
    node (and the averaged Hessian keeps the same extreme values).
    Targets ``b_i`` are standard normal.  The regularizer defaults to
    zero, ``L1Reg(0.0)``.
    """
    if not 0.0 < mu <= lsmooth:
        raise ValueError(f"need 0 < mu <= lsmooth, got mu={mu}, lsmooth={lsmooth}")
    if d < 2 and mu != lsmooth:
        raise ValueError("d = 1 forces mu == lsmooth (single singular value)")
    rng = np.random.default_rng(np.random.SeedSequence([seed, _LS_STREAM]))
    # each node draws its normal matrix, log mid eigenvalues and target in turn
    normals = np.empty((n, d, d))
    log_mids = np.empty((n, max(d - 2, 0)))
    b = np.empty((n, d))
    low, high = np.log(mu), np.log(lsmooth)
    for i in range(n):
        rng.standard_normal(out=normals[i])
        if d > 2:
            log_mids[i] = rng.uniform(low, high, d - 2)
        rng.standard_normal(out=b[i])
    # eigenvalues descending: lsmooth, the sorted mids, mu (d = 1 has lsmooth only)
    evals = np.empty((n, d))
    evals[:, 0] = lsmooth
    if d > 1:
        evals[:, -1] = mu
        evals[:, 1:-1] = np.sort(np.exp(log_mids), axis=1)[:, ::-1]
    # one batched factorization; each Q_i is the one its own qr call gives
    a = np.linalg.qr(normals)[0]
    a *= np.sqrt(evals)[:, None, :]  # Q @ diag(s), so A^T A = diag(evals)
    losses = tuple(QuadraticLoss(a=a[i], b=b[i], mu=mu, lsmooth=lsmooth) for i in range(n))
    return ProblemInstance(losses=losses, reg=reg, dim=d)


def gen_logistic(
    n: int,
    d: int,
    samples_per_node: int,
    gamma1: float,
    gamma2: float,
    seed: int,
) -> ProblemInstance:
    """Synthetic binary logistic regression with an L1 term.

    Features are standard normal; labels come from a random
    ground-truth hyperplane.  The instance is built by
    :func:`logistic_from_parts`.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, _LOGISTIC_STREAM]))
    truth = rng.standard_normal(d)
    parts = []
    for _ in range(n):
        feats = rng.standard_normal((samples_per_node, d))
        parts.append((feats, np.where(feats @ truth >= 0.0, 1.0, -1.0)))
    return logistic_from_parts(parts, gamma1, gamma2)


def load_libsvm(path: str | Path, n: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Parse a LIBSVM sparse text file and split it across ``n`` nodes.

    Lines look like ``label idx:val idx:val ...`` with 1-based feature
    indices.  Labels must be in ``{-1, +1}`` ({0, 1} is remapped).  The
    dimension is the largest index seen.  Samples are shuffled with the
    given seed and split contiguously into ``n`` near-equal parts.

    Returns a list of ``(features, labels)`` dense arrays, one per node.

    Raises
    ------
    ValueError
        On malformed lines, non-finite feature values or a feature index
        repeated within a line (reported with their line number), labels
        outside the supported sets, or an empty file.
    """
    rows: list[dict[int, float]] = []
    labels: list[float] = []
    max_idx = 0
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            try:
                label = float(parts[0])
            except ValueError:
                raise ValueError(f"line {lineno}: bad label {parts[0]!r}") from None
            entries: dict[int, float] = {}
            for tok in parts[1:]:
                try:
                    idx_s, val_s = tok.split(":")
                    idx = int(idx_s)
                    val = float(val_s)
                    if not math.isfinite(val):  # nan or inf, as 1e400 reads
                        raise ValueError
                except ValueError:
                    raise ValueError(f"line {lineno}: bad feature {tok!r}") from None
                if idx < 1:
                    raise ValueError(f"line {lineno}: indices are 1-based, got {idx}")
                if idx in entries:
                    raise ValueError(f"line {lineno}: repeated feature index {idx}")
                entries[idx] = val
                max_idx = max(max_idx, idx)
            rows.append(entries)
            labels.append(label)
    if not rows:
        raise ValueError(f"{path}: no samples")
    label_set = set(labels)
    if label_set <= {-1.0, 1.0}:
        y = np.array(labels)
    elif label_set <= {0.0, 1.0}:
        y = np.where(np.array(labels) > 0.5, 1.0, -1.0)
    else:
        raise ValueError(
            f"unsupported labels {sorted(label_set)}; expected {{-1,+1}} or {{0,1}}"
        )
    d = max_idx
    feats = np.zeros((len(rows), d))
    for r, entries in enumerate(rows):
        for idx, val in entries.items():
            feats[r, idx - 1] = val
    rng = np.random.default_rng(np.random.SeedSequence([seed, _PARTITION_STREAM]))
    order = rng.permutation(len(rows))
    feats = feats[order]
    y = y[order]
    bounds = np.linspace(0, len(rows), n + 1).astype(int)
    if np.any(np.diff(bounds) == 0):
        raise ValueError(f"cannot split {len(rows)} samples across {n} nodes")
    return [
        (feats[bounds[i] : bounds[i + 1]], y[bounds[i] : bounds[i + 1]])
        for i in range(n)
    ]


def logistic_from_parts(
    parts: list[tuple[np.ndarray, np.ndarray]], gamma1: float, gamma2: float
) -> ProblemInstance:
    """Wrap partitioned ``(features, labels)`` data as a logistic instance.

    The ridge weight ``gamma1 > 0`` lives in the smooth part (it provides
    strong convexity), the L1 weight ``gamma2 >= 0`` goes to the prox.
    """
    if gamma2 < 0.0:
        raise ValueError(f"gamma2 must be nonnegative, got {gamma2}")
    losses = tuple(
        LogisticLoss(features=f, labels=y, gamma1=gamma1) for f, y in parts
    )
    return ProblemInstance(losses=losses, reg=L1Reg(weight=gamma2), dim=losses[0].dim)


def flood_constants(
    g: Graph, per_node: list[tuple[float, float]]
) -> tuple[float, float, float]:
    """Decentralized max/min flooding of the per-node ``(L_i, mu_i)``.

    Runs exactly ``n - 1`` synchronized exchange rounds in which every
    node replaces its pair with the max/min over its closed
    neighborhood, then checks that all nodes agree.  Returns the global
    ``(L, mu, kappa)``.
    """
    if len(per_node) != g.n:
        raise ValueError(f"expected {g.n} (L_i, mu_i) pairs, got {len(per_node)}")
    r = np.array([float(l) for l, _ in per_node])
    s = np.array([float(m) for _, m in per_node])
    for _ in range(g.n - 1):
        r_new = r.copy()
        s_new = s.copy()
        for i in range(g.n):
            for j in g.neighbors(i):
                r_new[i] = max(r_new[i], r[j])
                s_new[i] = min(s_new[i], s[j])
        r, s = r_new, s_new
    if np.ptp(r) != 0.0 or np.ptp(s) != 0.0:
        raise RuntimeError("flooding did not reach agreement in n-1 rounds")
    return float(r[0]), float(s[0]), float(r[0] / s[0])


def centralized_solve(
    problem: ProblemInstance,
    tol: float = 1e-12,
    max_iter: int = 10**6,
) -> ReferenceSolution:
    """Reference solution of ``min F = f + r``, ``f = (1/n) sum f_i``, certified to ``tol``.

    Least squares with the zero regularizer ``L1Reg(0.0)`` is one direct
    solve of the averaged normal equations ``mean_gram @ x = mean_atb``
    (``iterations`` is 0).  Every other problem runs FISTA (Beck & Teboulle
    2009) with step ``1/L`` and gradient-based adaptive restart (O'Donoghue
    & Candes 2015, arXiv:1204.3982): momentum restarts whenever the last
    step moved against the gradient mapping.  That takes O(sqrt(kappa) log(1/tol)) iterations,
    each one ``gradient_average`` call.

    Two phases.  Once FISTA's bound first falls to ``1e-4`` times its
    iterate's norm, the iterate's support ``S`` has usually settled, and on
    it, with the signs held, ``F`` is smooth and strongly convex: up to 6
    Newton steps on ``S`` (proximal Newton; Lee, Sun & Saunders 2014,
    arXiv:1206.1623), each with the stack's support Hessian, which never
    forms the full ``d x d`` matrix, finish it.  Each step's ``T(v)`` goes
    through the same certificate as FISTA's.  If none certifies, FISTA
    resumes from its own untouched state, so a failed polish costs at most
    6 steps and returns FISTA's own answer.  A support of more than 1,000
    entries, or a problem with no stacked kernel, gets no polish.
    ``iterations`` counts FISTA steps plus Newton steps.

    The certificate.  ``f`` is ``mu``-strongly convex and ``L``-smooth.  Let
    ``T(v) = prox_{r/L}(v - grad f(v)/L)`` and ``G(v) = L (v - T(v))``.  The
    proximal gradient inequality at ``x = x*``, where
    ``F(x*) - F(T(v)) <= 0``, gives::

        (mu/2) ||v - x*||^2 <= <G(v), v - x*> - ||G(v)||^2 / (2L),

    so ``||v - x*|| <= 2 ||G(v)|| / mu``.  Expanding
    ``||T(v) - x*||^2 = ||v - x* - G(v)/L||^2`` with the same inequality
    gives ``||T(v) - x*||^2 <= (1 - mu/L) ||v - x*||^2``.  Together::

        ||T(v) - x*|| <= ||v - x*|| <= 2 (L/mu) ||v - T(v)||.

    Either phase returns ``T(v)`` with ``error_bound = 2 (L/mu) ||v - T(v)||`` and
    ``residual = ||v - T(v)||`` once the bound is at most
    ``tol * ||T(v)||``, so ``tol`` is a certified relative error (an
    absolute one when ``x* = 0``).  The direct solve's ``x`` has the smooth
    bound ``||x - x*|| <= ||grad f(x)|| / mu`` (strong monotonicity of the
    gradient) and ``residual = ||grad f(x)|| / L``.  The bounds hold in exact
    arithmetic; they are evaluated in floating point.

    Raises
    ------
    ValueError
        If ``tol`` is not positive.
    CentralizedSolveError
        If the bound is not certified within ``max_iter`` FISTA iterations, or by
        the direct solve; the iterate with the smallest bound rides on the
        error.
    """
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    stack = problem._stack
    if isinstance(stack, _QuadraticStack) and problem.reg.weight == 0.0:
        x = np.linalg.solve(stack.mean_gram, stack.mean_atb)
        grad = float(np.linalg.norm(stack.average(x)))
        ref = ReferenceSolution(
            xstar=x, residual=grad / problem.L, iterations=0, error_bound=grad / problem.mu
        )
        if ref.error_bound <= tol * float(np.linalg.norm(x)):
            return ref
        raise CentralizedSolveError(f"the direct solve does not certify {tol}", ref)

    alpha = 1.0 / problem.L
    scale = 2.0 * problem.L / problem.mu
    x = y = np.zeros(problem.dim)
    t = 1.0
    best = (math.inf, x, math.inf)
    polish = stack is not None
    newton = 0
    for it in range(1, max_iter + 1):
        x_next = problem.reg.prox(alpha, y - alpha * problem.gradient_average(y))
        step = y - x_next
        residual = math.sqrt(step.dot(step))
        candidates = [(x_next, residual)]
        if polish and scale * residual <= _POLISH_AT * math.sqrt(x_next.dot(x_next)):
            polish = False
            candidates = itertools.chain(candidates, _newton_polish(problem, x_next))
        # FISTA's T(y) first, then each Newton step's T(v), under one certificate
        for k, (v, residual) in enumerate(candidates):
            bound = scale * residual
            if bound <= tol * math.sqrt(v.dot(v)):
                return ReferenceSolution(
                    xstar=v, residual=residual, iterations=it + newton + k, error_bound=bound
                )
            if bound < best[0]:
                best = (bound, v, residual)
        newton += k
        move = x_next - x
        if step.dot(move) > 0.0:
            # the step went uphill on the gradient mapping: restart the momentum
            t, y = 1.0, x_next
        else:
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            y = x_next + ((t - 1.0) / t_next) * move
            t = t_next
        x = x_next
    bound, x, residual = best
    raise CentralizedSolveError(
        f"no certified relative error {tol} within {max_iter} iterations",
        ReferenceSolution(
            xstar=x, residual=residual, iterations=max_iter + newton, error_bound=bound
        ),
    )


def _newton_polish(
    problem: ProblemInstance, x: np.ndarray
) -> Iterator[tuple[np.ndarray, float]]:
    """Newton steps on the support ``S`` of ``x``, yielding each step's ``(T(v), ||v - T(v)||)``.

    With ``v`` zero off ``S`` and the signs of ``v_S`` held at those of
    ``x_S``, ``F`` is the smooth ``f(v) + weight * sign(x_S) . v_S``, so each
    step is ``v_S -= H_SS^{-1} (grad f(v)_S + weight * sign(x_S))`` with the
    stack's support Hessian ``H_SS``.  ``x`` is not modified.  Yields nothing
    when ``S`` has more than ``_POLISH_MAX_SUPPORT`` entries.
    """
    support = np.flatnonzero(x)
    if support.size > _POLISH_MAX_SUPPORT:
        return
    alpha = 1.0 / problem.L
    signs = problem.reg.weight * np.sign(x[support])
    v = x.copy()
    grad = problem.gradient_average(v)
    for _ in range(_POLISH_STEPS):
        hessian = problem._stack.support_hessian(v, support)
        v[support] -= np.linalg.solve(hessian, grad[support] + signs)
        grad = problem.gradient_average(v)
        tv = problem.reg.prox(alpha, v - alpha * grad)
        step = v - tv
        yield tv, math.sqrt(step.dot(step))
