"""Communication-skipping decentralized proximal gradient, plus diagnostics.

The main iteration keeps stacked primal iterates ``X`` and a scaled
dual ``Y`` (columns mean-zero).  Each step does one local gradient and
prox per node; with probability ``p`` a shared coin additionally
triggers one multi-gossip exchange:

    Z    = X - alpha * grad F(X) - alpha * Y
    Zbar = (theta/2) * (I - Mbar) Z          (via fast_goss)
    Y   <- Y + (p/alpha) * Zbar
    X   <- prox_{alpha R}(Z - Zbar)

Skipped iterations (``theta = 0``) move no bytes.  The diagnostics
implement the matching fixed-point residual, the Lyapunov value
``psi = ||X-X*||^2 + (alpha/p)^2 ||U-U*||^2`` with ``U`` reconstructed
from ``Y`` through the pseudo-inverse of ``sqrt((I-Mbar)/2)``, and the
exact one-step conditional-expectation contraction check against
``zeta = max{(1-alpha*mu)^2, (1-alpha*L)^2, 1-p^2/5}``.

A generic primal-dual engine parameterized by three symmetric matrices
(checked for ``A^2 <= B <= I``, strictly below 1 off the consensus
direction, and ``0 <= C <= 2I``) covers the deterministic baselines;
its ``mgskip_p1`` preset reproduces the main iteration at ``p = 1``
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .gossip import MultiGossipOperator
from .problems import ProblemInstance, ReferenceSolution
from .topology import MixingMatrix

__all__ = [
    "RunConfig",
    "MGSkipState",
    "RunResult",
    "DivergenceError",
    "coin_stream",
    "mg_skip_step",
    "mg_skip_run",
    "dual_fixed_point",
    "fixed_point_residual",
    "lyapunov",
    "contraction_factor",
    "ContractionReport",
    "check_contraction",
    "PUDAConfig",
    "PUDAState",
    "puda_mgskip_p1",
    "puda_nids",
    "puda_init",
    "puda_step",
    "puda_run",
]

_COIN_STREAM = 0xC01


@dataclass(frozen=True)
class RunConfig:
    """Stepsize, skipping probability, horizon, and stopping rule."""

    alpha: float
    p: float
    T: int
    tol: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.alpha <= 0.0:
            raise ValueError(f"stepsize must be positive, got {self.alpha}")
        if not 0.0 < self.p <= 1.0:
            raise ValueError(f"communication probability must be in (0, 1], got {self.p}")
        if self.T < 1:
            raise ValueError(f"horizon must be >= 1, got {self.T}")

    def validate_for(self, problem: ProblemInstance) -> None:
        if self.alpha * problem.L >= 2.0:
            raise ValueError(
                f"alpha*L = {self.alpha * problem.L:.4g} must be < 2"
            )


@dataclass(frozen=True)
class MGSkipState:
    """Stacked iterates and cumulative cost counters."""

    x: np.ndarray
    y: np.ndarray
    t: int = 0
    comm_rounds: int = 0
    grad_evals: int = 0


class DivergenceError(RuntimeError):
    """Non-finite iterate; carries the last finite trace rows."""

    def __init__(self, message: str, result: "RunResult | None" = None):
        super().__init__(message)
        self.result = result


def coin_stream(seed: int, T: int) -> np.ndarray:
    """Uniform draws shared by every node (and by every p in a sweep).

    The coin at iteration ``t`` is ``u_t < p``, so sweeping ``p`` with
    the same seed reuses the identical draws: common random numbers.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, _COIN_STREAM]))
    return rng.random(T)


def mg_skip_step(
    state: MGSkipState,
    problem: ProblemInstance,
    gossip: MultiGossipOperator,
    cfg: RunConfig,
    theta: int,
) -> MGSkipState:
    """One iteration with the coin fixed to ``theta``."""
    alpha = cfg.alpha
    z = state.x - alpha * problem.gradient_stack(state.x) - alpha * state.y
    if theta:
        zbar = 0.5 * gossip.fast_goss(z)
        y = state.y + (cfg.p / alpha) * zbar
        x = problem.prox_stack(alpha, z - zbar)
        comm = state.comm_rounds + gossip.K
    else:
        y = state.y
        x = problem.prox_stack(alpha, z)
        comm = state.comm_rounds
    if not np.isfinite(x).all():
        raise DivergenceError(f"non-finite iterate at t={state.t}")
    return MGSkipState(
        x=x,
        y=y,
        t=state.t + 1,
        comm_rounds=comm,
        grad_evals=state.grad_evals + 1,
    )


@dataclass
class RunResult:
    """Per-iteration trace of one run.

    Row ``k`` describes the state after iteration ``t = ts[k]``
    (0-based step index) driven by coin ``thetas[k]``.  ``psi`` is NaN
    when diagnostics were off.  ``state`` is the last iterate state of
    the run's own algorithm (:class:`MGSkipState` or :class:`PUDAState`).
    """

    ts: np.ndarray
    thetas: np.ndarray
    comm_rounds: np.ndarray
    grad_evals: np.ndarray
    rel_err: np.ndarray
    psi: np.ndarray
    rel_err0: float
    psi0: float
    stopped: bool
    state: MGSkipState | PUDAState

    @property
    def iterations(self) -> int:
        return len(self.ts)


def _as_xstar(xstar) -> np.ndarray:
    if isinstance(xstar, ReferenceSolution):
        return xstar.xstar
    return np.asarray(xstar, dtype=float)


def _run(advance, state, thetas, x_star_stack, tol, comm_budget, psi=None) -> RunResult:
    """The trace loop shared by every run driver; iterates start at ``X = 0``.

    ``state = advance(state, t, theta)`` performs iteration ``t`` with coin
    ``theta`` for each entry of ``thetas``.  Stops after the first row with
    ``rel_err < tol`` (if ``tol`` is positive), after the last coin, or as
    soon as ``comm_rounds >= comm_budget`` when a budget is given.  ``psi``,
    when given, maps a state to its Lyapunov value.  A
    :class:`DivergenceError` from ``advance`` is re-raised carrying the rows
    recorded before it.
    """
    norm_star = float(np.linalg.norm(x_star_stack))
    rel_err0 = 1.0  # the error of X = 0 is ||X*|| itself
    psi0 = psi(state) if psi else float("nan")
    # a list append costs a fraction of a per-row array write; result() converts once
    comms, grads, rels, psis = [], [], [], []

    def result(stopped: bool) -> RunResult:
        k = len(rels)
        return RunResult(
            ts=np.arange(k),
            thetas=np.array(thetas[:k], dtype=int),
            comm_rounds=np.array(comms, dtype=int),
            grad_evals=np.array(grads, dtype=int),
            rel_err=np.array(rels, dtype=float),
            psi=np.array(psis, dtype=float) if psi else np.full(k, np.nan),
            rel_err0=rel_err0,
            psi0=psi0,
            stopped=stopped,
            state=state,
        )

    for t, theta in enumerate(thetas):
        try:
            state = advance(state, t, theta)
        except DivergenceError as err:
            raise DivergenceError(str(err), result(False)) from None
        rel = float(np.linalg.norm(state.x - x_star_stack)) / norm_star
        comms.append(state.comm_rounds)
        grads.append(state.grad_evals)
        rels.append(rel)
        if psi:
            psis.append(psi(state))
        if tol > 0.0 and rel < tol:
            return result(True)
        if comm_budget is not None and state.comm_rounds >= comm_budget:
            break
    return result(False)


def mg_skip_run(
    problem: ProblemInstance,
    gossip: MultiGossipOperator,
    cfg: RunConfig,
    xstar,
    diagnostics: bool = False,
    comm_budget: int | None = None,
) -> RunResult:
    """Run from ``X = 0`` and ``Y = 0``.

    Stops at ``rel_err < cfg.tol`` (if positive), at ``cfg.T``
    iterations, or as soon as ``comm_rounds >= comm_budget`` when a
    budget is given.  With ``diagnostics`` the Lyapunov value is
    recorded each iteration.  Identical config and seed give a
    bit-identical trace.
    """
    cfg.validate_for(problem)
    n, d = problem.n, problem.dim
    if gossip.n != n:
        raise ValueError("gossip operator and problem disagree on node count")
    xs = _as_xstar(xstar)
    x_star_stack = np.tile(xs, (n, 1))
    psi = None
    if diagnostics:
        ystar = dual_fixed_point(problem, xs)
        psi = partial(lyapunov, xstar_stack=x_star_stack, ystar=ystar, gossip=gossip, cfg=cfg)
    thetas = (coin_stream(cfg.seed, cfg.T) < cfg.p).astype(int).tolist()
    return _run(
        lambda state, t, theta: mg_skip_step(state, problem, gossip, cfg, theta),
        MGSkipState(x=np.zeros((n, d)), y=np.zeros((n, d))),
        thetas,
        x_star_stack,
        cfg.tol,
        comm_budget,
        psi,
    )


def dual_fixed_point(problem: ProblemInstance, xstar) -> np.ndarray:
    """The scaled dual at the fixed point: ``y*_i = gbar(x*) - grad f_i(x*)``.

    Columns sum to zero, so ``Y*`` lies in the range of the gossip
    square root for connected topologies.
    """
    xs = _as_xstar(xstar)
    grads = problem.gradient_stack(np.tile(xs, (problem.n, 1)))
    return grads.mean(axis=0) - grads


def fixed_point_residual(
    x,
    problem: ProblemInstance,
    gossip: MultiGossipOperator,
    alpha: float,
) -> float:
    """How far a candidate ``x`` is from satisfying the fixed-point system.

    Builds the consensual stack ``X``, the consensual
    ``Z = X - alpha * gbar(x)`` and the gradient-residual dual, then
    returns the max of three Frobenius residuals: the primal
    reconstruction (including representability of ``Y*`` in the range
    of the gossip square root), ``||S Z||``, and
    ``||X - prox_{alpha R}(Z)||``.  At the true minimizer all three
    vanish to solver precision.
    """
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    xs = _as_xstar(x)
    n = problem.n
    x_stack = np.tile(xs, (n, 1))
    grads = problem.gradient_stack(x_stack)
    gbar = grads.mean(axis=0)
    z_stack = x_stack - alpha * np.tile(gbar, (n, 1))
    y_stack = gbar - grads
    s = gossip.sqrt_half_gap()
    s_pinv = gossip.sqrt_half_gap_pinv()
    # reconstruction residual: Z - (X - alpha*grad - alpha*S S^+ Y)
    recon = z_stack - (x_stack - alpha * grads - alpha * (s @ (s_pinv @ y_stack)))
    r1 = float(np.linalg.norm(recon))
    r2 = float(np.linalg.norm(s @ z_stack))
    r3 = float(np.linalg.norm(x_stack - problem.prox_stack(alpha, z_stack)))
    return max(r1, r2, r3)


def lyapunov(
    state: MGSkipState,
    xstar_stack: np.ndarray,
    ystar: np.ndarray,
    gossip: MultiGossipOperator,
    cfg: RunConfig,
) -> float:
    """``||X - X*||_F^2 + (alpha/p)^2 ||U - U*||_F^2``.

    ``U - U*`` is reconstructed as ``S^+ (Y - Y*)``; a component of
    ``Y - Y*`` outside the range of ``S`` beyond 1e-8 signals a broken
    dual update and raises.
    """
    s = gossip.sqrt_half_gap()
    s_pinv = gossip.sqrt_half_gap_pinv()
    dy = state.y - ystar
    du = s_pinv @ dy
    out_of_range = float(np.linalg.norm(dy - s @ du))
    if out_of_range > 1e-8:
        raise RuntimeError(
            f"dual iterate leaves the gossip range (residual {out_of_range:.3e})"
        )
    dx = state.x - xstar_stack
    return float(dx.ravel() @ dx.ravel()) + (cfg.alpha / cfg.p) ** 2 * float(
        du.ravel() @ du.ravel()
    )


def contraction_factor(alpha: float, p: float, mu: float, lsmooth: float) -> float:
    """``zeta = max{(1-alpha*mu)^2, (1-alpha*L)^2, 1 - p^2/5}``."""
    return max(
        (1.0 - alpha * mu) ** 2,
        (1.0 - alpha * lsmooth) ** 2,
        1.0 - p * p / 5.0,
    )


@dataclass(frozen=True)
class ContractionReport:
    psi: float
    lhs: float
    rhs: float
    zeta: float
    ok: bool


def check_contraction(
    state: MGSkipState,
    problem: ProblemInstance,
    gossip: MultiGossipOperator,
    cfg: RunConfig,
    xstar,
    ystar: np.ndarray,
) -> ContractionReport:
    """Exact one-step conditional-expectation contraction test.

    Evaluates both coin branches from the current state, forms
    ``p * psi(theta=1) + (1-p) * psi(theta=0)`` deterministically, and
    compares against ``zeta * psi + 1e-9 * max(1, psi)``.  Violations
    are reported, not raised.
    """
    xs_stack = np.tile(_as_xstar(xstar), (problem.n, 1))
    psi_now = lyapunov(state, xs_stack, ystar, gossip, cfg)
    branch1 = mg_skip_step(state, problem, gossip, cfg, theta=1)
    branch0 = mg_skip_step(state, problem, gossip, cfg, theta=0)
    lhs = cfg.p * lyapunov(branch1, xs_stack, ystar, gossip, cfg) + (
        1.0 - cfg.p
    ) * lyapunov(branch0, xs_stack, ystar, gossip, cfg)
    zeta = contraction_factor(cfg.alpha, cfg.p, problem.mu, problem.L)
    rhs = zeta * psi_now + 1e-9 * max(1.0, psi_now)
    return ContractionReport(psi=psi_now, lhs=lhs, rhs=rhs, zeta=zeta, ok=bool(lhs <= rhs))


# ---------------------------------------------------------------------------
# generic primal-dual engine (deterministic baselines)


@dataclass(frozen=True)
class PUDAConfig:
    """Three-matrix primal update engine.

    Iterates ``z <- B z_prev + C (x - x_prev) + alpha * (grad_prev - grad)``
    followed by ``x <- prox_{alpha R}(A z)``.  Construction verifies the
    convergence conditions by eigendecomposition: ``A^2 <= B <= I``
    with ``B`` strictly below 1 off the consensus direction, and
    ``0 <= C <= 2I``.  ``comm_rounds_per_iter`` declares how many
    weight applications one iteration encodes; ``payload`` is the
    number of vectors moved per round.
    """

    name: str
    a_mat: np.ndarray
    b_mat: np.ndarray
    c_mat: np.ndarray
    comm_rounds_per_iter: int
    payload: int = 1

    def __post_init__(self) -> None:
        n = self.a_mat.shape[0]
        for label, m in (("A", self.a_mat), ("B", self.b_mat), ("C", self.c_mat)):
            if m.shape != (n, n):
                raise ValueError(f"{label} must be {n}x{n}")
            if np.abs(m - m.T).max() > 1e-12:
                raise ValueError(f"{label} must be symmetric")
        if np.linalg.eigvalsh(self.b_mat - self.a_mat @ self.a_mat).min() < -1e-10:
            raise ValueError("need A^2 <= B")
        b_eigs = np.linalg.eigvalsh(self.b_mat)
        if b_eigs.max() > 1.0 + 1e-12:
            raise ValueError("need B <= I")
        proj = np.eye(n) - np.ones((n, n)) / n
        centered = proj @ self.b_mat @ proj
        if np.linalg.eigvalsh(0.5 * (centered + centered.T)).max() >= 1.0 - 1e-10:
            raise ValueError("need B strictly below 1 off the consensus direction")
        c_eigs = np.linalg.eigvalsh(self.c_mat)
        if c_eigs.min() < -1e-10 or c_eigs.max() > 2.0 + 1e-10:
            raise ValueError("need 0 <= C <= 2I")


def puda_mgskip_p1(gossip: MultiGossipOperator) -> PUDAConfig:
    """``A = B = (I + Mbar)/2, C = I``: the skipping iteration at p = 1."""
    n = gossip.n
    half = 0.5 * (np.eye(n) + gossip.mbar)
    half = 0.5 * (half + half.T)
    return PUDAConfig(
        name="mgskip_p1",
        a_mat=half,
        b_mat=half,
        c_mat=np.eye(n),
        comm_rounds_per_iter=gossip.K,
    )


def puda_nids(mixing: MixingMatrix) -> PUDAConfig:
    """``A = B = C = (I + W)/2``."""
    half = 0.5 * (np.eye(mixing.n) + mixing.w)
    return PUDAConfig(
        name="nids_style",
        a_mat=half,
        b_mat=half,
        c_mat=half,
        comm_rounds_per_iter=1,
    )


@dataclass(frozen=True)
class PUDAState:
    x: np.ndarray
    x_prev: np.ndarray
    z_prev: np.ndarray
    grad_prev: np.ndarray
    t: int
    comm_rounds: int
    grad_evals: int


def puda_init(problem: ProblemInstance, cfg: PUDAConfig, alpha: float) -> PUDAState:
    """First iteration from ``X = 0`` and a zero dual: ``z0 = X - alpha*grad F(X)``."""
    x = np.zeros((problem.n, problem.dim))
    g = problem.gradient_stack(x)
    z = x - alpha * g
    x1 = problem.prox_stack(alpha, cfg.a_mat @ z)
    return PUDAState(
        x=x1,
        x_prev=x,
        z_prev=z,
        grad_prev=g,
        t=1,
        comm_rounds=cfg.comm_rounds_per_iter,
        grad_evals=1,
    )


def puda_step(
    state: PUDAState,
    problem: ProblemInstance,
    cfg: PUDAConfig,
    alpha: float,
) -> PUDAState:
    """One engine iteration."""
    g = problem.gradient_stack(state.x)
    z = (
        cfg.b_mat @ state.z_prev
        + cfg.c_mat @ (state.x - state.x_prev)
        + alpha * (state.grad_prev - g)
    )
    x_new = problem.prox_stack(alpha, cfg.a_mat @ z)
    if not np.isfinite(x_new).all():
        raise DivergenceError(f"non-finite iterate at t={state.t}")
    return PUDAState(
        x=x_new,
        x_prev=state.x,
        z_prev=z,
        grad_prev=g,
        t=state.t + 1,
        comm_rounds=state.comm_rounds + cfg.comm_rounds_per_iter,
        grad_evals=state.grad_evals + 1,
    )


def puda_run(
    problem: ProblemInstance,
    cfg: PUDAConfig,
    alpha: float,
    T: int,
    xstar,
    tol: float = 0.0,
    comm_budget: int | None = None,
) -> RunResult:
    """Deterministic engine run with the same trace layout as the skipper.

    Every iteration communicates, so every ``theta`` is 1; ``psi`` is NaN.
    """

    def advance(state, t, theta):
        if t == 0:
            return puda_init(problem, cfg, alpha)
        return puda_step(state, problem, cfg, alpha)

    x_star_stack = np.tile(_as_xstar(xstar), (problem.n, 1))
    return _run(advance, None, [1] * T, x_star_stack, tol, comm_budget)
