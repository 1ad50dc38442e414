"""Communication-skipping decentralized proximal gradient, plus diagnostics.

The main iteration keeps stacked primal iterates ``X`` and a scaled
dual ``Y`` (columns mean-zero).  Each step does one local gradient and
prox per node; with probability ``p`` a shared coin additionally
triggers one multi-gossip exchange:

    Z    = X - alpha * grad F(X) - alpha * Y
    Zbar = (theta/2) * (I - Mbar) Z          (via fast_goss)
    Y   <- Y + (p/alpha) * Zbar
    X   <- prox_{alpha R}(Z - Zbar)

Skipped iterations (``theta = 0``) move no bytes.  :func:`mg_skip_step`
evaluates these lines in place, on the fresh gradient and the fresh
gossip output, with the same floating-point operations in the same
order, so its iterates, and every trace, equal the plain expressions'
bit for bit.  The diagnostics
implement the matching fixed-point residual, the Lyapunov value
``psi = ||X-X*||^2 + (alpha/p)^2 ||U-U*||^2`` with ``U`` reconstructed
from ``Y`` through the pseudo-inverse of ``S = sqrt((I-Mbar)/2)``, taken
mode by mode in the eigenbasis of ``W``, and the
exact one-step conditional-expectation contraction check against
``zeta = max{(1-alpha*mu)^2, (1-alpha*L)^2, 1-p^2/5}``.

The deterministic baselines run on a primal-dual engine that applies
``H = (I + Mbar)/2`` once per iteration, through the gossip operator:
the published NIDS recursion (``C = H``) or the three-matrix form with
``A = B = H`` and ``C = I``, which reproduces the main iteration at
``p = 1`` exactly.  Their conditions reduce to every non-consensus
eigenvalue of ``Mbar`` lying in ``[-1, 1)``, checked on the operator's
spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .gossip import MultiGossipOperator
from .problems import ProblemInstance, ReferenceSolution

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
    "puda_mgskip_p1",
    "puda_nids",
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


def check_stepsize(alpha: float, problem: ProblemInstance) -> None:
    """Refuse ``alpha * L >= 2``: the skipping iteration's limit and NIDS's
    (arXiv:1704.07807), set by the problem alone, not by the network, p or K."""
    if alpha * problem.L >= 2.0:
        raise ValueError(f"alpha*L = {alpha * problem.L:.4g} must be < 2")


def _check_entry(problem: ProblemInstance, gossip: MultiGossipOperator, alpha: float) -> None:
    """The entry check of :func:`mg_skip_run` and :func:`puda_run`: stepsize, then node count."""
    check_stepsize(alpha, problem)
    if gossip.n != problem.n:
        raise ValueError(f"gossip operator and problem disagree on node count: {gossip.n} != {problem.n}")


@dataclass(frozen=True, slots=True)
class MGSkipState:
    """Stacked primal iterates ``X`` and scaled dual ``Y``."""

    x: np.ndarray
    y: np.ndarray


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


def _finite(a: np.ndarray) -> bool:
    """Whether every entry of ``a`` is finite, as ``np.isfinite(a).all()``.

    A non-finite entry makes the sum of squares non-finite, so a finite sum
    settles it in one dot product; only a non-finite one, which an overflow
    of finite entries also gives, takes the entrywise test.  That overflow
    warns unless numpy's ``over`` errors are ignored, as :func:`_run` does.
    """
    v = a.ravel()
    return math.isfinite(v.dot(v)) or bool(np.isfinite(a).all())


def mg_skip_step(
    state: MGSkipState,
    problem: ProblemInstance,
    gossip: MultiGossipOperator,
    cfg: RunConfig,
    theta: int,
) -> MGSkipState:
    """One iteration with the coin fixed to ``theta``.

    Works in place on the new gradient and gossip output, which it owns:
    ``x - alpha*g`` is computed as ``(-alpha)*g + x``, which IEEE
    arithmetic makes the same number, so every array equals the module
    docstring's expression bit for bit.  ``state`` is never written.
    """
    alpha = cfg.alpha
    z = problem.gradient_stack(state.x)
    z *= -alpha
    z += state.x
    z -= alpha * state.y
    if theta:
        zbar = gossip.fast_goss(z)
        zbar *= 0.5
        y = (cfg.p / alpha) * zbar
        y += state.y
        z -= zbar
    else:
        y = state.y
    x = problem.prox_stack(alpha, z)
    # a skipped step keeps the Y that was checked when it was made
    if not _finite(x) or (theta and not _finite(y)):
        raise DivergenceError("non-finite iterate")
    return MGSkipState(x=x, y=y)


@dataclass
class RunResult:
    """Per-iteration trace of one run.

    Row ``k`` describes the state after iteration ``t = ts[k] = k``
    (0-based step index) driven by coin ``thetas[k]``; every iteration
    costs one gradient per node, so ``grad_evals[k] = k + 1``.  ``psi``
    is NaN when diagnostics were off.  ``state`` is the last iterate
    state of the run's own algorithm (:class:`MGSkipState` or
    :class:`PUDAState`).  ``stop_reason`` names why the trace ends:
    ``"tol"`` (``rel_err`` fell below the tolerance), ``"horizon"`` (the
    last coin was used), ``"budget"`` (the communication budget was
    reached), or ``"divergence"`` on the rows a :class:`DivergenceError`
    carries.
    """

    thetas: np.ndarray
    comm_rounds: np.ndarray
    rel_err: np.ndarray
    psi: np.ndarray
    psi0: float
    stop_reason: str
    state: MGSkipState | PUDAState

    @property
    def stopped(self) -> bool:
        """Whether the run reached its tolerance."""
        return self.stop_reason == "tol"

    @property
    def iterations(self) -> int:
        return len(self.rel_err)

    @property
    def ts(self) -> np.ndarray:
        return np.arange(self.iterations)

    @property
    def grad_evals(self) -> np.ndarray:
        return np.arange(1, self.iterations + 1)


def _as_xstar(xstar) -> np.ndarray:
    if isinstance(xstar, ReferenceSolution):
        return xstar.xstar
    return np.asarray(xstar, dtype=float)


def _run(step, state, thetas, rounds, x_star_stack, tol, comm_budget=None, psi=None) -> RunResult:
    """The trace loop shared by every run driver; iterates start at zero.

    ``state = step(state, theta)`` performs one iteration with coin
    ``theta`` for each entry of ``thetas``; an iteration whose coin is 1
    costs ``rounds`` gossip rounds.  Stops after the first row with
    ``rel_err < tol`` (if ``tol`` is positive), after the last coin, or as
    soon as ``comm_rounds >= comm_budget`` when a budget is given, and
    names which in ``stop_reason``.  ``rel_err`` is ``||X - X*|| / ||X*||``
    (Frobenius), or ``||X - X*|| / sqrt(n)``, the per-node absolute error,
    when ``X* = 0``.  ``psi``, when given, maps a state to its Lyapunov
    value.  A :class:`DivergenceError` from ``step`` is re-raised naming
    the iteration and carrying the rows recorded before it.
    """
    norm_star = float(np.linalg.norm(x_star_stack)) or math.sqrt(len(x_star_stack))
    psi0 = psi(state) if psi else float("nan")
    comm = 0
    # a list append costs a fraction of a per-row array write; result() converts once
    comms, rels, psis = [], [], []

    def result(stop_reason: str) -> RunResult:
        k = len(rels)
        return RunResult(
            thetas=np.array(thetas[:k], dtype=int),
            comm_rounds=np.array(comms, dtype=int),
            rel_err=np.array(rels, dtype=float),
            psi=np.array(psis, dtype=float) if psi else np.full(k, np.nan),
            psi0=psi0,
            stop_reason=stop_reason,
            state=state,
        )

    diff = np.empty(x_star_stack.shape)
    flat = diff.reshape(-1)  # a view, in the row-major order ravel() gives
    # a diverging run ends in a DivergenceError, not in numpy's warnings on the way
    with np.errstate(over="ignore", invalid="ignore"):
        for t, theta in enumerate(thetas):
            try:
                state = step(state, theta)
            except DivergenceError as err:
                raise DivergenceError(f"{err} at t={t}", result("divergence")) from None
            comm += theta * rounds
            # np.linalg.norm's Frobenius arithmetic, without its dispatch
            np.subtract(state.x, x_star_stack, out=diff)
            rel = math.sqrt(flat.dot(flat)) / norm_star
            comms.append(comm)
            rels.append(rel)
            if psi:
                psis.append(psi(state))
            if tol > 0.0 and rel < tol:
                return result("tol")
            if comm_budget is not None and comm >= comm_budget:
                return result("budget")
    return result("horizon")


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
    bit-identical trace.  Opens with :func:`puda_run`'s entry check.
    """
    _check_entry(problem, gossip, cfg.alpha)
    n, d = problem.n, problem.dim
    xs = _as_xstar(xstar)
    x_star_stack = np.tile(xs, (n, 1))
    psi = None
    if diagnostics:
        ystar = dual_fixed_point(problem, xs)
        psi = partial(lyapunov, xstar_stack=x_star_stack, ystar=ystar, gossip=gossip, cfg=cfg)
    thetas = (coin_stream(cfg.seed, cfg.T) < cfg.p).astype(int).tolist()
    return _run(
        lambda state, theta: mg_skip_step(state, problem, gossip, cfg, theta),
        MGSkipState(x=np.zeros((n, d)), y=np.zeros((n, d))),
        thetas,
        gossip.K,
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

    Builds the consensual stack ``X`` and the consensual
    ``Z = X - alpha * gbar(x)``, and returns ``||X - prox_{alpha R}(Z)||_F``,
    which vanishes to solver precision at the true minimizer.  The
    system's gossip residuals, ``||S Z||`` and the representability of the
    gradient-residual dual in the range of ``S = sqrt((I - Mbar)/2)``, are
    zero by construction at a consensual candidate (``Z`` is consensual and
    that dual has zero mean), so ``gossip`` is not read.
    """
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    x_stack = np.tile(_as_xstar(x), (problem.n, 1))
    gbar = problem.gradient_stack(x_stack).mean(axis=0)
    z_stack = x_stack - alpha * gbar
    return float(np.linalg.norm(x_stack - problem.prox_stack(alpha, z_stack)))


def lyapunov(
    state: MGSkipState,
    xstar_stack: np.ndarray,
    ystar: np.ndarray,
    gossip: MultiGossipOperator,
    cfg: RunConfig,
) -> float:
    """``||X - X*||_F^2 + (alpha/p)^2 ||U - U*||_F^2``.

    ``U - U*`` is reconstructed as ``S^+ (Y - Y*)``, ``S = sqrt((I - Mbar)/2)``.
    In the eigenbasis ``(h, V)`` of ``(I - Mbar)/2`` its squared norm is
    the sum over the modes with ``h > 0`` of each mode's squared norm of
    ``V^T (Y - Y*)`` divided by ``h``.  A component of ``Y - Y*`` on the
    null modes, outside the range of ``S``, beyond 1e-8 signals a broken
    dual update and raises.
    """
    h, vecs = gossip.half_gap_eigh
    coef = vecs.T @ (state.y - ystar)
    modes = np.einsum("ij,ij->i", coef, coef)
    null = h == 0.0
    out_of_range = math.sqrt(float(modes[null].sum()))
    if out_of_range > 1e-8:
        raise RuntimeError(
            f"dual iterate leaves the gossip range (residual {out_of_range:.3e})"
        )
    dx = state.x - xstar_stack
    return float(dx.ravel() @ dx.ravel()) + (cfg.alpha / cfg.p) ** 2 * float(
        modes[~null] @ (1.0 / h[~null])
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
    lhs: float
    rhs: float
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
    return ContractionReport(lhs=lhs, rhs=rhs, ok=bool(lhs <= rhs))


# ---------------------------------------------------------------------------
# generic primal-dual engine (deterministic baselines)


@dataclass(frozen=True)
class PUDAConfig:
    """Primal-dual engine on ``H = (I + Mbar)/2``, one ``H`` per iteration.

    With ``w`` the prox input, ``x = prox_{alpha R}(w)`` and ``g`` the
    stacked gradient at ``x``, an iteration is

    - ``c_is_h`` (NIDS; Li, Shi & Yan, arXiv:1704.07807):
      ``w <- w - x + H(2x - x_prev - alpha g + alpha g_prev)``;
    - otherwise (``C = I``):
      ``w <- H(w + x - x_prev - alpha g + alpha g_prev)``, the three-matrix
      form ``z <- B z_prev + C (x - x_prev) + alpha (g_prev - g)``,
      ``w = A z`` with ``A = B = H``;

    then ``x <- prox_{alpha R}(w)``.  Without a regularizer ``w = x``, and
    the two coincide.  ``H`` is applied through the gossip operator, one
    ``fast_goss`` per iteration, and a run counts ``gossip.K`` rounds per
    iteration.  The convergence conditions (``A^2 <= B <= I``, ``B``
    strictly below 1 off the consensus direction, ``0 <= C <= 2I``; for
    NIDS, ``0 <= H <= I`` with 1 simple) hold exactly when every
    non-consensus eigenvalue of ``Mbar`` lies in ``[-1, 1)``; construction
    checks that on :attr:`MultiGossipOperator.spectrum`.
    """

    gossip: MultiGossipOperator
    c_is_h: bool

    def __post_init__(self) -> None:
        # ascending; the largest is the consensus eigenvalue 1
        lam = self.gossip.spectrum
        if lam[0] < -1.0 - 1e-10:
            raise ValueError(f"need A^2 <= B: Mbar has eigenvalue {lam[0]:.4g} < -1")
        if lam[:-1].max(initial=-1.0) >= 1.0 - 1e-10:
            raise ValueError("need B strictly below 1 off the consensus direction")

    def h(self, v: np.ndarray) -> np.ndarray:
        """``H v = v - (I - Mbar) v / 2``."""
        return v - 0.5 * self.gossip.fast_goss(v)


def puda_mgskip_p1(gossip: MultiGossipOperator) -> PUDAConfig:
    """``C = I``: the skipping iteration at p = 1."""
    return PUDAConfig(gossip=gossip, c_is_h=False)


def puda_nids(gossip: MultiGossipOperator) -> PUDAConfig:
    """``C = H``: the published NIDS recursion, run on the one-round operator ``Mbar = W``."""
    return PUDAConfig(gossip=gossip, c_is_h=True)


@dataclass(frozen=True, slots=True)
class PUDAState:
    """Engine iterate, its predecessor, the last gradient, and prox input.

    ``hz_prev`` is the prox input ``w`` that gave ``x`` (under ``C = I``,
    ``H`` applied to the last ``z``); keeping it lets both presets apply
    ``H`` once per iteration.
    """

    x: np.ndarray
    x_prev: np.ndarray
    grad_prev: np.ndarray
    hz_prev: np.ndarray


def puda_step(
    state: PUDAState,
    problem: ProblemInstance,
    cfg: PUDAConfig,
    alpha: float,
) -> PUDAState:
    """One engine iteration."""
    g = problem.gradient_stack(state.x)
    dx = state.x - state.x_prev
    # C = H: 2x - x_prev; C = I: the previous prox input plus x - x_prev
    z = (state.x if cfg.c_is_h else state.hz_prev) + dx
    z += alpha * (state.grad_prev - g)
    hz = cfg.h(z)
    w = state.hz_prev - state.x + hz if cfg.c_is_h else hz
    x_new = problem.prox_stack(alpha, w)
    if not _finite(x_new):
        raise DivergenceError("non-finite iterate")
    return PUDAState(x=x_new, x_prev=state.x, grad_prev=g, hz_prev=w)


def puda_run(
    problem: ProblemInstance,
    cfg: PUDAConfig,
    alpha: float,
    T: int,
    xstar,
    tol: float = 0.0,
) -> RunResult:
    """Deterministic engine run with the same trace layout as the skipper.

    Starts from the all-zero state, whose first step gives
    ``z0 = -alpha * grad F(0)``.  Every iteration communicates, so every
    ``theta`` is 1; ``psi`` is NaN.
    """
    _check_entry(problem, cfg.gossip, alpha)
    if T < 1:
        raise ValueError(f"horizon must be >= 1, got {T}")
    zero = np.zeros((problem.n, problem.dim))
    return _run(
        lambda state, theta: puda_step(state, problem, cfg, alpha),
        PUDAState(x=zero, x_prev=zero, grad_prev=zero, hz_prev=zero),
        [1] * T,
        cfg.gossip.K,
        np.tile(_as_xstar(xstar), (problem.n, 1)),
        tol,
    )
