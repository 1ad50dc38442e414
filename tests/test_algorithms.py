"""Skipping iteration, diagnostics, and the three-matrix engine."""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest

import gossipskip.algorithms as algorithms
from gossipskip import (
    DivergenceError,
    L1Reg,
    MGSkipState,
    MixingMatrix,
    MultiGossipOperator,
    ProblemInstance,
    QuadraticLoss,
    RunConfig,
    build_random_connectivity,
    build_ring,
    check_contraction,
    coin_stream,
    centralized_solve,
    contraction_factor,
    dual_fixed_point,
    fixed_point_residual,
    gen_least_squares,
    gen_logistic,
    lyapunov,
    metropolis_weights,
    mg_skip_run,
    mg_skip_step,
    puda_mgskip_p1,
    puda_nids,
    puda_run,
    puda_step,
)


def single_node_setup(target=3.0):
    """n = 1: the iteration degenerates to centralized proximal gradient."""
    mixing = MixingMatrix.from_matrix(np.array([[1.0]]))
    gossip = MultiGossipOperator(mixing=mixing, K=1, eta=0.0)
    loss = QuadraticLoss(a=np.eye(1), b=np.array([target]), mu=1.0, lsmooth=1.0)
    problem = ProblemInstance(losses=(loss,), reg=L1Reg(), dim=1)
    return problem, gossip


class TimeBomb:
    """``f(x) = |x|^2 / 2`` on R^2 whose gradient turns non-finite after
    ``fuse`` evaluations."""

    dim = 2
    mu = 1.0
    lsmooth = 1.0

    def __init__(self, fuse: int):
        self.fuse = fuse
        self.calls = 0

    def value(self, x):
        return 0.5 * float(x @ x)

    def gradient(self, x):
        self.calls += 1
        if self.calls > self.fuse:
            return np.full(2, np.nan)
        return x


class TestStep:
    def test_single_node_centralized_step(self):
        problem, gossip = single_node_setup(3.0)
        cfg = RunConfig(alpha=1.0, p=1.0, T=10)
        state = MGSkipState(x=np.zeros((1, 1)), y=np.zeros((1, 1)))
        nxt = mg_skip_step(state, problem, gossip, cfg, theta=1)
        assert nxt.x[0, 0] == pytest.approx(3.0, abs=1e-15)
        assert np.all(nxt.y == 0.0)

    def test_skip_step_is_pure_local_update(self, bench):
        cfg = RunConfig(alpha=bench.alpha, p=0.5, T=10)
        rng = np.random.default_rng(4)
        x = rng.standard_normal((15, 10))
        y = rng.standard_normal((15, 10))
        y -= y.mean(axis=0, keepdims=True)
        state = MGSkipState(x=x, y=y)
        nxt = mg_skip_step(state, bench.problem, bench.gossip, cfg, theta=0)
        expected = x - cfg.alpha * bench.problem.gradient_stack(x) - cfg.alpha * y
        assert np.abs(nxt.x - expected).max() <= 1e-14
        assert np.array_equal(nxt.y, y)
        # in a run, a skipped iteration costs one gradient and no rounds
        res = mg_skip_run(bench.problem, bench.gossip, cfg, bench.reference)
        skipped = np.flatnonzero(res.thetas == 0)
        assert skipped.size > 0
        assert np.array_equal(res.comm_rounds[skipped], res.comm_rounds[skipped - 1])
        assert np.array_equal(res.grad_evals[skipped], res.grad_evals[skipped - 1] + 1)

    def test_counters(self, bench):
        # seed 1 draws theta = 1 then 0 at p = 0.5
        cfg = RunConfig(alpha=bench.alpha, p=0.5, T=2, seed=1)
        res = mg_skip_run(bench.problem, bench.gossip, cfg, bench.reference)
        assert res.thetas.tolist() == [1, 0]
        assert res.comm_rounds.tolist() == [bench.gossip.K, bench.gossip.K]
        assert res.grad_evals.tolist() == [1, 2]
        assert [f.name for f in fields(res.state)] == ["x", "y"]

    def test_fixed_point_is_stationary(self, bench):
        x_star_stack = np.tile(bench.reference.xstar, (15, 1))
        state = MGSkipState(x=x_star_stack.copy(), y=bench.ystar.copy())
        cfg = RunConfig(alpha=bench.alpha, p=0.5, T=10)
        nxt = mg_skip_step(state, bench.problem, bench.gossip, cfg, theta=1)
        assert np.linalg.norm(nxt.x - state.x) <= 1e-10
        assert np.linalg.norm(nxt.y - state.y) <= 1e-10

    def test_divergence_guard(self, bench):
        cfg = RunConfig(alpha=bench.alpha, p=1.0, T=10)
        bad = MGSkipState(
            x=np.full((15, 10), np.inf), y=np.zeros((15, 10))
        )
        with pytest.raises(DivergenceError):
            mg_skip_step(bad, bench.problem, bench.gossip, cfg, theta=0)

    def test_config_validation(self, bench):
        with pytest.raises(ValueError):
            RunConfig(alpha=0.0, p=1.0, T=10)
        with pytest.raises(ValueError):
            RunConfig(alpha=0.1, p=0.0, T=10)
        with pytest.raises(ValueError, match="alpha"):
            algorithms.check_stepsize(2.0 / bench.problem.L, bench.problem)

    def test_config_rejects_empty_horizon(self):
        with pytest.raises(ValueError, match="horizon must be >= 1, got 0"):
            RunConfig(alpha=0.1, p=1.0, T=0)


def textbook_step(state, problem, gossip, cfg, theta):
    """The module docstring's lines as plain expressions, each kernel's output
    taken as it is and every regularizer's prox written out."""
    alpha = cfg.alpha
    z = state.x - alpha * problem.gradient_stack(state.x) - alpha * state.y
    y = state.y
    if theta:
        zbar = 0.5 * gossip.fast_goss(z)
        y = state.y + (cfg.p / alpha) * zbar
        z = z - zbar
    if isinstance(problem.reg, L1Reg):
        x = np.sign(z) * np.maximum(np.abs(z) - alpha * problem.reg.weight, 0.0)
    else:
        x = z
    return x, y


class TestInPlaceStep:
    """The step works in place and still equals the plain expressions bit for bit."""

    @pytest.fixture(scope="class", params=["least_squares", "least_squares_l1", "logistic"])
    def problem(self, request, bench):
        if request.param == "least_squares":
            return bench.problem
        if request.param == "least_squares_l1":
            return ProblemInstance(losses=bench.problem.losses, reg=L1Reg(weight=0.3), dim=10)
        return gen_logistic(15, 10, 30, gamma1=0.1, gamma2=0.05, seed=4)

    @pytest.mark.parametrize("theta", [0, 1])
    def test_step_equals_textbook_expression(self, bench, problem, theta):
        cfg = RunConfig(alpha=1.0 / (5.0 * problem.L), p=0.3, T=10)
        rng = np.random.default_rng(8)
        x = rng.standard_normal((15, 10))
        y = rng.standard_normal((15, 10))
        y -= y.mean(axis=0, keepdims=True)
        x0, y0 = x.copy(), y.copy()
        state = MGSkipState(x=x, y=y)
        for _ in range(3):
            want_x, want_y = textbook_step(state, problem, bench.gossip, cfg, theta)
            nxt = mg_skip_step(state, problem, bench.gossip, cfg, theta)
            assert np.array_equal(nxt.x, want_x) and np.array_equal(nxt.y, want_y)
            state = nxt
        # a state's arrays are read, never written
        assert np.array_equal(x, x0) and np.array_equal(y, y0)

    def test_finite_is_the_entrywise_test(self):
        big = np.full((15, 10), 1e200)
        # the sum of squares overflows to inf; a run ignores that overflow
        with np.errstate(over="ignore"):
            assert algorithms._finite(big)
        assert algorithms._finite(np.zeros((3, 2)))
        for bad in (np.inf, -np.inf, np.nan):
            a = np.ones((15, 10))
            a[7, 3] = bad
            assert not algorithms._finite(a)
        # a non-contiguous view is tested on its own entries
        a = np.ones((4, 4))
        a[1, 2] = np.nan
        assert algorithms._finite(a[:, ::3]) and not algorithms._finite(a[:, 1:])


class TestRun:
    @pytest.mark.parametrize("runner", ["mg_skip_run", "puda_run"])
    def test_trace_invariants(self, bench, runner):
        if runner == "mg_skip_run":
            cfg = RunConfig(alpha=bench.alpha, p=0.4, T=300, tol=0.0, seed=2)
            res = mg_skip_run(bench.problem, bench.gossip, cfg, bench.reference)
        else:
            cfg = puda_mgskip_p1(bench.gossip)
            res = puda_run(bench.problem, cfg, bench.alpha, 300, bench.reference)
        assert res.iterations == 300
        assert np.array_equal(res.ts, np.arange(300))
        assert np.array_equal(res.grad_evals, res.ts + 1)
        # communication moves only on triggered iterations, K rounds each
        assert np.array_equal(res.comm_rounds, bench.gossip.K * np.cumsum(res.thetas))
        if runner == "puda_run":
            assert (res.thetas == 1).all()

    @pytest.mark.parametrize(
        "case", ["mg_skip_p1", "mg_skip_p0.34", "skip1", "puda_c_is_i", "puda_c_is_h"]
    )
    def test_gossip_calls_match_comm_rounds(self, bench, monkeypatch, case):
        """Each ``fast_goss`` call is ``K`` rounds, and every row counts the calls made so far."""
        count = 0
        calls = []  # fast_goss calls made by the end of each iteration
        fast_goss, run = MultiGossipOperator.fast_goss, algorithms._run

        def counting_goss(self, states):
            nonlocal count
            count += 1
            return fast_goss(self, states)

        def counting_run(step, *args, **kwargs):
            def counted(state, theta):
                state = step(state, theta)
                calls.append(count)
                return state

            return run(counted, *args, **kwargs)

        monkeypatch.setattr(MultiGossipOperator, "fast_goss", counting_goss)
        monkeypatch.setattr(algorithms, "_run", counting_run)
        gossip = one_round(bench.mixing) if case in ("skip1", "puda_c_is_h") else bench.gossip
        if case.startswith("puda"):
            preset = puda_nids if case == "puda_c_is_h" else puda_mgskip_p1
            res = puda_run(bench.problem, preset(gossip), bench.alpha, 200, bench.reference)
        else:
            p = 1.0 if case == "mg_skip_p1" else 0.34
            cfg = RunConfig(alpha=bench.alpha, p=p, T=200, tol=0.0, seed=4)
            res = mg_skip_run(bench.problem, gossip, cfg, bench.reference)
        assert res.iterations == 200 and count > 0
        assert np.array_equal(np.array(calls) * gossip.K, res.comm_rounds)

    def test_bit_identical_reruns(self, bench):
        cfg = RunConfig(alpha=bench.alpha, p=0.3, T=150, tol=0.0, seed=7)
        a = mg_skip_run(bench.problem, bench.gossip, cfg, bench.reference)
        b = mg_skip_run(bench.problem, bench.gossip, cfg, bench.reference)
        assert np.array_equal(a.rel_err, b.rel_err)
        assert np.array_equal(a.thetas, b.thetas)
        assert np.array_equal(a.state.x, b.state.x)

    def test_common_random_numbers_nest_triggers(self):
        coins = coin_stream(3, 1000)
        small = coins < 0.2
        large = coins < 0.7
        assert (~small | large).all()  # trigger sets nest as p grows

    def test_dual_stays_mean_zero(self, bench):
        cfg = RunConfig(alpha=bench.alpha, p=0.5, T=400, tol=0.0, seed=1)
        res = mg_skip_run(bench.problem, bench.gossip, cfg, bench.reference)
        colsum = np.abs(res.state.y.sum(axis=0)).max()
        assert colsum <= 1e-9

    def test_comm_rounds_match_binomial_count(self, bench):
        cfg = RunConfig(alpha=bench.alpha, p=0.3, T=2000, tol=0.0, seed=5)
        res = mg_skip_run(bench.problem, bench.gossip, cfg, bench.reference)
        triggers = res.comm_rounds[-1] / bench.gossip.K
        mean = cfg.p * cfg.T
        sigma = np.sqrt(cfg.T * cfg.p * (1 - cfg.p))
        assert abs(triggers - mean) <= 4 * sigma

    def test_matches_independent_dense_recursion(self, bench):
        """Straight-line oracle: dense Mbar products, no shared code path."""
        p, alpha, T, seed = 0.6, bench.alpha, 200, 13
        cfg = RunConfig(alpha=alpha, p=p, T=T, tol=0.0, seed=seed)
        res = mg_skip_run(bench.problem, bench.gossip, cfg, bench.reference)

        mbar = bench.gossip.mbar
        eye_minus = np.eye(15) - mbar
        grams = np.stack([f.a.T @ f.a for f in bench.problem.losses])
        atbs = np.stack([f.a.T @ f.b for f in bench.problem.losses])
        coins = coin_stream(seed, T)
        x = np.zeros((15, 10))
        y = np.zeros((15, 10))
        for t in range(T):
            z = x - alpha * (np.einsum("nij,nj->ni", grams, x) - atbs) - alpha * y
            if coins[t] < p:
                zbar = 0.5 * (eye_minus @ z)
                y = y + (p / alpha) * zbar
                x = z - zbar
            else:
                x = z
        x_star_stack = np.tile(bench.reference.xstar, (15, 1))
        rel = np.linalg.norm(x - x_star_stack) / np.linalg.norm(x_star_stack)
        assert np.abs(x - res.state.x).max() <= 1e-12
        assert rel == pytest.approx(res.rel_err[-1], abs=1e-12)

    def test_comm_budget_stop(self, bench):
        cfg = RunConfig(alpha=bench.alpha, p=1.0, T=500, tol=0.0, seed=0)
        res = mg_skip_run(
            bench.problem, bench.gossip, cfg, bench.reference, comm_budget=40
        )
        assert res.comm_rounds[-1] >= 40
        assert res.comm_rounds[-2] < 40
        assert res.iterations == -(-40 // bench.gossip.K)

    @pytest.mark.parametrize(
        "T,tol,budget,reason,iterations",
        [
            (40, 0.0, None, "horizon", 40),
            (500, 0.0, 40, "budget", 10),
            # the budget is met on the last coin: the budget ended the run
            (10, 0.0, 40, "budget", 10),
            (5000, 1e-7, None, "tol", 637),
        ],
    )
    def test_stop_reason_named(self, bench, T, tol, budget, reason, iterations):
        cfg = RunConfig(alpha=bench.alpha, p=1.0, T=T, tol=tol, seed=0)
        res = mg_skip_run(bench.problem, bench.gossip, cfg, bench.reference, comm_budget=budget)
        assert (res.stop_reason, res.iterations) == (reason, iterations)
        assert res.stopped == (reason == "tol")

    def test_divergence_carries_partial_trace(self):
        problem = ProblemInstance(losses=(TimeBomb(3),), reg=L1Reg(), dim=2)
        mixing = MixingMatrix.from_matrix(np.array([[1.0]]))
        gossip = MultiGossipOperator(mixing=mixing, K=1, eta=0.0)
        cfg = RunConfig(alpha=0.5, p=1.0, T=50, tol=0.0, seed=0)
        with pytest.raises(DivergenceError) as err:
            mg_skip_run(problem, gossip, cfg, np.ones(2))
        partial = err.value.result
        assert partial is not None and partial.iterations == 3
        assert partial.stop_reason == "divergence"
        assert np.isfinite(partial.rel_err).all()

    def test_node_count_mismatch_rejected(self, bench):
        gossip = MultiGossipOperator.from_mixing(metropolis_weights(build_ring(6)))
        cfg = RunConfig(alpha=bench.alpha, p=1.0, T=5)
        with pytest.raises(ValueError, match="disagree on node count"):
            mg_skip_run(bench.problem, gossip, cfg, bench.reference)

    def test_divergence_in_dual_caught_at_once(self):
        # a subnormal stepsize makes p/alpha overflow: Y turns infinite while X stays finite
        problem = gen_least_squares(6, 3, 1.0, 4.0, seed=0)
        gossip = MultiGossipOperator.from_mixing(metropolis_weights(build_ring(6)))
        cfg = RunConfig(alpha=1e-309, p=1.0, T=5, tol=0.0, seed=0)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            DivergenceError, match="t=0$"
        ) as err:
            mg_skip_run(problem, gossip, cfg, centralized_solve(problem, tol=1e-13))
        partial = err.value.result
        assert partial.iterations == 0
        assert np.isfinite(partial.state.x).all() and np.isfinite(partial.state.y).all()

    def test_zero_minimiser_measured_per_node(self):
        # an L1 weight this large puts x* at 0: rel_err is ||X||_F / sqrt(n)
        problem = gen_least_squares(15, 10, 1.0, 5.0, seed=1, reg=L1Reg(weight=3.0))
        reference = centralized_solve(problem, tol=1e-13)
        assert not reference.xstar.any()
        gossip = MultiGossipOperator.from_mixing(metropolis_weights(build_ring(15)))
        alpha = 0.2 / problem.L
        first = mg_skip_run(problem, gossip, RunConfig(alpha=alpha, p=1.0, T=1), reference)
        assert first.rel_err[0] == np.linalg.norm(first.state.x) / np.sqrt(15) > 0.0
        runs = (
            mg_skip_run(problem, gossip, RunConfig(alpha=alpha, p=1.0, T=2000, tol=1e-7), reference),
            puda_run(problem, puda_nids(gossip), alpha, 2000, reference, tol=1e-7),
        )
        assert [run.stop_reason for run in runs] == ["tol", "tol"]


class TestFixedPointResidual:
    def test_true_solution_small_residual(self, bench):
        res = fixed_point_residual(
            bench.reference, bench.problem, bench.gossip, bench.alpha
        )
        assert res <= 1e-8

    def test_perturbation_detected(self, bench):
        rng = np.random.default_rng(0)
        x = bench.reference.xstar + 0.1 * rng.standard_normal(10)
        res = fixed_point_residual(x, bench.problem, bench.gossip, bench.alpha)
        assert res > 1e-3

    def test_single_node_reduces_to_gradient_norm(self):
        problem, gossip = single_node_setup(2.0)
        alpha = 0.7
        x = np.array([0.5])
        res = fixed_point_residual(x, problem, gossip, alpha)
        grad = problem.losses[0].gradient(x)
        assert res == pytest.approx(alpha * np.linalg.norm(grad), abs=1e-12)

    def test_alpha_must_be_positive(self, bench):
        with pytest.raises(ValueError):
            fixed_point_residual(bench.reference, bench.problem, bench.gossip, 0.0)


class TestLyapunov:
    def test_zero_at_fixed_point(self, bench):
        x_star_stack = np.tile(bench.reference.xstar, (15, 1))
        state = MGSkipState(x=x_star_stack.copy(), y=bench.ystar.copy())
        cfg = RunConfig(alpha=bench.alpha, p=0.5, T=10)
        psi = lyapunov(state, x_star_stack, bench.ystar, bench.gossip, cfg)
        assert psi <= 1e-18

    def test_dual_term_vanishes_when_y_matches(self, bench):
        x_star_stack = np.tile(bench.reference.xstar, (15, 1))
        rng = np.random.default_rng(8)
        x = rng.standard_normal((15, 10))
        state = MGSkipState(x=x, y=bench.ystar.copy())
        cfg = RunConfig(alpha=bench.alpha, p=0.5, T=10)
        psi = lyapunov(state, x_star_stack, bench.ystar, bench.gossip, cfg)
        assert psi == pytest.approx(np.linalg.norm(x - x_star_stack) ** 2, rel=1e-12)

    def test_matches_least_squares_reconstruction_oracle(self, bench):
        # ||S^+ dY||^2 = <dY, ((I - Mbar)/2)^+ dY>, with the pseudo-inverse taken densely;
        # the cutoff drops the consensus eigenvalue, which is -1.5e-14 at ring-210
        problem210 = gen_least_squares(210, 10, mu=1.0, lsmooth=4.0, seed=1)
        ring210 = MultiGossipOperator.from_mixing(metropolis_weights(build_ring(210)))
        assert ring210.kernel == "folded"
        cases = [
            (bench.problem, bench.gossip, bench.reference, bench.alpha),
            (problem210, ring210, centralized_solve(problem210, tol=1e-13), 0.2 / problem210.L),
        ]
        for problem, gossip, reference, alpha in cases:
            cfg = RunConfig(alpha=alpha, p=0.5, T=60, tol=0.0, seed=3)
            state = mg_skip_run(problem, gossip, cfg, reference).state
            x_star_stack = np.tile(reference.xstar, (problem.n, 1))
            ystar = dual_fixed_point(problem, reference)
            psi = lyapunov(state, x_star_stack, ystar, gossip, cfg)
            half = 0.5 * (np.eye(problem.n) - gossip.mbar)
            half_pinv = np.linalg.pinv(half, rcond=1e-9, hermitian=True)
            dy = state.y - ystar
            oracle = (
                np.linalg.norm(state.x - x_star_stack) ** 2
                + (cfg.alpha / cfg.p) ** 2 * float(np.sum(dy * (half_pinv @ dy)))
            )
            assert psi == pytest.approx(oracle, rel=1e-8), problem.n

    def test_diagnostics_build_no_dense_mbar(self, bench):
        """The diagnostics read the eigenpairs of W, never a dense Mbar: a run's
        own folded gossip builds Mbar on ring-15, so they are called on an
        operator that has not gossiped."""
        gossip = MultiGossipOperator.from_mixing(bench.mixing)
        cfg = RunConfig(alpha=bench.alpha, p=0.5, T=20, tol=0.0, seed=3)
        res = mg_skip_run(bench.problem, gossip, cfg, bench.reference, diagnostics=True)
        assert np.isfinite(res.psi).all()
        fresh = MultiGossipOperator.from_mixing(bench.mixing)
        x_star_stack = np.tile(bench.reference.xstar, (15, 1))
        state = MGSkipState(x=x_star_stack + 1.0, y=bench.ystar.copy())
        assert lyapunov(state, x_star_stack, bench.ystar, fresh, cfg) > 0.0
        fixed_point_residual(bench.reference, bench.problem, fresh, bench.alpha)
        assert "half_gap_eigh" in fresh.__dict__
        assert "mbar" not in fresh.__dict__

    def test_out_of_range_dual_raises(self, bench):
        x_star_stack = np.tile(bench.reference.xstar, (15, 1))
        bad_y = bench.ystar + 1.0  # constant shift leaves the range of S
        state = MGSkipState(x=x_star_stack.copy(), y=bad_y)
        cfg = RunConfig(alpha=bench.alpha, p=0.5, T=10)
        with pytest.raises(RuntimeError, match="range"):
            lyapunov(state, x_star_stack, bench.ystar, bench.gossip, cfg)


class TestContraction:
    def test_factor_formula(self):
        assert contraction_factor(0.1, 1.0, 1.0, 10.0) == pytest.approx(
            max(0.81, 0.0, 0.8)
        )
        # near the stepsize boundary the (1 - alpha L)^2 branch activates
        val = contraction_factor(1.9 / 10.0, 0.5, 1.0, 10.0)
        assert val == pytest.approx(max((1 - 0.19) ** 2, 0.81, 1 - 0.05))

    def test_zero_at_fixed_point(self, bench):
        x_star_stack = np.tile(bench.reference.xstar, (15, 1))
        state = MGSkipState(x=x_star_stack.copy(), y=bench.ystar.copy())
        cfg = RunConfig(alpha=bench.alpha, p=0.5, T=10)
        rep = check_contraction(
            state, bench.problem, bench.gossip, cfg, bench.reference, bench.ystar
        )
        assert rep.ok and rep.lhs <= 1e-9

    def test_holds_along_short_run(self, bench):
        cfg = RunConfig(alpha=bench.alpha, p=0.3, T=100, tol=0.0, seed=19)
        coins = coin_stream(cfg.seed, cfg.T)
        state = MGSkipState(x=np.zeros((15, 10)), y=np.zeros((15, 10)))
        for t in range(cfg.T):
            rep = check_contraction(
                state, bench.problem, bench.gossip, cfg, bench.reference, bench.ystar
            )
            assert rep.ok, f"violated at t={t}: lhs={rep.lhs}, rhs={rep.rhs}"
            state = mg_skip_step(
                state, bench.problem, bench.gossip, cfg, int(coins[t] < cfg.p)
            )

    def test_holds_near_stepsize_boundary(self, bench):
        cfg = RunConfig(alpha=1.9 / bench.problem.L, p=0.5, T=100, tol=0.0, seed=23)
        zeta = contraction_factor(cfg.alpha, cfg.p, bench.problem.mu, bench.problem.L)
        assert zeta == pytest.approx(
            max((1 - 1.9 / bench.kappa) ** 2, (1 - 1.9) ** 2, 1 - 0.05)
        )
        coins = coin_stream(cfg.seed, cfg.T)
        state = MGSkipState(x=np.zeros((15, 10)), y=np.zeros((15, 10)))
        for t in range(cfg.T):
            rep = check_contraction(
                state, bench.problem, bench.gossip, cfg, bench.reference, bench.ystar
            )
            assert rep.ok, f"violated at t={t}: lhs={rep.lhs}, rhs={rep.rhs}"
            state = mg_skip_step(
                state, bench.problem, bench.gossip, cfg, int(coins[t] < cfg.p)
            )


def one_round(mixing: MixingMatrix) -> MultiGossipOperator:
    """The plain operator ``Mbar = W`` that NIDS runs on."""
    return MultiGossipOperator(mixing=mixing, K=1, eta=0.0)


class TestPUDA:
    def test_preset_conditions_pass(self, bench):
        puda_mgskip_p1(bench.gossip)
        puda_mgskip_p1(one_round(bench.mixing))
        puda_nids(one_round(bench.mixing))

    def test_config_holds_operator_only(self, bench):
        cfg = puda_nids(one_round(bench.mixing))
        assert [f.name for f in fields(cfg)] == ["gossip", "c_is_h"]
        assert cfg.c_is_h and not puda_mgskip_p1(bench.gossip).c_is_h

    def test_rejects_eigenvalue_below_minus_one(self):
        # ring-6 W has eigenvalue -1/3, so Mbar = 1.9 W - 0.9 I has -1.533
        gossip = MultiGossipOperator(mixing=metropolis_weights(build_ring(6)), K=1, eta=0.9)
        assert gossip.spectrum[0] == pytest.approx(-1.9 / 3 - 0.9, abs=1e-12)
        for preset in (puda_mgskip_p1, puda_nids):
            with pytest.raises(ValueError, match="A\\^2 <= B"):
                preset(gossip)

    def test_rejects_disconnected_mixing(self):
        # two separate triangles: lam_2 = 1, so B has a second unit eigenvalue
        block = np.full((3, 3), 1.0 / 3.0)
        w = np.block([[block, np.zeros((3, 3))], [np.zeros((3, 3)), block]])
        gossip = one_round(MixingMatrix.from_matrix(w))
        for preset in (puda_mgskip_p1, puda_nids):
            with pytest.raises(ValueError, match="strictly below 1"):
                preset(gossip)

    def test_construction_has_no_dense_matrices_at_ring1000(self):
        import tracemalloc

        n = 1000
        mixing = metropolis_weights(build_ring(n))
        problem = gen_least_squares(n, 3, 1.0, 4.0, seed=0)
        reference = centralized_solve(problem, tol=1e-13)
        alpha = 1.0 / (5.0 * problem.L)
        tracemalloc.start()
        try:
            res = puda_run(problem, puda_nids(one_round(mixing)), alpha, 50, reference)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.iterations == 50
        assert peak < n * n * 8, f"peak {peak / 2**20:.2f} MiB"

    def test_mgskip_p1_preset_matches_skipper(self, bench):
        alpha = bench.alpha
        cfg = RunConfig(alpha=alpha, p=1.0, T=300, tol=0.0, seed=0)
        skipper = mg_skip_run(bench.problem, bench.gossip, cfg, bench.reference)
        engine = puda_run(
            bench.problem,
            puda_mgskip_p1(bench.gossip),
            alpha,
            300,
            bench.reference,
        )
        assert np.abs(skipper.rel_err - engine.rel_err).max() <= 1e-12
        assert np.abs(skipper.state.x - engine.state.x).max() <= 1e-12
        assert np.array_equal(skipper.comm_rounds, engine.comm_rounds)
        assert np.array_equal(skipper.grad_evals, engine.grad_evals)

    def test_skip1_preset_diverges_from_multi_round(self, bench):
        alpha = bench.alpha
        a = puda_run(
            bench.problem, puda_mgskip_p1(bench.gossip), alpha, 150, bench.reference
        )
        single = MultiGossipOperator(mixing=bench.mixing, K=1, eta=0.0)
        b = puda_run(bench.problem, puda_mgskip_p1(single), alpha, 150, bench.reference)
        assert np.abs(a.rel_err - b.rel_err).max() > 1e-3

    def test_divergence_carries_partial_trace(self):
        """Losses of curvature 9 that declare L = 1: alpha = 1 passes the entry
        check and the iterates overflow.  The run ends in its DivergenceError,
        with no numpy warning on the way."""
        losses = tuple(
            QuadraticLoss(a=3.0 * np.eye(3), b=np.full(3, i + 1.0), mu=1.0, lsmooth=1.0)
            for i in range(6)
        )
        problem = ProblemInstance(losses=losses, reg=L1Reg(), dim=3)
        cfg = puda_nids(one_round(metropolis_weights(build_ring(6))))
        with pytest.raises(DivergenceError) as err:
            puda_run(problem, cfg, 1.0, 2000, np.ones(3))
        partial = err.value.result
        # the rows just before divergence may already have overflowed to inf
        assert partial is not None and partial.iterations > 0
        assert np.array_equal(partial.ts, np.arange(partial.iterations))
        assert (partial.thetas == 1).all()

    def test_stepsize_at_two_over_L_rejected_before_any_step(self, bench, monkeypatch):
        """The skipper's entry check: ``alpha * L < 2``, before any step."""

        def no_step(*args):
            pytest.fail("the engine stepped")

        monkeypatch.setattr(algorithms, "puda_step", no_step)
        with pytest.raises(ValueError, match=r"^alpha\*L = 2 must be < 2$"):
            puda_run(
                bench.problem, puda_nids(bench.gossip), 2.0 / bench.problem.L, 5, bench.reference
            )

    def test_node_count_mismatch_named(self, bench):
        problem = gen_least_squares(6, 3, 1.0, 4.0, seed=0)
        alpha = 1.0 / (5.0 * problem.L)
        with pytest.raises(ValueError, match="disagree on node count: 15 != 6"):
            puda_run(problem, puda_nids(bench.gossip), alpha, 5, np.zeros(3))

    @pytest.mark.parametrize("T", [0, -1])
    def test_horizon_below_one_rejected(self, bench, T):
        """As RunConfig does, the engine refuses a horizon with no iteration,
        whose empty trace has no last row to summarise."""
        with pytest.raises(ValueError, match="horizon must be >= 1"):
            puda_run(bench.problem, puda_nids(bench.gossip), bench.alpha, T, bench.reference)

    def test_engine_counters(self, bench):
        cfg = puda_mgskip_p1(bench.gossip)
        res = puda_run(bench.problem, cfg, bench.alpha, 2, bench.reference)
        assert res.comm_rounds.tolist() == [bench.gossip.K, 2 * bench.gossip.K]
        assert res.grad_evals.tolist() == [1, 2]
        names = ["x", "x_prev", "grad_prev", "hz_prev"]
        assert [f.name for f in fields(res.state)] == names

    def test_first_iterate_from_zero(self, bench):
        """From zero, the first step is ``x1 = prox(H z0)`` with ``z0 = -alpha grad F(0)``,
        and the prox input it keeps is ``H z0``."""
        gossip = one_round(bench.mixing)
        cfg = puda_nids(gossip)
        alpha = bench.alpha
        res = puda_run(bench.problem, cfg, alpha, 1, bench.reference)
        zero = np.zeros((15, 10))
        z0 = zero - alpha * bench.problem.gradient_stack(zero)
        hz0 = z0 - 0.5 * gossip.fast_goss(z0)
        assert np.array_equal(res.state.x, bench.problem.prox_stack(alpha, hz0))
        assert np.array_equal(res.state.hz_prev, hz0)
        # H through the operator is (I + W)/2 on the one-round operator
        half = 0.5 * (np.eye(15) + bench.mixing.w)
        assert np.abs(res.state.x - bench.problem.prox_stack(alpha, half @ z0)).max() <= 1e-14

    def test_divergence_at_first_iteration(self):
        problem = ProblemInstance(losses=tuple(TimeBomb(0) for _ in range(6)), reg=L1Reg(), dim=2)
        cfg = puda_nids(one_round(metropolis_weights(build_ring(6))))
        with pytest.raises(DivergenceError, match="t=0$") as err:
            puda_run(problem, cfg, 0.5, 3, np.ones(2))
        partial = err.value.result
        assert partial.iterations == 0
        assert np.isfinite(partial.state.x).all()

    def test_nids_matches_published_recursion(self):
        """On an L1 problem the ``C = H`` preset follows Li, Shi & Yan's
        ``w+ = w - x + H(2x - x_prev - alpha g + alpha g_prev)``, ``x+ = prox(w+)``,
        run here with a dense ``H = (I + W)/2``."""
        mixing = metropolis_weights(build_random_connectivity(10, 0.5, seed=4))
        problem = gen_least_squares(10, 6, 1.0, 8.0, seed=2, reg=L1Reg(weight=0.05))
        reference = centralized_solve(problem, tol=1e-13)
        alpha = 1.0 / problem.L
        res = puda_run(problem, puda_nids(one_round(mixing)), alpha, 100, reference)
        half = 0.5 * (np.eye(10) + mixing.w)
        x = x_prev = g_prev = w = np.zeros((10, 6))
        for _ in range(100):
            g = problem.gradient_stack(x)
            w = w - x + half @ (2 * x - x_prev - alpha * g + alpha * g_prev)
            x, x_prev, g_prev = problem.prox_stack(alpha, w), x, g
        assert np.abs(res.state.x - x).max() <= 1e-12
        assert np.abs(res.state.hz_prev - w).max() <= 1e-12

    @pytest.mark.parametrize("scale, iterations", [(5.0, 637), (1.0, 504)])
    def test_nids_iterations_on_ring15(self, bench, scale, iterations):
        """NIDS on ring-15 reaches 1e-7 in 637 iterations at alpha = 1/(5L) and
        504 at alpha = 1/L, one round each."""
        alpha = 1.0 / (scale * bench.problem.L)
        cfg = puda_nids(one_round(bench.mixing))
        res = puda_run(bench.problem, cfg, alpha, 5000, bench.reference, tol=1e-7)
        assert res.stopped and res.iterations == iterations
        assert res.comm_rounds[-1] == iterations

    def test_l1_instance_engine_equivalence(self):
        mixing = metropolis_weights(build_random_connectivity(10, 0.5, seed=4))
        gossip = MultiGossipOperator.from_mixing(mixing)
        problem = gen_least_squares(10, 6, 1.0, 8.0, seed=2, reg=L1Reg(weight=0.05))
        reference = centralized_solve(problem, tol=1e-13)
        alpha = 1.0 / (5.0 * problem.L)
        cfg = RunConfig(alpha=alpha, p=1.0, T=200, tol=0.0, seed=1)
        skipper = mg_skip_run(problem, gossip, cfg, reference)
        engine = puda_run(problem, puda_mgskip_p1(gossip), alpha, 200, reference)
        assert np.abs(skipper.rel_err - engine.rel_err).max() <= 1e-12


class TestConcurrentRuns:
    def test_shared_readonly_state_across_threads(self, bench):
        """Problem/gossip/topology objects are shared read-only by runs."""
        from concurrent.futures import ThreadPoolExecutor

        def run(seed):
            cfg = RunConfig(alpha=bench.alpha, p=0.5, T=120, tol=0.0, seed=seed)
            return mg_skip_run(bench.problem, bench.gossip, cfg, bench.reference)

        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(run, range(8)))
        serial = [run(seed) for seed in range(8)]
        for a, b in zip(threaded, serial):
            assert np.array_equal(a.rel_err, b.rel_err)
            assert np.array_equal(a.state.x, b.state.x)

    def test_iterations_constant_down_to_p02(self, bench):
        counts = []
        for pval in (1.0, 0.5, 0.2):
            cfg = RunConfig(alpha=bench.alpha, p=pval, T=5000, tol=1e-7, seed=3)
            res = mg_skip_run(bench.problem, bench.gossip, cfg, bench.reference)
            assert res.stopped
            counts.append(res.iterations)
        assert max(counts) / min(counts) <= 1.05


class TestEnvelope:
    def test_complete_graph_p1_monotone_window(self):
        mixing = metropolis_weights(build_random_connectivity(5, 1.0, seed=0))
        gossip = MultiGossipOperator.from_mixing(mixing)  # K = 1
        problem = gen_least_squares(5, 4, 1.0, 5.0, seed=7)
        reference = centralized_solve(problem, tol=1e-13)
        cfg = RunConfig(alpha=1.0 / (5 * problem.L), p=1.0, T=200, tol=0.0, seed=0)
        res = mg_skip_run(problem, gossip, cfg, reference)
        assert (res.thetas == 1).all()
        assert (np.diff(res.rel_err) <= 1e-15).all()

    def test_mean_squared_error_under_zeta_envelope(self, bench):
        """E||X^t - X*||^2 <= zeta^t Psi^0, sampled over 20 seeds + 10% slack."""
        cfg0 = RunConfig(alpha=bench.alpha, p=0.5, T=700, tol=0.0, seed=0)
        zeta = contraction_factor(cfg0.alpha, cfg0.p, bench.problem.mu, bench.problem.L)
        traces = []
        for seed in range(20):
            cfg = RunConfig(alpha=bench.alpha, p=0.5, T=700, tol=0.0, seed=seed)
            traces.append(
                mg_skip_run(
                    bench.problem, bench.gossip, cfg, bench.reference, diagnostics=True
                )
            )
        psi0 = traces[0].psi0
        assert all(tr.psi0 == psi0 for tr in traces)  # same instance, same start
        norm_sq = np.linalg.norm(np.tile(bench.reference.xstar, (15, 1))) ** 2
        c = psi0 / norm_sq
        t = np.arange(1, 701)
        mean_rel_sq = np.mean([tr.rel_err**2 for tr in traces], axis=0)
        envelope = 1.10 * c * zeta**t
        assert (mean_rel_sq <= envelope).all()
        # the Lyapunov value itself obeys the same envelope
        mean_psi = np.mean([tr.psi for tr in traces], axis=0)
        assert (mean_psi <= 1.10 * psi0 * zeta**t).all()


class TestDualFixedPoint:
    def test_columns_sum_to_zero(self, bench):
        assert np.abs(bench.ystar.sum(axis=0)).max() <= 1e-12

    def test_logistic_instance_fixed_point(self):
        problem = gen_logistic(6, 5, 40, gamma1=0.05, gamma2=0.01, seed=3)
        mixing = metropolis_weights(build_ring(6))
        gossip = MultiGossipOperator.from_mixing(mixing)
        reference = centralized_solve(problem, tol=1e-13)
        res = fixed_point_residual(reference, problem, gossip, 1.0 / problem.L)
        assert res <= 1e-8
