"""Losses, regularizers, generators, flooding, and the reference solver."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

import gossipskip.problems as problems
from gossipskip import (
    CentralizedSolveError,
    Graph,
    L1Reg,
    LogisticLoss,
    ProblemInstance,
    QuadraticLoss,
    RunConfig,
    build_ring,
    centralized_solve,
    flood_constants,
    gen_least_squares,
    gen_logistic,
    l1_prox,
    load_libsvm,
    logistic_from_parts,
    metropolis_weights,
    mg_skip_run,
)


# SHA-256 of gen_least_squares(n, d, ...) over seeds 0-2: each seed's stacked
# a and b, then its stack's grams and atbs (mu = 0.5, lsmooth = 9, or 2 and 2 at d = 1)
LS_PINS = {
    (1, 1): "5fc582583200b825421320db11f55adaaecb551235cfc5b8e7fb1feae6f4f7b3",
    (1, 2): "94669b3b94990e0b9045c1c19910e424221a34082b90281479ed859790c24d5c",
    (1, 3): "01ae17256fcc50ee3bd4266c410a43f3b3aca0bc67595656b44fb795a7ebbebe",
    (1, 10): "8d87f652ee94ef6d18ebec12e2864abb0fae8b5bb94743891eb3be2eef60d064",
    (1, 22): "9f8410512a85d82108e57473e23a0bc58b9a02843fe07626532587886a79fe84",
    (2, 1): "ff9ddf5945f294d197a0febcdd3acb9cac13f57d9a2aabd989d80e6c58fb9723",
    (2, 2): "7d1030d5e0ce00e6424cf3ec0f1c37b52b26457dbb71ea7ad37acd290708df75",
    (2, 3): "2e789628a121a4990efa433f8ff52e46418f72d99e0449f98b12f99ddb9307fc",
    (2, 10): "33ea317158023f848c3cb2a0b20c7b818fae12b5e4921763da14bad5533fc03f",
    (2, 22): "e793fe5cfc0592c6115018372be04ffe700acb8df6c52c2ee6cfffccbfb5b23a",
    (15, 1): "9f01f84c819a57703d19a29b55e49d3869cd18e0564a845252d7f3dbd1a8cf82",
    (15, 2): "e9e17462f8aafa889ff4a5c5c8eeda9f67c74bcc4436aaa67c91f44741fba009",
    (15, 3): "2afc0915243865b9858eababb0fc31fb6e020341b69298f43350316f0b9ef4fb",
    (15, 10): "4f59e4850394ccecb303c5fb493f9b838693a91511dec696cc9552e825f5c38a",
    (15, 22): "daa045e38eb6826950e1c936a452fec93f33ff26e9a623714bd6b311dd0ae5a3",
    (400, 1): "853f2247aae6921351e990d9fa0360c73a613651a716f05846849d8ce5ad55c1",
    (400, 2): "123a4dae83fd23a9b3215bd8c5ba5b0fc232beefd82bafe7f19f663611eb671b",
    (400, 3): "15736f41c2a1aacc94e2a57e3eab7b88da9695484e90f7b032a5e703454d866e",
    (400, 10): "a37837ef81dccd516f8022fa1aa59609570dea837e269ab60c4d59bfaecd2960",
    (400, 22): "28efd4ff49c1d8da1814df532d610e693a792157668534410fe43355f5bd6925",
}

# SHA-256 of gen_logistic(n, 22, 100, 0.1, 0.001, ...) over seeds 0-1: each seed's
# stacked signed samples, counts and two_gamma1
LOGISTIC_PINS = {
    1: "b135597698fb631f71ff1d557606363716d024c102fba8e54fcd46261b27f811",
    20: "cc86c76b5a82a54b3ac166ab1d32c41c431b5b79f35a5d68b798bc67eb684de5",
}


def fd_gradient(f, x, h=1e-6):
    """Central finite differences."""
    g = np.zeros_like(x)
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = h
        g[k] = (f(x + e) - f(x - e)) / (2 * h)
    return g


class TestGenLeastSquares:
    def test_eigenvalue_pinning(self):
        p = gen_least_squares(8, 6, mu=0.7, lsmooth=5.0, seed=3)
        for loss in p.losses:
            eigs = np.linalg.eigvalsh(loss.a.T @ loss.a)
            assert eigs[0] == pytest.approx(0.7, abs=1e-10)
            assert eigs[-1] == pytest.approx(5.0, abs=1e-10)
        assert p.kappa == pytest.approx(5.0 / 0.7)

    def test_isometry_case(self):
        p = gen_least_squares(1, 2, mu=1.0, lsmooth=1.0, seed=0)
        loss = p.losses[0]
        assert np.allclose(loss.a.T @ loss.a, np.eye(2), atol=1e-12)
        preimage = np.linalg.solve(loss.a, loss.b)
        assert np.linalg.norm(loss.gradient(preimage)) <= 1e-12

    def test_deterministic(self):
        a = gen_least_squares(4, 5, 1.0, 3.0, seed=9)
        b = gen_least_squares(4, 5, 1.0, 3.0, seed=9)
        for la, lb in zip(a.losses, b.losses):
            assert np.array_equal(la.a, lb.a) and np.array_equal(la.b, lb.b)

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            gen_least_squares(3, 4, mu=0.0, lsmooth=1.0, seed=0)
        with pytest.raises(ValueError):
            gen_least_squares(3, 4, mu=2.0, lsmooth=1.0, seed=0)

    def test_one_dimensional_needs_equal_moduli(self):
        with pytest.raises(ValueError, match="d = 1"):
            gen_least_squares(2, 1, mu=1.0, lsmooth=2.0, seed=0)
        p = gen_least_squares(2, 1, mu=2.0, lsmooth=2.0, seed=0)
        assert p.kappa == 1.0

    def test_gradient_matches_finite_differences(self):
        p = gen_least_squares(3, 4, 0.5, 4.0, seed=2)
        rng = np.random.default_rng(7)
        for loss in p.losses:
            for _ in range(4):
                x = rng.standard_normal(4)
                g = loss.gradient(x)
                fd = fd_gradient(loss.value, x)
                assert np.linalg.norm(g - fd) <= 1e-5 * max(1.0, np.linalg.norm(g))

    @pytest.mark.parametrize("d", [1, 2, 10, 22])
    def test_stacked_build_matches_per_node_build(self, d):
        """One batched QR over every node's draws gives each node the matrix, the
        target and the Gram data its own QR and scaling give, bit for bit."""
        n, seed = 7, 5
        mu, lsmooth = (2.0, 2.0) if d == 1 else (0.5, 9.0)
        rng = np.random.default_rng(np.random.SeedSequence([seed, problems._LS_STREAM]))
        for loss in gen_least_squares(n, d, mu, lsmooth, seed).losses:
            q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            if d == 1:
                evals = np.array([lsmooth])
            else:
                mids = np.exp(rng.uniform(np.log(mu), np.log(lsmooth), d - 2))
                evals = np.concatenate(([lsmooth], np.sort(mids)[::-1], [mu]))
            a = q * np.sqrt(evals)
            b = rng.standard_normal(d)
            assert np.array_equal(loss.a, a) and np.array_equal(loss.b, b)
            assert np.array_equal(loss._gram, a.T @ a) and np.array_equal(loss._atb, a.T @ b)

    @pytest.mark.parametrize("n, d", LS_PINS)
    def test_pinned_bytes(self, n, d):
        """A rebuilt generator or stack must keep every draw, matrix and Gram to the bit."""
        mu, lsmooth = (2.0, 2.0) if d == 1 else (0.5, 9.0)
        digest = hashlib.sha256()
        for seed in range(3):
            p = gen_least_squares(n, d, mu, lsmooth, seed)
            digest.update(np.stack([f.a for f in p.losses]).tobytes())
            digest.update(np.stack([f.b for f in p.losses]).tobytes())
            digest.update(p._stack.grams.tobytes())
            digest.update(p._stack.atbs.tobytes())
        assert digest.hexdigest() == LS_PINS[n, d]

    def test_no_per_loss_gram_on_the_hot_path(self, bench):
        """The reference solve and a run use the stacked Grams only: no loss
        forms its own."""
        for reg in (L1Reg(), L1Reg(0.05)):
            p = gen_least_squares(15, 10, 1.0, bench.kappa, seed=1, reg=reg)
            ref = centralized_solve(p, tol=1e-13)
            mg_skip_run(p, bench.gossip, RunConfig(alpha=1.0 / (5.0 * p.L), p=0.5, T=20), ref)
            assert not any("_gram" in vars(f) or "_atb" in vars(f) for f in p.losses)

    def test_moduli_hold_on_sampled_pairs(self):
        p = gen_least_squares(3, 5, 0.8, 6.0, seed=4)
        rng = np.random.default_rng(1)
        for loss in p.losses:
            for _ in range(10):
                x, y = rng.standard_normal((2, 5))
                dg = loss.gradient(x) - loss.gradient(y)
                dx = x - y
                assert dg @ dx >= 0.8 * (dx @ dx) - 1e-9
                assert np.linalg.norm(dg) <= 6.0 * np.linalg.norm(dx) + 1e-9


class TestLogistic:
    def test_requires_positive_gamma1(self):
        with pytest.raises(ValueError):
            gen_logistic(3, 4, 10, gamma1=0.0, gamma2=0.0, seed=0)

    def test_requires_nonnegative_gamma2(self):
        with pytest.raises(ValueError, match="gamma2 must be nonnegative, got -0.1"):
            gen_logistic(3, 4, 10, gamma1=0.1, gamma2=-0.1, seed=0)

    def test_parts_require_nonnegative_gamma2(self):
        """Partitioned data is held to gen_logistic's rule: a negative L1 weight
        is an error, not a silently dropped regularizer."""
        parts = [(np.ones((2, 3)), np.ones(2))]
        with pytest.raises(ValueError, match="gamma2 must be nonnegative, got -0.5"):
            logistic_from_parts(parts, 0.1, -0.5)

    def test_loss_checks_gamma1_and_labels(self):
        feats = np.ones((2, 3))
        with pytest.raises(ValueError, match="gamma1 must be positive"):
            LogisticLoss(features=feats, labels=np.ones(2), gamma1=0.0)
        for labels in ([1.0, 0.0], [-1.0, np.nan]):
            with pytest.raises(ValueError, match="labels must be in"):
                LogisticLoss(features=feats, labels=np.array(labels), gamma1=0.1)

    @pytest.mark.parametrize("n", LOGISTIC_PINS)
    def test_pinned_bytes(self, n):
        digest = hashlib.sha256()
        for seed in range(2):
            stack = gen_logistic(n, 22, 100, gamma1=0.1, gamma2=0.001, seed=seed)._stack
            for arr in (stack.signed, stack.counts, stack.two_gamma1):
                digest.update(arr.tobytes())
        assert digest.hexdigest() == LOGISTIC_PINS[n]

    def test_zero_features_reduce_to_ridge(self):
        loss = LogisticLoss(
            features=np.zeros((5, 3)), labels=np.ones(5), gamma1=0.01
        )
        x = np.array([1.0, -2.0, 0.5])
        assert np.allclose(loss.gradient(x), 0.02 * x, atol=1e-15)

    def test_gradient_matches_finite_differences(self):
        p = gen_logistic(2, 4, 30, gamma1=0.01, gamma2=0.001, seed=5)
        rng = np.random.default_rng(11)
        for loss in p.losses:
            for _ in range(5):
                x = rng.standard_normal(4)
                g = loss.gradient(x)
                fd = fd_gradient(loss.value, x)
                assert np.linalg.norm(g - fd) <= 1e-5 * max(1.0, np.linalg.norm(g))

    def test_smoothness_bound_certified(self):
        p = gen_logistic(2, 6, 40, gamma1=0.02, gamma2=0.0, seed=8)
        rng = np.random.default_rng(3)
        for loss in p.losses:
            assert loss.mu == pytest.approx(0.04)
            for _ in range(20):
                x, y = rng.standard_normal((2, 6))
                dg = np.linalg.norm(loss.gradient(x) - loss.gradient(y))
                assert dg <= loss.lsmooth * np.linalg.norm(x - y) + 1e-12

    def test_paper_shape_constants(self):
        p = gen_logistic(5, 22, 50, gamma1=0.01, gamma2=0.001, seed=0)
        assert p.dim == 22
        assert p.mu == pytest.approx(0.02)
        assert isinstance(p.reg, L1Reg) and p.reg.weight == 0.001


class TestL1Prox:
    def test_zero_weight_is_identity(self):
        y = np.array([0.3, -2.0, 1.5])
        assert np.array_equal(l1_prox(1.0, 0.0, y), y)

    def test_closed_form_example(self):
        assert np.allclose(l1_prox(1.0, 1.0, np.array([2.0, -0.5])), [1.0, 0.0])

    def test_grid_oracle_1d(self):
        rng = np.random.default_rng(21)
        grid = np.arange(-4.0, 4.0, 1e-4)
        for _ in range(20):
            alpha = float(rng.uniform(0.05, 2.0))
            y = float(rng.uniform(-3.0, 3.0))
            objective = alpha * np.abs(grid) + 0.5 * (grid - y) ** 2
            best = grid[np.argmin(objective)]
            ours = l1_prox(alpha, 1.0, np.array([y]))[0]
            assert abs(ours - best) <= 1e-4

    def test_grid_oracle_2d_separable(self):
        reg = L1Reg(weight=0.7)
        axis = np.arange(-3.0, 3.0, 2e-3)
        gx, gy = np.meshgrid(axis, axis, indexing="ij")
        y = np.array([1.234, -0.456])
        alpha = 0.9
        objective = (
            alpha * 0.7 * (np.abs(gx) + np.abs(gy))
            + 0.5 * ((gx - y[0]) ** 2 + (gy - y[1]) ** 2)
        )
        idx = np.unravel_index(np.argmin(objective), objective.shape)
        brute = np.array([axis[idx[0]], axis[idx[1]]])
        assert np.linalg.norm(reg.prox(alpha, y) - brute) <= 4e-3

    def test_firmly_nonexpansive_samples(self):
        reg = L1Reg(weight=1.3)
        rng = np.random.default_rng(2)
        for _ in range(50):
            y, z = rng.standard_normal((2, 6))
            assert np.linalg.norm(reg.prox(0.5, y) - reg.prox(0.5, z)) <= np.linalg.norm(y - z) + 1e-15

    def test_in_place_thresholding_is_the_expression(self):
        y = np.random.default_rng(6).standard_normal((15, 10))
        y[0, :3] = [0.0, -0.0, 0.4]
        before = y.copy()
        want = np.sign(y) * np.maximum(np.abs(y) - 0.8 * 0.5, 0.0)
        assert np.array_equal(l1_prox(0.8, 0.5, y), want)
        assert np.array_equal(y, before)

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            l1_prox(0.0, 1.0, np.zeros(2))
        with pytest.raises(ValueError):
            l1_prox(1.0, -1.0, np.zeros(2))


class TestLibsvm:
    def write(self, tmp_path, text):
        path = tmp_path / "data.txt"
        path.write_text(text)
        return path

    def test_basic_line(self, tmp_path):
        path = self.write(tmp_path, "+1 3:0.5 7:-1.2\n-1 1:2.0\n")
        parts = load_libsvm(path, n=1, seed=0)
        feats, labels = parts[0]
        assert feats.shape == (2, 7)
        assert set(labels) == {-1.0, 1.0}
        row = feats[list(labels).index(1.0)]
        assert row[2] == 0.5 and row[6] == -1.2

    def test_two_lines_two_nodes(self, tmp_path):
        path = self.write(tmp_path, "+1 1:1.0\n-1 2:1.0\n")
        parts = load_libsvm(path, n=2, seed=0)
        assert len(parts) == 2
        assert all(f.shape[0] == 1 for f, _ in parts)

    def test_zero_one_labels_remapped(self, tmp_path):
        path = self.write(tmp_path, "1 1:1.0\n0 2:1.0\n")
        parts = load_libsvm(path, n=1, seed=0)
        assert set(parts[0][1]) == {-1.0, 1.0}

    def test_unsupported_label(self, tmp_path):
        path = self.write(tmp_path, "2 1:1.0\n1 2:1.0\n")
        with pytest.raises(ValueError, match="unsupported labels"):
            load_libsvm(path, n=1, seed=0)

    def test_malformed_feature_reports_line(self, tmp_path):
        path = self.write(tmp_path, "+1 1:1.0\n-1 oops\n")
        with pytest.raises(ValueError, match="line 2"):
            load_libsvm(path, n=1, seed=0)

    def test_empty_file(self, tmp_path):
        path = self.write(tmp_path, "\n")
        with pytest.raises(ValueError, match="no samples"):
            load_libsvm(path, n=1, seed=0)

    @pytest.mark.parametrize(
        "text, n, message",
        [
            ("+1 1:1.0\nyes 2:1.0\n", 1, "line 2: bad label 'yes'"),
            ("+1 1:1.0\n-1 0:1.0\n", 1, "line 2: indices are 1-based, got 0"),
            # a repeat would keep one of the two values, silently
            ("+1 1:0.5 1:0.7 2:1\n", 1, "^line 1: repeated feature index 1$"),
            ("+1 1:1.0\n-1 2:1.0\n", 3, "cannot split 2 samples across 3 nodes"),
            # a non-finite feature would make L infinite and the stepsize 0
            *(
                (f"+1 1:1.0\n-1 2:{value}\n", 1, f"^line 2: bad feature '2:{value}'$")
                for value in ("nan", "inf", "-inf", "1e400")
            ),
        ],
        ids=[
            "bad-label", "zero-index", "repeated-index", "fewer-samples-than-nodes",
            "nan", "inf", "-inf", "1e400",
        ],
    )
    def test_rejected(self, tmp_path, text, n, message):
        path = self.write(tmp_path, text)
        with pytest.raises(ValueError, match=message):
            load_libsvm(path, n=n, seed=0)

    def test_partition_deterministic_and_balanced(self, tmp_path):
        lines = [f"{'+1' if i % 2 else '-1'} 1:{i}.0 4:1.0" for i in range(10)]
        path = self.write(tmp_path, "\n".join(lines) + "\n")
        a = load_libsvm(path, n=3, seed=5)
        b = load_libsvm(path, n=3, seed=5)
        for (fa, ya), (fb, yb) in zip(a, b):
            assert np.array_equal(fa, fb) and np.array_equal(ya, yb)
        sizes = [f.shape[0] for f, _ in a]
        assert sum(sizes) == 10 and max(sizes) - min(sizes) <= 1

    def test_wrapped_as_instance(self, tmp_path):
        path = self.write(tmp_path, "+1 1:1.0 2:-1.0\n-1 2:0.5\n+1 1:0.1\n")
        parts = load_libsvm(path, n=3, seed=0)
        p = logistic_from_parts(parts, gamma1=0.01, gamma2=0.001)
        assert p.n == 3 and p.dim == 2


class TestFlooding:
    def test_constant_field(self):
        g = build_ring(4)
        out = flood_constants(g, [(1.0, 1.0)] * 4)
        assert out == (1.0, 1.0, 1.0)

    def test_ring3_hand_example(self):
        g = build_ring(3)
        out = flood_constants(g, [(1.0, 0.1), (5.0, 0.5), (2.0, 0.2)])
        assert out == (5.0, 0.1, 50.0)

    def test_single_node(self):
        g = Graph(n=1, edges=())
        assert flood_constants(g, [(3.0, 1.5)]) == (3.0, 1.5, 2.0)

    def test_matches_global_oracle_random(self):
        rng = np.random.default_rng(17)
        g = build_ring(9)
        for _ in range(50):
            pairs = [
                (float(rng.uniform(1.0, 10.0)), float(rng.uniform(0.01, 1.0)))
                for _ in range(9)
            ]
            L, mu, kappa = flood_constants(g, pairs)
            assert L == max(l for l, _ in pairs)
            assert mu == min(m for _, m in pairs)
            assert kappa == pytest.approx(L / mu)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            flood_constants(build_ring(3), [(1.0, 1.0)])


class TestCentralizedSolve:
    def test_single_quadratic(self):
        c = np.array([2.0, -1.0])
        loss = QuadraticLoss(a=np.eye(2), b=c, mu=1.0, lsmooth=1.0)
        p = ProblemInstance(losses=(loss,), reg=L1Reg(), dim=2)
        ref = centralized_solve(p, tol=1e-14)
        assert np.linalg.norm(ref.xstar - c) <= 1e-13

    def test_direct_solve_refuses_what_it_cannot_certify(self):
        p = gen_least_squares(4, 3, 1.0, 4.0, seed=0)
        with pytest.raises(CentralizedSolveError, match="does not certify 1e-20") as err:
            centralized_solve(p, tol=1e-20)
        best = err.value.best
        assert best.iterations == 0 and best.error_bound > 1e-20 * np.linalg.norm(best.xstar)

    def test_l1_quadratic_closed_form(self):
        # 0.5 (x-2)^2 + |x|  ->  x* = 1
        loss = QuadraticLoss(a=np.eye(1), b=np.array([2.0]), mu=1.0, lsmooth=1.0)
        p = ProblemInstance(losses=(loss,), reg=L1Reg(weight=1.0), dim=1)
        ref = centralized_solve(p, tol=1e-13)
        assert ref.xstar[0] == pytest.approx(1.0, abs=1e-12)
        grid = np.arange(-1.0, 3.0, 1e-5)
        brute = grid[np.argmin(0.5 * (grid - 2.0) ** 2 + np.abs(grid))]
        assert abs(ref.xstar[0] - brute) <= 1e-5

    def test_residual_certified_independently(self, bench):
        ref = bench.reference
        p = bench.problem
        alpha = 1.0 / p.L
        step = p.reg.prox(alpha, ref.xstar - alpha * p.gradient_average(ref.xstar))
        assert np.linalg.norm(ref.xstar - step) <= 1e-12 * max(
            1.0, np.linalg.norm(ref.xstar)
        )

    def test_iteration_cap_carries_best(self):
        # least squares with the zero regularizer is one direct solve, so the
        # cap is exercised on an L1 problem, which iterates
        p = gen_least_squares(4, 6, 1.0, 50.0, seed=0, reg=L1Reg(weight=0.1))
        with pytest.raises(CentralizedSolveError) as err:
            centralized_solve(p, tol=1e-14, max_iter=3)
        assert err.value.best.iterations == 3
        assert err.value.best.xstar.shape == (6,)

    def test_ring400_half_over_gap_matches_lstsq(self):
        """Ring-400 least squares at kappa = 0.5/(1-rho) ~ 6,079 (``configs/ring15.cfg``
        with ``graph.n = 400``): the direct solve agrees with least squares on the
        stacked ``A_i, b_i`` and zeroes the gradient to rounding.  Proximal gradient
        stopped on its residual was 4.6e-8 off here after 99,254 iterations."""
        mixing = metropolis_weights(build_ring(400))
        p = gen_least_squares(400, 10, 1.0, 0.5 / (1.0 - mixing.rho), seed=1)
        ref = centralized_solve(p, tol=1e-13)
        a = np.vstack([f.a for f in p.losses])
        b = np.concatenate([f.b for f in p.losses])
        want = np.linalg.lstsq(a, b, rcond=None)[0]
        assert np.linalg.norm(ref.xstar - want) <= 1e-10 * np.linalg.norm(want)
        assert np.linalg.norm(p.gradient_average(ref.xstar)) <= 1e-12 * p.L * np.linalg.norm(
            ref.xstar
        )
        assert ref.iterations == 0
        assert ref.relative_error_bound <= 1e-3 * 1e-7

    @staticmethod
    def diagonal_l1_instance(seed):
        """Diagonal ``A_i``, so ``F = 0.5 x^T D x - c^T x + w ||x||_1`` with
        ``D = mean A_i^2`` and ``c = mean A_i b_i``; returns it with its
        closed-form minimizer ``soft(c, w) / D``."""
        rng = np.random.default_rng(seed)
        n, d = 5, 8
        kappa = 10.0 ** rng.uniform(1.0, 3.0)
        diags = np.sqrt(np.exp(rng.uniform(0.0, np.log(kappa), (n, d))))
        targets = rng.standard_normal((n, d))
        losses = tuple(
            QuadraticLoss(
                a=np.diag(s), b=t, mu=float((s**2).min()), lsmooth=float((s**2).max())
            )
            for s, t in zip(diags, targets)
        )
        c = (diags * targets).mean(axis=0)
        weight = float(np.median(np.abs(c)))
        p = ProblemInstance(losses=losses, reg=L1Reg(weight=weight), dim=d)
        xstar = l1_prox(1.0, weight, c) / (diags**2).mean(axis=0)
        return p, xstar

    @pytest.mark.parametrize("seed", range(10))
    def test_error_bound_holds_at_every_truncation(self, seed):
        p, xstar = self.diagonal_l1_instance(seed)
        assert np.count_nonzero(xstar) < p.dim  # the L1 term zeroes coordinates
        for max_iter in (1, 2, 5, 20):
            try:
                ref = centralized_solve(p, tol=1e-13, max_iter=max_iter)
            except CentralizedSolveError as err:
                ref = err.best
            assert ref.error_bound >= np.linalg.norm(ref.xstar - xstar), max_iter
        ref = centralized_solve(p, tol=1e-13)
        assert np.linalg.norm(ref.xstar - xstar) <= ref.error_bound + 1e-15
        assert ref.error_bound <= 1e-13 * np.linalg.norm(ref.xstar)

    def test_accelerated_on_ill_conditioned_logistic(self):
        """kappa ~ 2,846: restarted FISTA certifies 1e-13 within O(sqrt(kappa))
        iterations; proximal gradient would need O(kappa log(1/tol))."""
        p = gen_logistic(20, 22, 100, gamma1=0.001, gamma2=0.001, seed=1)
        assert 2800.0 < p.kappa < 2900.0
        ref = centralized_solve(p, tol=1e-13)
        assert ref.iterations <= 1000
        assert ref.error_bound <= 1e-13 * np.linalg.norm(ref.xstar)

    @staticmethod
    def logistic_random(seed=1):
        """The benchmark's ``logistic-random`` problem at problem seed ``seed``."""
        return gen_logistic(20, 22, 100, gamma1=0.1, gamma2=0.001, seed=seed)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_newton_polish_certifies_logistic_random(self, seed):
        """FISTA alone took 110, 126 and 127 iterations to a bound of 9.6e-14,
        6.9e-14 and 3.3e-14; the polish certifies about 10x lower in under half."""
        ref = centralized_solve(self.logistic_random(seed), tol=1e-13)
        assert ref.iterations <= 60
        assert ref.relative_error_bound <= 1e-14

    def test_newton_polish_on_ill_conditioned_logistic(self):
        """The kappa ~ 2,846 instance above: 699 FISTA iterations alone."""
        p = gen_logistic(20, 22, 100, gamma1=0.001, gamma2=0.001, seed=1)
        ref = centralized_solve(p, tol=1e-13)
        assert ref.iterations <= 300
        assert ref.error_bound <= 1e-13 * np.linalg.norm(ref.xstar)

    def test_newton_polish_on_l1_least_squares(self):
        """Ring-15 least squares at kappa = 0.5/(1-rho) with an L1 weight of
        0.05: FISTA alone took 90 iterations."""
        mixing = metropolis_weights(build_ring(15))
        p = gen_least_squares(15, 10, 1.0, 0.5 / (1.0 - mixing.rho), seed=1, reg=L1Reg(0.05))
        ref = centralized_solve(p, tol=1e-13)
        assert ref.iterations <= 45
        assert ref.error_bound <= 1e-13 * np.linalg.norm(ref.xstar)

    def test_failed_polish_returns_fistas_answer(self, monkeypatch):
        """A Hessian a million times too small makes every Newton step
        overshoot; FISTA then resumes untouched and returns, bit for bit, what
        it returns with no polish, six Newton steps later in the count."""
        p = self.logistic_random()
        monkeypatch.setattr(problems, "_POLISH_AT", 0.0)
        fista = centralized_solve(p, tol=1e-13)
        monkeypatch.undo()
        monkeypatch.setattr(
            problems._LogisticStack,
            "support_hessian",
            lambda self, x, support: 1e-6 * np.eye(support.size),
        )
        ref = centralized_solve(p, tol=1e-13)
        assert np.array_equal(ref.xstar, fista.xstar)
        assert ref.error_bound == fista.error_bound
        assert ref.iterations == fista.iterations + problems._POLISH_STEPS

    def test_support_above_the_cap_runs_fista_only(self, monkeypatch):
        p = self.logistic_random()
        monkeypatch.setattr(problems, "_POLISH_AT", 0.0)
        fista = centralized_solve(p, tol=1e-13)
        monkeypatch.undo()
        size = np.count_nonzero(fista.xstar)
        monkeypatch.setattr(problems, "_POLISH_MAX_SUPPORT", size - 1)
        capped = centralized_solve(p, tol=1e-13)
        assert np.array_equal(capped.xstar, fista.xstar)
        assert (capped.error_bound, capped.iterations) == (fista.error_bound, fista.iterations)
        monkeypatch.setattr(problems, "_POLISH_MAX_SUPPORT", size)
        assert centralized_solve(p, tol=1e-13).iterations < fista.iterations

    def test_relative_bound_falls_back_to_absolute_at_zero(self):
        # an L1 weight above every |c_j| puts x* at the origin
        loss = QuadraticLoss(a=np.eye(2), b=np.array([0.5, -0.3]), mu=1.0, lsmooth=1.0)
        p = ProblemInstance(losses=(loss,), reg=L1Reg(weight=1.0), dim=2)
        ref = centralized_solve(p, tol=1e-13)
        assert not ref.xstar.any()
        assert ref.relative_error_bound == ref.error_bound == 0.0

    def test_bad_tolerance(self):
        p = gen_least_squares(2, 3, 1.0, 2.0, seed=0)
        with pytest.raises(ValueError):
            centralized_solve(p, tol=0.0)


class TestProblemInstance:
    def test_stacked_gradient_fast_path_matches_loop(self):
        p = gen_least_squares(5, 7, 1.0, 4.0, seed=12)
        rng = np.random.default_rng(0)
        xs = rng.standard_normal((5, 7))
        loop = np.stack([f.gradient(xs[i]) for i, f in enumerate(p.losses)])
        assert np.abs(p.gradient_stack(xs) - loop).max() <= 1e-14

    @staticmethod
    def logistic_instances():
        rng = np.random.default_rng(4)
        feats = rng.standard_normal((101, 6))
        labels = np.where(rng.standard_normal(101) >= 0.0, 1.0, -1.0)
        bounds = [0, 30, 55, 81, 101]  # 30, 25, 26 and 20 samples
        parts = [(feats[a:b], labels[a:b]) for a, b in zip(bounds, bounds[1:])]
        return [
            gen_logistic(20, 22, 100, gamma1=0.1, gamma2=0.001, seed=1),
            logistic_from_parts(parts, gamma1=0.05, gamma2=0.01),
        ]

    def test_stacked_logistic_gradient_matches_loop(self):
        rng = np.random.default_rng(0)
        for p in self.logistic_instances():
            for _ in range(5):
                xs = 3.0 * rng.standard_normal((p.n, p.dim))
                loop = np.stack([f.gradient(xs[i]) for i, f in enumerate(p.losses)])
                assert np.abs(p.gradient_stack(xs) - loop).max() <= 1e-14

    def test_stacked_quadratic_gradient_is_the_expression(self):
        p = gen_least_squares(5, 7, 1.0, 4.0, seed=12)
        xs = np.random.default_rng(2).standard_normal((5, 7))
        grams = np.stack([f._gram for f in p.losses])
        atbs = np.stack([f._atb for f in p.losses])
        assert np.array_equal(p.gradient_stack(xs), np.einsum("nij,nj->ni", grams, xs) - atbs)

    def test_quadratic_stack_takes_unequal_row_counts(self):
        """Nodes with different sample counts get each one's own Gram and ``A^T b``."""
        rng = np.random.default_rng(8)
        losses = []
        for m in (3, 5, 4):
            a = rng.standard_normal((m, 3))
            eigs = np.linalg.eigvalsh(a.T @ a)
            losses.append(
                QuadraticLoss(a=a, b=rng.standard_normal(m), mu=eigs[0], lsmooth=eigs[-1])
            )
        p = ProblemInstance(losses=tuple(losses), reg=L1Reg(), dim=3)
        for f, gram, atb in zip(p.losses, p._stack.grams, p._stack.atbs):
            assert np.array_equal(gram, f.a.T @ f.a) and np.array_equal(atb, f.a.T @ f.b)

    def test_signed_logistic_gradient_is_the_unsigned_expression(self):
        """Label-signed samples give the bits of the formula on the raw features
        and labels, ``(F @ x) * b`` and ``(w * b) @ F``, padding included."""
        rng = np.random.default_rng(5)
        for p in self.logistic_instances():
            counts = np.array([[len(f.labels)] for f in p.losses])
            feats = np.zeros((p.n, counts.max(), p.dim))
            labels = np.ones((p.n, counts.max()))
            for i, f in enumerate(p.losses):
                feats[i, : len(f.labels)] = f.features
                labels[i, : len(f.labels)] = f.labels
            two_gamma1 = np.array([[2.0 * f.gamma1] for f in p.losses])
            for scale in (0.0, 1.0, 30.0):
                xs = scale * rng.standard_normal((p.n, p.dim))
                margins = np.matmul(feats, xs[:, :, None])[:, :, 0] * labels
                weights = 0.5 * (1.0 + np.tanh(-0.5 * margins)) * labels
                sums = np.matmul(weights[:, None, :], feats)[:, 0, :]
                want = -(sums / counts) + two_gamma1 * xs
                assert np.array_equal(p.gradient_stack(xs), want)

    def test_support_hessian_is_the_per_node_hessian(self):
        """Each stack's support Hessian is the rows and columns ``S`` of the
        averaged loss's Hessian, built here one node and one sample at a time."""
        rng = np.random.default_rng(6)
        support = np.array([0, 2, 3, 5])
        ls = gen_least_squares(5, 7, 1.0, 4.0, seed=12)
        for p in [ls, *self.logistic_instances()]:
            x = rng.standard_normal(p.dim)
            hessians = []
            for f in p.losses:
                if isinstance(f, QuadraticLoss):
                    hessians.append(f.a.T @ f.a)
                    continue
                sig = 1.0 / (1.0 + np.exp(-(f.features @ x)))
                curv = (f.features.T * (sig * (1.0 - sig))) @ f.features / len(f.labels)
                hessians.append(curv + 2.0 * f.gamma1 * np.eye(p.dim))
            want = np.mean(hessians, axis=0)[np.ix_(support, support)]
            got = p._stack.support_hessian(x, support)
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_gradient_stack_returns_a_new_array(self):
        rng = np.random.default_rng(3)
        for p in [gen_least_squares(5, 7, 1.0, 4.0, seed=12), *self.logistic_instances()]:
            xs = rng.standard_normal((p.n, p.dim))
            first = p.gradient_stack(xs)
            first[...] = np.nan  # the caller owns it
            assert np.isfinite(p.gradient_stack(xs)).all()

    def test_gradient_average_is_mean_of_node_gradients(self):
        rng = np.random.default_rng(1)
        for p in [gen_least_squares(5, 7, 1.0, 4.0, seed=12), *self.logistic_instances()]:
            x = rng.standard_normal(p.dim)
            loop = np.mean([f.gradient(x) for f in p.losses], axis=0)
            assert np.abs(p.gradient_average(x) - loop).max() <= 1e-14

    def test_reference_matches_per_node_loop_solve(self):
        class PerNode:
            """Duck-typed loss, so the instance takes the per-node loop."""

            def __init__(self, loss):
                self.loss = loss
                self.dim, self.mu, self.lsmooth = loss.dim, loss.mu, loss.lsmooth

            def gradient(self, x):
                return self.loss.gradient(x)

        for p in self.logistic_instances():
            looped = ProblemInstance(
                losses=tuple(PerNode(f) for f in p.losses), reg=p.reg, dim=p.dim
            )
            assert looped._stack is None
            assert isinstance(p.reg, L1Reg)
            want = centralized_solve(looped).xstar
            got = centralized_solve(p).xstar
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_requires_losses_of_one_dimension(self):
        with pytest.raises(ValueError, match="at least one node loss"):
            ProblemInstance(losses=(), reg=L1Reg(), dim=2)
        losses = tuple(
            QuadraticLoss(a=np.eye(d), b=np.zeros(d), mu=1.0, lsmooth=1.0) for d in (2, 3)
        )
        with pytest.raises(ValueError, match="inconsistent loss dimensions"):
            ProblemInstance(losses=losses, reg=L1Reg(), dim=2)

    def test_requires_strong_convexity(self):
        loss = QuadraticLoss(a=np.zeros((2, 2)), b=np.zeros(2), mu=0.0, lsmooth=0.0)
        with pytest.raises(ValueError, match="strongly convex"):
            ProblemInstance(losses=(loss,), reg=L1Reg(), dim=2)
