"""Command-line interface: run experiments, verify diagnostics, inspect topologies."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .algorithms import (
    MGSkipState,
    RunConfig,
    check_contraction,
    coin_stream,
    dual_fixed_point,
    fixed_point_residual,
    mg_skip_step,
)
from .gossip import MultiGossipOperator, verify_prop1
from .harness import (
    GRAPH_KINDS,
    ExperimentSpec,
    build_gossip,
    build_graph,
    parse_config,
    reference_certifies,
    run_experiment,
    setup_experiment,
)
from .topology import metropolis_weights

__all__ = ["main"]


def _cmd_topology(args: argparse.Namespace) -> int:
    # argparse restricts --kind; the builders reject out-of-range --n and --iota
    try:
        graph = build_graph(vars(args))
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    gossip = MultiGossipOperator.from_mixing(metropolis_weights(graph))
    print(f"n = {graph.n}")
    print(f"edges = {graph.m}")
    print(f"rho = {gossip.mixing.rho:.6f}")
    print(f"K = {gossip.K}")
    print(f"eta = {gossip.eta:.6f}")
    return 0


def _print_means(summary: dict, final_err: bool) -> None:
    """One line per algorithm: mean iterations and communication to tolerance."""
    for name in sorted(summary["mean"]):
        m = summary["mean"][name]
        iters = m["iterations_to_tol"]
        comm = m["comm_to_tol"]
        line = (
            f"{name}: iters_to_tol={iters if iters is not None else '-'} "
            f"comm_to_tol={comm if comm is not None else '-'}"
        )
        if final_err:
            line += f" final_rel_err={m['final_rel_err']:.3e}"
        print(line)


def _cmd_run(args: argparse.Namespace, spec: ExperimentSpec, config_text: str) -> int:
    summary = run_experiment(spec, args.out, config_text=config_text)
    print(f"baseline: {summary['baseline']}")
    _print_means(summary, final_err=True)
    print(f"wrote traces to {args.out}")
    return 0


def _cmd_verify(args: argparse.Namespace, spec: ExperimentSpec, config_text: str) -> int:
    if args.steps < 0:
        print(f"error: --steps must be >= 0, got {args.steps}", file=sys.stderr)
        return 2
    # the setup checks every row's stepsize, as run does; the checks step the first row
    mixing, problem, alphas, reference = setup_experiment(spec, {})
    first, alpha = spec.algorithms[0], alphas[0]
    cfg = RunConfig(alpha=alpha, p=first.p, T=max(args.steps, 1), tol=0.0, seed=0)
    # Proposition 1 is stated at the default K; the rows after it gossip as the first row does
    report = verify_prop1(MultiGossipOperator.from_mixing(mixing))
    gossip = build_gossip(first, mixing)

    sym = float(np.abs(mixing.w - mixing.w.T).max())
    row = float(np.abs(mixing.w.sum(axis=1) - 1.0).max())

    rng = np.random.default_rng(0)
    worst = 0.0
    # the eigen form V diag(2h) V^T of I - Mbar shares no code with the recursion
    h, vecs = gossip.half_gap_eigh
    for _ in range(5):
        z = rng.standard_normal((gossip.n, problem.dim))
        dense = vecs @ (2.0 * h[:, None] * (vecs.T @ z))
        worst = max(worst, float(np.abs(gossip.fast_goss(z) - dense).max()))

    res = fixed_point_residual(reference, problem, gossip, alpha)

    ystar = dual_fixed_point(problem, reference)
    x_star_stack = np.tile(reference.xstar, (problem.n, 1))
    start = MGSkipState(x=x_star_stack.copy(), y=ystar.copy())
    one = mg_skip_step(start, problem, gossip, cfg, theta=1)
    moved = max(
        float(np.linalg.norm(one.x - start.x)), float(np.linalg.norm(one.y - start.y))
    )

    certified = f"error bound {reference.relative_error_bound:.1e} relative (run.tol {spec.tol:g})"
    radius = f"radius {report.radius:.4f} vs bound {report.radius_bound:.4f} (K={report.K})"
    checks = [
        ("reference x* certified", certified, reference_certifies(reference, spec.tol)),
        ("mixing symmetric", f"max asym {sym:.1e}", sym == 0.0),
        ("mixing doubly stochastic", f"row-sum dev {row:.1e}", row <= 1e-12),
        ("spectral gap < 1", f"rho = {mixing.rho:.6f}", mixing.rho < 1.0),
        ("multi-round radius envelope", radius, report.radius_bound_ok),
        ("sigma_min(I-Mbar) >= 2/5", f"sigma_min {report.sigma_min:.4f}", report.sigma_min_ok),
        ("fast_goss == dense (I-Mbar)Z", f"max dev {worst:.1e}", worst <= 1e-10),
        ("fixed-point residual at x*", f"{res:.2e}", res <= 1e-8),
        ("fixed point is stationary", f"moved {moved:.2e}", moved <= 1e-10),
    ]

    # over 0 steps there is no contraction to check, and no row for it
    if args.steps and first.kind == "mg_skip" and first.k_rule == "default":
        state = MGSkipState(x=np.zeros((problem.n, problem.dim)), y=np.zeros((problem.n, problem.dim)))
        coins = coin_stream(0, args.steps)
        contraction_ok = True
        worst_gap = -np.inf
        for t in range(args.steps):
            rep = check_contraction(state, problem, gossip, cfg, reference, ystar)
            contraction_ok &= rep.ok
            worst_gap = max(worst_gap, rep.lhs - rep.rhs)
            state = mg_skip_step(state, problem, gossip, cfg, int(coins[t] < cfg.p))
        gap = f"worst lhs-rhs {worst_gap:.2e}"
        checks.append((f"contraction over {args.steps} steps", gap, contraction_ok))

    width = max(len(name) for name, _, _ in checks)
    failed = sum(not ok for _, _, ok in checks)
    for name, detail, ok in checks:
        print(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}  {detail}")
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 1


def _cmd_sweep(args: argparse.Namespace, spec: ExperimentSpec, config_text: str) -> int:
    # the grid is checked like a config value: one error line and exit 2
    try:
        p_values = [float(tok) for tok in args.p.split(",") if tok.strip()]
        if not p_values:
            raise ValueError("empty p grid")
        # an empty name relabels each variant; AlgorithmSpec checks p is in (0, 1]
        variants = [(alg, replace(alg, p=p, name="")) for alg in spec.algorithms for p in p_values]
        # a label holds p, but for the engine, which reads none: variants sharing a
        # label collapse when every other setting agrees, and are refused otherwise
        expanded: dict = {}  # label -> (config row, its variant)
        for row, variant in variants:
            first, kept = expanded.setdefault(variant.name, (row, variant))
            if replace(kept, p=variant.p) != variant:
                raise ValueError(f"rows {first.name!r} and {row.name!r} differ but share {variant.name!r}")
    except ValueError as err:
        raise ValueError(f"--p {args.p!r}: {err}") from None
    sweep_spec = replace(spec, algorithms=tuple(v for _, v in expanded.values()), baseline="")
    summary = run_experiment(sweep_spec, args.out, config_text=config_text)
    _print_means(summary, final_err=False)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gossipskip",
        description="Decentralized composite optimization with skipped multi-gossip rounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)

    p_verify = sub.add_parser("verify", help="run the diagnostic suite")
    p_verify.add_argument("--config", required=True)
    p_verify.add_argument("--steps", type=int, default=100)

    p_topo = sub.add_parser("topology", help="print spectral facts for a topology")
    p_topo.add_argument("--kind", required=True, choices=GRAPH_KINDS)
    p_topo.add_argument("--n", type=int, required=True)
    p_topo.add_argument("--iota", type=float, default=0.5)
    p_topo.add_argument("--seed", type=int, default=0)

    p_sweep = sub.add_parser("sweep", help="expand algorithms over a p grid")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--p", required=True, help="comma-separated p values")

    args = parser.parse_args(argv)
    if args.command == "topology":
        return _cmd_topology(args)
    config = Path(args.config)
    if not config.exists():
        print(f"config file not found: {config}", file=sys.stderr)
        return 2
    config_text = config.read_text()
    command = {"run": _cmd_run, "verify": _cmd_verify, "sweep": _cmd_sweep}[args.command]
    try:
        return command(args, parse_config(config_text, base_dir=config.parent), config_text)
    except (ValueError, FileNotFoundError) as err:
        # a bad config value or --p grid, a limit tying two config keys or a
        # row's stepsize, which the builders check, or an uncertified reference;
        # a run's own failure is a RuntimeError naming it
        print(f"config error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
