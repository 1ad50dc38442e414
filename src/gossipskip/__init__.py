"""Decentralized composite optimization with skipped multi-gossip rounds.

A desk-scale simulator and diagnostic library for proximal gradient
methods over undirected networks in which the multi-round gossip
exchange is triggered only with probability ``p`` per iteration.
"""

__version__ = "0.1.0"

from .algorithms import (
    ContractionReport,
    DivergenceError,
    MGSkipState,
    PUDAConfig,
    RunConfig,
    RunResult,
    check_contraction,
    coin_stream,
    contraction_factor,
    dual_fixed_point,
    fixed_point_residual,
    lyapunov,
    mg_skip_run,
    mg_skip_step,
    puda_mgskip_p1,
    puda_nids,
    puda_run,
    puda_step,
)
from .gossip import (
    MultiGossipOperator,
    Prop1Report,
    chebyshev_eta,
    default_K,
    verify_prop1,
)
from .harness import (
    AlgorithmSpec,
    ExperimentSpec,
    parse_config,
    run_experiment,
)
from .problems import (
    CentralizedSolveError,
    L1Reg,
    LogisticLoss,
    ProblemInstance,
    QuadraticLoss,
    ReferenceSolution,
    ZeroReg,
    centralized_solve,
    flood_constants,
    gen_least_squares,
    gen_logistic,
    l1_prox,
    load_libsvm,
    logistic_from_parts,
)
from .topology import (
    Graph,
    MixingMatrix,
    build_random_connectivity,
    build_ring,
    metropolis_weights,
)
