"""gossipskip benchmark: time to tolerance through the command-line path.

Usage (from the repository root)::

    python3 bench/run.py --workload ring15-sweep --seed 0 --seconds 35 --trace 0

Each repetition calls ``gossipskip.cli.main`` on the workload's config, in
this process, one repetition at a time (a closed loop with one client).  The
first repetition is an untimed warm-up whose traces every later repetition
must reproduce byte for byte.  Repetitions continue for ``--seconds`` of
wall-clock time.  Reported timings are CPU seconds of this process, with
BLAS pinned to one thread, so they exclude time stolen by the hypervisor.

``--trace 0`` installs only timers around the run calls and reports the
end-to-end metrics.  ``--trace 1`` alternates untraced repetitions with
repetitions that record spans around every layer and reports per-layer
metrics.  The last line of standard output is one JSON object.  The exit
code is 0 only when every run passed the correctness gate.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import ctypes
import importlib.metadata
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import gate
from spans import ALL_TARGETS, CLOCK, RUN_SPANS, RUN_TARGETS, Recorder, by_name
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIN_REPS = 3

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "command_s": "s",
    "setup_s": "s",
    "solve_s": "s",
    "iters_per_s": "1/s",
    "peak_rss_mb": "MiB",
}


@dataclass
class Repetition:
    traced: bool
    wall_s: float
    command_s: float
    setup_s: float | None
    solve_s: float
    outputs: dict
    failures: dict
    error: str | None = None
    layers: dict = field(default_factory=dict)
    coverage: list = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return sum(o.iterations for o in self.outputs.values())


def pin_blas_threads() -> None:
    """One BLAS thread, so that process CPU time is one core's busy time.

    Must run before numpy is imported.  Touches only this process's
    environment.
    """
    for name in BLAS_THREAD_VARIABLES:
        os.environ[name] = "1"


def run_command(workload: Workload, config: Path, out_dir: Path, traced: bool):
    """One CLI invocation; returns (CPU start, CPU time, wall time, recorder, error or None)."""
    from gossipskip import cli

    argv = [workload.command[0], "--config", str(config), "--out", str(out_dir), *workload.command[1:]]
    recorder = Recorder(ALL_TARGETS if traced else RUN_TARGETS)
    error = None
    with recorder, contextlib.redirect_stdout(io.StringIO()):
        wall_start = time.perf_counter()
        start = CLOCK()
        try:
            code = cli.main(argv)
        except Exception:
            code, error = None, traceback.format_exc()
        cpu = CLOCK() - start
        wall = time.perf_counter() - wall_start
    if error is None and code != 0:
        error = f"command exited with {code}"
    return start, cpu, wall, recorder, error


def _repetition(workload, seed, config, out_dir, traced, first) -> Repetition:
    start, cpu, wall, recorder, error = run_command(workload, config, out_dir, traced)
    outputs, failures = gate.check_repetition(workload, seed, out_dir, first)
    if error is not None:
        failures = {key: "command failed" for key in workload.run_keys(seed)}
    entered = recorder.first_start(RUN_SPANS)
    rep = Repetition(
        traced=traced,
        wall_s=wall,
        command_s=cpu,
        setup_s=None if entered is None else entered - start,
        solve_s=recorder.total(RUN_SPANS),
        outputs=outputs,
        failures=failures,
        error=error,
    )
    if traced:
        spans = by_name(recorder.spans)
        rep.layers = _layer_metrics(spans, rep)
        rep.coverage = _coverage(spans, rep, workload, seed)
    shutil.rmtree(out_dir, ignore_errors=True)
    return rep


def _layer_metrics(spans: dict, rep: Repetition) -> dict[str, tuple[float, str]]:
    def self_s(*names):
        return sum(spans[n]["self"] for n in names)

    def calls(*names):
        return sum(spans[n]["calls"] for n in names)

    edges = sum(spans["build_graph"]["notes"][:1])
    dim = sum(spans["build_problem"]["notes"][:1])
    rounds = sum(spans["fast_goss"]["notes"])
    goss_calls = calls("fast_goss")
    grad_calls = calls("gradient_stack")
    steps = calls("mg_skip_step")
    layer_self = sum(entry["self"] for entry in spans.values())

    def per_call_us(total, count):
        return total / count * 1e6 if count else 0.0

    return {
        "topology.graph_s": (self_s("build_graph"), "s"),
        "topology.mixing_s": (self_s("metropolis_weights"), "s"),
        "topology.edges": (edges, "count"),
        "gossip.calls": (goss_calls, "count"),
        "gossip.rounds": (rounds, "count"),
        "gossip.self_s": (self_s("fast_goss"), "s"),
        "gossip.call_us": (per_call_us(self_s("fast_goss"), goss_calls), "us"),
        "gossip.share": (self_s("fast_goss") / rep.solve_s if rep.solve_s else 0.0, "share"),
        "gossip.msg_bytes": (rounds * 2 * edges * dim * 8, "B"),
        "problems.build_s": (self_s("build_problem"), "s"),
        "problems.reference_s": (self_s("centralized_solve"), "s"),
        "problems.reference_iters": (sum(spans["centralized_solve"]["notes"]), "count"),
        "problems.gradient_calls": (grad_calls, "count"),
        "problems.gradient_self_s": (self_s("gradient_stack"), "s"),
        "problems.gradient_us": (per_call_us(self_s("gradient_stack"), grad_calls), "us"),
        "problems.prox_self_s": (self_s("prox_stack"), "s"),
        "algorithms.runs": (calls(*RUN_SPANS), "count"),
        "algorithms.steps": (steps, "count"),
        "algorithms.step_self_s": (self_s("mg_skip_step"), "s"),
        "algorithms.step_self_us": (per_call_us(self_s("mg_skip_step"), steps), "us"),
        "algorithms.run_self_s": (self_s(*RUN_SPANS), "s"),
        "algorithms.iterations": (rep.iterations, "count"),
        "algorithms.comm_rounds": (sum(o.comm_rounds for o in rep.outputs.values()), "count"),
        "harness.trace_write_s": (self_s("write_trace_csv"), "s"),
        "harness.trace_rows": (rep.iterations, "count"),
        "harness.trace_bytes": (sum(o.file_bytes for o in rep.outputs.values()), "B"),
        "harness.self_s": (self_s("run_experiment"), "s"),
        "cli.self_s": (self_s("main"), "s"),
        "trace.remainder_s": (rep.command_s - layer_self, "s"),
    }


def _coverage(spans: dict, rep: Repetition, workload: Workload, seed: int) -> list[str]:
    """Boundaries that must have been crossed, and counts that must agree."""
    runs = len(workload.run_keys(seed))
    problems = []
    for name in ("main", "run_experiment", "build_graph", "metropolis_weights", "build_problem",
                 "fast_goss", "gradient_stack", "prox_stack", "mg_skip_step"):
        if spans[name]["calls"] == 0:
            problems.append(f"{name} recorded no calls")
    for name, expected in (("centralized_solve", 1), ("write_trace_csv", runs)):
        if spans[name]["calls"] != expected:
            problems.append(f"{name} recorded {spans[name]['calls']} calls, expected {expected}")
    if spans["mg_skip_run"]["calls"] + spans["puda_run"]["calls"] != runs:
        problems.append(f"run calls do not match the {runs} runs of the workload")
    rounds = sum(spans["fast_goss"]["notes"])
    reported = sum(o.comm_rounds for o in rep.outputs.values())
    if rounds != reported:
        problems.append(f"gossip rounds from spans {rounds} != reported comm_rounds {reported}")
    if spans["mg_skip_step"]["calls"] != rep.iterations:
        problems.append(
            f"mg_skip_step calls {spans['mg_skip_step']['calls']} != trace iterations {rep.iterations}"
        )
    return problems


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, asked through its own API."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_name = "unknown"
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        commit = ref
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "blas_pinning": f"{'/'.join(BLAS_THREAD_VARIABLES)}=1 in this process; untimed warm-up repetition",
        "commit": commit,
    }


def _tail(values: list[float]) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(values)
    text = f"median {statistics.median(values):.6g}"
    if n >= 20:
        ordered = sorted(values)
        q = 100.0 * (n - 10) / n
        text += f", p{q:.0f} {ordered[n - 11]:.6g}"
    else:
        text += ", no percentile above the median has 10 samples beyond it"
    return f"{text} (n={n})"


def measure(workload: Workload, seed: int, seconds: float, trace: bool, out_root: Path):
    config = out_root / "workload.cfg"
    config.write_text(workload.config_text(seed))
    warm = _repetition(workload, seed, config, out_root / "rep0", False, None)
    first = warm.outputs
    reps: list[Repetition] = []
    began = time.perf_counter()
    while True:
        traced = trace and len(reps) % 2 == 1
        rep_start = time.perf_counter()
        reps.append(_repetition(workload, seed, config, out_root / f"rep{len(reps) + 1}", traced, first))
        took = time.perf_counter() - rep_start
        if len(reps) >= MIN_REPS and time.perf_counter() - began + took > seconds:
            break
    return warm, reps


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if not (SRC / "gossipskip" / "__init__.py").is_file():
        print(f"gossipskip sources not found under {SRC}", file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import gossipskip

    if Path(gossipskip.__file__).resolve().parent != SRC / "gossipskip":
        print(f"imported gossipskip from {gossipskip.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    out_root = OUT / f"{workload.name}-{os.getpid()}"
    out_root.mkdir(parents=True, exist_ok=True)
    try:
        warm, reps = measure(workload, args.seed, args.seconds, bool(args.trace), out_root)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
        with contextlib.suppress(OSError):
            OUT.rmdir()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print("env: " + json.dumps(environment(), sort_keys=True))
    every = [warm, *reps]
    attempted = sum(len(workload.run_keys(args.seed)) for _ in every)
    failed = sum(len(r.failures) for r in every)
    errors = [r.error for r in every if r.error is not None]
    for error in dict.fromkeys(errors):
        print(f"{workload.name}: {errors.count(error)} repetition(s) failed with:\n{error}", file=sys.stderr)
    reasons = collections.Counter(
        (alg, run_seed, reason) for r in every for (alg, run_seed), reason in r.failures.items()
    )
    for (alg, run_seed, reason), count in sorted(reasons.items()):
        print(f"FAIL {alg} seed {run_seed} in {count} repetition(s): {reason}", file=sys.stderr)

    plain = [r for r in reps if not r.traced]
    series = {
        "command_s": [r.command_s for r in plain],
        "setup_s": [r.setup_s for r in plain if r.setup_s is not None],
        "solve_s": [r.solve_s for r in plain],
        "iters_per_s": [r.iterations / r.solve_s for r in plain if r.solve_s > 0],
    }
    print(
        f"workload {workload.name} seed {args.seed}: {len(plain)} untraced repetitions, "
        f"{len(reps) - len(plain)} traced, after 1 warm-up; runs attempted {attempted}, "
        f"runs_failed {failed}"
    )
    metrics: dict[str, dict] = {}
    for name, values in series.items():
        if values:
            print(f"  {name} [{END_TO_END_UNITS[name]}]: {_tail(values)}")
            metrics[name] = {"value": statistics.median(values), "unit": END_TO_END_UNITS[name]}
    metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MiB"}
    print(f"  peak_rss_mb [MiB]: {peak_rss_mb:.6g}")
    print(f"  command wall-clock time [s], not a metric: {_tail([r.wall_s for r in plain])}")
    print(f"  runs_failed [count of {attempted} runs]: {failed}")

    correct = failed == 0 and all(name in metrics for name in END_TO_END_UNITS)
    if args.trace:
        traced = [r for r in reps if r.traced]
        coverage = sorted({p for r in traced for p in r.coverage})
        for problem in coverage:
            print(f"COVERAGE {workload.name}: {problem}", file=sys.stderr)
        correct = correct and not coverage
        layers = {
            name: {"value": statistics.median(r.layers[name][0] for r in traced), "unit": unit}
            for name, (_, unit) in traced[0].layers.items()
        }
        layers["trace_overhead_s"] = {
            "value": statistics.median(r.command_s for r in traced) - statistics.median(series["command_s"]),
            "unit": "s",
        }
        for name, entry in layers.items():
            print(f"  {name} [{entry['unit']}]: {entry['value']:.6g}")
        metrics = layers

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
