"""Correctness gate: checks every run of a repetition against its expected outcome.

A run fails when its trace is missing, when it stops on the wrong side of
the tolerance, when its trace bytes differ from the same run earlier in the
invocation, or, at the default seed, when its iteration count, final
communication rounds or coin sequence differ from ``pins.json``.  At the
default seed the ring-15 sweep's summary must also match the README table.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from workloads import DEFAULT_SEED, README_TABLE, Workload

PINS_PATH = Path(__file__).with_name("pins.json")


@dataclass(frozen=True)
class RunOutput:
    """What one run left on disk, read back from its trace CSV."""

    iterations: int
    comm_rounds: int
    rel_err: float
    theta_sha256: str
    file_sha256: str
    file_bytes: int


def trace_path(out_dir: Path, alg: str, seed: int) -> Path:
    return out_dir / f"{alg}__seed{seed}.csv"


def read_run(path: Path) -> RunOutput:
    data = path.read_bytes()
    rows = list(csv.DictReader(data.decode().splitlines()))
    if not rows:
        raise ValueError(f"{path.name} has no iterations")
    thetas = ",".join(row["theta"] for row in rows)
    return RunOutput(
        iterations=len(rows),
        comm_rounds=int(rows[-1]["comm_rounds"]),
        rel_err=float(rows[-1]["rel_err"]),
        theta_sha256=hashlib.sha256(thetas.encode()).hexdigest(),
        file_sha256=hashlib.sha256(data).hexdigest(),
        file_bytes=len(data),
    )


def load_pins(workload: Workload) -> dict:
    return json.loads(PINS_PATH.read_text())["workloads"][workload.name]


def pin_of(output: RunOutput) -> dict:
    return {
        "iterations": output.iterations,
        "comm_rounds": output.comm_rounds,
        "theta_sha256": output.theta_sha256,
    }


def _readme_mismatches(out_dir: Path) -> set[str]:
    """Algorithms whose summary means differ from the README table."""
    with open(out_dir / "summary.csv", newline="") as fh:
        means = {row["algorithm"]: row for row in csv.DictReader(fh) if row["seed"] == "mean"}
    bad = set()
    for alg, (iters, comm) in README_TABLE.items():
        row = means.get(alg)
        if row is None or not row["iterations_to_tol"] or not row["comm_to_tol"]:
            bad.add(alg)
        elif (round(float(row["iterations_to_tol"])), round(float(row["comm_to_tol"]))) != (iters, comm):
            bad.add(alg)
    return bad


def check_repetition(
    workload: Workload,
    seed: int,
    out_dir: Path,
    first: dict[tuple[str, int], RunOutput] | None,
) -> tuple[dict[tuple[str, int], RunOutput], dict[tuple[str, int], str]]:
    """Read and check every expected run; return outputs and failure reasons.

    ``first`` holds the outputs of the invocation's first repetition; every
    later repetition must reproduce its trace bytes exactly.
    """
    pins = load_pins(workload) if seed == DEFAULT_SEED else None
    readme_bad: set[str] = set()
    if seed == DEFAULT_SEED and workload.name == "ring15-sweep":
        try:
            readme_bad = _readme_mismatches(out_dir)
        except (OSError, KeyError, ValueError):
            readme_bad = set(README_TABLE)

    outputs: dict[tuple[str, int], RunOutput] = {}
    failures: dict[tuple[str, int], str] = {}
    for key in workload.run_keys(seed):
        alg, run_seed = key
        try:
            out = read_run(trace_path(out_dir, alg, run_seed))
        except (OSError, KeyError, ValueError) as err:
            failures[key] = f"unreadable trace: {err}"
            continue
        outputs[key] = out
        if alg in workload.horizon_algorithms:
            if out.iterations != workload.T or out.rel_err < workload.tol:
                failures[key] = (
                    f"expected to stop at the horizon T={workload.T}, stopped after "
                    f"{out.iterations} at rel_err {out.rel_err:.3e}"
                )
                continue
        elif not out.rel_err < workload.tol:
            failures[key] = f"final rel_err {out.rel_err:.3e} is not below tol {workload.tol:g}"
            continue
        if first is not None and key in first and first[key].file_sha256 != out.file_sha256:
            failures[key] = "trace bytes differ from the first repetition"
            continue
        if pins is not None:
            pinned = pins.get(f"{alg}__seed{run_seed}")
            if pinned != pin_of(out):
                failures[key] = f"differs from pins.json: got {pin_of(out)}, pinned {pinned}"
                continue
        if alg in readme_bad:
            failures[key] = "summary mean differs from the README sweep table"
    return outputs, failures
