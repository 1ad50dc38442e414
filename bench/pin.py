"""Rewrite pins.json: per-run iterations, final comm_rounds and coin sequence at seed 0.

Usage (from the repository root)::

    python3 bench/pin.py

Run it only when a change is meant to alter these counts, and say so in
the change: the correctness gate compares every default-seed run to them.
"""

from __future__ import annotations

import json
import shutil
import sys

import gate
import run
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    run.pin_blas_threads()
    sys.path.insert(0, str(run.SRC))
    out_root = run.OUT / "pin"
    pins = {}
    try:
        for workload in WORKLOADS.values():
            out_root.mkdir(parents=True, exist_ok=True)
            config = out_root / "workload.cfg"
            config.write_text(workload.config_text(DEFAULT_SEED))
            *_, error = run.run_command(workload, config, out_root / "out", traced=False)
            if error is not None:
                print(f"{workload.name}: {error}", file=sys.stderr)
                return 1
            pins[workload.name] = {
                f"{alg}__seed{seed}": gate.pin_of(gate.read_run(gate.trace_path(out_root / "out", alg, seed)))
                for alg, seed in workload.run_keys(DEFAULT_SEED)
            }
            shutil.rmtree(out_root)
    finally:
        shutil.rmtree(run.OUT, ignore_errors=True)
    env = run.environment()
    document = {"commit": env["commit"], "seed": DEFAULT_SEED, "workloads": pins}
    gate.PINS_PATH.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"wrote {gate.PINS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
