"""Spans around gossipskip's public callables, installed from outside the library.

A ``Recorder`` replaces each target callable, in every ``gossipskip``
module namespace that binds it (or on its class, for methods), with a
wrapper that records ``[name, parent, start, end, note]``.  Spans stay in
memory; the originals are restored when the recorder exits.  A layer's self
time is its spans' durations minus the time their child spans cover.

Times are CPU seconds of this process (``CLOCK``).  On a virtual machine
that excludes time the hypervisor gives to other guests, which wall-clock
time does not.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

CLOCK = time.process_time

# (span name, module, attribute path, note taken from (args, result))
RUN_TARGETS = (
    ("mg_skip_run", "algorithms", "mg_skip_run", None),
    ("puda_run", "algorithms", "puda_run", None),
)
ALL_TARGETS = RUN_TARGETS + (
    ("main", "cli", "main", None),
    ("run_experiment", "harness", "run_experiment", None),
    ("build_graph", "harness", "build_graph", lambda args, g: g.m),
    ("metropolis_weights", "topology", "metropolis_weights", None),
    ("build_problem", "harness", "build_problem", lambda args, p: p.dim),
    ("centralized_solve", "problems", "centralized_solve", lambda args, ref: ref.iterations),
    ("fast_goss", "gossip", "MultiGossipOperator.fast_goss", lambda args, _: args[0].K),
    ("gradient_stack", "problems", "ProblemInstance.gradient_stack", None),
    ("prox_stack", "problems", "ProblemInstance.prox_stack", None),
    ("mg_skip_step", "algorithms", "mg_skip_step", None),
    ("write_trace_csv", "harness", "write_trace_csv", None),
)
RUN_SPANS = ("mg_skip_run", "puda_run")


class Recorder:
    """Context manager that records spans for the given targets."""

    def __init__(self, targets):
        self.targets = targets
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, note):
        spans, stack, clock = self.spans, self._stack, CLOCK

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            spans.append(span)
            stack.append(idx)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if note is not None:
                span[4] = note(args, result)
            return result

        return wrapper

    def __enter__(self) -> "Recorder":
        try:
            for name, module, path, note in self.targets:
                owner = importlib.import_module(f"gossipskip.{module}")
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original, note)
                if outer:
                    self._patch(owner, attr, wrapper)
                    continue
                # a function is looked up in whichever module imported it
                for mod in [m for key, m in sys.modules.items() if key.split(".")[0] == "gossipskip"]:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def _patch(self, owner, attr, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def first_start(self, names) -> float | None:
        starts = [s[2] for s in self.spans if s[0] in names]
        return min(starts) if starts else None

    def total(self, names) -> float:
        return sum(s[3] - s[2] for s in self.spans if s[0] in names)


def by_name(spans) -> dict[str, dict]:
    """Per span name: call count, summed self time, and the notes recorded."""
    child = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self": 0.0, "notes": []})
    for idx, (name, _, start, end, note) in enumerate(spans):
        entry = out[name]
        entry["calls"] += 1
        entry["self"] += end - start - child[idx]
        if note is not None:
            entry["notes"].append(note)
    return out
