"""The benchmark's hook points: every callable ``bench/spans.py`` patches by name exists."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans_targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ALL_TARGETS


TARGETS = _spans_targets()


@pytest.mark.parametrize("target", TARGETS, ids=[t[0] for t in TARGETS])
def test_target_resolves(target):
    _, module, path, _ = target
    owner = importlib.import_module(f"gossipskip.{module}")
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
