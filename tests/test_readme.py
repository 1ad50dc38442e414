"""The README's library example runs as printed, and every ``gs.<name>`` it cites exists."""

from __future__ import annotations

import re
from pathlib import Path

import gossipskip

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_library_example_prints_pinned_counts(capsys):
    section = README.split("## Library entry points", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    iterations, comm, rel_err = capsys.readouterr().out.split()
    assert (iterations, comm) == ("637", "928")
    assert float(rel_err) < 1e-7


def test_cited_names_exist():
    names = set(re.findall(r"\bgs\.(\w+)", README))
    assert names, "README cites no gs.<name>"
    assert sorted(name for name in names if not hasattr(gossipskip, name)) == []
