"""The README's library example runs as printed, and every ``gs.<name>`` it cites exists."""

from __future__ import annotations

import re
from pathlib import Path

import gossipskip
from gossipskip import gossip
from gossipskip.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def test_library_example_prints_pinned_counts(capsys):
    section = README.split("## Library entry points", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    iterations, comm, rel_err = capsys.readouterr().out.split()
    assert (iterations, comm) == ("637", "928")
    assert float(rel_err) < 1e-7


def test_sweep_block_is_the_sweep_stdout(tmp_path, capsys):
    """The README's sweep output block is what its ``gossipskip sweep`` command
    prints, line for line, once the ``#`` annotations are dropped."""
    cli = README.split("## CLI", 1)[1]
    grid = re.search(r"gossipskip sweep --config configs/ring15\.cfg --out \S+ --p (\S+)", cli)
    block = cli.split("The `sweep` over the ring-15 benchmark", 1)[1]
    block = re.search(r"```\n(.*?)```", block, re.S).group(1)
    config = str(ROOT / "configs" / "ring15.cfg")
    assert main(["sweep", "--config", config, "--out", str(tmp_path), "--p", grid.group(1)]) == 0
    expected = [line.split("#", 1)[0].rstrip() for line in block.splitlines()]
    assert capsys.readouterr().out.splitlines() == expected


def test_topology_comment_is_the_topology_stdout(capsys):
    """The comment under the README's ``gossipskip topology`` command is its five
    output lines, joined by commas."""
    cli = README.split("## CLI", 1)[1]
    found = re.search(r"gossipskip topology --config (\S+).*\n# (.*)\n", cli)
    assert main(["topology", "--config", str(ROOT / found.group(1))]) == 0
    assert capsys.readouterr().out.splitlines() == found.group(2).split(", ")


def test_cited_names_exist():
    names = set(re.findall(r"\bgs\.(\w+)", README))
    assert names, "README cites no gs.<name>"
    assert sorted(name for name in names if not hasattr(gossipskip, name)) == []


def test_kernel_rules_quote_gossip_constants():
    """Every kernel-rule number the README quotes is the one ``gossip.py`` uses."""
    section = README.split("## Gossip kernels", 1)[1].split("\n## ", 1)[0]
    gather = (str(gossip._GATHER_COST_PER_SLOT), str(gossip._GATHER_COST_PER_ROW))
    cap, fold = str(gossip._FOLD_MAX_NODES), str(gossip._FOLD_COST_PER_NODE)
    assert re.findall(r"Used when\s+`n < (\d+)·width \+ (\d+)`", section) == [gather]
    assert re.findall(r"(\d+) entries per slot plus (\d+)", section) == [gather]
    assert set(re.findall(r"(\d+)·width \+ (\d+)", section)) == {gather}
    rule = r"when\s+also\s+`n ≤ (\d+)`\s+and\s+`(\d+)·n < K·\((\d+)·width \+ (\d+)\)`"
    assert re.findall(rule, section) == [(cap, fold, *gather)]
    assert re.findall(r"about (\d+) dense-row entries per\s+node", section) == [fold]
    assert re.findall(r"above\s+n = (\d+)", section) == [cap]


def test_kernel_list_is_the_code_kernels():
    """The kernels "Gossip kernels" names in bold are the ones the operator
    picks: ring-15 folds, ring-400 gathers at K = 1 and folds at its default K."""
    section = README.split("## Gossip kernels", 1)[1].split("\n## ", 1)[0]
    ring15 = gossipskip.metropolis_weights(gossipskip.build_ring(15))
    ring400 = gossipskip.metropolis_weights(gossipskip.build_ring(400))
    operators = [
        gossipskip.MultiGossipOperator.from_mixing(mixing, K=K)
        for mixing, K in ((ring15, None), (ring400, 1), (ring400, None))
    ]
    kernels = {op.kernel for op in operators}
    assert kernels == {"folded", "neighbour"}
    assert set(re.findall(r"\*\*(\w+)\*\*", section)) == kernels
