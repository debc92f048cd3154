"""What the benchmark in `hyperbench/` reads of the package.

Its traced run wraps hypermil functions and methods by name
(`hyperbench/layers.targets`). A wrapped name the package no longer has
would fail only that run, so every one of them is checked here. Its
workloads build, round-trip and read bags and parameters through the
public API; one checked operation of each gated workload runs here, so a
change that breaks them fails this suite and not only a benchmark run.
"""

import importlib
from pathlib import Path

import pytest

import hypermil

HYPERBENCH = Path(__file__).resolve().parent.parent / "hyperbench"


def test_every_traced_name_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(HYPERBENCH))
    layers = importlib.import_module("layers")
    targets = layers.targets(hypermil)
    assert targets
    for owner, attr, span, _ in targets:
        assert callable(getattr(owner, attr, None)), span


@pytest.mark.parametrize("name", ["train", "eval-wide"])
def test_one_checked_operation_of_each_gated_workload(monkeypatch, tmp_path, name):
    monkeypatch.syspath_prepend(str(HYPERBENCH))
    workload = importlib.import_module("workloads").WORKLOADS[name]
    state, problems = workload.setup(hypermil, 7919, str(tmp_path))
    assert problems == []
    wall, output = workload.run(hypermil, state, 0)
    outcome = workload.check(hypermil, state, 0, output, wall)
    assert outcome.problems == []
    assert outcome.failed == 0
    assert outcome.attempted > 0 and outcome.figure_ms > 0
