"""What the benchmark in `hyperbench/` reads of the package.

Its traced run wraps hypermil functions and methods by name
(`hyperbench/layers.targets`). A wrapped name the package no longer has
would fail only that run, so every one of them is checked here.
"""

import importlib
from pathlib import Path

import hypermil

HYPERBENCH = Path(__file__).resolve().parent.parent / "hyperbench"


def test_every_traced_name_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(HYPERBENCH))
    layers = importlib.import_module("layers")
    targets = layers.targets(hypermil)
    assert targets
    for owner, attr, span, _ in targets:
        assert callable(getattr(owner, attr, None)), span
