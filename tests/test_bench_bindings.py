"""The benchmark's tracer binds library names by string; every one of them
must resolve, so that removing or renaming a bound name fails here and not
only in the benchmark's own tests.  perfbench/tracing.py is read, not run."""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _constant(name):
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} is not assigned in {TRACING}")


@pytest.mark.parametrize("module, attr", [layer[:2] for layer in _constant("LAYERS")])
def test_layer_entry_point_resolves(module, attr):
    owner = importlib.import_module(f"ratprime.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


@pytest.mark.parametrize("attr", _constant("ORACLE_VERIFY"))
def test_oracle_verify_name_resolves(attr):
    assert callable(getattr(importlib.import_module("ratprime.oracle"), attr))
