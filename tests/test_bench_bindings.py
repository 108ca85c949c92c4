"""The benchmark's tracer wraps module bindings of the program from outside
and reports a metric absent when its binding is gone.  These tests keep
every binding it names in place, so a rename shows up here rather than as
missing per-layer metrics."""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tuple(name):
    """The literal tuple assigned to ``name`` in the tracer, read without
    importing it."""
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {TRACING}")


METRIC_BINDINGS = sorted(
    {(name, mod, attr) for name, mod, attr in _tuple("SPANS")}
    | {(name, mod, attr) for name, mod, attr, _ in _tuple("COUNTERS")})

# Level 0 stopped calling the delta rule through ``qer.expansion`` when it
# moved to ``similarity.delta_neighbours``; the counter of that name is fed
# through ``qer.similarity``, which the rule's every caller goes through.
GONE = {("qer.expansion", "delta_similar_names")}


def _bound(module, attr):
    return callable(getattr(importlib.import_module(module), attr, None))


@pytest.mark.parametrize("name, module, attr", METRIC_BINDINGS)
def test_traced_binding_exists(name, module, attr):
    if (module, attr) in GONE:
        assert not _bound(module, attr)
        assert any(_bound(m, a) for n, m, a in METRIC_BINDINGS
                   if n == name and (m, a) not in GONE)
    else:
        assert _bound(module, attr)


def test_heapq_binding_exists():
    heapq = importlib.import_module("qer.rcer").heapq
    assert callable(heapq.heappush) and callable(heapq.heappop)
