"""The benchmark's tracer wraps module bindings of the program from outside
and reports a metric absent when its binding is gone.  These tests keep
every binding it names in place, so a rename shows up here rather than as
missing per-layer metrics."""

import ast
import importlib
import inspect
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


RUN = TRACING.parent / "run.py"

# The calls bench/run.py makes into the program, by module, callable and
# the arguments it passes.
BENCH_CALLS = [
    ("rcer", "run_rcer", ("ds", "refs", "cfg"), {}),
    ("expansion", "ExpansionParams", (),
     dict.fromkeys(("d_star", "delta", "h_max", "a_max"))),
    ("similarity", "SimilarityConfig", (),
     dict.fromkeys(("alpha", "epsilon", "delta", "merge_threshold"))),
    ("evalkit", "rcer_threshold_sweep",
     ("ds", "refs", "cfg", "thresholds", "gold"), {}),
    ("rcer", "partition_at_threshold", ("result", "t"), {}),
    ("expansion", "build_relevant_set", ("ds", "q", "params"), {}),
]


@pytest.mark.parametrize("module, attr, args, kwargs", BENCH_CALLS,
                         ids=[f"{m}.{a}" for m, a, _, _ in BENCH_CALLS])
def test_bench_call_shape_binds(module, attr, args, kwargs):
    assert f"{module}.{attr}(" in RUN.read_text()
    fn = getattr(importlib.import_module(f"qer.{module}"), attr)
    inspect.signature(fn).bind(*args, **kwargs)
