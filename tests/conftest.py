import importlib.util
import sys
from pathlib import Path

import pytest

from qer.corpus import GoldLabeling, ingest
from qer.similarity import SimilarityConfig

# Four-publication author corpus used throughout the tests.  Ten references
# r1..r10; two distinct people named "W. Wang"-style (one of them written
# "W. W. Wang" once), two distinct "C. Chen"s, one "A. Ansari", one "L. Li".
CORPUS_RECORDS = [
    {"pub_id": "h1", "authors": [
        {"id": "r1", "name": "W. Wang"},
        {"id": "r2", "name": "C. Chen"},
        {"id": "r3", "name": "A. Ansari"},
    ]},
    {"pub_id": "h2", "authors": [
        {"id": "r4", "name": "W. Wang"},
        {"id": "r5", "name": "A. Ansari"},
    ]},
    {"pub_id": "h3", "authors": [
        {"id": "r6", "name": "L. Li"},
        {"id": "r7", "name": "C. Chen"},
        {"id": "r8", "name": "W. Wang"},
    ]},
    {"pub_id": "h4", "authors": [
        {"id": "r9", "name": "W. W. Wang"},
        {"id": "r10", "name": "A. Ansari"},
    ]},
]

GOLD_ASSIGNMENTS = {
    "r1": "e1", "r4": "e1", "r9": "e1",   # first W. Wang
    "r8": "e2",                           # second W. Wang
    "r2": "e3",                           # first C. Chen
    "r7": "e4",                           # second C. Chen
    "r3": "e5", "r5": "e5", "r10": "e5",  # A. Ansari
    "r6": "e6",                           # L. Li
}


@pytest.fixture
def corpus_ds():
    return ingest(CORPUS_RECORDS)


@pytest.fixture
def corpus_gold():
    return GoldLabeling(dict(GOLD_ASSIGNMENTS))


@pytest.fixture
def text_cfg():
    # epsilon sits above the "w wang"/"w w wang" score (~0.949) so only
    # exact-name pairs count as conservatively similar in this corpus
    return SimilarityConfig(alpha=0.5, epsilon=0.98, delta=0.9,
                            merge_threshold=0.5)


@pytest.fixture
def numeric_cfg():
    return SimilarityConfig(alpha=0.5, epsilon=0.8, delta=0.7,
                            merge_threshold=0.3)


BENCH = Path(__file__).resolve().parent.parent / "bench"


def bench_module(name):
    """The benchmark's ``bench/<name>.py``, imported by path, unchanged."""
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # where dataclasses look it up
    spec.loader.exec_module(module)
    return module
