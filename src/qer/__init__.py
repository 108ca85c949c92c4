"""Query-time entity resolution over co-occurrence graphs."""

from .corpus import Dataset, GoldLabeling, Query, Reference, ingest, ingest_file
from .similarity import SimilarityConfig, SimilarityContext
from .rcer import Answer, RcerResult, resolve, run_rcer
from .expansion import AmbiguityEstimator, ExpansionParams, RelevantSet, build_relevant_set
from .analysis import StructuralProbs, closed_form_gp, predict_recall
from .synthgen import GenParams, generate
from .evalkit import PairwiseMetrics, pairwise_metrics

__version__ = "0.1.0"

__all__ = [
    "AmbiguityEstimator", "Answer", "Dataset", "ExpansionParams",
    "GenParams", "GoldLabeling", "PairwiseMetrics", "Query",
    "RcerResult", "Reference", "RelevantSet", "SimilarityConfig",
    "SimilarityContext", "StructuralProbs", "build_relevant_set",
    "closed_form_gp", "generate", "ingest", "ingest_file", "pairwise_metrics",
    "predict_recall", "resolve", "run_rcer",
]
