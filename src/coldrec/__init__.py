"""Regret-minimization toolkit for cold-start recommendation.

Contextual-bandit policies (including the adapted LinUCB with frozen
per-arm design matrices), rating-matrix imputation strategies, and an
offline replay evaluator that accumulates cumulative regret over public
rating corpora or synthetic linear environments.
"""

from .data import (
    CorpusSplit,
    ProblemKind,
    RatingDataset,
    dataset_from_dense,
    filter_min_ratings,
    load_csv_triples,
    load_movielens,
    normalize,
    orient,
    save_csv_triples,
    split_base_eval,
    subsample,
)
from .impute import (
    AlsWr,
    BaseMatrix,
    ImputedSvd,
    ItemAverage,
    Zero,
    fill,
    method_from_name,
)
from .linalg import (
    als_wr_factorize,
    truncated_svd,
)
from .policies import (
    ALinUcbPolicy,
    AveragePolicy,
    EpsilonGreedyPolicy,
    Exp3Policy,
    LinUcbPolicy,
    OraclePolicy,
    Policy,
    RandomPolicy,
    ThompsonPolicy,
    UcbPolicy,
    make_policy,
)
from .replay import RegretTrace, read_trace_csv, run_replay, write_trace_csv
from .synthetic import linear_environment

__version__ = "0.1.0"

__all__ = [
    "ALinUcbPolicy",
    "AlsWr",
    "AveragePolicy",
    "BaseMatrix",
    "CorpusSplit",
    "EpsilonGreedyPolicy",
    "Exp3Policy",
    "ImputedSvd",
    "ItemAverage",
    "LinUcbPolicy",
    "OraclePolicy",
    "Policy",
    "ProblemKind",
    "RandomPolicy",
    "RatingDataset",
    "RegretTrace",
    "ThompsonPolicy",
    "UcbPolicy",
    "Zero",
    "als_wr_factorize",
    "dataset_from_dense",
    "fill",
    "filter_min_ratings",
    "linear_environment",
    "load_csv_triples",
    "load_movielens",
    "make_policy",
    "method_from_name",
    "normalize",
    "orient",
    "read_trace_csv",
    "run_replay",
    "save_csv_triples",
    "split_base_eval",
    "subsample",
    "truncated_svd",
    "write_trace_csv",
]
