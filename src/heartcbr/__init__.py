"""Case-based reasoning pipeline for tabular heart-disease prediction."""

from .analytics import (
    CaseResult,
    ConfusionCounts,
    EvaluationReport,
    StatsTables,
    accuracy,
    dataset_stats,
    pearson_correlation,
)
from .cases import (
    FEATURE_NAMES,
    Case,
    CaseValidationError,
    to_feature_vector,
    validate_case,
)
from .dataset import (
    CaseBase,
    DatasetError,
    DegenerateSplitError,
    SplitResult,
    parse_csv,
    read_case_base,
    split_sequential,
    write_case_base,
)
from .engine import (
    Prediction,
    RankedMatch,
    SimilarityConfig,
    evaluate,
    global_similarity,
    predict,
    retain,
    retrieve,
    reuse,
)
from .scaling import NormalizationParams, fit_minmax, normalize

__version__ = "0.1.0"

__all__ = [
    "Case",
    "CaseBase",
    "CaseResult",
    "CaseValidationError",
    "ConfusionCounts",
    "DatasetError",
    "DegenerateSplitError",
    "EvaluationReport",
    "FEATURE_NAMES",
    "NormalizationParams",
    "Prediction",
    "RankedMatch",
    "SimilarityConfig",
    "SplitResult",
    "StatsTables",
    "accuracy",
    "dataset_stats",
    "evaluate",
    "fit_minmax",
    "global_similarity",
    "normalize",
    "parse_csv",
    "pearson_correlation",
    "predict",
    "read_case_base",
    "retain",
    "retrieve",
    "reuse",
    "split_sequential",
    "to_feature_vector",
    "validate_case",
    "write_case_base",
]
