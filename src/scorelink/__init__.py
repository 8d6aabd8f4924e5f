"""scorelink: transfer of logistic credit-scoring models between
customer and non-customer subpopulations via parametric score links."""

__version__ = "0.1.0"

from .dataset import (
    LabeledSample,
    SplitPlan,
    draw_split,
    load_csv,
    load_german_credit,
    split_by_account_status,
)
from .evaluation import (
    ConfusionCounts,
    ErrorReport,
    RocCurve,
    confusion,
    error_report,
    roc,
)
from .exceptions import DataError, NumericalError
from .gaussian import (
    AffineLink,
    GaussianClassParams,
    MixtureSpec,
    apply_link,
    gaussian_to_logistic,
    sample_mixture,
    verify_link_consistency,
)
from .links import (
    LinkModelKind,
    TransferFit,
    TransitionParams,
    estimate_transition,
    fit_m7,
)
from .logistic import (
    FitConfig,
    FitReport,
    LogisticParams,
    fit_mle,
    log_likelihood,
    score,
)

__all__ = [
    "AffineLink",
    "ConfusionCounts",
    "DataError",
    "ErrorReport",
    "FitConfig",
    "FitReport",
    "GaussianClassParams",
    "LabeledSample",
    "LinkModelKind",
    "LogisticParams",
    "MixtureSpec",
    "NumericalError",
    "RocCurve",
    "SplitPlan",
    "TransferFit",
    "TransitionParams",
    "apply_link",
    "confusion",
    "draw_split",
    "error_report",
    "estimate_transition",
    "fit_m7",
    "fit_mle",
    "gaussian_to_logistic",
    "load_csv",
    "load_german_credit",
    "log_likelihood",
    "roc",
    "sample_mixture",
    "score",
    "split_by_account_status",
    "verify_link_consistency",
]
