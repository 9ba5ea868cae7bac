"""Model-agnostic explanations, metrics, and diagnostics for survival models.

Wrap any model that can emit survival functions in an :class:`Explainer`
via :func:`explain`, then feed it to the metric, profile, importance, and
attribution functions. Built-in Kaplan-Meier, Cox, and Weibull AFT models
are used directly; anything else plugs in as a function returning survival
probabilities over a time grid, a (T,) vector per row through :func:`explain`
or an (n, T) batch through ``Explainer(model=f, ...)``. Function output is checked
on every call, and a bad row fails with an error naming it.
"""

from .artifacts import TOOL_VERSION
from .data import StepCurve, SurvivalDataset, TimeGrid
from .errors import FitError, InputError, NumericError
from .estimators import censoring_km, kaplan_meier, nelson_aalen
from .explainer import Explainer, default_time_grid, explain
from .global_explain import (
    ProfileSurface,
    ResidualSet,
    VariableImportance,
    background_sample,
    model_diagnostics,
    model_parts,
    model_profile,
    model_profile_2d,
)
from .ingest import ingest_csv
from .local_explain import (
    GlobalSurvShap,
    IceProfile,
    SurvLimeResult,
    SurvShapResult,
    model_survshap,
    predict_parts_survlime,
    predict_parts_survshap,
    predict_profile,
)
from .metrics import (
    MetricCurve,
    RocCurve,
    brier_score,
    cd_auc,
    concordance_index,
    integrated_mean,
    roc_at_time,
)
from .models import (
    CoxModel,
    KaplanMeierModel,
    WeibullAftModel,
    fit_cox,
    fit_kaplan_meier,
    fit_weibull_aft,
)

__version__ = TOOL_VERSION

__all__ = [
    "CoxModel",
    "Explainer",
    "FitError",
    "GlobalSurvShap",
    "IceProfile",
    "InputError",
    "KaplanMeierModel",
    "MetricCurve",
    "NumericError",
    "ProfileSurface",
    "ResidualSet",
    "RocCurve",
    "StepCurve",
    "SurvLimeResult",
    "SurvShapResult",
    "SurvivalDataset",
    "TimeGrid",
    "VariableImportance",
    "WeibullAftModel",
    "background_sample",
    "brier_score",
    "cd_auc",
    "censoring_km",
    "concordance_index",
    "default_time_grid",
    "explain",
    "fit_cox",
    "fit_kaplan_meier",
    "fit_weibull_aft",
    "ingest_csv",
    "integrated_mean",
    "kaplan_meier",
    "model_diagnostics",
    "model_parts",
    "model_profile",
    "model_profile_2d",
    "model_survshap",
    "nelson_aalen",
    "predict_parts_survlime",
    "predict_parts_survshap",
    "predict_profile",
    "roc_at_time",
]
