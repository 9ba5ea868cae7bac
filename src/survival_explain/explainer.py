"""The central model wrapper: one prediction surface over a shared time grid.

An :class:`Explainer` pairs a model with the background dataset every
explanation method draws from. Predictions can be requested as survival
probabilities, cumulative hazard, or a relative-risk scalar (the grid-sum of
the cumulative hazard; implementation-defined, since any strictly monotone
functional preserves risk ordering).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import _SHAPE_TOL, StepCurve, SurvivalDataset, TimeGrid
from .errors import InputError, NumericError
from .models import CoxModel, KaplanMeierModel, WeibullAftModel, predict_survival_matrix

#: Survival probabilities are clamped to at least this before any logarithm.
SURVIVAL_FLOOR = 1e-18

#: Default grids are capped at this many points to bound explanation cost.
GRID_CAP = 51


#: The prediction formats :meth:`Explainer.predict` and the explanations accept.
OUTPUT_TYPES = ("survival", "chf", "risk")


def _normalize_output_type(output_type) -> str:
    if output_type not in OUTPUT_TYPES:
        valid = ", ".join(OUTPUT_TYPES)
        raise InputError(f"unknown output type {output_type!r}; expected one of: {valid}")
    return output_type


def default_time_grid(background: SurvivalDataset) -> TimeGrid:
    """Evaluation grid derived from the background's observed event times.

    Uses the unique positive event times directly; above ``GRID_CAP`` of
    them, falls back to that many empirical quantiles of the event times
    (deduplicated, so the result stays strictly increasing).
    """
    event_times = background.times[(background.events == 1) & (background.times > 0)]
    unique = np.unique(event_times)
    if len(unique) > GRID_CAP:
        unique = np.unique(np.quantile(event_times, np.linspace(0.0, 1.0, GRID_CAP)))
    if len(unique) < 2:
        raise InputError(
            "background yields fewer than two distinct positive event times; "
            "pass an explicit grid"
        )
    return TimeGrid(unique)


def _curve_values(prediction, grid: TimeGrid) -> np.ndarray:
    """Extract the value vector from a per-row prediction (StepCurve or array)."""
    if isinstance(prediction, StepCurve):
        if prediction.kind != "survival":
            raise InputError(f"prediction curve has kind {prediction.kind!r}, expected 'survival'")
        if len(prediction.times) != len(grid) or not np.array_equal(prediction.times, grid.points):
            raise InputError("prediction curve times differ from the evaluation grid")
        return prediction.values
    values = np.asarray(prediction, dtype=float)
    if values.ndim != 1:
        raise InputError(f"prediction must be 1-dimensional, got shape {values.shape}")
    return values


def _per_row(fn):
    """Adapt a per-row callable ``fn(x, grid)`` to the batch contract ``f(X, grid)``."""

    def batch(X, grid):
        S = np.empty((len(X), len(grid)))
        for i, row in enumerate(X):
            values = _curve_values(fn(row, grid), grid)
            if len(values) != len(grid):
                raise InputError(
                    f"prediction length {len(values)} does not match grid length "
                    f"{len(grid)} for row {i}"
                )
            S[i] = values
        return S

    return batch


def _checked_survival(S, n_rows: int, grid: TimeGrid) -> np.ndarray:
    """A callable's output as an (n, T) survival matrix, clamped to [0, 1].

    Raises ``InputError`` for a wrong shape, a value out of [0, 1] or a
    rising curve, and ``NumericError`` for a non-finite value, each naming
    the first bad row. The whole-matrix test is vectorised; rows are only
    scanned once it has failed. Its ``and`` chain reaches ``np.diff`` only
    when every value is finite, since ``inf - inf`` would warn.
    """
    S = np.asarray(S, dtype=float)
    if S.shape != (n_rows, len(grid)):
        raise InputError(
            f"prediction shape {S.shape} does not match {n_rows} rows by grid length {len(grid)}"
        )
    valid = S.size == 0 or (
        S.min() >= -_SHAPE_TOL
        and S.max() <= 1 + _SHAPE_TOL
        and np.diff(S, axis=1).max() <= _SHAPE_TOL
    )
    if not valid:
        for i, row in enumerate(S):
            if not np.all(np.isfinite(row)):
                raise NumericError(f"predicted survival is not finite for row {i}")
            if row.min() < -_SHAPE_TOL or row.max() > 1 + _SHAPE_TOL:
                raise InputError(f"survival value out of [0,1] for row {i}")
            if np.any(np.diff(row) > _SHAPE_TOL):
                raise InputError(f"survival curve must be nonincreasing for row {i}")
    return np.clip(S, 0.0, 1.0)


@dataclass
class Explainer:
    """A wrapped model plus the background data all explanations draw from.

    ``model`` is either a fitted built-in model (Kaplan-Meier, Cox or
    Weibull AFT) or a batch callable ``f(X, grid)`` returning the (n, T)
    survival matrix of the rows of ``X`` at ``grid``. A callable's output is
    checked on every call: a non-finite value raises ``NumericError``; a
    wrong shape, a value out of [0, 1] or a rising curve raises
    ``InputError``; each names the first bad row. A callable must be safe
    for concurrent invocation, and row-wise: a row's output must not depend
    on the other rows of its batch, since exact SurvSHAP predicts a repeated
    coalition row once and reuses it. The built-in models are row-wise.
    :func:`explain` wraps a per-row callable ``f(x, grid)`` in this batch form.
    """

    model: object
    background: SurvivalDataset
    grid: TimeGrid

    def __post_init__(self):
        if self.background.n_observations < 2:
            raise InputError("background must contain at least two observations")
        if not np.any(self.background.events == 1):
            raise InputError("background must contain at least one event")
        self.survival_matrix(self.background.features[:1])

    # -- prediction ---------------------------------------------------------

    def survival_matrix(self, X: np.ndarray, grid: TimeGrid | None = None) -> np.ndarray:
        """(n, T) survival probabilities in [0, 1]; a callable's output is checked first."""
        # ``grid`` stays for the benchmark's layer tracer, which passes it
        # positionally; nothing in this package passes one.
        grid = self.grid if grid is None else grid
        X = np.asarray(X, dtype=float)
        if callable(self.model):
            return _checked_survival(self.model(X, grid), len(X), grid)
        return predict_survival_matrix(self.model, X, grid)

    def predict(self, X, output_type="survival"):
        """Predictions for the rows of ``X`` in the requested format.

        ``survival`` and ``chf`` return an (n, T) array over the explainer's grid;
        ``risk`` returns one scalar per row (the grid-sum of the cumulative
        hazard). A single feature vector yields the corresponding
        unbatched shape.
        """
        output = _normalize_output_type(output_type)
        X = np.asarray(X, dtype=float)
        single = X.ndim == 1
        if single:
            X = X[None, :]
        if X.ndim != 2:
            raise InputError(f"feature matrix must be 1- or 2-dimensional, got shape {X.shape}")
        if X.shape[1] != self.background.n_features:
            raise InputError(
                f"feature matrix has {X.shape[1]} columns, expected {self.background.n_features}"
            )
        if not np.all(np.isfinite(X)):
            raise InputError("feature matrix contains non-finite values")
        S = self.survival_matrix(X)
        if output == "survival":
            result = S
        else:
            chf = _cumulative_hazard(S)
            result = chf if output == "chf" else chf.sum(axis=1)
        return result[0] if single else result


def _cumulative_hazard(S):
    """The cumulative hazard -log S, with S floored at ``SURVIVAL_FLOOR``;
    its sum over the grid is the ``risk`` output."""
    return -np.log(np.clip(S, SURVIVAL_FLOOR, 1.0))


def explain(model, background: SurvivalDataset, grid=None) -> Explainer:
    """Wrap a fitted model or a per-row prediction function as an Explainer.

    Built-in models (Kaplan-Meier, Cox, Weibull AFT) are used as they are.
    Anything else must be a callable ``(x, grid) ->`` survival curve (a
    StepCurve or a value vector) for one feature vector; it is called row by
    row and checked as :class:`Explainer` describes. Its output for a row
    must depend on that row alone (no state carried between calls), since
    a repeated row may be predicted once and reused. ``grid`` is the one
    evaluation grid of every prediction, metric and explanation drawn from
    the explainer; when omitted it is derived from the background event times.
    """
    if grid is None:
        grid = default_time_grid(background)
    elif not isinstance(grid, TimeGrid):
        grid = TimeGrid(grid)

    if isinstance(model, (CoxModel, WeibullAftModel, KaplanMeierModel)):
        return Explainer(model, background, grid)
    if callable(model):
        return Explainer(_per_row(model), background, grid)
    raise InputError(
        f"unsupported model type {type(model).__name__}; "
        "pass a fitted built-in model or a prediction function"
    )
