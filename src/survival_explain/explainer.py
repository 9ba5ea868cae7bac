"""The central model wrapper: one prediction surface over a shared time grid.

An :class:`Explainer` pairs a model with the background dataset every
explanation method draws from. Predictions can be requested as survival
probabilities, cumulative hazard (capped at -log(``SURVIVAL_FLOOR``)), or a
relative-risk scalar (the grid-sum of the capped cumulative hazard;
implementation-defined, since any strictly monotone functional preserves
risk ordering).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import _SHAPE_TOL, SurvivalDataset, TimeGrid, _float_array
from .errors import InputError, NumericError
from .models import SURVIVAL_FLOOR, predict_cumulative_hazard_matrix, predict_survival_matrix

_HAZARD_CAP = -np.log(SURVIVAL_FLOOR)

#: Default grids are capped at this many points to bound explanation cost.
GRID_CAP = 51

# Rows x grid points per model call in the stacked drivers (PDP and ICE grid
# points, SurvSHAP coalition rows in local_explain): six 100-row
# blocks at the 51-point default grid. Sized by peak memory: a call holds a
# few (rows, T) float arrays, and twice this budget raised the explanation
# benchmark's peak resident memory by 2 %, four times by 6 %, where this one
# adds 0.4 %. It also bounds the row blocks of the prepared Brier scorer in
# metrics, whose one block buffer holds this many cells plus a row, and the
# slices in which exact SurvSHAP forms phi.
_STACK_CELLS = 1 << 15


#: The prediction formats :meth:`Explainer.predict` and the explanations accept.
OUTPUT_TYPES = ("survival", "chf", "risk")


def _normalize_output_type(output_type) -> str:
    if output_type not in OUTPUT_TYPES:
        valid = ", ".join(OUTPUT_TYPES)
        raise InputError(f"unknown output type {output_type!r}; expected one of: {valid}")
    return output_type


def _quantile_grid(values: np.ndarray, size: int) -> np.ndarray:
    # unique() both dedups repeated quantiles and guarantees strict ordering
    return np.unique(np.quantile(values, np.linspace(0.0, 1.0, size)))


def default_time_grid(background: SurvivalDataset) -> TimeGrid:
    """Evaluation grid derived from the background's observed event times.

    Uses the unique positive event times directly; above ``GRID_CAP`` of
    them, falls back to that many empirical quantiles of the event times
    (deduplicated, so the result stays strictly increasing).
    """
    event_times = background.times[(background.events == 1) & (background.times > 0)]
    unique = np.unique(event_times)
    if len(unique) > GRID_CAP:
        unique = _quantile_grid(event_times, GRID_CAP)
    if len(unique) < 2:
        raise InputError(
            "background yields fewer than two distinct positive event times; "
            "pass an explicit grid"
        )
    return TimeGrid(unique)


def _checked_survival(S, n_rows: int, grid: TimeGrid) -> np.ndarray:
    """A callable's output as an (n, T) survival matrix, clamped to [0, 1].

    ``S`` is what the callable returned: a matrix, or one vector per row.
    Raises ``InputError`` for a non-numeric row, a row that is not a vector
    of the grid's length, a value out of [0, 1] or a rising curve, and
    ``NumericError`` for a non-finite value, each naming the first bad row;
    rows that are all sound but of the wrong count raise ``InputError`` too.
    The whole-matrix test is vectorised; rows are only scanned once it has
    failed. Its ``and`` chain reaches ``np.diff`` only when every value is
    finite, since ``inf - inf`` would warn.
    """
    n_points = len(grid)
    try:
        M = np.asarray(S, dtype=float)
    except (TypeError, ValueError):
        M = None
    if M is not None and n_rows == 0 and M.shape in ((0,), (0, n_points)):
        # no rows: the empty list a per-row callable gives, or an empty matrix
        return np.empty((0, n_points))
    if M is not None and M.shape == (n_rows, n_points) and (
        M.min() >= -_SHAPE_TOL
        and M.max() <= 1 + _SHAPE_TOL
        and np.diff(M, axis=1).max() <= _SHAPE_TOL
    ):
        return np.clip(M, 0.0, 1.0)
    for i, row in enumerate(S if np.iterable(S) else [S]):
        row = _float_array(row, "prediction", 1)
        if len(row) != n_points:
            raise InputError(
                f"prediction length {len(row)} does not match grid length {n_points} for row {i}"
            )
        if not np.all(np.isfinite(row)):
            raise NumericError(f"predicted survival is not finite for row {i}")
        if row.min() < -_SHAPE_TOL or row.max() > 1 + _SHAPE_TOL:
            raise InputError(f"survival value out of [0,1] for row {i}")
        if np.any(np.diff(row) > _SHAPE_TOL):
            raise InputError(f"survival curve must be nonincreasing for row {i}")
    raise InputError(
        f"prediction shape {np.shape(S)} does not match {n_rows} rows by grid length {n_points}"
    )


@dataclass
class Explainer:
    """A wrapped model plus the background data all explanations draw from.

    ``model`` is either a fitted built-in model (Kaplan-Meier, Cox or
    Weibull AFT) or a batch callable ``f(X, grid)`` returning the (n, T)
    survival matrix of the rows of ``X`` at ``grid``, as one array or as one
    vector per row; the one-row prediction the constructor makes refuses
    anything else with ``InputError``. A callable's output is checked on
    every call, by one check for both contracts: a non-finite value raises
    ``NumericError``; a non-numeric value, a wrong shape, a value out of
    [0, 1] or a rising curve raises ``InputError``; each names the first bad
    row. A callable must be safe for concurrent invocation, and row-wise: a
    row's output must not depend on the other rows of its batch, since exact
    SurvSHAP predicts a repeated coalition row once and reuses it. The
    built-in models are row-wise. :func:`explain` wraps a per-row callable
    ``f(x, grid)``, which returns one row's (T,) survival vector, in this
    batch form. ``grid`` is a ``TimeGrid`` or a sequence of times, by
    default ``default_time_grid``.

    The cumulative hazard ``chf`` is capped at -log(``SURVIVAL_FLOOR``),
    about 41.4, and ``risk`` is its sum over the grid. A built-in model gives
    it from ``predict_cumulative_hazard_matrix``; a callable gives -log S
    with S floored at ``SURVIVAL_FLOOR``.
    """

    model: object
    background: SurvivalDataset
    grid: TimeGrid | None = None

    def __post_init__(self):
        if self.grid is None:
            self.grid = default_time_grid(self.background)
        elif not isinstance(self.grid, TimeGrid):
            self.grid = TimeGrid(self.grid)
        if self.background.n_observations < 2:
            raise InputError("background must contain at least two observations")
        if not np.any(self.background.events == 1):
            raise InputError("background must contain at least one event")
        self.survival_matrix(self.background.features[:1])

    # -- prediction ---------------------------------------------------------

    def _feature_matrix(self, X) -> np.ndarray:
        """``X`` as floats; ``InputError`` unless 2-D with the background's width.

        Both prediction entries check here before any model call, so a
        callable is never handed rows of another width.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise InputError(f"feature matrix must be 2-dimensional, got shape {X.shape}")
        if X.shape[1] != self.background.n_features:
            raise InputError(
                f"feature matrix has {X.shape[1]} columns, expected {self.background.n_features}"
            )
        return X

    def survival_matrix(self, X: np.ndarray, grid: TimeGrid | None = None) -> np.ndarray:
        """(n, T) survival probabilities in [0, 1]; a callable's output is checked first."""
        # ``grid`` stays for the benchmark's layer tracer, which passes it
        # positionally; nothing in this package passes one.
        grid = self.grid if grid is None else grid
        X = self._feature_matrix(X)
        if callable(self.model):
            return _checked_survival(self.model(X, grid), len(X), grid)
        return predict_survival_matrix(self.model, X, grid)

    def _cumulative_hazard(self, X: np.ndarray) -> np.ndarray:
        """(n, T) cumulative hazard, capped at -log(``SURVIVAL_FLOOR``).

        A callable's is -log of its checked survival matrix floored at
        ``SURVIVAL_FLOOR``. A built-in model's comes from
        ``predict_cumulative_hazard_matrix``; NaN stays NaN.
        """
        if callable(self.model):
            return -np.log(np.clip(self.survival_matrix(X), SURVIVAL_FLOOR, 1.0))
        H = predict_cumulative_hazard_matrix(self.model, self._feature_matrix(X), self.grid)
        # minimum, not fmin: a NaN hazard must reach the metrics' checks
        return np.minimum(H, _HAZARD_CAP, out=H)

    def predict(self, X, output_type="survival"):
        """Predictions for the rows of ``X`` in the requested format.

        ``survival`` and ``chf`` return an (n, T) array over the explainer's
        grid; ``chf`` is the cumulative hazard capped at -log(1e-18), taken
        from the model's own hazard for Cox and Weibull AFT and from
        -log S otherwise. ``risk`` returns one scalar per row, the grid-sum
        of that capped hazard. A single feature vector yields the
        corresponding unbatched shape.
        """
        output = _normalize_output_type(output_type)
        X = np.asarray(X, dtype=float)
        single = X.ndim == 1
        if single:
            X = X[None, :]
        if X.ndim != 2:
            raise InputError(f"feature matrix must be 1- or 2-dimensional, got shape {X.shape}")
        X = self._feature_matrix(X)
        if not np.all(np.isfinite(X)):
            raise InputError("feature matrix contains non-finite values")
        if output == "survival":
            result = self.survival_matrix(X)
        else:
            chf = self._cumulative_hazard(X)
            result = chf if output == "chf" else chf.sum(axis=1)
        return result[0] if single else result


def explain(model, background: SurvivalDataset, grid=None) -> Explainer:
    """Wrap a fitted model or a per-row prediction function as an Explainer.

    A callable is a per-row function ``(x, grid) ->`` vector of survival
    probabilities over ``grid`` for one feature vector; it is called row by
    row and checked as :class:`Explainer` describes. Its output for a row
    must depend on that row alone (no state carried between calls), since a
    repeated row may be predicted once and reused. Anything else goes to
    :class:`Explainer` as it is, which takes the built-in models (Kaplan-Meier,
    Cox, Weibull AFT) and refuses any other object with ``InputError``.
    ``grid`` is the one evaluation grid of every prediction, metric and
    explanation drawn from the explainer, as :class:`Explainer` takes it.
    """
    if callable(model):
        return Explainer(lambda X, grid: [model(row, grid) for row in X], background, grid)
    return Explainer(model, background, grid)
