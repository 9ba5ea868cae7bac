"""Core data containers: right-censored samples, evaluation grids, step curves."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InputError

CURVE_KINDS = ("survival", "chf")

# Slack for floating-point noise when validating curve shape constraints.
_SHAPE_TOL = 1e-9


def _float_array(values, name: str, ndim: int) -> np.ndarray:
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{name} must be numeric") from exc
    if arr.ndim != ndim:
        raise InputError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    return arr


@dataclass
class SurvivalDataset:
    """Right-censored observations: times, event flags, numeric features.

    ``events[i] == 1`` means the event was observed at ``times[i]``;
    ``events[i] == 0`` means the observation was censored there.
    """

    times: np.ndarray
    events: np.ndarray
    features: np.ndarray
    feature_names: list[str]

    def __post_init__(self):
        self.times = _float_array(self.times, "times", 1)
        n = len(self.times)
        if n < 1:
            raise InputError("dataset must contain at least one observation")
        if not np.all(np.isfinite(self.times)):
            raise InputError("times must be finite")
        if np.any(self.times < 0):
            raise InputError("times must be nonnegative")

        events = _float_array(self.events, "events", 1)
        if len(events) != n:
            raise InputError(f"events has length {len(events)}, expected {n}")
        if not np.all(np.isin(events, (0.0, 1.0))):
            raise InputError("event flags must be exactly 0 or 1")
        self.events = events.astype(int)

        self.features = _float_array(self.features, "features", 2)
        if self.features.shape[0] != n:
            raise InputError(
                f"features has {self.features.shape[0]} rows, expected {n}"
            )
        if not np.all(np.isfinite(self.features)):
            raise InputError("features must be finite")

        self.feature_names = [str(name) for name in self.feature_names]
        if len(self.feature_names) != self.features.shape[1]:
            raise InputError(
                f"{len(self.feature_names)} feature names for "
                f"{self.features.shape[1]} feature columns"
            )
        if any(not name for name in self.feature_names):
            raise InputError("feature names must be nonempty")
        if len(set(self.feature_names)) != len(self.feature_names):
            raise InputError("feature names must be unique")

    @property
    def n_observations(self) -> int:
        return len(self.times)

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def column_index(self, name: str) -> int:
        try:
            return self.feature_names.index(name)
        except ValueError:
            raise InputError(
                f"unknown variable {name!r}; available: {', '.join(self.feature_names) or '(none)'}"
            ) from None

    def with_features(self, features: np.ndarray) -> "SurvivalDataset":
        """Copy of the dataset with the feature matrix replaced."""
        return replace(self, features=features)


@dataclass
class TimeGrid:
    """Strictly increasing positive times at which curve-valued outputs are evaluated."""

    points: np.ndarray

    def __post_init__(self):
        self.points = _float_array(self.points, "grid points", 1)
        if len(self.points) < 2:
            raise InputError("a time grid needs at least two points")
        if not np.all(np.isfinite(self.points)):
            raise InputError("grid points must be finite")
        if np.any(self.points <= 0):
            raise InputError("grid points must be positive")
        if np.any(np.diff(self.points) <= 0):
            raise InputError("grid points must be strictly increasing")

    def __len__(self) -> int:
        return len(self.points)

    @property
    def span(self) -> float:
        return float(self.points[-1] - self.points[0])


@dataclass
class StepCurve:
    """Right-continuous piecewise-constant function over a set of jump times.

    Kinds and their constraints:

    * ``survival`` -- values in [0, 1], nonincreasing; evaluates to 1 before
      the first jump time.
    * ``chf`` -- values >= 0, nondecreasing; evaluates to 0 before the first
      jump time.

    Beyond the last jump time the curve keeps its last value.
    """

    times: np.ndarray
    values: np.ndarray
    kind: str

    def __post_init__(self):
        self.times = _float_array(self.times, "curve times", 1)
        self.values = _float_array(self.values, "curve values", 1)
        if len(self.times) < 1:
            raise InputError("a step curve needs at least one point")
        if len(self.values) != len(self.times):
            raise InputError(
                f"curve has {len(self.values)} values for {len(self.times)} times"
            )
        if not np.all(np.isfinite(self.times)) or np.any(self.times < 0):
            raise InputError("curve times must be finite and nonnegative")
        if np.any(np.diff(self.times) <= 0):
            raise InputError("curve times must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise InputError("curve values must be finite")
        if self.kind not in CURVE_KINDS:
            raise InputError(f"unknown curve kind {self.kind!r}; expected one of {CURVE_KINDS}")
        if self.kind == "survival":
            if self.values.min() < -_SHAPE_TOL or self.values.max() > 1 + _SHAPE_TOL:
                raise InputError("survival value out of [0,1]")
            if np.any(np.diff(self.values) > _SHAPE_TOL):
                raise InputError("survival curve must be nonincreasing")
        elif self.kind == "chf":
            if self.values.min() < -_SHAPE_TOL:
                raise InputError("chf values must be nonnegative")
            if np.any(np.diff(self.values) < -_SHAPE_TOL):
                raise InputError("chf curve must be nondecreasing")

    def evaluate(self, t):
        """Right-continuous step evaluation at scalar or array ``t``."""
        return self._step(t, "right")

    def evaluate_left(self, t):
        """Left-limit evaluation, i.e. the value just before ``t``."""
        return self._step(t, "left")

    def _step(self, t, side):
        """The value of the last step at or before ``t`` (``side`` "right") or
        strictly before it ("left"); before the first step, 1 for survival
        and 0 otherwise."""
        idx = np.searchsorted(self.times, np.asarray(t, dtype=float), side=side) - 1
        before = 1.0 if self.kind == "survival" else 0.0
        out = np.where(idx >= 0, self.values[np.maximum(idx, 0)], before)
        return float(out) if out.ndim == 0 else out
