"""Nonparametric estimators: Kaplan-Meier, Nelson-Aalen, and the censoring variant."""

from __future__ import annotations

import numpy as np

from .data import StepCurve, SurvivalDataset


def _event_table(times: np.ndarray, events: np.ndarray):
    """Unique event times with event counts and at-risk counts."""
    sorted_times = np.sort(times, kind="stable")
    event_times, d = np.unique(times[events == 1], return_counts=True)
    at_risk = len(sorted_times) - np.searchsorted(sorted_times, event_times, side="left")
    return event_times, d.astype(float), at_risk.astype(float)


def _product_limit(times: np.ndarray, events: np.ndarray) -> StepCurve:
    event_times, d, r = _event_table(times, events)
    if len(event_times) == 0:
        return StepCurve(np.array([times.max()]), np.array([1.0]), kind="survival")
    return StepCurve(event_times, np.cumprod(1.0 - d / r), kind="survival")


def kaplan_meier(data: SurvivalDataset) -> StepCurve:
    """Product-limit estimate of the survival function at the observed event times.

    With no observed events the estimate never drops: the curve is the
    constant 1, carried on a single point at the largest observed time.
    """
    return _product_limit(data.times, data.events)


def nelson_aalen(data: SurvivalDataset) -> StepCurve:
    """Cumulative-sum estimate of the cumulative hazard: sum of d_k / r_k at event times."""
    event_times, d, r = _event_table(data.times, data.events)
    if len(event_times) == 0:
        return StepCurve(np.array([data.times.max()]), np.array([0.0]), kind="chf")
    return StepCurve(event_times, np.cumsum(d / r), kind="chf")


def censoring_km(data: SurvivalDataset) -> StepCurve:
    """Kaplan-Meier estimate of the censoring distribution G(t).

    Flips the event indicator so censorings are treated as events; the result
    supplies inverse-probability-of-censoring weights.
    """
    return _product_limit(data.times, 1 - data.events)
