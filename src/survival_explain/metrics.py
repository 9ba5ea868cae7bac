"""Time-dependent performance measures with censoring-adjusted weighting.

Censoring is corrected by inverse-probability-of-censoring weights built
from the Kaplan-Meier estimate of the censoring distribution G. Weights for
past events use the left limit G(t-), the standard convention that avoids
self-weighting at censoring times. Grid points where a measure cannot be
computed carry an explicit ``defined == False`` marker instead of silently
propagating NaN, and are excluded from integration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import SurvivalDataset, TimeGrid
from .errors import InputError, NumericError
from .estimators import censoring_km
from .explainer import _STACK_CELLS, Explainer

LOSS_NAMES = ("brier_integrated", "brier_curve", "cd_auc_integrated", "one_minus_cindex")


@dataclass
class MetricCurve:
    """A scalar measure evaluated over the explainer's time grid.

    ``values`` holds NaN wherever ``defined`` is False; ``integrated`` is the
    trapezoid average over the defined stretch of the grid (None when fewer
    than two points are defined).
    """

    values: np.ndarray
    metric_name: str
    integrated: float | None
    defined: np.ndarray


@dataclass
class RocCurve:
    """ROC sweep at a fixed time point, sorted by ascending threshold.

    The arrays are aligned: ``(fpr[i], tpr[i])`` is the operating point when
    scores >= ``thresholds[i]`` are called positive. The sweep always starts
    at (1, 1) for the smallest score and ends at (0, 0) for the +inf
    threshold.
    """

    time: float
    fpr: np.ndarray
    tpr: np.ndarray
    thresholds: np.ndarray

    def trapezoid_auc(self) -> float:
        # fpr runs from 1 down to 0 along the sweep
        return float(-np.trapezoid(self.tpr, self.fpr))


def integrated_mean(times, values, defined=None) -> float | None:
    """Trapezoid integral over the defined points, normalized by their span.

    Duplicated abscissae contribute zero-width panels, so the result is
    invariant to repeating a grid point.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    defined = np.isfinite(values) if defined is None else np.asarray(defined, dtype=bool)
    t = times[defined]
    v = values[defined]
    if len(t) < 2 or t[-1] == t[0]:
        return None
    return float(np.trapezoid(v, t) / (t[-1] - t[0]))


def _require_finite(values, what):
    """Raise NumericError naming the first row of ``values`` that is not finite."""
    bad = ~np.isfinite(values)
    if bad.any():
        row = int(np.argwhere(bad)[0, 0])
        raise NumericError(f"{what} is not finite for row {row}")


class _RankCounter:
    """Counts the rows that score strictly below, or tie with, query scores.

    The scores are ranked once into dense integer levels (``np.unique``), so
    ties are exact and every count is an integer. No pair of rows is ever
    stored: memory is O(n + L) for n rows and L distinct scores.
    """

    def __init__(self, scores, what):
        scores = np.asarray(scores, dtype=float)
        _require_finite(scores, what)
        self.levels, self.ranks = np.unique(scores, return_inverse=True)

    def below_and_tied(self, rows, query_ranks):
        """For each query rank: the rows selected by ``rows`` that score
        strictly below it, and those that tie with it. O(n + L) per call,
        from a histogram of the selected rows over the levels."""
        counts = np.bincount(self.ranks[rows], minlength=len(self.levels))
        below = np.cumsum(counts) - counts
        return below[query_ranks], counts[query_ranks]

    def prefix_below_and_tied(self, order, ends, query_ranks):
        """For each query k: the rows among ``order[:ends[k]]`` that score
        strictly below ``query_ranks[k]``, and those that tie with it.

        One sweep over the bits of the ranks, most significant first (a
        wavelet matrix built and queried level by level): each level stably
        moves the rows whose bit is 0 in front of those whose bit is 1, and
        tracks, per query, the slice that holds the rows of its prefix that
        agree with it on every bit so far. Rows leaving that slice with a 0
        where the query has a 1 score below it; the slice left after the last
        bit ties with it. O((n + q) log L) time and O(n + q) memory.
        """
        column = self.ranks[order]
        start = np.zeros(len(query_ranks), dtype=np.int64)
        end = np.asarray(ends, dtype=np.int64)
        below = np.zeros(len(query_ranks), dtype=np.int64)
        for bit in range(int(len(self.levels) - 1).bit_length() - 1, -1, -1):
            ones = ((column >> bit) & 1).astype(bool)
            zeros_before = np.concatenate(([0], np.cumsum(~ones)))
            zs, ze = zeros_before[start], zeros_before[end]
            high = ((query_ranks >> bit) & 1).astype(bool)
            below += np.where(high, ze - zs, 0)
            start = np.where(high, zeros_before[-1] + start - zs, zs)
            end = np.where(high, zeros_before[-1] + end - ze, ze)
            column = np.concatenate((column[~ones], column[ones]))
        return below, end - start


def _brier_scorer(grid: TimeGrid, data: SurvivalDataset):
    """Prepare the IPCW Brier score on ``data``; returns ``score(S)``.

    A cell is a past event (target 0, weight 1/G(t_i-)), still at risk
    (target 1, weight 1/G(t)) or neither (weight 0); the masks are disjoint.
    Row i is at risk exactly at the grid points below its cut, the number
    of grid points before t_i, so its targets are row ``cut[i]`` of a
    (T + 1, T) table. What is held: the (n, T) weight matrix, built here
    once, the cuts, that table and one block buffer of ``_STACK_CELLS``
    cells plus a row.

    Each score takes S in row blocks of ``_STACK_CELLS // T`` rows: a
    block's targets are copied into the buffer and turned in place into the
    weighted square (S - target)**2 * weight, and the buffer is summed over
    rows. Row 0 of the buffer carries the column sums of the earlier blocks.
    numpy sums axis 0 of a C-contiguous array row by row, so each sum is
    the same ordered sum as over the whole (n, T) matrix and bit-identical
    to it; summing a block apart and then adding it to a running total would
    group the additions differently. Each cell equals
    S**2 * w_event + (1 - S)**2 * w_risk bit for bit, as
    (S - 1)**2 == (1 - S)**2 exactly and the other term is an exact zero.
    A non-finite prediction makes its column's sum non-finite, so S itself
    is only scanned, to name the bad row, when a sum is. The buffer is
    reused by every call, so ``score`` is not reentrant.
    """
    G = censoring_km(data)
    g_before = G.evaluate_left(data.times)
    g_at = G.evaluate(grid.points)
    with np.errstate(divide="ignore"):
        w_event = np.where(g_before > 0, 1.0 / g_before, 0.0)
        w_risk = np.where(g_at > 0, 1.0 / g_at, 0.0)

    n, n_times = data.n_observations, len(grid)
    event = data.events == 1
    cut = np.searchsorted(grid.points, data.times, side="left")
    at_risk_by_cut = np.arange(n_times) < np.arange(n_times + 1)[:, None]
    targets = at_risk_by_cut.astype(float)
    weight = np.where(at_risk_by_cut[cut], w_risk, np.where(event, w_event, 0.0)[:, None])

    # a row is dropped where its weight divides by G = 0: an event past its
    # cut with G(t_i-) = 0, or a row at risk where G(t) = 0
    at_risk = n - np.cumsum(np.bincount(cut, minlength=n_times + 1))[:n_times]
    past_dropped = np.cumsum(np.bincount(cut[event & (g_before == 0)], minlength=n_times + 1))
    n_effective = n - past_dropped[:n_times] - np.where(g_at == 0, at_risk, 0)
    defined = n_effective > 0

    rows = max(1, _STACK_CELLS // n_times)
    block = np.empty((min(rows, n) + 1, n_times))

    def score(S) -> MetricCurve:
        block[0] = 0.0
        # an infinite prediction times a zero weight is NaN: the check below names its row
        with np.errstate(invalid="ignore"):
            for lo in range(0, n, rows):
                hi = min(lo + rows, n)
                contributions = block[1 : hi - lo + 1]
                # "clip" takes straight into the buffer; the default mode would copy
                np.take(targets, cut[lo:hi], axis=0, out=contributions, mode="clip")
                np.subtract(S[lo:hi], contributions, out=contributions)
                contributions *= contributions
                contributions *= weight[lo:hi]
                block[0] = block[: hi - lo + 1].sum(axis=0)
        sums = block[0]
        if not np.isfinite(sums).all():
            _require_finite(S, "predicted survival")
        values = np.full(n_times, np.nan)
        values[defined] = sums[defined] / n_effective[defined]
        integrated = integrated_mean(grid.points, values, defined)
        return MetricCurve(values, "brier_score", integrated, defined.copy())

    return score


def brier_score(explainer: Explainer, data: SurvivalDataset) -> MetricCurve:
    """Time-dependent Brier score over the explainer's grid, IPCW-weighted.

    BS(t) averages the squared survival-prediction error, weighting past
    events by 1/G(t_i-) and still-at-risk observations by 1/G(t).
    Observations whose weight would divide by G = 0 are dropped and the
    denominator adjusted; a grid point where everything is dropped is
    flagged undefined. A non-finite prediction raises NumericError naming
    its row.
    """
    score = _brier_scorer(explainer.grid, data)
    return score(explainer.predict(data.features, "survival"))


def _cd_auc_scorer(grid: TimeGrid, data: SurvivalDataset):
    """Prepare the cumulative/dynamic AUC on ``data``; returns ``score(risk)``.

    Each defined grid point keeps its case rows, control mask, control count
    and case weights, so a score only ranks the risks and counts.
    """
    G = censoring_km(data)
    g_before = G.evaluate_left(data.times)
    with np.errstate(divide="ignore"):
        w = np.where(g_before > 0, 1.0 / g_before**2, 0.0)

    points = []
    defined = np.zeros(len(grid), dtype=bool)
    for k, t in enumerate(grid.points):
        cases = np.flatnonzero((data.times <= t) & (data.events == 1))
        controls = data.times > t
        n_controls = int(controls.sum())
        w_cases = w[cases]
        weight = w_cases.sum()
        if weight * n_controls == 0:
            continue
        points.append((k, cases, controls, n_controls, w_cases, weight))
        defined[k] = True

    def score(risk) -> MetricCurve:
        counter = _RankCounter(risk, "risk score")
        values = np.full(len(grid), np.nan)
        for k, cases, controls, n_controls, w_cases, weight in points:
            below, tied = counter.below_and_tied(controls, counter.ranks[cases])
            # all ties make every case score exactly 0.5, hence a value of 0.5
            case_score = (below + 0.5 * tied) / n_controls
            values[k] = (w_cases * case_score).sum() / weight
        integrated = integrated_mean(grid.points, values, defined)
        return MetricCurve(values, "cd_auc", integrated, defined.copy())

    return score


def cd_auc(explainer: Explainer, data: SurvivalDataset) -> MetricCurve:
    """Cumulative/dynamic AUC over the explainer's grid, IPCW-weighted.

    At each time t, cases are observed events with t_i <= t (weighted by
    1/G(t_i-)^2) and controls are observations still beyond t; tied risk
    scores count one half. Undefined whenever either side is empty. The
    squared case weight is that of Uno et al.'s IPCW C-statistic (Stat. Med.
    2011), not the 1/G(t_i-) of the IPCW true-positive rate.

    Risk scores are ranked once; each grid point then counts controls below
    every case from a histogram of the control ranks, so the cost is
    O(n log n + T n) time and O(n) memory with no pair matrix. A non-finite
    risk score raises NumericError naming its row.
    """
    score = _cd_auc_scorer(explainer.grid, data)
    return score(explainer.predict(data.features, "risk"))


def _concordance_scorer(data: SurvivalDataset):
    """Prepare Harrell's C on ``data``; returns ``score(risk)``.

    The time order and each event's prefix of later rows are kept, so a
    score only ranks the risks and sweeps them.
    """
    events = data.events == 1
    by_decreasing_time = np.argsort(-data.times, kind="stable")
    # rows strictly later than each event: a prefix of that order
    later = np.searchsorted(-data.times[by_decreasing_time], -data.times[events], side="left")
    n_comparable = int(later.sum())

    def score(risk) -> float:
        counter = _RankCounter(risk, "risk score")
        if n_comparable == 0:
            raise NumericError("concordance index undefined: no comparable pairs")
        below, tied = counter.prefix_below_and_tied(
            by_decreasing_time, later, counter.ranks[events]
        )
        return float((2 * int(below.sum()) + int(tied.sum())) / (2 * n_comparable))

    return score


def concordance_index(explainer: Explainer, data: SurvivalDataset) -> float:
    """Harrell's C: over pairs with t_i < t_j and an event at t_i, the
    fraction whose risk ordering matches (ties count one half).

    Pairs are counted, never stored: the rows later than an event are a
    prefix of the rows sorted by decreasing time, and one sweep over the
    bits of the risk ranks counts every prefix at once, O(n log n) time and
    O(n) memory. The counts are exact integers, so all-tied risks give
    exactly 0.5. A non-finite risk score raises NumericError naming its row.
    """
    score = _concordance_scorer(data)
    return score(explainer.predict(data.features, "risk"))


def _roc_scorer(grid: TimeGrid, data: SurvivalDataset, t: float):
    """Prepare the ROC curve at ``t`` on ``data``; returns ``score(S)``."""
    t = float(t)
    if not np.isfinite(t):
        raise InputError("evaluation time must be finite")
    idx = int(np.searchsorted(grid.points, t, side="right")) - 1
    positives = (data.events == 1) & (data.times <= t)
    negatives = data.times > t

    def score(S) -> RocCurve:
        if not positives.any():
            raise NumericError(f"ROC undefined at t={t:g}: no positive cases")
        if not negatives.any():
            raise NumericError(f"ROC undefined at t={t:g}: no negative controls")
        s_at_t = S[:, idx] if idx >= 0 else np.ones(data.n_observations)
        counter = _RankCounter(1.0 - s_at_t, "event-by-t score")
        every_level = np.arange(len(counter.levels))
        n_pos, n_neg = int(positives.sum()), int(negatives.sum())
        pos_below, _ = counter.below_and_tied(positives, every_level)
        neg_below, _ = counter.below_and_tied(negatives, every_level)
        return RocCurve(
            time=t,
            fpr=np.append((n_neg - neg_below) / n_neg, 0.0),
            tpr=np.append((n_pos - pos_below) / n_pos, 0.0),
            thresholds=np.append(counter.levels, np.inf),
        )

    return score


def roc_at_time(explainer: Explainer, data: SurvivalDataset, t: float) -> RocCurve:
    """ROC curve treating the event-by-t probability as a classifier score.

    Rows censored strictly before t are excluded (the naive estimator;
    transparent but not censoring-corrected). Positives are events with
    t_i <= t, negatives are rows with t_i > t, and the score is
    1 - S(t | x_i) with S step-evaluated on the explainer grid. The sweep
    reads, per threshold, the positives and negatives scoring below it from
    rank histograms: O(n log n) time and O(n) memory. A non-finite score
    raises NumericError naming its row.
    """
    score = _roc_scorer(explainer.grid, data, t)
    return score(explainer.predict(data.features, "survival"))


def _integrated(curve: MetricCurve, what: str) -> float:
    if curve.integrated is None:
        raise NumericError(f"integrated {what} undefined on this data")
    return curve.integrated


def _prepared_loss(metric_name: str, explainer: Explainer, data: SurvivalDataset):
    """The named loss prepared once on ``data``: returns ``loss_of(X)``.

    ``loss_of(X)`` is the loss of the predictions for ``X`` scored against
    ``data``'s times and events, oriented so larger = worse: cd-AUC enters
    as 1 - AUC, the Brier score and 1 - C as they are. ``brier_curve``
    yields a value per grid point; the others are scalars. The censoring
    weights, masks and time order are built here, and each call only
    predicts and scores.
    """
    if metric_name not in LOSS_NAMES:
        raise InputError(
            f"unknown loss {metric_name!r}; valid names: {', '.join(LOSS_NAMES)}"
        )
    if metric_name == "one_minus_cindex":
        score = _concordance_scorer(data)
        return lambda X: 1.0 - score(explainer.predict(X, "risk"))
    if metric_name == "cd_auc_integrated":
        score = _cd_auc_scorer(explainer.grid, data)
        return lambda X: 1.0 - _integrated(
            score(explainer.predict(X, "risk")), "cumulative/dynamic AUC"
        )
    score = _brier_scorer(explainer.grid, data)
    if metric_name == "brier_curve":
        return lambda X: score(explainer.predict(X, "survival")).values
    return lambda X: _integrated(score(explainer.predict(X, "survival")), "Brier score")
