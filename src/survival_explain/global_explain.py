"""Dataset-level explanations: permutation importance, effect profiles, residuals.

Everything here consumes an Explainer, never a raw model, so the same code
serves built-in and user-wrapped predictors. All randomness is driven by
explicit seeds split with ``np.random.SeedSequence`` so that per-variable and
per-repetition work items are independent and a parallel schedule could not
change the results.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .explainer import _STACK_CELLS, Explainer, _normalize_output_type, _quantile_grid
from .metrics import _prepared_loss

# Profile background subsampling uses its own fixed seed: the sample is part
# of the estimand (which rows are averaged), not of the Monte-Carlo noise, so
# it must not move when a caller changes the sampling seed.
PROFILE_SAMPLE_SEED = 42
PDP_GRID_SIZE = 25
ALE_BINS = 10
PROFILE_BACKGROUND_CAP = 100


@dataclass
class VariableImportance:
    """Permutation importance of one variable.

    ``importance`` is the mean over repetitions of (permuted loss − baseline
    loss), so a variable the model never reads scores exactly 0. For curve
    losses all three loss fields are vectors over the grid. ``permuted_loss``
    is reported as baseline + importance, keeping the difference identity
    exact. ``replicate_losses`` holds the raw per-repetition losses, and
    ``standard_error`` is the Monte-Carlo standard error of ``permuted_loss``
    (None for a single repetition).
    """

    variable: str
    baseline_loss: float | np.ndarray
    permuted_loss: float | np.ndarray
    importance: float | np.ndarray
    replicate_losses: np.ndarray = field(repr=False, default=None)
    standard_error: float | np.ndarray | None = None


@dataclass
class ProfileSurface:
    """PDP or ALE profile of one or two variables, one grid per variable.

    ``values`` is indexed (grid point[, second grid point], time); a risk
    profile drops the trailing time axis because risk is a scalar per
    prediction; the time axis is the explainer's grid.
    """

    grid_values: tuple[np.ndarray, ...]
    values: np.ndarray


@dataclass
class ResidualSet:
    """Per-observation diagnostic residuals.

    ``deviance`` is NaN wherever ``deviance_defined`` is False, which happens
    only for an event with zero cumulative hazard at its observed time.
    """

    cox_snell: np.ndarray
    martingale: np.ndarray
    deviance: np.ndarray
    deviance_defined: np.ndarray


def _check_count(name, value, minimum=1) -> None:
    """``InputError`` unless the count ``value`` is an integer of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise InputError(f"{name} must be an integer of at least {minimum}, got {value!r}")


def _seed_sequence(seed, spawn_key=()) -> np.random.SeedSequence:
    """The sub-seed of a non-negative integer ``seed`` at ``spawn_key``."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InputError("seed must be a non-negative integer")
    return np.random.SeedSequence(entropy=seed, spawn_key=spawn_key)


def _replicate_standard_error(replicates: np.ndarray):
    """Standard error of the mean over the first axis of ``replicates``;
    None below two replicates, whose spread is undefined."""
    n = len(replicates)
    if n < 2:
        return None
    return replicates.std(axis=0, ddof=1) / np.sqrt(n)


def background_sample(features: np.ndarray, cap: int) -> np.ndarray:
    """Fixed seeded subsample of background rows, returned in row order.

    Sorting the chosen indices makes the sample identical to the full matrix
    whenever cap >= n, which keeps averaged profiles bit-comparable with
    manual recomputations over the background.
    """
    _check_count("n_background", cap)
    n = features.shape[0]
    rng = np.random.default_rng(PROFILE_SAMPLE_SEED)
    idx = np.sort(rng.permutation(n)[: min(n, cap)])
    return features[idx]


def model_parts(
    explainer: Explainer,
    loss="brier_integrated",
    n_permutations: int = 10,
    seed: int = 42,
    variables=None,
) -> list[VariableImportance]:
    """Permutation variable importance of the explainer's background, one
    result per variable (each named at most once; by default all of them).

    ``loss`` is a name in ``metrics.LOSS_NAMES`` (``brier_integrated``,
    ``brier_curve``, ``cd_auc_integrated``, ``one_minus_cindex``), prepared
    once on the background and evaluated on each shuffled feature matrix, or a
    callable ``loss(explainer, data)``; larger values must mean worse performance.
    Each (variable, repetition) pair draws its permutation from a sub-seed
    split off the main seed, so results do not depend on evaluation order.
    """
    _check_count("n_permutations", n_permutations)
    _seed_sequence(seed)  # a bad seed or variable fails before the first prediction
    data = explainer.background
    if isinstance(variables, str):
        raise InputError(f"variables must be a list of names, got the string {variables!r}")
    variables = list(data.feature_names if variables is None else variables)
    columns = [data.column_index(name) for name in variables]
    if len(set(columns)) < len(columns):
        raise InputError(f"variables must be distinct, got {', '.join(map(repr, variables))}")
    if isinstance(loss, str):
        loss_of = _prepared_loss(loss, explainer, data)
    else:
        def loss_of(X):
            return loss(explainer, data.with_features(X))

    baseline = loss_of(data.features)
    results = []
    for name, j in zip(variables, columns):
        replicates = []
        for rep in range(n_permutations):
            rng = np.random.default_rng(_seed_sequence(seed, (j, rep)))
            shuffled = data.features.copy()
            shuffled[:, j] = shuffled[rng.permutation(data.n_observations), j]
            replicates.append(loss_of(shuffled))
        replicates = np.asarray(replicates)
        importance = np.mean(replicates - baseline, axis=0)
        if np.ndim(importance) == 0:
            importance = float(importance)
        results.append(
            VariableImportance(
                variable=name,
                baseline_loss=baseline,
                permuted_loss=baseline + importance,
                importance=importance,
                replicate_losses=replicates,
                standard_error=_replicate_standard_error(replicates),
            )
        )
    return results


def _stacked_means(explainer, sample, take, values, output_type="survival"):
    """Mean prediction over ``sample`` for each block of a stacked batch.

    Block b is ``sample`` with the columns where ``take[b]`` is set replaced
    by ``values[b]``; ``take`` and ``values`` broadcast to (blocks, p). Whole
    blocks go to the model together, as many per call as fit in
    ``_STACK_CELLS`` cells, and each block's mean is the same ordered sum
    over its rows that predicting it alone would give. A call's rows and
    predictions are dropped before the next call's rows are built.
    """
    take, values = np.broadcast_arrays(np.asarray(take, dtype=bool), values)
    m, p = sample.shape
    per_call = max(1, _STACK_CELLS // (m * len(explainer.grid)))
    time_shape = () if output_type == "risk" else (len(explainer.grid),)
    means = np.empty((len(take),) + time_shape)
    for start in range(0, len(take), per_call):
        stop = min(start + per_call, len(take))
        rows = np.where(take[start:stop, None, :], values[start:stop, None, :], sample)
        predicted = explainer.predict(rows.reshape(-1, p), output_type)
        means[start:stop] = predicted.reshape((stop - start, m) + time_shape).mean(axis=1)
        del rows, predicted
    return means


def model_profile(
    explainer: Explainer,
    variable: str,
    method: str = "pdp",
    grid_size: int | None = None,
    n_background: int = PROFILE_BACKGROUND_CAP,
    output_type: str = "survival",
) -> ProfileSurface:
    """One-variable effect profile.

    PDP averages predictions over the background sample with the variable
    fixed at each grid value; the grid is ``grid_size`` empirical quantiles
    of the variable (default 25, deduplicated). ALE accumulates local
    differences across quantile bins (default 10 bins) and centers the
    result to zero mean over grid points at every time.
    """
    if method not in ("pdp", "ale"):
        raise InputError(f"unknown profile method {method!r}; expected pdp or ale")
    output_type = _normalize_output_type(output_type)
    j = explainer.background.column_index(variable)
    column = explainer.background.features[:, j]
    sample = background_sample(explainer.background.features, n_background)
    if grid_size is None:
        grid_size = PDP_GRID_SIZE if method == "pdp" else ALE_BINS
    _check_count("grid_size", grid_size)

    if method == "pdp":
        grid_values = _quantile_grid(column, grid_size)
        take = np.arange(sample.shape[1]) == j
        values = _stacked_means(explainer, sample, take, grid_values[:, None], output_type)
        return ProfileSurface((grid_values,), values)

    edges = _quantile_grid(column, grid_size + 1)
    if len(edges) < 2:
        raise InputError(
            f"variable {variable!r} is constant; ALE needs at least two distinct bin edges"
        )
    # half-open bins (edges[k-1], edges[k]]; values at the lowest edge join bin 1
    assignment = np.clip(np.searchsorted(edges, sample[:, j], side="left"), 1, len(edges) - 1)
    zero = np.zeros(()) if output_type == "risk" else np.zeros(len(explainer.grid))
    upper = sample.copy()
    upper[:, j] = edges[assignment]
    lower = sample.copy()
    lower[:, j] = edges[assignment - 1]
    predicted = explainer.predict(np.concatenate([upper, lower]), output_type)
    delta = predicted[: len(sample)] - predicted[len(sample) :]
    effects = [
        delta[assignment == k].mean(axis=0) if np.any(assignment == k) else zero
        for k in range(1, len(edges))
    ]
    accumulated = np.concatenate([zero[None, ...], np.cumsum(effects, axis=0)])
    accumulated = accumulated - accumulated.mean(axis=0, keepdims=True)
    return ProfileSurface((edges,), accumulated)


def model_profile_2d(
    explainer: Explainer,
    variables,
    grid_size: int = 10,
    n_background: int = PROFILE_BACKGROUND_CAP,
    output_type: str = "survival",
) -> ProfileSurface:
    """Two-variable PDP surface, indexed (first grid, second grid[, time])."""
    pair = () if isinstance(variables, str) else tuple(variables)
    if len(pair) != 2:
        raise InputError(f"variables must be a list of two names, got {variables!r}")
    first, second = pair
    if first == second:
        raise InputError("model_profile_2d needs two distinct variables")
    output_type = _normalize_output_type(output_type)
    j1 = explainer.background.column_index(first)
    j2 = explainer.background.column_index(second)
    _check_count("grid_size", grid_size)
    grid1 = _quantile_grid(explainer.background.features[:, j1], grid_size)
    grid2 = _quantile_grid(explainer.background.features[:, j2], grid_size)
    sample = background_sample(explainer.background.features, n_background)

    p = sample.shape[1]
    take = np.isin(np.arange(p), (j1, j2))
    pinned = np.zeros((len(grid1), len(grid2), p))
    pinned[:, :, j1] = grid1[:, None]
    pinned[:, :, j2] = grid2[None, :]
    means = _stacked_means(explainer, sample, take, pinned.reshape(-1, p), output_type)
    values = means.reshape((len(grid1), len(grid2)) + means.shape[1:])
    return ProfileSurface((grid1, grid2), values)


def model_diagnostics(explainer: Explainer) -> ResidualSet:
    """Cox-Snell, martingale, and deviance residuals of each background observation.

    Cox-Snell residuals step-evaluate the explainer's cumulative hazard at
    each observed time. Deviance uses the 0·ln(0) = 0 convention for
    censored rows and is flagged undefined for an event with zero hazard.
    """
    data = explainer.background
    chf = explainer.predict(data.features, "chf")
    idx = np.searchsorted(explainer.grid.points, data.times, side="right") - 1
    cox_snell = np.where(
        idx >= 0, chf[np.arange(data.n_observations), np.clip(idx, 0, None)], 0.0
    )
    events = data.events.astype(float)
    martingale = events - cox_snell

    defined = ~((data.events == 1) & (cox_snell == 0.0))
    deviance = np.full(data.n_observations, np.nan)
    ok = np.where(defined)[0]
    with np.errstate(divide="ignore"):
        log_term = np.where(
            data.events[ok] == 1, np.log(events[ok] - martingale[ok]), 0.0
        )
    # clamp: the argument is nonnegative analytically but can round to -1e-32
    argument = np.maximum(-2.0 * (martingale[ok] + events[ok] * log_term), 0.0)
    deviance[ok] = np.sign(martingale[ok]) * np.sqrt(argument)
    return ResidualSet(
        cox_snell=cox_snell,
        martingale=martingale,
        deviance=deviance,
        deviance_defined=defined,
    )
