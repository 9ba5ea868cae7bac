"""Prediction-level explanations: SurvSHAP(t), SurvLIME, and ICE profiles.

SurvSHAP attributes the gap between one prediction and the mean background
prediction to individual variables, per time point, with Shapley values of
the coalition game v(S)(t) = mean over background rows of the prediction
with coordinates in S taken from the explained instance. Exact enumeration
runs when the coalition count is desk-scale; otherwise permutation sampling
with telescoping marginal contributions keeps the efficiency identity exact
per sampled permutation. The sampler predicts each distinct coalition once,
its background rows stacked with those of other coalitions, whole coalitions
per model call. Exact enumeration goes further and predicts each distinct
coalition row once: the row for coalition S and background row b depends only
on S ∩ D(b), where D(b) holds the variables on which b differs from the
instance, so it needs Σ_b 2^|D(b)| rows instead of 2^p per background row.
Either way the cost is the rows predicted, not the number of calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import TimeGrid
from .errors import InputError, NumericError
from .estimators import nelson_aalen
from .explainer import SURVIVAL_FLOOR, Explainer, _normalize_output_type, _quantile_grid
from .global_explain import (
    PROFILE_BACKGROUND_CAP,
    _STACK_CELLS,
    _check_grid_size,
    _replicate_standard_error,
    _seed_sequence,
    _stacked_means,
    background_sample,
)

# exact Shapley enumerates 2^p coalitions; beyond this the sampler takes over
EXACT_COALITION_LIMIT = 10
# the most variables an explicit method="exact" accepts: at 2^16 coalitions the
# (2^p, T) value matrix is 27 MB on a 51-point grid, and it doubles per variable
EXACT_COALITION_MAX = 16
SURVLIME_RIDGE = 1e-8


@dataclass
class SurvShapResult:
    """Time-dependent Shapley attributions for one instance.

    ``phi[j, k]`` is variable j's contribution at grid point k; summed over j
    it reproduces prediction minus baseline (exactly for the exact method,
    and per sampled permutation for the sampler). ``aggregate`` is the
    span-normalized integral of |phi| per variable. ``standard_error`` is the
    sampler's Monte-Carlo standard error of each ``phi[j, k]`` (the std of the
    per-permutation contributions over sqrt(n_samples)); it is None for a
    single permutation and for exact enumeration.
    """

    times: TimeGrid
    phi: np.ndarray
    baseline: np.ndarray
    aggregate: np.ndarray
    method: str
    n_samples: int
    seed: int | None
    standard_error: np.ndarray | None = None


@dataclass
class SurvLimeResult:
    """Surrogate Cox coefficients explaining one prediction.

    ``fit_residual`` is the weighted least-squares objective at the optimum,
    a local-fidelity indicator: near zero means the black box behaves like a
    proportional-hazards model around the instance. ``degenerate`` marks a
    ridge fallback after singular normal equations.
    """

    surrogate_beta: np.ndarray
    neighborhood_size: int
    kernel_width: float
    fit_residual: float
    degenerate: bool = False


@dataclass
class IceProfile:
    """Individual conditional expectation curves for one instance.

    ``curves[g]`` is the prediction with the variable forced to
    ``grid_values[g]``; the row at the instance's own value reproduces the
    unmodified prediction. Risk output drops the time axis.
    """

    variable: str
    grid_values: np.ndarray
    times: TimeGrid
    curves: np.ndarray
    observed_value: float
    output_type: str


@dataclass
class GlobalSurvShap:
    """SurvSHAP results for an ensemble of instances plus their aggregates.

    ``beeswarm_data[i, j]`` is (feature value, signed span-normalized
    integral of phi) for instance i and variable j, the raw material for
    bee swarm and dependence plots. ``importance_ranking`` averages the
    unsigned per-instance aggregates.
    """

    per_instance: list
    mean_abs_phi: np.ndarray
    importance_ranking: np.ndarray
    beeswarm_data: np.ndarray


def _coalition_values(explainer, x, background):
    """The (2^p, T) value matrix: row S is the mean survival over
    ``background`` with the variables in coalition S taken from ``x``.

    Background row b differs from ``x`` only on D(b) (compared bit for bit),
    so its row for S depends only on S ∩ D(b): it needs the 2^|D(b)| distinct
    rows of ``masks & D(b)`` predicted, not 2^p. Each background row is one
    unit, except that a row whose D(b) is every variable, so that coalition S
    reads its row S, is cut into equal pieces within ``_STACK_CELLS`` cells.
    Each model call takes as many whole units as fit in that budget, and at
    least one. Each unit is added to a sum from zero in background-row
    order, the ordered sum ``_stacked_means`` takes over all 2^p coalition
    blocks, so for a row-wise model the values are bit-identical to it.
    """
    m, p = background.shape
    per_call = max(1, _STACK_CELLS // len(explainer.grid))
    masks = np.arange(1 << p)
    differs = background.view(np.int64) != x.view(np.int64)
    patterns, pattern_of = np.unique(differs @ (1 << np.arange(p)), return_inverse=True)
    tables = []
    for pattern in patterns:
        keys, index = np.unique(masks & pattern, return_inverse=True)
        take = ((keys[:, None] >> np.arange(p)) & 1).astype(bool)
        tables.append((take, None if len(keys) == len(masks) else index))
    units = []  # (background row, its take rows, its gather index, first coalition row)
    for row, pattern in zip(background, pattern_of):
        take, index = tables[pattern]
        size = len(take)
        if index is None:
            # equal pieces: a full piece then a short one made glibc trim and
            # refault the heap top on every block, 11 500 page faults per
            # p = 10 explanation against 300
            pieces = -(-size // per_call)
            size = -(-size // pieces)
        units += [(row, take[lo : lo + size], index, lo) for lo in range(0, len(take), size)]
    total = np.zeros((1 << p, len(explainer.grid)))
    gathered = np.empty_like(total)
    start = 0
    while start < len(units):
        stop, n_rows = start + 1, len(units[start][1])
        while stop < len(units) and n_rows + len(units[stop][1]) <= per_call:
            n_rows += len(units[stop][1])
            stop += 1
        rows = np.concatenate([np.where(take, x, row) for row, take, _, _ in units[start:stop]])
        predicted = explainer.predict(rows, "survival")
        offset = 0
        for _, take, index, lo in units[start:stop]:
            block = predicted[offset : offset + len(take)]
            offset += len(take)
            if index is None:
                total[lo : lo + len(take)] += block
            else:
                total += np.take(block, index, axis=0, out=gathered, mode="clip")
        start = stop
    total /= m
    return total


def _exact_shapley(explainer, x, background):
    """Exact phi, baseline and no standard error, from all 2^p coalitions.

    Row ``mask`` of the value matrix is the coalition whose bit j says
    whether variable j comes from ``x``. Each phi[j] weighs the differences
    v(S with j) - v(S), so a variable the model ignores gets exact zeros.
    """
    p = len(x)
    masks = np.arange(1 << p)
    values = _coalition_values(explainer, x, background)
    sizes = np.bitwise_count(masks)
    weights = np.array(
        [
            math.factorial(size) * math.factorial(p - size - 1) / math.factorial(p)
            for size in range(p)
        ]
    )
    phi = np.empty((p, values.shape[1]))
    for j in range(p):
        without = masks[(masks >> j) & 1 == 0]
        gains = values[without | (1 << j)] - values[without]
        phi[j] = (weights[sizes[without], None] * gains).sum(axis=0)
    # a copy, so a kept result does not hold the whole value matrix alive
    return phi, values[0].copy(), None


def _sampled_shapley(explainer, x, background, n_permutations, rng):
    """Permutation-sampled phi, the baseline, and phi's standard error.

    Each order's prefixes are coalitions; the distinct ones are predicted
    once, and the step that adds variable j to order r is that order's
    contribution of j. The contributions telescope per order, so each order
    alone meets the efficiency identity.
    """
    p = len(x)
    orders = np.array([rng.permutation(p) for _ in range(n_permutations)])
    ranks = np.argsort(orders, axis=1)
    # prefixes[r, k] holds the first k variables of order r, k = 0..p
    prefixes = ranks[:, None, :] < np.arange(p + 1)[None, :, None]
    coalitions, index = np.unique(prefixes.reshape(-1, p), axis=0, return_inverse=True)
    index = index.reshape(n_permutations, p + 1)
    values = _stacked_means(explainer, background, coalitions, x)
    contributions = (
        values[np.take_along_axis(index, ranks + 1, axis=1)]
        - values[np.take_along_axis(index, ranks, axis=1)]
    )
    standard_error = _replicate_standard_error(contributions)
    return contributions.mean(axis=0), values[index[0, 0]].copy(), standard_error


def _check_instance(explainer, x) -> np.ndarray:
    """``x`` as floats; ``InputError`` unless finite, 1-D, one entry per feature."""
    x = np.asarray(x, dtype=float)
    p = explainer.background.n_features
    if x.shape != (p,) or p == 0:
        raise InputError(
            f"instance must be a nonempty 1-D vector of {p} features, got shape {x.shape}"
        )
    if not np.all(np.isfinite(x)):
        raise InputError("instance contains non-finite values")
    return x


def _span_normalized_integral(curves: np.ndarray, grid: TimeGrid) -> np.ndarray:
    return np.trapezoid(curves, grid.points, axis=-1) / grid.span


def _survshap_setup(explainer, n_background, method, n_permutations, seed):
    """Check every SurvSHAP argument but the instance, once per call and before
    any prediction; return the method ("auto" resolved) and background sample."""
    p = explainer.background.n_features
    if method not in ("auto", "exact", "sampling"):
        raise InputError(f"unknown method {method!r}; expected auto, exact, or sampling")
    if method == "auto":
        method = "exact" if p <= EXACT_COALITION_LIMIT else "sampling"
    if method == "exact" and p > EXACT_COALITION_MAX:
        raise InputError(
            f"exact SurvSHAP enumerates 2^{p} coalitions, more than the 2^{EXACT_COALITION_MAX} "
            "it allows; use method 'sampling'"
        )
    if method == "sampling" and n_permutations < 1:
        raise InputError("n_permutations must be at least 1")
    _seed_sequence(seed)
    return method, background_sample(explainer.background.features, n_background)


def _survshap(explainer, x, background, method, n_permutations, seed_sequence, seed):
    """SurvSHAP of one checked instance; ``seed`` is only reported."""
    if method == "exact":
        phi, baseline, standard_error = _exact_shapley(explainer, x, background)
        n_samples = 1 << len(x)
    else:
        phi, baseline, standard_error = _sampled_shapley(
            explainer, x, background, n_permutations, np.random.default_rng(seed_sequence)
        )
        n_samples = n_permutations
    return SurvShapResult(
        times=explainer.grid,
        phi=phi,
        baseline=baseline,
        aggregate=_span_normalized_integral(np.abs(phi), explainer.grid),
        method=method,
        n_samples=n_samples,
        seed=seed,
        standard_error=standard_error,
    )


def predict_parts_survshap(
    explainer: Explainer,
    x,
    n_background: int = PROFILE_BACKGROUND_CAP,
    method: str = "auto",
    n_permutations: int = 100,
    seed: int = 42,
) -> SurvShapResult:
    """SurvSHAP(t) attributions for a single instance.

    ``method`` "auto" enumerates all coalitions exactly up to 10 variables
    and falls back to permutation sampling above that; "exact" accepts at
    most ``EXACT_COALITION_MAX`` (16) variables. The background is capped by a
    fixed-seed subsample so that ``seed``, a non-negative integer, only moves the
    Monte-Carlo sampling, never the value function being estimated.
    """
    x = _check_instance(explainer, x)
    method, background = _survshap_setup(explainer, n_background, method, n_permutations, seed)
    return _survshap(explainer, x, background, method, n_permutations, _seed_sequence(seed), seed)


def predict_parts_survlime(
    explainer: Explainer, x, n_neighbors: int = 100, seed: int = 42
) -> SurvLimeResult:
    """SurvLIME surrogate coefficients for a single instance.

    Neighbors are Gaussian perturbations of the instance scaled by the
    per-feature background standard deviation; the surrogate is a weighted
    least-squares fit of the time-averaged log cumulative-hazard offset from
    the Nelson-Aalen baseline, which for a proportional-hazards black box is
    exactly linear in the features.
    """
    x = _check_instance(explainer, x)
    if n_neighbors < 2:
        raise InputError("n_neighbors must be at least 2")
    features = explainer.background.features
    scale = features.std(axis=0)
    rng = np.random.default_rng(_seed_sequence(seed))
    # zero-variance features get scale 0 and stay pinned at the instance value
    neighbors = x[None, :] + rng.standard_normal((n_neighbors, len(x))) * scale[None, :]

    # mean distance over the pairs i < j, one row at a time: O(m^2) floats, not (m, m, p)
    pairwise = np.empty(n_neighbors * (n_neighbors - 1) // 2)
    start = 0
    for i in range(n_neighbors - 1):
        stop = start + n_neighbors - 1 - i
        pairwise[start:stop] = np.sqrt(((neighbors[i] - neighbors[i + 1 :]) ** 2).sum(axis=1))
        start = stop
    sigma = pairwise.mean()
    if sigma == 0.0:
        raise NumericError("SurvLIME neighborhood collapsed: zero kernel width")
    offsets = ((neighbors - x[None, :]) ** 2).sum(axis=1)
    weights = np.exp(-offsets / sigma**2)
    if not weights.any():
        raise NumericError("SurvLIME kernel weights are all zero")

    grid = explainer.grid
    baseline_chf = np.clip(nelson_aalen(explainer.background).evaluate(grid.points), SURVIVAL_FLOOR, None)
    neighbor_chf = np.clip(explainer.predict(neighbors, "chf"), SURVIVAL_FLOOR, None)
    log_offset = np.log(neighbor_chf) - np.log(baseline_chf)[None, :]
    # grid spacing measured from t = 0 so every grid point carries weight
    spacing = np.diff(grid.points, prepend=0.0)
    targets = log_offset @ spacing / spacing.sum()

    active = scale > 0
    design = np.column_stack(
        [np.ones(n_neighbors), neighbors[:, active] - features.mean(axis=0)[active][None, :]]
    )
    weighted = design.T * weights
    normal = weighted @ design
    moment = weighted @ targets
    degenerate = False
    try:
        solution = np.linalg.solve(normal, moment)
        if not np.all(np.isfinite(solution)):
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        degenerate = True
        solution = np.linalg.solve(normal + SURVLIME_RIDGE * np.eye(len(moment)), moment)

    beta = np.zeros(len(x))
    beta[active] = solution[1:]
    residual = float(weights @ (targets - design @ solution) ** 2)
    return SurvLimeResult(
        surrogate_beta=beta,
        neighborhood_size=n_neighbors,
        kernel_width=float(sigma),
        fit_residual=residual,
        degenerate=degenerate,
    )


def predict_profile(
    explainer: Explainer,
    x,
    variable: str,
    grid_size: int = 25,
    output_type: str = "survival",
    grid_values=None,
) -> IceProfile:
    """ICE curves: the instance's prediction as one variable sweeps a grid.

    The default grid is the variable's background quantiles with the
    instance's own value inserted; pass ``grid_values`` to evaluate on an
    explicit grid instead (sorted and deduplicated, no insertion), e.g. to
    average ICE curves against a PDP on the identical grid.
    """
    x = _check_instance(explainer, x)
    output_type = _normalize_output_type(output_type)
    j = explainer.background.column_index(variable)
    if grid_values is None:
        column = explainer.background.features[:, j]
        _check_grid_size(grid_size)
        grid_values = np.unique(np.append(_quantile_grid(column, grid_size), x[j]))
    else:
        grid_values = np.asarray(grid_values, dtype=float)
        if grid_values.ndim > 1:
            raise InputError(f"grid_values must be one-dimensional, got shape {grid_values.shape}")
        grid_values = np.unique(grid_values)
        if not grid_values.size:
            raise InputError("grid_values must be nonempty")
        if not np.all(np.isfinite(grid_values)):
            raise InputError("grid_values must be finite")

    batch = np.repeat(x[None, :], len(grid_values), axis=0)
    batch[:, j] = grid_values
    curves = explainer.predict(batch, output_type)
    return IceProfile(
        variable=variable,
        grid_values=grid_values,
        times=explainer.grid,
        curves=curves,
        observed_value=float(x[j]),
        output_type=output_type,
    )


def model_survshap(
    explainer: Explainer,
    X,
    n_background: int = PROFILE_BACKGROUND_CAP,
    method: str = "auto",
    n_permutations: int = 100,
    seed: int = 42,
) -> GlobalSurvShap:
    """SurvSHAP(t) for every row of X plus dataset-level aggregates.

    Each row gets an independent sub-seed split from ``seed`` so results do
    not depend on evaluation order. Mean absolute attributions and the
    importance ranking average over instances.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    if X.ndim != 2 or X.shape[0] < 1:
        raise InputError("X must be a nonempty instance matrix")

    method, background = _survshap_setup(explainer, n_background, method, n_permutations, seed)
    per_instance = []
    for i, row in enumerate(X):
        try:
            x, row_seed = _check_instance(explainer, row), _seed_sequence(seed, (i,))
            per_instance.append(
                _survshap(explainer, x, background, method, n_permutations, row_seed, None)
            )
        except (InputError, NumericError) as error:
            raise type(error)(f"row {i}: {error}") from error

    phis = np.stack([result.phi for result in per_instance])
    aggregates = np.stack([result.aggregate for result in per_instance])
    signed = np.stack(
        [_span_normalized_integral(result.phi, explainer.grid) for result in per_instance]
    )
    beeswarm = np.stack([X, signed], axis=-1)
    return GlobalSurvShap(
        per_instance=per_instance,
        mean_abs_phi=np.abs(phis).mean(axis=0),
        importance_ranking=aggregates.mean(axis=0),
        beeswarm_data=beeswarm,
    )
