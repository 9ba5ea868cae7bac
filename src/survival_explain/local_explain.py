"""Prediction-level explanations: SurvSHAP(t), SurvLIME, and ICE profiles.

SurvSHAP attributes the gap between one prediction and the mean background
prediction to individual variables, per time point, with Shapley values of
the coalition game v(S)(t) = mean over background rows of the prediction
with coordinates in S taken from the explained instance. Exact enumeration
runs when the coalition count is desk-scale; otherwise permutation sampling
with telescoping marginal contributions keeps the efficiency identity exact
per sampled permutation. Both methods evaluate their K coalitions (all 2^p,
or the sampler's distinct prefixes) in one engine that predicts each distinct
coalition row once: the row for coalition S and background row b depends only
on S ∩ D(b), where D(b) holds the variables on which b differs from the
instance. A background row with 2^|D(b)| < K needs only its distinct rows
(Σ_b 2^|D(b)| in all for exact enumeration), found by reading each
coalition's bits on D(b) as an integer key into a lookup of 2^|D(b)|
entries; any other row is predicted for every coalition. Either way the cost
is the rows predicted, not the number of calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import TimeGrid
from .errors import InputError, NumericError
from .estimators import nelson_aalen
from .explainer import (
    _STACK_CELLS,
    SURVIVAL_FLOOR,
    Explainer,
    _normalize_output_type,
    _quantile_grid,
)
from .global_explain import (
    PROFILE_BACKGROUND_CAP,
    _check_count,
    _replicate_standard_error,
    _seed_sequence,
    background_sample,
)

# exact Shapley enumerates 2^p coalitions; beyond this the sampler takes over
EXACT_COALITION_LIMIT = 10
# the most variables an explicit method="exact" accepts: at 2^16 one explanation peaks
# at 78.8 MiB (tracemalloc, 47-point grid): the 23.5 MiB (2^p, T) value matrix, a gather
# buffer as large and a 2^p-entry gather index kept per distinct D(b) (its lookup has
# only 2^|D(b)| entries); each doubles per variable
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
    ridge fallback: the weighted design has lower rank than its column
    count (fewer neighbours than unknowns, say), or its normal equations
    fail to solve.
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


def _distinct_rows(table):
    """The index of the first of each distinct row of the 2-D bool ``table``,
    in the order ``np.unique(table, axis=0)`` gives, and each row's number
    among them. Rows are packed to bytes first: sorting short byte strings
    is some 60 times faster than ``axis=0`` at 100 columns."""
    packed = np.packbits(table, axis=1)
    _, first, inverse = np.unique(
        packed.view(np.dtype((np.void, packed.shape[1]))).ravel(),
        return_index=True,
        return_inverse=True,
    )
    return first, inverse


def _gather_tables(coalitions, patterns):
    """For each row D of the (g, p) bool table ``patterns``: the coalitions
    of the distinct S ∩ D, and each coalition's index into them, built once
    per distinct D and shared by the rows equal to it.

    A coalition's key is its bits on D as an integer, so the distinct keys
    are the distinct S ∩ D, found without a sort by a lookup of the 2^|D|
    possible keys; only rows with 2^|D| < K are gathered, so it has fewer
    than K entries. The index kept has K entries per distinct D. Each
    distinct key's coalition holds its bits on D and no variable off D,
    where the background row equals x anyway.
    """
    first, pattern_of = _distinct_rows(patterns)
    tables = []
    for pattern in patterns[first]:
        columns = np.flatnonzero(pattern)
        shifts = np.arange(len(columns))
        # exact in floating point: every key is below 2^|D| < K
        keys = (coalitions[:, columns].astype(float) @ 2.0**shifts).astype(np.intp)
        lookup = np.zeros(1 << len(columns), dtype=np.intp)
        lookup[keys] = 1
        distinct = np.flatnonzero(lookup)
        lookup[distinct] = np.arange(len(distinct))
        take = np.zeros((len(distinct), len(pattern)), dtype=bool)
        take[:, columns] = (distinct[:, None] >> shifts) & 1
        tables.append((take, lookup[keys]))
    return [tables[k] for k in pattern_of]


def _unit_rows(x, units):
    """The rows of ``units`` for one model call: each unit's background row
    with the variables set in each of its coalitions taken from ``x``, each
    cell picked bit for bit by a multiply (``np.where``'s branch per cell took
    twice as long on coalition tables). Built here so the pieces are freed
    before the call's predictions are summed: the peak is one call's rows."""
    rows = []
    for _, row, take, _, _ in units:
        bits = row.view(np.int64)
        picked = take * (x.view(np.int64) ^ bits)
        picked ^= bits
        rows.append(picked.view(np.float64))
    return rows[0] if len(rows) == 1 else np.concatenate(rows)


def _coalition_values(explainer, x, background, coalitions=None):
    """The (K, T) value matrix of the K coalitions in the (K, p) bool table
    ``coalitions``, by default all 2^p with bit j of row ``mask`` in column
    j: row k is the mean survival over ``background`` with the variables set
    in ``coalitions[k]`` taken from ``x``.

    Background row b differs from ``x`` only on D(b) (compared bit for bit),
    so its row for coalition S depends only on S ∩ D(b). When 2^|D(b)| < K,
    by pigeonhole its K rows repeat: it is one unit, its distinct rows,
    predicted once and gathered back to every coalition. Any other row is
    predicted for every coalition, in the fewest pieces of equal numbers of
    whole coalitions that fit ``_STACK_CELLS`` cells, each piece a unit. Each
    model call takes as many whole units as fit in that budget, and at least
    one. Each coalition adds its rows to a sum from zero in background-row
    order, the ordered sum ``_stacked_means`` takes, so for a row-wise model
    the values are bit-identical to it. Memory is the (K, T) matrix, one
    call's rows, and a (K, T) gather buffer once a row is gathered.
    """
    m, p = background.shape
    if coalitions is None:
        coalitions = ((np.arange(1 << p)[:, None] >> np.arange(p)) & 1).astype(bool)
    n_coalitions, n_times = len(coalitions), len(explainer.grid)
    per_call = max(1, _STACK_CELLS // n_times)
    differs = background.view(np.int64) != x.view(np.int64)
    # |D(b)| < bit_length(K - 1) exactly when 2^|D(b)| < K
    gathered = differs.sum(axis=1) < (n_coalitions - 1).bit_length()
    tables = iter(_gather_tables(coalitions, differs[gathered]))
    # equal pieces: a full piece then a short one made glibc trim and refault the
    # heap top on every row, 11 500 page faults per exact p = 10 explanation, not 300
    pieces = -(-n_coalitions // per_call)
    bounds = [n_coalitions * k // pieces for k in range(pieces + 1)]
    units = []  # (rows predicted, background row, coalitions taken, gather index, first coalition)
    for row, is_gathered in zip(background, gathered):
        if is_gathered:
            take, index = next(tables)
            units.append((len(take), row, take, index, 0))
        else:
            units += [
                (hi - lo, row, coalitions[lo:hi], None, lo) for lo, hi in zip(bounds, bounds[1:])
            ]
    total = np.zeros((n_coalitions, n_times))
    scratch = None
    start = 0
    while start < len(units):
        stop, n_rows = start + 1, units[start][0]
        while stop < len(units) and n_rows + units[stop][0] <= per_call:
            n_rows += units[stop][0]
            stop += 1
        predicted = explainer.predict(_unit_rows(x, units[start:stop]), "survival")
        offset = 0
        for size, _, _, index, lo in units[start:stop]:
            block = predicted[offset : offset + size]
            offset += size
            if index is None:
                total[lo : lo + size] += block
            else:
                if scratch is None:
                    scratch = np.empty_like(total)
                total += block.take(index, axis=0, out=scratch, mode="clip")
        start = stop
    total /= m
    return total


def _exact_shapley(explainer, x, background):
    """Exact phi, baseline and no standard error, from all 2^p coalitions.

    Row ``mask`` of the value matrix is the coalition whose bit j says
    whether variable j comes from ``x``. Viewed as a cube with one axis of
    length 2 per variable, bit j is axis p - 1 - j, and fixing that axis to
    0 or 1 leaves the coalitions without j, or with it added, in mask order.
    Each phi[j] weighs the differences v(S with j) - v(S) by the size of S,
    so a variable the model ignores gets exact zeros.
    """
    p = len(x)
    values = _coalition_values(explainer, x, background)
    n_times = values.shape[1]
    cube = values.reshape((2,) * p + (n_times,))
    by_size = np.array(
        [
            math.factorial(size) * math.factorial(p - size - 1) / math.factorial(p)
            for size in range(p)
        ]
    )
    weights = by_size[np.bitwise_count(np.arange(1 << (p - 1))), None]
    phi = np.empty((p, n_times))
    for j in range(p):
        axes = (slice(None),) * (p - 1 - j)
        gains = (cube[axes + (1,)] - cube[axes + (0,)]).reshape(-1, n_times)
        phi[j] = (weights * gains).sum(axis=0)
    # a copy, so a kept result does not hold the whole value matrix alive
    return phi, values[0].copy(), None


def _sampled_shapley(explainer, x, background, n_permutations, rng):
    """Permutation-sampled phi, the baseline, and phi's standard error.

    Each order's prefixes are coalitions; the distinct ones go to
    ``_coalition_values`` once, which predicts each distinct coalition row
    once. The step that adds variable j to order r is that order's
    contribution of j. The contributions telescope per order, so each order
    alone meets the efficiency identity.
    """
    p = len(x)
    orders = np.array([rng.permutation(p) for _ in range(n_permutations)])
    ranks = np.argsort(orders, axis=1)
    # prefixes[r, k] holds the first k variables of order r, k = 0..p
    prefixes = ranks[:, None, :] < np.arange(p + 1)[None, :, None]
    first, index = _distinct_rows(prefixes.reshape(-1, p))
    coalitions = prefixes.reshape(-1, p)[first]
    index = index.reshape(n_permutations, p + 1)
    values = _coalition_values(explainer, x, background, coalitions)
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
    if method == "sampling":
        _check_count("n_permutations", n_permutations)
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
    _check_count("n_neighbors", n_neighbors, 2)
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
    # singular normal equations can still solve in floating point, to an
    # arbitrary exact fit, so the weighted design's rank decides. Its rows
    # are an intercept and continuous random draws, so almost surely any
    # len(moment) of them are independent: its rank is the number of
    # neighbours with nonzero weight, capped at len(moment). (An SVD would
    # say the same and page about 1 MiB of LAPACK code into memory.)
    degenerate = np.count_nonzero(weights) < len(moment)
    if not degenerate:
        try:
            solution = np.linalg.solve(normal, moment)
            degenerate = not np.all(np.isfinite(solution))
        except np.linalg.LinAlgError:
            degenerate = True
    if degenerate:
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
        _check_count("grid_size", grid_size)
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
