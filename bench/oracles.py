"""Independent re-computations of what the library reports.

Nothing here imports ``survival_explain``. Each function follows the
library's documented convention (IPCW weights 1/G(t_i-) and 1/G(t), ties in
risk worth one half, Breslow ties, the fixed-seed profile background, the
``SeedSequence`` splits of the samplers) but computes it another way: sort
and ``searchsorted`` counting in place of n x n pair matrices, closed-form
model predictions in place of the library's prediction path, and coalition
values for all 2^p masks at once in place of cached recursion. The tests in
``bench/tests`` hold each of these against a plain double loop.
"""

from __future__ import annotations

import math

import numpy as np

# Conventions of the library that the checks rely on.
SURVIVAL_FLOOR = 1e-18
GRID_CAP = 51
PROFILE_SAMPLE_SEED = 42
PAIR_CHUNK = 512


# -- step functions and estimators -------------------------------------------

def step_right(jumps, values, t, before):
    """Right-continuous step function: value at the last jump <= t."""
    idx = np.searchsorted(jumps, t, side="right") - 1
    return np.where(idx >= 0, values[np.maximum(idx, 0)], before)


def step_left(jumps, values, t, before):
    """Left limit: value at the last jump < t."""
    idx = np.searchsorted(jumps, t, side="left") - 1
    return np.where(idx >= 0, values[np.maximum(idx, 0)], before)


def censoring_km(times, events):
    """(jump times, G) of the product-limit estimate of the censoring law.

    Censorings are the "events"; the risk set at c counts every row with an
    observed time >= c, events at c included.
    """
    order = np.sort(times)
    jumps, d = np.unique(times[events == 0], return_counts=True)
    at_risk = len(order) - np.searchsorted(order, jumps, side="left")
    return jumps, np.cumprod(1.0 - d / at_risk)


def default_grid(times, events, cap=GRID_CAP):
    """Distinct positive event times, or ``cap`` of their quantiles."""
    event_times = times[(events == 1) & (times > 0)]
    unique = np.unique(event_times)
    if len(unique) > cap:
        unique = np.unique(np.quantile(event_times, np.linspace(0.0, 1.0, cap)))
    return unique


def quantile_grid(values, size):
    return np.unique(np.quantile(values, np.linspace(0.0, 1.0, size)))


def background_rows(n, cap):
    """Row indices of the library's fixed-seed profile background sample."""
    rng = np.random.default_rng(PROFILE_SAMPLE_SEED)
    return np.sort(rng.permutation(n)[: min(n, cap)])


def integrated_mean(grid, values, defined):
    """Trapezoid average over the defined points, as an explicit panel sum."""
    t = np.asarray(grid, dtype=float)[defined]
    v = np.asarray(values, dtype=float)[defined]
    if len(t) < 2 or t[-1] == t[0]:
        return None
    return float(span_mean(v, t))


def span_mean(curves, grid):
    """Span-normalized trapezoid integral along the last axis."""
    panels = 0.5 * (curves[..., 1:] + curves[..., :-1]) * np.diff(grid)
    return panels.sum(axis=-1) / (grid[-1] - grid[0])


def risk_from_survival(S):
    """The library's relative-risk scalar: grid sum of -log S (floored)."""
    return -np.log(np.clip(S, SURVIVAL_FLOOR, 1.0)).sum(axis=1)


# -- metrics --------------------------------------------------------------------

def brier(times, events, S, grid):
    """IPCW Brier score per grid point: (values, defined, integrated).

    The mean runs over all n rows: past events weigh 1/G(t_i-), rows still
    at risk 1/G(t), rows censored by t weigh 0. A row whose weight would
    divide by G = 0 leaves both the sum and the count.
    """
    jumps, G = censoring_km(times, events)
    values = np.full(len(grid), np.nan)
    defined = np.zeros(len(grid), dtype=bool)
    g_before = step_left(jumps, G, times, 1.0)
    for k, t in enumerate(grid):
        g_t = float(step_right(jumps, G, t, 1.0))
        past = (times <= t) & (events == 1)
        risk = times > t
        dropped = (past & (g_before == 0)).sum() + (risk.sum() if g_t == 0 else 0)
        used = len(times) - dropped
        if used == 0:
            continue
        past &= g_before > 0
        total = (S[past, k] ** 2 / g_before[past]).sum()
        if g_t > 0:
            total += ((1.0 - S[risk, k]) ** 2).sum() / g_t
        values[k] = total / used
        defined[k] = True
    return values, defined, integrated_mean(grid, values, defined)


def _below_and_tied(sorted_values, queries):
    """For each query: count of sorted values strictly below it, and equal to it."""
    lo = np.searchsorted(sorted_values, queries, side="left")
    hi = np.searchsorted(sorted_values, queries, side="right")
    return lo, hi - lo


def cd_auc(times, events, risk, grid):
    """Cumulative/dynamic AUC per grid point: (values, defined, integrated).

    Cases (events by t) weigh 1/G(t_i-)^2, controls are rows beyond t, and
    a tie in risk is worth one half. Counting is by sorted controls.
    """
    jumps, G = censoring_km(times, events)
    g_before = step_left(jumps, G, times, 1.0)
    with np.errstate(divide="ignore"):
        w = np.where(g_before > 0, 1.0 / g_before**2, 0.0)
    values = np.full(len(grid), np.nan)
    defined = np.zeros(len(grid), dtype=bool)
    for k, t in enumerate(grid):
        cases = (times <= t) & (events == 1)
        controls = np.sort(risk[times > t])
        denominator = w[cases].sum() * len(controls)
        if denominator == 0:
            continue
        below, tied = _below_and_tied(controls, risk[cases])
        values[k] = (w[cases] * (below + 0.5 * tied)).sum() / denominator
        defined[k] = True
    return values, defined, integrated_mean(grid, values, defined)


def harrell_c(times, events, risk, chunk=PAIR_CHUNK):
    """Harrell's C over pairs with t_i < t_j strictly and an event at i.

    Works through the event rows in chunks, so memory stays chunk x n.
    """
    rows = np.flatnonzero(events == 1)
    concordant = 0.0
    comparable = 0
    for start in range(0, len(rows), chunk):
        i = rows[start : start + chunk]
        later = times[i, None] < times[None, :]
        lower = risk[i, None] > risk[None, :]
        equal = risk[i, None] == risk[None, :]
        comparable += int(later.sum())
        concordant += float((later & lower).sum()) + 0.5 * float((later & equal).sum())
    return concordant / comparable


def mann_whitney_auc(positive, negative):
    """P(positive score > negative score) + P(tie) / 2, by sorting."""
    below, tied = _below_and_tied(np.sort(negative), positive)
    return float((below + 0.5 * tied).sum() / (len(positive) * len(negative)))


# -- models -----------------------------------------------------------------------

def cox_breslow(times, events, X, beta):
    """Score vector and Breslow baseline CHF of a Cox model at ``beta``.

    ``X`` is centered here (column means), matching the library's internal
    centering; returns (score, means, event_times, baseline_chf).
    """
    means = X.mean(axis=0)
    Z = X - means
    w = np.exp(Z @ beta)
    event_times, d = np.unique(times[events == 1], return_counts=True)
    score = Z[events == 1].sum(axis=0)
    hazard = np.empty(len(event_times))
    for k, t in enumerate(event_times):
        at_risk = times >= t
        s0 = w[at_risk].sum()
        score -= d[k] * (w[at_risk] @ Z[at_risk]) / s0
        hazard[k] = d[k] / s0
    return score, means, event_times, np.cumsum(hazard)


def cox_survival(X, beta, means, h0_times, h0_values, grid):
    """(n, T) survival of a Cox model, clamped to [0, 1]."""
    h0 = step_right(h0_times, h0_values, grid, 0.0)
    relative = np.exp((X - means) @ beta)
    return np.clip(np.exp(-relative[:, None] * h0[None, :]), 0.0, 1.0)


def weibull_survival(X, shape, intercept, coefficients, grid):
    """(n, T) survival of S(t|x) = exp(-(t / exp(intercept + coef @ x))^shape)."""
    lam = np.exp(intercept + X @ coefficients)
    return np.exp(-((grid[None, :] / lam[:, None]) ** shape))


# -- explanations -----------------------------------------------------------------

def all_masks(p):
    """(2^p, p) boolean matrix; row m holds the bits of coalition m."""
    m = np.arange(1 << p)
    return ((m[:, None] >> np.arange(p)[None, :]) & 1).astype(bool)


def coalition_values(predict, x, background):
    """v(S)(t) for every coalition: mean prediction with S taken from x.

    ``predict`` maps an (m, p) matrix to (m, T) survival; returns (2^p, T).
    """
    masks = all_masks(len(x))
    values = []
    for mask in masks:
        batch = np.where(mask[None, :], x[None, :], background)
        values.append(predict(batch).mean(axis=0))
    return np.stack(values)


def shapley_exact(v):
    """Exact Shapley values (p, T) from the (2^p, T) coalition values."""
    p = int(round(math.log2(v.shape[0])))
    masks = all_masks(p)
    sizes = masks.sum(axis=1)
    weight = np.array([math.factorial(s) * math.factorial(p - s - 1) / math.factorial(p)
                       for s in range(p)])
    phi = np.zeros((p, v.shape[1]))
    for j in range(p):
        without = np.flatnonzero(~masks[:, j])
        phi[j] = (weight[sizes[without]][:, None] * (v[without | (1 << j)] - v[without])).sum(axis=0)
    return phi


def permutation_orders(seed_sequence, p, n_permutations):
    """The variable orders the permutation sampler draws from ``seed_sequence``."""
    rng = np.random.default_rng(seed_sequence)
    return [rng.permutation(p) for _ in range(n_permutations)]


def shapley_sampled(v, orders):
    """Telescoping estimate of phi (p, T) averaged along ``orders``."""
    p = len(orders[0])
    phi = np.zeros((p, v.shape[1]))
    for order in orders:
        mask = 0
        for j in order:
            phi[j] += v[mask | (1 << int(j))] - v[mask]
            mask |= 1 << int(j)
    return phi / len(orders)


def marginal_spread(v):
    """(sigma, largest deviation) of one sampled order's marginal contribution.

    Under a uniformly random order, variable j's predecessors are the
    coalition S with probability |S|! (p - |S| - 1)! / p!, so the exact
    distribution of v(S + j) - v(S) around phi_j is known; both arrays are (p, T).
    """
    p = int(round(math.log2(v.shape[0])))
    masks = all_masks(p)
    sizes = masks.sum(axis=1)
    weight = np.array([math.factorial(s) * math.factorial(p - s - 1) / math.factorial(p)
                       for s in range(p)])
    phi = shapley_exact(v)
    sigma = np.zeros_like(phi)
    largest = np.zeros_like(phi)
    for j in range(p):
        without = np.flatnonzero(~masks[:, j])
        deviation = v[without | (1 << j)] - v[without] - phi[j]
        sigma[j] = np.sqrt((weight[sizes[without]][:, None] * deviation**2).sum(axis=0))
        largest[j] = np.abs(deviation).max(axis=0)
    return sigma, largest


def column_permutation(seed, j, rep, n):
    """Row permutation model_parts applies to column j in repetition rep."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(j, rep)))
    return rng.permutation(n)


def nelson_aalen(times, events, grid):
    event_times, d = np.unique(times[events == 1], return_counts=True)
    at_risk = (times[None, :] >= event_times[:, None]).sum(axis=1)
    return step_right(event_times, np.cumsum(d / at_risk), grid, 0.0)


def survlime(predict_chf, x, background_X, background_times, background_events, grid,
             n_neighbors, seed):
    """SurvLIME surrogate coefficients by weighted least squares.

    Neighbors: Gaussian perturbations of x scaled by the background standard
    deviation (``SeedSequence(seed)``); kernel exp(-d^2 / sigma^2) with sigma
    the mean pairwise neighbor distance; target: the spacing-weighted time
    average of log CHF minus the log Nelson-Aalen baseline. Returns
    (beta, sigma, clipped) where ``clipped`` says whether any neighbor CHF
    hit the survival floor, which breaks proportional-hazards linearity.
    """
    scale = background_X.std(axis=0)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    neighbors = x[None, :] + rng.standard_normal((n_neighbors, len(x))) * scale[None, :]
    iu = np.triu_indices(n_neighbors, k=1)
    sigma = float(np.sqrt(((neighbors[iu[0]] - neighbors[iu[1]]) ** 2).sum(axis=1)).mean())
    weights = np.exp(-((neighbors - x) ** 2).sum(axis=1) / sigma**2)
    raw_chf = predict_chf(neighbors)
    ceiling = -math.log(SURVIVAL_FLOOR)
    clipped = bool((raw_chf >= ceiling).any())
    chf = np.clip(np.minimum(raw_chf, ceiling), SURVIVAL_FLOOR, None)
    baseline = np.clip(nelson_aalen(background_times, background_events, grid), SURVIVAL_FLOOR, None)
    spacing = np.diff(grid, prepend=0.0)
    targets = (np.log(chf) - np.log(baseline)) @ spacing / spacing.sum()
    active = scale > 0
    design = np.column_stack([np.ones(n_neighbors), neighbors[:, active]])
    root = np.sqrt(weights)[:, None]
    solution = np.linalg.lstsq(design * root, targets * root[:, 0], rcond=None)[0]
    beta = np.zeros(len(x))
    beta[active] = solution[1:]
    return beta, sigma, clipped
