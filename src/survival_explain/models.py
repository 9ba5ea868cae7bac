"""Reference survival models: Cox proportional hazards, Weibull AFT, Kaplan-Meier.

Both fittable models are maximized by Newton-Raphson with step-halving over
one prepared concave objective per model; the Cox objective sorts the risk
sets once per fit. Event-time ties are handled with the Breslow approximation
throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import StepCurve, SurvivalDataset, TimeGrid
from .errors import FitError, InputError
from .estimators import kaplan_meier

_MAX_ITER = 50
_TOL = 1e-9
_MAX_HALVINGS = 10
_DIVERGENCE_BOUND = 20.0

# A trial step can push exp(X beta) past a double's range either way, or make
# the Weibull shape non-positive. The log-likelihood and its derivatives then
# come out non-finite, quietly, and the step-halving in _newton_maximize
# rejects the step.
_QUIET_OVERFLOW = {"over": "ignore", "invalid": "ignore", "divide": "ignore"}

#: Survival is floored at this before any logarithm; the explainer caps hazards at its -log.
SURVIVAL_FLOOR = 1e-18


@dataclass
class CoxModel:
    """Proportional-hazards model: CHF(t|x) = H0(t) * exp(beta @ (x - feature_means))."""

    beta: np.ndarray
    baseline_chf: StepCurve
    feature_means: np.ndarray
    converged: bool = True


@dataclass
class WeibullAftModel:
    """Accelerated failure time model with S(t|x) = exp(-(t / lam(x))**shape),
    lam(x) = exp(intercept + coefficients @ x)."""

    shape: float
    intercept: float
    coefficients: np.ndarray
    converged: bool = True


@dataclass
class KaplanMeierModel:
    """Baseline model: the marginal Kaplan-Meier curve, independent of features."""

    curve: StepCurve


def fit_kaplan_meier(data: SurvivalDataset) -> KaplanMeierModel:
    return KaplanMeierModel(kaplan_meier(data))


# ---------------------------------------------------------------------------
# Cox partial likelihood (Breslow ties) and its derivatives
# ---------------------------------------------------------------------------

def _cox_objective(times, events, features):
    """Sort the risk sets once; return ``(evaluate, baseline)`` closures.

    ``evaluate(beta)`` is the Breslow partial (log-likelihood, gradient,
    Hessian), or the log-likelihood alone with ``derivatives=False``. With
    w = exp(X beta), m_k = S1_k / S0_k and c_i = sum(d_k / S0_k) over event
    times <= t_i, the Hessian is m^T diag(d) m - X^T diag(w c) X; c is the
    Breslow cumulative hazard that ``baseline(beta)`` returns.
    """
    order = np.argsort(times, kind="stable")
    t = times[order]
    X = features[order]
    is_event = events[order] == 1
    event_times, d = np.unique(t[is_event], return_counts=True)
    d = d.astype(float)
    first = np.searchsorted(t, event_times, side="left")
    last = np.searchsorted(event_times, t, side="right")  # event times <= t_i
    event_sum = X[is_event].sum(axis=0)

    def risk_set_sums(v):
        # sum of v over the rows at risk at each event time, i.e. from its first row on
        return np.cumsum(np.add.reduceat(v, first)[::-1], axis=0)[::-1]

    def evaluate(beta, derivatives=True):
        with np.errstate(**_QUIET_OVERFLOW):
            eta = X @ np.asarray(beta, dtype=float)
            w = np.exp(eta)
            s0 = risk_set_sums(w)
            ll = float(eta[is_event].sum() - d @ np.log(s0))
            if not derivatives:
                return ll
            m = risk_set_sums(w[:, None] * X) / s0[:, None]
            c = np.concatenate(([0.0], np.cumsum(d / s0)))[last]
            grad = event_sum - d @ m
            hess = (m.T * d) @ m - (X.T * (w * c)) @ X
        return ll, grad, hess

    def baseline(beta) -> StepCurve:
        with np.errstate(**_QUIET_OVERFLOW):
            chf = np.cumsum(d / risk_set_sums(np.exp(X @ beta)))
        if not np.all(np.isfinite(chf)):
            # separated data: the risk-set sums left a double's range
            raise FitError("Cox baseline hazard is not finite; the data may be separated")
        return StepCurve(event_times, chf, kind="chf")

    return evaluate, baseline


# ---------------------------------------------------------------------------
# Weibull AFT log-likelihood and derivatives
# ---------------------------------------------------------------------------

def _weibull_objective(times, events, features):
    """Return ``evaluate(params, derivatives=True)``, called like the Cox one.

    It gives the right-censored Weibull AFT log-likelihood: an event at t
    contributes the log density, a censoring contributes log S(t). ``params``
    is theta = (k, k*b, k*beta) for shape k, intercept b and coefficients
    beta. With u_i = (log t_i, -1, -x_i), w_i = u_i . theta is linear in
    theta, so the log-likelihood E log k + sum(e w - e log t - exp w) is
    concave for k > 0 (E is the event count) and non-finite for k <= 0.
    """
    log_t = np.log(times)
    U = np.column_stack((log_t, -np.ones(len(times)), -features))
    e = events
    n_events = float(e.sum())
    event_log_t = float(e @ log_t)

    def evaluate(params, derivatives=True):
        theta = np.asarray(params, dtype=float)
        with np.errstate(**_QUIET_OVERFLOW):
            w = U @ theta
            z = np.exp(w)
            ll = float(n_events * np.log(theta[0]) + e @ w - event_log_t - z.sum())
            if not derivatives:
                return ll
            grad = (e - z) @ U
            grad[0] += n_events / theta[0]
            H = -(U.T * z) @ U
            H[0, 0] -= n_events / theta[0] ** 2
        return ll, grad, H

    return evaluate


# ---------------------------------------------------------------------------
# Newton-Raphson driver
# ---------------------------------------------------------------------------

def _halving_search(theta, ll, objective, step):
    """Halve ``step`` until the log-likelihood stops decreasing.

    Returns (candidate, candidate_ll, accepted_step) or None when no scale
    of the step yields a finite, non-decreasing value.
    """
    for _ in range(_MAX_HALVINGS + 1):
        candidate = theta + step
        cand_ll = objective(candidate, derivatives=False)
        if np.isfinite(cand_ll) and cand_ll >= ll - 1e-10 * (1.0 + abs(ll)):
            return candidate, cand_ll, step
        step = step / 2.0
    return None


def _newton_maximize(theta, objective):
    """Maximize a concave objective by Newton steps with step-halving.

    ``objective(theta)`` returns (log-likelihood, gradient, Hessian), and
    step-halving trials ask it for the log-likelihood alone. Returns (theta,
    converged). When no halving keeps the log-likelihood finite and
    non-decreasing, which for a concave objective happens only where it
    flattens toward infinity, the fit stops unconverged.
    """
    ll = objective(theta, derivatives=False)
    if not np.isfinite(ll):
        raise FitError("log-likelihood not finite at the starting point")
    for _ in range(_MAX_ITER):
        _, g, H = objective(theta)
        if np.max(np.abs(g), initial=0.0) < _TOL:
            return theta, True
        try:
            step = np.linalg.solve(-H, g)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(-H, g, rcond=None)[0]
        found = _halving_search(theta, ll, objective, step)
        if found is None:
            return theta, False
        theta, ll, taken = found
        if np.max(np.abs(taken), initial=0.0) < _TOL:
            return theta, True
    return theta, False


def _centered_design(data: SurvivalDataset, name: str, positive_times=False):
    """Check ``data`` can fit the ``name`` model; return (means, active, X).

    The checks run in this order: at least two rows, at least one event,
    and with ``positive_times`` every time > 0. ``X`` is the centered
    features restricted to the ``active`` (non-constant) columns.
    """
    if data.n_observations < 2:
        raise InputError(f"{name} fitting needs at least two observations")
    if not np.any(data.events == 1):
        raise FitError(f"cannot fit a {name} model: no events observed")
    if positive_times and np.any(data.times <= 0):
        raise InputError(f"{name} fitting requires all times > 0")
    means = data.features.mean(axis=0)
    centered = data.features - means
    active = ~np.all(centered == 0.0, axis=0)
    return means, active, centered[:, active]


def fit_cox(data: SurvivalDataset) -> CoxModel:
    """Fit a Cox model by maximizing the Breslow partial likelihood.

    Features are centered internally; constant columns are uninformative and
    receive coefficient 0. Separation is caught by a divergence guard: a fit
    that returns any |beta_j| above 20 is flagged non-converged, and one
    whose Breslow baseline hazard overflows raises FitError.
    """
    means, active, X = _centered_design(data, "Cox")
    objective, baseline = _cox_objective(data.times, data.events, X)
    theta, converged = _newton_maximize(np.zeros(X.shape[1]), objective)

    beta = np.zeros(data.n_features)
    beta[active] = theta
    converged = converged and np.max(np.abs(beta), initial=0.0) <= _DIVERGENCE_BOUND
    return CoxModel(
        beta=beta, baseline_chf=baseline(theta), feature_means=means, converged=bool(converged)
    )


def fit_weibull_aft(data: SurvivalDataset) -> WeibullAftModel:
    """Fit the Weibull AFT model in (shape, shape * intercept, shape * coefficients),
    where its log-likelihood is concave, from the censored exponential MLE.

    All observation times must be strictly positive (the likelihood needs
    log t). Constant columns are excluded and reported with coefficient 0.
    A fit that returns any |coefficient| above 20 is flagged non-converged.
    """
    means, active, X = _centered_design(data, "Weibull AFT", positive_times=True)
    t, e = data.times, data.events

    start = np.concatenate(([1.0, math.log(t.sum() / e.sum())], np.zeros(X.shape[1])))
    theta, converged = _newton_maximize(start, _weibull_objective(t, e, X))

    shape = float(theta[0])
    coef = np.zeros(data.n_features)
    coef[active] = theta[2:] / shape
    converged = converged and np.max(np.abs(coef), initial=0.0) <= _DIVERGENCE_BOUND
    # undo the centering so lam(x) = exp(intercept + coef @ x) on raw features
    intercept = float(theta[1] / shape - coef @ means)
    return WeibullAftModel(
        shape=shape, intercept=intercept, coefficients=coef, converged=bool(converged)
    )


#: Each built-in model's name, as ``--model`` takes it, and its fit.
MODEL_FITS = {"km": fit_kaplan_meier, "cox": fit_cox, "weibull_aft": fit_weibull_aft}


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------

def _checked_features(model, X) -> np.ndarray:
    """``X`` as a 2-D float array with one column per feature of ``model``."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise InputError(f"feature matrix must be 2-dimensional, got shape {X.shape}")
    if isinstance(model, (CoxModel, WeibullAftModel)):
        width = len(model.beta if isinstance(model, CoxModel) else model.coefficients)
        if X.shape[1] != width:
            raise InputError(f"feature matrix has {X.shape[1]} columns, model expects {width}")
    return X


def predict_cumulative_hazard_matrix(model, X: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Cumulative hazard of a built-in model for every row of ``X`` at every
    grid point, (n, len(grid)).

    Cox: rr(x) * H0(t) with rr(x) = exp(beta @ (x - feature_means)).
    Weibull AFT: (t / lam(x))**shape. Both are uncapped. Kaplan-Meier: -log
    of its curve clipped to [``SURVIVAL_FLOOR``, 1], taken once over the grid
    and repeated for every row. Any other model raises ``InputError``.
    """
    X = _checked_features(model, X)
    if isinstance(model, KaplanMeierModel):
        H = -np.log(np.clip(model.curve.evaluate(grid.points), SURVIVAL_FLOOR, 1.0))
        return np.broadcast_to(H, (X.shape[0], len(grid))).copy()
    if isinstance(model, CoxModel):
        # row-wise reduction, not a matvec: keeps each row's linear predictor
        # bit-identical regardless of how the rows are batched
        relative_risk = np.exp(((X - model.feature_means) * model.beta).sum(axis=1))
        return np.outer(relative_risk, model.baseline_chf.evaluate(grid.points))
    if isinstance(model, WeibullAftModel):
        lam = np.exp(model.intercept + (X * model.coefficients).sum(axis=1))
        H = grid.points[None, :] / lam[:, None]
        H **= model.shape
        return H
    raise InputError(f"unsupported model type {type(model).__name__}; "
                     "pass a fitted built-in model or a prediction function")


def predict_survival_matrix(model, X: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Survival probabilities for every row of ``X`` at every grid point.

    Returns an (n, len(grid)) array in [0, 1]: exp(-H) of
    :func:`predict_cumulative_hazard_matrix` for Cox and Weibull AFT, and the
    Kaplan-Meier curve, which a user may build slightly outside [0, 1],
    clipped.
    """
    if isinstance(model, KaplanMeierModel):
        X = _checked_features(model, X)
        curve = np.clip(model.curve.evaluate(grid.points), 0.0, 1.0)
        return np.broadcast_to(curve, (X.shape[0], len(grid))).copy()
    # negation and exp run in place: a fresh (n, T) result costs more in
    # page faults than the arithmetic does
    H = predict_cumulative_hazard_matrix(model, X, grid)
    np.negative(H, out=H)
    return np.exp(H, out=H)
