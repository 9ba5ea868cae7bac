import numpy as np
import pytest

from survival_explain import SurvivalDataset, explain, fit_cox


def make_dataset(times, events, features=None, names=None):
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=int)
    if features is None:
        features = np.empty((len(times), 0))
        names = ()
    features = np.asarray(features, dtype=float)
    if names is None:
        names = tuple(f"x{j}" for j in range(features.shape[1]))
    return SurvivalDataset(times=times, events=events, features=features, feature_names=tuple(names))


def simulate_cox(n, beta, seed, baseline_rate=0.1, censor_factor=1.5):
    """Exponential event times with proportional hazards plus random censoring."""
    rng = np.random.default_rng(seed)
    beta = np.asarray(beta, dtype=float)
    features = rng.normal(size=(n, len(beta)))
    hazards = baseline_rate * np.exp(features @ beta)
    event_times = rng.exponential(1.0 / hazards)
    censor_times = rng.exponential(event_times.mean() * censor_factor, size=n)
    times = np.minimum(event_times, censor_times)
    events = (event_times <= censor_times).astype(int)
    if not events.any():
        events[np.argmax(times)] = 1
    return make_dataset(times, events, features)


def simulate_cohort(n, p, seed):
    """Clinical-style covariates with proportional-hazards exponential times.

    Even columns are continuous and rounded to two decimals; odd columns are
    binary, so many rows share values with any given instance.
    """
    rng = np.random.default_rng(seed)
    features = np.empty((n, p))
    for j in range(p):
        if j % 2:
            features[:, j] = (rng.random(n) < 0.3 + 0.05 * j).astype(float)
        else:
            features[:, j] = np.round(60.0 + 10.0 * rng.normal(size=n), 2)
    spread = features.std(axis=0)
    standardized = (features - features.mean(axis=0)) / np.where(spread > 0, spread, 1.0)
    event_times = rng.exponential(20.0 * np.exp(-standardized @ np.linspace(0.5, -0.5, p)))
    censor_times = rng.exponential(40.0, size=n)
    times = np.maximum(np.ceil(np.minimum(event_times, censor_times)), 1.0)
    events = (event_times <= censor_times).astype(int)
    events[np.argmax(times)] = 1
    return make_dataset(times, events, features)


@pytest.fixture
def cox_data():
    return simulate_cox(n=80, beta=[0.8, -0.5], seed=11)


@pytest.fixture
def cox_explainer(cox_data):
    return explain(fit_cox(cox_data), cox_data)
