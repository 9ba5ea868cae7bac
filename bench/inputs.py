"""Seeded input generator for the benchmark workloads.

Everything here is a pure function of the seed: the same seed gives the same
cohort, byte for byte. Times are positive integers (Weibull AFT rejects
t <= 0) with many ties, roughly one third of the rows are censored, and the
covariates alternate between continuous and binary columns.
"""

from __future__ import annotations

import numpy as np

# Ten clinical-style covariates; ``True`` marks a binary (0/1) column.
COVARIATES = (
    ("age", False),
    ("sex", True),
    ("bmi", False),
    ("smoker", True),
    ("albumin", False),
    ("diabetic", True),
    ("sodium", False),
    ("treated", True),
    ("karnofsky", False),
    ("stage3", True),
)

# True log-hazard coefficients per standardized covariate, in COVARIATES order.
TRUE_BETA = np.array([0.45, -0.3, 0.15, 0.35, -0.4, 0.25, 0.3, -0.5, -0.2, 0.6])

# Weibull shape and scale of the event times, and the mean of the
# exponential censoring time. With these, about one third of rows are censored.
EVENT_SHAPE = 1.3
EVENT_SCALE = 30.0
CENSOR_MEAN = 62.0


def cohort(seed: int, n: int, p: int = len(COVARIATES)):
    """(times, events, features, names) of a simulated right-censored cohort.

    ``features`` holds the raw covariate values (age in years, bmi, ...);
    the outcome depends on their standardized versions through a
    proportional-hazards Weibull model.
    """
    if not 1 <= p <= len(COVARIATES):
        raise ValueError(f"p must be between 1 and {len(COVARIATES)}")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(p, n)))
    names = [name for name, _ in COVARIATES[:p]]
    features = np.empty((n, p))
    standardized = np.empty((n, p))
    for j, (name, binary) in enumerate(COVARIATES[:p]):
        if binary:
            column = (rng.random(n) < 0.3 + 0.05 * j).astype(float)
        else:
            z = rng.standard_normal(n)
            # continuous columns on clinical scales, rounded as a registry would
            centre, spread = {"age": (62, 11), "bmi": (27, 4.5), "albumin": (3.9, 0.5),
                              "sodium": (139, 3.5), "karnofsky": (80, 10)}[name]
            column = np.round(centre + spread * z, 2)
        features[:, j] = column
        standardized[:, j] = (column - column.mean()) / column.std()

    eta = standardized @ TRUE_BETA[:p]
    u = rng.random(n)
    event_time = EVENT_SCALE * (-np.log1p(-u) * np.exp(-eta)) ** (1.0 / EVENT_SHAPE)
    censor_time = rng.exponential(CENSOR_MEAN, size=n)
    observed = np.minimum(event_time, censor_time)
    # whole time units, at least 1: ties everywhere, never t <= 0
    times = np.maximum(np.ceil(observed), 1.0)
    events = (event_time <= censor_time).astype(int)
    return times, events, features, names


def write_csv(path, times, events, features, names) -> None:
    """Write a cohort as CSV: header ``time,status,<names>``, exact floats."""
    lines = [",".join(["time", "status", *names])]
    for t, e, row in zip(times.tolist(), events.tolist(), features.tolist()):
        lines.append(",".join([repr(t), str(e), *map(repr, row)]))
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("\n".join(lines) + "\n")
