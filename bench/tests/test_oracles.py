"""Each oracle against a plain loop over rows, pairs or permutations."""

import itertools
import math

import numpy as np
import pytest

import inputs
import oracles


@pytest.fixture
def small():
    """Twelve rows with tied times, tied risks and both kinds of censoring tie."""
    times = np.array([2.0, 3, 3, 5, 5, 5, 7, 8, 8, 10, 12, 12])
    events = np.array([1, 1, 0, 1, 0, 1, 0, 1, 1, 0, 1, 0])
    risk = np.array([0.9, 0.4, 0.4, 0.7, 0.1, 0.7, 0.3, 0.5, 0.2, 0.2, 0.6, 0.1])
    grid = np.array([2.0, 3, 5, 8, 10, 12])
    rng = np.random.default_rng(0)
    S = np.sort(rng.random((12, len(grid))), axis=1)[:, ::-1]
    return times, events, risk, grid, S


def loop_censoring_g(times, events, t, left):
    """Product over censoring times c <= t (c < t for the left limit)."""
    g = 1.0
    for c in sorted(set(times[events == 0])):
        if c < t or (c == t and not left):
            at_risk = sum(1 for s in times if s >= c)
            d = sum(1 for s, e in zip(times, events) if s == c and e == 0)
            g *= 1.0 - d / at_risk
    return g


def test_censoring_km_matches_loop(small):
    times, events, _, grid, _ = small
    jumps, G = oracles.censoring_km(times, events)
    for t in [0.5, *times, *grid, 20.0]:
        assert oracles.step_right(jumps, G, t, 1.0) == pytest.approx(loop_censoring_g(times, events, t, False))
        assert oracles.step_left(jumps, G, t, 1.0) == pytest.approx(loop_censoring_g(times, events, t, True))


def test_brier_matches_loop(small):
    times, events, _, grid, S = small
    values, defined, integrated = oracles.brier(times, events, S, grid)
    for k, t in enumerate(grid):
        total, count = 0.0, 0
        g_t = loop_censoring_g(times, events, t, False)
        for i in range(len(times)):
            if times[i] <= t and events[i] == 1:
                g = loop_censoring_g(times, events, times[i], True)
                if g == 0:
                    continue
                total += S[i, k] ** 2 / g
            elif times[i] > t:
                if g_t == 0:
                    continue
                total += (1 - S[i, k]) ** 2 / g_t
            count += 1
        if count == 0:
            assert not defined[k]
        else:
            assert values[k] == pytest.approx(total / count, rel=1e-12)
    assert integrated == pytest.approx(
        np.trapezoid(values[defined], grid[defined]) / (grid[defined][-1] - grid[defined][0]))


def test_brier_counts_rows_censored_before_t_with_weight_zero():
    times = np.array([1.0, 2, 3, 4])
    events = np.array([1, 0, 1, 0])
    S = np.full((4, 2), 0.5)
    values, defined, _ = oracles.brier(times, events, S, np.array([3.0, 4.0]))
    assert defined.tolist() == [True, True]
    # at t = 4: two past events (G(1-) = 1, G(3-) = 2/3), the row censored
    # at 2 weighs 0, the row censored at 4 is neither past nor at risk
    assert values[1] == pytest.approx((0.25 + 0.25 / (2 / 3)) / 4)


def test_cd_auc_matches_double_loop(small):
    times, events, risk, grid, _ = small
    values, defined, _ = oracles.cd_auc(times, events, risk, grid)
    for k, t in enumerate(grid):
        numerator = denominator = 0.0
        for i in range(len(times)):
            if not (times[i] <= t and events[i] == 1):
                continue
            g = loop_censoring_g(times, events, times[i], True)
            w = 1.0 / g**2 if g > 0 else 0.0
            for j in range(len(times)):
                if times[j] > t:
                    denominator += w
                    numerator += w * (1.0 if risk[i] > risk[j] else 0.5 if risk[i] == risk[j] else 0.0)
        if denominator == 0:
            assert not defined[k]
        else:
            assert values[k] == pytest.approx(numerator / denominator, rel=1e-12)


def test_harrell_c_matches_double_loop(small):
    times, events, risk, _, _ = small
    concordant = comparable = 0.0
    for i in range(len(times)):
        for j in range(len(times)):
            if times[i] < times[j] and events[i] == 1:
                comparable += 1
                concordant += 1.0 if risk[i] > risk[j] else 0.5 if risk[i] == risk[j] else 0.0
    assert oracles.harrell_c(times, events, risk, chunk=3) == pytest.approx(concordant / comparable)


def test_mann_whitney_matches_double_loop():
    positive = np.array([0.3, 0.5, 0.5, 0.9])
    negative = np.array([0.1, 0.5, 0.7])
    wins = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p in positive for n in negative)
    assert oracles.mann_whitney_auc(positive, negative) == pytest.approx(wins / 12)


def loop_cox_loglik(times, events, Z, beta):
    ll = 0.0
    for t in sorted(set(times[events == 1])):
        dead = [i for i in range(len(times)) if times[i] == t and events[i] == 1]
        at_risk = [i for i in range(len(times)) if times[i] >= t]
        ll += sum(Z[i] @ beta for i in dead)
        ll -= len(dead) * math.log(sum(math.exp(Z[i] @ beta) for i in at_risk))
    return ll


def test_cox_breslow_score_and_baseline_match_loops(small):
    times, events, _, _, _ = small
    X = np.random.default_rng(1).normal(size=(len(times), 2))
    beta = np.array([0.3, -0.5])
    score, means, event_times, h0 = oracles.cox_breslow(times, events, X, beta)
    Z = X - means
    step = 1e-6
    for j in range(2):
        e = np.eye(2)[j] * step
        fd = (loop_cox_loglik(times, events, Z, beta + e) - loop_cox_loglik(times, events, Z, beta - e)) / (2 * step)
        assert score[j] == pytest.approx(fd, abs=1e-6)
    total = 0.0
    for k, t in enumerate(event_times):
        d = sum(1 for s, ev in zip(times, events) if s == t and ev == 1)
        total += d / sum(math.exp(Z[i] @ beta) for i in range(len(times)) if times[i] >= t)
        assert h0[k] == pytest.approx(total)


def shapley_by_permutations(v, p):
    """Average marginal contribution over all p! orders."""
    phi = np.zeros((p, v.shape[1]))
    orders = list(itertools.permutations(range(p)))
    for order in orders:
        mask = 0
        for j in order:
            phi[j] += v[mask | (1 << j)] - v[mask]
            mask |= 1 << j
    return phi / len(orders)


def test_shapley_exact_matches_permutation_enumeration():
    v = np.random.default_rng(3).random((1 << 4, 5))
    assert np.allclose(oracles.shapley_exact(v), shapley_by_permutations(v, 4), rtol=0, atol=1e-13)


def test_shapley_sampled_over_every_order_is_exact():
    v = np.random.default_rng(4).random((1 << 3, 2))
    orders = [np.array(order) for order in itertools.permutations(range(3))]
    assert np.allclose(oracles.shapley_sampled(v, orders), oracles.shapley_exact(v), atol=1e-13)


def test_marginal_spread_matches_permutation_enumeration():
    p = 4
    v = np.random.default_rng(5).random((1 << p, 3))
    phi = oracles.shapley_exact(v)
    deviations = [[] for _ in range(p)]
    for order in itertools.permutations(range(p)):
        mask = 0
        for j in order:
            deviations[j].append(v[mask | (1 << j)] - v[mask] - phi[j])
            mask |= 1 << j
    sigma, largest = oracles.marginal_spread(v)
    for j in range(p):
        d = np.array(deviations[j])
        assert np.allclose(sigma[j], np.sqrt((d**2).mean(axis=0)), atol=1e-13)
        assert np.allclose(largest[j], np.abs(d).max(axis=0), atol=1e-13)


def test_coalition_values_match_loop():
    x = np.array([1.0, 2.0, 3.0])
    background = np.array([[0.0, 0.0, 0.0], [1.0, -1.0, 2.0]])

    def predict(Z):
        return np.column_stack([Z.sum(axis=1), (Z**2).sum(axis=1)])

    v = oracles.coalition_values(predict, x, background)
    for mask in range(8):
        rows = []
        for b in background:
            z = [x[j] if mask >> j & 1 else b[j] for j in range(3)]
            rows.append([sum(z), sum(c * c for c in z)])
        assert np.allclose(v[mask], np.mean(rows, axis=0))


def test_survlime_recovers_proportional_hazards_coefficients():
    times, events, X, _ = inputs.cohort(5, 200, 3)
    beta = np.array([0.02, -0.4, 0.01])
    grid = oracles.default_grid(times, events)

    def chf(Z):
        return np.exp(Z @ beta)[:, None] * (grid / 100.0)[None, :]

    got, sigma, clipped = oracles.survlime(chf, X[0], X, times, events, grid, 100, 42)
    assert not clipped and sigma > 0
    assert np.allclose(got, beta, atol=1e-9)


def test_integrated_mean_matches_trapezoid():
    grid = np.array([1.0, 2.0, 4.0, 7.0])
    values = np.array([0.1, np.nan, 0.3, 0.2])
    defined = ~np.isnan(values)
    want = np.trapezoid(values[defined], grid[defined]) / 6.0
    assert oracles.integrated_mean(grid, values, defined) == pytest.approx(want)


def test_cohort_is_seeded_positive_tied_and_mixed():
    times, events, X, names = inputs.cohort(9, 500)
    again = inputs.cohort(9, 500)
    assert np.array_equal(times, again[0]) and np.array_equal(X, again[2])
    assert times.min() >= 1 and np.all(times == np.round(times))
    assert len(np.unique(times)) < len(times) / 2
    assert 0.25 < 1 - events.mean() < 0.45
    binary = [np.isin(X[:, j], (0.0, 1.0)).all() for j in range(X.shape[1])]
    assert any(binary) and not all(binary) and len(names) == X.shape[1]
