import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from survival_explain import censoring_km, kaplan_meier, nelson_aalen

from conftest import make_dataset, simulate_cohort


def brute_force_km(times, events):
    """Product-limit by explicit loops, the oracle the estimator must match."""
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=int)
    event_times = sorted(set(times[events == 1]))
    survival = []
    running = 1.0
    for t in event_times:
        at_risk = sum(1 for u in times if u >= t)
        deaths = sum(1 for u, e in zip(times, events) if u == t and e == 1)
        running *= 1.0 - deaths / at_risk
        survival.append(running)
    return np.array(event_times), np.array(survival)


class TestKaplanMeier:
    def test_all_events_no_ties(self):
        curve = kaplan_meier(make_dataset([1, 2, 3], [1, 1, 1]))
        assert np.allclose(curve.values, [2 / 3, 1 / 3, 0.0], atol=1e-15)
        assert np.array_equal(curve.times, [1.0, 2.0, 3.0])

    def test_censoring_shrinks_risk_set(self):
        curve = kaplan_meier(make_dataset([1, 2, 2, 3], [1, 0, 1, 1]))
        assert np.allclose(curve.values, [3 / 4, 1 / 2, 0.0], atol=1e-15)

    def test_tied_events(self):
        curve = kaplan_meier(make_dataset([2, 2, 2, 5], [1, 1, 0, 1]))
        assert np.array_equal(curve.times, [2.0, 5.0])
        assert np.allclose(curve.values, [1 / 2, 0.0], atol=1e-15)

    def test_single_event(self):
        curve = kaplan_meier(make_dataset([5.0], [1]))
        assert np.array_equal(curve.times, [5.0])
        assert curve.values[0] == 0.0

    def test_all_censored_is_flat_one(self):
        curve = kaplan_meier(make_dataset([3.0, 7.0], [0, 0]))
        assert np.array_equal(curve.times, [7.0])
        assert curve.values[0] == 1.0

    def test_step_evaluation_between_events(self):
        curve = kaplan_meier(make_dataset([1, 2, 3], [1, 1, 1]))
        assert curve.evaluate(np.array([0.5]))[0] == 1.0
        assert curve.evaluate(np.array([1.5]))[0] == pytest.approx(2 / 3, abs=1e-15)

    @settings(deadline=None, max_examples=60)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=8),
                st.booleans(),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_matches_brute_force_on_random_data(self, rows):
        times = [float(t) for t, _ in rows]
        events = [int(e) for _, e in rows]
        if not any(events):
            events[0] = 1
        curve = kaplan_meier(make_dataset(times, events))
        oracle_times, oracle_values = brute_force_km(times, events)
        assert np.array_equal(curve.times, oracle_times)
        assert np.allclose(curve.values, oracle_values, atol=1e-12)
        assert np.all(np.diff(curve.values) <= 1e-15)
        assert np.all((curve.values >= 0) & (curve.values <= 1))


class TestNelsonAalen:
    def test_all_events(self):
        curve = nelson_aalen(make_dataset([1, 2, 3], [1, 1, 1]))
        assert np.allclose(curve.values, [1 / 3, 1 / 3 + 1 / 2, 1 / 3 + 1 / 2 + 1], atol=1e-15)

    def test_with_censoring(self):
        curve = nelson_aalen(make_dataset([1, 2, 2, 3], [1, 0, 1, 1]))
        assert np.allclose(curve.values, [1 / 4, 1 / 4 + 1 / 3, 1 / 4 + 1 / 3 + 1], atol=1e-15)

    def test_single_observation(self):
        curve = nelson_aalen(make_dataset([5.0], [1]))
        assert curve.values[0] == 1.0

    def test_all_censored_is_flat_zero(self):
        curve = nelson_aalen(make_dataset([3.0, 7.0], [0, 0]))
        assert curve.values[0] == 0.0

    def test_nondecreasing_and_nonnegative(self, cox_data):
        curve = nelson_aalen(cox_data)
        assert np.all(curve.values >= 0)
        assert np.all(np.diff(curve.values) >= 0)


class TestCensoringKm:
    def test_flips_event_roles(self):
        data = make_dataset([1, 2, 3, 4], [1, 0, 1, 0])
        curve = censoring_km(data)
        assert np.array_equal(curve.times, [2.0, 4.0])
        assert np.allclose(curve.values, [2 / 3, 0.0], atol=1e-15)

    def test_no_censoring_gives_flat_one(self):
        curve = censoring_km(make_dataset([1, 2, 3], [1, 1, 1]))
        assert np.all(curve.values == 1.0)

    def test_is_the_product_limit_of_the_flipped_events_bitwise(self):
        data = simulate_cohort(3000, 2, seed=3)
        curve = censoring_km(data)
        flipped = kaplan_meier(make_dataset(data.times, 1 - data.events, data.features))
        assert np.array_equal(curve.times, flipped.times)
        assert np.array_equal(curve.values, flipped.values)
