import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from survival_explain import (
    Explainer,
    InputError,
    NumericError,
    TimeGrid,
    brier_score,
    cd_auc,
    concordance_index,
    explain,
    integrated_mean,
    loss_adapter,
    roc_at_time,
)

from conftest import make_dataset


def survival_from_feature(x, grid):
    # the single feature is taken verbatim as a time-constant survival level
    return np.full(len(grid), float(x[0]))


def perfect_step(x, grid):
    # feature holds the row's own event time; survival drops 1 -> 0 there
    return np.where(grid.points < x[0], 1.0, 0.0)


def censor_surv_left(times, events, at):
    """Independent product-limit censoring survival, left limit G(at-)."""
    value = 1.0
    for c in sorted(set(times[events == 0])):
        if c >= at:
            break
        d = int(np.sum((times == c) & (events == 0)))
        r = int(np.sum(times >= c))
        value *= 1.0 - d / r
    return value


@pytest.fixture
def six_row():
    # mixed censoring plus one tied pair of survival levels (rows 3 and 5)
    data = make_dataset(
        [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        [1, 1, 0, 1, 0, 1],
        [[0.3], [0.9], [0.5], [0.2], [0.8], [0.2]],
        ["s"],
    )
    return data, explain(survival_from_feature, data)


class TestBrierScore:
    def test_perfect_prediction_is_zero_everywhere(self):
        data = make_dataset([1.0, 2.0, 3.0], [1, 1, 1], [[1.0], [2.0], [3.0]], ["t"])
        explainer = explain(perfect_step, data)
        curve = brier_score(explainer, data)
        assert curve.metric_name == "brier_score"
        assert np.array_equal(curve.values, np.zeros(len(curve.grid)))
        assert curve.integrated == 0.0

    def test_constant_half_scores_quarter(self):
        data = make_dataset([1.0, 2.0, 3.0], [1, 1, 1], [[0.5], [0.5], [0.5]], ["s"])
        explainer = explain(survival_from_feature, data)
        curve = brier_score(explainer, data)
        assert np.array_equal(curve.values, np.full(len(curve.grid), 0.25))
        assert curve.integrated == 0.25

    def test_five_row_censored_fixture_matches_hand_terms(self):
        # censoring KM: censored at 2 (4 at risk) and 5 (1 at risk), so
        # G = 1 on [0,2), 3/4 on [2,5), 0 from 5 on
        data = make_dataset(
            [1.0, 2.0, 3.0, 4.0, 5.0],
            [1, 0, 1, 1, 0],
            [[0.9], [0.8], [0.6], [0.4], [0.2]],
            ["s"],
        )
        explainer = explain(survival_from_feature, data, grid=TimeGrid(np.array([1.5, 2.5, 3.5, 4.5])))
        grid = TimeGrid(np.array([1.5, 2.5, 3.5, 4.5]))
        curve = brier_score(explainer, data, grid)

        expected = np.array([
            (0.9**2 / 1.0
             + (1 - 0.8)**2 / 1.0 + (1 - 0.6)**2 / 1.0
             + (1 - 0.4)**2 / 1.0 + (1 - 0.2)**2 / 1.0) / 5,
            (0.9**2 / 1.0
             + (1 - 0.6)**2 / 0.75 + (1 - 0.4)**2 / 0.75 + (1 - 0.2)**2 / 0.75) / 5,
            (0.9**2 / 1.0 + 0.6**2 / 0.75
             + (1 - 0.4)**2 / 0.75 + (1 - 0.2)**2 / 0.75) / 5,
            (0.9**2 / 1.0 + 0.6**2 / 0.75 + 0.4**2 / 0.75
             + (1 - 0.2)**2 / 0.75) / 5,
        ])
        assert curve.defined.all()
        np.testing.assert_allclose(curve.values, expected, rtol=0, atol=1e-12)
        assert np.all(curve.values >= 0.0) and np.all(curve.values <= 1.0)
        want = np.trapezoid(expected, grid.points) / (grid.points[-1] - grid.points[0])
        assert abs(curve.integrated - want) < 1e-12

    def test_no_censoring_equals_plain_mse(self):
        rng = np.random.default_rng(3)
        levels = rng.uniform(0.05, 0.95, size=8)
        data = make_dataset(
            np.arange(1.0, 9.0), np.ones(8, dtype=int), levels[:, None], ["s"]
        )
        explainer = explain(survival_from_feature, data)
        curve = brier_score(explainer, data)
        grid = explainer.grid
        S = explainer.predict(data.features, "survival")
        indicator = (data.times[:, None] > grid.points[None, :]).astype(float)
        mse = ((indicator - S) ** 2).sum(axis=0) / data.n_observations
        assert np.array_equal(curve.values, mse)


class TestCdAuc:
    def test_perfectly_ordered_risk_gives_one(self):
        # survival rises with event time, so risk falls: every pair concordant
        data = make_dataset(
            [1.0, 2.0, 3.0, 4.0], [1, 1, 1, 1],
            [[0.1], [0.2], [0.3], [0.4]], ["s"],
        )
        explainer = explain(survival_from_feature, data)
        curve = cd_auc(explainer, data)
        assert curve.metric_name == "cd_auc"
        # the last grid point has no controls left, hence undefined
        assert np.array_equal(curve.defined, [True, True, True, False])
        assert np.array_equal(curve.values[curve.defined], np.ones(3))

    def test_all_tied_risks_give_half(self):
        data = make_dataset(
            [1.0, 2.0, 3.0, 4.0], [1, 1, 1, 1],
            [[0.5], [0.5], [0.5], [0.5]], ["s"],
        )
        explainer = explain(survival_from_feature, data)
        curve = cd_auc(explainer, data)
        assert np.array_equal(curve.values[curve.defined], np.full(3, 0.5))

    def test_six_row_fixture_matches_pair_loop(self, six_row):
        data, explainer = six_row
        risk = explainer.predict(data.features, "risk")
        curve = cd_auc(explainer, data)

        for k, t in enumerate(curve.grid.points):
            cases = [i for i in range(6) if data.times[i] <= t and data.events[i] == 1]
            controls = [j for j in range(6) if data.times[j] > t]
            if not cases or not controls:
                assert not curve.defined[k]
                continue
            numerator = 0.0
            weight_sum = 0.0
            for i in cases:
                w = 1.0 / censor_surv_left(data.times, data.events, data.times[i]) ** 2
                weight_sum += w
                for j in controls:
                    if risk[i] > risk[j]:
                        numerator += w
                    elif risk[i] == risk[j]:
                        numerator += 0.5 * w
            assert curve.defined[k]
            assert abs(curve.values[k] - numerator / (weight_sum * len(controls))) < 1e-12

    def test_monotone_risk_transform_leaves_curve_unchanged(self, six_row):
        data, explainer = six_row
        # squaring a survival level in (0,1) is strictly increasing, so the
        # induced risk ordering is identical
        squared = make_dataset(data.times, data.events, data.features**2, ["s"])
        other = explain(survival_from_feature, squared, grid=explainer.grid)
        a = cd_auc(explainer, data)
        b = cd_auc(other, squared)
        assert np.array_equal(a.defined, b.defined)
        assert np.array_equal(a.values[a.defined], b.values[b.defined])

    def test_grid_beyond_data_is_undefined_with_no_integral(self, six_row):
        data, explainer = six_row
        curve = cd_auc(explainer, data, TimeGrid(np.array([100.0, 200.0])))
        assert not curve.defined.any()
        assert np.isnan(curve.values).all()
        assert curve.integrated is None


class TestConcordance:
    def test_perfect_ordering_gives_one(self):
        data = make_dataset(
            [1.0, 2.0, 3.0, 4.0], [1, 1, 1, 1],
            [[0.1], [0.2], [0.3], [0.4]], ["s"],
        )
        assert concordance_index(explain(survival_from_feature, data), data) == 1.0

    def test_all_ties_give_half(self):
        data = make_dataset(
            [1.0, 2.0, 3.0], [1, 1, 1], [[0.5], [0.5], [0.5]], ["s"]
        )
        assert concordance_index(explain(survival_from_feature, data), data) == 0.5

    def test_six_row_fixture_matches_pair_loop(self, six_row):
        data, explainer = six_row
        risk = explainer.predict(data.features, "risk")
        concordant = 0.0
        comparable = 0
        for i in range(6):
            for j in range(6):
                if data.times[i] < data.times[j] and data.events[i] == 1:
                    comparable += 1
                    if risk[i] > risk[j]:
                        concordant += 1.0
                    elif risk[i] == risk[j]:
                        concordant += 0.5
        assert abs(concordance_index(explainer, data) - concordant / comparable) < 1e-12

    def test_monotone_risk_transform_leaves_c_unchanged(self, six_row):
        data, explainer = six_row
        squared = make_dataset(data.times, data.events, data.features**2, ["s"])
        other = explain(survival_from_feature, squared, grid=explainer.grid)
        assert concordance_index(explainer, data) == concordance_index(other, squared)

    def test_no_comparable_pairs_is_an_error(self):
        # the only event is the last observation, so nothing follows it
        data = make_dataset([1.0, 2.0, 3.0], [0, 0, 1], [[0.5], [0.4], [0.3]], ["s"])
        explainer = explain(
            survival_from_feature, data, grid=TimeGrid(np.array([1.0, 3.0]))
        )
        with pytest.raises(NumericError, match="no comparable pairs"):
            concordance_index(explainer, data)


class TestRocAtTime:
    def test_eight_row_fixture_matches_sort_and_count(self):
        data = make_dataset(
            [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
            [1, 1, 0, 1, 0, 1, 1, 0],
            [[0.1], [0.2], [0.6], [0.45], [0.45], [0.7], [0.8], [0.9]],
            ["s"],
        )
        explainer = explain(survival_from_feature, data)
        roc = roc_at_time(explainer, data, 4.5)

        # row 2 is censored before 4.5: excluded from both classes but its
        # score still appears in the threshold sweep
        score = 1.0 - data.features[:, 0]
        positives = [i for i in range(8) if data.events[i] == 1 and data.times[i] <= 4.5]
        negatives = [i for i in range(8) if data.times[i] > 4.5]
        assert positives == [0, 1, 3] and negatives == [4, 5, 6, 7]
        thresholds = sorted(set(score))
        expected = []
        for th in thresholds:
            tpr = sum(score[i] >= th for i in positives) / len(positives)
            fpr = sum(score[j] >= th for j in negatives) / len(negatives)
            expected.append((fpr, tpr, th))
        expected.append((0.0, 0.0, np.inf))

        assert roc.time == 4.5
        assert np.array_equal(roc.thresholds, [p[2] for p in expected])
        assert np.array_equal(roc.fpr, [p[0] for p in expected])
        assert np.array_equal(roc.tpr, [p[1] for p in expected])
        oracle_auc = -np.trapezoid([p[1] for p in expected], [p[0] for p in expected])
        assert abs(roc.trapezoid_auc() - oracle_auc) < 1e-12

    def test_sweep_is_sorted_and_monotone_with_unit_endpoints(self, six_row):
        data, explainer = six_row
        roc = roc_at_time(explainer, data, 3.5)
        assert np.all(np.diff(roc.thresholds) > 0)
        assert np.all(np.diff(roc.tpr) <= 0)
        assert np.all(np.diff(roc.fpr) <= 0)
        assert (roc.fpr[0], roc.tpr[0]) == (1.0, 1.0)
        assert (roc.fpr[-1], roc.tpr[-1]) == (0.0, 0.0)
        assert roc.thresholds[-1] == np.inf

    def test_perfect_separation_hits_top_left_corner(self):
        data = make_dataset(
            [1.0, 2.0, 5.0, 6.0], [1, 1, 0, 0],
            [[0.1], [0.2], [0.9], [0.8]], ["s"],
        )
        explainer = explain(survival_from_feature, data)
        roc = roc_at_time(explainer, data, 3.0)
        assert (0.0, 1.0) in [(f, t) for f, t, _ in roc.points]
        assert roc.trapezoid_auc() == 1.0

    def test_identical_scores_collapse_to_diagonal(self):
        data = make_dataset(
            [1.0, 2.0, 5.0, 6.0], [1, 1, 0, 0],
            [[0.5], [0.5], [0.5], [0.5]], ["s"],
        )
        explainer = explain(survival_from_feature, data)
        roc = roc_at_time(explainer, data, 3.0)
        assert [(f, t) for f, t, _ in roc.points] == [(1.0, 1.0), (0.0, 0.0)]
        assert roc.trapezoid_auc() == 0.5

    def test_empty_classes_raise(self, six_row):
        data, explainer = six_row
        with pytest.raises(NumericError, match="no positive cases"):
            roc_at_time(explainer, data, 0.5)
        with pytest.raises(NumericError, match="no negative controls"):
            roc_at_time(explainer, data, 6.0)

    def test_non_finite_time_rejected(self, six_row):
        data, explainer = six_row
        with pytest.raises(InputError, match="finite"):
            roc_at_time(explainer, data, np.nan)
        with pytest.raises(InputError, match="finite"):
            roc_at_time(explainer, data, np.inf)


class TestLossAdapter:
    def test_unknown_name_lists_valid_ones(self, six_row):
        with pytest.raises(InputError, match="brier_integrated.*one_minus_cindex"):
            loss_adapter("rmse")

    def test_unknown_direction_rejected(self):
        with pytest.raises(InputError, match="direction"):
            loss_adapter("brier_integrated", direction="down")

    def test_brier_integrated_matches_curve_field(self, six_row):
        data, explainer = six_row
        loss = loss_adapter("brier_integrated")
        assert loss(explainer, data) == brier_score(explainer, data).integrated
        assert loss.__name__ == "brier_integrated"

    def test_brier_curve_returns_the_value_vector(self, six_row):
        data, explainer = six_row
        loss = loss_adapter("brier_curve")
        assert np.array_equal(loss(explainer, data), brier_score(explainer, data).values)

    def test_cd_auc_integrated_of_all_ties_is_half(self):
        data = make_dataset(
            [1.0, 2.0, 3.0, 4.0], [1, 1, 1, 1],
            [[0.5], [0.5], [0.5], [0.5]], ["s"],
        )
        explainer = explain(survival_from_feature, data)
        assert abs(loss_adapter("cd_auc_integrated")(explainer, data) - 0.5) < 1e-15

    def test_score_direction_complements(self, six_row):
        data, explainer = six_row
        complemented = loss_adapter("cd_auc_integrated")(explainer, data)
        raw = loss_adapter("cd_auc_integrated", direction="loss")(explainer, data)
        assert abs(raw + complemented - 1.0) < 1e-15

    def test_one_minus_cindex_of_perfect_model_is_zero(self):
        data = make_dataset(
            [1.0, 2.0, 3.0, 4.0], [1, 1, 1, 1],
            [[0.1], [0.2], [0.3], [0.4]], ["s"],
        )
        explainer = explain(survival_from_feature, data)
        assert loss_adapter("one_minus_cindex")(explainer, data) == 0.0


class TestIntegratedMean:
    def test_duplicated_grid_point_changes_nothing(self):
        plain = integrated_mean([1.0, 2.0, 3.0], [2.0, 4.0, 6.0])
        doubled = integrated_mean([1.0, 2.0, 2.0, 3.0], [2.0, 4.0, 4.0, 6.0])
        assert plain == doubled

    def test_linear_values_average_exactly(self):
        assert integrated_mean([0.0, 1.0, 2.0], [0.0, 1.0, 2.0]) == 1.0

    def test_fewer_than_two_defined_points_yield_none(self):
        assert integrated_mean([1.0, 2.0, 3.0], [np.nan, 4.0, np.nan]) is None
        assert integrated_mean([2.0, 2.0], [1.0, 1.0]) is None


# -- property tests against brute-force pair loops ----------------------------

# Few distinct times and at most 17 survival levels, so ties are everywhere.
LEVELS = tuple(np.linspace(0.1, 0.9, 17))
GRID = TimeGrid(np.arange(0.5, 7.0))
# The explainer's background only has to pass construction; every metric is
# evaluated on the drawn dataset.
BACKGROUND = make_dataset([1.0, 2.0], [1, 0], [[0.5], [0.5]], ["s"])


@st.composite
def tied_cohorts(draw, levels=LEVELS):
    n = draw(st.integers(min_value=2, max_value=20))
    times = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    events = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    n_levels = draw(st.integers(min_value=1, max_value=len(levels)))
    survival = draw(st.lists(st.sampled_from(levels[:n_levels]), min_size=n, max_size=n))
    return make_dataset(times, events, np.array(survival)[:, None], ["s"])


def level_explainer():
    return explain(survival_from_feature, BACKGROUND, grid=GRID)


def loop_concordance(times, events, risk):
    concordant = 0.0
    comparable = 0
    for i in range(len(times)):
        for j in range(len(times)):
            if times[i] < times[j] and events[i] == 1:
                comparable += 1
                if risk[i] > risk[j]:
                    concordant += 1.0
                elif risk[i] == risk[j]:
                    concordant += 0.5
    return None if comparable == 0 else concordant / comparable


def loop_cd_auc(times, events, risk, grid):
    """(value or None) per grid point from explicit case x control loops."""
    n = len(times)
    out = []
    for t in grid:
        cases = [i for i in range(n) if times[i] <= t and events[i] == 1]
        controls = [j for j in range(n) if times[j] > t]
        numerator = 0.0
        weight_sum = 0.0
        for i in cases:
            g = censor_surv_left(times, events, times[i])
            w = 0.0 if g == 0 else 1.0 / g**2
            weight_sum += w
            for j in controls:
                if risk[i] > risk[j]:
                    numerator += w
                elif risk[i] == risk[j]:
                    numerator += 0.5 * w
        out.append(None if weight_sum * len(controls) == 0 else numerator / (weight_sum * len(controls)))
    return out


class TestRankMetricsAgainstPairLoops:
    @settings(deadline=None, max_examples=150)
    @given(tied_cohorts())
    def test_concordance_matches_pair_loop(self, data):
        explainer = level_explainer()
        want = loop_concordance(data.times, data.events, explainer.predict(data.features, "risk"))
        if want is None:
            with pytest.raises(NumericError, match="no comparable pairs"):
                concordance_index(explainer, data)
        else:
            assert abs(concordance_index(explainer, data) - want) <= 1e-12

    @settings(deadline=None, max_examples=150)
    @given(tied_cohorts())
    def test_cd_auc_matches_weighted_pair_loop(self, data):
        explainer = level_explainer()
        curve = cd_auc(explainer, data)
        want = loop_cd_auc(data.times, data.events, explainer.predict(data.features, "risk"), GRID.points)
        assert list(curve.defined) == [v is not None for v in want]
        for got, value in zip(curve.values, want):
            if value is not None:
                assert abs(got - value) <= 1e-12

    @settings(deadline=None, max_examples=150)
    @given(tied_cohorts(), st.sampled_from([1.5, 2.5, 3.5, 4.5, 5.5]))
    def test_roc_matches_threshold_loop(self, data, t):
        explainer = level_explainer()
        positives = [i for i in range(len(data.times)) if data.events[i] == 1 and data.times[i] <= t]
        negatives = [j for j in range(len(data.times)) if data.times[j] > t]
        if not positives or not negatives:
            with pytest.raises(NumericError, match="ROC undefined"):
                roc_at_time(explainer, data, t)
            return
        roc = roc_at_time(explainer, data, t)
        score = 1.0 - data.features[:, 0]
        thresholds = sorted(set(score))
        tpr = [sum(score[i] >= th for i in positives) / len(positives) for th in thresholds]
        fpr = [sum(score[j] >= th for j in negatives) / len(negatives) for th in thresholds]
        assert np.array_equal(roc.thresholds, [*thresholds, np.inf])
        assert np.abs(roc.tpr - [*tpr, 0.0]).max() <= 1e-12
        assert np.abs(roc.fpr - [*fpr, 0.0]).max() <= 1e-12

    @settings(deadline=None, max_examples=60)
    @given(tied_cohorts(levels=(0.5,)))
    def test_all_tied_risks_give_exactly_half(self, data):
        explainer = level_explainer()
        if loop_concordance(data.times, data.events, data.features[:, 0]) is not None:
            assert concordance_index(explainer, data) == 0.5
        curve = cd_auc(explainer, data)
        assert np.all(curve.values[curve.defined] == 0.5)

    @settings(deadline=None, max_examples=60)
    @given(tied_cohorts())
    def test_monotone_risk_transform_is_bit_equal(self, data):
        explainer = level_explainer()
        # squaring a survival level in (0, 1) keeps the risk ordering
        squared = make_dataset(data.times, data.events, data.features**2, ["s"])
        if loop_concordance(data.times, data.events, data.features[:, 0]) is not None:
            assert concordance_index(explainer, data) == concordance_index(explainer, squared)
        a, b = cd_auc(explainer, data), cd_auc(explainer, squared)
        assert np.array_equal(a.defined, b.defined)
        assert np.array_equal(a.values[a.defined], b.values[b.defined])


class TestNonFinitePredictions:
    @pytest.fixture
    def nan_above_seventy(self):
        # passes the probe on row 0 (age 50), then returns NaN past age 70
        data = make_dataset(
            [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
            [1, 1, 0, 1, 0, 1],
            [[50.0], [60.0], [65.0], [72.0], [55.0], [80.0]],
            ["age"],
        )

        def model(x, grid):
            if x[0] > 70:
                return np.full(len(grid), np.nan)
            return np.exp(-grid.points * x[0] / 500.0)

        return data, explain(model, data)

    def test_rank_metrics_name_the_first_bad_row(self, nan_above_seventy):
        data, explainer = nan_above_seventy
        with pytest.raises(NumericError, match="predicted survival is not finite for row 3"):
            concordance_index(explainer, data)
        with pytest.raises(NumericError, match="predicted survival is not finite for row 3"):
            cd_auc(explainer, data)
        with pytest.raises(NumericError, match="not finite for row 3"):
            roc_at_time(explainer, data, 3.5)

    def test_brier_score_names_the_first_bad_row(self, nan_above_seventy):
        data, explainer = nan_above_seventy
        with pytest.raises(NumericError, match="predicted survival is not finite for row 3"):
            brier_score(explainer, data)


class TestRankMetricMemory:
    def test_twenty_thousand_rows_stay_linear_in_memory(self):
        # an n x n float matrix at this size alone would take 3.2 GB
        n = 20_000
        rng = np.random.default_rng(0)
        times = np.ceil(rng.exponential(30.0, n))
        events = (rng.random(n) < 0.65).astype(int)
        levels = np.round(rng.uniform(0.05, 0.95, n), 3)
        data = make_dataset(times, events, levels[:, None], ["s"])
        grid = TimeGrid(np.linspace(2.0, 60.0, 20))
        explainer = Explainer(
            model=lambda X, g: np.repeat(X[:, :1], len(g), axis=1),
            background=data,
            grid=grid,
        )

        tracemalloc.start()
        try:
            c = concordance_index(explainer, data)
            curve = cd_auc(explainer, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6
        assert curve.defined.all()

        risk = explainer.predict(data.features, "risk")
        concordant2 = 0
        comparable = 0
        for start in range(0, n, 1000):
            rows = slice(start, start + 1000)
            later = (times[rows, None] < times[None, :]) & (events[rows, None] == 1)
            comparable += int(later.sum())
            concordant2 += 2 * int((later & (risk[rows, None] > risk[None, :])).sum())
            concordant2 += int((later & (risk[rows, None] == risk[None, :])).sum())
        assert c == concordant2 / (2 * comparable)
