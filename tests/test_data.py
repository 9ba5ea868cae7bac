import numpy as np
import pytest
from hypothesis import given, strategies as st

from survival_explain import InputError, StepCurve, SurvivalDataset, TimeGrid

from conftest import make_dataset


# (times, events, features, names) beside the exact refusal, one per check
BAD_DATASETS = {
    "empty": (([], [], np.ones((0, 0)), []), "dataset must contain at least one observation"),
    "non-finite time": (([1.0, np.nan], [1, 0], np.ones((2, 0)), []), "times must be finite"),
    "short events": (([1.0, 2.0], [1], np.ones((2, 0)), []), "events has length 1, expected 2"),
    "extra feature row": (
        ([1.0, 2.0], [1, 0], np.ones((3, 1)), ["a"]), "features has 3 rows, expected 2"
    ),
    "non-finite feature": (
        ([1.0, 2.0], [1, 0], [[1.0], [np.inf]], ["a"]), "features must be finite"
    ),
    "empty name": (([1.0, 2.0], [1, 0], np.ones((2, 1)), [""]), "feature names must be nonempty"),
}


class TestSurvivalDataset:
    @pytest.mark.parametrize("case", sorted(BAD_DATASETS))
    def test_refusal_names_its_check(self, case):
        fields, message = BAD_DATASETS[case]
        with pytest.raises(InputError) as raised:
            SurvivalDataset(*fields)
        assert str(raised.value) == message

    def test_valid_construction(self):
        data = make_dataset([1, 2, 3], [1, 0, 1], [[0.5], [1.0], [1.5]], ["age"])
        assert data.n_observations == 3
        assert data.n_features == 1
        assert data.events.dtype == np.int64 or data.events.dtype == int

    def test_negative_time_rejected(self):
        with pytest.raises(InputError, match="times"):
            make_dataset([-1.0, 2.0], [1, 0])

    def test_event_values_must_be_binary(self):
        with pytest.raises(InputError, match="0 or 1"):
            make_dataset([1.0, 2.0], [1, 2])

    def test_feature_name_count_must_match(self):
        with pytest.raises(InputError):
            SurvivalDataset(
                times=np.array([1.0, 2.0]),
                events=np.array([1, 0]),
                features=np.ones((2, 2)),
                feature_names=("only_one",),
            )

    def test_duplicate_feature_names_rejected(self):
        with pytest.raises(InputError):
            make_dataset([1.0, 2.0], [1, 0], np.ones((2, 2)), ["a", "a"])

    def test_column_index_lists_available_names(self):
        data = make_dataset([1.0, 2.0], [1, 0], np.ones((2, 2)), ["a", "b"])
        assert data.column_index("b") == 1
        with pytest.raises(InputError, match="a, b"):
            data.column_index("c")

    def test_zero_feature_dataset_allowed(self):
        data = make_dataset([1.0, 2.0], [1, 0])
        assert data.n_features == 0

    def test_with_features_replaces_matrix(self):
        data = make_dataset([1.0, 2.0], [1, 0], np.ones((2, 1)), ["a"])
        other = data.with_features(np.zeros((2, 1)))
        assert np.array_equal(other.features, np.zeros((2, 1)))
        assert np.array_equal(data.features, np.ones((2, 1)))


class TestTimeGrid:
    def test_requires_two_points(self):
        with pytest.raises(InputError):
            TimeGrid(points=np.array([1.0]))

    def test_requires_positive_points(self):
        with pytest.raises(InputError):
            TimeGrid(points=np.array([0.0, 1.0]))

    def test_requires_strict_increase(self):
        with pytest.raises(InputError):
            TimeGrid(points=np.array([1.0, 1.0, 2.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_requires_finite_points(self, bad):
        with pytest.raises(InputError) as raised:
            TimeGrid(points=np.array([1.0, bad]))
        assert str(raised.value) == "grid points must be finite"

    def test_span(self):
        grid = TimeGrid(points=np.array([1.0, 2.0, 5.0]))
        assert grid.span == 4.0
        assert len(grid) == 3


# (times, values, kind) beside the exact refusal, one per check
BAD_CURVES = {
    "empty": (([], [], "survival"), "a step curve needs at least one point"),
    "short values": (([1.0, 2.0], [0.5], "survival"), "curve has 1 values for 2 times"),
    "negative time": (([-1.0], [0.5], "survival"), "curve times must be finite and nonnegative"),
    "non-finite time": (([np.inf], [0.5], "chf"), "curve times must be finite and nonnegative"),
    "falling times": (([2.0, 1.0], [0.5, 0.4], "survival"), "curve times must be strictly increasing"),
    "non-finite value": (([1.0, 2.0], [0.5, np.nan], "survival"), "curve values must be finite"),
    "unknown kind": (
        ([1.0], [0.5], "hazard"), "unknown curve kind 'hazard'; expected one of ('survival', 'chf')"
    ),
    "negative chf": (([1.0, 2.0], [-0.5, 0.5], "chf"), "chf values must be nonnegative"),
}


class TestStepCurve:
    @pytest.mark.parametrize("case", sorted(BAD_CURVES))
    def test_refusal_names_its_check(self, case):
        fields, message = BAD_CURVES[case]
        with pytest.raises(InputError) as raised:
            StepCurve(*fields)
        assert str(raised.value) == message

    def test_survival_range_validated(self):
        with pytest.raises(InputError, match="out of"):
            StepCurve(times=np.array([1.0]), values=np.array([1.2]), kind="survival")

    def test_survival_monotonicity_validated(self):
        with pytest.raises(InputError, match="nonincreasing"):
            StepCurve(times=np.array([1.0, 2.0]), values=np.array([0.5, 0.6]), kind="survival")

    def test_chf_monotonicity_validated(self):
        with pytest.raises(InputError, match="nondecreasing"):
            StepCurve(times=np.array([1.0, 2.0]), values=np.array([0.5, 0.4]), kind="chf")

    def test_step_evaluation_is_right_continuous(self):
        curve = StepCurve(times=np.array([1.0, 3.0]), values=np.array([0.8, 0.2]), kind="survival")
        assert curve.evaluate(np.array([0.5]))[0] == 1.0
        assert curve.evaluate(np.array([1.0]))[0] == 0.8
        assert curve.evaluate(np.array([2.9]))[0] == 0.8
        assert curve.evaluate(np.array([3.0]))[0] == 0.2
        assert curve.evaluate(np.array([99.0]))[0] == 0.2

    def test_left_limit_evaluation(self):
        curve = StepCurve(times=np.array([1.0, 3.0]), values=np.array([0.8, 0.2]), kind="survival")
        assert curve.evaluate_left(np.array([1.0]))[0] == 1.0
        assert curve.evaluate_left(np.array([3.0]))[0] == 0.8
        assert curve.evaluate_left(np.array([3.5]))[0] == 0.2

    def test_chf_left_default_is_zero(self):
        curve = StepCurve(times=np.array([2.0]), values=np.array([0.7]), kind="chf")
        assert curve.evaluate(np.array([1.0]))[0] == 0.0

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=1,
            max_size=8,
        ),
        st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
    )
    def test_survival_evaluation_stays_in_range(self, raw_values, query):
        values = np.sort(np.asarray(raw_values))[::-1]
        times = np.arange(1.0, len(values) + 1.0)
        curve = StepCurve(times=times, values=values, kind="survival")
        result = curve.evaluate(np.array([query]))[0]
        assert 0.0 <= result <= 1.0
