import numpy as np
import pytest
from hypothesis import given, strategies as st

from survival_explain import (
    Explainer,
    InputError,
    NumericError,
    StepCurve,
    SurvivalDataset,
    TimeGrid,
    default_time_grid,
    explain,
    fit_cox,
    fit_kaplan_meier,
    fit_weibull_aft,
    model_parts,
    model_profile,
    predict_parts_survlime,
    predict_parts_survshap,
)
from survival_explain.models import predict_survival_matrix

from conftest import make_dataset, simulate_cox


def constant_survival(level):
    def predict(x, grid):
        return np.full(len(grid), level)

    return predict


class TestDefaultTimeGrid:
    def test_identity_below_cap(self):
        times = np.arange(1.0, 31.0)
        data = make_dataset(times, np.ones(30, dtype=int))
        grid = default_time_grid(data)
        assert np.array_equal(grid.points, times)

    def test_caps_at_51_quantiles(self):
        rng = np.random.default_rng(2)
        times = rng.uniform(0.5, 40.0, size=500)
        data = make_dataset(times, np.ones(500, dtype=int))
        grid = default_time_grid(data)
        assert len(grid) == 51
        assert np.all(np.diff(grid.points) > 0)

    def test_nonpositive_event_times_dropped(self):
        data = make_dataset([0.0, 1.0, 2.0], [1, 1, 1])
        grid = default_time_grid(data)
        assert np.array_equal(grid.points, [1.0, 2.0])

    def test_too_few_event_times_is_an_error(self):
        data = make_dataset([1.0, 1.0, 2.0], [1, 1, 0])
        with pytest.raises(InputError, match="explicit grid"):
            default_time_grid(data)


class TestExplainConstruction:
    def test_wraps_builtin_models_with_labels(self, cox_data):
        assert explain(fit_cox(cox_data), cox_data).label == "cox"
        assert explain(fit_weibull_aft(cox_data), cox_data).label == "weibull_aft"
        assert explain(fit_kaplan_meier(cox_data), cox_data).label == "kaplan_meier"

    def test_wraps_user_function(self, cox_data):
        def half_life(x, grid):
            return np.exp(-grid.points / 2.0)

        explainer = explain(half_life, cox_data)
        assert explainer.label == "half_life"
        values = explainer.predict(cox_data.features[0], "survival")
        assert np.allclose(values, np.exp(-explainer.grid.points / 2.0))

    def test_probe_rejects_out_of_range_values(self, cox_data):
        with pytest.raises(InputError, match="out of"):
            explain(constant_survival(1.2), cox_data)

    def test_probe_rejects_wrong_length(self, cox_data):
        def short(x, grid):
            return np.ones(2)

        with pytest.raises(InputError, match="length"):
            explain(short, cox_data)

    def test_probe_rejects_increasing_curve(self, cox_data):
        def rising(x, grid):
            return np.linspace(0.2, 0.9, len(grid))

        with pytest.raises(InputError, match="nonincreasing"):
            explain(rising, cox_data)

    def test_step_curve_predictions_accepted(self, cox_data):
        def as_curve(x, grid):
            return StepCurve(times=grid.points, values=np.exp(-grid.points), kind="survival")

        explainer = explain(as_curve, cox_data)
        assert np.allclose(
            explainer.predict(cox_data.features[0], "survival"),
            np.exp(-explainer.grid.points),
        )

    def test_background_needs_two_rows(self):
        data = make_dataset([1.0], [1], [[0.5]], ["z"])
        with pytest.raises(InputError, match="at least two observations"):
            explain(constant_survival(0.5), data, grid=TimeGrid(points=np.array([1.0, 2.0])))

    def test_background_needs_an_event(self):
        data = make_dataset([1.0, 2.0], [0, 0], [[0.5], [0.6]], ["z"])
        with pytest.raises(InputError, match="event"):
            explain(constant_survival(0.5), data, grid=TimeGrid(points=np.array([1.0, 2.0])))

    def test_unsupported_model_object_rejected(self, cox_data):
        with pytest.raises(InputError, match="prediction function"):
            explain(object(), cox_data)

    def test_same_background_gives_identical_grid(self, cox_data):
        first = explain(fit_cox(cox_data), cox_data)
        second = explain(fit_cox(cox_data), cox_data)
        assert np.array_equal(first.grid.points, second.grid.points)


def bad_past_seventy(kind):
    """A per-row model that passes the construction probe (age 50) and turns
    bad only for rows with age > 70."""

    def predict(x, grid):
        if x[0] <= 70:
            return np.exp(-grid.points * x[0] / 500.0)
        if kind == "nan":
            return np.full(len(grid), np.nan)
        if kind == "rising":
            return np.linspace(0.2, 0.9, len(grid))
        return np.ones(len(grid) - 1)

    return predict


BAD_OUTPUT = {
    "nan": (NumericError, "predicted survival is not finite for row {}$"),
    "rising": (InputError, "survival curve must be nonincreasing for row {}$"),
    "short": (InputError, "does not match grid length .* for row {}$"),
}

DRIVERS = {
    "survshap": lambda ex: predict_parts_survshap(ex, ex.background.features[0]),
    "pdp": lambda ex: model_profile(ex, "age"),
    "survlime": lambda ex: predict_parts_survlime(ex, np.array([68.0, 0.0])),
    "model_parts": lambda ex: model_parts(ex, n_permutations=1),
}


class TestOutputCheckedOnEveryCall:
    @pytest.fixture
    def aged_data(self):
        age = [50.0, 60.0, 65.0, 72.0, 55.0, 80.0, 58.0, 62.0, 75.0, 52.0]
        z = [0.1, -0.4, 0.3, 0.9, -1.2, 0.5, 0.0, -0.7, 1.1, 0.2]
        events = [1, 1, 0, 1, 0, 1, 1, 0, 1, 1]
        return make_dataset(np.arange(1.0, 11.0), events, np.column_stack([age, z]), ["age", "z"])

    @pytest.mark.parametrize("driver", DRIVERS)
    @pytest.mark.parametrize("kind", BAD_OUTPUT)
    def test_drivers_name_the_first_bad_row_of_their_batch(self, aged_data, kind, driver):
        explainer = explain(bad_past_seventy(kind), aged_data)
        batches = []
        per_row = explainer.model

        def recording(X, grid):
            batches.append(X)
            return per_row(X, grid)

        explainer.model = recording
        error, message = BAD_OUTPUT[kind]
        with pytest.raises(error) as raised:
            DRIVERS[driver](explainer)
        first_bad = int(np.argmax(batches[-1][:, 0] > 70))
        assert batches[-1][first_bad, 0] > 70
        assert raised.match(message.format(first_bad))

    def test_batch_callable_of_wrong_width_rejected_at_construction(self, cox_data):
        with pytest.raises(InputError, match="grid length"):
            Explainer(
                model=lambda X, g: np.ones((len(X), len(g) - 1)),
                background=cox_data,
                grid=default_time_grid(cox_data),
            )

    @pytest.mark.parametrize("fit", [fit_cox, fit_weibull_aft, fit_kaplan_meier])
    def test_builtin_survival_matrix_is_the_model_prediction(self, cox_data, fit):
        model = fit(cox_data)
        explainer = explain(model, cox_data)
        X = cox_data.features[:25]
        assert np.array_equal(
            explainer.survival_matrix(X), predict_survival_matrix(model, X, explainer.grid)
        )


class TestPredict:
    def test_survival_all_ones_maps_to_zero_chf_and_risk(self, cox_data):
        explainer = explain(constant_survival(1.0), cox_data)
        x = cox_data.features[:3]
        assert np.all(explainer.predict(x, "chf") == 0.0)
        assert np.all(explainer.predict(x, "risk") == 0.0)

    def test_risk_counts_grid_points_at_exp_minus_one(self, cox_data):
        rng = np.random.default_rng(4)
        times = rng.uniform(1.0, 50.0, size=200)
        data = make_dataset(times, np.ones(200, dtype=int), rng.normal(size=(200, 1)), ["z"])
        explainer = explain(constant_survival(np.exp(-1.0)), data)
        assert len(explainer.grid) == 51
        risk = explainer.predict(data.features[0], "risk")
        assert risk == pytest.approx(51.0, rel=1e-12)

    def test_risk_equals_manual_chf_sum_bitwise(self, cox_explainer, cox_data):
        X = cox_data.features[:10]
        survival = cox_explainer.predict(X, "survival")
        manual = (-np.log(np.clip(survival, 1e-18, 1.0))).sum(axis=1)
        assert np.array_equal(manual, cox_explainer.predict(X, "risk"))

    def test_dominated_survival_gives_higher_risk(self, cox_data):
        def two_level(x, grid):
            level = 0.3 if x[0] > 0 else 0.8
            return np.full(len(grid), level)

        explainer = explain(two_level, cox_data)
        low = explainer.predict(np.array([-1.0, 0.0]), "risk")
        high = explainer.predict(np.array([1.0, 0.0]), "risk")
        assert high > low

    def test_single_row_input_squeezes_output(self, cox_explainer, cox_data):
        single = cox_explainer.predict(cox_data.features[0], "survival")
        batch = cox_explainer.predict(cox_data.features[:1], "survival")
        assert single.shape == (len(cox_explainer.grid),)
        assert batch.shape == (1, len(cox_explainer.grid))
        assert np.array_equal(single, batch[0])

    def test_times_override_reevaluates_curves(self, cox_explainer, cox_data):
        coarse = TimeGrid(points=cox_explainer.grid.points[::5])
        values = cox_explainer.predict(cox_data.features[0], "survival", times=coarse)
        assert values.shape == (len(coarse),)

    def test_feature_width_mismatch_rejected(self, cox_explainer):
        with pytest.raises(InputError):
            cox_explainer.predict(np.ones((2, 5)), "survival")

    def test_unknown_output_type_rejected(self, cox_explainer, cox_data):
        with pytest.raises(InputError):
            cox_explainer.predict(cox_data.features[0], "hazard")

    @given(
        st.lists(st.floats(min_value=0.001, max_value=1.0, allow_nan=False), min_size=3, max_size=10)
    )
    def test_chf_nondecreasing_for_nonincreasing_survival(self, raw):
        values = np.sort(np.asarray(raw))[::-1]
        grid_points = np.arange(1.0, len(values) + 1.0)
        data = make_dataset(grid_points, np.ones(len(values), dtype=int))

        def from_values(x, grid):
            return values

        explainer = explain(from_values, data, grid=TimeGrid(points=grid_points))
        chf = explainer.predict(np.empty((1, 0)), "chf")
        assert np.all(np.diff(chf[0]) >= 0)
