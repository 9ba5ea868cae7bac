import argparse

import numpy as np
import pytest
from hypothesis import given, strategies as st

from survival_explain import (
    CoxModel,
    Explainer,
    InputError,
    KaplanMeierModel,
    NumericError,
    StepCurve,
    SurvivalDataset,
    TimeGrid,
    WeibullAftModel,
    brier_score,
    cd_auc,
    concordance_index,
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
from survival_explain.cli import _handle_performance
from survival_explain.metrics import _cd_auc_scorer, _concordance_scorer
from survival_explain.models import predict_cumulative_hazard_matrix, predict_survival_matrix

from conftest import make_dataset, simulate_cohort, simulate_cox


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
        for m in (fit_cox(cox_data), fit_weibull_aft(cox_data), fit_kaplan_meier(cox_data)):
            assert explain(m, cox_data).model is m

    def test_wraps_user_function(self, cox_data):
        def half_life(x, grid):
            return np.exp(-grid.points / 2.0)

        explainer = explain(half_life, cox_data)
        values = explainer.predict(cox_data.features[0], "survival")
        assert np.allclose(values, np.exp(-explainer.grid.points / 2.0))

    def test_non_numeric_grid_is_an_input_error(self, cox_data):
        with pytest.raises(InputError, match="^grid points must be numeric$"):
            explain(fit_cox(cox_data), cox_data, grid=["a", "b"])

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

    def test_step_curve_predictions_refused(self, cox_data):
        # a per-row callable returns a value vector over the grid, nothing else
        def as_curve(x, grid):
            return StepCurve(times=grid.points, values=np.exp(-grid.points), kind="survival")

        with pytest.raises(InputError, match="prediction must be numeric"):
            explain(as_curve, cox_data)

    def test_two_dimensional_prediction_refused(self, cox_data):
        def as_column(x, grid):
            return np.exp(-grid.points)[:, None]

        with pytest.raises(InputError, match="prediction must be 1-dimensional"):
            explain(as_column, cox_data)

    def test_background_needs_two_rows(self):
        data = make_dataset([1.0], [1], [[0.5]], ["z"])
        with pytest.raises(InputError, match="at least two observations"):
            explain(constant_survival(0.5), data, grid=TimeGrid(points=np.array([1.0, 2.0])))

    def test_background_needs_an_event(self):
        data = make_dataset([1.0, 2.0], [0, 0], [[0.5], [0.6]], ["z"])
        with pytest.raises(InputError, match="event"):
            explain(constant_survival(0.5), data, grid=TimeGrid(points=np.array([1.0, 2.0])))

    def test_unsupported_model_object_rejected(self, cox_data):
        # explain and the constructor refuse it with the one message models.py raises
        message = (
            "^unsupported model type object; "
            "pass a fitted built-in model or a prediction function$"
        )
        for entry in (explain, Explainer):
            with pytest.raises(InputError, match=message):
                entry(object(), cox_data)

    def test_same_background_gives_identical_grid(self, cox_data):
        first = explain(fit_cox(cox_data), cox_data)
        second = explain(fit_cox(cox_data), cox_data)
        assert np.array_equal(first.grid.points, second.grid.points)

    def test_constructor_takes_the_grid_explain_takes(self, cox_data):
        def batch(X, grid):
            return np.exp(-np.outer(np.ones(len(X)), grid.points) / 10.0)

        model = fit_cox(cox_data)
        default = explain(model, cox_data).grid.points
        assert np.array_equal(Explainer(batch, cox_data).grid.points, default)
        points = [0.5, 1.0, 2.0]
        assert np.array_equal(Explainer(batch, cox_data, points).grid.points, points)
        assert np.array_equal(explain(model, cox_data, points).grid.points, points)
        with pytest.raises(InputError, match="^grid points must be numeric$"):
            Explainer(batch, cox_data, ["a", "b"])


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

#: Batch outputs numpy cannot turn into an (n, T) float matrix.
BAD_BATCH = {
    "strings": lambda n, T: [["0.5x"] * T for _ in range(n)],
    "objects": lambda n, T: [[object()] * T for _ in range(n)],
    "object": lambda n, T: object(),
    # rows 2 and on are one point short
    "ragged": lambda n, T: [np.full(T if i < 2 else T - 1, 0.5) for i in range(n)],
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

    def test_batch_callable_of_one_extra_row_rejected_at_construction(self, cox_data):
        grid = default_time_grid(cox_data)
        T = len(grid)
        with pytest.raises(InputError) as raised:
            Explainer(
                model=lambda X, g: np.exp(-np.outer(np.ones(len(X) + 1), g.points) / 10.0),
                background=cox_data,
                grid=grid,
            )
        assert str(raised.value) == (
            f"prediction shape (2, {T}) does not match 1 rows by grid length {T}"
        )

    @pytest.mark.parametrize("kind", ["strings", "objects", "object"])
    def test_batch_callable_of_non_numeric_output_rejected_at_construction(self, cox_data, kind):
        with pytest.raises(InputError, match="^prediction must be numeric$"):
            Explainer(
                model=lambda X, g: BAD_BATCH[kind](len(X), len(g)),
                background=cox_data,
                grid=default_time_grid(cox_data),
            )

    @pytest.mark.parametrize("kind", BAD_BATCH)
    def test_batch_callable_of_bad_output_rejected_at_predict(self, cox_data, kind):
        def good_for_one_row(X, grid):
            if len(X) == 1:
                return np.exp(-np.outer(np.ones(1), grid.points) / 10.0)
            return BAD_BATCH[kind](len(X), len(grid))

        explainer = Explainer(
            model=good_for_one_row, background=cox_data, grid=default_time_grid(cox_data)
        )
        T = len(explainer.grid)
        message = {
            "ragged": f"^prediction length {T - 1} does not match grid length {T} for row 2$"
        }.get(kind, "^prediction must be numeric$")
        with pytest.raises(InputError, match=message):
            explainer.predict(cox_data.features[:5])

    @pytest.mark.parametrize("fit", [fit_cox, fit_weibull_aft])
    def test_background_wider_than_the_model_rejected_at_construction(self, cox_data, fit):
        model = fit(cox_data)
        wider = make_dataset(
            cox_data.times,
            cox_data.events,
            np.column_stack([cox_data.features, np.ones(cox_data.n_observations)]),
        )
        with pytest.raises(InputError, match="^feature matrix has 3 columns, model expects 2$"):
            explain(model, wider)

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

    @pytest.mark.parametrize("output_type", ["survival", "chf", "risk"])
    @pytest.mark.parametrize("kind", ["cox", "km", "batch", "per_row"])
    def test_an_empty_batch_gives_empty_predictions(self, kind, output_type, cox_data):
        if kind == "cox":
            explainer = explain(fit_cox(cox_data), cox_data)
        elif kind == "km":
            explainer = explain(fit_kaplan_meier(cox_data), cox_data)
        elif kind == "batch":
            explainer = Explainer(
                lambda X, g: np.exp(-np.outer(np.exp(X[:, 0]), g.points)), cox_data
            )
        else:
            explainer = explain(lambda x, g: np.exp(-g.points), cox_data)
        empty = np.empty((0, cox_data.n_features))
        predicted = explainer.predict(empty, output_type)
        T = len(explainer.grid)
        assert predicted.shape == ((0,) if output_type == "risk" else (0, T))

    def test_positional_grid_matches_the_default(self, cox_explainer, cox_data):
        # the benchmark's layer tracer passes the grid positionally
        for explainer in (cox_explainer, explain(constant_survival(0.5), cox_data)):
            X = cox_data.features
            assert np.array_equal(
                explainer.survival_matrix(X, explainer.grid), explainer.survival_matrix(X)
            )

    def test_feature_width_mismatch_rejected(self, cox_explainer):
        with pytest.raises(InputError):
            cox_explainer.predict(np.ones((2, 5)), "survival")

    def test_three_dimensional_matrix_rejected(self, cox_explainer):
        with pytest.raises(
            InputError, match=r"^feature matrix must be 1- or 2-dimensional, got shape \(2, 2, 2\)$"
        ):
            cox_explainer.predict(np.ones((2, 2, 2)), "survival")

    @pytest.mark.parametrize("wrapping", ["cox", "batch", "per_row"])
    def test_one_dimensional_matrix_rejected_by_the_model(self, cox_data, wrapping):
        # a callable would take each feature value of the vector as one row
        model = fit_cox(cox_data)
        calls = []

        def batch(X, grid):
            calls.append(len(X))
            return predict_survival_matrix(model, X, grid)

        def per_row(x, grid):
            calls.append(1)
            return predict_survival_matrix(model, x[None, :], grid)[0]

        explainer = {
            "cox": lambda: explain(model, cox_data),
            "batch": lambda: Explainer(batch, cox_data),
            "per_row": lambda: explain(per_row, cox_data),
        }[wrapping]()
        calls.clear()
        p = cox_data.n_features
        with pytest.raises(InputError) as raised:
            explainer.survival_matrix(np.zeros(p))
        assert str(raised.value) == f"feature matrix must be 2-dimensional, got shape ({p},)"
        assert calls == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_matrix_rejected(self, cox_explainer, cox_data, bad):
        X = cox_data.features[:3].copy()
        X[1, 1] = bad
        with pytest.raises(InputError, match="^feature matrix contains non-finite values$"):
            cox_explainer.predict(X, "survival")

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


def floored_chf(S):
    """The cumulative hazard as -log S with S floored at 1e-18."""
    return -np.log(np.clip(S, 1e-18, 1.0))


class TestHazardNativeChf:
    """Cox and Weibull AFT serve chf and risk from their own cumulative hazard."""

    @pytest.mark.parametrize("fit", [fit_cox, fit_weibull_aft])
    def test_chf_matches_minus_log_survival_where_survival_is_above_the_floor(self, fit):
        data = simulate_cohort(3000, 6, seed=0)
        explainer = explain(fit(data), data)
        S = explainer.predict(data.features, "survival")
        chf = explainer.predict(data.features, "chf")
        above = S > 1e-18
        assert above.any()
        np.testing.assert_allclose(chf[above], -np.log(S[above]), rtol=1e-12, atol=0)

    def test_chf_is_the_model_hazard_capped(self, cox_explainer, cox_data):
        model, grid = cox_explainer.model, cox_explainer.grid
        H = predict_cumulative_hazard_matrix(model, cox_data.features, grid)
        chf = cox_explainer.predict(cox_data.features, "chf")
        assert np.array_equal(chf, np.minimum(H, -np.log(1e-18)))
        assert np.array_equal(cox_explainer.predict(cox_data.features, "risk"), chf.sum(axis=1))

    @pytest.mark.parametrize("kind", ["cox", "weibull"])
    def test_chf_is_exactly_the_cap_where_survival_underflows(self, kind):
        grid = TimeGrid(np.array([1.0, 2.0, 4.0, 8.0]))
        data = make_dataset([1.0, 2.0, 4.0, 8.0], [1, 1, 0, 1], [[0.0], [1.0], [3.0], [6.0]], ["z"])
        if kind == "cox":
            baseline = StepCurve(grid.points, np.array([0.1, 0.5, 2.0, 9.0]), kind="chf")
            model = CoxModel(beta=np.array([1.5]), baseline_chf=baseline, feature_means=np.zeros(1))
        else:
            model = WeibullAftModel(shape=2.0, intercept=1.0, coefficients=np.array([-0.6]))
        explainer = explain(model, data, grid=grid)
        S = explainer.predict(data.features, "survival")
        chf = explainer.predict(data.features, "chf")
        under = S < 1e-18
        assert under.any() and (~under).any()
        assert np.all(chf[under] == -np.log(1e-18))
        assert np.all(chf[~under] < -np.log(1e-18))

    @pytest.mark.parametrize("kind", ["cox", "weibull"])
    def test_nan_relative_risk_still_fails_the_metrics(self, kind, cox_data):
        model = fit_cox(cox_data) if kind == "cox" else fit_weibull_aft(cox_data)
        explainer = explain(model, cox_data)
        if kind == "cox":
            model.beta = np.array([np.nan, 0.5])
        else:
            model.coefficients = np.array([np.nan, 0.5])
        assert np.isnan(explainer.predict(cox_data.features, "chf")).all()
        for metric in (concordance_index, cd_auc):
            with pytest.raises(NumericError, match="risk score is not finite for row 0"):
                metric(explainer, cox_data)
        with pytest.raises(NumericError, match="predicted survival is not finite for row 0"):
            brier_score(explainer, cox_data)

    @pytest.mark.parametrize(
        "kind", ["km", "km_past_the_bounds", "km_reaching_zero", "per_row", "batch"]
    )
    def test_other_models_take_chf_and_risk_from_floored_survival(self, kind, cox_data):
        def per_row(x, grid):
            return np.exp(-grid.points * np.exp(4.0 * x[0]))

        if kind == "km":
            explainer = explain(fit_kaplan_meier(cox_data), cox_data)
        elif kind.startswith("km_"):
            # a hand-built curve may stray past [0, 1] within the shape tolerance
            values = [1.0 + 5e-10, 0.5, -5e-10]
            if kind == "km_reaching_zero":
                values = [0.75, 0.25, 0.0]
            curve = StepCurve(np.array([1.0, 2.0, 3.0]), np.array(values), "survival")
            explainer = explain(KaplanMeierModel(curve), cox_data)
        elif kind == "per_row":
            explainer = explain(per_row, cox_data)
        else:
            explainer = Explainer(
                model=lambda X, g: np.exp(-np.outer(np.exp(4.0 * X[:, 0]), g.points)),
                background=cox_data,
                grid=default_time_grid(cox_data),
            )
        X = cox_data.features
        manual = floored_chf(explainer.predict(X, "survival"))
        if kind != "km":
            assert (manual == -np.log(1e-18)).any()
        assert np.array_equal(explainer.predict(X, "chf"), manual)
        assert np.array_equal(explainer.predict(X, "risk"), manual.sum(axis=1))

    @pytest.mark.parametrize("seed", range(5))
    def test_rank_metrics_equal_those_of_floored_survival(self, seed):
        data = simulate_cohort(3000, 6, seed=seed)
        for fit in (fit_cox, fit_weibull_aft):
            explainer = explain(fit(data), data)
            risk = floored_chf(explainer.predict(data.features, "survival")).sum(axis=1)
            assert concordance_index(explainer, data) == _concordance_scorer(data)(risk)
            got = cd_auc(explainer, data)
            want = _cd_auc_scorer(explainer.grid, data)(risk)
            assert np.array_equal(got.values, want.values, equal_nan=True)
            assert got.integrated == want.integrated

    @pytest.mark.parametrize("fit", [fit_kaplan_meier, fit_cox, fit_weibull_aft])
    def test_performance_rank_metrics_equal_the_public_functions(self, fit, cox_data):
        explainer = explain(fit(cox_data), cox_data)
        result, _, _ = _handle_performance(argparse.Namespace(at_time=None), explainer, cox_data)
        auc = cd_auc(explainer, cox_data)
        assert result["cd_auc"]["values"].tobytes() == auc.values.tobytes()
        assert result["cd_auc"]["integrated"] == auc.integrated
        assert result["concordance_index"] == concordance_index(explainer, cox_data)
