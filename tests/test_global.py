import numpy as np
import pytest

from survival_explain import (
    InputError,
    TimeGrid,
    background_sample,
    brier_score,
    cd_auc,
    concordance_index,
    explain,
    fit_cox,
    model_diagnostics,
    model_parts,
    model_profile,
    model_profile_2d,
    predict_profile,
)

from survival_explain.metrics import LOSS_NAMES

from conftest import make_dataset, simulate_cohort, simulate_cox


def first_feature_model(x, grid):
    # exponential hazard driven only by the first feature
    return np.exp(-np.exp(x[0]) * grid.points / 10.0)


@pytest.fixture
def two_feature_setup():
    data = simulate_cox(n=40, beta=[1.0, 0.0], seed=7)
    return data, explain(first_feature_model, data)


class TestModelParts:
    def test_ignored_variable_scores_exactly_zero(self, two_feature_setup):
        data, explainer = two_feature_setup
        for seed in (0, 42, 123):
            result = model_parts(explainer, n_permutations=5, seed=seed, variables=["x1"])[0]
            assert result.importance == 0.0
            assert np.array_equal(result.replicate_losses, np.full(5, result.baseline_loss))
            assert result.permuted_loss == result.baseline_loss
            assert result.seed == seed

    def test_informative_variable_scores_positive(self, cox_explainer):
        by_name = {r.variable: r for r in model_parts(cox_explainer)}
        assert by_name["x0"].importance > 0.0
        assert by_name["x1"].importance > 0.0

    def test_zero_permutations_rejected(self, two_feature_setup):
        _, explainer = two_feature_setup
        with pytest.raises(InputError, match="at least 1"):
            model_parts(explainer, n_permutations=0)

    def test_deterministic_under_fixed_seed(self, cox_explainer):
        first = model_parts(cox_explainer, n_permutations=4, seed=9)
        second = model_parts(cox_explainer, n_permutations=4, seed=9)
        shifted = model_parts(cox_explainer, n_permutations=4, seed=10)
        for a, b in zip(first, second):
            assert a.importance == b.importance
            assert np.array_equal(a.replicate_losses, b.replicate_losses)
        assert any(
            not np.array_equal(a.replicate_losses, c.replicate_losses)
            for a, c in zip(first, shifted)
        )

    def test_curve_loss_yields_curve_importance(self, cox_explainer):
        result = model_parts(cox_explainer, loss="brier_curve", n_permutations=3)[0]
        assert result.importance.shape == (len(cox_explainer.grid),)
        assert np.array_equal(result.permuted_loss, result.baseline_loss + result.importance)

    def test_callable_loss_accepted(self, cox_explainer):
        def loss(explainer, data):
            return 1.0 - concordance_index(explainer, data)

        result = model_parts(cox_explainer, loss=loss, n_permutations=3, variables=["x0"])[0]
        assert result.variable == "x0"
        assert np.isfinite(result.importance)

    @pytest.mark.parametrize("loss", ["brier_curve", "one_minus_cindex"])
    def test_standard_error_is_the_replicate_spread(self, loss, cox_explainer):
        for item in model_parts(cox_explainer, loss=loss, n_permutations=4, seed=3):
            replicates = list(item.replicate_losses)
            mean = sum(replicates) / 4
            variance = sum((replicate - mean) ** 2 for replicate in replicates) / 3
            expected = np.sqrt(variance) / 2
            np.testing.assert_allclose(item.standard_error, expected, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("loss", ["brier_curve", "one_minus_cindex"])
    def test_standard_error_is_none_for_one_permutation(self, loss, cox_explainer):
        for item in model_parts(cox_explainer, loss=loss, n_permutations=1):
            assert item.standard_error is None

    def test_replicate_spread_shrinks_with_more_permutations(self, cox_explainer):
        few = model_parts(cox_explainer, n_permutations=10, variables=["x0"])[0]
        many = model_parts(cox_explainer, n_permutations=100, variables=["x0"])[0]
        se_few = few.replicate_losses.std() / np.sqrt(few.n_permutations)
        se_many = many.replicate_losses.std() / np.sqrt(many.n_permutations)
        assert se_many < se_few


def per_row_weibull(x, grid):
    return np.exp(-((grid.points / 20.0) ** 1.3) * np.exp(0.4 * x[0] - 0.3 * x[1]))


@pytest.fixture(scope="module")
def last_time_censored():
    # every row at the largest time is censored, so the censoring KM reaches 0
    data = simulate_cohort(n=150, p=4, seed=3)
    events = np.where(data.times == data.times.max(), 0, data.events)
    return make_dataset(data.times, events, data.features, data.feature_names)


# each named loss written as a callable over the public metrics
PUBLIC_LOSSES = {
    "brier_integrated": lambda e, d: brier_score(e, d).integrated,
    "brier_curve": lambda e, d: brier_score(e, d).values,
    "cd_auc_integrated": lambda e, d: 1.0 - cd_auc(e, d).integrated,
    "one_minus_cindex": lambda e, d: 1.0 - concordance_index(e, d),
}


class TestPreparedLoss:
    @pytest.mark.parametrize("name", LOSS_NAMES)
    @pytest.mark.parametrize("model", ["cox", "per-row"])
    def test_named_loss_matches_fresh_preparation(self, name, model, cox_data, last_time_censored):
        # a named loss is prepared once per model_parts call; a callable loss
        # prepares on every call, so any state one score left behind would
        # show up as a difference
        for data in (cox_data, last_time_censored):
            explainer = explain(fit_cox(data) if model == "cox" else per_row_weibull, data)
            prepared = model_parts(explainer, name, n_permutations=2, seed=5)
            fresh = model_parts(explainer, PUBLIC_LOSSES[name], n_permutations=2, seed=5)
            for a, b in zip(prepared, fresh, strict=True):
                assert np.array_equal(a.baseline_loss, b.baseline_loss)
                assert np.array_equal(a.replicate_losses, b.replicate_losses)


class TestBackgroundSample:
    def test_cap_at_or_above_n_returns_rows_verbatim(self):
        features = np.arange(12.0).reshape(6, 2)
        assert np.array_equal(background_sample(features, 6), features)
        assert np.array_equal(background_sample(features, 100), features)

    def test_empty_sample_rejected(self):
        with pytest.raises(InputError, match="n_background"):
            background_sample(np.arange(12.0).reshape(6, 2), 0)

    def test_below_cap_sample_is_a_sorted_row_subset(self):
        features = np.arange(20.0).reshape(10, 2)
        sample = background_sample(features, 4)
        assert sample.shape == (4, 2)
        assert np.all(np.diff(sample[:, 0]) > 0)


class TestModelProfile:
    def test_pdp_of_ignored_variable_is_flat(self, two_feature_setup):
        _, explainer = two_feature_setup
        profile = model_profile(explainer, "x1")
        assert np.all(profile.values == profile.values[0])

    def test_pdp_risk_monotone_when_coefficient_positive(self, cox_data, cox_explainer):
        assert fit_cox(cox_data).beta[0] > 0
        profile = model_profile(cox_explainer, "x0", output_type="risk")
        assert profile.values.ndim == 1
        assert np.all(np.diff(profile.values) >= 0)

    def test_pdp_survival_values_stay_in_unit_interval(self, cox_explainer):
        profile = model_profile(cox_explainer, "x0")
        assert profile.values.min() >= 0.0 and profile.values.max() <= 1.0
        assert profile.method == "pdp" and profile.output_type == "survival"

    def test_pdp_constant_variable_collapses_to_one_point(self):
        data = make_dataset(
            [1.0, 2.0, 3.0, 4.0], [1, 1, 0, 1],
            [[0.2, 7.0], [0.5, 7.0], [0.1, 7.0], [0.9, 7.0]],
        )
        explainer = explain(first_feature_model, data)
        profile = model_profile(explainer, "x1")
        assert profile.grid_values[0].shape == (1,)
        assert profile.values.shape == (1, len(explainer.grid))

    def test_pdp_on_constant_column_equals_mean_prediction(self):
        data = make_dataset(
            [1.0, 2.0, 3.0, 4.0], [1, 1, 0, 1],
            [[0.2, 7.0], [0.5, 7.0], [0.1, 7.0], [0.9, 7.0]],
        )
        explainer = explain(first_feature_model, data)
        profile = model_profile(explainer, "x1")
        direct = explainer.predict(data.features, "survival").mean(axis=0)
        assert np.array_equal(profile.values[0], direct)

    def test_ale_centered_per_time_point(self, cox_explainer):
        for output_type in ("survival", "risk"):
            profile = model_profile(cox_explainer, "x0", method="ale", output_type=output_type)
            assert np.max(np.abs(profile.values.mean(axis=0))) < 1e-10

    def test_ale_constant_variable_rejected(self):
        data = make_dataset(
            [1.0, 2.0, 3.0, 4.0], [1, 1, 0, 1],
            [[0.2, 7.0], [0.5, 7.0], [0.1, 7.0], [0.9, 7.0]],
        )
        explainer = explain(first_feature_model, data)
        with pytest.raises(InputError, match="constant"):
            model_profile(explainer, "x1", method="ale")

    def test_unknown_method_rejected(self, cox_explainer):
        with pytest.raises(InputError, match="pdp or ale"):
            model_profile(cox_explainer, "x0", method="spline")

    def test_ale_matches_pdp_for_additive_model(self, two_feature_setup):
        # risk of first_feature_model depends on x0 alone, so ALE and PDP
        # agree up to the centering constant on a shared quantile grid
        _, explainer = two_feature_setup
        ale = model_profile(explainer, "x0", method="ale", grid_size=10, output_type="risk")
        pdp = model_profile(explainer, "x0", method="pdp", grid_size=11, output_type="risk")
        assert np.array_equal(ale.grid_values[0], pdp.grid_values[0])
        recentered = pdp.values - pdp.values.mean(axis=0)
        assert np.max(np.abs(ale.values - recentered)) < 1e-6


@pytest.mark.parametrize("grid_size", [-1, 0])
def test_profiles_reject_grid_size_below_one(cox_explainer, grid_size):
    x = cox_explainer.background.features[0]
    calls = [
        lambda: model_profile(cox_explainer, "x0", grid_size=grid_size),
        lambda: model_profile(cox_explainer, "x0", method="ale", grid_size=grid_size),
        lambda: model_profile_2d(cox_explainer, ("x0", "x1"), grid_size=grid_size),
        lambda: predict_profile(cox_explainer, x, "x0", grid_size=grid_size),
    ]
    for call in calls:
        with pytest.raises(InputError, match=f"^grid_size must be an integer of at least 1, got {grid_size}$"):
            call()


class TestModelProfile2d:
    def test_identical_variables_rejected(self, cox_explainer):
        with pytest.raises(InputError, match="distinct"):
            model_profile_2d(cox_explainer, ("x0", "x0"))

    def test_ignored_pair_gives_constant_surface(self):
        data = simulate_cox(n=30, beta=[1.0, 0.0, 0.0], seed=5)
        explainer = explain(first_feature_model, data)
        surface = model_profile_2d(explainer, ("x1", "x2"), grid_size=4)
        assert np.all(surface.values == surface.values[0, 0])

    def test_log_risk_surface_is_additive_for_cox(self, cox_data):
        # early-time grid keeps survival far above the log floor, where the
        # Cox log-risk is exactly additive in the two features
        event_times = cox_data.times[cox_data.events == 1]
        grid = TimeGrid(np.unique(np.quantile(event_times, np.linspace(0.05, 0.6, 12))))
        explainer = explain(fit_cox(cox_data), cox_data, grid=grid)
        surface = model_profile_2d(explainer, ("x0", "x1"), grid_size=5, output_type="risk")
        L = np.log(surface.values)
        contrast = L - L[:, [0]] - L[[0], :] + L[0, 0]
        assert np.max(np.abs(contrast)) < 1e-8

    def test_surface_matches_manual_recomputation(self, cox_explainer):
        surface = model_profile_2d(cox_explainer, ("x0", "x1"), grid_size=3)
        sample = background_sample(cox_explainer.background.features, 100)
        for a, z1 in enumerate(surface.grid_values[0]):
            for b, z2 in enumerate(surface.grid_values[1]):
                modified = sample.copy()
                modified[:, 0] = z1
                modified[:, 1] = z2
                direct = cox_explainer.predict(modified, "survival").mean(axis=0)
                assert np.array_equal(surface.values[a, b], direct)


class TestModelDiagnostics:
    def test_martingale_identity_is_bit_exact(self, cox_data, cox_explainer):
        res = model_diagnostics(cox_explainer)
        assert np.array_equal(res.martingale, cox_data.events - res.cox_snell)

    def test_censored_rows_mirror_cox_snell(self, cox_data, cox_explainer):
        res = model_diagnostics(cox_explainer)
        censored = cox_data.events == 0
        assert np.array_equal(res.martingale[censored], -res.cox_snell[censored])

    def test_cox_snell_nonnegative(self, cox_data, cox_explainer):
        res = model_diagnostics(cox_explainer)
        assert np.all(res.cox_snell >= 0.0)

    def test_unit_hazard_event_has_zero_residuals(self):
        data = make_dataset([1.0, 2.0, 3.0, 4.0], [1, 1, 1, 1])

        def quarter_hazard(x, grid):
            return np.exp(-grid.points / 4.0)

        explainer = explain(quarter_hazard, data)
        res = model_diagnostics(explainer)
        assert res.cox_snell[3] == 1.0
        assert res.martingale[3] == 0.0
        assert res.deviance[3] == 0.0

    def test_zero_hazard_event_flagged_undefined(self):
        data = make_dataset([1.0, 2.0], [1, 0])

        def all_ones(x, grid):
            return np.ones(len(grid))

        explainer = explain(all_ones, data, grid=TimeGrid(np.array([1.0, 2.0])))
        res = model_diagnostics(explainer)
        assert not res.deviance_defined[0]
        assert np.isnan(res.deviance[0])
        assert res.martingale[0] == 1.0
        # the censored row has zero hazard too, which stays well defined
        assert res.deviance_defined[1]
        assert res.deviance[1] == 0.0

    def test_fitted_cox_martingales_sum_to_zero(self, cox_data, cox_explainer):
        res = model_diagnostics(cox_explainer)
        assert abs(res.martingale.sum()) < 1e-6

    def test_deviance_sign_matches_martingale(self, cox_data, cox_explainer):
        res = model_diagnostics(cox_explainer)
        ok = res.deviance_defined
        assert np.array_equal(np.sign(res.deviance[ok]), np.sign(res.martingale[ok]))

    def test_cox_snell_km_tracks_unit_exponential(self):
        data = simulate_cox(n=500, beta=[1.0, -1.0], seed=21)
        explainer = explain(fit_cox(data), data)
        res = model_diagnostics(explainer)

        # product-limit estimate over the residuals, written out longhand
        order = np.argsort(res.cox_snell, kind="stable")
        r_sorted = res.cox_snell[order]
        e_sorted = data.events[order]
        surv = 1.0
        worst = 0.0
        for r in np.unique(r_sorted[e_sorted == 1]):
            at_risk = np.sum(r_sorted >= r)
            d = np.sum((r_sorted == r) & (e_sorted == 1))
            surv *= 1.0 - d / at_risk
            worst = max(worst, abs(surv - np.exp(-r)))
        assert worst < 0.1
