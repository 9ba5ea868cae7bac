import importlib.util
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from survival_explain import (
    FitError,
    InputError,
    NumericError,
    StepCurve,
    TimeGrid,
    brier_score,
    explain,
    fit_cox,
    fit_kaplan_meier,
    fit_weibull_aft,
)
from survival_explain import models
from survival_explain.models import (
    _cox_objective,
    _weibull_objective,
    predict_cumulative_hazard_matrix,
    predict_survival_matrix,
)

from conftest import make_dataset, simulate_cohort, simulate_cox


def cox_evaluate(data):
    """The Breslow objective a Cox fit on ``data``'s raw features maximizes."""
    return _cox_objective(data.times, data.events, data.features)[0]


def weibull_evaluate(data):
    """The Weibull AFT objective a fit on ``data``'s raw features maximizes."""
    return _weibull_objective(data.times, data.events, data.features)


def loglik_only(evaluate):
    return lambda theta: evaluate(theta, derivatives=False)


def loop_partial_loglik(beta, times, events, features):
    """Breslow partial log-likelihood written as explicit per-event loops."""
    beta = np.asarray(beta, dtype=float)
    total = 0.0
    for i in range(len(times)):
        if events[i] != 1:
            continue
        risk_set = [j for j in range(len(times)) if times[j] >= times[i]]
        denominator = sum(np.exp(features[j] @ beta) for j in risk_set)
        total += features[i] @ beta - np.log(denominator)
    return total


def finite_difference_gradient(fn, theta, h):
    grad = np.zeros_like(theta)
    for i in range(len(theta)):
        bump = np.zeros_like(theta)
        bump[i] = h
        grad[i] = (fn(theta + bump) - fn(theta - bump)) / (2 * h)
    return grad


def finite_difference_hessian(fn, theta, h):
    p = len(theta)
    hess = np.zeros((p, p))
    for i in range(p):
        for j in range(p):
            ei = np.zeros(p)
            ej = np.zeros(p)
            ei[i] = h
            ej[j] = h
            hess[i, j] = (
                fn(theta + ei + ej) - fn(theta + ei - ej) - fn(theta - ei + ej) + fn(theta - ei - ej)
            ) / (4 * h * h)
    return hess


class TestCoxDerivatives:
    def test_loglik_matches_loop_oracle(self, cox_data):
        beta = np.array([0.3, -0.7])
        value = cox_evaluate(cox_data)(beta, derivatives=False)
        oracle = loop_partial_loglik(beta, cox_data.times, cox_data.events, cox_data.features)
        assert value == pytest.approx(oracle, rel=1e-12)

    def test_loglik_handles_ties_breslow(self):
        data = make_dataset([2, 2, 3, 4], [1, 1, 1, 0], [[0.0], [1.0], [0.5], [1.5]])
        beta = np.array([0.4])
        value = cox_evaluate(data)(beta, derivatives=False)
        oracle = loop_partial_loglik(beta, data.times, data.events, data.features)
        assert value == pytest.approx(oracle, rel=1e-12)

    def test_gradient_matches_finite_differences(self, cox_data):
        rng = np.random.default_rng(5)
        evaluate = cox_evaluate(cox_data)
        fn = loglik_only(evaluate)
        for _ in range(5):
            beta = rng.normal(scale=0.5, size=2)
            analytic = evaluate(beta)[1]
            numeric = finite_difference_gradient(fn, beta, h=1e-5)
            scale = max(1.0, np.abs(analytic).max())
            assert np.abs(analytic - numeric).max() / scale < 1e-5

    def test_hessian_matches_finite_differences(self, cox_data):
        rng = np.random.default_rng(6)
        evaluate = cox_evaluate(cox_data)
        fn = loglik_only(evaluate)
        for _ in range(5):
            beta = rng.normal(scale=0.5, size=2)
            analytic = evaluate(beta)[2]
            numeric = finite_difference_hessian(fn, beta, h=1e-3)
            scale = max(1.0, np.abs(analytic).max())
            assert np.abs(analytic - numeric).max() / scale < 1e-5


def loop_breslow_derivatives(beta, times, events, features):
    """Breslow gradient and Hessian summed one distinct event time at a time."""
    p = features.shape[1]
    grad = np.zeros(p)
    hess = np.zeros((p, p))
    for tau in np.unique(times[events == 1]):
        at_risk = [j for j in range(len(times)) if times[j] >= tau]
        failing = [i for i in range(len(times)) if times[i] == tau and events[i] == 1]
        s0, s1, s2 = 0.0, np.zeros(p), np.zeros((p, p))
        for j in at_risk:
            w = np.exp(features[j] @ beta)
            s0 += w
            s1 += w * features[j]
            s2 += w * np.outer(features[j], features[j])
        mean = s1 / s0
        for i in failing:
            grad += features[i] - mean
            hess -= s2 / s0 - np.outer(mean, mean)
    return grad, hess


def loop_breslow_baseline(beta, times, events, features):
    """Breslow cumulative baseline hazard at each distinct event time."""
    chf, total = [], 0.0
    for tau in np.unique(times[events == 1]):
        deaths = sum(1 for i in range(len(times)) if times[i] == tau and events[i] == 1)
        denominator = sum(np.exp(features[j] @ beta) for j in range(len(times)) if times[j] >= tau)
        total += deaths / denominator
        chf.append(total)
    return np.array(chf)


class TestCoxTiedTimes:
    @pytest.fixture
    def tied(self):
        # whole-unit times: events tie with events and with censorings
        data = simulate_cox(n=60, beta=[0.8, -0.5, 0.3], seed=4)
        return make_dataset(np.ceil(data.times), data.events, data.features)

    def test_data_has_event_and_censoring_ties(self, tied):
        event_times = tied.times[tied.events == 1]
        assert len(np.unique(event_times)) < len(event_times)
        assert np.isin(tied.times[tied.events == 0], event_times).any()

    def test_derivatives_match_loop_and_finite_differences(self, tied):
        t, e, X = tied.times, tied.events, tied.features
        evaluate = cox_evaluate(tied)
        fn = loglik_only(evaluate)
        rng = np.random.default_rng(8)
        for _ in range(3):
            beta = rng.normal(scale=0.5, size=3)
            _, grad, hess = evaluate(beta)
            loop_grad, loop_hess = loop_breslow_derivatives(beta, t, e, X)
            np.testing.assert_allclose(grad, loop_grad, rtol=1e-10, atol=1e-10)
            np.testing.assert_allclose(hess, loop_hess, rtol=1e-10, atol=1e-10)
            numeric = finite_difference_hessian(fn, beta, h=1e-3)
            assert np.abs(hess - numeric).max() / max(1.0, np.abs(hess).max()) < 1e-5
            assert np.abs(grad - finite_difference_gradient(fn, beta, h=1e-5)).max() < 1e-5

    def test_baseline_chf_matches_loop_breslow(self, tied):
        fitted = fit_cox(tied)
        centered = tied.features - fitted.feature_means
        oracle = loop_breslow_baseline(fitted.beta, tied.times, tied.events, centered)
        np.testing.assert_array_equal(
            fitted.baseline_chf.times, np.unique(tied.times[tied.events == 1])
        )
        np.testing.assert_allclose(fitted.baseline_chf.values, oracle, rtol=1e-12)


class TestCoxFitMemory:
    def test_twenty_thousand_rows_fit_without_a_per_row_hessian(self):
        # an (n, p, p) Hessian temporary alone would take 16 MB at this size
        n, p = 20_000, 10
        rng = np.random.default_rng(0)
        features = rng.normal(size=(n, p))
        times = np.ceil(rng.exponential(30.0 * np.exp(-0.2 * features[:, 0])))
        events = (rng.random(n) < 0.7).astype(int)
        data = make_dataset(times, events, features)
        tracemalloc.start()
        try:
            fitted = fit_cox(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6
        assert fitted.converged


class TestFitCox:
    def test_one_covariate_matches_grid_search(self):
        data = simulate_cox(n=30, beta=[0.9], seed=21)
        fitted = fit_cox(data)
        lo, hi = -3.0, 3.0
        for _ in range(3):
            grid = np.linspace(lo, hi, 2001)
            values = [
                loop_partial_loglik(np.array([b]), data.times, data.events, data.features)
                for b in grid
            ]
            best = grid[int(np.argmax(values))]
            spacing = grid[1] - grid[0]
            lo, hi = best - 2 * spacing, best + 2 * spacing
        assert abs(fitted.beta[0] - best) < 1e-6
        assert fitted.converged

    def test_gradient_is_zero_at_optimum(self, cox_data):
        fitted = fit_cox(cox_data)
        grad = cox_evaluate(cox_data)(fitted.beta)[1]
        assert np.abs(grad).max() < 1e-6

    def test_zero_variance_column_gets_exact_zero(self):
        data = simulate_cox(n=40, beta=[0.8], seed=3)
        features = np.column_stack([np.full(40, 2.5), data.features[:, 0]])
        padded = make_dataset(data.times, data.events, features, ["const", "z"])
        fitted = fit_cox(padded)
        assert fitted.beta[0] == 0.0
        assert fitted.beta[1] != 0.0

    def test_separated_data_sets_converged_false(self):
        data = make_dataset(
            [1, 2, 3, 4, 5],
            [1, 1, 0, 1, 1],
            np.column_stack([np.arange(5.0)]),
            ["z"],
        )
        fitted = fit_cox(data)
        assert not fitted.converged
        assert np.abs(fitted.beta).max() > 20.0

    def test_separated_data_fits_or_raises_fit_error_without_warnings(self):
        # the time itself as a feature: the risk sets can leave a double's range
        refused = 0
        for seed in range(200):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(5, 41))
            times = rng.uniform(1.0, 10.0, n)
            events = (rng.uniform(size=n) > 0.3).astype(int)
            events[np.argmin(times)] = 1
            data = make_dataset(times, events, np.column_stack([-times, rng.normal(size=n)]))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    fitted = fit_cox(data)
                except FitError:
                    refused += 1
                else:
                    assert np.all(np.isfinite(fitted.baseline_chf.values))
        assert refused > 0

    def test_no_events_raises_fit_error(self):
        with pytest.raises(FitError):
            fit_cox(make_dataset([1.0, 2.0], [0, 0], np.ones((2, 1)) * [[1.0], [2.0]], ["z"]))

    def test_single_row_raises_input_error(self):
        with pytest.raises(InputError):
            fit_cox(make_dataset([1.0], [1], [[1.0]], ["z"]))

    def test_baseline_chf_is_nondecreasing(self, cox_data):
        fitted = fit_cox(cox_data)
        assert np.all(np.diff(fitted.baseline_chf.values) >= 0)


def shape_scaled(log_shape_params):
    """Map (log shape, intercept, *coefficients) to the Weibull objective's
    coordinates (shape, shape * intercept, *(shape * coefficients))."""
    params = np.asarray(log_shape_params, dtype=float)
    shape = np.exp(params[0])
    return np.concatenate(([shape], shape * params[1:]))


class TestWeibullAft:
    def test_gradient_matches_finite_differences(self, cox_data):
        rng = np.random.default_rng(7)
        evaluate = weibull_evaluate(cox_data)
        fn = loglik_only(evaluate)
        for _ in range(5):
            params = shape_scaled(np.concatenate(
                [[rng.normal(scale=0.2)], [rng.normal(loc=1.0)], rng.normal(scale=0.3, size=2)]
            ))
            analytic = evaluate(params)[1]
            numeric = finite_difference_gradient(fn, params, h=1e-5)
            scale = max(1.0, np.abs(analytic).max())
            assert np.abs(analytic - numeric).max() / scale < 1e-5

    def test_hessian_matches_finite_differences(self, cox_data):
        evaluate = weibull_evaluate(cox_data)
        fn = loglik_only(evaluate)
        params = shape_scaled([0.1, 1.2, 0.3, -0.2])
        analytic = evaluate(params)[2]
        numeric = finite_difference_hessian(fn, params, h=1e-3)
        scale = max(1.0, np.abs(analytic).max())
        assert np.abs(analytic - numeric).max() / scale < 1e-5

    def test_recovers_simulation_parameters(self):
        rng = np.random.default_rng(13)
        n, shape_true = 600, 1.6
        features = rng.normal(size=(n, 2))
        scale_true = np.exp(1.0 + features @ np.array([0.5, -0.3]))
        event_times = scale_true * rng.weibull(shape_true, size=n)
        censor = rng.exponential(event_times.mean() * 2, size=n)
        data = make_dataset(
            np.minimum(event_times, censor), (event_times <= censor).astype(int), features
        )
        fitted = fit_weibull_aft(data)
        assert fitted.converged
        assert fitted.shape == pytest.approx(shape_true, rel=0.15)
        assert fitted.intercept == pytest.approx(1.0, abs=0.15)
        assert np.allclose(fitted.coefficients, [0.5, -0.3], atol=0.15)

    def test_overflowing_log_shape_gives_non_finite_not_an_exception(self, cox_data):
        # at shape 1390, exp(w) = exp(1390 log t - ...) overflows a double for
        # t above about 1.7; a Newton step can land there, and the step-halving
        # needs a non-finite value to reject it
        params = np.array([1390.0, 1.0, 0.3, -0.2])
        evaluate = weibull_evaluate(cox_data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loglik = evaluate(params, derivatives=False)
            _, gradient, hessian = evaluate(params)
        assert not np.isfinite(loglik)
        assert gradient.shape == (4,)
        assert hessian.shape == (4, 4)

    @pytest.mark.parametrize("shape", [0.0, -1.0])
    def test_nonpositive_shape_gives_non_finite_not_an_exception(self, cox_data, shape):
        # a Newton step can cross shape 0, and the step-halving rejects it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loglik = weibull_evaluate(cox_data)([shape, 1.0, 0.3, -0.2], derivatives=False)
        assert not np.isfinite(loglik)

    def test_converged_only_at_a_stationary_point(self):
        # tiny sets, some with no finite maximum; the gradient is taken in
        # (shape, shape * intercept, shape * coefficients) on the raw features
        for seed in range(300):
            rng = np.random.default_rng(seed)
            n, p = int(rng.integers(3, 13)), int(rng.integers(1, 4))
            features = rng.normal(size=(n, p)) * 10.0 ** rng.uniform(-2, 2, size=p)
            times = np.exp(rng.normal(size=n))
            events = (rng.random(n) < 0.7).astype(int)
            events[0] = 1
            fitted = fit_weibull_aft(make_dataset(times, events, features))
            if not fitted.converged:
                continue
            U = np.column_stack((np.log(times), -np.ones(n), -features))
            theta = fitted.shape * np.concatenate(([1.0, fitted.intercept], fitted.coefficients))
            gradient = (events - np.exp(U @ theta)) @ U
            gradient[0] += events.sum() / fitted.shape
            assert np.abs(gradient).max() < 1e-6, seed

    @pytest.mark.parametrize("n, p", [(300, 6), (80, 2)])
    def test_fit_takes_at_most_16_objective_calls(self, monkeypatch, n, p):
        calls = []
        objective = models._weibull_objective

        def counting(times, events, features):
            evaluate = objective(times, events, features)

            def counted(params, derivatives=True):
                calls.append(derivatives)
                return evaluate(params, derivatives)

            return counted

        monkeypatch.setattr(models, "_weibull_objective", counting)
        for seed in range(10):
            calls.clear()
            assert fit_weibull_aft(simulate_cohort(n, p, seed)).converged
            assert len(calls) <= 16, seed

    def test_nonpositive_times_rejected(self):
        with pytest.raises(InputError):
            fit_weibull_aft(make_dataset([0.0, 1.0], [1, 1], [[0.1], [0.2]], ["z"]))

    def test_zero_variance_column_gets_exact_zero(self):
        data = simulate_cox(n=50, beta=[0.6], seed=17)
        features = np.column_stack([np.zeros(50), data.features[:, 0]])
        padded = make_dataset(data.times, data.events, features, ["zero", "z"])
        fitted = fit_weibull_aft(padded)
        assert fitted.coefficients[0] == 0.0


def separated_cox_set(seed):
    """One of 200 small sets whose first feature, -time, separates them perfectly."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 41))
    times = rng.uniform(1.0, 10.0, n)
    events = (rng.uniform(size=n) > 0.3).astype(int)
    events[np.argmin(times)] = 1
    return make_dataset(times, events, np.column_stack([-times, rng.normal(size=n)]))


def tiny_weibull_set(seed):
    """One of 300 sets of 3 to 12 rows, some with no finite Weibull maximum."""
    rng = np.random.default_rng(seed)
    n, p = int(rng.integers(3, 13)), int(rng.integers(1, 4))
    features = rng.normal(size=(n, p)) * 10.0 ** rng.uniform(-2, 2, size=p)
    times = np.exp(rng.normal(size=n))
    events = (rng.random(n) < 0.7).astype(int)
    events[0] = 1
    return make_dataset(times, events, features)


def bench_cohort(seed, n):
    """The benchmark's seeded cohort (``bench/inputs.py``) as a dataset."""
    path = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    times, events, features, names = inputs.cohort(seed, n)
    return make_dataset(times, events, features, names)


def flag_of(fit, data):
    """The fit's ``converged`` flag, or "FitError" for a refused fit."""
    try:
        return fit(data).converged
    except FitError:
        return "FitError"


class TestConvergedFlag:
    def test_no_separated_set_reports_converged(self):
        flags = [flag_of(fit_cox, separated_cox_set(seed)) for seed in range(200)]
        assert True not in flags
        assert flags.count("FitError") > 0 and flags.count(False) > 0

    @pytest.mark.parametrize("seed", [49, 211])
    def test_weibull_fit_without_a_finite_maximum_is_not_converged(self, seed):
        fitted = fit_weibull_aft(tiny_weibull_set(seed))
        # the shape runs off toward infinity: 1e7 and more
        assert fitted.shape > 1e6
        assert not fitted.converged

    @pytest.mark.parametrize("fit", [fit_cox, fit_weibull_aft])
    def test_rescaling_a_feature_leaves_the_flag(self, fit):
        sets = [bench_cohort(seed, 500) for seed in range(3)]
        if fit is fit_cox:
            sets += [separated_cox_set(seed) for seed in (27, 147, 157)]
        else:
            sets += [tiny_weibull_set(seed) for seed in (49, 211)]
        for data in sets:
            flag = flag_of(fit, data)
            for j in range(data.n_features):
                for scale in (1e-3, 1e3):
                    features = data.features.copy()
                    features[:, j] *= scale
                    rescaled = make_dataset(data.times, data.events, features, data.feature_names)
                    assert flag_of(fit, rescaled) == flag, (j, scale)

    @pytest.mark.parametrize("n", [500, 5000])
    def test_benchmark_cohorts_stay_converged(self, n):
        for seed in range(20):
            data = bench_cohort(seed, n)
            assert fit_cox(data).converged, seed
            assert fit_weibull_aft(data).converged, seed


class TestFitChecks:
    """Both fits share one set-up; each check keeps its class, message and order."""

    ONE_ROW = ([1.0], [1], [[1.0]])
    NO_EVENTS = ([1.0, 2.0], [0, 0], [[1.0], [2.0]])
    ZERO_TIME = ([0.0, 1.0], [1, 1], [[0.1], [0.2]])
    ONE_ROW_NO_EVENT_ZERO_TIME = ([0.0], [0], [[1.0]])
    NO_EVENTS_ZERO_TIME = ([0.0, 2.0], [0, 0], [[1.0], [2.0]])

    @pytest.mark.parametrize(
        "fit, rows, error, message",
        [
            (fit_cox, ONE_ROW, InputError, "Cox fitting needs at least two observations"),
            (fit_cox, NO_EVENTS, FitError, "cannot fit a Cox model: no events observed"),
            (fit_cox, ONE_ROW_NO_EVENT_ZERO_TIME, InputError,
             "Cox fitting needs at least two observations"),
            (fit_weibull_aft, ONE_ROW, InputError,
             "Weibull AFT fitting needs at least two observations"),
            (fit_weibull_aft, NO_EVENTS, FitError,
             "cannot fit a Weibull AFT model: no events observed"),
            (fit_weibull_aft, ZERO_TIME, InputError, "Weibull AFT fitting requires all times > 0"),
            (fit_weibull_aft, ONE_ROW_NO_EVENT_ZERO_TIME, InputError,
             "Weibull AFT fitting needs at least two observations"),
            (fit_weibull_aft, NO_EVENTS_ZERO_TIME, FitError,
             "cannot fit a Weibull AFT model: no events observed"),
        ],
    )
    def test_raises_the_first_failing_check(self, fit, rows, error, message):
        with pytest.raises(Exception) as raised:
            fit(make_dataset(*rows, ["z"]))
        assert type(raised.value) is error
        assert str(raised.value) == message

    def test_cox_accepts_a_zero_time(self):
        fit_cox(make_dataset(*self.ZERO_TIME, ["z"]))


class TestPredictSurvival:
    @pytest.mark.parametrize("fit", [fit_cox, fit_weibull_aft, fit_kaplan_meier])
    def test_each_row_predicts_as_it_does_in_a_batch(self, fit):
        # exact SurvSHAP predicts a repeated coalition row once and reuses it,
        # which is exact only when a row's output ignores the rest of its batch
        data = simulate_cohort(500, 10, seed=12)
        fitted = fit(data)
        grid = TimeGrid(points=np.unique(data.times[data.events == 1]))
        batch = predict_survival_matrix(fitted, data.features, grid)
        for i, row in enumerate(data.features):
            assert np.array_equal(predict_survival_matrix(fitted, row[None, :], grid)[0], batch[i])

    def test_km_model_broadcasts_curve(self):
        data = make_dataset([1, 2, 3, 4], [1, 1, 0, 1])
        model = fit_kaplan_meier(data)
        grid = TimeGrid(points=np.array([1.0, 2.0, 4.0]))
        matrix = predict_survival_matrix(model, np.empty((2, 0)), grid)
        assert matrix.shape == (2, 3)
        assert np.array_equal(matrix[0], matrix[1])

    def test_cox_predictions_are_valid_survival_curves(self, cox_data):
        fitted = fit_cox(cox_data)
        grid = TimeGrid(points=np.unique(cox_data.times[cox_data.events == 1]))
        matrix = predict_survival_matrix(fitted, cox_data.features, grid)
        assert matrix.min() >= 0.0 and matrix.max() <= 1.0
        assert np.all(np.diff(matrix, axis=1) <= 0)

    def test_weibull_curve_matches_closed_form(self):
        data = simulate_cox(n=50, beta=[0.4], seed=9)
        fitted = fit_weibull_aft(data)
        grid = TimeGrid(points=np.array([0.5, 1.0, 2.0]))
        x = np.array([0.7])
        curve = predict_survival_matrix(fitted, x[None, :], grid)[0]
        lam = np.exp(fitted.intercept + fitted.coefficients @ x)
        expected = np.exp(-((grid.points / lam) ** fitted.shape))
        assert np.allclose(curve, expected, atol=1e-12)


class TestOneFormulaPerModel:
    """Survival is exp(-H) of the one cumulative-hazard formula of each model."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("fit", [fit_cox, fit_weibull_aft])
    def test_survival_is_exp_of_minus_the_hazard_bitwise(self, fit, seed):
        data = simulate_cohort(3000, 6, seed)
        model = fit(data)
        grid = TimeGrid(points=np.unique(data.times[data.events == 1]))
        H = predict_cumulative_hazard_matrix(model, data.features, grid)
        assert np.array_equal(predict_survival_matrix(model, data.features, grid), np.exp(-H))

    @pytest.mark.parametrize("fit", [fit_cox, fit_weibull_aft])
    def test_nan_coefficient_gives_nan_survival_and_fails_the_brier_score(self, fit, cox_data):
        model = fit(cox_data)
        explainer = explain(model, cox_data)
        if isinstance(model, models.CoxModel):
            model.beta = np.array([np.nan, 0.5])
        else:
            model.coefficients = np.array([np.nan, 0.5])
        assert np.isnan(predict_survival_matrix(model, cox_data.features, explainer.grid)).all()
        with pytest.raises(NumericError, match="predicted survival is not finite for row 0"):
            brier_score(explainer, cox_data)

    def test_every_kaplan_meier_row_is_the_clipped_curve(self):
        # a hand-built curve may stray past [0, 1] within the shape tolerance
        curve = StepCurve(np.array([1.0, 2.0, 3.0]), np.array([1.0 + 5e-10, 0.5, -5e-10]), "survival")
        grid = TimeGrid(points=np.array([0.5, 1.0, 1.5, 2.0, 3.0, 4.0]))
        matrix = predict_survival_matrix(models.KaplanMeierModel(curve), np.empty((4, 2)), grid)
        clipped = np.clip(curve.evaluate(grid.points), 0.0, 1.0)
        assert clipped[1] == 1.0 and clipped[-1] == 0.0
        for row in matrix:
            assert np.array_equal(row, clipped)

    def test_unsupported_model_is_an_input_error(self):
        grid = TimeGrid(points=np.array([1.0, 2.0]))
        for predict in (predict_survival_matrix, predict_cumulative_hazard_matrix):
            with pytest.raises(InputError, match="^unsupported model type object; "
                               "pass a fitted built-in model or a prediction function$"):
                predict(object(), np.zeros((2, 1)), grid)
