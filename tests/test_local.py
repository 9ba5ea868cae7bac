import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from survival_explain import (
    CoxModel,
    Explainer,
    InputError,
    NumericError,
    background_sample,
    default_time_grid,
    explain,
    fit_cox,
    fit_kaplan_meier,
    fit_weibull_aft,
    model_parts,
    model_profile,
    model_profile_2d,
    model_survshap,
    nelson_aalen,
    predict_parts_survlime,
    predict_parts_survshap,
    predict_profile,
)

from survival_explain import local_explain
from survival_explain.explainer import _STACK_CELLS
from survival_explain.global_explain import _stacked_means
from survival_explain.local_explain import (
    EXACT_COALITION_MAX,
    _coalition_values,
    _distinct_rows,
    _exact_shapley,
)

from conftest import make_dataset, simulate_cohort, simulate_cox


def first_feature_model(x, grid):
    return np.exp(-np.exp(x[0]) * grid.points / 10.0)


def sum_model(x, grid):
    # symmetric in the two features by construction
    return np.exp(-np.exp(x[0] + x[1]) * grid.points / 20.0)


def brute_force_shapley(explainer, x, background):
    """Subset enumeration with factorial weights, one curve per variable."""
    p = len(x)
    grid_len = len(explainer.grid)

    def value(subset):
        batch = background.copy()
        for j in subset:
            batch[:, j] = x[j]
        return explainer.predict(batch, "survival").mean(axis=0)

    phi = np.zeros((p, grid_len))
    indices = list(range(p))
    for j in indices:
        others = [k for k in indices if k != j]
        for size in range(p):
            weight = math.factorial(size) * math.factorial(p - size - 1) / math.factorial(p)
            for subset in itertools.combinations(others, size):
                phi[j] += weight * (value(subset + (j,)) - value(subset))
    return phi


def mask_loop_shapley(values):
    """Exact phi from a (2^p, T) value matrix in mask order, one gather of
    the coalitions without variable j, and of the same with j added, per j."""
    p = len(values).bit_length() - 1
    masks = np.arange(1 << p)
    sizes = np.bitwise_count(masks)
    weights = np.array(
        [
            math.factorial(size) * math.factorial(p - size - 1) / math.factorial(p)
            for size in range(p)
        ]
    )
    phi = np.empty((p, values.shape[1]))
    for j in range(p):
        without = masks[(masks >> j) & 1 == 0]
        gains = values[without | (1 << j)] - values[without]
        phi[j] = (weights[sizes[without], None] * gains).sum(axis=0)
    return phi


class TestSurvShap:
    def test_single_variable_gets_the_whole_gap(self):
        data = simulate_cox(n=25, beta=[1.0], seed=3)
        explainer = explain(first_feature_model, data)
        x = data.features[4]
        result = predict_parts_survshap(explainer, x)
        gap = explainer.predict(x, "survival") - result.baseline
        assert result.phi.shape == (1, len(explainer.grid))
        assert np.max(np.abs(result.phi[0] - gap)) < 1e-12

    def test_exchangeable_variables_get_identical_phi(self):
        column = np.array([0.4, -0.2, 0.9, 0.1, -0.5])
        data = make_dataset(
            [2.0, 4.0, 1.0, 6.0, 3.0], [1, 1, 0, 1, 1],
            np.column_stack([column, column]),
        )
        explainer = explain(sum_model, data)
        x = np.array([0.3, 0.3])
        result = predict_parts_survshap(explainer, x)
        assert np.array_equal(result.phi[0], result.phi[1])

    def test_exact_enumeration_matches_brute_force(self):
        data = simulate_cox(n=40, beta=[1.0, -0.8, 0.5], seed=17)
        explainer = explain(fit_cox(data), data)
        x = data.features[0]
        result = predict_parts_survshap(explainer, x)
        assert result.method == "exact"
        assert result.n_samples == 8
        background = background_sample(data.features, 100)
        oracle = brute_force_shapley(explainer, x, background)
        assert np.max(np.abs(result.phi - oracle)) < 1e-12

    @pytest.mark.parametrize("n_times", [1, 33])
    @pytest.mark.parametrize("p", [1, 2, 3, 6, 10, 12])
    def test_exact_combine_bit_identical_to_the_mask_loop(self, p, n_times, monkeypatch):
        values = np.random.default_rng(p * n_times).random((1 << p, n_times))
        monkeypatch.setattr(local_explain, "_coalition_values", lambda *arguments: values)
        phi, baseline, standard_error = _exact_shapley(None, np.zeros(p), None)
        assert np.array_equal(phi, mask_loop_shapley(values))
        assert np.array_equal(baseline, values[0])
        assert standard_error is None

    def test_efficiency_holds_for_both_methods(self):
        data = simulate_cox(n=40, beta=[1.0, -0.8, 0.5], seed=17)
        explainer = explain(fit_cox(data), data)
        x = data.features[2]
        prediction = explainer.predict(x, "survival")
        for method in ("exact", "sampling"):
            result = predict_parts_survshap(explainer, x, method=method, n_permutations=7)
            gap = result.phi.sum(axis=0) - (prediction - result.baseline)
            assert np.max(np.abs(gap)) < 1e-10

    def test_unread_variable_gets_exactly_zero(self):
        data = simulate_cox(n=30, beta=[1.0, 0.0, 0.0], seed=9)
        explainer = explain(first_feature_model, data)
        result = predict_parts_survshap(explainer, data.features[1])
        assert np.array_equal(result.phi[1], np.zeros(len(explainer.grid)))
        assert np.array_equal(result.phi[2], np.zeros(len(explainer.grid)))
        assert result.aggregate[1] == 0.0 and result.aggregate[2] == 0.0

    def test_sampling_is_unbiased_around_exact_values(self):
        data = simulate_cox(n=30, beta=[1.0, -0.6, 0.4, -0.3, 0.2], seed=29)
        explainer = explain(fit_cox(data), data)
        x = data.features[0]
        exact = predict_parts_survshap(explainer, x, method="exact").phi
        draws = np.stack(
            [
                predict_parts_survshap(
                    explainer, x, method="sampling", n_permutations=30, seed=s
                ).phi
                for s in range(20)
            ]
        )
        gap = np.abs(draws.mean(axis=0) - exact)
        se = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
        assert np.all(gap <= 3.0 * se + 1e-12)

    def test_seed_echo_and_method_validation(self, cox_data, cox_explainer):
        x = cox_data.features[0]
        result = predict_parts_survshap(cox_explainer, x, method="sampling", seed=7)
        assert result.seed == 7 and result.n_samples == 100
        with pytest.raises(InputError, match="exact, or sampling"):
            predict_parts_survshap(cox_explainer, x, method="montecarlo")

    def test_bad_instances_rejected(self, cox_data, cox_explainer):
        with pytest.raises(InputError, match="nonempty"):
            predict_parts_survshap(cox_explainer, np.array([]))
        with pytest.raises(InputError, match="2"):
            predict_parts_survshap(cox_explainer, np.array([1.0, 2.0, 3.0]))
        with pytest.raises(InputError, match="non-finite"):
            predict_parts_survshap(cox_explainer, np.array([1.0, np.nan]))

    def test_bad_permutation_count_rejected(self, cox_data, cox_explainer):
        with pytest.raises(InputError, match="n_permutations"):
            predict_parts_survshap(
                cox_explainer, cox_data.features[0], method="sampling", n_permutations=0
            )

    @pytest.mark.parametrize("method", ["exact", "sampling"])
    def test_result_arrays_own_their_memory(self, cox_data, cox_explainer, method):
        # a view would keep the whole coalition-value matrix alive per result
        result = predict_parts_survshap(
            cox_explainer, cox_data.features[0], method=method, n_permutations=5
        )
        assert result.baseline.base is None
        assert result.phi.base is None
        if method == "sampling":
            assert result.standard_error.base is None

    def test_sampler_standard_error_matches_a_loop_over_its_orders(self):
        data = simulate_cox(n=30, beta=[1.0, -0.6, 0.4, -0.3, 0.2], seed=29)
        explainer = explain(fit_cox(data), data)
        x = data.features[0]
        p, n = len(x), 12
        result = predict_parts_survshap(explainer, x, method="sampling", n_permutations=n, seed=5)

        background = background_sample(data.features, 100)

        def value(subset):
            batch = background.copy()
            batch[:, subset] = x[subset]
            return explainer.predict(batch, "survival").mean(axis=0)

        rng = np.random.default_rng(np.random.SeedSequence(entropy=5))
        draws = np.zeros((n, p, len(explainer.grid)))
        for r in range(n):
            order = rng.permutation(p)
            for k, j in enumerate(order):
                draws[r, j] = value(list(order[: k + 1])) - value(list(order[:k]))
        assert np.max(np.abs(result.phi - draws.mean(axis=0))) < 1e-12
        expected = draws.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.max(np.abs(result.standard_error - expected)) < 1e-12

    def test_standard_error_absent_for_exact_and_undefined_for_one_draw(
        self, cox_data, cox_explainer
    ):
        x = cox_data.features[0]
        assert predict_parts_survshap(cox_explainer, x, method="exact").standard_error is None
        single = predict_parts_survshap(cox_explainer, x, method="sampling", n_permutations=1)
        assert single.standard_error is None


class CountingBatchModel:
    """Batch callable that counts the calls and rows it receives."""

    def __init__(self):
        self.calls = 0
        self.rows = 0
        self.call_rows = []

    def __call__(self, X, grid):
        self.calls += 1
        self.rows += len(X)
        self.call_rows.append(len(X))
        risk = np.exp(0.3 * X[:, 0] - 0.2 * X[:, 1] + 0.05 * X[:, 2:].sum(axis=1))
        return np.exp(-np.outer(risk, grid.points) / 10.0)


class TestStackedBatches:
    """The stacked drivers send whole background blocks, many per model call."""

    @pytest.fixture
    def counted(self):
        data = simulate_cox(n=100, beta=[0.5, -0.4] + [0.1] * 8, seed=21)
        model = CountingBatchModel()
        explainer = Explainer(model, data, default_time_grid(data))
        model.calls = model.rows = 0
        model.call_rows.clear()
        blocks_per_call = max(1, _STACK_CELLS // (100 * len(explainer.grid)))
        return data, explainer, model, 100 * blocks_per_call

    def test_exact_survshap_batches_its_coalitions(self, counted):
        data, explainer, model, _ = counted
        x = data.features[0]
        predict_parts_survshap(explainer, x, method="exact")
        # background row b needs the 2^|D(b)| subsets of the columns D(b) where
        # it differs from x; x itself is a background row and needs one row
        block_rows = 1 << (data.features != x).sum(axis=1)
        rows = int(block_rows.sum())
        assert model.rows == rows == 99 * (1 << 10) + 1
        # a call holds at most the budget's rows, and each block goes in whole
        # or, when larger than the budget, in as few pieces as the budget allows
        per_call = _STACK_CELLS // len(explainer.grid)
        assert math.ceil(rows / per_call) <= model.calls
        assert model.calls <= sum(math.ceil(r / per_call) for r in block_rows)

    def test_exact_survshap_cuts_every_variable_blocks_into_equal_pieces(self, counted):
        data, explainer, model, _ = counted
        predict_parts_survshap(explainer, data.features[0], method="exact")
        per_call = _STACK_CELLS // len(explainer.grid)
        assert max(model.call_rows) <= per_call
        # background row 0 is x itself and needs one row; each of rows 1-99
        # differs from x on all ten variables and is cut alone into the fewest
        # pieces of whole coalitions the budget allows, their sizes as equal
        # as whole coalitions allow
        pieces = math.ceil((1 << 10) / per_call)
        sizes = [(1 << 10) * (k + 1) // pieces - (1 << 10) * k // pieces for k in range(pieces)]
        assert max(sizes) - min(sizes) == (0 if (1 << 10) % pieces == 0 else 1)
        assert model.calls == 99 * pieces == 198
        # x's own one-row unit shares the first call with row 1's first piece
        assert model.call_rows == [1 + sizes[0]] + sizes[1:] + sizes * 98

    def test_exact_survshap_packs_several_every_variable_rows_per_call(self):
        # at p = 6 a row's 64 coalitions fit the budget many times over, so
        # whole rows share a call, and x's own one-row unit joins the first
        data = simulate_cox(n=100, beta=[0.5, -0.4, 0.3, 0.2, -0.1, 0.1], seed=21)
        model = CountingBatchModel()
        explainer = Explainer(model, data, default_time_grid(data))
        model.calls = model.rows = 0
        model.call_rows.clear()
        x = data.features[0]
        values = _coalition_values(explainer, x, data.features)
        per_call = _STACK_CELLS // len(explainer.grid)
        rows_per_call = per_call // 64
        assert rows_per_call > 1
        expected = [64 * rows_per_call] * (99 // rows_per_call)
        if 99 % rows_per_call:
            expected.append(64 * (99 % rows_per_call))
        expected[0] += 1
        assert model.call_rows == expected
        assert np.array_equal(values, all_rows_values(explainer, x, data.features))

    def test_two_variable_profile_batches_its_grid(self, counted):
        _, explainer, model, rows_per_call = counted
        surface = model_profile_2d(explainer, ("x0", "x1"), grid_size=10)
        assert surface.values.shape[:2] == (10, 10)
        rows = 10 * 10 * 100
        assert model.rows == rows
        assert model.calls <= math.ceil(rows / rows_per_call)


def all_rows_values(explainer, x, background, coalitions=None):
    """The coalition value matrix from every coalition's whole background
    block; by default the coalitions are all 2^p, in mask order."""
    if coalitions is None:
        p = len(x)
        coalitions = ((np.arange(1 << p)[:, None] >> np.arange(p)) & 1).astype(bool)
    return _stacked_means(explainer, background, coalitions, x)


def sampled_coalitions(p, n_permutations, seed):
    """The distinct prefix coalitions the sampler draws, as frozensets."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    orders = [rng.permutation(p) for _ in range(n_permutations)]
    return {frozenset(order[:k].tolist()) for order in orders for k in range(p + 1)}


def sampled_table(p, n_permutations, seed):
    """The (K, p) bool table of the distinct prefix coalitions the sampler
    draws, in the order it passes them to ``_coalition_values``."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    orders = np.array([rng.permutation(p) for _ in range(n_permutations)])
    prefixes = np.argsort(orders, axis=1)[:, None, :] < np.arange(p + 1)[None, :, None]
    return np.unique(prefixes.reshape(-1, p), axis=0)


def weibull_row_model(x, grid):
    lam = math.exp(4.0 - 0.01 * float(x.sum()))
    return np.exp(-((grid.points / lam) ** 1.2))


class TestDistinctCoalitionRows:
    """Both SurvSHAP methods predict each distinct coalition row once."""

    MODELS = {
        "cox": fit_cox,
        "weibull_aft": fit_weibull_aft,
        "kaplan_meier": fit_kaplan_meier,
        "per_row_callable": lambda data: weibull_row_model,
    }

    @pytest.mark.parametrize("p", [1, 3, 6, 10])
    @pytest.mark.parametrize("model", list(MODELS))
    def test_bit_identical_to_predicting_every_coalition_block(self, model, p, monkeypatch):
        data = simulate_cohort(120, p, seed=p)
        explainer = explain(self.MODELS[model](data), data)
        # 100 rows would take the per-row callable about 7 s at p = 10
        sizes = (17,) if model == "per_row_callable" and p == 10 else (17, 100)
        for n_background in sizes:
            background = background_sample(data.features, n_background)
            outside = background[3].copy()
            outside[::2] += 0.005  # the continuous columns
            assert not (background == outside).all(axis=1).any()
            for x in (background[3], outside):
                values = _coalition_values(explainer, x, background)
                assert np.array_equal(values, all_rows_values(explainer, x, background))
                result = predict_parts_survshap(explainer, x, n_background, method="exact")
                with monkeypatch.context() as patched:
                    patched.setattr(local_explain, "_coalition_values", all_rows_values)
                    reference = predict_parts_survshap(explainer, x, n_background, method="exact")
                assert np.array_equal(result.phi, reference.phi)
                assert np.array_equal(result.baseline, reference.baseline)

    def test_over_budget_blocks_are_gathered_whole_at_twelve_variables(self, monkeypatch):
        # from p = 11 on, a block can outgrow the budget while D(b) leaves out
        # a variable; it is then gathered, so it goes whole, in a call alone
        p = 12
        data = simulate_cohort(120, p, seed=p)
        explainer = explain(fit_cox(data), data)
        per_call = _STACK_CELLS // len(explainer.grid)
        background = background_sample(data.features, 17)
        outside = background[3].copy()
        outside[::2] += 0.005  # the continuous columns
        call_rows = []
        predict = explainer.predict

        def recording(X, output_type):
            call_rows.append(len(X))
            return predict(X, output_type)

        monkeypatch.setattr(explainer, "predict", recording)
        for x in (background[3], outside):
            block_rows = 1 << (background != x).sum(axis=1)
            over = block_rows[(block_rows > per_call) & (block_rows < 1 << p)]
            assert len(over) > 0
            call_rows.clear()
            values = _coalition_values(explainer, x, background)
            assert sum(call_rows) == block_rows.sum()
            assert sorted(rows for rows in call_rows if rows > per_call) == sorted(over)
            assert np.array_equal(values, all_rows_values(explainer, x, background))
            result = predict_parts_survshap(explainer, x, 17, method="exact")
            with monkeypatch.context() as patched:
                patched.setattr(local_explain, "_coalition_values", all_rows_values)
                reference = predict_parts_survshap(explainer, x, 17, method="exact")
            assert np.array_equal(result.phi, reference.phi)
            assert np.array_equal(result.baseline, reference.baseline)

    def test_per_row_callable_sees_each_distinct_row_once(self):
        data = simulate_cohort(150, 6, seed=4)
        calls = []

        def counting(x, grid):
            calls.append(None)
            return weibull_row_model(x, grid)

        explainer = explain(counting, data)
        assert len(calls) == 1  # the construction probe
        calls.clear()
        x = data.features[7]
        predict_parts_survshap(explainer, x, method="exact")
        background = background_sample(data.features, 100)
        assert len(calls) == (1 << (background != x).sum(axis=1)).sum() < 100 * (1 << 6)

    @pytest.mark.parametrize("continuous", [False, True], ids=["cohort", "continuous"])
    def test_memory_peak_at_ten_variables(self, continuous):
        data = simulate_cohort(400, 10, seed=6)
        if continuous:
            noise = np.random.default_rng(6).normal(scale=1e-3, size=data.features.shape)
            data = data.with_features(data.features + noise)
        explainer = explain(fit_cox(data), data)
        x = data.features[11]
        tracemalloc.start()
        try:
            predict_parts_survshap(explainer, x, method="exact")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20

    # permutations per sampled explanation: enough at small p that rows with
    # 2^|D(b)| < K are gathered, few at large p to keep the reference cheap
    SAMPLED_PERMUTATIONS = {1: 3, 3: 6, 6: 12, 10: 12, 20: 6, 70: 3}

    @pytest.mark.parametrize("p", list(SAMPLED_PERMUTATIONS))
    @pytest.mark.parametrize("model", list(MODELS))
    def test_sampler_bit_identical_to_predicting_every_coalition_block(
        self, model, p, monkeypatch
    ):
        data = simulate_cohort(120, p, seed=p)
        explainer = explain(self.MODELS[model](data), data)
        for n_background in (17, 100):
            background = background_sample(data.features, n_background)
            outside = background[3].copy()
            outside[::2] += 0.005  # the continuous columns
            assert not (background == outside).all(axis=1).any()
            for x in (background[3], outside):
                options = dict(
                    n_background=n_background,
                    method="sampling",
                    n_permutations=self.SAMPLED_PERMUTATIONS[p],
                    seed=p,
                )
                result = predict_parts_survshap(explainer, x, **options)
                with monkeypatch.context() as patched:
                    patched.setattr(local_explain, "_coalition_values", all_rows_values)
                    reference = predict_parts_survshap(explainer, x, **options)
                assert np.array_equal(result.phi, reference.phi)
                assert np.array_equal(result.baseline, reference.baseline)
                assert np.array_equal(result.standard_error, reference.standard_error)

    @pytest.mark.parametrize("model", ["cox", "per_row_callable"])
    def test_sampler_gathers_patterns_beyond_sixty_two_columns(self, model, monkeypatch):
        # a mostly-binary background: half its rows differ from x in 2 to 5
        # columns, one of them past column 62, and are gathered; the rest
        # differ in 30 columns and are predicted for every coalition
        p, n_permutations, seed = 70, 3, 70
        rng = np.random.default_rng(seed)
        x = (rng.random(p) < 0.5).astype(float)
        features = np.repeat(x[None, :], 120, axis=0)
        for i, row in enumerate(features):
            if i % 2:
                flipped = np.append(rng.choice(62, 1 + i // 2 % 4, replace=False), 62 + i % 8)
            else:
                flipped = rng.choice(p, 30, replace=False)
            row[flipped] = 1.0 - row[flipped]
        data = simulate_cohort(120, p, seed=seed).with_features(features)
        if model == "cox":
            black_box = CoxModel(
                beta=np.linspace(-0.3, 0.3, p),
                baseline_chf=nelson_aalen(data),
                feature_means=features.mean(axis=0),
            )
        else:
            black_box = weibull_row_model
        explainer = explain(black_box, data)
        background = background_sample(features, 100)
        differs = background != x
        n_coalitions = len(sampled_table(p, n_permutations, seed))
        gathered = differs.sum(axis=1) < (n_coalitions - 1).bit_length()
        past = gathered & differs[:, 62:].any(axis=1) & (differs.sum(axis=1) >= 2)
        assert 0 < past.sum() < len(background)
        options = dict(method="sampling", n_permutations=n_permutations, seed=seed)
        result = predict_parts_survshap(explainer, x, **options)
        with monkeypatch.context() as patched:
            patched.setattr(local_explain, "_coalition_values", all_rows_values)
            reference = predict_parts_survshap(explainer, x, **options)
        assert np.any(result.phi[62:] != 0.0)
        assert np.array_equal(result.phi, reference.phi)
        assert np.array_equal(result.baseline, reference.baseline)
        assert np.array_equal(result.standard_error, reference.standard_error)

    def test_sampler_predicts_each_distinct_row_once(self):
        # p = 6 with three binary columns: rows close to x are gathered, rows
        # that differ on enough variables are predicted for every coalition
        data = simulate_cohort(150, 6, seed=4)
        calls = []

        def counting(x, grid):
            calls.append(None)
            return weibull_row_model(x, grid)

        explainer = explain(counting, data)
        assert len(calls) == 1  # the construction probe
        background = background_sample(data.features, 100)
        coalitions = sampled_coalitions(6, 5, seed=3)
        n_coalitions = len(coalitions)
        for x in (data.features[7], background[10]):
            calls.clear()
            predict_parts_survshap(explainer, x, method="sampling", n_permutations=5, seed=3)
            expected, gathered = 0, 0
            for row in background:
                differs = frozenset(np.flatnonzero(row.view(np.int64) != x.view(np.int64)).tolist())
                if 1 << len(differs) < n_coalitions:
                    expected += len({coalition & differs for coalition in coalitions})
                    gathered += 1
                else:
                    expected += n_coalitions
            assert 0 < gathered < len(background)
            assert len(calls) == expected < len(background) * n_coalitions

    def test_sampler_memory_peak_at_seventy_variables(self, monkeypatch):
        data = simulate_cohort(120, 70, seed=70)
        explainer = explain(fit_cox(data), data)
        background = background_sample(data.features, 100)

        def peak(x):
            tracemalloc.start()
            try:
                predict_parts_survshap(explainer, x, method="sampling", n_permutations=20)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        outside = background[3].copy()
        outside[::2] += 0.005
        for x in (background[3], outside):
            measured = peak(x)
            with monkeypatch.context() as patched:
                patched.setattr(local_explain, "_coalition_values", all_rows_values)
                reference = peak(x)
            assert measured <= 1.1 * reference

    @pytest.mark.parametrize("p", [1, 3, 6, 10])
    @pytest.mark.parametrize("method", ["exact", "sampling"])
    def test_rows_equal_to_the_instance_bit_identical(self, method, p):
        # a row equal to x has one distinct row, gathered to every coalition
        # through the same index as any other gathered row
        data = simulate_cohort(120, p, seed=p)
        explainer = explain(fit_cox(data), data)
        x = data.features[5]
        coalitions = None if method == "exact" else sampled_table(p, 7, seed=p)
        others = data.features[10:40]
        for background in (
            x[None, :],
            np.repeat(x[None, :], 3, axis=0),
            np.vstack([x, others[:12], x, others[12:], x]),
        ):
            values = _coalition_values(explainer, x, background, coalitions)
            reference = all_rows_values(explainer, x, background, coalitions)
            assert np.array_equal(values, reference)

    @pytest.mark.parametrize("p", [1, 7, 8, 9, 70])
    def test_distinct_rows_match_unique_along_rows(self, p):
        table = np.random.default_rng(p).random((300, p)) < 0.8
        first, inverse = _distinct_rows(table)
        distinct, reference = np.unique(table, axis=0, return_inverse=True)
        assert np.array_equal(table[first], distinct)
        assert np.array_equal(inverse.ravel(), reference.ravel())
        firsts = [np.flatnonzero(reference.ravel() == k)[0] for k in range(len(distinct))]
        assert np.array_equal(first, firsts)

    def test_sampler_no_longer_stacks_whole_blocks(self):
        assert not hasattr(local_explain, "_stacked_means")

    def test_explicit_exact_refuses_more_than_the_cap(self):
        p = EXACT_COALITION_MAX + 1
        data = simulate_cohort(60, p, seed=8)
        explainer = explain(fit_kaplan_meier(data), data)
        with pytest.raises(InputError, match="sampling"):
            predict_parts_survshap(explainer, data.features[0], method="exact")
        with pytest.raises(InputError, match="^exact SurvSHAP enumerates"):
            model_survshap(explainer, data.features[:2], method="exact")


@pytest.fixture(scope="module")
def ten_feature_cox():
    data = simulate_cox(n=120, beta=np.linspace(-0.5, 0.5, 10), seed=31)
    return data, explain(fit_cox(data), data)


class TestSurvLime:
    @pytest.fixture
    def handmade_cox(self):
        # black box with known coefficients; the third one is exactly zero
        data = simulate_cox(n=150, beta=[1.0, -0.8, 0.0], seed=19)
        beta = np.array([1.0, -0.8, 0.0])
        model = CoxModel(
            beta=beta,
            baseline_chf=nelson_aalen(data),
            feature_means=data.features.mean(axis=0),
        )
        return data, beta, explain(model, data)

    def test_recovers_cox_black_box_coefficients(self, handmade_cox):
        data, beta, explainer = handmade_cox
        result = predict_parts_survlime(explainer, data.features[0], n_neighbors=500, seed=5)
        assert np.max(np.abs(result.surrogate_beta - beta)) < 0.1
        assert abs(result.surrogate_beta[2]) < 0.05
        # a proportional-hazards black box leaves essentially no residual
        assert result.fit_residual < 1e-10
        assert not result.degenerate
        assert result.neighborhood_size == 500
        assert result.kernel_width > 0

    def test_zero_variance_feature_gets_zero_coefficient(self):
        rng = np.random.default_rng(2)
        features = np.column_stack([rng.normal(size=30), np.full(30, 7.0)])
        data = make_dataset(
            rng.exponential(5.0, size=30) + 0.1,
            rng.integers(0, 2, size=30) | np.array([1] + [0] * 29),
            features,
        )
        explainer = explain(first_feature_model, data)
        result = predict_parts_survlime(explainer, data.features[0], n_neighbors=80)
        assert result.surrogate_beta[1] == 0.0
        assert np.isfinite(result.surrogate_beta).all()

    def test_collapsed_neighborhood_is_an_error(self):
        data = make_dataset(
            [1.0, 2.0, 3.0, 4.0], [1, 1, 0, 1],
            np.full((4, 2), 3.0),
        )
        explainer = explain(lambda x, grid: np.full(len(grid), 0.6), data)
        with pytest.raises(NumericError, match="zero kernel width"):
            predict_parts_survlime(explainer, data.features[0], n_neighbors=50)

    def test_solution_beats_the_zero_vector(self, cox_data, cox_explainer):
        x = cox_data.features[3]
        result = predict_parts_survlime(cox_explainer, x, n_neighbors=60, seed=11)

        # replicate the neighborhood pipeline verbatim to price beta = 0
        scale = cox_data.features.std(axis=0)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=11))
        neighbors = x[None, :] + rng.standard_normal((60, 2)) * scale[None, :]
        gaps = neighbors[:, None, :] - neighbors[None, :, :]
        sigma = np.sqrt((gaps**2).sum(axis=-1))[np.triu_indices(60, k=1)].mean()
        weights = np.exp(-((neighbors - x[None, :]) ** 2).sum(axis=1) / sigma**2)
        grid = cox_explainer.grid
        baseline = np.clip(nelson_aalen(cox_data).evaluate(grid.points), 1e-18, None)
        chf = np.clip(cox_explainer.predict(neighbors, "chf"), 1e-18, None)
        spacing = np.diff(grid.points, prepend=0.0)
        targets = (np.log(chf) - np.log(baseline)[None, :]) @ spacing / spacing.sum()

        assert result.kernel_width == sigma
        assert 0.0 <= result.fit_residual <= weights @ targets**2 + 1e-12

    def test_underdetermined_fit_flags_degenerate(self, handmade_cox):
        data, _, explainer = handmade_cox
        result = predict_parts_survlime(explainer, data.features[0], n_neighbors=2)
        assert result.degenerate
        assert np.isfinite(result.surrogate_beta).all()

    @pytest.mark.parametrize("seed", range(5))
    def test_fewer_neighbours_than_unknowns_is_degenerate_on_every_seed(self, seed):
        # two neighbours, three unknowns (intercept and two slopes): the normal
        # matrix is singular even where the solver returns an exact fit
        data = make_dataset(
            [5, 3, 8, 2, 6, 4], [1, 0, 1, 1, 0, 1],
            np.array([[61, 0.5], [48, 1.2], [70, 0.1], [55, 0.9], [66, 0.3], [52, 0.7]]),
            ["age", "dose"],
        )
        explainer = explain(fit_cox(data), data)
        result = predict_parts_survlime(explainer, data.features[0], n_neighbors=2, seed=seed)
        assert result.degenerate
        assert np.isfinite(result.surrogate_beta).all()

    def test_too_few_neighbors_rejected(self, cox_data, cox_explainer):
        with pytest.raises(InputError, match="at least 2"):
            predict_parts_survlime(cox_explainer, cox_data.features[0], n_neighbors=1)

    @pytest.mark.parametrize("n_neighbors", [2, 17, 250])
    def test_kernel_width_is_the_mean_pairwise_distance(self, ten_feature_cox, n_neighbors):
        data, explainer = ten_feature_cox
        x = data.features[5]
        result = predict_parts_survlime(explainer, x, n_neighbors=n_neighbors, seed=3)
        # reference: the (m, m, p) gap array the row-by-row distances replace
        rng = np.random.default_rng(np.random.SeedSequence(entropy=3))
        scale = data.features.std(axis=0)
        neighbors = x[None, :] + rng.standard_normal((n_neighbors, 10)) * scale[None, :]
        gaps = neighbors[:, None, :] - neighbors[None, :, :]
        sigma = np.sqrt((gaps**2).sum(axis=-1))[np.triu_indices(n_neighbors, k=1)].mean()
        assert result.kernel_width == sigma

    def test_kernel_width_memory_is_quadratic_with_a_small_constant(self, ten_feature_cox):
        # an (m, m, p) float gap array alone would take 80 MB here
        data, explainer = ten_feature_cox
        tracemalloc.start()
        try:
            predict_parts_survlime(explainer, data.features[0], n_neighbors=1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20


class TestIceProfile:
    def test_curve_at_observed_value_is_the_raw_prediction(self, cox_data, cox_explainer):
        x = cox_data.features[3]
        profile = predict_profile(cox_explainer, x, "x0")
        assert profile.observed_value == x[0]
        position = np.flatnonzero(profile.grid_values == x[0])
        assert position.size == 1
        raw = cox_explainer.predict(x, "survival")
        assert np.array_equal(profile.curves[position[0]], raw)

    def test_ignored_variable_gives_identical_curves(self):
        data = simulate_cox(n=25, beta=[1.0, 0.0], seed=13)
        explainer = explain(first_feature_model, data)
        profile = predict_profile(explainer, data.features[0], "x1")
        assert np.all(profile.curves == profile.curves[0])

    def test_mean_ice_reproduces_pdp_bit_for_bit(self, cox_data, cox_explainer):
        pdp = model_profile(cox_explainer, "x0", grid_size=7)
        rows = background_sample(cox_data.features, 100)
        stacked = np.stack(
            [
                predict_profile(
                    cox_explainer, row, "x0", grid_values=pdp.grid_values[0]
                ).curves
                for row in rows
            ]
        )
        assert np.array_equal(stacked.mean(axis=0), pdp.values)

    def test_risk_output_drops_the_time_axis(self, cox_data, cox_explainer):
        profile = predict_profile(cox_explainer, cox_data.features[0], "x0", output_type="risk")
        assert profile.curves.shape == (len(profile.grid_values),)

    def test_unknown_variable_rejected(self, cox_data, cox_explainer):
        with pytest.raises(InputError, match="unknown variable"):
            predict_profile(cox_explainer, cox_data.features[0], "age")

    def test_explicit_grid_values_used_verbatim(self, cox_data, cox_explainer):
        profile = predict_profile(
            cox_explainer, cox_data.features[0], "x0", grid_values=[0.5, -0.5, 0.5]
        )
        assert np.array_equal(profile.grid_values, [-0.5, 0.5])
        with pytest.raises(InputError, match="finite"):
            predict_profile(
                cox_explainer, cox_data.features[0], "x0", grid_values=[0.0, np.inf]
            )

    def test_empty_grid_values_rejected(self, cox_data, cox_explainer):
        with pytest.raises(InputError, match="^grid_values must be nonempty$"):
            predict_profile(cox_explainer, cox_data.features[0], "x0", grid_values=[])


class TestModelSurvShap:
    def test_single_instance_aggregates_are_its_own(self, cox_data, cox_explainer):
        x = cox_data.features[0]
        result = model_survshap(cox_explainer, x)
        single = result.per_instance[0]
        assert len(result.per_instance) == 1
        assert np.array_equal(result.importance_ranking, single.aggregate)
        assert np.array_equal(result.mean_abs_phi, np.abs(single.phi))
        assert result.beeswarm_data.shape == (1, 2, 2)
        assert np.array_equal(result.beeswarm_data[0, :, 0], x)

    def test_unread_variable_ranks_exactly_zero(self):
        data = simulate_cox(n=30, beta=[1.0, 0.0, 0.0], seed=9)
        explainer = explain(first_feature_model, data)
        result = model_survshap(explainer, data.features[:5])
        assert result.importance_ranking[1] == 0.0
        assert result.importance_ranking[2] == 0.0

    def test_dominant_coefficient_ranks_first(self):
        data = simulate_cox(n=60, beta=[2.0, 0.1], seed=23)
        model = CoxModel(
            beta=np.array([2.0, 0.1]),
            baseline_chf=nelson_aalen(data),
            feature_means=data.features.mean(axis=0),
        )
        explainer = explain(model, data)
        result = model_survshap(explainer, data.features[:6])
        assert result.importance_ranking[0] > result.importance_ranking[1]

    def test_errors_carry_the_row_index(self, cox_data, cox_explainer):
        X = cox_data.features[:3].copy()
        X[1, 0] = np.nan
        with pytest.raises(InputError, match="row 1: instance contains non-finite"):
            model_survshap(cox_explainer, X)


SEEDED_ENTRIES = {
    "model_parts": lambda explainer, seed: model_parts(explainer, n_permutations=1, seed=seed),
    "survshap exact": lambda explainer, seed: predict_parts_survshap(
        explainer, explainer.background.features[0], method="exact", seed=seed
    ),
    "survshap sampling": lambda explainer, seed: predict_parts_survshap(
        explainer, explainer.background.features[0], method="sampling", seed=seed
    ),
    "survlime": lambda explainer, seed: predict_parts_survlime(
        explainer, explainer.background.features[0], seed=seed
    ),
    "model_survshap": lambda explainer, seed: model_survshap(
        explainer, explainer.background.features[:2], seed=seed
    ),
}


@pytest.mark.parametrize("seed", [-1, -(2**40), 1.5, True, np.random.SeedSequence(1)])
@pytest.mark.parametrize("entry", sorted(SEEDED_ENTRIES))
def test_bad_seed_rejected_before_any_prediction(entry, seed):
    data = simulate_cohort(30, 3, seed=2)
    model = CountingBatchModel()
    explainer = Explainer(model, data, default_time_grid(data))
    calls = model.calls
    with pytest.raises(InputError, match="^seed must be a non-negative integer$"):
        SEEDED_ENTRIES[entry](explainer, seed)
    assert model.calls == calls


BAD_ARGUMENTS = {
    "model_survshap method": (
        lambda ex: model_survshap(ex, ex.background.features[:2], method="shapley"),
        "^unknown method 'shapley'; expected auto, exact, or sampling$",
    ),
    "model_survshap n_background": (
        lambda ex: model_survshap(ex, ex.background.features[:2], n_background=0),
        "^n_background must be an integer of at least 1, got 0$",
    ),
    "model_survshap n_permutations": (
        lambda ex: model_survshap(
            ex, ex.background.features[:2], method="sampling", n_permutations=0
        ),
        "^n_permutations must be an integer of at least 1, got 0$",
    ),
    "model_survshap no rows": (
        lambda ex: model_survshap(ex, np.empty((0, 3))),
        "^X must be a nonempty instance matrix$",
    ),
    "model_survshap three-dimensional X": (
        lambda ex: model_survshap(ex, np.ones((2, 3, 1))),
        "^X must be a nonempty instance matrix$",
    ),
    "model_parts unknown variable": (
        lambda ex: model_parts(ex, n_permutations=3, variables=["x0", "nope"]),
        "^unknown variable 'nope'",
    ),
    "model_parts repeated variable": (
        lambda ex: model_parts(ex, n_permutations=3, variables=["x0", "x0"]),
        "^variables must be distinct",
    ),
    "model_parts string of variables": (
        lambda ex: model_parts(ex, n_permutations=3, variables="x0"),
        "^variables must be a list of names, got the string 'x0'$",
    ),
    "model_profile_2d string of variables": (
        lambda ex: model_profile_2d(ex, "x0"),
        "^variables must be a list of two names, got 'x0'$",
    ),
    "model_profile_2d one variable": (
        lambda ex: model_profile_2d(ex, ("x0",)),
        "^variables must be a list of two names, got \\('x0',\\)$",
    ),
    "predict_profile two-dimensional grid_values": (
        lambda ex: predict_profile(
            ex, ex.background.features[0], "x0", grid_values=[[0.1, 0.2], [0.3, 0.4]]
        ),
        "^grid_values must be one-dimensional, got shape \\(2, 2\\)$",
    ),
}


@pytest.mark.parametrize("entry", sorted(BAD_ARGUMENTS))
def test_bad_argument_rejected_before_any_prediction(entry):
    data = simulate_cohort(30, 3, seed=2)
    model = CountingBatchModel()
    explainer = Explainer(model, data, default_time_grid(data))
    calls = model.calls
    call, message = BAD_ARGUMENTS[entry]
    with pytest.raises(InputError, match=message):
        call(explainer)
    assert model.calls == calls


# (call with the count, the count's name, its least value) for each count argument
COUNT_ARGUMENTS = {
    "predict_parts_survshap n_background": (
        lambda ex, n: predict_parts_survshap(ex, ex.background.features[0], n_background=n),
        "n_background", 1,
    ),
    "predict_parts_survshap n_permutations": (
        lambda ex, n: predict_parts_survshap(
            ex, ex.background.features[0], method="sampling", n_permutations=n
        ),
        "n_permutations", 1,
    ),
    "model_survshap n_background": (
        lambda ex, n: model_survshap(ex, ex.background.features[:2], n_background=n),
        "n_background", 1,
    ),
    "model_survshap n_permutations": (
        lambda ex, n: model_survshap(
            ex, ex.background.features[:2], method="sampling", n_permutations=n
        ),
        "n_permutations", 1,
    ),
    "model_parts n_permutations": (
        lambda ex, n: model_parts(ex, n_permutations=n), "n_permutations", 1,
    ),
    "model_profile pdp grid_size": (
        lambda ex, n: model_profile(ex, "x0", grid_size=n), "grid_size", 1,
    ),
    "model_profile ale grid_size": (
        lambda ex, n: model_profile(ex, "x0", method="ale", grid_size=n), "grid_size", 1,
    ),
    "model_profile n_background": (
        lambda ex, n: model_profile(ex, "x0", n_background=n), "n_background", 1,
    ),
    "model_profile_2d grid_size": (
        lambda ex, n: model_profile_2d(ex, ("x0", "x1"), grid_size=n), "grid_size", 1,
    ),
    "model_profile_2d n_background": (
        lambda ex, n: model_profile_2d(ex, ("x0", "x1"), n_background=n), "n_background", 1,
    ),
    "predict_profile grid_size": (
        lambda ex, n: predict_profile(ex, ex.background.features[0], "x0", grid_size=n),
        "grid_size", 1,
    ),
    "predict_parts_survlime n_neighbors": (
        lambda ex, n: predict_parts_survlime(ex, ex.background.features[0], n_neighbors=n),
        "n_neighbors", 2,
    ),
    "background_sample cap": (
        lambda ex, n: background_sample(ex.background.features, n), "n_background", 1,
    ),
}


@pytest.mark.parametrize("count", [2.0, 2.5, True, "3", 0], ids=["2.0", "2.5", "True", "'3'", "0"])
@pytest.mark.parametrize("entry", sorted(COUNT_ARGUMENTS))
def test_count_that_is_not_an_integer_at_least_its_minimum_is_refused(entry, count):
    data = simulate_cohort(30, 3, seed=2)
    model = CountingBatchModel()
    explainer = Explainer(model, data, default_time_grid(data))
    calls = model.calls
    call, name, minimum = COUNT_ARGUMENTS[entry]
    message = f"^{name} must be an integer of at least {minimum}, got {re.escape(repr(count))}$"
    with pytest.raises(InputError, match=message):
        call(explainer, count)
    assert model.calls == calls


@pytest.mark.parametrize("entry", sorted(COUNT_ARGUMENTS))
def test_numpy_integer_counts_accepted(entry):
    data = simulate_cohort(30, 3, seed=2)
    explainer = Explainer(CountingBatchModel(), data, default_time_grid(data))
    call, _, _ = COUNT_ARGUMENTS[entry]
    call(explainer, np.int64(3))


def test_model_survshap_refuses_exact_above_the_cap_before_any_prediction():
    data = simulate_cohort(40, EXACT_COALITION_MAX + 1, seed=8)
    model = CountingBatchModel()
    explainer = Explainer(model, data)
    calls = model.calls
    with pytest.raises(InputError, match="^exact SurvSHAP enumerates 2\\^17 coalitions"):
        model_survshap(explainer, data.features[:2], method="exact")
    assert model.calls == calls


@pytest.mark.parametrize("entry", sorted(SEEDED_ENTRIES))
def test_zero_and_numpy_integer_seeds_accepted(entry):
    data = simulate_cohort(30, 3, seed=2)
    explainer = Explainer(CountingBatchModel(), data, default_time_grid(data))
    SEEDED_ENTRIES[entry](explainer, 0)
    SEEDED_ENTRIES[entry](explainer, np.int64(3))


LOCAL_EXPLANATIONS = {
    "survshap": lambda explainer, x: predict_parts_survshap(explainer, x),
    "survlime": lambda explainer, x: predict_parts_survlime(explainer, x),
    "ice": lambda explainer, x: predict_profile(explainer, x, "x0", grid_values=[0.0, 1.0]),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("explanation", sorted(LOCAL_EXPLANATIONS))
def test_non_finite_instance_rejected(cox_data, cox_explainer, explanation, bad):
    x = cox_data.features[0].copy()
    x[0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="^instance contains non-finite values$"):
            LOCAL_EXPLANATIONS[explanation](cox_explainer, x)
