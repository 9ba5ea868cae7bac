"""Acceptance gate: one test per release criterion, one printed verdict line each.

Run with ``python3 -m pytest tests/test_acceptance.py -s`` to see the
[PASS]/[FAIL] lines as they happen. Every criterion is self-contained: the
oracles here are independent re-derivations (explicit loops, subset
enumeration, finite differences, grid search), not calls back into the code
under test.
"""

import itertools
import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from survival_explain import (
    TimeGrid,
    background_sample,
    brier_score,
    cd_auc,
    concordance_index,
    explain,
    fit_cox,
    kaplan_meier,
    model_diagnostics,
    model_parts,
    model_profile,
    nelson_aalen,
    predict_parts_survlime,
    predict_parts_survshap,
    predict_profile,
)
from survival_explain.cli import main as cli_main
from survival_explain.models import CoxModel, _cox_objective

from conftest import make_dataset, simulate_cox


@contextmanager
def criterion(number, label, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {number}: {label}")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget_seconds:
        print(f"[FAIL] criterion {number}: {label} ({elapsed:.2f}s over {budget_seconds:g}s budget)")
        pytest.fail(f"criterion {number} exceeded its {budget_seconds:g}s budget: {elapsed:.2f}s")
    print(f"[PASS] criterion {number}: {label} ({elapsed:.2f}s)")


def test_criterion_1_km_na_hand_fixtures():
    # product-limit and cumulative-sum values worked out by hand, n <= 6
    fixtures = [
        ([1, 2, 3], [1, 1, 1],
         [2 / 3, 1 / 3, 0.0],
         [1 / 3, 1 / 3 + 1 / 2, 1 / 3 + 1 / 2 + 1]),
        ([1, 2, 2, 3], [1, 0, 1, 1],
         [3 / 4, 1 / 2, 0.0],
         [1 / 4, 1 / 4 + 1 / 3, 1 / 4 + 1 / 3 + 1]),
        ([2, 2, 2, 5], [1, 1, 0, 1],
         [1 / 2, 0.0],
         [2 / 4, 2 / 4 + 1]),
        ([5.0], [1], [0.0], [1.0]),
        ([1, 2, 3, 4, 5, 6], [1, 1, 0, 1, 0, 1],
         [5 / 6, 5 / 6 * 4 / 5, 5 / 6 * 4 / 5 * 2 / 3, 0.0],
         [1 / 6, 1 / 6 + 1 / 5, 1 / 6 + 1 / 5 + 1 / 3, 1 / 6 + 1 / 5 + 1 / 3 + 1]),
    ]
    with criterion(1, "KM/Nelson-Aalen match hand fixtures at 1e-12", 1.0):
        for times, events, km_expected, na_expected in fixtures:
            data = make_dataset(times, events)
            km = kaplan_meier(data)
            na = nelson_aalen(data)
            assert np.max(np.abs(km.values - np.asarray(km_expected))) <= 1e-12
            assert np.max(np.abs(na.values - np.asarray(na_expected))) <= 1e-12
        # all-censored edge: flat survival one, flat hazard zero
        flat = make_dataset([3.0, 7.0], [0, 0])
        assert kaplan_meier(flat).values[-1] == 1.0
        assert nelson_aalen(flat).values[-1] == 0.0


def fd_gradient(fn, theta, h):
    grad = np.zeros_like(theta)
    for i in range(len(theta)):
        bump = np.zeros_like(theta)
        bump[i] = h
        grad[i] = (fn(theta + bump) - fn(theta - bump)) / (2 * h)
    return grad


def fd_hessian(fn, theta, h):
    p = len(theta)
    hess = np.zeros((p, p))
    for i in range(p):
        for j in range(p):
            ei = np.zeros(p)
            ej = np.zeros(p)
            ei[i] = h
            ej[j] = h
            hess[i, j] = (
                fn(theta + ei + ej) - fn(theta + ei - ej)
                - fn(theta - ei + ej) + fn(theta - ei - ej)
            ) / (4 * h * h)
    return hess


def test_criterion_2_cox_derivatives_and_grid_search():
    with criterion(2, "Cox derivatives match finite differences; beta matches grid search", 5.0):
        data = simulate_cox(n=60, beta=[0.8, -0.5], seed=11)
        # the objective a fit prepares once, evaluated at every point as the fit does
        evaluate = _cox_objective(data.times, data.events, data.features)[0]
        fn = lambda b: evaluate(b, derivatives=False)
        rng = np.random.default_rng(0)
        for _ in range(5):
            beta = rng.uniform(-1.0, 1.0, size=2)
            _, grad, hess = evaluate(beta)
            grad_fd = fd_gradient(fn, beta, h=1e-5)
            hess_fd = fd_hessian(fn, beta, h=1e-4)
            assert np.all(np.abs(grad - grad_fd) <= 1e-5 * np.maximum(1.0, np.abs(grad_fd)))
            assert np.all(np.abs(hess - hess_fd) <= 1e-5 * np.maximum(1.0, np.abs(hess_fd)))

        single = simulate_cox(n=40, beta=[0.7], seed=5)
        evaluate_single = _cox_objective(single.times, single.events, single.features)[0]
        score = lambda b: evaluate_single(np.array([b]), derivatives=False)
        lo, hi = -3.0, 3.0
        best = 0.0
        for _ in range(4):
            grid = np.linspace(lo, hi, 601)
            best = grid[int(np.argmax([score(b) for b in grid]))]
            span = (hi - lo) / 600
            lo, hi = best - 2 * span, best + 2 * span
        fitted = fit_cox(single)
        assert fitted.converged
        assert abs(fitted.beta[0] - best) < 1e-6


def level_model(x, grid):
    return np.full(len(grid), float(x[0]))


def step_model(x, grid):
    return np.where(grid.points < x[0], 1.0, 0.0)


def censor_surv_left(times, events, at):
    value = 1.0
    for c in sorted(set(times[events == 0])):
        if c >= at:
            break
        d = int(np.sum((times == c) & (events == 0)))
        r = int(np.sum(times >= c))
        value *= 1.0 - d / r
    return value


def test_criterion_3_metric_oracles():
    with criterion(3, "Brier/AUC/C-index match brute-force oracles at 1e-12", 1.0):
        # five-row censored Brier fixture with hand-written IPCW terms
        data = make_dataset(
            [1.0, 2.0, 3.0, 4.0, 5.0], [1, 0, 1, 1, 0],
            [[0.9], [0.8], [0.6], [0.4], [0.2]], ["s"],
        )
        grid = TimeGrid(np.array([1.5, 2.5, 3.5, 4.5]))
        curve = brier_score(explain(level_model, data, grid=grid), data)
        expected = np.array([
            (0.9**2 + (1 - 0.8)**2 + (1 - 0.6)**2 + (1 - 0.4)**2 + (1 - 0.2)**2) / 5,
            (0.9**2 + ((1 - 0.6)**2 + (1 - 0.4)**2 + (1 - 0.2)**2) / 0.75) / 5,
            (0.9**2 + (0.6**2 + (1 - 0.4)**2 + (1 - 0.2)**2) / 0.75) / 5,
            (0.9**2 + (0.6**2 + 0.4**2 + (1 - 0.2)**2) / 0.75) / 5,
        ])
        assert np.max(np.abs(curve.values - expected)) <= 1e-12

        # no censoring: Brier must equal the plain survival-indicator MSE
        rng = np.random.default_rng(3)
        levels = rng.uniform(0.05, 0.95, size=8)
        full = make_dataset(np.arange(1.0, 9.0), np.ones(8, dtype=int), levels[:, None], ["s"])
        full_explainer = explain(level_model, full)
        bs = brier_score(full_explainer, full)
        S = full_explainer.predict(full.features, "survival")
        indicator = (full.times[:, None] > full_explainer.grid.points[None, :]).astype(float)
        assert np.array_equal(bs.values, ((indicator - S) ** 2).mean(axis=0))

        # eight-row censored fixture against pairwise loops
        eight = make_dataset(
            [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
            [1, 1, 0, 1, 0, 1, 1, 0],
            [[0.3], [0.9], [0.5], [0.2], [0.8], [0.2], [0.6], [0.4]], ["s"],
        )
        ex = explain(level_model, eight)
        risk = ex.predict(eight.features, "risk")
        auc = cd_auc(ex, eight)
        for k, t in enumerate(ex.grid.points):
            cases = [i for i in range(8) if eight.times[i] <= t and eight.events[i] == 1]
            controls = [j for j in range(8) if eight.times[j] > t]
            if not cases or not controls:
                assert not auc.defined[k]
                continue
            numerator = 0.0
            weight_sum = 0.0
            for i in cases:
                w = 1.0 / censor_surv_left(eight.times, eight.events, eight.times[i]) ** 2
                weight_sum += w
                for j in controls:
                    if risk[i] > risk[j]:
                        numerator += w
                    elif risk[i] == risk[j]:
                        numerator += 0.5 * w
            assert abs(auc.values[k] - numerator / (weight_sum * len(controls))) <= 1e-12

        concordant = 0.0
        comparable = 0
        for i in range(8):
            for j in range(8):
                if eight.events[i] != 1 or eight.times[i] >= eight.times[j]:
                    continue
                comparable += 1
                if risk[i] > risk[j]:
                    concordant += 1.0
                elif risk[i] == risk[j]:
                    concordant += 0.5
        assert abs(concordance_index(ex, eight) - concordant / comparable) <= 1e-12

        # perfect model: zero Brier, unit AUC and C-index, exactly
        perfect = make_dataset([1.0, 2.0, 3.0], [1, 1, 1], [[1.0], [2.0], [3.0]], ["t"])
        pex = explain(step_model, perfect)
        assert np.array_equal(brier_score(pex, perfect).values, np.zeros(len(pex.grid)))
        ordered = make_dataset(
            [1.0, 2.0, 3.0, 4.0], [1, 1, 1, 1], [[0.1], [0.2], [0.3], [0.4]], ["s"]
        )
        oex = explain(level_model, ordered)
        oauc = cd_auc(oex, ordered)
        assert np.array_equal(oauc.values[oauc.defined], np.ones(oauc.defined.sum()))
        assert concordance_index(oex, ordered) == 1.0

        # all tied risks: both discrimination measures sit at one half
        tied = make_dataset(
            [1.0, 2.0, 3.0, 4.0], [1, 1, 1, 1], [[0.5], [0.5], [0.5], [0.5]], ["s"]
        )
        tex = explain(level_model, tied)
        tauc = cd_auc(tex, tied)
        assert np.array_equal(tauc.values[tauc.defined], np.full(tauc.defined.sum(), 0.5))
        assert concordance_index(tex, tied) == 0.5


def brute_force_shapley(explainer, x, background):
    p = len(x)

    def value(subset):
        batch = background.copy()
        for j in subset:
            batch[:, j] = x[j]
        return explainer.predict(batch, "survival").mean(axis=0)

    phi = np.zeros((p, len(explainer.grid)))
    for j in range(p):
        others = [k for k in range(p) if k != j]
        for size in range(p):
            weight = math.factorial(size) * math.factorial(p - size - 1) / math.factorial(p)
            for subset in itertools.combinations(others, size):
                phi[j] += weight * (value(subset + (j,)) - value(subset))
    return phi


def ignores_tail_model(x, grid):
    return np.exp(-np.exp(x[0]) * grid.points / 10.0)


def symmetric_model(x, grid):
    return np.exp(-np.exp(x[0] + x[1]) * grid.points / 20.0)


def test_criterion_4_shapley_axioms():
    with criterion(4, "SurvSHAP matches brute force; axioms hold; sampling within 3 SE", 30.0):
        data = simulate_cox(n=40, beta=[1.0, -0.8, 0.5], seed=17)
        explainer = explain(fit_cox(data), data)
        x = data.features[0]
        result = predict_parts_survshap(explainer, x, method="exact")
        oracle = brute_force_shapley(explainer, x, background_sample(data.features, 100))
        assert np.max(np.abs(result.phi - oracle)) <= 1e-12

        # efficiency at every grid point
        reconstruction = result.baseline + result.phi.sum(axis=0)
        assert np.max(np.abs(reconstruction - explainer.predict(x, "survival"))) <= 1e-10

        # null player: variables the model never reads get exactly zero
        null_data = simulate_cox(n=30, beta=[1.0, 0.0, 0.0], seed=9)
        null_explainer = explain(ignores_tail_model, null_data)
        null_phi = predict_parts_survshap(null_explainer, null_data.features[0]).phi
        assert np.array_equal(null_phi[1], np.zeros(len(null_explainer.grid)))
        assert np.array_equal(null_phi[2], np.zeros(len(null_explainer.grid)))

        # symmetry: exchangeable variables get identical attributions
        column = np.array([0.4, -0.2, 0.9, 0.1, -0.5])
        sym_data = make_dataset(
            [2.0, 4.0, 1.0, 6.0, 3.0], [1, 1, 0, 1, 1], np.column_stack([column, column])
        )
        sym_phi = predict_parts_survshap(
            explain(symmetric_model, sym_data), np.array([0.3, 0.3])
        ).phi
        assert np.array_equal(sym_phi[0], sym_phi[1])

        # sampling estimator centered on the exact values
        wide = simulate_cox(n=30, beta=[1.0, -0.6, 0.4, -0.3, 0.2], seed=29)
        wide_explainer = explain(fit_cox(wide), wide)
        xw = wide.features[0]
        exact = predict_parts_survshap(wide_explainer, xw, method="exact").phi
        draws = np.stack([
            predict_parts_survshap(
                wide_explainer, xw, method="sampling", n_permutations=30, seed=s
            ).phi
            for s in range(20)
        ])
        gap = np.abs(draws.mean(axis=0) - exact)
        se = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
        assert np.all(gap <= 3.0 * se + 1e-12)


def test_criterion_5_survlime_recovery():
    with criterion(5, "SurvLIME recovers known Cox coefficients within 0.1", 10.0):
        beta = np.array([1.0, -0.8, 0.0])
        data = simulate_cox(n=150, beta=list(beta), seed=19)
        black_box = CoxModel(
            beta=beta,
            baseline_chf=nelson_aalen(data),
            feature_means=data.features.mean(axis=0),
        )
        explainer = explain(black_box, data)
        result = predict_parts_survlime(explainer, data.features[0], n_neighbors=500, seed=5)
        assert np.max(np.abs(result.surrogate_beta - beta)) < 0.1
        assert abs(result.surrogate_beta[2]) < 0.05
        assert not result.degenerate


def test_criterion_6_ice_pdp_identity_and_null_importance():
    with criterion(6, "mean ICE equals PDP under 1e-12; ignored variable importance is 0", 10.0):
        data = simulate_cox(n=40, beta=[0.8, -0.5], seed=11)
        explainer = explain(fit_cox(data), data)
        pdp = model_profile(explainer, "x0", grid_size=7)
        rows = background_sample(data.features, 100)
        stacked = np.stack([
            predict_profile(explainer, row, "x0", grid_values=pdp.grid_values[0]).curves
            for row in rows
        ])
        assert np.max(np.abs(stacked.mean(axis=0) - pdp.values)) < 1e-12

        ignored = simulate_cox(n=40, beta=[1.0, 0.0], seed=7)
        ignored_explainer = explain(ignores_tail_model, ignored)
        for seed in (0, 42, 123):
            item = model_parts(
                ignored_explainer, n_permutations=5, seed=seed, variables=["x1"]
            )[0]
            assert item.importance == 0.0


def test_criterion_7_residual_identities():
    with criterion(7, "residual identities and Cox-Snell calibration hold", 10.0):
        # every distinct event time must sit on the grid for the sum identity
        data = simulate_cox(n=80, beta=[0.8, -0.5], seed=11)
        explainer = explain(fit_cox(data), data)
        res = model_diagnostics(explainer)
        assert np.array_equal(res.martingale, data.events - res.cox_snell)
        assert abs(res.martingale.sum()) < 1e-6

        big = simulate_cox(n=500, beta=[1.0, -1.0], seed=21)
        big_res = model_diagnostics(explain(fit_cox(big), big))
        residual_data = make_dataset(big_res.cox_snell, big.events)
        km = kaplan_meier(residual_data)
        assert np.max(np.abs(km.values - np.exp(-km.times))) < 0.1


CLI_CORPUS = [
    ("fit", ()),
    ("predict", ("--row", "0")),
    ("performance", ("--at-time", "4.0")),
    ("parts", ("--n-permutations", "3")),
    ("profile", ("--variable", "x0", "--grid-size", "8", "--svg")),
    ("profile2d", ("--variables", "x0", "x1", "--grid-size", "4")),
    ("diagnostics", ()),
    ("shap", ("--row", "0")),
    ("lime", ("--row", "0", "--n-neighbors", "50")),
    ("ice", ("--row", "0", "--variable", "x0", "--grid-size", "5")),
    ("survshap-global", ("--max-rows", "2", "--n-background", "20")),
]


def test_criterion_8_cli_determinism(tmp_path):
    with criterion(8, "CLI corpus is byte-deterministic and round-trips bit-exactly", 120.0):
        data = simulate_cox(n=30, beta=[0.8, -0.5], seed=11)
        csv_path = tmp_path / "corpus.csv"
        lines = ["time,event,x0,x1"] + [
            ",".join([repr(float(t)), str(int(e)), repr(float(a)), repr(float(b))])
            for t, e, (a, b) in zip(data.times, data.events, data.features)
        ]
        csv_path.write_text("\n".join(lines) + "\n")

        out_dir = tmp_path / "artifacts"
        base = [
            "--data", str(csv_path),
            "--time-col", "time", "--event-col", "event",
            "--out", str(out_dir),
        ]

        def run_corpus():
            for command, extra in CLI_CORPUS:
                assert cli_main([command, *base, *extra]) == 0
            assert cli_main([
                "plot", "--artifact", str(out_dir / "performance.json"),
                "--out", str(out_dir),
            ]) == 0

        run_corpus()
        snapshot = {
            path.name: path.read_bytes() for path in sorted(out_dir.iterdir())
        }
        run_corpus()
        for path in sorted(out_dir.iterdir()):
            assert path.read_bytes() == snapshot[path.name], path.name

        # parse -> re-serialize reproduces every artifact byte for byte
        for name, blob in snapshot.items():
            if not name.endswith(".json"):
                continue
            reparsed = json.loads(blob.decode("utf-8"))
            redumped = json.dumps(reparsed, indent=2, sort_keys=True, allow_nan=False) + "\n"
            assert redumped.encode("utf-8") == blob, name

        # reloaded grids and curves equal a fresh in-process computation bitwise
        ingested = make_dataset(data.times, data.events, data.features, ["x0", "x1"])
        explainer = explain(fit_cox(ingested), ingested)
        envelope = json.loads(snapshot["performance.json"].decode("utf-8"))
        assert np.array_equal(
            np.asarray(envelope["grid"], dtype=float), explainer.grid.points
        )
        by_label = {curve["label"]: curve for curve in envelope["curves"]}
        assert np.array_equal(
            np.asarray(by_label["Brier score"]["y"], dtype=float),
            brier_score(explainer, ingested).values,
        )
