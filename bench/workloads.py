"""The benchmark's workloads: inputs, the job list of one pass, and checks.

A job is one user request: a CLI command run in-process through
``survival_explain.cli.main``, or one library explanation or metric call.
Library functions are looked up on the package at call time, so the traced
pass sees the wrappers :mod:`layer_trace` installs.
"""

from __future__ import annotations

import json
import math
import pickle
import shutil
from pathlib import Path

import numpy as np

import survival_explain as se
from survival_explain import cli

import checks
import inputs
import oracles

PROFILE_BACKGROUND = 100


class JobFailed(RuntimeError):
    pass


class Workload:
    """``setup`` makes the inputs from the seed; ``jobs`` lists the pass as
    (label, CLI command or None, call); ``snapshot`` turns a pass's outputs
    into bytes per job for the determinism comparison; ``check`` returns
    one message per failed check of the warm-up pass's outputs."""

    name = ""

    def setup(self, seed: int, workdir: Path) -> None:
        raise NotImplementedError

    def jobs(self):
        raise NotImplementedError

    def snapshot(self, outputs) -> dict:
        return {label: pickle.dumps(value) for label, value in outputs.items()}

    def set_tracer(self, tracer) -> None:
        """Hook for workloads that count calls into their own code."""

    def clear(self) -> None:
        """Remove what the previous pass wrote, before the next pass."""

    def output_checks(self, outputs):
        """(job label, check) pairs for the outputs of one pass."""
        raise NotImplementedError

    def check(self, outputs) -> list[str]:
        problems = []
        for label, run in self.output_checks(outputs):
            if label not in outputs:
                continue  # the job failed and is counted in ``failed``
            try:
                run()
            except checks.CheckFailure as failure:
                problems.append(f"{label}: {failure}")
            except Exception as error:  # an output the check could not read
                problems.append(f"{label}: {type(error).__name__}: {error}")
        return problems


# ---------------------------------------------------------------------------
# cli-cohort
# ---------------------------------------------------------------------------

class CliCohort(Workload):
    """Every CLI command on one generated clinical-style cohort CSV."""

    name = "cli-cohort"
    N_ROWS = 3000
    ROW = 7
    PDP_VARIABLE, ALE_VARIABLE, ICE_VARIABLE = "age", "bmi", "karnofsky"
    PAIR = ("age", "albumin")

    def setup(self, seed, workdir):
        self.times, self.events, self.X, self.names = inputs.cohort(seed, self.N_ROWS)
        workdir.mkdir(parents=True, exist_ok=True)
        self.csv = workdir / "cohort.csv"
        inputs.write_csv(self.csv, self.times, self.events, self.X, self.names)
        self.out = workdir / "artifacts"
        self.at_time = float(np.median(self.times[self.events == 1]))

    def _job(self, label, command, *options, svg=False):
        argv = [command, "--data", str(self.csv), "--time-col", "time", "--event-col", "status",
                *options, "--out", str(self.out / label)]
        if svg:
            argv.append("--svg")
        return label, command, lambda: self._run(argv)

    @staticmethod
    def _run(argv):
        code = cli.main(argv)
        if code != 0:
            raise JobFailed(f"exit code {code}: survival-explain {' '.join(argv)}")
        return code

    def jobs(self):
        row = str(self.ROW)
        return [
            self._job("fit", "fit", svg=True),
            self._job("predict", "predict", "--row", row, svg=True),
            self._job("performance", "performance", "--at-time", repr(self.at_time), svg=True),
            self._job("performance-km", "performance", "--model", "km"),
            self._job("parts-cindex", "parts", "--loss", "one_minus_cindex", "--n-permutations", "1"),
            self._job("parts-brier", "parts", "--loss", "brier_curve", "--n-permutations", "2",
                      svg=True),
            self._job("profile-pdp", "profile", "--variable", self.PDP_VARIABLE, svg=True),
            self._job("profile-ale", "profile", "--variable", self.ALE_VARIABLE, "--method", "ale"),
            self._job("profile2d", "profile2d", "--variables", *self.PAIR),
            self._job("diagnostics", "diagnostics"),
            self._job("shap", "shap", "--row", row),
            self._job("lime", "lime", "--row", row),
            self._job("ice", "ice", "--row", row, "--variable", self.ICE_VARIABLE, svg=True),
            self._job("survshap-global", "survshap-global", "--max-rows", "2"),
            ("plot", "plot", lambda: self._run(
                ["plot", "--artifact", str(self.out / "performance" / "performance.json"),
                 "--out", str(self.out / "plot")])),
        ]

    def clear(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def snapshot(self, outputs):
        return {str(path.relative_to(self.out)): path.read_bytes()
                for path in sorted(self.out.rglob("*")) if path.is_file()}

    def _artifact(self, label, command):
        return json.loads((self.out / label / f"{command}.json").read_text(encoding="utf-8"))

    def _svg(self, label, stem):
        return (self.out / label / f"{stem}.svg").read_text(encoding="utf-8")

    def output_checks(self, outputs):
        t, e, X, names = self.times, self.events, self.X, self.names
        fit = self._artifact("fit", "fit")
        params = fit["result"]["parameters"]
        beta = np.asarray(params["beta"])
        means = X.mean(axis=0)
        h0_times = np.asarray(params["baseline_chf_times"])
        h0_values = np.asarray(params["baseline_chf"])
        grid = oracles.default_grid(t, e)

        def predict(Z):
            return oracles.cox_survival(Z, beta, means, h0_times, h0_values, grid)

        sample = X[oracles.background_rows(len(X), PROFILE_BACKGROUND)]
        x = X[self.ROW]

        def survival_and_risk(Z):
            S = predict(Z)
            return S, oracles.risk_from_survival(S)

        def check_fit():
            checks.cox_fit(params, fit["result"]["converged"], t, e, X)
            checks.svg(self._svg("fit", "fit"), fit["curves"])

        def check_predict():
            artifact = self._artifact("predict", "predict")
            checks.close("evaluation grid", artifact["grid"], grid, rtol=0, atol=0)
            checks.close("prediction", artifact["result"]["values"], predict(x[None, :])[0])
            checks.finite_survival("prediction", artifact["result"]["values"])
            checks.svg(self._svg("predict", "predict"), artifact["curves"])

        def check_performance():
            artifact = self._artifact("performance", "performance")
            result = artifact["result"]
            S, risk = survival_and_risk(X)
            checks.brier(result["brier"]["values"], result["brier"]["integrated"], t, e, S, grid)
            checks.cd_auc(result["cd_auc"]["values"], result["cd_auc"]["integrated"], t, e, risk, grid)
            checks.concordance(result["concordance_index"], t, e, risk)
            k = np.searchsorted(grid, self.at_time, side="right") - 1
            checks.roc(result["roc"], t, e, 1.0 - (S[:, k] if k >= 0 else np.ones(len(t))))
            checks.svg(self._svg("performance", "performance"), artifact["curves"])

        def check_plot():
            checks.equal("plot of performance.json equals performance --svg",
                          self._svg("plot", "performance"), self._svg("performance", "performance"))

        def check_parts_cindex():
            result = self._artifact("parts-cindex", "parts")["result"]
            checks.parts(result, lambda Z: 1.0 - oracles.harrell_c(t, e, survival_and_risk(Z)[1]),
                         X, names, result["seed"])

        def check_parts_brier():
            artifact = self._artifact("parts-brier", "parts")
            result = artifact["result"]
            checks.parts(result, lambda Z: oracles.brier(t, e, predict(Z), grid)[0],
                         X, names, result["seed"])
            checks.svg(self._svg("parts-brier", "parts"), artifact["curves"])

        def check_pdp():
            artifact = self._artifact("profile-pdp", "profile")
            result = artifact["result"]
            j = names.index(self.PDP_VARIABLE)
            checks.close("PDP grid", result["grid_values"], oracles.quantile_grid(X[:, j], 25),
                         rtol=0, atol=0)
            checks.pdp(result["values"], result["grid_values"], predict, sample, j)
            checks.svg(self._svg("profile-pdp", "profile"), artifact["curves"])

        def check_ale():
            result = self._artifact("profile-ale", "profile")["result"]
            j = names.index(self.ALE_VARIABLE)
            edges = oracles.quantile_grid(X[:, j], 11)
            checks.close("ALE bin edges", result["grid_values"], edges, rtol=0, atol=0)
            checks.ale(result["values"], edges, predict, sample, j)

        def check_profile2d():
            result = self._artifact("profile2d", "profile2d")["result"]
            j1, j2 = (names.index(v) for v in self.PAIR)
            g1, g2 = result["grid_values"]
            checks.close("2-D PDP grid", g1, oracles.quantile_grid(X[:, j1], 10), rtol=0, atol=0)
            checks.close("2-D PDP grid", g2, oracles.quantile_grid(X[:, j2], 10), rtol=0, atol=0)
            checks.pdp_2d(result["values"], g1, g2, predict, sample, j1, j2)

        def check_diagnostics():
            S = predict(X)
            chf = -np.log(np.clip(S, oracles.SURVIVAL_FLOOR, 1.0))
            checks.diagnostics(self._artifact("diagnostics", "diagnostics")["result"], t, e, chf, grid)

        def check_shap():
            result = self._artifact("shap", "shap")["result"]
            checks.equal("SurvSHAP method", result["method"], "exact")
            v = oracles.coalition_values(predict, x, sample)
            checks.shap_exact(result["phi"], result["baseline"], v, predict(x[None, :])[0])

        def check_lime():
            result = self._artifact("lime", "lime")["result"]
            h0 = oracles.step_right(h0_times, h0_values, grid, 0.0)
            chf = lambda Z: np.exp((Z - means) @ beta)[:, None] * h0[None, :]  # noqa: E731
            want, sigma, clipped = oracles.survlime(chf, x, X, t, e, grid, 100, 42)
            checks.survlime(result["surrogate_beta"], result["kernel_width"], want, sigma, clipped, beta)

        def check_ice():
            artifact = self._artifact("ice", "ice")
            result = artifact["result"]
            j = names.index(self.ICE_VARIABLE)
            own = self._artifact("predict", "predict")["result"]["values"]
            checks.ice(result["curves"], np.asarray(result["grid_values"]), x, j, predict, own)
            checks.svg(self._svg("ice", "ice"), artifact["curves"])

        def check_survshap_global():
            result = self._artifact("survshap-global", "survshap-global")["result"]
            phis = np.stack([
                oracles.shapley_exact(oracles.coalition_values(predict, X[i], sample))
                for i in range(2)
            ])
            checks.survshap_global(result, X[:2], phis, grid)

        return [
            ("fit", check_fit),
            ("predict", check_predict),
            ("performance", check_performance),
            ("performance-km", lambda: checks.km_performance(
                self._artifact("performance-km", "performance")["result"])),
            ("parts-cindex", check_parts_cindex),
            ("parts-brier", check_parts_brier),
            ("profile-pdp", check_pdp),
            ("profile-ale", check_ale),
            ("profile2d", check_profile2d),
            ("diagnostics", check_diagnostics),
            ("shap", check_shap),
            ("lime", check_lime),
            ("ice", check_ice),
            ("survshap-global", check_survshap_global),
            ("plot", check_plot),
        ]

    def check(self, outputs):
        if "fit" not in outputs:
            # every oracle prediction starts from the fitted Cox parameters
            return []
        return super().check(outputs)


# ---------------------------------------------------------------------------
# library workloads
# ---------------------------------------------------------------------------

class _LibraryWorkload(Workload):
    """Explanation drivers on one explainer, called through the library API."""

    N_ROWS = 0
    P = 0
    ROW = 11
    SAMPLING_SEED = 7
    N_SAMPLED_PERMUTATIONS = 0
    N_GLOBAL_ROWS = 0
    PDP_VARIABLE, ALE_VARIABLE, ICE_VARIABLE = "age", "bmi", "albumin"
    PAIR = ("age", "albumin")
    PAIR_GRID = 10

    def setup(self, seed, workdir):
        self.times, self.events, self.X, self.names = inputs.cohort(seed, self.N_ROWS, self.P)
        self.data = se.SurvivalDataset(self.times, self.events, self.X, self.names)
        self.explainer = self.make_explainer()
        self.x = self.X[self.ROW]

    def make_explainer(self):
        raise NotImplementedError

    def oracle_predict(self, Z):
        """Independent closed-form survival of the explained model on the grid."""
        raise NotImplementedError

    def true_log_hazard_coefficients(self):
        raise NotImplementedError

    def driver_jobs(self):
        ex, x = self.explainer, self.x
        return [
            ("survshap-exact", None, lambda: se.predict_parts_survshap(ex, x, method="exact")),
            ("survshap-sampling", None, lambda: se.predict_parts_survshap(
                ex, x, method="sampling", n_permutations=self.N_SAMPLED_PERMUTATIONS,
                seed=self.SAMPLING_SEED)),
            ("model-survshap", None, lambda: se.model_survshap(
                ex, self.X[: self.N_GLOBAL_ROWS], method="exact")),
            ("pdp", None, lambda: se.model_profile(ex, self.PDP_VARIABLE)),
            ("ale", None, lambda: se.model_profile(ex, self.ALE_VARIABLE, method="ale")),
            ("pdp-2d", None, lambda: se.model_profile_2d(ex, self.PAIR, grid_size=self.PAIR_GRID)),
            ("ice", None, lambda: se.predict_profile(ex, x, self.ICE_VARIABLE)),
            ("survlime", None, lambda: se.predict_parts_survlime(ex, x)),
        ]

    def jobs(self):
        return self.driver_jobs()

    def output_checks(self, outputs):
        ex, x, X, names = self.explainer, self.x, self.X, self.names
        grid = ex.grid.points
        predict = self.oracle_predict
        sample = X[oracles.background_rows(len(X), PROFILE_BACKGROUND)]
        v = oracles.coalition_values(predict, x, sample)
        fx = predict(x[None, :])[0]

        def check_exact():
            result = outputs["survshap-exact"]
            checks.shap_exact(result.phi, result.baseline, v, fx)

        def check_sampling():
            result = outputs["survshap-sampling"]
            orders = oracles.permutation_orders(np.random.SeedSequence(entropy=self.SAMPLING_SEED),
                                                len(x), self.N_SAMPLED_PERMUTATIONS)
            checks.shap_sampled(result.phi, result.baseline, v, fx, orders)

        def check_global():
            result = outputs["model-survshap"]
            phis = []
            for i, row in enumerate(X[: self.N_GLOBAL_ROWS]):
                v_row = oracles.coalition_values(predict, row, sample)
                checks.shap_exact(result.per_instance[i].phi, result.per_instance[i].baseline,
                                  v_row, predict(row[None, :])[0])
                phis.append(result.per_instance[i].phi)
            checks.close("mean |phi|", result.mean_abs_phi, np.abs(np.stack(phis)).mean(axis=0))

        def check_pdp():
            result = outputs["pdp"]
            j = names.index(self.PDP_VARIABLE)
            grid_values = result.grid_values[0]
            checks.pdp(result.values, grid_values, predict, sample, j)
            ice = [se.predict_profile(ex, row, self.PDP_VARIABLE, grid_values=grid_values).curves
                   for row in sample]
            checks.pdp_is_mean_ice(result.values, np.stack(ice))

        def check_ale():
            result = outputs["ale"]
            j = names.index(self.ALE_VARIABLE)
            checks.ale(result.values, result.grid_values[0], predict, sample, j)

        def check_pdp_2d():
            result = outputs["pdp-2d"]
            j1, j2 = (names.index(name) for name in self.PAIR)
            checks.pdp_2d(result.values, *result.grid_values, predict, sample, j1, j2)

        def check_ice():
            result = outputs["ice"]
            j = names.index(self.ICE_VARIABLE)
            checks.ice(result.curves, result.grid_values, x, j, predict, ex.predict(x))

        def check_lime():
            result = outputs["survlime"]
            def chf(Z):
                with np.errstate(divide="ignore"):  # survival that underflows to 0
                    return -np.log(self.oracle_predict(Z))

            want, sigma, clipped = oracles.survlime(chf, x, X, self.times, self.events, grid, 100, 42)
            checks.survlime(result.surrogate_beta, result.kernel_width, want, sigma, clipped,
                            self.true_log_hazard_coefficients())

        return [
            ("survshap-exact", check_exact),
            ("survshap-sampling", check_sampling),
            ("model-survshap", check_global),
            ("pdp", check_pdp),
            ("ale", check_ale),
            ("pdp-2d", check_pdp_2d),
            ("ice", check_ice),
            ("survlime", check_lime),
        ]


class ExplainWide(_LibraryWorkload):
    """Built-in Cox model, p = 10: the batched prediction path."""

    name = "cox-batched"
    N_ROWS = 400
    P = 10
    N_SAMPLED_PERMUTATIONS = 64
    N_GLOBAL_ROWS = 3

    def make_explainer(self):
        self.model = se.fit_cox(self.data)
        return se.explain(self.model, self.data)

    def oracle_predict(self, Z):
        curve = self.model.baseline_chf
        return oracles.cox_survival(Z, self.model.beta, self.model.feature_means,
                                    curve.times, curve.values, self.explainer.grid.points)

    def true_log_hazard_coefficients(self):
        return self.model.beta


class WeibullRowModel:
    """A user model: closed-form Weibull survival for one feature vector.

    S(t | x) = exp(-(t / exp(intercept + coefficients @ x))^shape), which is
    also proportional hazards with log-hazard coefficients -shape * coefficients.
    """

    SHAPE = 1.2
    # per-covariate effects on log time, for age, sex, bmi, smoker, albumin, diabetic
    COEFFICIENTS = np.array([-0.02, 0.3, -0.03, -0.4, 0.5, -0.25])
    CENTRES = np.array([62.0, 0.35, 27.0, 0.45, 3.9, 0.55])
    SCALE = 60.0

    def __init__(self):
        self.intercept = math.log(self.SCALE) - float(self.COEFFICIENTS @ self.CENTRES)

    def __call__(self, x, grid):
        lam = math.exp(self.intercept + float(x @ self.COEFFICIENTS))
        return np.exp(-((grid.points / lam) ** self.SHAPE))


class UserCallable(_LibraryWorkload):
    """A per-row numpy callable the library must dispatch row by row."""

    name = "callable-per-row"
    N_ROWS = 300
    P = 6
    N_SAMPLED_PERMUTATIONS = 32
    N_GLOBAL_ROWS = 3
    PAIR_GRID = 6
    PARTS_PERMUTATIONS = 2
    PARTS_SEED = 42

    def make_explainer(self):
        self.model = WeibullRowModel()
        return se.explain(self.model, self.data)

    def set_tracer(self, tracer):
        self.explainer.predict_fn = (
            self.model if tracer is None else tracer.count_calls(self.model, "explainer.user_fn_calls")
        )

    def oracle_predict(self, Z):
        return oracles.weibull_survival(Z, self.model.SHAPE, self.model.intercept,
                                        self.model.COEFFICIENTS, self.explainer.grid.points)

    def true_log_hazard_coefficients(self):
        return -self.model.SHAPE * self.model.COEFFICIENTS

    def jobs(self):
        ex, data = self.explainer, self.data
        return [
            ("brier", None, lambda: se.brier_score(ex, data)),
            ("model-parts", None, lambda: se.model_parts(
                ex, n_permutations=self.PARTS_PERMUTATIONS, seed=self.PARTS_SEED)),
            *self.driver_jobs(),
        ]

    def output_checks(self, outputs):
        t, e, X, names = self.times, self.events, self.X, self.names
        grid = self.explainer.grid.points

        def check_brier():
            result = outputs["brier"]
            checks.brier(result.values, result.integrated, t, e, self.oracle_predict(X), grid)

        def check_parts():
            items = outputs["model-parts"]
            result = {
                "baseline_loss": items[0].baseline_loss,
                "n_permutations": self.PARTS_PERMUTATIONS,
                "variables": [{"variable": item.variable, "importance": item.importance,
                               "permuted_loss": item.permuted_loss} for item in items],
            }
            checks.parts(result, lambda Z: oracles.brier(t, e, self.oracle_predict(Z), grid)[2],
                         X, names, self.PARTS_SEED)

        return [("brier", check_brier), ("model-parts", check_parts), *super().output_checks(outputs)]


class Explain(Workload):
    """Both prediction paths in one pass: the built-in Cox model's batched
    path, then the per-row callable. Each part keeps its own inputs, jobs and
    checks; labels carry the part's name."""

    name = "explain"
    PARTS = (ExplainWide, UserCallable)

    def __init__(self):
        self.parts = [part() for part in self.PARTS]

    def setup(self, seed, workdir):
        for part in self.parts:
            part.setup(seed, workdir)

    def jobs(self):
        return [(f"{part.name}/{label}", command, call)
                for part in self.parts for label, command, call in part.jobs()]

    def _outputs_of(self, part, outputs):
        prefix = f"{part.name}/"
        return {label[len(prefix):]: value for label, value in outputs.items()
                if label.startswith(prefix)}

    def snapshot(self, outputs):
        return {f"{part.name}/{label}": data for part in self.parts
                for label, data in part.snapshot(self._outputs_of(part, outputs)).items()}

    def set_tracer(self, tracer):
        for part in self.parts:
            part.set_tracer(tracer)

    def clear(self):
        for part in self.parts:
            part.clear()

    def check(self, outputs):
        return [f"{part.name}/{problem}" for part in self.parts
                for problem in part.check(self._outputs_of(part, outputs))]


WORKLOADS = {w.name: w for w in (CliCohort, Explain)}
