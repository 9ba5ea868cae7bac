"""Every check passes on real program output and fails on a perturbed copy.

The workloads run here at reduced size; each perturbation changes one
output value by far less than a visible amount and must be caught by the
check of the job that wrote it.
"""

import copy
import json

import numpy as np
import pytest

import checks
import oracles
import workloads


class SmallCli(workloads.CliCohort):
    N_ROWS = 300


class SmallWide(workloads.ExplainWide):
    N_ROWS = 200
    P = 6


class SmallUser(workloads.UserCallable):
    N_ROWS = 200


class SmallExplain(workloads.Explain):
    PARTS = (SmallWide, SmallUser)


def run_once(workload, workdir):
    workload.setup(3, workdir)
    outputs = {label: call() for label, _, call in workload.jobs()}
    assert workload.check(outputs) == []
    return outputs


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    workload = SmallCli()
    return workload, run_once(workload, tmp_path_factory.mktemp("cli"))


def bump(index, amount):
    """Mutation adding ``amount`` at a nested list ``index`` path."""
    def mutate(value):
        target = value
        for key in index[:-1]:
            target = target[key]
        target[index[-1]] += amount
    return mutate


CLI_PERTURBATIONS = [
    ("fit", "fit", ("parameters", "beta", 0), 1e-4),
    ("fit", "fit", ("parameters", "baseline_chf", 5), 1e-7),
    ("predict", "predict", ("values", 5), 1e-7),
    ("performance", "performance", ("brier", "values", 3), 1e-7),
    ("performance", "performance", ("cd_auc", "values", 10), 1e-7),
    ("performance", "performance", ("cd_auc", "integrated"), 1e-7),
    ("performance", "performance", ("concordance_index",), 1e-7),
    ("performance", "performance", ("roc", "auc"), 1e-7),
    ("performance", "performance", ("roc", "tpr", 5), 1e-3),
    ("performance-km", "performance", ("concordance_index",), 1e-9),
    ("performance-km", "performance", ("cd_auc", "values", 4), 1e-9),
    ("parts-cindex", "parts", ("variables", 0, "importance"), 1e-7),
    ("parts-brier", "parts", ("variables", 2, "importance", 7), 1e-7),
    ("profile-pdp", "profile", ("values", 2, 3), 1e-7),
    ("profile-ale", "profile", ("values", 1, 3), 1e-7),
    ("profile2d", "profile2d", ("values", 1, 1, 5), 1e-7),
    ("diagnostics", "diagnostics", ("cox_snell", 4), 1e-7),
    ("diagnostics", "diagnostics", ("martingale", 4), 1e-9),
    ("diagnostics", "diagnostics", ("deviance", 6), 1e-7),
    ("shap", "shap", ("phi", 0, 10), 1e-7),
    ("shap", "shap", ("baseline", 10), 1e-7),
    ("lime", "lime", ("surrogate_beta", 0), 1e-4),
    ("lime", "lime", ("kernel_width",), 1e-6),
    ("ice", "ice", ("curves", 0, 3), 1e-7),
    ("survshap-global", "survshap-global", ("mean_abs_phi", 0, 5), 1e-7),
    ("survshap-global", "survshap-global", ("beeswarm", 1, 2, 1), 1e-7),
]


@pytest.mark.parametrize("label,command,index,amount", CLI_PERTURBATIONS,
                         ids=[f"{p[0]}-{'.'.join(map(str, p[2]))}" for p in CLI_PERTURBATIONS])
def test_cli_check_fails_on_perturbed_artifact(cli_run, label, command, index, amount):
    workload, outputs = cli_run
    path = workload.out / label / f"{command}.json"
    original = path.read_text(encoding="utf-8")
    artifact = json.loads(original)
    bump(index, amount)(artifact["result"])
    path.write_text(json.dumps(artifact), encoding="utf-8")
    try:
        problems = workload.check(outputs)
    finally:
        path.write_text(original, encoding="utf-8")
    assert any(problem.startswith(f"{label}:") for problem in problems), problems


@pytest.mark.parametrize("label,stem", [("plot", "performance"), ("performance", "performance"),
                                        ("ice", "ice")])
def test_cli_svg_checks_fail_on_a_missing_series(cli_run, label, stem):
    workload, outputs = cli_run
    path = workload.out / label / f"{stem}.svg"
    original = path.read_text(encoding="utf-8")
    lines = original.splitlines(keepends=True)
    first = next(i for i, line in enumerate(lines) if line.startswith("<polyline"))
    path.write_text("".join(lines[:first] + lines[first + 1:]), encoding="utf-8")
    try:
        problems = workload.check(outputs)
    finally:
        path.write_text(original, encoding="utf-8")
    assert any(problem.startswith(f"{label}:") for problem in problems), problems


def perturb_attribute(name, index, amount):
    def mutate(result):
        result = copy.deepcopy(result)
        array = np.array(getattr(result, name), dtype=float)
        array[index] += amount
        setattr(result, name, array)
        return result
    return mutate


def perturb_first(mutate):
    def inner(items):
        return [mutate(items[0]), *items[1:]]
    return inner


def perturb_instance(mutate):
    def inner(result):
        result = copy.deepcopy(result)
        result.per_instance[0] = mutate(result.per_instance[0])
        return result
    return inner


LIBRARY_PERTURBATIONS = [
    ("survshap-exact", perturb_attribute("phi", (0, 4), 1e-7)),
    ("survshap-exact", perturb_attribute("baseline", 4, 1e-7)),
    ("survshap-sampling", perturb_attribute("phi", (1, 4), 1e-7)),
    ("model-survshap", perturb_instance(perturb_attribute("phi", (2, 4), 1e-7))),
    ("model-survshap", perturb_attribute("mean_abs_phi", (2, 4), 1e-7)),
    ("pdp", perturb_attribute("values", (3, 4), 1e-7)),
    ("ale", perturb_attribute("values", (3, 4), 1e-7)),
    ("pdp-2d", perturb_attribute("values", (1, 2, 4), 1e-7)),
    ("ice", perturb_attribute("curves", (0, 4), 1e-7)),
    ("survlime", perturb_attribute("surrogate_beta", 1, 1e-4)),
]
USER_PERTURBATIONS = LIBRARY_PERTURBATIONS + [
    ("brier", perturb_attribute("values", 5, 1e-7)),
    ("model-parts", perturb_first(perturb_attribute("importance", (), 1e-7))),
]


@pytest.fixture(scope="module")
def wide_run(tmp_path_factory):
    workload = SmallWide()
    return workload, run_once(workload, tmp_path_factory.mktemp("wide"))


@pytest.fixture(scope="module")
def user_run(tmp_path_factory):
    workload = SmallUser()
    return workload, run_once(workload, tmp_path_factory.mktemp("user"))


def assert_caught(run, label, mutate):
    workload, outputs = run
    perturbed = dict(outputs)
    perturbed[label] = mutate(outputs[label])
    problems = workload.check(perturbed)
    assert any(problem.startswith(f"{label}:") for problem in problems), problems


@pytest.mark.parametrize("label,mutate", LIBRARY_PERTURBATIONS,
                         ids=[f"{p[0]}-{i}" for i, p in enumerate(LIBRARY_PERTURBATIONS)])
def test_explain_wide_check_fails_on_perturbed_output(wide_run, label, mutate):
    assert_caught(wide_run, label, mutate)


@pytest.mark.parametrize("label,mutate", USER_PERTURBATIONS,
                         ids=[f"{p[0]}-{i}" for i, p in enumerate(USER_PERTURBATIONS)])
def test_user_callable_check_fails_on_perturbed_output(user_run, label, mutate):
    assert_caught(user_run, label, mutate)


@pytest.mark.parametrize("label,mutate", [
    ("cox-batched/pdp", LIBRARY_PERTURBATIONS[5][1]),
    ("callable-per-row/brier", USER_PERTURBATIONS[-2][1]),
])
def test_explain_check_names_the_part_of_a_perturbed_output(tmp_path, label, mutate):
    workload = SmallExplain()
    outputs = run_once(workload, tmp_path)
    assert set(workload.snapshot(outputs)) == set(outputs)
    assert_caught((workload, outputs), label, mutate)


def test_sampled_shap_check_rejects_a_biased_sampler(wide_run):
    """Always drawing one order passes the telescoping identity but is far
    from exact phi in some cell: the Monte-Carlo tolerance must catch it."""
    workload, _ = wide_run
    sample = workload.X[oracles.background_rows(len(workload.X), workloads.PROFILE_BACKGROUND)]
    v = oracles.coalition_values(workload.oracle_predict, workload.x, sample)
    orders = [np.arange(workload.P)] * workload.N_SAMPLED_PERMUTATIONS
    phi = oracles.shapley_sampled(v, orders)
    with pytest.raises(checks.CheckFailure, match="Monte-Carlo"):
        checks.shap_sampled(phi, v[0], v, workload.oracle_predict(workload.x[None, :])[0], orders)
