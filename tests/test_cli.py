"""End-to-end CLI checks: exit codes, artifact schema, determinism, round-trips."""

import argparse
import importlib
import json
import os
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import survival_explain
from survival_explain import (
    Explainer,
    brier_score,
    cd_auc,
    concordance_index,
    default_time_grid,
    explain,
    fit_cox,
    fit_weibull_aft,
    model_parts,
    roc_at_time,
)
from survival_explain import svg
from survival_explain.artifacts import TOOL_VERSION
from survival_explain.cli import build_parser, main
from survival_explain.ingest import ingest_csv
from survival_explain.metrics import LOSS_NAMES
from survival_explain.models import predict_survival_matrix

from conftest import simulate_cohort, simulate_cox


def dataset_to_csv(data, path):
    header = ["time", "event", *data.feature_names]
    lines = [",".join(header)]
    for t, e, row in zip(data.times, data.events, data.features):
        cells = [repr(float(t)), str(int(e)), *(repr(float(v)) for v in row)]
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture(scope="module")
def corpus_csv(tmp_path_factory):
    data = simulate_cox(n=30, beta=[0.8, -0.5], seed=11)
    return dataset_to_csv(data, tmp_path_factory.mktemp("data") / "corpus.csv")


def cli_argv(command, csv_path, out_dir, *extra):
    return [
        command,
        "--data", csv_path,
        "--time-col", "time",
        "--event-col", "event",
        "--out", str(out_dir),
        *extra,
    ]


def cli(command, csv_path, out_dir, *extra):
    return main(cli_argv(command, csv_path, out_dir, *extra))


def load_artifact(out_dir, command):
    return json.loads((out_dir / f"{command}.json").read_text(encoding="utf-8"))


# One cheap invocation per subcommand; flags chosen to keep runtimes small.
COMMAND_CORPUS = [
    ("fit", ()),
    ("predict", ("--row", "0")),
    ("performance", ("--at-time", "4.0")),
    ("parts", ("--n-permutations", "3")),
    ("profile", ("--variable", "x0", "--grid-size", "8")),
    ("profile2d", ("--variables", "x0", "x1", "--grid-size", "4")),
    ("diagnostics", ()),
    ("shap", ("--row", "0",)),
    ("lime", ("--row", "0", "--n-neighbors", "50")),
    ("ice", ("--row", "0", "--variable", "x0", "--grid-size", "5")),
    ("survshap-global", ("--max-rows", "2", "--n-background", "20")),
]

# the commands that draw at random, and those that can draw a curve
SEEDED = {"parts", "shap", "lime", "survshap-global"}
PLOTTED = {"fit", "predict", "performance", "parts", "profile", "ice", "shap", "survshap-global"}


# (default, choices, type, required, nargs) of each option every model
# command takes, and of each option of every command beyond those
MODEL_COMMAND_OPTIONS = {
    "data": (None, None, None, True, None),
    "time_col": (None, None, None, True, None),
    "event_col": (None, None, None, True, None),
    "model": ("cox", ("km", "cox", "weibull_aft"), None, False, None),
    "out": (".", None, None, False, None),
}
OUTPUT_TYPE_CHOICES = ("survival", "chf", "risk")
COMMAND_OPTIONS = {
    "fit": {"svg": (False, None, None, False, 0)},
    "predict": {
        "row": (0, None, int, False, None),
        "output_type": ("survival", OUTPUT_TYPE_CHOICES, None, False, None),
        "svg": (False, None, None, False, 0),
    },
    "performance": {
        "svg": (False, None, None, False, 0),
        "at_time": (None, None, float, False, None),
    },
    "parts": {
        "seed": (42, None, int, False, None),
        "svg": (False, None, None, False, 0),
        "loss": ("brier_integrated", LOSS_NAMES, None, False, None),
        "n_permutations": (10, None, int, False, None),
        "variable": (None, None, None, False, None),
        "ratio": (False, None, None, False, 0),
    },
    "profile": {
        "n_background": (100, None, int, False, None),
        "output_type": ("survival", OUTPUT_TYPE_CHOICES, None, False, None),
        "svg": (False, None, None, False, 0),
        "variable": (None, None, None, True, None),
        "method": ("pdp", ("pdp", "ale"), None, False, None),
        "grid_size": (None, None, int, False, None),
    },
    "profile2d": {
        "n_background": (100, None, int, False, None),
        "output_type": ("survival", OUTPUT_TYPE_CHOICES, None, False, None),
        "variables": (None, None, None, True, 2),
        "grid_size": (10, None, int, False, None),
    },
    "diagnostics": {},
    "shap": {
        "row": (0, None, int, False, None),
        "method": ("auto", ("auto", "exact", "sampling"), None, False, None),
        "n_permutations": (100, None, int, False, None),
        "n_background": (100, None, int, False, None),
        "seed": (42, None, int, False, None),
        "svg": (False, None, None, False, 0),
    },
    "lime": {
        "row": (0, None, int, False, None),
        "seed": (42, None, int, False, None),
        "n_neighbors": (100, None, int, False, None),
    },
    "ice": {
        "row": (0, None, int, False, None),
        "output_type": ("survival", OUTPUT_TYPE_CHOICES, None, False, None),
        "svg": (False, None, None, False, 0),
        "variable": (None, None, None, True, None),
        "grid_size": (25, None, int, False, None),
    },
    "survshap-global": {
        "method": ("auto", ("auto", "exact", "sampling"), None, False, None),
        "n_permutations": (100, None, int, False, None),
        "n_background": (100, None, int, False, None),
        "seed": (42, None, int, False, None),
        "svg": (False, None, None, False, 0),
        "max_rows": (None, None, int, False, None),
    },
}


def test_each_command_declares_exactly_its_option_table():
    _, commands = build_parser()
    expected = {
        name: {**MODEL_COMMAND_OPTIONS, **options} for name, options in COMMAND_OPTIONS.items()
    }
    expected["plot"] = {
        "artifact": (None, None, None, True, None),
        "out": (".", None, None, False, None),
    }
    actual = {
        name: {
            action.dest: (action.default, action.choices, action.type, action.required, action.nargs)
            for action in parser._actions
            if action.dest != "help"
        }
        for name, parser in commands.choices.items()
    }
    assert actual == expected
    assert sum(len(options) for options in actual.values()) == 99


class TestCommandCorpus:
    @pytest.mark.parametrize("command,extra", COMMAND_CORPUS, ids=[c for c, _ in COMMAND_CORPUS])
    def test_exits_zero_with_envelope(self, command, extra, corpus_csv, tmp_path):
        assert cli(command, corpus_csv, tmp_path, *extra) == 0
        envelope = load_artifact(tmp_path, command)
        assert envelope["tool_version"] == TOOL_VERSION
        assert envelope["command"] == command
        assert envelope["config"]["data"] == corpus_csv
        assert "result" in envelope

    @pytest.mark.parametrize("command,extra", COMMAND_CORPUS, ids=[c for c, _ in COMMAND_CORPUS])
    def test_config_echoes_only_the_declared_options(self, command, extra, corpus_csv, tmp_path):
        assert cli(command, corpus_csv, tmp_path, *extra) == 0
        config = load_artifact(tmp_path, command)["config"]
        assert ("seed" in config) == (command in SEEDED)
        assert ("svg" in config) == (command in PLOTTED)
        if command in SEEDED:
            assert config["seed"] == 42

    @pytest.mark.parametrize("command,extra", COMMAND_CORPUS, ids=[c for c, _ in COMMAND_CORPUS])
    def test_artifact_has_no_bare_nan_tokens(self, command, extra, corpus_csv, tmp_path):
        # allow_nan=False means undefined values must appear as null, never NaN/Infinity.
        cli(command, corpus_csv, tmp_path, *extra)
        text = (tmp_path / f"{command}.json").read_text(encoding="utf-8")
        assert "NaN" not in text
        assert "Infinity" not in text


# Each result value that repeats an argument, at a value other than its
# default: (command, arguments, path to the value in the result, the value).
ARGUMENT_ECHOES = [
    ("performance", ("--at-time", "4.25"), ("roc", "time"), 4.25),
    ("parts", ("--n-permutations", "2", "--seed", "7"), ("n_permutations",), 2),
    ("parts", ("--n-permutations", "2", "--seed", "7"), ("seed",), 7),
    ("profile", ("--variable", "x1", "--grid-size", "4"), ("variable",), "x1"),
    ("profile", ("--variable", "x0", "--method", "ale", "--grid-size", "4"), ("method",), "ale"),
    ("profile", ("--variable", "x0", "--output-type", "chf"), ("output_type",), "chf"),
    ("profile2d", ("--variables", "x1", "x0", "--grid-size", "3"), ("variables",), ["x1", "x0"]),
    ("profile2d", ("--variables", "x0", "x1", "--grid-size", "3", "--output-type", "risk"),
     ("output_type",), "risk"),
    ("ice", ("--variable", "x1", "--grid-size", "4"), ("variable",), "x1"),
    ("ice", ("--variable", "x0", "--grid-size", "4", "--output-type", "chf"),
     ("output_type",), "chf"),
    ("shap", ("--method", "sampling", "--n-permutations", "3", "--seed", "11"), ("seed",), 11),
    ("lime", ("--n-neighbors", "37"), ("neighborhood_size",), 37),
]


class TestResultPayloads:
    @pytest.mark.parametrize(
        "command,extra,path,value",
        ARGUMENT_ECHOES,
        ids=[f"{command}-{path[-1]}" for command, _, path, _ in ARGUMENT_ECHOES],
    )
    def test_result_repeats_the_argument(self, command, extra, path, value, corpus_csv, tmp_path):
        assert cli(command, corpus_csv, tmp_path, *extra) == 0
        echoed = load_artifact(tmp_path, command)["result"]
        for key in path:
            echoed = echoed[key]
        assert echoed == value and type(echoed) is type(value)

    def test_fit_reports_cox_parameters(self, corpus_csv, tmp_path):
        cli("fit", corpus_csv, tmp_path)
        result = load_artifact(tmp_path, "fit")["result"]
        assert result["model"] == "CoxModel"
        assert result["converged"] is True
        assert result["parameters"]["feature_names"] == ["x0", "x1"]
        assert len(result["parameters"]["beta"]) == 2

    def test_fit_on_a_byte_order_marked_csv_matches_the_plain_file(self, corpus_csv, tmp_path):
        bom_csv = tmp_path / "bom.csv"
        with open(corpus_csv, "rb") as handle:
            bom_csv.write_bytes(b"\xef\xbb\xbf" + handle.read())
        assert cli("fit", corpus_csv, tmp_path / "plain") == 0
        assert cli("fit", str(bom_csv), tmp_path / "bom") == 0
        want = load_artifact(tmp_path / "plain", "fit")["result"]
        assert load_artifact(tmp_path / "bom", "fit")["result"] == want

    def test_fit_on_a_csv_with_blank_lines_matches_the_clean_file(self, corpus_csv, tmp_path):
        # one blank line mid-file and two at the end
        with open(corpus_csv, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        blank_csv = tmp_path / "blank.csv"
        blank_csv.write_text("\n".join(lines[:10] + [""] + lines[10:]) + "\n\n\n")
        assert cli("fit", corpus_csv, tmp_path / "clean") == 0
        assert cli("fit", str(blank_csv), tmp_path / "blank") == 0
        want = load_artifact(tmp_path / "clean", "fit")["result"]
        assert load_artifact(tmp_path / "blank", "fit")["result"] == want

    def test_fit_on_a_csv_starting_with_blank_lines_matches_the_clean_file(
        self, corpus_csv, tmp_path
    ):
        with open(corpus_csv, encoding="utf-8") as handle:
            text = handle.read()
        lead_csv = tmp_path / "lead.csv"
        lead_csv.write_text("\n\n" + text)
        assert cli("fit", corpus_csv, tmp_path / "clean") == 0
        assert cli("fit", str(lead_csv), tmp_path / "lead") == 0
        want = load_artifact(tmp_path / "clean", "fit")["result"]
        assert load_artifact(tmp_path / "lead", "fit")["result"] == want

    def test_fit_km_has_survival_curve(self, corpus_csv, tmp_path):
        cli("fit", corpus_csv, tmp_path, "--model", "km")
        envelope = load_artifact(tmp_path, "fit")
        assert envelope["result"]["model"] == "KaplanMeierModel"
        params = envelope["result"]["parameters"]
        assert len(params["times"]) == len(params["survival"])
        assert envelope["curves"]

    @pytest.mark.parametrize("svg_flag", [(), ("--svg",)], ids=["json", "svg"])
    def test_fit_reports_weibull_parameters_and_baseline_curve(
        self, svg_flag, corpus_csv, tmp_path
    ):
        assert cli("fit", corpus_csv, tmp_path, "--model", "weibull_aft", *svg_flag) == 0
        envelope = load_artifact(tmp_path, "fit")
        data = ingest_csv(corpus_csv, time_column="time", event_column="event")
        model = fit_weibull_aft(data)
        assert envelope["result"]["model"] == "WeibullAftModel"
        assert envelope["result"]["converged"] is True
        assert envelope["result"]["parameters"] == {
            "shape": model.shape,
            "intercept": model.intercept,
            "coefficients": model.coefficients.tolist(),
            "feature_names": ["x0", "x1"],
        }
        grid = default_time_grid(data)
        baseline = predict_survival_matrix(model, np.zeros((1, 2)), grid)[0]
        (curve,) = envelope["curves"]
        assert curve == {"label": "baseline survival", "x": grid.points.tolist(),
                         "y": baseline.tolist()}
        assert envelope["plot"] == {"x_label": "time", "y_label": "survival probability"}
        if svg_flag:
            svg_text = (tmp_path / "fit.svg").read_text(encoding="utf-8")
            assert svg_text.count("<polyline") == 1
        else:
            assert not (tmp_path / "fit.svg").exists()

    # one event gives no time grid, so the Weibull fit has no baseline curve
    ONE_EVENT = "time,event,x\n2,1,0.5\n3,0,1.0\n4,0,0.2\n5,0,0.9\n"

    def test_weibull_fit_on_one_event_has_no_curves(self, tmp_path):
        csv = tmp_path / "one.csv"
        csv.write_text(self.ONE_EVENT)
        assert cli("fit", str(csv), tmp_path / "out", "--model", "weibull_aft") == 0
        envelope = load_artifact(tmp_path / "out", "fit")
        assert envelope["result"]["model"] == "WeibullAftModel"
        assert "curves" not in envelope and "plot" not in envelope

    def test_weibull_fit_svg_on_one_event_exits_2(self, tmp_path, capsys):
        csv = tmp_path / "one.csv"
        csv.write_text(self.ONE_EVENT)
        out = tmp_path / "out"
        assert cli("fit", str(csv), out, "--model", "weibull_aft", "--svg") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: command 'fit' produced no curve data") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,extra",
        [("profile", ("--variable", "x0", "--grid-size", "5")),
         ("ice", ("--row", "0", "--variable", "x1", "--grid-size", "5"))],
        ids=["profile", "ice"],
    )
    def test_risk_profile_draws_one_series(self, command, extra, corpus_csv, tmp_path):
        assert cli(command, corpus_csv, tmp_path, *extra, "--output-type", "risk", "--svg") == 0
        envelope = load_artifact(tmp_path, command)
        (series,) = envelope["curves"]
        assert series["x"] == envelope["result"]["grid_values"]
        values = envelope["result"]["values" if command == "profile" else "curves"]
        assert series["y"] == values
        assert envelope["plot"] == {"x_label": "variable value", "y_label": "risk"}
        svg_text = (tmp_path / f"{command}.svg").read_text(encoding="utf-8")
        assert svg_text.count("<polyline") == 1

    def test_predict_risk_has_no_curves(self, corpus_csv, tmp_path):
        cli("predict", corpus_csv, tmp_path, "--row", "1", "--output-type", "risk")
        envelope = load_artifact(tmp_path, "predict")
        assert "curves" not in envelope
        assert envelope["result"]["output_type"] == "risk"
        assert isinstance(envelope["result"]["values"], float)

    def test_performance_roc_threshold_sentinel_is_null(self, corpus_csv, tmp_path):
        cli("performance", corpus_csv, tmp_path, "--at-time", "4.0")
        roc = load_artifact(tmp_path, "performance")["result"]["roc"]
        # +inf sentinel threshold serializes as null under the finite-floats policy
        assert roc["thresholds"][-1] is None
        assert all(isinstance(v, float) for v in roc["thresholds"][:-1])
        assert roc["fpr"][0] == 1.0 and roc["tpr"][0] == 1.0
        assert roc["fpr"][-1] == 0.0 and roc["tpr"][-1] == 0.0

    def test_parts_ratio_flag_adds_ratio(self, corpus_csv, tmp_path):
        cli("parts", corpus_csv, tmp_path, "--n-permutations", "2", "--ratio")
        entries = load_artifact(tmp_path, "parts")["result"]["variables"]
        assert {e["variable"] for e in entries} == {"x0", "x1"}
        assert all("ratio" in e for e in entries)

    def test_parts_brier_curve_is_plottable(self, corpus_csv, tmp_path):
        code = cli(
            "parts", corpus_csv, tmp_path,
            "--loss", "brier_curve", "--n-permutations", "2", "--svg",
        )
        assert code == 0
        assert (tmp_path / "parts.svg").exists()

    @pytest.mark.parametrize("loss", ["brier_curve", "one_minus_cindex"])
    def test_parts_standard_error_is_the_replicate_spread(self, loss, corpus_csv, tmp_path):
        cli("parts", corpus_csv, tmp_path, "--loss", loss, "--n-permutations", "4")
        entries = load_artifact(tmp_path, "parts")["result"]["variables"]
        data = ingest_csv(corpus_csv, time_column="time", event_column="event")
        items = model_parts(explain(fit_cox(data), data), loss=loss, n_permutations=4, seed=42)
        assert [entry["variable"] for entry in entries] == [item.variable for item in items]
        for entry, item in zip(entries, items):
            mean = sum(item.replicate_losses) / 4
            variance = sum((replicate - mean) ** 2 for replicate in item.replicate_losses) / 3
            expected = np.sqrt(variance) / 2
            if loss == "one_minus_cindex":
                assert isinstance(entry["standard_error"], float)
            else:
                assert len(entry["standard_error"]) == len(entry["importance"])
            # null marks a grid point where the Brier score is undefined
            reported = np.asarray(entry["standard_error"], dtype=float)
            np.testing.assert_allclose(reported, expected, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("loss", ["brier_curve", "brier_integrated"])
    def test_parts_standard_error_is_null_for_one_permutation(self, loss, corpus_csv, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            cli("parts", corpus_csv, tmp_path, "--loss", loss, "--n-permutations", "1")
        entries = load_artifact(tmp_path, "parts")["result"]["variables"]
        assert [entry["standard_error"] for entry in entries] == [None, None]

    def test_shap_standard_error_only_for_the_sampler(self, corpus_csv, tmp_path):
        cli("shap", corpus_csv, tmp_path, "--method", "sampling", "--n-permutations", "5")
        result = load_artifact(tmp_path, "shap")["result"]
        assert np.shape(result["standard_error"]) == np.shape(result["phi"])
        assert all(v >= 0.0 for row in result["standard_error"] for v in row)
        cli("shap", corpus_csv, tmp_path, "--method", "exact")
        assert load_artifact(tmp_path, "shap")["result"]["standard_error"] is None

    def test_survshap_global_ranking(self, corpus_csv, tmp_path):
        cli("survshap-global", corpus_csv, tmp_path, "--max-rows", "4")
        result = load_artifact(tmp_path, "survshap-global")["result"]
        assert result["n_rows"] == 4
        assert result["variables"] == ["x0", "x1"]
        assert len(result["importance_ranking"]) == 2
        assert all(v >= 0.0 for v in result["importance_ranking"])
        assert len(result["beeswarm"]) == 4

    def test_zero_feature_km_pipeline(self, tmp_path):
        data = simulate_cox(n=12, beta=[0.5], seed=3)
        csv_path = tmp_path / "bare.csv"
        lines = ["time,event"] + [
            f"{float(t)!r},{int(e)}" for t, e in zip(data.times, data.events)
        ]
        csv_path.write_text("\n".join(lines) + "\n")
        assert cli("performance", str(csv_path), tmp_path, "--model", "km") == 0
        result = load_artifact(tmp_path, "performance")["result"]
        # every risk tied under a feature-free model
        assert result["concordance_index"] == 0.5


class TestErrorExits:
    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = cli("fit", str(tmp_path / "nope.csv"), tmp_path)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.strip().count("\n") == 0

    def test_bad_event_value_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,event,x\n1,1,0.2\n2,2,0.4\n")
        assert cli("fit", str(bad), tmp_path) == 2
        assert "event column must be 0/1 (row 2)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "row, message",
        [
            ("2,1,nan", "non-finite value 'nan' (row 2, column 'x')"),
            ("inf,1,0.4", "non-finite value 'inf' (row 2, column 'time')"),
            ("-2,1,0.4", "negative time '-2' (row 2, column 'time')"),
        ],
        ids=["nan-feature", "inf-time", "negative-time"],
    )
    def test_rejected_cell_exits_2(self, row, message, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"time,event,x\n1,1,0.2\n{row}\n")
        assert cli("fit", str(bad), tmp_path) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "fit.json").exists()

    def test_exact_shap_over_the_variable_cap_exits_2(self, tmp_path, capsys):
        wide = dataset_to_csv(simulate_cohort(200, 17, seed=3), tmp_path / "wide.csv")
        assert cli("shap", wide, tmp_path, "--row", "0", "--method", "exact") == 2
        assert "sampling" in capsys.readouterr().err

    def test_row_out_of_range_exits_2(self, corpus_csv, tmp_path, capsys):
        assert cli("predict", corpus_csv, tmp_path, "--row", "99") == 2
        assert "--row 99 out of range for 30 data rows" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,extra",
        [
            ("parts", ("--loss", "one_minus_cindex", "--n-permutations", "1")),
            ("predict", ("--row", "0", "--output-type", "risk")),
        ],
        ids=["parts-cindex", "predict-risk"],
    )
    def test_svg_on_curveless_command_exits_2(self, command, extra, corpus_csv, tmp_path, capsys):
        assert cli(command, corpus_csv, tmp_path, *extra, "--svg") == 2
        assert "plottable commands" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command,extra",
        [
            ("performance", ("--seed", "1")),
            ("lime", ("--row", "0", "--n-neighbors", "20", "--svg")),
            ("diagnostics", ("--svg",)),
            ("profile2d", ("--variables", "x0", "x1", "--grid-size", "3", "--svg")),
        ],
        ids=["performance-seed", "lime-svg", "diagnostics-svg", "profile2d-svg"],
    )
    def test_undeclared_option_is_refused_before_any_read(
        self, command, extra, tmp_path, capsys
    ):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as refused:
            cli(command, str(tmp_path / "absent.csv"), out, *extra)
        assert refused.value.code == 2
        err = capsys.readouterr().err
        # the command's own parser reports it, so the usage shows what it takes
        assert err.startswith(f"usage: survival-explain {command} [-h] --data DATA")
        assert f"\nsurvival-explain {command}: error: unrecognized arguments: " in err
        assert not out.exists()

    @pytest.mark.parametrize("grid_size", ["-1", "0"])
    @pytest.mark.parametrize(
        "command,extra",
        [
            ("profile", ("--variable", "x0")),
            ("profile", ("--variable", "x0", "--method", "ale")),
            ("profile2d", ("--variables", "x0", "x1")),
            ("ice", ("--row", "0", "--variable", "x0")),
        ],
        ids=["pdp", "ale", "profile2d", "ice"],
    )
    def test_grid_size_below_one_exits_2(
        self, command, extra, grid_size, corpus_csv, tmp_path, capsys
    ):
        assert cli(command, corpus_csv, tmp_path, *extra, "--grid-size", grid_size) == 2
        err = capsys.readouterr().err
        assert err == f"error: grid_size must be an integer of at least 1, got {grid_size}\n"
        assert not (tmp_path / f"{command}.json").exists()

    @pytest.mark.parametrize(
        "command,extra",
        [
            ("parts", ("--loss", "one_minus_cindex", "--n-permutations", "1")),
            ("shap", ("--row", "0")),
            ("shap", ("--row", "0", "--method", "exact")),
            ("lime", ("--row", "0", "--n-neighbors", "20")),
            ("survshap-global", ("--max-rows", "2")),
        ],
        ids=["parts", "shap", "shap-exact", "lime", "survshap-global"],
    )
    def test_negative_seed_exits_2(self, command, extra, corpus_csv, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli(command, corpus_csv, out, *extra, "--seed", "-1") == 2
        assert capsys.readouterr().err == "error: seed must be a non-negative integer\n"
        assert not out.exists()

    def test_survshap_global_max_rows_below_one_exits_2(self, corpus_csv, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli("survshap-global", corpus_csv, out, "--max-rows", "0") == 2
        assert capsys.readouterr().err == "error: --max-rows must be an integer of at least 1, got 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "below-file"])
    @pytest.mark.parametrize("command", ["fit", "plot"])
    def test_out_that_cannot_be_a_directory_exits_2(
        self, command, sub, corpus_csv, tmp_path, capsys
    ):
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        out = afile / sub if sub else afile
        if command == "plot":
            assert cli("performance", corpus_csv, tmp_path) == 0
            code = main(["plot", "--artifact", str(tmp_path / "performance.json"), "--out", str(out)])
        else:
            code = cli("fit", corpus_csv, out)
        assert code == 2
        reason = "Not a directory" if sub else "File exists"
        assert capsys.readouterr().err == f"error: cannot write {out}: {reason}\n"
        assert afile.read_text() == "kept\n"

    def test_repeated_time_column_exits_2(self, tmp_path, capsys):
        repeated = tmp_path / "repeated.csv"
        repeated.write_text("time,event,time\n5,1,3\n2,0,4\n7,1,1\n")
        out = tmp_path / "out"
        assert cli("fit", str(repeated), out) == 2
        assert capsys.readouterr().err == (
            "error: column 'time' appears 2 times in the CSV header\n"
        )
        assert not out.exists()

    def test_cox_without_events_exits_3(self, tmp_path, capsys):
        censored = tmp_path / "censored.csv"
        censored.write_text("time,event,x\n1,0,0.1\n2,0,0.3\n3,0,0.5\n")
        assert cli("fit", str(censored), tmp_path) == 3
        assert "error: " in capsys.readouterr().err

    def test_separated_cox_data_exits_3(self, tmp_path, capsys):
        separated = tmp_path / "separated.csv"
        separated.write_text(
            "time,event,x0\n1.5,1,-1.5\n3.0,0,-3.0\n2.7,1,-2.7\n2.6,1,-2.6\n8.3,1,-8.3\n"
        )
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli("fit", str(separated), out) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()


class TestWarnings:
    """A result that is not to be trusted still exits 0, with one warning line."""

    # the separated set of the models tests: times 1-5, events 1,1,0,1,1, z = 0..4
    UNCONVERGED = "time,event,z\n1,1,0\n2,1,1\n3,0,2\n4,1,3\n5,1,4\n"
    TINY = "time,event,age,dose\n5,1,61,0.5\n3,0,48,1.2\n8,1,70,0.1\n2,1,55,0.9\n6,0,66,0.3\n4,1,52,0.7\n"
    COMMANDS = [
        ("fit", ()),
        ("predict", ()),
        ("performance", ()),
        ("parts", ("--n-permutations", "2")),
        ("profile", ("--variable", "z")),
        ("diagnostics", ()),
        ("shap", ()),
        ("lime", ("--n-neighbors", "40")),
        ("ice", ("--variable", "z")),
        ("survshap-global", ("--max-rows", "2")),
    ]

    @pytest.mark.parametrize("command,extra", COMMANDS)
    def test_unconverged_fit_warns_once_and_exits_0(self, command, extra, tmp_path, capsys):
        path = tmp_path / "separated.csv"
        path.write_text(self.UNCONVERGED)
        assert cli(command, str(path), tmp_path / "out", *extra) == 0
        err = capsys.readouterr().err
        assert err.startswith("warning: the cox fit did not converge")
        assert err.count("\n") == 1
        assert (tmp_path / "out" / f"{command}.json").exists()

    def test_unconverged_fit_artifact_records_the_flag(self, tmp_path, capsys):
        path = tmp_path / "separated.csv"
        path.write_text(self.UNCONVERGED)
        assert cli("fit", str(path), tmp_path) == 0
        assert load_artifact(tmp_path, "fit")["result"]["converged"] is False

    def test_degenerate_surrogate_warns_once(self, tmp_path, capsys):
        path = tmp_path / "tiny.csv"
        path.write_text(self.TINY)
        for seed in range(5):
            out = tmp_path / f"out{seed}"
            argv = ("--n-neighbors", "2", "--seed", str(seed))
            assert cli("lime", str(path), out, *argv) == 0
            err = capsys.readouterr().err
            assert err.startswith("warning: the SurvLIME surrogate is degenerate")
            assert err.count("\n") == 1
            assert load_artifact(out, "lime")["result"]["degenerate"] is True

    @pytest.mark.parametrize("command,extra", [("fit", ()), ("lime", ())])
    def test_trusted_results_print_nothing(self, command, extra, corpus_csv, tmp_path, capsys):
        assert cli(command, corpus_csv, tmp_path, *extra) == 0
        assert capsys.readouterr().err == ""


class TestDeterminism:
    # Stochastic commands must be reproducible from config + seed alone.
    REPEATED = [
        ("performance", ()),
        ("parts", ("--n-permutations", "3")),
        ("shap", ("--row", "0",)),
        ("lime", ("--row", "0", "--n-neighbors", "40")),
        ("survshap-global", ("--max-rows", "2",)),
    ]

    @pytest.mark.parametrize("command,extra", REPEATED, ids=[c for c, _ in REPEATED])
    def test_same_config_byte_identical_json(self, command, extra, corpus_csv, tmp_path):
        cli(command, corpus_csv, tmp_path, *extra)
        first = (tmp_path / f"{command}.json").read_bytes()
        cli(command, corpus_csv, tmp_path, *extra)
        second = (tmp_path / f"{command}.json").read_bytes()
        assert first == second

    def test_svg_byte_identical(self, corpus_csv, tmp_path):
        args = ("--variable", "x0", "--grid-size", "6", "--svg")
        cli("profile", corpus_csv, tmp_path, *args)
        first = (tmp_path / "profile.svg").read_bytes()
        cli("profile", corpus_csv, tmp_path, *args)
        assert first == (tmp_path / "profile.svg").read_bytes()


class TestRoundTrip:
    def test_grid_and_curves_reload_bit_exact(self, corpus_csv, tmp_path):
        cli("performance", corpus_csv, tmp_path)
        envelope = load_artifact(tmp_path, "performance")

        data = ingest_csv(corpus_csv, time_column="time", event_column="event")
        explainer = explain(fit_cox(data), data)
        brier = brier_score(explainer, data)

        reloaded_grid = np.asarray(envelope["grid"], dtype=float)
        np.testing.assert_array_equal(reloaded_grid, explainer.grid.points)

        by_label = {curve["label"]: curve for curve in envelope["curves"]}
        reloaded = np.asarray(by_label["Brier score"]["y"], dtype=float)
        np.testing.assert_array_equal(reloaded, brier.values)

    def test_performance_equals_the_metric_functions_from_one_prediction(
        self, corpus_csv, tmp_path, monkeypatch
    ):
        data = ingest_csv(corpus_csv, time_column="time", event_column="event")
        explainer = explain(fit_cox(data), data)
        rows = []
        survival_matrix = Explainer.survival_matrix
        monkeypatch.setattr(Explainer, "survival_matrix",
                            lambda self, X: rows.append(len(X)) or survival_matrix(self, X))
        cli("performance", corpus_csv, tmp_path, "--at-time", "4.0")
        # the explainer's one-row construction probe, then one prediction
        assert rows == [1, data.n_observations]
        result = load_artifact(tmp_path, "performance")["result"]

        def exact(values):
            return np.asarray([np.nan if v is None else v for v in values], dtype=float)

        brier, auc = brier_score(explainer, data), cd_auc(explainer, data)
        roc = roc_at_time(explainer, data, 4.0)
        assert exact(result["brier"]["values"]).tobytes() == brier.values.tobytes()
        assert result["brier"]["integrated"] == brier.integrated
        assert exact(result["cd_auc"]["values"]).tobytes() == auc.values.tobytes()
        assert result["cd_auc"]["integrated"] == auc.integrated
        assert result["concordance_index"] == concordance_index(explainer, data)
        for field in ("fpr", "tpr"):
            assert exact(result["roc"][field]).tobytes() == getattr(roc, field).tobytes()
        assert exact(result["roc"]["thresholds"][:-1]).tobytes() == roc.thresholds[:-1].tobytes()
        assert result["roc"]["auc"] == roc.trapezoid_auc()

    def test_predict_values_reload_bit_exact(self, corpus_csv, tmp_path):
        cli("predict", corpus_csv, tmp_path, "--row", "2")
        envelope = load_artifact(tmp_path, "predict")

        data = ingest_csv(corpus_csv, time_column="time", event_column="event")
        explainer = explain(fit_cox(data), data)
        expected = explainer.predict(data.features[2], "survival")
        np.testing.assert_array_equal(
            np.asarray(envelope["result"]["values"], dtype=float), expected
        )


# Every command that can draw, with the flags that make it draw.
PLOTTABLE_CORPUS = [
    ("fit", ()),
    ("predict", ("--row", "0")),
    ("performance", ()),
    ("parts", ("--loss", "brier_curve", "--n-permutations", "2")),
    ("profile", ("--variable", "x0", "--grid-size", "5")),
    ("ice", ("--row", "0", "--variable", "x1", "--grid-size", "5")),
    ("shap", ("--row", "0")),
    ("survshap-global", ("--max-rows", "2", "--n-background", "20")),
]


class TestPlotCommand:
    def test_plot_renders_wellformed_svg(self, corpus_csv, tmp_path):
        cli("performance", corpus_csv, tmp_path)
        artifact = tmp_path / "performance.json"
        code = main(["plot", "--artifact", str(artifact), "--out", str(tmp_path)])
        assert code == 0
        svg_text = (tmp_path / "performance.svg").read_text(encoding="utf-8")
        root = ET.fromstring(svg_text)
        assert root.tag.endswith("svg")

    def test_plot_curveless_artifact_exits_2(self, corpus_csv, tmp_path, capsys):
        cli("diagnostics", corpus_csv, tmp_path)
        artifact = tmp_path / "diagnostics.json"
        out = tmp_path / "plot-out"
        code = main(["plot", "--artifact", str(artifact), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "no curve data" in err
        assert "plottable commands" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text,problem",
        [
            ("[1, 2]", "no curve data"),
            ('{"curves": 5}', "malformed curve data"),
            ('{"curves": [{"x": [1, "a"], "y": [1, 2]}]}', "malformed curve data"),
            ('{"curves": [5]}', "malformed curve data"),
            ('{"curves": [{"x": [1, 2], "y": [1, 2]}], "plot": 3}', "malformed curve data"),
            ('{"curves": [{"x": [1, 2], "y": [NaN, 2]}]}', "malformed curve data"),
            ('{"curves": [{"x": [1, 2], "y": [1e400, 2]}]}', "malformed curve data"),
            ('{"curves": [{"x": [1, 2], "y": [1%s, 2]}]}' % ("0" * 400), "malformed curve data"),
            ('{"curves": [{"label": "a", "x": [1, 2], "y": [1]}]}', "malformed curve data"),
            ('{"curves": [{"x": [true, false], "y": [1, 2]}]}', "malformed curve data"),
        ],
        ids=["list", "number-curves", "string-point", "number-series", "number-plot", "nan",
             "overflowing-float", "overflowing-integer", "mismatched-lengths", "boolean-point"],
    )
    def test_plot_json_that_is_not_an_artifact_exits_2(self, text, problem, tmp_path, capsys):
        artifact = tmp_path / "odd.json"
        artifact.write_text(text)
        out = tmp_path / "plot-out"
        assert main(["plot", "--artifact", str(artifact), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: artifact {artifact} has {problem}")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command,extra", PLOTTABLE_CORPUS, ids=[c for c, _ in PLOTTABLE_CORPUS])
    def test_svg_matches_plot_command_output(self, command, extra, corpus_csv, tmp_path):
        # --svg at generation time and plot-from-artifact must agree byte for byte
        assert cli(command, corpus_csv, tmp_path, *extra, "--svg") == 0
        inline = (tmp_path / f"{command}.svg").read_bytes()
        replot_dir = tmp_path / "replot"
        artifact = str(tmp_path / f"{command}.json")
        assert main(["plot", "--artifact", artifact, "--out", str(replot_dir)]) == 0
        assert inline == (replot_dir / f"{command}.svg").read_bytes()


class TestEntryPoint:
    def test_module_invocation_reports_version(self):
        proc = subprocess.run(
            [sys.executable, "-m", "survival_explain", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == f"survival-explain {TOOL_VERSION}"


class TestSvgText:
    @pytest.mark.parametrize(
        "text",
        ["", "plain", "a & b", "<tag>", "&amp; stays escaped", "\"quoted\" 'single'",
         "&<>\"'", "μ ≤ 0.5 & t → ∞", "survie à 5 ans <médiane>"],
    )
    def test_escape_matches_the_standard_library(self, text):
        from xml.sax.saxutils import escape

        assert svg._escape(text) == escape(text)

    def test_cli_import_loads_no_network_modules(self):
        # xml.sax.saxutils would pull these in through urllib.request
        heavy = ("urllib.request", "http.client", "email", "ssl", "socket")
        src = str(Path(survival_explain.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import sys, survival_explain.cli; print([m for m in {heavy!r} if m in sys.modules])"],
            capture_output=True, text=True, env=env, check=True,
        )
        assert proc.stdout.strip() == "[]"


class TestInProcessCalls:
    """``main`` called many times in one process keeps no state between calls."""

    def test_two_calls_construct_the_parser_once(self, corpus_csv, tmp_path, monkeypatch):
        # a fresh copy of the module, so its first call finds nothing built yet
        monkeypatch.delitem(sys.modules, "survival_explain.cli")
        monkeypatch.delattr(survival_explain, "cli", raising=False)
        fresh = importlib.import_module("survival_explain.cli")
        progs = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            progs.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        argv = cli_argv("fit", corpus_csv, tmp_path)
        assert fresh.main(argv) == 0
        built = len(progs)
        assert fresh.main(argv) == 0
        assert built > 0
        assert len(progs) == built
        assert progs.count("survival-explain") == 1

    def test_a_repeated_option_does_not_carry_into_the_next_call(self, corpus_csv, tmp_path):
        cli("parts", corpus_csv, tmp_path, "--variable", "x0", "--n-permutations", "1")
        first = load_artifact(tmp_path, "parts")
        assert first["config"]["variable"] == ["x0"]
        assert [entry["variable"] for entry in first["result"]["variables"]] == ["x0"]
        cli("parts", corpus_csv, tmp_path, "--n-permutations", "1")
        second = load_artifact(tmp_path, "parts")
        assert second["config"]["variable"] is None
        assert [entry["variable"] for entry in second["result"]["variables"]] == ["x0", "x1"]

    def test_calls_that_exit_leave_nothing_for_the_next(self, corpus_csv, tmp_path, capsys):
        with pytest.raises(SystemExit) as refused:
            main(["fit", "--data", corpus_csv, "--bogus"])
        assert refused.value.code == 2
        with pytest.raises(SystemExit) as version:
            main(["--version"])
        assert version.value.code == 0
        capsys.readouterr()
        argv = cli_argv("fit", corpus_csv, tmp_path)
        subprocess.run([sys.executable, "-m", "survival_explain", *argv], check=True)
        artifact = tmp_path / "fit.json"
        fresh = artifact.read_bytes()
        artifact.unlink()
        assert main(argv) == 0
        assert artifact.read_bytes() == fresh
