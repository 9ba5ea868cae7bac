"""End-to-end CLI checks: exit codes, artifact schema, determinism, round-trips."""

import json
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from survival_explain import (
    Explainer,
    brier_score,
    cd_auc,
    concordance_index,
    explain,
    fit_cox,
    roc_at_time,
)
from survival_explain.artifacts import TOOL_VERSION
from survival_explain.cli import main
from survival_explain.ingest import ingest_csv

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


def cli(command, csv_path, out_dir, *extra):
    argv = [
        command,
        "--data", csv_path,
        "--time-col", "time",
        "--event-col", "event",
        "--out", str(out_dir),
        *extra,
    ]
    return main(argv)


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


class TestCommandCorpus:
    @pytest.mark.parametrize("command,extra", COMMAND_CORPUS, ids=[c for c, _ in COMMAND_CORPUS])
    def test_exits_zero_with_envelope(self, command, extra, corpus_csv, tmp_path):
        assert cli(command, corpus_csv, tmp_path, *extra) == 0
        envelope = load_artifact(tmp_path, command)
        assert envelope["tool_version"] == TOOL_VERSION
        assert envelope["command"] == command
        assert envelope["config"]["data"] == corpus_csv
        assert envelope["config"]["seed"] == 42
        assert "result" in envelope

    @pytest.mark.parametrize("command,extra", COMMAND_CORPUS, ids=[c for c, _ in COMMAND_CORPUS])
    def test_artifact_has_no_bare_nan_tokens(self, command, extra, corpus_csv, tmp_path):
        # allow_nan=False means undefined values must appear as null, never NaN/Infinity.
        cli(command, corpus_csv, tmp_path, *extra)
        text = (tmp_path / f"{command}.json").read_text(encoding="utf-8")
        assert "NaN" not in text
        assert "Infinity" not in text


class TestResultPayloads:
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

    def test_svg_on_curveless_command_exits_2(self, corpus_csv, tmp_path, capsys):
        code = cli("lime", corpus_csv, tmp_path, "--row", "0", "--n-neighbors", "20", "--svg")
        assert code == 2
        assert "plottable commands" in capsys.readouterr().err

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
        assert err == f"error: grid size must be at least 1, got {grid_size}\n"
        assert not (tmp_path / f"{command}.json").exists()

    def test_cox_without_events_exits_3(self, tmp_path, capsys):
        censored = tmp_path / "censored.csv"
        censored.write_text("time,event,x\n1,0,0.1\n2,0,0.3\n3,0,0.5\n")
        assert cli("fit", str(censored), tmp_path) == 3
        assert "error: " in capsys.readouterr().err


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
        code = main(["plot", "--artifact", str(artifact), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "no curve data" in err
        assert "plottable commands" in err

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
