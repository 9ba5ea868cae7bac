"""Command-line interface: CSV in, JSON artifacts out, optional SVG plots.

Every command ingests a CSV, fits the requested model, wraps it in an
Explainer, runs one library operation, and writes ``<command>.json`` into
the output directory. Artifacts carry no timestamps and serialize floats
exactly, so rerunning a command with the same inputs and seed produces
byte-identical files. Exit codes: 0 success, 2 input error, 3 numeric or
undefined-result error. A result that is made but not to be trusted (an
unconverged fit, a degenerate SurvLIME surrogate) exits 0 with one
``warning:`` line on stderr per flag; the artifact records the flag itself.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from .artifacts import TOOL_VERSION, build_envelope, read_artifact, write_artifact
from .errors import InputError, NumericError
from .explainer import OUTPUT_TYPES, default_time_grid, explain
from .global_explain import (_check_count, model_diagnostics, model_parts, model_profile,
                             model_profile_2d)
from .ingest import ingest_csv
from .local_explain import (
    model_survshap,
    predict_parts_survlime,
    predict_parts_survshap,
    predict_profile,
)
from .metrics import (
    LOSS_NAMES,
    _brier_scorer,
    _cd_auc_scorer,
    _concordance_scorer,
    _roc_scorer,
)
from .models import MODEL_FITS, CoxModel, KaplanMeierModel, predict_survival_matrix
from .svg import render_line_chart

PLOTTABLE = (
    "fit, predict (survival/chf), performance, parts (with --loss brier_curve), "
    "profile, ice, shap, survshap-global"
)


@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, argparse.Action]:
    """The whole command tree and its subcommands' handle, built on first use
    and shared by every later call; parsing reads them and never changes them."""
    parser = argparse.ArgumentParser(
        prog="survival-explain",
        description="Model-agnostic explanations, metrics, and diagnostics for survival models.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {TOOL_VERSION}")
    commands = parser.add_subparsers(dest="command", required=True)

    # the options every model command takes, declared once
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--data", required=True, help="CSV file with a header row")
    shared.add_argument("--time-col", required=True, help="name of the time column")
    shared.add_argument("--event-col", required=True, help="name of the 0/1 event column")
    shared.add_argument("--model", choices=tuple(MODEL_FITS), default="cox")
    shared.add_argument("--out", default=".", help="output directory (default: current)")
    # the commands that draw at random
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=42)
    # the commands that can draw a curve
    plotted = argparse.ArgumentParser(add_help=False)
    plotted.add_argument("--svg", action="store_true", help="also render the curves to SVG")
    # the commands that explain one data row
    one_row = argparse.ArgumentParser(add_help=False)
    one_row.add_argument("--row", type=int, default=0)
    # the commands that predict in a chosen output type
    typed = argparse.ArgumentParser(add_help=False)
    typed.add_argument("--output-type", choices=OUTPUT_TYPES, default="survival")
    # the commands that average over a background sample
    sampled = argparse.ArgumentParser(add_help=False)
    sampled.add_argument("--n-background", type=int, default=100)
    # the two SurvSHAP commands
    survshap = argparse.ArgumentParser(add_help=False)
    survshap.add_argument("--method", choices=("auto", "exact", "sampling"), default="auto")
    survshap.add_argument("--n-permutations", type=int, default=100)

    def model_command(name, help_text, *parents):
        return commands.add_parser(name, help=help_text, parents=[shared, *parents])

    model_command("fit", "fit a model and dump its parameters", plotted)
    model_command("predict", "prediction for one data row", one_row, typed, plotted)

    sub = model_command(
        "performance", "Brier score, cumulative/dynamic AUC, concordance index", plotted
    )
    sub.add_argument("--at-time", type=float, default=None, help="also compute a ROC curve at this time")

    sub = model_command("parts", "permutation variable importance", seeded, plotted)
    sub.add_argument("--loss", choices=LOSS_NAMES, default="brier_integrated")
    sub.add_argument("--n-permutations", type=int, default=10)
    sub.add_argument("--variable", action="append", help="restrict to this variable (repeatable)")
    sub.add_argument("--ratio", action="store_true", help="also report permuted/baseline ratios")

    sub = model_command("profile", "PDP or ALE profile of one variable", sampled, typed, plotted)
    sub.add_argument("--variable", required=True)
    sub.add_argument("--method", choices=("pdp", "ale"), default="pdp")
    sub.add_argument("--grid-size", type=int, default=None)

    sub = model_command("profile2d", "two-variable PDP surface", sampled, typed)
    sub.add_argument("--variables", nargs=2, required=True, metavar=("FIRST", "SECOND"))
    sub.add_argument("--grid-size", type=int, default=10)

    model_command("diagnostics", "Cox-Snell, martingale, and deviance residuals")
    model_command("shap", "SurvSHAP(t) attribution for one data row",
                  one_row, survshap, sampled, seeded, plotted)

    sub = model_command("lime", "SurvLIME surrogate coefficients for one data row", one_row, seeded)
    sub.add_argument("--n-neighbors", type=int, default=100)

    sub = model_command("ice", "individual conditional expectation curves for one data row",
                        one_row, typed, plotted)
    sub.add_argument("--variable", required=True)
    sub.add_argument("--grid-size", type=int, default=25)

    sub = model_command("survshap-global", "SurvSHAP(t) aggregated over many rows",
                        survshap, sampled, seeded, plotted)
    sub.add_argument("--max-rows", type=int, default=None)

    sub = commands.add_parser("plot", help="render a curve-bearing artifact JSON as SVG")
    sub.add_argument("--artifact", required=True, help="path to a JSON artifact")
    sub.add_argument("--out", default=".", help="output directory (default: current)")
    return parser, commands


def _warn(message):
    """One ``warning:`` line on stderr for a result that is not to be trusted;
    the command still succeeds."""
    print(f"warning: {message}", file=sys.stderr)


def _check_row(row, data):
    if not 0 <= row < data.n_observations:
        raise InputError(f"--row {row} out of range for {data.n_observations} data rows")
    return row


def _time_curves(explainer, labels, ys, y_label):
    """One series over the time grid per label, and the axis labels."""
    curves = [{"label": label, "x": explainer.grid.points, "y": y} for label, y in zip(labels, ys)]
    return curves, {"x_label": "time", "y_label": y_label}


def _profile_curves(grid, grid_values, values, output_type, label):
    """A risk profile as one series; otherwise one series per representative
    grid time (first, middle, last). Returns the series and axis labels."""
    if output_type == "risk":
        series = [{"label": label, "x": grid_values, "y": values}]
        return series, {"x_label": "variable value", "y_label": "risk"}
    picks = sorted({0, len(grid) // 2, len(grid) - 1})
    series = [
        {"label": f"t={grid.points[k]:g}", "x": grid_values, "y": values[:, k]}
        for k in picks
    ]
    return series, {"x_label": "variable value", "y_label": output_type}


def _fit_payload(model, data):
    """The ``fit`` result of each model kind: its parameters, and its curve."""
    if isinstance(model, KaplanMeierModel):
        curve = model.curve
        parameters = {"times": curve.times, "survival": curve.values}
        curves = [{"label": "survival", "x": curve.times, "y": curve.values}]
        meta = {"x_label": "time", "y_label": "survival probability"}
    elif isinstance(model, CoxModel):
        baseline = model.baseline_chf
        parameters = {
            "beta": model.beta,
            "feature_names": list(data.feature_names),
            "baseline_chf_times": baseline.times,
            "baseline_chf": baseline.values,
        }
        curves = [{"label": "baseline cumulative hazard", "x": baseline.times, "y": baseline.values}]
        meta = {"x_label": "time", "y_label": "cumulative hazard"}
    else:
        parameters = {
            "shape": model.shape,
            "intercept": model.intercept,
            "coefficients": model.coefficients,
            "feature_names": list(data.feature_names),
        }
        try:
            grid = default_time_grid(data)
        except InputError:
            curves, meta = None, None
        else:
            baseline = predict_survival_matrix(model, np.zeros((1, data.n_features)), grid)[0]
            curves = [{"label": "baseline survival", "x": grid.points, "y": baseline}]
            meta = {"x_label": "time", "y_label": "survival probability"}
    result = {"model": type(model).__name__, "converged": getattr(model, "converged", True),
              "parameters": parameters}
    return result, curves, meta


def _handle_predict(args, explainer, data):
    row = _check_row(args.row, data)
    values = explainer.predict(data.features[row], args.output_type)
    result = {"row": row, "output_type": args.output_type, "values": values}
    if args.output_type == "risk":
        return result, None, None
    return result, *_time_curves(explainer, [args.output_type], [values], args.output_type)


def _handle_performance(args, explainer, data):
    # one prediction feeds every metric, each scored as its public function scores it
    S = explainer.predict(data.features, "survival")
    risk = explainer.predict(data.features, "risk")
    brier = _brier_scorer(explainer.grid, data)(S)
    auc = _cd_auc_scorer(explainer.grid, data)(risk)
    cindex = _concordance_scorer(data)(risk)
    result = {
        "brier": {"values": brier.values, "integrated": brier.integrated},
        "cd_auc": {"values": auc.values, "integrated": auc.integrated},
        "concordance_index": cindex,
    }
    if args.at_time is not None:
        roc = _roc_scorer(explainer.grid, data, args.at_time)(S)
        result["roc"] = {
            "time": args.at_time,
            "fpr": roc.fpr,
            "tpr": roc.tpr,
            "thresholds": roc.thresholds,
            "auc": roc.trapezoid_auc(),
        }
    labels = ["Brier score", "cumulative/dynamic AUC"]
    return result, *_time_curves(explainer, labels, [brier.values, auc.values], "metric value")


def _handle_parts(args, explainer, data):
    importances = model_parts(
        explainer,
        loss=args.loss,
        n_permutations=args.n_permutations,
        seed=args.seed,
        variables=args.variable,
    )
    entries = []
    for item in importances:
        entry = {
            "variable": item.variable,
            "importance": item.importance,
            "permuted_loss": item.permuted_loss,
            "standard_error": item.standard_error,
        }
        if args.ratio:
            baseline = np.asarray(item.baseline_loss, dtype=float)
            permuted = np.asarray(item.permuted_loss, dtype=float)
            safe = np.where(baseline != 0, baseline, 1.0)
            ratio = np.where(baseline != 0, permuted / safe, np.nan)
            entry["ratio"] = float(ratio) if ratio.ndim == 0 else ratio
        entries.append(entry)
    result = {
        "loss": args.loss,
        "baseline_loss": importances[0].baseline_loss if importances else None,
        "n_permutations": args.n_permutations,
        "seed": args.seed,
        "variables": entries,
    }
    if args.loss != "brier_curve":
        return result, None, None
    labels = [item.variable for item in importances]
    increases = [item.importance for item in importances]
    return result, *_time_curves(explainer, labels, increases, "loss increase")


def _handle_profile(args, explainer, data):
    surface = model_profile(
        explainer,
        args.variable,
        method=args.method,
        grid_size=args.grid_size,
        n_background=args.n_background,
        output_type=args.output_type,
    )
    result = {
        "variable": args.variable,
        "method": args.method,
        "output_type": args.output_type,
        "grid_values": surface.grid_values[0],
        "values": surface.values,
    }
    label = f"{args.method} of {args.variable}"
    return result, *_profile_curves(
        explainer.grid, surface.grid_values[0], surface.values, args.output_type, label
    )


def _handle_profile2d(args, explainer, data):
    surface = model_profile_2d(
        explainer,
        tuple(args.variables),
        grid_size=args.grid_size,
        n_background=args.n_background,
        output_type=args.output_type,
    )
    result = {
        "variables": args.variables,
        "output_type": args.output_type,
        "grid_values": list(surface.grid_values),
        "values": surface.values,
    }
    return result, None, None


def _handle_diagnostics(args, explainer, data):
    residuals = model_diagnostics(explainer)
    result = {
        "cox_snell": residuals.cox_snell,
        "martingale": residuals.martingale,
        "deviance": residuals.deviance,
        "deviance_defined": residuals.deviance_defined,
        "times": explainer.background.times,
        "events": explainer.background.events,
    }
    return result, None, None


def _handle_shap(args, explainer, data):
    row = _check_row(args.row, data)
    shap = predict_parts_survshap(
        explainer,
        data.features[row],
        n_background=args.n_background,
        method=args.method,
        n_permutations=args.n_permutations,
        seed=args.seed,
    )
    result = {
        "row": row,
        "method": shap.method,
        "variables": list(data.feature_names),
        "phi": shap.phi,
        "baseline": shap.baseline,
        "aggregate": shap.aggregate,
        "n_samples": shap.n_samples,
        "seed": args.seed,
        "standard_error": shap.standard_error,
    }
    return result, *_time_curves(explainer, data.feature_names, shap.phi, "attribution")


def _handle_lime(args, explainer, data):
    row = _check_row(args.row, data)
    lime = predict_parts_survlime(
        explainer, data.features[row], n_neighbors=args.n_neighbors, seed=args.seed
    )
    result = {
        "row": row,
        "variables": list(data.feature_names),
        "surrogate_beta": lime.surrogate_beta,
        "kernel_width": lime.kernel_width,
        "fit_residual": lime.fit_residual,
        "degenerate": lime.degenerate,
        "neighborhood_size": args.n_neighbors,
    }
    if lime.degenerate:
        _warn("the SurvLIME surrogate is degenerate: its weighted design is rank-deficient, "
              "so its coefficients are a ridge fallback, not identified by the data")
    return result, None, None


def _handle_ice(args, explainer, data):
    row = _check_row(args.row, data)
    profile = predict_profile(
        explainer,
        data.features[row],
        args.variable,
        grid_size=args.grid_size,
        output_type=args.output_type,
    )
    result = {
        "row": row,
        "variable": args.variable,
        "output_type": args.output_type,
        "observed_value": profile.observed_value,
        "grid_values": profile.grid_values,
        "curves": profile.curves,
    }
    label = f"ice of {args.variable}"
    return result, *_profile_curves(
        explainer.grid, profile.grid_values, profile.curves, args.output_type, label
    )


def _handle_survshap_global(args, explainer, data):
    if args.max_rows is not None:
        _check_count("--max-rows", args.max_rows)
    X = data.features if args.max_rows is None else data.features[: args.max_rows]
    aggregate = model_survshap(
        explainer,
        X,
        n_background=args.n_background,
        method=args.method,
        n_permutations=args.n_permutations,
        seed=args.seed,
    )
    result = {
        "n_rows": X.shape[0],
        "variables": list(data.feature_names),
        "importance_ranking": aggregate.importance_ranking,
        "mean_abs_phi": aggregate.mean_abs_phi,
        "beeswarm": aggregate.beeswarm_data,
        "seed": args.seed,
    }
    mean_abs_phi = aggregate.mean_abs_phi
    return result, *_time_curves(explainer, data.feature_names, mean_abs_phi, "mean |attribution|")


_HANDLERS = {
    "predict": _handle_predict,
    "performance": _handle_performance,
    "parts": _handle_parts,
    "profile": _handle_profile,
    "profile2d": _handle_profile2d,
    "diagnostics": _handle_diagnostics,
    "shap": _handle_shap,
    "lime": _handle_lime,
    "ice": _handle_ice,
    "survshap-global": _handle_survshap_global,
}


def _config_echo(args) -> dict:
    return {key: value for key, value in vars(args).items() if key != "command"}


def _svg_document(envelope, source: str) -> str:
    """Render an envelope's curves; ``source`` opens the error when it has
    none, or when they or its axis labels are not what the renderer reads."""
    curves = envelope.get("curves") if isinstance(envelope, dict) else None
    if not curves:
        raise InputError(f"{source} no curve data; plottable commands: {PLOTTABLE}")
    meta = envelope.get("plot") or {}
    series = curves if isinstance(curves, list) else [None]
    pairs = [(s.get("x", []), s.get("y", [])) if isinstance(s, dict) else (None, None)
             for s in series]
    # type, not isinstance: JSON true and false load as bool, an int subclass
    if not isinstance(meta, dict) or not all(
            isinstance(xs, list) and isinstance(ys, list) and len(xs) == len(ys) and all(
                v is None or type(v) in (int, float) and abs(v) <= sys.float_info.max
                for v in xs + ys) for xs, ys in pairs):
        raise InputError(f"{source} malformed curve data: series need x and y lists of finite "
                         "numbers of equal length, and the plot labels an object")
    return render_line_chart(
        curves,
        title=envelope.get("command", ""),
        x_label=meta.get("x_label", "time"),
        y_label=meta.get("y_label", "value"),
    )


def _write_output(path, content) -> None:
    """Write an envelope or an SVG document to ``path``; ``InputError`` on ``OSError``."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(content, dict):
            write_artifact(path, content)
        else:
            path.write_text(content, encoding="utf-8")
    except OSError as error:
        raise InputError(f"cannot write {error.filename or path}: {error.strerror or error}") from error


def run(args) -> None:
    # the output directory is made only once every check has passed, so a
    # refused command leaves nothing behind
    out_dir = Path(args.out)
    if args.command == "plot":
        document = _svg_document(read_artifact(args.artifact), f"artifact {args.artifact} has")
        _write_output(out_dir / (Path(args.artifact).stem + ".svg"), document)
        return

    data = ingest_csv(args.data, args.time_col, args.event_col)
    model = MODEL_FITS[args.model](data)
    if not getattr(model, "converged", True):
        _warn(f"the {args.model} fit did not converge, so its estimates and every result "
              "drawn from them are not to be trusted")
    if args.command == "fit":
        grid = None
        result, curves, meta = _fit_payload(model, data)
    else:
        explainer = explain(model, data)
        grid = explainer.grid.points
        result, curves, meta = _HANDLERS[args.command](args, explainer, data)

    envelope = build_envelope(args.command, _config_echo(args), result, grid=grid, curves=curves,
                              plot=meta)
    # render first, so a refused --svg leaves no artifact behind
    document = None
    if getattr(args, "svg", False):
        document = _svg_document(envelope, f"command {args.command!r} produced")
    _write_output(out_dir / f"{args.command}.json", envelope)
    if document is not None:
        _write_output(out_dir / f"{args.command}.svg", document)


def main(argv=None) -> int:
    parser, commands = build_parser()
    args, unknown = parser.parse_known_args(argv)
    if unknown:
        # reported by the command's own parser, so its usage line shows what it takes
        commands.choices[args.command].error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        run(args)
    except InputError as error:
        print(f"error: {' '.join(str(error).split())}", file=sys.stderr)
        return 2
    except NumericError as error:
        print(f"error: {' '.join(str(error).split())}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
