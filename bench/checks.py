"""Output checks: each compares a program output with an oracle or a property.

Every check raises :class:`CheckFailure` with a one-line reason. Checks run
outside the timed region, on the outputs of the untimed warm-up pass; the
timed passes are then required to reproduce those outputs exactly.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

import numpy as np

import oracles

# Library predictions and these oracles compute the same closed forms in a
# different order, so they agree to rounding; sums over thousands of rows or
# 2^p coalitions lose a few more digits than a single prediction.
RTOL = 1e-9
ATOL = 1e-10
# Chance that a correct permutation sampler fails the Monte-Carlo check.
MC_FAILURE_PROBABILITY = 1e-6


class CheckFailure(AssertionError):
    pass


def _array(value):
    """Float array of a JSON value; null (an undefined point) becomes NaN."""
    if isinstance(value, list):
        value = np.asarray(value, dtype=object)
        value = np.where(value == None, np.nan, value)  # noqa: E711
    return np.asarray(value, dtype=float)


def close(what, got, want, rtol=RTOL, atol=ATOL):
    """Elementwise |got - want| <= atol + rtol |want|, NaN only where NaN."""
    got = _array(got)
    want = _array(want)
    if got.shape != want.shape:
        raise CheckFailure(f"{what}: shape {got.shape}, expected {want.shape}")
    if not np.array_equal(np.isnan(got), np.isnan(want)):
        raise CheckFailure(f"{what}: undefined points differ from the oracle")
    ok = ~np.isnan(want)
    gap = np.abs(got[ok] - want[ok])
    limit = atol + rtol * np.abs(want[ok])
    if np.any(gap > limit):
        k = int(np.argmax(gap - limit))
        raise CheckFailure(
            f"{what}: off by {gap[k]:.3g} (got {got[ok][k]!r}, oracle {want[ok][k]!r})"
        )


def equal(what, got, want):
    if got != want:
        raise CheckFailure(f"{what}: got {got!r}, expected {want!r}")


def require(what, condition):
    if not condition:
        raise CheckFailure(what)


# -- models ----------------------------------------------------------------------

def cox_fit(parameters, converged, times, events, X):
    """The Breslow score at the reported beta is ~0, and the baseline CHF is
    the Breslow estimator at that beta."""
    require("Cox fit reports converged", converged is True)
    beta = _array(parameters["beta"])
    score, _, event_times, h0 = oracles.cox_breslow(times, events, X, beta)
    # the fit stops at |score| < 1e-9 or a step < 1e-9, so allow a small multiple
    scale = events.sum() * X.std(axis=0)
    close("Cox score at fitted beta", score / np.maximum(scale, 1e-300), np.zeros_like(score),
          atol=1e-8)
    close("Breslow baseline times", parameters["baseline_chf_times"], event_times, rtol=0, atol=0)
    close("Breslow baseline CHF", parameters["baseline_chf"], h0)


# -- metrics ---------------------------------------------------------------------

def brier(values, integrated, times, events, S, grid):
    want, _, want_integrated = oracles.brier(times, events, S, grid)
    close("Brier score", values, want)
    close("integrated Brier score", integrated, want_integrated)


def cd_auc(values, integrated, times, events, risk, grid):
    want, _, want_integrated = oracles.cd_auc(times, events, risk, grid)
    close("cumulative/dynamic AUC", values, want)
    close("integrated cumulative/dynamic AUC", integrated, want_integrated)


def concordance(value, times, events, risk):
    close("Harrell's C", value, oracles.harrell_c(times, events, risk))


def roc(result, times, events, score):
    """Sweep from (1, 1) to (0, 0), monotone, and its trapezoid area equals
    the Mann-Whitney statistic of the positives against the negatives."""
    t = result["time"]
    fpr, tpr = _array(result["fpr"]), _array(result["tpr"])
    require("ROC starts at (1, 1)", fpr[0] == 1.0 and tpr[0] == 1.0)
    require("ROC ends at (0, 0)", fpr[-1] == 0.0 and tpr[-1] == 0.0)
    require("ROC is monotone", np.all(np.diff(fpr) <= 0) and np.all(np.diff(tpr) <= 0))
    positives = (events == 1) & (times <= t)
    negatives = times > t
    want = oracles.mann_whitney_auc(score[positives], score[negatives])
    close("ROC area", result["auc"], want)
    close("ROC area from the reported sweep", -np.trapezoid(tpr, fpr), want)


def km_performance(result):
    """A featureless model ranks nobody: every pair is a tie worth one half."""
    equal("Kaplan-Meier concordance", result["concordance_index"], 0.5)
    values = [v for v in result["cd_auc"]["values"] if v is not None]
    require("Kaplan-Meier cd-AUC has defined points", len(values) > 0)
    # 0.5 up to the rounding of two different n^2-term sums
    close("Kaplan-Meier cd-AUC", values, np.full(len(values), 0.5), rtol=0, atol=1e-12)
    close("Kaplan-Meier integrated cd-AUC", result["cd_auc"]["integrated"], 0.5, rtol=0, atol=1e-12)


def parts(result, loss_of, X, names, seed):
    """Baseline, per-repetition permuted losses rebuilt from the documented
    seed split, and importance = permuted - baseline."""
    baseline = loss_of(X)
    close("permutation baseline loss", result["baseline_loss"], baseline)
    for entry in result["variables"]:
        j = names.index(entry["variable"])
        permuted = []
        for rep in range(result["n_permutations"]):
            shuffled = X.copy()
            shuffled[:, j] = X[oracles.column_permutation(seed, j, rep, len(X)), j]
            permuted.append(loss_of(shuffled))
        importance = np.mean(np.asarray(permuted) - baseline, axis=0)
        close(f"importance of {entry['variable']}", entry["importance"], importance)
        close(f"permuted loss of {entry['variable']}", entry["permuted_loss"], baseline + importance)


# -- profiles ---------------------------------------------------------------------

def pdp(values, grid_values, predict, sample, j):
    for g, z in enumerate(grid_values):
        modified = sample.copy()
        modified[:, j] = z
        close(f"PDP at {z:g}", values[g], predict(modified).mean(axis=0))


def pdp_2d(values, grid1, grid2, predict, sample, j1, j2):
    for a, z1 in enumerate(grid1):
        for b, z2 in enumerate(grid2):
            modified = sample.copy()
            modified[:, j1] = z1
            modified[:, j2] = z2
            close(f"2-D PDP at ({z1:g}, {z2:g})", values[a][b], predict(modified).mean(axis=0))


def ale_centered(values):
    """ALE has zero mean over its grid points at every time."""
    close("ALE mean over grid points", np.mean(_array(values), axis=0),
          np.zeros(np.shape(values)[1:]), rtol=0, atol=1e-12)


def ale(values, edges, predict, sample, j):
    """Accumulated mean differences across quantile bins, then centered."""
    ale_centered(values)
    assignment = np.clip(np.searchsorted(edges, sample[:, j], side="left"), 1, len(edges) - 1)
    effects = [np.zeros(np.shape(values)[1:])]
    for k in range(1, len(edges)):
        members = sample[assignment == k]
        if len(members) == 0:
            effects.append(np.zeros_like(effects[0]))
            continue
        upper, lower = members.copy(), members.copy()
        upper[:, j], lower[:, j] = edges[k], edges[k - 1]
        effects.append((predict(upper) - predict(lower)).mean(axis=0))
    accumulated = np.cumsum(effects, axis=0)
    close("ALE", values, accumulated - accumulated.mean(axis=0))


def pdp_is_mean_ice(pdp_values, ice_curves):
    """A PDP is the mean of the ICE curves of its background rows on its grid."""
    close("PDP against the mean of ICE curves", pdp_values, np.mean(ice_curves, axis=0),
          rtol=0, atol=1e-12)


def ice(curves, grid_values, x, j, predict, own_prediction):
    """Every ICE row matches the model; the row at x_j is x's own prediction."""
    batch = np.repeat(x[None, :], len(grid_values), axis=0)
    batch[:, j] = grid_values
    close("ICE curves", curves, predict(batch))
    at = np.flatnonzero(_array(grid_values) == x[j])
    require("ICE grid holds the observed value", len(at) == 1)
    close("ICE row at the observed value", _array(curves)[at[0]], own_prediction, rtol=0, atol=0)


# -- attributions -----------------------------------------------------------------

def efficiency(what, phi, prediction, baseline):
    """Shapley efficiency: sum over variables of phi(t) = f(x)(t) - v(empty)(t)."""
    close(f"{what} efficiency", _array(phi).sum(axis=0), _array(prediction) - _array(baseline))


def shap_exact(phi, baseline, v, prediction):
    close("SurvSHAP baseline", baseline, v[0])
    close("exact SurvSHAP", phi, oracles.shapley_exact(v))
    efficiency("exact SurvSHAP", phi, prediction, baseline)


def shap_sampled(phi, baseline, v, prediction, orders):
    """Sampled phi equals the telescoping estimate along the documented
    draws, and lies within a Monte-Carlo tolerance of the exact phi.

    The tolerance is Bernstein's inequality for a mean of independent draws,
    with the exact variance and range of one order's contribution, at a
    failure chance of MC_FAILURE_PROBABILITY over all (variable, time) cells.
    """
    close("sampled SurvSHAP", phi, oracles.shapley_sampled(v, orders))
    efficiency("sampled SurvSHAP", phi, prediction, baseline)
    sigma, largest = oracles.marginal_spread(v)
    n = len(orders)
    log_term = np.log(2.0 * sigma.size / MC_FAILURE_PROBABILITY)
    tolerance = (log_term * largest / 3.0
                 + np.sqrt((log_term * largest / 3.0) ** 2 + 2.0 * n * log_term * sigma**2)) / n
    gap = np.abs(_array(phi) - oracles.shapley_exact(v))
    limit = tolerance + 1e-12
    if np.any(gap > limit):
        k = np.unravel_index(np.argmax(gap - limit), gap.shape)
        raise CheckFailure(
            f"sampled SurvSHAP is {gap[k]:.3g} from exact at {k}, beyond the "
            f"Monte-Carlo tolerance {tolerance[k]:.3g}"
        )


def survlime(beta, kernel_width, oracle_beta, sigma, clipped, true_beta):
    """Surrogate equals the weighted least-squares oracle; when no neighbor
    prediction hits the survival floor, a proportional-hazards black box is
    recovered exactly."""
    close("SurvLIME kernel width", kernel_width, sigma)
    close("SurvLIME surrogate", beta, oracle_beta, rtol=1e-6, atol=1e-7)
    if not clipped:
        close("SurvLIME recovers the proportional-hazards coefficients", beta, true_beta,
              rtol=1e-6, atol=1e-7)


# -- diagnostics and artifacts -------------------------------------------------------

def diagnostics(result, times, events, chf, grid):
    """Cox-Snell residuals are the CHF at the last grid point <= t_i;
    martingale = event - Cox-Snell; deviance = sign(m) sqrt(-2 (m + d log(d - m)))."""
    idx = np.searchsorted(grid, times, side="right") - 1
    cox_snell = np.where(idx >= 0, chf[np.arange(len(times)), np.maximum(idx, 0)], 0.0)
    close("Cox-Snell residuals", result["cox_snell"], cox_snell)
    m = _array(result["martingale"])
    d = np.asarray(result["events"], dtype=float)
    close("martingale = event - Cox-Snell", m, d - _array(result["cox_snell"]), rtol=0, atol=0)
    defined = np.asarray(result["deviance_defined"], dtype=bool)
    require("deviance undefined only for events with zero hazard",
            np.array_equal(~defined, (d == 1) & (_array(result["cox_snell"]) == 0)))
    dev = _array(result["deviance"])[defined]
    md, dd = m[defined], d[defined]
    with np.errstate(divide="ignore", invalid="ignore"):
        log_term = np.where(dd == 1, np.log(dd - md), 0.0)
    close("squared deviance", dev**2, np.maximum(-2.0 * (md + dd * log_term), 0.0),
          rtol=1e-9, atol=1e-12)
    require("deviance carries the martingale's sign",
            np.all(np.sign(dev) == np.sign(md)))


def svg(text, curves):
    """Well-formed SVG with one polyline per curve, one vertex per defined point."""
    try:
        root = ET.fromstring(text.encode("utf-8"))
    except ET.ParseError as error:
        raise CheckFailure(f"SVG does not parse: {error}") from None
    lines = root.findall("{http://www.w3.org/2000/svg}polyline")
    plotted = [c for c in curves if any(y is not None for y in c["y"])]
    equal("SVG polyline count", len(lines), len(plotted))
    for line, curve in zip(lines, plotted):
        points = line.get("points").split()
        equal(f"SVG vertices of {curve['label']!r}", len(points), sum(y is not None for y in curve["y"]))


def survshap_global(result, X, phis, grid):
    """Ensemble aggregates are means of the per-row exact attributions."""
    close("mean |phi|", result["mean_abs_phi"], np.abs(phis).mean(axis=0))
    close("importance ranking", result["importance_ranking"],
          oracles.span_mean(np.abs(phis), grid).mean(axis=0))
    beeswarm = _array(result["beeswarm"])
    close("bee swarm feature values", beeswarm[..., 0], X, rtol=0, atol=0)
    close("bee swarm signed integrals", beeswarm[..., 1], oracles.span_mean(phis, grid))


def finite_survival(what, S):
    S = _array(S)
    require(f"{what}: finite", np.all(np.isfinite(S)))
    require(f"{what}: within [0, 1]", S.min() >= 0.0 and S.max() <= 1.0)
    require(f"{what}: nonincreasing in time", np.all(np.diff(S, axis=-1) <= 1e-12))
