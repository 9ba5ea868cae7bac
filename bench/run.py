"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload cli-cohort --seed 1 --seconds 54 --trace 0

Run from the repository root; the package is imported from ``src/`` of the
same checkout, never from an installed copy. One run: time the import in
fresh interpreters and set up the inputs, several times each (``setup_s`` is
the sum of the two medians); run one untimed warm-up pass whose outputs are
checked against the oracles; then run timed passes of the same jobs until
``--seconds`` have passed, each required to reproduce the warm-up outputs
byte for byte (``wall_s`` sums each job's fastest time over the passes).
With ``--trace 1`` untraced and traced passes alternate, the per-layer
totals of the fastest traced pass are reported, and they are written with
the tracing overhead to ``.bench_out/``. The last line of standard output
is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("cli-cohort", "explain")
SETUP_REPEATS = 5
MIN_TIMED_PASSES = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cap_blas_threads():
    """One process per workload, its BLAS pool no wider than the CPUs it may use."""
    cpus = str(len(os.sched_getaffinity(0)))
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(variable, cpus)


def import_package():
    """Import the package from this checkout, for the workload's own use."""
    # compile the sources afresh, as every fresh interpreter below does, and
    # write nothing into src/
    sys.dont_write_bytecode = True
    if not (SOURCE / "survival_explain" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SOURCE / 'survival_explain'}")
    sys.path.insert(0, str(SOURCE))
    import survival_explain
    if Path(survival_explain.__file__).resolve().parent != SOURCE / "survival_explain":
        sys.exit(f"error: imported survival_explain from {survival_explain.__file__}, not {SOURCE}")
    return survival_explain


def import_seconds():
    """Median time to import numpy and the package in a fresh interpreter.

    The first interpreter of a run may read every file from disk and the
    later ones find them in the page cache, so the median over several is
    what a user importing the package again pays, whatever the host did to
    the cache between runs. Each interpreter is waited for.
    """
    probe = ("import time; start = time.perf_counter(); import survival_explain; "
             "print(time.perf_counter() - start)")
    env = dict(os.environ, PYTHONPATH=str(SOURCE))
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-B", "-c", probe], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(done.stdout))
    return statistics.median(samples)


def run_pass(jobs, tracer=None):
    """Run every job once; returns (outputs by label, failed labels, seconds by label)."""
    outputs, failed, seconds = {}, [], {}
    for label, command, call in jobs:
        job_start = time.perf_counter()
        try:
            outputs[label] = call()
        except Exception as error:  # a failing job is counted, the pass goes on
            failed.append((label, f"{type(error).__name__}: {error}"))
        seconds[label] = time.perf_counter() - job_start
        if tracer is not None and command is not None:
            tracer.add(f"cli.{command}_s", seconds[label])
    return outputs, failed, seconds


def fastest_jobs_sum(passes):
    """Sum over the jobs of each job's fastest time across the passes."""
    return sum(min(seconds[label] for seconds in passes) for label in passes[0])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def main(argv=None) -> int:
    args = parse_args(argv)
    cap_blas_threads()
    package = import_package()
    import_s = import_seconds()
    import layer_trace
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    tracer = layer_trace.LayerTracer(package) if args.trace else None
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup(args.seed, workdir)
            setup_times.append(time.perf_counter() - start)
        setup_s = import_s + statistics.median(setup_times)
        jobs = workload.jobs()

        problems = []
        failures = {}

        def one_pass(traced):
            workload.clear()
            if traced:
                tracer.reset()
                tracer.install()
                workload.set_tracer(tracer)
            try:
                outputs, failed, seconds = run_pass(jobs, tracer if traced else None)
            finally:
                if traced:
                    workload.set_tracer(None)
                    tracer.uninstall()
            failures.update(failed)
            return outputs, len(failed), seconds

        warm_outputs, failed, _ = one_pass(False)
        reference = workload.snapshot(warm_outputs)
        attempted = len(jobs)
        passes, traced_passes, layer_samples = [], [], []
        deadline = time.perf_counter() + args.seconds
        order = 0
        while time.perf_counter() < deadline or len(passes) < MIN_TIMED_PASSES:
            # traced and untraced passes alternate which goes first
            kinds = [False] if not args.trace else ([False, True] if order % 2 == 0 else [True, False])
            order += 1
            for traced in kinds:
                outputs, n_failed, seconds = one_pass(traced)
                attempted += len(jobs)
                failed += n_failed
                (traced_passes if traced else passes).append(seconds)
                if traced:
                    layer_samples.append(dict(tracer.totals))
                snapshot = workload.snapshot(outputs)
                for name in sorted(set(reference) | set(snapshot)):
                    if reference.get(name) != snapshot.get(name):
                        problems.append(f"{name}: a timed pass did not reproduce the warm-up output")
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        problems = sorted(set(problems)) + workload.check(warm_outputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for label, reason in sorted(failures.items()):
        print(f"failed: {label}: {reason}", file=sys.stderr)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    # each job's fastest time, summed: the host switches between fast and
    # slow phases, a slow one only adds time, and a job of at most about a
    # second falls inside a fast phase in some pass far more often than a
    # whole pass of several seconds does
    wall_s = fastest_jobs_sum(passes)
    walls = [sum(seconds.values()) for seconds in passes]
    q1, q3 = quartiles(walls)
    print(f"workload {args.workload}, seed {args.seed}: {len(jobs)} jobs per pass, "
          f"{len(passes)} timed passes, {attempted} jobs attempted, {failed} failed, "
          f"{len(problems)} check failures")
    if not args.trace:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        print(f"  setup_s     {setup_s:10.4f} s   median import {import_s:.4f} s + median of "
              f"{SETUP_REPEATS} set-ups")
        print(f"  wall_s      {wall_s:10.4f} s   sum of each job's fastest of {len(passes)} "
              f"passes; whole passes: fastest {min(walls):.4f}, median "
              f"{statistics.median(walls):.4f}, quartiles {q1:.4f}-{q3:.4f}")
        print(f"  peak_rss_mb {peak_rss_mb:10.1f} MB")
        print("  pass walls  " + " ".join(f"{wall:.3f}" for wall in walls))
        print("  job fastest " + " ".join(
            f"{label}={min(seconds[label] for seconds in passes):.4f}" for label in passes[0]))
    else:
        traced_walls = [sum(seconds.values()) for seconds in traced_passes]
        layers = layer_samples[traced_walls.index(min(traced_walls))]
        traced_wall = fastest_jobs_sum(traced_passes)
        overhead = traced_wall - wall_s
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in layer_trace.LAYER_METRICS}
        metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        for name, entry in metrics.items():
            print(f"  {name:40s} {entry['value']:14.6g} {entry['unit']}")
        print(f"  untraced wall {wall_s:.4f} s, traced {traced_wall:.4f} s, "
              f"overhead {overhead:+.4f} s ({100.0 * overhead / wall_s:+.1f}%) "
              f"over {len(traced_passes)} pairs of passes")
        OUT_DIR.mkdir(exist_ok=True)
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "pairs_of_passes": len(traced_passes),
            "untraced_wall_s": wall_s,
            "traced_wall_s": traced_wall,
            "overhead_s": overhead,
            "overhead_pct": 100.0 * overhead / wall_s,
            "layers": metrics,
        }
        target = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        target.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
