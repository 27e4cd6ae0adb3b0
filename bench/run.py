"""soft-irl benchmark.

    python3 bench/run.py --workload {rates,fit_large,geometry} --seed N --seconds S --trace {0,1}

runs one workload in this process and prints, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Without ``--workload`` it runs every workload, each in a
process of its own, and prints one line per workload.  Results and spans are
also written under ``bench/out/``.  See ``bench/README.md``.
"""

import os
import time

# Before numpy loads: one BLAS thread, so the timings do not depend on how
# OpenBLAS splits work between the cores other processes are using.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOAD_NAMES = ("rates", "fit_large", "geometry")
SETUP_REPEATS = 3

PER_LAYER = {
    "cli.cmd_rates.self_s": ("cli.cmd_rates", "self_s", "s"),
    "mdp.sample_trajectories.calls": ("mdp.sample_trajectories", "calls", "count"),
    "mdp.sample_trajectories.busy_s": ("mdp.sample_trajectories", "busy_s", "s"),
    "mdp.trajectories_sampled": ("mdp.sample_trajectories", "rows", "count"),
    "mdp.empirical_feature_expectation.calls": ("mdp.empirical_feature_expectation", "calls", "count"),
    "mdp.empirical_feature_expectation.busy_s": ("mdp.empirical_feature_expectation", "busy_s", "s"),
    "mdp.batch_trajectory_probs.calls": ("mdp.batch_trajectory_probs", "calls", "count"),
    "mdp.batch_trajectory_probs.busy_s": ("mdp.batch_trajectory_probs", "busy_s", "s"),
    "mdp.batch_trajectory_probs.rows": ("mdp.batch_trajectory_probs", "rows", "count"),
    "mdp.enumerate_support.calls": ("mdp.enumerate_support", "calls", "count"),
    "mdp.enumerate_support.busy_s": ("mdp.enumerate_support", "busy_s", "s"),
    "mdp.enumerate_support.rows": ("mdp.enumerate_support", "rows", "count"),
    "mdp.forward_occupancy.calls": ("mdp.forward_occupancy", "calls", "count"),
    "mdp.forward_occupancy.busy_s": ("mdp.forward_occupancy", "busy_s", "s"),
    "soft_dp.soft_backward.calls": ("soft_dp.soft_backward", "calls", "count"),
    "soft_dp.soft_backward.busy_s": ("soft_dp.soft_backward", "busy_s", "s"),
    "soft_dp.soft_backward.self_s": ("soft_dp.soft_backward", "self_s", "s"),
    "soft_dp.feature_values.calls": ("soft_dp.feature_values", "calls", "count"),
    "soft_dp.feature_values.busy_s": ("soft_dp.feature_values", "busy_s", "s"),
    "soft_dp.trajectory_kl.busy_s": ("soft_dp.trajectory_kl", "busy_s", "s"),
    "soft_dp.trajectory_hellinger.busy_s": ("soft_dp.trajectory_hellinger", "busy_s", "s"),
    "linear_reward.derivative_bundle.calls": ("linear_reward.derivative_bundle", "calls", "count"),
    "linear_reward.derivative_bundle.busy_s": ("linear_reward.derivative_bundle", "busy_s", "s"),
    "linear_reward.derivative_bundle.self_s": ("linear_reward.derivative_bundle", "self_s", "s"),
    "linear_reward.max_score_norm.calls": ("linear_reward.max_score_norm", "calls", "count"),
    "linear_reward.max_score_norm.busy_s": ("linear_reward.max_score_norm", "busy_s", "s"),
    "linear_reward.max_score_norm.self_s": ("linear_reward.max_score_norm", "self_s", "s"),
    "linear_reward.thetas_scored": ("linear_reward.max_score_norm", "thetas", "count"),
    "linear_reward.batch_scores.busy_s": ("linear_reward.batch_scores", "busy_s", "s"),
    "opt.fit_empirical.calls": ("opt.fit_empirical", "calls", "count"),
    "opt.fit_empirical.busy_s": ("opt.fit_empirical", "busy_s", "s"),
    "opt.newton_iterations": ("opt.fit_empirical", "iterations", "count"),
    "opt.loss_evals": ("opt", "loss_evals", "count"),
    "opt.backtracks": ("opt", "backtracks", "count"),
    "opt.ridge_activations": ("opt.fit_empirical", "ridge", "count"),
    "opt.fits_max_iters": ("opt", "fits_max_iters", "count"),
    "opt.fits_stalled": ("opt", "fits_stalled", "count"),
    "opt.not_converged_busy_s": ("opt", "not_converged_busy_s", "s"),
    "experiments.generate_instance.busy_s": ("experiments.generate_instance", "busy_s", "s"),
    "experiments.run_rate_experiment.busy_s": ("experiments.run_rate_experiment", "busy_s", "s"),
    "experiments.dikin_boundary_pair.busy_s": ("experiments.dikin_boundary_pair", "busy_s", "s"),
    "experiments.check_local_geometry.busy_s": ("experiments.check_local_geometry", "busy_s", "s"),
    "io.dump_json.busy_s": ("io.dump_json", "busy_s", "s"),
    "io.rate_report_to_dict.busy_s": ("io.rate_report_to_dict", "busy_s", "s"),
    "io.rate_report_to_csv.busy_s": ("io.rate_report_to_csv", "busy_s", "s"),
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="soft-irl benchmark")
    parser.add_argument(
        "--workload", choices=WORKLOAD_NAMES, help="run one workload (default: all, one process each)"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=10.0, help="measure whole passes for about this long"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import soft_irl from this checkout's ``src`` (and numpy with it); exit with an error if absent."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import soft_irl
        import workloads
    except ImportError as exc:
        sys.exit(f"bench: cannot import soft_irl from {src}: {exc}")
    if not Path(soft_irl.__file__).resolve().is_relative_to(src):
        sys.exit(f"bench: soft_irl resolved outside {src}: {soft_irl.__file__}")
    return workloads


def environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_num_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def run_pass(operations):
    """Run every operation once; return (seconds of each timed call, outcomes)."""
    times = []
    outcomes = []
    for run, check in operations:
        start = time.perf_counter()
        result = run()
        times.append(time.perf_counter() - start)
        outcomes.append(check(result))
    return times, outcomes


def per_layer_metrics(stats, passes, overhead_s):
    metrics = {}
    for metric, (span, key, unit) in PER_LAYER.items():
        metrics[metric] = {"value": stats.get(span, {}).get(key, 0.0) / passes, "unit": unit}
    backward = stats.get("soft_dp.soft_backward", {})
    sampled = stats.get("mdp.sample_trajectories", {})
    metrics["soft_dp.soft_backward.us_per_call"] = {
        "value": 1e6 * backward.get("busy_s", 0.0) / max(backward.get("calls", 0.0), 1.0),
        "unit": "us",
    }
    metrics["mdp.trajectories_per_s"] = {
        "value": sampled.get("rows", 0.0) / sampled["busy_s"] if sampled.get("busy_s") else 0.0,
        "unit": "1/s",
    }
    metrics["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
    return metrics


def import_seconds():
    """Wall time of a fresh interpreter that imports the workloads (and so numpy,
    scipy and soft_irl), median of ``SETUP_REPEATS``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH)]))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import workloads"], env=env, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_workload(args):
    workloads = import_program()
    imports_s = import_seconds()
    from tracer import Tracer

    OUT.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, OUT)
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
    operations = workload.operations()
    gc.collect()  # so no collection of set-up garbage lands in a timed call

    tracer = Tracer() if args.trace else None
    passes, op_times = [], []
    attempted = failed = 0
    correct = True
    began = time.perf_counter()
    while True:
        if tracer:
            tracer.install()
        try:
            times, outcomes = run_pass(operations)
        finally:
            if tracer:
                tracer.uninstall()
        passes.append(sum(times))
        op_times.append(times)
        attempted += len(outcomes)
        failed += sum(1 for reported, verified in outcomes if not (reported and verified))
        correct &= all(verified for reported, verified in outcomes if reported)
        used = time.perf_counter() - began
        if used + used / len(passes) > args.seconds:
            break

    if tracer:
        overhead_s = tracer.call_cost() * len(tracer.spans) / len(passes)
        metrics = per_layer_metrics(tracer.summary(), len(passes), overhead_s)
        tracer.dump(OUT / f"{args.workload}.spans.jsonl")
    else:
        metrics = {
            "setup_s": {"value": imports_s + statistics.median(setups), "unit": "s"},
            "pass_s": {"value": statistics.median(passes), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "imports_s": imports_s,
        "setup_repeats_s": setups,
        "passes_s": passes,
        "operation_s": op_times,
        "failed_fits": getattr(workload, "failed_fits", []),
        "result": result,
    }
    suffix = ".traced" if args.trace else ""
    (OUT / f"{args.workload}{suffix}.result.json").write_text(json.dumps(record, indent=1) + "\n")
    print("environment " + json.dumps(record["environment"]))
    print(json.dumps(result))
    return 0


def run_all(args):
    """One process per workload, in turn; print each one's metrics."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        shown = "  ".join(f"{k}={m['value']:.6g} {m['unit']}" for k, m in result["metrics"].items())
        counts = f"correct={result['correct']} attempted={result['attempted']} failed={result['failed']}"
        print(f"{name}: {counts}  {shown}")
        status |= 0 if result["correct"] else 1
    return status


def main(argv=None):
    args = parse_args(argv)
    return run_workload(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
