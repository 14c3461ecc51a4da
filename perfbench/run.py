"""phaselab's benchmark: one workload, end-to-end metrics or a traced per-layer run.

    python3 perfbench/run.py --workload pgd_sparse --seed 1 --seconds 50 --trace 0

With `--trace 0` it times set-up in fresh processes, three of which then run
checked passes of the workload for a third of `--seconds` each, and reports
the end-to-end metrics.  With `--trace 1` it runs a fixed number of passes
twice each, untraced and traced on the same inputs, and reports the
per-layer metrics and the tracing overhead.  The last line of stdout is a
JSON object
`{"correct", "attempted", "failed", "metrics"}`; a results file with the
machine context goes to perfbench/out/.  The exit code is 1 if any check
failed and 2 if the phaselab source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from source import ROOT, add_source_path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_SAMPLES = 9
PROCESSES = 3

# name -> unit, for --trace 0
END_TO_END = {"work_per_s": "items/s", "setup_s": "s", "peak_rss_mb": "MB"}

# name -> unit, for --trace 1
PER_LAYER = {
    "erm.objective.calls": "count",
    "erm.objective.busy_s": "s",
    "erm.gradient.calls": "count",
    "erm.gradient.busy_s": "s",
    "erm.matvec_flops": "flop.computed",
    "erm.solve_pgd.iterations": "count",
    "erm.solve_pgd.ms_p50": "ms",
    "erm.solve_pgd.ms_tail": "ms",
    "erm.solve_pgd.converged_frac": "ratio",
    "erm.solve_oracle.ms_p50": "ms",
    "erm.solve_oracle.ms_tail": "ms",
    "erm.solve_oracle.iterations": "count",
    "erm.spectral_init.busy_s": "s",
    "erm.busy_frac": "ratio",
    "sets.project.calls": "count",
    "sets.project.busy_s": "s",
    "sets.fixed_point.calls": "count",
    "sets.fixed_point.busy_s": "s",
    "sets.l1_cap_width.ms": "ms",
    "sets.l1_cap_width.bytes": "byte.computed",
    "sets.packing_count.calls": "count",
    "sets.packing_count.busy_s": "s",
    "ensembles.generate_sample.calls": "count",
    "ensembles.generate_sample.busy_s": "s",
    "ensembles.generate_sample.bytes": "byte",
    "harness.run_experiment.self_s": "s",
    "harness.export_results.busy_s": "s",
    "harness.export_results.bytes": "byte",
    "harness.load_results.busy_s": "s",
    "harness.parallel_eff": "ratio",
    "empirics.psi_alpha_norm.busy_s": "s",
    "empirics.norm_equivalence_violations.busy_s": "s",
    "cli.self_s": "s",
    "ensembles.self_s": "s",
    "erm.self_s": "s",
    "sets.self_s": "s",
    "harness.self_s": "s",
    "empirics.self_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                     "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "PHASELAB_THREADS")


def machine_context():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": None, "version": None}
    commit = None
    try:
        top, head = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                                   capture_output=True, text=True, timeout=30).stdout.split()
        if Path(top).resolve() == ROOT:
            commit = head
    except (OSError, subprocess.SubprocessError, ValueError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_thread_env": {k: os.environ.get(k) for k in _BLAS_THREAD_VARS},
        "git_commit": commit,
    }


def run_children(name, tiny, workdir, seed, seconds):
    """Time set-up in fresh processes, PROCESSES of which then run timed passes.

    The timed passes are spread over several processes, one after another:
    with BLAS on two threads, the same passes run up to 7 % faster or slower
    from one process to the next, and the median over several processes
    evens that out.  Set-up probes alternate with the timed processes.
    Returns (set-up seconds, passes, peak MB).
    """
    from workloads import Pass

    setup, passes, peak = [], [], 0.0
    samples, processes = (1, 1) if tiny else (SETUP_SAMPLES, PROCESSES)
    timed = range(0, samples, samples // processes)[:processes]
    for k in range(samples):
        part = timed.index(k) if k in timed else None
        child_dir = workdir / f"child{k}"
        child_dir.mkdir()
        argv = [sys.executable, str(HERE / "child.py"), name, "1" if tiny else "0", str(child_dir),
                str(seed), str(seconds / processes if part is not None else 0),
                str(part or 0), str(processes)]
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
        try:
            ready = proc.stdout.readline()
            setup.append(time.perf_counter() - start)
            rest = proc.stdout.read()
        finally:
            proc.stdout.close()
            proc.wait()
        if ready.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"{name} child process {k} failed (exit {proc.returncode})")
        if part is not None:
            data = json.loads(rest.strip().splitlines()[-1])
            passes += [Pass.from_json(p) for p in data["passes"]]
            peak = max(peak, data["peak_rss_mb"])
    return statistics.median(setup), passes, peak


def tail_q(n):
    """Highest percentile with at least ten samples beyond it (50 at least)."""
    return max(50.0, 100.0 * (1.0 - 10.0 / n)) if n else 50.0


def _keep_hooks():
    return {
        "ensembles.generate_sample": lambda args, sample: sample,
        "erm.objective": lambda args, _: 2 * args[0].A.size,
        "erm.gradient": lambda args, _: 4 * args[0].A.size,
        "erm.solve_pgd": lambda args, res: (res.iterations_used, bool(res.converged)),
        "erm.solve_oracle": lambda args, res: (res.iterations_used, bool(res.converged)),
        "harness.export_results": lambda args, _: (os.path.getsize(args[1])
                                                   + os.path.getsize(f"{args[1]}.summary.json")),
    }


def l1_cap_width_ms(tiny, seed, repeats=3):
    """Median ms of one mean_width_mc on l1_ball(4096) at 1024 draws, and its bytes.

    The bytes are computed: the draw matrix, its sorted magnitudes and their
    two prefix sums, 8 bytes per entry each.
    """
    from phaselab import sets

    n, draws = (256, 64) if tiny else (4096, 1024)
    cset = sets.l1_ball(n)
    times = []
    for i in range(repeats):
        start = time.perf_counter()
        sets.mean_width_mc(cset, 0.25, draws, seed + i)
        times.append(time.perf_counter() - start)
    return 1000.0 * statistics.median(times), 4 * 8 * n * draws


def layer_metrics(tracer, traced_walls, untraced_walls, parallel, tiny, seed):
    import numpy as np
    from phaselab import erm
    from tracing import summarize_spans

    per_name, per_layer = summarize_spans(tracer.spans)
    durations = {}
    for _, name, start, end, _, _ in tracer.spans:
        durations.setdefault(name, []).append(end - start)

    def calls(name):
        return per_name.get(name, {}).get("calls", 0)

    def busy(name):
        return per_name.get(name, {}).get("busy_s", 0.0)

    def kept(name):
        return [v for _, v in tracer.kept.get(name, [])]

    def ms_stats(name):
        ms = [1000.0 * d for d in durations.get(name, [])]
        if not ms:
            return 0.0, 0.0
        return float(np.percentile(ms, 50)), float(np.percentile(ms, tail_q(len(ms))))

    samples = kept("ensembles.generate_sample")
    spectral = 0.0
    for sample in samples:
        start = time.perf_counter()
        erm.spectral_init(sample)
        spectral += time.perf_counter() - start
    pgd, oracle = kept("erm.solve_pgd"), kept("erm.solve_oracle")
    pgd_p50, pgd_tail = ms_stats("erm.solve_pgd")
    oracle_p50, oracle_tail = ms_stats("erm.solve_oracle")
    width_ms, width_bytes = l1_cap_width_ms(tiny, seed)
    wall = sum(traced_walls)
    base = sum(untraced_walls)
    metrics = {
        "erm.objective.calls": calls("erm.objective"),
        "erm.objective.busy_s": busy("erm.objective"),
        "erm.gradient.calls": calls("erm.gradient"),
        "erm.gradient.busy_s": busy("erm.gradient"),
        "erm.matvec_flops": sum(kept("erm.objective")) + sum(kept("erm.gradient")),
        "erm.solve_pgd.iterations": sum(it for it, _ in pgd),
        "erm.solve_pgd.ms_p50": pgd_p50,
        "erm.solve_pgd.ms_tail": pgd_tail,
        "erm.solve_pgd.converged_frac": sum(c for _, c in pgd) / len(pgd) if pgd else 0.0,
        "erm.solve_oracle.ms_p50": oracle_p50,
        "erm.solve_oracle.ms_tail": oracle_tail,
        "erm.solve_oracle.iterations": sum(it for it, _ in oracle),
        "erm.spectral_init.busy_s": spectral,
        "erm.busy_frac": per_layer.get("erm", {}).get("busy_s", 0.0) / wall if wall else 0.0,
        "sets.project.calls": calls("sets.project"),
        "sets.project.busy_s": busy("sets.project"),
        "sets.fixed_point.calls": calls("sets.fixed_point"),
        "sets.fixed_point.busy_s": busy("sets.fixed_point"),
        "sets.l1_cap_width.ms": width_ms,
        "sets.l1_cap_width.bytes": width_bytes,
        "sets.packing_count.calls": calls("sets.packing_count"),
        "sets.packing_count.busy_s": busy("sets.packing_count"),
        "ensembles.generate_sample.calls": calls("ensembles.generate_sample"),
        "ensembles.generate_sample.busy_s": busy("ensembles.generate_sample"),
        "ensembles.generate_sample.bytes": sum(
            s.A.nbytes + s.y.nbytes + s.x0.nbytes + s.noise_realization.nbytes for s in samples),
        "harness.run_experiment.self_s": per_name.get("harness.run_experiment", {}).get("self_s", 0.0),
        "harness.export_results.busy_s": busy("harness.export_results"),
        "harness.export_results.bytes": sum(kept("harness.export_results")),
        "harness.load_results.busy_s": busy("harness.load_results"),
        "harness.parallel_eff": parallel,
        "empirics.psi_alpha_norm.busy_s": busy("empirics.psi_alpha_norm"),
        "empirics.norm_equivalence_violations.busy_s": busy("empirics.norm_equivalence_violations"),
        "trace.overhead_s": wall - base,
        "trace.overhead_frac": (wall - base) / base if base else 0.0,
    }
    for layer in ("cli", "ensembles", "erm", "sets", "harness", "empirics"):
        metrics[f"{layer}.self_s"] = per_layer.get(layer, {}).get("self_s", 0.0)
    detail = {
        "spans": len(tracer.spans),
        "traced_wall_s": wall,
        "untraced_wall_s": base,
        "tail_percentile": {"erm.solve_pgd": tail_q(len(durations.get("erm.solve_pgd", []))),
                            "erm.solve_oracle": tail_q(len(durations.get("erm.solve_oracle", [])))},
        "per_function": per_name,
        "per_layer": per_layer,
    }
    return metrics, detail


def traced_run(wl, workdir, seed, tiny):
    """Passes 0.. run untraced, then traced on the same inputs; per-layer metrics.

    The pgd workloads also time 2-worker passes, untraced, for parallel_eff:
    1-worker wall time over twice the 2-worker wall time on the same inputs.
    Returns (metrics, detail, untraced passes, every pass run).
    """
    from tracing import Tracer

    config = wl.prepare(workdir)
    tracer = Tracer(keep=_keep_hooks())
    untraced, traced = [], []
    for index in range(wl.traced_passes):
        untraced.append(wl.run_pass(config, workdir, seed, index))
        traced.append(wl.run_pass(config, workdir, seed, index, tracer=tracer))
    parallel, parallel_runs = 0.0, []
    if wl.parallel_passes:
        for index in range(wl.parallel_passes):
            parallel_runs.append(wl.run_pass(config, workdir, seed, index, threads=2,
                                             reference=untraced[index].csv_lines))
        one = sum(p.wall_s for p in untraced[:wl.parallel_passes])
        parallel = one / (2.0 * sum(p.wall_s for p in parallel_runs))
    elif untraced[0].reference_wall_s is not None:
        one = sum(p.reference_wall_s for p in untraced)
        parallel = one / (2.0 * sum(p.wall_s for p in untraced))
    metrics, detail = layer_metrics(tracer, [p.wall_s for p in traced],
                                    [p.wall_s for p in untraced], parallel, tiny, seed)
    tracer.write(OUT / f"{wl.name}-seed{seed}.spans.jsonl")
    return metrics, detail, untraced, untraced + traced + parallel_runs


def run(name, seed, seconds, trace, tiny=False):
    """Run one workload; returns (result line dict, results file dict)."""
    import workloads

    wl = workloads.make(name, tiny=tiny)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    report = {"workload": name, "why": wl.why, "seed": seed, "seconds": seconds,
              "trace": trace, "tiny": tiny, "context": machine_context()}
    try:
        if not trace:
            setup_s, passes, peak = run_children(name, tiny, workdir, seed, seconds)
            metrics = {
                "work_per_s": statistics.median(p.items / p.wall_s for p in passes),
                "setup_s": setup_s,
                "peak_rss_mb": peak,
            }
            runs = passes
        else:
            metrics, detail, passes, runs = traced_run(wl, workdir, seed, tiny)
            report["trace_detail"] = detail
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    run_failures = wl.run_check(runs)
    messages = [m for p in runs for m in p.messages] + run_failures
    attempted = sum(p.items for p in runs)
    failed = min(sum(len(p.failed) for p in runs) + len(run_failures), attempted)
    quality = {"fail_frac": failed / attempted}
    if isinstance(wl, workloads.SimulateWorkload):
        rows = [r for p in runs for r in p.rows]
        if wl.min_recovery is not None:
            quality["recovery_frac"] = workloads.recovery_frac(rows) if rows else 0.0
        else:
            value, count = workloads.median_product_error(passes)
            quality["median_product_error"] = value
            report["median_product_error_trials"] = count
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": (PER_LAYER if trace else END_TO_END)[k]}
                    for k, v in metrics.items()},
    }
    report.update(result)
    report["quality"] = quality
    report["failures"] = messages[:20]
    report["pass_walls_s"] = [[p.index, p.wall_s] for p in runs]
    return result, report


QUALITY_UNITS = {"fail_frac": "ratio", "median_product_error": "-", "recovery_frac": "ratio"}


def write_report(report):
    path = OUT / f"{report['workload']}-seed{report['seed']}-trace{int(report['trace'])}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    return path


def emit(result, report, path):
    """Print every metric by name with its unit, then the result line."""
    print(f"{report['workload']} seed={report['seed']} trace={int(report['trace'])}: "
          f"{result['attempted']} items, {result['failed']} failed")
    for name, entry in result["metrics"].items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    for name, value in report["quality"].items():
        print(f"  {name} = {value:.6g} {QUALITY_UNITS[name]}")
    for message in report["failures"]:
        print(f"  FAIL {message}")
    print(f"  results: {path.relative_to(ROOT)}")
    print(json.dumps(result), flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    add_source_path()
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; expected one of {workloads.NAMES}")
    if args.seed < 0 or not args.seconds > 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    result, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    emit(result, report, write_report(report))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
