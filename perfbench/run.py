#!/usr/bin/env python3
"""gridsynth benchmark: one seeded workload per process, untraced or traced.

Run from the root of a gridsynth checkout; the package is imported from its
src/ directory, so the benchmark measures that tree and nothing installed:

    python3 perfbench/run.py --workload year-days --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload, one table

--trace 0 times the public calls each workload makes and reports the
end-to-end metrics of BENCHMARK.json; --trace 1 runs the pipeline untraced,
span-traced and memory-probed, and reports the per-layer metrics. The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics. perfbench/README.md lists every metric.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("toy-train", "year-days", "year-local-pooled")
MIN_REPS = 3  # a median that one slow repetition cannot move; also feeds the same-seed check
SETUP_PROBES = 10


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="measuring time of a run (untraced: at least three repetitions; "
                         "traced: at least one untraced/traced pair)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny is the self-test smoke size")
    return ap.parse_args(argv)


def cap_blas_threads() -> None:
    """Cap BLAS/OpenMP threads at the CPUs this process may use (before numpy loads)."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not current.isdigit() or not 0 < int(current) <= nproc:
            os.environ[var] = str(nproc)


def env_record(root: Path) -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    record = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_commit": None,
        "git_dirty": None,
    }
    if (root / ".git").exists():
        git = ["git", "-C", str(root)]
        head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True)
        status = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                                capture_output=True, text=True)
        if head.returncode == 0:
            record["git_commit"] = head.stdout.strip()
            record["git_dirty"] = bool(status.stdout.strip())
    return record


def measure_setup(config_path: Path) -> float:
    """Seconds from process start through imports and config load, in a fresh process."""
    spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    out = subprocess.run([sys.executable, str(BENCH_DIR / "setup_probe.py"), str(config_path),
                          repr(spawn)], capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout.strip().splitlines()[-1])


def run_checks(inputs, reps):
    """Oracle, input-count and same-seed checks; returns them with rep-0 digests."""
    import checks
    import numpy as np
    from gridsynth import cli, toydata

    cl = checks.CheckList()
    done = [r for r in reps if not r.error]
    if not done:
        return cl, {}
    first = done[0]
    evaluated = list(first.run_dirs) if inputs.workload == "toy-train" else ["vaegan"]
    digests = [checks.rep_digests(r.run_dirs, evaluated) for r in done]
    for key in digests[0]:
        cl.check(f"same-seed repetitions agree on {key}",
                 lambda key=key: (len({d[key] for d in digests}) == 1,
                                  " ".join(d[key] for d in digests)))
    real = checks.real_watts(first.daymatrix)
    for model in evaluated:
        rd = first.run_dirs[model]
        checks.check_report(cl, model, real, rd / cli.SYNTH_CSV, rd / cli.REPORT_JSON,
                            rd / cli.HISTOGRAM_CSV)
    kept = real.shape[0]
    printed = first.cli_output[0]
    cl.check("ingest prints the kept-day count", lambda: (
        f"kept days: {kept}" in printed, printed.strip().splitlines()[0]))
    if inputs.workload == "year-local-pooled":
        # DST and partial boundary days in local time can only drop days
        cl.check("kept days within the generator's complete days minus local-time losses",
                 lambda: (inputs.expected_kept_days - 4 <= kept <= inputs.expected_kept_days,
                          f"{kept} vs {inputs.expected_kept_days} complete"))
    else:
        cl.check("kept days equal the generator's complete days", lambda: (
            kept == inputs.expected_kept_days,
            f"{kept} vs {inputs.expected_kept_days} complete"))
    if inputs.workload == "toy-train":
        want = toydata.sinusoid_day_matrix(inputs.size["days"], seed=inputs.seed).values
        ingested = checks.read_matrix(first.daymatrix)
        cl.check("ingested toy CSV equals toydata.sinusoid_day_matrix bit for bit",
                 lambda: (ingested.shape == want.shape and np.array_equal(ingested, want),
                          f"shape {ingested.shape}"))

        def comparison():
            table = np.genfromtxt(first.out_dir / "comparison.csv", delimiter=",",
                                  names=True, dtype=None, encoding="utf-8")
            ok = True
            for row in np.atleast_1d(table):
                rep = json.loads((first.run_dirs[row["model"]] / cli.REPORT_JSON).read_text())
                ok &= all(row[k] == rep[k] for k in ("kl", "wasserstein", "mmd"))
            return ok, f"{len(np.atleast_1d(table))} rows"

        cl.check("gridsynth report table matches the reports", comparison)
    return cl, digests[0]


# end-to-end metric -> the timing samples its median comes from
SAMPLES_OF = {"ingest_rows_per_s": "ingest_s", "generate_days_per_s": "generate_s"}


def _sample_note(samples, unit: str) -> str:
    """Sample count and interquartile range of the samples behind a median."""
    if not samples or len(samples) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return f"  (median of {len(samples)}; quartiles {q1:.4g}..{q3:.4g} {unit})"


def median(values):
    return statistics.median(values) if values else float("nan")


def untraced(inputs, work: Path, seconds: float):
    """Repeat the pipeline until `seconds` would be exceeded; medians per metric.

    Set-up is probed before the first repetition, while the process holds no
    large arrays: freeing the ~2 GB of a pooled evaluate slows the next
    process start on a small shared host.
    """
    import workloads

    setup = [measure_setup(inputs.config_path) for _ in range(SETUP_PROBES)]
    reps = []
    t0 = time.perf_counter()
    while True:
        gc.collect()
        reps.append(workloads.run_rep(inputs, work / f"rep{len(reps)}"))
        if reps[-1].error:
            break
        elapsed = time.perf_counter() - t0
        if len(reps) >= MIN_REPS and elapsed * (len(reps) + 1) / len(reps) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    done = [r for r in reps if not r.error]
    samples = {
        "vaegan_step_ms": [v for r in done for v in r.step_ms["vaegan"]],
        "gan_step_ms": [v for r in done for v in r.step_ms["gan"]],
        "ingest_s": [v for r in done for v in r.ingest_s],
        "generate_s": [v for r in done for v in r.generate_s],
        "evaluate_s": [v for r in done for v in r.evaluate_s],
        "pipeline_s": [r.pipeline_s for r in done],
        "setup_s": setup,
    }
    values = {
        "vaegan_step_ms": median(samples["vaegan_step_ms"]),
        "gan_step_ms": median(samples["gan_step_ms"]),
        "ingest_rows_per_s": inputs.csv_rows / median(samples["ingest_s"]),
        "generate_days_per_s": inputs.size["n_synth"] / median(samples["generate_s"]),
        "evaluate_s": median(samples["evaluate_s"]),
        "pipeline_s": median(samples["pipeline_s"]),
        "setup_s": median(setup),
        "peak_rss_mb": peak_rss_mb,
    }
    return reps, values, samples


def traced(inputs, work: Path, run_id: str, seconds: float):
    """Memory-probed, then alternating untraced and span-traced repetitions.

    The memory probe goes first and absorbs the process warm-up. Untraced
    and traced repetitions then alternate, at least one pair and more while
    `seconds` allows; the overhead is the difference of their median
    pipeline_s. The per-layer metrics and the span file come from the first
    traced repetition, so they stay per repetition.
    """
    import tracing
    import workloads

    probe = tracing.PeakProbe().install()
    try:
        peak_rep = workloads.run_rep(inputs, work / "peaks")
    finally:
        probe.restore()
    first_tracer = None
    bases, spans_reps = [], []
    t0 = time.perf_counter()
    while True:
        gc.collect()
        bases.append(workloads.run_rep(inputs, work / f"untraced{len(bases)}"))
        gc.collect()
        tracer = tracing.Tracer(run_id).install()
        try:
            spans_reps.append(workloads.run_rep(inputs, work / f"traced{len(spans_reps)}"))
        finally:
            tracer.restore()
        first_tracer = first_tracer or tracer
        if bases[-1].error or spans_reps[-1].error:
            break
        elapsed = time.perf_counter() - t0
        if elapsed * (len(bases) + 1) / len(bases) > seconds:
            break
    out_dir = BENCH_DIR / "_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{run_id}.jsonl"
    first_tracer.write_spans(spans_path)
    values = {k: v for k, (v, _) in first_tracer.layer_metrics().items()}
    values.update({k: v for k, (v, _) in probe.layer_metrics().items()})
    base_s = median([r.pipeline_s for r in bases])
    overhead = median([r.pipeline_s for r in spans_reps]) - base_s
    values["trace.overhead_s"] = overhead
    values["trace.overhead_frac"] = overhead / base_s
    print(f"tracing overhead: {overhead:+.3f} s on an untraced median pipeline_s of "
          f"{base_s:.3f} s over {len(bases)} pairs ({len(first_tracer.spans)} spans of the "
          f"first traced repetition written to {spans_path})")
    return bases + spans_reps + [peak_rep], values, {}


def main(argv=None) -> int:
    args = parse_args(argv)
    # On SIGTERM, unwind: subprocess.run kills and reaps its child on the way
    # out, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    if args.workload == "all":
        return run_all(args)
    root = Path.cwd()
    if not (root / "src" / "gridsynth" / "__init__.py").is_file() \
            or not (root / "scripts" / "make_demo_data.py").is_file():
        print("error: run from the root of a gridsynth checkout "
              "(needs src/gridsynth and scripts/make_demo_data.py)", file=sys.stderr)
        return 2
    cap_blas_threads()
    sys.path.insert(0, str(root / "src"))
    import gridsynth
    import workloads

    if Path(gridsynth.__file__).resolve().parent != (root / "src" / "gridsynth").resolve():
        print(f"error: imported gridsynth from {gridsynth.__file__}", file=sys.stderr)
        return 2

    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    env = env_record(root)
    print("env: " + json.dumps(env, sort_keys=True))
    (BENCH_DIR / "_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=BENCH_DIR / "_work"))
    try:
        inputs = workloads.make_inputs(args.workload, args.seed, args.size, root, work)
        if args.trace:
            reps, values, samples = traced(inputs, work, f"{args.workload}-seed{args.seed}",
                                           args.seconds)
        else:
            reps, values, samples = untraced(inputs, work, args.seconds)
        cl, digests = run_checks(inputs, reps)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r.attempted for r in reps) + len(cl.results)
    failed = sum(r.failed for r in reps) + len(cl.failed)
    if not args.trace:
        values["passed_frac"] = 1.0 - failed / attempted
    for r in reps:
        if r.error:
            print(f"FAILED stage: {r.error}")
    for name, ok, detail in cl.results:
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
    print("digests: " + json.dumps(digests, sort_keys=True))
    print(f"{args.workload} seed {args.seed}: {len(reps)} repetitions")
    result = {}
    for m in listed:
        if m["name"] not in values:
            continue
        value = values[m["name"]]
        if not math.isfinite(value):
            continue
        name = SAMPLES_OF.get(m["name"], m["name"])
        unit = "s" if name in SAMPLES_OF.values() else m["unit"]
        print(f"  {m['name']:<40} {value:>14.6g} {m['unit']:<9} {m['better']} is better"
              + _sample_note(samples.get(name), unit))
        result[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after the other, then one table."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
