#!/usr/bin/env python3
"""Self-test of the benchmark: a tiny-size smoke of every workload.

Run from the checkout root: python3 perfbench/selftest.py

For each workload it runs the benchmark untraced and traced with one seed
and asserts that both pass every output check, report exactly the metrics
BENCHMARK.json lists, and print identical output digests, so tracing cannot
change results. It also asserts that the benchmark fails without a result
in a directory holding only BENCHMARK.json and the benchmark's files.
"""
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SEED = 3


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def parse(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    lines = proc.stdout.strip().splitlines()
    digests = json.loads(next(l for l in lines if l.startswith("digests: "))[len("digests: "):])
    return json.loads(lines[-1]), digests


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        digests = {}
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run(root, workload, trace)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                failures.append(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result, digests[trace] = parse(proc)
            if not result["correct"] or result["failed"]:
                failures.append(f"{label}: {result['failed']} of {result['attempted']} failed\n"
                                + proc.stdout)
            want = {m["name"] for m in listed}
            if set(result["metrics"]) != want:
                failures.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(result['metrics']) ^ want)}")
            print(f"{label}: {result['attempted']} attempted, {result['failed']} failed")
        if len(digests) == 2 and digests[0] != digests[1]:
            failures.append(f"{workload}: traced digests {digests[1]} != untraced {digests[0]}")

    (BENCH_DIR / "_work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=BENCH_DIR / "_work"))
    try:
        shutil.copy(root / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
        proc = run(bare, "toy-train", 0)
        if proc.returncode == 0 or proc.stdout.strip():
            failures.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for failure in failures:
        print("FAIL", failure)
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
