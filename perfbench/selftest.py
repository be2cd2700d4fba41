"""Self-test of the benchmark at tiny sizes.

Run from the root of a checkout::

    python3 perfbench/selftest.py

Checks, in about two minutes on two cores:

* every workload, untraced and traced, yields every metric that
  ``BENCHMARK.json`` names for that mode, with no failed request;
* an oracle answer corrupted on purpose makes each workload report
  failures, so the verifier does catch wrong answers;
* ``run.py`` prints the result object as its last line;
* ``run.py`` refuses to run, without printing a result, where only
  ``BENCHMARK.json`` and the benchmark's own files are present.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(ROOT, "src"))

import bench  # noqa: E402
import serving  # noqa: E402
import workloads  # noqa: E402

SECONDS = 2.0


def tiny() -> None:
    # The host-steal gate needs a run's worth of bins to choose quiet
    # ones from; a tiny run has one or two, and its figures are not
    # what the self-test checks.
    serving.STEAL_MAX = 1.0
    bench.SETUPS = 1
    bench.WARMUP = 200
    bench.LEDGER_N = 20
    bench.ENGINE_N = 100
    bench.PROBE_SECONDS = 1.0


def run_one(workdir: str, name: str, trace: bool, corrupt: bool = False) -> bench.Outcome:
    spec = workloads.SPECS[name]
    run = bench.Run(ROOT, workdir, spec, seed=7, seconds=SECONDS, trace=trace,
                    setups=1, corrupt=corrupt)
    return asyncio.run(bench.run_workload(run))


def main() -> int:
    tiny()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    build = os.path.join(ROOT, ".bench_build", "perfbench")
    os.makedirs(build, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=build)
    problems = []
    try:
        for name in workloads.SPECS:
            for trace, section in ((False, "end_to_end"), (True, "per_layer")):
                outcome = run_one(workdir, name, trace)
                print(f"{name} trace={int(trace)}: attempted {outcome.attempted}, failed {outcome.failed}")
                if outcome.failed:
                    problems.append(f"{name} trace={int(trace)}: {outcome.failed} failed")
                for metric in contract[section]:
                    value = outcome.metrics.get(metric["name"])
                    if value is None or not math.isfinite(value):
                        problems.append(f"{name}: metric {metric['name']} missing")
                    else:
                        print(f"  {metric['name']:<32}{value:>14.4f} {metric['unit']}")
            corrupted = run_one(workdir, name, trace=False, corrupt=True)
            ratio = corrupted.metrics["failed_ratio"]
            print(f"{name} with one corrupted oracle answer: failed_ratio {ratio:.6f}")
            if not corrupted.failed or ratio <= 0:
                problems.append(f"{name}: a corrupted oracle answer went unnoticed")
        problems += check_cli(build)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print("FAIL:", problem)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


def check_cli(build: str):
    problems = []
    command = [sys.executable, "perfbench/run.py", "--workload", "warm-replay",
               "--seed", "3", "--seconds", str(SECONDS), "--trace", "0"]
    result = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=180)
    last = result.stdout.strip().splitlines()[-1] if result.stdout.strip() else ""
    try:
        payload = json.loads(last)
        if sorted(payload) != ["attempted", "correct", "failed", "metrics"]:
            problems.append(f"run.py result keys {sorted(payload)}")
    except json.JSONDecodeError:
        problems.append(f"run.py printed no result (exit {result.returncode})")
    bare = tempfile.mkdtemp(prefix="bare-", dir=build)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        result = subprocess.run(command, cwd=bare, capture_output=True, text=True, timeout=180)
        if result.returncode == 0 or '"metrics"' in result.stdout:
            problems.append("run.py reported a result without the program's sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return problems


if __name__ == "__main__":
    sys.exit(main())
