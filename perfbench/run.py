"""Run one benchmark workload against the real `repro serve` process.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload warm-replay --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` runs the traced variant and prints the per-layer metrics.
``--workload all`` runs every workload in turn, each printing its own
result line.  A run that measured the host or the generator rather
than the server exits with code 3 and prints no result.
Human-readable detail comes first; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
Spans of a traced run are written to
``.bench_build/perfbench/spans-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import os
import shutil
import signal
import sys
import tempfile

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "cli.py")):
        print(f"no repro sources under {src}: run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    wanted = contract["per_layer" if args.trace else "end_to_end"]

    import bench
    import workloads

    names = list(workloads.SPECS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(workloads.SPECS):
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.SPECS)} or all",
              file=sys.stderr)
        return 2
    os.makedirs(BUILD, exist_ok=True)
    status = 0
    try:
        for name in names:
            status = max(status, run_one(bench, workloads.SPECS[name], args, wanted))
    finally:
        stop_children()
    return status


def stop_children() -> None:
    """Kill and reap any child process still running; every part of a
    run stops its own, so this finds none unless a part failed to."""
    import serving

    for pid in serving.live_pids(serving.PPID, os.getpid()):
        print(f"stopping leftover child process {pid}", file=sys.stderr)
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
        with contextlib.suppress(ChildProcessError):
            os.waitpid(pid, 0)


def run_one(bench, spec, args, wanted) -> int:
    """Run one workload and print its result; 3 when it is not reported."""
    workdir = tempfile.mkdtemp(prefix="run-", dir=BUILD)
    # Set-up time is an end-to-end metric: a traced run times one spawn.
    run = bench.Run(ROOT, workdir, spec, args.seed, args.seconds, bool(args.trace),
                    setups=1 if args.trace else bench.SETUPS)
    try:
        outcome = asyncio.run(bench.run_workload(run))
        spans = os.path.join(workdir, "spans.jsonl")
        if os.path.exists(spans):
            shutil.move(spans, os.path.join(BUILD, f"spans-{spec.name}-{args.seed}.jsonl"))
    except bench.InvalidRun as error:
        print(f"{spec.name}: {error}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"{spec.name} seed {args.seed} ({spec.wire} wire, {spec.rate:.0f} req/s open loop)")
    for line in outcome.lines:
        print(line)
    print(f"  failed_ratio {outcome.metrics['failed_ratio']:.6f} "
          f"({outcome.failed} of {outcome.attempted} requests)")
    metrics = {}
    for metric in wanted:
        value = float(outcome.metrics[metric["name"]])
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"  {metric['name']:<32}{value:>16.4f} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
