"""One run of one workload: set-up, timed phases, verification, metrics.

:func:`run_workload` drives every workload.  An untraced run
(``trace=False``) reports the end-to-end metrics: it times set-up on
``SETUPS`` spawns of the server (some before the timed part, some
after it), warms the server under test, and runs an open loop at the
workload's fixed rate (latency).  A traced run reports the per-layer
metrics: one set-up, the concurrency-1 ledger and the probes of single
layers, then an untraced and a traced open-loop half (their p50 ratio
is the tracing overhead) and a closed loop (capacity).  Both loops are
cut into ``serving.BIN_S`` bins and report a median over the bins
where the host's other tenants stole the least CPU (see
``serving.quiet_median``).  Every answer of every phase is checked
against the naive-engine oracle.

live-churn differs only in its inputs and in the steps of its
:class:`churn.LiveEnv`: environment writes beside the timed phases,
the final revocation check, and an oracle built after timing (an
answer depends on the environment when it was sent).
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

import churn
import layers
import serving
import workloads
from serving import (
    BIN_S,
    GENERATOR_CPUS,
    InvalidRun,
    ServerProcess,
    StealLog,
    Tally,
    binned,
    close_all,
    closed_loop,
    connect,
    decide,
    median,
    open_loop,
    quantile,
    quiet_median,
)

SETUPS = 7  # spawns timed for setup_s: half before the timed part, the rest after
CAP_SHARE = 0.4  # of --seconds: the traced run's closed loop, nominally
PAUSE_S = 0.25  # idle between phases, so one phase's backlog ends before the next
WARMUP = 1500  # cold-stream warm-up requests (fresh shapes)
LEDGER_N = 300  # concurrency-1 ledger requests
ENGINE_N = 2000  # requests for the engine and codec probes
PROBE_SECONDS = 4.0  # live-churn probe length inside other traced runs
TIMED_ATTEMPTS = 3  # tries at a timed part whose quiet bins the host did not steal
#: The generator fell behind (its run is not reported) when it was
#: busier than MAX_LOADGEN_CPU, sent typically later than MAX_LAG_P50_S,
#: or sent later than MAX_LAG_P99_S and than half the p99 latency at
#: p99: then the tail measured the generator, not the server.  Late
#: sends right after a server stall (a burst of answers to read) are
#: not this.
MAX_LOADGEN_CPU = 0.9
MAX_LAG_P50_S = 0.002
MAX_LAG_P99_S = 0.005


@dataclass
class Run:
    root: str
    workdir: str
    spec: workloads.Spec
    seed: int
    seconds: float
    trace: bool
    setups: int = SETUPS
    #: Self-test only: flip one oracle answer, so verification must fail.
    corrupt: bool = False


@dataclass
class Outcome:
    metrics: Dict[str, float]
    attempted: int = 0
    failed: int = 0
    lines: List[str] = field(default_factory=list)

    def add(self, phase: str, tally: Tally) -> None:
        self.attempted += tally.attempted
        self.failed += tally.failed
        self.lines.append(
            f"  {phase:<10} attempted {tally.attempted:>6}  answered {tally.completed:>6}  "
            f"grants {tally.grants:>6}  cached {tally.cached:>6}  shed {tally.shed}  "
            f"timeouts {tally.timeouts}  errors {tally.errors}  dropped {tally.dropped}  "
            f"wrong {tally.mismatches}  unverified {tally.unverified}"
        )


@dataclass
class Inputs:
    """A run's request shapes, by the phase that sends them."""

    warmup: List
    sample: List  # the ledger's requests
    capacity: List
    open: List
    engine: List  # the engine and codec probes'


def inputs(run: Run, n_cap: int, n_open: int) -> Inputs:
    spec = run.spec
    if spec.live:
        shapes = workloads.churn_shapes(run.seed, LEDGER_N + n_cap + n_open)
        warmup = churn.initial_grants()
    elif spec.name == "warm-replay":
        shapes = workloads.warm_shapes(run.seed, LEDGER_N + n_cap + n_open)
        warmup = list(dict.fromkeys(shapes)) * 2
    else:
        shapes = workloads.cold_shapes(run.seed, WARMUP + LEDGER_N + n_cap + n_open)
        warmup, shapes = shapes[:WARMUP], shapes[WARMUP:]
    sample, stream = shapes[:LEDGER_N], shapes[LEDGER_N:]
    return Inputs(warmup, sample, stream[:n_cap], stream[n_cap:], shapes[:ENGINE_N])


@contextlib.contextmanager
def quiet_generator():
    """The generator while it times: pinned to its own CPU (the servers
    it spawns are moved to the others), and free of collector pauses:
    the inputs built so far are frozen out of collection, and
    collection is off until the block ends (the timed phases allocate
    little that cycles)."""
    was_enabled = gc.isenabled()
    affinity = os.sched_getaffinity(0)
    gc.collect()
    gc.freeze()
    gc.disable()
    os.sched_setaffinity(0, GENERATOR_CPUS)
    try:
        yield
    finally:
        os.sched_setaffinity(0, affinity)
        if was_enabled:
            gc.enable()


def write_policy(run: Run, text: str) -> str:
    path = os.path.join(run.workdir, f"{run.spec.name}.grbac")
    with open(path, "w") as handle:
        handle.write(text)
    return path


async def spawn(run: Run, args: Sequence[str], first, prepare):
    """Spawn a server; return it, its clients, and the seconds from
    spawn to its first answered decide (``prepare`` runs before it)."""
    server = ServerProcess(run.root, run.workdir, ["serve", *args])
    try:
        await server.start()
        clients = await connect(server.port, run.spec.wire)
        if prepare is not None:
            await prepare(clients[0])
        await decide(clients[0], first)
    except BaseException:
        server.stop()
        raise
    return server, clients, time.perf_counter() - server.spawned_at


async def spare_setups(run: Run, count: int, *spawn_args) -> List[float]:
    """Set-up times of ``count`` servers stopped straight away."""
    times = []
    for _ in range(count):
        server, clients, seconds = await spawn(run, *spawn_args)
        await close_all(clients)
        server.stop()
        times.append(seconds)
    return times


def halves(offsets: Sequence[float]):
    """An arrival schedule cut in two back-to-back halves, each from 0."""
    half = len(offsets) // 2
    return list(offsets[:half]), [t - offsets[half] for t in offsets[half:]]


def plan(run: Run, shapes: Inputs, offsets: Sequence[float]):
    """The timed phases: ``(kind, shapes, schedule or seconds)``.

    Untraced, the open loop fills the run.  Traced, an untraced and a
    traced half of it come first; the closed loop, which leaves the
    heaviest churn behind, comes last."""
    if not run.trace:
        return [("open", shapes.open, list(offsets))]
    first, second = halves(offsets)
    return [
        ("open", shapes.open[: len(first)], first),
        ("traced", shapes.open[len(first) :], second),
        ("capacity", shapes.capacity, 2 * run.seconds * CAP_SHARE),
    ]


def static_sender(shapes):
    """``(send, key_of)`` for shapes that state their environment roles."""
    return (lambda i, client: decide(client, shapes[i])), (lambda i: shapes[i])


async def run_workload(run: Run) -> Outcome:
    spec = run.spec
    text = workloads.policy_text(spec)
    policy_path = write_policy(run, text)
    t_cap = run.seconds * CAP_SHARE if run.trace else 0.0
    offsets = workloads.arrivals(run.seed, spec.rate, run.seconds - t_cap)
    shapes = inputs(run, int(spec.capacity_inputs * t_cap), len(offsets))
    stream = shapes.capacity + shapes.open
    # A live-churn answer depends on the environment when it was sent,
    # so its oracle is built from the recorded keys after timing.
    oracle = None if spec.live else workloads.oracle(text, shapes.warmup + shapes.sample + stream)
    outcome = Outcome({})
    out = outcome.metrics
    out["stream.repeat_ratio"] = workloads.repeat_ratio(stream)
    spawn_args = (
        [policy_path, *(churn.SERVE_ARGS if spec.live else ())],
        shapes.warmup[0],
        churn.define_environment if spec.live else None,
    )
    live = None
    with quiet_generator():
        setup_times = await spare_setups(run, run.setups // 2, *spawn_args)
        server, clients, seconds = await spawn(run, *spawn_args)
        setup_times.append(seconds)
        try:
            if spec.live:
                live = churn.LiveEnv(clients, run.seed)
            sender = live.sender if live else static_sender
            send, key_of = sender(shapes.warmup)
            warm = Tally(key_of)
            await closed_loop(clients, len(shapes.warmup), send, warm, 60.0)
            tallies = [("warm-up", warm)]
            if run.trace:  # before any environment write
                await traced_layers(run, outcome, clients, text, shapes, live)
                explicit = live.explicit(shapes.sample) if live else shapes.sample
                out["router.relay_us"] = await router_probe(run, outcome, policy_path, text, explicit)
                if not live:
                    await live_probe(run, outcome)
            for _ in range(TIMED_ATTEMPTS):
                marks = live.marks() if live else None
                attempt, stolen = await timed(run, outcome, server, clients, sender,
                                              plan(run, shapes, offsets), live.writer if live else None)
                tallies += attempt
                if stolen <= serving.STEAL_MAX:
                    break
                outcome.lines.append(f"  host CPU stolen: {stolen:.3f} of the quiet bins; timed part again")
            else:
                raise InvalidRun(
                    f"host CPU stolen: {stolen:.3f} of the quiet bins in each of {TIMED_ATTEMPTS} "
                    f"tries (limit {serving.STEAL_MAX}); run not reported"
                )
            if live:
                # Read before the final sweep of every grant left standing
                # (tens of thousands after a closed loop), whose pushes
                # would stand in for the timed part's.
                live.metrics(marks, (await clients[0].metrics())["json"], out)
                await live.finish()
                out["revoke.delivered_ratio"] = live.delivered_ratio()
        finally:
            await close_all(clients)
            server.stop()
        setup_times += await spare_setups(run, run.setups - 1 - run.setups // 2, *spawn_args)
    keys = [key for _, tally in tallies for key, _ in tally.answers]
    if oracle is None:
        oracle = workloads.oracle(text, [k for k in keys if k is not None])
    if run.corrupt:
        corrupt_one(oracle, keys)
    settle(outcome, tallies, oracle)
    distinct = len(set(stream))
    outcome.lines.append(
        f"  timed stream: {len(stream)} requests, {distinct} distinct shapes "
        f"({distinct / workloads.PDP_CACHE:.1f}x the PDP cache), repeat share "
        f"{out['stream.repeat_ratio']:.3f}, PDP cache hits {out['pdp.cache_hit_ratio']:.3f}"
    )
    if live:
        outcome.failed += live.failed
        outcome.lines.append(live.summary())
    finish(outcome, setup_times, tallies)
    return outcome


async def timed(run: Run, outcome: Outcome, server, clients, sender: Callable, phases, writer):
    """Run the timed phases; return their tallies and the highest
    stolen share among the bins the figures came from.  ``sender(shapes)``
    gives the ``(send, key_of)`` pair for a phase's inputs; ``writer``,
    when given, runs environment writes beside each phase."""
    out = outcome.metrics
    tallies = []
    steal = StealLog()
    sampler = asyncio.get_running_loop().create_task(steal.run())
    try:
        await steal.wait_quiet()
        started = time.perf_counter()
        stats0 = await clients[0].stats()
        for kind, shapes, schedule in phases:
            await asyncio.sleep(PAUSE_S)
            # live-churn's closed loop runs with the writes paused: a
            # sweep of the ~10k grants it registers in 2 s swamps it.
            tally, result, server_cpu = await phase(
                run, server, clients, sender, kind, shapes, schedule,
                writer if kind != "capacity" else None,
            )
            tallies.append((kind, tally))
            if kind == "capacity":
                bins = binned(result.done, result.done, result.start, result.start + result.elapsed_s)
                # Completions per second of the CPU time the host left us.
                out["capacity_rps"] = quiet_median(
                    bins, result.start, steal, lambda b, share: len(b) / BIN_S / (1.0 - share)
                )
                outcome.lines.append(
                    f"  closed loop: {len(result.done) / result.elapsed_s:.0f} completions/s "
                    f"over {result.elapsed_s:.1f} s, server cpu {server_cpu / result.elapsed_s:.2f}; "
                    "per bin " + " ".join(str(len(b) * 2) for b in bins)
                )
            elif kind == "open":
                open_metrics(tally, result, server_cpu, steal, out)
            else:
                out["trace.overhead_ratio"] = p50_us(tally, result, steal) / out["p50_us"]
        stats1 = await clients[0].stats()
        out["host.steal_ratio"] = steal.share(started, time.perf_counter())
    finally:
        sampler.cancel()
    delta = {k: stats1[k] - stats0[k] for k in ("requests", "decided", "batches", "cache_hits", "shed", "timeouts")}
    out["pdp.batch_mean"] = delta["decided"] / max(1, delta["batches"])
    out["pdp.cache_hit_ratio"] = delta["cache_hits"] / max(1, delta["requests"])
    out["pdp.shed"] = delta["shed"]
    out["pdp.timeouts"] = delta["timeouts"]
    out["server_rss_mb"] = server.peak_rss_mb()
    outcome.lines.append(
        f"  timed: {out['latency_samples']:.0f} open-loop latency samples; generator lag "
        f"p50 {out['loadgen.lag_p50_us']:.0f} us, p99 {out['loadgen.lag_p99_us']:.0f} us, "
        f"cpu {out['loadgen.cpu_util']:.2f}; server {out['server.cpu_us_per_req']:.0f} us "
        f"cpu/request, cpu {out['server.cpu_util']:.2f}; host CPU stolen "
        f"{out['host.steal_ratio']:.3f}"
    )
    return tallies, steal.quiet_max


async def phase(run: Run, server, clients, sender, kind, shapes, schedule, writer):
    """One timed phase; returns its tally, loop stats and server CPU."""
    send, key_of = sender(shapes)
    tally = Tally(key_of)
    if kind == "capacity":
        loop = closed_loop(clients, len(shapes), send, tally, schedule)
        seconds = schedule
    else:
        loop = open_loop(clients, schedule, send, tally)
        seconds = schedule[-1]
    spans = layers.Spans()
    undo = spans.install_client() if kind == "traced" else None
    cpu0 = server.cpu_s()
    try:
        if writer is not None:
            result, _ = await asyncio.gather(loop, writer(seconds))
        else:
            result = await loop
    finally:
        if undo is not None:
            undo()
    if kind == "traced":
        spans.dump(os.path.join(run.workdir, "spans.jsonl"), kind)
    return tally, result, server.cpu_s() - cpu0


def p50_us(tally: Tally, result, steal: StealLog) -> float:
    """The median of the per-bin latency medians over the quietest
    quarter of an open loop's bins."""
    bins = binned(tally.latency_due, tally.latencies_s, result.start, result.start + result.elapsed_s)
    return quiet_median(bins, result.start, steal, lambda b, _: median(b), keep=0.25) * 1e6


def open_metrics(tally: Tally, result, server_cpu: float, steal: StealLog, out) -> None:
    """Latency, generator and server figures of the open loop."""
    out["p50_us"] = p50_us(tally, result, steal)
    out["p99_us"] = quantile(tally.latencies_s, 0.99) * 1e6
    out["latency_samples"] = len(tally.latencies_s)
    out["loadgen.lag_p50_us"] = median(result.lags_s) * 1e6
    out["loadgen.lag_p99_us"] = quantile(result.lags_s, 0.99) * 1e6
    out["loadgen.cpu_util"] = result.cpu_s / result.elapsed_s
    out["server.cpu_us_per_req"] = server_cpu / max(1, tally.completed) * 1e6
    out["server.cpu_util"] = server_cpu / result.elapsed_s


def settle(outcome: Outcome, tallies, oracle: Dict) -> None:
    for phase, tally in tallies:
        tally.settle(oracle)
        outcome.add(phase, tally)


def finish(outcome: Outcome, setup_times: List[float], tallies) -> None:
    out = outcome.metrics
    out["setup_s"] = median(setup_times)
    out["failed_ratio"] = outcome.failed / max(1, outcome.attempted)
    unverified = sum(t.unverified for _, t in tallies)
    out["verify.unverified_ratio"] = unverified / max(1, outcome.attempted)
    outcome.lines.append(
        "  set-up: " + " ".join(f"{s:.3f}" for s in setup_times) + " s (spawn order)"
    )
    if (
        out["loadgen.cpu_util"] > MAX_LOADGEN_CPU
        or out["loadgen.lag_p50_us"] > MAX_LAG_P50_S * 1e6
        or out["loadgen.lag_p99_us"] > max(MAX_LAG_P99_S * 1e6, out["p99_us"] / 2)
    ):
        raise InvalidRun(
            f"generator fell behind (cpu {out['loadgen.cpu_util']:.2f}, lag p50 "
            f"{out['loadgen.lag_p50_us']:.0f} us, p99 {out['loadgen.lag_p99_us']:.0f} us); "
            "run not reported"
        )


def corrupt_one(oracle: Dict, keys) -> None:
    key = next(k for k in keys if k is not None)
    oracle[key] = not oracle[key]


# ----------------------------------------------------------------------
# Traced-run additions shared by every workload
# ----------------------------------------------------------------------
def verify(outcome: Outcome, phase: str, text: str, keys, granted) -> None:
    """Check answers outside the timed phases against the oracle."""
    oracle = workloads.oracle(text, keys, workers=1)
    wrong = sum(oracle[key] != answer for key, answer in zip(keys, granted))
    outcome.attempted += len(keys)
    outcome.failed += wrong
    outcome.lines.append(f"  {phase:<10} attempted {len(keys):>6}  wrong {wrong}")


async def traced_layers(run: Run, outcome: Outcome, clients, text, shapes: Inputs, live) -> None:
    """Ledger, ping, codec and engine probes on the workload's requests
    (``live``: the run's :class:`churn.LiveEnv`, before any write)."""
    out = outcome.metrics
    sample = shapes.sample
    keys = live.explicit(sample) if live else sample
    live_env = churn.live_runtime if live else None
    warm = shapes.warmup[: len(shapes.warmup) // 2] if run.spec.name == "warm-replay" else ()
    result = await layers.ledger(clients[0], sample, text, live_env=live_env, warm=warm)
    verify(outcome, "ledger", text, keys + keys,
           [r.granted for r in result["remote"]] + [r.granted for r in result["responses"]])
    spans = result["spans"]
    spans.dump(os.path.join(run.workdir, "spans.jsonl"), "ledger")
    rows = layers.ledger_rows(spans)
    client_s = rows.pop("client_latency")
    explained = sum(rows.values())
    out["ledger.client_us"] = client_s * 1e6
    out["ledger.unexplained_ratio"] = (client_s - explained) / client_s
    out["pdp.submit_us"] = median(result["submit_s"]) * 1e6
    outcome.lines.append(
        f"  ledger (concurrency 1, {len(sample)} requests, median self time per request):"
    )
    for layer, seconds in rows.items():
        outcome.lines.append(f"    {layer:<18}{seconds * 1e6:>10.1f} us")
    outcome.lines.append(f"    {'unexplained':<18}{(client_s - explained) * 1e6:>10.1f} us")
    outcome.lines.append(f"    {'client latency':<18}{client_s * 1e6:>10.1f} us")
    out["tcp.ping_rtt_us"] = await layers.ping_rtt_us(clients[0])
    out.update(layers.codec_probe(sample, result["responses"], result["tables"], subscribe=bool(live)))
    out.update(layers.engine_probe(text, shapes.engine, live_env=live_env))


async def live_probe(run: Run, outcome: Outcome) -> None:
    """Env and revocation metrics for a workload that has no live
    environment: a short untraced live-churn run beside it."""
    probe = Run(run.root, run.workdir, workloads.SPECS["live-churn"], run.seed,
                PROBE_SECONDS, trace=False, setups=1)
    result = await run_workload(probe)
    outcome.attempted += result.attempted
    outcome.failed += result.failed
    outcome.lines += ["  live-churn probe:"] + result.lines
    outcome.metrics.update(
        {k: v for k, v in result.metrics.items() if k.startswith(("revoke.", "env."))}
    )


async def router_probe(run: Run, outcome: Outcome, policy_path: str, text: str, shapes) -> float:
    """Routed minus direct decide RTT at concurrency 1 (one worker);
    ``shapes`` state their environment roles explicitly."""
    cluster = ServerProcess(
        run.root, run.workdir,
        ["cluster", "start", policy_path, "--workers", "1"],
        wait_for=[" on port "],
    )
    times: Dict[str, List[float]] = {"direct": [], "routed": []}
    granted = []
    try:
        await cluster.start()
        line = next(line for line in cluster.lines if " on port " in line)
        worker_port = int(line.split(" on port ")[1].split()[0])
        direct = (await connect(worker_port, run.spec.wire, 1))[0]
        routed = (await connect(cluster.port, run.spec.wire, 1))[0]
        try:
            for shape in shapes:
                for name, client in (("direct", direct), ("routed", routed)):
                    started = time.perf_counter()
                    response = await decide(client, shape)
                    times[name].append(time.perf_counter() - started)
                    granted.append(response.granted)
        finally:
            await close_all([direct, routed])
    finally:
        cluster.stop()  # and its worker, in the same process group
    verify(outcome, "router", text, [s for s in shapes for _ in range(2)], granted)
    return (median(times["routed"]) - median(times["direct"])) * 1e6
