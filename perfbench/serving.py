"""The served side of a run: the `repro serve` process and the two loops.

:class:`ServerProcess` spawns the real CLI server, times set-up from
spawn to the first answered decide, and reads the process's CPU time
and peak RSS from ``/proc``.  :func:`closed_loop` measures capacity
with a fixed pipelined window; :func:`open_loop` sends on a seeded
Poisson schedule and times every request from when it was due.
Every answer goes through a :class:`Tally`, which checks it against
the oracle and counts each way a request can fail.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Dict, List, Optional, Sequence

from repro.core.decision import AccessRequest
from repro.exceptions import ServiceError
from repro.service.client import RemotePDPClient
from repro.service.pdp import PDPOutcome

LISTEN_TIMEOUT_S = 60.0
CLK_TCK = os.sysconf("SC_CLK_TCK")
#: The generator and the processes under test run on separate CPUs, so
#: the scheduler never stacks the two ends of a round trip on one CPU
#: (which halves throughput for as long as it lasts).
CPUS = sorted(os.sched_getaffinity(0))
GENERATOR_CPUS = set(CPUS[:1])
SERVER_CPUS = set(CPUS[1:]) or set(CPUS)
#: Closed-loop window: requests kept in flight across the connections.
WINDOW = 64


def quantile(values: Sequence[float], q: float) -> float:
    """Exact nearest-rank quantile (0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


class ServerProcess:
    """One `python -m repro.cli ...` child process (``serve`` or
    ``cluster start``), ready once it prints ``listening on HOST:PORT``
    and every line in ``wait_for``."""

    def __init__(
        self, root: str, workdir: str, args: Sequence[str], wait_for: Sequence[str] = ()
    ) -> None:
        self.root = root
        self.args = [*args, "--port", "0"]
        self.wait_for = list(wait_for)
        self.log_path = os.path.join(workdir, f"{args[0]}-{time.monotonic_ns()}.log")
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.spawned_at = 0.0
        self.lines: List[str] = []

    async def start(self) -> None:
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        self.spawned_at = time.perf_counter()
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", *self.args],
                cwd=self.root,
                env=env,
                stdout=log,
                stderr=subprocess.STDOUT,
                start_new_session=True,  # its own group, with all it starts
            )
        os.sched_setaffinity(self.proc.pid, SERVER_CPUS)
        deadline = self.spawned_at + LISTEN_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"{self.args[0]} exited early; see {self.log_path}")
            with open(self.log_path) as log:
                self.lines = log.readlines()
            ready = [line for line in self.lines if " listening on " in line]
            if ready and all(any(m in line for line in self.lines) for m in self.wait_for):
                self.port = int(ready[0].rsplit(":", 1)[1])
                return
            await asyncio.sleep(0.005)
        raise RuntimeError(f"{self.args[0]} did not start listening in time")

    def cpu_s(self) -> float:
        """User + system CPU seconds the server has used so far."""
        with open(f"/proc/{self.proc.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / CLK_TCK

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then SIGKILL; always reaps, and
        then kills and waits out whatever else is left in its process
        group (the workers of ``cluster start``)."""
        proc = self.proc
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        deadline = time.monotonic() + 15
        while live_pids(PGRP, proc.pid):
            if time.monotonic() > deadline:
                raise RuntimeError(f"process group {proc.pid} outlived SIGKILL")
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            time.sleep(0.01)


PPID, PGRP = 1, 2  # fields of /proc/<pid>/stat after the command name


def live_pids(field: int, value: int) -> List[int]:
    """Pids of the processes that have not exited whose parent
    (``PPID``) or process group (``PGRP``) is ``value``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:  # exited while we looked
            continue
        if int(fields[field]) == value and fields[0] != "Z":
            pids.append(int(entry))
    return pids


async def connect(port: int, wire: str, count: int = 2) -> List[RemotePDPClient]:
    return [
        await RemotePDPClient.connect("127.0.0.1", port, wire=wire)
        for _ in range(count)
    ]


async def close_all(clients: Sequence[RemotePDPClient]) -> None:
    for client in clients:
        await client.close()


def request_of(shape) -> AccessRequest:
    subject, transaction, obj, _ = shape
    return AccessRequest(transaction, obj, subject=subject)


async def decide(client: RemotePDPClient, shape):
    env = shape[3]
    return await client.decide(
        request_of(shape), environment_roles=None if env is None else set(env)
    )


@dataclass
class Tally:
    """Counts of one phase; answers are checked against the oracle later.

    ``key_of(index)`` names the oracle entry a request's answer must
    equal, or ``None`` when the request cannot be verified (a
    live-environment decide that overlapped an environment write).
    Answers are only recorded while timing; :meth:`settle` compares
    them once the phase is over.
    """

    key_of: Callable[[int], object]
    attempted: int = 0
    completed: int = 0
    shed: int = 0
    timeouts: int = 0
    errors: int = 0
    mismatches: int = 0
    unverified: int = 0
    grants: int = 0
    cached: int = 0
    latencies_s: List[float] = field(default_factory=list)
    #: Scheduled send time (``perf_counter``) of each ``latencies_s`` entry.
    latency_due: List[float] = field(default_factory=list)
    answers: List[tuple] = field(default_factory=list)

    def answer(self, index: int, response) -> None:
        outcome = response.outcome
        if outcome is PDPOutcome.DENY_OVERLOAD:
            self.shed += 1
        elif outcome is PDPOutcome.DENY_TIMEOUT:
            self.timeouts += 1
        elif outcome not in (PDPOutcome.GRANT, PDPOutcome.DENY):
            self.errors += 1
        else:
            self.completed += 1
            self.grants += response.granted
            self.cached += response.cached
            self.answers.append((self.key_of(index), response.granted))

    def settle(self, oracle: Dict[object, bool]) -> None:
        """Count wrong and unverifiable answers (call once, after timing)."""
        for key, granted in self.answers:
            if key is None:
                self.unverified += 1
            elif oracle[key] != granted:
                self.mismatches += 1
        self.answers = []

    @property
    def dropped(self) -> int:
        return self.attempted - self.completed - self.shed - self.timeouts - self.errors

    @property
    def failed(self) -> int:
        """Shed, timed out, errored, dropped or wrong answers."""
        return self.shed + self.timeouts + self.errors + self.dropped + self.mismatches


Send = Callable[[int, RemotePDPClient], Awaitable[object]]


BIN_S = 0.5
#: A figure is taken only from bins in which the host's other tenants
#: stole at most this share of its CPU time; when the quiet bins of a
#: timed part lost more, it is run again, and in the end the run is not
#: reported (:class:`InvalidRun`).
STEAL_MAX = 0.10
QUIET_WAIT_S = 10.0  # longest wait for a quiet host before timing


class InvalidRun(RuntimeError):
    """The run measured the host or the generator, not the server; its
    figures are not reported."""


class StealLog:
    """Host CPU steal (time the hypervisor gave our CPUs to others),
    sampled every ``BIN_S / 2`` while :meth:`run` is awaited."""

    def __init__(self) -> None:
        self.samples: List[tuple] = []
        #: Highest stolen share among the bins :func:`quiet_median` used.
        self.quiet_max = 0.0

    @staticmethod
    def read() -> tuple:
        with open("/proc/stat") as handle:
            fields = [int(v) for v in handle.readline().split()[1:]]
        return time.perf_counter(), fields[7], sum(fields)

    async def run(self) -> None:
        while True:
            self.samples.append(self.read())
            await asyncio.sleep(BIN_S / 2)

    async def wait_quiet(self) -> None:
        """Wait, at most ``QUIET_WAIT_S``, until the host stole at most
        ``STEAL_MAX`` of the last second (needs :meth:`run` going)."""
        deadline = time.perf_counter() + QUIET_WAIT_S
        while time.perf_counter() < deadline:
            await asyncio.sleep(BIN_S / 2)
            now = time.perf_counter()
            if now - self.samples[0][0] >= 1.0 and self.share(now - 1.0, now) <= STEAL_MAX:
                return

    def share(self, start: float, end: float) -> float:
        """Stolen share of host CPU time between the samples nearest
        ``start`` and ``end``."""
        first = min(self.samples, key=lambda s: abs(s[0] - start))
        last = min(self.samples, key=lambda s: abs(s[0] - end))
        return (last[1] - first[1]) / max(1, last[2] - first[2])


def quiet_median(
    bins: List[List[float]], start: float, steal: StealLog, reduce, keep: float = 0.5
) -> float:
    """``reduce(bin, stolen share)`` of each ``BIN_S`` bin from
    ``start``, then the median over the ``keep`` share of bins with the
    least host steal, and every bin no worse than the last of those
    (all of them, on a quiet host): the quieter part of the run, when
    other tenants of the host took CPU in bursts.  The highest stolen
    share among those bins goes to ``steal.quiet_max``."""
    shares = [steal.share(start + k * BIN_S, start + (k + 1) * BIN_S) for k in range(len(bins))]
    values = sorted((share, reduce(b, share)) for share, b in zip(shares, bins) if b)
    limit = values[max(1, round(len(values) * keep)) - 1][0]
    steal.quiet_max = max(steal.quiet_max, limit)
    return median([value for share, value in values if share <= limit])


def binned(times: Sequence[float], values: Sequence[float], start: float, end: float) -> List[List[float]]:
    """``values`` grouped into ``BIN_S`` bins by their ``times``; only
    whole bins inside ``[start, end)`` are kept."""
    bins: List[List[float]] = [[] for _ in range(max(1, int((end - start) / BIN_S)))]
    for t, value in zip(times, values):
        k = int((t - start) / BIN_S)
        if 0 <= k < len(bins):
            bins[k].append(value)
    return bins


@dataclass
class ClosedLoopStats:
    start: float
    elapsed_s: float
    done: List[float]  # completion times


async def closed_loop(
    clients: Sequence[RemotePDPClient],
    count: int,
    send: Send,
    tally: Tally,
    seconds: float,
) -> ClosedLoopStats:
    """Keep ``WINDOW`` requests in flight for ``seconds`` (or until the
    ``count`` inputs run out)."""
    next_index = iter(range(count))
    done: List[float] = []
    start = time.perf_counter()
    end = start + seconds

    async def worker(client: RemotePDPClient) -> None:
        for index in next_index:
            if time.perf_counter() >= end:
                return
            tally.attempted += 1
            try:
                response = await send(index, client)
            except ServiceError:
                tally.errors += 1
                continue
            done.append(time.perf_counter())
            tally.answer(index, response)

    await asyncio.gather(
        *(worker(clients[k % len(clients)]) for k in range(WINDOW))
    )
    return ClosedLoopStats(start, time.perf_counter() - start, done)


@dataclass
class OpenLoopStats:
    start: float
    elapsed_s: float
    lags_s: List[float]
    cpu_s: float


async def open_loop(
    clients: Sequence[RemotePDPClient],
    offsets: Sequence[float],
    send: Send,
    tally: Tally,
) -> OpenLoopStats:
    """Send input ``i`` at ``offsets[i]`` seconds after the start.

    Latency runs from the scheduled time, so a stall is charged to
    every request that was due during it; how late each send went out
    is kept as generator lag.
    """
    loop = asyncio.get_running_loop()
    pending = set()
    lags: List[float] = []
    cpu0 = time.process_time()
    start = time.perf_counter() + 0.01

    async def one(index: int, due: float, client: RemotePDPClient) -> None:
        try:
            response = await send(index, client)
        except ServiceError:
            tally.errors += 1
            return
        tally.latencies_s.append(time.perf_counter() - due)
        tally.latency_due.append(due)
        tally.answer(index, response)

    for index, offset in enumerate(offsets):
        due = start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        lags.append(time.perf_counter() - due)
        tally.attempted += 1
        task = loop.create_task(one(index, due, clients[index % len(clients)]))
        pending.add(task)
        task.add_done_callback(pending.discard)
    if pending:
        await asyncio.wait(pending, timeout=30.0)
    for task in list(pending):  # never answered: counted as dropped
        task.cancel()
    await asyncio.gather(*pending, return_exceptions=True)
    return OpenLoopStats(
        start=start,
        elapsed_s=time.perf_counter() - start,
        lags_s=lags,
        cpu_s=time.process_time() - cpu0,
    )
