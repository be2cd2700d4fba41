"""live-churn: subscribed decides beside environment writes (§4.2.2).

The server is `repro serve --continuous --sim-start ...` on the binary
wire.  Its environment roles are bound over the wire at set-up: a
``free-time`` window (19:00-22:00) and, for each of the first
``CALLERS`` children, an ``in-kitchen-<i>`` role active while that
child is in the kitchen.  While decides arrive, a writer on connection
0 moves one caller every ``TICK_S`` (every other move takes a child
out of the kitchen and withdraws its videophone grants) and, every
``SWEEP_EVERY`` ticks, advances the simulated clock across 22:00
(withdrawing every standing free-time grant) and back into the window.

:class:`LiveEnv` is the client's model of that environment.  A decide
is verified only when it was sent after the previous write was
acknowledged and answered before the next write was sent; its expected
answer is the naive engine's under the model's active roles for that
interval.  Every subscribed GRANT must be withdrawn by push by the end
of the run: :meth:`LiveEnv.finish` deactivates every role once more
and counts the grants never revoked.  ``bench.run_workload``, which
runs every workload, calls the live-churn-only steps as methods of
:class:`LiveEnv`.
"""

from __future__ import annotations

import asyncio
import random
import time
from datetime import datetime
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.service.client import RemotePDPClient

from serving import median, quantile, request_of
from workloads import CALLERS, FREE_TIME, KIDS

SIM_START = "2000-01-17T21:00:00"
SERVE_ARGS = ["--continuous", "--sim-start", SIM_START]
TICK_S = 0.05
SWEEP_EVERY = 40
OUT_S = 5400.0  # 21:00 -> 22:30: free time ends
BACK_S = 81000.0  # 22:30 -> 21:00 the next day: free time again
DRAIN_TIMEOUT_S = 10.0


async def define_environment(control: RemotePDPClient) -> None:
    """Bind the policy's environment roles and seat every caller in
    the kitchen (part of set-up)."""
    start, end = FREE_TIME
    await control.env("define_time_role", name="free-time", start=start, end=end)
    for i in range(CALLERS):
        await control.env(
            "define_location_role",
            name=f"in-kitchen-{i}",
            subject=f"kid-{i}",
            zone="kitchen",
        )
        await control.env_move(f"kid-{i}", "kitchen")


class LiveEnv:
    """Client-side model of the live environment and of every grant."""

    def __init__(self, clients: Sequence[RemotePDPClient], seed: int) -> None:
        self.clients = list(clients)
        self.control = clients[0]
        self.conn = {id(client): k for k, client in enumerate(clients)}
        self.free_time = True
        self.kitchen: Set[int] = set(range(CALLERS))
        self.order = list(range(CALLERS))
        random.Random(seed ^ 0xC0FFEE).shuffle(self.order)
        self.moves = 0
        #: Writes sent / acknowledged; epoch ``e`` is the interval after
        #: the e-th acknowledgement, with active roles ``envs[e]``.
        self.sent = 0
        self.acked = 0
        self.envs: List[Tuple[str, ...]] = [self.active()]
        self.revision: Optional[int] = None
        self.revision_bumps = 0
        self.env_mismatches = 0
        self.lost = 0
        self.move_rtts_s: List[float] = []
        self.advance_rtts_s: List[float] = []
        #: (connection, wire id) of every subscribed GRANT, and of every
        #: push received.
        self.granted: Dict[Tuple[int, int], str] = {}
        self.revoked: Set[Tuple[int, int]] = set()
        self.duplicate_revokes = 0
        self.revoke_latencies_s: List[float] = []
        self.sweeps_s: List[float] = []
        self._sweep_waiting: Optional[Set[Tuple[int, int]]] = None
        self._sweep_start = 0.0
        self._sent_epoch: Dict[int, Optional[int]] = {}
        for k, client in enumerate(clients):
            client.subscribe(lambda revocation, k=k: self._on_revoke(k, revocation))

    def active(self) -> Tuple[str, ...]:
        roles = ["free-time"] if self.free_time else []
        roles += [f"in-kitchen-{i}" for i in self.kitchen]
        return tuple(sorted(roles))

    def explicit(self, shapes: Sequence) -> List[tuple]:
        """``shapes`` with the active roles stated explicitly."""
        return [shape[:3] + (self.active(),) for shape in shapes]

    def marks(self) -> Dict[str, int]:
        """Where the timed part starts, for metrics over it alone."""
        return {
            "revokes": len(self.revoke_latencies_s),
            "sweeps": len(self.sweeps_s),
            "moves": len(self.move_rtts_s),
            "advances": len(self.advance_rtts_s),
            "bumps": self.revision_bumps,
        }

    # -- pushes ---------------------------------------------------------
    def _on_revoke(self, k: int, revocation) -> None:
        self.revoke_latencies_s.append(max(0.0, time.time() - revocation.ts))
        key = (k, revocation.id)
        if key in self.revoked:
            self.duplicate_revokes += 1
        self.revoked.add(key)
        waiting = self._sweep_waiting
        if waiting is not None and key in waiting:
            waiting.discard(key)
            if not waiting:
                self.sweeps_s.append(time.perf_counter() - self._sweep_start)
                self._sweep_waiting = None

    # -- decides --------------------------------------------------------
    def sender(self, shapes: Sequence):
        """The ``send`` callable of the serving loops for ``shapes``."""

        async def send(index: int, client: RemotePDPClient):
            self._sent_epoch[index] = self.sent if self.sent == self.acked else None
            response = await client.decide(request_of(shapes[index]), subscribe=True)
            if response.granted:
                self.granted[(self.conn[id(client)], response.id)] = shapes[index][1]
            return response

        def key_of(index: int):
            epoch = self._sent_epoch.pop(index)
            if epoch is None or self.sent != epoch:
                return None  # overlapped a write: unverifiable
            subject, transaction, obj, _ = shapes[index]
            return (subject, transaction, obj, self.envs[epoch])

        return send, key_of

    # -- writes ---------------------------------------------------------
    async def _write(self, action: str, rtts: List[float], **fields) -> None:
        self.sent += 1
        started = time.perf_counter()
        ack = await self.control.env(action, **fields)
        rtts.append(time.perf_counter() - started)
        if action == "move":
            kid = int(fields["subject"].rsplit("-", 1)[1])
            if fields["zone"] == "kitchen":
                self.kitchen.add(kid)
            else:
                self.kitchen.discard(kid)
        elif action == "advance":
            self.free_time = fields["seconds"] == BACK_S
        served = tuple(
            sorted(r for r in ack["active"] if r == "free-time" or r.startswith("in-kitchen-"))
        )
        if served != self.active():
            self.env_mismatches += 1
        if self.revision is not None:
            self.revision_bumps += ack["revision"] - self.revision
        self.revision = ack["revision"]
        self.envs.append(self.active())
        self.acked = self.sent

    async def move(self, kid: int, zone: str) -> None:
        await self._write("move", self.move_rtts_s, subject=f"kid-{kid}", zone=zone)

    async def advance(self, seconds: float) -> None:
        if seconds == OUT_S:
            self._sweep_waiting = {
                key
                for key, transaction in self.granted.items()
                if transaction == "watch" and key not in self.revoked
            } or None
            self._sweep_start = time.perf_counter()
        await self._write("advance", self.advance_rtts_s, seconds=seconds)

    async def writer(self, seconds: float) -> None:
        """Env writes on their schedule for ``seconds``."""
        start = time.perf_counter()
        for tick in range(int(seconds / TICK_S)):
            delay = start + (tick + 1) * TICK_S - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            phase = tick % SWEEP_EVERY
            if phase == SWEEP_EVERY - 2 and self.free_time:
                await self.advance(OUT_S)
            elif phase == SWEEP_EVERY - 1 and not self.free_time:
                await self.advance(BACK_S)
            else:
                kid = self.order[(self.moves // 2) % CALLERS]
                self.moves += 1
                await self.move(kid, "kitchen" if kid not in self.kitchen else "den")
        if not self.free_time:  # the next phase starts inside free time
            await self.advance(BACK_S)

    async def finish(self) -> None:
        """Deactivate every role once more; count grants never revoked.

        A grant the server registered after its role had already
        flipped is withdrawn only by the role's next deactivation, so
        each role is brought up and down again here.
        """
        if not self.free_time:
            await self.advance(BACK_S)
        await self.advance(OUT_S)
        for kid in range(CALLERS):
            if kid not in self.kitchen:
                await self.move(kid, "kitchen")
        for kid in range(CALLERS):
            await self.move(kid, "den")
        deadline = time.perf_counter() + DRAIN_TIMEOUT_S
        while time.perf_counter() < deadline and not self.granted.keys() <= self.revoked:
            await asyncio.sleep(0.01)
        self.lost = len(self.granted.keys() - self.revoked) + len(self.revoked - self.granted.keys())

    @property
    def failed(self) -> int:
        """Missing, unexpected and duplicated pushes, and env acks that
        disagreed with the model (after :meth:`finish`)."""
        return self.lost + self.duplicate_revokes + self.env_mismatches

    def delivered_ratio(self) -> float:
        """Share of subscribed GRANTs withdrawn by push (after :meth:`finish`)."""
        return len(self.revoked & self.granted.keys()) / max(1, len(self.granted))

    def summary(self) -> str:
        return (
            f"  revocations: {len(self.granted)} subscribed grants, "
            f"{len(self.revoked & self.granted.keys())} withdrawn by push, {self.lost} missing "
            f"or unexpected, {self.duplicate_revokes} duplicated; {len(self.sweeps_s)} sweeps; "
            f"env model mismatches {self.env_mismatches}"
        )

    def metrics(self, marks: dict, server_metrics: dict, out: Dict[str, float]) -> None:
        """Env and revocation metrics since ``marks`` (see :meth:`marks`);
        ``server_metrics`` is the ``json`` part of the ``metrics`` op."""
        latencies = self.revoke_latencies_s[marks["revokes"] :]
        out["revoke.p50_ms"] = median(latencies) * 1e3
        out["revoke.p99_ms"] = quantile(latencies, 0.99) * 1e3
        out["revoke.sweep_ms"] = median(self.sweeps_s[marks["sweeps"] :]) * 1e3
        out["env.move_rtt_us"] = median(self.move_rtts_s[marks["moves"] :]) * 1e6
        out["env.advance_rtt_ms"] = median(self.advance_rtts_s[marks["advances"] :]) * 1e3
        out["env.revision_bumps"] = self.revision_bumps - marks["bumps"]
        histogram = server_metrics["histograms"]["pdp.revocation_latency"]
        out["revoke.server_enqueue_p99_ms"] = histogram["p99_us"] / 1e3


def live_runtime(policy):
    """In-process mirror of a live-churn server's environment at set-up."""
    from repro.env.runtime import EnvironmentRuntime
    from repro.env.temporal import time_window

    runtime = EnvironmentRuntime(start=datetime.fromisoformat(SIM_START))
    runtime.define_time_role(policy, "free-time", time_window(*FREE_TIME))
    for i in range(CALLERS):
        runtime.define_location_role(policy, f"in-kitchen-{i}", f"kid-{i}", "kitchen")
        runtime.location.move(f"kid-{i}", "kitchen")
    return runtime


def initial_grants() -> List[tuple]:
    """One free-time grant per child and one videophone grant per caller."""
    shapes = [(f"kid-{i}", "watch", "den/tv", None) for i in range(KIDS)]
    shapes += [(f"kid-{i}", "call", "kitchen/videophone", None) for i in range(CALLERS)]
    return shapes
