"""The traced run: spans around each layer call, the ledger, the probes.

Spans are recorded only from this benchmark's own code.  While a
:class:`Spans` log is installed, the public functions the wire client
calls into (``repro.service.protocol`` codec functions, as bound in
``repro.service.client``) and :meth:`RemotePDPClient.decide` itself run
through wrappers that keep ``(name, start, end, parent, request id)``
in memory.  Nothing inside ``src/`` is instrumented.

The ledger runs the workload's requests one at a time.  Each request
is sent to the real server with the wrappers on, then its server-side
path is replayed in this process under spans: request decode,
``PolicyDecisionPoint.submit`` (serve-default config, engine calls as
child spans) and response encode; a ping on the same connection
stands for TCP and both event loops.  The client-observed latency
minus the sum of the layers' self times is the unexplained remainder.
"""

from __future__ import annotations

import contextvars
import json
import time
from typing import Callable, Dict, List, Optional, Sequence

import repro.service.client as client_module
from repro.core.mediation import MediationEngine
from repro.policy import compile_policy
from repro.service import protocol
from repro.service.client import RemotePDPClient
from repro.service.pdp import PDPConfig, PolicyDecisionPoint

from serving import median, request_of

_PARENT: contextvars.ContextVar = contextvars.ContextVar("span", default=None)
ROUNDS = 3  # a single-layer probe reports its best of this many passes
PING_N = 500  # pings at concurrency 1 for tcp.ping_rtt_us

# Which ledger layer each span name belongs to (``client.decide`` is the
# client-observed latency the layers are set against).
LAYER_OF = {
    "protocol.encode_request": "service.protocol",
    "protocol.dumps_line": "service.protocol",
    "protocol.encode_binary_request": "service.protocol",
    "protocol.parse_line": "service.protocol",
    "protocol.decode_response": "service.protocol",
    "protocol.decode_binary_response": "service.protocol",
    "server.decode": "service.protocol",
    "server.encode": "service.protocol",
    "tcp.ping": "service.server",
    "pdp.submit": "service.pdp",
    "engine.decide_batch": "core",
    "engine.decide": "core",
}
CLIENT_CODEC = (
    "encode_request",
    "dumps_line",
    "encode_binary_request",
    "parse_line",
    "decode_response",
    "decode_binary_response",
)


def _rid_of(value) -> Optional[object]:
    if isinstance(value, dict):
        return value.get("id")
    return getattr(value, "id", None)


class Spans:
    """In-memory span log: ``[name, start, end, parent, request_id]``."""

    def __init__(self) -> None:
        self.rows: List[list] = []
        self.enabled = True
        #: Explicit parent for spans opened on another task (the PDP's
        #: batcher), valid while one request is in flight.
        self.focus: Optional[int] = None

    def open(self, name: str, parent=None, rid=None) -> int:
        if parent is None:
            parent = _PARENT.get()
        self.rows.append([name, time.perf_counter(), None, parent, rid])
        return len(self.rows) - 1

    def close(self, index: int, rid=None) -> None:
        row = self.rows[index]
        row[2] = time.perf_counter()
        if row[4] is None:
            row[4] = rid

    def wrap(self, name: str, fn: Callable, focused: bool = False) -> Callable:
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = self.open(name, parent=self.focus if focused else None)
            token = _PARENT.set(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                _PARENT.reset(token)
            self.close(index, _rid_of(result) if _PARENT.get() is None else None)
            return result

        return traced

    def wrap_async(self, name: str, fn: Callable) -> Callable:
        async def traced(*args, **kwargs):
            if not self.enabled:
                return await fn(*args, **kwargs)
            index = self.open(name)
            token = _PARENT.set(index)
            try:
                result = await fn(*args, **kwargs)
            finally:
                _PARENT.reset(token)
            self.close(index, _rid_of(result))
            return result

        return traced

    def install_client(self) -> Callable[[], None]:
        """Wrap the client's codec calls and ``decide``; returns undo."""
        saved = {name: getattr(client_module, name) for name in CLIENT_CODEC}
        saved_decide = RemotePDPClient.decide
        for name, fn in saved.items():
            setattr(client_module, name, self.wrap(f"protocol.{name}", fn))
        RemotePDPClient.decide = self.wrap_async("client.decide", saved_decide)

        def undo() -> None:
            for name, fn in saved.items():
                setattr(client_module, name, fn)
            RemotePDPClient.decide = saved_decide

        return undo

    def rid(self, index: int):
        """Request id of a span, inherited from its nearest ancestor."""
        row = self.rows[index]
        while row[4] is None and row[3] is not None:
            row = self.rows[row[3]]
        return row[4]

    def self_times(self) -> List[tuple]:
        """``(name, request id, self seconds)`` for every closed span."""
        covered = [0.0] * len(self.rows)
        for name, start, end, parent, _ in self.rows:
            if parent is not None and end is not None:
                covered[parent] += end - start
        return [
            (row[0], self.rid(i), row[2] - row[1] - covered[i])
            for i, row in enumerate(self.rows)
            if row[2] is not None
        ]

    def dump(self, path: str, phase: str) -> None:
        with open(path, "a") as handle:
            for name, start, end, parent, rid in self.rows:
                handle.write(
                    json.dumps(
                        {"phase": phase, "name": name, "start": start, "end": end,
                         "parent": parent, "request_id": rid}
                    )
                    + "\n"
                )


def build_local_pdp(text: str, live_env):
    """An in-process PDP configured as `repro serve` configures it.

    ``live_env``, unless None, mirrors a live-churn server: a callable that binds
    the same environment roles into an ``EnvironmentRuntime``.
    """
    policy = compile_policy(text)
    runtime = None
    if live_env is not None:
        runtime = live_env(policy)
        engine = MediationEngine(policy, runtime.activator)
        runtime.bind_metrics(engine.metrics)
    else:
        engine = MediationEngine(policy)
    pdp = PolicyDecisionPoint(engine, PDPConfig(), env_revision=runtime)
    return policy, engine, pdp


async def ledger(
    client: RemotePDPClient,
    shapes: Sequence,
    text: str,
    live_env,
    warm: Sequence,
) -> Dict[str, object]:
    """Concurrency-1 decomposition of ``shapes`` (see module doc)."""
    spans = Spans()
    policy, engine, pdp = build_local_pdp(text, live_env)
    tables = protocol.InternTables.from_policy(policy)
    for name in ("decide_batch", "decide"):
        setattr(engine, name, spans.wrap(f"engine.{name}", getattr(engine, name), focused=True))
    binary = client.wire == "binary"
    subscribe = False  # no standing grants from the ledger's requests
    undo = spans.install_client()
    submit_s: List[float] = []
    responses = []
    remote = []
    try:
        async with pdp:
            spans.enabled = False
            for shape in warm:  # the same cache warmth as the server
                await pdp.submit(request_of(shape), environment_roles=_env(shape))
            spans.enabled = True
            for shape in shapes:
                env = _env(shape)
                response = await client.decide(
                    request_of(shape), environment_roles=env, subscribe=subscribe
                )
                rid = response.id
                remote.append(response)
                # Server side, replayed here: decode, submit, encode.
                if binary:
                    body = protocol.encode_binary_request(
                        tables, request_of(shape), rid, env=_frozen(env), subscribe=subscribe
                    )[protocol.FRAME_HEADER.size :]
                    index = spans.open("server.decode", rid=rid)
                    protocol.decode_binary_request_ex(tables, body)
                else:
                    line = protocol.dumps_line(
                        protocol.encode_request(
                            request_of(shape), rid, env=_frozen(env), subscribe=subscribe
                        )
                    )
                    index = spans.open("server.decode", rid=rid)
                    protocol.decode_request(protocol.parse_line(line.strip()))
                spans.close(index)
                index = spans.open("pdp.submit", rid=rid)
                spans.focus = index
                local = await pdp.submit(request_of(shape), environment_roles=env, request_id=rid)
                spans.focus = None
                spans.close(index)
                submit_s.append(spans.rows[index][2] - spans.rows[index][1])
                responses.append(local)
                index = spans.open("server.encode", rid=rid)
                if binary:
                    protocol.encode_binary_response(rid, local)
                else:
                    protocol.dumps_line(protocol.encode_response(rid, local))
                spans.close(index)
                spans.enabled = False
                started = time.perf_counter()
                await client.ping()
                ping_s = time.perf_counter() - started
                spans.enabled = True
                index = spans.open("tcp.ping", rid=rid)
                spans.rows[index][1] = started
                spans.rows[index][2] = started + ping_s
    finally:
        undo()
    return {
        "spans": spans,
        "submit_s": submit_s,
        "responses": responses,
        "remote": remote,
        "tables": tables,
    }


def _env(shape):
    return None if shape[3] is None else set(shape[3])


def _frozen(env):
    return None if env is None else frozenset(env)


def ledger_rows(spans: Spans) -> Dict[str, float]:
    """Median per-request self time of each layer, and of the client
    latency (``client_latency``); a layer a request never reached
    counts as zero for it."""
    latency = {
        row[4]: row[2] - row[1]
        for row in spans.rows
        if row[0] == "client.decide" and row[2] is not None
    }
    per_request: Dict[str, Dict[object, float]] = {}
    for name, rid, self_s in spans.self_times():
        if rid in latency and name != "client.decide":
            layer = per_request.setdefault(LAYER_OF[name], {})
            layer[rid] = layer.get(rid, 0.0) + self_s
    rows = {
        layer: median([times.get(rid, 0.0) for rid in latency])
        for layer, times in sorted(per_request.items())
    }
    rows["client_latency"] = median(list(latency.values()))
    return rows


# ----------------------------------------------------------------------
# Probes of single layers
# ----------------------------------------------------------------------
def _per_call_us(fn: Callable, items: Sequence) -> float:
    """Best-of-``ROUNDS`` mean microseconds of ``fn(item)`` over items."""
    best = float("inf")
    for _ in range(ROUNDS):
        started = time.perf_counter()
        for item in items:
            fn(item)
        best = min(best, (time.perf_counter() - started) / len(items))
    return best * 1e6


def codec_probe(shapes: Sequence, responses: Sequence, tables, subscribe: bool) -> Dict[str, float]:
    """Public encode/decode calls on the workload's own messages."""
    pairs = list(zip(shapes, responses))
    out: Dict[str, float] = {}
    json_req = [
        protocol.dumps_line(
            protocol.encode_request(request_of(s), i, env=_frozen(_env(s)), subscribe=subscribe)
        )
        for i, (s, _) in enumerate(pairs)
    ]
    json_resp = [protocol.dumps_line(protocol.encode_response(i, r)) for i, (_, r) in enumerate(pairs)]
    out["codec.json.req_encode_us"] = _per_call_us(
        lambda p: protocol.dumps_line(
            protocol.encode_request(request_of(p[1][0]), p[0], env=_frozen(_env(p[1][0])), subscribe=subscribe)
        ),
        list(enumerate(pairs)),
    )
    out["codec.json.req_decode_us"] = _per_call_us(
        lambda line: protocol.decode_request(protocol.parse_line(line.strip())), json_req
    )
    out["codec.json.resp_encode_us"] = _per_call_us(
        lambda p: protocol.dumps_line(protocol.encode_response(p[0], p[1][1])), list(enumerate(pairs))
    )
    out["codec.json.resp_decode_us"] = _per_call_us(
        lambda line: protocol.decode_response(protocol.parse_line(line.strip())), json_resp
    )
    out["codec.json.bytes_per_req"] = sum(map(len, json_req + json_resp)) / len(pairs)
    header = protocol.FRAME_HEADER.size
    bin_req = [
        protocol.encode_binary_request(tables, request_of(s), i, env=_frozen(_env(s)), subscribe=subscribe)
        for i, (s, _) in enumerate(pairs)
    ]
    bin_resp = [protocol.encode_binary_response(i, r) for i, (_, r) in enumerate(pairs)]
    out["codec.binary.req_encode_us"] = _per_call_us(
        lambda p: protocol.encode_binary_request(
            tables, request_of(p[1][0]), p[0], env=_frozen(_env(p[1][0])), subscribe=subscribe
        ),
        list(enumerate(pairs)),
    )
    out["codec.binary.req_decode_us"] = _per_call_us(
        lambda frame: protocol.decode_binary_request_ex(tables, frame[header:]), bin_req
    )
    out["codec.binary.resp_encode_us"] = _per_call_us(
        lambda p: protocol.encode_binary_response(p[0], p[1][1]), list(enumerate(pairs))
    )
    out["codec.binary.resp_decode_us"] = _per_call_us(
        lambda frame: protocol.decode_binary_response(frame[header:]), bin_resp
    )
    out["codec.binary.bytes_per_req"] = sum(map(len, bin_req + bin_resp)) / len(pairs)
    return out


def engine_probe(text: str, shapes: Sequence, live_env) -> Dict[str, float]:
    """Policy compile, and ``decide_batch`` cold (fresh engine) and warm."""
    compile_s = []
    for _ in range(ROUNDS):
        started = time.perf_counter()
        policy = compile_policy(text)
        engine = MediationEngine(policy)
        engine.decide(request_of(shapes[0]), environment_roles=_env(shapes[0]) or set())
        compile_s.append(time.perf_counter() - started)
    out = {"engine.compile_s": median(compile_s)}
    requests = [request_of(s) for s in shapes]
    envs = [_env(s) or set() for s in shapes]
    if live_env is not None:  # decide under the live roles, stated explicitly
        runtime = live_env(policy)
        active = set(runtime.active_roles())
        envs = [active] * len(shapes)
    for mode in ("compiled", "vectorized"):
        engine = MediationEngine(policy, mode=mode)
        engine.decide(requests[0], environment_roles=envs[0])  # snapshot build
        started = time.perf_counter()
        engine.decide_batch(requests, environment_roles=envs)
        out[f"engine.{mode}.cold_us"] = (time.perf_counter() - started) / len(requests) * 1e6
        out[f"engine.{mode}.warm_us"] = _per_call_us(
            lambda _: engine.decide_batch(requests, environment_roles=envs), [None]
        ) / len(requests)
    engine = MediationEngine(policy)
    out["engine.compiled.single_us"] = _per_call_us(
        lambda pair: engine.decide(pair[0], environment_roles=pair[1]), list(zip(requests, envs))
    )
    return out


async def ping_rtt_us(client: RemotePDPClient) -> float:
    rtts = []
    for _ in range(PING_N):
        started = time.perf_counter()
        await client.ping()
        rtts.append(time.perf_counter() - started)
    return median(rtts) * 1e6
