"""Seeded inputs of the three benchmark workloads, and their oracle.

Everything here is built before any timing starts.  A workload's
inputs are a DSL policy text (the only thing the server is given) and
a list of request *shapes*; the same seed always yields the same
shapes.  A shape is ``(subject, transaction, object, env)`` where
``env`` is a sorted tuple of explicitly active environment roles, or
``None`` for a request decided against the server's live environment.

Expected answers come from the naive mediation engine, the executable
reading of paper §4.2.4.  At about 330 µs per decision on the
4000-permission policy it is the slowest part of a run, so distinct
shapes are decided once each, on two worker processes (this file run
as a script, which is waited for on every path out of :func:`oracle`).
"""

from __future__ import annotations

import math
import os
import pickle
import random
import subprocess
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

Shape = Tuple[str, str, str, Optional[Tuple[str, ...]]]

HOMES = 500
ENT_ENV_ROLES = ("kitchen-occupied", "weekday-free-time", "weekend")
TRANSACTIONS = ("power_on", "query_status", "watch")
PDP_CACHE = 4096  # `repro serve` default --cache-size
WORKING_SET = 400  # warm-replay: draws the replayed shapes come from

# live-churn policy: 1000 children with a free-time grant on the den
# TV, of whom CALLERS also may use the kitchen videophone while they
# themselves are in the kitchen (§4.2.2).
KIDS = 1000
CALLERS = 64
FREE_TIME = ("19:00", "22:00")


@dataclass(frozen=True)
class Spec:
    """Fixed shape of one workload (the seed varies only the draws)."""

    name: str
    wire: str
    #: Open-loop arrival rate: 0.06x-0.35x the seed's capacity_rps.
    rate: float
    #: Closed-loop inputs per second of its nominal length, about the
    #: seed's capacity_rps.  The loop ends when they are used up (or at
    #: twice its nominal length), so every version does the same work:
    #: on live-churn each input may leave a standing grant behind.
    capacity_inputs: float
    live: bool = False


SPECS: Dict[str, Spec] = {
    "warm-replay": Spec("warm-replay", "json", rate=2000.0, capacity_inputs=10000.0),
    "cold-stream": Spec("cold-stream", "binary", rate=2700.0, capacity_inputs=7000.0),
    "live-churn": Spec("live-churn", "binary", rate=600.0, capacity_inputs=5000.0, live=True),
}


# ----------------------------------------------------------------------
# Policies
# ----------------------------------------------------------------------
def entertainment_dsl() -> str:
    """§5.1's entertainment policy instanced across ``HOMES`` homes.

    Eight rules per home (4000 permissions at 500 homes): children
    watch entertainment in free time and play games at weekends,
    parents use everything, and the §3 negative right keeps children
    off safety-critical devices.
    """
    lines = [
        "subject role family-member",
        "subject role parent extends family-member",
        "subject role child extends family-member",
    ]
    lines += [f"environment role {role}" for role in ENT_ENV_ROLES]
    for i in range(HOMES):
        lines += [
            f"subject role parent-{i} extends parent",
            f"subject role child-{i} extends child",
            f"subject mom-{i} is parent-{i}",
            f"subject alice-{i} is child-{i}",
            f"object role entertainment-{i}",
            f"object role television-{i} extends entertainment-{i}",
            f"object role game-devices-{i} extends entertainment-{i}",
            f"object role safety-critical-{i}",
            f"object home{i}/tv is television-{i}",
            f"object home{i}/stereo is entertainment-{i}",
            f"object home{i}/console is game-devices-{i}",
            f"object home{i}/oven is safety-critical-{i}",
            f"allow child-{i} to watch on entertainment-{i} "
            "when weekday-free-time",
            f"allow child-{i} to power_on on game-devices-{i} when weekend",
            f"allow parent-{i} to watch, power_on on entertainment-{i}",
            f"allow parent-{i} to power_on on safety-critical-{i} "
            "when kitchen-occupied",
            f"deny child-{i} to power_on on safety-critical-{i}",
            f"allow child-{i} to query_status on entertainment-{i}",
            f"allow parent-{i} to query_status on safety-critical-{i}",
        ]
    return "\n".join(lines) + "\n"


def churn_dsl() -> str:
    """The live-churn policy.  Its environment roles are declared here
    and bound to conditions over the wire (``env`` op) at set-up."""
    lines = [
        "subject role child",
        "object role entertainment",
        "object role phones",
        "object den/tv is entertainment",
        "object kitchen/videophone is phones",
        "environment role free-time",
        "allow child to watch on entertainment when free-time",
    ]
    for i in range(CALLERS):
        lines += [
            f"subject role caller-{i}",
            f"environment role in-kitchen-{i}",
            f"allow caller-{i} to call on phones when in-kitchen-{i}",
        ]
    for i in range(KIDS):
        roles = "child" + (f", caller-{i}" if i < CALLERS else "")
        lines.append(f"subject kid-{i} is {roles}")
    return "\n".join(lines) + "\n"


def policy_text(spec: Spec) -> str:
    return churn_dsl() if spec.live else entertainment_dsl()


# ----------------------------------------------------------------------
# Request shapes
# ----------------------------------------------------------------------
def _zipf_weights(n: int) -> List[float]:
    return [1.0 / (rank + 1) for rank in range(n)]


class _EntertainmentDraw:
    """Draws request shapes against the entertainment policy.

    Half the draws stay within one home (so grants are a real share of
    answers); the other half pick subject and object Zipf-weighted over
    the whole policy, like ``repro.workload.generate_requests``.  Every
    shape carries an explicit environment-role set.
    """

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.subjects = [
            name for i in range(HOMES) for name in (f"mom-{i}", f"alice-{i}")
        ]
        self.objects = [
            f"home{i}/{device}"
            for i in range(HOMES)
            for device in ("tv", "stereo", "console", "oven")
        ]
        # One popularity ranking for every seed: which subjects and
        # objects are hot is a property of the workload, and a seed
        # that made a costlier entity hot would move the figures.
        ranking = random.Random(HOMES)
        ranking.shuffle(self.subjects)
        ranking.shuffle(self.objects)
        self.subject_cum = list(_cumulative(_zipf_weights(len(self.subjects))))
        self.object_cum = list(_cumulative(_zipf_weights(len(self.objects))))

    def env(self) -> Tuple[str, ...]:
        count = self.rng.randint(0, 2)
        return tuple(sorted(self.rng.sample(ENT_ENV_ROLES, count)))

    def __call__(self) -> Shape:
        rng = self.rng
        transaction = rng.choice(TRANSACTIONS)
        if rng.random() < 0.5:
            home = rng.randrange(HOMES)
            subject = rng.choice((f"mom-{home}", f"alice-{home}"))
            obj = f"home{home}/" + rng.choice(("tv", "stereo", "console", "oven"))
        else:
            subject = rng.choices(self.subjects, cum_weights=self.subject_cum)[0]
            obj = rng.choices(self.objects, cum_weights=self.object_cum)[0]
        return (subject, transaction, obj, self.env())


def _cumulative(weights: Sequence[float]):
    total = 0.0
    for weight in weights:
        total += weight
        yield total


def warm_shapes(seed: int, count: int) -> List[Shape]:
    """``count`` draws replayed from a working set of ~``WORKING_SET`` shapes."""
    rng = random.Random(seed)
    draw = _EntertainmentDraw(rng)
    pool = list(dict.fromkeys(draw() for _ in range(WORKING_SET)))
    return [rng.choice(pool) for _ in range(count)]


def cold_shapes(seed: int, count: int) -> List[Shape]:
    """A fresh stream: mostly shapes never seen before."""
    draw = _EntertainmentDraw(random.Random(seed))
    return [draw() for _ in range(count)]


def churn_shapes(seed: int, count: int) -> List[Shape]:
    """Subscribed decides against the live environment.

    Most ask to watch the den TV (a free-time grant); one in fifty
    asks for the videophone, half of those from a caller (granted
    while that caller is in the kitchen) and half from any child.
    """
    rng = random.Random(seed)
    shapes: List[Shape] = []
    for _ in range(count):
        if rng.random() < 0.02:
            kid = rng.randrange(CALLERS) if rng.random() < 0.5 else rng.randrange(KIDS)
            shapes.append((f"kid-{kid}", "call", "kitchen/videophone", None))
        else:
            shapes.append((f"kid-{rng.randrange(KIDS)}", "watch", "den/tv", None))
    return shapes


def arrivals(seed: int, rate: float, seconds: float) -> List[float]:
    """Poisson arrival offsets (seconds) at ``rate`` over ``seconds``."""
    rng = random.Random(seed ^ 0x5EED)
    offsets: List[float] = []
    t = 0.0
    while True:
        t += rng.expovariate(rate)
        if t >= seconds:
            return offsets
        offsets.append(t)


def repeat_ratio(shapes: Sequence[Shape]) -> float:
    """Share of draws whose shape already occurred earlier."""
    return 1.0 - len(set(shapes)) / len(shapes) if shapes else 0.0


# ----------------------------------------------------------------------
# Oracle
# ----------------------------------------------------------------------
def _decide_chunk(text: str, shapes: Sequence[Shape]) -> List[bool]:
    from repro.core.decision import AccessRequest
    from repro.core.mediation import MediationEngine
    from repro.policy import compile_policy

    engine = MediationEngine(compile_policy(text), mode="naive")
    return [
        engine.decide(
            AccessRequest(transaction, obj, subject=subject),
            environment_roles=set(env or ()),
        ).granted
        for subject, transaction, obj, env in shapes
    ]


def oracle(text: str, shapes: Sequence[Shape], workers: int = 2) -> Dict[Shape, bool]:
    """Naive-engine answers for every distinct shape (env taken as given)."""
    distinct = list(dict.fromkeys(shapes))
    if len(distinct) < 2000 or workers < 2:
        return dict(zip(distinct, _decide_chunk(text, distinct)))
    size = math.ceil(len(distinct) / workers)
    chunks = [distinct[i : i + size] for i in range(0, len(distinct), size)]
    import repro

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
    procs: List[subprocess.Popen] = []
    try:
        for chunk in chunks:
            proc = subprocess.Popen(
                [sys.executable, os.path.abspath(__file__)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
            )
            procs.append(proc)
            # A worker reads all of its input before it writes anything.
            pickle.dump((text, chunk), proc.stdin)
            proc.stdin.close()
        answers: Dict[Shape, bool] = {}
        for chunk, proc in zip(chunks, procs):
            answers.update(zip(chunk, pickle.load(proc.stdout)))
            proc.stdout.close()
            if proc.wait() != 0:
                raise RuntimeError(f"oracle worker exited with {proc.returncode}")
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    return answers


if __name__ == "__main__":  # an oracle worker: (text, shapes) in, answers out
    _text, _shapes = pickle.load(sys.stdin.buffer)
    pickle.dump(_decide_chunk(_text, _shapes), sys.stdout.buffer)
