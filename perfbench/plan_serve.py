"""Workload ``plan_serve``: a planning server under a closed-loop Zipf stream.

Each repetition starts a fresh ``repro-plan serve`` process with an
empty cache, warms it with one solve on a shape outside the stream, and
sends its own seeded Zipf stream of planning requests from two client
connections in one process, each sending its next request when the last
reply arrives (closed loop).  Keys range over five pipeline shapes
(BLAST with calibrated and with optimistic ``b``, BLAST with service
times 10% up and down, and the ``synthetic`` app's model) times a grid
over the paper's tau0 in [1, 100] and D in [2e4, 3.5e5], infeasible
points included.

Most requests are cache hits bound by the JSON-lines server; the rest
are warm or cold solves.  Hits read the cache and misses write it, so a
gain for one that costs the other shows as p50 against the tail.

The run's seed seeds the repetitions' streams in turn, so the figures
(medians over repetitions) average over several streams.
"""

from __future__ import annotations

import json
import select
import socket
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from perfbench.common import Check, Measured, another, child_env
from perfbench.stats import Tail, median, tail, tail_q, beyond

N_REQUESTS = 1200
CLIENTS = 2
ZIPF_EXPONENT = 1.1
TAU0S = np.geomspace(1.0, 100.0, 12)
DEADLINES = np.geomspace(2.0e4, 3.5e5, 10)
READY_TIMEOUT_S = 60.0
REPLY_TIMEOUT_S = 60.0

_BLAST_T = (287.0, 955.0, 402.0, 2753.0)
_BLAST_G = (0.379, 1.92, 0.0332, 1.0)
_BLAST_B = (1.0, 3.0, 9.0, 6.0)

#: (service times, mean gains, vector width, b or None for optimistic).
SHAPES = (
    (_BLAST_T, _BLAST_G, 128, _BLAST_B),
    (_BLAST_T, _BLAST_G, 128, None),
    (tuple(1.1 * t for t in _BLAST_T), _BLAST_G, 128, _BLAST_B),
    (tuple(0.9 * t for t in _BLAST_T), _BLAST_G, 128, _BLAST_B),
    ((300.0, 300.0, 300.0), (0.5, 2.0, 0.3), 8, (1.0, 3.0, 1.0)),
)

#: The warm-up request: a shape the stream never uses.
WARMUP = ((tuple(1.3 * t for t in _BLAST_T), _BLAST_G, 128, _BLAST_B),
          20.0, 1.5e5)


def _wire(shape, tau0: float, deadline: float) -> dict:
    t, g, v, b = shape
    obj = {
        "pipeline": {"service_times": list(t), "mean_gains": list(g),
                     "vector_width": v},
        "tau0": float(tau0),
        "deadline": float(deadline),
    }
    if b is not None:
        obj["b"] = list(b)
    return obj


@dataclass
class State:
    seed_base: int
    keys: list  # (shape index, tau0, deadline) per distinct key
    lines: list  # encoded request line per key
    setup_samples: list


def prepare(seed: int) -> State:
    """The key space; streams are drawn and servers timed per repetition."""
    keys = [(s, float(a), float(d)) for s in range(len(SHAPES))
            for a in TAU0S for d in DEADLINES]
    lines = [(json.dumps(_wire(SHAPES[s], a, d)) + "\n").encode()
             for s, a, d in keys]
    return State(seed * 1000, keys, lines, [])


def _draw(state: State, seed: int) -> np.ndarray:
    """A Zipf stream of key indices; key popularity is a seeded shuffle."""
    rng = np.random.default_rng(seed)
    rank = rng.permutation(len(state.keys))
    weights = 1.0 / np.arange(1, len(state.keys) + 1) ** ZIPF_EXPONENT
    return rank[rng.choice(len(state.keys), size=N_REQUESTS,
                           p=weights / weights.sum())]


class _Server:
    """A ``repro-plan serve`` child process on an ephemeral port."""

    def __init__(self) -> None:
        self.host, self.port = "", None
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.planning.cli", "serve",
             "--port", "0"],
            stdout=subprocess.PIPE, env=child_env(), text=True,
        )
        try:
            line = self._ready_line()
            self.host, port = line.split()[-1].rsplit(":", 1)
            self.port = int(port)
        except BaseException:
            self.close()
            raise

    def _ready_line(self) -> str:
        end = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < end:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline()
                if "serving on" in line:
                    return line
                if not line:
                    break
        raise RuntimeError("planning server did not become ready")

    def connect(self) -> "_Conn":
        return _Conn(self.host, self.port)

    def close(self) -> None:
        """Ask for a graceful drain; kill if it does not exit in time."""
        if self.port is None:
            self.proc.kill()
        elif self.proc.poll() is None:
            try:
                with self.connect() as conn:
                    conn.call({"op": "shutdown"})
            except OSError:
                pass
        try:
            self.proc.communicate(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()


class _Conn:
    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port),
                                             timeout=REPLY_TIMEOUT_S)
        self.file = self.sock.makefile("rb")

    def send_line(self, line: bytes) -> dict:
        self.sock.sendall(line)
        reply = self.file.readline()
        if not reply:
            raise ConnectionError("server closed the connection")
        return json.loads(reply)

    def call(self, obj: dict) -> dict:
        return self.send_line((json.dumps(obj) + "\n").encode())

    def __enter__(self) -> "_Conn":
        return self

    def __exit__(self, *exc) -> None:
        self.file.close()
        self.sock.close()


def _send(state: State, stream, server: _Server, tracer, rep: int):
    """Send ``stream`` over ``CLIENTS`` closed-loop connections."""
    n = len(stream)
    replies: list = [None] * n
    wire_s = np.zeros(n)
    cursor = iter(range(n))
    lock = threading.Lock()
    failures: list = []

    def client() -> None:
        try:
            with server.connect() as conn:
                while True:
                    with lock:
                        i = next(cursor, None)
                    if i is None:
                        return
                    line = state.lines[stream[i]]
                    with tracer.span("serving:request", request=f"{rep}/{i}"):
                        t0 = time.perf_counter()
                        replies[i] = conn.send_line(line)
                        wire_s[i] = time.perf_counter() - t0
        except (OSError, ValueError) as exc:
            failures.append(repr(exc))

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return replies, wire_s, time.perf_counter() - t0, failures


def measure(state: State, seconds: float, tracer) -> Measured:
    reps, errors, durations = [], [], []
    t_end = time.perf_counter() + seconds
    while another(t_end, durations, errors):
        rep = len(reps) + len(errors)
        stream = _draw(state, state.seed_base + rep)
        t0 = time.perf_counter()
        with tracer.span("serving:start", request=f"{rep}"):
            server = _Server()
        try:
            with server.connect() as conn:
                warm = conn.call(_wire(*WARMUP))
            state.setup_samples.append(time.perf_counter() - t0)
            if "error" in warm:
                raise RuntimeError(f"warm-up failed: {warm}")
            replies, wire_s, wall, failures = _send(state, stream, server,
                                                    tracer, rep)
            with server.connect() as conn:
                stats = conn.call({"op": "stats"})
                health = conn.call({"op": "health"})
        except Exception as exc:  # a broken server is counted, not fatal
            errors.append(repr(exc))
            continue
        finally:
            server.close()
        durations.append(time.perf_counter() - t0)
        reps.append({"stream": stream, "replies": replies,
                     "wire_s": wire_s, "wall": wall,
                     "failures": failures, "stats": stats,
                     "health": health})
    if not reps:
        raise RuntimeError("every server repetition failed: " + errors[-1])
    n = N_REQUESTS
    bad = [sum(r is None or "error" in r for r in rep["replies"])
           for rep in reps]
    attempted = n * len(reps) + n * len(errors)
    failed = sum(bad) + n * len(errors)
    ms = [rep["wire_s"] * 1e3 for rep in reps]
    q = tail_q(n)
    return Measured(
        throughput=median([n / rep["wall"] for rep in reps]),
        p50_ms=median([np.median(x) for x in ms]),
        tail=Tail(q, median([np.quantile(x, q) for x in ms]), n,
                  beyond(n, q)),
        success=1.0 - failed / attempted,
        attempted=attempted,
        failed=failed,
        raw={"reps": reps, "errors": errors},
        notes=[f"{len(reps)} servers x {n} requests over "
               f"{[len(set(r['stream'].tolist())) for r in reps]} distinct "
               f"keys, {CLIENTS} closed-loop clients"],
    )


def _request(state: State, k: int):
    from repro.planning.cli import parse_request

    return parse_request(json.loads(state.lines[k]))


def _replay(state: State, order: list, tracer) -> dict:
    """Solve each distinct key in-process, in the order the servers met them."""
    from repro.planning.cache import PlanCache
    from repro.planning.warmstart import solve_plan

    cache = PlanCache(capacity=4 * len(state.keys))
    out = {}
    for k in order:
        req = _request(state, k)
        with tracer.span("core:solve", request=f"key-{k}"):
            t0 = time.perf_counter()
            outcome = solve_plan(req.problem, req.b, cache=cache)
            seconds = time.perf_counter() - t0
        out[k] = (outcome, seconds)
    return {"solutions": out, "cache": cache}


def _same_plan(reply: dict, sol) -> bool:
    """A server reply and an in-process solution describe the same plan.

    Feasibility must agree exactly.  The active fraction and the waits
    may differ in the last digits, because a warm start seeded from
    whichever neighbour the cache held converges to the same optimum by
    a different path.
    """
    if reply["feasible"] != bool(sol.feasible):
        return False
    if not sol.feasible:
        return True
    waits = np.asarray(sol.waits, dtype=float)
    return bool(
        np.isclose(reply["active_fraction"], sol.active_fraction,
                   rtol=1e-6, atol=1e-9)
        and np.allclose(reply["waits"], waits, rtol=1e-4,
                        atol=1e-6 * max(1.0, float(np.max(np.abs(waits)))))
    )


def _answer(reply: dict) -> tuple:
    return (reply["feasible"], reply["active_fraction"],
            tuple(reply["waits"]), tuple(reply["periods"]))


def check(state: State, m: Measured, tracer) -> list[Check]:
    reps = m.raw["reps"]
    checks = [Check("plan_serve.servers_completed", not m.raw["errors"],
                    "; ".join(m.raw["errors"][:2]))]
    order = list(dict.fromkeys(k for rep in reps
                               for k in rep["stream"].tolist()))
    replay = _replay(state, order, tracer)
    m.raw["replay"] = replay
    for r, rep in enumerate(reps):
        replies = rep["replies"]
        bad = [i for i, x in enumerate(replies) if x is None or "error" in x]
        checks.append(Check(
            f"plan_serve.rep{r}.all_answered",
            not bad and not rep["failures"],
            f"{len(bad)} error or missing replies; {rep['failures'][:2]}"
            if bad or rep["failures"] else "",
        ))
        internal = rep["health"].get("stats", {}).get("internal_errors")
        checks.append(Check(f"plan_serve.rep{r}.no_internal_errors",
                            internal == 0, f"internal_errors={internal}"))
        if bad:
            continue
        by_key: dict = {}
        mismatched = []
        for k, reply in zip(rep["stream"].tolist(), replies):
            by_key.setdefault(k, set()).add(_answer(reply))
            if not _same_plan(reply, replay["solutions"][k][0].solution):
                mismatched.append(k)
        repeats = [k for k, answers in by_key.items() if len(answers) > 1]
        checks.append(Check(f"plan_serve.rep{r}.repeats_identical",
                            not repeats, f"keys {repeats[:5]}"))
        checks.append(Check(f"plan_serve.rep{r}.equals_in_process",
                            not mismatched,
                            f"{len(mismatched)} replies differ, keys "
                            f"{sorted(set(mismatched))[:5]}"))
    shares = _source_shares(reps)
    checks.append(Check(
        "plan_serve.mix", shares["hit"] > 0.5 and
        shares["warm"] + shares["cold"] >= 0.01,
        f"hit {shares['hit']:.3f}, warm {shares['warm']:.3f}, "
        f"cold {shares['cold']:.3f}",
    ))
    return checks


def _source_shares(reps) -> dict:
    counts = Counter(r.get("source") for rep in reps
                     for r in rep["replies"] if r is not None)
    total = sum(counts.values())
    return {s: counts[s] / total for s in ("hit", "warm", "cold")}


def layers(state: State, m: Measured, tracer) -> dict:
    from repro.core.enforced_waits import EnforcedWaitsProblem
    from repro.planning.cache import plan_key

    reps = m.raw["reps"]
    replay = m.raw["replay"]
    by_source: dict = {"hit": [], "warm": [], "cold": []}
    overhead_ms = []
    for rep in reps:
        for reply, wire in zip(rep["replies"], rep["wire_s"]):
            if reply is None or "error" in reply:
                continue
            by_source[reply["source"]].append(reply["seconds"] * 1e3)
            overhead_ms.append((wire - reply["seconds"]) * 1e3)
    # Solve times over feasible keys only: an infeasible key is answered
    # by the feasibility check before any solve.
    solves = {"warm": [], "cold": []}
    for outcome, seconds in replay["solutions"].values():
        if outcome.source in solves and outcome.solution.feasible:
            solves[outcome.source].append(seconds * 1e3)
    cache = replay["cache"]
    lookup_s = []
    for k in reps[0]["stream"].tolist():
        req = _request(state, k)
        with tracer.span("planning:lookup"):
            t0 = time.perf_counter()
            b = EnforcedWaitsProblem(req.problem, req.b).b
            cache.get(plan_key(req.problem, b))
            lookup_s.append(time.perf_counter() - t0)
    shares = _source_shares(reps)

    def stat(field: str) -> float:
        return median([rep["stats"][field] for rep in reps])

    return {
        "core.solve_ms": median(solves["warm"] + solves["cold"]),
        "core.solve_ms.warm": median(solves["warm"] or [0.0]),
        "core.solve_ms.cold": median(solves["cold"]),
        "planning.source_share.hit": shares["hit"],
        "planning.source_share.warm": shares["warm"],
        "planning.source_share.cold": shares["cold"],
        "planning.coalesced": stat("coalesced"),
        "planning.warm_rejects": stat("warm_rejects"),
        "planning.resolve_ms.hit": median(by_source["hit"]),
        "planning.resolve_ms.warm": median(by_source["warm"] or [0.0]),
        "planning.resolve_ms.cold": median(by_source["cold"]),
        "serving.overhead_ms.p50": median(overhead_ms),
        "serving.overhead_ms.tail": tail(overhead_ms).value,
        "planning.lookup_us": median(lookup_s) * 1e6,
    }
