"""The ``serve_mix`` workload: two closed-loop clients against a
``cli serve`` subprocess.

Each client sends its own seeded stream of grid plans (2 kernels x 3
machine points, fast scale) and sends the next plan only once the last
one's table is back.  Four plans in five replay cells the base grid
already cached; every fifth carries an override of one
:class:`~repro.uarch.config.MachineConfig` field to a value no other plan
in the run uses, so its cells run through the server's pool.  The
client polls plan status every :data:`POLL_S` seconds.
"""

from __future__ import annotations

import json
import random
import signal
import subprocess
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .common import (CHILD_TIMEOUT_S, JOBS, ROOT, Tally, cli_argv,
                     fresh_dir, repro_env)

#: Plans each client sends per pass.
PLANS_PER_CLIENT = 100
#: Every FRESH_EVERY-th plan of a stream carries a fresh override.
FRESH_EVERY = 5
#: Distinct replay plans per client; replays cycle among them, so every
#: replayed table can be compared with its first serve.
REPLAY_SHAPES = 12
KERNELS_PER_PLAN = 2
POINTS_PER_PLAN = 3
#: Status poll interval: well under the replay round trip (~15 ms on the
#: reference host), unlike ``SweepClient.wait``'s 50 ms default.
POLL_S = 0.002
#: Quotas far above any rate two closed-loop clients reach, so a faster
#: server never earns a 429.
QUOTA = 10 ** 9
SERVER_START_TIMEOUT_S = 60.0

#: Fresh-override candidates: valid, non-default values of MachineConfig
#: fields that change timing but keep a cell's cost within a small
#: factor of the default.
FRESH_VALUES: Dict[str, Tuple[int, ...]] = {
    "max_frames": (2, 3, 4, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15, 16),
    "hop_latency": (2, 3, 4),
    "port_bandwidth": (1, 2, 3, 5, 6, 7, 8),
    "dram_latency": tuple(v for v in range(50, 205, 5) if v != 100),
    "l2_hit_latency": tuple(v for v in range(6, 25) if v != 12),
    "lsq_forward_latency": (1, 3, 4, 5, 6),
    "block_fetch_cycles": (1, 2, 4, 5, 6),
    "txwave_epoch_blocks": (1, 2, 3, 5, 6, 7, 8),
}


@dataclass(frozen=True)
class PlanRequest:
    kind: str                    # "replay" | "fresh"
    body: str                    # canonical JSON of the POST /plans body

    @property
    def request(self) -> dict:
        return json.loads(self.body)


def _request(kernels: Sequence[str], points: Sequence[str],
             overrides: Optional[dict] = None) -> str:
    body = {"kernels": list(kernels), "points": list(points), "fast": True}
    if overrides:
        body["overrides"] = overrides
    return json.dumps(body, sort_keys=True)


def make_streams(seed: int, kernels: Sequence[str], points: Sequence[str],
                 clients: int = JOBS, plans: int = PLANS_PER_CLIENT
                 ) -> List[List[PlanRequest]]:
    """One plan stream per client, a pure function of the arguments.

    Fresh overrides are drawn without replacement from one pool shared
    by all clients, so no two fresh plans of a run share a (field, value)
    pair.  Fresh plans take their kernels two at a time from seeded
    permutations of the whole kernel list, so every seed spreads the
    fresh work evenly over the kernels.
    """
    rng = random.Random(seed)
    pool = [(name, value) for name, values in sorted(FRESH_VALUES.items())
            for value in values]
    rng.shuffle(pool)
    fresh_needed = clients * (plans // FRESH_EVERY)
    if fresh_needed > len(pool):
        raise ValueError(f"{fresh_needed} fresh plans need more than the "
                         f"{len(pool)} distinct overrides available")
    order: List[str] = []
    streams = []
    for _ in range(clients):
        shapes = [_request(sorted(rng.sample(list(kernels),
                                             KERNELS_PER_PLAN)),
                           rng.sample(list(points), POINTS_PER_PLAN))
                  for _ in range(REPLAY_SHAPES)]
        stream = []
        for index in range(plans):
            if index % FRESH_EVERY == FRESH_EVERY - 1:
                if len(order) < KERNELS_PER_PLAN:
                    permutation = list(kernels)
                    rng.shuffle(permutation)
                    order.extend(permutation)
                pair = sorted(order[:KERNELS_PER_PLAN])
                del order[:KERNELS_PER_PLAN]
                name, value = pool.pop()
                stream.append(PlanRequest("fresh", _request(
                    pair, rng.sample(list(points), POINTS_PER_PLAN),
                    {name: value})))
            else:
                stream.append(PlanRequest("replay", rng.choice(shapes)))
        streams.append(stream)
    return streams


# ----------------------------------------------------------------------
# The server subprocess
# ----------------------------------------------------------------------

class Server:
    """A ``cli serve`` child with a fresh cache under the scratch space."""

    def __init__(self, name: str):
        self.dir = fresh_dir(name)
        self.port = 0
        self.proc: Optional[subprocess.Popen] = None

    def start(self) -> None:
        port_file = self.dir / "port"
        argv = cli_argv("serve", "--jobs", str(JOBS), "--port", "0",
                        "--port-file", str(port_file),
                        "--cache-dir", str(self.dir / "cache"),
                        "--quota-capacity", str(QUOTA),
                        "--quota-refill", str(QUOTA),
                        "--drain-linger", "0")
        with open(self.dir / "server.log", "wb") as log:
            self.proc = subprocess.Popen(argv, cwd=ROOT, env=repro_env(),
                                         stdout=log, stderr=log)
        try:
            self._wait_ready(port_file)
        except BaseException:
            self.stop()
            raise

    def _wait_ready(self, port_file) -> None:
        from repro.harness.client import ServerError, SweepClient
        deadline = time.monotonic() + SERVER_START_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with code "
                                   f"{self.proc.returncode}: "
                                   f"{self.log_tail()}")
            text = port_file.read_text() if port_file.exists() else ""
            if text.strip():
                self.port = int(text)
                try:
                    SweepClient(port=self.port, timeout=5.0).healthz()
                    return
                except ServerError:
                    pass
            time.sleep(0.002)
        raise RuntimeError("server did not answer /healthz in time")

    def client(self, tenant: str):
        from repro.harness.client import SweepClient
        return SweepClient(port=self.port, tenant=tenant,
                           timeout=CHILD_TIMEOUT_S)

    def log_tail(self) -> str:
        try:
            return (self.dir / "server.log").read_text()[-2000:]
        except OSError:
            return ""

    def stop(self) -> int:
        """Drain (SIGTERM) and reap the server and its pool workers."""
        if self.proc is None:
            return 0
        proc, self.proc = self.proc, None
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                return proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
        return proc.wait()


# ----------------------------------------------------------------------
# Driving the server
# ----------------------------------------------------------------------

@dataclass
class Sample:
    kind: str
    body: str
    start: float
    rt: float
    submit: float = 0.0
    wait: float = 0.0
    table_s: float = 0.0
    polls: int = 0
    table: Optional[str] = None
    error: Optional[str] = None


def round_trip(client, plan: PlanRequest, tracer=None) -> Sample:
    """Submit one plan, poll it to a terminal state, fetch its table."""
    from repro.harness.client import ServerError
    start = time.perf_counter()
    sample = Sample(plan.kind, plan.body, start, 0.0)
    root = tracer.open("client.plan") if tracer else None
    try:
        t0 = time.perf_counter()
        plan_id = client.submit(plan.request)
        t1 = time.perf_counter()
        sample.submit = t1 - t0
        while True:
            status = client.status(plan_id)
            sample.polls += 1
            if status["state"] in ("done", "failed"):
                break
            time.sleep(POLL_S)
        t2 = time.perf_counter()
        sample.wait = t2 - t1
        if status["state"] != "done":
            sample.error = f"plan ended {status['state']}"
        else:
            sample.table = client.table(plan_id)
            sample.table_s = time.perf_counter() - t2
    except ServerError as exc:
        sample.error = (f"HTTP {exc.status}" if exc.status
                        else "transport error")
    sample.rt = time.perf_counter() - start
    if tracer:
        tracer.close(root)
        _record_phases(tracer, root, sample)
    return sample


def _record_phases(tracer, root: list, sample: Sample) -> None:
    """Child spans for the submit / wait / table legs, from the times the
    round trip already took (so tracing adds no calls inside it)."""
    from .tracing import NAME, START, END, PARENT, PID, TID, CID, ARGS
    cursor = root[START]
    for name, seconds, args in (
            ("client.submit", sample.submit, None),
            ("client.wait", sample.wait, {"polls": sample.polls}),
            ("client.table", sample.table_s, None)):
        span = [None] * 8
        span[NAME], span[START], span[END] = name, cursor, cursor + seconds
        span[PARENT], span[PID], span[TID] = root, root[PID], root[TID]
        span[CID], span[ARGS] = None, args
        tracer.spans.append(span)
        cursor += seconds
    root[ARGS] = {"kind": sample.kind, "failed": int(bool(sample.error))}


def run_pass(server: Server, streams: List[List[PlanRequest]],
             tracer=None) -> Tuple[float, List[Sample]]:
    """Run every stream at once, one closed-loop client thread each;
    returns the pass's wall time and every round trip."""
    results: List[List[Sample]] = [[] for _ in streams]
    errors: List[BaseException] = []
    barrier = threading.Barrier(len(streams) + 1)

    def drive(index: int) -> None:
        client = server.client(f"client-{index}")
        barrier.wait()
        try:
            for plan in streams[index]:
                results[index].append(round_trip(client, plan, tracer))
        except BaseException as exc:        # re-raised on the caller
            errors.append(exc)

    threads = [threading.Thread(target=drive, args=(i,), daemon=True)
               for i in range(len(streams))]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join(CHILD_TIMEOUT_S)
    wall = time.perf_counter() - start
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a client thread did not finish in time")
    if errors:
        raise errors[0]
    return wall, [s for stream in results for s in stream]


def check_samples(samples: List[Sample], first: Dict[str, str],
                  tally: Tally) -> None:
    """Count failed plans and tables that differ from the first serve of
    the same request (``first`` is filled as requests are first seen)."""
    for sample in sorted(samples, key=lambda s: s.start):
        if sample.error:
            tally.fail(sample.error)
            continue
        reference = first.setdefault(sample.body, sample.table)
        tally.check(sample.table == reference,
                    "a table differs from the first serve of its request")


def warm_grid(server: Server, kernels: Sequence[str],
              points: Sequence[str]) -> Sample:
    """The base grid (every kernel x every point, fast scale)."""
    return round_trip(server.client("setup"),
                      PlanRequest("replay", _request(kernels, points)))


def start_warmed(name: str, kernels: Sequence[str], points: Sequence[str],
                 tally: Tally) -> Tuple[Server, float]:
    """A fresh server, timed from spawn through ``/healthz`` and the
    base-grid warm plan; returns it running, with its set-up seconds."""
    server = Server(name)
    start = time.perf_counter()
    server.start()
    try:
        grid = warm_grid(server, kernels, points)
    except BaseException:
        server.stop()
        raise
    seconds = time.perf_counter() - start
    tally.check(grid.error is None, f"base grid: {grid.error}")
    return server, seconds


def server_counts(client) -> Dict[str, int]:
    """The server's cell counters from ``/metrics``."""
    cells = client.metrics()["server"]["cells"]
    return {"executed": cells["executed"], "from_cache": cells["from_cache"],
            "elided": cells["elided"],
            "dedup_inflight_hits": cells["dedup_inflight_hits"]}

