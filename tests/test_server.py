"""End-to-end tests for the sweep server (repro.harness.server) and its
blocking client (repro.harness.client).

Most tests run the server on a background thread inside this process
(fast, deterministic, no subprocess plumbing); the SIGTERM drain test
spawns a real ``cli serve`` process and kills it the way an operator
would.
"""

import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.harness import (ParallelRunner, ServerConfig, ServerError,
                           SweepClient, SweepServer)
from repro.harness.cache import ResultCache
from repro.harness.experiments import e1_main, e9_corpus_ordering
from repro.harness.parallel import session_shard_files
from repro.harness.server import (ProgramMemo, ResultMemo, expand_grid,
                                  render_grid_table)
from repro.workloads.common import KernelInstance, KernelSpec

GRID = {"kernels": ["queue"], "points": ["dsre", "aggressive"],
        "fast": True}


class ServerHarness:
    """One in-process server on a background thread."""

    def __init__(self, tmp_path, **overrides):
        overrides.setdefault("cache_dir", str(tmp_path / "cache"))
        overrides.setdefault("batch_window", 0.01)
        overrides.setdefault("drain_linger", 0.0)
        config = ServerConfig(port=0, jobs=2, **overrides)
        self.server = SweepServer(config)
        self.thread = threading.Thread(
            target=self.server.serve_forever,
            kwargs={"install_signals": False}, daemon=True)
        self.thread.start()
        assert self.server.wait_until_serving(30)
        self.client = SweepClient(port=self.server.port)

    def stop(self):
        self.server.request_shutdown()
        self.thread.join(30)
        assert not self.thread.is_alive()


@pytest.fixture
def harness(tmp_path):
    h = ServerHarness(tmp_path)
    yield h
    h.stop()


class TestHTTPBasics:
    def test_healthz(self, harness):
        payload = harness.client.healthz()
        assert payload["status"] == "ok"
        assert payload["port"] == harness.server.port

    def test_unknown_route_404(self, harness):
        with pytest.raises(ServerError) as info:
            harness.client._json("GET", "/nope")
        assert info.value.status == 404

    def test_unknown_plan_404(self, harness):
        with pytest.raises(ServerError) as info:
            harness.client.status("plan-999")
        assert info.value.status == 404

    def test_bad_plans_rejected(self, harness):
        for bad in ({}, {"kernels": ["no-such-kernel"]},
                    {"experiment": "e99"},
                    {"kernels": ["queue"], "points": ["warp-drive"]},
                    {"cells": []}):
            with pytest.raises(ServerError) as info:
                harness.client.submit(bad)
            assert info.value.status == 400
        # Nothing bad ever reached execution.
        metrics = harness.client.metrics()["server"]
        assert metrics["plans"]["submitted"] == 0

    def test_invalid_config_rejected_at_admission(self, harness):
        # Unknown override fields and invalid values are refused when the
        # plan is admitted, not when a worker first derives the config.
        for bad in ({"kernels": ["queue"], "overrides": {"frames": 4}},
                    {"kernels": ["queue"], "points": ["storeset"],
                     "overrides": {"storeset_ssit_size": 1}},
                    {"kernels": ["queue"], "overrides": {"max_frames": "x"}},
                    {"cells": [{"kernel": "queue", "point": "dsre",
                                "overrides": {"frames": 4}}]},
                    {"cells": [{"kernel": "queue", "overrides": ["x"]}]}):
            with pytest.raises(ServerError) as info:
                harness.client.submit(bad)
            assert info.value.status == 400
            assert "config" in str(info.value) or "overrides" in \
                str(info.value)
        metrics = harness.client.metrics()["server"]
        assert metrics["plans"]["submitted"] == 0


class TestPlanExecution:
    def test_grid_table_byte_identical(self, harness):
        served = harness.client.run(GRID, timeout=120)
        expected = render_grid_table(
            ParallelRunner(jobs=1).run_plan(expand_grid(GRID)))
        assert served == expected

    def test_experiment_table_byte_identical(self, harness):
        request = {"experiment": "e1", "fast": True,
                   "kernels": ["queue", "vecsum"]}
        served = harness.client.run(request, timeout=300)
        expected = e1_main(fast=True, runner=ParallelRunner(jobs=1),
                           kernels=["queue", "vecsum"]).render()
        assert served == expected

    def test_e9_corpus_experiment_byte_identical(self, harness):
        # The corpus experiment runs in server experiment mode and
        # renders the exact table an in-process run would.
        request = {"experiment": "e9", "fast": True, "sample": 2}
        served = harness.client.run(request, timeout=300)
        expected = e9_corpus_ordering(
            fast=True, sample=2, runner=ParallelRunner(jobs=1)).render()
        assert served == expected

    def test_e9_bad_sample_rejected(self, harness):
        with pytest.raises(ServerError) as info:
            harness.client.submit({"experiment": "e9", "sample": 0})
        assert info.value.status == 400

    def test_second_run_served_from_cache(self, harness):
        harness.client.run(GRID, timeout=120)
        plan_id = harness.client.submit(GRID)
        status = harness.client.wait(plan_id, timeout=120)
        assert status["metrics"]["from_cache"] == 2
        assert status["metrics"]["executed"] == 0
        assert status["cells"].get("cached") == 2

    def test_status_reports_cells_and_digest(self, harness):
        plan_id = harness.client.submit(GRID)
        status = harness.client.wait(plan_id, timeout=120)
        assert status["state"] == "done"
        assert status["cells"]["total"] == 2
        assert len(status["table_digest"]) == 64
        table = harness.client.table(plan_id)
        states = harness.client.status(plan_id)["cell_states"]
        assert [c["state"] for c in states] == ["done", "done"]
        assert "queue @ dsre" in table

    def test_repeated_cell_shares_its_source_state(self, harness):
        # A cells-mode plan may list one cell twice: the duplicate is
        # resolved with the first one, so it is executed once, reported
        # with its source's state, and counted as a dedup hit, not as a
        # cache hit.
        cell = {"kernel": "queue", "point": "dsre"}
        plan_id = harness.client.submit({"cells": [cell, dict(cell)],
                                         "fast": True})
        status = harness.client.wait(plan_id, timeout=120)
        assert status["state"] == "done"
        assert status["cells"] == {"total": 2, "done": 2}
        assert status["metrics"]["cells"] == 2
        assert status["metrics"]["unique_cells"] == 1
        assert status["metrics"]["executed"] == 1
        assert status["metrics"]["from_cache"] == 0
        cells = harness.client.metrics()["server"]["cells"]
        assert cells["requested"] == 2
        assert cells["executed"] == 1
        assert cells["from_cache"] == 0
        assert cells["dedup_inflight_hits"] == 1
        table = harness.client.table(plan_id)
        assert table.count("queue @ dsre") == 2


class TestReplayCounting:
    def test_replays_count_cached_cells(self, harness):
        # A fully cached plan never reaches the engine's scheduler; its
        # cells still count as requested and served from the cache.
        harness.client.run(GRID, timeout=120)
        before = harness.client.metrics()["server"]["cells"]
        replays = 4
        for _ in range(replays):
            harness.client.run(GRID, timeout=120)
        after = harness.client.metrics()["server"]["cells"]
        assert after["requested"] - before["requested"] == 2 * replays
        assert after["from_cache"] - before["from_cache"] == 2 * replays
        assert after["executed"] == before["executed"]
        assert after["dedup_inflight_hits"] == before["dedup_inflight_hits"]


class TestFinishedPlans:
    def test_finished_plan_bytes_are_pinned(self, harness):
        first = harness.client.submit(GRID)
        harness.client.wait(first, timeout=120)
        second = harness.client.submit(GRID)
        harness.client.wait(second, timeout=120)

        def raw(path):
            status, ctype, data = harness.client._request("GET", path)
            assert status == 200
            return ctype, data

        ctype, detail = raw(f"/plans/{second}")
        assert ctype == "application/json"
        payload = json.loads(detail)
        # The body is the sorted-key JSON of the status fields plus the
        # per-cell states, byte for byte.
        assert detail == json.dumps(payload, sort_keys=True).encode()
        assert sorted(payload) == [
            "cell_states", "cells", "elapsed_seconds", "error", "id",
            "metrics", "state", "table_digest", "tenant"]
        assert payload["cell_states"] == [
            {"label": "queue @ dsre", "state": "cached"},
            {"label": "queue @ aggressive", "state": "cached"}]
        assert payload["cells"] == {"total": 2, "cached": 2}
        assert (payload["id"], payload["state"], payload["error"],
                payload["tenant"]) == (second, "done", None, "default")
        assert payload["metrics"]["from_cache"] == 2
        assert raw(f"/plans/{second}")[1] == detail

        ctype, table = raw(f"/plans/{second}/table")
        assert ctype == "text/plain; charset=utf-8"
        expected = render_grid_table(
            ParallelRunner(jobs=1).run_plan(expand_grid(GRID)))
        assert table == expected.encode()
        assert payload["table_digest"] == \
            hashlib.sha256(table).hexdigest()

        ctype, listing = raw("/plans")
        assert ctype == "application/json"
        plans = json.loads(listing)["plans"]
        assert listing == json.dumps({"plans": plans},
                                     sort_keys=True).encode()
        status = dict(payload)
        del status["cell_states"]
        assert plans[1] == status
        assert [plan["id"] for plan in plans] == [first, second]

    def test_finished_plans_shrink(self, harness):
        first = harness.client.submit(GRID)
        harness.client.wait(first, timeout=120)
        second = harness.client.submit(GRID)
        harness.client.wait(second, timeout=120)
        jobs = [harness.server._jobs[first], harness.server._jobs[second]]
        for job in jobs:
            assert job.request is None and job.metrics is None
            assert job.cells() == []
        # Identical tables are held once.
        assert jobs[0].table is jobs[1].table


class TestSessionWrites:
    def test_shard_writes_are_coalesced(self, harness, monkeypatch):
        from repro.harness import server as server_module
        writes = []
        original = server_module.write_session_shard
        monkeypatch.setattr(
            server_module, "write_session_shard",
            lambda root, payload: (writes.append(payload["plans_run"]),
                                   original(root, payload)))
        harness.client.run(GRID, timeout=120)
        started = time.monotonic()
        for _ in range(8):
            harness.client.run(GRID, timeout=120)
        elapsed = time.monotonic() - started
        interval = server_module.SESSION_WRITE_INTERVAL
        assert len(writes) <= 2 + elapsed / interval
        # /metrics writes the pending update first.
        sessions = harness.client.metrics()["sessions"]
        assert writes[-1] == sessions["plans_run"] == 9


class TestReplayMemos:
    @staticmethod
    def count_calls(monkeypatch, owner, name, calls, delay=0.0):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            if delay:
                time.sleep(delay)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    def counted(self, monkeypatch, delay=0.0):
        calls = {}
        for name in ("build_test", "build_default"):
            self.count_calls(monkeypatch, KernelSpec, name, calls, delay)
        self.count_calls(monkeypatch, KernelInstance, "identity_digest",
                         calls)
        self.count_calls(monkeypatch, ResultCache, "load", calls)
        return calls

    def test_replay_builds_hashes_and_reads_nothing(self, tmp_path,
                                                    monkeypatch):
        # A cache filled by another process: the first serve reads it
        # from disk, the replay only from memory.
        with ParallelRunner(jobs=1, cache=ResultCache(
                str(tmp_path / "cache"))) as runner:
            runner.run_plan(expand_grid(GRID))
        h = ServerHarness(tmp_path)
        try:
            first = h.client.run(GRID, timeout=120)
            calls = self.counted(monkeypatch)
            replay = h.client.run(GRID, timeout=120)
            assert calls == {}
            assert replay == first
            assert len(h.server.results) == 2
        finally:
            h.stop()

    def test_fresh_results_reach_the_next_replay(self, harness,
                                                 monkeypatch):
        first = harness.client.run(GRID, timeout=120)
        calls = self.counted(monkeypatch)
        plan_id = harness.client.submit(GRID)
        status = harness.client.wait(plan_id, timeout=120)
        assert calls.get("load", 0) == 0
        assert harness.client.table(plan_id) == first
        # A memo hit is a cache hit in the plan's SweepMetrics, its cell
        # states, and the server's counters.
        assert status["metrics"]["from_cache"] == 2
        assert status["metrics"]["executed"] == 0
        assert status["cells"] == {"total": 2, "cached": 2}
        cells = harness.client.metrics()["server"]["cells"]
        assert (cells["executed"], cells["from_cache"]) == (2, 2)

    def test_concurrent_plans_build_each_program_once(self, tmp_path,
                                                      monkeypatch):
        h = ServerHarness(tmp_path, batch_window=0.1)
        try:
            # Slow builds, so both plan threads ask while one builds.
            calls = self.counted(monkeypatch, delay=0.2)
            grid = dict(GRID, kernels=["queue", "vecsum"])
            plans = [h.client.submit(grid) for _ in range(2)]
            tables = [h.client.run(grid, timeout=120)]
            for plan_id in plans:
                assert h.client.wait(plan_id, timeout=120)["state"] == \
                    "done"
                tables.append(h.client.table(plan_id))
            assert calls["build_test"] == 2
            assert calls["identity_digest"] == 2
            assert tables[0] == tables[1] == tables[2]
        finally:
            h.stop()

    def test_memo_drops_the_least_recently_used(self):
        memo = ResultMemo(capacity=2)
        memo.put("a", "a")
        memo.put("b", "b")
        assert memo.get("a") == "a"
        memo.put("c", "c")
        assert len(memo) == 2
        assert memo.get("b") is None
        assert (memo.get("a"), memo.get("c")) == ("a", "c")


class TestMemoThreads:
    """The server's memos under plan-thread contention: more threads
    than cores and a short switch interval, so a lost update shows."""

    THREADS = 8

    def hammer(self, work):
        barrier = threading.Barrier(self.THREADS)

        def run(slot):
            barrier.wait(timeout=30)
            work(slot)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(slot,))
                       for slot in range(self.THREADS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)

    def test_program_memo_builds_each_program_once(self, monkeypatch):
        names = ["queue", "vecsum", "histogram"]
        builds = []
        original = KernelSpec.build_test
        monkeypatch.setattr(
            KernelSpec, "build_test",
            lambda spec: (builds.append(spec.name), original(spec))[1])
        memo = ProgramMemo()
        seen = {name: set() for name in names}

        def work(slot):
            for _ in range(20):
                for name in names:
                    seen[name].add(id(memo.kernel(name, True)))

        self.hammer(work)
        assert sorted(builds) == sorted(names)
        assert all(len(ids) == 1 for ids in seen.values())
        assert len(memo.digests()) == len(names)

    def test_result_memo_keeps_its_bound_and_values(self):
        memo = ResultMemo(capacity=64)
        wrong = []

        def work(slot):
            for i in range(200):
                key = f"{slot}:{i}"
                memo.put(key, key)
                for probe in (key, f"{(slot + 1) % self.THREADS}:{i}"):
                    value = memo.get(probe)
                    if value not in (None, probe):
                        wrong.append((probe, value))

        self.hammer(work)
        assert wrong == []
        assert len(memo) == 64


class TestDedupAndQuota:
    def test_identical_plans_share_execution(self, tmp_path):
        # A wider batch window so both submissions land in one batch.
        h = ServerHarness(tmp_path, batch_window=0.1)
        try:
            first = h.client.submit(GRID)
            second = h.client.submit(GRID)
            status_1 = h.client.wait(first, timeout=120)
            status_2 = h.client.wait(second, timeout=120)
            cells = h.client.metrics()["server"]["cells"]
            assert cells["requested"] == 4
            assert cells["executed"] == 2           # not 4
            assert cells["dedup_inflight_hits"] == 2
            hits = (status_1["metrics"]["inflight_dedup_hits"]
                    + status_2["metrics"]["inflight_dedup_hits"])
            assert hits == 2
            assert h.client.table(first) == h.client.table(second)
        finally:
            h.stop()

    def test_quota_exhaustion_returns_429(self, tmp_path):
        h = ServerHarness(tmp_path, quota_capacity=3,
                          quota_refill=0.0001)
        try:
            first = h.client.submit(GRID)           # 2 of 3 tokens
            with pytest.raises(ServerError) as info:
                h.client.submit(GRID)               # needs 2, has 1
            assert info.value.status == 429
            plans = h.client.metrics()["server"]["plans"]
            assert plans["rejected_quota"] == 1
            # The admitted plan is unaffected by the rejection.
            assert h.client.wait(first, timeout=120)["state"] == "done"
        finally:
            h.stop()

    def test_quota_is_per_tenant(self, tmp_path):
        h = ServerHarness(tmp_path, quota_capacity=3,
                          quota_refill=0.0001)
        try:
            h.client.submit(GRID)
            other = SweepClient(port=h.server.port, tenant="other")
            other.submit(GRID)                      # own fresh bucket
            buckets = h.client.metrics()["server"]["quota"]["tenants"]
            assert set(buckets) == {"default", "other"}
        finally:
            h.stop()


class TestSharding:
    def test_unowned_cells_reissued_after_peer_wait(self, tmp_path):
        """A sharded server executes foreign keys itself once the owner
        fails to deliver within the peer window — results stay
        byte-identical, only who paid changes."""
        h = ServerHarness(tmp_path, shard_id=0, shard_count=2,
                          peer_wait=0.2, peer_poll=0.02)
        try:
            from repro.harness.cache import cache_key
            cells = list(expand_grid(GRID))
            foreign = sum(
                not h.server.cache.owns_key(
                    cache_key(c.instance.identity_digest(), c.config()))
                for c in cells)
            served = h.client.run(GRID, timeout=120)
            expected = render_grid_table(
                ParallelRunner(jobs=1).run_plan(expand_grid(GRID)))
            assert served == expected
            metrics = h.client.metrics()["server"]["cells"]
            # No peer is running, so every foreign cell came back via
            # the speculative local re-issue; owned cells never did.
            assert metrics["peer_reissues"] == foreign
            assert metrics["executed"] == len(cells)
        finally:
            h.stop()


class TestDrain:
    def test_draining_refuses_new_plans(self, tmp_path):
        h = ServerHarness(tmp_path, drain_linger=5.0)
        h.server.request_shutdown()
        deadline = time.monotonic() + 5.0
        status = None
        while time.monotonic() < deadline and status != 503:
            try:
                h.client.submit(GRID)  # drain flag not visible yet
            except ServerError as exc:
                status = exc.status
            time.sleep(0.02)
        assert status == 503
        h.thread.join(30)
        assert not h.thread.is_alive()


class TestSigtermDrain:
    def test_cli_serve_drains_on_sigterm(self, tmp_path):
        """An operator-style run: spawn ``cli serve``, run a sweep over
        HTTP, SIGTERM it, and require a clean exit with no lost cells
        and persisted session metrics."""
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        cache_dir = str(tmp_path / "cache")
        port_file = str(tmp_path / "port")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.harness.cli", "serve",
             "--port", "0", "--port-file", port_file,
             "--jobs", "1", "--cache-dir", cache_dir,
             "--batch-window", "0.01", "--drain-linger", "0.1"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        try:
            deadline = time.monotonic() + 60
            while not os.path.exists(port_file):
                assert proc.poll() is None, \
                    proc.stdout.read().decode()
                assert time.monotonic() < deadline, "server never bound"
                time.sleep(0.05)
            with open(port_file) as fh:
                port = int(fh.read())
            client = SweepClient(port=port)
            table = client.run(GRID, timeout=120)
            expected = render_grid_table(
                ParallelRunner(jobs=1).run_plan(expand_grid(GRID)))
            assert table == expected
            # A burst of replays, faster than the coalesced shard
            # writes: /metrics still reports this server's latest
            # totals (it is the only session under this cache root).
            replays = 5
            for _ in range(replays):
                assert client.run(GRID, timeout=120) == expected
            sessions = client.metrics()["sessions"]
            assert sessions["shards"] == 1
            assert sessions["plans_run"] == 1 + replays
            assert sessions["cells_from_cache"] == 2 * replays
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
            proc.stdout.close()
        # The drain persisted the server's session shard, with the
        # totals /metrics last reported.
        shards = session_shard_files(cache_dir)
        assert any(str(proc.pid) in os.path.basename(p) for p in shards)
        with open(session_shard_path_for(shards, proc.pid)) as fh:
            payload = json.load(fh)
        assert payload["plans_run"] == sessions["plans_run"]
        assert payload["cells_from_cache"] == sessions["cells_from_cache"]
        assert payload["cells_executed"] == 2


def session_shard_path_for(paths, pid):
    for path in paths:
        if str(pid) in os.path.basename(path):
            return path
    raise AssertionError(f"no shard for pid {pid} in {paths}")
