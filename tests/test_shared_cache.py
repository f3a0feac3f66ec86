"""Regression tests for the shared-cache-root concurrency fixes.

Three bugs made one cache root unsafe to share between processes (the
exact deployment the sweep server's shards and parallel CLI runs use):

1. a writer killed between its temp-file write and ``os.replace`` left
   ``<key>.json.tmp.<pid>`` debris that no tool reported or reaped,
2. every runner wrote the *same* ``session.json`` — last writer wins,
   silently discarding whole sessions' metrics, and
3. corrupt-entry deletion could unlink a record a concurrent writer had
   *just* atomically replaced with a valid one.

Each test here fails on the pre-fix code.  The multiprocessing tests use
the ``spawn`` start method so workers never inherit this process's open
state (the same isolation a real multi-server deployment has).
"""

import hashlib
import json
import multiprocessing
import os
import time

import pytest

from repro.errors import ConfigError
from repro.harness import ParallelRunner, ResultCache, SweepPlan, cache_key
from repro.harness.parallel import (merge_session_metrics,
                                    session_shard_files)
from repro.uarch.config import MachineConfig
from repro.workloads import KERNELS

_CONFIG = MachineConfig()


def synthetic_record(key: str, kernel: str = "synthetic") -> dict:
    """A minimal record that passes ``ResultCache._validate``."""
    return {
        "schema": 1,
        "key": key,
        "kernel": kernel,
        "point": "dsre",
        "label": f"{kernel} @ dsre",
        "config": _CONFIG.to_dict(),
        "result": {"stats": {}, "network": {}, "lsq": {},
                   "l1": {}, "predictor": {}},
        "arch_digest": "0" * 64,
    }


def key_for(tag: str) -> str:
    return cache_key(hashlib.sha256(tag.encode()).hexdigest(), _CONFIG)


# ----------------------------------------------------------------------
# Orphaned tmp files (bug 1)
# ----------------------------------------------------------------------

class TestOrphanTmpFiles:
    def _orphan(self, cache, tag: str, age: float) -> str:
        """Plant a crashed-writer tmp file ``age`` seconds old."""
        key = key_for(tag)
        shard_dir = os.path.join(cache.root, key[:2])
        os.makedirs(shard_dir, exist_ok=True)
        path = os.path.join(shard_dir, key + ".json.tmp.99999")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"half": "writ')
        stamp = time.time() - age
        os.utime(path, (stamp, stamp))
        return path

    def test_stats_reports_orphans(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        key = key_for("real")
        cache.store(key, synthetic_record(key))
        self._orphan(cache, "a", age=3600)
        self._orphan(cache, "b", age=3600)
        stats = cache.stats()
        assert stats["orphan_tmp"] == 2
        # Debris is not an entry, and not "stale or corrupt" either.
        assert stats["entries"] == 1
        assert stats["stale_or_corrupt"] == 0

    def test_scans_skip_tmp_files(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        self._orphan(cache, "a", age=3600)
        assert cache.entries() == []

    def test_clear_reaps_only_aged_tmp(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        old = self._orphan(cache, "old", age=3600)
        fresh = self._orphan(cache, "fresh", age=0)
        key = key_for("real")
        cache.store(key, synthetic_record(key))
        removed = cache.clear(tmp_age=60.0)
        assert removed == 1                  # the record, not the tmp
        assert not os.path.exists(old)       # aged orphan reaped
        assert os.path.exists(fresh)         # in-flight writer spared


# ----------------------------------------------------------------------
# Per-process session-metrics shards (bug 2)
# ----------------------------------------------------------------------

def _run_sweep(root: str) -> None:
    """Worker: run a tiny sweep against the shared root (spawned)."""
    plan = SweepPlan()
    plan.add(KERNELS["queue"].build(12), "dsre")
    ParallelRunner(jobs=1, cache=ResultCache(root)).run_plan(plan)


class TestSessionShards:
    def test_two_processes_do_not_clobber_metrics(self, tmp_path):
        root = str(tmp_path / "cache")
        ctx = multiprocessing.get_context("spawn")
        workers = [ctx.Process(target=_run_sweep, args=(root,))
                   for _ in range(2)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(120)
            assert worker.exitcode == 0
        # One shard per process: nothing was clobbered.
        shards = session_shard_files(root)
        assert len(shards) == 2
        pids = {os.path.basename(p) for p in shards}
        assert len(pids) == 2
        merged = merge_session_metrics(root)
        assert merged["shards"] == 2
        assert merged["plans_run"] == 2
        # Both processes' cells are accounted for (the second may have
        # hit the cache the first populated — either way, none lost).
        total = merged["cells_executed"] + merged["cells_from_cache"]
        assert total == 2

    def test_legacy_session_file_still_merges(self, tmp_path):
        root = str(tmp_path / "cache")
        os.makedirs(root)
        with open(os.path.join(root, "session.json"), "w") as fh:
            json.dump({"plans_run": 3, "cells_executed": 7,
                       "wall_seconds": 1.5}, fh)
        merged = merge_session_metrics(root)
        assert merged["plans_run"] == 3
        assert merged["cells_executed"] == 7
        assert merged["shards"] == 1

    def test_merge_of_empty_root_is_none(self, tmp_path):
        assert merge_session_metrics(str(tmp_path / "nope")) is None


# ----------------------------------------------------------------------
# Multi-process store/load/stats/clear contention (bug 3 + general)
# ----------------------------------------------------------------------

def _hammer(root: str, worker_id: int, iterations: int, queue) -> None:
    """Worker: store, immediately re-load, and stat against the shared
    root; report corrupt-entry counts and the keys written (spawned)."""
    cache = ResultCache(root)
    keys = []
    for i in range(iterations):
        key = key_for(f"w{worker_id}:{i}")
        cache.store(key, synthetic_record(key, kernel=f"w{worker_id}"))
        keys.append(key)
        cache.load(keys[i // 2])         # revisit an earlier key
        cache.stats()
    queue.put((worker_id, cache.session.corrupt,
               cache.session.stored, keys))


class TestMultiProcessContention:
    def test_store_load_stats_clear_race(self, tmp_path):
        root = str(tmp_path / "cache")
        iterations = 25
        ctx = multiprocessing.get_context("spawn")
        queue = ctx.Queue()
        workers = [ctx.Process(target=_hammer,
                               args=(root, wid, iterations, queue))
                   for wid in range(2)]
        for worker in workers:
            worker.start()
        # Stat and clear from this process while the workers hammer.
        observer = ResultCache(root)
        while any(worker.is_alive() for worker in workers):
            stats = observer.stats()
            assert stats["stale_or_corrupt"] == 0
            observer.clear(tmp_age=60.0)
            time.sleep(0.01)
        reports = [queue.get(timeout=30) for _ in workers]
        for worker in workers:
            worker.join(30)
            assert worker.exitcode == 0
        # Atomic replace-only writes: no reader ever saw a torn record,
        # even racing a concurrent clear.
        for _, corrupt, stored, _ in reports:
            assert corrupt == 0
            assert stored == iterations
        # Whatever survived the final clear is valid and addressable.
        survivor = ResultCache(root)
        for path in survivor.entries():
            key = os.path.basename(path)[:-len(".json")]
            assert survivor.peek(key) is not None
        assert survivor.stats()["stale_or_corrupt"] == 0

    def test_corrupt_unlink_spares_concurrent_replacement(self,
                                                          tmp_path):
        """Bug 3: ``load`` of a corrupt entry must not delete the valid
        record another process raced in behind the read."""
        root = str(tmp_path / "cache")
        writer = ResultCache(root)
        key = key_for("raced")

        class RacingCache(ResultCache):
            def _validate(self, validated_key, record):
                # The concurrent writer wins the race between this
                # reader's (failed) parse and its cleanup unlink.
                writer.store(validated_key,
                             synthetic_record(validated_key))
                raise ValueError("reader saw a torn record")

        reader = RacingCache(root)
        path = reader._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"half": "written"}, fh)

        assert reader.load(key) is None      # the torn read is a miss
        assert reader.session.corrupt == 1
        # ... but the cleanup spared the replacement record.
        assert writer.peek(key) is not None
        assert writer.load(key) is not None


# ----------------------------------------------------------------------
# Digest-prefix sharding
# ----------------------------------------------------------------------

class TestSharding:
    def test_every_key_has_exactly_one_owner(self, tmp_path):
        root = str(tmp_path / "cache")
        shards = [ResultCache(root, shard=(i, 3)) for i in range(3)]
        for i in range(64):
            key = key_for(f"k{i}")
            owners = [s for s in shards if s.owns_key(key)]
            assert len(owners) == 1

    def test_unsharded_cache_owns_everything(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        assert cache.owns_key(key_for("anything"))

    def test_bad_shard_rejected(self, tmp_path):
        for shard in ((3, 3), (-1, 3), (0, 0)):
            with pytest.raises(ConfigError):
                ResultCache(str(tmp_path / "cache"), shard=shard)


class TestScanRacesClear:
    def test_shard_removed_between_listings(self, tmp_path, monkeypatch):
        """A concurrent ``clear()`` may remove a shard directory after the
        root was listed: ``entries()``/``stats()`` skip it instead of
        raising ``FileNotFoundError``."""
        import shutil
        from repro.harness import cache as cache_mod
        cache = ResultCache(str(tmp_path / "cache"))
        key = key_for("vanishing")
        cache.store(key, synthetic_record(key))
        shard_dir = os.path.join(cache.root, key[:2])
        real_listdir = os.listdir

        def listdir_racing_clear(path):
            if path == shard_dir and os.path.isdir(shard_dir):
                shutil.rmtree(shard_dir)        # clear() wins the race
            return real_listdir(path)
        monkeypatch.setattr(cache_mod.os, "listdir", listdir_racing_clear)
        assert cache.entries() == []
        cache.store(key, synthetic_record(key))
        stats = cache.stats()
        assert stats["entries"] == 0 and stats["stale_or_corrupt"] == 0
