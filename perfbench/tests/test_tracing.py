"""Span arithmetic, hook installation and the metric names the trace
reports."""

import json

from perfbench.common import ROOT
from perfbench.tracing import (CID, PID, Hook, Tracer, install,
                               layer_table, self_times, summarize)


def _span(name, start, end, parent=None, pid=1):
    return [name, start, end, parent, pid, 0, None, None]


def test_self_time_subtracts_union_of_children():
    root = _span("cli.main", 0.0, 10.0)
    a = _span("harness.plan", 1.0, 4.0, root)
    b = _span("stats.render", 3.0, 6.0, root)        # overlaps a
    grandchild = _span("harness.cache.load", 2.0, 3.0, a)
    selfs = self_times([root, a, b, grandchild])
    assert selfs[id(root)] == 10.0 - 5.0              # union [1, 6]
    assert selfs[id(a)] == 3.0 - 1.0
    assert selfs[id(b)] == 3.0
    assert selfs[id(grandchild)] == 1.0


def test_child_in_another_process_does_not_reduce_self_time():
    pool = _span("harness.pool.run", 0.0, 4.0)
    chunk = _span("harness.pool.chunk", 0.5, 3.5, pool, pid=2)
    selfs = self_times([pool, chunk])
    assert selfs[id(pool)] == 4.0


def test_child_clipped_to_parent_interval():
    root = _span("cli.main", 0.0, 2.0)
    late = _span("stats.render", 1.5, 3.0, root)
    assert self_times([root, late])[id(root)] == 1.5


def test_layer_table_leaves_out_waiting():
    root = _span("cli.main", 0.0, 10.0)
    wait = _span("harness.pool.run", 0.0, 8.0, root)
    work = _span("uarch.processor.run", 1.0, 7.0, wait, pid=2)
    rows = layer_table([root, wait, work])
    assert [row[0] for row in rows] == ["uarch.processor.run"]
    assert rows[0][3] == 1.0


def test_nested_spans_and_cell_ids_through_tracer():
    tracer = Tracer()
    with tracer.span("outer") as outer:
        outer[CID] = "cell-key"
        with tracer.span("inner") as inner:
            pass
    assert inner[3] is outer
    assert inner[CID] == "cell-key"
    assert inner[PID] == outer[PID]


def test_missing_hook_is_reported_not_fatal():
    from repro.harness import parallel
    original = parallel.arch_state_digest
    tracer = Tracer()
    present, absent, uninstall = install(tracer, (
        Hook("gone.module", "repro.harness.no_such_module", "f"),
        Hook("gone.function", "repro.harness.parallel", "no_such_function"),
        Hook("gone.method", "repro.harness.parallel", "ParallelRunner.nope"),
        Hook("harness.arch_digest", "repro.harness.parallel",
             "arch_state_digest"),
    ))
    try:
        assert absent == ["repro.harness.no_such_module.f",
                          "repro.harness.parallel.no_such_function",
                          "repro.harness.parallel.ParallelRunner.nope"]
        assert present == ["repro.harness.parallel.arch_state_digest"]
        assert parallel.arch_state_digest is not original
        # Layers with no spans read as zero rather than failing.
        metrics = summarize([])
        assert metrics["uarch.plan.calls"] == 0.0
    finally:
        uninstall()
    assert parallel.arch_state_digest is original


def test_hooks_trace_an_in_process_plan(tmp_path):
    from repro.harness.cache import ResultCache
    from repro.harness.parallel import ParallelRunner
    from repro.harness.sweep import SweepPlan
    from repro.workloads.registry import KERNELS
    tracer = Tracer()
    present, absent, uninstall = install(tracer)
    try:
        assert absent == []
        instance = KERNELS["vecsum"].build_test()
        plan = SweepPlan()
        plan.add_points(instance, ("conservative", "dsre"))
        with ParallelRunner(jobs=1, cache=ResultCache(str(tmp_path))) \
                as runner:
            runner.run_plan(plan)
    finally:
        uninstall()
    metrics = summarize(tracer.take())
    assert metrics["uarch.processor.runs"] >= 1
    assert metrics["harness.plan.cells_requested"] == 2
    assert metrics["harness.plan.cells_unique"] == 2
    assert metrics["harness.cache.stores"] == 2
    assert metrics["harness.golden.calls"] >= 1
    assert metrics["uarch.sim_cycles"] > 0


def test_benchmark_json_per_layer_names_are_all_produced():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    produced = set(summarize([]))
    produced |= {"warm." + name for name in produced}
    produced |= {"import.s", "trace.overhead_frac", "client.submit_ms",
                 "client.wait_ms", "client.table_ms",
                 "client.polls_per_plan", "client.replay_p50_ms",
                 "client.fresh_p50_ms", "server.cells_executed",
                 "server.cells_from_cache", "server.cells_elided",
                 "server.dedup_inflight_hits"}
    names = [m["name"] for m in spec["per_layer"]]
    assert len(names) == len(set(names))
    assert set(names) <= produced
