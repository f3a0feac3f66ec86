"""The evaluation as one deduplicated plan (repro.harness.experiments).

``cli all`` (and the server's experiment mode) plan every requested
experiment into one union plan over programs built and hashed once, run
it through one ``run_plan`` call, and render every table from the one
result list.  These tests pin the four promises that makes: tables
byte-identical to the standalone ``eN()`` functions and to the blessed
goldens, each distinct cell resolved once, one identity digest per
distinct instance, and T2 read from the golden store without leaving
traces in the golden memo.
"""

from pathlib import Path

import pytest

from repro.errors import SimulationError
from repro.harness import EXPERIMENTS, ParallelRunner, ResultCache
from repro.harness import parallel as parallel_mod
from repro.harness import pool as pool_mod
from repro.harness.cli import main as cli_main
from repro.harness.experiments import (BuildContext, evaluate, step_options,
                                       table_t2)
from repro.harness.pool import CellChunk, reset_golden_memo, run_cell_chunk
from repro.harness.sweep import SweepPlan
from repro.workloads import KERNELS
from repro.workloads.common import KernelInstance

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "benchmarks" / \
    "golden_tables"


def split_tables(out: str) -> dict:
    """Experiment id -> table text, from ``cli`` output (the text printed
    before each ``[<id> regenerated in ...]`` marker)."""
    tables, lines = {}, []
    for line in out.splitlines():
        if line.startswith("[") and " regenerated in " in line:
            tables[line[1:line.index(" ")]] = "\n".join(lines).strip("\n")
            lines = []
        elif not line.startswith("[sweep:"):
            lines.append(line)
    return tables


def standalone(name: str, **options) -> str:
    func = EXPERIMENTS[name]
    if name == "t1":
        return func().render()
    return func(fast=True, **options).render()


@pytest.fixture
def count_digests(monkeypatch):
    """Counts ``KernelInstance.identity_digest`` calls in this process."""
    calls = []
    real = KernelInstance.identity_digest

    def counting(self):
        calls.append(id(self))
        return real(self)
    monkeypatch.setattr(KernelInstance, "identity_digest", counting)
    return calls


class TestUnionMatchesStandalone:
    @pytest.mark.parametrize("elide", ["1", "0"])
    def test_cli_all_matches_goldens(self, elide, monkeypatch, tmp_path,
                                     capsys):
        monkeypatch.setenv("REPRO_ELIDE", elide)
        argv = ["all", "--jobs", "2", "--cache-dir", str(tmp_path / "c")]
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        tables = split_tables(out)
        assert list(tables) == list(EXPERIMENTS)
        for name, text in tables.items():
            if name == "e4":
                # The e4 golden pins the legacy six-combo grid; the CLI
                # renders the current default grid.
                assert text == standalone("e4"), name
            else:
                golden = (GOLDEN_DIR / f"{name}.txt").read_text()
                assert text + "\n" == golden, name
        assert " requested / " in out and " unique cells" in out
        # The warm rerun renders the same bytes and simulates nothing.
        assert cli_main(argv) == 0
        warm = capsys.readouterr().out
        assert split_tables(warm) == tables
        assert "[sweep: 0 simulated," in warm
        assert " 0 cycles simulated" in warm

    def test_cli_subset_matches_standalone(self, capsys):
        kernels, sample = ["queue", "vecsum"], 2
        assert cli_main(["all", "--jobs", "1", "--no-cache",
                         "--kernels", ",".join(kernels),
                         "--corpus-sample", str(sample)]) == 0
        tables = split_tables(capsys.readouterr().out)
        assert list(tables) == list(EXPERIMENTS)
        for name, text in tables.items():
            assert text == standalone(
                name, **step_options(name, kernels, sample)), name


class TestDedup:
    NAMES = ["e1", "e3", "e6"]          # e3 and e6 repeat e1's cells
    KERNELS = ["queue", "stencil"]

    def _evaluate(self, root):
        runner = ParallelRunner(jobs=1, cache=ResultCache(root))
        tables = evaluate(self.NAMES, fast=True, runner=runner,
                          kernels=self.KERNELS)
        return runner, [table.render() for _, table, _ in tables]

    def test_each_unique_key_resolved_once(self, tmp_path, monkeypatch):
        loads, executed = [], []
        real_load = ResultCache.load
        real_execute = parallel_mod.execute_cell

        def load(self, key):
            loads.append(key)
            return real_load(self, key)

        def execute(cell, *args, **kwargs):
            record = real_execute(cell, *args, **kwargs)
            executed.append(record["label"])
            return record
        monkeypatch.setattr(ResultCache, "load", load)
        monkeypatch.setattr(parallel_mod, "execute_cell", execute)

        root = str(tmp_path / "c")
        cold, cold_tables = self._evaluate(root)
        metrics = cold.last_metrics
        assert cold.plans_run == 1
        assert metrics.cells > metrics.unique_cells     # duplicates exist
        assert len(loads) == len(set(loads)) == metrics.unique_cells
        assert len(executed) == cold.cells_executed
        assert cold.cells_executed + cold.cells_elided == \
            metrics.unique_cells
        assert (f"{metrics.cells} requested / {metrics.unique_cells} "
                "unique cells") in cold.summary()

        loads.clear()
        executed.clear()
        warm, warm_tables = self._evaluate(root)
        assert warm_tables == cold_tables
        assert len(loads) == len(set(loads)) == metrics.unique_cells
        assert executed == []
        assert warm.cells_from_cache == metrics.unique_cells
        assert warm.merged_stats.cycles == 0

    def test_duplicate_keeps_its_own_label(self):
        inst = KERNELS["queue"].build(12)
        plan = SweepPlan()
        plan.add(inst, "dsre")
        plan.add(inst, None, dependence_policy="aggressive",
                 recovery="dsre")
        runner = ParallelRunner(jobs=1)
        first, second = runner.run_plan(plan)
        assert runner.cells_executed == 1
        assert second.label == plan.cells[1].label != first.label
        assert second.point is None and first.point == "dsre"
        assert second.stats == first.stats


class TestDigests:
    def test_one_digest_per_instance_per_run_plan(self, count_digests):
        plan = SweepPlan()
        instances = [KERNELS["queue"].build(12), KERNELS["vecsum"].build(16)]
        for inst in instances:
            plan.add_points(inst, ("conservative", "dsre", "storeset",
                                   "oracle"))
        ParallelRunner(jobs=1).run_plan(plan)
        assert sorted(count_digests) == sorted(map(id, instances))

    def test_union_hashes_each_program_once(self, count_digests):
        # T2 reuses the union run's digests for its golden lookups.
        evaluate(["t2", "e1", "e6"], fast=True,
                 runner=ParallelRunner(jobs=1), kernels=["queue"])
        assert len(count_digests) == len(set(count_digests)) == len(KERNELS)

    def test_build_context_builds_once(self):
        ctx = BuildContext(fast=True)
        assert ctx.kernel("queue") is ctx.kernels(["queue"])[0]
        assert ctx.digest(ctx.kernel("queue")) == \
            ctx.kernel("queue").identity_digest()

    def test_worker_uses_the_shipped_digest(self, count_digests):
        inst = KERNELS["queue"].build(12)
        digest = inst.identity_digest()
        plan = SweepPlan()
        plan.add_points(inst, ("dsre", "aggressive"))
        count_digests.clear()
        payload = run_cell_chunk(CellChunk(enumerate(plan.cells), digest))
        assert len(payload["records"]) == 2
        assert count_digests == []

    def test_chunk_guard_rejects_two_instance_objects(self):
        # Equal digests are not enough: a chunk must carry one object.
        a, b = KERNELS["queue"].build(12), KERNELS["queue"].build(12)
        plan = SweepPlan()
        plan.add(a, "dsre")
        plan.add(b, "aggressive")
        with pytest.raises(SimulationError, match="instance objects"):
            run_cell_chunk(CellChunk(enumerate(plan.cells),
                                     a.identity_digest()))


class TestT2FromGoldenStore:
    def test_no_interpreter_and_memo_untouched(self, tmp_path,
                                               monkeypatch):
        saved = list(pool_mod._GOLDEN_MEMO.items())
        pool_mod._GOLDEN_MEMO.clear()
        try:
            # A runner with a cache attaches the persistent golden store;
            # the first T2 writes each golden run through to it.
            runner = ParallelRunner(jobs=1,
                                    cache=ResultCache(str(tmp_path / "c")))
            cold = table_t2(fast=True, runner=runner).render()
            assert list(pool_mod._GOLDEN_MEMO) == []

            def no_interpreter(*args, **kwargs):
                raise AssertionError("T2 ran the functional interpreter")
            monkeypatch.setattr(pool_mod, "run_program", no_interpreter)
            hits = pool_mod.GOLDEN_STORE_COUNTS["hits"]
            warm = table_t2(fast=True, runner=runner).render()
            assert warm == cold
            assert warm + "\n" == (GOLDEN_DIR / "t2.txt").read_text()
            assert pool_mod.GOLDEN_STORE_COUNTS["hits"] == \
                hits + len(KERNELS)
            assert list(pool_mod._GOLDEN_MEMO) == []
        finally:
            reset_golden_memo()
            pool_mod._GOLDEN_MEMO.update(saved)

    def test_memo_hit_is_not_reordered(self):
        inst = KERNELS["queue"].build(12)
        digest = inst.identity_digest()
        saved = list(pool_mod._GOLDEN_MEMO.items())
        try:
            pool_mod.golden_for(inst, digest)
            pool_mod.golden_for(KERNELS["vecsum"].build(16))
            order = list(pool_mod._GOLDEN_MEMO)
            _, fresh = pool_mod.golden_for(inst, digest, retain=False)
            assert not fresh
            assert list(pool_mod._GOLDEN_MEMO) == order
        finally:
            pool_mod._GOLDEN_MEMO.clear()
            pool_mod._GOLDEN_MEMO.update(saved)
