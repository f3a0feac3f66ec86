"""The per-experiment regeneration functions (T1, T2, E1..E10).

Each function rebuilds one table/figure of the reconstructed evaluation
(see DESIGN.md for the experiment index) and returns a
:class:`~repro.stats.report.Table` whose ``data`` attribute carries the raw
numbers.  ``fast=True`` uses the kernels' small test scales (seconds);
``fast=False`` uses the default evaluation scales (minutes) and is what
EXPERIMENTS.md records.

Every experiment is two steps.  Its *plan step* (:data:`PLAN_STEPS`)
takes its programs from a :class:`BuildContext` and enumerates its whole
(kernel, machine point, config) grid into a shared
:class:`~repro.harness.sweep.SweepPlan`; its *render step* turns the
plan's results into the table.  The public ``eN_*`` functions are thin
plan → run → render wrappers over one experiment that forward their
keyword options (kernel subset, grid axes, corpus sample) to the plan
step, whose signature is the one place those defaults live, while
:func:`evaluate` plans several experiments into one union plan, runs it
once through a :class:`~repro.harness.parallel.ParallelRunner` (duplicate
cells resolved once), and renders every table from the one result list —
that is how ``cli all`` and the sweep server's experiment mode run.
Pass ``runner=ParallelRunner(jobs=N, cache=ResultCache())`` to fan the
grid out over worker processes and reuse previous results; the default
is the deterministic in-process runner with no cache, which produces
tables byte-identical to any parallel/cached run.
"""

from __future__ import annotations

import inspect
import time
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

from ..stats.counters import merge_stats
from ..stats.report import Table, geomean
from ..uarch.config import default_config
from ..workloads.common import KernelInstance
from ..workloads.corpus import CorpusParams, build_corpus, sample_corpus
from ..workloads.registry import KERNELS
from ..workloads.synth import SynthParams, build_synthetic
from .parallel import CellResult, DigestMemo, ParallelRunner, \
    instance_digests
from .pool import golden_for
from .runner import POINT_ORDER
from .sweep import SweepPlan

#: Kernels with frequent true dependences (used by the recovery studies).
CONFLICT_KERNELS = ["stencil", "fibmem", "memaccum", "memmove", "bubble",
                    "histogram"]

#: A small representative mix for sweeps (one per category).
SWEEP_KERNELS = ["vecsum", "listsum", "histogram", "stencil"]

#: A render step: the union plan's results in, one table out.
Render = Callable[[Sequence[CellResult]], Table]


class BuildContext:
    """The programs of one evaluation call, each built once.

    Plan steps ask the context for their instances, so a kernel that
    several experiments sweep is built — and later hashed — once, and
    E9 and E10 share one corpus sample.  Instances are mutable (tests
    mutate built ones), so a context lives for one call only; nothing
    here is process-global.
    """

    def __init__(self, fast: bool = True):
        self.fast = fast
        self._built: Dict[object, KernelInstance] = {}
        #: The :func:`~repro.harness.parallel.instance_digests` memo that
        #: the union run fills and T2's render step reads.
        self.digests: DigestMemo = {}

    def _get(self, key, build: Callable[[], KernelInstance]):
        instance = self._built.get(key)
        if instance is None:
            instance = self._built[key] = build()
        return instance

    def kernel(self, name: str) -> KernelInstance:
        spec = KERNELS[name]
        return self._get(("kernel", name), spec.build_test if self.fast
                         else spec.build_default)

    def kernels(self, names: Iterable[str]) -> List[KernelInstance]:
        return [self.kernel(name) for name in names]

    def synthetic(self, params: SynthParams) -> KernelInstance:
        return self._get(params, lambda: build_synthetic(params))

    def corpus(self, params: CorpusParams) -> KernelInstance:
        return self._get(params, lambda: build_corpus(params))

    def digest(self, instance: KernelInstance) -> str:
        return instance_digests([instance], self.digests)[0]


def _run(ctx: BuildContext, plan: SweepPlan,
         runner: Optional[ParallelRunner]) -> List[CellResult]:
    """Run ``plan`` (the deterministic in-process runner by default)."""
    if not len(plan):
        return []
    return (runner or ParallelRunner(jobs=1)).run_plan(plan, ctx.digests)


def _standalone(step, fast: bool, runner: Optional[ParallelRunner],
                **options) -> Table:
    """Plan one experiment, run its plan, render its table."""
    ctx = BuildContext(fast)
    plan = SweepPlan()
    render = step(ctx, plan, **options)
    return render(_run(ctx, plan, runner))


# ----------------------------------------------------------------------
# T1 / T2: configuration and workload characterisation
# ----------------------------------------------------------------------

def table_t1(config=None) -> Table:
    """T1 — the simulated machine configuration."""
    config = config or default_config()
    table = Table("T1. Machine configuration", ["Parameter", "Value"])
    for key, value in config.t1_rows():
        table.add_row(key, value)
    return table


def _plan_t1(ctx: BuildContext, plan: SweepPlan) -> Render:
    return lambda results: table_t1()


def table_t2(fast: bool = True,
             runner: Optional[ParallelRunner] = None) -> Table:
    """T2 — workload characterisation from the golden model."""
    return _standalone(_plan_t2, fast, runner)


def _plan_t2(ctx: BuildContext, plan: SweepPlan) -> Render:
    instances = ctx.kernels(KERNELS)

    def render(results: Sequence[CellResult]) -> Table:
        table = Table(
            "T2. Workload characterisation (functional run)",
            ["kernel", "category", "blocks", "insts", "loads", "stores",
             "dep<=8 (%)", "dep<=32 (%)"])
        for spec, inst in zip(KERNELS.values(), instances):
            # The golden run comes from the memo or the persistent golden
            # store (the interpreter runs only when neither has it) and
            # is not retained: a pool forked later must not inherit it.
            (trace, _state), _fresh = golden_for(inst, ctx.digest(inst),
                                                 retain=False)
            hist = trace.dependence_distance_histogram()
            loads = trace.dynamic_loads
            near8 = sum(v for d, v in hist.items() if 1 <= d <= 8)
            near32 = sum(v for d, v in hist.items() if 1 <= d <= 32)
            table.add_row(spec.name, spec.category, trace.block_count,
                          trace.dynamic_instructions, loads,
                          trace.dynamic_stores,
                          100.0 * near8 / loads if loads else 0.0,
                          100.0 * near32 / loads if loads else 0.0)
            table.data[spec.name] = hist
        return table
    return render


# ----------------------------------------------------------------------
# E1: the main result
# ----------------------------------------------------------------------

def e1_main(fast: bool = True, runner: Optional[ParallelRunner] = None,
            **options) -> Table:
    """E1 — speedup of every machine point over conservative (per kernel +
    geomean); the paper's anchors are DSRE vs. storeset (+17% there) and
    DSRE as a fraction of oracle (82% there)."""
    return _standalone(_plan_e1, fast, runner, **options)


def _plan_e1(ctx: BuildContext, plan: SweepPlan,
             kernels: Optional[Sequence[str]] = None) -> Render:
    instances = ctx.kernels(kernels or KERNELS)
    grid = [plan.add_points(inst, tuple(POINT_ORDER)) for inst in instances]

    def render(results: Sequence[CellResult]) -> Table:
        table = Table("E1. Speedup over conservative (higher is better)",
                      ["kernel"] + POINT_ORDER)
        speedups: Dict[str, List[float]] = {p: [] for p in POINT_ORDER}
        for inst, indices in zip(instances, grid):
            base = results[indices["conservative"]].stats.cycles
            row = [inst.name]
            for point in POINT_ORDER:
                s = base / results[indices[point]].stats.cycles
                speedups[point].append(s)
                row.append(s)
            table.add_row(*row)
        geo = {p: geomean(v) for p, v in speedups.items()}
        table.add_row("geomean", *[geo[p] for p in POINT_ORDER])
        table.data = {
            "speedups": speedups,
            "geomean": geo,
            "dsre_over_storeset": geo["dsre"] / geo["storeset"] - 1.0,
            "dsre_fraction_of_oracle": geo["dsre"] / geo["oracle"],
        }
        return table
    return render


# ----------------------------------------------------------------------
# E2: window-size scaling
# ----------------------------------------------------------------------

def e2_window(fast: bool = True, runner: Optional[ParallelRunner] = None,
              **options) -> Table:
    """E2 — IPC of flush vs DSRE recovery as the window grows.

    The paper's scalability claim: selective re-execution keeps improving
    with window size while flush recovery flattens (each flush throws away
    an ever-larger window)."""
    return _standalone(_plan_e2, fast, runner, **options)


def _plan_e2(ctx: BuildContext, plan: SweepPlan,
             frames: Sequence[int] = (1, 2, 4, 8, 16, 32),
             kernels: Sequence[str] = tuple(SWEEP_KERNELS)) -> Render:
    instances = ctx.kernels(kernels)
    grid = {(inst.name, point, f): plan.add(inst, point, max_frames=f)
            for inst in instances
            for point in ("storeset", "dsre")
            for f in frames}

    def render(results: Sequence[CellResult]) -> Table:
        table = Table("E2. IPC vs in-flight frames (window scaling)",
                      ["kernel", "mechanism"] + [f"{f}f" for f in frames])
        table.data = {"frames": list(frames), "ipc": {}}
        for inst in instances:
            for point in ("storeset", "dsre"):
                series = [results[grid[(inst.name, point, f)]].stats.ipc
                          for f in frames]
                table.add_row(inst.name, point, *series)
                table.data["ipc"][(inst.name, point)] = series
        return table
    return render


# ----------------------------------------------------------------------
# E3: recovery cost
# ----------------------------------------------------------------------

def e3_recovery_cost(fast: bool = True,
                     runner: Optional[ParallelRunner] = None,
                     **options) -> Table:
    """E3 — what one mis-speculation costs under each mechanism:
    instructions squashed per violation (flush) vs instructions re-executed
    per re-delivery (DSRE)."""
    return _standalone(_plan_e3, fast, runner, **options)


def _plan_e3(ctx: BuildContext, plan: SweepPlan,
             kernels: Sequence[str] = tuple(CONFLICT_KERNELS)) -> Render:
    instances = ctx.kernels(kernels)
    grid = {(inst.name, point): plan.add(inst, point)
            for inst in instances for point in ("aggressive", "dsre")}

    def render(results: Sequence[CellResult]) -> Table:
        table = Table(
            "E3. Recovery cost per mis-speculation",
            ["kernel", "violations", "squashed/violation",
             "redeliveries", "reexec/redelivery"])
        table.data = {}
        for inst in instances:
            flush = results[grid[(inst.name, "aggressive")]].stats
            dsre = results[grid[(inst.name, "dsre")]].stats
            spv = (flush.squashed_executions / flush.violation_flushes
                   if flush.violation_flushes else 0.0)
            rpr = (dsre.reexecutions / dsre.load_redeliveries
                   if dsre.load_redeliveries else 0.0)
            table.add_row(inst.name, flush.violation_flushes, spv,
                          dsre.load_redeliveries, rpr)
            table.data[inst.name] = {
                "violations": flush.violation_flushes,
                "squashed_per_violation": spv,
                "redeliveries": dsre.load_redeliveries,
                "reexec_per_redelivery": rpr,
            }
        return table
    return render


# ----------------------------------------------------------------------
# E4: dependence-policy comparison (including cross products)
# ----------------------------------------------------------------------

#: The six (policy, recovery) combinations of the original E4 study — the
#: exact grid whose published table bytes the golden-table check pins.
E4_LEGACY_COMBOS = (
    ("conservative", "flush"), ("aggressive", "flush"),
    ("storeset", "flush"), ("oracle", "flush"),
    ("aggressive", "dsre"), ("storeset", "dsre"),
)

#: Current default E4 grid: the legacy study plus the hybrid protocol.
E4_COMBOS = E4_LEGACY_COMBOS + (("aggressive", "hybrid"),)


def e4_policies(fast: bool = True, runner: Optional[ParallelRunner] = None,
                **options) -> Table:
    """E4 — IPC of every (policy, recovery) combination, including the
    store-set + DSRE cross and the bounded-re-delivery ``hybrid`` protocol
    that the standard five-point study omits."""
    return _standalone(_plan_e4, fast, runner, **options)


def _plan_e4(ctx: BuildContext, plan: SweepPlan,
             kernels: Optional[Sequence[str]] = None,
             combos: Optional[Sequence] = None) -> Render:
    combos = list(combos if combos is not None else E4_COMBOS)
    instances = ctx.kernels(kernels or CONFLICT_KERNELS)
    grid = {(inst.name, policy, recovery):
            plan.add(inst, None, dependence_policy=policy, recovery=recovery)
            for inst in instances for policy, recovery in combos}

    def render(results: Sequence[CellResult]) -> Table:
        headers = ["kernel"] + [f"{p[:4]}/{r[:2]}" for p, r in combos]
        table = Table("E4. IPC by (policy, recovery)", headers)
        table.data = {"combos": combos, "ipc": {}}
        for inst in instances:
            row = [inst.name]
            for policy, recovery in combos:
                ipc = results[grid[(inst.name, policy, recovery)]].stats.ipc
                row.append(ipc)
                table.data["ipc"][(inst.name, policy, recovery)] = ipc
            table.add_row(*row)
        return table
    return render


# ----------------------------------------------------------------------
# E5: operand-network sensitivity
# ----------------------------------------------------------------------

def e5_network(fast: bool = True, runner: Optional[ParallelRunner] = None,
               **options) -> Table:
    """E5 — sensitivity to operand-network hop latency.

    DSRE's waves (and its commit wave) ride the operand network, so it
    should degrade faster than flush recovery as hops get slower."""
    return _standalone(_plan_e5, fast, runner, **options)


def _plan_e5(ctx: BuildContext, plan: SweepPlan,
             hop_latencies: Sequence[int] = (1, 2, 4),
             kernels: Sequence[str] = tuple(SWEEP_KERNELS)) -> Render:
    instances = ctx.kernels(kernels)
    grid = {(inst.name, point, hop): plan.add(inst, point, hop_latency=hop)
            for inst in instances
            for point in ("storeset", "dsre")
            for hop in hop_latencies}

    def render(results: Sequence[CellResult]) -> Table:
        table = Table("E5. IPC vs network hop latency",
                      ["kernel", "mechanism"] + [f"hop={h}" for h in
                                                 hop_latencies])
        table.data = {"hops": list(hop_latencies), "ipc": {}}
        for inst in instances:
            for point in ("storeset", "dsre"):
                series = [results[grid[(inst.name, point, hop)]].stats.ipc
                          for hop in hop_latencies]
                table.add_row(inst.name, point, *series)
                table.data["ipc"][(inst.name, point)] = series
        return table
    return render


# ----------------------------------------------------------------------
# E6: commit-wave overhead
# ----------------------------------------------------------------------

def e6_commit_wave(fast: bool = True,
                   runner: Optional[ParallelRunner] = None,
                   **options) -> Table:
    """E6 — what the commit wave costs: operand-network messages and FU
    executions per committed instruction, DSRE vs the store-set baseline."""
    return _standalone(_plan_e6, fast, runner, **options)


def _plan_e6(ctx: BuildContext, plan: SweepPlan,
             kernels: Optional[Sequence[str]] = None) -> Render:
    instances = ctx.kernels(kernels or KERNELS)
    grid = {(inst.name, point): plan.add(inst, point)
            for inst in instances for point in ("storeset", "dsre")}

    def render(results: Sequence[CellResult]) -> Table:
        table = Table(
            "E6. Execution & network overhead per committed instruction",
            ["kernel", "msgs/inst (ss)", "msgs/inst (dsre)",
             "final msgs (dsre %)", "exec/inst (ss)", "exec/inst (dsre)"])
        table.data = {}
        for inst in instances:
            ss = results[grid[(inst.name, "storeset")]]
            ds = results[grid[(inst.name, "dsre")]]
            ci_ss = max(1, ss.stats.committed_instructions)
            ci_ds = max(1, ds.stats.committed_instructions)
            final_pct = (100.0 * ds.network_stats.final_sent
                         / max(1, ds.network_stats.sent))
            table.add_row(
                inst.name,
                ss.network_stats.sent / ci_ss,
                ds.network_stats.sent / ci_ds,
                final_pct,
                ss.stats.executions / ci_ss,
                ds.stats.executions / ci_ds)
            table.data[inst.name] = {
                "msgs_ss": ss.network_stats.sent / ci_ss,
                "msgs_dsre": ds.network_stats.sent / ci_ds,
                "final_pct": final_pct,
                "exec_ss": ss.stats.executions / ci_ss,
                "exec_dsre": ds.stats.executions / ci_ds,
            }
        return table
    return render


# ----------------------------------------------------------------------
# E7: synthetic conflict-rate sweep
# ----------------------------------------------------------------------

def e7_conflict_sweep(fast: bool = True,
                      runner: Optional[ParallelRunner] = None,
                      **options) -> Table:
    """E7 — cycles (normalised to oracle) vs true-dependence rate on the
    synthetic chain: where does predictor+flush cross DSRE?"""
    return _standalone(_plan_e7, fast, runner, **options)


def _plan_e7(ctx: BuildContext, plan: SweepPlan,
             rates: Sequence[float] = (0.0, 0.1, 0.25, 0.5, 0.75, 1.0),
             distance: int = 1) -> Render:
    n_blocks = 80 if ctx.fast else 300
    points = ("aggressive", "storeset", "dsre", "oracle")
    grid = {}
    for rate in rates:
        inst = ctx.synthetic(SynthParams(
            n_blocks=n_blocks, conflict_rate=rate, distance=distance))
        for point in points:
            grid[(rate, point)] = plan.add(inst, point)

    def render(results: Sequence[CellResult]) -> Table:
        table = Table(
            "E7. Normalised cycles vs conflict rate (synthetic, "
            "lower=better)",
            ["conflict rate", "aggressive", "storeset", "dsre", "oracle"])
        table.data = {"rates": list(rates), "norm": {}}
        for rate in rates:
            oracle = results[grid[(rate, "oracle")]].stats.cycles
            row = [f"{rate:.2f}"]
            for point in points:
                norm = results[grid[(rate, point)]].stats.cycles / oracle
                table.data["norm"].setdefault(point, []).append(norm)
                row.append(norm)
            table.add_row(*row)
        return table
    return render


# ----------------------------------------------------------------------
# E8: store-set table-size ablation
# ----------------------------------------------------------------------

def e8_storeset_ablation(fast: bool = True,
                         runner: Optional[ParallelRunner] = None,
                         **options) -> Table:
    """E8 — predictor capacity vs recovery mechanism: IPC of storeset+flush
    across SSIT sizes, with DSRE (no predictor) as the reference line."""
    return _standalone(_plan_e8, fast, runner, **options)


def _plan_e8(ctx: BuildContext, plan: SweepPlan,
             sizes: Sequence[int] = (16, 64, 256, 1024),
             kernels: Sequence[str] = ("histogram", "bubble", "stencil",
                                       "hashins")) -> Render:
    instances = ctx.kernels(kernels)
    grid = {}
    for inst in instances:
        for size in sizes:
            grid[(inst.name, size)] = plan.add(
                inst, "storeset", storeset_ssit_size=size)
        grid[(inst.name, "dsre")] = plan.add(inst, "dsre")

    def render(results: Sequence[CellResult]) -> Table:
        table = Table("E8. IPC vs SSIT size (DSRE shown for reference)",
                      ["kernel"] + [f"ssit={s}" for s in sizes] + ["dsre"])
        table.data = {"sizes": list(sizes), "ipc": {}}
        for inst in instances:
            series = [results[grid[(inst.name, size)]].stats.ipc
                      for size in sizes]
            dsre = results[grid[(inst.name, "dsre")]].stats.ipc
            table.add_row(inst.name, *series, dsre)
            table.data["ipc"][inst.name] = {"storeset": series,
                                            "dsre": dsre}
        return table
    return render


# ----------------------------------------------------------------------
# E9: corpus-scale protocol ordering
# ----------------------------------------------------------------------

#: E9's pinned six machine points, in presentation order (the legacy
#: five-point study plus the hybrid protocol).  Deliberately *not* the
#: full registered set: E9's golden bytes predate txwave, and its cells
#: stay shareable with E10's legacy columns in the result cache.
E9_POINTS = tuple(POINT_ORDER) + ("hybrid",)

#: Default corpus sample sizes (programs, not cells; each program runs
#: across every point of the chosen grid).
E9_FAST_SAMPLE = 12
E9_FULL_SAMPLE = 48


def corpus_plan(fast: bool = True, sample: Optional[int] = None,
                seed: int = 0xE9, points: Sequence[str] = E9_POINTS):
    """A corpus sweep plan: a seeded corpus sample × ``points``.

    Returns ``(plan, cells)`` where ``cells`` is a list of
    ``(CorpusParams, {point: plan index})`` pairs in sample order.  The
    plan is a pure function of ``(fast, sample, seed, points)`` — same
    arguments, same cell keys, same plan digest — which is what makes
    corpus sweeps resumable across processes and shardable across hosts.
    E9 uses the legacy six points; E10 and ``cli corpus fill`` use the
    full registered set, whose legacy cells share the same cache records.
    """
    plan = SweepPlan()
    return plan, _corpus_cells(BuildContext(fast), plan, sample, seed,
                               points)


def _corpus_cells(ctx: BuildContext, plan: SweepPlan,
                  sample: Optional[int], seed: int,
                  points: Sequence[str]) -> List[Tuple[CorpusParams,
                                                       Dict[str, int]]]:
    count = int(sample) if sample is not None else (
        E9_FAST_SAMPLE if ctx.fast else E9_FULL_SAMPLE)
    cells = []
    for params in sample_corpus(count, seed=seed, fast=ctx.fast):
        indices = plan.add_points(ctx.corpus(params), tuple(points))
        cells.append((params, indices))
    return cells


def e9_corpus_ordering(fast: bool = True,
                       runner: Optional[ParallelRunner] = None,
                       **options) -> Table:
    """E9 — aggregate protocol ordering over a generated corpus.

    Runs every sampled corpus program across the six E9 machine points
    and reports each point's geomean speedup over conservative, the induced
    protocol ordering, and — against the paper's Anchor A claim (DSRE
    beats store-sets) — the listing of *inversion* programs where
    store-sets wins, with their exact generator parameters so any
    inversion reproduces from its seed."""
    return _standalone(_plan_e9, fast, runner, **options)


def _plan_e9(ctx: BuildContext, plan: SweepPlan,
             sample: Optional[int] = None, seed: int = 0xE9) -> Render:
    cells = _corpus_cells(ctx, plan, sample, seed, E9_POINTS)
    return lambda results: _render_e9(cells, seed, results)


def _render_e9(cells, seed: int, results: Sequence[CellResult]) -> Table:
    speedups: Dict[str, List[float]] = {p: [] for p in E9_POINTS}
    per_program: Dict[str, Dict[str, float]] = {}
    inversions: List[dict] = []
    for params, indices in cells:
        base = results[indices["conservative"]].stats.cycles
        per = {}
        for point in E9_POINTS:
            s = base / results[indices[point]].stats.cycles
            speedups[point].append(s)
            per[point] = s
        per_program[params.label()] = per
        if per["dsre"] < per["storeset"]:
            inversions.append({
                "label": params.label(),
                "params": params.canonical(),
                "dsre": per["dsre"],
                "storeset": per["storeset"],
            })

    geo = {p: geomean(speedups[p]) for p in E9_POINTS}
    ordering = sorted(E9_POINTS,
                      key=lambda p: (-geo[p], E9_POINTS.index(p)))
    table = Table(
        "E9. Corpus protocol ordering "
        f"(geomean speedup over conservative, {len(cells)} programs)",
        ["rank", "point", "geomean", "min", "max"])
    for rank, point in enumerate(ordering, start=1):
        table.add_row(rank, point, geo[point],
                      min(speedups[point]), max(speedups[point]))

    holds = len(cells) - len(inversions)
    table.add_footer("ordering: " + " > ".join(ordering))
    table.add_footer(
        f"Anchor A (dsre > storeset): holds on {holds}/{len(cells)} "
        f"programs; geomean dsre/storeset = "
        f"{geo['dsre'] / geo['storeset']:.3f}")
    if inversions:
        table.add_footer("inversions (storeset wins):")
        for inv in inversions:
            table.add_footer(
                f"  {inv['label']}: dsre {inv['dsre']:.3f} < "
                f"storeset {inv['storeset']:.3f}  [{inv['params']}]")
    else:
        table.add_footer("inversions (storeset wins): none")

    table.data = {
        "points": list(E9_POINTS),
        "seed": seed,
        "programs": len(cells),
        "geomean": geo,
        "ordering": ordering,
        "speedups": per_program,
        "inversions": inversions,
        "anchor_a": {
            "holds": holds,
            "programs": len(cells),
            "dsre_over_storeset": geo["dsre"] / geo["storeset"] - 1.0,
        },
    }
    return table


# ----------------------------------------------------------------------
# E10: squash-work attribution
# ----------------------------------------------------------------------

#: The full registered point set, in presentation order: the legacy six
#: (E9's grid — cache records shared with it) plus the transactional-wave
#: protocol.
E10_POINTS = tuple(POINT_ORDER) + ("hybrid", "txwave")


def e10_squash_work(fast: bool = True,
                    runner: Optional[ParallelRunner] = None,
                    **options) -> Table:
    """E10 — what each protocol's mis-speculation handling *costs*.

    Speedup tables (E1, E9) rank protocols by cycles; this experiment
    ranks them by *work*: across the corpus sample, how much issued FU
    work each protocol commits versus throws away, how many corrected
    operands it re-delivers, how much wave re-send traffic its recovery
    generates, and — for epoch-granular protocols — how deep its
    rollbacks reach.  Work accounting is closed: every point satisfies
    ``fu_work_issued == fu_work_committed + squashed_executions``
    exactly (the conformance suite asserts this per run).
    """
    return _standalone(_plan_e10, fast, runner, **options)


def _plan_e10(ctx: BuildContext, plan: SweepPlan,
              sample: Optional[int] = None, seed: int = 0xE9) -> Render:
    cells = _corpus_cells(ctx, plan, sample, seed, E10_POINTS)
    return lambda results: _render_e10(cells, seed, results)


def _render_e10(cells, seed: int, results: Sequence[CellResult]) -> Table:
    table = Table(
        f"E10. Squash-work attribution ({len(cells)} corpus programs)",
        ["point", "fu work/ci", "committed %", "squashed %",
         "redeliv/1k ci", "resend/1k ci", "final/1k ci",
         "rollbacks", "depth/rb"])
    table.data = {"points": list(E10_POINTS), "seed": seed,
                  "programs": len(cells), "work": {}}
    squash_share: Dict[str, float] = {}
    for point in E10_POINTS:
        agg = merge_stats([results[indices[point]].stats
                           for _, indices in cells])
        final_sent = sum(results[indices[point]].network_stats.final_sent
                         for _, indices in cells)
        assert agg.fu_work_issued == (agg.fu_work_committed
                                      + agg.squashed_executions), point
        ci = max(1, agg.committed_instructions)
        issued = max(1, agg.fu_work_issued)
        committed_pct = 100.0 * agg.fu_work_committed / issued
        squashed_pct = 100.0 * agg.squashed_executions / issued
        depth = (agg.epoch_rollback_depth / agg.epoch_rollbacks
                 if agg.epoch_rollbacks else 0.0)
        table.add_row(point, agg.fu_work_issued / ci, committed_pct,
                      squashed_pct,
                      1000.0 * agg.load_redeliveries / ci,
                      1000.0 * agg.wave_operand_sends / ci,
                      1000.0 * final_sent / ci,
                      agg.epoch_rollbacks, depth)
        squash_share[point] = squashed_pct
        table.data["work"][point] = {
            "fu_work_issued": agg.fu_work_issued,
            "fu_work_committed": agg.fu_work_committed,
            "squashed_executions": agg.squashed_executions,
            "committed_instructions": agg.committed_instructions,
            "load_redeliveries": agg.load_redeliveries,
            "wave_operand_sends": agg.wave_operand_sends,
            "final_sent": final_sent,
            "epoch_rollbacks": agg.epoch_rollbacks,
            "epoch_rollback_depth": agg.epoch_rollback_depth,
        }
    ordering = sorted(E10_POINTS,
                      key=lambda p: (squash_share[p], E10_POINTS.index(p)))
    table.add_footer("least squashed work: " + " < ".join(ordering))
    table.add_footer("work accounting closed on every point "
                     "(issued == committed + squashed)")
    table.data["ordering"] = ordering
    return table


#: Every regenerable artifact, keyed by its DESIGN.md experiment id.
EXPERIMENTS = {
    "t1": table_t1,
    "t2": table_t2,
    "e1": e1_main,
    "e2": e2_window,
    "e3": e3_recovery_cost,
    "e4": e4_policies,
    "e5": e5_network,
    "e6": e6_commit_wave,
    "e7": e7_conflict_sweep,
    "e8": e8_storeset_ablation,
    "e9": e9_corpus_ordering,
    "e10": e10_squash_work,
}


#: Plan steps, keyed like :data:`EXPERIMENTS`: ``step(ctx, plan,
#: **options)`` adds the experiment's cells to ``plan`` (instances from
#: the :class:`BuildContext`) and returns its render step.
PLAN_STEPS: Dict[str, Callable[..., Render]] = {
    "t1": _plan_t1,
    "t2": _plan_t2,
    "e1": _plan_e1,
    "e2": _plan_e2,
    "e3": _plan_e3,
    "e4": _plan_e4,
    "e5": _plan_e5,
    "e6": _plan_e6,
    "e7": _plan_e7,
    "e8": _plan_e8,
    "e9": _plan_e9,
    "e10": _plan_e10,
}


def step_options(name: str, kernels: Optional[Sequence[str]] = None,
                 sample: Optional[int] = None) -> Dict[str, object]:
    """The kernel subset and corpus sample size, passed only to the plan
    steps that take them (the CLI's ``--kernels``/``--corpus-sample``
    and a server request's ``kernels``/``sample``)."""
    params = inspect.signature(PLAN_STEPS[name]).parameters
    options: Dict[str, object] = {}
    if kernels and "kernels" in params:
        options["kernels"] = list(kernels)
    if sample is not None and "sample" in params:
        options["sample"] = int(sample)
    return options


def evaluate(names: Sequence[str], fast: bool = True,
             runner: Optional[ParallelRunner] = None,
             kernels: Optional[Sequence[str]] = None,
             sample: Optional[int] = None
             ) -> List[Tuple[str, Table, float]]:
    """Regenerate several experiments as **one** deduplicated plan.

    Every plan step draws its programs from one :class:`BuildContext`,
    so each (kernel, scale), synthetic point and corpus program is
    built and hashed once; their cells form a single union plan that
    ``runner.run_plan`` resolves once per distinct cache key, in one
    pooled pass with no per-experiment barrier; then every table is
    rendered from the one result list (T2 from the golden runs that the
    union run memoised or wrote to the golden store).  Returns
    ``(name, table, seconds)`` in ``names`` order, where ``seconds`` is
    that experiment's own plan and render time (the shared run is the
    runner's to report).  Tables are byte-identical to the standalone
    ``EXPERIMENTS`` functions.
    """
    ctx = BuildContext(fast)
    plan = SweepPlan()
    steps = []
    for name in names:
        started = time.perf_counter()
        render = PLAN_STEPS[name](ctx, plan,
                                  **step_options(name, kernels, sample))
        steps.append((name, render, time.perf_counter() - started))
    results = _run(ctx, plan, runner)
    out = []
    for name, render, seconds in steps:
        started = time.perf_counter()
        table = render(results)
        out.append((name, table, seconds + time.perf_counter() - started))
    return out
