"""Outside-in layer tracing: spans recorded around the public calls into
each ``repro`` layer, from the benchmark's own files.

:func:`install` wraps the functions and methods listed in :data:`HOOKS`
in place (module functions are rebound in every loaded ``repro`` module
that imported them, methods on their class), so the program runs
unchanged apart from the wrappers.  Each wrapper records a span — name,
start, end, parent span, pid, tid, cell id, counts — in memory.  Pool
workers inherit the wrappers through ``fork``; the wrapped
``run_cell_chunk`` attaches the worker's spans to the chunk payload and
the wrapped ``WorkerPool.run`` takes them off again, so the runner only
ever sees the keys it knows.  A hook whose target no longer exists is
reported as absent, never fatal.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

# Span fields (a span is a plain list so it pickles cheaply).
NAME, START, END, PARENT, PID, TID, CID, ARGS = range(8)

#: Payload key carrying a worker's spans back to the parent process.
TRACE_KEY = "_bench_spans"

#: Spans that are waiting, not work: the traced command itself and the
#: parent's wait on the pool.  Layer shares leave them out.
NOT_WORK = ("cli.main", "harness.pool.run")


class Tracer:
    """In-memory span recorder for one process (threads share it)."""

    def __init__(self):
        self.pid = os.getpid()
        self.spans: List[list] = []
        self._local = threading.local()
        #: id(KernelInstance) -> (instance, identity digest), so a cell
        #: span can be labelled with its cache key without re-hashing.
        self.digests: Dict[int, Tuple[object, str]] = {}

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = [name, time.perf_counter(), None, parent, os.getpid(),
                threading.get_ident(),
                parent[CID] if parent is not None else None, None]
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[END] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            stack.remove(span)

    @contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def event(self, name: str, **args) -> None:
        """A zero-length span that only carries counts."""
        span = self.open(name)
        self.close(span)
        note(span, **args)

    def take(self) -> List[list]:
        """Hand over every span recorded so far and start afresh."""
        spans, self.spans = self.spans, []
        self._local = threading.local()
        return spans


def note(span: list, **args) -> None:
    """Attach counts to a span (summed per layer by :func:`summarize`)."""
    if span[ARGS] is None:
        span[ARGS] = {}
    span[ARGS].update(args)


# ----------------------------------------------------------------------
# Hooks
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Hook:
    layer: str          # span name
    module: str         # module that defines the target
    attr: str           # "function" or "Class.method"
    make: Optional[Callable] = None   # custom wrapper factory


def _plain(tracer: Tracer, layer: str, fn: Callable,
           before: Optional[Callable] = None,
           after: Optional[Callable] = None) -> Callable:
    """Wrap ``fn`` in a span.  ``before(args, kwargs)`` returns state for
    ``after(span, result, args, state)``, or a ``{"cid": ...}`` dict that
    labels the span (and its children) with a cell id."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        state = before(args, kwargs) if before is not None else None
        span = tracer.open(layer)
        if isinstance(state, dict) and "cid" in state:
            span[CID] = state["cid"]
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            note(span, error=type(exc).__name__)
            raise
        finally:
            tracer.close(span)
        if after is not None:
            after(span, result, args, state)
        return result
    return wrapper


def _counts_delta(counts: Dict[str, int]):
    def before(args, kwargs):
        return dict(counts)

    def delta(state, key):
        return counts.get(key, 0) - state.get(key, 0)
    return before, delta


def _golden_hook(tracer, layer, fn):
    from repro.harness import pool
    before, delta = _counts_delta(pool.GOLDEN_STORE_COUNTS)

    def after(span, result, args, state):
        store = delta(state, "hits")
        fresh = int(bool(result[1]))
        note(span, fresh=fresh, store_hits=store,
             memo_hits=int(not fresh and not store))
    return _plain(tracer, layer, fn, before, after)


def _plan_hook(tracer, layer, fn):
    from repro.uarch import specialize
    before, delta = _counts_delta(specialize.PLAN_STORE_COUNTS)

    def after(span, result, args, state):
        note(span, compiled=int(bool(result[1])),
             store_hits=delta(state, "hits"),
             store_misses=delta(state, "misses"))
    return _plain(tracer, layer, fn, before, after)


def _interp_hook(tracer, layer, fn):
    def after(span, result, args, state):
        note(span, insts=int(result[0].dynamic_instructions))
    return _plain(tracer, layer, fn, after=after)


def _run_hook(tracer, layer, fn):
    def after(span, result, args, state):
        note(span, cycles=int(result.stats.cycles),
             insts=int(result.stats.committed_instructions))
    return _plain(tracer, layer, fn, after=after)


def _digest_hook(tracer, layer, fn):
    def after(span, result, args, state):
        tracer.digests[id(args[0])] = (args[0], result)
    return _plain(tracer, layer, fn, after=after)


def _cell_hook(tracer, layer, fn):
    from repro.harness.cache import cache_key

    def before(args, kwargs):
        cell = args[0] if args else kwargs.get("cell")
        config = kwargs.get("config") or (args[3] if len(args) > 3
                                          else None)
        entry = tracer.digests.get(id(cell.instance))
        if entry is None or entry[0] is not cell.instance:
            return None
        return {"cid": cache_key(entry[1], config or cell.config())}
    return _plain(tracer, layer, fn, before)


def _plan_run_hook(tracer, layer, fn):
    def after(span, results, args, state):
        cached = sum(1 for r in results if r.from_cache)
        elided = sum(1 for r in results
                     if not r.from_cache and r.forwarded_from)
        note(span, cells_requested=len(results), cells_from_cache=cached,
             cells_elided=elided,
             cells_executed=len(results) - cached - elided)
    return _plain(tracer, layer, fn, after=after)


def _fill_hook(tracer, layer, fn):
    def after(span, outcome, args, state):
        note(span, cells_requested=int(outcome["cells"]),
             cells_from_cache=int(outcome["from_cache"]),
             cells_elided=int(outcome["elided"]),
             cells_executed=int(outcome["executed"]))
    return _plain(tracer, layer, fn, after=after)


def _load_hook(tracer, layer, fn):
    def after(span, result, args, state):
        note(span, hit=int(result is not None))
    return _plain(tracer, layer, fn, after=after)


def _key_hook(tracer, layer, fn):
    def after(span, result, args, state):
        note(span, key=result)
    return _plain(tracer, layer, fn, after=after)


def _elide_hook(tracer, layer, fn):
    """``elide_pairs`` is a generator: no span (its time interleaves
    with the consumer's), only the counts it adds once exhausted."""
    @functools.wraps(fn)
    def wrapper(items, execute, counts):
        start = dict(counts)
        yield from fn(items, execute, counts)
        tracer.event(layer, **{key: counts[key] - start.get(key, 0)
                               for key in counts})
    return wrapper


def _chunk_hook(tracer, layer, fn):
    @functools.wraps(fn)
    def wrapper(chunk):
        in_worker = os.getpid() != tracer.pid
        if in_worker:
            tracer.take()                   # drop spans inherited by fork
        with tracer.span(layer) as span:
            payload = fn(chunk)
        note(span, cells=len(chunk))
        if in_worker:
            payload[TRACE_KEY] = tracer.take()
        return payload
    return wrapper


def _pool_hook(tracer, layer, fn):
    @functools.wraps(fn)
    def wrapper(self, task_fn, tasks, labels=None):
        spinups = self.spinups
        with tracer.span(layer) as span:
            results = fn(self, task_fn, tasks, labels)
        note(span, chunks=len(tasks), spinups=self.spinups - spinups,
             jobs=self.jobs)
        for payload in results:
            worker_spans = (payload.pop(TRACE_KEY, None)
                            if isinstance(payload, dict) else None)
            for worker_span in worker_spans or ():
                if worker_span[PARENT] is None:
                    worker_span[PARENT] = span
                tracer.spans.append(worker_span)
        return results
    return wrapper


#: Every layer boundary the trace records.  Names are the span names
#: that :func:`summarize` turns into ``<layer>.<metric>``.
HOOKS: Tuple[Hook, ...] = (
    Hook("workloads.build", "repro.workloads.common",
         "KernelSpec.build_default"),
    Hook("workloads.build", "repro.workloads.common", "KernelSpec.build_test"),
    Hook("workloads.build", "repro.workloads.corpus", "build_corpus"),
    Hook("workloads.build", "repro.workloads.synth", "build_synthetic"),
    Hook("workloads.identity_digest", "repro.workloads.common",
         "KernelInstance.identity_digest", _digest_hook),
    Hook("arch.interp", "repro.arch.interp", "run_program", _interp_hook),
    Hook("harness.golden", "repro.harness.pool", "golden_for", _golden_hook),
    Hook("uarch.plan", "repro.uarch.specialize", "plan_for", _plan_hook),
    Hook("uarch.processor.init", "repro.uarch.processor",
         "Processor.__init__"),
    Hook("uarch.processor.run", "repro.uarch.processor", "Processor.run",
         _run_hook),
    Hook("harness.execute_cell", "repro.harness.parallel", "execute_cell",
         _cell_hook),
    Hook("harness.arch_digest", "repro.harness.parallel",
         "arch_state_digest"),
    Hook("harness.plan", "repro.harness.parallel", "ParallelRunner.run_plan",
         _plan_run_hook),
    Hook("harness.plan", "repro.harness.parallel", "ParallelRunner.fill_plan",
         _fill_hook),
    Hook("harness.elide", "repro.harness.elide", "elide_pairs", _elide_hook),
    Hook("harness.pool.run", "repro.harness.pool", "WorkerPool.run",
         _pool_hook),
    Hook("harness.pool.chunk", "repro.harness.pool", "run_cell_chunk",
         _chunk_hook),
    Hook("harness.cache.key", "repro.harness.cache", "cache_key", _key_hook),
    Hook("harness.cache.load", "repro.harness.cache", "ResultCache.load",
         _load_hook),
    Hook("harness.cache.store", "repro.harness.cache", "ResultCache.store"),
    Hook("harness.cache.decode", "repro.harness.parallel",
         "result_from_record"),
    Hook("harness.journal", "repro.harness.journal", "PlanJournal.record"),
    Hook("harness.journal", "repro.harness.journal",
         "PlanJournal.write_manifest"),
    Hook("harness.experiments", "repro.harness.experiments", "EXPERIMENTS"),
    Hook("stats.render", "repro.stats.report", "Table.render"),
)


def _rebind_everywhere(original: Callable, wrapper: Callable) -> None:
    """Point every loaded ``repro`` module's reference to ``original``
    (its home module and every ``from x import original``) at
    ``wrapper``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro"
                                  or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(tracer: Tracer, hooks: Iterable[Hook] = HOOKS
            ) -> Tuple[List[str], List[str], Callable[[], None]]:
    """Wrap every hook target; returns ``(present, absent, uninstall)``.

    Import the program's entry points first: rebinding only reaches
    modules that are already loaded.
    """
    present: List[str] = []
    absent: List[str] = []
    undo: List[Callable[[], None]] = []
    for hook in hooks:
        label = f"{hook.module}.{hook.attr}"
        try:
            module = importlib.import_module(hook.module)
            owner_name, _, attr = hook.attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            absent.append(label)
            continue
        present.append(label)
        if attr == "EXPERIMENTS":
            undo.append(_wrap_registry(tracer, hook.layer, original))
            continue
        make = hook.make or (lambda t, layer, fn: _plain(t, layer, fn))
        wrapper = make(tracer, hook.layer, original)
        if owner_name:
            setattr(owner, attr, wrapper)
            undo.append(functools.partial(setattr, owner, attr, original))
        else:
            _rebind_everywhere(original, wrapper)
            undo.append(functools.partial(_rebind_everywhere, wrapper,
                                          original))

    def uninstall() -> None:
        for step in reversed(undo):
            step()
    return present, absent, uninstall


def _wrap_registry(tracer: Tracer, layer: str,
                   registry: Dict[str, Callable]) -> Callable[[], None]:
    """Wrap each experiment function of the ``EXPERIMENTS`` registry."""
    originals = dict(registry)
    for key, fn in originals.items():
        wrapper = _plain(tracer, layer, fn)
        registry[key] = wrapper
        _rebind_everywhere(fn, wrapper)

    def undo() -> None:
        for key, fn in originals.items():
            _rebind_everywhere(registry[key], fn)
            registry[key] = fn
    return undo


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------

def self_times(spans: List[list]) -> Dict[int, float]:
    """id(span) -> its duration minus the part of it that its child spans
    in the same process cover."""
    children: Dict[int, List[list]] = defaultdict(list)
    for span in spans:
        parent = span[PARENT]
        if parent is not None and parent[PID] == span[PID]:
            children[id(parent)].append(span)
    out: Dict[int, float] = {}
    for span in spans:
        start, end = span[START], span[END]
        covered = 0.0
        cursor = start
        for child in sorted(children.get(id(span), ()),
                            key=lambda s: s[START]):
            lo, hi = max(child[START], cursor), min(child[END], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[id(span)] = (end - start) - covered
    return out


@dataclass
class LayerTotals:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    errors: int = 0


def layer_totals(spans: List[list]
                 ) -> Tuple[Dict[str, LayerTotals],
                            Dict[str, Dict[str, float]]]:
    """Per span name: call count, self and total seconds, and the summed
    numeric counts attached to its spans."""
    selfs = self_times(spans)
    totals: Dict[str, LayerTotals] = defaultdict(LayerTotals)
    counts: Dict[str, Dict[str, float]] = defaultdict(
        lambda: defaultdict(float))
    for span in spans:
        layer = totals[span[NAME]]
        layer.calls += 1
        layer.self_s += selfs[id(span)]
        layer.total_s += span[END] - span[START]
        for key, value in (span[ARGS] or {}).items():
            if key == "error":
                layer.errors += 1
            elif isinstance(value, (int, float)):
                counts[span[NAME]][key] += value
    return totals, counts


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def summarize(spans: List[list], prefix: str = "") -> Dict[str, float]:
    """Per-layer metrics of one traced command (one ``cli.main`` root)."""
    totals, counts = layer_totals(spans)

    def t(name):
        return totals.get(name, LayerTotals())

    def c(name, key):
        return counts.get(name, {}).get(key, 0.0)

    main_pid = next((s[PID] for s in spans if s[NAME] == "cli.main"),
                    os.getpid())
    keys = {s[ARGS]["key"] for s in spans
            if s[NAME] == "harness.cache.key" and s[PID] == main_pid
            and s[ARGS]}
    pool_wall = t("harness.pool.run").total_s
    pool_jobs = max((s[ARGS].get("jobs", 0) for s in spans
                     if s[NAME] == "harness.pool.run" and s[ARGS]),
                    default=0)
    busy = t("harness.pool.chunk").total_s
    run = t("uarch.processor.run")
    root = t("cli.main")
    forwarded = c("harness.elide", "elided")
    m = {
        "workloads.build.s": t("workloads.build").self_s,
        "workloads.build.calls": t("workloads.build").calls,
        "workloads.identity_digest.s": t("workloads.identity_digest").self_s,
        "workloads.identity_digest.calls":
            t("workloads.identity_digest").calls,
        "arch.interp.s": t("arch.interp").self_s,
        "arch.interp.runs": t("arch.interp").calls,
        "arch.interp.insts_per_s": _ratio(c("arch.interp", "insts"),
                                          t("arch.interp").total_s),
        "harness.golden.self_s": t("harness.golden").self_s,
        "harness.golden.calls": t("harness.golden").calls,
        "harness.golden.fresh": c("harness.golden", "fresh"),
        "harness.golden.memo_hits": c("harness.golden", "memo_hits"),
        "harness.golden.store_hits": c("harness.golden", "store_hits"),
        "uarch.plan.s": t("uarch.plan").self_s,
        "uarch.plan.calls": t("uarch.plan").calls,
        "uarch.plan.compiled": c("uarch.plan", "compiled"),
        "uarch.plan.store_hits": c("uarch.plan", "store_hits"),
        "uarch.plan.store_misses": c("uarch.plan", "store_misses"),
        "uarch.processor.init_s": t("uarch.processor.init").self_s,
        "uarch.processor.run_self_s": run.self_s,
        "uarch.processor.runs": run.calls,
        "uarch.sim_cycles": c("uarch.processor.run", "cycles"),
        "uarch.committed_insts": c("uarch.processor.run", "insts"),
        "uarch.sim_insts_per_host_s": _ratio(
            c("uarch.processor.run", "insts"), run.total_s),
        "uarch.host_ns_per_sim_cycle": _ratio(
            1e9 * run.total_s, c("uarch.processor.run", "cycles")),
        "harness.execute_cell.self_s": t("harness.execute_cell").self_s,
        "harness.execute_cell.failed": t("harness.execute_cell").errors,
        "harness.arch_digest.s": t("harness.arch_digest").self_s,
        "harness.plan.calls": t("harness.plan").calls,
        "harness.plan.self_s": t("harness.plan").self_s,
        "harness.plan.cells_requested": c("harness.plan", "cells_requested"),
        "harness.plan.cells_unique": len(keys),
        "harness.plan.cells_executed": c("harness.plan", "cells_executed"),
        "harness.plan.cells_from_cache": c("harness.plan",
                                           "cells_from_cache"),
        "harness.elide.forwarded": forwarded,
        "harness.elide.representatives": c("harness.elide",
                                           "representatives"),
        "harness.elide.fallbacks": c("harness.elide", "fallbacks"),
        "harness.elide.forwarded_frac": _ratio(
            forwarded, forwarded + t("harness.execute_cell").calls),
        "harness.pool.chunks": c("harness.pool.run", "chunks"),
        "harness.pool.wall_s": pool_wall,
        "harness.pool.busy_s": busy,
        "harness.pool.idle_frac": (1.0 - _ratio(busy, pool_jobs * pool_wall)
                                   if pool_wall else 0.0),
        "harness.pool.spinups": c("harness.pool.run", "spinups"),
        "harness.cache.key_s": t("harness.cache.key").self_s,
        "harness.cache.load_s": t("harness.cache.load").self_s,
        "harness.cache.loads": t("harness.cache.load").calls,
        "harness.cache.load_hits": c("harness.cache.load", "hit"),
        "harness.cache.store_s": t("harness.cache.store").self_s,
        "harness.cache.stores": t("harness.cache.store").calls,
        "harness.cache.decode_s": t("harness.cache.decode").self_s,
        "harness.journal.s": t("harness.journal").self_s,
        "harness.journal.lines": t("harness.journal").calls,
        "harness.experiments.self_s": t("harness.experiments").self_s,
        "stats.render_s": t("stats.render").self_s,
        "trace.unattributed_frac": _ratio(root.self_s, root.total_s),
    }
    return {prefix + key: float(value) for key, value in m.items()}


def layer_table(spans: List[list]) -> List[Tuple[str, int, float, float]]:
    """``(layer, calls, self seconds, share of all work)`` rows, largest
    first.  Work is self time summed over every process, leaving out the
    command's own root and the parent's wait on the pool."""
    totals, _ = layer_totals(spans)
    work = {name: t for name, t in totals.items() if name not in NOT_WORK}
    whole = sum(t.self_s for t in work.values())
    return sorted(((name, t.calls, t.self_s, _ratio(t.self_s, whole))
                   for name, t in work.items()),
                  key=lambda row: -row[2])


def write_chrome_trace(path, phases: Dict[str, List[list]]) -> None:
    """Write spans as Chrome trace events (``chrome://tracing`` or
    Perfetto): one complete event per span, laid out by pid and tid, so
    pool workers' timelines show the idle gaps at each plan's barrier."""
    events = []
    starts = [s[START] for spans in phases.values() for s in spans]
    t0 = min(starts) if starts else 0.0
    pids = set()
    for phase, spans in phases.items():
        for span in spans:
            pids.add(span[PID])
            args = dict(span[ARGS] or {})
            args["phase"] = phase
            if span[CID]:
                args["id"] = span[CID]
            events.append({
                "name": span[NAME], "cat": span[NAME].split(".")[0],
                "ph": "X", "ts": round((span[START] - t0) * 1e6, 3),
                "dur": round((span[END] - span[START]) * 1e6, 3),
                "pid": span[PID], "tid": span[TID], "args": args})
    main = os.getpid()
    for pid in sorted(pids):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0, "args": {"name": "benchmark (cli in-process)"
                                          if pid == main else
                                          f"pool worker {pid}"}})
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
