"""The three workloads, each timed untraced or run once traced.

* ``tables_full``: ``cli all --full --jobs 2`` over a fresh cache, then
  the identical command warm over the cache it filled.
* ``corpus_cold``: ``cli corpus fill --count 200 --jobs 2 --seed <seed>``
  over a fresh cache, then the identical fill warm.
* ``serve_mix``: two closed-loop clients against ``cli serve --jobs 2``
  (see :mod:`perfbench.serve`), then the identical streams again warm.

Untraced runs spawn the program exactly as a user does.  Traced runs
drive the same argv in-process through ``cli.main`` with the hooks of
:mod:`perfbench.tracing` installed.  Counts never come from the CLI's
``[sweep: ...]`` line: they come from the traced hooks, from
``fill_plan``'s printed outcome, and from the cache the run filled.
"""

from __future__ import annotations

import hashlib
import io
import json
import multiprocessing
import re
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .common import (JOBS, WORK, Tally, children_peak_rss_mb, cli_argv,
                     fresh_dir, import_setup_s, median, run_child,
                     sha256_text, split_tables, tail_percentile)

#: Import probes per run; setup_s is their median.
SETUP_REPEATS = 7
#: Cold phases per run, each on a fresh cache or server; wall_s is their
#: median.  tables_full runs one: it alone takes half a minute.
CORPUS_COLD_REPEATS = 2
SERVE_COLD_REPEATS = 3
#: Warm passes each server is sent after its cold pass.  The count is
#: fixed, and serve_mix starts more servers while --seconds of warm time
#: is unspent: a server's peak RSS grows with the plans it has served,
#: so a time-boxed count per server would tie peak_rss_mb to host speed.
SERVE_WARM_PASSES = 4
#: Warm passes repeat until the run's --seconds are spent, and at least
#: this often, so rerender_s is a median.  Where a run has several cold
#: phases, warm passes follow each of them, so rerender_s samples the
#: host over the whole run rather than over its last seconds alone: a
#: shared host's speed drifts over tens of seconds.
MIN_WARM_REPEATS = 7
CORPUS_COUNT = 200

PINNED_PATH = Path(__file__).resolve().parent / "pinned_tables.json"

_FILL_LINE = re.compile(
    r"^plan (?P<plan>[0-9a-f]+)\s+cells (?P<cells>\d+)\s+"
    r"executed (?P<executed>\d+)\s+elided (?P<elided>\d+)\s+"
    r"from-cache (?P<from_cache>\d+)\s+foreign (?P<foreign>\d+)$")


@dataclass
class RunResult:
    """What one run measured: metrics by name, the outcome tally, and the
    human-readable lines printed before the result line."""

    metrics: Dict[str, float] = field(default_factory=dict)
    tally: Tally = field(default_factory=Tally)
    report: List[str] = field(default_factory=list)

    def line(self, name: str, value: float, unit: str, samples: int,
             detail: str = "") -> None:
        self.report.append(f"{name:28s} {value:14.6f} {unit:6s} "
                           f"n={samples}" + (f"  {detail}" if detail
                                             else ""))


def tables_argv(cache: Path) -> List[str]:
    return ["all", "--full", "--jobs", str(JOBS), "--cache-dir", str(cache)]


def corpus_argv(seed: int, cache: Path) -> List[str]:
    return ["corpus", "fill", "--count", str(CORPUS_COUNT), "--jobs",
            str(JOBS), "--seed", str(seed), "--cache-dir", str(cache)]


def pinned_tables() -> Dict[str, str]:
    with open(PINNED_PATH, encoding="utf-8") as fh:
        return json.load(fh)["tables"]


def check_tables(stdout: str, tally: Tally,
                 reference: Optional[Dict[str, str]] = None
                 ) -> Dict[str, str]:
    """Every full-scale table must match its pinned sha256 and, on a warm
    run, the cold run's bytes."""
    tables = split_tables(stdout)
    for name, digest in pinned_tables().items():
        text = tables.get(name)
        if text is None:
            tally.fail(f"table {name} missing")
        elif sha256_text(text) != digest:
            tally.fail(f"table {name} differs from its pinned sha256")
        elif reference is not None and text != reference.get(name):
            tally.fail(f"warm table {name} differs from the cold bytes")
        else:
            tally.ok()
    return tables


def parse_fill(stdout: str) -> Optional[Dict[str, object]]:
    """``fill_plan``'s outcome as ``cli corpus fill`` prints it."""
    for line in stdout.splitlines():
        match = _FILL_LINE.match(line.strip())
        if match:
            out = {k: int(v) for k, v in match.groupdict().items()
                   if k != "plan"}
            out["plan"] = match.group("plan")
            return out
    return None


def corpus_digest(cache: Path, plan_prefix: str) -> Tuple[int, int, str]:
    """``(cells in the plan, cells with a record, digest)`` where the
    digest covers every cell's (arch digest, cycles, committed insts) in
    plan order, read back from the cache the fill wrote."""
    from repro.harness.cache import ResultCache
    from repro.harness.journal import PlanJournal, journals_under
    digests = [d for d in journals_under(str(cache))
               if d.startswith(plan_prefix)]
    if len(digests) != 1:
        return 0, 0, ""
    manifest = PlanJournal(str(cache), digests[0]).manifest() or {}
    store = ResultCache(str(cache))
    h = hashlib.sha256()
    found = 0
    cells = manifest.get("cells", [])
    for cell in cells:
        record = store.load(cell["key"])
        if record is None:
            continue
        stats = record["result"]["stats"]
        h.update(f"{cell['index']}:{record['arch_digest']}:"
                 f"{stats['cycles']}:{stats['committed_instructions']}\n"
                 .encode())
        found += 1
    return len(cells), found, h.hexdigest()


def check_fill(stdout: str, returncode: int, error: str, cache: Path,
               tally: Tally, cold: bool, expected: int) -> Optional[str]:
    """Account a fill's cells; returns the per-seed cell digest (cold).

    Cold: ``executed + elided == cells`` from the outcome, and every cell
    has a cache record (a record exists only for a cell that passed the
    golden differential).  Warm: every cell comes from the cache.  A
    fill that died (say, of a ``GoldenMismatchError``) counts its
    unrecorded cells as failed.  ``expected`` is the plan's cell count.
    """
    outcome = parse_fill(stdout)
    if returncode != 0 or outcome is None:
        reason = (error.strip().splitlines()
                  or [f"exit code {returncode}"])[-1]
        recorded = corpus_digest(cache, "")[1] if cold else 0
        tally.ok(recorded)
        tally.fail(f"corpus fill failed: {reason}", expected - recorded)
        return None
    if not cold:
        tally.check(outcome["from_cache"] == outcome["cells"] == expected
                    and outcome["executed"] == 0,
                    "warm fill did not serve every cell from the cache",
                    count=expected)
        return None
    cells, found, digest = corpus_digest(cache, outcome["plan"])
    if not (outcome["cells"] == cells == expected
            and outcome["executed"] + outcome["elided"] == cells
            and outcome["from_cache"] == outcome["foreign"] == 0):
        tally.fail("fill outcome does not add up to the plan's cells",
                   expected)
        return digest
    tally.ok(found)
    if found < expected:
        tally.fail("cells without a cache record", expected - found)
    return digest


def _points() -> int:
    from repro.harness.experiments import E10_POINTS
    return len(E10_POINTS)


def _setup(result: RunResult) -> None:
    times = [import_setup_s() for _ in range(SETUP_REPEATS)]
    result.metrics["setup_s"] = median(times)
    result.line("setup_s", median(times), "s", len(times),
                "interpreter start + import repro.harness (median)")


def _warm_repeats(argv: List[str], seconds: float, check,
                  minimum: int = MIN_WARM_REPEATS) -> List[float]:
    times: List[float] = []
    while len(times) < minimum or sum(times) < seconds:
        run = run_child(cli_argv(*argv))
        times.append(run.seconds)
        check(run)
    return times


def _finish(result: RunResult, name: str) -> RunResult:
    result.metrics["peak_rss_mb"] = children_peak_rss_mb()
    result.line("peak_rss_mb", result.metrics["peak_rss_mb"], "MiB", 1,
                "largest peak RSS of one child process")
    tally = result.tally
    result.line("failed_frac", tally.failed_frac, "ratio", tally.attempted,
                f"{tally.failed} failed of {tally.attempted} "
                f"{name}" + (": " + "; ".join(tally.notes)
                             if tally.notes else ""))
    return result


# ----------------------------------------------------------------------
# Untraced (timed) runs
# ----------------------------------------------------------------------

def tables_full(seed: int, seconds: float) -> RunResult:
    """Takes no seed: its inputs are the pinned kernels and E9 sample."""
    result = RunResult()
    _setup(result)
    cache = fresh_dir("tables_full/cache")
    cold = run_child(cli_argv(*tables_argv(cache)))
    if cold.returncode != 0:
        result.tally.fail(f"cold run exited {cold.returncode}: "
                          f"{cold.stderr.strip()[-300:]}",
                          len(pinned_tables()))
        reference = {}
    else:
        reference = check_tables(cold.stdout, result.tally)
    warm = _warm_repeats(
        tables_argv(cache), seconds,
        lambda run: check_tables(run.stdout, result.tally, reference))
    result.metrics["wall_s"] = cold.seconds
    result.metrics["rerender_s"] = median(warm)
    result.line("wall_s", cold.seconds, "s", 1, "cold cli all --full")
    result.line("rerender_s", median(warm), "s", len(warm),
                "warm re-run over the filled cache (median)")
    return _finish(result, "tables")


def corpus_cold(seed: int, seconds: float) -> RunResult:
    """CORPUS_COLD_REPEATS cold fills, each into its own fresh cache and
    each followed by its share of the warm re-runs over that cache."""
    result = RunResult()
    _setup(result)
    cells = CORPUS_COUNT * _points()
    colds: List[float] = []
    warm: List[float] = []
    digests = set()
    for repeat in range(CORPUS_COLD_REPEATS):
        cache = fresh_dir(f"corpus_cold/cache{repeat}")
        argv = corpus_argv(seed, cache)
        cold = run_child(cli_argv(*argv))
        colds.append(cold.seconds)
        digests.add(check_fill(cold.stdout, cold.returncode, cold.stderr,
                               cache, result.tally, True, cells))
        warm += _warm_repeats(
            argv, seconds / CORPUS_COLD_REPEATS,
            lambda run: check_fill(run.stdout, run.returncode, run.stderr,
                                   cache, result.tally, False, cells),
            minimum=-(-MIN_WARM_REPEATS // CORPUS_COLD_REPEATS))
    result.tally.check(len(digests) == 1,
                       "cold fills of one seed disagree on a cell")
    result.metrics["wall_s"] = median(colds)
    result.metrics["rerender_s"] = median(warm)
    result.line("wall_s", median(colds), "s", len(colds),
                f"cold corpus fill, {CORPUS_COUNT} programs x {_points()} "
                f"points (median)")
    result.line("rerender_s", median(warm), "s", len(warm),
                "warm re-run of the same fill, after each cold fill "
                "(median)")
    outcome = parse_fill(cold.stdout) or {}
    result.report.append(
        f"corpus seed {seed}: executed {outcome.get('executed')} "
        f"elided {outcome.get('elided')} of {outcome.get('cells')} cells; "
        f"cell digest {min(digests, key=str)}")
    return _finish(result, "cells")


def _serve_grid():
    from repro.harness.runner import STANDARD_POINTS
    from repro.workloads.registry import KERNELS
    return list(KERNELS), list(STANDARD_POINTS)


def _serve_report(result: RunResult, wall: float, samples) -> None:
    from . import serve
    rts = [s.rt * 1e3 for s in samples if not s.error]
    if rts:
        result.line("rt_p50_ms", median(rts), "ms", len(rts),
                    "plan round trip, submit -> done -> table")
        tail = tail_percentile(rts)
        if tail:
            result.line("rt_tail_ms", tail[1], "ms", len(rts),
                        f"p{tail[0]:g}, {tail[2]} samples beyond")
    result.line("plans_per_s", len(samples) / wall, "1/s", len(samples),
                f"both clients, poll interval {serve.POLL_S * 1e3:g} ms")
    for kind in ("replay", "fresh"):
        kind_rts = [s.rt * 1e3 for s in samples
                    if s.kind == kind and not s.error]
        if kind_rts:
            result.line(f"{kind}_p50_ms", median(kind_rts), "ms",
                        len(kind_rts))


def serve_mix(seed: int, seconds: float) -> RunResult:
    """Fresh servers in turn, at least SERVE_COLD_REPEATS of them and
    until the warm passes have taken ``seconds``: each is set up, sent
    the streams once cold, then SERVE_WARM_PASSES times warm."""
    from . import serve
    result = RunResult()
    kernels, points = _serve_grid()
    streams = serve.make_streams(seed, kernels, points)
    first: Dict[str, str] = {}
    setups: List[float] = []
    colds: List[float] = []
    warm: List[float] = []
    samples = []
    server = None
    try:
        while len(colds) < SERVE_COLD_REPEATS or sum(warm) < seconds:
            if server is not None:
                result.tally.check(server.stop() == 0,
                                   "server exited non-zero")
            server, setup_s = serve.start_warmed(
                f"serve_mix/server{len(colds)}", kernels, points,
                result.tally)
            setups.append(setup_s)
            wall, cold_samples = serve.run_pass(server, streams)
            colds.append(wall)
            samples.extend(cold_samples)
            serve.check_samples(cold_samples, first, result.tally)
            for _ in range(SERVE_WARM_PASSES):
                warm_wall, warm_samples = serve.run_pass(server, streams)
                warm.append(warm_wall)
                serve.check_samples(warm_samples, first, result.tally)
    finally:
        code = server.stop() if server is not None else 0
    result.tally.check(code == 0, "server exited non-zero")
    result.metrics["setup_s"] = median(setups)
    result.metrics["wall_s"] = median(colds)
    result.metrics["rerender_s"] = median(warm)
    result.line("setup_s", median(setups), "s", len(setups),
                "server spawn -> /healthz -> base grid warm (median)")
    result.line("wall_s", median(colds), "s", len(colds),
                f"cold pass of {len(samples) // len(colds)} plans, "
                f"{sum(s.kind == 'fresh' for s in samples) // len(colds)} "
                f"fresh, on a fresh server (median)")
    result.line("rerender_s", median(warm), "s", len(warm),
                "warm pass, same streams, all cached, on each server "
                "(median)")
    _serve_report(result, sum(colds), samples)
    return _finish(result, "plans")


# ----------------------------------------------------------------------
# Traced runs
# ----------------------------------------------------------------------

def _traced_session():
    """Import the program, time the import, install the hooks."""
    start = time.perf_counter()
    import repro.harness.cli  # noqa: F401  (the traced entry point)
    import repro.harness.server  # noqa: F401
    import_s = time.perf_counter() - start
    from .tracing import Tracer, install
    method = multiprocessing.get_start_method()
    if method != "fork":
        raise RuntimeError(f"traced runs need the fork start method so "
                           f"pool workers inherit the hooks; got {method}")
    tracer = Tracer()
    present, absent, uninstall = install(tracer)
    return import_s, tracer, absent, uninstall


def traced_cli(tracer, argv: List[str]) -> Tuple[float, int, str, str]:
    """``cli.main(argv)`` in-process under a ``cli.main`` root span;
    returns ``(seconds, exit code, stdout, error)``.  An exception (a
    ``GoldenMismatchError`` from a cell, say) ends the command with exit
    code 1 instead of ending the benchmark."""
    from repro.harness import cli
    out = io.StringIO()
    error = ""
    root = tracer.open("cli.main")
    try:
        with redirect_stdout(out):
            code = cli.main(list(argv))
    except Exception as exc:
        code, error = 1, f"{type(exc).__name__}: {exc}"
    finally:
        tracer.close(root)
    return root[2] - root[1], code, out.getvalue(), error


def _trace_report(result: RunResult, phase: str, spans, rows: int = 12
                  ) -> None:
    from .tracing import layer_table
    result.report.append(f"-- {phase}: self time by layer (all processes)")
    for layer, calls, self_s, share in layer_table(spans)[:rows]:
        result.report.append(f"   {layer:28s} {self_s:10.3f} s  "
                             f"{100 * share:5.1f}%  calls={calls}")


def traced(workload: str, seed: int, layer_names: List[str]) -> RunResult:
    """One traced run: an untraced reference of the cold phase (for
    ``trace.overhead_frac``), then the traced cold and warm phases."""
    result = RunResult()
    import_s, tracer, absent, uninstall = _traced_session()
    try:
        if workload == "serve_mix":
            phases = _traced_serve(result, tracer, seed)
        else:
            phases = _traced_cli(result, tracer, workload, seed, import_s)
    finally:
        uninstall()
    from .tracing import summarize, write_chrome_trace
    # Layers a workload does not reach read 0.
    metrics = dict.fromkeys(layer_names, 0.0)
    if workload != "serve_mix":
        metrics.update(summarize(phases["cold"]))
        metrics.update({k: v for k, v in
                        summarize(phases["warm"], prefix="warm.").items()
                        if k in metrics})
        for phase, spans in phases.items():
            _trace_report(result, phase, spans)
    metrics.update(result.metrics)
    metrics["import.s"] = import_s
    result.metrics = {name: metrics[name] for name in layer_names}
    path = WORK / "trace" / f"{workload}-seed{seed}.json"
    write_chrome_trace(str(path), phases)
    result.report.append(f"chrome trace: {path}")
    result.report.append("hooks absent: " + (", ".join(absent) or "none"))
    return result


def _traced_cli(result: RunResult, tracer, workload: str, seed: int,
                import_s: float) -> Dict[str, list]:
    from .tracing import summarize
    cache = fresh_dir(f"{workload}/reference")
    argv_of = ((lambda c: tables_argv(c)) if workload == "tables_full"
               else (lambda c: corpus_argv(seed, c)))
    reference = run_child(cli_argv(*argv_of(cache)))
    cache = fresh_dir(f"{workload}/traced")
    argv = argv_of(cache)
    tracer.take()
    seconds, code, stdout, error = traced_cli(tracer, argv)
    cold = tracer.take()
    _, warm_code, warm_stdout, warm_error = traced_cli(tracer, argv)
    warm = tracer.take()
    if workload == "tables_full":
        if code != 0:
            result.tally.fail(f"traced cold run failed: {error}",
                              len(pinned_tables()))
            tables = {}
        else:
            tables = check_tables(stdout, result.tally)
        check_tables(warm_stdout, result.tally, tables)
    else:
        cells = CORPUS_COUNT * _points()
        check_fill(stdout, code, error, cache, result.tally, True, cells)
        check_fill(warm_stdout, warm_code, warm_error, cache, result.tally,
                   False, cells)
    # The untraced child also pays interpreter start and the import.
    traced_s = import_s + seconds
    result.metrics["trace.overhead_frac"] = (
        traced_s / reference.seconds - 1.0 if reference.returncode == 0
        else 0.0)
    unattributed = summarize(cold)["trace.unattributed_frac"]
    result.report.append(
        f"traced cold {traced_s:.3f} s (import + cli.main) vs untraced "
        f"{reference.seconds:.3f} s; unattributed {100 * unattributed:.2f}%")
    return {"cold": cold, "warm": warm}


def _traced_serve(result: RunResult, tracer, seed: int) -> Dict[str, list]:
    from . import serve
    from .tracing import layer_totals
    kernels, points = _serve_grid()
    streams = serve.make_streams(seed, kernels, points)
    reference, _ = serve.start_warmed("serve_mix/reference", kernels,
                                      points, result.tally)
    try:
        ref_wall, _ = serve.run_pass(reference, streams)
    finally:
        reference.stop()
    server, _ = serve.start_warmed("serve_mix/traced", kernels, points,
                                   result.tally)
    first: Dict[str, str] = {}
    try:
        client = server.client("metrics")
        before = serve.server_counts(client)
        tracer.take()
        wall, samples = serve.run_pass(server, streams, tracer)
        cold = tracer.take()
        after = serve.server_counts(client)
        serve.check_samples(samples, first, result.tally)
        _, warm_samples = serve.run_pass(server, streams, tracer)
        warm = tracer.take()
        serve.check_samples(warm_samples, first, result.tally)
    finally:
        server.stop()
    ok = [s for s in samples if not s.error]

    def p50(values):
        return median(values) if values else 0.0
    m = result.metrics
    m["client.submit_ms"] = p50([s.submit * 1e3 for s in ok])
    m["client.wait_ms"] = p50([s.wait * 1e3 for s in ok])
    m["client.table_ms"] = p50([s.table_s * 1e3 for s in ok])
    m["client.polls_per_plan"] = (sum(s.polls for s in ok) / len(ok)
                                  if ok else 0.0)
    m["client.replay_p50_ms"] = p50([s.rt * 1e3 for s in ok
                                     if s.kind == "replay"])
    m["client.fresh_p50_ms"] = p50([s.rt * 1e3 for s in ok
                                    if s.kind == "fresh"])
    for key in ("executed", "from_cache", "elided", "dedup_inflight_hits"):
        m[f"server.cells_{key}" if key != "dedup_inflight_hits"
          else "server.dedup_inflight_hits"] = after[key] - before[key]
    totals, _ = layer_totals(cold)
    plan = totals.get("client.plan")
    m["trace.unattributed_frac"] = (plan.self_s / plan.total_s
                                    if plan and plan.total_s else 0.0)
    m["trace.overhead_frac"] = wall / ref_wall - 1.0
    result.report.append(
        f"traced cold pass {wall:.3f} s vs untraced {ref_wall:.3f} s; "
        f"poll interval {serve.POLL_S * 1e3:g} ms")
    return {"cold": cold, "warm": warm}


WORKLOADS = {
    "tables_full": tables_full,
    "corpus_cold": corpus_cold,
    "serve_mix": serve_mix,
}
