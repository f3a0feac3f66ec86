"""The tail-percentile rule and failed_frac accounting."""

import subprocess
import sys
import shutil

from perfbench import serve
from perfbench.common import ROOT, Tally, split_tables, tail_percentile
from perfbench.tracing import Tracer, install, summarize
from perfbench.workloads import check_fill, traced_cli


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(list(range(120))) == (90.0, 107, 12)
    assert tail_percentile(list(range(1000))) == (99.0, 989, 10)
    assert tail_percentile(list(range(20))) == (50.0, 9, 10)
    assert tail_percentile(list(range(19))) is None
    # Order of the samples does not matter.
    assert tail_percentile(list(reversed(range(120)))) == (90.0, 107, 12)


def test_tally_counts_failures_against_attempts():
    tally = Tally()
    tally.ok(3)
    tally.fail("boom")
    tally.fail("boom", 2)
    tally.check(True, "unused")
    tally.check(False, "other")
    assert (tally.attempted, tally.failed) == (8, 4)
    assert tally.failed_frac == 0.5
    assert tally.notes == ["boom", "other"]


def test_split_tables_uses_regenerated_markers():
    out = ("T1. A\n=\nrow\n[t1 regenerated in 0.0s]\n\n"
           "E1. B\nrow\n[e1 regenerated in 7.4s]\n\n[sweep: 1 simulated]\n")
    assert split_tables(out) == {"t1": "T1. A\n=\nrow", "e1": "E1. B\nrow"}


class _RefusingClient:
    def __init__(self, status):
        self.status_code = status

    def submit(self, request):
        from repro.harness.client import ServerError
        raise ServerError("refused", status=self.status_code)


def test_http_4xx_counts_as_failed_plan():
    plan = serve.PlanRequest("replay", serve._request(["queue"], ["dsre"]))
    samples = [serve.round_trip(_RefusingClient(429), plan),
               serve.round_trip(_RefusingClient(400), plan)]
    tally = Tally()
    serve.check_samples(samples, {}, tally)
    assert (tally.attempted, tally.failed) == (2, 2)
    assert tally.notes == ["HTTP 429", "HTTP 400"]


def test_replayed_table_must_match_first_serve():
    def sample(start, table):
        return serve.Sample("replay", "{}", start, 0.01, table=table)
    tally = Tally()
    first = {}
    serve.check_samples([sample(2.0, "b"), sample(1.0, "a")], first, tally)
    assert first == {"{}": "a"}
    assert (tally.attempted, tally.failed) == (2, 1)


def test_golden_mismatch_is_a_failed_cell_not_a_crash(tmp_path,
                                                      monkeypatch):
    from repro.harness import parallel
    real = parallel._differential_problems
    calls = []

    def inject(golden_state, timing_state, limit=8):
        calls.append(1)
        return ["injected divergence"] if len(calls) == 3 else \
            real(golden_state, timing_state, limit)
    monkeypatch.setattr(parallel, "_differential_problems", inject)
    tracer = Tracer()
    _, _, uninstall = install(tracer)
    try:
        cache = tmp_path / "cache"
        _, code, stdout, error = traced_cli(
            tracer, ["corpus", "fill", "--count", "2", "--jobs", "1",
                     "--points", "e9", "--cache-dir", str(cache)])
    finally:
        uninstall()
    assert code == 1 and error.startswith("GoldenMismatchError")
    assert summarize(tracer.take())["harness.execute_cell.failed"] == 1
    tally = Tally()
    assert check_fill(stdout, code, error, cache, tally, True, 12) is None
    assert tally.attempted == 12
    assert 1 <= tally.failed < 12
    assert tally.notes[0].startswith("corpus fill failed: "
                                     "GoldenMismatchError")


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "program source not found" in proc.stderr
