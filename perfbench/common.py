"""Shared plumbing: checkout paths, timed subprocesses, statistics and
failure tallies."""

from __future__ import annotations

import hashlib
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: The checkout the benchmark runs in (its parent directory).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for caches, ports and traces; listed in .gitignore.
WORK = ROOT / ".bench_work"
#: Worker processes, client threads and connections: the host has 2 cores.
JOBS = 2
#: Hard cap on any one subprocess, so a hung child fails the run instead
#: of outliving it.
CHILD_TIMEOUT_S = 170.0

#: Percentiles the tail rule may pick from, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
#: Samples that must lie beyond a reported tail percentile.
TAIL_MIN_BEYOND = 10

_TABLE_MARKER = re.compile(r"^\[(\w+) regenerated in [0-9.]+s\]$")


def missing_program() -> Optional[str]:
    """Why the program under test cannot run here, or None."""
    cli = SRC / "repro" / "harness" / "cli.py"
    if not cli.is_file():
        return f"program source not found: {cli.relative_to(ROOT)}"
    return None


def repro_env() -> Dict[str, str]:
    """Environment for a child that imports ``repro`` from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def fresh_dir(name: str) -> Path:
    """An empty directory under the scratch space."""
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def cli_argv(*args: str) -> List[str]:
    return [sys.executable, "-m", "repro.harness.cli", *args]


@dataclass
class ChildRun:
    seconds: float
    returncode: int
    stdout: str
    stderr: str


def run_child(argv: Sequence[str]) -> ChildRun:
    """Run one child to completion from the checkout root, timed from
    spawn to exit."""
    start = time.perf_counter()
    proc = subprocess.run(list(argv), cwd=ROOT, env=repro_env(),
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    return ChildRun(time.perf_counter() - start, proc.returncode,
                    proc.stdout, proc.stderr)


def import_setup_s() -> float:
    """Interpreter start plus ``import repro.harness``, in a fresh child."""
    run = run_child([sys.executable, "-c", "import repro.harness"])
    if run.returncode != 0:
        raise RuntimeError(f"import repro.harness failed:\n{run.stderr}")
    return run.seconds


def children_peak_rss_mb() -> float:
    """Largest peak RSS of any reaped descendant (the CLI, the server or
    a pool worker), in MiB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def split_tables(stdout: str) -> Dict[str, str]:
    """Experiment id -> table text, from ``cli`` output.  Each table is
    the text printed before its ``[<id> regenerated in ...]`` line."""
    tables: Dict[str, str] = {}
    lines: List[str] = []
    for line in stdout.splitlines():
        match = _TABLE_MARKER.match(line)
        if match:
            tables[match.group(1)] = "\n".join(lines).strip("\n")
            lines = []
        elif not line.startswith("[sweep:"):
            lines.append(line)
    return tables


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail_percentile(samples: Sequence[float],
                    ladder: Sequence[float] = TAIL_LADDER,
                    min_beyond: int = TAIL_MIN_BEYOND
                    ) -> Optional[Tuple[float, float, int]]:
    """The highest ladder percentile with at least ``min_beyond`` samples
    above it, as ``(percentile, value, samples beyond)``; None when even
    the lowest rung has too few.  Nearest-rank: the p-th percentile of n
    sorted samples is the ``ceil(p/100 * n)``-th, and the samples beyond
    it are the ones ranked after it."""
    ordered = sorted(samples)
    n = len(ordered)
    best = None
    for pct in ladder:
        rank = max(1, math.ceil(pct / 100.0 * n))
        beyond = n - rank
        if beyond >= min_beyond:
            best = (pct, ordered[rank - 1], beyond)
    return best


# ----------------------------------------------------------------------
# Outcome accounting
# ----------------------------------------------------------------------

@dataclass
class Tally:
    """Operations attempted and failed (cells, tables or HTTP plans),
    with one note per distinct kind of failure."""

    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)

    def ok(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, note: str, count: int = 1) -> None:
        self.attempted += count
        self.failed += count
        if note not in self.notes:
            self.notes.append(note)

    def check(self, good: bool, note: str, count: int = 1) -> None:
        if good:
            self.ok(count)
        else:
            self.fail(note, count)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0
