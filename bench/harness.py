"""Shared machinery of the benchmark: paths, child processes, spans, stats.

Everything here lives outside the program under test.  The program is
imported from ``src/`` of the checkout this file sits in, never from an
installed copy, and its processes are started with only that on
``PYTHONPATH``.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
TRACE_ROOT = ROOT / ".bench_out"
PY = sys.executable


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, crashed child)."""


def require_sources() -> None:
    """Fail unless the program's sources are present in this checkout."""
    if not (SRC / "pausecut" / "__init__.py").is_file():
        raise BenchError(f"program sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for program processes: our sources, no PAUSECUT_* overrides."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PAUSECUT_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


class ChildResult:
    def __init__(self, code: int, wall_s: float, cpu_s: float, maxrss_mb: float, stdout: str, stderr: str):
        self.code = code
        self.wall_s = wall_s
        self.cpu_s = cpu_s  # user plus system time of the process itself
        self.maxrss_mb = maxrss_mb
        self.stdout = stdout
        self.stderr = stderr

    def json(self):
        """The last stdout line of a benchmark child, parsed."""
        if self.code != 0:
            raise BenchError(f"child exited {self.code}: {self.stderr.strip()[-2000:]}")
        return json.loads(self.stdout.strip().splitlines()[-1])


def run_child(argv: list[str], workdir: Path, timeout: float = 170.0) -> ChildResult:
    """Run one process to completion; its wall time and its own peak RSS.

    The process is started by ``launch.py``, which reads the peak with
    ``os.wait4`` on it; started from this process, the child would
    report this process's peak instead (see ``launch.py``).
    """
    out_path = workdir / "child.out"
    err_path = workdir / "child.err"
    launcher = [PY, "-I", "-S", str(BENCH / "launch.py"), str(timeout), str(out_path), str(err_path)]
    done = subprocess.run(
        [*launcher, "--", *argv],
        capture_output=True,
        text=True,
        env=child_env(),
        cwd=ROOT,
        timeout=timeout + 15,
    )
    if done.returncode != 0:
        raise BenchError(f"launcher failed: {done.stderr.strip()[-2000:]}")
    got = json.loads(done.stdout)
    return ChildResult(
        got["code"],
        got["wall_s"],
        got["cpu_s"],
        got["maxrss_kb"] / 1024.0,
        out_path.read_text(),
        err_path.read_text(),
    )


def pausecut_cli(*args: str) -> list[str]:
    return [PY, "-m", "pausecut", *args]


# Prints the seconds one cold `import pausecut.cli` takes.
IMPORT_ARGV = [
    PY,
    "-c",
    "import time; t = time.perf_counter(); import pausecut.cli; print(time.perf_counter() - t)",
]


def child_value(argv: list[str], workdir: Path, runs: int = 3) -> float:
    """Median of a number each of `runs` fresh processes prints."""
    values = []
    for _ in range(runs):
        res = run_child(argv, workdir)
        values.append(float(res.json()))
    return median(values)


def cold_starts(argv: list[str], workdir: Path, runs: int = 11) -> list[float]:
    """Wall seconds of `runs` fresh processes; each must exit 0."""
    walls = []
    for _ in range(runs):
        res = run_child(argv, workdir)
        if res.code != 0:
            raise BenchError(f"set-up process exited {res.code}: {res.stderr.strip()[-2000:]}")
        walls.append(res.wall_s)
    return walls


@dataclass
class Outcome:
    """What one workload run produced: checks, metrics and report lines."""

    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    report: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        """Count one operation; a false `ok` counts it as failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.report.append(f"FAILED: {what}")

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def line(self, label: str, stats: dict, unit: str) -> None:
        """Report a timing as median plus its tail percentile and count."""
        tail = "no percentile has ten samples beyond it"
        if stats["tail_p"] is not None:
            tail = f"p{stats['tail_p']} {stats['tail']:.4g}"
        self.report.append(
            f"{label:<20} {stats['median']:.4g} {unit}  (median; {tail}; n={stats['n']})"
        )


def horizon_cuts(segments, max_len: float) -> int:
    """Segments ending exactly at start + max_len: blind cuts at the horizon."""
    return sum(1 for s in segments if s.end == s.start + max_len)


# -- statistics ---------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values))


def tail_percentile(values) -> tuple[float | None, float | None]:
    """Highest of p99/p95/p90/p75/p50 with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return p, percentile(ordered, p)
    return None, None


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    k = max(0, min(len(ordered) - 1, -(-len(ordered) * p // 100) - 1))
    return float(ordered[int(k)])


def timing(values, scale: float = 1.0) -> dict:
    """Median plus the highest percentile with ten samples beyond it."""
    p, tail = tail_percentile(values)
    return {
        "median": median(values) * scale,
        "tail_p": p,
        "tail": None if tail is None else tail * scale,
        "n": len(values),
    }


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) jiffies of the whole machine, where /proc/stat exists.

    Steal is time the hypervisor gave this VM's CPUs to someone else; it
    is reported so that a slow run on a contended host can be told apart.
    """
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def environment() -> dict:
    import numpy
    import yaml

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyyaml": yaml.__version__,
        "libyaml": bool(getattr(yaml, "__with_libyaml__", False)),
    }


# -- spans --------------------------------------------------------------------


class Tracer:
    """In-memory spans: name, start, end, parent and a shared key.

    The key groups the spans of one file, stream or scan.  A disabled
    tracer records nothing, so a traced and an untraced run execute the
    same calls.  Spans are written out only by :meth:`dump`.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[tuple] = []  # (id, parent, name, key, start, end)
        self._next = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, key=None, parent: int | None = None):
        """Time the body; the parent is the enclosing span of this thread
        unless given (a span opened on another thread)."""
        if not self.enabled:
            yield None
            return
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            sid = self._next
            self._next += 1
        if parent is None and stack:
            parent = stack[-1]
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, key, start, end))

    def call(self, name: str, key, fn, *args, **kwargs):
        with self.span(name, key):
            return fn(*args, **kwargs)

    def total(self, name: str) -> float:
        return sum(end - start for _, _, n, _, start, end in self.spans if n == name)

    def durations(self, name: str) -> list[float]:
        return [end - start for _, _, n, _, start, end in self.spans if n == name]

    def self_times(self) -> dict[str, float]:
        """Per name: summed duration minus the part covered by child spans."""
        children: dict[int, list[tuple[float, float]]] = {}
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        out: dict[str, float] = {}
        for sid, _, name, _, start, end in self.spans:
            covered = union_s(children.get(sid, []))
            out[name] = out.get(name, 0.0) + (end - start) - covered
        return out

    def dump(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            fh.write(json.dumps({"summary": extra, "self_s": self.self_times()}) + "\n")
            for sid, parent, name, key, start, end in sorted(self.spans, key=lambda s: s[4]):
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "parent": parent,
                            "name": name,
                            "key": key,
                            "start_s": start - t0,
                            "end_s": end - t0,
                        }
                    )
                    + "\n"
                )


def union_s(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
