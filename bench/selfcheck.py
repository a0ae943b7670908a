"""Fast self-check of the benchmark itself.

    python3 bench/selfcheck.py

Runs every workload at a tiny size, untraced and traced, and checks that
each named metric appears with its unit; that a deliberately wrong
reference output is counted as a failed operation; that the metric
tables here agree with ``BENCHMARK.json``; and that the benchmark
refuses to run, printing no result, where the program's sources are
missing.  Exits nonzero on the first problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import archive_scan
import harness
import live_streams
import run
import talks_batch

TINY = {
    "talks-batch": {"talks": 2, "talk_seconds": 30.0},
    "live-streams": {"streams": 16},
    "archive-scan": {"hours": 0.25},
}


def expect(ok: bool, what: str) -> None:
    if not ok:
        print(f"selfcheck: FAILED: {what}", file=sys.stderr)
        sys.exit(1)


def check_contract() -> None:
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
           "BENCHMARK.json end_to_end differs from run.END_TO_END")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER,
           "BENCHMARK.json per_layer differs from run.PER_LAYER")
    expect({w["name"] for w in spec["workloads"]} == set(run.WORKLOADS),
           "BENCHMARK.json workloads differ from run.WORKLOADS")


def check_metrics() -> None:
    for workload, scale in TINY.items():
        for trace, table in ((False, run.END_TO_END), (True, run.PER_LAYER)):
            _, result = run.measure(workload, 7, 1.0, trace, **scale)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == table, f"{workload} trace={trace}: metrics or units differ")
            expect(result["correct"] and result["failed"] == 0, f"{workload} trace={trace}: failed")
            expect(result["attempted"] >= 1, f"{workload}: nothing attempted")
            print(f"selfcheck: {workload} trace={int(trace)} ok ({result['attempted']} operations)")


def _wrong_lines(paths):
    return _right_lines(paths)[:-1] + ["- {wav: wrong.wav, offset: 0.000000, duration: 1.000000}"]


def _wrong_streams(out, cfg, got):
    got["segments"][0] = got["segments"][0] + [[1e9, 1e9 + 1]]
    _right_streams(out, cfg, got)


def _wrong_reports(workdir):
    stats, prf = _right_reports(workdir)
    return dict(stats, num_segments=stats["num_segments"] + 1), prf


_right_lines = talks_batch.reference_lines
_right_streams = live_streams.check_streams
_right_reports = archive_scan.expected_reports


def check_faults() -> None:
    """A wrong reference must show up as failed operations."""
    talks_batch.reference_lines = _wrong_lines
    live_streams.check_streams = _wrong_streams
    archive_scan.expected_reports = _wrong_reports
    try:
        for workload, scale in TINY.items():
            lines, result = run.measure(workload, 7, 1.0, False, **scale)
            expect(result["failed"] >= 1 and not result["correct"],
                   f"{workload}: a wrong reference was not counted as failed")
            expect(any(line.startswith("fail_ratio") and not line.split()[1] == "0" for line in lines),
                   f"{workload}: fail_ratio does not show the failure")
            print(f"selfcheck: {workload} counts a wrong reference ({result['failed']} failed)")
    finally:
        talks_batch.reference_lines = _right_lines
        live_streams.check_streams = _right_streams
        archive_scan.expected_reports = _right_reports


def check_bare_directory() -> None:
    """Without the program's sources the benchmark must fail and print no result."""
    bare = harness.WORK_ROOT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(harness.BENCH, bare / harness.BENCH.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(harness.ROOT / "BENCHMARK.json", bare)
        done = subprocess.run(
            [harness.PY, f"{harness.BENCH.name}/run.py", "--workload", "archive-scan",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
        expect(done.returncode != 0 and not done.stdout.strip(),
               "a directory without src/ still produced a result")
        print("selfcheck: refuses to run without the program's sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            harness.WORK_ROOT.rmdir()
        except OSError:
            pass


def main() -> int:
    harness.require_sources()
    check_contract()
    check_metrics()
    check_faults()
    check_bare_directory()
    print("selfcheck: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
