"""pausecut benchmark: one workload per run, fresh processes, checked outputs.

    python3 bench/run.py --workload talks-batch --seed 1 --seconds 20 --trace 0

Run from anywhere; the program is taken from ``src/`` of the checkout
holding this file.  Human-readable report lines come first; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones, measured with tracing off; with
``--trace 1`` they are the per-layer ones of a separate traced run,
whose spans are written to ``.bench_out/<workload>-seed<n>.jsonl``.
See ``bench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import archive_scan
import harness
import live_streams
import talks_batch

WORKLOADS = {m.NAME: m for m in (talks_batch, live_streams, archive_scan)}

# The end-to-end metrics every workload reports, and what each is called
# in that workload's own terms.
END_TO_END = {"setup_s": "s", "x_realtime": "x", "latency_p50_ms": "ms", "peak_rss_mb": "MB"}
MEANING = {
    "talks-batch": {
        "setup_s": "cold `pausecut --version`",
        "x_realtime": "batch_x_realtime: audio s per wall s of the 4-talk CLI process",
        "latency_p50_ms": "wall time of a one-talk `pausecut segment` process",
        "peak_rss_mb": "ru_maxrss of the 4-talk CLI process",
    },
    "live-streams": {
        "setup_s": f"cold import plus construction of {live_streams.STREAMS} engines",
        "x_realtime": "stream_capacity: real-time 20 ms streams one loop sustains (busy CPU time per tick)",
        "latency_p50_ms": "stream_lat_p50_ms: due time to last engine return, per tick, replayed from busy CPU time",
        "peak_rss_mb": "ru_maxrss of the engine process",
    },
    "archive-scan": {
        "setup_s": "cold `pausecut --version`",
        "x_realtime": "scan_x_realtime: recording s per CPU s of the scan process, summed over the three scans",
        "latency_p50_ms": "report_s in ms: CPU time of the `stats` plus `compare` processes",
        "peak_rss_mb": "ru_maxrss of the largest of the scan, stats and compare processes",
    },
}

# Per-layer metrics of the traced run.  A workload that bypasses a layer
# reports 0 for it: no call into that module was made.
PER_LAYER = {
    "audio.read_wav_s": "s",
    "audio.read_wav_peak_alloc_mb": "MB",
    "audio.bytes_read": "bytes",
    "vad.frame_energies_s": "s",
    "vad.frame_energies_peak_alloc_mb": "MB",
    "vad.classify_s": "s",
    "vad.classify_us_per_frame": "us",
    "vad.frames": "count",
    "vad.detect_pauses_s": "s",
    "vad.pauses": "count",
    "segmenters.hybrid_s": "s",
    "segmenters.hybrid_force_s": "s",
    "segmenters.srpol_s": "s",
    "segmenters.segments": "count",
    "segmenters.horizon_cuts": "count",
    "streaming.push_frame_us_p50": "us",
    "streaming.push_frame_us_p99": "us",
    "streaming.emitted": "count",
    "streaming.buffered_frames_max": "count",
    "streaming.gc_pause_ms": "ms",
    "streaming.checkpoint_bytes": "bytes",
    "streaming.save_state_ms": "ms",
    "streaming.restore_state_ms": "ms",
    "manifest.render_s": "s",
    "manifest.entries": "count",
    "manifest.bytes": "bytes",
    "manifest.parse_yaml_s": "s",
    "manifest.parse_jsonl_s": "s",
    "manifest.entries_to_segments_s": "s",
    "metrics.compute_stats_s": "s",
    "metrics.boundary_prf_s": "s",
    "cli.import_s": "s",
    "cli.self_s": "s",
    "cli.files": "count",
    "harness.late_max_ms": "ms",
    "harness.ticks": "count",
    "harness.lat_p99_ms": "ms",
    "harness.trace_overhead_pct": "%",
}


def measure(workload: str, seed: int, seconds: float, trace: bool, **scale) -> tuple[list[str], dict]:
    """Run one workload; returns the report lines and the result object."""
    harness.require_sources()
    module = WORKLOADS[workload]
    workdir = harness.WORK_ROOT / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    trace_path = harness.TRACE_ROOT / f"{workload}-seed{seed}.jsonl" if trace else None
    ticks0 = harness.cpu_ticks()
    try:
        out = module.run(seed, seconds, trace_path, workdir, **scale)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            harness.WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it
    wanted = PER_LAYER if trace else END_TO_END
    for name, unit in wanted.items():
        if trace:
            out.metrics.setdefault(name, (0.0, unit))
        if name not in out.metrics or out.metrics[name][1] != unit:
            raise harness.BenchError(f"{workload} did not report {name} in {unit}")

    env = harness.environment()
    ticks1 = harness.cpu_ticks()
    if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
        env["steal_pct"] = round(100 * (ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1]), 1)
    lines = [
        f"workload  {workload} (seed {seed}, {seconds:g} s, trace {int(trace)})",
        f"why       {module.WHY}",
        f"stresses  {module.STRESSES}",
        f"bypasses  {module.BYPASSES}",
        "env       " + " ".join(f"{k}={v}" for k, v in env.items()),
        *out.report,
        f"fail_ratio           {out.failed / max(out.attempted, 1):.4g} "
        f"({out.failed} of {out.attempted} operations failed)",
    ]
    for name in wanted:
        value, unit = out.metrics[name]
        note = f"  {MEANING[workload][name]}" if not trace else ""
        lines.append(f"metric {name} = {value:.6g} {unit}{note}")
    if trace:
        lines.append(f"spans     {trace_path.relative_to(harness.ROOT)}")
    result = {
        "correct": out.failed == 0,
        "attempted": max(out.attempted, 1),
        "failed": out.failed,
        "metrics": {n: {"value": out.metrics[n][0], "unit": out.metrics[n][1]} for n in wanted},
    }
    return lines, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0, help="measuring window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        lines, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except harness.BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
