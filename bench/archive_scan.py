"""archive-scan: segment, summarise and compare one long recording.

A frame-grid pause inventory of an ~8 h recording (about 11k pauses) is
built in-process; ``segment_hybrid``, ``segment_hybrid_force`` and
``segment_srpol`` run on it, and the library writes YAML and JSONL
manifests.  Then ``pausecut stats`` reads the hybrid-force YAML manifest
and ``pausecut compare`` scores the hybrid-force JSONL manifest against
the hybrid YAML manifest, each as its own process.  Scan rounds, each
in a fresh process, alternate with those report processes for the
window.

Both timings are CPU seconds (user plus system) of the process doing the
work.  The work is single-threaded and CPU-bound, so on an idle core
they equal its wall time; unlike wall time, they leave out time the
process spent waiting for a core that other processes or the hypervisor
held.  Wall times are reported alongside.

Run as a script, this file is the scan process (``child``).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import harness
import inputs

NAME = "archive-scan"
WHY = "archive users segment, summarise and compare manifests of long recordings"
STRESSES = "segmenters (the scans grow superlinearly with length), manifest parsing (YAML above all), metrics"
BYPASSES = "audio decode and the VAD: the pause inventory is built directly"

HOURS = 8.0
TOLERANCE = 0.5
MAX_LEN = 20.0


def run(seed: int, seconds: float, trace_path: Path | None, workdir: Path, *,
        hours: float = HOURS) -> harness.Outcome:
    out = harness.Outcome()
    plan = {
        "seed": seed,
        "hours": hours,
        "workdir": str(workdir),
        "trace_path": None if trace_path is None else str(trace_path),
    }
    (workdir / "plan.json").write_text(json.dumps(plan))
    scan_argv = [harness.PY, __file__, "child", str(workdir / "plan.json")]
    stats_argv = harness.pausecut_cli("stats", str(workdir / "force.yaml"), "--json")
    compare_argv = harness.pausecut_cli(
        "compare", str(workdir / "force.jsonl"), str(workdir / "hybrid.yaml"), "--json"
    )

    def scan_round():
        child = harness.run_child(scan_argv, workdir)
        got = child.json()
        out.attempted += 3  # each scan call returned
        for name, segments in got["segments"].items():
            check_tiling(out, name, segments, got["total"], bounded=name != "srpol")
        return child, got

    def report_pair():
        stats = harness.run_child(stats_argv, workdir)
        out.check(stats.code == 0 and _json(stats.stdout) == want_stats,
                  f"stats --json (exit {stats.code}) differs from compute_stats")
        cmp_ = harness.run_child(compare_argv, workdir)
        out.check(cmp_.code == 0 and _json(cmp_.stdout) == want_prf,
                  f"compare --json (exit {cmp_.code}) differs from boundary_prf")
        return stats, cmp_

    setup = None if trace_path else harness.cold_starts(harness.pausecut_cli("--version"), workdir)
    child, got = scan_round()
    want_stats, want_prf = expected_reports(workdir)
    if trace_path is not None:
        stats, cmp_ = report_pair()
        for name, (value, unit) in got["layers"].items():
            out.put(name, value, unit)
        out.put("cli.import_s", harness.child_value(harness.IMPORT_ARGV, workdir), "s")
        out.put("cli.self_s", stats.wall_s + cmp_.wall_s - got["replay_s"], "s")
        out.put("cli.files", 3, "count")
        return out

    # Scan rounds and report pairs alternate, so that both sample the
    # whole window rather than one part of it each.
    scan_cpu, scan_wall, pairs_cpu, pairs_wall, rss = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        scan_cpu.append(got["scan_cpu_s"])
        scan_wall.append(got["scan_s"])
        stats, cmp_ = report_pair()
        pairs_cpu.append(stats.cpu_s + cmp_.cpu_s)
        pairs_wall.append(stats.wall_s + cmp_.wall_s)
        rss += [child.maxrss_mb, stats.maxrss_mb, cmp_.maxrss_mb]
        if time.perf_counter() >= deadline and len(pairs_cpu) >= 3:
            break
        child, got = scan_round()

    total = got["total"]
    x_rt = [3 * total / s for s in scan_cpu]
    out.put("setup_s", harness.median(setup), "s")
    out.put("x_realtime", harness.median(x_rt), "x")
    out.put("latency_p50_ms", harness.median(pairs_cpu) * 1000, "ms")
    out.put("peak_rss_mb", max(rss), "MB")
    out.line("setup_s", harness.timing(setup), "s")
    out.line("scan_x_realtime", harness.timing(x_rt), "x")
    out.line("  wall clock", harness.timing([3 * total / s for s in scan_wall]), "x")
    out.line("report_s", harness.timing(pairs_cpu), "s")
    out.line("  wall clock", harness.timing(pairs_wall), "s")
    out.report.append(f"peak_rss_mb          {max(rss):.4g} MB (largest of scan, stats and compare processes)")
    out.report.append(
        f"inventory {got['pauses']} pauses over {total / 3600:.2f} h; "
        f"segments hybrid {len(got['segments']['hybrid'])}, hybrid-force "
        f"{len(got['segments']['hybrid_force'])}, srpol {len(got['segments']['srpol'])}"
    )
    return out


def _json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return None


def check_tiling(out: harness.Outcome, name: str, segments, total: float, bounded: bool) -> None:
    """The scan tiles [0, total) exactly; hybrid scans also respect max_len."""
    seams = all(a[1] == b[0] for a, b in zip(segments, segments[1:]))
    ends = bool(segments) and segments[0][0] == 0.0 and segments[-1][1] == total
    out.check(seams and ends, f"{name}: segments do not tile [0, {total})")
    if bounded:  # the contract's exact form: end <= start + max_len
        over = [(s, e) for s, e in segments if e > s + MAX_LEN]
        out.check(not over, f"{name}: {len(over)} segments end after start + max_len")


def expected_reports(workdir: Path) -> tuple[dict, dict]:
    """What ``stats --json`` and ``compare --json`` must print, in-process.

    Computed from the JSONL twins of the YAML manifests: both renders
    carry the same six-decimal values, so they parse to the same floats.
    """
    from pausecut import boundary_prf, compute_stats
    from pausecut.manifest import entries_to_segments, read_manifest

    force, header = read_manifest(workdir / "force.jsonl")
    total = float(header["total_duration"])
    stats = compute_stats(entries_to_segments(force, total), total)
    hybrid, _ = read_manifest(workdir / "hybrid.jsonl")
    prf = boundary_prf(entries_to_segments(force), entries_to_segments(hybrid), TOLERANCE)
    return (
        {
            "pct_filtered": stats.pct_filtered,
            "num_segments": stats.num_segments,
            "max_len": stats.max_len,
            "min_len": stats.min_len,
            "avg_len": stats.avg_len,
        },
        {"precision": prf.precision, "recall": prf.recall, "f1": prf.f1, "tolerance": prf.tolerance},
    )


# -- the scan process ---------------------------------------------------------


def scans(pauses, total: float, tracer: harness.Tracer, key):
    from pausecut import HybridParams, Segment, SrpolParams
    from pausecut import segment_hybrid, segment_hybrid_force, segment_srpol

    return {
        "hybrid": tracer.call(
            "segmenters.hybrid", key, segment_hybrid, pauses, total, HybridParams(max_len=MAX_LEN)
        ),
        "hybrid_force": tracer.call(
            "segmenters.hybrid_force", key, segment_hybrid_force, pauses, total,
            HybridParams(max_len=MAX_LEN, force_split=True),
        ),
        "srpol": tracer.call(
            "segmenters.srpol", key, segment_srpol, Segment(0.0, total), pauses, SrpolParams(MAX_LEN)
        ),
    }


def write_manifests(result, total: float, workdir: Path, tracer: harness.Tracer) -> int:
    """The YAML and JSONL manifests the report processes read; returns bytes."""
    from pausecut.manifest import render_manifest, segments_to_entries

    written = 0
    for name, scan, strategy in (("hybrid", "hybrid", "hybrid"), ("force", "hybrid_force", "hybrid-force")):
        entries = segments_to_entries(result[scan], "archive.wav", total)
        header = {"strategy": strategy, "total_duration": f"{total:.6f}", "max_len": MAX_LEN}
        for fmt in ("yaml", "jsonl"):
            text = tracer.call("manifest.render", name, render_manifest, entries, header, fmt)
            (workdir / f"{name}.{fmt}").write_text(text)
            written += len(text.encode())
    return written


def replay_reports(workdir: Path, tracer: harness.Tracer) -> None:
    """The stats and compare pipelines of the CLI, in-process."""
    from pausecut import boundary_prf, compute_stats
    from pausecut.manifest import entries_to_segments, parse_manifest

    with tracer.span("cli.stats"):
        force, header = tracer.call(
            "manifest.parse_yaml", "force", parse_manifest, (workdir / "force.yaml").read_text()
        )
        total = float(header["total_duration"])
        segments = tracer.call("manifest.entries_to_segments", "force", entries_to_segments, force, total)
        tracer.call("metrics.compute_stats", "force", compute_stats, segments, total)
    with tracer.span("cli.compare"):
        hyp, _ = tracer.call(
            "manifest.parse_jsonl", "force", parse_manifest, (workdir / "force.jsonl").read_text()
        )
        ref, _ = tracer.call(
            "manifest.parse_yaml", "hybrid", parse_manifest, (workdir / "hybrid.yaml").read_text()
        )
        hyp_s = tracer.call("manifest.entries_to_segments", "force", entries_to_segments, hyp)
        ref_s = tracer.call("manifest.entries_to_segments", "hybrid", entries_to_segments, ref)
        tracer.call("metrics.boundary_prf", None, boundary_prf, hyp_s, ref_s, TOLERANCE)


def _child(plan_path: str) -> None:
    """One scan round; writes the manifests the report processes read."""
    plan = json.loads(Path(plan_path).read_text())
    workdir = Path(plan["workdir"])
    pauses, total = inputs.pause_inventory(plan["seed"], plan["hours"])
    plain = harness.Tracer(enabled=False)
    c0, t0 = time.process_time(), time.perf_counter()
    result = scans(pauses, total, plain, None)
    scan_s = time.perf_counter() - t0
    answer = {
        "total": total,
        "pauses": len(pauses),
        "scan_s": scan_s,
        "scan_cpu_s": time.process_time() - c0,
        "segments": {k: [(s.start, s.end) for s in v] for k, v in result.items()},
    }
    if not plan["trace_path"]:
        write_manifests(result, total, workdir, plain)
    else:
        tracer = harness.Tracer()
        t0 = time.perf_counter()
        result = scans(pauses, total, tracer, "scan")
        traced = time.perf_counter() - t0
        t0 = time.perf_counter()  # untraced again, so that warm-up is on both sides
        scans(pauses, total, plain, None)
        scan_s = (scan_s + time.perf_counter() - t0) / 2
        written = write_manifests(result, total, workdir, tracer)
        t0 = time.perf_counter()
        replay_reports(workdir, tracer)
        replay_s = time.perf_counter() - t0
        entries = sum(len(v) for k, v in result.items() if k != "srpol")
        answer["layers"] = {
            "segmenters.hybrid_s": (tracer.total("segmenters.hybrid"), "s"),
            "segmenters.hybrid_force_s": (tracer.total("segmenters.hybrid_force"), "s"),
            "segmenters.srpol_s": (tracer.total("segmenters.srpol"), "s"),
            "segmenters.segments": (sum(map(len, result.values())), "count"),
            "segmenters.horizon_cuts": (
                harness.horizon_cuts(result["hybrid"] + result["hybrid_force"], MAX_LEN),
                "count",
            ),
            "manifest.render_s": (tracer.total("manifest.render"), "s"),
            "manifest.entries": (entries, "count"),
            "manifest.bytes": (written, "bytes"),
            "manifest.parse_yaml_s": (tracer.total("manifest.parse_yaml"), "s"),
            "manifest.parse_jsonl_s": (tracer.total("manifest.parse_jsonl"), "s"),
            "manifest.entries_to_segments_s": (tracer.total("manifest.entries_to_segments"), "s"),
            "metrics.compute_stats_s": (tracer.total("metrics.compute_stats"), "s"),
            "metrics.boundary_prf_s": (tracer.total("metrics.boundary_prf"), "s"),
            "harness.trace_overhead_pct": ((traced - scan_s) / scan_s * 100, "%"),
        }
        answer["replay_s"] = replay_s
        tracer.dump(Path(plan["trace_path"]), {"workload": NAME, "seed": plan["seed"]})
    print(json.dumps(answer))


if __name__ == "__main__":
    _child(sys.argv[2])
