"""talks-batch: the offline corpus job.

One ``pausecut segment`` process (default hybrid, batch, ``--jobs 2``,
YAML written to a file) over four noisy 15-minute 16 kHz PCM16 talks,
one hour of audio in all, repeated for the measuring window.  Between
batch runs, a single-talk run measures how long a user waits for one
manifest.
"""

from __future__ import annotations

import os
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import harness
import inputs

NAME = "talks-batch"
WHY = "the paper's offline corpus job: segment whole recordings in batch"
STRESSES = "vad (classify is ~3/4 of the per-file time), audio decode and peak memory, cli start-up"
BYPASSES = "streaming; segmenters and manifest render are under 1%; no manifest is parsed"

TALKS = 4
TALK_SECONDS = 900.0
JOBS = 2


def _entry_lines(text: str) -> list[str]:
    return [line for line in text.splitlines() if not line.startswith("#")]


def reference_lines(paths: list[Path]) -> list[str]:
    """Entry lines of the library's render of the CLI's default pipeline."""
    return _entry_lines(replay(paths, harness.Tracer(enabled=False))[0])


def make_inputs(seed: int, workdir: Path, talks: int, seconds: float) -> list[Path]:
    from pausecut import AudioClip, write_wav

    paths = []
    for k in range(talks):
        path = workdir / f"talk{k}.wav"
        write_wav(path, AudioClip(inputs.talk(seed, k, seconds), inputs.RATE))
        paths.append(path)
    return paths


def run(seed: int, seconds: float, trace_path: Path | None, workdir: Path, *,
        talks: int = TALKS, talk_seconds: float = TALK_SECONDS) -> harness.Outcome:
    out = harness.Outcome()
    paths = make_inputs(seed, workdir, talks, talk_seconds)
    audio_s = talks * talk_seconds
    expected = reference_lines(paths)
    expected_one = reference_lines(paths[:1])
    batch_argv = harness.pausecut_cli(
        "segment", *map(str, paths), "--jobs", str(JOBS), "-o", str(workdir / "batch.yaml")
    )
    one_argv = harness.pausecut_cli("segment", str(paths[0]), "-o", str(workdir / "one.yaml"))

    def cli_run(argv: list[str], manifest: Path, want: list[str], what: str):
        manifest.unlink(missing_ok=True)
        res = harness.run_child(argv, workdir)
        ok = res.code == 0 and manifest.exists() and _entry_lines(manifest.read_text()) == want
        out.check(ok, f"{what} (exit {res.code}): manifest differs from the library render")
        return res

    if trace_path is not None:
        tracer = _trace(out, paths, audio_s, workdir, batch_argv, cli_run, expected)
        tracer.dump(trace_path, {"workload": NAME, "seed": seed})
        return out

    setup = harness.cold_starts(harness.pausecut_cli("--version"), workdir)
    batch_walls, batch_rss, one_walls = [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(batch_walls) < 3:
        res = cli_run(batch_argv, workdir / "batch.yaml", expected, "batch run")
        batch_walls.append(res.wall_s)
        batch_rss.append(res.maxrss_mb)
        one_walls.append(cli_run(one_argv, workdir / "one.yaml", expected_one, "one-talk run").wall_s)

    x_rt = [audio_s / w for w in batch_walls]
    out.put("setup_s", harness.median(setup), "s")
    out.put("x_realtime", harness.median(x_rt), "x")
    out.put("latency_p50_ms", harness.median(one_walls) * 1000, "ms")
    # The two workers' peaks coincide in some runs and not in others, so
    # the largest run is the job's peak; a median would track the overlap.
    out.put("peak_rss_mb", max(batch_rss), "MB")
    out.line("setup_s", harness.timing(setup), "s")
    out.line("batch_x_realtime", harness.timing(x_rt), "x")
    out.line("one_talk_ms", harness.timing(one_walls, 1000), "ms")
    out.report.append(f"peak_rss_mb          {max(batch_rss):.4g} MB (largest of {len(batch_rss)} batch runs)")
    return out


# -- traced run ---------------------------------------------------------------


REPLAY_LAYERS = (
    "audio.read_wav",
    "vad.classify",
    "vad.detect_pauses",
    "segmenters.hybrid",
    "manifest.segments_to_entries",
    "manifest.render",
)


def replay(paths: list[Path], tracer: harness.Tracer):
    """The CLI's per-file pipeline in-process, on the same 2-worker pool."""
    from pausecut import HybridParams, VadConfig, classify, detect_pauses, read_wav, segment_hybrid
    from pausecut.manifest import render_manifest, segments_to_entries

    def process(path: Path, parent):
        with tracer.span("file", path.name, parent):
            clip = tracer.call("audio.read_wav", path.name, read_wav, path)
            track = tracer.call("vad.classify", path.name, classify, clip, VadConfig())
            pauses = tracer.call("vad.detect_pauses", path.name, detect_pauses, track)
            segments = tracer.call(
                "segmenters.hybrid", path.name, segment_hybrid, pauses, track.duration, HybridParams()
            )
            entries = tracer.call(
                "manifest.segments_to_entries", path.name, segments_to_entries,
                segments, path.name, clip.duration,
            )
            return track.total_frames, len(pauses), segments, entries

    with tracer.span("replay") as root:
        with ThreadPoolExecutor(max_workers=JOBS) as pool:
            results = list(pool.map(process, paths, [root] * len(paths)))
        entries = [e for r in results for e in r[3]]
        text = tracer.call("manifest.render", None, render_manifest, entries, {"strategy": "hybrid"})
    return text, results


def _trace(out, paths, audio_s, workdir, batch_argv, cli_run, expected) -> harness.Tracer:
    from pausecut import HybridParams, VadConfig, read_wav
    from pausecut.vad import frame_energies

    untraced = harness.Tracer(enabled=False)
    t0 = time.perf_counter()
    replay(paths, untraced)
    plain_wall = time.perf_counter() - t0

    tracer = harness.Tracer()
    t0 = time.perf_counter()
    text, results = replay(paths, tracer)
    traced_wall = time.perf_counter() - t0
    out.check(_entry_lines(text) == expected, "traced replay differs from the library render")

    for path in paths:  # frame energies on their own: classify computes them internally
        clip = read_wav(path)
        with tracer.span("pass.frame_energies", path.name):
            tracer.call("vad.frame_energies", path.name, frame_energies, clip, VadConfig().frame_ms)
        del clip

    read_peak, energies_peak = alloc_peaks(paths[0])
    cli = cli_run(batch_argv, workdir / "batch.yaml", expected, "batch run")
    import_s = harness.child_value(harness.IMPORT_ARGV, workdir)
    layer_busy = harness.union_s([(s[4], s[5]) for s in tracer.spans if s[2] in REPLAY_LAYERS])
    frames = sum(r[0] for r in results)
    segments = [seg for r in results for seg in r[2]]
    classify_s = tracer.total("vad.classify")
    m = out.put
    m("audio.read_wav_s", tracer.total("audio.read_wav"), "s")
    m("audio.read_wav_peak_alloc_mb", read_peak, "MB")
    m("audio.bytes_read", sum(os.path.getsize(p) for p in paths), "bytes")
    m("vad.frame_energies_s", tracer.total("vad.frame_energies"), "s")
    m("vad.frame_energies_peak_alloc_mb", energies_peak, "MB")
    m("vad.classify_s", classify_s, "s")
    m("vad.classify_us_per_frame", classify_s / frames * 1e6, "us")
    m("vad.frames", frames, "count")
    m("vad.detect_pauses_s", tracer.total("vad.detect_pauses"), "s")
    m("vad.pauses", sum(r[1] for r in results), "count")
    m("segmenters.hybrid_s", tracer.total("segmenters.hybrid"), "s")
    m("segmenters.segments", len(segments), "count")
    m("segmenters.horizon_cuts", harness.horizon_cuts(segments, HybridParams().max_len), "count")
    m("manifest.render_s", tracer.total("manifest.render"), "s")
    m("manifest.entries", len(_entry_lines(text)), "count")
    m("manifest.bytes", len(text.encode()), "bytes")
    m("cli.import_s", import_s, "s")
    m("cli.self_s", cli.wall_s - layer_busy, "s")
    m("cli.files", len(paths), "count")
    m("harness.trace_overhead_pct", (traced_wall - plain_wall) / plain_wall * 100, "%")
    out.report.append(
        f"replay wall {plain_wall:.3f} s untraced, {traced_wall:.3f} s traced; "
        f"CLI wall {cli.wall_s:.3f} s for {audio_s:.0f} s of audio"
    )
    return tracer


def alloc_peaks(path: Path) -> tuple[float, float]:
    """tracemalloc peaks (MB) of read_wav and frame_energies on one file.

    A pass of its own: tracemalloc slows allocation-heavy code several
    times over, so it never runs inside a timed span.
    """
    from pausecut import VadConfig, read_wav
    from pausecut.vad import frame_energies

    tracemalloc.start()
    try:
        clip = read_wav(path)
        read_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        frame_energies(clip, VadConfig().frame_ms)
        energies_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return read_peak / 2**20, energies_peak / 2**20
