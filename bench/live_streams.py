"""live-streams: many real-time streams on one engine loop.

An open loop in one process: 250 hybrid-force engines (20 ms frames) are
pre-rolled to staggered phases, then every 20 ms one frame per stream
falls due and the loop pushes it.  A tick's latency runs from its due
time until the last engine returns; frames are built before they are
due, so the generator's own work is not latency.  Within a tick the loop
is closed: its frames are pushed back to back, so the busy part of each
tick gives the frame rate one loop sustains, and with it how many
real-time streams it could carry.

The end-to-end metrics time the busy part of each tick in CPU seconds of
the loop's thread, and take latency from a replay of the schedule with
those busy times (see ``queued_latency``): the latency the loop has on a
core of its own.  On a shared 2-vCPU VM, wall-clock tick latency
rose by 60% in runs where the hypervisor took 7-12% of the CPU (steal);
CPU time leaves that out.  The wall-clock figures are reported alongside.

Run as a script, this file is the engine process (``child``) or a bare
set-up process (``setup``); the benchmark starts both.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from pathlib import Path

import numpy as np

import harness
import inputs

NAME = "live-streams"
WHY = "live services drive StreamingSegmenter, whose point is a latency bound of MAX_LEN"
STRESSES = "streaming: the per-frame VAD step, boundary search and trimming, and GC over buffered frames"
BYPASSES = "audio decode, batch classify, the batch scans, manifests and the CLI"

STREAMS = 250
PERIOD_S = 0.02
PREROLL_FRAMES = 1000  # phases spread over one 20 s horizon
CHECKED = 8  # streams compared against the batch segmenter
SPF = inputs.RATE * inputs.FRAME_MS // 1000


def plan(seed: int, seconds: float, trace: bool, streams: int = STREAMS) -> dict:
    ticks = int(round(seconds / PERIOD_S))
    if trace:  # an untraced and a traced window, each a quarter of the run
        ticks = max(50, ticks // 4)
    frames_needed = PREROLL_FRAMES + 2 * ticks
    clip_s = max(900.0, frames_needed * PERIOD_S + 60.0)
    rng = np.random.default_rng([seed, 0x57])
    span_frames = int(clip_s / PERIOD_S) - frames_needed
    return {
        "seed": seed,
        "clip_s": clip_s,
        "streams": streams,
        "ticks": ticks,
        "trace": trace,
        "offsets": (rng.integers(0, span_frames, size=streams) * SPF).tolist(),
        "preroll": rng.integers(0, PREROLL_FRAMES, size=streams).tolist(),
        "checked": sorted(rng.choice(streams, size=min(CHECKED, streams), replace=False).tolist()),
    }


def run(seed: int, seconds: float, trace_path: Path | None, workdir: Path, *,
        streams: int = STREAMS) -> harness.Outcome:
    out = harness.Outcome()
    trace = trace_path is not None
    cfg = plan(seed, seconds, trace, streams)
    np.save(workdir / "base.npy", inputs.talk(seed, 100, cfg["clip_s"]))
    cfg["clip"] = str(workdir / "base.npy")
    cfg["trace_path"] = None if trace_path is None else str(trace_path)
    (workdir / "plan.json").write_text(json.dumps(cfg))

    setup = None
    if not trace:
        setup = harness.cold_starts([harness.PY, __file__, "setup", str(streams)], workdir)
    res = harness.run_child([harness.PY, __file__, "child", str(workdir / "plan.json")], workdir)
    got = res.json()
    check_streams(out, cfg, got)
    out.attempted += got["ticks"]  # every push of every tick returned

    lat, late, busy_cpu = got["lat_s"], got["late_s"], got["busy_cpu_s"]
    # Frames per busy CPU second / 50 frames per real-time second.
    capacity = streams / harness.median(busy_cpu) * PERIOD_S
    lat_cpu_t = harness.timing(queued_latency(busy_cpu), 1000)
    lat_t = harness.timing(lat, 1000)
    if lat_t["tail_p"] != 99 and not trace:
        out.report.append(f"NOTE: {len(lat)} ticks give p99 fewer than ten samples beyond it")
    out.report.append(
        f"ticks {len(lat)}; generator late by at most {max(late) * 1000:.3f} ms "
        f"(median {harness.median(late) * 1000:.3f} ms); segments emitted {got['emitted']}"
    )
    if trace:
        for name, (value, unit) in got["layers"].items():
            out.put(name, value, unit)
        out.put("harness.late_max_ms", max(late) * 1000, "ms")
        out.put("harness.ticks", len(lat), "count")
        out.put("harness.lat_p99_ms", harness.percentile(lat, 99) * 1000, "ms")
        return out

    out.put("setup_s", harness.median(setup), "s")
    out.put("x_realtime", capacity, "x")
    out.put("latency_p50_ms", lat_cpu_t["median"], "ms")
    out.put("peak_rss_mb", res.maxrss_mb, "MB")
    out.line("setup_s", harness.timing(setup), "s")
    out.line("stream_lat_ms", lat_cpu_t, "ms")
    out.line("  wall clock", lat_t, "ms")
    out.report.append(f"stream_lat_p99_ms    {harness.percentile(lat, 99) * 1000:.4g} ms (wall clock)")
    out.line("stream_capacity", harness.timing([streams / b * PERIOD_S for b in busy_cpu]), "streams")
    out.line("  wall clock", harness.timing([streams / b * PERIOD_S for b in got["busy_s"]]), "streams")
    out.report.append(f"peak_rss_mb          {res.maxrss_mb:.4g} MB (engine process)")
    out.report.append(f"harness.late_max_ms  {max(late) * 1000:.4g} ms")
    return out


def queued_latency(busy: list[float]) -> list[float]:
    """Tick latencies of the open loop, given each tick's busy time.

    Tick t falls due at t * PERIOD_S; it starts when it is due or when
    the tick before it ends, whichever is later, and then takes its busy
    time.  A long tick (a GC pass, say) so delays the ticks after it, as
    in the real loop.
    """
    lat, end = [], 0.0
    for t, b in enumerate(busy):
        due = t * PERIOD_S
        end = max(end, due) + b
        lat.append(end - due)
    return lat


def check_streams(out: harness.Outcome, cfg: dict, got: dict) -> None:
    """Each checked stream's emissions must equal the batch segmenter's."""
    from pausecut import AudioClip, HybridParams, VadConfig, classify, detect_pauses
    from pausecut import segment_hybrid_force

    base = np.load(cfg["clip"], mmap_mode="r")
    for k, pushed, segments in zip(cfg["checked"], got["pushed"], got["segments"]):
        a = cfg["offsets"][k]
        clip = AudioClip(np.array(base[a : a + pushed * SPF]), inputs.RATE)
        track = classify(clip, VadConfig())
        want = segment_hybrid_force(
            detect_pauses(track), track.duration, HybridParams(force_split=True)
        )
        out.check(
            [(s.start, s.end) for s in want] == [tuple(s) for s in segments],
            f"stream {k}: streaming segments differ from segment_hybrid_force",
        )


# -- the engine process -------------------------------------------------------


def _setup(streams: int) -> None:
    from pausecut import HybridParams, StreamingSegmenter, VadConfig

    params, vad = HybridParams(force_split=True), VadConfig()
    [StreamingSegmenter(params, vad) for _ in range(streams)]


def _child(plan_path: str) -> None:
    from pausecut import Frame, HybridParams, StreamingSegmenter, VadConfig

    cfg = json.loads(Path(plan_path).read_text())
    base = np.load(cfg["clip"])
    offsets = cfg["offsets"]
    params, vad = HybridParams(force_split=True), VadConfig()
    engines = [StreamingSegmenter(params, vad) for _ in range(cfg["streams"])]
    emitted = [[] for _ in engines]
    pushed = [0] * len(engines)

    def frame(k: int) -> Frame:
        i = pushed[k]
        a = offsets[k] + i * SPF
        return Frame(base[a : a + SPF], i, inputs.FRAME_MS)

    for k, engine in enumerate(engines):
        for _ in range(cfg["preroll"][k]):
            emitted[k].extend(engine.push_frame(frame(k)))
            pushed[k] += 1

    def next_batch() -> list:
        return [frame(k) for k in range(len(engines))]

    def push_all(batch, tracer) -> None:
        for k, engine in enumerate(engines):
            if tracer is None:
                got = engine.push_frame(batch[k])
            else:
                with tracer.span("streaming.push_frame", k):
                    got = engine.push_frame(batch[k])
            if got:
                emitted[k].extend(got)
            pushed[k] += 1

    def open_loop(ticks: int, tracer, layers=None):
        lat, late, busy, busy_cpu = [], [], [], []
        batch = next_batch()
        t_start = time.perf_counter() + 0.05
        for t in range(ticks):
            due = t_start + t * PERIOD_S
            now = time.perf_counter()
            if due > now:
                time.sleep(due - now)
            began, cpu0 = time.perf_counter(), time.thread_time()
            if tracer is None:
                push_all(batch, None)
            else:
                with tracer.span("tick", t):
                    push_all(batch, tracer)
            done, cpu1 = time.perf_counter(), time.thread_time()
            lat.append(done - due)
            late.append(began - due)
            busy.append(done - began)
            busy_cpu.append(cpu1 - cpu0)
            if layers is not None:
                layers["buffered"] = max(layers["buffered"], max(e.buffered_frames for e in engines))
            batch = next_batch()
        return lat, late, busy, busy_cpu

    result = {}
    lat, late, busy, busy_cpu = open_loop(cfg["ticks"], None)
    if cfg["trace"]:  # a second window, traced; the first stays the reference
        tracer = harness.Tracer()
        layers = {"buffered": 0, "gc_s": 0.0}
        gc_started = [0.0]

        def on_gc(phase, info):
            if phase == "start":
                gc_started[0] = time.perf_counter()
            else:
                layers["gc_s"] += time.perf_counter() - gc_started[0]

        emitted_before = sum(map(len, emitted))
        gc.callbacks.append(on_gc)
        try:
            _, _, _, traced_busy = open_loop(cfg["ticks"], tracer, layers)
        finally:
            gc.callbacks.remove(on_gc)
        push_us = [d * 1e6 for d in tracer.durations("streaming.push_frame")]
        result["layers"] = {
            "streaming.push_frame_us_p50": (harness.median(push_us), "us"),
            "streaming.push_frame_us_p99": (harness.percentile(push_us, 99), "us"),
            "streaming.emitted": (sum(map(len, emitted)) - emitted_before, "count"),
            "streaming.buffered_frames_max": (layers["buffered"], "count"),
            "streaming.gc_pause_ms": (layers["gc_s"] * 1000, "ms"),
            "harness.trace_overhead_pct": (
                (harness.median(traced_busy) - harness.median(busy_cpu)) / harness.median(busy_cpu) * 100,
                "%",
            ),
        }
        result["layers"].update(_checkpoints(engines, cfg["checked"], tracer))
        tracer.dump(Path(cfg["trace_path"]), {"workload": NAME, "seed": cfg["seed"]})

    for k, engine in enumerate(engines):
        emitted[k].extend(engine.flush())
    result.update(
        ticks=len(lat) * (2 if cfg["trace"] else 1),
        lat_s=lat,
        late_s=late,
        busy_s=busy,
        busy_cpu_s=busy_cpu,
        emitted=sum(map(len, emitted)),
        pushed=[pushed[k] for k in cfg["checked"]],
        segments=[[(s.start, s.end) for s in emitted[k]] for k in cfg["checked"]],
    )
    print(json.dumps(result))


def _checkpoints(engines, checked: list[int], tracer) -> dict:
    """Checkpoint size and save/restore time on the checked streams."""
    from pausecut import StreamingSegmenter

    sizes, save_ms, restore_ms = [], [], []
    for k in checked:
        t0 = time.perf_counter()
        with tracer.span("streaming.save_state", k):
            blob = engines[k].save_state()
        t1 = time.perf_counter()
        with tracer.span("streaming.restore_state", k):
            StreamingSegmenter.restore_state(blob)
        t2 = time.perf_counter()
        sizes.append(len(blob))
        save_ms.append((t1 - t0) * 1000)
        restore_ms.append((t2 - t1) * 1000)
    return {
        "streaming.checkpoint_bytes": (max(sizes), "bytes"),
        "streaming.save_state_ms": (harness.median(save_ms), "ms"),
        "streaming.restore_state_ms": (harness.median(restore_ms), "ms"),
    }


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        _setup(int(sys.argv[2]))
    else:
        _child(sys.argv[2])
