import itertools
import json
import math
import pickle
from bisect import bisect_right
from collections import deque

import numpy as np
import pytest

from pausecut import (
    HybridParams,
    StreamingSegmenter,
    VadConfig,
    classify,
    detect_pauses,
    frames,
    segment_hybrid,
    segment_hybrid_force,
)
import pausecut.vad
from pausecut.audio import Frame, frame_time
from pausecut.segmenters import split_until
from pausecut.vad import Pause, PauseScan, frame_energy

from conftest import clip_from, random_cuts, silence, speechy_clip, talk_clip, tone

CALLS = []


def _record(tag):
    CALLS.append(tag)


class _Exploit:
    """Unpickling this object calls _record."""

    def __reduce__(self):
        return (_record, ("unpickled",))


CFG = VadConfig(2, 20)
PLAIN = HybridParams(17.0, 20.0, False, 550)
FORCE = HybridParams(17.0, 20.0, True, 550)


def batch_segments(clip, params, cfg=CFG):
    track = classify(clip, cfg)
    pauses = detect_pauses(track)
    fn = segment_hybrid_force if params.force_split else segment_hybrid
    return fn(pauses, track.duration, params)


def run_stream(clip, params, cfg=CFG, check_bounds=True):
    engine = StreamingSegmenter(params, cfg)
    out = []
    limit = -(-int(params.max_len * 1000) // cfg.frame_ms) + 1
    for frame in frames(clip, cfg.frame_ms):
        out.extend(engine.push_frame(frame))
        if check_bounds:
            assert engine.buffered_frames <= limit
    out.extend(engine.flush())
    return out


class TestEmissionTiming:
    def test_no_emission_while_under_horizon(self):
        engine = StreamingSegmenter(PLAIN, CFG)
        for frame in frames(clip_from(tone(0.5)), 20):
            assert engine.push_frame(frame) == []

    def test_pause_free_audio_emits_at_horizon(self):
        engine = StreamingSegmenter(PLAIN, CFG)
        clip = clip_from(tone(20.0))
        emissions = {}
        for frame in frames(clip, 20):
            got = engine.push_frame(frame)
            if got:
                emissions[frame.index] = got
        assert list(emissions) == [999]  # the frame whose end crosses 20 s
        assert [(s.start, s.end) for s in emissions[999]] == [(0.0, 20.0)]

    def test_forced_split_emitted_when_pause_closes(self):
        # juncture pause at ~5 s: the boundary must go out as soon as the
        # pause ends, far before the 20 s horizon
        clip = clip_from(tone(5.0), silence(0.8), tone(10.0))
        engine = StreamingSegmenter(FORCE, CFG)
        first_emit_time = None
        for frame in frames(clip, 20):
            if engine.push_frame(frame):
                first_emit_time = frame_time(frame.index + 1, 20)
                break
        assert first_emit_time is not None
        assert first_emit_time < 7.0


class TestFlush:
    def test_flush_emits_remainder(self):
        engine = StreamingSegmenter(PLAIN, CFG)
        for frame in frames(clip_from(tone(5.0)), 20):
            assert engine.push_frame(frame) == []
        assert [(s.start, s.end) for s in engine.flush()] == [(0.0, 5.0)]

    def test_flush_after_one_emission(self):
        engine = StreamingSegmenter(PLAIN, CFG)
        out = []
        for frame in frames(clip_from(tone(21.0)), 20):
            out.extend(engine.push_frame(frame))
        assert [(s.start, s.end) for s in out] == [(0.0, 20.0)]
        assert [(s.start, s.end) for s in engine.flush()] == [(20.0, 21.0)]

    def test_flush_empty_stream(self):
        assert StreamingSegmenter(PLAIN, CFG).flush() == []

    def test_push_after_flush_rejected(self):
        engine = StreamingSegmenter(PLAIN, CFG)
        engine.flush()
        with pytest.raises(RuntimeError, match="flushed"):
            engine.push_frame(frames(clip_from(tone(0.1)), 20)[0])

    def test_push_after_close_rejected(self):
        # a frame after close() would open a second run beside the first: [(0, 9), (10, 10)]
        engine = StreamingSegmenter(PLAIN, CFG)
        fs = frames(clip_from(silence(0.22)), 20)
        assert _stream(engine, fs[:10]) == []
        assert [p.frame_span for p in engine.close()] == [(0, 9)]
        with pytest.raises(RuntimeError, match="stream already flushed"):
            engine.push_frame(fs[10])
        assert engine.frames_pushed == 10 and [p.frame_span for p in engine.close()] == [(0, 9)]

    def test_second_flush_is_empty(self):
        engine = StreamingSegmenter(PLAIN, CFG)
        for frame in frames(clip_from(tone(1.0)), 20):
            engine.push_frame(frame)
        engine.flush()
        assert engine.flush() == []


class TestValidation:
    def test_out_of_order_frame(self):
        engine = StreamingSegmenter(PLAIN, CFG)
        fs = frames(clip_from(tone(0.2)), 20)
        engine.push_frame(fs[0])
        with pytest.raises(ValueError, match="out-of-order"):
            engine.push_frame(fs[2])

    def test_wrong_frame_size(self):
        engine = StreamingSegmenter(PLAIN, CFG)
        with pytest.raises(ValueError, match="30 ms"):
            engine.push_frame(frames(clip_from(tone(0.2)), 30)[0])

    def test_empty_frame_refused_without_a_trace(self):
        engine = StreamingSegmenter(FORCE, CFG)
        fs = frames(clip_from(tone(0.1), silence(0.1)), 20)
        for frame in fs[:7]:
            engine.push_frame(frame)
        before = engine.save_state()
        with pytest.raises(ValueError, match="^frame 7 has no samples$"):
            engine.push_frame(Frame(np.zeros(0, np.int16), 7, 20))
        assert engine.save_state() == before
        engine.push_frame(fs[7])
        assert engine.frames_pushed == 8

    @pytest.mark.parametrize("params", [None, "x", PauseScan], ids=["None", "str", "class"])
    def test_params_must_be_hybrid(self, params):
        # refused at construction, not at the first push_frame or save_state
        with pytest.raises(TypeError, match="^params must be HybridParams, got "):
            StreamingSegmenter(params, CFG)

    def test_label_blocks_refused(self):
        # labels would move the stream 5 frames past a VAD window of 3 energies
        engine = StreamingSegmenter(HybridParams(1.0, 2.0))
        assert _stream(engine, frames(clip_from(silence(0.06)), 20)) == []
        blob = engine.save_state()
        with pytest.raises(TypeError, match="push_frame"):
            engine.push_labels(np.zeros(5, bool))
        assert engine.frames_pushed == 3 and engine.save_state() == blob
        assert StreamingSegmenter.restore_state(engine.save_state()).save_state() == blob


class TestBatchEquivalence:
    def test_spec_example_replayed_frame_by_frame(self):
        # silences at 5.0 (0.3 s), 18.0 (0.4 s), 19.0 (0.6 s) inside speech
        clip = clip_from(
            tone(5.0), silence(0.3), tone(12.7), silence(0.4), tone(0.6),
            silence(0.6), tone(20.4),
        )
        assert clip.duration == 40.0
        streamed = run_stream(clip, PLAIN)
        assert streamed == batch_segments(clip, PLAIN)

    def test_random_streams_both_variants(self, rng):
        for _ in range(40):
            clip = speechy_clip(rng, float(rng.uniform(1.0, 45.0)))
            for params in (PLAIN, FORCE):
                assert run_stream(clip, params) == batch_segments(clip, params)

    @pytest.mark.parametrize(
        "parts",
        [
            [],
            [("tone", 0.005)],
            [("silence", 3.0)],
            [("silence", 50.0)],
            [("silence", 0.56), ("tone", 2.0)],
            [("tone", 2.0), ("silence", 5.0)],
        ],
        ids=["empty", "subframe", "silence3", "silence50", "lead-pause", "tail-pause"],
    )
    def test_degenerate_clips(self, parts):
        pieces = [tone(d) if kind == "tone" else silence(d) for kind, d in parts]
        clip = clip_from(*pieces)
        for params in (PLAIN, FORCE):
            assert run_stream(clip, params) == batch_segments(clip, params)

    def test_random_params(self, rng):
        for _ in range(25):
            clip = speechy_clip(rng, float(rng.uniform(5.0, 40.0)))
            min_len = float(rng.uniform(0.5, 10.0))
            max_len = min_len + float(rng.uniform(0.5, 10.0))
            force = bool(rng.random() < 0.5)
            params = HybridParams(min_len, max_len, force, int(rng.integers(100, 1200)))
            assert run_stream(clip, params) == batch_segments(clip, params)

    def test_latency_bound(self, rng):
        # every frame is covered by an emitted segment within max_len plus
        # one frame of stream time
        clip = speechy_clip(rng, 45.0)
        engine = StreamingSegmenter(PLAIN, CFG)
        covered_to = 0.0
        for frame in frames(clip, 20):
            now = frame_time(frame.index + 1, 20)
            for seg in engine.push_frame(frame):
                covered_to = seg.end
            assert now - covered_to <= PLAIN.max_len + 0.02 + 1e-12


def random_params(rng):
    min_len = float(rng.uniform(0.5, 10.0))
    max_len = min_len + float(rng.uniform(0.0, 10.0))
    return HybridParams(min_len, max_len, bool(rng.random() < 0.5), int(rng.integers(100, 1200)))


class TestBufferedFrames:
    @pytest.mark.parametrize("frame_ms", [10, 20, 30])
    def test_equals_reference_count(self, rng, frame_ms):
        # reference: the pushed frames whose end lies after segment_start,
        # kept as a queue the way a frame-holding engine would
        for _ in range(6):
            clip = speechy_clip(rng, float(rng.uniform(5.0, 40.0)))
            cfg = VadConfig(int(rng.integers(0, 4)), frame_ms)
            engine = StreamingSegmenter(random_params(rng), cfg)
            held = deque()
            for frame in frames(clip, frame_ms):
                engine.push_frame(frame)
                held.append(frame.index)
                while held and frame_time(held[0] + 1, frame_ms) <= engine.segment_start:
                    held.popleft()
                assert engine.buffered_frames == len(held)
            engine.flush()
            assert engine.buffered_frames == 0


class ScanEveryPush(StreamingSegmenter):
    """Reference engine: runs the batch scan on every push, skipping none."""

    def push_frame(self, frame):
        fm = self.vad_config.frame_ms
        assert frame.index == self.frames_pushed
        if self._vad.step(frame_energy(frame.samples)):
            if self._run_start is not None:
                pause = Pause.from_frames(self._run_start, frame.index - 1, fm)
                if pause.start >= self.segment_start:  # else a split has passed it
                    self._pauses.append(pause)
                self._run_start = None
        elif self._run_start is None:
            self._run_start = frame.index
        self.frames_pushed += 1
        now = frame_time(self.frames_pushed, fm)
        open_start = None if self._run_start is None else frame_time(self._run_start, fm)
        segments = split_until(self._pauses, self.segment_start, now, self.params, open_start)
        return self._emit(segments)


def horizon_clip(rng, n_frames, frame_ms, max_len):
    """Tone and silence runs up to a few horizons long, so that pauses stay
    open across horizons and most segments end at one."""
    parts = []
    remaining = n_frames * frame_ms / 1000
    speaking = rng.random() < 0.5
    while remaining > 0:
        span = min(remaining, float(rng.uniform(0.01, 2.5 * max_len)))
        parts.append(tone(span) if speaking else silence(span))
        speaking = not speaking
        remaining -= span
    return clip_from(*parts)


def edge_params(rng, frame_ms, force):
    """min_len, max_len and juncture_ms often exactly one frame."""
    frame_s = frame_ms / 1000
    min_len = frame_s if rng.random() < 0.3 else float(rng.uniform(frame_s, 2.0))
    max_len = min_len + [0.0, frame_s, float(rng.uniform(0.0, 2.0))][int(rng.integers(3))]
    juncture_ms = frame_ms if rng.random() < 0.3 else int(rng.integers(frame_ms, 1200))
    return HybridParams(min_len, max_len, force, juncture_ms)


def _stream(engine, fs):
    out = []
    for f in fs:
        out.extend(engine.push_frame(f))
    return out


def _checkpoint(**changes) -> bytes:
    """A checkpoint taken in an open pause after a closed one, with `changes` applied."""
    engine = StreamingSegmenter(FORCE, CFG)
    _stream(engine, frames(clip_from(tone(2.5), silence(0.6), tone(1.0), silence(0.3)), 20))
    state = json.loads(engine.save_state())
    assert state["frames_pushed"] == 220 and state["run_start"] == 209
    assert state["pauses"] == [[129, 154]] and len(state["vad_window"]) == 100
    return json.dumps({**state, **changes}).encode()


_WINDOW = json.loads(_checkpoint())["vad_window"]
_PARAMS = json.loads(_checkpoint())["params"]

# States no sequence of pushes leaves: each must be refused, never restored.
_IMPOSSIBLE = {
    "frames-pushed-fraction": _checkpoint(frames_pushed=2.5),
    "frames-pushed-float": _checkpoint(frames_pushed=220.0),
    "frames-pushed-negative": _checkpoint(frames_pushed=-1),
    # every push splits at the horizon, segment start + max_len (20 s here), before it returns
    "frames-pushed-at-horizon": _checkpoint(frames_pushed=1000),
    "frames-pushed-past-horizon": _checkpoint(frames_pushed=2**40),
    "frames-pushed-past-float": _checkpoint(frames_pushed=10**400),
    "window-too-long": _checkpoint(vad_window=_WINDOW + _WINDOW[:50]),
    "window-too-short": _checkpoint(vad_window=_WINDOW[1:]),
    "window-nan-text": _checkpoint(vad_window=["nan"]),
    "window-text-entry": _checkpoint(vad_window=_WINDOW[:-1] + ["1.5"]),
    "window-nan": _checkpoint(vad_window=_WINDOW[:-1] + [float("nan")]),
    "window-inf": _checkpoint(vad_window=[float("inf")] + _WINDOW[1:]),
    "window-bool-entry": _checkpoint(vad_window=_WINDOW[:-1] + [True]),
    "hangover-text": _checkpoint(vad_hangover="x"),
    "hangover-negative": _checkpoint(vad_hangover=-1),
    "hangover-past-mode": _checkpoint(vad_hangover=CFG.hangover + 1),
    "hangover-bool": _checkpoint(vad_hangover=True),
    "segment-start-text": _checkpoint(segment_start="0"),
    "segment-start-nan": _checkpoint(segment_start=float("nan")),
    "segment-start-bool": _checkpoint(segment_start=True),
    "segment-start-past-stream": _checkpoint(segment_start=4.42),
    "run-start-at-end": _checkpoint(run_start=220),
    "run-start-past-end": _checkpoint(run_start=500),
    "run-start-fraction": _checkpoint(run_start=209.5),
    "finished-text": _checkpoint(finished="no"),
    "finished-int": _checkpoint(finished=0),
    "finished-with-open-run": _checkpoint(finished=True),
    "pause-fraction": _checkpoint(pauses=[[129.5, 154]]),
    "pause-past-end": _checkpoint(pauses=[[129, 220]]),
    "pause-reversed": _checkpoint(pauses=[[154, 129]]),
    "pauses-out-of-order": _checkpoint(pauses=[[150, 160], [129, 140]]),
    "pauses-overlapping": _checkpoint(pauses=[[129, 154], [154, 160]]),
    "pauses-touching": _checkpoint(pauses=[[129, 140], [141, 154]]),
    "pause-touching-run": _checkpoint(pauses=[[129, 208]]),
    "pause-past-run-start": _checkpoint(pauses=[[129, 154], [200, 215]]),
    "force-split-text": _checkpoint(params={**_PARAMS, "force_split": "no"}),
    "force-split-int": _checkpoint(params={**_PARAMS, "force_split": 1}),
    "max-len-inf": _checkpoint(params={**_PARAMS, "max_len": float("inf")}),
    "juncture-nan": _checkpoint(params={**_PARAMS, "juncture_ms": float("nan")}),
    "juncture-inf": _checkpoint(params={**_PARAMS, "juncture_ms": float("inf")}),
    "juncture-int-past-float": _checkpoint(params={**_PARAMS, "juncture_ms": 10**400}),
}


class TestCheckpoint:
    def test_impossible_states_fixture_restores_unchanged(self):
        blob = _checkpoint()
        assert StreamingSegmenter.restore_state(blob).save_state() == blob.replace(b" ", b"")

    def test_one_frame_short_of_the_horizon_restores(self):
        resumed = StreamingSegmenter.restore_state(_checkpoint(frames_pushed=999))
        assert resumed.frames_pushed == 999 and resumed.segment_start == 0.0

    @pytest.mark.parametrize("params", [PLAIN, FORCE], ids=["plain", "force"])
    def test_resume_from_every_kind_of_state(self, rng, params):
        clips = [
            speechy_clip(rng, 30.0),
            # a pause open across the horizon, split there and still open after
            clip_from(tone(5.0), silence(25.0), tone(5.0)),
        ]
        for clip in clips:
            fs = frames(clip, 20)
            solid = StreamingSegmenter(params, CFG)
            kinds = {"cold start": [], "hangover": [], "open pause": []}
            expect = []
            for f in fs:
                expect.extend(solid.push_frame(f))
                n = solid.frames_pushed
                if n < 100:
                    kinds["cold start"].append(n)
                if 0 < solid._vad._hang < CFG.hangover:
                    kinds["hangover"].append(n)
                if solid._run_start is not None:
                    kinds["open pause"].append(n)
            expect.extend(solid.flush())
            for kind, cuts in kinds.items():
                assert cuts, kind
                for cut in (cuts[0], cuts[len(cuts) // 2], cuts[-1]):
                    engine = StreamingSegmenter(params, CFG)
                    got = _stream(engine, fs[:cut])
                    blob = engine.save_state()
                    assert len(blob) <= 4096
                    resumed = StreamingSegmenter.restore_state(blob)
                    assert resumed.save_state() == blob
                    assert resumed.buffered_frames == engine.buffered_frames
                    got.extend(_stream(resumed, fs[cut:]))
                    got.extend(resumed.flush())
                    assert got == expect, (kind, cut)

    def test_every_engine_restores_from_its_own_checkpoint(self):
        fs = frames(clip_from(tone(2.5), silence(0.6), tone(1.0), silence(0.3), tone(1.2)), 20)
        flags = (True, False, 0, 1, 0.0, "no", "", None, np.bool_(True))
        built = set()
        for min_len, max_len, force, juncture_ms in itertools.product(
            (1, 1.5, 3.0, math.nan),
            (1.5, 3, math.inf, math.nan),
            flags,
            (550, 0, -1, 1.5, math.inf, math.nan),
        ):
            try:
                params = HybridParams(min_len, max_len, force, juncture_ms)
            except ValueError:
                continue
            built.add(force)
            engine = StreamingSegmenter(params, CFG)
            _stream(engine, fs[:180])
            resumed = StreamingSegmenter.restore_state(engine.save_state())
            assert resumed.params == params and resumed.save_state() == engine.save_state()
            expect = _stream(engine, fs[180:]) + engine.flush()
            assert _stream(resumed, fs[180:]) + resumed.flush() == expect, params
        assert built == {True, False}

    NUMPY_FIELDS = [
        (HybridParams, "min_len", 17), (HybridParams, "max_len", 20),
        (HybridParams, "force_split", 1), (HybridParams, "juncture_ms", 550),
        (VadConfig, "aggressiveness", 2), (VadConfig, "frame_ms", 20),
    ]

    @pytest.mark.parametrize("kind", [np.int64, np.float32, np.float64], ids=lambda k: k.__name__)
    @pytest.mark.parametrize(
        "cls, field, plain", NUMPY_FIELDS, ids=[f"{c.__name__}.{f}" for c, f, _ in NUMPY_FIELDS]
    )
    def test_numpy_value_refused_or_checkpointed(self, cls, field, plain, kind):
        # a checkpoint is JSON, which holds a builtin number but not an np.int64
        changes = {field: kind(plain)}
        try:
            if cls is HybridParams:
                params, cfg = HybridParams(**{"force_split": True, **changes}), CFG
            else:
                params, cfg = FORCE, VadConfig(**changes)
        except ValueError:
            return
        fs = frames(clip_from(tone(2.5), silence(0.6), tone(1.0), silence(0.3), tone(1.2)), 20)
        engine = StreamingSegmenter(params, cfg)
        _stream(engine, fs[:180])
        resumed = StreamingSegmenter.restore_state(engine.save_state())
        assert (resumed.params, resumed.vad_config) == (params, cfg)
        assert resumed.save_state() == engine.save_state()
        expect = _stream(engine, fs[180:]) + engine.flush()
        assert _stream(resumed, fs[180:]) + resumed.flush() == expect

    @pytest.mark.parametrize("force", [0, 1, "no", None, np.bool_(True)])
    def test_force_split_must_be_a_bool(self, force):
        with pytest.raises(ValueError, match="force_split must be True or False"):
            HybridParams(force_split=force)

    def test_pickle_payload_never_runs(self):
        blob = pickle.dumps((2, {"state": _Exploit()}))
        with pytest.raises(ValueError, match="version"):
            StreamingSegmenter.restore_state(blob)
        assert CALLS == []
        pickle.loads(blob)  # the payload is live: unpickling would run it
        assert CALLS == ["unpickled"]
        CALLS.clear()

    @pytest.mark.parametrize(
        "blob",
        [b"", b"[2]", b'"version"', b'{"version": 1}', b'{"version": 2}', b"\xff\xfe\x00"]
        + [pytest.param(b"[" * 100_000, id="nested-past-the-recursion-limit")]
        + [pytest.param(blob, id=name) for name, blob in _IMPOSSIBLE.items()],
    )
    def test_malformed_blob(self, blob):
        with pytest.raises(ValueError, match="version"):
            StreamingSegmenter.restore_state(blob)

    def test_blob_is_plain_json(self, rng):
        engine = StreamingSegmenter(FORCE, CFG)
        _stream(engine, frames(speechy_clip(rng, 30.0), 20))
        state = json.loads(engine.save_state())
        assert state["frames_pushed"] == 1500
        assert len(state["vad_window"]) == 100
        assert all(np.isfinite(state["vad_window"]))


    def test_save_restore_matches_uninterrupted(self, rng):
        clip = speechy_clip(rng, 30.0)
        fs = frames(clip, 20)
        solid = StreamingSegmenter(FORCE, CFG)
        expect = []
        for f in fs:
            expect.extend(solid.push_frame(f))
        expect.extend(solid.flush())

        engine = StreamingSegmenter(FORCE, CFG)
        got = []
        for f in fs[:700]:
            got.extend(engine.push_frame(f))
        blob = engine.save_state()
        resumed = StreamingSegmenter.restore_state(blob)
        for f in fs[700:]:
            got.extend(resumed.push_frame(f))
        got.extend(resumed.flush())
        assert got == expect

    def test_version_check(self):
        import pickle

        with pytest.raises(ValueError, match="version"):
            StreamingSegmenter.restore_state(pickle.dumps((99, {})))


@pytest.fixture
def scans(monkeypatch):
    """One entry per scan the engine runs."""
    calls = []
    monkeypatch.setattr(
        pausecut.vad, "split_until", lambda *a: calls.append(1) or split_until(*a)
    )
    return calls


class TestEventDrivenScan:
    @pytest.mark.parametrize("frame_ms", [10, 20, 30])
    @pytest.mark.parametrize("force", [False, True], ids=["plain", "force"])
    def test_equals_scan_on_every_push(self, rng, scans, frame_ms, force):
        skipped = open_at_horizon = 0
        for _ in range(8):
            params = edge_params(rng, frame_ms, force)
            cfg = VadConfig(int(rng.integers(0, 4)), frame_ms)
            n_frames = int(rng.integers(50, 1200))
            fs = frames(horizon_clip(rng, n_frames, frame_ms, params.max_len), frame_ms)
            engine, ref = StreamingSegmenter(params, cfg), ScanEveryPush(params, cfg)
            got, checkpoints = [], []
            for f in fs:
                horizon = ref.segment_start + params.max_len
                before = len(scans)
                out = engine.push_frame(f)
                assert out == ref.push_frame(f)
                got.extend(out)
                # the held-frame count by bisection, independent of buffered_frames
                ends = range(1, f.index + 2)
                held = len(ends) - bisect_right(
                    ends, ref.segment_start, key=lambda k: frame_time(k, frame_ms)
                )
                assert engine.buffered_frames == held
                now = frame_time(f.index + 1, frame_ms)
                open_at_horizon += now >= horizon and ref._run_start is not None
                if len(scans) == before:
                    skipped += 1
                    if rng.random() < 0.05:
                        blob = engine.save_state()
                        assert blob == ref.save_state()
                        checkpoints.append((f.index + 1, blob, list(got)))
            tail = engine.flush()
            assert tail == ref.flush()
            for cut, blob, before in checkpoints[:: max(1, len(checkpoints) // 3)]:
                resumed = StreamingSegmenter.restore_state(blob)
                after = _stream(resumed, fs[cut:]) + resumed.flush()
                assert before + after == got + tail, cut
        assert skipped > 0 and open_at_horizon > 0

    @pytest.mark.parametrize("params", [PLAIN, FORCE], ids=["plain", "force"])
    def test_scans_bounded_by_events(self, rng, scans, params):
        # a scan per push would be 30,000 scans on this talk
        clip = talk_clip(rng, 600.0)
        engine = StreamingSegmenter(params, CFG)
        crossings = 0
        fs = frames(clip, 20)
        for f in fs:
            horizon = engine.segment_start + params.max_len
            engine.push_frame(f)
            crossings += frame_time(f.index + 1, 20) >= horizon
        engine.flush()
        closed = len(detect_pauses(classify(clip, CFG)))  # includes one still open at the end
        bound = crossings + (closed if params.force_split else 0)
        assert 0 < len(scans) <= bound < len(fs) / 10


class TestSettleRule:
    """Label blocks (`PauseScan.push_labels`) settle what engine frames settle."""

    @pytest.mark.parametrize("frame_ms", [10, 20, 30])
    @pytest.mark.parametrize("force", [False, True], ids=["plain", "force"])
    def test_label_blocks_settle_at_the_engines_push(self, rng, frame_ms, force):
        for _ in range(10):
            params = edge_params(rng, frame_ms, force)
            cfg = VadConfig(int(rng.integers(0, 4)), frame_ms)
            clip = horizon_clip(rng, int(rng.integers(50, 1200)), frame_ms, params.max_len)
            labels = classify(clip, cfg).labels
            engine, per_frame = StreamingSegmenter(params, cfg), PauseScan(params, frame_ms)
            emitted = []  # (segment, index of the frame whose push emitted it)
            for f in frames(clip, frame_ms):
                out = engine.push_frame(f)
                assert per_frame.push_labels(labels[f.index : f.index + 1]) == out
                emitted += [(s, f.index) for s in out]
            tail = engine.flush()
            assert per_frame.flush() == tail

            blocks = PauseScan(params, frame_ms)
            cuts = random_cuts(rng, len(labels))
            for a, b in zip(cuts, cuts[1:]):
                assert blocks.push_labels(labels[a:b]) == [s for s, k in emitted if a <= k < b]
            assert blocks.flush() == tail

    @pytest.mark.parametrize("frame_ms", [10, 20, 30])
    @pytest.mark.parametrize("force", [False, True], ids=["plain", "force"])
    def test_longer_pauses_settle_within_max_len_plus_min_pause(self, rng, frame_ms, force):
        for _ in range(10):
            params = edge_params(rng, frame_ms, force)
            cfg = VadConfig(int(rng.integers(0, 4)), frame_ms)
            clip = horizon_clip(rng, int(rng.integers(50, 1200)), frame_ms, params.max_len)
            track = classify(clip, cfg)
            min_pause_ms = frame_ms * int(rng.integers(2, 40))
            batch = segment_hybrid_force if force else segment_hybrid
            want = batch(detect_pauses(track, min_pause_ms), track.duration, params)
            scan, got = PauseScan(params, frame_ms, min_pause_ms), []
            cuts = random_cuts(rng, len(track.labels))
            for a, b in zip(cuts, cuts[1:]):
                for s in scan.push_labels(track.labels[a:b]):
                    # out by the end of the block that holds start + max_len + min_pause_ms
                    assert frame_time(a, frame_ms) < s.start + params.max_len + min_pause_ms / 1000 + 1e-9
                    got.append(s)
            assert got + scan.flush() == want


def _burst_clip():
    """Noise, 5 s of digital silence from frame 100, then noise again from frame 350."""
    rng = np.random.default_rng(0)
    noise = lambda n: np.clip(rng.normal(0, 8000, n * 320), -32768, 32767).astype(np.int16)
    return clip_from(noise(100), np.zeros(250 * 320, np.int16), noise(50))


BURST = HybridParams(0.5, 3.0)


class TestHeldPauses:
    """No scan keeps a pause whose start a split has passed: the scan never reads it."""

    def test_split_inside_an_open_run_keeps_no_pause(self):
        engine = StreamingSegmenter(BURST, CFG)
        fs = frames(_burst_clip(), 20)
        _stream(engine, fs[:352])  # the run 104..349 closed after the 5.54 s split in it
        state = json.loads(engine.save_state())
        assert state["segment_start"] == 5.54 and state["run_start"] is None
        assert state["pauses"] == []

    def test_checkpoint_holding_a_passed_pause_still_restores(self):
        fs = frames(_burst_clip(), 20)
        solid = StreamingSegmenter(BURST, CFG)
        expect = _stream(solid, fs) + solid.flush()
        engine = StreamingSegmenter(BURST, CFG)
        got = _stream(engine, fs[:352])
        # what earlier versions wrote here: the closed run that the split passed
        state = {**json.loads(engine.save_state()), "pauses": [[104, 349]]}
        resumed = StreamingSegmenter.restore_state(json.dumps(state).encode())
        assert got + _stream(resumed, fs[352:]) + resumed.flush() == expect

    @pytest.mark.parametrize("frame_ms", [10, 20, 30])
    @pytest.mark.parametrize("force", [False, True], ids=["plain", "force"])
    def test_no_held_pause_starts_before_the_segment_start(self, rng, frame_ms, force):
        passed_runs = 0  # pushes with the open run started before the segment
        for _ in range(10):
            params = edge_params(rng, frame_ms, force)
            cfg = VadConfig(int(rng.integers(0, 4)), frame_ms)
            clip = horizon_clip(rng, int(rng.integers(50, 1200)), frame_ms, params.max_len)
            engine = StreamingSegmenter(params, cfg)
            for f in frames(clip, frame_ms):
                engine.push_frame(f)
                assert all(p.start >= engine.segment_start for p in engine._pauses)
                run = engine._run_start
                passed_runs += run is not None and frame_time(run, frame_ms) < engine.segment_start
            labels = classify(clip, cfg).labels
            scan = PauseScan(params, frame_ms, frame_ms * int(rng.integers(1, 4)))
            cuts = random_cuts(rng, len(labels))
            for a, b in zip(cuts, cuts[1:]):
                scan.push_labels(labels[a:b])
                assert all(p.start >= scan.segment_start for p in scan._pauses)
        assert passed_runs > 0
