import math
import tracemalloc

import numpy as np
import pytest

from pausecut import AudioClip, BlockSegmenter, FrameLabelTrack, HybridParams, Pause, VadConfig, classify
from pausecut import Segment, SrpolParams, detect_pauses, segment_hybrid, segment_hybrid_force
from pausecut import segment_srpol, segment_vad_merge, vad
from pausecut.audio import iter_frames
from pausecut.segmenters import segment_between
from pausecut.vad import (
    COLD_START_EPS,
    FLOOR_CHUNK,
    FLOOR_MAX,
    FLOOR_MIN,
    FLOOR_WINDOW,
    BlockLabeller,
    EnergyVad,
    PauseScan,
    _noise_floors,
    frame_energies,
    frame_energy,
)

from conftest import clip_from, noisy_clip, random_cuts, silence, speechy_clip, talk_clip, tone
from oracles import ref_noise_floors, ref_pause_runs, ref_rle_runs, ref_vad_labels

# Frame counts where batch classify changes regime: the cold start ends
# after FLOOR_WINDOW - 1 frames, and each FLOOR_CHUNK windows after that
# start a new chunk.  Around MID_CHUNK (the chunk edge when chunks were
# 4096 windows) the last window starts mid-block, inside the first chunk.
CHUNK_EDGE = FLOOR_WINDOW - 1 + FLOOR_CHUNK
MID_CHUNK = FLOOR_WINDOW - 1 + 4096
EDGE_FRAMES = [0, 1, 98, 99, 100, 101, MID_CHUNK - 1, MID_CHUNK, MID_CHUNK + 1,
               CHUNK_EDGE - 1, CHUNK_EDGE, CHUNK_EDGE + 1]
RATE_FRAME = [(8000, 10), (16000, 20), (48000, 30)]


def step_labels(energies, config: VadConfig) -> list[bool]:
    vad = EnergyVad(config)
    return [vad.step(e) for e in energies]


def track(line: str, frame_ms: int = 20) -> FrameLabelTrack:
    return FrameLabelTrack.from_label_line(line, frame_ms)


class TestClassify:
    def test_all_zero_is_nonspeech_any_mode(self):
        clip = clip_from(silence(2.0))
        for mode in range(4):
            labels = classify(clip, VadConfig(mode, 20)).labels
            assert not labels.any()

    def test_full_scale_square_wave_is_speech(self):
        n = 16000
        square = np.where(np.arange(n) % 40 < 20, 32767, -32767).astype(np.int16)
        labels = classify(AudioClip(square, 16000), VadConfig(0, 20)).labels
        assert labels.all()

    def test_tone_silence_tone_against_documented_rules(self):
        # 1 s tone, 1 s silence, 1 s tone at mode 2 / 20 ms: expected labels
        # derived by applying the documented threshold/hangover rules
        # independently (oracle below), and structurally the middle second
        # must be a non-speech run offset only by the hangover.
        clip = clip_from(tone(1.0), silence(1.0), tone(1.0))
        config = VadConfig(2, 20)
        got = classify(clip, config)
        expected = ref_vad_labels(list(frame_energies(clip, 20)), config)
        assert got.labels.tolist() == expected
        line = got.to_label_line()
        assert line == "S" * 54 + "N" * 46 + "S" * 50  # hangover of 4 frames

    def test_deterministic(self):
        clip = clip_from(tone(0.4), silence(0.3), tone(0.2))
        cfg = VadConfig(1, 10)
        assert classify(clip, cfg).to_label_line() == classify(clip, cfg).to_label_line()

    def test_monotone_in_aggressiveness(self, rng):
        for _ in range(10):
            clip = speechy_clip(rng, float(rng.uniform(1.0, 4.0)))
            tracks = [classify(clip, VadConfig(mode, 20)).labels for mode in range(4)]
            for lo, hi in zip(tracks, tracks[1:]):
                assert not (hi & ~lo).any()  # speech at mode k+1 implies speech at mode k

    def test_matches_reference_rules_on_random_audio(self, rng):
        for _ in range(5):
            clip = speechy_clip(rng, float(rng.uniform(0.5, 3.0)))
            cfg = VadConfig(int(rng.integers(0, 4)), 10)
            got = classify(clip, cfg).labels.tolist()
            assert got == ref_vad_labels(list(frame_energies(clip, 10)), cfg)

    @pytest.mark.parametrize("rate,frame_ms", RATE_FRAME)
    @pytest.mark.parametrize("n_frames", EDGE_FRAMES)
    @pytest.mark.parametrize("noise", [0.0, 25.0])
    def test_batch_equals_reference_and_step(self, rng, rate, frame_ms, n_frames, noise):
        spf = rate * frame_ms // 1000
        n_samples = max(0, n_frames * spf - int(rng.integers(0, spf)))  # often a partial last frame
        clip = noisy_clip(rng, n_samples, rate, noise)
        energies = frame_energies(clip, frame_ms)
        assert len(energies) == n_frames
        for mode in range(4):
            cfg = VadConfig(mode, frame_ms)
            got = classify(clip, cfg).labels.tolist()
            assert got == ref_vad_labels(energies.tolist(), cfg)
            assert got == step_labels(energies.tolist(), cfg)

    @pytest.mark.parametrize("n_frames", [0, 1, 99, 100, MID_CHUNK + 1, CHUNK_EDGE + 1])
    def test_all_zero_is_nonspeech_at_any_length(self, n_frames):
        clip = AudioClip(np.zeros(n_frames * 320, dtype=np.int16), 16000)
        for mode in range(4):
            assert not classify(clip, VadConfig(mode, 20)).labels.any()

    def test_allocation_bounded_by_clip(self, rng):
        clip = talk_clip(rng, 600.0)
        tracemalloc.start()
        try:
            classify(clip, VadConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * clip.samples.nbytes

    def test_the_100th_frame_takes_the_window_floor(self):
        # frame 99 (energy 100) is under its window floor, 100 + 0.9 * (1e6 - 100), so
        # non-speech, its hangover spent; the cold-start floor, the minimum (0) plus
        # COLD_START_EPS, would make it speech in every mode
        levels = np.repeat([0, 1000, 0, 10], [1, 90, 8, 1])  # energies 0, 1e6, 0 and 100
        clip = AudioClip(np.repeat(levels, 320).astype(np.int16), 16000)
        energies = frame_energies(clip, 20).tolist()
        assert len(energies) == FLOOR_WINDOW and energies[99] == 100.0
        for mode in range(4):
            cfg = VadConfig(mode, 20)
            assert energies[99] > max(0.0 + COLD_START_EPS, FLOOR_MIN) * cfg.multiplier
            got = step_labels(energies, cfg), classify(clip, cfg).labels.tolist(), ref_vad_labels(energies, cfg)
            assert [labels[99] for labels in got] == [False] * 3
            assert got[0] == got[1] == got[2]

    def test_propagates_framing_errors(self):
        clip = AudioClip(np.zeros(441, dtype=np.int16), 22050)
        with pytest.raises(ValueError, match="incompatible rate/frame"):
            classify(clip, VadConfig(2, 10))


def random_blocks(rng, samples: np.ndarray, spf: int) -> list[np.ndarray]:
    """`samples` cut at random whole-frame points, empty blocks included; the last
    block takes the rest, a partial frame too."""
    n_frames = len(samples) // spf
    cuts = np.sort(rng.integers(0, n_frames + 1, int(rng.integers(0, 12)))) * spf
    return np.split(samples, cuts)


class TestBlockLabeller:
    @pytest.mark.parametrize("rate,frame_ms", RATE_FRAME)
    @pytest.mark.parametrize("tail", ["partial", "under-one-frame", "multiple"])
    def test_blocks_label_like_classify_and_step(self, rng, monkeypatch, rate, frame_ms, tail):
        spf = rate * frame_ms // 1000
        for chunk in [FLOOR_CHUNK, 1, 37, 250] * 2:  # small chunks: a floor and a hangover carried often
            monkeypatch.setattr(vad, "FLOOR_CHUNK", chunk)
            sizes = [0, 1, 2, 50, 99, 100, 101, 400] + [CHUNK_EDGE + 3] * (chunk == FLOOR_CHUNK)
            n_frames = int(rng.choice(sizes))
            n_samples = {
                "partial": n_frames * spf + int(rng.integers(1, spf)),
                "under-one-frame": int(rng.integers(0, spf)),
                "multiple": n_frames * spf,
            }[tail]
            clip = noisy_clip(rng, n_samples, rate, float(rng.choice([0.0, 25.0, 2000.0])))
            energies = frame_energies(clip, frame_ms).tolist()
            for mode in range(4):
                cfg = VadConfig(mode, frame_ms)
                want = classify(clip, cfg).labels.tolist()
                assert want == step_labels(energies, cfg)
                # each push returns the labels of the frames it labels, finish the rest
                labeller = BlockLabeller(cfg, rate)
                pushed = [labeller.push(block) for block in random_blocks(rng, clip.samples, spf)]
                rest = labeller.finish()
                assert all(len(labels) % chunk == 0 for labels in pushed)
                assert np.concatenate([*pushed, rest]).tolist() == want
                assert labeller.finish().tolist() == []

    def test_push_after_finish_refused(self):
        labeller = BlockLabeller(VadConfig(), 16000)
        assert labeller.push(np.zeros(320 * 3, dtype=np.int16)).tolist() == []
        assert labeller.finish().tolist() == [False] * 3
        with pytest.raises(RuntimeError, match="stream already flushed"):
            labeller.push(np.zeros(320, dtype=np.int16))
        assert labeller.finish().tolist() == []

    def test_only_the_last_block_may_end_inside_a_frame(self):
        labeller = BlockLabeller(VadConfig(), 16000)
        labeller.push(np.zeros(320 * 3, dtype=np.int16))
        labeller.push(np.zeros(100, dtype=np.int16))
        with pytest.raises(ValueError, match="only the last block"):
            labeller.push(np.zeros(320, dtype=np.int16))
        assert len(labeller.finish()) == 4

    def test_framing_errors_raised_at_construction(self):
        with pytest.raises(ValueError, match="incompatible rate/frame"):
            BlockLabeller(VadConfig(2, 10), 22050)


def random_energies(rng, n: int, kind: int) -> np.ndarray:
    """Integer-valued ties, a wide range across both clamps, a constant, or a noise floor."""
    if kind == 0:
        return rng.integers(0, int(rng.integers(1, 6)), n).astype(float) * float(rng.choice([1.0, 3.0, 1e6]))
    if kind == 1:
        return 10.0 ** rng.uniform(-3.0, 15.0, n)
    if kind == 2:
        return np.full(n, float(rng.choice([0.0, 0.5, 7.25, FLOOR_MAX, 1e9])))
    return rng.exponential(float(rng.choice([0.5, 100.0, 1e6])), n)


def assert_floors_bit_identical(energies: np.ndarray) -> None:
    got, want = _noise_floors(energies), ref_noise_floors(energies)
    assert got.dtype == np.float64 and len(got) == len(energies)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestNoiseFloors:
    def test_bit_identical_to_sorted_windows_on_random_energies(self, rng):
        for i in range(3000):
            assert_floors_bit_identical(random_energies(rng, int(rng.integers(0, 701)), i % 4))

    @pytest.mark.parametrize("n_frames", [99, 100, 101, 2 * FLOOR_WINDOW, FLOOR_CHUNK + 98, FLOOR_CHUNK + 99,
                                          FLOOR_CHUNK + 100, 3 * FLOOR_CHUNK + FLOOR_WINDOW - 1,
                                          2 * FLOOR_CHUNK + FLOOR_WINDOW + 50])
    @pytest.mark.parametrize("kind", range(4))
    def test_bit_identical_at_block_and_chunk_edges(self, rng, n_frames, kind):
        assert_floors_bit_identical(random_energies(rng, n_frames, kind))

    def test_clamps_both_ways(self, rng):
        quiet, loud = rng.uniform(0.0, 0.9, 300), rng.uniform(2 * FLOOR_MAX, 4 * FLOOR_MAX, 300)
        energies = np.concatenate((quiet, loud, quiet))
        floors = _noise_floors(energies)
        assert (floors == FLOOR_MIN).any() and (floors == FLOOR_MAX).any()
        assert_floors_bit_identical(energies)

    @pytest.mark.parametrize("kind", range(4))
    def test_bit_identical_with_ranks_past_int16(self, rng, monkeypatch, kind):
        # the first chunk's 40,099 energies rank in int32, the second's 150 in int16
        monkeypatch.setattr(vad, "FLOOR_CHUNK", 40_000)
        assert_floors_bit_identical(random_energies(rng, 40_000 + FLOOR_WINDOW + 50, kind))

    def test_memory_does_not_grow_with_the_clip(self, rng):
        for n in (30_000, 300_000):
            energies = rng.uniform(0.0, 1e6, n)
            tracemalloc.start()
            try:
                _noise_floors(energies)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak - energies.nbytes < 2_000_000  # one per-frame output, then a fixed bound


class TestEnergies:
    def test_frame_energy_matches_batch(self):
        clip = clip_from(tone(0.25), silence(0.1))
        batch = frame_energies(clip, 20)
        from pausecut import frames

        singles = [frame_energy(f.samples) for f in frames(clip, 20)]
        assert singles == batch.tolist()

    def test_float_frame_refused(self):
        with pytest.raises(ValueError, match="integer PCM"):
            frame_energy(np.full(320, 0.9))

    def test_overflow_safe(self):
        loud = np.full(480, -32768, dtype=np.int16)
        assert frame_energy(loud) == 32768.0 * 32768.0
        clip = AudioClip(np.full(3 * 480 + 7, -32768, dtype=np.int16), 48000)
        assert frame_energies(clip, 10).tolist() == [32768.0 * 32768.0] * 3 + [7 * 32768.0 * 32768.0 / 480]

    @pytest.mark.parametrize("rate,frame_ms", RATE_FRAME + [(16000, 10), (16000, 30)])
    @pytest.mark.parametrize("n_frames", [0, 1, 2, 99, 100])
    def test_equals_frame_by_frame(self, rng, rate, frame_ms, n_frames):
        spf = rate * frame_ms // 1000
        for n_samples in {max(0, n_frames * spf - k) for k in (0, 1, spf // 2, spf - 1)}:
            clip = AudioClip(rng.integers(-32768, 32768, n_samples).astype(np.int16), rate)
            got = frame_energies(clip, frame_ms)
            assert got.dtype == np.float64
            assert got.tolist() == [frame_energy(f.samples) for f in iter_frames(clip, frame_ms)]


class TestDetectPauses:
    def test_all_speech(self):
        assert detect_pauses(track("SSSS")) == []

    def test_single_run(self):
        pauses = detect_pauses(track("SNNS"), min_pause_ms=40)
        assert len(pauses) == 1
        p = pauses[0]
        assert (p.start, p.duration) == (0.02, 0.04)
        assert p.frame_span == (1, 2)

    def test_threshold_filters_short_runs(self):
        pauses = detect_pauses(track("SNSNNS"), min_pause_ms=40)
        assert [(p.frame_span) for p in pauses] == [(3, 4)]

    def test_boundary_runs_included(self):
        pauses = detect_pauses(track("NNSNN"), min_pause_ms=40)
        assert [p.frame_span for p in pauses] == [(0, 1), (3, 4)]

    def test_min_pause_below_frame_rejected(self):
        with pytest.raises(ValueError, match="min_pause_ms"):
            detect_pauses(track("SN"), min_pause_ms=10)

    def test_nan_min_pause_rejected(self):
        with pytest.raises(ValueError, match="min_pause_ms"):
            detect_pauses(track("SN"), min_pause_ms=math.nan)

    def test_against_brute_force(self, rng):
        labels = rng.random(1000) < 0.6
        t = FrameLabelTrack(labels, 20)
        got = [p.frame_span for p in detect_pauses(t, min_pause_ms=60)]
        assert got == ref_pause_runs(labels.tolist(), 20, 60)

    def test_sorted_disjoint_maximal(self, rng):
        labels = rng.random(500) < 0.5
        t = FrameLabelTrack(labels, 10)
        pauses = detect_pauses(t)
        for a, b in zip(pauses, pauses[1:]):
            assert a.end <= b.start
        for p in pauses:
            first, last = p.frame_span
            assert not labels[first : last + 1].any()
            if first > 0:
                assert labels[first - 1]
            if last + 1 < len(labels):
                assert labels[last + 1]

    def test_partition_of_frames(self, rng):
        # every frame is exactly one of: speech, pause, sub-threshold non-speech run
        labels = rng.random(400) < 0.55
        t = FrameLabelTrack(labels, 20)
        min_pause = 60
        pauses = detect_pauses(t, min_pause_ms=min_pause)
        covered = np.zeros(len(labels), dtype=int)
        for p in pauses:
            first, last = p.frame_span
            covered[first : last + 1] += 1
        for rs, re_ in _runs(labels):
            if labels[rs]:
                covered[rs:re_] += 1
            elif (re_ - rs) * 20 < min_pause:
                covered[rs:re_] += 1
        assert (covered == 1).all()

    def test_duration_invariant(self, rng):
        labels = rng.random(300) < 0.4
        for p in detect_pauses(FrameLabelTrack(labels, 30)):
            first, last = p.frame_span
            assert p.duration == (last - first + 1) * 30 / 1000


def random_runs(rng, n_frames: int, frame_ms: int, max_len: float) -> np.ndarray:
    """Alternating speech and non-speech runs from one frame up to a few horizons."""
    longest = max(1, int(2.5 * max_len * 1000 / frame_ms))
    labels, speaking = np.zeros(n_frames, bool), bool(rng.random() < 0.5)
    a = 0
    while a < n_frames:
        b = a + int(rng.integers(1, 6 if rng.random() < 0.5 else longest + 1))
        labels[a:b], a, speaking = speaking, b, not speaking
    return labels


class TestPauseScan:
    @pytest.mark.parametrize("frame_ms", [10, 20, 30])
    @pytest.mark.parametrize("force", [False, True], ids=["plain", "force"])
    def test_label_blocks_give_the_batch_scan(self, rng, frame_ms, force):
        frame_s, batch = frame_ms / 1000, segment_hybrid_force if force else segment_hybrid
        for _ in range(700):
            min_len = frame_s * int(rng.integers(1, 60))
            max_len = min_len + frame_s * int(rng.integers(0, 60)) * (rng.random() < 0.8)
            params = HybridParams(min_len, max_len, force, frame_ms * int(rng.integers(1, 40)))
            # one frame up to past max_len
            min_pause_ms = frame_ms * int(rng.integers(1, round(max_len / frame_s) + 4))
            labels = random_runs(rng, int(rng.integers(0, 600)), frame_ms, max_len)
            t = FrameLabelTrack(labels, frame_ms)
            want = batch(detect_pauses(t, min_pause_ms), t.duration, params)
            scan, got = PauseScan(params, frame_ms, min_pause_ms), []
            cuts = random_cuts(rng, len(labels))
            for a, b in zip(cuts, cuts[1:]):
                got += scan.push_labels(labels[a:b])
                assert all(p.start >= scan.segment_start for p in scan._pauses)
            assert got + scan.flush() == want
            assert scan.flush() == []

    @pytest.mark.parametrize("frame_ms", [10, 20, 30])
    def test_label_blocks_give_every_pause(self, rng, frame_ms):
        # with no hybrid params the scan only collects: what detect_pauses and
        # CLI vad and srpol read, against oracles that share no pausecut code
        for _ in range(200):
            labels = random_runs(rng, int(rng.integers(0, 600)), frame_ms, 0.5)
            cuts = random_cuts(rng, len(labels))
            for min_pause_ms in range(frame_ms, 12 * frame_ms, frame_ms):
                scan = PauseScan(None, frame_ms, min_pause_ms)
                for a, b in zip(cuts, cuts[1:]):
                    assert scan.push_labels(labels[a:b]) == []
                pauses = scan.close()
                want = ref_pause_runs(labels.tolist(), frame_ms, min_pause_ms)
                assert [p.frame_span for p in pauses] == want
                if min_pause_ms == frame_ms:  # every non-speech run: the vad tiling
                    tiling = segment_between(pauses, len(labels) * frame_ms / 1000)
                    assert tiling == [Segment(a * frame_ms / 1000, b * frame_ms / 1000, kept)
                                      for a, b, kept in ref_rle_runs(labels.tolist())]

    def test_labels_after_flush_refused(self):
        scan = PauseScan(HybridParams(1.0, 2.0), 20)
        assert scan.push_labels(np.ones(160, bool)) == [Segment(0.0, 2.0)]
        assert scan.flush() == [Segment(2.0, 3.2)]
        with pytest.raises(RuntimeError, match="stream already flushed"):
            scan.push_labels(np.ones(310, bool))
        assert scan.frames_pushed == 160 and scan.segment_start == 3.2 and scan.flush() == []

    @pytest.mark.parametrize("params", [HybridParams(1.0, 2.0), None], ids=["hybrid", "vad"])
    def test_labels_after_close_refused(self, params):
        # labels after close() would cut the ten-frame run into [(0, 4), (5, 9)]
        scan = PauseScan(params, 20)
        assert scan.push_labels(np.zeros(5, bool)) == []
        assert [p.frame_span for p in scan.close()] == [(0, 4)]
        with pytest.raises(RuntimeError, match="stream already flushed"):
            scan.push_labels(np.zeros(5, bool))
        assert scan.frames_pushed == 5 and [p.frame_span for p in scan.close()] == [(0, 4)]

    @pytest.mark.parametrize("labels", [np.array([2, 1, 1, 0, 0, 1]), np.array([[True, False], [False, True]]),
                                        [True, False], np.zeros(3)], ids=["ints", "2-D", "list", "floats"])
    def test_labels_not_a_1d_bool_array_refused(self, labels):
        # a walk over changes of value would close a pause at frame 0 (2 -> 1, both
        # speech), and a 2-D block's rows would count as frames
        scan = PauseScan(None, 20)
        with pytest.raises(ValueError, match="labels must be a 1-D numpy bool array"):
            scan.push_labels(labels)
        assert scan.frames_pushed == 0 and scan.close() == []

    def test_flush_after_close_emits_the_remainder(self):
        scan = PauseScan(HybridParams(1.0, 2.0), 20)
        assert scan.push_labels(np.ones(160, bool)) == [Segment(0.0, 2.0)]
        assert scan.close() == []
        assert scan.flush() == [Segment(2.0, 3.2)]
        assert scan.flush() == [] and scan.segment_start == 3.2

    def test_scan_without_params_is_the_vad_scan(self):
        # as `segment --strategy vad` runs it: pushes emit nothing, the flush tiles [0, end)
        scan = PauseScan(None, 20)
        assert scan.push_labels(np.array([True, False, False])) == []
        assert scan.push_labels(np.ones(2, bool)) == [] and scan.frames_pushed == 5
        assert scan.flush() == [Segment(0.0, 0.02), Segment(0.02, 0.06, kept=False), Segment(0.06, 0.1)]
        assert scan.close() == [] and scan.segment_start == 0.1

    @pytest.mark.parametrize("params", [HybridParams(1.0, 2.0), HybridParams(0.5, 1.0, True, 100),
                                        SrpolParams(1.0), None], ids=["hybrid", "force", "srpol", "vad"])
    def test_a_second_flush_finds_none(self, params):
        labels = np.repeat([True, False, True, False, True], [30, 10, 60, 5, 55])
        scan = PauseScan(params, 20)
        got = scan.push_labels(labels[:100]) + scan.push_labels(labels[100:]) + scan.flush()
        assert got[0].start == 0.0 and got[-1].end == 3.2 and len(got) > 1
        assert all(a.end == b.start for a, b in zip(got, got[1:]))
        assert scan.flush() == [] and scan.segment_start == 3.2
        empty = PauseScan(params, 20)
        assert empty.flush() == [] and empty.flush() == []

    def test_min_pause_below_one_frame_refused(self):
        with pytest.raises(ValueError, match=r"min_pause_ms \(10\) must be at least one frame \(20 ms\)"):
            PauseScan(HybridParams(), 20, 10)
        assert PauseScan(HybridParams(), 20).min_pause_ms == 20


class TestBlockSegmenter:
    @pytest.mark.parametrize("rate,frame_ms", RATE_FRAME)
    def test_blocks_give_the_whole_clip_functions(self, rng, monkeypatch, rate, frame_ms):
        # uneven blocks of samples, labels reaching the scan in chunks of every size:
        # for each strategy the push returns plus finish() equal classify, then
        # detect_pauses, then its whole-clip function
        spf, frame_s = rate * frame_ms // 1000, frame_ms / 1000
        early = 0  # hybrid segments returned by a push, before finish
        for trial in range(16):
            monkeypatch.setattr(vad, "FLOOR_CHUNK", [FLOOR_CHUNK, 1, 37, 250][trial % 4])
            n_samples = int(rng.integers(0, 500)) * spf + int(rng.integers(0, spf))
            clip = noisy_clip(rng, n_samples, rate, float(rng.choice([0.0, 25.0])))
            cfg = VadConfig(int(rng.integers(0, 4)), frame_ms)
            min_pause = None if rng.random() < 0.3 else frame_ms * int(rng.integers(1, 6))
            track = classify(clip, cfg)
            pauses, end = detect_pauses(track, min_pause), track.duration
            min_len = frame_s * int(rng.integers(1, 120))
            max_len = min_len + frame_s * int(rng.integers(0, 60))
            plain, srpol = HybridParams(min_len, max_len), SrpolParams(max_len)
            force = HybridParams(min_len, max_len, True, frame_ms * int(rng.integers(1, 40)))
            if min_pause is None:
                assert segment_between(pauses, end) == segment_vad_merge(track)
            for params, want in [(None, segment_between(pauses, end)),
                                 (srpol, segment_srpol(Segment(0.0, end), pauses, srpol) if end else []),
                                 (plain, segment_hybrid(pauses, end, plain)),
                                 (force, segment_hybrid_force(pauses, end, force))]:
                segmenter = BlockSegmenter(params, cfg, rate, min_pause)
                pushed = [s for block in random_blocks(rng, clip.samples, spf) for s in segmenter.push(block)]
                assert pushed + segmenter.finish() == want, (trial, params)
                assert segmenter.finish() == []
                if not isinstance(params, HybridParams):
                    assert pushed == []
                early += len(pushed)
        assert early > 0

    def test_hybrids_emit_as_they_settle(self, monkeypatch):
        # no label byte is kept: each FLOOR_CHUNK of labels (here 10 s) reaches the
        # scan, which returns what they settle and holds the open segment's pauses
        monkeypatch.setattr(vad, "FLOOR_CHUNK", 500)
        clip = clip_from(*[np.concatenate([tone(4.0), silence(0.5)])] * 60)  # 4.5 min
        segmenter = BlockSegmenter(HybridParams(17.0, 20.0), VadConfig(), clip.sample_rate)
        got = segmenter.push(clip.samples[: len(clip.samples) // 2])
        assert len(got) >= 5 and len(segmenter._scan._pauses) <= 5
        got += segmenter.push(clip.samples[len(clip.samples) // 2 :]) + segmenter.finish()
        track = classify(clip, VadConfig())
        assert got == segment_hybrid(detect_pauses(track), track.duration, HybridParams(17.0, 20.0))
        assert segmenter.finish() == []

    def test_pushes_that_label_no_frame_skip_the_scan(self, monkeypatch):
        monkeypatch.setattr(vad, "FLOOR_CHUNK", 100)
        segmenter, scanned = BlockSegmenter(HybridParams(0.5, 1.0), VadConfig(), 16000), []
        monkeypatch.setattr(segmenter._scan, "push_labels", lambda labels: scanned.append(len(labels)) or [])
        for _ in range(5):  # 30 frames each: the fourth completes a chunk
            assert segmenter.push(np.zeros(320 * 30, np.int16)) == []
        segmenter.finish()
        assert scanned == [100, 50]

    @pytest.mark.parametrize("params", [None, SrpolParams(1.0), HybridParams(0.5, 1.0), HybridParams(0.5, 1.0, True, 100)],
                             ids=["vad", "srpol", "hybrid", "hybrid-force"])
    def test_push_after_finish_refused(self, params):
        # the block would wait in the labeller and make the next finish raise
        clip = clip_from(tone(1.0), silence(0.5), tone(1.0))
        segmenter = BlockSegmenter(params, VadConfig(), clip.sample_rate)
        got = segmenter.push(clip.samples) + segmenter.finish()
        assert got[0].start == 0.0 and got[-1].end == 2.5
        with pytest.raises(RuntimeError, match="stream already flushed"):
            segmenter.push(clip.samples)
        assert segmenter.finish() == [] and segmenter.finish() == []

    @pytest.mark.parametrize("samples", [np.full(320, 40000, np.int32), np.ones(320, bool),
                                         np.zeros(320), np.zeros((2, 160), np.int16)],
                             ids=["int32-out-of-range", "bool", "float", "two-dimensional"])
    def test_samples_checked_where_they_enter(self, samples):
        segmenter = BlockSegmenter(HybridParams(), VadConfig(), 16000)
        with pytest.raises(ValueError, match="samples must"):
            segmenter.push(samples)
        assert segmenter.finish() == []

    def test_in_range_integers_give_the_int16_result(self):
        clip = clip_from(tone(1.0), silence(0.5), tone(1.0))
        want = segment_hybrid(detect_pauses(classify(clip, VadConfig())), clip.duration, HybridParams(0.5, 1.0))
        for samples in [clip.samples.astype(np.int32), clip.samples.tolist()]:
            segmenter = BlockSegmenter(HybridParams(0.5, 1.0), VadConfig(), clip.sample_rate)
            assert segmenter.push(samples) + segmenter.finish() == want


def _runs(labels):
    out = []
    i = 0
    while i < len(labels):
        j = i
        while j < len(labels) and labels[j] == labels[i]:
            j += 1
        out.append((i, j))
        i = j
    return out


class TestTypes:
    def test_config_validation(self):
        with pytest.raises(ValueError, match="aggressiveness"):
            VadConfig(4, 20)
        with pytest.raises(ValueError, match="frame_ms"):
            VadConfig(2, 25)

    @pytest.mark.parametrize("mode", [1.5, 2.0, True, np.int64(2)], ids=repr)
    def test_mode_must_be_an_int(self, mode):
        # refused here, not with a TypeError where the mode first indexes a table
        with pytest.raises(ValueError, match="aggressiveness must be an int"):
            VadConfig(aggressiveness=mode)

    def test_config_derived_parameters(self):
        assert VadConfig(0, 20).multiplier < VadConfig(3, 20).multiplier
        assert VadConfig(0, 20).hangover > VadConfig(3, 20).hangover

    def test_label_line_roundtrip(self):
        t = track("SNNSSN")
        assert FrameLabelTrack.from_label_line(t.to_label_line(), 20).labels.tolist() == t.labels.tolist()

    def test_label_line_rejects_junk(self):
        with pytest.raises(ValueError, match="S/N"):
            FrameLabelTrack.from_label_line("SNX", 20)

    @pytest.mark.parametrize(
        "window, hang",
        [
            ([1.0] * (FLOOR_WINDOW + 1), 0),
            ([1.0, "2.0"], 0),
            ([1.0, True], 0),
            ([1.0, float("nan")], 0),
            ([float("-inf")], 0),
            ([], -1),
            ([], 5),
            ([], 1.0),
        ],
        ids=["window-too-long", "text", "bool", "nan", "inf", "hang-negative", "hang-past-mode",
             "hang-float"],
    )
    def test_energy_vad_refuses_state_steps_cannot_leave(self, window, hang):
        with pytest.raises(ValueError, match="VAD state"):
            EnergyVad(VadConfig(2, 20), window, hang)  # mode 2: hangover 4

    def test_pause_constructors(self):
        p = Pause.from_frames(5, 9, 20)
        assert (p.start, p.duration, p.end) == (0.1, 0.1, 0.2)
        with pytest.raises(ValueError):
            Pause.at(1.0, 0.0)
        with pytest.raises(ValueError):
            Pause.from_frames(3, 2, 20)

    @pytest.mark.parametrize("start, duration", [(0.0, float("nan")), (float("nan"), 1.0),
                                                 (float("inf"), 1.0), (0.0, float("inf"))])
    def test_pause_at_refuses_non_finite(self, start, duration):
        with pytest.raises(ValueError, match="must be finite"):
            Pause.at(start, duration)

    @pytest.mark.parametrize("start, duration, end", [(1.0, 0.0, 1.0), (0.5, 0.0, 0.5), (0.5, -1.0, 0.2),
                                                      (float("nan"), 1.0, float("nan")),
                                                      (0.0, float("nan"), 1.0), (2.0, 1.0, 1.0),
                                                      (float("-inf"), 1.0, 0.0), (0.0, 1.0, float("inf"))],
                             ids=["empty", "empty-mid", "inverted", "nan", "nan-duration", "end-before-start",
                                  "minus-inf-start", "inf-end"])
    def test_pause_refuses_a_span_that_is_not_finite_and_forward(self, start, duration, end):
        # Let through, the first four make srpol raise IndexError or hybrid cut inside a pause.
        with pytest.raises(ValueError, match="must be positive|must be finite and end after its start"):
            Pause(start, duration, end)

    def test_pause_at_refuses_a_duration_that_cannot_move_start(self):
        with pytest.raises(ValueError, match="end after its start"):
            Pause.at(1e6, 1e-20)
        with pytest.raises(ValueError, match="must be positive"):
            Pause.at(1.0, -0.5)
        p = Pause.at(1e6, math.ulp(1e6))
        assert p.start < p.end
