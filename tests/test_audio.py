import os
import struct
import threading
import tracemalloc

import numpy as np
import pytest

from pausecut import (
    AudioClip,
    MalformedWavError,
    UnsupportedWavError,
    decode_pcm16,
    decode_wav,
    encode_wav,
    frames,
    iter_frames,
    read_wav,
    write_wav,
)
from pausecut.audio import Frame, frame_time, read_pcm16, samples_per_frame

from conftest import clip_from, talk_clip, tone


def wav_bytes(samples: np.ndarray, rate: int = 16000, channels: int = 1,
              fmt_code: int = 1, bits: int = 16) -> bytes:
    payload = np.asarray(samples, dtype="<i2").tobytes()
    return struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(payload), b"WAVE",
        b"fmt ", 16, fmt_code, channels, rate, rate * 2 * channels, 2 * channels, bits,
        b"data", len(payload),
    ) + payload


# A data chunk with no fmt chunk before it, and a fmt chunk 2 bytes short of PCM's 16.
NO_FMT = struct.pack("<4sI4s4sI", b"RIFF", 16, b"WAVE", b"data", 4) + b"\x01\x00\x02\x00"
SHORT_FMT = wav_bytes(np.zeros(2, dtype=np.int16))
SHORT_FMT = SHORT_FMT[:16] + struct.pack("<I", 14) + SHORT_FMT[20:34] + SHORT_FMT[36:]


class TestDecodeWav:
    def test_empty_data_chunk(self):
        clip = decode_wav(wav_bytes(np.zeros(0, dtype=np.int16)))
        assert len(clip) == 0
        assert clip.duration == 0.0

    def test_two_seconds(self):
        clip = decode_wav(wav_bytes(np.arange(32000, dtype=np.int16) % 100))
        assert clip.sample_rate == 16000
        assert clip.duration == 2.0

    def test_sample_order_preserved(self):
        samples = np.array([1, -2, 3, -4, 32767, -32768], dtype=np.int16)
        clip = decode_wav(wav_bytes(samples))
        assert np.array_equal(clip.samples, samples)

    def test_stereo_rejected(self):
        with pytest.raises(UnsupportedWavError, match="unsupported channel count"):
            decode_wav(wav_bytes(np.zeros(4, dtype=np.int16), channels=2))

    def test_float_format_rejected(self):
        with pytest.raises(UnsupportedWavError, match="unsupported format code"):
            decode_wav(wav_bytes(np.zeros(4, dtype=np.int16), fmt_code=3))

    def test_bit_depth_rejected(self):
        with pytest.raises(UnsupportedWavError, match="unsupported bit depth"):
            decode_wav(wav_bytes(np.zeros(4, dtype=np.int16), bits=8))

    def test_not_riff(self):
        with pytest.raises(MalformedWavError, match="malformed header"):
            decode_wav(b"OggS" + b"\x00" * 40)

    def test_truncated_chunk(self):
        data = wav_bytes(np.zeros(100, dtype=np.int16))
        with pytest.raises(MalformedWavError, match="truncated"):
            decode_wav(data[:-10])

    def test_missing_data_chunk(self):
        data = wav_bytes(np.zeros(0, dtype=np.int16))[:36]
        with pytest.raises(MalformedWavError, match="missing data chunk"):
            decode_wav(data)

    def test_unknown_chunks_skipped(self):
        # LIST chunk with odd size (exercises word alignment) before data
        samples = np.array([5, 6, 7], dtype=np.int16)
        payload = samples.tobytes()
        data = (
            struct.pack("<4sI4s", b"RIFF", 0, b"WAVE")
            + struct.pack("<4sIHHIIHH", b"fmt ", 16, 1, 1, 16000, 32000, 2, 16)
            + struct.pack("<4sI", b"LIST", 3) + b"abc\x00"
            + struct.pack("<4sI", b"data", len(payload)) + payload
        )
        clip = decode_wav(data)
        assert np.array_equal(clip.samples, samples)

    def test_encode_decode_roundtrip(self):
        clip = clip_from(tone(0.3), rate=16000)
        again = decode_wav(encode_wav(clip))
        assert again.sample_rate == clip.sample_rate
        assert np.array_equal(again.samples, clip.samples)

    @pytest.mark.parametrize("stride", [1, 2], ids=["contiguous", "strided"])
    def test_encode_golden_bytes(self, tmp_path, stride):
        samples = np.repeat(np.array([1, -2, 32767, -32768], dtype=np.int16), stride)[::stride]
        golden = bytes.fromhex(
            "52494646 2c000000 57415645"  # RIFF, 36 + payload, WAVE
            "666d7420 10000000 0100 0100 401f0000 803e0000 0200 1000"  # fmt: PCM mono 8 kHz 16-bit
            "64617461 08000000 0100 feff ff7f 0080"  # data: 4 little-endian samples
        )
        clip = AudioClip(samples, 8000)
        assert encode_wav(clip) == golden
        write_wav(tmp_path / "x.wav", clip)
        assert (tmp_path / "x.wav").read_bytes() == golden

    def test_payload_copied_once(self):
        data = encode_wav(talk_clip(np.random.default_rng(3), 600.0))
        tracemalloc.start()
        try:
            clip = decode_wav(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * clip.samples.nbytes


class TestRawPcm:
    def test_roundtrip(self):
        samples = np.array([0, 1, -1, 12345], dtype=np.int16)
        clip = decode_pcm16(samples.tobytes(), 8000)
        assert clip.sample_rate == 8000
        assert np.array_equal(clip.samples, samples)

    def test_odd_length(self):
        with pytest.raises(ValueError, match="even"):
            decode_pcm16(b"\x00\x01\x02", 16000)


class TestReadFile:
    def test_read_wav_holds_payload_once(self, tmp_path):
        clip = talk_clip(np.random.default_rng(4), 600.0)
        path = tmp_path / "talk.wav"
        write_wav(path, clip)
        tracemalloc.start()
        try:
            got = read_wav(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got.samples, clip.samples)
        assert peak <= 1.1 * got.samples.nbytes

    def test_read_pcm16_holds_payload_once(self, tmp_path):
        clip = talk_clip(np.random.default_rng(5), 600.0)
        path = tmp_path / "talk.pcm"
        path.write_bytes(clip.samples.tobytes())
        tracemalloc.start()
        try:
            got = read_pcm16(path, 16000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got.samples, clip.samples)
        assert peak <= 1.1 * got.samples.nbytes

    @pytest.mark.parametrize(
        "data",
        [
            wav_bytes(np.array([3, -3, 7], dtype=np.int16)),
            wav_bytes(np.zeros(0, dtype=np.int16))[:40] + struct.pack("<I", 5) + b"\x03\x00\xfd\xff\x01\x00",
            wav_bytes(np.zeros(4, dtype=np.int16), channels=2),
            wav_bytes(np.zeros(4, dtype=np.int16), bits=8),
            wav_bytes(np.zeros(100, dtype=np.int16))[:-10],
            wav_bytes(np.zeros(0, dtype=np.int16))[:36],
            b"OggS" + b"\x00" * 40,
            b"",
            NO_FMT,
            SHORT_FMT,
        ],
        ids=[
            "ok", "odd-data-chunk", "stereo", "8-bit", "truncated", "no-data", "not-riff",
            "empty", "no-fmt", "short-fmt",
        ],
    )
    def test_read_wav_decodes_like_decode_wav(self, tmp_path, data):
        path = tmp_path / "x.wav"
        path.write_bytes(data)
        try:
            expected = decode_wav(data)
        except ValueError as exc:
            with pytest.raises(type(exc)) as got:
                read_wav(path)
            assert str(got.value) == str(exc)
        else:
            clip = read_wav(path)
            assert clip.sample_rate == expected.sample_rate
            assert np.array_equal(clip.samples, expected.samples)

    def test_read_pcm16_from_pipe(self, tmp_path):
        # a pipe reports no size up front
        samples = np.arange(-5000, 5000, dtype=np.int16)
        path = tmp_path / "pipe"
        os.mkfifo(path)
        writer = threading.Thread(target=path.write_bytes, args=(samples.tobytes(),))
        writer.start()
        try:
            clip = read_pcm16(path, 8000)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert np.array_equal(clip.samples, samples)

    def test_read_pcm16_odd_length(self, tmp_path):
        path = tmp_path / "odd.pcm"
        path.write_bytes(b"\x00\x01\x02")
        with pytest.raises(ValueError, match="even"):
            read_pcm16(path, 16000)


class TestFrames:
    def test_exact_division(self):
        clip = AudioClip(np.ones(32000, dtype=np.int16), 16000)
        out = frames(clip, 20)
        assert len(out) == 100
        assert [f.index for f in out] == list(range(100))
        assert all(len(f.samples) == 320 for f in out)
        assert not any(f.final for f in out)

    def test_trailing_partial_padded(self):
        clip = AudioClip(np.ones(16160, dtype=np.int16), 16000)  # 1.01 s
        out = frames(clip, 20)
        assert len(out) == 51
        assert not out[49].final
        last = out[50]
        assert last.final and last.padding == 160
        assert len(last.samples) == 320
        assert np.all(last.samples[160:] == 0)

    def test_empty_clip(self):
        clip = AudioClip(np.zeros(0, dtype=np.int16), 16000)
        assert frames(clip, 20) == []

    def test_final_is_derived_from_padding(self):
        assert Frame(np.ones(320, dtype=np.int16), 0, 20, padding=1).final
        frame = Frame(np.ones(320, dtype=np.int16), 0, 20)
        assert not frame.final
        with pytest.raises(AttributeError):
            frame.final = True
        with pytest.raises(TypeError):
            Frame(np.ones(320, dtype=np.int16), 0, 20, padding=0, final=True)

    def test_incompatible_rate(self):
        # 22050 * 10 / 1000 is not an integer sample count
        clip = AudioClip(np.zeros(100, dtype=np.int16), 22050)
        with pytest.raises(ValueError, match="incompatible rate/frame"):
            frames(clip, 10)

    def test_bad_frame_ms(self):
        clip = AudioClip(np.zeros(100, dtype=np.int16), 16000)
        with pytest.raises(ValueError, match="frame_ms"):
            frames(clip, 15)

    def test_roundtrip_reassembly(self):
        rng = np.random.default_rng(7)
        for n in (1, 319, 320, 321, 4800, 5000):
            samples = rng.integers(-32768, 32767, n, dtype=np.int16)
            clip = AudioClip(samples, 16000)
            out = frames(clip, 20)
            joined = np.concatenate([f.samples for f in out])
            if out and out[-1].padding:
                joined = joined[: -out[-1].padding]
            assert np.array_equal(joined, samples)

    def test_deterministic(self):
        clip = clip_from(tone(0.5))
        a = frames(clip, 10)
        b = list(iter_frames(clip, 10))
        assert len(a) == len(b)
        for fa, fb in zip(a, b):
            assert fa.index == fb.index and np.array_equal(fa.samples, fb.samples)

    def test_start_time(self):
        clip = clip_from(tone(0.5))
        for f in frames(clip, 30):
            assert f.start_time == frame_time(f.index, 30)

    def test_samples_per_frame(self):
        assert samples_per_frame(16000, 20) == 320
        assert samples_per_frame(8000, 30) == 240


class TestAudioClip:
    def test_mono_only(self):
        with pytest.raises(ValueError, match="mono"):
            AudioClip(np.zeros((10, 2), dtype=np.int16), 16000)

    def test_positive_rate(self):
        with pytest.raises(ValueError, match="sample_rate"):
            AudioClip(np.zeros(10, dtype=np.int16), 0)

    @pytest.mark.parametrize("rate", [16000.0, True, "16000"], ids=["float", "bool", "str"])
    def test_rate_must_be_an_integer(self, rate):
        with pytest.raises(ValueError, match="sample_rate"):
            AudioClip(np.zeros(10, dtype=np.int16), rate)

    @pytest.mark.parametrize("rate", [np.int64(16000), np.uint16(8000)], ids=["int64", "uint16"])
    def test_numpy_integer_rate_taken_as_int(self, rate):
        clip = AudioClip(np.zeros(1600, dtype=np.int16), rate)  # whole 20 ms frames
        assert type(clip.sample_rate) is int and clip.sample_rate == rate
        assert [len(f.samples) for f in frames(clip, 20)] == [rate // 50] * (1600 // (rate // 50))

    def test_duration_zero_iff_empty(self):
        assert AudioClip(np.zeros(0, dtype=np.int16), 16000).duration == 0.0
        assert AudioClip(np.zeros(1, dtype=np.int16), 16000).duration > 0.0

    @pytest.mark.parametrize("samples", [np.full(10, 0.9), np.full(10, 0.9, np.float32),
                                         np.ones(10, bool)], ids=["float64", "float32", "bool"])
    def test_non_integer_samples_refused(self, samples):
        with pytest.raises(ValueError, match="integer PCM"):
            AudioClip(samples, 16000)
        with pytest.raises(ValueError, match="integer PCM"):
            Frame(samples, 0, 20)

    @pytest.mark.parametrize("value", [40000, -32769, 2**40])
    def test_integers_outside_int16_refused(self, value):
        with pytest.raises(ValueError, match="int16 range"):
            AudioClip(np.full(10, value), 16000)
        with pytest.raises(ValueError, match="int16 range"):
            Frame(np.full(320, value), 0, 20)

    def test_int16_taken_as_is_and_wider_integers_converted(self):
        samples = np.arange(-5, 5, dtype=np.int16)
        assert AudioClip(samples, 16000).samples is samples
        assert Frame(samples, 0, 20).samples is samples
        wide = AudioClip(np.array([-32768, 0, 32767], np.int64), 16000).samples
        assert wide.dtype == np.int16 and wide.tolist() == [-32768, 0, 32767]
