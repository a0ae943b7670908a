import io
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
from pausecut import audio
from pausecut.audio import Frame, frame_time, iter_pcm16_chunks, iter_wav_chunks, read_pcm16
from pausecut.audio import samples_per_frame
from pausecut.vad import frame_energy

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


def extensible_wav(samples: np.ndarray, subformat: bytes = audio._PCM_GUID, rate: int = 16000) -> bytes:
    """A WAVE_FORMAT_EXTENSIBLE mono file, as capture tools write: 40-byte fmt chunk."""
    payload = np.asarray(samples, dtype="<i2").tobytes()
    fmt = struct.pack("<HHIIHHHHI", 0xFFFE, 1, rate, rate * 2, 2, 16, 22, 16, 4) + subformat
    return (struct.pack("<4sI4s4sI", b"RIFF", 4 + 8 + len(fmt) + 8 + len(payload), b"WAVE", b"fmt ", len(fmt))
            + fmt + struct.pack("<4sI", b"data", len(payload)) + payload)


def with_data_size(data: bytes, size: int, riff_size: int | None = None) -> bytes:
    """A canonical 44-byte-header WAV with its data size field (and its RIFF size
    field, if given) replaced."""
    riff = data[4:8] if riff_size is None else struct.pack("<I", riff_size)
    return data[:4] + riff + data[8:40] + struct.pack("<I", size) + data[44:]


def read_blocks(data: bytes) -> tuple[int, np.ndarray]:
    """The rate and the concatenated blocks of `iter_wav_chunks` over `data`."""
    rate, blocks = iter_wav_chunks(io.BytesIO(data))
    return rate, np.concatenate([np.zeros(0, np.int16), *(block.copy() for block in blocks)])


def raw_blocks(data: bytes, rate: int) -> tuple[int, np.ndarray]:
    """The rate and the concatenated blocks of `iter_pcm16_chunks` over `data`."""
    rate, blocks = iter_pcm16_chunks(io.BytesIO(data), rate)
    return rate, np.concatenate([np.zeros(0, np.int16), *(block.copy() for block in blocks)])


def same_outcome(read, expected) -> None:
    """`read()` gives what `expected()` gives: the same rate and samples, or the same
    error type and message."""
    try:
        want_rate, want = expected()
    except ValueError as exc:
        with pytest.raises(type(exc)) as got:
            read()
        assert str(got.value) == str(exc)
    else:
        clip = read()
        assert clip.sample_rate == want_rate and clip.samples.dtype == np.int16
        assert np.array_equal(clip.samples, want)


# Samples in one 16 kHz read block, and a payload of several blocks and a part.
ONE_BLOCK = audio.BLOCK_BYTES // 1920 * 960
BLOCKS = np.arange(5 * ONE_BLOCK // 2 + 7, dtype=np.int64).astype(np.int16)
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
            b"R",
            wav_bytes(np.array([3, -3, 7], dtype=np.int16)) + b"\x01",
            wav_bytes(BLOCKS[:ONE_BLOCK]),
            wav_bytes(BLOCKS),
            with_data_size(wav_bytes(BLOCKS), 0xFFFFFFFF) + b"\x01",
            extensible_wav(BLOCKS[:1000], rate=48000),
            wav_bytes(BLOCKS)[:-3],
            wav_bytes(BLOCKS[:5]) + struct.pack("<4sI", b"LIST", 4) + b"abcd",
        ],
        ids=[
            "ok", "odd-data-chunk", "stereo", "8-bit", "truncated", "no-data", "not-riff",
            "empty", "no-fmt", "short-fmt", "one-byte", "odd-length", "one-block", "blocks",
            "unfinalised", "extensible", "truncated-blocks", "chunk-after-data",
        ],
    )
    def test_read_wav_decodes_like_decode_wav(self, tmp_path, data):
        # both whole readers give what the block reader gives, errors in its header or at the end
        path = tmp_path / "x.wav"
        path.write_bytes(data)
        same_outcome(lambda: decode_wav(data), lambda: read_blocks(data))
        same_outcome(lambda: read_wav(path), lambda: read_blocks(data))

    @pytest.mark.parametrize(
        "data",
        [b"", b"\x01", b"\x01\x02\x03", BLOCKS[:ONE_BLOCK].tobytes(), BLOCKS.tobytes(), BLOCKS.tobytes() + b"\x04"],
        ids=["empty", "one-byte", "odd-length", "one-block", "blocks", "blocks-odd"],
    )
    @pytest.mark.parametrize("rate", [16000, 8000, 0], ids=["16k", "8k", "zero"])
    def test_raw_readers_decode_like_the_blocks(self, tmp_path, data, rate):
        path = tmp_path / "x.pcm"
        path.write_bytes(data)
        same_outcome(lambda: decode_pcm16(data, rate), lambda: raw_blocks(data, rate))
        same_outcome(lambda: read_pcm16(path, rate), lambda: raw_blocks(data, rate))

    @pytest.mark.parametrize("kind", ["raw", "wav"])
    def test_pipe_longer_than_two_blocks(self, tmp_path, kind):
        # a pipe tells no size, so the array grows, here more than once (5 MiB of samples)
        samples = np.arange(5 * 2**20 // 2 + 3, dtype=np.int64).astype(np.int16)
        data = (samples.tobytes() if kind == "raw"
                else with_data_size(wav_bytes(samples), 0xFFFFFFFF))
        path = tmp_path / "pipe"
        os.mkfifo(path)
        writer = threading.Thread(target=path.write_bytes, args=(data,))
        writer.start()
        try:
            clip = read_pcm16(path, 16000) if kind == "raw" else read_wav(path)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert clip.sample_rate == 16000 and np.array_equal(clip.samples, samples)

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


class TestCaptureToolHeaders:
    """What capture tools write: the extensible format, and headers never finalised."""

    def test_extensible_pcm_accepted(self, tmp_path):
        samples = np.array([1, -2, 3, 32767, -32768], dtype=np.int16)
        data = extensible_wav(samples, rate=48000)
        (tmp_path / "x.wav").write_bytes(data)
        for clip in (decode_wav(data), read_wav(tmp_path / "x.wav")):
            assert clip.sample_rate == 48000 and np.array_equal(clip.samples, samples)
        assert read_blocks(data)[0] == 48000 and np.array_equal(read_blocks(data)[1], samples)

    def test_extensible_non_pcm_keeps_the_format_error(self):
        float_guid = bytes.fromhex("0300000000001000800000aa00389b71")
        no_guid = wav_bytes(np.zeros(4, dtype=np.int16), fmt_code=0xFFFE)  # a 16-byte fmt chunk
        for data in (extensible_wav(np.zeros(4), float_guid), no_guid):
            with pytest.raises(UnsupportedWavError, match=r"^unsupported format code 65534 \(PCM only\)$"):
                decode_wav(data)
            with pytest.raises(UnsupportedWavError, match=r"^unsupported format code 65534"):
                read_blocks(data)

    @pytest.mark.parametrize(
        "riff_size, size",
        [(None, 0xFFFFFFFF), (0xFFFFFFFF, 0xFFFFFFFF), (0, 0), (0xFFFFFFFF, 0), (36, 0)],
        ids=["all-ones", "both-all-ones", "both-zero", "riff-all-ones", "header-only-sizes"],
    )
    def test_unfinalised_data_size_reads_to_the_end(self, tmp_path, riff_size, size):
        # (36, 0): the sizes of a header written before any data and never patched
        samples = np.arange(-700, 700, 3, dtype=np.int16)
        data = with_data_size(wav_bytes(samples), size, riff_size)
        (tmp_path / "x.wav").write_bytes(data)
        for clip in (decode_wav(data), read_wav(tmp_path / "x.wav")):
            assert np.array_equal(clip.samples, samples)
        assert np.array_equal(read_blocks(data)[1], samples)
        odd = data + b"\x01"  # a stray last byte is dropped, as a pad byte is
        assert np.array_equal(decode_wav(odd).samples, samples)
        assert np.array_equal(read_blocks(odd)[1], samples)

    @pytest.mark.parametrize("size", [0, 0xFFFFFFFF], ids=["zero", "all-ones"])
    def test_unfinalised_empty_wav_decodes_empty(self, size):
        data = with_data_size(wav_bytes(np.zeros(0, dtype=np.int16)), size)
        assert len(decode_wav(data)) == 0
        rate, samples = read_blocks(data)
        assert rate == 16000 and len(samples) == 0

    def test_empty_data_then_a_list_chunk_decodes_empty(self, tmp_path):
        # a finalised file whose RIFF size covers a chunk after its empty data
        info = struct.pack("<4sI4s4sI", b"LIST", 14, b"INFO", b"ISFT", 2) + b"x\x00"
        data = wav_bytes(np.zeros(0, dtype=np.int16)) + info
        data = data[:4] + struct.pack("<I", len(data) - 8) + data[8:]
        (tmp_path / "x.wav").write_bytes(data)
        for clip in (decode_wav(data), read_wav(tmp_path / "x.wav")):
            assert clip.sample_rate == 16000 and len(clip) == 0
        assert len(read_blocks(data)[1]) == 0

    def test_rate_above_one_block_refused(self, tmp_path):
        ok = wav_bytes(np.zeros(4, dtype=np.int16), rate=audio.MAX_RATE)
        assert decode_wav(ok).sample_rate == read_blocks(ok)[0] == audio.MAX_RATE
        data = wav_bytes(np.zeros(4, dtype=np.int16), rate=2_000_000_000)  # frames: 240 MB blocks
        message = rf"^unsupported sample rate 2000000000 Hz \(at most {audio.MAX_RATE} Hz\)$"
        for read in (decode_wav, read_blocks):
            with pytest.raises(UnsupportedWavError, match=message):
                read(data)
        # a header rate of 0 is unsupported too, a WavError like the rate above
        zero = wav_bytes(np.zeros(4, dtype=np.int16), rate=0)
        (tmp_path / "zero.wav").write_bytes(zero)
        for read in (decode_wav, read_blocks, lambda _: read_wav(tmp_path / "zero.wav")):
            with pytest.raises(UnsupportedWavError, match="^sample_rate must be a positive integer, got 0$"):
                read(zero)
        raw = rf"^unsupported sample rate 9000000 Hz \(at most {audio.MAX_RATE} Hz\)$"
        (tmp_path / "x.pcm").write_bytes(b"\x00\x00")
        for read in (lambda: iter_pcm16_chunks(io.BytesIO(b""), 9_000_000),
                     lambda: decode_pcm16(b"\x00\x00", 9_000_000),
                     lambda: read_pcm16(tmp_path / "x.pcm", 9_000_000)):
            with pytest.raises(ValueError, match=raw):
                read()
        assert decode_pcm16(b"\x00\x00", audio.MAX_RATE).sample_rate == audio.MAX_RATE


class TestBlockReader:
    @pytest.mark.parametrize("rate", [8000, 16000, 22050, 44100, 48000, 8001])
    def test_blocks_hold_whole_frames_and_tile_the_clip(self, monkeypatch, rate):
        monkeypatch.setattr(audio, "BLOCK_BYTES", 20_000)
        samples = np.random.default_rng(rate).integers(-32768, 32768, 3 * 10_000 + 77).astype(np.int16)
        data = wav_bytes(samples, rate)
        got_rate, blocks = iter_wav_chunks(io.BytesIO(data))
        sizes, parts = [], []
        for block in blocks:
            sizes.append(len(block))
            parts.append(block.copy())
        assert got_rate == rate and np.array_equal(np.concatenate(parts), samples)
        assert len(sizes) > 2 and len(set(sizes[:-1])) == 1 and sizes[0] <= 10_000
        for frame_ms in (10, 20, 30):
            if rate * frame_ms % 1000 == 0:
                assert sizes[0] % samples_per_frame(rate, frame_ms) == 0

    def test_blocks_share_one_buffer(self, monkeypatch):
        monkeypatch.setattr(audio, "BLOCK_BYTES", 2000)
        _, blocks = iter_wav_chunks(io.BytesIO(wav_bytes(np.arange(5000, dtype=np.int16))))
        first = next(blocks)
        second = next(blocks)
        assert np.shares_memory(first, second)

    def test_truncated_data_fails_after_the_blocks_before_it(self, monkeypatch):
        monkeypatch.setattr(audio, "BLOCK_BYTES", 2000)
        data = wav_bytes(np.ones(5000, dtype=np.int16))[:-10]
        _, blocks = iter_wav_chunks(io.BytesIO(data))
        assert len(next(blocks)) == 960  # the header walk found nothing wrong
        with pytest.raises(MalformedWavError, match=r"^truncated chunk b'data'$"):
            list(blocks)

    def test_raw_blocks_and_odd_count(self, monkeypatch):
        monkeypatch.setattr(audio, "BLOCK_BYTES", 2000)
        samples = np.arange(-2500, 2500, dtype=np.int16)
        rate, blocks = iter_pcm16_chunks(io.BytesIO(samples.tobytes()), 16000)
        assert rate == 16000 and np.array_equal(np.concatenate([b.copy() for b in blocks]), samples)
        _, blocks = iter_pcm16_chunks(io.BytesIO(samples.tobytes() + b"\x00"), 16000)
        with pytest.raises(ValueError, match="^raw PCM16 byte count must be even$"):
            list(blocks)
        with pytest.raises(ValueError, match="sample_rate must be a positive integer"):
            iter_pcm16_chunks(io.BytesIO(b""), 0)

    def test_wav_from_pipe_with_unfinalised_size(self, tmp_path):
        samples = np.arange(-30000, 30000, 7, dtype=np.int16)
        path = tmp_path / "pipe"
        os.mkfifo(path)
        data = with_data_size(wav_bytes(samples), 0xFFFFFFFF)
        writer = threading.Thread(target=path.write_bytes, args=(data,))
        writer.start()
        try:
            with open(path, "rb") as fh:
                rate, blocks = iter_wav_chunks(fh)
                got = np.concatenate([block.copy() for block in blocks])
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert rate == 16000 and np.array_equal(got, samples)


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

    @pytest.mark.parametrize("shape", [(160, 2), (2, 160), (18, 18)], ids=["160x2", "2x160", "18x18"])
    def test_samples_not_one_dimensional_refused(self, shape):
        samples = np.zeros(shape, dtype=np.int16)
        for make in (lambda: AudioClip(samples, 16000), lambda: Frame(samples, 0, 20),
                     lambda: frame_energy(samples)):
            with pytest.raises(ValueError, match="one-dimensional"):
                make()

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
