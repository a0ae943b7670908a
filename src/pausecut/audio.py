"""WAV/PCM decoding and fixed-duration framing.

Audio enters the toolkit as mono 16-bit PCM and is cut into frames of
10, 20 or 30 ms.  Frame boundaries are the time grid every downstream
component (labelling, pause detection, segmentation) lives on, so all
frame-aligned instants are produced by :func:`frame_time` and nothing
else; this keeps batch and incremental code paths bit-identical.
"""

from __future__ import annotations

import io
import math
import os
import struct
from dataclasses import dataclass
from typing import Iterator

import numpy as np

SUPPORTED_FRAME_MS = (10, 20, 30)


class WavError(ValueError):
    """Base class for WAV decoding failures."""


class MalformedWavError(WavError):
    """The byte stream is not a well-formed RIFF/WAVE container."""


class UnsupportedWavError(WavError):
    """Well-formed WAV, but not PCM16 mono."""


def frame_time(index: int, frame_ms: int) -> float:
    """Time in seconds of frame boundary `index` on the `frame_ms` grid.

    Single rounding (`index * frame_ms` is exact integer math), so two
    call sites computing the time of the same boundary always get the
    same float.
    """
    return index * frame_ms / 1000.0


def as_int16(samples) -> np.ndarray:
    """`samples` as mono int16 PCM.  A 1-D int16 array is taken as it is (no value scan),
    other integers once checked to fit; floats and bools, which a cast truncates, are refused."""
    a = np.asarray(samples)
    if a.ndim != 1:
        raise ValueError(f"samples must be one-dimensional (mono), got shape {a.shape}")
    if a.dtype == np.int16:
        return a
    if a.dtype.kind not in "iu":
        raise ValueError(f"samples must be integer PCM, got dtype {a.dtype}")
    if a.size and not -32768 <= a.min() <= a.max() <= 32767:
        raise ValueError("samples must lie in the int16 range [-32768, 32767]")
    return a.astype(np.int16)


def _check_rate(rate, error: type[ValueError] = ValueError) -> int:
    """`rate` as a positive int, or `error`: `wave` would round a float or take
    True as 1, and a numpy rate would overflow its dtype in frame math."""
    if isinstance(rate, bool) or not isinstance(rate, (int, np.integer)) or rate <= 0:
        raise error(f"sample_rate must be a positive integer, got {rate!r}")
    return int(rate)


@dataclass
class AudioClip:
    """Decoded mono PCM audio: int16 samples plus their sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self) -> None:
        self.samples = as_int16(self.samples)
        self.sample_rate = _check_rate(self.sample_rate)

    @property
    def duration(self) -> float:
        """Length in seconds; 0.0 iff the clip is empty."""
        return len(self.samples) / self.sample_rate

    def __len__(self) -> int:
        return len(self.samples)


@dataclass
class Frame:
    """One fixed-duration slice of a clip.

    `padding` is the number of zero samples appended to complete a
    trailing partial frame; such a frame, and only it, is `final`.
    Clips whose sample count is an exact frame multiple have no
    final frame.  A frame holds at least one int16 sample.
    """

    samples: np.ndarray
    index: int
    frame_ms: int
    padding: int = 0

    def __post_init__(self) -> None:
        self.samples = as_int16(self.samples)
        if not len(self.samples):
            raise ValueError(f"frame {self.index} has no samples")

    @property
    def start_time(self) -> float:
        return frame_time(self.index, self.frame_ms)

    @property
    def final(self) -> bool:
        return self.padding > 0


def samples_per_frame(sample_rate: int, frame_ms: int) -> int:
    """Frame length in samples; raises if the grid does not divide evenly."""
    if frame_ms not in SUPPORTED_FRAME_MS:
        raise ValueError(f"frame_ms must be one of {SUPPORTED_FRAME_MS}, got {frame_ms}")
    if (sample_rate * frame_ms) % 1000 != 0:
        raise ValueError(
            f"incompatible rate/frame: {sample_rate} Hz samples do not divide "
            f"evenly into {frame_ms} ms frames"
        )
    return sample_rate * frame_ms // 1000


def frames(clip: AudioClip, frame_ms: int) -> list[Frame]:
    """Cut `clip` into consecutive `frame_ms` frames.

    The trailing partial frame, if any, is zero-padded to full length and
    flagged final so the frame sequence always covers the whole timeline.
    Concatenating the slices and trimming the final padding reproduces
    the clip's samples exactly.
    """
    return list(iter_frames(clip, frame_ms))


def iter_frames(clip: AudioClip, frame_ms: int) -> Iterator[Frame]:
    """Pull-based variant of :func:`frames`; single-consumer."""
    spf = samples_per_frame(clip.sample_rate, frame_ms)
    total = len(clip.samples)
    n_full = total // spf
    for i in range(n_full):
        yield Frame(clip.samples[i * spf : (i + 1) * spf], i, frame_ms)
    rem = total - n_full * spf
    if rem:
        padded = np.zeros(spf, dtype=np.int16)
        padded[:rem] = clip.samples[n_full * spf :]
        yield Frame(padded, n_full, frame_ms, padding=spf - rem)


# -- WAV container ----------------------------------------------------------

# Bytes per read block, rounded down to whole 60 ms of samples: whole frames
# of every supported size (10, 20 and 30 ms all divide 60 ms) at any rate
# that frames at all.  MAX_RATE is the highest rate whose 60 ms fit a block.
BLOCK_BYTES = 1 << 20
MAX_RATE = BLOCK_BYTES // 2 * 1000 // 60
_PCM_GUID = bytes.fromhex("0100000000001000800000aa00389b71")  # KSDATAFORMAT_SUBTYPE_PCM
_UNFINALISED = (0, 0xFFFFFFFF)  # sizes a capture tool leaves when it never finalises the header


def decode_wav(data: bytes) -> AudioClip:
    """Decode a RIFF/WAVE byte string (PCM, 16-bit, mono).

    Unknown chunks are skipped.  Malformed containers and unsupported
    encodings (format code, bit depth, channel count) are reported as
    distinct errors.  The samples are a copy: `data` is the caller's.
    """
    return _drain(io.BytesIO(data), iter_wav_chunks)


def read_wav(path) -> AudioClip:
    """Read a WAV file (see :func:`decode_wav`): :func:`iter_wav_chunks`' blocks, in one array."""
    with open(path, "rb") as fh:
        return _drain(fh, iter_wav_chunks)


def iter_wav_chunks(fh) -> tuple[int, Iterator[np.ndarray]]:
    """Walk the header of the RIFF/WAVE stream `fh` now; return its sample rate
    and an iterator over its samples in int16 blocks (see :func:`decode_wav`).

    Every block but the last holds whole frames of each size the rate allows.
    The blocks share one buffer, so each is valid until the next is read.  An
    error that shows only at the end of the data (a truncated data chunk) is
    raised by the iterator, after the blocks before it.
    """
    sample_rate, size = _wav_header(fh)
    return sample_rate, _blocks(fh, sample_rate, size, False)


def iter_pcm16_chunks(fh, sample_rate: int) -> tuple[int, Iterator[np.ndarray]]:
    """Headerless PCM16 mono from `fh` as :func:`iter_wav_chunks` gives a WAV's;
    an odd byte count is an error at the end of the stream."""
    sample_rate = block_rate(sample_rate)
    return sample_rate, _blocks(fh, sample_rate, None, True)


def _drain(fh, chunks, *rate) -> AudioClip:
    """The blocks of `chunks(fh, *rate)` copied into one int16 array, sized to what `fh`
    has left past the header (a pipe: nothing known) and grown only when the stream outruns it."""
    sample_rate, blocks = chunks(fh, *rate)
    here = fh.tell() if fh.seekable() else None
    samples = np.empty(0 if here is None else (fh.seek(0, os.SEEK_END) - fh.seek(here)) // 2, np.int16)
    n = 0
    for block in blocks:
        if n + len(block) > len(samples):  # refcheck: `samples` has no view while it moves
            samples.resize(2 * (n + len(block)), refcheck=False)
        samples[n : n + len(block)] = block
        n += len(block)
    samples.resize(n, refcheck=False)  # less where a chunk follows the data, or a stream grew
    return AudioClip(samples, sample_rate)


def _blocks(fh, sample_rate: int, size: int | None, strict: bool) -> Iterator[np.ndarray]:
    """`size` bytes of `fh` (None: to its end) as int16 blocks sharing one buffer of about
    BLOCK_BYTES in whole 60 ms.  Fewer than `size` bytes is a truncated data chunk; a last
    odd byte is an error if `strict` (raw PCM), else dropped (a WAV's stray pad byte)."""
    unit = 2 * (sample_rate * 60 // 1000 if sample_rate * 60 % 1000 == 0 else 1)
    buf = np.empty(max(BLOCK_BYTES // unit, 1) * unit, dtype=np.uint8)
    view, left = memoryview(buf), math.inf if size is None else size
    while True:
        want = min(len(buf), left)
        n = 0
        while n < want and (got := fh.readinto(view[n:want])):
            n += got
        left -= n
        if n < want and size is not None:
            raise MalformedWavError(f"truncated chunk {b'data'!r}")
        if n % 2 and strict:
            raise ValueError("raw PCM16 byte count must be even")
        if n > 1:
            yield buf[: n & ~1].view("<i2")
        if n < want or not left:
            return


def _wav_header(fh) -> tuple[int, int | None]:
    """Walk the chunks of a RIFF/WAVE stream up to its first data byte: its sample
    rate and its data size in bytes (None: the data runs to the end of the stream)."""
    head = fh.read(12)
    if len(head) < 12 or head[:4] != b"RIFF" or head[8:12] != b"WAVE":
        raise MalformedWavError("malformed header: not a RIFF/WAVE stream")
    riff_size = struct.unpack_from("<I", head, 4)[0]
    offset = 12
    fmt = None
    while len(head := fh.read(8)) == 8:
        cid, size = struct.unpack("<4sI", head)
        offset += 8
        if cid == b"data":
            break
        body = fh.read(min(size, 40))  # a fmt chunk's fields, the extensible ones too
        left = size - len(body)
        while left and (skipped := len(fh.read(min(left, BLOCK_BYTES)))):
            left -= skipped
        if left:
            raise MalformedWavError(f"truncated chunk {cid!r}")
        fh.read(size & 1)  # chunks are word-aligned
        offset += size + (size & 1)
        if cid == b"fmt ":
            if size < 16:
                raise MalformedWavError("malformed fmt chunk")
            fmt = body
    if fmt is None:
        raise MalformedWavError("missing fmt chunk")
    if len(head) < 8:
        raise MalformedWavError("missing data chunk")

    format_code, channels, sample_rate, _byte_rate, _block_align, bit_depth = struct.unpack_from(
        "<HHIIHH", fmt
    )
    if format_code == 0xFFFE and fmt[24:40] == _PCM_GUID:  # WAVE_FORMAT_EXTENSIBLE, PCM inside
        format_code = 1
    if format_code != 1:  # WAVE_FORMAT_PCM
        raise UnsupportedWavError(f"unsupported format code {format_code} (PCM only)")
    if bit_depth != 16:
        raise UnsupportedWavError(f"unsupported bit depth {bit_depth} (16-bit only)")
    if channels != 1:
        raise UnsupportedWavError(f"unsupported channel count {channels} (mono only)")
    sample_rate = block_rate(sample_rate, UnsupportedWavError)
    # An unfinalised data size runs to the end; a size of 0 is one only where the
    # RIFF size is unfinalised too or ends here, as a chunk after empty data is no sample.
    unfinalised = size == 0xFFFFFFFF or size == 0 and (riff_size in _UNFINALISED or riff_size + 8 <= offset)
    return sample_rate, None if unfinalised else size


def block_rate(rate, error: type[ValueError] = ValueError) -> int:
    """`rate` checked as a clip's (see :class:`AudioClip`) and at most MAX_RATE,
    where 60 ms of samples still fit one read block; else `error`."""
    rate = _check_rate(rate, error)
    if rate > MAX_RATE:
        raise error(f"unsupported sample rate {rate} Hz (at most {MAX_RATE} Hz)")
    return rate


def decode_pcm16(data: bytes, sample_rate: int) -> AudioClip:
    """Decode headerless little-endian PCM16 mono (a copy of `data`)."""
    return _drain(io.BytesIO(data), iter_pcm16_chunks, sample_rate)


def encode_wav(clip: AudioClip) -> bytes:
    """Serialize a clip as a canonical 44-byte-header PCM16 mono WAV."""
    buf = io.BytesIO()
    _write_wave(buf, clip)
    return buf.getvalue()


def read_pcm16(path, sample_rate: int) -> AudioClip:
    """Read a headerless PCM16 mono file (see :func:`decode_pcm16`) as :func:`read_wav` does."""
    with open(path, "rb") as fh:
        return _drain(fh, iter_pcm16_chunks, sample_rate)


def write_wav(path, clip: AudioClip) -> None:
    _write_wave(os.fspath(path), clip)  # 3.11's wave.open takes a str, not a path object


def _write_wave(target, clip: AudioClip) -> None:
    import wave  # here, so that `segment`, which writes no audio, never loads it
    with wave.open(target, "wb") as out:  # the layout `_wav_header` reads, little-endian
        out.setnchannels(1)
        out.setsampwidth(2)
        out.setframerate(clip.sample_rate)
        out.writeframes(np.ascontiguousarray(clip.samples))  # native order: `wave` swaps
