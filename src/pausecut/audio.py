"""WAV/PCM decoding and fixed-duration framing.

Audio enters the toolkit as mono 16-bit PCM and is cut into frames of
10, 20 or 30 ms.  Frame boundaries are the time grid every downstream
component (labelling, pause detection, segmentation) lives on, so all
frame-aligned instants are produced by :func:`frame_time` and nothing
else; this keeps batch and incremental code paths bit-identical.
"""

from __future__ import annotations

import io
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
    """`samples` as int16 PCM.  An int16 array is taken as it is (no value scan), other
    integers once checked to fit; floats and bools, which a cast truncates, are refused."""
    a = np.asarray(samples)
    if a.dtype == np.int16:
        return a
    if a.dtype.kind not in "iu":
        raise ValueError(f"samples must be integer PCM, got dtype {a.dtype}")
    if a.size and not -32768 <= a.min() <= a.max() <= 32767:
        raise ValueError("samples must lie in the int16 range [-32768, 32767]")
    return a.astype(np.int16)


@dataclass
class AudioClip:
    """Decoded mono PCM audio: int16 samples plus their sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self) -> None:
        self.samples = as_int16(self.samples)
        if self.samples.ndim != 1:
            raise ValueError("AudioClip is mono: samples must be one-dimensional")
        rate = self.sample_rate  # `wave` would round a float or take True as 1
        if isinstance(rate, bool) or not isinstance(rate, (int, np.integer)) or rate <= 0:
            raise ValueError(f"sample_rate must be a positive integer, got {rate!r}")
        self.sample_rate = int(rate)  # a numpy rate would overflow its dtype in frame math

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


def decode_wav(data: bytes) -> AudioClip:
    """Decode a RIFF/WAVE byte string (PCM, 16-bit, mono).

    Unknown chunks are skipped.  Malformed containers and unsupported
    encodings (format code, bit depth, channel count) are reported as
    distinct errors.  The samples are a copy: `data` is the caller's.
    """
    payload, sample_rate = _wav_payload(data)
    return AudioClip(np.frombuffer(payload, dtype="<i2").astype(np.int16), sample_rate)


def _wav_payload(data) -> tuple[memoryview, int]:
    """The data chunk of a RIFF/WAVE buffer, as a view, and its sample rate."""
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise MalformedWavError("malformed header: not a RIFF/WAVE stream")

    view = memoryview(data)  # slices share `data` instead of copying the payload
    fmt = None
    payload = None
    pos = 12
    while pos + 8 <= len(data):
        cid, size = struct.unpack_from("<4sI", data, pos)
        pos += 8
        body = view[pos : pos + size]
        if len(body) < size:
            raise MalformedWavError(f"truncated chunk {cid!r}")
        if cid == b"fmt ":
            if size < 16:
                raise MalformedWavError("malformed fmt chunk")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif cid == b"data":
            payload = body
        pos += size + (size & 1)  # chunks are word-aligned

    if fmt is None:
        raise MalformedWavError("missing fmt chunk")
    if payload is None:
        raise MalformedWavError("missing data chunk")

    format_code, channels, sample_rate, _byte_rate, _block_align, bit_depth = fmt
    if format_code != 1:  # WAVE_FORMAT_PCM
        raise UnsupportedWavError(f"unsupported format code {format_code} (PCM only)")
    if bit_depth != 16:
        raise UnsupportedWavError(f"unsupported bit depth {bit_depth} (16-bit only)")
    if channels != 1:
        raise UnsupportedWavError(f"unsupported channel count {channels} (mono only)")

    if len(payload) % 2:
        payload = payload[:-1]  # stray pad byte
    return payload, sample_rate


def decode_pcm16(data: bytes, sample_rate: int) -> AudioClip:
    """Decode headerless little-endian PCM16 mono (a copy of `data`)."""
    return AudioClip(_raw_pcm16(data).astype(np.int16), sample_rate)


def _raw_pcm16(data) -> np.ndarray:
    """The samples of headerless PCM16, viewing `data`."""
    if len(data) % 2:
        raise ValueError("raw PCM16 byte count must be even")
    return np.frombuffer(data, dtype="<i2")


def encode_wav(clip: AudioClip) -> bytes:
    """Serialize a clip as a canonical 44-byte-header PCM16 mono WAV."""
    buf = io.BytesIO()
    _write_wave(buf, clip)
    return buf.getvalue()


def read_wav(path) -> AudioClip:
    """Read a WAV file (see :func:`decode_wav`).

    The samples view the one buffer the file is read into, so reading
    peaks at the file size rather than twice the payload.
    """
    payload, sample_rate = _wav_payload(_read_file(path))
    return AudioClip(np.frombuffer(payload, dtype="<i2"), sample_rate)


def read_pcm16(path, sample_rate: int) -> AudioClip:
    """Read a headerless PCM16 mono file (see :func:`decode_pcm16`) without a second copy."""
    return AudioClip(_raw_pcm16(_read_file(path)), sample_rate)


def _read_file(path) -> memoryview:
    """The whole file in one writable buffer that only the caller holds.

    The buffer is a numpy array, which numpy backs with huge pages when it
    is large, so samples viewing it scan as fast as a copy numpy made.
    """
    with open(path, "rb") as fh:
        buf = np.empty(os.fstat(fh.fileno()).st_size, dtype=np.uint8)
        buf = buf[: fh.readinto(buf)]  # the file shrank since the stat
        rest = fh.read()  # it grew, or is a pipe or device with no size
    if rest:
        buf = np.concatenate((buf, np.frombuffer(rest, dtype=np.uint8)))
    return memoryview(buf)


def write_wav(path, clip: AudioClip) -> None:
    _write_wave(os.fspath(path), clip)  # 3.11's wave.open takes a str, not a path object


def _write_wave(target, clip: AudioClip) -> None:
    import wave  # here, so that `segment`, which writes no audio, never loads it
    with wave.open(target, "wb") as out:  # the layout `_wav_payload` reads, little-endian
        out.setnchannels(1)
        out.setsampwidth(2)
        out.setframerate(clip.sample_rate)
        out.writeframes(np.ascontiguousarray(clip.samples))  # native order: `wave` swaps
