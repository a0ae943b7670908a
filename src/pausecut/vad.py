"""Energy-based voice activity detection and pause extraction.

The detector classifies each frame as speech or non-speech from its mean
squared amplitude, compared against an adaptive noise floor:

* per-frame energy  = sum(sample^2) / samples_per_frame (int64 accumulator,
  exact; the division is the only rounding step);
* noise floor       = low quantile (q=0.1) of the energies of the last 100
  frames; while fewer than 100 frames have been seen, the running minimum
  energy plus a small epsilon is used instead (cold start);
* the floor is clamped to [FLOOR_MIN, FLOOR_MAX] so that all-zero audio is
  never speech and full-scale audio always is;
* a frame is raw speech iff energy > floor * multiplier(mode);
* a hangover of H(mode) frames keeps the label speech after the last raw
  speech frame.

The aggressiveness mode (0..3) only selects the multiplier and hangover:
multipliers grow and hangovers shrink with the mode, and the floor itself
is mode- and label-independent, so the set of speech-labelled frames can
only shrink as the mode increases.  The detector is strictly causal: the
label of frame t depends on frames 0..t only, which is what lets the
incremental engine reproduce batch labels exactly.  It is NOT
bit-compatible with WebRTC; only the parameter surface (mode x frame
size) matches.
"""

from __future__ import annotations

import bisect
from collections import deque
from dataclasses import dataclass

import numpy as np

from .audio import AudioClip, Frame, frame_time, num_frames, samples_per_frame

MULTIPLIERS = (2.0, 3.5, 5.0, 8.0)
HANGOVER_FRAMES = (8, 6, 4, 2)
FLOOR_WINDOW = 100
FLOOR_QUANTILE = 0.1
FLOOR_MIN = 1.0
FLOOR_MAX = 2048.0 * 2048.0
COLD_START_EPS = 1.0


@dataclass(frozen=True)
class VadConfig:
    """WebRTC-style parameter surface: mode in [0, 3], frame size in ms."""

    aggressiveness: int = 2
    frame_ms: int = 20

    def __post_init__(self) -> None:
        if not 0 <= self.aggressiveness <= 3:
            raise ValueError(f"aggressiveness must be in [0, 3], got {self.aggressiveness}")
        if self.frame_ms not in (10, 20, 30):
            raise ValueError(f"frame_ms must be 10, 20 or 30, got {self.frame_ms}")

    @property
    def multiplier(self) -> float:
        return MULTIPLIERS[self.aggressiveness]

    @property
    def hangover(self) -> int:
        return HANGOVER_FRAMES[self.aggressiveness]


@dataclass
class FrameLabelTrack:
    """Per-frame speech(True)/non-speech(False) decisions on a fixed grid."""

    labels: np.ndarray
    frame_ms: int

    def __post_init__(self) -> None:
        self.labels = np.asarray(self.labels, dtype=bool)

    @property
    def total_frames(self) -> int:
        return len(self.labels)

    @property
    def duration(self) -> float:
        return frame_time(self.total_frames, self.frame_ms)

    def to_label_line(self) -> str:
        """One character per frame, 'S' for speech and 'N' for non-speech."""
        return "".join("S" if x else "N" for x in self.labels)

    @classmethod
    def from_label_line(cls, line: str, frame_ms: int) -> "FrameLabelTrack":
        bad = set(line) - {"S", "N"}
        if bad:
            raise ValueError(f"label line may only contain S/N, got {sorted(bad)}")
        return cls(np.frombuffer(line.encode(), dtype="S1") == b"S", frame_ms)


@dataclass(frozen=True)
class Pause:
    """A maximal run of non-speech frames (or a synthetic silent interval).

    `end` is stored rather than derived so every consumer compares the
    same float; for frame-backed pauses it is the canonical
    frame_time(last_frame + 1), which may differ from start + duration
    in the last bit.
    """

    start: float
    duration: float
    end: float
    frame_span: tuple[int, int] | None = None

    @classmethod
    def from_frames(cls, first: int, last: int, frame_ms: int) -> "Pause":
        if last < first:
            raise ValueError("empty frame span")
        return cls(
            start=frame_time(first, frame_ms),
            duration=frame_time(last - first + 1, frame_ms),
            end=frame_time(last + 1, frame_ms),
            frame_span=(first, last),
        )

    @classmethod
    def at(cls, start: float, duration: float) -> "Pause":
        """Synthetic pause, not tied to a frame grid."""
        if duration <= 0:
            raise ValueError("pause duration must be positive")
        return cls(start=start, duration=duration, end=start + duration)


def frame_energy(samples: np.ndarray) -> float:
    """Mean squared amplitude of one frame (zero padding counts)."""
    s = np.asarray(samples, dtype=np.int64)
    return int(np.dot(s, s)) / len(s)


def frame_energies(clip: AudioClip, frame_ms: int) -> np.ndarray:
    """Vectorized per-frame energies, identical to frame-by-frame results."""
    spf = samples_per_frame(clip.sample_rate, frame_ms)
    n = num_frames(clip, frame_ms)
    if n == 0:
        return np.zeros(0)
    padded = np.zeros(n * spf, dtype=np.int64)
    padded[: len(clip.samples)] = clip.samples
    sq = padded * padded
    return sq.reshape(n, spf).sum(axis=1) / spf


class EnergyVad:
    """Incremental frame classifier; one instance per audio stream.

    Mutable and single-owner: feed energies (or frames) in order via
    :meth:`step`.  Batch :func:`classify` drives the same automaton, so
    streaming labels match batch labels exactly.
    """

    def __init__(self, config: VadConfig):
        self.config = config
        self._window: deque[float] = deque(maxlen=FLOOR_WINDOW)
        self._sorted: list[float] = []
        self._hang = 0

    def step(self, energy: float) -> bool:
        """Label the next frame given its energy."""
        if len(self._window) == FLOOR_WINDOW:
            oldest = self._window[0]
            del self._sorted[bisect.bisect_left(self._sorted, oldest)]
        self._window.append(energy)
        bisect.insort(self._sorted, energy)

        if len(self._sorted) < FLOOR_WINDOW:
            estimate = self._sorted[0] + COLD_START_EPS
        else:
            estimate = _quantile(self._sorted, FLOOR_QUANTILE)
        floor = min(max(estimate, FLOOR_MIN), FLOOR_MAX)

        if energy > floor * self.config.multiplier:
            self._hang = self.config.hangover
            return True
        if self._hang > 0:
            self._hang -= 1
            return True
        return False

    def step_frame(self, frame: Frame) -> bool:
        return self.step(frame_energy(frame.samples))


def _quantile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolated quantile of an ascending list."""
    n = len(sorted_values)
    pos = q * (n - 1)
    lo = int(pos)
    frac = pos - lo
    if frac == 0.0 or lo + 1 >= n:
        return sorted_values[lo]
    return sorted_values[lo] + (sorted_values[lo + 1] - sorted_values[lo]) * frac


def classify(clip: AudioClip, config: VadConfig) -> FrameLabelTrack:
    """Label every frame of `clip` as speech or non-speech.

    Deterministic for fixed input and config.  Framing errors (rate not
    divisible into frames) propagate from the audio layer.
    """
    energies = frame_energies(clip, config.frame_ms)
    vad = EnergyVad(config)
    labels = np.fromiter((vad.step(e) for e in energies), dtype=bool, count=len(energies))
    return FrameLabelTrack(labels, config.frame_ms)


def detect_pauses(track: FrameLabelTrack, min_pause_ms: int | None = None) -> list[Pause]:
    """All maximal non-speech runs of at least `min_pause_ms`, in time order.

    With the default (one frame) every non-speech run is a pause, which is
    what the pause-driven segmenters consume; longer thresholds are for
    reporting.  Returned pauses are sorted, disjoint and maximal.
    """
    if min_pause_ms is None:
        min_pause_ms = track.frame_ms
    if min_pause_ms < track.frame_ms:
        raise ValueError(
            f"min_pause_ms ({min_pause_ms}) must be at least one frame ({track.frame_ms} ms)"
        )
    labels = track.labels
    return [
        Pause.from_frames(a, b - 1, track.frame_ms)
        for a, b in label_runs(labels)
        if not labels[a] and (b - a) * track.frame_ms >= min_pause_ms
    ]


def label_runs(labels: np.ndarray) -> list[tuple[int, int]]:
    """(first, end) frame indices, end exclusive, of each maximal same-label run."""
    if len(labels) == 0:
        return []
    cuts = (np.flatnonzero(labels[1:] != labels[:-1]) + 1).tolist()
    return list(zip([0] + cuts, cuts + [len(labels)]))
