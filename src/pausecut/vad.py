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
label of frame t depends on frames 0..t only.  It is NOT bit-compatible
with WebRTC; only the parameter surface (mode x frame size) matches.

The rules have two implementations that give bit-identical labels:
:meth:`EnergyVad.step`, a per-frame automaton that the streaming engine
drives, and :class:`BlockLabeller`, which applies them with array
operations to a clip that arrives in blocks of samples and returns the
labels each block settles; batch :func:`classify` is it fed one block.
Its memory is bounded: beyond the block in hand it holds the energies
of one block and of fewer than FLOOR_CHUNK + FLOOR_WINDOW frames waiting
for a floor, and the ranks of one chunk of FLOOR_CHUNK windows, never a
label or an int64 copy of the samples.  Its floors follow van Herk's
and Gil & Werman's block filter, widened from the minimum to the
_FLOOR_LO + 2 smallest values: a window is one block's suffix joined
with the next block's prefix, one sorted-insertion sweep orders the
smallest values of every suffix and prefix, and two sorted lists merge
to their m-th smallest as min over i + j = m of max(A_i, B_j).  The
filter only compares and selects, so it runs on each energy's rank in
its chunk (int16 at FLOOR_CHUNK), which keeps the energies' order, ties
included: each selected rank maps back to the energy a sorted window
gives, so the floors equal those of a sorted window.
"""

from __future__ import annotations

import bisect
import math
from collections import deque
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .audio import SUPPORTED_FRAME_MS, AudioClip, as_int16, frame_time, samples_per_frame
from .segmenters import HybridParams, Segment, SrpolParams, segment_between, segment_srpol
from .segmenters import split_to_end, split_until

MULTIPLIERS = (2.0, 3.5, 5.0, 8.0)
HANGOVER_FRAMES = (8, 6, 4, 2)
FLOOR_WINDOW = 100
FLOOR_QUANTILE = 0.1
FLOOR_MIN = 1.0
FLOOR_MAX = 2048.0 * 2048.0
COLD_START_EPS = 1.0
# A full window's FLOOR_QUANTILE lies between the ascending ranks
# _FLOOR_LO and _FLOOR_LO + 1, at _FLOOR_FRAC of the way (linear
# interpolation); both implementations interpolate with these values.
_FLOOR_POS = FLOOR_QUANTILE * (FLOOR_WINDOW - 1)
_FLOOR_LO = int(_FLOOR_POS)
_FLOOR_FRAC = _FLOOR_POS - _FLOOR_LO
# Windows per chunk of batch floors, a whole number of blocks: a chunk's
# ranks take about 1.2 MB whatever the clip length.  Fewer, larger chunks
# make fewer numpy calls, which --jobs threads contend for under the GIL.
FLOOR_CHUNK = 128 * FLOOR_WINDOW


@dataclass(frozen=True)
class VadConfig:
    """WebRTC-style parameter surface: mode in [0, 3], frame size in ms."""

    aggressiveness: int = 2
    frame_ms: int = 20

    def __post_init__(self) -> None:
        # ints, not 2.0, True or np.int64(2): a mode indexes tuples; checkpoints are JSON
        modes = len(MULTIPLIERS)
        if type(self.aggressiveness) is not int or not 0 <= self.aggressiveness < modes:
            raise ValueError(
                f"aggressiveness must be an int in [0, {modes - 1}], got {self.aggressiveness!r}"
            )
        if type(self.frame_ms) is not int or self.frame_ms not in SUPPORTED_FRAME_MS:
            raise ValueError(f"frame_ms must be one of {SUPPORTED_FRAME_MS}, got {self.frame_ms!r}")

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


@dataclass(frozen=True, slots=True)
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

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("pause duration must be positive")
        if not (-math.inf < self.start < self.end < math.inf and self.duration < math.inf):
            raise ValueError(f"pause [{self.start}, {self.end}) must be finite and end after its start")

    @classmethod
    def from_frames(cls, first: int, last: int, frame_ms: int) -> "Pause":
        return cls(
            start=frame_time(first, frame_ms),
            duration=frame_time(last - first + 1, frame_ms),
            end=frame_time(last + 1, frame_ms),
            frame_span=(first, last),
        )

    @classmethod
    def at(cls, start: float, duration: float) -> "Pause":
        """Synthetic pause, not tied to a frame grid."""
        return cls(start=start, duration=duration, end=start + duration)


def frame_energy(samples: np.ndarray) -> float:
    """Mean squared amplitude of one frame (zero padding counts)."""
    s = as_int16(samples).astype(np.int64)
    return int(np.dot(s, s)) / len(s)


def frame_energies(clip: AudioClip, frame_ms: int) -> np.ndarray:
    """Per-frame energies, bit-identical to :func:`frame_energy` of each frame."""
    return _energies(clip.samples, samples_per_frame(clip.sample_rate, frame_ms))


def _energies(samples: np.ndarray, spf: int) -> np.ndarray:
    """Energies of `spf`-sample frames of `samples`.

    einsum squares and sums the int16 samples in int64 through its own
    small buffer, so no int64 copy of the clip is made; the trailing
    partial frame is summed on its own (its zero padding adds nothing).
    """
    full = len(samples) // spf
    sums = np.empty(-(-len(samples) // spf), dtype=np.int64)
    whole = samples[: full * spf].reshape(full, spf)
    sums[:full] = np.einsum("ij,ij->i", whole, whole, dtype=np.int64)
    if len(sums) > full:
        rest = samples[full * spf :].astype(np.int64)
        sums[full] = rest @ rest
    return sums / spf


class EnergyVad:
    """Incremental frame classifier; one instance per audio stream.

    Mutable and single-owner: feed energies in order via :meth:`step`.
    This is the per-frame form of the rules that batch :func:`classify`
    applies to a whole clip; the two give bit-identical labels.
    """

    def __init__(self, config: VadConfig, window: list[float] | tuple = (), hang: int = 0):
        """`window` (the last energies, oldest first) and `hang` resume a saved state."""
        if not (type(hang) is int and 0 <= hang <= config.hangover and len(window) <= FLOOR_WINDOW
                and all(type(e) is float for e in window) and np.isfinite(window).all()):
            raise ValueError("not a saved VAD state: bad floor window or hangover")
        self.config = config
        self._window: deque[float] = deque(window, maxlen=FLOOR_WINDOW)
        self._sorted = sorted(window)
        self._hang = hang

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
            a, b = self._sorted[_FLOOR_LO], self._sorted[_FLOOR_LO + 1]
            estimate = a + (b - a) * _FLOOR_FRAC
        floor = min(max(estimate, FLOOR_MIN), FLOOR_MAX)

        if energy > floor * self.config.multiplier:
            self._hang = self.config.hangover
            return True
        if self._hang > 0:
            self._hang -= 1
            return True
        return False


def _noise_floors(energies: np.ndarray, lead: int = 0) -> np.ndarray:
    """The clamped noise floor in force at each frame after the first `lead`, as
    :meth:`EnergyVad.step` sees it.  The lead frames are history: all the stream's
    frames before, or the last FLOOR_WINDOW - 1 of them."""
    n_windows = max(len(energies) - FLOOR_WINDOW + 1, 0)  # window j ends at energies[j + 99]
    cold = len(energies) - lead - n_windows
    floors = np.empty(len(energies) - lead)
    floors[:cold] = np.minimum.accumulate(energies[: lead + cold])[lead:] + COLD_START_EPS
    for j in range(0, n_windows, FLOOR_CHUNK):
        n = min(FLOOR_CHUNK, n_windows - j)
        floors[cold + j : cold + j + n] = _window_floors(energies[j : j + n + FLOOR_WINDOW - 1])
    return np.clip(floors, FLOOR_MIN, FLOOR_MAX, out=floors)


def _window_floors(energies: np.ndarray) -> np.ndarray:
    """The unclamped floor of each FLOOR_WINDOW-wide window of `energies`."""
    n = len(energies) - FLOOR_WINDOW + 1
    nb = -(-n // FLOOR_WINDOW)  # blocks holding a window start, then one spare block
    pad = (nb + 1) * FLOOR_WINDOW - len(energies)
    # each energy's rank, in the smallest signed type whose maximum, +inf here, tops every rank
    order, dtype = np.argsort(energies), np.min_scalar_type(-len(energies) - 1)
    ranks, inf = np.empty(len(energies), dtype), np.iinfo(dtype).max
    ranks[order] = np.arange(len(energies), dtype=dtype)
    blocks = np.pad(ranks, (0, pad), constant_values=inf).reshape(nb + 1, FLOOR_WINDOW)
    columns = np.concatenate((blocks[:-1, ::-1], blocks[1:])).T  # reversed blocks, then the next
    # runs[t, k, c]: k-th smallest (1-based) of columns[:t, c], inf if t < k; runs[:, 0] = -1.
    # Step-major, so each insertion reads and writes one contiguous slab.
    runs = np.full((FLOOR_WINDOW + 1, _FLOOR_LO + 3, 2 * nb), inf, dtype)
    runs[:, 0] = -1
    for t, column in enumerate(columns):  # sorted insertion of one value into every run
        np.minimum(runs[t, 1:], np.maximum(runs[t, :-1], column), out=runs[t + 1, 1:])
    suffix, prefix = runs[:0:-1, :, :nb], runs[:-1, :, nb:]  # [r, k, b]: blk[b, r:], blk[b + 1, :r]
    a, b = (energies[order[_merged_rank(suffix, prefix, m).T.ravel()[:n]]]  # rank r: energies[order[r]]
            for m in (_FLOOR_LO + 1, _FLOOR_LO + 2))
    return a + (b - a) * _FLOOR_FRAC


def _merged_rank(x: np.ndarray, y: np.ndarray, m: int) -> np.ndarray:
    """m-th smallest (1-based) of two rank lists sorted along axis 1, each with -1 at index 0."""
    return reduce(np.minimum, (np.maximum(x[:, i], y[:, m - i]) for i in range(m + 1)))


def classify(clip: AudioClip, config: VadConfig) -> FrameLabelTrack:
    """Label every frame of `clip` as speech or non-speech.

    Array form of the rules, bit-identical to feeding each frame's
    energy to :meth:`EnergyVad.step`: a frame is speech iff it is no more
    than `hangover` frames after the last raw-speech frame.  Framing
    errors (rate not divisible into frames) propagate from the audio layer.
    """
    labeller = BlockLabeller(config, clip.sample_rate)
    return FrameLabelTrack(np.concatenate((labeller.push(clip.samples), labeller.finish())), config.frame_ms)


class BlockLabeller:
    """:func:`classify` of a clip that arrives in blocks of samples.

    :meth:`push` returns the labels of the frames it labels, :meth:`finish` the
    rest.  Every block but the last must hold whole frames; each is checked as
    :class:`AudioClip` samples are, and one pushed after finish raises.  Between
    blocks it holds the last FLOOR_WINDOW - 1 energies, the newest raw-speech
    frame and the energies waiting for a floor (fewer than FLOOR_CHUNK), never a
    label.  Floors are computed FLOOR_CHUNK frames at a time, whatever the block
    size: each call of the block filter makes some 200 numpy calls, which --jobs
    threads contend for.  The labels do not depend on where the clip is cut.
    """

    def __init__(self, config: VadConfig, sample_rate: int):
        self.config = config
        self._spf = samples_per_frame(sample_rate, config.frame_ms)
        self._energies = np.empty(0)  # min(labelled, FLOOR_WINDOW - 1) history, then the waiting
        self._labelled = 0
        self._last_raw = -config.hangover - 1
        self._ragged = self._finished = False  # the last block ended inside a frame; finish called

    def push(self, samples: np.ndarray) -> np.ndarray:
        if self._finished:
            raise RuntimeError("stream already flushed")
        samples = as_int16(samples)
        if self._ragged:
            raise ValueError("only the last block may end inside a frame")
        self._ragged = len(samples) % self._spf > 0
        self._energies = np.concatenate((self._energies, _energies(samples, self._spf)))
        return self._label(final=False)

    def finish(self) -> np.ndarray:
        self._finished = True
        return self._label(final=True)

    def _label(self, final: bool) -> np.ndarray:
        """Label, in one pass, every whole FLOOR_CHUNK of the waiting frames, or all if `final`."""
        e, lead = self._energies, min(self._labelled, FLOOR_WINDOW - 1)
        n = len(e) - lead if final else (len(e) - lead) // FLOOR_CHUNK * FLOOR_CHUNK
        if not n:
            return np.zeros(0, bool)
        raw = e[lead : lead + n] > _noise_floors(e[: lead + n], lead) * self.config.multiplier
        t = np.arange(self._labelled, self._labelled + n)
        last_raw = np.maximum.accumulate(np.where(raw, t, self._last_raw))
        self._labelled, self._last_raw = self._labelled + n, int(last_raw[-1])
        self._energies = e[lead + n - min(self._labelled, FLOOR_WINDOW - 1) :]
        return t - last_raw <= self.config.hangover


class PauseScan:
    """The one walk from frame labels to pauses, and the one end of every pause strategy.

    :meth:`_toggle` alone opens and closes non-speech runs, at each label change in
    a :meth:`push_labels` block or a streaming `push_frame`, and keeps each run of at
    least `min_pause_ms` (default one frame) as a pause; :func:`detect_pauses` is it
    fed one block.  With :class:`HybridParams` both return what the frames so far
    settle, and the scan holds the open segment's pauses; `srpol` (:class:`SrpolParams`)
    and `vad` (no params) need every pause, so their pushes return [].  :meth:`close`
    ends the stream, :meth:`flush` ends it with the strategy's segments, and later
    pushes raise."""

    def __init__(self, params: HybridParams | SrpolParams | None, frame_ms: int,
                 min_pause_ms: int | None = None):
        min_pause_ms = frame_ms if min_pause_ms is None else min_pause_ms
        if not min_pause_ms >= frame_ms:  # nan too
            raise ValueError(f"min_pause_ms ({min_pause_ms}) must be at least one frame ({frame_ms} ms)")
        self.params, self.frame_ms, self.min_pause_ms = params, frame_ms, min_pause_ms
        self._segment_start, self._frames_pushed, self._finished = 0.0, 0, False
        self._run_start: int | None = None  # first frame of the open non-speech run
        self._pauses: list[Pause] = []  # closed, start >= segment start

    @property
    def frames_pushed(self) -> int:
        return self._frames_pushed

    @property
    def segment_start(self) -> float:
        return self._segment_start

    def push_labels(self, labels: np.ndarray) -> list[Segment]:
        """Take the next frames' labels, a 1-D bool array (True: speech), each change
        opening or closing a run; return the segments they settle (hybrids only)."""
        if self._finished:
            raise RuntimeError("stream already flushed")
        if not (isinstance(labels, np.ndarray) and labels.dtype == bool and labels.ndim == 1):
            raise ValueError("labels must be a 1-D numpy bool array")
        held, first = len(self._pauses), self._frames_pushed
        self._frames_pushed += len(labels)
        for a in np.flatnonzero(np.diff(labels, prepend=self._run_start is None)).tolist():
            self._toggle(first + a)
        return self._settle(held) if isinstance(self.params, HybridParams) else []

    def close(self) -> list[Pause]:
        """End the stream and its open run, if any; return the pauses not yet emitted."""
        self._finished = True
        if self._run_start is not None:
            self._toggle(self._frames_pushed)
        return self._pauses

    def flush(self) -> list[Segment]:
        """:meth:`close`, then emit the rest of the stream: the hybrid remainder, srpol's
        bisection or the vad tiling of [0, end); a second flush finds none."""
        pauses, s, p = self.close(), self._segment_start, self.params
        end = frame_time(self._frames_pushed, self.frame_ms)
        if s == end:  # flushed before, or every frame emitted
            return []
        if isinstance(p, HybridParams):
            return self._emit(split_to_end(pauses, s, end, p))
        if p is None:  # vad
            return self._emit(segment_between(pauses, end))
        return self._emit(segment_srpol(Segment(s, end), pauses, p))

    def _settle(self, held: int) -> list[Segment]:
        """Emit what the frames pushed so far settle; `held` pauses were held before the push.

        An open run min_pause_ms long is a pause whatever follows, and
        split_until credits it up to the horizon s + max_len; a shorter one
        leaves only the time before its first frame known.  Short of the
        horizon only a closed juncture settles, so no scan runs there unless a
        pause closed on this push in force mode (split_until's float test).
        So a window or horizon split goes out within max_len + min_pause_ms
        of its segment start, and the emissions plus the flush remainder are
        the batch scan, whatever the block cuts."""
        fm, run, known = self.frame_ms, self._run_start, self._frames_pushed
        if run is not None and (known - run) * fm < self.min_pause_ms:
            run, known = None, run
        now, p = frame_time(known, fm), self.params
        if now >= self._segment_start + p.max_len or p.force_split and len(self._pauses) > held:
            open_start = None if run is None else frame_time(run, fm)
            return self._emit(split_until(self._pauses, self._segment_start, now, p, open_start))
        return []

    def _toggle(self, i: int) -> None:
        """A label change before frame `i`: open a run there, or end the open one, a
        pause if min_pause_ms long, kept unless a split has passed its start (no scan reads it)."""
        first, self._run_start = self._run_start, i if self._run_start is None else None
        if first is not None and (i - first) * self.frame_ms >= self.min_pause_ms:
            pause = Pause.from_frames(first, i - 1, self.frame_ms)
            if pause.start >= self._segment_start:
                self._pauses.append(pause)

    def _emit(self, segments: list[Segment]) -> list[Segment]:
        if segments:
            self._segment_start = segments[-1].end
            done = bisect.bisect_left(self._pauses, self._segment_start, key=lambda p: p.start)
            del self._pauses[:done]
        return segments


class BlockSegmenter:
    """`segment`'s path from samples to segments for every strategy but `fixed`: `params`
    is :class:`HybridParams` (the hybrids), :class:`SrpolParams` or None (`vad`).

    :meth:`push` returns the segments a block of samples settles (the hybrids only),
    :meth:`finish` the rest: the whole-clip functions' segments of the frame timeline.
    A block pushed after finish raises, and a second finish finds none.  Each push's
    labels, if any, go from a :class:`BlockLabeller` to a :class:`PauseScan`, so no
    sample, label or segment is kept: besides the block in hand and the labeller's
    state it holds the open segment's pauses (the hybrids) or every pause."""

    def __init__(self, params: HybridParams | SrpolParams | None, vad_config: VadConfig,
                 sample_rate: int, min_pause_ms: int | None = None):
        self._scan = PauseScan(params, vad_config.frame_ms, min_pause_ms)
        self._labeller = BlockLabeller(vad_config, sample_rate)

    def push(self, samples: np.ndarray) -> list[Segment]:
        labels = self._labeller.push(samples)
        return self._scan.push_labels(labels) if len(labels) else []

    def finish(self) -> list[Segment]:
        """The segments not yet returned; a second finish finds none, as a second flush."""
        labels = self._labeller.finish()
        return (self._scan.push_labels(labels) if len(labels) else []) + self._scan.flush()


def detect_pauses(track: FrameLabelTrack, min_pause_ms: int | None = None) -> list[Pause]:
    """All maximal non-speech runs of at least `min_pause_ms`, in time order:
    a :class:`PauseScan` fed the whole track as one block, then closed.

    With the default (one frame) every non-speech run is a pause, which is
    what the pause-driven segmenters consume; longer thresholds are for
    reporting.  Returned pauses are sorted, disjoint and maximal.
    """
    scan = PauseScan(None, track.frame_ms, min_pause_ms)
    scan.push_labels(track.labels)
    return scan.close()
