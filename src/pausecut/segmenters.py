"""The four segmentation strategies behind one segment vocabulary.

* fixed        -- cut every `length` seconds, content-blind, keeps everything;
                  the hybrid walk over no pauses with min_len == max_len.
* vad_merge    -- maximal speech runs become kept segments, non-speech runs
                  become dropped ones; the only strategy that discards audio.
* srpol        -- recursive bisection at the longest silence until a piece is
                  shorter than the threshold or holds no silence, computed
                  longest pause first; needs the whole recording up front.
* hybrid       -- left-to-right scan: split on the longest pause whose start
                  falls `min_len`..`max_len` after the segment start, else at
                  `max_len`.  The forced variant additionally splits at the
                  first pause of at least `juncture_ms` (a terminal-juncture
                  proxy), so segments may get arbitrarily short but never
                  exceed `max_len`.

Hybrid scan rule, precisely (this statement is the contract the reference
implementations in the test suite are written against):

  For a segment starting at s, the horizon is h = s + max_len.  A pause is
  credited only with its extent inside [s, h): its effective duration is
  (h - start) when it crosses h, else its full duration.  Pauses starting
  at or beyond h never count.  In forced mode, the earliest pause with
  start >= s, start < h and effective duration >= juncture splits at
  start + effective/2.  Otherwise, among pauses whose start offset from s
  lies in [min_len, max_len], the one with the largest effective duration
  (earliest on ties) splits at start + effective/2; if there is none and
  the audio reaches h, the split is at h.  A remainder shorter than
  max_len is emitted as the final segment.

`split_until` decides each boundary in one walk over the pauses starting
in [s, h).  Crediting a pause only up to the horizon is what makes every
boundary computable from the past alone: the engine's still-open pause is
the walk's last candidate, credited from its start to h, so the engine
reproduces this scan split for split without waiting for it to end.

All boundaries are plain floats produced by one arithmetic path, so
adjacent segments share the identical value and tilings are exact.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # audio and vad load numpy; manifest readers need none of it
    from .vad import FrameLabelTrack, Pause


def finite(value) -> bool:
    """The one rule for seconds and milliseconds: an int or float, not a bool, within the
    float range.  NaN, +-inf and ints past the largest float fail, none with OverflowError."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return number and abs(value) <= sys.float_info.max


@dataclass(frozen=True, slots=True)
class Segment:
    """Half-open time interval [start, end) of the source audio.

    kept == False marks audio a filtering strategy discards (non-speech
    under vad_merge); every other strategy keeps the whole timeline.
    """

    start: float
    end: float
    kept: bool = True

    def __post_init__(self) -> None:
        if not 0 <= self.start < self.end:
            raise ValueError(f"invalid segment [{self.start}, {self.end})")

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class HybridParams:
    min_len: float = 17.0
    max_len: float = 20.0
    force_split: bool = False
    juncture_ms: int = 550

    def __post_init__(self) -> None:
        for name in ("min_len", "max_len", "juncture_ms"):  # as a checkpoint's JSON holds them
            if not finite(value := getattr(self, name)):
                raise ValueError(f"{name} must be a finite int or float, got {value!r}")
        if not 0 < self.min_len <= self.max_len:
            raise ValueError(
                f"need 0 < min_len <= max_len, got ({self.min_len}, {self.max_len})"
            )
        if type(self.force_split) is not bool:
            raise ValueError(f"force_split must be True or False, got {self.force_split!r}")
        if self.force_split and self.juncture_ms <= 0:
            raise ValueError("juncture_ms must be positive")

    @property
    def juncture(self) -> float:
        return self.juncture_ms / 1000.0


@dataclass(frozen=True)
class SrpolParams:
    max_len: float = 20.0

    def __post_init__(self) -> None:
        if not (finite(self.max_len) and self.max_len > 0):  # True is not 1 s
            raise ValueError("max_len must be positive and finite")


def segment_fixed(total_duration: float, length: float) -> list[Segment]:
    """Tile [0, total_duration) with `length`-second segments, the last ending
    at total_duration: with no pause, every split is the horizon s + length."""
    if isinstance(length, bool) or not isinstance(length, (int, float)) or not length > 0:
        raise ValueError("length must be positive")
    length = min(length, sys.float_info.max)  # inf cuts nothing, as the largest float does
    return split_to_end([], 0.0, total_duration, HybridParams(length, length))


def segment_vad_merge(track: FrameLabelTrack) -> list[Segment]:
    """Merge consecutive same-label frames into segments.

    Speech runs are kept, non-speech runs are dropped (kept=False); the
    two together tile the full frame timeline.
    """
    from .vad import detect_pauses

    return segment_between(detect_pauses(track), track.duration)


def segment_between(pauses: list[Pause], end: float) -> list[Segment]:
    """Tile [0, end) with `pauses` dropped and the time between them kept:
    :func:`segment_vad_merge` when the pauses are every non-speech run."""
    _check_span(0.0, end)
    _check_inside(pauses, 0.0, end)
    cuts = [0.0, *(t for p in pauses for t in (p.start, p.end)), end]
    return [Segment(a, b, kept=i % 2 == 0) for i, (a, b) in enumerate(zip(cuts, cuts[1:])) if a < b]


def segment_srpol(span: Segment, pauses: list[Pause], params: SrpolParams) -> list[Segment]:
    """Recursive longest-silence bisection of `span`, computed in cut order.

    Stops when a piece is shorter than `max_len` or holds no pause, so a
    piece outlives max_len exactly when it holds no silence.  Needs the
    whole pause inventory: this strategy cannot run on a stream.  A split
    consumes its pause.  Visited longest first, earliest on ties, each pause
    lies between the cuts of exactly its recursion ancestors: every longer or
    earlier equal pause has cut already, and a piece under max_len never grows.
    So the walk ends once no piece is max_len long, whatever pauses remain.
    """
    _check_span(span.start, span.end)
    _check_inside(pauses, span.start, span.end)
    max_len, cuts = params.max_len, [span.start, span.end]
    long = int(span.duration >= max_len)  # pieces of at least max_len: only they take a cut
    for p in sorted(pauses, key=attrgetter("duration"), reverse=True):  # stable: earliest first
        if not long:
            break
        i = bisect_right(cuts, p.start)
        mid = p.start + p.duration / 2
        if cuts[i] - cuts[i - 1] >= max_len and cuts[i - 1] < mid < cuts[i]:
            cuts.insert(i, mid)
            long += (mid - cuts[i - 1] >= max_len) + (cuts[i + 1] - mid >= max_len) - 1
    return [Segment(a, b) for a, b in zip(cuts, cuts[1:])]


def segment_hybrid(pauses: list[Pause], total_duration: float, params: HybridParams) -> list[Segment]:
    """Pause-in-window scan (see module docstring for the exact rule)."""
    return _hybrid_scan(pauses, total_duration, params, "segment_hybrid", False)


def segment_hybrid_force(
    pauses: list[Pause], total_duration: float, params: HybridParams
) -> list[Segment]:
    """Hybrid scan with forced splits at terminal-juncture pauses."""
    return _hybrid_scan(pauses, total_duration, params, "segment_hybrid_force", True)


def _hybrid_scan(
    pauses: list[Pause], total_duration: float, params: HybridParams, name: str, force: bool
) -> list[Segment]:
    if params.force_split != force:
        raise ValueError(f"params.force_split must be {force} for {name}")
    _check_inside(pauses, -math.inf, math.inf)
    return split_to_end(pauses, 0.0, total_duration, params)


def _check_span(start: float, end: float) -> None:  # the one span check of every strategy
    if not 0 <= start <= end < math.inf:  # nan too: a walk to inf never ends
        raise ValueError(f"need 0 <= start <= end < inf, got [{start}, {end})")


def _check_inside(pauses: list[Pause], start: float, end: float) -> None:
    for a, b in zip(pauses, pauses[1:]):
        if b.start < a.end:
            raise ValueError("pauses must be sorted and disjoint")
    if pauses and (pauses[0].start < start or pauses[-1].end > end):
        raise ValueError(f"pauses [{pauses[0].start}, {pauses[-1].end}) outside span")


def effective_duration(pause: Pause, horizon: float) -> float:
    """Extent of `pause` credited within the current scan window."""
    if pause.end >= horizon:
        return horizon - pause.start
    return pause.duration


def split_until(
    pauses: list[Pause],
    start: float,
    now: float,
    params: HybridParams,
    open_start: float | None = None,
) -> list[Segment]:
    """Every segment from `start` whose boundary the audio up to `now` settles.

    `pauses` have closed by `now`.  One walk per segment visits the pauses
    starting in [s, horizon) in order: in force mode it stops at the first
    juncture, and it keeps the longest pause of the min/max window.  Once
    `now` reaches the horizon, a pause still open since `open_start` is its
    last candidate, credited up to the horizon like any pause that reaches
    it: the horizon truncates it, so its final length cannot matter.
    """
    min_len, max_len, force = params.min_len, params.max_len, params.force_split
    juncture = params.juncture  # a property that divides
    starts = [p.start for p in pauses]
    n = len(pauses)
    out = []
    s, first = start, 0
    while True:
        horizon = s + max_len
        b, best_eff, settled = horizon, 0.0, now >= horizon
        first = bisect_left(starts, s, first)  # s never falls, so neither does the cursor
        walk = first
        if not force:  # skip to the window: only force mode credits pauses before it
            walk = bisect_left(starts, s + min_len, first)
            while walk > first and starts[walk - 1] - s >= min_len:  # s + min_len rounded up
                walk -= 1
        for i in range(walk, n + 1):
            if i < n:
                a = starts[i]
                if a >= horizon:
                    break
                eff = effective_duration(pauses[i], horizon)
            elif settled and open_start is not None and s <= open_start < horizon:
                a, eff = open_start, horizon - open_start  # the run reaches the horizon
            else:
                break
            if force and eff >= juncture:
                b, settled = a + eff / 2, True
                break
            # a < fl(s + max_len) gives a - s <= max_len in floats too, and s + min_len
            # rounded down can start the plain walk on a pause before the window
            if a - s >= min_len and eff > best_eff:
                b, best_eff = a + eff / 2, eff
        if not settled:
            return out
        out.append(Segment(s, b))
        s = b


def split_to_end(
    pauses: list[Pause], start: float, end: float, params: HybridParams
) -> list[Segment]:
    """Tile [start, end) with the settled splits plus the remainder segment."""
    _check_span(start, end)
    out = split_until(pauses, start, end, params)
    s = out[-1].end if out else start
    if end > s:
        out.append(Segment(s, end))
    return out
