"""Straightforward reference implementations used as test oracles.

Each function restates its rule as plainly as possible, independent of
the library's scan/recursion structure, so agreement is meaningful.
The arithmetic expressions (e.g. midpoint = start + effective/2) match
the library's documented formulas so comparisons can be exact.
"""

import math
from bisect import bisect_left

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from pausecut import Pause, VadConfig
from pausecut.vad import (
    COLD_START_EPS,
    FLOOR_MAX,
    FLOOR_MIN,
    FLOOR_QUANTILE,
    FLOOR_WINDOW,
)


def ref_effective(p: Pause, horizon: float) -> float:
    return (horizon - p.start) if p.end >= horizon else p.duration


def ref_fixed(total, length):
    """Running-sum tiling: cut at 0 + L, then + L again, until the total."""
    out, b = [], 0.0
    while b + length < total:
        out.append((b, b + length))
        b += length
    if total > b:
        out.append((b, total))
    return out


def ref_hybrid(pauses, total, params):
    """Reference pause-in-window scan; returns (start, end) tuples."""
    out = []
    s = 0.0
    while total >= s + params.max_len:
        h = s + params.max_len
        window = [
            p
            for p in pauses
            if params.min_len <= p.start - s <= params.max_len and p.start < h
        ]
        if window:
            best = window[0]
            for p in window[1:]:
                if ref_effective(p, h) > ref_effective(best, h):
                    best = p
            b = best.start + ref_effective(best, h) / 2
        else:
            b = h
        out.append((s, b))
        s = b
    if total > s:
        out.append((s, total))
    return out


def ref_hybrid_force(pauses, total, params):
    """Reference forced-split scan; returns (start, end) tuples."""
    out = []
    s = 0.0
    while s < total:
        h = s + params.max_len
        forced = None
        for p in pauses:
            if s <= p.start < h and ref_effective(p, h) >= params.juncture:
                forced = p
                break
        if forced is not None:
            b = forced.start + ref_effective(forced, h) / 2
        elif total >= h:
            window = [
                p
                for p in pauses
                if params.min_len <= p.start - s <= params.max_len and p.start < h
            ]
            if window:
                best = window[0]
                for p in window[1:]:
                    if ref_effective(p, h) > ref_effective(best, h):
                        best = p
                b = best.start + ref_effective(best, h) / 2
            else:
                b = h
        else:
            out.append((s, total))
            break
        out.append((s, b))
        s = b
    return out


def ref_split_until(pauses, start, now, params, open_start=None):
    """The settled hybrid splits as two walks per segment; (start, end) tuples.

    A juncture walk (force mode) runs first, then, at the horizon, a window
    walk.  A run still open since `open_start` joins the pauses at the
    horizon as a pause ending at `now`.  Assumes `pauses` sorted, disjoint
    and ending before `open_start`.
    """
    out = []
    s = start
    while True:
        h = s + params.max_len
        at_horizon = now >= h
        known = pauses
        if at_horizon and open_start is not None:
            known = pauses + [Pause(open_start, now - open_start, now)]
        first = bisect_left(known, s, key=lambda p: p.start)
        b = None
        if params.force_split:
            for p in known[first:]:
                if p.start >= h:
                    break
                if ref_effective(p, h) >= params.juncture:
                    b = p.start + ref_effective(p, h) / 2
                    break
        if b is None:
            if not at_horizon:
                return out
            best, best_eff = None, 0.0
            for p in known[first:]:
                off = p.start - s
                if off < params.min_len:
                    continue
                if off > params.max_len or p.start >= h:
                    break
                if ref_effective(p, h) > best_eff:
                    best, best_eff = p, ref_effective(p, h)
            b = h if best is None else best.start + best_eff / 2
        out.append((s, b))
        s = b


def ref_srpol(start: float, end: float, pauses, max_len: float):
    """Reference recursive longest-silence bisection."""
    if end - start < max_len or not pauses:
        return [(start, end)]
    best = pauses[0]
    for p in pauses[1:]:
        if p.duration > best.duration:
            best = p
    mid = best.start + best.duration / 2
    left = [p for p in pauses if p.end <= mid]
    right = [p for p in pauses if p.start >= mid]
    return ref_srpol(start, mid, left, max_len) + ref_srpol(mid, end, right, max_len)


def ref_pause_runs(labels, frame_ms: int, min_pause_ms: int):
    """Brute-force scan for maximal non-speech runs of sufficient length."""
    runs = []
    n = len(labels)
    i = 0
    while i < n:
        if not labels[i]:
            j = i
            while j < n and not labels[j]:
                j += 1
            if (j - i) * frame_ms >= min_pause_ms:
                runs.append((i, j - 1))
            i = j
        else:
            i += 1
    return runs


def ref_rle_runs(labels):
    """(start_frame, end_frame_exclusive, label) for each maximal run."""
    out = []
    n = len(labels)
    i = 0
    while i < n:
        j = i
        while j < n and labels[j] == labels[i]:
            j += 1
        out.append((i, j, bool(labels[i])))
        i = j
    return out


def ref_optimal_boundary_hits(hyp, ref, tolerance: float) -> int:
    """Maximum one-to-one matching via DP over the sorted boundary lists."""
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def best(i: int, j: int) -> int:
        if i == len(hyp) or j == len(ref):
            return 0
        score = max(best(i + 1, j), best(i, j + 1))
        if abs(hyp[i] - ref[j]) <= tolerance:
            score = max(score, 1 + best(i + 1, j + 1))
        return score

    return best(0, 0)


def ref_length_histogram(segments, bin_width: float) -> list[int]:
    """Grow the list of bins whenever a kept segment lands past its end."""
    bins: list[int] = []
    for s in segments:
        if not s.kept:
            continue
        k = math.floor(s.duration / bin_width)
        if k >= len(bins):
            bins.extend([0] * (k + 1 - len(bins)))
        bins[k] += 1
    return bins


def ref_noise_floors(energies: np.ndarray) -> np.ndarray:
    """The clamped floor at each frame, from fully sorted windows."""
    floors = np.minimum.accumulate(energies) + COLD_START_EPS  # cold start
    if len(energies) >= FLOOR_WINDOW:
        ranked = np.sort(sliding_window_view(energies, FLOOR_WINDOW), axis=1)
        pos = FLOOR_QUANTILE * (FLOOR_WINDOW - 1)
        lo = int(pos)
        frac = pos - lo
        floors[FLOOR_WINDOW - 1 :] = ranked[:, lo] + (ranked[:, lo + 1] - ranked[:, lo]) * frac
    return np.minimum(np.maximum(floors, FLOOR_MIN), FLOOR_MAX)


def ref_vad_labels(energies, config: VadConfig) -> list[bool]:
    """Naive restatement of the documented threshold/hangover rules."""
    seen: list[float] = []
    labels = []
    hang = 0
    for e in energies:
        seen.append(e)
        window = sorted(seen[-FLOOR_WINDOW:])
        if len(window) < FLOOR_WINDOW:
            estimate = min(window) + COLD_START_EPS
        else:
            pos = FLOOR_QUANTILE * (len(window) - 1)
            lo = int(pos)
            frac = pos - lo
            if frac == 0.0 or lo + 1 >= len(window):
                estimate = window[lo]
            else:
                estimate = window[lo] + (window[lo + 1] - window[lo]) * frac
        floor = min(max(estimate, FLOOR_MIN), FLOOR_MAX)
        if e > floor * config.multiplier:
            hang = config.hangover
            labels.append(True)
        elif hang > 0:
            hang -= 1
            labels.append(True)
        else:
            labels.append(False)
    return labels
