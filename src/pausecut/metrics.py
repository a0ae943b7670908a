"""Segmentation statistics and model-free comparison.

`compute_stats` reproduces the summary rows used to characterize a
segmentation (share of discarded audio, segment count, min/max/mean
length).  `boundary_prf` scores how well two segmentations of the same
audio agree on split points, as a precision/recall proxy that needs no
downstream model.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import asdict, dataclass

from .segmenters import Segment, finite

STATS_ROW_LABELS = ("% filtered", "Num segm.", "Max len (s)", "Min len (s)", "Avg len (s)")


@dataclass(frozen=True)
class SegStats:
    """Summary of one segmentation.  Length fields are None when no
    segment is kept."""

    pct_filtered: float
    num_segments: int
    max_len: float | None
    min_len: float | None
    avg_len: float | None


@dataclass(frozen=True)
class BoundaryScore:
    precision: float
    recall: float
    f1: float
    tolerance: float


def compute_stats(segments: list[Segment], total_duration: float) -> SegStats:
    """Stats over the kept segments of a tiling of [0, total_duration).

    Values keep full precision; rounding happens at display time only.
    """
    dropped = sum(s.duration for s in segments if not s.kept)
    pct = 100.0 * dropped / total_duration if total_duration > 0 else 0.0
    lengths = [s.duration for s in segments if s.kept]
    if not lengths:
        return SegStats(pct, 0, None, None, None)
    return SegStats(pct, len(lengths), max(lengths), min(lengths), sum(lengths) / len(lengths))


def internal_boundaries(segments: list[Segment]) -> list[float]:
    """Cut points between tiles: every segment end except the last."""
    tiles = sorted(segments, key=lambda s: s.start)
    return [s.end for s in tiles[:-1]]


def boundary_prf(
    hypothesis: list[Segment], reference: list[Segment], tolerance: float
) -> BoundaryScore:
    """Greedy one-to-one boundary matching within `tolerance` seconds.

    Both inputs must tile the same duration (normalize gapped manifests
    first).  Matching walks both sorted boundary lists in time order;
    greedy is not guaranteed optimal, but the test suite checks it
    against an exhaustive matcher on realistic densities.  Degenerate
    empty sides score 1.0 so identical segmentations always get F1 = 1.
    """
    if not (finite(tolerance) and tolerance >= 0):  # nan matches nothing
        raise ValueError(f"tolerance must be finite and non-negative, got {tolerance}")
    hyp = internal_boundaries(hypothesis)
    ref = internal_boundaries(reference)
    hits = 0
    i = j = 0
    while i < len(hyp) and j < len(ref):
        if abs(hyp[i] - ref[j]) <= tolerance:
            hits += 1
            i += 1
            j += 1
        elif hyp[i] < ref[j]:
            i += 1
        else:
            j += 1
    precision = hits / len(hyp) if hyp else 1.0
    recall = hits / len(ref) if ref else 1.0
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return BoundaryScore(precision, recall, f1, tolerance)


def length_histogram(segments: list[Segment], bin_width: float) -> list[int]:
    """Counts of kept segments per duration bin [k*w, (k+1)*w)."""
    if not bin_width > 0:  # nan too
        raise ValueError("bin_width must be positive")
    counts = Counter(math.floor(s.duration / bin_width) for s in segments if s.kept)
    return [counts[k] for k in range(max(counts, default=-1) + 1)]


def _fmt(value: float | None) -> str:
    return "-" if value is None else f"{value:.2f}"


def stats_rows(stats: SegStats) -> list[tuple[str, str]]:
    """(label, value) pairs with the two-decimal display convention."""
    values = (_fmt(stats.pct_filtered), f"{stats.num_segments:,}",
              _fmt(stats.max_len), _fmt(stats.min_len), _fmt(stats.avg_len))
    return list(zip(STATS_ROW_LABELS, values))


def format_stats_table(columns: dict[str, SegStats]) -> str:
    """Aligned text table; one column per named segmentation."""
    names = list(columns)
    rows = {name: dict(stats_rows(st)) for name, st in columns.items()}
    label_w = max(len(lbl) for lbl in STATS_ROW_LABELS)
    widths = {n: max(len(n), *(len(rows[n][lbl]) for lbl in STATS_ROW_LABELS)) for n in names}
    lines = ["  ".join([" " * label_w] + [n.rjust(widths[n]) for n in names]).rstrip()]
    for lbl in STATS_ROW_LABELS:
        lines.append("  ".join([lbl.ljust(label_w)] + [rows[n][lbl].rjust(widths[n]) for n in names]))
    return "\n".join(lines)


def stats_to_json(stats: SegStats) -> str:
    return json.dumps(asdict(stats), sort_keys=True)
