import math

import numpy as np
import pytest

from pausecut import (
    HybridParams,
    Segment,
    boundary_prf,
    compute_stats,
    format_stats_table,
    length_histogram,
    segment_fixed,
    segment_hybrid,
)
from pausecut.metrics import SegStats, internal_boundaries, stats_rows, stats_to_json

from conftest import random_pauses
from oracles import ref_length_histogram, ref_optimal_boundary_hits


class TestComputeStats:
    def test_mixed_tiling(self):
        segs = [Segment(0, 6), Segment(6, 8, kept=False), Segment(8, 10)]
        st = compute_stats(segs, 10.0)
        assert st.pct_filtered == 20.0
        assert st.num_segments == 2
        assert (st.max_len, st.min_len, st.avg_len) == (6.0, 2.0, 4.0)

    def test_single_segment(self):
        st = compute_stats([Segment(0, 10)], 10.0)
        assert (st.pct_filtered, st.num_segments) == (0.0, 1)
        assert st.max_len == st.min_len == st.avg_len == 10.0

    def test_empty_kept_set(self):
        st = compute_stats([Segment(0, 4, kept=False)], 4.0)
        assert st.num_segments == 0
        assert st.max_len is None and st.min_len is None and st.avg_len is None

    def test_zero_duration(self):
        st = compute_stats([], 0.0)
        assert st.pct_filtered == 0.0 and st.num_segments == 0

    def test_fixed_invariants(self):
        for total, length in ((10.0, 4.0), (60.0, 20.0), (7.5, 2.5), (100.0, 19.0)):
            st = compute_stats(segment_fixed(total, length), total)
            assert st.num_segments == math.ceil(total / length)
            assert st.pct_filtered == 0.0
            assert st.max_len == min(length, total)

    def test_hybrid_bound(self, rng):
        params = HybridParams()
        for _ in range(50):
            total = float(rng.uniform(1.0, 300.0))
            segs = segment_hybrid(random_pauses(rng, total), total, params)
            st = compute_stats(segs, total)
            # durations inherit one rounding of start + max_len, hence the hair
            assert st.max_len <= params.max_len + 1e-9


class TestStatsFormatting:
    MANUAL = SegStats(14.66, 2574, 51.97, 0.05, 5.82)

    def test_table_row_labels_and_values(self):
        rows = stats_rows(self.MANUAL)
        assert [r[0] for r in rows] == [
            "% filtered",
            "Num segm.",
            "Max len (s)",
            "Min len (s)",
            "Avg len (s)",
        ]
        assert [r[1] for r in rows] == ["14.66", "2,574", "51.97", "0.05", "5.82"]

    def test_table_render(self):
        text = format_stats_table({"manual": self.MANUAL})
        assert "% filtered" in text and "14.66" in text and "2,574" in text

    def test_absent_fields_render_as_dash(self):
        text = format_stats_table({"x": SegStats(0.0, 0, None, None, None)})
        assert "-" in text

    def test_json(self):
        import json

        data = json.loads(stats_to_json(self.MANUAL))
        assert data["num_segments"] == 2574
        assert data["pct_filtered"] == 14.66


class TestBoundaryPrf:
    def test_identical(self):
        segs = segment_fixed(50.0, 12.0)
        score = boundary_prf(segs, segs, 0.01)
        assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)

    def test_no_hypothesis_boundaries(self):
        hyp = [Segment(0, 40)]
        ref = segment_fixed(40.0, 10.0)
        score = boundary_prf(hyp, ref, 1.0)
        assert score.recall == 0.0 and score.f1 == 0.0

    def test_greedy_matching_example(self):
        hyp = [Segment(0, 10.0), Segment(10.0, 20.1), Segment(20.1, 30.0)]
        ref = [Segment(0, 10.3), Segment(10.3, 25.0), Segment(25.0, 30.0)]
        score = boundary_prf(hyp, ref, 0.5)
        assert (score.precision, score.recall, score.f1) == (0.5, 0.5, 0.5)
        # exhaustive matching agrees on this instance
        assert ref_optimal_boundary_hits((10.0, 20.1), (10.3, 25.0), 0.5) == 1

    def test_symmetry(self, rng):
        for _ in range(20):
            a = segment_fixed(float(rng.uniform(20, 100)), float(rng.uniform(3, 15)))
            b = segment_fixed(a[-1].end, float(rng.uniform(3, 15)))
            tol = float(rng.uniform(0.0, 1.0))
            ab = boundary_prf(a, b, tol)
            ba = boundary_prf(b, a, tol)
            assert ab.precision == ba.recall and ab.recall == ba.precision
            assert ab.f1 == ba.f1

    def test_greedy_optimal_at_realistic_densities(self, rng):
        # boundaries separated by more than twice the tolerance: greedy
        # one-to-one matching cannot lose to the exhaustive matcher
        for _ in range(30):
            tol = 0.5
            hyp = sorted(float(x) for x in np.cumsum(rng.uniform(1.5, 8.0, 20)))
            ref = sorted(float(x) for x in np.cumsum(rng.uniform(1.5, 8.0, 20)))
            total = max(hyp[-1], ref[-1]) + 5.0
            hyp_segs = _tiles_from_boundaries(hyp, total)
            ref_segs = _tiles_from_boundaries(ref, total)
            score = boundary_prf(hyp_segs, ref_segs, tol)
            hits = round(score.precision * len(hyp))
            assert hits == ref_optimal_boundary_hits(tuple(hyp), tuple(ref), tol)

    @pytest.mark.parametrize(
        "tolerance",
        [math.nan, math.inf, -math.inf, -0.1, 10**400, True, "0.5", None],
        ids=["nan", "inf", "minus-inf", "negative", "int-past-float", "bool", "str", "none"],
    )
    def test_tolerance_must_be_finite_and_non_negative(self, tolerance):
        segs = segment_fixed(50.0, 12.0)
        with pytest.raises(ValueError, match="^tolerance must be finite and non-negative, got "):
            boundary_prf(segs, segs, tolerance)

    def test_internal_boundaries(self):
        segs = [Segment(0, 4), Segment(4, 8), Segment(8, 10)]
        assert internal_boundaries(segs) == [4, 8]


def _tiles_from_boundaries(boundaries, total):
    edges = [0.0, *boundaries, total]
    return [Segment(a, b) for a, b in zip(edges, edges[1:])]


class TestLengthHistogram:
    def test_example(self):
        segs = [Segment(0, 4), Segment(10, 14), Segment(20, 39)]
        assert length_histogram(segs, 5.0) == [2, 0, 0, 1]

    def test_empty(self):
        assert length_histogram([], 5.0) == []

    def test_ignores_dropped(self):
        segs = [Segment(0, 4), Segment(4, 8, kept=False)]
        assert length_histogram(segs, 5.0) == [1]

    def test_total_count(self, rng):
        segs = []
        t = 0.0
        for _ in range(1000):
            d = float(rng.uniform(0.1, 30.0))
            segs.append(Segment(t, t + d))
            t += d
        assert sum(length_histogram(segs, 2.0)) == 1000

    def test_matches_growing_list(self, rng):
        shapes = {"empty": 0, "all dropped": 0, "on a bin edge": 0}
        for _ in range(10_000):
            width = float(rng.choice([0.25, 0.5, 1.0, 2.0, 5.0, rng.uniform(0.05, 10.0)]))
            keep = float(rng.choice([0.0, 0.5, 1.0]))
            segs = []
            for _ in range(int(rng.integers(0, 12))):
                start = float(rng.integers(0, 100))
                d = rng.uniform(0.01, 30.0) if rng.random() < 0.5 else width * rng.integers(1, 8)
                segs.append(Segment(start, start + float(d), kept=bool(rng.random() < keep)))
                shapes["on a bin edge"] += (segs[-1].duration / width).is_integer()
            shapes["empty"] += not segs
            shapes["all dropped"] += bool(segs) and not any(s.kept for s in segs)
            assert length_histogram(segs, width) == ref_length_histogram(segs, width)
        assert min(shapes.values()) > 100, shapes

    def test_validation(self):
        with pytest.raises(ValueError):
            length_histogram([], 0.0)

    @pytest.mark.parametrize("segs", [[], [Segment(0, 4)]], ids=["empty", "one"])
    def test_nan_width_refused(self, segs):
        with pytest.raises(ValueError, match="bin_width must be positive"):
            length_histogram(segs, math.nan)
