import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest

from pausecut import (
    FrameLabelTrack,
    HybridParams,
    Pause,
    Segment,
    SrpolParams,
    segment_fixed,
    segment_hybrid,
    segment_hybrid_force,
    segment_srpol,
    segment_vad_merge,
)
from pausecut.audio import frame_time
from pausecut import segmenters
from pausecut.segmenters import effective_duration, segment_between, split_until

from conftest import random_pauses
from oracles import (
    ref_fixed, ref_hybrid, ref_hybrid_force, ref_rle_runs, ref_split_until, ref_srpol,
)


def assert_tiles(segments, total):
    """Sorted, adjacent ends/starts identical, covering [0, total) exactly."""
    assert segments, f"no segments for total={total}"
    assert segments[0].start == 0.0
    for a, b in zip(segments, segments[1:]):
        assert a.end == b.start
    assert segments[-1].end == total


def spans(segments):
    return [(s.start, s.end) for s in segments]


FORCE = HybridParams(17.0, 20.0, True, 550)
PLAIN = HybridParams(17.0, 20.0, False, 550)


class TestFixed:
    def test_basic(self):
        assert spans(segment_fixed(10.0, 4.0)) == [(0.0, 4.0), (4.0, 8.0), (8.0, 10.0)]

    def test_shorter_than_length(self):
        assert spans(segment_fixed(3.0, 20.0)) == [(0.0, 3.0)]

    def test_exact_multiple(self):
        segs = segment_fixed(60.0, 20.0)
        assert spans(segs) == [(0.0, 20.0), (20.0, 40.0), (40.0, 60.0)]

    def test_empty(self):
        assert segment_fixed(0.0, 20.0) == []

    def test_keeps_everything(self):
        assert all(s.kept for s in segment_fixed(45.0, 7.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            segment_fixed(10.0, 0.0)
        with pytest.raises(ValueError):
            segment_fixed(-1.0, 5.0)

    def test_nan_length_refused(self):
        for length in (math.nan, True, "5"):
            with pytest.raises(ValueError, match="length must be positive"):
                segment_fixed(10.0, length)

    def test_tiling_and_bound(self, rng):
        for _ in range(50):
            total = float(rng.uniform(0.1, 200))
            length = float(rng.uniform(0.5, 30))
            segs = segment_fixed(total, length)
            assert_tiles(segs, total)
            for s in segs:
                assert s.end <= s.start + length


    def test_equals_running_sum_tiling(self, rng):
        # 10,000+ cases, compared bit for bit with the running-sum tiling
        cases = [
            (float(rng.uniform(0, 200)), float(10 ** rng.uniform(-0.5, 2.5)))
            for _ in range(6000)
        ]
        for _ in range(1000):  # exact multiples built by repeated addition, and their neighbours
            length, total = float(10 ** rng.uniform(-1, 1.5)), 0.0
            for _ in range(int(rng.integers(0, 60))):
                total += length
            cases += [(total, length), (math.nextafter(total, 0), length)]
            cases.append((math.nextafter(total, math.inf), length))
        for _ in range(1000):
            length = float(rng.uniform(0.1, 30))
            cases += [(0.0, length), (length * float(rng.uniform(0, 1)), length)]
            cases.append((float(rng.uniform(0, 1e6)), math.inf))
        assert len(cases) >= 10_000
        for total, length in cases:
            got = [(s.start.hex(), s.end.hex()) for s in segment_fixed(total, length)]
            assert got == [(a.hex(), b.hex()) for a, b in ref_fixed(total, length)], (total, length)


class TestVadMerge:
    def test_all_speech(self):
        t = FrameLabelTrack.from_label_line("S" * 10, 20)
        assert spans(segment_vad_merge(t)) == [(0.0, 0.2)]

    def test_alternating(self):
        t = FrameLabelTrack.from_label_line("SNNS", 20)
        segs = segment_vad_merge(t)
        assert [(s.start, s.end, s.kept) for s in segs] == [
            (0.0, 0.02, True),
            (0.02, 0.06, False),
            (0.06, 0.08, True),
        ]

    def test_empty_track(self):
        assert segment_vad_merge(FrameLabelTrack(np.zeros(0, dtype=bool), 20)) == []

    def test_against_rle_oracle(self, rng):
        labels = rng.random(500) < 0.5
        t = FrameLabelTrack(labels, 20)
        segs = segment_vad_merge(t)
        expect = [
            (a * 20 / 1000.0, b * 20 / 1000.0, lab) for a, b, lab in ref_rle_runs(labels.tolist())
        ]
        assert [(s.start, s.end, s.kept) for s in segs] == expect
        assert_tiles(segs, t.duration)

    @pytest.mark.parametrize(
        "pauses, end, message",
        [
            ([Pause.at(5.0, 2.0)], 6.0, r"pauses \[5.0, 7.0\) outside span"),
            ([Pause.at(-1.0, 2.0)], 6.0, r"pauses \[-1.0, 1.0\) outside span"),
            ([Pause.at(3.0, 2.0), Pause.at(1.0, 1.0)], 10.0, "pauses must be sorted and disjoint"),
            ([Pause.at(1.0, 2.0), Pause.at(2.5, 1.0)], 10.0, "pauses must be sorted and disjoint"),
        ],
        ids=["past-end", "before-zero", "unsorted", "overlapping"],
    )
    def test_between_refuses_pauses_that_cannot_tile(self, pauses, end, message):
        # without the check these gave a dropped piece past the end, or pieces that overlap
        with pytest.raises(ValueError, match=message):
            segment_between(pauses, end)

    def test_between_accepts_pauses_that_touch_both_ends(self):
        got = segment_between([Pause.at(0.0, 1.0), Pause.at(3.0, 2.0)], 5.0)
        assert [(s.start, s.end, s.kept) for s in got] == [(0.0, 1.0, False), (1.0, 3.0, True), (3.0, 5.0, False)]


class TestSpanCheck:
    """fixed and both hybrid scans share one check: 0 <= total < inf."""

    @pytest.mark.parametrize("total", [math.inf, math.nan, -1.0], ids=["inf", "nan", "negative"])
    @pytest.mark.parametrize(
        "scan",
        [
            lambda total: segment_fixed(total, 20.0),
            lambda total: segment_hybrid([], total, PLAIN),
            lambda total: segment_hybrid_force([], total, FORCE),
            lambda total: segment_hybrid_force([Pause.at(1.0, 0.6)], total, FORCE),
        ],
        ids=["fixed", "hybrid", "hybrid-force", "hybrid-force-paused"],
    )
    def test_refused(self, scan, total):
        with pytest.raises(ValueError, match=r"need 0 <= start <= end < inf"):
            scan(total)

    def test_largest_finite_total_accepted(self):
        assert spans(segment_fixed(1e308, 1e308)) == [(0.0, 1e308)]


class TestSrpol:
    def test_recursive_split(self):
        # longest pause wins; both halves fall under the threshold and stop
        span = Segment(0.0, 30.0)
        pauses = [Pause.at(12.0, 0.5), Pause.at(22.0, 0.3)]
        got = segment_srpol(span, pauses, SrpolParams(20.0))
        assert spans(got) == [(0.0, 12.25), (12.25, 30.0)]

    def test_below_threshold_is_single(self):
        span = Segment(0.0, 15.0)
        got = segment_srpol(span, [Pause.at(5.0, 1.0)], SrpolParams(20.0))
        assert spans(got) == [(0.0, 15.0)]

    def test_no_pauses_can_exceed_threshold(self):
        got = segment_srpol(Segment(0.0, 50.0), [], SrpolParams(20.0))
        assert spans(got) == [(0.0, 50.0)]

    def test_tie_breaks_earliest(self):
        span = Segment(0.0, 40.0)
        pauses = [Pause.at(10.0, 0.5), Pause.at(30.0, 0.5)]
        got = segment_srpol(span, pauses, SrpolParams(20.0))
        assert got[0].end == 10.25

    @pytest.mark.parametrize(
        "max_len", [0.0, -1.0, math.nan, math.inf, True, "5", pytest.param(10**400, id="int-past-float")]
    )
    def test_non_positive_max_len_rejected(self, max_len):
        with pytest.raises(ValueError, match="max_len must be positive"):
            SrpolParams(max_len)

    def test_pause_outside_span_rejected(self):
        with pytest.raises(ValueError, match="outside span"):
            segment_srpol(Segment(0.0, 10.0), [Pause.at(9.5, 1.0)], SrpolParams(20.0))

    def test_against_recursive_oracle(self, rng):
        for _ in range(300):
            total = float(rng.uniform(1.0, 300.0))
            pauses = random_pauses(rng, total)
            max_len = float(rng.uniform(5.0, 40.0))
            got = spans(segment_srpol(Segment(0.0, total), pauses, SrpolParams(max_len)))
            assert got == ref_srpol(0.0, total, pauses, max_len)

    def test_long_segments_hold_no_internal_pause(self, rng):
        for _ in range(200):
            total = float(rng.uniform(30.0, 300.0))
            pauses = random_pauses(rng, total)
            params = SrpolParams(float(rng.uniform(5.0, 25.0)))
            segs = segment_srpol(Segment(0.0, total), pauses, params)
            assert_tiles(segs, total)
            for s in segs:
                if s.duration > params.max_len:
                    inside = [p for p in pauses if p.start >= s.start and p.end <= s.end]
                    assert inside == []

    def test_frame_grid_ties_match_recursive_oracle(self, rng):
        """Few distinct pause lengths, so ties decide most splits, and
        pauses that touch the span's start or end."""
        touch_start = touch_end = tied_splits = 0
        for _ in range(5000):
            frame_ms = int(rng.choice([10, 20, 30]))
            n = int(rng.integers(0, 40))
            lengths = rng.choice(rng.integers(1, 25, size=int(rng.integers(1, 4))), size=n)
            gaps = rng.integers(1, 60, size=n + 1)  # speech frames around the pauses
            if n and rng.random() < 0.5:
                gaps[0] = 0  # a pause at the span start
            if n and rng.random() < 0.5:
                gaps[-1] = 0  # a pause at the span end
            pauses, i = [], 0
            for gap, length in zip(gaps.tolist(), lengths.tolist()):
                pauses.append(Pause.from_frames(i + gap, i + gap + length - 1, frame_ms))
                i += gap + length
            total = frame_time(i + int(gaps[-1]), frame_ms)
            if rng.random() < 0.5:  # a max_len that some piece meets exactly
                max_len = frame_time(int(rng.integers(1, 300)), frame_ms)
            else:
                max_len = float(rng.uniform(0.05, 30.0))
            got = spans(segment_srpol(Segment(0.0, total), pauses, SrpolParams(max_len)))
            assert got == ref_srpol(0.0, total, pauses, max_len)
            touch_start += bool(pauses) and pauses[0].start == 0.0
            touch_end += bool(pauses) and pauses[-1].end == total
            cut_lengths = [p.duration for p in pauses if p.start + p.duration / 2 in {a for a, _ in got}]
            tied_splits += len(cut_lengths) > len(set(cut_lengths))
        assert min(touch_start, touch_end, tied_splits) >= 1000

    def test_equal_pauses_split_without_recursion(self):
        # Equal pauses split earliest first, so a recursion would nest one
        # level per pause; the cut-order pass handles any number.
        n = 5000
        pauses = [Pause.from_frames(50 * k + 40, 50 * k + 49, 20) for k in range(n)]
        got = segment_srpol(Segment(0.0, float(n)), pauses, SrpolParams(0.5))
        assert len(got) == n + 1
        assert [s.end for s in got[:-1]] == [p.start + p.duration / 2 for p in pauses]
        assert_tiles(got, float(n))

    def test_pause_whose_midpoint_rounds_to_its_start(self):
        # start + ulp/2 rounds back to start: the split lands on the pause's
        # start, and the pause is not offered again to the piece after it.
        start = 12345.678
        pause = Pause.at(start, math.ulp(start))
        assert pause.start + pause.duration / 2 == start
        got = segment_srpol(Segment(0.0, 2 * start), [pause], SrpolParams(20.0))
        assert spans(got) == [(0.0, start), (start, 2 * start)]

    @staticmethod
    def _visits(monkeypatch) -> list[float]:
        """The start of every pause segment_srpol visits: it bisects its cuts once for each."""
        seen, bisect_right = [], segmenters.bisect_right
        monkeypatch.setattr(segmenters, "bisect_right", lambda a, x: seen.append(x) or bisect_right(a, x))
        return seen

    def test_stops_once_no_piece_can_take_a_cut(self, monkeypatch):
        # The three longest pauses leave four pieces under max_len; the
        # short pauses after them in cut order are never visited.
        span, params = Segment(0.0, 50.0), SrpolParams(20.0)
        pauses = [Pause.at(5.0, 0.1), Pause.at(12.0, 0.8), Pause.at(24.5, 1.0), Pause.at(30.0, 0.1),
                  Pause.at(37.0, 0.6), Pause.at(45.0, 0.1)]
        visits = self._visits(monkeypatch)
        got = spans(segment_srpol(span, pauses, params))
        assert got == ref_srpol(0.0, 50.0, pauses, 20.0) == [(0.0, 12.4), (12.4, 25.0), (25.0, 37.3), (37.3, 50.0)]
        assert visits == [24.5, 12.0, 37.0]

    def test_stop_matches_oracle_while_short_pauses_remain(self, rng, monkeypatch):
        visits, stopped = self._visits(monkeypatch), 0
        for _ in range(300):
            total = float(rng.uniform(20.0, 300.0))
            pauses = random_pauses(rng, total, max_pauses=80)
            max_len = float(rng.uniform(total / 10, total / 2))
            visits.clear()
            got = spans(segment_srpol(Segment(0.0, total), pauses, SrpolParams(max_len)))
            assert got == ref_srpol(0.0, total, pauses, max_len)
            if len(visits) < len(pauses):  # stopped early: no piece is left to cut
                assert all(b - a < max_len for a, b in got)
                stopped += 1
        assert 100 <= stopped <= 250

    def test_pause_free_stretch_keeps_every_pause_in_play(self, rng, monkeypatch):
        # [40, 100) holds no pause, so one piece stays at least max_len long
        # and every pause is visited, down to the shortest.
        visits = self._visits(monkeypatch)
        for _ in range(100):
            pauses = random_pauses(rng, 40.0, max_pauses=30, max_dur=0.5)
            max_len = float(rng.uniform(2.0, 20.0))
            visits.clear()
            got = spans(segment_srpol(Segment(0.0, 100.0), pauses, SrpolParams(max_len)))
            assert got == ref_srpol(0.0, 100.0, pauses, max_len)
            assert sorted(visits) == [p.start for p in pauses]
            assert got[-1][1] - got[-1][0] >= 60.0

    @pytest.mark.parametrize("total, visited", [(19.75, False), (20.0, True)])
    def test_span_under_max_len_visits_no_pause(self, total, visited, monkeypatch):
        pauses = [Pause.at(2.0, 0.5), Pause.at(9.0, 1.0), Pause.at(15.0, 0.25)]
        visits = self._visits(monkeypatch)
        got = spans(segment_srpol(Segment(0.0, total), pauses, SrpolParams(20.0)))
        assert got == ref_srpol(0.0, total, pauses, 20.0)
        assert visits == ([9.0] if visited else [])  # a span of exactly max_len takes one cut

    def test_pause_whose_midpoint_rounds_to_its_start_keeps_its_piece_open(self):
        # `first` is visited while [64, 100) is the one long piece, and its
        # midpoint is the piece's start: it cuts nothing, the piece stays
        # long, and `second` still cuts it.  The recursion would offer
        # `first` to the same piece forever, so the oracle runs without it.
        first, second = Pause.at(64.0, math.ulp(64.0)), Pause.at(82.0, math.ulp(64.0))
        assert first.start + first.duration / 2 == first.start
        got = spans(segment_srpol(Segment(64.0, 100.0), [first, second], SrpolParams(20.0)))
        assert got == ref_srpol(64.0, 100.0, [second], 20.0) == [(64.0, 82.0), (82.0, 100.0)]

    def test_sub_ulp_pauses_agree_wherever_the_recursion_returns(self, rng):
        """Pauses a few ulps long, whose midpoint may round onto an end.

        There the recursion offers the split pause again, so it builds an
        empty piece or never ends; the cut order still tiles the span.
        Everywhere else the two agree exactly."""
        agreed = diverged = 0
        for _ in range(1000):
            total = float(rng.uniform(1e3, 1e5))
            starts = sorted(set(rng.uniform(0.0, total * 0.99, size=int(rng.integers(1, 8))).tolist()))
            if rng.random() < 0.2:
                starts[0] = 0.0
            pauses = [Pause.at(a, math.ulp(a) * int(rng.integers(1, 4))) for a in starts]
            max_len = float(rng.uniform(1.0, total / 2))
            got = spans(segment_srpol(Segment(0.0, total), pauses, SrpolParams(max_len)))
            try:
                want = ref_srpol(0.0, total, pauses, max_len)
            except RecursionError:
                want = None
            if want is not None and all(a < b for a, b in want):
                assert got == want
                agreed += 1
            else:
                assert got[0][0] == 0.0 and got[-1][1] == total
                assert all(a < b for a, b in got) and all(x[1] == y[0] for x, y in zip(got, got[1:]))
                diverged += 1
        assert min(agreed, diverged) >= 200


class TestHybrid:
    def test_window_scan(self):
        # window [17, 20] from 0 holds the pauses at 18 and 19; the longest
        # (0.6 s at 19) splits at its midpoint, then no pause falls in the
        # next window, then the remainder
        pauses = [Pause.at(5.0, 0.3), Pause.at(18.0, 0.4), Pause.at(19.0, 0.6)]
        got = segment_hybrid(pauses, 40.0, PLAIN)
        assert spans(got) == [(0.0, 19.3), (19.3, 39.3), (39.3, 40.0)]

    def test_short_audio_single_segment(self):
        assert spans(segment_hybrid([Pause.at(7.0, 0.8)], 10.0, PLAIN)) == [(0.0, 10.0)]

    def test_no_pauses_degenerates_to_fixed(self):
        assert spans(segment_hybrid([], 40.0, PLAIN)) == [(0.0, 20.0), (20.0, 40.0)]

    def test_tie_breaks_earliest(self):
        pauses = [Pause.at(17.5, 0.5), Pause.at(19.0, 0.5)]
        got = segment_hybrid(pauses, 25.0, PLAIN)
        assert got[0].end == 17.75

    def test_window_inclusive_at_min_len(self):
        got = segment_hybrid([Pause.at(17.0, 0.4)], 30.0, PLAIN)
        assert got[0].end == 17.2

    def test_pause_straddling_horizon_credited_up_to_it(self):
        # effective duration is clipped at the horizon, so a long straddling
        # pause is split inside its in-window part
        pauses = [Pause.at(19.0, 4.0)]
        got = segment_hybrid(pauses, 40.0, PLAIN)
        assert got[0].end == 19.0 + (20.0 - 19.0) / 2

    def test_rejects_force_params(self):
        with pytest.raises(ValueError, match="force_split"):
            segment_hybrid([], 10.0, FORCE)
        with pytest.raises(ValueError, match="force_split"):
            segment_hybrid_force([], 10.0, PLAIN)

    def test_rejects_unsorted_pauses(self):
        with pytest.raises(ValueError, match="sorted"):
            segment_hybrid([Pause.at(19.0, 0.6), Pause.at(5.0, 0.3)], 40.0, PLAIN)

    @pytest.mark.parametrize("force", [False, True], ids=["plain", "force"])
    @pytest.mark.parametrize(
        "field, value",
        [("min_len", math.nan), ("max_len", math.inf), ("max_len", math.nan),
         ("juncture_ms", math.inf), ("juncture_ms", math.nan)]
        + [pytest.param(field, 10**400, id=f"{field}-int-past-float")
           for field in ("min_len", "max_len", "juncture_ms")],
    )
    def test_non_finite_params_refused(self, force, field, value):
        # a non-finite length or juncture cuts nothing, and strict JSON cannot hold it
        with pytest.raises(ValueError, match=f"{field} must be a finite int or float"):
            HybridParams(**{"min_len": 1.0, "max_len": 20.0, "force_split": force, field: value})

    def test_keeps_everything(self):
        pauses = [Pause.at(18.0, 1.0)]
        assert all(s.kept for s in segment_hybrid(pauses, 60.0, PLAIN))


class TestHybridForce:
    def test_forced_split_before_window(self):
        got = segment_hybrid_force([Pause.at(10.0, 0.6)], 40.0, FORCE)
        assert spans(got) == [(0.0, 10.3), (10.3, 30.3), (30.3, 40.0)]

    def test_below_juncture_not_forced(self):
        got = segment_hybrid_force([Pause.at(10.0, 0.5)], 40.0, FORCE)
        assert spans(got) == [(0.0, 20.0), (20.0, 40.0)]

    def test_no_pauses_identical_to_hybrid(self):
        assert spans(segment_hybrid_force([], 47.0, FORCE)) == spans(
            segment_hybrid([], 47.0, PLAIN)
        )

    def test_forces_inside_tail(self):
        got = segment_hybrid_force([Pause.at(25.0, 0.8)], 30.0, FORCE)
        assert spans(got) == [(0.0, 20.0), (20.0, 25.4), (25.4, 30.0)]

    def test_juncture_pause_always_hosts_boundary(self, rng):
        for _ in range(200):
            total = float(rng.uniform(5.0, 300.0))
            pauses = random_pauses(rng, total)
            got = segment_hybrid_force(pauses, total, FORCE)
            boundaries = [s.end for s in got[:-1]]
            for p in pauses:
                if p.duration >= FORCE.juncture:
                    assert any(p.start <= b <= p.end for b in boundaries), (
                        f"juncture pause at {p.start} has no boundary"
                    )


class TestHybridOracleAndInvariants:
    def _random_params(self, rng, force):
        min_len = float(rng.uniform(0.5, 20.0))
        max_len = min_len + float(rng.uniform(0.0, 15.0))
        return HybridParams(min_len, max_len, force, int(rng.integers(100, 1500)))

    def test_matches_reference_scan(self, rng):
        for _ in range(500):
            total = float(rng.uniform(0.5, 300.0))
            pauses = random_pauses(rng, total)
            plain = self._random_params(rng, False)
            force = HybridParams(plain.min_len, plain.max_len, True, plain.juncture_ms)
            assert spans(segment_hybrid(pauses, total, plain)) == ref_hybrid(
                pauses, total, plain
            )
            assert spans(segment_hybrid_force(pauses, total, force)) == ref_hybrid_force(
                pauses, total, force
            )

    def test_tiling_and_length_bound(self, rng):
        for _ in range(300):
            total = float(rng.uniform(0.5, 300.0))
            pauses = random_pauses(rng, total)
            for params, fn in ((PLAIN, segment_hybrid), (FORCE, segment_hybrid_force)):
                segs = fn(pauses, total, params)
                assert_tiles(segs, total)
                for s in segs:
                    # float-faithful form of duration <= max_len: the end
                    # never passes the horizon computed from the start
                    assert s.end <= s.start + params.max_len

    def test_boundary_validity(self, rng):
        # every non-final boundary is either inside the longest eligible
        # pause of its window, or the horizon itself with no eligible pause
        for _ in range(200):
            total = float(rng.uniform(0.5, 300.0))
            pauses = random_pauses(rng, total)
            segs = segment_hybrid(pauses, total, PLAIN)
            for seg in segs[:-1]:
                s, b = seg.start, seg.end
                horizon = s + PLAIN.max_len
                window = [
                    p
                    for p in pauses
                    if PLAIN.min_len <= p.start - s <= PLAIN.max_len and p.start < horizon
                ]
                if not window:
                    assert b == horizon
                else:
                    best_eff = max(effective_duration(p, horizon) for p in window)
                    host = [p for p in window if p.start <= b <= p.end]
                    assert host and effective_duration(host[0], horizon) == best_eff

    def test_split_until_matches_two_walk_oracle(self, rng):
        seen = dict.fromkeys(
            ["open before start", "open at or past horizon", "credit == juncture",
             "min_len == max_len", "straddles horizon"], 0
        )
        for _ in range(10_000):
            pauses, start, now, params, open_start = random_split_case(rng)
            got = spans(split_until(pauses, start, now, params, open_start))
            assert got == ref_split_until(pauses, start, now, params, open_start)
            h = start + params.max_len
            opened = open_start is not None and now >= h
            credits = [effective_duration(p, h) for p in pauses if start <= p.start < h]
            credits += [h - open_start] if opened and start <= open_start < h else []
            seen["open before start"] += open_start is not None and open_start < start
            seen["open at or past horizon"] += open_start is not None and open_start >= h
            seen["credit == juncture"] += params.force_split and params.juncture in credits
            seen["min_len == max_len"] += params.min_len == params.max_len
            seen["straddles horizon"] += any(p.start < h <= p.end for p in pauses) or (
                opened and open_start < h
            )
        assert min(seen.values()) >= 200, seen

    def test_window_start_under_rounding(self, rng):
        """The plain walk starts at a bisect to s + min_len, which rounds: a pause
        a few ulps either side of it opens the window exactly when a - s >= min_len."""
        seen = {"in, below s + min_len": 0, "out, at or above s + min_len": 0}
        for _ in range(4000):
            min_len = float(rng.uniform(0.5, 30))
            if rng.random() < 0.5:
                s = float(np.exp(rng.uniform(-7, 8.5)))
            else:  # s + min_len halfway between two floats: a ulp below it may round up
                s = math.ulp(min_len) * (int(rng.integers(0, 64)) + 0.5)
            params = HybridParams(min_len, min_len + float(rng.uniform(0, 3)))
            edge = a = s + min_len
            for _ in range(int(rng.integers(0, 5))):
                a = math.nextafter(a, -math.inf)
            for _ in range(int(rng.integers(0, 5))):
                a = math.nextafter(a, math.inf)
            pauses = [Pause.at(s / 2, s / 4), Pause.at(a, 0.25)][int(rng.integers(2)):]
            now = s + params.max_len + 1.0
            got = spans(split_until(pauses, s, now, params))
            assert got == ref_split_until(pauses, s, now, params), (s, min_len, a)
            seen["in, below s + min_len"] += a < edge and a - s >= min_len
            seen["out, at or above s + min_len"] += a >= edge and a - s < min_len
        assert min(seen.values()) >= 40, seen

    def test_split_until_cursor_matches_two_walk_oracle(self, rng):
        """Calls that settle many segments from one start list, with pauses
        before `start` and a run open at each edge of the first window."""
        seen = dict.fromkeys(["pauses before start", "first pause at or after start", "10+ segments",
                              *(f"open {edge}" for edge in _OPEN_EDGES)], 0)
        for _ in range(3000):
            pauses, start, now, params, open_start, edge = cursor_case(rng)
            got = spans(split_until(pauses, start, now, params, open_start))
            assert got == ref_split_until(pauses, start, now, params, open_start)
            seen["pauses before start"] += bool(pauses) and pauses[0].start < start
            seen["first pause at or after start"] += bool(pauses) and pauses[0].start >= start
            seen["10+ segments"] += len(got) >= 10
            seen[f"open {edge}"] += 1
        assert min(seen.values()) >= 200, seen

    def test_mean_lengths_on_dense_pause_corpus(self, rng):
        # dense terminal junctures: forced splitting drags the mean far
        # below the window start, the plain scan stays at or above it
        pauses, t = [], 0.0
        while t < 2400.0:
            t += float(rng.uniform(2.0, 8.0))
            pauses.append(Pause.at(t, float(rng.uniform(0.55, 1.2))))
            t = pauses[-1].end
        total = pauses[-1].end + 1.0
        plain_segs = segment_hybrid(pauses, total, PLAIN)
        force_segs = segment_hybrid_force(pauses, total, FORCE)
        plain_mean = total / len(plain_segs)
        force_mean = total / len(force_segs)
        assert PLAIN.min_len <= plain_mean <= PLAIN.max_len
        assert force_mean < FORCE.min_len


def random_split_case(rng):
    """`split_until` arguments as the streaming engine passes them.

    Closed pauses are sorted, disjoint and end by `now`, and at least one
    tick before a still-open run.  Times lie on a 1/32 s grid, where every
    credit and juncture is exact, or on a 10/20/30 ms frame grid.  The
    segment start is a grid point or the middle of a pause or of the run.
    """
    fm = int(rng.choice([0, 10, 20, 30]))
    if fm:
        jt = int(rng.integers(1, 40))  # juncture, in ticks
        tick, juncture_ms = (lambda k: frame_time(k, fm)), jt * fm
    else:
        jt = int(rng.choice([4, 8, 16, 32]))
        tick, juncture_ms = (lambda k: k / 32), jt * 1000 // 32
    mt = int(rng.integers(2, 200))  # max_len, in ticks
    lt = mt if rng.random() < 0.25 else int(rng.integers(1, mt + 1))
    params = HybridParams(tick(lt), tick(mt), bool(rng.random() < 0.5), juncture_ms)
    now_t = int(rng.integers(1, 5 * mt))
    open_t = int(rng.integers(0, now_t)) if rng.random() < 0.7 else None
    last = now_t if open_t is None else open_t - 1  # closed pauses end by then
    pauses, k = [], int(rng.integers(0, mt))
    while True:
        d = jt if rng.random() < 0.3 else int(rng.integers(1, 3 * jt + 1))
        if k + d > last:
            break
        pauses.append(Pause.from_frames(k, k + d - 1, fm) if fm else Pause.at(k / 32, d / 32))
        k += d + int(rng.integers(1, mt // 2 + 2))
    now = tick(now_t)
    open_start = None if open_t is None else tick(open_t)
    mids = [p.start + p.duration / 2 for p in pauses]
    mids += [] if open_start is None else [open_start + (now - open_start) / 2]
    pick = rng.random()
    if pick < 0.4 or not mids:
        start = tick(int(rng.integers(0, now_t + 1)))
    else:
        start = mids[int(rng.integers(0, len(mids)))] if pick < 0.7 else mids[-1]
    return pauses, start, now, params, open_start


_OPEN_EDGES = ("none", "before start", "at start", "inside", "at min_len", "at max_len", "later")


def cursor_case(rng):
    """`split_until` arguments on a 1/32 s grid, where every sum is exact.

    `now` lies up to 20 windows past `start`, and the closed pauses begin
    at it or up to 3 windows before it.  The open run, when there is one, starts
    before `start`, at an edge of the first window or inside it, or later;
    the last item names which.
    """
    mt = int(rng.integers(2, 100))  # max_len, in ticks
    lt = mt if rng.random() < 0.25 else int(rng.integers(1, mt + 1))
    jt = int(rng.choice([4, 8, 16, 32]))  # juncture, in ticks
    params = HybridParams(lt / 32, mt / 32, bool(rng.random() < 0.5), jt * 1000 // 32)
    start_t = int(rng.integers(0, 4 * mt))
    now_t = start_t + int(rng.integers(0, 20 * mt))
    edge = _OPEN_EDGES[int(rng.integers(0, len(_OPEN_EDGES)))]
    open_t = {
        "none": None,
        "before start": int(rng.integers(0, start_t + 1)) - 1,
        "at start": start_t,
        "inside": start_t + int(rng.integers(0, mt)),
        "at min_len": start_t + lt,
        "at max_len": start_t + mt,
        "later": start_t + int(rng.integers(mt, 20 * mt + 1)),
    }[edge]
    if open_t is not None:
        open_t = max(open_t, 0)
        now_t = max(now_t, open_t + 1)
    last = now_t if open_t is None else open_t - 1  # closed pauses end by then
    back = int(rng.integers(0, 3 * mt + 1)) if rng.random() < 0.7 else 0
    pauses, k = [], max(start_t - back, 0)
    while True:
        d = jt if rng.random() < 0.3 else int(rng.integers(1, 3 * jt + 1))
        if k + d > last:
            break
        pauses.append(Pause.at(k / 32, d / 32))
        k += d + int(rng.integers(1, mt // 2 + 2))
    return pauses, start_t / 32, now_t / 32, params, None if open_t is None else open_t / 32, edge


_RECORDS = [
    (Segment(1.0, 2.5), "Segment(start=1.0, end=2.5, kept=True)"),
    (Segment(0.0, 3.0, False), "Segment(start=0.0, end=3.0, kept=False)"),
    (Pause.at(1.0, 0.5), "Pause(start=1.0, duration=0.5, end=1.5, frame_span=None)"),
    (Pause.from_frames(3, 7, 20), "Pause(start=0.06, duration=0.1, end=0.16, frame_span=(3, 7))"),
]


@pytest.mark.parametrize("record, text", _RECORDS, ids=lambda x: x if isinstance(x, str) else "")
class TestSlottedRecords:
    """Segment and Pause keep a frozen dataclass's contract with slots."""

    def test_frozen(self, record, text):
        for f in dataclasses.fields(record):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, f.name, getattr(record, f.name))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(record, f.name)
        # a new attribute has no slot; which error says so depends on the Python version
        with pytest.raises((AttributeError, TypeError)):
            record.note = "x"
        assert not hasattr(record, "__dict__")

    def test_dataclass_functions(self, record, text):
        values = dataclasses.astuple(record)
        names = {Segment: ("start", "end", "kept"), Pause: ("start", "duration", "end", "frame_span")}[type(record)]
        assert tuple(f.name for f in dataclasses.fields(record)) == names
        assert dataclasses.asdict(record) == dict(zip(names, values))
        assert repr(record) == text
        twin = type(record)(*values)
        assert twin == record and hash(twin) == hash(record) == hash(values)
        assert dataclasses.replace(record) == record
        moved = dataclasses.replace(record, end=record.end + 1.0)
        assert moved != record and dataclasses.asdict(moved) == {**dict(zip(names, values)), "end": record.end + 1.0}

    def test_copies_round_trip(self, record, text):
        copies = [copy.copy(record), copy.deepcopy(record)]
        copies += [pickle.loads(pickle.dumps(record, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in copies:
            assert type(twin) is type(record) and twin == record and repr(twin) == text


class TestSegmentType:
    def test_validation(self):
        with pytest.raises(ValueError):
            Segment(5.0, 5.0)
        with pytest.raises(ValueError):
            Segment(-1.0, 5.0)

    def test_invalid_span_message(self):
        with pytest.raises(ValueError, match=r"^invalid segment \[2.0, 1.0\)$"):
            Segment(2.0, 1.0)
        with pytest.raises(ValueError, match=r"^invalid segment \[1.0, 1.0\)$"):
            Segment(start=1.0, end=1.0, kept=False)
        with pytest.raises(ValueError, match=r"^invalid segment \[0.5, 0.25\)$"):
            dataclasses.replace(Segment(0.5, 1.0), end=0.25)

    def test_duration(self):
        assert Segment(1.0, 3.5).duration == 2.5
