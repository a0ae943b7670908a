import functools
import itertools
import json
import math
import os
import re
import stat
import sys
import time

import numpy as np
import pytest
import yaml

from pausecut import HybridParams, Segment, SrpolParams, compute_stats, manifest
from pausecut import segment_fixed, segment_hybrid, segment_hybrid_force, segment_srpol
from pausecut.manifest import (
    SEAM_TOLERANCE,
    ManifestEntry,
    ManifestError,
    coverage_end,
    entries_to_segments,
    parse_manifest,
    read_manifest,
    render_manifest,
    segments_to_entries,
    write_manifest,
)

from conftest import random_pauses


def entries3():
    return [
        ManifestEntry("a.wav", 0.0, 6.0),
        ManifestEntry("a.wav", 6.0, 2.0, dropped=True),
        ManifestEntry("a.wav", 8.0, 2.0),
    ]


class TestRender:
    def test_yaml_deterministic(self):
        header = {"strategy": "hybrid", "max_len": 20.0}
        a = render_manifest(entries3(), header)
        b = render_manifest(entries3(), header)
        assert a == b

    def test_yaml_shape(self):
        text = render_manifest([ManifestEntry("t.wav", 0.0, 19.3)], {"strategy": "hybrid"})
        assert "# pausecut manifest v1" in text
        assert "# strategy: hybrid" in text
        assert "- {wav: t.wav, offset: 0.000000, duration: 19.300000}" in text

    def test_yaml_dropped_key(self):
        text = render_manifest([ManifestEntry("t.wav", 1.0, 2.0, dropped=True)], {})
        assert "dropped: true" in text

    def test_empty_manifest(self):
        text = render_manifest([], {"strategy": "fixed"})
        entries, header = parse_manifest(text)
        assert entries == [] and header["strategy"] == "fixed"

    def test_yaml_roundtrip(self):
        text = render_manifest(entries3(), {"total_duration": "10.000000"})
        entries, header = parse_manifest(text)
        assert entries == entries3()
        assert header["total_duration"] == "10.000000"

    def test_jsonl_roundtrip(self):
        text = render_manifest(entries3(), {"strategy": "vad"}, fmt="jsonl")
        assert text.splitlines()[0].startswith("{")
        entries, header = parse_manifest(text)
        assert entries == entries3()
        assert header["strategy"] == "vad"

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="format"):
            render_manifest([], {}, fmt="xml")


class TestParseErrors:
    def test_invalid_yaml(self):
        with pytest.raises(ManifestError):
            parse_manifest("- {wav: a, offset: [}")

    def test_non_list(self):
        with pytest.raises(ManifestError, match="list"):
            parse_manifest("wav: a.wav")

    def test_missing_key(self):
        with pytest.raises(ManifestError, match="missing key"):
            parse_manifest("- {wav: a.wav, offset: 0.0}")

    def test_bad_jsonl(self):
        with pytest.raises(ManifestError, match="line 2"):
            parse_manifest('{"pausecut_manifest": 1, "config": {}}\n{nope}\n')


class TestSegmentsToEntries:
    def test_drops_non_kept_by_default(self):
        segs = [Segment(0, 1), Segment(1, 2, kept=False), Segment(2, 3)]
        entries = segments_to_entries(segs, "x.wav")
        assert [e.offset for e in entries] == [0.0, 2.0]

    def test_emit_dropped(self):
        segs = [Segment(0, 1), Segment(1, 2, kept=False)]
        entries = segments_to_entries(segs, "x.wav", emit_dropped=True)
        assert [e.dropped for e in entries] == [False, True]

    def test_clamps_padded_tail(self):
        # frame timeline overruns the true clip end by part of a frame
        segs = [Segment(0.0, 0.02)]
        entries = segments_to_entries(segs, "x.wav", clip_duration=0.005)
        assert entries == [ManifestEntry("x.wav", 0.0, 0.005)]

    def test_drops_segments_past_clip_end(self):
        segs = [Segment(0.0, 1.0), Segment(1.0, 1.02)]
        entries = segments_to_entries(segs, "x.wav", clip_duration=1.0)
        assert [e.duration for e in entries] == [1.0]

    @pytest.mark.parametrize("emit_dropped", [False, True])
    def test_last_segment_written_as_zero_seconds_dropped(self, emit_dropped):
        segs = [Segment(0.0, 0.5), Segment(0.5, 0.9999996, kept=False), Segment(0.9999996, 1.0)]
        entries = segments_to_entries(segs, "x.wav", 1.0, emit_dropped)
        assert [e.offset for e in entries] == [0.0, 0.5][: 1 + emit_dropped]
        with pytest.raises(ValueError, match=r"^segment \[0\.5, 0\.5000004\) rounds to a 0 s"):
            segments_to_entries([Segment(0.0, 0.5), Segment(0.5, 0.5000004), Segment(0.5000004, 1.0)], "x.wav")

    @pytest.mark.parametrize("at", [1, 1022, 1023, 1024, 3000])
    def test_refuses_what_six_decimals_overlap(self, at):
        # entry `at` is [a - 4e-7, a + 1e-3 + 2e-7), written as ending 1e-6 past
        # its true end; the next, 1e-6 s long, is written as starting 2e-7 before
        # it and reads as ending where entry `at` ended, wherever `at` falls; a
        # last one ends inside the seam tolerance of the total and is dropped
        cuts = [k / 1000 for k in range(at)] + [at / 1000 - 4e-7, (at + 1) / 1000 + 2e-7]
        segs = [Segment(a, b) for a, b in zip(cuts, cuts[1:])]
        entries = segments_to_entries(segs, "x.wav")
        assert len(entries) == at + 1
        segs.append(Segment(cuts[-1], cuts[-1] + 1e-6))
        assert segments_to_entries(segs, "x.wav") == entries
        segs.append(Segment(cuts[-1] + 1e-6, cuts[-1] + 1.0))
        with pytest.raises(ValueError, match=f"^overlapping segments at offset {cuts[-1]:.6f}$"):
            segments_to_entries(segs, "x.wav")

    @pytest.mark.parametrize("emit_dropped", [False, True])
    def test_writer_accepts_exactly_what_the_reader_reads(self, rng, emit_dropped):
        # random tilings with microsecond segments and cuts near six-decimal
        # ties, some past 1,024 and 2,048 entries: the writer refuses a tiling
        # exactly when the reader refuses the same entries written unchecked
        # (the last segment's entry left out where it rounds to 0 s or to an end
        # at or before the previous entry's), and the reader's pieces are the
        # written segments to six decimals, bar snapped seams
        refused = {"overlapping": 0, "segment": 0}
        for count in [*rng.integers(1, 60, 40), 1023, 1025, 2047, 2049, 2300] * 2:
            micro = rng.choice([0.0, 0.003, 0.2])  # share of microsecond segments
            cuts = [0.0]
            for u in rng.random(int(count)):
                step = rng.uniform(1e-7, 4e-6) if u < micro else rng.uniform(1e-5, 2.0)
                cut = cuts[-1] + float(step)
                if u > 0.75:  # near a tie: half a microsecond past six decimals
                    cut = math.floor(cut * 1e6) / 1e6 + 5e-7 + float(rng.uniform(-2e-9, 2e-9))
                cuts.append(max(cut, math.nextafter(cuts[-1], math.inf)))
            segs = [Segment(a, b, kept=bool(rng.random() < 0.7)) for a, b in zip(cuts, cuts[1:])]
            total = cuts[-1]
            unchecked = [ManifestEntry("a.wav", s.start, s.duration, not s.kept)
                         for s in segs if s.kept or emit_dropped]
            ends = [round(e.offset, 6) + round(e.duration, 6) for e in unchecked[-2:]]
            if (segs[-1].kept or emit_dropped) and (not round(unchecked[-1].duration, 6)
                                                    or len(ends) == 2 and ends[1] <= ends[0]):
                unchecked.pop()
            try:
                entries = segments_to_entries(segs, "a.wav", total, emit_dropped)
            except ValueError as exc:
                assert re.match(r"overlapping segments at|segment \[.*\) rounds to a 0 s", str(exc))
                refused[str(exc).split()[0]] += 1
                entries = None
            for fmt in ("yaml", "jsonl"):
                text = render_manifest(entries if entries is not None else unchecked, {}, fmt)
                try:
                    pieces = entries_to_segments(parse_manifest(text)[0], float(f"{total:.6f}"))
                except ManifestError:
                    pieces = None
                assert (entries is None) == (pieces is None), (count, fmt)
            if entries is None:
                continue
            assert entries == unchecked
            kept = [p for p in pieces if p.kept]
            written = [e for e in entries if not e.dropped]
            assert len(kept) == len(written)
            for p, e in zip(kept, written):
                # a start snaps to the previous end across a dropped seam
                assert abs(p.start - e.offset) <= SEAM_TOLERANCE + 1e-6
                assert abs(p.end - e.end) <= 1.5e-6
            if emit_dropped:
                assert [p.kept for p in pieces] == [not e.dropped for e in entries]
        assert min(refused.values()) > 0 and sum(refused.values()) < 60, refused


class TestNormalization:
    def test_gap_fill(self):
        entries = [ManifestEntry("a", 1.0, 2.0), ManifestEntry("a", 5.0, 1.0)]
        segs = entries_to_segments(entries, 8.0)
        assert [(s.start, s.end, s.kept) for s in segs] == [
            (0.0, 1.0, False),
            (1.0, 3.0, True),
            (3.0, 5.0, False),
            (5.0, 6.0, True),
            (6.0, 8.0, False),
        ]

    def test_seam_snapping(self):
        # six-decimal rounding can leave microsecond seams; they are not gaps
        entries = [ManifestEntry("a", 0.0, 1.000001), ManifestEntry("a", 1.0, 1.0)]
        segs = entries_to_segments(entries)
        assert len(segs) == 2
        assert segs[0].end == segs[1].start

    def test_tail_inside_seam_tolerance_is_contiguous(self):
        entries = [ManifestEntry("a", 0.0, 1.0), ManifestEntry("a", 1.0, 1.0)]
        assert entries_to_segments(entries, 2.000001) == entries_to_segments(entries)

    @pytest.mark.parametrize("fmt", ["yaml", "jsonl"])
    def test_whole_tiling_filters_nothing(self, rng, fmt):
        # a written entry ends at offset + duration, which can fall an ulp short
        # of the header's six-decimal total (28.0 + 2.027125 < 30.027125);
        # that sliver is no dropped audio
        for n in range(480_000, 480_000 + 572 * 7, 7):
            total = n / 16000
            pauses = random_pauses(rng, total)
            tilings = [
                segment_fixed(total, 7.0),
                segment_hybrid(pauses, total, HybridParams(5.0, 7.0)),
                segment_hybrid_force(pauses, total, HybridParams(5.0, 7.0, True, 550)),
                segment_srpol(Segment(0.0, total), pauses, SrpolParams(7.0)),
            ]
            for segments in tilings:
                header = {"total_duration": f"{total:.6f}"}
                text = render_manifest(segments_to_entries(segments, "a.wav", total), header, fmt)
                entries, header = parse_manifest(text)
                written = float(header["total_duration"])
                stats = compute_stats(entries_to_segments(entries, written), written)
                assert stats.pct_filtered == 0.0, (n, segments)

    def test_total_short_of_the_last_end_rejected(self):
        entries = entries3()
        for total in (10.0, 10.0 - 9e-6, 12.0):
            assert entries_to_segments(entries, total)[-1].end == max(total, 10.0)
        for total in (10.0 - 1.1e-5, 5.0, -1.0):
            with pytest.raises(ManifestError, match=r"^total_duration must be non-negative and "
                               r"cover the manifest's 10\.000000s, got "):
                entries_to_segments(entries, total)
        with pytest.raises(ManifestError, match="^total_duration must be non-negative"):
            entries_to_segments([], -1.0)
        assert entries_to_segments([], 0.0) == []

    @pytest.mark.parametrize("total", [math.inf, -math.inf, math.nan])
    def test_non_finite_total_rejected(self, total):
        with pytest.raises(ManifestError, match=f"^total_duration must be finite, got {total}$"):
            entries_to_segments(entries3(), total)

    @pytest.mark.parametrize("spans", [[(1e308, 1e308)], [(0.0, 1e308), (1e308, 1e308)]])
    def test_end_past_the_float_range_rejected(self, spans):
        entries = [ManifestEntry("a.wav", offset, duration) for offset, duration in spans]
        with pytest.raises(ManifestError, match=r"^non-finite end in record at offset 1e\+308$"):
            entries_to_segments(entries)
        with pytest.raises(ValueError, match=r"^non-finite end in record at offset 1e\+308$"):
            segments_to_entries([Segment(0.0, 1e308), Segment(1e308, math.inf)], "a.wav")

    def test_overlap_rejected(self):
        entries = [ManifestEntry("a", 0.0, 2.0), ManifestEntry("a", 1.0, 2.0)]
        with pytest.raises(ManifestError, match="overlap"):
            entries_to_segments(entries)

    def test_bad_duration_rejected(self):
        with pytest.raises(ManifestError, match="duration"):
            entries_to_segments([ManifestEntry("a", 0.0, 0.0)])

    def test_coverage_end(self):
        assert coverage_end(entries3()) == 10.0
        assert coverage_end([]) == 0.0


class TestWrite:
    def test_atomic_write(self, tmp_path):
        path = tmp_path / "m.yaml"
        write_manifest(path, entries3(), {"strategy": "vad"})
        entries, header = read_manifest(path)
        assert entries == entries3()
        assert header["strategy"] == "vad"
        leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".manifest-")]
        assert leftovers == []

    @pytest.fixture
    def umask(self):
        old = os.umask(0o027)
        yield
        os.umask(old)

    def test_new_file_gets_a_plain_writes_mode(self, tmp_path, umask):
        plain = tmp_path / "plain.yaml"
        with open(plain, "w", encoding="utf-8"):
            pass
        path = tmp_path / "m.yaml"
        write_manifest(path, entries3())
        assert stat.S_IMODE(path.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode) == 0o640

    def test_replaced_file_keeps_its_mode(self, tmp_path, umask):
        path = tmp_path / "m.yaml"
        path.write_text("[]\n", encoding="utf-8")
        path.chmod(0o664)
        write_manifest(path, entries3())
        assert stat.S_IMODE(path.stat().st_mode) == 0o664
        assert read_manifest(path)[0] == entries3()

    @pytest.mark.parametrize("fmt", ["yaml", "jsonl"])
    def test_byte_order_mark_read(self, tmp_path, fmt):
        path = tmp_path / "m.txt"
        text = render_manifest(entries3(), {"strategy": "vad"}, fmt=fmt)
        path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        assert read_manifest(path) == (entries3(), {"strategy": "vad"})


class TestJsonLines:
    HEAD = '{"config": {}, "pausecut_manifest": 1}'

    @pytest.mark.parametrize("brk", ["\x85", "\u2028", "\u2029"], ids=["NEL", "LS", "PS"])
    def test_unicode_line_breaks_stay_inside_a_record(self, brk):
        record = {"wav": f"a{brk}b.wav", "offset": 0.0, "duration": 1.5}
        text = f"{self.HEAD}\n{json.dumps(record, ensure_ascii=False)}\n"
        assert brk in text
        assert parse_manifest(text) == ([ManifestEntry(f"a{brk}b.wav", 0.0, 1.5)], {})

    def test_crlf_and_blank_lines(self):
        text = render_manifest(entries3(), {"strategy": "vad"}, fmt="jsonl")
        text = "\r\n\r\n".join(text.split("\n")) + " \t\n"
        assert parse_manifest(text) == (entries3(), {"strategy": "vad"})

    def test_error_names_the_line_counting_blank_ones(self):
        record = json.dumps({"wav": "a\u2028b.wav", "offset": 0, "duration": 1}, ensure_ascii=False)
        with pytest.raises(ManifestError, match="invalid JSON on line 5"):
            parse_manifest(f"{self.HEAD}\r\n\r\n{record}\r\n\n{{nope}}\r\n")

    @pytest.mark.parametrize("blank", ["\u2028", "\x85", "\x0c", "\x1c"], ids=["LS", "NEL", "FF", "FS"])
    def test_only_json_whitespace_makes_a_blank_line(self, blank):
        record = json.dumps({"wav": "a.wav", "offset": 0, "duration": 1})
        with pytest.raises(ValueError):
            json.loads(blank)
        with pytest.raises(ManifestError, match="invalid JSON on line 3"):
            parse_manifest(f"{self.HEAD}\n \t\r\n{blank}\n{record}\n")


class TestByteOrderMark:
    @pytest.mark.parametrize("bom", ["", "\ufeff"], ids=["plain", "bom"])
    @pytest.mark.parametrize("lead", ["", "\r\n \n"], ids=["flush", "blank-lines"])
    @pytest.mark.parametrize("fmt", ["yaml", "jsonl"])
    def test_parsed_alike(self, fmt, lead, bom):
        text = render_manifest(entries3(), {"strategy": "vad"}, fmt=fmt)
        assert parse_manifest(bom + lead + text) == (entries3(), {"strategy": "vad"})

    @pytest.mark.parametrize("bom", ["", "\ufeff"], ids=["plain", "bom"])
    def test_yaml_header_on_the_first_line(self, bom):
        assert parse_manifest(f"{bom}# strategy: vad\n[]\n") == ([], {"strategy": "vad"})

    def test_only_one_dropped(self, tmp_path):
        text = "\ufeff\ufeff" + render_manifest(entries3(), fmt="jsonl")
        with pytest.raises(ManifestError):
            parse_manifest(text)
        path = tmp_path / "m.jsonl"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ManifestError):
            read_manifest(path)


# -- YAML loaders and wav-name quoting ----------------------------------------

LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if hasattr(yaml, "CSafeLoader") else [])


@pytest.fixture(params=LOADERS, ids=lambda loader: loader.__name__)
def loader(request, monkeypatch):
    """Parse manifests with each YAML loader PyYAML offers here."""
    monkeypatch.setattr(manifest, "YAML_LOADER", request.param)
    return request.param


UNSAFE_NAMES = [
    "a, b.wav", "yes", "null", "0x1F", "1:30.5", "#1.wav", "x: y.wav", "&a.wav",
    "{x}.wav", " lead.wav", "trail.wav ", "'q'.wav", '"q".wav', "a?b.wav", "-",
    "- x.wav", "a #b.wav", "a:", "~", "=", "<<", "123", "True", "2001-12-14",
    ".inf", "", "tab\t.wav", "line\nbreak.wav", "nel\x85.wav", "back\\slash.wav",
    "bom\ufeff.wav", "ls\u2028.wav", "\x00\x7f", "😀.wav", "café talk.wav", "中文.wav",
]
NAME_CHARS = list("ab01._- ,:#&*!|>'\"%@`?[]{}~=<\\/\t\n\r\x85\xa0\u2028\ufeff") + ["é", "中", "😀"]


def random_names(seed: int, count: int) -> list[str]:
    rng = np.random.default_rng(seed)
    return [
        "".join(rng.choice(NAME_CHARS, size=int(rng.integers(1, 9))))
        for _ in range(count)
    ]


def parse_with_each_loader(text: str, monkeypatch) -> list:
    parsed = []
    for loader in LOADERS:
        monkeypatch.setattr(manifest, "YAML_LOADER", loader)
        parsed.append(parse_manifest(text))
    return parsed


def random_entries(rng: np.random.Generator, names: list[str]) -> list[ManifestEntry]:
    entries = []
    cursor = 0.0
    for _ in range(int(rng.integers(1, 12))):
        cursor += round(float(rng.uniform(0, 2)), 6)
        duration = round(float(rng.uniform(0.01, 20)), 6)
        entries.append(
            ManifestEntry(str(rng.choice(names)), cursor, duration, dropped=bool(rng.random() < 0.3))
        )
        cursor += duration
    return entries


class TestYamlLoader:
    def test_libyaml_loader_chosen_when_built(self):
        # the pure-Python loader is about 6x slower on large manifests
        if not getattr(yaml, "__with_libyaml__", False):
            pytest.skip("PyYAML built without libyaml")
        assert manifest.YAML_LOADER is yaml.CSafeLoader

    def test_loaders_agree_on_rendered_manifests(self, monkeypatch):
        rng = np.random.default_rng(5)
        names = ["talk0.wav", "a.wav"] + UNSAFE_NAMES + random_names(6, 40)
        cases = [render_manifest([], {"strategy": "fixed"})]
        for _ in range(60):
            header = {"strategy": "hybrid", "max_len": "20.0"} if rng.random() < 0.7 else {}
            cases.append(render_manifest(random_entries(rng, names), header))
        for text in cases:
            parsed = parse_with_each_loader(text, monkeypatch)
            assert all(p == parsed[0] for p in parsed), text

    def test_loaders_agree_on_mustc_records(self, monkeypatch):
        text = (
            "# source: MuST-C-style export\n"
            "- {duration: 3.25, offset: 0.5, rW: 8, uW: 0, speaker_id: spk.1, wav: ted_1.wav}\n"
            "- {speaker_id: spk.1, wav: ted_1.wav, duration: 4.0, offset: 3.75, rW: 11, uW: 1}\n"
            "- {uW: 0, rW: 2, offset: 9.0, wav: 'ted 1.wav', duration: 1.5, dropped: yes}\n"
        )
        parsed = parse_with_each_loader(text, monkeypatch)
        assert all(p == parsed[0] for p in parsed)
        entries, header = parsed[0]
        assert header == {"source": "MuST-C-style export"}
        assert entries == [
            ManifestEntry("ted_1.wav", 0.5, 3.25),
            ManifestEntry("ted_1.wav", 3.75, 4.0),
            ManifestEntry("ted 1.wav", 9.0, 1.5, dropped=True),
        ]

    @pytest.mark.parametrize(
        "text, match",
        [
            ("- {wav: a, offset: [}", "invalid YAML"),
            ("wav: a.wav", "list"),
            ("- {wav: a.wav, offset: 0.0}", "missing key"),
            ('{"pausecut_manifest": 1, "config": {}}\n{nope}\n', "line 2"),
            ("- {wav: 'a.wav, offset: 0.0, duration: 1.0}", "invalid YAML"),
            ("- {wav: a.wav, offset: 0.0, duration: 1.0\n", "invalid YAML"),
            ("- {wav: @a.wav, offset: 0.0, duration: 1.0}", "invalid YAML"),
            ("- {wav: *a, offset: 0.0, duration: 1.0}", "invalid YAML"),
            ("- {wav: a.wav, offset: x, duration: 1.0}", "bad manifest record"),
            ("- a.wav\n", "mapping"),
            ("{wav: a.wav, offset: 0.0, duration: 1.0}\n", "invalid JSON"),
            ('{"pausecut_manifest": 1, "config": 5}\n', "config must be a mapping"),
            ('{"pausecut_manifest": 1, "config": {}}\n5\n', "record must be a mapping"),
        ],
        ids=[
            "unclosed-list", "non-list", "missing-key", "bad-jsonl", "unclosed-quote",
            "unclosed-mapping", "reserved-indicator", "undefined-alias", "bad-number",
            "non-mapping-record", "jsonl-looking", "config-not-mapping",
            "jsonl-non-mapping-record",
        ],
    )
    def test_invalid_manifests_raise_under_each_loader(self, loader, text, match):
        with pytest.raises(ManifestError, match=match):
            parse_manifest(text)


class TestWavQuoting:
    def test_names_roundtrip(self, loader):
        rng = np.random.default_rng(7)
        for wav in UNSAFE_NAMES + random_names(8, 400):
            entry = ManifestEntry(
                wav,
                round(float(rng.uniform(0, 3600)), 6),
                round(float(rng.uniform(0.01, 30)), 6),
                dropped=bool(rng.random() < 0.5),
            )
            entries, _ = parse_manifest(render_manifest([entry], {"strategy": "hybrid"}))
            assert entries == [entry], repr(wav)

    def test_unsafe_names_quoted(self):
        text = render_manifest([ManifestEntry("a, b.wav", 0.0, 1.0)])
        assert '- {wav: "a, b.wav", offset: 0.000000' in text

    def test_plain_when_it_reads_back_as_itself(self):
        # manifest bytes stay as they were for every name the unquoted form
        # already gave back as the same string, except names holding a line
        # or paragraph separator, which are quoted as line breaks
        names = ["talk0.wav", "-x.wav", "a#b.wav", "rec_12:30:00.wav", "it's.wav",
                 "café talk.wav", "a  b.wav", "nb\xa0sp.wav"] + random_names(9, 400)
        for wav in [n for n in names if "\u2028" not in n]:
            plain = f"- {{wav: {wav}, offset: 0.000000, duration: 1.000000}}"
            try:
                same = yaml.load(plain, Loader=yaml.SafeLoader) == [
                    {"wav": wav, "offset": 0.0, "duration": 1.0}
                ]
            except yaml.YAMLError:
                same = False
            rendered = render_manifest([ManifestEntry(wav, 0.0, 1.0)]).splitlines()[-1]
            assert (rendered == plain) == same, repr(wav)

    @pytest.mark.parametrize("brk", ["\r", "\n", "\x85", "\u2028", "\u2029"])
    def test_line_breaks_quoted(self, brk):
        # both loaders read a line or paragraph separator back as itself
        # inside a plain scalar, but each record must stay on one line
        text = render_manifest([ManifestEntry(f"a{brk}b.wav", 0.0, 1.0)])
        escaped = brk.encode("unicode_escape").decode("ascii")
        assert text.splitlines()[1:] == [
            f'- {{wav: "a{escaped}b.wav", offset: 0.000000, duration: 1.000000}}'
        ]

    def test_nested_aliases_quoted(self):
        # a name that plain would load as 9**7 shared references; only the
        # record's top level is compared, so the check stays cheap
        levels = ["&a [x,x,x,x,x,x,x,x,x]"] + [
            f"&{name} [{','.join(['*' + prev] * 9)}]" for prev, name in zip("abcdef", "bcdefg")
        ]
        wav = "n, " + ", ".join(f"k{i}: {level}" for i, level in enumerate(levels))
        entry = ManifestEntry(wav, 0.0, 1.0)
        text = render_manifest([entry])
        assert f'- {{wav: "{wav}", offset:' in text
        assert parse_manifest(text)[0] == [entry]

    @pytest.mark.parametrize("order", [1, -1], ids=["pure-first", "libyaml-first"])
    def test_lone_surrogate_quoted(self, monkeypatch, order):
        # os.path.basename of a non-UTF-8 file name holds one; libyaml
        # refuses to encode it, which must mean "quote" in either order
        monkeypatch.setattr(manifest, "_PLAIN_LOADERS", tuple(LOADERS[::order]))
        text = render_manifest([ManifestEntry("\udcff.wav", 0.0, 1.0)])
        line = '- {wav: "\\udcff.wav", offset: 0.000000, duration: 1.000000}'
        assert text.splitlines()[-1] == line
        assert yaml.load(line, Loader=yaml.SafeLoader) == [
            {"wav": "\udcff.wav", "offset": 0.0, "duration": 1.0}
        ]

    def test_bytes_do_not_follow_yaml_loader(self, monkeypatch):
        entries = [ManifestEntry(wav, 0.0, 1.0) for wav in UNSAFE_NAMES]
        rendered = []
        for loader in LOADERS:
            monkeypatch.setattr(manifest, "YAML_LOADER", loader)
            rendered.append(render_manifest(entries))
        assert all(text == rendered[0] for text in rendered)


class TestPlainNameRule:
    """`_PLAIN_NAME` writes a name plain without a read-back, so it must be
    as exact as one: every name it takes reads back as itself."""

    ALPHABET = "0123456789aeExyn_.-"
    # YAML 1.1 spellings of PyYAML's implicit types, and ends a float might take
    SPELLINGS = ["yes", "Yes", "NO", "on", "y", "n", "null", "Null", "~", ".inf", "-.Inf", ".nan",
                 "inf", "NaN", "0x1F", "x1F", "0b101", "017", "0o17", "1_0", "1e5", "e5", "1.5e+3",
                 "E3", "190:20:30", "2001-12-14", "2001-12-14t21:59:43.10-05:00", "<<", "=", "True"]

    @staticmethod
    def assert_read_back(names):
        # one flow sequence per loader: the same flow-context plain scalars as a
        # record's value, thousands of times faster than a document per name
        assert names
        for loader in LOADERS:
            loaded = yaml.load("[" + ", ".join(names) + "]", loader)
            assert len(loaded) == len(names)
            bad = [(wav, got) for wav, got in zip(names, loaded) if got != wav]
            assert not bad, (loader.__name__, bad[:20])
        for wav in names[:: max(1, len(names) // 500)]:  # and some in the record itself
            assert all(manifest._reads_back(wav, loader) for loader in LOADERS), wav

    def test_exhaustive_names_read_back(self):
        names = [
            name for k in range(1, 6) for chars in itertools.product(self.ALPHABET, repeat=k)
            if manifest._PLAIN_NAME.fullmatch(name := "".join(chars))
        ]
        assert len(names) == 97_614
        self.assert_read_back(names)

    def test_names_built_from_yaml_spellings_read_back(self):
        rng = np.random.default_rng(29)
        built = set()
        for _ in range(40_000):  # a fixed count, so a rule that takes too few cannot loop
            parts = rng.choice(self.SPELLINGS, size=int(rng.integers(1, 5)))
            seps = rng.choice([".", "_", "-"], size=len(parts))
            built.add("".join(p + sep for p, sep in zip(parts, seps))[:-1])
        names = sorted(filter(manifest._PLAIN_NAME.fullmatch, built))
        assert 3000 <= len(names) <= len(built) // 2, (len(names), len(built))  # many, not all
        self.assert_read_back(names)

    def test_unsafe_names_rejected(self):
        assert not [n for n in UNSAFE_NAMES if manifest._PLAIN_NAME.fullmatch(n)]

    def test_plain_names_render_without_read_back(self, monkeypatch):
        # 3,544 distinct names each took a read-back of about 0.25 ms
        entries = [ManifestEntry(f"utt_{i}.wav", 1.5 * i, 1.5) for i in range(3544)]
        times = []
        for _ in range(3):
            start = time.perf_counter()
            text = render_manifest(entries)
            times.append(time.perf_counter() - start)
        assert min(times) < 0.05, times
        monkeypatch.setattr(manifest, "_reads_back", None)  # a read-back would raise
        assert render_manifest(entries) == text
        assert parse_manifest(text) == (entries, {})


class TestRecordTypes:
    @pytest.mark.parametrize(
        "text",
        [
            "- {wav: yes, offset: 0.0, duration: 1.0}",
            "- {wav: 0x1F, offset: 0.0, duration: 1.0}",
            "- {wav: null, offset: 0.0, duration: 1.0}",
            "- {wav: 1:30.5, offset: 0.0, duration: 1.0}",
            "- {wav: 007, offset: 0.0, duration: 1.0}",
            "- {wav: 2001-12-14, offset: 0.0, duration: 1.0}",
            "- {wav: [a.wav], offset: 0.0, duration: 1.0}",
            "- {wav: a.wav, offset: .nan, duration: 1.0}",
            "- {wav: a.wav, offset: 0.0, duration: .inf}",
            "- {wav: a.wav, offset: -.inf, duration: 1.0}",
            "- {wav: a.wav, offset: '0.5', duration: 1.0}",
            "- {wav: a.wav, offset: true, duration: 1.0}",
            "- {wav: a.wav, offset: 0.0, duration: null}",
            "- {wav: a.wav, offset: 1" + "0" * 400 + ", duration: 1.0}",
            "- {wav: a.wav, offset: 0.0, duration: 1.0, dropped: 'false'}",
            "- {wav: a.wav, offset: 0.0, duration: 1.0, dropped: 0}",
            "- {wav: a.wav, offset: 0.0, duration: 1.0, dropped: null}",
            '{"wav": "a.wav", "offset": 0.0, "duration": 1.0, "dropped": "false"}',
            '{"wav": 7, "offset": 0.0, "duration": 1.0}',
            '{"wav": "a.wav", "offset": NaN, "duration": 1.0}',
            '{"wav": "a.wav", "offset": 0.0, "duration": Infinity}',
            '{"wav": "a.wav", "offset": 0.0, "duration": 1e999}',
            '{"wav": "a.wav", "offset": "0.0", "duration": 1.0}',
            '{"wav": "a.wav", "offset": false, "duration": 1.0}',
            '{"wav": "a.wav", "offset": 1' + "0" * 400 + ', "duration": 1.0}',
            '{"wav": "a.wav", "offset": 0, "duration": %d}' % (int(sys.float_info.max) + 1),
        ],
        ids=[
            "wav-bool", "wav-hex-int", "wav-null", "wav-sexagesimal", "wav-int", "wav-date",
            "wav-list", "offset-nan", "duration-inf", "offset-minus-inf", "offset-str",
            "offset-bool", "duration-null", "offset-int-past-float", "dropped-str",
            "dropped-int", "dropped-null", "jsonl-dropped-str", "jsonl-wav-int",
            "jsonl-offset-nan", "jsonl-duration-infinity", "jsonl-duration-overflow",
            "jsonl-offset-str", "jsonl-offset-bool", "jsonl-offset-int-past-float",
            "jsonl-duration-int-above-largest-float",
        ],
    )
    def test_mistyped_value_rejected(self, loader, text):
        with pytest.raises(ManifestError, match="bad manifest record"):
            parse_manifest(text)

    def test_integer_seconds_and_explicit_dropped_accepted(self, loader):
        text = (
            "- {wav: a.wav, offset: 0, duration: 3}\n"
            "- {wav: a.wav, offset: 3, duration: 1.5, dropped: false}\n"
            "- {wav: a.wav, offset: 4.5, duration: 1, dropped: true}\n"
        )
        entries, _ = parse_manifest(text)
        assert entries == [
            ManifestEntry("a.wav", 0.0, 3.0),
            ManifestEntry("a.wav", 3.0, 1.5),
            ManifestEntry("a.wav", 4.5, 1.0, dropped=True),
        ]
        assert all(type(e.offset) is float and type(e.duration) is float for e in entries)

    @pytest.mark.parametrize("fmt", ["yaml", "jsonl"])
    def test_rendered_manifests_parse_to_same_entries(self, loader, fmt):
        rng = np.random.default_rng(17)
        names = ["talk0.wav"] + UNSAFE_NAMES + random_names(18, 40)
        for _ in range(60):
            entries = random_entries(rng, names)
            rounded = [
                ManifestEntry(e.wav, round(e.offset, 6), round(e.duration, 6), e.dropped)
                for e in entries
            ]
            assert parse_manifest(render_manifest(entries, {"strategy": "hybrid"}, fmt))[0] == rounded


# -- the write-back fast path -------------------------------------------------

NUMBER_TEXTS = [
    "inf", "-inf", "nan", ".inf", ".nan", "1e3", "1.0e+3", "+1.000000", "1_0.000000",
    ".500000", "0x10", "\uff11.\uff10\uff10\uff10\uff10\uff10", "1.0", "1.0000000", "-0.000000", " 1.000000",
    "100000000000000000000000.000000", "1" + "0" * 400 + ".000000", "1:30.000000", "",
]
COMMENT_CHARS = list("\r\x85\u2028\u2029\t\x0c\x0b\x1c\ufeff\xa0é😀 :#{},-'\"\\\udcff\x00")
MUTATION_CHARS = list(" \t,:#{}[]&*!|>'\"%@`?-\\\r\x85\u2028\x0c\x0bé.0e+_") + ["\ufeff", "\udcff"]


def _mutate(rng: np.random.Generator, text: str) -> str:
    lines = text.split("\n")
    at = int(rng.integers(len(lines)))
    pick = lambda seq: seq[int(rng.integers(len(seq)))]
    kind = int(rng.integers(13))
    if kind == 0:  # byte-order marks
        return pick(["\ufeff", "\ufeff\ufeff", "\ufeff\n"]) + text
    if kind == 1:  # CRLF, all lines or one
        if rng.random() < 0.5:
            return text.replace("\n", "\r\n")
        lines[at] += pick(["\r", "\r\r", " \r"])
    elif kind == 2:  # a line break YAML sees and "\n"-splitting does not
        brk = pick(["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\r"])
        return "\n".join(lines[:at + 1]) + brk + "\n".join(lines[at + 1:])
    elif kind == 3:  # a comment, printable or not
        chars = rng.choice(COMMENT_CHARS + list("ab: "), size=int(rng.integers(0, 6)))
        lines.insert(at, "#" + "".join(chars))
    elif kind == 4:  # a number that writes back as itself or does not
        fields = re.findall(r"(?:offset|duration): [^ ,}]*", text)
        if fields:
            field = pick(fields)
            key = field.split(":")[0]
            return text.replace(field, f"{key}: {pick(NUMBER_TEXTS)}", 1)
    elif kind == 5:  # directives and document markers
        if rng.random() < 0.7:
            return pick(["%YAML 1.1\n---\n", "---\n", "--- \n", "%TAG !e! tag:e,2000:\n---\n"]) + text
        return text + pick(["...\n", "---\n", "--- []\n"])
    elif kind == 6:  # an indented line
        lines[at] = pick([" ", "  ", "\t"]) + lines[at]
    elif kind == 7:  # a blank-looking line
        lines.insert(at, pick(["", " ", "\t", "\x0c", "\x0b", "\u2028", "\x85", "\r", " #"]))
    elif kind == 8:  # one character inserted, replaced or deleted
        pos = int(rng.integers(len(text) + 1))
        char = pick(MUTATION_CHARS)
        return text[:pos] + pick([char, char, ""]) + text[pos + int(rng.random() < 0.5):]
    elif kind == 9:  # dropped flags
        if ", dropped: true}" in text and rng.random() < 0.6:
            new = pick([", dropped: false}", ", dropped: yes}", ", dropped: true }", ",dropped: true}", "}"])
            return text.replace(", dropped: true}", new, 1)
        if lines[at].endswith("}"):
            lines[at] = lines[at][:-1] + ", dropped: true}"
    elif kind == 10:  # tabs and spacing inside a record
        old = pick([", ", ": ", "{", "- "])
        new = pick([",\t", ":\t", "{ ", "-\t", ",  ", ":  "])
        return text.replace(old, new, 1)
    elif kind == 11:  # lines repeated, lost or swapped
        other = int(rng.integers(len(lines)))
        pick([lambda: lines.insert(at, lines[other]), lambda: lines.pop(at),
              lambda: lines.__setitem__(slice(None), lines[:at] + lines[at:][::-1])])()
    else:  # an empty document's forms
        return pick(["[]\n", "[]", "# x\n[]\n", "- []\n", "# only a comment\n", "", "\n\n"])
    return "\n".join(lines)


def mutated_manifests(seed: int, count: int) -> list[str]:
    """Rendered manifests with random and adversarial names, most of them
    mutated by one to three of `_mutate`'s edits."""
    rng = np.random.default_rng(seed)
    plain = ["talk0.wav", "a.wav", "-x.wav", "a#b.wav", "rec_12:30:00.wav", "it's.wav", "中文.wav"]
    names = UNSAFE_NAMES + random_names(seed + 1, 60)
    bases = []
    for _ in range(150):
        pool = plain if rng.random() < 0.5 else names
        picked = [str(n) for n in rng.choice(pool, size=int(rng.integers(1, 4)))]
        header = {"strategy": "hybrid", "total_duration": "60.000000"} if rng.random() < 0.7 else {}
        bases.append(render_manifest(random_entries(rng, picked)[:4], header))
    bases.append(render_manifest([], {"strategy": "fixed"}))
    texts = []
    for _ in range(count):
        text = bases[int(rng.integers(len(bases)))]
        for _ in range(int(rng.choice([0, 1, 1, 2, 3]))):
            text = _mutate(rng, text)
        texts.append(text)
    return texts


class TestWriteBackFastPath:
    @pytest.fixture
    def quoted_once(self, monkeypatch):
        # each distinct name's read-back runs once for the whole test, not
        # once per text; the quoting itself is unchanged
        monkeypatch.setattr(manifest, "_yaml_scalar", functools.cache(manifest._yaml_scalar))

    def test_accepts_only_what_yaml_reads_alike(self, loader, quoted_once):
        accepted = refused = 0
        for text in mutated_manifests(31, 10_000):
            body = text.removeprefix("\ufeff")
            fast = manifest._written_entries(body)
            if fast is not None:
                accepted += 1
                data = yaml.load(body, Loader=loader)
                assert fast == [manifest._entry_from_record(r) for r in data or []], repr(text)
                continue
            try:  # the YAML path, which every YAML text took before
                parse_manifest(text)
            except ManifestError as exc:  # and no other error
                refused += str(exc).startswith("invalid YAML")
        assert accepted >= 2_000 and refused >= 1_000, (accepted, refused)

    def test_plain_names_never_reach_yaml_load(self, monkeypatch):
        # a fast path that is never taken would pass every check above
        rng = np.random.default_rng(37)
        names = ["talk0.wav", "a.wav"] + UNSAFE_NAMES + random_names(38, 400)
        plain = [n for n in names if manifest._yaml_scalar(n) == n]
        assert len(plain) >= 50
        cases = []
        for _ in range(300):
            entries = random_entries(rng, plain)
            header = {"strategy": "hybrid"} if rng.random() < 0.5 else {}
            rendered = [
                ManifestEntry(e.wav, float(f"{e.offset:.6f}"), float(f"{e.duration:.6f}"), e.dropped)
                for e in entries
            ]
            cases.append((render_manifest(entries, header), rendered, header))
        load = yaml.load

        def refuse_whole_texts(stream, Loader):
            assert "\n" not in stream, "a whole manifest went to yaml.load"
            return load(stream, Loader)  # a name's one-line read-back

        monkeypatch.setattr(yaml, "load", refuse_whole_texts)
        for text, rendered, header in cases:
            assert parse_manifest(text) == (rendered, header), text
            assert parse_manifest(text.replace("\n", "\r\n")) == (rendered, header)
        for name in ["a, b.wav", "yes", "\udcff.wav", "line\nbreak.wav"]:  # quoted: the YAML path
            with pytest.raises(AssertionError, match="whole manifest"):
                parse_manifest(render_manifest([ManifestEntry(name, 0.0, 1.0)]))

    @pytest.mark.parametrize("escape", ["\\U00110000", "\\Ue001f600"], ids=["past-max", "past-c-int"])
    def test_escape_past_the_last_code_point_refused(self, loader, escape):
        # PyYAML's pure loader raises ValueError or OverflowError here, not
        # YAMLError, when reading a manifest and when quoting a name
        with pytest.raises(ManifestError, match="invalid YAML"):
            parse_manifest(f'- {{wav: "{escape}.wav", offset: 0.0, duration: 1.0}}\n')
        entry = ManifestEntry(f'"{escape}.wav"', 0.0, 1.0)  # that text as a file name
        assert parse_manifest(render_manifest([entry]))[0] == [entry]

    def test_many_names_go_to_yaml_load(self):
        # names outside _PLAIN_NAME: each would need a read-back
        entries = [ManifestEntry(f"utt {i}.wav", 0.0, 1.5) for i in range(200)]
        text = render_manifest(entries)
        assert manifest._written_entries(text) is None
        assert parse_manifest(text) == (entries, {})
        assert manifest._written_entries(render_manifest(entries[:16] * 10)) is not None

    def test_many_plain_names_never_reach_yaml_load(self, monkeypatch):
        # _PLAIN_NAME needs no read-back, so the cap leaves these names out
        entries = [ManifestEntry(f"utt_{i}.wav", 1.5 * i, 1.5) for i in range(3544)]
        entries.append(ManifestEntry("my talk.wav", 1.5 * 3544, 1.5))  # one read-back
        text = render_manifest(entries)
        load = yaml.load

        def refuse_whole_texts(stream, Loader):
            assert "\n" not in stream, "a whole manifest went to yaml.load"
            return load(stream, Loader)  # the one name's read-back

        monkeypatch.setattr(yaml, "load", refuse_whole_texts)
        assert parse_manifest(text) == (entries, {})
