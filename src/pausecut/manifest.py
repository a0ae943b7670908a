"""Segment manifests: the on-disk exchange format.

A manifest is an ordered list of `{wav, offset, duration}` records with
six-decimal seconds -- the shape speech-translation evaluation pipelines
consume -- either as a YAML list or as JSON lines behind a flag.  Dropped
segments are omitted unless explicitly emitted, in which case they carry
`dropped: true`.  The effective run configuration is echoed in a header
(comment lines in YAML, a leading config record in JSON lines).

Rendering is deterministic: identical entries and header produce
byte-identical files.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import re
from dataclasses import dataclass

from .segmenters import Segment, finite

YAML_FORMAT = "yaml"
JSONL_FORMAT = "jsonl"
_JSON_SPACE = " \t\r\n"  # the only whitespace JSON allows between tokens


def __getattr__(name: str):
    """`YAML_LOADER` and `_PLAIN_LOADERS`, fixed on first use, so that a
    process reading only JSON lines never imports PyYAML."""
    if name not in ("YAML_LOADER", "_PLAIN_LOADERS"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import yaml

    # libyaml's loader builds the same objects as the pure-Python one (same
    # constructor and resolver, so the same YAML 1.1 typing) about 6x faster;
    # PyYAML built without libyaml has only the latter.
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    globals().update(
        YAML_LOADER=loader, _PLAIN_LOADERS=tuple(dict.fromkeys([yaml.SafeLoader, loader]))
    )
    return globals()[name]


def _lazy(name: str):
    # a bare global name inside the module never reaches __getattr__
    return globals().get(name) or __getattr__(name)


@dataclass(frozen=True)
class ManifestEntry:
    wav: str
    offset: float
    duration: float
    dropped: bool = False

    @property
    def end(self) -> float:
        return self.offset + self.duration


class ManifestError(ValueError):
    """Raised for unparseable or inconsistent manifests."""


def segments_to_entries(
    segments: list[Segment],
    wav_name: str,
    clip_duration: float | None = None,
    emit_dropped: bool = False,
) -> list[ManifestEntry]:
    """Convert segmenter output to manifest entries.

    Segmenters on the padded frame timeline can overrun the clip end by part
    of a frame; `clip_duration` clamps the tail.  The entry that ends the
    timeline, inside SEAM_TOLERANCE of the total, is dropped if six decimals
    make it 0 s long or end it no later than the entry before.  Anywhere else
    a 0 s entry is refused, as is one whose six-decimal values the reader's
    walk refuses.
    """
    entries, reach = [], 0.0  # the six-decimal end of the last entry, as the walk sums it
    for i, seg in enumerate(segments, 1 - len(segments)):  # 0 at the last
        start, end = seg.start, seg.end
        if clip_duration is not None:
            end = min(end, clip_duration)
        if end <= start or not (seg.kept or emit_dropped):
            continue
        offset, duration = round(start, 6), round(end - start, 6)
        last = not i or end == clip_duration
        if duration and (offset + duration > reach or not last):
            entries.append(ManifestEntry(wav_name, start, end - start, dropped=not seg.kept))
            reach = offset + duration
        elif not last:
            raise ValueError(f"segment [{start}, {end}) rounds to a 0 s manifest entry")
    for _ in _tile((round(e.offset, 6), round(e.duration, 6), True, wav_name) for e in entries):
        pass  # the reader's own walk, on the six-decimal values
    return entries


def render_manifest(
    entries: list[ManifestEntry], header: dict | None = None, fmt: str = YAML_FORMAT
) -> str:
    if fmt == YAML_FORMAT:
        return _render_yaml(entries, header or {})
    if fmt == JSONL_FORMAT:
        return _render_jsonl(entries, header or {})
    raise ValueError(f"unknown manifest format {fmt!r}")


# Names plain with no read-back: no space, break or flow indicator, no leading
# indicator, and an end, `.` then a letter and alphanumerics, that no YAML 1.1
# implicit type in PyYAML's resolver can end with: bool, null, int, float
# (`.inf` and `.nan` too), timestamp, `<<` and `=`.
_PLAIN_NAME = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_.-]*\.[A-Za-z][A-Za-z0-9]*")


def _yaml_scalar(text: str) -> str:
    """`text` as a flow scalar that loads back as the same string.

    Plain when `_PLAIN_NAME` matches it, with no PyYAML; else plain when it
    holds no line break, so each record stays one line, and a record holding
    it plain reads back as itself under the pure and the libyaml loader.
    Otherwise double-quoted with Python's escapes, which are YAML's; JSON's
    would write a character past U+FFFF as two surrogates.
    """
    if _PLAIN_NAME.fullmatch(text):
        return text
    if set(text).isdisjoint("\r\n\x85\u2028\u2029") and all(
        _reads_back(text, loader) for loader in _lazy("_PLAIN_LOADERS")
    ):
        return text
    return '"' + text.encode("unicode_escape").decode("ascii").replace('"', '\\"') + '"'


def _reads_back(text: str, loader) -> bool:
    import yaml

    try:
        return yaml.load(f"- {{wav: {text}, offset: 0}}", loader) == [{"wav": text, "offset": 0}]
    except (yaml.YAMLError, ValueError, OverflowError):  # see _parse_yaml
        return False


def _render_yaml(entries: list[ManifestEntry], header: dict) -> str:
    lines = ["# pausecut manifest v1"]
    for key in sorted(header):
        lines.append(f"# {key}: {header[key]}")
    scalars: dict[str, str] = {}
    for e in entries:
        wav = scalars.get(e.wav) or scalars.setdefault(e.wav, _yaml_scalar(e.wav))
        lines.append(_yaml_record(wav, e.offset, e.duration, e.dropped))
    if not entries:
        lines.append("[]")
    return "\n".join(lines) + "\n"


def _yaml_record(wav: str, offset: float, duration: float, dropped: bool) -> str:
    """One entry's line; `wav` is already its `_yaml_scalar`."""
    extra = ", dropped: true" if dropped else ""
    return f"- {{wav: {wav}, offset: {offset:.6f}, duration: {duration:.6f}{extra}}}"


def _render_jsonl(entries: list[ManifestEntry], header: dict) -> str:
    lines = [json.dumps({"pausecut_manifest": 1, "config": header}, sort_keys=True)]
    for e in entries:
        record: dict = {"wav": e.wav, "offset": round(e.offset, 6), "duration": round(e.duration, 6)}
        if e.dropped:
            record["dropped"] = True
        lines.append(json.dumps(record, sort_keys=True))
    return "\n".join(lines) + "\n"


def write_manifest(
    path, entries: list[ManifestEntry], header: dict | None = None, fmt: str = YAML_FORMAT
) -> None:
    """Atomic write: render UTF-8 to a temp file, then rename over `path` or its link target."""
    text = render_manifest(entries, header, fmt)
    path = os.path.realpath(path)
    tmp = os.path.join(os.path.dirname(path), f".manifest-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # less the umask, as open()
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            with contextlib.suppress(FileNotFoundError):  # a replaced file keeps its mode
                os.fchmod(fd, os.stat(path).st_mode & 0o7777)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def parse_manifest(text: str) -> tuple[list[ManifestEntry], dict]:
    """Parse either manifest format; returns (entries, header).  One leading
    U+FEFF is dropped; text that starts with "{" after JSON whitespace is JSON lines."""
    text = text.removeprefix("\ufeff")
    if text.lstrip(_JSON_SPACE).startswith("{"):
        return _parse_jsonl(text)
    return _parse_yaml(text)


def read_manifest(path) -> tuple[list[ManifestEntry], dict]:
    with open(path, encoding="utf-8") as fh:
        return parse_manifest(fh.read())


def _parse_yaml(text: str) -> tuple[list[ManifestEntry], dict]:
    header = {}
    for line in text.splitlines():
        if not line.startswith("#"):
            continue
        body = line[1:].strip()
        if ":" in body:
            key, _, value = body.partition(":")
            header[key.strip()] = value.strip()
    entries = _written_entries(text)
    if entries is not None:
        return entries, header
    import yaml

    # libyaml refuses "\udcff" escapes (non-UTF-8 file names), which SafeLoader
    # reads, and raises UnicodeError for a lone surrogate; SafeLoader raises
    # ValueError or OverflowError for an escape past U+10FFFF
    errors = (yaml.YAMLError, ValueError, OverflowError)
    try:
        data = yaml.load(text, Loader=_lazy("YAML_LOADER"))
    except errors:
        try:
            data = yaml.load(text, Loader=yaml.SafeLoader)
        except errors as exc:
            raise ManifestError(f"invalid YAML manifest: {exc}") from exc
    if data is not None and not isinstance(data, list):
        raise ManifestError("manifest must be a list of records")
    return [_entry_from_record(r) for r in data or []], header


# A line `_yaml_record` may have written, split into candidate fields
# (wav, offset, duration, dropped); only writing them back decides.
_RECORD = re.compile(r"- \{wav: (.*?), offset: ([^ ,]*), duration: ([^ ,}]*)(, dropped: true)?\}")


def _written_entries(text: str) -> list[ManifestEntry] | None:
    """The entries of a text `_render_yaml` could have written, read without
    YAML; None sends the text to `yaml.load`.

    Split at "\n" (one trailing "\r" dropped), each line must be empty, a
    printable comment (YAML breaks lines at "\r", U+0085, U+2028, U+2029,
    none printable) or a record that `_yaml_record` writes back byte for
    byte, with finite seconds (`inf` writes back; YAML reads a string).
    A name is quoted once, as when rendering; a quoted one never writes
    back as itself.  A read-back costs about what `yaml.load` takes for six
    lines, so more than 16 names outside `_PLAIN_NAME` plus one per 16
    records give None.
    """
    entries = []
    scalars: dict[str, str] = {}
    read_back = 0
    for line in text.split("\n"):
        line = line.removesuffix("\r")
        if not line or (line[0] == "#" and line.isprintable()):
            continue
        match = _RECORD.fullmatch(line)
        if match is None:
            return None
        wav, offset, duration, dropped = match.groups()
        try:
            entry = ManifestEntry(wav, float(offset), float(duration), dropped is not None)
        except ValueError:
            return None
        if wav not in scalars:
            read_back += not _PLAIN_NAME.fullmatch(wav)
            if read_back > 17 + len(entries) // 16:
                return None
            scalars[wav] = _yaml_scalar(wav)
        written = _yaml_record(scalars[wav], entry.offset, entry.duration, entry.dropped)
        if written != line or not math.isfinite(entry.offset + entry.duration):
            return None
        entries.append(entry)
    return entries


def _parse_jsonl(text: str) -> tuple[list[ManifestEntry], dict]:
    entries = []
    header: dict = {}
    for i, line in enumerate(text.split("\n")):  # JSON strings may hold U+0085, U+2028
        if not line.strip(_JSON_SPACE):  # str.strip() also takes U+2028, "\x0c", ...
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ManifestError(f"invalid JSON on line {i + 1}: {exc}") from exc
        if isinstance(record, dict) and "pausecut_manifest" in record:
            header = record.get("config", {})
            if not isinstance(header, dict):
                raise ManifestError(f"manifest config must be a mapping, got {header!r}")
            continue
        entries.append(_entry_from_record(record))
    return entries, header


def _entry_from_record(record) -> ManifestEntry:
    """One manifest record as an entry; a value of the wrong type is an
    error, never coerced (`wav: yes` is not the file "True")."""
    if not isinstance(record, dict):
        raise ManifestError(f"manifest record must be a mapping, got {record!r}")
    try:
        wav, offset, duration = record["wav"], record["offset"], record["duration"]
    except KeyError as exc:
        raise ManifestError(f"manifest record missing key {exc}") from exc
    dropped = record.get("dropped", False)
    if not isinstance(wav, str):
        raise ManifestError(f"bad manifest record {record!r}: wav must be a string")
    if not isinstance(dropped, bool):
        raise ManifestError(f"bad manifest record {record!r}: dropped must be true or false")
    return ManifestEntry(
        wav, _seconds(offset, "offset", record), _seconds(duration, "duration", record), dropped
    )


def _seconds(value, key: str, record: dict) -> float:
    if finite(value):
        return float(value)
    raise ManifestError(f"bad manifest record {record!r}: {key} must be a finite number")


def coverage_end(entries: list[ManifestEntry]) -> float:
    return max((e.end for e in entries), default=0.0)


# Manifest values carry six decimals, so adjacent entries can disagree by
# up to a microsecond after rounding; seams inside this tolerance, the last
# one at `total_duration` too, are contiguous rather than gaps or overlaps.
SEAM_TOLERANCE = 1e-5


def entries_to_segments(
    entries: list[ManifestEntry], total_duration: float | None = None
) -> list[Segment]:
    """Normalize a manifest into a gap-free tiling of [0, total_duration), which
    must be finite and reach the last entry's end (the default).  The uncovered
    remainder (leading, internal, trailing) is filled with dropped segments so
    stats and boundary comparison see the full timeline."""
    ordered = sorted(entries, key=lambda e: e.offset)
    spans = ((e.offset, e.duration, not e.dropped, e.wav) for e in ordered)
    return [Segment(*piece) for piece in _tile(spans, total_duration)]


def _tile(spans, total: float | None = None):
    """The manifest's tiling rule, for the reader and the writer alike: walk
    `(offset, duration, kept, wav)` records in time order and yield the `(start,
    end, kept)` pieces that tile [0, total), gaps and the tail dropped."""
    if total is not None and not math.isfinite(total):
        raise ManifestError(f"total_duration must be finite, got {total}")
    cursor = 0.0
    for offset, duration, kept, wav in spans:
        if duration <= 0:
            raise ManifestError(f"non-positive duration in record for {wav!r}")
        start, end = offset if offset > cursor + SEAM_TOLERANCE else cursor, offset + duration
        if offset < cursor - SEAM_TOLERANCE or end <= start:
            if offset < 0 or end <= offset:  # no neighbour: the record alone is at fault
                fault = "negative offset" if offset < 0 else "duration below the offset's precision"
                raise ManifestError(f"{fault} in record for {wav!r}")
            raise ManifestError(f"overlapping segments at offset {offset:.6f}")
        if not math.isfinite(end):  # past the float range
            raise ManifestError(f"non-finite end in record at offset {offset:.6g}")
        if start > cursor:
            yield cursor, start, False
        yield start, end, kept
        cursor = end
    total = cursor if total is None else total  # no total: the tiling ends at the last end
    if total < 0 or total < cursor - SEAM_TOLERANCE:
        cover = f"non-negative and cover the manifest's {cursor:.6f}s"
        raise ManifestError(f"total_duration must be {cover}, got {total}")
    if total > cursor + SEAM_TOLERANCE:
        yield cursor, total, False
