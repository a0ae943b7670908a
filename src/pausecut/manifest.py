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
from dataclasses import dataclass

import yaml

from .segmenters import Segment

YAML_FORMAT = "yaml"
JSONL_FORMAT = "jsonl"
_JSON_SPACE = " \t\r\n"  # the only whitespace JSON allows between tokens

# libyaml's loader builds the same objects as the pure-Python one (same
# constructor and resolver, so the same YAML 1.1 typing) about 6x faster;
# PyYAML built without libyaml has only the latter.
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


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

    Segmenters that work on the padded frame timeline can overrun the
    true clip end by part of a frame; `clip_duration` clamps the tail so
    no entry points past the audio.
    """
    entries = []
    for seg in segments:
        start, end = seg.start, seg.end
        if clip_duration is not None:
            end = min(end, clip_duration)
        if end <= start or not (seg.kept or emit_dropped):
            continue
        entries.append(ManifestEntry(wav_name, start, end - start, dropped=not seg.kept))
    return entries


def render_manifest(
    entries: list[ManifestEntry], header: dict | None = None, fmt: str = YAML_FORMAT
) -> str:
    if fmt == YAML_FORMAT:
        return _render_yaml(entries, header or {})
    if fmt == JSONL_FORMAT:
        return _render_jsonl(entries, header or {})
    raise ValueError(f"unknown manifest format {fmt!r}")


_PLAIN_LOADERS = tuple(dict.fromkeys([yaml.SafeLoader, YAML_LOADER]))  # fixed now, in order


def _yaml_scalar(text: str) -> str:
    """`text` as a flow scalar that loads back as the same string.

    Plain when it holds no line break, so each record stays one line, and a
    record holding it plain reads back as itself under the pure and the
    libyaml loader.  Otherwise double-quoted with Python's escapes, which
    are YAML's; JSON's would write a character past U+FFFF as two surrogates.
    """
    if set(text).isdisjoint("\r\n\x85\u2028\u2029") and all(
        _reads_back(text, loader) for loader in _PLAIN_LOADERS
    ):
        return text
    return '"' + text.encode("unicode_escape").decode("ascii").replace('"', '\\"') + '"'


def _reads_back(text: str, loader) -> bool:
    try:
        return yaml.load(f"- {{wav: {text}, offset: 0}}", loader) == [{"wav": text, "offset": 0}]
    except (yaml.YAMLError, UnicodeError):  # libyaml cannot encode a lone surrogate
        return False


def _render_yaml(entries: list[ManifestEntry], header: dict) -> str:
    lines = ["# pausecut manifest v1"]
    for key in sorted(header):
        lines.append(f"# {key}: {header[key]}")
    scalars: dict[str, str] = {}
    for e in entries:
        wav = scalars.get(e.wav) or scalars.setdefault(e.wav, _yaml_scalar(e.wav))
        extra = ", dropped: true" if e.dropped else ""
        lines.append(
            f"- {{wav: {wav}, offset: {e.offset:.6f}, duration: {e.duration:.6f}{extra}}}"
        )
    if not entries:
        lines.append("[]")
    return "\n".join(lines) + "\n"


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
    """Atomic write: render UTF-8 to a temp file, then rename over `path`."""
    text = render_manifest(entries, header, fmt)
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".manifest-{os.urandom(8).hex()}")
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
    try:
        data = yaml.load(text, Loader=YAML_LOADER)
    except yaml.YAMLError:
        try:  # libyaml refuses "\udcff" escapes (non-UTF-8 file names); SafeLoader reads them
            data = yaml.load(text, Loader=yaml.SafeLoader)
        except yaml.YAMLError as exc:
            raise ManifestError(f"invalid YAML manifest: {exc}") from exc
    if data is not None and not isinstance(data, list):
        raise ManifestError("manifest must be a list of records")
    return [_entry_from_record(r) for r in data or []], header


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
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            seconds = float(value)
        except OverflowError:  # an int past the float range
            seconds = math.inf
        if math.isfinite(seconds):
            return seconds
    raise ManifestError(f"bad manifest record {record!r}: {key} must be a finite number")


def coverage_end(entries: list[ManifestEntry]) -> float:
    return max((e.end for e in entries), default=0.0)


# Manifest values carry six decimals, so adjacent entries can disagree by
# up to a microsecond after rounding; seams inside this tolerance are
# treated as contiguous rather than as real gaps or overlaps.
SEAM_TOLERANCE = 1e-5


def entries_to_segments(
    entries: list[ManifestEntry], total_duration: float | None = None
) -> list[Segment]:
    """Normalize a manifest into a gap-free tiling of [0, total_duration).

    Manifests usually list kept audio only; the uncovered remainder
    (leading, internal, trailing) is filled with dropped segments so
    stats and boundary comparison see the full timeline.
    """
    ordered = sorted(entries, key=lambda e: e.offset)
    total = total_duration if total_duration is not None else coverage_end(ordered)
    segments = []
    cursor = 0.0
    for e in ordered:
        if e.duration <= 0:
            raise ManifestError(f"non-positive duration in record for {e.wav!r}")
        if e.offset < cursor - SEAM_TOLERANCE:
            raise ManifestError(f"overlapping segments at offset {e.offset:.6f}")
        if e.offset > cursor + SEAM_TOLERANCE:
            segments.append(Segment(cursor, e.offset, kept=False))
            cursor = e.offset
        if e.end <= cursor:
            raise ManifestError(f"overlapping segments at offset {e.offset:.6f}")
        segments.append(Segment(cursor, e.end, kept=not e.dropped))
        cursor = e.end
    if total > cursor:
        segments.append(Segment(cursor, total, kept=False))
    return segments
