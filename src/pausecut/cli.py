"""Command-line frontend: segment audio, print stats, compare manifests.

Subcommands:

* ``segment`` -- run a strategy over WAV (or raw PCM16) inputs and write
  a segment manifest.
* ``stats``   -- summary rows for a manifest.
* ``compare`` -- boundary precision/recall between two manifests.

Each option is declared once, in ``OPTIONS``.  Its value resolves in
precedence order: built-in default, then a ``--config`` file of
``key = value`` lines, then a ``PAUSECUT_<KEY>`` environment variable,
then an explicit flag; text from the file and the environment gets the
flag's conversion and allowed values.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import TYPE_CHECKING

from . import __version__

if TYPE_CHECKING:
    from .audio import AudioClip
    from .segmenters import Segment

STRATEGIES = ("fixed", "vad", "srpol", "hybrid", "hybrid-force")
STREAMABLE = ("hybrid", "hybrid-force")
ENV_PREFIX = "PAUSECUT_"
SEGMENT = ("segment",)

# The one declaration of each option: the subcommands that take it, its
# default, the converter for its text (flag, config file or environment;
# None marks a boolean), its allowed values (None: any) and its help.
OPTIONS = {
    "strategy": (SEGMENT, "hybrid", str, STRATEGIES, "segmentation strategy"),
    "length": (SEGMENT, 20.0, float, None, "segment length for --strategy fixed (s)"),
    "min_len": (SEGMENT, 17.0, float, None, "hybrid window start (s)"),
    "max_len": (SEGMENT, 20.0, float, None, "length bound (s)"),
    "juncture_ms": (SEGMENT, 550, int, None, "forced-split pause threshold (ms)"),
    "aggressiveness": (SEGMENT, 2, int, (0, 1, 2, 3), "VAD aggressiveness"),
    "frame_ms": (SEGMENT, 20, int, (10, 20, 30), "VAD frame length (ms)"),
    "min_pause_ms": (SEGMENT, None, int, None, "minimum pause length (ms)"),
    "streaming": (SEGMENT, False, None, None, "drive the incremental engine (hybrid only)"),
    "format": (SEGMENT, "yaml", str, ("yaml", "jsonl"), "manifest format"),
    "emit_dropped": (SEGMENT, False, None, None, "include discarded audio as dropped entries"),
    "raw_rate": (SEGMENT, None, int, None, "read inputs as headerless PCM16 at this rate"),
    "output": (SEGMENT, "-", str, None, "manifest path ('-' for stdout)"),
    "jobs": (SEGMENT, None, int, None, "parallel workers for multiple inputs"),
    "total_duration": (
        ("stats",), None, float, None, "audio duration (s); default: header, else coverage"
    ),
    "tolerance": (("compare",), 0.5, float, None, "match window (s)"),
    "duration_slack": (("compare",), 0.03, float, None, "allowed coverage mismatch (s)"),
    "json": (("stats", "compare"), False, None, None, "print JSON"),
}
_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True}
_BOOLEANS.update({"0": False, "false": False, "no": False, "off": False})


class CliError(Exception):
    """User-facing failure: printed as a diagnostic, exits nonzero."""


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _coerce(key: str, raw: str, source: str):
    """Convert config or environment text as the flag would, or fail naming `source`."""
    _, _, conv, choices, _ = OPTIONS[key]
    try:
        value = _BOOLEANS[raw.strip().lower()] if conv is None else conv(raw)
        if choices is None or value in choices:
            return value
    except (KeyError, ValueError):
        pass
    hint = f" (choose from {', '.join(map(repr, choices))})" if choices else ""
    raise CliError(f"{source}: invalid value {raw!r} for {key}{hint}")


def _load_config_file(path: str, keys: list[str]) -> dict:
    """key = value lines; '#' starts a comment; quotes are optional.

    Values of `keys` are converted; other known keys are ignored.
    """
    values = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise CliError(f"{path}:{lineno}: expected key = value")
                key, _, value = line.partition("=")
                key = key.strip().replace("-", "_")
                if key not in OPTIONS:
                    raise CliError(f"{path}:{lineno}: unknown option {key!r}")
                if key in keys:
                    values[key] = _coerce(key, value.strip().strip("\"'"), f"{path}:{lineno}")
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc}") from exc
    return values


def _resolve(args: argparse.Namespace) -> dict:
    """Defaults < config file < environment < explicit flags."""
    keys = [key for key, row in OPTIONS.items() if args.command in row[0]]
    cfg = {key: OPTIONS[key][1] for key in keys}
    if args.config:
        cfg.update(_load_config_file(args.config, keys))
    for key in keys:
        env = os.environ.get(ENV_PREFIX + key.upper())
        if env is not None:
            cfg[key] = _coerce(key, env, ENV_PREFIX + key.upper())
        if getattr(args, key) is not None:
            cfg[key] = getattr(args, key)
    return cfg


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pausecut", description="Streaming audio segmentation toolkit"
    )
    parser.add_argument("--version", action="version", version=f"pausecut {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "segment": sub.add_parser("segment", help="segment audio files and write a manifest"),
        "stats": sub.add_parser("stats", help="Table-style statistics for a manifest"),
        "compare": sub.add_parser(
            "compare", help="boundary precision/recall between two manifests"
        ),
    }
    commands["segment"].add_argument(
        "inputs", nargs="+", metavar="AUDIO", help="WAV (or raw PCM16) files"
    )
    commands["stats"].add_argument("manifest")
    commands["compare"].add_argument("hypothesis")
    commands["compare"].add_argument("reference")
    for key, (names, _, conv, choices, help_) in OPTIONS.items():
        flags = [_flag(key), "-o"] if key == "output" else [_flag(key)]
        for name in names:
            if conv is None:
                commands[name].add_argument(
                    *flags, action=argparse.BooleanOptionalAction, help=help_
                )
            else:
                commands[name].add_argument(*flags, type=conv, choices=choices, help=help_)
    for command in commands.values():
        command.add_argument("--config", help="key = value config file")
    return parser


# -- segment -----------------------------------------------------------------


def _load_clip(path: str, raw_rate: int | None) -> AudioClip:
    from .audio import WavError, read_pcm16, read_wav

    try:
        if raw_rate is not None:
            return read_pcm16(path, raw_rate)
        return read_wav(path)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except (WavError, ValueError) as exc:
        raise CliError(f"cannot decode {path}: {exc}") from exc


def _segment_clip(clip: AudioClip, cfg: dict) -> list[Segment]:
    from .audio import iter_frames
    from .segmenters import (
        HybridParams,
        Segment,
        SrpolParams,
        segment_fixed,
        segment_hybrid,
        segment_hybrid_force,
        segment_srpol,
        segment_vad_merge,
    )
    from .streaming import StreamingSegmenter
    from .vad import VadConfig, classify, detect_pauses

    strategy = cfg["strategy"]
    if strategy == "fixed":
        return segment_fixed(clip.duration, cfg["length"])

    vad_cfg = VadConfig(cfg["aggressiveness"], cfg["frame_ms"])
    if strategy == "vad":
        return segment_vad_merge(classify(clip, vad_cfg))

    if strategy == "srpol":
        track = classify(clip, vad_cfg)
        if track.duration == 0:
            return []
        pauses = detect_pauses(track, cfg["min_pause_ms"])
        return segment_srpol(Segment(0.0, track.duration), pauses, SrpolParams(cfg["max_len"]))

    force = strategy == "hybrid-force"
    params = HybridParams(cfg["min_len"], cfg["max_len"], force, cfg["juncture_ms"])
    if cfg["streaming"]:
        engine = StreamingSegmenter(params, vad_cfg)
        segments = []
        for frame in iter_frames(clip, vad_cfg.frame_ms):
            segments.extend(engine.push_frame(frame))
        return segments + engine.flush()
    track = classify(clip, vad_cfg)
    pauses = detect_pauses(track, cfg["min_pause_ms"])
    scan = segment_hybrid_force if force else segment_hybrid
    return scan(pauses, track.duration, params)


def _effective_header(cfg: dict, total_duration: float) -> dict:
    strategy = cfg["strategy"]
    header = {"strategy": strategy, "total_duration": f"{total_duration:.6f}"}
    if strategy == "fixed":
        header["length"] = cfg["length"]
    else:
        header["aggressiveness"] = cfg["aggressiveness"]
        header["frame_ms"] = cfg["frame_ms"]
        if strategy != "vad":  # segment_vad_merge keeps every run, however short
            header["min_pause_ms"] = cfg["min_pause_ms"] or cfg["frame_ms"]
        if strategy == "srpol":
            header["max_len"] = cfg["max_len"]
        elif strategy in STREAMABLE:
            header["min_len"] = cfg["min_len"]
            header["max_len"] = cfg["max_len"]
            header["streaming"] = cfg["streaming"]
            if strategy == "hybrid-force":
                header["juncture_ms"] = cfg["juncture_ms"]
    return header


def _cmd_segment(args: argparse.Namespace) -> int:
    # The first import of numpy (by audio and vad) happens here, on this
    # thread, rather than in two worker threads at once.
    from concurrent.futures import ThreadPoolExecutor

    from . import audio, streaming, vad  # noqa: F401
    from .manifest import render_manifest, segments_to_entries, write_manifest

    cfg = _resolve(args)
    if cfg["jobs"] is not None and cfg["jobs"] < 1:
        raise CliError(f"--jobs must be at least 1, got {cfg['jobs']}")
    if cfg["streaming"] and cfg["strategy"] not in STREAMABLE:
        if cfg["strategy"] == "srpol":
            raise CliError("strategy requires full audio: srpol cannot run with --streaming")
        raise CliError(f"--streaming is not supported for strategy {cfg['strategy']!r}")
    min_pause = cfg["min_pause_ms"]
    if cfg["strategy"] != "fixed" and min_pause is not None and min_pause < cfg["frame_ms"]:
        raise CliError(
            f"min_pause_ms ({min_pause}) must be at least one frame ({cfg['frame_ms']} ms)"
        )
    if cfg["streaming"] and (min_pause or 0) > cfg["frame_ms"]:
        raise CliError(
            f"--streaming cannot honour --min-pause-ms {min_pause} above "
            f"--frame-ms {cfg['frame_ms']}: a pause's length is unknown at the horizon"
        )

    def process(path: str) -> tuple[float, list]:
        clip = _load_clip(path, cfg["raw_rate"])
        try:
            segments = _segment_clip(clip, cfg)
        except ValueError as exc:
            raise CliError(f"{path}: {exc}") from exc
        name = os.path.basename(path)
        return clip.duration, segments_to_entries(
            segments, name, clip.duration, cfg["emit_dropped"]
        )

    inputs = list(args.inputs)
    if len(inputs) > 1:
        workers = cfg["jobs"] or min(len(inputs), os.cpu_count() or 1)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(process, inputs))
    else:
        results = [process(inputs[0])]

    total = sum(duration for duration, _ in results)
    entries = [e for _, file_entries in results for e in file_entries]
    header = _effective_header(cfg, total)
    if cfg["output"] == "-":
        sys.stdout.write(render_manifest(entries, header, cfg["format"]))
    else:
        try:
            write_manifest(cfg["output"], entries, header, cfg["format"])
        except OSError as exc:
            raise CliError(f"cannot write {cfg['output']}: {exc}") from exc
    return 0


# -- stats -------------------------------------------------------------------


def _read_manifest_checked(path: str):
    from .manifest import ManifestError, read_manifest

    try:
        return read_manifest(path)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except ManifestError as exc:
        raise CliError(f"malformed manifest {path}: {exc}") from exc


def _cmd_stats(args: argparse.Namespace) -> int:
    from .manifest import SEAM_TOLERANCE, ManifestError, coverage_end, entries_to_segments
    from .metrics import compute_stats, format_stats_table, stats_to_json

    cfg = _resolve(args)
    entries, header = _read_manifest_checked(args.manifest)
    coverage = coverage_end(entries)
    total, source = cfg["total_duration"], "--total-duration"
    if total is None and "total_duration" in header:
        source = f"malformed manifest {args.manifest}: total_duration"
        try:
            total = float(header["total_duration"])
        except ValueError:
            pass  # an unreadable header total falls back to the coverage
    if total is None:
        total = coverage
    elif not math.isfinite(total):
        raise CliError(f"{source} must be finite, got {total}")
    elif total < 0 or total < coverage - SEAM_TOLERANCE:
        raise CliError(
            f"{source} must be non-negative and cover the manifest's {coverage:.6f}s, got {total}"
        )
    try:
        segments = entries_to_segments(entries, total)
    except ManifestError as exc:
        raise CliError(f"malformed manifest {args.manifest}: {exc}") from exc
    stats = compute_stats(segments, total)
    if cfg["json"]:
        print(stats_to_json(stats))
    else:
        print(format_stats_table({os.path.basename(args.manifest): stats}))
    return 0


# -- compare -----------------------------------------------------------------


def _cmd_compare(args: argparse.Namespace) -> int:
    from dataclasses import asdict

    from .manifest import ManifestError, coverage_end, entries_to_segments
    from .metrics import boundary_prf

    cfg = _resolve(args)
    for key in ("tolerance", "duration_slack"):
        if not 0 <= cfg[key] < math.inf:
            raise CliError(f"{_flag(key)} must be finite and non-negative, got {cfg[key]}")
    hyp_entries, _ = _read_manifest_checked(args.hypothesis)
    ref_entries, _ = _read_manifest_checked(args.reference)
    hyp_total = coverage_end(hyp_entries)
    ref_total = coverage_end(ref_entries)
    if abs(hyp_total - ref_total) > cfg["duration_slack"]:
        raise CliError(
            f"manifests cover different durations: {hyp_total:.6f}s vs {ref_total:.6f}s"
        )
    try:
        hyp = entries_to_segments(hyp_entries)
        ref = entries_to_segments(ref_entries)
    except ManifestError as exc:
        raise CliError(f"malformed manifest: {exc}") from exc
    report = asdict(boundary_prf(hyp, ref, cfg["tolerance"]))
    if cfg["json"]:
        print(json.dumps(report, sort_keys=True))
    else:
        for key, value in report.items():
            print(f"{key:<10} {value:.3f}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "segment":
            return _cmd_segment(args)
        if args.command == "stats":
            return _cmd_stats(args)
        return _cmd_compare(args)
    except CliError as exc:
        print(f"pausecut: error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())
