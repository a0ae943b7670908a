"""Command-line frontend: segment audio, print stats, compare manifests.

Subcommands:

* ``segment`` -- run a strategy over WAV (or raw PCM16) inputs and write
  a segment manifest.
* ``stats``   -- summary rows for a manifest.
* ``compare`` -- boundary precision/recall between two manifests.

Option values resolve in precedence order: built-in defaults, then a
``--config`` file of ``key = value`` lines, then ``PAUSECUT_<KEY>``
environment variables, then explicit flags.
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

# Each option's default and the converter for its text form (config file,
# environment); a None converter marks a boolean.
OPTIONS = {
    "strategy": ("hybrid", str),
    "length": (20.0, float),
    "min_len": (17.0, float),
    "max_len": (20.0, float),
    "juncture_ms": (550, int),
    "aggressiveness": (2, int),
    "frame_ms": (20, int),
    "min_pause_ms": (None, int),
    "streaming": (False, None),
    "format": ("yaml", str),
    "emit_dropped": (False, None),
    "raw_rate": (None, int),
    "output": ("-", str),
    "jobs": (None, int),
    "total_duration": (None, float),
    "tolerance": (0.5, float),
    "duration_slack": (0.03, float),
    "json": (False, None),
}
DEFAULTS = {key: default for key, (default, _) in OPTIONS.items()}


class CliError(Exception):
    """User-facing failure: printed as a diagnostic, exits nonzero."""


def _coerce(key: str, raw):
    if isinstance(raw, str):
        conv = OPTIONS[key][1]
        if conv is None:  # boolean
            low = raw.strip().lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise CliError(f"cannot parse boolean value {raw!r} for {key}")
        try:
            return conv(raw)
        except ValueError as exc:
            raise CliError(f"bad value for {key}: {exc}") from exc
    return raw


def _load_config_file(path: str) -> dict:
    """key = value lines; '#' starts a comment; quotes are optional."""
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
                value = value.strip().strip("\"'")
                if key not in DEFAULTS:
                    raise CliError(f"{path}:{lineno}: unknown option {key!r}")
                values[key] = value
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc}") from exc
    return values


def _resolve(args: argparse.Namespace, keys: list[str]) -> dict:
    """Defaults < config file < environment < explicit flags."""
    effective = {k: DEFAULTS[k] for k in keys}
    if getattr(args, "config", None):
        for key, value in _load_config_file(args.config).items():
            if key in effective:
                effective[key] = _coerce(key, value)
    for key in keys:
        env = os.environ.get(ENV_PREFIX + key.upper())
        if env is not None:
            effective[key] = _coerce(key, env)
    for key in keys:
        value = getattr(args, key, None)
        if value is not None:
            effective[key] = value
    return effective


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pausecut", description="Streaming audio segmentation toolkit"
    )
    parser.add_argument("--version", action="version", version=f"pausecut {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    seg = sub.add_parser("segment", help="segment audio files and write a manifest")
    seg.add_argument("inputs", nargs="+", metavar="AUDIO", help="WAV (or raw PCM16) files")
    seg.add_argument("--strategy", choices=STRATEGIES)
    seg.add_argument("--length", type=float, help="segment length for --strategy fixed (s)")
    seg.add_argument("--min-len", dest="min_len", type=float, help="hybrid window start (s)")
    seg.add_argument("--max-len", dest="max_len", type=float, help="length bound (s)")
    seg.add_argument(
        "--juncture-ms", dest="juncture_ms", type=int, help="forced-split pause threshold (ms)"
    )
    seg.add_argument("--aggressiveness", type=int, choices=(0, 1, 2, 3))
    seg.add_argument("--frame-ms", dest="frame_ms", type=int, choices=(10, 20, 30))
    seg.add_argument(
        "--min-pause-ms", dest="min_pause_ms", type=int, help="minimum pause length (ms)"
    )
    seg.add_argument(
        "--streaming",
        action=argparse.BooleanOptionalAction,
        help="drive the incremental engine (hybrid strategies only)",
    )
    seg.add_argument("--format", choices=("yaml", "jsonl"))
    seg.add_argument(
        "--emit-dropped",
        dest="emit_dropped",
        action=argparse.BooleanOptionalAction,
        help="include discarded audio as dropped entries",
    )
    seg.add_argument(
        "--raw-rate",
        dest="raw_rate",
        type=int,
        help="treat inputs as headerless PCM16 at this sample rate",
    )
    seg.add_argument("--output", "-o", help="manifest path ('-' for stdout)")
    seg.add_argument("--jobs", type=int, help="parallel workers for multiple inputs")
    seg.add_argument("--config", help="key = value config file")

    st = sub.add_parser("stats", help="Table-style statistics for a manifest")
    st.add_argument("manifest")
    st.add_argument(
        "--total-duration",
        dest="total_duration",
        type=float,
        help="audio duration (s); default: manifest header, else coverage",
    )
    st.add_argument("--json", action=argparse.BooleanOptionalAction)
    st.add_argument("--config", help="key = value config file")

    cmp_ = sub.add_parser("compare", help="boundary precision/recall between two manifests")
    cmp_.add_argument("hypothesis")
    cmp_.add_argument("reference")
    cmp_.add_argument("--tolerance", type=float, help="match window (s)")
    cmp_.add_argument(
        "--duration-slack",
        dest="duration_slack",
        type=float,
        help="allowed coverage mismatch (s)",
    )
    cmp_.add_argument("--json", action=argparse.BooleanOptionalAction)
    cmp_.add_argument("--config", help="key = value config file")
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

    keys = [
        "strategy", "length", "min_len", "max_len", "juncture_ms", "aggressiveness",
        "frame_ms", "min_pause_ms", "streaming", "format", "emit_dropped", "raw_rate",
        "output", "jobs",
    ]
    cfg = _resolve(args, keys)
    if cfg["strategy"] not in STRATEGIES:
        raise CliError(f"unknown strategy {cfg['strategy']!r}")
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
    from .manifest import ManifestError, coverage_end, entries_to_segments
    from .metrics import compute_stats, format_stats_table, stats_to_json

    cfg = _resolve(args, ["total_duration", "json"])
    entries, header = _read_manifest_checked(args.manifest)
    total = cfg["total_duration"]
    if total is not None and not math.isfinite(total):
        raise CliError(f"--total-duration must be finite, got {total}")
    if total is None and "total_duration" in header:
        try:
            total = float(header["total_duration"])
        except ValueError:
            total = None
        if total is not None and not math.isfinite(total):
            raise CliError(
                f"malformed manifest {args.manifest}: total_duration {total} is not finite"
            )
    if total is None:
        total = coverage_end(entries)
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
    from .manifest import ManifestError, coverage_end, entries_to_segments
    from .metrics import boundary_prf

    cfg = _resolve(args, ["tolerance", "duration_slack", "json"])
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
    score = boundary_prf(hyp, ref, cfg["tolerance"])
    if cfg["json"]:
        print(
            json.dumps(
                {
                    "precision": score.precision,
                    "recall": score.recall,
                    "f1": score.f1,
                    "tolerance": score.tolerance,
                },
                sort_keys=True,
            )
        )
    else:
        print(f"precision  {score.precision:.3f}")
        print(f"recall     {score.recall:.3f}")
        print(f"f1         {score.f1:.3f}")
        print(f"tolerance  {score.tolerance:.3f}")
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
