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
flag's conversion and allowed values.  ``READS`` says which options each
``segment`` strategy reads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from contextlib import nullcontext
from typing import TYPE_CHECKING

from . import __version__

if TYPE_CHECKING:
    from .segmenters import Segment

# What each strategy reads, and so what its manifest header echoes besides
# `strategy` and `total_duration`.  Only those reading `streaming` take it.
_VAD = ("aggressiveness", "frame_ms")
READS = {
    "fixed": ("length",),
    "vad": _VAD,  # segment_vad_merge keeps every run, however short
    "srpol": (*_VAD, "min_pause_ms", "max_len"),
    "hybrid": (*_VAD, "min_pause_ms", "min_len", "max_len", "streaming"),
    "hybrid-force": (*_VAD, "min_pause_ms", "min_len", "max_len", "streaming", "juncture_ms"),
}
STRATEGIES = tuple(READS)
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
    "streaming": (SEGMENT, False, None, None, "hybrid only: keep to what a live stream can do"),
    "format": (SEGMENT, "yaml", str, ("yaml", "jsonl"), "manifest format"),
    "emit_dropped": (SEGMENT, False, None, None, "include discarded audio as dropped entries"),
    "raw_rate": (SEGMENT, None, int, None, "read inputs as headerless PCM16 at this rate"),
    "output": (SEGMENT, "-", str, None, "manifest path ('-' for stdout)"),
    "jobs": (SEGMENT, None, int, None, "parallel workers for multiple inputs"),
    "total_duration": (
        ("stats",), None, float, None, "audio duration (s); default: header, else coverage"
    ),
    "tolerance": (("compare",), 0.5, float, None, "match window (s)"),
    "duration_slack": (("compare",), 0.03, float, None, "allowed mismatch of the two totals (s)"),
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
    """Blank, comment or `key = value` lines.  '#' starts a comment, except in a value
    in one pair of quotes, which is taken as written.  Values of `keys` are converted;
    other known keys are ignored."""
    line_re = re.compile(  # groups: key, quote, quoted value, unquoted value
        r"""\s*(?:([^=#]*?)\s*=\s*(?:(["'])(.*?)\2|([^"'#\s][^#]*?|))\s*)?(?:#.*)?""", re.S
    )
    values = {}
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, 1):
                m = line_re.fullmatch(line)
                if m is None:
                    raise CliError(f"{path}:{lineno}: expected key = value (quotes must close)")
                if m[1] is None:
                    continue
                key = m[1].replace("-", "_")
                if key not in OPTIONS:
                    raise CliError(f"{path}:{lineno}: unknown option {key!r}")
                if key in keys:
                    values[key] = _coerce(key, m[3] if m[2] else m[4], f"{path}:{lineno}")
    except (OSError, UnicodeDecodeError) as exc:
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


def _cmd_segment(args: argparse.Namespace, cfg: dict) -> int:
    from .audio import block_rate, iter_pcm16_chunks, iter_wav_chunks, samples_per_frame
    from .manifest import SEAM_TOLERANCE, render_manifest, segments_to_entries, write_manifest
    from .segmenters import HybridParams, SrpolParams, segment_fixed
    from .vad import BlockSegmenter, VadConfig

    strategy, frame_ms, raw_rate = cfg["strategy"], cfg["frame_ms"], cfg["raw_rate"]
    emit_dropped = cfg["emit_dropped"]
    reads = READS[strategy]
    if cfg["jobs"] is not None and cfg["jobs"] < 1:
        raise CliError(f"--jobs must be at least 1, got {cfg['jobs']}")
    if raw_rate is not None:
        try:
            block_rate(raw_rate)
        except ValueError as exc:
            raise CliError(f"--raw-rate must be usable: {exc}") from exc
    if args.inputs.count("-") > 1:
        raise CliError("standard input ('-') can be read only once")
    if "-" in args.inputs and sys.stdin is None:  # the process started with fd 0 closed
        raise CliError("cannot read -: standard input is closed")
    if cfg["streaming"] and "streaming" not in reads:
        if strategy == "srpol":
            raise CliError("strategy requires full audio: srpol cannot run with --streaming")
        raise CliError(f"--streaming is not supported for strategy {strategy!r}")
    if cfg["min_pause_ms"] is None:
        cfg["min_pause_ms"] = frame_ms
    min_pause = cfg["min_pause_ms"]
    if "min_pause_ms" in reads and min_pause < frame_ms:
        raise CliError(f"min_pause_ms ({min_pause}) must be at least one frame ({frame_ms} ms)")
    if cfg["streaming"] and min_pause > frame_ms:
        raise CliError(
            f"--streaming cannot honour --min-pause-ms {min_pause} above "
            f"--frame-ms {frame_ms}: a pause's length is unknown at the horizon"
        )
    # The strategy's parameters, built and checked once before any input is opened, so
    # a bad value names no audio file: `fixed` needs only each input's sample count,
    # every other strategy a BlockSegmenter per input (`vad` keeps every run).
    fixed, hybrid, length = strategy == "fixed", strategy.startswith("hybrid"), cfg["length"]
    if fixed and not 0 < length < math.inf:
        raise CliError(f"--length must be positive and finite, got {length}")
    if not fixed and raw_rate is not None:
        try:
            samples_per_frame(raw_rate, frame_ms)
        except ValueError as exc:
            raise CliError(f"--raw-rate must be usable with --frame-ms: {exc}") from exc
    try:
        params = SrpolParams(cfg["max_len"]) if strategy == "srpol" else None
        if hybrid:
            force = strategy == "hybrid-force"
            params = HybridParams(cfg["min_len"], cfg["max_len"], force, cfg["juncture_ms"])
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    # six decimals can end a shorter segment at or before the one before it; srpol cuts at pauses only
    bound = "length" if fixed else "max_len" if hybrid else None
    if bound and cfg[bound] < SEAM_TOLERANCE:
        raise CliError(f"{_flag(bound)} must be at least {SEAM_TOLERANCE} s, got {cfg[bound]}")
    vad_cfg = VadConfig(cfg["aggressiveness"], frame_ms)
    scan_pause = min_pause if "min_pause_ms" in reads else None

    def process(path: str) -> tuple[float, list]:
        """Decode `path` block by block into the strategy; a header's faults are
        reported before its rate is found not to frame, and that before the data is read."""
        try:
            with nullcontext(sys.stdin.buffer) if path == "-" else open(path, "rb") as fh:
                rate, blocks = (iter_wav_chunks(fh) if raw_rate is None
                                else iter_pcm16_chunks(fh, raw_rate))
                try:
                    segmenter = None if fixed else BlockSegmenter(params, vad_cfg, rate, scan_pause)
                except ValueError as exc:  # the rate does not frame
                    raise CliError(f"{path}: {exc}") from exc
                segments, n_samples = [], 0
                for block in blocks:
                    segments += [] if fixed else segmenter.push(block)
                    n_samples += len(block)
        except OSError as exc:
            raise CliError(f"cannot read {path}: {exc}") from exc
        except ValueError as exc:  # WavError too
            raise CliError(f"cannot decode {path}: {exc}") from exc
        duration, name = n_samples / rate, os.path.basename(path)
        try:  # a strategy's fault, or a segment no manifest can hold
            segments = segment_fixed(duration, length) if fixed else segments + segmenter.finish()
            return duration, segments_to_entries(segments, name, duration, emit_dropped)
        except ValueError as exc:
            raise CliError(f"{path}: {exc}") from exc

    workers = cfg["jobs"] or min(len(args.inputs), os.cpu_count() or 1)
    if workers == 1:  # in input order, the first failure raised, as pool.map gives them
        results = [process(path) for path in args.inputs]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(process, args.inputs))

    total = sum(duration for duration, _ in results)
    entries = [e for _, file_entries in results for e in file_entries]
    header = {key: cfg[key] for key in reads}
    header.update(strategy=strategy, total_duration=f"{total:.6f}")
    if cfg["output"] == "-":
        sys.stdout.write(render_manifest(entries, header, cfg["format"]))
    else:
        try:
            write_manifest(cfg["output"], entries, header, cfg["format"])
        except OSError as exc:
            raise CliError(f"cannot write {cfg['output']}: {exc.strerror}") from exc
    return 0


# -- stats -------------------------------------------------------------------


def _timeline(path: str, total: float | None = None) -> tuple[list[Segment], float]:
    """Manifest `path` as a tiling of [0, total), with that total: `total` (the
    --total-duration flag), else the header's, else the coverage.  A read or format
    error is reported against `path`, a fault of the flag's value against the flag."""
    from .manifest import ManifestError, entries_to_segments, read_manifest

    flag = total is not None
    try:
        entries, header = read_manifest(path)
        if not flag and "total_duration" in header:
            value = header["total_duration"]
            try:  # JSON true is not one second
                total = float(None if isinstance(value, bool) else value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ManifestError(f"total_duration must be a number, got {value!r}") from exc
        segments = entries_to_segments(entries, total)
    except (OSError, UnicodeDecodeError) as exc:  # UTF-8 text only
        raise CliError(f"cannot read {path}: {exc}") from exc
    except ManifestError as exc:
        if flag and str(exc).startswith("total_duration "):  # the library's name for the flag
            raise CliError(_flag("total_duration") + str(exc)[len("total_duration"):]) from exc
        raise CliError(f"malformed manifest {path}: {exc}") from exc
    if total is None:  # the tiling ends where the last entry ends
        total = segments[-1].end if segments else 0.0
    return segments, total


def _cmd_stats(args: argparse.Namespace, cfg: dict) -> int:
    from .metrics import compute_stats, format_stats_table, stats_to_json

    stats = compute_stats(*_timeline(args.manifest, cfg["total_duration"]))
    if cfg["json"]:
        print(stats_to_json(stats))
    else:
        print(format_stats_table({os.path.basename(args.manifest): stats}))
    return 0


# -- compare -----------------------------------------------------------------


def _cmd_compare(args: argparse.Namespace, cfg: dict) -> int:
    from dataclasses import asdict

    from .metrics import boundary_prf

    for key in ("tolerance", "duration_slack"):
        if not 0 <= cfg[key] < math.inf:
            raise CliError(f"{_flag(key)} must be finite and non-negative, got {cfg[key]}")
    hyp, hyp_total = _timeline(args.hypothesis)
    ref, ref_total = _timeline(args.reference)
    if abs(hyp_total - ref_total) > cfg["duration_slack"]:
        raise CliError(
            f"manifests cover different durations: {hyp_total:.6f}s vs {ref_total:.6f}s"
        )
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
    commands = {"segment": _cmd_segment, "stats": _cmd_stats, "compare": _cmd_compare}
    try:
        return commands[args.command](args, _resolve(args))
    except CliError as exc:
        print(f"pausecut: error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())
