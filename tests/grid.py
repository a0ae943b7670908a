"""The output grid: seeded clips, `pausecut` commands on them, and their digests.

Each cell is one command run in process through `cli.main`.  Its digest is
the exit code and the sha256 (first 16 hex digits) of three texts: the
manifest file it writes, its stdout and its stderr, with the temp directory
written as `<tmp>`.  Where stderr carries PyYAML's or the operating system's
wording, only its first fields, pausecut's own prefix, are hashed.
`tests/test_grid.py` compares every cell with `grid_digests.json`.  A change
that alters output on purpose rewrites that file and names the changed cells:

    PYTHONPATH=src python tests/grid.py --write

Without `--write` the script lists the cells that differ.  Clips are built
with integer arithmetic and `random.Random`, so their bytes are the same on
every Python and numpy version.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
import wave
from dataclasses import dataclass
from pathlib import Path
from unittest import mock

import numpy as np

DIGESTS = Path(__file__).with_name("grid_digests.json")
FLOOR_CHUNK = 12800  # vad.FLOOR_CHUNK, written out so the clip stays put if that changes

# name: (sample rate, samples, quiet samples at the end)
CLIPS = {
    "empty": (16000, 0, 0),
    "one-sample": (16000, 1, 0),
    "sub-frame": (16000, 100, 0),
    "frames": (16000, 6 * 16000, 0),  # whole 10, 20 and 30 ms frames
    "ragged": (16000, 6 * 16000 + 77, 0),  # a partial last frame
    "talk": (16000, 45 * 16000 + 123, 0),
    "quiet-end": (16000, 24 * 16000, 4 * 16000),
    "phone": (8000, 12 * 8000 + 5, 0),
    "long": (8000, (2 * FLOOR_CHUNK + 500) * 80 + 17, 0),  # over 2 x FLOOR_CHUNK 10 ms frames
    "odd-rate": (11025, 3 * 11025, 0),  # frames of no whole sample count: exit 1
    "sliver": (8000, 369, 0),  # 0.046125 s: 370 cuts of 0.00012466 s leave 8e-7 s
}
SHAPES = ("empty", "one-sample", "sub-frame", "frames", "ragged", "quiet-end", "phone", "odd-rate")
# Copies of the talk under names on both sides of the YAML writer's plain-name
# rule (letters, digits, `_`, `.` and `-`, not leading with the last two, then
# `.ext`): one inside it, then names it leaves to a read-back, plain or quoted.
# The last is a non-UTF-8 file name as Python sees it on POSIX.
NAMES = {"dotted": "rec-1_a.2.WAV", "space": "my talk.wav", "dash": "-x.wav",
         "time": "rec_12:30:00.wav", "hash": "#1.wav", "yes": "yes", "non-utf8": "talk\udcff.wav"}

# Manifests for `stats` and `compare`, each covering 20 s.
MANIFESTS = {
    "ref.jsonl": "\n".join([
        '{"config": {"strategy": "hybrid", "total_duration": "20.000000"}, "pausecut_manifest": 1}',
        '{"wav": "ted_1.wav", "offset": 0, "duration": 6.5}',
        '{"wav": "ted_1.wav", "offset": 6.5, "duration": 0.5, "dropped": true}',
        '{"wav": "ted_1.wav", "offset": 7, "duration": 3.25}',
        '{"dropped": false, "duration": 9.75, "offset": 10.25, "wav": "ted_1.wav"}',
    ]) + "\n",
    "hyp.yaml": "\n".join([
        "# pausecut manifest v1",
        "# strategy: fixed",
        "# total_duration: 20.000000",
        "- {wav: ted_1.wav, offset: 0.000000, duration: 7.000000}",
        "- {wav: ted_1.wav, offset: 7.000000, duration: 7.000000}",
        "- {wav: ted_1.wav, offset: 14.000000, duration: 6.000000}",
    ]) + "\n",
    # MuST-C style: no header, its own key order, extra keys, integers and one
    # value that only PyYAML reads (so `yaml.load` runs, not the writer's fast path)
    "mustc.yaml": (
        "- {duration: 6.5, offset: 0.0, rW: 17, uW: 0, speaker_id: spk.1, wav: ted_1.wav}\n"
        "- {duration: 3.25, offset: 7, rW: 9, uW: 1, speaker_id: spk.1, wav: ted_1.wav}\n"
        "- {speaker_id: spk.2, wav: ted_1.wav, offset: 10.25, duration: 9.75, uW: 0, rW: 30}\n"
    ),
    "short.yaml": "- {duration: 12.0, offset: 0.5, speaker_id: spk.1, wav: ted_1.wav}\n",
    "bad-record.jsonl": '{"wav": "ted_1.wav", "offset": "0.5", "duration": 1.0}\n',
    "bad-seconds.jsonl": '{"wav": "ted_1.wav", "offset": 0, "duration": 1e999}\n',
    "bad.yaml": "- {wav: ted_1.wav, offset: [0.0, duration: 1.0}\n",
}

STRATEGIES = {
    "fixed": ("--length", "3.7"),
    "vad": (),
    "srpol": ("--max-len", "7.3"),
    "hybrid": ("--min-len", "5.1", "--max-len", "7.3"),
    "hybrid-force": ("--min-len", "5.1", "--max-len", "7.3", "--juncture-ms", "430"),
}


@dataclass(frozen=True)
class Cell:
    id: str
    argv: tuple[str, ...]
    stdin: str | None = None  # the input file fed as standard input
    err_fields: int | None = None  # hash only this many ": "-separated fields of stderr


def _samples(seed: int, n: int, rate: int, quiet_tail: int) -> np.ndarray:
    """Loud pseudo-noise bursts of 0.3-4 s between quiet gaps of 0.02-1.2 s."""
    i = np.arange(n, dtype=np.int64)
    loud = (i * 7919 + seed * 104729) % 20011 - 10005
    quiet = (i * 31 + seed) % 61 - 30
    speech = np.zeros(n, bool)
    rnd, t, talking = random.Random(seed), 0, True
    while t < n - quiet_tail:
        span = int(rate * (0.3 + 3.7 * rnd.random() if talking else 0.02 + 1.18 * rnd.random()))
        if talking:
            speech[t : min(t + span, n - quiet_tail)] = True
        t, talking = t + span, not talking
    return np.where(speech, loud, quiet).astype("<i2")


def _write_wav(path: Path, samples: np.ndarray, rate: int) -> None:
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(rate)
        w.writeframes(samples.tobytes())


def write_inputs(tmp: Path) -> None:
    """Every clip as `<name>.wav`, the talk as raw PCM, as an unfinalised WAV and
    under each of NAMES, and MANIFESTS."""
    for seed, (name, (rate, n, tail)) in enumerate(CLIPS.items(), 1):
        samples = _samples(seed, n, rate, tail)
        _write_wav(tmp / f"{name}.wav", samples, rate)
        if name == "talk":
            (tmp / "talk.pcm").write_bytes(samples.tobytes())
    data = bytearray((tmp / "talk.wav").read_bytes())
    data[40:44] = b"\xff" * 4  # a capture tool's data size, never finalised
    (tmp / "unfinalised.wav").write_bytes(data)
    for name in NAMES.values():
        (tmp / name).write_bytes((tmp / "talk.wav").read_bytes())
    for name, text in MANIFESTS.items():
        (tmp / name).write_bytes(text.encode())


def _segment(cid, inputs, strategy, *options, fmt="yaml", stdin=None, err_fields=None):
    """`segment` with the grid's lengths for `strategy`, writing `<cid>.<fmt>`."""
    argv = ("segment", "--strategy", strategy, *STRATEGIES[strategy], *options,
            "--format", fmt, "-o", f"{{tmp}}/{cid}.{fmt}")
    inputs = tuple(a if a == "-" else f"{{tmp}}/{a}" for a in inputs)
    return Cell(cid, argv + inputs, stdin, err_fields)


def cells() -> list[Cell]:
    out = []
    # every strategy on the talk: both formats, +- emit-dropped, each frame length
    for strategy in STRATEGIES:
        for ms in (10, 20, 30):
            for fmt in ("yaml", "jsonl"):
                for dropped in ((), ("--emit-dropped",)):
                    cid = f"talk-{strategy}-{ms}-{fmt}{'-emit-dropped' if dropped else ''}"
                    out.append(_segment(cid, ["talk.wav"], strategy, "--frame-ms", str(ms), *dropped, fmt=fmt))
    for ms in (10, 20, 30):
        for strategy in ("srpol", "hybrid", "hybrid-force"):
            pause = str(3 * ms)
            out.append(_segment(f"talk-{strategy}-{ms}-pause3", ["talk.wav"], strategy,
                                "--frame-ms", str(ms), "--min-pause-ms", pause))
        for strategy in ("hybrid", "hybrid-force"):
            out.append(_segment(f"talk-{strategy}-{ms}-streaming", ["talk.wav"], strategy,
                                "--frame-ms", str(ms), "--streaming"))
    # the built-in defaults, manifest on stdout
    out.append(Cell("talk-defaults", ("segment", "{tmp}/talk.wav")))
    for strategy in STRATEGIES:
        out.append(Cell(f"talk-{strategy}-defaults", ("segment", "--strategy", strategy, "{tmp}/talk.wav")))
    # clip shapes: a fixed sample of frame lengths, formats and emit-dropped
    for k, clip in enumerate(SHAPES):
        for j, strategy in enumerate(STRATEGIES):
            ms, fmt = (10, 20, 30)[(k + j) % 3], ("yaml", "jsonl")[(k + j) % 2]
            dropped = ("--emit-dropped",) if (k + j) % 4 == 3 else ()
            out.append(_segment(f"{clip}-{strategy}", [f"{clip}.wav"], strategy,
                                "--frame-ms", str(ms), *dropped, fmt=fmt))
        out.append(_segment(f"{clip}-hybrid-force-streaming", [f"{clip}.wav"], "hybrid-force", "--streaming"))
    for strategy in STRATEGIES:
        out.append(_segment(f"long-{strategy}", ["long.wav"], strategy, "--frame-ms", "10", "--emit-dropped"))
    for strategy in ("hybrid", "hybrid-force"):
        out.append(_segment(f"long-{strategy}-streaming", ["long.wav"], strategy,
                            "--frame-ms", "10", "--streaming"))
    # standard input, raw PCM and an unfinalised WAV
    for strategy, options in (("hybrid", ()), ("hybrid", ("--streaming",)), ("srpol", ()),
                              ("vad", ("--emit-dropped",))):
        cid = f"stdin-{strategy}{'-streaming' if options else ''}"
        out.append(_segment(cid, ["-"], strategy, *options, stdin="talk.wav"))
        out.append(_segment(f"unfinalised-{strategy}{'-streaming' if options else ''}",
                            ["unfinalised.wav"], strategy, *options))
    out.append(_segment("raw-hybrid-force", ["talk.pcm"], "hybrid-force", "--raw-rate", "16000"))
    out.append(_segment("raw-stdin-vad", ["-"], "vad", "--raw-rate", "16000", "--emit-dropped",
                        fmt="jsonl", stdin="talk.pcm"))
    out.append(_segment("raw-stdin-fixed", ["-"], "fixed", "--raw-rate", "8000", stdin="talk.pcm"))
    # several inputs, one and two workers
    three = ["talk.wav", "ragged.wav", "quiet-end.wav"]
    for jobs in ("1", "2"):
        for strategy, options, fmt in (("hybrid", (), "yaml"), ("vad", ("--emit-dropped",), "yaml"),
                                       ("srpol", (), "jsonl"), ("hybrid-force", ("--streaming",), "jsonl")):
            out.append(_segment(f"three-{strategy}-jobs{jobs}", three, strategy,
                                "--jobs", jobs, *options, fmt=fmt))
    out.append(_segment("three-stdin", ["talk.wav", "-", "phone.wav"], "hybrid", "--jobs", "2",
                        stdin="frames.wav"))
    out.append(_segment("three-odd-rate", ["talk.wav", "odd-rate.wav", "frames.wav"], "srpol", "--jobs", "2"))
    # wav names on either side of the writer's plain-name rule, in YAML
    for slug, name in NAMES.items():
        out.append(_segment(f"name-{slug}", [name], "hybrid"))
    out += [
        _segment("missing-input", ["missing.wav"], "hybrid", err_fields=3),  # the OS's words
        _segment("jobs-zero", ["talk.wav"], "hybrid", "--jobs", "0"),
        _segment("srpol-streaming", ["talk.wav"], "srpol", "--streaming"),
        _segment("pause-below-frame", ["talk.wav"], "hybrid", "--min-pause-ms", "10"),
        _segment("streaming-long-pause", ["talk.wav"], "hybrid", "--streaming", "--min-pause-ms", "60"),
        _segment("two-stdin", ["-", "-"], "vad", stdin="talk.wav"),
        _segment("raw-rate-odd", ["talk.pcm"], "vad", "--raw-rate", "8001"),
        Cell("length-nan", ("segment", "--strategy", "fixed", "--length", "nan", "{tmp}/talk.wav")),
        Cell("max-len-inf", ("segment", "--max-len", "inf", "{tmp}/talk.wav")),
        Cell("min-len-past-max", ("segment", "--min-len", "30", "{tmp}/talk.wav")),
        # lengths six decimals write as 0 s, on the empty clip so that a walk that
        # ran anyway would end at once
        Cell("length-rounds-to-zero", ("segment", "--strategy", "fixed", "--length", "1e-300",
                                       "{tmp}/empty.wav")),
        Cell("max-len-rounds-to-zero", ("segment", "--min-len", "1e-300", "--max-len", "1e-300",
                                        "{tmp}/empty.wav")),
        # under the 1e-5 s seam tolerance: refused before the input is opened
        Cell("length-under-seam", ("segment", "--strategy", "fixed", "--length", "6e-7", "{tmp}/sub-frame.wav")),
        Cell("max-len-under-seam", ("segment", "--min-len", "6e-7", "--max-len", "6e-7", "{tmp}/sub-frame.wav")),
        # a last remainder that six decimals end where the entry before it ends is left out
        Cell("fixed-last-sliver", ("segment", "--strategy", "fixed", "--length", "0.00012466",
                                   "-o", "{tmp}/fixed-last-sliver.yaml", "{tmp}/sliver.wav")),
        Cell("hybrid-last-sliver", ("segment", "--min-len", "0.00012466", "--max-len", "0.00012466",
                                    "-o", "{tmp}/hybrid-last-sliver.yaml", "{tmp}/sliver.wav")),
    ]
    # stats and compare on JSON lines, pausecut YAML and MuST-C YAML
    for name in ("ref.jsonl", "hyp.yaml", "mustc.yaml", "talk-vad-20-yaml.yaml", "talk-srpol-30-jsonl.jsonl",
                 "name-space.yaml", "name-non-utf8.yaml", "fixed-last-sliver.yaml"):
        out.append(Cell(f"stats-{name}", ("stats", f"{{tmp}}/{name}")))
        out.append(Cell(f"stats-json-{name}", ("stats", "--json", f"{{tmp}}/{name}")))
    out.append(Cell("stats-total", ("stats", "--json", "--total-duration", "25", "{tmp}/mustc.yaml")))
    out.append(Cell("stats-short-total", ("stats", "--json", "--total-duration", "15", "{tmp}/ref.jsonl")))
    out.append(Cell("stats-bad-record", ("stats", "--json", "{tmp}/bad-record.jsonl")))
    out.append(Cell("stats-bad-seconds", ("stats", "--json", "{tmp}/bad-seconds.jsonl")))
    out.append(Cell("stats-bad-yaml", ("stats", "--json", "{tmp}/bad.yaml"), err_fields=4))  # PyYAML's words
    for hyp, ref in (("hyp.yaml", "ref.jsonl"), ("ref.jsonl", "mustc.yaml"), ("mustc.yaml", "hyp.yaml"),
                     ("talk-hybrid-20-yaml.yaml", "talk-vad-20-yaml-emit-dropped.yaml"),
                     ("talk-hybrid-force-30-jsonl.jsonl", "talk-srpol-30-yaml.yaml")):
        out.append(Cell(f"compare-json-{hyp}-{ref}",
                        ("compare", "--json", f"{{tmp}}/{hyp}", f"{{tmp}}/{ref}")))
    out.append(Cell("compare-table", ("compare", "{tmp}/hyp.yaml", "{tmp}/mustc.yaml")))
    out.append(Cell("compare-tolerance",
                    ("compare", "--json", "--tolerance", "0.05", "{tmp}/hyp.yaml", "{tmp}/ref.jsonl")))
    out.append(Cell("compare-durations", ("compare", "--json", "{tmp}/short.yaml", "{tmp}/hyp.yaml")))
    out.append(Cell("compare-tolerance-negative",
                    ("compare", "--tolerance", "-1", "{tmp}/hyp.yaml", "{tmp}/hyp.yaml")))
    return out


def _sha(data: bytes | None) -> str | None:
    return None if data is None else hashlib.sha256(data).hexdigest()[:16]


def run_cell(cell: Cell, tmp: Path) -> dict:
    """The cell's exit code and the digests of its manifest, stdout and stderr."""
    from pausecut import cli

    argv = [a.replace("{tmp}", str(tmp)) for a in cell.argv]
    stdin = io.TextIOWrapper(io.BytesIO((tmp / cell.stdin).read_bytes() if cell.stdin else b""))
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", stdin), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is output too: its type stands in for the code
            code = type(exc).__name__
    stderr = err.getvalue().replace(str(tmp), "<tmp>")
    if cell.err_fields is not None:
        stderr = ": ".join(stderr.split(": ")[: cell.err_fields])
    target = argv[argv.index("-o") + 1] if "-o" in argv else "-"
    manifest = Path(target).read_bytes() if target != "-" and os.path.exists(target) else None
    return {"exit": code, "manifest": _sha(manifest),
            "stdout": _sha(out.getvalue().replace(str(tmp), "<tmp>").encode()),
            "stderr": _sha(stderr.encode())}


def run(tmp: Path) -> dict[str, dict]:
    """Every cell's digest, in cell order, with no PAUSECUT_* variable set."""
    write_inputs(tmp)
    env = {k: v for k, v in os.environ.items() if not k.startswith("PAUSECUT_")}
    with mock.patch.dict(os.environ, env, clear=True):
        return {cell.id: run_cell(cell, tmp) for cell in cells()}


def changed(got: dict, want: dict) -> list[str]:
    """Ids whose digest differs from `want`, or that only one side has."""
    return [cid for cid in {**want, **got} if got.get(cid) != want.get(cid)]


def versions() -> str:
    import platform

    import yaml

    libyaml = "with" if yaml.__with_libyaml__ else "without"
    return (f"Python {platform.python_version()}, numpy {np.__version__}, "
            f"PyYAML {yaml.__version__} {libyaml} libyaml")


def main(argv: list[str]) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        got = run(Path(tmp))
    if argv == ["--write"]:
        lines = (f" {json.dumps(cid)}: {json.dumps(d)}" for cid, d in got.items())
        DIGESTS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
        print(f"wrote {len(got)} cells to {DIGESTS}")
        return 0
    ids = changed(got, json.loads(DIGESTS.read_text()))
    print(f"{len(ids)} of {len(got)} cells differ ({versions()})", *ids, sep="\n")
    return 1 if ids else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
