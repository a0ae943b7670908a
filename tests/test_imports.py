"""Each entry point loads only what it runs.

`stats`, `compare` and `--version` do no audio work, so their processes
must not pay for importing numpy; `--version`, `stats` and `compare` on
JSON lines, and `segment`, `stats` and `compare` on YAML whose wav names
need no read-back, must not load PyYAML either.  `segment`, with or without
`--streaming`, must not load the streaming engine, nor stdlib `wave`,
which only writing a WAV needs, nor, with one worker, a thread pool.
Every check starts a fresh interpreter with `-X importtime`, whose stderr
names each module the process imports.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pausecut
from pausecut import write_wav
from pausecut.manifest import ManifestEntry, render_manifest

from conftest import clip_from, silence, tone

SRC = Path(pausecut.__file__).resolve().parent.parent


def imported_modules(*args: str, cwd=None) -> set[str]:
    """Full names of the modules a fresh `python -X importtime ARGS` imports; it must exit 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True, text=True, env=env, cwd=cwd,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    modules = set()
    for line in proc.stderr.splitlines():
        fields = line.split("|")  # "import time: SELF | CUMULATIVE | MODULE"
        if line.startswith("import time:") and len(fields) == 3 and fields[1].strip().isdigit():
            modules.add(fields[2].strip())
    return modules


def imported(*args: str, cwd=None) -> set[str]:
    """Top-level packages of `imported_modules(*args)`."""
    return {name.split(".")[0] for name in imported_modules(*args, cwd=cwd)}


@pytest.fixture(scope="module")
def manifests(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("manifests")
    entries = [
        ManifestEntry("talk.wav", 0.0, 6.0),
        ManifestEntry("talk.wav", 6.0, 2.0, dropped=True),
        ManifestEntry("talk.wav", 8.0, 2.0),
    ]
    header = {"strategy": "hybrid", "total_duration": "10.000000"}
    paths = {}
    for fmt in ("yaml", "jsonl"):
        paths[fmt] = tmp / f"m.{fmt}"
        paths[fmt].write_text(render_manifest(entries, header, fmt))
    # a name outside the writer's plain-name rule: reading it takes a read-back
    paths["read-back"] = tmp / "space.yaml"
    spaced = [ManifestEntry("my talk.wav", e.offset, e.duration, e.dropped) for e in entries]
    paths["read-back"].write_text(render_manifest(spaced, header))
    return paths


@pytest.mark.parametrize(
    "module",
    ["pausecut", "pausecut.manifest", "pausecut.metrics", "pausecut.segmenters", "pausecut.cli"],
)
def test_import_loads_no_numpy(module):
    modules = imported("-c", f"import {module}")
    assert "pausecut" in modules
    assert "numpy" not in modules


def test_version_loads_neither_numpy_nor_yaml():
    modules = imported("-m", "pausecut", "--version")
    assert "pausecut" in modules
    assert not modules & {"numpy", "yaml"}


@pytest.mark.parametrize("fmt", ["yaml", "jsonl"])
def test_stats_loads_no_numpy(manifests, fmt):
    assert "numpy" not in imported("-m", "pausecut", "stats", str(manifests[fmt]))


def test_compare_loads_no_numpy(manifests):
    modules = imported("-m", "pausecut", "compare", str(manifests["yaml"]), str(manifests["jsonl"]))
    assert "numpy" not in modules


def test_jsonl_reports_load_neither_numpy_nor_yaml(manifests):
    jsonl = str(manifests["jsonl"])
    assert not imported("-m", "pausecut", "stats", jsonl) & {"numpy", "yaml"}
    assert not imported("-m", "pausecut", "compare", jsonl, jsonl) & {"numpy", "yaml"}


def test_yaml_report_loads_yaml(manifests):
    # the probe sees PyYAML where it is used, so the checks around it are not vacuous
    assert "yaml" in imported("-m", "pausecut", "stats", str(manifests["read-back"]))


def test_plain_names_load_no_yaml(tmp_path, manifests):
    # names like t.wav are plain by the writer's rule, on the way out and back in
    wav, out = tmp_path / "t.wav", tmp_path / "m.yaml"
    write_wav(wav, clip_from(tone(1.0), silence(0.5), tone(1.0)))
    assert "yaml" not in imported("-m", "pausecut", "segment", str(wav), "-o", str(out))
    assert "{wav: t.wav, " in out.read_text()
    assert "yaml" not in imported("-m", "pausecut", "stats", str(out))
    assert "yaml" not in imported("-m", "pausecut", "compare", str(out), str(out))
    assert "yaml" not in imported("-m", "pausecut", "stats", str(manifests["yaml"]))


def test_segment_loads_numpy(tmp_path):
    # the probe sees numpy where it is used, so the checks above are not vacuous
    wav = tmp_path / "t.wav"
    write_wav(wav, clip_from(tone(1.0), silence(0.5), tone(1.0)))
    assert "numpy" in imported("-m", "pausecut", "segment", str(wav), "-o", str(tmp_path / "m.yaml"))


def test_segment_loads_engine_only_for_streaming(tmp_path):
    wav = tmp_path / "t.wav"
    write_wav(wav, clip_from(tone(1.0), silence(0.5), tone(1.0)))
    segment = ("-m", "pausecut", "segment", str(wav), "-o", str(tmp_path / "m.yaml"))
    assert "pausecut.streaming" not in imported_modules(*segment)
    assert "pausecut.streaming" not in imported_modules(*segment, "--streaming")


def test_one_worker_loads_no_thread_pool(tmp_path):
    wav = tmp_path / "t.wav"
    write_wav(wav, clip_from(tone(1.0), silence(0.5), tone(1.0)))
    segment = ("-m", "pausecut", "segment", "-o", str(tmp_path / "m.yaml"))
    assert "concurrent" not in imported(*segment, str(wav))
    assert "concurrent" not in imported(*segment, "--jobs", "1", str(wav), str(wav))
    # the probe sees the pool where it is used
    assert "concurrent" in imported(*segment, "--jobs", "2", str(wav), str(wav))


def test_segment_does_not_load_wave(tmp_path):
    # only writing a WAV needs stdlib `wave`; reading one parses the RIFF chunks itself
    wav = tmp_path / "t.wav"
    write_wav(wav, clip_from(tone(1.0), silence(0.5), tone(1.0)))
    assert "wave" not in imported_modules("-m", "pausecut", "segment", str(wav))
    write = f"import pausecut as pc; pc.write_wav({str(wav)!r}, pc.AudioClip([0], 8000))"
    assert "wave" in imported_modules("-c", write)  # the probe sees it where it is used


class TestPackageNames:
    def test_star_import_binds_exactly_all(self):
        namespace = {}
        exec("from pausecut import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(pausecut.__all__)

    @pytest.mark.parametrize("name", sorted(set(pausecut.__all__) - {"__version__"}))
    def test_name_is_its_home_module_object(self, name):
        value = getattr(pausecut, name)
        home = importlib.import_module(value.__module__)
        assert home.__name__.startswith("pausecut.")
        assert getattr(home, name) is value

    def test_frame_is_audio_frame(self):
        import pausecut.audio

        assert pausecut.Frame is pausecut.audio.Frame

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(pausecut, "no_such_name")
        assert not hasattr(pausecut, "StreamingSegmenterX")

    def test_dir_lists_public_names(self):
        assert set(pausecut.__all__) <= set(dir(pausecut))
