import argparse
import io
import json
import math
import os
import struct
import subprocess
import sys
import threading

import numpy as np
import pytest

from pausecut import HybridParams, Segment, SrpolParams, VadConfig, classify, compute_stats
from pausecut import detect_pauses, read_wav, segment_fixed, segment_hybrid, segment_hybrid_force
from pausecut import segment_srpol, segment_vad_merge, write_wav
from pausecut import audio, cli, encode_wav, manifest, vad
from pausecut.cli import STRATEGIES, main
from pausecut.manifest import entries_to_segments, read_manifest, render_manifest, ManifestEntry
from pausecut.metrics import boundary_prf, stats_rows

from conftest import clip_from, silence, speechy_clip, tone


@pytest.fixture
def talk_wav(tmp_path):
    clip = clip_from(
        tone(5.0), silence(0.3), tone(12.7), silence(0.4), tone(0.6),
        silence(0.6), tone(25.4),
    )  # 45 s with usable pauses
    path = tmp_path / "talk.wav"
    write_wav(path, clip)
    return path


def run(args):
    return main([str(a) for a in args])


class TestSegment:
    def test_fixed_manifest(self, talk_wav, tmp_path, capsys):
        out = tmp_path / "fixed.yaml"
        code = run(["segment", "--strategy", "fixed", "--length", "20", "-o", out, talk_wav])
        assert code == 0
        entries, header = read_manifest(out)
        duration = read_wav(talk_wav).duration
        assert len(entries) == math.ceil(duration / 20.0)
        assert header["strategy"] == "fixed"
        assert float(header["total_duration"]) == duration

    def test_hybrid_respects_length_bound(self, talk_wav, tmp_path):
        out = tmp_path / "hyb.yaml"
        code = run([
            "segment", "--strategy", "hybrid", "--min-len", "17", "--max-len", "20",
            "-o", out, talk_wav,
        ])
        assert code == 0
        entries, _ = read_manifest(out)
        assert all(e.duration <= 20.0 + 1e-9 for e in entries)

    def test_srpol_streaming_rejected(self, talk_wav, capsys):
        code = run(["segment", "--strategy", "srpol", "--streaming", talk_wav])
        assert code == 1
        assert "strategy requires full audio" in capsys.readouterr().err

    def test_srpol_on_a_thousand_equal_pauses(self, tmp_path):
        # 1,100 periods of 0.2 s tone and 0.1 s silence give equal pauses,
        # which a recursive split would peel off one nesting level each.
        period = np.concatenate([tone(0.2, 8000), silence(0.1, 8000)])
        path = tmp_path / "regular.wav"
        write_wav(path, clip_from(*[period] * 1100, rate=8000))
        out = tmp_path / "srpol.yaml"
        code = run([
            "segment", "--strategy", "srpol", "--frame-ms", "10", "--max-len", "0.25",
            "-o", out, path,
        ])
        assert code == 0
        entries, _ = read_manifest(out)
        assert len(entries) >= 1000

    def test_streaming_rejected_for_fixed(self, talk_wav, capsys):
        code = run(["segment", "--strategy", "fixed", "--streaming", talk_wav])
        assert code == 1
        assert "not supported" in capsys.readouterr().err

    def test_streaming_equals_batch_manifest(self, talk_wav, tmp_path):
        batch, stream = tmp_path / "b.yaml", tmp_path / "s.yaml"
        assert run(["segment", "--strategy", "hybrid-force", "-o", batch, talk_wav]) == 0
        assert run(["segment", "--strategy", "hybrid-force", "--streaming", "-o", stream, talk_wav]) == 0
        batch_entries, _ = read_manifest(batch)
        stream_entries, _ = read_manifest(stream)
        assert batch_entries == stream_entries

    def test_deterministic_output_bytes(self, talk_wav, tmp_path):
        a, b = tmp_path / "a.yaml", tmp_path / "b.yaml"
        argv = ["segment", "--strategy", "hybrid", talk_wav]
        assert run(argv + ["-o", a]) == 0
        assert run(argv + ["-o", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_vad_drops_silence(self, tmp_path):
        clip = clip_from(tone(2.0), silence(1.0), tone(2.0))
        wav = tmp_path / "c.wav"
        write_wav(wav, clip)
        kept_only = tmp_path / "k.yaml"
        with_dropped = tmp_path / "d.yaml"
        assert run(["segment", "--strategy", "vad", "-o", kept_only, wav]) == 0
        assert run(["segment", "--strategy", "vad", "--emit-dropped", "-o", with_dropped, wav]) == 0
        kept, _ = read_manifest(kept_only)
        full, _ = read_manifest(with_dropped)
        assert all(not e.dropped for e in kept)
        assert any(e.dropped for e in full)
        assert len(full) > len(kept)

    def test_multiple_inputs_ordered(self, tmp_path):
        w1, w2 = tmp_path / "one.wav", tmp_path / "two.wav"
        write_wav(w1, clip_from(tone(3.0)))
        write_wav(w2, clip_from(tone(4.0)))
        out = tmp_path / "m.yaml"
        assert run(["segment", "--strategy", "fixed", "--length", "2", "-o", out, w1, w2]) == 0
        entries, _ = read_manifest(out)
        assert [e.wav for e in entries] == ["one.wav", "one.wav", "two.wav", "two.wav"]

    def test_raw_pcm_input(self, tmp_path):
        clip = clip_from(tone(1.5))
        raw = tmp_path / "audio.pcm"
        raw.write_bytes(clip.samples.tobytes())
        out = tmp_path / "r.yaml"
        assert run(["segment", "--strategy", "fixed", "--length", "1", "--raw-rate", "16000", "-o", out, raw]) == 0
        entries, _ = read_manifest(out)
        assert [e.duration for e in entries] == [1.0, 0.5]

    def test_jsonl_format(self, talk_wav, tmp_path, capsys):
        code = run(["segment", "--strategy", "fixed", "--length", "20", "--format", "jsonl", talk_wav])
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith('{"')

    def test_missing_file_names_it(self, capsys):
        code = run(["segment", "nope.wav"])
        assert code == 1
        assert "nope.wav" in capsys.readouterr().err

    def test_output_directory_rejected_without_temp_file(self, talk_wav, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        assert run(["segment", "--strategy", "fixed", "-o", out, talk_wav]) == 1
        assert f"cannot write {out}" in capsys.readouterr().err
        assert out.is_dir() and not any(out.iterdir())
        assert not list(tmp_path.glob(".manifest-*"))

    @pytest.mark.parametrize("existing", [False, True], ids=["missing-dir", "directory"])
    def test_unwritable_output_names_only_its_path(self, talk_wav, tmp_path, capsys, existing):
        out = tmp_path / "out" if existing else tmp_path / "missing" / "x.yaml"
        if existing:
            out.mkdir()
        reason = "Is a directory" if existing else "No such file or directory"
        assert run(["segment", "--strategy", "fixed", "-o", out, talk_wav]) == 1
        assert capsys.readouterr().err == f"pausecut: error: cannot write {out}: {reason}\n"

    def test_output_through_symlink_writes_its_target(self, talk_wav, tmp_path, capsys):
        real, link = tmp_path / "real.yaml", tmp_path / "link.yaml"
        real.write_text("stale\n")
        link.symlink_to(real.name)
        assert run(["segment", "--strategy", "fixed", "-o", link, talk_wav]) == 0
        assert link.is_symlink() and os.readlink(link) == real.name
        assert read_manifest(real)[1]["strategy"] == "fixed"
        assert not list(tmp_path.glob(".manifest-*"))
        dangling = tmp_path / "dangling.yaml"
        dangling.symlink_to(tmp_path / "missing" / "x.yaml")
        assert run(["segment", "--strategy", "fixed", "-o", dangling, talk_wav]) == 1
        err = capsys.readouterr().err
        assert err == f"pausecut: error: cannot write {dangling}: No such file or directory\n"

    def test_raw_rate_framing_checked_only_where_frames_are_read(self, tmp_path, capsys):
        pcm = tmp_path / "t.pcm"
        pcm.write_bytes(np.zeros(8001 * 3, dtype="<i2").tobytes())
        args = ["segment", "--raw-rate", "8001", pcm, tmp_path / "missing.pcm"]
        assert run(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("pausecut: error: --raw-rate must be usable with --frame-ms: ")
        assert "t.pcm" not in err
        assert run(["segment", "--strategy", "fixed", "--raw-rate", "8001", pcm]) == 0
        assert "duration: 3.000000" in capsys.readouterr().out

    def test_plain_hybrid_ignores_juncture_ms(self, talk_wav, capsys):
        assert run(["segment", "--strategy", "hybrid", talk_wav]) == 0
        expected = capsys.readouterr().out
        assert run(["segment", "--strategy", "hybrid", "--juncture-ms", "0", talk_wav]) == 0
        assert capsys.readouterr().out == expected
        assert run(["segment", "--strategy", "hybrid-force", "--juncture-ms", "0", talk_wav]) == 1
        assert "juncture_ms must be positive" in capsys.readouterr().err

    def test_undectable_file_names_it(self, tmp_path, capsys):
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"not audio at all")
        assert run(["segment", bad]) == 1
        assert "bad.wav" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv", [["hybrid"], ["hybrid", "--streaming"], ["vad"]], ids=["batch", "streaming", "vad"]
    )
    def test_rate_without_whole_frames_names_the_file(self, tmp_path, capsys, argv):
        wav = tmp_path / "odd.wav"
        write_wav(wav, clip_from(tone(2.0, rate=11025), rate=11025))  # 220.5 samples per 20 ms
        out = tmp_path / "out.yaml"
        assert run(["segment", "-o", out, "--strategy", *argv, wav]) == 1
        assert capsys.readouterr().err.startswith(
            f"pausecut: error: {wav}: incompatible rate/frame: 11025 Hz"
        )
        assert not out.exists()
        assert run(["segment", "-o", out, "--strategy", "fixed", wav]) == 0
        assert read_manifest(out)[0][0].duration == 2.0

    @pytest.mark.parametrize(
        "strategy,streaming",
        [("srpol", False), ("hybrid", False), ("hybrid-force", False),
         ("hybrid", True), ("hybrid-force", True)],
    )
    def test_min_pause_below_frame_rejected_before_reading(
        self, talk_wav, tmp_path, capsys, strategy, streaming
    ):
        out = tmp_path / "out.yaml"
        argv = ["segment", "--strategy", strategy, "--min-pause-ms", "10", "-o", out]
        argv += ["--streaming"] if streaming else []
        assert run(argv + [talk_wav, tmp_path / "missing.wav"]) == 1
        err = capsys.readouterr().err
        assert "min_pause_ms (10) must be at least one frame (20 ms)" in err
        assert "missing.wav" not in err  # rejected before any input is opened
        assert not out.exists()

    def test_vad_takes_any_min_pause(self, talk_wav, tmp_path, monkeypatch):
        # like fixed, vad neither reads nor echoes min_pause_ms
        plain, flag, env = (tmp_path / f"{name}.yaml" for name in ("plain", "flag", "env"))
        assert run(["segment", "--strategy", "vad", "-o", plain, talk_wav]) == 0
        assert run(["segment", "--strategy", "vad", "--min-pause-ms", "10", "-o", flag, talk_wav]) == 0
        monkeypatch.setenv("PAUSECUT_MIN_PAUSE_MS", "10")  # as left set for hybrid runs
        assert run(["segment", "--strategy", "vad", "-o", env, talk_wav]) == 0
        assert flag.read_bytes() == env.read_bytes() == plain.read_bytes()
        assert "min_pause_ms" not in read_manifest(flag)[1]


class TestStreamingOptions:
    def test_min_pause_flag_rejected(self, talk_wav, capsys):
        argv = ["segment", "--strategy", "hybrid-force", "--streaming", "--min-pause-ms", "600"]
        assert run(argv + [talk_wav]) == 1
        err = capsys.readouterr().err
        assert "--streaming" in err and "--min-pause-ms" in err

    def test_min_pause_env_rejected(self, talk_wav, monkeypatch, capsys):
        monkeypatch.setenv("PAUSECUT_MIN_PAUSE_MS", "40")
        assert run(["segment", "--streaming", talk_wav]) == 1
        err = capsys.readouterr().err
        assert "--streaming" in err and "--min-pause-ms" in err

    def test_min_pause_of_one_frame_accepted(self, talk_wav, tmp_path):
        batch, stream = tmp_path / "b.yaml", tmp_path / "s.yaml"
        argv = ["segment", "--frame-ms", "30", "--min-pause-ms", "30", talk_wav]
        assert run(argv + ["-o", batch]) == 0
        assert run(argv + ["--streaming", "-o", stream]) == 0
        assert read_manifest(stream)[0] == read_manifest(batch)[0]

    def test_random_options_streaming_equals_batch(self, tmp_path):
        def without_streaming(text, fmt):
            lines = text.splitlines()
            if fmt == "jsonl":
                head = json.loads(lines[0])
                del head["config"]["streaming"]
                return [head] + lines[1:]
            return [line for line in lines if not line.startswith("# streaming:")]

        rng = np.random.default_rng(0x57E4)
        wav = tmp_path / "talk.wav"
        write_wav(wav, speechy_clip(rng, 75.0))
        for case in range(16):
            min_len = round(float(rng.uniform(0.5, 15.0)), 3)
            fmt = str(rng.choice(["yaml", "jsonl"]))
            argv = [
                "segment",
                "--strategy", str(rng.choice(["hybrid", "hybrid-force"])),
                "--min-len", min_len,
                "--max-len", round(min_len + float(rng.uniform(0.0, 10.0)), 3),
                "--juncture-ms", int(rng.integers(50, 1500)),
                "--aggressiveness", int(rng.integers(0, 4)),
                "--frame-ms", int(rng.choice([10, 20, 30])),
                "--format", fmt,
                wav,
            ]
            batch, stream = tmp_path / f"b{case}", tmp_path / f"s{case}"
            assert run(argv + ["-o", batch]) == 0
            assert run(argv + ["--streaming", "-o", stream]) == 0
            b, s = batch.read_text(), stream.read_text()
            assert b != s
            assert without_streaming(b, fmt) == without_streaming(s, fmt), argv


class TestConfigResolution:
    def test_config_file_and_flag_precedence(self, talk_wav, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("strategy = fixed\nlength = 10  # comment\n")
        out = tmp_path / "m.yaml"
        assert run(["segment", "--config", cfg, "-o", out, talk_wav]) == 0
        entries, header = read_manifest(out)
        assert header["strategy"] == "fixed"
        assert entries[0].duration == 10.0
        # explicit flag wins over the file
        assert run(["segment", "--config", cfg, "--length", "15", "-o", out, talk_wav]) == 0
        entries, _ = read_manifest(out)
        assert entries[0].duration == 15.0

    def test_env_overrides_file_but_not_flag(self, talk_wav, tmp_path, monkeypatch):
        cfg = tmp_path / "run.conf"
        cfg.write_text("strategy = fixed\nlength = 10\n")
        monkeypatch.setenv("PAUSECUT_LENGTH", "12")
        out = tmp_path / "m.yaml"
        assert run(["segment", "--config", cfg, "-o", out, talk_wav]) == 0
        entries, _ = read_manifest(out)
        assert entries[0].duration == 12.0
        assert run(["segment", "--config", cfg, "--length", "14", "-o", out, talk_wav]) == 0
        entries, _ = read_manifest(out)
        assert entries[0].duration == 14.0

    def test_quoted_value_keeps_its_hash(self, talk_wav, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.conf"
        cfg.write_text("strategy = 'fixed'  # comment\noutput = \"take#2.yaml\"  # comment\n")
        assert run(["segment", "--config", cfg, talk_wav]) == 0
        assert sorted(os.listdir(tmp_path)) == ["run.conf", "take#2.yaml", "talk.wav"]
        assert read_manifest(tmp_path / "take#2.yaml")[1]["strategy"] == "fixed"

    def test_unknown_config_key(self, talk_wav, tmp_path, capsys):
        cfg = tmp_path / "run.conf"
        cfg.write_text("no_such_option = 1\n")
        assert run(["segment", "--config", cfg, talk_wav]) == 1
        assert "unknown option" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config,message",
        [
            ("no-equals", "run.conf:2: expected key = value"),
            ("missing", "cannot read config file"),
            ("directory", "cannot read config file"),
            ("unclosed-quote", "run.conf:2: expected key = value"),
        ],
    )
    def test_bad_config_file(self, tmp_path, capsys, config, message):
        cfg = tmp_path / "run.conf"
        if config == "no-equals":
            cfg.write_text("strategy = fixed\nlength 10\n")
        elif config == "unclosed-quote":
            cfg.write_text('strategy = fixed\noutput = "take#2.yaml\n')
        elif config == "directory":
            cfg.mkdir()
        audio = tmp_path / "a.wav"  # never created: reading it would fail differently
        assert run(["segment", "--config", cfg, audio]) == 1
        err = capsys.readouterr().err
        assert err.startswith("pausecut: error: ") and message in err
        assert "a.wav" not in err


def run_from(source, tmp_path, monkeypatch, command, key, text, positionals):
    """Run `command` with option `key` set to `text` by flag, environment or config file."""
    argv = [command]
    if source == "flag":
        argv += ["--" + key.replace("_", "-"), text]
    elif source == "env":
        monkeypatch.setenv("PAUSECUT_" + key.upper(), text)
    else:
        conf = tmp_path / "run.conf"
        conf.write_text(f"{key} = {text}\n")
        argv += ["--config", conf]
    return run(argv + positionals)


class TestOptionValues:
    """Config and environment text gets the checks a flag gets, before any input is read."""

    @pytest.mark.parametrize("source", ["flag", "env", "config"])
    @pytest.mark.parametrize(
        "key,text",
        [("format", "xml"), ("aggressiveness", "7"), ("frame_ms", "25"), ("strategy", "bogus")],
    )
    def test_bad_choice(self, tmp_path, monkeypatch, capsys, source, key, text):
        audio = [tmp_path / "a.wav"]  # never created: reading it would fail differently
        if source == "flag":
            with pytest.raises(SystemExit) as exc:
                run_from(source, tmp_path, monkeypatch, "segment", key, text, audio)
            assert exc.value.code == 2
            return
        assert run_from(source, tmp_path, monkeypatch, "segment", key, text, audio) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("pausecut: error:")
        assert key in captured.err and repr(text) in captured.err
        assert "a.wav" not in captured.err
        assert captured.out == ""

    # What the parameter objects say; every other case names its flag.
    PARAMS_MESSAGES = {
        ("segment", "max_len", "0"): "need 0 < min_len <= max_len, got (17.0, 0.0)",
        ("segment", "min_len", "30"): "need 0 < min_len <= max_len, got (30.0, 20.0)",
        ("hybrid-force", "juncture_ms", "0"): "juncture_ms must be positive",
        ("srpol", "max_len", "-1"): "max_len must be positive",
        ("srpol", "max_len", "nan"): "max_len must be positive",
        ("segment", "max_len", "inf"): "max_len must be a finite int or float, got inf",
        ("hybrid-force", "max_len", "inf"): "max_len must be a finite int or float, got inf",
        ("srpol", "max_len", "inf"): "max_len must be positive",
        ("hybrid-force", "juncture_ms", "1" + "0" * 400):
            "juncture_ms must be a finite int or float, got 1" + "0" * 400,
    }

    @pytest.mark.parametrize("source", ["flag", "env", "config"])
    @pytest.mark.parametrize(
        "command,key,text",
        [
            ("segment", "jobs", "-1"),
            ("segment", "jobs", "0"),
            ("compare", "tolerance", "-1"),
            ("compare", "tolerance", "nan"),
            ("compare", "duration_slack", "-0.5"),
            ("compare", "duration_slack", "inf"),
            ("segment", "max_len", "0"),
            ("segment", "min_len", "30"),
            ("hybrid-force", "juncture_ms", "0"),
            ("fixed", "length", "0"),
            ("fixed", "length", "nan"),
            ("fixed", "length", "inf"),
            ("srpol", "max_len", "-1"),
            ("srpol", "max_len", "nan"),
            ("srpol", "max_len", "inf"),
            ("segment", "max_len", "inf"),
            ("hybrid-force", "max_len", "inf"),
            pytest.param("hybrid-force", "juncture_ms", "1" + "0" * 400, id="juncture-int-past-float"),
            ("segment", "raw_rate", "0"),
            ("segment", "raw_rate", "8001"),
            ("segment", "raw_rate", "9000000"),
            ("fixed", "raw_rate", "9000000"),
        ],
    )
    def test_out_of_range(self, tmp_path, monkeypatch, capsys, source, command, key, text):
        positionals = [tmp_path / "a.wav", tmp_path / "b.wav"]  # never created
        message = self.PARAMS_MESSAGES.get((command, key, text))
        if command in cli.STRATEGIES:  # `segment --strategy COMMAND`
            command, positionals = "segment", ["--strategy", command, *positionals]
        assert run_from(source, tmp_path, monkeypatch, command, key, text, positionals) == 1
        err = capsys.readouterr().err
        assert err.startswith("pausecut: error: " + (message or cli._flag(key) + " must be"))
        assert "a.wav" not in err

    @pytest.mark.parametrize("source", ["flag", "env", "config"])
    def test_total_shorter_than_coverage(self, tmp_path, monkeypatch, capsys, source):
        path = tmp_path / "m.yaml"
        entries = [
            ManifestEntry("a.wav", 0.0, 1.0),
            ManifestEntry("a.wav", 1.0, 1.0, dropped=True),
            ManifestEntry("a.wav", 2.0, 1.0),
        ]
        path.write_text(render_manifest(entries, {}))

        def stats(text):
            return run_from(source, tmp_path, monkeypatch, "stats", "total_duration", text, [path])

        for text in ("0.5", "-5", "2.9999"):
            assert stats(text) == 1
            captured = capsys.readouterr()
            assert "--total-duration must be non-negative" in captured.err
            assert captured.out == ""
        # a total inside the six-decimal seam tolerance is the coverage
        assert stats("2.999995") == 0


class TestOptionTable:
    """Each option is declared once, in cli.OPTIONS, and every source can set it."""

    POSITIONALS = {"segment": ["a.wav"], "stats": ["m.yaml"], "compare": ["h.yaml", "r.yaml"]}

    def test_flags_are_the_table_rows(self):
        parser = cli._build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == {c for row in cli.OPTIONS.values() for c in row[0]}
        for command, subparser in sub.choices.items():
            expected = {"-h", "--help", "--config"}
            for key, (commands, _, conv, _, _) in cli.OPTIONS.items():
                if command in commands:
                    flag = "--" + key.replace("_", "-")
                    expected.add(flag)
                    expected.add("--no-" + flag[2:] if conv is None else flag)
                    expected |= {"-o"} if key == "output" else set()
            flags = {flag for action in subparser._actions for flag in action.option_strings}
            assert flags == expected, command

    @pytest.mark.parametrize("key", sorted(cli.OPTIONS))
    def test_every_source_sets_the_same_value(self, tmp_path, monkeypatch, key):
        commands, default, conv, choices, _ = cli.OPTIONS[key]
        flag = "--" + key.replace("_", "-")
        text = "true" if conv is None else str(choices[-1]) if choices else "3"
        flag_argv = [flag] if conv is None else [flag, text]
        conf = tmp_path / "run.conf"
        conf.write_text(f"{key} = {text}\n")
        env = "PAUSECUT_" + key.upper()
        for command in commands:
            values = []
            for argv, env_text in ((flag_argv, None), ([], text), (["--config", str(conf)], None)):
                monkeypatch.delenv(env, raising=False)
                if env_text is not None:
                    monkeypatch.setenv(env, env_text)
                args = cli._build_parser().parse_args([command, *argv, *self.POSITIONALS[command]])
                value = cli._resolve(args)[key]
                values.append((type(value), value))
            assert values[0] == values[1] == values[2], (command, values)
            assert values[0][1] != default


class TestStats:
    def fixture_manifest(self, tmp_path):
        entries = [
            ManifestEntry("a.wav", 0.0, 6.0),
            ManifestEntry("a.wav", 6.0, 2.0, dropped=True),
            ManifestEntry("a.wav", 8.0, 2.0),
        ]
        path = tmp_path / "fx.yaml"
        path.write_text(render_manifest(entries, {"total_duration": "10.000000"}))
        return path

    def test_report_values(self, tmp_path, capsys):
        assert run(["stats", self.fixture_manifest(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "% filtered" in out and "20.00" in out
        assert "Num segm." in out and "2" in out
        assert "Max len (s)" in out and "6.00" in out

    def test_empty_manifest(self, tmp_path, capsys):
        path = tmp_path / "e.yaml"
        path.write_text(render_manifest([], {}))
        assert run(["stats", path]) == 0
        out = capsys.readouterr().out
        assert "Num segm." in out and "0" in out and "-" in out

    def test_json_output(self, tmp_path, capsys):
        import json

        assert run(["stats", self.fixture_manifest(tmp_path), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["pct_filtered"] == 20.0 and data["num_segments"] == 2

    @pytest.mark.parametrize(
        "name, options",
        [("talk.wav", []), ("talk.wav", ["--strategy", "vad", "--emit-dropped"]), ("a, b.wav", [])],
        ids=["plain", "emit-dropped", "quoted-name"],
    )
    def test_yaml_and_jsonl_twins_print_the_same(self, talk_wav, tmp_path, capsys, name, options):
        wav = talk_wav.rename(tmp_path / name)
        printed = []
        for fmt in ("yaml", "jsonl"):
            out = tmp_path / f"m.{fmt}"
            assert run(["segment", "--format", fmt, *options, "-o", out, wav]) == 0
            assert run(["stats", out, "--json"]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]
        text = (tmp_path / "m.yaml").read_text(encoding="utf-8")
        assert ("dropped: true" in text) == ("--emit-dropped" in options)
        # a quoted name is read by yaml.load, every other line without it
        assert (manifest._written_entries(text) is None) == (name != "talk.wav")

    def test_malformed_manifest(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("- {wav: a, offset: [}")
        assert run(["stats", path]) == 1
        assert "malformed" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_header_total_rejected(self, tmp_path, capsys, value):
        path = tmp_path / "t.yaml"
        path.write_text(render_manifest([ManifestEntry("a.wav", 0.0, 1.0)], {"total_duration": value}))
        assert run(["stats", path, "--json"]) == 1
        captured = capsys.readouterr()
        assert f"malformed manifest {path}: total_duration" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "text,shown",
        [
            ("# total_duration: abc\n- {wav: a.wav, offset: 0.0, duration: 1.0}\n", "'abc'"),
            ('{"pausecut_manifest": 1, "config": {"total_duration": [3]}}\n', "[3]"),
            ('{"pausecut_manifest": 1, "config": {"total_duration": true}}\n', "True"),
            ('{"pausecut_manifest": 1, "config": {"total_duration": null}}\n', "None"),
        ],
        ids=["yaml-text", "jsonl-list", "jsonl-bool", "jsonl-null"],
    )
    def test_non_number_header_total_rejected(self, tmp_path, capsys, text, shown):
        path = tmp_path / "t.manifest"
        path.write_text(text)
        assert run(["stats", path, "--json"]) == 1
        captured = capsys.readouterr()
        expected = f"malformed manifest {path}: total_duration must be a number, got {shown}"
        assert captured.err == f"pausecut: error: {expected}\n"
        assert captured.out == ""

    def test_numeric_jsonl_header_total_accepted(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        path.write_text(render_manifest([ManifestEntry("a.wav", 0.0, 1.0)], {"total_duration": 4}, "jsonl"))
        assert run(["stats", path, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["pct_filtered"] == 75.0

    def test_non_finite_flag_total_rejected(self, tmp_path, capsys):
        path = self.fixture_manifest(tmp_path)
        assert run(["stats", path, "--json", "--total-duration", "inf"]) == 1
        captured = capsys.readouterr()
        assert "--total-duration must be finite" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("value", ["0.5", "-5"])
    def test_header_total_shorter_than_coverage_rejected(self, tmp_path, capsys, value):
        path = tmp_path / "t.yaml"
        entries = [
            ManifestEntry("a.wav", 0.0, 1.0),
            ManifestEntry("a.wav", 1.0, 1.0, dropped=True),
            ManifestEntry("a.wav", 2.0, 1.0),
        ]
        path.write_text(render_manifest(entries, {"total_duration": value}))
        assert run(["stats", path, "--json"]) == 1
        captured = capsys.readouterr()
        assert f"malformed manifest {path}: total_duration must be non-negative" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "text",
        [
            "- {wav: a.wav, offset: %s, duration: %s}\n" % ((f"{1e308:.6f}",) * 2),
            "- {wav: a.wav, offset: 1.0e+308, duration: 1.0e+308}\n",
            "- {wav: a.wav, offset: 0, duration: 1.0e+308}\n"
            "- {wav: a.wav, offset: 1.0e+308, duration: 1.0e+308}\n",
            '{"wav": "a.wav", "offset": 1e308, "duration": 1e308}\n',
            '{"wav": "a.wav", "offset": 0.0, "duration": 1e308}\n'
            '{"wav": "a.wav", "offset": 1e308, "duration": 1e308}\n',
        ],
        ids=["yaml-as-written", "foreign-yaml", "foreign-yaml-two", "jsonl", "jsonl-two"],
    )
    def test_entry_ending_past_the_float_range_rejected(self, tmp_path, capsys, text):
        # offset + duration overflows to inf: stats printed NaN and Infinity, compare F1 = 1
        path = tmp_path / "m.manifest"
        path.write_text(text)
        for argv in (["stats", path], ["stats", "--json", path], ["compare", "--json", path, path]):
            assert run(argv) == 1
            captured = capsys.readouterr()
            expected = f"malformed manifest {path}: non-finite end in record at offset 1e+308"
            assert captured.err == f"pausecut: error: {expected}\n"
            assert captured.out == ""

    @pytest.mark.parametrize(
        "text,fault",
        [
            ("- {wav: a.wav, offset: -5.000000, duration: 1.000000}\n", "negative offset"),
            ("- {wav: a.wav, offset: -5.0, duration: 1.0}\n", "negative offset"),
            ('{"wav": "a.wav", "offset": -5.0, "duration": 1.0}\n', "negative offset"),
            ("- {wav: a.wav, offset: %.6f, duration: 1.000000}\n" % 1e17, "duration below"),
            ("- {wav: a.wav, offset: 1000.0, duration: 1.0e-20}\n", "duration below"),
            ('{"wav": "a.wav", "offset": 1000.0, "duration": 1e-20}\n', "duration below"),
        ],
        ids=["negative-yaml-as-written", "negative-foreign-yaml", "negative-jsonl",
             "ulp-yaml-as-written", "ulp-foreign-yaml", "ulp-jsonl"],
    )
    def test_record_at_fault_alone_is_no_overlap(self, tmp_path, capsys, text, fault):
        # one record, so no neighbour it could overlap; the fault is named with its wav
        path = tmp_path / "m.manifest"
        path.write_text(text)
        assert run(["stats", path]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"pausecut: error: malformed manifest {path}: {fault}")
        assert captured.err.endswith(" in record for 'a.wav'\n") and captured.out == ""

    def test_roundtrip_matches_in_process(self, talk_wav, tmp_path, capsys):
        out = tmp_path / "h.yaml"
        assert run(["segment", "--strategy", "hybrid", "-o", out, talk_wav]) == 0
        assert run(["stats", out]) == 0
        report = capsys.readouterr().out

        entries, header = read_manifest(out)
        total = float(header["total_duration"])
        stats = compute_stats(entries_to_segments(entries, total), total)
        for label, value in stats_rows(stats):
            row = next(line for line in report.splitlines() if line.startswith(label))
            assert value in row

    def test_whole_tiling_filters_nothing(self, tmp_path, capsys):
        # the last entry ends at 28.0 + 2.027125 = 30.027124999999998, an ulp
        # short of the header's 30.027125; that sliver is no dropped audio
        wav, out = tmp_path / "a.wav", tmp_path / "m.yaml"
        write_wav(wav, speechy_clip(np.random.default_rng(1), 480_434 / 16000))
        for strategy in (["fixed", "--length", "7"], ["srpol"], ["hybrid"], ["hybrid-force"]):
            assert run(["segment", "--strategy", *strategy, "-o", out, wav]) == 0
            assert run(["stats", out, "--json"]) == 0
            assert json.loads(capsys.readouterr().out)["pct_filtered"] == 0.0, strategy

    @pytest.mark.parametrize("fmt", ["yaml", "jsonl"])
    @pytest.mark.parametrize("length,seconds", [("0.3333333", 1), ("19.9999999", 40)])
    def test_tail_written_as_zero_seconds_dropped(self, tmp_path, capsys, fmt, length, seconds):
        # the last fixed segment is under 5e-7 s, which six decimals write as 0
        wav, out = tmp_path / "a.wav", tmp_path / "m"
        write_wav(wav, clip_from(silence(seconds, 8000), rate=8000))
        argv = ["segment", "--strategy", "fixed", "--length", length, "--format", fmt, "-o", out]
        assert run(argv + [wav]) == 0
        assert run(["stats", out, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["pct_filtered"] == 0.0

    @pytest.mark.parametrize("strategy", [["fixed", "--length", "0.00012466"],
                                          ["hybrid", "--min-len", "0.00012466", "--max-len", "0.00012466"]])
    def test_last_sliver_written_before_the_previous_end_dropped(self, tmp_path, capsys, strategy):
        # 369 samples at 8 kHz leave an 8e-7 s remainder after the 370th cut, which six
        # decimals write as ending where the entry before it ends
        wav, out = tmp_path / "c.wav", tmp_path / "m.yaml"
        write_wav(wav, clip_from(silence(369 / 8000, 8000), rate=8000))
        assert run(["segment", "--strategy", *strategy, "-o", out, wav]) == 0
        assert len(read_manifest(out)[0]) == 370
        assert run(["stats", out, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["pct_filtered"] == 0.0

    def test_inner_segment_written_as_zero_seconds_names_the_input(self, tmp_path, capsys):
        # a length six decimals write as 0 s is the flag's fault, refused before the walk
        wav, out = tmp_path / "a.wav", tmp_path / "m.yaml"
        write_wav(wav, clip_from(tone(0.001)))
        assert run(["segment", "--strategy", "fixed", "--length", "4e-7", "-o", out, wav]) == 1
        assert capsys.readouterr().err == "pausecut: error: --length must be at least 1e-05 s, got 4e-07\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "strategy",
        [["fixed", "--length", "1e-300"], ["hybrid", "--min-len", "1e-300", "--max-len", "1e-300"],
         ["hybrid-force", "--min-len", "5e-7", "--max-len", "5e-7"], ["fixed", "--length", "6e-7"],
         ["hybrid", "--min-len", "6e-7", "--max-len", "6e-7"], ["fixed", "--length", "9.99e-6"]],
        ids=["fixed", "hybrid", "hybrid-force", "fixed-6e-7", "hybrid-6e-7", "fixed-under-seam"],
    )
    def test_length_written_as_zero_seconds_refused_before_any_input(self, tmp_path, capsys, strategy):
        # every segment would be built before the writer refused the first (unbounded
        # for 1e-300), so a length under the seam tolerance, within which six decimals
        # can end an entry at or before the one before it, is refused first: the
        # missing input is never opened
        flag, value = strategy[-2:]
        assert run(["segment", "--strategy", *strategy, str(tmp_path / "missing.wav")]) == 1
        assert capsys.readouterr().err == f"pausecut: error: {flag} must be at least 1e-05 s, got {float(value)}\n"

    def test_srpol_max_len_written_as_zero_seconds_cuts_at_pauses(self, tmp_path, capsys):
        wav = tmp_path / "a.wav"
        write_wav(wav, clip_from(np.concatenate([tone(0.5), silence(0.3), tone(0.5)])))
        assert run(["segment", "--strategy", "srpol", "--max-len", "1e-300", "-o", "-", wav]) == 0
        assert capsys.readouterr().out.count("{wav: a.wav") == 2

    def test_microsecond_entries_refused_or_read_back(self):
        # six decimals can end an entry at or before the previous entry's end; `segment`
        # refuses such lengths before any input, so the writer is swept on its own
        refused = []
        for length in [*np.linspace(5e-7, 4e-6, 200).tolist(), 1.5e-6]:
            duration = 0.01 if length == 1.5e-6 else 0.0005
            try:
                entries = manifest.segments_to_entries(segment_fixed(duration, length), "a.wav", duration)
            except ValueError as exc:  # overlapping, or a length that six decimals write as 0 s
                assert str(exc).startswith(("overlapping segments at", "segment [")), length
                refused.append(length)
                continue
            read = manifest.parse_manifest(render_manifest(entries, {}))[0]
            assert entries_to_segments(read, float(f"{duration:.6f}"))[-1].kept, length
        assert 0 < len(refused) < 201 and refused[-1] == 1.5e-6  # the 10 ms clip at 1.5e-6 s


class TestCompare:
    def write_fixed(self, tmp_path, wav, length, name):
        out = tmp_path / name
        assert run(["segment", "--strategy", "fixed", "--length", str(length), "-o", out, wav]) == 0
        return out

    def test_self_comparison(self, talk_wav, tmp_path, capsys):
        m = self.write_fixed(tmp_path, talk_wav, 12, "a.yaml")
        assert run(["compare", m, m]) == 0
        assert "f1         1.000" in capsys.readouterr().out

    def test_fixed20_vs_fixed10_over_40s(self, tmp_path, capsys):
        wav = tmp_path / "forty.wav"
        write_wav(wav, clip_from(tone(40.0)))
        hyp = self.write_fixed(tmp_path, wav, 20, "h.yaml")
        ref = self.write_fixed(tmp_path, wav, 10, "r.yaml")
        assert run(["compare", hyp, ref, "--tolerance", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "precision  1.000" in out
        assert "recall     0.333" in out

    def test_zero_tolerance_offset_boundaries(self, tmp_path, capsys):
        wav = tmp_path / "w.wav"
        write_wav(wav, clip_from(tone(30.0)))
        hyp = self.write_fixed(tmp_path, wav, 9, "h.yaml")
        ref = self.write_fixed(tmp_path, wav, 11, "r.yaml")
        assert run(["compare", hyp, ref, "--tolerance", "0"]) == 0
        assert "f1         0.000" in capsys.readouterr().out

    def test_duration_mismatch(self, tmp_path, capsys):
        w1, w2 = tmp_path / "a.wav", tmp_path / "b.wav"
        write_wav(w1, clip_from(tone(30.0)))
        write_wav(w2, clip_from(tone(33.0)))
        m1 = self.write_fixed(tmp_path, w1, 10, "m1.yaml")
        m2 = self.write_fixed(tmp_path, w2, 10, "m2.yaml")
        assert run(["compare", m1, m2]) == 1
        assert "different durations" in capsys.readouterr().err

    def test_json(self, talk_wav, tmp_path, capsys):
        import json

        m = self.write_fixed(tmp_path, talk_wav, 15, "j.yaml")
        assert run(["compare", m, m, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["f1"] == 1.0

    def test_vad_ending_in_silence_against_hybrid(self, tmp_path, capsys):
        # a vad manifest stops at its last speech; its header still gives 45 s
        wav = tmp_path / "talk.wav"
        write_wav(wav, clip_from(speechy_clip(np.random.default_rng(2), 44.0).samples, silence(1.0)))
        vad, twin, hybrid = tmp_path / "vad.yaml", tmp_path / "twin.yaml", tmp_path / "hyb.yaml"
        assert run(["segment", "--strategy", "vad", "-o", vad, wav]) == 0
        assert run(["segment", "--strategy", "vad", "--emit-dropped", "-o", twin, wav]) == 0
        assert run(["segment", "-o", hybrid, wav]) == 0
        assert read_manifest(vad)[0][-1].end < 45.0 - 0.03
        assert run(["compare", twin, hybrid]) == 0
        expected = capsys.readouterr().out
        assert run(["compare", vad, hybrid]) == 0
        assert capsys.readouterr().out == expected

    STRATEGY_ARGV = {
        "fixed": ["--strategy", "fixed", "--length", "4"],
        "vad": ["--strategy", "vad"],
        "srpol": ["--strategy", "srpol", "--max-len", "5"],
        "hybrid": ["--strategy", "hybrid", "--min-len", "3", "--max-len", "5"],
        "hybrid-force": ["--strategy", "hybrid-force", "--min-len", "3", "--max-len", "5"],
    }

    @staticmethod
    def library_tiling(clip, strategy):
        """What `segment` writes, as a tiling of the clip, built without the CLI."""
        if strategy == "fixed":
            return segment_fixed(clip.duration, 4.0)
        track = classify(clip, VadConfig())
        pauses, span = detect_pauses(track, 20), track.duration
        if strategy == "vad":
            segments = segment_vad_merge(track)
        elif strategy == "srpol":
            segments = segment_srpol(Segment(0.0, span), pauses, SrpolParams(5.0))
        else:
            params = HybridParams(3.0, 5.0, strategy == "hybrid-force", 550)
            scan = segment_hybrid_force if params.force_split else segment_hybrid
            segments = scan(pauses, span, params)
        clamped = [Segment(s.start, min(s.end, clip.duration), s.kept) for s in segments]
        return [s for s in clamped if s.end > s.start]

    @pytest.mark.parametrize("fmt", ["yaml", "jsonl"])
    def test_property_headers_twins_and_library_agree(self, tmp_path, capsys, rng, fmt):
        def compare(hyp, ref):
            assert run(["compare", hyp, ref, "--tolerance", repr(tolerance), "--json"]) == 0
            return json.loads(capsys.readouterr().out)

        for case in range(12):
            clip = speechy_clip(rng, float(rng.uniform(8.0, 30.0)))
            wav = tmp_path / f"c{case}.wav"
            write_wav(wav, clip)
            tolerance = float(rng.uniform(0.05, 1.0))  # off the frame grid: no ties
            sides = [str(s) for s in rng.choice(list(self.STRATEGY_ARGV), 2)]
            paths = {}
            for side, strategy in enumerate(sides):
                for dropped in (False, True):
                    path = tmp_path / f"c{case}-{side}-{dropped}.{fmt}"
                    argv = ["segment", "--format", fmt, *self.STRATEGY_ARGV[strategy], "-o", path]
                    assert run([*argv, "--emit-dropped", wav] if dropped else [*argv, wav]) == 0
                    paths[side, dropped] = path
            report = compare(paths[0, False], paths[1, False])
            assert report == compare(paths[0, True], paths[1, True]), sides
            hyp, ref = (self.library_tiling(clip, strategy) for strategy in sides)
            score = boundary_prf(hyp, ref, tolerance)
            assert report == {
                "precision": score.precision,
                "recall": score.recall,
                "f1": score.f1,
                "tolerance": tolerance,
            }, sides
            swapped = compare(paths[1, False], paths[0, False])
            assert (swapped["precision"], swapped["recall"]) == (report["recall"], report["precision"])
            assert swapped["f1"] == report["f1"]


class TestForeignManifests:
    # a MuST-C-style reference: extra keys, its own key order, no header
    MUSTC = (
        "- {duration: 6.5, offset: 0.0, rW: 17, uW: 0, speaker_id: spk.1, wav: ted_1.wav}\n"
        "- {duration: 3.25, offset: 7.0, rW: 9, uW: 1, speaker_id: spk.1, wav: ted_1.wav}\n"
        "- {speaker_id: spk.2, wav: ted_1.wav, offset: 10.25, duration: 9.75, uW: 0, rW: 30}\n"
    )

    def test_stats_on_mustc_yaml(self, tmp_path, capsys):
        path = tmp_path / "ref.yaml"
        path.write_text(self.MUSTC)
        assert run(["stats", path, "--json"]) == 0
        entries, _ = read_manifest(path)
        total = 20.0
        expected = compute_stats(entries_to_segments(entries, total), total)
        assert json.loads(capsys.readouterr().out) == {
            "pct_filtered": expected.pct_filtered,
            "num_segments": expected.num_segments,
            "max_len": expected.max_len,
            "min_len": expected.min_len,
            "avg_len": expected.avg_len,
        }

    def test_compare_against_mustc_yaml(self, tmp_path, capsys):
        ref = tmp_path / "ref.yaml"
        ref.write_text(self.MUSTC)
        wav = tmp_path / "ted_1.wav"
        write_wav(wav, clip_from(tone(20.0)))
        hyp = tmp_path / "hyp.yaml"
        assert run(["segment", "--strategy", "fixed", "--length", "7", "-o", hyp, wav]) == 0
        assert run(["compare", hyp, ref, "--tolerance", "0.3", "--json"]) == 0
        score = boundary_prf(
            entries_to_segments(read_manifest(hyp)[0]),
            entries_to_segments(read_manifest(ref)[0]),
            0.3,
        )
        assert json.loads(capsys.readouterr().out) == {
            "precision": score.precision,
            "recall": score.recall,
            "f1": score.f1,
            "tolerance": score.tolerance,
        }
        assert 0 < score.f1 < 1

    @pytest.mark.parametrize("name", ["a, b.wav", "#1.wav", "x: y.wav", "yes", "\udcff.wav"])
    def test_unsafe_wav_name_survives_stats(self, tmp_path, capsys, name):
        wav = tmp_path / name
        write_wav(wav, clip_from(tone(5.0)))
        out = tmp_path / "m.yaml"
        assert run(["segment", "--strategy", "fixed", "--length", "2", "-o", out, wav]) == 0
        assert {e.wav for e in read_manifest(out)[0]} == {name}
        assert run(["stats", out, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["num_segments"] == 3


class TestEntryPoints:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "pausecut" in capsys.readouterr().out

    def test_module_invocation(self, tmp_path):
        import subprocess
        import sys

        env = dict(os.environ)
        proc = subprocess.run(
            [sys.executable, "-m", "pausecut", "--help"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert "segment" in proc.stdout and "compare" in proc.stdout

    @pytest.mark.parametrize("name,status", [("talk.wav", 0), ("missing.wav", 1)])
    def test_console_script_exits_with_mains_status(
        self, talk_wav, monkeypatch, capsys, name, status
    ):
        monkeypatch.setattr("sys.argv", ["pausecut", "segment", str(talk_wav.parent / name)])
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert exc.value.code == status
        assert capsys.readouterr().out.startswith("# pausecut manifest v1") == (status == 0)


class TestTextEncoding:
    def test_no_text_file_takes_the_locale_encoding(self, tmp_path):
        # -X warn_default_encoding warns at every text open that leaves the
        # encoding to the locale; -W error makes each such open fail
        import subprocess
        import sys

        import pausecut

        wav = tmp_path / "caf\u00e9 \u8a00.wav"
        write_wav(wav, clip_from(tone(3.0), silence(0.6), tone(3.0)))
        cfg = tmp_path / "run.conf"
        cfg.write_bytes("\ufeff# r\u00e9glage\nstrategy = fixed\nlength = 2\n".encode("utf-8"))
        src = os.path.dirname(os.path.dirname(os.path.abspath(pausecut.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

        def pausecut_cli(*argv):
            proc = subprocess.run(
                [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
                 "-m", "pausecut", *map(str, argv)],
                capture_output=True, encoding="utf-8", env=env,
            )
            assert proc.returncode == 0, proc.stderr

        for fmt in ("yaml", "jsonl"):
            out = tmp_path / f"m.{fmt}"
            pausecut_cli("segment", "--config", cfg, "--format", fmt, "-o", out, wav)
            assert {e.wav for e in read_manifest(out)[0]} == {wav.name}
            assert read_manifest(out)[1]["length"] in ("2.0", 2.0)
            if fmt == "yaml":  # JSON lines escape every non-ASCII character
                assert wav.name.encode("utf-8") in out.read_bytes()
            pausecut_cli("stats", out)
            pausecut_cli("compare", out, out)


    @pytest.mark.parametrize("command", ["stats", "compare", "--config"])
    def test_non_utf8_file_named(self, talk_wav, tmp_path, capsys, command):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes(b"strategy = fixed  # r\xe9glage\n")  # undecodable before any parse
        args = {"stats": ["stats", bad], "compare": ["compare", bad, bad],
                "--config": ["segment", "--config", bad, talk_wav]}[command]
        prefix = "cannot read config file" if command == "--config" else "cannot read"
        assert run(args) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"pausecut: error: {prefix} {bad}: 'utf-8' codec can't decode")


class TestHeader:
    COMMON = {"strategy", "total_duration"}
    VAD = {"aggressiveness", "frame_ms"}
    KEYS = {
        "fixed": COMMON | {"length"},
        "vad": COMMON | VAD,
        "srpol": COMMON | VAD | {"min_pause_ms", "max_len"},
        "hybrid": COMMON | VAD | {"min_pause_ms", "min_len", "max_len", "streaming"},
        "hybrid-force": COMMON | VAD | {"min_pause_ms", "min_len", "max_len", "streaming", "juncture_ms"},
    }

    @pytest.mark.parametrize("fmt", ["yaml", "jsonl"])
    @pytest.mark.parametrize("strategy", sorted(KEYS))
    def test_keys_per_strategy(self, talk_wav, tmp_path, strategy, fmt):
        out = tmp_path / f"m.{fmt}"
        assert run(["segment", "--strategy", strategy, "--format", fmt, "-o", out, talk_wav]) == 0
        assert set(read_manifest(out)[1]) == self.KEYS[strategy]

    def test_vad_does_not_echo_min_pause(self, talk_wav, tmp_path):
        # segment_vad_merge keeps every run, so the option has no effect there
        out = tmp_path / "v.yaml"
        assert run(["segment", "--strategy", "vad", "--min-pause-ms", "60", "-o", out, talk_wav]) == 0
        assert "min_pause_ms" not in out.read_text()


class TestHeaderLines:
    """The full header of each case: its YAML comment lines and its JSONL config record.

    `min_pause_ms` defaults to one frame, and `streaming` prints as
    Python's False in YAML but as JSON's false in JSONL.
    """

    GOLDEN = {
        "fixed": (
            "length: 20.0|strategy: fixed|total_duration: 45.000000",
            '"length": 20.0, "strategy": "fixed", "total_duration": "45.000000"',
        ),
        "vad": (
            "aggressiveness: 2|frame_ms: 20|strategy: vad|total_duration: 45.000000",
            '"aggressiveness": 2, "frame_ms": 20, "strategy": "vad", "total_duration": "45.000000"',
        ),
        "srpol": (
            "aggressiveness: 2|frame_ms: 20|max_len: 20.0|min_pause_ms: 20|strategy: srpol"
            "|total_duration: 45.000000",
            '"aggressiveness": 2, "frame_ms": 20, "max_len": 20.0, "min_pause_ms": 20, '
            '"strategy": "srpol", "total_duration": "45.000000"',
        ),
        "hybrid": (
            "aggressiveness: 2|frame_ms: 20|max_len: 20.0|min_len: 17.0|min_pause_ms: 20"
            "|strategy: hybrid|streaming: False|total_duration: 45.000000",
            '"aggressiveness": 2, "frame_ms": 20, "max_len": 20.0, "min_len": 17.0, '
            '"min_pause_ms": 20, "strategy": "hybrid", "streaming": false, '
            '"total_duration": "45.000000"',
        ),
        "hybrid-force": (
            "aggressiveness: 2|frame_ms: 20|juncture_ms: 550|max_len: 20.0|min_len: 17.0"
            "|min_pause_ms: 20|strategy: hybrid-force|streaming: False|total_duration: 45.000000",
            '"aggressiveness": 2, "frame_ms": 20, "juncture_ms": 550, "max_len": 20.0, '
            '"min_len": 17.0, "min_pause_ms": 20, "strategy": "hybrid-force", '
            '"streaming": false, "total_duration": "45.000000"',
        ),
        "hybrid --streaming": (
            "aggressiveness: 2|frame_ms: 20|max_len: 20.0|min_len: 17.0|min_pause_ms: 20"
            "|strategy: hybrid|streaming: True|total_duration: 45.000000",
            '"aggressiveness": 2, "frame_ms": 20, "max_len": 20.0, "min_len": 17.0, '
            '"min_pause_ms": 20, "strategy": "hybrid", "streaming": true, '
            '"total_duration": "45.000000"',
        ),
        "hybrid-force --streaming": (
            "aggressiveness: 2|frame_ms: 20|juncture_ms: 550|max_len: 20.0|min_len: 17.0"
            "|min_pause_ms: 20|strategy: hybrid-force|streaming: True|total_duration: 45.000000",
            '"aggressiveness": 2, "frame_ms": 20, "juncture_ms": 550, "max_len": 20.0, '
            '"min_len": 17.0, "min_pause_ms": 20, "strategy": "hybrid-force", '
            '"streaming": true, "total_duration": "45.000000"',
        ),
        "srpol --min-pause-ms 60": (
            "aggressiveness: 2|frame_ms: 20|max_len: 20.0|min_pause_ms: 60|strategy: srpol"
            "|total_duration: 45.000000",
            '"aggressiveness": 2, "frame_ms": 20, "max_len": 20.0, "min_pause_ms": 60, '
            '"strategy": "srpol", "total_duration": "45.000000"',
        ),
        "hybrid-force --min-pause-ms 60": (
            "aggressiveness: 2|frame_ms: 20|juncture_ms: 550|max_len: 20.0|min_len: 17.0"
            "|min_pause_ms: 60|strategy: hybrid-force|streaming: False|total_duration: 45.000000",
            '"aggressiveness": 2, "frame_ms": 20, "juncture_ms": 550, "max_len": 20.0, '
            '"min_len": 17.0, "min_pause_ms": 60, "strategy": "hybrid-force", '
            '"streaming": false, "total_duration": "45.000000"',
        ),
    }

    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_header_lines(self, talk_wav, tmp_path, case):
        strategy, *extra = case.split()
        yaml_keys, json_config = self.GOLDEN[case]
        texts = {}
        for fmt in ("yaml", "jsonl"):
            out = tmp_path / f"m.{fmt}"
            argv = ["segment", "--strategy", strategy, *extra, "--format", fmt, "-o", out]
            assert run(argv + [talk_wav]) == 0
            texts[fmt] = out.read_text().splitlines()
        yaml_header = [line for line in texts["yaml"] if line.startswith("#")]
        assert yaml_header == ["# pausecut manifest v1"] + [
            "# " + line for line in yaml_keys.split("|")
        ]
        assert texts["jsonl"][0] == '{"config": {' + json_config + '}, "pausecut_manifest": 1}'


class TestParallelSegment:
    def test_jobs_2_equals_jobs_1_in_fresh_process(self, tmp_path):
        # a fresh process first imports numpy inside `segment`; with two
        # workers that import must still happen once, before they start
        import subprocess
        import sys

        wavs = []
        for i, seconds in enumerate((3.0, 4.5, 6.0)):
            wav = tmp_path / f"talk{i}.wav"
            write_wav(wav, clip_from(tone(seconds), silence(0.6), tone(seconds / 2)))
            wavs.append(str(wav))
        import pausecut

        src = os.path.dirname(os.path.dirname(os.path.abspath(pausecut.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        manifests = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}.yaml"
            argv = ["segment", "--strategy", "hybrid", "--min-len", "1", "--max-len", "2"]
            proc = subprocess.run(
                [sys.executable, "-m", "pausecut", *argv, "--jobs", jobs, "-o", str(out), *wavs],
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            manifests.append(out.read_bytes())
        assert manifests[0] == manifests[1]
        assert {e.wav for e in read_manifest(tmp_path / "jobs2.yaml")[0]} == {
            "talk0.wav", "talk1.wav", "talk2.wav"
        }

    @pytest.mark.parametrize("bad_first", [True, False], ids=["bad-first", "bad-second"])
    def test_jobs_2_error_names_the_bad_input(self, talk_wav, tmp_path, capsys, bad_first):
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"RIFF....WAVE")
        inputs = [bad, talk_wav] if bad_first else [talk_wav, bad]
        assert run(["segment", "--jobs", "2", *inputs]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"pausecut: error: cannot decode {bad}: ")
        assert str(talk_wav) not in captured.err and captured.out == ""


STRATEGY_ARGS = [["--strategy", s] for s in STRATEGIES] + [
    ["--strategy", "hybrid", "--streaming"], ["--strategy", "hybrid-force", "--streaming"]
]
STRATEGY_IDS = [" ".join(a[1:]) for a in STRATEGY_ARGS]
# a horizon at 5.2 s, inside talk_wav's 5.0-5.3 s silence; pauses of one and three frames
HORIZON_IN_SILENCE = [["--strategy", s, "--min-len", "4", "--max-len", "5.2", "--min-pause-ms", ms]
                      for s in ("hybrid", "hybrid-force") for ms in ("20", "60")]


def feed_stdin(monkeypatch, data: bytes) -> io.BytesIO:
    stdin = io.BytesIO(data)
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(stdin))
    return stdin


def src_env() -> dict:
    import pausecut

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(pausecut.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


class TestBlockInput:
    """`segment` reads each input in blocks: from files, pipes and standard input."""

    @pytest.mark.parametrize("argv", STRATEGY_ARGS + HORIZON_IN_SILENCE,
                             ids=STRATEGY_IDS + [" ".join(a[1:]) for a in HORIZON_IN_SILENCE])
    def test_block_size_does_not_change_the_manifest(self, talk_wav, monkeypatch, capsys, argv):
        monkeypatch.setattr(audio, "BLOCK_BYTES", 4 << 20)  # the whole 45 s talk in one block
        assert run(["segment", *argv, "--emit-dropped", talk_wav]) == 0
        whole = capsys.readouterr().out
        # labels reach the strategy a FLOOR_CHUNK of frames at a time; smaller
        # chunks carry the open run across their edges
        cases = [(640, vad.FLOOR_CHUNK), (7_000, vad.FLOOR_CHUNK), (99_999, vad.FLOOR_CHUNK)]
        for block_bytes, floor_chunk in [*cases, (640, 1), (7_000, 37), (99_999, 250)]:
            monkeypatch.setattr(audio, "BLOCK_BYTES", block_bytes)
            monkeypatch.setattr(vad, "FLOOR_CHUNK", floor_chunk)
            assert run(["segment", *argv, "--emit-dropped", talk_wav]) == 0
            assert capsys.readouterr().out == whole, (block_bytes, floor_chunk)

    @pytest.mark.parametrize("fmt", ["yaml", "jsonl"])
    @pytest.mark.parametrize("raw", [False, True], ids=["wav", "raw"])
    def test_dash_reads_standard_input(self, talk_wav, tmp_path, monkeypatch, fmt, raw):
        source = talk_wav
        if raw:
            source = tmp_path / "talk.pcm"
            source.write_bytes(read_wav(talk_wav).samples.tobytes())
        argv = ["segment", "--format", fmt, "--emit-dropped"] + (["--raw-rate", "16000"] if raw else [])
        assert run([*argv, "-o", tmp_path / "file.m", source]) == 0
        feed_stdin(monkeypatch, source.read_bytes())
        assert run([*argv, "-o", tmp_path / "stdin.m", "-"]) == 0
        (file_entries, file_header), (entries, header) = map(
            read_manifest, (tmp_path / "file.m", tmp_path / "stdin.m")
        )
        assert header == file_header and len(entries) >= 3
        assert {e.wav for e in entries} == {"-"}
        assert [(e.offset, e.duration, e.dropped) for e in entries] == [
            (e.offset, e.duration, e.dropped) for e in file_entries
        ]

    def test_second_dash_refused_before_any_input_is_read(self, tmp_path, monkeypatch, capsys):
        stdin = feed_stdin(monkeypatch, b"RIFF")
        assert run(["segment", tmp_path / "missing.wav", "-", "-"]) == 1
        assert capsys.readouterr().err == "pausecut: error: standard input ('-') can be read only once\n"
        assert stdin.tell() == 0

    def test_closed_standard_input(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", None)  # what Python sets when fd 0 is closed
        assert run(["segment", "-"]) == 1
        assert capsys.readouterr().err == "pausecut: error: cannot read -: standard input is closed\n"

    def test_fifo_path(self, talk_wav, tmp_path, capsys):
        fifo = tmp_path / "pipe" / "talk.wav"  # the same name, so the same manifest bytes
        fifo.parent.mkdir()
        os.mkfifo(fifo)
        assert run(["segment", talk_wav]) == 0
        from_file = capsys.readouterr().out
        writer = threading.Thread(target=fifo.write_bytes, args=(talk_wav.read_bytes(),))
        writer.start()
        try:
            assert run(["segment", fifo]) == 0
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert capsys.readouterr().out == from_file

    @pytest.mark.parametrize("argv", STRATEGY_ARGS, ids=STRATEGY_IDS)
    def test_error_at_end_of_data_writes_no_manifest(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.setattr(audio, "BLOCK_BYTES", 4000)  # many blocks go in before the error
        bad = tmp_path / "bad.wav"
        bad.write_bytes(encode_wav(clip_from(tone(3.0), silence(1.0), tone(2.0)))[:-3])
        out = tmp_path / "m.yaml"
        assert run(["segment", *argv, "-o", out, bad]) == 1
        assert capsys.readouterr().err == f"pausecut: error: cannot decode {bad}: truncated chunk b'data'\n"
        assert not out.exists()

    def test_odd_raw_byte_count_on_standard_input(self, monkeypatch, capsys):
        feed_stdin(monkeypatch, bytes(64_001))
        assert run(["segment", "--raw-rate", "16000", "-"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "pausecut: error: cannot decode -: raw PCM16 byte count must be even\n"
        assert captured.out == ""

    def test_rate_that_does_not_frame_reported_before_the_data_is_read(
        self, tmp_path, monkeypatch, capsys
    ):
        wav = tmp_path / "odd-rate.wav"
        data = encode_wav(audio.AudioClip(np.ones(30_000, dtype=np.int16), 22050))
        framing = f"pausecut: error: {wav}: incompatible rate/frame"
        for body in (data, data[:-7]):  # a truncated end is never reached
            wav.write_bytes(body)
            assert run(["segment", "--frame-ms", "10", wav]) == 1
            assert capsys.readouterr().err.startswith(framing)
        stdin = feed_stdin(monkeypatch, data)  # as on a live pipe, the data stays unread
        assert run(["segment", "--frame-ms", "10", "-"]) == 1
        assert capsys.readouterr().err.startswith("pausecut: error: -: incompatible rate/frame")
        assert stdin.tell() < 100
        stereo = data[:22] + struct.pack("<H", 2) + data[24:]  # a header fault comes first
        wav.write_bytes(stereo)
        assert run(["segment", "--frame-ms", "10", wav]) == 1
        assert capsys.readouterr().err == (
            f"pausecut: error: cannot decode {wav}: unsupported channel count 2 (mono only)\n"
        )

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_first_failing_input_named(self, talk_wav, tmp_path, capsys, jobs):
        bad1, bad2 = tmp_path / "bad1.wav", tmp_path / "bad2.wav"
        bad1.write_bytes(b"RIFF....WAVE")
        bad2.write_bytes(b"OggS")
        assert run(["segment", "--jobs", jobs, talk_wav, bad1, bad2]) == 1
        assert capsys.readouterr().err == f"pausecut: error: cannot decode {bad1}: missing fmt chunk\n"


# Writes SECONDS of a 7 s speech-and-pause pattern to stdout as a WAV whose
# data size was never finalised, so nothing ever holds the whole stream.
# The pattern has two pauses per 7 s (about 1,000 an hour).  What this bounds
# is the audio: the pause list itself still grows with the input, by some
# 0.6 kB a pause, so denser pauses over longer inputs show that growth.
GENERATOR = """
import struct, sys
import numpy as np
seconds, rate = int(sys.argv[1]), 16000
rng = np.random.default_rng(0)
t = np.arange(7 * rate) / rate
speech = (t % 7 < 2.0) | ((t % 7 >= 2.5) & (t % 7 < 5.5))
pattern = rng.normal(0, 40, len(t)) + speech * 9000 * np.sin(2 * np.pi * 300 * t)
pattern = pattern.astype("<i2").tobytes()
out = sys.stdout.buffer
out.write(struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 0xFFFFFFFF, b"WAVE", b"fmt ", 16, 1, 1,
                      rate, 2 * rate, 2, 16, b"data", 0xFFFFFFFF))
for _ in range(seconds // 7):
    out.write(pattern)
"""
# Runs the CLI, then prints its peak RSS in kB: VmHWM, which starts afresh at
# exec, where ru_maxrss keeps the peak of the forking test process.
MEASURED = (
    "import re, sys; from pausecut.cli import main; code = main(sys.argv[1:]); "
    "print(re.search(r'VmHWM:\\s*(\\d+) kB', open('/proc/self/status').read())[1]); sys.exit(code)"
)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux's VmHWM")
class TestMemoryBound:
    def peak_rss_kb(self, tmp_path, seconds: int, argv: list[str]) -> int:
        env = src_env()
        gen = subprocess.Popen([sys.executable, "-c", GENERATOR, str(seconds)], stdout=subprocess.PIPE)
        try:
            proc = subprocess.run(
                [sys.executable, "-c", MEASURED, "segment", *argv, "-o", str(tmp_path / "m.yaml"), "-"],
                stdin=gen.stdout, capture_output=True, text=True, env=env, timeout=300,
            )
        finally:
            gen.stdout.close()
            gen.wait(timeout=60)
        assert proc.returncode == 0, proc.stderr
        entries, header = read_manifest(tmp_path / "m.yaml")
        assert float(header["total_duration"]) == seconds // 7 * 7 and entries
        return int(proc.stdout)

    @pytest.mark.parametrize("argv", [["--strategy", "hybrid-force"], ["--strategy", "vad"]])
    def test_peak_rss_does_not_grow_with_the_input(self, tmp_path, argv):
        short = self.peak_rss_kb(tmp_path, 120, argv)
        long = self.peak_rss_kb(tmp_path, 3600, argv)
        assert abs(long - short) < 5 * 1024, (short, long)


class TestMistypedManifest:
    @pytest.mark.parametrize(
        "text",
        [
            "- {wav: yes, offset: 0.0, duration: 1.0}\n",
            "- {wav: a.wav, offset: .nan, duration: 1.0}\n",
            "- {wav: a.wav, offset: 0.0, duration: .inf}\n",
            '{"wav": "a.wav", "offset": 0.0, "duration": 1.0, "dropped": "false"}\n',
            "- {wav: a.wav, offset: 0.0, duration: 1.0}\n- {wav: a.wav, offset: 0.5, duration: 0.5}\n",
            '{"pausecut_manifest": 1, "config": 5}\n{"wav": "a.wav", "offset": 0.0, "duration": 1.0}\n',
        ],
        ids=["wav-bool", "offset-nan", "duration-inf", "dropped-str", "overlap", "config-int"],
    )
    @pytest.mark.parametrize("command", ["stats", "stats-json", "compare", "compare-bad-first"])
    def test_exits_1_naming_the_file(self, tmp_path, capsys, text, command):
        bad = tmp_path / "bad.yaml"
        bad.write_text(text)
        good = tmp_path / "good.yaml"
        good.write_text(render_manifest([ManifestEntry("a.wav", 0.0, 1.0)], {}))
        argv = {
            "stats": ["stats", bad],
            "stats-json": ["stats", bad, "--json"],
            "compare": ["compare", good, bad],
            "compare-bad-first": ["compare", bad, good],
        }[command]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert f"malformed manifest {bad}" in captured.err
        assert captured.out == ""


def strict_json(text: str):
    """`text` parsed as JSON, failing on the NaN and Infinity that json.loads takes."""

    def refuse(constant):
        raise AssertionError(f"non-JSON {constant} in {text!r}")

    return json.loads(text, parse_constant=refuse)


class TestRoundTrip:
    """`segment` writes only what `stats` and `compare` read: random option sets
    over random short clips, one input each, through `cli.main`.

    Whenever `segment` exits 0, `stats --json` exits 0 with strict JSON,
    `compare M M --json` gives F1 = 1, every kept hybrid entry is at most
    `max_len` long, and `--streaming` writes the batch bytes but for its
    `# streaming:` line.  Multi-input runs wait for ROADMAP item 6: their
    offsets restart at 0 for each file, which `stats` reads as an overlap.
    """

    def options(self, rng: np.random.Generator, seconds: float) -> dict[str, str]:
        strategy = str(rng.choice(STRATEGIES))
        if strategy == "fixed":
            tiny = seconds <= 0.002 and rng.random() < 0.7  # microsecond entries
            length = rng.uniform(5e-7, 4e-6) if tiny else rng.uniform(0.05, 6.0)
            return {"--strategy": "fixed", "--length": repr(float(length))}
        frame = int(rng.choice([10, 20, 30]))
        opts = {"--strategy": strategy, "--frame-ms": str(frame)}
        opts["--aggressiveness"] = str(rng.integers(0, 4))
        if strategy != "vad":
            max_len = float(rng.uniform(0.3, 6.0))
            opts["--max-len"] = repr(max_len)
            opts["--min-pause-ms"] = str(frame * rng.choice([1, 3]))
        if strategy.startswith("hybrid"):
            opts["--min-len"] = repr(max_len * float(rng.uniform(0.3, 1.0)))
        if strategy == "hybrid-force":
            opts["--juncture-ms"] = str(rng.integers(50, 800))
        return opts

    def test_random_option_sets(self, tmp_path, capsys):
        rng = np.random.default_rng(0x5E6)
        written = 0
        for case in range(150):
            seconds = float(rng.choice([rng.uniform(0, 0.002), rng.uniform(0, 2), rng.uniform(2, 8)]))
            opts = self.options(rng, seconds)
            fixed = opts["--strategy"] == "fixed"
            rate = 11025 if fixed and rng.random() < 0.3 else int(rng.choice([8000, 16000]))
            wav, out = tmp_path / f"{case}.wav", tmp_path / f"{case}.m"
            write_wav(wav, speechy_clip(rng, seconds, rate))
            fmt = str(rng.choice(["yaml", "jsonl"]))
            argv = [arg for item in opts.items() for arg in item] + ["--format", fmt]
            argv += ["--emit-dropped"] * int(rng.integers(0, 2))
            if run(["segment", *argv, "-o", out, wav]):
                assert not out.exists()
                capsys.readouterr()
                continue
            written += 1
            assert run(["stats", "--json", out]) == 0, argv
            strict_json(capsys.readouterr().out)
            assert run(["compare", "--json", out, out]) == 0, argv
            assert strict_json(capsys.readouterr().out)["f1"] == 1.0, argv
            if not opts["--strategy"].startswith("hybrid"):
                continue
            entries, _ = read_manifest(out)
            max_len = float(opts["--max-len"])
            assert all(e.duration <= max_len + 1e-6 for e in entries if not e.dropped), argv
            streamed = tmp_path / f"{case}.streaming.m"
            code = run(["segment", *argv, "--streaming", "-o", streamed, wav])
            capsys.readouterr()
            if opts["--min-pause-ms"] != opts["--frame-ms"]:
                assert code == 1  # a pause's length is unknown at the horizon
                continue
            assert code == 0, argv
            batch, live = out.read_text().splitlines(), streamed.read_text().splitlines()
            if fmt == "jsonl":
                batch[0], live[0] = json.loads(batch[0]), json.loads(live[0])
                flags = batch[0]["config"].pop("streaming"), live[0]["config"].pop("streaming")
                assert flags == (False, True)
            else:
                batch.remove("# streaming: False")
                live.remove("# streaming: True")
            assert batch == live, argv
        assert written >= 120, written
