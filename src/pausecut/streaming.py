"""Incremental hybrid segmentation with a MAX_LEN latency bound.

Frames are pushed one at a time; each push runs the energy VAD one step
and emits every segment whose boundary the frames so far settle.  The
engine is a `vad.PauseScan` fed frames, and takes no label blocks: the
run toggle, the settle rule and the end are the ones that
`detect_pauses` and CLI `segment` feed label blocks, so push emissions
plus the flush remainder equal the batch result -- exactly, not
approximately.  It holds no audio: only the VAD's floor window and
hangover, the stream position, the open run and the open segment's pauses.
`buffered_frames`, the pushed frames after the segment start, is bisected
from the frame ends with `frame_time`; it is at most max_len plus a frame.

One engine instance per stream.  The state is single-owner: move it
between threads, never share it.  A checkpoint is versioned JSON of the
explicit state; restoring one reads data and never executes it.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import asdict

from .audio import Frame, frame_time
from .segmenters import HybridParams, Segment
from .vad import FLOOR_WINDOW, EnergyVad, Pause, PauseScan, VadConfig, frame_energy

_STATE_VERSION = 2


class StreamingSegmenter(PauseScan):
    """Push-based hybrid (or hybrid-force) segmenter."""

    def __init__(self, params: HybridParams, vad_config: VadConfig | None = None):
        if not isinstance(params, HybridParams):
            raise TypeError(f"params must be HybridParams, got {type(params).__name__}")
        self.vad_config = vad_config or VadConfig()
        super().__init__(params, self.vad_config.frame_ms, self.vad_config.frame_ms)
        self._vad = EnergyVad(self.vad_config)

    @property
    def buffered_frames(self) -> int:
        """Pushed frames whose end, frame_time(k) for frame k - 1, lies after the segment start."""
        fm, n, s = self.frame_ms, self._frames_pushed, self._segment_start
        return n - bisect_right(range(1, n + 1), s, key=lambda k: frame_time(k, fm))

    def push_runs(self, labels) -> None:
        """Refused, as `push_labels` is: the engine labels frames with its own VAD."""
        raise TypeError("StreamingSegmenter takes frames: call push_frame, not label blocks")

    def push_frame(self, frame: Frame) -> list[Segment]:
        """Consume the next frame; return the segments it determined."""
        if self._finished:
            raise RuntimeError("stream already flushed")
        if frame.frame_ms != self.frame_ms:
            raise ValueError(f"frame is {frame.frame_ms} ms but the engine expects {self.frame_ms} ms")
        if frame.index != self._frames_pushed:
            raise ValueError(
                f"out-of-order frame: expected index {self._frames_pushed}, got {frame.index}"
            )

        held = len(self._pauses)
        if self._vad.step(frame_energy(frame.samples)) == (self._run_start is not None):
            self._toggle(frame.index)  # speech ends the open run; non-speech opens one
        self._frames_pushed += 1
        return self._settle(held)

    # -- checkpointing -----------------------------------------------------

    def save_state(self) -> bytes:
        """Versioned JSON snapshot of the engine state (no audio, no code)."""
        state = {
            "version": _STATE_VERSION,
            "params": asdict(self.params),
            "vad_config": asdict(self.vad_config),
            "vad_window": list(self._vad._window),
            "vad_hangover": self._vad._hang,
            "segment_start": self._segment_start,
            "frames_pushed": self._frames_pushed,
            "run_start": self._run_start,
            "finished": self._finished,
            "pauses": [p.frame_span for p in self._pauses],
        }
        return json.dumps(state, separators=(",", ":"), allow_nan=False).encode()

    @classmethod
    def restore_state(cls, blob: bytes) -> "StreamingSegmenter":
        """Rebuild an engine from :meth:`save_state` output.

        Raises ValueError for anything but a checkpoint of this version.
        """
        try:
            state = json.loads(blob)
            if state["version"] != _STATE_VERSION:
                raise ValueError(f"found version {state['version']!r}")
            engine = cls(HybridParams(**state["params"]), VadConfig(**state["vad_config"]))
            fm = engine.vad_config.frame_ms
            n, start, run = state["frames_pushed"], state["segment_start"], state["run_start"]
            spans = [*state["pauses"], *([] if run is None else [[run, run]])]  # the run comes last
            if not (type(n) is int and len(state["vad_window"]) == min(n, FLOOR_WINDOW)
                    and type(start) is float and 0 <= start <= frame_time(n, fm)
                    and type(state["finished"]) is bool and (run is None or not state["finished"])
                    and all(type(a) is type(b) is int and last + 1 < a <= b < n  # speech between
                            for last, (a, b) in zip([-2] + [b for _, b in spans], spans))):
                raise ValueError("a position, window length, run, pause or flag out of range")
            engine._vad = EnergyVad(engine.vad_config, state["vad_window"], state["vad_hangover"])
            engine._frames_pushed, engine._segment_start, engine._run_start = n, start, run
            engine._finished = state["finished"]
            engine._pauses = [Pause.from_frames(a, b, fm) for a, b in state["pauses"]]
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"not a version {_STATE_VERSION} checkpoint: {exc}") from exc
        return engine
