"""pausecut: streaming audio segmentation toolkit.

Decodes PCM audio, labels frames with an energy VAD, and splits long
recordings with four interchangeable strategies (fixed-length, VAD-merge,
recursive longest-silence, pause-in-window hybrid with a forced-split
variant) -- in batch or incrementally with a bounded latency.

Each public name is imported from its home module on first access, so
``import pausecut`` (and the manifest-only CLI commands) never load numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name, by the module that defines it.
_EXPORTS = {
    "audio": (
        "AudioClip", "Frame", "MalformedWavError", "UnsupportedWavError", "WavError",
        "decode_pcm16", "decode_wav", "encode_wav", "frame_time", "frames", "iter_frames",
        "read_wav", "write_wav",
    ),
    "metrics": (
        "BoundaryScore", "SegStats", "boundary_prf", "compute_stats", "format_stats_table",
        "length_histogram",
    ),
    "segmenters": (
        "HybridParams", "Segment", "SrpolParams", "segment_fixed", "segment_hybrid",
        "segment_hybrid_force", "segment_srpol", "segment_vad_merge",
    ),
    "streaming": ("StreamingSegmenter",),
    "vad": ("BlockSegmenter", "EnergyVad", "FrameLabelTrack", "Pause", "VadConfig", "classify",
            "detect_pauses"),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOMES) + ["__version__"]


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
