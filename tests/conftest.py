"""Shared synthetic-audio and pause-layout builders."""

import numpy as np
import pytest

from pausecut import AudioClip, Pause

RATE = 16000


def tone(duration_s: float, rate: int = RATE, freq: float = 440.0, amp: int = 16000) -> np.ndarray:
    n = round(duration_s * rate)
    t = np.arange(n, dtype=np.float64) / rate
    return (amp * np.sin(2 * np.pi * freq * t)).astype(np.int16)


def silence(duration_s: float, rate: int = RATE) -> np.ndarray:
    return np.zeros(round(duration_s * rate), dtype=np.int16)


def clip_from(*parts: np.ndarray, rate: int = RATE) -> AudioClip:
    if not parts:
        return AudioClip(np.zeros(0, dtype=np.int16), rate)
    return AudioClip(np.concatenate(parts), rate)


def speechy_clip(rng: np.random.Generator, duration_s: float, rate: int = RATE) -> AudioClip:
    """Random alternation of loud tone bursts and silence."""
    parts = []
    remaining = duration_s
    speaking = rng.random() < 0.7
    while remaining > 0:
        span = min(remaining, float(rng.uniform(0.1, 2.5)))
        if speaking:
            parts.append(tone(span, rate, freq=float(rng.uniform(200, 800))))
        else:
            parts.append(silence(span, rate))
        speaking = not speaking
        remaining -= span
    clip = clip_from(*parts, rate=rate)
    want = round(duration_s * rate)
    samples = clip.samples[:want]
    if len(samples) < want:
        samples = np.concatenate([samples, np.zeros(want - len(samples), dtype=np.int16)])
    return AudioClip(samples, rate)


def noisy_clip(rng: np.random.Generator, n_samples: int, rate: int, noise: float) -> AudioClip:
    """`n_samples` of speechy_clip over a Gaussian noise floor of std `noise`."""
    clean = speechy_clip(rng, n_samples / rate + 1.0, rate).samples[:n_samples]
    noisy = clean + rng.normal(0.0, noise, n_samples)
    return AudioClip(np.clip(noisy, -32768, 32767).astype(np.int16), rate)


def talk_clip(rng: np.random.Generator, duration_s: float, rate: int = RATE) -> AudioClip:
    """A long noisy talk, built in 60 s pieces to keep temporaries small."""
    pieces = [noisy_clip(rng, 60 * rate, rate, 30.0).samples for _ in range(int(duration_s // 60))]
    return AudioClip(np.concatenate(pieces), rate)


def random_pauses(
    rng: np.random.Generator,
    total: float,
    max_pauses: int = 50,
    min_dur: float = 0.05,
    max_dur: float = 2.0,
) -> list[Pause]:
    """Sorted, disjoint synthetic pauses inside [0, total)."""
    pauses = []
    cursor = 0.0
    for _ in range(int(rng.integers(0, max_pauses + 1))):
        gap = float(rng.uniform(0.05, total / 4))
        start = cursor + gap
        dur = float(rng.uniform(min_dur, max_dur))
        if start + dur >= total:
            break
        pauses.append(Pause.at(start, dur))
        cursor = start + dur
    return pauses


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0xC0FFEE)


def random_cuts(rng, n: int) -> list[int]:
    """Block edges in [0, n], repeats (empty blocks) and neighbours (one-frame blocks) included."""
    cuts = rng.integers(0, n + 1, int(rng.integers(0, 12))).tolist()
    cuts += [c + 1 for c in cuts if c < n and rng.random() < 0.3]
    return sorted([0, *cuts, *cuts[: int(rng.integers(0, 3))], n])
