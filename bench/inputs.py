"""Seeded synthetic inputs.  The same seed always gives the same inputs.

Speech is modelled as tone bursts with a syllable-rate amplitude
envelope, separated by pauses whose lengths span the 550 ms juncture
threshold.  A Gaussian noise floor covers the whole signal: silence of
exact digital zero would make every pause trivially detectable and
flatter the VAD.
"""

from __future__ import annotations

import numpy as np

RATE = 16000
FRAME_MS = 20


def talk(seed: int, index: int, seconds: float, rate: int = RATE) -> np.ndarray:
    """Mono int16 samples of one noisy synthetic talk."""
    rng = np.random.default_rng([seed, index])
    n = int(round(seconds * rate))
    signal = np.zeros(n, dtype=np.float32)
    pos = 0
    speaking = True
    while pos < n:
        if speaking:
            span = int(rng.uniform(0.3, 4.0) * rate)
            m = min(span, n - pos)
            t = np.arange(m, dtype=np.float32) / rate
            freq = rng.uniform(150.0, 700.0)
            envelope = 0.6 + 0.4 * np.sin(2 * np.pi * rng.uniform(3.0, 6.0) * t)
            signal[pos : pos + m] = rng.uniform(2000.0, 14000.0) * envelope * np.sin(
                2 * np.pi * freq * t
            )
        else:
            span = int(np.exp(rng.uniform(np.log(0.06), np.log(1.5))) * rate)
        pos += span
        speaking = not speaking
    sigma = rng.uniform(60.0, 100.0)  # a narrow range keeps seeds comparable
    chunk = 1 << 20
    for a in range(0, n, chunk):
        b = min(n, a + chunk)
        signal[a:b] += sigma * rng.standard_normal(b - a, dtype=np.float32)
    np.clip(signal, -32768, 32767, out=signal)
    return np.rint(signal).astype(np.int16)


def pause_inventory(seed: int, hours: float, frame_ms: int = FRAME_MS):
    """Frame-grid pauses of a long recording; returns (pauses, total seconds).

    Speech runs last 0.5-4 s and pauses 60 ms-1.5 s (log-uniform), about
    1,350 pauses per hour.
    """
    from pausecut import Pause

    rng = np.random.default_rng([seed, 0xA4C])
    total_frames = int(hours * 3600 * 1000 // frame_ms)
    speech = rng.integers(25, 201, size=total_frames // 25)
    silence = np.exp(rng.uniform(np.log(3), np.log(75), size=len(speech))).astype(np.int64)
    pauses = []
    i = 0
    for run, gap in zip(speech.tolist(), silence.tolist()):
        i += run
        if i + gap >= total_frames:
            break
        pauses.append(Pause.from_frames(i, i + gap - 1, frame_ms))
        i += gap
    return pauses, total_frames * frame_ms / 1000.0
