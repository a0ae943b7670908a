"""All four strategies on the same synthetic talk, with comparison stats.

A two-minute "talk" is built from tone phrases separated by pauses of
realistic lengths.  Each strategy segments it, and the summary table
shows the trade-offs: VAD-merge discards silence but produces uneven
lengths; fixed hits its target length but cuts mid-phrase; the recursive
splitter makes short segments; the hybrid scan lands between 17 and 20 s
and its forced variant drops well below that whenever long pauses exist.
Last, the hybrid cut is made again as `pausecut segment` makes it, from a
WAV read in blocks, and found equal to the whole-clip result.
"""

import io

import numpy as np

from pausecut import (
    AudioClip,
    BlockSegmenter,
    HybridParams,
    Segment,
    SrpolParams,
    VadConfig,
    boundary_prf,
    classify,
    compute_stats,
    detect_pauses,
    format_stats_table,
    segment_fixed,
    segment_hybrid,
    segment_hybrid_force,
    segment_srpol,
    segment_vad_merge,
)
from pausecut.audio import encode_wav, iter_wav_chunks

rate = 16000
rng = np.random.default_rng(42)


def phrase(seconds, freq):
    t = np.arange(int(rate * seconds)) / rate
    envelope = 0.7 + 0.3 * np.sin(2 * np.pi * 1.3 * t)
    return (13000 * envelope * np.sin(2 * np.pi * freq * t)).astype(np.int16)


parts = []
while sum(len(p) for p in parts) < 120 * rate:
    parts.append(phrase(rng.uniform(2.0, 9.0), rng.uniform(200, 700)))
    parts.append(np.zeros(int(rate * rng.uniform(0.2, 1.1)), dtype=np.int16))
clip = AudioClip(np.concatenate(parts), rate)
print(f"talk: {clip.duration:.1f} s\n")

track = classify(clip, VadConfig(2, 20))
pauses = detect_pauses(track)
total = track.duration

outputs = {
    "manual-ish": None,  # filled below: the construction's own phrase bounds
    "vad": segment_vad_merge(track),
    "fixed-20": segment_fixed(total, 20.0),
    "srpol": segment_srpol(Segment(0.0, total), pauses, SrpolParams(20.0)),
    "hybrid": segment_hybrid(pauses, total, HybridParams(17.0, 20.0)),
    "+force": segment_hybrid_force(pauses, total, HybridParams(17.0, 20.0, True, 550)),
}

# reference = the phrase boundaries we synthesized (cut inside each pause)
edges, cursor = [], 0.0
for part in parts[:-1]:
    cursor += len(part) / rate
    edges.append(cursor)
reference = []
prev = 0.0
for i in range(1, len(edges), 2):  # end of each silence = start of next phrase
    mid = (edges[i - 1] + edges[i]) / 2
    reference.append(Segment(prev, mid))
    prev = mid
reference.append(Segment(prev, total))
outputs["manual-ish"] = reference

columns = {name: compute_stats(segs, total) for name, segs in outputs.items()}
print(format_stats_table(columns))

print("\nboundary agreement vs the construction reference (tolerance 0.5 s):")
for name, segs in outputs.items():
    if name == "manual-ish":
        continue
    score = boundary_prf(segs, reference, 0.5)
    print(f"  {name:<9} precision {score.precision:.2f}  recall {score.recall:.2f}  f1 {score.f1:.2f}")

srpol_stats = columns["srpol"]
print(f"\nrecursive splitter average length on this talk: {srpol_stats.avg_len:.1f} s")
print("hybrid average length:", f"{columns['hybrid'].avg_len:.1f} s,",
      "forced variant:", f"{columns['+force'].avg_len:.1f} s")

# Bounded memory, as README shows it: each push returns the segments its block
# settles, and finish() returns the rest.
with io.BytesIO(encode_wav(clip)) as fh:
    wav_rate, blocks = iter_wav_chunks(fh)  # about 1 MiB of whole frames each
    segmenter = BlockSegmenter(HybridParams(17.0, 20.0), VadConfig(2, 20), wav_rate)
    segments = []
    for block in blocks:
        segments += segmenter.push(block)
segments += segmenter.finish()
assert segments == outputs["hybrid"]
print(f"\nBlockSegmenter on the WAV in blocks: {len(segments)} segments, equal to segment_hybrid")
