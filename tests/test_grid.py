"""Output pinned: every cell of `grid.py` gives the digests in `grid_digests.json`."""

import json

import grid


def test_every_cell_matches_its_digest(tmp_path):
    got = grid.run(tmp_path)
    ids = grid.changed(got, json.loads(grid.DIGESTS.read_text()))
    assert not ids, (
        f"{len(ids)} of {len(got)} grid cells differ from {grid.DIGESTS.name} on {grid.versions()}: "
        f"{', '.join(ids)}.  If the change is meant, run `python tests/grid.py --write` and name "
        "these cells in CHANGES.md."
    )
