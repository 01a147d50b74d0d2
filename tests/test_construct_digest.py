"""`grade construct` and `grade fine` replay a seeded grid byte for byte.

tests/construct_digest.py builds the grid (O, W and S at every toral rank,
p in {5, 7}, m in {2, 3}, and `fine` for each ambient) and records each
case's exit code, `error:` line and stdout sha256; construct_digest.json
holds the records (regenerate with its --write flag only when a change of
the payloads is intended).
"""

import json

from construct_digest import GRID, RECORD, SKIPPED, records


def test_construct_digest_replays():
    want = json.loads(RECORD.read_text())
    got = records()
    # m + 1 constructs and one fine call per (p, m) and kept kind
    assert len(got) == sum((m + 2) * sum((p, m, k) not in SKIPPED for k in "OWS")
                           for p, m in GRID)
    changed = sorted(k for k in want if got.get(k) != want[k])
    assert not changed, f"cases whose output changed: {changed}"
    assert got == want
