"""`grade classify` and `grade iso` replay a seeded grid byte for byte.

tests/classify_digest.py builds the grid (standard, pushed, label-swapped
and non-multiplicative payloads for flavors O, W, S and H at p = 5) and
records each case's exit code, `error:` line and stdout sha256;
classify_digest.json holds the records (regenerate with its --write flag
only when a change of the outputs is intended).
"""

import json

from classify_digest import RECORD, records


def test_classify_digest_replays():
    want = json.loads(RECORD.read_text())
    got = records()
    assert sorted(got) == sorted(want)
    changed = sorted(k for k in want if got[k] != want[k])
    assert not changed, f"cases whose output changed: {changed}"
