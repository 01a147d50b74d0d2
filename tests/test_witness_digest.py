"""The isomorphism decisions of a seeded corpus replay byte for byte.

tests/witness_digest.py builds the corpus and digests each pair's
invariant keys and iso_decide outcome; witness_digest.json holds the
recorded digests (regenerate with its --write flag only when a change of
the witnesses is intended).
"""

import json

from witness_digest import PLAN, RECORD, digests


def test_witness_digest_replays():
    want = json.loads(RECORD.read_text())
    got = digests()
    assert len(got["pairs"]) == sum(count for _, _, count in PLAN) + 2
    mismatched = [k for k, (a, b) in enumerate(zip(got["pairs"], want["pairs"])) if a != b]
    assert not mismatched, f"pairs whose decision changed: {mismatched}"
    assert got == want
