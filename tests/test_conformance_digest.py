"""`paper-check` and `dims` replay a fixed grid byte for byte.

tests/conformance_digest.py builds the grid (`paper-check` at four (p, m),
`dims` at every p in {2, 3, 5, 7, 11} and m in 1..4 under the dimension
cap with --r 1 and 2, the argument refusals of both verbs, and three
settings of CARTAN_GRADE_MAX_DIM) and records each case's exit code,
`error:` line and stdout sha256; conformance_digest.json holds the records
(regenerate with its --write flag only when a change of the outputs is
intended).
"""

import json
import os

from conformance_digest import RECORD, cases, records


def test_conformance_digest_replays():
    want = json.loads(RECORD.read_text())
    before = os.environ.get("CARTAN_GRADE_MAX_DIM")
    got = records()
    assert os.environ.get("CARTAN_GRADE_MAX_DIM") == before
    assert sorted(got) == sorted(want) and len(got) == len(cases())
    changed = sorted(k for k in want if got[k] != want[k])
    assert not changed, f"cases whose output changed: {changed}"
