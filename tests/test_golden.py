"""Golden CLI corpus: every recorded request replays byte for byte.

The cases, their inputs and their expected stdout live in tests/golden/
(regenerate with tests/golden/make_golden.py only when a payload change is
intended).  Each case is one cli.main call; the exit code, the stdout bytes
and the `error:` line on stderr must match the recording.
"""

import json
from pathlib import Path

import pytest

from golden.make_golden import run as replay

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


def test_golden_corpus_covers_every_verb_and_exit_code():
    verbs = {tuple(c["argv"][:2]) for c in CASES}
    assert {("grade", v) for v in ("construct", "verify", "classify", "iso", "fine")} <= verbs
    assert {"paper-check", "dims"} <= {c["argv"][0] for c in CASES}
    assert {c["exit"] for c in CASES} == {0, 2, 3, 4}
    flavors = {}
    for c in CASES:
        argv = c["argv"]
        if "--flavor" in argv:
            flavors.setdefault(argv[1], set()).add(argv[argv.index("--flavor") + 1])
    assert flavors == {"iso": {"O", "W", "S"}, "classify": {"O", "W"}}


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_case_replays(case, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code, out, error = replay(case["argv"])
    assert code == case["exit"]
    assert error == case["error"]
    want = (GOLDEN / "expected" / f"{case['name']}.out").read_text()
    assert out == want
