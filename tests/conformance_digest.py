"""Digest of `paper-check` and `dims` over a fixed grid, with their refusals.

    PYTHONPATH=src python3 tests/conformance_digest.py            # compare
    PYTHONPATH=src python3 tests/conformance_digest.py --write    # regenerate

The grid holds `paper-check` at (p, m) = (5, 2), (7, 2), (11, 2) and
(5, 3), and `dims` for every p in {2, 3, 5, 7, 11} and m in 1..4 with
p**m <= 2401, each with --r 1 and --r 2.  The refusals run through both
verbs: m outside 1..4, p = 1, a composite p, negative p (one of them with
|p|**m past the dimension cap), a 61-digit p and an --r outside 1..2.
`paper-check` and `grade fine` are refused at p = 2 and 3, which admit
only construction and verification.  Three cases set CARTAN_GRADE_MAX_DIM:
to a non-integer, to 20 (under 25 = 5**2) and to 10 (under 16 = 2**4);
the variable is restored after each case.

Each case is one cli.main call in process; its record is the exit code,
the `error:` line and the sha256 of stdout, as in construct_digest.py.
conformance_digest.json holds the records; tests/test_conformance_digest.py
replays them.  Regenerate only when a change of the outputs is intended,
and say so where the change is recorded.
"""

import hashlib
import json
import os
import sys
from pathlib import Path

from golden.make_golden import run

RECORD = Path(__file__).resolve().parent / "conformance_digest.json"
PAPER_CHECK = ((5, 2), (7, 2), (11, 2), (5, 3))
DIMS_PRIMES = (2, 3, 5, 7, 11)
CAP = 2401
BIG_P = "1" + "0" * 59 + "7"
REFUSALS = {
    "m0": ["--p", "5", "--m", "0"],
    "m5": ["--p", "5", "--m", "5"],
    "p1": ["--p", "1", "--m", "2"],
    "p4": ["--p", "4", "--m", "2"],
    "p-7": ["--p", "-7"],
    "p-100_m2": ["--p", "-100", "--m", "2"],
    "p61digits": ["--p", BIG_P, "--m", "2"],
    "r0": ["--p", "5", "--m", "2", "--r", "0"],
    "r3": ["--p", "5", "--m", "2", "--r", "3"],
}
CAP_CASES = (("cap_abc_dims_p5_m2", ["dims", "--p", "5", "--m", "2"], "abc"),
             ("cap_20_dims_p5_m2", ["dims", "--p", "5", "--m", "2"], "20"),
             ("cap_10_dims_p2_m4", ["dims", "--p", "2", "--m", "4"], "10"))


def cases():
    """(name, argv, CARTAN_GRADE_MAX_DIM or None) of every case, in a fixed order."""
    out = [(f"paper_check_p{p}_m{m}", ["paper-check", "--p", str(p), "--m", str(m)], None)
           for p, m in PAPER_CHECK]
    for p in DIMS_PRIMES:
        for m in range(1, 5):
            if p ** m <= CAP:
                for r in (1, 2):
                    out.append((f"dims_p{p}_m{m}_r{r}",
                                ["dims", "--p", str(p), "--m", str(m), "--r", str(r)], None))
    for verb in ("paper-check", "dims"):
        for name, args in REFUSALS.items():
            out.append((f"refuse_{verb.replace('-', '_')}_{name}", [verb, *args], None))
    for p in (2, 3):
        out.append((f"classical_paper_check_p{p}", ["paper-check", "--p", str(p), "--m", "2"], None))
        out.append((f"classical_fine_p{p}", ["grade", "fine", "--p", str(p), "--m", "2"], None))
    out.extend(CAP_CASES)
    return out


def records():
    """{case name: {"exit", "error", "sha256"}} of every case."""
    got = {}
    for name, argv, cap in cases():
        saved = os.environ.get("CARTAN_GRADE_MAX_DIM")
        if cap is not None:
            os.environ["CARTAN_GRADE_MAX_DIM"] = cap
        try:
            code, out, error = run(argv)
        finally:
            if saved is None:
                os.environ.pop("CARTAN_GRADE_MAX_DIM", None)
            else:
                os.environ["CARTAN_GRADE_MAX_DIM"] = saved
        got[name] = {"exit": code, "error": error,
                     "sha256": hashlib.sha256(out.encode()).hexdigest()}
    return got


def main(argv) -> int:
    got = records()
    if "--write" in argv:
        RECORD.write_text(json.dumps(got, indent=1) + "\n")
        print(f"wrote {RECORD.name}: {len(got)} cases")
        return 0
    want = json.loads(RECORD.read_text())
    differ = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
    print(f"{len(got)} cases", f"DIFFER: {differ}" if differ else "match the record")
    return 0 if not differ else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
