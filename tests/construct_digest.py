"""Digest of `grade construct` and `grade fine` over a seeded grid.

    PYTHONPATH=src python3 tests/construct_digest.py            # compare
    PYTHONPATH=src python3 tests/construct_digest.py --write    # regenerate

The grid holds one construct request for each kind (O, W, S), each toral
rank s = 0..m and each (p, m) with p in {5, 7} and m in {2, 3}, and one
`grade fine` call for each ambient at each (p, m).  S at p = 7, m = 3 is
left out of both: its derived algebra alone takes about 40 s.  The group
and the degrees of a request are drawn from a generator seeded by the
case's name: a free rank, s order-p toral degrees that are p-independent
by construction, free degrees with negative and large coordinates, and for
kind S a volume degree that satisfies the construction's conditions.

Each case is one cli.main call in process; its record is the exit code,
the `error:` line and the sha256 of stdout.  construct_digest.json holds
the records; tests/test_construct_digest.py replays them.  Regenerate only
when a change of the payloads is intended, and say so where the change is
recorded.
"""

import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path

import numpy as np

from cartangrade import linalg
from golden.make_golden import run

RECORD = Path(__file__).resolve().parent / "construct_digest.json"
GRID = ((5, 2), (5, 3), (7, 2), (7, 3))
SKIPPED = {(7, 3, "S")}


def request(p, m, kind, s, rng):
    """A construct request of toral rank s, drawn from rng."""
    free_rank = rng.randrange(3) if s else rng.randrange(1, 3)
    extra = rng.choice(((), (p,), (p * p,)))
    torsion = (p,) * s + extra
    while True:
        mat = [[rng.randrange(p) for _ in range(s)] for _ in range(s)]
        if linalg.rank(np.array(mat, dtype=np.int64).reshape(s, s), p) == s:
            break

    def toral(row):
        return [0] * free_rank + row + [rng.randrange(p) * (d // p) for d in extra]

    def degree():
        return ([rng.choice((rng.randrange(-4, 5), rng.randrange(-2 ** 70, 2 ** 70)))
                 for _ in range(free_rank)]
                + [rng.randrange(d) for d in torsion])

    basis = [toral(row) for row in mat]
    gamma = [degree() for _ in range(m - s)]
    data = {"p": p, "m": m, "kind": kind,
            "group": {"free_rank": free_rank, "torsion": list(torsion)},
            "basis": basis, "gamma": gamma}
    if kind == "S":
        # The volume degree sits over the product of the free degrees, off
        # it by a nonidentity toral element when s >= 1.
        exps = [rng.randrange(p) for _ in range(s)]
        if s and not any(exps):
            exps[0] = 1
        g0 = [sum(v[k] for v in gamma) + sum(e * b[k] for e, b in zip(exps, basis))
              for k in range(free_rank + len(torsion))]
        data["g0"] = g0[:free_rank] + [c % d for c, d in zip(g0[free_rank:], torsion)]
    return data


def cases():
    """(name, request or None, argv) of every case, in a fixed order; a
    construct case reads its request from the file its argv names."""
    out = []
    for p, m in GRID:
        for kind in ("O", "W", "S"):
            if (p, m, kind) in SKIPPED:
                continue
            for s in range(m + 1):
                name = f"construct_{kind}_p{p}_m{m}_s{s}"
                data = request(p, m, kind, s, random.Random(name))
                out.append((name, data, ["grade", "construct", "--request", f"{name}.json"]))
            out.append((f"fine_{kind}_p{p}_m{m}", None,
                        ["grade", "fine", "--p", str(p), "--m", str(m), "--ambient", kind]))
    return out


def records():
    """{case name: {"exit", "error", "sha256"}} of every case."""
    got = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, data, argv in cases():
            if data is not None:
                path = Path(tmp) / argv[-1]
                path.write_text(json.dumps(data))
                argv = argv[:-1] + [str(path)]
            code, out, error = run(argv)
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
