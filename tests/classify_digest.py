"""Digest of `grade classify` and `grade iso` over a seeded grid.

    PYTHONPATH=src python3 tests/classify_digest.py            # compare
    PYTHONPATH=src python3 tests/classify_digest.py --write    # regenerate

For seeded degree data at p = 5 (flavors O, W and S at m = 2 and 3, and H
at m = 2), the grid writes four kinds of payload: the standard grading, a
push of it by an automorphism, the push with the degrees of two components
swapped, and the push of a non-multiplicative decomposition (the standard
basis with the labels of two single rows of different degrees swapped;
for W, the decomposition the derivation degree formula gives those
labels).  Flavors O, S and H read ambient-"O" payloads, flavor W ambient-"W"
ones.  The S and H pushes keep the volume line (a graded map, then
witness_digest.volume_push); the others push by random_auto.  W payloads get
extra label swaps, since that is where the derivation reconstruction
refuses.

Every payload is classified, and `grade iso` runs the standard grading
against its push (positive), the push against the push of other degree
data (of the same invariants for even k, so positive, else drawn anew),
and the push against its swapped and non-multiplicative variants.

Each case is one cli.main call in process; its record is the exit code,
the `error:` line and the sha256 of stdout, as in construct_digest.py.
`grade iso` also runs with --witness-out, and its record adds the sha256
of that file, or None when the call wrote none.
classify_digest.json holds the records; tests/test_classify_digest.py
replays them.  Regenerate only when a change of the outputs is intended,
and say so where the change is recorded.
"""

import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path

from cartangrade import serialize
from cartangrade.autos import push_grading, random_auto, random_graded_auto
from cartangrade.gfp import Config, alpha_table
from cartangrade.gradings import Grading, _degree_of_exponents, grade_O_construct, induce_W
from cartangrade.oalg import z_basis_matrix
from golden.make_golden import run, swap_degrees
from test_acceptance import GROUP_MATRIX, random_data
from test_classify import formula_w_decomposition
from witness_digest import equivalent, volume_push

RECORD = Path(__file__).resolve().parent / "classify_digest.json"
P = 5

# (m, flavor, number of degree data).
PLAN = ((2, "O", 4), (2, "W", 6), (2, "S", 4), (2, "H", 2),
        (3, "O", 1), (3, "W", 1), (3, "S", 1))
# Label swaps per W payload, beyond the one every flavor gets.
EXTRA_W_SWAPS = 3


def relabelled(o, flavor, rng):
    """The standard basis of the algebra grading o with the labels of two
    single rows of different degrees swapped, or None when the drawn rows
    share a degree; for flavor W, the decomposition of the derivations that
    the degree formula gives those labels."""
    labels = [_degree_of_exponents(o.group, o.origin["degrees"], alpha)
              for alpha in alpha_table(P, o.cfg.m)]
    i, j = rng.sample([k for k in range(1, o.cfg.n) if labels[k] != labels[0]], 2)
    if labels[i] == labels[j]:
        return None
    labels[i], labels[j] = labels[j], labels[i]
    if flavor == "W":
        return formula_w_decomposition(o, labels)
    return Grading(o.cfg, o.group, "O", z_basis_matrix(o.cfg, o.origin["s"]).T, labels)


def standard(cfg, group, basis, gamma, flavor):
    """(the standard algebra grading, the grading of the flavor's payload)."""
    o = grade_O_construct(cfg, group, basis, gamma)
    return o, induce_W(o) if flavor == "W" else o


def push(g, flavor, rng):
    cfg = g.cfg
    if flavor in ("S", "H"):
        mu = volume_push(cfg, rng).compose(random_graded_auto(g, rng))
    else:
        mu = random_auto(cfg, rng)
    return push_grading(mu, g)


def cases():
    """(name, {file name: payload dict}, argv) of every case, in a fixed
    order; argv names the files, which records() writes."""
    out = []
    for m, flavor, count in PLAN:
        cfg = Config(P, m)
        for k in range(count):
            tag = f"{flavor}_m{m}_{k}"
            rng = random.Random(f"classify:{tag}")
            group = GROUP_MATRIX[k % len(GROUP_MATRIX)]
            basis, gamma = random_data(cfg, group, rng)
            if k % 2 == 0:
                b2, c2 = equivalent(group, basis, gamma, rng, keep_g0=flavor in ("S", "H"))
            else:
                b2, c2 = random_data(cfg, group, rng)
            o, std = standard(cfg, group, basis, gamma, flavor)
            payloads = {"std": serialize.grading_to_data(std),
                        "push": serialize.grading_to_data(push(std, flavor, rng)),
                        "other": serialize.grading_to_data(
                            push(standard(cfg, group, b2, c2, flavor)[1], flavor, rng))}
            comps = len(payloads["push"]["components"])
            for t in range(1 + (EXTRA_W_SWAPS if flavor == "W" else 0)):
                if comps >= 2:
                    i, j = rng.sample(range(comps), 2)
                    payloads[f"swap{t}"] = swap_degrees(payloads["push"], i, j)
            bad = relabelled(o, flavor, rng)
            if bad is not None:
                payloads["nonmult"] = serialize.grading_to_data(
                    push_grading(random_auto(cfg, rng), bad))
            files = {f"{tag}_{key}.json": data for key, data in payloads.items()}
            for key in payloads:
                out.append((f"classify_{tag}_{key}", files,
                            ["grade", "classify", "--grading", f"{tag}_{key}.json",
                             "--flavor", flavor]))
            pairs = [("std", "push"), ("push", "other")]
            pairs += [("push", key) for key in payloads if key.startswith(("swap", "nonmult"))]
            for a, b in pairs:
                out.append((f"iso_{tag}_{a}_{b}", files,
                            ["grade", "iso", "--g1", f"{tag}_{a}.json", "--g2", f"{tag}_{b}.json",
                             "--flavor", flavor]))
    return out


def records():
    """{case name: {"exit", "error", "sha256"}} of every case, with
    "witness_sha256" for the `grade iso` cases."""
    got = {}
    with tempfile.TemporaryDirectory() as tmp:
        written = set()
        for name, files, argv in cases():
            for fname, data in files.items():
                if fname not in written:
                    (Path(tmp) / fname).write_text(json.dumps(data))
                    written.add(fname)
            argv = [str(Path(tmp) / a) if a.endswith(".json") else a for a in argv]
            witness = Path(tmp) / "witness.out"
            witness.unlink(missing_ok=True)
            iso = argv[1] == "iso"
            code, out, error = run(argv + ["--witness-out", str(witness)] if iso else argv)
            got[name] = {"exit": code, "error": error,
                         "sha256": hashlib.sha256(out.encode()).hexdigest()}
            if iso:
                got[name]["witness_sha256"] = (hashlib.sha256(witness.read_bytes()).hexdigest()
                                               if witness.exists() else None)
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
