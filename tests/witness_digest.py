"""Digest of the isomorphism decisions over a seeded corpus of pairs.

    PYTHONPATH=src python3 tests/witness_digest.py            # compare
    PYTHONPATH=src python3 tests/witness_digest.py --write    # regenerate

For seeded pairs of O, W and S gradings at p = 5, m = 2 and 3 (pushes of
standard gradings, half of them isomorphic by construction, and two pairs
of subalgebra gradings), each pair contributes the sha256 of its flavor, the
canonical invariant keys of both gradings and the iso_decide outcome: the
tables of the witness images, None, or the refusal's class and message.
The per-pair digests and their combined digest are recorded in
witness_digest.json; tests/test_witness_digest.py replays them.  Regenerate
only when a change of the witnesses is intended, and say so where the
change is recorded.
"""

import functools
import hashlib
import json
import random
import sys
from pathlib import Path

import numpy as np

from cartangrade import linalg
from cartangrade.abgroup import PSubgroup, basis_with_product
from cartangrade.autos import AutO, push_grading, random_auto, random_graded_auto
from cartangrade.classify import GradingInvariants, canonical_key, invariants_of, iso_decide
from cartangrade.errors import CartanGradeError
from cartangrade.gfp import Config
from cartangrade.gradings import grade_O_construct, grade_S_construct, induce_W
from cartangrade.oalg import OElem
from test_acceptance import GROUP_MATRIX, random_data

RECORD = Path(__file__).resolve().parent / "witness_digest.json"
P = 5

# (m, flavor, number of pairs); even pairs are isomorphic by construction.
PLAN = ((2, "O", 8), (2, "W", 6), (2, "S", 12), (3, "O", 8), (3, "W", 4), (3, "S", 8))


def equivalent(group, basis, gamma, rng, keep_g0):
    """Other degree data of the same invariants: a new basis of the same
    subgroup, the free degrees permuted and moved within their cosets, and
    with keep_g0 the same product of all degrees (the volume degree)."""
    s = len(basis)
    while True:
        mat = np.array([[rng.randrange(P) for _ in range(s)] for _ in range(s)], dtype=np.int64)
        if linalg.rank(mat.reshape(s, s), P) == s:
            break
    new_basis = [_product(group, [b ** int(e) for b, e in zip(basis, row)]) for row in mat]
    new_gamma = [g * _product(group, [b ** rng.randrange(P) for b in basis])
                 for g in rng.sample(list(gamma), len(gamma))]
    if keep_g0:
        g0 = _product(group, list(basis) + list(gamma))
        drift = g0 * _product(group, new_basis + new_gamma).inverse()
        if new_gamma:
            new_gamma[-1] = new_gamma[-1] * drift
        elif not drift.is_identity and not g0.is_identity:
            new_basis = basis_with_product(PSubgroup(group, tuple(new_basis)), g0)
        elif not drift.is_identity:
            new_basis = list(basis)
    return new_basis, new_gamma


def _product(group, degrees):
    g = group.identity()
    for d in degrees:
        g = g * d
    return g


def volume_push(cfg, rng):
    """A map that keeps the volume line: x_1 scaled by a unit, then the
    unipotent x_i -> x_i + (terms of degree >= 2 in the later variables).
    The S pairs push by it after a graded map (random_graded_auto), whose
    jacobian is homogeneous of trivial degree, so normalization has work."""
    m = cfg.m
    images = []
    for i in range(m):
        u = OElem.variable(cfg, i + 1)
        for _ in range(2):
            if i + 1 < m:
                j, k = rng.randrange(i + 1, m), rng.randrange(i + 1, m)
                u = u + rng.randrange(1, P) * OElem.variable(cfg, j + 1) * OElem.variable(cfg, k + 1)
        images.append(u)
    images[0] = rng.randrange(1, P) * images[0]
    return AutO(images)


@functools.lru_cache(maxsize=None)
def pairs():
    """(flavor, g1, g2) of the corpus, in a fixed order; built once per
    process, since other tests read the same pairs."""
    out = []
    for m, flavor, count in PLAN:
        cfg = Config(P, m)
        for k in range(count):
            rng = random.Random(f"{flavor}.m{m}:{k}")
            group = GROUP_MATRIX[k % len(GROUP_MATRIX)]
            basis, gamma = random_data(cfg, group, rng)
            if k % 2 == 0:
                b2, c2 = equivalent(group, basis, gamma, rng, keep_g0=flavor == "S")
            else:
                b2, c2 = random_data(cfg, group, rng)
            grads = []
            for b, c in ((basis, gamma), (b2, c2)):
                g = grade_O_construct(cfg, group, b, c)
                if flavor == "W":
                    g = induce_W(g)
                if flavor == "S":
                    push = volume_push(cfg, rng).compose(random_graded_auto(g, rng))
                else:
                    push = random_auto(cfg, rng)
                grads.append(push_grading(push, g))
            out.append((flavor, *grads))
    cfg, group = Config(P, 2), GROUP_MATRIX[1]
    a, b = group.element((1, 0)), group.element((0, 1))
    psub = PSubgroup(group, (a,))
    sx = grade_S_construct(cfg, group, psub, [b], a * b)
    out.append(("S", sx, grade_S_construct(cfg, group, psub, [b * a ** 3], a * b)))
    out.append(("S", sx, grade_S_construct(cfg, group, psub, [b ** 2], a * b ** 2)))
    return tuple(out)


def _describe(call) -> bytes:
    """Canonical bytes of a call's outcome: the tables of a witness's
    images, the canonical key of invariants, a refusal's class and message,
    or the repr of anything else (None, the open-in-paper status)."""
    try:
        out = call()
    except CartanGradeError as exc:
        return f"{type(exc).__name__}: {exc}".encode()
    if isinstance(out, AutO):
        return b"".join(np.asarray(u.table, dtype=np.int64).tobytes() for u in out.images)
    if isinstance(out, GradingInvariants):
        return json.dumps(canonical_key(out), default=int).encode()
    return repr(out).encode()


def pair_digest(flavor, g1, g2) -> str:
    h = hashlib.sha256(flavor.encode())
    h.update(_describe(lambda: invariants_of(g1, flavor)))
    h.update(_describe(lambda: invariants_of(g2, flavor)))
    h.update(_describe(lambda: iso_decide(g1, g2, flavor)))
    return h.hexdigest()


def digests():
    """{"pairs": per-pair digests, "total": their combined sha256}."""
    each = [pair_digest(*pair) for pair in pairs()]
    return {"pairs": each, "total": hashlib.sha256("".join(each).encode()).hexdigest()}


def main(argv) -> int:
    got = digests()
    if "--write" in argv:
        RECORD.write_text(json.dumps(got, indent=1) + "\n")
        print(f"wrote {RECORD.name}: {got['total']}")
        return 0
    want = json.loads(RECORD.read_text())
    print(got["total"], "matches" if got == want else "DIFFERS from the record")
    return 0 if got == want else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
