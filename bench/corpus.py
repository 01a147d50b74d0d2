"""Seeded request mixes for the three workloads, each request with its oracle.

A workload is a list of slots ``(kind, count, maker)``.  One round sends
``count`` requests of every kind; ``maker(gen, k)`` builds the k-th one.
Every round of a run sends the same requests, so rates and percentiles over
whole rounds do not depend on where a run stops.  The group, toral rank and
degree data of each slot position come from a fixed template
(`Gen.template`); the seed relabels them by a group automorphism and picks
the automorphism pushes, so every seed sends isomorphic inputs of the same
cost.  The package only ever sees the generated inputs.

The package is reached through its module objects (``classify.iso_decide``
rather than a name imported here), so the traced run sees the wrappers that
`spans.instrument` installs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import sys
from dataclasses import dataclass

import oracles
from oracles import P, Group

from cartangrade import autos, classify, cli, gradings, serialize
from cartangrade.abgroup import AbGroup, PSubgroup
from cartangrade.gfp import Config
from cartangrade.oalg import OElem

# The acceptance suite's group matrix, as (free rank, torsion).
GROUPS = ((0, (5,)), (0, (5, 5)), (0, (5, 5, 5)), (1, (5,)), (0, (25,)))

KNOWN_DEFECT = ("ROADMAP item 5: a dependent toral basis trips an assert in "
                "PSubgroup instead of a typed refusal")


@dataclass
class Request:
    kind: str
    call: object          # () -> reply
    check: object         # reply -> None, or the reason the reply is wrong
    digest: bytes         # canonical bytes of the input, for the corpus hash
    known_defect: str | None = None


@dataclass
class CliReply:
    code: object
    out: str
    err: str


def run_cli(argv, stdin_text: str = "") -> CliReply:
    """One in-process CLI call with the request on stdin; JSON on stdout."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = saved
    return CliReply(code, out.getvalue(), err.getvalue())


def corpus_hash(requests) -> str:
    h = hashlib.sha256()
    for r in requests:
        h.update(r.kind.encode())
        h.update(hashlib.sha256(r.digest).digest())
    return h.hexdigest()


# -- degree data ---------------------------------------------------------------

class Gen:
    """Seeded draws of grading data in coordinate form."""

    def __init__(self, seed):
        self.rng = random.Random(seed)

    @staticmethod
    def template(kind: str, k: int) -> "Gen":
        """Draws that fix the structure of slot position k of a kind.

        They do not depend on the run's seed; the seed only relabels the
        result by a group automorphism (`relabel`) and picks the pushes, so
        every seed gets isomorphic degree data and the same cost.
        """
        return Gen(f"{kind}:{k}")

    def relabel(self, group: Group):
        """A seeded automorphism of Z^r x Z_d^k, as a map on coordinates:
        signs on the free part, an invertible matrix on the torsion part and
        a free-to-torsion shear."""
        r, k = group.free_rank, len(group.torsion)
        d = group.torsion[0] if k else 1
        signs = [self.rng.choice((1, -1)) for _ in range(r)]
        while True:
            mat = [[self.rng.randrange(d) for _ in range(k)] for _ in range(k)]
            if oracles.gf_rank(mat) == k:      # invertible mod p, so mod p^2 too
                break
        shear = [[self.rng.randrange(d) for _ in range(r)] for _ in range(k)]

        def phi(c):
            free, tor = c[:r], c[r:]
            return group.reduce([s * x for s, x in zip(signs, free)] +
                                [sum(a * y for a, y in zip(mat[i], tor)) +
                                 sum(a * x for a, x in zip(shear[i], free))
                                 for i in range(k)])
        return lambda elems: [phi(c) for c in elems]

    def degree(self, group: Group) -> tuple:
        r = group.free_rank
        return tuple(self.rng.randrange(-3, 4) if i < r else
                     self.rng.randrange(group.torsion[i - r])
                     for i in range(group.rank))

    @staticmethod
    def toral_pool(group: Group):
        """Non-identity elements killed by p: the legal toral degrees."""
        out = []
        for c in _finite_coords(group):
            if any(c) and group.p_vector(c) is not None:
                out.append(c)
        return out

    @staticmethod
    def s_max(group: Group, m: int) -> int:
        return min(m, sum(1 for d in group.torsion if d % P == 0))

    def basis(self, group: Group, s: int):
        pool = self.toral_pool(group)
        while True:
            basis = [self.rng.choice(pool) for _ in range(s)]
            if group.p_rank(basis) == s:
                return basis

    def data(self, group: Group, m: int, s: int):
        return self.basis(group, s), [self.degree(group) for _ in range(m - s)]

    def p_element(self, group: Group, basis):
        return group.combo(basis, [self.rng.randrange(P) for _ in basis])

    def equivalent(self, group: Group, basis, gamma, keep_g0: bool):
        """Another presentation of the same invariants.

        The toral basis changes by a random invertible matrix, the free
        degrees are permuted and moved within their cosets.  With keep_g0 the
        volume degree (sum of all axis degrees) is kept as well.
        """
        s, g0 = len(basis), oracles.volume_degree(group, basis, gamma)
        for _ in range(2000):
            mat = [[self.rng.randrange(P) for _ in range(s)] for _ in range(s)]
            if oracles.gf_rank(mat) != s:
                continue
            new_basis = [group.combo(basis, row) for row in mat]
            new_gamma = [group.add(g, self.p_element(group, basis))
                         for g in self.rng.sample(gamma, len(gamma))]
            if keep_g0:
                drift = group.sub(g0, oracles.volume_degree(group, new_basis, new_gamma))
                if new_gamma:
                    new_gamma[-1] = group.add(new_gamma[-1], drift)
                elif any(drift):
                    continue
            return new_basis, new_gamma
        return list(basis), list(gamma)

    def different(self, group: Group, basis, gamma, s: int, with_g0: bool):
        """Data over the same group with different invariants.

        For the volume flavor the subgroup and cosets are kept first and only
        the volume degree moves; then fresh data of the same toral rank are
        drawn, and last of any toral rank, for groups where one toral rank
        admits a single invariant.
        """
        m = len(basis) + len(gamma)
        want = oracles.invariant_key(group, basis, gamma,
                                     oracles.volume_degree(group, basis, gamma) if with_g0 else None)
        for attempt in range(3000):
            if with_g0 and s and attempt < 1000:
                b2, g2 = self.equivalent(group, basis, gamma, keep_g0=True)
                if g2:
                    g2[-1] = group.add(g2[-1], self.p_element(group, basis))
                else:
                    b2 = self.equivalent(group, basis, gamma, keep_g0=False)[0]
            else:
                s2 = s if attempt < 2000 else self.rng.randrange(self.s_max(group, m) + 1)
                b2, g2 = self.data(group, m, s2)
            g0 = oracles.volume_degree(group, b2, g2) if with_g0 else None
            if len(b2) == m and with_g0 and not any(g0):
                continue
            if oracles.invariant_key(group, b2, g2, g0) != want:
                return b2, g2
        raise RuntimeError("no non-isomorphic partner found")


def _finite_coords(group: Group):
    ranges = [(0,)] * group.free_rank + [range(d) for d in group.torsion]
    return itertools.product(*ranges)


def _stratum(k: int, m: int):
    """(group, toral rank) of slot position k: groups cycle, ranks sweep."""
    group = Group(*GROUPS[k % len(GROUPS)])
    s = (k // len(GROUPS)) % (Gen.s_max(group, m) + 1)
    return group, s


# -- package objects -------------------------------------------------------------

_CFG = {}


def cfg_of(m: int) -> Config:
    if m not in _CFG:
        _CFG[m] = Config(P, m)
    return _CFG[m]


def abgroup(group: Group) -> AbGroup:
    return AbGroup(group.free_rank, group.torsion)


def standard(m: int, group: Group, basis, gamma):
    grp = abgroup(group)
    return gradings.grade_O_construct(cfg_of(m), grp, [grp.element(b) for b in basis],
                                      [grp.element(g) for g in gamma])


def push_auto(gen: Gen, tpl: Gen, m: int, volume: bool = False):
    """A seeded automorphism whose sparsity pattern comes from the template.

    Products of pushed vectors cost in proportion to their nonzero terms, so
    the pattern (which monomials each variable image holds) is drawn from the
    template and only the nonzero coefficients from the seed.  The general
    push is an all-nonzero linear part plus two higher terms per image.  The
    volume push is unipotent, x_i -> x_i + (terms of degree >= 2 in later
    variables), so its jacobian is 1 and it keeps the volume degree.
    """
    cfg = cfg_of(m)
    higher = [a for a in itertools.product(range(P), repeat=m) if sum(a) >= 2]
    if volume:
        lin = [[int(i == j) for j in range(m)] for i in range(m)]
    else:
        while True:
            lin = [[gen.rng.randrange(1, P) for _ in range(m)] for _ in range(m)]
            if oracles.gf_rank(lin) == m:
                break
    images = []
    for i in range(m):
        terms = [(tuple(int(j == k) for k in range(m)), c) for j, c in enumerate(lin[i]) if c]
        pool = [a for a in higher if not any(a[:i + 1])] if volume else higher
        for alpha in tpl.rng.sample(pool, min(2, len(pool))):
            terms.append((alpha, gen.rng.randrange(1, P)))
        images.append(OElem.from_terms(cfg, terms))
    return autos.AutO(images)


def grading_digest(g) -> bytes:
    h = hashlib.sha256(g.ambient.encode())
    for deg, vecs in g.components.items():
        h.update(repr(deg.coords).encode())
        for v in vecs:
            h.update((v.table if g.ambient == "O" else v.flat()).tobytes())
    return h.digest()


# -- classify: a library session over held Grading objects --------------------------

def _standard_key(group, basis, gamma, flavor):
    g0 = oracles.volume_degree(group, basis, gamma) if flavor == "S" else None
    return oracles.invariant_key(group, basis, gamma, g0)


def _raw(gen: Gen, tpl: Gen, m: int, group, basis, gamma, flavor: str):
    """A raw grading: a standard one pushed by a seeded automorphism
    (unipotent for the volume flavor)."""
    g = standard(m, group, basis, gamma)
    if flavor == "W":
        g = gradings.induce_W(g)
    return autos.push_grading(push_auto(gen, tpl, m, volume=flavor == "S"), g)


def _iso_pair(gen: Gen, k: int, m: int, flavor: str, stratum=None):
    """(g1, g2, expected verdict) for pair k: even k isomorphic, odd k not."""
    group, s = stratum or _stratum(k // 2, m)
    tpl = Gen.template(f"iso.{flavor}.m{m}", k)
    basis, gamma = tpl.data(group, m, s)
    if k % 2 == 0:
        b2, g2 = tpl.equivalent(group, basis, gamma, keep_g0=flavor == "S")
    else:
        b2, g2 = tpl.different(group, basis, gamma, s, with_g0=flavor == "S")
    phi = gen.relabel(group)
    basis, gamma, b2, g2 = phi(basis), phi(gamma), phi(b2), phi(g2)
    same = _standard_key(group, basis, gamma, flavor) == _standard_key(group, b2, g2, flavor)
    return (_raw(gen, tpl, m, group, basis, gamma, flavor),
            _raw(gen, tpl, m, group, b2, g2, flavor), same)


def _check_iso(g1, g2, flavor, same):
    def check(wit):
        if not same:
            return None if wit is None else "witness returned for non-isomorphic gradings"
        if not isinstance(wit, autos.AutO):
            return f"no witness for isomorphic gradings (got {wit!r})"
        if not autos.push_grading(wit, g1).same_components(g2):
            return "witness does not carry g1 onto g2"
        if flavor == "S" and autos.volume_factor(wit) is None:
            return "volume-flavor witness does not keep the volume line"
        return None
    return check


def _check_key(key):
    def check(inv):
        got = oracles.key_of_invariants(inv)
        return None if got == key else "invariants differ from the construction data"
    return check


def iso_request(m: int, flavor: str, stratum=None):
    def make(gen: Gen, k: int) -> Request:
        g1, g2, same = _iso_pair(gen, k, m, flavor, stratum)
        digest = flavor.encode() + grading_digest(g1) + grading_digest(g2)
        return Request(f"iso.{flavor}.m{m}",
                       lambda: classify.iso_decide(g1, g2, flavor),
                       _check_iso(g1, g2, flavor, same), digest)
    return make


def recognize_request(m: int, flavor: str, stratum=None):
    def make(gen: Gen, k: int) -> Request:
        group, s = stratum or _stratum(k, m)
        phi = gen.relabel(group)
        tpl = Gen.template(f"recognize_{flavor}.m{m}", k)
        basis, gamma = map(phi, tpl.data(group, m, s))
        g = _raw(gen, tpl, m, group, basis, gamma, flavor)
        if flavor == "O":
            call = lambda: classify.recognize_O(g)[1]
        else:
            call = lambda: classify.recognize_S(g)
        return Request(f"recognize_{flavor}.m{m}", call,
                       _check_key(_standard_key(group, basis, gamma, flavor)),
                       grading_digest(g))
    return make


# Volume-flavor pairs and subalgebra gradings live over Z_5^2 with toral
# rank 1, as in the acceptance suite's witness checks, so the normalization
# runs.  One stratum keeps requests of one kind at one cost, which pins the
# percentiles of the round.
S_STRATUM = (Group(0, (5, 5)), 1)

CLASSIFY = (
    ("iso.O.m3", 32, iso_request(3, "O")),
    ("recognize_O.m3", 26, recognize_request(3, "O")),
    ("iso.W.m2", 22, iso_request(2, "W")),
    ("iso.S.m2", 30, iso_request(2, "S", S_STRATUM)),
    ("recognize_S.m2", 14, recognize_request(2, "S")),
    ("iso.S.m3", 2, iso_request(3, "S", S_STRATUM)),
    ("recognize_S.m3", 2, recognize_request(3, "S", S_STRATUM)),
)


# -- construct: the write path through the CLI -----------------------------------

def _construct_json(m, group, basis, gamma, kind, g0=None):
    req = {"p": P, "m": m, "kind": kind,
           "group": {"free_rank": group.free_rank, "torsion": list(group.torsion)},
           "basis": [list(b) for b in basis], "gamma": [list(g) for g in gamma]}
    if g0 is not None:
        req["g0"] = list(g0)
    return json.dumps(req)


def _cli_request(kind, argv, stdin_text, check, known_defect=None):
    digest = json.dumps([argv, stdin_text]).encode()
    return Request(kind, lambda: run_cli(argv, stdin_text), check, digest, known_defect)


def _check_construct(kind, group, degrees):
    def check(reply: CliReply):
        if reply.code != 0:
            return f"exit {reply.code}: {reply.err.strip()[:120]}"
        return oracles.check_grading_payload(json.loads(reply.out), kind, group, degrees)
    return check


def _check_refusal(codes):
    def check(reply: CliReply):
        if reply.code not in codes:
            return f"exit {reply.code}, expected one of {sorted(codes)}"
        if reply.out:
            return "a refusal wrote a payload"
        return None
    return check


CONSTRUCT_ARGV = ["grade", "construct", "--request", "-"]


def construct_request(m: int, kind: str):
    def make(gen: Gen, k: int) -> Request:
        group, s = _stratum(k, m)
        phi = gen.relabel(group)
        basis, gamma = map(phi, Gen.template(f"construct.{kind}.m{m}", k).data(group, m, s))
        g0 = oracles.volume_degree(group, basis, gamma) if kind == "S" else None
        text = _construct_json(m, group, basis, gamma, kind, g0)
        return _cli_request(f"construct.{kind}.m{m}", CONSTRUCT_ARGV, text,
                            _check_construct(kind, group, basis + gamma))
    return make


def construct_s3(gen: Gen, k: int) -> Request:
    """S at m = 3: even k a coarse Z_5 grading with axis degrees c(1, 1, 2)
    for a seeded unit c (5 components), odd k a Z-grading with axis degrees
    +-(1, 2, 4) in seeded order (30 components).  Group automorphisms of one
    template keep the cost of each the same for every seed."""
    if k % 2 == 0:
        group = Group(0, (5,))
        c = gen.rng.randrange(1, P)
        basis, gamma = [(c,)], [(c * d % P,) for d in gen.rng.sample((1, 2), 2)]
    else:
        group = Group(1, ())
        sign = gen.rng.choice((1, -1))
        gamma = [(sign * d,) for d in gen.rng.sample((1, 2, 4), 3)]
        basis = []
    g0 = oracles.volume_degree(group, basis, gamma)
    text = _construct_json(3, group, basis, gamma, "S", g0)
    return _cli_request("construct.S.m3", CONSTRUCT_ARGV, text,
                        _check_construct("S", group, basis + gamma))


def fine_request(gen: Gen, k: int) -> Request:
    ambient = "OWS"[k % 3]
    argv = ["grade", "fine", "--p", str(P), "--m", "2", "--ambient", ambient]

    def check(reply: CliReply):
        if reply.code != 0:
            return f"exit {reply.code}: {reply.err.strip()[:120]}"
        payload = json.loads(reply.out)
        if payload["count"] != 3 or len(payload["gradings"]) != 3:
            return f"{payload['count']} fine gradings, expected 3"
        for s, g in enumerate(payload["gradings"]):
            group = Group(2 - s, (P,) * s)
            unit = lambda i: tuple(int(j == i) for j in range(group.rank))
            degrees = [unit(group.free_rank + i) for i in range(s)] + \
                      [unit(i) for i in range(2 - s)]
            why = oracles.check_grading_payload(g, ambient, group, degrees)
            if why:
                return f"toral rank {s}: {why}"
        return None
    return _cli_request("fine.m2", argv, "", check)


def refusal_request(gen: Gen, k: int) -> Request:
    """Well-formed requests the theory refuses, exit 3.

    Cycles through: an S volume degree over the identity (impossible at
    toral rank >= 1), an S volume degree off the coset of the free degrees,
    and an O toral degree whose order is not p.
    """
    variant = k % 3
    if variant == 0:
        group = Group(0, (5, 5))
        basis, gamma = gen.data(group, 2, gen.rng.choice((1, 2)))
        g0 = group.total(gamma)
        text = _construct_json(2, group, basis, gamma, "S", g0)
    elif variant == 1:
        group = Group(1, (5,))
        basis, gamma = gen.data(group, 2, 1)
        g0 = group.add(oracles.volume_degree(group, basis, gamma), (gen.rng.choice((1, -1)), 0))
        text = _construct_json(2, group, basis, gamma, "S", g0)
    else:
        group = Group(0, (25,))
        unit = (gen.rng.choice((1, 2, 3, 4, 6, 7)),)
        text = _construct_json(2, group, [unit], [gen.degree(group)], "O")
    return _cli_request("refuse", CONSTRUCT_ARGV, text, _check_refusal({3}))


def dependent_basis_request(gen: Gen, k: int) -> Request:
    """S construct whose toral basis is dependent: a malformed or refused
    request (exit 2 or 3).  The package raises AssertionError today."""
    group = Group(0, (5, 5))
    b = gen.toral_pool(group)[gen.rng.randrange(24)]
    basis = [b, group.scale(b, gen.rng.randrange(2, P))]
    text = _construct_json(2, group, basis, [], "S", group.total(basis))
    return _cli_request("construct.S.dependent", CONSTRUCT_ARGV, text,
                        _check_refusal({2, 3}), KNOWN_DEFECT)


CONSTRUCT = (
    ("construct.O.m2", 60, construct_request(2, "O")),
    ("construct.W.m2", 50, construct_request(2, "W")),
    ("construct.S.m2", 40, construct_request(2, "S")),
    ("construct.O.m3", 16, construct_request(3, "O")),
    ("construct.W.m3", 2, construct_request(3, "W")),
    ("construct.S.m3", 2, construct_s3),
    ("fine.m2", 6, fine_request),
    ("refuse", 18, refusal_request),
    ("construct.S.dependent", 2, dependent_basis_request),
)


# -- verify: the read path through the CLI ----------------------------------------

VERIFY_ARGV = ["grade", "verify", "--grading", "-"]


def _swap_degrees(payload, a, b):
    """Swap the degree labels of components a and b; keep canonical order."""
    comps = payload["components"]
    for c in comps:
        if tuple(c["degree"]) == a:
            c["degree"] = list(b)
        elif tuple(c["degree"]) == b:
            c["degree"] = list(a)
    comps.sort(key=lambda c: tuple(c["degree"]))
    return payload


def _check_verify(valid: bool, dim: int):
    def check(reply: CliReply):
        want_code = 0 if valid else 4
        if reply.code != want_code:
            return f"exit {reply.code}, expected {want_code}: {reply.err.strip()[:120]}"
        payload = json.loads(reply.out)
        if payload["valid"] is not valid:
            return f"verdict {payload['valid']}, expected {valid}"
        if payload["pairs_checked"] != dim * dim:
            return f"{payload['pairs_checked']} pairs checked, expected {dim * dim}"
        if valid == bool(payload["failures"]):
            return "failure list disagrees with the verdict"
        return None
    return check


def verify_request(m: int, ambient: str, raw_every: int = 1, stratum=None):
    """Raw pushes of standard gradings; odd k corrupted.

    With raw_every = 2 only the first pair of every four positions is pushed
    and the second pair stays standard (sparse vectors, cheaper products).

    The corruption swaps the degree labels of the identity component and
    one other, chosen so the result is never a grading.  Let a_1 != e be the
    first axis degree.  For O the partner is a_1: the unit 1 then carries the
    label a_1, but 1 * 1 = 1 would need the label a_1^2.  For W and S the
    partner is a_1^-1, which holds d/dx_1, while the identity component holds
    the Euler field E_1 (W) or E_1 - E_2 (S); their bracket is -d/dx_1, a
    nonzero vector that after the swap carries the label e but must land in
    the component labelled a_1^-1.  Pushes keep all of this, so it holds for
    the raw gradings too.
    """
    def make(gen: Gen, k: int) -> Request:
        group, s = stratum or _stratum(k // 2, m)
        if ambient == "sub":
            s = min(s, 1)         # keeps the axis degrees the construct uses
        tpl = Gen.template(f"verify.{ambient}.m{m}", k)
        while True:
            basis, gamma = tpl.data(group, m, s)
            if any((basis + gamma)[0]):
                break
        phi = gen.relabel(group)
        basis, gamma = phi(basis), phi(gamma)
        degrees = basis + gamma
        cfg = cfg_of(m)
        if ambient == "sub":
            grp = abgroup(group)
            g0 = grp.element(oracles.volume_degree(group, basis, gamma))
            g = gradings.grade_S_construct(cfg, grp, PSubgroup(grp, [grp.element(b) for b in basis]),
                                           [grp.element(x) for x in gamma], g0)
        else:
            g = standard(m, group, basis, gamma)
            if ambient == "W":
                g = gradings.induce_W(g)
        if (k // 2) % raw_every == 0:
            g = autos.push_grading(push_auto(gen, tpl, m), g)
        payload = serialize.grading_to_data(g)
        valid = k % 2 == 0
        if not valid:
            partner = degrees[0] if ambient == "O" else group.scale(degrees[0], -1)
            _swap_degrees(payload, group.zero(), partner)
        text = serialize.dumps(payload)
        return _cli_request(f"verify.{ambient}.m{m}", VERIFY_ARGV, text,
                            _check_verify(valid, g.dim()))
    return make


PAPER_CHECK_CASES = {"bracket-closed-form": 625, "hamiltonian-bracket": 625,
                     "hamiltonian-partial": 50}


def paper_check_request(gen: Gen, k: int) -> Request:
    argv = ["paper-check", "--p", str(P), "--m", "2", "--seed", str(gen.rng.randrange(10 ** 6))]

    def check(reply: CliReply):
        if reply.code != 0:
            return f"exit {reply.code}"
        payload = json.loads(reply.out)
        names = [c["name"] for c in payload["checks"]]
        if names != ["bracket-closed-form", "hamiltonian-bracket", "hamiltonian-partial",
                     "hamiltonian-basis-count", "restricted-power"]:
            return f"unexpected suites {names}"
        for c in payload["checks"]:
            if c["status"] != "pass":
                return f"{c['name']} {c['status']}"
            if c["name"] in PAPER_CHECK_CASES and c["cases"] != PAPER_CHECK_CASES[c["name"]]:
                return f"{c['name']} ran {c['cases']} cases"
        return None if payload["ok"] is True else "suite not ok"
    return _cli_request("paper-check.m2", argv, "", check)


def dims_request(gen: Gen, k: int) -> Request:
    argv = ["dims", "--p", str(P), "--m", "3"]
    want = [("O(3;1)", P ** 3), ("W(3;1)", 3 * P ** 3), ("S(3;1)^(1)", 2 * (P ** 3 - 1)),
            ("H(2;1)^(2)", P ** 2 - 2)]

    def check(reply: CliReply):
        if reply.code != 0:
            return f"exit {reply.code}"
        rows = json.loads(reply.out)["dims"]
        got = [(r["algebra"], r["formula"]) for r in rows]
        if got != want:
            return f"rows {got}"
        bad = [r["algebra"] for r in rows if r["computed"] != r["formula"]]
        return f"computed dimension differs for {bad}" if bad else None
    return _cli_request("dims.m3", argv, "", check)


VERIFY = (
    ("verify.O.m2", 84, verify_request(2, "O")),
    ("verify.O.m3", 2, verify_request(3, "O")),
    ("verify.W.m2", 4, verify_request(2, "W", raw_every=2)),
    ("verify.sub.m2", 8, verify_request(2, "sub", stratum=S_STRATUM)),
    ("paper-check.m2", 1, paper_check_request),
    ("dims.m3", 1, dims_request),
)

WORKLOADS = {"classify": CLASSIFY, "construct": CONSTRUCT, "verify": VERIFY}

# Workloads whose requests hold package objects (Grading, with its cached
# decompositions) from one round to the next.
HOLDS_OBJECTS = frozenset({"classify"})


def build_round(workload: str, seed: int):
    """All requests of one round, each kind spread evenly over the round.

    The order does not depend on the seed, so every seed leaves the same
    allocation history behind each request.
    """
    gen = Gen(seed)
    slots = [((k + 0.5) / count, i, maker(gen, k))
             for i, (_, count, maker) in enumerate(WORKLOADS[workload]) for k in range(count)]
    return [req for _, _, req in sorted(slots, key=lambda s: s[:2])]


def build_warmup(workload: str, seed: int):
    """One request of each kind, drawn from a stream apart from the round's."""
    gen = Gen(seed ^ 0x5EED5EED)
    return [maker(gen, 0) for _, _, maker in WORKLOADS[workload]]
