"""Expected answers computed from construction data, apart from the package.

Degrees are handled here as plain coordinate tuples with this module's own
group arithmetic, so no oracle shares the measured code path: invariants
are spans and coset sets enumerated element by element, and component
dimensions are counted from the standard-frame degree formulas.

  O       x^a (or its mixed-frame analogue) has degree sum_i a_i d_i;
  W       u_a d/dx_j has degree deg(u_a) - d_j;
  S       D_ij(u_a) = d_j(u_a) d_i - d_i(u_a) d_j has degree
          deg(u_a) - d_i - d_j and vanishes exactly when a_i = a_j = 0.
          At m = 2 the fields D_12(u_a), a != 0, are a basis of S(2;1)^(1)
          and the construct keeps the second derived algebra, which drops
          the top potential a = (p-1, p-1).  At m >= 3 the family spans
          S(m;1)^(1) with relations, so only the support and the total
          dimension (m-1)(p^m-1) are predicted.
"""

from __future__ import annotations

import itertools
from collections import Counter

P = 5


class Group:
    """Z^r x Z_d1 x ... x Z_dk on coordinate tuples, written additively."""

    def __init__(self, free_rank: int, torsion):
        self.free_rank = free_rank
        self.torsion = tuple(torsion)
        self.rank = free_rank + len(self.torsion)

    def reduce(self, c) -> tuple:
        r = self.free_rank
        return tuple(int(x) if i < r else int(x) % self.torsion[i - r]
                     for i, x in enumerate(c))

    def zero(self) -> tuple:
        return (0,) * self.rank

    def add(self, a, b) -> tuple:
        return self.reduce(x + y for x, y in zip(a, b))

    def sub(self, a, b) -> tuple:
        return self.reduce(x - y for x, y in zip(a, b))

    def scale(self, a, k: int) -> tuple:
        return self.reduce(k * x for x in a)

    def total(self, elems) -> tuple:
        out = self.zero()
        for e in elems:
            out = self.add(out, e)
        return out

    def combo(self, elems, coeffs) -> tuple:
        return self.total(self.scale(e, k) for e, k in zip(elems, coeffs))

    def p_vector(self, c):
        """Coordinates over GF(p) of an element killed by p, else None."""
        r = self.free_rank
        if any(c[:r]):
            return None
        out = []
        for x, d in zip(c[r:], self.torsion):
            if d % P:
                if x % d:
                    return None
                out.append(0)
            elif x % (d // P):
                return None
            else:
                out.append(x // (d // P) % P)
        return tuple(out)

    def p_rank(self, elems) -> int:
        """Rank over GF(p) of elements killed by p (their span's dimension)."""
        rows = [list(self.p_vector(e)) for e in elems]
        return gf_rank(rows)

    def span(self, basis) -> frozenset:
        """All GF(p)-combinations of the basis, as a set of coordinates."""
        out = {self.zero()}
        for b in basis:
            out = {self.add(x, self.scale(b, k)) for x in out for k in range(P)}
        return frozenset(out)


def gf_rank(rows) -> int:
    rows = [[x % P for x in r] for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, P)
        rows[rank] = [x * inv % P for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % P for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


# -- isomorphism invariants -------------------------------------------------

def invariant_key(group: Group, basis, gamma, g0=None):
    """(unit-support subgroup, multiset of free-degree cosets, volume degree).

    Cosets are named by their least element, so two keys are equal exactly
    when the invariants agree.
    """
    sub = group.span(basis)
    cosets = sorted(min(group.add(g, x) for x in sub) for g in gamma)
    return (sub, tuple(cosets), None if g0 is None else tuple(g0))


def key_of_invariants(inv):
    """invariant_key of a GradingInvariants object returned by the package."""
    grp = inv.P.group
    group = Group(grp.free_rank, grp.torsion)
    g0 = None if inv.g0 is None else inv.g0.coords
    return invariant_key(group, [b.coords for b in inv.P.basis],
                         [r.coords for r in inv.gamma_cosets], g0)


def volume_degree(group: Group, basis, gamma) -> tuple:
    return group.total(list(basis) + list(gamma))


# -- component dimensions of standard gradings --------------------------------

def _alphas(m: int):
    return itertools.product(range(P), repeat=m)


def o_dims(group: Group, degrees) -> Counter:
    return Counter(group.combo(degrees, a) for a in _alphas(len(degrees)))


def w_dims(group: Group, degrees) -> Counter:
    out = Counter()
    for a in _alphas(len(degrees)):
        base = group.combo(degrees, a)
        for d in degrees:
            out[group.sub(base, d)] += 1
    return out


def s_dim(m: int) -> int:
    return P * P - 2 if m == 2 else (m - 1) * (P ** m - 1)


def s_dims(group: Group, degrees):
    """Exact {degree: dim} at m = 2; the support (dims None) at m >= 3."""
    m = len(degrees)
    if m == 2:
        top = (P - 1,) * 2
        out = Counter()
        for a in _alphas(2):
            if any(a) and a != top:
                out[group.sub(group.combo(degrees, a), group.total(degrees))] += 1
        return out
    support = set()
    for a in _alphas(m):
        base = group.combo(degrees, a)
        for i, j in itertools.combinations(range(m), 2):
            if a[i] or a[j]:
                support.add(group.sub(base, group.add(degrees[i], degrees[j])))
    return dict.fromkeys(support)


def expected_dims(kind: str, group: Group, degrees):
    if kind == "O":
        return o_dims(group, degrees)
    if kind == "W":
        return w_dims(group, degrees)
    return s_dims(group, degrees)


def check_grading_payload(payload, kind: str, group: Group, degrees):
    """Compare a serialized grading with the predicted components."""
    want_ambient = "sub" if kind == "S" else kind
    if payload.get("ambient") != want_ambient:
        return f"ambient {payload.get('ambient')!r}, expected {want_ambient!r}"
    grp = payload.get("group", {})
    if (grp.get("free_rank"), tuple(grp.get("torsion", ()))) != (group.free_rank, group.torsion):
        return f"group {grp!r} differs from the request"
    got = {tuple(c["degree"]): len(c["basis"]) for c in payload["components"]}
    want = expected_dims(kind, group, degrees)
    if set(got) != set(want):
        return f"support of {len(got)} degrees, expected {len(want)}"
    if kind == "S" and len(degrees) >= 3:
        total = sum(got.values())
        if total != s_dim(len(degrees)):
            return f"dimension {total}, expected {s_dim(len(degrees))}"
        return None
    for g, k in want.items():
        if got[g] != k:
            return f"component {g} has dimension {got[g]}, expected {k}"
    return None
