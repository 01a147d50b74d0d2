"""Finitely generated abelian groups and their elementary p-subgroups.

Degrees of gradings live in a group Z^r x Z_d1 x ... x Z_dk, written
multiplicatively.  Elements are coordinate tuples with torsion slots
reduced; the free slots carry plain integers.  An elementary p-subgroup
is handed around with a chosen basis because the classification invariants
are read off relative to such a basis.  Its elements lie in the p-socle, a
GF(p)-vector space on socle coordinates, so independence, membership,
exponents and canonical coset representatives are eliminations over GF(p)
(linalg), not walks over the p^s members.  Subgroups of arbitrary
generators are compared by a Hermite normal form over the integers.
"""

from __future__ import annotations

import math

import numpy as np

from . import linalg
from .errors import DimensionError, GroupMismatchError, InternalError, NoSuchBasisError
from .gfp import _is_prime


class AbGroup:
    """Direct product of a free part Z^r and cyclic factors Z_d."""

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank: int = 0, torsion=()):
        if free_rank < 0:
            raise DimensionError(f"free rank must be >= 0, got {free_rank}")
        torsion = tuple(int(d) for d in torsion)
        for d in torsion:
            if d < 2:
                raise DimensionError(f"torsion modulus must be >= 2, got {d}")
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "torsion", torsion)

    def __setattr__(self, name, value):
        raise AttributeError("AbGroup is immutable")

    @property
    def rank(self) -> int:
        return self.free_rank + len(self.torsion)

    @property
    def is_finite(self) -> bool:
        return self.free_rank == 0

    def order(self):
        """Number of elements, or None when the free part is nontrivial."""
        if not self.is_finite:
            return None
        return math.prod(self.torsion)

    def element(self, coords) -> "GElem":
        return GElem(self, coords)

    def identity(self) -> "GElem":
        return GElem(self, (0,) * self.rank)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AbGroup):
            return NotImplemented
        return self.free_rank == other.free_rank and self.torsion == other.torsion

    def __hash__(self) -> int:
        return hash((self.free_rank, self.torsion))

    def __repr__(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z_{d}" for d in self.torsion]
        return " x ".join(parts) if parts else "1"


class GElem:
    """Group element as a coordinate tuple; multiplication adds coordinates."""

    __slots__ = ("group", "coords")

    def __init__(self, group: AbGroup, coords):
        coords = tuple(int(c) for c in coords)
        if len(coords) != group.rank:
            raise DimensionError(f"expected {group.rank} coordinates, got {len(coords)}")
        r = group.free_rank
        reduced = coords[:r] + tuple(c % d for c, d in zip(coords[r:], group.torsion))
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "coords", reduced)

    def __setattr__(self, name, value):
        raise AttributeError("GElem is immutable")

    def _check(self, other: "GElem"):
        if self.group != other.group:
            raise GroupMismatchError(f"elements of {self.group!r} and {other.group!r}")

    @property
    def is_identity(self) -> bool:
        return not any(self.coords)

    def __mul__(self, other: "GElem") -> "GElem":
        if not isinstance(other, GElem):
            return NotImplemented
        self._check(other)
        return GElem(self.group, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def inverse(self) -> "GElem":
        return GElem(self.group, tuple(-c for c in self.coords))

    def __pow__(self, n: int) -> "GElem":
        return GElem(self.group, tuple(n * c for c in self.coords))

    def order(self):
        """Smallest n >= 1 with g^n = e, or None for infinite order."""
        r = self.group.free_rank
        if any(self.coords[:r]):
            return None
        n = 1
        for c, d in zip(self.coords[r:], self.group.torsion):
            if c:
                n = math.lcm(n, d // math.gcd(c, d))
        return n

    def __eq__(self, other) -> bool:
        if not isinstance(other, GElem):
            return NotImplemented
        return self.group == other.group and self.coords == other.coords

    def __hash__(self) -> int:
        return hash((self.group, self.coords))

    def __lt__(self, other: "GElem") -> bool:
        self._check(other)
        return self.coords < other.coords

    def __repr__(self) -> str:
        return f"g{self.coords}"


def _socle(g: GElem, p: int):
    """Coordinates of g in the p-socle, or None when g^p is not the identity.

    g^p = e forces a zero free part, a zero coordinate in every torsion slot
    whose modulus d_i is prime to p, and a multiple q_i * (d_i/p) in every slot
    with p | d_i.  The q_i, in slot order, are the socle coordinates: the
    p-socle is GF(p)^k on them, k the number of slots with p | d_i.
    """
    r = g.group.free_rank
    if any(g.coords[:r]):
        return None
    out = []
    for c, d in zip(g.coords[r:], g.group.torsion):
        if d % p:
            if c:
                return None
        elif c % (d // p):
            return None
        else:
            out.append(c // (d // p))
    return out


def p_independent(basis) -> bool:
    """Whether the elements all share a prime order p and generate p^len products.

    Elements of order p are vectors of the p-socle over GF(p) (_socle), so
    they generate p^len products exactly when their socle rows have full
    rank.  An empty list is independent.
    """
    basis = list(basis)
    if not basis:
        return True
    orders = {b.order() for b in basis}
    if len(orders) != 1:
        return False
    p = orders.pop()
    if p is None or not _is_prime(p):
        return False
    return linalg.rank([_socle(b, p) for b in basis], p) == len(basis)


class PSubgroup:
    """Elementary p-subgroup with a chosen basis of order-p elements.

    socle holds the basis as an s x k matrix of socle coordinates, so
    membership and exponents are one solve over GF(p).
    """

    __slots__ = ("group", "basis", "p", "socle")

    def __init__(self, group: AbGroup, basis):
        basis = tuple(basis)
        for b in basis:
            if b.group != group:
                raise GroupMismatchError("basis element from a different group")
        if not p_independent(basis):
            raise NoSuchBasisError("basis elements must be independent of common prime order")
        p = basis[0].order() if basis else None
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "socle", np.array([_socle(b, p) for b in basis], dtype=np.int64))

    def __setattr__(self, name, value):
        raise AttributeError("PSubgroup is immutable")

    @property
    def s(self) -> int:
        return len(self.basis)

    def order(self) -> int:
        return (self.p or 1) ** self.s

    def __contains__(self, g: GElem) -> bool:
        return self.exponents_of(g) is not None

    def exponents_of(self, g: GElem):
        """Exponent tuple of g over the basis, or None when g is outside."""
        if not self.basis:
            return () if g.is_identity else None
        q = _socle(g, self.p)
        x = None if q is None else linalg.solve(self.socle.T, q, self.p)
        return None if x is None else tuple(int(e) for e in x)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PSubgroup):
            return NotImplemented
        return self.group == other.group and self.basis == other.basis

    def __hash__(self) -> int:
        return hash((self.group, self.basis))

    def __repr__(self) -> str:
        return f"PSubgroup({list(self.basis)!r})"


def coset_eq(g: GElem, h: GElem, sub: PSubgroup) -> bool:
    """Whether g and h lie in the same coset of the subgroup."""
    g._check(h)
    return (g * h.inverse()) in sub


def coset_rep(g: GElem, sub: PSubgroup) -> GElem:
    """Lex-smallest element of the coset g*P; canonical across the coset.

    Across the coset only the slots with p | d_i move, each in steps of
    d_i/p: write such a coordinate as c_i = u_i * (d_i/p) + r_i with
    0 <= r_i < d_i/p; multiplying by the member with socle coordinates t
    gives ((u_i + t_i) mod p) * (d_i/p) + r_i, which rises with the digit
    (u_i + t_i) mod p.  So the lex-least member minimizes the digit vector
    u + t over t in the row space W of sub.socle.  Reducing u against the
    RREF of W (EchelonSpace.residual) sets every pivot digit to 0; any other
    member adds a nonzero w in W, whose first nonzero entry sits at a pivot
    where it turns that 0 into a positive digit, with all earlier digits
    unchanged.  The reduced vector is therefore the lex-least one.
    """
    if not sub.basis:
        return g
    p, r = sub.p, g.group.free_rank
    steps = [(i, d // p) for i, d in enumerate(g.group.torsion, r) if d % p == 0]
    space = linalg.EchelonSpace(len(steps), p)
    space.add_batch(sub.socle)
    digits = space.residual([g.coords[i] // step for i, step in steps]) % p
    coords = list(g.coords)
    for (i, step), v in zip(steps, digits):
        coords[i] = int(v) * step + coords[i] % step
    return GElem(g.group, coords)


def basis_with_product(sub: PSubgroup, g0: GElem) -> list:
    """A basis of the same subgroup whose product of members equals g0.

    Writes g0 over the old basis, pivots on the first nonzero exponent, and
    folds the inverses of the remaining members into that slot, so exactly
    one basis element changes.  Requires g0 inside the subgroup and not the
    identity (the identity admits no such basis when s = 1, and the callers'
    degree bookkeeping excludes it uniformly).
    """
    if g0.is_identity:
        raise NoSuchBasisError("product target must not be the identity")
    exps = sub.exponents_of(g0)
    if exps is None:
        raise NoSuchBasisError(f"{g0!r} lies outside the subgroup")
    pivot = next(i for i, e in enumerate(exps) if e)
    new_basis = list(sub.basis)
    folded = g0
    for i, b in enumerate(sub.basis):
        if i != pivot:
            folded = folded * b.inverse()
    new_basis[pivot] = folded
    if not p_independent(new_basis):
        raise InternalError("folding the target into one basis member must keep the basis independent")
    return new_basis


def subgroup_key(group: AbGroup, gens) -> tuple:
    """Canonical key of the subgroup generated by gens; equal keys iff equal subgroups.

    The subgroup is the image of the integer column lattice spanned by the
    generators together with the torsion relations d_i * e_i, so the unique
    column Hermite normal form of that lattice is a complete invariant.
    Works for infinite groups, where plain enumeration cannot.
    """
    rank = group.rank
    cols = [list(g.coords) for g in gens if isinstance(g, GElem)]
    for g in gens:
        if not isinstance(g, GElem):
            raise GroupMismatchError("generators must be group elements")
        if g.group != group:
            raise GroupMismatchError("generator from a different group")
    for i, d in enumerate(group.torsion):
        col = [0] * rank
        col[group.free_rank + i] = d
        cols.append(col)
    return _hermite_key(cols, rank)


def _hermite_key(cols, rank: int) -> tuple:
    """Column Hermite normal form of the lattice spanned by cols, as a tuple.

    Deterministic Euclidean column reduction: pivots are ordered by their
    first nonzero row, made positive, and earlier pivots' entries in each
    pivot row are reduced into [0, pivot), which is the unique normal form.
    """
    cols = [list(c) for c in cols if any(c)]
    fixed = []
    for row in range(rank):
        active = [c for c in cols if c[row]]
        others = [c for c in cols if not c[row] and any(c)]
        while len(active) > 1:
            active.sort(key=lambda c: abs(c[row]))
            base, remainder = active[0], []
            for c in active[1:]:
                q = c[row] // base[row]
                c = [x - q * y for x, y in zip(c, base)]
                if c[row]:
                    remainder.append(c)
                elif any(c):
                    others.append(c)
            active = [base] + remainder
        if active:
            piv = active[0]
            if piv[row] < 0:
                piv = [-x for x in piv]
            for c in fixed:
                q = c[row] // piv[row]
                if q:
                    c[:] = [x - q * y for x, y in zip(c, piv)]
            fixed.append(piv)
        cols = others
    return tuple(tuple(c) for c in fixed)
