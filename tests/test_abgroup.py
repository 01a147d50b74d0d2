"""Abelian groups, p-subgroups, cosets, and canonical subgroup keys."""

import random
import time
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartangrade.abgroup import (AbGroup, GElem, PSubgroup, basis_with_product,
                                 coset_eq, coset_rep, p_independent,
                                 subgroup_key)
from cartangrade.errors import (DimensionError, GroupMismatchError,
                                NoSuchBasisError)
from cartangrade.gfp import _is_prime


# -- brute-force oracles: enumerate all p^s members of the subgroup ----------

def brute_elements(sub):
    """All p^s products of the basis, in exponent-box order."""
    out = []
    for exps in product(range(sub.p or 1), repeat=sub.s):
        g = sub.group.identity()
        for b, e in zip(sub.basis, exps):
            g = g * b**e
        out.append(g)
    return out


def brute_p_independent(basis) -> bool:
    basis = list(basis)
    if not basis:
        return True
    orders = {b.order() for b in basis}
    if len(orders) != 1:
        return False
    p = orders.pop()
    if p is None or not _is_prime(p):
        return False
    seen = set()
    for exps in product(range(p), repeat=len(basis)):
        g = basis[0].group.identity()
        for b, e in zip(basis, exps):
            g = g * b**e
        if g.coords in seen:
            return False
        seen.add(g.coords)
    return True


def brute_exponents_of(sub, g):
    for exps, h in zip(product(range(sub.p or 1), repeat=sub.s), brute_elements(sub)):
        if h == g:
            return exps
    return None


def brute_coset_rep(g, sub):
    return min((g * q for q in brute_elements(sub)), key=lambda e: e.coords)


def test_group_construction_and_element_reduction():
    g = AbGroup(1, (5, 10))
    assert g.rank == 3 and not g.is_finite and g.order() is None
    e = g.element((3, 7, -1))
    assert e.coords == (3, 2, 9)  # free slot untouched, torsion reduced
    assert AbGroup(0, (5, 5)).order() == 25
    with pytest.raises(DimensionError):
        AbGroup(-1)
    with pytest.raises(DimensionError):
        AbGroup(0, (1,))
    with pytest.raises(DimensionError):
        g.element((1, 2))


def test_element_arithmetic_and_orders():
    g = AbGroup(1, (5,))
    a = g.element((2, 3))
    b = g.element((-2, 4))
    assert (a * b).coords == (0, 2)
    assert (a * a.inverse()).is_identity
    assert (a ** 3).coords == (6, 4)
    assert a.order() is None  # nonzero free coordinate
    assert g.element((0, 2)).order() == 5
    assert g.identity().order() == 1
    h = AbGroup(0, (10,))
    assert h.element((4,)).order() == 5
    assert h.element((2,)).order() == 5
    assert h.element((5,)).order() == 2


def test_mixed_group_elements_do_not_mix():
    a = AbGroup(0, (5,)).element((1,))
    b = AbGroup(0, (7,)).element((1,))
    with pytest.raises(GroupMismatchError):
        a * b


def test_p_independence_by_enumeration():
    g = AbGroup(0, (5, 5))
    a, b = g.element((1, 0)), g.element((0, 1))
    assert p_independent([])
    assert p_independent([a])
    assert p_independent([a, b])
    assert not p_independent([a, a])
    assert not p_independent([a, a * a])
    assert not p_independent([g.identity()])
    # mixed orders are rejected
    h = AbGroup(0, (10,))
    assert not p_independent([h.element((2,)), h.element((5,))])


def test_psubgroup_membership_and_exponents():
    g = AbGroup(0, (5, 5))
    sub = PSubgroup(g, [g.element((1, 2))])
    assert sub.s == 1 and sub.order() == 5
    assert len(brute_elements(sub)) == 5
    assert g.element((2, 4)) in sub
    assert g.element((1, 0)) not in sub
    assert sub.exponents_of(g.element((3, 1))) == (3,)
    assert sub.exponents_of(g.element((0, 1))) is None
    trivial = PSubgroup(g, [])
    assert trivial.exponents_of(g.identity()) == ()
    assert trivial.exponents_of(g.element((1, 0))) is None


def test_coset_representatives_are_canonical():
    g = AbGroup(0, (5, 5))
    sub = PSubgroup(g, [g.element((1, 0))])
    x, y = g.element((2, 3)), g.element((4, 3))
    assert coset_eq(x, y, sub)
    assert coset_rep(x, sub) == coset_rep(y, sub)
    assert coset_rep(x, sub) == g.element((0, 3))
    assert not coset_eq(x, g.element((2, 2)), sub)


def test_basis_with_product_hits_the_target():
    g = AbGroup(0, (5, 5, 5))
    sub = PSubgroup(g, [g.element((1, 0, 0)), g.element((0, 1, 0))])
    rng = random.Random(71)
    for _ in range(20):
        target = g.element((rng.randrange(5), rng.randrange(5), 0))
        if target.is_identity:
            continue
        new_basis = basis_with_product(sub, target)
        prod = g.identity()
        for b in new_basis:
            prod = prod * b
        assert prod == target
        assert subgroup_key(g, PSubgroup(g, new_basis).basis) == subgroup_key(g, sub.basis)
    with pytest.raises(NoSuchBasisError):
        basis_with_product(sub, g.identity())
    with pytest.raises(NoSuchBasisError):
        basis_with_product(sub, g.element((0, 0, 1)))


def test_subgroup_key_separates_and_identifies():
    g = AbGroup(0, (5, 5))
    a, b = g.element((1, 0)), g.element((0, 1))
    ab = g.element((1, 1))
    # same subgroup under a basis change
    assert subgroup_key(g, [a, b]) == subgroup_key(g, [ab, b])
    assert subgroup_key(g, [a]) != subgroup_key(g, [b])
    assert subgroup_key(g, [a]) != subgroup_key(g, [a, b])
    # generators of the same cyclic subgroup
    assert subgroup_key(g, [ab]) == subgroup_key(g, [ab ** 2])


def test_subgroup_key_on_infinite_groups():
    g = AbGroup(1, (5,))
    two = g.element((2, 0))
    four = g.element((4, 0))
    assert subgroup_key(g, [two]) == subgroup_key(g, [two.inverse()])
    assert subgroup_key(g, [two]) != subgroup_key(g, [four])
    assert subgroup_key(g, [two, four]) == subgroup_key(g, [two])
    mixed = g.element((2, 1))
    assert subgroup_key(g, [mixed]) != subgroup_key(g, [two])


# Moduli with and without the drawn prime as a factor, prime powers among them.
MODULI = (2, 3, 4, 5, 6, 7, 9, 10, 14, 15, 21, 25, 27, 49, 125)


@st.composite
def subgroup_cases(draw):
    """(group, basis, probes).  Most bases are drawn from the p-socle of a
    group with several moduli divisible by p; the rest mix in identities,
    free-part elements, other orders and dependent members."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    socle_only = draw(st.integers(0, 3)) > 0
    multiples = st.sampled_from((1, 2, 3, 5, p, p * p)).map(lambda k: k * p)
    torsion = draw(st.lists(multiples, min_size=1, max_size=3))
    torsion += draw(st.lists(st.sampled_from(MODULI), max_size=1 if socle_only else 2))
    group = AbGroup(draw(st.integers(0, 1)), torsion)
    r = group.free_rank

    def socle_element():
        coords = [0] * r
        for d in torsion:
            coords.append(draw(st.integers(0, p - 1)) * (d // p) if d % p == 0 else 0)
        return group.element(coords)

    def any_element():
        kind = draw(st.sampled_from(("socle", "socle", "identity", "free", "random")))
        if kind == "socle":
            return socle_element()
        if kind == "identity":
            return group.identity()
        coords = [draw(st.integers(-3, 3)) for _ in range(r)]
        coords += [draw(st.integers(0, d - 1)) for d in torsion]
        if kind == "free" and r:
            coords[0] = draw(st.integers(1, 3))
        return group.element(coords)

    basis = []
    for _ in range(draw(st.sampled_from((2, 3, 1, 3, 2, 0)))):
        if basis and draw(st.integers(0, 5)) == 0:
            basis.append(basis[0] * basis[-1] ** draw(st.integers(0, p - 1)))
        else:
            basis.append(socle_element() if socle_only else any_element())
    probes = [any_element() for _ in range(4)] + [b ** 2 for b in basis]
    return group, basis, probes


@settings(derandomize=True, deadline=None, max_examples=400)
@given(subgroup_cases())
def test_socle_arithmetic_matches_enumeration(case):
    group, basis, probes = case
    independent = p_independent(basis)
    assert independent == brute_p_independent(basis)
    if not independent:
        with pytest.raises(NoSuchBasisError):
            PSubgroup(group, basis)
        return
    sub = PSubgroup(group, basis)
    members = set(brute_elements(sub))
    assert len(members) == sub.order()
    for g in probes + list(members)[:8]:
        assert (g in sub) == (g in members)
        assert sub.exponents_of(g) == brute_exponents_of(sub, g)
        assert coset_rep(g, sub) == brute_coset_rep(g, sub)


def test_large_prime_subgroup_is_fast():
    q = 2**31 - 1
    g = AbGroup(0, (q,))
    a = g.element((5,))
    start = time.perf_counter()
    sub = PSubgroup(g, [a])
    assert g.element((7,)) in sub
    assert sub.exponents_of(g.element((10,))) == (2,)
    assert coset_rep(g.element((12,)), sub) == g.identity()
    assert basis_with_product(sub, g.element((3,))) == [g.element((3,))]
    assert time.perf_counter() - start < 1.0
