"""Abelian groups, p-subgroups, cosets, and canonical subgroup keys."""

import random

import pytest

from cartangrade.abgroup import (AbGroup, GElem, PSubgroup, basis_with_product,
                                 coset_eq, coset_rep, p_independent,
                                 subgroup_key)
from cartangrade.errors import (DimensionError, GroupMismatchError,
                                NoSuchBasisError)


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
    assert len(sub.elements()) == 5
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
