"""Truncated polynomial arithmetic: ring axioms, units, derivations."""

import random

import numpy as np
import pytest

from cartangrade import oalg
from cartangrade.errors import ValidityError
from cartangrade.gfp import Config
from cartangrade.oalg import OElem, mul_rows, mul_tables, mult_operator, z_monomial, z_tables

from algebra_helpers import binom_mod_p, dp_monomial, in_max_ideal, substitute, weight_degree


def random_elem(cfg, rng):
    return OElem(cfg, np.array([rng.randrange(cfg.p) for _ in range(cfg.n)],
                               dtype=np.int64))


def test_ring_axioms_on_seeded_samples():
    cfg = Config(5, 2)
    rng = random.Random(101)
    for _ in range(40):
        a, b, c = (random_elem(cfg, rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a - a == OElem.zero(cfg)
        assert a * OElem.one(cfg) == a


def test_variables_are_nilpotent_of_exponent_p():
    cfg = Config(5, 3)
    for i in range(1, 4):
        x = OElem.variable(cfg, i)
        assert not (x ** 4).is_zero()
        assert (x ** 5).is_zero()


def test_unit_inverse_and_maximal_ideal_split():
    cfg = Config(5, 2)
    rng = random.Random(7)
    one = OElem.one(cfg)
    for _ in range(30):
        u = random_elem(cfg, rng)
        if in_max_ideal(u):
            with pytest.raises(ValidityError):
                u.inverse()
            continue
        assert u.is_unit()
        assert u * u.inverse() == one
    x1 = OElem.variable(cfg, 1)
    assert in_max_ideal(x1) and not x1.is_unit()


def test_group_like_units_have_order_p():
    cfg = Config(5, 2)
    for i in range(1, 3):
        z = OElem.one(cfg) + OElem.variable(cfg, i)
        assert z ** 5 == OElem.one(cfg)
        assert z ** 4 != OElem.one(cfg)
        assert z.inverse() == z ** 4


def test_z_monomial_matches_explicit_products():
    cfg = Config(5, 2)
    z1 = OElem.one(cfg) + OElem.variable(cfg, 1)
    z2 = OElem.one(cfg) + OElem.variable(cfg, 2)
    for a in range(5):
        for b in range(5):
            assert z_monomial(cfg, (a, b)) == z1 ** a * z2 ** b
    # exponents reduce mod p
    assert z_monomial(cfg, (7, 0)) == z_monomial(cfg, (2, 0))


def test_z_tables_stack_explicit_products():
    cfg = Config(5, 3)
    z = [OElem.one(cfg) + OElem.variable(cfg, i) for i in (1, 2, 3)]
    gammas = np.array([[0, 0, 0], [1, 2, 3], [4, 4, 4], [7, -1, 2]])
    for g, table in zip(gammas, z_tables(5, 3, gammas)):
        want = z[0] ** int(g[0] % 5) * z[1] ** int(g[1] % 5) * z[2] ** int(g[2] % 5)
        assert np.array_equal(table, want.table)
    assert z_tables(5, 3, np.zeros((0, 3))).shape == (0, cfg.n)


def test_partial_derivative_is_a_derivation():
    cfg = Config(5, 2)
    rng = random.Random(13)
    for _ in range(25):
        f, g = random_elem(cfg, rng), random_elem(cfg, rng)
        for i in (1, 2):
            assert (f * g).partial(i) == f.partial(i) * g + f * g.partial(i)
    x1, x2 = OElem.variable(cfg, 1), OElem.variable(cfg, 2)
    assert x1.partial(1) == OElem.one(cfg)
    assert x1.partial(2) == OElem.zero(cfg)
    assert (x1 * x2 ** 2).partial(2) == 2 * (x1 * x2)


def test_divided_powers_multiply_by_binomials():
    cfg = Config(5, 2)
    rng = random.Random(17)
    for _ in range(60):
        a = [rng.randrange(5) for _ in range(2)]
        b = [rng.randrange(5) for _ in range(2)]
        prod = dp_monomial(cfg, a) * dp_monomial(cfg, b)
        c = binom_mod_p(a, b, 5)
        if c == 0:
            assert prod.is_zero()
        else:
            total = tuple(x + y for x, y in zip(a, b))
            assert prod == dp_monomial(cfg, total) * c


def test_substitute_is_a_homomorphism():
    cfg = Config(5, 2)
    rng = random.Random(19)
    x1, x2 = OElem.variable(cfg, 1), OElem.variable(cfg, 2)
    images = [x1 + x2, x2 + x1 * x1]
    for _ in range(15):
        f, g = random_elem(cfg, rng), random_elem(cfg, rng)
        assert substitute(f * g, images) == substitute(f, images) * substitute(g, images)
        assert substitute(f + g, images) == substitute(f, images) + substitute(g, images)


def test_mult_operator_matrix_agrees_with_products():
    cfg = Config(5, 2)
    rng = random.Random(29)
    for _ in range(10):
        f, g = random_elem(cfg, rng), random_elem(cfg, rng)
        mat = mult_operator(cfg, f.table)
        assert np.array_equal((mat @ g.table) % 5, (f * g).table)


def test_stacked_mult_operator_is_one_matrix_per_table():
    cfg = Config(5, 2)
    rng = random.Random(31)
    stack = np.array([random_elem(cfg, rng).table for _ in range(4)])
    stack[2] = 0                                   # a zero table in the stack
    stack[3] = 0
    stack[3, cfg.index((4, 4))] = 3                # a table whose products all truncate but one
    mats = mult_operator(cfg, stack)
    assert mats.shape == (4, cfg.n, cfg.n)
    for table, mat in zip(stack, mats):
        assert np.array_equal(mat, mult_operator(cfg, table))
    assert mult_operator(cfg, np.zeros((2, cfg.n), dtype=np.int64)).shape == (2, cfg.n, cfg.n)


@pytest.mark.parametrize("p, m", [(5, 2), (5, 3), (3, 2)])
@pytest.mark.parametrize("run_terms", [40, 1 << 14])
def test_mul_rows_is_one_product_per_row_pair(p, m, run_terms, monkeypatch):
    monkeypatch.setattr(oalg, "_RUN_TERMS", run_terms)     # one row per run, or a few
    cfg = Config(p, m, allow_small_p=p <= 3)
    rng = np.random.default_rng(37)
    a = rng.integers(0, p, (12, cfg.n)) * (rng.random((12, cfg.n)) < 0.3)
    b = rng.integers(0, p, (12, cfg.n))
    a[0] = b[5] = a[10] = a[11] = 0                 # zero rows, two of them trailing
    got = mul_rows(cfg, a, b)
    assert np.array_equal(got, np.stack([mul_tables(cfg, x, y) for x, y in zip(a, b)]))
    assert not mul_rows(cfg, np.zeros_like(a), b).any()


def test_queries_and_bookkeeping():
    cfg = Config(5, 2)
    f = OElem.from_terms(cfg, [((1, 0), 2), ((0, 1), 3), ((2, 1), 4)])
    assert f.linear_part().tolist() == [2, 3]
    assert weight_degree(f) == 1
    assert f.constant_term == 0
    with pytest.raises(ValueError, match="weight degree of 0"):
        weight_degree(OElem.zero(cfg))
    assert sorted(f.terms()) == [((0, 1), 3), ((1, 0), 2), ((2, 1), 4)]
