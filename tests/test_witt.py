"""Derivation algebra: brackets, restricted powers, generator families."""

import random
from itertools import combinations

import numpy as np
import pytest

from cartangrade.errors import AxisRangeError
from cartangrade.forms import algebra_rows, omega_symplectic, omega_volume
from cartangrade.gfp import Config
from cartangrade.oalg import OElem
from cartangrade.witt import (WElem, ad_matrices, bracket_rows, closed_form_bracket,
                              closed_form_bracket_reduced, closed_form_bracket_rows,
                              closed_form_h_bracket_rows, closed_form_h_partial_rows,
                              conjugate_axis, d_ij, d_ij_rows, d_ij_z, sigma, w_basis)

from algebra_helpers import (closed_form_h_bracket, closed_form_h_partial, d_h, d_h_z,
                             stabilizer_test)


def random_derivation(cfg, rng):
    t = np.array([[rng.randrange(cfg.p) for _ in range(cfg.n)]
                  for _ in range(cfg.m)], dtype=np.int64)
    return WElem(cfg, t)


def random_elem(cfg, rng):
    return OElem(cfg, np.array([rng.randrange(cfg.p) for _ in range(cfg.n)],
                               dtype=np.int64))


def test_derivations_satisfy_leibniz():
    cfg = Config(5, 2)
    rng = random.Random(3)
    for _ in range(20):
        d = random_derivation(cfg, rng)
        f, g = random_elem(cfg, rng), random_elem(cfg, rng)
        assert d.apply(f * g) == d.apply(f) * g + f * d.apply(g)


def test_bracket_is_the_operator_commutator():
    cfg = Config(5, 2)
    rng = random.Random(5)
    for _ in range(20):
        d, e = random_derivation(cfg, rng), random_derivation(cfg, rng)
        f = random_elem(cfg, rng)
        assert d.bracket(e).apply(f) == d.apply(e.apply(f)) - e.apply(d.apply(f))


@pytest.mark.parametrize("p, m", [(5, 2), (5, 3), (3, 2), (5, 1), (7, 2)])
def test_bracket_rows_match_ad_matrix_products(p, m):
    cfg = Config(p, m)
    rng = random.Random(41)
    ds = [random_derivation(cfg, rng) for _ in range(6)]
    es = [random_derivation(cfg, rng) for _ in range(6)]
    ds[1] = WElem.partial(cfg, m)                    # constant coefficients
    ds[2] = WElem.zero(cfg)
    es[4] = WElem.basis_element(cfg, (1,) * m, 1)
    got = bracket_rows(cfg, np.stack([d.flat() for d in ds]), np.stack([e.flat() for e in es]))
    for d, e, row in zip(ds, es, got):
        assert np.array_equal(row, d.ad_matrix() @ e.flat() % p)
        assert np.array_equal(row, d.bracket(e).flat())
    # The whole stack at once: dense, constant and zero rows, and sparse
    # rows of the volume family, against every partner.
    sparse = algebra_rows(cfg, "S")
    stack = np.vstack([np.stack([d.flat() for d in ds]), sparse[::max(1, len(sparse) // 8)]])
    partners = np.stack([e.flat() for e in es])
    ads = ad_matrices(cfg, stack)
    assert ads.shape == (len(stack), cfg.m * cfg.n, cfg.m * cfg.n)
    want = bracket_rows(cfg, np.repeat(stack, len(partners), axis=0),
                        np.tile(partners, (len(stack), 1)))
    assert np.array_equal((ads @ partners.T % p).transpose(0, 2, 1).reshape(want.shape), want)
    for row, ad in zip(stack, ads):
        one = WElem.from_flat(cfg, row).ad_matrix()
        assert np.array_equal(one, ad)
        assert np.array_equal(one, ad_matrices(cfg, [row])[0])


def test_d_ij_rows_take_one_pair_per_row():
    cfg = Config(5, 3)
    rng = random.Random(43)
    fs = [random_elem(cfg, rng) for _ in range(4)]
    i, j = np.array([1, 1, 2, 1]), np.array([2, 3, 3, 2])
    rows = d_ij_rows(cfg, i, j, np.stack([f.table for f in fs]))
    for f, a, b, row in zip(fs, i, j, rows):
        assert np.array_equal(row, d_ij(cfg, int(a), int(b), f).flat())
    with pytest.raises(AxisRangeError):
        d_ij_rows(cfg, np.array([1, 3]), np.array([2, 2]), rows[:2, :cfg.n])
    assert d_ij_rows(cfg, 1, 2, np.zeros((0, cfg.n), dtype=np.int64)).shape == (0, 3 * cfg.n)


def test_lie_axioms_on_seeded_samples():
    cfg = Config(5, 2)
    rng = random.Random(7)
    zero = WElem.zero(cfg)
    for _ in range(15):
        a, b, c = (random_derivation(cfg, rng) for _ in range(3))
        assert a.bracket(b) + b.bracket(a) == zero
        jacobi = (a.bracket(b.bracket(c)) + b.bracket(c.bracket(a))
                  + c.bracket(a.bracket(b)))
        assert jacobi == zero


def test_basis_spans_with_independent_unit_vectors():
    cfg = Config(5, 2)
    basis = w_basis(cfg)
    assert len(basis) == cfg.m * cfg.n
    flats = np.stack([d.flat() for d in basis])
    assert np.array_equal(np.sort(np.argmax(flats, axis=1)), np.arange(cfg.m * cfg.n))
    assert (flats.sum(axis=1) == 1).all()


def test_volume_generators_annihilate_the_volume_form():
    cfg = Config(5, 3)
    omega = omega_volume(cfg)
    rng = random.Random(11)
    for _ in range(15):
        f = random_elem(cfg, rng)
        i = rng.randrange(1, 3)
        j = rng.randrange(i + 1, 4)
        assert stabilizer_test(d_ij(cfg, i, j, f), omega)


def test_hamiltonian_generators_annihilate_the_symplectic_form():
    cfg = Config(5, 2)
    omega = omega_symplectic(cfg)
    rng = random.Random(13)
    for _ in range(15):
        assert stabilizer_test(d_h(cfg, random_elem(cfg, rng)), omega)
    assert sigma(cfg, 1) == 1 and sigma(cfg, 2) == -1
    assert conjugate_axis(cfg, 1) == 2 and conjugate_axis(cfg, 2) == 1


def test_closed_form_bracket_matches_generic_on_samples():
    cfg = Config(5, 3)
    rng = random.Random(17)
    pairs = [(1, 2), (1, 3), (2, 3)]
    for _ in range(150):
        i, j = rng.choice(pairs)
        a = tuple(rng.randrange(5) for _ in range(3))
        b = tuple(rng.randrange(5) for _ in range(3))
        want = d_ij_z(cfg, 1, 2, a).bracket(d_ij_z(cfg, i, j, b))
        assert closed_form_bracket(cfg, a, b, i, j) == want


def test_closed_form_bracket_disjoint_stratum():
    cfg = Config(5, 4)
    rng = random.Random(19)
    for _ in range(40):
        a = tuple(rng.randrange(5) for _ in range(4))
        b = tuple(rng.randrange(5) for _ in range(4))
        want = d_ij_z(cfg, 1, 2, a).bracket(d_ij_z(cfg, 3, 4, b))
        assert closed_form_bracket(cfg, a, b, 3, 4) == want


def test_one_term_shortcut_on_and_off_its_stratum():
    cfg = Config(5, 3)
    rng = random.Random(23)
    for _ in range(60):
        a = (rng.randrange(5), 1, 0)
        b = tuple(rng.randrange(5) for _ in range(3))
        want = closed_form_bracket(cfg, a, b, 2, 3)
        assert closed_form_bracket_reduced(cfg, a, b, 2, 3) == want
    with pytest.raises(ValueError):
        closed_form_bracket_reduced(cfg, (0, 2, 0), (1, 1, 1), 2, 3)
    with pytest.raises(ValueError):
        closed_form_bracket_reduced(cfg, (0, 1, 3), (1, 1, 1), 2, 3)


def test_hamiltonian_closed_forms_match_generic():
    cfg = Config(5, 2)
    rng = random.Random(29)
    for _ in range(80):
        a = tuple(rng.randrange(5) for _ in range(2))
        b = tuple(rng.randrange(5) for _ in range(2))
        assert closed_form_h_bracket(cfg, a, b) == d_h_z(cfg, a).bracket(d_h_z(cfg, b))
    zero = (0, 0)
    for ell in (1, 2):
        d_ell = WElem.basis_element(cfg, zero, ell)
        for t in range(cfg.n):
            b = cfg.alpha(t)
            assert closed_form_h_partial(cfg, ell, b) == d_ell.bracket(d_h_z(cfg, b))


def test_stacked_closed_forms_match_generic_at_m4():
    """Every index stratum, and the Hamiltonian forms with two symplectic pairs."""
    cfg = Config(5, 4)
    rng = np.random.default_rng(37)
    alphas, betas = rng.integers(0, 5, (2, 5, 4))
    zero = (0,) * 4
    for i, j in combinations(range(1, 5), 2):
        rows = closed_form_bracket_rows(cfg, alphas, betas, i, j)
        for a, b, row in zip(alphas, betas, rows):
            want = d_ij_z(cfg, 1, 2, a).bracket(d_ij_z(cfg, i, j, b))
            assert WElem.from_flat(cfg, row) == want
    for a, b, row in zip(alphas, betas, closed_form_h_bracket_rows(cfg, alphas, betas)):
        assert WElem.from_flat(cfg, row) == d_h_z(cfg, a).bracket(d_h_z(cfg, b))
    for ell in range(1, 5):
        d_ell = WElem.basis_element(cfg, zero, ell)
        for b, row in zip(betas, closed_form_h_partial_rows(cfg, ell, betas)):
            assert WElem.from_flat(cfg, row) == d_ell.bracket(d_h_z(cfg, b))


def test_p_power_agrees_with_iterated_application():
    cfg = Config(5, 2)
    rng = random.Random(31)
    for _ in range(10):
        d = random_derivation(cfg, rng)
        f = random_elem(cfg, rng)
        iterated = f
        for _ in range(5):
            iterated = d.apply(iterated)
        assert d.p_power().apply(f) == iterated


def test_p_power_matches_ad_matrix_power():
    cfg = Config(5, 2)
    rng = random.Random(37)
    for _ in range(10):
        d = random_derivation(cfg, rng)
        ad = d.ad_matrix()
        power = ad
        for _ in range(4):
            power = (power @ ad) % 5
        assert np.array_equal(power, d.p_power().ad_matrix())


def test_p_power_fixed_points_and_nilpotents():
    cfg = Config(5, 2)
    x1 = OElem.variable(cfg, 1)
    toral = WElem.from_coeffs([x1, OElem.zero(cfg)])  # x_1 d/dx_1
    assert toral.p_power() == toral
    d1 = WElem.basis_element(cfg, (0, 0), 1)  # d/dx_1
    assert d1.p_power() == WElem.zero(cfg)
