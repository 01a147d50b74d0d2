"""Exterior forms: differential, wedge, Lie action, stabilizer algebras."""

import random

import numpy as np
import pytest

from cartangrade import linalg
from cartangrade.errors import ConfigError
from cartangrade.forms import (KForm, algebra_rows, derived_rows, differential,
                               lie_derivative, omega_symplectic, omega_volume)
from cartangrade.gfp import Config
from cartangrade.oalg import OElem, mul_tables
from cartangrade.witt import WElem, d_ij, w_basis

from algebra_helpers import algebra_basis, derived_subalgebra, stabilizer_test


def random_elem(cfg, rng):
    return OElem(cfg, np.array([rng.randrange(cfg.p) for _ in range(cfg.n)],
                               dtype=np.int64))


def random_derivation(cfg, rng):
    t = np.array([[rng.randrange(cfg.p) for _ in range(cfg.n)]
                  for _ in range(cfg.m)], dtype=np.int64)
    return WElem(cfg, t)


def random_form(cfg, k, rng):
    from cartangrade.forms import subset_list
    rows = np.array([[rng.randrange(cfg.p) for _ in range(cfg.n)]
                     for _ in subset_list(cfg.m, k)], dtype=np.int64)
    return KForm(cfg, k, rows)


def test_differential_pairs_back_to_the_derivation():
    """(df)(D) = sum_i d_i(f) * D_i is D(f), pairing the coefficient tables."""
    cfg = Config(5, 2)
    rng = random.Random(43)
    for _ in range(15):
        f = random_elem(cfg, rng)
        d = random_derivation(cfg, rng)
        df = differential(f).tables
        paired = sum(mul_tables(cfg, df[i], d.tables[i]) for i in range(cfg.m)) % cfg.p
        assert np.array_equal(paired, d.apply(f).table)


def test_wedge_is_bilinear_and_alternating():
    cfg = Config(5, 3)
    rng = random.Random(47)
    for _ in range(10):
        a = random_form(cfg, 1, rng)
        b = random_form(cfg, 1, rng)
        assert a.wedge(a).is_zero()
        assert a.wedge(b) == -(b.wedge(a))
        c = random_form(cfg, 1, rng)
        assert (a + b).wedge(c) == a.wedge(c) + b.wedge(c)


def test_volume_form_is_the_wedge_of_coordinate_differentials():
    cfg = Config(5, 3)
    parts = [differential(OElem.variable(cfg, i)) for i in range(1, 4)]
    assert parts[0].wedge(parts[1]).wedge(parts[2]) == omega_volume(cfg)


def test_lie_derivative_is_additive_in_the_derivation():
    cfg = Config(5, 2)
    rng = random.Random(53)
    omega = omega_volume(cfg)
    for _ in range(10):
        d, e = random_derivation(cfg, rng), random_derivation(cfg, rng)
        lhs = lie_derivative(d, omega) + lie_derivative(e, omega)
        assert lie_derivative(d + e, omega) == lhs


def test_lie_derivative_of_volume_is_divergence_scaling():
    cfg = Config(5, 2)
    rng = random.Random(59)
    omega = omega_volume(cfg)
    for _ in range(15):
        d = random_derivation(cfg, rng)
        want = KForm(cfg, 2, d.divergence().table[None, :])
        assert lie_derivative(d, omega) == want


def test_volume_stabilizer_dimensions():
    cfg = Config(5, 2)
    rows = algebra_rows(cfg, "S")
    # one divergence condition per monomial except the impossible top one
    assert rows.shape[0] == cfg.m * cfg.n - (cfg.n - 1)
    for d in algebra_basis(cfg, "S")[:8]:
        assert stabilizer_test(d, omega_volume(cfg))


def test_symplectic_stabilizer_dimensions():
    cfg = Config(5, 2)
    # with a single symplectic pair the symplectic form is the volume form
    assert omega_symplectic(cfg) == omega_volume(cfg)
    rows = algebra_rows(cfg, "H")
    assert rows.shape[0] == cfg.m * cfg.n - (cfg.n - 1)
    assert np.array_equal(rows, algebra_rows(cfg, "S"))
    for d in algebra_basis(cfg, "H")[:8]:
        assert stabilizer_test(d, omega_symplectic(cfg))
    with pytest.raises(ConfigError):
        algebra_rows(Config(5, 3), "H")


def test_derived_series_of_the_volume_flavor():
    cfg = Config(5, 2)
    first = derived_rows(cfg, algebra_rows(cfg, "S"), iterations=1)
    assert first.shape[0] == (cfg.m - 1) * (cfg.n - 1)
    second = derived_rows(cfg, algebra_rows(cfg, "S"), iterations=2)
    assert second.shape[0] == cfg.n - 2
    third = derived_rows(cfg, algebra_rows(cfg, "S"), iterations=3)
    assert np.array_equal(second, third)


def test_derived_subalgebra_wraps_rows():
    cfg = Config(5, 2)
    basis = derived_subalgebra(algebra_basis(cfg, "H"), iterations=2)
    assert len(basis) == cfg.n - 2
    omega = omega_symplectic(cfg)
    for d in basis[:6]:
        assert stabilizer_test(d, omega)


def test_full_derivation_algebra_rows_are_everything():
    cfg = Config(5, 2)
    assert algebra_rows(cfg, "W").shape == (cfg.m * cfg.n, cfg.m * cfg.n)
    ds = w_basis(cfg)
    rng = random.Random(61)
    f = random_elem(cfg, rng)
    d12 = d_ij(cfg, 1, 2, f)
    flat = d12.flat()
    rebuilt = WElem.from_flat(cfg, flat)
    assert rebuilt == d12


def square_derived_rows(cfg, rows, iterations=1, cap=3):
    """The derived series bracketing every ordered pair of basis rows, as
    derived_rows did before it took each unordered pair once; also returns
    the dimension at the start of each step it ran."""
    cur = linalg.row_space(np.asarray(rows, dtype=np.int64) % cfg.p, cfg.p)
    starts = []
    for _ in range(min(iterations, cap)):
        starts.append(cur.shape[0])
        space = linalg.EchelonSpace(cfg.m * cfg.n, cfg.p)
        for row in cur:
            space.add_batch(linalg.matmul(cur, WElem.from_flat(cfg, row).ad_matrix().T, cfg.p))
        nxt = space.basis()
        stable = np.array_equal(nxt, cur)
        cur = nxt
        if stable:
            break
    return cur, starts


@pytest.mark.parametrize("kind, p, m, iterations", [
    ("S", 5, 2, 2), ("S", 7, 2, 2), ("S", 11, 2, 2),
    ("H", 5, 2, 2), ("H", 7, 2, 2), ("H", 11, 2, 2), ("S", 5, 3, 1)])
def test_derived_rows_match_the_ordered_pair_loop(kind, p, m, iterations, monkeypatch):
    cfg = Config(p, m)
    rows = algebra_rows(cfg, kind)
    want, starts = square_derived_rows(cfg, rows, iterations)
    calls = []
    ad_matrix = WElem.ad_matrix

    def counting(self):
        calls.append(1)
        return ad_matrix(self)

    monkeypatch.setattr(WElem, "ad_matrix", counting)
    got = derived_rows(cfg, rows, iterations)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    # one ad matrix per row but the last, in each step
    assert len(calls) == sum(dim - 1 for dim in starts)
