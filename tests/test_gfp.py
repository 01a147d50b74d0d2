"""Configuration, multi-index tables, and mod-p binomials."""

import dataclasses
import math
import random

import numpy as np
import pytest

from cartangrade import gfp
from cartangrade.errors import AxisRangeError, ConfigError, DimensionError
from cartangrade.gfp import Config, alpha_table, mul_index_table, radix_weights

from algebra_helpers import binom_mod_p, weight_table


def test_config_rejects_bad_parameters():
    with pytest.raises(ConfigError):
        Config(4, 2)
    with pytest.raises(ConfigError):
        Config(9, 2)
    with pytest.raises(ConfigError):
        Config(5, 0)
    with pytest.raises(ConfigError):
        Config(5, 6)  # 5**6 blows the dimension cap


def test_config_cap_line_shows_the_size_or_p_and_m(monkeypatch):
    # The size itself below 10**60; p**m past it, with p clipped to 60
    # characters; and p**m, both clipped, once m reaches the cap's bit
    # length, where the size is never built.
    with pytest.raises(ConfigError, match=r"^p\*\*m = 10{59}\*\*1 exceeds the dimension cap 2401$"):
        Config(10**61, 1)
    with pytest.raises(ConfigError, match=r"^p\*\*m = 2\*\*1{60} exceeds"):
        Config(2, int("1" * 80))
    monkeypatch.setenv("CARTAN_GRADE_MAX_DIM", "10")
    with pytest.raises(ConfigError, match=r"^p\*\*m = 2\*\*4 exceeds the dimension cap 10$"):
        Config(2, 4)
    with pytest.raises(ConfigError, match=r"^p\*\*m = 11 exceeds the dimension cap 10$"):
        Config(11, 1)
    # p < 2 is refused before the size: |p|**m may be past the cap.
    with pytest.raises(ConfigError, match=r"^p must be prime, got -100$"):
        Config(-100, 2)


@pytest.mark.parametrize("m, below, above", [(1, 208057, 208067), (2, 8191, 8209)])
def test_config_refuses_past_the_float_bound(monkeypatch, m, below, above):
    # Consecutive primes on either side of m * p**m * (p-1)**2 = 2**53, the
    # bound for an exact float64 product as wide as an ad matrix.
    assert m * below**m * (below - 1) ** 2 < 2**53 <= m * above**m * (above - 1) ** 2
    monkeypatch.setenv("CARTAN_GRADE_MAX_DIM", str(above**m))
    # Lift the table byte limit, which refuses both sizes, to test this bound alone.
    monkeypatch.setattr(gfp, "TABLE_BYTES_LIMIT", 4 * above ** (2 * m))
    assert Config(below, m).n == below**m
    with pytest.raises(ConfigError, match="double precision"):
        Config(above, m)


def test_config_refuses_a_product_table_past_the_byte_limit(monkeypatch):
    # (208057, 1) passes the float bound, but its n x n int32 product index
    # table would take 4 * 208057**2 bytes (173 GB).  Config builds no table,
    # so the refusal is pure arithmetic.
    assert 208057 * 208056**2 < 2**53
    monkeypatch.setenv("CARTAN_GRADE_MAX_DIM", str(208057))
    with pytest.raises(ConfigError, match="product index table"):
        Config(208057, 1)
    # Consecutive primes on either side of 4 * n**2 = 2**30.
    assert 4 * 16381**2 <= gfp.TABLE_BYTES_LIMIT == 2**30 < 4 * 16411**2
    assert Config(16381, 1).n == 16381
    with pytest.raises(ConfigError, match="product index table"):
        Config(16411, 1)
    # The default cap stays inside the limit, so every (p, m) under it passes.
    assert 4 * gfp.DEFAULT_MAX_DIM**2 <= gfp.TABLE_BYTES_LIMIT


def test_every_configuration_under_the_default_cap_passes_the_float_bound():
    for m in range(1, 12):
        for p in range(2, 2402):
            if p**m > 2401:
                break
            if all(p % d for d in range(2, p)):
                assert Config(p, m).n == p**m


def test_config_is_the_pair_p_m_at_every_prime():
    # p in {2, 3} is admitted like any prime; the CLI refuses the verbs that
    # need p > 3.  Two configurations are equal exactly when (p, m) are.
    assert [f.name for f in dataclasses.fields(Config)] == ["p", "m"]
    assert Config(3, 2).n == 9 and Config(2, 3).n == 8
    assert Config(3, 2) == Config(3, 2) and Config(3, 2) != Config(2, 3)


def test_flat_index_round_trip():
    cfg = Config(5, 3)
    for idx in range(cfg.n):
        assert cfg.index(cfg.alpha(idx)) == idx
    assert cfg.index((0, 0, 0)) == 0
    assert cfg.index((4, 4, 4)) == cfg.n - 1
    # entries are reduced mod p before packing
    assert cfg.index((5, 0, 7)) == cfg.index((0, 0, 2))


def test_alpha_table_is_lexicographic_and_frozen():
    tbl = alpha_table(5, 2)
    assert tbl.shape == (25, 2)
    assert tbl[0].tolist() == [0, 0]
    assert tbl[1].tolist() == [0, 1]
    assert tbl[5].tolist() == [1, 0]
    with pytest.raises(ValueError):
        tbl[0, 0] = 1


def test_weight_and_radix_tables():
    assert weight_table(5, 2).tolist() == [a + b for a in range(5) for b in range(5)]
    assert radix_weights(5, 3).tolist() == [25, 5, 1]


def test_mul_index_table_matches_direct_addition():
    cfg = Config(5, 2)
    tbl = mul_index_table(5, 2)
    rng = random.Random(11)
    for _ in range(300):
        s, t = rng.randrange(cfg.n), rng.randrange(cfg.n)
        a, b = cfg.alpha(s), cfg.alpha(t)
        total = tuple(x + y for x, y in zip(a, b))
        if all(x < 5 for x in total):
            assert tbl[s, t] == cfg.index(total)
        else:
            assert tbl[s, t] == cfg.n


@pytest.mark.parametrize("p, m", [(5, 2), (7, 2), (5, 3), (3, 4)])
def test_mul_index_table_matches_a_per_entry_sum_in_any_chunking(p, m, monkeypatch):
    cfg = Config(p, m)
    want = np.full((cfg.n, cfg.n), cfg.n, dtype=np.int32)
    for s in range(cfg.n):
        for t in range(cfg.n):
            total = tuple(x + y for x, y in zip(cfg.alpha(s), cfg.alpha(t)))
            if all(x < p for x in total):
                want[s, t] = cfg.index(total)
    tbl = mul_index_table(p, m)
    assert tbl.dtype == np.int32 and np.array_equal(tbl, want)
    # One row per chunk, and chunks that do not divide n.
    for entries in (1, 7 * cfg.n * m):
        monkeypatch.setattr(gfp, "_CHUNK_ENTRIES", entries)
        assert np.array_equal(mul_index_table.__wrapped__(p, m), want)


def test_binom_mod_p_agrees_with_integer_binomials():
    rng = random.Random(23)
    for _ in range(200):
        p = rng.choice([5, 7])
        a = [rng.randrange(p) for _ in range(2)]
        b = [rng.randrange(p) for _ in range(2)]
        got = binom_mod_p(a, b, p)
        if any(x + y >= p for x, y in zip(a, b)):
            assert got == 0
        else:
            want = 1
            for x, y in zip(a, b):
                want = want * math.comb(x + y, x) % p
            assert got == want


def test_binom_mod_p_validates_input():
    with pytest.raises(DimensionError):
        binom_mod_p([1], [1, 2], 5)
    with pytest.raises(AxisRangeError):
        binom_mod_p([-1], [0], 5)


def test_axis_check():
    cfg = Config(5, 2)
    cfg.check_axis(1)
    cfg.check_axis(2)
    with pytest.raises(AxisRangeError):
        cfg.check_axis(0)
    with pytest.raises(AxisRangeError):
        cfg.check_axis(3)
