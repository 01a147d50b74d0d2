"""The GF(p) kernel against plain Gauss-Jordan elimination.

Every entry point must agree exactly with _rref_oracle, which reduces the
whole matrix mod p at every pivot, and matmul with _mul, which multiplies
Python integers.  p = 2**31 - 1 has k_max = 2, so there the delayed-reduction
kernel also reduces in the middle of an elimination and matmul sums in
int64 chunks; at p = 67108859 float64 products are exact up to an inner
dimension of 2, so both branches of matmul run on small matrices.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartangrade import linalg
from cartangrade.errors import ConfigError, NoSuchBasisError

PRIMES = (5, 7, 2399, 2**31 - 1)
FLOAT_EDGE = 67108859      # the largest prime below 2**26
EXAMPLES = settings(max_examples=100, deadline=None, derandomize=True)


def _rref_oracle(mat, p):
    a = np.array(mat, dtype=np.int64) % p
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r] = a[r] * pow(int(a[r, c]), -1, p) % p
        col = a[:, c].copy()
        col[r] = 0
        a = (a - np.outer(col, a[r])) % p
        pivots.append(c)
        r += 1
    return a[:r], pivots


def _mul(a, b, p):
    """Exact a @ b mod p through Python integers."""
    out = np.asarray(a, dtype=object) @ np.asarray(b, dtype=object) % p
    return out.astype(np.int64)


def _shape(rng, shape):
    if shape == "square":
        n = int(rng.integers(1, 13))
        return n, n
    small, large = int(rng.integers(1, 9)), int(rng.integers(9, 25))
    return (small, large) if shape == "wide" else (large, small)


def _matrix(rng, p, rows, cols, kind):
    """Entries spread over [-2p, 3p), so some are negative and some >= p."""
    wrap = p * rng.integers(-2, 3, size=(rows, cols))
    if kind == "dense":
        core = rng.integers(0, p, size=(rows, cols))
    elif kind == "sparse":
        core = rng.integers(1, p, size=(rows, cols)) * (rng.random((rows, cols)) < 0.05)
    else:
        k = int(rng.integers(0, min(rows, cols)))
        core = _mul(rng.integers(0, p, size=(rows, k)), rng.integers(0, p, size=(k, cols)), p)
    return core + wrap


@st.composite
def matrices(draw, p, shapes=("square", "wide", "tall")):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, cols = _shape(rng, draw(st.sampled_from(shapes)))
    kind = draw(st.sampled_from(("dense", "deficient", "sparse")))
    return _matrix(rng, p, rows, cols, kind), rng


@pytest.mark.parametrize("p", PRIMES)
@EXAMPLES
@given(data=st.data())
def test_rref_and_rank_match_the_oracle(p, data):
    a, _ = data.draw(matrices(p))
    before = a.copy()
    rows, pivots = linalg.rref(a, p)
    want, want_pivots = _rref_oracle(a, p)
    assert pivots == want_pivots
    assert rows.dtype == np.int64 and np.array_equal(rows, want)
    assert linalg.rank(a, p) == len(want_pivots)
    assert np.array_equal(linalg.row_space(a, p), want)
    assert np.array_equal(a, before)


@pytest.mark.parametrize("p", PRIMES)
@EXAMPLES
@given(data=st.data())
def test_nullspace_is_the_canonical_kernel_basis(p, data):
    # Unit vectors on the free columns plus a @ x = 0 determine each row.
    a, _ = data.draw(matrices(p))
    _, pivots = _rref_oracle(a, p)
    free = [c for c in range(a.shape[1]) if c not in pivots]
    ker = linalg.nullspace(a, p)
    assert ker.shape == (len(free), a.shape[1])
    assert np.array_equal(ker[:, free], np.eye(len(free), dtype=np.int64))
    assert not _mul(a, ker.T, p).any()


@pytest.mark.parametrize("p", PRIMES)
@EXAMPLES
@given(data=st.data(), solvable=st.booleans())
def test_solve_sets_free_variables_to_zero(p, data, solvable):
    a, rng = data.draw(matrices(p))
    rows, cols = a.shape
    if solvable:
        rhs = _mul(a, rng.integers(0, p, size=cols), p) + p * rng.integers(-2, 3, size=rows)
    else:
        rhs = rng.integers(-2 * p, 3 * p, size=rows)
    _, pivots = _rref_oracle(a, p)
    _, aug_pivots = _rref_oracle(np.hstack([a, rhs.reshape(-1, 1)]), p)
    x = linalg.solve(a, rhs, p)
    if cols in aug_pivots:
        assert not solvable and x is None
        return
    free = [c for c in range(cols) if c not in pivots]
    assert x is not None and not x[free].any()
    assert np.array_equal(_mul(a, x, p), rhs % p)


@pytest.mark.parametrize("p", PRIMES)
@EXAMPLES
@given(data=st.data(), k=st.integers(0, 4))
def test_solve_takes_a_block_of_right_hand_sides(p, data, k):
    """A block is solved as its columns one by one: the same columns, or
    None when any column has no solution."""
    a, rng = data.draw(matrices(p))
    rows, cols = a.shape
    block = _mul(a, rng.integers(0, p, size=(cols, k)), p)
    if k and data.draw(st.booleans()):
        block[:, rng.integers(k)] = rng.integers(0, p, size=rows)
    columns = [linalg.solve(a, block[:, j], p) for j in range(k)]
    x = linalg.solve(a, block, p)
    if any(c is None for c in columns):
        assert x is None
        return
    assert x.shape == (cols, k)
    for j, c in enumerate(columns):
        assert np.array_equal(x[:, j], c)


def test_inverse_is_one_solve_against_the_identity(monkeypatch):
    a = np.array([[1, 2], [3, 4]])
    calls = []
    solve = linalg.solve

    def recorded(mat, rhs, p):
        calls.append(np.asarray(rhs).copy())
        return solve(mat, rhs, p)

    monkeypatch.setattr(linalg, "solve", recorded)
    inv = linalg.inverse(a, 5)
    assert len(calls) == 1 and np.array_equal(calls[0], np.eye(2))
    assert np.array_equal(_mul(a, inv, 5), np.eye(2))


@pytest.mark.parametrize("p", PRIMES)
@EXAMPLES
@given(data=st.data())
def test_inverse_or_singular_refusal(p, data):
    a, _ = data.draw(matrices(p, shapes=("square",)))
    n = a.shape[0]
    if len(_rref_oracle(a, p)[1]) < n:
        with pytest.raises(NoSuchBasisError):
            linalg.inverse(a, p)
        return
    inv = linalg.inverse(a, p)
    eye = np.eye(n, dtype=np.int64)
    assert np.array_equal(_mul(a, inv, p), eye)
    assert np.array_equal(_mul(inv, a, p), eye)


def _intersection_oracle(a, b, p):
    """Zassenhaus: rows of rref [[a, a], [b, 0]] with a zero left half."""
    n = a.shape[1]
    top = np.hstack([a, a])
    bottom = np.hstack([b, np.zeros_like(b)])
    rows, pivots = _rref_oracle(np.vstack([top, bottom]), p)
    return rows[[i for i, c in enumerate(pivots) if c >= n], n:]


@pytest.mark.parametrize("p", PRIMES)
@EXAMPLES
@given(data=st.data(), shared=st.integers(0, 4))
def test_intersect_row_spaces_matches_zassenhaus(p, data, shared):
    a, rng = data.draw(matrices(p))
    rows, cols = a.shape
    own = _matrix(rng, p, int(rng.integers(1, 6)), cols, "dense")
    b = np.vstack([_mul(rng.integers(0, p, size=(shared, rows)), a, p), own])
    meet = linalg.intersect_row_spaces(a, b, p)
    want = _intersection_oracle(a % p, b % p, p)
    assert meet.shape == want.shape and np.array_equal(meet, want)


def test_reduction_interval_keeps_the_int64_bound():
    for p in PRIMES + (2, 3, 65521):
        k_max = linalg._reduction_interval(p)
        assert k_max >= 1
        assert p + k_max * (p - 1) ** 2 <= 2**63
        assert p + (k_max + 1) * (p - 1) ** 2 > 2**63
    assert linalg._reduction_interval(2**31 - 1) == 2
    with pytest.raises(ConfigError):
        linalg._reduction_interval(2**33 - 9)


def test_periodic_reduction_on_a_full_rank_large_prime_matrix():
    # k_max = 2: the trailing columns are reduced at every second pivot.
    p = 2**31 - 1
    rng = np.random.default_rng(7)
    a = rng.integers(p - 5, p, size=(30, 31))
    rows, pivots = linalg.rref(a, p)
    want, want_pivots = _rref_oracle(a, p)
    assert pivots == want_pivots == list(range(30))
    assert np.array_equal(rows, want)


def test_float_bound_splits_at_the_largest_prime_below_2_26():
    assert linalg.float_exact(2, FLOAT_EDGE) and not linalg.float_exact(3, FLOAT_EDGE)
    assert linalg.float_exact(2401 * 4, 7) and not linalg.float_exact(2**53, 2)


@pytest.mark.parametrize("p", PRIMES + (FLOAT_EDGE,))
@EXAMPLES
@given(data=st.data())
def test_matmul_matches_exact_integer_products(p, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    rows, inner, cols = (int(x) for x in rng.integers(1, 9, size=3))
    # Half the entries are p - 1, the worst case for every bound.
    a, b = (np.where(rng.random(shape) < 0.5, p - 1, rng.integers(0, p, size=shape))
            for shape in ((rows, inner), (inner, cols)))
    want = _mul(a, b, p)
    got = linalg.matmul(a, b, p)
    assert got.dtype == np.int64 and np.array_equal(got, want)
    assert np.array_equal(linalg.matmul(a[0], b, p), want[0])
    assert np.array_equal(linalg.matmul(a, b[:, 0], p), want[:, 0])
    # Operands cast to float64 once by the caller give the same products.
    af, bf = a.astype(np.float64), b.astype(np.float64)
    for x, y in ((af, b), (a, bf), (af, bf)):
        got = linalg.matmul(x, y, p)
        assert got.dtype == np.int64 and np.array_equal(got, want)
    assert np.array_equal(linalg.matmul(af[0], bf, p), want[0])


@pytest.mark.parametrize("p", PRIMES)
@EXAMPLES
@given(data=st.data())
def test_echelon_space_matches_the_row_space(p, data):
    a, rng = data.draw(matrices(p))
    rows, cols = a.shape
    split = int(rng.integers(0, rows + 1))
    space = linalg.EchelonSpace(cols, p)
    ranks = [len(_rref_oracle(a[:i], p)[1]) for i in range(rows + 1)]
    grew = [space.add_batch(row[None]) == 1 for row in a[:split]]
    assert grew == [ranks[i + 1] > ranks[i] for i in range(split)]
    # The other rows in consecutive batches, each followed by an empty batch,
    # an all-zero batch (multiples of p) and combinations of the rows added
    # so far: every call returns the rank increase.
    cuts = sorted(int(c) for c in rng.integers(split, rows + 1, size=int(rng.integers(0, 4))))
    for lo, hi in zip([split] + cuts, cuts + [rows]):
        assert space.add_batch(a[lo:hi]) == ranks[hi] - ranks[lo]
        assert space.add_batch(np.zeros((0, cols), dtype=np.int64)) == 0
        assert space.add_batch(p * rng.integers(-2, 3, size=(int(rng.integers(1, 4)), cols))) == 0
        inside = _mul(rng.integers(0, p, size=(3, hi)), a[:hi], p) + p * rng.integers(-2, 3, size=(3, cols))
        assert space.add_batch(inside) == 0
    assert space.dim == ranks[rows]
    want, pivots = _rref_oracle(a, p)
    assert space.dim == len(pivots) and np.array_equal(space.basis(), want)
    # A vector of the span is fixed by its entries on the pivot columns, so
    # adding a multiple of a unit vector off them leaves the span.
    combo = _mul(rng.integers(0, p, size=rows), a, p) + p * rng.integers(-2, 3, size=cols)
    assert space.contains(combo)
    for c in range(cols):
        if c not in pivots:
            off = combo.copy()
            off[c] += int(rng.integers(1, p))
            assert not space.contains(off)
