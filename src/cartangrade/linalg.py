"""Dense exact linear algebra over GF(p).

Matrices are numpy int64 arrays with entries in [0, p), and pivoting is
deterministic: the first row with a nonzero entry in the leftmost open
column.  Two bounds keep the arithmetic exact, each checked in one helper.
A product of two such matrices sums `inner` terms in [0, (p-1)^2]: float64
holds every such sum exactly while inner * (p-1)^2 < 2^53 (float_exact),
and int64 holds an accumulator below p plus k of them while
p + k(p-1)^2 <= 2^63, k <= k_max (_reduction_interval; k_max is 2 at
p = 2^31 - 1 and at least 1 up to p = 3037000500).  matmul is the one exact
product.  It multiplies two matrices with one float64 BLAS product and one
reduction mod p while the float64 bound holds; a product with a vector
operand, or past the float64 bound, sums the inner dimension in int64,
k_max terms at a time, reducing after each chunk.  Config refuses every
(p, m) for which the widest product of the package, with an ad matrix of
side m*p^m, breaks the float64 bound; that also keeps the bincount sums in
oalg exact.  rref eliminates on one int64 working copy: at each pivot it
reduces only the pivot column and the pivot row, subtracts multiples of the
pivot row from the rows with a nonzero entry in the pivot column, from the
pivot column rightward, and so leaves an entry in [-k(p-1)^2, p) after k
updates; it reduces the trailing columns every k_max pivots and the whole
matrix once, at the end.  A small matrix skips that loop: below one fixed
work cutoff (_SMALL_WORK, on an estimate from its nonzero entries and its
size) rref runs the same Gauss-Jordan pivoting on lists of Python ints
(_rref_small), whose cost per pivot is the entries it touches rather than a
dozen numpy calls; the RREF is unique, so both give the same output.  rref
is the one GF(p) elimination of the package: rank, nullspace, solve (and
inverse, a solve against the identity), row_space, intersect_row_spaces
and EchelonSpace.add_batch all read its output, and no other code pivots
over GF(p).
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, NoSuchBasisError


def as_matrix(rows, ncols: int, p: int):
    """rows as a fresh 2-D int64 array reduced mod p.  Rows already in
    [0, p), such as matmul products, are copied without a second reduction."""
    a = np.array(rows, dtype=np.int64)
    if a.size == 0:
        return np.zeros((0, ncols), dtype=np.int64)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    if a.min() < 0 or a.max() >= p:
        a %= p
    return a


def _reduction_interval(p: int) -> int:
    """k_max: pivot updates an entry may take between reductions mod p.

    After k updates an entry lies in [-k(p-1)^2, p); this is the largest k
    with p + k(p-1)^2 <= 2^63, so int64 arithmetic stays exact.
    """
    k_max = (2**63 - p) // (p - 1) ** 2
    if k_max < 1:
        raise ConfigError(f"p = {p} is too large for exact int64 elimination")
    return k_max


def float_exact(inner: int, p: int) -> bool:
    """Whether float64 sums `inner` products of entries in [0, p) exactly:
    every partial sum is an integer in [0, inner * (p-1)^2], below 2^53."""
    return inner * (p - 1) ** 2 < 2**53


def matmul(a, b, p: int):
    """a @ b mod p, exactly, for entries in [0, p); a fresh int64 array.

    The operands are int64, or float64 holding exact integers in [0, p): a
    caller that multiplies by the same matrix many times casts it once, and
    a float64 operand of the BLAS product is used without a copy.  A
    product of two matrices is one float64 BLAS product while float_exact
    holds for the inner dimension.  Wider products, and products with a
    vector operand (where the casts to float64 and back cost more than the
    product), sum the inner dimension in int64, k_max terms at a time, onto
    an accumulator already reduced below p: exact for every p that
    _reduction_interval admits.
    """
    inner = b.shape[0]
    if a.ndim == b.ndim == 2 and float_exact(inner, p):
        out = (np.asarray(a, dtype=np.float64) @ np.asarray(b, dtype=np.float64)).astype(np.int64)
        out %= p
        return out
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    step = _reduction_interval(p)
    if inner <= step:
        return (a @ b) % p
    out = (a[..., :step] @ b[:step]) % p
    for lo in range(step, inner, step):
        out += a[..., lo:lo + step] @ b[lo:lo + step]
        out %= p
    return out


# rref eliminates on Python ints (_rref_small) while its work estimate, the
# nonzero entries plus one per 32 entries, is at most this.  The numpy loop
# pays a dozen calls per pivot whatever the matrix holds; the Python pass
# pays for the entries it updates, which grow with the nonzero entries and
# their fill-in.  The estimate and the cutoff were fitted on the rref calls
# of the benchmark's three workloads.
_SMALL_WORK = 150


def rref(mat, p: int):
    """Reduced row echelon form. Returns (nonzero rows, pivot columns)."""
    a = np.array(mat, dtype=np.int64, order="C")
    a %= p
    rows, cols = a.shape
    k_max = _reduction_interval(p)      # refuses p past the int64 bound on either path
    work = rows * cols // 32
    if work <= _SMALL_WORK and work + np.count_nonzero(a) <= _SMALL_WORK:
        return _rref_small(a, p)
    pending = 0           # pivot updates since the matrix was last reduced
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        col = a[:, c]
        col %= p
        hit = col.nonzero()[0]
        k = hit.searchsorted(r)
        if k == hit.size:
            continue
        i = int(hit[k])
        if i != r:
            low = a[i].copy()
            a[i] = a[r]
            a[r] = low
        row = a[r, c:]
        row %= p
        row *= pow(int(row[0]), -1, p)
        row %= p
        # After the swap the rows to clear are the old hits other than i:
        # rows r..i-1 had a zero in column c.
        hit = hit[hit != i]
        if hit.size:
            if pending == k_max:
                a[:, c + 1:] %= p
                pending = 0
            a[:, c:][hit] -= col[hit][:, None] * row
            pending += 1
        pivots.append(c)
        r += 1
    a = a[:r]
    a %= p
    return a, pivots


def _rref_small(a, p: int):
    """rref of a small matrix already reduced mod p, on lists of Python
    ints: the pivots and updates of the numpy loop, without its numpy calls
    per pivot.  The pivot row is zero left of its pivot column (the rows
    from r down are zero on the open columns before c, and the earlier
    pivot columns are cleared), so each update starts at that column."""
    rows, cols = a.shape
    m = a.tolist()
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        for i in range(r, rows):
            if m[i][c]:
                break
        else:
            continue
        row = m[i]
        m[i] = m[r]
        m[r] = row
        if row[c] != 1:
            inv = pow(row[c], -1, p)
            row[c:] = [x * inv % p for x in row[c:]]
        tail = row[c:]
        for other in m:
            f = other[c]
            if f and other is not row:
                other[c:] = [(x - f * y) % p for x, y in zip(other[c:], tail)]
        pivots.append(c)
        r += 1
    return np.array(m[:r], dtype=np.int64).reshape(r, cols), pivots


def rank(mat, p: int) -> int:
    return rref(mat, p)[0].shape[0]


def nullspace(mat, p: int):
    """Rows form a canonical basis of the right kernel: one row per free
    column, unit coefficient there, in increasing free-column order.  Row k
    is e_f - sum_i r[i, f] e_{pivot i} for the k-th free column f."""
    a = np.asarray(mat, dtype=np.int64)
    cols = a.shape[1]
    r, pivots = rref(a, p)
    free = np.delete(np.arange(cols), pivots)
    out = np.zeros((free.size, cols), dtype=np.int64)
    out[np.arange(free.size), free] = 1
    out[:, pivots] = (-r[:, free].T) % p
    return out


def solve(mat, rhs, p: int):
    """A particular solution x of mat @ x = rhs (free variables 0), or None
    when there is none.  rhs is a vector, or a matrix whose columns are
    right-hand sides, all solved by one elimination of [mat | rhs]; x has
    the shape of rhs with mat's column count in front, and None means some
    column has no solution."""
    a = np.asarray(mat, dtype=np.int64)
    b = np.asarray(rhs, dtype=np.int64)
    cols = a.shape[1]
    # rref reduces its own copy mod p.
    aug, pivots = rref(np.hstack([a, b[:, None] if b.ndim == 1 else b]), p)
    if pivots and pivots[-1] >= cols:
        return None
    x = np.zeros((cols, aug.shape[1] - cols), dtype=np.int64)
    x[pivots] = aug[:, cols:]
    return x.reshape((cols,) + b.shape[1:])


def inverse(mat, p: int):
    """The inverse mod p: the solution of mat @ x = I."""
    a = np.asarray(mat)
    if a.shape[0] != a.shape[1]:
        raise NoSuchBasisError("matrix is not square")
    x = solve(a, np.eye(a.shape[0], dtype=np.int64), p)
    if x is None:
        raise NoSuchBasisError("matrix is singular mod p")
    return x


class EchelonSpace:
    """A row space kept as its reduced row echelon form (mat, pivots).

    Every elimination goes through rref; add_batch() reduces a whole matrix
    against the space with one matmul, eliminates the survivors with one
    rref and clears the new pivot columns from the old rows with one more
    matmul, which keeps closure computations fast.
    """

    def __init__(self, ncols: int, p: int):
        self.p = p
        self.ncols = ncols
        self.mat = np.zeros((0, ncols), dtype=np.int64)
        self.pivots: list[int] = []

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def residual(self, vec):
        """vec reduced against the space, left in (-p, p): it is zero exactly
        when vec lies in the space, and callers reduce what they keep."""
        v = np.asarray(vec, dtype=np.int64) % self.p
        if self.dim:
            v -= matmul(v[self.pivots], self.mat, self.p)
        return v

    def contains(self, vec) -> bool:
        return not self.residual(vec).any()

    def add_batch(self, rows) -> int:
        """Add the rows to the space; returns the rank increase.

        The residuals of the rows vanish on the old pivot columns, and so
        does their RREF (new, with pivots cols), whose rows are combinations
        of them.  Subtracting mat[:, cols] @ new from the old rows clears
        the new pivot columns there and leaves the old pivot columns, and
        every entry left of an old row's pivot, untouched: a new row with
        pivot q is zero left of q, and it enters an old row only when that
        row has a nonzero entry at q, right of its own pivot.  So the merged
        rows, in pivot order, are the RREF of the enlarged space: canonical,
        the same matrix whatever order or grouping the rows came in.
        """
        p = self.p
        m = as_matrix(rows, self.ncols, p)
        if self.dim:
            m -= matmul(m[:, self.pivots], self.mat, p)
        new, cols = rref(m[m.any(axis=1)], p)
        if not cols:
            return 0
        old = self.mat - matmul(self.mat[:, cols], new, p)
        old %= p
        order = np.argsort(self.pivots + cols)
        self.mat = np.vstack([old, new])[order]
        self.pivots = sorted(self.pivots + cols)
        return len(cols)

    def basis(self):
        return self.mat.copy()


def row_space(mat, p: int):
    """Canonical (RREF) basis of the row space."""
    return rref(mat, p)[0]


def intersect_row_spaces(a, b, p: int):
    """Canonical basis of rowspace(a) & rowspace(b)."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.shape[0] == 0 or b.shape[0] == 0:
        return np.zeros((0, a.shape[1]), dtype=np.int64)
    stacked = np.vstack([a, b])
    stacked %= p
    ker = nullspace(stacked.T, p)
    if ker.shape[0] == 0:
        return np.zeros((0, a.shape[1]), dtype=np.int64)
    combos = matmul(ker[:, : a.shape[0]], stacked[: a.shape[0]], p)
    return row_space(combos, p)
