"""Truncated polynomial algebra F[x_1..x_m]/(x_i^p) over GF(p).

Elements carry a dense coefficient table over the monomial basis x^alpha
(flat index = mixed-radix value of alpha).  The product is the truncated
convolution: x^alpha * x^beta = x^(alpha+beta), dropped whenever a
coordinate reaches p.  The grouplike generators z_i = 1 + x_i are
provided as constructors; z-exponents live mod p since z_i^p = 1.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import (
    AxisRangeError,
    ConfigMismatchError,
    DimensionError,
    ValidityError,
)
from .gfp import Config, alpha_table, mul_index_table, radix_weights


def _freeze(arr):
    arr.setflags(write=False)
    return arr


def mul_tables(cfg: Config, a, b):
    """Raw truncated product of two coefficient tables (1-D int64 arrays)."""
    p, n = cfg.p, cfg.n
    ia = np.flatnonzero(a)
    ib = np.flatnonzero(b)
    if ia.size == 0 or ib.size == 0:
        return np.zeros(n, dtype=np.int64)
    tbl = mul_index_table(p, cfg.m)
    tgt = tbl[np.ix_(ia, ib)]
    # Each slot sums at most n products below p^2, exactly in double
    # precision: Config refuses every (p, m) past linalg.float_exact(m * n, p).
    vals = (a[ia][:, None] * b[ib][None, :]).astype(np.float64)
    out = np.bincount(tgt.ravel(), weights=vals.ravel(), minlength=n + 1)
    return out[:n].astype(np.int64) % p


# Partial products one run of mul_rows takes: runs this small stay in cache,
# and measured faster than runs of 2**16 or more.
_RUN_TERMS = 1 << 14


def mul_rows(cfg: Config, a, b):
    """Row-wise truncated products of two (K, n) stacks of coefficient tables.

    As in mul_tables, each pair of nonzero entries, one from row k of a and
    one from row k of b, is one partial product sent to its target slot
    through mul_index_table, so the cost follows the nonzero entries.  A
    row pair of at least _RUN_TERMS partial products is one mul_tables
    outer product; the others go in runs of about _RUN_TERMS partial
    products, one bincount per run."""
    p, n = cfg.p, cfg.n
    k = len(a)
    out = np.zeros((k, n), dtype=np.int64)
    ra, ia = np.nonzero(a)
    rb, ib = np.nonzero(b)
    nb = np.bincount(rb, minlength=k)
    big = np.bincount(ra, minlength=k) * nb >= _RUN_TERMS
    for r in np.flatnonzero(big):
        out[r] = mul_tables(cfg, a[r], b[r])
    ra, ia = ra[~big[ra]], ia[~big[ra]]
    va = a[ra, ia].astype(np.float64)   # exact: see mul_tables
    vb = b[rb, ib].astype(np.float64)
    reps = nb[ra]                       # partial products of each nonzero entry of a
    off = np.cumsum(reps) - reps        # and the first one's place among all of them
    shift = np.cumsum(nb)[ra] - nb[ra] - off
    cuts = np.flatnonzero(np.diff(off // _RUN_TERMS, prepend=-1))
    tbl = mul_index_table(p, cfg.m).ravel()
    for lo, hi in zip(cuts, np.append(cuts[1:], ra.size)):
        r0, r1, rep = ra[lo], ra[hi - 1] + 1, reps[lo:hi]
        jb = np.arange(off[lo], off[lo] + rep.sum()) + np.repeat(shift[lo:hi], rep)
        slot = (np.repeat((ra[lo:hi] - r0) * (n + 1), rep)      # slot n of a row: truncated
                + tbl[np.repeat(ia[lo:hi] * n, rep) + ib[jb]])
        acc = np.bincount(slot, weights=np.repeat(va[lo:hi], rep) * vb[jb],
                          minlength=(r1 - r0) * (n + 1))
        out[r0:r1] += acc.reshape(r1 - r0, n + 1)[:, :n].astype(np.int64)
    return out % p


@lru_cache(maxsize=None)
def partial_matrix(p: int, m: int, i: int):
    """n x n matrix of d/dx_i acting on coefficient tables."""
    n = p ** m
    alphas = alpha_table(p, m)
    radix = radix_weights(p, m)
    out = np.zeros((n, n), dtype=np.int64)
    src = np.flatnonzero(alphas[:, i - 1] > 0)
    dst = src - radix[i - 1]
    out[dst, src] = alphas[src, i - 1] % p
    return _freeze(out)


def partial_table(cfg: Config, arr, i: int):
    """d/dx_i of a coefficient table, or of every row of a (k, n) stack."""
    cfg.check_axis(i)
    p, m = cfg.p, cfg.m
    lead = arr.shape[:-1]
    axis = len(lead) + i - 1
    moved = np.moveaxis(arr.reshape(lead + (p,) * m), axis, 0)
    out = np.zeros_like(moved)
    scale = np.arange(1, p, dtype=np.int64).reshape((p - 1,) + (1,) * (moved.ndim - 1))
    out[: p - 1] = moved[1:] * scale % p
    return np.ascontiguousarray(np.moveaxis(out, 0, axis)).reshape(arr.shape)


def mult_operator(cfg: Config, table):
    """n x n matrix of multiplication by the element with the given table.

    A (k, n) stack of tables gives the k matrices as one (k, n, n) array,
    from one bincount over k regions of n + 1 rows (the last row of each
    collects the truncated products); one table is the case k = 1."""
    p, n = cfg.p, cfg.n
    k = table.size // n
    tbl = mul_index_table(p, cfg.m)
    ia = np.flatnonzero(table)      # flat positions in the stack: owner * n + index
    if ia.size == 0:
        return np.zeros(table.shape[:-1] + (n, n), dtype=np.int64)
    cols = np.broadcast_to(np.arange(n, dtype=np.int64), (ia.size, n))
    flat = tbl[ia % n if k > 1 else ia].astype(np.int64) * n + cols
    if k > 1:
        flat += (ia // n * ((n + 1) * n))[:, None]
    w = np.repeat(table.ravel()[ia].astype(np.float64), n)  # exact: see mul_tables
    out = np.bincount(flat.ravel(), weights=w, minlength=k * (n + 1) * n)
    out = out.reshape(k, n + 1, n)[:, :n].astype(np.int64)
    out %= p
    return out.reshape(table.shape[:-1] + (n, n))


class OElem:
    """An element of the truncated polynomial algebra."""

    __slots__ = ("cfg", "table")

    def __init__(self, cfg: Config, table):
        arr = np.asarray(table, dtype=np.int64)
        if arr.shape != (cfg.n,):
            raise DimensionError(f"coefficient table has shape {arr.shape}, expected ({cfg.n},)")
        self.cfg = cfg
        self.table = _freeze(arr % cfg.p)

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, cfg: Config) -> "OElem":
        return cls(cfg, np.zeros(cfg.n, dtype=np.int64))

    @classmethod
    def one(cls, cfg: Config) -> "OElem":
        t = np.zeros(cfg.n, dtype=np.int64)
        t[0] = 1
        return cls(cfg, t)

    @classmethod
    def constant(cls, cfg: Config, c: int) -> "OElem":
        t = np.zeros(cfg.n, dtype=np.int64)
        t[0] = c % cfg.p
        return cls(cfg, t)

    @classmethod
    def monomial(cls, cfg: Config, alpha, c: int = 1) -> "OElem":
        for a in alpha:
            if not 0 <= a < cfg.p:
                raise AxisRangeError(f"monomial exponent {a} out of range 0..{cfg.p - 1}")
        t = np.zeros(cfg.n, dtype=np.int64)
        t[cfg.index(alpha)] = c % cfg.p
        return cls(cfg, t)

    @classmethod
    def variable(cls, cfg: Config, i: int) -> "OElem":
        cfg.check_axis(i)
        return cls.monomial(cfg, tuple(1 if j == i else 0 for j in range(1, cfg.m + 1)))

    @classmethod
    def from_terms(cls, cfg: Config, terms) -> "OElem":
        t = np.zeros(cfg.n, dtype=np.int64)
        for alpha, c in terms:
            t[cfg.index(alpha)] = (t[cfg.index(alpha)] + c) % cfg.p
        return cls(cfg, t)

    # -- queries ------------------------------------------------------
    def terms(self):
        """Sorted (alpha, coefficient) pairs of the nonzero monomials."""
        return [(self.cfg.alpha(int(i)), int(self.table[i])) for i in np.flatnonzero(self.table)]

    @property
    def constant_term(self) -> int:
        return int(self.table[0])

    def is_zero(self) -> bool:
        return not self.table.any()

    def is_unit(self) -> bool:
        return self.constant_term != 0

    def linear_part(self):
        """Coefficients of x_1..x_m as a length-m vector."""
        radix = radix_weights(self.cfg.p, self.cfg.m)
        return self.table[radix].copy()

    # -- arithmetic ---------------------------------------------------
    def _check(self, other: "OElem") -> None:
        if self.cfg != other.cfg:
            raise ConfigMismatchError("operands built over different configurations")

    def __add__(self, other: "OElem") -> "OElem":
        self._check(other)
        return OElem(self.cfg, self.table + other.table)

    def __sub__(self, other: "OElem") -> "OElem":
        self._check(other)
        return OElem(self.cfg, self.table - other.table)

    def __neg__(self) -> "OElem":
        return OElem(self.cfg, -self.table)

    def __mul__(self, other):
        if isinstance(other, int):
            return OElem(self.cfg, self.table * (other % self.cfg.p))
        if not isinstance(other, OElem):
            return NotImplemented
        self._check(other)
        return OElem(self.cfg, mul_tables(self.cfg, self.table, other.table))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, k: int) -> "OElem":
        if k < 0:
            return self.inverse() ** (-k)
        out = OElem.one(self.cfg)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inverse(self) -> "OElem":
        """Inverse of a unit via the terminating geometric series."""
        c = self.constant_term
        if c == 0:
            raise ValidityError("element lies in the maximal ideal; no inverse")
        cinv = pow(c, -1, self.cfg.p)
        neg_nil = OElem.one(self.cfg) - OElem(self.cfg, self.table * cinv % self.cfg.p)
        out = OElem.one(self.cfg)
        term = OElem.one(self.cfg)
        for _ in range(self.cfg.m * (self.cfg.p - 1) + 1):
            term = term * neg_nil
            if term.is_zero():
                break
            out = out + term
        return out * cinv

    def __eq__(self, other) -> bool:
        return isinstance(other, OElem) and self.cfg == other.cfg and np.array_equal(self.table, other.table)

    def __hash__(self):
        return hash((self.cfg, self.table.tobytes()))

    def __bool__(self) -> bool:
        return not self.is_zero()

    def partial(self, i: int) -> "OElem":
        return OElem(self.cfg, partial_table(self.cfg, self.table, i))

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for alpha, c in self.terms():
            mono = "*".join(f"x{i + 1}^{a}" if a > 1 else f"x{i + 1}" for i, a in enumerate(alpha) if a)
            parts.append(str(c) if not mono else (mono if c == 1 else f"{c}*{mono}"))
        return " + ".join(parts)


@lru_cache(maxsize=None)
def _binomials(p: int):
    """p x p table of C(e, a) mod p, row e, column a."""
    return _freeze(np.array([[math.comb(e, a) % p for a in range(p)] for e in range(p)],
                            dtype=np.int64))


def z_tables(p: int, m: int, gammas):
    """(K, p**m) coefficient tables of the z-monomials z^gamma, one per row of
    a (K, m) exponent array taken mod p: x^a has coefficient prod_i C(gamma_i, a_i),
    an outer product over the axes in lexicographic order."""
    g = np.asarray(gammas, dtype=np.int64).reshape(-1, m) % p
    rows = _binomials(p)[g]                 # (K, m, p): C(gamma_i, a) per axis
    out = rows[:, 0]
    for i in range(1, m):
        out = (out[:, :, None] * rows[:, i, None, :] % p).reshape(len(g), p ** (i + 1))
    return out


@lru_cache(maxsize=None)
def _z_table(p: int, m: int, alpha: tuple):
    return _freeze(z_tables(p, m, [alpha])[0])


def z_monomial(cfg: Config, alpha) -> OElem:
    """prod (1+x_i)^(alpha_i) with exponents taken mod p (since z_i^p = 1)."""
    if len(alpha) != cfg.m:
        raise DimensionError(f"multi-index length {len(alpha)} != m={cfg.m}")
    key = tuple(int(a) % cfg.p for a in alpha)
    return OElem(cfg, _z_table(cfg.p, cfg.m, key).copy())


def z_basis_matrix(cfg: Config, s: int):
    """n x n change of basis: column j = coefficient table of the mixed
    monomial with exponent tuple alpha(j), grouplike in the first s axes
    and plain x-powers in the rest."""
    if not 0 <= s <= cfg.m:
        raise AxisRangeError(f"s={s} out of range 0..{cfg.m}")
    p = cfg.p
    zp = _binomials(p).T                    # row a, column e: C(e, a)
    out = np.ones((1, 1), dtype=np.int64)
    for axis in range(cfg.m):
        out = np.kron(out, zp if axis < s else np.eye(p, dtype=np.int64))
    return out


@lru_cache(maxsize=None)
def z_basis_inverse(p: int, m: int, s: int):
    """Inverse of z_basis_matrix(cfg, s).T, whose row j is the table of the
    mixed monomial j, found without elimination: row a holds the
    coordinates of x^a over the mixed monomials.

    z_basis_matrix is a Kronecker product over the axes, so the inverse is
    the Kronecker product of the per-axis inverses: the identity on a free
    axis, and on a toral axis the signed binomials (-1)^(a-e) C(a, e), since
    x^a = ((1+x) - 1)^a = sum_e (-1)^(a-e) C(a, e) (1+x)^e."""
    if not 0 <= s <= m:
        raise AxisRangeError(f"s={s} out of range 0..{m}")
    e = np.arange(p)
    signed = np.where((e[:, None] - e[None, :]) % 2, -1, 1) * _binomials(p) % p
    out = np.ones((1, 1), dtype=np.int64)
    for axis in range(m):
        out = np.kron(out, signed if axis < s else np.eye(p, dtype=np.int64)) % p
    return _freeze(out)
