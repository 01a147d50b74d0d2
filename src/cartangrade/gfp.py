"""Prime-field setup: ambient configuration, residues, multi-index tables.

Scalars are plain ints in [0, p); the modulus travels with an explicit
immutable Config rather than global state.  Multi-indices are tuples of
length m with entries in [0, p), enumerated lexicographically; the flat
index of a multi-index is its mixed-radix value, so tables over the
monomial basis are dense numpy arrays of length p**m.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .errors import AxisRangeError, ConfigError, DimensionError
from .linalg import float_exact

DEFAULT_MAX_DIM = 2401
# Bytes allowed for the (p**m x p**m) int32 table of mul_index_table, which
# every product in the algebra reads.  The default cap needs 23 MB.
TABLE_BYTES_LIMIT = 1 << 30
# Entries of the largest int64 temporary of mul_index_table, the (rows, n,
# m) sums of one chunk of rows: 16 MB.
_CHUNK_ENTRIES = 1 << 21


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, int(math.isqrt(n)) + 1):
        if n % d == 0:
            return False
    return True


def max_dim_limit() -> int:
    raw = os.environ.get("CARTAN_GRADE_MAX_DIM")
    if raw is None:
        return DEFAULT_MAX_DIM
    try:
        val = int(raw)
    except ValueError as exc:
        raise ConfigError(f"CARTAN_GRADE_MAX_DIM must be an integer, got {raw!r}") from exc
    if val < 2:
        raise ConfigError("CARTAN_GRADE_MAX_DIM must be at least 2")
    return val


@dataclass(frozen=True)
class Config:
    """Ambient parameters (p, m). p must be prime; p > 3 unless explicitly unlocked.

    allow_small_p=True admits p in {2, 3} for derivation-algebra work only;
    the special/hamiltonian layers are mathematically untested there.
    """

    p: int = 5
    m: int = 2
    allow_small_p: bool = False

    def __post_init__(self) -> None:
        if self.p < 2:
            raise ConfigError(f"p must be prime, got {self.p}")
        if self.m < 1:
            raise ConfigError(f"m must be >= 1, got {self.m}")
        cap = max_dim_limit()
        # p >= 2 here, so p**m > cap once m >= cap.bit_length(): a huge m from
        # a payload is refused without building p**m.  The size checks come
        # before the primality test, so trial division only ever runs on
        # p <= p**m <= cap: a huge prime p from a payload is refused at once.
        if self.m >= cap.bit_length() or self.p ** self.m > cap:
            raise ConfigError(f"p**m = {self.p!r:.60}**{self.m!r:.60} exceeds the configured "
                              f"limit {cap}")
        # The widest exact product is an ad matrix, inner dimension m * p**m.
        if not float_exact(self.m * self.p ** self.m, self.p):
            raise ConfigError(f"p = {self.p}, m = {self.m}: products of inner dimension m * p**m "
                              "are not exact in double precision")
        table_bytes = 4 * self.p ** (2 * self.m)
        if table_bytes > TABLE_BYTES_LIMIT:
            raise ConfigError(f"p = {self.p}, m = {self.m}: the product index table needs "
                              f"{table_bytes} bytes, past the limit of {TABLE_BYTES_LIMIT}")
        if not _is_prime(self.p):
            raise ConfigError(f"p must be prime, got {self.p}")
        if self.p <= 3 and not self.allow_small_p:
            raise ConfigError(f"p={self.p} needs allow_small_p=True and is supported for the derivation algebra only")

    @property
    def n(self) -> int:
        """Dimension of the truncated polynomial algebra."""
        return self.p ** self.m

    def check_axis(self, i: int) -> None:
        if not 1 <= i <= self.m:
            raise AxisRangeError(f"axis {i} out of range 1..{self.m}")

    def index(self, alpha) -> int:
        """Flat index of a multi-index (entries reduced mod p)."""
        if len(alpha) != self.m:
            raise DimensionError(f"multi-index length {len(alpha)} != m={self.m}")
        idx = 0
        for a in alpha:
            idx = idx * self.p + (a % self.p)
        return idx

    def alpha(self, idx: int) -> tuple:
        return tuple(int(a) for a in alpha_table(self.p, self.m)[idx])

    def inv(self, a: int) -> int:
        return pow(a % self.p, -1, self.p)


@lru_cache(maxsize=None)
def alpha_table(p: int, m: int):
    """(p**m, m) array of all multi-indices in lexicographic order."""
    tbl = np.array(list(product(range(p), repeat=m)), dtype=np.int64)
    tbl.setflags(write=False)
    return tbl


@lru_cache(maxsize=None)
def radix_weights(p: int, m: int):
    w = np.array([p ** (m - 1 - i) for i in range(m)], dtype=np.int64)
    w.setflags(write=False)
    return w


@lru_cache(maxsize=None)
def mul_index_table(p: int, m: int):
    """(n, n) int32 table: flat index of alpha+beta, or n when truncated away.

    Built in chunks of rows whose exponent sums, n * m entries per row, stay
    within _CHUNK_ENTRIES, so the temporaries are bounded in bytes at
    every m.
    """
    alphas = alpha_table(p, m)
    n = p ** m
    radix = radix_weights(p, m)
    out = np.empty((n, n), dtype=np.int32)
    chunk = max(1, _CHUNK_ENTRIES // (n * m))
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        s = alphas[lo:hi, None, :] + alphas[None, :, :]
        ok = (s < p).all(axis=2)
        idx = s @ radix
        out[lo:hi] = np.where(ok, idx, n).astype(np.int32)
    out.setflags(write=False)
    return out
