"""Differential forms over the truncated polynomial algebra.

A k-form is stored as coefficient tables indexed by the k-subsets of axes
(lexicographic order of the subset tuples).  The Lie derivative acts
coefficientwise via D(f dx_I) = D(f) dx_I + f * sum_slots dx..d(D(x))..dx.
The volume-type forms pick out the special and hamiltonian subalgebras as
stabilizer kernels.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import numpy as np

from . import linalg
from .errors import AxisRangeError, ConfigError, ConfigMismatchError, DimensionError
from .gfp import Config
from .oalg import OElem, mul_tables, partial_table
from .witt import WElem, conjugate_axis, w_basis


@lru_cache(maxsize=None)
def subset_list(m: int, k: int):
    return tuple(combinations(range(1, m + 1), k))


@lru_cache(maxsize=None)
def subset_pos(m: int, k: int):
    return {s: i for i, s in enumerate(subset_list(m, k))}


class KForm:
    """Exterior k-form with coefficient tables per axis subset."""

    __slots__ = ("cfg", "k", "tables")

    def __init__(self, cfg: Config, k: int, tables):
        if not 0 <= k <= cfg.m:
            raise AxisRangeError(f"form degree {k} out of range 0..{cfg.m}")
        arr = np.asarray(tables, dtype=np.int64)
        want = (len(subset_list(cfg.m, k)), cfg.n)
        if arr.shape != want:
            raise DimensionError(f"coefficient block has shape {arr.shape}, expected {want}")
        self.cfg = cfg
        self.k = k
        arr = arr % cfg.p
        arr.setflags(write=False)
        self.tables = arr

    @classmethod
    def zero(cls, cfg: Config, k: int) -> "KForm":
        return cls(cfg, k, np.zeros((len(subset_list(cfg.m, k)), cfg.n), dtype=np.int64))

    def coeff(self, subset) -> OElem:
        pos = subset_pos(self.cfg.m, self.k)
        key = tuple(sorted(subset))
        if key not in pos:
            raise AxisRangeError(f"bad axis subset {subset}")
        return OElem(self.cfg, self.tables[pos[key]].copy())

    def terms(self):
        out = []
        for s, row in zip(subset_list(self.cfg.m, self.k), self.tables):
            if row.any():
                out.append((s, OElem(self.cfg, row.copy())))
        return out

    def is_zero(self) -> bool:
        return not self.tables.any()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, KForm)
            and self.cfg == other.cfg
            and self.k == other.k
            and np.array_equal(self.tables, other.tables)
        )

    def __hash__(self):
        return hash((self.cfg, self.k, self.tables.tobytes()))

    def _check(self, other: "KForm") -> None:
        if self.cfg != other.cfg:
            raise ConfigMismatchError("operands built over different configurations")
        if self.k != other.k:
            raise DimensionError(f"form degrees differ: {self.k} vs {other.k}")

    def __add__(self, other: "KForm") -> "KForm":
        self._check(other)
        return KForm(self.cfg, self.k, self.tables + other.tables)

    def __sub__(self, other: "KForm") -> "KForm":
        self._check(other)
        return KForm(self.cfg, self.k, self.tables - other.tables)

    def __neg__(self) -> "KForm":
        return KForm(self.cfg, self.k, -self.tables)

    def __mul__(self, other):
        if isinstance(other, int):
            return KForm(self.cfg, self.k, self.tables * (other % self.cfg.p))
        if isinstance(other, OElem):
            return KForm(self.cfg, self.k, np.stack([mul_tables(self.cfg, other.table, row) for row in self.tables]))
        return NotImplemented

    def __rmul__(self, other):
        return self.__mul__(other)

    def wedge(self, other: "KForm") -> "KForm":
        if self.cfg != other.cfg:
            raise ConfigMismatchError("operands built over different configurations")
        kk = self.k + other.k
        if kk > self.cfg.m:
            raise DimensionError(f"wedge degree {kk} exceeds m={self.cfg.m}")
        out = np.zeros((len(subset_list(self.cfg.m, kk)), self.cfg.n), dtype=np.int64)
        pos = subset_pos(self.cfg.m, kk)
        for sa, fa in self.terms():
            for sb, fb in other.terms():
                if set(sa) & set(sb):
                    continue
                merged = tuple(sorted(sa + sb))
                sign = _merge_sign(sa + sb)
                prod = mul_tables(self.cfg, fa.table, fb.table)
                out[pos[merged]] = (out[pos[merged]] + sign * prod) % self.cfg.p
        return KForm(self.cfg, kk, out)

    def __repr__(self) -> str:
        parts = []
        for s, f in self.terms():
            dx = "^".join(f"dx{i}" for i in s) if s else "1"
            parts.append(f"({f!r}) {dx}")
        return " + ".join(parts) if parts else "0"


def _merge_sign(seq) -> int:
    """Parity of the permutation sorting a duplicate-free sequence."""
    seq = list(seq)
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def differential(f: OElem) -> KForm:
    """df = sum d_i(f) dx_i."""
    cfg = f.cfg
    rows = np.stack([partial_table(cfg, f.table, i) for i in range(1, cfg.m + 1)])
    return KForm(cfg, 1, rows)


def lie_derivative(d: WElem, omega: KForm) -> KForm:
    """Action of a derivation on a form, coefficientwise:
    D(f dx_I) = D(f) dx_I + f * sum_j dx_{i_1}..d(D(x_{i_j}))..dx_{i_k}."""
    cfg = omega.cfg
    if d.cfg != cfg:
        raise ConfigMismatchError("operands built over different configurations")
    out = np.zeros_like(omega.tables)
    pos = subset_pos(cfg.m, omega.k)
    for subset, f in zip(subset_list(cfg.m, omega.k), omega.tables):
        if not f.any():
            continue
        out[pos[subset]] = (out[pos[subset]] + d.apply(OElem(cfg, f.copy())).table) % cfg.p
        for slot, i_j in enumerate(subset):
            g = d.tables[i_j - 1]  # D(x_{i_j})
            if not g.any():
                continue
            for ell in range(1, cfg.m + 1):
                dg = partial_table(cfg, g, ell)
                if not dg.any():
                    continue
                rest = subset[:slot] + subset[slot + 1:]
                if ell in rest:
                    continue
                coeff = mul_tables(cfg, f, dg)
                new = tuple(sorted(rest + (ell,)))
                # parity of moving the new index from the slot into sorted order
                crossings = sum(1 for x in rest if (x - ell) * (x - i_j) < 0)
                sign = (-1) ** crossings
                out[pos[new]] = (out[pos[new]] + sign * coeff) % cfg.p
    return KForm(cfg, omega.k, out)


def omega_volume(cfg: Config) -> KForm:
    """dx_1 ^ ... ^ dx_m."""
    t = np.zeros((1, cfg.n), dtype=np.int64)
    t[0, 0] = 1
    return KForm(cfg, cfg.m, t)


def omega_symplectic(cfg: Config) -> KForm:
    """sum dx_i ^ dx_{i+r} over the first half of the axes (even m)."""
    if cfg.m % 2 != 0:
        raise ConfigError(f"symplectic form needs even m, got {cfg.m}")
    out = KForm.zero(cfg, 2)
    t = np.array(out.tables)
    pos = subset_pos(cfg.m, 2)
    for i in range(1, cfg.m // 2 + 1):
        t[pos[(i, conjugate_axis(cfg, i))], 0] = 1
    return KForm(cfg, 2, t)


def _lie_matrix(cfg: Config, omega: KForm):
    """Matrix of D -> D(omega) on flat coordinates, one column per basis."""
    rows = []
    for e in w_basis(cfg):
        rows.append(lie_derivative(e, omega).tables.reshape(-1))
    return np.stack(rows).T % cfg.p


@lru_cache(maxsize=None)
def _algebra_rows_cached(cfg: Config, kind: str):
    if kind == "W":
        return np.eye(cfg.m * cfg.n, dtype=np.int64)
    if kind == "S":
        omega = omega_volume(cfg)
    elif kind == "H":
        omega = omega_symplectic(cfg)
    else:
        raise ConfigError(f"unknown algebra kind {kind!r}")
    return linalg.nullspace(_lie_matrix(cfg, omega), cfg.p)


def algebra_rows(cfg: Config, kind: str):
    """Flat coordinate rows of W, S or H inside the derivation algebra."""
    if kind == "H" and cfg.m % 2 != 0:
        raise ConfigError(f"kind {kind} needs even m, got {cfg.m}")
    return _algebra_rows_cached(cfg, kind).copy()


def derived_rows(cfg: Config, rows, iterations: int = 1):
    """Row space of the iterated derived subalgebra, stabilizing early.

    rows span a subalgebra; each step replaces the span by the span of all
    pairwise brackets.  iterations beyond the stabilization point are
    no-ops.

    Each step brackets b_i only with the b_j, j > i: [b_j, b_i] = -[b_i, b_j]
    and [b_i, b_i] = 0, so the other products add nothing to the span, and
    EchelonSpace.basis() is the RREF of that span, the same rows either way.
    """
    cur = linalg.row_space(np.asarray(rows, dtype=np.int64) % cfg.p, cfg.p)
    for _ in range(iterations):
        space = linalg.EchelonSpace(cfg.m * cfg.n, cfg.p)
        basis = cur
        for i in range(len(basis) - 1):
            # Rows [b_i, b_j] = ad(b_i) b_j for j > i, as basis[i + 1:] @
            # ad(b_i)^T; one expression, so ad(b_i) is freed before add_batch.
            space.add_batch(linalg.matmul(
                basis[i + 1:], WElem.from_flat(cfg, basis[i]).ad_matrix().T, cfg.p))
        nxt = space.basis()
        stable = nxt.shape == cur.shape and np.array_equal(nxt, cur)
        cur = nxt
        if stable:
            break
    return cur

