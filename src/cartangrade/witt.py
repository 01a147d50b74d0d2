"""Derivations of the truncated polynomial algebra and its named subfamilies.

A derivation is stored as the m coefficient tables of D = sum f_i d/dx_i,
stacked into an (m, n) array.  The bracket is computed from the coefficient
formula [D, E]_j = sum_i (f_i * d_i(g_j) - g_i * d_i(f_j)); closed-form
bracket identities for the generator families serve as test oracles only.
p-th powers are computed by p-fold application to the variables, which
pins down a derivation uniquely.
"""

from __future__ import annotations

import numpy as np

from .errors import AxisRangeError, ConfigError, ConfigMismatchError, DimensionError
from .gfp import Config
from .linalg import matmul
from .oalg import OElem, mul_tables, mult_operator, partial_matrix, partial_table, z_monomial


class WElem:
    """A derivation sum f_i d/dx_i, coefficient tables stacked row-wise."""

    __slots__ = ("cfg", "tables")

    def __init__(self, cfg: Config, tables):
        arr = np.asarray(tables, dtype=np.int64)
        if arr.shape != (cfg.m, cfg.n):
            raise DimensionError(f"coefficient block has shape {arr.shape}, expected ({cfg.m}, {cfg.n})")
        self.cfg = cfg
        arr = arr % cfg.p
        arr.setflags(write=False)
        self.tables = arr

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, cfg: Config) -> "WElem":
        return cls(cfg, np.zeros((cfg.m, cfg.n), dtype=np.int64))

    @classmethod
    def from_coeffs(cls, coeffs) -> "WElem":
        if not coeffs:
            raise DimensionError("need at least one coefficient")
        cfg = coeffs[0].cfg
        for f in coeffs:
            if f.cfg != cfg:
                raise ConfigMismatchError("coefficients built over different configurations")
        return cls(cfg, np.stack([f.table for f in coeffs]))

    @classmethod
    def partial(cls, cfg: Config, i: int) -> "WElem":
        cfg.check_axis(i)
        t = np.zeros((cfg.m, cfg.n), dtype=np.int64)
        t[i - 1, 0] = 1
        return cls(cfg, t)

    @classmethod
    def basis_element(cls, cfg: Config, alpha, i: int) -> "WElem":
        cfg.check_axis(i)
        t = np.zeros((cfg.m, cfg.n), dtype=np.int64)
        t[i - 1, cfg.index(alpha)] = 1
        return cls(cfg, t)

    # -- queries ------------------------------------------------------
    def coeff(self, i: int) -> OElem:
        self.cfg.check_axis(i)
        return OElem(self.cfg, self.tables[i - 1].copy())

    def coeffs(self):
        return [OElem(self.cfg, row.copy()) for row in self.tables]

    def flat(self):
        """The (m*n,) coordinate vector used by the linear-algebra layers."""
        return self.tables.reshape(-1).copy()

    @classmethod
    def from_flat(cls, cfg: Config, vec) -> "WElem":
        return cls(cfg, np.asarray(vec, dtype=np.int64).reshape(cfg.m, cfg.n))

    def is_zero(self) -> bool:
        return not self.tables.any()

    def __eq__(self, other) -> bool:
        return isinstance(other, WElem) and self.cfg == other.cfg and np.array_equal(self.tables, other.tables)

    def __hash__(self):
        return hash((self.cfg, self.tables.tobytes()))

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- arithmetic ---------------------------------------------------
    def _check(self, other: "WElem") -> None:
        if self.cfg != other.cfg:
            raise ConfigMismatchError("operands built over different configurations")

    def __add__(self, other: "WElem") -> "WElem":
        self._check(other)
        return WElem(self.cfg, self.tables + other.tables)

    def __sub__(self, other: "WElem") -> "WElem":
        self._check(other)
        return WElem(self.cfg, self.tables - other.tables)

    def __neg__(self) -> "WElem":
        return WElem(self.cfg, -self.tables)

    def __mul__(self, other):
        if isinstance(other, int):
            return WElem(self.cfg, self.tables * (other % self.cfg.p))
        if isinstance(other, OElem):
            # module action f * D
            return WElem(self.cfg, np.stack([mul_tables(self.cfg, other.table, row) for row in self.tables]))
        return NotImplemented

    def __rmul__(self, other):
        return self.__mul__(other)

    def apply(self, f: OElem) -> OElem:
        """D(f) = sum f_i * d_i(f)."""
        if f.cfg != self.cfg:
            raise ConfigMismatchError("argument built over a different configuration")
        acc = np.zeros(self.cfg.n, dtype=np.int64)
        for i in range(self.cfg.m):
            if self.tables[i].any():
                acc = (acc + mul_tables(self.cfg, self.tables[i], partial_table(self.cfg, f.table, i + 1))) % self.cfg.p
        return OElem(self.cfg, acc)

    def bracket(self, other: "WElem") -> "WElem":
        self._check(other)
        cfg = self.cfg
        out = np.zeros((cfg.m, cfg.n), dtype=np.int64)
        fs, gs = self.tables, other.tables
        for j in range(cfg.m):
            acc = np.zeros(cfg.n, dtype=np.int64)
            for i in range(cfg.m):
                if fs[i].any() and gs[j].any():
                    acc = acc + mul_tables(cfg, fs[i], partial_table(cfg, gs[j], i + 1))
                if gs[i].any() and fs[j].any():
                    acc = acc - mul_tables(cfg, gs[i], partial_table(cfg, fs[j], i + 1))
            out[j] = acc % cfg.p
        return WElem(cfg, out)

    def p_power(self) -> "WElem":
        """D^p, recovered from its values on the variables."""
        cfg = self.cfg
        rows = []
        for i in range(1, cfg.m + 1):
            g = OElem.variable(cfg, i)
            for _ in range(cfg.p):
                g = self.apply(g)
            rows.append(g.table)
        return WElem(cfg, np.stack(rows))

    def divergence(self) -> OElem:
        acc = np.zeros(self.cfg.n, dtype=np.int64)
        for i in range(self.cfg.m):
            acc = acc + partial_table(self.cfg, self.tables[i], i + 1)
        return OElem(self.cfg, acc)

    def ad_matrix(self):
        """(m*n, m*n) matrix of ad(D) on flat coordinates."""
        cfg = self.cfg
        m, n = cfg.m, cfg.n
        mult_ops = [mult_operator(cfg, self.tables[k]) if self.tables[k].any() else None for k in range(m)]
        partials = [partial_matrix(cfg.p, m, k + 1) for k in range(m)]
        # action of D itself on a coefficient table
        act = np.zeros((n, n), dtype=np.int64)
        for k in range(m):
            if mult_ops[k] is not None:
                act = (act + matmul(mult_ops[k], partials[k], cfg.p)) % cfg.p
        out = np.zeros((m * n, m * n), dtype=np.int64)
        for j in range(m):
            out[j * n: (j + 1) * n, j * n: (j + 1) * n] = act
            # -(d_j f_k) * u contributions into block row k
            for k in range(m):
                dfk = partial_table(cfg, self.tables[k], j + 1)
                if dfk.any():
                    blk = mult_operator(cfg, dfk)
                    out[k * n: (k + 1) * n, j * n: (j + 1) * n] = (
                        out[k * n: (k + 1) * n, j * n: (j + 1) * n] - blk
                    ) % cfg.p
        return out

    def __repr__(self) -> str:
        parts = []
        for i in range(self.cfg.m):
            if self.tables[i].any():
                parts.append(f"({OElem(self.cfg, self.tables[i].copy())!r})*d{i + 1}")
        return " + ".join(parts) if parts else "0"


def w_basis(cfg: Config):
    """Basis x^alpha d/dx_i of the full derivation algebra, i-major order."""
    out = []
    for i in range(1, cfg.m + 1):
        for idx in range(cfg.n):
            out.append(WElem.basis_element(cfg, cfg.alpha(idx), i))
    return out


def d_ij(cfg: Config, i: int, j: int, f: OElem) -> WElem:
    """Generator of the volume-annihilating family:
    d_ij(f) = d_j(f) d/dx_i - d_i(f) d/dx_j, for i < j."""
    cfg.check_axis(i)
    cfg.check_axis(j)
    if i >= j:
        raise AxisRangeError(f"need i < j, got ({i}, {j})")
    if f.cfg != cfg:
        raise ConfigMismatchError("argument built over a different configuration")
    t = np.zeros((cfg.m, cfg.n), dtype=np.int64)
    t[i - 1] = partial_table(cfg, f.table, j)
    t[j - 1] = (-partial_table(cfg, f.table, i)) % cfg.p
    return WElem(cfg, t)


def sigma(cfg: Config, i: int) -> int:
    """Sign split for the symplectic pairing of axes: +1 on the first half."""
    r = cfg.m // 2
    return 1 if i <= r else -1


def conjugate_axis(cfg: Config, i: int) -> int:
    r = cfg.m // 2
    return i + r if i <= r else i - r


def d_h(cfg: Config, f: OElem) -> WElem:
    """Hamiltonian field of f: sum sigma(i) d_i(f) d/dx_{i'}, even m only."""
    if cfg.m % 2 != 0:
        raise ConfigError(f"hamiltonian fields need even m, got {cfg.m}")
    if f.cfg != cfg:
        raise ConfigMismatchError("argument built over a different configuration")
    t = np.zeros((cfg.m, cfg.n), dtype=np.int64)
    for i in range(1, cfg.m + 1):
        ip = conjugate_axis(cfg, i)
        t[ip - 1] = (t[ip - 1] + sigma(cfg, i) * partial_table(cfg, f.table, i)) % cfg.p
    return WElem(cfg, t)


def d_ij_z(cfg: Config, i: int, j: int, alpha) -> WElem:
    """d_ij applied to the z-monomial with exponents alpha (taken mod p)."""
    return d_ij(cfg, i, j, z_monomial(cfg, alpha))


def d_h_z(cfg: Config, alpha) -> WElem:
    return d_h(cfg, z_monomial(cfg, alpha))


def _shifted(alpha, beta, *drops):
    """Exponent vector alpha + beta - sum of unit vectors for the 1-based axes in drops."""
    out = [a + b for a, b in zip(alpha, beta)]
    for k in drops:
        out[k - 1] -= 1
    return out


def closed_form_bracket(cfg: Config, alpha, beta, i: int, j: int) -> WElem:
    """Closed form for [d_ij(1,2, z^alpha), d_ij(i,j, z^beta)], i < j.

    Expresses the bracket of two generator fields as a short combination of
    generator fields again, split by how {i, j} meets {1, 2}: a single term
    for (1, 2), three-term combinations when the index sets share one axis,
    and a two-term module-action combination when they are disjoint.  Used
    as an independent oracle against the generic coefficient-formula bracket.
    Exponents are taken mod p (z_i^p = 1) before the scalar cofactors are
    formed, so alpha and beta should be given by their 0..p-1 representatives.
    """
    cfg.check_axis(i)
    cfg.check_axis(j)
    if i >= j:
        raise AxisRangeError(f"need i < j, got ({i}, {j})")
    p = cfg.p
    alpha = [a % p for a in alpha]
    beta = [b % p for b in beta]
    a1, a2 = alpha[0], alpha[1] if cfg.m > 1 else 0
    b1, b2 = beta[0], beta[1] if cfg.m > 1 else 0
    aj, bj = alpha[j - 1], beta[j - 1]
    if i > 2:
        ai, bi = alpha[i - 1], beta[i - 1]
        left = d_ij_z(cfg, 1, 2, alpha) * z_monomial(cfg, _shifted(beta, [0] * cfg.m, i, j))
        right = d_ij_z(cfg, i, j, beta) * z_monomial(cfg, _shifted(alpha, [0] * cfg.m, 1, 2))
        return ((a2 * b1 - a1 * b2) % p) * right + ((aj * bi - ai * bj) % p) * left
    if (i, j) == (1, 2):
        terms = [(-(a1 * b2 - a2 * b1), 1, 2, _shifted(alpha, beta, 1, 2))]
    elif i == 1:
        terms = [
            (-a1 * bj, 1, 2, _shifted(alpha, beta, 1, j)),
            (a2 * b1, 1, j, _shifted(alpha, beta, 1, 2)),
            (-a1 * b1, 2, j, _shifted(alpha, beta, 1, 1)),
        ]
    else:
        terms = [
            (-a2 * bj, 1, 2, _shifted(alpha, beta, 2, j)),
            (-a1 * b2, 2, j, _shifted(alpha, beta, 1, 2)),
            (a2 * b2, 1, j, _shifted(alpha, beta, 2, 2)),
        ]
    total = WElem.zero(cfg)
    for c, u, v, gamma in terms:
        if c % p:
            total = total + (c % p) * d_ij_z(cfg, u, v, gamma)
    return total


def closed_form_bracket_reduced(cfg: Config, alpha, beta, i: int, j: int) -> WElem:
    """One-term shortcut for [d_ij(1,2, z^alpha), d_ij(i,j, z^beta)], 2 <= i < j.

    Valid for every beta only on a stratum of alpha where the extra terms of
    the general form cancel: alpha_2 = 1 and alpha_j = 0 when i = 2, and
    alpha_i = alpha_j = 0 when i > 2.  Off the stratum the one-term
    expression is provably not the bracket, so the domain is enforced.
    Kept separate so conformance checks can pin both facts.
    """
    cfg.check_axis(i)
    cfg.check_axis(j)
    if not 2 <= i < j:
        raise AxisRangeError(f"need 2 <= i < j, got ({i}, {j})")
    p = cfg.p
    alpha = [a % p for a in alpha]
    beta = [b % p for b in beta]
    if i == 2:
        if alpha[1] != 1 or alpha[j - 1] != 0:
            raise ValueError("one-term form needs alpha_2 = 1 and alpha_j = 0; use closed_form_bracket")
        c = -(alpha[0] * (beta[1] - 1) - alpha[1] * beta[0])
    else:
        if alpha[i - 1] != 0 or alpha[j - 1] != 0:
            raise ValueError("one-term form needs alpha_i = alpha_j = 0; use closed_form_bracket")
        c = -(alpha[0] * beta[1] - alpha[1] * beta[0])
    if c % p == 0:
        return WElem.zero(cfg)
    return (c % p) * d_ij_z(cfg, i, j, _shifted(alpha, beta, 1, 2))


def closed_form_h_bracket(cfg: Config, alpha, beta) -> WElem:
    """Closed form for [d_h(z^alpha), d_h(z^beta)]: d_h of the applied potential.

    The bracket of two Hamiltonian generator fields equals d_h evaluated at
    the image of the second potential under the first field, for any number
    of symplectic pairs.  Serves as an independent oracle for the generic
    bracket on the Hamiltonian family.
    """
    za = d_h_z(cfg, alpha)
    zb = z_monomial(cfg, beta)
    return d_h(cfg, za.apply(zb))


def closed_form_h_partial(cfg: Config, ell: int, beta) -> WElem:
    """Closed form for [d/dx_ell, d_h(z^beta)]: d_h of the differentiated potential."""
    cfg.check_axis(ell)
    return d_h(cfg, z_monomial(cfg, beta).partial(ell))
