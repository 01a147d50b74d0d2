"""Derivations of the truncated polynomial algebra and its named subfamilies.

A derivation is stored as the m coefficient tables of D = sum f_i d/dx_i,
stacked into an (m, n) array.  The bracket is computed from the coefficient
formula [D, E]_j = sum_i (f_i * d_i(g_j) - g_i * d_i(f_j)), over stacked row
pairs in bracket_rows.  The closed-form bracket identities for the generator
families are oracles for it: they build their flat rows, stacked over
exponent pairs, from exponents and z-monomial tables alone, and never call
the bracket, bracket_rows or ad_matrix.
p-th powers are computed by p-fold application to the variables, which
pins down a derivation uniquely.
"""

from __future__ import annotations

import numpy as np

from .errors import AxisRangeError, ConfigError, ConfigMismatchError, DimensionError
from .gfp import Config
from .linalg import matmul
from .oalg import (OElem, mul_rows, mul_tables, mult_operator, partial_matrix, partial_table,
                   z_monomial, z_tables)


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
        """[D, E]: the one-row case of bracket_rows."""
        self._check(other)
        return WElem.from_flat(self.cfg, bracket_rows(self.cfg, self.tables[None], other.tables[None])[0])

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
        """(m*n, m*n) matrix of ad(D) on flat coordinates: the one-row case
        of ad_matrices."""
        return ad_matrices(self.cfg, self.tables[None])[0]

    def __repr__(self) -> str:
        parts = []
        for i in range(self.cfg.m):
            if self.tables[i].any():
                parts.append(f"({OElem(self.cfg, self.tables[i].copy())!r})*d{i + 1}")
        return " + ".join(parts) if parts else "0"


def bracket_rows(cfg: Config, d, e):
    """Flat rows of [D, E], one per row pair of two stacks of derivations
    ((K, m*n) flat rows or (K, m, n) tables), from the coefficient formula
    [D, E]_j = sum_i D_i d_i(E_j) - E_i d_i(D_j): the products of all K
    pairs whose two factors are nonzero go through one mul_rows call, so
    the cost follows the number of pairs and their nonzero coefficients."""
    p, m, n = cfg.p, cfg.m, cfg.n
    d = np.asarray(d, dtype=np.int64).reshape(-1, m, n) % p
    e = np.asarray(e, dtype=np.int64).reshape(-1, m, n) % p
    f = np.stack([d, e])                # [s, k, i]: the factors D_i and E_i,
    g = np.stack([e, -d % p])           # and the fields they differentiate, E and -D
    b = np.stack([partial_table(cfg, g, i) for i in range(1, m + 1)], axis=2)  # d_i(g_j)
    s, k, i, j = np.nonzero(f.any(axis=3)[:, :, :, None] & b.any(axis=4))
    out = np.zeros((len(d) * m, n), dtype=np.int64)
    np.add.at(out, k * m + j, mul_rows(cfg, f[s, k, i], b[s, k, i, j]))
    return (out % p).reshape(len(d), m * n)


def ad_matrices(cfg: Config, rows):
    """ad(D) on flat coordinates for each row of a stack of derivations
    ((k, m*n) flat rows or (k, m, n) tables), as one (k, m*n, m*n) array.

    Block (a, j) of ad(D) maps coefficient table j of E to table a of
    [D, E]: it is sum_i f_i d_i on the diagonal (a = j), less
    multiplication by d_j(f_a).  The diagonal blocks take one stacked
    mult_operator per slot i, over the rows whose f_i is nonzero, and one
    matmul with the matrix of d_i; the other term takes one stacked
    mult_operator per block position (a, j), over the rows whose d_j(f_a)
    is nonzero.  Zero tables are skipped, so one row makes the calls a
    per-row loop would."""
    p, m, n = cfg.p, cfg.m, cfg.n
    t = np.asarray(rows, dtype=np.int64).reshape(-1, m, n) % p
    k = len(t)
    act = np.zeros((k, n, n), dtype=np.int64)          # sum_i f_i d_i on one table
    for i in range(m):
        own = np.flatnonzero(t[:, i].any(axis=1))
        if own.size:
            ops = mult_operator(cfg, t[own, i]).reshape(own.size * n, n)
            act[own] += matmul(ops, partial_matrix(p, m, i + 1), p).reshape(own.size, n, n)
    act %= p
    out = np.zeros((k, m, n, m, n), dtype=np.int64)
    for j in range(m):
        out[:, j, :, j, :] = act
        dj = partial_table(cfg, t, j + 1)                # d_j(f_a) for every row and slot a
        for a in range(m):
            own = np.flatnonzero(dj[:, a].any(axis=1))
            if own.size:
                blk = out[:, a, :, j, :]
                blk[own] = (blk[own] - mult_operator(cfg, dj[own, a])) % p
    return out.reshape(k, m * n, m * n)


def w_basis(cfg: Config):
    """Basis x^alpha d/dx_i of the full derivation algebra, i-major order."""
    out = []
    for i in range(1, cfg.m + 1):
        for idx in range(cfg.n):
            out.append(WElem.basis_element(cfg, cfg.alpha(idx), i))
    return out


def _check_pair(cfg: Config, i: int, j: int) -> None:
    cfg.check_axis(i)
    cfg.check_axis(j)
    if i >= j:
        raise AxisRangeError(f"need i < j, got ({i}, {j})")


def d_ij(cfg: Config, i: int, j: int, f: OElem) -> WElem:
    """Generator of the volume-annihilating family:
    d_ij(f) = d_j(f) d/dx_i - d_i(f) d/dx_j, for i < j."""
    _check_pair(cfg, i, j)
    if f.cfg != cfg:
        raise ConfigMismatchError("argument built over a different configuration")
    return WElem.from_flat(cfg, d_ij_rows(cfg, i, j, f.table[None])[0])


def d_ij_rows(cfg: Config, i, j, tables):
    """Flat rows of d_ij(f), one per row f of a (k, n) stack of coefficient
    tables: i and j give one index pair for every row, or are k-arrays that
    give each row its own pair."""
    for pair in set(zip(np.ravel(i).tolist(), np.ravel(j).tolist())):
        _check_pair(cfg, *pair)
    k = len(tables)
    i, j = np.broadcast_to(i, k), np.broadcast_to(j, k)
    dz = np.stack([partial_table(cfg, tables, a) for a in range(1, cfg.m + 1)])   # d_a(f)
    rows = np.arange(k)
    t = np.zeros((k, cfg.m, cfg.n), dtype=np.int64)
    t[rows, i - 1] = dz[j - 1, rows]
    t[rows, j - 1] = -dz[i - 1, rows] % cfg.p
    return t.reshape(k, cfg.m * cfg.n)


def sigma(cfg: Config, i: int) -> int:
    """Sign split for the symplectic pairing of axes: +1 on the first half."""
    r = cfg.m // 2
    return 1 if i <= r else -1


def conjugate_axis(cfg: Config, i: int) -> int:
    r = cfg.m // 2
    return i + r if i <= r else i - r


def _require_even(cfg: Config) -> None:
    if cfg.m % 2 != 0:
        raise ConfigError(f"hamiltonian fields need even m, got {cfg.m}")


def d_h_rows(cfg: Config, tables):
    """Flat rows of the Hamiltonian fields d_h(f) = sum sigma(i) d_i(f) d/dx_{i'},
    one per row f of a (k, n) stack of coefficient tables; even m only."""
    _require_even(cfg)
    t = np.zeros((len(tables), cfg.m, cfg.n), dtype=np.int64)
    for i in range(1, cfg.m + 1):
        t[:, conjugate_axis(cfg, i) - 1] = sigma(cfg, i) * partial_table(cfg, tables, i) % cfg.p
    return t.reshape(len(tables), cfg.m * cfg.n)


def d_ij_z(cfg: Config, i: int, j: int, alpha) -> WElem:
    """d_ij applied to the z-monomial with exponents alpha (taken mod p)."""
    return d_ij(cfg, i, j, z_monomial(cfg, alpha))


def _exponents(cfg: Config, *stacks):
    """Exponent stacks broadcast to (K, m) int64 arrays reduced mod p (z_i^p = 1)."""
    arrs = [np.asarray(x, dtype=np.int64) for x in stacks]
    arrs = np.broadcast_arrays(*(a.reshape(-1, a.shape[-1]) for a in arrs))
    if arrs[0].shape[1] != cfg.m:
        raise DimensionError(f"multi-index length {arrs[0].shape[1]} != m={cfg.m}")
    return [a % cfg.p for a in arrs]


def _unit(cfg: Config, *axes):
    """Sum of the unit exponent vectors of the 1-based axes."""
    out = np.zeros(cfg.m, dtype=np.int64)
    for k in axes:
        out[k - 1] += 1
    return out


def _d_ij_z_terms(cfg: Config, c, i: int, j: int, gammas, shift=0):
    """Slot terms of c * z^shift * d_ij(z^gamma), for _field_rows.

    From exponents alone: d_k(z^gamma) = gamma_k z^(gamma - e_k), and
    z-monomials multiply by adding exponents, so the i and j coefficients
    are c gamma_j z^(gamma + shift - e_j) and -c gamma_i z^(gamma + shift - e_i).
    """
    base = gammas + shift
    return [(c * gammas[:, j - 1], i, base - _unit(cfg, j)),
            (-c * gammas[:, i - 1], j, base - _unit(cfg, i))]


def _d_h_z_terms(cfg: Config, c, gammas):
    """Slot terms of c * d_h(z^gamma): sigma(i) gamma_i z^(gamma - e_i) in coefficient i'."""
    return [(c * sigma(cfg, i) * gammas[:, i - 1], conjugate_axis(cfg, i), gammas - _unit(cfg, i))
            for i in range(1, cfg.m + 1)]


def _field_rows(cfg: Config, terms):
    """Flat rows of sum c z^gamma d/dx_s over the slot terms (c, s, gamma),
    whose c and gamma hold one entry per pair; one z_tables call builds the
    z-monomial tables of every term."""
    p, m, n = cfg.p, cfg.m, cfg.n
    k = len(terms[0][2])
    z = z_tables(p, m, np.concatenate([g for _, _, g in terms])).reshape(len(terms), k, n)
    out = np.zeros((k, m, n), dtype=np.int64)
    for t, (c, s, _) in enumerate(terms):
        out[:, s - 1] += (c % p)[:, None] * z[t]
    return (out % p).reshape(k, m * n)


def closed_form_bracket_rows(cfg: Config, alphas, betas, i: int, j: int):
    """Flat rows of [d_12(z^alpha), d_ij(z^beta)], i < j, one per exponent pair.

    Expresses the bracket of two generator fields as a short combination of
    generator fields again, split by how {i, j} meets {1, 2}: a single term
    for (1, 2), three-term combinations when the index sets share one axis,
    and a two-term module-action combination (z-monomial multiples of the
    two fields) when they are disjoint.  Exponents are taken mod p
    (z_i^p = 1) before the scalar cofactors are formed, so an exponent is
    read as its 0..p-1 representative.  Built from exponents and z-monomial
    tables alone, it never calls the generic bracket or ad_matrix, and so
    serves as an independent oracle for them.  Returns a (K, m*n) array.
    """
    _check_pair(cfg, i, j)
    alpha, beta = _exponents(cfg, alphas, betas)
    a1, a2, ai, aj = (alpha[:, k - 1] for k in (1, 2, i, j))
    b1, b2, bi, bj = (beta[:, k - 1] for k in (1, 2, i, j))
    ab = alpha + beta
    if i > 2:
        return _field_rows(cfg, _d_ij_z_terms(cfg, a2 * b1 - a1 * b2, i, j, beta,
                                              shift=alpha - _unit(cfg, 1, 2))
                           + _d_ij_z_terms(cfg, aj * bi - ai * bj, 1, 2, alpha,
                                           shift=beta - _unit(cfg, i, j)))
    if (i, j) == (1, 2):
        gens = [(-(a1 * b2 - a2 * b1), 1, 2, (1, 2))]
    elif i == 1:
        gens = [(-a1 * bj, 1, 2, (1, j)), (a2 * b1, 1, j, (1, 2)), (-a1 * b1, 2, j, (1, 1))]
    else:
        gens = [(-a2 * bj, 1, 2, (2, j)), (-a1 * b2, 2, j, (1, 2)), (a2 * b2, 1, j, (2, 2))]
    return _field_rows(cfg, [t for c, u, v, drops in gens
                             for t in _d_ij_z_terms(cfg, c, u, v, ab - _unit(cfg, *drops))])


def closed_form_bracket(cfg: Config, alpha, beta, i: int, j: int) -> WElem:
    """[d_ij(1,2, z^alpha), d_ij(i,j, z^beta)] for one pair: see closed_form_bracket_rows."""
    return WElem.from_flat(cfg, closed_form_bracket_rows(cfg, [alpha], [beta], i, j)[0])


def closed_form_bracket_reduced_rows(cfg: Config, alphas, betas, i: int, j: int):
    """One-term shortcut for [d_12(z^alpha), d_ij(z^beta)], 2 <= i < j, as flat rows.

    Valid for every beta only on a stratum of alpha where the extra terms of
    the general form cancel: alpha_2 = 1 and alpha_j = 0 when i = 2, and
    alpha_i = alpha_j = 0 when i > 2.  Off the stratum the one-term
    expression is provably not the bracket, so the domain is enforced: a
    stack with any pair off the stratum is refused.  Kept separate so
    conformance checks can pin both facts.  Like closed_form_bracket_rows,
    it never calls the generic bracket or ad_matrix.
    """
    cfg.check_axis(i)
    cfg.check_axis(j)
    if not 2 <= i < j:
        raise AxisRangeError(f"need 2 <= i < j, got ({i}, {j})")
    alpha, beta = _exponents(cfg, alphas, betas)
    a1, a2 = alpha[:, 0], alpha[:, 1]
    b1, b2 = beta[:, 0], beta[:, 1]
    if i == 2:
        if (alpha[:, 1] != 1).any() or alpha[:, j - 1].any():
            raise ValueError("one-term form needs alpha_2 = 1 and alpha_j = 0; use closed_form_bracket")
        c = -(a1 * (b2 - 1) - a2 * b1)
    else:
        if alpha[:, i - 1].any() or alpha[:, j - 1].any():
            raise ValueError("one-term form needs alpha_i = alpha_j = 0; use closed_form_bracket")
        c = -(a1 * b2 - a2 * b1)
    return _field_rows(cfg, _d_ij_z_terms(cfg, c, i, j, alpha + beta - _unit(cfg, 1, 2)))


def closed_form_bracket_reduced(cfg: Config, alpha, beta, i: int, j: int) -> WElem:
    """The one-term shortcut for one pair: see closed_form_bracket_reduced_rows."""
    return WElem.from_flat(cfg, closed_form_bracket_reduced_rows(cfg, [alpha], [beta], i, j)[0])


def closed_form_h_bracket_rows(cfg: Config, alphas, betas):
    """Flat rows of [d_h(z^alpha), d_h(z^beta)]: d_h of the applied potential.

    The bracket of two Hamiltonian generator fields equals d_h evaluated at
    the image of the second potential under the first field, for any number
    r of symplectic pairs.  That image is the Poisson bracket
    sum_k (alpha_k beta_k' - alpha_k' beta_k) z^(alpha + beta - e_k - e_k'),
    k' = k + r, so the rows combine r generator rows d_h(z^gamma).  Never
    calls the generic bracket or ad_matrix: an independent oracle for it
    on the Hamiltonian family.
    """
    _require_even(cfg)
    alpha, beta = _exponents(cfg, alphas, betas)
    terms = []
    for k in range(1, cfg.m // 2 + 1):
        kp = conjugate_axis(cfg, k)
        c = alpha[:, k - 1] * beta[:, kp - 1] - alpha[:, kp - 1] * beta[:, k - 1]
        terms += _d_h_z_terms(cfg, c, alpha + beta - _unit(cfg, k, kp))
    return _field_rows(cfg, terms)


def closed_form_h_partial_rows(cfg: Config, ell: int, betas):
    """Flat rows of [d/dx_ell, d_h(z^beta)]: d_h of the differentiated
    potential, beta_ell d_h(z^(beta - e_ell)).  Never calls the generic
    bracket or ad_matrix."""
    cfg.check_axis(ell)
    _require_even(cfg)
    beta, = _exponents(cfg, betas)
    return _field_rows(cfg, _d_h_z_terms(cfg, beta[:, ell - 1], beta - _unit(cfg, ell)))
