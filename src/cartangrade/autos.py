"""Automorphisms of the truncated polynomial algebra.

An automorphism is determined by the images of the variables: any tuple of
elements with zero constant term and independent linear parts extends to a
unique algebra automorphism.  This module provides the substitution action
on the algebra, the adjoint action on derivations, pushforward of
differential forms and of gradings, jacobian determinants, the standard
witness families (permutation, shift, basis change), seeded random draws,
and the iterative correction that turns a volume-factor-up-to-units map
into one fixing the volume form exactly.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import linalg
from .errors import (
    AdmissibilityError,
    CartanGradeError,
    ConfigMismatchError,
    DimensionError,
    InternalError,
    ObstructionError,
    ValidityError,
)
from .gfp import Config, alpha_table, radix_weights, weight_table
from .gradings import Grading, _degree_of_exponents, induce_W
from .oalg import OElem, mult_operator, partial_table, z_basis_matrix
from .forms import KForm, differential
from .witt import WElem


class AutO:
    """Algebra automorphism given by the images of the m variables.

    Validity requires every image to lie in the maximal ideal (zero constant
    term) and the linear parts to be independent mod squares; both are
    checked at construction.  The images are all the map holds: its matrix
    on the monomial basis is built from them on each use.
    """

    __slots__ = ("cfg", "images")

    def __init__(self, images):
        images = tuple(images)
        if not images:
            raise DimensionError("an automorphism needs at least one variable image")
        cfg = images[0].cfg
        if len(images) != cfg.m:
            raise DimensionError(f"need {cfg.m} images, got {len(images)}")
        for u in images:
            if not isinstance(u, OElem):
                raise ValidityError("images must be algebra elements")
            if u.cfg != cfg:
                raise ConfigMismatchError("image built over a different configuration")
            if u.constant_term != 0:
                raise ValidityError("image has nonzero constant term")
        lin = np.array([u.linear_part() for u in images], dtype=np.int64)
        if linalg.rank(lin, cfg.p) != cfg.m:
            raise ValidityError("images are dependent modulo the square of the maximal ideal")
        self.cfg = cfg
        self.images = images

    @classmethod
    def identity(cls, cfg: Config) -> "AutO":
        return cls([OElem.variable(cfg, i) for i in range(1, cfg.m + 1)])

    @property
    def matrix(self):
        """Matrix of the algebra map on the monomial basis, built on each access.

        Column at the index of x^alpha holds the table of the product of the
        variable images with exponents alpha: the image of its first variable
        x_j times the column of alpha - e_j.  Columns are filled one total
        degree at a time, with one product per first variable.
        """
        cfg = self.cfg
        p, n = cfg.p, cfg.n
        first = np.argmax(alpha_table(p, cfg.m) > 0, axis=1)
        prev = np.arange(n) - radix_weights(p, cfg.m)[first]
        degree = weight_table(p, cfg.m)
        ops = mult_operator(cfg, np.stack([u.table for u in self.images]))
        mat = np.zeros((n, n), dtype=np.int64)
        mat[0, 0] = 1
        for d in range(1, int(degree.max()) + 1):
            for j, op in enumerate(ops):
                cols = np.flatnonzero((degree == d) & (first == j))
                if cols.size:
                    mat[:, cols] = linalg.matmul(op, mat[:, prev[cols]], p)
        return mat

    def apply(self, f: OElem) -> OElem:
        """Image of an algebra element under the substitution map."""
        if f.cfg != self.cfg:
            raise ConfigMismatchError("element built over a different configuration")
        return OElem(self.cfg, linalg.matmul(self.matrix, f.table, self.cfg.p))

    def compose(self, other: "AutO") -> "AutO":
        """Map sending f to self(other(f)), in one product with self.matrix."""
        if other.cfg != self.cfg:
            raise ConfigMismatchError("composing automorphisms over different configurations")
        cols = np.stack([u.table for u in other.images], axis=1)
        return AutO(OElem(self.cfg, col) for col in linalg.matmul(self.matrix, cols, self.cfg.p).T)

    def inverse(self) -> "AutO":
        """Inverse automorphism: x_j -> mu^-1(x_j), from _preimages."""
        return AutO(OElem(self.cfg, v) for v in _preimages(self.matrix, self.cfg))

    def conjugation_matrix(self):
        """(m*n, m*n) matrix of D -> mu o D o mu^-1 on flat derivation coordinates.

        With v_j = mu^-1(x_j), coefficient j of the conjugate of
        D = sum_i f_i d_i is mu(D(v_j)) = sum_i mu(d_i(v_j) * f_i), so block
        (j, i) is mu.matrix @ mult_operator(d_i v_j): one stacked
        mult_operator for the m^2 partials and one product of mu.matrix with
        their operators side by side.  The v_j come from _preimages, as in
        inverse().
        """
        cfg = self.cfg
        p, m, n = cfg.p, cfg.m, cfg.n
        mat = self.matrix
        v = _preimages(mat, cfg)
        dv = np.stack([partial_table(cfg, v, i + 1) for i in range(m)], axis=1)
        ops = mult_operator(cfg, dv.reshape(m * m, n)).transpose(1, 0, 2).reshape(n, m * m * n)
        out = linalg.matmul(mat, ops, p)
        return out.reshape(n, m, m * n).transpose(1, 0, 2).reshape(m * n, m * n)

    def jacobian(self) -> OElem:
        """Determinant of the matrix of partials of the variable images: its
        Laplace expansion along the first row, sum_i d_i(u_1) * C_i over the
        cofactors of _first_row_cofactors."""
        u1 = self.images[0]
        total = OElem.zero(self.cfg)
        for i, c in enumerate(_first_row_cofactors(self), start=1):
            total = total + u1.partial(i) * c
        return total

    def act_on_form(self, omega: KForm) -> KForm:
        """Pushforward: coefficients map through, axis differentials become
        differentials of the corresponding images."""
        if omega.cfg != self.cfg:
            raise ConfigMismatchError("form built over a different configuration")
        cfg = self.cfg
        mat = self.matrix
        dimg = [differential(u) for u in self.images]
        out = KForm.zero(cfg, omega.k)
        for subset, f in omega.terms():
            term = KForm(cfg, 0, linalg.matmul(mat, f.table, cfg.p).reshape(1, -1))
            for i in subset:
                term = term.wedge(dimg[i - 1])
            out = out + term
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, AutO) and self.cfg == other.cfg and self.images == other.images

    def __hash__(self):
        return hash((self.cfg, self.images))

    def __repr__(self) -> str:
        body = ", ".join(f"x{i + 1} -> {u!r}" for i, u in enumerate(self.images))
        return f"AutO({body})"


def _preimages(mat, cfg: Config):
    """(m, n) tables of mu^-1(x_1..x_m) for the map with matrix mat: the
    columns of mat^-1 at the variables, solved for alone, one elimination
    of n x (n + m) instead of the n x 2n of the whole inverse."""
    rhs = np.zeros((cfg.n, cfg.m), dtype=np.int64)
    rhs[radix_weights(cfg.p, cfg.m), np.arange(cfg.m)] = 1
    return linalg.solve(mat, rhs, cfg.p).T


def volume_factor(mu: AutO):
    """The scalar c with mu(volume form) = c * volume form, or None.

    A unit scalar here is exactly membership in the stabilizer of the line
    spanned by the volume form.
    """
    jac = mu.jacobian()
    c = int(jac.table[0])
    if c != 0 and not jac.table[1:].any():
        return c
    return None


# -- standard families ----------------------------------------------------

def permutation_auto(cfg: Config, s: int, perm) -> AutO:
    """Fix the first s variables, permute the rest: x_{s+i} -> x_{s+perm[i]}."""
    t = cfg.m - s
    perm = tuple(perm)
    if not 0 <= s <= cfg.m:
        raise DimensionError(f"toral rank {s} out of range 0..{cfg.m}")
    if sorted(perm) != list(range(t)):
        raise ValidityError(f"{perm!r} is not a permutation of 0..{t - 1}")
    images = [OElem.variable(cfg, i) for i in range(1, s + 1)]
    images += [OElem.variable(cfg, s + perm[i] + 1) for i in range(t)]
    return AutO(images)


def shift_auto(cfg: Config, s: int, exps) -> AutO:
    """Multiply each free variable by a unit monomial in the toral ones:
    x_{s+i} -> x_{s+i} * prod_j (1+x_j)^{exps[i][j]}."""
    t = cfg.m - s
    exps = [list(row) for row in exps]
    if len(exps) != t or any(len(row) != s for row in exps):
        raise DimensionError(f"shift exponents must form a {t} x {s} matrix")
    images = [OElem.variable(cfg, i) for i in range(1, s + 1)]
    return AutO(images + [OElem.variable(cfg, s + i + 1) * _unit_product(cfg, images, exps[i])
                          for i in range(t)])


def basis_change_auto(cfg: Config, s: int, alpha) -> AutO:
    """Replace the toral variables: x_j -> prod_i (1+x_i)^{alpha[i][j]} - 1.

    Column j of alpha gives the exponents of the new j-th variable; the
    matrix must be invertible mod p.
    """
    alpha = np.array(alpha, dtype=np.int64) % cfg.p
    if alpha.shape != (s, s):
        raise DimensionError(f"basis change matrix must be {s} x {s}")
    if s and linalg.rank(alpha, cfg.p) != s:
        raise ValidityError("basis change matrix is singular mod p")
    toral = [OElem.variable(cfg, i) for i in range(1, s + 1)]
    images = [_unit_product(cfg, toral, alpha[:, j]) - OElem.one(cfg) for j in range(s)]
    return AutO(images + [OElem.variable(cfg, i) for i in range(s + 1, cfg.m + 1)])


def _unit_product(cfg: Config, ys, exps) -> OElem:
    """prod_i (1+y_i)^{exps[i]} over elements y_i of the maximal ideal, with
    exponents taken mod p: (1+y)^p = 1 + y^p = 1 there."""
    one = OElem.one(cfg)
    out = one
    for y, e in zip(ys, exps):
        out = out * (one + y) ** (int(e) % cfg.p)
    return out


def random_auto(cfg: Config, rng, extra_terms: int = 3) -> AutO:
    """Seeded random automorphism: invertible linear part plus sparse tail."""
    p, m, n = cfg.p, cfg.m, cfg.n
    at = alpha_table(p, m)
    radix = radix_weights(p, m)
    higher = [idx for idx in range(n) if int(at[idx].sum()) >= 2]
    while True:
        lin = np.array([[rng.randrange(p) for _ in range(m)] for _ in range(m)], dtype=np.int64)
        if linalg.rank(lin, p) == m:
            break
    images = []
    for i in range(m):
        tbl = np.zeros(n, dtype=np.int64)
        for j in range(m):
            tbl[radix[j]] = lin[i, j]
        for _ in range(rng.randrange(extra_terms + 1)):
            if higher:
                tbl[rng.choice(higher)] = rng.randrange(p)
        images.append(OElem(cfg, tbl))
    return AutO(images)


def random_graded_auto(grading: Grading, rng, tries: int = 200) -> AutO:
    """Seeded random automorphism preserving each component of a standard
    grading of the algebra: every variable image is homogeneous of the same
    degree as the variable (1+image of a toral variable stays a unit)."""
    if grading.ambient != "O" or grading.origin is None:
        raise AdmissibilityError("graded draws need a standard grading of the algebra")
    cfg = grading.cfg
    p, m, n = cfg.p, cfg.m, cfg.n
    s = grading.origin["s"]
    degrees = grading.origin["degrees"]
    at = alpha_table(p, m)
    mixed = z_basis_matrix(cfg, s)
    radix = radix_weights(p, m)
    buckets = {}
    for idx in range(n):
        g = _degree_of_exponents(grading.group, degrees, at[idx])
        buckets.setdefault(g, []).append(idx)
    for _ in range(tries):
        images = []
        for i in range(m):
            idxs = buckets[degrees[i]]
            unit_slots = [idx for idx in idxs if not at[idx, s:].any()]
            coeffs = {idx: rng.randrange(p) for idx in idxs}
            anchor = radix[i] if i < s else (unit_slots[0] if unit_slots else None)
            want = 1 if i < s else 0
            if anchor is not None:
                rest = sum(coeffs[idx] for idx in unit_slots if idx != anchor)
                coeffs[anchor] = (want - rest) % p
            tbl = np.zeros(n, dtype=np.int64)
            for idx, c in coeffs.items():
                if c:
                    tbl = (tbl + c * mixed[:, idx]) % p
            u = OElem(cfg, tbl)
            if i < s:
                u = u - OElem.one(cfg)
            images.append(u)
        try:
            return AutO(images)
        except ValidityError:
            continue
    raise ValidityError("could not draw a graded automorphism for this degree data")


# -- action on gradings ----------------------------------------------------

def push_grading(mu: AutO, grading: Grading) -> Grading:
    """Transport a grading along an automorphism, keeping the degrees.

    Algebra components map through the substitution: all rows times
    mu.matrix^T in one product.  Derivation components (ambients "W" and
    "sub") map through conjugation: all rows times the transposed
    conjugation matrix in one product.  The result is a raw grading (no
    standard origin).
    """
    cfg = grading.cfg
    if cfg != mu.cfg:
        raise ConfigMismatchError("grading built over a different configuration")
    action = mu.matrix if grading.ambient == "O" else mu.conjugation_matrix()
    return Grading(cfg, grading.group, grading.ambient,
                   linalg.matmul(grading.basis, action.T, cfg.p), grading.labels)


# -- volume form normalization ----------------------------------------------

def volume_vector_field(mu: AutO) -> WElem:
    """Derivation whose divergence is the jacobian of the map.

    Its coefficients u_1 * C_i are those of u_1 du_2 ^ ... ^ du_m over the
    top-minor basis, signed: the divergence is sum_i d_i(u_1) C_i, the
    jacobian, plus u_1 sum_i d_i(C_i), which vanishes.
    """
    u1 = mu.images[0]
    return WElem.from_coeffs([u1 * c for c in _first_row_cofactors(mu)])


def _first_row_cofactors(mu: AutO):
    """Signed cofactors C_1..C_m of the first row of the matrix of partials
    d_j(u_k) of the variable images: C_i = (-1)^(i+1) times the minor of
    rows 2..m without column i.

    The minors of rows k..m are built from the last row up, one per column
    set, each expanded along its first row; the minor of no rows is 1.
    """
    cfg, m = mu.cfg, mu.cfg.m
    minors = {(): OElem.one(cfg)}
    for k in range(m - 1, 0, -1):
        row = [mu.images[k].partial(j) for j in range(1, m + 1)]
        nxt = {}
        for cols in itertools.combinations(range(m), m - k):
            total = OElem.zero(cfg)
            for t, j in enumerate(cols):
                term = row[j] * minors[cols[:t] + cols[t + 1:]]
                total = total - term if t % 2 else total + term
            nxt[cols] = total
        minors = nxt
    out = []
    for i in range(m):
        c = minors[tuple(j for j in range(m) if j != i)]
        out.append(-c if i % 2 else c)
    return out


def normalize_omega_S(mu: AutO, grading: Grading, _trace=None) -> AutO:
    """Correct a map with homogeneous trivial-degree jacobian until the
    volume form is fixed exactly.

    grading must be a standard grading of the algebra (it fixes the toral
    rank s and the axis degrees).  Repeatedly: scale the last free variable
    by the inverse of the weight-zero jacobian part, then cancel the lowest
    free-weight part of the jacobian by the unipotent map
    x_i -> x_i - E(x_i), where E is the trivial-degree, fixed-free-weight
    part of the derivation produced by volume_vector_field.  Each round
    raises the free weight, so at most (p-1)*(m-s)+1 rounds run.  At full
    toral rank the jacobian is forced scalar and no graded correction can
    change it, so the map is returned unchanged when that scalar is 1 and
    an obstruction is reported otherwise.
    """
    cfg = mu.cfg
    if grading.cfg != cfg:
        raise ConfigMismatchError("grading built over a different configuration")
    if grading.ambient != "O" or grading.origin is None:
        raise AdmissibilityError("normalization needs a standard grading of the algebra")
    p, m = cfg.p, cfg.m
    s = grading.origin["s"]
    e = grading.group.identity()
    jac = mu.jacobian()
    if not jac.is_unit():
        raise ValidityError("jacobian of an automorphism must be a unit")
    if jac != OElem.one(cfg) and grading.degree_of(jac) != e:
        raise AdmissibilityError("jacobian is not homogeneous of trivial degree for this grading")
    if s == m:
        c = int(jac.table[0])
        if jac.table[1:].any():
            raise AdmissibilityError("full toral rank forces a scalar jacobian; got a non-scalar")
        if c != 1:
            raise ObstructionError(
                f"full toral rank: the volume factor {c} is a fixed scalar and cannot be removed")
        return mu
    at = alpha_table(p, m)
    free_weight = at[:, s:].sum(axis=1)
    w_masks = _free_weight_masks(cfg, s, free_weight)
    gw = induce_W(grading)
    limit = (p - 1) * (m - s) + 1
    cur = mu
    steps = 0
    while True:
        jac = cur.jacobian()
        if jac == OElem.one(cfg):
            return cur
        steps += 1
        if _trace is not None:
            _trace.append(steps)
        if steps > limit:
            raise CartanGradeError("normalization failed to terminate within the weight bound")
        head = jac.table.copy()
        head[free_weight > 0] = 0
        f0 = OElem(cfg, head)
        if f0 != OElem.one(cfg):
            cur = _unit_scale_correction(cfg, f0).compose(cur)
            continue
        tail = jac.table.copy()
        tail[free_weight == 0] = 0
        ell = int(free_weight[np.flatnonzero(tail)].min())
        field = volume_vector_field(cur)
        parts = gw.decompose(field)
        coeffs = parts.get(e)
        if coeffs is None:
            raise AdmissibilityError("volume field has no trivial-degree part; map is not graded")
        flat = linalg.matmul(np.array(coeffs, dtype=np.int64), gw.basis[gw.blocks()[e]], p)
        flat = flat * w_masks[ell] % p
        piece = WElem.from_flat(cfg, flat)
        slice_tbl = jac.table.copy()
        slice_tbl[free_weight != ell] = 0
        if piece.divergence() != OElem(cfg, slice_tbl):
            raise InternalError("weight slice of the volume field must account for the jacobian slice")
        images = [OElem.variable(cfg, i + 1) - piece.coeff(i + 1) for i in range(m)]
        cur = AutO(images).compose(cur)


def _free_weight_masks(cfg: Config, s: int, free_weight):
    """0/1 flat masks on derivations: free weight of x^a d_i is the free
    weight of the monomial minus one when the axis itself is free."""
    m, n = cfg.m, cfg.n
    out = {}
    top = int(free_weight.max()) if n else 0
    for ell in range(-1, top + 1):
        mask = np.zeros(m * n, dtype=np.int64)
        for i in range(m):
            drop = 1 if i >= s else 0
            mask[i * n: (i + 1) * n] = (free_weight - drop) == ell
        out[ell] = mask
    return out


def _unit_scale_correction(cfg: Config, f0: OElem) -> AutO:
    """Map fixing all variables but the last, which is scaled by 1/f0."""
    images = [OElem.variable(cfg, i) for i in range(1, cfg.m)]
    images.append(f0.inverse() * OElem.variable(cfg, cfg.m))
    return AutO(images)
