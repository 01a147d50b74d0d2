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
from .gfp import Config, alpha_table, radix_weights
from .gradings import Grading, _degree_of_exponents
from .oalg import OElem, mult_operator, partial_table, z_basis_inverse, z_basis_matrix
from .forms import KForm, differential
from .witt import WElem

# Draws random_graded_auto makes before it gives up.
GRADED_DRAW_TRIES = 200


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
        """Matrix of the algebra map on the monomial basis, built on each
        access by _substitution_matrix."""
        return _substitution_matrix(self.cfg, self._tables())

    def _tables(self):
        """(m, n) stack of the variable images' tables."""
        return np.stack([u.table for u in self.images])

    def apply(self, f: OElem) -> OElem:
        """Image of an algebra element under the substitution map."""
        if f.cfg != self.cfg:
            raise ConfigMismatchError("element built over a different configuration")
        return OElem(self.cfg, linalg.matmul(self.matrix, f.table, self.cfg.p))

    def compose(self, other: "AutO") -> "AutO":
        """Map sending f to self(other(f)), in one product with self.matrix."""
        if other.cfg != self.cfg:
            raise ConfigMismatchError("composing automorphisms over different configurations")
        cols = other._tables().T
        return AutO(OElem(self.cfg, col) for col in linalg.matmul(self.matrix, cols, self.cfg.p).T)

    def compose_inverse(self, other: "AutO") -> "AutO":
        """Map sending f to self(other^-1(f)), by _composite_inverse_tables:
        no elimination beyond the m x m linear part of other."""
        if other.cfg != self.cfg:
            raise ConfigMismatchError("composing automorphisms over different configurations")
        tables = _composite_inverse_tables(self.cfg, self._tables(), other._tables())
        return AutO(OElem(self.cfg, t) for t in tables)

    def inverse(self) -> "AutO":
        """Inverse automorphism: the identity's compose_inverse(self)."""
        return AutO.identity(self.cfg).compose_inverse(self)

    def conjugation_matrix(self):
        """(m*n, m*n) matrix of D -> mu o D o mu^-1 on flat derivation coordinates.

        With v_j = mu^-1(x_j), coefficient j of the conjugate of
        D = sum_i f_i d_i is mu(D(v_j)) = sum_i mu(d_i(v_j) * f_i), so block
        (j, i) is mu.matrix @ mult_operator(d_i v_j): one stacked
        mult_operator for the m^2 partials and one product of mu.matrix with
        their operators side by side.  The v_j are the images of inverse().
        """
        cfg = self.cfg
        p, m, n = cfg.p, cfg.m, cfg.n
        v = self.inverse()._tables()
        mat = self.matrix
        dv = np.stack([partial_table(cfg, v, i + 1) for i in range(m)], axis=1)
        ops = mult_operator(cfg, dv.reshape(m * m, n)).transpose(1, 0, 2).reshape(n, m * m * n)
        out = linalg.matmul(mat, ops, p)
        return out.reshape(n, m, m * n).transpose(1, 0, 2).reshape(m * n, m * n)

    def jacobian(self) -> OElem:
        """Determinant of the matrix of partials of the variable images: its
        Laplace expansion along the first row, sum_i d_i(u_1) * C_i over the
        cofactors of _first_row_cofactors."""
        cfg = self.cfg
        partials = _partials(self)
        total = OElem.zero(cfg)
        for d, c in zip(partials[0], _first_row_cofactors(cfg, partials)):
            total = total + OElem(cfg, d) * c
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


def _substitution_matrix(cfg: Config, tables):
    """n x n matrix of the substitution x_i -> u_i, from the (m, n) tables
    of the u_i, which need not define an automorphism.

    Column x^alpha holds the table of u^alpha = u_1^alpha_1 ... u_m^alpha_m.
    The flat index of alpha is its mixed-radix value with x_m the fastest
    digit, so the columns of the monomials in x_{i+1}..x_m alone are the
    first p^(m-i) columns.  Starting from the column of 1, each variable
    from x_m to x_1 turns that leading block W into [W, U_i W, ..., U_i^(p-1) W],
    with U_i the operator of multiplication by u_i, cast to float64 once:
    m(p-1) products in all, each written into its block of one array.
    """
    p, m, n = cfg.p, cfg.m, cfg.n
    mat = np.zeros((n, n), dtype=np.int64)
    mat[0, 0] = 1
    width = 1
    for i in range(m - 1, -1, -1):
        op = mult_operator(cfg, tables[i]).astype(np.float64)
        for k in range(1, p):
            mat[:, k * width:(k + 1) * width] = linalg.matmul(
                op, mat[:, (k - 1) * width:k * width], p)
        width *= p
    return mat


def _composite_inverse_tables(cfg: Config, a, u):
    """(m, n) image tables of S_a o S_u^-1, where S_v is the substitution
    x_i -> v_i, u defines an automorphism and a any images in the maximal
    ideal; the only elimination inverts the m x m linear part of u.

    Let L be that linear part (u_i = sum_j L_ij x_j + higher terms) and
    u' = L^-1 u, so S_u = S_u' o S_Lx: both send x_i to
    sum_j L_ij u'_j = u_i.  The linear part of u' is the identity, so
    u'^alpha = x^alpha + terms of total degree above |alpha|, and the
    matrix of S_u' is I + N with N strictly raising the total degree.  The
    degree of a monomial is at most m(p-1), so N^k vanishes on the
    variables (degree 1) for k >= m(p-1), and their preimages are
    y = (I + N)^-1 e = sum_{k < m(p-1)} (-N)^k e, summed until a term is
    zero (every later term is then zero too).  Finally
    S_a o S_u^-1 = S_a o S_{L^-1 x} o S_u'^-1 = S_{L^-1 a} o S_u'^-1, since
    S_a o S_{L^-1 x} sends x_i to sum_k (L^-1)_ik a_k; so the images are the
    columns of matrix(L^-1 a) @ y.
    """
    p, m, n = cfg.p, cfg.m, cfg.n
    radix = radix_weights(p, m)
    linv = linalg.inverse(u[:, radix], p)
    sub = _substitution_matrix(cfg, linalg.matmul(linv, u, p)).astype(np.float64)
    term = np.zeros((n, m), dtype=np.int64)
    term[radix, np.arange(m)] = 1
    y = term.copy()
    for _ in range(1, m * (p - 1)):
        term = term - linalg.matmul(sub, term, p)
        term %= p
        if not term.any():
            break
        y += term
    del sub             # before the second matrix is built
    y %= p
    return linalg.matmul(_substitution_matrix(cfg, linalg.matmul(linv, a, p)), y, p).T


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


def random_graded_auto(grading: Grading, rng) -> AutO:
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
    for _ in range(GRADED_DRAW_TRIES):
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
    standard origin).  Both actions are invertible, so the image of a basis
    is a basis and the result skips the constructor's elimination
    (Grading._deferred).
    """
    cfg = grading.cfg
    if cfg != mu.cfg:
        raise ConfigMismatchError("grading built over a different configuration")
    action = mu.matrix if grading.ambient == "O" else mu.conjugation_matrix()
    return Grading._deferred(cfg, grading.group, grading.ambient,
                             linalg.matmul(grading.basis, action.T, cfg.p), grading.labels)


# -- volume form normalization ----------------------------------------------

def volume_vector_field(mu: AutO) -> WElem:
    """Derivation whose divergence is the jacobian of the map.

    Its coefficients u_1 * C_i are those of u_1 du_2 ^ ... ^ du_m over the
    top-minor basis, signed: the divergence is sum_i d_i(u_1) C_i, the
    jacobian, plus u_1 sum_i d_i(C_i), which vanishes.
    """
    u1 = mu.images[0]
    return WElem.from_coeffs([u1 * c for c in _first_row_cofactors(mu.cfg, _partials(mu))])


def _partials(mu: AutO):
    """(m, m, n) tables of the matrix of partials: [k, j] is d_{j+1}(u_{k+1})
    for the variable images u, from m stacked partial_table calls."""
    tables = mu._tables()
    return np.stack([partial_table(mu.cfg, tables, j + 1) for j in range(mu.cfg.m)], axis=1)


def _first_row_cofactors(cfg: Config, partials):
    """Signed cofactors C_1..C_m of the first row of the matrix of partials
    (_partials): C_i = (-1)^(i+1) times the minor of rows 2..m without
    column i.

    The minors of rows k..m are built from the last row up, one per column
    set, each expanded along its first row; the minor of no rows is 1, so
    the minors of the last row are its entries, taken without a product.
    """
    m = cfg.m
    minors = {(): OElem.one(cfg)}
    for k in range(m - 1, 0, -1):
        row = [OElem(cfg, d) for d in partials[k]]
        nxt = {}
        for cols in itertools.combinations(range(m), m - k):
            total = OElem.zero(cfg)
            for t, j in enumerate(cols):
                term = row[j] if k == m - 1 else row[j] * minors[cols[:t] + cols[t + 1:]]
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

    Degrees are read in the coordinates of the grading's basis B, through
    its inverse in closed form (_standard_inverse).  The derivation
    z^alpha d_i, for a basis row z^alpha, has degree deg(z^alpha) * a_i^-1,
    so the trivial-degree part of D = sum_i f_i d_i keeps, in the
    coordinates f_i B^-1 of coefficient i, the rows labelled a_i,
    multiplied back by B.  The same coordinates of the jacobian give its
    degree.
    """
    cfg = mu.cfg
    if grading.cfg != cfg:
        raise ConfigMismatchError("grading built over a different configuration")
    if grading.ambient != "O" or grading.origin is None:
        raise AdmissibilityError("normalization needs a standard grading of the algebra")
    p, m = cfg.p, cfg.m
    s = grading.origin["s"]
    e = grading.group.identity()
    blocks = grading.blocks()
    coords_of = _standard_inverse(grading)
    jac = mu.jacobian()
    if not jac.is_unit():
        raise ValidityError("jacobian of an automorphism must be a unit")
    if jac != OElem.one(cfg):
        ident = blocks.get(e, slice(0, 0))
        coords = linalg.matmul(jac.table, coords_of, p)
        if coords[:ident.start].any() or coords[ident.stop:].any():
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
    # The free weight of x^a d_i, on the m coefficient tables: that of x^a,
    # minus one when axis i is free.
    d_weight = free_weight - (np.arange(m) >= s)[:, None]
    # keep[i, k]: whether row k of the basis, times d_i, has the trivial degree.
    keep = np.zeros((m, cfg.n), dtype=np.int64)
    for i, a in enumerate(grading.origin["degrees"]):
        keep[i, blocks.get(a, slice(0, 0))] = 1
    limit = (p - 1) * (m - s) + 1
    cur = mu
    steps = 0
    while jac != OElem.one(cfg):
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
            jac = cur.jacobian()
            continue
        tail = jac.table.copy()
        tail[free_weight == 0] = 0
        ell = int(free_weight[np.flatnonzero(tail)].min())
        field = volume_vector_field(cur)
        coords = linalg.matmul(field.tables, coords_of, p) * keep
        if not coords.any():
            raise AdmissibilityError("volume field has no trivial-degree part; map is not graded")
        piece = WElem.from_flat(cfg, (linalg.matmul(coords, grading.basis, p)
                                      * (d_weight == ell) % p).reshape(-1))
        slice_tbl = jac.table.copy()
        slice_tbl[free_weight != ell] = 0
        if piece.divergence() != OElem(cfg, slice_tbl):
            raise InternalError("weight slice of the volume field must account for the jacobian slice")
        images = [OElem.variable(cfg, i + 1) - piece.coeff(i + 1) for i in range(m)]
        cur = AutO(images).compose(cur)
        jac = cur.jacobian()
    return cur


def _standard_inverse(grading: Grading):
    """Inverse of the basis matrix B of a standard grading of the algebra,
    without elimination.

    grade_O_construct's rows are those of z_basis_matrix(cfg, s).T sorted
    by degree, so B = P z^T for a row permutation P, and B^-1 = (z^T)^-1 P^T
    holds the columns of oalg.z_basis_inverse (cached per (p, m, s)) in the
    row order of B.  Row k of B is the mixed monomial (1+x)^c x^d whose
    flat index is that of the row's last nonzero entry: its table has
    coefficient 1 at x^(c, d) and is nonzero only at exponents below (c, d)
    in each coordinate, which have smaller flat indices."""
    cfg = grading.cfg
    basis = grading.basis
    last = cfg.n - 1 - np.argmax(basis[:, ::-1] != 0, axis=1)
    return z_basis_inverse(cfg.p, cfg.m, grading.origin["s"])[:, last]


def _unit_scale_correction(cfg: Config, f0: OElem) -> AutO:
    """Map fixing all variables but the last, which is scaled by 1/f0."""
    images = [OElem.variable(cfg, i) for i in range(1, cfg.m)]
    images.append(f0.inverse() * OElem.variable(cfg, cfg.m))
    return AutO(images)
