"""Element operations that only the tests use.

Substitution of the variables, the total degree of each monomial, the
filtration degree, the maximal-ideal test, divided powers and their
binomial, the conjugation of one derivation by an automorphism, the
scaling automorphism, the jacobian by permutations
and the volume field by wedges of differentials, the stabilizer test of a
derivation on a form, the derived series on a list of derivations, the
algebra bases and Hamiltonian fields as element objects, one-pair
Hamiltonian closed forms and a grading given by element objects.  The
package computes none of them on its own paths; the tests use them as
independent routes to what it does compute, or as shorthands for it.

Five of them are routes the package replaced and keep its output
pinned: the volume normalization through the induced derivation grading
and a decomposition per step, the standard bridge as a composite of the
three standard maps, rref through its numpy loop at every size, the
substitution matrix filled one total degree at a time, and the preimages
of the variables by one elimination of [matrix | unit columns].
"""

import itertools
import math
from unittest import mock

import numpy as np

from cartangrade import linalg, witt
from cartangrade.abgroup import PSubgroup, coset_eq
from cartangrade.autos import (AutO, _unit_scale_correction, basis_change_auto,
                               permutation_auto, shift_auto, volume_vector_field)
from cartangrade.errors import (AdmissibilityError, AxisRangeError, CartanGradeError,
                                ConfigMismatchError, DimensionError, InternalError,
                                NoSuchBasisError, ObstructionError, ValidityError)
from cartangrade.forms import (KForm, _merge_sign, algebra_rows, derived_rows, differential,
                               lie_derivative)
from cartangrade.gfp import Config, alpha_table, radix_weights
from cartangrade.gradings import Grading, induce_W
from cartangrade.oalg import OElem, mult_operator, z_monomial
from cartangrade.witt import WElem, d_h_rows


def weight_table(p: int, m: int):
    """|alpha| per flat index."""
    return alpha_table(p, m).sum(axis=1)


def in_max_ideal(f: OElem) -> bool:
    return f.constant_term == 0


def weight_degree(f: OElem) -> int:
    """Minimal total degree among nonzero monomials (filtration level)."""
    nz = np.flatnonzero(f.table)
    if nz.size == 0:
        raise ValueError("weight degree of 0 is undefined")
    return int(weight_table(f.cfg.p, f.cfg.m)[nz].min())


def substitute(f: OElem, images) -> OElem:
    """Evaluate f at x_i -> images[i-1].  Images must have zero constant
    term so p-th powers of images vanish and the map is an algebra map."""
    cfg = f.cfg
    if len(images) != cfg.m:
        raise DimensionError(f"need {cfg.m} images, got {len(images)}")
    for u in images:
        if u.cfg != cfg:
            raise ConfigMismatchError("image built over a different configuration")
        if u.constant_term != 0:
            raise ValidityError("substitution image has nonzero constant term")
    return _subst(cfg, f.table, images, 0)


def _subst(cfg, table, images, axis: int) -> OElem:
    """Horner evaluation, one axis at a time; table has length p**(m-axis)."""
    if not table.any():
        return OElem.zero(cfg)
    if axis == cfg.m:
        return OElem.constant(cfg, int(table[0]))
    shaped = table.reshape(cfg.p, -1)
    acc = _subst(cfg, shaped[cfg.p - 1], images, axis + 1)
    u = images[axis]
    for k in range(cfg.p - 2, -1, -1):
        acc = acc * u + _subst(cfg, shaped[k], images, axis + 1)
    return acc


def binom_mod_p(alpha, beta, p: int) -> int:
    """Product of per-coordinate binomials C(a_i+b_i, a_i) mod p; 0 on truncation.

    The explicit cutoff at a_i+b_i >= p agrees with the mod-p value of the
    integer binomial (Lucas), so divided-power products can use it directly.
    """
    if len(alpha) != len(beta):
        raise DimensionError(f"multi-index lengths differ: {len(alpha)} vs {len(beta)}")
    out = 1
    for a, b in zip(alpha, beta):
        if a < 0 or b < 0:
            raise AxisRangeError("multi-index entries must be nonnegative")
        if a + b >= p:
            return 0
        out = out * math.comb(a + b, a) % p
    return out


def dp_monomial(cfg: Config, alpha) -> OElem:
    """Divided power x^(alpha) = x^alpha / prod(alpha_i!)."""
    c = 1
    for a in alpha:
        if not 0 <= a < cfg.p:
            raise AxisRangeError(f"divided-power exponent {a} out of range 0..{cfg.p - 1}")
        c = c * pow(math.factorial(a) % cfg.p, -1, cfg.p) % cfg.p
    return OElem.monomial(cfg, alpha, c)


def push_derivation(mu, d: WElem) -> WElem:
    """Conjugated derivation mu o d o mu^-1: one product with the
    conjugation matrix."""
    if d.cfg != mu.cfg:
        raise ConfigMismatchError("derivation built over a different configuration")
    flat = linalg.matmul(mu.conjugation_matrix(), d.flat(), mu.cfg.p)
    return WElem.from_flat(mu.cfg, flat)


def stabilizer_test(d: WElem, omega: KForm) -> bool:
    """Whether D(omega) = 0."""
    return lie_derivative(d, omega).is_zero()


def scale_auto(cfg: Config, i: int, c: int) -> AutO:
    """Scale one variable by a unit: x_i -> c * x_i."""
    cfg.check_axis(i)
    if c % cfg.p == 0:
        raise ValidityError("scaling factor must be a unit")
    images = [OElem.variable(cfg, j) for j in range(1, cfg.m + 1)]
    images[i - 1] = (c % cfg.p) * images[i - 1]
    return AutO(images)


def jacobian_by_permutations(mu: AutO) -> OElem:
    """det(d_j u_i) of the variable images u_i, summed over permutations."""
    cfg = mu.cfg
    rows = [[u.partial(j) for j in range(1, cfg.m + 1)] for u in mu.images]
    total = OElem.zero(cfg)
    for perm in itertools.permutations(range(cfg.m)):
        term = OElem.one(cfg)
        for i in range(cfg.m):
            term = term * rows[i][perm[i]]
        total = total + (term if _merge_sign(perm) == 1 else -term)
    return total


def volume_field_by_wedges(mu: AutO) -> WElem:
    """Derivation whose divergence is the jacobian of mu: expand
    u_1 * du_2 ^ ... ^ du_m over the top-minor basis; the signed
    coefficients are the component functions."""
    cfg = mu.cfg
    m = cfg.m
    wedge = None
    for u in mu.images[1:]:
        du = differential(u)
        wedge = du if wedge is None else wedge.wedge(du)
    if wedge is None:
        xi = KForm(cfg, 0, mu.images[0].table.reshape(1, -1))
    else:
        xi = mu.images[0] * wedge
    full = tuple(range(1, m + 1))
    coeffs = []
    for i in range(1, m + 1):
        h = xi.coeff(tuple(a for a in full if a != i))
        coeffs.append(h if i % 2 == 1 else -h)
    return WElem.from_coeffs(coeffs)


def derived_subalgebra(basis, iterations: int = 1):
    """Derived series step(s) on a list of derivations."""
    if not basis:
        return []
    cfg = basis[0].cfg
    rows = np.stack([d.flat() for d in basis])
    out = derived_rows(cfg, rows, iterations)
    return [WElem.from_flat(cfg, row) for row in out]


def grading_from_components(cfg, group, ambient: str, components) -> Grading:
    """The grading given as a dict degree -> OElem or WElem objects, rows in
    the order listed.  Elements over another config fail the constructor's
    shape check."""
    pairs = [(g, v.table if ambient == "O" else v.flat())
             for g, vecs in components.items() for v in vecs]
    return Grading(cfg, group, ambient, [row for _, row in pairs], [g for g, _ in pairs])


def algebra_basis(cfg: Config, kind: str):
    """The rows of forms.algebra_rows as derivations."""
    return [WElem.from_flat(cfg, row) for row in algebra_rows(cfg, kind)]


def d_h(cfg: Config, f: OElem) -> WElem:
    """Hamiltonian field of f: sum sigma(i) d_i(f) d/dx_{i'}, even m only."""
    if f.cfg != cfg:
        raise ConfigMismatchError("argument built over a different configuration")
    return WElem.from_flat(cfg, d_h_rows(cfg, f.table[None])[0])


def d_h_z(cfg: Config, alpha) -> WElem:
    """d_h of the z-monomial with exponents alpha (taken mod p)."""
    return d_h(cfg, z_monomial(cfg, alpha))


# The one-pair closed forms look the stacked ones up on the witt module, so a
# test that replaces a stacked form there replaces these as well.

def closed_form_h_bracket(cfg: Config, alpha, beta) -> WElem:
    """[d_h(z^alpha), d_h(z^beta)] for one pair: see witt.closed_form_h_bracket_rows."""
    return WElem.from_flat(cfg, witt.closed_form_h_bracket_rows(cfg, [alpha], [beta])[0])


def closed_form_h_partial(cfg: Config, ell: int, beta) -> WElem:
    """[d/dx_ell, d_h(z^beta)] for one beta: see witt.closed_form_h_partial_rows."""
    return WElem.from_flat(cfg, witt.closed_form_h_partial_rows(cfg, ell, [beta])[0])


# -- replaced routes --------------------------------------------------------

def normalize_omega_S_by_decompose(mu: AutO, grading: Grading, trace=None) -> AutO:
    """autos.normalize_omega_S reading degrees off the induced derivation
    grading: the jacobian's degree by Grading.degree_of, and the
    trivial-degree part of each volume field by one decompose over
    induce_W(grading) per step."""
    cfg = mu.cfg
    if grading.cfg != cfg:
        raise ConfigMismatchError("grading built over a different configuration")
    if grading.ambient != "O" or grading.origin is None:
        raise AdmissibilityError("normalization needs a standard grading of the algebra")
    p, m = cfg.p, cfg.m
    s = grading.origin["s"]
    e = grading.group.identity()
    one = OElem.one(cfg)
    jac = mu.jacobian()
    if not jac.is_unit():
        raise ValidityError("jacobian of an automorphism must be a unit")
    if jac != one and grading.degree_of(jac) != e:
        raise AdmissibilityError("jacobian is not homogeneous of trivial degree for this grading")
    if s == m:
        if jac.table[1:].any():
            raise AdmissibilityError("full toral rank forces a scalar jacobian; got a non-scalar")
        if int(jac.table[0]) != 1:
            raise ObstructionError("full toral rank: the volume factor is a fixed scalar")
        return mu
    free_weight = alpha_table(p, m)[:, s:].sum(axis=1)
    # free weight of x^a d_i, flat over the m coefficient tables
    d_weight = (free_weight - (np.arange(m) >= s)[:, None]).reshape(-1)
    gw = induce_W(grading)
    cur = mu
    for steps in itertools.count(1):
        jac = cur.jacobian()
        if jac == one:
            return cur
        if trace is not None:
            trace.append(steps)
        if steps > (p - 1) * (m - s) + 1:
            raise CartanGradeError("normalization failed to terminate within the weight bound")
        head = jac.table.copy()
        head[free_weight > 0] = 0
        if OElem(cfg, head) != one:
            cur = _unit_scale_correction(cfg, OElem(cfg, head)).compose(cur)
            continue
        tail = jac.table.copy()
        tail[free_weight == 0] = 0
        ell = int(free_weight[np.flatnonzero(tail)].min())
        coeffs = gw.decompose(volume_vector_field(cur)).get(e)
        if coeffs is None:
            raise AdmissibilityError("volume field has no trivial-degree part; map is not graded")
        flat = linalg.matmul(np.array(coeffs, dtype=np.int64), gw.basis[gw.blocks()[e]], p)
        piece = WElem.from_flat(cfg, flat * (d_weight == ell) % p)
        cur = AutO([OElem.variable(cfg, i + 1) - piece.coeff(i + 1) for i in range(m)]).compose(cur)


def standard_bridge_by_composition(cfg, basis1, gamma1, basis2, gamma2, psub) -> AutO:
    """The standard bridge nu of classify._standard_bridge as the composite
    shift o basis change o permutation of the three standard maps."""
    s, t = len(basis1), len(gamma1)
    sub2 = PSubgroup(psub.group, tuple(basis2))
    used = [False] * t
    rho = []
    for k in range(t):
        j = next((j for j in range(t) if not used[j] and coset_eq(gamma2[k], gamma1[j], psub)),
                 None)
        if j is None:
            raise NoSuchBasisError("free degrees do not match modulo the subgroup")
        used[j] = True
        rho.append(j)
    perm = [0] * t
    for k in range(t):
        perm[rho[k]] = k
    step = permutation_auto(cfg, s, perm)
    if s:
        alpha = [[0] * s for _ in range(s)]
        for j in range(s):
            for i, x in enumerate(sub2.exponents_of(basis1[j])):
                alpha[i][j] = int(x)
        step = basis_change_auto(cfg, s, alpha).compose(step)
    rows = []
    for k in range(t):
        exps = sub2.exponents_of(gamma1[rho[k]] * gamma2[k].inverse())
        if exps is None:
            raise InternalError("matched cosets differ by a subgroup element")
        rows.append([int(x) for x in exps])
    return shift_auto(cfg, s, rows).compose(step)


def rref_by_numpy_loop(mat, p: int):
    """linalg.rref with its small-matrix pass switched off, so every size
    takes the numpy loop."""
    with mock.patch.object(linalg, "_SMALL_WORK", -1):
        return linalg.rref(mat, p)


def substitution_matrix_by_degree(mu: AutO):
    """mu.matrix filled one total degree at a time: the column of x^alpha
    is the image of its first variable x_j times the column of
    alpha - e_j, one product per (degree, first variable)."""
    cfg = mu.cfg
    p, m, n = cfg.p, cfg.m, cfg.n
    first = np.argmax(alpha_table(p, m) > 0, axis=1)
    prev = np.arange(n) - radix_weights(p, m)[first]
    degree = weight_table(p, m)
    ops = mult_operator(cfg, np.stack([u.table for u in mu.images]))
    mat = np.zeros((n, n), dtype=np.int64)
    mat[0, 0] = 1
    for d in range(1, int(degree.max()) + 1):
        for j, op in enumerate(ops):
            cols = np.flatnonzero((degree == d) & (first == j))
            if cols.size:
                mat[:, cols] = linalg.matmul(op, mat[:, prev[cols]], p)
    return mat


def preimages_by_solve(mu: AutO):
    """(m, n) tables of mu^-1(x_1..x_m): the columns of the inverse of
    mu.matrix at the variables, from one elimination of
    [matrix | m unit columns]."""
    cfg = mu.cfg
    rhs = np.zeros((cfg.n, cfg.m), dtype=np.int64)
    rhs[radix_weights(cfg.p, cfg.m), np.arange(cfg.m)] = 1
    return linalg.solve(substitution_matrix_by_degree(mu), rhs, cfg.p).T
