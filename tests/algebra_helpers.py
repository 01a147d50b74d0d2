"""Element operations that only the tests use.

Substitution of the variables, the filtration degree, the maximal-ideal
test, divided powers and their binomial, the conjugation of one derivation
by an automorphism, the scaling automorphism, the jacobian by permutations
and the volume field by wedges of differentials, the stabilizer test of a
derivation on a form, the derived series on a list of derivations, the
algebra bases and Hamiltonian fields as element objects, one-pair
Hamiltonian closed forms and a grading given by element objects.  The
package computes none of them on its own paths; the tests use them as
independent routes to what it does compute, or as shorthands for it.
"""

import itertools
import math

import numpy as np

from cartangrade import linalg, witt
from cartangrade.autos import AutO
from cartangrade.errors import (AxisRangeError, ConfigMismatchError, DimensionError,
                                ValidityError)
from cartangrade.forms import (KForm, _merge_sign, algebra_rows, derived_rows, differential,
                               lie_derivative)
from cartangrade.gfp import Config, weight_table
from cartangrade.gradings import Grading
from cartangrade.oalg import OElem, z_monomial
from cartangrade.witt import WElem, d_h_rows


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
