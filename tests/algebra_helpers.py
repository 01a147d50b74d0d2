"""Element operations that only the tests use.

Substitution of the variables, the filtration degree, the maximal-ideal
test, the divided-power binomial, the conjugation of one derivation by
an automorphism, the stabilizer test of a derivation on a form, the
derived series on a list of derivations and a grading given by element
objects.  The package computes none of them on its own paths; the tests
use them as independent routes to what it does compute.
"""

import math

import numpy as np

from cartangrade import linalg
from cartangrade.errors import (AxisRangeError, ConfigMismatchError, DimensionError,
                                ValidityError, ZeroElementError)
from cartangrade.forms import KForm, derived_rows, lie_derivative
from cartangrade.gfp import weight_table
from cartangrade.gradings import Grading
from cartangrade.oalg import OElem
from cartangrade.witt import WElem


def in_max_ideal(f: OElem) -> bool:
    return f.constant_term == 0


def weight_degree(f: OElem) -> int:
    """Minimal total degree among nonzero monomials (filtration level)."""
    nz = np.flatnonzero(f.table)
    if nz.size == 0:
        raise ZeroElementError("weight degree of 0 is undefined")
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


def push_derivation(mu, d: WElem) -> WElem:
    """Conjugated derivation mu o d o mu^-1: one product with the
    conjugation matrix."""
    if d.cfg != mu.cfg:
        raise ConfigMismatchError("derivation built over a different configuration")
    flat = linalg.matmul(mu.conjugation_matrix(), d.flat(), mu.cfg.p)
    return WElem.from_flat(mu.cfg, flat)


def stabilizer_test(d: WElem, omega: KForm, projective: bool):
    """Whether D(omega) = 0 (strict) or D(omega) = c*omega (projective).
    Returns (flag, c or None); c = 0 when the action is strictly zero."""
    res = lie_derivative(d, omega)
    if res.is_zero():
        return True, 0
    if not projective:
        return False, None
    nz = np.argwhere(omega.tables)
    if nz.size == 0:
        return False, None
    r, c = nz[0]
    scale = int(res.tables[r, c]) * pow(int(omega.tables[r, c]), -1, d.cfg.p) % d.cfg.p
    if np.array_equal(res.tables, omega.tables * scale % d.cfg.p):
        return True, scale
    return False, None


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
