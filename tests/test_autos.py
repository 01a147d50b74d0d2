"""Algebra automorphisms: substitution action, witnesses, normalization."""

import functools
import random

import numpy as np
import pytest

from cartangrade import linalg
from cartangrade.abgroup import AbGroup, PSubgroup
from cartangrade.autos import (AutO, _standard_inverse, basis_change_auto, normalize_omega_S,
                               permutation_auto, push_grading, random_auto,
                               random_graded_auto, shift_auto, volume_factor,
                               volume_vector_field)
from cartangrade.errors import CartanGradeError, ObstructionError, ValidityError
from cartangrade.forms import KForm, omega_volume
from cartangrade.gfp import Config, radix_weights
from cartangrade.gradings import (Grading, grade_O_construct, grade_S_construct,
                                  induce_W, verify_grading)
from cartangrade.oalg import OElem, z_basis_matrix
from cartangrade.witt import WElem

from algebra_helpers import (jacobian_by_permutations, normalize_omega_S_by_decompose,
                             preimages_by_solve, push_derivation, scale_auto,
                             substitution_matrix_by_degree, volume_field_by_wedges)


def random_elem(cfg, rng):
    return OElem(cfg, np.array([rng.randrange(cfg.p) for _ in range(cfg.n)],
                               dtype=np.int64))


def random_derivation(cfg, rng):
    t = np.array([[rng.randrange(cfg.p) for _ in range(cfg.n)]
                  for _ in range(cfg.m)], dtype=np.int64)
    return WElem(cfg, t)


def test_construction_validates_images():
    cfg = Config(5, 2)
    x1, x2 = OElem.variable(cfg, 1), OElem.variable(cfg, 2)
    with pytest.raises(ValidityError):
        AutO([x1 + OElem.one(cfg), x2])  # nonzero constant term
    with pytest.raises(ValidityError):
        AutO([x1, 2 * x1])  # dependent linear parts
    AutO([x1 + x2, x2 + x1 * x2])  # fine


def test_substitution_is_an_algebra_map():
    cfg = Config(5, 2)
    rng = random.Random(7)
    for _ in range(10):
        mu = random_auto(cfg, rng)
        f, g = random_elem(cfg, rng), random_elem(cfg, rng)
        assert mu.apply(f * g) == mu.apply(f) * mu.apply(g)
        assert mu.apply(f + g) == mu.apply(f) + mu.apply(g)
        assert mu.apply(OElem.one(cfg)) == OElem.one(cfg)


def test_compose_inverse_and_identity():
    cfg = Config(5, 2)
    rng = random.Random(11)
    ident = AutO.identity(cfg)
    for _ in range(8):
        mu, nu = random_auto(cfg, rng), random_auto(cfg, rng)
        f = random_elem(cfg, rng)
        assert mu.compose(nu).apply(f) == mu.apply(nu.apply(f))
        assert mu.compose(mu.inverse()) == ident
        assert mu.inverse().compose(mu) == ident


@pytest.mark.parametrize("p, m", [(5, 2), (7, 2), (5, 3)])
def test_inverse_and_conjugation_solve_for_the_variable_columns_only(p, m, monkeypatch):
    """Only the m variable columns of the inverse are found, by a series in
    the degree-raising part, and no elimination is larger than the m x 2m
    inverse of the linear part; the inverse's images are the columns of the
    whole inverse at the variables."""
    cfg = Config(p, m)
    rng = random.Random(p * m)
    rref = linalg.rref
    shapes = []

    def recorded(mat, q):
        shapes.append(np.shape(mat))
        return rref(mat, q)

    for _ in range(3):
        mu = random_auto(cfg, rng)
        full = linalg.inverse(mu.matrix, p)
        monkeypatch.setattr(linalg, "rref", recorded)
        inv = mu.inverse()
        mu.conjugation_matrix()
        monkeypatch.setattr(linalg, "rref", rref)
        assert shapes and all(rows <= m and cols <= 2 * m for rows, cols in shapes)
        assert (m, 2 * m) in shapes
        shapes.clear()
        assert np.array_equal(np.stack([u.table for u in inv.images], axis=1),
                              full[:, radix_weights(p, m)])


def oracle_draws(p, m):
    """Random and graded-random maps at (p, m), a purely linear map and a
    map whose linear part is the identity."""
    cfg = Config(p, m)
    rng = random.Random(1000 * p + m)
    group = AbGroup(0, (p,) * m)
    e = [group.element(tuple(int(i == j) for j in range(m))) for i in range(m)]
    graded = grade_O_construct(cfg, group, e[:1], e[1:])
    mus = [random_auto(cfg, rng) for _ in range(3)]
    mus += [random_graded_auto(graded, rng) for _ in range(2)]
    lin = random_auto(cfg, rng, extra_terms=0)
    assert all(np.count_nonzero(u.table) == np.count_nonzero(u.linear_part())
               for u in lin.images)
    mus.append(lin)
    x = [OElem.variable(cfg, i + 1) for i in range(m)]
    tail = [x[(i + 1) % m] * x[(i + 1) % m] + x[i] * x[(i + m - 1) % m] for i in range(m)]
    mus.append(AutO([x[i] + tail[i] for i in range(m)]))
    return cfg, mus


@pytest.mark.parametrize("p, m", [(5, 2), (7, 2), (11, 2), (5, 3), (7, 3)])
def test_substitution_and_inverse_match_the_degree_and_solve_oracles(p, m):
    cfg, mus = oracle_draws(p, m)
    ident = AutO.identity(cfg)
    rng = random.Random(p + m)
    for mu in mus:
        assert mu.matrix.tobytes() == substitution_matrix_by_degree(mu).tobytes()
        inv = mu.inverse()
        want = preimages_by_solve(mu)
        assert np.stack([u.table for u in inv.images]).tobytes() == want.tobytes()
        assert mu.compose(inv) == ident
        assert inv.compose(mu) == ident
        a = random_auto(cfg, rng)
        assert a.compose_inverse(mu) == a.compose(inv)


def test_a_map_holds_only_its_images():
    cfg = Config(5, 2)
    rng = random.Random(19)
    mu, nu = random_auto(cfg, rng), random_auto(cfg, rng)
    g = AbGroup(0, (5, 5))
    o = grade_O_construct(cfg, g, [], [g.element((1, 0)), g.element((0, 1))])
    mu.matrix
    mu.inverse()
    mu.compose(nu)
    nu.compose(mu)
    mu.conjugation_matrix()
    push_grading(mu, o)
    push_grading(mu, induce_W(o))
    assert AutO.__slots__ == ("cfg", "images")
    assert not hasattr(mu, "__dict__")
    assert mu.inverse().inverse() == mu


def test_push_derivation_is_conjugation():
    cfg = Config(5, 2)
    rng = random.Random(13)
    for _ in range(8):
        mu = random_auto(cfg, rng)
        d = random_derivation(cfg, rng)
        f = random_elem(cfg, rng)
        pushed = push_derivation(mu, d)
        assert pushed.apply(f) == mu.apply(d.apply(mu.inverse().apply(f)))
    # conjugation respects brackets
    mu = random_auto(cfg, rng)
    d, e = random_derivation(cfg, rng), random_derivation(cfg, rng)
    assert push_derivation(mu, d.bracket(e)) == \
        push_derivation(mu, d).bracket(push_derivation(mu, e))


def push_derivation_by_apply(mu, d):
    """The per-row route: coefficient j of mu o d o mu^-1 is mu(d(mu^-1(x_j)))."""
    return _conjugate_by_apply(mu.matrix, mu.inverse().images, d)


def _conjugate_by_apply(matrix, inverse_images, d):
    """push_derivation_by_apply with mu.matrix and mu^-1(x_j) taken once by
    the caller: an AutO builds its matrix on each access."""
    p = d.cfg.p
    return WElem.from_coeffs([OElem(d.cfg, linalg.matmul(matrix, d.apply(v).table, p))
                              for v in inverse_images])


def push_grading_by_rows(mu, grading):
    """Derivation-grading push, one derivation at a time."""
    cfg = grading.cfg
    matrix, inverse_images = mu.matrix, mu.inverse().images
    rows = [_conjugate_by_apply(matrix, inverse_images, WElem.from_flat(cfg, row)).flat()
            for row in grading.basis]
    return Grading(cfg, grading.group, grading.ambient, rows, grading.labels)


@functools.lru_cache(maxsize=None)
def derivation_gradings(m):
    """A standard W grading, a pushed one and a standard S subalgebra grading."""
    cfg = Config(5, m)
    g = AbGroup(0, (5,) * m)
    e = [g.element(tuple(int(i == j) for j in range(m))) for i in range(m)]
    w = induce_W(grade_O_construct(cfg, g, e[:1], e[1:]))
    total = e[0]
    for a in e[1:]:
        total = total * a
    sub = grade_S_construct(cfg, g, PSubgroup(g, tuple(e[:1])), e[1:], total)
    return w, push_grading(random_auto(cfg, random.Random(m)), w), sub


@pytest.mark.parametrize("m", [2, 3])
def test_push_derivation_matches_the_per_row_route(m):
    cfg = Config(5, m)
    rng = random.Random(40 + m)
    for _ in range(4):
        mu = random_auto(cfg, rng)
        d = random_derivation(cfg, rng)
        assert push_derivation(mu, d) == push_derivation_by_apply(mu, d)


@pytest.mark.parametrize("m", [2, 3])
def test_conjugation_push_matches_the_per_row_route(m):
    cfg = Config(5, m)
    rng = random.Random(50 + m)
    for grading in derivation_gradings(m):
        for _ in range(2 if m == 2 else 1):
            mu = random_auto(cfg, rng)
            got = push_grading(mu, grading)
            want = push_grading_by_rows(mu, grading)
            assert got.basis.tobytes() == want.basis.tobytes()
            assert got.labels == want.labels


def test_jacobian_is_multiplicative():
    cfg = Config(5, 2)
    rng = random.Random(17)
    for _ in range(6):
        mu, nu = random_auto(cfg, rng), random_auto(cfg, rng)
        lhs = mu.compose(nu).jacobian()
        rhs = mu.jacobian() * mu.apply(nu.jacobian())
        assert lhs == rhs


def dense_auto(cfg, rng):
    """A random automorphism whose images have random coefficients at every
    monomial of degree 2 and up, over random_auto's linear part."""
    base = random_auto(cfg, rng, extra_terms=0)
    tail = np.array([[rng.randrange(cfg.p) for _ in range(cfg.n)] for _ in range(cfg.m)],
                    dtype=np.int64)
    tail[:, 0] = 0
    tail[:, radix_weights(cfg.p, cfg.m)] = 0
    return AutO(OElem(cfg, u.table + t) for u, t in zip(base.images, tail))


@pytest.mark.parametrize("p, m", [(5, 1), (5, 2), (7, 2), (5, 3), (7, 3), (5, 4)])
def test_cofactor_expansion_matches_the_permutation_and_wedge_oracles(p, m, monkeypatch):
    """AutO.jacobian and volume_vector_field share one cofactor expansion;
    the permutation sum and the wedge of differentials are independent
    routes to them, on sparse, dense and composed random automorphisms.
    The field's divergence is the jacobian, and building it touches no
    differential form."""
    cfg = Config(p, m)
    rng = random.Random(100 * p + m)
    mus = [random_auto(cfg, rng) for _ in range(8)] + [dense_auto(cfg, rng) for _ in range(2)]
    mus.append(mus[0].compose(mus[-1]))
    wedged = [volume_field_by_wedges(mu) for mu in mus]

    def refuse(*args, **kwargs):
        raise AssertionError("volume_vector_field built a differential form")

    monkeypatch.setattr(KForm, "__init__", refuse)
    for mu, want in zip(mus, wedged):
        jac = mu.jacobian()
        assert jac == jacobian_by_permutations(mu)
        field = volume_vector_field(mu)
        assert field == want
        assert field.divergence() == jac


def test_volume_factor_of_standard_witnesses():
    cfg = Config(5, 3)
    assert volume_factor(permutation_auto(cfg, 0, (1, 0, 2))) == 5 - 1
    assert volume_factor(permutation_auto(cfg, 0, (1, 2, 0))) == 1
    assert volume_factor(scale_auto(cfg, 2, 3)) == 3
    assert volume_factor(AutO.identity(cfg)) == 1
    # shifts multiply free variables by units; the factor stays a unit but
    # the jacobian need not be scalar
    mu = shift_auto(cfg, 1, [[2], [0]])
    jac = mu.jacobian()
    assert jac.is_unit()


def test_act_on_form_tracks_the_jacobian_on_the_volume_form():
    cfg = Config(5, 2)
    rng = random.Random(19)
    omega = omega_volume(cfg)
    for _ in range(6):
        mu = random_auto(cfg, rng)
        got = mu.act_on_form(omega)
        want = mu.jacobian()
        assert got.coeff((1, 2)) == want


def test_push_grading_is_a_left_action():
    cfg = Config(5, 2)
    g = AbGroup(0, (5, 5))
    b, c = g.element((1, 0)), g.element((0, 1))
    grading = grade_O_construct(cfg, g, [b], [c])
    rng = random.Random(23)
    for _ in range(5):
        mu, nu = random_auto(cfg, rng), random_auto(cfg, rng)
        once = push_grading(mu, push_grading(nu, grading))
        joint = push_grading(mu.compose(nu), grading)
        assert once.same_components(joint)
    pushed = push_grading(random_auto(cfg, rng), grading)
    assert verify_grading(pushed).ok


def test_standard_witnesses_transport_standard_degree_data():
    cfg = Config(5, 2)
    g = AbGroup(0, (5, 5))
    b, c = g.element((1, 0)), g.element((0, 1))
    grading = grade_O_construct(cfg, g, [b], [c])
    # a shift multiplies the free degree by toral degrees
    mu = shift_auto(cfg, 1, [[3]])
    want = grade_O_construct(cfg, g, [b], [c * b.inverse() ** 3])
    assert push_grading(mu, grading).same_components(want)
    # a toral basis change re-reads the toral degrees over the new basis
    nu = basis_change_auto(cfg, 1, [[2]])
    want = grade_O_construct(cfg, g, [b ** 3], [c])
    assert push_grading(nu, grading).same_components(want)


def test_random_graded_autos_fix_the_grading():
    cfg = Config(5, 2)
    g = AbGroup(0, (5, 5))
    b, c = g.element((1, 0)), g.element((0, 1))
    grading = grade_O_construct(cfg, g, [b], [c])
    rng = random.Random(29)
    for _ in range(10):
        mu = random_graded_auto(grading, rng)
        assert push_grading(mu, grading).same_components(grading)


def test_normalization_fixes_the_volume_form_exactly():
    cfg = Config(5, 2)
    g = AbGroup(0, (5,))
    b = g.element((1,))
    # colliding degrees force genuine multi-round corrections
    grading = grade_O_construct(cfg, g, [b], [b])
    omega = omega_volume(cfg)
    rng = random.Random(31)
    multi_round = 0
    for _ in range(25):
        mu = random_graded_auto(grading, rng)
        trace = []
        nu = normalize_omega_S(mu, grading, _trace=trace)
        assert nu.act_on_form(omega) == omega
        assert len(trace) <= 5
        assert push_grading(nu, grading).same_components(grading)
        if len(trace) >= 2:
            multi_round += 1
    assert multi_round > 0


def normalization_gradings(p, m):
    """Standard gradings below full toral rank over Z_p^m: every rank s < m
    with seeded free degrees, and the colliding degrees of
    test_normalization_fixes_the_volume_form_exactly (every axis of one
    degree b, the first one toral), which leave the graded maps room for
    multi-round corrections."""
    cfg = Config(p, m)
    group = AbGroup(0, (p,) * m)
    e = [group.element(tuple(int(i == j) for j in range(m))) for i in range(m)]
    rng = random.Random(p * m)
    out = []
    for s in range(m):
        gamma = [e[k] * e[rng.randrange(m)] ** rng.randrange(p) for k in range(s, m)]
        out.append(grade_O_construct(cfg, group, e[:s], gamma))
    g = AbGroup(0, (p,))
    b = g.element((1,))
    out.append(grade_O_construct(cfg, g, [b], [b] * (m - 1)))
    return out


def _normalized(route, mu, grading):
    """(map, rounds) of a normalization route, or the class of its refusal."""
    trace = []
    try:
        return route(mu, grading, trace), trace
    except CartanGradeError as exc:
        return type(exc)


@pytest.mark.parametrize("p, m, draws", [(5, 2, 8), (7, 2, 6), (5, 3, 3)])
def test_normalization_in_standard_coordinates_matches_the_decompose_route(p, m, draws):
    rng = random.Random(7 * p + m)
    multi_round = 0
    for grading in normalization_gradings(p, m):
        for _ in range(draws):
            mu = random_graded_auto(grading, rng)
            got = _normalized(lambda f, g, t: normalize_omega_S(f, g, _trace=t), mu, grading)
            assert got == _normalized(normalize_omega_S_by_decompose, mu, grading)
            multi_round += len(got[1]) >= 2
    assert multi_round > 0


def inverse_cases(p, m):
    """Standard gradings at every toral rank s = 0..m over a torsion group
    (Z_p^m), a free one (Z^m, s = 0 only) and a mixed one (Z x Z_p^m), with
    seeded free degrees, so the label orders, and with them the row orders
    of the bases, differ."""
    rng = random.Random(p * m)
    out = []
    for free in (0, 1):
        group = AbGroup(free, (p,) * m)
        toral = [group.element((0,) * free + tuple(int(i == j) for j in range(m)))
                 for i in range(m)]
        for s in range(m + 1):
            gamma = [group.element(tuple(rng.randrange(-2, 3) for _ in range(free))
                                   + tuple(rng.randrange(p) for _ in range(m)))
                     for _ in range(m - s)]
            out.append(grade_O_construct(Config(p, m), group, toral[:s], gamma))
    group = AbGroup(m, ())
    out.append(grade_O_construct(Config(p, m), group, [], [
        group.element(tuple(rng.randrange(-2, 3) for _ in range(m))) for _ in range(m)]))
    return out


@pytest.mark.parametrize("p, m", [(5, 2), (7, 2), (5, 3)])
def test_closed_form_standard_inverse_matches_elimination(p, m):
    """normalize_omega_S's closed-form inverse of a standard basis (per-axis
    signed binomials in a Kronecker product, columns in label order) equals
    the inverse by elimination."""
    cases = inverse_cases(p, m)
    natural = 0
    for grading in cases:
        s = grading.origin["s"]
        want = linalg.inverse(grading.basis, p)
        assert np.array_equal(_standard_inverse(grading), want)
        natural += np.array_equal(grading.basis, z_basis_matrix(Config(p, m), s).T)
    assert natural < len(cases) - 1
    assert {g.origin["s"] for g in cases} == set(range(m + 1))


@pytest.mark.parametrize("p, m", [(5, 2), (5, 3)])
def test_normalization_eliminates_nothing_larger_than_the_linear_part(p, m, monkeypatch):
    """With the standard basis inverted in closed form, a normalization runs
    no RREF larger than the m x 2m inverse of a linear part."""
    rng = random.Random(p + m)
    rref = linalg.rref
    shapes = []

    def recorded(mat, q):
        shapes.append(np.shape(mat))
        return rref(mat, q)

    for grading in normalization_gradings(p, m):
        mu = random_graded_auto(grading, rng)
        monkeypatch.setattr(linalg, "rref", recorded)
        normalize_omega_S(mu, grading)
        monkeypatch.setattr(linalg, "rref", rref)
        assert all(rows <= m and cols <= 2 * m for rows, cols in shapes)
        shapes.clear()


def test_normalization_obstruction_at_full_toral_rank():
    cfg = Config(5, 2)
    g = AbGroup(0, (5, 5))
    b, c = g.element((1, 0)), g.element((0, 1))
    grading = grade_O_construct(cfg, g, [b, c], [])
    mu = scale_auto(cfg, 1, 2)  # scalar jacobian 2, cannot be corrected
    with pytest.raises(ObstructionError):
        normalize_omega_S(mu, grading)
    ident = AutO.identity(cfg)
    assert normalize_omega_S(ident, grading) == ident