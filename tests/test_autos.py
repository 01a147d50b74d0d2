"""Algebra automorphisms: substitution action, witnesses, normalization."""

import functools
import random

import numpy as np
import pytest

from cartangrade import linalg
from cartangrade.abgroup import AbGroup, PSubgroup
from cartangrade.autos import (AutO, basis_change_auto, normalize_omega_S,
                               permutation_auto, push_grading, random_auto,
                               random_graded_auto, shift_auto, volume_factor,
                               volume_vector_field)
from cartangrade.errors import ObstructionError, ValidityError
from cartangrade.forms import KForm, omega_volume
from cartangrade.gfp import Config, radix_weights
from cartangrade.gradings import (Grading, grade_O_construct, grade_S_construct,
                                  induce_W, verify_grading)
from cartangrade.oalg import OElem
from cartangrade.witt import WElem

from algebra_helpers import (jacobian_by_permutations, push_derivation, scale_auto,
                             volume_field_by_wedges)


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
    """Each eliminates [matrix | m unit columns] once; the inverse's images
    are the columns of the whole inverse at the variables."""
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
        # besides the two solves, only AutO's m x m independence check
        assert sorted(set(shapes)) == [(m, m), (cfg.n, cfg.n + m)]
        assert shapes.count((cfg.n, cfg.n + m)) == 2
        shapes.clear()
        assert np.array_equal(np.stack([u.table for u in inv.images], axis=1),
                              full[:, radix_weights(p, m)])


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


@pytest.mark.parametrize("p, m", [(5, 1), (5, 2), (7, 2), (5, 3), (7, 3), (5, 4)])
def test_cofactor_expansion_matches_the_permutation_and_wedge_oracles(p, m, monkeypatch):
    """AutO.jacobian and volume_vector_field share one cofactor expansion;
    the permutation sum and the wedge of differentials are independent
    routes to them.  The field's divergence is the jacobian, and building
    it touches no differential form."""
    cfg = Config(p, m)
    rng = random.Random(100 * p + m)
    mus = [random_auto(cfg, rng) for _ in range(8)]
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