"""Recognition, isomorphism decisions, and fine-grading enumeration."""

import functools
import random

import numpy as np
import pytest

from cartangrade import classify, cli, linalg, serialize
from cartangrade.abgroup import (AbGroup, PSubgroup, coset_rep, p_independent,
                                 subgroup_key)
from cartangrade.autos import (AutO, push_grading, random_auto,
                               random_graded_auto, volume_factor)
from cartangrade.classify import (OPEN_IN_PAPER, GradingInvariants,
                                  canonical_key, enumerate_fine, invariants_of,
                                  iso_decide, o_grading_from_w, orbit_probe,
                                  recognize_O, recognize_S)
from cartangrade.errors import AdmissibilityError, ObstructionError
from cartangrade.gfp import Config, radix_weights
from cartangrade.gradings import (Grading, fine_grading, grade_O_construct,
                                  grade_S_construct, induce_W)
from cartangrade.oalg import OElem, mult_operator
from algebra_helpers import grading_from_components, scale_auto
from test_acceptance import GROUP_MATRIX, random_degree, torsion_candidates
from volume_oracle import admissible_degree


CFG = Config(5, 2)
G2 = AbGroup(0, (5, 5))
A = G2.element((1, 0))
B = G2.element((0, 1))
G1 = AbGroup(0, (5,))
C = G1.element((1,))


def standard_cases():
    """Construction data covering mixed ranks and degenerate free degrees."""
    return [
        (G2, [A], [B]),
        (G2, [A, B], []),
        (G2, [], [A, B]),
        (G2, [A], [A ** 3]),
        (G2, [A], [G2.identity()]),
        (G1, [C], [C ** 2]),
        (G1, [], [C, C ** 3]),
        (G2, [], [G2.identity(), A]),
    ]


def test_recognition_round_trip():
    for G, basis, gamma in standard_cases():
        g = grade_O_construct(CFG, G, basis, gamma)
        frame, inv = recognize_O(g)
        assert inv.s == len(basis)
        assert subgroup_key(G, inv.P.basis) == subgroup_key(G, tuple(basis))
        psub = PSubgroup(G, tuple(basis))
        want = tuple(sorted(coset_rep(x, psub).coords for x in gamma))
        assert tuple(r.coords for r in inv.gamma_cosets) == want
        one = OElem.one(CFG)
        for y in frame[inv.s:]:
            assert g.degree_of(y) is not None
        for y in frame[:inv.s]:
            assert g.degree_of(one + y) is not None


def test_invariants_stable_under_pushing():
    rng = random.Random(11)
    for G, basis, gamma in standard_cases():
        g = grade_O_construct(CFG, G, basis, gamma)
        _, inv = recognize_O(g)
        for _ in range(8):
            moved = push_grading(random_auto(CFG, rng), g)
            _, inv2 = recognize_O(moved)
            assert canonical_key(inv2) == canonical_key(inv)
            assert inv2 == inv


def dependent_unit_presentation():
    """The standard grading with toral degree C and free degree C^2, its
    C^2 component presented with the unit z1^2 + x2 first."""
    g = grade_O_construct(CFG, G1, [C], [C ** 2])
    x2 = OElem.variable(CFG, 2)
    comps = {d: list(vs) for d, vs in g.components.items()}
    old = comps[C ** 2]
    unit = next(v for v in old if v.constant_term)
    comps[C ** 2] = [unit + x2] + [v for v in old if not v.constant_term]
    return g, grading_from_components(CFG, G1, "O", comps)


def test_reduction_loop_on_dependent_unit_degrees():
    # The unit z1^2 + x2 of degree C^2 depends on the toral degree C, but
    # recognition never reaches it: the C component already holds z1^4 x2,
    # whose linear part x2 completes the cotangent space first.  On a
    # grading no unit of a dependent degree other than e is picked (see
    # classify._recognize_frame).
    g, g2 = dependent_unit_presentation()
    _, inv = recognize_O(g)
    _, inv2 = recognize_O(g2)
    assert inv2.s == 1
    assert canonical_key(inv2) == canonical_key(inv)


def moved_unit_grading():
    """A grading whose recognition moves a unit slot to the free part: with
    x2 of degree e, presenting 1 + x2 first in the identity component makes
    a unit of degree e, which goes to the free part as x2."""
    x2 = OElem.variable(CFG, 2)
    one = OElem.one(CFG)
    g = grade_O_construct(CFG, G2, [A], [G2.identity()])
    comps = {d: list(vs) for d, vs in g.components.items()}
    comps[G2.identity()] = [one + x2, one] + [v for v in comps[G2.identity()]
                                              if v != one and v != x2]
    return grading_from_components(CFG, G2, "O", comps)


def recognize_frame_by_reduction(grading):
    """Recognition with a unit-slot reduction loop, the oracle for
    classify._recognize_frame: a picked unit whose degree a depends on the
    toral degrees kept before it, a = prod b_i^l_i, moves to the free part
    as (1 + y) - prod (1 + y_i)^l_i."""
    cfg = grading.cfg
    one = OElem.one(cfg)
    radix = radix_weights(cfg.p, cfg.m)
    ech = linalg.EchelonSpace(cfg.m, cfg.p)
    units, free = [], []
    for row, g in zip(grading.basis, grading.labels):
        if ech.dim < cfg.m and ech.add_batch(row[radix][None]) == 1:
            if row[0]:
                units.append((cfg.inv(int(row[0])) * OElem(cfg, row) - one, g))
            else:
                free.append((OElem(cfg, row), g))
    toral = []
    for y, a in units:
        degs = tuple(g for _, g in toral)
        if p_independent(degs + (a,)):
            toral.append((y, a))
            continue
        prod = one
        for (yi, _), l in zip(toral, PSubgroup(grading.group, degs).exponents_of(a)):
            prod = prod * (one + yi) ** l
        free.append(((one + y) - prod, a))
    pairs = toral + free
    psub = PSubgroup(grading.group, tuple(g for _, g in toral))
    return ([y for y, _ in pairs], [g for _, g in pairs],
            GradingInvariants(psub, [g for _, g in free]))


@pytest.mark.parametrize("m", [2, 3])
def test_recognition_matches_the_reduction_loop_oracle(m):
    rng = random.Random(90 + m)
    cfg = Config(5, m)
    cases = []
    for g in strata_gradings(m, rng):
        cases += [g, push_grading(random_auto(cfg, rng), g)]
    if m == 2:
        cases += [moved_unit_grading(), dependent_unit_presentation()[1]]
    for g in cases:
        frame, degrees, inv = classify._recognize_frame(g)
        want_frame, want_degrees, want_inv = recognize_frame_by_reduction(g)
        assert frame == want_frame
        assert degrees == want_degrees
        assert canonical_key(inv) == canonical_key(want_inv)


def dependent_units_non_grading():
    """Not a grading of O(2;1) at p = 5 over Z_5: 1 and every x^alpha with
    |alpha| >= 2 at e, 1 + x1 at C, 1 + x2 at C^2.  (1 + x1)^2 misses the
    C^2 component; a reduction loop would move 1 + x2 to the free part."""
    one = OElem.one(CFG)
    x1, x2 = OElem.variable(CFG, 1), OElem.variable(CFG, 2)
    high = [OElem(CFG, row) for row in np.eye(CFG.n, dtype=np.int64)
            if sum(CFG.alpha(int(np.flatnonzero(row)[0]))) >= 2]
    comps = {G1.identity(): [one] + high, C: [one + x1], C ** 2: [one + x2]}
    return grading_from_components(CFG, G1, "O", comps)


def test_recognition_refuses_units_of_dependent_degrees(tmp_path, capsys):
    g = dependent_units_non_grading()
    assert recognize_frame_by_reduction(g)[2].s == 1
    with pytest.raises(AdmissibilityError, match="dependent degrees"):
        recognize_O(g)
    path = tmp_path / "g.json"
    path.write_text(serialize.dumps(serialize.grading_to_data(g)))
    assert cli.main(["grade", "classify", "--grading", str(path), "--flavor", "O"]) == 3
    assert "unit rows of dependent degrees" in capsys.readouterr().err


def frame_degrees_by_solving(grading, frame, s):
    """The degree of 1 + y for the first s frame elements and of y for the
    rest, each by one decomposition over the basis."""
    one = OElem.one(grading.cfg)
    return [grading.degree_of(one + y if k < s else y) for k, y in enumerate(frame)]


@pytest.mark.parametrize("m", [2, 3])
def test_frame_degrees_are_the_solved_degrees(m):
    rng = random.Random(80 + m)
    cfg = Config(5, m)
    cases = []
    for g in strata_gradings(m, rng):
        cases += [g, push_grading(random_auto(cfg, rng), g)]
    if m == 2:
        cases.append(moved_unit_grading())
    for g in cases:
        frame, degrees, inv = classify._recognize_frame(g)
        assert degrees == frame_degrees_by_solving(g, frame, inv.s)
        assert degrees[:inv.s] == list(inv.P.basis)


def test_trivial_grading_recognized():
    comps = {G1.identity(): [OElem(CFG, row)
                             for row in np.eye(CFG.n, dtype=np.int64)]}
    g = grading_from_components(CFG, G1, "O", comps)
    _, inv = recognize_O(g)
    assert inv.s == 0
    assert all(r.is_identity for r in inv.gamma_cosets)


def test_derivation_grading_reconstruction():
    for G, basis, gamma in standard_cases():
        g = grade_O_construct(CFG, G, basis, gamma)
        assert o_grading_from_w(induce_W(g)).same_components(g)


def test_reconstruction_after_pushing():
    mu = random_auto(CFG, random.Random(5))
    g = push_grading(mu, grade_O_construct(CFG, G2, [A], [B]))
    w = induce_W(g)
    assert o_grading_from_w(w).same_components(g)
    # inducing commutes with pushing
    w2 = push_grading(mu, induce_W(grade_O_construct(CFG, G2, [A], [B])))
    assert w.same_components(w2)


def o_grading_from_w_per_degree(w_grading):
    """o_grading_from_w with one elimination of [stack | -W_g^T] per degree."""
    if w_grading.ambient != "W":
        raise AdmissibilityError("reconstruction expects a grading of the derivations")
    cfg = w_grading.cfg
    p, m, n = cfg.p, cfg.m, cfg.n
    anchor = g_star = None
    for row, g in zip(w_grading.basis, w_grading.labels):
        if row[::n].any():
            anchor, g_star = row, g
            break
    if anchor is None:
        raise AdmissibilityError(
            "no homogeneous derivation has a unit coefficient; grading is not induced")
    stack = np.vstack([mult_operator(cfg, anchor[i * n:(i + 1) * n]) for i in range(m)])
    rows, labels = [], []
    for g, sl in w_grading.blocks().items():
        aug = np.hstack([stack, (-w_grading.basis[sl].T) % p])
        null = linalg.nullspace(aug, p)
        rows.append(null[:, :n])
        labels += [g * g_star.inverse()] * null.shape[0]
    if len(labels) != n:
        raise AdmissibilityError("derivation grading is not induced by an algebra grading")
    out = Grading(cfg, w_grading.group, "O", np.vstack(rows), labels)
    if not induce_W(out).same_components(w_grading):
        raise AdmissibilityError("derivation grading is not induced by an algebra grading")
    return out


def strata_gradings(m, rng):
    """One standard algebra grading per group of GROUP_MATRIX and toral rank."""
    cfg = Config(5, m)
    out = []
    for group in GROUP_MATRIX:
        pool = []
        for g in torsion_candidates(group):
            if len(pool) < m and p_independent(tuple(pool) + (g,)):
                pool.append(g)
        for s in range(len(pool) + 1):
            gamma = [random_degree(group, rng) for _ in range(m - s)]
            out.append(grade_O_construct(cfg, group, pool[:s], gamma))
    return out


def reconstruction(w_grading, route):
    """(basis bytes, labels) of the reconstructed grading, or the refusal."""
    try:
        out = route(w_grading)
    except AdmissibilityError as exc:
        return str(exc)
    return out.basis.tobytes(), out.labels


@pytest.mark.parametrize("m", [2, 3])
def test_reconstruction_matches_the_per_degree_oracle(m):
    rng = random.Random(60 + m)
    cfg = Config(5, m)
    cases = strata_gradings(m, rng)
    if m == 3:
        cases = cases[::4]
    for g in cases:
        w = induce_W(g)
        for case in (w, push_grading(random_auto(cfg, rng), w)):
            want = reconstruction(case, o_grading_from_w_per_degree)
            assert not isinstance(want, str)
            assert reconstruction(case, o_grading_from_w) == want


def test_reconstruction_refuses_like_the_oracle_on_swapped_labels():
    rng = random.Random(71)
    refused = 0
    for g in strata_gradings(2, rng):
        w = push_grading(random_auto(CFG, rng), induce_W(g))
        support = w.support()
        if len(support) < 2:
            continue
        a, b = rng.sample(support, 2)
        swap = {a: b, b: a}
        swapped = Grading(CFG, w.group, "W", w.basis, [swap.get(x, x) for x in w.labels])
        want = reconstruction(swapped, o_grading_from_w_per_degree)
        assert reconstruction(swapped, o_grading_from_w) == want
        refused += isinstance(want, str)
    assert refused >= 5


def test_iso_positive_algebra_flavor():
    rng = random.Random(23)
    pairs = [
        ((G2, [A], [B]), (G2, [A], [A * B])),
        ((G2, [A], [B]), (G2, [A ** 2], [B])),
        ((G2, [], [A, B]), (G2, [], [B, A])),
        ((G2, [A, B], []), (G2, [A * B, B ** 2], [])),
        ((G1, [C], [G1.identity()]), (G1, [C], [C ** 3])),
    ]
    for (Gx, b1, g1), (Gy, b2, g2) in pairs:
        x = push_grading(random_auto(CFG, rng), grade_O_construct(CFG, Gx, b1, g1))
        y = push_grading(random_auto(CFG, rng), grade_O_construct(CFG, Gy, b2, g2))
        wit = iso_decide(x, y, "O")
        assert isinstance(wit, AutO)
        assert push_grading(wit, x).same_components(y)


def test_iso_negative_algebra_flavor():
    negatives = [
        ((G2, [A], [B]), (G2, [B], [A])),
        ((G2, [A], [B]), (G2, [], [A, B])),
        ((G2, [], [A, B]), (G2, [], [A, A])),
    ]
    for (Gx, b1, g1), (Gy, b2, g2) in negatives:
        x = grade_O_construct(CFG, Gx, b1, g1)
        y = grade_O_construct(CFG, Gy, b2, g2)
        assert iso_decide(x, y, "O") is None


def test_iso_derivation_flavor():
    x = grade_O_construct(CFG, G2, [A], [B])
    wx = induce_W(x)
    wy = push_grading(random_auto(CFG, random.Random(7)), wx)
    wit = iso_decide(wx, wy, "W")
    assert isinstance(wit, AutO)
    assert push_grading(wit, wx).same_components(wy)
    y = grade_O_construct(CFG, G2, [B], [A])
    assert iso_decide(wx, induce_W(y), "W") is None


def unipotent_2d(cfg, k):
    """Jacobian-one substitution x1 -> x1 + k*x2^2 on two variables."""
    x1 = OElem.variable(cfg, 1)
    x2 = OElem.variable(cfg, 2)
    return AutO([x1 + k * (x2 * x2), x2])


def test_iso_volume_flavor_below_full_rank():
    x = grade_O_construct(CFG, G2, [A], [B])
    assert admissible_degree(x, "S") == A * B
    # same subgroup, same free coset, same volume degree: A^4 * (B*A^2) = A*B
    y = grade_O_construct(CFG, G2, [A ** 4], [B * A ** 2])
    x1 = push_grading(unipotent_2d(CFG, 1), x)
    x2 = push_grading(scale_auto(CFG, 1, 2).compose(unipotent_2d(CFG, 3)), y)
    wit = iso_decide(x1, x2, "S")
    assert isinstance(wit, AutO)
    assert push_grading(wit, x1).same_components(x2)
    assert wit.jacobian() == OElem.one(CFG)


def test_iso_volume_flavor_separates_volume_degree():
    x = grade_O_construct(CFG, G2, [A], [B])
    y = grade_O_construct(CFG, G2, [A], [A * B])
    assert recognize_S(y).g0 == A ** 2 * B
    k1 = canonical_key(recognize_O(x)[1])
    k2 = canonical_key(recognize_O(y)[1])
    assert k1 == k2
    assert iso_decide(x, y, "S") is None
    assert isinstance(iso_decide(x, y, "O"), AutO)
    # brute-force agreement: no short volume-preserving word does it either
    assert orbit_probe(x, y, "S", depth=2) is None
    assert orbit_probe(x, y, "O", depth=2) is not None


def test_iso_volume_flavor_full_rank():
    x = grade_O_construct(CFG, G2, [A, B], [])
    # another basis of the full subgroup with the same degree product:
    # (A^2 B^3)(A^4 B^3) = A B
    y = grade_O_construct(CFG, G2, [A ** 2 * B ** 3, A ** 4 * B ** 3], [])
    assert recognize_S(x).g0 == A * B
    assert recognize_S(y).g0 == A * B
    wit = iso_decide(x, y, "S")
    assert isinstance(wit, AutO)
    assert volume_factor(wit) is not None
    assert push_grading(wit, x).same_components(y)
    # same subgroup, different volume degree
    z = grade_O_construct(CFG, G2, [A ** 2, B], [])
    assert recognize_S(z).g0 == A ** 2 * B
    assert iso_decide(x, z, "S") is None
    assert isinstance(iso_decide(x, z, "O"), AutO)


def test_volume_recognition_corners():
    # with no toral slots the volume degree is forced
    x = grade_O_construct(CFG, G2, [], [A, B])
    inv = recognize_S(x)
    assert inv.s == 0
    assert inv.g0 == A * B
    # a push with non-homogeneous jacobian leaves the volume flavor
    x1 = OElem.variable(CFG, 1)
    x2 = OElem.variable(CFG, 2)
    moved = push_grading(AutO([x1 + x1 * x2, x2]),
                         grade_O_construct(CFG, G2, [A], [B]))
    with pytest.raises(AdmissibilityError):
        recognize_S(moved)
    # identity volume degree is impossible at full toral rank
    with pytest.raises(ObstructionError):
        GradingInvariants(PSubgroup(G2, (A, B)), [], G2.identity())
    # but fine with free slots present
    inv = GradingInvariants(PSubgroup(G1, (C,)), [C], G1.identity())
    assert inv.g0.is_identity


def _volume_cases(p, m):
    """Standard data at (p, m) over Z_p^m, Z x Z_p, Z_{p^2} and Z^2."""
    zp = AbGroup(0, (p,) * m)
    e = [zp.element(tuple(int(i == j) for j in range(m))) for i in range(m)]
    mixed = AbGroup(1, (p,))
    t, f = mixed.element((0, 1)), mixed.element((1, 0))
    cyc = AbGroup(0, (p * p,))
    u, c = cyc.element((p,)), cyc.element((1,))
    free = AbGroup(2)
    a, b = free.element((1, 0)), free.element((0, 1))
    return [(zp, e, []), (zp, e[:1], e[1:]), (zp, [], [e[0] ** 2] + e[1:]),
            (zp, e[1:], [e[0] * e[1]]),
            (mixed, [t], [f] + [f * t] * (m - 2)), (mixed, [], [f, t ** 2] + [f] * (m - 2)),
            (cyc, [u], [c] + [c ** 3] * (m - 2)), (cyc, [], [c, c ** 2] + [u] * (m - 2)),
            (free, [], [a, b] + [a * b] * (m - 2))]


@functools.lru_cache(maxsize=None)
def volume_corpus():
    """Standard gradings at (5,2), (5,3) and (7,2), each with four pushes: a
    graded one (same components, another basis), a linear one, and two
    random ones, which mostly break volume admissibility."""
    out = []
    for p, m in ((5, 2), (5, 3), (7, 2)):
        cfg = Config(p, m)
        rng = random.Random(1000 * p + m)
        for group, basis, gamma in _volume_cases(p, m):
            std = grade_O_construct(cfg, group, basis, gamma)
            out += [std, push_grading(random_graded_auto(std, rng), std),
                    push_grading(random_auto(cfg, rng, extra_terms=0), std)]
            out += [push_grading(random_auto(cfg, rng), std) for _ in range(2)]
    return tuple(out)


def volume_degree(grading):
    """recognize_S's volume degree, None where it refuses admissibility."""
    try:
        return recognize_S(grading).g0
    except AdmissibilityError:
        return None


def test_volume_degree_matches_the_column_solve_oracle():
    corpus = volume_corpus()
    assert len(corpus) >= 100
    found = [volume_degree(g) for g in corpus]
    assert found == [admissible_degree(g, "S") for g in corpus]
    assert {g.cfg.m for g in corpus} == {2, 3}
    refused = sum(g0 is None for g0 in found)
    assert 0 < refused < len(corpus)


def test_symplectic_degree_at_two_variables_is_the_volume_degree():
    for grading in volume_corpus():
        if grading.cfg.m == 2:
            assert admissible_degree(grading, "H") == volume_degree(grading)


def test_volume_recognition_recognizes_once(monkeypatch):
    calls = []
    recognize = classify._recognize_frame

    def counted(grading):
        calls.append(grading)
        return recognize(grading)

    monkeypatch.setattr(classify, "_recognize_frame", counted)
    for grading in volume_corpus()[::7]:
        calls.clear()
        volume_degree(grading)
        assert calls == [grading]


def test_iso_on_attached_subalgebra_gradings():
    sg = grade_S_construct(CFG, G2, PSubgroup(G2, (A,)), [B], A * B)
    assert sg.ambient == "sub"
    assert recognize_S(sg.origin["o_grading"]).g0 == A * B
    # same subgroup, same free coset, same volume degree, other presentation
    sg2 = grade_S_construct(CFG, G2, PSubgroup(G2, (A,)), [B * A ** 3], A * B)
    wit = iso_decide(sg, sg2, "S")
    assert isinstance(wit, AutO)
    assert push_grading(wit, sg).same_components(sg2)
    # a shifted free coset is a different class
    sg3 = grade_S_construct(CFG, G2, PSubgroup(G2, (A,)), [B ** 2], A * B ** 2)
    assert iso_decide(sg, sg3, "S") is None
    # stripped origin: nothing to decide on
    bare = Grading(CFG, G2, "sub", sg.basis, sg.labels)
    with pytest.raises(AdmissibilityError):
        iso_decide(bare, bare, "S")


def test_iso_on_identical_fine_volume_gradings():
    for s in range(CFG.m + 1):
        fine = fine_grading(CFG, s, "S")
        assert fine.origin["o_grading"].same_components(fine_grading(CFG, s, "O"))
        wit = iso_decide(fine, fine, "S")
        assert isinstance(wit, AutO)
        assert push_grading(wit, fine).same_components(fine)


def _decision_pairs():
    """(flavor, g1, g2) positive pairs of every ambient a flavor decides on."""
    x = grade_O_construct(CFG, G2, [A], [B])
    wx = induce_W(x)
    sx = grade_S_construct(CFG, G2, PSubgroup(G2, (A,)), [B], A * B)
    sy = grade_S_construct(CFG, G2, PSubgroup(G2, (A,)), [B * A ** 3], A * B)
    rng = random.Random(31)
    return [
        ("O", x, push_grading(random_auto(CFG, rng), x)),
        ("W", wx, push_grading(random_auto(CFG, rng), wx)),
        ("S", x, push_grading(unipotent_2d(CFG, 2), x)),
        ("S", sx, sy),
        ("H", sx, sy),
    ]


@pytest.mark.parametrize("k", range(5))
def test_a_positive_decision_checks_its_witness_once_on_the_given_gradings(k, monkeypatch):
    flavor, g1, g2 = _decision_pairs()[k]
    calls = []
    check = classify._check_witness

    def counted(psi, h1, h2):
        calls.append((h1, h2))
        check(psi, h1, h2)

    decide = classify.iso_decide
    depth = []

    def nested(*args):
        depth.append(args)
        return decide(*args)

    monkeypatch.setattr(classify, "_check_witness", counted)
    monkeypatch.setattr(classify, "iso_decide", nested)
    wit = classify.iso_decide(g1, g2, flavor)
    assert isinstance(wit, AutO)
    assert len(depth) == 1
    assert len(calls) == 1 and calls[0][0] is g1 and calls[0][1] is g2


def test_full_rank_volume_witness_is_the_frame_composite():
    """At full toral rank the volume witness is AutO(f2) o nu o AutO(f1)^-1,
    the map the normalized composite mu2^-1 o mu1 reduces to there, with
    mu1 = nu o AutO(f1)^-1 and mu2 = AutO(f2)^-1."""
    rng = random.Random(5)
    x = grade_O_construct(CFG, G2, [A, B], [])
    y = grade_O_construct(CFG, G2, [A ** 2 * B ** 3, A ** 4 * B ** 3], [])
    for g1, g2 in [(x, y), (x, push_grading(scale_auto(CFG, 1, 3), y)),
                   (push_grading(random_graded_auto(x, rng), x), y)]:
        f1, d1, i1 = classify._recognize_S_frame(g1)
        f2, d2, i2 = classify._recognize_S_frame(g2)
        assert i1.s == CFG.m
        nu = classify._standard_bridge(CFG, d1, [], d2, [], i1.P)
        mu1, mu2 = nu.compose(AutO(f1).inverse()), AutO(f2).inverse()
        assert iso_decide(g1, g2, "S") == mu2.inverse().compose(mu1)


def test_invariants_of_every_flavor_reads_the_resolved_grading():
    x = push_grading(random_auto(CFG, random.Random(3)), grade_O_construct(CFG, G2, [A], [B]))
    wx = push_grading(random_auto(CFG, random.Random(4)), induce_W(grade_O_construct(CFG, G2, [A], [B])))
    sx = grade_S_construct(CFG, G2, PSubgroup(G2, (A,)), [B], A * B)
    assert canonical_key(invariants_of(x, "O")) == canonical_key(recognize_O(x)[1])
    assert canonical_key(invariants_of(wx, "W")) == canonical_key(recognize_O(o_grading_from_w(wx))[1])
    for flavor in ("S", "H"):
        assert canonical_key(invariants_of(x, flavor)) == canonical_key(recognize_S(x))
        assert invariants_of(sx, flavor).g0 == A * B
    cfg3 = Config(5, 3)
    x3 = grade_O_construct(cfg3, G1, [C], [C, C])
    with pytest.raises(ObstructionError, match="open-in-paper"):
        invariants_of(x3, "H")
    assert iso_decide(x3, x3, "H") == OPEN_IN_PAPER
    bare = Grading(CFG, G2, "sub", sx.basis, sx.labels)
    refusals = [(wx, "O"), (wx, "S"), (x, "W"), (bare, "S"), (bare, "H"), (x, "Q")]
    for grading, flavor in refusals:
        with pytest.raises(AdmissibilityError):
            invariants_of(grading, flavor)
        with pytest.raises(AdmissibilityError):
            iso_decide(grading, grading, flavor)
    with pytest.raises(AdmissibilityError, match="different ambients"):
        iso_decide(sx, x, "S")


def test_fine_enumeration_signatures():
    for ambient in ("O", "W"):
        fine = enumerate_fine(CFG, ambient)
        assert len(fine) == CFG.m + 1
        sigs = {(g.group.free_rank, g.group.torsion) for g in fine}
        assert len(sigs) == CFG.m + 1


def test_symplectic_dispatch():
    x = grade_O_construct(CFG, G2, [A], [B])
    y = push_grading(unipotent_2d(CFG, 2), x)
    wit = iso_decide(x, y, "H")
    assert isinstance(wit, AutO)
    cfg4 = Config(5, 4)
    c4 = G1.element((1,))
    x4 = grade_O_construct(cfg4, G1, [], [c4, c4, c4, c4])
    assert iso_decide(x4, x4, "H") == OPEN_IN_PAPER


def test_three_variable_decisions():
    cfg3 = Config(5, 3)
    G3 = AbGroup(0, (5, 5, 5))
    u = G3.element((1, 0, 0))
    v = G3.element((0, 1, 0))
    w = G3.element((0, 0, 1))
    x1 = OElem.variable(cfg3, 1)
    x2 = OElem.variable(cfg3, 2)
    x3 = OElem.variable(cfg3, 3)
    mu1 = AutO([x1 + x2 * x3, x2, x3])
    mu2 = AutO([x1, x2 + x1 * x1, x3]).compose(scale_auto(cfg3, 2, 3))
    # degree products agree: u^2 * (v u) * (w u^3) = u v w
    x = push_grading(mu1, grade_O_construct(cfg3, G3, [u], [v, w]))
    y = push_grading(mu2,
                     grade_O_construct(cfg3, G3, [u ** 2], [v * u, w * u ** 3]))
    wit = iso_decide(x, y, "S")
    assert isinstance(wit, AutO)
    assert wit.jacobian() == OElem.one(cfg3)
    assert push_grading(wit, x).same_components(y)
    wx, wy = induce_W(x), induce_W(y)
    witw = iso_decide(wx, wy, "W")
    assert isinstance(witw, AutO)
    assert push_grading(witw, wx).same_components(wy)


def test_invariant_keys_hash_and_compare():
    i1 = GradingInvariants(PSubgroup(G2, (A,)), [B])
    i2 = GradingInvariants(PSubgroup(G2, (A ** 2,)), [A * B])
    assert i1 == i2
    assert hash(i1) == hash(i2)
    assert canonical_key(i1) == canonical_key(i2)
    i3 = GradingInvariants(PSubgroup(G2, (A,)), [B ** 2])
    assert i1 != i3
    i4 = GradingInvariants(PSubgroup(G2, (A,)), [B], A * B)
    i5 = GradingInvariants(PSubgroup(G2, (A,)), [B], A ** 2 * B)
    assert i4 != i5
