"""Acceptance gate: ten binding checks, one test (and one report line) each.

Every check pins the exact behaviour the package promises: closed-form
commutators, dimension counts through independent routes, restrictedness,
recognition round trips, witness soundness, the normalization bound, fine
grading enumeration, the full-rank volume obstruction, and support
invariance.  All arithmetic is exact; there are no tolerances to tune.
"""

import itertools
import random
import time

import numpy as np
import pytest

from cartangrade import cli
from cartangrade.abgroup import (AbGroup, PSubgroup, coset_rep, p_independent,
                                 subgroup_key)
from cartangrade.autos import (AutO, normalize_omega_S, push_grading,
                               random_auto, random_graded_auto, volume_factor)
from cartangrade.classify import (canonical_key, enumerate_fine, iso_decide,
                                  orbit_probe, recognize_O, recognize_S)
from cartangrade.errors import ObstructionError
from cartangrade.forms import algebra_rows, derived_rows, omega_symplectic
from cartangrade.gfp import Config
from cartangrade.gradings import grade_O_construct, grade_S_construct, induce_W
from cartangrade.linalg import row_space
from cartangrade.oalg import OElem
from cartangrade.witt import WElem, w_basis


CFG2 = Config(5, 2)
CFG3 = Config(5, 3)
G1 = AbGroup(0, (5,))
G2 = AbGroup(0, (5, 5))
A = G2.element((1, 0))
B = G2.element((0, 1))

GROUP_MATRIX = (
    AbGroup(0, (5,)),
    AbGroup(0, (5, 5)),
    AbGroup(0, (5, 5, 5)),
    AbGroup(1, (5,)),
    AbGroup(0, (25,)),
)


def report(name, detail=""):
    print(f"PASS {name}" + (f" ({detail})" if detail else ""))


def torsion_candidates(group):
    """Non-identity elements killed by 5: the legal toral degrees."""
    ranges = []
    for i in range(group.rank):
        if i < group.free_rank:
            ranges.append((0,))
        else:
            d = group.torsion[i - group.free_rank]
            ranges.append(tuple(range(0, d, d // 5)) if d % 5 == 0 else (0,))
    out = []
    for coords in itertools.product(*ranges):
        g = group.element(coords)
        if not g.is_identity:
            out.append(g)
    return out


def random_degree(group, rng):
    coords = []
    for i in range(group.rank):
        if i < group.free_rank:
            coords.append(rng.randrange(-3, 4))
        else:
            coords.append(rng.randrange(group.torsion[i - group.free_rank]))
    return group.element(tuple(coords))


def random_data(cfg, group, rng):
    """Seeded constructor input: p-independent basis plus free degrees."""
    pool = torsion_candidates(group)
    s_max = 0
    probe = []
    for g in pool:
        if p_independent(tuple(probe) + (g,)):
            probe.append(g)
    s_max = min(cfg.m, len(probe))
    s = rng.randrange(s_max + 1)
    basis = []
    attempts = 0
    while len(basis) < s:
        g = pool[rng.randrange(len(pool))]
        if p_independent(tuple(basis) + (g,)):
            basis.append(g)
        attempts += 1
        assert attempts < 200
    gamma = [random_degree(group, rng) for _ in range(cfg.m - s)]
    return basis, gamma


def test_accept_01_commutator_closed_forms():
    started = time.monotonic()
    rec = cli._check_bracket_closed_form(CFG3, cli.DEFAULT_SEED)
    assert rec["status"] == "pass"
    assert rec["cases"] == 3 * 125 * 125
    one = cli._check_bracket_one_term(CFG3, cli.DEFAULT_SEED)
    assert one["status"] == "pass"
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    report("commutator closed forms, exhaustive at p=5, m=3",
           f"{rec['cases']} cases, {elapsed:.1f}s")


def test_accept_02_hamiltonian_identities():
    started = time.monotonic()
    rec = cli._check_h_bracket(CFG2, cli.DEFAULT_SEED)
    assert rec["status"] == "pass"
    assert rec["cases"] == 25 * 25
    partial = cli._check_h_partial(CFG2)
    assert partial["status"] == "pass"
    assert partial["cases"] == 2 * 25
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    report("hamiltonian bracket and derivative identities, exhaustive",
           f"{rec['cases'] + partial['cases']} cases, {elapsed:.1f}s")


def test_accept_03_dimensions_by_independent_routes():
    assert CFG2.n == 5 ** 2 and CFG3.n == 5 ** 3
    for cfg in (CFG2, CFG3):
        basis = w_basis(cfg)
        assert len(basis) == cfg.m * cfg.p ** cfg.m
        rank = row_space(np.stack([d.flat() for d in basis]), cfg.p).shape[0]
        assert rank == cfg.m * cfg.p ** cfg.m
    # volume-stabilizer derived algebra at m=3: family rank vs derived closure
    s_rank = cli._s_family_rank(CFG3)
    s_closure = derived_rows(CFG3, algebra_rows(CFG3, "S"), iterations=1).shape[0]
    assert s_rank == s_closure == 248
    # symplectic-stabilizer second derived algebra at m=2
    h_rank = cli._h_family_rank(CFG2)
    h_closure = derived_rows(CFG2, algebra_rows(CFG2, "H"), iterations=2).shape[0]
    assert h_rank == h_closure == 23
    report("dimension counts via two independent routes",
           "O=25/125, W=50/375, S=248, H=23")


def test_accept_04_restricted_power_identity():
    rng = random.Random(cli.DEFAULT_SEED)
    basis = w_basis(CFG2)
    flats = np.stack([d.flat() for d in basis])
    assert flats.shape == (50, 50)
    for _ in range(100):
        table = np.array([[rng.randrange(5) for _ in range(CFG2.n)]
                          for _ in range(CFG2.m)], dtype=np.int64)
        d = WElem(CFG2, table)
        ad = np.stack([d.bracket(e).flat() for e in basis], axis=1)
        ad5 = ad
        for _ in range(4):
            ad5 = (ad5 @ ad) % 5
        dp = d.p_power()
        adp = np.stack([dp.bracket(e).flat() for e in basis], axis=1)
        assert np.array_equal(ad5 % 5, adp % 5)
    report("fifth iterate of the adjoint action matches the p-power map",
           "100 seeded derivations x 50 basis targets")


def test_accept_05_recognition_round_trip_and_push_invariance():
    rng = random.Random(2024)
    total = 0
    for m in (2, 3):
        cfg = Config(5, m)
        for group in GROUP_MATRIX:
            for _ in range(20):
                basis, gamma = random_data(cfg, group, rng)
                g = grade_O_construct(cfg, group, basis, gamma)
                _, inv = recognize_O(g)
                assert inv.s == len(basis)
                assert subgroup_key(group, inv.P.basis) == \
                    subgroup_key(group, tuple(basis))
                psub = PSubgroup(group, tuple(basis))
                want = tuple(sorted(coset_rep(x, psub).coords for x in gamma))
                assert tuple(r.coords for r in inv.gamma_cosets) == want
                key = canonical_key(inv)
                for _ in range(50):
                    moved = push_grading(random_auto(cfg, rng), g)
                    _, inv2 = recognize_O(moved)
                    assert canonical_key(inv2) == key
                total += 1
    assert total == 200
    report("recognition round trip with push-invariant keys",
           "200 inputs x 50 automorphisms")


def unipotent(cfg, k):
    x1 = OElem.variable(cfg, 1)
    x2 = OElem.variable(cfg, 2)
    return AutO([x1 + k * (x2 * x2), x2])


def test_accept_06_witness_soundness_and_confirmed_negatives():
    rng = random.Random(99)
    omega = omega_symplectic(CFG2)
    # positive decisions must transport componentwise, across flavors
    pairs = [
        (([A], [B]), ([A], [A * B])),
        (([A], [B]), ([A ** 2], [B])),
        (([], [A, B]), ([], [B, A])),
        (([A, B], []), ([A * B, B ** 2], [])),
    ]
    for (b1, g1), (b2, g2) in pairs:
        x = push_grading(random_auto(CFG2, rng), grade_O_construct(CFG2, G2, b1, g1))
        y = push_grading(random_auto(CFG2, rng), grade_O_construct(CFG2, G2, b2, g2))
        wit = iso_decide(x, y, "O")
        assert isinstance(wit, AutO)
        assert push_grading(wit, x).same_components(y)
    wx = induce_W(grade_O_construct(CFG2, G2, [A], [B]))
    wy = push_grading(random_auto(CFG2, rng), wx)
    wit = iso_decide(wx, wy, "W")
    assert isinstance(wit, AutO)
    assert push_grading(wit, wx).same_components(wy)
    # volume flavor below full rank: the witness fixes the form exactly
    x = push_grading(unipotent(CFG2, 1), grade_O_construct(CFG2, G2, [A], [B]))
    y = push_grading(unipotent(CFG2, 3),
                     grade_O_construct(CFG2, G2, [A ** 4], [B * A ** 2]))
    wit = iso_decide(x, y, "S")
    assert isinstance(wit, AutO)
    assert push_grading(wit, x).same_components(y)
    assert wit.act_on_form(omega) == omega
    # volume flavor at full rank: constant scaling factor
    x = grade_O_construct(CFG2, G2, [A, B], [])
    y = grade_O_construct(CFG2, G2, [A ** 2 * B ** 3, A ** 4 * B ** 3], [])
    wit = iso_decide(x, y, "S")
    assert isinstance(wit, AutO)
    assert push_grading(wit, x).same_components(y)
    fac = volume_factor(wit)
    assert fac is not None
    assert wit.act_on_form(omega) == fac * omega
    # negatives with matching subgroup and cosets but distinct volume degree,
    # confirmed by a depth-2 brute force over the standard generator families
    negatives = [
        (([A], [B]), ([A], [A * B])),
        (([A, B], []), ([A ** 2, B], [])),
    ]
    for (b1, g1), (b2, g2) in negatives:
        x = grade_O_construct(CFG2, G2, b1, g1)
        y = grade_O_construct(CFG2, G2, b2, g2)
        i1, i2 = recognize_S(x), recognize_S(y)
        assert canonical_key(recognize_O(x)[1]) == canonical_key(recognize_O(y)[1])
        assert i1.g0 != i2.g0
        assert iso_decide(x, y, "S") is None
        assert orbit_probe(x, y, "S", depth=2) is None
    report("isomorphism witnesses sound; volume negatives brute-force confirmed",
           "7 positives, 2 confirmed negatives")


def test_accept_07_normalization_terminates_within_bound():
    collision = grade_O_construct(CFG2, G1, [G1.element((1,))], [G1.element((1,))])
    omega = omega_symplectic(CFG2)
    rng = random.Random(7)
    bound = (5 - 1) * (CFG2.m - 1) + 1
    assert bound == 5
    multi = 0
    for _ in range(100):
        mu = random_graded_auto(collision, rng)
        trace = []
        fixed = normalize_omega_S(mu, collision, _trace=trace)
        assert len(trace) <= bound
        if len(trace) >= 2:
            multi += 1
        assert fixed.act_on_form(omega) == omega
        assert push_grading(fixed, collision).same_components(collision)
    assert multi > 0
    report("volume normalization exact within the iteration bound",
           f"100 seeded maps, bound {bound}, {multi} needed several rounds")


def test_accept_08_fine_grading_enumeration():
    for m in (2, 3):
        cfg = Config(5, m)
        for ambient in ("O", "W", "S"):
            fine = enumerate_fine(cfg, ambient)
            assert len(fine) == m + 1
            sigs = {(g.group.free_rank, g.group.torsion) for g in fine}
            assert len(sigs) == m + 1
        top = enumerate_fine(cfg, "O")[m]
        assert len(top.components) == 5 ** m
        assert all(len(vs) == 1 for vs in top.components.values())
    report("fine gradings enumerate completely with distinct signatures",
           "m+1 per ambient, top entry fully split")


def test_accept_09_full_rank_volume_degree_obstruction():
    psub = PSubgroup(G2, (A, B))
    with pytest.raises(ObstructionError):
        grade_S_construct(CFG2, G2, psub, [], G2.identity())
    succeeded = 0
    for coords in itertools.product(range(5), range(5)):
        g0 = G2.element(coords)
        if g0.is_identity:
            continue
        sg = grade_S_construct(CFG2, G2, psub, [], g0)
        assert sg.dim() == 23
        assert recognize_S(sg.origin["o_grading"]).g0 == g0
        succeeded += 1
    assert succeeded == 24
    report("identity volume degree refused at full rank, all others realized",
           "24/24 nontrivial degrees constructed")


def test_accept_10_support_subgroup_invariance():
    rng = random.Random(10)
    checked = 0
    while checked < 100:
        group = GROUP_MATRIX[rng.randrange(len(GROUP_MATRIX))]
        basis, gamma = random_data(CFG2, group, rng)
        g0 = group.identity()
        for x in basis:
            g0 = g0 * x
        for x in gamma:
            g0 = g0 * x
        og = grade_O_construct(CFG2, group, basis, gamma)
        wg = induce_W(og)
        sg = grade_S_construct(CFG2, group, PSubgroup(group, tuple(basis)),
                               gamma, g0)
        keys = {subgroup_key(group, g.support()) for g in (og, wg, sg)}
        assert len(keys) == 1
        checked += 1
    report("support subgroups agree across algebra, derivation, and "
           "subalgebra gradings", "100 seeded configurations")
