"""Grading construction, verification, induction, and fine refinements."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cartangrade import gradings, linalg, serialize
from cartangrade.abgroup import AbGroup, PSubgroup, subgroup_key
from cartangrade.autos import push_grading, random_auto
from cartangrade.errors import (AdmissibilityError, DimensionError,
                                ObstructionError)
from cartangrade.gfp import Config, radix_weights
from cartangrade.gradings import (Grading, fine_grading, grade_O_construct,
                                  grade_S_construct, induce_W,
                                  induce_subalgebra, verify_grading)
from cartangrade.oalg import mult_operator
from cartangrade.witt import WElem
from algebra_helpers import grading_from_components
from test_acceptance import GROUP_MATRIX, random_data
from test_linalg import _rref_oracle
from volume_oracle import admissible_degree


def z5sq():
    g = AbGroup(0, (5, 5))
    return g, g.element((1, 0)), g.element((0, 1))


def test_standard_algebra_grading_shape_and_validity():
    cfg = Config(5, 2)
    g, b, c = z5sq()
    grading = grade_O_construct(cfg, g, [b], [c])
    assert grading.ambient == "O"
    assert grading.dim() == cfg.n
    assert len(grading.support()) == 25
    assert all(len(v) == 1 for v in grading.components.values())
    report = verify_grading(grading)
    assert report.ok and not report.failures


def test_colliding_degrees_merge_components():
    cfg = Config(5, 2)
    g = AbGroup(0, (5,))
    b = g.element((1,))
    grading = grade_O_construct(cfg, g, [b], [b])
    assert len(grading.support()) == 5
    assert sorted(len(v) for v in grading.components.values()) == [5] * 5
    assert verify_grading(grading).ok


def test_trivial_and_free_gradings():
    cfg = Config(5, 2)
    free = AbGroup(2, ())
    u, v = free.element((1, 0)), free.element((0, 1))
    grading = grade_O_construct(cfg, free, [], [u, v])
    assert len(grading.support()) == cfg.n
    assert verify_grading(grading).ok
    one = AbGroup(0, (5,))
    trivial = grade_O_construct(cfg, one, [], [one.identity(), one.identity()])
    assert trivial.support() == (one.identity(),)
    assert verify_grading(trivial).ok


def test_verify_catches_cross_degree_vectors():
    cfg = Config(5, 2)
    g, b, c = z5sq()
    good = grade_O_construct(cfg, g, [b], [c])
    comps = {h: list(vs) for h, vs in good.components.items()}
    keys = sorted(comps, key=lambda e: e.coords)
    a0, a1 = keys[1], keys[5]
    comps[a0], comps[a1] = comps[a1], comps[a0]
    swapped = grading_from_components(cfg, g, "O", comps)
    report = verify_grading(swapped)
    assert not report.ok and report.failures


def test_induced_derivation_grading_is_valid_and_functorial():
    cfg = Config(5, 2)
    g, b, c = z5sq()
    grading = grade_O_construct(cfg, g, [b], [c])
    w = induce_W(grading)
    assert w.ambient == "W" and w.dim() == cfg.m * cfg.n
    assert verify_grading(w).ok
    rng = random.Random(83)
    for _ in range(5):
        mu = random_auto(cfg, rng)
        left = push_grading(mu, w)
        right = induce_W(push_grading(mu, grading))
        assert left.same_components(right)


def test_support_subgroups_coincide_across_ambients():
    cfg = Config(5, 2)
    g, b, c = z5sq()
    grading = grade_O_construct(cfg, g, [b], [c])
    w = induce_W(grading)
    sub = grade_S_construct(cfg, g, PSubgroup(g, [b]), [c], b * c)
    keys = {subgroup_key(g, x.support()) for x in (grading, w, sub)}
    assert len(keys) == 1


def test_volume_flavor_grading_dimensions():
    cfg = Config(5, 3)
    g = AbGroup(0, (5, 5, 5))
    b = g.element((1, 0, 0))
    c1, c2 = g.element((0, 1, 0)), g.element((0, 0, 1))
    sub = grade_S_construct(cfg, g, PSubgroup(g, [b]), [c1, c2], b * c1 * c2)
    assert sub.ambient == "sub"
    assert sub.dim() == (cfg.m - 1) * (cfg.n - 1)
    assert sub.origin is not None and "o_grading" in sub.origin


def test_volume_flavor_second_derived_at_two_variables():
    cfg = Config(5, 2)
    g, b, c = z5sq()
    sub = grade_S_construct(cfg, g, PSubgroup(g, [b]), [c], b * c)
    assert sub.dim() == cfg.n - 2
    assert verify_grading(sub).ok


def test_volume_degree_obstructions():
    cfg = Config(5, 2)
    g, b, c = z5sq()
    psub = PSubgroup(g, [b])
    with pytest.raises(ObstructionError):
        # g0 must sit over the product of the free degrees
        grade_S_construct(cfg, g, psub, [c], c * c)
    with pytest.raises(ObstructionError):
        # the identity target is impossible at toral rank >= 1
        grade_S_construct(cfg, g, psub, [c], c)
    trivial = PSubgroup(g, [])
    with pytest.raises(ObstructionError):
        grade_S_construct(cfg, g, trivial, [b, c], b * c * c)
    ok = grade_S_construct(cfg, g, trivial, [b, c], b * c)
    assert verify_grading(ok).ok


def test_admissible_degree_of_standard_gradings():
    cfg = Config(5, 2)
    g, b, c = z5sq()
    grading = grade_O_construct(cfg, g, [b], [c])
    assert admissible_degree(grading, "S") == b * c
    free = grade_O_construct(cfg, g, [], [b, c])
    assert admissible_degree(free, "S") == b * c
    assert admissible_degree(free, "H") == b * c


def test_generic_pushes_break_volume_admissibility():
    cfg = Config(5, 2)
    g, b, c = z5sq()
    grading = grade_O_construct(cfg, g, [b], [c])
    rng = random.Random(89)
    broken = 0
    for _ in range(10):
        pushed = push_grading(random_auto(cfg, rng), grading)
        if admissible_degree(pushed, "S") is None:
            broken += 1
    assert broken > 0


def test_fine_gradings_have_singleton_components_on_the_algebra():
    cfg = Config(5, 2)
    for s in range(3):
        fine = fine_grading(cfg, s, "O")
        assert fine.dim() == cfg.n
        assert all(len(v) == 1 for v in fine.components.values())
        assert len(fine.support()) == cfg.n
        assert verify_grading(fine).ok
        assert fine.group.free_rank == cfg.m - s
    with pytest.raises(DimensionError):
        fine_grading(cfg, 3, "O")


def test_fine_gradings_induce_to_derivations_and_subalgebra():
    cfg = Config(5, 2)
    w = fine_grading(cfg, 1, "W")
    assert w.ambient == "W" and verify_grading(w).ok
    sub = fine_grading(cfg, 1, "S")
    assert sub.ambient == "sub" and verify_grading(sub).ok
    assert sub.dim() == cfg.n - 2


def test_subalgebra_induction_refuses_ungraded_subspaces():
    cfg = Config(5, 2)
    g, b, c = z5sq()
    w = induce_W(grade_O_construct(cfg, g, [b], [c]))
    from cartangrade.witt import w_basis
    import numpy as np
    ds = w_basis(cfg)
    # the span of d/dx_1 + x_2 d/dx_2 is not a graded subspace here
    rows = (ds[0].flat() + ds[cfg.n + 1].flat()) % 5
    with pytest.raises(AdmissibilityError):
        induce_subalgebra(w, rows[None, :])

def test_sub_ambient_refuses_vectors_outside_the_subalgebra():
    from cartangrade.witt import w_basis
    import numpy as np
    cfg = Config(5, 2)
    sub = fine_grading(cfg, 1, "S")
    x1_d1 = w_basis(cfg)[cfg.index((1, 0))]      # divergence 1: not in S
    with pytest.raises(DimensionError):
        sub.decompose(x1_d1)
    rows = np.vstack([sub.basis[:1], sub.basis])
    with pytest.raises(DimensionError):
        induce_subalgebra(fine_grading(cfg, 1, "W"), rows)


@pytest.mark.parametrize("m", [2, 3])
def test_sub_producers_span_the_requested_subalgebra(m):
    """A "sub" grading is its rows: the constructor checks only that they
    are independent, so each producer must span the subalgebra it was asked
    for, S(m;1)^(1) (its second derived algebra at m = 2) or the image of it
    under the automorphism of a push."""
    cfg = Config(5, m)
    p = cfg.p
    g = AbGroup(0, (5,) * m)
    e = [g.element(tuple(int(i == j) for j in range(m))) for i in range(m)]
    total = e[0]
    for a in e[1:]:
        total = total * a
    s_rows = gradings._s_rows(cfg)
    want = linalg.row_space(s_rows, p)
    built = grade_S_construct(cfg, g, PSubgroup(g, e[:1]), e[1:], total)
    mu = random_auto(cfg, random.Random(60 + m))
    moved = linalg.row_space(linalg.matmul(s_rows, mu.conjugation_matrix().T, p), p)
    cases = [(built, want), (push_grading(mu, built), moved),
             (serialize.grading_from_data(serialize.grading_to_data(built)), want)]
    cases += [(fine_grading(cfg, s, "S"), want) for s in ((0, 1, 2) if m == 2 else (1,))]
    for grading, span in cases:
        assert grading.ambient == "sub"
        assert np.array_equal(linalg.row_space(grading.basis, p), span)


def _flat(vec):
    return vec.table if hasattr(vec, "table") else vec.flat()


def verify_oracle(grading):
    """The per-pair verifier: one product and one membership test per pair
    of homogeneous basis elements, in the order (g, h, u, v)."""
    cfg = grading.cfg
    failures = []
    if grading.dim() != grading.ambient_dim:
        failures.append(("dimension", None, f"{grading.dim()} != {grading.ambient_dim}"))
    pairs = 0
    inside = None
    if grading.ambient == "sub":
        inside = linalg.EchelonSpace(grading.flat_size, cfg.p)
        inside.add_batch(grading.basis)
    comps = grading.components
    spaces = {}
    for g, vecs in comps.items():
        spaces[g] = linalg.EchelonSpace(grading.flat_size, cfg.p)
        spaces[g].add_batch(np.array([_flat(v) for v in vecs], dtype=np.int64))
    supp = grading.support()
    for g in supp:
        for h in supp:
            gh = g * h
            target_exists = gh in comps
            for u in comps[g]:
                for v in comps[h]:
                    prod = u * v if grading.ambient == "O" else u.bracket(v)
                    pairs += 1
                    if not prod:
                        continue
                    if inside is not None and not inside.contains(_flat(prod)):
                        failures.append((g.coords, h.coords, "product escapes the subalgebra"))
                        continue
                    if not target_exists:
                        failures.append((g.coords, h.coords, "degree product outside support"))
                    elif not spaces[gh].contains(_flat(prod)):
                        failures.append((g.coords, h.coords, "product misses its component"))
    return failures, pairs


def _swap_labels(grading, a, b):
    """The same rows with the degree labels a and b exchanged."""
    labels = [b if g == a else a if g == b else g for g in grading.labels]
    return Grading(grading.cfg, grading.group, grading.ambient, grading.basis, labels)


def _oracle_cases():
    cfg = Config(5, 2)
    g, b, c = z5sq()
    rng = random.Random(97)
    o = grade_O_construct(cfg, g, [b], [c])
    w = induce_W(o)
    sub = grade_S_construct(cfg, g, PSubgroup(g, [b]), [c], b * c)
    zz5 = AbGroup(1, (5,))
    free = grade_O_construct(cfg, zz5, [zz5.element((0, 1))], [zz5.element((1, 0))])
    cases = []
    for x in (o, w, sub, free, induce_W(free)):
        pushed = push_grading(random_auto(cfg, rng), x)
        for y in (x, pushed):
            supp = y.support()
            cases += [y, _swap_labels(y, supp[1], supp[-2])]
    # Last: homogeneous rows of the standard W grading spanning a subspace
    # that is not closed under the bracket, with two labels exchanged.
    picked = [0, 1, 2, 3, 5, 10, 11, 20]
    rows = w.basis[picked]
    labels = [w.labels[k] for k in picked]
    odd = Grading(cfg, g, "sub", rows, labels)
    cases.append(_swap_labels(odd, labels[1], labels[3]))
    return cases


def verify_sweep(grading):
    """verify_grading with the "O" certificate switched off: every row
    takes the per-row check."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gradings, "_generator_rows", lambda *args: None)
        return verify_grading(grading)


def assert_verify_matches_oracles(grading):
    """verify_grading gives the sweep's report and the per-pair oracle's."""
    report = verify_grading(grading)
    sweep = verify_sweep(grading)
    want, pairs = verify_oracle(grading)
    assert report.failures == sweep.failures == want
    assert report.pairs_checked == sweep.pairs_checked == pairs == grading.dim() ** 2
    assert report.ok == sweep.ok == (not want)
    return report


def test_verify_matches_the_per_pair_oracle():
    for grading in _oracle_cases():
        want = assert_verify_matches_oracles(grading).failures
    assert {msg for _, _, msg in want} == {"product escapes the subalgebra",
                                           "degree product outside support",
                                           "product misses its component"}


def test_verify_matches_the_per_pair_oracle_in_small_chunks(monkeypatch):
    # Three operators of side 50 (W, "sub") or twelve of side 25 ("O") per
    # chunk: every sweep spans several chunks, the last one partial.
    monkeypatch.setattr(gradings, "_SWEEP_BYTES", 3 * 8 * 50 * 50)
    chunks = []
    operators = gradings._operators

    def counting(grading, rows):
        chunks.append(len(rows))
        return operators(grading, rows)

    monkeypatch.setattr(gradings, "_operators", counting)
    for grading in _oracle_cases():
        chunks.clear()
        assert_verify_matches_oracles(grading)
        assert len(chunks) > 2 and max(chunks) == (12 if grading.ambient == "O" else 3)


def test_w_and_sub_verifies_build_each_chunk_in_one_ad_matrices_call(monkeypatch):
    # W and "sub" at m = 2, valid and label-swapped: the sweep never builds
    # an operator one row at a time.
    def refuse(self):
        raise AssertionError("verify_grading built an ad matrix row by row")

    cases = [x for x in _oracle_cases() if x.ambient != "O"]
    assert {x.ambient for x in cases} == {"W", "sub"} and len(cases) == 13
    monkeypatch.setattr(WElem, "ad_matrix", refuse)
    reports = [assert_verify_matches_oracles(x) for x in cases]
    assert any(r.ok for r in reports) and not all(r.ok for r in reports)


def test_verify_raises_the_constructor_error_on_dependent_rows():
    cfg = Config(5, 2)
    g, b, c = z5sq()
    o = grade_O_construct(cfg, g, [b], [c])
    sub = grade_S_construct(cfg, g, PSubgroup(g, [b]), [c], b * c)
    for x in (o, induce_W(o), sub):
        rows = x.basis.copy()
        rows[1] = rows[2]
        with pytest.raises(DimensionError, match="linearly dependent"):
            Grading(cfg, g, x.ambient, rows, x.labels)
        with pytest.raises(DimensionError, match="linearly dependent"):
            verify_grading(Grading._deferred(cfg, g, x.ambient, rows, x.labels))
        same = Grading._deferred(cfg, g, x.ambient, x.basis, x.labels)
        assert np.array_equal(same.basis, x.basis) and same.labels == x.labels
        assert verify_grading(same).ok


def _certificate_cases():
    """Valid O gradings at m=2: standard and pushed over Z_5^2, trivial, Z,
    Z x Z_5, and Z with degree coordinates past 2^63."""
    cfg = Config(5, 2)
    g, b, c = z5sq()
    one = AbGroup(0, (5,))
    z = AbGroup(1, ())
    zz5 = AbGroup(1, (5,))
    big = 2**64 + 7
    standard = [
        grade_O_construct(cfg, g, [b], [c]),
        grade_O_construct(cfg, g, [], [b, c]),
        grade_O_construct(cfg, one, [], [one.identity(), one.identity()]),
        grade_O_construct(cfg, z, [], [z.element((1,)), z.element((2,))]),
        grade_O_construct(cfg, zz5, [zz5.element((0, 1))], [zz5.element((1, 0))]),
        grade_O_construct(cfg, z, [], [z.element((big,)), z.element((-3 * big,))]),
    ]
    rng = random.Random(101)
    return standard + [push_grading(random_auto(cfg, rng), x) for x in standard]


CERTIFICATE_CASES = _certificate_cases()


def test_certificate_agrees_with_the_sweep_on_valid_gradings(monkeypatch):
    assert max(abs(c) for g in CERTIFICATE_CASES[5].labels for c in g.coords) > 2**63
    for grading in CERTIFICATE_CASES:
        assert_verify_matches_oracles(grading)
    rows = []

    def counting(cfg, table):
        rows.append(len(table) if table.ndim == 2 else 1)
        return mult_operator(cfg, table)

    monkeypatch.setattr(gradings, "mult_operator", counting)
    for grading in CERTIFICATE_CASES:
        rows.clear()
        assert verify_grading(grading).ok
        assert sum(rows) <= grading.cfg.m


def test_certificate_failure_on_a_generator_row_falls_back_to_the_sweep():
    # x_2 and x_2^2 exchange labels: 1 stays in the identity component, but
    # the generator row x_2 maps x_2 to the wrong component.
    cfg = Config(5, 2)
    z2 = AbGroup(2, ())
    grading = grade_O_construct(cfg, z2, [], [z2.element((1, 0)), z2.element((0, 1))])
    swapped = _swap_labels(grading, z2.element((0, 1)), z2.element((0, 2)))
    coords_of = linalg.inverse(swapped.basis, cfg.p)
    assert gradings._generator_rows(swapped, coords_of) is not None
    assert not assert_verify_matches_oracles(swapped).ok


def _greedy_frame(grading):
    """The oracle for frame_rows: row k joins the pick when its linear part
    raises the rank of the linear parts picked before it, ranks taken by
    test_linalg's own elimination."""
    cfg = grading.cfg
    lin = grading.basis[:, radix_weights(cfg.p, cfg.m)]
    picked = []
    for k in range(len(lin)):
        if len(picked) < cfg.m and len(_rref_oracle(lin[picked + [k]], cfg.p)[1]) > len(picked):
            picked.append(k)
    return picked


@pytest.mark.parametrize("p, m", [(5, 2), (5, 3), (7, 2)])
def test_frame_rows_is_the_greedy_pick(p, m):
    cfg = Config(p, m)
    free, tor = AbGroup(m, ()), AbGroup(0, (p,) * m)

    def unit(group, i):
        return group.element(tuple(int(j == i) for j in range(group.rank)))

    standard = [grade_O_construct(cfg, free, [], [unit(free, i) for i in range(m)]),
                grade_O_construct(cfg, tor, [unit(tor, i) for i in range(m)], []),
                grade_O_construct(cfg, tor, [unit(tor, 0)], [unit(tor, i) for i in range(1, m)])]
    rng = random.Random(10 * p + m)
    pushed = [push_grading(random_auto(cfg, rng), g) for g in standard]
    # Giving a frame row another row's label moves both rows' blocks, so
    # the pick scans a new order.
    swapped = [_swap_labels(g, g.labels[k], rng.choice([h for h in g.labels if h != g.labels[k]]))
               for g in standard + pushed for k in gradings.frame_rows(g)]
    for grading in standard + pushed + swapped:
        rows = gradings.frame_rows(grading)
        assert rows == _greedy_frame(grading) and len(rows) == m


def test_certificate_needs_the_unit_in_the_identity_component():
    # The identity row 1 becomes 1 + x_1^4 x_2^4, so 1 straddles two
    # components.  The generator rows x_1, x_2 still pass the per-row check
    # (they kill the top monomial), but (1 + t)^2 = 1 + 2t leaves V_e.
    cfg = Config(5, 2)
    z2 = AbGroup(2, ())
    grading = grade_O_construct(cfg, z2, [], [z2.element((1, 0)), z2.element((0, 1))])
    rows = grading.basis.copy()
    rows[0, cfg.n - 1] = 1
    odd = Grading(cfg, z2, "O", rows, grading.labels)
    assert gradings._generator_rows(odd, linalg.inverse(odd.basis, cfg.p)) is None
    report = assert_verify_matches_oracles(odd)
    assert report.failures == [((0, 0), (0, 0), "product misses its component")]


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.data())
def test_certificate_agrees_with_the_sweep_on_label_swaps(data):
    grading = data.draw(st.sampled_from(CERTIFICATE_CASES))
    supp = grading.support()
    if len(supp) < 2:
        return
    identity = grading.group.identity()
    if data.draw(st.booleans()):      # move the identity label
        a = identity
        b = data.draw(st.sampled_from([h for h in supp if h != identity]))
    else:                             # keep 1 in the identity component
        a, b = data.draw(st.lists(st.sampled_from([h for h in supp if h != identity]),
                                  min_size=2, max_size=2, unique=True))
    assert_verify_matches_oracles(_swap_labels(grading, a, b))


@st.composite
def _support_draws(draw):
    """A group with free and torsion slots of any size, and a sorted set of
    distinct elements whose coordinates are small (so products often land
    in the set), near the int64 limits, or past them."""
    free = draw(st.integers(0, 2))
    torsion = tuple(draw(st.lists(st.sampled_from((5, 25, 7, 2**61 - 1, 2**62 + 1, 2**64 + 13)),
                                  max_size=2)))
    group = AbGroup(free, torsion)
    edges = (2**62 - 1, 2**62, -2**62, 2**63 - 1, -2**63)     # where int64 sums overflow
    size = st.one_of(st.integers(-3, 3), st.integers(-2**70, 2**70), st.sampled_from(edges))
    slots = [size] * free + [st.one_of(st.integers(0, 3), st.integers(0, d - 1))
                             for d in torsion]
    elems = draw(st.lists(st.tuples(*slots), min_size=1, max_size=12, unique=True))
    return group, tuple(sorted(group.element(c) for c in elems))


_Z = AbGroup(1, ())


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_support_draws())
@example((_Z, (_Z.element((-2,)), _Z.element((2**63 - 1,)))))   # int64 wraps 2^64 - 2 to -2
def test_degree_table_matches_group_products(case):
    group, supp = case
    index = {g: k for k, g in enumerate(supp)}
    want = [[index.get(g * h, -1) for h in supp] for g in supp]
    assert gradings._degree_table(group, supp).tolist() == want


def test_queries_leave_no_state_on_the_grading():
    cfg = Config(5, 2)
    g, b, c = z5sq()
    grading = push_grading(random_auto(cfg, random.Random(5)), grade_O_construct(cfg, g, [b], [c]))
    assert not grading.basis.flags.writeable
    before = dict(vars(grading))
    row = grading.components[grading.support()[3]][0]
    assert grading.degree_of(row) == grading.support()[3]
    assert len(grading.decompose(row + grading.components[b][0])) == 2
    assert grading.same_components(grading) and verify_grading(grading).ok
    assert vars(grading).keys() == before.keys()
    assert all(vars(grading)[k] is v for k, v in before.items())


def blocks_by_equality(grading):
    """The block layout regrouped from the labels by equality, as blocks()
    computed it before the constructor kept the layout."""
    out, lo = {}, 0
    for g, run in itertools.groupby(grading.labels):
        hi = lo + sum(1 for _ in run)
        out[g] = slice(lo, hi)
        lo = hi
    return out


def _producer_gradings():
    """(producer name, grading) for every producer of gradings, on seeded
    degree data at p = 5, m = 2 and 3."""
    from cartangrade.classify import o_grading_from_w
    rng = random.Random(28)
    out = []
    for m in (2, 3):
        cfg = Config(5, m)
        for group in (GROUP_MATRIX[1], GROUP_MATRIX[3]):
            basis, gamma = random_data(cfg, group, rng)
            o = grade_O_construct(cfg, group, basis, gamma)
            pushed = push_grading(random_auto(cfg, rng), o)
            w = induce_W(o)
            pushed_w = push_grading(random_auto(cfg, rng), w)
            out += [("grade_O_construct", o), ("induce_W", w), ("induce_W raw", induce_W(pushed)),
                    ("push_grading O", pushed), ("push_grading W", pushed_w),
                    ("o_grading_from_w", o_grading_from_w(pushed_w)),
                    ("grading_from_data", serialize.grading_from_data(
                        serialize.grading_to_data(pushed_w)))]
        # The S ambient at m = 3 takes about a second per grading.
        out += [(f"fine_grading {ambient}", fine_grading(cfg, s, ambient))
                for s in range(m + 1) for ambient in ("O", "W", "S")[:5 - m]]
    cfg = Config(5, 2)
    group, b, c = z5sq()
    out.append(("grade_S_construct", grade_S_construct(cfg, group, PSubgroup(group, (b,)), [c],
                                                       b * c)))
    return out


def test_kept_block_layout_matches_regrouping_by_equality():
    for name, grading in _producer_gradings():
        want = blocks_by_equality(grading)
        assert list(grading.blocks().items()) == list(want.items()), name
        assert grading.support() == tuple(want), name
        sizes = [sl.stop - sl.start for sl in want.values()]
        assert (gradings._row_blocks(grading).tolist()
                == np.repeat(np.arange(len(sizes)), sizes).tolist()), name
        assert len(set(grading.support())) == len(grading.support()), name


def test_kept_block_layout_of_unsorted_labels_given_as_distinct_objects():
    """Equal labels given as distinct objects, in shuffled row order, still
    share one block."""
    cfg = Config(5, 2)
    group, b, c = z5sq()
    o = grade_O_construct(cfg, group, [b], [c])
    rng = random.Random(3)
    order = list(range(cfg.n))
    rng.shuffle(order)
    labels = [group.element(o.labels[k].coords) for k in order]
    shuffled = Grading(cfg, group, "O", o.basis[order], labels)
    assert list(shuffled.blocks().items()) == list(blocks_by_equality(shuffled).items())
    assert list(shuffled.blocks().items()) == list(o.blocks().items())
    assert shuffled.same_components(o)


def test_mutating_the_returned_blocks_leaves_the_grading_as_it_was():
    cfg = Config(5, 2)
    group, b, c = z5sq()
    grading = push_grading(random_auto(cfg, random.Random(8)),
                           grade_O_construct(cfg, group, [b], [c]))
    want = list(blocks_by_equality(grading).items())
    first = grading.support()[0]
    blocks = grading.blocks()
    blocks[first] = slice(0, 0)
    blocks.pop(grading.support()[1])
    blocks[group.element((4, 4)) * b] = slice(3, 9)
    assert list(grading.blocks().items()) == want
    assert grading.blocks() is not grading.blocks()
    assert grading.support() == tuple(g for g, _ in want)
    assert verify_grading(grading).ok and grading.same_components(grading)
