"""Recognition and isomorphism classification of gradings.

Any grading of the truncated algebra is isomorphic to a standard one; the
isomorphism class is determined by the subgroup supporting unit components,
the multiset of free-axis degrees modulo that subgroup, and — for the
volume-form flavor — the degree of the volume form.  This module extracts
those invariants from raw gradings, decides isomorphism with an explicit
automorphism witness built from the standard families, reconstructs the
algebra grading behind a derivation grading, enumerates the maximally
refined gradings, and provides a brute-force orbit probe used as a
completeness heuristic in tests.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import linalg
from .abgroup import (
    GElem,
    PSubgroup,
    basis_with_product,
    coset_eq,
    coset_rep,
    p_independent,
    subgroup_key,
)
from .autos import (
    AutO,
    basis_change_auto,
    normalize_omega_S,
    permutation_auto,
    push_grading,
    shift_auto,
    volume_factor,
    _unit_product,
)
from .errors import (
    AdmissibilityError,
    ConfigMismatchError,
    GroupMismatchError,
    InternalError,
    NoSuchBasisError,
    ObstructionError,
)
from .gfp import Config
from .gradings import Grading, fine_grading, frame_rows, grade_O_construct, induce_W
from .oalg import OElem, mult_operator

# Status returned for the symplectic flavor at half-rank > 1, whose
# classification is an open problem; distinct from a negative decision.
OPEN_IN_PAPER = "open-in-paper"

FLAVORS = ("O", "W", "S", "H")


class GradingInvariants:
    """Isomorphism invariants of a grading.

    P is the subgroup of degrees whose components contain units; the free
    degrees are stored as canonical coset representatives with multiplicity;
    g0, when present, is the degree of the volume form (exact, not a coset).
    """

    def __init__(self, psub: PSubgroup, gamma, g0=None):
        group = psub.group
        reps = []
        for g in gamma:
            if not isinstance(g, GElem) or g.group != group:
                raise GroupMismatchError(f"free degree {g!r} does not live in {group!r}")
            reps.append(coset_rep(g, psub))
        self.P = psub
        self.gamma_cosets = tuple(sorted(reps, key=lambda r: r.coords))
        if g0 is not None:
            if not isinstance(g0, GElem) or g0.group != group:
                raise GroupMismatchError(f"volume degree {g0!r} does not live in {group!r}")
            target = g0
            for g in reps:
                target = target * g.inverse()
            if target not in psub:
                raise ObstructionError(
                    "volume degree must sit over the product of the free degrees")
            if psub.s == 0 and not target.is_identity:
                raise ObstructionError("with trivial toral part the volume degree is forced")
            if psub.s > 0 and not reps and target.is_identity:
                raise ObstructionError(
                    "identity volume degree is impossible at full toral rank")
        self.g0 = g0

    @property
    def s(self) -> int:
        return self.P.s

    @property
    def m(self) -> int:
        return self.s + len(self.gamma_cosets)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradingInvariants):
            return NotImplemented
        return (self.P.group == other.P.group
                and canonical_key(self) == canonical_key(other))

    def __hash__(self):
        return hash((self.P.group, canonical_key(self)))

    def __repr__(self) -> str:
        g0 = "" if self.g0 is None else f", g0={self.g0!r}"
        return (f"GradingInvariants(s={self.s}, P={list(self.P.basis)!r}, "
                f"cosets={list(self.gamma_cosets)!r}{g0})")


def canonical_key(inv: GradingInvariants):
    """Deterministic key: equal keys exactly when the invariants match.

    The subgroup enters through its basis-independent lattice key, the free
    degrees through their sorted canonical coset representatives (with
    multiplicity), and the volume degree exactly.
    """
    reps = tuple(r.coords for r in inv.gamma_cosets)
    g0 = None if inv.g0 is None else inv.g0.coords
    return (inv.s, subgroup_key(inv.P.group, inv.P.basis), reps, g0)


def recognize_O(grading: Grading):
    """Extract a homogeneous frame and the invariants of an algebra grading.

    Returns (frame, invariants); see _recognize_frame.
    """
    frame, _, inv = _recognize_frame(grading)
    return frame, inv


def _recognize_frame(grading: Grading):
    """Homogeneous frame, its degrees, and the invariants of an algebra grading.

    The frame rows are the basis rows whose linear parts are independent,
    picked greedily in row order (gradings.frame_rows), so in degree order.
    A row with a unit constant term c is normalized to y = u/c - 1 in the
    maximal ideal (a unit slot); the rest are frame vectors as they stand.
    A homogeneous unit u has u^p in GF(p)^x, inside the identity component,
    so its degree has order 1 or p; a unit row labelled otherwise is refused
    before its degree reaches the subgroup arithmetic.  A unit slot of
    degree e goes to the free part as y.  Any other unit slot is toral when
    its degree is independent of the toral degrees kept before it, and is
    refused otherwise: no grading has such a slot (proof below).  The frame
    degrees are the row labels.  Returns (frame, degrees, invariants),
    the toral slots first, then the free ones in pick order.

    Proof that no grading reaches the refusal.  The grading is isomorphic
    to a standard one: there is a frame y_1..y_m (zero constant terms,
    independent linear parts) with 1 + y_i homogeneous of degree b_i for
    i <= s, the b_i independent of order p and spanning P, and y_j
    homogeneous of degree gamma_j for j > s.  The linear parts in the x and
    in the y coordinates differ by an invertible map, so every independence
    below is the same in either.  The component V_g is spanned by the
    monomials (1 + y)^c y^d (c over the toral slots, d over the free ones,
    entries below p) of degree b^c gamma^d = g.  A unit needs a monomial
    with d = 0, so every unit degree lies in P, and P, a p-group, has free
    coordinates 0.  Blocks are walked in label order: those before e have
    a negative free coordinate and hold no unit, so the e block is walked
    before every other block that holds a unit.
    (1) The linear parts of V_e span F_P = <y_j : j > s, gamma_j in P>:
    a monomial with |d| >= 2 has linear part 0, one with d = 0 in V_e is 1,
    and one with d the unit vector at j has linear part y_j and lies in V_e
    exactly when b^c = gamma_j^-1, which has a solution c exactly when
    gamma_j lies in P.  So once the e block is walked, the picked linear
    parts span F_P.
    (2) For a in P write a = prod b_i^alpha_i(a); alpha is linear from P
    to GF(p)^s.  By the same count of monomials, a unit of degree a with
    constant term c has linear part c * sum_i alpha_i(a) y_i plus an element
    of F_P.
    So let a unit be picked after the e block, of degree a != e, with a
    in the span of the toral degrees a_1..a_k kept before it: a = prod
    a_t^l_t.  Each kept unit has linear part c_t * alpha(a_t).y + f_t with
    f_t in F_P, and alpha(a) = sum l_t alpha(a_t), so the picked unit's
    linear part lies in the span of the kept linear parts and F_P, all
    picked before it: the greedy pick does not take it.  Every unit that
    is picked therefore has degree e or a degree of order p independent of
    the toral degrees kept before it.
    """
    if grading.ambient != "O":
        raise AdmissibilityError("recognition expects a grading of the algebra")
    cfg = grading.cfg
    one = OElem.one(cfg)
    picks = frame_rows(grading)
    if len(picks) != cfg.m:
        raise InternalError("homogeneous components must span all cotangent directions")
    units, free = [], []
    for k in picks:
        row, g = grading.basis[k], grading.labels[k]
        if row[0]:
            order = g.order()
            if order not in (1, cfg.p):
                raise AdmissibilityError(
                    f"a unit row is labelled {g!r} of order {order or 'infinity'}; "
                    f"a homogeneous unit has degree of order 1 or {cfg.p}")
            units.append((cfg.inv(int(row[0])) * OElem(cfg, row) - one, g))
        else:
            free.append((OElem(cfg, row), g))
    toral = []
    for y, a in units:
        if a.is_identity:
            free.append((y, a))
        elif p_independent(tuple(g for _, g in toral) + (a,)):
            toral.append((y, a))
        else:
            raise AdmissibilityError("unit rows of dependent degrees: not a grading")
    pairs = toral + free
    psub = PSubgroup(grading.group, tuple(g for _, g in toral))
    return ([y for y, _ in pairs], [g for _, g in pairs],
            GradingInvariants(psub, [g for _, g in free]))


def _recognize_S_frame(grading: Grading):
    """Frame, exact axis degrees, and invariants with volume degree, in the
    order of _recognize_frame.

    The volume degree g0 is read off the jacobian of the recognized frame.
    The frame y_1..y_m has zero constant terms and independent linear parts,
    so x_i -> y_i is an automorphism and dy_1 ^ ... ^ dy_m = J * omega with
    J = det(dy_i/dx_j) a unit.  The grading extends to forms with d of
    degree e and the wedge product multiplicative; dy_i = d(1 + y_i) at the
    toral slots, so each dy_i has the degree a_i of its homogeneous frame
    element and the left side is homogeneous of degree total = a_1...a_m.
    The top forms are O * omega, free of rank one.  If omega is homogeneous
    of degree g0, f -> f * omega carries V_g onto the top forms of degree
    g*g0, so J is homogeneous of degree total * g0^-1.  If J is homogeneous,
    so is its inverse (J times the components of J^-1 are independent and
    sum to 1), and omega = J^-1 * dy_1 ^ ... ^ dy_m is homogeneous of degree
    total * deg(J)^-1.  So omega is homogeneous exactly when J is, and
    g0 = total * deg(J)^-1.

    The frame is then corrected so its degree product equals the volume
    degree: below full toral rank the last free variable absorbs the
    mismatch through a unit factor; at full rank the subgroup basis is
    replaced by one whose product is the volume degree.
    """
    cfg = grading.cfg
    frame, degrees, inv = _recognize_frame(grading)
    s, m = inv.s, cfg.m
    total = grading.group.identity()
    for g in degrees:
        total = total * g
    delta = grading.degree_of(AutO(frame).jacobian())
    if delta is None:
        raise AdmissibilityError("grading does not keep the volume line homogeneous")
    g0 = total * delta.inverse()
    if s < m:
        exps = inv.P.exponents_of(delta)
        if exps is None:
            raise AdmissibilityError("volume degree is incompatible with the unit-support subgroup")
        if any(exps):
            frame[m - 1] = frame[m - 1] * _unit_product(cfg, frame[:s], [-int(l) for l in exps])
            degrees[m - 1] = degrees[m - 1] * delta.inverse()
        return frame, degrees, GradingInvariants(inv.P, degrees[s:], g0)
    if g0.is_identity:
        raise ObstructionError("identity volume degree is impossible at toral rank s >= 1")
    if g0 not in inv.P:
        raise AdmissibilityError("volume degree lies outside the unit-support subgroup")
    if not delta.is_identity:
        degrees = list(basis_with_product(inv.P, g0))
        frame = [_unit_product(cfg, frame, inv.P.exponents_of(b)) - OElem.one(cfg)
                 for b in degrees]
    return frame, degrees, GradingInvariants(PSubgroup(grading.group, tuple(degrees)), [], g0)


def recognize_S(grading: Grading) -> GradingInvariants:
    """Invariants of a volume-admissible algebra grading, volume degree included."""
    return _recognize_S_frame(grading)[2]


def o_grading_from_w(w_grading: Grading) -> Grading:
    """The algebra grading that induces a given derivation grading.

    Some homogeneous derivation has a coefficient with nonzero constant term
    (the decomposition of any coordinate derivative forces one), and
    multiplying such an anchor by functions is injective.  For each degree g
    in the support, the functions carrying the anchor into the component at
    g are then exactly the component of the inducing algebra grading at
    g / (anchor degree).  The result is validated by inducing forward again.

    Those functions are the first n coordinates of the null space of
    [stack | -W_g^T], where stack (mn x n) is multiplication by the anchor
    and W_g holds the rows of degree g.  The stack is factored once: the
    RREF of [stack | I_mn] is [E | T] with T invertible and T @ stack =
    E = [I_n; 0], since the n stack columns are all pivots (multiplication
    by the anchor is injective).  One product gives T @ (-basis^T) = [top;
    bottom].  T is invertible, so [stack | -W_g^T] and T @ [stack | -W_g^T]
    = [[I_n, top_g], [0, bottom_g]] have the same RREF.  Its pivots are the
    n stack columns and the pivots of bottom_g, so the canonical null space
    basis is (-top_g c, c) for c running over the canonical null space basis
    of bottom_g: the same rows, in the same order, as a per-degree
    elimination of [stack | -W_g^T].
    """
    if w_grading.ambient != "W":
        raise AdmissibilityError("reconstruction expects a grading of the derivations")
    cfg = w_grading.cfg
    p, m, n = cfg.p, cfg.m, cfg.n
    # Coefficient i of a row is row[i*n:(i+1)*n], so row[::n] holds their constant terms.
    anchor = g_star = None
    for row, g in zip(w_grading.basis, w_grading.labels):
        if row[::n].any():
            anchor, g_star = row, g
            break
    if anchor is None:
        raise AdmissibilityError(
            "no homogeneous derivation has a unit coefficient; grading is not induced")
    stack = mult_operator(cfg, anchor.reshape(m, n)).reshape(m * n, n)
    t = linalg.rref(np.hstack([stack, np.eye(m * n, dtype=np.int64)]), p)[0][:, n:]
    reduced = linalg.matmul(t, (-w_grading.basis.T) % p, p)
    top, bottom = reduced[:n], reduced[n:]
    rows, labels = [], []
    for g, sl in w_grading.blocks().items():
        null = linalg.nullspace(bottom[:, sl], p)
        rows.append(linalg.matmul(null, (-top[:, sl].T) % p, p))
        labels += [g * g_star.inverse()] * null.shape[0]
    if len(labels) != n:
        raise AdmissibilityError("derivation grading is not induced by an algebra grading")
    out = Grading(cfg, w_grading.group, "O", np.vstack(rows), labels)
    if not induce_W(out).same_components(w_grading):
        raise AdmissibilityError("derivation grading is not induced by an algebra grading")
    return out


def _standard_bridge(cfg: Config, basis1, gamma1, basis2, gamma2, psub: PSubgroup) -> AutO:
    """Composition of standard maps carrying one standard grading to another.

    Both data describe the same subgroup with matching free-degree cosets:
    first permute the free axes to align cosets, then change the toral basis,
    then shift the free degrees onto their exact targets.
    """
    s, t = len(basis1), len(gamma1)
    sub2 = PSubgroup(psub.group, tuple(basis2))
    used = [False] * t
    rho = []
    for k in range(t):
        for j in range(t):
            if not used[j] and coset_eq(gamma2[k], gamma1[j], psub):
                used[j] = True
                rho.append(j)
                break
        else:
            raise NoSuchBasisError("free degrees do not match modulo the subgroup")
    perm = [0] * t
    for k in range(t):
        perm[rho[k]] = k
    step = permutation_auto(cfg, s, perm)
    if s:
        alpha = [[0] * s for _ in range(s)]
        for j in range(s):
            exps = sub2.exponents_of(basis1[j])
            if exps is None:
                raise InternalError("both bases span the same subgroup")
            for i in range(s):
                alpha[i][j] = int(exps[i])
        step = basis_change_auto(cfg, s, alpha).compose(step)
    rows = []
    for k in range(t):
        d = gamma1[rho[k]] * gamma2[k].inverse()
        exps = sub2.exponents_of(d)
        if exps is None:
            raise InternalError("matched cosets differ by a subgroup element")
        rows.append([int(x) for x in exps])
    return shift_auto(cfg, s, rows).compose(step)


def _resolve(grading: Grading, flavor: str):
    """(algebra grading, volume) a flavor decides on, or None when it is open.

    W: the grading that induces the derivation grading (o_grading_from_w).
    S on a "sub" grading: the inducing grading it carries in
    origin["o_grading"].  O, and S on an "O" grading: the grading itself.
    H is S at m = 2; beyond, its classification is open in the paper.
    volume says whether the decision is the volume flavor's.
    """
    if flavor not in FLAVORS:
        raise AdmissibilityError(f"unknown flavor {flavor!r}")
    if flavor == "H" and grading.cfg.m != 2:
        return None
    if flavor == "W":
        if grading.ambient != "W":
            raise AdmissibilityError("flavor W classifies derivation-algebra gradings")
        return o_grading_from_w(grading), False
    volume = flavor in ("S", "H")
    if volume and grading.ambient == "sub":
        o_grading = (grading.origin or {}).get("o_grading")
        if o_grading is None:
            raise AdmissibilityError(
                "subalgebra gradings carry no inducing algebra grading; decide on that instead")
        return o_grading, True
    if grading.ambient != "O":
        raise AdmissibilityError(
            f"flavor {flavor} classifies gradings of the truncated polynomial "
            f"algebra; got ambient {grading.ambient!r}")
    return grading, volume


def invariants_of(grading: Grading, flavor: str = "O") -> GradingInvariants:
    """Isomorphism invariants of a grading for a flavor: those of the algebra
    grading it decides on (_resolve), with the volume degree for S and H.
    The symplectic flavor beyond m = 2 is refused (ObstructionError)."""
    resolved = _resolve(grading, flavor)
    if resolved is None:
        raise ObstructionError(f"hamiltonian classification beyond m = 2 is {OPEN_IN_PAPER}")
    o_grading, volume = resolved
    return (_recognize_S_frame if volume else _recognize_frame)(o_grading)[2]


def iso_decide(g1: Grading, g2: Grading, flavor: str = "O"):
    """Decide isomorphism of two gradings, producing an automorphism witness.

    Returns None when the invariants differ; otherwise an automorphism whose
    push carries the first grading onto the second componentwise.  Every
    flavor takes one path: the algebra gradings it decides on (_resolve) are
    recognized, their invariant keys compared, and the standard bridge nu
    between the recognized frames f1, f2 gives the witness
    AutO(f2) o nu o AutO(f1)^-1.  Volume flavor: at full toral rank that
    witness scales the volume form by a unit; below it, both legs are
    normalized to fix the volume form exactly and the witness is their
    composite.  The witness is checked once, on the gradings passed in.  The
    symplectic flavor at rank 2 coincides with the volume flavor; at higher
    half-rank the classification is open and the module-level OPEN_IN_PAPER
    status is returned.
    """
    if g1.cfg != g2.cfg:
        raise ConfigMismatchError("gradings built over different configurations")
    if g1.group != g2.group:
        raise GroupMismatchError("gradings live over different groups")
    resolved = _resolve(g1, flavor)
    if resolved is None:
        return OPEN_IN_PAPER
    if g1.ambient != g2.ambient:
        raise AdmissibilityError(
            f"the two gradings have different ambients, {g1.ambient!r} and {g2.ambient!r}")
    (o1, volume), (o2, _) = resolved, _resolve(g2, flavor)
    recognize = _recognize_S_frame if volume else _recognize_frame
    f1, d1, i1 = recognize(o1)
    f2, d2, i2 = recognize(o2)
    if canonical_key(i1) != canonical_key(i2):
        return None
    cfg, s = g1.cfg, i1.s
    nu = _standard_bridge(cfg, d1[:s], d1[s:], d2[:s], d2[s:], i1.P)
    if volume and s < cfg.m:
        std2 = grade_O_construct(cfg, g1.group, d2[:s], d2[s:])
        mu1 = normalize_omega_S(nu.compose(AutO(f1).inverse()), std2)
        mu2 = normalize_omega_S(AutO(f2).inverse(), std2)
        psi = mu2.inverse().compose(mu1)
        if psi.jacobian() != OElem.one(cfg):
            raise InternalError("witness must fix the volume form exactly")
    else:
        psi = AutO(f2).compose(nu).compose(AutO(f1).inverse())
        if volume and volume_factor(psi) is None:
            raise InternalError("full-rank witness must scale the volume form")
    _check_witness(psi, g1, g2)
    return psi


def _check_witness(psi: AutO, g1: Grading, g2: Grading) -> None:
    """Self-check of a positive decision: the witness carries g1 onto g2."""
    if not push_grading(psi, g1).same_components(g2):
        raise InternalError(f"witness does not transport the {g1.ambient} grading")


def enumerate_fine(cfg: Config, ambient: str = "O"):
    """The m+1 maximally refined gradings, one per toral rank.

    Their universal groups have pairwise distinct signatures (torsion rank,
    free rank), so no two are equivalent.
    """
    return [fine_grading(cfg, s, ambient) for s in range(cfg.m + 1)]


def _probe_generators(cfg: Config, s: int):
    """Standard-family generator set used by the brute-force orbit probe."""
    p, m = cfg.p, cfg.m
    t = m - s
    gens = []
    for perm in itertools.permutations(range(t)):
        if perm != tuple(range(t)):
            gens.append(permutation_auto(cfg, s, perm))
    for i in range(t):
        for j in range(s):
            for c in range(1, p):
                exps = [[0] * s for _ in range(t)]
                exps[i][j] = c
                gens.append(shift_auto(cfg, s, exps))
    for i in range(s):
        for j in range(s):
            if i == j:
                for d in range(2, p):
                    alpha = np.eye(s, dtype=np.int64)
                    alpha[i, i] = d
                    gens.append(basis_change_auto(cfg, s, alpha))
            else:
                for c in range(1, p):
                    alpha = np.eye(s, dtype=np.int64)
                    alpha[i, j] = c
                    gens.append(basis_change_auto(cfg, s, alpha))
    return gens


def orbit_probe(g1: Grading, g2: Grading, flavor: str = "O", depth: int = 2):
    """Brute-force search over short words in the standard families.

    A completeness heuristic, not a proof: conjugates the first grading by
    every word of bounded length and reports a matching word, None when no
    word matches.  Volume flavor requires the word to scale the volume form
    by a unit.
    """
    if g1.ambient != "O" or g2.ambient != "O":
        raise AdmissibilityError("the probe works on gradings of the algebra")
    if g1.group != g2.group:
        raise GroupMismatchError("gradings live over different groups")
    cfg = g1.cfg
    _, inv = recognize_O(g1)
    gens = _probe_generators(cfg, inv.s)
    need_volume = flavor in ("S", "H")
    for d in range(depth + 1):
        for word in itertools.product(gens, repeat=d):
            mu = AutO.identity(cfg)
            for w in word:
                mu = w.compose(mu)
            if need_volume and volume_factor(mu) is None:
                continue
            if push_grading(mu, g1).same_components(g2):
                return mu
    return None
