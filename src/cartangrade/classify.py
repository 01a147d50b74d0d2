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
from .gradings import (
    Grading,
    fine_grading,
    frame_rows,
    grade_O_construct,
    in_span,
    _degree_table,
    _generator_rows,
    _row_blocks,
)
from .oalg import OElem, mult_operator, partial_table

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


def _recognize_frame(grading: Grading, picks=None):
    """Homogeneous frame, its degrees, and the invariants of an algebra grading.

    The frame rows are the basis rows whose linear parts are independent,
    picked greedily in row order (gradings.frame_rows, or picks when the
    caller already has them), so in degree order.
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
    picks = frame_rows(grading) if picks is None else picks
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


def _recognize_S_frame(grading: Grading, picks=None):
    """Frame, exact axis degrees, and invariants with volume degree, in the
    order of _recognize_frame (which reads picks).

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
    frame, degrees, inv = _recognize_frame(grading, picks)
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
    g / (anchor degree).  So when the derivation grading is induced, this
    construction returns the grading that induces it, and _induces
    certifies that it does.  The certificate passes exactly when the
    candidate is a grading that induces w_grading, so a candidate that fails
    it is refused as it stands: no grading induces w_grading.

    Those functions are the first n coordinates of the null space of
    [stack | -W_g^T], where stack (mn x n) is multiplication by the anchor
    and W_g holds the rows of degree g.  The stack is factored once, through
    the inverse of the unit coefficient u = anchor_i0: block j of stack is
    multiplication A_j by anchor_j, and A_i0 is invertible, so the matrix T
    whose first block row is A_i0^-1 on block i0 and whose other block rows
    are I on block j minus A_j A_i0^-1 on block i0 (j != i0) is invertible
    (block triangular after moving block i0 first) with T @ stack = [I_n; 0].
    With B = -basis^T, T @ B = [top; bottom] is top = u^-1 B_i0 and
    bottom_j = B_j - A_j top.  T is invertible, so [stack | -W_g^T] and
    T @ [stack | -W_g^T] = [[I_n, top_g], [0, bottom_g]] have the same RREF.
    Its pivots are the n stack columns and the pivots of bottom_g, so the
    canonical null space basis is (-top_g c, c) for c running over the
    canonical null space basis of bottom_g: the same rows, in the same
    order, as a per-degree elimination of [stack | -W_g^T].  Any other T'
    with T' @ stack = [I_n; 0] is S @ T with S = [[I, X], [0, Y]], Y
    invertible: it changes bottom_g only by the row operation Y, which keeps
    its null space, and top_g c only by X bottom_g c = 0.

    Each degree takes one nullspace of its columns of bottom; the rows c of
    every degree, each placed in its block's columns of one coefficient
    matrix, give every -top_g c in a single product with -top^T.  g* (the
    anchor degree) is inverted once.
    """
    if w_grading.ambient != "W":
        raise AdmissibilityError("reconstruction expects a grading of the derivations")
    cfg = w_grading.cfg
    p, m, n = cfg.p, cfg.m, cfg.n
    # Coefficient i of a row is row[i*n:(i+1)*n], so row[::n] holds their constant terms.
    anchor = g_star = None
    for row, g in zip(w_grading.basis, w_grading.labels):
        if row[::n].any():
            anchor, g_star = row.reshape(m, n), g
            break
    if anchor is None:
        raise AdmissibilityError(
            "no homogeneous derivation has a unit coefficient; grading is not induced")
    i0 = int(np.flatnonzero(anchor[:, 0])[0])
    stack = mult_operator(cfg, anchor).reshape(m * n, n)
    neg = (-w_grading.basis.T) % p
    u_inv = OElem(cfg, anchor[i0]).inverse()
    top = linalg.matmul(mult_operator(cfg, u_inv.table), neg[i0 * n:(i0 + 1) * n], p)
    rest = np.delete(np.arange(m * n), np.s_[i0 * n:(i0 + 1) * n])
    bottom = (neg[rest] - linalg.matmul(stack[rest], top, p)) % p
    g_inv = g_star.inverse()
    coeffs, labels = [], []
    for g, sl in w_grading.blocks().items():
        null = linalg.nullspace(bottom[:, sl], p)
        coeff = np.zeros((null.shape[0], m * n), dtype=np.int64)
        coeff[:, sl] = null
        coeffs.append(coeff)
        labels += [g * g_inv] * null.shape[0]
    if len(labels) != n:
        raise AdmissibilityError("derivation grading is not induced by an algebra grading")
    rows = linalg.matmul(np.vstack(coeffs), (-top.T) % p, p)
    out = Grading._deferred(cfg, w_grading.group, "O", rows, labels)
    if not _induces(out, w_grading):
        raise AdmissibilityError("derivation grading is not induced by an algebra grading")
    return out


def _induces(out: Grading, w_grading: Grading) -> bool:
    """Whether the "O" decomposition out is a grading that induces the
    derivation grading: the certificate of o_grading_from_w.

    (a) The O certificate of verify_grading: out's basis is invertible, 1
    has coordinates only in the identity block, and the frame rows u_i
    (gradings._generator_rows), of degrees a_i, times every row v of degree
    h lie in out_{a_i h} (are 0 when a_i h is off the support).
    (b) For every frame row u_i and every row D of w_grading, of degree g,
    D(u_i) = sum_j D_j d_j(u_i) lies in out_{g a_i} (is 0 off the support).
    Each check reads coordinates over out's basis through its one inverse:
    the products of (a) from one stacked mult_operator of the u_i, the
    images of (b) from one stacked mult_operator of the m*m partials d_j(u_i)
    and one product with w_grading's basis.

    Proof that the certificate passes exactly when out is a grading that
    induces w_grading.  By (a) and verify_grading's certificate lemma, out
    is a grading, the monomials in the u_i span O, and each out_h is
    spanned by the monomials of degree h.  For D of degree g, Leibniz gives
    D(prod u_i^c_i) = sum_i c_i u^(c - e_i) D(u_i), and by (b) each term
    lies in out_{h a_i^-1} out_{g a_i}, inside out_{gh} for a monomial of
    degree h.  So D(out_h) lies in out_{gh} for every h: the component of
    w_grading at g lies in the component at g of the grading out induces.
    Both are direct-sum decompositions of W(m;1) = Der O(m;1), of total
    dimension mn, so the components are equal.  Conversely, a grading that
    induces w_grading is out (o_grading_from_w), and then (a) holds because
    out is a grading and (b) because every D of degree g maps out_h into
    out_{gh}.
    """
    cfg = out.cfg
    p, m, n = cfg.p, cfg.m, cfg.n
    try:
        coords_of = linalg.inverse(out.basis, p)
    except NoSuchBasisError:
        return False
    gens = _generator_rows(out, coords_of)
    if gens is None:
        return False
    supp = out.support()
    block = _row_blocks(out)
    # Columns of target: out's support, then w_grading's.
    target = _degree_table(out.group, supp, supp + w_grading.support())
    frame = out.basis[gens]
    # (a): products[i, :, k] is u_i times row k of out.
    products = linalg.matmul(mult_operator(cfg, frame).reshape(m * n, n), out.basis.T, p)
    # (b): images[i, :, k] is D(u_i) for row k of w_grading; the operator of
    # u_i takes D to sum_j D_j d_j(u_i), its block j multiplication by d_j(u_i).
    partials = np.stack([partial_table(cfg, frame, j + 1) for j in range(m)], axis=1)
    ops = mult_operator(cfg, partials.reshape(m * m, n)).reshape(m, m, n, n)
    images = linalg.matmul(ops.transpose(0, 2, 1, 3).reshape(m * n, m * n), w_grading.basis.T, p)
    vecs = np.concatenate([products.reshape(m, n, n), images.reshape(m, n, m * n)], axis=2)
    coords = linalg.matmul(vecs.transpose(0, 2, 1).reshape(-1, n), coords_of, p)
    tgt = target[block[gens]][:, np.concatenate([block, _row_blocks(w_grading) + len(supp)])]
    return not ((coords.reshape(tgt.shape + (n,)) != 0) & (block != tgt[:, :, None])).any()


def _standard_bridge(cfg: Config, basis1, gamma1, basis2, gamma2, psub: PSubgroup, at=None):
    """Images of the standard map nu carrying one standard grading to
    another, evaluated at the elements at (default: the variables, which
    gives nu's own images).

    Both data describe the same subgroup with matching free-degree cosets.
    nu = shift o basis change o permutation: permute the free axes to align
    cosets, change the toral basis, then shift the free degrees onto their
    exact targets (the maps of permutation_auto, basis_change_auto and
    shift_auto).  The shift fixes the toral variables and the basis change
    the free ones, so the composite has the closed form
      nu(x_j) = prod_i (1+x_i)^{c_i} - 1 for j <= s, with c the exponents
        of basis1[j] over basis2;
      nu(x_{s+i}) = x_{s+k} prod_i (1+x_i)^{c_i} when gamma1[i] is matched
        with gamma2[k], with c the exponents of gamma1[i] * gamma2[k]^-1.
    The same expressions in the elements y of at are the images of
    AutO(y) o nu, found by substitution instead of a product of matrices.
    """
    s, t = len(basis1), len(gamma1)
    sub2 = PSubgroup(psub.group, tuple(basis2))
    y = list(at) if at is not None else [OElem.variable(cfg, i) for i in range(1, cfg.m + 1)]
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
    toral = []
    for b in basis1:
        exps = sub2.exponents_of(b)
        if exps is None:
            raise InternalError("both bases span the same subgroup")
        toral.append(_unit_product(cfg, y[:s], exps) - OElem.one(cfg))
    free = [None] * t
    for k, i in enumerate(rho):
        exps = sub2.exponents_of(gamma1[i] * gamma2[k].inverse())
        if exps is None:
            raise InternalError("matched cosets differ by a subgroup element")
        free[i] = y[s + k] * _unit_product(cfg, y[:s], exps)
    return toral + free


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
    flavor takes one path: the algebra gradings o1, o2 it decides on
    (_resolve) are recognized, their invariant keys compared, and the
    standard bridge nu between the recognized frames f1, f2 gives the
    witness AutO(f2) o nu o AutO(f1)^-1, its first factor AutO(f2) o nu
    found by substitution (_standard_bridge at f2) and composed with
    AutO(f1)^-1 by AutO.compose_inverse, which eliminates only an m x m
    matrix.  Volume flavor: at full toral rank that witness scales the
    volume form by a unit; below it, both legs are normalized to fix the
    volume form exactly and the witness is their composite.  The symplectic
    flavor at rank 2 coincides with the volume flavor; at higher half-rank
    the classification is open and the module-level OPEN_IN_PAPER status is
    returned.

    Precondition: for flavors O and S on "O" inputs, g1 and g2 are gradings
    (multiplicative, not only direct sums); the CLI verifies every such
    payload first (cli._require_grading).  For W, o_grading_from_w
    certifies that o1 and o2 are gradings inducing g1 and g2; for S on
    "sub" inputs, the trusted origin["o_grading"] supplies them.

    The witness psi is checked once, by frame images on o1 and o2
    (_check_witness): the two have the same block layout, and psi maps each
    frame row h_i of o1 (gradings.frame_rows), of degree a_i, into the
    block of o2 of degree a_i.

    Lemma.  Let o1 and o2 be gradings of O, let h_1..h_m be o1-homogeneous
    of degrees a_i and generate O as a unital algebra, and let psi be an
    automorphism with psi(h_i) in o2_{a_i}.  Then psi(o1_g) = o2_g for
    every g.
    Proof.  The frame rows generate O: minus their constant terms they lie
    in the maximal ideal with independent linear parts (Nakayama).  As in
    the certificate of verify_grading, the monomials in the h_i of degree g
    lie in o1_g, since o1 is a grading, and they span O, so they span each
    o1_g.  psi maps such a monomial to the same monomial in the psi(h_i),
    which lies in o2_g because o2 is a grading and 1 lies in o2_e.  So
    psi(o1_g) lies in o2_g for every g.  The o1_g sum to O, as do the o2_g,
    and psi is injective, so each inclusion is an equality.
    So psi carries g1 onto g2 on every flavor.  For O and S on "O" inputs
    that is the lemma.  For W, D in induce_W(o1)_g maps o1_h into o1_{gh},
    so psi D psi^-1 maps o2_h into o2_{gh}: conjugation by psi carries each
    component of induce_W(o1) = g1 into that of induce_W(o2) = g2, and onto
    it, since both sides sum to W.  For S on "sub" inputs, g1 and g2 are
    the restrictions of those derivation gradings to S(m;1)^(1), which
    conjugation by a witness keeps, since the witness keeps the volume
    line.
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
    picks = frame_rows(o1)
    f1, d1, i1 = recognize(o1, picks)
    f2, d2, i2 = recognize(o2)
    if canonical_key(i1) != canonical_key(i2):
        return None
    cfg, s = g1.cfg, i1.s
    data = (cfg, d1[:s], d1[s:], d2[:s], d2[s:], i1.P)
    if volume and s < cfg.m:
        std2 = grade_O_construct(cfg, g1.group, d2[:s], d2[s:])
        mu1 = normalize_omega_S(AutO(_standard_bridge(*data)).compose_inverse(AutO(f1)), std2)
        mu2 = normalize_omega_S(AutO(f2).inverse(), std2)
        psi = mu2.inverse().compose(mu1)
        if psi.jacobian() != OElem.one(cfg):
            raise InternalError("witness must fix the volume form exactly")
    else:
        psi = AutO(_standard_bridge(*data, at=f2)).compose_inverse(AutO(f1))
        if volume and volume_factor(psi) is None:
            raise InternalError("full-rank witness must scale the volume form")
    _check_witness(psi, o1, o2, picks)
    return psi


def _check_witness(psi: AutO, o1: Grading, o2: Grading, picks) -> None:
    """Self-check of a positive decision, on the algebra gradings o1 and o2
    it was made on: equal block layouts, and psi maps every frame row of o1
    (picks, from gradings.frame_rows) into the block of o2 of the row's
    degree (the lemma of iso_decide).

    Both label tuples are sorted by coordinates, so the layouts are equal
    when the label tuples are.  The images of the m frame rows take one
    product with psi.matrix, and each degree among them one in_span test
    against its block of o2."""
    if o1.labels != o2.labels:
        raise InternalError("witness checked on gradings of different block layouts")
    p = o1.cfg.p
    images = linalg.matmul(o1.basis[picks], psi.matrix.T, p)
    degrees = [o1.labels[k] for k in picks]
    blocks = o2.blocks()
    for g in dict.fromkeys(degrees):
        if not in_span(images[[d == g for d in degrees]], o2.basis[blocks[g]], p):
            raise InternalError(f"witness does not transport the frame row of degree {g.coords}")


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
