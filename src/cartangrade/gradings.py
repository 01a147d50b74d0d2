"""Group gradings on the truncated algebra, its derivations, and subalgebras.

A grading is stored as one labelled basis matrix: a read-only int64 matrix
whose rows are homogeneous basis vectors in flat coordinates (coefficient
tables for ambient "O", stacked coefficient tables for "W" and "sub"), and
one degree label per row.  The rows are grouped by degree, the groups
sorted by degree coordinates, and rows keep their given order within a
group, so every degree of the support owns one contiguous block of rows;
degrees without rows have zero component.  Constructors produce the
standard gradings (degrees assigned to 1+x_i for toral axes and to x_i for
the rest), inductions transport them to derivations and to form-stabilizer
subalgebras, and the verifier checks the grading axioms from scratch.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import linalg
from .abgroup import AbGroup, GElem, PSubgroup, basis_with_product, p_independent
from .errors import (
    AdmissibilityError,
    ConfigError,
    DimensionError,
    GroupMismatchError,
    NoSuchBasisError,
    ObstructionError,
)
from .forms import algebra_rows, derived_rows
from .gfp import Config, alpha_table, radix_weights
from .oalg import OElem, mult_operator, z_basis_matrix
from .witt import WElem, ad_matrices

AMBIENTS = ("O", "W", "sub")

_DEPENDENT = "component vectors are linearly dependent"

# Bytes of each temporary of the verify_grading sweep: it takes as many
# basis rows per chunk as keep their stacked operators within this, and
# never fewer than one.
_SWEEP_BYTES = 1 << 18

# verify_grading's failure messages, indexed by the status codes it assigns.
_FAILURES = (None, "product escapes the subalgebra", "degree product outside support",
             "product misses its component")


class Grading:
    """Finite-support decomposition of an ambient space by group degrees.

    ambient is "O" (rows are algebra elements), "W" (derivations), or "sub"
    (derivations spanning a subalgebra, which is the span of the rows).
    basis is a read-only (dim x flat_size) int64 matrix of homogeneous rows
    and labels the degree of each row; the constructor sorts the rows stably
    by degree coordinates, so each degree of the support owns one block of
    consecutive rows, and keeps that block layout: blocks(), support() and
    the sweeps of verify_grading read it, never regrouping the labels.  It
    checks that the rows are independent and, for "O" and "W", that they
    exhaust the ambient dimension; multiplicativity is checked separately by
    verify_grading.  components (degree -> elements) is a view built from
    the matrix on each access and never cached.  origin is None except in
    two shapes: a standard "O"
    grading from grade_O_construct carries {"s": toral rank, "degrees": the
    m axis degrees}, which the fast induction and normalization paths read,
    and a "sub" grading from grade_S_construct or fine_grading carries
    {"o_grading": the inducing "O" grading}, which the volume-flavor
    decision reads.  Raw gradings carry origin=None and are handled through
    recognition.
    """

    def __init__(self, cfg: Config, group: AbGroup, ambient: str, basis, labels, origin=None):
        self._store(cfg, group, ambient, basis, labels, origin)
        if linalg.rank(self.basis, cfg.p) != self.dim():
            raise DimensionError(_DEPENDENT)

    def _store(self, cfg, group, ambient, basis, labels, origin):
        """Every check of the constructor but its elimination, and the
        sorted, reduced, read-only basis."""
        if ambient not in AMBIENTS:
            raise ConfigError(f"unknown ambient {ambient!r}")
        self.cfg = cfg
        self.group = group
        self.ambient = ambient
        canon = {}      # equal labels share one object
        for g in labels:
            if not isinstance(g, GElem) or g.group != group:
                raise GroupMismatchError(f"degree {g!r} does not live in {group!r}")
            canon.setdefault(g, g)
        order = sorted(range(len(labels)), key=lambda k: labels[k].coords)
        self.labels = tuple(canon[labels[k]] for k in order)
        # The block layout, degree -> slice of its rows: the runs of one
        # object in the sorted labels.
        self._layout, lo = {}, 0
        for _, run in itertools.groupby(self.labels, key=id):
            hi = lo + sum(1 for _ in run)
            self._layout[self.labels[lo]] = slice(lo, hi)
            lo = hi
        rows = np.asarray(basis, dtype=np.int64)
        if rows.size != len(labels) * self.flat_size:
            raise DimensionError(f"basis holds {rows.size} entries, not {len(labels)} rows "
                                 f"of {self.flat_size}")
        self.basis = rows.reshape(len(labels), self.flat_size)[order]     # a new array
        self.basis %= cfg.p
        self.basis.setflags(write=False)
        self.origin = origin
        if self.dim() != self.ambient_dim:
            raise DimensionError(
                f"components span dimension {self.dim()}, ambient needs {self.ambient_dim}")

    @classmethod
    def _deferred(cls, cfg: Config, group: AbGroup, ambient: str, basis, labels) -> "Grading":
        """The grading without the constructor's elimination.  Three callers
        build through it, each with its own reason the rows are independent:
        verify_grading (for grade verify) eliminates the basis itself and
        raises the constructor's DimensionError when they are not;
        autos.push_grading maps a grading's basis through an automorphism,
        which is invertible; classify.o_grading_from_w inverts the basis in
        its certificate and refuses the candidate when that fails."""
        grading = cls.__new__(cls)
        grading._store(cfg, group, ambient, basis, labels, None)
        return grading

    # -- bookkeeping ---------------------------------------------------
    @property
    def ambient_dim(self) -> int:
        return self.dim() if self.ambient == "sub" else self.flat_size

    @property
    def flat_size(self) -> int:
        return self.cfg.n if self.ambient == "O" else self.cfg.m * self.cfg.n

    def dim(self) -> int:
        return self.basis.shape[0]

    def blocks(self) -> dict:
        """degree -> slice of its rows in basis, in support order: a copy of
        the layout the constructor kept."""
        return dict(self._layout)

    def support(self) -> tuple:
        return tuple(self._layout)

    @property
    def components(self) -> dict:
        """degree -> tuple of its basis rows as OElem or WElem objects."""
        element = OElem if self.ambient == "O" else WElem.from_flat
        return {g: tuple(element(self.cfg, row) for row in self.basis[sl])
                for g, sl in self._layout.items()}

    def decompose(self, vec) -> dict:
        """Coordinates of vec over the basis rows, grouped by degree: degree ->
        one coefficient per row of its block, for the degrees where any is
        nonzero.  One solve against the basis matrix."""
        flat = vec.table if self.ambient == "O" else vec.flat()
        sol = linalg.solve(self.basis.T, flat, self.cfg.p)
        if sol is None:
            raise DimensionError("vector lies outside the span of the homogeneous basis")
        return {g: [int(c) for c in sol[sl]] for g, sl in self._layout.items() if sol[sl].any()}

    def degree_of(self, vec):
        """The degree of a homogeneous vector, or None if it straddles degrees."""
        parts = self.decompose(vec)
        if len(parts) != 1:
            return None
        return next(iter(parts))

    def same_components(self, other: "Grading") -> bool:
        """Equality of the decompositions as spans, degree by degree: this
        grading's block lies in the span of the other's (in_span).  Both
        blocks have independent rows (a grading's rows are), so when they
        have equal sizes containment is equality."""
        if (self.cfg, self.group, self.ambient) != (other.cfg, other.group, other.ambient):
            return False
        if list(self._layout.items()) != list(other._layout.items()):
            return False
        return all(in_span(self.basis[sl], other.basis[sl], self.cfg.p)
                   for sl in self._layout.values())

    def __repr__(self) -> str:
        dims = {g.coords: sl.stop - sl.start for g, sl in self._layout.items()}
        return f"Grading(ambient={self.ambient}, group={self.group!r}, dims={dims})"


def in_span(rows, block, p: int) -> bool:
    """Whether every row lies in the row span of block: one RREF of block,
    and a row lies in its span when it equals its pivot coordinates times
    the RREF."""
    ech, pivots = linalg.rref(block, p)
    return np.array_equal(rows, linalg.matmul(rows[:, pivots], ech, p))


def _degree_of_exponents(group: AbGroup, degrees, alpha) -> GElem:
    g = group.identity()
    for a, e in zip(degrees, alpha):
        e = int(e)
        if e:
            g = g * a**e
    return g


def check_toral_orders(cfg: Config, b_list) -> None:
    """Refuse toral degrees whose order is not p (NoSuchBasisError)."""
    for b in b_list:
        if b.order() != cfg.p:
            raise NoSuchBasisError(f"{b!r} does not have order {cfg.p}")


def grade_O_construct(cfg: Config, group: AbGroup, b_list, gamma) -> Grading:
    """Standard grading of the truncated algebra from degree assignments.

    Assigns degree b_i to 1+x_i for the first s axes (the b_i must be
    independent of order p) and degree gamma_k to x_{s+k} for the rest; the
    component of degree g is spanned by the mixed monomials whose exponent
    degree-product equals g.
    """
    b_list = tuple(b_list)
    gamma = tuple(gamma)
    if len(b_list) + len(gamma) != cfg.m:
        raise DimensionError(f"{len(b_list)}+{len(gamma)} degree assignments for m={cfg.m} axes")
    for g in b_list + gamma:
        if not isinstance(g, GElem) or g.group != group:
            raise GroupMismatchError("degree outside the grading group")
    check_toral_orders(cfg, b_list)
    if not p_independent(b_list):
        raise NoSuchBasisError("toral degrees are dependent")
    s = len(b_list)
    degrees = b_list + gamma
    labels = [_degree_of_exponents(group, degrees, alpha) for alpha in alpha_table(cfg.p, cfg.m)]
    return Grading(cfg, group, "O", z_basis_matrix(cfg, s).T, labels,
                   origin={"s": s, "degrees": degrees})


def induce_W(grading: Grading) -> Grading:
    """Transport a grading of the algebra to its derivations.

    Standard gradings use the literal degree formula: the derivation
    u(alpha) d/dx_i is homogeneous of degree (prod_k a_k^{alpha_k}) a_i^{-1}.
    Raw gradings are first recognized, which rewrites them over a standard
    frame, and the formula is applied through that frame.
    """
    if grading.ambient != "O":
        raise AdmissibilityError(f"can only induce from the algebra grading, got {grading.ambient!r}")
    cfg = grading.cfg
    m, n = cfg.m, cfg.n
    if grading.origin is not None:
        s = grading.origin["s"]
        degrees = grading.origin["degrees"]
        inv = [a.inverse() for a in degrees]
        labels = []
        for alpha in alpha_table(cfg.p, m):
            base = _degree_of_exponents(grading.group, degrees, alpha)
            labels += [base * a for a in inv]
        # Row (alpha, i) is u(alpha) d/dx_i: coefficient table i is u(alpha).
        rows = np.zeros((n, m, m, n), dtype=np.int64)
        zt = z_basis_matrix(cfg, s).T
        for i in range(m):
            rows[:, i, i, :] = zt
        return Grading(cfg, grading.group, "W", rows.reshape(n * m, m * n), labels)
    # autos and classify import this module, so the raw path imports them here.
    from .autos import AutO, push_grading
    from .classify import _recognize_frame

    frame, degrees, inv = _recognize_frame(grading)
    standard = grade_O_construct(cfg, grading.group, degrees[:inv.s], degrees[inv.s:])
    return push_grading(AutO(frame), induce_W(standard))


def induce_subalgebra(w_grading: Grading, sub_rows) -> Grading:
    """Restrict a derivation grading to a graded subalgebra given by basis rows.

    Components are exact intersections of the subalgebra with the homogeneous
    components; if their dimensions do not exhaust the subalgebra, the
    subspace was not graded and the restriction is refused.
    """
    if w_grading.ambient != "W":
        raise AdmissibilityError("subalgebra induction starts from the derivation grading")
    cfg = w_grading.cfg
    sub = np.asarray(sub_rows, dtype=np.int64) % cfg.p
    sub_rank = linalg.rank(sub, cfg.p)
    if sub_rank != sub.shape[0]:
        raise DimensionError("subalgebra basis rows are dependent")
    rows, labels = [], []
    for g, sl in w_grading.blocks().items():
        meet = linalg.intersect_row_spaces(sub, w_grading.basis[sl], cfg.p)
        rows.append(meet)
        labels += [g] * meet.shape[0]
    if len(labels) != sub_rank:
        raise AdmissibilityError(
            f"subspace is not graded: components cover {len(labels)} of {sub_rank} dimensions")
    return Grading(cfg, w_grading.group, "sub", np.vstack(rows), labels)


def _s_rows(cfg: Config):
    """Basis rows of the simple derived algebra of the volume-form stabilizer:
    the second derived algebra at m = 2, the first beyond.  At m = 1 the
    stabilizer is spanned by d/dx_1 and its derived algebra is 0, so the
    volume flavor is refused there."""
    if cfg.m < 2:
        raise ConfigError(f"the volume flavor needs m >= 2, got m = {cfg.m}")
    return derived_rows(cfg, algebra_rows(cfg, "S"), iterations=2 if cfg.m == 2 else 1)


def grade_S_construct(cfg: Config, group: AbGroup, psub: PSubgroup, gamma, g0: GElem) -> Grading:
    """Grading of the volume-form stabilizer's simple derived algebra.

    The degree data must satisfy: g0 * (product of gamma)^{-1} lies in the
    given p-subgroup, is the identity exactly when the subgroup is trivial,
    and otherwise forces a subgroup basis with product matching it (toral
    rank obstruction: at full rank the identity volume degree is impossible).
    """
    gamma = tuple(gamma)
    if psub.s + len(gamma) != cfg.m:
        raise DimensionError(f"rank {psub.s} plus {len(gamma)} degrees must cover m={cfg.m}")
    target = g0
    for g in gamma:
        target = target * g.inverse()
    if target not in psub:
        raise ObstructionError(
            "volume degree must sit over the product of the non-toral degrees")
    if psub.s == 0:
        if not target.is_identity:
            raise ObstructionError("with trivial toral part the volume degree is forced")
        b_list = []
    else:
        if target.is_identity:
            raise ObstructionError(
                "identity volume degree is impossible at toral rank s >= 1")
        b_list = basis_with_product(psub, target)
    return _induce_S(grade_O_construct(cfg, group, b_list, gamma))


def _induce_S(o_grading: Grading) -> Grading:
    """The grading an algebra grading induces on the volume flavor's simple
    algebra, carrying o_grading as origin["o_grading"] for the decisions."""
    # The subalgebra rows first: their derived-algebra temporaries are the
    # largest of the construct, and the W grading (an (mn x mn) basis) need
    # not be alive under them.
    rows = _s_rows(o_grading.cfg)
    out = induce_subalgebra(induce_W(o_grading), rows)
    out.origin = {"o_grading": o_grading}
    return out


class GradingReport:
    """Outcome of a from-scratch grading verification."""

    def __init__(self, ok: bool, failures, pairs_checked: int):
        self.ok = ok
        self.failures = list(failures)
        self.pairs_checked = pairs_checked

    def __repr__(self) -> str:
        status = "ok" if self.ok else f"{len(self.failures)} failures"
        return f"GradingReport({status}, pairs={self.pairs_checked})"


def _rank_in(values, x):
    """Position of the first occurrence of each entry of x in the sorted 1-D
    array values, or -1 where it does not occur."""
    pos = np.searchsorted(values, x)
    hit = pos < len(values)
    hit[hit] = values[pos[hit]] == x[hit]
    return np.where(hit, pos, -1)


def _degree_table(group: AbGroup, supp, right=None) -> np.ndarray:
    """target[i, j]: the index in supp of supp[i] * right[j], or -1 when the
    product lies outside the support; right defaults to supp.  supp is
    sorted by coordinates, as Grading.support() is.

    Works on the label coordinates as arrays, one slot at a time: free slots
    add, torsion slots add mod their order.  key holds, for every support
    element and then every product, the position of its coordinate prefix
    among the sorted prefixes of the support (-1 once no support element
    shares it); positions stay below k, so key * k + position is exact.
    After the last slot a product's key is its index in supp.  Coordinates are
    int64 while every sum fits, and Python ints (object arrays) otherwise,
    so the table is exact for any coordinates.
    """
    right = supp if right is None else right
    k, r = len(supp), len(right)
    coords, rcoords = [g.coords for g in supp], [g.coords for g in right]
    small = max((abs(c) for c in itertools.chain(*coords, *rcoords, group.torsion)),
                default=0) < 2**62
    dtype = np.int64 if small else object
    lab = np.array(coords, dtype=dtype).reshape(k, group.rank)
    rlab = np.array(rcoords, dtype=dtype).reshape(r, group.rank)
    key = np.zeros(k + k * r, dtype=np.int64)
    for j in range(group.rank):
        col = lab[:, j]
        prod = (col[:, None] + rlab[None, :, j]).ravel()
        if j >= group.free_rank:
            prod %= group.torsion[j - group.free_rank]
        pos = _rank_in(np.sort(col), np.concatenate([col, prod]))
        key = np.where((key < 0) | (pos < 0), -1, key * k + pos)
        key = _rank_in(np.sort(key[:k]), key)
    return key[k:].reshape(k, r)


def _row_blocks(grading: Grading) -> np.ndarray:
    """The index in grading.support() of each basis row's degree."""
    sizes = [sl.stop - sl.start for sl in grading._layout.values()]
    return np.repeat(np.arange(len(sizes)), sizes)


def frame_rows(grading: Grading) -> list:
    """Indices of the basis rows of an "O" grading whose linear parts (the
    coefficients of x_1..x_m) are independent of those picked before them,
    picked greedily in row order until they span the cotangent space: m
    rows, since the basis spans the algebra.

    They are the pivot columns of the RREF of the m x dim matrix whose
    column k is the linear part of row k: column k is a pivot exactly when
    it is not in the span of the columns before it, the greedy test."""
    cfg = grading.cfg
    return linalg.rref(grading.basis[:, radix_weights(cfg.p, cfg.m)].T, cfg.p)[1]


def _generator_rows(grading: Grading, coords_of):
    """The certificate's data for an "O" grading: the frame rows, or None
    when 1 has coordinates outside the identity block.  coords_of is the
    inverse of the (square, invertible) basis matrix, so its row 0 holds
    the coordinates of 1."""
    identity = grading._layout.get(grading.group.identity())
    one = coords_of[0]
    if identity is None or one[:identity.start].any() or one[identity.stop:].any():
        return None
    return frame_rows(grading)


def _operators(grading: Grading, rows) -> np.ndarray:
    """The operators of the given basis rows, stacked into one (k, F, F)
    array over the flat size F: multiplication by the row for "O" (one
    stacked mult_operator), ad of the row for "W" and "sub" (one
    ad_matrices)."""
    if grading.ambient == "O":
        return mult_operator(grading.cfg, grading.basis[rows])
    return ad_matrices(grading.cfg, grading.basis[rows])


def verify_grading(grading: Grading) -> GradingReport:
    """Check the grading axioms directly: direct sum plus multiplicativity.

    The direct-sum property is enforced by the Grading constructor (for a
    grading from Grading._deferred, by the elimination below), so this
    checks multiplicativity: every product
    (algebra products for ambient "O", brackets otherwise) of homogeneous
    basis vectors lands in the component of the degree product, or vanishes
    when that degree is outside the support.

    The sweep takes the basis rows in chunks.  For a chunk of rows u it
    builds their operators with one call, stacked into one array: one
    mult_operator (multiplication by u) for "O", one ad_matrices (ad(u))
    for "W" and "sub".  One product with the basis gives u times every row
    for every u of the chunk; one more product with the inverse of
    basis[:, pivots], computed once per call, gives the coordinates of all
    those products over the basis.  The basis and that inverse are cast to
    float64 once per call, not once per chunk.  A chunk holds as many rows
    as keep each operator stack within _SWEEP_BYTES (at least one row): 13
    operators of side 50 for W at p = 5, m = 2, and one row per chunk from
    flat size 182 up.  A product lies in its target
    component when its coordinates vanish off that degree's block; on "sub"
    it must first lie in the subalgebra at all.  The degree products come
    from one table over the support (_degree_table).  The outcome of a pair
    is symmetric: v u = u v for "O" and [v, u] = -[u, v] otherwise, which
    vanishes, lies in the subalgebra and has nonzero coordinates exactly
    where [u, v] does, and the degree table is symmetric, the group being
    abelian.  So the sweep multiplies each chunk only with the rows from
    its own first row on, and mirrors the outcomes.  That inverse (for
    "sub", the elimination that finds the pivots) is also the check that the
    rows are independent: a grading from Grading._deferred with dependent
    rows raises the constructor's DimensionError here.

    Certificate (ambient "O").  If 1 has coordinates only in the identity
    block, and m rows u_1..u_m with independent linear parts pass the
    check, every pair holds and the other rows are not checked.
    Proof: write a_i for the degree of u_i and V_g for the components (V_g
    = 0 off the support).  The u_i minus their constant terms lie in the
    maximal ideal with independent linear parts, so by Nakayama they
    generate O as a unital algebra, and so do the u_i: the monomials in the
    u_i span O.  Give the monomial prod u_i^{c_i} the degree prod a_i^{c_i}.
    Since 1 is in V_e and the check gives u_i V_h inside V_{a_i h} for every
    h, induction on the number of factors puts every monomial of degree g in
    V_g (so it is 0 when g is off the support).  The monomials span
    O = (+) V_g and the sum is direct, so each V_g is spanned by the
    monomials of degree g.  A product of monomials of degrees g and h is a
    monomial of degree gh, so V_g V_h lies in V_{gh} for all g, h.  The
    certificate rows are checked first, as a chunk of their own, against
    every row; if one fails, the sweep runs on every other row, which lists
    the failures.  W and "sub" always take the full sweep.

    Failures are listed by degree pair (g, h) in support order, then by row
    pair; pairs_checked is dim^2 either way: the pairs checked or certified.
    """
    p = grading.cfg.p
    basis, labels = grading.basis, grading.labels
    dim, flat = grading.dim(), grading.flat_size
    block = _row_blocks(grading)
    target = _degree_table(grading.group, grading.support())
    # "O" and "W" bases are square, so every column is a pivot once the rows
    # are independent; a "sub" basis has more columns.
    pivots = linalg.rref(basis, p)[1] if grading.ambient == "sub" else slice(None)
    try:
        coords_of = linalg.inverse(basis[:, pivots], p)
    except NoSuchBasisError:
        raise DimensionError(_DEPENDENT) from None
    status = np.zeros((dim, dim), dtype=np.int8)      # index into _FAILURES
    chunk = max(1, _SWEEP_BYTES // (8 * flat * flat))
    # The fixed factors of every chunk's products, cast to float64 once.
    basis_f, coords_f = basis.astype(np.float64), coords_of.astype(np.float64)

    def check_rows(rows, half):
        for lo in range(0, len(rows), chunk):
            ks = rows[lo:lo + chunk]
            c = len(ks)
            first = int(ks[0]) if half else 0
            vs = basis_f[first:]
            w = len(vs)
            ops = _operators(grading, ks).reshape(c * flat, flat)
            # prods[i, :, j]: u * v or [u, v] for the i-th row u of the chunk
            # and the j-th row v of vs
            prods = linalg.matmul(ops, vs.T, p).reshape(c, flat, w)
            coords = linalg.matmul(prods[:, pivots].transpose(0, 2, 1).reshape(c * w, dim),
                                   coords_f, p)
            tgt = target[block[ks]][:, block[first:]]
            stray = ((coords.reshape(c, w, dim) != 0) & (block != tgt[:, :, None])).any(axis=2)
            escaped = np.zeros((c, w), dtype=bool)
            if grading.ambient == "sub":
                back = linalg.matmul(coords, basis_f, p).reshape(c, w, flat)
                escaped = (back != prods.transpose(0, 2, 1)).any(axis=2)
            status[ks, first:] = np.select([~prods.any(axis=1), escaped, tgt < 0, stray],
                                           [0, 1, 2, 3])

    rows = np.arange(dim)
    gens = _generator_rows(grading, coords_of) if grading.ambient == "O" else None
    if gens is not None:
        check_rows(gens, half=False)
        rows = np.delete(rows, gens) if status.any() else rows[:0]
    check_rows(rows, half=True)
    status = np.maximum(status, status.T)
    us, vs = np.nonzero(status)
    order = np.lexsort((vs, us, block[vs], block[us]))
    us, vs = us[order], vs[order]
    degrees = [g.coords for g in labels]
    failures = [(degrees[u], degrees[v], _FAILURES[s])
                for u, v, s in zip(us.tolist(), vs.tolist(), status[us, vs].tolist())]
    return GradingReport(not failures, failures, dim * dim)


def fine_grading(cfg: Config, s: int, ambient: str = "O") -> Grading:
    """The maximally refined grading with toral rank s over Z^(m-s) x Z_p^s.

    Free coordinates come first in the universal group's coordinate tuples,
    then the p-torsion ones.  For the algebra ambient every component is a
    single mixed monomial; derivations and the simple subalgebra inherit it.
    """
    if not 0 <= s <= cfg.m:
        raise DimensionError(f"toral rank {s} out of range 0..{cfg.m}")
    group = AbGroup(cfg.m - s, (cfg.p,) * s)
    b_list = [group.element(tuple(0 for _ in range(cfg.m - s)) + tuple(1 if j == i else 0 for j in range(s)))
              for i in range(s)]
    gamma = [group.element(tuple(1 if j == i else 0 for j in range(cfg.m - s)) + (0,) * s)
             for i in range(cfg.m - s)]
    o_grading = grade_O_construct(cfg, group, b_list, gamma)
    if ambient == "O":
        return o_grading
    if ambient == "W":
        return induce_W(o_grading)
    if ambient == "S":
        return _induce_S(o_grading)
    raise ConfigError(f"unknown ambient {ambient!r}")
