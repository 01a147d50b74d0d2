"""Group gradings on the truncated algebra, its derivations, and subalgebras.

A grading is stored as a finite map degree -> homogeneous basis vectors;
degrees outside the map have zero component.  Constructors produce the
standard gradings (degrees assigned to 1+x_i for toral axes and to x_i for
the rest), inductions transport them to derivations and to form-stabilizer
subalgebras, and the verifier checks the grading axioms from scratch.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .abgroup import AbGroup, GElem, PSubgroup, p_independent
from .errors import (
    AdmissibilityError,
    ConfigError,
    ConfigMismatchError,
    DimensionError,
    GroupMismatchError,
    InternalError,
    NoSuchBasisError,
    ObstructionError,
)
from .gfp import Config, alpha_table
from .oalg import OElem, z_basis_matrix
from .witt import WElem

AMBIENTS = ("O", "W", "sub")


def _flatten(vec) -> np.ndarray:
    if isinstance(vec, OElem):
        return vec.table
    if isinstance(vec, WElem):
        return vec.flat()
    raise DimensionError(f"cannot flatten {type(vec).__name__}")


class Grading:
    """Finite-support decomposition of an ambient space by group degrees.

    ambient is "O" (vectors are algebra elements), "W" (derivations), or
    "sub" (derivations spanning the subalgebra sub_basis).  The constructor
    checks that the listed vectors are independent and exhaust the ambient
    dimension; multiplicativity is checked separately by verify_grading.
    origin optionally records standard construction data (toral rank s and
    the m axis degrees) used by fast induction paths; raw gradings carry
    origin=None and are handled through recognition.
    """

    def __init__(self, cfg: Config, group: AbGroup, ambient: str, components,
                 sub_basis=None, origin=None):
        if ambient not in AMBIENTS:
            raise ConfigError(f"unknown ambient {ambient!r}")
        self.cfg = cfg
        self.group = group
        self.ambient = ambient
        comp = {}
        for g, vecs in (components.items() if isinstance(components, dict) else components):
            if not isinstance(g, GElem) or g.group != group:
                raise GroupMismatchError(f"degree {g!r} does not live in {group!r}")
            vecs = tuple(vecs)
            if not vecs:
                continue
            for v in vecs:
                if v.cfg != cfg:
                    raise ConfigMismatchError("component vector built over a different config")
            if g in comp:
                raise DimensionError(f"degree {g!r} listed twice")
            comp[g] = vecs
        self.components = {g: comp[g] for g in sorted(comp, key=lambda e: e.coords)}
        if ambient == "sub":
            if sub_basis is None:
                raise DimensionError("sub ambient needs the subalgebra basis")
            self.sub_basis = tuple(sub_basis)
        else:
            self.sub_basis = None
        self.origin = origin
        self._membership = {}
        self._check_direct_sum()

    # -- bookkeeping ---------------------------------------------------
    @property
    def ambient_dim(self) -> int:
        if self.ambient == "O":
            return self.cfg.n
        if self.ambient == "W":
            return self.cfg.m * self.cfg.n
        return len(self.sub_basis)

    @property
    def flat_size(self) -> int:
        return self.cfg.n if self.ambient == "O" else self.cfg.m * self.cfg.n

    def dim(self) -> int:
        return sum(len(v) for v in self.components.values())

    def support(self) -> tuple:
        return tuple(self.components)

    def component(self, g: GElem) -> tuple:
        return self.components.get(g, ())

    def _stack(self) -> np.ndarray:
        rows = [_flatten(v) for vecs in self.components.values() for v in vecs]
        return np.array(rows, dtype=np.int64)

    def _check_direct_sum(self):
        total = self.dim()
        if total != self.ambient_dim:
            raise DimensionError(f"components span dimension {total}, ambient needs {self.ambient_dim}")
        span = linalg.row_space(self._stack(), self.cfg.p)
        if span.shape[0] != total:
            raise DimensionError("component vectors are linearly dependent")
        if self.ambient == "sub":
            sub = np.array([_flatten(v) for v in self.sub_basis], dtype=np.int64)
            sub_span = linalg.row_space(sub, self.cfg.p)
            if sub_span.shape[0] != len(self.sub_basis):
                raise DimensionError("subalgebra basis is dependent")
            # Both spans have dimension total, so they agree iff their
            # canonical bases do.
            if not np.array_equal(span, sub_span):
                raise DimensionError("component vectors leave the subalgebra")

    def _space(self, g: GElem) -> linalg.EchelonSpace:
        if g not in self._membership:
            space = linalg.EchelonSpace(self.flat_size, self.cfg.p)
            vecs = self.components.get(g, ())
            if vecs:
                space.add_batch(np.array([_flatten(v) for v in vecs], dtype=np.int64))
            self._membership[g] = space
        return self._membership[g]

    def contains(self, g: GElem, vec) -> bool:
        flat = _flatten(vec)
        if not flat.any():
            return True
        return self._space(g).contains(flat)

    def decompose(self, vec) -> dict:
        """Coordinates of vec over the homogeneous basis, grouped by degree.

        The basis matrix is stacked afresh on each call rather than cached:
        it would duplicate every component vector, and solve copies it anyway.
        """
        slots = [g for g, vecs in self.components.items() for _ in vecs]
        sol = linalg.solve(self._stack().T, _flatten(vec), self.cfg.p)
        if sol is None:
            raise DimensionError("vector lies outside the span of the homogeneous basis")
        out = {}
        for g, c in zip(slots, sol):
            if c:
                out.setdefault(g, []).append(int(c))
            else:
                out.setdefault(g, []).append(0)
        return {g: coeffs for g, coeffs in out.items() if any(coeffs)}

    def degree_of(self, vec):
        """The degree of a homogeneous vector, or None if it straddles degrees."""
        parts = self.decompose(vec)
        if len(parts) != 1:
            return None
        return next(iter(parts))

    def same_components(self, other: "Grading") -> bool:
        """Equality of the decompositions as spans, degree by degree."""
        if (self.cfg, self.group, self.ambient) != (other.cfg, other.group, other.ambient):
            return False
        if self.support() != other.support():
            return False
        for g in self.components:
            a = linalg.row_space(np.array([_flatten(v) for v in self.components[g]], dtype=np.int64), self.cfg.p)
            b = linalg.row_space(np.array([_flatten(v) for v in other.components[g]], dtype=np.int64), self.cfg.p)
            if a.shape != b.shape or not np.array_equal(a, b):
                return False
        return True

    def __repr__(self) -> str:
        dims = {g.coords: len(v) for g, v in self.components.items()}
        return f"Grading(ambient={self.ambient}, group={self.group!r}, dims={dims})"


def _degree_of_exponents(group: AbGroup, degrees, alpha) -> GElem:
    g = group.identity()
    for a, e in zip(degrees, alpha):
        e = int(e)
        if e:
            g = g * a**e
    return g


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
    for b in b_list:
        if b.order() != cfg.p:
            raise NoSuchBasisError(f"{b!r} does not have order {cfg.p}")
    if not p_independent(b_list):
        raise NoSuchBasisError("toral degrees are dependent")
    s = len(b_list)
    degrees = b_list + gamma
    zb = z_basis_matrix(cfg, s)
    comps = {}
    for idx, alpha in enumerate(alpha_table(cfg.p, cfg.m)):
        g = _degree_of_exponents(group, degrees, alpha)
        comps.setdefault(g, []).append(OElem(cfg, zb[:, idx]))
    origin = {"s": s, "degrees": degrees}
    return Grading(cfg, group, "O", comps, origin=origin)


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
    if grading.origin is not None:
        s = grading.origin["s"]
        degrees = grading.origin["degrees"]
        zb = z_basis_matrix(cfg, s)
        inv = [a.inverse() for a in degrees]
        comps = {}
        for idx, alpha in enumerate(alpha_table(cfg.p, cfg.m)):
            base = _degree_of_exponents(grading.group, degrees, alpha)
            col = zb[:, idx]
            for i in range(cfg.m):
                tables = np.zeros((cfg.m, cfg.n), dtype=np.int64)
                tables[i] = col
                comps.setdefault(base * inv[i], []).append(WElem(cfg, tables))
        return Grading(cfg, grading.group, "W", comps,
                       origin={"s": s, "degrees": degrees})
    from .autos import AutO
    from .classify import recognize_O

    frame, inv = recognize_O(grading)
    gamma = [grading.degree_of(y) for y in frame[inv.s:]]
    standard = grade_O_construct(cfg, grading.group, list(inv.P.basis), gamma)
    w_std = induce_W(standard)
    frame_auto = AutO(frame)
    comps = {g: [frame_auto.push_derivation(d) for d in vecs]
             for g, vecs in w_std.components.items()}
    return Grading(cfg, grading.group, "W", comps)


def _frame_data(grading: Grading):
    """(s, frame elements y_1..y_m, axis degrees) describing the grading."""
    cfg = grading.cfg
    if grading.origin is not None:
        s = grading.origin["s"]
        ys = [OElem.variable(cfg, i) for i in range(1, cfg.m + 1)]
        return s, ys, list(grading.origin["degrees"])
    from .classify import recognize_O

    frame, inv = recognize_O(grading)
    degrees = list(inv.P.basis) + [grading.degree_of(y) for y in frame[inv.s:]]
    return inv.s, list(frame), degrees


def _mixed_frame_monomial(cfg: Config, s: int, ys, alpha) -> OElem:
    out = OElem.one(cfg)
    for i, (y, e) in enumerate(zip(ys, alpha)):
        e = int(e)
        if i < s:
            out = out * (OElem.one(cfg) + y) ** e
        elif e:
            out = out * y**e
    return out


def admissible_degree(grading: Grading, which: str = "S"):
    """Degree of the volume (S) or symplectic (H) form, or None if inhomogeneous.

    The form is decomposed over the grading induced on forms by a frame of
    the grading: the forms u * dy_{i_1} ^ ... ^ dy_{i_k} with u a mixed
    frame monomial are a homogeneous basis, of degree deg(u) a_{i_1}..a_{i_k}.
    """
    from .forms import differential, omega_symplectic, omega_volume, subset_list

    cfg = grading.cfg
    if grading.ambient != "O":
        raise AdmissibilityError("admissibility applies to gradings of the algebra")
    if which == "S":
        omega = omega_volume(cfg)
    elif which == "H":
        omega = omega_symplectic(cfg)
    else:
        raise ConfigError(f"unknown form kind {which!r}")
    s, ys, degrees = _frame_data(grading)
    k = omega.k
    dys = [differential(y) for y in ys]
    subsets = subset_list(cfg.m, k)
    cols = []
    slots = []
    for sub in subsets:
        wedge = dys[sub[0] - 1]
        for i in sub[1:]:
            wedge = wedge.wedge(dys[i - 1])
        sub_deg = grading.group.identity()
        for i in sub:
            sub_deg = sub_deg * degrees[i - 1]
        for alpha in alpha_table(cfg.p, cfg.m):
            u = _mixed_frame_monomial(cfg, s, ys, alpha)
            scaled = wedge * u
            cols.append(scaled.tables.reshape(-1))
            slots.append(_degree_of_exponents(grading.group, degrees, alpha) * sub_deg)
    mat = np.array(cols, dtype=np.int64).T
    sol = linalg.solve(mat, omega.tables.reshape(-1), cfg.p)
    if sol is None:
        raise InternalError("the frame forms do not span the form space")
    found = {slots[i] for i in np.flatnonzero(sol)}
    if len(found) != 1:
        return None
    return found.pop()


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
    comps = {}
    total = 0
    for g in w_grading.support():
        wg = np.array([_flatten(v) for v in w_grading.components[g]], dtype=np.int64)
        meet = linalg.intersect_row_spaces(sub, wg, cfg.p)
        if meet.shape[0]:
            comps[g] = [WElem.from_flat(cfg, row) for row in meet]
            total += meet.shape[0]
    if total != sub_rank:
        raise AdmissibilityError(
            f"subspace is not graded: components cover {total} of {sub_rank} dimensions")
    basis = [WElem.from_flat(cfg, row) for row in sub]
    return Grading(cfg, w_grading.group, "sub", comps, sub_basis=basis)


def grade_S_construct(cfg: Config, group: AbGroup, psub: PSubgroup, gamma, g0: GElem,
                      derived_iterations=None) -> Grading:
    """Grading of the volume-form stabilizer's simple derived algebra.

    The degree data must satisfy: g0 * (product of gamma)^{-1} lies in the
    given p-subgroup, is the identity exactly when the subgroup is trivial,
    and otherwise forces a subgroup basis with product matching it (toral
    rank obstruction: at full rank the identity volume degree is impossible).
    """
    from .abgroup import basis_with_product
    from .forms import algebra_rows, derived_rows

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
    o_grading = grade_O_construct(cfg, group, b_list, gamma)
    w_grading = induce_W(o_grading)
    rows = algebra_rows(cfg, "S")
    if derived_iterations is None:
        derived_iterations = 2 if cfg.m == 2 else 1
    rows = derived_rows(cfg, rows, iterations=derived_iterations)
    out = induce_subalgebra(w_grading, rows)
    out.origin = {"o_grading": o_grading, "g0": g0}
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


def verify_grading(grading: Grading) -> GradingReport:
    """Check the grading axioms directly: direct sum plus multiplicativity.

    The direct-sum property is enforced by the Grading constructor, so this
    re-checks it cheaply and then sweeps all products (algebra products for
    ambient "O", brackets otherwise) of homogeneous basis vectors, requiring
    each to land in the component of the degree product — or to vanish when
    that degree is outside the support.
    """
    cfg = grading.cfg
    failures = []
    if grading.dim() != grading.ambient_dim:
        failures.append(("dimension", None, f"{grading.dim()} != {grading.ambient_dim}"))
    pairs = 0
    inside = None
    if grading.ambient == "sub":
        inside = linalg.EchelonSpace(grading.flat_size, cfg.p)
        inside.add_batch(np.array([_flatten(b) for b in grading.sub_basis], dtype=np.int64))
    supp = grading.support()
    for g in supp:
        for h in supp:
            gh = g * h
            target_exists = gh in grading.components
            for u in grading.components[g]:
                for v in grading.components[h]:
                    prod = u * v if grading.ambient == "O" else u.bracket(v)
                    pairs += 1
                    if not prod:
                        continue
                    if inside is not None and not inside.contains(_flatten(prod)):
                        failures.append((g.coords, h.coords, "product escapes the subalgebra"))
                        continue
                    if not target_exists:
                        failures.append((g.coords, h.coords, "degree product outside support"))
                    elif not grading.contains(gh, prod):
                        failures.append((g.coords, h.coords, "product misses its component"))
    return GradingReport(not failures, failures, pairs)


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
        from .forms import algebra_rows, derived_rows

        w_grading = induce_W(o_grading)
        rows = derived_rows(cfg, algebra_rows(cfg, "S"), iterations=2 if cfg.m == 2 else 1)
        return induce_subalgebra(w_grading, rows)
    raise ConfigError(f"unknown ambient {ambient!r}")


def support_subgroup(grading: Grading) -> tuple:
    """The support, sorted; generates the same subgroup across O/W/S gradings."""
    return tuple(sorted(grading.support(), key=lambda g: g.coords))
