"""Column-solve route to the volume and symplectic form degrees.

The form is decomposed over the forms u * dy_{i_1} ^ ... ^ dy_{i_k} of a
frame, one column per wedge and mixed frame monomial.  Apart from the frame
that recognize_O finds, it shares no code with recognize_S, which reads the
volume degree off the frame jacobian; it is the oracle for that route.
"""

import numpy as np

from cartangrade import linalg
from cartangrade.errors import AdmissibilityError, ConfigError, InternalError
from cartangrade.gfp import Config, alpha_table
from cartangrade.gradings import Grading, _degree_of_exponents
from cartangrade.oalg import OElem


def _frame_data(grading: Grading):
    """(s, frame elements y_1..y_m, axis degrees) describing the grading."""
    cfg = grading.cfg
    if grading.origin is not None:
        s = grading.origin["s"]
        ys = [OElem.variable(cfg, i) for i in range(1, cfg.m + 1)]
        return s, ys, list(grading.origin["degrees"])
    from cartangrade.classify import recognize_O

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
    from cartangrade.forms import differential, omega_symplectic, omega_volume, subset_list

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
