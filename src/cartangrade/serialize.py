"""Deterministic JSON serialization of every value the CLI reads or writes.

Schemas (field order fixed, integers decimal):

  function        {"basis": "x", "m": int, "p": int,
                   "terms": [{"alpha": [int...], "c": int}, ...]}
  derivation      {"coeffs": [<function>, ...]}
  group           {"free_rank": int, "torsion": [int...]}
  grading         {"group": <group>, "ambient": "O"|"W"|"sub",
                   "components": [{"degree": [int...],
                   "basis": [<function>|<derivation>, ...]}, ...]}
  automorphism    {"images": [<function>, ...]}
  invariants      {"P": [[int...], ...], "s": int,
                   "gamma": [{"rep": [int...], "mult": int}, ...],
                   "g0": [int...] | null}

Terms are listed in increasing flat-index order, grading components sorted
by degree coordinates; zero terms are dropped.  With those conventions
serialize(parse(text)) == text byte for byte.
"""

from __future__ import annotations

import json

import numpy as np

from .abgroup import AbGroup, GElem, PSubgroup
from .autos import AutO
from .classify import GradingInvariants
from .errors import CartanGradeError, ParseError, ValidityError
from .gfp import Config, radix_weights
from .gradings import Grading
from .oalg import OElem
from .witt import WElem


_JSON_TYPES = {int: "an integer", str: "a string", list: "a list", dict: "an object"}


def _is_int(val) -> bool:
    """Whether val is a JSON integer: an int that is not a bool (json reads
    true and false as the bool subclass of int)."""
    return isinstance(val, int) and not isinstance(val, bool)


def _need(data, key, kind, typ):
    """data[key], checked to be a typ (int, str, list or dict); a ParseError
    when data is not an object, lacks the field or holds another type.  A
    boolean is not an integer."""
    if not isinstance(data, dict) or key not in data:
        raise ParseError(f"missing field {key!r} in {kind} payload")
    val = data[key]
    if not (_is_int(val) if typ is int else isinstance(val, typ)):
        raise ParseError(f"field {key!r} in {kind} payload must be {_JSON_TYPES[typ]}, "
                         f"got {val!r:.60}")
    return val


def _int_list(val, kind):
    if not isinstance(val, (list, tuple)) or not all(_is_int(x) for x in val):
        raise ParseError(f"{kind} must be a list of integers, got {val!r}")
    return [int(x) for x in val]


def oelem_to_data(f: OElem) -> dict:
    terms = [{"alpha": list(alpha), "c": c} for alpha, c in f.terms()]
    return {"basis": "x", "m": f.cfg.m, "p": f.cfg.p, "terms": terms}


def _function_terms(data, cfg: Config | None):
    """(cfg, exponent vectors, coefficients mod p) of a function payload.

    The fields are checked in document order: the basis tag, p and m
    (against cfg, or building it when cfg is None), then each term's alpha
    and c."""
    if _need(data, "basis", "function", str) != "x":
        raise ParseError(f"unknown basis tag {data['basis']!r}")
    p = _need(data, "p", "function", int)
    m = _need(data, "m", "function", int)
    if cfg is None:
        try:
            cfg = Config(p, m) if p > 3 else Config(p, m, allow_small_p=True)
        except CartanGradeError as exc:
            raise ParseError(f"bad configuration in payload: {exc}") from exc
    elif (cfg.p, cfg.m) != (p, m):
        raise ParseError(f"payload is for p={p}, m={m}, expected p={cfg.p}, m={cfg.m}")
    alphas, coeffs = [], []
    for term in _need(data, "terms", "function", list):
        # The common case first: exact types that every check below accepts
        # unchanged.
        if not (type(term) is dict and type(alpha := term.get("alpha")) is list
                and type(c := term.get("c")) is int and len(alpha) == m
                and all(type(a) is int and 0 <= a < p for a in alpha)):
            alpha = _int_list(_need(term, "alpha", "term", list), "alpha")
            if len(alpha) != m or not all(0 <= a < p for a in alpha):
                raise ParseError(f"bad exponent vector {alpha!r}")
            c = _need(term, "c", "term", int)
        alphas.append(alpha)
        coeffs.append(c % p)
    return cfg, alphas, coeffs


def _scatter(cfg: Config, rows) -> np.ndarray:
    """The matrix whose row r holds the tables of rows[r] side by side, each
    table given by its (exponent vectors, coefficients): one scatter, in
    which a repeated exponent keeps its last coefficient, as one assignment
    per term would."""
    width = len(rows[0])
    slots, alphas, coeffs = [], [], []
    for r, tables in enumerate(rows):
        for k, (exps, cs) in enumerate(tables):
            slots += [r * width + k] * len(cs)
            alphas += exps
            coeffs += cs
    index = np.array(alphas, dtype=np.int64).reshape(-1, cfg.m) @ radix_weights(cfg.p, cfg.m)
    flat = np.array(slots, dtype=np.int64) * cfg.n + index
    last = flat.size - 1 - np.unique(flat[::-1], return_index=True)[1]
    out = np.zeros((len(rows), width * cfg.n), dtype=np.int64)
    out.ravel()[flat[last]] = np.array(coeffs, dtype=np.int64)[last]
    return out


def oelem_from_data(data, cfg: Config | None = None) -> OElem:
    cfg, alphas, coeffs = _function_terms(data, cfg)
    return OElem(cfg, _scatter(cfg, [[(alphas, coeffs)]])[0])


def welem_to_data(d: WElem) -> dict:
    return {"coeffs": [oelem_to_data(d.coeff(i)) for i in range(1, d.cfg.m + 1)]}


def _derivation_terms(data, cfg: Config | None):
    """(cfg, the (exponent vectors, coefficients) of each of its m tables) of
    a derivation payload, its fields checked in document order."""
    items = _need(data, "coeffs", "derivation", list)
    if not items:
        raise ParseError("derivation payload needs a nonempty coefficient list")
    tables = []
    for item in items:
        cfg, alphas, coeffs = _function_terms(item, cfg)
        tables.append((alphas, coeffs))
    if len(tables) != cfg.m:
        raise ParseError(f"derivation needs {cfg.m} coefficients, got {len(tables)}")
    return cfg, tables


def welem_from_data(data, cfg: Config | None = None) -> WElem:
    cfg, tables = _derivation_terms(data, cfg)
    return WElem(cfg, _scatter(cfg, [tables]).reshape(cfg.m, cfg.n))


def group_to_data(group: AbGroup) -> dict:
    return {"free_rank": group.free_rank, "torsion": [int(d) for d in group.torsion]}


def group_from_data(data) -> AbGroup:
    free_rank = _need(data, "free_rank", "group", int)
    torsion = _int_list(_need(data, "torsion", "group", list), "torsion")
    if free_rank < 0:
        raise ParseError(f"bad free rank {free_rank!r}")
    try:
        return AbGroup(free_rank, tuple(torsion))
    except CartanGradeError as exc:
        raise ParseError(f"bad group payload: {exc}") from exc


def gelem_to_data(g: GElem) -> list:
    return [int(c) for c in g.coords]


def gelem_from_data(data, group: AbGroup) -> GElem:
    coords = _int_list(data, "group element")
    if len(coords) != group.rank:
        raise ParseError(f"element {coords!r} does not match group rank {group.rank}")
    return group.element(coords)


def grading_to_data(grading) -> dict:
    vec_data = oelem_to_data if grading.ambient == "O" else welem_to_data
    comps = [{"degree": gelem_to_data(g), "basis": [vec_data(v) for v in vecs]}
             for g, vecs in grading.components.items()]
    return {"group": group_to_data(grading.group),
            "ambient": grading.ambient,
            "components": comps}


def _grading_fields(data, cfg: Config | None = None):
    """(cfg, group, ambient, basis, labels) of a grading payload, before
    any check of the rows themselves.

    Every field is checked in document order, with the messages of
    oelem_from_data and welem_from_data, so a payload with several faults
    reports the first.  basis holds one row per basis payload in document
    order (for "W" and "sub" the m coefficient tables side by side), built
    by one scatter with no element object per row; labels holds the degree
    of each row.
    """
    group = group_from_data(_need(data, "group", "grading", dict))
    ambient = _need(data, "ambient", "grading", str)
    if ambient not in ("O", "W", "sub"):
        raise ParseError(f"unknown ambient {ambient!r}")
    rows, labels, degrees = [], [], set()
    for item in _need(data, "components", "grading", list):
        degree = gelem_from_data(_need(item, "degree", "component", list), group)
        start = len(rows)
        for payload in _need(item, "basis", "component", list):
            if ambient == "O":
                cfg, alphas, coeffs = _function_terms(payload, cfg)
                rows.append([(alphas, coeffs)])
            else:
                cfg, tables = _derivation_terms(payload, cfg)
                rows.append(tables)
            labels.append(degree)
        if degree in degrees:
            raise ParseError(f"duplicate component degree {degree!r}")
        if len(rows) == start:
            raise ParseError("empty component in grading payload")
        degrees.add(degree)
    if not rows:
        raise ParseError("grading payload has no components")
    return cfg, group, ambient, _scatter(cfg, rows), labels


def _inconsistent(exc: CartanGradeError) -> ValidityError:
    """The refusal of a parsed grading whose rows fail the constructor's
    checks."""
    return ValidityError(f"parsed grading is inconsistent: {exc}")


def grading_from_data(data, cfg: Config | None = None):
    fields = _grading_fields(data, cfg)
    try:
        return Grading(*fields)
    except CartanGradeError as exc:
        raise _inconsistent(exc) from exc


def auto_to_data(mu) -> dict:
    return {"images": [oelem_to_data(u) for u in mu.images]}


def auto_from_data(data, cfg: Config | None = None):
    images = _need(data, "images", "automorphism", list)
    if not images:
        raise ParseError("automorphism payload needs a nonempty image list")
    parsed = []
    for item in images:
        u = oelem_from_data(item, cfg)
        cfg = u.cfg
        parsed.append(u)
    if len(parsed) != cfg.m:
        raise ParseError(f"automorphism needs {cfg.m} images, got {len(parsed)}")
    try:
        return AutO(parsed)
    except CartanGradeError as exc:
        raise ValidityError(f"parsed map is not an automorphism: {exc}") from exc


def invariants_to_data(inv) -> dict:
    gamma = []
    for rep in inv.gamma_cosets:
        if gamma and gamma[-1]["rep"] == gelem_to_data(rep):
            gamma[-1]["mult"] += 1
        else:
            gamma.append({"rep": gelem_to_data(rep), "mult": 1})
    return {"P": [gelem_to_data(b) for b in inv.P.basis],
            "s": inv.s,
            "gamma": gamma,
            "g0": None if inv.g0 is None else gelem_to_data(inv.g0)}


def invariants_from_data(data, group: AbGroup):
    basis = tuple(gelem_from_data(row, group) for row in _need(data, "P", "invariants", list))
    s = _need(data, "s", "invariants", int)
    if s != len(basis):
        raise ParseError(f"rank field {s!r} does not match basis size {len(basis)}")
    gamma = []
    for item in _need(data, "gamma", "invariants", list):
        rep = gelem_from_data(_need(item, "rep", "invariants", list), group)
        mult = _need(item, "mult", "invariants", int)
        if mult < 1:
            raise ParseError(f"bad multiplicity {mult!r}")
        gamma.extend([rep] * mult)
    g0 = data.get("g0")
    if g0 is not None:
        g0 = gelem_from_data(g0, group)
    try:
        return GradingInvariants(PSubgroup(group, basis), gamma, g0)
    except CartanGradeError as exc:
        raise ValidityError(f"parsed invariants are inconsistent: {exc}") from exc


def dumps(data) -> str:
    """Canonical text for a payload: two-space indent, fixed field order,
    trailing newline."""
    return json.dumps(data, indent=2) + "\n"


def loads(text: str):
    try:
        return json.loads(text)
    except ValueError as exc:       # JSONDecodeError, or an integer past int's digit limit
        raise ParseError(f"invalid payload text: {exc}") from exc
