"""Command-line front end: conformance suites, grading operations, dimension tables.

Subcommands
-----------
paper-check
    Run the closed-form identity suites that pin the computational kernel
    against independently derived formulas: generator brackets in all three
    index strata, the one-term stratum shortcut (including domain
    enforcement), Hamiltonian brackets and partials, the Hamiltonian basis
    count, and restricted p-th power samples.  Each identity sweep runs as
    stacked products: one ad matrix per left generator when exhaustive,
    else bracket_rows over case-order chunks, against closed forms built
    row-stacked from exponents alone.  Exit code 4 when any suite fails;
    the first counterexamples in case order are embedded in the report.

dims
    Dimension table computed by two independent routes (closed formula vs
    constructed basis rank) for the truncated polynomial algebra, its
    derivation algebra, the volume-form flavor's derived algebra, and the
    Hamiltonian flavor's second derived algebra.  Exit code 4 on any
    disagreement.

grade construct | verify | classify | iso | fine
    construct  builds a grading from a JSON request (see below) and emits it.
    verify     re-checks a serialized grading from scratch and reports.
    classify   emits the grading invariants for a chosen flavor.
    iso        decides isomorphism of two gradings for a chosen flavor and
               emits a witness automorphism or a negative report.
    fine       enumerates the maximally refined gradings of one ambient.

Construct request schema::

    {"p": 5, "m": 2, "kind": "O" | "W" | "S",
     "group": {"free_rank": 0, "torsion": [5, 5]},
     "basis": [[1, 0]],          # toral degrees (coordinate tuples)
     "gamma": [[0, 1]],          # free-variable degrees, length m - len(basis)
     "g0": [1, 1]}               # kind "S" only: volume degree

Flavor notes: classify/iso consume ambient-"O" grading files for flavors O
and S and ambient-"W" files for flavor W; an ambient-"O" file that verify
rejects is refused (exit 3).  Flavor H is decided through the
rank-two volume flavor when m = 2 and reported as open otherwise.  The
truncated polynomial machinery itself is characteristic-agnostic, so
construct/verify accept p in {2, 3} for kinds O and W; everything resting on
the recognition theory (paper-check, classify, iso, fine, kind S) demands
p > 3.

Exit codes: 0 success, 2 malformed input, 3 semantic refusal (valid syntax,
impossible request, or a request that runs out of memory), 4 conformance
failure (including a failed internal soundness check).  gfp.Config refuses
p**m past the dimension cap, the environment variable CARTAN_GRADE_MAX_DIM
(default 2401), for arguments and payloads alike.
"""

import argparse
import random
import sys
from functools import cache
from itertools import combinations

import numpy as np

from . import serialize
from .abgroup import PSubgroup
from .classify import OPEN_IN_PAPER, enumerate_fine, invariants_of, iso_decide
from .errors import (AdmissibilityError, CartanGradeError, ConfigError, DimensionError,
                     InternalError, ParseError)
from .forms import algebra_rows, derived_rows
from .gfp import Config, alpha_table
from .gradings import (Grading, check_toral_orders, grade_O_construct, grade_S_construct,
                       induce_W, verify_grading)
from .linalg import matmul, row_space
from .oalg import z_tables
from .witt import (WElem, bracket_rows, closed_form_bracket_reduced,
                   closed_form_bracket_reduced_rows, closed_form_bracket_rows,
                   closed_form_h_bracket_rows, closed_form_h_partial_rows, d_h_rows,
                   d_ij_rows, d_ij_z, w_basis)

DEFAULT_SEED = 1729
MAX_COUNTEREXAMPLES = 3

# Budgets keeping every accepted configuration terminating: identity sweeps
# switch from exhaustive to seeded sampling past EXHAUSTIVE_CASES, and the
# cubic-cost routes (derived algebras, ad-matrix powers, large eliminations)
# are skipped past the flat-dimension limits below.
EXHAUSTIVE_CASES = 60000
SAMPLE_CASES = 4000
DERIVED_ROUTE_LIMIT = 600
RANK_ROUTE_LIMIT = 1100
# Row entries each side of a chunked identity sweep holds at once (256 KiB
# of int64); a chunk takes at least one case.
CHUNK_ENTRIES = 1 << 15


def _make_config(p: int, m: int) -> Config:
    """The configuration of CLI parameters: m in 1..4, then Config's checks."""
    if not 1 <= m <= 4:
        raise ConfigError(f"m must lie in 1..4, got {m}")
    return Config(p, m)


def _require_classical(cfg: Config, what: str):
    if cfg.p <= 3:
        raise ConfigError(
            f"{what} rests on the p > 3 theory; p = {cfg.p} admits only "
            "construction and verification for kinds O and W")


def _require_grading(*gradings):
    """Refuse an ambient-"O" payload that is not a grading: classification
    and isomorphism assume the grading axioms, which verify_grading checks
    (from m generator rows when they hold).  classify checks after
    recognition, so recognition's own refusals keep their message; iso
    checks before deciding, since a decision on a non-grading can fail its
    witness self-check, which is an internal failure (exit 4)."""
    for grading in gradings:
        if grading.ambient == "O":
            report = verify_grading(grading)
            if not report.ok:
                g, h, why = report.failures[0]
                raise AdmissibilityError(f"payload is not a grading: degrees {g} x {h}: {why}")


def _load_json(path: str) -> dict:
    """The payload read from a file, or from stdin for "-".  Text that
    cannot be read or is not UTF-8, and JSON nested past the parser's
    recursion limit, are ParseErrors (exit 2) like any other malformed
    payload."""
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: not UTF-8 text: {exc}")
    try:
        return serialize.loads(text)
    except RecursionError:
        raise ParseError("invalid payload text: nested too deeply to parse") from None


def _write_text(path, text: str):
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}")


def _emit(args, payload, table_fn=None):
    if getattr(args, "format", "json") == "table" and table_fn is not None:
        text = table_fn(payload)
    else:
        text = serialize.dumps(payload)
    _write_text(getattr(args, "out", None), text)


# ---------------------------------------------------------------------------
# paper-check


def _check_record(name: str, cases: int, fails, detail: str = "",
                  skipped: bool = False) -> dict:
    if skipped:
        status = "skipped"
    else:
        status = "pass" if not fails else "fail"
    rec = {
        "name": name,
        "status": status,
        "cases": cases,
        "counterexamples": fails[:MAX_COUNTEREXAMPLES],
    }
    if detail:
        rec["detail"] = detail
    return rec


def _sweep(n_left: int, n_right: int, rng):
    """The cases of an identity sweep over left x right, as index arrays
    (left, right), and whether they are all of them: every pair (left-major)
    within EXHAUSTIVE_CASES, else SAMPLE_CASES seeded draws.  Drawing
    rng.randrange(len(seq)) makes the same draw as rng.choice(seq)."""
    if n_left * n_right <= EXHAUSTIVE_CASES:
        return np.repeat(np.arange(n_left), n_right), np.tile(np.arange(n_right), n_left), True
    draws = [(rng.randrange(n_left), rng.randrange(n_right)) for _ in range(SAMPLE_CASES)]
    left, right = np.array(draws, dtype=np.int64).T
    return left, right, False


def _generators(cfg: Config, flavor: str, members=None):
    """Flat rows of a generator family, exponents alpha in lexicographic
    order: d_ij(z^alpha) for each index pair i < j in turn ("S"; member
    k * p**m + a is d_ij(z^alpha_a) for the k-th pair), or d_h(z^alpha)
    ("H").  The rows of the given members, or of all of them."""
    pairs = list(combinations(range(1, cfg.m + 1), 2))
    if members is None:
        members = np.arange((len(pairs) if flavor == "S" else 1) * cfg.n)
    zs = z_tables(cfg.p, cfg.m, alpha_table(cfg.p, cfg.m)[members % cfg.n])
    if flavor == "H":
        return d_h_rows(cfg, zs)
    return d_ij_rows(cfg, *np.array(pairs, dtype=np.int64)[members // cfg.n].T, zs)


def _first_mismatches(groups, cases: int, block):
    """The first MAX_COUNTEREXAMPLES cases, in case order, whose two sides
    differ.  block(pos) gives both sides, (generic rows, closed-form rows),
    of the cases at positions pos, one group of positions at a time.  Only
    a mismatch flag per case outlives its group, so no array of cases x
    flat dimension is held."""
    flags = np.zeros(cases, dtype=bool)
    for pos in groups:
        got, want = block(pos)
        flags[pos] = (got != want).any(axis=1)
    return np.flatnonzero(flags)[:MAX_COUNTEREXAMPLES]


def _chunks(cases: int, flat: int):
    """Case positions in case-order runs of about CHUNK_ENTRIES row entries."""
    step = max(1, CHUNK_ENTRIES // flat)
    return (np.arange(s, min(s + step, cases)) for s in range(0, cases, step))


def _generic_side(cfg: Config, lefts, rights, left, right, by_ad: bool):
    """Groups of case positions, and the generic side of a group pos: the
    brackets [u, v] of its cases c, u = lefts(left[c]) and v =
    rights(right[c]), where lefts and rights give the flat rows of the
    members they are passed.

    by_ad: each left generator u takes one ad matrix, and a group is the
    cases of one left element, bracketed by one product of ad(u) with their
    stacked right partners.  That pays in an exhaustive sweep, which gives u
    at least p**m partners and meets every member, so both families are
    built once, whole.  Otherwise the groups are case-order chunks,
    bracketed row by row (bracket_rows) from the rows of their own members,
    at a cost that follows the number of pairs: a sampled sweep leaves u
    only about SAMPLE_CASES / p**m partners per index pair, too few for an
    (m * p**m)**2 ad matrix.
    """
    if by_ad:
        order = np.argsort(left, kind="stable")
        us, vs = lefts(np.arange(left.max() + 1)), rights(np.arange(right.max() + 1))

        def generic(pos):
            u = WElem.from_flat(cfg, us[left[pos[0]]])
            return matmul(u.ad_matrix(), vs[right[pos]].T, cfg.p).T
        return np.split(order, np.flatnonzero(np.diff(left[order])) + 1), generic
    return (_chunks(left.size, cfg.m * cfg.n),
            lambda pos: bracket_rows(cfg, lefts(left[pos]), rights(right[pos])))


def _check_bracket_closed_form(cfg: Config, seed: int) -> dict:
    """Bracket conformance over all admissible index pairs.

    Each index pair sweeps its n x n exponent pairs, exhaustively within the
    case budget and by seeded sampling beyond it.  At every (p, m) the CLI
    accepts this picks the same mode as a budget on all index pairs
    together: no p**3 has its square in (20000, 60000], and no p**4 with
    p > 3 has its square in (10000, 60000].  The left generators are the
    d_12(z^alpha), so in an exhaustive sweep one ad(d_12(z^alpha)) serves
    every index pair (_generic_side); the closed forms come stacked from
    closed_form_bracket_rows.
    """
    alphas = alpha_table(cfg.p, cfg.m)
    pairs = list(combinations(range(1, cfg.m + 1), 2))
    gens = lambda members: _generators(cfg, "S", members)
    rng = random.Random(seed)
    sweeps = [_sweep(cfg.n, cfg.n, rng) for _ in pairs]
    exhaustive = sweeps[-1][2]
    pair = np.concatenate([np.full(s[0].size, k) for k, s in enumerate(sweeps)])
    left = np.concatenate([s[0] for s in sweeps])
    right = np.concatenate([s[1] for s in sweeps])
    groups, generic = _generic_side(cfg, gens, gens, left, pair * cfg.n + right, exhaustive)

    def block(pos):
        want = np.empty((pos.size, cfg.m * cfg.n), dtype=np.int64)
        for k, (i, j) in enumerate(pairs):
            sel = pair[pos] == k
            want[sel] = closed_form_bracket_rows(cfg, alphas[left[pos[sel]]],
                                                 alphas[right[pos[sel]]], i, j)
        return generic(pos), want

    fails = [{"i": pairs[pair[c]][0], "j": pairs[pair[c]][1], "alpha": alphas[left[c]].tolist(),
              "beta": alphas[right[c]].tolist()}
             for c in _first_mismatches(groups, left.size, block)]
    mode = "exhaustive" if exhaustive else f"sampled, seed {seed}"
    detail = f"index pairs {pairs}, {mode}"
    return _check_record("bracket-closed-form", left.size, fails, detail)


def _check_bracket_one_term(cfg: Config, seed: int) -> dict:
    """One-term stratum shortcut: equality on the stratum, refusal off it.

    Both sides are closed forms, compared on stacked rows in case-order
    chunks; the 20 off-stratum refusals are single calls."""
    alphas = alpha_table(cfg.p, cfg.m)
    pairs = list(combinations(range(2, cfg.m + 1), 2))
    cases = 0
    fails = []
    rng = random.Random(seed)
    for i, j in pairs:
        k, v = (1, 1) if i == 2 else (i - 1, 0)     # the stratum: a[k] == v, a[j - 1] == 0
        on = (alphas[:, k] == v) & (alphas[:, j - 1] == 0)
        on_stratum, off_stratum = np.flatnonzero(on), np.flatnonzero(~on).tolist()
        left, right, _ = _sweep(on_stratum.size, cfg.n, rng)

        def block(pos):
            alpha, beta = alphas[on_stratum[left[pos]]], alphas[right[pos]]
            return (closed_form_bracket_reduced_rows(cfg, alpha, beta, i, j),
                    closed_form_bracket_rows(cfg, alpha, beta, i, j))

        cases += left.size
        fails += [{"i": i, "j": j, "alpha": alphas[on_stratum[left[c]]].tolist(),
                   "beta": alphas[right[c]].tolist()}
                  for c in _first_mismatches(_chunks(left.size, cfg.m * cfg.n), left.size, block)]
        for a in rng.sample(off_stratum, min(20, len(off_stratum))):
            cases += 1
            try:
                closed_form_bracket_reduced(cfg, alphas[a], alphas[1], i, j)
            except ValueError:
                continue
            fails.append({"i": i, "j": j, "alpha": alphas[a].tolist(), "off-stratum": True})
    detail = f"strata over index pairs {pairs}; off-stratum domain enforced"
    return _check_record("bracket-one-term-stratum", cases, fails, detail)


def _check_h_bracket(cfg: Config, seed: int) -> dict:
    """Hamiltonian bracket conformance (even m), sampled past the budget:
    the generic brackets of the d_h(z^alpha) (_generic_side) against
    closed_form_h_bracket_rows."""
    alphas = alpha_table(cfg.p, cfg.m)
    gens = lambda members: _generators(cfg, "H", members)
    left, right, exhaustive = _sweep(cfg.n, cfg.n, random.Random(seed))
    groups, generic = _generic_side(cfg, gens, gens, left, right, exhaustive)

    def block(pos):
        return generic(pos), closed_form_h_bracket_rows(cfg, alphas[left[pos]], alphas[right[pos]])

    fails = [{"alpha": alphas[left[c]].tolist(), "beta": alphas[right[c]].tolist()}
             for c in _first_mismatches(groups, left.size, block)]
    mode = "exhaustive" if exhaustive else f"sampled, seed {seed}"
    return _check_record("hamiltonian-bracket", left.size, fails, mode)


def _check_h_partial(cfg: Config) -> dict:
    """Partial derivatives d/dx_ell against every Hamiltonian generator
    d_h(z^beta), ell-major: the generic brackets against
    closed_form_h_partial_rows.  The generic side is bracket_rows, which
    takes one coefficient partial per case for a constant left field, where
    an ad matrix would cost (m * p**m)**2 entries."""
    alphas = alpha_table(cfg.p, cfg.m)
    partials = np.stack([WElem.partial(cfg, ell).flat() for ell in range(1, cfg.m + 1)])
    left, right = np.repeat(np.arange(cfg.m), cfg.n), np.tile(np.arange(cfg.n), cfg.m)
    groups, generic = _generic_side(cfg, partials.__getitem__,
                                    lambda members: _generators(cfg, "H", members), left, right,
                                    False)

    def block(pos):
        want = np.empty((pos.size, cfg.m * cfg.n), dtype=np.int64)
        for ell in range(1, cfg.m + 1):
            sel = left[pos] == ell - 1
            want[sel] = closed_form_h_partial_rows(cfg, ell, alphas[right[pos[sel]]])
        return generic(pos), want

    fails = [{"ell": int(left[c]) + 1, "beta": alphas[right[c]].tolist()}
             for c in _first_mismatches(groups, left.size, block)]
    return _check_record("hamiltonian-partial", left.size, fails)


def _check_h_basis_count(cfg: Config) -> dict:
    """Hamiltonian generator family vs the iterated derived algebra.

    Dropping the constant potential (zero field) and the top potential
    (which spans the one-dimensional quotient above the second derived
    algebra) leaves exactly a basis of the simple algebra.
    """
    expect = cfg.n - 2
    family, derived = _two_routes(cfg, "H")
    if family is None:
        return _check_record("hamiltonian-basis-count", 0, [],
                             "elimination too large at this scale", skipped=True)
    fails = []
    if family.shape[0] != expect:
        fails.append({"family-rank": int(family.shape[0]), "expected": expect})
    detail = f"rank of the generator family, target {expect}"
    if derived is not None:
        if derived.shape[0] != expect:
            fails.append({"derived-rank": int(derived.shape[0]), "expected": expect})
        if not np.array_equal(family, derived):
            fails.append({"mismatch": "family span differs from derived algebra"})
        detail += ", cross-checked against the second derived algebra"
    return _check_record("hamiltonian-basis-count", cfg.n, fails, detail)


def _check_restricted_power(cfg: Config, seed: int) -> dict:
    """p-th power conformance: the pinned generator plus seeded samples.

    The samples take ad-matrix powers, cubic in m * p**m like the derived
    route, and run where it does; ad(D) and ad(D^[p]) are built one sample
    at a time, so no stack of ad matrices is held."""
    p = cfg.p
    fails = []
    cases = 0
    exps = [1, 1] + [0] * (cfg.m - 2)
    d = d_ij_z(cfg, 1, 2, exps)
    cases += 1
    if d.p_power() != d:
        fails.append({"pinned": "d_12 of the rank-two unit monomial is not idempotent"})
    detail = "the pinned generator is its own p-th power"
    if _routes_run(cfg)[1]:
        rng = random.Random(seed)
        for k in range(10):
            dd = WElem(cfg, np.array([[rng.randrange(p) for _ in range(cfg.n)]
                                      for _ in range(cfg.m)], dtype=np.int64))
            ad = dd.ad_matrix()
            power = ad
            for _ in range(p - 1):
                power = matmul(power, ad, p)
            cases += 1
            if not np.array_equal(power, dd.p_power().ad_matrix()):
                fails.append({"sample": k})
        detail += "; ad(D)^p == ad(D^[p]) on seeded samples"
    return _check_record("restricted-power", cases, fails, detail)


def _h_config(p: int, r: int) -> Config:
    """Configuration of the Hamiltonian suites and dims row: m = 2r."""
    if not 1 <= 2 * r <= 4:
        raise ConfigError(f"r must lie in 1..2, got {r}")
    return _make_config(p, 2 * r)


def cmd_paper_check(args) -> int:
    cfg = _make_config(args.p, args.m)
    _require_classical(cfg, "the conformance suite")
    if cfg.m < 2:
        raise ConfigError("the bracket suites need m >= 2")
    cfg_h = _h_config(args.p, args.r)
    checks = [_check_bracket_closed_form(cfg, args.seed)]
    if cfg.m >= 3:
        checks.append(_check_bracket_one_term(cfg, args.seed))
    checks.append(_check_h_bracket(cfg_h, args.seed))
    checks.append(_check_h_partial(cfg_h))
    checks.append(_check_h_basis_count(cfg_h))
    checks.append(_check_restricted_power(cfg, args.seed))
    ok = all(c["status"] != "fail" for c in checks)
    payload = {
        "suite": "paper-check",
        "p": cfg.p,
        "m": cfg.m,
        "r": args.r,
        "seed": args.seed,
        "checks": checks,
        "ok": ok,
    }
    _emit(args, payload, _render_paper_check)
    return 0 if ok else 4


def _render_paper_check(payload) -> str:
    lines = [f"paper-check  p={payload['p']} m={payload['m']} r={payload['r']}"
             f" seed={payload['seed']}"]
    width = max(len(c["name"]) for c in payload["checks"])
    for c in payload["checks"]:
        lines.append(f"  {c['name']:<{width}}  {c['status']:<4}  cases={c['cases']}")
        for ce in c["counterexamples"]:
            lines.append(f"    counterexample: {ce}")
    lines.append("overall: " + ("ok" if payload["ok"] else "FAILED"))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# dims


def _routes_run(cfg: Config):
    """Whether the rank route and the derived route run at flat dimension
    m * p**m."""
    flat = cfg.m * cfg.n
    return flat <= RANK_ROUTE_LIMIT, flat <= DERIVED_ROUTE_LIMIT


def _family_space(cfg: Config, flavor: str) -> np.ndarray:
    """Row space of the generator family of flavor "S" or "H".

    "S": d_ij(z^alpha) for i < j, which spans the derived algebra of the
    volume flavor.  "H": d_h(z^alpha) without the constant potential (zero
    field) and the top potential, a basis of the second derived algebra of
    the Hamiltonian flavor.  Either gives a dimension route independent of
    the closed formula.
    """
    gens = _generators(cfg, flavor)
    return row_space(gens if flavor == "S" else gens[1:-1], cfg.p)


def _two_routes(cfg: Config, flavor: str):
    """The two routes to the simple algebra of flavor "S" (first derived
    algebra) or "H" (second): the generator family's row space, None when
    the rank route is skipped, and the derived algebra's rows, None when
    the derived route is skipped.  The derived route runs first: its
    elimination is the larger, and no family rows are held through it."""
    rank_runs, derived_runs = _routes_run(cfg)
    if not rank_runs:
        return None, None
    derived = None
    if derived_runs:
        derived = derived_rows(cfg, algebra_rows(cfg, flavor), iterations=2 if flavor == "H" else 1)
    return _family_space(cfg, flavor), derived


def _route_rank(cfg: Config, flavor: str):
    """The dims figure of the S or H row: the generator family's rank, -1
    when the derived route disagrees with it, None when it is skipped."""
    family, derived = _two_routes(cfg, flavor)
    if family is None:
        return None
    if derived is not None and derived.shape[0] != family.shape[0]:
        return -1
    return family.shape[0]


def _s_family_rank(cfg: Config) -> int:
    """Rank of the volume-annihilating generator family d_ij(z-monomials)."""
    return int(_family_space(cfg, "S").shape[0])


def _h_family_rank(cfg: Config) -> int:
    """Rank of the Hamiltonian generator family off the two dropped potentials."""
    return int(_family_space(cfg, "H").shape[0])


def cmd_dims(args) -> int:
    cfg = _make_config(args.p, args.m)
    cfg_h = _h_config(cfg.p, args.r)
    p, m = cfg.p, cfg.m
    rows = []

    def add(name, formula, computed):
        agree = None if computed is None else formula == computed
        rows.append({"algebra": name, "formula": formula, "computed": computed, "agree": agree})

    add(f"O({m};1)", p ** m, cfg.n)
    w_computed = None
    if _routes_run(cfg)[0]:
        w_computed = row_space(np.stack([d.flat() for d in w_basis(cfg)]), p).shape[0]
    add(f"W({m};1)", m * p ** m, w_computed)
    if p > 3:
        if m >= 2:
            add(f"S({m};1)^(1)", (m - 1) * (p ** m - 1), _route_rank(cfg, "S"))
        add(f"H({cfg_h.m};1)^(2)", cfg_h.n - 2, _route_rank(cfg_h, "H"))
    ok = all(row["agree"] is not False for row in rows)
    payload = {"p": p, "m": m, "dims": rows, "ok": ok}
    _emit(args, payload, _render_dims)
    return 0 if ok else 4


def _render_dims(payload) -> str:
    lines = [f"dims  p={payload['p']} m={payload['m']}"]
    width = max(len(r["algebra"]) for r in payload["dims"])
    for r in payload["dims"]:
        if r["agree"] is None:
            mark, computed = "skipped at this scale", "-"
        else:
            mark, computed = ("ok" if r["agree"] else "MISMATCH"), r["computed"]
        lines.append(f"  {r['algebra']:<{width}}  formula={r['formula']:<6}"
                     f" computed={computed!s:<6} {mark}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# grade


def _request_elements(group, data, key):
    vecs = serialize._need(data, key, "construct request", list)
    out = []
    for k, coords in enumerate(vecs):
        if not isinstance(coords, list):
            raise ParseError(f"{key}[{k}] must be a coordinate list")
        out.append(serialize.gelem_from_data(coords, group))
    return out


def cmd_grade_construct(args) -> int:
    data = _load_json(args.request)
    if not isinstance(data, dict):
        raise ParseError("construct request must be a JSON object")
    p = serialize._need(data, "p", "construct request", int)
    m = serialize._need(data, "m", "construct request", int)
    kind = serialize._need(data, "kind", "construct request", str)
    if kind not in ("O", "W", "S"):
        raise ParseError(f"kind must be one of O, W, S, got {kind!r:.60}")
    cfg = _make_config(p, m)
    if kind == "S":
        _require_classical(cfg, "the volume flavor")
    group = serialize.group_from_data(serialize._need(data, "group", "construct request", dict))
    b_list = _request_elements(group, data, "basis")
    gamma = _request_elements(group, data, "gamma")
    if kind == "S":
        if "g0" not in data:
            raise ParseError("kind S requires the volume degree g0")
        g0 = serialize.gelem_from_data(data["g0"], group)
        check_toral_orders(cfg, b_list)     # the order-p refusal before the independence one
        psub = PSubgroup(group, b_list)
        grading = grade_S_construct(cfg, group, psub, gamma, g0)
    else:
        grading = grade_O_construct(cfg, group, b_list, gamma)
        if kind == "W":
            grading = induce_W(grading)
    _write_text(args.out, serialize.grading_text(grading) + "\n")
    return 0


def cmd_grade_verify(args) -> int:
    fields = serialize._grading_fields(_load_json(args.grading))
    try:
        # The basis is eliminated once: verify_grading's own elimination
        # checks that the rows are independent, in place of the constructor.
        report = verify_grading(Grading._deferred(*fields))
    except DimensionError as exc:
        raise serialize._inconsistent(exc) from exc
    payload = {
        "valid": report.ok,
        "pairs_checked": report.pairs_checked,
        "failures": [str(f) for f in report.failures[:20]],
    }
    _emit(args, payload, _render_verify)
    return 0 if report.ok else 4


def _render_verify(payload) -> str:
    status = "valid" if payload["valid"] else "INVALID"
    lines = [f"verify: {status}  pairs={payload['pairs_checked']}"]
    for f in payload["failures"]:
        lines.append(f"  failure: {f}")
    return "\n".join(lines) + "\n"


def cmd_grade_classify(args) -> int:
    grading = serialize.grading_from_data(_load_json(args.grading))
    _require_classical(grading.cfg, "classification")
    inv = invariants_of(grading, args.flavor)
    _require_grading(grading)
    _emit(args, serialize.invariants_to_data(inv))
    return 0


def cmd_grade_iso(args) -> int:
    g1 = serialize.grading_from_data(_load_json(args.g1))
    g2 = serialize.grading_from_data(_load_json(args.g2))
    _require_classical(g1.cfg, "isomorphism decision")
    _require_grading(g1, g2)
    result = iso_decide(g1, g2, args.flavor)
    if result == OPEN_IN_PAPER:
        payload = {"isomorphic": None, "status": OPEN_IN_PAPER}
    elif result is None:
        payload = {"isomorphic": False, "status": "distinct-invariants"}
    else:
        payload = {"isomorphic": True, "status": "witness",
                   "witness": serialize.auto_to_data(result)}
        if args.witness_out:
            _write_text(args.witness_out, serialize.dumps(payload["witness"]))
    _emit(args, payload, _render_iso)
    return 0


def _render_iso(payload) -> str:
    if payload["isomorphic"] is None:
        return f"iso: {payload['status']}\n"
    if not payload["isomorphic"]:
        return "iso: not isomorphic (invariants differ)\n"
    return "iso: isomorphic (witness automorphism computed)\n"


def cmd_grade_fine(args) -> int:
    cfg = _make_config(args.p, args.m)
    _require_classical(cfg, "fine grading enumeration")
    gradings = enumerate_fine(cfg, args.ambient)
    # The text of dumps({"ambient", "count", "gradings"}), each grading
    # written at the depth of its list.
    items = [serialize.grading_text(g, "    ") for g in gradings]
    _write_text(args.out, f'{{\n  "ambient": "{args.ambient}",\n  "count": {len(gradings)},\n'
                f'  "gradings": {serialize._list_text(items, "  ")}\n}}\n')
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cartan-grade",
        description="Gradings of restricted Cartan-type Lie algebras over GF(p).")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, p_default=5, m_default=3):
        sp.add_argument("--p", type=int, default=p_default, help="characteristic")
        sp.add_argument("--m", type=int, default=m_default, help="number of variables")

    def output(sp):
        sp.add_argument("--out", default=None, help="write the result to this file")
        sp.add_argument("--format", choices=("json", "table"), default="json")

    pc = sub.add_parser("paper-check", help="run the closed-form conformance suites")
    common(pc)
    pc.add_argument("--r", type=int, default=1, help="symplectic pairs for the "
                    "Hamiltonian suites (m = 2r)")
    pc.add_argument("--seed", type=int, default=DEFAULT_SEED)
    output(pc)
    pc.set_defaults(verb="cmd_paper_check")

    dm = sub.add_parser("dims", help="dimension table via two independent routes")
    common(dm)
    dm.add_argument("--r", type=int, default=1, help="symplectic pairs for the "
                    "Hamiltonian row (m = 2r)")
    output(dm)
    dm.set_defaults(verb="cmd_dims")

    gr = sub.add_parser("grade", help="construct, verify, classify, and compare gradings")
    gsub = gr.add_subparsers(dest="grade_command", required=True)

    gc = gsub.add_parser("construct", help="build a grading from a JSON request")
    gc.add_argument("--request", required=True, help="request file ('-' for stdin)")
    output(gc)
    gc.set_defaults(verb="cmd_grade_construct")

    gv = gsub.add_parser("verify", help="re-check a serialized grading from scratch")
    gv.add_argument("--grading", required=True, help="grading file ('-' for stdin)")
    output(gv)
    gv.set_defaults(verb="cmd_grade_verify")

    gl = gsub.add_parser("classify", help="emit the invariants of a grading")
    gl.add_argument("--grading", required=True, help="grading file ('-' for stdin)")
    gl.add_argument("--flavor", choices=("O", "W", "S", "H"), default="O")
    output(gl)
    gl.set_defaults(verb="cmd_grade_classify")

    gi = gsub.add_parser("iso", help="decide isomorphism and emit a witness")
    gi.add_argument("--g1", required=True, help="first grading file")
    gi.add_argument("--g2", required=True, help="second grading file")
    gi.add_argument("--flavor", choices=("O", "W", "S", "H"), default="O")
    gi.add_argument("--witness-out", default=None,
                    help="also write the bare witness automorphism to this file")
    output(gi)
    gi.set_defaults(verb="cmd_grade_iso")

    gf = gsub.add_parser("fine", help="enumerate the maximally refined gradings")
    common(gf, m_default=2)
    gf.add_argument("--ambient", choices=("O", "W", "S"), default="O")
    output(gf)
    gf.set_defaults(verb="cmd_grade_fine")

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser of the process, built on first use."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # The verb is looked up by name on each call, so a cmd_* function
        # rebound on this module after the parser was built is the one run.
        return globals()[args.verb](args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except CartanGradeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:      # a refusal too: no check ran to its end
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
