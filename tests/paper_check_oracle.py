"""Per-pair oracle for the identity sweeps of `paper-check`.

The CLI evaluates each sweep as stacked products against stacked closed
forms: one ad matrix per left generator in an exhaustive sweep,
bracket_rows over case-order chunks otherwise.  This module runs the same cases
one pair at a time, with WElem.bracket on the generic side and the per-pair
closed forms, and builds the same records (status, cases, counterexamples,
detail).  It draws its samples with rng.choice, so it also pins the index
draws of the batched sweep, and it reads the case budgets from the CLI
module when it runs, so a test can shrink them for both at once.
"""

import random
from itertools import combinations

from cartangrade import cli
from cartangrade.gfp import Config, alpha_table
from cartangrade.witt import WElem, closed_form_bracket, closed_form_bracket_reduced, d_ij_z

from algebra_helpers import closed_form_h_bracket, closed_form_h_partial, d_h_z


def mi_enumerate(cfg: Config) -> list:
    """All multi-indices for cfg, lexicographically."""
    return [tuple(int(a) for a in row) for row in alpha_table(cfg.p, cfg.m)]


def sweep(left, right, rng):
    """The cases of a sweep over left x right and whether they are all of them."""
    if len(left) * len(right) <= cli.EXHAUSTIVE_CASES:
        return ((a, b) for a in left for b in right), True
    return ((rng.choice(left), rng.choice(right)) for _ in range(cli.SAMPLE_CASES)), False


def bracket_closed_form(cfg: Config, seed: int) -> dict:
    alphas = mi_enumerate(cfg)
    pairs = list(combinations(range(1, cfg.m + 1), 2))
    gens = {ij: list(zip(alphas, [d_ij_z(cfg, ij[0], ij[1], a) for a in alphas]))
            for ij in pairs}
    rng = random.Random(seed)
    cases = 0
    fails = []
    for i, j in pairs:
        cases_ij, exhaustive = sweep(gens[(1, 2)], gens[(i, j)], rng)
        for (a, u), (b, v) in cases_ij:
            cases += 1
            if u.bracket(v) != closed_form_bracket(cfg, a, b, i, j):
                fails.append({"i": i, "j": j, "alpha": list(a), "beta": list(b)})
    mode = "exhaustive" if exhaustive else f"sampled, seed {seed}"
    return cli._check_record("bracket-closed-form", cases, fails, f"index pairs {pairs}, {mode}")


def bracket_one_term(cfg: Config, seed: int) -> dict:
    alphas = mi_enumerate(cfg)
    pairs = list(combinations(range(2, cfg.m + 1), 2))
    cases = 0
    fails = []
    rng = random.Random(seed)
    for i, j in pairs:
        k, v = (1, 1) if i == 2 else (i - 1, 0)
        on_stratum, off_stratum = [], []
        for a in alphas:
            (on_stratum if a[k] == v and a[j - 1] == 0 else off_stratum).append(a)
        for a, b in sweep(on_stratum, alphas, rng)[0]:
            cases += 1
            want = closed_form_bracket(cfg, a, b, i, j)
            if closed_form_bracket_reduced(cfg, a, b, i, j) != want:
                fails.append({"i": i, "j": j, "alpha": list(a), "beta": list(b)})
        for a in rng.sample(off_stratum, min(20, len(off_stratum))):
            cases += 1
            try:
                closed_form_bracket_reduced(cfg, a, alphas[1], i, j)
            except ValueError:
                continue
            fails.append({"i": i, "j": j, "alpha": list(a), "off-stratum": True})
    detail = f"strata over index pairs {pairs}; off-stratum domain enforced"
    return cli._check_record("bracket-one-term-stratum", cases, fails, detail)


def h_bracket(cfg: Config, seed: int) -> dict:
    alphas = mi_enumerate(cfg)
    gens = list(zip(alphas, [d_h_z(cfg, a) for a in alphas]))
    cases_all, exhaustive = sweep(gens, gens, random.Random(seed))
    cases = 0
    fails = []
    for (a, u), (b, v) in cases_all:
        cases += 1
        if u.bracket(v) != closed_form_h_bracket(cfg, a, b):
            fails.append({"alpha": list(a), "beta": list(b)})
    mode = "exhaustive" if exhaustive else f"sampled, seed {seed}"
    return cli._check_record("hamiltonian-bracket", cases, fails, mode)


def h_partial(cfg: Config) -> dict:
    alphas = mi_enumerate(cfg)
    cases = 0
    fails = []
    for ell in range(1, cfg.m + 1):
        d_ell = WElem.basis_element(cfg, alphas[0], ell)
        for b in alphas:
            cases += 1
            if d_ell.bracket(d_h_z(cfg, b)) != closed_form_h_partial(cfg, ell, b):
                fails.append({"ell": ell, "beta": list(b)})
    return cli._check_record("hamiltonian-partial", cases, fails)


def records(cfg: Config, cfg_h: Config, seed: int = cli.DEFAULT_SEED):
    """The oracle's four records, as paper-check orders them."""
    out = [bracket_closed_form(cfg, seed)]
    if cfg.m >= 3:
        out.append(bracket_one_term(cfg, seed))
    return out + [h_bracket(cfg_h, seed), h_partial(cfg_h)]


def batched_records(cfg: Config, cfg_h: Config, seed: int = cli.DEFAULT_SEED):
    """The same four records from the CLI's batched suites."""
    out = [cli._check_bracket_closed_form(cfg, seed)]
    if cfg.m >= 3:
        out.append(cli._check_bracket_one_term(cfg, seed))
    return out + [cli._check_h_bracket(cfg_h, seed), cli._check_h_partial(cfg_h)]
