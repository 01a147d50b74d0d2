"""The batched identity sweeps of `paper-check` against the per-pair oracle.

Records must agree field for field (status, cases, counterexamples,
detail): exhaustively at p = 5, sampled at p = 7, m = 3 and at shrunken
case budgets, on both generic routes (one ad matrix per left generator
in exhaustive sweeps, bracket_rows in sampled ones).  A corrupted closed form must yield the same first
counterexamples in case order on both routes, and the stacked closed forms
must never reach the generic bracket.
"""

import numpy as np
import pytest

import paper_check_oracle as oracle
from cartangrade import cli, witt
from cartangrade.gfp import Config
from cartangrade.witt import (WElem, closed_form_bracket, closed_form_bracket_reduced,
                              closed_form_bracket_reduced_rows, closed_form_bracket_rows,
                              closed_form_h_bracket_rows, closed_form_h_partial_rows)

from algebra_helpers import closed_form_h_bracket, closed_form_h_partial


@pytest.mark.parametrize("p, m", [(5, 2), (5, 3), (7, 3)])
def test_batched_suites_match_the_per_pair_oracle(p, m):
    cfg, cfg_h = Config(p, m), Config(p, 2)
    got = oracle.batched_records(cfg, cfg_h)
    assert got == oracle.records(cfg, cfg_h)
    assert all(rec["status"] == "pass" for rec in got)
    assert ("sampled" in got[0]["detail"]) == (p == 7)


@pytest.mark.parametrize("m", [2, 3])
def test_batched_suites_match_the_oracle_at_small_budgets(m, monkeypatch):
    monkeypatch.setattr(cli, "EXHAUSTIVE_CASES", 100)
    monkeypatch.setattr(cli, "SAMPLE_CASES", 150)
    cfg, cfg_h = Config(5, m), Config(5, 2)
    for seed in (cli.DEFAULT_SEED, 3):
        got = oracle.batched_records(cfg, cfg_h, seed)
        assert got == oracle.records(cfg, cfg_h, seed)
        assert "sampled" in got[0]["detail"] and "sampled" in got[-2]["detail"]


def test_sampled_sweeps_take_no_ad_matrix(monkeypatch):
    """A sampled sweep, and the partials sweep, bracket with bracket_rows,
    whose cost follows the pairs: an (m p^m)^2 ad matrix per left generator
    made the sampled sweeps at m = 4 several times slower than per-pair
    brackets.  The records still match the oracle's."""
    def refuse(*args):
        raise AssertionError("a sampled sweep built an ad matrix")

    monkeypatch.setattr(cli, "SAMPLE_CASES", 60)
    cfg = Config(5, 4)
    want = [oracle.bracket_closed_form(cfg, 7), oracle.h_bracket(cfg, 7), oracle.h_partial(cfg)]
    monkeypatch.setattr(WElem, "ad_matrix", refuse)
    got = [cli._check_bracket_closed_form(cfg, 7), cli._check_h_bracket(cfg, 7),
           cli._check_h_partial(cfg)]
    assert got == want
    assert [rec["cases"] for rec in got] == [6 * 60, 60, 4 * 625]
    assert all(rec["status"] == "pass" for rec in got)


def _exponents(cfg, *stacks):
    return np.broadcast_arrays(*(np.asarray(s).reshape(-1, cfg.m) % cfg.p for s in stacks))


def _corrupt(monkeypatch, name, hit):
    """Replace the stacked closed form `name` in witt and in the CLI by one
    that adds 1 to the first entry of every row whose arguments hit."""
    honest = getattr(witt, name)

    def corrupted(cfg, *args):
        rows = honest(cfg, *args).copy()
        bad = hit(cfg, *args)
        rows[bad, 0] = (rows[bad, 0] + 1) % cfg.p
        return rows

    monkeypatch.setattr(witt, name, corrupted)
    monkeypatch.setattr(cli, name, corrupted)


def _bracket_hit(cfg, alphas, betas, i, j):
    alpha, beta = _exponents(cfg, alphas, betas)
    return (alpha[:, 0] == 2) & (beta[:, 1] == 3) & (j == cfg.m)


def _h_bracket_hit(cfg, alphas, betas):
    alpha, beta = _exponents(cfg, alphas, betas)
    return (alpha[:, 1] == 1) & (beta[:, 0] >= 3)


def _h_partial_hit(cfg, ell, betas):
    beta, = _exponents(cfg, betas)
    return (beta[:, 1] >= 2) & (ell == 2)


def _reduced_hit(cfg, alphas, betas, i, j):
    alpha, beta = _exponents(cfg, alphas, betas)
    return beta[:, 2] == 4


@pytest.mark.parametrize("m, budget", [(2, None), (3, 100)])
def test_corrupted_closed_forms_give_the_same_first_counterexamples(m, budget, monkeypatch):
    if budget:
        monkeypatch.setattr(cli, "EXHAUSTIVE_CASES", budget)
        monkeypatch.setattr(cli, "SAMPLE_CASES", 400)
    _corrupt(monkeypatch, "closed_form_bracket_rows", _bracket_hit)
    _corrupt(monkeypatch, "closed_form_h_bracket_rows", _h_bracket_hit)
    _corrupt(monkeypatch, "closed_form_h_partial_rows", _h_partial_hit)
    _corrupt(monkeypatch, "closed_form_bracket_reduced_rows", _reduced_hit)
    cfg, cfg_h = Config(5, m), Config(5, 2)
    want = oracle.records(cfg, cfg_h)
    assert oracle.batched_records(cfg, cfg_h) == want
    for rec in want:
        assert rec["status"] == "fail"
        assert len(rec["counterexamples"]) == cli.MAX_COUNTEREXAMPLES
    if budget is None:
        # exhaustive: the first of more than three hits, in case order
        assert want[0]["counterexamples"] == [
            {"i": 1, "j": 2, "alpha": [2, 0], "beta": [b, 3]} for b in range(3)]
        assert want[2]["counterexamples"] == [{"ell": 2, "beta": [0, b]} for b in (2, 3, 4)]


def test_stacked_closed_forms_never_call_the_generic_bracket(monkeypatch):
    def refuse(*args):
        raise AssertionError("a closed form reached the generic bracket")

    monkeypatch.setattr(WElem, "bracket", refuse)
    monkeypatch.setattr(WElem, "ad_matrix", refuse)
    monkeypatch.setattr(witt, "bracket_rows", refuse)
    monkeypatch.setattr(witt, "mul_rows", refuse)
    for m in (2, 3, 4):
        cfg = Config(5, m)
        alphas = np.arange(4 * m).reshape(4, m) % 5
        betas = (3 * alphas + 1) % 5
        for i in range(1, m + 1):
            for j in range(i + 1, m + 1):
                assert closed_form_bracket_rows(cfg, alphas, betas, i, j).shape == (4, m * cfg.n)
                closed_form_bracket(cfg, alphas[0], betas[0], i, j)
                if i >= 2:
                    on = alphas.copy()
                    on[:, j - 1] = 0
                    on[:, i - 1] = 1 if i == 2 else 0
                    assert closed_form_bracket_reduced_rows(cfg, on, betas, i, j).shape == \
                        (4, m * cfg.n)
                    closed_form_bracket_reduced(cfg, on[0], betas[0], i, j)
        if m % 2 == 0:
            assert closed_form_h_bracket_rows(cfg, alphas, betas).shape == (4, m * cfg.n)
            closed_form_h_bracket(cfg, alphas[0], betas[0])
            for ell in range(1, m + 1):
                assert closed_form_h_partial_rows(cfg, ell, betas).shape == (4, m * cfg.n)
                closed_form_h_partial(cfg, ell, betas[0])


def test_one_term_rows_refuse_a_stack_with_one_pair_off_the_stratum():
    cfg = Config(5, 3)
    alphas = np.array([[0, 1, 0], [3, 1, 0], [2, 1, 4]])
    with pytest.raises(ValueError):
        closed_form_bracket_reduced_rows(cfg, alphas, [1, 1, 1], 2, 3)
    assert closed_form_bracket_reduced_rows(cfg, alphas[:2], [1, 1, 1], 2, 3).shape == (2, 375)
