"""JSON payload round trips and command-line driver behaviour."""

import contextlib
import copy
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartangrade import classify, cli, gradings, linalg, serialize
from cartangrade.abgroup import AbGroup, PSubgroup
from cartangrade.autos import AutO, push_grading, random_auto, shift_auto
from cartangrade.classify import GradingInvariants, canonical_key, enumerate_fine, recognize_O
from cartangrade.errors import CartanGradeError, ParseError, ValidityError
from cartangrade.gfp import Config
from cartangrade.gradings import Grading, grade_O_construct, grade_S_construct, induce_W
from cartangrade.oalg import OElem
from cartangrade.witt import WElem, d_ij_z
from algebra_helpers import grading_from_components


CFG = Config(5, 2)
G2 = AbGroup(0, (5, 5))
A = G2.element((1, 0))
B = G2.element((0, 1))


def random_elem(cfg, rng):
    return OElem(cfg, np.array([rng.randrange(cfg.p) for _ in range(cfg.n)],
                               dtype=np.int64))


def round_trip(text, from_data, to_data):
    """Parse canonical text, re-serialize, and demand byte identity."""
    value = from_data(serialize.loads(text))
    assert serialize.dumps(to_data(value)) == text
    return value


def test_function_round_trip():
    rng = random.Random(3)
    for _ in range(20):
        f = random_elem(CFG, rng)
        text = serialize.dumps(serialize.oelem_to_data(f))
        g = round_trip(text, serialize.oelem_from_data, serialize.oelem_to_data)
        assert g == f


def test_derivation_and_form_round_trip():
    d = d_ij_z(CFG, 1, 2, (1, 1))
    text = serialize.dumps(element_welem_to_data(d))
    d2 = round_trip(text, serialize.welem_from_data, element_welem_to_data)
    assert d2 == d


def test_group_and_element_round_trip():
    for group in (G2, AbGroup(1, (5,)), AbGroup(0, (25,))):
        text = serialize.dumps(element_group_to_data(group))
        back = round_trip(text, serialize.group_from_data, element_group_to_data)
        assert back == group
        g = group.element(tuple(1 for _ in range(group.rank)))
        assert serialize.gelem_from_data(serialize.gelem_to_data(g), group) == g
    with pytest.raises(ParseError):
        serialize.gelem_from_data([1], G2)


def test_grading_round_trip_all_ambients():
    og = grade_O_construct(CFG, G2, [A], [B])
    wg = induce_W(og)
    sg = grade_S_construct(CFG, G2, PSubgroup(G2, (A,)), [B], A * B)
    for g in (og, wg, sg):
        text = serialize.dumps(serialize.grading_to_data(g))
        back = round_trip(text, serialize.grading_from_data,
                          serialize.grading_to_data)
        assert back.ambient == g.ambient
        assert back.same_components(g)


def test_auto_round_trip_and_validation():
    mu = random_auto(CFG, random.Random(9))
    text = serialize.dumps(serialize.auto_to_data(mu))
    back = round_trip(text, serialize.auto_from_data, serialize.auto_to_data)
    assert all(back.images[i] == mu.images[i] for i in range(CFG.m))
    x1 = serialize.oelem_to_data(OElem.variable(CFG, 1))
    with pytest.raises(ValidityError):
        serialize.auto_from_data({"images": [x1, x1]})


def test_invariants_round_trip_with_multiplicity():
    inv = GradingInvariants(PSubgroup(G2, (A,)), [B, B, B ** 2], A * B ** 4)
    data = serialize.invariants_to_data(inv)
    assert data["s"] == 1
    assert data["gamma"] == [{"rep": [0, 1], "mult": 2}, {"rep": [0, 2], "mult": 1}]
    back = serialize.invariants_from_data(serialize.loads(serialize.dumps(data)), G2)
    assert canonical_key(back) == canonical_key(inv)
    bad = dict(data, s=2)
    with pytest.raises(ParseError):
        serialize.invariants_from_data(bad, G2)
    bad = dict(data, gamma=[{"rep": [0, 1], "mult": 0}])
    with pytest.raises(ParseError):
        serialize.invariants_from_data(bad, G2)


@pytest.mark.parametrize("field, value", [("mult", True), ("s", True)])
def test_invariants_reader_refuses_booleans(field, value):
    data = serialize.invariants_to_data(GradingInvariants(PSubgroup(G2, (A,)), [B], None))
    if field == "mult":
        data["gamma"][0]["mult"] = value
    else:
        data[field] = value
    with pytest.raises(ParseError, match="must be an integer, got True"):
        serialize.invariants_from_data(data, G2)


def test_parse_error_paths():
    with pytest.raises(ParseError):
        serialize.loads("{not json")
    with pytest.raises(ParseError):
        serialize.loads('{"p": ' + "1" * 5000 + "}")
    f = serialize.oelem_to_data(OElem.one(CFG))
    with pytest.raises(ParseError):
        serialize.oelem_from_data({k: v for k, v in f.items() if k != "terms"})
    with pytest.raises(ParseError):
        serialize.oelem_from_data(dict(f, basis="y"))
    with pytest.raises(ParseError):
        serialize.oelem_from_data(dict(f, terms=[{"alpha": [9, 0], "c": 1}]))
    with pytest.raises(ParseError):
        serialize.oelem_from_data(dict(f, terms=[{"alpha": [1, 0], "c": "x"}]))
    with pytest.raises(ParseError):
        serialize.oelem_from_data(f, Config(5, 3))
    g = serialize.grading_to_data(grade_O_construct(CFG, G2, [A], [B]))
    twice = dict(g, components=g["components"] + [g["components"][0]])
    with pytest.raises(ParseError):
        serialize.grading_from_data(twice)
    with pytest.raises(ParseError):
        serialize.grading_from_data(dict(g, ambient="Q"))


def standard_request(**fields):
    data = {"p": 5, "m": 2, "kind": "O",
            "group": {"free_rank": 0, "torsion": [5, 5]},
            "basis": [[1, 0]], "gamma": [[0, 1]]}
    data.update(fields)
    return data


def write_request(path, **fields):
    path.write_text(json.dumps(standard_request(**fields)))
    return path


def test_cli_construct_verify_classify(tmp_path):
    req = write_request(tmp_path / "req.json")
    out = tmp_path / "g.json"
    assert cli.main(["grade", "construct", "--request", str(req),
                     "--out", str(out)]) == 0
    text = out.read_text()
    grading = serialize.grading_from_data(serialize.loads(text))
    assert serialize.dumps(serialize.grading_to_data(grading)) == text
    assert grading.same_components(grade_O_construct(CFG, G2, [A], [B]))

    report = tmp_path / "verify.json"
    assert cli.main(["grade", "verify", "--grading", str(out),
                     "--out", str(report)]) == 0
    payload = json.loads(report.read_text())
    assert payload["valid"] is True and not payload["failures"]

    inv_out = tmp_path / "inv.json"
    assert cli.main(["grade", "classify", "--grading", str(out),
                     "--out", str(inv_out)]) == 0
    payload = json.loads(inv_out.read_text())
    assert payload == {"P": [[1, 0]], "s": 1,
                       "gamma": [{"rep": [0, 1], "mult": 1}], "g0": None}
    assert cli.main(["grade", "classify", "--grading", str(out), "--flavor", "S",
                     "--out", str(inv_out)]) == 0
    assert json.loads(inv_out.read_text())["g0"] == [1, 1]


def test_cli_verify_rejects_swapped_components(tmp_path):
    req = write_request(tmp_path / "req.json")
    out = tmp_path / "g.json"
    assert cli.main(["grade", "construct", "--request", str(req),
                     "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    comps = data["components"]
    comps[1]["basis"], comps[5]["basis"] = comps[5]["basis"], comps[1]["basis"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert cli.main(["grade", "verify", "--grading", str(bad),
                     "--out", str(tmp_path / "r.json")]) == 4


def test_cli_iso_witness_file(tmp_path):
    req1 = write_request(tmp_path / "r1.json")
    req2 = write_request(tmp_path / "r2.json", gamma=[[1, 1]])
    f1, f2 = tmp_path / "g1.json", tmp_path / "g2.json"
    assert cli.main(["grade", "construct", "--request", str(req1), "--out", str(f1)]) == 0
    assert cli.main(["grade", "construct", "--request", str(req2), "--out", str(f2)]) == 0
    wit_file = tmp_path / "wit.json"
    res = tmp_path / "iso.json"
    assert cli.main(["grade", "iso", "--g1", str(f1), "--g2", str(f2),
                     "--witness-out", str(wit_file), "--out", str(res)]) == 0
    payload = json.loads(res.read_text())
    assert payload["isomorphic"] is True and payload["status"] == "witness"
    mu = serialize.auto_from_data(json.loads(wit_file.read_text()))
    g1 = serialize.grading_from_data(json.loads(f1.read_text()))
    g2 = serialize.grading_from_data(json.loads(f2.read_text()))
    assert push_grading(mu, g1).same_components(g2)
    # distinct invariants: exit 0 with a negative verdict
    req3 = write_request(tmp_path / "r3.json", basis=[[0, 1]], gamma=[[1, 0]])
    f3 = tmp_path / "g3.json"
    assert cli.main(["grade", "construct", "--request", str(req3), "--out", str(f3)]) == 0
    assert cli.main(["grade", "iso", "--g1", str(f1), "--g2", str(f3),
                     "--out", str(res)]) == 0
    payload = json.loads(res.read_text())
    assert payload == {"isomorphic": False, "status": "distinct-invariants"}


def test_cli_fine_and_flavor_errors(tmp_path):
    out = tmp_path / "fine.json"
    assert cli.main(["grade", "fine", "--p", "5", "--m", "2",
                     "--ambient", "O", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["count"] == 3
    assert len(payload["gradings"]) == 3
    # flavor W expects a derivation grading
    req = write_request(tmp_path / "req.json")
    f1 = tmp_path / "g1.json"
    assert cli.main(["grade", "construct", "--request", str(req), "--out", str(f1)]) == 0
    assert cli.main(["grade", "classify", "--grading", str(f1),
                     "--flavor", "W"]) == 3


@pytest.mark.parametrize("name, flavor, error", [
    ("W_raw", "O", "error: flavor O classifies gradings of the truncated polynomial algebra; "
                   "got ambient 'W'"),
    ("O_raw_x", "W", "error: flavor W classifies derivation-algebra gradings"),
    ("sub_std", "S", "error: subalgebra gradings carry no inducing algebra grading; "
                     "decide on that instead"),
    ("sub_std", "H", "error: subalgebra gradings carry no inducing algebra grading; "
                     "decide on that instead"),
])
def test_cli_classify_refuses_a_flavor_of_another_ambient(name, flavor, error, capsys):
    argv = ["grade", "classify", "--grading", str(GOLDEN_INPUTS / f"{name}.json"),
            "--flavor", flavor]
    assert cli.main(argv) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.strip() == error


def test_cli_classify_symplectic_flavor(tmp_path, capsys):
    """H reads as S at m = 2 and is refused as open beyond."""
    raw = str(GOLDEN_INPUTS / "S_vol_x.json")
    outs = []
    for flavor in ("S", "H"):
        assert cli.main(["grade", "classify", "--grading", raw, "--flavor", flavor]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and json.loads(outs[0])["g0"] is not None
    req = write_request(tmp_path / "r3.json", m=3, group={"free_rank": 0, "torsion": [5]},
                        basis=[[1]], gamma=[[1], [2]])
    f3 = tmp_path / "g3.json"
    assert cli.main(["grade", "construct", "--request", str(req), "--out", str(f3)]) == 0
    assert cli.main(["grade", "classify", "--grading", str(f3), "--flavor", "H"]) == 3
    assert capsys.readouterr().err.strip() == (
        "error: hamiltonian classification beyond m = 2 is open-in-paper")


def test_cli_derivation_pipeline(tmp_path):
    req = write_request(tmp_path / "req.json", kind="W")
    out = tmp_path / "w.json"
    assert cli.main(["grade", "construct", "--request", str(req), "--out", str(out)]) == 0
    grading = serialize.grading_from_data(json.loads(out.read_text()))
    assert grading.ambient == "W"
    inv_out = tmp_path / "inv.json"
    assert cli.main(["grade", "classify", "--grading", str(out), "--flavor", "W",
                     "--out", str(inv_out)]) == 0
    assert json.loads(inv_out.read_text())["P"] == [[1, 0]]


def test_cli_exit_codes(tmp_path):
    # unreadable and unparsable inputs
    assert cli.main(["grade", "verify", "--grading",
                     str(tmp_path / "missing.json")]) == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{oops")
    assert cli.main(["grade", "verify", "--grading", str(broken)]) == 2
    # missing required request field
    req = tmp_path / "req.json"
    req.write_text(json.dumps({"p": 5, "m": 2, "kind": "O"}))
    assert cli.main(["grade", "construct", "--request", str(req)]) == 2
    # semantic refusals
    assert cli.main(["grade", "fine", "--p", "3", "--m", "2"]) == 3
    assert cli.main(["grade", "fine", "--p", "4", "--m", "2"]) == 3
    small = write_request(tmp_path / "small.json", p=3,
                          group={"free_rank": 0, "torsion": [3, 3]})
    g3 = tmp_path / "g3.json"
    assert cli.main(["grade", "construct", "--request", str(small),
                     "--out", str(g3)]) == 0
    assert cli.main(["grade", "verify", "--grading", str(g3)]) == 0
    assert cli.main(["grade", "classify", "--grading", str(g3)]) == 3


def _verify_outcome(tmp_path, capsys, argv, gradings):
    """Exit code of a producing verb, and its outputs through grade verify:
    each must verify with exit 0, or the verb must refuse with exit 3 and
    one error line."""
    code = cli.main(argv)
    out, err = capsys.readouterr()
    if code == 3:
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")
        return code
    assert code == 0
    for k, data in enumerate(gradings(json.loads(out))):
        path = tmp_path / f"out{k}.json"
        path.write_text(json.dumps(data))
        assert cli.main(["grade", "verify", "--grading", str(path)]) == 0
        assert json.loads(capsys.readouterr()[0])["valid"] is True
    return code


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("kind", ["O", "W", "S"])
def test_cli_producers_write_what_verify_reads(kind, m, tmp_path, capsys):
    """Every construct kind and fine ambient at m = 1 and 2 writes payloads
    that grade verify accepts, or refuses with exit 3.  The volume flavor
    starts at m = 2 (S(1;1) has derived algebra 0), so S refuses at m = 1."""
    want = 3 if kind == "S" and m == 1 else 0
    toral = {"group": {"free_rank": 0, "torsion": [5] * m}, "g0": [1] * m,
             "basis": [[1] + [0] * (m - 1)], "gamma": [[0, 1]] if m == 2 else []}
    free = {"group": {"free_rank": m, "torsion": []}, "basis": [],
            "gamma": [[int(i == j) for j in range(m)] for i in range(m)], "g0": [1] * m}
    for fields in (toral, free):
        req = write_request(tmp_path / "req.json", m=m, kind=kind, **fields)
        argv = ["grade", "construct", "--request", str(req)]
        assert _verify_outcome(tmp_path, capsys, argv, lambda data: [data]) == want
    argv = ["grade", "fine", "--p", "5", "--m", str(m), "--ambient", kind]
    assert _verify_outcome(tmp_path, capsys, argv, lambda data: data["gradings"]) == want


DEPENDENT_S_REQUEST = {"p": 5, "m": 2, "kind": "S",
                       "group": {"free_rank": 0, "torsion": [5, 5]},
                       "basis": [[1, 2], [2, 4]], "gamma": [], "g0": [3, 1]}


@pytest.mark.parametrize("target", ["missing", "directory"])
@pytest.mark.parametrize("verb", ["construct", "fine", "iso"])
def test_cli_unwritable_output_path_is_a_parse_error(verb, target, tmp_path, capsys):
    path = tmp_path / "missing" / "out.json" if target == "missing" else tmp_path
    if verb == "construct":
        argv = ["grade", "construct", "--request", str(write_request(tmp_path / "req.json")),
                "--out", str(path)]
    elif verb == "fine":
        argv = ["grade", "fine", "--p", "5", "--m", "2", "--out", str(path)]
    else:
        argv = ["grade", "iso", "--g1", str(GOLDEN_INPUTS / "O_raw_x.json"),
                "--g2", str(GOLDEN_INPUTS / "O_raw_y.json"), "--witness-out", str(path)]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    reason = "No such file or directory" if target == "missing" else "Is a directory"
    assert out == "" and err.startswith(f"error: cannot write {path}: ")
    assert reason in err and err.count("\n") == 1


def test_cli_dependent_toral_basis_is_refused(tmp_path, capsys):
    req = write_request(tmp_path / "dep.json", **DEPENDENT_S_REQUEST)
    assert cli.main(["grade", "construct", "--request", str(req)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "independent" in err


def test_cli_dependent_toral_basis_is_refused_without_asserts(tmp_path):
    # python -O strips assert statements; the refusal must not depend on them.
    req = write_request(tmp_path / "dep.json", **DEPENDENT_S_REQUEST)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-O", "-m", "cartangrade.cli", "grade",
                          "construct", "--request", str(req)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 3 and run.stdout == ""
    assert run.stderr.startswith("error: ") and "independent" in run.stderr


def test_cli_failed_witness_self_check_exits_4(tmp_path, monkeypatch, capsys):
    """A wrong witness: the bridge's free image gets the square of its toral
    image added, which keeps an automorphism but moves the frame row of the
    free degree out of its block, so the self-check refuses it."""
    req = write_request(tmp_path / "req.json")
    f1 = tmp_path / "g1.json"
    assert cli.main(["grade", "construct", "--request", str(req), "--out", str(f1)]) == 0
    bridge = classify._standard_bridge

    def skewed(*args, **kwargs):
        images = bridge(*args, **kwargs)
        return images[:-1] + [images[-1] + images[0] * images[0]]

    monkeypatch.setattr(classify, "_standard_bridge", skewed)
    assert cli.main(["grade", "iso", "--g1", str(f1), "--g2", str(f1)]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: witness") and err.count("\n") == 1


DEEP_PAYLOAD = b"[" * 100_000 + b"]" * 100_000
NOT_UTF8_PAYLOAD = b"\xff" + json.dumps(standard_request()).encode()


@pytest.mark.parametrize("source", ["file", "stdin"])
@pytest.mark.parametrize("flag", ["--grading", "--request"])
@pytest.mark.parametrize("payload", [DEEP_PAYLOAD, NOT_UTF8_PAYLOAD], ids=["deep", "not-utf8"])
def test_cli_undecodable_payload_text_is_a_parse_error(payload, flag, source, tmp_path,
                                                        monkeypatch, capsys):
    """JSON nested 100,000 deep (a RecursionError in the parser) and bytes
    that are not UTF-8 exit 2 with one error line, from a file and from
    stdin; stdin decodes strictly, as under a UTF-8 locale."""
    path = tmp_path / "payload.json"
    path.write_bytes(payload)
    if source == "stdin":
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(payload), encoding="utf-8"))
        path = "-"
    verb = "verify" if flag == "--grading" else "construct"
    assert cli.main(["grade", verb, flag, str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def _huge_basis_tag():
    data = _standard_grading_payload()
    data["components"][0]["basis"][0]["basis"] = "y" * 1_000_000
    return data


@pytest.mark.parametrize("verb, flag, payload", [
    ("construct", "--request", lambda: standard_request(basis=[["x"] * 200_000])),
    ("verify", "--grading", _huge_basis_tag),
], ids=["request-basis-entry", "grading-basis-tag"])
def test_cli_error_line_bounds_the_echoed_value(verb, flag, payload, tmp_path, capsys):
    """A payload value of about 1 MB is echoed in at most 60 characters: the
    refusal is one error line of at most 200 bytes."""
    path = tmp_path / "payload.json"
    path.write_text(json.dumps(payload()))
    assert cli.main(["grade", verb, flag, str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert len(err.encode()) <= 200


# An integer of 4,001 digits, under str's digit limit, so JSON reads it.
HUGE = 10 ** 4000


def test_cli_clips_a_huge_free_rank(tmp_path, capsys):
    req = write_request(tmp_path / "req.json", group={"free_rank": -HUGE, "torsion": [5, 5]})
    assert cli.main(["grade", "construct", "--request", str(req)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert "bad free rank -1000" in err and len(err.encode()) <= 200


def test_cli_clips_a_huge_prime_in_a_function_payload(tmp_path, capsys):
    """gfp.Config's "exceeds the dimension cap" line, wrapped as a bad
    configuration in the payload: about 4 KB before the clip."""
    data = _standard_grading_payload()
    data["components"][0]["basis"][0].update(p=HUGE + 1, m=1)
    src = tmp_path / "big.json"
    src.write_text(json.dumps(data))
    assert cli.main(["grade", "verify", "--grading", str(src)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert "p**m = 1000" in err and "exceeds the dimension cap 2401" in err
    assert len(err.encode()) <= 200


@pytest.mark.parametrize("field", ["s", "mult"])
def test_invariants_reader_clips_huge_integers(field):
    """The "rank field" and "bad multiplicity" refusals echo at most 60
    characters of the value."""
    data = serialize.invariants_to_data(GradingInvariants(PSubgroup(G2, (A,)), [B], None))
    if field == "mult":
        data["gamma"][0]["mult"] = -HUGE
    else:
        data[field] = HUGE
    with pytest.raises(ParseError) as info:
        serialize.invariants_from_data(data, G2)
    message = str(info.value)
    assert message.startswith("rank field 1000" if field == "s" else "bad multiplicity -1000")
    assert len(message) <= 120


def test_cli_refuses_a_prime_past_the_float_bound(tmp_path, monkeypatch, capsys):
    # 208067 * 208066**2 >= 2**53: products at m = 1 would not be exact.
    monkeypatch.setenv("CARTAN_GRADE_MAX_DIM", "1000000")
    req = write_request(tmp_path / "big.json", p=208067, m=1,
                        group={"free_rank": 1, "torsion": []}, basis=[], gamma=[[1]])
    assert cli.main(["grade", "construct", "--request", str(req)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "double precision" in err


def test_cli_refuses_a_huge_prime_in_a_function_payload(tmp_path, capsys):
    # 10**18 + 3 is prime: trial division up to its square root would take
    # about 10**9 steps, but p**m is past the dimension cap.
    data = _standard_grading_payload()
    data["components"][0]["basis"][0].update(p=10**18 + 3, m=1)
    src = tmp_path / "big.json"
    src.write_text(json.dumps(data))
    start = time.perf_counter()
    assert cli.main(["grade", "verify", "--grading", str(src)]) == 2
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "exceeds" in err


def test_cli_refuses_a_toral_degree_of_large_prime_order(tmp_path, capsys):
    req = write_request(tmp_path / "s.json", kind="S",
                        group={"free_rank": 0, "torsion": [2147483647, 5]},
                        basis=[[1, 0]], gamma=[[0, 1]], g0=[1, 1])
    start = time.perf_counter()
    assert cli.main(["grade", "construct", "--request", str(req)]) == 3
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "does not have order 5" in err


def test_cli_refuses_a_unit_row_labelled_past_order_p(tmp_path, capsys):
    # Not a grading: in the identity basis the row of x_1 becomes 1 + x_1,
    # labelled [1] of order 2**31 - 1.  A homogeneous unit has degree of
    # order 1 or p, so recognition refuses the row before the subgroup
    # arithmetic would enumerate 2**31 - 1 exponents.
    group = AbGroup(0, (2147483647,))
    row = CFG.index((1, 0))
    basis = np.eye(CFG.n, dtype=np.int64)
    basis[row, 0] = 1
    labels = [group.element((int(k == row),)) for k in range(CFG.n)]
    src = tmp_path / "unit.json"
    src.write_text(serialize.dumps(serialize.grading_to_data(
        gradings.Grading(CFG, group, "O", basis, labels))))
    for flavor in ("O", "S"):
        start = time.perf_counter()
        assert cli.main(["grade", "classify", "--grading", str(src), "--flavor", flavor]) == 3
        assert time.perf_counter() - start < 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert "order 1 or 5" in err


def test_cli_classify_and_iso_refuse_a_non_grading(capsys):
    # O_swapped is a pushed O grading with the labels of two components
    # swapped: verify rejects it, and classify and iso refuse it (exit 3).
    # Flavor S refuses it in recognition already: its volume line is not
    # homogeneous.
    inputs = Path(__file__).resolve().parent / "golden" / "inputs"
    swapped, raw = str(inputs / "O_swapped.json"), str(inputs / "O_raw_x.json")
    assert cli.main(["grade", "verify", "--grading", swapped]) == 4
    capsys.readouterr()
    not_a_grading = "error: payload is not a grading: degrees ("
    runs = [(["grade", "classify", "--grading", swapped, "--flavor", "O"], not_a_grading),
            (["grade", "classify", "--grading", swapped, "--flavor", "S"],
             "error: grading does not keep the volume line homogeneous")]
    runs += [(["grade", "iso", "--flavor", "O", "--g1", a, "--g2", b], not_a_grading)
             for a, b in ((swapped, raw), (raw, swapped))]
    for argv, error in runs:
        assert cli.main(argv) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and err.startswith(error)


def test_cli_verifies_a_raw_O_grading_at_four_variables(tmp_path, capsys):
    # dim = 625: the certificate checks 4 generator rows instead of 625.
    cfg = Config(5, 4)
    x = [OElem.variable(cfg, i) for i in range(1, 5)]
    mu = AutO([x[0] + x[1] * x[2], x[1] + 2 * x[0] * x[0], x[2] + x[3],
               x[3] + 3 * x[0] * x[3]])
    grading = push_grading(mu, grade_O_construct(cfg, G2, [A], [B, A * B, B ** 2]))
    src = tmp_path / "m4.json"
    src.write_text(serialize.dumps(serialize.grading_to_data(grading)))
    start = time.perf_counter()
    assert cli.main(["grade", "verify", "--grading", str(src)]) == 0
    assert time.perf_counter() - start < 8
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"valid": True, "pairs_checked": 390625, "failures": []}


def test_cli_malformed_dimension_cap_is_an_error(monkeypatch, capsys):
    monkeypatch.setenv("CARTAN_GRADE_MAX_DIM", "abc")
    assert cli.main(["dims", "--p", "5", "--m", "2"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: CARTAN_GRADE_MAX_DIM")
    monkeypatch.setenv("CARTAN_GRADE_MAX_DIM", "20")
    assert cli.main(["dims", "--p", "5", "--m", "2"]) == 3
    assert "exceeds the dimension cap 20" in capsys.readouterr().err


def test_cli_paper_check_and_dims(tmp_path):
    out = tmp_path / "pc.json"
    assert cli.main(["paper-check", "--p", "5", "--m", "2", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["ok"] is True
    assert all(c["status"] in ("pass", "skipped") for c in payload["checks"])
    assert cli.main(["paper-check", "--p", "3", "--m", "2"]) == 3

    out = tmp_path / "dims.json"
    assert cli.main(["dims", "--p", "5", "--m", "2", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    byname = {row["algebra"]: row for row in payload["dims"]}
    assert byname["O(2;1)"]["computed"] == 25
    assert byname["W(2;1)"]["computed"] == 50
    assert byname["S(2;1)^(1)"]["computed"] == 24
    assert byname["H(2;1)^(2)"]["computed"] == 23
    assert all(row["agree"] for row in payload["dims"])
    assert payload["ok"] is True
    # small characteristic: only the unrestricted families are reported
    assert cli.main(["dims", "--p", "2", "--m", "2",
                     "--out", str(tmp_path / "d2.json")]) == 0


def test_cli_stdout_and_table(tmp_path, capsys):
    req = write_request(tmp_path / "req.json")
    assert cli.main(["grade", "construct", "--request", str(req)]) == 0
    printed = capsys.readouterr().out
    grading = serialize.grading_from_data(serialize.loads(printed))
    _, inv = recognize_O(grading)
    assert inv.s == 1
    assert cli.main(["dims", "--p", "5", "--m", "2", "--format", "table"]) == 0
    table = capsys.readouterr().out
    assert "O" in table and "25" in table


def _standard_grading_payload():
    return serialize.grading_to_data(grade_O_construct(CFG, G2, [A], [B]))


def _set(data, path, value):
    for key in path[:-1]:
        data = data[key]
    data[path[-1]] = value


TERMS = ("components", 0, "basis", 0, "terms")
MISTYPED = [
    ("verify", ("components",), None), ("verify", ("components",), 3),
    ("verify", ("components", 0, "basis"), 3), ("verify", ("components", 0, "basis"), None),
    ("verify", TERMS, None), ("verify", TERMS, 5),
    ("construct", ("p",), "5"), ("construct", ("m",), "2"),
    ("construct", ("basis",), 3), ("construct", ("gamma",), None),
]


# JSON true and false are not integers, although Python reads them as bool,
# a subclass of int.
BOOLEANS = [
    ("verify", TERMS + (0, "c"), True), ("verify", TERMS + (0, "alpha"), [True, 0]),
    ("verify", ("components", 0, "degree"), [False, False]),
    ("verify", ("group", "free_rank"), False),
    ("construct", ("p",), True), ("construct", ("m",), True),
    ("construct", ("basis",), [[True, 0]]),
]


@pytest.mark.parametrize("verb, path, value", MISTYPED + BOOLEANS)
def test_cli_rejects_mistyped_fields(tmp_path, capsys, verb, path, value):
    data = standard_request() if verb == "construct" else _standard_grading_payload()
    _set(data, path, value)
    src = tmp_path / "in.json"
    src.write_text(json.dumps(data))
    flag = "--request" if verb == "construct" else "--grading"
    assert cli.main(["grade", verb, flag, str(src)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


def _fuzz_bases():
    og = grade_O_construct(CFG, G2, [A], [B])
    wg = induce_W(og)
    sg = grade_S_construct(CFG, G2, PSubgroup(G2, (A,)), [B], A * B)
    mu = random_auto(CFG, random.Random(4))
    payloads = [serialize.grading_to_data(g) for g in (og, wg, sg)]
    requests = [standard_request(kind=k) for k in ("O", "W")]
    requests.append(standard_request(kind="S", g0=[1, 1]))
    # iso pairs each payload with its neighbour: (standard, pushed) per ambient
    pairs = [serialize.grading_to_data(g) for g in (og, push_grading(mu, og),
                                                      wg, push_grading(mu, wg))]
    return {"construct": requests, "verify": payloads, "classify": payloads[:1], "iso": pairs}


FUZZ_BASES = _fuzz_bases()
# Integers outside every field's range: negative, zero, past the dimension
# cap and past int64.
OUT_OF_RANGE = (-1, 0, 10**6, 2**63)
OTHER_TYPES = (None, True, 1.5, "x", 3, [], {})
# Verbs that take only integer flags, and the values each flag is drawn from.
FLAG_VERBS = {"fine": ["grade", "fine"], "paper-check": ["paper-check"], "dims": ["dims"]}
FLAG_VALUES = {"--p": (-1, 0, 1, 2, 3, 4, 5, 6, 10**6, 2**63),
               "--m": (-1, 0, 1, 2, 5, 2**63), "--r": (0, 1, 3)}


def _paths(data, prefix=()):
    """The path to every value inside a JSON payload, the root included."""
    yield prefix, data
    items = data.items() if isinstance(data, dict) else (
        enumerate(data) if isinstance(data, list) else ())
    for key, val in items:
        yield from _paths(val, prefix + (key,))


def _swap_two_degrees(draw, data) -> bool:
    """Swap the degree labels of two components of a grading payload, which
    keeps it well formed but makes it a non-grading; False for a request."""
    comps = data.get("components", [])
    if len(comps) < 2:
        return False
    i = draw(st.integers(0, len(comps) - 1))
    j = (i + draw(st.integers(1, len(comps) - 1))) % len(comps)
    comps[i]["degree"], comps[j]["degree"] = comps[j]["degree"], comps[i]["degree"]
    return True


@st.composite
def mutated_payloads(draw, verbs=None):
    """(verb, payload on stdin or None, flags, second iso payload or None),
    for a verb drawn from verbs (every verb by default)."""
    verb = draw(st.sampled_from(verbs or sorted(FUZZ_BASES) + sorted(FLAG_VERBS)))
    if verb in FLAG_VERBS:
        flags = []
        for flag, values in FLAG_VALUES.items():
            if flag != "--r" or verb != "fine":
                flags += [flag, str(draw(st.sampled_from(values)))]
        if verb == "fine":
            flags += ["--ambient", draw(st.sampled_from(("O", "W", "S")))]
        return verb, None, flags, None
    bases = FUZZ_BASES[verb]
    k = draw(st.integers(0, len(bases) - 1))
    data = copy.deepcopy(bases[k])
    second = None
    flags = []
    if verb == "classify":
        flags = ["--flavor", draw(st.sampled_from(("O", "S")))]
    elif verb == "iso":
        # W payloads go to flavor W, so label swaps reach the not-induced branch.
        second = bases[k ^ 1]
        flavor = "W" if data["ambient"] == "W" else draw(st.sampled_from(("O", "S", "H")))
        flags = ["--flavor", flavor]
    relabelled = False
    for _ in range(draw(st.integers(0, 2))):
        relabelled = _swap_two_degrees(draw, data)
    for _ in range(draw(st.integers(0 if relabelled else 1, 3))):
        how = draw(st.sampled_from(("drop", "swap", "range", "length")))
        spots = list(_paths(data))
        if how == "drop":
            spots = [(path, v) for path, v in spots if path]
        elif how == "range":
            spots = [(path, v) for path, v in spots
                     if path and isinstance(v, int) and not isinstance(v, bool)]
        elif how == "length":
            spots = [(path, v) for path, v in spots if isinstance(v, list) and v]
        # Pick a field name first, then one of its occurrences, so that rare
        # fields (p, m, torsion, ...) are hit as often as the many term entries.
        by_field = {}
        for path, v in spots:
            field = path[-1] if path and isinstance(path[-1], str) else "[]"
            by_field.setdefault(field, []).append((path, v))
        if not by_field:
            continue
        group = by_field[draw(st.sampled_from(sorted(by_field)))]
        path, val = group[draw(st.integers(0, len(group) - 1))]
        if how == "drop":
            parent = data
            for key in path[:-1]:
                parent = parent[key]
            del parent[path[-1]]
        elif how == "length":
            if draw(st.booleans()):
                val.pop()
            else:
                val.append(copy.deepcopy(val[-1]))
        else:
            pool = OUT_OF_RANGE if how == "range" else [
                t for t in OTHER_TYPES if type(t) is not type(val)]
            new = draw(st.sampled_from(pool))
            if path:
                _set(data, path, new)
            else:
                data = new
    return verb, data, flags, second


@settings(derandomize=True, deadline=None, max_examples=300)
@given(mutated_payloads())
def test_cli_survives_mutated_payloads(case):
    verb, data, flags, second = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if verb in FLAG_VERBS:
            argv = FLAG_VERBS[verb] + flags
        elif verb == "iso":
            other = Path(tmp) / "g2.json"
            other.write_text(json.dumps(second))
            argv = ["grade", "iso", "--g1", "-", "--g2", str(other)] + flags
        else:
            flag = "--request" if verb == "construct" else "--grading"
            argv = ["grade", verb, flag, "-"] + flags
        stdin = sys.stdin
        sys.stdin = io.StringIO(json.dumps(data))
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        finally:
            sys.stdin = stdin
        # classify and iso answer only on gradings: an O payload they accept
        # passes verify.
        accepted = [d for d in (data, second) if code == 0 and verb in ("classify", "iso")
                    and isinstance(d, dict) and d.get("ambient") == "O"]
        for k, d in enumerate(accepted):
            path = Path(tmp) / f"accepted{k}.json"
            path.write_text(json.dumps(d))
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["grade", "verify", "--grading", str(path)]) == 0
    assert code in (0, 2, 3, 4)
    # A reply is a payload on stdout (exit 0, or a verify report with exit
    # 4) or one error line on stderr.
    assert bool(out.getvalue()) != err.getvalue().startswith("error: ")


def element_oelem_from_data(data, cfg=None):
    """One OElem from a function payload, each term checked and written into
    a table in turn: the element reader the array reader replaced."""
    if serialize._need(data, "basis", "function", str) != "x":
        raise ParseError(f"unknown basis tag {data['basis']!r}")
    p = serialize._need(data, "p", "function", int)
    m = serialize._need(data, "m", "function", int)
    if cfg is None:
        try:
            cfg = Config(p, m)
        except CartanGradeError as exc:
            raise ParseError(f"bad configuration in payload: {exc}") from exc
    elif (cfg.p, cfg.m) != (p, m):
        raise ParseError(f"payload is for p={p}, m={m}, expected p={cfg.p}, m={cfg.m}")
    table = np.zeros(cfg.n, dtype=np.int64)
    for term in serialize._need(data, "terms", "function", list):
        alpha = serialize._int_list(serialize._need(term, "alpha", "term", list), "alpha")
        if len(alpha) != m or not all(0 <= a < p for a in alpha):
            raise ParseError(f"bad exponent vector {alpha!r}")
        table[cfg.index(alpha)] = serialize._need(term, "c", "term", int) % p
    return OElem(cfg, table)


def element_welem_from_data(data, cfg=None):
    coeffs = serialize._need(data, "coeffs", "derivation", list)
    if not coeffs:
        raise ParseError("derivation payload needs a nonempty coefficient list")
    parsed = []
    for item in coeffs:
        f = element_oelem_from_data(item, cfg)
        cfg = f.cfg
        parsed.append(f)
    if len(parsed) != cfg.m:
        raise ParseError(f"derivation needs {cfg.m} coefficients, got {len(parsed)}")
    return WElem.from_coeffs(parsed)


def element_grading_from_data(data):
    """The oracle of the array reader: one element object per row, then
    grading_from_components."""
    group = serialize.group_from_data(serialize._need(data, "group", "grading", dict))
    ambient = serialize._need(data, "ambient", "grading", str)
    if ambient not in ("O", "W", "sub"):
        raise ParseError(f"unknown ambient {ambient!r}")
    vec_from = element_oelem_from_data if ambient == "O" else element_welem_from_data
    cfg, comps = None, {}
    for item in serialize._need(data, "components", "grading", list):
        degree = serialize.gelem_from_data(serialize._need(item, "degree", "component", list),
                                           group)
        vecs = []
        for payload in serialize._need(item, "basis", "component", list):
            v = vec_from(payload, cfg)
            cfg = v.cfg
            vecs.append(v)
        if degree in comps:
            raise ParseError(f"duplicate component degree {degree!r}")
        if not vecs:
            raise ParseError("empty component in grading payload")
        comps[degree] = vecs
    if not comps:
        raise ParseError("grading payload has no components")
    try:
        return grading_from_components(cfg, group, ambient, comps)
    except CartanGradeError as exc:
        raise ValidityError(f"parsed grading is inconsistent: {exc}") from exc


def _outcome(read, data):
    try:
        return read(data)
    except CartanGradeError as exc:
        return type(exc), str(exc)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(mutated_payloads(verbs=("verify",)))
def test_array_reader_matches_the_element_reader(case):
    _, data, _, _ = case
    got, want = _outcome(serialize.grading_from_data, data), _outcome(element_grading_from_data, data)
    if isinstance(want, tuple):
        assert got == want
        return
    assert isinstance(got, Grading)
    assert np.array_equal(got.basis, want.basis) and got.labels == want.labels


def test_array_reader_keeps_the_last_of_repeated_terms():
    data = _standard_grading_payload()
    terms = data["components"][3]["basis"][0]["terms"]
    terms += [{"alpha": terms[0]["alpha"], "c": 3}, {"alpha": [1, 0], "c": 2**70 + 2}]
    got = serialize.grading_from_data(data)
    want = element_grading_from_data(data)
    assert np.array_equal(got.basis, want.basis) and got.labels == want.labels


GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"


@pytest.mark.parametrize("name, eliminations", [("O_raw_x", 1), ("W_raw", 1), ("sub_std", 2)])
def test_cli_verify_eliminates_the_basis_once(name, eliminations, monkeypatch, capsys):
    calls = []
    rref = linalg.rref

    def counting(mat, p):
        calls.append(np.shape(mat))
        return rref(mat, p)

    monkeypatch.setattr(linalg, "rref", counting)
    assert cli.main(["grade", "verify", "--grading", str(GOLDEN_INPUTS / f"{name}.json")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["valid"] is True
    # An elimination of the basis has one row per basis row.  The only other
    # one is the O certificate's frame pick (gradings.frame_rows), on the
    # m x dim matrix of linear parts (m = 2 here).
    dim = math.isqrt(report["pairs_checked"])
    assert sum(shape[0] == dim for shape in calls) == eliminations
    assert [shape for shape in calls if shape[0] != dim] == ([(2, dim)] if name == "O_raw_x" else [])


@pytest.mark.parametrize("message, line", [
    ("Unable to allocate 704. MiB for an array with shape (9604, 9604) and data type float64",
     "error: out of memory: Unable to allocate 704. MiB for an array with shape (9604, 9604) "
     "and data type float64"),
    ("", "error: out of memory")])
def test_cli_maps_memory_error_to_a_refusal(message, line, monkeypatch, capsys):
    def exhausted(grading):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "verify_grading", exhausted)
    argv = ["grade", "verify", "--grading", str(GOLDEN_INPUTS / "O_raw_x.json")]
    assert cli.main(argv) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == line + "\n"


def test_cli_runs_a_verb_rebound_after_the_parser_was_built(monkeypatch, capsys):
    argv = ["grade", "verify", "--grading", str(GOLDEN_INPUTS / "O_raw_x.json")]
    assert cli.main(argv) == 0
    capsys.readouterr()
    seen = []

    def patched(args):
        seen.append(args.grading)
        return 4

    monkeypatch.setattr(cli, "cmd_grade_verify", patched)
    assert cli.main(argv) == 4
    assert seen == [argv[-1]]


def test_cli_calls_in_one_process_keep_their_own_options(tmp_path, capsys):
    """One parser serves every call of a process: the options of one call
    leave nothing behind for the next."""
    pc = ["paper-check", "--p", "5", "--m", "2"]
    assert cli.main(pc + ["--format", "table"]) == 0
    table = capsys.readouterr().out
    with pytest.raises(json.JSONDecodeError):
        json.loads(table)
    assert cli.main(pc) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True

    verify = ["grade", "verify", "--grading", str(GOLDEN_INPUTS / "O_raw_x.json")]
    out = tmp_path / "report.json"
    assert cli.main(verify + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["valid"] is True
    assert cli.main(verify) == 0
    assert json.loads(capsys.readouterr().out)["valid"] is True

    with pytest.raises(SystemExit) as exc:
        cli.main(["grade", "verify"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "the following arguments are required: --grading" in captured.err
    assert cli.main(verify) == 0
    assert json.loads(capsys.readouterr().out)["valid"] is True


def element_group_to_data(group):
    return {"free_rank": group.free_rank, "torsion": [int(d) for d in group.torsion]}


def element_welem_to_data(d):
    return {"coeffs": [serialize.oelem_to_data(d.coeff(i)) for i in range(1, d.cfg.m + 1)]}


def element_grading_to_data(grading):
    """The oracle of grading_text: one element object and one dict per row
    and term, read through components (the builder grading_text replaced)."""
    vec_data = serialize.oelem_to_data if grading.ambient == "O" else element_welem_to_data
    comps = [{"degree": serialize.gelem_to_data(g), "basis": [vec_data(v) for v in vecs]}
             for g, vecs in grading.components.items()]
    return {"group": element_group_to_data(grading.group),
            "ambient": grading.ambient,
            "components": comps}


def oracle_gradings(p, m, s, rng):
    """The standard O, W and S gradings of toral rank s over Z x Z_p^s, free
    degrees with negative and more-than-64-bit coordinates, and pushes of
    the O and W ones by a random automorphism."""
    cfg = Config(p, m)
    group = AbGroup(1, (p,) * s)
    toral = [group.element((0,) + tuple(int(i == j) for j in range(s))) for i in range(s)]
    gamma = [group.element(((-1 if k == 0 else 1) * rng.randrange(2 ** 64, 2 ** 72),)
                           + tuple(rng.randrange(p) for _ in range(s)))
             for k in range(m - s)]
    og = grade_O_construct(cfg, group, toral, gamma)
    wg = induce_W(og)
    out = [og, wg, push_grading(random_auto(cfg, rng), og), push_grading(random_auto(cfg, rng), wg)]
    if m == 2 or s == 1:        # S at m = 3 costs seconds per toral rank
        g0 = group.identity()
        for g in gamma + toral[:1]:
            g0 = g0 * g
        out.append(grade_S_construct(cfg, group, PSubgroup(group, tuple(toral)), gamma, g0))
    return out


@pytest.mark.parametrize("p, m", [(5, 2), (7, 2), (5, 3)])
def test_grading_text_matches_the_element_writer(p, m):
    rng = random.Random(f"grading_text.p{p}.m{m}")
    zero_tables, coords = 0, set()
    for s in range(m + 1):
        for g in oracle_gradings(p, m, s, rng):
            want = element_grading_to_data(g)
            assert serialize.grading_text(g) + "\n" == json.dumps(want, indent=2) + "\n"
            assert serialize.grading_to_data(g) == want
            coords.update(c for comp in want["components"] for c in comp["degree"])
            if g.ambient != "O":
                zero_tables += sum(not f["terms"] for comp in want["components"]
                                   for row in comp["basis"] for f in row["coeffs"])
    assert min(coords) < -2 ** 64 and max(coords) > 2 ** 64
    assert zero_tables > 0      # W rows with an all-zero coefficient table


@pytest.mark.parametrize("m, ambient", [(2, "O"), (2, "W"), (2, "S"), (3, "O"), (3, "W")])
def test_cli_fine_matches_the_element_writer(m, ambient, capsys):
    assert cli.main(["grade", "fine", "--p", "5", "--m", str(m), "--ambient", ambient]) == 0
    gradings = enumerate_fine(Config(5, m), ambient)
    want = {"ambient": ambient, "count": len(gradings),
            "gradings": [element_grading_to_data(g) for g in gradings]}
    assert capsys.readouterr().out == json.dumps(want, indent=2) + "\n"
