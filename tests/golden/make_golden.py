"""Regenerate the golden CLI corpus in this directory.

    PYTHONPATH=src python3 tests/golden/make_golden.py

Writes the inputs (compact JSON under inputs/), runs every case through
cli.main in process, and records its exit code, its stdout bytes (under
expected/) and its `error:` line in cases.json.  tests/test_golden.py
replays the cases and compares byte for byte.  Regenerate only when a
change of the payloads is intended, and say so where the change is
recorded.
"""

import contextlib
import io
import json
import os
import random
import sys
from pathlib import Path

from cartangrade import cli, serialize
from cartangrade.abgroup import AbGroup, PSubgroup
from cartangrade.autos import AutO, push_grading, random_auto
from cartangrade.gfp import Config
from cartangrade.gradings import grade_O_construct, grade_S_construct, induce_W
from cartangrade.oalg import OElem

HERE = Path(__file__).resolve().parent
CFG = Config(5, 2)
G2 = AbGroup(0, (5, 5))
A, B = G2.element((1, 0)), G2.element((0, 1))


def request(kind, basis, gamma, m=2, group=(0, [5, 5]), g0=None):
    data = {"p": 5, "m": m, "kind": kind,
            "group": {"free_rank": group[0], "torsion": list(group[1])},
            "basis": basis, "gamma": gamma}
    if g0 is not None:
        data["g0"] = g0
    return data


def grading(g):
    return serialize.grading_to_data(g)


def swap_degrees(data, i, j):
    """Swap the degree labels of components i and j: a well formed payload
    that is not a grading."""
    data = json.loads(json.dumps(data))
    comps = data["components"]
    comps[i]["degree"], comps[j]["degree"] = comps[j]["degree"], comps[i]["degree"]
    return data


def share_row(data, i, j):
    """Give component i the basis of component j: the same number of rows,
    but two components share a row, so the rows are dependent."""
    data = json.loads(json.dumps(data))
    comps = data["components"]
    comps[i]["basis"] = json.loads(json.dumps(comps[j]["basis"]))
    return data


def two_faults(data):
    """An exponent out of range in an early term and a missing coefficient in
    a later one: the reader reports the first in document order."""
    data = json.loads(json.dumps(data))
    comps = data["components"]
    comps[0]["basis"][0]["terms"][0]["alpha"] = [9, 0]
    del comps[3]["basis"][0]["terms"][-1]["c"]
    return data


def unipotent(cfg, k):
    """Jacobian-one substitution x1 -> x1 + k*x2^2."""
    x1, x2 = OElem.variable(cfg, 1), OElem.variable(cfg, 2)
    return AutO([x1 + k * (x2 * x2), x2])


def scale_x1(cfg, c):
    """Substitution x1 -> c*x1: jacobian c."""
    return AutO([c * OElem.variable(cfg, 1), OElem.variable(cfg, 2)])


def inputs():
    rng = random.Random(8)
    x = grade_O_construct(CFG, G2, [A], [B])
    y = grade_O_construct(CFG, G2, [A ** 2], [A * B])
    wx = induce_W(x)
    sx = grade_S_construct(CFG, G2, PSubgroup(G2, (A,)), [B], A * B)
    raw_x = push_grading(random_auto(CFG, rng), x)
    raw_y = push_grading(random_auto(CFG, rng), y)
    raw_wy = push_grading(random_auto(CFG, rng), wx)
    vol_x = push_grading(unipotent(CFG, 1), x)
    vol_y = push_grading(scale_x1(CFG, 2).compose(unipotent(CFG, 3)),
                         grade_O_construct(CFG, G2, [A ** 4], [B * A ** 2]))
    return {
        "req_O": request("O", [[1, 0]], [[0, 1]]),
        "req_W": request("W", [[1, 0]], [[1, 1]]),
        "req_S": request("S", [[1, 0]], [[0, 1]], g0=[1, 1]),
        "req_S_m3": request("S", [[1]], [[1], [2]], m=3, group=(0, [5]), g0=[4]),
        "req_dependent": request("S", [[1, 2], [2, 4]], [], g0=[3, 1]),
        "req_S_m1": request("S", [[1]], [], m=1, group=(0, [5]), g0=[1]),
        "O_std": grading(x),
        "O_raw_x": grading(raw_x),
        "O_raw_y": grading(raw_y),
        "O_swapped": swap_degrees(grading(raw_x), 1, 5),
        "O_dependent": share_row(grading(raw_x), 1, 2),
        "O_two_faults": two_faults(grading(raw_x)),
        "O_other": grading(grade_O_construct(CFG, G2, [B], [A])),
        "W_std": grading(wx),
        "W_raw": grading(raw_wy),
        "W_swapped": swap_degrees(grading(raw_wy), 0, 3),
        "W_other": grading(induce_W(grade_O_construct(CFG, G2, [B], [A]))),
        "sub_std": grading(sx),
        "sub_swapped": swap_degrees(grading(sx), 1, 5),
        "sub_dependent": share_row(grading(sx), 1, 2),
        "S_vol_x": grading(vol_x),
        "S_vol_y": grading(vol_y),
        "S_other": grading(grade_O_construct(CFG, G2, [A], [A * B])),
    }


def cases():
    def g(verb, *args):
        return ["grade", verb] + list(args)

    def inp(name):
        return f"inputs/{name}.json"

    return {
        "construct_O_m2": g("construct", "--request", inp("req_O")),
        "construct_W_m2": g("construct", "--request", inp("req_W")),
        "construct_S_m2": g("construct", "--request", inp("req_S")),
        "construct_S_m3_5comp": g("construct", "--request", inp("req_S_m3")),
        "verify_O_valid": g("verify", "--grading", inp("O_raw_x")),
        "verify_O_corrupt": g("verify", "--grading", inp("O_swapped")),
        "verify_W_valid": g("verify", "--grading", inp("W_raw")),
        "verify_W_corrupt": g("verify", "--grading", inp("W_swapped")),
        "verify_sub_valid": g("verify", "--grading", inp("sub_std")),
        "verify_sub_corrupt": g("verify", "--grading", inp("sub_swapped")),
        "verify_O_dependent": g("verify", "--grading", inp("O_dependent")),
        "verify_sub_dependent": g("verify", "--grading", inp("sub_dependent")),
        "verify_O_two_faults": g("verify", "--grading", inp("O_two_faults")),
        "classify_O": g("classify", "--grading", inp("O_raw_x"), "--flavor", "O"),
        "classify_W": g("classify", "--grading", inp("W_raw"), "--flavor", "W"),
        "iso_O_pos": g("iso", "--g1", inp("O_raw_x"), "--g2", inp("O_raw_y"), "--flavor", "O"),
        "iso_O_neg": g("iso", "--g1", inp("O_raw_x"), "--g2", inp("O_other"), "--flavor", "O"),
        "iso_W_pos": g("iso", "--g1", inp("W_std"), "--g2", inp("W_raw"), "--flavor", "W"),
        "iso_W_neg": g("iso", "--g1", inp("W_raw"), "--g2", inp("W_other"), "--flavor", "W"),
        "iso_S_pos": g("iso", "--g1", inp("S_vol_x"), "--g2", inp("S_vol_y"), "--flavor", "S"),
        "iso_S_neg": g("iso", "--g1", inp("O_std"), "--g2", inp("S_other"), "--flavor", "S"),
        "fine_O_m2": ["grade", "fine", "--p", "5", "--m", "2", "--ambient", "O"],
        "refusal_dependent_basis": g("construct", "--request", inp("req_dependent")),
        "malformed_payload": g("verify", "--grading", inp("malformed")),
        "paper_check_m2": ["paper-check", "--p", "5", "--m", "2"],
        "paper_check_m2_table": ["paper-check", "--p", "5", "--m", "2", "--format", "table"],
        "paper_check_m3": ["paper-check", "--p", "5", "--m", "3"],
        "paper_check_p7_m3": ["paper-check", "--p", "7", "--m", "3"],
        "refusal_paper_check_p3": ["paper-check", "--p", "3", "--m", "2"],
        "dims_m3": ["dims", "--p", "5", "--m", "3"],
        "dims_m2_r2": ["dims", "--p", "5", "--m", "2", "--r", "2"],
        "dims_p7_m4": ["dims", "--p", "7", "--m", "4"],
        "refusal_dims_r_small_p": ["dims", "--p", "2", "--m", "2", "--r", "3"],
        "refusal_construct_S_m1": g("construct", "--request", inp("req_S_m1")),
        "refusal_fine_S_m1": ["grade", "fine", "--p", "5", "--m", "1", "--ambient", "S"],
    }


def run(argv):
    """(exit code, stdout text, `error:` line or '') of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    lines = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    return code, out.getvalue(), lines[0] if lines else ""


def main():
    os.chdir(HERE)
    (HERE / "inputs").mkdir(exist_ok=True)
    (HERE / "expected").mkdir(exist_ok=True)
    for name, data in inputs().items():
        (HERE / "inputs" / f"{name}.json").write_text(json.dumps(data, separators=(",", ":")))
    (HERE / "inputs" / "malformed.json").write_text('{"p": 5, "m": 2, "ambient": "O", "group"')
    table = []
    for name, argv in cases().items():
        code, out, error = run(argv)
        (HERE / "expected" / f"{name}.out").write_text(out)
        table.append({"name": name, "argv": argv, "exit": code, "error": error})
        print(f"{name}: exit {code} {error}", file=sys.stderr)
    (HERE / "cases.json").write_text(json.dumps(table, indent=1) + "\n")


if __name__ == "__main__":
    main()
