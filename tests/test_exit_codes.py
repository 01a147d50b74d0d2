"""Exit codes hold under hostile input: a property test over every verb.

Each example starts from the input of one golden case (tests/golden) at
p = 5, m <= 2 and mutates it:
- payload verbs (grade construct, verify, classify, iso): one to three
  edits of the JSON tree (a node swapped for a leaf of another type, a
  key deleted, added or duplicated, a list wrapped or unwrapped, an
  integer past 2^64 or past the int-string digit limit, NaN or Infinity,
  nesting 100 to 100,000 deep), then possibly an invalid byte inserted or
  the text cut short;
- grading payloads, in half of their examples instead: one or two edits
  that keep every function term well formed (two components' degrees
  swapped, a component dropped, a basis element of one component repeated
  in another, one term coefficient changed), so the example gets past the
  parser to the grading check, recognition and the isomorphism decision;
- argv verbs (paper-check, dims, grade fine): extreme values of --p, --m
  and --r.

Every example must exit with 0, 2, 3 or 4 and raise nothing out of
cli.main (no traceback).  A refusal prints exactly one `error:` line and
no stdout, and leaves the --out file as it was.  Exit 4 without an error
line is a verdict, not a refusal: `grade verify` finding the payload is
not a grading, or a failed conformance suite, writes its report to --out.

Valid but expensive inputs stay out of the generator's range: `grade
verify` of a W grading at p = 7, m = 4, and paper-check with --r 2 (about
6 s), until the CLI predicts the cost of a request before it runs it.
Mutations of p and m only reach values that are refused at once, so
every example stays at p = 5 (or a small prime on dims) and m <= 2.
"""

import contextlib
import copy
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartangrade import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
FILE_FLAGS = ("--request", "--grading", "--g1", "--g2")
DIGITS = sys.get_int_max_str_digits()

# Leaves a node may be swapped for: other JSON types, integers past 2^64
# and past the digit limit, NaN and Infinity.
LEAVES = (None, True, False, 0, -1, 1.5, "", "x", [], {}, 2**64, -(2**64) - 1,
          10 ** (DIGITS - 1), float("nan"), float("inf"), float("-inf"))
BIG_NUMBER = "9" * (DIGITS + 1)
DEPTHS = (100, 900, 5_000, 100_000)
BAD_BYTES = (b"\xff", b"\xc3\x28", b"\x00", b"\xed\xa0\x80")

# Values of the integer options: the golden ones, and extremes that are
# refused before any work (2 and 3 reach work on dims only, which is cheap).
EXTREMES = (-(2**64), -7, -1, 0, 1, 4, 6, 2**63, 2**64 + 1, 10 ** (DIGITS - 1))
OPTION_VALUES = {"--p": (5, 2, 3) + EXTREMES, "--m": (1, 2) + EXTREMES,
                 "--r": (1,) + EXTREMES}


class Raw(str):
    """JSON text written as is."""


def encode(value, dups) -> str:
    """The JSON text of value; dups maps id(dict) to extra (key, value)
    pairs written after its own, so a key can appear twice."""
    if isinstance(value, Raw):
        return value
    if isinstance(value, dict):
        items = list(value.items()) + dups.get(id(value), [])
        return "{" + ", ".join(f"{json.dumps(k)}: {encode(v, dups)}" for k, v in items) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(encode(v, dups) for v in value) + "]"
    return json.dumps(value)


def slots(holder):
    """(container, key) of every node of the tree in holder["root"]."""
    out, todo = [], [(holder, "root")]
    while todo:
        parent, key = todo.pop()
        out.append((parent, key))
        node = parent[key]
        if isinstance(node, dict):
            todo += [(node, k) for k in node]
        elif isinstance(node, list):
            todo += [(node, i) for i in range(len(node))]
    return out


def mutate(data, tree):
    """One edit of tree["root"], drawn from data; returns extra dict pairs."""
    parent, key = data.draw(st.sampled_from(slots(tree)))
    node = parent[key]
    leaf = copy.deepcopy(data.draw(st.sampled_from(LEAVES)))     # [] and {} are not shared
    op = data.draw(st.sampled_from(("leaf", "delete", "add", "duplicate", "wrap", "unwrap",
                                   "big", "deep")))
    if op == "delete" and parent is not tree:
        del parent[key]
    elif op == "add" and isinstance(node, dict):
        node[data.draw(st.sampled_from(("extra",) + tuple(node)))] = leaf
    elif op == "add" and isinstance(node, list):
        node.append(leaf)
    elif op == "duplicate" and isinstance(node, dict) and node:
        dup = data.draw(st.sampled_from(tuple(node)))
        return {id(node): [(dup, data.draw(st.sampled_from((node[dup], leaf))))]}
    elif op == "wrap":
        parent[key] = [node]
    elif op == "unwrap" and isinstance(node, list):
        parent[key] = node[0] if node else None
    elif op == "big":
        parent[key] = Raw(data.draw(st.sampled_from((BIG_NUMBER, "-" + BIG_NUMBER))))
    elif op == "deep":
        depth = data.draw(st.sampled_from(DEPTHS))
        parent[key] = Raw("[" * depth + "]" * depth)
    else:
        parent[key] = leaf
    return {}


def restructure(data, payload):
    """One edit of a grading payload that keeps its function terms well
    formed: two components' degrees swapped, a component dropped, a basis
    element of one component repeated in another, or the coefficient of
    one term changed."""
    comps = payload["components"]
    if not comps:
        return
    i, j = (data.draw(st.integers(0, len(comps) - 1)) for _ in range(2))
    op = data.draw(st.sampled_from(("swap", "drop", "repeat", "coefficient")))
    if op == "swap":
        comps[i]["degree"], comps[j]["degree"] = comps[j]["degree"], comps[i]["degree"]
    elif op == "drop":
        del comps[i]
    elif op == "repeat" and comps[i]["basis"]:
        comps[j]["basis"].append(copy.deepcopy(data.draw(st.sampled_from(comps[i]["basis"]))))
    elif op == "coefficient":
        terms = [t for ts in _fields(comps[i], "terms") for t in ts
                 if isinstance(t, dict) and isinstance(t.get("c"), int)]
        if terms:
            term = data.draw(st.sampled_from(terms))
            term["c"] = (term["c"] + data.draw(st.integers(1, 4))) % 5


def _restructurable(base) -> bool:
    """Whether base is a grading payload whose components restructure can
    edit: a list of objects, each with a degree and a list of elements."""
    comps = base.get("components") if isinstance(base, dict) else None
    return isinstance(comps, list) and all(
        isinstance(c, dict) and "degree" in c and isinstance(c.get("basis"), list) for c in comps)


def payload_bytes(data, base) -> bytes:
    if _restructurable(base) and data.draw(st.booleans()):
        payload = copy.deepcopy(base)
        for _ in range(data.draw(st.integers(1, 2))):
            restructure(data, payload)
        return json.dumps(payload).encode()
    tree, dups = {"root": copy.deepcopy(base)}, {}
    for _ in range(data.draw(st.integers(1, 3))):
        for k, extra in mutate(data, tree).items():
            dups.setdefault(k, []).extend(extra)
    text = encode(tree["root"], dups).encode()
    cut = data.draw(st.sampled_from(("none",) * 6 + ("byte", "truncate")))
    at = data.draw(st.integers(0, len(text)))
    if cut == "byte":
        text = text[:at] + data.draw(st.sampled_from(BAD_BYTES)) + text[at:]
    elif cut == "truncate":
        text = text[:at]
    return text


def _fields(node, key):
    """Every value of the field key in a JSON tree."""
    if isinstance(node, dict):
        own = [node[key]] if key in node else []
        return own + [v for x in node.values() for v in _fields(x, key)]
    if isinstance(node, list):
        return [v for x in node for v in _fields(x, key)]
    return []


def _small(argv) -> bool:
    """Whether every payload a golden argv reads is at p = 5, m <= 2 (the
    golden text that is not JSON is one)."""
    for flag, name in zip(argv, argv[1:]):
        if flag in FILE_FLAGS:
            try:
                tree = json.loads((GOLDEN / name).read_text())
            except ValueError:
                continue
            if set(_fields(tree, "p")) - {5} or max(_fields(tree, "m")) > 2:
                return False
    return True


GOLDEN_CASES = json.loads((GOLDEN / "cases.json").read_text())
PAYLOAD_CASES = [c for c in GOLDEN_CASES
                 if any(f in c["argv"] for f in FILE_FLAGS) and _small(c["argv"])]
# One case per verb: the option values are drawn anew.
OPTION_CASES = list({tuple(c["argv"][:2]): c for c in reversed(GOLDEN_CASES)
                     if "--p" in c["argv"]}.values())


def run(argv, out_path):
    """(exit code, stdout, stderr) of cli.main on argv with --out out_path."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv + ["--out", str(out_path)])
    return code, out.getvalue(), err.getvalue()


def check(argv, tmp):
    sentinel = "left alone\n"
    out_path = Path(tmp) / "out.txt"
    out_path.write_text(sentinel)
    code, out, err = run(argv, out_path)
    assert code in (0, 2, 3, 4), (argv, code, err[:300])
    assert out == "", (argv, out[:300])
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    if code == 0 or (code == 4 and not errors):
        assert err == "", (argv, err[:300])
        assert out_path.read_text() != sentinel, argv
    else:
        assert errors and err == errors[0] + "\n", (argv, code, err[:300])
        assert out_path.read_text() == sentinel, argv


# The profiles of tests/conftest.py: the long one when pytest runs with
# --hypothesis-profile=exit-codes-long, the Tier-1 one otherwise.
EXAMPLES = settings.get_profile("exit-codes-long"
                                if settings.get_current_profile_name() == "exit-codes-long"
                                else "exit-codes")


@pytest.mark.parametrize("case", PAYLOAD_CASES, ids=[c["name"] for c in PAYLOAD_CASES])
@EXAMPLES
@given(data=st.data())
def test_mutated_payloads_keep_the_exit_codes(case, data):
    argv = list(case["argv"])
    positions = [k + 1 for k, a in enumerate(argv) if a in FILE_FLAGS]
    target = data.draw(st.sampled_from(positions))
    base = (GOLDEN / argv[target]).read_text()
    with tempfile.TemporaryDirectory() as tmp:
        for k in positions:
            argv[k] = str(GOLDEN / argv[k])
        mutant = Path(tmp) / "mutant.json"
        try:
            mutant.write_bytes(payload_bytes(data, json.loads(base)))
        except ValueError:      # the golden text that is not JSON, cut or spoiled as bytes
            mutant.write_bytes(base.encode()[:data.draw(st.integers(0, len(base)))]
                               + data.draw(st.sampled_from(BAD_BYTES + (b"",))))
        argv[target] = str(mutant)
        check(argv, tmp)


@pytest.mark.parametrize("case", OPTION_CASES, ids=[c["name"] for c in OPTION_CASES])
@EXAMPLES
@given(data=st.data())
def test_extreme_options_keep_the_exit_codes(case, data):
    argv = [a for a in case["argv"] if a not in ("--format", "table")]
    options = ["--p", "--m"] + (["--r"] if argv[0] in ("paper-check", "dims") else [])
    for flag in options:
        values = OPTION_VALUES[flag]
        if flag == "--r" and argv[0] == "dims":
            values += (2,)
        value = data.draw(st.sampled_from(values))
        if flag in argv:
            del argv[argv.index(flag):argv.index(flag) + 2]
        argv += [f"{flag}={value}"]
    with tempfile.TemporaryDirectory() as tmp:
        check(argv, tmp)
