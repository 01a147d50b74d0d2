"""Tests of the benchmark itself: span arithmetic, seeded corpora, oracles.

    python3 -m pytest bench/tests -q
"""

import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import numpy as np  # noqa: E402

import calib  # noqa: E402
import corpus  # noqa: E402
import oracles  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from cartangrade import autos, cli, linalg  # noqa: E402


# -- spans -------------------------------------------------------------------

def synthetic(spec):
    """Recorder holding (name, parent, start, end) rows as given."""
    rec = spans.Recorder()
    for name, parent, start, end in spec:
        rec.name.append(rec.name_id(name))
        rec.parent.append(parent)
        rec.start.append(start)
        rec.end.append(end)
    return rec


def test_self_time_subtracts_direct_children_only():
    rec = synthetic([
        ("root", -1, 0.0, 10.0),
        ("a", 0, 1.0, 4.0),
        ("leaf", 1, 2.0, 3.0),
        ("b", 0, 5.0, 9.0),
        ("leaf", 3, 6.0, 8.5),
        ("root", -1, 10.0, 11.0),
    ])
    assert spans.self_times(rec.parent, rec.start, rec.end) == \
        pytest.approx([3.0, 2.0, 1.0, 1.5, 2.5, 1.0])
    got = spans.layer_metrics(rec)
    assert got["root"] == (2, pytest.approx(4.0))
    assert got["leaf"] == (2, pytest.approx(3.5))
    # self times add up to the wall time the roots cover
    assert sum(st for _, st in got.values()) == pytest.approx(11.0)


def test_per_layer_reports_every_metric_and_zero_for_absent_layers():
    rec = synthetic([("bench.request", -1, 0.0, 2.0), ("linalg.rref", 0, 0.5, 1.5)])
    rec.count("linalg.rref.rank", 3)
    rec.count("linalg.rref.rows", 4)
    got = spans.per_layer(rec, requests=2, overhead=0.25)
    assert list(got) == [name for name, _ in spans.metric_units()]
    assert got["linalg.rref.calls"]["value"] == 0.5
    assert got["linalg.rref.self_s"]["value"] == pytest.approx(0.5)
    assert got["bench.request.self_s"]["value"] == pytest.approx(0.5)
    assert got["linalg.rref.rank_ratio"]["value"] == 0.75
    assert got["module.linalg.self_s"]["value"] == pytest.approx(0.5)
    assert got["classify.iso_decide.calls"]["value"] == 0
    assert got["gradings.verify_grading.pairs"]["value"] == 0
    assert got["trace.overhead"]["value"] == 0.25


def test_instrument_rebinds_imported_names_and_restores_them():
    original = linalg.row_space
    assert cli.row_space is original
    rec = spans.Recorder()
    undo = spans.instrument("cartangrade", rec)
    try:
        assert cli.row_space is not original
        assert linalg.row_space is cli.row_space
        cli.row_space(np.eye(3, dtype=np.int64), 5)
    finally:
        spans.restore(undo)
    assert cli.row_space is original and linalg.row_space is original
    names = [rec.names[i] for i in rec.name]
    assert names == ["linalg.row_space", "linalg.rref"]
    assert list(rec.parent) == [-1, 0]
    assert rec.counters["linalg.rref.ops"] == 3 * 3 * 3
    assert set(spans.TRACED) <= set(rec.names)


def test_instrument_wraps_methods_properties_and_operators():
    from cartangrade.gfp import Config
    from cartangrade.oalg import OElem
    rec = spans.Recorder()
    undo = spans.instrument("cartangrade", rec)
    try:
        cfg = Config(5, 2)
        x = OElem.variable(cfg, 1)
        mu = autos.AutO([x, OElem.variable(cfg, 2)])
        mu.matrix
        x * x
    finally:
        spans.restore(undo)
    names = {rec.names[i] for i in rec.name}
    assert {"oalg.OElem.variable", "autos.AutO.matrix", "oalg.OElem.__mul__",
            "autos.AutO.__init__"} <= names
    assert isinstance(vars(autos.AutO)["matrix"], property)
    assert vars(autos.AutO)["matrix"].fget.__name__ == "matrix"
    assert not hasattr(vars(autos.AutO)["matrix"].fget, "__wrapped__")


# -- host calibration ------------------------------------------------------------

def test_meter_scales_each_interval_by_the_samples_around_it():
    meter = calib.Meter()
    meter.samples = [calib.REF_S, 3 * calib.REF_S, calib.REF_S, calib.REF_S]
    assert meter.interval_scales() == pytest.approx([0.5, 0.5, 1.0])
    assert meter.scale() == pytest.approx(4 / 6)


def test_send_times_the_reference_task_around_every_request():
    class Echo:
        def call(self):
            return 1

    meter = calib.Meter()
    done, _, latencies, replies = worker.send([Echo(), Echo(), Echo()], rounds=2, meter=meter)
    assert done == 2 and replies == [1] * 6
    assert len(meter.samples) == len(latencies) + 1
    assert len(meter.interval_scales()) == len(latencies)
    assert all(t > 0 for t in meter.samples)


# -- seeded corpora -------------------------------------------------------------

@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_same_seed_same_corpus_other_seed_other_corpus(workload):
    first = corpus.corpus_hash(corpus.build_round(workload, 7))
    assert corpus.corpus_hash(corpus.build_round(workload, 7)) == first
    assert corpus.corpus_hash(corpus.build_round(workload, 8)) != first


def test_rounds_send_at_least_a_hundred_requests():
    for workload, slots in corpus.WORKLOADS.items():
        assert sum(count for _, count, _ in slots) >= 100, workload


def test_only_the_documented_defect_is_tolerated():
    requests = corpus.build_round("construct", 3)
    dependent = next(r for r in requests if r.known_defect)
    other = next(r for r in requests if not r.known_defect)
    assert worker.tolerated(dependent, worker.Raised(AssertionError("dependent basis")))
    assert not worker.tolerated(dependent, worker.Raised(ValueError("other")))
    assert not worker.tolerated(dependent, corpus.CliReply(1, "", "boom"))
    assert not worker.tolerated(other, worker.Raised(AssertionError()))
    # a dependent-basis request that exits 0 with a payload is a real failure
    [(_, why, ok)] = worker.check([dependent], [corpus.CliReply(0, '{"components": []}', "")])
    assert why and not ok


# -- oracles reject wrong replies -----------------------------------------------

def by_kind(requests):
    return {r.kind: r for r in requests}


def tamper_cli(reply, payload_fn=None, code=None):
    out = reply.out
    if payload_fn is not None:
        payload = json.loads(out)
        payload_fn(payload)
        out = json.dumps(payload)
    return corpus.CliReply(reply.code if code is None else code, out, reply.err)


def test_classify_oracles_reject_tampered_answers():
    gen = corpus.Gen(3)
    for kind, _, maker in corpus.CLASSIFY:
        if kind == "iso.S.m3":
            continue      # same oracle as iso.S.m2, at a cost of seconds
        pos = maker(gen, 0)
        reply = pos.call()
        assert pos.check(reply) is None, kind
        if kind.startswith("iso."):
            assert pos.check(None) is not None
            m = int(kind[-1])
            wrong = autos.random_auto(corpus.cfg_of(m), random.Random(5))
            assert pos.check(wrong) is not None, "tampered witness accepted"
            neg = maker(gen, 1)
            assert neg.check(neg.call()) is None
            assert neg.check(reply) is not None, "witness for a negative accepted"
        else:
            for seed in range(10, 40):
                other = maker(corpus.Gen(seed), 0).call()
                if oracles.key_of_invariants(other) != oracles.key_of_invariants(reply):
                    break
            assert pos.check(other) is not None, "foreign invariants accepted"


def test_construct_oracles_reject_tampered_payloads():
    reqs = by_kind(corpus.build_warmup("construct", 3))
    for kind in ("construct.O.m2", "construct.W.m2", "construct.S.m2", "construct.O.m3"):
        req = reqs[kind]
        reply = req.call()
        assert req.check(reply) is None, kind

        def move_vector(payload):
            comps = payload["components"]
            vec = comps[0]["basis"].pop()
            if len(comps) > 1:
                comps[1]["basis"].append(vec)
            else:
                comps.append({"degree": [x + 1 for x in comps[0]["degree"]], "basis": [vec]})

        def drop_component(payload):
            payload["components"].pop()

        assert req.check(tamper_cli(reply, move_vector)) is not None, kind
        assert req.check(tamper_cli(reply, drop_component)) is not None, kind
        assert req.check(tamper_cli(reply, code=3)) is not None, kind
    fine = reqs["fine.m2"]
    reply = fine.call()
    assert fine.check(reply) is None
    assert fine.check(tamper_cli(reply, lambda p: p["gradings"][0]["components"].pop())) is not None
    refuse = reqs["refuse"]
    reply = refuse.call()
    assert refuse.check(reply) is None
    assert refuse.check(corpus.CliReply(0, "{}", "")) is not None
    dependent = reqs["construct.S.dependent"]
    assert dependent.known_defect
    assert dependent.check(corpus.CliReply(3, "", "error: dependent")) is None
    assert dependent.check(corpus.CliReply(1, "", "Traceback")) is not None


def test_verify_oracles_reject_flipped_verdicts():
    gen = corpus.Gen(3)
    maker = dict((k, m) for k, _, m in corpus.VERIFY)["verify.O.m2"]
    for k in (0, 1):
        req = maker(gen, k)
        reply = req.call()
        assert req.check(reply) is None
        flipped = tamper_cli(reply, lambda p: p.update(valid=not p["valid"]))
        assert req.check(flipped) is not None
        assert req.check(tamper_cli(reply, code=4 - reply.code)) is not None
    paper = corpus.paper_check_request(gen, 0)
    reply = paper.call()
    assert paper.check(reply) is None
    failed = tamper_cli(reply, lambda p: p["checks"][0].update(status="fail"))
    assert paper.check(failed) is not None


def test_dims_oracle_rejects_a_wrong_dimension():
    dims = corpus.dims_request(corpus.Gen(3), 0)
    rows = [{"algebra": name, "formula": f, "computed": f, "agree": True}
            for name, f in (("O(3;1)", 125), ("W(3;1)", 375), ("S(3;1)^(1)", 248),
                            ("H(2;1)^(2)", 23))]
    reply = corpus.CliReply(0, json.dumps({"p": 5, "m": 3, "dims": rows, "ok": True}), "")
    assert dims.check(reply) is None
    assert dims.check(tamper_cli(reply, lambda p: p["dims"][2].update(computed=247))) is not None
    assert dims.check(tamper_cli(reply, lambda p: p["dims"].pop())) is not None


def test_benchmark_json_lists_what_the_runs_print():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == spans.metric_units()
    assert [w["name"] for w in doc["workloads"]] == sorted(corpus.WORKLOADS)
    assert [m["name"] for m in doc["end_to_end"]] == \
        ["setup_s", "ops_per_s", "latency_p50_ms", "latency_p90_ms", "peak_rss_mb"]
