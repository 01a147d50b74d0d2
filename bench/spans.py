"""Per-layer spans recorded from outside the package.

`instrument` wraps the public callables of each cartangrade module by
rebinding module and class attributes at run time, including the names
other modules imported with ``from .x import y``.  Nothing under ``src/``
changes.  Every wrapped call records one span (name, start, end, parent) in
flat arrays that stay in memory until the run ends; `layer_metrics` turns
them into per-layer call counts and self times.

Self time is a span's duration minus the time its child spans cover.  The
program is serial, so children nest inside their parent and never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

# The layers are the package's modules.
LAYERS = ("gfp", "linalg", "oalg", "witt", "forms", "abgroup", "gradings",
          "autos", "classify", "serialize", "cli")

# Operators wrapped besides public names.  Comparison and hashing dunders are
# left alone: they run inside every dict lookup and would swamp the trace.
OPERATORS = frozenset({"__init__", "__mul__", "__rmul__", "__pow__",
                       "__add__", "__sub__", "__neg__", "__contains__"})

ROOT = "bench.request"

# Per-layer metrics reported by the traced run, in BENCHMARK.json order.
TRACED = (
    "linalg.rref", "linalg.solve", "linalg.inverse", "linalg.nullspace",
    "linalg.intersect_row_spaces", "linalg.EchelonSpace.add_batch",
    "linalg.EchelonSpace.contains",
    "oalg.mul_tables", "oalg.OElem.__mul__", "oalg.mult_operator",
    "witt.WElem.bracket", "witt.closed_form_bracket", "witt.WElem.ad_matrix",
    "abgroup.GElem.__mul__", "abgroup.p_independent",
    "forms.derived_rows", "forms.algebra_rows",
    "gradings.Grading.__init__", "gradings.Grading.decompose",
    "gradings.admissible_degree", "gradings.induce_W", "gradings.induce_subalgebra",
    "gradings.grade_S_construct", "gradings.fine_grading", "gradings.verify_grading",
    "autos.AutO.matrix", "autos.AutO.inverse", "autos.AutO.apply", "autos.AutO.jacobian",
    "autos.push_grading", "autos.normalize_omega_S",
    "classify.recognize_O", "classify.recognize_S", "classify.iso_decide",
    "classify.o_grading_from_w",
    "serialize.loads", "serialize.grading_from_data", "serialize.grading_to_data",
    "serialize.dumps",
    "cli.cmd_grade_construct", "cli.cmd_grade_verify", "cli.cmd_grade_fine",
    "cli.cmd_paper_check", "cli.cmd_dims",
)


def metric_units():
    """(name, unit) of every per-layer metric; values are per request."""
    out = []
    for name in TRACED:
        out += [(f"{name}.calls", "calls/req"), (f"{name}.self_s", "s/req")]
    out += [("linalg.rref.ops", "ops/req"), ("linalg.rref.rank_ratio", "ratio"),
            ("linalg.EchelonSpace.add_batch.accept_ratio", "ratio"),
            ("gradings.verify_grading.pairs", "pairs/req"),
            ("serialize.bytes_in", "B/req"), ("serialize.bytes_out", "B/req")]
    out += [(f"module.{layer}.self_s", "s/req") for layer in LAYERS]
    out += [(f"{ROOT}.self_s", "s/req"), ("trace.spans", "spans/req"),
            ("trace.overhead", "ratio")]
    return out


def per_layer(rec, requests: int, overhead: float):
    """Every metric of `metric_units`, from a recorder that saw `requests`."""
    by_name = layer_metrics(rec)
    c = rec.counters
    values = {}
    for name in TRACED:
        calls, self_s = by_name.get(name, (0, 0.0))
        values[f"{name}.calls"] = calls / requests
        values[f"{name}.self_s"] = self_s / requests

    def ratio(num, den):
        return c.get(num, 0) / c[den] if c.get(den) else 0.0

    values["linalg.rref.ops"] = c.get("linalg.rref.ops", 0) / requests
    values["linalg.rref.rank_ratio"] = ratio("linalg.rref.rank", "linalg.rref.rows")
    values["linalg.EchelonSpace.add_batch.accept_ratio"] = ratio(
        "linalg.EchelonSpace.add_batch.accepted", "linalg.EchelonSpace.add_batch.offered")
    for key in ("gradings.verify_grading.pairs", "serialize.bytes_in", "serialize.bytes_out"):
        values[key] = c.get(key, 0) / requests
    for layer in LAYERS:
        values[f"module.{layer}.self_s"] = sum(
            st for name, (_, st) in by_name.items()
            if name.split(".", 1)[0] == layer) / requests
    values[f"{ROOT}.self_s"] = by_name.get(ROOT, (0, 0.0))[1] / requests
    values["trace.spans"] = len(rec) / requests
    values["trace.overhead"] = overhead
    return {name: {"value": values[name], "unit": unit} for name, unit in metric_units()}


class Recorder:
    """Flat in-memory span store plus named counters.

    Span i has name id ``name[i]``, parent index ``parent[i]`` (-1 for a
    root) and times ``start[i]``, ``end[i]`` from ``time.perf_counter``.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: dict[str, float] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def count(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def __len__(self) -> int:
        return len(self.name)


def self_times(parent, start, end):
    """Per-span self time: duration minus the summed durations of children."""
    dur = [e - s for s, e in zip(start, end)]
    out = list(dur)
    for i, par in enumerate(parent):
        if par >= 0:
            out[par] -= dur[i]
    return out


def layer_metrics(rec: Recorder):
    """{name: (calls, self seconds)} over every span in the recorder."""
    selfs = self_times(rec.parent, rec.start, rec.end)
    calls = [0] * len(rec.names)
    total = [0.0] * len(rec.names)
    for nid, st in zip(rec.name, selfs):
        calls[nid] += 1
        total[nid] += st
    return {name: (calls[i], total[i]) for i, name in enumerate(rec.names)}


# -- counters computed where the work happens -----------------------------

def _rows_of(mat) -> int:
    shape = getattr(mat, "shape", None)
    if shape is None:
        return len(mat)
    if len(shape) == 1:
        return 1 if shape[0] else 0
    return shape[0]


def _count_rref(rec, args, result):
    rows, cols = np.shape(args[0])
    rank = result[0].shape[0]
    rec.count("linalg.rref.ops", rank * rows * cols)
    rec.count("linalg.rref.rank", rank)
    rec.count("linalg.rref.rows", rows)


def _count_add_batch(rec, args, result):
    rec.count("linalg.EchelonSpace.add_batch.offered", _rows_of(args[1]))
    rec.count("linalg.EchelonSpace.add_batch.accepted", result)


def _count_verify(rec, args, result):
    rec.count("gradings.verify_grading.pairs", result.pairs_checked)


def _count_loads(rec, args, result):
    rec.count("serialize.bytes_in", len(args[0].encode()))


def _count_dumps(rec, args, result):
    rec.count("serialize.bytes_out", len(result.encode()))


COUNTERS = {
    "linalg.rref": _count_rref,
    "linalg.EchelonSpace.add_batch": _count_add_batch,
    "gradings.verify_grading": _count_verify,
    "serialize.loads": _count_loads,
    "serialize.dumps": _count_dumps,
}


def _wrap(rec: Recorder, name: str, fn):
    nid = rec.name_id(name)
    counter = COUNTERS.get(name)
    opener, closer = rec.open, rec.close

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = opener(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            closer(idx)
        if counter is not None:
            counter(rec, args, result)
        return result

    return wrapper


def _is_plain_callable(obj) -> bool:
    return inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)


def _wrap_member(rec, name, member):
    """Wrapped replacement for a class attribute, or None to leave it."""
    if isinstance(member, staticmethod):
        return staticmethod(_wrap(rec, name, member.__func__))
    if isinstance(member, classmethod):
        return classmethod(_wrap(rec, name, member.__func__))
    if isinstance(member, property):
        if member.fget is None:
            return None
        return property(_wrap(rec, name, member.fget), member.fset,
                        member.fdel, member.__doc__)
    if inspect.isfunction(member):
        return _wrap(rec, name, member)
    return None


def instrument(package: str, rec: Recorder):
    """Wrap every public callable of the package's layer modules.

    Returns the undo list for `restore`.  Module-level functions are
    replaced in every module of the package that holds a reference to them;
    methods, static and class methods and properties are replaced on their
    class, so every caller sees the wrapper.
    """
    undo = []
    replaced = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"{package}.{layer}")
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if _is_plain_callable(obj):
                replaced[id(obj)] = (obj, _wrap(rec, f"{layer}.{attr}", obj))
            elif inspect.isclass(obj):
                for mname, member in list(vars(obj).items()):
                    if mname.startswith("_") and mname not in OPERATORS:
                        continue
                    new = _wrap_member(rec, f"{layer}.{attr}.{mname}", member)
                    if new is not None:
                        undo.append((obj, mname, member))
                        setattr(obj, mname, new)
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == package or key.startswith(package + "."))]
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            hit = replaced.get(id(obj))
            if hit is not None and hit[0] is obj:
                undo.append((mod, attr, obj))
                setattr(mod, attr, hit[1])
    return undo


def restore(undo) -> None:
    for target, attr, original in reversed(undo):
        setattr(target, attr, original)
