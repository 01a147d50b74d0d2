"""One benchmark process: set up, run whole rounds, then check every reply.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                            [--setup-only]

run.py starts this and times it from spawn to the ``READY <seconds>`` line:
by then the package is imported and one warm-up request of each kind has
run, which fills the lru_cache tables.  Before the import and after each
warm-up request it times the reference task of calib.py.  The number on
the READY line is the time spent sampling them and generating the warm-up
inputs, which set-up time leaves out.  Next it prints ``SCALE <factor>``,
by which run.py scales the set-up time to the reference host.
With --setup-only the process stops there.  Otherwise it generates the
round, runs it, checks the replies against the oracles outside the timed
region, and prints ``RESULT <json>`` as its last line.

The loop is closed: one caller sends a request and waits for the reply.
Untraced rounds time the reference task of calib.py before each request and
after the last (outside every latency); each latency is scaled to the
reference host by the samples on either side of it, and the throughput by
the mean of all samples.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import calib
import spans

SRC = Path(__file__).resolve().parent.parent / "src"


class Raised:
    """Reply of a request that raised instead of returning."""

    def __init__(self, exc: BaseException):
        self.exc = exc


def import_package():
    sys.path.insert(0, str(SRC))
    import cartangrade
    if Path(cartangrade.__file__).resolve().parent != SRC / "cartangrade":
        raise SystemExit(f"imported cartangrade from {cartangrade.__file__}, not {SRC}")


# Reference-task samples taken at set-up: before the import and after each
# warm-up request, so they spread over the whole set-up.
SETUP_TICKS = 8


def ticks(meter, n: int) -> float:
    """Time the reference task n times; the seconds that took."""
    t = time.perf_counter()
    for _ in range(n):
        meter.tick()
    return time.perf_counter() - t


def send(requests, rounds=None, seconds=None, rec=None, meter=None):
    """Whole rounds, until `rounds` are done or `seconds` have passed.

    With a calib.Meter, the reference task is sampled before each request
    and once after the last, outside every latency."""
    latencies, replies = [], []
    root = rec.name_id(spans.ROOT) if rec is not None else None
    done = 0
    start = time.perf_counter()
    while True:
        for req in requests:
            if meter is not None:
                meter.tick()
            t = time.perf_counter()
            idx = rec.open(root) if rec is not None else None
            try:
                reply = req.call()
            except Exception as exc:
                reply = Raised(exc)
            if rec is not None:
                rec.close(idx)
            latencies.append(time.perf_counter() - t)
            replies.append(reply)
        done += 1
        elapsed = time.perf_counter() - start
        if (rounds is not None and done >= rounds) or \
                (seconds is not None and elapsed >= seconds):
            if meter is not None:
                meter.tick()
            return done, elapsed, latencies, replies


def tolerated(req, reply) -> bool:
    """True only for the documented defect: a request marked with a known
    defect that raised AssertionError.  Any other wrong reply of such a
    request is a real failure."""
    return bool(req.known_defect) and isinstance(reply, Raised) and \
        isinstance(reply.exc, AssertionError)


def check(requests, replies):
    """[(request, reason, tolerated)] for every reply that is wrong or missing."""
    failures = []
    for i, reply in enumerate(replies):
        req = requests[i % len(requests)]
        if isinstance(reply, Raised):
            why = f"raised {reply.exc!r}"
        else:
            try:
                why = req.check(reply)
            except Exception as exc:
                why = f"reply unreadable by the oracle: {exc!r}"
        if why:
            failures.append((req, why, tolerated(req, reply)))
    return failures


def traced_rounds(requests, seconds, warm_first: bool):
    """Alternate traced and untraced rounds in pairs, at least two pairs and
    until `seconds` have passed; the order within a pair swaps from one pair
    to the next, so neither kind of round always runs first.

    Returns the recorder, the number of traced rounds, every reply, the
    tracing overhead (median over pairs of traced / untraced wall time - 1)
    and the wall times.  With warm_first (requests that hold package objects
    across rounds) one untimed round runs first, so no block pays for filling
    the objects' caches.
    """
    rec = spans.Recorder()
    replies = []
    if warm_first:
        replies += send(requests, rounds=1)[3]
    ratios, traced_s, plain_s = [], 0.0, 0.0
    while traced_s + plain_s < seconds or len(ratios) < 2:
        wall = {}
        for traced in ((True, False) if len(ratios) % 2 == 0 else (False, True)):
            undo = spans.instrument("cartangrade", rec) if traced else []
            try:
                _, wall[traced], _, got = send(requests, rounds=1, rec=rec if traced else None)
            finally:
                spans.restore(undo)
            replies += got
        ratios.append(wall[True] / wall[False] - 1)
        traced_s += wall[True]
        plain_s += wall[False]
    return rec, len(ratios), replies, statistics.median(ratios), traced_s, plain_s


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    meter = calib.Meter()
    excluded = ticks(meter, SETUP_TICKS)
    import_package()
    import corpus

    t = time.perf_counter()
    warmup = corpus.build_warmup(args.workload, args.seed)
    excluded += time.perf_counter() - t
    for req in warmup:
        try:
            req.call()
        except Exception:
            pass          # a failing kind is counted in the timed rounds
        excluded += ticks(meter, SETUP_TICKS)
    print(f"READY {excluded!r}", flush=True)
    print(f"SCALE {meter.scale()!r}", flush=True)
    if args.setup_only:
        return 0

    requests = corpus.build_round(args.workload, args.seed)
    import numpy
    info = {"numpy": numpy.__version__, "corpus_sha256": corpus.corpus_hash(requests),
            "round_requests": len(requests)}
    if args.trace:
        rec, rounds, replies, overhead, traced_s, plain_s = traced_rounds(
            requests, args.seconds, args.workload in corpus.HOLDS_OBJECTS)
        metrics = spans.per_layer(rec, rounds * len(requests), overhead)
        info.update(rounds=rounds, traced_s=traced_s, untraced_s=plain_s,
                    tracing_overhead=overhead, spans=len(rec),
                    missing_layers=[name for name in spans.TRACED if name not in rec.names])
    else:
        meter = calib.Meter()
        rounds, elapsed, latencies, replies = send(requests, seconds=args.seconds, meter=meter)
        # A percentile belongs to single requests, so each latency is scaled
        # by the samples around it; throughput belongs to the whole run, so
        # it is scaled by the mean of all samples.
        scaled = [lat * scale for lat, scale in zip(latencies, meter.interval_scales())]
        deciles = statistics.quantiles(scaled, n=10, method="inclusive")
        metrics = {
            "ops_per_s": {"value": len(latencies) / (sum(latencies) * meter.scale()),
                          "unit": "1/s"},
            "latency_p50_ms": {"value": statistics.median(scaled) * 1e3, "unit": "ms"},
            "latency_p90_ms": {"value": deciles[-1] * 1e3, "unit": "ms"},
        }
        by_kind = {}
        for req, lat in zip(requests * rounds, scaled):
            by_kind.setdefault(req.kind, []).append(lat)
        info.update(
            rounds=rounds, timed_s=elapsed, samples=len(latencies),
            calib_median_ms=statistics.median(meter.samples) * 1e3,
            scale=meter.scale(),
            unscaled={"ops_per_s": len(latencies) / sum(latencies),
                      "latency_p50_ms": statistics.median(latencies) * 1e3,
                      "latency_p90_ms": statistics.quantiles(
                          latencies, n=10, method="inclusive")[-1] * 1e3},
            kind_p50_ms={k: statistics.median(v) * 1e3 for k, v in by_kind.items()})
    failures = check(requests, replies)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not args.trace:
        metrics["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
    info["failures"] = sorted({f"{req.kind}: {why}" for req, why, _ in failures})
    info["known_defects"] = sorted({req.known_defect for req in requests if req.known_defect})
    result = {
        "correct": all(ok for _, _, ok in failures),
        "attempted": len(replies),
        "failed": len(failures),
        "metrics": metrics,
        "info": info,
    }
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
