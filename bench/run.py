"""cartangrade benchmark: one command, three closed-loop workloads.

    python3 bench/run.py --workload classify|construct|verify --seed N
                         --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.  Each
run starts fresh worker processes (see worker.py) with the BLAS thread count
pinned to 1.  With --trace 0 it reports the end-to-end metrics: set-up time
(median of three fresh processes: the measuring worker and two that only set
up), requests per second, median and p90 latency, and peak RSS.  The times
are scaled to a reference host by the reference task of calib.py, timed in
the same processes.  With --trace 1 it reports per-layer call counts and
self times from the span wrappers in spans.py, plus the tracing overhead.

Every reply is checked by an oracle that does not share the measured code
path.  The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines above it give the run's context
(versions, cores, corpus hash, failures) and a readable metric table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("classify", "construct", "verify")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def git_sha() -> str:
    """HEAD of the checkout, or "unknown" outside a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"          # not a work tree, or the tree of an enclosing repo
    return lines[1]


class Worker:
    """A worker process, killed if the run outlives its deadline."""

    def __init__(self, argv, env, deadline):
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), *argv], cwd=ROOT, env=env,
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
        self.timer = threading.Timer(max(deadline - time.monotonic(), 0), self.proc.kill)
        self.timer.start()

    def lines(self):
        for line in self.proc.stdout:
            yield line.rstrip("\n")

    def finish(self) -> int:
        self.proc.stdout.close()
        code = self.proc.wait()
        self.timer.cancel()
        return code


def run_worker(argv, env, deadline):
    """(set-up seconds, their scale to the reference host, RESULT payload or
    None, exit code) of one worker."""
    w = Worker(argv, env, deadline)
    setup, scale, result = None, None, None
    try:
        for line in w.lines():
            if line.startswith("READY ") and setup is None:
                setup = time.perf_counter() - w.started - float(line.split()[1])
            elif line.startswith("SCALE ") and scale is None:
                scale = float(line.split()[1])
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
    finally:
        code = w.finish()
    return setup, scale, result, code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "cartangrade" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'cartangrade'}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    env.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
    wargs = ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)]

    setups, scaled = [], []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setup, scale, _, code = run_worker(wargs + ["--setup-only"], env, deadline)
            if code != 0 or setup is None or scale is None:
                print(f"error: set-up worker exited {code}", file=sys.stderr)
                return 1
            setups.append(setup)
            scaled.append(setup * scale)
    setup, scale, result, code = run_worker(wargs, env, deadline)
    if code != 0 or result is None:
        print(f"error: worker exited {code} without a result", file=sys.stderr)
        return 1
    setups.append(setup)
    scaled.append(setup * scale)

    metrics = result["metrics"]
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(scaled), "unit": "s"}, **metrics}
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "git_sha": git_sha(), "python": platform.python_version(),
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
        "setup_samples_s": setups, "setup_scaled_s": scaled,
        "failed_frac": result["failed"] / result["attempted"],
        **result["info"],
    }
    print("info " + json.dumps(info))
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'failed_frac':<48} {info['failed_frac']:>14.6g} "
          f"({result['failed']} of {result['attempted']})")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
