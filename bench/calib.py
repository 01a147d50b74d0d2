"""A fixed reference task that measures the speed of the host, not the package.

The benchmark runs on shared virtual machines whose speed drifts: a
pure-Python loop pinned to one core runs at two speeds about 40% apart, and
switches between them every second or so, and every request slows with the
host.  So a run times this task between its requests (a `Meter`) and scales
its times to a host on which the task takes `REF_S`:

    scaled latency = latency * REF_S / (mean of the task times just before
                                        and just after the request)
    scaled run time = run time * REF_S / (mean of all task times of the run)

The task mixes the two kinds of work the package does: interpreter-bound
parsing and dictionary building (the CLI and group arithmetic) and small
numpy row operations mod p (the eliminations of ``linalg``).  It uses only
the standard library and numpy, never ``cartangrade``, so no change to the
package moves it.
"""

from __future__ import annotations

import json
import random
import statistics
import time

import numpy as np

# Time of `task` on the reference host in its faster state: a 2-core x86-64
# VM (Intel Xeon, 2.1 GHz), Python 3.11.7, numpy 2.4.6, BLAS on one thread.
REF_S = 0.0025

_P = 5
_rng = random.Random(0)
_DOC = json.dumps([{"degree": [_rng.randrange(_P) for _ in range(3)],
                    "basis": [[_rng.randrange(_P) for _ in range(25)] for _ in range(3)]}
                   for _ in range(30)])
_MAT = np.array([[_rng.randrange(_P) for _ in range(64)] for _ in range(32)], dtype=np.int64)


def task() -> int:
    """Parse a grading-like JSON document, fold it into a dict, write it
    back out, then row-reduce a fixed 32 x 64 matrix mod 5."""
    acc = {}
    for comp in json.loads(_DOC):
        key = tuple(comp["degree"])
        for vec in comp["basis"]:
            for i, x in enumerate(vec):
                if x:
                    acc[key + (i,)] = (acc.get(key + (i,), 0) + x * x) % _P
    out = json.dumps(sorted(acc.items()))
    a, r = _MAT.copy(), 0
    for c in range(a.shape[1]):
        if r == a.shape[0]:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r] = a[r] * pow(int(a[r, c]), -1, _P) % _P
        col = a[:, c].copy()
        col[r] = 0
        a = (a - np.outer(col, a[r])) % _P
        r += 1
    return len(out) + r


def timed() -> float:
    """Seconds one run of `task` takes."""
    t = time.perf_counter()
    task()
    return time.perf_counter() - t


class Meter:
    """Times of `task`, sampled between the requests of a run."""

    def __init__(self):
        self.samples = []

    def tick(self) -> None:
        self.samples.append(timed())

    def interval_scales(self):
        """Scale of the interval between each pair of consecutive ticks:
        REF_S over the mean of the two samples."""
        s = self.samples
        return [2 * REF_S / (a + b) for a, b in zip(s, s[1:])]

    def scale(self) -> float:
        """Scale of the whole span the ticks cover: REF_S over their mean."""
        return REF_S / statistics.mean(self.samples)
