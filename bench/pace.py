"""The host's pace: a fixed calibration chunk timed between operations.

The benchmark runs on a few cores of a shared host whose speed drifts by a
quarter or more over tens of seconds, and CPU time does not leave that out.
So the timed passes run `Pace.sample` every SAMPLE_EVERY seconds: a fixed,
seed-independent chunk of the same kind of work as the package (monomial
dicts and sets, big-int carry-less products, text parsing, a numpy sort),
written in reference.py and never in charclass, so no change to the package
moves it.  An operation's CPU time is then scaled by REFERENCE_S over the
chunk's time around it: the latency the operation would have on a host where
the chunk takes REFERENCE_S.
"""

from __future__ import annotations

import random
import statistics
import time

import numpy as np

import reference as ref

REFERENCE_S = 0.010  # about the chunk's CPU time on an idle 2.1 GHz Xeon vCPU
SAMPLE_EVERY = 0.15  # wall seconds between samples during timed passes
NEIGHBOURS = 2  # samples each side of an operation that set its pace


def _monomial(rng, deg: int):
    merged: dict = {}
    while deg:
        i = rng.randint(1, min(deg, 12))
        merged[i] = merged.get(i, 0) + 1
        deg -= i
    return tuple(sorted(merged.items()))


def _text(keys) -> str:
    return " + ".join("*".join(f"w{i}^{e}" if e > 1 else f"w{i}" for i, e in k) or "1"
                      for k in keys)


class Pace:
    def __init__(self):
        rng = random.Random("pace")
        self.a = [_monomial(rng, rng.randint(4, 24)) for _ in range(12)]
        self.b = [_monomial(rng, rng.randint(4, 24)) for _ in range(12)]
        self.units = {i: rng.getrandbits(49) | 1 for i in range(1, 49)}
        self.array = np.array([rng.getrandbits(40) for _ in range(5000)], dtype=np.int64)
        self.samples: list = []
        for _ in range(3):  # warm-up, not kept
            self.chunk()

    def chunk(self) -> None:
        product = ref.poly_times(self.a, self.b)
        ref.evaluate_graded(product, self.units, 48)
        ref.read_poly(_text(ref.sq1(product)), "w")
        np.unique(self.array ^ (self.array >> 7))

    def sample(self) -> int:
        """Time the chunk once; returns the sample's index."""
        t0 = time.process_time()
        self.chunk()
        self.samples.append(time.process_time() - t0)
        return len(self.samples) - 1

    def scale(self, before: int) -> float:
        """REFERENCE_S over the chunk's mean time in the NEIGHBOURS samples on
        each side of the gap after sample `before`."""
        lo = max(0, before - NEIGHBOURS + 1)
        return REFERENCE_S / statistics.fmean(self.samples[lo:before + NEIGHBOURS + 1])
