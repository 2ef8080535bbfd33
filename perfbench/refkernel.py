"""Frozen host-speed reference kernel.

The benchmark divides every measured interval by the time this kernel takes
right before and after it, on the same thread of the same process, so a
host that is slower for a while (another tenant, a lower clock) slows both
alike and the ratio stays put.  The kernel mixes the three kinds of work a
simulation step does:

* a pairwise numpy tile with ``** 1.5`` (the gravity tile);
* an argsort, a gather and a ``bincount`` scatter (neighbor search and the
  SPH sums);
* an interpreter-bound Python loop (tree walks, bookkeeping, dispatch).

It imports nothing from the program under test and must never change: the
committed :data:`REF_S` is its median time on the nominal host, and every
corrected figure is ``wall * REF_S / ref_measured`` seconds at that speed.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Seconds of one :meth:`RefKernel.measure` on the nominal host: a 2-vCPU
#: x86-64 KVM guest, numpy 2.4, one BLAS thread, where it reads 12-22 ms as
#: neighbours load the machine.  Changing the kernel or this constant
#: rescales every corrected time.
REF_S = 0.0170

_N_TARGETS = 128
_N_SOURCES = 1024
_N_KEYS = 60_000
_N_BINS = 4096
_N_LOOP = 24_000
#: Timed passes per measurement, after one untimed pass: the first pass
#: after a simulation step runs on cold caches and reads slow.  The median
#: of the rest drops a single hiccup.
_REPS = 3


class RefKernel:
    """Fixed inputs plus the timed work; build once, time many times."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20251023)
        self.tpos = rng.normal(size=(_N_TARGETS, 3))
        self.spos = rng.normal(size=(_N_SOURCES, 3))
        self.smass = rng.uniform(0.5, 1.5, _N_SOURCES)
        self.keys = rng.integers(0, 1 << 30, _N_KEYS)
        self.vals = rng.normal(size=_N_KEYS)
        self.loop_data = [int(x) for x in rng.integers(0, 1000, _N_LOOP)]

    def work(self) -> float:
        """One pass over the three parts; returns a checksum so nothing is
        skipped."""
        d = self.tpos[:, None, :] - self.spos[None, :, :]
        r2 = np.einsum("ijk,ijk->ij", d, d)
        w = self.smass[None, :] / (r2 + 0.01) ** 1.5
        acc = np.einsum("ij,ijk->ik", w, d)

        order = np.argsort(self.keys, kind="stable")
        gathered = self.vals[order]
        bins = self.keys[order] % _N_BINS
        sums = np.bincount(bins, weights=gathered, minlength=_N_BINS)

        total = 0
        seen: dict[int, int] = {}
        for x in self.loop_data:
            seen[x] = seen.get(x, 0) + 1
            total += (x * 7 + 3) % 11
        return float(acc.sum()) + float(sums.sum()) + total + len(seen)

    def measure(self) -> float:
        """Median wall seconds of ``_REPS`` passes after a warm-up pass."""
        self.work()
        samples = []
        for _ in range(_REPS):
            t0 = time.perf_counter()
            self.work()
            samples.append(time.perf_counter() - t0)
        return statistics.median(samples)

