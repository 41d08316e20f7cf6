"""Machine-speed probe: a fixed kernel, timed between jobs and during them.

On a shared machine the speed of plain compute changes by up to 2x, in
phases from a fraction of a second to tens of seconds, and every job of a
run moves with it.  The probe measures that drift with a fixed kernel that
does not touch plap: run.py times it before every job, and in untraced runs
a timer signal times it again every INTERVAL_S while a job runs.  A job's
slowdown is the mean of those samples over NOMINAL_S, and run.py divides
the job's time by it.  The time the probe spends inside a job is taken out
of the job's time.

No sample is taken inside a job while it has child processes (plap's
process pool): the probe would then compete with the job's own workers for
the CPUs and measure the job, not the machine.

The kernel mixes the kinds of work plap does: small dense eigensolves
(enumerate), `np.add.at` scatters over edge-sized arrays (sparse), a plain
Python loop (per-iteration overhead of the solver) and a JSON round trip
(cli).  Its inputs are fixed, so it does the same work in every run and
every checkout.  numpy is imported when the first Probe is made, so that
importing this module does not shorten the timed import of plap.
"""

from __future__ import annotations

import json
import multiprocessing
import signal
from contextlib import contextmanager
from time import perf_counter

NOMINAL_S = 0.6e-3      # the kernel's time at nominal speed: its usual time in the
                        # fast phases of a 2-vCPU 2.0 GHz Xeon VM, one BLAS thread
INTERVAL_S = 0.1        # sampling interval inside a job (about 1 % of its time)


class Probe:
    def __init__(self) -> None:
        import numpy as np
        self.np = np
        self.eigvalsh = np.linalg.eigvalsh      # bound before a tracer wraps numpy.linalg
        rng = np.random.default_rng(20231012)
        mats = rng.standard_normal((10, 12, 12))
        self.mats = [m + m.T for m in mats]
        self.idx = rng.integers(0, 4000, 40000)
        self.vals = rng.standard_normal(40000)
        self.doc = {"values": {f"k{i}": [float(x) for x in rng.standard_normal(8)]
                               for i in range(12)}}
        self._inside: list[float] | None = None
        self.inside_s = 0.0

    def kernel(self) -> float:
        acc = self.np.zeros(4000)
        self.np.add.at(acc, self.idx, self.vals)
        total = float(acc.sum())
        for m in self.mats:
            total += float(self.eigvalsh(m)[-1])
        x = 0.0
        for i in range(3000):
            x = 0.5 * x + (i % 7) * 1e-3
        doc = json.loads(json.dumps(self.doc))
        return total + x + len(doc["values"])

    def sample(self) -> float:
        """The kernel's wall time, in s."""
        t0 = perf_counter()
        self.kernel()
        return perf_counter() - t0

    def _tick(self, signum, frame) -> None:
        if self._inside is None or multiprocessing.active_children():
            return
        t0 = perf_counter()
        self._inside.append(self.sample())
        self.inside_s += perf_counter() - t0

    @contextmanager
    def during(self):
        """Sample every INTERVAL_S while the body runs; yields the list the
        samples go to.  `inside_s` is then the time they took."""
        self._inside, self.inside_s = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self._inside
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._inside = None
