"""Host-speed probe: a fixed piece of work that times how fast the host runs.

The benchmark runs on a shared host whose speed drifts by 1.3-2x over
phases of seconds to minutes; all code slows together.  The probe mixes
the kinds of work the package does (a sparse LU, a dense Cholesky solve, a
numpy scatter-add and a pure-Python loop) on fixed inputs that never depend
on the workload seed or on the package.  Timed next to each unit of the
workload, its time gives the host speed at that moment, and the runner
scales the unit's times to a nominal host on which the probe takes
``Probe.REF_S`` seconds.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class Probe:
    # Nominal probe time: the probe's median on a 2-CPU x86-64 cloud VM with
    # one BLAS thread, in a quiet phase.  Only a scale; ratios between runs
    # do not depend on it.
    REF_S = 0.018
    REPEATS = 3

    def __init__(self):
        rng = np.random.default_rng(1808)
        q = rng.standard_normal((400, 400))
        self.dense = q @ q.T + 400.0 * np.eye(400)
        self.rhs = rng.standard_normal(400)
        grid = 40
        line = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], (grid, grid))
        eye = sp.identity(grid)
        self.sparse = (sp.kron(line, eye) + sp.kron(eye, line)).tocsc()
        self.ones = np.ones(grid * grid)
        self.index = rng.integers(0, 8192, 200_000)
        self.weights = rng.standard_normal(200_000)
        self.work()  # first call pays lazy set-up

    def work(self) -> float:
        total = float(spla.splu(self.sparse).solve(self.ones).sum())
        total += float(scipy.linalg.cho_solve(scipy.linalg.cho_factor(self.dense), self.rhs).sum())
        for _ in range(8):
            total += float(np.bincount(self.index, self.weights, minlength=8192).sum())
        acc = 0
        for i in range(60_000):
            acc += i % 7
        return total + acc

    def scale(self, host_s: float) -> float:
        """Factor from seconds on a host where the probe took ``host_s`` to
        seconds on the nominal host."""
        return self.REF_S / host_s

    def sample(self) -> float:
        """Median time of ``REPEATS`` probe runs, in seconds."""
        times = []
        for _ in range(self.REPEATS):
            start = perf_counter()
            self.work()
            times.append(perf_counter() - start)
        return statistics.median(times)
