"""shapederiv benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root; the package is imported from ``src/``.
With ``--trace 0`` the run reports the end-to-end metrics, its times
scaled to a nominal host speed by a probe timed between units (see
``perfbench/probe.py``); with ``--trace 1`` it alternates traced and
untraced units and reports the per-layer table (per op, unscaled), the
structural call-count checks and the tracing overhead.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the run environment.  Inputs and reports go to a scratch directory
under ``.bench_build/`` that is removed at exit.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# The import is timed in fresh interpreters, since a process imports only
# once.  Each is paired with an import of the package's dependencies alone,
# the reference: the package's import time is scaled to a host on which the
# reference takes REF_IMPORT_S (its median in a quiet phase of the VM that
# fixed Probe.REF_S).
IMPORT_SAMPLES = 2
SETUP_SAMPLES = 3
REF_MODULES = "numpy, scipy.linalg, scipy.sparse.linalg, sympy"
REF_IMPORT_S = 0.65


# One BLAS thread (at most nproc): on a shared 2-CPU host, back-to-back runs
# with two threads were no faster on these sizes and spread more.
BLAS_THREADS = 1


def _time_import(modules: str) -> float:
    code = f"import time; t = time.perf_counter(); import {modules}; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _setup(wl, seed: int, workdir: str, probe) -> tuple:
    """Inputs, scaled set-up seconds and the unscaled parts.

    Set-up is the median package import, scaled by the reference import,
    plus the median input generation, scaled by the probe samples taken
    around it.  The in-process probe tracks an import in a fresh
    interpreter poorly; the reference import tracks it well.
    """
    pkg_s, ref_s = [], []
    for _ in range(IMPORT_SAMPLES):
        ref_s.append(_time_import(REF_MODULES))
        pkg_s.append(_time_import("shapederiv"))
    hosts, gen_s = [probe.sample()], []
    for _ in range(SETUP_SAMPLES):
        start = perf_counter()
        inputs = wl.setup(seed, workdir)
        gen_s.append(perf_counter() - start)
        hosts.append(probe.sample())
    import_s, gen = statistics.median(pkg_s), statistics.median(gen_s)
    scaled = import_s * REF_IMPORT_S / statistics.median(ref_s) + gen * probe.scale(statistics.median(hosts))
    raw = {"raw_import_s": import_s, "ref_import_s": statistics.median(ref_s), "raw_generate_s": gen}
    return inputs, scaled, raw


def _report_failures(ops, unit: int) -> None:
    for op in ops:
        if not op.ok:
            print(f"unit {unit}: failed op: {op.problem}", file=sys.stderr)


class _Segments:
    """Wall time cut into segments by probe samples; probe time is in none.

    Each segment is scaled to the nominal host by the mean of the probe
    samples at its two ends.
    """

    def __init__(self, probe):
        self.probe = probe
        self.hosts = [probe.sample()]
        self.raw_s, self.scale = [], []
        self.mark = perf_counter()

    def split(self) -> None:
        self.raw_s.append(perf_counter() - self.mark)
        self.hosts.append(self.probe.sample())
        self.scale.append(self.probe.scale((self.hosts[-2] + self.hosts[-1]) / 2.0))
        self.mark = perf_counter()


def run_untraced(wl, inputs, seconds: float, probe) -> tuple[list, dict, dict]:
    """Whole units until ``seconds`` have passed; the last one may run over.

    The runner splits after each unit and a unit of several ops splits
    after each op but its last, so op k of a unit has segment k's scale.
    Throughput is ops over the scaled time of all segments.
    """
    clock = _Segments(probe)
    ops, scaled_latency = [], []
    deadline = perf_counter() + seconds
    unit = 0
    while unit == 0 or perf_counter() < deadline:
        first = len(clock.scale)
        done = wl.unit(inputs, unit, clock.split)
        clock.split()
        scales = clock.scale[first:]
        scales += scales[-1:] * (len(done) - len(scales))  # a unit that failed early
        scaled_latency.extend(op.latency_s * scale for op, scale in zip(done, scales))
        _report_failures(done, unit)
        ops.extend(done)
        unit += 1
    attempted = len(ops)
    failed = sum(not op.ok for op in ops)
    scaled_s = sum(raw * scale for raw, scale in zip(clock.raw_s, clock.scale))
    metrics = {
        "ops_per_s": (attempted / scaled_s, "1/s"),
        "op_p50_s": (statistics.median(scaled_latency), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "passed_frac": (1.0 - failed / attempted, "ratio"),
    }
    raw = {
        "probe_ref_s": probe.REF_S,
        "raw_ops_per_s": attempted / sum(clock.raw_s),
        "raw_op_p50_s": statistics.median(op.latency_s for op in ops),
        "probe_p50_s": statistics.median(clock.hosts),
        "probe_samples": len(clock.hosts),
    }
    return ops, metrics, raw


def _check_calls(wl, calls: dict, unit: int) -> str:
    for name, (lo, hi) in wl.expected_calls.items():
        got = calls[name]
        if got < lo or (hi is not None and got > hi):
            want = f"{lo}" if lo == hi else f">= {lo}" if hi is None else f"{lo}..{hi}"
            return f"unit {unit}: {name} called {got} times, expected {want}"
    return ""


def run_traced(wl, inputs, seconds: float) -> tuple[list, dict]:
    """Alternate traced and untraced units; per-layer numbers come from the
    traced ones only, the untraced ones give the overhead baseline."""
    from perfbench.tracing import Tracer

    tracer = Tracer()
    ops, traced_ops = [], 0
    unit_s = {True: [], False: []}
    start = perf_counter()
    deadline = start + seconds
    unit = 0
    while unit < 2 or perf_counter() < deadline:
        traced = unit % 2 == 0
        if traced:
            tracer.op = unit
            tracer.install()
        t0 = perf_counter()
        try:
            done = wl.unit(inputs, unit)
        finally:
            unit_s[traced].append(perf_counter() - t0)
            tracer.uninstall()
        if traced:
            traced_ops += len(done)
            problem = _check_calls(wl, tracer.calls(unit), unit)
            if problem:
                done = [dataclasses.replace(op, ok=False, problem=problem) for op in done]
        _report_failures(done, unit)
        ops.extend(done)
        unit += 1
    metrics = tracer.layer_table(traced_ops)
    overhead = statistics.median(unit_s[True]) / statistics.median(unit_s[False]) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    metrics["trace.wrapper_s"] = (Tracer.wrapper_cost() * len(tracer.spans) / traced_ops, "s/op")
    metrics["trace.ops"] = (float(traced_ops), "count")
    return ops, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "shapederiv" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)  # before numpy is first imported
    sys.path[:0] = [str(SRC), str(ROOT)]

    from perfbench.probe import Probe
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]

    (ROOT / ".bench_build").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="perfbench-", dir=ROOT / ".bench_build")
    try:
        probe = Probe()
        inputs, setup_s, raw = _setup(wl, args.seed, workdir, probe)
        if args.trace:
            ops, metrics = run_traced(wl, inputs, args.seconds)
        else:
            ops, metrics, raw_run = run_untraced(wl, inputs, args.seconds, probe)
            metrics["setup_s"] = (setup_s, "s")
            raw.update(raw_run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    import numpy
    import scipy

    env = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "ops": len(ops), "setup_samples": SETUP_SAMPLES, "import_samples": IMPORT_SAMPLES,
        "nproc": os.cpu_count(), "cpus_available": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS, "python": sys.version.split()[0],
        "numpy": numpy.__version__, "scipy": scipy.__version__, **wl.describe(), **raw,
    }
    print(json.dumps({"env": env}))
    failed = sum(not op.ok for op in ops)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
