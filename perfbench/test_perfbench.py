"""The benchmark's own checks, on small inputs.

Tracing must be invisible to the package: after a traced run every wrapped
attribute is the original object again, and a traced op writes the same
``report.kv`` bytes as the same op untraced.  Each workload's traced run
must also pass its structural call-count checks.  An untraced run takes one
probe sample per op plus one, and scales every time by it.
"""

import sys

import pytest

import shapederiv.cli  # noqa: F401  (loads every package module that gets wrapped)
from perfbench.probe import Probe
from perfbench.run import run_traced, run_untraced
from perfbench.tracing import SPANS, Tracer
from perfbench.workloads import CliSolve, FdSquare, GradientSweep, QpActiveSet

SMALL = [
    FdSquare(n=4),
    CliSolve(n=4),
    QpActiveSet(n=12, m=8, active=4, instances=2),
    GradientSweep(rings=3, directions=3),
]


def _package_attributes():
    snapshot = {}
    for name, module in list(sys.modules.items()):
        if name == "shapederiv" or name.startswith("shapederiv."):
            for key, value in vars(module).items():
                snapshot[(name, key)] = value
                if isinstance(value, type):
                    for attr, member in vars(value).items():
                        snapshot[(name, key, attr)] = member
    return snapshot


@pytest.mark.parametrize("wl", SMALL, ids=lambda wl: wl.name)
def test_traced_run_restores_package_and_passes_call_checks(wl, tmp_path):
    before = _package_attributes()
    inputs = wl.setup(0, str(tmp_path))
    ops, metrics = run_traced(wl, inputs, 0.0)
    after = _package_attributes()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    assert ops and all(op.ok for op in ops), [op.problem for op in ops if not op.ok]
    for name in SPANS:
        assert f"{name}.calls" in metrics
    for name in wl.expected_calls:
        assert metrics[f"{name}.calls"][0] > 0


def test_tracer_wraps_every_binding_site():
    stokes = sys.modules["shapederiv.stokes_fem"]
    original = stokes.solve_stokes
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = stokes.solve_stokes
        assert wrapped.__wrapped__ is original
        for name in ("shapederiv", "shapederiv.cli", "shapederiv.shape_derivative"):
            assert sys.modules[name].solve_stokes is wrapped
    finally:
        tracer.uninstall()
    assert stokes.solve_stokes is original


@pytest.mark.parametrize("wl", SMALL[:3], ids=lambda wl: wl.name)
def test_traced_report_is_byte_identical(wl, tmp_path):
    inputs = wl.setup(0, str(tmp_path))
    report = tmp_path / "out" / "report.kv"
    assert all(op.ok for op in wl.unit(inputs, 0))
    untraced = report.read_bytes()
    report.unlink()
    tracer = Tracer()
    tracer.install()
    try:
        assert all(op.ok for op in wl.unit(inputs, 0))
    finally:
        tracer.uninstall()
    assert tracer.spans
    assert report.read_bytes() == untraced


class _FixedProbe(Probe):
    """A probe that reports a host running at half the nominal speed."""

    def __init__(self):
        pass

    def sample(self) -> float:
        return 2.0 * self.REF_S


@pytest.mark.parametrize("wl", SMALL[2:], ids=lambda wl: wl.name)
def test_untraced_times_are_scaled_per_op(wl, tmp_path):
    inputs = wl.setup(0, str(tmp_path))
    ops, metrics, raw = run_untraced(wl, inputs, 0.0, _FixedProbe())
    assert ops and all(op.ok for op in ops), [op.problem for op in ops if not op.ok]
    assert raw["probe_samples"] == len(ops) + 1
    assert metrics["op_p50_s"][0] == pytest.approx(raw["raw_op_p50_s"] / 2.0)
    assert metrics["ops_per_s"][0] == pytest.approx(raw["raw_ops_per_s"] * 2.0)
