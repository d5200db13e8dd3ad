"""The closed-form manufactured Stokes fields against their sympy derivation,
and a package import that leaves sympy out."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from manufactured_oracle import trig_manufactured as symbolic_manufactured
from shapederiv.fields import trig_manufactured

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def points():
    return np.random.default_rng(2018).uniform(-0.5, 1.5, size=(1000, 2))


@pytest.fixture(scope="module")
def oracle():
    return symbolic_manufactured()


def _assert_close(value, exact, magnitude):
    # rounding, relative to the sum of the absolute terms of the exact form
    assert value.shape == exact.shape
    assert np.all(np.abs(value - exact) <= 1e-14 * magnitude)


@pytest.mark.parametrize("name", ["velocity", "force"])
def test_values_and_gradients_match_the_symbolic_derivation(points, oracle, name):
    field, exact = getattr(trig_manufactured(), name), getattr(oracle, name)
    _assert_close(field.evaluate(points), exact.evaluate(points), exact.magnitude(points))
    _assert_close(field.gradient(points), exact.gradient(points), exact.gradient_magnitude(points))


def test_traction_and_pressure_match_the_symbolic_derivation(points, oracle):
    man = trig_manufactured()
    _assert_close(man.traction.evaluate(points), oracle.traction.evaluate(points), oracle.traction.magnitude(points))
    _assert_close(man.pressure(points), oracle.pressure.evaluate(points)[:, 0], oracle.pressure.magnitude(points)[:, 0])


@pytest.mark.parametrize("module", ["shapederiv", "shapederiv.cli"])
def test_import_loads_no_symbolic_algebra(module):
    code = (
        f"import sys, {module}\n"
        "print(' '.join(m for m in sys.modules if m.split('.')[0] in ('sympy', 'mpmath')))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == ""
