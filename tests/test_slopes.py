"""The shared central-difference check on closed-form optimal values."""

import math

import pytest

from shapederiv.slopes import fd_table

S_VALUES = [1e-2, 3e-3, 1e-3]


def test_flat_value_is_exact():
    table = fd_table(lambda s: 2.5, 0.0, 2.5, S_VALUES)
    assert table.exact
    assert table.slope is None and table.one_sided_slope is None
    assert [e.s for e in table.entries] == S_VALUES
    assert all(e.fd == 0.0 and e.abs_err == 0.0 for e in table.entries)


def test_linear_value_is_exact():
    a, b = 0.75, -1.25
    table = fd_table(lambda s: a + b * s, b, a, S_VALUES)
    assert table.exact
    assert all(abs(e.fd - b) <= 1e-12 for e in table.entries)


def test_even_value_has_only_a_one_sided_slope():
    # E(s) = -1/2 (1 + s^2): the central quotient is exact, the forward one
    # is off by s/2, so the table is not exact and only that slope exists.
    table = fd_table(lambda s: -0.5 * (1.0 + s * s), 0.0, -0.5, S_VALUES)
    assert not table.exact
    assert all(e.abs_err == 0.0 for e in table.entries)
    assert table.slope is None
    assert table.one_sided_slope == pytest.approx(1.0, abs=1e-6)


def test_cubic_value_slopes():
    # E(s) = s + s^2 + s^3: central error s^2, forward error s + s^2.
    table = fd_table(lambda s: s + s**2 + s**3, 1.0, 0.0, S_VALUES)
    assert not table.exact
    assert table.slope == pytest.approx(2.0, abs=1e-6)
    assert table.one_sided_slope == pytest.approx(1.0, abs=1e-2)


def test_calls_plus_then_minus_in_step_order():
    calls = []
    fd_table(lambda s: calls.append(s) or 0.0, 0.0, 0.0, [1e-2, 1e-3])
    assert calls == [1e-2, -1e-2, 1e-3, -1e-3]


@pytest.mark.parametrize("bad", [0.0, -1e-3, math.nan, math.inf])
def test_rejects_bad_steps_before_any_call(bad):
    calls = []
    with pytest.raises(ValueError):
        fd_table(lambda s: calls.append(s) or 0.0, 0.0, 0.0, [1e-2, bad])
    assert calls == []


def test_rejects_no_steps():
    with pytest.raises(ValueError):
        fd_table(lambda s: 0.0, 0.0, 0.0, [])
