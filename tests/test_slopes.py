"""The shared central-difference check on closed-form optimal values."""

import math
import sys
import threading
import time

import pytest

from shapederiv import slopes
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


def _uneven_cubic(calls):
    # E(s) = s + s^2 + s^3, slower at the small steps, so that the threads
    # finish their steps out of order.
    def value_at(s):
        calls.append(s)
        time.sleep(0.02 * (abs(s) < 5e-3))
        return s + s**2 + s**3

    return value_at


@pytest.mark.parametrize("cpus", [2, 4])
def test_each_signed_step_once_and_the_sequential_table(monkeypatch, cpus):
    # The table depends on the values only: the concurrent map gives the
    # table of the sequential loop, bit for bit.
    s_values = [1e-2, 3e-3, 1e-3]
    sequential = fd_table(_uneven_cubic([]), 1.0, 0.0, s_values)
    monkeypatch.setattr(slopes.os, "cpu_count", lambda: cpus)
    calls = []
    table = fd_table(_uneven_cubic(calls), 1.0, 0.0, s_values, concurrent=True)
    assert sorted(calls) == sorted([s for v in s_values for s in (v, -v)])
    assert repr(table) == repr(sequential)


def test_many_steps_on_more_threads_than_cpus(monkeypatch):
    # With 8 CPUs reported, the steps still run as two chains under a short
    # switch interval: each sign's steps in s_list order on one thread, and
    # at most one pool thread; a step lost or taken twice shows in the calls.
    monkeypatch.setattr(slopes.os, "cpu_count", lambda: 8)
    s_values = [10.0 ** -(1.0 + k / 20.0) for k in range(60)]
    calls = []

    def value_at(s):
        calls.append((threading.get_ident(), s))
        return s + s * s

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        table = fd_table(value_at, 1.0, 0.0, s_values, concurrent=True)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(s for _, s in calls) == sorted([s for v in s_values for s in (v, -v)])
    for sign in (1.0, -1.0):
        chain = [(thread, s) for thread, s in calls if s * sign > 0.0]
        assert [s for _, s in chain] == [sign * s for s in s_values]
        assert len({thread for thread, _ in chain}) == 1
    assert len({thread for thread, _ in calls} - {threading.get_ident()}) <= 1
    assert repr(table) == repr(fd_table(lambda s: s + s * s, 1.0, 0.0, s_values))


class _MinusFirstStep(Exception):
    pass


class _PlusSecondStep(Exception):
    pass


def _fails_at_minus_first_and_plus_second(s):
    if s == -1e-2:
        time.sleep(0.2)  # fails last in time, first in step order
        raise _MinusFirstStep("at -s1")
    if s == 1e-3:
        raise _PlusSecondStep("at +s2")
    return 0.0


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_first_failure_in_step_order_is_raised(monkeypatch, cpus):
    monkeypatch.setattr(slopes.os, "cpu_count", lambda: cpus)
    threads = threading.active_count()
    fd_table(_uneven_cubic([]), 1.0, 0.0, [1e-2, 1e-3], concurrent=True)
    assert threading.active_count() == threads
    with pytest.raises(_MinusFirstStep, match="at -s1"):
        fd_table(_fails_at_minus_first_and_plus_second, 0.0, 0.0, [1e-2, 1e-3], concurrent=True)
    assert threading.active_count() == threads


class _Failure(Exception):
    pass


class _Interrupt(BaseException):
    pass


@pytest.mark.parametrize("failure", [_Failure, _Interrupt])
def test_a_stopped_chain_ends_the_other(monkeypatch, failure):
    # A failure at +s1, first in step order, or an interrupt of the
    # calling thread at -s1 stops the other chain after its current step,
    # and no thread outlives the call.
    monkeypatch.setattr(slopes.os, "cpu_count", lambda: 2)
    calls = []
    threads = threading.active_count()

    def value_at(s):
        calls.append(s)
        if s == (1e-2 if failure is _Failure else -1e-2):
            raise failure("stop")
        time.sleep(0.05)
        return 0.0

    with pytest.raises(failure, match="stop"):
        fd_table(value_at, 0.0, 0.0, [1e-2, 3e-3, 1e-3, 3e-4], concurrent=True)
    assert threading.active_count() == threads
    assert len(calls) <= 2


@pytest.mark.parametrize("bad", [0.0, -1e-3, math.nan, math.inf])
def test_rejects_bad_steps_before_any_call(bad):
    calls = []
    with pytest.raises(ValueError):
        fd_table(lambda s: calls.append(s) or 0.0, 0.0, 0.0, [1e-2, bad])
    assert calls == []


def test_rejects_no_steps():
    with pytest.raises(ValueError):
        fd_table(lambda s: 0.0, 0.0, 0.0, [])


@pytest.mark.parametrize("nan_step", [1e-2, -1e-2, 1e-3, -1e-3])
def test_a_nan_value_is_never_exact_and_never_fitted(nan_step):
    # Wherever the NaN sits among the signed steps, the errors it makes
    # are neither within the exactness bound nor fitted.
    s_values = [1e-2, 1e-3]

    def nan_at(value_at):
        return lambda s: math.nan if s == nan_step else value_at(s)

    linear = fd_table(nan_at(lambda s: 2.0 * s), 2.0, 0.0, s_values)
    assert not linear.exact
    cubic = fd_table(nan_at(lambda s: s + s**2 + s**3), 1.0, 0.0, s_values)
    assert not cubic.exact and cubic.slope is None
    if nan_step > 0.0:  # the forward quotient reads E(+s) only
        assert cubic.one_sided_slope is None
    else:
        assert cubic.one_sided_slope == pytest.approx(1.0, abs=1e-2)
    errors = [1e-4, 1e-6]
    errors[s_values.index(abs(nan_step))] = math.nan
    with pytest.raises(ValueError, match="finite"):
        slopes.loglog_slope(s_values, errors)


@pytest.mark.parametrize("cpus", [2, 4])
def test_the_calling_thread_takes_steps(monkeypatch, cpus):
    # The caller works as one of the threads instead of waiting on the
    # pool: with the caller idle, fd-square's peak RSS rose by about 7 MB.
    monkeypatch.setattr(slopes.os, "cpu_count", lambda: cpus)
    s_values = [1e-2, 3e-3, 1e-3]
    threads = []

    def value_at(s):
        threads.append(threading.get_ident())
        time.sleep(0.01)
        return s

    fd_table(value_at, 1.0, 0.0, s_values, concurrent=True)
    caller = threading.get_ident()
    assert caller in threads
    assert len(set(threads) - {caller}) <= min(2 * len(s_values), cpus) - 1
