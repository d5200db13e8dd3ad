"""Central-difference check of a derivative L1 of an optimal value E(s),
shared by the cone-QP and the flow layer, and log-log slope fitting."""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


@dataclass(frozen=True)
class FdEntry:
    s: float
    fd: float
    abs_err: float


@dataclass(frozen=True)
class FdTable:
    """Central quotients against L1, one entry per step, with the fitted
    slopes of the central and the forward error (None where not defined)."""

    entries: tuple[FdEntry, ...]
    slope: float | None
    one_sided_slope: float | None
    exact: bool


def loglog_slope(s_values, errors) -> float:
    """Fit log(errors) = slope * log(s_values) + c and return the slope.

    Both arrays must be strictly positive, the errors finite, and of equal
    length >= 2.
    """
    s = np.asarray(s_values, dtype=float)
    e = np.asarray(errors, dtype=float)
    if s.shape != e.shape or s.ndim != 1 or s.size < 2:
        raise ValueError("need two or more (s, error) pairs")
    if np.any(s <= 0.0) or not np.all((e > 0.0) & np.isfinite(e)):
        raise ValueError("slope fit requires positive values and finite errors")
    return float(np.polyfit(np.log(s), np.log(e), 1)[0])


def _values_at(value_at: Callable[[float], float], steps: list[float], concurrent: bool) -> list[float]:
    """``value_at`` at every step +s1, -s1, +s2, ..., returned in that order.

    With ``concurrent`` the steps of each sign run as one chain, in order:
    the + steps on a pool thread, the - steps on the calling thread.
    Otherwise the steps run in a plain loop.  A chain stops at its first
    failure and starts no step after a failure of the other chain; once
    both have ended, the first failure in step order is raised, so no
    thread outlives the call.
    """
    if not concurrent:
        return [value_at(s) for s in steps]
    values = [math.nan] * len(steps)
    failures: dict[int, Exception] = {}
    stop = [len(steps)]  # the index of a failed step; a chain starts no later one

    def chain(first: int) -> None:
        for k in range(first, len(steps), 2):
            if k > stop[0]:
                return
            try:
                values[k] = value_at(steps[k])
            except Exception as exc:
                failures[k], stop[0] = exc, min(stop[0], k)
                return

    with ThreadPoolExecutor(1) as pool:
        plus = pool.submit(chain, 0)
        try:
            chain(1)
        except BaseException:
            stop[0] = -1  # an interrupted caller ends the other chain too
            raise
    plus.result()
    if failures:
        raise failures[min(failures)]
    return values


def fd_table(
    value_at: Callable[[float], float],
    l1: float,
    e0: float,
    s_values: Sequence[float],
    *,
    concurrent: bool = False,
) -> FdTable:
    """Compare L1 with (E(+s) - E(-s)) / 2s and (E(+s) - E(0)) / s, E = ``value_at``.

    ``value_at`` is called once at each signed step +s1, -s1, +s2, ...,
    in that order.  With ``concurrent`` and two or more CPUs, the + steps
    run in ``s_values`` order on one pool thread while the calling thread
    runs the - steps in that order, so each sign's steps see one thread and
    one order whatever the timing; ``value_at`` must be safe to call from
    the two threads at once.  The table depends only on the values: it
    equals the one built from the same values in sequence, and a failing
    step raises the error of the first failing step in that order.  The
    table is exact when every error is at most 1e-12 (1 + |E(0)| + |L1|),
    so never with a NaN; otherwise a slope is fitted over two or more
    steps whose errors are all positive and finite.
    """
    s_values = [float(s) for s in s_values]
    if not s_values or any(not (s > 0.0 and math.isfinite(s)) for s in s_values):
        raise ValueError("finite differences need one or more positive, finite steps")
    steps = [sign * s for s in s_values for sign in (1.0, -1.0)]
    values = _values_at(value_at, steps, concurrent and (os.cpu_count() or 1) > 1)
    entries: list[FdEntry] = []
    one_sided_err: list[float] = []
    for s, e_plus, e_minus in zip(s_values, values[0::2], values[1::2]):
        fd = (e_plus - e_minus) / (2.0 * s)
        entries.append(FdEntry(s=s, fd=fd, abs_err=abs(fd - l1)))
        one_sided_err.append(abs((e_plus - e0) / s - l1))

    errs = [e.abs_err for e in entries]
    bound = 1e-12 * (1.0 + abs(e0) + abs(l1))
    exact = all(err <= bound for err in errs + one_sided_err)
    slope = one_sided = None
    if not exact and len(s_values) >= 2:
        if all(0.0 < err < math.inf for err in errs):
            slope = loglog_slope(s_values, errs)
        if all(0.0 < err < math.inf for err in one_sided_err):
            one_sided = loglog_slope(s_values, one_sided_err)
    return FdTable(entries=tuple(entries), slope=slope, one_sided_slope=one_sided, exact=exact)
