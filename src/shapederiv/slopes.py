"""Least-squares slope fitting for log-log convergence data."""

from __future__ import annotations

import numpy as np


def loglog_slope(s_values, errors) -> float:
    """Fit log(errors) = slope * log(s_values) + c and return the slope.

    Both arrays must be strictly positive and of equal length >= 2.
    """
    s = np.asarray(s_values, dtype=float)
    e = np.asarray(errors, dtype=float)
    if s.shape != e.shape or s.ndim != 1 or s.size < 2:
        raise ValueError("need two or more (s, error) pairs")
    if np.any(s <= 0.0) or np.any(e <= 0.0):
        raise ValueError("slope fit requires positive values")
    return float(np.polyfit(np.log(s), np.log(e), 1)[0])
