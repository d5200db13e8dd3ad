"""A Euclidean norm whose squares cannot overflow or underflow.

``np.linalg.norm`` forms sqrt(x'x): the squares overflow once an entry
passes about 1e154 (with a RuntimeWarning) and vanish below about
1e-162.  ``norm2`` returns the same double wherever the largest entry
lies in [2^-480, 2^480], where neither can happen; outside it, it scales
x by a power of two, which is exact, and scales the norm back.
"""

from __future__ import annotations

import numpy as np

_LOW, _HIGH = 2.0**-480, 2.0**480


def norm2(x: np.ndarray) -> float:
    """Euclidean norm of x; inf when it exceeds the largest double."""
    peak = float(np.abs(x).max(initial=0.0))
    if _LOW <= peak <= _HIGH or peak == 0.0 or not np.isfinite(peak):
        return float(np.linalg.norm(x))
    exp = int(np.frexp(peak)[1])
    # Two factors, each a double: where 2.0**exp alone would raise
    # OverflowError, their product overflows to inf.
    return float(np.linalg.norm(np.ldexp(x, -exp))) * 2.0 ** (exp // 2) * 2.0 ** (exp - exp // 2)


def binary_exponent(*arrays: np.ndarray) -> int:
    """The ``np.frexp`` exponent of the largest entry over all ``arrays``."""
    return int(np.frexp(max(float(np.abs(x).max(initial=0.0)) for x in arrays))[1])
