"""Log-domain arithmetic for partition sums.

Weights are nonnegative reals kept as their natural log; -inf encodes
an exactly excluded (zero) term, +inf in an energy likewise.  Every sum
is one fixed pairwise tree over index slots: a row is padded at its end
with -inf to a power of two, and each level adds neighbours (0,1),
(2,3), ...  A zero term keeps its slot and passes its neighbour up
unchanged (np.logaddexp(x, -inf) is x, but -0.0 becomes 0.0), so each
aligned run of 2^k slots is a subtree: the sums of such chunks, summed
in turn, are the sum of the row, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LogWeight:
    """A nonnegative weight stored as log(value); -inf means zero."""

    log: float


def log_sum_rows(vals: np.ndarray) -> np.ndarray:
    """log(sum(exp(row))) of each row of a (rows, k) array, k >= 1, by
    the pairwise tree over its slots."""
    rows, k = vals.shape
    if k & (k - 1):  # padded at the end to a power of two
        vals = np.concatenate((vals, np.full((rows, (1 << k.bit_length()) - k), -math.inf)), 1)
    while vals.shape[1] > 1:
        vals = np.logaddexp(vals[:, 0::2], vals[:, 1::2])
    return vals[:, 0]


def log_sum_tree(logs) -> float:
    """log_sum_rows of `logs` as one row; -inf when empty."""
    vals = np.asarray(logs, dtype=float).reshape(1, -1)
    return float(log_sum_rows(vals)[0]) if vals.size else -math.inf
