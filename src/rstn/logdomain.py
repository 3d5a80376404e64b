"""Log-domain arithmetic for partition sums.

Weights are nonnegative reals kept as their natural log; -inf encodes
an exactly excluded (zero) term, +inf in an energy likewise.  Sums are
pairwise-tree reduced in index order, so each result is a fixed
function of its terms and their order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LogWeight:
    """A nonnegative weight stored as log(value); -inf means zero."""

    log: float


def log_sum_tree(logs) -> float:
    """log(sum(exp(logs))) by pairwise tree reduction in index order.

    Each level adds neighbours (0,1), (2,3), ... and carries an odd
    last term up unchanged.
    """
    vals = np.asarray(logs, dtype=float)
    vals = vals[vals != -math.inf]
    if not vals.size:
        return -math.inf
    while vals.size > 1:
        even = vals.size & ~1
        pairs = np.logaddexp(vals[0:even:2], vals[1:even:2])
        vals = np.concatenate((pairs, vals[even:]))
    return float(vals[0])
