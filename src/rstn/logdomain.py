"""Log-domain arithmetic for partition sums.

Weights are nonnegative reals kept as their natural log; -inf encodes
an exactly excluded (zero) term, +inf in an energy likewise.  Sums are
pairwise-tree reduced in index order, so results do not depend on how
the terms were chunked across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np


@dataclass(frozen=True)
class LogWeight:
    """A nonnegative weight stored as log(value); -inf means zero."""

    log: float

    ZERO: ClassVar["LogWeight"]
    ONE: ClassVar["LogWeight"]

    @staticmethod
    def from_linear(x: float) -> "LogWeight":
        if x < 0:
            raise ValueError(f"weights are nonnegative, got {x}")
        return LogWeight(math.log(x) if x > 0 else -math.inf)

    def to_linear(self) -> float:
        return math.exp(self.log) if self.log != -math.inf else 0.0

    def __mul__(self, other: "LogWeight") -> "LogWeight":
        if self.log == -math.inf or other.log == -math.inf:
            return LogWeight(-math.inf)
        return LogWeight(self.log + other.log)

    def __truediv__(self, other: "LogWeight") -> "LogWeight":
        if other.log == -math.inf:
            raise ZeroDivisionError("division by zero weight")
        if self.log == -math.inf:
            return LogWeight(-math.inf)
        return LogWeight(self.log - other.log)

    def is_zero(self) -> bool:
        return self.log == -math.inf


LogWeight.ZERO = LogWeight(-math.inf)
LogWeight.ONE = LogWeight(0.0)


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


def sum_weights(weights: list[LogWeight]) -> LogWeight:
    return LogWeight(log_sum_tree([w.log for w in weights]))
