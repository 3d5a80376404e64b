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


def log_sum_rows(vals: np.ndarray) -> np.ndarray:
    """log_sum_tree of each row, its terms left-justified and padded with
    -inf: a term paired with the padding is carried up as is (-0.0 too)."""
    while vals.shape[1] > 1:
        if vals.shape[1] & 1:
            vals = np.hstack((vals, np.full((len(vals), 1), -math.inf)))
        left, right = vals[:, 0::2], vals[:, 1::2]
        vals = np.where(right == -math.inf, left, np.logaddexp(left, right))
    return vals[:, 0]


class LogSums:
    """log_sum_tree of each row's terms, fed as (rows, k) logs (-inf: no
    term) per chunk: its nodes at width k, a power of two, sum aligned
    blocks of k terms, so each row reduces a block once it is complete."""

    def __init__(self, rows: int, width: int, terms: int):
        self.pending = np.full((rows, 2 * width), -math.inf)
        self.seen = np.zeros(rows, dtype=np.int64)  # terms fed per row
        self.sums = np.full((rows, terms // width + 1), -math.inf)

    def feed(self, logs: np.ndarray) -> None:
        p, w, kept = self.pending, logs.shape[1], logs != -math.inf
        start, end = self.seen % w, self.seen % w + kept.sum(axis=1)
        self.seen += end - start
        cols = np.arange(2 * w)
        p[(cols >= start[:, None]) & (cols < end[:, None])] = logs[kept]
        full = np.flatnonzero(end >= w)
        self.sums[full, self.seen[full] // w - 1] = log_sum_rows(p[full, :w])
        p[full] = np.c_[p[full, w:], np.full((len(full), w), -math.inf)]

    def total(self) -> np.ndarray:
        w, rows = self.pending.shape[1] // 2, np.arange(len(self.sums))
        self.sums[rows, self.seen // w] = log_sum_rows(self.pending[:, :w])
        return log_sum_rows(self.sums)
