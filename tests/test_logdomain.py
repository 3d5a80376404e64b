import math

import numpy as np
import pytest

from oracles import compacted_log_sum_tree, scalar_log_sum_tree
from rstn.logdomain import log_sum_rows, log_sum_tree


def test_log_sum_tree_matches_logsumexp():
    rng = np.random.default_rng(0)
    logs = list(rng.normal(size=37) * 50)
    expect = np.logaddexp.reduce(sorted(logs))
    assert log_sum_tree(logs) == pytest.approx(expect, rel=1e-14)


def test_log_sum_tree_empty_and_zeros():
    assert log_sum_tree([]) == -math.inf
    assert log_sum_tree([-math.inf, -math.inf]) == -math.inf
    assert log_sum_tree([-math.inf, 0.0]) == 0.0


def test_log_sum_tree_extreme_range():
    # a naive sequential sum in linear space would overflow
    assert log_sum_tree([800.0, 800.0]) == pytest.approx(
        800.0 + math.log(2.0)
    )


def test_chunking_independence():
    # every aligned run of 2^k slots is a subtree of a row's one tree: the
    # sum of its chunk sums is the sum of the row, bit for bit
    rng = np.random.default_rng(5)
    for width in (1, 2, 7, 8, 37, 64, 600, 1024):
        rows = rng.normal(size=(40, width)) * rng.choice([1.0, 30.0, 700.0], (40, 1))
        rows[rng.random(rows.shape) < 0.3] = -math.inf
        whole = log_sum_rows(rows).tobytes()
        for chunk in (1 << k for k in range((width - 1).bit_length() + 1)):
            sums = [log_sum_rows(rows[:, lo:lo + chunk]) for lo in range(0, width, chunk)]
            assert log_sum_rows(np.stack(sums, 1)).tobytes() == whole


def test_sub_cube_rows_match_the_compacted_tree():
    # where Delta's pins alone exclude configurations, the kept ones form a
    # sub-cube, and the tree over all slots is the tree over the kept terms
    rng = np.random.default_rng(11)
    for n_vert in range(1, 11):
        configs = np.arange(1 << n_vert)
        for _ in range(12):
            up, down = rng.integers(1 << n_vert, size=2)
            down &= ~up
            logs = rng.normal(size=configs.size) * 30.0
            logs[((configs & up) != 0) | ((configs & down) != down)] = -math.inf
            assert log_sum_tree(logs) == compacted_log_sum_tree(list(logs))


def test_log_sum_tree_bit_identical_to_scalar_loop():
    rng = np.random.default_rng(17)
    for size in list(range(1, 40)) + [255, 256, 257, 1001]:
        logs = rng.normal(size=size) * rng.choice([1.0, 30.0, 700.0])
        logs[rng.random(size) < 0.3] = -math.inf
        logs = list(logs)
        assert log_sum_tree(logs) == scalar_log_sum_tree(logs)
        assert log_sum_tree(np.array(logs)) == scalar_log_sum_tree(logs)
