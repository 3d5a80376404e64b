import math

import numpy as np
import pytest

from oracles import scalar_log_sum_tree
from rstn.logdomain import log_sum_tree


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
    # the tree reduction is a pure function of the index order
    logs = [0.1 * k for k in range(11)]
    assert log_sum_tree(logs) == log_sum_tree(list(logs))


def test_log_sum_tree_bit_identical_to_scalar_loop():
    rng = np.random.default_rng(17)
    for size in list(range(1, 40)) + [255, 256, 257, 1001]:
        logs = rng.normal(size=size) * rng.choice([1.0, 30.0, 700.0])
        logs[rng.random(size) < 0.3] = -math.inf
        logs = list(logs)
        assert log_sum_tree(logs) == scalar_log_sum_tree(logs)
        assert log_sum_tree(np.array(logs)) == scalar_log_sum_tree(logs)
