import pytest

from oracles import casimir_invariant_dim, weight_counting_invariant_dim
from rstn.spins import channel_spins, dim_rep, intertwiner_dimension


def test_dim_rep():
    assert [dim_rep(t) for t in range(5)] == [1, 2, 3, 4, 5]


def test_channel_spins_simple():
    # four spin-1/2 legs recouple through channel spins 0 and 1
    assert channel_spins((1, 1, 1, 1)) == (0, 2)
    assert intertwiner_dimension((1, 1, 1, 1)) == 2


def test_channel_spins_sorted():
    chs = channel_spins((2, 4, 2, 4))
    assert list(chs) == sorted(chs)


@pytest.mark.parametrize(
    "tup",
    [
        (0, 0, 0, 0),
        (1, 1, 1, 1),
        (2, 2, 2, 2),
        (1, 1, 2, 2),
        (1, 2, 3, 4),
        (4, 4, 4, 12),
        (2, 2, 2, 7),  # parity mismatch: no invariants
        (0, 1, 1, 2),
        (3, 3, 3, 3),
    ],
)
def test_dimension_against_weight_counting(tup):
    assert intertwiner_dimension(tup) == weight_counting_invariant_dim(tup)


@pytest.mark.parametrize(
    "tup", [(1, 1, 1, 1), (2, 2, 2, 2), (1, 1, 2, 2), (1, 2, 2, 3)]
)
def test_dimension_against_casimir(tup):
    assert intertwiner_dimension(tup) == casimir_invariant_dim(tup)


def test_unfulfillable_tuple_is_zero_dimensional():
    assert intertwiner_dimension((1, 0, 0, 0)) == 0
    assert intertwiner_dimension((8, 1, 1, 1)) == 0
