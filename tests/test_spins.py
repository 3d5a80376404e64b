import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from oracles import casimir_invariant_dim, exponents_reference, weight_counting_invariant_dim
from rstn.spins import channel_spins, coprime_base, dim_rep, intertwiner_dimension


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


def test_coprime_base_of_small_dimensions():
    assert coprime_base(range(0, 20)) == (2, 3, 5, 7, 11, 13, 17, 19)
    assert coprime_base([1, 4, 6]) == (2, 3)
    assert coprime_base([6, 36]) == (6,)  # a base need not be prime
    assert coprime_base([0, 1]) == ()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.integers(0, 400), st.integers(0, 10**60)), min_size=1,
                max_size=12))
def test_coprime_base_is_coprime_and_generates_every_value(values):
    # pairwise coprime elements above 1, and each value above 0 their
    # product: so a product of values has one exponent vector
    base = coprime_base(values)
    assert all(b > 1 for b in base) and list(base) == sorted(set(base))
    assert all(math.gcd(a, b) == 1 for a, b in itertools.combinations(base, 2))
    for v in values:
        if v > 0:
            assert math.prod(b ** e for b, e in zip(base, exponents_reference(v, base))) == v
