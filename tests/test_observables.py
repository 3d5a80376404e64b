import inspect
import math

import numpy as np
import pytest

from oracles import reweighted_scenario
from rstn.families import appendix_c, tiny_generic, two_sector
from rstn.holography import solve_weights
from rstn.observables import (
    area_average,
    area_average_partition,
    area_variance,
    holographic_p,
    link_area,
    p_vector,
    sector_area,
    sequence_average,
    sequence_mean_prefactor,
    sequence_renyi,
    sequence_var_prefactor,
)


def test_link_area_conventions():
    assert link_area(2) == 1.0
    assert link_area(1) == 0.5


def test_sector_area_sums_region():
    sc = tiny_generic()  # C = two spin-1/2 links
    assert sector_area(sc, 0) == 1.0


def test_single_sector_average_is_sector_area():
    sc = tiny_generic()
    assert area_average(sc) == sector_area(sc, 0)
    assert area_variance(sc) == 0.0


@pytest.mark.parametrize("moment", [area_average, area_variance])
def test_holographic_is_keyword_only(moment):
    # the `holographic` keyword left: a moment takes the scenario alone,
    # so a second argument, positional or not, is refused
    assert len(inspect.signature(moment).parameters) == 1
    with pytest.raises(TypeError):
        moment(tiny_generic(), False)
    with pytest.raises(TypeError):
        moment(tiny_generic(), holographic=False)


def test_holographic_p_normalized():
    sc = two_sector(9, 5, 0.5, mode="exact")
    p = holographic_p(sc)
    assert p.sum() == pytest.approx(1.0)
    # heavier sector carries the larger C dimension
    assert p[0] > p[1]


def test_p_vector_explicit_flag_matches_helpers():
    sc = two_sector(399, 199, 0.5)
    re = reweighted_scenario(sc, solve_weights(sc).c)  # detected holographic
    assert np.allclose(p_vector(re), holographic_p(re))
    p = p_vector(two_sector(9, 5, 0.4, mode="exact"))  # the diagonal of P
    assert p.sum() == pytest.approx(1.0)


def test_partition_path_matches_closed_form_when_holographic():
    sc = two_sector(399, 199, 0.5)
    sol = solve_weights(sc)
    re = reweighted_scenario(sc, sol.c)
    full = area_average_partition(re)
    closed = area_average(re)
    assert full == pytest.approx(closed, abs=1e-10 * closed)


def test_variance_nonnegative_mixed_state():
    sc = appendix_c(4, 0.3, 0.25, 0.45, u=0.1, v=0.05)
    assert area_variance(sc) >= 0.0


def test_sequence_renyi_basic():
    assert sequence_renyi([1.0, 1.0], 2) == pytest.approx(math.log(2))
    with pytest.raises(ValueError):
        sequence_renyi([1.0, 0.0], 2)


def test_sequence_prefactors_arithmetic_progression():
    k = 64
    areas = [float(n) for n in range(1, k + 1)]
    assert sequence_mean_prefactor(areas) == pytest.approx(
        4 / (3 * k), rel=0.05
    )
    assert sequence_var_prefactor(areas) == pytest.approx(
        2 / (9 * k**2), rel=0.05
    )


def test_sequence_two_sector_mean_prefactor():
    a1, a2 = 100.0, 1.0
    pref = sequence_mean_prefactor([a1, a2])
    assert pref == pytest.approx(1 - 2 * a2 / a1, rel=0.05)


def test_sequence_average_bounds():
    rng = np.random.default_rng(0)
    for _ in range(200):
        areas = rng.uniform(0.5, 50.0, size=rng.integers(2, 8))
        avg = sequence_average(areas)
        assert areas.mean() - 1e-12 <= avg <= areas.sum() + 1e-12


@pytest.mark.parametrize("areas", [[], [math.nan], [math.inf], [0.0, 1.0],
                                   [-1.0, 2.0], [[1.0, 2.0]]])
@pytest.mark.parametrize("fn", [lambda a: sequence_renyi(a, 2),
                                sequence_mean_prefactor,
                                sequence_var_prefactor,
                                sequence_average],
                         ids=["renyi", "mean_prefactor", "var_prefactor",
                              "average"])
def test_sequence_functions_reject_bad_areas(fn, areas):
    with pytest.raises(ValueError, match="areas must be"):
        fn(areas)
