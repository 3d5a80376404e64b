import math

import numpy as np
import pytest

from oracles import boundary_factor_reference, graph_scenarios
from rstn.families import appendix_c, tiny_generic, two_sector
from rstn.holography import reweighted_scenario, solve_weights
from rstn.ising import IsingEngine
from rstn.observables import (
    IDENTITY,
    DiagonalObservable,
    area_average,
    area_average_partition,
    area_observable,
    area_variance,
    boundary_factor,
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
    assert link_area(2, sqrt_convention=True) == pytest.approx(math.sqrt(2))


def test_sector_area_sums_region():
    sc = tiny_generic()  # C = two spin-1/2 links
    assert sector_area(sc, 0) == 1.0


def test_identity_boundary_factor_is_variant0_weight():
    sc = tiny_generic()
    engine = IsingEngine(sc)
    for config in range(4):
        fac = boundary_factor(sc, IDENTITY, IDENTITY, 0, 0, config)
        pay = engine.hamiltonian(0, 0, config, 0) - engine.sigma_I(
            0, 0, frozenset(x for x in range(2) if config >> x & 1)
        )
        # no internal link cut contributes on configs 0b00/0b11 only;
        # compare boundary part directly
        internal_pay = (
            math.log(2) if (config in (0b01, 0b10)) else 0.0
        )
        assert fac == pytest.approx(-(pay - internal_pay), abs=1e-12)


@pytest.mark.parametrize("sc", graph_scenarios())
def test_boundary_factor_matches_half_edge_loop(sc):
    for m in range(len(sc.sectors)):
        obs = area_observable(sc, m)
        for config in range(1 << sc.graph.n_vertices):
            for x_obs in (IDENTITY, obs):
                want = boundary_factor_reference(sc, x_obs, IDENTITY, m, m, config)
                got = boundary_factor(sc, x_obs, IDENTITY, m, m, config)
                assert got == pytest.approx(want, rel=0, abs=1e-12)


def test_constant_observable_factors_out():
    sc = tiny_generic()
    obs = area_observable(sc, 0)
    for config in range(4):
        with_obs = boundary_factor(sc, obs, IDENTITY, 0, 0, config)
        plain = boundary_factor(sc, IDENTITY, IDENTITY, 0, 0, config)
        assert with_obs - plain == pytest.approx(
            math.log(sector_area(sc, 0))
        )


def test_negative_eigenvalue_rejected():
    sc = tiny_generic()
    bad = DiagonalObservable({("b3", 1): -2.0})
    with pytest.raises(ValueError, match="negative"):
        boundary_factor(sc, bad, IDENTITY, 0, 0, 0)


def test_single_sector_average_is_sector_area():
    sc = tiny_generic()
    assert area_average(sc, holographic=False) == sector_area(sc, 0)
    assert area_variance(sc, holographic=False) == 0.0


def test_holographic_p_normalized():
    sc = two_sector(9, 5, 0.5, mode="exact")
    p = holographic_p(sc)
    assert p.sum() == pytest.approx(1.0)
    # heavier sector carries the larger C dimension
    assert p[0] > p[1]


def test_p_vector_explicit_flag_matches_helpers():
    sc = two_sector(9, 5, 0.4, mode="exact")
    assert np.allclose(p_vector(sc, holographic=True), holographic_p(sc))
    p = p_vector(sc, holographic=False)
    assert p.sum() == pytest.approx(1.0)


def test_partition_path_matches_closed_form_when_holographic():
    sc = two_sector(399, 199, 0.5)
    sol = solve_weights(sc)
    re = reweighted_scenario(sc, sol.c)
    full = area_average_partition(re)
    closed = area_average(re, holographic=True)
    assert full == pytest.approx(closed, abs=1e-10 * closed)


def test_variance_nonnegative_mixed_state():
    sc = appendix_c(4, 0.3, 0.25, 0.45, u=0.1, v=0.05)
    assert area_variance(sc, holographic=False) >= 0.0


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
