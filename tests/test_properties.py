import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import block_diagonal, region_difference_reference, sequential_ground_scan
from rstn.families import random_scenario
from rstn.ising import TIE_TOL, IsingEngine, _GroundScan
from rstn.observables import area_variance

SETTINGS = settings(max_examples=25, deadline=None)

scenario_params = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**32 - 1),
        "template": st.sampled_from(["one", "two", "chain"]),
        "n_sectors": st.integers(1, 3),
        "max_twice": st.integers(1, 8),
        "pinch": st.booleans(),
    }
)


def build(params):
    rng = np.random.default_rng(params["seed"])
    sc = random_scenario(
        rng,
        template=params["template"],
        n_sectors=params["n_sectors"],
        max_twice=params["max_twice"],
    )
    return block_diagonal(sc) if params["pinch"] else sc


@SETTINGS
@given(scenario_params)
def test_purity_within_bounds(params):
    sc = build(params)
    purity = IsingEngine(sc).purity()
    assert 1.0 / sc.dim_H_C() - 1e-9 <= purity <= 1.0 + 1e-9


@SETTINGS
@given(scenario_params)
def test_distribution_symmetric_normalized(params):
    sc = build(params)
    p = IsingEngine(sc).distribution()
    assert abs(p.sum() - 1.0) <= 1e-12
    assert np.allclose(p, p.T, atol=1e-12)
    assert np.all(p >= -1e-15)


@SETTINGS
@given(scenario_params)
def test_energy_difference_supported_on_C(params):
    sc = build(params)
    nv = sc.graph.n_vertices
    link = IsingEngine(sc)._link_energies(np.arange(1 << nv))[0]
    for config in range(1 << nv):
        h0, h1 = link[:, config]
        assert h1 - h0 == pytest.approx(
            region_difference_reference(sc, 0, config), abs=1e-12)


@SETTINGS
@given(scenario_params)
def test_area_variance_nonnegative(params):
    sc = build(params)
    assert area_variance(sc) >= 0.0


@SETTINGS
@given(scenario_params)
def test_run_to_run_determinism(params):
    sc = build(params)
    assert IsingEngine(sc).log_purity() == IsingEngine(sc).log_purity()


# energies from a few levels, with exact ties, ties inside the
# tolerance, just outside it, and values below -1 where the relative
# tolerance widens instead of narrowing the tie band
_level = st.sampled_from([-3.5, -1.0, 0.0, 1e-13, 0.7, 2.0, 2.0 + 3e-12])
_jitter = st.sampled_from([0.0, 0.0, 1e-13, -1e-13, 5e-12, -2e-12])
_energies = st.lists(
    st.tuples(_level, _jitter).map(lambda lj: lj[0] * (1 + lj[1]) + lj[1]),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(_energies, st.lists(st.integers(0, 60), max_size=4))
def test_ground_scan_matches_sequential_loop(energies, cuts):
    # rows of unequal length, +inf (an excluded configuration) after each
    rows = [energies, energies[::2], energies[len(energies) // 3:][::-1], []]
    e = np.full((len(rows), len(energies)), math.inf)
    for r, row in enumerate(rows):
        e[r, :len(row)] = row
    scan = _GroundScan(len(rows))
    configs = np.arange(len(energies)) * 3  # configuration ids in order
    bounds = [0] + sorted(min(c, len(energies)) for c in cuts) + [len(energies)]
    for lo, hi in zip(bounds, bounds[1:]):  # the rows with energies in the chunk
        live = np.flatnonzero((e[:, lo:hi] != math.inf).any(axis=1))
        scan.feed(e[live, lo:hi], configs[lo:hi], live)
    for r, row in enumerate(rows):
        best, second, index, degen = sequential_ground_scan(row, TIE_TOL)
        assert (scan.best[r], scan.second[r], scan.degen[r]) == (best, second, degen)
        assert scan.config[r] == (int(configs[index]) if row else 0)
