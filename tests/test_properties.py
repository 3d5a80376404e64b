import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import sequential_ground_scan
from rstn.families import random_scenario
from rstn.ising import TIE_TOL, IsingEngine, _GroundScan, down_set
from rstn.observables import area_variance

SETTINGS = settings(max_examples=25, deadline=None)

scenario_params = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**32 - 1),
        "template": st.sampled_from(["one", "two", "chain"]),
        "n_sectors": st.integers(1, 3),
        "max_twice": st.integers(1, 8),
        "vertex_product": st.booleans(),
    }
)


def build(params):
    rng = np.random.default_rng(params["seed"])
    return random_scenario(
        rng,
        template=params["template"],
        n_sectors=params["n_sectors"],
        max_twice=params["max_twice"],
        vertex_product=params["vertex_product"],
    )


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
    engine = IsingEngine(sc)
    nv = sc.graph.n_vertices
    logd = {
        lid: math.log(sc.spin(0, lid) + 1) for lid in sc.region_C
    }
    for config in range(1 << nv):
        h0 = engine.hamiltonian(0, 0, config, 0)
        h1 = engine.hamiltonian(0, 0, config, 1)
        expect = 0.0
        for k, b in enumerate(sc.graph.boundary):
            lid = f"b{k}"
            if lid in logd:
                sigma = -1 if config >> b.vertex & 1 else 1
                expect += sigma * logd[lid]
        assert h1 - h0 == pytest.approx(expect, abs=1e-12)


@SETTINGS
@given(scenario_params)
def test_area_variance_nonnegative(params):
    sc = build(params)
    assert area_variance(sc, holographic=False) >= 0.0


@SETTINGS
@given(scenario_params)
def test_thread_count_invariance(params):
    sc = build(params)
    saved = os.environ.get("RSTN_THREADS")
    try:
        os.environ["RSTN_THREADS"] = "1"
        single = IsingEngine(sc).log_purity()
        os.environ["RSTN_THREADS"] = "8"
        multi = IsingEngine(sc).log_purity()
    finally:
        if saved is None:
            os.environ.pop("RSTN_THREADS", None)
        else:
            os.environ["RSTN_THREADS"] = saved
    assert single == multi  # bit-identical


@SETTINGS
@given(scenario_params)
def test_down_set_roundtrip(params):
    nv = 6
    config = params["seed"] % (1 << nv)
    down = down_set(config, nv)
    assert sum(1 << x for x in down) == config


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
    scan = _GroundScan()
    configs = np.arange(len(energies)) * 3  # configuration ids in order
    bounds = [0] + sorted(min(c, len(energies)) for c in cuts) + [len(energies)]
    e = np.array(energies, dtype=float)
    for lo, hi in zip(bounds, bounds[1:]):
        scan.feed(e[lo:hi], configs[lo:hi])
    best, second, index, degen = sequential_ground_scan(energies, TIE_TOL)
    assert (scan.best, scan.second, scan.degen) == (best, second, degen)
    assert scan.config == (int(configs[index]) if energies else 0)
