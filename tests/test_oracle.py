import cProfile
import math
import pstats
from importlib import resources

import numpy as np
import pytest

from oracles import mc_purity_reference
from rings import ring_dict
from rstn import oracle
from rstn.families import (
    appendix_c,
    once_fine_grained,
    random_scenario,
    tiny_generic,
)
from rstn.ising import IsingEngine, SizeCapError, down_set
from rstn.oracle import (
    AMPLITUDE_CAP,
    SEED_MAX,
    _draw_vertex_state,
    boundary_trace,
    exact_purity,
    exact_term,
    link_swap_trace,
    mc_purity,
    schur_moment_error,
)
from rstn.state import load_scenario, scenario_from_dict

SCENARIOS = resources.files("rstn") / "scenarios"

BLOCK_PARAMS = dict(
    a=0.3, d=0.25, w=0.45, b=0.1 + 0.05j, u=0.12 - 0.03j, v=0.07 + 0.02j
)


def test_swap_trace_lemmas():
    rng = np.random.default_rng(1)
    for _ in range(10):
        tj, tk = int(rng.integers(0, 7)), int(rng.integers(0, 7))
        gj = complex(rng.normal(), rng.normal())
        gk = complex(rng.normal(), rng.normal())
        one = link_swap_trace(tj, tk, gj, gk, True, False)
        no = link_swap_trace(tj, tk, gj, gk, False, False)
        both = link_swap_trace(tj, tk, gj, gk, True, True)
        mag = abs(gj) ** 2 * abs(gk) ** 2
        assert no == pytest.approx(mag, rel=1e-12)
        if tj == tk:
            assert one == pytest.approx(mag / (tj + 1), rel=1e-12)
            assert both == pytest.approx(mag, rel=1e-12)
        else:
            assert one == 0.0
            assert both == 0.0


def test_boundary_trace():
    assert boundary_trace(3, 3, False) == pytest.approx(16.0)
    assert boundary_trace(3, 3, True) == pytest.approx(4.0)
    assert boundary_trace(2, 4, False) == pytest.approx(15.0)
    assert boundary_trace(2, 4, True) == 0.0


def engine_term(engine, sc, m, n, config, variant):
    """The engine-side prediction for one raw term."""
    if not engine.delta_ok(m, n, config, variant):
        return 0.0
    energy = engine.hamiltonian(m, n, config, variant)
    if energy == math.inf:
        return 0.0
    return math.exp(
        engine.log_K(m) + engine.log_K(n) - energy
    )


@pytest.mark.parametrize(
    "sc",
    [tiny_generic(), appendix_c(2, **BLOCK_PARAMS)],
    ids=["tiny", "benchmark"],
)
def test_exact_term_matches_engine_termwise(sc):
    engine = IsingEngine(sc)
    nv = sc.graph.n_vertices
    for m in range(len(sc.sectors)):
        for n in range(len(sc.sectors)):
            for config in range(1 << nv):
                for variant in (0, 1):
                    raw = exact_term(sc, m, n, config, variant)
                    predicted = engine_term(engine, sc, m, n, config, variant)
                    assert raw == pytest.approx(
                        predicted, rel=1e-10, abs=1e-18
                    ), (m, n, config, variant)


def test_exact_purity_matches_engine():
    for sc in (tiny_generic(), appendix_c(2, **BLOCK_PARAMS)):
        got, _, _ = exact_purity(sc)
        assert got == pytest.approx(IsingEngine(sc).purity(), rel=1e-10)


def test_exact_purity_random_scenarios():
    rng = np.random.default_rng(9)
    for _ in range(5):
        sc = random_scenario(rng, "two", n_sectors=2, max_twice=2)
        got, _, _ = exact_purity(sc)
        assert got == pytest.approx(IsingEngine(sc).purity(), rel=1e-10)


def test_exact_size_cap():
    sc = appendix_c(40, 0.3, 0.25, 0.45)
    with pytest.raises(SizeCapError,
                       match=rf"\d+ amplitudes exceed the cap of {AMPLITUDE_CAP}"):
        exact_purity(sc)


def test_exact_letter_cap_names_count_and_limit():
    ring = scenario_from_dict(ring_dict(14, 1))
    with pytest.raises(SizeCapError, match="28 einsum letters .* the 26"):
        exact_term(ring, 0, 0, 0, 0)


def test_mc_agrees_with_exact():
    sc = tiny_generic()
    exact = IsingEngine(sc).purity()
    res = mc_purity(sc, 2000, seed=5)
    assert res.n_samples == 2000
    assert abs(res.purity - exact) <= 3 * res.stderr


def test_mc_seed_stability_and_reproducibility():
    sc = tiny_generic()
    a = mc_purity(sc, 600, seed=1)
    b = mc_purity(sc, 600, seed=1)
    assert a.purity == b.purity and a.stderr == b.stderr
    c = mc_purity(sc, 600, seed=2)
    assert abs(a.purity - c.purity) <= 5 * math.hypot(a.stderr, c.stderr)


def test_mc_zero_samples_rejected():
    with pytest.raises(ValueError):
        mc_purity(tiny_generic(), 0)


@pytest.mark.parametrize("seed", [-1, SEED_MAX + 1, 2**64])
def test_mc_seed_outside_philox_keys_rejected(seed):
    with pytest.raises(ValueError, match=f"seed {seed} outside"):
        mc_purity(tiny_generic(), 2, seed=seed)


def test_vertex_draws_match_keyed_philox_streams():
    """Re-keying one generator gives each (seed, vertex, sample) the
    stream of a Philox built with that key, whatever was drawn before."""
    keys = [(0, 0, 0, 5), (7, 3, 5, 12), (SEED_MAX, 1, 2**32 - 1, 9),
            (12345, 9, 77, 1), (7, 3, 5, 12)]
    for seed, vertex, sample, dim in keys:
        rng = np.random.Generator(
            np.random.Philox(key=[seed, (vertex << 32) | sample]))
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        got = _draw_vertex_state(seed, vertex, sample, dim)
        assert np.array_equal(got, v / np.linalg.norm(v))


def test_mc_reads_no_os_entropy():
    prof = cProfile.Profile()
    prof.runcall(mc_purity, tiny_generic(), 50)
    called = [name for _, _, name in pstats.Stats(prof).stats]
    assert not [name for name in called if "urandom" in name]


def test_schur_second_moment():
    assert schur_moment_error(4) < 0.1


def test_mc_einsum_index_cap():
    """A 12-vertex ring needs 60 einsum indices, more than the 52
    letters einsum has: refused before the first sample.  The
    10-vertex ring needs 50 and runs."""
    with pytest.raises(SizeCapError, match="60 einsum indices"):
        mc_purity(scenario_from_dict(ring_dict(12, 1)), n_samples=1)
    res = mc_purity(scenario_from_dict(ring_dict(10, 1)), n_samples=1)
    assert res.purity == pytest.approx(1.0)


def assert_matches_reference(got, want):
    """Batched and per-sample estimates agree to 1e-12 relative; the
    contraction order moves only the last bits."""
    assert got.n_samples == want.n_samples
    for field in ("purity", "stderr", "mean_num", "mean_den"):
        g, w = getattr(got, field), getattr(want, field)
        if math.isnan(w):
            assert math.isnan(g), field
        else:
            assert g == pytest.approx(w, rel=1e-12, abs=0.0), field


def block_sizes(monkeypatch, sc, n_samples):
    """Sample-axis length of each network contraction in one run: one
    per block on a single-sector scenario."""
    sizes = []
    contract = oracle._contract

    def spy(paths, subscripts, *operands):
        sizes.append(len(operands[0]))
        return contract(paths, subscripts, *operands)

    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_contract", spy)
        mc_purity(sc, n_samples, seed=3)
    return sizes


@pytest.mark.parametrize("name", ["tiny_generic", "tiny_oracle.json"])
def test_mc_matches_per_sample_reference_at_block_edges(monkeypatch, name):
    sc = (tiny_generic() if name == "tiny_generic"
          else load_scenario(str(SCENARIOS / name)))
    assert len(sc.sectors) == 1
    sizes = block_sizes(monkeypatch, sc, 300)
    block = sizes[0]
    assert 1 < block < 300 and sum(sizes) == 300
    for n in (1, block - 1, block, block + 1, 2 * block + 5):
        got = mc_purity(sc, n, seed=3)
        assert_matches_reference(got, mc_purity_reference(sc, n, seed=3))
    assert math.isnan(mc_purity(sc, 1, seed=3).stderr)


@pytest.mark.parametrize(
    "make, n_samples",
    [(lambda: appendix_c(2, **BLOCK_PARAMS), 7),
     # one reference sample here costs several seconds
     (lambda: once_fine_grained(1), 1)],
    ids=["appendix_c2", "once_fine_grained1"],
)
def test_mc_matches_per_sample_reference(make, n_samples):
    sc = make()
    assert_matches_reference(
        mc_purity(sc, n_samples, seed=5),
        mc_purity_reference(sc, n_samples, seed=5),
    )


@pytest.mark.parametrize("name", ["appendix_c.json", "two_sector_nu.json"])
def test_mc_vertex_space_cap_matches_reference(name):
    sc = load_scenario(str(SCENARIOS / name))
    with pytest.raises(SizeCapError) as got:
        mc_purity(sc, 3)
    with pytest.raises(SizeCapError) as want:
        mc_purity_reference(sc, 3)
    assert str(got.value) == str(want.value)
    assert "exceeds the sampling cap of 512" in str(got.value)
