import dataclasses
import gc
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
import weakref
from collections import Counter
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from oracles import (
    benchmark_partition_sums,
    bulk_boundary_reference,
    einsum_partial_trace,
    einsum_sigma,
    fd_swapped_gradient,
    gradient_operator_reference,
    gradient_reference,
    graph_scenarios,
    link_terms_reference,
    pair_reference,
    psd_safe_direction,
    region_difference_reference,
    sigma_build_reference,
    subset_traces,
    subset_traces_reference,
    terms_reference,
)
from rings import dense_ring_dict, ring_dict
from rstn.families import appendix_c, random_scenario, tiny_generic, two_sector
from rstn.graph import BoundaryLink, ColoredGraph, Link
from rstn.holography import (
    InfeasibleError,
    analyze_holography,
    closed_form_weights,
    fixed_spin_criteria,
    q_matrix,
    solve_weights,
)
from rstn.ising import (
    CHUNK_BITS,
    TIE_TOL,
    TILE_BITS,
    IsingEngine,
    NumericalError,
    SizeCapError,
    _survives,
    hamiltonian_bulk_boundary,
    purity_gradient,
)
from rstn.cli import main
from rstn.observables import (
    area_average,
    area_average_partition,
    area_variance,
    p_vector,
)
from rstn.oracle import exact_purity
from rstn.state import (
    Scenario,
    Sector,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
)

BLOCK_PARAMS = dict(
    a=0.3, d=0.25, w=0.45, b=0.1 + 0.05j, u=0.12 - 0.03j, v=0.07 + 0.02j
)


@pytest.mark.parametrize("twice_s", [2, 20])
def test_partition_sums_match_frozen_forms(twice_s):
    sc = appendix_c(twice_s, **BLOCK_PARAMS)
    engine = IsingEngine(sc)
    forms = benchmark_partition_sums(twice_s, **BLOCK_PARAMS)
    for (m, n, variant), expect in forms.items():
        r = engine.partition_pair(m, n)
        got = math.exp((r.z1 if variant else r.z0).log)
        assert got == pytest.approx(expect, rel=1e-12)


def symmetry_cases() -> list[Scenario]:
    rng = np.random.default_rng(53)
    cases = [appendix_c(4, **BLOCK_PARAMS), onoff_ring(),
             dataclasses.replace(onoff_ring(1), mode="high_spin")]
    for template in ("chain", "two", "one"):
        for n_sectors in (2, 3):
            for mode in ("exact", "high_spin"):
                for vertex_product in (False, True):
                    cases += [random_scenario(
                        rng, template, n_sectors=n_sectors, max_twice=5,
                        mode=mode, vertex_product=vertex_product)
                        for _ in range(2)]
    return cases


def test_pair_symmetry():
    # the pair table evaluates m <= n only and mirrors the rest
    checked = 0
    for sc in symmetry_cases():
        for m in range(len(sc.sectors)):
            for n in range(m + 1, len(sc.sectors)):
                a = IsingEngine(sc).partition_pair(m, n)
                b = IsingEngine(sc).partition_pair(n, m)
                assert (a.ground_config, a.degeneracy) \
                    == (b.ground_config, b.degeneracy)
                for x, y in zip((a.z0.log, a.z1.log, *a.ground_energy, *a.gap),
                                (b.z0.log, b.z1.log, *b.ground_energy, *b.gap)):
                    assert x == y or abs(x - y) <= 1e-14 * max(1.0, abs(x))
                checked += 1
    assert checked >= 100


def edited_sigma_engines(rng: np.random.Generator) -> list[IsingEngine]:
    """Engines whose cached sigma_I arrays are edited before the pair
    table is built: negative energies (the scan tests every entry),
    energies tied within TIE_TOL, and a pair with no admitted row."""
    engines = []
    for mode in ("exact", "high_spin"):
        for edit in ("negative", "ties", "none admitted"):
            sc = random_scenario(rng, "chain", n_sectors=3, max_twice=4, mode=mode)
            engine = IsingEngine(sc)
            link = engine._link_energies(np.arange(8))
            for m in range(3):
                for n in range(m, 3):
                    sigma = engine._sigma_array(m, n).copy()
                    picked = rng.random(8) < 0.5
                    if edit == "negative":
                        sigma[picked] = -1.0 - 4.0 * rng.random(picked.sum())
                    elif edit == "ties":
                        level = rng.choice([-2.0, 0.0, 1.5])
                        jitter = rng.choice([0.0, 1e-13, -1e-13, 0.5 * TIE_TOL],
                                            size=8)
                        target = level * (1 + jitter) + jitter
                        sigma[picked] = (target - link[m, rng.integers(2)])[picked]
                    elif (m, n) == (0, 1):
                        sigma[:] = math.inf
                    engine._sigma_cache[m, n] = sigma
            engines.append(engine)
    return engines


def test_pair_table_matches_per_pair_reference():
    # the batched table against one reduction per pair, bit for bit
    rng = np.random.default_rng(59)
    engines = [IsingEngine(random_scenario(rng, template, n_sectors=n_sec,
                                           max_twice=5, mode=mode))
               for template in ("one", "two", "chain") for n_sec in range(1, 5)
               for mode in ("exact", "high_spin")]
    ring = scenario_from_dict(ring_dict(16, 3))  # 4 chunks in `terms`
    # 36 pairs: the tile narrows the table's chunks to 2^12, `terms` keeps 2^14
    tiled = scenario_from_dict(ring_dict(14, 8))
    assert [c.size for c in IsingEngine(tiled)._chunks(36)] == [1 << 12] * 4
    assert [c.size for c in IsingEngine(tiled)._chunks()] == [1 << 14]
    engines += [IsingEngine(dataclasses.replace(sc, mode=mode))
                for sc in (ring, tiled) for mode in ("exact", "high_spin")]
    engines += edited_sigma_engines(rng)
    seen = Counter()
    for engine in engines:
        for m in range(engine.n_sec):
            for n in range(m, engine.n_sec):
                got = engine.partition_pair(m, n)
                assert repr(got) == repr(pair_reference(engine, m, n))
                seen["no row"] += got.ground_energy[0] == math.inf
                seen["negative"] += min(got.ground_energy) < 0.0
                seen["tie"] += max(got.degeneracy) > 1
    assert min(seen.values()) >= 2, seen


def test_sigma_I_diagonal_is_renyi_of_reduction():
    sc = tiny_generic()
    engine = IsingEngine(sc)
    rho = sc.block(0, 0)
    dims = sc.vertex_dims(0)
    # reduce to vertex 0 by tracing the second factor
    arr = rho.reshape(dims[0], dims[1], dims[0], dims[1])
    red = np.trace(arr, axis1=1, axis2=3)
    expect = -math.log(np.trace(red @ red).real)
    assert engine.sigma_I(0, 0, 0b01) == pytest.approx(expect)
    assert engine.sigma_I(0, 0, 0b00) == 0.0
    full = -math.log(np.trace(rho @ rho).real)
    assert engine.sigma_I(0, 0, 0b11) == pytest.approx(full)


def test_sigma_I_benchmark_special_cases():
    sc = appendix_c(4, **BLOCK_PARAMS)
    engine = IsingEngine(sc)
    a, d, w = BLOCK_PARAMS["a"], BLOCK_PARAMS["d"], BLOCK_PARAMS["w"]
    u, v = BLOCK_PARAMS["u"], BLOCK_PARAMS["v"]
    q = (abs(u) ** 2 + abs(v) ** 2) / (w * (a + d))
    # cross pair: swapping the sector-splitting vertex (or both) hits
    # the cross block; swapping only the agreeing vertex costs nothing
    assert math.exp(-engine.sigma_I(0, 1, 0b10)) == pytest.approx(q)
    assert math.exp(-engine.sigma_I(0, 1, 0b11)) == pytest.approx(q)
    assert engine.sigma_I(0, 1, 0b01) == pytest.approx(0.0)


def delta_table(engine: IsingEngine, m: int, n: int) -> np.ndarray:
    """Delta of the pair for every configuration, (variant, config): the
    pins that `IsingEngine._terms` tests."""
    configs = np.arange(1 << engine.n_vert)
    return np.array([_survives(configs, pins) for pins in engine._delta_masks(m, n)])


def test_delta_constraints_cross_pair():
    sc = appendix_c(4, **BLOCK_PARAMS)
    engine = IsingEngine(sc)
    cross, diagonal = delta_table(engine, 0, 1), delta_table(engine, 0, 0)
    # sectors differ on b5 (vertex 1, in C for variant "x")
    # variant 0: swapping vertex 1 glues b5 across sectors -> excluded
    assert not cross[0, 0b10]
    # variant 1: b5 is in C, pinning is flipped there; the swapped
    # configuration aligns with it
    assert cross[1, 0b10]
    assert cross[0, 0b00]
    # diagonal pairs never get constrained
    assert diagonal[0, 0b11]


def test_delta_internal_link_any_down_endpoint():
    # two sectors differing only on the internal link: any swapped
    # endpoint must exclude the pair
    g = ColoredGraph(
        n_vertices=2,
        internal=[Link(0, 1, 1)],
        boundary=[
            BoundaryLink(0, 2), BoundaryLink(0, 3), BoundaryLink(0, 4),
            BoundaryLink(1, 2), BoundaryLink(1, 3), BoundaryLink(1, 4),
        ],
    )
    base = {"b0": 2, "b1": 2, "b2": 2, "b3": 2, "b4": 2, "b5": 2}
    sec_a = Sector({**base, "i0": 2}, "a")
    sec_b = Sector({**base, "i0": 4}, "b")
    da = 3 * 3  # per-vertex dims: (2,2,2,2) -> 3 channels
    db = 2 * 2  # (4,2,2,2) -> 2 channels
    sc = Scenario(
        graph=g,
        sectors=[sec_a, sec_b],
        amplitudes={},
        blocks={
            (0, 0): 0.5 / da * np.eye(da, dtype=complex),
            (1, 1): 0.5 / db * np.eye(db, dtype=complex),
        },
        region_C=["b3"],
    )
    delta = delta_table(IsingEngine(sc), 0, 1)
    for config in (0b01, 0b10, 0b11):
        assert not delta[0, config]
        assert not delta[1, config]
    assert delta[0, 0b00]


def link_table_cases(vertex_product: bool):
    """Random draws, whose sectors differ on most links, and scenarios
    whose sectors differ on a few links, C among them."""
    rng = np.random.default_rng(41)
    for template in ("one", "two", "chain"):
        for n_sectors in (1, 2, 3):
            yield random_scenario(rng, template, n_sectors=n_sectors,
                                  vertex_product=vertex_product)
    for sc in (onoff_ring(), appendix_c(2, **BLOCK_PARAMS),
               appendix_c(2, **BLOCK_PARAMS, region="s_link")):
        yield dataclasses.replace(sc, vertex_product=vertex_product)


@pytest.mark.parametrize("vertex_product", [False, True])
def test_delta_and_energies_match_link_by_link_reference(vertex_product):
    # the keep masks and energies of `terms`, and the Delta pins
    swapped_cross = 0  # admitted cross-pair terms with a swapped vertex
    for sc in link_table_cases(vertex_product):
        engine = IsingEngine(sc)
        for m in range(len(sc.sectors)):
            for n in range(len(sc.sectors)):
                (_, energy, keep), = engine.terms(m, n)
                delta = delta_table(engine, m, n)
                for config in range(1 << sc.graph.n_vertices):
                    for variant in (0, 1):
                        ok, link = link_terms_reference(sc, m, n, config,
                                                        variant)
                        assert delta[variant, config] == ok
                        if not ok:
                            assert not keep[variant, config]
                            continue
                        swapped_cross += m != n and config != 0
                        expect = link + einsum_sigma(sc, m, n, config)
                        assert keep[variant, config] == (expect != math.inf)
                        assert energy[variant, config] == \
                            pytest.approx(expect, rel=1e-12, abs=1e-12)
    assert swapped_cross >= 100


def test_hamiltonian_difference_supported_on_C():
    sc = tiny_generic()
    (_, energy, _), = IsingEngine(sc).terms(0, 0)
    for config in range(4):
        h0, h1 = energy[:, config]
        assert h1 - h0 == pytest.approx(
            region_difference_reference(sc, 0, config), abs=1e-12
        )


def test_zero_weight_sector_drops_out():
    sc = tiny_generic()
    bad_spins = dict(sc.sectors[0].spins)
    bad_spins["b0"] = 8
    two = Scenario(
        graph=sc.graph,
        sectors=[sc.sectors[0], Sector(bad_spins, "dead")],
        amplitudes=sc.amplitudes,
        blocks={(0, 0): sc.block(0, 0)},
        region_C=sc.region_C,
    )
    assert IsingEngine(two).purity() == pytest.approx(
        IsingEngine(sc).purity(), rel=1e-12
    )
    p = IsingEngine(two).distribution()
    assert p[0, 0] == pytest.approx(1.0)
    assert p[0, 1] == p[1, 0] == p[1, 1] == 0.0


def test_distribution_normalized_and_symmetric():
    sc = appendix_c(4, **BLOCK_PARAMS)
    p = IsingEngine(sc).distribution()
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(p, p.T, atol=1e-12)
    assert np.all(p >= 0)


def test_high_spin_matches_exact_at_large_spin():
    exact = IsingEngine(two_sector(199, 99, 0.5, mode="exact")).purity()
    approx = IsingEngine(two_sector(199, 99, 0.5, mode="high_spin")).purity()
    assert approx == pytest.approx(exact, rel=1e-2)


def test_high_spin_error_bound_honest():
    sc_e = appendix_c(100, w=0.5, mode="exact")
    sc_h = appendix_c(100, w=0.5, mode="high_spin")
    pe = IsingEngine(sc_e).purity()
    eng_h = IsingEngine(sc_h)
    ph = eng_h.purity()
    assert abs(ph - pe) / pe <= 2 * eng_h.error_bound() + 1e-12


def test_size_cap():
    IsingEngine(scenario_from_dict(ring_dict(24, 1)))  # 2^24: at the cap
    with pytest.raises(SizeCapError, match="2\\^26 configurations"):
        IsingEngine(scenario_from_dict(ring_dict(26, 1)))


def test_size_cap_counts_sector_pairs():
    """One 22-vertex ring: 2^22 configurations pass with one sector,
    4^2 pairs x 2^22 = 2^26 are refused by the constructor at once."""
    IsingEngine(scenario_from_dict(ring_dict(22, 1)))
    sc = scenario_from_dict(ring_dict(22, 4))
    start = time.perf_counter()
    with pytest.raises(SizeCapError, match="67108864.*16777216") as info:
        IsingEngine(sc)
    assert time.perf_counter() - start < 1.0
    assert info.traceback[-1].name == "__init__"


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    sc = tiny_generic()
    rho = sc.block(0, 0)
    x = psd_safe_direction(rho, rng)
    analytic = purity_gradient(sc, x)
    numeric = fd_swapped_gradient(sc, x)
    assert analytic == pytest.approx(numeric, rel=1e-7)


def test_gradient_vanishes_along_state():
    sc = tiny_generic()
    assert purity_gradient(sc, sc.block(0, 0)) == pytest.approx(0.0, abs=1e-14)


def test_gradient_requires_hermitian():
    sc = tiny_generic()
    bad = np.triu(np.ones((4, 4), dtype=complex), 1)
    with pytest.raises(ValueError, match="Hermitian"):
        purity_gradient(sc, bad)


@pytest.mark.parametrize("skew, accepted", [(1e-13, True), (1e-3, False),
                                           (math.nan, False)])
def test_gradient_hermitian_tolerance(skew, accepted):
    sc = tiny_generic()
    x = psd_safe_direction(sc.block(0, 0), np.random.default_rng(12))
    bent = x.copy()
    bent[0, 1] += skew
    if accepted:
        assert purity_gradient(sc, bent) == pytest.approx(
            purity_gradient(sc, x), rel=1e-9)
    else:
        with pytest.raises(ValueError, match="Hermitian"):
            purity_gradient(sc, bent)


def test_gradient_hermitian_tolerance_is_relative_for_large_entries():
    # |X - X^H| <= 1e-12 + 1e-5 |X^H|: 1e-6 off on entries of 1e3 passes,
    # an infinite entry does not
    sc = tiny_generic()
    x = 1e3 * psd_safe_direction(sc.block(0, 0), np.random.default_rng(13))
    bent = x.copy()
    bent[0, 1] += 1e-6 * abs(x[0, 1]) + 1e-10
    purity_gradient(sc, bent)
    bent[2, 2] = math.inf
    with pytest.raises(ValueError, match="Hermitian"):
        purity_gradient(sc, bent)


def gradient_scenarios() -> list[Scenario]:
    """Single-sector scenarios for the gradient operator: tiny_generic,
    dense product-mixture spin-1/2 rings of 4 to 8 vertices and
    random_scenario draws over every template."""
    rng = np.random.default_rng(47)
    return ([tiny_generic()]
            + [scenario_from_dict(dense_ring_dict(n, rng)) for n in range(4, 9)]
            + [random_scenario(rng, t, n_sectors=1, max_twice=4)
               for t in ("one", "two", "chain") for _ in range(4)])


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (h + h.conj().T) / 2.0


def test_gradient_matches_three_transform_reference():
    rng = np.random.default_rng(48)
    cases = gradient_scenarios()
    dims = [sc.vertex_dims(0) for sc in cases]
    assert any(1 in d and max(d) > 1 for d in dims)  # a vertex the transform skips
    assert any(len(set(d) - {1}) > 1 for d in dims)  # unequal vertex dims
    for sc in cases:
        rho = sc.block(0, 0)
        dim = rho.shape[0]
        for x in (random_hermitian(dim, rng), np.eye(dim), rho):
            ref, scale = gradient_reference(sc, x)
            assert abs(purity_gradient(sc, x) - ref) <= 1e-12 * scale
        assert purity_gradient(sc, rho) == 0.0


def test_gradient_operator_matches_closed_form():
    for sc in gradient_scenarios():
        rho = sc.block(0, 0)
        op, c0 = IsingEngine.of(sc).gradient_operator()
        ref = gradient_operator_reference(sc)
        assert not op.flags.writeable
        # op is G^H, so that np.vdot(op, X) = Tr(G X)
        assert np.abs(op - ref.conj().T).max() <= 1e-12 * np.abs(ref).max()
        assert c0 == pytest.approx(np.trace(ref @ rho).real, rel=1e-12)
        assert IsingEngine.of(sc).gradient_operator()[0] is op


def test_gradient_operator_needs_one_sector():
    with pytest.raises(ValueError, match="single-sector"):
        IsingEngine(appendix_c(2)).gradient_operator()


def test_gradient_first_and_later_calls_are_bit_identical():
    rng = np.random.default_rng(49)
    data = dense_ring_dict(6, rng)
    x = random_hermitian(64, rng)
    firsts = [purity_gradient(scenario_from_dict(data), x) for _ in range(2)]
    sc = scenario_from_dict(data)
    later = [purity_gradient(sc, x) for _ in range(3)]
    assert len({v.hex() for v in firsts + later}) == 1


def test_gradient_memory_peaks():
    """tracemalloc peaks on a dense 9-vertex ring (a 512 x 512 block):
    the first call, which builds the operator, stays within three times
    the block, and a later call (the Hermitian check, in row blocks, and
    one dot) within half of it."""
    rng = np.random.default_rng(50)
    sc = scenario_from_dict(dense_ring_dict(9, rng))
    x = random_hermitian(512, rng)
    IsingEngine.of(sc)  # the engine's own tables are not the gradient's
    peaks = []
    for _ in range(2):
        tracemalloc.start()
        try:
            purity_gradient(sc, x)
            peaks.append(tracemalloc.get_traced_memory()[1] / x.nbytes)
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 3.0
    assert peaks[1] <= 0.5, peaks


def test_bulk_boundary_hamiltonian():
    sc = tiny_generic()
    g = sc.graph
    spins = sc.sectors[0].spins
    # all up with all-plus field: nothing pays
    assert hamiltonian_bulk_boundary(g, spins, 0, 1) == 0.0
    # vertex 0 down: its three boundary legs + the cut link pay, and
    # with bulk field +1 the vertex dimension pays too
    expect = 4 * math.log(2) + math.log(2)
    assert hamiltonian_bulk_boundary(g, spins, 0b01, 1) == pytest.approx(
        expect
    )
    # bulk field -1 at vertex 0 instead rewards the flip
    got = hamiltonian_bulk_boundary(g, spins, 0b01, {0: -1, 1: 1})
    assert got == pytest.approx(4 * math.log(2))


@pytest.mark.parametrize("sc", graph_scenarios())
def test_bulk_boundary_hamiltonian_matches_link_loops(sc):
    g = sc.graph
    fields = [1, -1, {x: -1 for x in range(0, g.n_vertices, 2)}]
    for spins in (sec.spins for sec in sc.sectors):
        for config in range(1 << g.n_vertices):
            for field in fields:
                want = bulk_boundary_reference(g, spins, config, field)
                got = hamiltonian_bulk_boundary(g, spins, config, field)
                assert got == pytest.approx(want, rel=0, abs=1e-12)


def test_random_scenarios_have_unit_distribution_sum():
    rng = np.random.default_rng(5)
    for _ in range(5):
        sc = random_scenario(rng, "two", n_sectors=2, max_twice=3)
        p = IsingEngine(sc).distribution()
        assert p.sum() == pytest.approx(1.0, abs=1e-10)


# -- pair table and subset traces -------------------------------------------


def test_subset_traces_match_einsum_with_unequal_dims():
    rng = np.random.default_rng(29)
    row_dims, col_dims = [2, 3, 1, 2, 3], [4, 3, 1, 2, 3]
    mat = rng.normal(size=(36, 72)) + 1j * rng.normal(size=(36, 72))
    back = rng.normal(size=(72, 36)) + 1j * rng.normal(size=(72, 36))
    # vertex 0 has unequal dims, so it is kept whole
    got = subset_traces(mat, back, row_dims, col_dims, whole=1)
    sq = [3, 1, 2, 3, 2]
    herm = mat[:, :36] @ mat[:, :36].conj().T
    got_herm = subset_traces(herm, None, sq, sq)
    for mask in range(32):
        if mask & 1:
            a = einsum_partial_trace(mat, row_dims, col_dims, mask)
            b = einsum_partial_trace(back, col_dims, row_dims, mask)
            expect = np.trace(a @ b)
            assert abs(got[mask] - expect) <= 1e-12 * abs(expect)
        else:
            assert got[mask] == 0.0
        h = einsum_partial_trace(herm, sq, sq, mask)
        assert got_herm[mask] == pytest.approx(np.trace(h @ h).real, rel=1e-12)


def test_subset_traces_broadcast_over_unit_vertices():
    rng = np.random.default_rng(30)
    row_dims, col_dims = [2, 1, 1, 3, 1], [4, 1, 1, 3, 1]
    mat = rng.normal(size=(6, 12)) + 1j * rng.normal(size=(6, 12))
    back = rng.normal(size=(12, 6)) + 1j * rng.normal(size=(12, 6))
    whole = 0b00101  # vertex 2 is a unit vertex kept whole
    # one axis per vertex, highest first; length 1 for unit vertices 1, 4
    assert subset_traces_reference(mat, back, row_dims, col_dims,
                                   whole=whole).shape == (1, 2, 2, 1, 2)
    got = subset_traces(mat, back, row_dims, col_dims, whole=whole)
    for mask in range(32):
        if mask & whole == whole:
            a = einsum_partial_trace(mat, row_dims, col_dims, mask)
            b = einsum_partial_trace(back, col_dims, row_dims, mask)
            expect = np.trace(a @ b)
            assert abs(got[mask] - expect) <= 1e-12 * abs(expect)
        else:
            assert got[mask] == 0.0


def _einsum_traces(a, b, row_dims, col_dims, whole=0):
    """Tr(A_S B_S) for every mask by `einsum_partial_trace` (b=None: B = A),
    0 for the sets missing a vertex of `whole`."""
    b = a if b is None else b
    return np.array([
        np.trace(einsum_partial_trace(a, row_dims, col_dims, mask)
                 @ einsum_partial_trace(b, col_dims, row_dims, mask))
        if mask & whole == whole else 0.0
        for mask in range(1 << len(row_dims))])


def _random_matrix(rng, rows, cols):
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def test_subset_traces_of_read_only_blocks():
    rng = np.random.default_rng(31)
    dims = [2, 3, 2]
    x = _random_matrix(rng, 12, 12)
    herm, back = x @ x.conj().T, _random_matrix(rng, 12, 12)
    for arr in (herm, back):
        arr.flags.writeable = False
    for b in (None, back):
        np.testing.assert_allclose(subset_traces(herm, b, dims, dims),
                                   _einsum_traces(herm, b, dims, dims),
                                   rtol=1e-12)


def test_subset_traces_of_a_transposed_view():
    rng = np.random.default_rng(32)
    row_dims, col_dims = [2, 3], [4, 3]
    mat = _random_matrix(rng, 6, 12)
    back = _random_matrix(rng, 6, 12).T  # (12, 6), not C-contiguous
    assert not back.flags.c_contiguous
    np.testing.assert_allclose(
        subset_traces(mat, back, row_dims, col_dims, whole=1),
        _einsum_traces(mat, back, row_dims, col_dims, whole=1), rtol=1e-12)


def test_subset_traces_of_float_input():
    rng = np.random.default_rng(33)
    dims = [3, 2]
    x = rng.normal(size=(6, 6))
    sym, back = x @ x.T, rng.normal(size=(6, 6))
    got = subset_traces(sym, None, dims, dims)
    assert got.dtype == np.float64
    np.testing.assert_allclose(got, _einsum_traces(sym, None, dims, dims).real,
                               rtol=1e-12)
    np.testing.assert_allclose(subset_traces(sym, back, dims, dims),
                               _einsum_traces(sym, back, dims, dims),
                               rtol=1e-12)


def test_subset_traces_without_a_live_vertex():
    dims = [1, 1, 1]
    a, b = np.array([[0.6 - 0.2j]]), np.array([[0.3 + 0.1j]])
    for mat, back in ((a, b), (np.array([[0.4 + 0j]]), None)):
        assert subset_traces_reference(mat, back, dims, dims).shape == (1, 1, 1)
        got = subset_traces(mat, back, dims, dims)
        assert got.shape == (8,)
        np.testing.assert_allclose(got, _einsum_traces(mat, back, dims, dims),
                                   rtol=1e-15)


def test_sigma_arrays_match_einsum_reference():
    rng = np.random.default_rng(47)
    scenarios = [
        random_scenario(rng, ("two", "chain")[k % 2], n_sectors=3, max_twice=6)
        for k in range(6)
    ]
    # sector 2 incoherent with 0 and 1: its cross blocks are absent
    base = scenarios[-1]
    scenarios.append(dataclasses.replace(base, blocks={
        k: v for k, v in base.blocks.items() if 2 not in k or k == (2, 2)
    }))
    # sectors that agree on some vertices and split on others
    scenarios += [appendix_c(4, **BLOCK_PARAMS), onoff_ring()]
    n_inf = 0
    for sc in scenarios:
        engine = IsingEngine(sc)
        for m in range(len(sc.sectors)):
            for n in range(len(sc.sectors)):
                got = engine._sigma_array(m, n)
                expect = np.array([
                    einsum_sigma(sc, m, n, mask)
                    for mask in range(1 << sc.graph.n_vertices)
                ])
                assert np.array_equal(np.isinf(got), np.isinf(expect))
                assert np.array_equal(np.isnan(got), np.isnan(expect))
                finite = np.isfinite(expect)
                assert np.all(np.abs(got[finite] - expect[finite])
                              <= 1e-12 * np.maximum(1.0, np.abs(expect[finite])))
                n_inf += int(np.isinf(expect).sum())
    assert n_inf > 0


@pytest.mark.parametrize("n_vertices, n_sectors, pair",
                         [(16, 1, (0, 0)), (14, 3, (0, 0)), (14, 3, (0, 1)),
                          (14, 3, None)])
def test_sigma_build_memory_peak(n_vertices, n_sectors, pair):
    # the complex trace table (twice the results), the results and one
    # boolean mask: 3.125 times the results of one tile; pair=None fills
    # every unordered pair at once, as the pair table does (one tile)
    engine = IsingEngine(scenario_from_dict(ring_dict(n_vertices, n_sectors)))
    pairs = [pair] if pair else [(m, n) for m in range(n_sectors)
                                 for n in range(m, n_sectors)]
    assert len(pairs) <= max(1, (1 << TILE_BITS) >> n_vertices)
    tracemalloc.start()
    try:
        engine._sigma_fill(pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * sum(engine._sigma_array(*p).nbytes for p in pairs)


def onoff_ring(seed: int = 0, n: int = 4,
               words=("000", "010", "100", "110", "111"),
               region_C=("b0", "b2")) -> Scenario:
    """A spin-1/2 ring whose sectors switch the vertices of each word on
    or off (both boundary legs spin 1/2 or 0), with a coherent random
    bulk state over all dimensions.  By default 4 vertices, 0-2
    switched, 17 dimensions and C the colour-3 legs of vertices 0 and
    1."""
    graph = ColoredGraph(
        n, [Link(x, (x + 1) % n, 1 + x % 2) for x in range(n)],
        [BoundaryLink(x, c) for x in range(n) for c in (3, 4)],
    )
    sectors = []
    for word in words:
        spins = {f"i{x}": 1 for x in range(n)}
        for x in range(n):
            on = int(x < len(word) and word[x] == "1")
            spins[f"b{2 * x}"] = spins[f"b{2 * x + 1}"] = on
        sectors.append(Sector(spins, word))
    offs = np.cumsum([0] + [2 ** w.count("1") for w in words])
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(offs[-1],) * 2) + 1j * rng.normal(size=(offs[-1],) * 2)
    full = h @ h.conj().T
    full /= np.trace(full).real
    blocks = {(m, q): full[offs[m]:offs[m + 1], offs[q]:offs[q + 1]]
              for m in range(len(words)) for q in range(m, len(words))}
    return Scenario(graph=graph, sectors=sectors, amplitudes={},
                    blocks=blocks, region_C=region_C)


def perfbench_style_ring() -> Scenario:
    """6 vertices, 6 sectors switching vertices 0-4 with no hybrid among
    them (as in the many-sectors benchmark), C both legs of 0-4."""
    words = ("00000", "00011", "00101", "01001", "10001", "11110")
    return onoff_ring(3, 6, words, [f"b{k}" for k in range(10)])


@pytest.mark.parametrize("build", [onoff_ring, perfbench_style_ring])
def test_sigma_arrays_match_einsum_on_admitted_sets(build):
    # unit (dimension-1) vertices skip the transform and are broadcast
    sc = build()
    engine = IsingEngine(sc)
    checked = 0
    for m in range(len(sc.sectors)):
        for n in range(len(sc.sectors)):
            got = engine._sigma_array(m, n)
            admitted = delta_table(engine, m, n).any(axis=0)
            for mask in range(1 << sc.graph.n_vertices):
                if not admitted[mask]:
                    continue
                expect = einsum_sigma(sc, m, n, mask)
                if math.isinf(expect):
                    assert got[mask] == expect
                else:
                    assert abs(got[mask] - expect) <= 1e-12 * max(1.0, abs(expect))
                checked += 1
    assert checked > 100


def stacked_fill_cases() -> tuple[list[Scenario], list[Scenario]]:
    """Single-sector scenarios (the dense-bulk rings, `ring_dict(., 1)`,
    `random_scenario` draws of one sector) and the rest."""
    rng = np.random.default_rng(67)
    single = [scenario_from_dict(dense_ring_dict(k, rng)) for k in (4, 6)]
    single += [scenario_from_dict(ring_dict(k, 1)) for k in (6, 10)]
    single += [random_scenario(rng, template, n_sectors=1, max_twice=6, mode=mode)
               for template in ("one", "two", "chain")
               for mode in ("exact", "high_spin") for _ in range(3)]
    multi = [appendix_c(4, **BLOCK_PARAMS), onoff_ring(), perfbench_style_ring(),
             scenario_from_dict(ring_dict(8, 3))]
    multi += [random_scenario(rng, template, n_sectors=k, max_twice=5,
                              vertex_product=vertex_product)
              for template in ("one", "two", "chain") for k in (2, 3, 4)
              for vertex_product in (False, True)]
    base = multi[-1]  # sector 2 incoherent with the others: absent blocks
    multi.append(dataclasses.replace(base, blocks={
        k: v for k, v in base.blocks.items() if 2 not in k or k == (2, 2)}))
    # every block given both ways round
    multi += [dataclasses.replace(sc, blocks={
        k: sc.block(*k) for key in sc.blocks for k in (key, key[::-1])})
        for sc in multi[:3]]
    return single, multi


def test_stacked_fill_matches_per_pair_reference():
    # bit for bit with one sector; otherwise the same inf/NaN pattern and
    # finite values within 1e-15 (sigma is a log: relative error of the
    # trace), or 1e-15 relative where |sigma| > 1
    single, multi = stacked_fill_cases()
    for sc in single + multi:
        engine = IsingEngine(sc)
        engine.all_pairs()  # the upper pairs, in the table's one fill
        for m in range(engine.n_sec):
            for n in range(engine.n_sec):
                got = engine._sigma_array(m, n)
                want = sigma_build_reference(IsingEngine(sc), m, n)
                if sc in single:
                    assert got.tobytes() == want.tobytes()
                    continue
                assert np.array_equal(np.isinf(got), np.isinf(want))
                assert np.array_equal(np.isnan(got), np.isnan(want))
                finite = np.isfinite(want)
                err = np.abs(got[finite] - want[finite])
                assert np.all(err <= 1e-15 * np.maximum(1.0, np.abs(want[finite])))
    assert len(single) >= 20 and len(multi) >= 20


def test_sigma_arrays_do_not_depend_on_the_order_of_calls():
    # asking for one pair first fills its whole side of the diagonal, so
    # the values are those of the pair table's fill
    for sc in stacked_fill_cases()[1][:6]:
        first, later = IsingEngine(sc), IsingEngine(sc)
        first.all_pairs()
        n_sec = len(sc.sectors)
        for m, n in [(n_sec - 1, n_sec - 1), (n_sec - 1, 0)]:
            later._sigma_array(m, n)
        later.all_pairs()
        for m in range(n_sec):
            for n in range(n_sec):
                assert (later._sigma_array(m, n).tobytes()
                        == first._sigma_array(m, n).tobytes())


def test_nonreal_traces_count_only_where_delta_admits():
    # some hybrid traces of swapped sets that Delta excludes are
    # complex; they must not stop the sums
    sc = onoff_ring()
    engine = IsingEngine(sc)
    assert engine.purity() == pytest.approx(exact_purity(sc)[0], rel=1e-10)
    analyze_holography(dataclasses.replace(sc, mode="high_spin"))
    nonreal = []
    for m in range(5):
        for n in range(5):
            admitted = delta_table(engine, m, n).any(axis=0)
            for config in range(16):
                if admitted[config]:
                    engine.sigma_I(m, n, config)
                elif math.isnan(engine._sigma_array(m, n)[config]):
                    nonreal.append((m, n, config))
    assert nonreal
    with pytest.raises(NumericalError, match="not real"):
        engine.sigma_I(*nonreal[0])


def nonreal_engine(sc: Scenario, bad: dict) -> IsingEngine:
    """An engine whose cached sigma_I of each pair (m, n) in `bad` is
    NaN (not real) at the listed configurations."""
    engine = IsingEngine(sc)
    for (m, n), configs in bad.items():
        sigma = engine._sigma_array(m, n).copy()
        sigma[configs] = math.nan
        engine._sigma_cache[m, n] = sigma
    return engine


def test_stacked_fill_skips_cached_pairs():
    # arrays planted in `_sigma_cache` (as `nonreal_engine` plants NaN)
    # stay; one stacked fill builds the other pairs of the table
    sc = onoff_ring()
    planted, fresh = IsingEngine(sc), IsingEngine(sc)
    nan = np.full(1 << sc.graph.n_vertices, math.nan)
    planted._sigma_cache.update({(0, 1): nan, (2, 2): nan})
    calls = []
    fill = planted._sigma_fill
    planted._sigma_fill = lambda pairs: (calls.append(pairs), fill(pairs))
    with pytest.raises(NumericalError, match=re.escape("pair (0,1) and swapped set")):
        planted.all_pairs()
    upper = [(m, n) for m in range(5) for n in range(m, 5)]
    assert calls == [[p for p in upper if p not in ((0, 1), (2, 2))]]
    assert planted._sigma_cache[0, 1] is nan and planted._sigma_cache[2, 2] is nan
    fresh._sigma_fill(calls[0])
    for p in calls[0]:
        assert planted._sigma_cache[p].tobytes() == fresh._sigma_cache[p].tobytes()


def test_nonreal_trace_that_delta_admits_is_refused():
    # every path names the first admitted set of the first bad pair, m-major
    ring = scenario_from_dict(ring_dict(16, 3))  # 4 chunks in `terms`
    late = 3 * (1 << 14) + 5  # in the last chunk
    cases = [
        # Delta admits swapped set 0b1 of (0, 1) in variant 0 only
        (onoff_ring(), {(0, 1): [1]}, (0, 1), 1),
        # behind the clean pairs (0, 0), (0, 1), (0, 2)
        (ring, {(1, 1): [late]}, (1, 1), late),
        # two bad pairs: the table (also read for (2, 2)) names the
        # first, `terms(2, 2)` its own
        (ring, {(1, 1): [late, late + 1], (2, 2): [7]}, (1, 1), late),
    ]
    assert not delta_table(IsingEngine(onoff_ring()), 0, 1)[1, 1]
    for sc, bad, (m, n), config in cases:
        assert delta_table(IsingEngine(sc), m, n)[0, config]
        msg = f"pair ({m},{n}) and swapped set {config:#b} is not real"
        for path in (lambda e: e.all_pairs(), lambda e: e.partition_pair(m, n),
                     lambda e: e.partition_pair(*max(bad)),
                     lambda e: next(e.terms(m, n)), lambda e: e.purity()):
            with pytest.raises(NumericalError, match=re.escape(msg)):
                path(nonreal_engine(sc, bad))
    msg = "pair (2,2) and swapped set 0b111 is not real"
    with pytest.raises(NumericalError, match=re.escape(msg)):
        next(nonreal_engine(ring, cases[2][1]).terms(2, 2))


@pytest.mark.parametrize("build", [
    lambda: appendix_c(4, 0.3, 0.25, 0.45, u=0.1, v=0.05),
    lambda: random_scenario(np.random.default_rng(5), "chain", n_sectors=3,
                            vertex_product=True),
    onoff_ring,  # non-real traces only where Delta excludes them
])
def test_analyze_terms_match_per_configuration_calls(build, tmp_path):
    # rows, in order, against Delta and energies link by link and the
    # einsum sigma_I
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario_to_dict(build())))
    res = CliRunner().invoke(main, ["analyze", str(path), "--terms"])
    assert res.exit_code == 0, res.output
    terms = json.loads(res.output)["terms"]
    expect = terms_reference(load_scenario(str(path)))
    assert len(terms) == len(expect)
    for got, want in zip(terms, expect):
        energy = pytest.approx(want["energy"], rel=1e-12, abs=1e-12)
        assert got == {**want, "energy": energy}
    assert {t["variant"] for t in terms} == {0, 1}


def test_engine_reductions_match_einsum_partial_trace():
    rng = np.random.default_rng(23)
    checked = 0
    for trial in range(12):
        sc = random_scenario(
            rng, ("two", "chain")[trial % 2], n_sectors=3, max_twice=6
        )
        engine = IsingEngine(sc)
        nv = sc.graph.n_vertices
        full = (1 << nv) - 1
        dims = [sc.vertex_dims(s) for s in range(3)]
        for row in range(3):
            for col in range(3):
                for mask in rng.integers(0, 1 << nv, size=6).tolist():
                    if full & ~mask & ~engine._agree[row][col]:
                        continue  # traced factors must match
                    expect = einsum_partial_trace(
                        sc.block(row, col), dims[row], dims[col], mask
                    )
                    got = engine._reduced(row, col, mask)
                    assert np.abs(got - expect).max() <= 1e-12
                    checked += 1
    assert checked > 100


@pytest.fixture
def built(monkeypatch):
    """Counts engines built and partition_pair calls per sector pair."""
    calls = Counter()
    engines = []
    evaluate = IsingEngine.partition_pair
    build = IsingEngine.__init__

    def counting(self, m, n):
        calls[m, n] += 1
        return evaluate(self, m, n)

    def counting_init(self, *args, **kwargs):
        engines.append(self)
        build(self, *args, **kwargs)

    monkeypatch.setattr(IsingEngine, "partition_pair", counting)
    monkeypatch.setattr(IsingEngine, "__init__", counting_init)

    def check(sc, run, n_engines=1):
        """`run()` builds `n_engines` engines (0 or 1), which evaluate
        every unordered pair once, as (m, n) with m <= n."""
        run()
        pairs = [(m, n) for m in range(len(sc.sectors))
                 for n in range(m, len(sc.sectors))]
        assert calls == Counter(pairs * n_engines)
        assert len(engines) == n_engines
        calls.clear()
        engines.clear()

    return check


def test_each_pair_evaluated_once_per_engine(built):
    def engine_quotients(sc):
        engine = IsingEngine(sc)
        engine.purity()
        engine.log_purity()
        engine.distribution()
        engine.error_bound()
        q_matrix(engine)
        engine.all_pairs().clear()
        assert len(engine.all_pairs()) == len(sc.sectors) ** 2

    rng = np.random.default_rng(31)
    for sc in (appendix_c(4, **BLOCK_PARAMS),
               random_scenario(rng, "chain", n_sectors=3, max_twice=4)):
        built(sc, lambda: engine_quotients(sc))
        built(sc, lambda: engine_quotients(sc))  # the constructor never shares
        built(sc, lambda: analyze_holography(sc))
        built(sc, lambda: analyze_holography(sc), n_engines=0)

    path = str(resources.files("rstn") / "scenarios" / "appendix_c.json")
    sc = load_scenario(path)
    for flags in ([], ["--terms"]):  # --terms reads the same engine
        def analyze():
            res = CliRunner().invoke(main, ["analyze", path] + flags)
            assert res.exit_code == 0, res.output
        built(sc, analyze)

    sc = two_sector(9, 5, 0.4)
    built(sc, lambda: analyze_holography(sc))
    assert not analyze_holography(sc).holographic
    built(sc, lambda: p_vector(sc), n_engines=0)
    built(sc, lambda: area_average(sc), n_engines=0)
    built(sc, lambda: area_variance(sc), n_engines=0)


def test_one_engine_per_scenario(built):
    multi = two_sector(9, 5, 0.4)

    def consumers():
        analyze_holography(multi)
        solve_weights(multi)
        closed_form_weights(multi)
        fixed_spin_criteria(multi, 1)
        p_vector(multi)
        area_average(multi)
        area_variance(multi)
        area_average_partition(multi)

    built(multi, consumers)
    built(multi, consumers, n_engines=0)

    single = tiny_generic()

    def sequence():
        analyze_holography(single)
        with pytest.raises(InfeasibleError):  # one sector, ratio != 1
            solve_weights(single)
        area_variance(single)
        fixed_spin_criteria(single)
        purity_gradient(single, single.block(0, 0))

    built(single, sequence)
    built(single, sequence, n_engines=0)


def test_link_energies_once_per_sector_and_chunk(monkeypatch):
    """The pair table takes the link energies of all sectors from one
    call per chunk of configurations, and keeps none of them."""
    calls = []
    link_energies = IsingEngine._link_energies

    def counting(self, configs):
        result = link_energies(self, configs)
        calls.append((configs.copy(), result.shape, weakref.ref(result)))
        return result

    monkeypatch.setattr(IsingEngine, "_link_energies", counting)
    engine = IsingEngine(scenario_from_dict(ring_dict(16, 3)))
    engine.all_pairs()
    chunks = [configs for configs, _, _ in calls]
    assert len(chunks) > 1  # the 2^16 configurations take several chunks
    assert np.array_equal(np.concatenate(chunks), np.arange(1 << 16))
    assert all(shape == (3, 2, len(configs)) and len(configs) <= 1 << CHUNK_BITS
               for configs, shape, _ in calls)
    gc.collect()
    assert all(ref() is None for _, _, ref in calls)  # none held


def test_shared_engine_belongs_to_one_scenario():
    sc = appendix_c(4, **BLOCK_PARAMS)
    engine = IsingEngine.of(sc)
    assert IsingEngine.of(sc) is engine and engine.sc is sc
    assert IsingEngine(sc) is not engine
    high = dataclasses.replace(sc, mode="high_spin")
    assert IsingEngine.of(high) is not engine
    assert IsingEngine.of(high).sc is high


def test_shared_engine_dies_with_its_scenario():
    sc = appendix_c(4, **BLOCK_PARAMS)
    IsingEngine.of(sc).purity()
    alive = weakref.ref(sc)
    del sc
    gc.collect()
    assert alive() is None


def test_sigma_arrays_are_read_only():
    engine = IsingEngine.of(tiny_generic())
    sigma = engine._sigma_array(0, 0)
    with pytest.raises(ValueError, match="read-only"):
        sigma[0] = 1.0


def test_pair_results_are_frozen():
    result = IsingEngine(tiny_generic()).all_pairs()[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        result.z0 = result.z1


@pytest.mark.parametrize("mode", ["exact", "high_spin"])
def test_fresh_engines_give_bit_identical_pairs(mode):
    rng = np.random.default_rng(37)
    scenarios = [appendix_c(4, mode=mode, **BLOCK_PARAMS)] + [
        random_scenario(rng, t, n_sectors=3, max_twice=5, mode=mode)
        for t in ("two", "chain")
    ]
    for sc in scenarios:
        first = [repr(r) for r in IsingEngine(sc).all_pairs()]
        assert first == [repr(r) for r in IsingEngine(sc).all_pairs()]


def test_gradient_matches_finite_differences_random_scenario():
    rng = np.random.default_rng(41)
    sc = random_scenario(rng, "chain", n_sectors=1, max_twice=4)
    x = psd_safe_direction(sc.block(0, 0), rng)
    analytic = purity_gradient(sc, x)
    numeric = fd_swapped_gradient(sc, x)
    assert analytic == pytest.approx(numeric, rel=1e-6)


def test_absent_blocks_equal_explicit_zero_blocks():
    # sector 2 incoherent with 0 and 1: its cross blocks are absent in
    # one scenario and written out as zero matrices in the other
    rng = np.random.default_rng(43)
    base = random_scenario(rng, "chain", n_sectors=3, max_twice=4)
    kept = {k: v for k, v in base.blocks.items() if 2 not in k or k == (2, 2)}
    zeros = {
        (m, 2): np.zeros((base.block_dim(m), base.block_dim(2)), dtype=complex)
        for m in (0, 1)
    }

    def with_blocks(blocks):
        return Scenario(
            graph=base.graph, sectors=base.sectors,
            amplitudes=base.amplitudes, blocks=blocks,
            region_C=base.region_C,
        )

    absent = IsingEngine(with_blocks(kept)).all_pairs()
    explicit = IsingEngine(with_blocks({**kept, **zeros})).all_pairs()
    for a, b in zip(absent, explicit):
        assert (a.ground_config, a.degeneracy) == (b.ground_config, b.degeneracy)
        for x, y in ((a.z0, b.z0), (a.z1, b.z1)):
            assert x.log == pytest.approx(y.log, rel=1e-14)


def test_perfbench_tracer_installs():
    # perfbench/spans.py wraps engine internals by name (`--trace 1`),
    # `_reduced` and `_reduce_square` among them, which nothing in rstn
    # calls
    root = Path(__file__).resolve().parents[1]
    code = (
        "import spans\n"
        "tracer = spans.Tracer()\n"
        "spans.install(tracer)\n"
        "tracer.enabled = True\n"
        "from rstn import ising\n"
        "from rstn.families import tiny_generic\n"
        "from rstn.ising import IsingEngine, purity_gradient\n"
        "sc = tiny_generic()\n"
        "engine = IsingEngine(sc)\n"
        "engine.purity()\n"
        "engine.sigma_I(0, 0, 1)\n"
        "purity_gradient(sc, sc.block(0, 0))\n"
        # the stacked sigma_I fill reads traces off its transforms and
        # reduces no block through `_reduced`
        "assert spans.layer_metrics(tracer, 1)['ising.reduction_bytes'] == 0\n"
        "red = engine._reduced(0, 0, 0b10)\n"
        "metrics = spans.layer_metrics(tracer, 1)\n"
        "assert metrics['ising.reduction_bytes'] == sc.block(0, 0).nbytes\n"
        "tracer.reset()\n"
        "square = ising._reduce_square(sc.block(0, 0), sc.vertex_dims(0), {1})\n"
        "metrics = spans.layer_metrics(tracer, 1)\n"
        "assert metrics['ising.reduction_bytes'] == sc.block(0, 0).nbytes\n"
        "assert (square == red).all()\n"
        "from rstn.holography import analyze_holography, fixed_spin_criteria\n"
        "tracer.reset()\n"
        "sc = tiny_generic()\n"
        "analyze_holography(sc)\n"
        "fixed_spin_criteria(sc)\n"
        "metrics = spans.layer_metrics(tracer, 1)\n"
        "assert metrics['ising.engines_built'] == 1, metrics\n"
        "assert metrics['ising.partition_pair_calls'] == 1, metrics\n"
        "assert tracer.calls('holography.fixed_spin') == 1\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), str(root / "perfbench")]))
    res = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
