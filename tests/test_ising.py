import dataclasses
import json
import math
import os
import subprocess
import sys
import time
from collections import Counter
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from oracles import (
    benchmark_partition_sums,
    einsum_partial_trace,
    einsum_sigma,
    fd_swapped_gradient,
    link_terms_reference,
    psd_safe_direction,
    terms_reference,
)
from rings import ring_dict
from rstn.families import appendix_c, random_scenario, tiny_generic, two_sector
from rstn.graph import BoundaryLink, ColoredGraph, Link
from rstn.holography import analyze_holography, q_matrix
from rstn.ising import (
    IsingEngine,
    SizeCapError,
    _subset_traces,
    down_set,
    hamiltonian_bulk_boundary,
    purity_gradient,
)
from rstn.cli import main
from rstn.observables import area_average, area_variance, p_vector
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


def test_down_set():
    assert down_set(0b101, 3) == {0, 2}
    assert down_set(0, 4) == frozenset()


@pytest.mark.parametrize("twice_s", [2, 20])
def test_partition_sums_match_frozen_forms(twice_s):
    sc = appendix_c(twice_s, **BLOCK_PARAMS)
    engine = IsingEngine(sc)
    forms = benchmark_partition_sums(twice_s, **BLOCK_PARAMS)
    for (m, n, variant), expect in forms.items():
        r = engine.partition_pair(m, n)
        got = math.exp((r.z1 if variant else r.z0).log)
        assert got == pytest.approx(expect, rel=1e-12)


def test_pair_symmetry():
    sc = appendix_c(4, **BLOCK_PARAMS)
    engine = IsingEngine(sc)
    a, b = engine.partition_pair(0, 1), engine.partition_pair(1, 0)
    assert a.z0.log == pytest.approx(b.z0.log, rel=1e-12)
    assert a.z1.log == pytest.approx(b.z1.log, rel=1e-12)


def test_sigma_I_diagonal_is_renyi_of_reduction():
    sc = tiny_generic()
    engine = IsingEngine(sc)
    rho = sc.block(0, 0)
    dims = sc.vertex_dims(0)
    # reduce to vertex 0 by tracing the second factor
    arr = rho.reshape(dims[0], dims[1], dims[0], dims[1])
    red = np.trace(arr, axis1=1, axis2=3)
    expect = -math.log(np.trace(red @ red).real)
    assert engine.sigma_I(0, 0, frozenset({0})) == pytest.approx(expect)
    assert engine.sigma_I(0, 0, frozenset()) == 0.0
    full = -math.log(np.trace(rho @ rho).real)
    assert engine.sigma_I(0, 0, frozenset({0, 1})) == pytest.approx(full)


def test_sigma_I_benchmark_special_cases():
    sc = appendix_c(4, **BLOCK_PARAMS)
    engine = IsingEngine(sc)
    a, d, w = BLOCK_PARAMS["a"], BLOCK_PARAMS["d"], BLOCK_PARAMS["w"]
    u, v = BLOCK_PARAMS["u"], BLOCK_PARAMS["v"]
    q = (abs(u) ** 2 + abs(v) ** 2) / (w * (a + d))
    # cross pair: swapping the sector-splitting vertex (or both) hits
    # the cross block; swapping only the agreeing vertex costs nothing
    assert math.exp(
        -engine.sigma_I(0, 1, frozenset({1}))
    ) == pytest.approx(q)
    assert math.exp(
        -engine.sigma_I(0, 1, frozenset({0, 1}))
    ) == pytest.approx(q)
    assert engine.sigma_I(0, 1, frozenset({0})) == pytest.approx(0.0)


def test_delta_constraints_cross_pair():
    sc = appendix_c(4, **BLOCK_PARAMS)
    engine = IsingEngine(sc)
    # sectors differ on b5 (vertex 1, in C for variant "x")
    # variant 0: swapping vertex 1 glues b5 across sectors -> excluded
    assert not engine.delta_ok(0, 1, 0b10, 0)
    # variant 1: b5 is in C, pinning is flipped there; the swapped
    # configuration aligns with it
    assert engine.delta_ok(0, 1, 0b10, 1)
    assert engine.delta_ok(0, 1, 0b00, 0)
    # diagonal pairs never get constrained
    assert engine.delta_ok(0, 0, 0b11, 0)


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
    engine = IsingEngine(sc)
    for config in (0b01, 0b10, 0b11):
        assert not engine.delta_ok(0, 1, config, 0)
        assert not engine.delta_ok(0, 1, config, 1)
    assert engine.delta_ok(0, 1, 0b00, 0)


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
    swapped_cross = 0  # admitted cross-pair terms with a swapped vertex
    for sc in link_table_cases(vertex_product):
        engine = IsingEngine(sc)
        for m in range(len(sc.sectors)):
            for n in range(len(sc.sectors)):
                for config in range(1 << sc.graph.n_vertices):
                    for variant in (0, 1):
                        ok, link = link_terms_reference(sc, m, n, config,
                                                        variant)
                        assert engine.delta_ok(m, n, config, variant) == ok
                        if not ok:
                            continue
                        swapped_cross += m != n and config != 0
                        expect = link + einsum_sigma(sc, m, n, config)
                        assert engine.hamiltonian(m, n, config, variant) == \
                            pytest.approx(expect, rel=1e-12, abs=1e-12)
    assert swapped_cross >= 100


def test_hamiltonian_difference_supported_on_C():
    sc = tiny_generic()
    engine = IsingEngine(sc)
    for config in range(4):
        h0 = engine.hamiltonian(0, 0, config, 0)
        h1 = engine.hamiltonian(0, 0, config, 1)
        assert h1 - h0 == pytest.approx(
            engine.hamiltonian_difference_region(0, config), abs=1e-12
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
    got = _subset_traces(mat, back, row_dims, col_dims, whole=1)
    sq = [3, 1, 2, 3, 2]
    herm = mat[:, :36] @ mat[:, :36].conj().T
    got_herm = _subset_traces(herm, None, sq, sq)
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


def onoff_ring(seed: int = 0) -> Scenario:
    """A 4-vertex spin-1/2 ring whose sectors switch vertices 0-2 on or
    off (both boundary legs spin 1/2 or 0), with a coherent random
    bulk state over all 17 dimensions and C the colour-3 legs of
    vertices 0 and 1."""
    n = 4
    graph = ColoredGraph(
        n, [Link(x, (x + 1) % n, 1 + x % 2) for x in range(n)],
        [BoundaryLink(x, c) for x in range(n) for c in (3, 4)],
    )
    words = ("000", "010", "100", "110", "111")
    sectors = []
    for word in words:
        spins = {f"i{x}": 1 for x in range(n)}
        for x in range(n):
            on = int(x < 3 and word[x] == "1")
            spins[f"b{2 * x}"] = spins[f"b{2 * x + 1}"] = on
        sectors.append(Sector(spins, word))
    offs = np.cumsum([0] + [2 ** w.count("1") for w in words])
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(17, 17)) + 1j * rng.normal(size=(17, 17))
    full = h @ h.conj().T
    full /= np.trace(full).real
    blocks = {(m, q): full[offs[m]:offs[m + 1], offs[q]:offs[q + 1]]
              for m in range(5) for q in range(m, 5)}
    return Scenario(graph=graph, sectors=sectors, amplitudes={},
                    blocks=blocks, region_C=["b0", "b2"])


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
            for config in range(16):
                if engine.delta_ok(m, n, config, 0) \
                        or engine.delta_ok(m, n, config, 1):
                    engine.sigma_I(m, n, config)
                elif math.isnan(engine._sigma_array(m, n)[config]):
                    nonreal.append((m, n, config))
    assert nonreal
    with pytest.raises(ValueError, match="not real"):
        engine.sigma_I(*nonreal[0])


@pytest.mark.parametrize("build", [
    lambda: appendix_c(4, 0.3, 0.25, 0.45, u=0.1, v=0.05),
    lambda: random_scenario(np.random.default_rng(5), "chain", n_sectors=3,
                            vertex_product=True),
    onoff_ring,  # non-real traces only where Delta excludes them
])
def test_analyze_terms_match_per_configuration_calls(build, tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario_to_dict(build())))
    res = CliRunner().invoke(main, ["analyze", str(path), "--terms"])
    assert res.exit_code == 0, res.output
    terms = json.loads(res.output)["terms"]
    assert terms == terms_reference(load_scenario(str(path)))
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


def test_each_pair_evaluated_once_per_engine(monkeypatch):
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
        run()
        assert calls == Counter(
            (m, n) for m in range(len(sc.sectors))
            for n in range(len(sc.sectors))
        )
        assert len(engines) == n_engines
        calls.clear()
        engines.clear()

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
        check(sc, lambda: engine_quotients(sc))
        check(sc, lambda: analyze_holography(sc))

    path = str(resources.files("rstn") / "scenarios" / "appendix_c.json")
    sc = load_scenario(path)
    for flags, n_engines in (([], 1), (["--terms"], 2)):
        def analyze():
            res = CliRunner().invoke(main, ["analyze", path] + flags)
            assert res.exit_code == 0, res.output
        check(sc, analyze, n_engines)

    sc = two_sector(9, 5, 0.4)
    assert not analyze_holography(sc).holographic
    calls.clear()
    engines.clear()
    check(sc, lambda: p_vector(sc))
    check(sc, lambda: area_average(sc))
    check(sc, lambda: area_variance(sc))


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
    # perfbench/spans.py wraps engine internals by name
    root = Path(__file__).resolve().parents[1]
    code = (
        "import spans\n"
        "tracer = spans.Tracer()\n"
        "spans.install(tracer)\n"
        "tracer.enabled = True\n"
        "from rstn.families import tiny_generic\n"
        "from rstn.ising import IsingEngine, purity_gradient\n"
        "sc = tiny_generic()\n"
        "engine = IsingEngine(sc)\n"
        "engine.purity()\n"
        "engine.sigma_I(0, 0, 1)\n"
        "purity_gradient(sc, sc.block(0, 0))\n"
        "assert spans.layer_metrics(tracer, 1)['ising.reduction_bytes'] > 0\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), str(root / "perfbench")]))
    res = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
