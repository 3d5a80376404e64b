import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from oracles import (closed_form_weights, cut_products, fixed_spin_reference,
                     necessary_reference, reweighted_scenario)
from rings import ring_dict
from rstn.families import (
    appendix_c,
    once_fine_grained,
    random_scenario,
    tiny_generic,
    two_sector,
)
from rstn import holography
from rstn.holography import (
    WEIGHT_RESIDUAL_TOL,
    InfeasibleError,
    analyze_holography,
    fixed_spin_criteria,
    q_matrix,
    solve_weights,
)
from rstn.ising import IsingEngine, SizeCapError
from rstn.state import Sector, scenario_from_dict


def test_analyze_basic_fields():
    sc = tiny_generic()
    rep = analyze_holography(sc)
    assert rep.dim_H_C == sc.dim_H_C()
    assert rep.ratio == pytest.approx(rep.purity * rep.dim_H_C)
    assert rep.q_matrix.shape == (1, 1)
    assert rep.tolerance == 1e-6


def test_q_matrix_matches_pair_sums():
    sc = appendix_c(4, 0.3, 0.25, 0.45, u=0.1, v=0.05)
    engine = IsingEngine(sc)
    q = q_matrix(engine)
    dim = sc.dim_H_C()
    for r in engine.all_pairs():
        assert q[r.m, r.n] == pytest.approx(
            math.exp(r.z1.log - r.z0.log) * dim
        )


def test_two_sector_null_vector_weights():
    sc = two_sector(399, 199, 0.5)
    sol = solve_weights(sc)
    nu = 200 / 400
    assert sol.c[0] == pytest.approx(1 / (1 + nu**-5), abs=1e-3)
    assert sol.residual < 1e-9
    assert sol.ratio == pytest.approx(1.0, abs=1e-9)


def test_closed_form_weights_agree_with_solver_p():
    sc = two_sector(399, 199, 0.5)
    sol = solve_weights(sc)
    closed = closed_form_weights(sc)
    # closed form pins the bulk weights directly
    assert np.allclose(sol.c, closed, atol=1e-9)


def test_reweighting_reaches_the_floor():
    sc = two_sector(399, 199, 0.5)
    sol = solve_weights(sc)
    re = reweighted_scenario(sc, sol.c)
    rep = analyze_holography(re)
    assert rep.ratio == pytest.approx(1.0, abs=1e-10)
    assert rep.holographic


def test_weight_suppression_with_geometry():
    # the larger-geometry sector receives the smaller bulk weight
    sol = solve_weights(two_sector(399, 99, 0.5))
    assert sol.c[0] < sol.c[1]


def test_equal_sectors_split_evenly():
    sc = two_sector(201, 199, 0.5)
    sol = solve_weights(sc)
    assert sol.c[0] == pytest.approx(0.5, abs=0.02)


def test_reweighted_scenario_validates_weight_count():
    sc = two_sector(5, 3, 0.5, mode="exact")
    with pytest.raises(ValueError, match="per sector"):
        reweighted_scenario(sc, np.array([1.0]))


def _solved_and_reweighted(sc):
    """solve_weights on `sc`, checked, and the scenario at its weights."""
    sol = solve_weights(sc)
    assert sol.residual <= WEIGHT_RESIDUAL_TOL
    assert sol.p.sum() == pytest.approx(1.0) and np.all(sol.p >= 0.0)
    re = reweighted_scenario(sc, sol.c)
    re.validate()
    assert [re.c_norm(m) for m in range(len(sol.c))] == pytest.approx(sol.c)
    return sol, re


def test_simplex_search_root_between_two_vertices(monkeypatch):
    # beta = diag(-1/2, 1): no null vector; the minimiser is e_0, the
    # maximiser e_1, and the root lies on the segment between them
    monkeypatch.setattr(holography, "q_matrix",
                        lambda engine: np.array([[0.5, 1.0], [1.0, 2.0]]))
    sol, _ = _solved_and_reweighted(two_sector(5, 3, 0.5, mode="exact"))
    assert sol.method == "simplex_search"
    # -(1 - t)^2 / 2 + t^2 = 0 on the segment from e_0 to e_1
    assert sol.p[1] / sol.p[0] == pytest.approx(math.sqrt(0.5), rel=1e-9)


def test_simplex_search_weights(monkeypatch):
    # beta has no null vector and a positive diagonal; the root lies inside
    monkeypatch.setattr(holography, "q_matrix",
                        lambda engine: np.array([[1.5, 0.2], [0.2, 1.5]]))
    sol, _ = _solved_and_reweighted(two_sector(5, 3, 0.5, mode="exact"))
    assert sol.method == "simplex_search"


def test_simplex_search_weights_on_a_flat_q():
    # C on a spin-1/2 leg both sectors share: Q = 1, beta = 0, whose
    # eigenvectors are not single-signed and whose diagonal is zero
    sc = appendix_c(1, region="s_link", mode="high_spin")
    assert np.array_equal(q_matrix(IsingEngine(sc)), np.ones((2, 2)))
    sol, _ = _solved_and_reweighted(sc)
    assert sol.method == "simplex_search"
    assert np.array_equal(sol.p, [0.5, 0.5])  # every face ties; the full one wins


def _simplex_grid(n: int, steps: int) -> np.ndarray:
    """Every point of the probability simplex in R^n with coordinates in
    multiples of 1/steps, one per row."""
    head = np.indices((steps + 1,) * (n - 1)).reshape(n - 1, -1).T
    head = head[head.sum(axis=1) <= steps]
    return np.column_stack([head, steps - head.sum(axis=1)]) / steps


# one scenario per sector count, for the weights' conversion only
_BY_SECTORS = {2: two_sector(5, 3, 0.5, mode="exact"),
               3: random_scenario(np.random.default_rng(0), "one", n_sectors=3)}


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 3).flatmap(lambda n: arrays(
    float, (n, n), elements=st.floats(-1.0, 1.0))))
def test_weights_exist_exactly_when_the_grid_changes_sign(b):
    b = (b + b.T) / 2.0
    n, steps = len(b), 200
    grid = _simplex_grid(n, steps)
    values = np.einsum("ki,ij,kj->k", grid, b, grid)
    # a simplex point lies within 1-norm 2(n - 1)/steps of a grid point,
    # and the form changes by at most 2 max|b| per unit of 1-norm
    resolution = 4.0 * (n - 1) / steps
    assume(not 0.0 < values.min() <= resolution)
    assume(not -resolution <= values.max() < 0.0)
    infeasible = values.min() > 0.0 or values.max() < 0.0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(holography, "q_matrix", lambda engine: b + 1.0)
        if infeasible:
            with pytest.raises(InfeasibleError, match="ranges over"):
                solve_weights(_BY_SECTORS[n])
            return
        sol = solve_weights(_BY_SECTORS[n])
    assert np.all(sol.p >= 0.0) and sol.p.sum() == pytest.approx(1.0, abs=1e-12)
    assert abs(sol.p @ b @ sol.p) <= WEIGHT_RESIDUAL_TOL
    assert sol.residual <= WEIGHT_RESIDUAL_TOL


def test_sector_count_cap(monkeypatch):
    # beta = 1 (all ones): its null vectors are orthogonal to (1, ..., 1),
    # never single-signed, so the solve reaches the faces
    n = holography.MAX_WEIGHT_SECTORS + 1
    monkeypatch.setattr(holography, "q_matrix",
                        lambda engine: np.full((n, n), 2.0))
    monkeypatch.setattr(holography, "_simplex_argmin", None)  # never called
    with pytest.raises(SizeCapError, match=f"{2**n - 1} faces .* {n} sectors, "
                       f"over the cap of {n - 1} sectors"):
        solve_weights(two_sector(5, 3, 0.5, mode="exact"))


def test_fixed_spin_regions_are_cached_read_only():
    # one report per engine and sector, whose row tuples every call shares
    # in new lists: a caller's edit reaches no later report, and the cached
    # rows are tuples all the way down
    sc, other = once_fine_grained(1), appendix_c(2, 0.3, 0.25, 0.45)
    first = fixed_spin_criteria(sc)
    fixed_spin_criteria(other)
    again = fixed_spin_criteria(sc)
    assert again == first and again.failing[0][0] is first.failing[0][0]
    assert again.failing is not first.failing
    first.failing.clear()
    first.necessary_failing.append((9,))
    assert fixed_spin_criteria(sc) == again
    cached = IsingEngine.of(sc)._flip_reports[0]
    assert all(type(row) is tuple for rows in cached for row in (rows, *rows))


@pytest.mark.parametrize("n", range(1, 13))
def test_flip_regions_go_by_size_in_combinations_order(n):
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    got = [tuple(np.flatnonzero(bits[i]).tolist()) for i in holography._by_size(bits)]
    assert got == [r for k in range(n + 1) for r in itertools.combinations(range(n), k)]


def test_reweighting_fills_a_zero_weight_sector():
    sc = appendix_c(4, a=0.5, d=0.5, w=0.0)  # sector 1 carries no weight
    re = reweighted_scenario(sc, np.array([0.7, 0.3]))
    re.validate()
    assert np.allclose(re.block(0, 0), 0.7 * sc.block(0, 0))
    assert np.array_equal(re.block(1, 1), [[0.3]])
    assert (0, 1) not in re.blocks  # the cross block of a weightless sector


def test_reweighting_rescales_cross_blocks():
    sc = appendix_c(4, a=0.3, d=0.25, w=0.45, u=0.1, v=0.05j)
    c = np.array([0.4, 0.6])
    re = reweighted_scenario(sc, c)
    re.validate()
    scale = math.sqrt(c[0] / 0.55 * c[1] / 0.45)
    assert np.allclose(re.block(0, 1), scale * sc.block(0, 1))
    assert np.allclose(re.block(1, 0), scale * sc.block(1, 0))
    assert re.c_norm(0) == pytest.approx(0.4) and re.c_norm(1) == pytest.approx(0.6)


def test_infeasible_raises():
    # single sector: beta is a scalar; a strictly positive beta has no
    # root on the simplex, and the message states its one value twice
    sc = tiny_generic()
    q = q_matrix(IsingEngine(sc))
    assert q[0, 0] > 1.0
    b = f"{q[0, 0] - 1.0:.3e}"
    with pytest.raises(InfeasibleError, match=rf"ranges over \[{b}, {b}\]"):
        solve_weights(sc)


def test_fixed_spin_once_fine_grained_fails_at_full_region():
    rep = fixed_spin_criteria(once_fine_grained())
    assert not rep.passed
    failing_regions = [f[0] for f in rep.failing]
    assert (0, 1, 2, 3, 4) in failing_regions
    # the full flip trades 2 log 2 of boundary area against the
    # 5 log 2 bulk entropy
    lhs, rhs = next(
        (f[1], f[2]) for f in rep.failing if f[0] == (0, 1, 2, 3, 4)
    )
    assert lhs == pytest.approx(2 * math.log(2))
    assert rhs == pytest.approx(5 * math.log(2))
    assert (0, 1, 2, 3, 4) in rep.necessary_failing


@pytest.mark.parametrize("sector", [0, 1])
def test_fixed_spin_benchmark_sectors_pass(sector):
    sc = appendix_c(20, 0.3, 0.25, 0.45)
    assert fixed_spin_criteria(sc, sector).passed


def test_fixed_spin_small_spin_degenerates():
    # at the smallest admissible spin the benchmark saturates some
    # inequalities instead of passing strictly
    sc = appendix_c(2, 0.3, 0.25, 0.45)
    rep = fixed_spin_criteria(sc, 0)
    assert not rep.failing or rep.degenerate or rep.passed


def _fixed_spin_cases():
    yield once_fine_grained(1)
    yield appendix_c(2, 0.3, 0.25, 0.45)
    yield appendix_c(20, 0.3, 0.25, 0.45)
    yield tiny_generic()
    rng = np.random.default_rng(8)
    for template in ("one", "two", "chain"):
        for n_sectors in (1, 2):
            yield random_scenario(rng, template, n_sectors, max_twice=4)


@pytest.mark.parametrize("k", range(10))
def test_fixed_spin_matches_per_region_reference(k):
    sc = list(_fixed_spin_cases())[k]
    for sector in range(len(sc.sectors)):
        got = fixed_spin_criteria(sc, sector)
        ref = fixed_spin_reference(sc, sector)
        assert got.passed == ref.passed
        assert got.necessary_failing == ref.necessary_failing
        for rows, ref_rows in ((got.failing, ref.failing),
                               (got.degenerate, ref.degenerate)):
            assert [r[0] for r in rows] == [r[0] for r in ref_rows]
            for (_, lhs, rhs), (_, ref_lhs, ref_rhs) in zip(rows, ref_rows):
                assert lhs == ref_lhs
                assert rhs == pytest.approx(ref_rhs, rel=1e-12, abs=1e-12)


def test_flip_sides_are_kept_per_engine_and_sector(monkeypatch):
    # a second call per sector reads neither the link energies nor sigma_I;
    # a new scenario's engine builds its own report, equal to the bit
    sc = appendix_c(2, 0.3, 0.25, 0.45)
    first = [fixed_spin_criteria(sc, s) for s in (0, 1)]
    calls = []
    for name in ("_link_exponents", "_sigma_array"):
        real = getattr(IsingEngine, name)
        monkeypatch.setattr(IsingEngine, name, lambda self, *args, name=name, real=real:
                            calls.append(name) or real(self, *args))
    assert [fixed_spin_criteria(sc, s) for s in (0, 1)] == first and calls == []
    assert [fixed_spin_criteria(dataclasses.replace(sc), s) for s in (0, 1)] == first
    assert calls.count("_link_exponents") == 2 and "_sigma_array" in calls


def test_fixed_spin_names_a_dimension_zero_vertex():
    # twice-spin 8 on b0 leaves no intertwiner at vertex 0 (dims (0, 2)):
    # the error names the sector and the vertex before any engine is built
    base = tiny_generic()
    spins = {**base.sectors[0].spins, "b0": 8}
    sc = dataclasses.replace(base, sectors=[base.sectors[0], Sector(spins, name="empty")])
    assert sc.vertex_dims(1) == (0, 2)
    with pytest.raises(ValueError, match="sector 1 has intertwiner dimension 0 at vertex 0"):
        fixed_spin_criteria(sc, 1)
    assert "_engine" not in sc.__dict__
    assert fixed_spin_criteria(sc, 0) == fixed_spin_criteria(base, 0)


def test_fixed_spin_memory_is_bounded():
    # 2^16 regions go chunk by chunk, and no table of them outlives the
    # call: once the engine's report goes, nothing the call made is held
    sc = scenario_from_dict(ring_dict(16, 1))
    engine = IsingEngine.of(sc)
    engine._sigma_array(0, 0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fixed_spin_criteria(sc, 0)
        peak = tracemalloc.get_traced_memory()[1] - base
        engine._flip_reports.clear()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20 and held < 2**14


def test_every_set_ties_on_a_spin_zero_ring():
    # every link has dimension 1: each of the 1,023 sets has lhs exponents of
    # zero against prod dim_x = 1 and S2 = 0, so it is degenerate and fails
    # the necessary test, exactly, as the region-by-region references say
    data = ring_dict(10, 1)
    data["sectors"][0]["spins"] = dict.fromkeys(data["sectors"][0]["spins"], 0)
    sc = scenario_from_dict(data)
    rep = fixed_spin_criteria(sc, 0)
    regions = [r for k in range(1, 11) for r in itertools.combinations(range(10), k)]
    assert len(regions) == 1023 and not rep.passed and not rep.failing
    assert [r[0] for r in rep.degenerate] == regions
    assert all(lhs == 0.0 == rhs for _, lhs, rhs in rep.degenerate)
    assert rep.necessary_failing == regions == necessary_reference(sc, 0)
    assert rep == fixed_spin_reference(sc, 0)


def test_necessary_condition_is_exact_at_a_tie():
    # draw 25 of this loop, sector 1, region (0,): both sides are 18 in
    # integers, so the region fails the necessary condition; the float
    # sums of their logs round the other way
    rng = np.random.default_rng(4)
    for i in range(26):
        sc = random_scenario(rng, ("one", "two", "chain")[i % 3], 1 + i % 2, max_twice=8)
    away, on_c = cut_products(sc, 1, 0b1)
    assert away == sc.vertex_dims(1)[0] * on_c == 18
    rep = fixed_spin_criteria(sc, 1)
    assert (0,) in rep.necessary_failing
    assert rep.necessary_failing == necessary_reference(sc, 1)


@pytest.mark.parametrize("sector", [-1, 2])
def test_fixed_spin_sector_out_of_range(sector):
    with pytest.raises(ValueError, match=f"sector {sector} .* 2 sectors"):
        fixed_spin_criteria(appendix_c(2, 0.3, 0.25, 0.45), sector)


def test_purity_floor_on_random_scenarios():
    rng = np.random.default_rng(3)
    for _ in range(10):
        sc = random_scenario(rng, "two", n_sectors=1, max_twice=3)
        rep = analyze_holography(sc)
        assert 1.0 / rep.dim_H_C - 1e-9 <= rep.purity <= 1.0 + 1e-9
