import math

import numpy as np
import pytest

from oracles import fixed_spin_reference
from rstn.families import (
    appendix_c,
    once_fine_grained,
    random_scenario,
    tiny_generic,
    two_sector,
)
from rstn.holography import (
    InfeasibleError,
    analyze_holography,
    closed_form_weights,
    fixed_spin_criteria,
    q_matrix,
    reweighted_scenario,
    solve_weights,
)
from rstn.ising import IsingEngine


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


def test_infeasible_raises():
    # single sector: beta is a scalar; a strictly positive beta has no
    # root on the simplex
    sc = tiny_generic()
    q = q_matrix(IsingEngine(sc))
    assert q[0, 0] > 1.0
    with pytest.raises(InfeasibleError):
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
