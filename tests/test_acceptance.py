"""End-to-end acceptance checks, one test per criterion.

Each test prints one `criterion N: PASS|FAIL` line in the terminal
summary (see conftest).  Criterion 7's two-sector variance prefactor
is the exact closed form A1 A2 (A1 - A2)^2 / (A1 + A2)^4.
"""

import math
import time

import numpy as np
import pytest
from scipy import optimize

from oracles import (
    benchmark_partition_sums,
    fd_swapped_gradient,
    psd_safe_direction,
    region_difference_reference,
    two_sector_var_prefactor,
)
from rstn.families import (
    appendix_c,
    once_fine_grained,
    random_scenario,
    tiny_generic,
    two_sector,
)
from rstn.global_average import GlobalAvgInput, global_entropy
from rstn.holography import fixed_spin_criteria, solve_weights
from rstn.ising import IsingEngine, purity_gradient
from rstn.observables import (
    area_variance,
    sequence_average,
    sequence_mean_prefactor,
    sequence_var_prefactor,
)
from rstn.oracle import exact_purity, link_swap_trace, mc_purity

GENERIC = dict(
    a=0.3, d=0.25, w=0.45, b=0.1 + 0.05j, u=0.12 - 0.03j, v=0.07 + 0.02j
)


def test_criterion_01_partition_sums():
    t0 = time.time()
    for s in (2, 10, 50):
        twice_s = 2 * s
        engine = IsingEngine(appendix_c(twice_s, **GENERIC))
        forms = benchmark_partition_sums(twice_s, **GENERIC)
        for (m, n, variant), expect in forms.items():
            r = engine.partition_pair(m, n)
            got = math.exp((r.z1 if variant else r.z0).log)
            assert abs(got - expect) <= 1e-12 * expect, (s, m, n, variant)
    assert time.time() - t0 < 1.0


def test_criterion_02_asymptotic_purity():
    t0 = time.time()
    for w in (0.2, 0.5, 0.8):
        residual = {}
        for s in (100, 1000):
            purity = IsingEngine(appendix_c(2 * s, w=w)).purity()
            approx = (2 * w * w - 2 * w + 1) / (6 * s) + (1 - 2 * w) ** 3 / (
                36 * s * s
            )
            residual[s] = abs(purity - approx)
        # residual is O(s^-3): scaling 100 -> 1000 shrinks it ~1000x
        assert residual[1000] <= 10 * residual[100] * (100 / 1000) ** 3
    assert time.time() - t0 < 1.0


def test_criterion_03_benchmark_minimum():
    t0 = time.time()
    s = 50

    def make_objective(region):
        def f(x):
            a, d = x
            w = 1.0 - a - d
            if a <= 0 or d <= 0 or w <= 0:
                return 10.0
            return IsingEngine(
                appendix_c(2 * s, a, d, w, region=region)
            ).purity()

        return f

    for region, target, argmin_ad in (
        ("x", 1 / (12 * s), (0.25, 0.25)),
        ("s_link", 1 / (2 * s + 1), (1 / 3, 1 / 3)),
    ):
        f = make_objective(region)
        best = min(
            ((f((a, d)), (a, d))
             for a in np.linspace(0.05, 0.6, 12)
             for d in np.linspace(0.05, 0.6, 12)
             if a + d < 0.99),
            key=lambda t: t[0],
        )
        res = optimize.minimize(
            f, best[1], method="Nelder-Mead",
            options={"xatol": 1e-6, "fatol": 1e-12},
        )
        assert abs(res.fun - target) <= 0.03 * target, region
        a, d = res.x
        w = 1.0 - a - d
        expect_w = 1.0 - sum(argmin_ad)
        assert abs(a - argmin_ad[0]) <= 0.05
        assert abs(d - argmin_ad[1]) <= 0.05
        assert abs(w - expect_w) <= 0.05
    assert time.time() - t0 < 60.0


def test_criterion_04_two_sector_weights():
    t0 = time.time()
    s_plus_1 = 400
    for num, den in ((1, 4), (1, 2), (3, 4)):
        t_plus_1 = s_plus_1 * num // den
        sc = two_sector(s_plus_1 - 1, t_plus_1 - 1, 0.5)
        sol = solve_weights(sc)
        nu = t_plus_1 / s_plus_1
        assert abs(sol.c[0] - 1 / (1 + nu**-5)) <= 1e-3
        assert abs(sol.ratio - 1.0) <= 1e-2
    assert time.time() - t0 < 1.0


def test_criterion_05_oracle_equivalence():
    t0 = time.time()
    for sc in (tiny_generic(), appendix_c(2, **GENERIC)):
        engine_value = IsingEngine(sc).purity()
        oracle_value, _, _ = exact_purity(sc)
        assert abs(oracle_value - engine_value) <= 1e-10 * engine_value
        res = mc_purity(sc, 5000, seed=11)
        assert abs(res.purity - engine_value) <= 3 * res.stderr
    assert time.time() - t0 < 120.0


def test_criterion_06_swap_trace_lemmas():
    t0 = time.time()
    rng = np.random.default_rng(17)
    for _ in range(50):
        tj, tk = int(rng.integers(0, 7)), int(rng.integers(0, 7))
        gj = complex(rng.normal(), rng.normal())
        gk = complex(rng.normal(), rng.normal())
        mag = abs(gj) ** 2 * abs(gk) ** 2
        one_swap = link_swap_trace(tj, tk, gj, gk, True, False)
        no_swap = link_swap_trace(tj, tk, gj, gk, False, False)
        expect_one = mag / (tj + 1) if tj == tk else 0.0
        assert abs(one_swap - expect_one) <= 1e-12 * max(mag, 1.0)
        assert abs(no_swap - mag) <= 1e-12 * max(mag, 1.0)
    assert time.time() - t0 < 1.0


def test_criterion_07_area_statistics():
    t0 = time.time()
    # arithmetic-progression family at K = 64
    k = 64
    areas = [float(n) for n in range(1, k + 1)]
    assert abs(sequence_mean_prefactor(areas) - 4 / (3 * k)) <= 0.1 * (
        4 / (3 * k)
    )
    assert abs(sequence_var_prefactor(areas) - 2 / (9 * k**2)) <= 0.1 * (
        2 / (9 * k**2)
    )
    # mean <= <A> <= sum on 1000 randomized weight sequences
    rng = np.random.default_rng(23)
    for _ in range(1000):
        seq = rng.uniform(0.5, 100.0, size=rng.integers(2, 9))
        avg = sequence_average(seq)
        assert seq.mean() - 1e-12 <= avg <= seq.sum() + 1e-12
    # two-sector extreme case at A1/A2 = 100
    a1, a2 = 100.0, 1.0
    mean_pref = sequence_mean_prefactor([a1, a2])
    var_pref = sequence_var_prefactor([a1, a2])
    assert abs(mean_pref - (1 - 2 * a2 / a1)) <= 0.05 * (1 - 2 * a2 / a1)
    assert time.time() - t0 < 10.0
    # Var/S^2 = A1 A2 (A1 - A2)^2 / S^4 with S = A1 + A2, below A2/A1
    expected = two_sector_var_prefactor(a1, a2)
    assert abs(var_pref - expected) <= 0.05 * expected, (
        f"variance prefactor {var_pref:.5f} vs closed form {expected:.5f}"
    )


def test_criterion_08_fixed_spin_criteria():
    t0 = time.time()
    rep = fixed_spin_criteria(once_fine_grained())
    assert not rep.passed
    failing = {f[0]: (f[1], f[2]) for f in rep.failing}
    assert (0, 1, 2, 3, 4) in failing
    lhs, rhs = failing[(0, 1, 2, 3, 4)]
    assert lhs == pytest.approx(2 * math.log(2))  # "2 < 5" in log-2 units
    assert rhs == pytest.approx(5 * math.log(2))
    for s in (10, 25):
        sc = appendix_c(2 * s, 0.3, 0.25, 0.45)
        for sector in (0, 1):
            assert fixed_spin_criteria(sc, sector).passed, (s, sector)
    assert time.time() - t0 < 1.0


def test_criterion_09_gradient():
    t0 = time.time()
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 20:
        sc = random_scenario(
            rng, template=("one", "two")[checked % 2], n_sectors=1,
            max_twice=3,
        )
        rho = sc.block(0, 0)
        if rho.shape[0] < 2:
            continue
        direction = psd_safe_direction(rho, rng)
        analytic = purity_gradient(sc, direction)
        numeric = fd_swapped_gradient(sc, direction, step=1e-5)
        scale = max(abs(numeric), 1e-8)
        assert abs(analytic - numeric) <= 1e-6 * scale
        checked += 1
    assert time.time() - t0 < 10.0


def test_criterion_10_global_average():
    t0 = time.time()
    rng = np.random.default_rng(41)
    count = 0
    while count < 10_000:
        n_outer = int(rng.integers(1, 9))
        inp = GlobalAvgInput(
            n_outer,
            int(rng.integers(0, n_outer + 1)),
            float(rng.uniform(1e-9, 1.0)),
            0,
            int(rng.integers(2, 12)),
        )
        if inp.h >= 4:
            assert global_entropy(inp).gap < math.log(2)
        count += 1
    # module examples
    from rstn.global_average import global_purity

    assert global_purity(
        GlobalAvgInput(6, 6, core_purity=1.0, twice_upper=4)
    ) == pytest.approx(1.0)
    assert global_purity(
        GlobalAvgInput(6, 0, core_purity=0.3, twice_upper=4)
    ) == pytest.approx(1.0)
    big = GlobalAvgInput(8, 3, core_purity=1.0, twice_upper=1414)
    assert big.h >= 10**6
    assert global_entropy(big).exact == pytest.approx(
        3 * math.log(big.h), rel=1e-3
    )
    assert time.time() - t0 < 5.0


def test_criterion_11_property_suite():
    t0 = time.time()
    rng = np.random.default_rng(53)
    for trial in range(20):
        sc = random_scenario(
            rng,
            template=("one", "two", "chain")[trial % 3],
            n_sectors=1 + trial % 3,
            max_twice=min(8, 2 + trial % 7),
        )
        engine = IsingEngine(sc)
        purity = engine.purity()
        assert 1.0 / sc.dim_H_C() - 1e-9 <= purity <= 1.0 + 1e-9
        p = engine.distribution()
        assert abs(p.sum() - 1.0) <= 1e-12
        assert np.allclose(p, p.T, atol=1e-12)
        link = engine._link_energies(np.arange(1 << sc.graph.n_vertices))[0]
        for config in range(1 << sc.graph.n_vertices):
            diff = link[1, config] - link[0, config]
            assert diff == pytest.approx(
                region_difference_reference(sc, 0, config), abs=1e-12
            )
        assert area_variance(sc) >= 0.0
    # run-to-run determinism: fresh engines agree bit for bit
    sc = random_scenario(rng, "chain", n_sectors=2, max_twice=4)
    assert IsingEngine(sc).log_purity() == IsingEngine(sc).log_purity()
    assert time.time() - t0 < 60.0
