import cProfile
import cmath
import dataclasses
import itertools
import math
import pstats
import tracemalloc
from importlib import resources

import numpy as np
import pytest

from oracles import (
    draw_vertex_state,
    exact_purity_reference,
    exact_term,
    internal_link_pair,
    mc_purity_reference,
    schur_moment_error,
    vertex_stream,
)
from rings import dense_ring_dict, ring_dict
from rstn import oracle
from rstn.families import (
    appendix_c,
    once_fine_grained,
    random_scenario,
    tiny_generic,
)
from rstn.ising import IsingEngine, NumericalError, SizeCapError
from rstn.oracle import (
    AMPLITUDE_CAP,
    SAMPLE_MAX,
    SEED_MAX,
    _contract,
    _draw_states,
    _stream,
    boundary_trace,
    exact_purity,
    link_swap_trace,
    mc_purity,
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
        # swapped at both ends, each ket meets the other copy's bra
        assert both == pytest.approx(mag, rel=1e-12)
        if tj == tk:
            assert one == pytest.approx(mag / (tj + 1), rel=1e-12)
        else:
            assert one == 0.0


def test_internal_link_swapped_at_both_ends_matches_monte_carlo():
    # the sectors differ on the internal link; C = b1..b5 and its complement
    # b0 are both checked, whose purities a pure bulk state makes equal
    purity = {}
    for region in (("b1", "b2", "b3", "b4", "b5"), ("b0",)):
        sc = internal_link_pair(region)
        purity[region] = IsingEngine(sc).purity()
        assert exact_purity(sc)[0] == pytest.approx(purity[region], rel=1e-10)
        res = mc_purity(sc, 2000, 5)
        assert abs(res.purity - purity[region]) <= 5 * res.stderr
    first, second = purity.values()
    assert first == pytest.approx(second, rel=1e-12)


def test_boundary_trace():
    assert boundary_trace(3, 3, False) == pytest.approx(16.0)
    assert boundary_trace(3, 3, True) == pytest.approx(4.0)
    assert boundary_trace(2, 4, False) == pytest.approx(15.0)
    assert boundary_trace(2, 4, True) == 0.0


def engine_terms(engine, m, n):
    """The engine-side prediction of every raw term, (variant, config):
    K_m K_n exp(-energy) where `terms` keeps the configuration, else 0."""
    (_, energy, keep), = engine.terms(m, n)
    log_kk = engine.log_K(m) + engine.log_K(n)
    return np.exp(log_kk - energy, out=np.zeros(energy.shape), where=keep)


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
            predicted = engine_terms(engine, m, n)
            for config in range(1 << nv):
                for variant in (0, 1):
                    raw = exact_term(sc, m, n, config, variant)
                    assert raw == pytest.approx(
                        predicted[variant, config], rel=1e-10, abs=1e-18
                    ), (m, n, config, variant)


def test_exact_purity_matches_engine():
    for sc in (tiny_generic(), appendix_c(1, **BLOCK_PARAMS),
               appendix_c(2, **BLOCK_PARAMS)):
        got, _, _ = exact_purity(sc)
        assert got == pytest.approx(IsingEngine(sc).purity(), rel=1e-10)


def test_exact_purity_random_scenarios():
    rng = np.random.default_rng(9)
    for _ in range(5):
        sc = random_scenario(rng, "two", n_sectors=2, max_twice=2)
        got, _, _ = exact_purity(sc)
        assert got == pytest.approx(IsingEngine(sc).purity(), rel=1e-10)


PER_TERM_CORPUS = pytest.mark.parametrize(
    "make",
    [lambda: load_scenario(str(SCENARIOS / "tiny_oracle.json")),
     lambda: load_scenario(str(SCENARIOS / "once_fine_grained.json")),
     tiny_generic, lambda: appendix_c(2), lambda: appendix_c(2, **BLOCK_PARAMS),
     lambda: once_fine_grained(1)]
    + [lambda k=k: random_scenario(np.random.default_rng(300 + k),
                                   ("one", "two", "chain")[k % 3],
                                   n_sectors=1 + k % 3, max_twice=3)
       for k in range(10)],
    ids=["tiny_oracle.json", "once_fine_grained.json", "tiny_generic",
         "appendix_c2", "appendix_c2_blocks", "once_fine_grained1"]
    + [f"random{k}" for k in range(10)],
)


@PER_TERM_CORPUS
def test_exact_purity_matches_per_term_lookups(make):
    """The per-pair factor tables multiply the same factors in the same
    order as looking each one up again per term: bit for bit."""
    sc = make()
    assert exact_purity(sc) == exact_purity_reference(sc)


@PER_TERM_CORPUS
def test_exact_terms_sum_to_exact_purity(make):
    """`exact_term`, one fresh table per call, summed in `exact_purity`'s
    order (pairs, then configurations) gives its z0 and z1 bit for bit."""
    sc = make()
    n_sec, nv = len(sc.sectors), sc.graph.n_vertices
    z0 = z1 = 0.0
    for m, n, config in itertools.product(range(n_sec), range(n_sec), range(1 << nv)):
        z0 += exact_term(sc, m, n, config, 0)
        z1 += exact_term(sc, m, n, config, 1)
    assert exact_purity(sc) == (z1 / z0, z1, z0)


@pytest.mark.parametrize("make", [tiny_generic, lambda: appendix_c(2, **BLOCK_PARAMS),
                                  lambda: once_fine_grained(1)],
                         ids=["tiny_generic", "appendix_c2_blocks", "once_fine_grained1"])
def test_exact_purity_contracts_each_term_once(make, monkeypatch):
    """One intertwiner contraction per term: n_sec^2 2^V calls, each
    (m, n, configuration) once, in the order the sums are taken."""
    sc, calls = make(), []
    inner = oracle._RawTerms.intertwiner

    def counted(self, m, n, down):
        calls.append((m, n, down))
        return inner(self, m, n, down)

    monkeypatch.setattr(oracle._RawTerms, "intertwiner", counted)
    exact_purity(sc)
    n_sec, nv = len(sc.sectors), sc.graph.n_vertices
    assert len(calls) == n_sec ** 2 << nv
    assert calls == list(itertools.product(range(n_sec), range(n_sec), range(1 << nv)))


def test_link_factor_memo_is_keyed_by_amplitude():
    """Two scenarios that differ only in the phase of one amplitude: each
    pair table holds the link factors of its own amplitude, as computed
    without the memo.  The phase cancels in g conj(g) exactly, but not in
    the rounding, so a memo keyed by spins alone would hand the second
    scenario the first one's factors.  The memos are bounded."""
    sc = tiny_generic()
    (lid, amps), = sc.amplitudes.items()
    turned = dataclasses.replace(
        sc, amplitudes={lid: {t: g * cmath.exp(0.7j) for t, g in amps.items()}})
    tables = []
    for s in (sc, turned):
        links = oracle._RawTerms(s).factor_table(0, 0)[0][1]
        spins = (s.spin(0, lid),) * 2
        g = (s.amplitude(lid, spins[0]),) * 2
        fresh = [[link_swap_trace.__wrapped__(*spins, *g, a, b) for b in (False, True)]
                 for a in (False, True)]
        assert [traces for *_, traces in links] == [fresh]
        tables.append(fresh)
    assert tables[0] != tables[1]
    for memo in (link_swap_trace, boundary_trace, oracle._subscripts):
        assert memo.cache_info().maxsize is not None


def test_exact_size_cap():
    sc = appendix_c(40, 0.3, 0.25, 0.45)
    with pytest.raises(SizeCapError,
                       match=rf"\d+ amplitudes exceed the cap of {AMPLITUDE_CAP}"):
        exact_purity(sc)


def test_exact_letter_cap_names_count_and_limit():
    ring = scenario_from_dict(ring_dict(14, 1))
    with pytest.raises(SizeCapError, match="28 einsum letters .* the 26"):
        exact_term(ring, 0, 0, 0, 0)


def test_nonreal_term_is_a_numerical_error(monkeypatch):
    """A configuration term with an imaginary part beyond IMAG_TOL is a
    numerical failure (CLI exit 6), not a bad input."""
    monkeypatch.setattr(oracle._RawTerms, "intertwiner",
                        lambda self, m, n, down: 1.0 + 0.5j)
    with pytest.raises(NumericalError, match="configuration term is not real"):
        exact_term(tiny_generic(), 0, 0, 0, 0)
    with pytest.raises(NumericalError, match="configuration term is not real"):
        exact_purity(tiny_generic())


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
    """Each (seed, vertex) has one stream, that of a Philox built with the
    key [seed, vertex], read in sample order: any split of the samples into
    consecutive blocks gives, row for row and bit for bit, the states of one
    draw of them all and of the one-draw-at-a-time reference."""
    splits = {(0, 0, 5): [3], (7, 3, 12): [1, 4, 5], (SEED_MAX, 1, 9): [2, 2, 1],
              (12345, 9, 1): [1], (3, 0, 1): [1, 1, 1], (3, 1, 1): [4, 40],
              (7, 1, 32): [5, 1, 97], (5, 1, 459): [2, 1], (5, 0, 459): [6]}
    for (seed, vertex, dim), sizes in splits.items():
        whole = _draw_states(_stream(seed, vertex), sum(sizes), dim)
        assert whole.shape == (sum(sizes), dim)
        rng = _stream(seed, vertex)
        assert np.array_equal(
            np.concatenate([_draw_states(rng, size, dim) for size in sizes]), whole)
        ref = vertex_stream(seed, vertex)
        for row in whole:
            assert np.array_equal(row, draw_vertex_state(ref, dim))


def test_mc_reads_no_os_entropy():
    prof = cProfile.Profile()
    prof.runcall(mc_purity, tiny_generic(), 50)
    called = [name for _, _, name in pstats.Stats(prof).stats]
    assert not [name for name in called if "urandom" in name]


def test_mc_sample_count_beyond_philox_keys_refused():
    """Each vertex reads its own stream, so no sample count makes two
    vertices share states; more than SAMPLE_MAX samples, whose per-sample
    numerators and denominators alone would take 64 GiB, are refused
    before any array is allocated."""
    first = [_draw_states(_stream(7, x), 1, 8) for x in range(2)]
    assert not np.array_equal(*first)
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapError, match=f"{SAMPLE_MAX + 1} samples exceed"):
            mc_purity(tiny_generic(), SAMPLE_MAX + 1)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


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


def ring3_spin1():
    """A 3-vertex ring, internal legs of spin 1 and two spin-1/2 boundary
    legs per vertex: every vertex-pair intermediate (576 per sample) is
    larger than a vertex state (72) and the output (512), so numpy's greedy
    path ends in one einsum over all three vertex states."""
    data = dense_ring_dict(3, np.random.default_rng(1))
    data["sectors"][0]["spins"].update({f"i{x}": 2 for x in range(3)})
    return scenario_from_dict(data)


def block_sizes(monkeypatch, sc, n_samples):
    """Sample-axis length of each network contraction in one run: one
    per block on a single-sector scenario."""
    sizes = []
    contract = oracle._contract

    def spy(subscripts, *operands, out):
        sizes.append(len(operands[0]))
        return contract(subscripts, *operands, out=out)

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
     (lambda: once_fine_grained(1), 7),
     (lambda: random_scenario(np.random.default_rng(0), "one", n_sectors=2,
                              max_twice=2), 7),
     (ring3_spin1, 7)],
    ids=["appendix_c2", "once_fine_grained1", "one_vertex", "ring3_spin1"],
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


@pytest.mark.parametrize(
    "seed, template, n_sectors",
    [(68, "two", 3), (16, "two", 3), (57, "chain", 4)],
    ids=["two_groups_gram", "gram_and_ket_weighted", "three_groups"],
)
def test_mc_matches_reference_across_rest_spin_groups(
    monkeypatch, seed, template, n_sectors
):
    """Sectors group by their rest-leg spins; a group with two sectors
    holds cross-sector pairs, read off its Gram product (seed 68; the
    single-sector group of seed 16 too) or weighted before the product
    where the Gram would be larger than the stack (the two-sector groups
    of seeds 16 and 57).  Off-diagonal blocks are given one way only."""
    sc = random_scenario(np.random.default_rng(seed), template,
                         n_sectors=n_sectors, max_twice=2)
    rest = [lid for lid in sc.graph.link_ids()
            if lid.startswith("b") and lid not in sc.region_C]
    groups = {tuple(sc.spin(s, lid) for lid in rest) for s in range(n_sectors)}
    assert 2 <= len(groups) < n_sectors
    assert (0, 1) in sc.blocks and (1, 0) not in sc.blocks
    sizes = block_sizes(monkeypatch, sc, 300)  # one contraction per sector
    block = sizes[0]
    assert 1 < block < 300 and sum(sizes) == 300 * n_sectors
    for n in (1, block - 1, block, block + 1, 2 * block + 5):
        got = mc_purity(sc, n, seed=3)
        assert_matches_reference(got, mc_purity_reference(sc, n, seed=3))


def mc_corpus():
    """appendix_c(1) and (2), then the first 24 draws of default_rng(2026)
    that `mc_purity` takes: templates one, two and chain in turn, with 1, 2
    and 3 sectors, twice-spins up to 3."""
    cases = [appendix_c(1), appendix_c(2)]
    rng = np.random.default_rng(2026)
    while len(cases) < 26:
        k = len(cases) - 2
        sc = random_scenario(rng, ("one", "two", "chain")[k % 3], n_sectors=1 + k % 3,
                             max_twice=3)
        try:
            mc_purity(sc, 1)
        except SizeCapError:
            continue
        cases.append(sc)
    return cases


def qr_spy(monkeypatch, calls):
    """Record each np.linalg.qr call `mc_purity` makes: input and R."""
    qr = np.linalg.qr

    def spy(a, mode):
        r = qr(a, mode=mode)
        calls.append((a.copy(), r))
        return r

    monkeypatch.setattr(np.linalg, "qr", spy)


def test_mc_matches_reference_with_and_without_folds(monkeypatch):
    """Folding a vertex's rest legs keeps every estimate within 1e-12 of
    the per-sample reference: appendix_c(1), appendix_c(2) and 24 random
    draws, some of which fold."""
    calls, folded = [], []
    qr_spy(monkeypatch, calls)
    for k, sc in enumerate(mc_corpus()):
        del calls[:]
        assert_matches_reference(mc_purity(sc, 20, seed=7), mc_purity_reference(sc, 20, seed=7))
        if calls:
            folded.append(k)
    assert folded[:2] == [0, 1] and len(folded) > 2


def test_fold_keeps_the_rest_leg_gram(monkeypatch):
    """appendix_c(2) folds vertex 0, whose 63 rest values meet 3 rows (link
    leg and intertwiner, one tuple): the qr input is Psi^T, Psi the drawn
    states with the rest legs last, and L = R^T has L L^H = Psi Psi^H to
    1e-13 relative per sample."""
    sc = appendix_c(2)
    calls = []
    qr_spy(monkeypatch, calls)
    mc_purity(sc, 100, seed=7)
    a, r = calls[0]
    size = len(a)
    g = sc.graph
    rest = [b.color for k, b in enumerate(g.boundary)
            if b.vertex == 0 and f"b{k}" not in sc.region_C]
    slices, _ = oracle._vertex_layout(sc, 0)
    states = _draw_states(_stream(7, 0), size,
                          sum(di * math.prod(legs) for di, legs in slices))
    parts, off = [], 0
    for di, legs in slices:
        width = di * math.prod(legs)
        part = states[:, off:off + width].reshape((size, di) + legs)
        r_x = math.prod(legs[c - 1] for c in rest)
        parts.append(np.moveaxis(part, [1 + c for c in rest], range(-len(rest), 0))
                     .reshape(size, -1, r_x))
        off += width
    psi = np.concatenate(parts, axis=1)
    assert psi.shape[1:] == (3, 63) and r.shape == (size, 3, 3)
    assert np.array_equal(a, psi.transpose(0, 2, 1))
    low = r.transpose(0, 2, 1)
    got = low @ low.conj().transpose(0, 2, 1)
    want = psi @ psi.conj().transpose(0, 2, 1)
    for g_s, w_s in zip(got, want):
        assert abs(g_s - w_s).max() <= 1e-13 * abs(w_s).max()


@pytest.mark.parametrize("make, folds", [(tiny_generic, {False}),
                                         (lambda: appendix_c(2), {False, True})],
                         ids=["tiny_generic", "appendix_c2"])
def test_mc_estimate_independent_of_block_size(monkeypatch, make, folds):
    """Blocks of 1 sample, of a few and of all 23 give one estimate: bit
    for bit where the fold choice is the same, and to 1e-12 relative
    across it.  tiny_generic never folds; appendix_c(2) folds wherever a
    block holds one sample or more once folded, so not at a budget of 1."""
    sc = make()
    draw = oracle._draw_states
    results, spans = {}, set()
    for budget in (1, 1 << 15, 1 << 17, 1 << 40):
        sizes, calls = [], []
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "BLOCK_BYTES", budget)
            patch.setattr(oracle, "_draw_states",
                          lambda rng, size, dim: sizes.append(size) or draw(rng, size, dim))
            qr_spy(patch, calls)
            res = mc_purity(sc, 23, seed=7)
        spans.add(max(sizes))
        results.setdefault(bool(calls), []).append(res)
    assert 1 in spans and 23 in spans and len(spans) > 2
    assert set(results) == folds
    for same in results.values():
        assert all(res == same[0] for res in same)
    for res in results.get(True, []):
        assert_matches_reference(res, results[False][0])


# the networks of mc_purity(tiny_generic(), 400) and
# mc_purity(once_fine_grained(1), 48) before rest legs folded
TINY_NET = "abdefg,achijk,dh->aijbcefgk"
FINE_NET = ("abghij,acklmn,adopqr,aestuv,afwxyz,gk,hp,iu,jz,mq,rv,sw,xl"
            "->anbcdefoty")


def test_fold_shrinks_only_appendix_c2_rest_axis():
    """appendix_c(2)'s M has a rest axis of 27 (vertex 0's 63 rest values
    folded to 3, vertex 1's 9 kept), not 567; tiny_generic and
    once_fine_grained(1) fold nothing and contract the networks they did
    before, on the same shapes."""
    def shapes(sc, n_samples):
        return {(subscripts, tuple(op.shape for op in operands), out)
                for subscripts, operands, out in mc_networks(sc, n_samples)}

    sc = appendix_c(2)
    lead = 1 + sum(f"b{k}" in sc.region_C for k in range(len(sc.graph.boundary))) + 2
    assert {math.prod(out[lead:]) for *_, out in shapes(sc, 100)} == {27}
    leg = (2,) * 5
    assert shapes(tiny_generic(), 400) == {
        (TINY_NET, ((b, *leg), (b, *leg), (2, 2)), (b,) + (2,) * 8) for b in (15, 55)}
    assert shapes(once_fine_grained(1), 48) == {
        (FINE_NET, ((48, *leg),) * 5 + ((2, 2),) * 8, (48,) + (2,) * 9)}


@pytest.mark.parametrize(
    "make, n_samples",
    [(tiny_generic, 400), (lambda: appendix_c(1), 100), (lambda: appendix_c(2), 100)],
    ids=["tiny_generic", "appendix_c1", "appendix_c2"],
)
def test_mc_traced_peak_within_two_blocks(make, n_samples):
    """Block sizing counts every array a block holds, the folded M and the
    fold's stack, qr copy and R included: a call's traced peak stays within
    2 BLOCK_BYTES.  A Philox is built first: the first of a process
    imports numpy.random."""
    sc = make()
    _stream(7, 0)
    tracemalloc.start()
    try:
        mc_purity(sc, n_samples, seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * oracle.BLOCK_BYTES

def mc_networks(sc, n_samples):
    """Every distinct (subscripts, operands, out shape) `mc_purity` contracts."""
    seen = {}
    contract = oracle._contract

    def spy(subscripts, *operands, out):
        seen.setdefault((subscripts,) + tuple(op.shape for op in operands),
                        (subscripts, [op.copy() for op in operands], out.shape))
        return contract(subscripts, *operands, out=out)

    oracle._contract = spy
    try:
        mc_purity(sc, n_samples, seed=3)
    finally:
        oracle._contract = contract
    return list(seen.values())


def random_operands(shapes, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=s) + 1j * rng.normal(size=s) for s in shapes]


def einsum_on_path(subscripts, operands):
    path = np.einsum_path(subscripts, *operands, optimize="greedy")[0]
    return np.einsum(subscripts, *operands, optimize=path)


# numpy's einsum runs each pairwise step of a path as batched matmuls (its
# `bmm_einsum`) only from a 2.x release on; there the plan does numpy's
# arithmetic and matches bit for bit.  Releases that route steps through
# tensordot or c_einsum sum in another order: within 1e-14 of the largest
# entry (1.2e-15 measured against c_einsum on the networks below).
BMM_EINSUM = "bmm_einsum" in getattr(np.einsum, "__wrapped__", np.einsum).__globals__


def assert_same_contraction(got, want, subscripts):
    if BMM_EINSUM:
        assert np.array_equal(got, want), subscripts
    else:
        assert np.allclose(got, want, rtol=0, atol=1e-14 * abs(want).max()), subscripts


@pytest.mark.parametrize(
    "make, n_samples",
    [(tiny_generic, 400), (lambda: appendix_c(2), 100),
     (lambda: once_fine_grained(1), 3), (ring3_spin1, 3)],
    ids=["tiny_generic", "appendix_c2", "once_fine_grained1", "ring3_spin1"],
)
def test_compiled_plan_matches_einsum_on_mc_networks(make, n_samples):
    """Every network contraction of the Monte Carlo oracle is np.einsum on
    the same greedy path: the plan runs the same matmuls on the same fused
    operands, including size-1 intertwiner axes, and a step numpy takes
    over three operands as the same einsum."""
    networks = mc_networks(make(), n_samples)
    assert networks
    for subscripts, operands, _ in networks:
        want = einsum_on_path(subscripts, operands)
        got = _contract(subscripts, *operands, out=np.empty_like(want))
        assert_same_contraction(got, want, subscripts)


@pytest.mark.parametrize(
    "subscripts, shapes",
    [("sab,sbc,scd->sad", [(4, 3, 5), (4, 5, 2), (4, 2, 3)]),  # batch carried
     ("sab,sbc->sca", [(4, 3, 5), (4, 5, 2)]),  # result transposed
     ("abx,bc->ac", [(3, 4, 6), (4, 5)]),  # x summed in one operand only
     ("ab,bc,cd->ad", [(1, 4), (4, 1), (1, 3)]),  # contracting size-1 axes
     ("ab,cd->abcd", [(3, 4), (5, 2)]),  # outer product
     ("sab,sc->sabc", [(4, 1, 3), (4, 2)]),  # batched outer product
     ("ab,cd,ef->fabdec", [(2, 3), (3, 2), (2, 2)]),  # one step, 3 operands
     ("sabc->scb", [(4, 2, 3, 5)])],  # one operand
)
def test_compiled_plan_matches_einsum_on_synthetic_networks(subscripts, shapes):
    """np.einsum on its greedy path, steps that contract nothing included
    (a multiply, as in numpy's step) and steps numpy takes as one plain
    einsum, into a fresh array and into a non-contiguous `out` view that is
    written and nothing else."""
    operands = random_operands(shapes)
    want = einsum_on_path(subscripts, operands)
    buf = np.zeros(want.shape + (2,), complex)
    for out in (np.empty_like(want), buf[..., 1]):
        got = _contract(subscripts, *operands, out=out)
        assert got is out
        assert_same_contraction(got, want, subscripts)
    assert not buf[..., 0].any()


def einsum_path_calls(*args):
    prof = cProfile.Profile()
    prof.runcall(mc_purity, *args)
    calls = {name: count for (_, _, name), (count, *_) in pstats.Stats(prof).stats.items()}
    return calls.get("einsum_path", 0)


def test_mc_finds_each_einsum_path_once_per_network_shape():
    """appendix_c(2) at 100 samples contracts 12 networks of 4 distinct
    shapes (2 sectors, a full and a last short block): einsum_path runs
    once per shape, not once per contraction, and the plans are kept
    module-wide, so a second call finds no path."""
    sc = appendix_c(2)
    assert len(mc_networks(sc, 100)) == 4
    oracle._plan.cache_clear()
    assert einsum_path_calls(sc, 100, 7) == 4
    assert einsum_path_calls(sc, 100, 7) == 0
