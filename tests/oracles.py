"""Independent reference computations used by the tests.

Everything here is deliberately derived by a different route than the
package code: invariant-subspace dimensions by weight counting and by
a Casimir null space, the two-vertex benchmark partition sums as
frozen closed forms, the two-sector area variance in exact rational
arithmetic, gradients by central finite differences and by three
subset transforms per direction, the gradient operator term by term
from einsum partial traces, partial traces
by one np.einsum per subset (and sigma_I from them), sigma_I one block
pair at a time as the engine built it before its stacked fill, the pairwise
log-sum as a scalar loop over slots and over the kept terms alone, each
pair's partition data by its own ground scan over its compacted chunks
and log_sum_tree over its whole rows, the fixed-spin flip
criteria by one Python pass per region, their necessary condition and
the ground states of constant-sigma_I pairs in integer products, Delta and the link energies
link by link from `cut_reference` (the cut rule on Python sets), their
exponents over the engine's base (the largest power of each element
dividing d) summed in Python ints and converted as the engine does, the
`analyze --terms` rows from those and the einsum sigma_I, H_1 - H_0
and the bulk-boundary energy and the boundary factor by one pass over
the links, the Monte Carlo purity one sample at a time, the second Haar
moment of its sampler against the exact one, the exact oracle's
terms dressed by looking every trace factor up again per term, and a
scenario file loaded by `json.loads` whole, as `load_scenario` loaded it
before it read blocks row by row.
`subset_traces` is no reference: it runs the engine's stacked fill on
two given matrices, for the tests that pin that fill against einsum.
Nor is `block_diagonal`, which drops a state's cross-sector blocks, nor
`pure_bulk`, which draws a random pure state in place of a given one, nor
`internal_link_pair`, a scenario whose two sectors differ on an internal
link, nor `tie_chains`, scenarios whose ground products tie.
Nor are the helpers that only tests call: `closed_form_weights` and
`reweighted_scenario` (sector weights from the C dims, and a state
rescaled to given weights) and `exact_term` (one raw term of the exact
oracle).
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
from fractions import Fraction

import numpy as np

from rings import ring_dict
from rstn.families import (
    _template,
    appendix_c,
    once_fine_grained,
    random_scenario,
    tiny_generic,
    two_sector,
)
from rstn.graph import ColoredGraph
from rstn.holography import EQUALITY_TOL, FixedSpinReport, _p_to_c, holographic_p
from rstn.ising import (
    SIGMA_IMAG_TOL,
    TIE_TOL,
    IsingEngine,
    PairResult,
    SizeCapError,
    _fill_plan,
    _fill_traces,
    _interleave,
    _per_vertex,
    _vertex_maps,
)
from rstn.logdomain import LogWeight, log_sum_tree
from rstn.oracle import (
    IMAG_TOL,
    LETTERS,
    MCResult,
    NumericalError,
    _draw_states,
    _dressed,
    _pair_state,
    _RawTerms,
    _stream,
    _vertex_layout,
    boundary_trace,
    link_swap_trace,
)
from rstn.spins import coprime_base, dim_rep
from rstn.state import ParseError, Scenario, Sector, _distinct_keys, scenario_from_dict


def weight_counting_invariant_dim(twice: tuple[int, ...]) -> int:
    """dim of the invariant subspace of a product of SU(2) irreps.

    Equals (multiplicity of total weight 0) minus (multiplicity of
    total weight 1), counting weights in twice-units.
    """
    counts = {0: 1}
    for tj in twice:
        nxt: dict[int, int] = {}
        for w, c in counts.items():
            for m in range(-tj, tj + 1, 2):
                nxt[w + m] = nxt.get(w + m, 0) + c
        counts = nxt
    return counts.get(0, 0) - counts.get(2, 0)


def _spin_matrices(tj: int):
    d = tj + 1
    j = tj / 2.0
    m = np.array([j - k for k in range(d)])
    jz = np.diag(m)
    jp = np.zeros((d, d))
    for k in range(1, d):
        jp[k - 1, k] = math.sqrt(j * (j + 1) - m[k] * (m[k] + 1))
    jm = jp.T
    jx = (jp + jm) / 2.0
    jy = (jp - jm) / 2.0  # times -i; handled via real antisymmetric part
    return jx, jy, jz


def casimir_invariant_dim(twice: tuple[int, ...]) -> int:
    """Null-space dimension of the total J^2 on the product space."""
    dims = [tj + 1 for tj in twice]
    total = int(np.prod(dims))
    jx = np.zeros((total, total), dtype=complex)
    jy = np.zeros((total, total), dtype=complex)
    jz = np.zeros((total, total), dtype=complex)
    for leg, tj in enumerate(twice):
        x, y, z = _spin_matrices(tj)
        ops = [np.eye(d) for d in dims]
        for name, op in (("x", x), ("y", 1j * y), ("z", z)):
            ops[leg] = op
            full = ops[0]
            for o in ops[1:]:
                full = np.kron(full, o)
            if name == "x":
                jx = jx + full
            elif name == "y":
                jy = jy + full
            else:
                jz = jz + full
            ops[leg] = np.eye(dims[leg])
    j2 = jx @ jx + jy @ jy + jz @ jz
    evals = np.linalg.eigvalsh(j2)
    return int(np.sum(np.abs(evals) < 1e-8))


# -- two-vertex benchmark closed forms ---------------------------------------


def benchmark_partition_sums(
    twice_s: int,
    a: float,
    d: float,
    w: float,
    b: complex = 0.0,
    u: complex = 0.0,
    v: complex = 0.0,
) -> dict[tuple[int, int, int], float]:
    """The six partition sums of the two-sector pinwheel benchmark.

    Keys are (m, n, variant).  Frozen independently of the engine.
    """
    S = twice_s
    P = S + 1
    D1 = 3 * S - 1
    D2 = 3 * S + 1
    t = (a * a + d * d + 2 * abs(b) ** 2) / (a + d) ** 2
    q = (abs(u) ** 2 + abs(v) ** 2) / (w * (a + d))
    return {
        (0, 0, 0): 1 + P**-3 / D1 * t + P**-3 / D2 + P**-4 / (D1 * D2) * t,
        (0, 0, 1): 1 / D1 + P**-3 * t + P**-3 / (D1 * D2) + P**-4 / D2 * t,
        (1, 1, 0): 1 + 2 * P**-3 / D2 + P**-4 / D2**2,
        (1, 1, 1): 1 / D2 + P**-3 + P**-3 / D2**2 + P**-4 / D2,
        (0, 1, 0): 1 + P**-3 / D2,
        (0, 1, 1): P**-3 * q + P**-4 / D2 * q,
    }


# -- two-sector area statistics ---------------------------------------------


def two_sector_var_prefactor(a1: float, a2: float) -> float:
    """Var(A) / (A1 + A2)^2 for two sectors with p_i = A_i / (A1 + A2).

    Exact rational arithmetic on the Bernoulli form
    Var = p1 p2 (A1 - A2)^2, which never exceeds p2 < A2 / A1.
    """
    x1, x2 = Fraction(a1), Fraction(a2)
    s = x1 + x2
    return float((x1 / s) * (x2 / s) * (x1 - x2) ** 2 / s**2)


# -- gradients ---------------------------------------------------------------


def swapped_sum_of(sc: Scenario) -> float:
    """The swapped partition sum of a single-sector scenario."""
    return math.exp(IsingEngine(sc).partition_pair(0, 0).z1.log)


def fd_swapped_gradient(
    sc: Scenario, direction: np.ndarray, step: float = 1e-5
) -> float:
    """Central finite difference of the swapped sum along `direction`.

    Exploits scale invariance of the functional: each perturbed state
    is trace-normalized before it is handed back to the engine.
    """

    def value(eps: float) -> float:
        rho = sc.block(0, 0) + eps * direction
        rho = rho / np.trace(rho).real
        perturbed = Scenario(
            graph=sc.graph,
            sectors=sc.sectors,
            amplitudes=sc.amplitudes,
            blocks={(0, 0): rho},
            region_C=sc.region_C,
            mode="exact",
        )
        return swapped_sum_of(perturbed)

    return (value(step) - value(-step)) / (2 * step)


def gradient_reference(sc: Scenario, direction: np.ndarray) -> tuple[float, float]:
    """`purity_gradient` by three operator-basis transforms per call:
    Tr(rho_S X'_S) for every S from `subset_traces`, X' = X - (Tr X /
    Tr rho) rho, weighted by alpha_S = exp(-variant-1 link energy).

    Also returns the scale of the rounding error, the same sum over the
    absolute values of the two parts of each term."""
    rho, dims = sc.block(0, 0), sc.vertex_dims(0)
    configs = np.arange(1 << sc.graph.n_vertices)
    alpha = np.exp(-IsingEngine(sc)._link_energies(configs)[0, 1])
    tr_rho = float(np.trace(rho).real)
    ratio = float(np.trace(direction).real) / tr_rho
    traces = subset_traces(rho, direction - ratio * rho, dims, dims).real
    parts = (np.abs(subset_traces(rho, direction, dims, dims))
             + abs(ratio) * subset_traces(rho, None, dims, dims))
    return (2.0 / tr_rho**2 * float(alpha @ traces),
            2.0 / tr_rho**2 * float(alpha @ parts))


def gradient_operator_reference(sc: Scenario) -> np.ndarray:
    """G = sum_S alpha_S rho_S (x) 1 of a single-sector scenario, term by
    term: rho_S from `einsum_partial_trace`, alpha_S = exp(-energy) of
    `link_terms_reference` in variant 1, the identity on the vertices
    outside S, and the factors put back in vertex order."""
    rho, dims = sc.block(0, 0), sc.vertex_dims(0)
    n = len(dims)
    g = np.zeros(rho.shape, dtype=complex)
    for mask in range(1 << n):
        kept = [x for x in range(n) if mask >> x & 1]
        out = [x for x in range(n) if not mask >> x & 1]
        red = einsum_partial_trace(rho, dims, dims, mask)
        eye = np.eye(math.prod(dims[x] for x in out))
        term = np.multiply.outer(red.reshape([dims[x] for x in kept] * 2),
                                 eye.reshape([dims[x] for x in out] * 2))
        # axes: kept rows, kept cols, other rows, other cols
        k, t = len(kept), len(out)
        rows = [kept.index(x) if x in kept else 2 * k + out.index(x)
                for x in range(n)]
        cols = [k + kept.index(x) if x in kept else 2 * k + t + out.index(x)
                for x in range(n)]
        alpha = math.exp(-link_terms_reference(sc, 0, 0, mask, 1)[1])
        g += alpha * term.transpose(rows + cols).reshape(rho.shape)
    return g


def psd_safe_direction(
    rho: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """A Hermitian direction X with rho + eps X still PSD for small eps."""
    dim = rho.shape[0]
    h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (h + h.conj().T) / 2.0
    h /= np.linalg.norm(h)
    evals, evecs = np.linalg.eigh(rho)
    sqrt_rho = (evecs * np.sqrt(np.clip(evals, 0, None))) @ evecs.conj().T
    return sqrt_rho @ h @ sqrt_rho


def block_diagonal(sc: Scenario) -> Scenario:
    """`sc` with the cross-sector blocks of its bulk state dropped: the
    pinching onto the sectors, still PSD with trace 1."""
    return dataclasses.replace(sc, blocks={
        (m, n): blk for (m, n), blk in sc.blocks.items() if m == n})


def pure_bulk(sc: Scenario, rng: np.random.Generator) -> Scenario:
    """`sc` with its bulk state replaced by a random pure one over all its
    sectors, |psi><psi| cut into the blocks m <= n."""
    dims = [sc.block_dim(m) for m in range(len(sc.sectors))]
    psi = rng.normal(size=sum(dims)) + 1j * rng.normal(size=sum(dims))
    rho = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
    offs = np.cumsum([0] + dims)
    return dataclasses.replace(sc, blocks={
        (m, n): rho[offs[m]:offs[m + 1], offs[n]:offs[n + 1]]
        for m in range(len(dims)) for n in range(m, len(dims))})


def internal_link_pair(region_C=("b1", "b2", "b3", "b4", "b5")) -> Scenario:
    """The "two" template in the pure state (|s> + |t>)/sqrt 2 of two
    sectors that differ on the internal link and on b1..b5, every block
    [[0.5]]: both vertices swapped, each copy's ket of the link meets the
    other copy's bra, so those terms stand although the spins differ."""
    s = {"i0": 0, "b0": 2, "b1": 2, "b2": 2, "b3": 2, "b4": 2, "b5": 0}
    t = {"i0": 1, "b0": 2, "b1": 1, "b2": 0, "b3": 0, "b4": 2, "b5": 1}
    half = np.array([[0.5 + 0j]])
    return Scenario(_template("two"), [Sector(s), Sector(t)], {},
                    {(0, 0): half, (0, 1): half, (1, 1): half}, region_C)


def closed_form_weights(sc: Scenario) -> np.ndarray:
    """Weights that equalize the sector distribution with the C dims.

    Valid when cross-sector pairs drop out (block-diagonal bulk state,
    C carrying all sector differences): p must be `holographic_p`,
    which pins c_n up to one normalization.  The result depends only
    on the complement dims and internal amplitudes.
    """
    return _p_to_c(IsingEngine.of(sc), holographic_p(sc))


def reweighted_scenario(sc: Scenario, c: np.ndarray) -> Scenario:
    """Rescale the bulk state's sector blocks to the given weights."""
    n = len(sc.sectors)
    if len(c) != n:
        raise ValueError("one weight per sector required")
    old = np.array([sc.c_norm(m) for m in range(n)])
    blocks = {}
    for m in range(n):
        if old[m] > 0.0:
            blocks[(m, m)] = sc.block(m, m) * (c[m] / old[m])
        else:
            dim = sc.block_dim(m)
            blocks[(m, m)] = c[m] / dim * np.eye(dim, dtype=complex)
    for (m, n2), blk in sc.blocks.items():
        if m == n2:
            continue
        if old[m] > 0.0 and old[n2] > 0.0:
            blocks[(m, n2)] = blk * math.sqrt(
                (c[m] / old[m]) * (c[n2] / old[n2])
            )
    return dataclasses.replace(sc, blocks=blocks)


# -- partial traces and log sums ----------------------------------------------


def einsum_partial_trace(
    mat: np.ndarray, row_dims: list[int], col_dims: list[int], keep: int
) -> np.ndarray:
    """Trace `mat` over the vertices not set in the bitmask `keep`.

    One np.einsum: each traced vertex shares its row and column index.
    """
    nv = len(row_dims)
    letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    rows = [letters[x] for x in range(nv)]
    cols = [
        letters[nv + x] if keep >> x & 1 else letters[x] for x in range(nv)
    ]
    kept = [x for x in range(nv) if keep >> x & 1]
    out = "".join(rows[x] for x in kept) + "".join(cols[x] for x in kept)
    arr = mat.reshape(tuple(row_dims) + tuple(col_dims))
    red = np.einsum("".join(rows) + "".join(cols) + "->" + out, arr)
    r = math.prod(row_dims[x] for x in kept)
    c = math.prod(col_dims[x] for x in kept)
    return red.reshape(r, c)


def einsum_sigma(sc: Scenario, m: int, n: int, mask: int) -> float:
    """sigma_I of the pair (m, n) for the swapped set `mask`.

    The hybrid sectors are found by comparing vertex tuples, each block
    is reduced by `einsum_partial_trace` (an absent block is a zero
    matrix), and a trace that is not real gives NaN.
    """
    cm, cn = sc.c_norm(m), sc.c_norm(n)
    if cm <= 0.0 or cn <= 0.0:
        return math.inf
    nv = sc.graph.n_vertices

    def reduced(row: int, other: int):
        want = [sc.vertex_tuple(other if mask >> x & 1 else row, x)
                for x in range(nv)]
        for q in range(len(sc.sectors)):
            if [sc.vertex_tuple(q, x) for x in range(nv)] == want:
                return einsum_partial_trace(sc.block(row, q), sc.vertex_dims(row),
                                            sc.vertex_dims(q), mask)
        return None

    a, b = reduced(m, n), reduced(n, m)
    if a is None or b is None:
        return math.inf
    t = np.trace(a @ b)
    if abs(t.imag) > 1e-9 * max(1.0, abs(t.real)):
        return math.nan
    val = t.real / (cm * cn)
    return -math.log(val) if val > 0.0 else math.inf


def scalar_log_sum_tree(logs: list[float]) -> float:
    """The pairwise log-sum as a scalar loop over each tree level, the
    terms padded with -inf to a power of two and each kept in its slot."""
    if not logs:
        return -math.inf
    vals = list(logs) + [-math.inf] * ((1 << (len(logs) - 1).bit_length()) - len(logs))
    while len(vals) > 1:
        vals = [np.logaddexp(vals[i], vals[i + 1]) for i in range(0, len(vals), 2)]
    return float(vals[0])


def compacted_log_sum_tree(logs: list[float]) -> float:
    """The pairwise log-sum of the kept terms alone: the -inf terms
    dropped, then a scalar loop over each tree level that carries an odd
    last term up unchanged."""
    vals = [v for v in logs if v != -math.inf]
    if not vals:
        return -math.inf
    while len(vals) > 1:
        nxt = []
        for i in range(0, len(vals) - 1, 2):
            nxt.append(np.logaddexp(vals[i], vals[i + 1]))
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return float(vals[0])


def sequential_ground_scan(
    energies: list[float], tol: float
) -> tuple[float, float, int, int]:
    """(best, second, index of best, degeneracy) by one scalar pass.

    A new best must undercut the current one by the relative and
    absolute tolerance `tol`; energies within it count as degenerate.
    """
    best, second, index, degen = math.inf, math.inf, 0, 1
    for k, e in enumerate(energies):
        if e < best * (1 - tol) - tol:
            second, best, index, degen = best, e, k, 1
        elif math.isclose(e, best, rel_tol=tol, abs_tol=tol):
            degen += 1
        elif e < second:
            second = e
    return best, second, index, degen


class _PairGroundScan:
    """The ground-state update of one pair and variant, fed the compacted
    energies of one chunk at a time (the engine's scan before it ran on
    rows of every pair at once).

    It ends in the state of `sequential_ground_scan`.  Only a new best
    moves `best`.  While every energy is non-negative the threshold never
    exceeds `best`, so a new best undercuts every earlier energy and only
    running minima need the Python test (after a negative energy no
    non-negative one can be a new best).  After the last new best the
    loop is a count and a min.
    """

    def __init__(self):
        self.best = math.inf
        self.second = math.inf
        self.config = 0
        self.degen = 1
        self.floor = math.inf  # least energy fed so far

    def feed(self, e: np.ndarray, configs: np.ndarray) -> None:
        if not e.size:
            return
        if e.min() >= 0.0:
            before = np.minimum.accumulate(np.concatenate(([self.floor], e[:-1])))
            tries = np.flatnonzero(e < before).tolist()
        else:
            tries = range(e.size)
        last = -1
        for i in tries:
            x = float(e[i])
            if x < self.best * (1 - TIE_TOL) - TIE_TOL:
                self.second, self.best, last = self.best, x, i
        if last >= 0:
            self.config, self.degen = int(configs[last]), 1
        tail = e[last + 1:]
        diff = np.abs(self.best - tail)
        close = ((tail == self.best) | (diff <= abs(TIE_TOL * self.best))
                 | (diff <= np.abs(TIE_TOL * tail)) | (diff <= TIE_TOL))
        self.degen += int(close.sum())
        if not close.all():
            self.second = min(self.second, float(tail[~close].min()))
        self.floor = min(self.floor, float(e.min()))


def pair_reference(engine: IsingEngine, m: int, n: int) -> PairResult:
    """The pair's row of the pair table by one reduction per pair: per
    variant, each chunk of `engine.terms(m, n)` compacted to its kept
    energies feeds one `_PairGroundScan`, and in exact mode log_sum_tree
    sums the concatenated chunks, -inf in the slot of each excluded term."""
    exact = engine.sc.mode == "exact"
    logs: list[list[np.ndarray]] = [[], []]
    scans = (_PairGroundScan(), _PairGroundScan())
    for configs, energy, keep in engine.terms(m, n):
        for variant in (0, 1):
            e = energy[variant][keep[variant]]
            logs[variant].append(np.where(keep[variant], -energy[variant], -math.inf))
            scans[variant].feed(e, configs[keep[variant]])
    if exact:
        z0, z1 = (LogWeight(log_sum_tree(np.concatenate(parts))) for parts in logs)
    else:
        z0, z1 = (LogWeight(-math.inf) if s.best == math.inf
                  else LogWeight(-s.best + math.log(s.degen)) for s in scans)
    return PairResult(
        m=m, n=n, z0=z0, z1=z1,
        ground_config=tuple(s.config for s in scans),
        ground_energy=tuple(s.best for s in scans),
        degeneracy=tuple(s.degen for s in scans),
        gap=tuple(s.second - s.best if s.best != math.inf else math.inf
                  for s in scans),
    )


# -- per-region and per-configuration loops -----------------------------------


def graph_scenarios() -> list[Scenario]:
    """One scenario on every graph the suite builds: the random_scenario
    templates, the pinwheel families, the once-fine-grained vertex and
    the rings of 4 to 10 vertices."""
    rng = np.random.default_rng(14)
    return ([random_scenario(rng, t, n_sectors=2) for t in ("one", "two", "chain")]
            + [appendix_c(2), two_sector(1, 2), tiny_generic(),
               once_fine_grained(1)]
            + [scenario_from_dict(ring_dict(n, 1)) for n in (4, 6, 8, 10)])


def cut_reference(g: ColoredGraph, region) -> list[str]:
    """Links with exactly one endpoint inside `region`, in link-id order.

    Boundary links count as cut when their vertex is in the region.
    """
    out = []
    for k, ln in enumerate(g.internal):
        if (ln.source in region) != (ln.target in region):
            out.append(f"i{k}")
    for k, b in enumerate(g.boundary):
        if b.vertex in region:
            out.append(f"b{k}")
    return out


def cut_products(sc: Scenario, sector: int, config: int, swap_C: bool = False) -> tuple[int, int]:
    """prod d = 2j+1 of sector over the links the vertex set `config` cuts
    (`cut_reference`), as Python ints: (away from C, on C).  With
    `swap_C`, the cut is toggled on C first, as the swapped variant pins
    the C half-edges swapped."""
    g = sc.graph
    cut = set(cut_reference(g, {x for x in range(g.n_vertices) if config >> x & 1}))
    if swap_C:
        cut ^= set(sc.region_C)
    prods = [1, 1]
    for lid in cut:
        prods[lid in sc.region_C] *= dim_rep(sc.spin(sector, lid))
    return prods[0], prods[1]


def necessary_reference(sc: Scenario, sector: int) -> list[tuple[int, ...]]:
    """The regions X of one sector that fail the necessary flip condition,
    decided in integers: prod_{cut(X) \\ C} d <= prod_{x in X} dim_x *
    prod_{cut(X) & C} d, in `itertools.combinations` order by size."""
    nv, dims = sc.graph.n_vertices, sc.vertex_dims(sector)
    out = []
    for r in range(1, nv + 1):
        for xs in itertools.combinations(range(nv), r):
            away, on_c = cut_products(sc, sector, sum(1 << x for x in xs))
            if away <= math.prod(dims[x] for x in xs) * on_c:
                out.append(xs)
    return out


def fixed_spin_reference(sc: Scenario, sector: int) -> FixedSpinReport:
    """The flip criteria of one sector, region by region.

    Regions come from itertools.combinations, cut links from
    `cut_reference` and S2 of each reduction from `einsum_sigma`.  The
    left side is the swapped-variant link energy (the cut toggled on C)
    less that of the empty set, prod_C d divided out, in exponents by
    `links_log_reference`; the necessary list is `necessary_reference`,
    in integers.
    """
    g = sc.graph
    report = FixedSpinReport(sector=sector, passed=True,
                             necessary_failing=necessary_reference(sc, sector))
    for r in range(1, g.n_vertices + 1):
        for xs in itertools.combinations(range(g.n_vertices), r):
            cut = set(cut_reference(g, set(xs)))
            lhs = links_log_reference(sc, sector, cut ^ set(sc.region_C), sc.region_C)
            rhs = einsum_sigma(sc, sector, sector, sum(1 << x for x in xs))
            if math.isclose(lhs, rhs, abs_tol=EQUALITY_TOL):
                report.degenerate.append((xs, lhs, rhs))
                report.passed = False
            elif lhs < rhs:
                report.failing.append((xs, lhs, rhs))
                report.passed = False
    return report


def ground_reference(sc: Scenario, m: int, variant: int) -> tuple[int, int, int, int | None]:
    """The ground state of the pair (m, m) in integers, where its sigma_I
    is constant (every vertex of dimension 1) and Delta pins nothing:
    each configuration's Boltzmann weight is 1 / prod_{cut} d, the cut
    toggled on C in variant 1.  Returns the first configuration of least
    product, that product, how many configurations share it, and the next
    larger product (None if there is none)."""
    prods = [math.prod(cut_products(sc, m, config, bool(variant)))
             for config in range(1 << sc.graph.n_vertices)]
    least = min(prods)
    return (prods.index(least), least, prods.count(least),
            min((p for p in prods if p > least), default=None))


def tie_chains() -> list[Scenario]:
    """One-sector chains (the "chain" template, 1x1 bulk state, so sigma_I
    is 0 on every set) whose swapped-variant ground products tie between
    configurations whose log sums differ in the last bit, the earlier
    configuration holding the larger float: 2 * 9 = 6 * 3 (configurations
    6 and 7) and 6 * 3 * 4 * 2 = 6 * 4 * 6 (0 and 6)."""
    graph = _template("chain")
    out = []
    for twice, region_C in (
            ((1, 5, 5, 2, 8, 0, 4, 8, 3, 0), ("b2", "b4", "b5", "b6")),
            ((0, 1, 3, 4, 5, 3, 2, 5, 3, 1), ("b2", "b4", "b6", "b7"))):
        out.append(Scenario(graph, [Sector(dict(zip(graph.link_ids(), twice)))], {},
                            {(0, 0): np.ones((1, 1), complex)}, region_C, "high_spin"))
    return out


def base_reference(sc: Scenario) -> tuple[int, ...]:
    """The engine's base of a scenario: `coprime_base` of every sector's
    link and vertex dimensions (the convention that `tests/test_spins.py`
    pins), so that a link energy converts as the engine's does."""
    return coprime_base({dim_rep(tj) for sec in sc.sectors for tj in sec.spins.values()}
                        | {d for s in range(len(sc.sectors)) for d in sc.vertex_dims(s)})


def exponents_reference(d: int, base: tuple[int, ...]) -> list[int]:
    """Per base element b, the largest k with b^k dividing d."""
    return [max(k for k in range(d.bit_length() + 1) if d % b**k == 0) for b in base]


def links_log_reference(sc: Scenario, sector: int, links, less=()) -> float:
    """log of prod 2j+1 of sector over `links` (over `less` divided out),
    in exponents summed link by link in `link_ids()` order, then converted
    as `_Plan.log_of` does: sum_b e_b log b, term by term in base order."""
    base = base_reference(sc)
    exps = [0] * len(base)
    for lid in sc.graph.link_ids():
        for sign, group in ((1, links), (-1, less)):
            if lid in group:
                d = dim_rep(sc.spin(sector, lid))
                exps = [e + sign * k for e, k in zip(exps, exponents_reference(d, base))]
    out = 0.0
    for e, b in zip(exps, base):
        out += e * math.log(b)
    return out


def link_terms_reference(
    sc: Scenario, m: int, n: int, config: int, variant: int
) -> tuple[bool, float]:
    """Delta and the link energy of one configuration, link by link.

    S is the set of swapped vertices; in variant 1 the C half-edges are
    pinned swapped.  Delta needs equal spins in m and n on every half-edge
    whose vertex is swapped against its pinning (sigma * h = -1).  An
    internal link whose spins differ is no Delta constraint: swapped at
    one end it has no hybrid sector (sigma_I is +inf), swapped at both its
    term stands.  The energy is log prod 2j+1 of sector m over the links
    cut, `cut_reference(S)` with C toggled in variant 1, by
    `links_log_reference`.
    """
    g = sc.graph
    down = {x for x in range(g.n_vertices) if config >> x & 1}
    cut = set(cut_reference(g, down)) ^ (set(sc.region_C) if variant else set())
    touched = {lid for lid in cut if not g.is_internal(lid)}
    ok = all(sc.spin(m, lid) == sc.spin(n, lid) for lid in touched)
    return ok, links_log_reference(sc, m, cut)


def terms_reference(sc: Scenario) -> list[dict]:
    """The rows of `rstn analyze --terms`, in its order: per (pair,
    configuration, variant) that Delta admits with a finite energy,
    Delta and the link energy from `link_terms_reference` and sigma_I
    from `einsum_sigma`."""
    nv, n_sec = sc.graph.n_vertices, len(sc.sectors)
    return [
        {"m": m, "n": n, "config": [x for x in range(nv) if c >> x & 1],
         "variant": v, "energy": e}
        for m in range(n_sec) for n in range(n_sec)
        for c in range(1 << nv) for v in (0, 1)
        for ok, link in [link_terms_reference(sc, m, n, c, v)]
        if ok and (e := link + einsum_sigma(sc, m, n, c)) != math.inf
    ]


def region_difference_reference(sc: Scenario, m: int, config: int) -> float:
    """H_1 - H_0 of a configuration of the pair (m, m): sigma_x log(2j+1)
    of sector m summed over the C half-edges, sigma_x = -1 where their
    vertex x is swapped."""
    return sum((-1 if config >> b.vertex & 1 else 1)
               * math.log(dim_rep(sc.spin(m, f"b{k}")))
               for k, b in enumerate(sc.graph.boundary) if f"b{k}" in sc.region_C)


def subset_traces(a, b, row_dims, col_dims, whole: int = 0) -> np.ndarray:
    """Tr(A_S B_S) for every vertex set S, indexed by bitmask, by the
    engine's stacked fill (`_fill_traces` with one task): A maps the col
    factors to the row factors and B back, b=None stands for B = A^H
    (then the traces are real), and the sets missing a vertex of `whole`
    (it must hold all whose dims differ) get 0."""
    dims = tuple(row_dims), tuple(col_dims), whole
    blocks = {"a": dims}
    if b is not None:
        blocks["b"] = (*dims, True)  # B^T, given as B
    t = np.zeros((1,) + (2,) * len(row_dims), float if b is None else complex)
    plan = _fill_plan(blocks, [(0, whole, [(whole, "a", None if b is None else "b")])],
                      len(row_dims))
    _fill_traces(t, {"a": a, "b": b}.get, plan)
    return t.ravel()


def _planes_reference(mat, dims, maps, t: int) -> np.ndarray:
    """(re, im) of `mat` in the operator basis, of mat^T for t = 1;
    `dims` are the live (row, col) dims of the untransposed matrix."""
    n = len(dims[0])
    view = np.ascontiguousarray(mat, dtype=complex).view(float)
    order = [j for i in reversed(range(n)) for j in (i + t * n, i + (1 - t) * n)]
    arr = view.reshape(dims[t] + dims[1 - t] + [2])
    return _per_vertex(arr.transpose(order + [2 * n]),
                       [pair[0] for pair in maps]).reshape(2, -1)


def subset_traces_reference(a, b, row_dims, col_dims, whole: int = 0) -> np.ndarray:
    """Tr(A_S B_S) for every vertex set S, one axis per vertex: axis k is
    vertex V-1-k, index 1 where it is in S (length 1 for a unit vertex,
    of row and col dim 1, outside `whole`), as the engine computed them
    one call per block pair before its stacked fill.

    A and B^T go to the operator basis at every vertex (the identity at
    the vertices of `whole`, which are never traced: the sets missing
    one get 0), are multiplied elementwise, as complex numbers or
    (b=None) as |alpha|^2, and reduced vertex by vertex.
    """
    live = [x for x in range(len(row_dims))
            if row_dims[x] * col_dims[x] > 1 or whole >> x & 1]
    maps = [(np.eye(row_dims[x] * col_dims[x]),
             np.outer([0.0, 1.0], np.ones(row_dims[x] * col_dims[x])))
            if whole >> x & 1 else _vertex_maps(row_dims[x]) for x in reversed(live)]
    dims = ([row_dims[x] for x in live], [col_dims[x] for x in live])
    reduce = [pair[1] for pair in maps]
    if b is None:  # B^T = conj(A)
        alpha = _planes_reference(a, dims, maps, 0)
        prod = np.square(alpha[0])
        prod += np.square(alpha[1])
        out = _per_vertex(prod, reduce)
    else:
        prod = _interleave(_planes_reference(a, dims, maps, 0))
        prod *= _interleave(_planes_reference(b, dims, maps, 1))
        out = _interleave(_per_vertex(prod.view(float), reduce).reshape(2, -1))
    return out.reshape([2 if x in live else 1 for x in reversed(range(len(row_dims)))])


def sigma_build_reference(engine: IsingEngine, m: int, n: int) -> np.ndarray:
    """sigma_I of the pair (m, n) for all 2^V swapped sets, one block pair
    at a time, as the engine built it before its stacked fill.

    Swapping S pairs the blocks (m, q) and (n, q'), q with the tuples
    of m off S and of n on S, q' the other way round.  Only the part T
    of S where m and n differ fixes the pair, so each T is one
    `subset_traces_reference` call on the blocks traced by
    `engine._reduced` over the split vertices outside T, written into
    its slab of the per-vertex trace table: the sets S with S & split =
    T.  Absent (zero) blocks are skipped; NaN marks a trace that is not
    real.
    """
    cm, cn = engine._c[m], engine._c[n]
    if cm <= 0.0 or cn <= 0.0:
        return np.full(1 << engine.n_vert, math.inf)
    full, agree = (1 << engine.n_vert) - 1, engine._plan.agree
    t = np.zeros((2,) * engine.n_vert, dtype=complex)  # axis 0: vertex V-1
    split = full & ~agree[m][n]
    hybrids = [q for q in range(engine.n_sec)  # m or n at every vertex
               if agree[q][m] | agree[q][n] == full]
    partner = {split & ~agree[q][n]: q for q in hybrids}
    for q in hybrids:
        swapped = split & ~agree[q][m]
        q2 = partner.get(swapped)
        if not {(m, q), (n, q2)} <= engine._plan.present:
            continue
        keep = full & ~split | swapped
        # traced vertices become factors of dim 1
        rows, cols = ([d if keep >> x & 1 else 1 for x, d in
                       enumerate(engine._vdims[s])] for s in (m, q))
        b = None if m == n else engine._reduced(n, q2, keep)
        vals = subset_traces_reference(engine._reduced(m, q, keep), b, rows, cols,
                                       whole=swapped)
        slab = tuple(swapped >> x & 1 if split >> x & 1 else slice(None)
                     for x in reversed(range(engine.n_vert)))
        t[slab] = vals[slab]
    t = t.reshape(-1)
    re, im = t.real, t.imag
    sigma = re / (cm * cn)
    pos = sigma > 0.0
    np.negative(np.log(sigma, out=sigma, where=pos), out=sigma)
    sigma[np.invert(pos, out=pos)] = math.inf
    # not real: |im| > SIGMA_IMAG_TOL * max(1, |re|)
    tol = np.maximum(np.abs(re, out=re), 1.0, out=re)
    tol *= SIGMA_IMAG_TOL
    sigma[np.greater(np.abs(im, out=im), tol, out=pos)] = math.nan
    sigma[0] = 0.0  # nothing swapped: t = c_m c_n
    return sigma


def vertex_stream(seed: int, vertex: int) -> np.random.Generator:
    """The stream of one vertex's states: a Generator on
    Philox(key=[seed, vertex]), built by key alone."""
    return np.random.Generator(np.random.Philox(key=[seed, vertex]))


def draw_vertex_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    """The next Haar state of dimension dim on a vertex's stream: dim
    complex normals, real and imaginary parts interleaved, normalised.  One
    draw at a time, where `rstn.oracle._draw_states` fills a block of them."""
    pairs = rng.standard_normal(2 * dim)
    v = pairs[0::2] + 1j * pairs[1::2]
    return v / np.linalg.norm(v)


def schur_moment_error(dim: int, n_samples: int = 10_000, seed: int = 3) -> float:
    """Operator-norm error of the empirical doubled second Haar moment of
    `rstn.oracle.mc_purity`'s sampler: the first n_samples states
    `_draw_states` gives on vertex 0's stream.  The exact value is
    (identity + swap) / (D (D + 1))."""
    v = _draw_states(_stream(seed, 0), n_samples, dim)
    emp = np.einsum("ma,mb,mc,md->abcd", v, v.conj(), v, v.conj()) / n_samples
    ident = np.einsum("ab,cd->abcd", np.eye(dim), np.eye(dim))
    swap = np.einsum("ad,cb->abcd", np.eye(dim), np.eye(dim))
    exact = (ident + swap) / (dim * (dim + 1))
    diff = (emp - exact).reshape(dim * dim, dim * dim)
    return float(np.linalg.norm(diff, 2))

def _sector_boundary_tensor(
    sc: Scenario, s: int, psi: list[dict[tuple[int, ...], np.ndarray]],
    contract=np.einsum,
) -> np.ndarray:
    """Contract one sector's vertex states over the internal links.

    Returns a tensor with one intertwiner index per vertex followed by
    one index per boundary link (in boundary id order).
    """
    g = sc.graph
    pool = iter(LETTERS)
    iota = {x: next(pool) for x in range(g.n_vertices)}
    leg: dict[tuple[int, int], str] = {}
    for x in range(g.n_vertices):
        for c in range(1, 5):
            leg[(x, c)] = next(pool)
    operands, subs = [], []
    for x in range(g.n_vertices):
        tup = sc.vertex_tuple(s, x)
        operands.append(psi[x][tup])
        subs.append(iota[x] + "".join(leg[(x, c)] for c in range(1, 5)))
    for k, ln in enumerate(g.internal):
        tj = sc.spin(s, f"i{k}")
        e = _pair_state(tj, sc.amplitude(f"i{k}", tj)).conj()
        operands.append(e)
        subs.append(leg[(ln.source, ln.color)] + leg[(ln.target, ln.color)])
    out = "".join(iota[x] for x in range(g.n_vertices))
    out += "".join(leg[(b.vertex, b.color)] for b in g.boundary)
    return contract(",".join(subs) + "->" + out, *operands)


def mc_purity_reference(
    sc: Scenario, n_samples: int = 5000, seed: int = 7
) -> MCResult:
    """`rstn.oracle.mc_purity` one sample at a time, as it was written
    before samples were batched: per sample, contract the network with
    an np.einsum per sector, weight the intertwiner indices with rho^I,
    reduce to the boundary, and record Tr[rho_C^2] and (Tr rho)^2.
    Same Philox streams, same caps, same jackknife.  Each contraction
    path is found on the first sample and reused.
    """
    if n_samples < 1:
        raise ValueError(f"need at least one sample, got {n_samples}")
    g = sc.graph
    n_sec = len(sc.sectors)
    nv = g.n_vertices
    c_pos = [k for k, _ in enumerate(g.boundary) if f"b{k}" in set(sc.region_C)]
    rest = [k for k in range(len(g.boundary)) if k not in c_pos]

    layouts = [_vertex_layout(sc, x) for x in range(nv)]
    dims_x = [
        sum(di * int(np.prod(legs)) for di, legs in layouts[x][0])
        for x in range(nv)
    ]
    if max(dims_x) > 512:
        raise SizeCapError(
            f"vertex space dimension {max(dims_x)} exceeds the sampling cap "
            f"of 512"
        )
    # einsum indices of _sector_boundary_tensor and of rho_c below
    indices = max(5 * nv, 2 * nv + 2 * len(c_pos) + len(rest))
    if indices > len(LETTERS):
        raise SizeCapError(
            f"{indices} einsum indices exceed the {len(LETTERS)} the "
            f"sampling contraction can name"
        )

    def c_spins(s: int) -> tuple[int, ...]:
        return tuple(sc.spin(s, f"b{k}") for k in c_pos)

    def rest_spins(s: int) -> tuple[int, ...]:
        return tuple(sc.spin(s, f"b{k}") for k in rest)

    def blk(srow: int, scol: int) -> np.ndarray:
        b = sc.block(srow, scol)
        return b.reshape(
            tuple(sc.vertex_dims(srow)) + tuple(sc.vertex_dims(scol))
        )

    paths: dict[tuple, list] = {}

    def contract(subscripts: str, *operands: np.ndarray) -> np.ndarray:
        key = (subscripts,) + tuple(op.shape for op in operands)
        if key not in paths:
            paths[key] = np.einsum_path(subscripts, *operands,
                                        optimize="greedy")[0]
        return np.einsum(subscripts, *operands, optimize=paths[key])

    streams = [vertex_stream(seed, x) for x in range(nv)]
    nums = np.empty(n_samples)
    dens = np.empty(n_samples)
    for it in range(n_samples):
        psi: list[dict[tuple[int, ...], np.ndarray]] = []
        for x in range(nv):
            slices, tuples = layouts[x]
            vec = draw_vertex_state(streams[x], dims_x[x])
            parts = {}
            off = 0
            for (di, legs), tup in zip(slices, tuples):
                size = di * int(np.prod(legs))
                parts[tup] = vec[off:off + size].reshape((di,) + legs)
                off += size
            psi.append(parts)
        a = [_sector_boundary_tensor(sc, s, psi, contract)
             for s in range(n_sec)]

        def rho_c(s_ket: int, s_bra: int) -> np.ndarray | None:
            """C-block of the boundary state from sector pair, or None."""
            if rest_spins(s_ket) != rest_spins(s_bra):
                return None
            # rho_d[b, b'] = sum rho^I[(s_bra I1),(s_ket I2)]
            #                    A_{s_ket}[I2 b] conj(A_{s_bra}[I1 b'])
            r = blk(s_bra, s_ket)
            pool = iter(LETTERS)
            i1 = [next(pool) for _ in range(nv)]
            i2 = [next(pool) for _ in range(nv)]
            cidx = [next(pool) for _ in c_pos]
            cpidx = [next(pool) for _ in c_pos]
            eidx = [next(pool) for _ in rest]
            bidx_ket = [None] * len(g.boundary)
            bidx_bra = [None] * len(g.boundary)
            for j, k in enumerate(c_pos):
                bidx_ket[k] = cidx[j]
                bidx_bra[k] = cpidx[j]
            for j, k in enumerate(rest):
                bidx_ket[k] = eidx[j]
                bidx_bra[k] = eidx[j]
            sub = (
                "".join(i1) + "".join(i2) + ","
                + "".join(i2) + "".join(bidx_ket) + ","
                + "".join(i1) + "".join(bidx_bra)
                + "->" + "".join(cidx) + "".join(cpidx)
            )
            val = contract(sub, r, a[s_ket], a[s_bra].conj())
            nc = int(np.prod([dim_rep(t) for t in c_spins(s_ket)])) if c_pos else 1
            ncp = int(np.prod([dim_rep(t) for t in c_spins(s_bra)])) if c_pos else 1
            return val.reshape(nc, ncp)

        blocks: dict[tuple[int, int], np.ndarray] = {}
        for sk in range(n_sec):
            for sb in range(n_sec):
                rc = rho_c(sk, sb)
                if rc is not None:
                    blocks[(sk, sb)] = rc
        tr = 0.0
        for (sk, sb), rc in blocks.items():
            if c_spins(sk) == c_spins(sb) and rc.shape[0] == rc.shape[1]:
                tr += np.trace(rc).real
        # Tr rho_C^2 pairs blocks whose C spin profiles line up crosswise
        num = 0.0
        for (sk, sb), rc in blocks.items():
            for (sk2, sb2), rc2 in blocks.items():
                if c_spins(sb) == c_spins(sk2) and c_spins(sb2) == c_spins(sk):
                    num += np.einsum("ab,ba->", rc, rc2).real
        dens[it] = tr * tr
        nums[it] = num
    mean_num = nums.mean()
    mean_den = dens.mean()
    ratio = mean_num / mean_den
    n = n_samples
    stderr = math.nan  # a single sample leaves the jackknife undefined
    if n > 1:
        jack = (nums.sum() - nums) / (dens.sum() - dens)
        stderr = math.sqrt((n - 1) / n * ((jack - jack.mean()) ** 2).sum())
    return MCResult(ratio, stderr, n, mean_num, mean_den)


class DressedTermReference:
    """The exact oracle's per-term dressing as `rstn.oracle._RawTerms`
    ran it before its per-pair factor tables: every term looks up the
    spins, amplitudes and (memoised) trace factors of its pair again."""

    def __init__(self, sc: Scenario):
        g = sc.graph
        self.sc = sc
        region = set(sc.region_C)
        self.bounds = [
            (f"b{k}", b.vertex, f"b{k}" in region)
            for k, b in enumerate(g.boundary)
        ]
        self.links = [
            (f"i{k}", ln.source, ln.target) for k, ln in enumerate(g.internal)
        ]
        self.boundary_trace = functools.cache(boundary_trace)
        self.link_trace = functools.cache(link_swap_trace)

    def _dressed(
        self, total: complex, m: int, n: int, down: frozenset[int], variant: int
    ) -> float:
        """An intertwiner trace times the boundary and link traces."""
        if total == 0.0:
            return 0.0
        sc = self.sc
        for lid, vertex, in_c in self.bounds:
            swapped = (vertex in down) != (variant == 1 and in_c)
            total *= self.boundary_trace(
                sc.spin(m, lid), sc.spin(n, lid), swapped
            )
            if total == 0.0:
                return 0.0
        for lid, source, target in self.links:
            tj, tk = sc.spin(m, lid), sc.spin(n, lid)
            total *= self.link_trace(
                tj, tk,
                sc.amplitude(lid, tj), sc.amplitude(lid, tk),
                source in down, target in down,
            )
            if total == 0.0:
                return 0.0
        if abs(total.imag) > IMAG_TOL * max(1.0, abs(total.real)):
            raise NumericalError(f"configuration term is not real: {total}")
        return float(total.real)


def exact_term(
    sc: Scenario, m: int, n: int, config: int, variant: int
) -> float:
    """One configuration's contribution to Z_variant^{(m,n)}, raw."""
    raw = _RawTerms(sc)
    return _dressed(raw.intertwiner(m, n, config), raw.factor_table(m, n)[variant], config)


def exact_purity_reference(sc: Scenario) -> tuple[float, float, float]:
    """`rstn.oracle.exact_purity` with the package's intertwiner traces,
    each term dressed by `DressedTermReference`, summed in the same order."""
    raw, ref = _RawTerms(sc), DressedTermReference(sc)
    n_sec, nv = len(sc.sectors), sc.graph.n_vertices
    z0 = z1 = 0.0
    for m, n, config in itertools.product(range(n_sec), range(n_sec), range(1 << nv)):
        down = frozenset(x for x in range(nv) if config >> x & 1)
        itw = raw.intertwiner(m, n, config)
        z0 += ref._dressed(itw, m, n, down, 0)
        z1 += ref._dressed(itw, m, n, down, 1)
    return z1 / z0, z1, z0


def json_load_reference(path: str) -> Scenario:
    """The scenario of a JSON file, parsed whole by `json.loads` and then
    read by `scenario_from_dict`, with `load_scenario`'s error for bad JSON."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text, object_pairs_hook=_distinct_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    return scenario_from_dict(data)
