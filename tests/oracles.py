"""Independent reference computations used by the tests.

Everything here is deliberately derived by a different route than the
package code: invariant-subspace dimensions by weight counting and by
a Casimir null space, the two-vertex benchmark partition sums as
frozen closed forms, the two-sector area variance in exact rational
arithmetic, gradients by central finite differences, partial traces
by one np.einsum per subset (and sigma_I from them), the pairwise
log-sum as a scalar loop, the fixed-spin flip criteria and the
`analyze --terms` rows by one Python pass per region or configuration,
Delta and the link energies link by link from `cut_reference` (the
cut rule on Python sets), the bulk-boundary energy and the boundary
factor by one pass over the links, and the Monte Carlo purity one
sample at a time.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from rings import ring_dict
from rstn.families import (
    appendix_c,
    once_fine_grained,
    random_scenario,
    tiny_generic,
    two_sector,
)
from rstn.graph import ColoredGraph
from rstn.holography import EQUALITY_TOL, FixedSpinReport
from rstn.ising import IsingEngine, SizeCapError, down_set
from rstn.oracle import (
    LETTERS,
    MCResult,
    _draw_vertex_state,
    _pair_state,
    _vertex_layout,
)
from rstn.spins import dim_rep, intertwiner_dimension
from rstn.state import Scenario, scenario_from_dict


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
            vertex_product=sc.vertex_product,
        )
        return swapped_sum_of(perturbed)

    return (value(step) - value(-step)) / (2 * step)


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


def brute_force_subsets(n: int) -> list[frozenset[int]]:
    return [
        frozenset(c)
        for r in range(n + 1)
        for c in itertools.combinations(range(n), r)
    ]


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
    """The pairwise log-sum as a scalar loop over each tree level."""
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


def fixed_spin_reference(sc: Scenario, sector: int) -> FixedSpinReport:
    """The flip criteria of one sector, region by region.

    Regions come from itertools.combinations, cut links from
    `cut_reference` and S2 of each reduction from `einsum_sigma`.
    """
    g = sc.graph
    logd = {
        lid: math.log(dim_rep(sc.spin(sector, lid))) for lid in g.link_ids()
    }
    log_D = [math.log(d) for d in sc.vertex_dims(sector)]
    report = FixedSpinReport(sector=sector, passed=True)
    for r in range(1, g.n_vertices + 1):
        for xs in itertools.combinations(range(g.n_vertices), r):
            lhs = 0.0
            for lid in cut_reference(g, set(xs)):
                lhs += -logd[lid] if lid in sc.region_C else logd[lid]
            rhs = einsum_sigma(sc, sector, sector, sum(1 << x for x in xs))
            if lhs <= sum(log_D[x] for x in xs):
                report.necessary_failing.append(xs)
            if math.isclose(lhs, rhs, abs_tol=EQUALITY_TOL):
                report.degenerate.append((xs, lhs, rhs))
                report.passed = False
            elif lhs < rhs:
                report.failing.append((xs, lhs, rhs))
                report.passed = False
    return report


def bulk_boundary_reference(
    g: ColoredGraph, spins: dict[str, int], config: int,
    bulk_field: dict[int, int] | int = 1,
) -> float:
    """`hamiltonian_bulk_boundary` by one pass over each kind of link:
    half-edges at swapped vertices, internal links with one swapped end,
    then log D at the vertices swapped against their bulk field."""
    total = 0.0
    for k, b in enumerate(g.boundary):
        if config >> b.vertex & 1:
            total += math.log(dim_rep(spins[f"b{k}"]))
    for k, ln in enumerate(g.internal):
        if (config >> ln.source & 1) != (config >> ln.target & 1):
            total += math.log(dim_rep(spins[f"i{k}"]))
    for x in range(g.n_vertices):
        bx = bulk_field if isinstance(bulk_field, int) else bulk_field.get(x, 1)
        if (-1 if config >> x & 1 else 1) * bx == -1:
            slots = {ln.color: f"i{k}" for k, ln in enumerate(g.internal)
                     if x in (ln.source, ln.target)}
            slots.update({b.color: f"b{k}" for k, b in enumerate(g.boundary)
                          if b.vertex == x})
            dim = intertwiner_dimension(tuple(spins[slots[c]] for c in range(1, 5)))
            if dim == 0:
                return math.inf
            total += math.log(dim)
    return total


def boundary_factor_reference(sc: Scenario, x_obs, y_obs, m: int, n: int,
                              config: int) -> float:
    """`observables.boundary_factor` half-edge by half-edge."""
    log = x_obs.log_eval(sc, m) + y_obs.log_eval(sc, n)
    for k, b in enumerate(sc.graph.boundary):
        if config >> b.vertex & 1:
            log -= math.log(dim_rep(sc.spin(m, f"b{k}")))
    return log


def link_terms_reference(
    sc: Scenario, m: int, n: int, config: int, variant: int
) -> tuple[bool, float]:
    """Delta and the link energy of one configuration, link by link.

    S is the set of swapped vertices; in variant 1 the C half-edges are
    pinned swapped.  Delta needs equal spins in m and n on every link
    with a swapped end: an internal link with an end in S, a half-edge
    whose vertex is swapped against its pinning (sigma * h = -1).  A
    vertex-product state also needs every vertex in S to carry equal
    spins on all its links.  The energy is log(2j+1) of sector m
    summed over the links cut, `cut_reference(S)` with C toggled in
    variant 1.
    """
    g = sc.graph
    down = {x for x in range(g.n_vertices) if config >> x & 1}
    cut = set(cut_reference(g, down)) ^ (set(sc.region_C) if variant else set())
    touched = {lid for lid in cut if not g.is_internal(lid)} | {
        f"i{k}" for k, ln in enumerate(g.internal)
        if {ln.source, ln.target} & down
    }
    ok = all(sc.spin(m, lid) == sc.spin(n, lid) for lid in touched)
    if sc.vertex_product:
        ok = ok and all(sc.vertex_tuple(m, x) == sc.vertex_tuple(n, x)
                        for x in down)
    energy = sum(math.log(dim_rep(sc.spin(m, lid)))
                 for lid in g.link_ids() if lid in cut)
    return ok, energy


def terms_reference(sc: Scenario) -> list[dict]:
    """The rows of `rstn analyze --terms`: one `delta_ok` and one
    `hamiltonian` call per (pair, configuration, variant)."""
    engine = IsingEngine(sc)
    return [
        {"m": m, "n": n, "config": sorted(down_set(c, engine.n_vert)),
         "variant": v, "energy": e}
        for m in range(engine.n_sec) for n in range(engine.n_sec)
        for c in range(1 << engine.n_vert) for v in (0, 1)
        if engine.delta_ok(m, n, c, v)
        and (e := engine.hamiltonian(m, n, c, v)) != math.inf
    ]


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

    nums = np.empty(n_samples)
    dens = np.empty(n_samples)
    for it in range(n_samples):
        psi: list[dict[tuple[int, ...], np.ndarray]] = []
        for x in range(nv):
            slices, tuples = layouts[x]
            vec = _draw_vertex_state(seed, x, it, dims_x[x])
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
