"""Constrained two-level model over vertex flips.

Averaging the doubled random network over its vertex states leaves a
sum over configurations sigma in {+1,-1}^V per ordered sector pair
(m, n): copy one carries the spins of m, copy two those of n, and
sigma_x records whether the two copies are swapped at vertex x.

    Z_v^{(m,n)} = sum_sigma  Delta(m,n,sigma) * exp(-H_v(m,n,sigma))

with v = 0 (normalization) or 1 (region C swapped at the boundary).
Purity of C is then a quotient of K-weighted sums of these.

Configurations are ints; bit x set means sigma_x = -1 (swapped).
Energies are natural logs; +inf marks an excluded configuration.  A link
energy is stated once, in integers: the exponents of prod 2j+1 over a
coprime base (`IsingEngine._link_exponents`), converted once (`_Plan.log_of`).

Links of both kinds share one table in `graph.link_ids()` order; their
ends and the one cut rule are the graph's (`ColoredGraph.ends`, `.cuts`).

Z_v^{(m,n)} = Z_v^{(n,m)} (Delta's pins are symmetric in m and n, a
link whose spins differ pays nothing where Delta admits and sigma_I is
finite, Tr(A_S B_S) = Tr(B_S A_S)), so an engine evaluates each unordered
pair once and keeps the n_sec^2 results, mirrored, as its pair table,
which purity, P, Q and the error bound read.  It is built on first use
in one pass over tiles of at most 2^TILE_BITS configurations x pairs:
`IsingEngine._terms`, where Delta, the link energies of all sectors
and sigma_I meet, fills a (pairs, 2, configs) energy/keep table, one
row per pair and variant; the ground scan carries its state across
chunks, and each exact chunk sums to one aligned subtree of its row's
log-sum tree.  `rstn analyze --terms` lists it by pair.
The bulk term sigma_I is one float array per unordered pair over all
2^V swapped sets, built on first use for all pairs m <= n at once,
max(1, 2^TILE_BITS >> V) pairs a tile.  Each block is transformed once
a tile and orientation to a per-vertex operator basis whose component
0 is the trace (whole where its sectors differ), so Tr(A_S B_S) for
all S reads component 0 at the traced vertices, multiplies and reduces
per vertex to [traced, kept] (Rains' quantum weight enumerators; Yates'
subset transform), skipping vertices of dimension 1; blocks, and
products, whose vertex dims agree are stacked along a batch axis, and
each vertex step is one real matrix product over both planes.  Run
backwards (`_subset_adjoint`), the transform gives G = sum_S alpha_S
rho_S (x) 1, whose dot with a direction X is sum_S alpha_S Tr(rho_S
X_S): `purity_gradient` reads it from the engine, which builds it once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from rstn.logdomain import LogWeight, log_sum_rows, log_sum_tree
from rstn.spins import coprime_base, dim_rep
from rstn.state import Scenario, SizeCapError, adjoint_close

SIGMA_IMAG_TOL = 1e-9
TIE_TOL = 1e-12
CHUNK_BITS = 14  # configurations per chunk, at most
TILE_BITS = 18  # configurations x pairs per pair-table tile, at most
MAX_CONFIG_PAIRS = 2**24  # 2^V configurations x n_sec^2 ordered pairs
COND_CAP = 1e12  # Q is singular past this condition number


class NumericalError(ValueError):
    """A numerical failure (exit code 6): a bulk-state trace that Delta
    admits or an exact-oracle term is not real, or the normalization vanishes."""


def _survives(configs, pins: tuple[int, int]):
    """Delta test of an int array of configurations against the (up,
    down) vertex pins of one pair and variant."""
    up, down = pins
    return ((configs & up) == 0) & ((configs & down) == down)


def _partial_trace(mat: np.ndarray, row_dims, col_dims, keep: int):
    """`mat` (col factors to row factors) traced over the vertices
    outside `keep`, which need equal row and column dims."""
    arr = mat.reshape(*row_dims, *col_dims)
    for x in reversed(range(len(row_dims))):  # lower axes stay in place
        if not keep >> x & 1 and row_dims[x] > 1:  # dim 1: nothing to trace
            arr = arr.trace(axis1=x, axis2=arr.ndim // 2 + x)
    return arr.reshape(math.prod(arr.shape[:arr.ndim // 2]), -1)


@functools.cache
def _vertex_maps(r: int):
    """Change of basis and [traced, kept] reduction at a vertex of dim r.

    Basis row 0 is vec(I), so component 0 is the trace; rows 1.. are
    those of the Householder reflection taking vec(I)/sqrt(r) to e_0.
    Tracing keeps the product of the components 0, keeping sums all
    products (component 0 weighted 1/r).
    """
    eye = np.eye(r).ravel()
    v = eye / math.sqrt(r) - np.eye(1, r * r)[0]
    basis = np.eye(r * r) - np.outer(v, v) * (2.0 / (v @ v or 1.0))
    basis[0] = eye
    kept = np.r_[1.0 / r, np.ones(r * r - 1)]
    return basis, np.vstack([np.eye(1, r * r), kept])


@functools.lru_cache(maxsize=1 << 12)
def _layout(row_dims: tuple, col_dims: tuple, whole: int = 0, t: bool = False):
    """The vertices a block's transform maps (dim above 1 outside `whole`),
    highest first, their `_vertex_maps`, and the reshape and transpose of
    `_planes` (given the block's transpose for t)."""
    live = [x for x in range(len(row_dims)) if row_dims[x] * col_dims[x] > 1]
    n, dims = len(live), [[d[x] for x in live] for d in (row_dims, col_dims)]
    axes = [[1 + live.index(x) + j for x in reversed(live) if whole >> x & 1 == w
             for j in ((n, 0) if t else (0, n))] for w in (0, 1)]
    mapped = [x for x in reversed(live) if not whole >> x & 1]
    return (mapped, [_vertex_maps(row_dims[x]) for x in mapped],
            [-1] + dims[t] + dims[1 - t], axes[0] + [0] + axes[1])


def _per_vertex(arr: np.ndarray, mats) -> np.ndarray:
    """One map per live vertex; each step maps the leading axis to the
    back, so that its output is laid out for the next step."""
    for mat in mats:
        arr = arr.reshape(len(mat[0]), -1).T @ mat.T
    return arr


def _planes(mat: np.ndarray, layout) -> np.ndarray:
    """A block as its (row, col) factors of the mapped vertices, then one
    complex batch axis (the whole vertices), copied only where that axis
    needs it.  Gathered contiguous and viewed as floats, re/im innermost,
    the batch axis is what `_per_vertex` carries along and leaves leading."""
    arr = np.asarray(mat, dtype=complex).reshape(layout[2]).transpose(layout[3])
    return arr.reshape(arr.shape[:2 * len(layout[0])] + (-1,))


def _fill_plan(blocks: dict, pairs, n: int) -> tuple:
    """The bookkeeping of `_fill_traces`, from dims alone, for the tasks
    (swapped, a, b) of each row (row, split, tasks) of an n-vertex table:
    `blocks` maps a to (row dims, col dims, whole = swapped) of A and b to
    the same of B^T, given as B (t=True last); b=None stands for B = A^H.
    Blocks whose mapped vertices have the same dims form one stack, tasks
    whose free vertices (outside split) do one group, reduced as one."""
    stacks, alpha, groups = {}, {}, {}
    for key, dims in blocks.items():
        mapped, maps, shape, axes = layout = _layout(*dims)
        lead = tuple(shape[a] for a in axes[:2 * len(mapped)])
        s, _, items, ends = stacks.setdefault(lead, (len(stacks), maps, [], [0]))
        items.append((key, layout))
        ends.append(ends[-1] + math.prod(dims[0]) * math.prod(dims[1]) // math.prod(lead))
        alpha[key] = s, slice(*ends[-2:]), mapped, maps
    cplx = {k for _, _, tasks in pairs for _, a, b in tasks if b for k in (a, b)}
    for row, split, tasks in pairs:
        *_, mapped, maps = alpha[tasks[0][1]]  # the free vertices of every task
        free = [maps[k][1] for k, x in enumerate(mapped) if not split >> x & 1]
        shape = [1 + (x in mapped) for x in reversed(range(n)) if not split >> x & 1]
        for swapped, a, b in tasks:
            traced = split & ~swapped  # read component 0 there: the trace
            za, zb = ((s, (span,) + tuple(0 if traced >> x & 1 else slice(None) for x in xs))
                      for s, span, xs, _ in (alpha[a], alpha[b or a]))
            kept = tuple(len(basis) for (basis, _), x in zip(alpha[a][3], alpha[a][2])
                         if not traced >> x & 1)
            slab = (row,) + tuple(swapped >> x & 1 if split >> x & 1 else slice(None)
                                  for x in reversed(range(n)))
            group = groups.setdefault((b is None, kept), (free, [], [0]))
            group[1].append((slab, shape, za, zb if b else None))
            group[2].append(group[2][-1] + alpha[a][1].stop - alpha[a][1].start)
    return ([(maps, items, bool(cplx & {key for key, _ in items}))
             for _, maps, items, _ in stacks.values()],
            [(real, free, np.array(ends[:-1]), items)
             for (real, _), (free, items, ends) in groups.items()])


def _fill_traces(t: np.ndarray, block, plan: tuple) -> None:
    """Tr(A_S B_S) of the tasks of a `_fill_plan` into their slabs S & split
    = swapped of t (rows, 2, ..., 2; axis 1 is vertex V-1), `block(key)`
    the matrix of each block; whole components lie along the batch axis
    of the stacks' transforms and products, summed at the end."""
    stacks, groups = plan
    parts, prods = [], []
    for maps, items, cplx in stacks:
        arr = [_planes(block(key), layout) for key, layout in items]
        arr = np.ascontiguousarray(np.concatenate(arr, -1) if arr[1:] else arr[0]).view(float)
        for basis, _ in maps:  # `_per_vertex`, the input freed as it goes
            arr = arr.reshape(len(basis), -1).T @ basis.T
        arr = arr.reshape([-1, 2] + [len(b) for b, _ in maps]).swapaxes(0, 1)
        z = _interleave(arr) if cplx else None
        arr = arr if z is None else (z.real, z.imag)  # drops the planes
        parts.append([z, np.square(arr[0])])
        parts[-1][1] += np.square(arr[1])  # re^2 + im^2, in place
    for real, _, _, items in groups:
        prods.append([])
        for _, _, (s, index), b in items:
            za = parts[s][real][index]  # |alpha|^2, or alpha where complex
            prod = za if real else (za * parts[b[0]][0][b[1]]).view(float)
            prods[-1].append(prod.reshape(len(za), -1, 1 if real else 2))
    parts = arr = z = za = prod = None  # free the transforms
    for (real, reduce, offsets, items), group in zip(groups, prods):
        stack = (np.concatenate(group) if group[1:] else group[0]).swapaxes(0, 1)
        out = _per_vertex(stack, reduce).reshape(stack.shape[1], stack.shape[2], -1)
        out = np.add.reduceat(out, offsets)
        for (slab, shape, *_), vals in zip(items, out[:, 0] if real
                                          else _interleave(out.swapaxes(0, 1))):
            t[slab] = vals.reshape(shape)


def _subset_adjoint(a: np.ndarray, weights: np.ndarray, dims) -> np.ndarray:
    """G^H for G = sum_S w_S A_S (x) 1 over all vertex sets S of a square
    A with per-vertex dims `dims` (w indexed by bitmask), so that
    np.vdot(G^H, B) = Tr(G B) = sum_S w_S Tr(A_S B_S) for every B.

    `_fill_traces` run backwards in B: A goes to the operator basis,
    the transposed [traced, kept] reductions take w (summed over the
    bits of the vertices of dim 1, which the transform skips) to one
    weight per basis element, and their product goes back through the
    transposed basis maps, with the re/im planes held apart as a batch
    axis.  Peak memory: two and a half times the size of A beside A.
    """
    n = len(dims)
    mapped, maps, *_ = layout = _layout(tuple(dims), tuple(dims))
    d = [dims[x] for x in reversed(mapped)]
    w = np.reshape(weights, (2,) * n).sum(axis=tuple(n - 1 - x for x in range(n)
                                                     if x not in mapped))
    arr = _per_vertex(np.ascontiguousarray(_planes(a, layout)).view(float),
                      [basis for basis, _ in maps]).reshape(2, -1)
    arr = arr * _per_vertex(w, [pair[1].T for pair in maps]).ravel()
    for basis, _ in maps:
        arr = arr.reshape(2, len(basis), -1).transpose(0, 2, 1) @ basis
    # re/im, then (row, col) per live vertex, highest first: to G^H
    arr = arr.reshape([2] + [k for x in reversed(d) for k in (x, x)])
    pos = [2 * (len(d) - x) for x in range(len(d))]  # col axes, lowest vertex first
    arr[1] *= -1.0
    out = np.ascontiguousarray(arr.transpose(pos + [p - 1 for p in pos] + [0]))
    return out.view(complex).reshape(math.prod(d), -1)


def _interleave(planes: np.ndarray) -> np.ndarray:
    """The complex array of (re, im) planes along the leading axis."""
    return planes.transpose([*range(1, planes.ndim), 0]).copy().view(complex)[..., 0]


@dataclass(frozen=True)
class PairResult:
    """Partition data of one ordered sector pair."""

    m: int
    n: int
    z0: LogWeight
    z1: LogWeight
    ground_config: tuple[int, int] = (0, 0)  # argmin config per variant
    ground_energy: tuple[float, float] = (math.inf, math.inf)
    degeneracy: tuple[int, int] = (1, 1)
    gap: tuple[float, float] = (math.inf, math.inf)


@dataclass(frozen=True)
class Quotients:
    """The quotients of an engine's pair table (`IsingEngine.quotients`)."""

    table: np.ndarray  # log K_m K_n Z_v^{(m,n)}, (2, n_sec, n_sec), read-only
    total: float  # log of the variant-0 total; -inf: the normalization vanishes
    log_purity: float
    q: np.ndarray  # Z_1/Z_0 dim(H_C), 0 where either vanishes; read-only
    dim_H_C: int
    singular: bool  # a zero entry in Q, or a condition number over COND_CAP
    inverse_sum: float | None  # the sum of Q's inverse, where not singular


class _GroundScan:
    """The ground-state update of rows of energies (+inf: excluded), fed
    chunk by chunk in configuration order, some `rows` at a time; each
    row ends in the state of the sequential loop over its finite energies

        if e < best * (1 - TIE_TOL) - TIE_TOL:  second, best, degen = best, e, 1
        elif isclose(e, best):                   degen += 1
        elif e < second:                         second = e

    Only a new best moves `best`.  While a row's energies are non-negative
    the threshold never exceeds `best`, so a new best undercuts every
    earlier energy and only running minima (below `floor`, the least
    energy fed so far) need the Python test (after a negative energy no
    non-negative one can be a new best).  After the last new best the
    loop is a count and a min."""

    def __init__(self, rows: int):
        self.best, self.second, self.floor = np.full((3, rows), math.inf)
        self.config, self.degen = np.zeros(rows, np.int64), np.ones(rows, np.int64)

    def feed(self, e: np.ndarray, configs: np.ndarray, rows: np.ndarray) -> None:
        best, second, floor = (a[rows] for a in (self.best, self.second, self.floor))
        low = e.min(axis=1, initial=math.inf)
        before = np.minimum.accumulate(np.c_[floor, e[:, :-1]], axis=1)
        kept = e != math.inf
        tries = np.nonzero((e < before) | (kept & (low < 0.0)[:, None]))
        best, last = best.tolist(), [-1] * len(e)
        for r, i, x in zip(*(a.tolist() for a in (*tries, e[tries]))):
            if x < best[r] * (1 - TIE_TOL) - TIE_TOL:
                second[r], best[r], last[r] = best[r], x, i
        best, last = np.array(best), np.array(last, dtype=np.int64)
        moved = last >= 0
        self.config[rows[moved]] = configs[last[moved]]
        tail = kept & (np.arange(e.shape[1]) > last[:, None])
        e = np.where(tail, e, 0.0)  # a row without a best has no tail
        diff = np.abs(best[:, None] - e)
        close = tail & ((e == best[:, None]) | (diff <= np.abs(TIE_TOL * best)[:, None])
                        | (diff <= np.abs(TIE_TOL * e)) | (diff <= TIE_TOL))
        self.degen[rows] = np.where(moved, 1, self.degen[rows]) + close.sum(axis=1)
        rest = np.where(tail & ~close, e, math.inf).min(axis=1, initial=math.inf)
        self.best[rows], self.second[rows] = best, np.minimum(second, rest)
        self.floor[rows] = np.minimum(floor, low)


PLAN_CAP = 32  # structures kept
_plans: dict = {}  # structure key -> _Plan, least recently used first


class _Plan:
    """What engines read of a scenario's structure alone (the key of
    `_plans`: the graph, each sector's twice-spins in `graph.link_ids()`
    order, region C, the given block keys), read-only: the link table
    (`on_C`, per sector `twice`; the paying links, 2j+1 > 1 in some sector,
    with their cut flip per variant and `pay_exps`, the exponents of 2j+1
    per base element, sector and link over `base`, the `coprime_base` of
    every link and vertex dimension, whose logs `log_base` holds in base
    order; `vertex_exps`, those of each sector's vertex dimensions, 0 for
    a dimension 0; both integers held in float64, which is exact: an
    exponent is below log2(2j+1), so every sum of them is an integer far
    below 2^53); `pins[m, n]`, per variant the vertices Delta pins (up,
    down): of half-edges whose spins differ (a leg swapped between the
    copies, sigma_s * h = -1, needs equal spins) up, of C half-edges down
    in variant 1 (h = -1 on C), nothing else, as in both oracles;
    `agree[p][q]`, the vertices at no end of a differing link; `tiles`,
    the sigma_I fill plan of every pair m <= n (`_sigma_tiles`), so that
    an engine's fill reads only values.

    An internal link whose spins differ pins nothing: swapped at both ends,
    each copy's ket meets the other copy's bra, a hybrid sector that carries
    the exchanged spins there, and the term stands; swapped at one end, no
    hybrid sector exists, so the bulk trace is 0 and sigma_I is +inf, which
    the fill gives by having no task for that set."""

    def __init__(self, sc: Scenario, ids: list[str], twice: tuple):
        ends, n = sc.graph.ends, len(twice)
        self.on_C, self.twice = np.array([lid in sc.region_C for lid in ids]), np.array(twice)
        self.half_edge = np.bitwise_count(ends) == 1
        self.pay = np.flatnonzero(self.twice.any(axis=0))
        self.pay_flips = self.on_C[self.pay, None, None] * np.uint8([[0], [1]])  # C swapped
        vdims = [sc.vertex_dims(s) for s in range(n)]
        dims = {dim_rep(tj) for row in twice for tj in row} | set(sum(vdims, ()))
        base = coprime_base(dims)
        self.log_base = np.array([math.log(b) for b in base])
        exps = {d: [next(k for k in range(d.bit_length()) if d % b ** (k + 1)) if d else 0
                    for b in base] for d in dims}  # the multiplicity of b in d
        self.pay_exps = np.ascontiguousarray(np.array(
            [[exps[dim_rep(row[k])] for k in self.pay] for row in twice], float,
        ).reshape(n, len(self.pay), len(base)).transpose(2, 0, 1))
        self.vertex_exps = np.array([[exps[d] for d in row] for row in vdims], float)
        differ = np.where(self.twice[:, None] != self.twice, ends, 0)
        up, down = (np.bitwise_or.reduce(np.where(on, differ, 0), axis=-1)
                    for on in (self.half_edge & ~self.on_C, self.on_C))
        self.pins = np.stack([up | down, 0 * up, up, down], -1).reshape(n, n, 2, 2)
        for arr in vars(self).values():  # all arrays, so far
            arr.flags.writeable = False
        self.base, self.vdims = base, vdims
        self.agree = ((1 << sc.graph.n_vertices) - 1
                      & ~np.bitwise_or.reduce(differ, axis=-1)).tolist()
        self.given = frozenset(sc.blocks)
        self.present = frozenset(k for key in sc.blocks for k in (key, key[::-1]))
        self.dim_H_C = sc.dim_H_C()
        self.tiles = self._sigma_tiles(sc.graph.n_vertices)

    def log_of(self, exps: np.ndarray) -> np.ndarray:
        """sum_b e_b log b over the base, axis 0 of `exps`: term by term in
        base order, one elementwise step each, so that every entry is a
        function of its own exponents, whatever the array's layout."""
        return sum((row * log_b for row, log_b in zip(exps, self.log_base)),
                   np.zeros(exps.shape[1:]))

    def _sigma_tiles(self, n_vert: int) -> list:
        """The pairs m <= n in tiles of max(1, 2^TILE_BITS >> V) with the
        `_fill_plan` of their tasks.  Swapping S pairs blocks (m, q) and
        (n, q'), q with the tuples of m off S and of n on S, q' the other way
        round; only the part T of S where m and n differ fixes the pair: each
        hybrid q (m or n at every vertex) whose blocks are given is one task,
        whole at T; B = A^H if it is (q, m) given once."""
        n_sec, full, dims, agree = len(self.vdims), (1 << n_vert) - 1, self.vdims, self.agree
        pairs = [(m, n) for m in range(n_sec) for n in range(m, n_sec)]
        step, tiles = max(1, (1 << TILE_BITS) >> n_vert), []
        for lo in range(0, len(pairs), step):
            tile, tasks, blocks = pairs[lo:lo + step], [], {}
            for row, (m, n) in enumerate(tile):
                am, an = agree[m], agree[n]
                split = full & ~am[n]
                hybrids = [q for q in range(n_sec) if am[q] | an[q] == full]
                partner = {split & ~an[q]: q for q in hybrids}
                pair = []
                for q in hybrids:
                    swapped = split & ~am[q]
                    q2 = partner.get(swapped)
                    if (m, q) not in self.present or (n, q2) not in self.present:
                        continue
                    herm = m == n or ((q, q2) == (n, m)  # B = A^H exactly
                                      and not {(m, n), (n, m)} <= self.given)
                    a, b = (m, q, 0), None if herm else (n, q2, 1)
                    blocks.setdefault(a, (dims[m], dims[q], swapped))
                    if b:  # B^T, given as B
                        blocks.setdefault(b, (dims[q2], dims[n], swapped, True))
                    pair.append((swapped, a, b))
                tasks.append((row, split, pair))
            tiles.append((tile, _fill_plan(blocks, [task for task in tasks if task[2]],
                                           n_vert)))
        return tiles


class IsingEngine:
    """Constrained Ising sums of one scenario, with per-engine caches.

    The pair table, per-pair sigma_I arrays, gradient operator, `Quotients`
    (all read-only) and flip-criteria reports (tuples, per sector) live on
    the engine and die with it.  A Scenario is frozen with read-only blocks, so the caches
    stay valid for its whole life: `IsingEngine.of(sc)` is the one engine
    every consumer shares, while the constructor builds a fresh, unshared one.

    The work is 2^V enumeration steps and 8 bytes of sigma_I for each
    of the n_sec(n_sec+1)/2 unordered pairs; the cap counts ordered
    ones: more than MAX_CONFIG_PAIRS (2^24) configurations x ordered
    sector pairs raises SizeCapError before anything is built.

    The link table, Delta pins, vertex dims, dim H_C and sigma-fill plan
    are the `_Plan` of the scenario's structure (in `_plans`, the PLAN_CAP
    last used); per engine are only values: c_m, log|g|^2 (`_log_g2`), log
    Ktilde (`_log_kt`, `log_K_tilde`), the blocks and all that reads them,
    down to the sigma_I finish (log, negation, the test for a non-real trace).
    """

    def __init__(self, sc: Scenario):
        work = len(sc.sectors) ** 2 << sc.graph.n_vertices
        if work > MAX_CONFIG_PAIRS:
            raise SizeCapError(
                f"{len(sc.sectors)}^2 sector pairs x 2^{sc.graph.n_vertices} "
                f"configurations = {work} exceeds the enumeration cap of "
                f"{MAX_CONFIG_PAIRS} configurations x ordered sector pairs"
            )
        self.sc = sc
        self.n_vert = sc.graph.n_vertices
        self.n_sec = len(sc.sectors)
        self._sigma_cache: dict[tuple[int, int], np.ndarray] = {}
        self._table: dict[tuple[int, int], PairResult] | None = None
        self._gradient: tuple[np.ndarray, float] | None = None
        self._quotients: Quotients | None = None
        self._flip_reports: dict = {}  # `holography._flip_report`, per sector
        ids = sc.graph.link_ids()
        twice = tuple(tuple(map(sec.spins.__getitem__, ids)) for sec in sc.sectors)
        key = (sc.graph, twice, sc.region_C, frozenset(sc.blocks))
        _plans[key] = plan = self._plan = _plans.pop(key, None) or _Plan(sc, ids, twice)
        while len(_plans) > PLAN_CAP:  # the least recently used goes
            del _plans[next(iter(_plans))]
        self._vdims = plan.vdims
        g2 = np.ones(plan.twice.shape)  # |g|^2 = 1 where no amplitude is given
        for k, lid in enumerate(ids):
            for tj, amp in sc.amplitudes.get(lid, {}).items():
                g2[plan.twice[:, k] == tj, k] = abs(amp) ** 2
        self._log_g2 = np.log(g2, out=np.full(g2.shape, -math.inf), where=g2 > 0.0)
        self._log_kt = (plan.log_of(plan.pay_exps[..., plan.half_edge[plan.pay]].sum(-1))
                        + np.where(plan.half_edge, 0.0, self._log_g2).sum(1)).tolist()
        self._c = [sc.c_norm(s) for s in range(self.n_sec)]

    @staticmethod
    def of(sc: Scenario) -> IsingEngine:
        """The scenario's shared engine, built on first use and kept on
        the scenario itself, so that it lives exactly as long."""
        if "_engine" not in sc.__dict__:
            object.__setattr__(sc, "_engine", IsingEngine(sc))
        return sc._engine

    # -- sector weights ------------------------------------------------------

    def log_K_tilde(self, m: int) -> float:
        """log of the sector weight without the bulk-state norm c_m:
        log(2j+1) per half-edge plus log|g|^2 per internal link."""
        return self._log_kt[m]

    def log_K(self, m: int) -> float:
        c = self._c[m]
        if c <= 0.0:
            return -math.inf
        return self.log_K_tilde(m) + math.log(c)

    # -- bulk-state entropy term ---------------------------------------------

    def sigma_I(self, m: int, n: int, down: int) -> float:
        """Entropy-like energy of the bulk state for swapped set `down`, a bitmask.

        -log of a normalized trace of two partially-traced,
        sector-projected reductions of rho^I; 0 when nothing is
        swapped, the Renyi-2 entropy of the reduction to `down` when
        m = n, +inf when the trace vanishes (excluded configuration).
        """
        val = float(self._sigma_array(m, n)[down])
        if math.isnan(val):
            raise NumericalError(f"bulk-state trace for pair ({m},{n}) and "
                                 f"swapped set {down:#b} is not real")
        return val

    def _sigma_array(self, m: int, n: int) -> np.ndarray:
        """sigma_I of every swapped set of the pair, indexed by bitmask;
        NaN marks a trace that is not real.  (m, n) and (n, m) read that of
        (min, max); the first call fills every pair m <= n in one
        `_sigma_fill`, so that no value depends on the order of calls."""
        if not self._sigma_cache:
            self._sigma_fill()
        return self._sigma_cache[min(m, n), max(m, n)]

    def _reduced(self, row: int, col: int, keep: int) -> np.ndarray:
        """Block rho_{row,col} traced over the vertices outside `keep`;
        kept for perfbench (see `_reduce_square`)."""
        return _partial_trace(self.sc.block(row, col), self._vdims[row],
                              self._vdims[col], keep)

    def _sigma_fill(self) -> None:
        """sigma_I of every pair m <= n, read-only into `_sigma_cache`, by the
        plan's tiles; the test for a non-real trace in t's planes."""
        for tile, plan in self._plan.tiles:
            t = np.zeros((len(tile),) + (2,) * self.n_vert, dtype=complex)
            _fill_traces(t, lambda key: self.sc.block(*key[:2]), plan)
            c = np.array([[self._c[m] * self._c[n] if min(self._c[m], self._c[n]) > 0.0
                           else math.inf] for m, n in tile])
            re, im = (part.reshape(len(tile), -1) for part in (t.real, t.imag))
            sigma = re / c
            pos = sigma > 0.0
            np.negative(np.log(sigma, out=sigma, where=pos), out=sigma)
            sigma[np.invert(pos, out=pos)] = math.inf
            tol = np.maximum(np.abs(re, out=re), 1.0, out=re)  # max(1, |re|)
            tol *= SIGMA_IMAG_TOL
            sigma[np.greater(np.abs(im, out=im), tol, out=pos)] = math.nan  # not real
            sigma[:, 0] = 0.0  # t = c_m c_n
            sigma[c[:, 0] == math.inf] = math.inf  # c_m or c_n <= 0: all +inf, NaN too
            sigma.flags.writeable = False
            self._sigma_cache.update(zip(tile, sigma))
            t = re = im = tol = pos = None  # free before the next tile

    # -- energies ------------------------------------------------------------

    def _link_exponents(self, configs: np.ndarray) -> np.ndarray:
        """Link exponents of each configuration, (base, n_sec, 2, k), per base
        element, sector and variant: those of prod 2j+1 over the links cut,
        which in variant 1, where the C half-edges are pinned swapped, flips
        on C.  A pair reads the spins of its first sector: where its two
        sectors differ on a link, no configuration that Delta admits with
        finite sigma_I cuts it (Delta pins a half-edge's vertex, sigma_I is
        +inf where an internal link is swapped at one end only).  One product
        of `_Plan.pay_exps` with the 0/1 cut table: a sum of integers, exact
        in float64 (see `_Plan`), so its order does not matter."""
        paid = self.sc.graph.cuts(configs, self._plan.pay)[:, None] ^ self._plan.pay_flips
        return np.tensordot(self._plan.pay_exps, paid, 1)

    def _link_energies(self, configs: np.ndarray) -> np.ndarray:
        """Link energy of each configuration, (n_sec, 2, k): the log of prod
        2j+1 over the links cut, `_Plan.log_of` its `_link_exponents`, so a
        function of the exponent vector alone."""
        return self._plan.log_of(self._link_exponents(configs))

    def _chunks(self, n_pairs: int = 1):
        """Consecutive ranges of 2^k configurations (CHUNK_BITS, TILE_BITS)."""
        size = min(1 << self.n_vert, 1 << CHUNK_BITS,
                   max(1, (1 << TILE_BITS) >> (n_pairs - 1).bit_length()))
        return (np.arange(lo, lo + size) for lo in range(0, 1 << self.n_vert, size))

    # -- partition sums ------------------------------------------------------

    def _terms(self, pairs: list[tuple[int, int]]):
        """Yields (configs, energy, keep) per `_chunks` of the ordered
        `pairs`: energy (pairs, 2, k) is link energy plus sigma_I per
        variant, keep marks where Delta survives and the energy is finite.
        Raises ValueError first if Delta admits a non-real bulk trace."""
        pins = self._plan.pins[tuple(zip(*pairs))]
        sigmas = [self._sigma_array(m, n) for m, n in pairs]
        for (m, n), pin, sigma in zip(pairs, pins, sigmas):
            if np.isnan(sigma).any():
                bad = np.flatnonzero(np.isnan(sigma))
                for config in bad[_survives(bad[:, None], pin.T).any(axis=1)].tolist():
                    self.sigma_I(m, n, config)  # raises: trace not real
        for configs in self._chunks(len(pairs)):
            ok = _survives(configs, (pins[:, :, 0, None], pins[:, :, 1, None]))
            sigma = np.stack([s[configs[0]:configs[-1] + 1] for s in sigmas])[:, None]
            energy = self._link_energies(configs)[[p[0] for p in pairs]] + sigma
            yield configs, energy, ok & (energy != math.inf)

    def terms(self, m: int, n: int):
        """`_terms` of the ordered pair (m, n) alone, energy and keep (2, k)."""
        return ((configs, e[0], k[0]) for configs, e, k in self._terms([(m, n)]))

    def _pair_table(self) -> dict[tuple[int, int], PairResult]:
        """The n_sec^2 rows, m-major: one `_GroundScan` over the rows of
        `_terms`, Z from the ground state or (exact) the log sum of each
        row's chunk sums, aligned subtrees of its one tree (`rstn.logdomain`)."""
        pairs = [(m, n) for m in range(self.n_sec) for n in range(m, self.n_sec)]
        scan, sums = _GroundScan(2 * len(pairs)), []
        for configs, energy, keep in self._terms(pairs):
            e = np.where(keep, energy, math.inf).reshape(2 * len(pairs), -1)
            live = np.flatnonzero(keep.reshape(len(e), -1).any(axis=1))
            scan.feed(e[live], configs, live)
            if self.sc.mode == "exact":
                sums.append(log_sum_rows(-e))
        best, second, degen = (a.tolist() for a in (scan.best, scan.second, scan.degen))
        logz = (log_sum_rows(np.stack(sums, 1)) if sums
                else [-b + math.log(d) for b, d in zip(best, degen)])
        gap = [s - b if b != math.inf else s for s, b in zip(second, best)]
        fields = (np.reshape(a, (-1, 2)).tolist()
                  for a in (logz, scan.config, best, degen, gap))
        upper = {pair: (*map(LogWeight, z), *map(tuple, rest))
                 for pair, z, *rest in zip(pairs, *fields)}
        return {(m, n): PairResult(m, n, *upper[min(m, n), max(m, n)])
                for m in range(self.n_sec) for n in range(self.n_sec)}

    def partition_pair(self, m: int, n: int) -> PairResult:
        """The row of (m, n) in the pair table, which is built on first use."""
        self._table = self._table or self._pair_table()
        return self._table[m, n]

    def all_pairs(self) -> list[PairResult]:
        """The pair table, m-major: each unordered pair evaluated once, by
        `partition_pair`."""
        if self._table is None:
            for m in range(self.n_sec):
                for n in range(m, self.n_sec):
                    self.partition_pair(m, n)
        return list(self._table.values())

    def gradient_operator(self) -> tuple[np.ndarray, float]:
        """(G^H, Re Tr(G rho)) of a single-sector scenario, built on first
        use; G^H is read-only.

        G = sum_S alpha_S rho_S (x) 1 over all vertex sets S, alpha_S =
        exp(-variant-1 link energy of S), is the operator with Tr(G X) =
        sum_S alpha_S Tr(rho_S X_S) (`_subset_adjoint`); np.vdot(G^H, X)
        is Tr(G X).  It takes 16 bytes per entry of the block.
        """
        if self.n_sec != 1:
            raise ValueError("gradient is defined for single-sector scenarios")
        if self._gradient is None:
            alpha = np.exp(-np.concatenate(
                [self._link_energies(configs)[0, 1] for configs in self._chunks()]))
            rho = self.sc.block(0, 0)
            op = _subset_adjoint(rho, alpha, self._vdims[0])
            op.flags.writeable = False
            self._gradient = (op, float(np.vdot(op, rho).real))
        return self._gradient

    # -- observable quotients ------------------------------------------------

    def quotients(self) -> Quotients:
        """The `Quotients` of the pair table, derived on first use and kept."""
        if self._quotients is None:
            n = self.n_sec
            logK = np.array([self.log_K(m) for m in range(n)])
            z = np.array([[r.z0.log, r.z1.log] for r in self.all_pairs()])
            table = (logK[:, None] + logK) + z.T.reshape(2, n, n)
            total = log_sum_tree(table[0].ravel())
            dim = self._plan.dim_H_C
            q = np.reshape([math.exp(z1 - z0) * dim if -math.inf not in (z0, z1)
                            else 0.0 for z0, z1 in z.tolist()], (n, n))
            singular = bool(np.any(q == 0.0) or np.linalg.cond(q) > COND_CAP)
            table.flags.writeable = q.flags.writeable = False
            self._quotients = Quotients(
                table, total, log_sum_tree(table[1].ravel()) - total, q, dim,
                singular, None if singular else float(np.linalg.inv(q).sum()))
        return self._quotients

    def _log_weights(self) -> tuple[np.ndarray, float]:
        """The quotients' table and total; NumericalError where it vanishes."""
        rec = self.quotients()
        if rec.total == -math.inf:
            raise NumericalError("normalization sum vanishes")
        return rec.table, rec.total

    def distribution(self) -> np.ndarray:
        """P(m, n) proportional to K_m K_n Z_0^{(m,n)}, normalized."""
        table, total = self._log_weights()
        return np.exp(table[0] - total)

    def log_purity(self) -> float:
        self._log_weights()
        return self._quotients.log_purity

    def purity(self) -> float:
        return math.exp(self.log_purity())

    def error_bound(self) -> float:
        """Crude bound on the relative weight of excited configurations."""
        gap = min(min(r.gap) for r in self.all_pairs())
        return ((1 << self.n_vert) - 1) * math.exp(-gap)  # 0.0 if no gap


def _reduce_square(mat: np.ndarray, dims: list[int],
                   down: frozenset[int]) -> np.ndarray:
    """Square `mat` traced over the vertices outside `down`.  Nothing in
    rstn calls it or `IsingEngine._reduced`; perfbench's span tracer
    wraps both by name for its `ising.reduction_bytes`."""
    return _partial_trace(mat, dims, dims, sum(1 << x for x in down))


def purity_gradient(sc: Scenario, direction: np.ndarray) -> float:
    """Directional derivative of the swapped sum along a bulk-state move.

    For a single-sector scenario the swapped partition sum is a smooth
    functional of the bulk state,

        F(rho) = sum_S alpha_S Tr[rho_S^2] / (Tr rho)^2,

    over vertex subsets S, with alpha_S the product of 1/(2j+1) over
    the links cut by S xor marked as C (but not both): exp of minus
    the variant-1 link energy.  This returns d/d eps F(rho + eps X) at
    eps = 0 for a Hermitian direction X,

        2 / (Tr rho)^2 (Tr(G X) - Tr X / Tr rho Tr(G rho)),

    with G = sum_S alpha_S rho_S (x) 1 the scenario's gradient operator
    (`IsingEngine.gradient_operator`): built once per scenario, so each
    direction costs the checks below and one dot product over the block.
    The derivative along X = rho itself is exactly 0: F is scale
    invariant, and Tr(G rho) is taken by the same dot.
    """
    if len(sc.sectors) != 1:
        raise ValueError("gradient is defined for single-sector scenarios")
    rho = sc.block(0, 0)
    x = np.asarray(direction, dtype=complex)
    if x.shape != rho.shape:
        raise ValueError(f"direction shape {x.shape} != state {rho.shape}")
    if not np.isfinite(x).all():
        raise ValueError("direction must be finite and Hermitian")
    if not adjoint_close(x, x, 1e-12):  # validation's rule for the blocks
        raise ValueError("direction must be Hermitian")
    op, c0 = IsingEngine.of(sc).gradient_operator()
    tr_rho = float(np.trace(rho).real)
    along = float(np.vdot(op, x).real)
    return 2.0 / tr_rho**2 * (along - float(np.trace(x).real) / tr_rho * c0)
