"""Constrained two-level model over vertex flips.

Averaging the doubled random network over its vertex states leaves a
sum over configurations sigma in {+1,-1}^V per ordered sector pair
(m, n): copy one carries the spins of m, copy two those of n, and
sigma_x records whether the two copies are swapped at vertex x.

    Z_v^{(m,n)} = sum_sigma  Delta(m,n,sigma) * exp(-H_v(m,n,sigma))

with v = 0 (normalization) or 1 (region C swapped at the boundary).
Purity of C is then a quotient of K-weighted sums of these.

Configurations are ints; bit x set means sigma_x = -1 (swapped).
Energies are natural logs; +inf marks an excluded configuration.

Links of both kinds share one table in `graph.link_ids()` order; their
ends and the one cut rule are the graph's (`ColoredGraph.ends`, `.cuts`).

Z_v^{(m,n)} = Z_v^{(n,m)} (Delta's pins are symmetric in m and n, a
link whose spins differ pays nothing where Delta admits, Tr(A_S B_S) =
Tr(B_S A_S)), so an engine evaluates each unordered pair once and
keeps the n_sec^2 results, mirrored, as its pair table, which purity,
P, Q and the error bound read.  It is built on first use in one pass
over tiles of at most 2^TILE_BITS configurations x pairs:
`IsingEngine._terms`, where Delta, the link energies of all sectors
and sigma_I meet, fills a (pairs, 2, configs) energy/keep table, one
row per pair and variant, and row-wise reductions carry their state
across chunks (segmented reductions: Blelloch, "Prefix Sums and Their
Applications", 1990).  `rstn analyze --terms` lists it by pair.
The bulk term sigma_I is one float array per pair over all 2^V swapped
sets, built on first use for all pairs on that side of the diagonal,
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
from dataclasses import dataclass, replace

import numpy as np

from rstn.logdomain import LogSums, LogWeight, log_sum_tree
from rstn.spins import dim_rep, intertwiner_dimension
from rstn.state import Scenario
from rstn.graph import ColoredGraph

SIGMA_IMAG_TOL = 1e-9
TIE_TOL = 1e-12
CHUNK_BITS = 14  # configurations per chunk, at most
TILE_BITS = 18  # configurations x pairs per pair-table tile, at most
MAX_CONFIG_PAIRS = 2**24  # 2^V configurations x n_sec^2 ordered pairs


class SizeCapError(RuntimeError):
    """Input too large to evaluate: for the engine, more than 2^24
    configurations x ordered sector pairs (exit code 4)."""


class NumericalError(ValueError):
    """A numerical failure inside the engine (exit code 6): a bulk-state
    trace that Delta admits is not real, or the normalization vanishes."""


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
            [-1] + dims[t] + dims[1 - t] + [2], axes[0] + [0] + axes[1] + [2 * n + 1])


def _per_vertex(arr: np.ndarray, mats) -> np.ndarray:
    """One map per live vertex; each step maps the leading axis to the
    back, so that its output is laid out for the next step."""
    for mat in mats:
        arr = arr.reshape(len(mat[0]), -1).T @ mat.T
    return arr


def _planes(mat: np.ndarray, layout) -> np.ndarray:
    """The float view of a block, its (row, col) factors of the mapped
    vertices first, then one batch axis (the whole vertices and re/im)
    that `_per_vertex` carries along and leaves leading."""
    arr = np.ascontiguousarray(mat, dtype=complex).view(float)
    arr = arr.reshape(layout[2]).transpose(layout[3])
    return arr.reshape(arr.shape[:2 * len(layout[0])] + (-1,))


def _fill_traces(t: np.ndarray, blocks: dict, pairs) -> None:
    """Tr(A_S B_S) of the tasks (swapped, a, b) of each pair (row, split,
    tasks) into their slabs S & split = swapped of t (rows, 2, ..., 2;
    axis 1 is vertex V-1).  `blocks` maps a to (A, row dims, col dims,
    whole = swapped) and b to the same of B^T, given as B (t=True last);
    b=None stands for B = A^H (real traces).  Blocks whose mapped vertices
    have the same dims are transformed as one stack; the products of
    tasks whose free vertices (outside split) do are reduced as one,
    whole components along the batch axis, summed at the end."""
    stacks, alpha, groups, n = {}, {}, {}, t.ndim - 1
    for key, (mat, *dims) in blocks.items():
        mapped, maps, *_ = layout = _layout(*dims)
        arr = _planes(mat, layout)
        stacks.setdefault(arr.shape[:-1], (maps, []))[1].append((arr, key, mapped))
    cplx = {k for _, _, tasks in pairs for _, a, b in tasks if b for k in (a, b)}
    for maps, items in stacks.values():  # |alpha|^2, and complex where needed
        arr = [item[0] for item in items]
        arr = np.concatenate(arr, -1) if arr[1:] else arr[0]
        for basis, _ in maps:  # `_per_vertex`, the input freed as it goes
            arr = arr.reshape(len(basis), -1).T @ basis.T
        arr = arr.reshape([-1, 2] + [len(b) for b, _ in maps]).swapaxes(0, 1)
        z = _interleave(arr) if cplx & {item[1] for item in items} else None
        arr = arr if z is None else (z.real, z.imag)  # drops the planes
        parts = [z, np.square(arr[0])]
        parts[1] += np.square(arr[1])  # re^2 + im^2, in place
        ends = np.cumsum([0] + [item[0].shape[-1] // 2 for item in items])
        for (_, key, mapped), lo, hi in zip(items, ends, ends[1:]):
            alpha[key] = parts, slice(lo, hi), mapped, maps
    for row, split, tasks in pairs:
        *_, mapped, maps = alpha[tasks[0][1]]  # the free vertices of every task
        free = [maps[k][1] for k, x in enumerate(mapped) if not split >> x & 1]
        shape = [1 + (x in mapped) for x in reversed(range(n)) if not split >> x & 1]
        for swapped, a, b in tasks:
            traced = split & ~swapped  # read component 0 there: the trace
            za, zb = (z[b is None][(span,) + tuple(0 if traced >> x & 1 else slice(None)
                                                   for x in xs) if traced else span]
                      for z, span, xs, _ in (alpha[a], alpha[b or a]))
            prod = (za * zb).view(float) if b else za  # re/im trailing if complex
            slab = (row,) + tuple(swapped >> x & 1 if split >> x & 1 else slice(None)
                                  for x in reversed(range(n)))
            groups.setdefault((b is None, za.shape[1:]), (free, []))[1].append(
                (slab, shape, prod.reshape(len(za), -1, 2 if b else 1)))
    stacks = arr = parts = alpha = z = za = zb = None  # free the transforms
    for (real, _), (reduce, items) in groups.items():
        prods = [item[2] for item in items]
        stack = (np.concatenate(prods) if prods[1:] else prods[0]).swapaxes(0, 1)
        out = _per_vertex(stack, reduce).reshape(stack.shape[1], stack.shape[2], -1)
        out = np.add.reduceat(out, np.cumsum([0] + [len(p) for p in prods[:-1]]))
        for (slab, shape, _), vals in zip(items, out[:, 0] if real
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
    arr = _per_vertex(_planes(a, layout), [basis for basis, _ in maps]).reshape(2, -1)
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


class IsingEngine:
    """Constrained Ising sums of one scenario, with per-engine caches.

    The pair table, the per-pair sigma_I arrays and the gradient
    operator (both read-only) live on the engine and die with it.  A
    Scenario is frozen with read-only blocks, so the caches stay valid
    for its whole life: `IsingEngine.of(sc)` is the one engine every
    consumer shares, while the constructor builds a fresh, unshared one.

    The work is 2^V enumeration steps and 8 bytes of sigma_I for each
    of the n_sec(n_sec+1)/2 unordered pairs; the cap counts ordered
    ones: more than MAX_CONFIG_PAIRS (2^24) configurations x ordered
    sector pairs raises SizeCapError before anything is built.

    The link table, in `graph.link_ids()` order beside the graph's
    `ends`: `_on_C`, and per sector `_twice`, `_logd` = log(2j+1) and
    `_log_g2` = log|g|^2 (internal links).  `_agree[p][q]` masks the
    vertices at no end of a link whose spins differ between sectors p
    and q.
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
        self._full = (1 << self.n_vert) - 1
        self._sigma_cache: dict[tuple[int, int], np.ndarray] = {}
        self._table: dict[tuple[int, int], PairResult] | None = None
        self._gradient: tuple[np.ndarray, float] | None = None
        ids = sc.graph.link_ids()
        self._on_C = np.isin(ids, sc.region_C)
        self._twice = np.array([[sec.spins[lid] for lid in ids]
                                for sec in sc.sectors])
        rows = self._twice.tolist()
        self._logd = np.array([[math.log(dim_rep(tj)) for tj in row]
                               for row in rows])
        g2 = np.array([[abs(sc.amplitude(lid, tj)) ** 2
                        for lid, tj in zip(ids, row)] for row in rows])
        self._log_g2 = np.log(g2, out=np.full(g2.shape, -math.inf),
                              where=g2 > 0.0)
        # per link and variant: C is pinned swapped in variant 1
        self._flips = np.array([[[0], [c]] for c in self._on_C], np.uint8)
        differ = self._twice[:, None, :] != self._twice[None, :, :]
        split = np.bitwise_or.reduce(np.where(differ, sc.graph.ends, 0), axis=-1)
        self._agree = (self._full & ~split).tolist()
        self._vdims = [sc.vertex_dims(s) for s in range(self.n_sec)]
        # (row, col) of every block given, either way round
        self._present = {k for key in sc.blocks for k in (key, key[::-1])}
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
        half_edge = np.bitwise_count(self.sc.graph.ends) == 1
        return float(np.where(half_edge, self._logd[m], self._log_g2[m]).sum())

    def log_K(self, m: int) -> float:
        c = self._c[m]
        if c <= 0.0:
            return -math.inf
        return self.log_K_tilde(m) + math.log(c)

    # -- constraint factor ---------------------------------------------------

    def _delta_masks(self, m: int, n: int) -> tuple[tuple[int, int], ...]:
        """Per variant, the vertices Delta pins (up, down) for pair (m, n).

        A link needs equal spins in both sectors whenever the two
        copies are swapped on one of its ends (for a half-edge: sigma_s
        * h = -1), so the ends of differing links are pinned up, those
        of differing C half-edges down in variant 1 (h = -1 on C).  A
        vertex-product bulk state also pins the split vertices up.
        """
        split = self._full & ~self._agree[m][n]
        differ = self._twice[m] != self._twice[n]
        up = int(np.bitwise_or.reduce(self.sc.graph.ends[differ & ~self._on_C]))
        down = int(np.bitwise_or.reduce(self.sc.graph.ends[differ & self._on_C]))
        if self.sc.vertex_product:
            up |= split
        return (split, 0), (up, down)

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
        NaN marks a trace that is not real.  Built on first use, in one
        `_sigma_fill` of the uncached pairs on its side of the diagonal,
        so that no value depends on the order of calls."""
        cache = self._sigma_cache
        if (m, n) not in cache:
            self._sigma_fill([p for p in np.ndindex(self.n_sec, self.n_sec)
                              if (p[0] <= p[1]) == (m <= n) and p not in cache])
        return cache[m, n]

    def _reduced(self, row: int, col: int, keep: int) -> np.ndarray:
        """Block rho_{row,col} traced over the vertices outside `keep`;
        kept for perfbench (see `_reduce_square`)."""
        return _partial_trace(self.sc.block(row, col), self._vdims[row],
                              self._vdims[col], keep)

    def _sigma_fill(self, pairs: list[tuple[int, int]]) -> None:
        """sigma_I of the ordered `pairs`, read-only into `_sigma_cache`.

        Swapping S pairs the blocks (m, q) and (n, q'), q with the tuples
        of m off S and of n on S, q' the other way round.  Only the part
        T of S where m and n differ fixes the pair: each hybrid q (m or n
        at every vertex) whose blocks are given is one `_fill_traces` task,
        whole at T; B = A^H when it is block (q, m) given one way only.
        The test for a trace that is not real runs in the table's planes."""
        step = max(1, (1 << TILE_BITS) >> self.n_vert)
        for lo in range(0, len(pairs), step):
            tile = pairs[lo:lo + step]
            t = np.zeros((len(tile),) + (2,) * self.n_vert, dtype=complex)
            tasks, blocks, sc, dims = [], {}, self.sc, self._vdims
            for row, (m, n) in enumerate(tile):
                if self._c[m] <= 0.0 or self._c[n] <= 0.0:
                    continue
                am, an = self._agree[m], self._agree[n]
                split = self._full & ~am[n]
                hybrids = [q for q in range(self.n_sec) if am[q] | an[q] == self._full]
                partner = {split & ~an[q]: q for q in hybrids}
                pair = []
                for q in hybrids:
                    swapped = split & ~am[q]
                    q2 = partner.get(swapped)
                    if (m, q) not in self._present or (n, q2) not in self._present:
                        continue
                    herm = m == n or ((q, q2) == (n, m)  # B = A^H exactly
                                      and not {(m, n), (n, m)} <= sc.blocks.keys())
                    a, b = (m, q, 0), None if herm else (n, q2, 1)
                    if a not in blocks:
                        blocks[a] = sc.block(m, q), dims[m], dims[q], swapped
                    if b and b not in blocks:  # B^T, given as B
                        blocks[b] = sc.block(n, q2), dims[q2], dims[n], swapped, True
                    pair.append((swapped, a, b))
                tasks.append((row, split, pair))
            _fill_traces(t, blocks, [task for task in tasks if task[2]])
            c = np.array([[self._c[m] * self._c[n] if min(self._c[m], self._c[n]) > 0.0
                           else math.inf] for m, n in tile])  # inf: all sigma inf
            re, im = (part.reshape(len(tile), -1) for part in (t.real, t.imag))
            sigma = re / c
            pos = sigma > 0.0
            np.negative(np.log(sigma, out=sigma, where=pos), out=sigma)
            sigma[np.invert(pos, out=pos)] = math.inf
            tol = np.maximum(np.abs(re, out=re), 1.0, out=re)  # max(1, |re|)
            tol *= SIGMA_IMAG_TOL
            sigma[np.greater(np.abs(im, out=im), tol, out=pos)] = math.nan  # not real
            sigma[:, 0] = np.where(c[:, 0] < math.inf, 0.0, math.inf)  # t = c_m c_n
            sigma.flags.writeable = False
            self._sigma_cache.update(zip(tile, sigma))
            t = re = im = tol = pos = None  # free before the next tile

    # -- energies ------------------------------------------------------------

    def _link_energies(self, configs: np.ndarray) -> np.ndarray:
        """Link energy of each configuration, (n_sec, 2, k), per sector and
        variant.  A link pays log(2j+1) when cut; in variant 1 the C
        half-edges are pinned swapped, so there the cut flips.  A pair
        reads the spins of its first sector; wherever the two sectors
        could disagree on a paying link, Delta has already forced
        agreement.  Terms are added in link order, but for spin-0 links,
        which pay 0.0 in every sector."""
        pay = np.flatnonzero(self._logd.any(axis=0))
        e = np.zeros((self.n_sec, 2, configs.size))
        for cut, logd, flip in zip(self.sc.graph.cuts(configs, pay), self._logd.T[pay],
                                   self._flips[pay]):
            e += logd[:, None, None] * (cut ^ flip).astype(float)
        return e

    def _chunks(self, n_pairs: int = 1):
        """Consecutive ranges of 2^k configurations (CHUNK_BITS, TILE_BITS)."""
        size = min(1 << self.n_vert, 1 << CHUNK_BITS,
                   max(1, (1 << TILE_BITS) >> (n_pairs - 1).bit_length()))
        return (np.arange(lo, lo + size) for lo in range(0, 1 << self.n_vert, size))

    def cut_weight(self, m: int, configs: np.ndarray) -> np.ndarray:
        """Sum of log(2j+1) of sector m over the links each configuration
        cuts, weighted -1 on C, added in link order."""
        total = np.zeros(configs.size)
        for cut, logd, on_c in zip(self.sc.graph.cuts(configs), self._logd[m],
                                   self._on_C):
            total += (-logd if on_c else logd) * cut
        return total

    # -- partition sums ------------------------------------------------------

    def _terms(self, pairs: list[tuple[int, int]]):
        """Yields (configs, energy, keep) per `_chunks` of the ordered
        `pairs`: energy (pairs, 2, k) is link energy plus sigma_I per
        variant, keep marks where Delta survives and the energy is finite.
        Raises ValueError first if Delta admits a non-real bulk trace."""
        pins = np.array([self._delta_masks(m, n) for m, n in pairs])
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
        `_terms`, Z from one `LogSums` (exact) or the ground state."""
        pairs = [(m, n) for m in range(self.n_sec) for n in range(m, self.n_sec)]
        scan, sums = _GroundScan(2 * len(pairs)), None
        for configs, energy, keep in self._terms(pairs):
            e = np.where(keep, energy, math.inf).reshape(2 * len(pairs), -1)
            live = np.flatnonzero(keep.reshape(len(e), -1).any(axis=1))
            scan.feed(e[live], configs, live)
            if self.sc.mode == "exact":
                sums = sums or LogSums(len(e), configs.size, 1 << self.n_vert)
                sums.feed(-e)
        best, second, degen = (a.tolist() for a in (scan.best, scan.second, scan.degen))
        logz = sums.total() if sums else [-b + math.log(d) for b, d in zip(best, degen)]
        gap = [s - b if b != math.inf else s for s, b in zip(second, best)]
        fields = (np.reshape(a, (-1, 2)).tolist()
                  for a in (logz, scan.config, best, degen, gap))
        upper = {(m, n): PairResult(m, n, *map(LogWeight, z), *map(tuple, rest))
                 for (m, n), z, *rest in zip(pairs, *fields)}
        return {(m, n): upper[m, n] if m <= n else replace(upper[n, m], m=m, n=n)
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

    def _log_weights(self) -> tuple[np.ndarray, float]:
        """log K_m K_n Z_v^{(m,n)} as a (2, n_sec, n_sec) table (-inf
        for a vanishing term), and the log of the variant-0 total."""
        logK = np.array([self.log_K(m) for m in range(self.n_sec)])
        z = np.array([[r.z0.log, r.z1.log] for r in self.all_pairs()])
        table = (logK[:, None] + logK) + z.T.reshape(2, self.n_sec, self.n_sec)
        total = log_sum_tree(table[0].ravel())
        if total == -math.inf:
            raise NumericalError("normalization sum vanishes")
        return table, total

    def distribution(self) -> np.ndarray:
        """P(m, n) proportional to K_m K_n Z_0^{(m,n)}, normalized."""
        table, total = self._log_weights()
        return np.exp(table[0] - total)

    def log_purity(self) -> float:
        table, total = self._log_weights()
        return log_sum_tree(table[1].ravel()) - total

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
    # |X - X^H| <= 1e-12 + 1e-5 |X^H| entrywise, in row blocks (the first
    # term alone settles the common case)
    step = max(1, (1 << CHUNK_BITS) // len(x))
    for lo in range(0, len(x), step):
        adj = x[:, lo:lo + step].conj().T
        skew = np.abs(x[lo:lo + step] - adj)
        if not (skew.max() <= 1e-12 or (skew <= 1e-12 + 1e-5 * np.abs(adj)).all()):
            raise ValueError("direction must be Hermitian")
    op, c0 = IsingEngine.of(sc).gradient_operator()
    tr_rho = float(np.trace(rho).real)
    along = float(np.vdot(op, x).real)
    return 2.0 / tr_rho**2 * (along - float(np.trace(x).real) / tr_rho * c0)


def hamiltonian_bulk_boundary(
    graph: ColoredGraph,
    spins: dict[str, int],
    config: int,
    bulk_field: dict[int, int] | int = 1,
) -> float:
    """Single-sector energy with a pinning field on the vertices.

    Boundary half-edges pay log(2j+1) when their vertex is swapped,
    internal links when cut, and each vertex pays log of its
    intertwiner dimension when swapped against its bulk field b_x
    (b_x = -1 models the bulk as input).
    """
    logd = [math.log(dim_rep(spins[lid])) for lid in graph.link_ids()]
    total = float(np.dot(logd, graph.cuts(config)))
    for x in range(graph.n_vertices):
        bx = bulk_field if isinstance(bulk_field, int) else bulk_field.get(x, 1)
        sigma = -1 if config >> x & 1 else 1
        if sigma * bx == -1:
            tup = tuple(spins[lid] for lid in graph.links_at(x))
            dim = intertwiner_dimension(tup)
            if dim == 0:
                return math.inf
            total += math.log(dim)
    return total
