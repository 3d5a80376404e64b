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
sets, built on first use: each sector block is written in a per-vertex
operator basis whose element 0 is the identity, where a partial trace
keeps only component 0, so Tr(A_S B_S) for every S is one elementwise
product followed by a per-vertex reduction to [traced, kept] (Rains'
quantum weight enumerators; Yates' subset transform) that skips the
vertices of dimension 1.  The basis maps are real, so the transform
runs on a block's real and imaginary planes side by side: one real
matrix product per vertex.  Run backwards (`_subset_adjoint`), it
gives the operator G = sum_S alpha_S rho_S (x) 1 whose dot with a
direction X is the sum over S of alpha_S Tr(rho_S X_S):
`purity_gradient` reads it from the engine, which builds it once.
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
def _vertex_maps(r: int, c: int, whole: bool):
    """Change of basis and [traced, kept] reduction at one vertex.

    Basis row 0 is vec(I), so component 0 is the trace; rows 1.. are
    those of the Householder reflection taking vec(I)/sqrt(r) to e_0.
    Tracing keeps the product of the components 0, keeping sums all
    products (component 0 weighted 1/r).  Whole vertices stay kept.
    """
    if whole:
        return np.eye(r * c), np.outer([0.0, 1.0], np.ones(r * c))
    eye = np.eye(r).ravel()
    v = eye / math.sqrt(r) - np.eye(1, r * r)[0]
    basis = np.eye(r * r) - np.outer(v, v) * (2.0 / (v @ v or 1.0))
    basis[0] = eye
    kept = np.r_[1.0 / r, np.ones(r * r - 1)]
    return basis, np.vstack([np.eye(1, r * r), kept])


def _live_maps(row_dims, col_dims, whole: int = 0):
    """The vertices the transform visits (all but those of dim 1 on both
    sides outside `whole`) and their `_vertex_maps`, highest vertex
    first, so that vertex 0 ends up on the last axis (the lowest bit)."""
    live = [x for x in range(len(row_dims))
            if row_dims[x] * col_dims[x] > 1 or whole >> x & 1]
    return live, [_vertex_maps(row_dims[x], col_dims[x], bool(whole >> x & 1))
                  for x in reversed(live)]


def _per_vertex(arr: np.ndarray, mats) -> np.ndarray:
    """One map per live vertex; each step maps the leading axis to the
    back, so that its output is laid out for the next step."""
    for mat in mats:
        arr = arr.reshape(len(mat[0]), -1).T @ mat.T
    return arr


def _planes(mat: np.ndarray, dims, maps, t: int) -> np.ndarray:
    """(re, im) of `mat` in the operator basis, of mat^T for t = 1;
    `dims` are the live (row, col) dims of the untransposed matrix.

    The maps are real, so the transform runs on the float view of the
    complex matrix: its re/im axis rides along as the trailing axis and
    ends up leading, as two real planes."""
    n = len(dims[0])
    view = np.ascontiguousarray(mat, dtype=complex).view(float)
    order = [j for i in reversed(range(n)) for j in (i + t * n, i + (1 - t) * n)]
    arr = view.reshape(dims[t] + dims[1 - t] + [2])
    return _per_vertex(arr.transpose(order + [2 * n]),
                       [pair[0] for pair in maps]).reshape(2, -1)


def _subset_traces(a: np.ndarray, b: np.ndarray | None, row_dims, col_dims,
                   whole: int = 0) -> np.ndarray:
    """Tr(A_S B_S) for every vertex set S, one axis per vertex: axis k
    is vertex V-1-k, index 1 where it is in S, so that broadcast to
    (2,)*V and raveled the traces are indexed by bitmask.

    A maps the col factors to the row factors and B back; `b=None`
    stands for B = A Hermitian.  The vertices in `whole` (it must hold
    all whose dims differ) are never traced: sets missing one get 0.
    A and B^T go to the operator basis of `_vertex_maps` at every
    vertex, are multiplied elementwise and reduced vertex by vertex.
    A unit vertex (row and col dim 1) outside `whole` leaves every trace
    unchanged: it skips the transform and its axis has length 1.

    `b=None` multiplies the real planes of `_planes` to |alpha|^2;
    otherwise both transforms are interleaved again and multiplied as
    complex numbers, which keeps numpy's rounding of the complex
    product.  Each vertex step is one real matmul.
    """
    live, maps = _live_maps(row_dims, col_dims, whole)
    dims = ([row_dims[x] for x in live], [col_dims[x] for x in live])
    reduce = [pair[1] for pair in maps]
    if b is None:  # B^T = conj(A)
        alpha = _planes(a, dims, maps, 0)
        prod = np.square(alpha[0])
        prod += np.square(alpha[1])
        out = _per_vertex(prod, reduce)
    else:
        prod = _interleave(_planes(a, dims, maps, 0))
        prod *= _interleave(_planes(b, dims, maps, 1))
        out = _interleave(_per_vertex(prod.view(float), reduce).reshape(2, -1))
    return out.reshape([2 if x in live else 1 for x in reversed(range(len(row_dims)))])


def _subset_adjoint(a: np.ndarray, weights: np.ndarray, dims) -> np.ndarray:
    """G^H for G = sum_S w_S A_S (x) 1 over all vertex sets S of a square
    A with per-vertex dims `dims` (w indexed by bitmask), so that
    np.vdot(G^H, B) = Tr(G B) = sum_S w_S Tr(A_S B_S) for every B.

    `_subset_traces` run backwards in B: A goes to the operator basis,
    the transposed [traced, kept] reductions take w (summed over the
    bits of the vertices of dim 1, which the transform skips) to one
    weight per basis element, and their product goes back through the
    transposed basis maps, with the re/im planes held apart as a batch
    axis.  Peak memory: two and a half times the size of A beside A.
    """
    n = len(dims)
    live, maps = _live_maps(dims, dims)
    d = [dims[x] for x in live]
    w = np.reshape(weights, (2,) * n).sum(axis=tuple(n - 1 - x for x in range(n)
                                                     if x not in live))
    arr = _planes(a, (d, d), maps, 0)
    arr = arr * _per_vertex(w, [pair[1].T for pair in maps]).ravel()
    for basis, _ in maps:
        arr = arr.reshape(2, len(basis), -1).transpose(0, 2, 1) @ basis
    # re/im, then (row, col) per live vertex, highest first: to G^H
    arr = arr.reshape([2] + [k for x in reversed(d) for k in (x, x)])
    pos = [2 * (len(d) - x) for x in range(len(d))]  # col axis of live[x]
    arr[1] *= -1.0
    out = np.ascontiguousarray(arr.transpose(pos + [p - 1 for p in pos] + [0]))
    return out.view(complex).reshape(math.prod(d), -1)


def _interleave(planes: np.ndarray) -> np.ndarray:
    """The complex array of (re, im) planes."""
    out = np.empty(planes.shape[1], complex)
    out.real, out.imag = planes
    return out


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
            raise ValueError(f"bulk-state trace for pair ({m},{n}) and "
                             f"swapped set {down:#b} is not real")
        return val

    def _sigma_array(self, m: int, n: int) -> np.ndarray:
        """sigma_I of every swapped set of the pair, indexed by bitmask,
        built on first use; NaN marks a trace that is not real."""
        if (m, n) not in self._sigma_cache:
            self._sigma_cache[m, n] = self._sigma_build(m, n)
            self._sigma_cache[m, n].flags.writeable = False
        return self._sigma_cache[m, n]

    def _reduced(self, row: int, col: int, keep: int) -> np.ndarray:
        """Block rho_{row,col} traced over the vertices outside `keep`."""
        return _partial_trace(self.sc.block(row, col), self._vdims[row],
                              self._vdims[col], keep)

    def _sigma_build(self, m: int, n: int) -> np.ndarray:
        """sigma_I of the pair for all 2^V swapped sets.

        Swapping S pairs the blocks (m, q) and (n, q'), q with the tuples
        of m off S and of n on S, q' the other way round.  Only the part
        T of S where m and n differ fixes the pair, so each T is one
        `_subset_traces` call, written into its slab of the per-vertex
        trace table t: the sets S with S & split = T, one index per split
        axis.  The split vertices outside T are traced up front, T is kept
        whole.  Absent (zero) blocks are skipped.  Beside t (complex) the
        result is the one array of 2^V floats: the test for a trace that
        is not real runs in t's own planes.
        """
        cm, cn = self._c[m], self._c[n]
        if cm <= 0.0 or cn <= 0.0:
            return np.full(1 << self.n_vert, math.inf)
        t = np.zeros((2,) * self.n_vert, dtype=complex)  # axis 0: vertex V-1
        split = self._full & ~self._agree[m][n]
        hybrids = [q for q in range(self.n_sec)  # m or n at every vertex
                   if self._agree[q][m] | self._agree[q][n] == self._full]
        partner = {split & ~self._agree[q][n]: q for q in hybrids}
        for q in hybrids:
            swapped = split & ~self._agree[q][m]
            q2 = partner.get(swapped)
            if not {(m, q), (n, q2)} <= self._present:
                continue
            keep = self._full & ~split | swapped
            # traced vertices become factors of dim 1
            rows, cols = ([d if keep >> x & 1 else 1 for x, d in
                           enumerate(self._vdims[s])] for s in (m, q))
            b = None if m == n else self._reduced(n, q2, keep)
            vals = _subset_traces(self._reduced(m, q, keep), b, rows, cols,
                                  whole=swapped)
            slab = tuple(swapped >> x & 1 if split >> x & 1 else slice(None)
                         for x in reversed(range(self.n_vert)))
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
            raise ValueError("normalization sum vanishes")
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
    rstn calls it; perfbench's span tracer wraps it by name, so its
    `ising.reduction_bytes` counts the blocks of `_reduced` only."""
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
