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
Tr(B_S A_S)), so an engine evaluates each unordered pair once and keeps
the n_sec^2 results, mirrored, as its pair table, which purity, P, Q
and the error bound read.  `IsingEngine.terms` is the one place where
Delta, the link energies (held per sector for its later pairs) and
sigma_I meet: per pair it yields them as numpy arrays over chunks of
2^CHUNK_BITS configurations, which `partition_pair` reduces and `rstn
analyze --terms` lists.  The bulk term sigma_I is one float array per
pair over all 2^V swapped sets, built on first use: each sector block
is written in a per-vertex operator basis whose element 0 is the
identity, where a partial trace keeps only component 0, so Tr(A_S B_S)
for every S is one elementwise product followed by a per-vertex
reduction to [traced, kept] (Rains' quantum weight enumerators; Yates'
subset transform) that skips the vertices of dimension 1.  The basis
maps are real, so the transform runs on a block's real and imaginary
planes side by side: one real matrix product per vertex.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from rstn.logdomain import LogWeight, log_sum_tree
from rstn.spins import dim_rep, intertwiner_dimension
from rstn.state import Scenario
from rstn.graph import ColoredGraph

SIGMA_IMAG_TOL = 1e-9
TIE_TOL = 1e-12
CHUNK_BITS = 14
MAX_CONFIG_PAIRS = 2**24  # 2^V configurations x n_sec^2 ordered pairs


class SizeCapError(RuntimeError):
    """Input too large to evaluate: for the engine, more than 2^24
    configurations x ordered sector pairs (exit code 4)."""


def down_set(config: int, n: int) -> frozenset[int]:
    return frozenset(x for x in range(n) if config >> x & 1)


def _mask(down) -> int:
    return sum(1 << x for x in down)


def _survives(configs, pins: tuple[int, int]):
    """Delta test of configurations (an int or an int array) against
    the (up, down) vertex pins of one pair and variant."""
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


def _subset_traces(a: np.ndarray, b: np.ndarray | None, row_dims, col_dims,
                   whole: int = 0) -> np.ndarray:
    """Tr(A_S B_S) for every vertex set S, indexed by bitmask.

    A maps the col factors to the row factors and B back; `b=None`
    stands for B = A Hermitian.  The vertices in `whole` (it must hold
    all whose dims differ) are never traced: sets missing one get 0.
    A and B^T go to the operator basis of `_vertex_maps` at every
    vertex, are multiplied elementwise and reduced vertex by vertex.
    A unit vertex (row and col dim 1) outside `whole` leaves every trace
    unchanged: it skips the transform, and the result is broadcast.

    The maps are real, so the forward transform runs on the float view
    of a complex matrix: its re/im axis rides along as the trailing
    axis and ends up leading, as two real planes.  `b=None` multiplies
    them to |alpha|^2; otherwise both transforms are interleaved again
    and multiplied as complex numbers, which keeps numpy's rounding of
    the complex product.  Each vertex step is one real matmul whose
    output is already laid out for the next step.
    """
    n = len(row_dims)
    live = [x for x in range(n) if row_dims[x] * col_dims[x] > 1 or whole >> x & 1]
    maps = [_vertex_maps(row_dims[x], col_dims[x], bool(whole >> x & 1))
            for x in reversed(live)]  # so that vertex 0 is the lowest bit

    def per_vertex(arr, k):  # each step maps the leading axis to the back
        for mat in (pair[k] for pair in maps):
            arr = arr.reshape(len(mat[0]), -1).T @ mat.T
        return arr

    n_live = len(live)
    dims = ([row_dims[x] for x in live], [col_dims[x] for x in live])

    def planes(mat, t):  # (re, im) of mat transformed, of mat^T for t = 1
        view = np.ascontiguousarray(mat, dtype=complex).view(float)
        order = [j for i in reversed(range(n_live))
                 for j in (i + t * n_live, i + (1 - t) * n_live)]
        arr = view.reshape(dims[t] + dims[1 - t] + [2])
        return per_vertex(arr.transpose(order + [2 * n_live]), 0).reshape(2, -1)

    if b is None:  # B^T = conj(A)
        alpha = planes(a, 0)
        prod = np.square(alpha[0])
        prod += np.square(alpha[1])
        out = per_vertex(prod, 1)
    else:
        prod = _interleave(planes(a, 0))
        prod *= _interleave(planes(b, 1))
        out = _interleave(per_vertex(prod.view(float), 1).reshape(2, -1))
    bits = [2 if x in live else 1 for x in reversed(range(n))]
    return np.broadcast_to(out.reshape(bits), (2,) * n).ravel()


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
    """The ground-state update over energies in configuration order.

    Fed chunk by chunk, it ends in the state of the sequential loop

        if e < best * (1 - TIE_TOL) - TIE_TOL:  second, best, degen = best, e, 1
        elif isclose(e, best):                   degen += 1
        elif e < second:                         second = e

    Only a new best moves `best`.  While every energy is non-negative
    the threshold never exceeds `best`, so a new best undercuts every
    earlier energy and only running minima need the Python test (after
    a negative energy no non-negative one can be a new best).  After
    the last new best the loop is a count and a min.
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


class IsingEngine:
    """Constrained Ising sums of one scenario, with per-engine caches.

    The pair table and the per-pair sigma_I arrays (read-only) live on
    the engine and die with it.  A Scenario is frozen with read-only
    blocks, so the caches stay valid for its whole life:
    `IsingEngine.of(sc)` is the one engine every consumer shares, while
    the constructor builds a fresh, unshared one.

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
        self._pairs: tuple[PairResult, ...] | None = None
        self._held: tuple[int, list[np.ndarray]] = (-1, [])
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

    def delta_ok(self, m: int, n: int, config: int, variant: int) -> bool:
        """Whether the sector-matching deltas of a configuration survive."""
        return bool(_survives(config, self._delta_masks(m, n)[variant]))

    # -- bulk-state entropy term ---------------------------------------------

    def sigma_I(self, m: int, n: int, down) -> float:
        """Entropy-like energy of the bulk state for swapped set `down`.

        -log of a normalized trace of two partially-traced,
        sector-projected reductions of rho^I; 0 when nothing is
        swapped, the Renyi-2 entropy of the reduction to `down` when
        m = n, +inf when the trace vanishes (excluded configuration).
        `down` is a set of vertices or a configuration bitmask.
        """
        mask = down if isinstance(down, int) else _mask(down)
        val = float(self._sigma_array(m, n)[mask])
        if math.isnan(val):
            raise ValueError(f"bulk-state trace for pair ({m},{n}) and "
                             f"swapped set {mask:#b} is not real")
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
        `_subset_traces` call: the split vertices outside T are traced up
        front, T is kept whole.  Absent (zero) blocks are skipped.
        """
        cm, cn = self._c[m], self._c[n]
        configs = np.arange(1 << self.n_vert)
        if cm <= 0.0 or cn <= 0.0:
            return np.full(configs.size, math.inf)
        t = np.zeros(configs.size, dtype=complex)
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
            group = (configs & split) == swapped
            t[group] = vals[group]
        val = t.real / (cm * cn)
        sigma = -np.log(val, out=np.full(val.size, -math.inf), where=val > 0.0)
        tol = SIGMA_IMAG_TOL * np.maximum(1.0, np.abs(t.real))
        sigma[np.abs(t.imag) > tol] = math.nan
        sigma[0] = 0.0  # nothing swapped: t = c_m c_n
        return sigma

    # -- energies ------------------------------------------------------------

    def _link_energies(self, m: int, configs: np.ndarray) -> np.ndarray:
        """Link energy of each configuration, (2, k): one row per variant.

        A link pays log(2j+1) when cut; in variant 1 the C half-edges
        are pinned swapped, so there the cut flips.  Spins are read
        from sector m; wherever the two sectors could disagree on a
        paying link, Delta has already forced agreement.  Terms are
        added in link order.
        """
        e = np.zeros((2, configs.size))
        for cut, logd, flip in zip(self.sc.graph.cuts(configs), self._logd[m],
                                   self._flips):
            e += logd * (cut ^ flip)
        return e

    def _link_chunks(self, m: int, release: bool):
        """(configs, `_link_energies`) per chunk of configurations.  The
        engine holds one sector's for its later pairs; `release` (at the
        last pair of m in m-major order) drops them."""
        held = self._held[1] if self._held[0] == m else []
        self._held = (-1, []) if release else (m, held)
        size = min(1 << self.n_vert, 1 << CHUNK_BITS)
        for k, start in enumerate(range(0, 1 << self.n_vert, size)):
            configs = np.arange(start, start + size)
            link = held[k] if k < len(held) else self._link_energies(m, configs)
            if k == len(held) and not release:
                held.append(link)
            yield configs, link

    def cut_weight(self, m: int, configs: np.ndarray) -> np.ndarray:
        """Sum of log(2j+1) of sector m over the links each configuration
        cuts, weighted -1 on C, added in link order."""
        total = np.zeros(configs.size)
        for cut, logd, on_c in zip(self.sc.graph.cuts(configs), self._logd[m],
                                   self._on_C):
            total += (-logd if on_c else logd) * cut
        return total

    def hamiltonian(self, m: int, n: int, config: int, variant: int) -> float:
        """Energy of a configuration for the ordered pair (m, n).

        The link energies of `_link_energies` plus sigma_I of the
        swapped vertex set.
        """
        link = self._link_energies(m, np.array([config]))[variant]
        return float(link[0]) + self.sigma_I(m, n, config)

    def hamiltonian_difference_region(self, m: int, config: int) -> float:
        """H_1 - H_0 for a diagonal pair: sum of sigma_s * log d over C."""
        link = self._link_energies(m, np.array([config]))
        return float(link[1, 0] - link[0, 0])

    # -- partition sums ------------------------------------------------------

    def terms(self, m: int, n: int):
        """Yields (configs, energy, keep) per chunk of configurations:
        energy (2, k) is link energy plus sigma_I per variant, keep
        marks where Delta survives and the energy is finite.  Raises
        ValueError at the chunk where Delta first admits a swapped set
        whose bulk trace is not real."""
        masks = self._delta_masks(m, n)
        sigma_all = self._sigma_array(m, n)
        for configs, link in self._link_chunks(m, n == self.n_sec - 1):
            ok = np.array([_survives(configs, pins) for pins in masks])
            sigma = sigma_all[configs]
            bad = configs[np.isnan(sigma) & (ok[0] | ok[1])]
            if bad.size:
                self.sigma_I(m, n, int(bad[0]))  # raises: trace not real
            energy = link + sigma
            yield configs, energy, ok & (energy != math.inf)

    def partition_pair(self, m: int, n: int) -> PairResult:
        exact = self.sc.mode == "exact"
        logs: list[list[np.ndarray]] = [[], []]
        scans = (_GroundScan(), _GroundScan())
        for configs, energy, keep in self.terms(m, n):
            for variant in (0, 1):
                e = energy[variant][keep[variant]]
                if exact:
                    logs[variant].append(-e)
                scans[variant].feed(e, configs[keep[variant]])
        if exact:
            z0, z1 = (LogWeight(log_sum_tree(np.concatenate(parts)))
                      for parts in logs)
        else:
            # ground-state dominance: keep only the minimal energy,
            # multiplied by its multiplicity
            z0, z1 = (
                LogWeight(-math.inf) if s.best == math.inf
                else LogWeight(-s.best + math.log(s.degen))
                for s in scans
            )
        return PairResult(
            m=m, n=n, z0=z0, z1=z1,
            ground_config=tuple(s.config for s in scans),
            ground_energy=tuple(s.best for s in scans),
            degeneracy=tuple(s.degen for s in scans),
            gap=tuple(
                s.second - s.best if s.best != math.inf else math.inf
                for s in scans
            ),
        )

    def all_pairs(self) -> list[PairResult]:
        """The pair table, m-major: each unordered pair evaluated once."""
        if self._pairs is None:
            upper = {(m, n): self.partition_pair(m, n)
                     for m in range(self.n_sec) for n in range(m, self.n_sec)}
            self._pairs = tuple(
                upper[m, n] if m <= n else replace(upper[n, m], m=m, n=n)
                for m in range(self.n_sec) for n in range(self.n_sec)
            )
        return list(self._pairs)

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
    """Square `mat` traced over the vertices outside `down` (perfbench's
    span tracer counts reduced bytes through it)."""
    return _partial_trace(mat, dims, dims, _mask(down))


def purity_gradient(sc: Scenario, direction: np.ndarray) -> float:
    """Directional derivative of the swapped sum along a bulk-state move.

    For a single-sector scenario the swapped partition sum is a smooth
    functional of the bulk state,

        F(rho) = sum_S alpha_S Tr[rho_S^2] / (Tr rho)^2,

    over vertex subsets S, with alpha_S the product of 1/(2j+1) over
    the links cut by S xor marked as C (but not both): exp of minus
    the variant-1 link energy.  This returns d/d eps F(rho + eps X) at
    eps = 0 for a Hermitian direction X: 2 / (Tr rho)^2 times the sum
    over S of alpha_S Tr(rho_S X'_S), X' = X - (Tr X / Tr rho) rho, with
    the traces from the transform that gives sigma_I.  The derivative
    along X = rho itself vanishes: F is scale invariant.
    """
    if len(sc.sectors) != 1:
        raise ValueError("gradient is defined for single-sector scenarios")
    rho = sc.block(0, 0)
    x = np.asarray(direction, dtype=complex)
    if x.shape != rho.shape:
        raise ValueError(f"direction shape {x.shape} != state {rho.shape}")
    if not np.isfinite(x).all():
        raise ValueError("direction must be finite and Hermitian")
    # |X - X^H| <= 1e-12 + 1e-5 |X^H| entrywise, the first term alone
    # settling the common case
    skew = np.abs(x - x.conj().T)
    if not (skew.max() <= 1e-12 or (skew <= 1e-12 + 1e-5 * np.abs(x).T).all()):
        raise ValueError("direction must be Hermitian")
    engine = IsingEngine.of(sc)
    dims = sc.vertex_dims(0)
    alpha = np.exp(-np.concatenate(
        [link[1] for _, link in engine._link_chunks(0, release=True)]))
    tr_rho = float(np.trace(rho).real)
    x = x - float(np.trace(x).real) / tr_rho * rho
    traces = _subset_traces(rho, x, dims, dims).real
    return 2.0 / tr_rho**2 * float(alpha @ traces)


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
