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

An engine evaluates each ordered pair once and keeps the n_sec^2
results as its pair table, which purity, P, Q and the error bound all
read.  Per pair, the link energies and the Delta masks are numpy
arrays over configurations, built in chunks of 2^CHUNK_BITS; the bulk
term sigma_I is evaluated only where some variant survives Delta.  Its
sector-block reductions come from a subset lattice: the block reduced
to the swapped set S is one partial trace, over the lowest vertex x
outside S, of the block already reduced to S | {x}, memoised per block
and bitmask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from rstn.logdomain import LogWeight, log_sum_tree
from rstn.parallel import det_map
from rstn.spins import dim_rep, intertwiner_dimension
from rstn.state import Scenario
from rstn.graph import ColoredGraph

SIGMA_IMAG_TOL = 1e-9
TIE_TOL = 1e-12
CHUNK_BITS = 14


class SizeCapError(RuntimeError):
    """Vertex count too large for exact enumeration."""


def down_set(config: int, n: int) -> frozenset[int]:
    return frozenset(x for x in range(n) if config >> x & 1)


def _mask(down) -> int:
    return sum(1 << x for x in down)


def _survives(configs, pins: tuple[int, int]):
    """Delta test of configurations (an int or an int array) against
    the (up, down) vertex pins of one pair and variant."""
    up, down = pins
    return ((configs & up) == 0) & ((configs & down) == down)


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


class SubsetLattice:
    """Partial traces of one matrix over the subsets of its vertices.

    The matrix maps the product of per-vertex factors `col_dims` to
    that of `row_dims`.  `matrix(mask)` keeps the vertices set in
    `mask` and traces out the others, which need equal row and column
    dims.  Each reduction is one np.trace over the lowest traced vertex
    of the memoised reduction to mask | {that vertex}, so a chain of
    them traces from the highest vertex down.
    """

    def __init__(self, mat: np.ndarray, row_dims, col_dims):
        full = mat.reshape(tuple(row_dims) + tuple(col_dims))
        self._tensors = {(1 << len(row_dims)) - 1: full}
        self._matrices = {(1 << len(row_dims)) - 1: mat}

    def _tensor(self, mask: int) -> np.ndarray:
        arr = self._tensors.get(mask)
        if arr is None:
            x = (~mask & (mask + 1)).bit_length() - 1
            parent = self._tensor(mask | 1 << x)
            # vertices below x are all kept, so x is axis x of each half
            arr = parent.trace(axis1=x, axis2=parent.ndim // 2 + x)
            self._tensors[mask] = arr
        return arr

    def matrix(self, mask: int) -> np.ndarray:
        mat = self._matrices.get(mask)
        if mat is None:
            arr = self._tensor(mask)
            k = arr.ndim // 2
            mat = arr.reshape(math.prod(arr.shape[:k]), math.prod(arr.shape[k:]))
            self._matrices[mask] = mat
        return mat


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

    The pair table, sigma_I values and sector-block lattices live on
    the engine and die with it.  The Scenario is treated as immutable
    once the engine is built: build a new engine after changing it.
    Pairs evaluated in threads (RSTN_THREADS) share these caches; each
    cached value is a pure function of its key, so a race between two
    threads only repeats work.
    """

    def __init__(self, sc: Scenario, max_vertices: int = 24):
        if sc.graph.n_vertices > max_vertices:
            raise SizeCapError(
                f"{sc.graph.n_vertices} vertices exceeds the enumeration "
                f"cap of {max_vertices}; raise the cap explicitly if this "
                f"is intentional"
            )
        self.sc = sc
        self.n_vert = sc.graph.n_vertices
        self.n_sec = len(sc.sectors)
        self._full = (1 << self.n_vert) - 1
        self._sigma_cache: dict[tuple[int, int, int], float] = {}
        self._lattices: dict[tuple[int, int], SubsetLattice] = {}
        self._pairs: tuple[PairResult, ...] | None = None
        g = sc.graph
        self._boundary = [
            (k, b.vertex, f"b{k}") for k, b in enumerate(g.boundary)
        ]
        self._internal = [
            (k, ln.source, ln.target, f"i{k}")
            for k, ln in enumerate(g.internal)
        ]
        self._region_C = set(sc.region_C)
        # log(2j+1) per sector and link
        self._logd = [
            {lid: math.log(dim_rep(tj)) for lid, tj in sec.spins.items()}
            for sec in sc.sectors
        ]
        tuples = [
            [sc.vertex_tuple(s, x) for x in range(self.n_vert)]
            for s in range(self.n_sec)
        ]
        # bitmask of the vertices where sectors p and q carry equal spins
        self._agree = [
            [_mask(x for x in range(self.n_vert) if tp[x] == tq[x])
             for tq in tuples]
            for tp in tuples
        ]
        self._vdims = [sc.vertex_dims(s) for s in range(self.n_sec)]
        self._c = [sc.c_norm(s) for s in range(self.n_sec)]

    # -- sector weights ------------------------------------------------------

    def log_K_tilde(self, m: int) -> float:
        """log of the sector weight without the bulk-state norm c_m."""
        sc = self.sc
        total = 0.0
        for _, _, lid in self._boundary:
            total += self._logd[m][lid]
        for _, _, _, lid in self._internal:
            g = sc.amplitude(lid, sc.spin(m, lid))
            a2 = abs(g) ** 2
            if a2 == 0.0:
                return -math.inf
            total += math.log(a2)
        return total

    def log_K(self, m: int) -> float:
        c = self._c[m]
        if c <= 0.0:
            return -math.inf
        return self.log_K_tilde(m) + math.log(c)

    # -- constraint factor ---------------------------------------------------

    def _delta_masks(self, m: int, n: int) -> tuple[tuple[int, int], ...]:
        """Per variant, the vertices Delta pins (up, down) for pair (m, n).

        A link needs equal spins in both sectors whenever the two
        copies are swapped on (at least one of) its ends: boundary
        half-edges with sigma_s * h = -1, internal links with a
        swapped endpoint.  A vertex-product bulk state additionally
        forces full vertex agreement on every swapped vertex.
        """
        if m == n:
            return (0, 0), (0, 0)
        up, down = [0, 0], [0, 0]
        sc = self.sc
        for _, v, lid in self._boundary:
            if sc.spin(m, lid) != sc.spin(n, lid):
                up[0] |= 1 << v
                if lid in self._region_C:  # h = -1 in variant 1
                    down[1] |= 1 << v
                else:
                    up[1] |= 1 << v
        for _, s, t, lid in self._internal:
            if sc.spin(m, lid) != sc.spin(n, lid):
                up[0] |= 1 << s | 1 << t
                up[1] |= 1 << s | 1 << t
        if sc.vertex_product:
            up[0] |= self._full & ~self._agree[m][n]
            up[1] |= self._full & ~self._agree[m][n]
        return (up[0], down[0]), (up[1], down[1])

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
        key = (m, n, mask)
        if key in self._sigma_cache:
            return self._sigma_cache[key]
        val = self._sigma_I_compute(m, n, mask)
        self._sigma_cache[key] = val
        return val

    def _reduced(self, row: int, col: int, down: int) -> np.ndarray:
        """Block rho_{row,col} traced over the vertices outside `down`.

        Requires the row/col vertex tuples to agree on the traced
        vertices; returns a matrix indexed by the kept factors of row
        (rows) and col (columns).
        """
        lattice = self._lattices.get((row, col))
        if lattice is None:
            lattice = SubsetLattice(
                self.sc.block(row, col), self._vdims[row], self._vdims[col]
            )
            self._lattices[(row, col)] = lattice
        return lattice.matrix(down)

    def _matched_block(self, row: int, other: int, down: int):
        """Block (row, q) reduced to `down`, for the sector q that
        matches `row` on the up vertices and `other` on `down`.

        Distinct sectors differ at some vertex, so at most one q
        matches; None when none does or its block is absent (zero).
        """
        up = self._full & ~down
        for q in range(self.n_sec):
            if up & ~self._agree[q][row] or down & ~self._agree[q][other]:
                continue
            if (row, q) in self.sc.blocks or (q, row) in self.sc.blocks:
                return self._reduced(row, q, down)
            return None
        return None

    def _sigma_I_compute(self, m: int, n: int, down: int) -> float:
        cm, cn = self._c[m], self._c[n]
        if cm <= 0.0 or cn <= 0.0:
            return math.inf
        da = self._matched_block(m, n, down)
        db = self._matched_block(n, m, down)
        if da is None or db is None:
            return math.inf
        t = (da * db.T).sum()  # Tr(da @ db)
        if abs(t.imag) > SIGMA_IMAG_TOL * max(1.0, abs(t.real)):
            raise ValueError(
                f"bulk-state trace for pair ({m},{n}) is not real: {t}"
            )
        val = t.real / (cm * cn)
        if val <= 0.0:
            return math.inf
        return -math.log(val)

    # -- energies ------------------------------------------------------------

    def _link_energies(self, m: int, configs: np.ndarray):
        """Boundary plus internal energy of each configuration, per variant.

        Boundary half-edges pay log(2j+1) when swapped relative to
        their pinning (h = -1 on C for variant 1), internal links pay
        when cut.  Spins are read from sector m; wherever the two
        sectors could disagree on a paying link, Delta has already
        forced agreement.  Terms are added in link order.
        """
        bits = [(configs >> x) & 1 for x in range(self.n_vert)]
        e0 = np.zeros(configs.shape)
        e1 = np.zeros(configs.shape)
        logd = self._logd[m]
        for _, v, lid in self._boundary:
            e0 += logd[lid] * bits[v]
            e1 += logd[lid] * (bits[v] ^ 1 if lid in self._region_C else bits[v])
        for _, s, t, lid in self._internal:
            cut = logd[lid] * (bits[s] ^ bits[t])
            e0 += cut
            e1 += cut
        return e0, e1

    def hamiltonian(self, m: int, n: int, config: int, variant: int) -> float:
        """Energy of a configuration for the ordered pair (m, n).

        The link energies of `_link_energies` plus sigma_I of the
        swapped vertex set.
        """
        link = self._link_energies(m, np.array([config]))[variant]
        return float(link[0]) + self.sigma_I(m, n, config)

    def hamiltonian_difference_region(self, m: int, config: int) -> float:
        """H_1 - H_0 for a diagonal pair: sum of sigma_s * log d over C."""
        total = 0.0
        for _, v, lid in self._boundary:
            if lid in self._region_C:
                sigma = -1 if config >> v & 1 else 1
                total += sigma * self._logd[m][lid]
        return total

    # -- partition sums ------------------------------------------------------

    def partition_pair(self, m: int, n: int) -> PairResult:
        exact = self.sc.mode == "exact"
        masks = self._delta_masks(m, n)
        logs: list[list[np.ndarray]] = [[], []]
        scans = (_GroundScan(), _GroundScan())
        n_conf = 1 << self.n_vert
        for start in range(0, n_conf, 1 << CHUNK_BITS):
            configs = np.arange(start, min(n_conf, start + (1 << CHUNK_BITS)))
            ok = [_survives(configs, pins) for pins in masks]
            live = ok[0] | ok[1]
            sigma = np.full(configs.shape, math.inf)
            sigma[live] = [
                self.sigma_I(m, n, c) for c in configs[live].tolist()
            ]
            for variant, link in enumerate(self._link_energies(m, configs)):
                energy = link + sigma
                keep = ok[variant] & (energy != math.inf)
                if exact:
                    logs[variant].append(-energy[keep])
                scans[variant].feed(energy[keep], configs[keep])
        if exact:
            z0, z1 = (LogWeight(log_sum_tree(np.concatenate(parts)))
                      for parts in logs)
        else:
            # ground-state dominance: keep only the minimal energy,
            # multiplied by its multiplicity
            z0, z1 = (
                LogWeight.ZERO if s.best == math.inf
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
        """The pair table: every ordered pair, m-major, evaluated once."""
        if self._pairs is None:
            pairs = [
                (m, n) for m in range(self.n_sec) for n in range(self.n_sec)
            ]
            self._pairs = tuple(
                det_map(lambda mn: self.partition_pair(*mn), pairs)
            )
        return list(self._pairs)

    # -- observable quotients ------------------------------------------------

    def distribution(self) -> np.ndarray:
        """P(m, n) proportional to K_m K_n Z_0^{(m,n)}, normalized."""
        results = self.all_pairs()
        logK = [self.log_K(m) for m in range(self.n_sec)]
        logs = np.full((self.n_sec, self.n_sec), -math.inf)
        for r in results:
            if not r.z0.is_zero() and logK[r.m] != -math.inf \
                    and logK[r.n] != -math.inf:
                logs[r.m, r.n] = logK[r.m] + logK[r.n] + r.z0.log
        total = log_sum_tree(logs.ravel())
        if total == -math.inf:
            raise ValueError("normalization sum vanishes")
        return np.exp(logs - total)

    def log_purity(self) -> float:
        results = self.all_pairs()
        logK = [self.log_K(m) for m in range(self.n_sec)]
        num, den = [], []
        for r in results:
            base = logK[r.m] + logK[r.n]
            if base == -math.inf:
                continue
            if not r.z1.is_zero():
                num.append(base + r.z1.log)
            if not r.z0.is_zero():
                den.append(base + r.z0.log)
        log_num = log_sum_tree(num)
        log_den = log_sum_tree(den)
        if log_den == -math.inf:
            raise ValueError("normalization sum vanishes")
        return log_num - log_den

    def purity(self) -> float:
        return math.exp(self.log_purity())

    def error_bound(self) -> float:
        """Crude bound on the relative weight of excited configurations."""
        gap = math.inf
        for r in self.all_pairs():
            gap = min(gap, min(r.gap))
        if gap == math.inf:
            return 0.0
        return ((1 << self.n_vert) - 1) * math.exp(-gap)


def _reduce_square(mat: np.ndarray, dims: list[int],
                   down: frozenset[int]) -> np.ndarray:
    """Partial trace of a square matrix on the vertex-factor product.

    One-off form of SubsetLattice; perfbench/spans.py counts reduced
    bytes through it.
    """
    return SubsetLattice(mat, dims, dims).matrix(_mask(down))


def purity_gradient(sc: Scenario, direction: np.ndarray) -> float:
    """Directional derivative of the swapped sum along a bulk-state move.

    For a single-sector scenario the swapped partition sum is a smooth
    functional of the bulk state,

        F(rho) = sum_S alpha_S Tr[rho_S^2] / (Tr rho)^2,

    over vertex subsets S, with alpha_S the product of 1/(2j+1) over
    the links cut by S xor marked as C (but not both): exp of minus
    the variant-1 link energy.  This returns d/d eps F(rho + eps X) at
    eps = 0 for a Hermitian direction X, reducing rho and X over the
    subset lattice.  The derivative along X = rho itself vanishes: F
    is scale invariant.
    """
    if len(sc.sectors) != 1:
        raise ValueError("gradient is defined for single-sector scenarios")
    rho = sc.block(0, 0)
    x = np.asarray(direction, dtype=complex)
    if x.shape != rho.shape:
        raise ValueError(f"direction shape {x.shape} != state {rho.shape}")
    if not np.allclose(x, x.conj().T, atol=1e-12):
        raise ValueError("direction must be Hermitian")
    engine = IsingEngine(sc)
    dims = engine._vdims[0]
    x_lattice = SubsetLattice(x, dims, dims)
    configs = np.arange(1 << engine.n_vert)
    alpha = np.exp(-engine._link_energies(0, configs)[1]).tolist()
    tr_rho = float(np.trace(rho).real)
    tr_x = float(np.trace(x).real)
    total = 0.0
    for config in configs.tolist():
        rho_s = engine._reduced(0, 0, config)
        x_s = x_lattice.matrix(config)
        term = (rho_s * x_s.T).sum().real \
            - (tr_x / tr_rho) * (rho_s * rho_s.T).sum().real
        total += alpha[config] * term
    return 2.0 / tr_rho**2 * total


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
    total = 0.0
    for k, b in enumerate(graph.boundary):
        if config >> b.vertex & 1:
            total += math.log(dim_rep(spins[f"b{k}"]))
    for k, ln in enumerate(graph.internal):
        if (config >> ln.source & 1) != (config >> ln.target & 1):
            total += math.log(dim_rep(spins[f"i{k}"]))
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
