"""Brute-force reference computations.

Everything here works on explicit tensors: each vertex carries the
direct sum over its sector tuples of (intertwiner factor) x (four
spin legs), internal links carry antisymmetric pair states, and
expectation values are raw index contractions.  No factorized closed
forms from the fast engine are reused, so agreement between the two
is a real cross-check.

Two flavors:

* `exact_term` / `exact_purity` contract the swap-operator expression
  one configuration at a time;
* `mc_purity` draws explicit Haar-random vertex states and estimates
  the purity as a quotient of sample means.  Each (vertex, sample)
  state comes from its own Philox stream keyed by (seed, vertex,
  sample), so the estimate does not depend on how samples are grouped
  into blocks for contraction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from rstn.ising import SizeCapError, down_set
from rstn.spins import dim_rep, intertwiner_dimension
from rstn.state import Scenario

AMPLITUDE_CAP = 10_000_000
IMAG_TOL = 1e-9
LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"  # einsum indices
BLOCK_BYTES = 1 << 19  # arrays held per block of Monte Carlo samples
VERTEX_SPACE_CAP = 512  # largest vertex space the sampler draws states in
SEED_MAX = 2**63 - 1  # seeds 0..SEED_MAX key the Philox streams exactly


# -- link and boundary traces ----------------------------------------------

def _pair_state(twice_j: int, g: complex) -> np.ndarray:
    """Explicit link state g/sqrt(d) * sum_m (-1)^(j+m) |j m>|j -m>."""
    d = dim_rep(twice_j)
    e = np.zeros((d, d), dtype=complex)
    for a in range(d):
        e[a, d - 1 - a] = (-1) ** a
    return g / math.sqrt(d) * e


def link_swap_trace(
    twice_j: int,
    twice_k: int,
    g_j: complex,
    g_k: complex,
    swap_source: bool,
    swap_target: bool,
) -> complex:
    """Trace of two doubled link states against leg swaps.

    Copy one carries spin j, copy two spin k; each of the two legs of
    the link may be swapped between the copies.  Swapping legs of
    unequal dimension gives exactly zero.
    """
    ej = _pair_state(twice_j, g_j)
    ek = _pair_state(twice_k, g_k)
    if (swap_source or swap_target) and twice_j != twice_k:
        return 0.0
    # rho1 = |ej><ej| with row legs (a_s, a_t), col legs (a_s', a_t');
    # swap on a leg reroutes the primed index to the other copy
    if not swap_source and not swap_target:
        return np.einsum("ab,ab,cd,cd->", ej, ej.conj(), ek, ek.conj())
    if swap_source and swap_target:
        return np.einsum("ab,cd,cd,ab->", ej, ej.conj(), ek, ek.conj())
    if swap_source:
        return np.einsum("ab,cb,cd,ad->", ej, ej.conj(), ek, ek.conj())
    return np.einsum("ab,ad,cd,cb->", ej, ej.conj(), ek, ek.conj())


def boundary_trace(twice_j: int, twice_k: int, swapped: bool) -> float:
    """Trace of the doubled boundary leg, with or without a swap."""
    ij = np.eye(dim_rep(twice_j))
    ik = np.eye(dim_rep(twice_k))
    if not swapped:
        return float(np.trace(ij) * np.trace(ik))
    if twice_j != twice_k:
        return 0.0
    return float(np.einsum("ab,ba->", ij, ik))


# -- exact configuration terms ---------------------------------------------

class _RawTerms:
    """One scenario's tables for the raw configuration terms.

    Vertex tuples, intertwiner shapes and the hybrid-sector lookup are
    built once, and the boundary and link trace factors are memoised
    by their spins and swap flags, so a term costs one two-operand
    einsum plus lookups.
    """

    def __init__(self, sc: Scenario):
        g = sc.graph
        self.sc, self.nv = sc, g.n_vertices
        self.tuples = [
            tuple(sc.vertex_tuple(s, x) for x in range(self.nv))
            for s in range(len(sc.sectors))
        ]
        self.shapes = [
            tuple(intertwiner_dimension(t) for t in tup) for tup in self.tuples
        ]
        self.sector_of: dict[tuple, int] = {}
        for q, tup in enumerate(self.tuples):
            self.sector_of.setdefault(tup, q)
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

    def hybrid(self, m: int, n: int, down: frozenset[int]) -> int | None:
        """Sector whose vertex tuples match m outside `down` and n inside."""
        want = tuple(
            self.tuples[n if x in down else m][x] for x in range(self.nv)
        )
        return self.sector_of.get(want)

    def intertwiner(self, m: int, n: int, down: frozenset[int]) -> complex:
        """Raw trace of (rho^I x rho^I) with per-vertex swaps on `down`."""
        h1 = self.hybrid(m, n, down)
        h2 = self.hybrid(n, m, down)
        if h1 is None or h2 is None:
            return 0.0
        nv, sc, shapes = self.nv, self.sc, self.shapes
        if 2 * nv > 26:  # rows and columns take lowercase letters
            raise SizeCapError(f"{2 * nv} einsum letters exceed the 26 the "
                               f"reference contraction can name")
        r1, r2 = LETTERS[:nv], LETTERS[nv:2 * nv]
        c1 = "".join(r2[x] if x in down else r1[x] for x in range(nv))
        c2 = "".join(r1[x] if x in down else r2[x] for x in range(nv))
        # two operands: a path would add dispatch cost, not save work
        return np.einsum(
            f"{r1}{c1},{r2}{c2}->",
            sc.block(m, h1).reshape(shapes[m] + shapes[h1]),
            sc.block(n, h2).reshape(shapes[n] + shapes[h2]),
        )

    def terms(
        self, m: int, n: int, config: int, variants: tuple[int, ...] = (0, 1)
    ) -> list[float]:
        """One configuration's contributions to Z_variant^{(m,n)}, raw."""
        down = down_set(config, self.nv)
        itw = self.intertwiner(m, n, down)
        return [self._dressed(itw, m, n, down, v) for v in variants]

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
            raise ValueError(f"configuration term is not real: {total}")
        return float(total.real)


def exact_term(
    sc: Scenario, m: int, n: int, config: int, variant: int
) -> float:
    """One configuration's contribution to Z_variant^{(m,n)}, raw."""
    return _RawTerms(sc).terms(m, n, config, (variant,))[0]


def _amplitude_cost(sc: Scenario) -> int:
    cost = 0
    for m in range(len(sc.sectors)):
        block = sc.block_dim(m)
        legs = 1
        for lid in sc.graph.link_ids():
            legs *= dim_rep(sc.spin(m, lid))
        cost += block * legs
    return cost


def exact_purity(sc: Scenario) -> tuple[float, float, float]:
    """Purity and the two weighted sums, by raw term-by-term contraction."""
    if (cost := _amplitude_cost(sc)) > AMPLITUDE_CAP:
        raise SizeCapError(f"scenario too large for the reference contraction: "
                           f"{cost} amplitudes exceed the cap of {AMPLITUDE_CAP}")
    raw = _RawTerms(sc)
    n_sec = len(sc.sectors)
    z0 = z1 = 0.0
    for m in range(n_sec):
        for n in range(n_sec):
            for config in range(1 << sc.graph.n_vertices):
                t0, t1 = raw.terms(m, n, config)
                z0 += t0
                z1 += t1
    return z1 / z0, z1, z0


# -- Monte Carlo over explicit random vertex states -------------------------

@dataclass
class MCResult:
    purity: float
    stderr: float
    n_samples: int
    mean_num: float
    mean_den: float


def _vertex_layout(
    sc: Scenario, x: int
) -> tuple[list[tuple[int, tuple[int, ...]]], list[tuple[int, ...]]]:
    """Distinct (intertwiner dim, leg dims) slices of one vertex space,
    and the vertex tuple of each.

    Sectors sharing a vertex tuple share the slice; the order is the
    order of first appearance over sectors.
    """
    seen: list[tuple[int, tuple[int, ...]]] = []
    tuples: list[tuple[int, ...]] = []
    for s in range(len(sc.sectors)):
        tup = sc.vertex_tuple(s, x)
        if tup in tuples:
            continue
        tuples.append(tup)
        seen.append((intertwiner_dimension(tup), tuple(dim_rep(t) for t in tup)))
    return seen, tuples


@functools.cache
def _philox():
    """A Philox to re-key per draw, its fresh state and a Generator on it;
    seeded (reads no OS entropy), built on first use (imports stay lean)."""
    bits = np.random.Philox(0)
    return bits, bits.state, np.random.Generator(bits)


def _draw_vertex_state(
    seed: int, vertex: int, sample: int, dim: int
) -> np.ndarray:
    """Haar state from the counter-based stream keyed by (seed, vertex,
    sample): that of Philox(key=[seed, (vertex << 32) | sample])."""
    bits, fresh, rng = _philox()
    key = np.array([seed, (vertex << 32) | sample], np.uint64)
    bits.state = {**fresh, "state": {**fresh["state"], "key": key}}
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _contract(
    paths: dict, subscripts: str, *operands: np.ndarray
) -> np.ndarray:
    """np.einsum on a greedy path found once per subscripts and shapes."""
    key = (subscripts,) + tuple(op.shape for op in operands)
    if key not in paths:
        paths[key] = np.einsum_path(subscripts, *operands, optimize="greedy")[0]
    return np.einsum(subscripts, *operands, optimize=paths[key])


def mc_purity(sc: Scenario, n_samples: int = 5000, seed: int = 7) -> MCResult:
    """Estimate the purity of region C over explicit Haar vertex states.

    Per sample: contract the network, weight the intertwiner indices
    with rho^I, reduce to the boundary, and record Tr[rho_C^2] and
    (Tr rho)^2.  The estimate is mean(num)/mean(den) with a jackknife
    standard error, NaN for a single sample.

    Samples are contracted in blocks along a leading sample axis, each
    block holding about BLOCK_BYTES of vertex states, boundary tensors
    and rho_C blocks, on einsum paths found once per block shape.
    """
    if n_samples < 1:
        raise ValueError(f"need at least one sample, got {n_samples}")
    if not 0 <= seed <= SEED_MAX:
        raise ValueError(f"seed {seed} outside 0..{SEED_MAX}")
    g = sc.graph
    n_sec = len(sc.sectors)
    nv = g.n_vertices
    region = set(sc.region_C)
    c_pos = [k for k in range(len(g.boundary)) if f"b{k}" in region]
    rest = [k for k in range(len(g.boundary)) if k not in c_pos]

    layouts = [_vertex_layout(sc, x) for x in range(nv)]
    dims_x = [
        sum(di * math.prod(legs) for di, legs in layouts[x][0])
        for x in range(nv)
    ]
    if max(dims_x) > VERTEX_SPACE_CAP:
        raise SizeCapError(
            f"vertex space dimension {max(dims_x)} exceeds the sampling cap "
            f"of {VERTEX_SPACE_CAP}"
        )
    # einsum indices per sample of the network contraction: one
    # intertwiner index and four legs per vertex
    indices = 5 * nv
    if indices + 1 > len(LETTERS):
        raise SizeCapError(
            f"{indices} einsum indices and a sample axis exceed the "
            f"{len(LETTERS)} the sampling contraction can name"
        )

    c_spins = [tuple(sc.spin(s, f"b{k}") for k in c_pos) for s in range(n_sec)]
    rest_spins = [tuple(sc.spin(s, f"b{k}") for k in rest) for s in range(n_sec)]
    n_c = [math.prod(dim_rep(t) for t in c_spins[s]) for s in range(n_sec)]
    n_rest = [math.prod(dim_rep(t) for t in rest_spins[s]) for s in range(n_sec)]
    n_i = [sc.block_dim(s) for s in range(n_sec)]
    # rho^I blocks (rows s_bra, columns s_ket) of the (s_ket, s_bra)
    # pairs whose rest spins agree
    rho = {
        (sk, sb): sc.block(sb, sk)
        for sk in range(n_sec) for sb in range(n_sec)
        if rest_spins[sk] == rest_spins[sb]
    }
    trace_pairs = [(sk, sb) for sk, sb in rho if c_spins[sk] == c_spins[sb]]
    # Tr rho_C^2 pairs blocks whose C spin profiles line up crosswise
    cross_pairs = [
        ((sk, sb), (sk2, sb2))
        for sk, sb in rho for sk2, sb2 in rho
        if c_spins[sb] == c_spins[sk2] and c_spins[sb2] == c_spins[sk]
    ]

    # network: vertex states and conjugated link pair states -> sector
    # boundary tensor A_s[sample, C legs, intertwiner indices, rest legs]
    pool = iter(LETTERS)
    smp = next(pool)
    iota = "".join(next(pool) for _ in range(nv))
    leg = {(x, c): next(pool) for x in range(nv) for c in range(1, 5)}
    bleg = [leg[b.vertex, b.color] for b in g.boundary]
    network = (
        ",".join(
            [smp + iota[x] + "".join(leg[x, c] for c in range(1, 5))
             for x in range(nv)]
            + [leg[ln.source, ln.color] + leg[ln.target, ln.color]
               for ln in g.internal]
        )
        + "->" + smp + "".join(bleg[k] for k in c_pos)
        + iota + "".join(bleg[k] for k in rest)
    )
    tuples = [[sc.vertex_tuple(s, x) for x in range(nv)] for s in range(n_sec)]
    link_states = [
        [_pair_state(sc.spin(s, f"i{k}"),
                     sc.amplitude(f"i{k}", sc.spin(s, f"i{k}"))).conj()
         for k in range(len(g.internal))]
        for s in range(n_sec)
    ]

    per_sample = 16 * (
        sum(dims_x)
        + sum(n_c[s] * n_i[s] * n_rest[s] for s in range(n_sec))
        + sum(n_c[sk] * n_c[sb] for sk, sb in rho)
    )
    block = max(1, BLOCK_BYTES // per_sample)
    paths: dict = {}
    nums = np.empty(n_samples)
    dens = np.empty(n_samples)
    for start in range(0, n_samples, block):
        stop = min(start + block, n_samples)
        size = stop - start
        psi: list[dict[tuple[int, ...], np.ndarray]] = []
        for x in range(nv):
            vecs = np.array([
                _draw_vertex_state(seed, x, it, dims_x[x])
                for it in range(start, stop)
            ])
            parts, off = {}, 0
            for (di, legs), tup in zip(*layouts[x]):
                width = di * math.prod(legs)
                parts[tup] = vecs[:, off:off + width].reshape((size, di) + legs)
                off += width
            psi.append(parts)
        a = [
            _contract(paths, network,
                      *(psi[x][tuples[s][x]] for x in range(nv)),
                      *link_states[s])
            .reshape(size, n_c[s], n_i[s], n_rest[s])
            for s in range(n_sec)
        ]
        # rho_C[c, c'] = sum rho^I[I1, I2] A_ket[c, I2, e] conj(A_bra[c', I1, e])
        bra = [x.reshape(size, n_c[s], -1).conj().transpose(0, 2, 1)
               for s, x in enumerate(a)]
        rc = {
            (sk, sb): (r @ a[sk]).reshape(size, n_c[sk], -1) @ bra[sb]
            for (sk, sb), r in rho.items()
        }
        tr = np.zeros(size)
        for key in trace_pairs:
            tr += np.trace(rc[key], axis1=1, axis2=2).real
        num = np.zeros(size)
        for k1, k2 in cross_pairs:
            num += np.einsum("sab,sba->s", rc[k1], rc[k2]).real
        dens[start:stop] = tr * tr
        nums[start:stop] = num
    mean_num = nums.mean()
    mean_den = dens.mean()
    ratio = mean_num / mean_den
    n = n_samples
    stderr = math.nan  # a single sample leaves the jackknife undefined
    if n > 1:
        jack = (nums.sum() - nums) / (dens.sum() - dens)
        stderr = math.sqrt((n - 1) / n * ((jack - jack.mean()) ** 2).sum())
    return MCResult(ratio, stderr, n, mean_num, mean_den)


def schur_moment_error(dim: int, n_samples: int = 10_000, seed: int = 3) -> float:
    """Operator-norm error of the empirical doubled second Haar moment.

    The exact value is (identity + swap) / (D (D + 1)).
    """
    if dim > 16:
        raise SizeCapError("second-moment check capped at dimension 16")
    bits = np.random.Philox(key=[seed, 0])
    rng = np.random.Generator(bits)
    v = rng.normal(size=(n_samples, dim)) + 1j * rng.normal(size=(n_samples, dim))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    emp = np.einsum("ma,mb,mc,md->abcd", v, v.conj(), v, v.conj()) / n_samples
    ident = np.einsum(
        "ab,cd->abcd", np.eye(dim), np.eye(dim)
    )
    swap = np.einsum("ad,cb->abcd", np.eye(dim), np.eye(dim))
    exact = (ident + swap) / (dim * (dim + 1))
    diff = (emp - exact).reshape(dim * dim, dim * dim)
    return float(np.linalg.norm(diff, 2))
