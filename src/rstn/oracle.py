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
* `mc_purity` draws explicit Haar-random vertex states (counter-based
  streams, reproducible under any parallel schedule) and estimates the
  purity as a quotient of sample means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from rstn.ising import SizeCapError, down_set
from rstn.spins import dim_rep
from rstn.state import Scenario

AMPLITUDE_CAP = 10_000_000
IMAG_TOL = 1e-9
LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"  # einsum indices


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

def _hybrid_sector(sc: Scenario, m: int, n: int, down: frozenset[int]) -> int | None:
    """Sector whose vertex tuples match m outside `down` and n inside."""
    want = [
        sc.vertex_tuple(n if x in down else m, x)
        for x in range(sc.graph.n_vertices)
    ]
    for q in range(len(sc.sectors)):
        if all(
            sc.vertex_tuple(q, x) == want[x]
            for x in range(sc.graph.n_vertices)
        ):
            return q
    return None


def _intertwiner_trace(
    sc: Scenario, m: int, n: int, down: frozenset[int]
) -> complex:
    """Raw trace of (rho^I x rho^I) with per-vertex swaps on `down`."""
    h1 = _hybrid_sector(sc, m, n, down)
    h2 = _hybrid_sector(sc, n, m, down)
    if h1 is None or h2 is None:
        return 0.0
    nv = sc.graph.n_vertices
    b1 = sc.block(m, h1)
    b2 = sc.block(n, h2)
    dm = sc.vertex_dims(m)
    dn = sc.vertex_dims(n)
    d1c = sc.vertex_dims(h1)
    d2c = sc.vertex_dims(h2)
    a1 = b1.reshape(tuple(dm) + tuple(d1c))
    a2 = b2.reshape(tuple(dn) + tuple(d2c))
    letters = "abcdefghijklmnopqrstuvwxyz"
    if 2 * nv > len(letters):
        raise SizeCapError("too many vertices for the reference contraction")
    r1 = [letters[x] for x in range(nv)]
    r2 = [letters[nv + x] for x in range(nv)]
    c1 = [r2[x] if x in down else r1[x] for x in range(nv)]
    c2 = [r1[x] if x in down else r2[x] for x in range(nv)]
    sub = "".join(r1) + "".join(c1) + "," + "".join(r2) + "".join(c2) + "->"
    return np.einsum(sub, a1, a2)


def exact_term(
    sc: Scenario, m: int, n: int, config: int, variant: int
) -> float:
    """One configuration's contribution to Z_variant^{(m,n)}, raw."""
    g = sc.graph
    down = down_set(config, g.n_vertices)
    total = _intertwiner_trace(sc, m, n, down)
    if total == 0.0:
        return 0.0
    region = set(sc.region_C)
    for k, b in enumerate(g.boundary):
        lid = f"b{k}"
        swapped = (b.vertex in down) != (variant == 1 and lid in region)
        total *= boundary_trace(sc.spin(m, lid), sc.spin(n, lid), swapped)
        if total == 0.0:
            return 0.0
    for k, ln in enumerate(g.internal):
        lid = f"i{k}"
        tj, tk = sc.spin(m, lid), sc.spin(n, lid)
        total *= link_swap_trace(
            tj, tk,
            sc.amplitude(lid, tj), sc.amplitude(lid, tk),
            ln.source in down, ln.target in down,
        )
        if total == 0.0:
            return 0.0
    if abs(total.imag) > IMAG_TOL * max(1.0, abs(total.real)):
        raise ValueError(f"configuration term is not real: {total}")
    return float(total.real)


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
    if _amplitude_cost(sc) > AMPLITUDE_CAP:
        raise SizeCapError("scenario too large for the reference contraction")
    n_sec = len(sc.sectors)
    nv = sc.graph.n_vertices
    z0 = z1 = 0.0
    for m in range(n_sec):
        for n in range(n_sec):
            for config in range(1 << nv):
                z0 += exact_term(sc, m, n, config, 0)
                z1 += exact_term(sc, m, n, config, 1)
    return z1 / z0, z1, z0


# -- Monte Carlo over explicit random vertex states -------------------------

@dataclass
class MCResult:
    purity: float
    stderr: float
    n_samples: int
    mean_num: float
    mean_den: float


def _vertex_layout(sc: Scenario, x: int) -> list[tuple[int, tuple[int, ...]]]:
    """Distinct (intertwiner dim, leg dims) slices of one vertex space.

    Sectors sharing a vertex tuple share the slice; the order is the
    order of first appearance over sectors.
    """
    seen: list[tuple[int, tuple[int, ...]]] = []
    tuples: list[tuple[int, ...]] = []
    from rstn.spins import intertwiner_dimension

    for s in range(len(sc.sectors)):
        tup = sc.vertex_tuple(s, x)
        if tup in tuples:
            continue
        tuples.append(tup)
        seen.append((intertwiner_dimension(tup), tuple(dim_rep(t) for t in tup)))
    return seen, tuples


def _draw_vertex_state(
    seed: int, vertex: int, sample: int, dim: int
) -> np.ndarray:
    """Haar state from a counter-based stream keyed by (vertex, sample)."""
    bits = np.random.Philox(key=[seed, (vertex << 32) | sample])
    rng = np.random.Generator(bits)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _sector_boundary_tensor(
    sc: Scenario, s: int, psi: list[dict[tuple[int, ...], np.ndarray]]
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
    return np.einsum(",".join(subs) + "->" + out, *operands)


def mc_purity(sc: Scenario, n_samples: int = 5000, seed: int = 7) -> MCResult:
    """Estimate the purity of region C over explicit Haar vertex states.

    Per sample: contract the network, weight the intertwiner indices
    with rho^I, reduce to the boundary, and record Tr[rho_C^2] and
    (Tr rho)^2.  The estimate is mean(num)/mean(den) with a jackknife
    standard error, NaN for a single sample.
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
            f"vertex space dimension {max(dims_x)} exceeds the sampling cap"
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
        a = [_sector_boundary_tensor(sc, s, psi) for s in range(n_sec)]

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
            val = np.einsum(sub, r, a[s_ket], a[s_bra].conj())
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
