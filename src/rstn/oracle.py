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

from rstn.ising import NumericalError, SizeCapError
from rstn.spins import dim_rep, intertwiner_dimension
from rstn.state import Scenario

AMPLITUDE_CAP = 10_000_000
IMAG_TOL = 1e-9
LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"  # einsum indices
BLOCK_BYTES = 1 << 19  # arrays held per block of Monte Carlo samples
VERTEX_SPACE_CAP = 512  # largest vertex space the sampler draws states in
SEED_MAX = 2**63 - 1  # seeds 0..SEED_MAX key the Philox streams exactly
SAMPLE_MAX = 2**32  # sample numbers below it fit the key's 32 sample bits


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
    built once, and each ordered sector pair's boundary and link trace
    factors once per pair (the traces memoised by spins and swap flags),
    so a term costs one two-operand einsum and a product of table entries.
    """

    def __init__(self, sc: Scenario):
        g = sc.graph
        self.sc, self.nv = sc, g.n_vertices
        self.tuples = [
            tuple(sc.vertex_tuple(s, x) for x in range(self.nv))
            for s in range(len(sc.sectors))
        ]
        self.shapes = [sc.vertex_dims(s) for s in range(len(sc.sectors))]
        self.sector_of: dict[tuple, int] = {}
        for q, tup in enumerate(self.tuples):
            self.sector_of.setdefault(tup, q)
        self.boundary_trace = functools.cache(boundary_trace)
        self.link_trace = functools.cache(link_swap_trace)
        self.factors: dict[tuple[int, int], tuple[list, list]] = {}

    def factor_table(self, m: int, n: int) -> tuple[list, list]:
        """The pair's factors: per boundary leg its vertex, whether it lies on
        C and its traces [unswapped, swapped]; per internal link its ends and
        its traces [source swapped][target swapped]."""
        if (m, n) not in self.factors:
            sc, g, tf = self.sc, self.sc.graph, (False, True)
            spins = {lid: (sc.spin(m, lid), sc.spin(n, lid)) for lid in g.link_ids()}
            amps = {lid: [sc.amplitude(lid, t) for t in spins[lid]] for lid in spins
                    if lid.startswith("i")}
            links = {lid: [[self.link_trace(*spins[lid], *amps[lid], s, t) for t in tf]
                           for s in tf] for lid in amps}
            self.factors[m, n] = (
                [(b.vertex, f"b{k}" in sc.region_C,
                  [self.boundary_trace(*spins[f"b{k}"], s) for s in tf])
                 for k, b in enumerate(g.boundary)],
                [(ln.source, ln.target, links[f"i{k}"])
                 for k, ln in enumerate(g.internal)])
        return self.factors[m, n]

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
        down = frozenset(x for x in range(self.nv) if config >> x & 1)
        itw, table = self.intertwiner(m, n, down), self.factor_table(m, n)
        return [_dressed(itw, table, down, v) for v in variants]


def _dressed(total: complex, table: tuple, down: frozenset[int], variant: int) -> float:
    """An intertwiner trace times its pair's boundary and link traces."""
    if total == 0.0:
        return 0.0
    bounds, links = table
    for vertex, in_c, traces in bounds:
        total *= traces[(vertex in down) != (variant == 1 and in_c)]
        if total == 0.0:
            return 0.0
    for source, target, traces in links:
        total *= traces[source in down][target in down]
        if total == 0.0:
            return 0.0
    if abs(total.imag) > IMAG_TOL * max(1.0, abs(total.real)):
        raise NumericalError(f"configuration term is not real: {total}")
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


def _draw_states(
    seed: int, vertex: int, start: int, stop: int, dim: int
) -> np.ndarray:
    """Haar states of samples start..stop-1 at one vertex, one row each,
    from the counter-based stream keyed by (seed, vertex, sample): that of
    the Philox keyed [seed, (vertex << 32) | sample], real parts drawn first."""
    bits, fresh, rng = _philox()
    key = np.array([seed, 0], np.uint64)
    state = {**fresh, "state": {**fresh["state"], "key": key}}
    normals = np.empty((stop - start, 2, dim))
    for sample, row in enumerate(normals.reshape(stop - start, -1), start):
        key[1] = (vertex << 32) | sample
        bits.state = state
        rng.standard_normal(out=row)
    v = normals[:, 0] + 1j * normals[:, 1]
    # np.linalg.norm's strided dots, batched: rows are bit for bit v / norm(v)
    re, im = v.real[:, None], v.imag[:, None]
    v /= np.sqrt(re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1))[:, 0]
    return v


def _plan(subscripts: str, operands: tuple) -> list[tuple]:
    """np.einsum's greedy path as batched-matmul steps: each operand has the
    indices no later step reads summed and is transposed to (batch, free,
    contracted) or (batch, contracted, free) and fused to 3 axes; one matmul
    (a multiply where nothing is contracted, as numpy's step); its result
    transposed to the step's indices (the output's on the last step).  A
    step of one or of three or more operands, which numpy runs as one plain
    einsum, keeps its subscripts.  An index has one size and no repeat
    within an operand."""
    path = np.einsum_path(subscripts, *operands, optimize="greedy")[0][1:]
    *terms, output = subscripts.replace("->", ",").split(",")
    size = {ix: d for t, op in zip(terms, operands) for ix, d in zip(t, op.shape)}

    def prep(term, want, *groups):
        drop = tuple(k for k, ix in enumerate(term) if ix not in want)
        kept = [ix for ix in term if ix in want]
        return (drop, list(map(kept.index, want)),
                tuple(math.prod(size[ix] for ix in g) for g in groups))

    steps = []
    for num, pos in enumerate(path):
        pos = sorted(pos, reverse=True)
        ins = [terms.pop(k) for k in pos]
        res = output if num == len(path) - 1 else "".join(sorted(
            set("".join(ins)) & set(output).union(*terms),
            key=lambda ix: (size[ix], ix)))
        terms.append(res)
        if len(ins) != 2:
            steps.append((pos, ",".join(ins) + "->" + res))
            continue
        a, b = ins
        bat, con = ([ix for ix in a if ix in b and (ix in res) == k] for k in (1, 0))
        keep_a, keep_b = ([ix for ix in x if ix in res and ix not in y]
                          for x, y in ((a, b), (b, a)))
        made = bat + keep_a + keep_b
        shape, perm = tuple(size[ix] for ix in made), tuple(map(made.index, res))
        steps.append((pos, (prep(a, bat + keep_a + con, bat, keep_a, con),
                            prep(b, bat + con + keep_b, bat, con, keep_b), shape, perm)))
    return steps


def _contract(plans: dict, subscripts: str, *operands: np.ndarray,
              out: np.ndarray) -> np.ndarray:
    """np.einsum on its greedy path into `out`, each step run as the array
    operations `_plan` compiled once per subscripts and operand shapes."""
    key = (subscripts,) + tuple(op.shape for op in operands)
    if key not in plans:
        plans[key] = _plan(subscripts, operands)
    ops = list(operands)
    for pos, step in plans[key]:
        args = [ops.pop(k) for k in pos]
        if isinstance(step, str):  # as numpy: one einsum, into `out` if last
            ops.append(np.einsum(step, *args, out=None if ops else out))
            continue
        *preps, shape, perm = step
        a, b = ((x.sum(drop) if drop else x).transpose(order).reshape(fused)
                for x, (drop, order, fused) in zip(args, preps))
        ab = a * b if a.shape[-1] == 1 else a @ b
        ops.append(ab.reshape(shape).transpose(perm))
    if ops[0] is not out:
        out[...] = ops[0]
    return out


def mc_purity(sc: Scenario, n_samples: int = 5000, seed: int = 7) -> MCResult:
    """Estimate the purity of region C over explicit Haar vertex states.

    Per sample: contract the network, weight the intertwiner indices
    with rho^I, reduce to the boundary, and record Tr[rho_C^2] and
    (Tr rho)^2.  The estimate is mean(num)/mean(den) with a jackknife
    standard error, NaN for a single sample.

    Samples are contracted in blocks along a leading sample axis, each
    block holding about BLOCK_BYTES of vertex states, boundary tensors,
    Gram products and rho_C, by `_contract` plans compiled once per shape.
    A vertex's states for a block fill one buffer, a keyed draw per row.
    Sectors whose rest spins agree stack their boundary tensors as rows
    (s, c, I) of one M; a Gram product G = M M^H holds every pair's sum
    over the rest legs, and rho^I is read off it with one matrix-vector
    product per nonzero block.  Where G would be larger than M (more rows
    than rest legs), rho^I weights the ket rows before the product instead.
    """
    if n_samples < 1:
        raise ValueError(f"need at least one sample, got {n_samples}")
    if n_samples > SAMPLE_MAX:
        raise SizeCapError(f"{n_samples} samples exceed the cap of {SAMPLE_MAX}")
    if not 0 <= seed <= SEED_MAX:
        raise ValueError(f"seed {seed} outside 0..{SEED_MAX}")
    g = sc.graph
    n_sec = len(sc.sectors)
    nv = g.n_vertices
    c_pos = [k for k in range(len(g.boundary)) if f"b{k}" in sc.region_C]
    rest = [k for k in range(len(g.boundary)) if k not in c_pos]

    layouts = [_vertex_layout(sc, x) for x in range(nv)]
    dims_x = [sum(di * math.prod(legs) for di, legs in lay[0]) for lay in layouts]
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
    # sectors whose rest spins agree form a group: its boundary tensors
    # stack into one matrix M, sector s on rows span[s] = (c, I); rho_C
    # has rows c_span[profile] = c per distinct C spin profile
    groups, span, c_span = {}, {}, {}
    for s in range(n_sec):
        grp = groups.setdefault(rest_spins[s], [])
        low = span[grp[-1]].stop if grp else 0
        span[s] = slice(low, low + n_c[s] * n_i[s])
        grp.append(s)
        low = max((sl.stop for sl in c_span.values()), default=0)
        c_span.setdefault(c_spins[s], slice(low, low + n_c[s]))
    dim_c = max(sl.stop for sl in c_span.values())
    # per group, each nonzero rho^I block r of a (ket, bra) pair as the vector
    # G is read with (r.T flat) or as the matrix that weights the ket rows
    stacks = []
    for grp in groups.values():
        h, n_e = span[grp[-1]].stop, n_rest[grp[0]]
        stacks.append((grp, h, n_e, [(sk, sb, r.T.reshape(-1) if h <= n_e else r)
                                     for sk in grp for sb in grp
                                     if (r := sc.block(sb, sk)).any()]))

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

    # einsum's output axes: sample, C legs, intertwiner indices, rest legs
    out_shape = [(-1, *map(dim_rep, c_spins[s]), *sc.vertex_dims(s),
                  *map(dim_rep, rest_spins[s])) for s in range(n_sec)]

    per_sample = 16 * (
        sum(dims_x)
        + sum(n_c[s] * n_i[s] * n_rest[s] for s in range(n_sec))
        + sum(h * h for _, h, n_e, _ in stacks if h <= n_e)  # Gram products
        + dim_c ** 2
    )
    block = max(1, BLOCK_BYTES // per_sample)
    plans: dict = {}
    nums = np.empty(n_samples)
    dens = np.empty(n_samples)
    for start in range(0, n_samples, block):
        stop = min(start + block, n_samples)
        size = stop - start
        psi: list[dict[tuple[int, ...], np.ndarray]] = []
        for x in range(nv):
            vecs = _draw_states(seed, x, start, stop, dims_x[x])
            parts, off = {}, 0
            for (di, legs), tup in zip(*layouts[x]):
                width = di * math.prod(legs)
                parts[tup] = vecs[:, off:off + width].reshape((size, di) + legs)
                off += width
            psi.append(parts)
        rho_c = np.zeros((size, dim_c, dim_c), complex)
        for grp, height, n_e, weights in stacks:
            m = np.empty((size, height, n_e), complex)
            for s in grp:
                _contract(plans, network,
                          *(psi[x][tuples[s][x]] for x in range(nv)),
                          *link_states[s], out=m[:, span[s]].reshape(out_shape[s]))
            # rho_C[c, c'] += sum r[I1, I2] A_ket[c, I2, e] conj(A_bra[c', I1, e]),
            # r the rho^I block (s_bra, s_ket): read off G = M M^H as a vector
            # where G is no larger than M, else applied before the product
            gram = m @ m.conj().transpose(0, 2, 1) if height <= n_e else None
            for sk, sb, r in weights:
                shape = (size, n_c[sk], n_i[sk], n_c[sb], n_i[sb])
                if gram is None:
                    ket = r @ m[:, span[sk]].reshape(shape[:3] + (-1,))
                    bra = m[:, span[sb]].reshape(size, n_c[sb], -1).conj()
                    pair = ket.reshape(size, n_c[sk], -1) @ bra.transpose(0, 2, 1)
                else:
                    pair = (gram[:, span[sk], span[sb]].reshape(shape)
                            .transpose(0, 1, 3, 2, 4).reshape(-1, r.size)
                            @ r).reshape(shape[:2] + shape[3:4])
                rho_c[:, c_span[c_spins[sk]], c_span[c_spins[sb]]] += pair
        tr = np.trace(rho_c, axis1=1, axis2=2).real
        dens[start:stop] = tr * tr
        nums[start:stop] = np.einsum("sab,sba->s", rho_c, rho_c).real
    n, mean_num, mean_den = n_samples, nums.mean(), dens.mean()
    stderr = math.nan  # a single sample leaves the jackknife undefined
    if n > 1:
        jack = (nums.sum() - nums) / (dens.sum() - dens)
        stderr = math.sqrt((n - 1) / n * ((jack - jack.mean()) ** 2).sum())
    return MCResult(mean_num / mean_den, stderr, n, mean_num, mean_den)


def schur_moment_error(dim: int, n_samples: int = 10_000, seed: int = 3) -> float:
    """Operator-norm error of the empirical doubled second Haar moment of
    `mc_purity`'s sampler: the states `_draw_states` gives vertex 0,
    samples 0..n_samples-1.  The exact value is (identity + swap) / (D (D + 1)).
    """
    if dim > 16:
        raise SizeCapError("second-moment check capped at dimension 16")
    v = _draw_states(seed, 0, 0, n_samples, dim)
    emp = np.einsum("ma,mb,mc,md->abcd", v, v.conj(), v, v.conj()) / n_samples
    ident = np.einsum(
        "ab,cd->abcd", np.eye(dim), np.eye(dim)
    )
    swap = np.einsum("ad,cb->abcd", np.eye(dim), np.eye(dim))
    exact = (ident + swap) / (dim * (dim + 1))
    diff = (emp - exact).reshape(dim * dim, dim * dim)
    return float(np.linalg.norm(diff, 2))
