"""Brute-force reference computations.

Everything here works on explicit tensors: each vertex carries the
direct sum over its sector tuples of (intertwiner factor) x (four
spin legs), internal links carry antisymmetric pair states, and
expectation values are raw index contractions.  No factorized closed
forms from the fast engine are reused, so agreement between the two
is a real cross-check.

Two flavors:

* `exact_purity` contracts the swap-operator expression one
  configuration at a time;
* `mc_purity` draws explicit Haar-random vertex states and estimates
  the purity as a quotient of sample means.  Each vertex's states come
  from its own Philox stream keyed by (seed, vertex), read in sample
  order, so the estimate does not depend on how samples are grouped
  into blocks for contraction.
"""

from __future__ import annotations

import functools
import itertools
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
SEED_MAX = 2**63 - 1  # seeds 0..SEED_MAX are the first word of the Philox keys
SAMPLE_MAX = 2**32  # more would need 64 GiB for the per-sample num and den alone


# -- link and boundary traces ----------------------------------------------

def _pair_state(twice_j: int, g: complex) -> np.ndarray:
    """Explicit link state g/sqrt(d) * sum_m (-1)^(j+m) |j m>|j -m>."""
    d = dim_rep(twice_j)
    e = np.zeros((d, d), dtype=complex)
    for a in range(d):
        e[a, d - 1 - a] = (-1) ** a
    return g / math.sqrt(d) * e


@functools.lru_cache(maxsize=1 << 12)
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
    the link may be swapped between the copies.  Swapping one leg of
    unequal dimension gives exactly zero.  Swapped at both legs, each
    ket pairs with the other copy's bra, which belongs to a hybrid sector
    carrying the other spin there: the bras are those of k, then j.
    Memoised by its arguments.
    """
    if swap_source != swap_target and twice_j != twice_k:
        return 0.0
    ej, ek = _pair_state(twice_j, g_j), _pair_state(twice_k, g_k)
    # rho1 = |ej><ej| with row legs (a_s, a_t), col legs (a_s', a_t');
    # swap on a leg reroutes the primed index to the other copy
    sub = {(False, False): "ab,ab,cd,cd->", (True, False): "ab,cb,cd,ad->",
           (False, True): "ab,ad,cd,cb->", (True, True): "ab,cd,cd,ab->"}
    bras = (ek, ej) if swap_source and swap_target else (ej, ek)
    # a path: pairwise products, O(d^3), where the four-operand loop is O(d^4)
    return complex(np.einsum(sub[swap_source, swap_target], ej, bras[0].conj(), ek,
                             bras[1].conj(), optimize="greedy"))


@functools.lru_cache(maxsize=1 << 10)
def boundary_trace(twice_j: int, twice_k: int, swapped: bool) -> float:
    """Trace of the doubled boundary leg, with or without a swap;
    memoised by its arguments."""
    ij = np.eye(dim_rep(twice_j))
    ik = np.eye(dim_rep(twice_k))
    if not swapped:
        return float(np.trace(ij) * np.trace(ik))
    if twice_j != twice_k:
        return 0.0
    return float(np.einsum("ab,ba->", ij, ik))


# -- exact configuration terms ---------------------------------------------

@functools.lru_cache(maxsize=1 << 13)
def _subscripts(nv: int, down: int) -> str:
    """The two-operand einsum of a term on nv vertices whose vertices in
    the bitmask `down` are swapped: rows, then columns, of each copy."""
    r1, r2 = LETTERS[:nv], LETTERS[nv:2 * nv]
    c1 = "".join(r2[x] if down >> x & 1 else r1[x] for x in range(nv))
    c2 = "".join(r1[x] if down >> x & 1 else r2[x] for x in range(nv))
    return f"{r1}{c1},{r2}{c2}->"


class _RawTerms:
    """One scenario's tables for the raw configuration terms.

    Built once: an ordered sector pair's two hybrid sectors for every
    configuration, in one `itertools.product` pass over the vertices (only
    the last pair's kept, 2^V entries), each (row sector, hybrid) block
    reshaped to its per-vertex operand, and each pair's boundary and link
    trace factors as plain numbers (the traces memoised module-wide by
    their arguments), so a term costs one two-operand einsum and a product
    of table entries.
    """

    def __init__(self, sc: Scenario):
        self.sc, self.nv, n_sec = sc, sc.graph.n_vertices, len(sc.sectors)
        if 2 * self.nv > 26:  # rows and columns take lowercase letters
            raise SizeCapError(f"{2 * self.nv} einsum letters exceed the 26 the "
                               f"reference contraction can name")
        # vertex tuples highest vertex first: a product over the vertices
        # runs over the configurations in increasing order, vertex 0 fastest
        self.tuples = [tuple(sc.vertex_tuple(s, x) for x in reversed(range(self.nv)))
                       for s in range(n_sec)]
        self.sector_of: dict[tuple, int] = {}
        for q, tup in enumerate(self.tuples):
            self.sector_of.setdefault(tup, q)
        self.pair, self.pair_hybrids = None, []
        self.shapes = [sc.vertex_dims(s) for s in range(n_sec)]
        self.operands: dict[tuple[int, int], np.ndarray] = {}
        self.factors: dict[tuple[int, int], tuple] = {}

    def factor_table(self, m: int, n: int) -> tuple:
        """The pair's factors per variant: per boundary leg its vertex and
        its traces by whether that vertex is down (a leg on C swaps the
        other way in variant 1); per internal link its ends and its traces
        [source down][target down]."""
        if (m, n) not in self.factors:
            sc, g, tf = self.sc, self.sc.graph, (False, True)
            spins = {lid: (sc.spin(m, lid), sc.spin(n, lid)) for lid in g.link_ids()}
            amps = {lid: [sc.amplitude(lid, t) for t in spins[lid]] for lid in spins
                    if lid.startswith("i")}
            links = [(ln.source, ln.target, [[link_swap_trace(*spins[f"i{k}"], *amps[f"i{k}"],
                                                              s, t) for t in tf] for s in tf])
                     for k, ln in enumerate(g.internal)]
            bounds = [(b.vertex, f"b{k}" in sc.region_C,
                       [boundary_trace(*spins[f"b{k}"], s) for s in tf])
                      for k, b in enumerate(g.boundary)]
            self.factors[m, n] = tuple(
                ([(x, traces[::-1] if v and in_c else traces) for x, in_c, traces in bounds],
                 links) for v in (0, 1))
        return self.factors[m, n]

    def hybrids(self, m: int, n: int) -> list[tuple]:
        """Per configuration, the sectors matching m outside its down set and
        n inside, and n outside and m inside; the last pair's are kept."""
        if self.pair != (m, n):
            a, b, get = self.tuples[m], self.tuples[n], self.sector_of.get
            self.pair, self.pair_hybrids = (m, n), list(zip(
                map(get, itertools.product(*zip(a, b))), map(get, itertools.product(*zip(b, a)))))
        return self.pair_hybrids

    def operand(self, m: int, h: int) -> np.ndarray:
        """Block (m, h) with one row and one column axis per vertex."""
        if (m, h) not in self.operands:
            self.operands[m, h] = self.sc.block(m, h).reshape(self.shapes[m] + self.shapes[h])
        return self.operands[m, h]

    def intertwiner(self, m: int, n: int, down: int) -> complex:
        """Raw trace of (rho^I x rho^I) with per-vertex swaps on the
        vertices of the bitmask `down`."""
        h1, h2 = self.hybrids(m, n)[down]
        if h1 is None or h2 is None:
            return 0.0
        # two operands: a path would add dispatch cost, not save work
        return complex(np.einsum(_subscripts(self.nv, down),
                                 self.operand(m, h1), self.operand(n, h2)))


def _dressed(total: complex, table: tuple, down: int) -> float:
    """An intertwiner trace times one variant's boundary and link traces
    of its pair, at the configuration whose down set is the bitmask `down`."""
    if total == 0.0:
        return 0.0
    bounds, links = table
    for vertex, traces in bounds:
        total *= traces[down >> vertex & 1]
        if total == 0.0:
            return 0.0
    for source, target, traces in links:
        total *= traces[down >> source & 1][down >> target & 1]
        if total == 0.0:
            return 0.0
    if abs(total.imag) > IMAG_TOL * max(1.0, abs(total.real)):
        raise NumericalError(f"configuration term is not real: {total}")
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
    if (cost := _amplitude_cost(sc)) > AMPLITUDE_CAP:
        raise SizeCapError(f"scenario too large for the reference contraction: "
                           f"{cost} amplitudes exceed the cap of {AMPLITUDE_CAP}")
    raw = _RawTerms(sc)
    n_sec = len(sc.sectors)
    z0 = z1 = 0.0
    for m in range(n_sec):
        for n in range(n_sec):
            t0, t1 = raw.factor_table(m, n)
            for config in range(1 << sc.graph.n_vertices):
                itw = raw.intertwiner(m, n, config)
                z0 += _dressed(itw, t0, config)
                z1 += _dressed(itw, t1, config)
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


def _stream(seed: int, vertex: int) -> np.random.Generator:
    """The stream of one vertex's states: the Philox keyed [seed, vertex],
    built seeded (reads no OS entropy) and re-keyed once."""
    bits = np.random.Philox(0)
    state = bits.state
    state["state"]["key"] = np.array([seed, vertex], np.uint64)
    bits.state = state
    return np.random.Generator(bits)


def _draw_states(rng: np.random.Generator, size: int, dim: int) -> np.ndarray:
    """The next `size` Haar states of dimension dim on one vertex's stream,
    one row each: complex normals, real and imaginary parts interleaved."""
    v = rng.standard_normal((size, dim, 2)).view(complex)[..., 0]
    # np.linalg.norm's strided dots, batched: rows are bit for bit v / norm(v)
    re, im = v.real[:, None], v.imag[:, None]
    v /= np.sqrt(re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1))[:, 0]
    return v


@functools.lru_cache(maxsize=1 << 10)
def _plan(subscripts: str, shapes: tuple) -> tuple:
    """np.einsum's greedy path as batched-matmul steps, memoised by the
    subscripts and operand shapes: each operand has the
    indices no later step reads summed and is transposed to (batch, free,
    contracted) or (batch, contracted, free) and fused to 3 axes; one matmul
    (a multiply where nothing is contracted, as numpy's step); its result
    transposed to the step's indices (the output's on the last step).  A
    step of one or of three or more operands, which numpy runs as one plain
    einsum, keeps its subscripts.  An index has one size and no repeat
    within an operand."""
    stand_ins = (np.broadcast_to(0j, shape) for shape in shapes)  # shapes, no data
    path = np.einsum_path(subscripts, *stand_ins, optimize="greedy")[0][1:]
    *terms, output = subscripts.replace("->", ",").split(",")
    size = {ix: d for t, shape in zip(terms, shapes) for ix, d in zip(t, shape)}

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
    return tuple(steps)


def _contract(subscripts: str, *operands: np.ndarray, out: np.ndarray) -> np.ndarray:
    """np.einsum on its greedy path into `out`, each step run as the array
    operations `_plan` compiled once per subscripts and operand shapes."""
    ops = list(operands)
    for pos, step in _plan(subscripts, tuple(op.shape for op in operands)):
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
    with rho^I, reduce to the boundary, and record Tr[rho_C^2] (the squared
    Frobenius norm of the Hermitian rho_C) and (Tr rho)^2.  The estimate
    is mean(num)/mean(den) with a jackknife standard error, NaN for a
    single sample.

    Samples are contracted in blocks along a leading sample axis, each
    block holding about BLOCK_BYTES of vertex states, boundary tensors,
    Gram products, fold temporaries and rho_C, by `_contract` plans
    compiled once per process for each network and operand shapes.  A
    vertex's states for a block are the next rows of its Philox stream,
    keyed [seed, vertex] and built once per call, in one draw.
    Sectors whose rest spins agree stack their boundary tensors as rows
    (s, c, I) of one M; a Gram product G = M M^H holds every pair's sum
    over the rest legs, and rho^I is read off it with one matrix-vector
    product per nonzero block.  Where G would be larger than M (more rows
    than rest legs), rho^I weights the ket rows before the product instead.

    Both read M only through sums over the rest legs, so a group may fold
    a vertex x's rest legs (the gauge step of tensor-network canonical
    forms): the group's distinct tuple slices of the states at x stack into
    Psi_x, rows (intertwiner, kept legs) against x's r_x rest values, and
    one index carrying L = R^T, R from the batched qr of Psi_x^T, replaces
    those legs; L L^H = Psi_x Psi_x^H.  The rule reads shapes only: with h
    rows and n_e rest values in the group, x is a candidate where r_x >= 4
    rows and the Gram multiply-adds removed, h^2 n_e (r_x - rows) / r_x,
    exceed the QR's rows^2 r_x; candidates fold only where the block, sized
    with the folded M and the fold's temporaries, then holds more samples.
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
    # per group: its rows h, rest values n_e and the vertices x whose fold
    # pays: Psi_x stacks the group's distinct tuples at x, rows (intertwiner,
    # kept legs) against the r_x values of x's rest legs, the colors `cut`
    # that `order` puts last; per tuple its rows of Psi_x and state shape
    tuples = [[sc.vertex_tuple(s, x) for x in range(nv)] for s in range(n_sec)]
    rest_at: dict[int, list[int]] = {}
    for k in rest:
        rest_at.setdefault(g.boundary[k].vertex, []).append(g.boundary[k].color)
    cands = []
    for grp in groups.values():
        h, n_e, folds = span[grp[-1]].stop, n_rest[grp[0]], {}
        for x, cut in rest_at.items():
            order = [c for c in range(1, 5) if c not in cut] + cut
            tups = list(dict.fromkeys(tuples[s][x] for s in grp))
            r_x = math.prod(dim_rep(tups[0][c - 1]) for c in cut)
            full = [(intertwiner_dimension(t), *(dim_rep(t[c - 1]) for c in order))
                    for t in tups]
            ends = list(itertools.accumulate((math.prod(f) // r_x for f in full), initial=0))
            rows = ends[-1]
            if r_x >= 4 * rows and h * h * n_e * (r_x - rows) > rows * rows * r_x * r_x:
                folds[x] = (cut, order, r_x, rows, [(t, slice(a, b), f) for t, f, a, b
                                                    in zip(tups, full, ends, ends[1:])])
        cands.append((grp, h, n_e, folds))

    def per_sample(fold: bool) -> int:
        """Bytes per sample of vertex states, each group's M, Gram product and
        fold temporaries (Psi_x, qr's copy of it, R), and rho_C."""
        total = sum(dims_x) + dim_c ** 2
        for _, h, n_e, folds in cands:
            for _, _, r_x, rows, _ in folds.values() if fold else ():
                n_e = n_e // r_x * rows
                total += 2 * rows * r_x + rows * rows
            total += h * n_e + (h * h if h <= n_e else 0)
        return 16 * total

    fold = BLOCK_BYTES // per_sample(True) > BLOCK_BYTES // per_sample(False)
    block = max(1, BLOCK_BYTES // per_sample(fold))

    # network per group: vertex states (a folded vertex's rest legs one index,
    # named as its first) and conjugated link pair states -> sector boundary
    # tensor A_s[sample, C legs, intertwiner indices, rest legs]
    pool = iter(LETTERS)
    smp = next(pool)
    iota = "".join(next(pool) for _ in range(nv))
    leg = {(x, c): next(pool) for x in range(nv) for c in range(1, 5)}
    bleg = [leg[b.vertex, b.color] for b in g.boundary]
    link_states = [[_pair_state(j := sc.spin(s, f"i{k}"), sc.amplitude(f"i{k}", j)).conj()
                    for k in range(len(g.internal))] for s in range(n_sec)]
    # per group also each nonzero rho^I block r of a (ket, bra) pair as the
    # vector G is read with (r.T flat) or as the matrix that weights the ket rows
    stacks = []
    for grp, h, n_e, folds in cands:
        folds = folds if fold else {}
        kept = {x: order[:5 - len(cut)] for x, (cut, order, *_) in folds.items()}
        outs = [k for k in rest if (b := g.boundary[k]).vertex not in folds
                or b.color == folds[b.vertex][0][0]]
        e_dims = [folds[x][3] if (x := g.boundary[k].vertex) in folds
                  else dim_rep(sc.spin(grp[0], f"b{k}")) for k in outs]
        n_e = math.prod(e_dims)
        network = (
            ",".join([smp + iota[x] + "".join(leg[x, c] for c in kept.get(x, range(1, 5)))
                      for x in range(nv)]
                     + [leg[ln.source, ln.color] + leg[ln.target, ln.color]
                        for ln in g.internal])
            + "->" + smp + "".join(bleg[k] for k in c_pos)
            + iota + "".join(bleg[k] for k in outs)
        )
        # einsum's output axes: sample, C legs, intertwiner indices, rest legs
        out_shape = {s: (-1, *map(dim_rep, c_spins[s]), *sc.vertex_dims(s), *e_dims)
                     for s in grp}
        stacks.append((grp, h, n_e, folds, network, out_shape,
                       [(sk, sb, r.T.reshape(-1) if h <= n_e else r)
                        for sk in grp for sb in grp if (r := sc.block(sb, sk)).any()]))

    streams = [_stream(seed, x) for x in range(nv)]
    nums = np.empty(n_samples)
    dens = np.empty(n_samples)
    for start in range(0, n_samples, block):
        stop = min(start + block, n_samples)
        size = stop - start
        psi: list[dict[tuple[int, ...], np.ndarray]] = []
        for x in range(nv):
            vecs = _draw_states(streams[x], size, dims_x[x])
            parts, off = {}, 0
            for (di, legs), tup in zip(*layouts[x]):
                width = di * math.prod(legs)
                parts[tup] = vecs[:, off:off + width].reshape((size, di) + legs)
                off += width
            psi.append(parts)
        rho_c = np.zeros((size, dim_c, dim_c), complex)
        for grp, height, n_e, folds, network, out_shape, weights in stacks:
            ops = list(psi)
            for x, (cut, order, r_x, rows, layout) in folds.items():
                stack = np.empty((size, rows, r_x), complex)
                for t, rs, full in layout:
                    stack[:, rs].reshape((size, *full))[...] = psi[x][t].transpose(
                        0, 1, *(1 + c for c in order))
                # L = R^T for Psi_x^T = QR has L L^H = Psi_x Psi_x^H
                low = np.linalg.qr(stack.transpose(0, 2, 1), mode="r").transpose(0, 2, 1)
                ops[x] = {t: low[:, rs].reshape((size, *full[:-len(cut)], rows))
                          for t, rs, full in layout}
            m = np.empty((size, height, n_e), complex)
            for s in grp:
                _contract(network, *(ops[x][tuples[s][x]] for x in range(nv)),
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
        # rho_C is Hermitian: Tr rho_C^2 is its squared Frobenius norm
        flat = rho_c.view(float).reshape(size, 1, -1)
        nums[start:stop] = (flat @ flat.transpose(0, 2, 1))[:, 0, 0]
    n, mean_num, mean_den = n_samples, nums.mean(), dens.mean()
    stderr = math.nan  # a single sample leaves the jackknife undefined
    if n > 1:
        jack = (nums.sum() - nums) / (dens.sum() - dens)
        stderr = math.sqrt((n - 1) / n * ((jack - jack.mean()) ** 2).sum())
    return MCResult(mean_num / mean_den, stderr, n, mean_num, mean_den)

