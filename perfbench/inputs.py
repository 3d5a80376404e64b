"""Input generation and reference values for the benchmark.

Everything here uses numpy and the standard library only; nothing is
imported from rstn.  Scenario files are written as plain JSON in the
format of `rstn.state`, and the reference values come from closed
forms that follow from how the inputs were built, not from the engine.

The ring used by `dense-bulk` and `many-sectors` has N vertices;
internal link i<x> joins x and x+1 (mod N) with colour 1 for even x and
2 for odd x, and every vertex keeps two boundary legs, b<2x> (colour 3)
and b<2x+1> (colour 4).  N must be even for the colouring to close.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

RING_N = 8
LOG2 = math.log(2.0)

# -- shared JSON helpers ------------------------------------------------------


def ring_graph(n: int) -> dict:
    return {
        "vertices": n,
        "internal_links": [
            {"from": x, "to": (x + 1) % n, "color": 1 if x % 2 == 0 else 2}
            for x in range(n)
        ],
        "boundary_links": [
            {"vertex": x, "color": c, "side": "outer"}
            for x in range(n)
            for c in (3, 4)
        ],
    }


def matrix_json(a: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in a]


def matrix_from_json(rows: list) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Full-rank random density matrix (Wishart plus a small floor)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    r = g @ g.conj().T + 0.05 * np.eye(dim)
    return r / np.trace(r).real


def ring_cuts(mask: int, n: int) -> int:
    """Internal ring links with exactly one end in the vertex set `mask`."""
    return sum(((mask >> x) & 1) != ((mask >> ((x + 1) % n)) & 1) for x in range(n))


def popcount(x: int) -> int:
    return bin(x).count("1")


# -- dense-bulk ----------------------------------------------------------------
#
# A single spin-1/2 sector: every vertex tuple is (1/2)^4, intertwiner
# dimension 2, so rho^I is a dense 2^N x 2^N matrix.  It is a mixture of
# K random vertex-product states, full rank, and
#     Tr rho_S^2 = sum_kl w_k w_l prod_{x in S} Tr(rho_x^k rho_x^l),
# which gives every partition sum in closed form.  C is both legs of
# the first N/2 vertices, i.e. the leg bitmask (1 << N) - 1.

DENSE_COMPONENTS = 3


def dense_bulk(rng: np.random.Generator, n: int = RING_N):
    comps = [[random_density(rng, 2) for _ in range(n)]
             for _ in range(DENSE_COMPONENTS)]
    w = rng.random(DENSE_COMPONENTS) + 0.2
    w /= w.sum()
    rho = np.zeros((2**n, 2**n), dtype=complex)
    for k in range(DENSE_COMPONENTS):
        prod = np.ones((1, 1), dtype=complex)
        for x in range(n):
            prod = np.kron(prod, comps[k][x])
        rho += w[k] * prod
    direction = []
    for _ in range(n):
        h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        direction.append((h + h.conj().T) / 2.0)
    spins = {f"i{x}": 1 for x in range(n)}
    spins.update({f"b{j}": 1 for j in range(2 * n)})
    scenario = {
        "graph": ring_graph(n),
        "sectors": [{"name": "half", "spins": spins}],
        "intertwiner": {"blocks": {"0,0": matrix_json(rho)}},
        "region_C": [f"b{j}" for j in range(n)],
        "mode": "exact",
    }
    return scenario, dense_reference(comps, w, direction, n), direction


def _leg_mask(mask: int, n: int) -> int:
    """Boundary-leg bitmask (bit 2x, 2x+1 per vertex x) of a vertex set."""
    out = 0
    for x in range(n):
        if mask >> x & 1:
            out |= 3 << (2 * x)
    return out


def dense_reference(comps, w, direction, n: int) -> dict:
    k = len(w)
    # overlaps[a][b][x] = Tr(rho_x^a rho_x^b); along[a][x] = Tr(rho_x^a X_x)
    overlaps = np.array([[[np.trace(comps[a][x] @ comps[b][x]).real
                           for x in range(n)] for b in range(k)]
                         for a in range(k)])
    along = np.array([[np.trace(comps[a][x] @ direction[x]).real
                       for x in range(n)] for a in range(k)])
    tr_dir = np.array([np.trace(direction[x]).real for x in range(n)])
    c_legs = (1 << n) - 1
    z = [0.0, 0.0]
    energies = [[], []]
    s2 = {}
    grad = 0.0
    grad_scale = 0.0
    for mask in range(1 << n):
        inside = [x for x in range(n) if mask >> x & 1]
        outside = [x for x in range(n) if not mask >> x & 1]
        pur = float(sum(w[a] * w[b] * np.prod(overlaps[a][b][inside])
                        for a in range(k) for b in range(k)))
        s2[mask] = -math.log(pur)
        legs = _leg_mask(mask, n)
        cuts = ring_cuts(mask, n)
        for v in (0, 1):
            paying = cuts + popcount(legs ^ c_legs if v else legs)
            energy = paying * LOG2 + s2[mask]
            energies[v].append(energy)
            z[v] += math.exp(-energy)
        alpha = 2.0 ** -(cuts + popcount(legs ^ c_legs))
        rho_x = float(np.prod(tr_dir[outside])
                      * sum(w[a] * np.prod(along[a][inside]) for a in range(k)))
        term = rho_x - float(np.prod(tr_dir)) * pur
        grad += alpha * term
        grad_scale += alpha * (abs(rho_x) + abs(float(np.prod(tr_dir))) * pur)
    gap = math.inf
    for v in (0, 1):
        best = min(energies[v])
        rest = [e for e in energies[v] if e - best > 1e-9]
        gap = min(gap, min(rest) - best)
    fixed = []
    for mask in range(1, 1 << n):
        legs = _leg_mask(mask, n)
        plus = ring_cuts(mask, n) + popcount(legs & ~c_legs)
        minus = popcount(legs & c_legs)
        fixed.append([mask, plus - minus, popcount(mask), s2[mask]])
    purity = z[1] / z[0]
    return {
        "n": n,
        "log_z": [math.log(z[0]), math.log(z[1])],
        "purity": purity,
        "dim_H_C": 2**n,
        "error_bound": ((1 << n) - 1) * math.exp(-gap),
        "gradient": 2.0 * grad,
        "gradient_scale": 2.0 * grad_scale,
        # per nonempty vertex set: (mask, lhs in units of log 2,
        # necessary-condition rhs in units of log 2, S2 of the reduction)
        "fixed_spin": fixed,
    }


# -- many-sectors --------------------------------------------------------------
#
# Spin-1/2 ring links everywhere; a vertex is "on" (both legs spin 1/2,
# intertwiner dimension 2) or "off" (both legs spin 0, dimension 1).
# Sectors differ in which vertices are on, so the bulk blocks are tiny
# and the time goes to enumerating 2^N configurations per sector pair.
#
# ms6 (exact mode): six sectors over vertices 0..4 whose on-patterns
#   form a set with no "hybrid" (no member agrees with two others
#   wherever those two agree), so every cross-sector trace is the
#   trace of a product of positive matrices.  C is both legs of
#   vertices 0..4; sectors that differ there meet coherently in
#   variant 1, so the cross-sector blocks of the bulk state count.
# ms5 (high_spin mode): the four on/off patterns of vertices 0 and 1
#   plus a fifth that also turns vertex 4 on.  C is the colour-3 leg of
#   vertices 0 and 1.  The C spin profiles cover every combination, so
#   holographic weights exist (p proportional to dim H_C per sector).

MS6_VERTICES = (0, 1, 2, 3, 4)
MS6_WORDS = [(0, 0, 0, 0, 0), (0, 0, 0, 1, 1), (0, 0, 1, 0, 1),
             (0, 1, 0, 0, 1), (1, 0, 0, 0, 1), (1, 1, 1, 1, 0)]
MS5_VERTICES = (0, 1, 4)
MS5_WORDS = [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)]
MS5_C_VERTICES = (0, 1)


def _on_sets(words, vertices):
    return [frozenset(v for v, b in zip(vertices, word) if b) for word in words]


def _sector_json(on: frozenset, n: int, name: str) -> dict:
    spins = {f"i{x}": 1 for x in range(n)}
    for x in range(n):
        spins[f"b{2 * x}"] = spins[f"b{2 * x + 1}"] = 1 if x in on else 0
    return {"name": name, "spins": spins}


def _coherent_blocks(rng: np.random.Generator, dims: list[int]):
    total = sum(dims)
    full = random_density(rng, total)
    offs = np.concatenate([[0], np.cumsum(dims)]).astype(int)
    blocks = {
        f"{m},{q}": matrix_json(full[offs[m]:offs[m + 1], offs[q]:offs[q + 1]])
        for m in range(len(dims)) for q in range(m, len(dims))
    }
    c = [float(np.trace(full[offs[m]:offs[m + 1], offs[m]:offs[m + 1]]).real)
         for m in range(len(dims))]
    return blocks, c


def many_sectors(rng: np.random.Generator, n: int = RING_N):
    on6 = _on_sets(MS6_WORDS, MS6_VERTICES)
    blocks6, _ = _coherent_blocks(rng, [2 ** len(s) for s in on6])
    ms6 = {
        "graph": ring_graph(n),
        "sectors": [_sector_json(s, n, "".join(map(str, word)))
                    for s, word in zip(on6, MS6_WORDS)],
        "intertwiner": {"blocks": blocks6},
        "region_C": [f"b{2 * x + j}" for x in MS6_VERTICES for j in (0, 1)],
        "mode": "exact",
    }
    on5 = _on_sets(MS5_WORDS, MS5_VERTICES)
    blocks5, c5 = _coherent_blocks(rng, [2 ** len(s) for s in on5])
    ms5 = {
        "graph": ring_graph(n),
        "sectors": [_sector_json(s, n, "".join(map(str, word)))
                    for s, word in zip(on5, MS5_WORDS)],
        "intertwiner": {"blocks": blocks5},
        "region_C": [f"b{2 * x}" for x in MS5_C_VERTICES],
        "mode": "high_spin",
    }
    refs = {
        "ms6": {"dim_H_C": 3 ** (2 * len(MS6_VERTICES))},
        "ms5": ms5_reference(on5, c5),
    }
    return ms6, ms5, refs


def ms5_reference(on_sets, c) -> dict:
    """High-spin partition data of ms5, from its ground states.

    Every energy is a sum of log 2 per paying leg or cut ring link plus
    a non-negative bulk term, so the ground states can be read off:
    variant 0 of every pair has the empty swap set (energy 0), doubled
    by the all-swapped set when no vertex is on; variant 1 of a diagonal
    pair pays the C legs, log dim H_C(m); pairs whose C legs differ have
    no admissible variant-1 configuration; pairs that differ only at
    vertex 4 pay the shared C legs.
    """
    n_sec = len(on_sets)
    c_on = [len(s & set(MS5_C_VERTICES)) for s in on_sets]
    d_c = [2 ** k for k in c_on]
    dim = 3 ** len(MS5_C_VERTICES)
    z0 = np.ones((n_sec, n_sec))
    z1 = np.zeros((n_sec, n_sec))
    for m in range(n_sec):
        for q in range(n_sec):
            if m == q:
                degenerate = 2.0 if not on_sets[m] else 1.0
                z0[m, q] = degenerate
                z1[m, q] = degenerate / d_c[m]
            elif on_sets[m] & set(MS5_C_VERTICES) == on_sets[q] & set(MS5_C_VERTICES):
                z1[m, q] = 1.0 / d_c[m]
    k = np.array([4.0 ** len(s) * c[m] for m, s in enumerate(on_sets)])
    weights = np.outer(k, k)
    purity = float((weights * z1).sum() / (weights * z0).sum())
    p_mat = weights * z0 / (weights * z0).sum()
    q_mat = np.where(z1 > 0, dim * z1 / z0, 0.0)
    holographic = abs(purity * dim - 1.0) <= 1e-2
    areas = np.array([0.5 * k_on for k_on in c_on])
    if holographic:
        p = np.array(d_c, dtype=float) / sum(d_c)
    else:
        p = np.diag(p_mat) / np.diag(p_mat).sum()
    mean = float(p @ areas)
    return {
        "purity": purity,
        "dim_H_C": dim,
        "z0": z0.tolist(),
        "z1": z1.tolist(),
        "P": p_mat.tolist(),
        "Q": q_mat.tolist(),
        "holographic": holographic,
        "area_variance": max(float(p @ areas**2) - mean**2, 0.0),
        "k_tilde": [4.0 ** len(s) for s in on_sets],
    }


# -- appendix_c closed forms -----------------------------------------------------


def appendix_c_sums(twice_s, a, d, w, b=0.0, u=0.0, v=0.0) -> dict:
    """The six partition sums of the two-sector pinwheel, keyed (m, n, variant).

    The same closed forms as `benchmark_partition_sums` in the
    repository's test oracles, kept here so the benchmark's reference
    does not change with the test suite.
    """
    S = twice_s
    P = S + 1
    D1 = 3 * S - 1
    D2 = 3 * S + 1
    out = {
        (1, 1, 0): 1 + 2 * P**-3 / D2 + P**-4 / D2**2,
        (1, 1, 1): 1 / D2 + P**-3 + P**-3 / D2**2 + P**-4 / D2,
    }
    if a + d > 0:
        t = (a * a + d * d + 2 * abs(b) ** 2) / (a + d) ** 2
        out[(0, 0, 0)] = 1 + P**-3 / D1 * t + P**-3 / D2 + P**-4 / (D1 * D2) * t
        out[(0, 0, 1)] = 1 / D1 + P**-3 * t + P**-3 / (D1 * D2) + P**-4 / D2 * t
        if w > 0:
            q = (abs(u) ** 2 + abs(v) ** 2) / (w * (a + d))
            out[(0, 1, 0)] = out[(1, 0, 0)] = 1 + P**-3 / D2
            out[(0, 1, 1)] = out[(1, 0, 1)] = P**-3 * q + P**-4 / D2 * q
    return out


def appendix_c_purity(twice_s, a, d, w, b=0.0, u=0.0, v=0.0) -> float:
    """Purity of region x (the sector-splitting leg) from the closed forms.

    Sector weights are K_m = prod of boundary dims * Tr rho_mm; the two
    sectors differ only in that leg (3S-1 against 3S+1).
    """
    S = twice_s
    common = (S + 1) ** 4 * (3 * S + 1)
    k = [common * (3 * S - 1) * (a + d), common * (3 * S + 1) * w]
    sums = appendix_c_sums(S, a, d, w, b, u, v)
    num = den = 0.0
    for m, q in itertools.product((0, 1), repeat=2):
        if k[m] > 0 and k[q] > 0:
            num += k[m] * k[q] * sums[(m, q, 1)]
            den += k[m] * k[q] * sums[(m, q, 0)]
    return num / den


def global_purity(n_outer: int, n_a: int, q: float, jmin: int, jmax: int) -> float:
    """(h^|Abar| + q h^|A|) / (h^n + q) with h = [dJ(dJ+1) - dj(dj+1)] / 2."""
    d_hi, d_lo = jmax + 1, jmin + 1
    h = (d_hi * (d_hi + 1) - d_lo * (d_lo + 1)) // 2
    return (h ** (n_outer - n_a) + q * h ** n_a) / (h ** n_outer + q)
