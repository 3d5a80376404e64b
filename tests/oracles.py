"""Independent reference computations used by the tests.

Everything here is deliberately derived by a different route than the
package code: invariant-subspace dimensions by weight counting and by
a Casimir null space, the two-vertex benchmark partition sums as
frozen closed forms, the two-sector area variance in exact rational
arithmetic, gradients by central finite differences, partial traces
by one np.einsum per subset, and the pairwise log-sum as a scalar loop.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from rstn.ising import IsingEngine
from rstn.state import Scenario


def weight_counting_invariant_dim(twice: tuple[int, ...]) -> int:
    """dim of the invariant subspace of a product of SU(2) irreps.

    Equals (multiplicity of total weight 0) minus (multiplicity of
    total weight 1), counting weights in twice-units.
    """
    counts = {0: 1}
    for tj in twice:
        nxt: dict[int, int] = {}
        for w, c in counts.items():
            for m in range(-tj, tj + 1, 2):
                nxt[w + m] = nxt.get(w + m, 0) + c
        counts = nxt
    return counts.get(0, 0) - counts.get(2, 0)


def _spin_matrices(tj: int):
    d = tj + 1
    j = tj / 2.0
    m = np.array([j - k for k in range(d)])
    jz = np.diag(m)
    jp = np.zeros((d, d))
    for k in range(1, d):
        jp[k - 1, k] = math.sqrt(j * (j + 1) - m[k] * (m[k] + 1))
    jm = jp.T
    jx = (jp + jm) / 2.0
    jy = (jp - jm) / 2.0  # times -i; handled via real antisymmetric part
    return jx, jy, jz


def casimir_invariant_dim(twice: tuple[int, ...]) -> int:
    """Null-space dimension of the total J^2 on the product space."""
    dims = [tj + 1 for tj in twice]
    total = int(np.prod(dims))
    jx = np.zeros((total, total), dtype=complex)
    jy = np.zeros((total, total), dtype=complex)
    jz = np.zeros((total, total), dtype=complex)
    for leg, tj in enumerate(twice):
        x, y, z = _spin_matrices(tj)
        ops = [np.eye(d) for d in dims]
        for name, op in (("x", x), ("y", 1j * y), ("z", z)):
            ops[leg] = op
            full = ops[0]
            for o in ops[1:]:
                full = np.kron(full, o)
            if name == "x":
                jx = jx + full
            elif name == "y":
                jy = jy + full
            else:
                jz = jz + full
            ops[leg] = np.eye(dims[leg])
    j2 = jx @ jx + jy @ jy + jz @ jz
    evals = np.linalg.eigvalsh(j2)
    return int(np.sum(np.abs(evals) < 1e-8))


# -- two-vertex benchmark closed forms ---------------------------------------


def benchmark_partition_sums(
    twice_s: int,
    a: float,
    d: float,
    w: float,
    b: complex = 0.0,
    u: complex = 0.0,
    v: complex = 0.0,
) -> dict[tuple[int, int, int], float]:
    """The six partition sums of the two-sector pinwheel benchmark.

    Keys are (m, n, variant).  Frozen independently of the engine.
    """
    S = twice_s
    P = S + 1
    D1 = 3 * S - 1
    D2 = 3 * S + 1
    t = (a * a + d * d + 2 * abs(b) ** 2) / (a + d) ** 2
    q = (abs(u) ** 2 + abs(v) ** 2) / (w * (a + d))
    return {
        (0, 0, 0): 1 + P**-3 / D1 * t + P**-3 / D2 + P**-4 / (D1 * D2) * t,
        (0, 0, 1): 1 / D1 + P**-3 * t + P**-3 / (D1 * D2) + P**-4 / D2 * t,
        (1, 1, 0): 1 + 2 * P**-3 / D2 + P**-4 / D2**2,
        (1, 1, 1): 1 / D2 + P**-3 + P**-3 / D2**2 + P**-4 / D2,
        (0, 1, 0): 1 + P**-3 / D2,
        (0, 1, 1): P**-3 * q + P**-4 / D2 * q,
    }


# -- two-sector area statistics ---------------------------------------------


def two_sector_var_prefactor(a1: float, a2: float) -> float:
    """Var(A) / (A1 + A2)^2 for two sectors with p_i = A_i / (A1 + A2).

    Exact rational arithmetic on the Bernoulli form
    Var = p1 p2 (A1 - A2)^2, which never exceeds p2 < A2 / A1.
    """
    x1, x2 = Fraction(a1), Fraction(a2)
    s = x1 + x2
    return float((x1 / s) * (x2 / s) * (x1 - x2) ** 2 / s**2)


# -- gradients ---------------------------------------------------------------


def swapped_sum_of(sc: Scenario) -> float:
    """The swapped partition sum of a single-sector scenario."""
    return IsingEngine(sc).partition_pair(0, 0).z1.to_linear()


def fd_swapped_gradient(
    sc: Scenario, direction: np.ndarray, step: float = 1e-5
) -> float:
    """Central finite difference of the swapped sum along `direction`.

    Exploits scale invariance of the functional: each perturbed state
    is trace-normalized before it is handed back to the engine.
    """

    def value(eps: float) -> float:
        rho = sc.block(0, 0) + eps * direction
        rho = rho / np.trace(rho).real
        perturbed = Scenario(
            graph=sc.graph,
            sectors=sc.sectors,
            amplitudes=sc.amplitudes,
            blocks={(0, 0): rho},
            region_C=sc.region_C,
            mode="exact",
            vertex_product=sc.vertex_product,
        )
        return swapped_sum_of(perturbed)

    return (value(step) - value(-step)) / (2 * step)


def psd_safe_direction(
    rho: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """A Hermitian direction X with rho + eps X still PSD for small eps."""
    dim = rho.shape[0]
    h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (h + h.conj().T) / 2.0
    h /= np.linalg.norm(h)
    evals, evecs = np.linalg.eigh(rho)
    sqrt_rho = (evecs * np.sqrt(np.clip(evals, 0, None))) @ evecs.conj().T
    return sqrt_rho @ h @ sqrt_rho


def brute_force_subsets(n: int) -> list[frozenset[int]]:
    return [
        frozenset(c)
        for r in range(n + 1)
        for c in itertools.combinations(range(n), r)
    ]


# -- partial traces and log sums ----------------------------------------------


def einsum_partial_trace(
    mat: np.ndarray, row_dims: list[int], col_dims: list[int], keep: int
) -> np.ndarray:
    """Trace `mat` over the vertices not set in the bitmask `keep`.

    One np.einsum: each traced vertex shares its row and column index.
    """
    nv = len(row_dims)
    letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    rows = [letters[x] for x in range(nv)]
    cols = [
        letters[nv + x] if keep >> x & 1 else letters[x] for x in range(nv)
    ]
    kept = [x for x in range(nv) if keep >> x & 1]
    out = "".join(rows[x] for x in kept) + "".join(cols[x] for x in kept)
    arr = mat.reshape(tuple(row_dims) + tuple(col_dims))
    red = np.einsum("".join(rows) + "".join(cols) + "->" + out, arr)
    r = math.prod(row_dims[x] for x in kept)
    c = math.prod(col_dims[x] for x in kept)
    return red.reshape(r, c)


def scalar_log_sum_tree(logs: list[float]) -> float:
    """The pairwise log-sum as a scalar loop over each tree level."""
    vals = [v for v in logs if v != -math.inf]
    if not vals:
        return -math.inf
    while len(vals) > 1:
        nxt = []
        for i in range(0, len(vals) - 1, 2):
            nxt.append(np.logaddexp(vals[i], vals[i + 1]))
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return float(vals[0])


def sequential_ground_scan(
    energies: list[float], tol: float
) -> tuple[float, float, int, int]:
    """(best, second, index of best, degeneracy) by one scalar pass.

    A new best must undercut the current one by the relative and
    absolute tolerance `tol`; energies within it count as degenerate.
    """
    best, second, index, degen = math.inf, math.inf, 0, 1
    for k, e in enumerate(energies):
        if e < best * (1 - tol) - tol:
            second, best, index, degen = best, e, k, 1
        elif math.isclose(e, best, rel_tol=tol, abs_tol=tol):
            degen += 1
        elif e < second:
            second = e
    return best, second, index, degen
