"""Holography diagnostics and sector-weight solving.

A scenario is holographic on its marked region C when the averaged
purity saturates the minimal value 1/dim(H_C).  Per sector pair this
is tracked by

    Q_{mn} = (Z_1^{(mn)} / Z_0^{(mn)}) * dim(H_C),

and the sector distribution p (p_n proportional to Ktilde_n c_n)
must satisfy <p, (Q - 1) p> = 0.  `solve_weights` finds bulk
weights c that achieve this, or shows from the exact extremes of the
form on the simplex that none exist; `fixed_spin_criteria` checks the
per-region flip conditions that protect the single-sector ground
state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import compress, islice, repeat

import numpy as np

from rstn.ising import IsingEngine, SizeCapError
from rstn.state import Scenario
from rstn.spins import dim_rep

HOLO_TOL = {"exact": 1e-6, "high_spin": 1e-2}
WEIGHT_RESIDUAL_TOL = 1e-9
EQUALITY_TOL = 1e-9
MAX_WEIGHT_SECTORS = 12  # `solve_weights` visits all 2^n - 1 faces, twice


class InfeasibleError(RuntimeError):
    """No admissible sector weights reach the holographic ratio."""


@dataclass
class HolographyReport:
    purity: float
    dim_H_C: int
    ratio: float
    holographic: bool
    tolerance: float
    q_matrix: np.ndarray
    inverse_sum: float | None
    singular: bool


@dataclass
class WeightSolution:
    c: np.ndarray
    p: np.ndarray
    residual: float
    method: str
    ratio: float


@dataclass
class FixedSpinReport:
    sector: int
    passed: bool
    failing: list[tuple[tuple[int, ...], float, float]] = field(
        default_factory=list
    )
    degenerate: list[tuple[tuple[int, ...], float, float]] = field(
        default_factory=list
    )
    necessary_failing: list[tuple[int, ...]] = field(default_factory=list)


def q_matrix(engine: IsingEngine) -> np.ndarray:
    """A copy of the engine's Q (`IsingEngine.quotients`)."""
    return engine.quotients().q.copy()


def analyze_holography(sc: Scenario) -> HolographyReport:
    engine = IsingEngine.of(sc)
    purity, rec = engine.purity(), engine.quotients()
    ratio = purity * rec.dim_H_C
    tol = HOLO_TOL[sc.mode]
    return HolographyReport(
        purity=purity, dim_H_C=rec.dim_H_C, ratio=ratio,
        holographic=abs(ratio - 1.0) <= tol, tolerance=tol,
        q_matrix=q_matrix(engine), inverse_sum=rec.inverse_sum,
        singular=rec.singular)


# -- weight solving ---------------------------------------------------------


def holographic_p(sc: Scenario) -> np.ndarray:
    """Sector distribution carried by C when the state is holographic:
    p_n proportional to the dimension dim(H_{C,n}) of C in sector n."""
    p = np.array([math.prod(dim_rep(sc.spin(m, lid)) for lid in sc.region_C)
                  for m in range(len(sc.sectors))], dtype=float)
    return p / p.sum()


def _p_to_c(engine: IsingEngine, p: np.ndarray) -> np.ndarray:
    kt = np.array([math.exp(engine.log_K_tilde(m)) for m in range(len(p))])
    c = p / kt
    return c / c.sum()


def _simplex_argmin(b: np.ndarray) -> np.ndarray:
    """A minimiser of p.b.p (b symmetric) over the probability simplex.

    The minimum lies at the stationary point of some face F, which
    solves [[2 b_FF, 1], [1, 0]] [p_F; lam] = [0; 1].  A face whose
    system has no solution (residual over 1e-9 max(1, |b|)) or whose
    point leaves the simplex attains its minimum on one of its own
    lower faces, so it is skipped; the lowest point of the other faces
    is the minimum.
    """
    n, best = len(b), None
    tol = 1e-9 * max(1.0, np.abs(b).max())
    for mask in range(1, 1 << n):
        face = [k for k in range(n) if mask >> k & 1]
        kkt = np.ones((len(face) + 1,) * 2)
        kkt[:-1, :-1], kkt[-1, -1] = 2.0 * b[np.ix_(face, face)], 0.0
        rhs = np.eye(len(face) + 1)[-1]
        x = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
        if np.abs(kkt @ x - rhs).max() > tol or x[:-1].min() < 0.0:
            continue
        p = np.zeros(n)
        p[face] = x[:-1]
        if best is None or p @ b @ p <= best @ b @ best:
            best = p  # on a tie the later face, so a flat b keeps all sectors
    return best


def solve_weights(sc: Scenario) -> WeightSolution:
    """Find bulk sector weights that make the scenario holographic.

    Solves <p, beta p> = 0 with beta = Q - 1 over the probability
    simplex, then converts p back to weights via p ~ Ktilde_n c_n.
    A null vector of beta with single-signed entries is taken first.
    Otherwise, the form being continuous on the convex simplex, a root
    exists exactly when its exact minimum there (`_simplex_argmin`) is
    <= 0 <= its maximum, and is bisected on the segment between them;
    the 2^n - 1 faces cap n at MAX_WEIGHT_SECTORS (SizeCapError).
    """
    engine = IsingEngine.of(sc)
    engine._log_weights()  # NumericalError where the normalization vanishes
    q = q_matrix(engine)
    beta = q - 1.0
    beta_sym = (beta + beta.T) / 2.0

    def residual(p: np.ndarray) -> float:
        return float(p @ beta_sym @ p)

    def finish(p: np.ndarray, method: str) -> WeightSolution:
        p = np.clip(p, 0.0, None)
        p /= p.sum()
        c = _p_to_c(engine, p)
        ratio = float(p @ q @ p)
        return WeightSolution(
            c=c, p=p, residual=abs(residual(p)), method=method, ratio=ratio
        )

    # (i) single-signed null vector
    evals, evecs = np.linalg.eigh(beta_sym)
    for idx in np.argsort(np.abs(evals)):
        if abs(evals[idx]) > WEIGHT_RESIDUAL_TOL * max(1.0, np.abs(evals).max()):
            break
        v = evecs[:, idx]
        if np.all(v > 1e-12) or np.all(v < -1e-12):
            return finish(np.abs(v), "null_vector")

    # (ii) the exact extremes, then a root between them
    if (n := len(q)) > MAX_WEIGHT_SECTORS:
        raise SizeCapError(
            f"weight solving visits {2**n - 1} faces of the simplex for {n} "
            f"sectors, over the cap of {MAX_WEIGHT_SECTORS} sectors "
            f"({2**MAX_WEIGHT_SECTORS - 1} faces)")
    p_lo, p_hi = _simplex_argmin(beta_sym), _simplex_argmin(-beta_sym)
    lo, hi = residual(p_lo), residual(p_hi)
    if lo > WEIGHT_RESIDUAL_TOL or hi < -WEIGHT_RESIDUAL_TOL:
        raise InfeasibleError(
            f"no weights reach the holographic ratio: p.(Q - 1).p ranges "
            f"over [{lo:.3e}, {hi:.3e}] on the simplex")
    t_lo, t_hi = 0.0, 1.0  # bisect the sign change from p_lo (t = 0) to p_hi
    for _ in range(200):
        mid = (t_lo + t_hi) / 2.0
        below = residual((1 - mid) * p_lo + mid * p_hi) < 0.0
        t_lo, t_hi = (mid, t_hi) if below else (t_lo, mid)
    t = (t_lo + t_hi) / 2.0
    return finish((1 - t) * p_lo + t * p_hi, "simplex_search")


# -- fixed-spin flip criteria -----------------------------------------------


def _by_size(bits: np.ndarray) -> np.ndarray:
    """The order of vertex sets, rows of 0/1 per vertex, by size, then as
    `itertools.combinations` lists them: descending as binary, vertex 0 the
    highest bit.  One key: size * 2^n less that number (n at most 57)."""
    return np.argsort(bits @ ((1 << bits.shape[1]) - (1 << np.arange(bits.shape[1])[::-1])))


def _flip_report(engine: IsingEngine, sector: int, dims: tuple[int, ...]) -> tuple:
    """The failing, degenerate and necessary-failing rows of `fixed_spin_criteria`
    as tuples.  The sets come in the engine's `_chunks` of masks, as rows of 0/1
    per vertex; those in a row are put in order (`_by_size`) as vertex tuples."""
    # per link: d away from C (else 1), d on C (else 1)
    away, on_c = ([dim_rep(tj) ** (c == side) for tj, c in zip(
        engine._plan.twice[sector].tolist(), engine._plan.on_C.tolist())] for side in (False, True))
    sigma, found, empty = engine._sigma_array(sector, sector), [], None  # sigma: S2 per set
    for configs in engine._chunks():
        bits = np.bitwise_and(configs[:, None] >> np.arange(engine.n_vert), 1, dtype=np.int8)
        energy = engine._link_energies(configs)[sector, 1]
        empty = energy[0] if empty is None else empty  # sum_C log d
        lhs, rhs, nec = energy - empty, sigma[configs[0]:configs[-1] + 1], bits @ np.log(dims)
        necessary = lhs <= nec
        # near a tie, in integers: prod_{cut(X) \ C} d <= prod_{x in X} dim_x prod_{cut(X) & C} d
        ties = np.flatnonzero(np.abs(lhs - nec) <= 1e-9 * np.maximum(1.0, np.abs(nec)))
        necessary[ties] = [math.prod(compress(away, cut)) <= math.prod(compress(dims, row))
                           * math.prod(compress(on_c, cut)) for cut, row in zip(
                               engine.sc.graph.cuts(configs[ties]).T.tolist(), bits[ties].tolist())]
        # math.isclose(lhs, rhs, abs_tol=EQUALITY_TOL), elementwise
        tol = np.maximum(1e-9 * np.maximum(np.abs(lhs), np.abs(rhs)), EQUALITY_TOL)
        degenerate = (lhs == rhs) | (np.isfinite(rhs) & (np.abs(rhs - lhs) <= tol))
        failing = ~degenerate & (lhs < rhs)
        hit = np.flatnonzero(failing | degenerate | necessary)
        found.append([a[hit] for a in (bits, lhs, rhs, failing, degenerate, necessary)])
    bits, *rest = map(np.concatenate, zip(*found))
    order = _by_size(bits)[1:]  # not the empty set, which passes the necessary test
    bits, lhs, rhs, failing, degenerate, necessary = (a[order] for a in (bits, *rest))
    regions = list(map(tuple, map(islice, repeat(iter(np.nonzero(bits)[1].tolist())),
                                  bits.sum(axis=1).tolist())))  # each takes its size of them
    rows = list(zip(regions, lhs.tolist(), rhs.tolist()))
    return (tuple(compress(rows, failing)), tuple(compress(rows, degenerate)),
            tuple(compress(regions, necessary)))


def fixed_spin_criteria(sc: Scenario, sector: int = 0) -> FixedSpinReport:
    """Region-flip stability of one sector's holographic ground state.

    For every nonempty vertex set X the links cut by X, weighted +1
    away from C and -1 on C, must outgrow the effective bulk input
    dimension exp(S2) of the bulk state reduced to X:

        sum_{cut(X) \\ C} log d  -  sum_{cut(X) & C} log d  >  S2(rho_X).

    The left side is the engine's swapped-variant link energy of X
    (`IsingEngine._link_energies`, C half-edges pinned swapped) less that
    of the empty set, sum_C log d.  Equality cases are collected
    separately as degeneracies.  The report also lists regions that
    already fail the weaker necessary condition, sum_{x in X} log dim_x
    in place of S2: the sums are logs of integers, so within 1e-9 of a
    tie the products decide, exactly.  Rows go by region size, then in
    `itertools.combinations` order.  The report is built on the first
    call per sector (`_flip_report`) and kept on the shared engine; each
    call returns new lists of the same rows.
    """
    if not 0 <= sector < len(sc.sectors):
        raise ValueError(f"sector {sector} out of range for a scenario "
                         f"with {len(sc.sectors)} sectors")
    if 0 in (dims := sc.vertex_dims(sector)):
        raise ValueError(f"sector {sector} has intertwiner dimension 0 at vertex "
                         f"{dims.index(0)}: no bulk state, so no flip criteria")
    engine = IsingEngine.of(sc)
    if sector not in engine._flip_reports:
        engine._flip_reports[sector] = _flip_report(engine, sector, dims)
    rows = engine._flip_reports[sector]
    return FixedSpinReport(sector, not (rows[0] or rows[1]), *map(list, rows))
