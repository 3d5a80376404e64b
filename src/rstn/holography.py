"""Holography diagnostics and sector-weight solving.

A scenario is holographic on its marked region C when the averaged
purity saturates the minimal value 1/dim(H_C).  Per sector pair this
is tracked by

    Q_{mn} = (Z_1^{(mn)} / Z_0^{(mn)}) * dim(H_C),

and the sector distribution p (p_n proportional to Ktilde_n c_n)
must satisfy <p, (Q - 1) p> = 0.  `solve_weights` looks for bulk
weights c that achieve this; `fixed_spin_criteria` checks the
per-region flip conditions that protect the single-sector ground
state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from rstn.ising import IsingEngine, PairResult
from rstn.state import Scenario
from rstn.spins import dim_rep

HOLO_TOL = {"exact": 1e-6, "high_spin": 1e-2}
COND_CAP = 1e12
WEIGHT_RESIDUAL_TOL = 1e-9
EQUALITY_TOL = 1e-9


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
    pairs: list[PairResult]  # the engine's pair table, m-major
    distribution: np.ndarray  # P(m, n)
    error_bound: float


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
    dim = engine.sc.dim_H_C()
    q = np.zeros((engine.n_sec, engine.n_sec))
    for r in engine.all_pairs():
        if -math.inf not in (r.z0.log, r.z1.log):
            q[r.m, r.n] = math.exp(r.z1.log - r.z0.log) * dim
    return q


def analyze_holography(sc: Scenario) -> HolographyReport:
    engine = IsingEngine(sc)
    purity = engine.purity()
    dim = sc.dim_H_C()
    ratio = purity * dim
    tol = HOLO_TOL[sc.mode]
    q = q_matrix(engine)
    singular = bool(np.any(q == 0.0) or np.linalg.cond(q) > COND_CAP)
    inverse_sum = None if singular else float(np.linalg.inv(q).sum())
    return HolographyReport(
        purity=purity,
        dim_H_C=dim,
        ratio=ratio,
        holographic=abs(ratio - 1.0) <= tol,
        tolerance=tol,
        q_matrix=q,
        inverse_sum=inverse_sum,
        singular=singular,
        pairs=engine.all_pairs(),
        distribution=engine.distribution(),
        error_bound=engine.error_bound(),
    )


# -- weight solving ---------------------------------------------------------


def closed_form_weights(sc: Scenario) -> np.ndarray:
    """Weights that equalize the sector distribution with the C dims.

    Valid when cross-sector pairs drop out (block-diagonal bulk state,
    C carrying all sector differences): p_n must be proportional to
    dim(H_{C,n}), which pins c_n up to one normalization.  The result
    depends only on the complement dims and internal amplitudes.
    """
    p = np.array([math.prod(dim_rep(sc.spin(m, lid)) for lid in sc.region_C)
                  for m in range(len(sc.sectors))], dtype=float)
    return _p_to_c(IsingEngine(sc), p / p.sum())


def _p_to_c(engine: IsingEngine, p: np.ndarray) -> np.ndarray:
    kt = np.array([math.exp(engine.log_K_tilde(m)) for m in range(len(p))])
    c = p / kt
    return c / c.sum()


def solve_weights(sc: Scenario) -> WeightSolution:
    """Find bulk sector weights that make the scenario holographic.

    Solves <p, beta p> = 0 with beta = Q - 1 over the probability
    simplex, then converts p back to weights via p ~ Ktilde_n c_n.
    Tries, in order: a null-vector of beta with single-signed entries,
    an exact root on a segment between extreme diagonal directions,
    and a deterministic multi-start simplex minimization.
    """
    engine = IsingEngine(sc)
    q = q_matrix(engine)
    n = q.shape[0]
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

    # (ii) root on a segment between the extreme diagonal directions
    diag = np.diag(beta_sym)
    lo, hi = int(np.argmin(diag)), int(np.argmax(diag))
    if diag[lo] < 0.0 < diag[hi]:
        e_lo = np.eye(n)[lo]
        e_hi = np.eye(n)[hi]

        def f(t: float) -> float:
            return residual((1 - t) * e_lo + t * e_hi)

        # f(0) < 0 < f(1): quadratic in t, bisect the sign change
        t_lo, t_hi = 0.0, 1.0
        for _ in range(200):
            mid = (t_lo + t_hi) / 2.0
            if f(mid) < 0.0:
                t_lo = mid
            else:
                t_hi = mid
        t = (t_lo + t_hi) / 2.0
        p = (1 - t) * e_lo + t * e_hi
        if abs(residual(p / p.sum())) <= WEIGHT_RESIDUAL_TOL:
            return finish(p, "segment_root")

    # (iii) deterministic multi-start simplex search
    from scipy import optimize  # slow to import; only this fallback needs it

    def objective(y: np.ndarray) -> float:
        p = np.abs(y)
        s = p.sum()
        if s <= 0:
            return 1.0
        return residual(p / s) ** 2

    starts = [np.ones(n)]
    starts += [np.ones(n) + 3.0 * np.eye(n)[k] for k in range(n)]
    best = None
    for y0 in starts:
        res = optimize.minimize(
            objective, y0, method="Nelder-Mead",
            options={"xatol": 1e-12, "fatol": 1e-24, "maxiter": 4000},
        )
        if best is None or res.fun < best.fun:
            best = res
    p = np.abs(best.x)
    p /= p.sum()
    if abs(residual(p)) > WEIGHT_RESIDUAL_TOL:
        raise InfeasibleError(
            f"no weights reach the holographic ratio "
            f"(best residual {residual(p):.3e})"
        )
    return finish(p, "simplex_search")


def reweighted_scenario(sc: Scenario, c: np.ndarray) -> Scenario:
    """Rescale the bulk state's sector blocks to the given weights."""
    n = len(sc.sectors)
    if len(c) != n:
        raise ValueError("one weight per sector required")
    old = np.array([sc.c_norm(m) for m in range(n)])
    blocks = {}
    for m in range(n):
        if old[m] > 0.0:
            blocks[(m, m)] = sc.block(m, m) * (c[m] / old[m])
        else:
            dim = sc.block_dim(m)
            blocks[(m, m)] = c[m] / dim * np.eye(dim, dtype=complex)
    for (m, n2), blk in sc.blocks.items():
        if m == n2:
            continue
        if old[m] > 0.0 and old[n2] > 0.0:
            blocks[(m, n2)] = blk * math.sqrt(
                (c[m] / old[m]) * (c[n2] / old[n2])
            )
    return replace(sc, blocks=blocks)


# -- fixed-spin flip criteria -----------------------------------------------


def fixed_spin_criteria(sc: Scenario, sector: int = 0) -> FixedSpinReport:
    """Region-flip stability of one sector's holographic ground state.

    For every nonempty vertex set X the links cut by X, weighted +1
    away from C and -1 on C, must outgrow the effective bulk input
    dimension exp(S2) of the bulk state reduced to X:

        sum_{cut(X) \\ C} log d  -  sum_{cut(X) & C} log d  >  S2(rho_X).

    Equality cases are collected separately as degeneracies.  The
    report also lists regions that already fail the weaker necessary
    condition with the full intertwiner dimensions in place of exp(S2).
    """
    if not 0 <= sector < len(sc.sectors):
        raise ValueError(f"sector {sector} out of range for a scenario "
                         f"with {len(sc.sectors)} sectors")
    engine = IsingEngine(sc)
    nv = engine.n_vert
    masks = np.arange(1, 1 << nv)
    # regions by size, then lexicographically as vertex tuples: of two
    # regions of one size the earlier has the larger bit-reversed mask
    size = sum((masks >> x) & 1 for x in range(nv))
    rev = sum(((masks >> x) & 1) << (nv - 1 - x) for x in range(nv))
    masks = masks[np.lexsort((-rev, size))]
    lhs = engine.cut_weight(sector, masks)
    nec = sum(math.log(dim) * ((masks >> x) & 1)
              for x, dim in enumerate(engine._vdims[sector]))
    rhs = engine._sigma_array(sector, sector)[masks]  # = S2 of the reduction
    # math.isclose(lhs, rhs, abs_tol=EQUALITY_TOL), elementwise
    tol = np.maximum(1e-9 * np.maximum(np.abs(lhs), np.abs(rhs)), EQUALITY_TOL)
    degenerate = (lhs == rhs) | (np.isfinite(rhs) & (np.abs(rhs - lhs) <= tol))
    failing = ~degenerate & (lhs < rhs)

    def rows(flags: np.ndarray) -> list:  # (region, lhs, rhs), in order
        return [(tuple(x for x in range(nv) if masks[i] >> x & 1),
                 float(lhs[i]), float(rhs[i])) for i in np.flatnonzero(flags)]

    return FixedSpinReport(
        sector=sector,
        passed=not (degenerate.any() or failing.any()),
        failing=rows(failing),
        degenerate=rows(degenerate),
        necessary_failing=[row[0] for row in rows(lhs <= nec)],
    )
