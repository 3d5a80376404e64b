"""Averaged boundary observables: area moments over the sector weights.

An observable that is constant on each spin sector, such as the area
of the boundary region C (the sum of j over its links), factors out of
the fixed-spin partition sums entirely, so its average is a weighted
sum over sector weights: those of `p_vector`, or the row sums of the
pair distribution P.  The sequence forms at the end give the same
moments for weights proportional to the areas themselves.
"""

from __future__ import annotations

import math

import numpy as np

from rstn.holography import analyze_holography, holographic_p
from rstn.ising import IsingEngine
from rstn.state import Scenario


def link_area(twice_j: int) -> float:
    """Area eigenvalue j of one link."""
    return twice_j / 2.0


def sector_area(sc: Scenario, sector: int) -> float:
    """Total area of region C in one sector."""
    return sum(link_area(sc.spin(sector, lid)) for lid in sc.region_C)


def p_vector(sc: Scenario) -> np.ndarray:
    """Sector weights for observable averages.

    Where `analyze_holography` finds the scenario holographic, the C
    reduction concentrates on the sector blocks with their C
    dimensions (`holographic_p`); otherwise the diagonal of the pair
    distribution P is used.
    """
    if analyze_holography(sc).holographic:
        return holographic_p(sc)
    p = np.diag(IsingEngine.of(sc).distribution())
    return p / p.sum()


def _sector_areas(sc: Scenario) -> np.ndarray:
    return np.array([sector_area(sc, n) for n in range(len(sc.sectors))])


def _area_moments(sc: Scenario) -> tuple[float, float]:
    """<A_C> and <A_C^2> over the sector weights of `p_vector`."""
    p = p_vector(sc)
    areas = _sector_areas(sc)
    return float(p @ areas), float(p @ areas**2)


def area_average(sc: Scenario) -> float:
    """<A_C> = sum_n p_n A_{C,n}."""
    return _area_moments(sc)[0]


def area_average_partition(sc: Scenario) -> float:
    """<A_C> over the pair distribution P: sum_{m,n} P(m,n) A_{C,m}, the
    row sums of P against the sector areas."""
    p_mat = IsingEngine.of(sc).distribution()
    return float(p_mat.sum(axis=1) @ _sector_areas(sc))


def area_variance(sc: Scenario) -> float:
    """Var(A_C) = sum_n p_n A_n^2 - (sum_n p_n A_n)^2."""
    mean, square = _area_moments(sc)
    return max(square - mean**2, 0.0)


# -- sequence forms ----------------------------------------------------------
#
# With holographic weights on a single-link C at high spin, p_n is
# proportional to the area itself, and both moments reduce to order-2
# and order-3 analogues of a Renyi entropy of the area sequence.


def _area_sequence(areas) -> np.ndarray:
    """`areas` as a float array: 1-D, non-empty, finite and positive."""
    a = np.asarray(areas, dtype=float)
    if a.ndim != 1 or not a.size or not (np.isfinite(a) & (a > 0)).all():
        raise ValueError("areas must be a non-empty 1-D sequence of finite "
                         "positive numbers")
    return a


def sequence_renyi(areas, order: int) -> float:
    """-log( sum a^order / (sum a)^order ) of a positive sequence."""
    a = _area_sequence(areas)
    return -float(np.log((a**order).sum()) - order * np.log(a.sum()))


def sequence_mean_prefactor(areas) -> float:
    """<A> / sum(A) for p_n proportional to A_n."""
    return math.exp(-sequence_renyi(areas, 2))


def sequence_var_prefactor(areas) -> float:
    """Var(A) / sum(A)^2 for p_n proportional to A_n."""
    return math.exp(-sequence_renyi(areas, 3)) - math.exp(
        -2 * sequence_renyi(areas, 2)
    )


def sequence_average(areas) -> float:
    """<A> for p_n proportional to A_n; lies in [mean(A), sum(A)]."""
    a = _area_sequence(areas)
    return float((a**2).sum() / a.sum())
