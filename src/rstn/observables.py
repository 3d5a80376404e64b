"""Averaged boundary observables: diagonal insertions, area moments.

Spin-diagonal factorized observables commute with the sector
projectors, so inserting them into the doubled trace only modifies
the boundary factor of each Ising term: listed links contribute their
eigenvalue at the sector's spin, swapped boundary links pay 1/(2j+1)
as before.  An observable that is constant on each sector (the area
of a boundary region is the standard example) factors out of the
fixed-spin partition sums entirely, which collapses its average to a
weighted sum over the sector distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from rstn.holography import analyze_holography, holographic_p
from rstn.ising import IsingEngine
from rstn.spins import dim_rep
from rstn.state import Scenario


@dataclass
class DiagonalObservable:
    """Product of per-link operators, diagonal in the spin basis.

    `lambdas` maps (link id, twice-spin) to the eigenvalue on that
    link's fixed-spin block; links without an entry act as identity.
    Only outer boundary links may be listed.
    """

    lambdas: dict[tuple[str, int], float] = field(default_factory=dict)

    def log_eval(self, sc: Scenario, sector: int) -> float:
        """log of the factored eigenvalue product on one sector."""
        total = 0.0
        for (lid, tj), lam in self.lambdas.items():
            if sc.spin(sector, lid) != tj:
                continue
            if lam == 0.0:
                return -math.inf
            if lam < 0.0:
                raise ValueError(
                    f"negative eigenvalue {lam} on {lid} not representable "
                    f"as a weight"
                )
            total += math.log(lam)
        return total


IDENTITY = DiagonalObservable()


def boundary_factor(
    sc: Scenario,
    x_obs: DiagonalObservable,
    y_obs: DiagonalObservable,
    m: int,
    n: int,
    config: int,
) -> float:
    """Log of the boundary part of one doubled-trace term with insertions.

    Copy one (sector m) carries X, copy two (sector n) carries Y;
    boundary half-edges at swapped vertices glue the copies and pay
    1/(2j+1).  Spin agreement on glued links is enforced separately
    by the Delta constraint, so sector m's spins are read here.
    With X = Y = identity this is exactly the variant-0 boundary
    weight of the plain Hamiltonian.
    """
    log = x_obs.log_eval(sc, m) + y_obs.log_eval(sc, n)
    for k, b in enumerate(sc.graph.boundary):
        if config >> b.vertex & 1:
            log -= math.log(dim_rep(sc.spin(m, f"b{k}")))
    return log


# -- areas -------------------------------------------------------------------


def link_area(twice_j: int, sqrt_convention: bool = False) -> float:
    """Area eigenvalue of one link: j, or sqrt(j(j+1)) if requested."""
    j = twice_j / 2.0
    return math.sqrt(j * (j + 1.0)) if sqrt_convention else j


def sector_area(
    sc: Scenario, sector: int, sqrt_convention: bool = False
) -> float:
    """Total area of region C in one sector."""
    return sum(
        link_area(sc.spin(sector, lid), sqrt_convention)
        for lid in sc.region_C
    )


def area_observable(
    sc: Scenario, sector: int, sqrt_convention: bool = False
) -> DiagonalObservable:
    """The C area as a (sector-constant) diagonal insertion.

    On a fixed sector the sum over C links is a scalar; it is encoded
    here as that scalar on the first C link so the factored product
    evaluates to A_{C, sector}.
    """
    lid = sc.region_C[0]
    return DiagonalObservable(
        {(lid, sc.spin(sector, lid)): sector_area(sc, sector, sqrt_convention)}
    )


def p_vector(sc: Scenario, holographic: bool | None = None) -> np.ndarray:
    """Sector weights for observable averages.

    Holographic scenarios concentrate the C reduction on the sector
    blocks with their C dimensions; otherwise the diagonal of the
    pair distribution P is used.  Pass `holographic` to skip the
    autodetection.
    """
    if holographic or holographic is None and analyze_holography(sc).holographic:
        return holographic_p(sc)
    p = np.diag(IsingEngine.of(sc).distribution())
    return p / p.sum()


def _sector_areas(sc: Scenario, sqrt_convention: bool) -> np.ndarray:
    return np.array([sector_area(sc, n, sqrt_convention)
                     for n in range(len(sc.sectors))])


def _area_moments(sc: Scenario, sqrt_convention: bool,
                  holographic: bool | None) -> tuple[float, float]:
    """<A_C> and <A_C^2> over the sector weights of `p_vector`."""
    p = p_vector(sc, holographic)
    areas = _sector_areas(sc, sqrt_convention)
    return float(p @ areas), float(p @ areas**2)


def area_average(
    sc: Scenario,
    sqrt_convention: bool = False,
    holographic: bool | None = None,
) -> float:
    """<A_C> = sum_n p_n A_{C,n}."""
    return _area_moments(sc, sqrt_convention, holographic)[0]


def area_average_partition(sc: Scenario, sqrt_convention: bool = False) -> float:
    """<A_C> through the full insertion path.

    Inserts the (sector-constant) area observable on copy one of every
    pair term and normalizes; equals sum_{m,n} P(m,n) A_{C,m}.
    """
    p_mat = IsingEngine.of(sc).distribution()
    return float(p_mat.sum(axis=1) @ _sector_areas(sc, sqrt_convention))


def area_variance(
    sc: Scenario,
    sqrt_convention: bool = False,
    holographic: bool | None = None,
) -> float:
    """Var(A_C) = sum_n p_n A_n^2 - (sum_n p_n A_n)^2."""
    mean, square = _area_moments(sc, sqrt_convention, holographic)
    return max(square - mean**2, 0.0)


# -- sequence forms ----------------------------------------------------------
#
# With holographic weights on a single-link C at high spin, p_n is
# proportional to the area itself, and both moments reduce to order-2
# and order-3 analogues of a Renyi entropy of the area sequence.


def sequence_renyi(areas, order: int) -> float:
    """-log( sum a^order / (sum a)^order ) of a positive sequence."""
    a = np.asarray(areas, dtype=float)
    if np.any(a <= 0):
        raise ValueError("areas must be positive")
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
    a = np.asarray(areas, dtype=float)
    return float((a**2).sum() / a.sum())
