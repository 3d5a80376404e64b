"""Ready-made scenario families.

These builders produce `Scenario` objects for the recurring benchmark
geometries: the two-vertex pinwheel with a high-spin third leg (in a
single- and a two-sector variant), the once-fine-grained vertex, and
a tiny generic two-vertex case used to pin down the brute-force
reference.  Random scenarios for property tests live here too so the
test-suite and the CLI draw from the same pool.
"""

from __future__ import annotations

import math

import numpy as np

from rstn.graph import BoundaryLink, ColoredGraph, Link
from rstn.spins import intertwiner_dimension
from rstn.state import Scenario, Sector


def _pinwheel_graph() -> ColoredGraph:
    """Two 4-valent vertices joined by one link; three half-edges each.

    Boundary ids: b0..b2 at vertex 0 (colors 2..4), b3..b5 at vertex 1
    (colors 2..4).  The internal link i0 has color 1.
    """
    return ColoredGraph(
        n_vertices=2,
        internal=[Link(0, 1, 1)],
        boundary=[
            BoundaryLink(0, 2), BoundaryLink(0, 3), BoundaryLink(0, 4),
            BoundaryLink(1, 2), BoundaryLink(1, 3), BoundaryLink(1, 4),
        ],
    )


def appendix_c(
    twice_s: int,
    a: float | None = None,
    d: float | None = None,
    w: float = 0.5,
    b: complex = 0.0,
    u: complex = 0.0,
    v: complex = 0.0,
    region: str = "x",
    mode: str = "exact",
) -> Scenario:
    """Two-vertex scenario with sectors differing on one boundary leg.

    Vertex 0 carries spins (s, s, s, 3s); vertex 1 carries
    (s, s, s, X) with X = 3s - 1 in the first sector and X = 3s in
    the second.  The bulk state is parameterized by the 2x2 block
    [[a, b], [b*, d]] on the two-dimensional intertwiner space of the
    first sector, the cross vector (u, v) and the scalar w = 1 - a - d.
    `region` picks C: "x" marks the sector-splitting leg b5,
    "s_link" one of vertex 1's spin-s legs (b3).
    """
    S = twice_s
    if S < 1:
        raise ValueError("twice_s must be >= 1")
    if a is None and d is None:
        a = d = (1.0 - w) / 2.0
    elif a is None or d is None:
        raise ValueError("give both a and d or neither")
    graph = _pinwheel_graph()
    base = {"i0": S, "b0": S, "b1": S, "b2": 3 * S, "b3": S, "b4": S}
    sec_j = Sector({**base, "b5": 3 * S - 2}, name="j")
    sec_k = Sector({**base, "b5": 3 * S}, name="k")
    blocks = {
        (0, 0): np.array([[a, b], [np.conj(b), d]], dtype=complex),
        (0, 1): np.array([[u], [v]], dtype=complex),
        (1, 1): np.array([[w]], dtype=complex),
    }
    region_C = {"x": ["b5"], "s_link": ["b3"]}[region]
    return Scenario(
        graph=graph,
        sectors=[sec_j, sec_k],
        amplitudes={},
        blocks=blocks,
        region_C=region_C,
        mode=mode,
    )


def two_sector(
    twice_s: int,
    twice_t: int,
    c0: float = 0.5,
    mode: str = "high_spin",
) -> Scenario:
    """Two sectors with homogeneous geometry of scale s resp. t.

    Each sector is the pinwheel with spins (s, s, s, 3s) at vertex 0
    and (s, s, s, 3s-1) at vertex 1; C is the high-spin leg of
    vertex 1.  The bulk state is block-diagonal, maximally mixed
    within each sector, with weight c0 on the s sector.
    """
    if not (0.0 <= c0 <= 1.0):
        raise ValueError("c0 must lie in [0, 1]")
    graph = _pinwheel_graph()

    def spins(tw: int) -> dict[str, int]:
        return {
            "i0": tw, "b0": tw, "b1": tw, "b2": 3 * tw,
            "b3": tw, "b4": tw, "b5": 3 * tw - 2,
        }

    blocks = {
        (0, 0): c0 / 2.0 * np.eye(2, dtype=complex),
        (1, 1): (1.0 - c0) / 2.0 * np.eye(2, dtype=complex),
    }
    return Scenario(
        graph=graph,
        sectors=[Sector(spins(twice_s), "s"), Sector(spins(twice_t), "t")],
        amplitudes={},
        blocks=blocks,
        region_C=["b5"],
        mode=mode,
    )


def once_fine_grained(twice_j: int = 1) -> Scenario:
    """A 4-valent vertex split into five, keeping four boundary legs.

    Center vertex 0 connects by spokes to vertices 1..4, which form a
    4-cycle; each outer vertex keeps one boundary leg.  All spins are
    equal and the bulk state is maximally mixed.  C is the boundary
    leg of vertex 1.
    """
    graph = ColoredGraph(
        n_vertices=5,
        internal=[
            Link(0, 1, 1), Link(0, 2, 2), Link(0, 3, 3), Link(0, 4, 4),
            Link(1, 2, 3), Link(2, 3, 4), Link(3, 4, 1), Link(4, 1, 2),
        ],
        boundary=[
            BoundaryLink(1, 4), BoundaryLink(2, 1),
            BoundaryLink(3, 2), BoundaryLink(4, 3),
        ],
    )
    spins = {lid: twice_j for lid in graph.link_ids()}
    sec = Sector(spins, name="hom")
    dims = [
        intertwiner_dimension(tuple(twice_j for _ in range(4)))
        for _ in range(5)
    ]
    total = int(np.prod(dims))
    if total == 0:
        raise ValueError(f"no invariant state for twice-spin {twice_j}")
    blocks = {(0, 0): np.eye(total, dtype=complex) / total}
    return Scenario(
        graph=graph,
        sectors=[sec],
        amplitudes={},
        blocks=blocks,
        region_C=["b0"],
        mode="exact",
    )


def tiny_generic(mode: str = "exact") -> Scenario:
    """Pinwheel with all spins 1/2 and a fixed, non-symmetric bulk state."""
    graph = _pinwheel_graph()
    spins = {lid: 1 for lid in graph.link_ids()}
    # fixed B^dagger B construction keeps the state PSD but generic
    bmat = np.array(
        [
            [1.0, 0.2 + 0.1j, 0.0, 0.3],
            [0.0, 0.8, 0.1j, 0.0],
            [0.2, 0.0, 0.6, 0.1],
            [0.0, 0.1, 0.0, 0.5 + 0.2j],
        ],
        dtype=complex,
    )
    rho = bmat.conj().T @ bmat
    rho /= np.trace(rho).real
    return Scenario(
        graph=graph,
        sectors=[Sector(spins, name="half")],
        amplitudes={"i0": {1: 0.9 + 0.3j}},
        blocks={(0, 0): rho},
        region_C=["b3", "b4"],
        mode=mode,
    )


# -- randomized scenarios for property tests --------------------------------

def _template(name: str) -> ColoredGraph:
    if name == "one":
        return ColoredGraph(1, [], [BoundaryLink(0, c) for c in range(1, 5)])
    if name == "two":
        return _pinwheel_graph()
    if name == "chain":
        return ColoredGraph(
            3,
            [Link(0, 1, 1), Link(1, 2, 2)],
            [
                BoundaryLink(0, 2), BoundaryLink(0, 3), BoundaryLink(0, 4),
                BoundaryLink(1, 3), BoundaryLink(1, 4),
                BoundaryLink(2, 1), BoundaryLink(2, 3), BoundaryLink(2, 4),
            ],
        )
    raise ValueError(f"unknown template {name!r}")


def random_scenario(
    rng: np.random.Generator,
    template: str = "two",
    n_sectors: int = 1,
    max_twice: int = 4,
    mode: str = "exact",
    vertex_product: bool = False,
) -> Scenario:
    """Draw a valid scenario: random admissible spins, random PSD state."""
    graph = _template(template)
    ids = graph.link_ids()

    def draw_sector() -> tuple[dict[str, int], int]:
        """Random spins and their block dimension (0: inadmissible)."""
        spins = {lid: int(rng.integers(0, max_twice + 1)) for lid in ids}
        return spins, math.prod(
            intertwiner_dimension(tuple(spins[lid] for lid in graph.links_at(x)))
            for x in range(graph.n_vertices))

    sectors: list[Sector] = []
    dims: list[int] = []
    seen = set()
    attempts = 0
    while len(sectors) < n_sectors:
        attempts += 1
        if attempts > 2000:
            raise RuntimeError("could not draw admissible sectors")
        spins, dim = draw_sector()
        if dim == 0:
            continue
        key = tuple(sorted(spins.items()))
        if key in seen:
            continue
        seen.add(key)
        sectors.append(Sector(spins, name=f"r{len(sectors)}"))
        dims.append(dim)
    total = sum(dims)
    if vertex_product or n_sectors == 1:
        # block-diagonal (and per-sector product) state
        weights = rng.random(n_sectors) + 0.1
        weights /= weights.sum()
        blocks = {}
        for s, dim in enumerate(dims):
            x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            rho = x @ x.conj().T
            rho *= weights[s] / np.trace(rho).real
            blocks[(s, s)] = rho
    else:
        x = rng.normal(size=(total, total)) + 1j * rng.normal(size=(total, total))
        full = x @ x.conj().T
        full /= np.trace(full).real
        offs = np.concatenate([[0], np.cumsum(dims)]).astype(int)
        blocks = {
            (m, n): full[offs[m]:offs[m + 1], offs[n]:offs[n + 1]]
            for m in range(n_sectors)
            for n in range(n_sectors)
            if m <= n
        }
    outer = graph.outer_boundary_ids()
    n_c = int(rng.integers(1, len(outer)))
    region_C = [str(x) for x in rng.choice(outer, size=n_c, replace=False)]
    amplitudes: dict[str, dict[int, complex]] = {}
    for k in range(len(graph.internal)):
        lid = f"i{k}"
        amplitudes[lid] = {}
        for sec in sectors:
            tw = sec.spins[lid]
            if tw not in amplitudes[lid]:
                z = rng.normal() + 1j * rng.normal()
                if abs(z) < 0.1:
                    z = 0.5 + 0.5j
                amplitudes[lid][tw] = z
    return Scenario(
        graph=graph,
        sectors=sectors,
        amplitudes=amplitudes,
        blocks=blocks,
        region_C=sorted(region_C),
        mode=mode,
        vertex_product=vertex_product and n_sectors > 1,
    )
